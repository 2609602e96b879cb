"""Per-layer spans and counters for the batlab benchmark.

The tracer wraps batlab's public entry points from outside the package: it
replaces module attributes (and two methods) with wrappers for the duration
of a ``with tracer.installed():`` block and restores them afterwards.  Names
bound with ``from .exprspec import ...`` are separate bindings in each
importing module, so every binding is patched.

Each wrapped call records one span (id, name, start, end, parent span) in
flat arrays; a layer's self time is its spans' durations minus the parts
covered by their child spans.  The code under test is single-threaded, so a
plain stack gives the parent of every span.  ``jets.variable`` and
``jets.from_parts`` are called hundreds of thousands of times per pass and
are only counted.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# span name -> [(module, attribute), ...]; a dotted attribute names a method.
SPANS = {
    "exprspec.eval_float": [("exprspec", "eval_float"), ("cli", "eval_float"),
                            ("construct", "eval_float"), ("leznov", "eval_float"),
                            ("hydro", "eval_float")],
    "exprspec.eval_jet": [("exprspec", "eval_jet"), ("cli", "eval_jet"),
                          ("construct", "eval_jet"), ("leznov", "eval_jet"),
                          ("varlag", "eval_jet")],
    "exprspec.parse": [("exprspec", "parse"), ("cli", "parse"), ("varlag", "parse")],
    "exprspec.partial": [("exprspec", "partial"), ("construct", "partial"),
                         ("leznov", "partial")],
    "construct.handle": [("construct", "FieldHandle.__call__")],
    "construct.hodograph_solve": [("construct", "HodographSolver.solve")],
    "construct.hodograph_grid": [("construct", "hodograph_grid")],
    "leznov.solve_constraints": [("leznov", "solve_constraints")],
    "leznov.speed_jets": [("leznov", "speed_jets")],
    "residuals.sweep": [("residuals", "sweep")],
    "varlag.variational_residual": [("varlag", "variational_residual")],
    "varlag.onshell_degeneracy": [("varlag", "onshell_degeneracy")],
    "hydro.integrate": [("hydro", "integrate_characteristics"),
                        ("hydro", "integrate_multifield")],
    "hydro.fd": [("hydro", "fd_jet_at"), ("hydro", "fd_derivatives_multi"),
                 ("hydro", "fd_derivatives_time_space")],
    "hydro.dump": [("hydro", "dump_char_grid"), ("hydro", "dump_multi_grid")],
    "cli.run_scenario": [("cli", "run_scenario")],
    "cli.load_scenario": [("cli", "load_scenario")],
}

COUNTED = {"jets.variable": ("jets", "variable"),
           "jets.from_parts": ("jets", "from_parts")}


def _point_key(point) -> tuple:
    return tuple(float(c) for c in point)


def _dump_bytes(args, kwargs) -> int:
    csv_path = Path(args[1] if len(args) > 1 else kwargs["csv_path"])
    meta = args[2] if len(args) > 2 else kwargs.get("meta_path")
    meta_path = Path(meta) if meta else csv_path.with_suffix(".meta.json")
    return csv_path.stat().st_size + meta_path.stat().st_size


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.names = list(SPANS)
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.points: dict[str, set] = defaultdict(set)
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn, before=None, after=None):
        name_id = self.names.index(name)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            if before is not None:
                before(args)
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.self_s[name] += dur - frame[1]
                self.calls[name] += 1
                if parent is not None:
                    parent[1] += dur
                self.span_id.append(sid)
                self.span_name.append(name_id)
                self.span_parent.append(parent[0] if parent is not None else -1)
                self.span_start.append(start)
                self.span_end.append(end)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-layer counters taken from results ----------------------------------

    def _before(self, name: str):
        # Distinct points are recorded before the solve, so a point whose
        # solve raises still counts as a point.
        points = self.points[name]
        if name == "construct.hodograph_solve":
            return lambda args: points.add(_point_key(args[1:3]))
        if name == "leznov.solve_constraints":
            return lambda args: points.add(_point_key(args[1]))
        return None

    def _after(self, name: str):
        if name == "varlag.variational_residual":
            def nodes(result, args, kwargs):
                nt, nx = args[1].shape
                self.counters["varlag.nodes"] += (nt - 2) * (nx - 2)
            return nodes
        if name == "hydro.integrate":
            def levels(result, args, kwargs):
                self.counters["hydro.levels"] += result.nt
            return levels
        if name == "hydro.dump":
            def written(result, args, kwargs):
                self.counters["hydro.dump_bytes"] += _dump_bytes(args, kwargs)
            return written
        return None

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        import importlib

        saved = []

        def patch(module_name, attr, make):
            owner = importlib.import_module(f"batlab.{module_name}")
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part)
            leaf = attr.split(".")[-1]
            original = owner.__dict__[leaf] if isinstance(owner, type) \
                else getattr(owner, leaf)
            saved.append((owner, leaf, original))
            setattr(owner, leaf, make(original))

        try:
            for name, bindings in SPANS.items():
                before, after = self._before(name), self._after(name)
                for module_name, attr in bindings:
                    patch(module_name, attr,
                          lambda fn, n=name, b=before, a=after: self._span(n, fn, b, a))
            for name, (module_name, attr) in COUNTED.items():
                patch(module_name, attr, lambda fn, n=name: self._count(n, fn))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    # -- results ------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self seconds and the derived counters of this pass."""
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        for name in COUNTED:
            out[f"{name}.calls"] = self.calls.get(name, 0)
        for name, per in (("construct.solves_per_point", "construct.hodograph_solve"),
                          ("leznov.solves_per_point", "leznov.solve_constraints")):
            distinct = len(self.points.get(per, ()))
            out[name] = self.calls.get(per, 0) / distinct if distinct else 0.0
        for name in ("varlag.nodes", "hydro.levels", "hydro.dump_bytes"):
            out[name] = self.counters.get(name, 0)
        return out

    def write_spans(self, path: Path, record: dict) -> None:
        """All spans of the pass as flat arrays, with the run record."""
        import json

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), record=np.array(json.dumps(record)),
                 id=np.frombuffer(self.span_id, dtype=np.int64),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
