"""Batch driver: run scenario files, emit machine-readable reports.

Commands::

    batlab verify   <scenario.json>   # constructions + residual checks
    batlab simulate <scenario.json>   # characteristic integration + drift
    batlab suite                      # all bundled scenarios, summary table

Common options: ``--out DIR`` (report directory), ``--seed N`` (64-bit RNG
seed recorded in every report), ``--jobs N`` (parallel scenarios in suite).

Exit codes: 0 all checks passed; 1 a tolerance failed (or too many skipped
samples); 2 scenario parse/validation error, or an ``--out`` that cannot be
created; 3 runtime numerical failure, or an array too large for memory;
4 integration aborted (CFL violation or characteristic crossing), with partial
grid dumps retained.

Report schema: ``{scenario, paper_anchor, reports: [{equation, samples,
skipped, max_norm, rms_norm, tolerance, pass}], seed, version}``, written as
strict JSON (a norm without a finite value is null).  A check also fails when
more than 20% of its requested samples were skipped as singular, so passes can
never be manufactured by skipping.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import zlib
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, construct, hydro, jets, leznov, residuals, varlag
from .construct import ImplicitSolveConfig, LinearMap2
from .errors import (
    CFLViolationError,
    CharacteristicCrossingError,
    EvaluationError,
    ExprSyntaxError,
)
# eval_float is not called here; the benchmark's tracer (perfbench/tracing.py)
# patches this binding by name.
from .exprspec import at_points, eval_float, eval_jet, float_fn, parse  # noqa: F401
from .residuals import ResidualReport, TransportPattern, _ok

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
EXIT_ABORT = 4

MAX_SKIP_FRACTION = 0.2


class ScenarioError(ValueError):
    """Scenario file failed validation."""


# -- plumbing -------------------------------------------------------------------------


def _scenario_rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(
        [seed & 0xFFFFFFFFFFFFFFFF, zlib.crc32(name.encode())]))


@contextlib.contextmanager
def _reading():
    """A ValueError the library raises on scenario input read here is a ScenarioError."""
    try:
        yield
    except ValueError as err:
        raise ScenarioError(str(err)) from None


def _parse_expr(text, where: str):
    if not isinstance(text, str):
        raise ScenarioError(f"{where}: expected an expression string, got {text!r}")
    try:
        return parse(text)
    except ExprSyntaxError as err:
        raise ScenarioError(f"{where}: {err}") from None
    except RecursionError:
        raise ScenarioError(f"{where}: expression nested too deeply") from None


def _entry(equation: str, report: ResidualReport, tolerance: float,
           requested: int) -> dict:
    too_many_skipped = report.skipped_singular > MAX_SKIP_FRACTION * max(requested, 1)
    ok = (math.isfinite(report.max_norm) and report.max_norm <= tolerance
          and not too_many_skipped)
    return {
        "equation": equation,
        "samples": report.samples,
        "skipped": report.skipped_singular,
        # JSON has no inf or NaN: a non-finite norm (no sample, or an aborted
        # run) is written as null, and such an entry never passes.
        "max_norm": report.max_norm if math.isfinite(report.max_norm) else None,
        "rms_norm": report.rms_norm if math.isfinite(report.rms_norm) else None,
        "tolerance": tolerance,
        "pass": bool(ok),
    }


def _field_or(d: dict, key: str, default=None, required: bool = False):
    if not isinstance(d, dict):
        raise ScenarioError(f"expected a JSON object with field {key!r}, got {d!r}")
    if key not in d:
        if required:
            raise ScenarioError(f"missing required field {key!r}")
        return default
    return d[key]


def _object(d: dict, key: str, required: bool = True) -> dict:
    """Object-valued field ``key`` of ``d``; an absent or null optional one is ``{}``."""
    block = _field_or(d, key, required=required)
    if not isinstance(block, dict) and (required or block is not None):
        raise ScenarioError(f"{key}: expected a JSON object, got {block!r}")
    return block or {}


def _list(d: dict, key: str, default=None, of: str = "expression strings") -> list:
    """Non-empty list-valued field ``key`` of ``d``; required when there is no
    ``default``."""
    value = _field_or(d, key, default, required=default is None)
    if not isinstance(value, list):
        raise ScenarioError(f"{key}: expected a JSON list of {of}, got {value!r}")
    if not value:
        raise ScenarioError(f"{key}: expected a non-empty JSON list of {of}, got []")
    return value


def _file_name(value, where: str) -> str:
    """``value`` as one component of an output file name (at most 100 bytes, so
    that two of them fit in one 255-byte file name)."""
    if (not isinstance(value, str) or value in ("", ".", "..")
            or any(c in value for c in "/\\\0")
            or len(value.encode("utf-8", "replace")) > 100):
        raise ScenarioError(f"{where}: expected a file-name string of at most 100 bytes "
                            f"without a path separator, got {value!r}")
    return value


def _number(value, where: str, kind=float):
    """Scenario scalar ``value`` as ``kind``: a finite JSON number, a whole one for
    ``int``.  A string, a boolean, null, 1e400 or a fractional count is a
    ScenarioError."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value) and kind(value) == value:
                return kind(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ScenarioError(f"{where}: expected a finite {kind.__name__}, got {value!r}")


def _numbers(values, where: str, kind=float, length: int | None = None) -> list:
    """A JSON list of scenario scalars, each read by ``_number``."""
    if not isinstance(values, list) or length not in (None, len(values)):
        raise ScenarioError(f"{where}: expected a list of {length or 'finite'} numbers, "
                            f"got {values!r}")
    return [_number(v, where, kind) for v in values]


def _lookup(table: dict, key, message: str):
    try:
        return table[key]
    except (KeyError, TypeError):  # TypeError: an unhashable key from the file
        raise ScenarioError(message) from None


def _halving(label: str, resolutions: list, measured: dict, min_ratio: float) -> list[dict]:
    """One entry per key measured at every resolution: fine/coarse, which must not
    exceed 1/min_ratio.  Identically zero pairs (exactly satisfied identities)
    count as converged."""
    if min_ratio <= 0 or len(resolutions) < 2:
        return []
    entries = []
    for key, coarse in measured[resolutions[0]].items():
        fine = measured[resolutions[-1]][key]
        if coarse is None or fine is None:  # a null norm has no ratio
            value = math.nan
        else:
            value = 0.0 if coarse <= 1e-14 and fine <= 1e-14 else fine / max(coarse, 1e-300)
        rep = ResidualReport("halving", 2, value, value, 0)
        entries.append(_entry(f"halving[{label}:{key}]", rep, 1.0 / min_ratio, 2))
    return entries


def _solve_config(block: dict) -> ImplicitSolveConfig:
    seed = block.get("seed", 1.0)
    seed = (tuple(_numbers(seed, "config.seed")) if isinstance(seed, list)
            else _number(seed, "config.seed"))
    bracket = block.get("bracket")
    if bracket is not None:
        bracket = tuple(_numbers(bracket, "config.bracket", length=2))
    return ImplicitSolveConfig(
        newton_tol=_number(block.get("newton_tol", 1e-12), "config.newton_tol"),
        max_iter=_number(block.get("max_iter", 50), "config.max_iter", int),
        seed=seed,
        bracket=bracket,
    )


def _box_sampler(samples: dict, rng: np.random.Generator, dim: int):
    """``count`` uniform points of a box of ``dim`` coordinates, as a
    ``(count, dim)`` array (the bits and generator state of ``count`` draws of
    one point each)."""
    low = np.asarray(_numbers(_field_or(samples, "low", required=True), "samples.low"))
    high = np.asarray(_numbers(_field_or(samples, "high", required=True), "samples.high"))
    count = _number(_field_or(samples, "count", required=True), "samples.count", int)
    if count < 1:
        raise ScenarioError(f"samples count must be at least 1, got {count}")
    if low.shape != high.shape or np.any(low >= high):
        raise ScenarioError("samples box must satisfy low < high componentwise")
    if low.shape != (dim,):
        raise ScenarioError(f"samples box must have {dim} coordinates, got {low.size}")
    return rng.uniform(low, high, size=(count, dim)), count


# -- verify-kind cases -------------------------------------------------------------------
#
# A case samples its points, solves the constructor at all of them in one
# batched solve (each point solved once, from its seed), differentiates at the
# solved points as one batch and runs every check from ``_CHECKS`` on that
# batch.  A point whose solve or jets failed holds its EvaluationError and is
# skipped by each check.  A Leznov case also derives its speeds from the field
# jets, as a second batch; a point whose speeds failed is skipped by the checks
# that read them.


@dataclass
class _Solved:
    """One verify case, sampled and solved."""

    label: str
    rng: np.random.Generator
    requested: int
    points: np.ndarray  # (count, dim) sample points; (u, v) for hodograph cases
    errors: list  # per point: the EvaluationError of its solve or jets, or None
    # The constructor's jets at the points without an error, as one batch: the
    # field, (phi, phibar) for hodograph cases, the tuple of fields for Leznov
    # cases; None if no point solved.
    batch: object
    model: object = None  # HodographSolver or LeznovSystem
    tx: list | None = None  # hodograph cases: the (t, x) image of each (u, v)
    # Leznov cases: per point, the error of its solve, field jets or speeds, or
    # None; and at the points without one, the batch of (fields, (u, v)).
    speed_errors: list | None = None
    speeds: tuple | None = None

    @property
    def skipped(self) -> int:
        return len(self.errors) - self.errors.count(None)


def _at_solved(fn, errors: list, *batches):
    """``(errors, batch)``: ``fn`` over the points without an error in
    ``errors``, as one batch.  ``batches`` hold ``fn``'s inputs at those
    points, in order; the returned ``errors`` hold per point the input's
    error, the error ``fn`` raised there (``residuals.batched``), or None."""
    ok = [i for i, err in enumerate(errors) if err is None]
    errors = list(errors)
    if not ok:
        return errors, None
    failed, batch = residuals.batched(fn, *batches)
    for i, err in zip(ok, failed):
        errors[i] = err
    return errors, batch


def _expr(block: dict, key: str):
    return _parse_expr(_field_or(block, key, required=True), key)


def _field_case(make, dim: int):
    """Case builder for a constructor that returns a FieldHandle of ``dim``
    coordinates."""

    def build(block, label, case, rng) -> _Solved:
        with _reading():
            handle = make(block)
        points, requested = _box_sampler(_object(case, "samples"), rng, dim)
        errors, roots = handle.solve_many(points)
        errors, batch = _at_solved(handle.jets, errors, points[_ok(errors)], roots)
        return _Solved(label, rng, requested, points, errors, batch)

    return build


def _hodograph_case(block, label, case, rng) -> _Solved:
    with _reading():
        solver = construct.HodographSolver(_expr(block, "f"), _expr(block, "g"),
                                           _solve_config(_object(block, "config", False)))
        construct.seed_pair(solver.cfg.seed)  # the born_infeld check solves from it
    samples = _object(case, "samples")
    if samples.get("mode", "uv_box") != "uv_box":
        raise ScenarioError("hodograph cases sample the (u, v) parameter box")
    uv, requested = _box_sampler(samples, rng, 2)
    t, x = at_points(solver.forward, uv[:, 0], uv[:, 1])
    errors, batch = _at_solved(solver.fields, *_uv_at(*solver.solve_many(t, x, uv)))
    return _Solved(label, rng, requested, uv, errors, batch, solver,
                   list(zip(t.tolist(), x.tolist())))


def _uv_at(errors: list, uv: np.ndarray):
    """``(errors, u, v)`` of a hodograph batch solve."""
    return errors, uv[:, 0], uv[:, 1]


def _leznov_case(block, label, case, rng) -> _Solved:
    with _reading():
        sys_ = leznov.LeznovSystem(
            n=_number(_field_or(block, "n", required=True), "n", int),
            Q=[_parse_expr(q, "Q") for q in _list(block, "Q")],
            P=[_parse_expr(p, "P") for p in _list(block, "P")],
            cfg=_solve_config(_object(block, "config", False)),
        )
    if sys_.n != 2 and "complex_bateman" in map(_check_key, case["checks"]):
        raise ScenarioError("complex_bateman check needs n = 2")
    points, requested = _box_sampler(_object(case, "samples"), rng, 2 * sys_.n)
    errors, roots = leznov.solve_many(sys_, points)
    errors, fields = _at_solved(lambda p, phi: leznov.field_jets(sys_, p, phi),
                                errors, points[_ok(errors)], roots)
    speed_errors, speeds = _at_solved(
        lambda p, f: (f, leznov.speed_jets(sys_, p, f)), errors, points[_ok(errors)], fields)
    return _Solved(label, rng, requested, points, errors, fields, sys_,
                   speed_errors=speed_errors, speeds=speeds)


def _run_verify_case(case: dict, rng: np.random.Generator,
                     sink: dict | None = None) -> list[dict]:
    block = _object(case, "construct")
    op = _field_or(block, "op", required=True)
    build = _lookup(_CONSTRUCTORS, op, f"unknown constructor op {op!r}")
    label = _file_name(case.get("label", op), "label")
    checks = _list(case, "checks", of="JSON objects")
    runs = [_lookup(_CHECKS, (op, eq), f"check {eq!r} does not apply to {label!r}")
            for eq in map(_check_key, checks)]
    with _reading():
        runs = [run(check, _number(_field_or(check, "tolerance", required=True), "tolerance"))
                for run, check in zip(runs, checks)]

    c = build(block, label, case, rng)
    if sink is not None:
        sink[label] = c.points if c.tx is None else [
            (*tx, *uv) for tx, uv in zip(c.tx, c.points)]
    entries = []
    for run in runs:
        entries += run(c)
    return entries


def _check_key(check: dict) -> str:
    """A verify check's ``_CHECKS`` key: its equation, and a reparametrization's target."""
    eq = _field_or(check, "equation", required=True)
    if eq == "reparametrization" and "target" in check:
        return f"{eq}:{check['target']}"
    return eq


# -- the checks: (check block, tolerance) -> (solved case -> report entries) -------------
# A check reads its options before any solve; what it returns runs on the solved case.


def _swept(c: _Solved, name: str, residual, tol: float) -> dict:
    """Entry for ``residual`` of the case's batch of jets, normalized per sample."""
    rep = residuals.sweep(name, c.batch, residual, c.skipped)
    return _entry(f"{name}[{c.label}]", rep, tol, c.requested)


def _per_point(residual):
    """Check applying ``residual`` to the constructor's jets at every point."""
    return lambda check, tol: lambda c: [_swept(c, check["equation"], residual, tol)]


def _reparametrized(check: dict, tol: float, name: str, residual):
    """One entry per map h of the check: ``residual(h, jets)`` at every point."""
    maps = [(htxt, construct.reparametrization(_parse_expr(htxt, "map")))
            for htxt in _list(check, "maps", ["s^3 + s"])]

    def run(c: _Solved) -> list[dict]:
        entries = []
        for htxt, h in maps:
            rep = residuals.sweep(name, c.batch, lambda j: residual(h, j), c.skipped)
            entries.append(_entry(f"{name}[{c.label}:{htxt}]", rep, tol, c.requested))
        return entries

    return run


def _tolerance_only(run):
    """Check ``run(solved case, tolerance)``, which has no other option."""
    return lambda check, tol: lambda c: run(c, tol)


def _hodograph_identities(c: _Solved, tol: float) -> list[dict]:
    rep = residuals.sweep("hodograph_identities", c.points,
                          lambda uv: c.model.identity_residuals(uv[..., 0], uv[..., 1]))
    return [_entry(f"hodograph_identities[{c.label}]", rep, tol, c.requested)]


def _roundtrip(c: _Solved, tol: float) -> list[dict]:
    worst, skipped = 0.0, c.skipped
    if c.batch:
        # (u, v) = (phibar, phi) at the solved points, mapped forward again
        errors, tx2 = residuals.batched(c.model.forward, c.batch[1].value, c.batch[0].value)
        skipped += len(errors) - errors.count(None)
        if tx2 is not None:
            t, x = np.array(c.tx)[_ok(c.errors)][_ok(errors)].T
            scale = residuals._larger(residuals._larger(1.0, abs(t)), abs(x))
            # as Python's max from 0.0: a NaN never wins (residuals._larger)
            worst = max([0.0, *(abs(tx2[0] - t) / scale).tolist(),
                         *(abs(tx2[1] - x) / scale).tolist()])
    rep = ResidualReport("roundtrip", c.requested - skipped, worst, worst, skipped)
    return [_entry(f"roundtrip[{c.label}]", rep, tol, c.requested)]


def _born_infeld(check: dict, tol: float):
    lam = _number(check.get("lambda", 1.0), "lambda")
    if lam <= 0:
        raise ScenarioError(f"lambda: expected a positive float, got {lam!r}")

    def run(c: _Solved) -> list[dict]:
        # (u, v) = (phibar, phi).  The integrability check solves from the
        # configured seed, not from the sample's.
        errors, cross = _at_solved(c.model.fields, *_uv_at(*c.model.solve_many(*zip(*c.tx))))
        rep = residuals.sweep("born_infeld_cross", cross, lambda f: (
            construct.born_infeld_cross_residual(f[1], f[0], lam)),
            len(errors) - errors.count(None))
        return [
            _swept(c, "born_infeld", lambda f: residuals.born_infeld(
                construct.born_infeld_jet(f[1], f[0], lam), lam), tol),
            _entry(f"born_infeld_cross[{c.label}]", rep, tol, c.requested),
        ]
    return run


def _linear_covariance(check: dict, tol: float):
    speed_tol = _number(check.get("speed_tolerance", 1e-8), "speed_tolerance")
    n_maps = _number(check.get("maps", 10), "maps", int)
    if n_maps < 1:
        raise ScenarioError(f"maps: expected an integer of at least 1, got {n_maps!r}")

    def run(c: _Solved) -> list[dict]:
        maps = []
        while len(maps) < n_maps:
            m = LinearMap2(*c.rng.uniform(-2.0, 2.0, size=4))
            if abs(m.det) >= 0.3:
                maps.append(m)

        # Each entry counts its own skips: a point whose pulled-back jets exist
        # is a covariance sample even if its speed cannot be matched.
        res_samples, speed_samples, res_skipped, speed_skipped = [], [], 0, 0
        has_base = _ok(c.errors)
        for m in maps:
            mat, minv = m.matrix(), m.inverse()
            tx = [minv @ (mat @ np.array(p)) for p in c.tx]  # (t, x) only up to rounding
            errors, pulled = _at_solved(lambda u, v: tuple(
                construct.pull_back(j, minv) for j in c.model.fields(u, v)),
                *_uv_at(*c.model.solve_many(*zip(*tx), c.points)))
            has_pulled = _ok(errors)
            res_skipped += len(errors) - errors.count(None)
            if pulled is not None:
                res_samples.append(residuals.two_field_bateman(*pulled))
            # The speed match also reads the point's base jets.
            both, matched = has_pulled & has_base, []
            if both.any():
                matched, speeds = residuals.batched(
                    lambda jb, base_bar: _speed_match(jb, base_bar, m),
                    residuals.take(pulled[1], both[has_pulled]),
                    residuals.take(c.batch[1], both[has_base]))
                if speeds is not None:
                    speed_samples.append(speeds)
            speed_skipped += len(errors) - matched.count(None)
        requested = n_maps * len(c.points)
        rep = residuals.grid_report("linear_covariance", res_samples, res_skipped)
        rep2 = residuals.grid_report("moebius_speed_match", speed_samples, speed_skipped)
        return [_entry(f"linear_covariance[{c.label}]", rep, tol, requested),
                _entry(f"moebius_speed_match[{c.label}]", rep2, speed_tol, requested)]
    return run


def _speed_match(jb, base_bar, m: LinearMap2) -> residuals.ResidualSample:
    """The pulled-back phibar's speed against the Moebius image of the base
    phibar's speed, at one point or over a batch."""
    u_orig = base_bar.grad[..., 0] / base_bar.grad[..., 1]
    expected_u, _ = construct.moebius_transform((u_orig, u_orig), m)
    u_new = jb.grad[..., 0] / jb.grad[..., 1]
    return residuals.ResidualSample(u_new - expected_u, abs(u_new) + abs(expected_u))


def _constraint_gap(c: _Solved, tol: float) -> list[dict]:
    """The worst |Q - P| over the solved points, phi read from the field jets."""
    gaps = leznov.constraint_gap(c.model, c.points[_ok(c.errors)], np.stack(
        [f.value for f in c.batch], axis=-1)).tolist() if c.batch else []
    worst = max(gaps, default=0.0)
    rep = ResidualReport("constraint_gap", len(gaps), worst, worst, c.skipped)
    return [_entry(f"constraint_gap[{c.label}]", rep, tol, c.requested)]


def _speeds_on_x(check: dict) -> str:
    """The operator binding a Leznov check names: ``"v"`` (default) or ``"u"``."""
    speeds_on_x = check.get("speeds_on_x", "v")
    if speeds_on_x not in ("u", "v"):
        raise ScenarioError(f"speeds_on_x: expected a 'u' or 'v', got {speeds_on_x!r}")
    return speeds_on_x


def _speed_entry(c: _Solved, name: str, samples, tol: float) -> dict:
    """Entry for the Leznov ``samples`` (a tuple of batches over the points
    with speeds; None if there are none), against the global term magnitude
    and reduced point by point."""
    rep = residuals.grid_report(name, [] if samples is None else [residuals.by_point(samples)],
                                len(c.speed_errors) - c.speed_errors.count(None))
    return _entry(f"{name}[{c.label}]", rep, tol, c.requested)


def _holomorphy(check: dict, tol: float):
    speeds_on_x = _speeds_on_x(check)

    def run(c: _Solved) -> list[dict]:
        d, dbar = (None, None) if c.speeds is None else leznov.holomorphy_samples(
            c.model, *c.speeds, speeds_on_x)
        return [_speed_entry(c, "d_phi", d, tol), _speed_entry(c, "dbar_phi", dbar, tol)]
    return run


def _zero_curvature(check: dict, tol: float):
    speeds_on_x = _speeds_on_x(check)

    def run(c: _Solved) -> list[dict]:
        samples = None if c.speeds is None else leznov.zero_curvature_samples(
            c.model, c.speeds[1], speeds_on_x)
        return [_speed_entry(c, "zero_curvature", samples, tol)]
    return run


def _scalar_checks(equation: str, residual, **others) -> dict:
    """Checks of a scalar field that solves ``equation``: the equation, its
    reparametrization (whose ``target`` can only be that equation) and ``others``."""
    def reparametrized(check, tol):
        return _reparametrized(check, tol, f"reparametrized_{equation}",
                               lambda h, jet: residual(h(jet)))
    return {equation: _per_point(residual), "reparametrization": reparametrized,
            f"reparametrization:{equation}": reparametrized, **others}


_CONSTRUCTORS = {
    "solve_implicit_fg": _field_case(lambda b: construct.solve_implicit_fg(
        _expr(b, "F"), _expr(b, "G"), _solve_config(_object(b, "config", False))), 4),
    "holo_sum": _field_case(lambda b: construct.holo_sum(_expr(b, "f"), _expr(b, "g")), 4),
    "implicit_3d": _field_case(lambda b: construct.implicit_3d(
        _expr(b, "F"), _expr(b, "G"), _expr(b, "K"), _number(b.get("const_c", 0.0), "const_c"),
        _solve_config(_object(b, "config", False))), 3),
    "parametric_hodograph": _hodograph_case,
    "leznov": _leznov_case,
}

# jet arity -> the checks of a scalar field with that arity
_ARITY_CHECKS = {
    4: _scalar_checks("complex_bateman", residuals.complex_bateman),
    3: _scalar_checks("euclidean_3d", residuals.euclidean_3d,
                      euclid_first_order=_per_point(residuals.euclidean_first_order)),
}

# (constructor op, check key) -> check
_CHECKS = {
    **{(op, eq): run for op, arity in (("solve_implicit_fg", 4), ("holo_sum", 4),
                                        ("implicit_3d", 3))
       for eq, run in _ARITY_CHECKS[arity].items()},
    ("parametric_hodograph", "two_field_bateman"): _per_point(lambda f: (
        residuals.two_field_bateman(*f), residuals.two_field_bateman(*f, conjugate=True))),
    ("parametric_hodograph", "hodograph_identities"): _tolerance_only(_hodograph_identities),
    ("parametric_hodograph", "roundtrip"): _tolerance_only(_roundtrip),
    ("parametric_hodograph", "born_infeld"): _born_infeld,
    ("parametric_hodograph", "linear_covariance"): _linear_covariance,
    ("parametric_hodograph", "reparametrized_two_field"): lambda check, tol: _reparametrized(
        check, tol, "reparametrized_two_field",
        lambda h, fields: residuals.two_field_bateman(*map(h, fields))),
    ("leznov", "constraint_gap"): _tolerance_only(_constraint_gap),
    ("leznov", "holomorphy"): _holomorphy,
    ("leznov", "zero_curvature"): _zero_curvature,
    # n = 2 only: a Leznov case rejects it on a larger system before solving
    ("leznov", "complex_bateman"): _per_point(lambda f: residuals.complex_bateman(f[0])),
}


# -- simulate-kind cases -----------------------------------------------------------------
#
# A case reads its checks and a grid spec per resolution, then integrates its
# system once per resolution and runs every check from ``_SIM_CHECKS`` on that
# grid; a check gives (halving key, report entry) pairs.


def _run_simulate_case(case: dict, rng: np.random.Generator, out_dir: Path,
                       scenario_name: str, dump: bool) -> list[dict]:
    system = case.get("system", "two_field")
    read = _lookup(_SYSTEMS, system, f"unknown system {system!r}")
    label = _file_name(case.get("label", system), "label")
    checks = _list(case, "checks", of="JSON objects")
    resolutions = _resolutions(case, 1)
    grid_block = _object(case, "grid")
    min_ratio = _number(case.get("halving_ratio", 0.0), "halving_ratio")
    equations = [_field_or(check, "equation", required=True) for check in checks]
    runs = [_lookup(_SIM_CHECKS, (system, eq), f"check {eq!r} does not apply to {system} runs")
            for eq in equations]
    if "transport" in equations and grid_block.get("bc") == "open":
        raise ScenarioError("transport checks need a periodic grid, not bc 'open'")
    with _reading():
        runs = [run(check) for run, check in zip(runs, checks)]
        specs, integrate = read(case, grid_block, resolutions)

    measured: dict[int, dict[str, float]] = {}
    entries: list[dict] = []
    for res, spec in zip(resolutions, specs):
        grid = integrate(spec)
        if dump:
            _dump_grid(grid, out_dir / f"{scenario_name}.{label}.{res}.csv")
        measured[res] = {}
        for run in runs:
            for key, entry in run(grid, f"{label}@{res}"):
                entries.append(entry)
                measured[res][key] = entry["max_norm"]
    return entries + _halving(label, resolutions, measured, min_ratio)


def _resolutions(case: dict, least: int) -> list[int]:
    """A grid case's non-empty list of resolutions, each at least ``least``."""
    resolutions = _numbers(_field_or(case, "resolutions", required=True), "resolutions", int)
    if min(resolutions, default=0) < least:
        raise ScenarioError(f"resolutions: expected a non-empty list of integers of at least "
                            f"{least}, got {resolutions!r}")
    return resolutions


def _dump_grid(grid, csv_path: Path) -> None:
    dump = hydro.dump_char_grid if isinstance(grid, hydro.CharGrid) else hydro.dump_multi_grid
    dump(grid, csv_path)


def _two_field(case: dict, grid_block: dict, resolutions: list):
    t_end = _number(_field_or(grid_block, "t_end", required=True), "grid.t_end")
    x0 = _number(grid_block.get("x0", 0.0), "grid.x0")
    x1 = _number(grid_block.get("x1", hydro.TWO_PI), "grid.x1")
    cfl = _number(grid_block.get("cfl", 0.5), "grid.cfl")
    specs = [hydro.CharGridSpec(nx=res, t_end=t_end, x0=x0, x1=x1, cfl=cfl,
                                bc=grid_block.get("bc", "periodic")) for res in resolutions]
    init = _object(case, "init")
    u = _parse_expr(_field_or(init, "u", required=True), "init.u")
    v = _parse_expr(_field_or(init, "v", required=True), "init.v")
    hydro.check_initial_data({"u": u, "v": v}, ("u", "v"), ("x",))
    return specs, lambda spec: hydro.integrate_characteristics(u, v, spec)


def _multifield(case: dict, grid_block: dict, resolutions: list):
    t_end = _number(_field_or(grid_block, "t_end", required=True), "grid.t_end")
    cfl = _number(grid_block.get("cfl", 0.4), "grid.cfl")
    specs = [hydro.MultiGridSpec(n2=res, n3=res, t_end=t_end, cfl=cfl) for res in resolutions]
    init = {k: _parse_expr(v, f"init.{k}") for k, v in _object(case, "init").items()}
    hydro.check_initial_data(init, hydro.MULTI_FIELDS, ("x2", "x3"))
    return specs, lambda spec: hydro.integrate_multifield(init, spec)


def _conservation(check: dict):
    coeff = _number(check.get("tolerance_h2_coeff", 5.0), "tolerance_h2_coeff")
    n_values = _numbers(check.get("n_values", [1, 2, 3, 4, 5]), "n_values", int)
    if min(n_values, default=0) < 1:
        raise ScenarioError(f"n_values: expected a non-empty list of integers of at least 1, "
                            f"got {n_values!r}")

    def run(grid, where: str) -> list[tuple[str, dict]]:
        tol = coeff * grid.h**2
        out = []
        for n in n_values:
            drift = hydro.conservation_drift(grid, n)
            rep = ResidualReport(f"conservation_s{n}", grid.nt * grid.nx, drift, drift, 0)
            out.append((f"s{n}", _entry(f"conservation_s{n}[{where}]", rep, tol,
                                        grid.nt * grid.nx)))
        return out
    return run


def _transport(check: dict):
    coeff = _number(check.get("tolerance_h2_coeff", 5.0), "tolerance_h2_coeff")

    def run(grid, where: str) -> list[tuple[str, dict]]:
        tol = coeff * grid.h**2
        m = grid.nt // 2
        nodes = np.arange(grid.nx)
        out = []
        for name, field, other in (("u", grid.u, grid.v), ("v", grid.v, grid.u)):
            jet = hydro.fd_jet_at(field, grid.dt, grid.h, m, nodes)
            sample = residuals.transport(jet, [-other[m]], TransportPattern(0, (1,)))
            rep = residuals.grid_report(f"transport_{name}", [sample])
            out.append((f"transport_{name}",
                        _entry(f"transport_{name}[{where}]", rep, tol, grid.nx)))
        return out
    return run


def _multifield_det(check: dict):
    coeff = _number(check.get("tolerance_h2_coeff", 1.0), "tolerance_h2_coeff")

    def run(grid, where: str) -> list[tuple[str, dict]]:
        tol = coeff * grid.h2**2
        m = grid.nt // 2  # the one level read: differentiate only its neighbourhood
        deriv = {n: hydro.fd_derivatives_multi(grid.fields[n][m - 1:m + 2], grid.dt,
                                               grid.h2, grid.h3) for n in hydro.MULTI_FIELDS}
        grads = [g[0].reshape(-1, 3) for _, g, _ in deriv.values()]
        # Fields constant to rounding satisfy the determinant identically;
        # their difference quotients are pure float noise with no scale.
        deriv_mag = max(np.abs(g).max() for g in grads)
        field_mag = max(np.abs(grid.fields[n]).max() for n in deriv)
        flat = deriv_mag <= 1e-10 * max(field_mag, 1.0) / min(grid.h2, grid.h3)
        n_nodes = grads[0].shape[0]
        out = []
        for j, fname in ((1, "u1"), (2, "u2")):
            hess = deriv[fname][2][0].reshape(-1, 3, 3)
            raw, scale = residuals.multifield_det_grid(grads, hess)
            value = 0.0 if flat else float(np.abs(raw).max() / max(scale.max(), 1e-300))
            rep = ResidualReport(f"multifield_det_j{j}", n_nodes, value, value, 0)
            out.append((f"det_j{j}", _entry(f"multifield_det_j{j}[{where}]", rep, tol,
                                            n_nodes)))
        return out
    return run


# system -> (case, grid block, resolutions) -> (grid spec per resolution, spec -> grid)
_SYSTEMS = {"two_field": _two_field, "multifield": _multifield}

# (system, check equation) -> (check block -> (grid, where) -> [(halving key, entry)])
_SIM_CHECKS = {
    ("two_field", "conservation"): _conservation,
    ("two_field", "transport"): _transport,
    ("multifield", "multifield_det"): _multifield_det,
}


# -- variational-kind cases ----------------------------------------------------------------


@dataclass
class _Variational:
    """A variational case as read, before any solve: its label, the source
    ``(f, g, config)`` as written (the cases of one source march their grids
    together), its solver and, per resolution, the grid nodes, the
    tolerance and one functional per factor."""

    label: str
    source: tuple
    solver: construct.HodographSolver
    grids: list  # (n, t_nodes, x_nodes, tolerance, [(factor, functional)])
    psis: list
    vary: list
    resolutions: list
    min_ratio: float


def _read_variational_case(case: dict) -> _Variational:
    label = _file_name(case.get("label", "variational"), "label")
    src = _object(case, "source")
    f_text = _field_or(src, "f", required=True)
    f = _parse_expr(f_text, "source.f")
    g_text = _field_or(src, "g", required=True)
    g = _parse_expr(g_text, "source.g")
    with _reading():
        cfg = _solve_config(_object(src, "config", False))
    t_lo, t_hi = _numbers(_field_or(src, "t_window", required=True), "source.t_window",
                          length=2)
    x_lo, x_hi = _numbers(_field_or(src, "x_window", required=True), "source.x_window",
                          length=2)
    coeff = _number(case.get("tolerance_h2_coeff", 5.0), "tolerance_h2_coeff")
    if coeff <= 0:
        raise ScenarioError(f"tolerance_h2_coeff: expected a positive number, got {coeff!r}")
    min_ratio = _number(case.get("halving_ratio", 0.0), "halving_ratio")
    resolutions = _resolutions(case, 5)
    psis = [(w, _parse_expr(w, "psi")) for w in _list(case, "psi", ["s"])]
    if any(len(psi.vars) > 1 for _, psi in psis):
        raise ScenarioError("psi: expected expressions of one variable")
    factors = [(h, _parse_expr(h, "factor")) for h in _list(case, "factors", ["p/q"])]
    vary_list = _list(case, "vary", ["psi", "phibar", "phi"], of="psi, phibar or phi")
    if any(vary not in ("psi", "phibar", "phi") for vary in vary_list):
        raise ScenarioError(f"vary must name psi, phibar or phi, got {vary_list!r}")
    grids = []
    with _reading():
        solver = construct.HodographSolver(f, g, cfg)
        construct.seed_pair(cfg.seed)
        for n in resolutions:
            t_nodes = np.linspace(t_lo, t_hi, n)
            x_nodes = np.linspace(x_lo, x_hi, n)
            ht = t_nodes[1] - t_nodes[0]
            hx = x_nodes[1] - x_nodes[0]
            grids.append((n, t_nodes, x_nodes, float(coeff * max(ht, hx) ** 2), [
                (h, varlag.DiscreteFunctional(ht=ht, hx=hx, factor=factor))
                for h, factor in factors]))
    # repr tells a seed of -0.0 from one of 0.0, which == does not
    return _Variational(label, (f_text, g_text, repr(cfg)), solver, grids, psis, vary_list,
                        resolutions, min_ratio)


def _check_variational_case(c: _Variational, fields: list) -> list[dict]:
    """The entries of a read case from its grids' ``fields``, each ``(phi,
    phibar)`` or the exception the grid raised, which is raised here before
    that grid's checks."""
    measured: dict[int, dict[str, float]] = {}
    entries: list[dict] = []
    for (n, _, _, tol, functionals), grid in zip(c.grids, fields):
        if isinstance(grid, Exception):
            raise grid
        phi, phibar = grid
        measured[n] = {}
        for factor, func in functionals:
            for w, psi_expr in c.psis:
                psi = varlag.psi_from(phibar, psi_expr)
                deg = varlag.onshell_degeneracy(func, phi, phibar, psi, tolerance=tol)
                for vary in c.vary:
                    rep = deg.per_vary[vary]
                    entries.append(_entry(
                        f"variational_{vary}[{c.label}:psi={w},H={factor}@{n}]",
                        rep, tol, rep.samples))
                    measured[n][f"{vary}|psi={w}|H={factor}"] = entries[-1]["max_norm"]
                rep = ResidualReport("degeneracy_action", phi.size,
                                     deg.action_normalized, deg.action_normalized, 0)
                entries.append(_entry(
                    f"degeneracy_action[{c.label}:psi={w},H={factor}@{n}]",
                    rep, tol, phi.size))
    return entries + _halving(c.label, c.resolutions, measured, c.min_ratio)


def _run_variational_cases(cases: list) -> list[dict]:
    """The entries of a variational scenario's cases, the same as running them
    one by one, with the grids of each source marched in one
    ``construct.hodograph_grid`` call.

    The cases are read in order up to the first that fails to read; then each
    source's grids are marched, and the cases checked in order.  Each error
    is raised where the case-by-case run raises it: a grid's before that
    grid's checks, a read error after the checks of the cases before it.
    Variational cases draw nothing from the scenario RNG, so reading them
    early moves no draw."""
    read, unread = [], None
    for case in cases:
        try:
            read.append(_read_variational_case(case))
        except Exception as err:  # raised after the cases before it are checked
            unread = err
            break
    sources: dict[tuple, tuple] = {}  # source -> its solver and its grids' nodes
    for c in read:
        sources.setdefault(c.source, (c.solver, []))[1].extend(grid[1:3] for grid in c.grids)
    marched = {source: iter(construct.hodograph_grid(solver, nodes))
               for source, (solver, nodes) in sources.items()}
    entries = []
    for c in read:  # the cases of a source take its grids' fields in order
        entries += _check_variational_case(c, [next(marched[c.source]) for _ in c.grids])
    if unread is not None:
        raise unread
    return entries


# -- ad-kind cases ----------------------------------------------------------------------


def _draw(rng: np.random.Generator, seq):
    """``rng.choice(seq)``: the same item and generator state, drawn as one
    integer index instead of through an array of ``seq``."""
    return seq[int(rng.integers(len(seq)))]


def _random_expression(rng: np.random.Generator, names: list[str], depth: int):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return _draw(rng, names)
        return f"{rng.uniform(0.2, 2.0):.3f}"
    kind = _draw(rng, ("add", "sub", "mul", "div", "func", "pow"))
    a = _random_expression(rng, names, depth - 1)
    b = _random_expression(rng, names, depth - 1)
    if kind == "add":
        return f"({a} + {b})"
    if kind == "sub":
        return f"({a} - {b})"
    if kind == "mul":
        return f"({a} * {b})"
    if kind == "div":
        return f"({a} / (2.5 + sin({b})))"
    if kind == "pow":
        return f"({a})^{int(rng.integers(2, 4))}"
    fn = _draw(rng, ("exp", "log", "sin", "cos", "sqrt"))
    if fn == "exp":
        return f"exp(0.3*({a}))"
    if fn in ("log", "sqrt"):
        return f"{fn}(3.5 + sin({a}))"
    return f"{fn}({a})"


# The 18 stencil points of a central-difference probe in three variables, as
# offsets in units of the step: x ± e_i for each i, then the corners ++, +-,
# -+ and -- of each pair i < j.  A coordinate left in place is offset by
# -0.0, since x + -0.0 is x for every x, -0.0 included.
_STENCIL = np.array([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
                     (1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0),
                     (1, 0, 1), (1, 0, -1), (-1, 0, 1), (-1, 0, -1),
                     (0, 1, 1), (0, 1, -1), (0, -1, 1), (0, -1, -1)], dtype=float)
_STENCIL[_STENCIL == 0.0] = -0.0


def _fd_probe(spec, names, point, steps):
    """Central-difference gradient and Hessian of ``spec`` at ``point`` (the
    values of the three ``names``), one ``(grad, hess)`` pair of lists per
    step in ``steps``.  The centre and every step's stencil are evaluated in
    one array call, in that order; where it raises, the first failing point
    in that order raises its error (``exprspec.at_points``).  Each stencil
    point serves both the gradient and the Hessian diagonal."""
    offsets = (_STENCIL * np.array(steps)[:, None, None]).reshape(-1, 3)
    stencil = np.concatenate((point[None], point + offsets))
    values = at_points(float_fn(spec, names), *stencil.T).tolist()
    f0 = values[0]
    probes = []
    for n, h in enumerate(steps):
        fs = values[1 + 18 * n:19 + 18 * n]
        grad = [(fs[2 * i] - fs[2 * i + 1]) / (2 * h) for i in range(3)]
        hess = [[0.0] * 3 for _ in range(3)]
        for i in range(3):
            hess[i][i] = (fs[2 * i] - 2 * f0 + fs[2 * i + 1]) / h**2
        for c, (i, j) in zip((6, 10, 14), ((0, 1), (0, 2), (1, 2))):
            hess[i][j] = hess[j][i] = (fs[c] - fs[c + 1] - fs[c + 2] + fs[c + 3]) / (4 * h**2)
        probes.append((grad, hess))
    return probes


def _run_ad_case(case: dict, rng: np.random.Generator) -> list[dict]:
    count = _number(case.get("expressions", 500), "expressions", int)
    if count < 1:
        raise ScenarioError(f"expressions: expected an integer of at least 1, got {count!r}")
    steps = _numbers(case.get("steps", [1e-3, 5e-4]), "steps", length=2)
    # The probe divides by h^2, which must neither underflow nor overflow.
    if not all(0 < h and 0 < h * h < math.inf for h in steps):
        raise ScenarioError(f"steps: expected a pair of positive numbers with nonzero, "
                            f"finite squares, got {steps!r}")
    min_ratio = _number(case.get("min_ratio", 3.5), "min_ratio")
    names = ["a", "b", "c"]
    defects = []
    produced = 0
    attempts = 0
    while produced < count and attempts < 20 * count:
        attempts += 1
        text = _random_expression(rng, names, depth=int(rng.integers(1, 4)))
        point = rng.uniform(0.4, 1.6, size=3)
        try:
            spec = parse(text)
            args = {n: jets.variable(i, point[i], 3) for i, n in enumerate(names)}
            jet = eval_jet(spec, args, k=3)
            probes = _fd_probe(spec, names, point, steps)
        except EvaluationError:
            continue
        produced += 1
        exact = jet.grad.tolist() + jet.hess.ravel().tolist()
        errs = [max(abs(a - b) for a, b in zip(grad + [v for row in hess for v in row], exact))
                for grad, hess in probes]
        scale = max(1.0, abs(jet.value), *map(abs, exact))
        # Converged second order, or already at rounding level at the coarse
        # step (near-linear compositions have ~zero truncation error, so the
        # quotients are pure noise ~ eps * |f| / h^2 there).
        noise_floor = max(1e-8 * scale, 1e3 * 2.3e-16 * scale / steps[0] ** 2)
        ok = errs[0] / max(errs[1], 1e-300) >= min_ratio or errs[0] <= noise_floor
        defects.append(0.0 if ok else 1.0)
    if produced < count:
        raise ScenarioError("could not generate enough admissible expressions")
    arr = np.asarray(defects)
    rep = ResidualReport("ad_convergence", produced, float(arr.max()),
                         float(np.sqrt(np.mean(arr**2))), 0)
    return [_entry("ad_convergence", rep, 0.5, count)]


# -- scenario driver --------------------------------------------------------------------


def load_scenario(path) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as err:  # ValueError: not UTF-8
        raise ScenarioError(f"cannot load scenario {path}: {err}") from None
    return _scenario(text, path)


def _scenario(text: str, path) -> dict:
    """The scenario in JSON ``text``, validated at the top level."""
    try:
        data = json.loads(text)
    except ValueError as err:
        raise ScenarioError(f"cannot load scenario {path}: {err}") from None
    if not isinstance(data, dict):
        raise ScenarioError(f"scenario {path}: expected a JSON object, got {data!r}")
    for key in ("name", "paper_anchor", "kind", "cases"):
        if key not in data:
            raise ScenarioError(f"scenario {path}: missing field {key!r}")
    _file_name(data["name"], f"scenario {path}: name")
    if not isinstance(data["paper_anchor"], str):
        raise ScenarioError(f"scenario {path}: paper_anchor: expected a string, "
                            f"got {data['paper_anchor']!r}")
    if data["kind"] not in ("verify", "simulate", "variational", "ad"):
        raise ScenarioError(f"scenario {path}: unknown kind {data['kind']!r}")
    if not (isinstance(data["cases"], list) and data["cases"]
            and all(isinstance(c, dict) for c in data["cases"])):
        raise ScenarioError(f"scenario {path}: cases must be a non-empty list of JSON objects")
    return data


def run_scenario(data: dict, out_dir: Path, seed: int, dump: bool = False) -> tuple[dict, int]:
    """Execute one loaded scenario; returns (report, exit code)."""
    rng = _scenario_rng(seed, data["name"])
    out_dir.mkdir(parents=True, exist_ok=True)
    entries: list[dict] = []
    abort_code = None
    sample_sink: dict = {}
    try:
        # A non-finite jet or float raises its guard's JetDomainError, and a
        # non-finite norm fails its entry (_entry), so numpy's floating-point
        # warnings would only repeat on stderr what the exit code reports.
        with np.errstate(all="ignore"):
            if data["kind"] == "variational":
                entries = _run_variational_cases(data["cases"])
            else:
                for case in data["cases"]:
                    if data["kind"] == "verify":
                        entries += _run_verify_case(case, rng,
                                                    sample_sink if dump else None)
                    elif data["kind"] == "simulate":
                        entries += _run_simulate_case(case, rng, out_dir, data["name"],
                                                      dump)
                    else:
                        entries += _run_ad_case(case, rng)
    except (CharacteristicCrossingError, CFLViolationError) as err:
        partial = getattr(err, "partial", None)
        if partial is not None:
            _dump_grid(partial, out_dir / f"{data['name']}.partial.csv")
        rep = ResidualReport("aborted", 0, math.inf, math.inf, 0)
        entries.append(_entry(f"aborted[level={err.level}]", rep, 0.0, 0))
        abort_code = EXIT_ABORT

    report = {
        "scenario": data["name"],
        "paper_anchor": data["paper_anchor"],
        "reports": entries,
        "seed": int(seed),
        "version": __version__,
    }
    if dump and sample_sink:
        for label, pts in sample_sink.items():
            with (out_dir / f"{data['name']}.{label}.samples.csv").open(
                    "w", newline="") as fh:
                fh.write(",".join(f"c{i}" for i in range(len(pts[0]))) + "\r\n")
                fh.write("".join(",".join(repr(float(v)) for v in p) + "\r\n" for p in pts))
    report_path = out_dir / f"{data['name']}.report.json"
    report_path.write_text(json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
                           + "\n")
    if abort_code is not None:
        return report, abort_code
    ok = all(e["pass"] for e in entries)
    return report, EXIT_PASS if ok else EXIT_FAIL


def bundled_scenarios() -> list:
    root = resources.files("batlab").joinpath("scenarios")
    return sorted((p for p in root.iterdir() if p.name.endswith(".json")),
                  key=lambda p: p.name)


# Exceptions that end a scenario run with an exit code from _failure_code.
_FAILURES = (ScenarioError, EvaluationError, np.linalg.LinAlgError, ValueError, RecursionError,
             MemoryError)


def _failure_code(err: Exception) -> int:
    """Exit code of one of ``_FAILURES``, after printing its message."""
    if isinstance(err, ScenarioError):
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"numerical failure: {err}", file=sys.stderr)
    return EXIT_RUNTIME


def _run_bundled(args_tuple):
    """(scenario name, paper anchor, report or None, exit code) of one bundled file."""
    name, text, out, seed = args_tuple
    scenario, anchor = name.removesuffix(".json"), ""
    try:
        data = _scenario(text, name)
        scenario, anchor = data["name"], data["paper_anchor"]
        report, code = run_scenario(data, Path(out), seed)
    except _FAILURES as err:
        return scenario, anchor, None, _failure_code(err)
    return scenario, anchor, report, code


def _cell(value) -> str:
    return f"{'-':>12}" if value is None else f"{value:>12.3e}"


def run_suite(out_dir: Path, seed: int, jobs: int = 1) -> int:
    """Run every bundled scenario and print one row each; a scenario that
    cannot run gets a row with its exit code and the others still run."""
    tasks = [(p.name, p.read_text(), str(out_dir), seed) for p in bundled_scenarios()]
    workers = min(jobs, len(tasks))  # the pool starts all its workers at once
    if workers > 1:
        # imported here: a serial run does not need it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_bundled, tasks))
    else:
        results = [_run_bundled(t) for t in tasks]

    width = max(len(r[0]) for r in results) + 2
    print(f"{'claim':<{width}}{'anchor':<44}{'max_norm':>12}{'tolerance':>12}  status")
    worst_code = EXIT_PASS
    for scenario, anchor, report, code in results:
        entries = report["reports"] if report else []
        failing = [e for e in entries if not e["pass"]]
        shown = failing[0] if failing else max(
            entries, key=lambda e: e["max_norm"] / max(e["tolerance"], 1e-300),
            default={"max_norm": None, "tolerance": None})
        status = ("PASS" if code == EXIT_PASS else "FAIL" if report
                  else f"ERROR (exit {code})")
        print(f"{scenario:<{width}}{anchor[:42]:<44}"
              f"{_cell(shown['max_norm'])}{_cell(shown['tolerance'])}  {status}")
        worst_code = max(worst_code, code)
    return worst_code


# -- entry point --------------------------------------------------------------------------


def _out_dir(path: str) -> Path:
    """The ``--out`` directory, created if missing; ScenarioError where it cannot be."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ScenarioError(f"--out: cannot create directory {out_dir}: {err}") from None
    return out_dir


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="reports", help="report output directory")
    common.add_argument("--seed", type=int, default=20240801, help="64-bit RNG seed")
    common.add_argument("--jobs", type=int, default=1,
                        help="parallel scenarios (suite)")

    parser = argparse.ArgumentParser(prog="batlab", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_verify = sub.add_parser("verify", parents=[common],
                              help="run a verification scenario")
    p_verify.add_argument("scenario")
    p_verify.add_argument("--dump", action="store_true",
                          help="write sampled-point CSV dumps")
    p_sim = sub.add_parser("simulate", parents=[common],
                           help="run an integration scenario")
    p_sim.add_argument("scenario")
    p_sim.add_argument("--dump", action="store_true", help="write grid CSV dumps")
    sub.add_parser("suite", parents=[common], help="run all bundled scenarios")

    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs: expected an integer of at least 1, got {args.jobs}")

    if args.command == "suite":
        try:
            return run_suite(_out_dir(args.out), args.seed, args.jobs)
        except ScenarioError as err:  # only from _out_dir: each scenario's are caught
            return _failure_code(err)

    try:
        data = load_scenario(args.scenario)
        if args.command == "verify" and data["kind"] == "simulate":
            raise ScenarioError("simulate-kind scenario: use the simulate command")
        if args.command == "simulate" and data["kind"] != "simulate":
            raise ScenarioError("simulate needs a simulate-kind scenario")
        _, code = run_scenario(data, _out_dir(args.out), args.seed,
                               dump=getattr(args, "dump", False))
    except _FAILURES as err:
        return _failure_code(err)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
