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
import importlib.util
import json
import math
import sys
import zlib
from collections import namedtuple
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, jets, residuals
from .errors import (
    CFLViolationError,
    CharacteristicCrossingError,
    EvaluationError,
    ExprSyntaxError,
)
# eval_float is not called here; the benchmark's tracer (perfbench/tracing.py)
# patches this binding by name.
from .exprspec import (  # noqa: F401
    Bin,
    Call,
    ExprSpec,
    Num,
    Var,
    at_points,
    eval_float,
    eval_jet,
    float_fn,
    parse,
)
from .residuals import ResidualReport, _ok

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
EXIT_ABORT = 4

MAX_SKIP_FRACTION = 0.2


def _on_first_use(name: str):
    """The submodule ``name`` of this package, bound now and run on its first
    attribute access (``importlib.util.LazyLoader``), or as already imported."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full] = module = importlib.util.module_from_spec(spec)
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return sys.modules[full]


# Each runs only when a case of its kind first needs it: an ad run runs none
# of them, a simulate run only hydro (README, "What a run imports").
construct, hydro, leznov, varlag = map(_on_first_use, ("construct", "hydro", "leznov", "varlag"))


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


# -- the scenario format ----------------------------------------------------------------
#
# Every key a scenario file may hold, by place: ``_FORMAT``, built below from
# the rows of the ops, checks and systems.  A case is read against it before
# its first solve, and the README's format table is checked against it.
# Every range of a single key is stated here, and only here: the library keeps
# only the rules that relate several keys or the variables of expressions.

_REQUIRED = object()  # the default of a key that must be given
_CAP = int(np.iinfo(np.intp).max) // 8  # the longest float64 array numpy can describe
_POSITIVE = math.ulp(0.0)  # a float range from here holds the positive floats


@dataclass(frozen=True)
class _Key:
    """One key: its kind, default (none if required) and range (``low`` and ``high``
    bound a number, or the variables of an expression).  ``many`` makes the value
    a non-empty JSON ``"list"`` of such values (of ``length`` if set), a JSON
    ``"object"`` of them, or either (``"or list"``)."""

    kind: str  # integer, float, string, file-name string, expression, choice, JSON object
    default: object = _REQUIRED
    low: float = -math.inf
    high: float = math.inf
    choices: tuple = ()
    many: str = ""
    length: int | None = None


def _range(key: _Key) -> str:
    """The range of ``key``'s values, as error messages and the README state it."""
    if key.kind == "choice":
        return " or ".join(map(repr, key.choices))
    if key.kind == "file-name string":
        return "of at most 100 bytes without a path separator"
    if (key.low, key.high) == (-math.inf, math.inf):
        return ""
    bounds = f"[{key.low!r}, {key.high!r}]"
    return f"of {bounds} variables" if key.kind == "expression" else f"in {bounds}"


def _expected(key: _Key) -> str:
    """What ``key`` takes, as its error messages state it."""
    def what(plural: str) -> str:  # the kind, singular or plural, and its range
        return f"{key.kind}{plural} {'of ' * (key.kind == 'choice')}{_range(key)}".strip()
    one = f"{'an' if key.kind[0] in 'aeiou' else 'a'} {what('')}"
    some = f"a JSON list of {key.length or 'one or more'} {what('s')}"
    return {"": one, "list": some, "or list": f"{one} or {some}",
            "object": f"a JSON object of {what('s')}"}[key.many]


_Expr = namedtuple("_Expr", "text spec")  # an expression as written, and parsed


class _Refused(Exception):
    """A value not of its key's kind, or out of its range."""


def _one(key: _Key, value, where: str):
    """One value of ``key``'s kind: a number, an ``_Expr``, a string or an object."""
    if key.kind in ("integer", "float"):
        cast = int if key.kind == "integer" else float
        try:  # a boolean, null, 1e400 or a fractional count is refused
            if isinstance(value, bool) or not (math.isfinite(value) and cast(value) == value):
                raise _Refused
        except (TypeError, OverflowError):  # not a number, or an integer beyond the float range
            raise _Refused from None
        if not key.low <= cast(value) <= key.high:
            raise _Refused
        return cast(value)
    if not isinstance(value, dict if key.kind == "JSON object" else str):
        raise _Refused
    if key.kind == "expression":
        try:
            spec = parse(value)
        except ExprSyntaxError as err:
            raise ScenarioError(f"{where}: {err}") from None
        except RecursionError:
            raise ScenarioError(f"{where}: expression nested too deeply") from None
        if not key.low <= len(spec.vars) <= key.high:
            raise _Refused
        return _Expr(value, spec)
    if key.kind == "choice" and value not in key.choices or key.kind == "file-name string" and (
            value in ("", ".", "..") or any(c in value for c in "/\\\0")
            or len(value.encode("utf-8", "replace")) > 100):  # two fit in a 255-byte name
        raise _Refused
    return value


def _value(key: _Key, value, where: str):
    """``value``, at path ``where``, read as ``key`` takes it."""
    try:
        if not key.many or key.many == "or list" and not isinstance(value, list):
            return _one(key, value, where)
        if not (isinstance(value, dict if key.many == "object" else list) and value
                and key.length in (None, len(value))):
            raise _Refused
        if key.many == "object":
            return {name: _one(key, v, where) for name, v in value.items()}
        return [_one(key, v, where) for v in value]
    except _Refused:
        raise ScenarioError(f"{where}: expected {_expected(key)}, got {value!r}") from None


def _read(block, place: str, where: str = "") -> dict:
    """The values of ``block``, at path ``where``, as the keys of ``place`` take
    them, with the defaults filled in (a JSON object value as written)."""
    keys, at = _FORMAT[place], where or place
    if not isinstance(block, dict):
        raise ScenarioError(f"{at}: expected a JSON object, got {block!r}")
    for name in block:
        if name not in keys:
            raise ScenarioError(f"{at}: unknown key {name!r}")
    values = {}
    for name, key in keys.items():
        path = f"{where}.{name}" if where else name
        if name in block:
            values[name] = _value(key, block[name], path)
        elif key.default is _REQUIRED:
            raise ScenarioError(f"{at}: missing required field {name!r}")
        else:
            values[name] = None if key.default is None else _value(key, key.default, path)
    return values


def _read_checks(case: dict, owner: str, label: str) -> list:
    """``(run, check)`` per check of ``case``, read: the run of its ``_CHECKS``
    row for ``owner`` (an op or a system)."""
    out = []
    for i, check in enumerate(case["checks"]):
        eq = check.get("equation")
        run = _CHECKS[eq].runs.get(owner) if f"{eq}" in _CHECKS else None
        if run is None:
            raise ScenarioError(f"checks[{i}]: missing required field 'equation'" if eq is None
                                else f"check {str(eq)!r} does not apply to {label!r}")
        out.append((run, _read(check, f"check {eq}", f"checks[{i}]")))
    return out


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
        rep = ResidualReport(2, value, value, 0)
        entries.append(_entry(f"halving[{label}:{key}]", rep, 1.0 / min_ratio, 2))
    return entries


def _increasing(resolutions: list) -> list:
    """``resolutions``, refused unless they strictly increase: ``_halving``
    takes the first as coarse and the last as fine, and a grid's dump is named
    by its resolution."""
    if any(a >= b for a, b in zip(resolutions, resolutions[1:])):
        raise ScenarioError(
            f"resolutions: expected a strictly increasing list, got {resolutions!r}")
    return resolutions


def _unused(label: str, labels) -> str:
    """``label``, refused if it is among ``labels``, those of the scenario's
    earlier cases: this case's dumps would overwrite theirs."""
    if label in labels:
        raise ScenarioError(f"label {label!r}: already the label of an earlier case")
    return label


def _read_until_error(read_case, cases: list) -> tuple[list, Exception | None]:
    """``read_case`` of each of ``cases`` in order up to the first that
    raises: the cases read, and that error (None if every case reads), which
    the caller raises after running the cases read before it."""
    read = []
    for case in cases:
        try:
            read.append(read_case(case))
        except Exception as err:
            return read, err
    return read, None


def _solve_config(block: dict, place: str, where: str) -> construct.ImplicitSolveConfig:
    """The Newton config of the ``config`` block at ``where``, read as ``place``
    (the config place of its solver family)."""
    return construct.ImplicitSolveConfig(**{
        key: tuple(value) if isinstance(value, list) else value
        for key, value in _read(block, place, where).items()})


def _samples(case: dict, dim: int) -> dict:
    """A verify case's ``samples``, read: a box of ``dim`` coordinates and of
    finite widths, as ``rng.uniform`` draws from."""
    samples = _read(case["samples"], "samples", "samples")
    low, high = samples["low"], samples["high"]
    if not (len(low) == len(high) == dim and all(0 < b - a < math.inf for a, b in zip(low, high))):
        raise ScenarioError(f"samples: expected a box of {dim} coordinates with low < high, "
                            f"got low {low!r} and high {high!r}")
    return samples


def _box_sampler(samples: dict, rng: np.random.Generator, dim: int) -> np.ndarray:
    """``count`` uniform points of the read ``samples`` box of ``dim`` coordinates,
    as a ``(count, dim)`` array (the bits and state of ``count`` one-point draws)."""
    return rng.uniform(samples["low"], samples["high"], size=(samples["count"], dim))


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
    def requested(self) -> int:
        return len(self.points)

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


def _field_case(make, dim: int):
    """Case builder for a constructor that returns a FieldHandle of ``dim``
    coordinates from its read construct block."""

    def build(block, label, case, rng) -> _Solved:
        with _reading():
            handle = make(block)
        points = _box_sampler(_samples(case, dim), rng, dim)
        errors, roots = handle.solve_many(points)
        errors, batch = _at_solved(handle.jets, errors, points[_ok(errors)], roots)
        return _Solved(label, rng, points, errors, batch)

    return build


def _hodograph_case(block, label, case, rng) -> _Solved:
    with _reading():
        solver = construct.HodographSolver(
            block["f"].spec, block["g"].spec,
            _solve_config(block["config"], "pair config", "construct.config"))
    uv = _box_sampler(_samples(case, 2), rng, 2)
    t, x = at_points(solver.forward, uv[:, 0], uv[:, 1])
    errors, batch = _at_solved(solver.fields, *_uv_at(*solver.solve_many(t, x, uv)))
    return _Solved(label, rng, uv, errors, batch, solver,
                   list(zip(t.tolist(), x.tolist())))


def _uv_at(errors: list, uv: np.ndarray):
    """``(errors, u, v)`` of a hodograph batch solve."""
    return errors, uv[:, 0], uv[:, 1]


def _leznov_case(block, label, case, rng) -> _Solved:
    with _reading():
        sys_ = leznov.LeznovSystem(n=block["n"], Q=[q.spec for q in block["Q"]],
                                   P=[p.spec for p in block["P"]],
                                   cfg=_solve_config(block["config"], "leznov config",
                                                     "construct.config"))
    if sys_.n != 2 and any(c.get("equation") == "complex_bateman" for c in case["checks"]):
        raise ScenarioError("complex_bateman check needs n = 2")
    points = _box_sampler(_samples(case, 2 * sys_.n), rng, 2 * sys_.n)
    errors, roots = leznov.solve_many(sys_, points)
    errors, fields = _at_solved(lambda p, phi: leznov.field_jets(sys_, p, phi),
                                errors, points[_ok(errors)], roots)
    speed_errors, speeds = _at_solved(
        lambda p, f: (f, leznov.speed_jets(sys_, p, f)), errors, points[_ok(errors)], fields)
    return _Solved(label, rng, points, errors, fields, sys_,
                   speed_errors=speed_errors, speeds=speeds)


def _run_verify_case(case: dict, rng: np.random.Generator, sink: dict) -> list[dict]:
    """The entries of a verify case.  ``sink`` maps the labels of the
    scenario's earlier cases to their sample points; the case adds its own."""
    case = _read(case, "verify case")
    op = case["construct"].get("op")
    if f"{op}" not in _OPS:
        raise ScenarioError(f"unknown constructor op {op!r}")
    label = _unused(case["label"] or op, sink)
    checks = _read_checks(case, op, label)
    block = _read(case["construct"], f"construct {op}", "construct")
    c = _OPS[op].build(block, label, case, rng)
    sink[label] = c.points if c.tx is None else [(*tx, *uv) for tx, uv in zip(c.tx, c.points)]
    entries = []
    for run, check in checks:
        entries += run(c, check)
    return entries


# -- the checks: (solved case, read check) -> report entries --------------------------------


def _swept(c: _Solved, name: str, residual, tol: float) -> dict:
    """Entry for ``residual`` of the case's batch of jets, normalized per sample."""
    rep = residuals.sweep(c.batch, residual, c.skipped)
    return _entry(f"{name}[{c.label}]", rep, tol, c.requested)


def _per_point(residual):
    """Check applying ``residual`` to the constructor's jets at every point."""
    return lambda c, check: [_swept(c, check["equation"], residual, check["tolerance"])]


def _reparametrized(name: str, residual):
    """Check with one entry ``name`` per map h of the check: ``residual(h,
    jets)`` at every point."""
    def run(c: _Solved, check: dict) -> list[dict]:
        entries = []
        for text, spec in check["maps"]:
            h = construct.reparametrization(spec)
            rep = residuals.sweep(c.batch, lambda j: residual(h, j), c.skipped)
            entries.append(_entry(f"{name}[{c.label}:{text}]", rep, check["tolerance"],
                                  c.requested))
        return entries
    return run


def _hodograph_identities(c: _Solved, check: dict) -> list[dict]:
    rep = residuals.sweep(c.points, lambda uv: c.model.identity_residuals(uv[..., 0], uv[..., 1]))
    return [_entry(f"hodograph_identities[{c.label}]", rep, check["tolerance"], c.requested)]


def _roundtrip(c: _Solved, check: dict) -> list[dict]:
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
    rep = ResidualReport(c.requested - skipped, worst, worst, skipped)
    return [_entry(f"roundtrip[{c.label}]", rep, check["tolerance"], c.requested)]


def _born_infeld(c: _Solved, check: dict) -> list[dict]:
    lam, tol = check["lambda"], check["tolerance"]
    # (u, v) = (phibar, phi).  The integrability check solves from the
    # configured seed, not from the sample's.
    errors, cross = _at_solved(c.model.fields, *_uv_at(*c.model.solve_many(*zip(*c.tx))))
    rep = residuals.sweep(cross, lambda f: construct.born_infeld_cross_residual(f[1], f[0], lam),
                          len(errors) - errors.count(None))
    return [
        _swept(c, "born_infeld", lambda f: residuals.born_infeld(
            construct.born_infeld_jet(f[1], f[0], lam), lam), tol),
        _entry(f"born_infeld_cross[{c.label}]", rep, tol, c.requested),
    ]


# The random linear maps of a linear_covariance check, and the bar of their
# Moebius speed match.
_COVARIANCE_MAPS = 10
_SPEED_TOLERANCE = 1e-8


def _linear_covariance(c: _Solved, check: dict) -> list[dict]:
    maps = []
    while len(maps) < _COVARIANCE_MAPS:
        m = construct.LinearMap2(*c.rng.uniform(-2.0, 2.0, size=4))
        if abs(m.det) >= 0.3:
            maps.append(m)

    # Each entry counts its own skips: a point whose pulled-back jets exist
    # is a covariance sample even if its speed cannot be matched.
    res_samples, speed_samples, res_skipped, speed_skipped = [], [], 0, 0
    has_base = _ok(c.errors)
    # Every map's images of the points, (t, x) only up to rounding, solved as
    # one batch, each from its point's (u, v); then split per map.
    inverses = [m.inverse() for m in maps]
    tx = np.array([minv @ (m.matrix() @ np.array(p))
                   for m, minv in zip(maps, inverses) for p in c.tx])
    all_errors, all_uv = c.model.solve_many(tx[:, 0], tx[:, 1],
                                            np.tile(c.points, (len(maps), 1)))
    n, done = len(c.tx), 0  # points per map; solved rows taken from all_uv
    for k, (m, minv) in enumerate(zip(maps, inverses)):
        errors = all_errors[k * n:(k + 1) * n]
        solved = errors.count(None)
        errors, pulled = _at_solved(lambda u, v: tuple(
            construct.pull_back(j, minv) for j in c.model.fields(u, v)),
            *_uv_at(errors, all_uv[done:done + solved]))
        done += solved
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
    requested = _COVARIANCE_MAPS * c.requested
    rep = residuals.grid_report(res_samples, res_skipped)
    rep2 = residuals.grid_report(speed_samples, speed_skipped)
    return [_entry(f"linear_covariance[{c.label}]", rep, check["tolerance"], requested),
            _entry(f"moebius_speed_match[{c.label}]", rep2, _SPEED_TOLERANCE, requested)]


def _speed_match(jb, base_bar, m: construct.LinearMap2) -> residuals.ResidualSample:
    """The pulled-back phibar's speed against the Moebius image of the base
    phibar's speed, at one point or over a batch."""
    u_orig = base_bar.grad[..., 0] / base_bar.grad[..., 1]
    expected_u = construct.moebius_transform(u_orig, m)
    u_new = jb.grad[..., 0] / jb.grad[..., 1]
    return residuals.ResidualSample(u_new - expected_u, abs(u_new) + abs(expected_u))


def _constraint_gap(c: _Solved, check: dict) -> list[dict]:
    """The worst |Q - P| over the solved points, phi read from the field jets."""
    gaps = leznov.constraint_gap(c.model, c.points[_ok(c.errors)], np.stack(
        [f.value for f in c.batch], axis=-1)).tolist() if c.batch else []
    worst = max(gaps, default=0.0)
    rep = ResidualReport(len(gaps), worst, worst, c.skipped)
    return [_entry(f"constraint_gap[{c.label}]", rep, check["tolerance"], c.requested)]


def _speed_check(samples, *names):
    """Check with one entry per name, from the Leznov samples in the order
    ``samples(system, speeds)`` gives them (each a tuple of
    batches over the points with speeds), against the global term magnitude
    and reduced point by point."""
    def run(c: _Solved, check: dict) -> list[dict]:
        skipped = len(c.speed_errors) - c.speed_errors.count(None)
        batches = [None] * len(names) if c.speeds is None else samples(c.model, c.speeds)
        return [_entry(f"{name}[{c.label}]", residuals.grid_report(
            [] if batch is None else [residuals.by_point(batch)], skipped),
            check["tolerance"], c.requested) for name, batch in zip(names, batches)]
    return run


# -- simulate-kind cases -----------------------------------------------------------------
#
# A case reads its checks, then integrates its system once per resolution up
# to its ``t_end`` and runs every check from ``_CHECKS`` on that grid; a check
# gives (halving key, report entry) pairs.  Each check's bar is a fixed
# multiple of the grid's squared spacing.  The cases are read first, so that
# the two-field grids of all of them that share a node count march as one
# stack (``_simulate_grids``).


@dataclass(eq=False)  # hashed by identity, as a key to its grids
class _Simulate:
    """A simulate case before any integration: its values as read, its
    label, its system's row, its read checks and its initial data."""

    case: dict
    label: str
    row: _System
    checks: list
    init: dict


def _read_simulate_case(case: dict, labels: set) -> _Simulate:
    """``case`` read; ``labels`` holds those of the scenario's earlier cases,
    and the case adds its own."""
    case = _read(case, "simulate case")
    system = case["system"]
    _increasing(case["resolutions"])
    label, row = _unused(case["label"] or system, labels), _SYSTEMS[system]
    labels.add(label)
    checks = _read_checks(case, system, label)
    init = {name: expr.spec for name, expr in case["init"].items()}
    with _reading():
        hydro.check_initial_data(init, row.fields, row.coords)
    return _Simulate(case, label, row, checks, init)


def _simulate_grids(read: list):
    """``grid(c, res)``: the grid of read case ``c`` at resolution ``res``.

    At the turn of the first grid of a node count that several of the cases'
    grids share, the grids of that count whose system marches as a stack are
    marched in one call, and each case then takes its own in its turn.  If
    that call raises, each of its grids is integrated alone at its own turn,
    which raises there whatever that grid raises alone.
    """
    stacks: dict[int, list] = {}  # node count -> the cases with a grid of it to stack
    for c in read:
        if c.row.stack is not None:
            for res in c.case["resolutions"]:
                stacks.setdefault(res, []).append(c)
    marched: dict[tuple, object] = {}  # (case, resolution) -> grid, until taken

    def grid(c: _Simulate, res: int):
        members = stacks.pop(res, []) if c.row.stack is not None else []
        if len(members) > 1:
            try:
                grids = c.row.stack([(m.init, m.case["t_end"]) for m in members], res)
            except Exception:  # each member is integrated alone at its turn
                grids = []
            marched.update(zip([(m, res) for m in members], grids))
        if (c, res) in marched:
            return marched.pop((c, res))
        return c.row.integrate(c.init, res, c.case["t_end"])
    return grid


def _run_simulate_cases(cases: list, out_dir: Path, scenario_name: str, dump: bool,
                        entries: list) -> None:
    """Add to ``entries`` those of a simulate scenario's cases, each as its
    case ends, the same as running them one by one, with their grids marched
    by ``_simulate_grids``.

    The cases are read in order up to the first that fails to read, whose
    error is raised after the cases before it have run.  An abort keeps the
    entries of the cases before the one that aborts."""
    labels: set = set()
    read, unread = _read_until_error(lambda case: _read_simulate_case(case, labels), cases)
    grid = _simulate_grids(read)
    for c in read:
        entries += _run_simulate_case(c, grid, out_dir, scenario_name, dump)
    if unread is not None:
        raise unread


def _run_simulate_case(c: _Simulate, grid, out_dir: Path, scenario_name: str,
                       dump: bool) -> list[dict]:
    """The entries of read case ``c``, whose grid at each resolution is ``grid(c, res)``."""
    resolutions = c.case["resolutions"]
    measured, entries = {}, []
    for res in resolutions:
        try:
            g = grid(c, res)
        except (CharacteristicCrossingError, CFLViolationError) as err:  # a march's aborts
            c.row.dump(err.partial, out_dir / f"{scenario_name}.partial.csv")
            raise
        if dump:
            c.row.dump(g, out_dir / f"{scenario_name}.{c.label}.{res}.csv")
        measured[res] = {}
        for run, check in c.checks:
            for key, entry in run(g, f"{c.label}@{res}", check):
                entries.append(entry)
                measured[res][key] = entry["max_norm"]
    return entries + _halving(c.label, resolutions, measured, c.case["halving_ratio"])


def _conservation(grid, where: str, check: dict) -> list[tuple[str, dict]]:
    """The drift of each of S_1..S_5, against 5 h^2."""
    tol = 5.0 * grid.h**2
    out = []
    for n, drift in enumerate(hydro.conservation_drifts(grid, 5), 1):
        rep = ResidualReport(grid.nt * grid.nx, drift, drift, 0)
        out.append((f"s{n}", _entry(f"conservation_s{n}[{where}]", rep, tol,
                                    grid.nt * grid.nx)))
    return out


def _transport(grid, where: str, check: dict) -> list[tuple[str, dict]]:
    """Each field's transport residual at the middle level, against 5 h^2."""
    tol = 5.0 * grid.h**2
    m = grid.nt // 2
    nodes = np.arange(grid.nx)
    out = []
    for name, field, other in (("u", grid.u, grid.v), ("v", grid.v, grid.u)):
        jet = hydro.fd_jet_at(field, grid.dt, grid.h, m, nodes)
        sample = residuals.transport(jet, [-other[m]], 0, (1,))
        rep = residuals.grid_report([sample])
        out.append((f"transport_{name}",
                    _entry(f"transport_{name}[{where}]", rep, tol, grid.nx)))
    return out


def _multifield_det(grid, where: str, check: dict) -> list[tuple[str, dict]]:
    """The determinant equation of u1 and of u2 at the middle level, against h2^2."""
    tol = grid.h2**2
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
        rep = ResidualReport(n_nodes, value, value, 0)
        out.append((f"det_j{j}", _entry(f"multifield_det_j{j}[{where}]", rep, tol,
                                        n_nodes)))
    return out


# -- one row per op, system and check --------------------------------------------------------
#
# An op or check row holds the keys of its block (beside the ``op`` or
# ``equation`` that picks the row) and what runs it; a system row holds its
# fields and what integrates and dumps them.  A system looks its hydro
# functions up at each call, so patching ``hydro`` reaches them; a check binds
# its residual here.

_EXPRESSION = _Key("expression")
_CONFIG = _Key("JSON object", {})
_WINDOW = _Key("float", many="list", length=2)
_TOLERANCE = {"tolerance": _Key("float", low=0.0)}
_MAPS = {"maps": _Key("expression", ["s^3 + s"], 1, 1, many="list")}

_Op = namedtuple("_Op", "keys build")
_System = namedtuple("_System", "fields coords integrate stack dump")
_Check = namedtuple("_Check", "keys runs")

# op -> its construct block's keys, and (read block, label, read case, rng) -> _Solved
_OPS = {
    "solve_implicit_fg": _Op(
        {"F": _EXPRESSION, "G": _EXPRESSION, "config": _CONFIG},
        _field_case(lambda b: construct.solve_implicit_fg(
            b["F"].spec, b["G"].spec,
            _solve_config(b["config"], "scalar config", "construct.config")), 4)),
    "holo_sum": _Op({"f": _EXPRESSION, "g": _EXPRESSION},
                    _field_case(lambda b: construct.holo_sum(b["f"].spec, b["g"].spec), 4)),
    "implicit_3d": _Op(
        {"F": _EXPRESSION, "G": _EXPRESSION, "K": _EXPRESSION,
         "const_c": _Key("float", 0.0), "config": _CONFIG},
        _field_case(lambda b: construct.implicit_3d(
            b["F"].spec, b["G"].spec, b["K"].spec, b["const_c"],
            _solve_config(b["config"], "scalar config", "construct.config")), 3)),
    # a (u, v) solve has no default seed, so its config has no default
    "parametric_hodograph": _Op(
        {"f": _EXPRESSION, "g": _EXPRESSION, "config": _Key("JSON object")}, _hodograph_case),
    "leznov": _Op({"n": _Key("integer"), "Q": _Key("expression", many="list"),
                   "P": _Key("expression", many="list"), "config": _CONFIG}, _leznov_case),
}

# system -> its fields and their coordinates, (initial data, resolution,
# t_end) -> grid, ([(initial data, t_end)], resolution) -> their grids,
# marched as one stack (None for a system whose grids are not worth stacking),
# and (grid, CSV path) -> None, which dumps the grid.  The
# four-field names are hydro's MULTI_FIELDS, written out so that building
# these rows runs no hydro code (a test checks that they are equal).
_SYSTEMS = {
    "two_field": _System(
        ("u", "v"), ("x",),
        lambda init, res, t_end: hydro.integrate_characteristics(
            init["u"], init["v"], res, t_end),
        lambda problems, res: hydro.integrate_characteristics_stack(
            [(init["u"], init["v"], t_end) for init, t_end in problems], res),
        lambda grid, path: hydro.dump_char_grid(grid, path)),
    "multifield": _System(
        ("u1", "u2", "v1", "v2"), ("x2", "x3"),
        lambda init, res, t_end: hydro.integrate_multifield(init, res, res, t_end), None,
        lambda grid, path: hydro.dump_multi_grid(grid, path)),
}

# check equation -> its block's keys, and the op or system it applies to ->
# (solved case, read check) -> entries, for an op, or
# (grid, where, read check) -> [(halving key, entry)], for a system
_CHECKS = {
    "complex_bateman": _Check(_TOLERANCE, {
        **dict.fromkeys(("solve_implicit_fg", "holo_sum"), _per_point(residuals.complex_bateman)),
        # n = 2 only: a Leznov case rejects it on a larger system before solving
        "leznov": _per_point(lambda f: residuals.complex_bateman(f[0]))}),
    "euclidean_3d": _Check(_TOLERANCE, {"implicit_3d": _per_point(residuals.euclidean_3d)}),
    "euclid_first_order": _Check(_TOLERANCE, {
        "implicit_3d": _per_point(residuals.euclidean_first_order)}),
    "two_field_bateman": _Check(_TOLERANCE, {"parametric_hodograph": _per_point(lambda f: (
        residuals.two_field_bateman(*f), residuals.two_field_bateman(*f, conjugate=True)))}),
    "hodograph_identities": _Check(_TOLERANCE, {"parametric_hodograph": _hodograph_identities}),
    "roundtrip": _Check(_TOLERANCE, {"parametric_hodograph": _roundtrip}),
    "constraint_gap": _Check(_TOLERANCE, {"leznov": _constraint_gap}),
    "reparametrization": _Check({**_TOLERANCE, **_MAPS}, {
        **dict.fromkeys(("solve_implicit_fg", "holo_sum"), _reparametrized(
            "reparametrized_complex_bateman", lambda h, jet: residuals.complex_bateman(h(jet)))),
        "implicit_3d": _reparametrized(
            "reparametrized_euclidean_3d", lambda h, jet: residuals.euclidean_3d(h(jet)))}),
    "reparametrized_two_field": _Check({**_TOLERANCE, **_MAPS}, {
        "parametric_hodograph": _reparametrized(
            "reparametrized_two_field",
            lambda h, fields: residuals.two_field_bateman(*map(h, fields)))}),
    "born_infeld": _Check({**_TOLERANCE, "lambda": _Key("float", 1.0, low=_POSITIVE)},
                          {"parametric_hodograph": _born_infeld}),
    "linear_covariance": _Check(_TOLERANCE, {"parametric_hodograph": _linear_covariance}),
    "holomorphy": _Check(_TOLERANCE, {"leznov": _speed_check(
        lambda sys_, speeds: leznov.holomorphy_samples(sys_, *speeds), "d_phi", "dbar_phi")}),
    "zero_curvature": _Check(_TOLERANCE, {"leznov": _speed_check(
        lambda sys_, speeds: [leznov.zero_curvature_samples(sys_, speeds[1])],
        "zero_curvature")}),
    "conservation": _Check({}, {"two_field": _conservation}),
    "transport": _Check({}, {"two_field": _transport}),
    "multifield_det": _Check({}, {"multifield": _multifield_det}),
}

# the key every config place has; Newton keeps every iterate of a solve,
# (max_iter + 1) per point, so max_iter is capped
_MAX_ITER = {"max_iter": _Key("integer", 50, 1, 1000)}

# place -> key -> _Key
_FORMAT = {
    "scenario": {
        "name": _Key("file-name string"), "paper_anchor": _Key("string"),
        "kind": _Key("choice", choices=("verify", "simulate", "variational", "ad")),
        "cases": _Key("JSON object", many="list")},
    "verify case": {
        "label": _Key("file-name string", None), "construct": _Key("JSON object"),
        "samples": _Key("JSON object"), "checks": _Key("JSON object", many="list")},
    "simulate case": {
        "system": _Key("choice", "two_field", choices=tuple(_SYSTEMS)),
        "label": _Key("file-name string", None), "init": _Key("expression", many="object"),
        "t_end": _Key("float", low=_POSITIVE),
        "resolutions": _Key("integer", low=8, high=_CAP, many="list"),
        "checks": _Key("JSON object", many="list"), "halving_ratio": _Key("float", 0.0)},
    "variational case": {
        "label": _Key("file-name string", "variational"), "source": _Key("JSON object"),
        # the residuals lie two nodes inside each edge of a grid
        "resolutions": _Key("integer", low=5, high=_CAP, many="list"),
        "psi": _Key("expression", ["s"], 0, 1, many="list"),
        "factors": _Key("expression", ["p/q"], many="list"),
        "halving_ratio": _Key("float", 0.0)},
    "ad case": {
        # a million random expressions take minutes; the bound keeps a case from running for years
        "expressions": _Key("integer", 500, 1, 10**6),
        # the probe divides by h^2, which must neither underflow nor overflow
        "steps": _Key("float", [1e-3, 5e-4], 2 ** -537.5, math.sqrt(sys.float_info.max),
                      many="list", length=2),
        # at a ratio of 1 or less every expression converges, whatever its jets
        "min_ratio": _Key("float", 3.5, low=math.nextafter(1.0, math.inf))},
    "source": {"f": _EXPRESSION, "g": _EXPRESSION, "config": _Key("JSON object"),
               "t_window": _WINDOW, "x_window": _WINDOW},
    # solve_implicit_fg and implicit_3d: a scalar seed, and bisection on a bracket
    "scalar config": {**_MAX_ITER, "seed": _Key("float", 1.0),
                      "bracket": _Key("float", None, many="list", length=2)},
    # parametric_hodograph and a variational source: a (u, v) seed pair
    "pair config": {**_MAX_ITER, "seed": _Key("float", many="list", length=2)},
    # leznov: one seed for every field, or one per field (n - 1 of them)
    "leznov config": {**_MAX_ITER, "seed": _Key("float", 1.0, many="or list")},
    "samples": {
        "count": _Key("integer", low=1, high=_CAP),
        "low": _Key("float", many="list"), "high": _Key("float", many="list")},
    **{f"construct {op}": {"op": _Key("choice", choices=(op,)), **row.keys}
       for op, row in _OPS.items()},
    **{f"check {eq}": {"equation": _Key("choice", choices=(eq,)), **row.keys}
       for eq, row in _CHECKS.items()},
}


# -- variational-kind cases ----------------------------------------------------------------


@dataclass
class _Variational:
    """A variational case before any solve: its values as read, the source
    ``(f, g, config)`` as written (the cases of one source march their grids
    together), its solver and, per resolution, the grid nodes, the
    tolerance (5 h^2, h the larger spacing) and one functional per factor."""

    case: dict
    source: tuple
    solver: construct.HodographSolver
    grids: list  # (n, t_nodes, x_nodes, tolerance, [(factor, functional)])


def _read_variational_case(case: dict) -> _Variational:
    case = _read(case, "variational case")
    _increasing(case["resolutions"])
    src = _read(case["source"], "source", "source")
    with _reading():
        cfg = _solve_config(src["config"], "pair config", "source.config")
        solver = construct.HodographSolver(src["f"].spec, src["g"].spec, cfg)
    grids = []
    for n in case["resolutions"]:
        # outside _reading: an array too large for memory is a runtime failure
        t_nodes = np.linspace(*src["t_window"], n)
        x_nodes = np.linspace(*src["x_window"], n)
        ht, hx = t_nodes[1] - t_nodes[0], x_nodes[1] - x_nodes[0]
        tol = float(5.0 * max(ht, hx) ** 2)
        with _reading():
            grids.append((n, t_nodes, x_nodes, tol, [
                (h.text, varlag.DiscreteFunctional(ht=ht, hx=hx, factor=h.spec))
                for h in case["factors"]]))
    # repr tells a seed of -0.0 from one of 0.0, which == does not
    return _Variational(case, (src["f"].text, src["g"].text, repr(cfg)), solver, grids)


def _check_variational_case(c: _Variational, fields: list) -> list[dict]:
    """The entries of a read case from its grids' ``fields``, each ``(phi,
    phibar)`` or the exception the grid raised, which is raised here before
    that grid's checks."""
    label, measured, entries = c.case["label"], {}, []
    for (n, _, _, tol, functionals), grid in zip(c.grids, fields):
        if isinstance(grid, Exception):
            raise grid
        phi, phibar = grid
        measured[n] = {}
        for factor, func in functionals:
            for w, psi_expr in c.case["psi"]:
                psi = varlag.psi_from(phibar, psi_expr)
                deg = varlag.onshell_degeneracy(func, phi, phibar, psi, tolerance=tol)
                for vary, rep in deg.per_vary.items():  # psi, phibar, phi
                    entries.append(_entry(
                        f"variational_{vary}[{label}:psi={w},H={factor}@{n}]",
                        rep, tol, rep.samples))
                    measured[n][f"{vary}|psi={w}|H={factor}"] = entries[-1]["max_norm"]
                rep = ResidualReport(phi.size, deg.action_normalized,
                                     deg.action_normalized, 0)
                entries.append(_entry(
                    f"degeneracy_action[{label}:psi={w},H={factor}@{n}]",
                    rep, tol, phi.size))
    return entries + _halving(label, c.case["resolutions"], measured, c.case["halving_ratio"])


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
    read, unread = _read_until_error(_read_variational_case, cases)
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
    """A random composition of at most ``depth`` levels over ``names``, as the
    tree that ``exprspec.parse`` builds from its text (``random_expression``
    in the tests' oracles writes that text from the same draws).  A leaf is a
    name or a constant in [0.2, 2.0] to three decimals.  The operand ``b`` of
    a function or a power is drawn and dropped, so the draws stay in step
    with the text; the arguments of ``log`` and ``sqrt`` are kept positive
    and the denominators of ``/`` away from zero."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return Var(_draw(rng, names))
        return Num(float(f"{rng.uniform(0.2, 2.0):.3f}"))
    kind = _draw(rng, ("+", "-", "*", "/", "func", "^"))
    a = _random_expression(rng, names, depth - 1)
    b = _random_expression(rng, names, depth - 1)
    if kind in ("+", "-", "*"):
        return Bin(kind, a, b)
    if kind == "/":
        return Bin("/", a, Bin("+", Num(2.5), Call("sin", b)))
    if kind == "^":
        return Bin("^", a, Num(float(rng.integers(2, 4))))
    fn = _draw(rng, ("exp", "log", "sin", "cos", "sqrt"))
    if fn == "exp":
        return Call("exp", Bin("*", Num(0.3), a))
    if fn in ("log", "sqrt"):
        return Call(fn, Bin("+", Num(3.5), Call("sin", a)))
    return Call(fn, a)


# The rows of an ad case's block: it reduces its expressions this many at a
# time, so its memory does not grow with their count.
_BLOCK = 512


def _probe_shifts(k: int) -> np.ndarray:
    """The points of a central-difference probe in k variables other than its
    centre, as offsets in units of the step: x ± e_i for each i, then the
    corners ++, +-, -+ and -- of each pair i < j.  A coordinate left in place
    is offset by -0.0, since x + -0.0 is x for every x, -0.0 included."""
    e = np.eye(k)
    shifts = np.array([s for i in range(k) for s in (e[i], -e[i])]
                      + [s for i in range(k) for j in range(i + 1, k)
                         for s in (e[i] + e[j], e[i] - e[j], e[j] - e[i], -e[i] - e[j])])
    shifts[shifts == 0.0] = -0.0
    return shifts


def _stencil(k: int, steps) -> np.ndarray:
    """The offsets of a probe's points from its centre, one row per variable:
    the centre itself (-0.0), then each step's ``_probe_shifts`` in turn."""
    offsets = (_probe_shifts(k) * np.array(steps)[:, None, None]).reshape(-1, k)
    return np.concatenate((np.full((1, k), -0.0), offsets)).T.copy()


def _stencil_values(spec, names, point, stencil) -> np.ndarray:
    """``spec`` at each point ``point + stencil`` (``point`` the values of the
    ``names``), in one array call; where it raises, the first failing point
    in order raises its error (``exprspec.at_points``)."""
    return at_points(float_fn(spec, names), *(point[:, None] + stencil))


def _quotients(values: np.ndarray, k: int, steps) -> list[np.ndarray]:
    """Each row's gradient, then its row-major Hessian, one array per step in
    ``steps``: ``jets.central_differences`` over that step's columns of rows
    of ``_stencil_values`` in k variables."""
    shifts = [tuple(s) for s in _probe_shifts(k).tolist()]
    quotients = []
    for n, h in enumerate(steps):
        column = {shift: c for c, shift in enumerate(shifts, 1 + n * len(shifts))}
        column[(0,) * k] = 0  # the centre, shared by every step
        _, grad, hess = jets.central_differences(
            lambda shift: values[:, column[tuple(shift)]], (h,) * k)
        quotients.append(np.concatenate((grad, hess.reshape(len(hess), k * k)), axis=1))
    return quotients


def _defects(values: np.ndarray, exact: np.ndarray, k: int, steps, min_ratio: float) -> int:
    """How many rows of a block fail the convergence test, from their
    ``_stencil_values`` in k variables and their jets' (value, grad, hess)."""
    with np.errstate(all="ignore"):  # a quotient of extreme values is ±inf, as in floats
        errs = [np.abs(q - exact[:, 1:]).max(axis=1) for q in _quotients(values, k, steps)]
        scale = np.maximum(np.abs(exact).max(axis=1), 1.0)
        # Converged second order, or already at rounding level at the coarse
        # step (near-linear compositions have ~zero truncation error, so the
        # quotients are pure noise ~ eps * |f| / h^2 there).
        noise_floor = np.maximum(1e-8 * scale, 1e3 * 2.3e-16 * scale / steps[0] ** 2)
        ok = (errs[0] / np.maximum(errs[1], 1e-300) >= min_ratio) | (errs[0] <= noise_floor)
    return int(np.count_nonzero(~ok))


def _run_ad_case(case: dict, rng: np.random.Generator) -> list[dict]:
    case = _read(case, "ad case")
    count, steps, min_ratio = case["expressions"], case["steps"], case["min_ratio"]
    names = ["a", "b", "c"]
    variables = tuple(names)  # every spec's, used or not: its evaluators bind them by name
    k = len(names)
    stencil = _stencil(k, steps)
    # a block of rows, one per admissible expression: its stencil values, and
    # its jet's value, gradient and Hessian
    values, exact = np.empty((_BLOCK, stencil.shape[1])), np.empty((_BLOCK, 1 + k + k * k))
    produced = attempts = defective = 0
    while produced < count and attempts < 20 * count:
        attempts += 1
        spec = ExprSpec(_random_expression(rng, names, depth=int(rng.integers(1, 4))), variables)
        point = rng.uniform(0.4, 1.6, size=k)
        row = produced % _BLOCK
        try:
            jet = eval_jet(spec, dict(zip(names, jets.variables(point))), k=k)
            values[row] = _stencil_values(spec, names, point, stencil)
        except EvaluationError:
            continue
        out = exact[row]
        out[0], out[1:k + 1], out[k + 1:] = jet.value, jet.grad, jet.hess.ravel()
        produced += 1
        if produced % _BLOCK == 0:
            defective += _defects(values, exact, k, steps, min_ratio)
    if produced < count:
        raise ScenarioError("could not generate enough admissible expressions")
    rows = produced % _BLOCK
    defective += _defects(values[:rows], exact[:rows], k, steps, min_ratio)
    # the max and root mean square of the 0/1 defects: their sum is exact, so
    # these are the bits numpy gives for an array of them
    rep = ResidualReport(produced, float(defective > 0),
                         math.sqrt(defective / produced), 0)
    return [_entry("ad_convergence", rep, 0.5, count)]


# -- scenario driver --------------------------------------------------------------------


def load_scenario(path) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as err:  # ValueError: not UTF-8
        raise ScenarioError(f"cannot load scenario {path}: {err}") from None
    return _scenario(text, path)


def _scenario(text: str, path) -> dict:
    """The scenario in JSON ``text``, read at the top level (a case is read as it runs)."""
    try:
        data = json.loads(text)
    except ValueError as err:
        raise ScenarioError(f"cannot load scenario {path}: {err}") from None
    try:
        return _read(data, "scenario")
    except ScenarioError as err:
        raise ScenarioError(f"{path}: {err}") from None


def run_scenario(data: dict, out_dir: Path, seed: int, dump: bool = False) -> tuple[dict, int]:
    """Execute one loaded scenario; returns (report, exit code)."""
    rng = _scenario_rng(seed, data["name"])
    out_dir.mkdir(parents=True, exist_ok=True)
    entries: list[dict] = []
    abort_code = None
    sample_sink: dict = {}  # verify cases: label -> sample points
    try:
        # A non-finite jet or float raises its guard's JetDomainError, and a
        # non-finite norm fails its entry (_entry), so numpy's floating-point
        # warnings would only repeat on stderr what the exit code reports.
        with np.errstate(all="ignore"):
            if data["kind"] == "variational":
                entries = _run_variational_cases(data["cases"])
            elif data["kind"] == "simulate":
                _run_simulate_cases(data["cases"], out_dir, data["name"], dump, entries)
            else:
                for case in data["cases"]:
                    if data["kind"] == "verify":
                        entries += _run_verify_case(case, rng, sample_sink)
                    else:
                        entries += _run_ad_case(case, rng)
    except (CharacteristicCrossingError, CFLViolationError) as err:
        rep = ResidualReport(0, math.inf, math.inf, 0)
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
