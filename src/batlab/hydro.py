"""Characteristic integration of the first-order hydrodynamic systems.

The two-field system u_t = v u_x, v_t = u v_x carries u along dx/dt = -v and
v along dx/dt = -u; its levels are interpolated by a monotone cubic.  The
four-field system in two space dimensions

    w_{x1} + c1 w_{x2} + c2 w_{x3} = 0

(with (c1, c2) = (v1, v2) for the u-fields and (u1, u2) for the v-fields;
the speed attached to x2 is the first one, matching the derivation-order
convention validated by the determinant tests) takes x1 as the level axis and
periodic bicubic spline interpolation.

Both march through one semi-Lagrangian loop (``_march``): a time step with
15% headroom under the initial CFL bound, a CFL recheck at every level, and a
level update that locates foot points by one fixed-point solve
(``_foot_points``) and pulls values back along them.  A predictor pass with
frozen level-m speeds feeds a trapezoidal corrector, which keeps the scheme
second order in time.  Each system supplies only its nodes, initial data,
interpolant and step formulas.  Non-monotone foot points (a characteristic
crossing) or a CFL violation abort with the levels computed so far attached
to the exception as ``partial``; ``_write_grid`` dumps either grid as CSV.

Every derivative of a stored grid, for the conservation drift, ``fd_jet_at``
and ``fd_derivatives_multi``, comes from one second-order centered stencil,
``fd_derivatives_time_space``, with each space axis wrapped or cut.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from . import jets
from .errors import CFLViolationError, CharacteristicCrossingError
# eval_float is not called here; the benchmark's tracer (perfbench/tracing.py)
# patches this binding by name.
from .exprspec import ExprSpec, at_points, eval_float, float_fn  # noqa: F401

TWO_PI = 2.0 * math.pi
MULTI_FIELDS = ("u1", "u2", "v1", "v2")


def check_initial_data(init: dict, names: tuple, coords: tuple) -> None:
    """ValueError unless ``init`` maps exactly ``names`` to ExprSpecs over ``coords``."""
    if set(init) != set(names):
        raise ValueError(f"init must define exactly {names}")
    for name in names:
        extra = set(init[name].vars) - set(coords)
        if extra:
            raise ValueError(f"initial data {name} may only use {list(coords)}, "
                             f"got {sorted(extra)}")


def sn_polynomial_grid(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Complete homogeneous symmetric polynomial S_n(u, v), elementwise.

    S_0 = 1 (the recurrence base that keeps degree counting consistent);
    S_n = u^n + v S_{n-1}.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    s = np.ones_like(u)
    for m in range(1, n + 1):
        s = u**m + v * s
    return s


# -- grids ------------------------------------------------------------------------


@dataclass
class CharGridSpec:
    """Discretization request for the two-field system."""

    nx: int
    t_end: float
    x0: float = 0.0
    x1: float = TWO_PI
    cfl: float = 0.5
    bc: str = "periodic"  # or "open"

    def __post_init__(self):
        if self.nx < 8:
            raise ValueError("need at least 8 nodes")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if not 0 < self.cfl <= 0.9:
            raise ValueError("cfl must be in (0, 0.9]")
        if not self.x1 > self.x0:
            raise ValueError("x1 must be greater than x0")
        if not math.isfinite(self.x0 + (self.x1 - self.x0) * (self.nx - 1) / self.nx):
            raise ValueError("grid nodes must be finite")
        if self.bc not in ("periodic", "open"):
            raise ValueError("bc must be 'periodic' or 'open'")


@dataclass
class CharGrid:
    """Filled space-time grid for (u, v)."""

    t_levels: np.ndarray
    x_nodes: np.ndarray
    u: np.ndarray  # (nt, nx)
    v: np.ndarray
    h: float
    dt: float
    cfl: float
    bc: str

    @property
    def nt(self) -> int:
        return len(self.t_levels)

    @property
    def nx(self) -> int:
        return len(self.x_nodes)


class MonotoneCubic1D:
    """Monotonicity-limited cubic Hermite interpolation on a uniform grid.

    Derivative estimates are fourth-order centered differences.  Where four
    consecutive slopes share a sign (a resolved monotone run, e.g. a steep
    front) the strict Fritsch-Carlson clamp d in [0, 3 min|slope|] applies;
    elsewhere (near extrema) the Dougherty-Edelman-Hyman interval clamp
    [3 min(s-, s+, 0), 3 max(s-, s+, 0)] is used, which is inert on smooth
    resolved data and therefore keeps the full interpolation order.
    """

    def __init__(self, x_nodes: np.ndarray, values: np.ndarray, bc: str, x0: float):
        self.periodic = bc == "periodic"
        self.x0 = x0
        self.h = float(x_nodes[1] - x_nodes[0])
        self.y = np.asarray(values, dtype=float)
        n = len(self.y)

        if self.periodic:
            yp1, ym1 = np.roll(self.y, -1), np.roll(self.y, 1)
            yp2, ym2 = np.roll(self.y, -2), np.roll(self.y, 2)
            d = (8.0 * (yp1 - ym1) - (yp2 - ym2)) / (12.0 * self.h)
            slope_plus = (yp1 - self.y) / self.h       # S_i
            slope_minus = np.roll(slope_plus, 1)       # S_{i-1}
            slope_mm = np.roll(slope_plus, 2)          # S_{i-2}
            slope_pp = np.roll(slope_plus, -1)         # S_{i+1}
        else:
            d = np.empty(n)
            d[2:-2] = (8.0 * (self.y[3:-1] - self.y[1:-3])
                       - (self.y[4:] - self.y[:-4])) / (12.0 * self.h)
            d[1] = (self.y[2] - self.y[0]) / (2.0 * self.h)
            d[-2] = (self.y[-1] - self.y[-3]) / (2.0 * self.h)
            d[0] = (-3.0 * self.y[0] + 4.0 * self.y[1] - self.y[2]) / (2.0 * self.h)
            d[-1] = (3.0 * self.y[-1] - 4.0 * self.y[-2] + self.y[-3]) / (2.0 * self.h)
            slopes = np.diff(self.y) / self.h
            slope_plus = np.concatenate([slopes, slopes[-1:]])
            slope_minus = np.concatenate([slopes[:1], slopes])
            slope_mm = np.concatenate([slopes[:1], slope_minus[:-1]])
            slope_pp = np.concatenate([slope_plus[1:], slopes[-1:]])

        strict = ((slope_mm * slope_minus > 0.0) & (slope_minus * slope_plus > 0.0)
                  & (slope_plus * slope_pp > 0.0))
        sigma = np.sign(slope_plus)
        lim = 3.0 * np.minimum(np.abs(slope_minus), np.abs(slope_plus))
        d_strict = np.where(np.sign(d) == sigma,
                            sigma * np.minimum(np.abs(d), lim), 0.0)
        lo = 3.0 * np.minimum(np.minimum(slope_minus, slope_plus), 0.0)
        hi = 3.0 * np.maximum(np.maximum(slope_minus, slope_plus), 0.0)
        d_relaxed = np.clip(d, lo, hi)
        self.d = np.where(strict, d_strict, d_relaxed)

    def __call__(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        n = len(self.y)
        s = (q - self.x0) / self.h
        if self.periodic:
            s = np.mod(s, n)
            k = np.minimum(s.astype(int), n - 1)
            kp = (k + 1) % n
        else:
            k = np.clip(s.astype(int), 0, n - 2)
            kp = k + 1
        xi = s - k
        xi2 = xi * xi
        xi3 = xi2 * xi
        h10 = xi3 - 2.0 * xi2 + xi
        h01 = -2.0 * xi3 + 3.0 * xi2
        h11 = xi3 - xi2
        # Written as y_k + (y_{k+1} - y_k) h01 + ... so constants interpolate
        # exactly (h00 + h01 = 1 holds algebraically, not in floats).
        return (self.y[k] + (self.y[kp] - self.y[k]) * h01
                + self.h * (self.d[k] * h10 + self.d[kp] * h11))


def _foot_points(step, start, tol, level):
    """Solve foot = step(foot) by fixed point from ``start`` (at most 10 sweeps).

    A foot is a tuple of coordinate arrays, one per space axis, each shaped
    like the nodes.  Feet that fail to increase strictly along their own axis
    mean that characteristics crossed.
    """
    foot = start
    for _ in range(10):
        new = step(foot)
        delta = max(np.abs(a - b).max() for a, b in zip(new, foot))
        foot = new
        if delta <= tol:
            break
    else:
        raise CharacteristicCrossingError(
            level, "foot-point fixed-point iteration did not converge")
    if any(np.any(np.diff(f, axis=k) <= 0.0) for k, f in enumerate(foot)):
        raise CharacteristicCrossingError(level)
    return foot


def _march(init: dict, h: float, spec, advance, build):
    """The level loop both systems share.

    ``init`` maps each field to its level-0 array and ``h`` is the smallest
    node spacing.  ``advance(level, dt, m)`` maps the fields at level m to
    those at m + 1, and ``build(t_levels, dt, fields)`` wraps arrays into a
    grid.  Every level rechecks the CFL bound; an abort attaches the grid of
    the levels 0..m computed so far to the exception as ``partial``.
    """
    vmax = max(*(np.abs(f).max() for f in init.values()), 1e-12)
    # 15% headroom so mild speed growth during the window does not trip the
    # per-level CFL recheck; at least two steps so drift stencils fit.
    dt0 = spec.cfl * h / (1.15 * vmax)
    steps = spec.t_end / dt0 if dt0 > 0 else math.inf
    if not math.isfinite(steps):  # as for a grid too large for memory: a runtime failure
        raise ValueError(f"t_end {spec.t_end} takes {steps} steps of at most {dt0}")
    n_steps = max(2, math.ceil(steps))
    dt = spec.t_end / n_steps
    t_levels = dt * np.arange(n_steps + 1)
    data = {}
    for name, f in init.items():
        data[name] = np.empty((n_steps + 1, *f.shape))
        data[name][0] = f

    for m in range(n_steps):
        level = {n: a[m] for n, a in data.items()}
        allowed = spec.cfl * h / max(*(np.abs(f).max() for f in level.values()), 1e-12)
        try:
            if dt > allowed * (1 + 1e-12):
                raise CFLViolationError(m, dt, allowed)
            for name, f in advance(level, dt, m).items():
                data[name][m + 1] = f
        except (CFLViolationError, CharacteristicCrossingError) as err:
            err.partial = build(t_levels[:m + 1], dt,
                                {n: a[:m + 1] for n, a in data.items()})
            raise
    return build(t_levels, dt, data)


def integrate_characteristics(
    init_u: ExprSpec, init_v: ExprSpec, spec: CharGridSpec
) -> CharGrid:
    """Fill a CharGrid from smooth initial data given as expressions of x."""
    check_initial_data({"u": init_u, "v": init_v}, ("u", "v"), ("x",))
    if spec.bc == "periodic":
        x_nodes = spec.x0 + (spec.x1 - spec.x0) * np.arange(spec.nx) / spec.nx
    else:
        x_nodes = np.linspace(spec.x0, spec.x1, spec.nx)
    h = float(x_nodes[1] - x_nodes[0])
    init = {name: at_points(float_fn(s, ("x",)), x_nodes)
            for name, s in (("u", init_u), ("v", init_v))}

    def advance(level, dt, m):
        interp_u = MonotoneCubic1D(x_nodes, level["u"], spec.bc, spec.x0)
        interp_v = MonotoneCubic1D(x_nodes, level["v"], spec.bc, spec.x0)

        def at_feet(interp, step):
            return interp(*_foot_points(step, step((x_nodes,)), 1e-12 * h, m))

        # u is carried along dx/dt = -v and v along dx/dt = -u, so a foot point
        # of u solves x* = x_i + dt v(x*).  Predictor: frozen level-m speeds.
        u_star = at_feet(interp_u, lambda f: (x_nodes + dt * interp_v(*f),))
        v_star = at_feet(interp_v, lambda f: (x_nodes + dt * interp_u(*f),))
        # Corrector: x* = x_i + dt/2 (v_m(x*) + v_{m+1}(x_i)), with the
        # predicted level standing in for m+1.
        half = 0.5 * dt
        return {
            "u": at_feet(interp_u, lambda f: (x_nodes + half * v_star + half * interp_v(*f),)),
            "v": at_feet(interp_v, lambda f: (x_nodes + half * u_star + half * interp_u(*f),)),
        }

    return _march(init, h, spec, advance, lambda t, dt, f: CharGrid(
        t, x_nodes, f["u"], f["v"], h, dt, spec.cfl, spec.bc))


# -- conservation hierarchy ---------------------------------------------------------


def conservation_drift(grid: CharGrid, n: int) -> float:
    """Max interior normalized defect of d_t S_n = d_x (u v S_{n-1})."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if grid.nt < 3:
        raise ValueError("need at least 3 time levels")
    sn = sn_polynomial_grid(grid.u, grid.v, n)
    flux = grid.u * grid.v * sn_polynomial_grid(grid.u, grid.v, n - 1)
    wrap = grid.bc == "periodic"
    dt_term = fd_derivatives_time_space(sn, grid.dt, grid.h, wrap=wrap)[1][..., 0]
    dx_term = fd_derivatives_time_space(flux, grid.dt, grid.h, wrap=wrap)[1][..., 1]
    raw = np.abs(dt_term - dx_term)
    scale = np.abs(dt_term) + np.abs(dx_term)
    if raw.max() == 0.0:
        return 0.0
    # Relative to the largest term magnitude on the grid: both terms cross
    # zero locally, so a per-node quotient would be 0/0 noise there.  The
    # floor covers grids whose stored values are constant to rounding, where
    # even the global term magnitude is pure float noise.
    floor = 1e-6 * (np.abs(sn).max() / grid.dt + np.abs(flux).max() / grid.h)
    return float(raw.max() / max(scale.max(), floor, 1e-300))


# -- finite-difference jets from grids ------------------------------------------------


def fd_derivatives_time_space(F: np.ndarray, dt: float, *h: float, wrap: bool):
    """Centered second-order derivatives of F(level, space...) at its interior levels.

    ``dt`` is the level spacing and ``h`` holds one spacing per space axis.
    Each space axis either wraps (``wrap``, a periodic grid) or is cut to its
    interior nodes.  Returns (value, grad, hess) over the nodes kept: grad is
    shaped (..., k) and hess (..., k, k), k = F.ndim, with the level first.
    """
    steps = (dt, *h)
    k = len(steps)
    if wrap:
        F = np.pad(F, [(0, 0)] + [(1, 1)] * (k - 1), mode="wrap")
    e = np.eye(k, dtype=int)

    def at(shift):
        """F at every kept node moved by ``shift`` nodes along the axes."""
        return F[tuple(slice(1 + s, n - 1 + s) for s, n in zip(shift, F.shape))]

    mid = at([0] * k)
    grad = np.empty(mid.shape + (k,))
    hess = np.empty(mid.shape + (k, k))
    for a in range(k):
        up, down = at(e[a]), at(-e[a])
        grad[..., a] = (up - down) / (2 * steps[a])
        hess[..., a, a] = (up - 2 * mid + down) / steps[a]**2
        for b in range(a + 1, k):
            hess[..., a, b] = hess[..., b, a] = (
                at(e[a] + e[b]) - at(e[a] - e[b]) - at(e[b] - e[a]) + at(-e[a] - e[b])
            ) / (4 * steps[a] * steps[b])
    return mid, grad, hess


def fd_jet_at(F: np.ndarray, dt: float, h: float, m: int, i) -> jets.Jet2:
    """Arity-2 jet of a stored periodic field at interior level m: at node i
    (an int), or over the batch of the nodes of an index array i."""
    if not 1 <= m <= F.shape[0] - 2:
        raise ValueError("time level must be interior")
    value, grad, hess = fd_derivatives_time_space(F[m - 1:m + 2], dt, h, wrap=True)
    return jets.from_parts(value[0, i], grad[0, i], hess[0, i])


# -- multi-field system ----------------------------------------------------------------


@dataclass
class MultiGridSpec:
    n2: int
    n3: int
    t_end: float
    cfl: float = 0.4

    def __post_init__(self):
        if min(self.n2, self.n3) < 8:
            raise ValueError("need at least 8 nodes per axis")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if not 0 < self.cfl <= 0.9:
            raise ValueError("cfl must be in (0, 0.9]")


@dataclass
class MultiCharGrid:
    """Filled (x1; x2, x3) grid for (u1, u2, v1, v2); x1 is the level axis."""

    x1_levels: np.ndarray
    x2_nodes: np.ndarray
    x3_nodes: np.ndarray
    fields: dict  # name -> (nt, n2, n3)
    h2: float
    h3: float
    dt: float
    cfl: float

    @property
    def nt(self) -> int:
        return len(self.x1_levels)


class _PeriodicSpline2:
    """Periodic bicubic interpolation on the unit-index grid."""

    def __init__(self, values: np.ndarray):
        # Imported here, not at module load: only the multifield integrator
        # needs scipy, and loading it is most of ``batlab.cli``'s import time.
        from scipy import ndimage
        self.coeffs = ndimage.spline_filter(values, order=3, mode="grid-wrap")

    def __call__(self, idx2: np.ndarray, idx3: np.ndarray) -> np.ndarray:
        from scipy import ndimage
        return ndimage.map_coordinates(
            self.coeffs, [idx2, idx3], order=3, mode="grid-wrap", prefilter=False)


def integrate_multifield(
    init: dict, spec: MultiGridSpec, freeze: tuple = ()
) -> MultiCharGrid:
    """Integrate the four-field system.

    ``init`` maps each of "u1", "u2", "v1", "v2" to an ExprSpec over (x2, x3).
    ``freeze`` lists fields whose values stay at their initial data (used by
    the frozen-speed transport oracle in the tests).
    """
    check_initial_data(init, MULTI_FIELDS, ("x2", "x3"))
    x2 = TWO_PI * np.arange(spec.n2) / spec.n2
    x3 = TWO_PI * np.arange(spec.n3) / spec.n3
    h2 = float(x2[1] - x2[0])
    h3 = float(x3[1] - x3[0])
    X2, X3 = np.meshgrid(x2, x3, indexing="ij")
    f0 = {name: at_points(float_fn(init[name], ("x2", "x3")), X2, X3) for name in MULTI_FIELDS}
    # Feet are in index units: node (i, k) sits at (i, k).
    idx2, idx3 = np.meshgrid(np.arange(spec.n2, dtype=float),
                             np.arange(spec.n3, dtype=float), indexing="ij")
    # advecting speed pair -> the fields it carries
    carried = {("v1", "v2"): ("u1", "u2"), ("u1", "u2"): ("v1", "v2")}

    def advance(level, dt, m):
        splines = {n: _PeriodicSpline2(f) for n, f in level.items()}
        # Predictor with frozen speeds, then a corrector with trapezoidal
        # speeds from the predicted level.
        star = None
        for _ in range(2):
            new = {}
            for (c2, c3), names in carried.items():
                s2, s3 = splines[c2], splines[c3]
                if star is None:
                    step = lambda f: (idx2 - (dt / h2) * s2(*f), idx3 - (dt / h3) * s3(*f))
                else:
                    p2, p3 = star[c2], star[c3]
                    step = lambda f: (idx2 - 0.5 * (dt / h2) * (s2(*f) + p2),
                                      idx3 - 0.5 * (dt / h3) * (s3(*f) + p3))
                foot = _foot_points(step, (idx2, idx3), 1e-12, m)
                for name in names:
                    new[name] = splines[name](*foot)
            star = new
        return {n: level[n] if n in freeze else star[n] for n in MULTI_FIELDS}

    return _march(f0, min(h2, h3), spec, advance, lambda t, dt, f: MultiCharGrid(
        t, x2, x3, f, h2, h3, dt, spec.cfl))


def fd_derivatives_multi(F: np.ndarray, dt: float, h2: float, h3: float):
    """Centered derivatives of a periodic F(level, i2, i3) at its interior
    levels: (value, grad, hess) of :func:`fd_derivatives_time_space` over the
    axes (x1, x2, x3)."""
    return fd_derivatives_time_space(F, dt, h2, h3, wrap=True)


# -- persistence -----------------------------------------------------------------------


def _write_grid(csv_path, axes: tuple, levels: np.ndarray, nodes: list, fields: dict,
                meta: dict) -> None:
    """Write a grid as CSV, one row per level and node, plus a JSON sidecar.

    ``nodes`` holds one coordinate array per space axis, shaped like each
    level of the ``fields`` arrays.  The node coordinates are formatted once
    per grid; each level is joined into one string and written in one call,
    so no more than one level is held as Python objects.  Every cell is an
    int, a float's ``repr`` or a fixed name, so none needs quoting, and lines
    end in CR LF: the bytes are those ``csv.writer`` gives.
    """
    csv_path = Path(csv_path)
    with csv_path.open("w", newline="") as fh:
        fh.write(",".join(["level", *axes, *fields]) + "\r\n")
        node_cols = list(map(",".join, zip(*(map(repr, a.ravel().tolist()) for a in nodes))))
        for m, t in enumerate(levels.tolist()):
            fh.write("\r\n".join(map(",".join, zip(
                repeat(f"{m},{t!r}"), node_cols,
                *(map(repr, f[m].ravel().tolist()) for f in fields.values())))) + "\r\n")
    meta = {**meta, "scheme": "semi-lagrangian-predictor-corrector", "levels": len(levels)}
    csv_path.with_suffix(".meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n")


def dump_char_grid(grid: CharGrid, csv_path) -> None:
    """CSV dump (one row per node) plus a JSON sidecar with the metadata."""
    _write_grid(csv_path, ("t", "x"), grid.t_levels, [grid.x_nodes],
                {"u": grid.u, "v": grid.v},
                {"h": grid.h, "dt": grid.dt, "cfl": grid.cfl, "bc": grid.bc,
                 "nodes": grid.nx})


def dump_multi_grid(grid: MultiCharGrid, csv_path) -> None:
    """CSV dump (one row per (x2, x3) node) plus a JSON sidecar with the metadata."""
    _write_grid(csv_path, ("x1", "x2", "x3"), grid.x1_levels,
                np.meshgrid(grid.x2_nodes, grid.x3_nodes, indexing="ij"),
                {n: grid.fields[n] for n in MULTI_FIELDS},
                {"h2": grid.h2, "h3": grid.h3, "dt": grid.dt, "cfl": grid.cfl,
                 "n2": len(grid.x2_nodes), "n3": len(grid.x3_nodes)})
