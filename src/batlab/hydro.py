"""Characteristic integration of the first-order hydrodynamic systems.

The two-field system

    u_t = v u_x,   v_t = u v_x

is integrated semi-Lagrangially: u is constant along dx/dt = -v and v along
dx/dt = -u, so each level update locates foot points by a fixed-point
iteration on the interpolated speed and pulls values back with monotone cubic
(PCHIP) interpolation.  A predictor pass with frozen level-m speeds feeds a
trapezoidal corrector, which keeps the scheme second order in time.

The four-field system in two space dimensions

    w_{x1} + c1 w_{x2} + c2 w_{x3} = 0

(with (c1, c2) = (v1, v2) for the u-fields and (u1, u2) for the v-fields;
the speed attached to x2 is the first one, matching the derivation-order
convention validated by the determinant tests) uses the same predictor-
corrector with periodic bicubic spline interpolation.

Integration halts before characteristic crossing: non-monotone foot-point
ordering or a CFL violation aborts with the partial grid attached to the
exception.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy import ndimage

from . import jets
from .errors import (
    CFLViolationError,
    CharacteristicCrossingError,
)
from .exprspec import ExprSpec, eval_float

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


def _foot_points(x_nodes, step, h, level):
    """Solve x* = step(x*) by fixed point from step(x_nodes) (at most 10 sweeps)."""
    foot = step(x_nodes)
    tol = 1e-12 * h
    for _ in range(10):
        new = step(foot)
        delta = np.abs(new - foot).max()
        foot = new
        if delta <= tol:
            break
    else:
        raise CharacteristicCrossingError(
            level, "foot-point fixed-point iteration did not converge")
    if np.any(np.diff(foot) <= 0.0):
        raise CharacteristicCrossingError(level)
    return foot


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

    u0 = np.array([eval_float(init_u, {"x": float(x)}) for x in x_nodes])
    v0 = np.array([eval_float(init_v, {"x": float(x)}) for x in x_nodes])

    vmax = max(np.abs(u0).max(), np.abs(v0).max(), 1e-12)
    # 15% headroom so mild speed growth during the window does not trip the
    # per-level CFL recheck; at least two steps so drift stencils fit.
    dt0 = spec.cfl * h / (1.15 * vmax)
    n_steps = max(2, math.ceil(spec.t_end / dt0))
    dt = spec.t_end / n_steps

    u = np.empty((n_steps + 1, spec.nx))
    v = np.empty((n_steps + 1, spec.nx))
    u[0], v[0] = u0, v0
    t_levels = dt * np.arange(n_steps + 1)
    grid = CharGrid(t_levels, x_nodes, u, v, h, dt, spec.cfl, spec.bc)

    for m in range(n_steps):
        vmax_m = max(np.abs(u[m]).max(), np.abs(v[m]).max(), 1e-12)
        if dt > spec.cfl * h / vmax_m * (1 + 1e-12):
            err = CFLViolationError(m, dt, spec.cfl * h / vmax_m)
            err.partial = _truncate(grid, m + 1)
            raise err
        try:
            u[m + 1], v[m + 1] = _advance_level(
                x_nodes, u[m], v[m], dt, h, spec.bc, spec.x0, m)
        except CharacteristicCrossingError as err:
            err.partial = _truncate(grid, m + 1)
            raise
    return grid


def _truncate(grid: CharGrid, levels: int) -> CharGrid:
    return CharGrid(grid.t_levels[:levels], grid.x_nodes, grid.u[:levels],
                    grid.v[:levels], grid.h, grid.dt, grid.cfl, grid.bc)


def _advance_level(x_nodes, u_m, v_m, dt, h, bc, x0, level):
    interp_u = MonotoneCubic1D(x_nodes, u_m, bc, x0)
    interp_v = MonotoneCubic1D(x_nodes, v_m, bc, x0)
    # u is carried along dx/dt = -v and v along dx/dt = -u, so a foot point
    # of u solves x* = x_i + dt v(x*).

    # Predictor: frozen level-m speeds.
    foot_u = _foot_points(x_nodes, lambda f: x_nodes + dt * interp_v(f), h, level)
    foot_v = _foot_points(x_nodes, lambda f: x_nodes + dt * interp_u(f), h, level)
    u_star = interp_u(foot_u)
    v_star = interp_v(foot_v)

    # Corrector: x* = x_i + dt/2 (v_m(x*) + v_{m+1}(x_i)), with the predicted
    # level standing in for m+1.
    half = 0.5 * dt
    foot_u = _foot_points(x_nodes, lambda f: x_nodes + half * v_star + half * interp_v(f),
                          h, level)
    foot_v = _foot_points(x_nodes, lambda f: x_nodes + half * u_star + half * interp_u(f),
                          h, level)
    return interp_u(foot_u), interp_v(foot_v)


# -- conservation hierarchy ---------------------------------------------------------


def conservation_drift(grid: CharGrid, n: int) -> float:
    """Max interior normalized defect of d_t S_n = d_x (u v S_{n-1})."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if grid.nt < 3:
        raise ValueError("need at least 3 time levels")
    sn = sn_polynomial_grid(grid.u, grid.v, n)
    flux = grid.u * grid.v * sn_polynomial_grid(grid.u, grid.v, n - 1)

    dt_term = (sn[2:, :] - sn[:-2, :]) / (2 * grid.dt)
    if grid.bc == "periodic":
        dx_term = (np.roll(flux, -1, axis=1) - np.roll(flux, 1, axis=1))[1:-1] / (2 * grid.h)
    else:
        dx_term = (flux[1:-1, 2:] - flux[1:-1, :-2]) / (2 * grid.h)
        dt_term = dt_term[:, 1:-1]
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


def fd_derivatives_time_space(F: np.ndarray, dt: float, h: float):
    """Centered second-order derivative arrays of F(level, node) at interior nodes.

    Returns (value, Ft, Fx, Ftt, Ftx, Fxx), each shaped (nt-2, nx-2).
    """
    mid = F[1:-1, 1:-1]
    Ft = (F[2:, 1:-1] - F[:-2, 1:-1]) / (2 * dt)
    Ftt = (F[2:, 1:-1] - 2 * mid + F[:-2, 1:-1]) / dt**2
    Fx = (F[1:-1, 2:] - F[1:-1, :-2]) / (2 * h)
    Fxx = (F[1:-1, 2:] - 2 * mid + F[1:-1, :-2]) / h**2
    Ftx = (F[2:, 2:] - F[2:, :-2] - F[:-2, 2:] + F[:-2, :-2]) / (4 * dt * h)
    return mid, Ft, Fx, Ftt, Ftx, Fxx


def fd_jet_at(F: np.ndarray, dt: float, h: float, m: int, i: int) -> jets.Jet2:
    """Arity-2 jet of a stored periodic field at interior level m, node i."""
    nt, nx = F.shape
    if not 1 <= m <= nt - 2:
        raise ValueError("time level must be interior")
    ip, im = (i + 1) % nx, (i - 1) % nx
    ft = (F[m + 1, i] - F[m - 1, i]) / (2 * dt)
    fx = (F[m, ip] - F[m, im]) / (2 * h)
    ftt = (F[m + 1, i] - 2 * F[m, i] + F[m - 1, i]) / dt**2
    fxx = (F[m, ip] - 2 * F[m, i] + F[m, im]) / h**2
    ftx = (F[m + 1, ip] - F[m + 1, im] - F[m - 1, ip] + F[m - 1, im]) / (4 * dt * h)
    return jets.from_parts(F[m, i], [ft, fx], [[ftt, ftx], [ftx, fxx]])


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
        self.coeffs = ndimage.spline_filter(values, order=3, mode="grid-wrap")

    def __call__(self, idx2: np.ndarray, idx3: np.ndarray) -> np.ndarray:
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
    names = MULTI_FIELDS
    check_initial_data(init, names, ("x2", "x3"))
    x2 = TWO_PI * np.arange(spec.n2) / spec.n2
    x3 = TWO_PI * np.arange(spec.n3) / spec.n3
    h2 = float(x2[1] - x2[0])
    h3 = float(x3[1] - x3[0])
    X2, X3 = np.meshgrid(x2, x3, indexing="ij")

    f0 = {}
    for name in names:
        s = init[name]
        f0[name] = np.array([
            [eval_float(s, {"x2": float(a), "x3": float(b)}) for a, b in zip(r2, r3)]
            for r2, r3 in zip(X2, X3)
        ])

    vmax = max(np.abs(f0[n]).max() for n in names)
    dt0 = spec.cfl * min(h2, h3) / (1.15 * max(vmax, 1e-12))
    n_steps = max(2, math.ceil(spec.t_end / dt0))
    dt = spec.t_end / n_steps

    data = {n: np.empty((n_steps + 1, spec.n2, spec.n3)) for n in names}
    for n in names:
        data[n][0] = f0[n]
    grid = MultiCharGrid(dt * np.arange(n_steps + 1), x2, x3, data, h2, h3, dt, spec.cfl)

    idx2, idx3 = np.meshgrid(np.arange(spec.n2, dtype=float),
                             np.arange(spec.n3, dtype=float), indexing="ij")

    for m in range(n_steps):
        level = {n: data[n][m] for n in names}
        vmax_m = max(np.abs(level[n]).max() for n in names)
        if dt > spec.cfl * min(h2, h3) / max(vmax_m, 1e-12) * (1 + 1e-12):
            err = CFLViolationError(m, dt, spec.cfl * min(h2, h3) / vmax_m)
            err.partial = _truncate_multi(grid, m + 1)
            raise err
        try:
            nxt = _advance_multi(level, dt, h2, h3, idx2, idx3, m)
        except CharacteristicCrossingError as err:
            err.partial = _truncate_multi(grid, m + 1)
            raise
        for n in names:
            data[n][m + 1] = level[n] if n in freeze else nxt[n]
    return grid


def _truncate_multi(grid: MultiCharGrid, levels: int) -> MultiCharGrid:
    return replace(grid, x1_levels=grid.x1_levels[:levels],
                   fields={n: f[:levels] for n, f in grid.fields.items()})


def _advance_multi(level, dt, h2, h3, idx2, idx3, m):
    splines = {n: _PeriodicSpline2(level[n]) for n in level}
    # advecting speed pair -> the fields it carries
    carried = {("v1", "v2"): ("u1", "u2"), ("u1", "u2"): ("v1", "v2")}

    def feet(step):
        f2, f3 = idx2, idx3
        for _ in range(10):
            n2f, n3f = step(f2, f3)
            delta = max(np.abs(n2f - f2).max(), np.abs(n3f - f3).max())
            f2, f3 = n2f, n3f
            if delta <= 1e-12:
                break
        else:
            raise CharacteristicCrossingError(m, "2d foot-point iteration stalled")
        if np.any(np.diff(f2, axis=0) <= 0.0) or np.any(np.diff(f3, axis=1) <= 0.0):
            raise CharacteristicCrossingError(m)
        return f2, f3

    # Predictor with frozen speeds, then a corrector with trapezoidal speeds
    # from the predicted level.
    star = None
    for _ in range(2):
        new = {}
        for (c2, c3), names in carried.items():
            s2, s3 = splines[c2], splines[c3]
            if star is None:
                step = lambda a, b: (idx2 - (dt / h2) * s2(a, b), idx3 - (dt / h3) * s3(a, b))
            else:
                p2, p3 = star[c2], star[c3]
                step = lambda a, b: (idx2 - 0.5 * (dt / h2) * (s2(a, b) + p2),
                                     idx3 - 0.5 * (dt / h3) * (s3(a, b) + p3))
            f2, f3 = feet(step)
            for name in names:
                new[name] = splines[name](f2, f3)
        star = new
    return star


def fd_derivatives_multi(F: np.ndarray, dt: float, h2: float, h3: float):
    """Centered derivative arrays of F(level, i2, i3) at interior levels.

    Returns (value, grads, hessians): grads is a dict over axes {1, 2, 3},
    hessians over ordered pairs, all shaped (nt-2, n2, n3).
    """
    mid = F[1:-1]
    r2p = lambda a: np.roll(a, -1, axis=1)
    r2m = lambda a: np.roll(a, 1, axis=1)
    r3p = lambda a: np.roll(a, -1, axis=2)
    r3m = lambda a: np.roll(a, 1, axis=2)

    g = {
        1: (F[2:] - F[:-2]) / (2 * dt),
        2: (r2p(mid) - r2m(mid)) / (2 * h2),
        3: (r3p(mid) - r3m(mid)) / (2 * h3),
    }
    hess = {
        (1, 1): (F[2:] - 2 * mid + F[:-2]) / dt**2,
        (2, 2): (r2p(mid) - 2 * mid + r2m(mid)) / h2**2,
        (3, 3): (r3p(mid) - 2 * mid + r3m(mid)) / h3**2,
        (1, 2): (r2p(F[2:]) - r2m(F[2:]) - r2p(F[:-2]) + r2m(F[:-2])) / (4 * dt * h2),
        (1, 3): (r3p(F[2:]) - r3m(F[2:]) - r3p(F[:-2]) + r3m(F[:-2])) / (4 * dt * h3),
        (2, 3): (r3p(r2p(mid)) - r3m(r2p(mid)) - r3p(r2m(mid)) + r3m(r2m(mid)))
                / (4 * h2 * h3),
    }
    return mid, g, hess


# -- persistence -----------------------------------------------------------------------


def dump_char_grid(grid: CharGrid, csv_path) -> None:
    """CSV dump (one row per node) plus a JSON sidecar with the metadata."""
    csv_path = Path(csv_path)
    with csv_path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["level", "t", "x", "u", "v"])
        for m in range(grid.nt):
            t = grid.t_levels[m]
            for i in range(grid.nx):
                w.writerow([m, repr(float(t)), repr(float(grid.x_nodes[i])),
                            repr(float(grid.u[m, i])), repr(float(grid.v[m, i]))])
    meta = {
        "h": grid.h, "dt": grid.dt, "cfl": grid.cfl, "bc": grid.bc,
        "scheme": "semi-lagrangian-predictor-corrector",
        "levels": grid.nt, "nodes": grid.nx,
    }
    csv_path.with_suffix(".meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n")


def dump_multi_grid(grid: MultiCharGrid, csv_path) -> None:
    csv_path = Path(csv_path)
    names = MULTI_FIELDS
    with csv_path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["level", "x1", "x2", "x3", *names])
        for m in range(grid.nt):
            x1 = float(grid.x1_levels[m])
            for i in range(len(grid.x2_nodes)):
                for k in range(len(grid.x3_nodes)):
                    w.writerow([
                        m, repr(x1), repr(float(grid.x2_nodes[i])),
                        repr(float(grid.x3_nodes[k])),
                        *(repr(float(grid.fields[n][m, i, k])) for n in names),
                    ])
    meta = {
        "h2": grid.h2, "h3": grid.h3, "dt": grid.dt, "cfl": grid.cfl,
        "scheme": "semi-lagrangian-predictor-corrector",
        "levels": grid.nt, "n2": len(grid.x2_nodes), "n3": len(grid.x3_nodes),
    }
    csv_path.with_suffix(".meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n")
