"""Characteristic integration of the first-order hydrodynamic systems.

The two-field system u_t = v u_x, v_t = u v_x carries u along dx/dt = -v and
v along dx/dt = -u on a periodic grid; its levels are interpolated by a
monotone cubic.  The four-field system in two space dimensions

    w_{x1} + c1 w_{x2} + c2 w_{x3} = 0

(with (c1, c2) = (v1, v2) for the u-fields and (u1, u2) for the v-fields;
the speed attached to x2 is the first one, matching the derivation-order
convention validated by the determinant tests) takes x1 as the level axis and
periodic bicubic spline interpolation.

Both march through one semi-Lagrangian loop (``_march``): a time step with
15% headroom under the initial CFL bound, a CFL recheck at every level, and a
level update that locates foot points by fixed point (``_foot_points``) and
pulls values back along them.  A predictor pass with frozen level-m speeds
feeds a trapezoidal corrector, which keeps the scheme second order in time.
Each stage solves the feet of every field it carries as one stack of
independent problems, each stopping at its own sweep: (u, v) for the
two-field system, whose two levels share one interpolant, and the pairs
(u1, u2) and (v1, v2) for the four-field system.  The speeds at the nodes,
where both stages start, are evaluated once per level.  Each system supplies
only its nodes, initial data, interpolant and step formulas.  Non-monotone
foot points (a characteristic crossing) or a CFL violation abort with the
levels computed so far attached to the exception as ``partial``;
``_write_grid`` dumps either grid as CSV.

Every derivative of a stored grid, for ``fd_jet_at``, ``fd_derivatives_multi``
and ``varlag``'s slots, is ``fd_derivatives_time_space``: the one
central-difference 2-jet (``jets.central_differences``) over the grid's nodes
(``_stencil``), with each space axis wrapped or cut; the conservation drift
reads only its first differences (``jets._first_difference``).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
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
    s = np.ones_like(u)
    for m in range(1, n + 1):
        s = u**m + v * s
    return s


# -- grids ------------------------------------------------------------------------


@dataclass
class CharGrid:
    """Filled space-time grid for (u, v) on periodic nodes."""

    t_levels: np.ndarray
    x_nodes: np.ndarray
    u: np.ndarray  # (nt, nx)
    v: np.ndarray
    h: float
    dt: float
    cfl: float

    @property
    def nt(self) -> int:
        return len(self.t_levels)

    @property
    def nx(self) -> int:
        return len(self.x_nodes)


class MonotoneCubic1D:
    """Monotonicity-limited cubic Hermite interpolation on a uniform periodic
    grid whose period is ``len(x_nodes)`` node spacings.

    ``values`` stacks one row of node values per interpolant along its leading
    axis, (rows, n); a call evaluates each row of query points against the
    interpolant row that the caller names.

    Derivative estimates are fourth-order centered differences.  Where four
    consecutive slopes share a sign (a resolved monotone run, e.g. a steep
    front) the strict Fritsch-Carlson clamp d in [0, 3 min|slope|] applies;
    elsewhere (near extrema) the Dougherty-Edelman-Hyman interval clamp
    [3 min(s-, s+, 0), 3 max(s-, s+, 0)] is used, which is inert on smooth
    resolved data and therefore keeps the full interpolation order.
    """

    def __init__(self, x_nodes: np.ndarray, values: np.ndarray):
        self.x0 = float(x_nodes[0])
        self.h = float(x_nodes[1] - x_nodes[0])
        y = np.asarray(values, dtype=float)
        self.n = n = y.shape[-1]
        # Column j + 2 of the wrapped copy holds node j mod n, j = -2..n+1.
        w = np.concatenate([y[..., -2:], y, y[..., :2]], axis=-1)
        d = (8.0 * (w[..., 3:n + 3] - w[..., 1:n + 1])
             - (w[..., 4:] - w[..., :n])) / (12.0 * self.h)
        slopes = (w[..., 1:] - w[..., :-1]) / self.h  # column j + 2: S_j
        slope_plus = slopes[..., 2:n + 2]              # S_i
        slope_minus = slopes[..., 1:n + 1]             # S_{i-1}
        slope_mm = slopes[..., :n]                     # S_{i-2}
        slope_pp = slopes[..., 3:]                     # S_{i+1}

        strict = ((slope_mm * slope_minus > 0.0) & (slope_minus * slope_plus > 0.0)
                  & (slope_plus * slope_pp > 0.0))
        sigma = np.sign(slope_plus)
        lim = 3.0 * np.minimum(np.abs(slope_minus), np.abs(slope_plus))
        d_strict = np.where(np.sign(d) == sigma,
                            sigma * np.minimum(np.abs(d), lim), 0.0)
        lo = 3.0 * np.minimum(np.minimum(slope_minus, slope_plus), 0.0)
        hi = 3.0 * np.maximum(np.maximum(slope_minus, slope_plus), 0.0)
        d_relaxed = np.clip(d, lo, hi)
        d = np.where(strict, d_strict, d_relaxed)
        # Flat copies with one wrapped column per row, so node k + 1 of row r
        # sits at r (n + 1) + k + 1 whatever k is.
        self.y = np.concatenate([y, y[..., :1]], axis=-1).ravel()
        self.d = np.concatenate([d, d[..., :1]], axis=-1).ravel()

    def __call__(self, q: np.ndarray, rows) -> np.ndarray:
        """Row r of the query points ``q`` against interpolant row ``rows[r]``."""
        n = self.n
        s = np.mod((np.asarray(q, dtype=float) - self.x0) / self.h, n)
        k = np.minimum(s.astype(int), n - 1)
        xi = s - k
        xi2 = xi * xi
        xi3 = xi2 * xi
        h10 = xi3 - 2.0 * xi2 + xi
        h01 = -2.0 * xi3 + 3.0 * xi2
        h11 = xi3 - xi2
        k = k + (n + 1) * np.asarray(rows)[:, None]
        y, yp, d, dp = self.y[k], self.y[k + 1], self.d[k], self.d[k + 1]
        # Written as y_k + (y_{k+1} - y_k) h01 + ... so constants interpolate
        # exactly (h00 + h01 = 1 holds algebraically, not in floats).
        return y + (yp - y) * h01 + self.h * (d * h10 + dp * h11)


def _foot_points(step, start, tol, level, first=None):
    """Solve foot = step(foot) by fixed point from ``start`` for a stack of
    independent foot problems (at most 10 sweeps each).

    ``start`` holds one foot per problem along its leading axis, and a foot
    holds one coordinate array per space axis, each shaped like the nodes.
    ``step(feet, rows)`` maps the feet of the problems numbered ``rows`` to
    their next iterates; ``first``, if given, is ``step`` of all of ``start``.
    A problem stops at the first sweep that moves its foot by no more than
    ``tol`` and keeps that foot while the others go on.  The problems are
    checked in order, each for convergence and then for feet that fail to
    increase strictly along their own axis, which means that characteristics
    crossed.
    """
    foot = np.array(start, dtype=float)
    rows = np.arange(len(foot))
    for sweep in range(10):
        old = foot[rows]
        new = step(old, rows) if sweep or first is None else first
        foot[rows] = new
        delta = np.abs(new - old).reshape(len(rows), -1).max(axis=1)
        rows = rows[~(delta <= tol)]
        if not rows.size:
            break
    for r, f in enumerate(foot):
        if r in rows:
            raise CharacteristicCrossingError(
                level, "foot-point fixed-point iteration did not converge")
        if any(np.any(np.diff(c, axis=k) <= 0.0) for k, c in enumerate(f)):
            raise CharacteristicCrossingError(level)
    return foot


def _march(init: dict, h: float, t_end: float, cfl: float, advance, build):
    """The level loop both systems share, from level 0 to ``t_end`` at
    Courant number at most ``cfl``.

    ``init`` maps each field to its level-0 array and ``h`` is the smallest
    node spacing.  ``advance(level, dt, m)`` maps the fields at level m to
    those at m + 1, and ``build(t_levels, dt, fields)`` wraps arrays into a
    grid.  Every level rechecks the CFL bound; an abort attaches the grid of
    the levels 0..m computed so far to the exception as ``partial``.
    """
    vmax = max(*(np.abs(f).max() for f in init.values()), 1e-12)
    # 15% headroom so mild speed growth during the window does not trip the
    # per-level CFL recheck; at least two steps so drift stencils fit.
    dt0 = cfl * h / (1.15 * vmax)
    steps = t_end / dt0 if dt0 > 0 else math.inf
    if not math.isfinite(steps):  # as for a grid too large for memory: a runtime failure
        raise ValueError(f"t_end {t_end} takes {steps} steps of at most {dt0}")
    n_steps = max(2, math.ceil(steps))
    dt = t_end / n_steps
    t_levels = dt * np.arange(n_steps + 1)
    data = {}
    for name, f in init.items():
        data[name] = np.empty((n_steps + 1, *f.shape))
        data[name][0] = f

    for m in range(n_steps):
        level = {n: a[m] for n, a in data.items()}
        allowed = cfl * h / max(*(np.abs(f).max() for f in level.values()), 1e-12)
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


# The Courant number of the two-field march.
CHAR_CFL = 0.5


def integrate_characteristics(init_u: ExprSpec, init_v: ExprSpec, nx: int,
                              t_end: float) -> CharGrid:
    """Fill a CharGrid of ``nx`` periodic nodes 2 pi j / nx up to ``t_end``
    from smooth initial data given as expressions of x."""
    check_initial_data({"u": init_u, "v": init_v}, ("u", "v"), ("x",))
    x_nodes = TWO_PI * np.arange(nx) / nx
    h = float(x_nodes[1] - x_nodes[0])
    init = {name: at_points(float_fn(s, ("x",)), x_nodes)
            for name, s in (("u", init_u), ("v", init_v))}

    # Row 0 is u and row 1 is v.  u is carried along dx/dt = -v and v along
    # dx/dt = -u, so a foot point of row r solves x* = x_i + dt c(x*) with c
    # the row speed[r].
    fields, speed = np.array([0, 1]), np.array([1, 0])
    nodes = np.stack([x_nodes, x_nodes])

    def advance(level, dt, m):
        interp = MonotoneCubic1D(x_nodes, np.stack([level["u"], level["v"]]))
        node_speeds = interp(nodes, speed)

        def at_feet(base, weight):
            """Both fields at the feet of x* = base + weight c(x*)."""
            foot = _foot_points(
                lambda f, rows: (base[rows] + weight * interp(f[:, 0], speed[rows]))[:, None],
                (base + weight * node_speeds)[:, None], 1e-12 * h, m)
            return interp(foot[:, 0], fields)

        # Predictor: frozen level-m speeds.  Corrector:
        # x* = x_i + dt/2 (c_m(x*) + c_{m+1}(x_i)), with the predicted level
        # standing in for m+1.
        half = 0.5 * dt
        star = at_feet(nodes, dt)
        new = at_feet(nodes + half * star[speed], half)
        return {"u": new[0], "v": new[1]}

    return _march(init, h, t_end, CHAR_CFL, advance, lambda t, dt, f: CharGrid(
        t, x_nodes, f["u"], f["v"], h, dt, CHAR_CFL))


# -- conservation hierarchy ---------------------------------------------------------


def conservation_drift(grid: CharGrid, n: int) -> float:
    """Max interior normalized defect of d_t S_n = d_x (u v S_{n-1}).

    Both sides are computed from u and v scaled by the power of two that
    brings max(|u|, |v|) into [1, 2), which scales every term of degree n by
    one power of two and leaves the normalized defect as it is, but keeps
    S_n, its flux and their difference quotients finite whatever the
    amplitude of u and v.
    """
    if grid.nt < 3:
        raise ValueError("need at least 3 time levels")
    e = int(np.frexp(max(np.abs(grid.u).max(), np.abs(grid.v).max()))[1]) - 1
    us, vs = np.ldexp(grid.u, -e), np.ldexp(grid.v, -e)
    sn = sn_polynomial_grid(us, vs, n)
    flux = np.ldexp(us * vs * sn_polynomial_grid(us, vs, n - 1), e)
    dt_term = jets._first_difference(_stencil(sn, True), (1, 0), grid.dt)
    dx_term = jets._first_difference(_stencil(flux, True), (0, 1), grid.h)
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


def _stencil(F: np.ndarray, wrap: bool):
    """``at(shift)``: F(level, space...) at every node the stencil keeps (the
    interior levels, and each space axis whole if it wraps or cut to its
    interior nodes) moved by ``shift`` nodes along the axes."""
    if wrap:
        F = np.pad(F, [(0, 0)] + [(1, 1)] * (F.ndim - 1), mode="wrap")
    return lambda shift: F[tuple(slice(1 + s, n - 1 + s) for s, n in zip(shift, F.shape))]


def fd_derivatives_time_space(F: np.ndarray, dt: float, *h: float, wrap: bool):
    """:func:`jets.central_differences` of F(level, space...) at its interior
    levels, ``dt`` apart, with one spacing in ``h`` per space axis, each wrapped
    (``wrap``, a periodic grid) or cut to its interior nodes; axis 0 is the level."""
    return jets.central_differences(_stencil(F, wrap), (dt, *h))


def fd_jet_at(F: np.ndarray, dt: float, h: float, m: int, i) -> jets.Jet2:
    """Arity-2 jet of a stored periodic field at interior level m: at node i
    (an int), or over the batch of the nodes of an index array i."""
    if not 1 <= m <= F.shape[0] - 2:
        raise ValueError("time level must be interior")
    value, grad, hess = fd_derivatives_time_space(F[m - 1:m + 2], dt, h, wrap=True)
    return jets.from_parts(value[0, i], grad[0, i], hess[0, i])


# -- multi-field system ----------------------------------------------------------------


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


@functools.cache
def _nd_image():
    """scipy's compiled ``scipy.ndimage._nd_image`` extension, loaded alone.

    Importing ``scipy.ndimage`` runs its whole Python layer (about 27 MB of
    resident memory and 0.3 s) for the two functions the spline calls, so
    the file is found through scipy's package path and loaded under its own
    name, which runs neither ``scipy``'s nor ``scipy.ndimage``'s
    ``__init__``.  A later ``import scipy.ndimage`` reuses this module.
    """
    name = "scipy.ndimage._nd_image"
    (package,) = importlib.util.find_spec("scipy").submodule_search_locations
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = Path(package, "ndimage", "_nd_image" + suffix)
        if path.is_file():
            loader = importlib.machinery.ExtensionFileLoader(name, str(path))
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(name, path, loader=loader))
            loader.exec_module(module)
            return module
    raise ImportError(f"no compiled {name} under {package}", name=name)


# The extension's boundary code for mode="grid-wrap": a period of n nodes.
_GRID_WRAP = 5


class _PeriodicSpline2:
    """Periodic bicubic interpolation on the unit-index grid.

    The periodic cubic B-spline of scipy's ``spline_filter`` and
    ``map_coordinates`` (order 3, mode "grid-wrap", no prefilter at
    evaluation), made by the extension calls those wrappers make, so every
    coefficient and value has their bits.
    """

    def __init__(self, values: np.ndarray):
        # One zeroed output, filtered along each axis in turn.
        self.coeffs = np.zeros(values.shape)
        for axis in range(values.ndim):
            _nd_image().spline_filter1d(values, 3, axis, self.coeffs, _GRID_WRAP)
            values = self.coeffs

    def __call__(self, idx2: np.ndarray, idx3: np.ndarray) -> np.ndarray:
        coords = np.asarray([idx2, idx3])
        out = np.zeros(coords.shape[1:])
        _nd_image().geometric_transform(self.coeffs, None, coords, None, None, out,
                                        3, _GRID_WRAP, 0.0, 0, None, None)
        return out


# The Courant number of the four-field march.
MULTI_CFL = 0.4


def integrate_multifield(init: dict, n2: int, n3: int, t_end: float) -> MultiCharGrid:
    """Integrate the four-field system up to ``t_end`` on ``n2`` by ``n3``
    periodic nodes, 2 pi j / n along each axis.

    ``init`` maps each of "u1", "u2", "v1", "v2" to an ExprSpec over (x2, x3).
    """
    check_initial_data(init, MULTI_FIELDS, ("x2", "x3"))
    x2 = TWO_PI * np.arange(n2) / n2
    x3 = TWO_PI * np.arange(n3) / n3
    h2 = float(x2[1] - x2[0])
    h3 = float(x3[1] - x3[0])
    X2, X3 = np.meshgrid(x2, x3, indexing="ij")
    f0 = {name: at_points(float_fn(init[name], ("x2", "x3")), X2, X3) for name in MULTI_FIELDS}
    # Feet are in index units: node (i, k) sits at (i, k).
    idx2, idx3 = np.meshgrid(np.arange(n2, dtype=float),
                             np.arange(n3, dtype=float), indexing="ij")
    nodes = np.stack([idx2, idx3])
    # Row 0 holds the feet of (u1, u2), carried by the speeds (v1, v2) along
    # (x2, x3); row 1 those of (v1, v2), carried by (u1, u2).
    carried = (("u1", "u2"), ("v1", "v2"))
    speeds = (("v1", "v2"), ("u1", "u2"))
    both = np.arange(2)

    def advance(level, dt, m):
        splines = {n: _PeriodicSpline2(f) for n, f in level.items()}

        def speeds_at(feet, rows):
            return np.array([[splines[c](*f) for c in speeds[r]] for f, r in zip(feet, rows)])

        node_speeds = speeds_at((nodes, nodes), both)

        def at_feet(step):
            """The carried fields at the feet of foot = step(speeds at foot)."""
            foot = _foot_points(lambda f, rows: step(speeds_at(f, rows), rows),
                                (nodes, nodes), 1e-12, m, step(node_speeds, both))
            return {name: splines[name](*foot[r]) for r in both for name in carried[r]}

        # Predictor with frozen speeds, then a corrector with trapezoidal
        # speeds from the predicted level.
        full = np.array([dt / h2, dt / h3])[:, None, None]
        half = np.array([0.5 * (dt / h2), 0.5 * (dt / h3)])[:, None, None]
        star = at_feet(lambda c, rows: nodes - full * c)
        p = np.array([[star[c] for c in pair] for pair in speeds])
        return at_feet(lambda c, rows: nodes - half * (c + p[rows]))

    return _march(f0, min(h2, h3), t_end, MULTI_CFL, advance, lambda t, dt, f: MultiCharGrid(
        t, x2, x3, f, h2, h3, dt, MULTI_CFL))


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
                {"h": grid.h, "dt": grid.dt, "cfl": grid.cfl, "bc": "periodic",
                 "nodes": grid.nx})


def dump_multi_grid(grid: MultiCharGrid, csv_path) -> None:
    """CSV dump (one row per (x2, x3) node) plus a JSON sidecar with the metadata."""
    _write_grid(csv_path, ("x1", "x2", "x3"), grid.x1_levels,
                np.meshgrid(grid.x2_nodes, grid.x3_nodes, indexing="ij"),
                {n: grid.fields[n] for n in MULTI_FIELDS},
                {"h2": grid.h2, "h3": grid.h3, "dt": grid.dt, "cfl": grid.cfl,
                 "n2": len(grid.x2_nodes), "n3": len(grid.x3_nodes)})
