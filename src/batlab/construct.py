"""Constructors for the exact solution families.

Every constructor evaluates its solution at one point with one solve, and
returns jets (``Jet2``) whose gradients and Hessians come from implicit /
inverse-function differentiation of the defining relations, never from finite
differences:

* the scalar families (:func:`solve_implicit_fg`, :func:`holo_sum`,
  :func:`implicit_3d`) return a :class:`FieldHandle`, an immutable
  ``point -> Jet2`` evaluator;
* the hodograph pair is solved by :class:`HodographSolver`, whose
  :meth:`~HodographSolver.fields` returns both fields ``(phi, phibar)`` from
  one Newton solve.

Every implicit solve, here and in :mod:`leznov`, iterates through one
best-iterate Newton loop, :func:`_newton`; each solve supplies its residual,
its step and its tolerance, and the scalar one falls back to bisection on a
configured bracket.

The covariance and Born-Infeld operations act on jets that are already
solved (:func:`pull_back`, :func:`reparametrization`, :func:`born_infeld_jet`),
so a check that reads several of them costs no further solve.  Evaluations
are independent (Newton state is per call), so everything here is safe to
share across threads.

Coordinate orders match the residual operators: ``(x1, x2, xb1, xb2)`` for the
four-variable equation, ``(t, x)`` for the two-field equation and Born-Infeld,
``(t, x, y)`` for the three-coordinate Euclidean equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import jets
from .errors import (
    DegenerateRootError,
    NewtonConvergenceError,
    PoleError,
    SingularMatrixError,
)
from .exprspec import Bin, ExprSpec, Var, eval_float, eval_jet, float_fn, partial
from .residuals import ResidualSample, _from_terms

_DEGENERATE_REL = 1e-10


@dataclass(frozen=True)
class ImplicitSolveConfig:
    """Newton controls for implicit solves.

    ``seed`` is the initial guess (a pair for two-dimensional solves);
    ``bracket`` enables bisection fallback for scalar constraints.
    """

    newton_tol: float = 1e-12
    max_iter: int = 50
    seed: float | tuple[float, float] = 1.0
    bracket: tuple[float, float] | None = None

    def __post_init__(self):
        if self.newton_tol <= 0:
            raise ValueError("newton_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class LinearMap2:
    """t' = a t + b x, x' = c t + d x (must be invertible)."""

    a: float
    b: float
    c: float
    d: float

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]])

    def inverse(self) -> np.ndarray:
        """Matrix of the inverse map; raises ValueError if there is none."""
        det = self.det
        if abs(det) <= 1e-14 * max(1.0, abs(self.a * self.d), abs(self.b * self.c)):
            raise ValueError("linear map is not invertible")
        return np.array([[self.d, -self.b], [-self.c, self.a]]) / det


class FieldHandle:
    """Contract: point -> Jet2 for a scalar field."""

    def __init__(self, eval_fn: Callable):
        self._eval = eval_fn

    def __call__(self, point: Sequence[float], seed=None) -> jets.Jet2:
        return self._eval(np.asarray(point, dtype=float), seed)


# -- Newton: one best-iterate loop for every implicit solve --------------------------


def _newton(residual, step, x, max_iter: int, tol: float):
    """Best-iterate Newton from ``x``.  ``residual(x)`` returns ``(size, r)``;
    ``step(x, r)`` returns the next iterate, or None to stop (non-finite
    derivative, no progress), or raises SingularMatrixError to stop.  The loop
    also stops on an exact zero, after ``max_iter`` steps, and when ``step``
    returns an iterate it has already visited.  Returns the iterate of least
    size if within ``tol``; else raises the stopping error, or
    NewtonConvergenceError.

    ``residual`` and ``step`` must be pure functions of the iterate.  A
    repeated iterate then starts a cycle that would run to ``max_iter``
    without changing the best iterate (its test is strict), so stopping there
    returns, or raises, the same as running on."""
    best, best_size, stop = x, math.inf, None
    visited = set()
    for i in range(max_iter + 1):
        size, r = residual(x)
        if size < best_size:
            best, best_size = x, size
        if size == 0.0 or i == max_iter:
            break
        visited.add(_iterate_key(x))
        try:
            x = step(x, r)
        except SingularMatrixError as err:
            stop = err
            break
        if x is None or _iterate_key(x) in visited:
            break
    if best_size <= tol:
        return best
    raise stop or NewtonConvergenceError(
        f"Newton did not converge (best residual {best_size!r})")


def _iterate_key(x) -> bytes:
    """The exact bits of an iterate (a float, a tuple of floats or an array),
    so that -0.0 and 0.0 are different iterates."""
    return np.asarray(x, dtype=float).tobytes()


def _scalar_seed(seed) -> float:
    try:
        return float(seed)
    except TypeError:  # a seed pair
        raise ValueError("scalar solves need a scalar seed") from None


def _newton_scalar(fun, dfun, cfg: ImplicitSolveConfig, seed=None) -> float:
    """Newton iteration, polished past the configured tolerance toward machine
    precision so downstream finite-difference probes are not noise limited;
    bisection on ``cfg.bracket`` when it does not converge."""
    def residual(x):
        f = fun(x)
        return abs(f), f

    def step(x, f):
        d = dfun(x)
        if d == 0.0 or not math.isfinite(d):
            return None
        nxt = x - f / d
        return nxt if math.isfinite(nxt) and nxt != x else None

    x = _scalar_seed(cfg.seed if seed is None else seed)
    try:
        return _newton(residual, step, x, cfg.max_iter, cfg.newton_tol)
    except NewtonConvergenceError:
        if cfg.bracket is None:
            raise
        return _bisect(fun, cfg.bracket, cfg.newton_tol)


def _bisect(fun, bracket, tol) -> float:
    lo, hi = bracket
    flo, fhi = fun(lo), fun(hi)
    if abs(flo) <= tol:
        return lo
    if abs(fhi) <= tol:
        return hi
    if flo * fhi > 0:
        raise NewtonConvergenceError("bisection bracket does not straddle a root")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fun(mid)
        if abs(fm) <= tol or hi - lo <= 1e-15 * max(1.0, abs(mid)):
            return mid
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    raise NewtonConvergenceError("bisection stalled")


def _require_vars(spec: ExprSpec, allowed: set[str], what: str) -> None:
    extra = set(spec.vars) - allowed
    if extra:
        raise ValueError(f"{what} may only use variables {sorted(allowed)}, got {sorted(extra)}")


# -- implicit solution of the four-variable equation -------------------------------


def solve_implicit_fg(F: ExprSpec, G: ExprSpec, cfg: ImplicitSolveConfig) -> FieldHandle:
    """Field defined by F(phi; x1, x2) = G(phi; xb1, xb2).

    Jets follow from implicit differentiation of W = F - G = 0 through second
    order.  Points where dW/dphi (numerically) vanishes raise
    :class:`DegenerateRootError`.
    """
    _require_vars(F, {"phi", "x1", "x2"}, "F")
    _require_vars(G, {"phi", "xb1", "xb2"}, "G")
    _scalar_seed(cfg.seed)
    dF = partial(F, "phi") if "phi" in F.vars else None
    dG = partial(G, "phi") if "phi" in G.vars else None

    def evaluate(point: np.ndarray, seed=None) -> jets.Jet2:
        x1, x2, xb1, xb2 = point
        fa = {"x1": x1, "x2": x2}
        ga = {"xb1": xb1, "xb2": xb2}

        def w(p):
            return eval_float(F, {**fa, "phi": p}) - eval_float(G, {**ga, "phi": p})

        def dw(p):
            out = 0.0
            if dF is not None:
                out += eval_float(dF, {**fa, "phi": p})
            if dG is not None:
                out -= eval_float(dG, {**ga, "phi": p})
            return out

        phi = _newton_scalar(w, dw, cfg, seed)

        # Full second-order data of F in (phi, x1, x2) and G in (phi, xb1, xb2).
        fj = eval_jet(F, {
            "phi": jets.variable(0, phi, 3),
            "x1": jets.variable(1, x1, 3),
            "x2": jets.variable(2, x2, 3),
        }, k=3)
        gj = eval_jet(G, {
            "phi": jets.variable(0, phi, 3),
            "xb1": jets.variable(1, xb1, 3),
            "xb2": jets.variable(2, xb2, 3),
        }, k=3)
        return _implicit_jet_from_split(phi, fj, gj)

    return FieldHandle(evaluate)


def _implicit_jet_from_split(phi: float, fj: jets.Jet2, gj: jets.Jet2) -> jets.Jet2:
    """Assemble the arity-4 jet of phi from second-order data of F and G.

    ``fj`` is F over (phi, x1, x2); ``gj`` is G over (phi, xb1, xb2).
    """
    d = fj.grad[0] - gj.grad[0]  # dW/dphi
    scale = max(1.0, abs(fj.grad[0]), abs(gj.grad[0]))
    if abs(d) <= _DEGENERATE_REL * scale:
        raise DegenerateRootError(f"dW/dphi = {d!r} below threshold")

    w_a = np.array([fj.grad[1], fj.grad[2], -gj.grad[1], -gj.grad[2]])
    w_pa = np.array([fj.hess[0, 1], fj.hess[0, 2], -gj.hess[0, 1], -gj.hess[0, 2]])
    w_pp = fj.hess[0, 0] - gj.hess[0, 0]
    w_ab = np.zeros((4, 4))
    w_ab[:2, :2] = fj.hess[1:, 1:]
    w_ab[2:, 2:] = -gj.hess[1:, 1:]

    grad = -w_a / d
    hess = -(w_ab + np.outer(w_pa, grad) + np.outer(grad, w_pa)
             + w_pp * np.outer(grad, grad)) / d
    return jets.from_parts(phi, grad, hess)


def holo_sum(f: ExprSpec, g: ExprSpec) -> FieldHandle:
    """phi = f(x1, x2) + g(xb1, xb2); cross-block second derivatives vanish."""
    _require_vars(f, {"x1", "x2"}, "f")
    _require_vars(g, {"xb1", "xb2"}, "g")

    def evaluate(point: np.ndarray, seed=None) -> jets.Jet2:
        args = {
            "x1": jets.variable(0, point[0], 4),
            "x2": jets.variable(1, point[1], 4),
            "xb1": jets.variable(2, point[2], 4),
            "xb2": jets.variable(3, point[3], 4),
        }
        return eval_jet(f, args, k=4) + eval_jet(g, args, k=4)

    return FieldHandle(evaluate)


# -- hodograph parametric solution --------------------------------------------------


def seed_pair(seed) -> tuple[float, float]:
    """A hodograph seed as (u, v); ValueError if it is not a pair of numbers."""
    try:
        u, v = map(float, seed)
    except (TypeError, ValueError):  # not a sequence, or not of two numbers
        raise ValueError("hodograph solves need a (u, v) seed pair") from None
    return u, v


def _fold_det(f2: float, g2: float, u: float, v: float) -> float:
    """det J = f''g''(u - v) of the hodograph map; SingularMatrixError at a fold."""
    det = f2 * g2 * (u - v)
    scale = abs(f2 * g2 * v) + abs(g2 * f2 * u)
    if abs(det) <= _DEGENERATE_REL * max(scale, 1e-30):
        raise SingularMatrixError("hodograph fold: J = f''g''(u - v) ~ 0")
    return det


class HodographSolver:
    """Inversion of the parametric solution

        t = f'(u) + g'(v),   x = f(u) - u f'(u) + g(v) - v g'(v)

    for (u, v) at a point (t, x).  Every symbolic partial it needs is built
    once, here, and so are the positional evaluators
    (:func:`~batlab.exprspec.float_fn`) its Newton loop calls.
    """

    def __init__(self, f: ExprSpec, g: ExprSpec, cfg: ImplicitSolveConfig):
        _require_vars(f, {"u"}, "f")
        _require_vars(g, {"v"}, "g")
        self.cfg = cfg
        d1f = partial(f, "u")
        d2f = partial(d1f, "u")
        d3f = partial(d2f, "u")
        d1g = partial(g, "v")
        d2g = partial(d1g, "v")
        d3g = partial(d2g, "v")
        t_ast = Bin("+", d1f.ast, d1g.ast)
        x_ast = Bin(
            "+",
            Bin("-", f.ast, Bin("*", Var("u"), d1f.ast)),
            Bin("-", g.ast, Bin("*", Var("v"), d1g.ast)),
        )
        self.t_expr = ExprSpec(t_ast, ("u", "v"))
        self.x_expr = ExprSpec(x_ast, ("u", "v"))
        self._identity_terms = [(partial(self.x_expr, var), partial(self.t_expr, var), var)
                                for var in ("v", "u")]
        # f and its first three derivatives at u; g and its at v
        self._fu = [float_fn(s) for s in (f, d1f, d2f, d3f)]
        self._gv = [float_fn(s) for s in (g, d1g, d2g, d3g)]

    def forward(self, u: float, v: float) -> tuple[float, float]:
        """(t, x) at (u, v), evaluated from the parametric formulas as written."""
        args = {"u": u, "v": v}
        return eval_float(self.t_expr, args), eval_float(self.x_expr, args)

    def identity_residuals(self, u: float, v: float) -> tuple[ResidualSample, ResidualSample]:
        """x_v + v t_v and x_u + u t_u evaluated through symbolic partials."""
        args = {"u": u, "v": v}
        return tuple(_from_terms((eval_float(x_d, args), args[var] * eval_float(t_d, args)))
                     for x_d, t_d, var in self._identity_terms)

    def solve(self, t: float, x: float, seed=None) -> tuple[float, float]:
        (f, d1f, d2f, _), (g, d1g, d2g, _) = self._fu, self._gv

        def residual(uv):
            # Newton's own form of the forward map: fewer evaluations than
            # ``forward``, summed in a different order.
            u, v = uv
            fu, f1 = f(u), d1f(u)
            gv, g1 = g(v), d1g(v)
            r1, r2 = f1 + g1 - t, fu - u * f1 + gv - v * g1 - x
            return max(abs(r1), abs(r2)), (r1, r2)

        def step(uv, r):
            u, v = uv
            r1, r2 = r
            f2, g2 = d2f(u), d2g(v)
            # J = [[f'', g''], [-u f'', -v g'']]
            det = _fold_det(f2, g2, u, v)
            du = (-v * g2 * r1 - g2 * r2) / det
            dv = (u * f2 * r1 + f2 * r2) / det
            un, vn = u - du, v - dv
            if not (math.isfinite(un) and math.isfinite(vn)):
                raise NewtonConvergenceError("hodograph Newton diverged")
            return None if un == u and vn == v else (un, vn)

        uv = seed_pair(self.cfg.seed if seed is None else seed)
        tol = self.cfg.newton_tol * max(1.0, abs(t), abs(x))
        return _newton(residual, step, uv, self.cfg.max_iter, tol)

    def jets_uv(self, t: float, x: float, seed=None):
        """(u, v) and their first/second derivative arrays with respect to (t, x)."""
        u, v = self.solve(t, x, seed)
        (_, _, d2f, d3f), (_, _, d2g, d3g) = self._fu, self._gv
        f2, f3 = d2f(u), d3f(u)
        g2, g3 = d2g(v), d3g(v)
        jac = np.array([[f2, g2], [-u * f2, -v * g2]])
        _fold_det(f2, g2, u, v)
        first = np.linalg.solve(jac, np.eye(2))  # rows: derivative eqn, cols (t, x)
        du = first[0]  # (u_t, u_x)
        dv = first[1]
        # Second derivatives: J (u_ab, v_ab)^T = -(second-order forward terms);
        # t and x have no mixed (u, v) term.
        x_uu, x_vv = -f2 - u * f3, -g2 - v * g3
        hu = np.zeros((2, 2))
        hv = np.zeros((2, 2))
        for a in range(2):
            for b in range(a, 2):
                quad_t = f3 * du[a] * du[b] + g3 * dv[a] * dv[b]
                quad_x = x_uu * du[a] * du[b] + x_vv * dv[a] * dv[b]
                sec = np.linalg.solve(jac, -np.array([quad_t, quad_x]))
                hu[a, b] = hu[b, a] = sec[0]
                hv[a, b] = hv[b, a] = sec[1]
        return u, v, du, dv, hu, hv

    def fields(self, t: float, x: float, seed=None) -> tuple[jets.Jet2, jets.Jet2]:
        """(phi, phibar) = (v, u) as jets over (t, x), from one solve."""
        u, v, du, dv, hu, hv = self.jets_uv(t, x, seed)
        return jets.from_parts(v, dv, hv), jets.from_parts(u, du, hu)


# -- covariance machinery -----------------------------------------------------------


def moebius_transform(uv: tuple[float, float], m: LinearMap2) -> tuple[float, float]:
    """Speed transform induced by (t, x) -> (a t + b x, c t + d x):

    u' = (d u - c) / (a - b u), likewise for v.
    """
    out = []
    for s in uv:
        den = m.a - m.b * s
        if abs(den) <= 1e-13 * max(1.0, abs(m.a), abs(m.b * s)):
            raise PoleError(f"moebius pole: a - b*u = {den!r}")
        out.append((m.d * s - m.c) / den)
    return out[0], out[1]


def pull_back(jet: jets.Jet2, minv: np.ndarray) -> jets.Jet2:
    """A field's jet at ``minv @ q``, re-expressed as a jet over ``q`` (chain
    rule through the linear map ``minv``, e.g. :meth:`LinearMap2.inverse`)."""
    return jets.from_parts(jet.value, minv.T @ jet.grad, minv.T @ jet.hess @ minv)


def reparametrization(h: ExprSpec) -> Callable[[jets.Jet2], jets.Jet2]:
    """The map phi -> h(phi) on jets, for a single-variable expression h."""
    if len(h.vars) != 1:
        raise ValueError("reparametrization must use exactly one variable")
    var = h.vars[0]
    return lambda jet: eval_jet(h, {var: jet})


# -- Born-Infeld gradient field -------------------------------------------------------


def _born_infeld_uv_jets(u_val: float, v_val: float, lam: float):
    """(phi_t, phi_x) as arity-2 jets over (u, v)."""
    if u_val <= 0.0 or v_val <= 0.0:
        raise DegenerateRootError(f"born-infeld needs u, v > 0, got {u_val, v_val}")
    su, sv = math.sqrt(u_val), math.sqrt(v_val)
    if abs(su - sv) <= 1e-12 * max(su, sv):
        raise SingularMatrixError("born-infeld: sqrt(u) = sqrt(v)")
    uj = jets.variable(0, u_val, 2)
    vj = jets.variable(1, v_val, 2)
    denom = jets.sqrt(uj) - jets.sqrt(vj)
    phi_x = math.sqrt(lam) / denom
    phi_t = jets.sqrt(uj * vj * lam) / denom
    return phi_t, phi_x


def born_infeld_jet(uj: jets.Jet2, vj: jets.Jet2, lam: float) -> jets.Jet2:
    """Gradient-level field from the (u, v) jets over (t, x): a jet with
    grad = (phi_t, phi_x) and the corresponding second derivatives; the scalar
    value is 0 by convention (phi is defined only up to a constant and is never
    materialized).  ``lam`` must be positive.
    """
    pt, px = _born_infeld_uv_jets(uj.value, vj.value, lam)
    # Chain through (u, v)(t, x); cross derivative symmetrized, the two
    # estimates agree when (u, v) solve the hydrodynamic pair.
    d_pt = pt.grad[0] * uj.grad + pt.grad[1] * vj.grad  # (d_t phi_t, d_x phi_t)
    d_px = px.grad[0] * uj.grad + px.grad[1] * vj.grad
    cross = 0.5 * (d_pt[1] + d_px[0])
    hess = np.array([[d_pt[0], cross], [cross, d_px[1]]])
    return jets.from_parts(0.0, np.array([pt.value, px.value]), hess)


def born_infeld_cross_residual(uj: jets.Jet2, vj: jets.Jet2, lam: float) -> ResidualSample:
    """Integrability check d_t(phi_x) - d_x(phi_t) for the substitution."""
    pt, px = _born_infeld_uv_jets(uj.value, vj.value, lam)
    d_t_phix = px.grad[0] * uj.grad[0] + px.grad[1] * vj.grad[0]
    d_x_phit = pt.grad[0] * uj.grad[1] + pt.grad[1] * vj.grad[1]
    return _from_terms((d_t_phix, -d_x_phit))


# -- implicit solutions of the three-coordinate equation -----------------------------


def implicit_3d(
    F: ExprSpec, G: ExprSpec, K: ExprSpec, const_c: float, cfg: ImplicitSolveConfig
) -> FieldHandle:
    """Field defined by t F(phi) + x G(phi) + y K(phi) = const_c."""
    for spec, name in ((F, "F"), (G, "G"), (K, "K")):
        _require_vars(spec, {"phi"}, name)
    _scalar_seed(cfg.seed)
    d1 = [partial(s, "phi") if "phi" in s.vars else None for s in (F, G, K)]
    d2 = [partial(d, "phi") if d is not None else None for d in d1]

    def evaluate(point: np.ndarray, seed=None) -> jets.Jet2:
        coeffs = point  # (t, x, y)

        def vals(specs, p):
            return [eval_float(s, {"phi": p}) if s is not None else 0.0 for s in specs]

        def w(p):
            return float(np.dot(coeffs, vals((F, G, K), p))) - const_c

        def dw(p):
            return float(np.dot(coeffs, vals(d1, p)))

        phi = _newton_scalar(w, dw, cfg, seed)

        f0 = np.array(vals((F, G, K), phi))
        f1 = np.array(vals(d1, phi))
        f2 = np.array(vals(d2, phi))
        w_p = float(np.dot(coeffs, f1))
        scale = max(1.0, float(np.abs(coeffs * f1).sum()))
        if abs(w_p) <= _DEGENERATE_REL * scale:
            raise DegenerateRootError(f"dW/dphi = {w_p!r} below threshold")
        grad = -f0 / w_p  # W_a = F_a(phi) per coordinate a
        w_pa = f1
        w_pp = float(np.dot(coeffs, f2))
        hess = -(np.outer(w_pa, grad) + np.outer(grad, w_pa)
                 + w_pp * np.outer(grad, grad)) / w_p
        return jets.from_parts(phi, grad, hess)

    return FieldHandle(evaluate)


# -- grid sampling with seed continuation ---------------------------------------------


def hodograph_grid(
    solver: HodographSolver, t_nodes: np.ndarray, x_nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(phi, phibar) = (v, u) values on a tensor grid, with (u, v) seed
    continuation along each row and down the first column from the solver's
    configured seed."""
    nt, nx = len(t_nodes), len(x_nodes)
    phi = np.empty((nt, nx))
    phibar = np.empty((nt, nx))
    row_seed = solver.cfg.seed
    for i, t in enumerate(t_nodes):
        s = row_seed
        for j, x in enumerate(x_nodes):
            u, v = solver.solve(t, x, seed=s)
            phibar[i, j] = u
            phi[i, j] = v
            s = (u, v)
            if j == 0:
                row_seed = s
    return phi, phibar
