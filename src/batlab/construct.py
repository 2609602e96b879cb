"""Constructors for the exact solution families.

Every constructor solves its defining relation once per point, and then
returns jets (``Jet2``) whose gradients and Hessians come from implicit /
inverse-function differentiation of that relation, never from finite
differences.  The points of a case are solved as one batch (``solve_many``):
each point iterates on its own, from its own seed, and a point that has
stopped leaves the batch, so each ends at the bits (or the error) of its
one-point solve, which is the same solve of a batch of one row (``solve``).
The jets are computed at one solved point or, with the same code, over a batch
of solved points (a ``Jet2`` with a leading axis), each point of the batch the
bits of its own one-point jet:

* the scalar families (:func:`solve_implicit_fg`, :func:`holo_sum`,
  :func:`implicit_3d`) return a :class:`FieldHandle`, whose ``solve_many``
  finds the points' roots and whose ``jets`` differentiate at solved points,
  the implicit ones through one implicit-function jet, :func:`_implicit_jet`;
* the hodograph pair is solved by :class:`HodographSolver`, whose
  :meth:`~HodographSolver.fields` returns both fields ``(phi, phibar)`` at
  solved parameters ``(u, v)``; :func:`hodograph_grid` solves tensor grids
  of one solver by seed continuation, marching them together: one batch per
  first-column row over every grid, then one batch per further column over
  every grid's rows.

Every implicit solve, here and in :mod:`leznov`, iterates through one
best-iterate Newton loop over a batch of points, :func:`_newton`; each solve
supplies its batched residual, its batched step and its tolerance, and the
scalar one falls back to bisection on a configured bracket at the points
Newton does not solve.

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
    EvaluationError,
    NewtonConvergenceError,
    PoleError,
    SingularMatrixError,
)
# eval_float is not called here; the benchmark's tracer (perfbench/tracing.py)
# patches this binding by name.
from .exprspec import Bin, ExprSpec, Var, eval_float, eval_jet, float_fn, partial  # noqa: F401
from .residuals import (ResidualSample, _any, _dot, _from_terms, _larger, _ok, _solve,
                        attempt, batched)

_DEGENERATE_REL = 1e-10
# The residual at which every implicit solve (here and in ``leznov``) stops,
# relative to the point's scale for hodograph solves.
NEWTON_TOL = 1e-12


@dataclass(frozen=True)
class ImplicitSolveConfig:
    """Newton controls for implicit solves.

    ``seed`` is the initial guess (a pair for two-dimensional solves);
    ``bracket`` enables bisection fallback for scalar constraints.  The
    scenario format (``cli._FORMAT``) states the range of each setting.
    """

    max_iter: int = 50
    seed: float | tuple[float, float] = 1.0
    bracket: tuple[float, float] | None = None


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
    """A scalar field given by a relation: :meth:`solve_many` finds its roots
    at a batch of points (None for an explicit field), :meth:`jets`
    differentiates at solved points, one or a batch, and calling the handle
    solves and differentiates at one point."""

    def __init__(self, solve_fn: Callable, jets_fn: Callable):
        self._solve = solve_fn
        self._jets = jets_fn

    def solve_many(self, points, seeds=None) -> tuple[list, np.ndarray]:
        """``(errors, roots)`` at the ``(N, dim)`` ``points``, each solved from
        its seed in ``seeds`` (else the configured seed): per point the
        EvaluationError of its solve or None, and the roots of the points
        without one, in order."""
        return self._solve(np.asarray(points, dtype=float), seeds)

    def solve(self, point: Sequence[float], seed=None):
        """The root at one point, from ``seed`` (else the configured seed)."""
        errors, roots = self.solve_many([point], None if seed is None else [seed])
        if errors[0] is not None:
            raise errors[0]
        return roots.tolist()[0]

    def jets(self, points, roots) -> jets.Jet2:
        """The jet at ``points`` (one point, or an ``(N, dim)`` batch) from
        their ``roots`` (a float, or N of them)."""
        return self._jets(np.asarray(points, dtype=float), roots)

    def __call__(self, point: Sequence[float], seed=None) -> jets.Jet2:
        point = np.asarray(point, dtype=float)
        return self.jets(point, self.solve(point, seed))


def _outer(a, b):
    """``np.outer(a, b)`` of the last axes, at one point or at each of a batch."""
    return a[..., :, None] * b[..., None, :]


# -- Newton: one best-iterate loop for every implicit solve --------------------------


def _newton(residual, step, x, max_iter: int, tol):
    """Best-iterate Newton over a batch of points, from their iterates ``x``
    (a leading axis of N points; ``(N,)`` for scalar solves, ``(N, d)``
    otherwise).  Returns ``(errors, best)``: per point None or the error its
    solve raises, and per point its iterate of least residual size (only
    meaningful where its error is None).

    ``residual(idx, x)`` returns ``(size, r)`` at the points ``idx`` (indices
    into the batch) and their iterates ``x``; ``step(idx, x, r)`` returns
    ``(nxt, halt)``, the next iterates and where to stop (non-finite
    derivative, no progress).  A point also stops on an exact zero, after
    ``max_iter`` steps, and when its step returns an iterate it has already
    visited.  A stopped point's root is its best iterate if that is within
    its ``tol`` (a float, or one per point); else its error is the
    SingularMatrixError its step raised, or NewtonConvergenceError.  Another
    EvaluationError from ``residual`` or ``step`` is the point's error.

    Each point sees exactly the iterates, and ends in exactly the root or
    error, of its own one-point solve (a batch of one row):

    * the best iterate changes on a strictly smaller size (a NaN never wins);
    * a point stops at an exact zero size and after ``max_iter`` steps;
    * iterates are compared by the bits of their int64 views, so -0.0 and
      0.0 differ, against the point's own history of visited iterates;
    * a halt and a SingularMatrixError from ``step`` are stops, judged by the
      best iterate; any other EvaluationError (such as the hodograph's
      "diverged" NewtonConvergenceError) is the point's error whatever its
      best iterate;
    * when ``residual`` or ``step`` raises an EvaluationError over the batch,
      that call is rerun one point at a time as one-row batches
      (:func:`~batlab.residuals.batched`): the points that raise retire
      with their own error, and the others go on.

    ``residual`` and ``step`` must be pure functions of the iterate, and each
    row of their results must be the bits of the float arithmetic at that
    row's inputs alone: numpy's elementwise operations and the array forms of
    :func:`~batlab.exprspec.float_fn` are, while, for instance, Python's
    ``max(a, b)`` is ``np.where(b > a, b, a)`` (``residuals._larger``) and not
    ``np.maximum``, which propagates a NaN.  A repeated iterate then starts a
    cycle that would run to ``max_iter`` without changing the best iterate
    (its test is strict), so stopping there returns, or raises, the same as
    running on.

    A hodograph march makes many small solves in turn, so an iteration costs
    its fixed overhead more than its arithmetic.  The fast path keeps that
    overhead small: ``residual`` and ``step`` are called on the batch through
    ``residuals.batched``, split into one-row calls only after they raise;
    while every point still iterates, the best iterates and the visited bits
    are written through plain slices, not gathered and scattered through the
    point indices; and the per-point verdict loop runs only when some point
    stops on a step error or outside its ``tol``."""
    x = np.array(x, dtype=float)
    n = len(x)
    best, best_size = x.copy(), np.full(n, math.inf)
    errors: list = [None] * n  # raised by residual, or by step other than as a stop
    stops: list = [None] * n  # raised by step
    visited = np.empty((max_iter + 1,) + x.shape, dtype=np.int64)  # iterate bits
    if not n:
        return errors, best
    idx = np.arange(n)  # the points still iterating
    with np.errstate(all="ignore"):
        for i in range(max_iter + 1):
            idx, x, out = _call(residual, errors, idx, x)
            if out is None:
                break
            size, r = out
            rows = slice(None) if len(idx) == n else idx  # idx, as a slice while it can be
            better = size < best_size[rows]
            if np.count_nonzero(better) == len(idx):
                best[rows], best_size[rows] = x, size
            else:
                at = idx[better]
                best[at], best_size[at] = x[better], size[better]
            if i == max_iter:
                break
            go = size != 0.0
            if np.count_nonzero(go) < len(idx):
                idx, x, r = idx[go], x[go], r[go]
                if not len(idx):
                    break
                rows = idx
            visited[i, rows] = x.view(np.int64)
            idx, x, out = _call(step, stops, idx, x, r)
            if out is None:
                break
            x, halt = out
            seen = visited[:i + 1, slice(None) if len(idx) == n else idx] == x.view(np.int64)
            if np.count_nonzero(seen):  # some component repeats: is a whole iterate seen?
                halt = halt | seen.reshape(i + 1, len(idx), -1).all(axis=-1).any(axis=0)
            if np.count_nonzero(halt):
                idx, x = idx[~halt], x[~halt]
                if not len(idx):
                    break
    within = best_size <= tol
    if np.count_nonzero(within) == n and stops.count(None) == n:
        return errors, best
    within = within.tolist()
    for k, stop in enumerate(stops):
        if errors[k] is not None or within[k] and stop is None:
            continue
        if stop is not None and not isinstance(stop, SingularMatrixError):
            errors[k] = stop
        elif not within[k]:
            errors[k] = stop or NewtonConvergenceError(
                f"Newton did not converge (best residual {float(best_size[k])!r})")
    return errors, best


def _call(fn, errors: list, idx, x, *rest):
    """``fn(idx, x, *rest)`` over the points ``idx`` with iterates ``x``, as
    ``(idx, x, out)``, through :func:`~batlab.residuals.batched`: the points
    where it raises leave ``idx`` and ``x``, each with its error recorded in
    ``errors``, and ``out`` holds the results at the others (None if there
    are none)."""
    failed, out = batched(fn, idx, x, *rest)
    if failed.count(None) == len(failed):
        return idx, x, out
    for k, err in zip(idx.tolist(), failed):
        if err is not None:
            errors[k] = err
    keep = _ok(failed)
    return idx[keep], x[keep], out


def _solved(errors: list, roots: np.ndarray):
    """``(errors, roots)`` of a batch solve, the roots kept at the points
    without an error."""
    if errors.count(None) == len(errors):
        return errors, roots
    return errors, roots[_ok(errors)]


def _scalar_seed(seed) -> float:
    try:
        return float(seed)
    except TypeError:  # a seed pair
        raise ValueError("scalar solves need a scalar seed") from None


def _scalar_seeds(cfg: ImplicitSolveConfig, n: int, seeds=None) -> np.ndarray:
    """The seeds of ``n`` scalar solves: ``seeds``, else the configured one."""
    if seeds is None:
        return np.full(n, _scalar_seed(cfg.seed))
    return np.array([_scalar_seed(s) for s in seeds])


def _newton_scalar(fun, dfun, cfg: ImplicitSolveConfig, seeds) -> tuple[list, np.ndarray]:
    """Newton iteration over a batch of points, polished past ``NEWTON_TOL``
    toward machine precision so downstream finite-difference probes
    are not noise limited; bisection on ``cfg.bracket`` at each point where
    it does not converge.  ``fun(idx, p)`` and ``dfun(idx, p)`` evaluate at
    the points ``idx`` (an index array with an array ``p``, or one index with
    a float ``p``); returns ``(errors, roots)`` as :func:`_newton`."""
    def residual(idx, x):
        f = fun(idx, x)
        return abs(f), f

    def step(idx, x, f):
        d = dfun(idx, x)
        nxt = x - f / d
        return nxt, (d == 0.0) | ~np.isfinite(d) | ~np.isfinite(nxt) | (nxt == x)

    errors, roots = _newton(residual, step, seeds, cfg.max_iter, NEWTON_TOL)
    if cfg.bracket is not None:
        for k, err in enumerate(errors):
            if isinstance(err, NewtonConvergenceError):
                root = attempt(_bisect, lambda p: fun(k, p), cfg.bracket, NEWTON_TOL)
                if isinstance(root, EvaluationError):
                    errors[k] = root
                else:
                    errors[k], roots[k] = None, root
    return errors, roots


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


def _implicit_jet(phi, w_p, scale, w_a, w_pa, w_pp, w_ab=None) -> jets.Jet2:
    """The jet of phi defined by W(phi; z) = 0, at one root or over a batch,
    by the implicit-function theorem: from dW/dphi, dW/dz_a, d2W/dphi dz_a,
    d2W/dphi2 and d2W/dz_a dz_b at the root (``w_ab`` None where it vanishes:
    adding zeros can turn a -0.0 into 0.0).  A root where |dW/dphi| <= 1e-10
    ``scale`` raises :class:`DegenerateRootError`."""
    if _any(abs(w_p) <= _DEGENERATE_REL * scale):
        raise DegenerateRootError(f"dW/dphi = {w_p!r} below threshold")
    grad = -w_a / w_p[..., None]
    hess = _outer(w_pa, grad) if w_ab is None else w_ab + _outer(w_pa, grad)
    hess = -(hess + _outer(grad, w_pa)
             + w_pp[..., None, None] * _outer(grad, grad)) / w_p[..., None, None]
    return jets.from_parts(phi, grad, hess)


# -- implicit solution of the four-variable equation -------------------------------


def solve_implicit_fg(F: ExprSpec, G: ExprSpec, cfg: ImplicitSolveConfig) -> FieldHandle:
    """Field defined by F(phi; x1, x2) = G(phi; xb1, xb2).

    Jets follow from implicit differentiation of W = F - G = 0 through second
    order.  Points where dW/dphi (numerically) vanishes raise
    :class:`DegenerateRootError`.
    """
    _require_vars(F, {"phi", "x1", "x2"}, "F")
    _require_vars(G, {"phi", "xb1", "xb2"}, "G")
    dF = partial(F, "phi") if "phi" in F.vars else None
    dG = partial(G, "phi") if "phi" in G.vars else None
    f_names, g_names = ("phi", "x1", "x2"), ("phi", "xb1", "xb2")
    f, g = float_fn(F, f_names), float_fn(G, g_names)
    df = float_fn(dF, f_names) if dF is not None else None
    dg = float_fn(dG, g_names) if dG is not None else None

    def solve(points: np.ndarray, seeds=None):
        x1, x2, xb1, xb2 = points.T

        def w(i, p):
            return f(p, x1[i], x2[i]) - g(p, xb1[i], xb2[i])

        def dw(i, p):
            out = 0.0
            if df is not None:
                out += df(p, x1[i], x2[i])
            if dg is not None:
                out -= dg(p, xb1[i], xb2[i])
            return out

        return _solved(*_newton_scalar(w, dw, cfg, _scalar_seeds(cfg, len(points), seeds)))

    def field_jets(points: np.ndarray, phi) -> jets.Jet2:
        # Full second-order data of F in (phi, x1, x2) and G in (phi, xb1, xb2),
        # the two blocks of W = F - G over (phi, x1, x2, xb1, xb2).
        fj = eval_jet(F, dict(zip(f_names, jets.variables(
            [phi, points[..., 0], points[..., 1]]))), k=3)
        gj = eval_jet(G, dict(zip(g_names, jets.variables(
            [phi, points[..., 2], points[..., 3]]))), k=3)
        w_ab = np.zeros(points.shape[:-1] + (4, 4))
        w_ab[..., :2, :2] = fj.hess[..., 1:, 1:]
        w_ab[..., 2:, 2:] = -gj.hess[..., 1:, 1:]
        return _implicit_jet(
            phi, fj.grad[..., 0] - gj.grad[..., 0],
            np.maximum(np.maximum(1.0, abs(fj.grad[..., 0])), abs(gj.grad[..., 0])),
            np.concatenate([fj.grad[..., 1:], -gj.grad[..., 1:]], axis=-1),
            np.concatenate([fj.hess[..., 0, 1:], -gj.hess[..., 0, 1:]], axis=-1),
            fj.hess[..., 0, 0] - gj.hess[..., 0, 0], w_ab)

    return FieldHandle(solve, field_jets)


def holo_sum(f: ExprSpec, g: ExprSpec) -> FieldHandle:
    """phi = f(x1, x2) + g(xb1, xb2); cross-block second derivatives vanish."""
    _require_vars(f, {"x1", "x2"}, "f")
    _require_vars(g, {"xb1", "xb2"}, "g")

    def field_jets(points: np.ndarray, roots=None) -> jets.Jet2:
        args = dict(zip(("x1", "x2", "xb1", "xb2"),
                        jets.variables([points[..., i] for i in range(4)])))
        return eval_jet(f, args, k=4) + eval_jet(g, args, k=4)

    def solve(points: np.ndarray, seeds=None):
        return [None] * len(points), np.full(len(points), None)

    return FieldHandle(solve, field_jets)


# -- hodograph parametric solution --------------------------------------------------


def seed_pair(seed) -> tuple[float, float]:
    """A hodograph seed as (u, v); ValueError if it is not a pair of numbers."""
    try:
        u, v = map(float, seed)
    except (TypeError, ValueError):  # not a sequence, or not of two numbers
        raise ValueError("hodograph solves need a (u, v) seed pair") from None
    return u, v


def _fold_det(f2, g2, u, v):
    """det J = f''g''(u - v) of the hodograph map, at one point or at each of
    a batch; SingularMatrixError at a fold."""
    fg = f2 * g2  # also g2 * f2: the product commutes exactly
    det = fg * (u - v)
    scale = abs(fg * v) + abs(fg * u)
    # |det| <= REL * max(scale, 1e-30): |det| <= REL * scale or |det| <= REL *
    # 1e-30, which np.fmax joins (a NaN REL * scale leaves the second test)
    if np.count_nonzero(abs(det) <= np.fmax(_DEGENERATE_REL * scale, _DEGENERATE_REL * 1e-30)):
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
        self._t, self._x = float_fn(self.t_expr, ("u", "v")), float_fn(self.x_expr, ("u", "v"))
        # x_w and t_w, w = v then u, as positional evaluators over (u, v)
        self._identity_terms = [
            (float_fn(partial(self.x_expr, var), ("u", "v")),
             float_fn(partial(self.t_expr, var), ("u", "v")), var) for var in ("v", "u")]
        # f and its first three derivatives at u; g and its at v
        self._fu = [float_fn(s) for s in (f, d1f, d2f, d3f)]
        self._gv = [float_fn(s) for s in (g, d1g, d2g, d3g)]

    def forward(self, u, v):
        """(t, x) at (u, v), evaluated from the parametric formulas as written:
        floats at one point, or arrays over a batch of points, each element
        the bits of its point's float evaluation."""
        return self._t(u, v), self._x(u, v)

    def identity_residuals(self, u, v) -> tuple[ResidualSample, ResidualSample]:
        """x_v + v t_v and x_u + u t_u evaluated through symbolic partials, at
        one point (u, v) or at each point of a batch."""
        args = {"u": u, "v": v}
        return tuple(_from_terms((x_d(u, v), args[var] * t_d(u, v)))
                     for x_d, t_d, var in self._identity_terms)

    def solve(self, t: float, x: float, seed=None) -> tuple[float, float]:
        """(u, v) at one point (t, x), from ``seed`` (else the configured
        seed): :meth:`solve_many` of that one point."""
        errors, uv = self.solve_many([t], [x], None if seed is None else [seed])
        if errors[0] is not None:
            raise errors[0]
        return tuple(uv[0].tolist())

    def solve_many(self, t, x, seeds=None) -> tuple[list, np.ndarray]:
        """``(errors, uv)`` at the points ``(t[i], x[i])``, each solved from its
        seed in ``seeds`` (else the configured seed): per point the
        EvaluationError of its solve or None, and the ``(M, 2)`` solutions
        (u, v) of the M points without one, in order."""
        (f, d1f, d2f, _), (g, d1g, d2g, _) = self._fu, self._gv
        t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)

        def residual(i, uv):
            # Newton's own form of the forward map: fewer evaluations than
            # ``forward``, summed in a different order.
            u, v = uv[:, 0], uv[:, 1]
            fu, f1 = f(u), d1f(u)
            gv, g1 = g(v), d1g(v)
            ti, xi = (t, x) if len(i) == len(t) else (t[i], x[i])  # i is every point, or some
            r = np.empty_like(uv)
            r1 = np.subtract(f1 + g1, ti, out=r[:, 0])
            r2 = np.subtract(fu - u * f1 + gv - v * g1, xi, out=r[:, 1])
            return _larger(abs(r1), abs(r2)), r

        def step(i, uv, r):
            u, v = uv[:, 0], uv[:, 1]
            r1, r2 = r[:, 0], r[:, 1]
            f2, g2 = d2f(u), d2g(v)
            # J = [[f'', g''], [-u f'', -v g'']]
            det = _fold_det(f2, g2, u, v)
            nxt = np.empty_like(uv)
            un = np.subtract(u, (-v * g2 * r1 - g2 * r2) / det, out=nxt[:, 0])
            vn = np.subtract(v, (u * f2 * r1 + f2 * r2) / det, out=nxt[:, 1])
            if np.count_nonzero(np.isfinite(nxt)) < nxt.size:
                raise NewtonConvergenceError("hodograph Newton diverged")
            return nxt, (un == u) & (vn == v)

        if seeds is None:
            uv = np.tile(seed_pair(self.cfg.seed), (len(t), 1))
        elif isinstance(seeds, np.ndarray) and seeds.shape == (len(t), 2):
            uv = seeds.astype(float)  # a pair of numbers per point already
        else:
            uv = np.array([seed_pair(s) for s in seeds]).reshape(len(t), 2)
        tol = NEWTON_TOL * _larger(_larger(1.0, abs(t)), abs(x))
        return _solved(*_newton(residual, step, uv, self.cfg.max_iter, tol))

    def jets_uv(self, u, v):
        """First and second derivatives of u and v with respect to (t, x) at
        solved parameters (u, v), one point (floats) or a batch (arrays):
        ``(du, dv, hu, hv)``, with du = (u_t, u_x) and hu its Hessian."""
        (_, _, d2f, d3f), (_, _, d2g, d3g) = self._fu, self._gv
        f2, f3, g2, g3 = d2f(u), d3f(u), d2g(v), d3g(v)
        jac = np.stack([np.stack([f2, g2], axis=-1),
                        np.stack([-u * f2, -v * g2], axis=-1)], axis=-2)
        _fold_det(f2, g2, u, v)
        first = np.linalg.solve(jac, np.eye(2))  # rows: derivative eqn, cols (t, x)
        du = first[..., 0, :]  # (u_t, u_x)
        dv = first[..., 1, :]
        # Second derivatives: J (u_ab, v_ab)^T = -(second-order forward terms);
        # t and x have no mixed (u, v) term.
        x_uu, x_vv = -f2 - u * f3, -g2 - v * g3
        hu = np.zeros(jac.shape)
        hv = np.zeros(jac.shape)
        for a in range(2):
            for b in range(a, 2):
                quad_t = f3 * du[..., a] * du[..., b] + g3 * dv[..., a] * dv[..., b]
                quad_x = x_uu * du[..., a] * du[..., b] + x_vv * dv[..., a] * dv[..., b]
                rhs = -np.stack([quad_t, quad_x], axis=-1)
                sec = _solve(jac, rhs)
                hu[..., a, b] = hu[..., b, a] = sec[..., 0]
                hv[..., a, b] = hv[..., b, a] = sec[..., 1]
        return du, dv, hu, hv

    def fields(self, u, v) -> tuple[jets.Jet2, jets.Jet2]:
        """(phi, phibar) = (v, u) as jets over (t, x), at solved parameters
        (u, v): one point (floats) or a batch (arrays)."""
        du, dv, hu, hv = self.jets_uv(u, v)
        return jets.from_parts(v, dv, hv), jets.from_parts(u, du, hu)


# -- covariance machinery -----------------------------------------------------------


def moebius_transform(s, m: LinearMap2):
    """Speed transform induced by (t, x) -> (a t + b x, c t + d x):

    s' = (d s - c) / (a - b s), for either speed family; at one point or at
    each point of a batch.
    """
    den = m.a - m.b * s
    if _any(abs(den) <= 1e-13 * np.maximum(max(1.0, abs(m.a)), abs(m.b * s))):
        raise PoleError(f"moebius pole: a - b*u = {den!r}")
    return (m.d * s - m.c) / den


def pull_back(jet: jets.Jet2, minv: np.ndarray) -> jets.Jet2:
    """A field's jet at ``minv @ q``, re-expressed as a jet over ``q`` (chain
    rule through the linear map ``minv``, e.g. :meth:`LinearMap2.inverse`),
    at one point or over a batch."""
    return jets.from_parts(jet.value, (minv.T @ jet.grad[..., None])[..., 0],
                           minv.T @ jet.hess @ minv)


def reparametrization(h: ExprSpec) -> Callable[[jets.Jet2], jets.Jet2]:
    """The map phi -> h(phi) on jets, for a single-variable expression h."""
    var = h.vars[0]
    return lambda jet: eval_jet(h, {var: jet})


# -- Born-Infeld gradient field -------------------------------------------------------


def _born_infeld_uv_jets(u_val, v_val, lam: float):
    """(phi_t, phi_x) as arity-2 jets over (u, v), at one point or over a batch."""
    if _any((u_val <= 0.0) | (v_val <= 0.0)):
        raise DegenerateRootError(f"born-infeld needs u, v > 0, got {u_val, v_val}")
    su, sv = np.sqrt(u_val), np.sqrt(v_val)
    if _any(abs(su - sv) <= 1e-12 * np.maximum(su, sv)):
        raise SingularMatrixError("born-infeld: sqrt(u) = sqrt(v)")
    uj, vj = jets.variables([u_val, v_val])
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
    d_pt = pt.grad[..., :1] * uj.grad + pt.grad[..., 1:] * vj.grad  # (d_t phi_t, d_x phi_t)
    d_px = px.grad[..., :1] * uj.grad + px.grad[..., 1:] * vj.grad
    cross = 0.5 * (d_pt[..., 1] + d_px[..., 0])
    hess = np.stack([np.stack([d_pt[..., 0], cross], axis=-1),
                     np.stack([cross, d_px[..., 1]], axis=-1)], axis=-2)
    return jets.from_parts(0.0, np.stack([pt.value, px.value], axis=-1), hess)


def born_infeld_cross_residual(uj: jets.Jet2, vj: jets.Jet2, lam: float) -> ResidualSample:
    """Integrability check d_t(phi_x) - d_x(phi_t) for the substitution."""
    pt, px = _born_infeld_uv_jets(uj.value, vj.value, lam)
    d_t_phix = px.grad[..., 0] * uj.grad[..., 0] + px.grad[..., 1] * vj.grad[..., 0]
    d_x_phit = pt.grad[..., 0] * uj.grad[..., 1] + pt.grad[..., 1] * vj.grad[..., 1]
    return _from_terms((d_t_phix, -d_x_phit))


# -- implicit solutions of the three-coordinate equation -----------------------------


def implicit_3d(
    F: ExprSpec, G: ExprSpec, K: ExprSpec, const_c: float, cfg: ImplicitSolveConfig
) -> FieldHandle:
    """Field defined by t F(phi) + x G(phi) + y K(phi) = const_c."""
    for spec, name in ((F, "F"), (G, "G"), (K, "K")):
        _require_vars(spec, {"phi"}, name)
    d1 = [partial(s, "phi") if "phi" in s.vars else None for s in (F, G, K)]
    d2 = [partial(d, "phi") if d is not None else None for d in d1]
    # Positional evaluators of (F, G, K) and of their first and second
    # phi-derivatives; binding them to ("phi",) admits a constant spec too.
    f0s, f1s, f2s = ([float_fn(s, ("phi",)) if s is not None else None for s in specs]
                     for specs in ((F, G, K), d1, d2))

    def vals(fns, p):
        # the three functions, or 0.0 for None, at p: (3,) at a float, (N, 3)
        # at N values
        return np.stack(np.broadcast_arrays(*(fn(p) if fn is not None else 0.0
                                              for fn in fns)), axis=-1)

    def solve(points: np.ndarray, seeds=None):
        def w(i, p):
            return _dot(points[i], vals(f0s, p)) - const_c

        def dw(i, p):
            return _dot(points[i], vals(f1s, p))

        return _solved(*_newton_scalar(w, dw, cfg, _scalar_seeds(cfg, len(points), seeds)))

    def field_jets(points: np.ndarray, phi) -> jets.Jet2:
        coeffs = points  # (t, x, y)
        f0, f1, f2 = (vals(fns, phi) for fns in (f0s, f1s, f2s))
        # W = t F + x G + y K - c: W_a = (F, G, K)(phi), W_pa their phi-derivatives
        # and W_ab = 0.
        return _implicit_jet(phi, _dot(coeffs, f1),
                             np.maximum(1.0, np.abs(coeffs * f1).sum(axis=-1)),
                             f0, f1, _dot(coeffs, f2))

    return FieldHandle(solve, field_jets)


# -- grid sampling with seed continuation ---------------------------------------------


def hodograph_grid(solver: HodographSolver, grids: Sequence) -> list:
    """(phi, phibar) = (v, u) values on each tensor grid ``(t_nodes,
    x_nodes)`` of ``grids``, all solved by ``solver``, with (u, v) seed
    continuation along each row and down each first column from the solver's
    configured seed.

    The grids march together, each step one :meth:`~HodographSolver.solve_many`
    over every grid that takes it.  Round i of the first column solves node
    (i, 0) of each grid with more than i rows, from the node above it (the
    configured seed at i = 0).  The rows are then independent: round j solves
    column j of each grid wider than j over its rows, each node from its left
    neighbour.  A node that fails ends its row, and in the first column the
    rows below it too.  Each point of a batch solve sees the iterates of its
    own one-point solve, so each grid holds the bits of its own row-major
    march whatever marches beside it.

    Returns one item per grid: ``(phi, phibar)``, or the exception the grid
    raises on its own: the error of its first failing node in row-major
    order, the node a row by row march would have stopped at, or the
    MemoryError of allocating its arrays."""
    fields, failed = [], []  # per grid: (phi, phibar) or a MemoryError; row -> error
    for t_nodes, x_nodes in grids:
        try:
            fields.append((np.empty((len(t_nodes), len(x_nodes))),
                           np.empty((len(t_nodes), len(x_nodes)))))
        except MemoryError as err:
            fields.append(err)
        failed.append({})
    marching = [k for k, out in enumerate(fields) if not isinstance(out, MemoryError)]

    def solve(nodes, seeds) -> list:
        """Solve the nodes ``(grid, rows, column)`` of ``nodes`` as one batch
        from ``seeds`` (one pair per node, or None for the configured seed);
        returns the rows of each entry that are solved."""
        t = np.concatenate([grids[k][0][rows] for k, rows, _ in nodes])
        x = np.concatenate([np.full(len(rows), grids[k][1][j]) for k, rows, j in nodes])
        errors, uv = solver.solve_many(t, x, seeds)
        clean = errors.count(None) == len(errors)  # the usual round: every node solved
        solved, at, done = [], 0, 0  # into errors, into uv
        for k, rows, j in nodes:
            if not clean:
                errs = errors[at:at + len(rows)]
                at += len(rows)
                failed[k].update((i, err) for i, err in zip(rows.tolist(), errs)
                                 if err is not None)
                rows = rows[_ok(errs)]
            phi, phibar = fields[k]
            phibar[rows, j], phi[rows, j] = uv[done:done + len(rows)].T
            done += len(rows)
            solved.append(rows)
        return solved

    for i in range(max((len(grids[k][0]) for k in marching), default=0)):
        down = [k for k in marching if len(grids[k][0]) > i and not failed[k]]
        if not down:
            break
        seeds = None if i == 0 else np.array(
            [(fields[k][1][i - 1, 0], fields[k][0][i - 1, 0]) for k in down])
        solve([(k, np.array([i]), 0) for k in down], seeds)
    rows = {k: np.arange(min(failed[k], default=len(grids[k][0]))) for k in marching}
    for j in range(1, max((len(grids[k][1]) for k in marching), default=0)):
        across = [k for k in marching if len(grids[k][1]) > j and len(rows[k])]
        if not across:
            break
        seeds = np.concatenate([np.stack([fields[k][1][rows[k], j - 1],
                                          fields[k][0][rows[k], j - 1]], axis=-1)
                                for k in across])
        rows.update(zip(across, solve([(k, rows[k], j) for k in across], seeds)))
    return [errs[min(errs)] if errs else out for out, errs in zip(fields, failed)]
