"""Pointwise residual operators for every verified equation.

Each operator consumes second-order jets of the relevant fields and returns a
``ResidualSample``: the signed raw residual together with a normalization
scale equal to the sum of the absolute values of the equation's individual
additive terms.  ``normalized`` is therefore dimensionless and bounded by 1
(triangle inequality) whenever the scale is positive, which makes "small
residual" meaningful even in large-gradient regions.

Each operator is written once for jets at one point and for jets over a batch
of N points (``Jet2`` with a leading axis, indexed ``g[..., i]``); over a
batch its sample holds one raw residual, scale and floor per point, each the
bits of that point's own sample.  Terms are summed with ``math.fsum`` point by
point.  :func:`sweep` evaluates an operator on a whole batch at once; if that
raises an ``EvaluationError`` it evaluates each point as a batch of one row,
and skips the points that raise (:func:`batched`, the one place that splits a
failing batch, for the sweeps, the verify cases and the Newton loop alike).

Coordinate conventions (index order of the incoming jets):

* four-variable first complexification: ``(x1, x2, xb1, xb2)``
* two-field second complexification, Born-Infeld: ``(t, x)``
* three-coordinate Euclidean equation: ``(t, x, y)``
* multi-field determinant: ``(x1, x2, x3)``
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EvaluationError
from .jets import Jet2

_SCALE_FLOOR = 1e-300


def _larger(a, b):
    """Python's ``max(a, b)`` elementwise: ``b`` where it is greater, else
    ``a`` (so a NaN ``b`` never wins)."""
    return np.where(b > a, b, a)


def _any(condition) -> bool:
    """Whether ``condition`` holds at one point (a bool) or at any point of a
    batch (an array of them)."""
    return condition.any() if isinstance(condition, np.ndarray) else bool(condition)


def _square(x):
    """``x ** 2`` of a float, computed by ``pow`` at each point of a batch as
    well: the ``** 2`` of an array is ``x * x``, which differs from ``pow``
    in the last bit for about one value in a thousand."""
    return np.float_power(x, 2)


def _dot(a, b):
    """``a @ b`` of the last axes: for one pair of vectors, or for each pair
    of a batch through the same BLAS dot product."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0][()]  # [()]: a float for one pair


def _solve(m, rhs):
    """``m^{-1} rhs`` for one right-hand-side vector, at one point or at each
    of a batch: one vector solve per point, since a right-hand side of several
    columns gives other bits."""
    return np.linalg.solve(m, rhs[..., None])[..., 0]


@dataclass(frozen=True)
class ResidualSample:
    """Signed residual plus its normalization, at one point (floats) or at
    each point of a batch (arrays).

    ``scale`` is the sum of absolute values of the equation's additive terms.
    ``floor`` is the operator's no-cancellation magnitude (the term sum with
    every second-derivative factor replaced by its typical matrix magnitude);
    it keeps ``normalized`` at rounding level when the equation degenerates to
    0 = 0 at a point, where raw and scale are both pure float noise.
    """

    raw: float
    scale: float
    floor: float = 0.0

    @property
    def normalized(self):
        return abs(self.raw) / _larger(_larger(self.scale, self.floor), _SCALE_FLOOR)


@dataclass
class ResidualReport:
    """Statistics of one residual operator over a sample set."""

    samples: int
    max_norm: float
    rms_norm: float
    skipped_singular: int


def _from_terms(terms: Sequence, floor=0.0) -> ResidualSample:
    """The sample of an equation's additive ``terms``, each a float or, over a
    batch, an array of one value per point; summed point by point."""
    if np.ndim(terms[0]) == 0:
        return ResidualSample(math.fsum(terms), math.fsum(abs(t) for t in terms), floor)
    rows = np.stack(terms, axis=-1).tolist()
    return ResidualSample(np.array([math.fsum(row) for row in rows]),
                          np.array([math.fsum(map(abs, row)) for row in rows]), floor)


def _report(norms, skipped: int) -> ResidualReport:
    """Max and RMS of ``norms``, reduced in their order."""
    if norms is None or not norms.size:
        return ResidualReport(0, math.inf, math.inf, skipped)
    arr = norms.ravel()
    return ResidualReport(len(arr), float(arr.max()),
                          float(np.sqrt(np.mean(arr**2))), skipped)


def grid_report(samples: Sequence[ResidualSample], skipped: int = 0) -> ResidualReport:
    """Aggregate samples from one discretized field against the global term
    magnitude: one sample per point, or samples of batches of points.

    Pointwise normalization is the right measure for exactly-constructed
    fields, but on finite-difference grids both raw and local scale vanish
    together wherever the terms cross zero, so convergence statements are made
    relative to the largest term magnitude on the grid.  A NaN scale or floor
    propagates into that magnitude, so the report has no finite norm.
    """
    if not samples:
        return _report(None, skipped)
    s = _join(samples)
    global_scale = np.maximum(s.scale, s.floor).max()
    return _report(np.abs(s.raw) / max(global_scale, _SCALE_FLOOR), skipped)


def attempt(fn: Callable, *args):
    """``fn(*args)``, or the EvaluationError it raised: a singular sample,
    which the checks that read it count as skipped."""
    try:
        return fn(*args)
    except EvaluationError as err:
        return err


# -- batches: jets, samples or arrays over N points, or tuples of them -------------


def _size(batch) -> int:
    if isinstance(batch, tuple):
        return _size(batch[0])
    return len(batch.value if isinstance(batch, Jet2) else batch)


def take(batch, index):
    """Point ``index`` (an int) of a batch, or the batch of its points
    ``index`` (an index or mask array, or a slice)."""
    if isinstance(batch, tuple):
        return tuple(take(b, index) for b in batch)
    if isinstance(batch, Jet2):
        return Jet2(batch.value[index], batch.grad[index], batch.hess[index])
    return batch[index]


def _ok(errors: list) -> np.ndarray:
    """The mask of the points without an error."""
    return np.array([err is None for err in errors], dtype=bool)


def _join(parts: Sequence):
    """The batch of the points of the batches ``parts``, in order: jets,
    arrays, tuples of them, or samples (at one point, over a batch or over a
    grid, flattened)."""
    first = parts[0]
    if isinstance(first, tuple):
        return tuple(_join(column) for column in zip(*parts))
    if isinstance(first, Jet2):
        return Jet2(*(np.concatenate([getattr(j, f) for j in parts])
                      for f in ("value", "grad", "hess")))
    if isinstance(first, ResidualSample):
        # a batch's one floor (a float) holds at each of its points
        return ResidualSample(*(np.concatenate([
            np.broadcast_to(getattr(s, f), np.shape(s.raw)).ravel() for s in parts])
            for f in ("raw", "scale", "floor")))
    return np.concatenate(parts)


def batched(fn: Callable, *batches):
    """``fn`` over batches of the same N points, as ``(errors, out)``.

    A batch is a jet or an array with a leading axis of N points, or a tuple
    of them; ``out`` is ``fn(*batches)``, and ``errors`` holds None per point.
    If that raises an EvaluationError, ``fn`` runs on each point as a batch of
    one row instead: ``errors[i]`` is the error it raised at point i or None,
    and ``out`` joins its results at the other points (None if there are
    none).  A batch of one row that raises is not run again: its error is its
    point's.  ``fn`` only ever sees batches.
    """
    n = _size(batches[0])
    if not n:
        return [], None
    try:
        return [None] * n, fn(*batches)
    except EvaluationError as err:
        if n == 1:
            return [err], None
    errors, outs = [], []
    for i in range(n):
        try:
            outs.append(fn(*(take(b, slice(i, i + 1)) for b in batches)))
            errors.append(None)
        except EvaluationError as err:
            errors.append(err)
    return errors, _join(outs) if outs else None


def by_point(samples: Sequence[ResidualSample]) -> ResidualSample:
    """The ``samples`` of one batch as one sample, point by point: each
    sample's value at point 0 in turn, then at point 1, and so on."""
    return ResidualSample(*(
        np.stack([np.broadcast_to(getattr(s, f), s.raw.shape) for s in samples], axis=-1).ravel()
        for f in ("raw", "scale", "floor")))


def _norms(out):
    """The ``(N, samples)`` normalized residuals of a batch's sample(s)."""
    samples = (out,) if isinstance(out, ResidualSample) else out
    return np.stack([np.asarray(s.normalized) for s in samples], axis=-1)


def sweep(
    batch,
    evaluate: Callable[[object], ResidualSample | Sequence[ResidualSample]],
    skipped: int = 0,
) -> ResidualReport:
    """Evaluate a residual over the points of ``batch`` (None for no point),
    whose ``skipped`` other points were already singular.

    ``evaluate`` maps a batch to one sample or a sequence of samples.  Where
    it raises ``EvaluationError`` over the batch, each point is evaluated as
    a batch of one row, and a point where it raises is skipped too
    (:func:`batched`).  Norms are reduced point by point, and within a point
    sample by sample.
    """
    norms = None
    if batch is not None:
        errors, norms = batched(lambda b: _norms(evaluate(b)), batch)
        skipped += len(errors) - errors.count(None)
    return _report(norms, skipped)


# -- the equations ---------------------------------------------------------------


def complex_bateman(phi: Jet2) -> ResidualSample:
    """First complexification over (x1, x2, xb1, xb2):

    r = p1*pb1*p2b2 + p2*pb2*p1b1 - p1*pb2*pb1_2 - p2*pb1*p1b2
    """
    if phi.k != 4:
        raise ValueError(f"expected arity 4, got {phi.k}")
    g = phi.grad
    H = phi.hess
    terms = (
        g[..., 0] * g[..., 2] * H[..., 1, 3],
        g[..., 1] * g[..., 3] * H[..., 0, 2],
        -g[..., 0] * g[..., 3] * H[..., 2, 1],
        -g[..., 1] * g[..., 2] * H[..., 0, 3],
    )
    coef = (abs(g[..., 0] * g[..., 2]) + abs(g[..., 1] * g[..., 3])
            + abs(g[..., 0] * g[..., 3]) + abs(g[..., 1] * g[..., 2]))
    return _from_terms(terms, floor=coef * np.abs(H).max(axis=(-2, -1)))


def two_field_bateman(phi: Jet2, phibar: Jet2, conjugate: bool = False) -> ResidualSample:
    """Second complexification over (t, x) for the pair (phi, phibar).

    ``conjugate=True`` exchanges the roles of the two fields (the conjugate
    member of the pair of equations).
    """
    if phi.k != 2 or phibar.k != 2:
        raise ValueError("expected two jets of arity 2")
    if conjugate:
        phi, phibar = phibar, phi
    g, H = phi.grad, phi.hess
    gb = phibar.grad
    terms = (
        gb[..., 1] * g[..., 1] * H[..., 0, 0],
        -gb[..., 1] * g[..., 0] * H[..., 0, 1],
        -gb[..., 0] * g[..., 1] * H[..., 0, 1],
        gb[..., 0] * g[..., 0] * H[..., 1, 1],
    )
    coef = (abs(gb[..., 1] * g[..., 1]) + abs(gb[..., 1] * g[..., 0])
            + abs(gb[..., 0] * g[..., 1]) + abs(gb[..., 0] * g[..., 0]))
    return _from_terms(terms, floor=coef * np.abs(H).max(axis=(-2, -1)))


def born_infeld(phi: Jet2, lam: float) -> ResidualSample:
    """Light-cone Born-Infeld over (t, x):

    r = phi_x^2 phi_tt + phi_t^2 phi_xx - (lam + 2 phi_x phi_t) phi_xt

    The cross-derivative term is confirmed against an independent symbolic
    oracle in the test suite before being trusted here.
    """
    if phi.k != 2:
        raise ValueError(f"expected arity 2, got {phi.k}")
    g, H = phi.grad, phi.hess
    terms = (
        _square(g[..., 1]) * H[..., 0, 0],
        _square(g[..., 0]) * H[..., 1, 1],
        -(lam + 2.0 * g[..., 1] * g[..., 0]) * H[..., 0, 1],
    )
    coef = _square(g[..., 1]) + _square(g[..., 0]) + abs(lam + 2.0 * g[..., 1] * g[..., 0])
    return _from_terms(terms, floor=coef * np.abs(H).max(axis=(-2, -1)))


def euclidean_3d(phi: Jet2) -> ResidualSample:
    """Euclidean-Lagrangian equation over (t, x, y)."""
    if phi.k != 3:
        raise ValueError(f"expected arity 3, got {phi.k}")
    g, H = phi.grad, phi.hess
    terms = (
        H[..., 0, 0] * (_square(g[..., 1]) + _square(g[..., 2])),
        H[..., 1, 1] * (_square(g[..., 2]) + _square(g[..., 0])),
        H[..., 2, 2] * (_square(g[..., 0]) + _square(g[..., 1])),
        -2.0 * H[..., 0, 1] * g[..., 0] * g[..., 1],
        -2.0 * H[..., 2, 0] * g[..., 2] * g[..., 0],
        -2.0 * H[..., 1, 2] * g[..., 1] * g[..., 2],
    )
    coef = 4.0 * _dot(g, g) + 2.0 * (abs(g[..., 0] * g[..., 1]) + abs(g[..., 2] * g[..., 0])
                                     + abs(g[..., 1] * g[..., 2]))
    return _from_terms(terms, floor=coef * np.abs(H).max(axis=(-2, -1)))


def euclidean_first_order(phi: Jet2) -> tuple[ResidualSample, ResidualSample]:
    """First-order system behind the Euclidean equation, via u = phi_t/phi_x,
    v = phi_y/phi_x:

        u u_x + v v_x = u_t + v_y + v^2 u_t - u v (u_y + v_t) + u^2 v_y
        u v_x - v u_x = v_t - u_y
    """
    if phi.k != 3:
        raise ValueError(f"expected arity 3, got {phi.k}")
    g, H = phi.grad, phi.hess
    px = g[..., 1]
    if _any(px == 0.0):
        raise EvaluationError("phi_x vanishes; speeds undefined")
    u = g[..., 0] / px
    v = g[..., 2] / px

    def d(num_idx: int, wrt: int):
        # d/dx_wrt of (phi_{num_idx} / phi_x)
        return (H[..., num_idx, wrt] * px - g[..., num_idx] * H[..., 1, wrt]) / (px * px)

    u_t, u_x, u_y = d(0, 0), d(0, 1), d(0, 2)
    v_t, v_x, v_y = d(2, 0), d(2, 1), d(2, 2)

    dmax = functools.reduce(_larger, (abs(u_t), abs(u_x), abs(u_y),
                                      abs(v_t), abs(v_x), abs(v_y)))
    coef1 = abs(u) + abs(v) + 2.0 + _square(v) + 2.0 * abs(u * v) + _square(u)
    first = _from_terms((
        u * u_x,
        v * v_x,
        -u_t,
        -v_y,
        -_square(v) * u_t,
        u * v * (u_y + v_t),
        -_square(u) * v_y,
    ), floor=coef1 * dmax)
    second = _from_terms((u * v_x, -v * u_x, -v_t, u_y),
                         floor=(abs(u) + abs(v) + 2.0) * dmax)
    return first, second


# The permutations of the 5x5 determinant matrix whose terms can be nonzero:
# rows 0 and 1 in columns 2-4.
_PERMANENT_TERMS = [p for p in itertools.permutations(range(5)) if min(p[:2]) >= 2]


def multifield_det_grid(
    grads: Sequence[np.ndarray], hess_j: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """5x5 determinant equation over (x1, x2, x3) for field index j, on a
    batch of nodes.

    Rows 1-2 hold the barred-field gradients, rows 3-5 pair the unbarred
    gradients with the Hessian rows of field j.  ``grads`` is (phi1, phi2, phibar1, phibar2), each of shape (N, 3);
    ``hess_j`` has shape (N, 3, 3).  Returns (raw, scale) arrays: the
    determinant and the permanent of absolute values (an upper bound on the
    expansion's term-magnitude sum).
    """
    g1, g2, gb1, gb2 = (np.asarray(g, dtype=float) for g in grads)
    n = g1.shape[0]
    m = np.zeros((n, 5, 5))
    m[:, 0, 2:] = gb1
    m[:, 1, 2:] = gb2
    m[:, 2:, 0] = g1
    m[:, 2:, 1] = g2
    m[:, 2:, 2:] = hess_j
    raw = np.linalg.det(m)
    am = np.abs(m)
    scale = np.zeros(n)
    # Finite entries make every term through the zero block of rows 0-1 and
    # columns 0-1 exactly 0.0, which leaves the non-negative sum as it is;
    # an inf or NaN entry turns such a term into NaN, so then every term counts.
    finite = np.count_nonzero(np.isfinite(am)) == am.size
    for perm in _PERMANENT_TERMS if finite else itertools.permutations(range(5)):
        scale += (
            am[:, 0, perm[0]] * am[:, 1, perm[1]] * am[:, 2, perm[2]]
            * am[:, 3, perm[3]] * am[:, 4, perm[4]]
        )
    return raw, scale


def transport(field: Jet2, speeds: Sequence[float], time_axis: int,
              space_axes: Sequence[int]) -> ResidualSample:
    """r = d_time field + sum_j speeds[j] * d_{space_j} field."""
    if len(speeds) != len(space_axes):
        raise ValueError("speeds and space axes differ in length")
    axes = (time_axis, *space_axes)
    if any(a < 0 or a >= field.k for a in axes):
        raise ValueError(f"axes {axes} out of range for arity {field.k}")
    g = field.grad
    terms = [g[..., time_axis]]
    terms.extend(s * g[..., a] for s, a in zip(speeds, space_axes))
    coef = 1.0 + sum(abs(s) for s in speeds)
    return _from_terms(terms, floor=coef * np.abs(g).max(axis=-1))
