"""Pointwise residual operators for every verified equation.

Each operator consumes second-order jets of the relevant fields and returns a
``ResidualSample``: the signed raw residual together with a normalization
scale equal to the sum of the absolute values of the equation's individual
additive terms.  ``normalized`` is therefore dimensionless and bounded by 1
(triangle inequality) whenever the scale is positive, which makes "small
residual" meaningful even in large-gradient regions.

Coordinate conventions (index order of the incoming jets):

* four-variable first complexification: ``(x1, x2, xb1, xb2)``
* two-field second complexification, Born-Infeld: ``(t, x)``
* three-coordinate Euclidean equation: ``(t, x, y)``
* multi-field determinant: ``(x1, x2, x3)``
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import EvaluationError
from .jets import Jet2

_SCALE_FLOOR = 1e-300


@dataclass(frozen=True)
class ResidualSample:
    """Signed residual plus its normalization.

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
    def normalized(self) -> float:
        return abs(self.raw) / max(self.scale, self.floor, _SCALE_FLOOR)


@dataclass
class ResidualReport:
    """Statistics of one residual operator over a sample set."""

    equation: str
    samples: int
    max_norm: float
    rms_norm: float
    skipped_singular: int


def _from_terms(terms: Sequence[float], floor: float = 0.0) -> ResidualSample:
    raw = math.fsum(terms)
    scale = math.fsum(abs(t) for t in terms)
    return ResidualSample(raw, scale, floor)


def grid_report(
    equation: str, samples: Sequence[ResidualSample], skipped: int = 0
) -> ResidualReport:
    """Aggregate samples from one discretized field against the global term
    magnitude.

    Pointwise normalization is the right measure for exactly-constructed
    fields, but on finite-difference grids both raw and local scale vanish
    together wherever the terms cross zero, so convergence statements are made
    relative to the largest term magnitude on the grid.
    """
    if not samples:
        return ResidualReport(equation, 0, math.inf, math.inf, skipped)
    global_scale = max(max(s.scale, s.floor) for s in samples)
    raws = np.array([abs(s.raw) for s in samples])
    norms = raws / max(global_scale, _SCALE_FLOOR)
    return ResidualReport(equation, len(samples), float(norms.max()),
                          float(np.sqrt(np.mean(norms**2))), skipped)


def attempt(fn: Callable, *args):
    """``fn(*args)``, or the EvaluationError it raised: a singular sample, which
    every check that reads it (through :func:`unwrap`) counts as skipped."""
    try:
        return fn(*args)
    except EvaluationError as err:
        return err


def unwrap(value):
    """The result of an :func:`attempt`; re-raises a singular sample's error."""
    if isinstance(value, EvaluationError):
        raise value.with_traceback(None)
    return value


def sweep(
    equation: str,
    points: Iterable,
    evaluate: Callable[[object], ResidualSample | Sequence[ResidualSample]],
) -> ResidualReport:
    """Evaluate a residual over sample points, skipping singular ones.

    ``evaluate`` maps a point to one sample or a sequence of samples.
    ``EvaluationError`` marks the point as skipped.
    """
    norms: list[float] = []
    skipped = 0
    for point in points:
        try:
            out = evaluate(point)
        except EvaluationError:
            skipped += 1
            continue
        if isinstance(out, ResidualSample):
            norms.append(out.normalized)
        else:
            norms.extend(s.normalized for s in out)
    if norms:
        arr = np.asarray(norms)
        return ResidualReport(equation, len(norms), float(arr.max()),
                              float(np.sqrt(np.mean(arr**2))), skipped)
    return ResidualReport(equation, 0, math.inf, math.inf, skipped)


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
        g[0] * g[2] * H[1, 3],
        g[1] * g[3] * H[0, 2],
        -g[0] * g[3] * H[2, 1],
        -g[1] * g[2] * H[0, 3],
    )
    coef = abs(g[0] * g[2]) + abs(g[1] * g[3]) + abs(g[0] * g[3]) + abs(g[1] * g[2])
    return _from_terms(terms, floor=coef * np.abs(H).max())


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
        gb[1] * g[1] * H[0, 0],
        -gb[1] * g[0] * H[0, 1],
        -gb[0] * g[1] * H[0, 1],
        gb[0] * g[0] * H[1, 1],
    )
    coef = (abs(gb[1] * g[1]) + abs(gb[1] * g[0])
            + abs(gb[0] * g[1]) + abs(gb[0] * g[0]))
    return _from_terms(terms, floor=coef * np.abs(H).max())


def born_infeld(phi: Jet2, lam: float) -> ResidualSample:
    """Light-cone Born-Infeld over (t, x):

    r = phi_x^2 phi_tt + phi_t^2 phi_xx - (lam + 2 phi_x phi_t) phi_xt

    The cross-derivative term is confirmed against an independent symbolic
    oracle in the test suite before being trusted here.
    """
    if phi.k != 2:
        raise ValueError(f"expected arity 2, got {phi.k}")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    g, H = phi.grad, phi.hess
    terms = (
        g[1] ** 2 * H[0, 0],
        g[0] ** 2 * H[1, 1],
        -(lam + 2.0 * g[1] * g[0]) * H[0, 1],
    )
    coef = g[1] ** 2 + g[0] ** 2 + abs(lam + 2.0 * g[1] * g[0])
    return _from_terms(terms, floor=coef * np.abs(H).max())


def euclidean_3d(phi: Jet2) -> ResidualSample:
    """Euclidean-Lagrangian equation over (t, x, y)."""
    if phi.k != 3:
        raise ValueError(f"expected arity 3, got {phi.k}")
    g, H = phi.grad, phi.hess
    terms = (
        H[0, 0] * (g[1] ** 2 + g[2] ** 2),
        H[1, 1] * (g[2] ** 2 + g[0] ** 2),
        H[2, 2] * (g[0] ** 2 + g[1] ** 2),
        -2.0 * H[0, 1] * g[0] * g[1],
        -2.0 * H[2, 0] * g[2] * g[0],
        -2.0 * H[1, 2] * g[1] * g[2],
    )
    coef = 4.0 * float(g @ g) + 2.0 * (abs(g[0] * g[1]) + abs(g[2] * g[0]) + abs(g[1] * g[2]))
    return _from_terms(terms, floor=coef * np.abs(H).max())


def euclidean_first_order(phi: Jet2) -> tuple[ResidualSample, ResidualSample]:
    """First-order system behind the Euclidean equation, via u = phi_t/phi_x,
    v = phi_y/phi_x:

        u u_x + v v_x = u_t + v_y + v^2 u_t - u v (u_y + v_t) + u^2 v_y
        u v_x - v u_x = v_t - u_y
    """
    if phi.k != 3:
        raise ValueError(f"expected arity 3, got {phi.k}")
    g, H = phi.grad, phi.hess
    px = g[1]
    if px == 0.0:
        raise EvaluationError("phi_x vanishes; speeds undefined")
    u = g[0] / px
    v = g[2] / px

    def d(num_idx: int, wrt: int) -> float:
        # d/dx_wrt of (phi_{num_idx} / phi_x)
        return (H[num_idx, wrt] * px - g[num_idx] * H[1, wrt]) / (px * px)

    u_t, u_x, u_y = d(0, 0), d(0, 1), d(0, 2)
    v_t, v_x, v_y = d(2, 0), d(2, 1), d(2, 2)

    dmax = max(abs(u_t), abs(u_x), abs(u_y), abs(v_t), abs(v_x), abs(v_y))
    coef1 = abs(u) + abs(v) + 2.0 + v**2 + 2.0 * abs(u * v) + u**2
    first = _from_terms((
        u * u_x,
        v * v_x,
        -u_t,
        -v_y,
        -(v**2) * u_t,
        u * v * (u_y + v_t),
        -(u**2) * v_y,
    ), floor=coef1 * dmax)
    second = _from_terms((u * v_x, -v * u_x, -v_t, u_y),
                         floor=(abs(u) + abs(v) + 2.0) * dmax)
    return first, second


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
    for perm in itertools.permutations(range(5)):
        scale += (
            am[:, 0, perm[0]] * am[:, 1, perm[1]] * am[:, 2, perm[2]]
            * am[:, 3, perm[3]] * am[:, 4, perm[4]]
        )
    return raw, scale


@dataclass(frozen=True)
class TransportPattern:
    """Which coordinate is time-like and which spatial axes the speeds multiply."""

    time_axis: int
    space_axes: tuple[int, ...]


def transport(field: Jet2, speeds: Sequence[float], pattern: TransportPattern) -> ResidualSample:
    """r = d_time field + sum_j speeds[j] * d_{space_j} field."""
    if len(speeds) != len(pattern.space_axes):
        raise ValueError("speeds and pattern space axes differ in length")
    axes = (pattern.time_axis, *pattern.space_axes)
    if any(a < 0 or a >= field.k for a in axes):
        raise ValueError(f"pattern axes {axes} out of range for arity {field.k}")
    g = field.grad
    terms = [g[pattern.time_axis]]
    terms.extend(s * g[a] for s, a in zip(speeds, pattern.space_axes))
    coef = 1.0 + sum(abs(s) for s in speeds)
    return _from_terms(terms, floor=coef * np.abs(g).max())
