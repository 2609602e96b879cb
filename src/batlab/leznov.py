"""Zero-curvature construction on a 2n-coordinate space (n = 2 or 3).

Fields phi^1..phi^{n-1} are defined implicitly by the (n-1) constraints

    Q^i(phi; x_1..x_n) = P^i(phi; xb_1..xb_n),

their derivatives follow from implicit differentiation, and the speed fields

    v = -(Q_x)^{-1} Q_{x_n},   u = -(P_xb)^{-1} P_{xb_n}

make the directional operators annihilate the constructed fields.

The directional operators carry v on the x block and u on the xb block:

    D = d/dx_n + sum_k v^k d/dx_k,   Dbar = d/dxb_n + sum_k u^k d/dxb_k.

With the derived speeds this pair annihilates phi (and any function of
(phi, xb) resp. (phi, x)), and the zero-curvature residuals are D u^j and
Dbar v^j.  The other binding, u on the x block, does not annihilate the
constructed fields; ``test_binding_comparison_records_v_on_x`` in
``tests/test_leznov.py`` records that.

A case solves all its sample points as one batch (:func:`solve_many`, one
batched Newton solve through ``construct._newton``) for the field values;
:func:`solve_constraints` is the same solve at one point.  Everything else is
written once for one point and for a batch of solved points (a ``Jet2`` with a
leading axis), each point of a batch the bits of its one-point result:
:func:`field_jets` differentiates the constraints implicitly,
:func:`speed_jets` derives the speeds from the field jets, and
:func:`holomorphy_samples` and :func:`zero_curvature_samples` apply the
operators.  A :class:`LeznovSystem` maps each variable name to its slot in
(phi, point) once, and builds the symbolic partials of Q and P by slot once.
The Newton solve evaluates the constraints and their field partials through
positional evaluators over the slots (:func:`~batlab.exprspec.float_fn`,
built once), at one point or a batch; the jet passes bind every slot's value
to its name in one mapping, which every spec and partial evaluated in that
pass reads.

Coordinate order of all jets: (x_1..x_n, xb_1..xb_n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import jets
from .construct import NEWTON_TOL, ImplicitSolveConfig, _newton, _solved
from .errors import SingularMatrixError
# eval_float is not called here; the benchmark's tracer (perfbench/tracing.py)
# patches this binding by name.
from .exprspec import ExprSpec, eval_float, eval_jet, float_fn, partial  # noqa: F401
from .residuals import _any, _larger, _solve, _square, transport

_COND_LIMIT = 1e10


@dataclass
class LeznovSystem:
    """(n-1) constraint pairs plus solver configuration.

    Q^i may use the field names and x1..xn; P^i the field names and xb1..xbn.
    The fields are ``phi`` for n = 2 and ``phi1``, ``phi2`` for n = 3.
    """

    n: int
    Q: Sequence[ExprSpec]
    P: Sequence[ExprSpec]
    cfg: ImplicitSolveConfig

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError("n must be 2 or 3")
        if len(self.Q) != self.n - 1 or len(self.P) != self.n - 1:
            raise ValueError(f"need exactly {self.n - 1} Q and P constraints")
        fields = ("phi",) if self.n == 2 else ("phi1", "phi2")
        x = tuple(f"x{k + 1}" for k in range(self.n))
        xb = tuple(f"xb{k + 1}" for k in range(self.n))
        # variable name -> its slot in (phi, point) = (fields, x_1..x_n, xb_1..xb_n)
        self.slots = {name: s for s, name in enumerate(fields + x + xb)}
        for what, specs, coords in (("Q", self.Q, x), ("P", self.P, xb)):
            for i, spec in enumerate(specs):
                extra = set(spec.vars) - set(fields) - set(coords)
                if extra:
                    raise ValueError(f"{what}[{i}] uses unknown variables {sorted(extra)}")
        self.seed_fields(self.cfg.seed)
        # Symbolic partials of Q^i and P^i by slot (None where a variable is absent).
        self._dq = [[partial(q, v) if v in q.vars else None for v in self.slots] for q in self.Q]
        self._dp = [[partial(p, v) if v in p.vars else None for v in self.slots] for p in self.P]
        # Positional evaluators over the slots: Q^i and P^i, and their field
        # partials (None where a field is absent).
        names = tuple(self.slots)
        self._gap_fns = [(float_fn(q, names), float_fn(p, names)) for q, p in zip(self.Q, self.P)]
        self._jac_fns = [[tuple(None if d is None else float_fn(d, names) for d in (dq[m], dp[m]))
                          for m in range(self.nf)] for dq, dp in zip(self._dq, self._dp)]

    @property
    def nf(self) -> int:
        return self.n - 1

    def seed_fields(self, seed) -> np.ndarray:
        """Initial field values from a scalar seed or one of ``nf`` components."""
        phi = np.full(self.nf, float(seed)) if np.isscalar(seed) else np.asarray(
            seed, dtype=float).copy()
        if phi.shape != (self.nf,):
            raise ValueError(f"seed must have {self.nf} components")
        return phi


def _slot_values(phi, point) -> list:
    """The value of each slot of (phi, point): floats at one point, arrays of
    one value per point over a batch."""
    return [phi[..., m] for m in range(phi.shape[-1])] + [
        point[..., a] for a in range(point.shape[-1])]


def _gaps(sys: LeznovSystem, phi, point) -> np.ndarray:
    """Q^i - P^i at field values ``phi`` and coordinates ``point``: ``(n-1,)``
    at one point, ``(N, n-1)`` over a batch."""
    values = _slot_values(phi, point)
    return np.stack([q(*values) - p(*values) for q, p in sys._gap_fns], axis=-1)


def _jacobian(sys: LeznovSystem, phi, point) -> np.ndarray:
    """d(Q - P)/dphi at field values ``phi`` and coordinates ``point``, one
    point or a batch."""
    values = _slot_values(phi, point)
    jac = np.zeros(phi.shape + (sys.nf,))
    for i, row in enumerate(sys._jac_fns):
        for m, (dq, dp) in enumerate(row):
            if dq is not None:
                jac[..., i, m] += dq(*values)
            if dp is not None:
                jac[..., i, m] -= dp(*values)
    return jac


def solve_constraints(sys: LeznovSystem, point, seed=None) -> np.ndarray:
    """The field values phi at one point, from ``seed`` (else the configured
    seed): :func:`solve_many` of that one point."""
    errors, phi = solve_many(sys, [point], None if seed is None else [seed])
    if errors[0] is not None:
        raise errors[0]
    return phi[0]


def solve_many(sys: LeznovSystem, points, seeds=None) -> tuple[list, np.ndarray]:
    """``(errors, phi)`` at the ``(N, 2n)`` ``points``: the Newton solves of
    Q - P = 0, each from its seed in ``seeds`` (else the configured seed).
    Per point the EvaluationError of its solve or None, and the ``(M, n-1)``
    field values of the M points without one, in order."""
    points = np.asarray(points, dtype=float)
    if points.shape[1:] != (2 * sys.n,):
        raise ValueError(f"point must have {2 * sys.n} coordinates")

    def residual(i, phi):
        r = _gaps(sys, phi, points[i])
        return np.abs(r).max(axis=-1), r

    def step(i, phi, r):
        jac = _jacobian(sys, phi, points[i])
        # as at one point: condition numbers only once every entry is finite
        if not np.isfinite(jac).all() or (np.linalg.cond(jac) > _COND_LIMIT).any():
            raise SingularMatrixError("constraint jacobian (P_phi - Q_phi) is singular")
        nxt = phi - _solve(jac, r)
        return nxt, ~np.isfinite(nxt).all(axis=-1) | (nxt == phi).all(axis=-1)

    seeds = [sys.cfg.seed] * len(points) if seeds is None else seeds
    phi = np.array([sys.seed_fields(s) for s in seeds]).reshape(len(points), sys.nf)
    return _solved(*_newton(residual, step, phi, sys.cfg.max_iter, NEWTON_TOL))


def field_jets(sys: LeznovSystem, points, phi) -> tuple:
    """The jets of phi^1..phi^{n-1} at solved points, by two implicit
    differentiation passes: at one point (``(2n,)`` coordinates, ``(n-1,)``
    field values from :func:`solve_constraints`) or over a batch (``(N, 2n)``
    and ``(N, n-1)``, from :func:`solve_many`)."""
    n, nf, nz = sys.n, sys.nf, 2 * sys.n
    phis = [phi[..., m] for m in range(nf)]
    coords = [points[..., a] for a in range(nz)]

    # Second-order data of each constraint in its own variables: Q^i over
    # (phi, x) and P^i over (phi, xb), so the x and xb blocks share jet slots.
    kq = nf + n
    args = dict(zip(sys.slots, jets.variables(phis + coords[:n])
                    + jets.variables(phis + coords[n:])[nf:]))
    q_jets = [eval_jet(q, args, k=kq) for q in sys.Q]
    p_jets = [eval_jet(p, args, k=kq) for p in sys.P]
    qg, pg = (np.stack([j.grad for j in js], axis=-2) for js in (q_jets, p_jets))
    qh, ph = (np.stack([j.hess for j in js], axis=-3) for js in (q_jets, p_jets))

    # Derivatives of C^i = Q^i - P^i by block, over (phi, z) with z = (x, xb);
    # the constraint index i is the first axis after the batch's.
    c_z = np.concatenate((qg[..., nf:], -pg[..., nf:]), axis=-1)
    c_pp = qh[..., :nf, :nf] - ph[..., :nf, :nf]
    c_pz = np.concatenate((qh[..., :nf, nf:], -ph[..., :nf, nf:]), axis=-1)
    c_zz = np.zeros(qh.shape[:-2] + (nz, nz))
    c_zz[..., :n, :n] = qh[..., nf:, nf:]
    c_zz[..., n:, n:] = -ph[..., nf:, nf:]

    # First derivatives: (P_phi - Q_phi) phi_a = C_a.
    m_mat = pg[..., :nf] - qg[..., :nf]
    if _any(np.linalg.cond(m_mat) > _COND_LIMIT):
        raise SingularMatrixError("(P_phi - Q_phi) is singular at the root")
    grads = np.stack([_solve(m_mat, c_z[..., a]) for a in range(nz)], axis=-1)

    # Second derivatives: M phi_ab = C_phiphi:phi_a phi_b + C_phia phi_b
    #                              + C_phib phi_a + C_ab.
    hesses = np.zeros(grads.shape + (nz,))
    for a in range(nz):
        for b in range(a, nz):
            rhs = []
            for i in range(nf):
                quad = 0.0
                for m in range(nf):
                    for r in range(nf):
                        quad += c_pp[..., i, m, r] * grads[..., m, a] * grads[..., r, b]
                    quad += c_pz[..., i, m, a] * grads[..., m, b]
                    quad += c_pz[..., i, m, b] * grads[..., m, a]
                quad += c_zz[..., i, a, b]
                rhs.append(quad)
            sol = _solve(m_mat, np.stack(rhs, axis=-1))
            hesses[..., a, b] = sol
            hesses[..., b, a] = sol

    return tuple(jets.from_parts(phis[m], grads[..., m, :], hesses[..., m, :, :])
                 for m in range(nf))


# -- speeds -------------------------------------------------------------------------


def _matrix_solve_jets(a_rows, b_vec):
    """x = A^{-1} b for a (1x1 or 2x2) matrix of jets, at one point or over a
    batch; raises if the matrix is singular (at any point of a batch)."""
    if len(b_vec) == 1:
        a = a_rows[0][0]
        if _any(abs(a.value) <= 1e-10 * (1.0 + abs(b_vec[0].value))):
            raise SingularMatrixError("speed matrix is singular")
        return [b_vec[0] / a]
    (a11, a12), (a21, a22) = a_rows
    det = a11 * a22 - a12 * a21
    vals = np.stack([np.stack([a11.value, a12.value], axis=-1),
                     np.stack([a21.value, a22.value], axis=-1)], axis=-2)
    scale = _square(np.abs(vals).max(axis=(-2, -1)))
    if _any((abs(det.value) <= 1e-10 * _larger(scale, 1e-30))
            | (np.linalg.cond(vals) > _COND_LIMIT)):
        raise SingularMatrixError("speed matrix is singular")
    x1 = (a22 * b_vec[0] - a12 * b_vec[1]) / det
    x2 = (a11 * b_vec[1] - a21 * b_vec[0]) / det
    return [x1, x2]


def speed_jets(sys: LeznovSystem, points, fields):
    """(u, v) at solved points, one or a batch, each a tuple of n-1 jets over
    the 2n coordinates, from the :func:`field_jets` ``fields`` there.

    v = -(Q_x)^{-1} Q_{x_n} and u = -(P_xb)^{-1} P_{xb_n}, differentiated
    through the constraint solution by evaluating the symbolic coordinate
    partials of Q and P on the full field jets.
    """
    nz = 2 * sys.n
    nf = sys.nf
    values = list(fields) + jets.variables(np.moveaxis(points, -1, 0))
    args = dict(zip(sys.slots, values))
    count = None if points.ndim == 1 else len(points)

    def partial_jet(d):
        return jets.constant(0.0, nz, count) if d is None else eval_jet(d, args, k=nz)

    x, xb = sys.slots["x1"], sys.slots["xb1"]
    q_x = [[partial_jet(sys._dq[i][x + k]) for k in range(nf)] for i in range(nf)]
    q_xn = [partial_jet(sys._dq[i][x + sys.n - 1]) for i in range(nf)]
    p_xb = [[partial_jet(sys._dp[i][xb + k]) for k in range(nf)] for i in range(nf)]
    p_xbn = [partial_jet(sys._dp[i][xb + sys.n - 1]) for i in range(nf)]

    v = tuple(-w for w in _matrix_solve_jets(q_x, q_xn))
    u = tuple(-w for w in _matrix_solve_jets(p_xb, p_xbn))
    return u, v


# -- directional operators -------------------------------------------------------------


def _operators(n: int, speeds) -> tuple:
    """The pair (D, Dbar), each as (time axis, space axes, speed family), from
    the speed families ``(u, v)``: D acts on the x block along x_n with the v
    speeds, Dbar on the xb block along xb_n with the u speeds."""
    u, v = speeds
    return (n - 1, tuple(range(n - 1)), v), (2 * n - 1, tuple(range(n, 2 * n - 1)), u)


def holomorphy_samples(sys: LeznovSystem, fields, speeds):
    """(D phi^j, Dbar phi^j), each a tuple of one sample per field, at a solved
    point or over a batch, from its :func:`field_jets` and :func:`speed_jets`."""
    return tuple(tuple(transport(f, [s.value for s in family], time_axis, space_axes)
                       for f in fields)
                 for time_axis, space_axes, family in _operators(sys.n, speeds))


def zero_curvature_samples(sys: LeznovSystem, speeds) -> tuple:
    """Commutator residuals of the operator pair on the derived speeds, at a
    solved point or over a batch: the samples of D u^j, then of Dbar v^j.
    The pair commutes iff both vanish.
    """
    (t, xs, v), (tb, xbs, u) = _operators(sys.n, speeds)
    return (tuple(transport(s, [w.value for w in v], t, xs) for s in u)
            + tuple(transport(s, [w.value for w in u], tb, xbs) for s in v))


def constraint_gap(sys: LeznovSystem, point, phi):
    """max_i |Q^i - P^i| at a solved root ``phi`` of ``point`` (should sit at
    solver precision): a float at one point, one per point over a batch."""
    return np.abs(_gaps(sys, phi, point)).max(axis=-1)[()]
