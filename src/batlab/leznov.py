"""Zero-curvature construction on a 2n-coordinate space (n = 2 or 3).

Fields phi^1..phi^{n-1} are defined implicitly by the (n-1) constraints

    Q^i(phi; x_1..x_n) = P^i(phi; xb_1..xb_n),

their derivatives follow from implicit differentiation, and the speed fields

    v = -(Q_x)^{-1} Q_{x_n},   u = -(P_xb)^{-1} P_{xb_n}

make the directional operators annihilate the constructed fields.

The operator pair can be written with either speed family on the x block, and
both bindings are exposed:

* ``v_on_x`` (default): D = d/dx_n + sum_k v^k d/dx_k,
  Dbar = d/dxb_n + sum_k u^k d/dxb_k.  With the derived speeds this
  annihilates phi (and any function of (phi, xb) resp. (phi, x)), and the
  zero-curvature residuals are D u^j and Dbar v^j.
* ``u_on_x``: the operators with u on the x block and v on the xb block.

The test suite records which binding yields vanishing residuals on
constructed systems (it is ``v_on_x``).

Everything at a point follows from one Newton solve: :func:`solve_constraints`
returns the field jets, :func:`speed_jets` derives the speeds from that
solution, and the residual functions read both.  :func:`solve_points` does
this once per sample point, so every check of a case shares the same solves.
The symbolic partials of Q and P are built once per :class:`LeznovSystem`.

Coordinate order of all jets: (x_1..x_n, xb_1..xb_n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import jets
from .construct import ImplicitSolveConfig
from .errors import EvaluationError, NewtonConvergenceError, SingularMatrixError
from .exprspec import ExprSpec, eval_float, eval_jet, partial
from .residuals import (
    ResidualReport,
    ResidualSample,
    TransportPattern,
    attempt,
    grid_report,
    transport,
    unwrap,
)

_COND_LIMIT = 1e10


def _field_names(n: int) -> tuple[str, ...]:
    return ("phi",) if n == 2 else tuple(f"phi{j + 1}" for j in range(n - 1))


@dataclass
class LeznovSystem:
    """(n-1) constraint pairs plus solver configuration.

    Q^i may use the field names and x1..xn; P^i the field names and xb1..xbn.
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
        fields = set(self.fields)
        x_names = {f"x{k + 1}" for k in range(self.n)}
        xb_names = {f"xb{k + 1}" for k in range(self.n)}
        for i, q in enumerate(self.Q):
            extra = set(q.vars) - fields - x_names
            if extra:
                raise ValueError(f"Q[{i}] uses unknown variables {sorted(extra)}")
        for i, p in enumerate(self.P):
            extra = set(p.vars) - fields - xb_names
            if extra:
                raise ValueError(f"P[{i}] uses unknown variables {sorted(extra)}")
        self._dq_phi = [[partial(q, f) if f in q.vars else None for f in self.fields]
                        for q in self.Q]
        self._dp_phi = [[partial(p, f) if f in p.vars else None for f in self.fields]
                        for p in self.P]
        # Coordinate partials, for the speeds: Q^i_{x_k} and P^i_{xb_k}.
        self._dq_x = [[partial(q, x) if x in q.vars else None
                       for x in map(self.x_name, range(self.n))] for q in self.Q]
        self._dp_xb = [[partial(p, xb) if xb in p.vars else None
                        for xb in map(self.xb_name, range(self.n))] for p in self.P]

    @property
    def fields(self) -> tuple[str, ...]:
        return _field_names(self.n)

    @property
    def nf(self) -> int:
        return self.n - 1

    def x_name(self, k: int) -> str:
        return f"x{k + 1}"

    def xb_name(self, k: int) -> str:
        return f"xb{k + 1}"


@dataclass
class LeznovSolution:
    """Per-point solve result: field values and their arity-2n jets."""

    point: np.ndarray
    phi: np.ndarray
    field_jets: list


def _float_args(sys: LeznovSystem, spec_vars, phi, point) -> dict:
    args = {}
    for name in spec_vars:
        if name.startswith("phi"):
            idx = 0 if name == "phi" else int(name[3:]) - 1
            args[name] = float(phi[idx])
        elif name.startswith("xb"):
            args[name] = float(point[sys.n + int(name[2:]) - 1])
        else:
            args[name] = float(point[int(name[1:]) - 1])
    return args


def _gaps(sys: LeznovSystem, phi, point) -> np.ndarray:
    """Q^i - P^i at field values ``phi`` and coordinates ``point``."""
    out = np.empty(sys.nf)
    for i in range(sys.nf):
        qa = _float_args(sys, sys.Q[i].vars, phi, point)
        pa = _float_args(sys, sys.P[i].vars, phi, point)
        out[i] = eval_float(sys.Q[i], qa) - eval_float(sys.P[i], pa)
    return out


def solve_constraints(sys: LeznovSystem, point, seed=None) -> LeznovSolution:
    """Newton solve of Q - P = 0; jets by two implicit differentiation passes."""
    point = np.asarray(point, dtype=float)
    if point.shape != (2 * sys.n,):
        raise ValueError(f"point must have {2 * sys.n} coordinates")
    nf = sys.nf
    s = sys.cfg.seed if seed is None else seed
    phi = np.full(nf, float(s)) if np.isscalar(s) else np.asarray(s, dtype=float).copy()
    if phi.shape != (nf,):
        raise ValueError(f"seed must have {nf} components")

    def jacobian(p):
        out = np.zeros((nf, nf))
        for i in range(nf):
            for m in range(nf):
                dq, dp = sys._dq_phi[i][m], sys._dp_phi[i][m]
                if dq is not None:
                    out[i, m] += eval_float(dq, _float_args(sys, dq.vars, p, point))
                if dp is not None:
                    out[i, m] -= eval_float(dp, _float_args(sys, dp.vars, p, point))
        return out

    best, best_r = phi.copy(), math.inf
    for _ in range(sys.cfg.max_iter):
        r = _gaps(sys, phi, point)
        rmax = np.abs(r).max()
        if rmax < best_r:
            best, best_r = phi.copy(), rmax
        if rmax == 0.0:
            break
        jac = jacobian(phi)
        if not np.isfinite(jac).all() or np.linalg.cond(jac) > _COND_LIMIT:
            if best_r <= sys.cfg.newton_tol:
                break
            raise SingularMatrixError("constraint jacobian (P_phi - Q_phi) is singular")
        step = np.linalg.solve(jac, r)
        nxt = phi - step
        if not np.isfinite(nxt).all():
            break
        if np.array_equal(nxt, phi):
            break
        phi = nxt
    else:
        r = _gaps(sys, phi, point)
        if np.abs(r).max() < best_r:
            best, best_r = phi.copy(), np.abs(r).max()
    if best_r > sys.cfg.newton_tol:
        raise NewtonConvergenceError(
            f"constraint Newton stalled at |Q - P| = {best_r!r}")
    phi = best

    # Second-order data of each constraint in its own variables.
    kq = nf + sys.n
    q_jets, p_jets = [], []
    for i in range(nf):
        qargs = {}
        for m, name in enumerate(sys.fields):
            qargs[name] = jets.variable(m, phi[m], kq)
        for k in range(sys.n):
            qargs[sys.x_name(k)] = jets.variable(nf + k, point[k], kq)
        q_jets.append(eval_jet(sys.Q[i], qargs, k=kq))
        pargs = {}
        for m, name in enumerate(sys.fields):
            pargs[name] = jets.variable(m, phi[m], kq)
        for k in range(sys.n):
            pargs[sys.xb_name(k)] = jets.variable(nf + k, point[sys.n + k], kq)
        p_jets.append(eval_jet(sys.P[i], pargs, k=kq))

    # First derivatives: (P_phi - Q_phi) phi_a = Q_a (x block), -P_a (xb block).
    m_mat = np.empty((nf, nf))
    for i in range(nf):
        for m in range(nf):
            m_mat[i, m] = p_jets[i].grad[m] - q_jets[i].grad[m]
    if np.linalg.cond(m_mat) > _COND_LIMIT:
        raise SingularMatrixError("(P_phi - Q_phi) is singular at the root")

    nz = 2 * sys.n
    grads = np.zeros((nf, nz))  # grads[m][a] = phi^m_a
    for a in range(nz):
        rhs = np.empty(nf)
        for i in range(nf):
            if a < sys.n:
                rhs[i] = q_jets[i].grad[nf + a]
            else:
                rhs[i] = -p_jets[i].grad[nf + (a - sys.n)]
        grads[:, a] = np.linalg.solve(m_mat, rhs)

    # Second derivatives: M phi_ab = C_phiphi:phi_a phi_b + C_phia phi_b
    #                              + C_phib phi_a + C_ab, with C = Q - P.
    def c_coord_coord(i, a, b):
        if a < sys.n and b < sys.n:
            return q_jets[i].hess[nf + a, nf + b]
        if a >= sys.n and b >= sys.n:
            return -p_jets[i].hess[nf + a - sys.n, nf + b - sys.n]
        return 0.0

    def c_phi_coord(i, m, a):
        if a < sys.n:
            return q_jets[i].hess[m, nf + a]
        return -p_jets[i].hess[m, nf + a - sys.n]

    hesses = np.zeros((nf, nz, nz))
    for a in range(nz):
        for b in range(a, nz):
            rhs = np.empty(nf)
            for i in range(nf):
                quad = 0.0
                for m in range(nf):
                    for r in range(nf):
                        quad += ((q_jets[i].hess[m, r] - p_jets[i].hess[m, r])
                                 * grads[m, a] * grads[r, b])
                    quad += c_phi_coord(i, m, a) * grads[m, b]
                    quad += c_phi_coord(i, m, b) * grads[m, a]
                quad += c_coord_coord(i, a, b)
                rhs[i] = quad
            sol = np.linalg.solve(m_mat, rhs)
            hesses[:, a, b] = sol
            hesses[:, b, a] = sol

    field_jets = [jets.from_parts(phi[m], grads[m], hesses[m]) for m in range(nf)]
    return LeznovSolution(point, phi.copy(), field_jets)


def _jet_args(sys: LeznovSystem, sol: LeznovSolution) -> dict:
    """Field jets and coordinate variables at a solved point, by name."""
    nz = 2 * sys.n
    args = {name: sol.field_jets[m] for m, name in enumerate(sys.fields)}
    for k in range(sys.n):
        args[sys.x_name(k)] = jets.variable(k, sol.point[k], nz)
        args[sys.xb_name(k)] = jets.variable(sys.n + k, sol.point[sys.n + k], nz)
    return args


# -- speeds -------------------------------------------------------------------------


def _matrix_solve_jets(a_rows, b_vec):
    """x = A^{-1} b for a (1x1 or 2x2) matrix of jets; raises on singularity."""
    if len(b_vec) == 1:
        a = a_rows[0][0]
        if abs(a.value) <= 1e-10 * (1.0 + abs(b_vec[0].value)):
            raise SingularMatrixError("speed matrix is singular")
        return [b_vec[0] / a]
    (a11, a12), (a21, a22) = a_rows
    det = a11 * a22 - a12 * a21
    vals = np.array([[a11.value, a12.value], [a21.value, a22.value]])
    scale = np.abs(vals).max() ** 2
    if abs(det.value) <= 1e-10 * max(scale, 1e-30) or np.linalg.cond(vals) > _COND_LIMIT:
        raise SingularMatrixError("speed matrix is singular")
    x1 = (a22 * b_vec[0] - a12 * b_vec[1]) / det
    x2 = (a11 * b_vec[1] - a21 * b_vec[0]) / det
    return [x1, x2]


def speed_jets(sys: LeznovSystem, sol: LeznovSolution):
    """(u_jets, v_jets) at a solved point, each a list of arity-2n jets.

    v = -(Q_x)^{-1} Q_{x_n} and u = -(P_xb)^{-1} P_{xb_n}, differentiated
    through the constraint solution by evaluating the symbolic coordinate
    partials of Q and P on the full field jets.
    """
    nz = 2 * sys.n
    nf = sys.nf
    args = _jet_args(sys, sol)

    def partial_jet(d):
        if d is None:
            return jets.constant(0.0, nz)
        return eval_jet(d, {k: v for k, v in args.items() if k in d.vars}, k=nz)

    q_x = [[partial_jet(sys._dq_x[i][k]) for k in range(nf)] for i in range(nf)]
    q_xn = [partial_jet(sys._dq_x[i][sys.n - 1]) for i in range(nf)]
    p_xb = [[partial_jet(sys._dp_xb[i][k]) for k in range(nf)] for i in range(nf)]
    p_xbn = [partial_jet(sys._dp_xb[i][sys.n - 1]) for i in range(nf)]

    v = [-w for w in _matrix_solve_jets(q_x, q_xn)]
    u = [-w for w in _matrix_solve_jets(p_xb, p_xbn)]
    return u, v


def solve_points(sys: LeznovSystem, points) -> list:
    """One constraint solve per point, with the speeds derived from it.

    Each entry is a ``(solution, (u, v))`` pair of :func:`residuals.attempt`
    results: a failed solve leaves its EvaluationError in both places, a
    failed speed derivation only in the second.
    """
    out = []
    for point in points:
        sol = attempt(solve_constraints, sys, point)
        speeds = sol if isinstance(sol, EvaluationError) else attempt(speed_jets, sys, sol)
        out.append((sol, speeds))
    return out


# -- directional operators -------------------------------------------------------------


def apply_D(field_jet, u_vals, v_vals, n: int, which: str = "D",
            speeds_on_x: str = "v") -> ResidualSample:
    """Directional derivative of a field jet.

    ``which="D"`` acts on the x block (time-like coordinate x_n), ``"Dbar"``
    on the xb block.  ``speeds_on_x`` picks the binding: ``"v"`` puts the
    v speeds on the x block and u on the xb block; ``"u"`` swaps them.
    """
    if which not in ("D", "Dbar"):
        raise ValueError("which must be 'D' or 'Dbar'")
    if speeds_on_x not in ("u", "v"):
        raise ValueError("speeds_on_x must be 'u' or 'v'")
    if which == "D":
        time_idx = n - 1
        space = range(0, n - 1)
        speeds = v_vals if speeds_on_x == "v" else u_vals
    else:
        time_idx = 2 * n - 1
        space = range(n, 2 * n - 1)
        speeds = u_vals if speeds_on_x == "v" else v_vals
    return transport(field_jet, speeds, TransportPattern(time_idx, tuple(space)))


def holomorphy_reports(sys: LeznovSystem, solved, speeds_on_x: str = "v"):
    """D phi^j and Dbar phi^j residual reports over points from :func:`solve_points`."""
    d_samples, dbar_samples = [], []
    skipped = 0
    for sol, speeds in solved:
        try:
            sol, (u, v) = unwrap(sol), unwrap(speeds)
        except EvaluationError:
            skipped += 1
            continue
        u_vals = [j.value for j in u]
        v_vals = [j.value for j in v]
        for fj in sol.field_jets:
            d_samples.append(apply_D(fj, u_vals, v_vals, sys.n, "D", speeds_on_x))
            dbar_samples.append(apply_D(fj, u_vals, v_vals, sys.n, "Dbar", speeds_on_x))
    return (grid_report("leznov_d_phi", d_samples, skipped),
            grid_report("leznov_dbar_phi", dbar_samples, skipped))


def verify_zero_curvature(sys: LeznovSystem, solved, speeds_on_x: str = "v") -> ResidualReport:
    """Commutator residuals of the operator pair on the derived speeds, over
    points from :func:`solve_points`.

    Under the ``v_on_x`` binding the pair commutes iff D u^j = 0 and
    Dbar v^j = 0; under ``u_on_x`` iff D v^j = 0 and Dbar u^j = 0.
    """
    samples = []
    skipped = 0
    for _, speeds in solved:
        try:
            u, v = unwrap(speeds)
        except EvaluationError:
            skipped += 1
            continue
        u_vals = [j.value for j in u]
        v_vals = [j.value for j in v]
        if speeds_on_x == "v":
            first, second = u, v
        else:
            first, second = v, u
        for fj in first:
            samples.append(apply_D(fj, u_vals, v_vals, sys.n, "D", speeds_on_x))
        for fj in second:
            samples.append(apply_D(fj, u_vals, v_vals, sys.n, "Dbar", speeds_on_x))
    return grid_report(f"zero_curvature[{speeds_on_x}_on_x]", samples, skipped)


def constraint_gap(sys: LeznovSystem, sol: LeznovSolution) -> float:
    """max_i |Q^i - P^i| at a solved root (should sit at solver precision)."""
    return float(np.abs(_gaps(sys, sol.phi, sol.point)).max())


def constraint_gap_report(sys: LeznovSystem, solved) -> ResidualReport:
    """Worst :func:`constraint_gap` over points from :func:`solve_points`."""
    worst, used, skipped = 0.0, 0, 0
    for sol, _ in solved:
        try:
            worst = max(worst, constraint_gap(sys, unwrap(sol)))
            used += 1
        except EvaluationError:
            skipped += 1
    return ResidualReport("constraint_gap", used, worst, worst, skipped)

