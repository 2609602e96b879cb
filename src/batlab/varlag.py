"""Discrete variational checks for the degenerate three-field Lagrangian.

The density is

    L = (phibar_t psi_x - psi_t phibar_x) * H(phi_t, phi_x)

with H any weight-zero homogeneous factor (default p/q).  The action is the
midpoint-rule sum of L over interior nodes, with all first derivatives taken
by centered differences.  Variational residuals are the *exact* derivatives of
that discrete sum with respect to nodal values: because the density depends on
a nodal value only through the centered stencils, the derivative is the
centered divergence of the momentum grids dL/d(field_t), dL/d(field_x).
All three residuals come from one pass over the interior grid rows: the
density at the nodes of a row is one arity-6 ``jets.Jet2`` over the row's
nodes in every field's slots, so its gradients and Hessians hold the momenta
and the expanded-equation terms of each field at once, and the factor H
evaluated there gives the action density at those nodes.  Each node's data is
bit for bit that of a single-point ``Jet2`` density at the node; a row at a
time keeps the batch's temporaries small.
Convergence of these residuals to zero on sampled exact solutions is then the
tested property.

Residual orientation follows the printed equations of motion: the psi
variation is +dS/dpsi, the phibar and phi variations are -dS/dphibar and
-dS/dphi, so that at psi = W(phibar) the psi and phibar residuals coincide
nodewise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import hydro, jets
from .errors import EvaluationError, JetDomainError
from .exprspec import ExprSpec, eval_jet, float_fn, parse
from .residuals import ResidualSample, grid_report

_SLOTS = ("phi_t", "phi_x", "phibar_t", "phibar_x", "psi_t", "psi_x")


def degree0_test(h_expr: ExprSpec) -> bool:
    """Euler's relation for weight zero: p H_p + q H_q = 0 at 50 random (p, q)."""
    if set(h_expr.vars) - {"p", "q"}:
        raise ValueError("factor must be an expression in (p, q)")
    rng = np.random.default_rng(2024)
    for _ in range(50):
        p = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        q = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        pj = jets.variable(0, p, 2)
        qj = jets.variable(1, q, 2)
        try:
            hj = eval_jet(h_expr, {"p": pj, "q": qj}, k=2)
        except JetDomainError:
            continue
        euler = p * hj.grad[0] + q * hj.grad[1]
        scale = abs(p * hj.grad[0]) + abs(q * hj.grad[1]) + abs(hj.value) + 1e-30
        if abs(euler) > 1e-10 * scale:
            return False
    return True


@dataclass
class DiscreteFunctional:
    """Midpoint-quadrature action on a rectangular (t, x) grid; ``factor``
    must pass the weight-zero test."""

    ht: float
    hx: float
    factor: ExprSpec = field(default_factory=lambda: parse("p/q"))

    def __post_init__(self):
        if self.ht <= 0 or self.hx <= 0:
            raise ValueError("grid spacings must be positive")
        if not degree0_test(self.factor):
            raise ValueError(f"factor {self.factor} is not homogeneous of weight zero")

    def _density_jet(self, slots: Sequence[np.ndarray]) -> tuple[jets.Jet2, np.ndarray]:
        """L at the nodes of one grid row, given each of the six ``_SLOTS``
        there, as a batched arity-6 jet in the slots, whose gradients are the
        full sets of momenta; and the values of the factor H."""
        sv = dict(zip(_SLOTS, jets.variables(slots)))
        bracket = sv["phibar_t"] * sv["psi_x"] - sv["psi_t"] * sv["phibar_x"]
        hj = eval_jet(self.factor, {"p": sv["phi_t"], "q": sv["phi_x"]}, k=6)
        return bracket * hj, hj.value


@dataclass
class DensityPass:
    """Residual grids keyed ``psi``, ``phibar``, ``phi``, each a sample of the
    double-interior nodes for :func:`residuals.grid_report`; L and its
    magnitude (|phibar_t psi_x| + |psi_t phibar_x|) |H| at interior nodes."""

    grids: dict[str, ResidualSample]
    density: np.ndarray
    density_scale: np.ndarray


def variational_residual(
    functional: DiscreteFunctional,
    phi: np.ndarray,
    phibar: np.ndarray,
    psi: np.ndarray,
) -> DensityPass:
    """Exact discrete Euler-Lagrange residuals of all three fields, per unit
    area, with the action density they come from.

    Residuals are defined on nodes two layers inside the grid (one layer for
    the density stencil, another for the divergence of the momenta).
    """
    nt, nx = phi.shape
    if nt < 5 or nx < 5:
        raise ValueError("grid too small: need at least 5 nodes per axis")
    if phibar.shape != (nt, nx) or psi.shape != (nt, nx):
        raise ValueError("field grids must share one shape")

    # (F_t, F_x) of (phi, phibar, psi) are the six _SLOTS; slot (F, t) has
    # derivatives (F_tt, F_tx) and slot (F, x) has (F_tx, F_xx).
    fd = [hydro.fd_derivatives_time_space(F, functional.ht, functional.hx)
          for F in (phi, phibar, psi)]
    slot_grids = [grid for _, ft, fx, _, _, _ in fd for grid in (ft, fx)]
    second = [pair for _, _, _, ftt, ftx, fxx in fd for pair in ((ftt, ftx), (ftx, fxx))]

    # One batched density jet per row; its gradients hold every field's momenta.
    it, ix = slot_grids[0].shape
    mom = np.empty((it, ix, 6))
    hess = np.empty((it, ix, 6, 6))
    factor = np.empty((it, ix))
    for a in range(it):
        lj, factor[a] = functional._density_jet([g[a] for g in slot_grids])
        mom[a] = lj.grad
        hess[a] = lj.hess
    np.abs(hess, out=hess)

    grids = {}
    for vary, offset in (("psi", 4), ("phibar", 2), ("phi", 0)):
        mom_t, mom_x = mom[:, :, offset], mom[:, :, offset + 1]
        # No-cancellation magnitude of the fully expanded equation:
        # sum_b |d2L/dw_a dslot_b| * |d_a slot_b| over both directions.
        expanded = 0.0
        for s in range(6):
            expanded = expanded + hess[:, :, offset, s] * np.abs(second[s][0])
            expanded = expanded + hess[:, :, offset + 1, s] * np.abs(second[s][1])

        div_t = (mom_t[2:, 1:-1] - mom_t[:-2, 1:-1]) / (2 * functional.ht)
        div_x = (mom_x[1:-1, 2:] - mom_x[1:-1, :-2]) / (2 * functional.hx)
        sign = 1.0 if vary == "psi" else -1.0
        raw = sign * (-(div_t + div_x))
        scale = np.abs(div_t) + np.abs(div_x)
        # 1e-6 of the no-cancellation difference quotient keeps the floor
        # meaningful where the momenta are constant to rounding.
        abs_div = ((np.abs(mom_t[2:, 1:-1]) + np.abs(mom_t[:-2, 1:-1])) / (2 * functional.ht)
                   + (np.abs(mom_x[1:-1, 2:]) + np.abs(mom_x[1:-1, :-2])) / (2 * functional.hx))
        floor = expanded[1:-1, 1:-1] + 1e-6 * abs_div
        grids[vary] = ResidualSample(raw, scale, floor)

    _, _, bt, bx, st, sx = slot_grids
    return DensityPass(grids, (bt * sx - st * bx) * factor,
                       (np.abs(bt * sx) + np.abs(st * bx)) * np.abs(factor))


@dataclass
class DegeneracyReport:
    """On-shell stationarity and action-degeneracy summary."""

    stationarity_max: float
    per_vary: dict
    action_normalized: float


def onshell_degeneracy(
    functional: DiscreteFunctional,
    phi: np.ndarray,
    phibar: np.ndarray,
    psi: np.ndarray,
    tolerance: float,
) -> DegeneracyReport:
    """Check stationarity under all three variations and that the action
    integral degenerates (the density is a constant-or-divergence on shell;
    for this density it vanishes outright, so the integral must match the
    zero boundary flux).

    Raises ``ValueError`` when the configuration is not on-shell to within
    ten times the requested tolerance.
    """
    density_pass = variational_residual(functional, phi, phibar, psi)
    per = {vary: grid_report(vary, [grid]) for vary, grid in density_pass.grids.items()}
    if not math.isfinite(per["psi"].max_norm) or per["psi"].max_norm > 10 * tolerance:
        raise ValueError(
            f"fields are not on-shell: psi residual {per['psi'].max_norm!r} "
            f"exceeds 10 x {tolerance!r}")
    stationarity = max(rep.max_norm for rep in per.values())

    total = abs(density_pass.density.sum()) * functional.ht * functional.hx
    term_scale = density_pass.density_scale.sum() * functional.ht * functional.hx
    action_normalized = total / max(term_scale, 1e-300)
    return DegeneracyReport(stationarity, per, action_normalized)


def psi_from(phibar: np.ndarray, w_expr: ExprSpec) -> np.ndarray:
    """Nodal psi = W(phibar), evaluated over the grid at once; each node the
    bits of W at that node.  Where W fails, the error is that of the first
    failing node in row-major order."""
    if len(w_expr.vars) > 1:
        raise ValueError("W must be a single-variable expression")
    w = float_fn(w_expr, w_expr.vars or ("s",))
    phibar = np.asarray(phibar, dtype=float)
    try:
        return w(phibar)
    except EvaluationError:
        for value in phibar.ravel().tolist():
            w(value)  # raises at the first failing node
        raise

