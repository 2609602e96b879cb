"""Discrete variational checks for the degenerate three-field Lagrangian.

The density is

    L = (phibar_t psi_x - psi_t phibar_x) * H(phi_t, phi_x)

with H any weight-zero homogeneous factor (default p/q).  The action is the
midpoint-rule sum of L over interior nodes, with all first derivatives taken
by centered differences.  Variational residuals are the *exact* derivatives of
that discrete sum with respect to nodal values: because the density depends on
a nodal value only through the centered stencils, the derivative is the
centered divergence of the momentum grids dL/d(field_t), dL/d(field_x).
All three residuals come from one pass over the nodes: the density jet at a
node is an arity-6 jet in every field's slots, so its gradient and Hessian
hold the momenta and the expanded-equation terms of each field at once.
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

from . import jets
from .errors import JetDomainError
from .exprspec import ExprSpec, eval_jet, parse
from .residuals import ResidualReport, ResidualSample, grid_report

_SLOTS = ("phi_t", "phi_x", "phibar_t", "phibar_x", "psi_t", "psi_x")


def degree0_test(h_expr: ExprSpec, samples: int = 50, seed: int = 2024,
                 rel_tol: float = 1e-10) -> bool:
    """Euler's relation for weight zero: p H_p + q H_q = 0 at random (p, q)."""
    if set(h_expr.vars) - {"p", "q"}:
        raise ValueError("factor must be an expression in (p, q)")
    rng = np.random.default_rng(seed)
    for _ in range(samples):
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
        if abs(euler) > rel_tol * scale:
            return False
    return True


@dataclass
class DiscreteFunctional:
    """Midpoint-quadrature action on a rectangular (t, x) grid.

    ``factor`` must pass the weight-zero test; ``phi_x_floor`` guards the
    density against a vanishing denominator direction.
    """

    ht: float
    hx: float
    factor: ExprSpec = field(default_factory=lambda: parse("p/q"))
    phi_x_floor: float = 1e-10

    def __post_init__(self):
        if self.ht <= 0 or self.hx <= 0:
            raise ValueError("grid spacings must be positive")
        if not degree0_test(self.factor):
            raise ValueError(f"factor {self.factor} is not homogeneous of weight zero")

    # -- pointwise density ---------------------------------------------------

    def density(self, phi: jets.Jet2, phibar: jets.Jet2, psi: jets.Jet2) -> float:
        """Density from arity-2 jets of the three fields at one point."""
        bracket = phibar.grad[0] * psi.grad[1] - psi.grad[0] * phibar.grad[1]
        if bracket == 0.0:
            return 0.0
        phi_x = phi.grad[1]
        if abs(phi_x) <= self.phi_x_floor * max(1.0, abs(phi.grad[0])):
            raise JetDomainError("density: phi_x", phi_x)
        hj = eval_jet(self.factor,
                      {"p": jets.constant(phi.grad[0], 1),
                       "q": jets.constant(phi_x, 1)})
        return bracket * hj.value

    def _density_jet(self, slots: Sequence[float]) -> jets.Jet2:
        """L as an arity-6 jet in the first-derivative slots; its gradient is
        the full set of momenta."""
        sv = {name: jets.variable(i, slots[i], 6) for i, name in enumerate(_SLOTS)}
        bracket = sv["phibar_t"] * sv["psi_x"] - sv["psi_t"] * sv["phibar_x"]
        hj = eval_jet(self.factor, {"p": sv["phi_t"], "q": sv["phi_x"]}, k=6)
        return bracket * hj


def _slot_grids(functional: DiscreteFunctional, *fields: np.ndarray) -> tuple:
    """(F_t, F_x) of each field at interior nodes (1..nt-2) x (1..nx-2); for
    (phi, phibar, psi) these are the six ``_SLOTS``."""
    ht, hx = functional.ht, functional.hx
    return tuple(grid for F in fields for grid in ((F[2:, 1:-1] - F[:-2, 1:-1]) / (2 * ht),
                                                   (F[1:-1, 2:] - F[1:-1, :-2]) / (2 * hx)))


@dataclass
class VariationalGrid:
    """Raw residual, its local term scale and a momentum-magnitude floor on
    double-interior nodes.

    The floor (1e-6 of the no-cancellation difference-quotient magnitude)
    keeps the normalization meaningful when the momenta are constant to
    rounding, where raw and scale are both pure float noise.
    """

    raw: np.ndarray
    scale: np.ndarray
    floor: np.ndarray

    def samples(self) -> list[ResidualSample]:
        return [ResidualSample(float(r), float(s), float(f))
                for r, s, f in zip(self.raw.ravel(), self.scale.ravel(),
                                   self.floor.ravel())]

    def report(self, equation: str) -> ResidualReport:
        return grid_report(equation, self.samples())


def variational_residual(
    functional: DiscreteFunctional,
    phi: np.ndarray,
    phibar: np.ndarray,
    psi: np.ndarray,
) -> dict[str, VariationalGrid]:
    """Exact discrete Euler-Lagrange residuals of all three fields, per unit
    area, keyed ``psi``, ``phibar``, ``phi``.

    Defined on nodes two layers inside the grid (one layer for the density
    stencil, another for the divergence of the momenta).
    """
    nt, nx = phi.shape
    if nt < 5 or nx < 5:
        raise ValueError("grid too small: need at least 5 nodes per axis")
    if phibar.shape != (nt, nx) or psi.shape != (nt, nx):
        raise ValueError("field grids must share one shape")

    slot_grids = _slot_grids(functional, phi, phibar, psi)
    second = _second_derivative_grids(
        (phi, phibar, psi), functional.ht, functional.hx)

    # One density jet per node; its gradient holds every field's momenta.
    it, ix = slot_grids[0].shape
    mom = np.empty((it, ix, 6))
    hess = np.empty((it, ix, 6, 6))
    for a in range(it):
        for b in range(ix):
            lj = functional._density_jet([g[a, b] for g in slot_grids])
            mom[a, b] = lj.grad
            hess[a, b] = lj.hess
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
        abs_div = ((np.abs(mom_t[2:, 1:-1]) + np.abs(mom_t[:-2, 1:-1])) / (2 * functional.ht)
                   + (np.abs(mom_x[1:-1, 2:]) + np.abs(mom_x[1:-1, :-2])) / (2 * functional.hx))
        floor = expanded[1:-1, 1:-1] + 1e-6 * abs_div
        grids[vary] = VariationalGrid(raw, scale, floor)
    return grids


def _second_derivative_grids(fields, ht: float, hx: float):
    """Per slot (field, direction): (d_t slot, d_x slot) at interior nodes.

    Slot (F, t) has derivatives (F_tt, F_tx); slot (F, x) has (F_tx, F_xx).
    """
    out = []
    for F in fields:
        ftt = (F[2:, 1:-1] - 2 * F[1:-1, 1:-1] + F[:-2, 1:-1]) / ht**2
        fxx = (F[1:-1, 2:] - 2 * F[1:-1, 1:-1] + F[1:-1, :-2]) / hx**2
        ftx = (F[2:, 2:] - F[2:, :-2] - F[:-2, 2:] + F[:-2, :-2]) / (4 * ht * hx)
        out.append((ftt, ftx))  # slot (F, t)
        out.append((ftx, fxx))  # slot (F, x)
    return out


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
    per = {vary: grid.report(vary) for vary, grid in
           variational_residual(functional, phi, phibar, psi).items()}
    if not math.isfinite(per["psi"].max_norm) or per["psi"].max_norm > 10 * tolerance:
        raise ValueError(
            f"fields are not on-shell: psi residual {per['psi'].max_norm!r} "
            f"exceeds 10 x {tolerance!r}")
    stationarity = max(rep.max_norm for rep in per.values())

    pt, px, bt, bx, st, sx = _slot_grids(functional, phi, phibar, psi)
    bracket = bt * sx - st * bx
    h_vals = np.empty_like(bracket)
    for a in range(bracket.shape[0]):
        for b in range(bracket.shape[1]):
            h_vals[a, b] = eval_jet(
                functional.factor,
                {"p": jets.constant(pt[a, b], 1), "q": jets.constant(px[a, b], 1)},
            ).value
    density = bracket * h_vals
    total = abs(density.sum()) * functional.ht * functional.hx
    term_scale = ((np.abs(bt * sx) + np.abs(st * bx)) * np.abs(h_vals)).sum() \
        * functional.ht * functional.hx
    action_normalized = total / max(term_scale, 1e-300)
    return DegeneracyReport(stationarity, per, action_normalized)


def psi_from(phibar: np.ndarray, w_expr: ExprSpec) -> np.ndarray:
    """Nodal psi = W(phibar)."""
    if len(w_expr.vars) > 1:
        raise ValueError("W must be a single-variable expression")
    var = w_expr.vars[0] if w_expr.vars else "s"
    out = np.empty_like(phibar)
    from .exprspec import eval_float

    for idx, value in np.ndenumerate(phibar):
        out[idx] = eval_float(w_expr, {var: float(value)})
    return out


def fields_from_char_grid(grid, w_expr: ExprSpec):
    """(phi, phibar, psi, functional) from a stored two-field grid.

    The reduction identifies phibar with the u field and phi with the v
    field; psi = W(phibar) nodewise.  Grid spacings become (dt, h).
    """
    phibar = np.asarray(grid.u, dtype=float)
    phi = np.asarray(grid.v, dtype=float)
    psi = psi_from(phibar, w_expr)
    functional = DiscreteFunctional(ht=float(grid.dt), hx=float(grid.h))
    return phi, phibar, psi, functional


def dump_residual_csv(grid: VariationalGrid, csv_path, ht: float, hx: float,
                      t0: float = 0.0, x0: float = 0.0) -> None:
    """Residual grid as CSV: node coordinates, raw, scale, normalized."""
    import csv as _csv
    from pathlib import Path

    nt, nx = grid.raw.shape
    with Path(csv_path).open("w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["t", "x", "raw", "scale", "normalized"])
        for a in range(nt):
            for b in range(nx):
                s = ResidualSample(float(grid.raw[a, b]), float(grid.scale[a, b]),
                                   float(grid.floor[a, b]))
                w.writerow([repr(t0 + (a + 2) * ht), repr(x0 + (b + 2) * hx),
                            repr(s.raw), repr(s.scale), repr(s.normalized)])
