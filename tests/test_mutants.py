"""Verdicts that can fail: hand-written defects make bundled scenarios FAIL.

Each mutant replaces a library function from outside: it perturbs what the
function returns (at each point of a batch) by a relative 1e-3 (one Hessian
entry symmetrically, so that the result is still a valid jet, a value, or one
derivative of a grid stencil; an entry that vanishes moves by 1e-3 of its
Hessian's largest entry), drops one term of a jet product or quotient,
scales the second derivative of every univariate jet function, swaps the
speed families of the Leznov operator pair, skips the corrector of each
characteristic level, or builds the four-field system's periodic spline on
the raw grid values, with no prefilter.  Sampled
scenarios run with fewer samples per case, the others whole; unmutated, the
same runs pass, so each failure is the mutant's doing.
"""

import json

import numpy as np
import pytest

from batlab import cli, construct, hydro, jets, leznov
from batlab.errors import JetDomainError

SEED = 20240801
SAMPLES = 20


def _reduced(prefix: str) -> dict:
    """The bundled scenario named ``prefix...``, with SAMPLES samples per
    sampled case."""
    path = next(p for p in cli.bundled_scenarios() if p.name.startswith(prefix))
    data = json.loads(path.read_text())
    for case in data["cases"]:
        if "samples" in case:
            case["samples"]["count"] = SAMPLES
    return data


def _scaled(hess, a: int, b: int):
    """Entry (a, b) of one Hessian, or of each Hessian of a batch, scaled by
    1.001 symmetrically."""
    out = hess.copy()
    out[..., a, b] = out[..., b, a] = 1.001 * hess[..., a, b]
    return out


def leznov_field_hessian(monkeypatch):
    """Entry (0, 2) of every Leznov field Hessian from ``leznov.field_jets``,
    at one point or over a batch, scaled by 1.001."""
    field_jets = leznov.field_jets

    def mutant(sys, points, phi):
        return tuple(jets.from_parts(j.value, j.grad, _scaled(j.hess, 0, 2))
                     for j in field_jets(sys, points, phi))

    monkeypatch.setattr(leznov, "field_jets", mutant)


def hodograph_second_derivative(monkeypatch):
    """hu[0, 1] of ``HodographSolver.jets_uv``, at one point or over a batch,
    scaled by 1.001."""
    jets_uv = construct.HodographSolver.jets_uv

    def mutant(self, u, v):
        du, dv, hu, hv = jets_uv(self, u, v)
        return du, dv, _scaled(hu, 0, 1), hv

    monkeypatch.setattr(construct.HodographSolver, "jets_uv", mutant)


def implicit_split_cross_block(monkeypatch):
    """Entry (0, 2) of the Hessian from ``_implicit_jet``, the implicit-function
    jet of every scalar constructor, scaled by 1.001: the cross-block
    (x1, xb1) entry of F = G, the (t, y) entry of tF + xG + yK = c."""
    implicit_jet = construct._implicit_jet

    def mutant(*args):
        j = implicit_jet(*args)
        return jets.from_parts(j.value, j.grad, _scaled(j.hess, 0, 2))

    monkeypatch.setattr(construct, "_implicit_jet", mutant)


def holo_sum_cross_block(monkeypatch):
    """Entry (0, 2) of every ``holo_sum`` field Hessian, the cross-block
    (x1, xb1) entry that vanishes for a sum, moved by 1e-3 of the Hessian's
    largest entry."""
    holo_sum = construct.holo_sum

    def mutant(f, g):
        handle = holo_sum(f, g)

        def field_jets(points, roots):
            j = handle.jets(points, roots)
            hess = j.hess.copy()
            hess[..., 0, 2] = hess[..., 2, 0] = (hess[..., 0, 2]
                                                 + 1e-3 * np.abs(j.hess).max(axis=(-2, -1)))
            return jets.from_parts(j.value, j.grad, hess)

        return construct.FieldHandle(handle.solve_many, field_jets)

    monkeypatch.setattr(construct, "holo_sum", mutant)


def stencil_space_derivative(monkeypatch):
    """The first difference along the second axis (x, x2, or c11's b) from
    ``jets._first_difference``, the one formula of every grid gradient, of
    the conservation drift and of c11's probe, scaled by 1.001."""
    first_difference = jets._first_difference

    def mutant(at, unit, step):
        difference = first_difference(at, unit, step)
        return 1.001 * difference if np.asarray(unit)[1] else difference

    monkeypatch.setattr(jets, "_first_difference", mutant)


def foot_point_corrector_dropped(monkeypatch):
    """The corrector of each level of ``hydro._march`` skipped: the second
    foot-point solve of a level, by ``hydro._foot_points``, returns its start
    feet without a sweep, so a level keeps only its predictor's speeds."""
    foot_points = hydro._foot_points
    predicted = []  # the level whose predictor has solved

    def mutant(step, start, tol, level, first=None):
        if predicted == [level]:
            predicted.clear()
            return np.array(start, dtype=float)
        foot = foot_points(step, start, tol, level, first)
        predicted[:] = [level]
        return foot

    monkeypatch.setattr(hydro, "_foot_points", mutant)


def spline_prefilter_dropped(monkeypatch):
    """``hydro._PeriodicSpline2`` with the grid values as its coefficients:
    evaluation runs as before, but no spline prefilter runs first."""
    def mutant(self, values):
        self.coeffs = np.array(values, dtype=float)

    monkeypatch.setattr(hydro._PeriodicSpline2, "__init__", mutant)


def moebius_speed(monkeypatch):
    """The speed from ``moebius_transform`` scaled by 1.001."""
    moebius_transform = construct.moebius_transform

    def mutant(s, m):
        return 1.001 * moebius_transform(s, m)

    monkeypatch.setattr(construct, "moebius_transform", mutant)


def pull_back_hessian(monkeypatch):
    """Entry (0, 1) of every Hessian from ``pull_back`` scaled by 1.001."""
    pull_back = construct.pull_back

    def mutant(jet, minv):
        j = pull_back(jet, minv)
        return jets.from_parts(j.value, j.grad, _scaled(j.hess, 0, 1))

    monkeypatch.setattr(construct, "pull_back", mutant)


def leznov_v_speed(monkeypatch):
    """The values of the v speeds from ``leznov.speed_jets`` scaled by 1.001."""
    speed_jets = leznov.speed_jets

    def mutant(sys, points, fields):
        u, v = speed_jets(sys, points, fields)
        return u, tuple(jets.from_parts(1.001 * w.value, w.grad, w.hess) for w in v)

    monkeypatch.setattr(leznov, "speed_jets", mutant)


def swapped_operator_binding(monkeypatch):
    """The speed families swapped in ``leznov._operators``: D carries u on the
    x block and Dbar carries v on the xb block."""
    operators = leznov._operators

    def mutant(n, speeds):
        u, v = speeds
        return operators(n, (v, u))

    monkeypatch.setattr(leznov, "_operators", mutant)


def jet_product_cross_term(monkeypatch):
    """``Jet2`` products, at one point or over a batch, without the Hessian
    term grad_a grad_b^T + grad_b grad_a^T."""
    def mutant(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        vg, vh = jets._columns(self.value)
        wg, wh = jets._columns(o.value)
        return jets.Jet2(self.value * o.value, self.grad * wg + vg * o.grad,
                         self.hess * wh + vh * o.hess)

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(jets.Jet2, name, mutant)


def jet_quotient_cross_term(monkeypatch):
    """``Jet2`` quotients a / b without the Hessian term
    (g grad_b^T + grad_b g^T) / b, g the quotient's gradient."""
    def mutant(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        if np.any(o.value == 0.0):
            raise JetDomainError("div", 0.0)
        q = self.value / o.value
        qg, qh = jets._columns(q)
        wg, wh = jets._columns(o.value)
        g = (self.grad - qg * o.grad) / wg
        h = (self.hess - qh * o.hess) / wh
        jets._require_finite("div", q, g, h)
        return jets.Jet2(q, g, h)

    monkeypatch.setattr(jets.Jet2, "__truediv__", mutant)


def univariate_second_derivative(monkeypatch):
    """f'' of every exp, log, sin, cos, sqrt and non-integer power of a jet
    scaled by 1.001."""
    apply = jets.Jet2._apply

    def mutant(self, op, f0, f1, f2):
        return apply(self, op, f0, f1, 1.001 * f2)

    monkeypatch.setattr(jets.Jet2, "_apply", mutant)


# mutant -> the bundled scenarios it must make FAIL
MUTANTS = {
    leznov_field_hessian: ("c07",),
    hodograph_second_derivative: ("c03", "c06"),
    implicit_split_cross_block: ("c01", "c04", "c10"),
    holo_sum_cross_block: ("c02",),
    stencil_space_derivative: ("c05", "c08", "c09", "c11"),
    foot_point_corrector_dropped: ("c05", "c08"),
    spline_prefilter_dropped: ("c08",),
    moebius_speed: ("c04",),
    pull_back_hessian: ("c04",),
    leznov_v_speed: ("c07",),
    swapped_operator_binding: ("c07",),
    jet_product_cross_term: ("c09", "c11"),
    jet_quotient_cross_term: ("c11",),
    univariate_second_derivative: ("c11",),
}


@pytest.mark.parametrize("scenario", sorted({s for names in MUTANTS.values() for s in names}))
def test_reduced_scenario_passes_unmutated(tmp_path, scenario):
    _, code = cli.run_scenario(_reduced(scenario), tmp_path, seed=SEED)
    assert code == cli.EXIT_PASS


@pytest.mark.parametrize("mutant,scenario", [
    (mutant, scenario) for mutant, names in MUTANTS.items() for scenario in names],
    ids=lambda value: getattr(value, "__name__", value))
def test_mutant_makes_scenario_fail(tmp_path, monkeypatch, mutant, scenario):
    mutant(monkeypatch)
    _, code = cli.run_scenario(_reduced(scenario), tmp_path, seed=SEED)
    assert code == cli.EXIT_FAIL


def test_swapped_binding_fails_every_operator_entry_of_c07(tmp_path, monkeypatch):
    """c07's ``zero_curvature`` reads 0 under the right binding (no coordinate
    partial of its Q and P involves phi); under the swapped one it fails in
    both cases, beside ``d_phi`` and ``dbar_phi``."""
    swapped_operator_binding(monkeypatch)
    report, _ = cli.run_scenario(_reduced("c07"), tmp_path, seed=SEED)
    failing = sorted(e["equation"] for e in report["reports"] if not e["pass"])
    assert failing == sorted(f"{name}[{label}]" for name in ("d_phi", "dbar_phi", "zero_curvature")
                             for label in ("n2", "n3"))
