"""Verdicts that can fail: hand-written defects make bundled scenarios FAIL.

Each mutant replaces a library function from outside: it perturbs one entry
of what the function returns by a relative 1e-3, symmetrically, so that the
result is still a valid jet, or drops one term of a jet product.  Sampled
scenarios run with fewer samples per case, the others whole; unmutated, the
same runs pass, so each failure is the mutant's doing.
"""

import json

import pytest

from batlab import cli, construct, jets, leznov

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
    out = hess.copy()
    out[a, b] = out[b, a] = 1.001 * hess[a, b]
    return out


def leznov_field_hessian(monkeypatch):
    """Entry (0, 2) of every Leznov field Hessian scaled by 1.001."""
    solve = leznov.solve_constraints

    def mutant(sys, point, seed=None):
        sol = solve(sys, point, seed)
        sol.field_jets = [jets.from_parts(j.value, j.grad, _scaled(j.hess, 0, 2))
                          for j in sol.field_jets]
        return sol

    monkeypatch.setattr(leznov, "solve_constraints", mutant)


def hodograph_second_derivative(monkeypatch):
    """hu[0, 1] of ``HodographSolver.jets_uv`` scaled by 1.001."""
    jets_uv = construct.HodographSolver.jets_uv

    def mutant(self, t, x, seed=None):
        u, v, du, dv, hu, hv = jets_uv(self, t, x, seed)
        return u, v, du, dv, _scaled(hu, 0, 1), hv

    monkeypatch.setattr(construct.HodographSolver, "jets_uv", mutant)


def jet_product_cross_term(monkeypatch):
    """``Jet2`` products without the Hessian term grad_a grad_b^T + grad_b grad_a^T."""
    def mutant(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return jets.Jet2(self.value * o.value, self.grad * o.value + self.value * o.grad,
                         self.hess * o.value + self.value * o.hess)

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(jets.Jet2, name, mutant)


def batched_product_cross_term(monkeypatch):
    """``JetBatch`` products without the same term at every point."""
    def mutant(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return jets.JetBatch(
            self.value * o.value,
            self.grad * o.value[:, None] + self.value[:, None] * o.grad,
            self.hess * o.value[:, None, None] + self.value[:, None, None] * o.hess)

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(jets.JetBatch, name, mutant)


# mutant -> the bundled scenarios it must make FAIL
MUTANTS = {
    leznov_field_hessian: ("c07",),
    hodograph_second_derivative: ("c03", "c06"),
    jet_product_cross_term: ("c11",),
    batched_product_cross_term: ("c09",),
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
