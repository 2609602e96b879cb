"""Verdicts that can fail: hand-written defects make bundled scenarios FAIL.

Each mutant wraps a library function from outside and perturbs one entry of
what it returns by a relative 1e-3, symmetrically, so that the result is still
a valid jet.  The scenarios run with fewer samples per case; unmutated, the
same reduced runs pass, so each failure is the mutant's doing.
"""

import json

import pytest

from batlab import cli, construct, jets, leznov

SEED = 20240801
SAMPLES = 20


def _reduced(prefix: str) -> dict:
    """The bundled scenario named ``prefix...``, with SAMPLES samples per case."""
    path = next(p for p in cli.bundled_scenarios() if p.name.startswith(prefix))
    data = json.loads(path.read_text())
    for case in data["cases"]:
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


# mutant -> the bundled scenarios it must make FAIL
MUTANTS = {
    leznov_field_hessian: ("c07",),
    hodograph_second_derivative: ("c03", "c06"),
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
