"""Workload definitions for the batlab benchmark.

Every workload is a list of bundled scenario files, run in order as one
*pass*.  The benchmark's ``--seed`` is the scenario seed handed to
``cli.run_scenario``; only scenarios that sample points or random
expressions draw from it (``rng_free`` lists the ones that do not, whose
reports differ between seeds only in their ``seed`` field).

``why`` is the one-line reason the workload exists and ``bypasses`` the
layers it does (almost) no work in, so that a change can name the workload
that shows its gain and the one where the prediction is "no change".

``segments`` names the functions (``module.attribute`` in ``batlab``) whose
outermost calls split a pass into steps of at most about a second; the
worker measures the host's speed beside each step (``worker.HostClock``).
They are the per-case functions of ``cli`` where a case is short, and the
grid-level ``construct``/``varlag`` entry points for c09, whose two cases
take several seconds each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

SCENARIO_DIR = "src/batlab/scenarios"
DEFAULT_SEED = 20240801


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    exercises: tuple[str, ...]
    bypasses: tuple[str, ...]
    scenarios: tuple[str, ...]
    segments: tuple[str, ...]
    dump: bool = False
    # scenario name -> how many times its list of cases runs in one scenario
    repeat_cases: dict = field(default_factory=dict)
    rng_free: tuple[str, ...] = ()


WORKLOADS = {w.name: w for w in (
    Workload(
        name="pointwise_verify",
        why="Pointwise residual sweeps: a few dozen specs evaluated thousands of "
            "times and solves repeated per point (exprspec, construct, leznov).",
        exercises=("exprspec.eval_float", "construct", "leznov", "residuals"),
        bypasses=("varlag", "hydro"),
        scenarios=(
            "c01_implicit_constraint",
            "c02_holo_antiholo_sum",
            "c03_hodograph_parametric",
            "c04_covariance",
            "c06_born_infeld",
            "c07_zero_curvature",
            "c10_euclidean_implicit",
        ),
        segments=("cli._run_verify_case",),
    ),
    Workload(
        name="variational_grid",
        why="Discrete variational residuals on 33^2, 41^2 and 65^2 grids: arity-6 "
            "density jets and .hess reads per node (jets, varlag).",
        exercises=("jets", "varlag", "exprspec.eval_jet", "construct.hodograph_grid"),
        bypasses=("residuals.sweep", "leznov", "hydro"),
        scenarios=("c09_degenerate_lagrangian",),
        segments=("construct.hodograph_grid", "varlag.psi_from",
                  "varlag.variational_residual", "varlag.onshell_degeneracy"),
        rng_free=("c09_degenerate_lagrangian",),
    ),
    Workload(
        name="characteristic_dump",
        why="Characteristic integration plus 5.8 MB of grid CSV per pass: numpy "
            "compute and the write path, with almost no jets or Newton solves.",
        exercises=("hydro", "cli write path"),
        bypasses=("jets", "exprspec (initial grid only)", "construct", "leznov",
                  "varlag"),
        scenarios=("c05_conservation_hierarchy", "c08_multifield_determinant"),
        segments=("cli._run_simulate_case",),
        dump=True,
        rng_free=("c05_conservation_hierarchy", "c08_multifield_determinant"),
    ),
    Workload(
        name="fresh_expressions",
        why="About 5,000 random specs, each parsed once, jet-evaluated once and "
            "float-evaluated ~30 times: exprspec with minimal reuse.",
        exercises=("exprspec.parse", "exprspec.eval_jet", "exprspec.eval_float"),
        bypasses=("construct", "leznov", "residuals.sweep", "varlag", "hydro"),
        scenarios=("c11_jet_convergence",),
        segments=("cli._run_ad_case",),
        # ten copies of the bundled 500-expression case: 5,000 specs, timed
        # in ten steps of a quarter second
        repeat_cases={"c11_jet_convergence": 10},
    ),
)}


def scenario_path(name: str) -> str:
    """Path of a bundled scenario file, relative to the repository root."""
    return f"{SCENARIO_DIR}/{name}.json"
