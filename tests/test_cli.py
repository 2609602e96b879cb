"""Scenario driver: exit codes, report schema, determinism, bundled files."""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from batlab import cli, construct, hydro, leznov, residuals, varlag
from batlab.errors import EvaluationError, NewtonConvergenceError
from batlab.exprspec import parse

ROOT = Path(__file__).resolve().parents[1]


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _tiny_verify_scenario(tolerance=1e-9, expr="phi - x1*x2", g_expr="xb1 + xb2",
                          count=20):
    return {
        "name": "tiny",
        "paper_anchor": "test scenario",
        "kind": "verify",
        "cases": [
            {
                "label": "case",
                "construct": {"op": "solve_implicit_fg", "F": expr, "G": g_expr,
                              "config": {"seed": 0.0}},
                "samples": {"count": count, "low": [-1, -1, -1, -1],
                            "high": [1, 1, 1, 1]},
                "checks": [{"equation": "complex_bateman", "tolerance": tolerance}],
            }
        ],
    }


def test_verify_passes(tmp_path):
    path = _write(tmp_path, "s.json", _tiny_verify_scenario())
    code = cli.main(["verify", path, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_PASS
    report = json.loads((tmp_path / "out" / "tiny.report.json").read_text())
    assert set(report) == {"scenario", "paper_anchor", "reports", "seed", "version"}
    entry = report["reports"][0]
    assert set(entry) == {"equation", "samples", "skipped", "max_norm", "rms_norm",
                          "tolerance", "pass"}


def test_zero_tolerance_passes_only_for_exact_zero(tmp_path):
    # Linear-in-phi constraint with separable G: terms cancel pairwise in
    # floats, so the raw residual is exactly zero and tolerance 0 passes.
    path = _write(tmp_path, "s0.json", _tiny_verify_scenario(tolerance=0.0))
    assert cli.main(["verify", path, "--out", str(tmp_path / "o1")]) == cli.EXIT_PASS
    # A coupled G leaves genuine rounding residue, which fails tolerance 0.
    data = _tiny_verify_scenario(tolerance=0.0,
                                 expr="phi + 0.2*exp(phi) - x1^2 - x2",
                                 g_expr="sin(xb1) + xb2", count=200)
    path = _write(tmp_path, "s1.json", data)
    assert cli.main(["verify", path, "--out", str(tmp_path / "o2")]) == cli.EXIT_FAIL


def test_malformed_expression_exits_2(tmp_path, capsys):
    data = _tiny_verify_scenario(expr="phi - x1*")
    path = _write(tmp_path, "bad.json", data)
    assert cli.main(["verify", path, "--out", str(tmp_path / "o")]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "position" in err


def test_missing_fields_exit_2(tmp_path):
    path = _write(tmp_path, "bad.json", {"name": "x"})
    assert cli.main(["verify", path, "--out", str(tmp_path / "o")]) == cli.EXIT_VALIDATION


def test_kind_command_mismatch(tmp_path):
    data = {
        "name": "sim", "paper_anchor": "t", "kind": "simulate",
        "cases": [{"system": "two_field",
                   "init": {"u": "1.0", "v": "1.0"},
                   "grid": {"t_end": 0.05},
                   "resolutions": [16],
                   "checks": [{"equation": "conservation", "n_values": [1]}]}],
    }
    path = _write(tmp_path, "sim.json", data)
    assert cli.main(["verify", path, "--out", str(tmp_path / "o")]) == cli.EXIT_VALIDATION
    assert cli.main(["simulate", path, "--out", str(tmp_path / "o")]) == cli.EXIT_PASS


def test_simulate_constant_data_zero_drift(tmp_path):
    data = {
        "name": "const", "paper_anchor": "t", "kind": "simulate",
        "cases": [{"system": "two_field",
                   "init": {"u": "1.4", "v": "-0.6"},
                   "grid": {"t_end": 0.1},
                   "resolutions": [32],
                   "checks": [{"equation": "conservation",
                               "n_values": [1, 2, 3, 4, 5]}]}],
    }
    path = _write(tmp_path, "c.json", data)
    assert cli.main(["simulate", path, "--out", str(tmp_path / "o")]) == cli.EXIT_PASS
    report = json.loads((tmp_path / "o" / "const.report.json").read_text())
    assert all(e["max_norm"] == 0.0 for e in report["reports"])


def test_simulate_crossing_exits_4_with_partial_dump(tmp_path):
    data = {
        "name": "steep", "paper_anchor": "t", "kind": "simulate",
        "cases": [{"system": "two_field",
                   "init": {"u": "1.5 + 0.3*sin(x)", "v": "1.5 + 0.3*sin(x)"},
                   "grid": {"t_end": 4.0},
                   "resolutions": [64],
                   "checks": [{"equation": "conservation", "n_values": [1]}]}],
    }
    path = _write(tmp_path, "steep.json", data)
    assert cli.main(["simulate", path, "--out", str(tmp_path / "o")]) == cli.EXIT_ABORT
    report = json.loads((tmp_path / "o" / "steep.report.json").read_text())
    assert any(e["equation"].startswith("aborted[level=") for e in report["reports"])
    assert (tmp_path / "o" / "steep.partial.csv").exists()


def test_simulate_cfl_violation_exits_4_with_the_computed_levels(tmp_path):
    """Speeds that grow past the CFL bound abort at level 11; the partial dump
    holds exactly the levels 0..11."""
    data = _with(_COMPLETE["two_field"](), ("init",), {"u": "x", "v": "x"})
    data = _with(data, ("grid",), {"t_end": 1.0, "x0": 0.0, "x1": 1.0, "bc": "open"})
    data = _with(data, ("resolutions",), [32])
    assert _main_exit(tmp_path, data) == cli.EXIT_ABORT
    report = json.loads((tmp_path / "o" / "m.report.json").read_text())
    assert report["reports"][-1]["equation"] == "aborted[level=11]"
    lines = (tmp_path / "o" / "m.partial.csv").read_text().splitlines()
    assert len(lines) == 1 + 12 * 32
    assert lines[-1].startswith("11,")
    meta = json.loads((tmp_path / "o" / "m.partial.meta.json").read_text())
    assert (meta["levels"], meta["nodes"]) == (12, 32)


def test_verify_determinism(tmp_path):
    path = _write(tmp_path, "s.json", _tiny_verify_scenario())
    cli.main(["verify", path, "--out", str(tmp_path / "a"), "--seed", "99"])
    cli.main(["verify", path, "--out", str(tmp_path / "b"), "--seed", "99"])
    a = (tmp_path / "a" / "tiny.report.json").read_bytes()
    b = (tmp_path / "b" / "tiny.report.json").read_bytes()
    assert a == b
    # A different seed samples different points.
    cli.main(["verify", path, "--out", str(tmp_path / "c"), "--seed", "100"])
    c = (tmp_path / "c" / "tiny.report.json").read_bytes()
    assert json.loads(c)["seed"] == 100


def test_bundled_scenarios_present_and_valid():
    paths = cli.bundled_scenarios()
    assert len(paths) == 11
    names = set()
    for p in paths:
        data = json.loads(p.read_text())
        for key in ("name", "paper_anchor", "kind", "cases"):
            assert key in data, (p.name, key)
        names.add(data["name"])
    assert len(names) == 11


def test_simulate_multifield_dump(tmp_path):
    data = {
        "name": "mf", "paper_anchor": "t", "kind": "simulate",
        "cases": [{"system": "multifield", "label": "flat",
                   "init": {"u1": "0.4", "u2": "-0.3", "v1": "0.9", "v2": "1.1"},
                   "grid": {"t_end": 0.1},
                   "resolutions": [8],
                   "checks": [{"equation": "multifield_det",
                               "tolerance_h2_coeff": 1.0}]}],
    }
    path = _write(tmp_path, "mf.json", data)
    code = cli.main(["simulate", path, "--out", str(tmp_path / "o"), "--dump"])
    assert code == cli.EXIT_PASS
    dump = tmp_path / "o" / "mf.flat.8.csv"
    assert dump.read_text().splitlines()[0] == "level,x1,x2,x3,u1,u2,v1,v2"
    assert (tmp_path / "o" / "mf.flat.8.meta.json").exists()


def test_verify_dump_writes_sample_csv(tmp_path):
    path = _write(tmp_path, "s.json", _tiny_verify_scenario())
    assert cli.main(["verify", path, "--out", str(tmp_path / "o"), "--dump"]) == cli.EXIT_PASS
    dump = tmp_path / "o" / "tiny.case.samples.csv"
    assert dump.exists()
    lines = dump.read_text().splitlines()
    assert len(lines) == 21  # header + 20 sampled points


def test_runtime_failure_exits_3(tmp_path, capsys):
    # The hodograph source window lies far outside the parametric image, so
    # grid construction fails outright (a runtime numerical failure, not a
    # per-sample skip).
    data = {
        "name": "broken", "paper_anchor": "t", "kind": "variational",
        "cases": [{
            "source": {"f": "u^2", "g": "v^2", "config": {"seed": [1.5, 3.5],
                                                          "max_iter": 8},
                       "t_window": [500.0, 501.0], "x_window": [400.0, 401.0]},
            "resolutions": [9],
            "psi": ["s"],
        }],
    }
    path = _write(tmp_path, "b.json", data)
    assert cli.main(["verify", path, "--out", str(tmp_path / "o")]) == cli.EXIT_RUNTIME
    assert "numerical failure" in capsys.readouterr().err


def test_numerical_failure_is_the_only_line_on_stderr(tmp_path):
    """A factor whose jet overflows ends in exit 3 with one line on stderr:
    numpy's floating-point warnings from the jet arithmetic stay silent."""
    data = {
        "name": "overflow", "paper_anchor": "t", "kind": "variational",
        "cases": [{
            "source": {"f": "u^2", "g": "v^2", "config": {"seed": [1.5, 3.5]},
                       "t_window": [9.75, 10.25], "x_window": [-14.75, -14.25]},
            "resolutions": [9], "psi": ["s"], "factors": ["exp(800*p/q)"],
        }],
    }
    path = _write(tmp_path, "o.json", data)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-m", "batlab.cli", "verify", path,
                          "--out", str(tmp_path / "o")],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == cli.EXIT_RUNTIME
    assert run.stderr == "numerical failure: exp: offending value 1042.2384233266514\n"


def test_cli_import_leaves_scipy_unloaded():
    """Only the multifield integrator loads scipy, so a fresh interpreter
    that imports the CLI does not pay for it."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c",
                          "import sys, batlab.cli; print('scipy' in sys.modules)"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


def test_cli_import_leaves_process_pools_unloaded():
    """Only ``suite --jobs N`` with N > 1 imports concurrent.futures."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c",
                          "import sys, batlab.cli; print('concurrent.futures' in sys.modules)"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


def test_skip_fraction_gate(tmp_path):
    # Half the u box violates the positivity domain of the gradient
    # substitution, so far more than 20% of samples are skipped: the check
    # must fail even though every surviving sample passes its tolerance.
    data = {
        "name": "skippy", "paper_anchor": "t", "kind": "verify",
        "cases": [{
            "label": "domain",
            "construct": {"op": "parametric_hodograph", "f": "u^2", "g": "v^2",
                          "config": {"seed": [0.0, 2.5]}},
            "samples": {"mode": "uv_box", "count": 40, "low": [-0.5, 2.0],
                        "high": [0.5, 3.0]},
            "checks": [{"equation": "born_infeld", "tolerance": 1e-9,
                        "lambda": 1.0}],
        }],
    }
    path = _write(tmp_path, "sk.json", data)
    code = cli.main(["verify", path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_FAIL
    report = json.loads((tmp_path / "o" / "skippy.report.json").read_text())
    entry = report["reports"][0]
    assert entry["skipped"] > 0.2 * 40
    assert not entry["pass"]


def _pointwise_entry(norms: list, skipped: int) -> tuple:
    """(samples, skipped, max_norm, rms_norm) of one-point samples, reduced as
    a sweep reduces them."""
    arr = np.asarray(norms)
    return len(norms), skipped, float(arr.max()), float(np.sqrt(np.mean(arr**2)))


@pytest.mark.parametrize("f,passes", [("log(x1) + x2^2", False),
                                      ("log(x1 + 0.9) + x2^2", True)])
def test_points_failing_after_their_solve_skip_as_point_by_point(tmp_path, f, passes):
    """holo_sum's jets fail where x1 (+ 0.9) <= 0, after its solve: the
    batch falls back to single points, and the entry is the one-point sweep's,
    a FAIL when more than 20% of the points are skipped."""
    data = _with(_verify_scenario({"op": "holo_sum", "f": f, "g": "exp(xb1)*xb2"},
                                  [-1] * 4, [1] * 4), ("samples", "count"), 120)
    report, code = cli.run_scenario(data, tmp_path, seed=5)
    points, _ = cli._box_sampler(data["cases"][0]["samples"], cli._scenario_rng(5, "m"), 4)
    handle = construct.holo_sum(parse(f), parse("exp(xb1)*xb2"))
    norms, skipped = [], 0
    for p in points:
        try:
            norms.append(residuals.complex_bateman(handle(p)).normalized)
        except EvaluationError:
            skipped += 1
    entry = report["reports"][0]
    assert (entry["samples"], entry["skipped"], entry["max_norm"], entry["rms_norm"]) == \
        _pointwise_entry(norms, skipped)
    assert 0 < entry["skipped"] and (entry["skipped"] > 0.2 * 120) == (not passes)
    assert entry["pass"] == passes and (code == cli.EXIT_PASS) == passes


def test_born_infeld_points_with_u_at_most_zero_skip_as_point_by_point(tmp_path):
    data = _with(_verify_scenario({"op": "parametric_hodograph", "f": "u^2", "g": "v^2",
                                   "config": {"seed": [0.0, 2.5]}}, [-0.5, 2.0], [0.5, 3.0],
                                  "born_infeld"), ("samples", "count"), 60)
    report, code = cli.run_scenario(data, tmp_path, seed=5)
    uv, _ = cli._box_sampler(data["cases"][0]["samples"], cli._scenario_rng(5, "m"), 2)
    solver = construct.HodographSolver(parse("u^2"), parse("v^2"),
                                       construct.ImplicitSolveConfig(seed=(0.0, 2.5)))
    norms, skipped = [], 0
    for u0, v0 in uv:
        try:
            phi, phibar = solver.fields(*solver.solve(*solver.forward(u0, v0), (u0, v0)))
            norms.append(residuals.born_infeld(
                construct.born_infeld_jet(phibar, phi, 1.0), 1.0).normalized)
        except EvaluationError:
            skipped += 1
    entry = report["reports"][0]
    assert (entry["samples"], entry["skipped"], entry["max_norm"], entry["rms_norm"]) == \
        _pointwise_entry(norms, skipped)
    assert entry["skipped"] > 0.2 * 60 and not entry["pass"] and code == cli.EXIT_FAIL


def _verify_scenario(block, low, high, equation="complex_bateman"):
    return {"name": "m", "paper_anchor": "t", "kind": "verify", "cases": [{
        "construct": block,
        "samples": {"count": 4, "low": low, "high": high},
        "checks": [{"equation": equation, "tolerance": 1e-9}]}]}


_COMPLETE = {
    "implicit_fg": lambda: _tiny_verify_scenario(),
    "holo_sum": lambda: _verify_scenario(
        {"op": "holo_sum", "f": "x1*x2", "g": "xb1"}, [-1] * 4, [1] * 4),
    "implicit_3d": lambda: _verify_scenario(
        {"op": "implicit_3d", "F": "phi", "G": "1", "K": "0", "config": {"seed": 0.0}},
        [0.5, -1, -1], [1.5, 1, 1], "euclidean_3d"),
    "hodograph": lambda: _verify_scenario(
        {"op": "parametric_hodograph", "f": "u^2", "g": "v^2",
         "config": {"seed": [1.5, 3.5]}}, [1.0, 3.0], [2.0, 4.0], "two_field_bateman"),
    "two_field": lambda: {
        "name": "m", "paper_anchor": "t", "kind": "simulate",
        "cases": [{"system": "two_field", "init": {"u": "1.0", "v": "1.0"},
                   "grid": {"t_end": 0.05}, "resolutions": [16],
                   "checks": [{"equation": "conservation", "n_values": [1]}]}]},
    "multifield": lambda: {
        "name": "m", "paper_anchor": "t", "kind": "simulate",
        "cases": [{"system": "multifield",
                   "init": {"u1": "0.4", "u2": "-0.3", "v1": "0.9", "v2": "1.1"},
                   "grid": {"t_end": 0.1}, "resolutions": [8],
                   "checks": [{"equation": "multifield_det"}]}]},
    "variational": lambda: {
        "name": "m", "paper_anchor": "t", "kind": "variational",
        "cases": [{"source": {"f": "u^2", "g": "v^2", "config": {"seed": [1.5, 3.5]},
                              "t_window": [9.75, 10.25], "x_window": [-14.75, -14.25]},
                   "resolutions": [9], "psi": ["s"]}]},
    "leznov": lambda: _verify_scenario(
        {"op": "leznov", "n": 2, "Q": ["phi - x1 - x2"], "P": ["xb1 + xb2"]},
        [-1] * 4, [1] * 4, "constraint_gap"),
    "transport": lambda: _with(_COMPLETE["two_field"](), ("checks",),
                               [{"equation": "transport"}]),
    "born_infeld": lambda: _with(_COMPLETE["hodograph"](), ("checks", 0, "equation"),
                                 "born_infeld"),
    "covariance": lambda: _with(_COMPLETE["hodograph"](), ("checks", 0, "equation"),
                                "linear_covariance"),
    "binding": lambda: _with(_COMPLETE["leznov"](), ("checks",), [
        {"equation": "holomorphy", "tolerance": 1e-8},
        {"equation": "zero_curvature", "tolerance": 1e-8}]),
    "reparametrization": lambda: _with(_COMPLETE["implicit_fg"](), ("checks", 0, "equation"),
                                       "reparametrization"),
    "ad": lambda: {"name": "m", "paper_anchor": "t", "kind": "ad",
                   "cases": [{"expressions": 5}]},
}


@pytest.mark.parametrize("scenario,path", [
    ("implicit_fg", ("construct", "F")), ("implicit_fg", ("construct", "G")),
    ("holo_sum", ("construct", "f")), ("holo_sum", ("construct", "g")),
    ("implicit_3d", ("construct", "F")), ("implicit_3d", ("construct", "G")),
    ("implicit_3d", ("construct", "K")),
    ("hodograph", ("construct", "f")), ("hodograph", ("construct", "g")),
    ("two_field", ("init",)), ("multifield", ("init",)),
    ("variational", ("source", "f")), ("variational", ("source", "g")),
    ("variational", ("source", "t_window")), ("variational", ("source", "x_window")),
])
def test_missing_required_field_exits_2(tmp_path, capsys, scenario, path):
    data = _COMPLETE[scenario]()
    node = data["cases"][0]
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    command = "simulate" if data["kind"] == "simulate" else "verify"
    args = [command, _write(tmp_path, "m.json", data), "--out", str(tmp_path / "o")]
    assert cli.main(args) == cli.EXIT_VALIDATION
    assert f"missing required field {path[-1]!r}" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [20240801, 7])
def test_pointwise_reports_match_recorded_digests(tmp_path, seed):
    """Reports of every bundled scenario, and the grid dumps of the simulate
    ones, match the digests the benchmark recorded for its four workloads."""
    recorded = json.loads((ROOT / "perfbench" / "digests.json").read_text())[str(seed)]
    digests = recorded["pointwise_verify"]
    assert sorted(digests) == [p.name[:-5] for p in cli.bundled_scenarios()
                               if p.name[:3] in ("c01", "c02", "c03", "c04", "c06",
                                                 "c07", "c10")]
    dumped = recorded["characteristic_dump"]
    assert sorted(dumped) == ["c05_conservation_hierarchy", "c08_multifield_determinant"]
    digests = {**digests, **dumped, **recorded["variational_grid"],
               **recorded["fresh_expressions"]}
    assert sorted(digests) == [p.name[:-5] for p in cli.bundled_scenarios()]
    # the fresh_expressions workload runs c11 with its cases repeated 10 times
    # (``repeat_cases`` in perfbench/workloads.py)
    repeat = {"c11_jet_convergence": 10}
    for path in cli.bundled_scenarios():
        name = path.name[:-5]
        data = json.loads(path.read_text())
        data["cases"] *= repeat.get(name, 1)
        cli.run_scenario(data, tmp_path / name, seed=seed, dump=name in dumped)
        assert sorted(p.name for p in (tmp_path / name).iterdir()) == sorted(digests[name])
        for fname, digest in digests[name].items():
            written = (tmp_path / name / fname).read_bytes()
            assert hashlib.sha256(written).hexdigest() == digest, fname


def test_one_solve_per_point_and_seed(tmp_path, monkeypatch):
    """Every check of a case reads the case's one solve per point and seed."""
    solves = Counter()
    hodograph_solve, leznov_solve = construct.HodographSolver.solve_many, leznov.solve_many

    def keys(points, seeds):
        seeds = [None] * len(points) if seeds is None else seeds
        return [(*np.ravel(p).tolist(), None if s is None else tuple(np.ravel(s).tolist()))
                for p, s in zip(points, seeds)]

    def count_hodograph(self, t, x, seeds=None):
        for key in keys(np.stack([t, x], axis=-1), seeds):
            solves["hodograph", *key] += 1
        return hodograph_solve(self, t, x, seeds)

    def count_leznov(sys, points, seeds=None):
        for key in keys(points, seeds):
            solves["leznov", *key] += 1
        return leznov_solve(sys, points, seeds)

    monkeypatch.setattr(construct.HodographSolver, "solve_many", count_hodograph)
    monkeypatch.setattr(leznov, "solve_many", count_leznov)
    data = {"name": "solves", "paper_anchor": "t", "kind": "verify", "cases": [
        {"label": "hodograph",
         "construct": {"op": "parametric_hodograph", "f": "u^2", "g": "v^2",
                       "config": {"seed": [1.5, 3.5]}},
         "samples": {"mode": "uv_box", "count": 12, "low": [1.0, 3.0], "high": [2.0, 4.0]},
         "checks": [{"equation": "two_field_bateman", "tolerance": 1e-9},
                    {"equation": "roundtrip", "tolerance": 1e-10},
                    {"equation": "born_infeld", "tolerance": 1e-9, "lambda": 1.3},
                    {"equation": "reparametrized_two_field", "tolerance": 1e-9,
                     "maps": ["s^3 + s", "exp(0.3*s)"]}]},
        {"label": "leznov",
         "construct": {"op": "leznov", "n": 2, "Q": ["phi + 0.3*phi^3 - x1 - 0.5*x1*x2"],
                       "P": ["xb1 + xb2^2 + 0.2*sin(xb2)"], "config": {"seed": 0.3}},
         "samples": {"count": 10, "low": [-0.5] * 4, "high": [0.5] * 4},
         "checks": [{"equation": "constraint_gap", "tolerance": 1e-12},
                    {"equation": "holomorphy", "tolerance": 1e-8},
                    {"equation": "zero_curvature", "tolerance": 1e-8},
                    {"equation": "complex_bateman", "tolerance": 1e-8}]},
    ]}
    _, code = cli.run_scenario(data, tmp_path, seed=3)
    assert code == cli.EXIT_PASS
    # 12 sample-seeded solves, plus 12 from the configured seed for the
    # Born-Infeld integrability check; 10 Leznov solves.
    assert Counter(key[0] for key in solves) == {"hodograph": 24, "leznov": 10}
    assert max(solves.values()) == 1


def _small(name: str, **changes) -> dict:
    """Bundled scenario ``name`` with each case's ``changes`` applied."""
    data = json.loads((ROOT / "src" / "batlab" / "scenarios" / f"{name}.json").read_text())
    for case, change in zip(data["cases"], changes.get("cases", [changes] * len(data["cases"]))):
        for key, value in change.items():
            if key == "count":
                case["samples"]["count"] = value
            else:
                case[key] = value
    return data


def test_verify_cases_solve_as_batches_and_grids_by_columns(tmp_path, monkeypatch):
    """A verify case makes no one-point solve: its points are solved by
    batched solves.  A grid makes one one-point solve per row of its first
    column, and one batched solve per further column."""
    calls, rows = Counter(), Counter()  # calls per entry point; batched solves by size

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "solve_many":
                rows[len(args[1])] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner in (construct.HodographSolver, construct.FieldHandle, leznov):
        for attr in ("solve_constraints" if owner is leznov else "solve", "solve_many"):
            monkeypatch.setattr(owner, attr, counting(attr, getattr(owner, attr)))
    for name in ("c03_hodograph_parametric", "c04_covariance", "c07_zero_curvature"):
        cli.run_scenario(_small(name, count=5), tmp_path / name, seed=1)
    assert calls["solve"] == calls["solve_constraints"] == 0
    # c03: 5 cases; c04: 3 cases, the last with one more solve per linear map
    # (10 maps); c07: 2 cases.
    assert calls["solve_many"] == 5 + 3 + 10 + 2

    calls.clear()
    rows.clear()
    grids = [[9, 11], [7]]
    cli.run_scenario(_small("c09_degenerate_lagrangian",
                            cases=[{"resolutions": r} for r in grids]), tmp_path / "c09", seed=1)
    # each one-point solve is a one-row batch
    assert calls["solve"] == rows[1] == 9 + 11 + 7
    assert rows == {1: 27, 9: 8, 11: 10, 7: 6}
    assert calls["solve_constraints"] == 0


def test_covariance_entries_count_their_own_skips(tmp_path, monkeypatch):
    """A point whose sample-seeded solve fails but whose mapped solves succeed
    is a linear_covariance sample under every map, and a skipped sample of
    moebius_speed_match only: no point is both a sample and skipped."""
    solve_many, calls = construct.HodographSolver.solve_many, []

    def first_solve_fails(self, t, x, seeds=None):
        calls.append((t, x))
        errors, uv = solve_many(self, t, x, seeds)
        if len(calls) == 1:  # the case's sample-seeded solve: its first point fails
            assert errors[0] is None
            errors, uv = [NewtonConvergenceError("forced")] + errors[1:], uv[1:]
        return errors, uv

    monkeypatch.setattr(construct.HodographSolver, "solve_many", first_solve_fails)
    data = _with(_COMPLETE["covariance"](), ("checks", 0, "maps"), 3)
    report, _ = cli.run_scenario(data, tmp_path, seed=1)
    covariance, speeds = report["reports"]
    assert (covariance["samples"], covariance["skipped"]) == (12, 0)
    assert (speeds["samples"], speeds["skipped"]) == (9, 3)


def _with(data, path, value):
    node = data["cases"][0]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def _forbid_work(monkeypatch):
    """Make every solve and integration fail the test."""
    def forbidden(*args, **kwargs):
        raise AssertionError("solved or integrated before validation")

    monkeypatch.setattr(construct.FieldHandle, "solve", forbidden)
    monkeypatch.setattr(construct.FieldHandle, "solve_many", forbidden)
    monkeypatch.setattr(construct.HodographSolver, "solve", forbidden)
    monkeypatch.setattr(construct.HodographSolver, "solve_many", forbidden)
    monkeypatch.setattr(construct, "hodograph_grid", forbidden)
    monkeypatch.setattr(hydro, "integrate_characteristics", forbidden)
    monkeypatch.setattr(hydro, "integrate_multifield", forbidden)
    monkeypatch.setattr(leznov, "solve_constraints", forbidden)
    monkeypatch.setattr(leznov, "solve_many", forbidden)


@pytest.mark.parametrize("scenario", ["implicit_fg", "holo_sum", "implicit_3d", "hodograph",
                                      "leznov", "two_field", "multifield", "variational"])
def test_forbid_work_bites(tmp_path, monkeypatch, scenario):
    """Each kind of case reaches one of the entry points ``_forbid_work``
    forbids, so the tests that use it would see a solve before validation."""
    _forbid_work(monkeypatch)
    with pytest.raises(AssertionError, match="before validation"):
        cli.run_scenario(_COMPLETE[scenario](), tmp_path, seed=1)


def _main_exit(tmp_path, data, *extra):
    command = "simulate" if data["kind"] == "simulate" else "verify"
    return cli.main([command, _write(tmp_path, "m.json", data),
                     "--out", str(tmp_path / "o"), *extra])


@pytest.mark.parametrize("scenario,check", [
    ("implicit_3d", {"equation": "complex_bateman"}),
    ("implicit_fg", {"equation": "euclidean_3d"}),
    ("holo_sum", {"equation": "euclid_first_order"}),
    ("implicit_fg", {"equation": "reparametrization", "target": "nonsense"}),
    ("holo_sum", {"equation": "reparametrization", "target": "euclidean_3d"}),
    ("implicit_3d", {"equation": "reparametrization", "target": "complex_bateman"}),
    ("hodograph", {"equation": "reparametrization", "target": "complex_bateman"}),
])
def test_check_of_another_arity_exits_2_before_solving(tmp_path, monkeypatch, capsys,
                                                       scenario, check):
    data = _with(_COMPLETE[scenario](), ("checks",), [{**check, "tolerance": 1e-9}])
    _forbid_work(monkeypatch)
    assert _main_exit(tmp_path, data) == cli.EXIT_VALIDATION
    assert "does not apply to" in capsys.readouterr().err


def test_complex_bateman_on_a_larger_leznov_system_exits_2_before_solving(
        tmp_path, monkeypatch, capsys):
    data = _verify_scenario(
        {"op": "leznov", "n": 3, "Q": ["phi1 - x1", "phi2 - x2"], "P": ["xb1", "xb2"],
         "config": {"seed": [0.0, 0.0]}},
        [-1] * 6, [1] * 6, "constraint_gap")
    data["cases"][0]["checks"].append({"equation": "complex_bateman", "tolerance": 1e-9})
    _forbid_work(monkeypatch)
    assert _main_exit(tmp_path, data) == cli.EXIT_VALIDATION
    assert "complex_bateman check needs n = 2" in capsys.readouterr().err


def test_reparametrization_target_defaults_to_the_fields_equation(tmp_path):
    data = _with(_COMPLETE["implicit_3d"](), ("checks",),
                 [{"equation": "reparametrization", "tolerance": 1e-9}])
    report, code = cli.run_scenario(data, tmp_path, seed=1)
    assert code == cli.EXIT_PASS
    assert [e["equation"] for e in report["reports"]] == [
        "reparametrized_euclidean_3d[implicit_3d:s^3 + s]"]


@pytest.mark.parametrize("count", [0, -2])
@pytest.mark.parametrize("dump", [False, True])
def test_sample_count_below_one_exits_2(tmp_path, capsys, count, dump):
    data = _with(_tiny_verify_scenario(), ("samples", "count"), count)
    assert _main_exit(tmp_path, data, *(["--dump"] if dump else [])) == cli.EXIT_VALIDATION
    assert "samples count must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("scenario,path,value", [
    ("two_field", ("init",), "uv"),
    ("multifield", ("init",), "uv"),
    ("two_field", ("grid",), "fine"),
    ("implicit_fg", ("construct",), "solve_implicit_fg"),
    ("implicit_fg", ("construct", "config"), "fast"),
    ("hodograph", ("construct", "config"), [1.5, 3.5]),
    ("implicit_fg", ("samples",), "box"),
    ("hodograph", ("samples",), "box"),
    ("variational", ("source",), "hodograph"),
    ("variational", ("source", "config"), "fast"),
    ("implicit_fg", ("checks", 0), "complex_bateman"),
    ("two_field", ("checks", 0), 5),
    ("implicit_fg", ("checks",), 5),
    ("two_field", ("checks",), {"equation": "conservation"}),
])
def test_block_of_wrong_json_type_exits_2(tmp_path, monkeypatch, capsys, scenario, path,
                                          value):
    data = _with(_COMPLETE[scenario](), path, value)
    _forbid_work(monkeypatch)
    assert _main_exit(tmp_path, data) == cli.EXIT_VALIDATION
    assert "JSON object" in capsys.readouterr().err


def test_case_of_wrong_json_type_exits_2(tmp_path, capsys):
    data = {**_COMPLETE["two_field"](), "cases": ["two_field"]}
    assert _main_exit(tmp_path, data) == cli.EXIT_VALIDATION
    assert "JSON objects" in capsys.readouterr().err
    path = _write(tmp_path, "five.json", 5)
    assert cli.main(["verify", path, "--out", str(tmp_path / "o")]) == cli.EXIT_VALIDATION
    assert "JSON object" in capsys.readouterr().err
    data = {**_COMPLETE["two_field"](), "paper_anchor": 5}
    assert _main_exit(tmp_path, data) == cli.EXIT_VALIDATION
    assert "paper_anchor: expected a string" in capsys.readouterr().err


@pytest.mark.parametrize("scenario,path,value", [
    ("implicit_fg", ("samples", "count"), "many"),
    ("implicit_fg", ("samples", "count"), 1e400),
    ("implicit_fg", ("samples", "count"), True),
    ("implicit_fg", ("samples", "count"), 2.5),
    ("implicit_fg", ("samples", "low"), ["x", -1, -1, -1]),
    ("implicit_fg", ("samples", "low"), -1),
    ("implicit_fg", ("checks", 0, "tolerance"), "tight"),
    ("implicit_fg", ("checks", 0, "tolerance"), float("nan")),
    ("implicit_fg", ("checks", 0, "tolerance"), None),
    ("implicit_fg", ("construct", "config", "max_iter"), "lots"),
    ("implicit_fg", ("construct", "config", "bracket"), [0.0]),
    ("hodograph", ("construct", "config", "seed"), ["1.5", 3.5]),
    ("two_field", ("resolutions",), ["16"]),
    ("two_field", ("grid", "t_end"), "soon"),
    ("variational", ("resolutions",), 9),
    ("variational", ("source", "t_window"), [9.75]),
    ("leznov", ("construct", "Q"), 5),
    ("leznov", ("construct", "P"), "xb1 + xb2"),
    ("variational", ("psi",), "s"),
    ("variational", ("factors",), {"p/q": 1}),
    ("implicit_fg", ("label",), 5),
    ("two_field", ("label",), "../escaped"),
    ("variational", ("label",), ["x"]),
    ("born_infeld", ("checks", 0, "lambda"), "big"),
    ("born_infeld", ("checks", 0, "lambda"), -1),
    ("covariance", ("checks", 0, "maps"), "ten"),
    ("covariance", ("checks", 0, "speed_tolerance"), "tight"),
    ("binding", ("checks", 0, "speeds_on_x"), "w"),
    ("binding", ("checks", 1, "speeds_on_x"), "w"),
    # inputs that would give no report entry for a check, grid, map or variation
    ("implicit_fg", ("checks",), []),
    ("two_field", ("checks",), []),
    ("two_field", ("resolutions",), []),
    ("two_field", ("checks", 0, "n_values"), []),
    ("reparametrization", ("checks", 0, "maps"), []),
    ("variational", ("resolutions",), []),
    ("variational", ("psi",), []),
    ("variational", ("factors",), []),
    ("variational", ("vary",), []),
    ("ad", ("expressions",), 0),
    ("ad", ("expressions",), -3),
    ("covariance", ("checks", 0, "maps"), 0),
    ("covariance", ("checks", 0, "maps"), -2),
])
def test_scalar_of_wrong_type_exits_2_before_solving(tmp_path, monkeypatch, capsys, scenario,
                                                     path, value):
    data = _with(_COMPLETE[scenario](), path, value)
    _forbid_work(monkeypatch)
    assert _main_exit(tmp_path, data) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "expected a" in err and path[-1] in err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("block", [
    {"op": "solve_implicit_fg", "F": "phi - x1^400", "G": "xb1 + xb2",
     "config": {"seed": 0.0}},
    {"op": "holo_sum", "f": "x1^400", "g": "xb1"},
])
def test_power_overflow_skips_every_sample(tmp_path, capsys, block):
    data = _verify_scenario(block, [9, -1, -1, -1], [11, 1, 1, 1])
    assert _main_exit(tmp_path, data) == cli.EXIT_FAIL
    assert capsys.readouterr().err == ""
    text = (tmp_path / "o" / "m.report.json").read_text()
    assert "NaN" not in text
    entry = json.loads(text)["reports"][0]
    assert (entry["samples"], entry["skipped"], entry["pass"]) == (0, 4, False)


@pytest.mark.parametrize("scenario,path,value", [
    ("variational", ("vary",), ["psi", "chi"]),
    ("variational", ("vary",), [["psi"]]),
    ("variational", ("vary",), 5),
    ("two_field", ("system",), "three_field"),
    ("two_field", ("checks",), [{"equation": "multifield_det"}]),
    ("multifield", ("checks",), [{"equation": "conservation"}]),
    ("transport", ("grid", "bc"), "open"),
])
def test_unknown_variation_system_or_check_exits_2_before_solving(
        tmp_path, monkeypatch, scenario, path, value):
    data = _with(_COMPLETE[scenario](), path, value)
    _forbid_work(monkeypatch)
    assert _main_exit(tmp_path, data) == cli.EXIT_VALIDATION


@pytest.mark.parametrize("scenario,path,value", [
    ("implicit_fg", ("construct", "F"), "phi - x"),
    ("hodograph", ("construct", "f"), "v^2"),
    ("implicit_fg", ("construct", "config", "seed"), [0.0, 1.0]),
    ("implicit_3d", ("construct", "config", "seed"), [0.0]),
    ("implicit_fg", ("construct", "config", "max_iter"), 0),
    ("implicit_fg", ("construct", "config", "newton_tol"), -1),
    ("implicit_fg", ("checks",), [{"equation": "reparametrization", "tolerance": 1e-9,
                                   "maps": ["s*t"]}]),
    ("two_field", ("resolutions",), [16, 4]),
    ("multifield", ("resolutions",), [4]),
    ("two_field", ("grid", "t_end"), -1),
    ("two_field", ("grid", "cfl"), 2),
    ("two_field", ("checks", 0, "n_values"), [0]),
    ("variational", ("resolutions",), [9, 4]),
    ("variational", ("factors",), ["p"]),
    ("variational", ("psi",), ["s*t"]),
    ("variational", ("source", "config", "seed"), 1.5),
    ("leznov", ("construct", "n"), 4),
    ("leznov", ("construct", "config"), {"seed": [0.0, 1.0]}),
    ("hodograph", ("construct", "config", "seed"), 1.5),
    ("born_infeld", ("construct", "config", "seed"), 1.5),
    ("implicit_fg", ("samples",), {"count": 4, "low": [-1] * 3, "high": [1] * 3}),
    ("holo_sum", ("samples",), {"count": 4, "low": [-1] * 5, "high": [1] * 5}),
    ("implicit_3d", ("samples",), {"count": 4, "low": [0.5, -1, -1, -1], "high": [1.5, 1, 1, 1]}),
    ("hodograph", ("samples",), {"count": 4, "low": [1.0, 3.0, 0.0], "high": [2.0, 4.0, 1.0]}),
    ("leznov", ("samples",), {"count": 4, "low": [-1] * 3, "high": [1] * 3}),
    ("two_field", ("init", "u"), "1.0 + 0.1*sin(y)"),
    ("multifield", ("init", "u1"), "0.4 + 0.1*sin(x1)"),
    ("multifield", ("init",), {"u1": "0.4", "u2": "-0.3", "v1": "0.9"}),
    ("variational", ("source", "f"), "v^2"),
    ("variational", ("source", "g"), "v^2 + u"),
    # Grids the marcher cannot step: no cell width, or a CFL number outside (0, 0.9].
    ("two_field", ("grid", "x1"), 0.0),
    ("two_field", ("grid", "x1"), -1.0),
    ("multifield", ("grid", "cfl"), 0),
    ("multifield", ("grid", "cfl"), -0.5),
    ("multifield", ("grid", "cfl"), 5),
])
def test_input_error_caught_by_the_library_exits_2_before_solving(
        tmp_path, monkeypatch, capsys, scenario, path, value):
    data = _with(_COMPLETE[scenario](), path, value)
    _forbid_work(monkeypatch)
    assert _main_exit(tmp_path, data) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")


def test_one_density_jet_per_node(tmp_path, monkeypatch):
    """A variational case evaluates the density once per interior node and
    (resolution, factor, psi), shared by all three variations, in one batched
    jet per interior row."""
    calls, nodes = Counter(), Counter()
    density_jet = varlag.DiscreteFunctional._density_jet

    def counting(self, slots):
        calls[self.ht] += 1
        nodes[self.ht] += len(slots[0])
        return density_jet(self, slots)

    monkeypatch.setattr(varlag.DiscreteFunctional, "_density_jet", counting)
    data = _COMPLETE["variational"]()
    data["cases"][0].update(resolutions=[9, 11], psi=["s", "s^3"],
                            factors=["p/q", "p^2/(p^2 + q^2)"])
    report, code = cli.run_scenario(data, tmp_path, seed=1)
    assert code == cli.EXIT_PASS
    assert len(report["reports"]) == 2 * 2 * 2 * 4
    # two factors times two psi choices per resolution
    assert sorted(nodes.values()) == [4 * (11 - 2) ** 2, 4 * (9 - 2) ** 2][::-1]
    assert sorted(calls.values()) == [4 * (11 - 2), 4 * (9 - 2)][::-1]


def _strict_json(text: str):
    """``json.loads`` that rejects the non-standard NaN and Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_reports_are_strict_json(tmp_path):
    # Every sample skipped: the norms have no value and are written as null.
    data = _verify_scenario({"op": "holo_sum", "f": "x1^400", "g": "xb1"},
                            [9, -1, -1, -1], [11, 1, 1, 1])
    assert _main_exit(tmp_path, data) == cli.EXIT_FAIL
    entry = _strict_json((tmp_path / "o" / "m.report.json").read_text())["reports"][0]
    assert (entry["max_norm"], entry["rms_norm"], entry["pass"]) == (None, None, False)
    # An aborted integration.
    data = _with(_COMPLETE["two_field"](), ("init",),
                 {"u": "1.5 + 0.3*sin(x)", "v": "1.5 + 0.3*sin(x)"})
    data = _with(data, ("grid",), {"t_end": 4.0})
    assert _main_exit(tmp_path, data) == cli.EXIT_ABORT
    entry = _strict_json((tmp_path / "o" / "m.report.json").read_text())["reports"][-1]
    assert entry["equation"].startswith("aborted[level=")
    assert (entry["max_norm"], entry["pass"]) == (None, False)


def test_null_norm_fails_its_halving_entry():
    measured = {16: {"s1": None, "s2": 1e-3}, 32: {"s1": 1e-4, "s2": 2.5e-4}}
    entries = cli._halving("case", [16, 32], measured, 3.0)
    assert [(e["max_norm"], e["pass"]) for e in entries] == [(None, False), (0.25, True)]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("f,low,high,code,samples", [
    ("exp(700)*exp(700)*x1 + x2", 0.5, 1.0, cli.EXIT_FAIL, 0),
    ("x1^1001 + x2", 9.0, 11.0, cli.EXIT_FAIL, 0),
    ("x1^1001 + x2", 0.5, 1.0, cli.EXIT_PASS, 4),
])
def test_jets_follow_the_float_error_contract(tmp_path, capsys, f, low, high, code, samples):
    """A non-finite jet is a skipped sample, and a huge integer power is evaluated."""
    data = _verify_scenario({"op": "holo_sum", "f": f, "g": "xb1"},
                            [low, -1, -1, -1], [high, 1, 1, 1])
    assert _main_exit(tmp_path, data) == code
    assert capsys.readouterr().err == ""
    entry = _strict_json((tmp_path / "o" / "m.report.json").read_text())["reports"][0]
    assert (entry["samples"], entry["skipped"]) == (samples, 4 - samples)


@pytest.mark.parametrize("name", [5, "../escaped", "a/b", "", ".."])
def test_scenario_name_that_is_not_a_file_name_exits_2(tmp_path, capsys, name):
    data = {**_tiny_verify_scenario(), "name": name}
    (tmp_path / "in").mkdir()
    path = _write(tmp_path / "in", "m.json", data)
    assert cli.main(["verify", path, "--out", str(tmp_path / "in" / "o")]) == \
        cli.EXIT_VALIDATION
    assert "name: expected a file-name string" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["in", "m.json"]


def test_reparametrization_maps_not_a_list_exits_2(tmp_path, monkeypatch, capsys):
    data = _with(_tiny_verify_scenario(), ("checks",), [
        {"equation": "reparametrization", "tolerance": 1e-9, "maps": "s^3"}])
    _forbid_work(monkeypatch)
    assert _main_exit(tmp_path, data) == cli.EXIT_VALIDATION
    assert "maps: expected a JSON list" in capsys.readouterr().err


@pytest.mark.parametrize("jobs,sizes", [(64, [2]), (2, [2]), (1, [])])
def test_suite_pool_has_at_most_one_worker_per_scenario(tmp_path, monkeypatch, capsys,
                                                         jobs, sizes):
    """``suite --jobs N`` starts min(N, scenarios) workers, and none for N = 1.
    A stand-in pool records its size and runs the tasks in this process."""
    import concurrent.futures

    started = []

    class Pool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    files = []
    for name in ("a", "b"):
        data = _COMPLETE["two_field"]()
        data["name"] = name
        files.append(Path(_write(tmp_path, f"{name}.json", data)))
    monkeypatch.setattr(cli, "bundled_scenarios", lambda: files)
    assert cli.main(["suite", "--jobs", str(jobs), "--out", str(tmp_path / "o")]) == \
        cli.EXIT_PASS
    assert started == sizes
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["a.report.json",
                                                                   "b.report.json"]


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_suite_jobs_below_one_exits_2(tmp_path, monkeypatch, capsys, jobs):
    monkeypatch.setattr(cli, "bundled_scenarios", lambda: pytest.fail("the suite ran"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["suite", "--jobs", jobs, "--out", str(tmp_path / "o")])
    assert exc.value.code == cli.EXIT_VALIDATION
    assert "--jobs: expected an integer of at least 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_suite_survives_a_bad_scenario(tmp_path, monkeypatch, capsys):
    good = _COMPLETE["two_field"]()
    good["name"] = "good"
    invalid = _with(_COMPLETE["two_field"](), ("checks",), 5)
    invalid["name"] = "invalid"
    failing = {**good, "name": "failing"}
    failing["cases"] = [{"source": {"f": "u^2", "g": "v^2",
                                    "config": {"seed": [1.5, 3.5], "max_iter": 8},
                                    "t_window": [500.0, 501.0], "x_window": [400.0, 401.0]},
                         "resolutions": [9]}]
    failing["kind"] = "variational"
    files = [Path(_write(tmp_path, f"{d['name']}.json", d)) for d in (good, invalid, failing)]
    monkeypatch.setattr(cli, "bundled_scenarios", lambda: files)
    assert cli.main(["suite", "--out", str(tmp_path / "o")]) == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    rows = {line.split()[0]: line for line in captured.out.splitlines()[1:]}
    assert sorted(rows) == ["failing", "good", "invalid"]
    assert rows["good"].endswith("PASS")
    assert rows["invalid"].endswith("ERROR (exit 2)")
    assert rows["failing"].endswith("ERROR (exit 3)")
    assert "error: checks: expected a JSON list" in captured.err
    assert "numerical failure" in captured.err
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["good.report.json"]
