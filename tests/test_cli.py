"""Scenario driver: exit codes, report schema, determinism, bundled files."""

import hashlib
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from batlab import cli, construct, hydro, leznov, varlag

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
    """Reports of every sampled and grid scenario, and the grid dumps of the
    simulate ones, match the digests the benchmark recorded."""
    recorded = json.loads((ROOT / "perfbench" / "digests.json").read_text())[str(seed)]
    digests = recorded["pointwise_verify"]
    assert sorted(digests) == [p.name[:-5] for p in cli.bundled_scenarios()
                               if p.name[:3] in ("c01", "c02", "c03", "c04", "c06",
                                                 "c07", "c10")]
    dumped = recorded["characteristic_dump"]
    assert sorted(dumped) == ["c05_conservation_hierarchy", "c08_multifield_determinant"]
    digests = {**digests, **dumped, **recorded["variational_grid"]}
    assert "c09_degenerate_lagrangian" in digests
    for path in cli.bundled_scenarios():
        name = path.name[:-5]
        if name not in digests:
            continue
        cli.run_scenario(json.loads(path.read_text()), tmp_path / name, seed=seed,
                         dump=name in dumped)
        assert sorted(p.name for p in (tmp_path / name).iterdir()) == sorted(digests[name])
        for fname, digest in digests[name].items():
            written = (tmp_path / name / fname).read_bytes()
            assert hashlib.sha256(written).hexdigest() == digest, fname


def test_one_solve_per_point_and_seed(tmp_path, monkeypatch):
    """Every check of a case reads the case's one solve per point and seed."""
    solves = Counter()
    hodograph_solve, leznov_solve = construct.HodographSolver.solve, leznov.solve_constraints

    def seed_key(seed):
        return None if seed is None else tuple(np.ravel(seed).tolist())

    def count_hodograph(self, t, x, seed=None):
        solves["hodograph", float(t), float(x), seed_key(seed)] += 1
        return hodograph_solve(self, t, x, seed)

    def count_leznov(sys, point, seed=None):
        solves["leznov", *np.asarray(point, dtype=float).tolist(), seed_key(seed)] += 1
        return leznov_solve(sys, point, seed)

    monkeypatch.setattr(construct.HodographSolver, "solve", count_hodograph)
    monkeypatch.setattr(leznov, "solve_constraints", count_leznov)
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

    monkeypatch.setattr(construct.FieldHandle, "__call__", forbidden)
    monkeypatch.setattr(construct.HodographSolver, "solve", forbidden)
    monkeypatch.setattr(construct, "hodograph_grid", forbidden)
    monkeypatch.setattr(hydro, "integrate_characteristics", forbidden)
    monkeypatch.setattr(hydro, "integrate_multifield", forbidden)
    monkeypatch.setattr(leznov, "solve_constraints", forbidden)


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
