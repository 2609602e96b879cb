"""Scenario driver: exit codes, report schema, determinism, bundled files."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from batlab import cli, construct, exprspec, hydro, jets, leznov, residuals, varlag
from batlab.errors import EvaluationError, JetDomainError, NewtonConvergenceError
from batlab.exprspec import parse

import oracles

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
                   "t_end": 0.05,
                   "resolutions": [16],
                   "checks": [{"equation": "conservation"}]}],
    }
    path = _write(tmp_path, "sim.json", data)
    assert cli.main(["verify", path, "--out", str(tmp_path / "o")]) == cli.EXIT_VALIDATION
    assert cli.main(["simulate", path, "--out", str(tmp_path / "o")]) == cli.EXIT_PASS


def test_simulate_constant_data_zero_drift(tmp_path):
    data = {
        "name": "const", "paper_anchor": "t", "kind": "simulate",
        "cases": [{"system": "two_field",
                   "init": {"u": "1.4", "v": "-0.6"},
                   "t_end": 0.1,
                   "resolutions": [32],
                   "checks": [{"equation": "conservation"}]}],
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
                   "t_end": 4.0,
                   "resolutions": [64],
                   "checks": [{"equation": "conservation"}]}],
    }
    path = _write(tmp_path, "steep.json", data)
    assert cli.main(["simulate", path, "--out", str(tmp_path / "o")]) == cli.EXIT_ABORT
    report = json.loads((tmp_path / "o" / "steep.report.json").read_text())
    assert any(e["equation"].startswith("aborted[level=") for e in report["reports"])
    assert (tmp_path / "o" / "steep.partial.csv").exists()


def test_simulate_cfl_violation_exits_4_with_the_computed_levels(tmp_path, monkeypatch):
    """Speeds that grow past the CFL bound abort at level 9; the partial dump
    holds exactly the levels 0..9.  No tried periodic input grows its speeds
    (each field is constant along its characteristic), so the interpolant is
    made to scale what it returns by 1.02."""
    class Growing(hydro.MonotoneCubic1D):
        def __call__(self, *args):
            return 1.02 * super().__call__(*args)

    monkeypatch.setattr(hydro, "MonotoneCubic1D", Growing)
    data = _with(_COMPLETE["two_field"](), ("init",), {"u": "1.5 + 0.3*sin(x)", "v": "2.0"})
    data = _with(data, ("t_end",), 1.0)
    data = _with(data, ("resolutions",), [32])
    assert _main_exit(tmp_path, data) == cli.EXIT_ABORT
    report = json.loads((tmp_path / "o" / "m.report.json").read_text())
    assert report["reports"][-1]["equation"] == "aborted[level=9]"
    lines = (tmp_path / "o" / "m.partial.csv").read_text().splitlines()
    assert len(lines) == 1 + 10 * 32
    assert lines[-1].startswith("9,")
    meta = json.loads((tmp_path / "o" / "m.partial.meta.json").read_text())
    assert (meta["levels"], meta["nodes"]) == (10, 32)


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
                   "t_end": 0.1,
                   "resolutions": [8],
                   "checks": [{"equation": "multifield_det"}]}],
    }
    path = _write(tmp_path, "mf.json", data)
    code = cli.main(["simulate", path, "--out", str(tmp_path / "o"), "--dump"])
    assert code == cli.EXIT_PASS
    dump = tmp_path / "o" / "mf.flat.8.csv"
    assert dump.read_text().splitlines()[0] == "level,x1,x2,x3,u1,u2,v1,v2"
    assert (tmp_path / "o" / "mf.flat.8.meta.json").exists()


def _assert_samples_dump(tmp_path, monkeypatch, data, name, count, width):
    """``verify --dump`` writes the case's sample points, byte for byte as
    ``csv.writer`` writes the same rows."""
    sinks = []
    run_case = cli._run_verify_case

    def keep_sink(case, rng, sink):
        sinks.append(sink)
        return run_case(case, rng, sink)

    monkeypatch.setattr(cli, "_run_verify_case", keep_sink)
    path = _write(tmp_path, "s.json", data)
    assert cli.main(["verify", path, "--out", str(tmp_path / "o"), "--dump"]) == cli.EXIT_PASS
    (pts,) = sinks[0].values()
    assert len(pts) == count and {len(p) for p in pts} == {width}
    oracles.write_samples_csv(tmp_path / "oracle.csv", pts)
    dump = (tmp_path / "o" / f"{name}.samples.csv").read_bytes()
    assert dump == (tmp_path / "oracle.csv").read_bytes()
    assert dump.count(b"\r\n") == count + 1  # header + one row per sampled point


def test_verify_dump_writes_sample_csv(tmp_path, monkeypatch):
    _assert_samples_dump(tmp_path, monkeypatch, _tiny_verify_scenario(), "tiny.case", 20, 4)


def test_verify_dump_writes_hodograph_sample_csv(tmp_path, monkeypatch):
    _assert_samples_dump(tmp_path, monkeypatch, _COMPLETE["hodograph"](),
                         "m.parametric_hodograph", 4, 4)


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


# Python run in a fresh interpreter after ``from batlab import cli``; it prints
# which of the modules ``cli`` binds on first use have run, then which of the
# modules a run may not load are loaded.
_FRESH = """
import sys, types
from batlab import cli
{code}
print([m for m in ("construct", "hydro", "leznov", "varlag")
       if type(sys.modules.get("batlab." + m)) is types.ModuleType])
print([m for m in {absent!r} if m in sys.modules])
"""
# scipy's Python package loads for no run (c08's spline loads only its compiled
# ndimage extension), concurrent.futures only for ``suite --jobs N`` with N > 1,
# and csv for no run: the dumps join their rows as strings
_UNLOADED = ("scipy", "csv", "concurrent.futures")


def _scenario_file(prefix: str) -> str:
    return str(next(p for p in cli.bundled_scenarios() if p.name.startswith(prefix)))


@pytest.mark.parametrize("command,ran,absent", [
    ([], [], _UNLOADED),
    (["load"], [], _UNLOADED),
    (["verify", "c11"], [], _UNLOADED),
    (["simulate", "c05"], ["hydro"], _UNLOADED),
    (["verify", "c01"], ["construct"], _UNLOADED),
    (["verify", "c07"], ["construct", "leznov"], _UNLOADED),
    (["verify", "c09"], ["construct", "hydro", "varlag"], _UNLOADED),
    (["simulate", "c08"], ["hydro"], _UNLOADED),
    (["suite"], ["construct", "hydro", "leznov", "varlag"], _UNLOADED),
], ids=["import", "load_every_bundled_file", "ad", "simulate", "verify", "verify_leznov",
        "variational", "simulate_spline", "suite"])
def test_a_run_imports_only_what_its_kind_needs(tmp_path, command, ran, absent):
    """``cli`` binds construct, hydro, leznov and varlag as modules that run on
    their first attribute access, so a fresh interpreter runs only those its
    scenario's kind needs (a lazy placeholder has not run).  No run loads
    scipy's Python package or csv, and concurrent.futures loads only where a
    run needs it."""
    if command == ["load"]:
        code = "for path in cli.bundled_scenarios():\n    cli.load_scenario(path)"
    elif command:
        args = command[:1] + [_scenario_file(c) for c in command[1:]]
        code = f"assert cli.main({args + ['--out', str(tmp_path)]!r}) == 0"
    else:
        code = ""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", _FRESH.format(code=code, absent=absent)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-2:] == [repr(ran), "[]"]


def test_format_writes_out_the_hydro_constants_it_needs():
    """The four-field system's names are written out in ``cli``, which reads
    no hydro constant while it builds its tables; they must stay hydro's."""
    assert cli._SYSTEMS["multifield"].fields == hydro.MULTI_FIELDS


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
            "samples": {"count": 40, "low": [-0.5, 2.0], "high": [0.5, 3.0]},
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
    points = cli._box_sampler(data["cases"][0]["samples"], cli._scenario_rng(5, "m"), 4)
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
    uv = cli._box_sampler(data["cases"][0]["samples"], cli._scenario_rng(5, "m"), 2)
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


def test_hodograph_case_raises_the_first_failing_samples_error():
    """A sample whose (t, x) image fails raises, the first such sample's
    error, not that of the first operation failing over the case."""
    block = {"op": "parametric_hodograph", "f": "log(u - 1) + u^2", "g": "v*sqrt(v)",
             "config": {"seed": [0.5, 1.0]}}
    case = {"samples": {"count": 100, "low": [0.5, -0.5], "high": [1.0, 3.0]}}
    uv = cli._box_sampler(case["samples"], np.random.default_rng(3), 2)
    solver = construct.HodographSolver(parse(block["f"]), parse(block["g"]),
                                       construct.ImplicitSolveConfig())
    with pytest.raises(JetDomainError) as expected:
        for u0, v0 in uv.tolist():
            solver.forward(u0, v0)
    with pytest.raises(JetDomainError) as array_call:
        solver.forward(uv[:, 0], uv[:, 1])
    assert array_call.value.args != expected.value.args
    with pytest.raises(JetDomainError) as err:
        cli._hodograph_case(cli._read(block, "construct parametric_hodograph"), "case", case,
                            np.random.default_rng(3))
    assert err.value.args == expected.value.args


def test_roundtrip_skips_the_points_whose_forward_map_fails():
    """The roundtrip entry counts as skipped the points whose solve failed
    and those whose forward map raises, and its worst mismatch is the
    point-by-point one."""
    block = {"op": "parametric_hodograph", "f": "log(u)", "g": "v^3",
             "config": {"seed": [1.0, 2.5]}}
    case = {"samples": {"count": 40, "low": [0.5, 2.0], "high": [1.5, 3.0]}}
    c = cli._hodograph_case(cli._read(block, "construct parametric_hodograph"), "log_cubic",
                            case, np.random.default_rng(8))
    assert c.skipped == 0
    errors = list(c.errors)
    errors[3] = errors[7] = EvaluationError("a failed solve")
    keep = np.array([err is None for err in errors])
    phi, phibar = residuals.take(c.batch, keep)
    u = phibar.value.copy()
    u[[1, 5, 9]] *= -1.0  # log(u) fails there
    u[12] *= 1.01  # maps to another (t, x)
    c = dataclasses.replace(c, errors=errors, batch=(phi, jets.Jet2(u, phibar.grad, phibar.hess)))
    entry = cli._roundtrip(c, {"tolerance": 1e-10})[0]
    worst, skipped = oracles.roundtrip(c)
    assert skipped == 5 and worst > 1e-4
    assert (entry["samples"], entry["skipped"], entry["max_norm"]) == (40 - skipped, skipped,
                                                                        worst)


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
                   "t_end": 0.05, "resolutions": [16],
                   "checks": [{"equation": "conservation"}]}]},
    "multifield": lambda: {
        "name": "m", "paper_anchor": "t", "kind": "simulate",
        "cases": [{"system": "multifield",
                   "init": {"u1": "0.4", "u2": "-0.3", "v1": "0.9", "v2": "1.1"},
                   "t_end": 0.1, "resolutions": [8],
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
    ("hodograph", ("construct", "config")),
    ("two_field", ("init",)), ("multifield", ("init",)),
    ("two_field", ("t_end",)), ("multifield", ("t_end",)),
    ("variational", ("source", "f")), ("variational", ("source", "g")),
    ("variational", ("source", "config")),
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
    ones, match the digests the benchmark recorded for its four workloads or,
    for a scenario no workload runs, those in ``tests/digests.json``."""
    recorded = json.loads((ROOT / "perfbench" / "digests.json").read_text())[str(seed)]
    unbenched = json.loads((ROOT / "tests" / "digests.json").read_text())[str(seed)]
    digests = recorded["pointwise_verify"]
    assert sorted(digests) == [p.name[:-5] for p in cli.bundled_scenarios()
                               if p.name[:3] in ("c01", "c02", "c03", "c04", "c06",
                                                 "c07", "c10")]
    dumped = recorded["characteristic_dump"]
    assert sorted(dumped) == ["c05_conservation_hierarchy", "c08_multifield_determinant"]
    benched = {**digests, **dumped, **recorded["variational_grid"],
               **recorded["fresh_expressions"]}
    assert not benched.keys() & unbenched.keys()
    digests = {**benched, **unbenched}
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


def test_recorded_digests_hold_without_numpy_simd_dispatch():
    """The digest test at seed 20240801 passes again in a pytest subprocess
    with every SIMD target that numpy dispatches to on this CPU turned off
    (``NPY_DISABLE_CPU_FEATURES``), so no report or dump byte depends on
    which kernel a ufunc picked."""
    from numpy._core import _multiarray_umath as umath
    targets = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "NPY_DISABLE_CPU_FEATURES": " ".join(targets)}
    test = f"{Path(__file__).resolve()}::test_pointwise_reports_match_recorded_digests[20240801]"
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
                         capture_output=True, text=True, env=env, cwd=ROOT, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "1 passed" in run.stdout


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
         "samples": {"count": 12, "low": [1.0, 3.0], "high": [2.0, 4.0]},
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
    batched solves.  The grids of a variational scenario's source march
    together: one batched solve per first-column row over every grid that
    has the row, then one per further column over every grid that has it."""
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
    # c03: 5 cases; c04: 3 cases, the last with one more solve over the
    # points of all 10 linear maps; c07: 2 cases.
    assert calls["solve_many"] == 5 + 3 + 1 + 2
    assert rows[10 * 5] == 1

    calls.clear()
    rows.clear()
    grids = [[9, 11], [7]]
    cli.run_scenario(_small("c09_degenerate_lagrangian",
                            cases=[{"resolutions": r} for r in grids]), tmp_path / "c09", seed=1)
    assert calls["solve"] == calls["solve_constraints"] == 0
    # rows 0-6 of the first column over three grids, 7-8 over two, 9-10 over
    # one; then columns 1-6 over 9 + 11 + 7 rows, 7-8 over 9 + 11, 9-10 over 11
    assert calls["solve_many"] == 11 + 10
    assert rows == {3: 7, 2: 2, 1: 2, 27: 6, 20: 2, 11: 2}


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
    report, _ = cli.run_scenario(_COMPLETE["covariance"](), tmp_path, seed=1)
    covariance, speeds = report["reports"]
    # 4 points under each of the check's 10 maps
    assert (covariance["samples"], covariance["skipped"]) == (40, 0)
    assert (speeds["samples"], speeds["skipped"]) == (30, 10)


def _ad_reports(tmp_path, monkeypatch, data, seed) -> list[list]:
    """The files, by name and bytes, that ad scenario ``data`` writes at
    ``seed``: from the case that reduces its expressions in blocks, and from
    the per-expression oracle."""
    reports = []
    for name, run_case in (("blocks", cli._run_ad_case), ("oracle", oracles.run_ad_case)):
        monkeypatch.setattr(cli, "_run_ad_case", run_case)
        out = tmp_path / f"{name}-{seed}"
        cli.run_scenario(data, out, seed=seed)
        reports.append([(p.name, p.read_bytes()) for p in sorted(out.iterdir())])
    return reports


@pytest.mark.parametrize("seed", [*range(30), 110, 7, 20240801])
def test_ad_case_reports_the_bytes_of_the_per_expression_case(tmp_path, monkeypatch, seed):
    """c11, whose 500 expressions fit one block, at the 60-seed sweep's first
    30 seeds (seed 110 has its one false FAIL) and the benchmark's seeds."""
    blocks, oracle = _ad_reports(tmp_path, monkeypatch, _small("c11_jet_convergence"), seed)
    assert blocks == oracle


@pytest.mark.parametrize("min_ratio", [math.nextafter(1.0, math.inf), 1e9])
@pytest.mark.parametrize("steps", [[1e-3, 5e-4], [5e-4, 1e-3], [0.25, 1e-6]])
def test_ad_case_at_other_steps_and_ratios_reports_the_bytes_of_the_per_expression_case(
        tmp_path, monkeypatch, steps, min_ratio):
    data = _small("c11_jet_convergence", expressions=150, steps=steps, min_ratio=min_ratio)
    for seed in (3, 110):
        blocks, oracle = _ad_reports(tmp_path, monkeypatch, data, seed)
        assert blocks == oracle


@pytest.mark.parametrize("block,expressions", [(cli._BLOCK, 2 * cli._BLOCK + 37), (16, 48)])
def test_ad_case_over_several_blocks_reports_the_bytes_of_the_per_expression_case(
        tmp_path, monkeypatch, block, expressions):
    """Expressions that fill blocks and end in a partial block, or in a full one."""
    monkeypatch.setattr(cli, "_BLOCK", block)
    data = _small("c11_jet_convergence", expressions=expressions, min_ratio=5.0)
    blocks, oracle = _ad_reports(tmp_path, monkeypatch, data, 7)
    assert blocks == oracle
    assert 0 < json.loads(blocks[0][1])["reports"][0]["rms_norm"] < 1


def test_ad_case_draws_trees_without_parsing(monkeypatch):
    """Each random expression is drawn as the tree that the oracle parses
    from its text: the case reports the oracle's entry with the tokenizer
    and the parser refused."""
    expected = oracles.run_ad_case({"expressions": 200}, np.random.default_rng(11))

    def refused(*args, **kwargs):
        raise AssertionError("an expression was tokenized or parsed")

    monkeypatch.setattr(exprspec, "_tokenize", refused)
    monkeypatch.setattr(cli, "parse", refused)
    assert cli._run_ad_case({"expressions": 200}, np.random.default_rng(11)) == expected


def test_ad_case_memory_stays_within_a_block():
    """Four blocks' worth of expressions peak within 1.5x of one block's worth."""
    def peak(expressions: int) -> int:
        rng = np.random.default_rng(5)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        cli._run_ad_case({"expressions": expressions}, rng)
        return tracemalloc.get_traced_memory()[1] - before

    tracemalloc.start()
    try:
        peak(20)  # whatever a first case leaves behind
        one, four = peak(cli._BLOCK), peak(4 * cli._BLOCK)
    finally:
        tracemalloc.stop()
    assert four <= 1.5 * one, (one, four)


def test_probe_shifts_of_three_variables_are_the_written_out_stencil():
    """The probe stencil built for k = 3 is the 18 offsets of ``oracles``'s
    literal table, in its order and with its -0.0 coordinates, byte for byte;
    and each step's stencil is that table scaled by the step."""
    shifts = cli._probe_shifts(3)
    assert shifts.shape == oracles._STENCIL.shape
    assert shifts.tobytes() == oracles._STENCIL.tobytes()
    for steps in ((1e-2, 5e-3), (1e-3, 5e-4), (0.25, 1e-6)):
        expected = (oracles._STENCIL * np.array(steps)[:, None, None]).reshape(-1, 3)
        expected = np.concatenate((np.full((1, 3), -0.0), expected)).T
        assert cli._stencil(3, steps).tobytes() == expected.tobytes()


def test_ad_noise_floor_scales_with_the_value():
    """Rows of ``1e6 + a + b + c`` at steps (1e-3, 5e-4) pass only by the noise
    floor scaled by |value|: their quotients are rounding noise of about 1e-4,
    and their halving ratio is mostly 0.25, under the 3.5 bar.  The floor is
    0.23 with |value| in the scale and 2.3e-7 without it."""
    steps, names, spec = (1e-3, 5e-4), ["a", "b", "c"], parse("1e6 + a + b + c")
    stencil, values, exact = cli._stencil(3, steps), [], []
    for point in np.random.default_rng(0).uniform(0.4, 1.6, size=(20, 3)):
        values.append(cli._stencil_values(spec, names, point, stencil))
        jet = cli.eval_jet(spec, {n: jets.variable(i, point[i], 3) for i, n in enumerate(names)},
                           k=3)
        exact.append([jet.value, *jet.grad, *jet.hess.ravel()])
    values, exact = np.array(values), np.array(exact)
    errors = [np.abs(q - exact[:, 1:]).max(axis=1) for q in cli._quotients(values, 3, steps)]
    assert 1e-5 < errors[0].max() < 1e-3
    assert cli._defects(values, exact, 3, steps, 3.5) == 0
    exact[:, 0] = 0.0  # the value left out of the scale
    assert cli._defects(values, exact, 3, steps, 3.5) == 19


def _with(data, path, value):
    node = data["cases"][0]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def _forbid_work(monkeypatch):
    """Make every solve and integration, and an ad case's first jet, fail the test."""
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
    monkeypatch.setattr(cli, "eval_jet", forbidden)


@pytest.mark.parametrize("scenario", ["implicit_fg", "holo_sum", "implicit_3d", "hodograph",
                                      "leznov", "two_field", "multifield", "variational",
                                      "ad"])
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
    ("hodograph", {"equation": "reparametrization"}),
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


@pytest.mark.parametrize("scenario,equation", [
    ("implicit_fg", "complex_bateman"),
    ("holo_sum", "complex_bateman"),
    ("implicit_3d", "euclidean_3d"),
])
def test_reparametrization_checks_the_fields_own_equation(tmp_path, scenario, equation):
    data = _with(_COMPLETE[scenario](), ("checks",),
                 [{"equation": "reparametrization", "tolerance": 1e-9}])
    report, code = cli.run_scenario(data, tmp_path, seed=1)
    assert code == cli.EXIT_PASS
    case = data["cases"][0]
    label = case.get("label", case["construct"]["op"])
    assert [e["equation"] for e in report["reports"]] == [
        f"reparametrized_{equation}[{label}:s^3 + s]"]


@pytest.mark.parametrize("count", [0, -2])
@pytest.mark.parametrize("dump", [False, True])
def test_sample_count_below_one_exits_2(tmp_path, capsys, count, dump):
    data = _with(_tiny_verify_scenario(), ("samples", "count"), count)
    assert _main_exit(tmp_path, data, *(["--dump"] if dump else [])) == cli.EXIT_VALIDATION
    assert f"samples.count: expected an integer in [1, {cli._CAP}], got {count}" in \
        capsys.readouterr().err


@pytest.mark.parametrize("scenario,path,value", [
    ("two_field", ("init",), "uv"),
    ("multifield", ("init",), "uv"),
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
    ("two_field", ("t_end",), "soon"),
    ("multifield", ("t_end",), "soon"),
    ("multifield", ("t_end",), [0.1]),
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
    # inputs that would give no report entry for a check, grid or map
    ("implicit_fg", ("checks",), []),
    ("two_field", ("checks",), []),
    ("two_field", ("resolutions",), []),
    ("reparametrization", ("checks", 0, "maps"), []),
    ("variational", ("resolutions",), []),
    ("variational", ("psi",), []),
    ("variational", ("factors",), []),
    ("ad", ("expressions",), 0),
    ("ad", ("expressions",), -3),
    # more random expressions than a case may draw
    ("ad", ("expressions",), 10**6 + 1),
    ("ad", ("expressions",), 1e308),
    # a solve config out of range, also in a variational source; Newton keeps
    # (max_iter + 1) iterates per point, so a huge max_iter is refused before
    # any solve, not left to fail an allocation
    ("variational", ("source", "config", "max_iter"), 0),
    ("implicit_fg", ("construct", "config", "max_iter"), 10**13),
    ("variational", ("source", "config", "max_iter"), 10**13),
    # finite-difference steps whose squares underflow or overflow
    ("ad", ("steps",), [1e-200, 1e-200]),
    ("ad", ("steps",), [1e300, 1e300]),
    # resolutions that do not strictly increase: halving takes the first as
    # coarse and the last as fine, and a repeated one overwrites its dump
    ("two_field", ("resolutions",), [16, 32, 24]),
    ("multifield", ("resolutions",), [8, 8]),
    ("variational", ("resolutions",), [17, 9]),
    # a negative tolerance, which no check meets: it once ran every solve and failed
    ("implicit_fg", ("checks", 0, "tolerance"), -1.0),
    # a convergence ratio that every expression meets, whatever its jets
    ("ad", ("min_ratio",), -1.0),
    ("ad", ("min_ratio",), 0.0),
    ("ad", ("min_ratio",), 1.0),
    # a seed of the wrong shape for its solver family, a config, t_end or
    # resolution out of range, and a sample box of the wrong dimension
    ("implicit_fg", ("construct", "config", "seed"), [0.0, 1.0]),
    ("implicit_3d", ("construct", "config", "seed"), [0.0]),
    ("variational", ("source", "config", "seed"), 1.5),
    ("hodograph", ("construct", "config", "seed"), 1.5),
    ("born_infeld", ("construct", "config", "seed"), 1.5),
    ("implicit_fg", ("construct", "config", "max_iter"), 0),
    ("implicit_fg", ("checks",), [{"equation": "reparametrization", "tolerance": 1e-9,
                                   "maps": ["s*t"]}]),
    ("variational", ("psi",), ["s*t"]),
    ("two_field", ("resolutions",), [16, 4]),
    ("multifield", ("resolutions",), [4]),
    ("variational", ("resolutions",), [9, 4]),
    ("two_field", ("t_end",), -1),
    ("multifield", ("t_end",), -1),
    ("multifield", ("t_end",), 0.0),
    ("implicit_fg", ("samples",), {"count": 4, "low": [-1] * 3, "high": [1] * 3}),
    ("holo_sum", ("samples",), {"count": 4, "low": [-1] * 5, "high": [1] * 5}),
    ("implicit_3d", ("samples",), {"count": 4, "low": [0.5, -1, -1, -1], "high": [1.5, 1, 1, 1]}),
    ("hodograph", ("samples",), {"count": 4, "low": [1.0, 3.0, 0.0], "high": [2.0, 4.0, 1.0]}),
    ("leznov", ("samples",), {"count": 4, "low": [-1] * 3, "high": [1] * 3}),
])
def test_scalar_of_wrong_type_exits_2_before_solving(tmp_path, monkeypatch, capsys, scenario,
                                                     path, value):
    data = _with(_COMPLETE[scenario](), path, value)
    _forbid_work(monkeypatch)
    assert _main_exit(tmp_path, data) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "expected a" in err and path[-1] in err


# a scenario -> the entry point that its cases solve or integrate through
_CASE_WORK = {"implicit_fg": (construct.FieldHandle, "solve_many"),
              "hodograph": (construct.HodographSolver, "solve_many"),
              "leznov": (leznov, "solve_many"),
              "two_field": (hydro, "integrate_characteristics"),
              "multifield": (hydro, "integrate_multifield")}


@pytest.mark.parametrize("labelled", [True, False], ids=["given", "defaulted"])
@pytest.mark.parametrize("scenario", list(_CASE_WORK))
def test_repeated_case_label_exits_2_before_that_case_solves(tmp_path, monkeypatch, capsys,
                                                             scenario, labelled):
    """A case under the label of an earlier case, given or defaulted to its op
    or system, would overwrite that case's dumps: it exits 2 after the first
    case's work and before its own."""
    data = _COMPLETE[scenario]()
    case = data["cases"][0]
    if labelled:
        case["label"] = "same"
    else:
        case.pop("label", None)
    data["cases"] = [case, json.loads(json.dumps(case))]
    owner, name = _CASE_WORK[scenario]
    work, calls = getattr(owner, name), []

    def counted(*args, **kwargs):
        calls.append(1)
        return work(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    assert _main_exit(tmp_path, data, "--dump") == cli.EXIT_VALIDATION
    assert "already the label of an earlier case" in capsys.readouterr().err
    assert len(calls) == 1


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
    ("two_field", ("system",), "three_field"),
    ("two_field", ("checks",), [{"equation": "multifield_det"}]),
    ("multifield", ("checks",), [{"equation": "conservation"}]),
    ("transport", ("bc",), "open"),
    ("two_field", ("bc",), "periodic"),
    ("two_field", ("bc",), "open"),
    # settings the code fixes, each to its one useful value
    ("implicit_fg", ("samples", "mode"), "uv_box"),
    ("reparametrization", ("checks", 0, "target"), "complex_bateman"),
    ("binding", ("checks", 0, "speeds_on_x"), "v"),
    ("binding", ("checks", 0, "speeds_on_x"), "u"),
    ("binding", ("checks", 1, "speeds_on_x"), "v"),
    ("binding", ("checks", 1, "speeds_on_x"), "u"),
    ("implicit_fg", ("construct", "config", "newton_tol"), 1e-12),
    ("hodograph", ("construct", "config", "newton_tol"), 1e-12),
    ("leznov", ("construct", "config"), {"newton_tol": 1e-12}),
    ("variational", ("source", "config", "newton_tol"), 1e-12),
    ("two_field", ("grid",), {"t_end": 0.05, "cfl": 0.5}),
    ("multifield", ("grid",), {"t_end": 0.1, "cfl": 0.4}),
    ("two_field", ("x0",), 0.0),
    ("two_field", ("x1",), 2 * math.pi),
    ("two_field", ("cfl",), 0.5),
    ("multifield", ("cfl",), 0.4),
    ("two_field", ("checks", 0, "n_values"), [1, 2, 3, 4, 5]),
    ("two_field", ("checks", 0, "tolerance_h2_coeff"), 5.0),
    ("transport", ("checks", 0, "tolerance_h2_coeff"), 5.0),
    ("multifield", ("checks", 0, "tolerance_h2_coeff"), 1.0),
    ("variational", ("tolerance_h2_coeff",), 5.0),
    ("covariance", ("checks", 0, "maps"), 10),
    ("covariance", ("checks", 0, "speed_tolerance"), 1e-8),
    ("variational", ("vary",), ["psi", "phibar", "phi"]),
    # a bisection bracket, which only the scalar solves read
    ("hodograph", ("construct", "config", "bracket"), [1.0, 2.0]),
    ("leznov", ("construct", "config"), {"bracket": [5.0, 6.0]}),
    ("variational", ("source", "config", "bracket"), [1.0, 2.0]),
])
def test_unknown_variation_system_or_check_exits_2_before_solving(
        tmp_path, monkeypatch, scenario, path, value):
    data = _with(_COMPLETE[scenario](), path, value)
    _forbid_work(monkeypatch)
    assert _main_exit(tmp_path, data) == cli.EXIT_VALIDATION


@pytest.mark.parametrize("scenario,path,value", [
    ("implicit_fg", ("construct", "F"), "phi - x"),
    ("hodograph", ("construct", "f"), "v^2"),
    ("variational", ("factors",), ["p"]),
    ("leznov", ("construct", "n"), 4),
    ("leznov", ("construct", "config"), {"seed": [0.0, 1.0]}),
    ("two_field", ("init", "u"), "1.0 + 0.1*sin(y)"),
    ("multifield", ("init", "u1"), "0.4 + 0.1*sin(x1)"),
    ("multifield", ("init",), {"u1": "0.4", "u2": "-0.3", "v1": "0.9"}),
    ("variational", ("source", "f"), "v^2"),
    ("variational", ("source", "g"), "v^2 + u"),
    # A variational window of no width, or reversed: no grid spacing.
    ("variational", ("source", "t_window"), [10.0, 10.0]),
    ("variational", ("source", "x_window"), [-14.25, -14.75]),
])
def test_input_error_caught_by_the_library_exits_2_before_solving(
        tmp_path, monkeypatch, capsys, scenario, path, value):
    data = _with(_COMPLETE[scenario](), path, value)
    _forbid_work(monkeypatch)
    assert _main_exit(tmp_path, data) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")


def _variational_case(**changes) -> dict:
    """The case of ``_COMPLETE["variational"]`` with ``changes``; a ``source``
    change updates the source."""
    case = _COMPLETE["variational"]()["cases"][0]
    case["source"].update(changes.pop("source", {}))
    return {**case, **changes}


# f has no value where u >= 1.75, which the grid reaches at node (8, 5)
_FAILING_GRID = {"source": {"f": "u^2 + 0*log(1.75 - u)"}}


def _off_shell(monkeypatch):
    """Scale phi by 1.001 at one node of every grid that marches, which puts
    the psi residual of a 9^2 grid above ten times its 5 h^2 bar."""
    march = construct.hodograph_grid

    def bumped(solver, nodes):
        grids = march(solver, nodes)
        for grid in grids:
            if not isinstance(grid, Exception):
                grid[0][4, 4] *= 1.001
        return grids

    monkeypatch.setattr(construct, "hodograph_grid", bumped)


@pytest.mark.parametrize("first,second,off_shell", [
    (_variational_case(**_FAILING_GRID), _variational_case(resolutions=9), False),
    (_variational_case(), _variational_case(**_FAILING_GRID), True),
], ids=["grid_then_malformed", "off_shell_then_grid"])
def test_variational_scenario_raises_its_first_cases_error(tmp_path, monkeypatch, capsys, first,
                                                           second, off_shell):
    """A two-case variational scenario fails with the error of its first
    case, whatever its second case would raise: a failing grid before a
    malformed case, an on-shell guard before a failing grid."""
    if off_shell:
        _off_shell(monkeypatch)
    data = {**_COMPLETE["variational"](), "cases": [first]}
    assert _main_exit(tmp_path, data) == cli.EXIT_RUNTIME
    alone = capsys.readouterr().err
    assert alone.startswith("numerical failure: ")
    assert _main_exit(tmp_path, {**data, "cases": [first, second]}) == cli.EXIT_RUNTIME
    assert capsys.readouterr().err == alone


def test_one_density_jet_per_node(tmp_path, monkeypatch):
    """A variational case evaluates the density once per interior node and
    (resolution, factor, psi), shared by all three variations, in one batched
    jet per block of at most ``varlag._BLOCK`` interior nodes."""
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
    assert sorted(calls.values()) == [4 * math.ceil((n - 2) ** 2 / varlag._BLOCK)
                                      for n in (9, 11)]


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
    data = _with(data, ("t_end",), 4.0)
    assert _main_exit(tmp_path, data) == cli.EXIT_ABORT
    entry = _strict_json((tmp_path / "o" / "m.report.json").read_text())["reports"][-1]
    assert entry["equation"].startswith("aborted[level=")
    assert (entry["max_norm"], entry["pass"]) == (None, False)


@pytest.mark.parametrize("scale", [1e70, 1e100])
def test_conservation_of_fields_of_any_amplitude_is_finite(tmp_path, scale):
    """c05's general pair scaled by 1e70 or 1e100, marched for that fraction
    of its time, passes with five finite drifts per grid in strict JSON.
    Unscaled, the difference quotients of S_4 and S_5 (at 1e70) or S_3..S_5
    (at 1e100) overflow on these grids and their drifts would be null."""
    path = next(p for p in cli.bundled_scenarios() if p.name.startswith("c05"))
    data = {**json.loads(path.read_text()), "name": "m"}
    (case,) = data["cases"] = [c for c in data["cases"] if c["label"] == "general_pair"]
    case["init"] = {name: f"{scale!r}*({text})" for name, text in case["init"].items()}
    case["t_end"] /= scale
    assert _main_exit(tmp_path, data) == cli.EXIT_PASS
    text = (tmp_path / "o" / "m.report.json").read_text()
    assert "null" not in text
    drifts = [e["max_norm"] for e in _strict_json(text)["reports"]
              if e["equation"].startswith("conservation_s")]
    assert len(drifts) == 2 * 5 and all(math.isfinite(d) for d in drifts)


@pytest.mark.parametrize("wider", ["t_window", "x_window"])
def test_variational_bar_is_5_h2_of_the_larger_spacing(tmp_path, wider):
    """Every variational entry of a case whose windows differ in width has
    the bar 5 h^2, h the spacing of the wider window."""
    data = _COMPLETE["variational"]()
    source = data["cases"][0]["source"]
    source[wider] = [source[wider][0], source[wider][0] + 0.6]  # the other is 0.5 wide
    assert _main_exit(tmp_path, data) == cli.EXIT_PASS
    nodes = np.linspace(*source[wider], 9)
    bars = {e["tolerance"] for e in json.loads((tmp_path / "o" / "m.report.json").read_text())
            ["reports"] if e["equation"].startswith("variational_")}
    assert bars == {float(5.0 * (nodes[1] - nodes[0]) ** 2)}


@pytest.mark.parametrize("system,cfl", [("two_field", 0.5), ("multifield", 0.4)])
def test_dump_sidecar_records_the_fixed_courant_number(tmp_path, system, cfl):
    assert _main_exit(tmp_path, _COMPLETE[system](), "--dump") == cli.EXIT_PASS
    (sidecar,) = (tmp_path / "o").glob("*.meta.json")
    assert json.loads(sidecar.read_text())["cfl"] == cfl


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


def test_size_beyond_memory_exits_3(tmp_path, monkeypatch, capsys):
    """A sample count whose points no allocator grants (3.2 PB) is a runtime
    failure, not a traceback, and a suite row shows its exit code."""
    data = _with(_COMPLETE["implicit_fg"](), ("samples", "count"), 10**14)
    assert _main_exit(tmp_path, data) == cli.EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("numerical failure: ")
    monkeypatch.setattr(cli, "bundled_scenarios", lambda: [Path(_write(tmp_path, "m.json", data))])
    assert cli.main(["suite", "--out", str(tmp_path / "s")]) == cli.EXIT_RUNTIME
    assert capsys.readouterr().out.splitlines()[1].endswith("ERROR (exit 3)")


@pytest.mark.parametrize("command", ["verify", "simulate", "suite"])
def test_out_naming_a_file_exits_2(tmp_path, monkeypatch, capsys, command):
    out = tmp_path / "taken"
    out.write_text("kept")
    monkeypatch.setattr(cli, "bundled_scenarios", lambda: pytest.fail("the suite ran"))
    scenario = _write(tmp_path, "m.json", _COMPLETE[
        "two_field" if command == "simulate" else "implicit_fg"]())
    args = [command] if command == "suite" else [command, scenario]
    assert cli.main([*args, "--out", str(out)]) == cli.EXIT_VALIDATION
    assert "error: --out: cannot create directory" in capsys.readouterr().err
    assert out.read_text() == "kept"


@pytest.mark.parametrize("scenario,path,value", [
    ("two_field", ("resolutions",), [2**63]),
    ("multifield", ("resolutions",), [2**63]),
    ("variational", ("resolutions",), [2**63]),
    ("two_field", ("resolutions",), [2**62]),
    ("variational", ("resolutions",), [2**62]),
    ("implicit_fg", ("samples", "count"), 2**63),
])
def test_count_beyond_the_longest_array_exits_2_before_solving(tmp_path, monkeypatch, capsys,
                                                               scenario, path, value):
    """A count above the longest float64 array numpy can describe is refused
    as read, not left to a traceback, an endless loop or a failed allocation."""
    data = _with(_COMPLETE[scenario](), path, value)
    _forbid_work(monkeypatch)
    assert _main_exit(tmp_path, data) == cli.EXIT_VALIDATION
    assert str(cli._CAP) in capsys.readouterr().err


@pytest.mark.parametrize("scenario,path,value", [
    ("two_field", ("t_end",), 1e308),
    ("multifield", ("t_end",), 1e308),
    # a speed so large that its first step is 0
    ("two_field", ("init", "u"), "1.7e308"),
    ("multifield", ("init", "v2"), "1.7e308"),
])
def test_grid_without_a_finite_step_count_exits_3(tmp_path, capsys, scenario, path, value):
    """A grid whose t_end takes no finite number of CFL steps is a runtime
    failure, like a grid too large for memory."""
    data = _with(_COMPLETE[scenario](), path, value)
    assert _main_exit(tmp_path, data) == cli.EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("numerical failure: t_end")


@pytest.mark.parametrize("scenario,path,value", [
    ("implicit_fg", ("samples",), {"count": 4, "low": [-1e308] * 4, "high": [1e308] * 4}),
    ("c05", ("checks", 0, "tolerance_h2_coef"), 1e-12),
    ("c11", ("label",), "../escaped"),
    # resolutions out of order, once read as a halving ratio of about 4
    ("c05", ("resolutions",), [256, 128]),
    ("c05", ("resolutions",), [128, 128]),
    ("c09", ("resolutions",), [65, 33]),
])
def test_input_the_reader_once_let_through_exits_2_before_solving(
        tmp_path, monkeypatch, capsys, scenario, path, value):
    """A sample box beyond the float range, a misspelt key (which once left
    its default in force), an ad label (a key an ad case does not have) and
    resolutions that do not increase."""
    bundled = {"c05": "c05_conservation_hierarchy", "c09": "c09_degenerate_lagrangian",
               "c11": "c11_jet_convergence"}
    data = _small(bundled[scenario]) if scenario in bundled else _COMPLETE[scenario]()
    data = _with(data, path, value)
    _forbid_work(monkeypatch)
    assert _main_exit(tmp_path, data) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")
