"""Acceptance gate: every headline claim at its stated tolerance.

Each criterion prints one PASS/FAIL line; the bundled scenarios provide the
constructions and the per-check tolerances asserted here.
"""

import filecmp
import json
import time
from functools import lru_cache

import numpy as np
import pytest
import sympy as sp

from batlab import cli, jets
from batlab.cli import EXIT_PASS
from oracles import multifield_det

@pytest.fixture(scope="session")
def _run(tmp_path_factory):
    """``run(name)``: (report, exit code, seconds) of the bundled scenario
    whose file name starts with ``name``, run once per session into one
    directory that pytest manages."""
    out = tmp_path_factory.mktemp("acceptance")

    @lru_cache(maxsize=None)
    def run(name: str):
        path = next(p for p in cli.bundled_scenarios() if p.name.startswith(name))
        data = json.loads(path.read_text())
        start = time.perf_counter()
        report, code = cli.run_scenario(data, out / name, seed=20240801)
        elapsed = time.perf_counter() - start
        return report, code, elapsed

    return run


def _report_line(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}{': ' + detail if detail else ''}")


def _entries(report, prefix: str):
    out = [e for e in report["reports"] if e["equation"].startswith(prefix)]
    assert out, f"no report entries for {prefix!r}"
    return out


def test_criterion_01_implicit_constraint_solutions(_run):
    report, code, _ = _run("c01")
    entries = _entries(report, "complex_bateman")
    ok = (code == EXIT_PASS and len(entries) == 5
          and all(e["tolerance"] == 1e-9 and e["samples"] >= 160 and e["pass"]
                  for e in entries))
    _report_line("criterion 1 (implicit constraint family, 1e-9)", ok,
                 f"worst {max(e['max_norm'] for e in entries):.2e}")
    assert ok


def test_criterion_02_holomorphic_sum_subclass(_run):
    report, code, _ = _run("c02")
    entries = _entries(report, "complex_bateman")
    ok = (code == EXIT_PASS and len(entries) == 5
          and all(e["tolerance"] == 1e-12 and e["pass"] for e in entries))
    _report_line("criterion 2 (holo+antiholo sums, 1e-12)", ok,
                 f"worst {max(e['max_norm'] for e in entries):.2e}")
    assert ok


def test_criterion_03_hodograph_solutions(_run):
    report, code, _ = _run("c03")
    eq2 = _entries(report, "two_field_bateman")
    ident = _entries(report, "hodograph_identities")
    rt = _entries(report, "roundtrip")
    ok = (code == EXIT_PASS and len(eq2) == 5
          and all(e["tolerance"] == 1e-9 and e["pass"] for e in eq2)
          and all(e["tolerance"] == 1e-12 and e["pass"] for e in ident)
          and all(e["tolerance"] == 1e-10 and e["pass"] for e in rt))
    _report_line("criterion 3 (hodograph family + identities + round trip)", ok)
    assert ok


def test_criterion_04_covariance_suite(_run):
    report, code, _ = _run("c04")
    reparam = [e for e in report["reports"]
               if e["equation"].startswith("reparametrized")]
    linear = _entries(report, "linear_covariance")
    ok = (code == EXIT_PASS and len(reparam) == 6
          and all(e["tolerance"] == 1e-9 and e["pass"] for e in reparam + linear))
    _report_line("criterion 4 (reparametrization + linear covariance, 1e-9)", ok)
    assert ok


def test_criterion_05_conservation_hierarchy(_run):
    report, code, _ = _run("c05")
    drift = [e for e in report["reports"] if e["equation"].startswith("conservation_s")]
    ratios = [e for e in report["reports"] if e["equation"].startswith("halving")
              and ":s" in e["equation"]]
    ok = (code == EXIT_PASS
          and len(drift) == 2 * 2 * 5  # two cases, two resolutions, n = 1..5
          and all(e["pass"] for e in drift)
          and len(ratios) == 10 and all(e["pass"] for e in ratios))
    _report_line("criterion 5 (conservation drift <= 5h^2, halving >= 3.5x)", ok)
    assert ok


def test_criterion_06_born_infeld(_run):
    # The residual formula must first be confirmed by the symbolic
    # cross-derivative oracle, then hold on hodograph-fed fields.
    u, v, lam, ux, vx = sp.symbols("u v lam u_x v_x", positive=True)
    X = sp.sqrt(lam) / (sp.sqrt(u) - sp.sqrt(v))
    T = sp.sqrt(lam * u * v) / (sp.sqrt(u) - sp.sqrt(v))
    d_t = lambda W: sp.diff(W, u) * v * ux + sp.diff(W, v) * u * vx
    d_x = lambda W: sp.diff(W, u) * ux + sp.diff(W, v) * vx
    oracle_ok = (sp.simplify(d_t(X) - d_x(T)) == 0
                 and sp.simplify(X**2 * d_t(T) + T**2 * d_x(X)
                                 - (lam + 2 * X * T) * d_x(T)) == 0)

    report, code, _ = _run("c06")
    bi = _entries(report, "born_infeld")
    ok = (oracle_ok and code == EXIT_PASS
          and all(e["tolerance"] == 1e-9 and e["pass"] for e in bi))
    _report_line("criterion 6 (born-infeld oracle + residuals, 1e-9)", ok)
    assert ok


def test_criterion_07_zero_curvature_construction(_run):
    report, code, _ = _run("c07")
    gaps = _entries(report, "constraint_gap")
    dphi = _entries(report, "d_phi") + _entries(report, "dbar_phi")
    zc = _entries(report, "zero_curvature")
    cb = _entries(report, "complex_bateman")
    ok = (code == EXIT_PASS
          and all(e["tolerance"] == 1e-12 and e["pass"] for e in gaps)
          and all(e["tolerance"] == 1e-8 and e["pass"] for e in dphi + zc)
          and all(e["tolerance"] == 1e-8 and e["pass"] for e in cb))
    _report_line("criterion 7 (constraints 1e-12; operators 1e-8; n=2 and n=3)", ok)
    assert ok


def test_criterion_08_multifield_determinant(_run):
    # Exact zero cases first.
    rng = np.random.default_rng(0)
    lin = [jets.from_parts(rng.normal(), rng.normal(size=3), np.zeros((3, 3)))
           for _ in range(4)]
    exact_linear = multifield_det(*lin, j=1).raw == 0.0
    g = rng.normal(size=3)
    h = rng.normal(size=(3, 3))
    p1 = jets.from_parts(0.1, g, 0.5 * (h + h.T))
    p2 = jets.from_parts(0.1, -1.7 * g, 0.5 * (h + h.T))
    b1 = jets.from_parts(0.1, rng.normal(size=3), np.zeros((3, 3)))
    rank_def = multifield_det(p1, p2, b1, b1, j=1).normalized <= 1e-12

    report, code, elapsed = _run("c08")
    det = [e for e in report["reports"] if e["equation"].startswith("multifield_det")]
    ratios = [e for e in report["reports"] if e["equation"].startswith("halving")]
    ok = (exact_linear and rank_def and code == EXIT_PASS
          and len(det) == 4 and all(e["pass"] for e in det)
          and all(e["pass"] for e in ratios)
          and elapsed < 60.0)
    _report_line("criterion 8 (determinant K h^2, K stable; budget 60 s)", ok,
                 f"{elapsed:.1f} s")
    assert ok


def test_criterion_09_variational_suite(_run):
    report, code, _ = _run("c09")
    entries = [e for e in report["reports"] if e["equation"].startswith("variational")]
    psi_choices = {e["equation"] for e in entries if "psi=s^3" in e["equation"]}
    factor_entries = [e for e in entries
                      if "H=p^2" in e["equation"] or "H=(p - q)" in e["equation"]]
    ok = (code == EXIT_PASS and all(e["pass"] for e in entries)
          and len(psi_choices) >= 3 and len(factor_entries) >= 6)
    _report_line("criterion 9 (variational residuals <= 5h^2; factor freedom)", ok)
    assert ok


def test_criterion_10_euclidean_family(_run):
    report, code, _ = _run("c10")
    eq = _entries(report, "euclidean_3d")
    first = _entries(report, "euclid_first_order")
    ok = (code == EXIT_PASS and len(eq) == 4
          and all(e["tolerance"] == 1e-9 and e["pass"] for e in eq)
          and all(e["tolerance"] == 1e-8 and e["pass"] for e in first))
    _report_line("criterion 10 (implicit family 1e-9; first-order system 1e-8)", ok)
    assert ok


def test_criterion_11_jet_foundation(_run):
    report, code, _ = _run("c11")
    entry = _entries(report, "ad_convergence")[0]
    ok = (code == EXIT_PASS and entry["samples"] == 500 and entry["max_norm"] == 0.0)
    _report_line("criterion 11 (500 random expressions converge 2nd order)", ok)
    assert ok


# -- the bars the code fixes -------------------------------------------------------------

# (scenario, entry name up to its bracket, bar / h^2); h is 2 pi / n on a
# grid of resolution n, and the larger window spacing of a variational grid
_FIXED_BARS = [
    *(("c05", f"conservation_s{n}", 5.0) for n in range(1, 6)),
    ("c05", "transport_u", 5.0), ("c05", "transport_v", 5.0),
    ("c08", "multifield_det_j1", 1.0), ("c08", "multifield_det_j2", 1.0),
    *(("c09", name, 5.0) for name in ("variational_psi", "variational_phibar",
                                      "variational_phi", "degeneracy_action")),
]


def _scenario_case(name: str, label: str) -> dict:
    path = next(p for p in cli.bundled_scenarios() if p.name.startswith(name))
    return next(c for c in json.loads(path.read_text())["cases"] if c["label"] == label)


@pytest.mark.parametrize("scenario,equation,coeff", _FIXED_BARS,
                         ids=[equation for _, equation, _ in _FIXED_BARS])
def test_each_grid_entry_has_its_fixed_multiple_of_h2_as_bar(_run, scenario, equation, coeff):
    report, _, _ = _run(scenario)
    entries = _entries(report, equation + "[")
    for e in entries:
        where, n = e["equation"][len(equation) + 1:-1].rsplit("@", 1)
        n = int(n)
        if scenario == "c09":
            source = _scenario_case(scenario, where.split(":")[0])["source"]
            nodes = [np.linspace(*source[w], n) for w in ("t_window", "x_window")]
            h = max(a[1] - a[0] for a in nodes)
        else:
            h = 2.0 * np.pi / n
        assert e["tolerance"] == float(coeff * h**2), e["equation"]


def test_conservation_checks_s1_to_s5_on_every_grid(_run):
    report, _, _ = _run("c05")
    names = [e["equation"] for e in _entries(report, "conservation_s")]
    grids = list(dict.fromkeys(name.split("[")[1] for name in names))
    assert len(grids) == 4  # two cases, two resolutions each
    assert names == [f"conservation_s{n}[{grid}" for grid in grids for n in range(1, 6)]


def test_variational_entries_are_psi_phibar_phi_in_that_order(_run):
    report, _, _ = _run("c09")
    names = [e["equation"] for e in report["reports"] if not e["equation"].startswith("halving")]
    grids = list(dict.fromkeys(name.split("[")[1] for name in names))
    assert len(grids) == 6
    assert names == [f"{vary}[{grid}" for grid in grids for vary in (
        "variational_psi", "variational_phibar", "variational_phi", "degeneracy_action")]


def test_linear_covariance_draws_ten_maps_and_matches_speeds_to_1e_8(_run):
    report, _, _ = _run("c04")
    count = _scenario_case("c04", "linear_maps")["samples"]["count"]
    linear, speeds = _entries(report, "linear_covariance"), _entries(report, "moebius_speed_match")
    assert len(linear) == len(speeds) == 1
    assert linear[0]["samples"] + linear[0]["skipped"] == 10 * count
    assert speeds[0]["samples"] + speeds[0]["skipped"] == 10 * count
    assert speeds[0]["tolerance"] == 1e-8


@pytest.mark.slow
def test_criterion_12_determinism(tmp_path):
    # Second run uses parallel workers: scheduling must not leak into reports.
    a = tmp_path / "a"
    b = tmp_path / "b"
    code1 = cli.run_suite(a, seed=4242)
    code2 = cli.run_suite(b, seed=4242, jobs=2)
    names = sorted(p.name for p in a.iterdir())
    identical = all(filecmp.cmp(a / n, b / n, shallow=False) for n in names)
    ok = identical and code1 == code2 == EXIT_PASS and len(names) == 11
    _report_line("criterion 12 (identical seed -> byte-identical reports)", ok)
    assert ok
