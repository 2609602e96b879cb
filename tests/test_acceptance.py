"""Acceptance gate: every headline claim at its stated tolerance.

Each criterion prints one PASS/FAIL line; the bundled scenarios provide the
constructions and the per-check tolerances asserted here.
"""

import filecmp
import json
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from batlab import cli, jets
from batlab.cli import EXIT_PASS
from oracles import multifield_det

_OUT = None


def _outdir(tmp_path_factory=None) -> Path:
    global _OUT
    if _OUT is None:
        import tempfile

        _OUT = Path(tempfile.mkdtemp(prefix="batlab-acceptance-"))
    return _OUT


@lru_cache(maxsize=None)
def _run(name: str):
    path = next(p for p in cli.bundled_scenarios() if p.name.startswith(name))
    data = json.loads(path.read_text())
    start = time.perf_counter()
    report, code = cli.run_scenario(data, _outdir() / name, seed=20240801)
    elapsed = time.perf_counter() - start
    return report, code, elapsed


def _report_line(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}{': ' + detail if detail else ''}")


def _entries(report, prefix: str):
    out = [e for e in report["reports"] if e["equation"].startswith(prefix)]
    assert out, f"no report entries for {prefix!r}"
    return out


def test_criterion_01_implicit_constraint_solutions():
    report, code, _ = _run("c01")
    entries = _entries(report, "complex_bateman")
    ok = (code == EXIT_PASS and len(entries) == 5
          and all(e["tolerance"] == 1e-9 and e["samples"] >= 160 and e["pass"]
                  for e in entries))
    _report_line("criterion 1 (implicit constraint family, 1e-9)", ok,
                 f"worst {max(e['max_norm'] for e in entries):.2e}")
    assert ok


def test_criterion_02_holomorphic_sum_subclass():
    report, code, _ = _run("c02")
    entries = _entries(report, "complex_bateman")
    ok = (code == EXIT_PASS and len(entries) == 5
          and all(e["tolerance"] == 1e-12 and e["pass"] for e in entries))
    _report_line("criterion 2 (holo+antiholo sums, 1e-12)", ok,
                 f"worst {max(e['max_norm'] for e in entries):.2e}")
    assert ok


def test_criterion_03_hodograph_solutions():
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


def test_criterion_04_covariance_suite():
    report, code, _ = _run("c04")
    reparam = [e for e in report["reports"]
               if e["equation"].startswith("reparametrized")]
    linear = _entries(report, "linear_covariance")
    ok = (code == EXIT_PASS and len(reparam) == 6
          and all(e["tolerance"] == 1e-9 and e["pass"] for e in reparam + linear))
    _report_line("criterion 4 (reparametrization + linear covariance, 1e-9)", ok)
    assert ok


def test_criterion_05_conservation_hierarchy():
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


def test_criterion_06_born_infeld():
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


def test_criterion_07_zero_curvature_construction():
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


def test_criterion_08_multifield_determinant():
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


def test_criterion_09_variational_suite():
    report, code, _ = _run("c09")
    entries = [e for e in report["reports"] if e["equation"].startswith("variational")]
    psi_choices = {e["equation"] for e in entries if "psi=s^3" in e["equation"]}
    factor_entries = [e for e in entries
                      if "H=p^2" in e["equation"] or "H=(p - q)" in e["equation"]]
    ok = (code == EXIT_PASS and all(e["pass"] for e in entries)
          and len(psi_choices) >= 3 and len(factor_entries) >= 6)
    _report_line("criterion 9 (variational residuals <= 5h^2; factor freedom)", ok)
    assert ok


def test_criterion_10_euclidean_family():
    report, code, _ = _run("c10")
    eq = _entries(report, "euclidean_3d")
    first = _entries(report, "euclid_first_order")
    ok = (code == EXIT_PASS and len(eq) == 4
          and all(e["tolerance"] == 1e-9 and e["pass"] for e in eq)
          and all(e["tolerance"] == 1e-8 and e["pass"] for e in first))
    _report_line("criterion 10 (implicit family 1e-9; first-order system 1e-8)", ok)
    assert ok


def test_criterion_11_jet_foundation():
    report, code, _ = _run("c11")
    entry = _entries(report, "ad_convergence")[0]
    ok = (code == EXIT_PASS and entry["samples"] == 500 and entry["max_norm"] == 0.0)
    _report_line("criterion 11 (500 random expressions converge 2nd order)", ok)
    assert ok


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
