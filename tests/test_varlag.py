"""Discrete variational suite: density values, degree-0 factors, on-shell residuals."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batlab import jets, varlag
from batlab.construct import HodographSolver, ImplicitSolveConfig, hodograph_grid
from batlab.exprspec import eval_jet, parse
from batlab.residuals import ResidualSample, grid_report
from batlab.varlag import (
    DiscreteFunctional,
    degree0_test,
    onshell_degeneracy,
    psi_from,
    variational_residual,
)
import oracles
from oracles import assert_batch_matches_points, density_jet, load_char_grid


def test_density_hand_value():
    # phi = t + 2x, phibar = x, psi = t: bracket = -1, factor = 1/2.
    f = DiscreteFunctional(ht=0.1, hx=0.1)
    lj, h = f._density_jet([[1.0], [2.0], [0.0], [1.0], [1.0], [0.0]])
    assert h[0] == pytest.approx(0.5)
    assert lj.value[0] == pytest.approx(-0.5)


_slot_value = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-170, -1e170]),
                        st.floats(-4.0, 4.0))
# Outer forms that leave the domain at zero or negative slot values.
_UNGUARDED = ("{}", "({}) / q", "log({})", "sqrt(p * ({}))", "({})^0.5", "({})^-2",
              "exp(({}) / p)")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 4),
       outer=st.sampled_from(_UNGUARDED),
       row=st.integers(1, 5).flatmap(lambda n: st.lists(
           st.lists(_slot_value, min_size=n, max_size=n), min_size=6, max_size=6)))
@settings(derandomize=True, max_examples=400, deadline=None)
def test_row_density_matches_one_jet2_per_node(seed, depth, outer, row):
    """The batched density of a row is, node by node, the scalar Jet2 density
    bit for bit; an error is one that a node raises."""
    text = outer.format(oracles.random_expression(np.random.default_rng(seed), ["p", "q"],
                                                  depth))
    f = DiscreteFunctional(ht=0.1, hx=0.1)
    f.factor = parse(text)  # parity needs no weight-zero factor
    assert_batch_matches_points(
        lambda: f._density_jet(row),
        lambda i: density_jet(f.factor, [slot[i] for slot in row]), len(row[0]))


def test_degree0_examples():
    assert degree0_test(parse("p/q"))
    assert degree0_test(parse("p^2/(p^2 + q^2)"))
    assert not degree0_test(parse("p"))
    assert not degree0_test(parse("p*q"))
    assert degree0_test(parse("(p - q)/(p + q)"))


def test_degree0_points_are_drawn_once_and_read_only(monkeypatch):
    """Every weight-zero test probes the same 50 (p, q), the draws of the
    oracle in order, drawn by one generator on first use (not at import)
    into one read-only array."""
    code = ("from batlab import cli, varlag\n"
            "for path in cli.bundled_scenarios():\n    cli.load_scenario(path)\n"
            "print(varlag._degree0_points.cache_info().currsize)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0"]

    varlag._degree0_points.cache_clear()
    generators, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: generators.append(seed) or default_rng(seed))
    verdicts = [degree0_test(parse(text)) for text in ("p/q", "p", "log(p/q)", "p/q")]
    assert verdicts == [True, False, True, True] and generators == [2024]
    pq = varlag._degree0_points()
    assert pq is varlag._degree0_points() and pq.shape == (50, 2)
    assert not pq.flags.writeable
    with pytest.raises(ValueError):
        pq[0, 0] = 1.0
    monkeypatch.undo()
    assert pq.view(np.int64).tolist() == np.array(
        list(oracles.degree0_points())).view(np.int64).tolist()


_DEGREE0_FACTORS = ("p/q", "p^2/(p^2 + q^2)", "p", "p*q", "(p - q)/(p + q)",
                    "log(p/q)", "sqrt(p/q)")


@pytest.mark.parametrize("text", _DEGREE0_FACTORS)
def test_degree0_batch_gives_the_pointwise_verdict(text):
    """The batched weight-zero test agrees with one jet per probe point, also
    where half the probes raise (log and sqrt of p/q)."""
    assert degree0_test(parse(text)) == oracles.degree0_test(parse(text))


@pytest.mark.parametrize("seed", range(40))
def test_degree0_batch_gives_the_pointwise_verdict_on_random_factors(seed):
    """Random factors in (p, q), and random functions of p/q and q/p, which
    are of weight zero."""
    rng = np.random.default_rng(seed)
    names = ["p", "q"] if seed % 2 else ["(p/q)", "(q/p)"]
    spec = parse(oracles.random_expression(rng, names, 3))
    assert degree0_test(spec) == oracles.degree0_test(spec)


def test_functional_rejects_bad_factor():
    with pytest.raises(ValueError):
        DiscreteFunctional(ht=0.1, hx=0.1, factor=parse("p"))


def test_linear_fields_exactly_stationary():
    n = 9
    t = np.linspace(0.0, 1.0, n)
    x = np.linspace(0.0, 1.0, n)
    T, X = np.meshgrid(t, x, indexing="ij")
    phi = 1.0 + 2.0 * T + 0.5 * X
    phibar = 0.3 * T - 1.2 * X
    psi = -0.7 * T + 0.4 * X
    f = DiscreteFunctional(ht=t[1] - t[0], hx=x[1] - x[0])
    for vary in ("psi", "phibar", "phi"):
        grid = variational_residual(f, phi, phibar, psi).grids[vary]
        assert np.abs(grid.raw).max() <= 1e-12


# -- on-shell configurations from the hodograph construction -------------------------


def _onshell_grids(n):
    f, g = parse("u^2"), parse("v^2")
    cfg = ImplicitSolveConfig(seed=(1.5, 3.5))
    t_nodes = np.linspace(9.75, 10.25, n)
    x_nodes = np.linspace(-14.75, -14.25, n)
    [(phi, phibar)] = hodograph_grid(HodographSolver(f, g, cfg), [(t_nodes, x_nodes)])
    ht = t_nodes[1] - t_nodes[0]
    hx = x_nodes[1] - x_nodes[0]
    return phi, phibar, ht, hx


def test_onshell_residuals_and_halving():
    results = {}
    for n in (33, 65):
        phi, phibar, ht, hx = _onshell_grids(n)
        func = DiscreteFunctional(ht=ht, hx=hx)
        psi = phibar.copy()
        maxima = {}
        for vary in ("psi", "phibar", "phi"):
            rep = grid_report([variational_residual(func, phi, phibar, psi).grids[vary]])
            maxima[vary] = rep.max_norm
            assert rep.max_norm <= 5 * max(ht, hx) ** 2, (n, vary, rep.max_norm)
        results[n] = (maxima, max(ht, hx))
    for vary in ("psi", "phibar", "phi"):
        coarse, fine = results[33][0][vary], results[65][0][vary]
        # With psi = phibar nodally, the discrete bracket in the phi momenta is
        # identically zero, so that residual is exact and has no ratio.
        if coarse <= 1e-14 and fine <= 1e-14:
            continue
        assert coarse / max(fine, 1e-300) >= 3.5


def test_psi_cubed_freedom():
    phi, phibar, ht, hx = _onshell_grids(41)
    func = DiscreteFunctional(ht=ht, hx=hx)
    psi = psi_from(phibar, parse("s^3"))
    for vary in ("psi", "phibar", "phi"):
        rep = grid_report([variational_residual(func, phi, phibar, psi).grids[vary]])
        assert rep.max_norm <= 5 * max(ht, hx) ** 2


def test_phibar_and_psi_residuals_coincide():
    phi, phibar, ht, hx = _onshell_grids(33)
    func = DiscreteFunctional(ht=ht, hx=hx)
    psi = phibar.copy()
    grids = variational_residual(func, phi, phibar, psi).grids
    g1, g2 = grids["psi"], grids["phibar"]
    scale = np.abs(g1.raw).max()
    assert np.abs(g1.raw - g2.raw).max() <= 1e-10 * max(scale, 1e-30)


def test_factor_freedom_preserves_zero_set():
    phi, phibar, ht, hx = _onshell_grids(41)
    psi = phibar.copy()
    for factor in ("p/q", "p^2/(p^2 + q^2)", "(p - q)/(p + q)"):
        func = DiscreteFunctional(ht=ht, hx=hx, factor=parse(factor))
        rep = grid_report([variational_residual(func, phi, phibar, psi).grids["psi"]])
        assert rep.max_norm <= 5 * max(ht, hx) ** 2, (factor, rep.max_norm)


def test_density_pass_matches_its_pointwise_form():
    """One pass gives the same reports as ``grid_report`` over per-node
    samples, and the same action density as bracket * H with H evaluated
    node by node."""
    phi, phibar, ht, hx = _onshell_grids(9)
    func = DiscreteFunctional(ht=ht, hx=hx, factor=parse("p^2/(p^2 + q^2)"))
    psi = psi_from(phibar, parse("s^3"))
    density_pass = variational_residual(func, phi, phibar, psi)
    for vary, grid in density_pass.grids.items():
        samples = [ResidualSample(float(r), float(s), float(f)) for r, s, f in
                   zip(grid.raw.ravel(), grid.scale.ravel(), grid.floor.ravel())]
        assert grid_report([grid]) == grid_report(samples)

    def slots(F):
        return ((F[2:, 1:-1] - F[:-2, 1:-1]) / (2 * ht),
                (F[1:-1, 2:] - F[1:-1, :-2]) / (2 * hx))

    (pt, px), (bt, bx), (st, sx) = map(slots, (phi, phibar, psi))
    for a, b in np.ndindex(pt.shape):
        h = eval_jet(func.factor, {"p": jets.constant(pt[a, b], 1),
                                   "q": jets.constant(px[a, b], 1)}).value
        assert density_pass.density[a, b] == (bt[a, b] * sx[a, b] - st[a, b] * bx[a, b]) * h
        assert density_pass.density_scale[a, b] == \
            (abs(bt[a, b] * sx[a, b]) + abs(st[a, b] * bx[a, b])) * abs(h)


def _pass_bits(density_pass):
    """The int64 views of every array of a ``DensityPass``."""
    arrays = [density_pass.density, density_pass.density_scale]
    for vary in ("psi", "phibar", "phi"):
        grid = density_pass.grids[vary]
        arrays += [grid.raw, grid.scale, grid.floor]
    return [a.view(np.int64) for a in arrays]


def test_density_pass_keeps_its_bits_whatever_the_block(monkeypatch):
    """Blocks of 1 node, of 7 (which divides no row), of one row and of the
    whole grid give the same bits in every array of the pass."""
    phi, phibar, ht, hx = _onshell_grids(17)
    phi, phibar = phi[:, :12], phibar[:, :12]  # 15 x 10 interior nodes
    func = DiscreteFunctional(ht=ht, hx=hx, factor=parse("p^2/(p^2 + q^2)"))
    psi = psi_from(phibar, parse("s^3"))
    passes = []
    for block in (1, 7, 10, 150):
        monkeypatch.setattr(varlag, "_BLOCK", block)
        passes.append(_pass_bits(variational_residual(func, phi, phibar, psi)))
    for other in passes[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(passes[0], other))


def test_density_pass_memory_on_c09s_finest_grid():
    """One pass on c09's 65^2 grid peaks at 2.9 MB of traced memory or less
    (2.6 MB measured): its density jets run over blocks of 256 nodes from
    read-only seeds.  Dense seeds over the same blocks peak at 3.1 MB, and
    the whole grid in one jet at 9.7 MB."""
    phi, phibar, ht, hx = _onshell_grids(65)
    func = DiscreteFunctional(ht=ht, hx=hx)
    psi = phibar.copy()
    variational_residual(func, phi, phibar, psi)  # whatever a first pass leaves behind
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        variational_residual(func, phi, phibar, psi)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2.9e6, peak


def test_onshell_degeneracy_report():
    phi, phibar, ht, hx = _onshell_grids(41)
    func = DiscreteFunctional(ht=ht, hx=hx)
    tol = 5 * max(ht, hx) ** 2
    for w in ("s", "s^3"):
        psi = psi_from(phibar, parse(w))
        rep = onshell_degeneracy(func, phi, phibar, psi, tolerance=tol)
        assert max(r.max_norm for r in rep.per_vary.values()) <= tol
        assert rep.action_normalized <= tol


def test_onshell_degeneracy_linear_fields_exact():
    n = 11
    t = np.linspace(0.0, 1.0, n)
    x = np.linspace(0.0, 1.0, n)
    T, X = np.meshgrid(t, x, indexing="ij")
    phi = 1.0 + 2.0 * T + 0.5 * X
    phibar = 0.3 * T - 1.2 * X
    psi = 2.0 * phibar
    f = DiscreteFunctional(ht=t[1] - t[0], hx=x[1] - x[0])
    # Raw residuals are at quadrature roundoff; the normalized report divides
    # noise by the tiny momentum floor, so the bound is ~1e3 x machine epsilon.
    rep = onshell_degeneracy(f, phi, phibar, psi, tolerance=1e-8)
    assert max(r.max_norm for r in rep.per_vary.values()) <= 1e-8
    assert rep.action_normalized <= 1e-12


def test_fields_from_char_grid_are_onshell(tmp_path):
    """A stored two-field integration, read back from its CSV dump, sits
    on-shell for the variational residual to the scheme's accuracy: phibar is
    the u field, phi the v field, psi = W(phibar), and the grid spacings
    become (dt, h)."""
    from batlab.hydro import dump_char_grid, integrate_characteristics

    grid = integrate_characteristics(
        parse("1.2 + 0.25*sin(x)"), parse("2.1 + 0.2*cos(x)"), 96, 0.3)
    path = tmp_path / "grid.csv"
    dump_char_grid(grid, path)
    loaded = load_char_grid(path)

    phibar, phi = loaded.u, loaded.v
    psi = psi_from(phibar, parse("s"))
    func = DiscreteFunctional(ht=float(loaded.dt), hx=float(loaded.h))
    rep = grid_report([variational_residual(func, phi, phibar, psi).grids["psi"]])
    tol = 5 * max(func.ht, func.hx) ** 2
    assert rep.max_norm <= tol, (rep.max_norm, tol)


def test_offshell_precondition_error():
    rng = np.random.default_rng(0)
    n = 21
    phi = 1.0 + rng.uniform(0.5, 1.0, size=(n, n)).cumsum(axis=1) * 0.1
    phibar = rng.normal(size=(n, n)).cumsum(axis=0) * 0.1 + 2.0
    psi = phibar.copy()
    f = DiscreteFunctional(ht=0.05, hx=0.05)
    with pytest.raises(ValueError):
        onshell_degeneracy(f, phi, phibar, psi, tolerance=5 * 0.05**2)
