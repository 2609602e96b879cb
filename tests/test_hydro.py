"""Characteristic integration: exact-solution regressions, conservation, crossing."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from batlab import hydro, residuals
from batlab.errors import CFLViolationError, CharacteristicCrossingError, JetDomainError
from batlab.exprspec import float_fn, parse
from batlab.hydro import (
    MULTI_FIELDS,
    TWO_PI,
    conservation_drifts,
    dump_char_grid,
    dump_multi_grid,
    integrate_characteristics,
    integrate_multifield,
)
import oracles
from oracles import load_char_grid, load_multi_grid, sn_polynomial


def test_sn_base_and_recurrence():
    assert sn_polynomial(2.0, 3.0, 0) == 1.0
    assert sn_polynomial(2.0, 3.0, 1) == 5.0
    assert sn_polynomial(2.0, 3.0, 2) == 19.0  # u^2 + uv + v^2
    with pytest.raises(ValueError):
        sn_polynomial(1.0, 1.0, -1)


def test_sn_matches_complete_homogeneous_expansion():
    rng = np.random.default_rng(0)
    for _ in range(20):
        u, v = rng.uniform(-2, 2, size=2)
        for n in range(6):
            direct = sum(u**i * v ** (n - i) for i in range(n + 1))
            assert sn_polynomial(u, v, n) == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_constant_data_stays_constant():
    grid = integrate_characteristics(parse("1.5"), parse("-0.7"), 32, 0.3)
    assert np.allclose(grid.u, 1.5, atol=1e-13)
    assert np.allclose(grid.v, -0.7, atol=1e-13)
    assert conservation_drifts(grid, 5) == [0.0] * 5


def _scalar_reduction_oracle(w0_fn, x, t, seed):
    """Newton solve of the implicit profile w = w0(x + w t)."""
    w = seed
    for _ in range(60):
        f = w - w0_fn(x + w * t)
        if abs(f) <= 1e-14:
            return w
        d = 1.0 - t * (w0_fn(x + w * t + 1e-7) - w0_fn(x + w * t - 1e-7)) / 2e-7
        w -= f / d
    return w


def _w0(x):
    return 1.5 + 0.3 * np.sin(x)


def _reduction_error(nx):
    grid = integrate_characteristics(parse("1.5 + 0.3*sin(x)"), parse("1.5 + 0.3*sin(x)"),
                                     nx, 0.25)
    t = grid.t_levels[-1]
    errs = []
    for i, x in enumerate(grid.x_nodes):
        exact = _scalar_reduction_oracle(_w0, x, t, grid.u[-1, i])
        errs.append(abs(grid.u[-1, i] - exact))
    return max(errs), grid.h


def test_reduction_matches_implicit_oracle_second_order():
    e1, h1 = _reduction_error(128)
    e2, h2 = _reduction_error(256)
    assert e1 <= 5 * h1**2
    assert e2 <= 5 * h2**2
    assert e1 / max(e2, 1e-300) >= 3.5


def test_u_equals_v_stays_equal():
    grid = integrate_characteristics(parse("1.5 + 0.3*sin(x)"), parse("1.5 + 0.3*sin(x)"),
                                     64, 0.2)
    assert np.abs(grid.u - grid.v).max() <= 1e-12


def _general_grid(nx, t_end=0.2):
    return integrate_characteristics(
        parse("1.2 + 0.25*sin(x)"), parse("2.1 + 0.2*cos(x)"), nx, t_end)


def test_transport_residual_second_order():
    results = []
    for nx in (128, 256):
        grid = _general_grid(nx)
        m = grid.nt // 2
        samples = []
        for i in range(grid.nx):
            ju = hydro.fd_jet_at(grid.u, grid.dt, grid.h, m, i)
            samples.append(residuals.transport(
                ju, [-grid.v[m, i]], time_axis=0, space_axes=(1,)))
        rep = residuals.grid_report(samples)
        results.append((rep.max_norm, grid.h))
        assert rep.rms_norm <= rep.max_norm
    (w1, h1), (w2, h2) = results
    assert w1 <= 5 * h1**2
    assert w2 <= 5 * h2**2
    assert w1 / max(w2, 1e-300) >= 3.5


def test_conservation_hierarchy_and_halving():
    drifts = {}
    for nx in (128, 256):
        grid = _general_grid(nx)
        drifts[nx] = conservation_drifts(grid, 5)
        for n, d in zip(range(1, 6), drifts[nx]):
            assert d <= 5 * grid.h**2, f"n={n}: drift {d} vs {5 * grid.h ** 2}"
    for d1, d2 in zip(drifts[128], drifts[256]):
        assert d1 / max(d2, 1e-300) >= 3.5


def test_conservation_n1_is_sum_of_equations():
    """The first drift identity reads d_t(u+v) = d_x(uv)."""
    grid = _general_grid(96)
    sn1 = grid.u + grid.v
    flux = grid.u * grid.v
    dt_term = (sn1[2:] - sn1[:-2]) / (2 * grid.dt)
    dx_term = (np.roll(flux, -1, axis=1) - np.roll(flux, 1, axis=1))[1:-1] / (2 * grid.h)
    assert np.abs(dt_term - dx_term).max() <= 5 * grid.h**2 * np.abs(dx_term).max() + 1e-12


def test_induction_structure_of_the_hierarchy():
    """I_n - v I_{n-1} = n u^{n-1} r_u + S_{n-1} r_v up to discretization."""
    grid = _general_grid(128)
    h, dt = grid.h, grid.dt
    u, v = grid.u, grid.v
    rng = np.random.default_rng(1)

    def centered_t(F):
        return (F[2:] - F[:-2]) / (2 * dt)

    def centered_x(F):
        return (np.roll(F, -1, axis=1) - np.roll(F, 1, axis=1))[1:-1] / (2 * h)

    mid = slice(1, -1)
    r_u = centered_t(u) - v[mid] * centered_x(u)
    r_v = centered_t(v) - u[mid] * centered_x(v)

    for n in (2, 3, 5):
        sn = sn_polynomial(u, v, n)
        sn1 = sn_polynomial(u, v, n - 1)
        sn2 = sn_polynomial(u, v, n - 2)
        i_n = centered_t(sn) - centered_x(u * v * sn1)
        i_n1 = centered_t(sn1) - centered_x(u * v * sn2)
        lhs = i_n - v[mid] * i_n1
        rhs = n * u[mid] ** (n - 1) * r_u + sn1[mid] * r_v
        scale = (np.abs(centered_t(sn)) + np.abs(centered_x(u * v * sn1))
                 + np.abs(n * u[mid] ** (n - 1)) * (np.abs(centered_t(u)) + np.abs(v[mid] * centered_x(u)))
                 + np.abs(sn1[mid]) * (np.abs(centered_t(v)) + np.abs(u[mid] * centered_x(v))))
        idx = rng.integers(0, lhs.size, size=60)
        defect = np.abs((lhs - rhs).ravel()[idx])
        bound = 5 * h**2 * scale.ravel()[idx] + 1e-12
        assert (defect <= bound).all()


def test_coupled_march_converges_at_second_order():
    """c05's u != v pair: the last levels of grids halved three times agree at
    their shared nodes to within 5 h^2, and each halving cuts the difference
    by at least 3.5."""
    grids = [_general_grid(nx) for nx in (128, 256, 512, 1024)]
    diffs = []
    for coarse, fine in zip(grids, grids[1:]):
        diff = max(np.abs(coarse.u[-1] - fine.u[-1, ::2]).max(),
                   np.abs(coarse.v[-1] - fine.v[-1, ::2]).max())
        assert diff <= 5 * coarse.h**2
        diffs.append(diff)
    for d1, d2 in zip(diffs, diffs[1:]):
        assert d1 / max(d2, 1e-300) >= 3.5


def test_csv_roundtrip(tmp_path):
    grid = _general_grid(64, t_end=0.05)
    path = tmp_path / "grid.csv"
    dump_char_grid(grid, path)
    loaded = load_char_grid(path)
    np.testing.assert_array_equal(loaded.u, grid.u)
    np.testing.assert_array_equal(loaded.v, grid.v)
    np.testing.assert_array_equal(loaded.x_nodes, grid.x_nodes)
    assert loaded.dt == grid.dt
    assert json.loads(path.with_suffix(".meta.json").read_text())["bc"] == "periodic"


# -- multi-field -------------------------------------------------------------------


def _multi_init():
    return {
        "u1": parse("1.0 + 0.2*sin(x2) + 0.1*cos(x3)"),
        "u2": parse("-0.5 + 0.15*cos(x2)*sin(x3)"),
        "v1": parse("0.8 + 0.1*sin(x2 + x3)"),
        "v2": parse("1.2 + 0.12*cos(x2)"),
    }


def test_multifield_constant_stays_constant():
    init = {k: parse(c) for k, c in
            (("u1", "0.4"), ("u2", "-0.3"), ("v1", "0.9"), ("v2", "1.1"))}
    grid = integrate_multifield(init, 16, 16, 0.2)
    for name, c in (("u1", 0.4), ("u2", -0.3), ("v1", 0.9), ("v2", 1.1)):
        assert np.abs(grid.fields[name] - c).max() <= 1e-12


def test_multifield_frozen_speed_translation_oracle():
    """With v1, v2 constant (they stay so: each is carried by u1, u2 and
    constant along every characteristic), each u field translates exactly."""
    errors = []
    for n in (48, 96):
        init = _multi_init()
        init["v1"] = parse("0.7")
        init["v2"] = parse("1.1")
        grid = integrate_multifield(init, n, n, 0.2)
        assert np.abs(grid.fields["v1"] - 0.7).max() <= 1e-12
        assert np.abs(grid.fields["v2"] - 1.1).max() <= 1e-12
        t = grid.x1_levels[-1]
        X2, X3 = np.meshgrid(grid.x2_nodes, grid.x3_nodes, indexing="ij")
        worst = 0.0
        for name in ("u1", "u2"):
            spec_expr = init[name]
            a2 = (X2 - 0.7 * t) % (2 * math.pi)
            a3 = (X3 - 1.1 * t) % (2 * math.pi)
            exact = np.array([
                [float(__import__("batlab.exprspec", fromlist=["eval_float"]).eval_float(
                    spec_expr, {"x2": float(p), "x3": float(q)}))
                 for p, q in zip(r2, r3)]
                for r2, r3 in zip(a2, a3)])
            worst = max(worst, np.abs(grid.fields[name][-1] - exact).max())
        errors.append((worst, grid.h2))
    (w1, h1), (w2, h2) = errors
    assert w1 <= 5 * h1**2
    assert w2 <= 5 * h2**2


def _multifield_det_constant(n):
    grid = integrate_multifield(_multi_init(), n, n, 0.12)
    deriv = {name: hydro.fd_derivatives_multi(grid.fields[name], grid.dt, grid.h2, grid.h3)
             for name in ("u1", "u2", "v1", "v2")}
    m = deriv["u1"][0].shape[0] // 2
    grads = [g[m].reshape(-1, 3) for _, g, _ in deriv.values()]
    worst = 0.0
    for fname in ("u1", "u2"):
        hess = deriv[fname][2][m].reshape(-1, 3, 3)
        raw, scale = residuals.multifield_det_grid(grads, hess)
        worst = max(worst, float(np.abs(raw).max() / max(scale.max(), 1e-300)))
    return worst, grid.h2


def test_multifield_determinant_second_order():
    """The 5x5 determinant vanishes like K h^2 on integrated data, with K
    stable under halving; flat (linear) fields are exact zeros."""
    w1, h1 = _multifield_det_constant(32)
    w2, h2 = _multifield_det_constant(64)
    k1 = w1 / h1**2
    k2 = w2 / h2**2
    assert k2 <= 2.0 * k1  # K stable (no blow-up under refinement)
    assert w2 <= k1 * 2.0 * h2**2


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_stencil_repeats_the_written_out_formulas():
    """The one stencil gives bit for bit the derivative arrays written out per
    formula: on an open 2-d grid, on a periodic 3-d grid, and on either grid
    with the other boundary, whose interior nodes the two boundaries share."""
    rng = np.random.default_rng(11)
    dt, h2, h3 = rng.uniform(0.01, 0.1, 3).tolist()
    flat = rng.normal(size=(7, 9))
    value, grad, hess = hydro.fd_derivatives_time_space(flat, dt, h2, wrap=False)
    mid, ft, fx, ftt, ftx, fxx = oracles.fd_derivatives_time_space(flat, dt, h2)
    for new, old in ((value, mid), (grad[..., 0], ft), (grad[..., 1], fx),
                     (hess[..., 0, 0], ftt), (hess[..., 0, 1], ftx),
                     (hess[..., 1, 0], ftx), (hess[..., 1, 1], fxx)):
        _same_bits(new, old)
    solid = rng.normal(size=(6, 8, 5))
    value, grad, hess = hydro.fd_derivatives_multi(solid, dt, h2, h3)
    mid, g, hs = oracles.fd_derivatives_multi(solid, dt, h2, h3)
    _same_bits(value, mid)
    for a in range(3):
        _same_bits(grad[..., a], g[a + 1])
    for (a, b), arr in hs.items():
        _same_bits(hess[..., a - 1, b - 1], arr)
        _same_bits(hess[..., b - 1, a - 1], arr)
    for F, steps in ((flat, (dt, h2)), (solid, (dt, h2, h3))):
        inner = (slice(None),) + (slice(1, -1),) * (F.ndim - 1)
        wrapped = hydro.fd_derivatives_time_space(F, *steps, wrap=True)
        cut = hydro.fd_derivatives_time_space(F, *steps, wrap=False)
        assert wrapped[1].shape == (F.shape[0] - 2, *F.shape[1:], F.ndim)
        for w, c in zip(wrapped, cut):
            _same_bits(w[inner], c)


def test_fd_jet_at_repeats_the_hand_indexed_jet():
    rng = np.random.default_rng(12)
    F = rng.normal(size=(5, 11))
    dt, h = rng.uniform(0.01, 0.1, 2).tolist()
    for m in (1, 2, 3):
        for i in (0, 4, 10, np.arange(11)):
            new, old = hydro.fd_jet_at(F, dt, h, m, i), oracles.fd_jet_at(F, dt, h, m, i)
            assert type(new.value) is type(old.value)
            for a, b in ((new.value, old.value), (new.grad, old.grad), (new.hess, old.hess)):
                _same_bits(a, b)
    for m in (0, 4):
        with pytest.raises(ValueError, match="interior"):
            hydro.fd_jet_at(F, dt, h, m, 3)


def test_conservation_drift_repeats_the_written_out_differences():
    rng = np.random.default_rng(13)
    nt, nx = 6, 10
    grid = hydro.CharGrid(0.01 * np.arange(nt), 0.1 * np.arange(nx),
                          rng.uniform(0.5, 1.5, (nt, nx)), rng.uniform(0.5, 1.5, (nt, nx)),
                          0.1, 0.01, 0.5)
    assert conservation_drifts(grid, 5) == [oracles.conservation_drift(grid, n)
                                            for n in range(1, 6)]


def test_multi_csv_roundtrip(tmp_path):
    grid = integrate_multifield(_multi_init(), 12, 10, 0.05)
    path = tmp_path / "grid.csv"
    dump_multi_grid(grid, path)
    loaded = load_multi_grid(path)
    assert list(loaded.fields) == list(hydro.MULTI_FIELDS)
    for name, field in grid.fields.items():
        np.testing.assert_array_equal(loaded.fields[name], field)
    np.testing.assert_array_equal(loaded.x1_levels, grid.x1_levels)
    np.testing.assert_array_equal(loaded.x2_nodes, grid.x2_nodes)
    np.testing.assert_array_equal(loaded.x3_nodes, grid.x3_nodes)
    assert (loaded.h2, loaded.h3, loaded.dt, loaded.cfl) == (grid.h2, grid.h3, grid.dt, grid.cfl)


_SPECIAL = [-0.0, 5e-324, 1e16, 1.5e-7, 0.1 + 0.2, math.inf, -math.inf, math.nan]


def _special_grid():
    """A hand-made grid over the floats whose repr is easiest to get wrong."""
    u = np.array([np.roll(_SPECIAL, k) for k in range(3)])
    return hydro.CharGrid(np.array([0.0, 1.5e-7, 0.1 + 0.2]), np.array(_SPECIAL), u,
                          -u[::-1], 0.1 + 0.2, 5e-324, 0.5)


def _partial_grid():
    with pytest.raises(CharacteristicCrossingError) as err:
        _multifield_crossing()
    assert err.value.partial.nt == 1
    return err.value.partial


@pytest.mark.parametrize("make", [
    lambda: integrate_characteristics(
        parse("1.5 + 0.1*sin(x)"), parse("1.2 - 0.05*cos(x)^2"), 24, 0.05),
    _partial_grid,
    lambda: integrate_multifield(_multi_init(), 9, 14, 0.05),
    _special_grid,
], ids=["two_field", "one_level_partial", "multi_n2_ne_n3", "special_floats"])
def test_dump_bytes_match_csv_writer(make, tmp_path, monkeypatch):
    """The dump is the bytes ``csv.writer`` gives for the same rows, sidecar
    included."""
    grid = make()
    dump = dump_multi_grid if isinstance(grid, hydro.MultiCharGrid) else dump_char_grid
    dump(grid, tmp_path / "grid.csv")
    monkeypatch.setattr(hydro, "_write_grid", oracles.write_grid_csv)
    dump(grid, tmp_path / "oracle.csv")
    for suffix in (".csv", ".meta.json"):
        assert ((tmp_path / "grid").with_suffix(suffix).read_bytes()
                == (tmp_path / "oracle").with_suffix(suffix).read_bytes())


# -- initial grids ---------------------------------------------------------------------


def _outcome(fn, *args):
    """What ``fn(*args)`` returned, or the class and args of what it raised."""
    try:
        return fn(*args)
    except Exception as err:  # errors are compared too
        return type(err), err.args


@pytest.mark.parametrize("text", [
    "1.5 + 0.3*sin({x})", "1.2 + 0.1*exp(0.3*cos({x})) + 0.01*(2 + sin({x}))^2.5",
    "2 + 0.05*log(2 + cos({x}))^2 - 0.01*sin({x})^3 + 0.01*(2 + sin({x}))^(0.5 + 0.1*cos({x}))",
    "1.7"])
@pytest.mark.parametrize("nx", [64, 41], ids=["periodic", "odd_nodes"])
def test_initial_grids_are_the_per_node_evaluations(text, nx):
    """Level 0 of both systems holds, bit for bit, the initial data evaluated
    by name at each node, on an even and an odd node count."""
    spec = parse(text.format(x="x"))
    two = integrate_characteristics(spec, spec, nx, 0.02)
    expected = oracles.node_values(spec, {"x": two.x_nodes})
    assert two.u[0].tobytes() == two.v[0].tobytes() == expected.tobytes()

    init = {"u1": parse(text.format(x="x2")), "u2": parse(text.format(x="x3")),
            "v1": parse("1.1 + 0.01*exp(0.2*sin(x2 + x3))"), "v2": parse("0.9 + 0.1*cos(x2)")}
    multi = integrate_multifield(init, 16, 12, 0.02)
    X2, X3 = np.meshgrid(multi.x2_nodes, multi.x3_nodes, indexing="ij")
    for name in MULTI_FIELDS:
        expected = oracles.node_values(init[name], {"x2": X2, "x3": X3})
        assert multi.fields[name][0].tobytes() == expected.tobytes()


def test_initial_data_failing_at_a_node_raises_the_per_node_error():
    """Where the initial data fails, the first failing node in the order of
    the per-node evaluation raises its own error, not the error of the first
    operation that fails at any node of the array call."""
    # x = 0 is the first node and fails in log(x); sqrt(3 - x) fails first
    # over the array, at the nodes beyond 3.
    u, v = parse("1.5"), parse("sqrt(3 - x) + log(x)")
    x_nodes = TWO_PI * np.arange(9) / 9
    expected = _outcome(oracles.node_values, v, {"x": x_nodes})
    assert expected[0] is JetDomainError
    assert _outcome(float_fn(v, ("x",)), x_nodes) != expected
    assert _outcome(integrate_characteristics, u, v, 9, 0.1) == expected

    # Node (0, 0) fails in log(x2); sqrt(3 - x3) fails first over the array.
    init = {**_multi_init(), "v1": parse("sqrt(3 - x3) + log(x2)")}
    X2, X3 = np.meshgrid(*(TWO_PI * np.arange(8) / 8,) * 2, indexing="ij")
    expected = _outcome(oracles.node_values, init["v1"], {"x2": X2, "x3": X3})
    assert expected[0] is JetDomainError
    assert _outcome(float_fn(init["v1"], ("x2", "x3")), X2, X3) != expected
    assert _outcome(integrate_multifield, init, 8, 8, 0.1) == expected


# -- aborts ----------------------------------------------------------------------------


def _two_field_run(u, v, nx, t_end):
    return lambda: integrate_characteristics(parse(u), parse(v), nx, t_end)


def _growing(interpolant):
    """``interpolant`` with every value it returns scaled by 1.02.

    In an exact periodic solution every field is constant along its
    characteristic, so no tried periodic input grows the speeds past the CFL
    bound; this growth does, at level 9 of ``_GROWING_RUN``.
    """
    class Growing(interpolant):
        def __call__(self, *args):
            return 1.02 * super().__call__(*args)
    return Growing


_GROWING_RUN = ("1.5 + 0.3*sin(x)", "2.0", 32, 1.0)


def _two_field_cfl():
    with mock.patch.object(hydro, "MonotoneCubic1D", _growing(hydro.MonotoneCubic1D)):
        return _two_field_run(*_GROWING_RUN)()


def _multifield_crossing():
    init = {"u1": parse("3*sin(x2)"), "v1": parse("-3*sin(x2)"),
            "u2": parse("0.2"), "v2": parse("0.1")}
    return integrate_multifield(init, 16, 16, 20.0)


@pytest.mark.parametrize("run,error,level", [
    (_two_field_run("1.5 + 0.3*sin(x)", "1.5 + 0.3*sin(x)", 96, 4.0),
     CharacteristicCrossingError, 226),
    (_two_field_cfl, CFLViolationError, 9),
    (_multifield_crossing, CharacteristicCrossingError, 0),
], ids=["two_field_crossing", "two_field_cfl", "multifield_crossing"])
def test_abort_keeps_only_computed_levels(run, error, level):
    """An abort at level m carries the grid of levels 0..m, all finite."""
    with pytest.raises(error) as err:
        run()
    assert err.value.level == level
    partial = err.value.partial
    assert partial.nt == err.value.level + 1
    fields = (partial.fields.values() if isinstance(partial, hydro.MultiCharGrid)
              else (partial.u, partial.v))
    for field in fields:
        assert field.shape[0] == partial.nt
        assert np.isfinite(field).all()


@pytest.mark.parametrize("make", [
    lambda: integrate_characteristics(parse("1.0"), parse("1.0"), 16, 1e308),
    lambda: integrate_characteristics(parse("1.7e308"), parse("1.0"), 16, 0.05),
    lambda: integrate_multifield({n: parse("0.5") for n in MULTI_FIELDS}, 8, 8, 1e308),
    lambda: integrate_multifield({**_multi_init(), "v2": parse("1.7e308")}, 8, 8, 0.05),
], ids=["two_field_t_end", "two_field_speed", "multifield_t_end", "multifield_speed"])
def test_no_finite_step_count_raises_value_error(make):
    """t_end / dt beyond the float range, or a first step of 0 (a speed whose
    15% headroom overflows), is a ValueError, not an OverflowError from ceil."""
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="steps"):
        make()


# -- fixed nodes and Courant numbers ----------------------------------------------------


def _courant_numbers(grid, fields, h):
    """dt times each level's largest speed, over h, for the levels a step leaves."""
    return [grid.dt * max(np.abs(f[m]).max() for f in fields) / h for m in range(grid.nt - 1)]


@pytest.mark.parametrize("nx", [8, 9, 24, 127])
def test_two_field_grid_has_nodes_2pi_j_over_n_at_courant_number_one_half(nx, tmp_path):
    u, v = parse("1.5 + 0.3*sin(x)"), parse("1.2 - 0.05*cos(x)^2")
    grid = integrate_characteristics(u, v, nx, 0.05)
    assert grid.x_nodes.tobytes() == (TWO_PI * np.arange(nx) / nx).tobytes()
    assert grid.h == TWO_PI / nx
    assert grid.cfl == hydro.CHAR_CFL == 0.5
    # the first step keeps 15% headroom below the bound; every later one keeps under it
    fields = (grid.u, grid.v)
    assert grid.dt <= 0.5 * grid.h / (1.15 * max(np.abs(f[0]).max() for f in fields))
    assert max(_courant_numbers(grid, fields, grid.h)) <= 0.5
    dump_char_grid(grid, tmp_path / "grid.csv")
    meta = json.loads((tmp_path / "grid.meta.json").read_text())
    assert (meta["cfl"], meta["h"], meta["nodes"]) == (0.5, grid.h, nx)


@pytest.mark.parametrize("n2,n3", [(8, 8), (9, 12)])
def test_multifield_grid_has_nodes_2pi_j_over_n_at_courant_number_two_fifths(n2, n3, tmp_path):
    grid = integrate_multifield(_multi_init(), n2, n3, 0.05)
    assert grid.x2_nodes.tobytes() == (TWO_PI * np.arange(n2) / n2).tobytes()
    assert grid.x3_nodes.tobytes() == (TWO_PI * np.arange(n3) / n3).tobytes()
    assert (grid.h2, grid.h3) == (TWO_PI / n2, TWO_PI / n3)
    assert grid.cfl == hydro.MULTI_CFL == 0.4
    fields, h = grid.fields.values(), min(grid.h2, grid.h3)
    assert grid.dt <= 0.4 * h / (1.15 * max(np.abs(f[0]).max() for f in fields))
    assert max(_courant_numbers(grid, fields, h)) <= 0.4
    dump_multi_grid(grid, tmp_path / "grid.csv")
    meta = json.loads((tmp_path / "grid.meta.json").read_text())
    assert (meta["cfl"], meta["n2"], meta["n3"]) == (0.4, n2, n3)


# -- the stacked march against one solve per field --------------------------------------


@pytest.mark.parametrize("x0,x1", [(0.0, TWO_PI), (-1.0, 3.0)], ids=["periodic", "shifted_period"])
def test_stacked_interpolant_repeats_one_interpolant_per_row(x0, x1):
    """Each row of the stacked interpolant gives the bits of its own
    ``np.roll`` interpolant at query points over three periods, so a query
    wraps by the period ``x1 - x0`` from either side."""
    rng = np.random.default_rng(5)
    nx = 24
    x_nodes = x0 + (x1 - x0) * np.arange(nx) / nx
    values = np.array([np.sin(TWO_PI * (x_nodes - x0) / (x1 - x0)),
                       rng.uniform(-1.0, 1.0, nx), np.full(nx, 0.3)])
    q = rng.uniform(2 * x0 - x1, 2 * x1 - x0, (len(values), 50))
    stacked = hydro.MonotoneCubic1D(x_nodes, values)(q, range(len(values)))
    for r, row in enumerate(values):
        assert stacked[r].tobytes() == oracles.MonotoneCubic1D(x_nodes, row)(q[r]).tobytes(), r


def _march_outcome(integrate, *args):
    """The grid a march returns, or the partial grid, class and message of
    the abort it raises."""
    try:
        return integrate(*args), None
    except (CFLViolationError, CharacteristicCrossingError) as err:
        return err.partial, (type(err), err.args, err.level)


def _assert_same_march(integrate, reference, *args):
    """Every level of the stacked march holds the bits of the march that
    solves one field at a time, and an abort is the same abort."""
    (new, error), (old, expected) = _march_outcome(integrate, *args), _march_outcome(reference, *args)
    assert error == expected
    fields = (lambda g: g.fields) if isinstance(old, hydro.MultiCharGrid) else (
        lambda g: {"u": g.u, "v": g.v})
    assert new.nt == old.nt and new.dt == old.dt
    for name, field in fields(old).items():
        for m in range(old.nt):
            assert fields(new)[name][m].tobytes() == field[m].tobytes(), (name, m)
    return new, error


# c05's two cases: equal_fields_reduction and general_pair
_C05 = [("1.5 + 0.3*sin(x)", "1.5 + 0.3*sin(x)", 0.25), ("1.2 + 0.25*sin(x)", "2.1 + 0.2*cos(x)", 0.2)]

# c05's general pair at three times the wave number, on an odd node count.
_THREE_WAVES = ("1.2 + 0.25*sin(3*x)", "2.1 + 0.2*cos(3*x)", 127, 0.2)


@pytest.mark.parametrize("u,v,nx,t_end,abort", [
    *[(u, v, nx, t_end, None) for u, v, t_end in _C05 for nx in (128, 256)],
    (*_THREE_WAVES, None),
    ("1.5 + 0.3*sin(x)", "1.5 + 0.3*sin(x)", 96, 4.0, 226),
    (*_GROWING_RUN, 9),
], ids=["equal_fields_128", "equal_fields_256", "general_pair_128", "general_pair_256",
        "odd_nodes_three_waves", "two_field_crossing", "two_field_cfl"])
def test_two_field_march_repeats_one_solve_per_field(u, v, nx, t_end, abort, monkeypatch):
    if (u, v, nx, t_end) == _GROWING_RUN:  # both marches' interpolants grow alike
        for module in (hydro, oracles):
            monkeypatch.setattr(module, "MonotoneCubic1D", _growing(module.MonotoneCubic1D))
    _, error = _assert_same_march(integrate_characteristics, oracles.integrate_characteristics,
                                  parse(u), parse(v), nx, t_end)
    assert (error and error[2]) == abort


# c05's two cases at each of their node counts: 23 and 23 levels at 128
# nodes, 44 and 45 at 256, so at 256 one problem leaves the stack first.
@pytest.mark.parametrize("nx,levels", [(128, [23, 23]), (256, [44, 45])])
def test_stacked_problems_repeat_one_march_each(nx, levels):
    """Every level of each problem of a stack holds the bits of its march
    alone with one solve per field."""
    problems = [(parse(u), parse(v), t_end) for u, v, t_end in _C05]
    grids = hydro.integrate_characteristics_stack(problems, nx)
    assert [g.nt for g in grids] == levels
    for problem, grid in zip(problems, grids):
        old = oracles.integrate_characteristics(*problem[:2], nx, problem[2])
        assert (grid.nt, grid.dt, grid.h) == (old.nt, old.dt, old.h)
        assert grid.t_levels.tobytes() == old.t_levels.tobytes()
        assert grid.u.tobytes() == old.u.tobytes() and grid.v.tobytes() == old.v.tobytes()


# The crossing at level 226 of a 96-node grid, and c05's general pair on the
# same nodes, which marches 18 levels and leaves the stack long before.
_CROSSING_96 = (parse("1.5 + 0.3*sin(x)"), parse("1.5 + 0.3*sin(x)"), 4.0)
_GENERAL_96 = (parse("1.2 + 0.25*sin(x)"), parse("2.1 + 0.2*cos(x)"), 0.2)


@pytest.mark.parametrize("problems", [[_GENERAL_96, _CROSSING_96], [_CROSSING_96, _GENERAL_96]],
                         ids=["second_aborts", "first_aborts"])
def test_stack_aborts_where_its_aborting_problem_aborts_alone(problems):
    """A stack in which one problem crosses raises that problem's abort at
    the level where it aborts alone, with no partial grid; the other problem
    marched alone still has the bits of the march with one solve per field."""
    with pytest.raises(CharacteristicCrossingError) as err:
        hydro.integrate_characteristics_stack(problems, 96)
    assert err.value.level == 226 and not hasattr(err.value, "partial")
    _assert_same_march(integrate_characteristics, oracles.integrate_characteristics,
                       *_GENERAL_96[:2], 96, _GENERAL_96[2])


def test_converged_rows_keep_the_foot_of_their_own_last_sweep(monkeypatch):
    """Where u's and v's foot solves stop after different numbers of sweeps,
    the row that stops first keeps its foot while the other sweeps on; a
    further sweep would move its last bits at level 1."""
    live = []
    foot_points = hydro._foot_points

    def recording(step, start, tol, level, first=None):
        sweeps = []
        foot = foot_points(lambda f, rows: sweeps.append(len(rows)) or step(f, rows),
                           start, tol, level, first)
        live.append(sweeps)
        return foot

    monkeypatch.setattr(hydro, "_foot_points", recording)
    _assert_same_march(integrate_characteristics, oracles.integrate_characteristics,
                       parse("1.5 + 0.1*sin(x)"), parse("2.0 + 0.9*cos(x)"),
                       16, 0.1)
    assert any(1 in sweeps and 2 in sweeps for sweeps in live[2:4])


@pytest.mark.parametrize("n", [32, 64])
def test_multifield_march_repeats_one_solve_per_pair(n):
    _assert_same_march(integrate_multifield, oracles.integrate_multifield, _multi_init(),
                       n, n, 0.12)


def test_multifield_crossing_repeats_one_solve_per_pair():
    init = {"u1": parse("3*sin(x2)"), "v1": parse("-3*sin(x2)"),
            "u2": parse("0.2"), "v2": parse("0.1")}
    _, error = _assert_same_march(integrate_multifield, oracles.integrate_multifield, init,
                                  16, 16, 20.0)
    assert error[0] is CharacteristicCrossingError


def test_stacked_march_counts_its_solves(monkeypatch):
    """A two-field level builds one interpolant and makes two foot-point
    solves; a multifield level evaluates each speed spline at the nodes once
    and makes four fewer spline calls than one solve per pair did."""
    counts = {"interpolants": 0, "solves": 0}

    class Counting(hydro.MonotoneCubic1D):
        def __init__(self, *args):
            counts["interpolants"] += 1
            super().__init__(*args)

    foot_points = hydro._foot_points

    def counting(*args):
        counts["solves"] += 1
        return foot_points(*args)

    monkeypatch.setattr(hydro, "MonotoneCubic1D", Counting)
    monkeypatch.setattr(hydro, "_foot_points", counting)
    grid = _general_grid(64)
    assert counts == {"interpolants": grid.nt - 1, "solves": 2 * (grid.nt - 1)}

    at_nodes = []  # per spline built: how often it was evaluated at the nodes
    spline_init, spline_call = hydro._PeriodicSpline2.__init__, hydro._PeriodicSpline2.__call__

    def built(self, values):
        self.serial = len(at_nodes)
        at_nodes.append(0)
        spline_init(self, values)

    def spline(self, idx2, idx3):
        counts["splines"] += 1
        nodes = np.meshgrid(*map(np.arange, self.coeffs.shape), indexing="ij")
        at_nodes[self.serial] += np.array_equal(idx2, nodes[0]) and np.array_equal(idx3, nodes[1])
        return spline_call(self, idx2, idx3)

    monkeypatch.setattr(hydro._PeriodicSpline2, "__init__", built)
    monkeypatch.setattr(hydro._PeriodicSpline2, "__call__", spline)
    runs = []
    for integrate in (integrate_multifield, oracles.integrate_multifield):
        at_nodes.clear()
        counts["splines"] = 0
        grid = integrate(_multi_init(), 32, 32, 0.12)
        runs.append((counts["splines"], list(at_nodes)))
    (new_calls, new_at_nodes), (old_calls, old_at_nodes) = runs
    levels = grid.nt - 1
    assert new_at_nodes == [1] * 4 * levels and old_at_nodes == [2] * 4 * levels
    assert new_calls == old_calls - 4 * levels


def test_conservation_drift_of_scaled_fields_keeps_the_bits():
    """On c05's four grids, the drift from scaled fields has the bits of the
    unscaled written-out differences for n = 1..30, all from one pass of the
    S_n recurrence."""
    for u, v, t_end in _C05:
        for nx in (128, 256):
            grid = integrate_characteristics(parse(u), parse(v),
                                             nx, t_end)
            assert conservation_drifts(grid, 30) == [oracles.conservation_drift(grid, n)
                                                     for n in range(1, 31)]


# Builds the spline on random periodic grids, then imports scipy.ndimage (not
# loaded until then) and compares bit for bit with its public functions.
_SPLINE_REFERENCE = """
import sys
import numpy as np
from batlab import hydro

rng = np.random.default_rng(5)
built = []
for shape in ((8, 8), (8, 12), (12, 8), (9, 33), (17, 10), (64, 64)):
    values = rng.standard_normal(shape)
    # coordinates in [-3, n + 3) along each axis, shaped like the nodes
    coords = [rng.uniform(-3.0, n + 3.0, size=shape) for n in shape]
    spline = hydro._PeriodicSpline2(values)
    built.append((values, coords, spline.coeffs, spline(*coords)))
assert "scipy" not in sys.modules and "scipy.ndimage" not in sys.modules

from scipy import ndimage

def same_bits(a, b):
    return a.dtype == b.dtype == np.float64 and np.array_equal(a.view(np.uint64),
                                                               b.view(np.uint64))

for values, coords, coeffs, at in built:
    reference = ndimage.spline_filter(values, order=3, mode="grid-wrap")
    assert same_bits(coeffs, reference), values.shape
    assert same_bits(at, ndimage.map_coordinates(reference, coords, order=3, mode="grid-wrap",
                                                 prefilter=False)), values.shape
print(len(built))
"""


def test_periodic_spline_repeats_scipy_ndimage_bit_for_bit():
    """The spline calls scipy's compiled ndimage extension directly, whose
    signature is private: its coefficients and values must keep the bits of
    the public ``spline_filter`` and ``map_coordinates`` in "grid-wrap" mode,
    on square, non-square and odd grids, at feet outside one period.  A fresh
    interpreter shows that building and evaluating it imports no part of
    scipy's Python package, and that a later public import still works."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    run = subprocess.run([sys.executable, "-c", _SPLINE_REFERENCE], capture_output=True,
                         text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["6"]
