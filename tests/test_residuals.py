"""Residual operators: hand values, symbolic oracles, homogeneity properties."""

import numpy as np
import pytest
import sympy as sp

from batlab import jets, residuals
from batlab.exprspec import parse
from oracles import multifield_det


def _jet4(value, grad, hess):
    return jets.from_parts(value, grad, hess)


def _rand_jet(rng, k, scale=1.0):
    h = rng.normal(size=(k, k)) * scale
    return jets.from_parts(rng.normal(), rng.normal(size=k) * scale, 0.5 * (h + h.T))


def test_complex_bateman_linear_field_zero():
    j = jets.from_parts(1.3, [0.4, -0.2, 0.9, 1.1], np.zeros((4, 4)))
    s = residuals.complex_bateman(j)
    assert s.raw == 0.0


def test_complex_bateman_arity_check():
    with pytest.raises(ValueError):
        residuals.complex_bateman(jets.constant(1.0, 3))


def test_two_field_linear_phi_zero():
    phi = jets.from_parts(0.7, [0.3, -1.2], np.zeros((2, 2)))
    rng = np.random.default_rng(0)
    for _ in range(5):
        phibar = _rand_jet(rng, 2)
        assert residuals.two_field_bateman(phi, phibar).raw == 0.0


def test_two_field_hand_cases():
    # phi = phibar = t^2: every term carries a vanishing x-derivative factor.
    t, x = 0.8, -0.6
    sq = jets.from_parts(t * t, [2 * t, 0.0], [[2.0, 0.0], [0.0, 0.0]])
    assert residuals.two_field_bateman(sq, sq).raw == 0.0
    # phi = t^2, phibar = x: again a zero factor in each term.
    phibar = jets.from_parts(x, [0.0, 1.0], np.zeros((2, 2)))
    s = residuals.two_field_bateman(sq, phibar)
    assert s.raw == 0.0


def test_two_field_sympy_oracle():
    """Recompute the displayed combination symbolically for random fields."""
    t, x = sp.symbols("t x")
    phi = sp.sin(t) * sp.exp(x / 2) + t**2 * x
    phibar = sp.cos(x * t) + x**3
    expr = (
        sp.diff(phibar, x) * sp.diff(phi, x) * sp.diff(phi, t, 2)
        - sp.diff(phibar, x) * sp.diff(phi, t) * sp.diff(phi, t, x)
        - sp.diff(phibar, t) * sp.diff(phi, x) * sp.diff(phi, t, x)
        + sp.diff(phibar, t) * sp.diff(phi, t) * sp.diff(phi, x, 2)
    )
    pt = {t: 0.7, x: -0.3}
    expected = float(expr.subs(pt))

    def jet_of(e):
        g = [float(sp.diff(e, v).subs(pt)) for v in (t, x)]
        h = [[float(sp.diff(e, a, b).subs(pt)) for b in (t, x)] for a in (t, x)]
        return jets.from_parts(float(e.subs(pt)), g, h)

    s = residuals.two_field_bateman(jet_of(phi), jet_of(phibar))
    assert s.raw == pytest.approx(expected, rel=1e-12)


def test_two_field_conjugate_swaps_roles():
    rng = np.random.default_rng(1)
    a, b = _rand_jet(rng, 2), _rand_jet(rng, 2)
    assert (residuals.two_field_bateman(a, b, conjugate=True).raw
            == residuals.two_field_bateman(b, a).raw)


def test_two_field_homogeneity_degrees():
    """Degree 2 in phi, degree 1 in phibar."""
    rng = np.random.default_rng(2)
    phi, phibar = _rand_jet(rng, 2), _rand_jet(rng, 2)
    base = residuals.two_field_bateman(phi, phibar).raw
    for c in (-1.7, 0.3, 2.5):
        cphi = jets.from_parts(c * phi.value, c * phi.grad, c * phi.hess)
        cbar = jets.from_parts(c * phibar.value, c * phibar.grad, c * phibar.hess)
        assert residuals.two_field_bateman(cphi, phibar).raw == pytest.approx(
            c * c * base, rel=1e-12)
        assert residuals.two_field_bateman(phi, cbar).raw == pytest.approx(
            c * base, rel=1e-12)


def test_complex_bateman_swap_invariance():
    """Swapping x1<->x2 together with xb1<->xb2 permutes the four terms."""
    rng = np.random.default_rng(3)
    for _ in range(10):
        j = _rand_jet(rng, 4)
        perm = [1, 0, 3, 2]
        g = j.grad[perm]
        h = j.hess[np.ix_(perm, perm)]
        swapped = jets.from_parts(j.value, g, h)
        assert residuals.complex_bateman(swapped).raw == pytest.approx(
            residuals.complex_bateman(j).raw, rel=1e-12)


def test_complex_bateman_reparametrization_scaling():
    """Residual of h(phi) is h'(phi)^3 times the residual of phi."""
    rng = np.random.default_rng(4)
    h = parse("s^3 + s")
    from batlab.exprspec import eval_jet

    for _ in range(10):
        j = _rand_jet(rng, 4)
        comp = eval_jet(h, {"s": j})
        hp = 3.0 * j.value**2 + 1.0
        assert residuals.complex_bateman(comp).raw == pytest.approx(
            hp**3 * residuals.complex_bateman(j).raw, rel=1e-10)


def test_born_infeld_hand_case():
    # phi = t*x, lam = 1 at (1, 1): raw = -(1 + 2 t x) = -3.
    t, x = 1.0, 1.0
    phi = jets.from_parts(t * x, [x, t], [[0.0, 1.0], [1.0, 0.0]])
    s = residuals.born_infeld(phi, 1.0)
    assert s.raw == pytest.approx(-3.0)
    assert s.scale == pytest.approx(3.0)


def test_born_infeld_formula_sympy_cross_derivative_oracle():
    """Derive the equation as the integrability condition of the gradient
    substitution; the implemented form must vanish and the doubled-first-term
    variant must not."""
    u, v, lam, ux, vx = sp.symbols("u v lam u_x v_x", positive=True)
    X = sp.sqrt(lam) / (sp.sqrt(u) - sp.sqrt(v))  # phi_x
    T = sp.sqrt(lam * u * v) / (sp.sqrt(u) - sp.sqrt(v))  # phi_t
    # Hydrodynamic pair: u_t = v u_x, v_t = u v_x.
    ut, vt = v * ux, u * vx
    d_t = lambda W: sp.diff(W, u) * ut + sp.diff(W, v) * vt
    d_x = lambda W: sp.diff(W, u) * ux + sp.diff(W, v) * vx

    # Cross-derivative consistency: d_t(phi_x) == d_x(phi_t).
    assert sp.simplify(d_t(X) - d_x(T)) == 0

    phi_tt, phi_xt, phi_xx = d_t(T), d_x(T), d_x(X)
    implemented = X**2 * phi_tt + T**2 * phi_xx - (lam + 2 * X * T) * phi_xt
    assert sp.simplify(implemented) == 0

    printed_variant = 2 * X**2 * phi_tt - (lam + 2 * X * T) * phi_xt
    assert sp.simplify(printed_variant) != 0


def test_euclidean_hand_case():
    # phi = t^2 + x^2 at (1, 1, 0): raw = 8 (t^2 + x^2) = 16.
    t, x, y = 1.0, 1.0, 0.0
    phi = jets.from_parts(
        t**2 + x**2,
        [2 * t, 2 * x, 0.0],
        np.diag([2.0, 2.0, 0.0]),
    )
    assert residuals.euclidean_3d(phi).raw == pytest.approx(16.0)


def test_euclidean_linear_zero():
    j = jets.from_parts(0.1, [1.0, 2.0, 3.0], np.zeros((3, 3)))
    assert residuals.euclidean_3d(j).raw == 0.0


def test_euclidean_sympy_oracle():
    t, x, y = sp.symbols("t x y")
    phi = sp.exp(t / 3) * sp.sin(x) + y**2 * t + sp.cos(x * y)
    expr = (
        sp.diff(phi, t, 2) * (sp.diff(phi, x) ** 2 + sp.diff(phi, y) ** 2)
        + sp.diff(phi, x, 2) * (sp.diff(phi, y) ** 2 + sp.diff(phi, t) ** 2)
        + sp.diff(phi, y, 2) * (sp.diff(phi, t) ** 2 + sp.diff(phi, x) ** 2)
        - 2 * sp.diff(phi, t, x) * sp.diff(phi, t) * sp.diff(phi, x)
        - 2 * sp.diff(phi, y, t) * sp.diff(phi, y) * sp.diff(phi, t)
        - 2 * sp.diff(phi, x, y) * sp.diff(phi, x) * sp.diff(phi, y)
    )
    pt = {t: 0.4, x: 1.2, y: -0.7}
    syms = (t, x, y)
    g = [float(sp.diff(phi, s).subs(pt)) for s in syms]
    h = [[float(sp.diff(phi, a, b).subs(pt)) for b in syms] for a in syms]
    j = jets.from_parts(float(phi.subs(pt)), g, h)
    assert residuals.euclidean_3d(j).raw == pytest.approx(float(expr.subs(pt)), rel=1e-12)


def test_multifield_det_linear_fields_zero():
    rng = np.random.default_rng(5)
    lin = [jets.from_parts(rng.normal(), rng.normal(size=3), np.zeros((3, 3)))
           for _ in range(4)]
    for j in (1, 2):
        assert multifield_det(*lin, j=j).raw == pytest.approx(0.0, abs=1e-30)


def test_multifield_det_rank_deficiency_zero():
    """phi1, phi2 with proportional gradients make the lower-left block rank 1."""
    rng = np.random.default_rng(6)
    g = rng.normal(size=3)
    h1 = rng.normal(size=(3, 3))
    phi1 = jets.from_parts(0.3, g, 0.5 * (h1 + h1.T))
    phi2 = jets.from_parts(-0.2, 2.5 * g, 0.5 * (h1 + h1.T))
    b1, b2 = _rand_jet(rng, 3), _rand_jet(rng, 3)
    s = multifield_det(phi1, phi2, b1, b2, j=1)
    assert s.normalized <= 1e-13


def test_multifield_det_against_numpy_oracle():
    rng = np.random.default_rng(7)
    f = [_rand_jet(rng, 3) for _ in range(4)]
    for j in (1, 2):
        m = np.zeros((5, 5))
        m[0, 2:] = f[2].grad
        m[1, 2:] = f[3].grad
        hj = f[j - 1].hess
        for r in range(3):
            m[2 + r, 0] = f[0].grad[r]
            m[2 + r, 1] = f[1].grad[r]
            m[2 + r, 2:] = hj[r]
        assert multifield_det(*f, j=j).raw == pytest.approx(
            float(np.linalg.det(m)), rel=1e-12)


def test_multifield_det_grid_matches_scalar():
    rng = np.random.default_rng(8)
    fields = [[_rand_jet(rng, 3) for _ in range(4)] for _ in range(6)]
    grads = [np.array([fs[i].grad for fs in fields]) for i in range(4)]
    hess1 = np.array([fs[0].hess for fs in fields])
    raw, scale = residuals.multifield_det_grid(grads, hess1)
    for n, fs in enumerate(fields):
        s = multifield_det(*fs, j=1)
        assert raw[n] == pytest.approx(s.raw, rel=1e-12)
        assert scale[n] == pytest.approx(s.scale, rel=1e-12)


def test_transport_constant_zero():
    j = jets.constant(2.0, 2)
    assert residuals.transport(j, [1.3], time_axis=0, space_axes=(1,)).raw == 0.0


def test_transport_traveling_profile():
    # u(t, x) = x + v0 t satisfies u_t - v0 u_x = 0.
    v0 = 1.7
    j = jets.from_parts(0.0, [v0, 1.0], np.zeros((2, 2)))
    assert residuals.transport(j, [-v0], time_axis=0, space_axes=(1,)).raw == 0.0


def test_transport_pattern_validation():
    j = jets.constant(0.0, 2)
    with pytest.raises(ValueError):
        residuals.transport(j, [1.0, 2.0], 0, (1,))
    with pytest.raises(ValueError):
        residuals.transport(j, [1.0], 0, (4,))


def test_normalized_bounded_by_one():
    rng = np.random.default_rng(9)
    for _ in range(50):
        j = _rand_jet(rng, 4, scale=rng.uniform(0.1, 10))
        s = residuals.complex_bateman(j)
        if s.scale > 0:
            assert s.normalized <= 1.0 + 1e-12


def test_sweep_skips_singular():
    from batlab.errors import EvaluationError

    def evaluate(i):
        if (i % 3 == 0).any():
            raise EvaluationError("skip")
        return residuals.ResidualSample(raw=np.zeros(len(i)), scale=np.ones(len(i)))

    rep = residuals.sweep(np.arange(10), evaluate)
    assert rep.samples == 6
    assert rep.skipped_singular == 4
    assert rep.max_norm == 0.0
    assert rep.rms_norm <= rep.max_norm


@pytest.mark.parametrize("nan_in", ["scale", "floor"])
def test_grid_report_with_a_nan_scale_or_floor_fails(nan_in):
    """A NaN term magnitude anywhere on the grid leaves the report without a
    finite norm, and its entry is null and fails."""
    from batlab import cli

    parts = {"raw": np.array([1e-12, 2e-12]), "scale": np.ones(2), "floor": np.zeros(2)}
    parts[nan_in] = np.array([np.nan, 1.0])
    rep = residuals.grid_report([residuals.ResidualSample(**parts)])
    entry = cli._entry("r", rep, 1e-9, 2)
    assert (entry["max_norm"], entry["rms_norm"], entry["pass"]) == (None, None, False)
