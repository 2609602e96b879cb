"""Zero-curvature construction: constraints, speeds, operator annihilation."""

import numpy as np
import pytest

from scipy.optimize import brentq

from batlab import jets, residuals
from batlab.construct import ImplicitSolveConfig
from batlab.errors import EvaluationError, NewtonConvergenceError, SingularMatrixError
from batlab.exprspec import eval_jet, parse
from batlab.leznov import (
    LeznovSystem,
    constraint_gap,
    field_jets,
    holomorphy_samples,
    solve_constraints,
    speed_jets,
    zero_curvature_samples,
)


def _sys_n2(seed=0.3):
    return LeznovSystem(
        n=2,
        Q=[parse("phi + 0.3*phi^3 - x1 - 0.5*x1*x2")],
        P=[parse("xb1 + xb2^2 + 0.2*sin(xb2)")],
        cfg=ImplicitSolveConfig(seed=seed),
    )


def _sys_n3(seed=(0.2, 0.2)):
    return LeznovSystem(
        n=3,
        Q=[parse("phi1 - x1 - 0.3*x2*x3 - 0.1*phi2^2"),
           parse("phi2 - x2 - 0.2*x1*x3")],
        P=[parse("xb1 + 0.5*xb3 + 0.1*phi2"),
           parse("xb2*xb3 + 0.1*sin(xb1)")],
        cfg=ImplicitSolveConfig(seed=seed, max_iter=80),
    )


def _points_n2(count, rng):
    return [rng.uniform([-0.5, -0.5, -0.5, -0.5], [0.5, 0.5, 0.5, 0.5])
            for _ in range(count)]


def _points_n3(count, rng):
    lo = [-0.4, -0.4, 0.6, -0.4, -0.4, 0.6]
    hi = [0.4, 0.4, 1.4, 0.4, 0.4, 1.4]
    return [rng.uniform(lo, hi) for _ in range(count)]


def _fields(sys, point):
    """The field jets at one point, from its solve."""
    point = np.asarray(point, dtype=float)
    return field_jets(sys, point, solve_constraints(sys, point))


def _speeds(sys, point):
    """The speeds (u, v) at one point, from its field jets."""
    point = np.asarray(point, dtype=float)
    return speed_jets(sys, point, _fields(sys, point))


def _solved_batch(sys, points):
    """(fields, speeds) over the points whose solve, field jets and speeds
    succeed, as one batch, and how many points failed."""
    points = np.asarray(points, dtype=float)
    roots = [residuals.attempt(solve_constraints, sys, p) for p in points]
    ok = [i for i, r in enumerate(roots) if not isinstance(r, EvaluationError)]

    def jets_and_speeds(p, phi):
        fields = field_jets(sys, p, phi)
        return fields, speed_jets(sys, p, fields)

    errors, batch = residuals.batched(jets_and_speeds, points[ok],
                                      np.array([roots[i] for i in ok]))
    return batch, len(points) - len(ok) + sum(err is not None for err in errors)


def _holomorphy_reports(sys, points):
    (fields, speeds), skipped = _solved_batch(sys, points)
    d, dbar = holomorphy_samples(sys, fields, speeds)
    return (residuals.grid_report([residuals.by_point(d)], skipped),
            residuals.grid_report([residuals.by_point(dbar)], skipped))


def test_linear_constraint_closed_form():
    # Q = phi - x1, P = xb1: phi = x1 + xb1 with unit first derivatives.
    sys = LeznovSystem(n=2, Q=[parse("phi - x1")], P=[parse("xb1")],
                       cfg=ImplicitSolveConfig(seed=0.0))
    point = np.array([0.7, 0.2, -0.4, 0.9])
    phi = solve_constraints(sys, point)
    assert phi[0] == pytest.approx(0.3, abs=1e-12)
    (j,) = field_jets(sys, point, phi)
    assert j.grad[0] == pytest.approx(1.0, abs=1e-12)  # phi_x1
    assert j.grad[2] == pytest.approx(1.0, abs=1e-12)  # phi_xb1
    assert j.grad[1] == pytest.approx(0.0, abs=1e-12)
    assert np.abs(j.hess).max() <= 1e-12


def test_identical_constraints_singular():
    sys = LeznovSystem(n=2, Q=[parse("phi")], P=[parse("phi - xb1")],
                       cfg=ImplicitSolveConfig(seed=0.0, max_iter=5))
    with pytest.raises((SingularMatrixError, NewtonConvergenceError)):
        solve_constraints(sys, [0.1, 0.2, 0.3, 0.4])


def test_variable_validation():
    with pytest.raises(ValueError):
        LeznovSystem(n=2, Q=[parse("phi - xb1")], P=[parse("xb1")],
                     cfg=ImplicitSolveConfig())


def test_n3_newton_matches_decoupled_scalar_oracle():
    """Decoupled constraints solved per component by scalar Newton."""
    sys = LeznovSystem(
        n=3,
        Q=[parse("phi1 + 0.2*phi1^3 - x1 - x2"),
           parse("phi2 - 0.5*x3")],
        P=[parse("xb1 + 0.3*xb2"), parse("xb3^2")],
        cfg=ImplicitSolveConfig(seed=(0.1, 0.1)),
    )
    rng = np.random.default_rng(0)
    for _ in range(10):
        z = rng.uniform(-0.5, 0.5, size=6)
        phi = solve_constraints(sys, z)

        # Component 1: phi1 + 0.2 phi1^3 = x1 + x2 + xb1 + 0.3 xb2.
        target = z[0] + z[1] + z[3] + 0.3 * z[4]
        w = 0.1
        for _ in range(60):
            f = w + 0.2 * w**3 - target
            w -= f / (1 + 0.6 * w**2)
        assert phi[0] == pytest.approx(w, abs=1e-11)
        # Component 2: phi2 = 0.5 x3 + xb3^2.
        assert phi[1] == pytest.approx(0.5 * z[2] + z[5] ** 2, abs=1e-11)

        gap = constraint_gap(sys, z, phi)
        assert gap <= 1e-12


def test_n2_constraint_gap_and_derivative_formula():
    sys = _sys_n2()
    rng = np.random.default_rng(1)
    for z in _points_n2(10, rng):
        root = solve_constraints(sys, z)
        assert constraint_gap(sys, z, root) <= 1e-12
        # First derivatives match the implicit formula directly.
        phi = root[0]
        x1, x2 = z[0], z[1]
        d = -(1 + 0.9 * phi**2)  # P_phi - Q_phi
        q_x1 = -1 - 0.5 * x2
        (j,) = field_jets(sys, z, root)
        assert j.grad[0] == pytest.approx(q_x1 / d, rel=1e-10)


def test_speed_hand_value():
    # Q = phi - 2 x1 - x2 gives v = -(Q_x1)^{-1} Q_x2 = -1/2.
    sys = LeznovSystem(n=2, Q=[parse("phi - 2*x1 - x2")], P=[parse("xb1 + xb2")],
                       cfg=ImplicitSolveConfig(seed=0.0))
    u, v = _speeds(sys, [0.3, -0.2, 0.5, 0.1])
    assert v[0].value == pytest.approx(-0.5, abs=1e-12)
    assert u[0].value == pytest.approx(-1.0, abs=1e-12)


def test_speed_singular_when_constraint_ignores_x_block():
    sys = LeznovSystem(n=2, Q=[parse("phi - x2")], P=[parse("xb1 + xb2")],
                       cfg=ImplicitSolveConfig(seed=0.0))
    with pytest.raises(SingularMatrixError):
        _speeds(sys, [0.1, 0.2, 0.3, 0.4])


def test_fields_jets_match_finite_differences_n2():
    sys = _sys_n2()

    def h(p):
        return _fields(sys, p)[0]

    p0 = np.array([0.2, -0.1, 0.3, 0.15])
    j0 = h(p0)
    errs = []
    for step in (2e-3, 1e-3):
        g = np.zeros(4)
        for i in range(4):
            pp, pm = p0.copy(), p0.copy()
            pp[i] += step
            pm[i] -= step
            g[i] = (h(pp).value - h(pm).value) / (2 * step)
        errs.append(np.abs(g - j0.grad).max())
    assert errs[0] / max(errs[1], 1e-300) >= 3.5


def test_fields_jets_match_finite_differences_n3():
    sys = _sys_n3()
    p0 = np.array([0.1, -0.2, 1.0, 0.2, 0.1, 0.9])
    for j in (0, 1):
        def h(p):
            return _fields(sys, p)[j]

        j0 = h(p0)
        errs = []
        for step in (2e-3, 1e-3):
            g = np.zeros(6)
            for i in range(6):
                pp, pm = p0.copy(), p0.copy()
                pp[i] += step
                pm[i] -= step
                g[i] = (h(pp).value - h(pm).value) / (2 * step)
            errs.append(np.abs(g - j0.grad).max())
        assert errs[0] / max(errs[1], 1e-300) >= 3.5


@pytest.mark.parametrize("make_sys,points", [
    (_sys_n2, _points_n2),
    (_sys_n3, _points_n3),
])
def test_holomorphy_and_zero_curvature(make_sys, points):
    sys = make_sys()
    rng = np.random.default_rng(2)
    pts = points(25, rng)
    d_rep, dbar_rep = _holomorphy_reports(sys, pts)
    assert d_rep.skipped_singular <= 5
    assert d_rep.max_norm <= 1e-8
    assert dbar_rep.max_norm <= 1e-8

    (_, speeds), skipped = _solved_batch(sys, pts)
    zc = residuals.grid_report([residuals.by_point(
        zero_curvature_samples(sys, speeds))], skipped)
    assert zc.max_norm <= 1e-8


# (time axis, space axes) of D (x_n over x_1..x_{n-1}) and of Dbar (xb_n over
# xb_1..xb_{n-1}), by n, in the coordinate order (x_1..x_n, xb_1..xb_n).
_OPERATOR_AXES = {2: ((1, (0,)), (3, (2,))), 3: ((2, (0, 1)), (5, (3, 4)))}


def _sample_bits(samples):
    return [b"".join(np.asarray(getattr(s, f), dtype=float).tobytes()
                     for f in ("raw", "scale", "floor")) for s in samples]


def _written_out_operators(n, on_x, on_xb):
    """(D, Dbar) with the speed family ``on_x`` on the x block and ``on_xb``
    on the xb block, as transport residuals written out."""
    (d_time, d_space), (dbar_time, dbar_space) = _OPERATOR_AXES[n]

    def d(jet):
        return residuals.transport(jet, [s.value for s in on_x], d_time, d_space)

    def dbar(jet):
        return residuals.transport(jet, [s.value for s in on_xb], dbar_time, dbar_space)

    return d, dbar


@pytest.mark.parametrize("make_sys,points", [
    (_sys_n2, _points_n2),
    (_sys_n3, _points_n3),
])
def test_operator_binding_is_the_written_out_transport(make_sys, points):
    """D carries the v speeds and Dbar the u speeds; zero curvature applies D
    to the u speeds and Dbar to the v speeds.  The samples are, bit for bit,
    the transport residuals with those axes and families."""
    sys = make_sys()
    (fields, (u, v)), _ = _solved_batch(sys, points(12, np.random.default_rng(8)))
    assert not np.array_equal(u[0].value, v[0].value)
    d, dbar = _written_out_operators(sys.n, v, u)
    d_samples, dbar_samples = holomorphy_samples(sys, fields, (u, v))
    assert _sample_bits(d_samples) == _sample_bits([d(f) for f in fields])
    assert _sample_bits(dbar_samples) == _sample_bits([dbar(f) for f in fields])
    assert _sample_bits(zero_curvature_samples(sys, (u, v))) == _sample_bits(
        [d(s) for s in u] + [dbar(s) for s in v])


def test_binding_comparison_records_v_on_x():
    """The literal-definition binding (u on the x block) does not annihilate
    the constructed fields; the v binding, the one ``leznov`` applies, does."""
    sys = _sys_n2()
    rng = np.random.default_rng(3)
    pts = _points_n2(15, rng)
    d_v, _ = _holomorphy_reports(sys, pts)
    (fields, (u, v)), skipped = _solved_batch(sys, pts)
    d_on_u, _ = _written_out_operators(sys.n, u, v)
    d_u = residuals.grid_report([residuals.by_point(tuple(d_on_u(f) for f in fields))], skipped)
    assert d_v.max_norm <= 1e-8
    assert d_u.max_norm >= 1e-3


def _composite(sys, expr, point):
    """Jet of the field W(phi; coordinates) over the 2n coordinates at a point."""
    values = list(_fields(sys, point)) + jets.variables(point)
    return eval_jet(expr, {name: values[s] for name, s in sys.slots.items()}, k=2 * sys.n)


def test_functions_of_phi_and_xb_annihilated_by_D():
    sys = _sys_n2()
    w = parse("phi^3 + exp(0.5*phi) + xb1*phi + sin(xb2)")
    rng = np.random.default_rng(4)
    samples = []
    for z in _points_n2(15, rng):
        jet = _composite(sys, w, z)
        u, v = _speeds(sys, z)
        samples.append(residuals.transport(jet, [v[0].value], 1, (0,)))  # D, v on x
    rep = residuals.grid_report(samples)
    assert rep.max_norm <= 1e-8


def test_constraint_directional_identities():
    """DQ = 0 under the v binding and Dbar P = 0 under the u-on-xb binding,
    through the full composite chain."""
    sys = _sys_n2()
    rng = np.random.default_rng(5)
    q_samples, p_samples = [], []
    for z in _points_n2(15, rng):
        u, v = _speeds(sys, z)
        q_comp, p_comp = (_composite(sys, c[0], z) for c in (sys.Q, sys.P))
        q_samples.append(residuals.transport(q_comp, [v[0].value], 1, (0,)))  # D, v on x
        p_samples.append(residuals.transport(p_comp, [u[0].value], 3, (2,)))  # Dbar, u on xb
    assert residuals.grid_report(q_samples).max_norm <= 1e-8
    assert residuals.grid_report(p_samples).max_norm <= 1e-8


def test_n2_field_solves_complex_bateman():
    sys = _sys_n2()
    rng = np.random.default_rng(6)
    worst = 0.0
    for z in _points_n2(25, rng):
        (jet,) = _fields(sys, z)
        worst = max(worst, residuals.complex_bateman(jet).normalized)
    assert worst <= 1e-8


def test_antiholo_speed_spread_small():
    # P depends on phi so the xb-side speed genuinely varies along the x block
    # at fixed xb; on a speed level set the directional derivative must be
    # constant (it is a function of the speed value and xb alone).
    sys = LeznovSystem(
        n=2,
        Q=[parse("phi + 0.3*phi^3 - x1 - 0.5*x1*x2")],
        P=[parse("xb1 + xb2^2 + 0.1*phi*xb2")],
        cfg=ImplicitSolveConfig(seed=0.3),
    )
    xbar = (0.2, 0.4)

    def u_jet(x1, x2):
        return _speeds(sys, [x1, x2, *xbar])[0][0]

    # Trace points (x1, x2) along the level curve u = level with xb held at
    # xbar, and sample u_xb2 + u * u_xb1 there.
    level = u_jet(0.3, 0.2).value
    values = []
    for x1 in np.linspace(0.25, 0.45, 7):
        x2 = brentq(lambda x2: u_jet(x1, x2).value - level, -1.2, 1.2, xtol=1e-13)
        uj = u_jet(x1, x2)
        values.append(uj.grad[3] + uj.value * uj.grad[2])
    spread = max(values) - min(values)
    assert spread <= 1e-6 * max(np.abs(values).max(), 1e-12, 1.0)
