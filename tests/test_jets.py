"""Jet arithmetic: seed semantics, chain rules, domain errors, FD convergence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batlab import jets
from batlab.errors import JetDomainError


@pytest.fixture(params=[jets], ids=[jets.JET_BACKEND])
def J(request):
    return request.param


def test_variable_seed(J):
    j = J.variable(0, 3.0, 2)
    assert j.value == 3.0
    assert np.array_equal(j.grad, [1.0, 0.0])
    assert np.array_equal(j.hess, np.zeros((2, 2)))

    j = J.variable(1, -1.5, 2)
    assert j.value == -1.5
    assert np.array_equal(j.grad, [0.0, 1.0])


def test_variable_index_out_of_range(J):
    with pytest.raises(ValueError):
        J.variable(3, 0.0, 3)
    with pytest.raises(ValueError):
        J.variable(-1, 0.0, 2)
    with pytest.raises(ValueError):
        J.variable(0, 0.0, 7)


def test_square_of_variable(J):
    x = J.variable(0, 2.0, 1)
    y = x * x
    assert y.value == 4.0
    assert y.grad[0] == 4.0
    assert y.hess[0, 0] == 2.0


def test_reciprocal(J):
    x = J.variable(0, 2.0, 1)
    y = J.constant(1.0, 1) / x
    assert y.value == 0.5
    assert y.grad[0] == -0.25
    assert y.hess[0, 0] == 0.25


def test_add_independent_seeds(J):
    x = J.variable(0, 1.0, 2)
    y = J.variable(1, 2.0, 2)
    s = x + y
    assert s.value == 3.0
    assert np.array_equal(s.grad, [1.0, 1.0])
    assert np.array_equal(s.hess, np.zeros((2, 2)))


def test_mul_cross_hessian(J):
    x = J.variable(0, 2.0, 2)
    y = J.variable(1, 3.0, 2)
    p = x * y
    assert p.value == 6.0
    assert np.array_equal(p.grad, [3.0, 2.0])
    assert p.hess[0, 1] == 1.0 and p.hess[1, 0] == 1.0
    assert p.hess[0, 0] == 0.0 and p.hess[1, 1] == 0.0


def test_div_by_zero_value(J):
    x = J.variable(0, 0.0, 1)
    with pytest.raises(JetDomainError):
        J.constant(1.0, 1) / x


def test_exp_at_zero(J):
    x = J.variable(0, 0.0, 1)
    e = J.exp(x)
    assert e.value == 1.0 and e.grad[0] == 1.0 and e.hess[0, 0] == 1.0


def test_sqrt_at_four(J):
    x = J.variable(0, 4.0, 1)
    r = J.sqrt(x)
    assert r.value == 2.0
    assert r.grad[0] == 0.25
    assert r.hess[0, 0] == pytest.approx(-1.0 / 32.0, rel=1e-15)


def test_domain_errors(J):
    neg = J.variable(0, -1.0, 1)
    with pytest.raises(JetDomainError):
        J.sqrt(neg)
    with pytest.raises(JetDomainError):
        J.log(neg)
    with pytest.raises(JetDomainError):
        J.powc(neg, 0.5)
    with pytest.raises(JetDomainError):
        J.exp(J.constant(1e4, 1))


def test_integer_pow_negative_base(J):
    x = J.variable(0, -2.0, 1)
    y = J.powc(x, 3)
    assert y.value == -8.0
    assert y.grad[0] == 12.0
    assert y.hess[0, 0] == -12.0
    z = J.powc(x, -2)  # x^-2 = 0.25, d = 2/8 = 0.25, dd = -6/16
    assert z.value == pytest.approx(0.25)
    assert z.grad[0] == pytest.approx(0.25)
    assert z.hess[0, 0] == pytest.approx(0.375)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_pow_overflow_is_a_domain_error(J):
    x = J.variable(0, 10.0, 1)
    for exponent in (400, 400.0, 400.5):
        with pytest.raises(JetDomainError):
            J.powc(x, exponent)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_huge_integer_pow_uses_the_closed_form(J):
    # Beyond 1000 factors the power is the closed form, valid for any base.
    x = J.variable(0, -1.01, 1)
    for c in (1001, -1001, 1001.0):
        y = J.powc(x, c)
        assert y.value == (-1.01) ** int(c)
        assert y.grad[0] == c * (-1.01) ** int(c - 1)
        assert y.hess[0, 0] == c * (c - 1) * (-1.01) ** int(c - 2)
    with pytest.raises(JetDomainError):
        J.powc(J.variable(0, 0.0, 1), -1001)
    with pytest.raises(JetDomainError):
        J.powc(J.variable(0, 10.0, 1), 1001)


def test_pow_float_equals_pow_int_for_integral_exponent(J):
    x = J.variable(0, 1.7, 1)
    a = J.powc(x, 4)
    b = J.powc(x, 4.0)
    assert a.value == b.value and a.grad[0] == b.grad[0]


def test_arity_mismatch(J):
    with pytest.raises(ValueError):
        J.variable(0, 1.0, 2) + J.variable(0, 1.0, 3)


def test_scalar_mixing(J):
    x = J.variable(0, 2.0, 1)
    y = 3.0 * x + 1.0
    assert y.value == 7.0 and y.grad[0] == 3.0
    z = 1.0 / x
    assert z.value == 0.5 and z.grad[0] == -0.25
    w = 2.0 - x
    assert w.value == 0.0 and w.grad[0] == -1.0


def test_from_parts_symmetrizes_and_validates(J):
    j = J.from_parts(1.0, [1.0, 2.0], [[0.0, 1.0], [1.0, 2.0]])
    assert j.hess[0, 1] == 1.0
    with pytest.raises(ValueError):
        J.from_parts(1.0, [1.0, 2.0], [[0.0, 1.0], [5.0, 2.0]])
    with pytest.raises(ValueError):
        J.from_parts(1.0, [1.0], [[1.0, 0.0], [0.0, 1.0]])


# -- composed-function checks against closed forms -------------------------------


def _poly_field(J, t, x):
    # f(t,x) = exp(t) * sin(x) + t^2 * x
    return J.exp(t) * J.sin(x) + J.powc(t, 2) * x


def test_composed_against_closed_form(J):
    tv, xv = 0.4, 1.1
    t = J.variable(0, tv, 2)
    x = J.variable(1, xv, 2)
    f = _poly_field(J, t, x)
    assert f.value == pytest.approx(math.exp(tv) * math.sin(xv) + tv**2 * xv, rel=1e-14)
    assert f.grad[0] == pytest.approx(math.exp(tv) * math.sin(xv) + 2 * tv * xv, rel=1e-14)
    assert f.grad[1] == pytest.approx(math.exp(tv) * math.cos(xv) + tv**2, rel=1e-14)
    assert f.hess[0, 0] == pytest.approx(math.exp(tv) * math.sin(xv) + 2 * xv, rel=1e-14)
    assert f.hess[0, 1] == pytest.approx(math.exp(tv) * math.cos(xv) + 2 * tv, rel=1e-14)
    assert f.hess[1, 1] == pytest.approx(-math.exp(tv) * math.sin(xv), rel=1e-13)


# -- finite-difference convergence ------------------------------------------------


def _fd_grad_hess(func, point, h):
    k = len(point)
    grad = np.zeros(k)
    hess = np.zeros((k, k))
    f0 = func(point)
    for i in range(k):
        pp, pm = point.copy(), point.copy()
        pp[i] += h
        pm[i] -= h
        grad[i] = (func(pp) - func(pm)) / (2 * h)
        hess[i, i] = (func(pp) - 2 * f0 + func(pm)) / h**2
    for i in range(k):
        for j in range(i + 1, k):
            ppp, ppm, pmp, pmm = (point.copy() for _ in range(4))
            ppp[[i, j]] += h
            pmm[[i, j]] -= h
            ppm[i] += h
            ppm[j] -= h
            pmp[i] -= h
            pmp[j] += h
            hess[i, j] = hess[j, i] = (
                func(ppp) - func(ppm) - func(pmp) + func(pmm)
            ) / (4 * h**2)
    return grad, hess


def test_fd_convergence_second_order(J):
    """Halving h must cut the AD-vs-FD gap by >= 3.5 (O(h^2) differences)."""

    def value_map(p):
        t = J.variable(0, p[0], 3)
        x = J.variable(1, p[1], 3)
        y = J.variable(2, p[2], 3)
        f = J.exp(t * 0.3) * J.sin(x) + J.sqrt(y + 2.0) / (x + 3.0) + J.powc(t, 3)
        return f.value

    point = np.array([0.7, 1.3, 0.5])
    t = J.variable(0, point[0], 3)
    x = J.variable(1, point[1], 3)
    y = J.variable(2, point[2], 3)
    f = J.exp(t * 0.3) * J.sin(x) + J.sqrt(y + 2.0) / (x + 3.0) + J.powc(t, 3)

    errs = []
    for h in (1e-3, 5e-4):
        g_fd, h_fd = _fd_grad_hess(value_map, point, h)
        errs.append(
            max(np.abs(g_fd - f.grad).max(), np.abs(h_fd - f.hess).max())
        )
    assert errs[0] / max(errs[1], 1e-300) >= 3.5


# -- invariants -------------------------------------------------------------------


@given(
    data=st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=3, max_size=3
    ),
    ops=st.lists(st.sampled_from(["add", "sub", "mul", "div", "exp", "sin", "cos"]),
                 min_size=1, max_size=6),
)
@settings(max_examples=80, deadline=None)
def test_hessian_symmetric_after_random_ops(data, ops):
    a = jets.variable(0, data[0], 3)
    b = jets.variable(1, data[1], 3)
    acc = jets.variable(2, data[2], 3)
    try:
        for op in ops:
            if op == "add":
                acc = acc + a
            elif op == "sub":
                acc = acc - b
            elif op == "mul":
                acc = acc * a
            elif op == "div":
                acc = acc / (b * b + 1.0)
            elif op == "exp":
                acc = jets.exp(acc * 0.1)
            elif op == "sin":
                acc = jets.sin(acc)
            else:
                acc = jets.cos(acc)
    except JetDomainError:
        return
    assert np.array_equal(acc.hess, acc.hess.T)
    assert np.isfinite(acc.hess).all()


def test_value_associativity_tolerance(J):
    rng = np.random.default_rng(7)
    for _ in range(50):
        va, vb, vc = rng.uniform(-3, 3, size=3)
        a = J.variable(0, va, 3)
        b = J.variable(1, vb, 3)
        c = J.variable(2, vc, 3)
        left = (a * b) * c
        right = a * (b * c)
        scale = max(abs(left.value), 1.0)
        assert abs(left.value - right.value) <= 1e-14 * scale



# -- batched jets ---------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("f,values", [
    (lambda x: jets.exp(10.0 * x), (70.8, 71.0)),           # gradient overflow; guard
    (lambda x: 1e308 / (x - 71.0), (70.8, 71.0)),           # quotient overflow; zero divisor
    (lambda x: jets.powc(1e200 * (x - 71.0), -2), (70.8, 71.0)),  # square overflow; zero base
    (lambda x: jets.log(x), (1e-160, -1.0)),                # Hessian overflow; guard
    (lambda x: jets.exp(10.0 * x), (70.8, 70.85)),          # gradient overflow at both
], ids=["exp", "div", "pow", "log", "exp-both"])
def test_batch_error_is_the_first_failing_points(f, values):
    """Both points fail, point 0 at the finiteness check that follows point
    1's domain guard or at the same check: the batch raises point 0's error."""
    (x,) = jets.batch_variables([values])
    errors = []
    for value in values:
        with pytest.raises(Exception) as err:
            f(jets.variable(0, value, 1))
        errors.append((type(err.value), repr(err.value.args)))
    assert errors[0] != errors[1]
    with pytest.raises(Exception) as err:
        f(x)
    assert (type(err.value), repr(err.value.args)) == errors[0]


def test_batch_operands_must_share_a_shape():
    a, b = jets.batch_variables([[1.0, 2.0], [3.0, 4.0]])
    (c,) = jets.batch_variables([[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        a + c
    with pytest.raises(ValueError):
        a * jets.variable(0, 1.0, 3)
    with pytest.raises(ValueError):
        jets.batch_variables([[1.0, 2.0], [3.0]])
    assert (a * jets.constant(2.0, 2)).value.tolist() == [2.0, 4.0]
