"""Jet arithmetic: seed semantics, chain rules, domain errors, FD convergence."""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batlab import jets, residuals
from batlab.errors import JetDomainError

import oracles


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


@pytest.mark.parametrize("k", range(1, 6))
def test_central_differences_against_closed_forms(k):
    """``central_differences`` over k axes with their own steps, at a batch
    of points: a quadratic's value, gradient and Hessian to rounding, and a
    cubic (w.x)^3's with its gradient's truncation term h_a^2 w_a^3, since a
    centred second and mixed difference of a cubic is exact."""
    rng = np.random.default_rng(k)
    x = rng.uniform(-1.0, 1.0, size=(7, k))
    steps = 1e-2 * rng.uniform(0.5, 2.0, size=k)
    a = rng.uniform(-1.0, 1.0, size=(k, k))
    a = a + a.T
    b, w = rng.uniform(-1.0, 1.0, size=(2, k))

    def quadratic(p):
        return 0.5 + p @ b + 0.5 * np.einsum("ni,ij,nj->n", p, a, p)

    def cubic(p):
        return (p @ w) ** 3

    for f, grad, hess in (
            (quadratic, x @ a + b, np.broadcast_to(a, (7, k, k))),
            (cubic, 3 * (x @ w)[:, None] ** 2 * w + steps**2 * w**3,
             6 * (x @ w)[:, None, None] * np.outer(w, w))):
        mid, g, h = jets.central_differences(lambda shift: f(x + np.asarray(shift) * steps),
                                             tuple(steps))
        assert np.array_equal(mid, f(x))
        assert g.shape == (7, k) and h.shape == (7, k, k)
        np.testing.assert_allclose(g, grad, rtol=0, atol=1e-9)
        np.testing.assert_allclose(h, hess, rtol=0, atol=1e-9)


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
    (lambda x: jets.variable(0, 1e308, 1) / (x - 71.0), (70.8, 71.0)),  # the same, single / batch
    (lambda x: jets.powc(1e200 * (x - 71.0), -2), (70.8, 71.0)),  # square overflow; zero base
    (lambda x: jets.log(x), (1e-160, -1.0)),                # Hessian overflow; guard
    (lambda x: jets.exp(10.0 * x), (70.8, 70.85)),          # gradient overflow at both
], ids=["exp", "div", "div-single", "pow", "log", "exp-both"])
def test_batch_error_is_the_first_failing_points(f, values):
    """Both points fail, point 0 at the finiteness check that follows point
    1's domain guard or at the same check: the batch raises point 0's error."""
    (x,) = jets.variables([values])
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
    a, b = jets.variables([[1.0, 2.0], [3.0, 4.0]])
    (c,) = jets.variables([[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        a + c
    with pytest.raises(ValueError):
        a * jets.variable(0, 1.0, 3)
    with pytest.raises(ValueError):
        jets.variables([[1.0, 2.0], [3.0]])
    assert (a * jets.constant(2.0, 2)).value.tolist() == [2.0, 4.0]


_XS, _YS = (0.7, -1.3, 0.0, 2.5), (0.4, 0.0, 0.0, -1.1)


def _nonlinear(x, y):
    """x y + x: a jet with a full gradient and Hessian, zero at point 2."""
    return x * y + x


@pytest.mark.parametrize("single", [0.3, 0.0], ids=["nonzero", "zero"])
@pytest.mark.parametrize("single_first", [True, False], ids=["single-batch", "batch-single"])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv],
                         ids=lambda op: op.__name__)
def test_single_and_batch_operands_match_points(op, single_first, single):
    """A single jet combined with a batch, in either order, gives at each point
    the bits of the single-point operation there; a batch divisor that is zero
    at an inner point raises that point's error, a zero single divisor the
    first point's."""
    s = jets.sin(jets.variable(0, single, 2)) * jets.variable(1, -0.8, 2)
    b = _nonlinear(*jets.variables([_XS, _YS]))

    def at(i):
        return _nonlinear(jets.variable(0, _XS[i], 2), jets.variable(1, _YS[i], 2))

    def pair(single, other):
        return op(single, other) if single_first else op(other, single)

    oracles.assert_batch_matches_points(lambda: pair(s, b), lambda i: pair(s, at(i)), len(_XS))


# -- read-only seeds and constants ------------------------------------------------------

_SEED_VALUES = ((0.7, 1.3, 2.5, 0.2, 4.0), (1.9, 0.4, 0.6, 3.1, 0.25), (0.8, 2.2, 1.1, 0.5, 1.7))
_POINT = tuple(values[0] for values in _SEED_VALUES)  # the batch's first point


def _dense_seeds(values):
    """The seeds of ``values``, over a batch or at one point, as writable
    ``np.zeros`` arrays."""
    k, point = len(values), np.shape(values)[1:]
    seeds = []
    for i, value in enumerate(values):
        g = np.zeros(point + (k,))
        g[..., i] = 1.0
        seeds.append(jets.Jet2(np.array(value) if point else value, g, np.zeros(point + (k, k))))
    return seeds


# Jets with shared read-only parts, and the same jets on dense arrays: the
# seeds of a batch, the seeds of one point (from ``variables`` and from
# ``variable``) and one-point constants.
_SHARED = {
    "batch": (lambda: jets.variables(_SEED_VALUES), lambda: _dense_seeds(_SEED_VALUES)),
    "point": (lambda: jets.variables(_POINT), lambda: _dense_seeds(_POINT)),
    "variable": (lambda: [jets.variable(i, v, 3) for i, v in enumerate(_POINT)],
                 lambda: _dense_seeds(_POINT)),
    "constant": (lambda: [jets.constant(v, 3) for v in _POINT],
                 lambda: [jets.Jet2(v, np.zeros(3), np.zeros((3, 3))) for v in _POINT]),
}


def _bits(batch):
    """The int64 views of a batch's parts: of each jet of a tuple, of a jet's
    value, gradients and Hessians, or of an array."""
    if isinstance(batch, tuple):
        return [b for item in batch for b in _bits(item)]
    if isinstance(batch, jets.Jet2):
        return [b for part in (batch.value, batch.grad, batch.hess) for b in _bits(part)]
    return [np.asarray(batch, dtype=np.float64).view(np.int64)]


def _assert_same_bits(got, want):
    got, want = _bits(got), _bits(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)


@pytest.mark.parametrize("kind", list(_SHARED))
def test_batch_seeds_are_read_only_views(kind):
    shared, dense = _SHARED[kind]
    seeds = shared()
    for seed in seeds:
        for part in (seed.grad, seed.hess):
            with pytest.raises(ValueError, match="read-only"):
                part[0] = 1.0
    # one zero Hessian for every seed
    assert all(np.shares_memory(seed.hess, seeds[0].hess) for seed in seeds)
    _assert_same_bits(tuple(seeds), tuple(dense()))


@pytest.mark.parametrize("kind", list(_SHARED))
@pytest.mark.parametrize("op", [
    operator.add, operator.sub, operator.mul, operator.truediv,
    lambda x, y: -x, lambda x, y: jets.powc(x, 3), lambda x, y: jets.powc(y, -2),
    lambda x, y: jets.powc(x, 2.5), lambda x, y: jets.exp(x), lambda x, y: jets.log(y),
    lambda x, y: jets.sin(x), lambda x, y: jets.cos(y), lambda x, y: jets.sqrt(x),
    lambda x, y: x * y - y / x + jets.constant(0.5, 3),
], ids=["add", "sub", "mul", "truediv", "neg", "powc3", "powc-2", "powc2.5", "exp", "log",
        "sin", "cos", "sqrt", "composite"])
def test_read_only_seeds_give_the_bits_of_dense_seeds(op, kind):
    shared, dense = _SHARED[kind]
    x, y, _ = shared()
    dx, dy, _ = dense()
    _assert_same_bits(op(x, y), op(dx, dy))


@pytest.mark.parametrize("index", [2, slice(1, 4), np.array([3, 0, 3]),
                                   np.array([True, False, True, True, False])],
                         ids=["point", "slice", "indices", "mask"])
def test_take_and_join_of_read_only_seeds_give_the_bits_of_dense_seeds(index):
    seeds, dense = tuple(jets.variables(_SEED_VALUES)), tuple(_dense_seeds(_SEED_VALUES))
    _assert_same_bits(residuals.take(seeds, index), residuals.take(dense, index))
    if isinstance(index, int):
        return
    _assert_same_bits(residuals._join([residuals.take(seeds, index), seeds]),
                      residuals._join([residuals.take(dense, index), dense]))


# -- the one-point finiteness guard -------------------------------------------------------

def _numpy_require_finite(op, value, grad, hess):
    """The one-point guard as numpy array scans, the reference for the float form."""
    if not (math.isfinite(value) and np.isfinite(grad).all() and np.isfinite(hess).all()):
        raise JetDomainError(op, value)


_ENTRIES = [("value",)] + [("grad", i) for i in range(3)] + [
    ("hess", i, j) for i in range(3) for j in range(3)]


@pytest.mark.parametrize("entry,bad", [
    (entry, bad) for entry in _ENTRIES for bad in (math.inf, -math.inf, math.nan)
] + [(None, None)], ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_one_point_finiteness_guard_raises_as_numpy_form(entry, bad):
    value, grad, hess = 0.7, np.array([0.3, -1.2, 2.5]), np.arange(9.0).reshape(3, 3) - 4.0
    if entry == ("value",):
        value = bad
    elif entry is not None:
        (grad if entry[0] == "grad" else hess)[entry[1:]] = bad

    def outcome(guard):
        try:
            guard("div", value, grad, hess)
        except JetDomainError as err:
            return type(err), str(err)
        return None

    want = outcome(_numpy_require_finite)
    assert (want is None) == (entry is None)
    assert outcome(jets._require_finite) == want
