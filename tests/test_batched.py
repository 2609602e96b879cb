"""Batched evaluation gives each point the bits of its one-point evaluation.

Derandomized: every constructor's jets, ``pull_back``, ``born_infeld_jet``,
``reparametrization``, the Leznov speeds and operator samples, the
finite-difference jets of a stored grid and every residual operator are
evaluated once over a batch of points and once per point, and compared with ``np.array_equal``.  The point sets include points
that fail (a solve, a jet, a speed matrix or a domain guard):
``residuals.batched`` must skip exactly those, and the batch of the others
must repeat their one-point bits.  The known ways of changing bits -- a
right-hand side of several columns in ``np.linalg.solve``, ``(g * g).sum()`` or
``x * x`` in place of a BLAS dot product or ``pow(x, 2)`` -- would change a
batch and its one-point evaluation alike, so the one-point results of the
formulas that risk them are also compared with the one-point forms of
``tests/oracles.py``, on data that tell those ways apart.

The batched Newton solves rest on two more such facts, checked element by
element on data that hit the arguments where numpy's own functions differ
(a digest would miss a change of the machine's SIMD level): an array
evaluation of a spec (``float_fn``) holds the bits of its float evaluation at
each point, and a stack of 1x1 or 2x2 systems is solved, and its condition
numbers found, as each system on its own.
"""

import math

import numpy as np
import pytest

from batlab import construct, hydro, jets, leznov, residuals
from batlab.construct import HodographSolver, ImplicitSolveConfig, LinearMap2
from batlab.errors import (EvaluationError, JetDomainError, NewtonConvergenceError,
                           SingularMatrixError)
from batlab.exprspec import float_fn, parse
from batlab.jets import Jet2

import oracles


def _same(batch, singles: list) -> None:
    """``batch`` holds the bits of the one-point ``singles``, in order."""
    assert singles
    if isinstance(batch, tuple):
        for i, part in enumerate(batch):
            _same(part, [s[i] for s in singles])
    elif isinstance(batch, Jet2):
        assert isinstance(singles[0].value, float)
        for field in ("value", "grad", "hess"):
            assert np.array_equal(getattr(batch, field),
                                  np.array([getattr(s, field) for s in singles]))
    elif isinstance(batch, np.ndarray):
        assert np.array_equal(batch, np.array(singles))
    else:
        for field in ("raw", "scale", "floor"):
            assert np.array_equal(np.broadcast_to(getattr(batch, field), batch.raw.shape),
                                  np.array([getattr(s, field) for s in singles]))


def _compare(fn, *batches):
    """``fn`` point by point and over the batch of the points where it does
    not fail; returns that batch's result and which points failed."""
    errors, out = residuals.batched(fn, *batches)
    singles = [residuals.attempt(fn, *(residuals.take(b, i) for b in batches))
               for i in range(len(errors))]
    failed = np.array([isinstance(s, EvaluationError) for s in singles])
    assert [e is not None for e in errors] == failed.tolist()
    good = [s for s in singles if not isinstance(s, EvaluationError)]
    _same(out, good)
    direct = fn(*(residuals.take(b, ~failed) for b in batches))
    _same(direct, good)
    return direct, failed


def _field_batch(handle, points):
    """The handle's jets over the points whose solve succeeds, checked against
    one-point jets."""
    roots = [residuals.attempt(handle.solve, p) for p in points]
    solved = [i for i, r in enumerate(roots) if not isinstance(r, EvaluationError)]
    batch, failed = _compare(handle.jets, points[solved], np.array(
        [roots[i] for i in solved]))
    return batch, len(points) - len(solved) + int(failed.sum())


_RNG_SEED = 20240801
_CFG = ImplicitSolveConfig


def _box(rng, low, high, n):
    return rng.uniform(low, high, size=(n, len(low)))


def test_field_constructors_and_scalar_residuals():
    rng = np.random.default_rng(_RNG_SEED)
    four = [
        # the bracket case of c01: some solves fail
        construct.solve_implicit_fg(parse("log(phi) + phi - x1 - x2"),
                                    parse("0.3*xb1^2 + xb2"), _CFG(seed=1.0, bracket=(1e-6, 60.0))),
        construct.solve_implicit_fg(parse("phi + 0.2*exp(phi) - x1^2 - x2"),
                                    parse("sin(xb1) + xb2"), _CFG(seed=0.0)),
        # jets fail after the (empty) solve where x1 <= 0
        construct.holo_sum(parse("log(x1) + x2^2"), parse("exp(xb1)*xb2")),
        construct.holo_sum(parse("1"), parse("2")),
    ]
    skipped = []
    for handle in four:
        phi, skips = _field_batch(handle, _box(rng, [-1] * 4, [1] * 4, 300))
        skipped.append(skips)
        _compare(residuals.complex_bateman, phi)
        for h in ("s^3 + s", "exp(s)", "log(s)", "1 - 2/(exp(2*s) + 1)"):
            _compare(construct.reparametrization(parse(h)), phi)
            _compare(lambda j, h=h: residuals.complex_bateman(
                construct.reparametrization(parse(h))(j)), phi)
    assert skipped[0] > 0 and skipped[2] > 0
    three = [
        construct.implicit_3d(parse("exp(phi)"), parse("phi"), parse("1"), 3.0, _CFG(seed=0.5)),
        # degenerate and failing solves on a box around the fold
        construct.implicit_3d(parse("phi^2"), parse("phi"), parse("1"), 0.5, _CFG(seed=0.3)),
    ]
    for handle, low, high in zip(three, ([0.5, 0.3, -0.5], [-1] * 3), ([1.0, 0.8, 0.5], [1] * 3)):
        phi, _ = _field_batch(handle, _box(rng, low, high, 1500))
        e3, _ = _compare(residuals.euclidean_3d, phi)
        _same(e3, [oracles.euclidean_3d(residuals.take(phi, i)) for i in range(len(phi.value))])
        _compare(residuals.euclidean_first_order, phi)
        _compare(lambda j: residuals.euclidean_3d(j * j * j + j), phi)
        _compare(lambda j: residuals.transport(j, [j.value, 0.5], 0, (1, 2)),
                 phi)
        g = phi.grad
        # Data that tell a BLAS dot product from a plain sum, and pow(x, 2)
        # from x * x.
        assert not np.array_equal((g * g).sum(-1), [gi @ gi for gi in g])
        assert not np.array_equal(g * g, np.float_power(g, 2))


@pytest.mark.parametrize("f,g,low,high", [
    ("u^3", "exp(v)", [1.0, 3.0], [2.0, 3.8]),
    ("u^2", "v^2", [-0.5, 2.0], [0.5, 3.0]),  # Born-Infeld needs u > 0
])
def test_hodograph_fields_covariance_and_two_field_residuals(f, g, low, high):
    rng = np.random.default_rng(_RNG_SEED)
    solver = HodographSolver(parse(f), parse(g), _CFG(seed=tuple(low)))
    uv = _box(rng, low, high, 2000)
    fields, failed = _compare(solver.fields, uv[:, 0], uv[:, 1])
    assert not failed.any()
    derivatives = solver.jets_uv(uv[:, 0], uv[:, 1])
    _same(derivatives, [oracles.hodograph_jets_uv(solver, u, v) for u, v in uv.tolist()])
    _compare(lambda uv: solver.identity_residuals(uv[..., 0], uv[..., 1]), uv)
    for pair in (lambda f: residuals.two_field_bateman(*f),
                 lambda f: residuals.two_field_bateman(*f, conjugate=True)):
        _compare(pair, fields)
    for h in ("s^3 + s", "exp(0.3*s)"):
        rep = construct.reparametrization(parse(h))
        _compare(lambda f: residuals.two_field_bateman(*map(rep, f)), fields)
    m = LinearMap2(0.9, -0.4, 0.3, 1.2)
    minv = m.inverse()
    pulled, _ = _compare(lambda f: tuple(construct.pull_back(j, minv) for j in f), fields)
    _compare(lambda f: residuals.two_field_bateman(*f), pulled)
    _compare(lambda s: construct.moebius_transform(s, m), pulled[1].grad[:, 0])
    bi, bi_failed = _compare(lambda f: construct.born_infeld_jet(f[1], f[0], 1.3), fields)
    assert bi_failed.any() == (low[0] < 0)
    born, _ = _compare(lambda j: residuals.born_infeld(j, 1.3), bi)
    _same(born, [oracles.born_infeld(residuals.take(bi, i), 1.3) for i in range(len(bi.value))])
    assert not np.array_equal(bi.grad * bi.grad, np.float_power(bi.grad, 2))
    _compare(lambda f: construct.born_infeld_cross_residual(f[1], f[0], 1.3), fields)

    # Data that tell one vector solve per system from one solve with three
    # columns: the Jacobians of these points and the right-hand sides of their
    # three second-derivative systems.
    u, v = uv[:, 0], uv[:, 1]
    f2, f3 = (np.array([fn(a) for a in u]) for fn in solver._fu[2:])
    g2, g3 = (np.array([fn(b) for b in v]) for fn in solver._gv[2:])
    jac = np.stack([np.stack([f2, g2], -1), np.stack([-u * f2, -v * g2], -1)], -2)
    du, dv, _, _ = solver.jets_uv(u, v)
    rhs = np.stack([-np.stack([f3 * du[:, a] * du[:, b] + g3 * dv[:, a] * dv[:, b],
                               (-f2 - u * f3) * du[:, a] * du[:, b]
                               + (-g2 - v * g3) * dv[:, a] * dv[:, b]], -1)
                    for a, b in ((0, 0), (0, 1), (1, 1))], -1)
    columns = np.stack([np.linalg.solve(jac, rhs[..., i:i + 1])[..., 0] for i in range(3)], -1)
    assert not np.array_equal(np.linalg.solve(jac, rhs), columns)


@pytest.mark.parametrize("n", [2, 3])
def test_leznov_fields_speeds_and_operator_samples(n):
    rng = np.random.default_rng(_RNG_SEED)
    if n == 2:
        sys = leznov.LeznovSystem(n=2, Q=[parse("phi + 0.3*phi^3 - x1 - 0.5*x1*x2")],
                                  P=[parse("xb1 + xb2^2 + 0.2*sin(xb2)")], cfg=_CFG(seed=0.3))
        points = _box(rng, [-0.5] * 4, [0.5] * 4, 300)
        singular = [0.3, -2.0, 0.1, 0.2]  # Q_x1 = -1 - 0.5 x2 vanishes
    else:
        sys = leznov.LeznovSystem(
            n=3, Q=[parse("phi1 - x1 - 0.3*x2*x3 - 0.1*phi2^2"), parse("phi2 - x2 - 0.2*x1*x3")],
            P=[parse("xb1 + 0.5*xb3 + 0.1*phi2"), parse("xb2*xb3 + 0.1*sin(xb1)")],
            cfg=_CFG(seed=(0.2, 0.2), max_iter=80))
        points = _box(rng, [-0.4, -0.4, 0.6, -0.4, -0.4, 0.6], [0.4, 0.4, 1.4, 0.4, 0.4, 1.4], 300)
        singular = [0.1, -0.2, 0.06 ** -0.5, 0.2, 0.1, 0.9]  # det Q_x = 1 - 0.06 x3^2 vanishes
    points[57] = singular
    roots = [leznov.solve_constraints(sys, p) for p in points]
    fields, failed = _compare(lambda p, phi: leznov.field_jets(sys, p, phi),
                              points, np.array(roots))
    assert not failed.any()
    # The one-point jets repeat the bits of one vector solve per right-hand side.
    _same(fields, [tuple(oracles.leznov_field_jets(sys, p, phi)) for p, phi in zip(points, roots)])
    speeds, failed = _compare(lambda p, f: leznov.speed_jets(sys, p, f), points, fields)
    assert np.flatnonzero(failed).tolist() == [57]
    fields = residuals.take(fields, ~failed)
    _compare(lambda f, s: leznov.holomorphy_samples(sys, f, s), fields, speeds)
    _compare(lambda s: leznov.zero_curvature_samples(sys, s), speeds)


def test_grid_jets_and_transport_samples():
    grid = hydro.integrate_characteristics(
        parse("1.2 + 0.25*sin(x)"), parse("2.1 + 0.2*cos(x)"), 64, 0.2)
    m = grid.nt // 2
    jet, _ = _compare(lambda i: hydro.fd_jet_at(grid.u, grid.dt, grid.h, m, i), np.arange(grid.nx))
    _compare(lambda j, s: residuals.transport(j, [s], 0, (1,)), jet, -grid.v[m])


def _args(rng, n):
    """Arguments x, y that hit the differing cases: x in narrow and wide
    ranges around 0, y > 0 spanning many binades."""
    x = np.concatenate([rng.uniform(-3.0, 3.0, n), rng.uniform(-100.0, 100.0, n),
                        rng.uniform(-600.0, 600.0, n)])
    return x, np.exp(rng.uniform(-30.0, 30.0, 3 * n))


@pytest.mark.parametrize("text,n", [
    ("exp(x / 30)", 70_000), ("log(y)", 70_000), ("y^2.5", 70_000), ("x^2", 70_000),
    ("x^3", 70_000), ("exp(x / 50) * x^2 - log(y)^3 + y^(x / 100) + 2 * x^1 * y^0", 70_000),
    ("x^4", 10_000), ("x^6", 10_000), ("x^-2", 10_000), ("y^0.5", 10_000), ("x^1", 10_000),
    ("x^0", 10_000), ("sin(x) * cos(y) + sqrt(y) - x / y", 10_000),
])
def test_array_closures_repeat_the_float_closures(text, n):
    """Each element of an array evaluation is the float evaluation at that
    point, bit for bit, on 3n points (210,000 for exp, log, x^2.5, x^2, x^3
    and a mix of them); and the numpy functions the array closures avoid do
    differ from the float ones on these points."""
    rng = np.random.default_rng(_RNG_SEED)
    x, y = _args(rng, n)
    f = float_fn(parse(text), ("x", "y"))
    with np.errstate(all="ignore"):
        batch = f(x, y)
    singles = np.array([f(a, b) for a, b in zip(x.tolist(), y.tolist())])
    assert batch.shape == x.shape and np.array_equal(batch.view(np.int64), singles.view(np.int64))
    # numpy's exp and power, and x * x, are not the float functions here.
    assert not np.array_equal(np.exp(x / 30), [math.exp(a / 30) for a in x.tolist()])
    assert not np.array_equal(np.log(y), [math.log(b) for b in y.tolist()])
    assert not np.array_equal(np.power(x, 3), [a**3 for a in x.tolist()])
    assert not np.array_equal(x * x, [a**2 for a in x.tolist()])


def test_array_closures_raise_what_the_float_closures_raise():
    """An array evaluation that fails at one point fails as the float
    evaluation there does; one that fails at several raises the error of the
    first operation failing at some point.  A constant spec gives one value
    per point, and the result is never an argument itself."""
    f = float_fn(parse("log(x) + 1 / (x - 2) + x^-1"), ("x",))
    for bad in (-1.0, 2.0, 0.0):
        values = [3.0, bad, 5.0]
        with pytest.raises(EvaluationError) as batch:
            f(np.array(values))
        with pytest.raises(EvaluationError) as single:
            f(bad)
        assert (type(batch.value), str(batch.value)) == (type(single.value), str(single.value))
    with pytest.raises(EvaluationError, match="log"):
        f(np.array([2.0, -1.0]))  # the float evaluation at 2.0 fails in the division
    overflow = float_fn(parse("1 / x^400"), ("x",))
    with pytest.raises(EvaluationError, match="pow"), np.errstate(over="ignore"):
        overflow(np.array([1.0, 10.0]))
    assert float_fn(parse("2"), ("x",))(np.zeros(3)).tolist() == [2.0] * 3
    same = np.array([1.5, 2.5])
    assert float_fn(parse("x"), ("x",))(same) is not same


def test_one_variable_array_path_gives_the_float_bits():
    """A spec of one variable takes a float64 array as it is, and every other
    array through ``np.asarray``: over int, float32, 0-d, strided and 2-d
    arrays each element is the bits of its float evaluation; a spec that
    returns its argument gives a new array; a constant is ``np.full``; and a
    non-finite element raises the JetDomainError of the first one."""
    grid = np.linspace(-3.0, 3.0, 24)
    arrays = [np.arange(-3, 4), grid.astype(np.float32), np.array(1.25), np.array(-0.0),
              grid, grid[::3], grid.reshape(4, 6), np.array([7], dtype=np.int8)]
    for text in ("u^3 - 2*u + exp(u/4)", "u^2", "2.0 * u^1", "sin(u)^1"):
        for f in (float_fn(parse(text)), float_fn(parse(text), ("u", "w"))):
            for values in arrays:
                out = f(values)
                assert type(out) is np.ndarray and out.dtype == np.float64
                assert out.shape == values.shape
                singles = np.array([f(v) for v in values.ravel().tolist()])
                assert out.ravel().view(np.int64).tolist() == singles.view(np.int64).tolist()
    for text in ("u^1", "u", "(u^1)^1"):
        for values in (grid, grid[::3], np.array(2.5)):
            out = float_fn(parse(text))(values)
            assert out is not values and not np.shares_memory(out, values)
            assert out.view(np.int64).tolist() == values.view(np.int64).tolist()
    constant = float_fn(parse("2.0 * u^0"))
    for values in (grid, grid.reshape(4, 6), np.array(1.0), np.arange(3)):
        out = constant(values)
        assert np.array_equal(out, np.full(values.shape, 2.0)) and out.dtype == np.float64
        assert out.flags.writeable and constant(values) is not out
    blowing_up = float_fn(parse("u * 1e300 * 1e300"))
    nan = float_fn(parse("u * 1e300 * 1e300 - u * 1e300 * 1e300"))
    for f, values, first in ((blowing_up, [0.0, -2.0, 3.0], -math.inf),
                             (blowing_up, [0.0, 0.5, -2.0], math.inf),
                             (nan, [0.0, 0.0, 4.0, -1.0], math.nan)):
        for array in (np.array(values), np.array(values, dtype=np.float32)):
            with pytest.raises(JetDomainError) as err, np.errstate(all="ignore"):
                f(array)
            assert err.value.operation == "eval"
            assert np.array_equal(err.value.value, first, equal_nan=True)
            with pytest.raises(JetDomainError) as single:
                f(next(v for v in values if v != 0.0))
            assert str(single.value) == str(err.value)


@pytest.mark.parametrize("size", [1, 2])
def test_stacked_solve_and_cond_repeat_each_system(size):
    """``residuals._solve`` and ``np.linalg.cond`` over a stack of systems
    give each system's own bits, as the batched Leznov step needs."""
    rng = np.random.default_rng(_RNG_SEED)
    mats = rng.standard_normal((5000, size, size)) * np.exp(rng.uniform(-3, 3, (5000, 1, 1)))
    rhs = rng.standard_normal((5000, size))
    solved = residuals._solve(mats, rhs)
    assert np.array_equal(solved, [np.linalg.solve(m, r) for m, r in zip(mats, rhs)])
    assert np.array_equal(np.linalg.cond(mats), [np.linalg.cond(m) for m in mats])


def test_batched_newton_solves_repeat_their_one_point_solves():
    """Every constructor's batched solve gives each point the root, or the
    error class, of its one-point solve, including points that fail."""
    rng = np.random.default_rng(_RNG_SEED)
    handles = [
        (construct.solve_implicit_fg(parse("log(phi) + phi - x1 - x2"), parse("0.3*xb1^2 + xb2"),
                                     _CFG(seed=1.0, bracket=(1e-6, 60.0))), [-1] * 4, [1] * 4),
        (construct.solve_implicit_fg(parse("phi^3 - 2*phi + 2 + x1"), parse("xb1*phi"),
                                     _CFG(seed=0.0)), [-1] * 4, [1] * 4),
        (construct.implicit_3d(parse("phi^2"), parse("phi"), parse("1"), 0.5, _CFG(seed=0.3)),
         [-1] * 3, [1] * 3),
    ]
    for handle, low, high in handles:
        points = _box(rng, low, high, 200)
        errors, roots = handle.solve_many(points)
        singles = [residuals.attempt(handle.solve, p) for p in points]
        assert [type(e) for e in errors] == [
            type(s) if isinstance(s, EvaluationError) else type(None) for s in singles]
        assert roots.tolist() == [s for s in singles if not isinstance(s, EvaluationError)]
        assert 0 < len(roots) < len(points) or handle is handles[0][0]

    solver = HodographSolver(parse("u^3"), parse("exp(v)"), _CFG(seed=(1.5, 3.4)))
    uv = _box(rng, [-1.0, 2.0], [2.0, 3.8], 300)  # folds where u = v or u = 0
    tx = np.array([solver.forward(u, v) for u, v in uv])
    for seeds in (None, uv[::-1]):
        errors, roots = solver.solve_many(tx[:, 0], tx[:, 1], seeds)
        singles = [residuals.attempt(solver.solve, t, x, None if seeds is None else s)
                   for (t, x), s in zip(tx, uv[::-1])]
        assert [type(e) for e in errors] == [
            type(s) if isinstance(s, EvaluationError) else type(None) for s in singles]
        assert list(map(tuple, roots.tolist())) == [
            s for s in singles if not isinstance(s, EvaluationError)]
        assert any(e is not None for e in errors)


def test_fallback_reruns_one_row_batches_and_joins_them():
    """Where ``fn`` fails over a batch, ``batched`` reruns it on each point as
    a batch of one row, so ``fn`` only ever sees batches with a leading axis,
    and joins the results at the points that survive into the bits of the
    direct batch over those points: a jet, a sample with a float floor, an
    array and a tuple of them."""
    x = np.array([0.5, -1.0, 2.0, 0.0, 3.0, 1e-3, -2.0])
    jet = jets.variables([x, 2.0 * x])[0]
    shapes = []

    def fn(j, v):
        shapes.append((j.value.shape, j.grad.shape, v.shape))
        return (jets.log(j), residuals.ResidualSample(np.log(v), v * v, 0.5),
                np.stack([v, -v], axis=-1))

    errors, out = residuals.batched(fn, jet, x)
    failed = x <= 0.0
    assert [err is not None for err in errors] == failed.tolist()
    assert all(isinstance(err, EvaluationError) for err in errors if err is not None)
    assert shapes == [((7,), (7, 2), (7,))] + [((1,), (1, 2), (1,))] * 7
    direct = fn(residuals.take(jet, ~failed), x[~failed])
    assert isinstance(out, tuple) and len(out) == 3
    for field in ("value", "grad", "hess"):
        assert np.array_equal(getattr(out[0], field), getattr(direct[0], field))
    for field in ("raw", "scale", "floor"):
        assert np.array_equal(getattr(out[1], field), np.broadcast_to(
            getattr(direct[1], field), direct[1].raw.shape))
    assert np.array_equal(out[2], direct[2]) and out[2].shape == (4, 2)

    shapes.clear()
    assert residuals.batched(fn, residuals.take(jet, ~failed), x[~failed])[0] == [None] * 4
    assert shapes == [((4,), (4, 2), (4,))]
    none_left, out = residuals.batched(fn, residuals.take(jet, failed), x[failed])
    assert out is None and all(isinstance(err, EvaluationError) for err in none_left)


def test_a_one_row_batch_that_raises_runs_once():
    """A batch of one row that raises is that row's error: ``batched`` does
    not rerun it."""
    calls = []

    def fn(x):
        calls.append(x.tolist())
        return jets.log(jets.variables([x])[0])

    errors, out = residuals.batched(fn, np.array([-1.0]))
    assert calls == [[-1.0]] and out is None
    assert len(errors) == 1 and isinstance(errors[0], EvaluationError)


# How a point leaves a ``_newton`` batch: each a scalar iteration of
# ``_leaving`` from its seed, which the shift moves by whole steps.
_ZERO, _CYCLE, _HALT, _MAX_ITER, _RESIDUAL_RAISES, _STEP_RAISES, _SINGULAR = range(7)
_SEEDS = {_ZERO: 3.0, _CYCLE: 2.0, _HALT: 4.0, _MAX_ITER: 1.0, _RESIDUAL_RAISES: 5.0,
          _STEP_RAISES: 6.0, _SINGULAR: 6.0}
# the residual size is |x - target| (1 / x for _MAX_ITER)
_TARGETS = np.array([0.0, 0.0, 0.9, 0.0, 0.0, 0.0, 4.2])
# each kind's best iterate, from its seed, with max_iter 12
_BEST = {_ZERO: lambda s: 0.0, _CYCLE: lambda s: s, _HALT: lambda s: 1.0,
         _MAX_ITER: lambda s: s + 12, _RESIDUAL_RAISES: lambda s: 3.0,
         _STEP_RAISES: lambda s: 3.0, _SINGULAR: lambda s: 4.0}


def _leaving(kinds):
    """The batched ``(residual, step)`` of points iterating by ``kinds`` (one
    per point), and the logs of their calls: per call the indices and
    iterate bits it got, and whether it raised.

    * _ZERO steps x - 1 down to an exact zero size;
    * _CYCLE steps to -x, so its third iterate repeats its first;
    * _HALT halves x, and its step halts once the next iterate is below 1;
    * _MAX_ITER steps to x + 1 and never repeats;
    * _RESIDUAL_RAISES steps x - 1, and its residual raises a JetDomainError
      below 2.5;
    * _STEP_RAISES steps x - 1, and its step raises a "diverged"
      NewtonConvergenceError below 3.5;
    * _SINGULAR steps x - 1, and its step raises a SingularMatrixError below
      4.5, a stop judged by the best iterate.

    Each error names the iterate it failed at, so each point's error is its
    own."""
    kinds = np.array(kinds)
    logs = {"residual": [], "step": []}

    def logged(name, idx, x, bad, error):
        logs[name].append((tuple(idx.tolist()), x.tobytes(), bool(bad.any())))
        if bad.any():
            raise error(float(x[bad][0]))

    def residual(idx, x):
        kind = kinds[idx]
        logged("residual", idx, x, (kind == _RESIDUAL_RAISES) & (x < 2.5),
               lambda v: JetDomainError("log", v))
        return np.where(kind == _MAX_ITER, 1.0 / x, abs(x - _TARGETS[kind])), x

    def step(idx, x, r):
        kind = kinds[idx]
        diverged = (kind == _STEP_RAISES) & (x < 3.5)
        logged("step", idx, x, diverged | (kind == _SINGULAR) & (x < 4.5), lambda v: (
            NewtonConvergenceError(f"diverged at {v!r}") if diverged.any()
            else SingularMatrixError(f"singular at {v!r}")))
        nxt = np.select([kind == _CYCLE, kind == _HALT, kind == _MAX_ITER],
                        [-x, x / 2, x + 1], x - 1)
        return nxt, (kind == _HALT) & (nxt < 1.0)
    return residual, step, logs


def test_newton_fast_paths_keep_each_points_one_row_solve():
    """Points leave a batch by every route (an exact zero, a repeated
    iterate, a halt, ``max_iter``, a residual or a step raising on a later
    iteration, a singular step), at different iterations and in different
    orders: each ends with the error, by type and message, and the best
    iterate, by its bits, of its own one-row ``_newton``.  A batch whose
    call raises is rerun one row at a time, never whole again, and a one-row
    batch that raises is not called again."""
    # (kind, shift, tol): a tolerance on either side of the best size
    points = [(_ZERO, 0, 1e-12), (_ZERO, 2, 1e-12), (_CYCLE, 0, 1e-12), (_CYCLE, 1, 3.5),
              (_HALT, 0, 0.2), (_HALT, 1, 0.05), (_MAX_ITER, 0, 0.1), (_MAX_ITER, 3, 0.01),
              (_RESIDUAL_RAISES, 0, 1e-12), (_RESIDUAL_RAISES, 2, 1e-12),
              (_STEP_RAISES, 0, 1e-12), (_STEP_RAISES, 1, 1e-12),
              (_SINGULAR, 0, 0.25), (_SINGULAR, 2, 0.1)]
    rng = np.random.default_rng(_RNG_SEED)
    orders = [points, points[::-1]] + [[points[k] for k in rng.permutation(len(points))]
                                       for _ in range(4)]
    routes = set()
    for order in orders:
        kinds = [kind for kind, _, _ in order]
        # ``shift`` steps before the kind's seed
        seeds = np.array([_SEEDS[kind] * 2.0 ** shift if kind == _HALT else _SEEDS[kind] + shift
                          for kind, shift, _ in order])
        tol = np.array([t for _, _, t in order])
        residual, step, logs = _leaving(kinds)
        errors, best = construct._newton(residual, step, seeds, 12, tol)
        for name, log in logs.items():
            raised = [call for call in log if call[2]]
            assert any(len(call[0]) > 1 for call in raised), name
            # no call that raised is made again with the same rows and iterates
            assert len({call[:2] for call in raised}) == len(raised)
            assert not {call[:2] for call in raised} & {call[:2] for call in log if not call[2]}
        for k, err in enumerate(errors):
            one_residual, one_step, one_logs = _leaving(kinds[k:k + 1])
            one, one_best = construct._newton(one_residual, one_step, seeds[k:k + 1], 12,
                                              tol[k:k + 1])
            assert (type(err), str(err)) == (type(one[0]), str(one[0]))
            assert best[k:k + 1].view(np.int64).tolist() == one_best.view(np.int64).tolist()
            assert best[k] == _BEST[kinds[k]](seeds[k])
            for log in one_logs.values():  # a one-row batch that raises is not rerun
                assert [call[2] for call in log].count(True) == (1 if log and log[-1][2] else 0)
            routes.add((kinds[k], type(err)))
    assert routes == {
        (_ZERO, type(None)), (_CYCLE, NewtonConvergenceError), (_CYCLE, type(None)),
        (_HALT, type(None)), (_HALT, NewtonConvergenceError), (_MAX_ITER, type(None)),
        (_MAX_ITER, NewtonConvergenceError), (_RESIDUAL_RAISES, JetDomainError),
        (_STEP_RAISES, NewtonConvergenceError), (_SINGULAR, type(None)),
        (_SINGULAR, SingularMatrixError)}


def test_newton_retires_each_failing_point_with_its_own_error():
    """In one ``_newton`` batch, ``residual`` raises at some rows and ``step``
    at others, each once its point's iterate crosses a threshold: each of those
    points retires with its own error, and every point ends in the root or
    error of its own one-row solve."""
    target = np.arange(2.0, 11.0)  # Newton on x^2 = target[k], from above

    def residual(idx, x):
        bad = (idx % 3 == 1) & (x < np.sqrt(target[idx]) + 0.5)
        if bad.any():
            raise EvaluationError(f"residual fails at point {idx[bad][0]}")
        f = x * x - target[idx]
        return abs(f), f

    def step(idx, x, f):
        bad = (idx % 3 == 2) & (x < np.sqrt(target[idx]) + 0.1)
        if bad.any():
            raise NewtonConvergenceError(f"step diverges at point {idx[bad][0]}")
        nxt = x - f / (2.0 * x)
        return nxt, nxt == x

    seeds = 3.0 + np.arange(9.0)
    errors, best = construct._newton(residual, step, seeds, 50, 1e-12)
    assert [type(err) for err in errors] == [type(None), EvaluationError,
                                             NewtonConvergenceError] * 3
    for k, err in enumerate(errors):
        one, one_best = construct._newton(lambda i, x: residual(i + k, x),
                                          lambda i, x, f: step(i + k, x, f),
                                          seeds[k:k + 1], 50, 1e-12)
        if err is None:
            assert one == [None] and best[k] == one_best[0]
            assert abs(best[k] ** 2 - target[k]) <= 1e-12
        else:
            assert str(err).endswith(f"at point {k}")
            assert (type(one[0]), str(one[0])) == (type(err), str(err))
