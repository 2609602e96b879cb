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
"""

import numpy as np
import pytest

from batlab import construct, hydro, leznov, residuals
from batlab.construct import HodographSolver, ImplicitSolveConfig, LinearMap2
from batlab.errors import EvaluationError
from batlab.exprspec import parse
from batlab.jets import Jet2
from batlab.residuals import TransportPattern

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
    batch, failed = _compare(handle.jets, points[solved], residuals.stack(
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
        _compare(lambda j: residuals.transport(j, [j.value, 0.5], TransportPattern(0, (1, 2))),
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
    _compare(lambda s: construct.moebius_transform((s, s), m)[0], pulled[1].grad[:, 0])
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
                              points, residuals.stack(roots))
    assert not failed.any()
    # The one-point jets repeat the bits of one vector solve per right-hand side.
    _same(fields, [tuple(oracles.leznov_field_jets(sys, p, phi)) for p, phi in zip(points, roots)])
    speeds, failed = _compare(lambda p, f: leznov.speed_jets(sys, p, f), points, fields)
    assert np.flatnonzero(failed).tolist() == [57]
    fields = residuals.take(fields, ~failed)
    for speeds_on_x in ("u", "v"):
        _compare(lambda f, s: leznov.holomorphy_samples(sys, f, s, speeds_on_x), fields, speeds)
        _compare(lambda s: leznov.zero_curvature_samples(sys, s, speeds_on_x), speeds)


def test_grid_jets_and_transport_samples():
    grid = hydro.integrate_characteristics(
        parse("1.2 + 0.25*sin(x)"), parse("2.1 + 0.2*cos(x)"), hydro.CharGridSpec(nx=64, t_end=0.2))
    m = grid.nt // 2
    jet, _ = _compare(lambda i: hydro.fd_jet_at(grid.u, grid.dt, grid.h, m, i), np.arange(grid.nx))
    _compare(lambda j, s: residuals.transport(j, [s], TransportPattern(0, (1,))), jet, -grid.v[m])
