"""Solution constructors: closed forms, implicit jets, covariance, round trips."""

import math

import numpy as np
import pytest

from batlab import construct, jets, residuals
from batlab.construct import (
    HodographSolver,
    ImplicitSolveConfig,
    LinearMap2,
    born_infeld_cross_residual,
    born_infeld_jet,
    holo_sum,
    implicit_3d,
    moebius_transform,
    pull_back,
    reparametrization,
    solve_implicit_fg,
)
from batlab.errors import (
    DegenerateRootError,
    EvaluationError,
    JetDomainError,
    NewtonConvergenceError,
    PoleError,
    SingularMatrixError,
)
from batlab.exprspec import parse

import oracles

CFG = ImplicitSolveConfig(seed=0.5)


# -- implicit F = G ------------------------------------------------------------------


def test_implicit_fg_linear_closed_form():
    # F = phi - x1 x2, G = xb1 + xb2  =>  phi = x1 x2 + xb1 + xb2.
    h = solve_implicit_fg(parse("phi - x1*x2"), parse("xb1 + xb2"), CFG)
    j = h([1.0, 2.0, 3.0, 4.0])
    assert j.value == pytest.approx(9.0, abs=1e-12)
    assert j.grad[0] == pytest.approx(2.0, abs=1e-12)  # phi_x1 = x2
    assert j.grad[1] == pytest.approx(1.0, abs=1e-12)
    assert j.grad[2] == pytest.approx(1.0, abs=1e-12)
    assert j.hess[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert j.hess[2, 3] == pytest.approx(0.0, abs=1e-12)


def test_implicit_fg_degenerate_root():
    h = solve_implicit_fg(parse("phi"), parse("phi - xb1"), CFG)
    # W = xb1: no phi dependence anywhere; Newton cannot move, and the
    # derivative check must flag the degenerate root.
    with pytest.raises((DegenerateRootError, NewtonConvergenceError)):
        h([0.5, 0.5, 0.0, 0.2])


def _outcome(fn, *args):
    """The bits of ``fn(*args)``, or the class and message of the
    EvaluationError it raises."""
    try:
        return np.asarray(fn(*args), dtype=float).tobytes()
    except EvaluationError as err:
        return type(err), str(err)


def _batch_outcomes(errors, roots) -> list:
    """Per point of a batch solve, its root's bits or its error's class and
    message, as :func:`_outcome` gives them for its one-point solve."""
    roots = iter(roots)
    return [np.asarray(next(roots), dtype=float).tobytes() if err is None
            else (type(err), str(err)) for err in errors]


# W = phi^3 - xb1 phi + x2 - xb2, and a log that fails where phi <= -x1.
_MIXED_F, _MIXED_G = parse("phi^3 + 0*log(phi + x1) + x2"), parse("xb1*phi + xb2")
_MIXED = [  # (x1, x2, xb1, xb2), seed
    ((5.0, 2.0, 2.0, 0.0), 0.0),  # W = phi^3 - 2 phi + 2 cycles between 0 and 1
    ((5.0, 2.0, 2.0, 0.0), -2.0),  # converges
    ((-2.0, 2.0, 2.0, 0.0), 3.0),  # reaches phi <= 2: a domain error mid-iteration
    ((5.0, 1.0, 0.0, 0.0), 0.0),  # W = phi^3 + 1: dW/dphi = 0 at the seed
    ((5.0, 2.0, 2.0, 0.0), 1e12),  # needs more than max_iter steps
    ((5.0, 2.0, 0.5, 1.0), 0.7),  # converges
]


@pytest.mark.parametrize("bracket,root", [
    ((-3.0, 0.0), -1.769292354238587),
    ((0.0, 3.0), None),  # the bracket does not straddle the root
    (None, None),
])
def test_bisection_fallback_when_newton_cycles(bracket, root):
    # From phi = 0, Newton on phi^3 - 2 phi + 2 cycles between 0 and 1.
    cfg = ImplicitSolveConfig(seed=0.0, bracket=bracket)
    h = solve_implicit_fg(parse("phi^3 - 2*phi + 2"), parse("0"), cfg)
    if root is None:
        with pytest.raises(NewtonConvergenceError):
            h([0.0, 0.0, 0.0, 0.0])
    else:
        assert h([0.0, 0.0, 0.0, 0.0]).value == root
    # In a batch, each point ends in the root or error of its one-point solve:
    # the points Newton does not solve bisect where the bracket allows.
    mixed = solve_implicit_fg(_MIXED_F, _MIXED_G, cfg)
    points, seeds = np.array([p for p, _ in _MIXED]), [s for _, s in _MIXED]
    batch = _batch_outcomes(*mixed.solve_many(points, seeds))
    assert batch == [_outcome(mixed.solve, p, s) for p, s in zip(points, seeds)]
    kinds = [out[0] if isinstance(out, tuple) else float for out in batch]
    if bracket == (-3.0, 0.0):
        assert kinds == [float, float, JetDomainError, float, float, float]
    else:
        assert kinds == [NewtonConvergenceError, float, JetDomainError,
                         NewtonConvergenceError, NewtonConvergenceError, float]


def _cycle(sizes):
    """A residual/step pair whose iterates cycle through ``sizes``' keys, in
    order, with those residual sizes; keys are (magnitude, sign) so that -0.0
    and 0.0 can be different iterates.  ``evaluated`` records each residual
    call."""
    keys = list(sizes)
    evaluated = []

    def key(x):
        return (abs(x), math.copysign(1.0, x))

    def residual(x):
        evaluated.append(x)
        return sizes[key(x)]

    def step(x):
        return math.copysign(*keys[(keys.index(key(x)) + 1) % len(keys)])
    return residual, step, evaluated


def _uncapped(residual, step):
    """The same iteration with a step counter in each iterate, so that no
    iterate repeats and ``_newton`` runs to ``max_iter``."""
    return (lambda xi: residual(xi[0]), lambda xi: (step(xi[0]), xi[1] + 1))


def _batched(*points):
    """The batched residual/step pair of per-point ``(residual, step)`` pairs
    on one float or tuple iterate: the row of point k iterates by
    ``points[k]``.  Either raises for the batch where it raises at a row."""
    def residual(idx, x):
        return np.array([points[k][0](_iterate(v)) for k, v in zip(idx.tolist(), x.tolist())]), x

    def step(idx, x, r):
        nxt = np.array([points[k][1](_iterate(v)) for k, v in zip(idx.tolist(), x.tolist())])
        return nxt, np.zeros(len(idx), dtype=bool)
    return residual, step


def _iterate(row):
    return tuple(row) if isinstance(row, list) else row


def _newton_one(pair, x0, tol):
    """``_newton`` of one point, as its one-row batch."""
    errors, best = construct._newton(*_batched(pair), np.array([x0]), 50, tol)
    if errors[0] is not None:
        raise errors[0]
    return _iterate(best[0].tolist())


@pytest.mark.parametrize("sizes,best", [
    ({(1.0, 1.0): 0.5, (2.0, 1.0): 0.25}, 2.0),
    ({(1.0, 1.0): 3.0, (0.0, -1.0): 1.0, (0.0, 1.0): 2.0}, -0.0),
])
def test_newton_stops_at_its_first_repeated_iterate(sizes, best):
    residual, step, evaluated = _cycle(sizes)
    x0 = math.copysign(*next(iter(sizes)))
    found = _newton_one((residual, step), x0, tol=1.0)
    assert math.copysign(1.0, found) == math.copysign(1.0, best) and found == best
    assert len(evaluated) == len(sizes)
    uncapped, steps = _newton_one(_uncapped(residual, step), (x0, 0), tol=1.0)
    assert len(evaluated) == len(sizes) + 51 and steps < len(sizes)
    assert math.copysign(1.0, uncapped) == math.copysign(1.0, found) and uncapped == found
    # Not converged: the same error as the uncapped run.
    with pytest.raises(NewtonConvergenceError) as capped_err:
        _newton_one((residual, step), x0, tol=0.1)
    with pytest.raises(NewtonConvergenceError) as uncapped_err:
        _newton_one(_uncapped(residual, step), (x0, 0), tol=0.1)
    assert str(capped_err.value) == str(uncapped_err.value)

    # In a batch with points that converge, run to max_iter, stop at a
    # singular step or fail mid-iteration, each point ends as its one-point
    # solve does, and the cycle still stops at its first repeated iterate.
    def halving(x):
        return x / 2

    def singular_at_half(x):
        if x == 0.5:
            raise SingularMatrixError("singular")
        return x / 2

    def fails_at_half(x):
        if x == 0.5:
            raise JetDomainError("log", x)
        return x

    pairs = [(residual, step), (abs, halving), (lambda x: 1.0, lambda x: x + 1.0),
             (abs, singular_at_half), (fails_at_half, halving), (residual, step)]
    seeds = [x0, 4.0, 0.0, 4.0, 4.0, x0]
    for tol in (1.0, 0.6, 0.1):
        solved = construct._solved(*construct._newton(*_batched(*pairs), np.array(seeds), 50, tol))
        assert _batch_outcomes(*solved) == [
            _outcome(_newton_one, p, s, tol) for p, s in zip(pairs, seeds)]
    evaluated.clear()
    construct._newton(*_batched(*(pairs[:3] + pairs[5:])), np.array(seeds[:3] + seeds[5:]),
                      50, 1.0)
    assert len(evaluated) == 2 * len(sizes)


def test_cycling_scalar_newton_still_bisects(monkeypatch):
    # From 0, Newton on x^3 - 2x + 2 cycles between 0 and 1.
    evaluated, bisected = [], []
    bisect = construct._bisect

    def fun(idx, x):
        evaluated.extend(np.atleast_1d(x).tolist())
        return x**3 - 2 * x + 2

    def counting_bisect(*args):
        bisected.append(len(evaluated))
        return bisect(*args)

    monkeypatch.setattr(construct, "_bisect", counting_bisect)
    cfg = ImplicitSolveConfig(seed=0.0, bracket=(-3.0, 0.0))
    errors, roots = construct._newton_scalar(fun, lambda idx, x: 3 * x**2 - 2, cfg,
                                             np.array([0.0]))
    assert bisected == [2] and evaluated[:2] == [0.0, 1.0]
    assert errors == [None] and roots.tolist() == [-1.769292354238587]


def test_implicit_fg_residual_at_regular_points():
    pairs = [
        ("phi - x1*x2", "xb1 + xb2"),
        ("phi^3 + phi - x1 - 2*x2", "xb1*xb2"),
        ("phi + 0.2*exp(phi) - x1^2 - x2", "sin(xb1) + xb2"),
    ]
    rng = np.random.default_rng(42)
    for ftxt, gtxt in pairs:
        h = solve_implicit_fg(parse(ftxt), parse(gtxt), ImplicitSolveConfig(seed=0.0))
        worst = 0.0
        count = 0
        for _ in range(100):
            p = rng.uniform(-1.0, 1.0, size=4)
            try:
                j = h(p)
            except EvaluationError:
                continue
            count += 1
            worst = max(worst, residuals.complex_bateman(j).normalized)
        assert count >= 80
        assert worst <= 1e-9


def test_implicit_fg_jets_match_finite_differences():
    h = solve_implicit_fg(parse("phi^3 + phi - x1 - 2*x2"), parse("xb1*xb2"),
                          ImplicitSolveConfig(seed=0.0))
    p0 = np.array([0.4, -0.3, 0.8, 0.6])
    j0 = h(p0)

    def value(p):
        return h(p).value

    errs = []
    for hstep in (1e-3, 5e-4):
        g = np.zeros(4)
        hs = np.zeros((4, 4))
        f0 = value(p0)
        for i in range(4):
            pp, pm = p0.copy(), p0.copy()
            pp[i] += hstep
            pm[i] -= hstep
            g[i] = (value(pp) - value(pm)) / (2 * hstep)
            hs[i, i] = (value(pp) - 2 * f0 + value(pm)) / hstep**2
        for i in range(4):
            for k in range(i + 1, 4):
                pa, pb, pc, pd = (p0.copy() for _ in range(4))
                pa[[i, k]] += hstep
                pd[[i, k]] -= hstep
                pb[i] += hstep
                pb[k] -= hstep
                pc[i] -= hstep
                pc[k] += hstep
                hs[i, k] = hs[k, i] = (value(pa) - value(pb) - value(pc) + value(pd)) / (
                    4 * hstep**2)
        errs.append(max(np.abs(g - j0.grad).max(), np.abs(hs - j0.hess).max()))
    assert errs[0] / max(errs[1], 1e-300) >= 3.5


# -- holomorphic/antiholomorphic sum ----------------------------------------------------


def test_holo_sum_mixed_hessian_exactly_zero():
    h = holo_sum(parse("x1"), parse("xb1"))
    j = h([0.3, 0.7, -0.2, 0.9])
    assert j.hess[0, 2] == 0.0
    assert residuals.complex_bateman(j).raw == 0.0


def test_holo_sum_residual_tiny():
    h = holo_sum(parse("x1*x2"), parse("exp(xb1) + xb2^2"))
    rng = np.random.default_rng(0)
    for _ in range(20):
        j = h(rng.uniform(-1, 1, size=4))
        assert residuals.complex_bateman(j).normalized <= 1e-12


def test_holo_sum_zero_fields():
    h = holo_sum(parse("0"), parse("0"))
    j = h([1.0, 2.0, 3.0, 4.0])
    assert j.value == 0.0
    assert residuals.complex_bateman(j).raw == 0.0


# -- hodograph ---------------------------------------------------------------------------


def _fields(solver, t, x, seed=None):
    """(phi, phibar) at (t, x), solved from ``seed``."""
    return solver.fields(*solver.solve(t, x, seed))


def test_hodograph_forward_map_hand_case():
    # f = u^2, g = v^2: t = 2u + 2v, x = -u^2 - v^2; (u,v) = (1,2) -> (6,-5).
    t, x = HodographSolver(parse("u^2"), parse("v^2"), ImplicitSolveConfig()).forward(1.0, 2.0)
    assert t == pytest.approx(6.0)
    assert x == pytest.approx(-5.0)


def test_hodograph_inversion_recovers_parameters():
    cfg = ImplicitSolveConfig(seed=(1.1, 1.9))
    jv, ju = _fields(HodographSolver(parse("u^2"), parse("v^2"), cfg), 6.0, -5.0)
    assert ju.value == pytest.approx(1.0, abs=1e-10)
    assert jv.value == pytest.approx(2.0, abs=1e-10)


def test_hodograph_roundtrip():
    f, g = parse("u^3"), parse("v^2")
    cfg = ImplicitSolveConfig(seed=(1.5, 3.5))
    solver = HodographSolver(f, g, cfg)
    rng = np.random.default_rng(1)
    for _ in range(20):
        u0 = rng.uniform(1.0, 2.0)
        v0 = rng.uniform(3.0, 4.0)
        t, x = solver.forward(u0, v0)
        phi, phibar = _fields(solver, t, x, seed=(u0 + 0.05, v0 - 0.05))
        u1 = phibar.value
        v1 = phi.value
        t2, x2 = solver.forward(u1, v1)
        assert abs(t2 - t) <= 1e-10 * max(1, abs(t))
        assert abs(x2 - x) <= 1e-10 * max(1, abs(x))


def test_hodograph_identities():
    rng = np.random.default_rng(2)
    for ftxt, gtxt in [("u^2", "v^2"), ("exp(u)", "v^3"), ("log(u)", "v^2")]:
        solver = HodographSolver(parse(ftxt), parse(gtxt), ImplicitSolveConfig())
        for _ in range(10):
            u = rng.uniform(0.5, 1.5)
            v = rng.uniform(2.0, 3.0)
            r1, r2 = solver.identity_residuals(u, v)
            assert r1.normalized <= 1e-12
            assert r2.normalized <= 1e-12


def test_hodograph_pair_solves_two_field_equation():
    cfg = ImplicitSolveConfig(seed=(1.5, 3.5))
    f, g = parse("u^2"), parse("v^2")
    solver = HodographSolver(f, g, cfg)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(40):
        u0 = rng.uniform(1.0, 2.0)
        v0 = rng.uniform(3.0, 4.0)
        t, x = solver.forward(u0, v0)
        jp, jb = _fields(solver, t, x, seed=(u0, v0))
        worst = max(worst, residuals.two_field_bateman(jp, jb).normalized)
        worst = max(worst, residuals.two_field_bateman(jp, jb, conjugate=True).normalized)
    assert worst <= 1e-9


def test_hodograph_fold_raises():
    # u = v is a fold of the parametric map.
    cfg = ImplicitSolveConfig(seed=(2.0, 2.0), max_iter=5)
    solver = HodographSolver(parse("u^2"), parse("v^2"), cfg)
    with pytest.raises((SingularMatrixError, NewtonConvergenceError)):
        _fields(solver, 8.0, -8.0)


def test_hodograph_jets_match_finite_differences():
    cfg = ImplicitSolveConfig(seed=(1.5, 3.5))
    f, g = parse("u^3"), parse("exp(v)")
    solver = HodographSolver(f, g, cfg)
    u0, v0 = 1.4, 3.2
    t0, x0 = solver.forward(u0, v0)
    p0 = np.array([t0, x0])
    for which in (0, 1):  # phi, phibar
        j0 = _fields(solver, *p0, seed=(u0, v0))[which]

        def value(p):
            return _fields(solver, *p, seed=(u0, v0))[which].value

        errs = []
        for hstep in (4e-3, 2e-3):
            gv = np.zeros(2)
            hv = np.zeros((2, 2))
            f0 = value(p0)
            for i in range(2):
                pp, pm = p0.copy(), p0.copy()
                pp[i] += hstep
                pm[i] -= hstep
                gv[i] = (value(pp) - value(pm)) / (2 * hstep)
                hv[i, i] = (value(pp) - 2 * f0 + value(pm)) / hstep**2
            pa, pb, pc, pd = (p0.copy() for _ in range(4))
            pa += hstep
            pd -= hstep
            pb[0] += hstep
            pb[1] -= hstep
            pc[0] -= hstep
            pc[1] += hstep
            hv[0, 1] = hv[1, 0] = (value(pa) - value(pb) - value(pc) + value(pd)) / (
                4 * hstep**2)
            errs.append(max(np.abs(gv - j0.grad).max(), np.abs(hv - j0.hess).max()))
        assert errs[0] / max(errs[1], 1e-300) >= 3.5


# -- Moebius and linear covariance --------------------------------------------------------


def test_moebius_identity():
    assert moebius_transform((0.7, -1.2), LinearMap2(1, 0, 0, 1)) == (0.7, -1.2)


def test_moebius_translation_case():
    # a=1, b=0, c=1, d=1: u' = u - 1.
    u, v = moebius_transform((0.7, -1.2), LinearMap2(1, 0, 1, 1))
    assert u == pytest.approx(-0.3)
    assert v == pytest.approx(-2.2)


def test_moebius_pole():
    with pytest.raises(PoleError):
        moebius_transform((0.0, 1.0), LinearMap2(0, 1, 1, 1))


def test_transform_identity_bitwise():
    cfg = ImplicitSolveConfig(seed=(1.5, 3.5))
    solver = HodographSolver(parse("u^2"), parse("v^2"), cfg)
    minv = LinearMap2(1, 0, 0, 1).inverse()
    p = np.array([10.0, -14.5])
    a = _fields(solver, *p)[0]
    b = pull_back(_fields(solver, *(minv @ p))[0], minv)
    assert a.value == b.value
    assert np.array_equal(a.grad, b.grad)


def test_transform_requires_invertible():
    with pytest.raises(ValueError):
        LinearMap2(1.0, 2.0, 2.0, 4.0).inverse()


def test_transformed_solution_still_solves_and_speeds_follow_moebius():
    f, g = parse("u^2"), parse("v^2")
    cfg = ImplicitSolveConfig(seed=(1.5, 3.5))
    solver = HodographSolver(f, g, cfg)
    rng = np.random.default_rng(5)
    maps = []
    while len(maps) < 5:
        a, b, c, d = rng.uniform(-2, 2, size=4)
        if abs(a * d - b * c) >= 0.3:
            maps.append(LinearMap2(a, b, c, d))
    for m in maps:
        minv = m.inverse()
        for _ in range(10):
            u0 = rng.uniform(1.0, 2.0)
            v0 = rng.uniform(3.0, 4.0)
            t, x = solver.forward(u0, v0)
            q = m.matrix() @ np.array([t, x])
            jp, jb = (pull_back(j, minv) for j in _fields(solver, *(minv @ q), seed=(u0, v0)))
            assert residuals.two_field_bateman(jp, jb).normalized <= 1e-9
            # Speeds transform by the Moebius rule.
            _, u_speed = _fields(solver, t, x, seed=(u0, v0))
            u_orig = u_speed.grad[0] / u_speed.grad[1]
            try:
                expected_u, _ = moebius_transform((u_orig, u_orig), m)
            except PoleError:
                continue
            u_new = jb.grad[0] / jb.grad[1]
            assert u_new == pytest.approx(expected_u, rel=1e-8)


def test_two_field_covariance_with_distinct_maps():
    """Composing phi and phibar with *different* monotone maps preserves the
    two-field solution set."""
    f, g = parse("u^2"), parse("v^2")
    cfg = ImplicitSolveConfig(seed=(1.5, 3.5))
    solver = HodographSolver(f, g, cfg)
    cphi = reparametrization(parse("s^3 + s"))
    cbar = reparametrization(parse("exp(0.4*s)"))
    rng = np.random.default_rng(11)
    for _ in range(20):
        u0 = rng.uniform(1.0, 2.0)
        v0 = rng.uniform(3.0, 4.0)
        t, x = solver.forward(u0, v0)
        phi, phibar = _fields(solver, t, x, seed=(u0, v0))
        jp = cphi(phi)
        jb = cbar(phibar)
        assert residuals.two_field_bateman(jp, jb).normalized <= 1e-9
        assert residuals.two_field_bateman(jp, jb, conjugate=True).normalized <= 1e-9


def test_handle_evaluation_deterministic():
    h = solve_implicit_fg(parse("phi^3 + phi - x1 - 2*x2"), parse("xb1*xb2"),
                          ImplicitSolveConfig(seed=0.0))
    p = [0.3, -0.2, 0.5, 0.7]
    a = h(p)
    b = h(p)
    assert a.value == b.value
    assert np.array_equal(a.grad, b.grad)
    assert np.array_equal(a.hess, b.hess)


def test_reparametrized_solution_remains_solution():
    h = solve_implicit_fg(parse("phi^3 + phi - x1 - 2*x2"), parse("xb1*xb2"),
                          ImplicitSolveConfig(seed=0.0))
    rng = np.random.default_rng(6)
    for htxt in ["s^3 + s", "exp(s)", "1 - 2/(exp(2*s) + 1)"]:
        comp = reparametrization(parse(htxt))
        for _ in range(15):
            p = rng.uniform(-1, 1, size=4)
            try:
                j = comp(h(p))
            except EvaluationError:
                continue
            assert residuals.complex_bateman(j).normalized <= 1e-9


# -- Born-Infeld ---------------------------------------------------------------------------


def _born_infeld_at(u_val, v_val, lam):
    """(phi_t, phi_x) for constant (u, v)."""
    return born_infeld_jet(jets.constant(u_val, 2), jets.constant(v_val, 2), lam).grad


def test_born_infeld_pointwise():
    pt, px = _born_infeld_at(4.0, 1.0, 1.0)
    assert px == pytest.approx(1.0)
    assert pt == pytest.approx(2.0)


def test_born_infeld_coincident_roots():
    with pytest.raises(EvaluationError):
        _born_infeld_at(2.0, 2.0, 1.0)
    with pytest.raises(EvaluationError):
        _born_infeld_at(-1.0, 2.0, 1.0)


def test_born_infeld_from_hodograph_solves_equation():
    f, g = parse("u^2"), parse("v^2")
    cfg = ImplicitSolveConfig(seed=(1.5, 3.5))
    solver = HodographSolver(f, g, cfg)
    lam = 1.3
    # u = phibar, v = phi solve the hydrodynamic pair; both stay positive on the box.
    rng = np.random.default_rng(7)
    for _ in range(25):
        u0 = rng.uniform(1.0, 2.0)
        v0 = rng.uniform(3.0, 4.0)
        t, x = solver.forward(u0, v0)
        phi, phibar = _fields(solver, t, x, seed=(u0, v0))
        j = born_infeld_jet(phibar, phi, lam)
        assert residuals.born_infeld(j, lam).normalized <= 1e-9
        phi, phibar = _fields(solver, t, x)
        cross = born_infeld_cross_residual(phibar, phi, lam)
        assert cross.normalized <= 1e-9


# -- implicit 3d --------------------------------------------------------------------------


def test_implicit_3d_no_phi_dependence_is_degenerate():
    h = implicit_3d(parse("1"), parse("0"), parse("0"), 0.7,
                    ImplicitSolveConfig(seed=0.0))
    with pytest.raises((DegenerateRootError, NewtonConvergenceError)):
        h([0.7, 0.1, 0.2])


def test_implicit_3d_closed_form():
    # t phi + x = 0  =>  phi = -x/t.
    h = implicit_3d(parse("phi"), parse("1"), parse("0"), 0.0,
                    ImplicitSolveConfig(seed=0.0))
    rng = np.random.default_rng(8)
    for _ in range(25):
        t = rng.uniform(0.5, 1.5)
        x = rng.uniform(-1, 1)
        y = rng.uniform(-1, 1)
        j = h([t, x, y])
        assert j.value == pytest.approx(-x / t, abs=1e-11)
        assert residuals.euclidean_3d(j).normalized <= 1e-9


def test_implicit_3d_newton_converges_to_constraint():
    h = implicit_3d(parse("1"), parse("phi"), parse("phi^2"), 1.0,
                    ImplicitSolveConfig(seed=1.0))
    j = h([0.2, 0.3, 0.1])
    phi = j.value
    assert abs(0.2 + 0.3 * phi + 0.1 * phi**2 - 1.0) <= 1e-12


def test_implicit_3d_first_order_system():
    h = implicit_3d(parse("1"), parse("phi"), parse("phi^2"), 1.0,
                    ImplicitSolveConfig(seed=1.0))
    rng = np.random.default_rng(9)
    for _ in range(25):
        p = [rng.uniform(0.1, 0.4), rng.uniform(0.8, 1.2), rng.uniform(0.05, 0.2)]
        j = h(p)
        r1, r2 = residuals.euclidean_first_order(j)
        assert r1.normalized <= 1e-8
        assert r2.normalized <= 1e-8


def test_implicit_3d_jets_match_finite_differences():
    h = implicit_3d(parse("1"), parse("phi"), parse("phi^2"), 1.0,
                    ImplicitSolveConfig(seed=1.0))
    p0 = np.array([0.25, 1.0, 0.12])
    j0 = h(p0)

    def value(p):
        return h(p).value

    errs = []
    for step in (2e-3, 1e-3):
        g = np.zeros(3)
        hs = np.zeros((3, 3))
        f0 = value(p0)
        for i in range(3):
            pp, pm = p0.copy(), p0.copy()
            pp[i] += step
            pm[i] -= step
            g[i] = (value(pp) - value(pm)) / (2 * step)
            hs[i, i] = (value(pp) - 2 * f0 + value(pm)) / step**2
        for i in range(3):
            for k in range(i + 1, 3):
                pa, pb, pc, pd = (p0.copy() for _ in range(4))
                pa[[i, k]] += step
                pd[[i, k]] -= step
                pb[i] += step
                pb[k] -= step
                pc[i] -= step
                pc[k] += step
                hs[i, k] = hs[k, i] = (value(pa) - value(pb) - value(pc)
                                       + value(pd)) / (4 * step**2)
        errs.append(max(np.abs(g - j0.grad).max(), np.abs(hs - j0.hess).max()))
    assert errs[0] / max(errs[1], 1e-300) >= 3.5


def test_implicit_3d_reparametrization_covariance():
    h = implicit_3d(parse("phi^3 + phi"), parse("2"), parse("phi"), 2.0,
                    ImplicitSolveConfig(seed=0.8))
    comp = reparametrization(parse("s^3 + s"))
    rng = np.random.default_rng(10)
    for _ in range(15):
        p = [rng.uniform(0.5, 1.0), rng.uniform(-0.5, 0.5), rng.uniform(0.2, 0.6)]
        base = h(p)
        assert residuals.euclidean_3d(base).normalized <= 1e-9
        assert residuals.euclidean_3d(comp(base)).normalized <= 1e-9


# -- grid sampling -------------------------------------------------------------------------


def test_hodograph_grid_repeats_the_node_by_node_march():
    """The column-batched grid holds the bits of the row-major march of
    ``tests/oracles.py`` on c09's three grids."""
    solver = HodographSolver(parse("u^2"), parse("v^2"), ImplicitSolveConfig(seed=(1.5, 3.5)))
    for n in (33, 41, 65):
        t_nodes, x_nodes = np.linspace(9.75, 10.25, n), np.linspace(-14.75, -14.25, n)
        batched = construct.hodograph_grid(solver, t_nodes, x_nodes)
        marched = oracles.hodograph_grid(solver, t_nodes, x_nodes)
        for a, b in zip(batched, marched):
            assert a.tobytes() == b.tobytes()


_C09_WINDOW = ((9.75, 10.25), (-14.75, -14.25), 9)


@pytest.mark.parametrize("f,g,seed,window,where", [
    ("u^2", "v^2", (1.5, 1.5), _C09_WINDOW, (0, 0)),  # the seed sits on the fold u = v
    ("u^2 + 0*log(1.75 - u)", "v^2", (1.5, 3.5), _C09_WINDOW, (8, 5)),
    # u fails from row 7, column 6, and v from row 6, column 7: the row comes first
    ("u^2 + 0*log(1.7 - u)", "v^2 + 0*log(v - 3.4)", (1.5, 3.5), _C09_WINDOW, (6, 7)),
    # no (u, v) where x > -t^2/8, beyond the fold
    ("u^2", "v^2", (1.5, 3.5), ((7.5, 8.5), (-9.0, -8.0), 5), (3, 2)),
])
def test_hodograph_grid_raises_at_its_first_failing_node(f, g, seed, window, where):
    """A grid that fails raises the error of the node where the row-major
    march stops, whichever column it is in."""
    solver = HodographSolver(parse(f), parse(g), ImplicitSolveConfig(seed=seed))
    (t_lo, t_hi), (x_lo, x_hi), n = window
    t_nodes, x_nodes = np.linspace(t_lo, t_hi, n), np.linspace(x_lo, x_hi, n)
    batched = residuals.attempt(construct.hodograph_grid, solver, t_nodes, x_nodes)
    reached = []  # the nodes the march solves, the failing one last

    class Recording(HodographSolver):
        def solve(self, t, x, seed=None):
            reached.append((float(t), float(x)))
            return super().solve(t, x, seed)

    recording = Recording(parse(f), parse(g), solver.cfg)
    marched = residuals.attempt(oracles.hodograph_grid, recording, t_nodes, x_nodes)
    assert isinstance(batched, EvaluationError)
    assert (type(batched), str(batched)) == (type(marched), str(marched))
    assert reached[-1] == (t_nodes[where[0]], x_nodes[where[1]])


def test_hodograph_grid_matches_handles():
    f, g = parse("u^2"), parse("v^2")
    cfg = ImplicitSolveConfig(seed=(1.5, 3.5))
    t_nodes = np.linspace(9.9, 10.1, 4)
    x_nodes = np.linspace(-14.6, -14.4, 5)
    solver = HodographSolver(f, g, cfg)
    phi_vals, phibar_vals = construct.hodograph_grid(solver, t_nodes, x_nodes)
    for i in (0, 3):
        for j in (0, 4):
            phi, phibar = _fields(solver, t_nodes[i], x_nodes[j])
            assert phi_vals[i, j] == pytest.approx(phi.value, abs=1e-9)
            assert phibar_vals[i, j] == pytest.approx(phibar.value, abs=1e-9)
