"""Pointwise, expression and file-format references that the tests compare
batlab against.

Each one is the plain, unvectorized or uncompiled form of something batlab
computes in bulk, from compiled closures, from one general formula or with
fewer steps: the tests assert
that both give the same numbers (or draws) and raise the same errors.
"""

import csv
import itertools
import json
import math
from itertools import repeat
from pathlib import Path
from typing import Mapping

import numpy as np

from batlab import cli, exprspec, hydro, jets
from batlab.errors import CharacteristicCrossingError, EvaluationError, JetDomainError
from batlab.exprspec import Bin, Call, ExprSpec, Neg, Node, Num, Var
from batlab.hydro import MULTI_FIELDS, CharGrid, MultiCharGrid
from batlab.jets import Jet2
from batlab.residuals import ResidualReport, ResidualSample


# -- expression evaluation by walking the tree ---------------------------------------


def _eval_node_jet(node: Node, args: Mapping[str, Jet2 | float]):
    """Evaluate to a Jet2, or a plain float for subtrees over float leaves.

    This one walker serves :func:`eval_jet` and :func:`eval_float`: where every
    leaf is a float it takes only its float branches.
    """
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return args[node.name]
        except KeyError:
            raise ValueError(f"missing variable {node.name!r}") from None
    if isinstance(node, Neg):
        return -_eval_node_jet(node.operand, args)
    if isinstance(node, Call):
        a = _eval_node_jet(node.arg, args)
        if isinstance(a, float):
            return _apply_float(node.func, a)
        return jets.FUNCTIONS[node.func](a)
    if isinstance(node, Bin):
        left = _eval_node_jet(node.left, args)
        if node.op == "^":
            # Literal exponents keep the integer fast path (valid for any
            # base); expression exponents go through exp(e*log(b)).
            if isinstance(node.right, Num):
                if isinstance(left, float):
                    return _float_pow(left, node.right.value)
                return jets.powc(left, node.right.value)
            right = _eval_node_jet(node.right, args)
            if isinstance(right, float) and isinstance(left, float):
                return _float_pow(left, right)
            if isinstance(right, float):
                return jets.powc(left, right)
            if isinstance(left, float):
                if left <= 0.0:
                    raise JetDomainError("pow", left)
                return jets.exp(right * math.log(left))
            return jets.exp(right * jets.log(left))
        right = _eval_node_jet(node.right, args)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if isinstance(right, float) and right == 0.0:
            raise JetDomainError("div", 0.0)
        return left / right
    raise TypeError(f"not an AST node: {node!r}")


def _apply_float(func: str, v: float) -> float:
    if func == "exp":
        if v >= 709.0:
            raise JetDomainError("exp", v)
        return math.exp(v)
    if func == "log":
        if v <= 0.0:
            raise JetDomainError("log", v)
        return math.log(v)
    if func == "sin":
        return math.sin(v)
    if func == "cos":
        return math.cos(v)
    if func == "sqrt":
        if v <= 0.0:
            raise JetDomainError("sqrt", v)
        return math.sqrt(v)
    raise ValueError(f"unknown function {func!r}")


def _float_pow(base: float, expo: float) -> float:
    if isinstance(expo, float) and expo.is_integer():
        expo = int(expo)
    if isinstance(expo, int):
        if base == 0.0 and expo < 0:
            raise JetDomainError("pow", 0.0)
    elif base <= 0.0:
        raise JetDomainError("pow", base)
    try:
        return float(base**expo)
    except OverflowError:
        raise JetDomainError("pow", base) from None


def eval_jet(spec: ExprSpec, args: Mapping[str, Jet2], k: int | None = None) -> Jet2:
    """``exprspec.eval_jet`` by walking the tree."""
    arity = k
    for name in spec.vars:
        if name not in args:
            raise ValueError(f"missing variable {name!r}")
        ka = args[name].k
        if arity is None:
            arity = ka
        elif ka != arity:
            raise ValueError(f"arity mismatch: {name!r} has k={ka}, expected {arity}")
    result = _eval_node_jet(spec.ast, args)
    if isinstance(result, float):
        if arity is None:
            raise ValueError("constant expression: pass k to fix the jet arity")
        result = jets.constant(result, arity)
    jets._require_finite("eval", result.value, result.grad, result.hess)
    return result


def eval_float(spec: ExprSpec, args: Mapping[str, float]) -> float:
    """``exprspec.eval_float`` by walking the tree."""
    floats = {name: float(args[name]) for name in spec.vars if name in args}
    out = _eval_node_jet(spec.ast, floats)
    if not math.isfinite(out):
        raise JetDomainError("eval", out)
    return out


# -- the ad scenario's random expressions and finite-difference probe --------------------


def random_expression(rng: np.random.Generator, names: list[str], depth: int):
    """``cli._random_expression`` as text, drawing each item with
    ``rng.choice``: the same draws, and ``exprspec.parse`` of the text is the
    tree that it draws."""
    if depth == 0 or rng.uniform() < 0.3:
        if rng.uniform() < 0.6:
            return rng.choice(names)
        return f"{rng.uniform(0.2, 2.0):.3f}"
    kind = rng.choice(["add", "sub", "mul", "div", "func", "pow"])
    a = random_expression(rng, names, depth - 1)
    b = random_expression(rng, names, depth - 1)
    if kind == "add":
        return f"({a} + {b})"
    if kind == "sub":
        return f"({a} - {b})"
    if kind == "mul":
        return f"({a} * {b})"
    if kind == "div":
        return f"({a} / (2.5 + sin({b})))"
    if kind == "pow":
        return f"({a})^{int(rng.integers(2, 4))}"
    fn = rng.choice(["exp", "log", "sin", "cos", "sqrt"])
    if fn == "exp":
        return f"exp(0.3*({a}))"
    if fn in ("log", "sqrt"):
        return f"{fn}(3.5 + sin({a}))"
    return f"{fn}({a})"


def fd_probe(spec, names, point, h):
    """The ad case's probe at the one step ``h``, with every stencil point a
    numpy copy of ``point``, evaluated by name, f(x ± h e_i) twice."""
    def value(p):
        return exprspec.eval_float(spec, dict(zip(names, p)))

    k = len(point)
    grad = np.zeros(k)
    hess = np.zeros((k, k))
    f0 = value(point)
    for i in range(k):
        pp, pm = point.copy(), point.copy()
        pp[i] += h
        pm[i] -= h
        grad[i] = (value(pp) - value(pm)) / (2 * h)
        hess[i, i] = (value(pp) - 2 * f0 + value(pm)) / h**2
    for i in range(k):
        for j in range(i + 1, k):
            pa, pb, pc, pd = (point.copy() for _ in range(4))
            pa[[i, j]] += h
            pd[[i, j]] -= h
            pb[i] += h
            pb[j] -= h
            pc[i] -= h
            pc[j] += h
            hess[i, j] = hess[j, i] = (value(pa) - value(pb) - value(pc)
                                       + value(pd)) / (4 * h * h)
    return grad, hess


# The 18 stencil points of ``positional_fd_probe``, as offsets in units of the
# step: x ± e_i for each i, then the corners ++, +-, -+ and -- of each pair
# i < j, a coordinate left in place offset by -0.0.
_STENCIL = np.array([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
                     (1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0),
                     (1, 0, 1), (1, 0, -1), (-1, 0, 1), (-1, 0, -1),
                     (0, 1, 1), (0, 1, -1), (0, -1, 1), (0, -1, -1)], dtype=float)
_STENCIL[_STENCIL == 0.0] = -0.0


def positional_fd_probe(spec, names, point, steps):
    """The probe of one ad expression: its central-difference gradient and
    Hessian, one ``(grad, hess)`` pair of lists per step in ``steps``, from one
    ``at_points`` call over the centre and every step's stencil, in float
    arithmetic per entry."""
    offsets = (_STENCIL * np.array(steps)[:, None, None]).reshape(-1, 3)
    stencil = np.concatenate((point[None], point + offsets))
    values = exprspec.at_points(exprspec.float_fn(spec, names), *stencil.T).tolist()
    f0 = values[0]
    probes = []
    for n, h in enumerate(steps):
        fs = values[1 + 18 * n:19 + 18 * n]
        grad = [(fs[2 * i] - fs[2 * i + 1]) / (2 * h) for i in range(3)]
        hess = [[0.0] * 3 for _ in range(3)]
        for i in range(3):
            hess[i][i] = (fs[2 * i] - 2 * f0 + fs[2 * i + 1]) / h**2
        for c, (i, j) in zip((6, 10, 14), ((0, 1), (0, 2), (1, 2))):
            hess[i][j] = hess[j][i] = (fs[c] - fs[c + 1] - fs[c + 2] + fs[c + 3]) / (4 * h * h)
        probes.append((grad, hess))
    return probes


def run_ad_case(case: dict, rng: np.random.Generator) -> list[dict]:
    """``cli._run_ad_case`` one expression at a time: each expression drawn as
    text and parsed, its probe, errors, scale and verdict in float arithmetic,
    its 0/1 defect kept in a list that numpy reduces at the end."""
    case = cli._read(case, "ad case")
    count, steps, min_ratio = case["expressions"], case["steps"], case["min_ratio"]
    names = ["a", "b", "c"]
    defects = []
    produced = 0
    attempts = 0
    while produced < count and attempts < 20 * count:
        attempts += 1
        text = random_expression(rng, names, depth=int(rng.integers(1, 4)))
        point = rng.uniform(0.4, 1.6, size=3)
        try:
            spec = exprspec.parse(text)
            args = {n: jets.variable(i, point[i], 3) for i, n in enumerate(names)}
            jet = exprspec.eval_jet(spec, args, k=3)
            probes = positional_fd_probe(spec, names, point, steps)
        except EvaluationError:
            continue
        produced += 1
        exact = jet.grad.tolist() + jet.hess.ravel().tolist()
        errs = [max(abs(a - b) for a, b in zip(grad + [v for row in hess for v in row], exact))
                for grad, hess in probes]
        scale = max(1.0, abs(jet.value), *map(abs, exact))
        noise_floor = max(1e-8 * scale, 1e3 * 2.3e-16 * scale / steps[0] ** 2)
        ok = errs[0] / max(errs[1], 1e-300) >= min_ratio or errs[0] <= noise_floor
        defects.append(0.0 if ok else 1.0)
    if produced < count:
        raise cli.ScenarioError("could not generate enough admissible expressions")
    arr = np.asarray(defects)
    rep = ResidualReport(produced, float(arr.max()),
                         float(np.sqrt(np.mean(arr**2))), 0)
    return [cli._entry("ad_convergence", rep, 0.5, count)]


def node_values(spec: ExprSpec, coords: Mapping[str, np.ndarray]) -> np.ndarray:
    """``spec`` at each node of the coordinate grids ``coords`` (name to
    array, all of one shape), by name, one node at a time in row-major order,
    as ``hydro``'s initial grids were built: the first failing node raises."""
    names = list(coords)
    columns = [coords[n].ravel().tolist() for n in names]
    values = [exprspec.eval_float(spec, dict(zip(names, p))) for p in zip(*columns)]
    return np.array(values).reshape(coords[names[0]].shape)


def roundtrip(c) -> tuple[float, int]:
    """``cli._roundtrip`` of a solved hodograph case point by point: the worst
    normalized (t, x) mismatch and the skip count, a point skipped where its
    forward map raises an EvaluationError."""
    worst, skipped = 0.0, c.skipped
    solved = [tx for tx, err in zip(c.tx, c.errors) if err is None]
    uv = zip(c.batch[1].value.tolist(), c.batch[0].value.tolist()) if c.batch else ()
    for (t, x), (u, v) in zip(solved, uv):
        try:
            t2, x2 = c.model.forward(u, v)
        except EvaluationError:
            skipped += 1
            continue
        scale = max(1.0, abs(t), abs(x))
        worst = max(worst, abs(t2 - t) / scale, abs(x2 - x) / scale)
    return worst, skipped


# -- batched jets against one Jet2 per point -------------------------------------------


def density_jet(factor: ExprSpec, slots) -> tuple[Jet2, float]:
    """The discrete density at one node from one arity-6 ``Jet2`` per slot
    (``varlag.DiscreteFunctional._density_jet`` on a grid row)."""
    names = ("phi_t", "phi_x", "phibar_t", "phibar_x", "psi_t", "psi_x")
    sv = {name: jets.variable(i, slots[i], 6) for i, name in enumerate(names)}
    bracket = sv["phibar_t"] * sv["psi_x"] - sv["psi_t"] * sv["phibar_x"]
    hj = exprspec.eval_jet(factor, {"p": sv["phi_t"], "q": sv["phi_x"]}, k=6)
    return bracket * hj, hj.value


def degree0_points():
    """The random (p, q) that ``degree0_test`` probes, in order: 50 pairs
    drawn one number at a time from ``default_rng(2024)``."""
    rng = np.random.default_rng(2024)
    for _ in range(50):
        p = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        q = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        yield p, q


def degree0_test(h_expr: ExprSpec) -> bool:
    """``varlag.degree0_test`` with one arity-2 ``Jet2`` per random (p, q)."""
    if set(h_expr.vars) - {"p", "q"}:
        raise ValueError("factor must be an expression in (p, q)")
    for p, q in degree0_points():
        try:
            hj = exprspec.eval_jet(h_expr, {"p": jets.variable(0, p, 2),
                                            "q": jets.variable(1, q, 2)}, k=2)
        except JetDomainError:
            continue
        euler = p * hj.grad[0] + q * hj.grad[1]
        scale = abs(p * hj.grad[0]) + abs(q * hj.grad[1]) + abs(hj.value) + 1e-30
        if abs(euler) > 1e-10 * scale:
            return False
    return True


def _point_bits(result, i: int) -> bytes:
    """The bits of point ``i`` of a batched result, or of a pointwise one
    (``i`` is then ignored): jets, floats and tuples of them."""
    if isinstance(result, tuple):
        return b"".join(_point_bits(item, i) for item in result)
    if isinstance(result, Jet2):
        if not isinstance(result.value, float):  # a batch; a single jet is the same everywhere
            result = Jet2(result.value[i], result.grad[i], result.hess[i])
        return np.float64(result.value).tobytes() + result.grad.tobytes() + result.hess.tobytes()
    return np.float64(result if np.ndim(result) == 0 else result[i]).tobytes()


def assert_batch_matches_points(batched, pointwise, n: int) -> None:
    """``batched()`` over n points against ``pointwise(i)`` at each point i:
    the same bits, sign bits included, at every point; or, where a point
    raises, the error of one of the failing points (the class and arguments),
    which is that point's when only one fails."""
    outcomes = []
    for i in range(n):
        try:
            outcomes.append(pointwise(i))
        except Exception as err:  # every outcome is compared, errors included
            outcomes.append(err)
    errors = [(type(err), repr(err.args)) for err in outcomes if isinstance(err, Exception)]
    try:
        result = batched()
    except Exception as err:  # every outcome is compared, errors included
        raised = (type(err), repr(err.args))
        assert raised in errors, (raised, errors)
        assert len(errors) != 1 or raised == errors[0]
        return
    assert not errors, errors
    assert [_point_bits(result, i) for i in range(n)] == [_point_bits(out, i)
                                                        for i, out in enumerate(outcomes)]


# -- one point at a time, as batlab computed before its sweeps were batched --------------
#
# These keep the three one-point forms a batch can silently depart from: three
# vector solves (not one of three columns), a BLAS dot product ``g @ g`` (not a
# sum of products) and ``x ** 2`` of a numpy float, which is ``pow(x, 2)``
# (not ``x * x``).


def hodograph_jets_uv(solver, u: float, v: float):
    """(du, dv, hu, hv) of ``HodographSolver.jets_uv`` at one solved (u, v)."""
    (_, _, d2f, d3f), (_, _, d2g, d3g) = solver._fu, solver._gv
    f2, f3, g2, g3 = d2f(u), d3f(u), d2g(v), d3g(v)
    jac = np.array([[f2, g2], [-u * f2, -v * g2]])
    first = np.linalg.solve(jac, np.eye(2))
    du, dv = first[0], first[1]
    x_uu, x_vv = -f2 - u * f3, -g2 - v * g3
    hu, hv = np.zeros((2, 2)), np.zeros((2, 2))
    for a in range(2):
        for b in range(a, 2):
            quad_t = f3 * du[a] * du[b] + g3 * dv[a] * dv[b]
            quad_x = x_uu * du[a] * du[b] + x_vv * dv[a] * dv[b]
            sec = np.linalg.solve(jac, -np.array([quad_t, quad_x]))
            hu[a, b] = hu[b, a] = sec[0]
            hv[a, b] = hv[b, a] = sec[1]
    return du, dv, hu, hv


def leznov_field_jets(sys, point, phi) -> list[Jet2]:
    """``leznov.field_jets`` at one solved point: one vector solve per
    right-hand side, every sum and product written out."""
    n, nf, nz, kq = sys.n, sys.nf, 2 * sys.n, sys.nf + sys.n
    local = [jets.variable(s if s < kq else s - n, value, kq)
             for s, value in enumerate(np.concatenate((phi, point)))]
    args = dict(zip(sys.slots, local))
    q_jets = [exprspec.eval_jet(q, args, k=kq) for q in sys.Q]
    p_jets = [exprspec.eval_jet(p, args, k=kq) for p in sys.P]
    qg, pg = np.array([j.grad for j in q_jets]), np.array([j.grad for j in p_jets])
    qh, ph = np.array([j.hess for j in q_jets]), np.array([j.hess for j in p_jets])
    c_z = np.hstack((qg[:, nf:], -pg[:, nf:]))
    c_pp = qh[:, :nf, :nf] - ph[:, :nf, :nf]
    c_pz = np.concatenate((qh[:, :nf, nf:], -ph[:, :nf, nf:]), axis=2)
    c_zz = np.zeros((nf, nz, nz))
    c_zz[:, :n, :n] = qh[:, nf:, nf:]
    c_zz[:, n:, n:] = -ph[:, nf:, nf:]
    m_mat = pg[:, :nf] - qg[:, :nf]
    grads = np.zeros((nf, nz))
    for a in range(nz):
        grads[:, a] = np.linalg.solve(m_mat, c_z[:, a])
    hesses = np.zeros((nf, nz, nz))
    for a in range(nz):
        for b in range(a, nz):
            rhs = np.empty(nf)
            for i in range(nf):
                quad = 0.0
                for m in range(nf):
                    for r in range(nf):
                        quad += c_pp[i, m, r] * grads[m, a] * grads[r, b]
                    quad += c_pz[i, m, a] * grads[m, b]
                    quad += c_pz[i, m, b] * grads[m, a]
                rhs[i] = quad + c_zz[i, a, b]
            hesses[:, a, b] = hesses[:, b, a] = np.linalg.solve(m_mat, rhs)
    return [jets.from_parts(phi[m], grads[m], hesses[m]) for m in range(nf)]


def hodograph_grid(solver, t_nodes, x_nodes):
    """``construct.hodograph_grid`` node by node, in row-major order: each
    node solved from its left neighbour, each row's first node from the node
    above; the first failing node raises."""
    nt, nx = len(t_nodes), len(x_nodes)
    phi = np.empty((nt, nx))
    phibar = np.empty((nt, nx))
    row_seed = solver.cfg.seed
    for i, t in enumerate(t_nodes):
        s = row_seed
        for j, x in enumerate(x_nodes):
            u, v = solver.solve(t, x, seed=s)
            phibar[i, j] = u
            phi[i, j] = v
            s = (u, v)
            if j == 0:
                row_seed = s
    return phi, phibar


def _from_terms(terms, floor) -> ResidualSample:
    return ResidualSample(math.fsum(terms), math.fsum(abs(t) for t in terms), floor)


def born_infeld(phi: Jet2, lam: float) -> ResidualSample:
    """``residuals.born_infeld`` at one point."""
    g, H = phi.grad, phi.hess
    terms = (g[1] ** 2 * H[0, 0], g[0] ** 2 * H[1, 1], -(lam + 2.0 * g[1] * g[0]) * H[0, 1])
    coef = g[1] ** 2 + g[0] ** 2 + abs(lam + 2.0 * g[1] * g[0])
    return _from_terms(terms, coef * np.abs(H).max())


def euclidean_3d(phi: Jet2) -> ResidualSample:
    """``residuals.euclidean_3d`` at one point."""
    g, H = phi.grad, phi.hess
    terms = (
        H[0, 0] * (g[1] ** 2 + g[2] ** 2),
        H[1, 1] * (g[2] ** 2 + g[0] ** 2),
        H[2, 2] * (g[0] ** 2 + g[1] ** 2),
        -2.0 * H[0, 1] * g[0] * g[1],
        -2.0 * H[2, 0] * g[2] * g[0],
        -2.0 * H[1, 2] * g[1] * g[2],
    )
    coef = 4.0 * float(g @ g) + 2.0 * (abs(g[0] * g[1]) + abs(g[2] * g[0]) + abs(g[1] * g[2]))
    return _from_terms(terms, coef * np.abs(H).max())


# -- pointwise residuals ---------------------------------------------------------------


def sn_polynomial(u: float, v: float, n: int) -> float:
    """Complete homogeneous symmetric polynomial S_n(u, v) at one point:
    S_0 = 1, S_n = u^n + v S_{n-1} (``hydro.sn_polynomial_grid`` on grids)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    s = 1.0
    for m in range(1, n + 1):
        s = u**m + v * s
    return s


def _abs_permanent(a: np.ndarray) -> float:
    n = a.shape[0]
    total = 0.0
    for perm in itertools.permutations(range(n)):
        p = 1.0
        for i, s in enumerate(perm):
            p *= a[i, s]
            if p == 0.0:
                break
        total += p
    return total


def multifield_det(phi1: Jet2, phi2: Jet2, phibar1: Jet2, phibar2: Jet2,
                   j: int) -> ResidualSample:
    """5x5 determinant equation over (x1, x2, x3) for field index j in {1, 2}
    at one point (``residuals.multifield_det_grid`` on batches of nodes).

    Rows 1-2 hold the barred-field gradients, rows 3-5 pair the unbarred
    gradients with the Hessian rows of field j.  The scale is the permanent of
    absolute values.
    """
    for f in (phi1, phi2, phibar1, phibar2):
        if f.k != 3:
            raise ValueError("expected arity 3 jets")
    if j not in (1, 2):
        raise ValueError("j must be 1 or 2")
    hj = (phi1 if j == 1 else phi2).hess
    m = np.zeros((5, 5))
    m[0, 2:] = phibar1.grad
    m[1, 2:] = phibar2.grad
    for r in range(3):
        m[2 + r, 0] = phi1.grad[r]
        m[2 + r, 1] = phi2.grad[r]
        m[2 + r, 2:] = hj[r, :]
    return ResidualSample(float(np.linalg.det(m)), _abs_permanent(np.abs(m)))


# -- finite differences of stored grids, one formula per derivative --------------------


def fd_derivatives_time_space(F: np.ndarray, dt: float, h: float):
    """Centered second-order derivative arrays of F(level, node) at interior
    nodes, each written out (``hydro.fd_derivatives_time_space`` on an open
    2-d grid).  Returns (value, Ft, Fx, Ftt, Ftx, Fxx), each (nt-2, nx-2)."""
    mid = F[1:-1, 1:-1]
    Ft = (F[2:, 1:-1] - F[:-2, 1:-1]) / (2 * dt)
    Ftt = (F[2:, 1:-1] - 2 * mid + F[:-2, 1:-1]) / dt**2
    Fx = (F[1:-1, 2:] - F[1:-1, :-2]) / (2 * h)
    Fxx = (F[1:-1, 2:] - 2 * mid + F[1:-1, :-2]) / h**2
    Ftx = (F[2:, 2:] - F[2:, :-2] - F[:-2, 2:] + F[:-2, :-2]) / (4 * dt * h)
    return mid, Ft, Fx, Ftt, Ftx, Fxx


def fd_jet_at(F: np.ndarray, dt: float, h: float, m: int, i) -> Jet2:
    """Arity-2 jet of a periodic F(level, node) at interior level m, node i (an
    int or an index array), from neighbours indexed by hand."""
    nt, nx = F.shape
    if not 1 <= m <= nt - 2:
        raise ValueError("time level must be interior")
    ip, im = (i + 1) % nx, (i - 1) % nx
    ft = (F[m + 1, i] - F[m - 1, i]) / (2 * dt)
    fx = (F[m, ip] - F[m, im]) / (2 * h)
    ftt = (F[m + 1, i] - 2 * F[m, i] + F[m - 1, i]) / dt**2
    fxx = (F[m, ip] - 2 * F[m, i] + F[m, im]) / h**2
    ftx = (F[m + 1, ip] - F[m + 1, im] - F[m - 1, ip] + F[m - 1, im]) / (4 * dt * h)
    return jets.from_parts(F[m, i], np.stack([ft, fx], axis=-1),
                           np.stack([np.stack([ftt, ftx], axis=-1),
                                     np.stack([ftx, fxx], axis=-1)], axis=-2))


def fd_derivatives_multi(F: np.ndarray, dt: float, h2: float, h3: float):
    """Centered derivative arrays of a periodic F(level, i2, i3) at interior
    levels, each written out.  Returns (value, grads, hessians): grads is a
    dict over axes {1, 2, 3}, hessians over pairs a <= b, each (nt-2, n2, n3)."""
    mid = F[1:-1]
    r2p = lambda a: np.roll(a, -1, axis=1)
    r2m = lambda a: np.roll(a, 1, axis=1)
    r3p = lambda a: np.roll(a, -1, axis=2)
    r3m = lambda a: np.roll(a, 1, axis=2)
    g = {
        1: (F[2:] - F[:-2]) / (2 * dt),
        2: (r2p(mid) - r2m(mid)) / (2 * h2),
        3: (r3p(mid) - r3m(mid)) / (2 * h3),
    }
    hess = {
        (1, 1): (F[2:] - 2 * mid + F[:-2]) / dt**2,
        (2, 2): (r2p(mid) - 2 * mid + r2m(mid)) / h2**2,
        (3, 3): (r3p(mid) - 2 * mid + r3m(mid)) / h3**2,
        (1, 2): (r2p(F[2:]) - r2m(F[2:]) - r2p(F[:-2]) + r2m(F[:-2])) / (4 * dt * h2),
        (1, 3): (r3p(F[2:]) - r3m(F[2:]) - r3p(F[:-2]) + r3m(F[:-2])) / (4 * dt * h3),
        (2, 3): (r3p(r2p(mid)) - r3m(r2p(mid)) - r3p(r2m(mid)) + r3m(r2m(mid)))
                / (4 * h2 * h3),
    }
    return mid, g, hess


def conservation_drift(grid: CharGrid, n: int) -> float:
    """``hydro.conservation_drift`` with its differences written out."""
    sn = hydro.sn_polynomial_grid(grid.u, grid.v, n)
    flux = grid.u * grid.v * hydro.sn_polynomial_grid(grid.u, grid.v, n - 1)
    dt_term = (sn[2:, :] - sn[:-2, :]) / (2 * grid.dt)
    dx_term = (np.roll(flux, -1, axis=1) - np.roll(flux, 1, axis=1))[1:-1] / (2 * grid.h)
    raw = np.abs(dt_term - dx_term)
    scale = np.abs(dt_term) + np.abs(dx_term)
    if raw.max() == 0.0:
        return 0.0
    floor = 1e-6 * (np.abs(sn).max() / grid.dt + np.abs(flux).max() / grid.h)
    return float(raw.max() / max(scale.max(), floor, 1e-300))


# -- the characteristic march, one field per foot-point solve ----------------------------


class MonotoneCubic1D:
    """``hydro.MonotoneCubic1D`` over one field, with its neighbours taken by
    ``np.roll``."""

    def __init__(self, x_nodes: np.ndarray, values: np.ndarray):
        self.x0 = float(x_nodes[0])
        self.h = float(x_nodes[1] - x_nodes[0])
        self.y = np.asarray(values, dtype=float)
        yp1, ym1 = np.roll(self.y, -1), np.roll(self.y, 1)
        yp2, ym2 = np.roll(self.y, -2), np.roll(self.y, 2)
        d = (8.0 * (yp1 - ym1) - (yp2 - ym2)) / (12.0 * self.h)
        slope_plus = (yp1 - self.y) / self.h       # S_i
        slope_minus = np.roll(slope_plus, 1)       # S_{i-1}
        slope_mm = np.roll(slope_plus, 2)          # S_{i-2}
        slope_pp = np.roll(slope_plus, -1)         # S_{i+1}

        strict = ((slope_mm * slope_minus > 0.0) & (slope_minus * slope_plus > 0.0)
                  & (slope_plus * slope_pp > 0.0))
        sigma = np.sign(slope_plus)
        lim = 3.0 * np.minimum(np.abs(slope_minus), np.abs(slope_plus))
        d_strict = np.where(np.sign(d) == sigma,
                            sigma * np.minimum(np.abs(d), lim), 0.0)
        lo = 3.0 * np.minimum(np.minimum(slope_minus, slope_plus), 0.0)
        hi = 3.0 * np.maximum(np.maximum(slope_minus, slope_plus), 0.0)
        d_relaxed = np.clip(d, lo, hi)
        self.d = np.where(strict, d_strict, d_relaxed)

    def __call__(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        n = len(self.y)
        s = np.mod((q - self.x0) / self.h, n)
        k = np.minimum(s.astype(int), n - 1)
        kp = (k + 1) % n
        xi = s - k
        xi2 = xi * xi
        xi3 = xi2 * xi
        h10 = xi3 - 2.0 * xi2 + xi
        h01 = -2.0 * xi3 + 3.0 * xi2
        h11 = xi3 - xi2
        return (self.y[k] + (self.y[kp] - self.y[k]) * h01
                + self.h * (self.d[k] * h10 + self.d[kp] * h11))


def foot_points(step, start, tol, level):
    """``hydro._foot_points`` for one foot problem: foot = step(foot) from
    ``start``, a tuple of coordinate arrays, one per space axis."""
    foot = start
    for _ in range(10):
        new = step(foot)
        delta = max(np.abs(a - b).max() for a, b in zip(new, foot))
        foot = new
        if delta <= tol:
            break
    else:
        raise CharacteristicCrossingError(
            level, "foot-point fixed-point iteration did not converge")
    if any(np.any(np.diff(f, axis=k) <= 0.0) for k, f in enumerate(foot)):
        raise CharacteristicCrossingError(level)
    return foot


def integrate_characteristics(init_u: ExprSpec, init_v: ExprSpec, nx: int,
                              t_end: float) -> CharGrid:
    """``hydro.integrate_characteristics`` with one interpolant per field and
    one foot-point solve per field and stage, each starting from the speeds
    at the nodes."""
    x_nodes = hydro.TWO_PI * np.arange(nx) / nx
    h = float(x_nodes[1] - x_nodes[0])
    init = {name: exprspec.at_points(exprspec.float_fn(s, ("x",)), x_nodes)
            for name, s in (("u", init_u), ("v", init_v))}

    def advance(level, dt, m):
        interp_u = MonotoneCubic1D(x_nodes, level["u"])
        interp_v = MonotoneCubic1D(x_nodes, level["v"])

        def at_feet(interp, step):
            return interp(*foot_points(step, step((x_nodes,)), 1e-12 * h, m))

        u_star = at_feet(interp_u, lambda f: (x_nodes + dt * interp_v(*f),))
        v_star = at_feet(interp_v, lambda f: (x_nodes + dt * interp_u(*f),))
        half = 0.5 * dt
        return {
            "u": at_feet(interp_u, lambda f: (x_nodes + half * v_star + half * interp_v(*f),)),
            "v": at_feet(interp_v, lambda f: (x_nodes + half * u_star + half * interp_u(*f),)),
        }

    return hydro._march(init, h, t_end, hydro.CHAR_CFL, advance, lambda t, dt, f: CharGrid(
        t, x_nodes, f["u"], f["v"], h, dt, hydro.CHAR_CFL))


def integrate_multifield(init: dict, n2: int, n3: int, t_end: float) -> MultiCharGrid:
    """``hydro.integrate_multifield`` with one foot-point solve per carried
    pair and stage, each evaluating the speed splines at the nodes."""
    x2 = hydro.TWO_PI * np.arange(n2) / n2
    x3 = hydro.TWO_PI * np.arange(n3) / n3
    h2 = float(x2[1] - x2[0])
    h3 = float(x3[1] - x3[0])
    X2, X3 = np.meshgrid(x2, x3, indexing="ij")
    f0 = {name: exprspec.at_points(exprspec.float_fn(init[name], ("x2", "x3")), X2, X3)
          for name in MULTI_FIELDS}
    idx2, idx3 = np.meshgrid(np.arange(n2, dtype=float),
                             np.arange(n3, dtype=float), indexing="ij")
    carried = {("v1", "v2"): ("u1", "u2"), ("u1", "u2"): ("v1", "v2")}

    def advance(level, dt, m):
        splines = {n: hydro._PeriodicSpline2(f) for n, f in level.items()}
        star = None
        for _ in range(2):
            new = {}
            for (c2, c3), names in carried.items():
                s2, s3 = splines[c2], splines[c3]
                if star is None:
                    step = lambda f: (idx2 - (dt / h2) * s2(*f), idx3 - (dt / h3) * s3(*f))
                else:
                    p2, p3 = star[c2], star[c3]
                    step = lambda f: (idx2 - 0.5 * (dt / h2) * (s2(*f) + p2),
                                      idx3 - 0.5 * (dt / h3) * (s3(*f) + p3))
                foot = foot_points(step, (idx2, idx3), 1e-12, m)
                for name in names:
                    new[name] = splines[name](*foot)
            star = new
        return star

    return hydro._march(f0, min(h2, h3), t_end, hydro.MULTI_CFL, advance,
                        lambda t, dt, f: MultiCharGrid(t, x2, x3, f, h2, h3, dt, hydro.MULTI_CFL))


# -- file formats ------------------------------------------------------------------------


def write_grid_csv(csv_path, axes: tuple, levels: np.ndarray, nodes: list, fields: dict,
                   meta: dict) -> None:
    """Write a grid as CSV, one row per level and node, plus a JSON sidecar.

    This is ``hydro._write_grid`` as it was written with ``csv.writer``; the
    dumps must repeat its bytes.  ``nodes`` holds one coordinate array per
    space axis, shaped like each level of the ``fields`` arrays.  The node
    coordinates are formatted once per grid; the field values are read one
    level at a time, so no more than one level is held as Python objects.
    """
    csv_path = Path(csv_path)
    with csv_path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["level", *axes, *fields])
        node_reprs = [list(map(repr, a.ravel().tolist())) for a in nodes]
        for m, t in enumerate(levels.tolist()):
            w.writerows(zip(repeat(m), repeat(repr(t)), *node_reprs,
                            *(map(repr, f[m].ravel().tolist()) for f in fields.values())))
    meta = {**meta, "scheme": "semi-lagrangian-predictor-corrector", "levels": len(levels)}
    csv_path.with_suffix(".meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n")


def write_samples_csv(csv_path, pts) -> None:
    """Write sample points as ``verify --dump`` does: a ``c0, c1, ...`` header,
    then one row of ``repr(float(v))`` cells per point."""
    with Path(csv_path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"c{i}" for i in range(len(pts[0]))])
        for p in pts:
            w.writerow([repr(float(v)) for v in p])


def load_char_grid(csv_path) -> CharGrid:
    """Read back a grid written by ``hydro.dump_char_grid`` (CSV plus its
    ``.meta.json`` sidecar)."""
    csv_path = Path(csv_path)
    meta = json.loads(csv_path.with_suffix(".meta.json").read_text())
    nt, nx = meta["levels"], meta["nodes"]
    u = np.empty((nt, nx))
    v = np.empty((nt, nx))
    t_levels = np.empty(nt)
    x_nodes = np.empty(nx)
    with csv_path.open() as fh:
        reader = csv.reader(fh)
        next(reader)
        for idx, row in enumerate(reader):
            m, i = divmod(idx, nx)
            t_levels[m] = float(row[1])
            x_nodes[i] = float(row[2])
            u[m, i] = float(row[3])
            v[m, i] = float(row[4])
    return CharGrid(t_levels, x_nodes, u, v, meta["h"], meta["dt"], meta["cfl"])


def load_multi_grid(csv_path) -> MultiCharGrid:
    """Read back a grid written by ``hydro.dump_multi_grid`` (CSV plus its
    ``.meta.json`` sidecar)."""
    csv_path = Path(csv_path)
    meta = json.loads(csv_path.with_suffix(".meta.json").read_text())
    nt, n2, n3 = meta["levels"], meta["n2"], meta["n3"]
    fields = {name: np.empty((nt, n2, n3)) for name in MULTI_FIELDS}
    x1_levels = np.empty(nt)
    x2_nodes = np.empty(n2)
    x3_nodes = np.empty(n3)
    with csv_path.open() as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["level", "x1", "x2", "x3", *MULTI_FIELDS]
        for idx, row in enumerate(reader):
            m, rest = divmod(idx, n2 * n3)
            i, k = divmod(rest, n3)
            assert int(row[0]) == m
            x1_levels[m] = float(row[1])
            x2_nodes[i] = float(row[2])
            x3_nodes[k] = float(row[3])
            for name, value in zip(MULTI_FIELDS, row[4:]):
                fields[name][m, i, k] = float(value)
    assert idx == nt * n2 * n3 - 1
    return MultiCharGrid(x1_levels, x2_nodes, x3_nodes, fields, meta["h2"], meta["h3"],
                         meta["dt"], meta["cfl"])
