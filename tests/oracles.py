"""Pointwise, expression and file-format references that the tests compare
batlab against.

Each one is the plain, unvectorized or uncompiled form of something batlab
computes in bulk, from compiled closures or with fewer steps: the tests assert
that both give the same numbers (or draws) and raise the same errors.
"""

import csv
import itertools
import json
import math
from pathlib import Path
from typing import Mapping

import numpy as np

from batlab import exprspec, jets
from batlab.errors import JetDomainError
from batlab.exprspec import Bin, Call, ExprSpec, Neg, Node, Num, Var
from batlab.hydro import MULTI_FIELDS, CharGrid, MultiCharGrid
from batlab.jets import Jet2
from batlab.residuals import ResidualSample


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
    """``cli._random_expression`` drawing each item with ``rng.choice``."""
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
    """``cli._fd_probe`` with every stencil point a numpy copy of ``point``,
    evaluated by name, f(x ± h e_i) twice."""
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
                                       + value(pd)) / (4 * h**2)
    return grad, hess


# -- batched jets against one Jet2 per point -------------------------------------------


def density_jet(factor: ExprSpec, slots) -> tuple[Jet2, float]:
    """The discrete density at one node from one arity-6 ``Jet2`` per slot
    (``varlag.DiscreteFunctional._density_jet`` on a grid row)."""
    names = ("phi_t", "phi_x", "phibar_t", "phibar_x", "psi_t", "psi_x")
    sv = {name: jets.variable(i, slots[i], 6) for i, name in enumerate(names)}
    bracket = sv["phibar_t"] * sv["psi_x"] - sv["psi_t"] * sv["phibar_x"]
    hj = exprspec.eval_jet(factor, {"p": sv["phi_t"], "q": sv["phi_x"]}, k=6)
    return bracket * hj, hj.value


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


# -- file formats ------------------------------------------------------------------------


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
    return CharGrid(t_levels, x_nodes, u, v, meta["h"], meta["dt"], meta["cfl"],
                    meta["bc"])


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
