"""Pointwise, expression and file-format references that the tests compare
batlab against.

Each one is the plain, unvectorized or uncompiled form of something batlab
computes in bulk or from compiled closures: the tests assert that both give the
same numbers and raise the same errors.
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
from batlab.hydro import CharGrid
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
    if isinstance(result, jets.JetBatch):
        return (np.float64(result.value[i]).tobytes() + result.grad[i].tobytes()
                + result.hess[i].tobytes())
    if isinstance(result, Jet2):  # the same jet at every point
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
