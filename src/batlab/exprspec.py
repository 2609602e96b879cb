"""Closed-form expression specs: parse, evaluate on jets or floats, differentiate.

Every "arbitrary function" a scenario supplies (constraint functions, initial
data, reparametrisations, weight-zero factors) is an ``ExprSpec``: an
immutable AST over named variables with operators ``+ - * / ^`` and the
functions ``exp log sin cos sqrt``.

Grammar (whitespace insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := base ('^' factor)?
    base   := number | var | func '(' expr ')' | '(' expr ')'

Binary operators are left-associative; ``^`` binds tighter than unary minus,
so ``-x^2`` is ``-(x^2)``.  Numbers are decimal with optional exponent.

Evaluation never walks the tree: each spec is compiled once, on its first
evaluation, into nested closures cached on the spec (:func:`_compile`).
:func:`eval_jet` takes its arguments by name.  :func:`float_fn` is the float
entry: it maps a tuple of variable names onto the spec's slots once, and the
evaluator it returns takes bare values, for Newton loops and finite-difference
stencils that call one spec many times (:func:`eval_float` is its by-name call).
Its values may also be arrays, one element per point, and each element of the
result is the bits of the float evaluation at that point (see the array rules
below); :func:`at_points` makes such a call and, where it raises, finds the
first failing point.  The tree walker these closures
replaced is kept in ``tests/oracles.py`` as the reference they are tested
against.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from . import jets
from .errors import EvaluationError, ExprSyntaxError, JetDomainError

FUNCTION_NAMES = ("exp", "log", "sin", "cos", "sqrt")


# -- AST ---------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Num, Var, Neg, Bin, Call]


@dataclass(frozen=True)
class ExprSpec:
    """Parsed expression plus its ordered variable list."""

    ast: Node
    vars: tuple[str, ...]

    def __str__(self) -> str:
        return to_string(self.ast)

    @functools.cached_property
    def _compiled(self):
        """The expression compiled by :func:`_compile`, on first use."""
        return _compile(self)


# -- tokenizer / parser --------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = n - len(stripped)
            raise ExprSyntaxError(f"unexpected character {text[bad]!r}", bad)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.var_order: list[str] = []

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != symbol:
            raise ExprSyntaxError(f"expected {symbol!r}", pos)
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {text!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = Bin(text, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = Bin(text, node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Node:
        node = self.base()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Bin("^", node, self.factor())
        return node

    def base(self) -> Node:
        kind, text, pos = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            nkind, ntext, _ = self.peek()
            if text in FUNCTION_NAMES:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if nkind == "op" and ntext == "(":
                raise ExprSyntaxError(f"unknown function {text!r}", pos)
            if text not in self.var_order:
                self.var_order.append(text)
            return Var(text)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError("expected number, variable or '('", pos)


def parse(text: str) -> ExprSpec:
    """Parse ``text`` into an ExprSpec.  Variables are ordered by first use."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    p = _Parser(text)
    ast = p.parse()
    return ExprSpec(ast, tuple(p.var_order))


# -- printing ------------------------------------------------------------------

def to_string(node: Node) -> str:
    """Fully parenthesized form; reparsing yields a structurally equal AST."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{to_string(node.operand)})"
    if isinstance(node, Bin):
        return f"({to_string(node.left)} {node.op} {to_string(node.right)})"
    if isinstance(node, Call):
        return f"{node.func}({to_string(node.arg)})"
    raise TypeError(f"not an AST node: {node!r}")


# -- evaluation ----------------------------------------------------------------
#
# A spec is compiled once, on its first evaluation, into nested closures, one per
# AST node, over a sequence of values in the order of ``spec.vars`` (None for a
# variable not given).  A subtree over float leaves evaluates to a float, one
# with an array leaf to an array (a float per point) and one with a jet leaf to
# a jet (a Jet2, at one point or at a batch of points), so the same closures
# serve eval_float, float_fn and eval_jet.  The closures are cached on the spec
# and live as long as it does.
#
# On arrays, + - * / and sin, cos and sqrt are numpy ufuncs, which round as the
# float operations do.  A literal power is ``np.float_power``, which calls the C
# ``pow`` that Python's ``**`` calls, element by element (``b ^ 1`` is b and
# ``b ^ 0`` the float 1.0 without a call, as pow gives them).  exp, log and a power
# with an expression exponent go element by element through the float
# functions (``math`` and Python's ``**``): numpy's exp, log and power differ
# from them in the last bit for some arguments, and so does ``x * x`` from
# ``x ** 2``.  An operation that fails at some element raises what the float
# operation raises at the first failing element, or, for a division by zero,
# the same JetDomainError.


def _compile(spec: ExprSpec):
    """The closure evaluating ``spec`` at a sequence of values by slot in ``spec.vars``."""
    return _closure(spec.ast, {name: i for i, name in enumerate(spec.vars)})


def _closure(node: Node, slots: Mapping[str, int]):
    """The closure of the subtree at ``node``, built from its children's."""
    if isinstance(node, Num):
        value = node.value
        return lambda env: value
    if isinstance(node, Var):
        name, i = node.name, slots.get(node.name)

        def var(env):
            value = None if i is None else env[i]
            if value is None:
                raise ValueError(f"missing variable {name!r}")
            return value
        return var
    if isinstance(node, Neg):
        operand = _closure(node.operand, slots)
        return lambda env: -operand(env)
    if isinstance(node, Call):
        arg = _closure(node.arg, slots)
        float_fun, array_fun = jets.FLOAT_FUNCTIONS[node.func], _ARRAY_FUNCTIONS[node.func]
        jet_fun = jets.FUNCTIONS[node.func]

        def call(env):
            a = arg(env)
            if isinstance(a, float):
                return float_fun(a)
            return array_fun(a) if isinstance(a, np.ndarray) else jet_fun(a)
        return call
    if isinstance(node, Bin):
        left = _closure(node.left, slots)
        if node.op == "^" and isinstance(node.right, Num):
            return _literal_power(left, node.right.value)
        right = _closure(node.right, slots)
        if node.op == "+":
            return lambda env: left(env) + right(env)
        if node.op == "-":
            return lambda env: left(env) - right(env)
        if node.op == "*":
            return lambda env: left(env) * right(env)
        if node.op == "/":
            def divide(env):
                a, b = left(env), right(env)
                if isinstance(b, float):
                    if b == 0.0:
                        raise JetDomainError("div", 0.0)
                elif isinstance(b, np.ndarray) and (b == 0.0).any():
                    raise JetDomainError("div", 0.0)
                return a / b
            return divide
        if node.op == "^":
            return _power(left, right)
        raise ValueError(f"unknown operator {node.op!r}")
    raise TypeError(f"not an AST node: {node!r}")


def _literal_power(base, c):
    """``base ^ c`` for a literal exponent ``c``, by the rule of :func:`_float_pow`
    at each float, array element or jet."""
    def power(env):
        b = base(env)
        if isinstance(b, float):
            return _float_pow(b, c)
        return _array_power(b, c) if isinstance(b, np.ndarray) else jets.powc(b, c)
    return power


def _array_power(b: np.ndarray, c: float):
    """``b ^ c`` for a literal ``c`` at each element of ``b``, as
    :func:`_float_pow` gives it."""
    if c == 1.0:  # b ** 1 is b and b ** 0 is 1.0, whatever b, as pow gives them
        return b
    if c == 0.0:
        return 1.0
    # Where _float_pow's guards hold, or pow overflows, it raises (or returns a
    # NaN) element by element.
    if (b <= 0.0).any() if not c.is_integer() else c < 0.0 and (b == 0.0).any():
        return _elementwise(lambda v: _float_pow(v, c), b)
    out = np.float_power(b, c)
    return out if _finite(out) else _elementwise(lambda v: _float_pow(v, c), b)


def _power(base, expo):
    """``base ^ expo`` for an expression exponent: a jet exponent goes through
    exp(e*log(b))."""
    def power(env):
        b, e = base(env), expo(env)
        if isinstance(e, float) and isinstance(b, float):
            return _float_pow(b, e)
        if isinstance(e, np.ndarray) or isinstance(b, np.ndarray):
            return _elementwise(_float_pow, *np.broadcast_arrays(b, e))
        if isinstance(e, float):
            return jets.powc(b, e)
        if isinstance(b, float):
            if b <= 0.0:
                raise JetDomainError("pow", b)
            return jets.exp(e * math.log(b))
        return jets.exp(e * jets.log(b))
    return power


_FLOAT64 = np.dtype(float)


def _finite(a: np.ndarray) -> bool:
    """Whether every element of ``a`` is finite."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def _elementwise(fn, *arrays) -> np.ndarray:
    """The float function ``fn`` at each element of ``arrays`` (of one shape),
    in order: the first element where it raises raises."""
    values = [a.ravel().tolist() for a in arrays]
    return np.array([fn(*v) for v in zip(*values)], dtype=float).reshape(arrays[0].shape)


def _by_ufunc(ufunc, name: str):
    """The array form of float function ``name`` through ``ufunc``, which rounds
    as it does; where the float function raises at some element (math.sin at
    an infinity, sqrt at a value <= 0), element by element instead."""
    float_fun = jets.FLOAT_FUNCTIONS[name]
    domain = np.isinf if name != "sqrt" else lambda a: a <= 0.0

    def apply(a: np.ndarray) -> np.ndarray:
        if domain(a).any():
            return _elementwise(float_fun, a)
        return ufunc(a)
    return apply


_ARRAY_FUNCTIONS = {"exp": functools.partial(_elementwise, jets.exp_float),
                    "log": functools.partial(_elementwise, jets.log_float),
                    "sin": _by_ufunc(np.sin, "sin"), "cos": _by_ufunc(np.cos, "cos"),
                    "sqrt": _by_ufunc(np.sqrt, "sqrt")}


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


def eval_jet(spec: ExprSpec, args: Mapping[str, jets.Jet2], k: int | None = None) -> jets.Jet2:
    """Second-order jet of the expression at the given jet arguments.

    ``args`` must cover ``spec.vars`` (extra entries are allowed) and all jets
    must share one arity; batched arguments (``Jet2`` over N points) of one
    length give a batched jet.  ``k`` is only needed for variable-free
    expressions, whose jet is a ``Jet2`` constant.
    """
    arity = k
    for name in spec.vars:
        if name not in args:
            raise ValueError(f"missing variable {name!r}")
        ka = args[name].k
        if arity is None:
            arity = ka
        elif ka != arity:
            raise ValueError(f"arity mismatch: {name!r} has k={ka}, expected {arity}")
    result = spec._compiled([args[name] for name in spec.vars])
    if isinstance(result, float):
        if arity is None:
            raise ValueError("constant expression: pass k to fix the jet arity")
        # over batched arguments, the same constant at each of their points
        n = next((len(a.value) for a in args.values() if not isinstance(a.value, float)), None)
        result = jets.constant(result, arity, n)
    # As in float_fn: a non-finite result is a singular sample.
    jets._require_finite("eval", result.value, result.grad, result.hess)
    return result


def eval_float(spec: ExprSpec, args: Mapping[str, float]) -> float:
    """Plain float evaluation: :func:`float_fn` of ``spec`` over the names of
    ``args``, called with their values."""
    return float_fn(spec, tuple(args))(*args.values())


def float_fn(spec: ExprSpec, names: Sequence[str] | None = None) -> Callable[..., float]:
    """Plain float evaluation of ``spec`` as a positional function, to bind
    once outside a Newton loop or a finite-difference stencil.

    ``float_fn(spec, names)`` takes the values of ``names``, in that order:
    ``float_fn(spec, ("phi", "x1"))(p, x)`` is ``eval_float(spec, {"phi": p,
    "x1": x})``.  Names the spec does not use are ignored; a variable of the
    spec missing from ``names`` raises a ValueError when the evaluation
    reaches it, and a non-finite result a JetDomainError.  Without ``names``
    the spec must have exactly one variable, and the function takes its value.

    The values may also be arrays of one shape, one element per point (the
    first value decides; a float among them holds at every point): the result
    is then a new array of that shape, each element the bits of the float
    evaluation at its point, and a non-finite element raises the same
    JetDomainError.  An evaluation failing at one point raises the float
    evaluation's error there; failing at several, the error of the first
    operation that fails, so a caller that needs each point's own error
    evaluates the points one at a time after a failure.  A spec of one
    variable, taken as the first value, evaluates a float64 array as it is.
    """
    if names is None:
        if len(spec.vars) != 1:
            raise ValueError(f"float_fn needs a spec of one variable, got {spec.vars}")
        slots = [0]
    else:
        position = {name: i for i, name in enumerate(names)}
        slots = [position.get(name) for name in spec.vars]
    top = spec.ast
    while isinstance(top, Bin) and top.op == "^" and _is_one(top.right):
        top = top.left  # b ^ 1 is b itself
    returns_argument = isinstance(top, Var)
    array = np.ndarray

    def compiled(env):
        # the spec's closure, bound here at the first evaluation: a function
        # that is never called compiles nothing
        nonlocal compiled
        compiled = spec._compiled
        return compiled(env)

    def evaluate_at(*values):
        if values and type(values[0]) is array:
            env = [None if i is None else np.asarray(values[i], dtype=float) for i in slots]
            return _array_result(compiled(env), values[0].shape, returns_argument)
        out = compiled([None if i is None else float(values[i]) for i in slots])
        if not math.isfinite(out):
            raise JetDomainError("eval", out)
        return out

    if slots != [0]:
        return evaluate_at

    def evaluate_one(*values):
        x = values[0] if values else None
        if type(x) is array and x.dtype is _FLOAT64:
            return _array_result(compiled([x]), x.shape, returns_argument)
        return evaluate_at(*values)
    return evaluate_one


def _array_result(out, shape: tuple, returns_argument: bool) -> np.ndarray:
    """A new array of ``shape`` from an array evaluation's result ``out``:
    a constant at each point, or ``out`` itself, copied where the spec
    returns an argument as it is; a non-finite element raises."""
    if type(out) is not np.ndarray:  # a constant: its value at each point
        if not math.isfinite(out):
            raise JetDomainError("eval", out)
        full = np.empty(shape)  # np.full(shape, out), without its dtype inference
        full.fill(out)
        return full
    if not _finite(out):
        raise JetDomainError("eval", float(out[~np.isfinite(out)][0]))
    return out.copy() if returns_argument else out


def at_points(fn: Callable, *columns: np.ndarray):
    """``fn(*columns)``: a positional evaluator (:func:`float_fn`), or a
    function calling several, over arrays of one shape, one element per
    point, in one array call.  Where that raises, the points are evaluated
    one at a time, in C order, so that the first failing point raises its
    own error, not that of the first operation failing at any point."""
    try:
        return fn(*columns)
    except (EvaluationError, ValueError):  # what a float evaluation raises
        for point in zip(*(c.ravel().tolist() for c in columns)):
            fn(*point)
        raise


# -- symbolic first derivative ---------------------------------------------------

def _is_zero(node: Node) -> bool:
    return isinstance(node, Num) and node.value == 0.0


def _is_one(node: Node) -> bool:
    return isinstance(node, Num) and node.value == 1.0


def _mk_add(l: Node, r: Node) -> Node:
    if _is_zero(l):
        return r
    if _is_zero(r):
        return l
    return Bin("+", l, r)


def _mk_sub(l: Node, r: Node) -> Node:
    if _is_zero(r):
        return l
    if _is_zero(l):
        return Neg(r)
    return Bin("-", l, r)


def _mk_mul(l: Node, r: Node) -> Node:
    if _is_zero(l) or _is_zero(r):
        return Num(0.0)
    if _is_one(l):
        return r
    if _is_one(r):
        return l
    return Bin("*", l, r)


def _mk_div(l: Node, r: Node) -> Node:
    if _is_zero(l):
        return Num(0.0)
    if _is_one(r):
        return l
    return Bin("/", l, r)


def _diff(node: Node, var: str) -> Node:
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0) if node.name == var else Num(0.0)
    if isinstance(node, Neg):
        d = _diff(node.operand, var)
        return Num(0.0) if _is_zero(d) else Neg(d)
    if isinstance(node, Call):
        da = _diff(node.arg, var)
        if _is_zero(da):
            return Num(0.0)
        a = node.arg
        if node.func == "exp":
            outer: Node = Call("exp", a)
        elif node.func == "log":
            return _mk_div(da, a)
        elif node.func == "sin":
            outer = Call("cos", a)
        elif node.func == "cos":
            outer = Neg(Call("sin", a))
        elif node.func == "sqrt":
            return _mk_div(da, _mk_mul(Num(2.0), Call("sqrt", a)))
        else:
            raise ValueError(f"unknown function {node.func!r}")
        return _mk_mul(outer, da)
    if isinstance(node, Bin):
        dl = _diff(node.left, var)
        dr = _diff(node.right, var)
        if node.op == "+":
            return _mk_add(dl, dr)
        if node.op == "-":
            return _mk_sub(dl, dr)
        if node.op == "*":
            return _mk_add(_mk_mul(dl, node.right), _mk_mul(node.left, dr))
        if node.op == "/":
            num = _mk_sub(_mk_mul(dl, node.right), _mk_mul(node.left, dr))
            return _mk_div(num, Bin("^", node.right, Num(2.0)))
        # power
        if isinstance(node.right, Num):
            c = node.right.value
            if _is_zero(dl) or c == 0.0:
                return Num(0.0)
            scaled = _mk_mul(Num(c), Bin("^", node.left, Num(c - 1.0)))
            return _mk_mul(scaled, dl)
        # general exponent: b^e * (e' log b + e b'/b)
        inner = _mk_add(_mk_mul(dr, Call("log", node.left)),
                        _mk_div(_mk_mul(node.right, dl), node.left))
        if _is_zero(inner):
            return Num(0.0)
        return _mk_mul(Bin("^", node.left, node.right), inner)
    raise TypeError(f"not an AST node: {node!r}")


def partial(spec: ExprSpec, var: str) -> ExprSpec:
    """Symbolic first derivative with respect to ``var``.

    The variable list is preserved so the derivative accepts the same
    argument dictionaries as its parent.
    """
    if var not in spec.vars:
        raise ValueError(f"unknown variable {var!r}")
    return ExprSpec(_diff(spec.ast, var), spec.vars)

