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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Union

from . import jets
from .errors import ExprSyntaxError, JetDomainError

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

def _eval_node_jet(node: Node, args: Mapping[str, jets.Jet2 | float]):
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


def eval_jet(spec: ExprSpec, args: Mapping[str, jets.Jet2], k: int | None = None) -> jets.Jet2:
    """Second-order jet of the expression at the given jet arguments.

    ``args`` must cover ``spec.vars`` (extra entries are allowed) and all jets
    must share one arity.  ``k`` is only needed for variable-free expressions.
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
    result = _eval_node_jet(spec.ast, args)
    if isinstance(result, float):
        if arity is None:
            raise ValueError("constant expression: pass k to fix the jet arity")
        result = jets.constant(result, arity)
    # As in eval_float: a non-finite result is a singular sample.
    jets._require_finite("eval", result.value, result.grad, result.hess)
    return result


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


def eval_float(spec: ExprSpec, args: Mapping[str, float]) -> float:
    """Plain float evaluation (used inside Newton loops)."""
    floats = {name: float(args[name]) for name in spec.vars if name in args}
    out = _eval_node_jet(spec.ast, floats)
    if not math.isfinite(out):
        raise JetDomainError("eval", out)
    return out


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

