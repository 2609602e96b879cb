"""Parser, jet evaluation and symbolic differentiation of expression specs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batlab import exprspec, jets
from batlab.errors import ExprSyntaxError, JetDomainError
from batlab.exprspec import Bin, Call, Num, Var, eval_float, eval_jet, parse, partial, to_string


def test_parse_power_node():
    s = parse("u^2")
    assert s.vars == ("u",)
    assert isinstance(s.ast, Bin) and s.ast.op == "^"


def test_parse_var_order_of_first_appearance():
    s = parse("exp(v) + u*v")
    assert s.vars == ("v", "u")
    assert isinstance(s.ast, Bin) and s.ast.op == "+"
    assert isinstance(s.ast.left, Call)


def test_parse_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("u +")
    assert err.value.position == 3


def test_parse_unknown_function():
    with pytest.raises(ExprSyntaxError):
        parse("tan(u)")


def test_parse_empty():
    with pytest.raises(ExprSyntaxError):
        parse("   ")


def test_parse_bad_character():
    with pytest.raises(ExprSyntaxError) as err:
        parse("u + $v")
    assert err.value.position == 4


def test_precedence():
    assert eval_float(parse("2 + 3 * 4"), {}) == 14.0
    assert eval_float(parse("2 * 3 ^ 2"), {}) == 18.0
    assert eval_float(parse("-2^2"), {}) == -4.0  # ^ binds tighter than unary minus
    assert eval_float(parse("(-2)^2"), {}) == 4.0
    assert eval_float(parse("2^-1"), {}) == 0.5
    assert eval_float(parse("8 / 4 / 2"), {}) == 1.0  # left associative
    assert eval_float(parse("2^3^2"), {}) == 512.0  # exponent recurses right
    assert eval_float(parse("1.5e2 + .5"), {}) == 150.5


def test_roundtrip_simple():
    for text in ["u^2", "exp(v) + u*v", "-x^2", "(u - v) / (u + v)", "sqrt(u)/2"]:
        s = parse(text)
        assert parse(to_string(s.ast)).ast == s.ast


_leaf = st.one_of(
    st.sampled_from([Var("u"), Var("v"), Var("w")]),
    st.floats(min_value=0.0, max_value=9.0, allow_nan=False).map(lambda x: Num(round(x, 3))),
)


def _tree(depth):
    if depth == 0:
        return _leaf
    sub = _tree(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(lambda t: Bin(*t)),
        sub.map(exprspec.Neg),
        st.tuples(st.sampled_from(exprspec.FUNCTION_NAMES), sub).map(lambda t: Call(*t)),
    )


@given(ast=_tree(3))
@settings(max_examples=150, deadline=None)
def test_roundtrip_random_trees(ast):
    assert parse(to_string(ast)).ast == ast


def test_eval_jet_product():
    u = jets.variable(0, 2.0, 2)
    v = jets.variable(1, 3.0, 2)
    r = eval_jet(parse("u*v"), {"u": u, "v": v})
    assert r.value == 6.0
    assert np.array_equal(r.grad, [3.0, 2.0])
    assert r.hess[0, 1] == 1.0


def test_eval_jet_square_of_nonseed_jet():
    # phi with value 2, grad (1,1), hess 0: (phi^2)'' = 2 phi'⊗phi' + 2 phi phi''
    phi = jets.from_parts(2.0, [1.0, 1.0], np.zeros((2, 2)))
    r = eval_jet(parse("phi^2"), {"phi": phi})
    assert r.value == 4.0
    assert np.array_equal(r.grad, [4.0, 4.0])
    assert np.array_equal(r.hess, 2.0 * np.ones((2, 2)))


def test_eval_jet_domain_error():
    u = jets.constant(-4.0, 1)
    with pytest.raises(JetDomainError):
        eval_jet(parse("sqrt(u)"), {"u": u})


def test_power_overflow_is_a_domain_error():
    # Python's float power raises OverflowError; a sweep must see a singular sample.
    for text in ("x^400", "x^400.5", "x^y"):
        with pytest.raises(JetDomainError):
            eval_float(parse(text), {"x": 10.0, "y": 400.5})
    with pytest.raises(JetDomainError):
        eval_jet(parse("x^400.5"), {"x": jets.variable(0, 10.0, 1)})
    with pytest.raises(JetDomainError):
        eval_jet(parse("20^400.5 * x"), {"x": jets.variable(0, 10.0, 1)})


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_jet_is_a_domain_error():
    # The float constant overflows to inf; like eval_float, eval_jet refuses it.
    x = {"x": jets.variable(0, 0.5, 1)}
    for text in ("exp(700)*exp(700)*x", "exp(700)*exp(700) + 0*x", "x*1e300*1e300"):
        with pytest.raises(JetDomainError):
            eval_float(parse(text), {"x": 0.5})
        with pytest.raises(JetDomainError):
            eval_jet(parse(text), x)


def test_eval_jet_missing_variable():
    with pytest.raises(ValueError):
        eval_jet(parse("u + v"), {"u": jets.constant(1.0, 1)})


def test_eval_jet_constant_expression_needs_k():
    with pytest.raises(ValueError):
        eval_jet(parse("2 + 3"), {})
    r = eval_jet(parse("2 + 3"), {}, k=2)
    assert r.value == 5.0 and r.k == 2


def test_eval_jet_constant_args_reduce_to_plain_eval():
    args = {"u": jets.constant(1.3, 2), "v": jets.constant(0.4, 2)}
    r = eval_jet(parse("exp(u)*v + u^3"), args)
    assert np.array_equal(r.grad, np.zeros(2))
    assert np.array_equal(r.hess, np.zeros((2, 2)))
    assert r.value == pytest.approx(np.exp(1.3) * 0.4 + 1.3**3, rel=1e-15)


def test_eval_jet_variable_exponent():
    u = jets.variable(0, 2.0, 2)
    v = jets.variable(1, 3.0, 2)
    r = eval_jet(parse("u^v"), {"u": u, "v": v})
    assert r.value == pytest.approx(8.0, rel=1e-14)
    # d(u^v)/du = v u^(v-1) = 12, d/dv = u^v log u
    assert r.grad[0] == pytest.approx(12.0, rel=1e-13)
    assert r.grad[1] == pytest.approx(8.0 * np.log(2.0), rel=1e-13)


def test_partial_simple_forms():
    du = partial(parse("u^2"), "u")
    assert eval_float(du, {"u": 3.0}) == 6.0
    dv = partial(parse("u*v + exp(v)"), "v")
    assert eval_float(dv, {"u": 2.0, "v": 0.0}) == 3.0


def test_partial_unknown_variable():
    with pytest.raises(ValueError):
        partial(parse("u"), "w")


def test_partial_matches_gradient_at_random_points():
    rng = np.random.default_rng(3)
    spec = parse("exp(0.3*u)*sin(v) + u^3/(v+4) + sqrt(u+5)")
    du = partial(spec, "u")
    dv = partial(spec, "v")
    for _ in range(20):
        uv = rng.uniform(0.2, 2.0, size=2)
        u = jets.variable(0, uv[0], 2)
        v = jets.variable(1, uv[1], 2)
        full = eval_jet(spec, {"u": u, "v": v})
        for d, idx in ((du, 0), (dv, 1)):
            val = eval_float(d, {"u": uv[0], "v": uv[1]})
            assert val == pytest.approx(full.grad[idx], rel=1e-12, abs=1e-12)


def test_mixed_partials_commute_and_match_hessian():
    rng = np.random.default_rng(4)
    spec = parse("exp(u*v)*cos(v) + u^2*v^3")
    duv = partial(partial(spec, "u"), "v")
    dvu = partial(partial(spec, "v"), "u")
    for _ in range(10):
        uv = rng.uniform(-1.0, 1.0, size=2)
        args = {"u": uv[0], "v": uv[1]}
        a = eval_float(duv, args)
        b = eval_float(dvu, args)
        u = jets.variable(0, uv[0], 2)
        v = jets.variable(1, uv[1], 2)
        hess = eval_jet(spec, {"u": u, "v": v}).hess[0, 1]
        scale = max(abs(a), abs(hess), 1e-3)
        assert abs(a - b) <= 1e-10 * scale
        assert abs(a - hess) <= 1e-10 * scale


def test_partial_of_general_power():
    spec = parse("u^v")
    du = partial(spec, "u")
    dv = partial(spec, "v")
    assert eval_float(du, {"u": 2.0, "v": 3.0}) == pytest.approx(12.0, rel=1e-13)
    assert eval_float(dv, {"u": 2.0, "v": 3.0}) == pytest.approx(8 * np.log(2), rel=1e-13)

