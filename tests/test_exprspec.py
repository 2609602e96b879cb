"""Parser, jet evaluation and symbolic differentiation of expression specs."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from batlab import cli, exprspec, jets
from batlab.errors import EvaluationError, ExprSyntaxError, JetDomainError
from batlab.exprspec import (Bin, Call, ExprSpec, Neg, Num, Var, eval_float, eval_jet, float_fn,
                             parse, partial, to_string)

import oracles


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



# -- compiled closures against the tree walker ------------------------------------------

_NAMES = ("a", "b", "c")

# Each guard and error path of the evaluator, and inputs that reach them.
_HOSTILE = [parse(text) for text in (
    "1e400", "1e400 * a", "a * 1e300 * 1e300", "exp(800 * a)", "exp(709)", "exp(708.9)",
    "a^400", "a^-1", "(a - a)^-2", "(a - a)^0", "a^0.5", "(0 - a)^0.5", "(0 - 2)^a", "a^b",
    "(a - b)^(c - 1.5)", "2^(a*b)", "0^a", "log(a)", "log(a - a)", "log(0 - a)",
    "sqrt(b)", "sqrt(b - b)", "sqrt(0 - b)", "sin(1e400 * a)", "a / 0", "a / (b - b)",
    "1 / (a - a)", "(a - a) / a", "2 / 0", "log(0 - a) / sqrt(0 - b)", "d", "a + d",
    "d + log(0)", "log(0) + d", "d / log(0)", "a^d", "d^2", "-a^2", "a^2^0.5",
    " + ".join(["a"] * 300))] + [
    # Trees the parser does not build: negative literal exponents, and a
    # variable missing from the spec's variable list.
    ExprSpec(Bin("^", Var("a"), Num(-1.0)), ("a",)),
    ExprSpec(Bin("^", Bin("-", Var("a"), Var("a")), Num(-2.0)), ("a",)),
    ExprSpec(Bin("^", Var("a"), Num(-0.5)), ("a",)),
    ExprSpec(Bin("+", Var("a"), Var("d")), ("a",)),
]


def _bits(value) -> bytes:
    if isinstance(value, jets.Jet2):
        return np.float64(value.value).tobytes() + value.grad.tobytes() + value.hess.tobytes()
    return np.float64(value).tobytes()


def _outcome(evaluate, *args):
    """The bits of what ``evaluate(*args)`` returned, or the class and args of
    what it raised."""
    try:
        return _bits(evaluate(*args))
    except Exception as err:  # every outcome is compared, errors included
        return type(err), err.args


def _assert_matches_tree_walker(spec, point, numpy_args):
    floats = {n: np.float64(x) if numpy_args else x for n, x in zip(_NAMES, point)}
    assert _outcome(eval_float, spec, floats) == _outcome(oracles.eval_float, spec, floats)
    if len(spec.vars) == 1:
        x = floats.get(spec.vars[0], 0.0)
        assert _outcome(float_fn(spec), x) == _outcome(
            oracles.eval_float, spec, {spec.vars[0]: x})
    jet_args = {n: jets.variable(i, x, 3) for i, (n, x) in enumerate(zip(_NAMES, point))}
    assert _outcome(eval_jet, spec, jet_args, 3) == _outcome(
        oracles.eval_jet, spec, jet_args, 3)


_value = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 1e-300, 700.0]),
                   st.floats(-4.0, 4.0))
_point = st.tuples(_value, _value, _value)
_quiet = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                    "ignore:invalid value encountered:RuntimeWarning")


@_quiet
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 4), point=_point,
       numpy_args=st.booleans())
@settings(derandomize=True, max_examples=500, deadline=None)
def test_compiled_evaluation_matches_the_tree_walker(seed, depth, point, numpy_args):
    """On the ad scenario's random expressions: bit for bit on values,
    gradients and Hessians, and on the class and arguments of every error, in
    float and arity-3 jet mode; float arguments may be numpy scalars."""
    text = oracles.random_expression(np.random.default_rng(seed), list(_NAMES), depth)
    _assert_matches_tree_walker(parse(text), point, numpy_args)


@_quiet
@pytest.mark.parametrize("spec", _HOSTILE)
@given(point=_point, numpy_args=st.booleans())
@settings(derandomize=True, max_examples=30, deadline=None)
def test_compiled_evaluation_matches_the_tree_walker_on_hostile_specs(spec, point,
                                                                     numpy_args):
    _assert_matches_tree_walker(spec, point, numpy_args)


@_quiet
@pytest.mark.parametrize("spec", _HOSTILE)
@given(points=st.lists(_point, min_size=1, max_size=4))
@settings(derandomize=True, max_examples=20, deadline=None)
def test_batched_jets_match_one_jet2_per_point_on_hostile_specs(spec, points):
    """A row of points evaluated as one batched ``jets.Jet2`` gives, point by
    point, the arity-3 Jet2 bits, or the error of a failing point."""
    batch = dict(zip(_NAMES, jets.variables(list(zip(*points)))))
    oracles.assert_batch_matches_points(
        lambda: eval_jet(spec, batch, 3),
        lambda i: eval_jet(spec, {n: jets.variable(j, x, 3)
                                  for j, (n, x) in enumerate(zip(_NAMES, points[i]))}, 3),
        len(points))


@_quiet
@pytest.mark.parametrize("name,x", [("exp", 709.0), ("log", 0.0), ("log", -0.0),
                                    ("log", 1e-200), ("sqrt", 5e-324), ("sqrt", 0.0)])
def test_domain_guards_agree_on_the_float_array_and_jet_paths(name, x):
    """At the edge of each guard, the float evaluation, the array evaluation
    and the jet all go through the one guarded function of ``jets``: the same
    value bits or the same JetDomainError.  A jet whose second derivative
    overflows (log at 1e-200, sqrt at 5e-324) is a JetDomainError at that
    argument, not a ZeroDivisionError."""
    spec = parse(f"{name}(a)")
    f = float_fn(spec, ("a",))
    expected = _outcome(jets.FLOAT_FUNCTIONS[name], x)
    assert _outcome(eval_float, spec, {"a": x}) == expected
    assert _outcome(f, x) == expected
    assert _outcome(lambda: f(np.array([1.0, x]))[1]) == expected
    if not isinstance(expected, tuple):
        expected = JetDomainError, JetDomainError(name, x).args
    assert _outcome(eval_jet, spec, {"a": jets.variable(0, x, 1)}) == expected
    assert _outcome(eval_jet, spec, {"a": jets.variables([[1.0, x]])[0]}) == expected


@_quiet
@pytest.mark.parametrize("text,x", [
    ("a^-1", 0.0), ("a^-1", -0.0), ("a^400", 10.0), ("a^0.5", -1.0), ("a^0.5", 0.0),
    ("a^2", 1e200), ("a^1", -0.0), ("a^0", 0.0)])
def test_literal_powers_agree_on_the_float_array_and_jet_paths(text, x):
    """A literal power follows one rule on every path: the float evaluation,
    the array evaluation and the value of the jet, at one point or in a
    batch, give the tree walker's bits or its JetDomainError, which names the
    base also where the power overflows."""
    spec = parse(text)
    f = float_fn(spec, ("a",))
    expected = _outcome(oracles.eval_float, spec, {"a": x})
    assert _outcome(eval_float, spec, {"a": x}) == expected
    assert _outcome(f, x) == expected
    assert _outcome(lambda: f(np.array([1.0, x]))[1]) == expected
    for jet in (jets.variable(0, x, 1), jets.variables([[1.0, x]])[0]):
        assert _outcome(lambda: np.ravel(eval_jet(spec, {"a": jet}).value)[-1]) == expected


@_quiet
@pytest.mark.parametrize("text,x,scans", [
    ("a^2", 3.0, 1), ("a^0.5", 2.0, 1), ("a^400", 10.0, None), ("a^0.5", -1.0, None),
    ("(a * 1e300 * 1e300)^2", 1.0, None), ("(a * 1e300 * 1e300 - a * 1e300 * 1e300)^3", 1.0, None),
    ("(a^2)^1", 3.0, 2), ("(a^2)^1", 1e200, None), ("-a^2", 3.0, 2), ("-a^2", 1e200, None)])
def test_a_literal_power_at_the_root_scans_an_array_result_once(text, x, scans, monkeypatch):
    """float_fn over an array scans the result of a literal power at the root
    for finiteness once, in the power, and gives the float path's value bits
    or error at the element; other roots keep their own scan of the result."""
    spec = parse(text)
    expected = _outcome(oracles.eval_float, spec, {"a": x})
    finite, scanned = exprspec._finite, []
    monkeypatch.setattr(exprspec, "_finite", lambda a: scanned.append(1) or finite(a))
    f = float_fn(spec, ("a",))
    assert _outcome(lambda: f(np.array([1.0, x]))[1]) == expected
    assert isinstance(expected, tuple) == (scans is None)
    if scans is not None:
        assert len(scanned) == scans


def test_constant_spec_over_batched_arguments_is_a_batch():
    """A constant expression over a batch is the constant at each point, so
    every jet a batch evaluation returns has the batch's points."""
    batch = dict(zip(_NAMES, jets.variables([[0.5, 1.5], [1.0, 2.0], [0.0, 3.0]])))
    for text in ("2", "2 - 3"):
        jet = eval_jet(parse(text), batch, 3)
        assert jet.value.tolist() == [eval_float(parse(text), {})] * 2
        assert jet.grad.shape == (2, 3) and jet.hess.shape == (2, 3, 3)
        assert not jet.grad.any() and not jet.hess.any()


def test_float_fn_takes_one_variable():
    with pytest.raises(ValueError):
        float_fn(parse("u*v"))
    with pytest.raises(ValueError):
        float_fn(parse("2"))


def test_each_spec_is_compiled_once_whatever_the_newton_steps(tmp_path, monkeypatch):
    """A one-resolution variational case compiles each spec it evaluates once:
    f, g and their first two partials in the hodograph solves, each psi and the
    factor; more grid nodes mean more Newton steps and no more compiling."""
    compiled = []
    compile_spec = exprspec._compile

    def counting(spec):
        compiled.append(spec)
        return compile_spec(spec)

    monkeypatch.setattr(exprspec, "_compile", counting)
    for n in (9, 17):
        compiled.clear()
        case = {"source": {"f": "u^2", "g": "v^2", "config": {"seed": [1.5, 3.5]},
                           "t_window": [9.75, 10.25], "x_window": [-14.75, -14.25]},
                "resolutions": [n], "psi": ["s", "s^3"], "factors": ["p/q"]}
        data = {"name": "m", "paper_anchor": "t", "kind": "variational", "cases": [case]}
        assert cli.run_scenario(data, tmp_path, seed=1)[1] == cli.EXIT_PASS
        assert sorted(map(str, compiled)) == [
            "(2.0 * (u ^ 0.0))", "(2.0 * (u ^ 1.0))", "(2.0 * (v ^ 0.0))",
            "(2.0 * (v ^ 1.0))", "(p / q)", "(s ^ 3.0)", "(u ^ 2.0)", "(v ^ 2.0)", "s"]


def test_compiled_closure_lives_and_dies_with_its_spec():
    spec = parse("exp(u)*u^3 - sin(u)/(2 + u^2) + sqrt(u + 4)")
    assert eval_float(spec, {"u": 0.5}) == oracles.eval_float(spec, {"u": 0.5})
    closure, owner = weakref.ref(spec._compiled), weakref.ref(spec)
    assert spec._compiled is closure()
    del spec
    gc.collect()
    assert owner() is None and closure() is None


def test_float_fn_takes_values_in_the_order_of_names():
    """Positional evaluation matches eval_float bit for bit, whatever the
    order of ``names`` and whatever names the spec does not use; binding does
    not compile the spec."""
    spec = parse("a - 2*b^3 + sin(c)/a")
    f = float_fn(spec, ("c", "z", "a", "b"))
    assert "_compiled" not in spec.__dict__
    for a, b, c in [(0.5, -1.25, 3.0), (-0.0, 2.0, 1e-300), (np.float64(1.5), 2, -7.5)]:
        assert _outcome(f, c, 99.0, a, b) == _outcome(
            eval_float, spec, {"a": a, "b": b, "c": c})


def test_float_fn_raises_what_eval_float_raises():
    """A variable missing from ``names`` raises eval_float's ValueError when
    the evaluation reaches it, and not before; a non-finite result is a
    JetDomainError("eval", ...)."""
    spec = parse("log(a) + d")
    f = float_fn(spec, ("a", "b"))
    assert _outcome(f, -1.0, 0.0) == _outcome(eval_float, spec, {"a": -1.0}) == (
        JetDomainError, JetDomainError("log", -1.0).args)
    assert _outcome(f, 1.0, 0.0) == _outcome(eval_float, spec, {"a": 1.0}) == (
        ValueError, ("missing variable 'd'",))
    huge = parse("a * 1e300 * 1e300")
    assert _outcome(float_fn(huge, ("a",)), 1.0) == _outcome(eval_float, huge, {"a": 1.0}) == (
        JetDomainError, JetDomainError("eval", float("inf")).args)
    assert _outcome(float_fn(parse("2"), ())) == _bits(2.0)


def test_random_expressions_draw_what_rng_choice_draws():
    """Each integer-index draw, replayed from the generator's words, picks the
    item rng.choice would, and written back leaves the generator in the same
    state; the tree drawn is the one parsed from the text drawn, also at
    depth 0 and over other names."""
    for names in (_NAMES, ("p", "q")):
        for seed in range(200):
            for depth in range(5):
                ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
                draws = cli._Replay(ours)
                assert cli._random_expression(draws, list(names), depth) == parse(
                    oracles.random_expression(reference, list(names), depth)).ast
                draws.write_back()
                assert ours.bit_generator.state == reference.bit_generator.state


def _parsed_expression(rng, names, depth):
    """The tree of ``oracles.random_expression``'s text."""
    return parse(oracles.random_expression(rng, names, depth)).ast


@pytest.mark.parametrize("seed", [*range(30), 110, 7, 20240801])
def test_c11_draws_the_expressions_of_rng_uniform_and_rng_choice(seed):
    """c11's attempts, replayed from the words of its scenario RNG, draw the
    same expression trees and points through ``random()`` and integer-index
    draws as the text drawn through ``rng.uniform()`` and ``rng.choice``
    parses to, and written back leave the generator in the same state."""
    def attempt(rng, draw):  # one attempt of cli._run_ad_case: tree and point
        depth = int(rng.integers(1, 4))
        return draw(rng, ["a", "b", "c"], depth), rng.uniform(0.4, 1.6, size=3).tobytes()

    ours, reference = (cli._scenario_rng(seed, "c11_jet_convergence") for _ in range(2))
    draws = cli._Replay(ours)
    for _ in range(600):  # more attempts than c11 makes for its 500 expressions
        assert (attempt(draws, cli._random_expression)
                == attempt(reference, _parsed_expression))
    draws.write_back()
    assert ours.bit_generator.state == reference.bit_generator.state


def _probe_outcome(spec, point, steps):
    """The bits of the ad case's gradient and Hessian quotients at each step,
    from its stencil values at ``point`` as one row of a block, or the class
    and args of what evaluating the stencil raised."""
    try:
        values = oracles.stencil_values(spec, list(_NAMES), np.array(point),
                                        cli._stencil(3, steps))
    except Exception as err:  # every outcome is compared, errors included
        return type(err), err.args
    return [(q[0, :3].tobytes(), q[0, 3:].tobytes())
            for q in cli._quotients(values[None], 3, steps)]


def _name_keyed_outcome(spec, point, steps):
    """The name-keyed probe at each step in turn: the bits of its gradients
    and Hessians, or the first error, at step 1's 19 points, then step 2's."""
    outcomes = []
    for h in steps:
        try:
            grad, hess = oracles.fd_probe(spec, list(_NAMES), np.array(point), h)
        except Exception as err:  # every outcome is compared, errors included
            return type(err), err.args
        outcomes.append((grad.tobytes(), hess.tobytes()))
    return outcomes


_step = st.floats(cli._FORMAT["ad case"]["steps"].low, cli._FORMAT["ad case"]["steps"].high)
_steps = st.one_of(st.sampled_from([(1e-3, 5e-4), (5e-4, 1e-3), (0.25, 1e-6)]),
                   st.tuples(_step, _step))


@_quiet
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 3),
       point=st.tuples(*[st.floats(0.4, 1.6)] * 3), steps=_steps)
# a step whose 4 * h * h is not 4 * h**2
@example(seed=0, depth=2, point=(0.7, 1.1, 1.3), steps=(0.008347638211204484, 5e-3))
@settings(derandomize=True, max_examples=400, deadline=None)
def test_fd_probe_matches_the_name_keyed_probe(seed, depth, point, steps):
    """On the ad scenario's random expressions, at its default steps and any
    others in the ad case's range, the block quotients' gradient and Hessian
    at each step are those of evaluating every stencil point by name, bit for
    bit and sign bits included."""
    spec = parse(oracles.random_expression(np.random.default_rng(seed), list(_NAMES), depth))
    assert _probe_outcome(spec, point, steps) == _name_keyed_outcome(spec, point, steps)


@_quiet
@pytest.mark.parametrize("spec", _HOSTILE)
@given(point=_point, steps=_steps)
@example(point=(-0.0, 1.0, -0.0), steps=(1e-3, 5e-4))
@settings(derandomize=True, max_examples=20, deadline=None)
def test_fd_probe_matches_the_name_keyed_probe_on_hostile_specs(spec, point, steps):
    """The first failing stencil point, in the order of step 1's 19 points,
    then step 2's, raises the same error; -0.0 coordinates keep their sign."""
    assert _probe_outcome(spec, point, steps) == _name_keyed_outcome(spec, point, steps)


# -- a round of random expressions against each evaluated alone ---------------------------

# Trees of a constant only and of a bare variable, beside the drawn ones
_LEAVES = [Num(1.25), Var("c"), Neg(Var("a")), Bin("/", Num(2.0), Bin("+", Num(2.5), Call(
    "sin", Num(0.7)))), Bin("*", Num(0.5), Var("b")), Bin("-", Num(0.3), Var("a")),
    Bin("^", Call("log", Bin("+", Num(3.5), Call("sin", Num(1.5)))), Num(3.0))]


def _alone(trees, points, steps) -> list:
    """Each tree's row from its expression evaluated alone: the bytes of its
    jet's value, gradient and Hessian (``eval_jet``) and of its stencil values
    (``oracles.stencil_values``), or the class of what that raised."""
    stencil, rows = cli._stencil(3, steps), []
    for tree, point in zip(trees, points):
        spec = ExprSpec(tree, _NAMES)
        try:
            jet = eval_jet(spec, dict(zip(_NAMES, jets.variables(point))), k=3)
            values = oracles.stencil_values(spec, list(_NAMES), np.array(point), stencil)
        except Exception as err:  # every outcome is compared, errors included
            rows.append(type(err))
            continue
        exact = np.concatenate(([jet.value], jet.grad, jet.hess.ravel()))
        rows.append((exact.tobytes(), values.tobytes()))
    return rows


def _together(trees, points, steps) -> list:
    """The same rows from one ``exprspec.Round`` of all the trees."""
    stencil, table = cli._stencil(3, steps), exprspec.Round(_NAMES)
    for tree in trees:
        table.add(tree)
    exact, values = np.empty((len(trees), 13)), np.empty((len(trees), stencil.shape[1]))
    table.rows(np.array(points, dtype=float).reshape(-1, 3), stencil, exact, values)
    return [(e.tobytes(), v.tobytes()) for e, v in zip(exact, values)]


def _c11_attempts(seed: int, steps) -> tuple[list, list]:
    """The trees and points of c11's first 500 attempts at ``seed`` that are
    admissible alone at ``steps``, with ``_LEAVES`` at the first points."""
    rng = cli._scenario_rng(seed, "c11_jet_convergence")
    trees, points = zip(*(cli._attempt(rng, list(_NAMES)) for _ in range(500)))
    trees, points = _LEAVES + list(trees), list(points[:len(_LEAVES)]) + list(points)
    admissible = [type(row) is tuple for row in _alone(trees, points, steps)]
    return ([t for t, ok in zip(trees, admissible) if ok],
            [p for p, ok in zip(points, admissible) if ok])


@pytest.mark.parametrize("seed", [*range(30), 110, 7, 20240801])
def test_a_round_gives_each_row_of_its_expressions_alone(seed):
    """c11's expressions at its bundled steps, all admissible alone: the
    round's value, gradient, Hessian and 37 stencil values of every row are
    those of evaluating its expression alone, bit for bit."""
    steps = [1e-2, 5e-3]
    trees, points = _c11_attempts(seed, steps)
    assert len(trees) == 500 + len(_LEAVES)
    assert _together(trees, points, steps) == _alone(trees, points, steps)


@pytest.mark.parametrize("steps", [[1e-3, 5e-4], [5e-4, 1e-3], [0.25, 1e-6]])
@pytest.mark.parametrize("seed", [3, 110])
def test_a_round_at_other_steps_gives_each_row_of_its_expressions_alone(seed, steps):
    trees, points = _c11_attempts(seed, steps)
    assert len(trees) > 450
    assert _together(trees, points, steps) == _alone(trees, points, steps)


@_quiet
@given(draws=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 4), _point),
                      min_size=1, max_size=8),
       hostile=st.one_of(st.none(), st.sampled_from(_HOSTILE)), steps=_steps)
@settings(derandomize=True, max_examples=300, deadline=None)
def test_a_round_raises_or_gives_each_row_of_its_expressions_alone(draws, hostile, steps):
    """On ``cli._random_expression`` trees of depth 0 to 4 (a leaf at depth
    0: a constant or a bare variable), at points that reach the guards, and
    with a hostile spec among them: where each expression alone gives a row,
    the round gives those rows bit for bit, unless it holds a power with an
    expression exponent, which it refuses; where one raises, so does the
    round."""
    trees = [cli._random_expression(np.random.default_rng(seed), list(_NAMES), depth)
             for seed, depth, _ in draws]
    points = [point for _, _, point in draws]
    if hostile is not None:
        trees.insert(len(trees) // 2, hostile.ast)
        points.insert(len(points) // 2, points[0])
    alone = _alone(trees, points, steps)
    try:
        together = _together(trees, points, steps)
    except Exception as err:  # any error: the ad case reruns the round
        assert "expression exponent" in str(err) or not all(type(r) is tuple for r in alone)
    else:
        assert together == alone


@_quiet
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 4), point=_point, steps=_steps)
@settings(derandomize=True, max_examples=500, deadline=None)
def test_a_round_of_one_raises_exactly_where_its_expression_alone_raises(seed, depth, point,
                                                                          steps):
    """The converse for a round of one, as the ad case evaluates each attempt
    of a round that raised: on ``cli._random_expression`` trees of depth 0 to
    4, at points that reach the guards, the round raises an EvaluationError
    exactly where the expression alone raises one, and otherwise gives its
    row bit for bit."""
    tree = cli._random_expression(np.random.default_rng(seed), list(_NAMES), depth)
    alone = _alone([tree], [point], steps)
    if type(alone[0]) is tuple:
        assert _together([tree], [point], steps) == alone
    else:
        assert issubclass(alone[0], EvaluationError), alone[0]
        with pytest.raises(EvaluationError):
            _together([tree], [point], steps)


def test_a_round_refuses_a_power_with_an_expression_exponent():
    """The round takes literal powers only; the ad case draws no other."""
    with pytest.raises(ValueError, match="expression exponent"):
        exprspec.Round(_NAMES).add(parse("a ^ b").ast)
