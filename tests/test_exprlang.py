import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltacalc.errors import ExpressionError, ParseError
from deltacalc.exprlang import (
    Bin,
    Call,
    Delta,
    Neg,
    Num,
    Var,
    lift,
    parse,
    parse_expression,
    render,
    to_real_function,
)
from deltacalc.rewrite import (
    CompTerm,
    DeltaTerm,
    ProductTerm,
    ScaleTerm,
    SmoothTerm,
    SumTerm,
)
from deltacalc.vfun import RealFunction


# -- parsing ---------------------------------------------------------------

def test_parse_number_and_variable():
    assert parse("3.5") == Num(3.5)
    assert parse("x") == Var()


def test_precedence():
    assert parse("1+2*3") == Bin("+", Num(1.0), Bin("*", Num(2.0), Num(3.0)))
    assert parse("(1+2)*3") == Bin("*", Bin("+", Num(1.0), Num(2.0)), Num(3.0))


def test_power_right_associative():
    assert parse("x^2^3") == Bin("^", Var(), Bin("^", Num(2.0), Num(3.0)))


def test_unary_minus():
    assert parse("-x^2") == Neg(Bin("^", Var(), Num(2.0)))
    assert parse("2*-x") == Bin("*", Num(2.0), Neg(Var()))


def test_function_calls():
    assert parse("sin(cos(x))") == Call("sin", Call("cos", Var()))
    assert parse("abs(x-1)") == Call("abs", Bin("-", Var(), Num(1.0)))


def test_delta_and_ddelta():
    assert parse("delta(x-2)") == Delta(Bin("-", Var(), Num(2.0)), 0)
    assert parse("ddelta(x,2)") == Delta(Var(), 2)


def test_nested_delta_rejected():
    with pytest.raises(ParseError, match="nested"):
        parse("delta(delta(x))")
    with pytest.raises(ParseError, match="nested"):
        parse("delta(1+ddelta(x,1))")


def test_parse_error_position_and_expected():
    with pytest.raises(ParseError) as e:
        parse("1+*2")
    assert e.value.position == 2
    assert "number" in e.value.expected


def test_trailing_garbage():
    with pytest.raises(ParseError, match="trailing"):
        parse("x x")


def test_empty_input():
    with pytest.raises(ParseError):
        parse("   ")


def test_unknown_name():
    with pytest.raises(ParseError, match="unknown name"):
        parse("tan(x)")


def test_ddelta_order_must_be_integer():
    with pytest.raises(ParseError):
        parse("ddelta(x,1.5)")


@pytest.mark.parametrize("text, position", [("ddelta(x,256)", 9), ("ddelta(x-1, 1e20)", 12)])
def test_ddelta_order_is_at_most_255(text, position):
    # 16^255 is the largest power of the lowest rank that is a finite float.
    assert parse("ddelta(x,255)") == Delta(Var(), 255)
    with pytest.raises(ParseError, match="above 255") as info:
        parse(text)
    assert info.value.position == position


# -- round trip ------------------------------------------------------------

CORPUS = [
    "x", "3", "-7", "0.5", "1e3", "x+1", "x-1", "1-x", "x*x", "x/2",
    "x^2", "x^3-4*x", "-x", "-(x+1)", "2*-x", "x--1",
    "sin(x)", "cos(2*x)", "exp(-x)", "atan(x/3)", "abs(x)",
    "sin(x)+cos(x)", "sin(x)*cos(x)", "sin(x)^2", "exp(x^2)",
    "delta(x)", "delta(x-2)", "delta(x+3)", "delta(2*x)",
    "delta(x^2-4)", "delta(sin(x)+2)", "delta(3*x)", "delta(x^2+1)",
    "ddelta(x,1)", "ddelta(x,2)", "ddelta(x-1,1)", "ddelta(x+2,3)",
    "0.5*delta(x)", "-delta(x)", "delta(x)+3", "delta(x)-delta(x-1)",
    "cos(x)*delta(x^2-4)", "delta(x-2)*sin(x)", "x^2*ddelta(x,1)",
    "delta(x)/2", "(x^2+5)*delta(x-2)", "delta(x)*3",
    "1/(1+x^2)", "x*cos(x)", "exp(-x^2/4)", "2+0.5*x-0.1*x^3",
]


def _more_corpus():
    out = []
    for a in ("1", "x", "sin(x)", "x^2"):
        for b in ("2", "x", "cos(x)", "x+1"):
            for op in "+-*/":
                out.append(f"{a}{op}{b}")
    for shift in ("", "-1", "+2", "-0.5"):
        for k in ("", ",1", ",2"):
            head = "ddelta" if k else "delta"
            out.append(f"{head}(x{shift}{k})")
    for inner in ("x^2-1", "2*x+1", "sin(x)", "exp(x)-1"):
        out.append(f"delta({inner})")
        out.append(f"cos(x)*delta({inner})")
    for f in ("sin", "cos", "exp", "atan", "abs"):
        for arg in ("x", "2*x", "x^2", "x-1", "-x", "x/3", "sin(x)"):
            out.append(f"{f}({arg})")
            out.append(f"{f}({arg})+1")
    # Powers whose exponent varies: their derivatives hold log.
    out += ["x^x", "2^x", "x^(1+x)", "exp(x)^sin(x)", "(x^2+1)^x"]
    return out


FULL_CORPUS = CORPUS + _more_corpus()


def test_corpus_is_big_enough():
    assert len(FULL_CORPUS) >= 200


@pytest.mark.parametrize("text", FULL_CORPUS)
def test_round_trip(text):
    tree = parse(text)
    assert parse(render(tree)) == tree


_leaf = st.sampled_from([Num(0.0), Num(1.0), Num(2.5), Num(13.0), Var()])


def _trees(depth):
    if depth == 0:
        return _leaf
    sub = _trees(depth - 1)
    return st.one_of(
        _leaf,
        st.builds(Neg, sub),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "atan", "abs"]),
                  sub),
        st.builds(Bin, st.sampled_from(list("+-*/^")), sub, sub),
    )


@given(_trees(3))
@settings(max_examples=150, deadline=None)
def test_round_trip_property(tree):
    assert parse(render(tree)) == tree


# -- compilation -----------------------------------------------------------

def test_to_real_function_values_and_derivatives():
    f = to_real_function(parse("sin(2*x)+x^3"))
    assert abs(f(0.5) - (math.sin(1.0) + 0.125)) < 1e-15
    assert abs(f.deriv_value(1, 0.5) - (2.0 * math.cos(1.0) + 0.75)) < 1e-12
    assert abs(f.deriv_value(2, 0.0) - 0.0) < 1e-12


def test_abs_compiles_without_derivatives():
    f = to_real_function(parse("abs(x)"))
    assert f.smoothness == 0
    assert f(-2.0) == 2.0


def test_shapes_are_compiled_once_and_keep_their_constants():
    from deltacalc.exprlang import _factories

    xs = np.array([-1.0, 0.5, 2.0])
    f = to_real_function(parse("2*x+1"))
    misses = _factories.cache_info().misses
    g = to_real_function(parse("3*x+5"))
    assert _factories.cache_info().misses == misses
    assert (f(2.0), g(2.0)) == (5.0, 11.0)
    assert f(xs).tolist() == [-1.0, 2.0, 5.0] and g(xs).tolist() == [2.0, 6.5, 11.0]


def test_shapes_keep_shared_and_signed_constants_apart():
    from deltacalc.exprlang import _Shape

    # 2*x+2 shares one constant, 2*x+3 has two: two shapes.
    assert _Shape(parse("2*x+2")).source != _Shape(parse("2*x+3")).source
    assert to_real_function(parse("2*x+2"))(1.0) == 4.0
    assert to_real_function(parse("2*x+3"))(1.0) == 5.0
    # -0.0 - x*0.0 is -0.0 at x = 1; either zero for both leaves gives 0.0.
    tree = Bin("-", Num(-0.0), Bin("*", Var(), Num(0.0)))
    assert len(_Shape(tree).values) == 2
    f = to_real_function(tree)
    assert math.copysign(1.0, f(1.0)) == -1.0
    assert math.copysign(1.0, f(np.array([1.0]))[0]) == -1.0
    for zero in (0.0, -0.0, 0.0):
        assert math.copysign(1.0, to_real_function(Bin("*", Var(), Num(zero)))(1.0)) == \
            math.copysign(1.0, zero)


def test_pointwise_mark_does_not_leak_between_exponents():
    from deltacalc.exprlang import _Shape

    assert _Shape(parse("(x-1)^2")).source == _Shape(parse("(x-1)^2.5")).source
    xs = np.array([0.0, 2.0])
    for _ in range(2):
        square = to_real_function(parse("(x-1)^2"))
        assert square(0.0) == 1.0 and square(xs).tolist() == [1.0, 1.0]
        root = to_real_function(parse("(x-1)^2.5"))
        with pytest.raises(ExpressionError, match="not real"):
            root(0.0)
        out = root(xs)
        assert np.isnan(out[0]) and out[1] == 1.0
        cube = to_real_function(parse("(x-1)^3"))
        assert cube(0.0) == -1.0 and cube(xs).tolist() == [-1.0, 1.0]


POWERS = (-3, -2, -1, 0, 1, 2, 3, 4, 7)
SPECIAL_BASES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def _power(k):
    return to_real_function(Bin("^", Var(), Num(float(k))))


def _bases(sign):
    rng = np.random.default_rng(29)
    return sign * np.concatenate([rng.uniform(0.1, 1.0, 400), rng.uniform(1.0, 40.0, 400),
                                  [0.5, 1.0, 2.0, 3.0, 10.0]])


@pytest.mark.parametrize("k", POWERS)
def test_array_power_takes_the_power_of_abs_and_the_sign_of_odd_powers(k):
    xs = np.concatenate([_bases(-1.0), _bases(1.0), SPECIAL_BASES])
    with np.errstate(divide="ignore"):
        out = _power(k)(xs)
        magnitude = np.abs(xs) ** k
        # ±0, ±inf and nan read as numpy's power of the signed base does.
        plain = SPECIAL_BASES ** k
    want = np.copysign(magnitude, xs) if k % 2 else magnitude
    assert out.tobytes() == want.tobytes()
    tail = out[-len(SPECIAL_BASES):]
    assert np.array_equal(tail, plain, equal_nan=True)
    assert np.array_equal(np.signbit(tail[:-1]), np.signbit(plain[:-1]))


@pytest.mark.parametrize("k", POWERS)
def test_array_power_keeps_numpys_bits_on_nonnegative_bases(k):
    xs = np.concatenate([_bases(1.0), [0.0, np.inf]])
    with np.errstate(divide="ignore"):
        assert _power(k)(xs).tobytes() == (xs ** float(k)).tobytes()


@pytest.mark.parametrize("k", POWERS)
def test_array_power_is_within_an_ulp_of_the_float_path(k):
    f = _power(k)
    xs = np.concatenate([_bases(-1.0), _bases(1.0)])
    scalar = np.array([f(x) for x in xs.tolist()])
    # The float path is Python's ** itself.
    assert scalar.tobytes() == np.array([x ** float(k) for x in xs.tolist()]).tobytes()
    assert np.all(np.abs(f(xs) - scalar) <= np.spacing(np.abs(scalar)))
    if k < 0:
        with pytest.raises(ExpressionError, match="negative power"):
            f(0.0)
    if k >= 3:
        with pytest.raises(ExpressionError, match="out of range"):
            f(-1e200)


def test_derivative_of_a_difference_reads_no_zero_subtrahend():
    from deltacalc.exprlang import _diff, _share, _Shape

    w, p = 1.3717, 0.7961
    tree = parse(f"cos({w}*x-{p})")
    second = _Shape(_diff(_share(_diff(_share(tree)))))
    assert second.values == [w, p] and len(second.lines) == 6
    f = to_real_function(tree)
    xs = [-1.0, 0.0, 0.3, 2.5]
    pinned = [1.0577513791461925, -1.3161501351546394, -1.7441172585816007,
              1.643550418148623]
    assert [f.deriv_value(2, x) for x in xs] == pinned
    assert f.nth_deriv(2)(np.array(xs)).tolist() == pinned


def test_quotient_rule_reads_no_zero_subtrahend():
    from deltacalc.exprlang import _diff, _Shape

    # d(x/3) = (1*3 - 3*0) / 3^2 keeps neither the zero nor its 1.
    assert _Shape(_diff(parse("x/3"))).values == [3.0, 2.0]
    f = to_real_function(parse("x/3"))
    assert [f.deriv_value(1, x) for x in (-2.0, 0.0, 5.0)] == [3.0 / 3.0 ** 2] * 3


def test_smoothness_comes_from_the_compiling_walk():
    f = to_real_function(parse("x^x"))
    assert f.smoothness == math.inf and f.nth_deriv is not None
    # d/dx x^x = x^x (ln x + 1): exactly 1 at x = 1, by its rule.
    assert f.deriv_value(1, 1.0) == 1.0
    assert to_real_function(parse("x^x*abs(x)")).smoothness == 0
    assert to_real_function(parse("x^2*x^3")).nth_deriv is not None


@pytest.mark.parametrize("k", [1, 2])
def test_derivatives_fail_where_their_tree_fails(k):
    # x^x raises at -0.5 (a complex value), and so does its derivative,
    # which takes log(-0.5); at 0 log has its pole.  No raw ValueError
    # from math.log leaves the function; on an array both points read nan.
    f = to_real_function(parse("x^x"))
    df = f.derivative(k)
    with pytest.raises(ExpressionError, match="not real"):
        f(-0.5)
    with pytest.raises(ExpressionError, match="not real"):
        df(-0.5)
    with pytest.raises(ExpressionError, match="log of zero"):
        df(0.0)
    values = df(np.array([-0.5, 0.0, 1.0]))
    assert np.isnan(values[:2]).all() and values[2] == float(k)


def test_constant_exponent_that_is_not_a_number_takes_the_power_rule():
    # x^(1+1) is defined at 0, and so is its derivative 2x: no division by
    # the base, on floats and on arrays.
    df = to_real_function(parse("x^(1+1)")).derivative(1)
    assert df(0.0) == 0.0 and df(0.5) == 1.0
    assert df(np.array([0.0, 0.5])).tolist() == [0.0, 1.0]


def test_zero_base_differentiates_to_zero():
    # 0^x is 0 for x > 0: its derivative takes no log of 0.
    df = to_real_function(parse("0^x")).derivative(1)
    assert df(0.5) == 0.0 and df(2.0) == 0.0
    assert df(np.array([0.5, 2.0])).tolist() == [0.0, 0.0]


def test_shape_cache_is_bounded():
    from deltacalc.exprlang import _factories

    for i in range(1, 300):
        assert to_real_function(parse("+".join(["x"] * i)))(1.0) == i
    info = _factories.cache_info()
    assert info.maxsize == 256 and info.currsize <= 256


def test_quotient_derivative():
    f = to_real_function(parse("1/(1+x^2)"))
    assert abs(f.deriv_value(1, 1.0) + 0.5) < 1e-12


# -- lifting ---------------------------------------------------------------

def test_lift_smooth_expression():
    out = lift(parse("sin(x)+2"))
    assert isinstance(out, RealFunction)


def test_lift_shift_patterns():
    assert parse_expression("delta(x)") == DeltaTerm(0, 0.0)
    assert parse_expression("delta(x-2)") == DeltaTerm(0, 2.0)
    assert parse_expression("delta(x+3)") == DeltaTerm(0, -3.0)
    assert parse_expression("ddelta(x-1,2)") == DeltaTerm(2, 1.0)


def test_lift_general_inner_becomes_composition():
    out = parse_expression("delta(x^2-4)")
    assert isinstance(out, CompTerm)
    assert abs(out.inner(3.0) - 5.0) < 1e-15


def test_lift_scale_and_sum():
    out = parse_expression("0.5*delta(x)")
    assert out == ScaleTerm(0.5, DeltaTerm(0, 0.0))
    out = parse_expression("delta(x)+3")
    assert isinstance(out, SumTerm)
    assert isinstance(out.parts[0], DeltaTerm)
    assert isinstance(out.parts[1], SmoothTerm)


def test_lift_product():
    out = parse_expression("cos(x)*delta(x-2)")
    assert isinstance(out, ProductTerm)
    assert out.delta == DeltaTerm(0, 2.0)
    assert abs(out.f(0.0) - 1.0) < 1e-15


def test_lift_division_by_constant():
    out = parse_expression("delta(x)/2")
    assert isinstance(out, ProductTerm)
    assert out.f(123.0) == 0.5


def test_lift_rejects_delta_products():
    with pytest.raises(ExpressionError, match="contraction"):
        parse_expression("delta(x)*delta(x-1)")


def test_lift_rejects_delta_powers_and_divisors():
    with pytest.raises(ExpressionError):
        parse_expression("delta(x)^2")
    with pytest.raises(ExpressionError):
        parse_expression("1/delta(x)")


def test_lift_rejects_delta_inside_function():
    with pytest.raises(ExpressionError):
        parse_expression("sin(delta(x))")


def test_ddelta_requires_shift_pattern():
    with pytest.raises(ExpressionError, match="x, x-a, or x\\+a"):
        parse_expression("ddelta(x^2,1)")


@pytest.mark.parametrize("text,order,shift", [
    ("ddelta(-1+x,1)", 1, 1.0), ("ddelta(x+-1,1)", 1, 1.0),
    ("ddelta(x-(1+1),1)", 1, 2.0), ("delta(2+x)", 0, -2.0),
    ("ddelta(x-2*0.25,2)", 2, 0.5), ("delta(x-1/4)", 0, 0.25)])
def test_lift_folded_shift_forms(text, order, shift):
    assert parse_expression(text) == DeltaTerm(order, shift)


def test_parse_stays_syntactic_and_lift_folds():
    assert parse("2-2") == Bin("-", Num(2.0), Num(2.0))
    assert parse("-3") == Neg(Num(3.0))
    assert parse_expression("2*3*delta(x)") == ScaleTerm(6.0, DeltaTerm(0, 0.0))
    assert parse_expression("-0.5*delta(x)") == ScaleTerm(-0.5, DeltaTerm(0, 0.0))
    for text in ("delta(x)+0*x", "delta(x)+x*0", "delta(x)+(2-2)*x",
                 "delta(x)+0/(x+3)"):
        out = parse_expression(text)
        assert out.parts[1].f.label == "0", text
    # Folding keeps a label that reads like the source.
    assert to_real_function(parse("x^(-2)")).label == "x^(-2)"
    assert lift(parse("x^(-2)")).label == "x^(-2)"
    # No fold where the value would not be a finite real.
    for text in ("1/0", "(-8)^(1/3)", "10^400", "0/0"):
        assert isinstance(lift(parse(text)), RealFunction)
    with pytest.raises(ExpressionError):
        lift(parse("1/0"))(1.0)


def test_lift_keeps_factor_derivatives():
    # The factors of a product multiply as trees, so the binomial rule
    # reads their symbolic derivatives, in either order.
    a = parse_expression("x*ddelta(x-1,3)*exp(x)")
    b = parse_expression("x*exp(x)*ddelta(x-1,3)")
    assert isinstance(a, ProductTerm) and a.f.label == "x*exp(x)"
    for k in range(4):
        assert a.f.deriv_value(k, 1.0) == b.f.deriv_value(k, 1.0)
    assert abs(a.f.deriv_value(3, 1.0) - 4.0 * math.e) < 1e-12


# -- compiled closures -------------------------------------------------------


from deltacalc.errors import DeltaCalcError  # noqa: E402
from deltacalc.exprlang import _diff  # noqa: E402


def _ref_log(v):
    # As `**` on floats: complex below 0; and a pole at 0.
    if v == 0:
        raise ZeroDivisionError("log of zero")
    return cmath.log(v) if v < 0 else math.log(v)


_REF_CALLS = {"sin": math.sin, "cos": math.cos, "exp": math.exp,
              "atan": math.atan, "abs": abs, "log": _ref_log}
_REF_SLOPES = {"sin": math.cos, "cos": lambda v: -math.sin(v), "exp": math.exp,
               "atan": lambda v: 1.0 / (1.0 + v * v),
               "abs": lambda v: 1.0, "log": lambda v: 1.0 / v}
_POINTS = (-2.3, -0.7, 0.0, 0.4, 1.0, 3.1)


def _ref_eval(node, x):
    """The recursive walk that compiled closures replace."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -_ref_eval(node.arg, x)
    if isinstance(node, Call):
        return _REF_CALLS[node.name](_ref_eval(node.arg, x))
    a, b = _ref_eval(node.left, x), _ref_eval(node.right, x)
    return {"+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
            "/": lambda: a / b, "^": lambda: a ** b}[node.op]()


def _ulp(v):
    return float(np.spacing(abs(v)))


def _ref_bound(node, x):
    """Value and first-order error bound of the array path: each ufunc or
    power may round differently from math by one ulp of its result, and
    that difference propagates through the operations above it."""
    if isinstance(node, Num):
        return node.value, 0.0
    if isinstance(node, Var):
        return x, 0.0
    if isinstance(node, Neg):
        v, e = _ref_bound(node.arg, x)
        return -v, e
    if isinstance(node, Call):
        v, e = _ref_bound(node.arg, x)
        out = _REF_CALLS[node.name](v)
        rounding = 0.0 if node.name == "abs" else _ulp(out)
        return out, abs(_REF_SLOPES[node.name](v)) * e + rounding
    (a, ea), (b, eb) = _ref_bound(node.left, x), _ref_bound(node.right, x)
    if node.op in "+-":
        out = a + b if node.op == "+" else a - b
        return out, ea + eb + (_ulp(out) if ea or eb else 0.0)
    if node.op == "*":
        out = a * b
        return out, abs(b) * ea + abs(a) * eb + (_ulp(out) if ea or eb else 0.0)
    if node.op == "/":
        out = a / b
        return out, (ea + abs(out) * eb) / abs(b) + (_ulp(out) if ea or eb else 0.0)
    out = a ** b
    slope_b = abs(out * math.log(abs(a))) if eb and a else 0.0
    slope_a = abs(b * a ** (b - 1.0)) if ea else 0.0
    return out, slope_a * ea + slope_b * eb + _ulp(out)


def _check_compiled(tree, fn):
    xs = np.array(_POINTS)
    try:
        with np.errstate(all="ignore"):
            array_out = fn(xs)
    except ArithmeticError:
        # Only a subtree free of x runs on floats, and it fails for every x.
        for x in _POINTS:
            with pytest.raises((ExpressionError, ValueError, TypeError)):
                fn(x)
        return
    assert array_out.shape == xs.shape
    for i, x in enumerate(_POINTS):
        try:
            want = float(_ref_eval(tree, x))
        except (ZeroDivisionError, OverflowError, TypeError):
            # TypeError: a complex value, which the engine refuses as such.
            with pytest.raises(ExpressionError):
                fn(x)
            continue
        except ValueError as exc:
            with pytest.raises(type(exc)):
                fn(x)
            continue
        got = fn(x)
        assert type(got) is float
        assert got.hex() == want.hex(), (render(tree), x)
        try:
            _v, bound = _ref_bound(tree, x)
        except (ArithmeticError, ValueError):
            continue  # a slope is infinite: no bound to hold to
        if math.isfinite(want) and math.isfinite(bound):
            assert abs(array_out[i] - want) <= 4.0 * bound, (render(tree), x)


@given(_trees(3))
@settings(max_examples=300, deadline=None)
# x^2.5 is complex at x < 0, so the base below is complex there and real
# elsewhere: its integer power is real where the base is, on an array too.
@example(Bin("^", Neg(Bin("^", Var(), Num(2.5))), Neg(Bin("*", Num(13.0), Num(13.0)))))
@example(Bin("^", Neg(Bin("^", Var(), Num(2.5))), Num(169.0)))
def test_compiled_matches_reference_walk(tree):
    _check_compiled(tree, to_real_function(tree).fn)


@pytest.mark.parametrize("text", ["abs(x^2.5)", "abs((x^2.5)^2.5)", "abs(13/x^2.5)",
                                  "x^2.5", "x^x", "exp(x)^0.5*cos(x)",
                                  "abs(sin(3*x)^0.5)*exp(-x)"])
def test_negative_base_to_fractional_power(text):
    # On floats (-2.3)^2.5 is complex and abs() makes it real again.  On an
    # array such a tree runs point by point on floats: the same bits, and
    # nan exactly where the float path raises.
    tree = parse(text)
    fn = to_real_function(tree).fn
    _check_compiled(tree, fn)
    assert np.isnan(fn(np.array(_POINTS))[0]) == text.startswith("x^")
    xs = np.linspace(-3.0, 3.0, 2001)
    out = fn(xs)
    assert out.dtype == float and out.shape == xs.shape
    for x, got in zip(xs.tolist(), out.tolist()):
        try:
            want = fn(x)
        except (ExpressionError, ValueError):
            assert math.isnan(got), (text, x)
            continue
        assert got.hex() == want.hex(), (text, x)


@pytest.mark.parametrize("text", [t for t in FULL_CORPUS if "delta" not in t])
def test_compiled_corpus_and_derivatives(text):
    tree = parse(text)
    f = to_real_function(tree)
    _check_compiled(tree, f.fn)
    chain = _eager_chain(tree) if f.smoothness == math.inf else []
    assert (f.nth_deriv is not None) == bool(chain)
    for k, d in enumerate(chain, start=1):
        _check_compiled(d, f.derivative(k).fn)


def test_scalar_arithmetic_error_is_expression_error():
    f = to_real_function(parse("1/(x-2)"))
    with pytest.raises(ExpressionError, match="1/"):
        f(2.0)
    g = to_real_function(parse("exp(x)"))
    with pytest.raises(DeltaCalcError):
        g(1000.0)
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        assert np.isinf(f(np.array([2.0])))[0]


def test_constant_tree_broadcasts_over_arrays():
    f = to_real_function(parse("2+3"))
    assert f(1.5) == 5.0
    assert f(np.zeros(4)).tolist() == [5.0] * 4


# -- derivative trees are built on demand ----------------------------------

def _eager_chain(tree, depth=5):
    """The derivative trees to `depth`, each derived as soon as the last."""
    trees = []
    try:
        for _ in range(depth):
            trees.append(_diff(trees[-1] if trees else tree))
    except ExpressionError:
        pass
    return trees


def _outcome(fn, x):
    try:
        return fn(x).hex()
    except DeltaCalcError as exc:
        return type(exc)


@pytest.mark.parametrize("text", [t for t in FULL_CORPUS if "delta" not in t])
def test_lazy_derivatives_equal_the_eager_chain(text):
    from deltacalc.exprlang import _compile

    tree = parse(text)
    f = to_real_function(tree)
    eager = _eager_chain(tree) if f.smoothness == math.inf else []
    assert (f.nth_deriv is not None) == bool(eager)
    xs = np.array(_POINTS)
    # Highest order first: it derives the orders below it on the way.
    for k, d in reversed(list(enumerate(eager, start=1))):
        deriv = f.derivative(k).fn
        want = _compile(d, "eager")
        with np.errstate(all="ignore"):
            assert np.array_equal(deriv(xs), want(xs), equal_nan=True), text
        assert [_outcome(deriv, x) for x in _POINTS] == \
            [_outcome(want, x) for x in _POINTS], text


def test_derivative_trees_wait_for_their_first_call(monkeypatch):
    from deltacalc import exprlang

    calls = []
    real = exprlang._diff

    def counting(node):
        calls.append(node)
        return real(node)

    monkeypatch.setattr(exprlang, "_diff", counting)
    comp = parse_expression("delta(x^3-2*x+1)")
    assert isinstance(comp, CompTerm) and comp.inner.nth_deriv is not None
    assert calls == []
    assert comp.inner.derivative(3)(0.5) == 6.0
    assert calls
    seen = len(calls)
    assert comp.inner.derivative(2)(0.5) == 3.0
    assert len(calls) == seen


def test_high_order_derivatives_are_derived_from_shared_trees(monkeypatch):
    # As a tree, the 10th derivative of a product of four factors has 71
    # million nodes: the product rule doubles its terms at every order.
    # Derived from trees whose equal subtrees are one object, it is made of
    # about 2,100 objects.
    from deltacalc import exprlang

    mpmath = pytest.importorskip("mpmath")
    compiled, real = [], exprlang._compile
    monkeypatch.setattr(exprlang, "_compile",
                        lambda node, label: compiled.append(node) or real(node, label))
    f = to_real_function(parse("exp(x)*sin(x)*cos(x)*atan(x)"))
    got = f.derivative(10)(0.3)
    seen, todo = set(), [compiled[-1]]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(f for f in vars(node).values() if isinstance(f, exprlang.Node))
    assert len(seen) < 3000
    with mpmath.workdps(30):
        want = float(mpmath.diff(lambda t: mpmath.exp(t) * mpmath.sin(t) * mpmath.cos(t)
                                 * mpmath.atan(t), 0.3, 10))
    assert abs(got - want) <= 1e-12 * abs(want)
