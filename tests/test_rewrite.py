import math

import numpy as np
import pytest

from deltacalc.errors import DeltaCalcError, ExpressionError, RewriteError, SmoothnessError
from deltacalc.exprlang import parse, to_real_function
from deltacalc.limits import DEFAULT_SCHEDULE
from deltacalc.rewrite import (
    STRONG,
    CompTerm,
    ContractionTerm,
    DeltaTerm,
    NormalForm,
    ProductTerm,
    ScaleTerm,
    SmoothTerm,
    SumTerm,
    check_equivalence,
    evaluate_normal_form,
    kernel_dependence_probe,
    reduce_expr_integral,
    rewrite_composition,
    rewrite_convolution,
    rewrite_deriv_product,
    rewrite_product,
    sift_battery,
    simplify,
    standard_battery,
)
from deltacalc.vintegral import _total
from deltacalc.roots import certify_hypotheses, find_simple_roots
from deltacalc.vfun import C_INF, RealFunction, const_function
from deltacalc.vintegral import derivative_schedule

#: n = 16 ... 4096: the ranks an order-1 kernel derivative keeps.
SHORT_SCHEDULE = tuple(derivative_schedule(DEFAULT_SCHEDULE, 1))


def _rf(fn, *derivs, label="g", smoothness=C_INF):
    return RealFunction(fn, derivs=tuple(derivs), smoothness=smoothness,
                        label=label)


X2M4 = _rf(lambda x: x * x - 4.0, lambda x: 2.0 * x, label="x^2-4")
COS = _rf(math.cos, lambda x: -math.sin(x), lambda x: -math.cos(x),
          label="cos")


# -- normal forms ----------------------------------------------------------

def test_terms_sorted_and_merged():
    nf = NormalForm.from_terms([(1.0, 0, 2.0), (0.5, 1, -1.0),
                                (2.0, 0, 2.0), (0.25, 0, -1.0)])
    assert nf.terms == ((0.25, 0, -1.0), (0.5, 1, -1.0), (3.0, 0, 2.0))


def test_zero_coefficients_drop_to_residual():
    nf = NormalForm.from_terms([(1.0, 0, 0.0), (-1.0, 0, 0.0)])
    assert nf.terms == ()
    assert nf.is_zero


@pytest.mark.parametrize("values, want", [
    ([1e308, 1e308, -1e308], 1e308),
    ([1e308, 1e308], math.inf),
    ([-1e308, -1e308, 1.0], -math.inf),
    # A finite sum stays the left-to-right one (the exact sum rounds to 0.6).
    ([0.1, 0.2, 0.3], 0.6000000000000001),
    ([math.inf, 1.0], math.inf),
])
def test_total(values, want):
    assert _total(values) == want


def test_total_keeps_signed_zero_and_nan():
    assert math.copysign(1.0, _total([-0.0])) == -1.0
    assert math.isnan(_total([math.inf, -math.inf]))


def test_render_uses_delta_glyph():
    nf = NormalForm.from_terms([(0.25, 0, 2.0), (0.25, 0, -2.0)])
    assert nf.render() == "0.25·δ(x+2) + 0.25·δ(x−2)"


def test_render_derivative_orders():
    nf = NormalForm.from_terms([(1.0, 1, 0.0), (2.0, 3, 0.0)])
    text = nf.render()
    assert "δ′(x)" in text and "δ^(3)(x)" in text


def test_json_shape():
    nf = NormalForm.from_terms([(1.5, 2, 0.5)], strength=("order", 2))
    payload = nf.to_json()
    assert payload["terms"] == [{"c": 1.5, "k": 2, "a": 0.5}]
    assert payload["strength"] == {"order": 2}


# -- composition rule ------------------------------------------------------

def test_composition_quadratic():
    nf = rewrite_composition(X2M4)
    assert nf.strength == STRONG
    assert len(nf.terms) == 2
    (c1, k1, a1), (c2, k2, a2) = nf.terms
    assert (k1, k2) == (0, 0)
    assert abs(a1 + 2.0) < 1e-10 and abs(a2 - 2.0) < 1e-10
    assert abs(c1 - 0.25) < 1e-10 and abs(c2 - 0.25) < 1e-10


def test_composition_linear_scaling():
    for a in (-10.0, -2.0, -0.5, 0.5, 2.0, 10.0):
        g = _rf(lambda x, a=a: a * x, lambda x, a=a: a, label=f"{a}x")
        nf = rewrite_composition(g)
        assert len(nf.terms) == 1
        c, k, loc = nf.terms[0]
        assert k == 0 and abs(loc) < 1e-10
        assert abs(c - 1.0 / abs(a)) < 1e-12


def test_composition_vanish():
    g = _rf(lambda x: math.sin(x) + 2.0, math.cos, label="sin x + 2")
    nf = rewrite_composition(g)
    assert nf.is_zero


def test_composition_refuses_uncertified():
    g = _rf(lambda x: x * x, lambda x: 2.0 * x, label="x^2")
    with pytest.raises(RewriteError, match="violated"):
        rewrite_composition(g)


def test_composition_refuses_scan_risk():
    g = _rf(math.exp, math.exp, label="exp(x)")
    cert = certify_hypotheses(g, [], window=(-20.0, 3.0))
    with pytest.raises(RewriteError, match="outside_scan_risk"):
        rewrite_composition(g, cert=cert)


def test_composite_cache_keys_on_the_inner_function(bump):
    # Each loop frees the last inner function: an id()-keyed cache would
    # hand its composite to the next one.
    for c in (1.0, 2.0, 4.0, 5.0, 8.0, 10.0):
        g = _rf(lambda x, c=c: c * x - 1.0, lambda x, c=c: c, label=f"{c:g}x-1")
        res = reduce_expr_integral(CompTerm(g), kernel=bump)
        assert res.reduced and abs(res.value - 1.0 / c) < 1e-9, c


# -- product rules ---------------------------------------------------------

def test_product_rule():
    nf = rewrite_product(COS, 0.0)
    assert nf.terms == ((1.0, 0, 0.0),)


def test_product_zero_coefficient():
    nf = rewrite_product(_rf(lambda x: x, label="x"), 0.0)
    assert nf.is_zero


def test_product_shifted():
    nf = rewrite_product(_rf(lambda x: x * x + 5.0, label="x^2+5"), 2.0)
    assert nf.terms == ((9.0, 0, 2.0),)


def test_product_rejects_undefined_point():
    f = _rf(lambda x: 1.0 / x, label="1/x")
    with pytest.raises(RewriteError):
        rewrite_product(f, 0.0)


def test_deriv_product_order_zero_degenerates():
    g = _rf(lambda x: x * x + 5.0, lambda x: 2.0 * x, label="x^2+5")
    assert rewrite_deriv_product(g, 0, 2.0).terms == \
        rewrite_product(g, 2.0).terms


def test_deriv_product_linear_g():
    g = _rf(lambda x: x, lambda x: 1.0, lambda x: 0.0, label="x")
    nf = rewrite_deriv_product(g, 1, 0.0)
    # x * delta'(x) rewrites to -delta(x); the delta' coefficient g(0)=0
    # drops out.
    assert nf.terms == ((-1.0, 0, 0.0),)
    assert nf.strength == ("order", 1)


def test_deriv_product_constant_g():
    g = const_function(3.0)
    nf = rewrite_deriv_product(g, 2, 0.0)
    assert nf.terms == ((3.0, 2, 0.0),)
    assert nf.strength == ("order", 2)


def test_deriv_product_smoothness_gate():
    kink = _rf(abs, label="|x|", smoothness=0)
    with pytest.raises(SmoothnessError):
        rewrite_deriv_product(kink, 1, 0.0)


def test_strength_merging():
    strong = rewrite_product(COS, 0.0)
    order1 = rewrite_deriv_product(
        _rf(lambda x: x, lambda x: 1.0, lambda x: 0.0, label="x"), 1, 0.0)
    combined = NormalForm.from_terms(
        list(strong.terms) + list(order1.terms),
        strength=("order", 1))
    assert combined.strength == ("order", 1)


# -- convolution rule ------------------------------------------------------

def test_convolution_rule(bump):
    nf = rewrite_convolution(bump, bump, a=1.5)
    assert nf.terms == ((1.0, 0, 1.5),)
    assert nf.kernel_binding is not None
    assert nf.kernel_binding.name == "convolution"


def test_convolution_rule_rejects_square(square, bump):
    with pytest.raises(SmoothnessError):
        rewrite_convolution(square, bump)


# -- evaluation ------------------------------------------------------------

def test_evaluate_normal_form_sifting():
    nf = rewrite_composition(X2M4)
    got = evaluate_normal_form(nf, COS)
    assert abs(got - math.cos(2.0) / 2.0) < 1e-10


def test_evaluate_normal_form_derivative_sign():
    nf = NormalForm.from_terms([(1.0, 1, 0.0)])
    f = _rf(lambda x: x, lambda x: 1.0, label="x")
    assert evaluate_normal_form(nf, f) == -1.0


def test_evaluate_smoothness_rejection():
    nf = NormalForm.from_terms([(1.0, 2, 0.0)])
    kink = _rf(abs, label="|x|", smoothness=0)
    with pytest.raises(SmoothnessError, match="order 2"):
        evaluate_normal_form(nf, kink)


# -- simplify over the AST -------------------------------------------------

def test_simplify_sum_and_scale():
    expr = SumTerm((
        ScaleTerm(2.0, DeltaTerm(0, 1.0)),
        DeltaTerm(0, -1.0),
    ))
    nf = simplify(expr)
    assert nf.terms == ((1.0, 0, -1.0), (2.0, 0, 1.0))


def test_simplify_names_every_smooth_summand():
    x = _rf(lambda x: x, label="x")
    sin = _rf(math.sin, label="sin(x)")
    one = SumTerm((DeltaTerm(), SmoothTerm(sin)))
    assert simplify(one).residual == "smooth summand sin(x)"
    nf = simplify(SumTerm((DeltaTerm(), SmoothTerm(x), SmoothTerm(sin))))
    assert nf.residual == "smooth summands x, sin(x)"
    assert nf.render() == "1·δ(x)  [+ not reducible: smooth summands x, sin(x)]"
    # The structural zero is no summand.
    zero = SumTerm((DeltaTerm(), SmoothTerm(const_function(0.0)), SmoothTerm(sin)))
    assert simplify(zero).residual == "smooth summand sin(x)"


def test_simplify_product_with_composition():
    expr = ProductTerm(COS, CompTerm(X2M4))
    nf = simplify(expr)
    got = sum(c for c, _k, _a in nf.terms)
    assert abs(got - 2.0 * (math.cos(2.0) / 4.0)) < 1e-10


def test_simplify_builds_one_normal_form(monkeypatch):
    # The rules give raw terms; merging, checking and trimming happen once,
    # for the whole expression.
    calls = []
    from_terms = NormalForm.from_terms
    monkeypatch.setattr(NormalForm, "from_terms", staticmethod(
        lambda *args, **kw: calls.append(args) or from_terms(*args, **kw)))
    expr = SumTerm((ProductTerm(COS, CompTerm(X2M4)),
                    ProductTerm(COS, DeltaTerm(2, 1.0)), DeltaTerm(1, 2.0)))
    nf = simplify(expr)
    assert len(calls) == 1
    assert nf.strength == ("order", 2)
    assert [(k, a) for _c, k, a in nf.terms] == [(0, -2.0), (0, 1.0), (1, 1.0),
                                                 (2, 1.0), (0, 2.0), (1, 2.0)]


def test_contraction_simplifies_to_a_delta_bound_to_the_convolution(bump):
    expr = ContractionTerm(bump, bump, 0.5)
    nf = simplify(expr)
    assert nf.terms == ((1.0, 0, 0.5),) and nf.strength == STRONG
    assert nf.kernel_binding.name == "convolution"
    res = reduce_expr_integral(expr, weight=np.cos)
    assert res.reduced and abs(res.value - math.cos(0.5)) < 1e-9


def test_product_term_rejects_double_delta():
    with pytest.raises(ExpressionError):
        ProductTerm(COS, ScaleTerm(1.0, DeltaTerm()))


# -- numeric cross-checks --------------------------------------------------

def test_symbolic_numeric_consistency(bump, square, mix):
    # Every certified composition must integrate (numerically, per kernel)
    # to the symbolic normal-form value.
    nf = rewrite_composition(X2M4)
    for kern in (bump, square, mix):
        for f in standard_battery()[:8]:
            sym = evaluate_normal_form(nf, f)
            res = reduce_expr_integral(CompTerm(X2M4), weight=f, kernel=kern)
            assert res.reduced
            assert abs(sym - res.value) <= 1e-5


def test_check_equivalence_consistent(bump):
    lhs = CompTerm(_rf(lambda x: 2.0 * x, lambda x: 2.0, label="2x"))
    rhs = ScaleTerm(0.5, DeltaTerm())
    verdict = check_equivalence(lhs, rhs, kernel=bump)
    assert verdict.variant == "consistent_equivalent"
    assert verdict.battery_size == 20
    assert verdict.max_deviation <= 1e-6


def test_check_equivalence_distinct(bump):
    verdict = check_equivalence(DeltaTerm(0, 0.0), DeltaTerm(0, 1.0),
                                kernel=bump)
    assert verdict.variant == "distinct"
    assert verdict.witness


def test_check_equivalence_irreducible_side(square):
    lhs = CompTerm(_rf(lambda x: x * x, lambda x: 2.0 * x, label="x^2"))
    rhs = SmoothTerm(const_function(0.0, label="0"))
    verdict = check_equivalence(lhs, rhs, kernel=square)
    assert verdict.variant == "irreducible_side"
    assert verdict.side == "lhs"


def test_order_filter_drops_kink(bump):
    # The kink |x|(1+0.5sin(3x)) is C0 only: order 1 checks the other 19.
    verdict = check_equivalence(DeltaTerm(), DeltaTerm(), kernel=bump, order=1,
                                schedule=SHORT_SCHEDULE)
    assert verdict.consistent and verdict.battery_size == 19


def test_member_not_finite_at_a_shift_is_skipped(bump):
    overflows = _rf(math.exp, math.exp, label="exp(x)")
    one = const_function(1.0, label="1")
    lhs = rhs = DeltaTerm(0, 800.0)
    verdict = check_equivalence(lhs, rhs, kernel=bump, battery=[overflows, one],
                                schedule=SHORT_SCHEDULE)
    assert verdict.consistent and verdict.battery_size == 1
    assert verdict.skipped == ("exp(x)",)
    assert verdict.to_json()["skipped"] == ["exp(x)"]
    # With no member left there is nothing to compare: refused.
    with pytest.raises(DeltaCalcError, match="no test function is finite at the shifts 800"):
        check_equivalence(lhs, rhs, kernel=bump, battery=[overflows],
                          schedule=SHORT_SCHEDULE)


def test_member_is_probed_only_when_its_integrals_fail(bump):
    # Rank integrals evaluate a member on arrays; the finiteness probe is
    # the only scalar call, and an ordinary query makes none.
    args = []
    cos = _rf(lambda x: args.append(x) or np.cos(x), label="cos")
    lhs = rhs = DeltaTerm(0, 3.0)
    verdict = check_equivalence(lhs, rhs, kernel=bump, battery=[cos],
                                schedule=SHORT_SCHEDULE)
    assert verdict.consistent and verdict.skipped == ()
    assert args and all(isinstance(x, np.ndarray) for x in args)
    # exp is finite at 709.7825, where its rank-16 integral, 1.7979e308,
    # is not: the integral fails and is not skipped.
    overflows = _rf(math.exp, math.exp, label="exp(x)")
    with pytest.raises(DeltaCalcError, match="at rank n=16.*math range error"):
        check_equivalence(DeltaTerm(0, 709.7825), DeltaTerm(0, 709.7825), kernel=bump,
                          battery=[overflows, cos], schedule=SHORT_SCHEDULE)


def test_math_exp_near_the_float_limit_has_the_verdict_of_np_exp(bump):
    # At 709.7 every rank integral is finite (the value is 1.655e308): on
    # the fixed rules math.exp, called node by node, reads as np.exp does,
    # where quad's own sums would overflow.
    verdicts = [check_equivalence(DeltaTerm(0, 709.7), DeltaTerm(0, 709.7), kernel=bump,
                                  battery=[_rf(fn, fn, label="exp(x)")])
                for fn in (math.exp, np.exp)]
    assert verdicts[0] == verdicts[1]
    assert verdicts[0].variant == "consistent_equivalent"


def test_deviation_that_is_not_a_number_is_decisive(bump, monkeypatch):
    # Two infinite values differ by nan, which no bound holds.
    from deltacalc import vintegral
    from deltacalc.vintegral import IntegralResult

    # Every member's reduction, on either side, reads inf.
    monkeypatch.setattr(vintegral, "reduce_sequence",
                        lambda *a: IntegralResult("reduced", value=math.inf))
    verdict = check_equivalence(DeltaTerm(), DeltaTerm(), kernel=bump,
                                battery=[const_function(1.0, label="1")])
    assert verdict.variant == "distinct"


# -- the stacked first pass against the single-weight path ----------------

def _single_weight_verdict(lhs, rhs, kernel, battery=None, tol=1e-7, order=None,
                           schedule=DEFAULT_SCHEDULE):
    """check_equivalence's verdict rule with each side reduced against each
    member by `reduce_bound` alone, and the largest |value| read (at least
    1), the scale of the values' rounding."""
    from deltacalc.rewrite import EquivalenceVerdict, _bind, _delta_points, _finite_at
    from deltacalc.roots import WINDOW
    from deltacalc.vintegral import reduce_bound

    battery = standard_battery() if battery is None else battery
    if order is not None:
        battery = [f for f in battery if f.smoothness >= order]
    bound = [_bind(side, kernel, WINDOW) for side in (lhs, rhs)]
    skipped, max_dev, scale = [], 0.0, 1.0

    def verdict(*args, **kw):
        return EquivalenceVerdict(*args, skipped=tuple(skipped), **kw), scale

    for f in battery:
        try:
            left = reduce_bound(bound[0], f, -math.inf, math.inf, schedule, tol)
            if not left.reduced:
                return verdict("irreducible_side", side="lhs", witness=f.label)
            right = reduce_bound(bound[1], f, -math.inf, math.inf, schedule, tol)
        except (ArithmeticError, DeltaCalcError):
            if all(_finite_at(f, a) for a in _delta_points(bound[0] + bound[1])):
                raise
            skipped.append(f.label)
            continue
        if not right.reduced:
            return verdict("irreducible_side", side="rhs", witness=f.label)
        scale = max(scale, abs(left.value), abs(right.value))
        dev = abs(left.value - right.value)
        if not dev <= 10.0 * tol * max(1.0, abs(left.value), abs(right.value)):
            return verdict("distinct", witness=f.label, lhs_value=left.value,
                           rhs_value=right.value)
        max_dev = max(max_dev, dev)
    return verdict("consistent_equivalent", battery_size=len(battery) - len(skipped),
                   max_deviation=max_dev)


def _compiled(text):
    return to_real_function(parse(text))


def _sifted(a):
    """f(x) delta(x - a) and f(a) delta(x - a), f a compiled weight."""
    f = _compiled("cos(1.3*x+0.2)*exp(-0.1*x)")
    return ProductTerm(f, DeltaTerm(0, a)), ScaleTerm(f(a), DeltaTerm(0, a))


#: (id, kernel fixture, lhs and rhs, check_equivalence's keyword arguments).
_PARITY = [
    *[(f"sifted-{k}", k, lambda: _sifted(0.37), {}) for k in
      ("bump", "square", "plus", "minus", "mix")],
    ("distinct", "bump", lambda: (DeltaTerm(0, 0.0), DeltaTerm(0, 1.0)), {}),
    ("irreducible-side", "square",
     lambda: (CompTerm(_rf(lambda x: x * x, lambda x: 2.0 * x, label="x^2")),
              SmoothTerm(const_function(0.0, label="0"))), {}),
    ("skipped-at-710", "bump", lambda: (DeltaTerm(0, 710.0), DeltaTerm(0, 710.0)), {}),
    ("sum-side", "bump",
     lambda: (SumTerm((DeltaTerm(0, 1.0), DeltaTerm(0, -1.0))),
              SumTerm((DeltaTerm(0, -1.0), ScaleTerm(1.0, DeltaTerm(0, 1.0))))), {}),
    ("composite-side", "bump",
     lambda: (CompTerm(_compiled("2*x")), ScaleTerm(0.5, DeltaTerm())),
     {"schedule": SHORT_SCHEDULE}),
    ("ddelta-side", "bump",
     lambda: (ProductTerm(_compiled("x*x"), DeltaTerm(1, 0.5)),
              SumTerm((ScaleTerm(-1.0, DeltaTerm(0, 0.5)), ScaleTerm(0.25, DeltaTerm(1, 0.5))))),
     {"schedule": SHORT_SCHEDULE}),
    ("order-1", "bump", lambda: _sifted(-0.8), {"order": 1}),
    ("sift-battery", "square", lambda: _sifted(1.2), {"battery": sift_battery()}),
]


@pytest.mark.parametrize("kernel, sides, kwargs", [c[1:] for c in _PARITY],
                         ids=[c[0] for c in _PARITY])
def test_stacked_pass_has_the_single_weight_verdict(kernel, sides, kwargs, request):
    # The same verdict, witness, side, battery and skipped members; the
    # values within 1e-13 of the largest |value| read: stacking the rows
    # moves a rule sum's last bits, no more.
    kern = request.getfixturevalue(kernel)
    lhs, rhs = sides()
    got = check_equivalence(lhs, rhs, kernel=kern, **kwargs)
    want, scale = _single_weight_verdict(lhs, rhs, kern, **kwargs)
    assert (got.variant, got.witness, got.side, got.battery_size, got.skipped) == \
        (want.variant, want.witness, want.side, want.battery_size, want.skipped)
    for name in ("lhs_value", "rhs_value", "max_deviation"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert abs(a - b) <= 1e-13 * scale, name


def _counted(battery):
    """The battery with each member's fn wrapped, as perfbench/tracer.py
    wraps it, and the number of array calls each member takes."""
    import collections
    import dataclasses

    calls = collections.Counter()

    def wrap(f):
        def fn(x, inner=f.fn, label=f.label):
            if isinstance(x, np.ndarray):
                calls[label] += 1
            return inner(x)
        return dataclasses.replace(f, fn=fn)

    return [wrap(f) for f in battery], calls


@pytest.mark.parametrize("shift, unsettled", [(0.37, []), (710.0, ["exp(+x)"])])
def test_stacked_pass_evaluates_each_member_once(bump, monkeypatch, shift, unsettled):
    # Both order-0 sides at one shift share one node array: each member
    # is evaluated on it once, not once per side, and only the members the
    # stack does not settle (exp(+x), not finite at 710) are taken alone,
    # where exp(+x) is skipped.
    from deltacalc import vintegral

    battery, calls = _counted(standard_battery())
    alone = []
    real = vintegral._totals
    monkeypatch.setattr(vintegral, "_totals", lambda atoms, weights, *a: (
        len(weights) == 1 and alone.append(weights[0].label)) or real(atoms, weights, *a))
    lhs, rhs = _sifted(shift) if shift < 1 else (DeltaTerm(0, shift), DeltaTerm(0, shift))
    verdict = check_equivalence(lhs, rhs, kernel=bump, battery=battery)
    assert verdict.consistent and verdict.skipped == tuple(unsettled)
    assert alone == unsettled
    # Once in the stack; a member taken alone again on its own ranks.
    assert {label: calls[label] for label in unsettled} == {label: 3 for label in unsettled}
    assert {f.label: calls[f.label] for f in battery if f.label not in unsettled} == \
        {f.label: 1 for f in battery if f.label not in unsettled}


def test_composite_side_takes_one_stacked_rule_per_node_group(bump, monkeypatch):
    # compose's equiv: the first seven ranks of the composite side, one
    # node group in u, against all 20 members are one call of the rule in u
    # on the (member, rank, node) stack, as are the profile side's; no
    # member takes them alone.
    from deltacalc import vintegral

    shapes = []
    real = vintegral._u_rule
    monkeypatch.setattr(vintegral, "_u_rule", lambda *a, **k: shapes.append(
        np.shape(a[2])[:-1]) or real(*a, **k))
    verdict = check_equivalence(CompTerm(_compiled("2*x-1")), ScaleTerm(0.5, DeltaTerm(0, 0.5)),
                                kernel=bump)
    assert verdict.consistent and verdict.battery_size == 20
    assert shapes.count((20, 7)) == 2
    assert all(shape[-1] < 7 for shape in shapes if shape != (20, 7))


def _stack_and_alone(atoms, weights, ranks):
    """`_totals` of all the weights in one stack, and of each alone (or the
    error it raises alone)."""
    from deltacalc import vintegral

    stack = vintegral._totals(atoms, weights, -math.inf, math.inf, ranks)
    alone = []
    for w in weights:
        try:
            alone.append(vintegral._totals(atoms, [w], -math.inf, math.inf, ranks)[0])
        except DeltaCalcError as exc:
            alone.append(exc)
    return stack, alone


def _family_atoms(case, bump):
    """(atoms of `_totals`, weights) of one rank family against the
    standard battery."""
    from deltacalc import rewrite, vintegral

    battery = standard_battery()
    if case == "profile":
        return [(1.0, _compiled("cos(1.3*x+0.2)*exp(-0.1*x)"), 0, bump, 0.37)], battery
    if case == "anchored":
        return [(1.0, None, 2, bump, 0.3)], [RealFunction(f.fn) for f in battery]
    if case == "composite-u":
        return [(1.0, None, 0, vintegral.compose(bump, _compiled("2*x-1")), 0.0)], battery
    if case == "composite-x":
        # Compose seed 3's g: its pieces are taken in x at ranks 16 and 32.
        g = _compiled("-1.0547*(x+2.515)*(x+2.231)")
        return [(2.0, None, 0, vintegral.compose(bump, g), 0.0)], battery
    family = rewrite._family(SmoothTerm(_compiled("exp(-x*x)")), None)
    return [(1.0, None, 0, family, 0.0)], battery


@pytest.mark.parametrize("case", ["profile", "anchored", "composite-u", "composite-x",
                                  "smooth"])
def test_stacked_rank_values_are_each_weights_alone(case, bump):
    atoms, weights = _family_atoms(case, bump)
    ranks = tuple(derivative_schedule(DEFAULT_SCHEDULE, atoms[0][2])[:7])
    # A member that raises alone reads None in the stack (exp(+x) and
    # exp(-x) against the smooth summand overflow at |x| = 768); every
    # other member reads its values alone.
    stack, alone = _stack_and_alone(atoms, weights, ranks)
    assert sum(got is None for got in stack) == (2 if case == "smooth" else 0)
    for f, got, want in zip(weights, stack, alone):
        if isinstance(want, DeltaCalcError):
            assert got is None, f.label
        else:
            assert [v.hex() for v in got] == [v.hex() for v in want], f.label


def test_member_that_raises_leaves_the_stack_as_it_is(bump):
    # exp(+x) is not finite at 710: in the stack it reads None, every other
    # member its values alone, and reduced from the stack it raises the
    # error it raises alone.
    from deltacalc import vintegral

    battery = standard_battery()
    j = [f.label for f in battery].index("exp(+x)")
    stack, alone = _stack_and_alone([(1.0, None, 0, bump, 710.0)], battery, DEFAULT_SCHEDULE[:7])
    assert stack[j] is None and isinstance(alone[j], DeltaCalcError)
    for f, got, want in zip(battery, stack, alone):
        if f.label != "exp(+x)":
            assert [v.hex() for v in got] == [v.hex() for v in want], f.label
    bound = [(1.0, None, None, bump, 710.0)]
    with pytest.raises(DeltaCalcError) as stacked:
        vintegral.reductions(bound, battery, -math.inf, math.inf, DEFAULT_SCHEDULE, 1e-9)[j]()
    with pytest.raises(DeltaCalcError) as single:
        vintegral.reduce_bound(bound, battery[j], -math.inf, math.inf, DEFAULT_SCHEDULE, 1e-9)
    assert (type(stacked.value), str(stacked.value)) == (type(single.value), str(single.value))


def test_batteries_sizes():
    assert len(standard_battery()) == 20
    assert len(sift_battery()) == 10


# -- battery members against their closed forms ----------------------------
# Each reference takes the module to evaluate with (math on a float, numpy
# on an ndarray), as the hand-written battery closures did.

def _poly(*coeffs):
    """np.polyval on coefficients, highest power first."""
    c = np.array(coeffs)
    return (lambda m, x: np.polyval(c, x),
            [lambda m, x, k=k: np.polyval(np.polyder(c, k), x) for k in (1, 2, 3, 4)])


def _sin(w):
    return (lambda m, x: m.sin(w * x),
            [lambda m, x: w * m.cos(w * x), lambda m, x: -w * w * m.sin(w * x),
             lambda m, x: -w**3 * m.cos(w * x), lambda m, x: w**4 * m.sin(w * x)])


def _cos(w):
    return (lambda m, x: m.cos(w * x),
            [lambda m, x: -w * m.sin(w * x), lambda m, x: -w * w * m.cos(w * x),
             lambda m, x: w**3 * m.sin(w * x), lambda m, x: w**4 * m.cos(w * x)])


def _exp(s):
    return (lambda m, x: m.exp(s * x),
            [lambda m, x, k=k: s**k * m.exp(s * x) for k in (1, 2, 3, 4)])


def _runge(b):
    return (lambda m, x: 1.0 / (1.0 + b * x * x),
            [lambda m, x: -2.0 * b * x / (1.0 + b * x * x) ** 2,
             lambda m, x: (6.0 * b * b * x * x - 2.0 * b) / (1.0 + b * x * x) ** 3,
             lambda m, x: 24.0 * b * b * x * (1.0 - b * x * x) / (1.0 + b * x * x) ** 4,
             lambda m, x: (24.0 * b * b * (5.0 * b * b * x**4 - 10.0 * b * x * x + 1.0)
                           / (1.0 + b * x * x) ** 5)])


_KINK = (lambda m, x: abs(x) * (1.0 + 0.5 * m.sin(3.0 * x)), None)
_ATAN = (lambda m, x: np.arctan(x) if m is np else math.atan(x),
         [lambda m, x: 1.0 / (1.0 + x * x), lambda m, x: -2.0 * x / (1.0 + x * x) ** 2,
          lambda m, x: (6.0 * x * x - 2.0) / (1.0 + x * x) ** 3,
          lambda m, x: 24.0 * x * (1.0 - x * x) / (1.0 + x * x) ** 4])
_XCOS = (lambda m, x: x * m.cos(x),
         [lambda m, x: m.cos(x) - x * m.sin(x),
          lambda m, x: -2.0 * m.sin(x) - x * m.cos(x),
          lambda m, x: x * m.sin(x) - 3.0 * m.cos(x),
          lambda m, x: x * m.cos(x) + 4.0 * m.sin(x)])
_GAUSS = (lambda m, x: m.exp(-0.25 * x * x),
          [lambda m, x: -0.5 * x * m.exp(-0.25 * x * x),
           lambda m, x: (0.25 * x * x - 0.5) * m.exp(-0.25 * x * x),
           lambda m, x: (0.75 * x - x**3 / 8.0) * m.exp(-0.25 * x * x),
           lambda m, x: (x**4 / 16.0 - 0.75 * x * x + 0.75) * m.exp(-0.25 * x * x)])

#: Every member of each battery, in order: label and closed form.
_MEMBERS = {
    "standard": [
        ("1", _poly(1.0)), ("x", _poly(1.0, 0.0)), ("x^2", _poly(1.0, 0.0, 0.0)),
        ("x^3", _poly(1.0, 0.0, 0.0, 0.0)), ("x^4", _poly(1.0, 0.0, 0.0, 0.0, 0.0)),
        ("sin(1x)", _sin(1.0)), ("cos(1x)", _cos(1.0)),
        ("sin(2x)", _sin(2.0)), ("cos(2x)", _cos(2.0)),
        ("sin(0.5x)", _sin(0.5)), ("cos(0.5x)", _cos(0.5)),
        ("exp(+x)", _exp(1.0)), ("exp(-x)", _exp(-1.0)),
        ("1/(1+1x^2)", _runge(1.0)), ("1/(1+0.25x^2)", _runge(0.25)),
        ("|x|(1+0.5sin(3x))", _KINK), ("x*cos(x)", _XCOS), ("atan(x)", _ATAN),
        ("exp(-x^2/4)", _GAUSS), ("2+0.5x-0.1x^3", _poly(-0.1, 0.0, 0.5, 2.0)),
    ],
    "sift": [
        ("1", _poly(1.0)), ("x", _poly(1.0, 0.0)), ("x^2+5", _poly(1.0, 0.0, 5.0)),
        ("x^3", _poly(1.0, 0.0, 0.0, 0.0)), ("cos(1x)", _cos(1.0)),
        ("sin(2x)", _sin(2.0)), ("exp(-x)", _exp(-1.0)), ("1/(1+1x^2)", _runge(1.0)),
        ("x*cos(x)", _XCOS), ("exp(-x^2/4)", _GAUSS),
    ],
}

_BATTERIES = {"standard": standard_battery, "sift": sift_battery}
_VALUE_POINTS = np.concatenate([np.linspace(-30.0, 30.0, 1201), [1e-3, -2.5e-7, 250.0]])
_DERIV_POINTS = np.linspace(-3.0, 3.0, 25)


@pytest.mark.parametrize("name, i", [(name, i) for name, members in _MEMBERS.items()
                                     for i in range(len(members))])
def test_battery_member(name, i):
    battery = _BATTERIES[name]()
    label, (value, derivs) = _MEMBERS[name][i]
    assert len(battery) == len(_MEMBERS[name])
    f = battery[i]
    assert f.label == label
    assert f.smoothness == (C_INF if derivs else 0)
    # Values bit-equal to the closed form, on floats and on an ndarray.
    floats = np.array([f(float(x)) for x in _VALUE_POINTS])
    assert all(isinstance(f(float(x)), float) for x in _VALUE_POINTS[:3])
    want = np.array([float(value(math, float(x))) for x in _VALUE_POINTS])
    assert floats.tobytes() == want.tobytes()
    got = f(_VALUE_POINTS)
    assert isinstance(got, np.ndarray) and got.shape == _VALUE_POINTS.shape
    assert got.tobytes() == np.asarray(value(np, _VALUE_POINTS), dtype=float).tobytes()
    if derivs is None:
        with pytest.raises(SmoothnessError):
            f.derivative(1)
        return
    for k, dk in enumerate(derivs, start=1):
        fk = f.derivative(k)
        for x in _DERIV_POINTS:
            exact = dk(math, float(x))
            assert abs(fk(float(x)) - exact) <= 1e-12 * max(1.0, abs(exact)), (k, x)


def test_battery_members_compile_past_a_rebound_to_real_function(monkeypatch):
    # Members are cached for the process: instrumentation that rebinds
    # exprlang.to_real_function must not end up inside them.
    from deltacalc import exprlang, rewrite

    monkeypatch.setattr(exprlang, "to_real_function",
                        lambda node: pytest.fail("battery compiled via to_real_function"))
    rewrite._member.cache_clear()
    try:
        assert [f.label for f in sift_battery()] == [label for label, _ in _MEMBERS["sift"]]
        assert len(standard_battery()) == len(_MEMBERS["standard"])
    finally:
        rewrite._member.cache_clear()


# -- kernel dependence probe -----------------------------------------------

def test_probe_flags_x_squared(minus, square):
    g = _rf(lambda x: x * x, lambda x: 2.0 * x, label="x^2")
    rep = kernel_dependence_probe(g, [minus, square])
    assert rep.flagged
    kinds = {res.kind for _n, res in rep.outcomes}
    assert kinds == {"reduced", "irreducible"}


def test_probe_flags_exp(minus, plus):
    g = _rf(math.exp, math.exp, label="exp(x)")
    rep = kernel_dependence_probe(g, [minus, plus])
    assert rep.flagged


def test_probe_passes_quadratic(bump, square, mix):
    rep = kernel_dependence_probe(X2M4, [bump, square, mix])
    assert not rep.flagged
    for _name, res in rep.outcomes:
        assert abs(res.value - 0.5) < 1e-6


def test_probe_needs_two_kernels(bump):
    with pytest.raises(ValueError):
        kernel_dependence_probe(X2M4, [bump])


def test_a_delta_free_function_is_one_smooth_summand(bump):
    # A RealFunction is bound as SmoothTerm(f): the same result, where it
    # could not be flattened before.
    f = to_real_function(parse("exp(-x*x)"))
    got = reduce_expr_integral(f, kernel=bump)
    want = reduce_expr_integral(SmoothTerm(f), kernel=bump)
    assert got == want and got.reduced and abs(got.value - math.sqrt(math.pi)) <= 1e-9
    g = to_real_function(parse("0"))
    assert reduce_expr_integral(g, kernel=bump) == reduce_expr_integral(SmoothTerm(g),
                                                                        kernel=bump)
    battery = sift_battery()[:6]  # to sin(2x): no exponential overflows past x ~ 709
    for lhs, rhs in ((f, DeltaTerm(0, 0.0)), (DeltaTerm(0, 0.0), f), (f, f)):
        wrap = [SmoothTerm(e) if isinstance(e, RealFunction) else e for e in (lhs, rhs)]
        assert (check_equivalence(lhs, rhs, kernel=bump, battery=battery)
                == check_equivalence(*wrap, kernel=bump, battery=battery))
