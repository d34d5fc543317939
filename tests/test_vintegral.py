import functools
import gc
import io
import json
import math

import numpy as np
import pytest

import deltacalc as dc
from deltacalc.cli import run_command
from deltacalc.errors import DeltaCalcError, SmoothnessError
from deltacalc.exprlang import parse, parse_expression, to_real_function
from deltacalc.limits import DEFAULT_SCHEDULE
from deltacalc.vfun import C_INF, RealFunction
from deltacalc.vintegral import (
    by_parts,
    delta_integral,
    derivative_schedule,
    integrate_rank,
    reduce_integral,
)

# High-precision reference values (30-digit adaptive quadrature, frozen):
# I_n for the bump kernel against cos at shift a=2, rank n = 2^16.
SIFT_COS_AT_2_RANK_2_16 = -0.41614683653948243
# I_n for the bump kernel composed with x^2-4 against cos, rank n = 2^16.
COMP_COS_RANK_2_16 = -0.208073418272726789
# Second moment of the normalized bump profile.
BUMP_M2 = 0.158113636263798


# -- bounds ----------------------------------------------------------------

def test_infinite_bounds_are_the_shift_minus_plus_n_at_rank_n():
    # A constant integrates to the length of each rank's window.
    one = dc.VirtualFunction(lambda _n, x: 1.0, smoothness=C_INF, label="1")
    for n, shift in ((16, 0.0), (64, 2.5), (1024, -7.0)):
        assert integrate_rank(one, -math.inf, math.inf, (n,), shift=shift)[0] == pytest.approx(2 * n)
        assert integrate_rank(one, -math.inf, 3.0, (n,), shift=shift)[0] == pytest.approx(n + 3.0 - shift)


def test_orientation_is_judged_on_the_limit_bounds(bump):
    # An infinite bound is oriented by its sign at every rank; a finite one
    # beyond a rank's window empties that rank instead.
    with pytest.raises(ValueError, match="empty orientation"):
        integrate_rank(bump, math.inf, -math.inf, (16,))
    with pytest.raises(ValueError, match="empty orientation"):
        integrate_rank(bump, 1.0, -math.inf, (16,), shift=50.0)
    assert integrate_rank(bump, 0.0, math.inf, (16,), shift=-100.0)[0] == 0.0
    assert integrate_rank(bump, 0.0, math.inf, (16,), shift=100.0)[0] == pytest.approx(1.0)


def test_infinite_constant_bound_rejected(bump):
    with pytest.raises(ValueError):
        integrate_rank(bump, math.inf, math.inf, (16,))


# -- normalization ---------------------------------------------------------

def test_all_kernels_normalize(all_kernels):
    for name, k in all_kernels.items():
        res = reduce_integral(k)
        assert res.reduced, name
        assert abs(res.value - 1.0) < 1e-8, name


def test_half_line_integral(bump):
    # Symmetric kernel: mass 1/2 on each side of the origin.
    res = reduce_integral(bump, lo=0.0, hi=math.inf)
    assert abs(res.value - 0.5) < 1e-8


def test_integral_misses_shifted_support(plus):
    # delta_+ lives on (1/n, 3/n): integrating the negative half-line gives
    # exactly zero at every rank.
    res = reduce_integral(plus, lo=-math.inf, hi=0.0)
    assert res.reduced and res.value == 0.0
    assert all(v == 0.0 for _n, v in res.rank_values)


# -- sifting ---------------------------------------------------------------

def test_sift_frozen_rank_value(bump):
    # Pin one raw rank value against the frozen high-precision reference.
    n = 2**16
    shifted = bump.translate(2.0)
    val = integrate_rank(shifted, -math.inf, math.inf, (n,), weight=math.cos)[0]
    assert abs(val - SIFT_COS_AT_2_RANK_2_16) < 5e-10


def test_sift_limit_matches_f_a(bump):
    res = dc.sift(bump, math.cos, a=2.0)
    assert abs(res.value - math.cos(2.0)) < 1e-9


@pytest.mark.parametrize("a", [2e6, 3e5, 100.0, -7e5, 1e18])
@pytest.mark.parametrize("name", ["bump", "square", "mix"])
def test_sift_far_from_the_origin(name, a, request):
    # Each rank's window is taken as offsets from the shift, so the kernel's
    # support lies inside it however far a is from 0 (not read as 0 outside
    # +/- n, nor where a -/+ n rounds to a).
    res = dc.sift(request.getfixturevalue(name), math.cos, a=a)
    assert res.reduced and abs(res.value - math.cos(a)) < 1e-9
    assert all(v != 0.0 for _n, v in res.rank_values)


def test_sift_reduces_near_the_float_max(bump):
    # exp(709.7) ~ 1.655e308: Richardson's r * I_n overflows on the rank
    # values as they are, not on the values over a power of two.
    res = dc.sift(bump, np.exp, 709.7, schedule=derivative_schedule(DEFAULT_SCHEDULE, 1))
    assert res.reduced
    assert abs(res.value - math.exp(709.7)) <= 1e-12 * math.exp(709.7)


@pytest.mark.parametrize("a", [706.5, 709.0, 709.3, 709.7])
def test_limit_near_the_float_max_lies_within_its_error(bump, a):
    # Where the table on the values as they are could overflow, the limit
    # carries the ranks' rounding (a few ulps here): err is not 0.
    res = dc.sift(bump, np.exp, a)
    assert res.reduced
    assert abs(res.value - math.exp(a)) <= res.error_estimate <= 1e-14 * math.exp(a)


@pytest.mark.parametrize("text", ["cos(x)*delta(x-0.3)", "x*delta(x^2-4)",
                                  "delta(x)+exp(-x^2)"])
def test_reduction_leaves_no_reference_cycle(bump, text):
    # A cycle would keep each rank family (a composite with its cached
    # regions) alive until the cyclic collector runs.
    expr = parse_expression(text)
    dc.reduce_expr_integral(expr, kernel=bump)  # first-use caches
    gc.collect()
    gc.disable()
    try:
        dc.reduce_expr_integral(expr, kernel=bump)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_square_kernel_quadratic_sift_is_exact(square):
    # For f = x^2 + 5 the square-pulse rank integral has the closed form
    # I_n = 5 + 1/(3 n^2).
    f = lambda x: x * x + 5.0
    for n in (16, 256, 4096):
        val = integrate_rank(square, -math.inf, math.inf, (n,), weight=f)[0]
        assert abs(val - (5.0 + 1.0 / (3.0 * n * n))) < 1e-12
    res = dc.sift(square, f, a=0.0)
    assert abs(res.value - 5.0) < 1e-9


def test_bump_sift_error_term(bump):
    # Leading sift error is f''(a) * m2 / (2 n^2) with m2 the profile's
    # second moment; check the measured error against it at one rank.
    n = 2**10
    val = dc.vintegral._quad_piece(
        lambda u: bump.profile.fn(u) * math.cos(2.0 + u / n), -1.0, 1.0)
    predicted = -math.cos(2.0) * BUMP_M2 / (2.0 * n * n)
    assert abs((val - math.cos(2.0)) - predicted) < 1e-11


@pytest.mark.parametrize("a", [-1.0, 0.0, 0.5, 3.0])
def test_sift_shifts(a, all_kernels):
    f = RealFunction(lambda x: math.exp(-x) * (1 + x * x), smoothness=C_INF,
                     label="exp(-x)(1+x^2)")
    want = f(a)
    for name, k in all_kernels.items():
        res = dc.sift(k, f, a=a)
        assert res.reduced, (name, a)
        assert abs(res.value - want) < 1e-6, (name, a)


# -- derivative sifting ----------------------------------------------------

def test_sift_derivative_first_order(bump):
    f = RealFunction(math.sin, derivs=(math.cos,), label="sin")
    res = dc.sift_derivative(bump, 1, f, a=0.7)
    assert abs(res.value + math.cos(0.7)) < 1e-7


def test_sift_derivative_second_order(bump):
    res = dc.sift_derivative(bump, 2, lambda x: x * x, a=0.0)
    assert abs(res.value - 2.0) < 1e-6


@pytest.mark.parametrize("name, k, lo, hi", [("bump", 2, 0.25, math.inf),
                                              ("plus", 1, -math.inf, 0.4)])
def test_by_parts_keeps_the_rank_integrals(name, k, lo, hi, request):
    # The bound cuts the kernel's support at rank 16 only, where the end
    # terms carry the difference from the whole line.
    d, f = request.getfixturevalue(name), to_real_function(parse("exp(x)"))
    ranks = (16, 32, 64, 128, 256)
    assert by_parts(d, k, f)
    parts = delta_integral(d, k, lo, hi, ranks, [f], 0.3)[0]
    kernel = integrate_rank(d.derivative(k), lo, hi, ranks, f.fn, 0.3)
    whole = integrate_rank(d.derivative(k), -math.inf, math.inf, ranks, f.fn, 0.3)
    assert abs(kernel[0] - whole[0]) > 1.0
    for p, q in zip(parts, kernel):
        assert abs(p - q) <= 1e-9 * abs(q)


def test_weight_without_a_rule_keeps_the_derivative_kernel(bump):
    # A bare callable, abs and a difference quotient are no rule of order 1.
    kink = to_real_function(parse("abs(x+5)"))
    one = RealFunction(math.sin, derivs=(math.cos,))
    assert not by_parts(bump, 1, RealFunction(math.sin)) and not by_parts(bump, 1, kink)
    assert by_parts(bump, 1, one) and not by_parts(bump, 2, one)
    assert not by_parts(dc.square_delta(), 1, one)
    # The Leibniz product has a rule to the order both factors have one.
    exp = to_real_function(parse("exp(x)"))
    assert exp.times(one).rule_order == 1 and exp.times(exp).rule_order == C_INF
    assert abs(exp.times(one).deriv_value(1, 0.3) - math.exp(0.3) * (math.sin(0.3)
                                                                     + math.cos(0.3))) < 1e-15


def test_derivative_integral_is_zero(bump):
    # The kernel's derivative is the bump at atom order 1, by parts against
    # F = 1: every rank reads 0.
    res = reduce_integral(bump.derivative(1))
    assert res.reduced and res.value == 0.0
    assert all(v == 0.0 for _n, v in res.rank_values)


def test_exact_zero_rank_past_the_scale_overflow_is_accepted(bump):
    # At k = 32 and n = 2^20, n^k times the |integrand| sum overflows, but
    # the anchored rules agree exactly on 0: the rank reads 0.0, as at
    # k = 31, and does not go on to quad, which finds it divergent.
    for k in (31, 32, 40):
        assert vintegral.profile_integral(bump.derivative(k), (2**20,), 0.0, None) == [0.0]
    # An |integrand| sum that overflowed bounds no difference; quad's
    # targets still decide.
    assert vintegral._accepted(0.0, 1e-13, math.inf)
    assert not vintegral._accepted(0.0, 1.0, math.inf)
    assert not vintegral._accepted(0.0, 1.0, math.nan)


def _fields(res):
    return res.kind, res.value, res.error_estimate, res.exponent, res.sign, res.rank_values


@pytest.mark.parametrize("member", range(10))
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", ["bump", "plus", "minus"])
def test_kernel_derivative_reduces_as_its_base_kernels_atom(request, name, k, member):
    # d.derivative(k), however it is passed, is the atom delta^(k) on d: the
    # result of sift_derivative, field for field.  Taken at order 0 on the
    # n^k path, 40 of these 90 read Undetermined, Irreducible or a value
    # outside err + 4 ulps of (-1)^k f^(k)(0).
    from deltacalc.rewrite import DeltaTerm, reduce_expr_integral, sift_battery

    d, f = request.getfixturevalue(name), sift_battery()[member]
    want = dc.sift_derivative(d, k, f)
    truth = (-1) ** k * float(f.deriv_value(k, 0.0))
    assert want.reduced and abs(want.value - truth) <= want.error_estimate + 4 * math.ulp(truth)
    for got in (reduce_integral(d.derivative(k), weight=f), dc.sift(d.derivative(k), f),
                reduce_expr_integral(DeltaTerm(0, 0.0, kernel=d.derivative(k)), weight=f)):
        assert _fields(got) == _fields(want)


def test_derivative_of_a_derivative_binds_to_the_first_kernel(bump):
    d1 = bump.derivative(1)
    assert bump.base is None and d1.base is bump and d1.derivative(1).base is bump
    f = to_real_function(parse("cos(x)"))
    assert (_fields(dc.sift(d1.derivative(1), f, a=0.3))
            == _fields(dc.sift_derivative(d1, 1, f, a=0.3))
            == _fields(dc.sift_derivative(bump, 2, f, a=0.3)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sift_derivative_and_the_cli_share_one_schedule_rule(k):
    # Both integrate by parts on the whole schedule.  At k = 3 the kernel
    # derivative, capped at n = 256, left both Undetermined.
    lib = dc.sift_derivative(dc.bump_delta(), k, to_real_function(parse("exp(-x)")),
                             a=0.3)
    out = io.StringIO()
    assert run_command(["integrate", f"exp(-x)*ddelta(x-0.3,{k})", "--json"], out=out) == 0
    cli = json.loads(out.getvalue())
    assert (lib.kind, [list(r) for r in lib.rank_values]) == (cli["variant"],
                                                             cli["rank_values"])
    assert lib.value == cli["value"]
    assert abs(lib.value - math.exp(-0.3)) <= 1e-9


def test_derivative_schedule_caps_every_caller_schedule():
    assert derivative_schedule(DEFAULT_SCHEDULE, 0) == list(DEFAULT_SCHEDULE)
    assert max(derivative_schedule(DEFAULT_SCHEDULE, 1)) == 4096
    short = [2**k for k in range(4, 13)]
    assert derivative_schedule(short, 2) == [16, 32, 64, 128, 256, 512, 1024]
    assert max(derivative_schedule(short, 9)) == 256
    with pytest.raises(DeltaCalcError, match="above n = 256"):
        derivative_schedule([512, 1024], 3)


def test_sift_derivative_smoothness_gates(bump, square):
    kink = RealFunction(abs, smoothness=0, label="|x|")
    with pytest.raises(SmoothnessError, match=r"\|x\|"):
        dc.sift_derivative(bump, 1, kink, a=0.0)
    with pytest.raises(SmoothnessError):
        dc.sift_derivative(square, 1, math.sin, a=0.0)


def test_sift_derivative_needs_a_profile_kernel():
    with pytest.raises(TypeError):
        dc.sift_derivative(dc.cauchy_psi(), 1, math.sin)


def test_kernel_smoothness_is_its_profiles(conv):
    # bump * bump is C-inf: its derivatives are contractions of the bump's
    # derivatives with the bump, and no difference quotient is taken.
    assert conv.smoothness == C_INF and conv.derivative(2).smoothness == C_INF
    assert conv.derivative(1).derivative(1).profile.fn is conv.derivative(2).profile.fn
    assert dc.kernel_to_json(conv)["smoothness"] == "C-inf"


# -- irreducible and undetermined outcomes ---------------------------------

def test_constant_offset_is_irreducible(bump):
    # The full-line integral of delta + 1 grows like 1 + 2n.
    lifted = dc.VirtualFunction(
        lambda n, x, d=bump: d.rank_eval(n, x) + 1.0,
        smoothness=C_INF, label="delta+1",
    )
    res = reduce_integral(lifted)
    assert res.kind == "irreducible"
    assert abs(res.exponent - 1.0) < 0.05
    assert res.sign == 1.0


def test_square_of_composition_grows_like_sqrt(square):
    comp = dc.compose(square, lambda x: x * x)
    res = reduce_integral(comp)
    assert res.kind == "irreducible"
    assert abs(res.exponent - 0.5) < 0.05


def test_result_json_shape(bump):
    res = dc.sift(bump, math.cos, a=0.0)
    payload = res.to_json()
    assert payload["variant"] == "reduced"
    assert isinstance(payload["rank_values"], list)
    assert payload["rank_values"][0][0] == DEFAULT_SCHEDULE[0]


# -- convolution -----------------------------------------------------------

def test_convolution_is_dirac(conv):
    assert dc.check_dirac(conv).ok


def test_convolution_sifts(conv):
    res = dc.sift(conv, math.cos, a=1.5)
    assert abs(res.value - math.cos(1.5)) < 1e-8


def test_convolution_support_adds(bump, conv):
    n = 64
    lo, hi = conv.support_interval(n)
    assert abs(lo + 2.0 / n) < 1e-15
    assert abs(hi - 2.0 / n) < 1e-15


def test_convolution_pointwise_identity(bump, conv):
    # n (p*p)(n x) must equal the directly computed contraction integral.
    from deltacalc.vintegral import _quad_piece

    for n in (2**6, 2**10):
        for x in np.linspace(-1.8 / n, 1.8 / n, 9):
            direct = _quad_piece(
                lambda b: bump.rank_eval(n, x - b) * bump.rank_eval(n, b),
                x - 1.0 / n, x + 1.0 / n)
            assert abs(conv.rank_eval(n, float(x)) - direct) < 1e-8


def test_convolution_rejects_discontinuous(square, bump):
    with pytest.raises(SmoothnessError):
        dc.convolve(square, bump)
    with pytest.raises(TypeError):
        dc.convolve(bump, dc.cauchy_psi())


# -- composition -----------------------------------------------------------

def test_compose_frozen_rank_value(bump):
    g = RealFunction(lambda x: x * x - 4.0, derivs=(lambda x: 2.0 * x,),
                     label="x^2-4")
    comp = dc.compose(bump, g)
    n = 2**16
    val = integrate_rank(comp, -math.inf, math.inf, (n,), weight=math.cos)[0]
    assert abs(val - COMP_COS_RANK_2_16) < 5e-10


def test_compose_reduces_to_rule_value(bump):
    g = RealFunction(lambda x: x * x - 4.0, derivs=(lambda x: 2.0 * x,),
                     label="x^2-4")
    comp = dc.compose(bump, g)
    res = reduce_integral(comp, weight=math.cos)
    assert abs(res.value - math.cos(2.0) / 2.0) < 1e-9


def test_compose_vanishes_when_g_bounded_away(bump):
    comp = dc.compose(bump, lambda x: x * x + 1.0)
    res = reduce_integral(comp)
    assert res.reduced and res.value == 0.0
    assert all(v == 0.0 for _n, v in res.rank_values)


def test_compose_tracks_shrinking_regions(bump):
    # At high rank the nonzero region around each root has width ~1/n and
    # falls between any fixed grid's points; region tracking must find it.
    g = RealFunction(lambda x: x - 0.123456789, derivs=(lambda x: 1.0,),
                     label="x-c")
    comp = dc.compose(bump, g)
    n = 2**20
    val = integrate_rank(comp, -math.inf, math.inf, (n,))[0]
    assert abs(val - 1.0) < 1e-9


def test_compose_one_sided_kernel(minus):
    # exp(x) never enters the support of delta_-: identically zero.
    comp = dc.compose(minus, math.exp)
    res = reduce_integral(comp)
    assert res.reduced and res.value == 0.0


# -- fixed-node profile quadrature ------------------------------------------

from deltacalc import vintegral  # noqa: E402
from deltacalc.errors import QuadratureError  # noqa: E402
from deltacalc.rewrite import sift_battery  # noqa: E402
from deltacalc.vintegral import _quad_piece, profile_integral  # noqa: E402


def _fixed_rule(d, ranks, a, weights, ulo, uhi):
    """The fixed rules' values per weight on the profile rows of `ranks`
    over [ulo, uhi], nan where they disagree: the plan's one block, executed
    with a fallback that reads nan."""
    block = vintegral._profile_rows(d, ranks, a, list(range(len(ranks))), ulo, uhi)
    return vintegral._execute((ranks, [(*block[:-1], lambda *_: math.nan)]), weights)

#: Highest rank reduce_expr_integral probes for each derivative order.
RANK_CAP = {0: DEFAULT_SCHEDULE[-1], 1: 2**12, 2: 2**10}


def _quad_reference(d, n, a, fn, ulo, uhi, subtract_fa=False, profile=None):
    # The adaptive integrand profile_integral falls back to; `profile`, if
    # given, stands for d.profile.
    scale = n ** d.order
    fa = fn(a) if subtract_fa else 0.0
    profile = d.profile if profile is None else profile
    return _quad_piece(lambda u: scale * profile(u) * (fn(a + u / n) - fa),
                       ulo, uhi, points=[0.0])


@pytest.fixture
def quad_calls(monkeypatch):
    calls = []
    real = vintegral.quad

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(vintegral, "quad", counted)
    return calls


@pytest.mark.parametrize("name, order", [
    (name, order) for name in ("bump", "plus", "minus", "mixture", "convolution")
    for order in (0, 1, 2)] + [("square", 0)])
def test_fixed_rule_matches_quad(name, order, all_kernels):
    # Every derivative order up to 2 that the kernel has.
    d = all_kernels[name].derivative(order)
    tol = 1e-12 if order == 0 else 1e-8
    # Every third rank down from the cap: each reference takes milliseconds.
    ranks = [n for n in DEFAULT_SCHEDULE if n <= RANK_CAP[order]][::-3]
    # quad's nodes repeat across the weights, shifts and ranks: a few
    # hundred to a few thousand profile values serve every reference.
    profile = functools.cache(d.profile)
    # quad resolves n^2 p'' of a contraction only to ~1e-8 of its value:
    # since p'' integrates to 0, the reference integrates p'' * (f - f(a))
    # instead, the same integral.
    subtract_fa = name == "convolution" and order == 2
    accepted = total = 0
    for f in sift_battery():
        for a in (0.0, 0.3, -1.7):
            for n in ranks:
                total += 1
                got = _fixed_rule(d, (n,), a, [f.fn], *d.profile_support)[0][0]
                if math.isnan(got):
                    continue
                accepted += 1
                want = _quad_reference(d, n, a, f.fn, *d.profile_support,
                                       subtract_fa=subtract_fa, profile=profile)
                assert abs(got - want) <= tol * max(1.0, abs(want)), (f.label, a, n)
    # Every profile is smooth between its cuts, a mixture's and a
    # contraction's included: the fixed rules take every case.
    assert accepted == total


def _per_node(fn):
    # The array twin of a weight that takes no ndarray: fn called on each
    # node, as the rules call it.
    return lambda x: np.array([fn(t) for t in x.ravel().tolist()]).reshape(x.shape)


def test_math_only_weight_falls_back(bump, quad_calls):
    # math.cos takes no array: the fixed rules call it node by node, with
    # the bits of its array twin, and no quad call.
    got = profile_integral(bump, (64,), 0.5, math.cos)[0]
    assert not quad_calls
    assert got.hex() == profile_integral(bump, (64,), 0.5, _per_node(math.cos))[0].hex()
    assert _within_targets(got, _quad_reference(bump, 64, 0.5, math.cos, -1.0, 1.0))


def test_math_only_weight_matches_its_numpy_twin(bump, quad_calls):
    # On a profile rank of every order to 2 and on a composite's pieces,
    # in u and in x: no quad call, and the values of np.cos.
    for k in (0, 1, 2):
        d = bump.derivative(k)
        for n in (16, 256):
            got = profile_integral(d, (n,), 0.3, math.cos)[0]
            want = profile_integral(d, (n,), 0.3, np.cos)[0]
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (k, n)
    for comp in (_composite(bump, "x^3-2*x^2-x+2"), _opaque(bump, "x^3-2*x^2-x+2")):
        got = integrate_rank(comp, -math.inf, math.inf, (16, 64), weight=math.cos)
        want = integrate_rank(comp, -math.inf, math.inf, (16, 64), weight=np.cos)
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13)
    assert not quad_calls


def _within_targets(got, want):
    # quad's targets (_QUAD_OPTS), which the refinement also meets.
    return abs(got - want) <= 1e-12 + 1e-12 * abs(want)


def test_kink_inside_support_falls_back(bump, quad_calls):
    # |x| at a = 0.3/n puts the kink at u = -0.3, inside a panel: the fixed
    # rules reject, and the panels halved on arrays meet quad's targets.
    n = 64
    f = to_real_function(parse("abs(x)")).fn
    assert math.isnan(_fixed_rule(bump, (n,), 0.3 / n, [f], -1.0, 1.0)[0][0])
    got = profile_integral(bump, (n,), 0.3 / n, f)[0]
    assert not quad_calls
    assert _within_targets(got, _quad_reference(bump, n, 0.3 / n, f, -1.0, 1.0))


def _seed_9_weight():
    # An equiv query's weight: the factor times the battery member whose
    # kink lies inside the support at rank 16.
    f = to_real_function(parse("cos(1.4464*x+0.5193)")).fn
    g = next(m.fn for m in dc.standard_battery() if m.label == "|x|(1+0.5sin(3x))")
    return lambda x: f(x) * g(x)


def test_refined_rank_matches_mpmath_split_at_the_kink(bump):
    mpmath = pytest.importorskip("mpmath")
    from deltacalc.vfun import BUMP_NORMALIZATION

    n, a = 16, 0.0587
    got = profile_integral(bump, (n,), a, _seed_9_weight())[0]
    with mpmath.workdps(30):
        def integrand(u):
            x = a + u / n
            w = mpmath.cos(1.4464 * x + 0.5193) * abs(x) * (1 + 0.5 * mpmath.sin(3 * x))
            return BUMP_NORMALIZATION * mpmath.exp(-1 / (1 - u * u)) * w

        want = float(mpmath.quad(integrand, [-1, -n * mpmath.mpf(a), 0, 1]))
    assert _within_targets(got, want), (got, want)


def test_refinement_that_spends_its_budget_leaves_quad_to_decide(bump, quad_calls):
    # A jump inside the support: each halving only halves the rules'
    # difference, so the level budget runs out and quad decides as before,
    # in one call over the support, split at 0.
    w = lambda x: np.sign(x - 0.001) * np.cos(x)
    n = 16
    f = lambda u: bump.profile(u) * w(u / n)
    spent = vintegral._refined(f, np.array([-1.0, 0.0]), np.array([0.0, 1.0]), [0.0])
    assert len(quad_calls) == 1
    got = profile_integral(bump, (n,), 0.0, w)[0]
    assert len(quad_calls) == 2
    assert got == spent == _quad_reference(bump, n, 0.0, w, -1.0, 1.0)


def test_rejected_x_panel_is_refined_from_its_first_rule_sums(quad_calls):
    # Rank 16 of |x - 0.3|^1.5 e^(-x^2) on its octave panels: the panel
    # [0.25, 0.5] holds the kink, and its rules disagree.  The adaptive rule
    # starts from the panel's sums of the first pass, at its halves: no
    # array call evaluates the panel's nodes alone a second time, and the
    # panel keeps the bits it has refined from its own first level.
    f = to_real_function(parse("abs(x-0.3)^1.5*exp(-x^2)")).fn
    calls = []
    vf = dc.VirtualFunction(lambda _n, x: isinstance(x, np.ndarray) and calls.append(x) or f(x))
    integrate_rank(vf, -math.inf, math.inf, (16,))
    lo, hi = np.array([0.25]), np.array([0.5])
    panel, w_coarse, w_fine = vintegral._panel_rules(lo, hi)
    inside = [x for x in calls if x.min() >= 0.25 and x.max() <= 0.5]
    assert not quad_calls and inside and inside[0].size == 2 * panel.size
    assert not any(np.array_equal(x, panel) for x in calls)
    first = [s[0].tolist() for s in vintegral._rule_sums(f(panel)[None], w_coarse, w_fine, 1)]
    assert not vintegral._accepted(*(s[0] for s in first))
    assert (vintegral._refined(f, lo, hi, None, first).hex()
            == vintegral._refined(f, lo, hi, None).hex())


def test_derivative_rank_is_halved_on_arrays(bump, quad_calls, monkeypatch):
    # The kink of |x| at u = -0.3 lies inside a panel of n p'(u) |u/n + 0.3/n|:
    # the fixed rules reject it, and the adaptive rule halves the panels
    # that disagree, over more than one level, with no quad call and the
    # bits the rank has in a batch.  Against mpmath split at the kink the
    # value is within a few times quad's targets: the last kink panel's
    # two rules differ by 6.6e-13, while the fine rule's error is 1.6e-12.
    mpmath = pytest.importorskip("mpmath")
    from deltacalc.vfun import BUMP_NORMALIZATION

    f = to_real_function(parse("abs(x)")).fn
    d, n, a = bump.derivative(1), 64, 0.3 / 64
    assert math.isnan(_fixed_rule(d, (n,), a, [f], -1.0, 1.0)[0][0])
    levels = []
    real = vintegral._panel_rules
    monkeypatch.setattr(vintegral, "_panel_rules",
                        lambda lo, hi: levels.append(lo.size) or real(lo, hi))
    got = profile_integral(d, (n,), a, f)[0]
    assert not quad_calls and len(levels) > 1
    assert got.hex() == profile_integral(d, (16, 32, n), a, f)[2].hex()
    with mpmath.workdps(30):
        def integrand(u):
            p = BUMP_NORMALIZATION * mpmath.exp(-1 / (1 - u * u))
            return n * p * -2 * u / (1 - u * u) ** 2 * abs(a + u / n)

        want = float(mpmath.quad(integrand, [-1, -0.3, 0, 1]))
    assert abs(got - want) <= 5e-12 * abs(want), (got, want)


@pytest.mark.parametrize("order", [0, 2])
def test_cut_support_matches_quad(bump, order):
    # --lower/--upper inside the support: no subtraction of f(a).
    d = bump.derivative(order)
    tol = 1e-12 if order == 0 else 1e-8
    f = to_real_function(parse("exp(x)*cos(3*x)")).fn
    for n in (16, 256, 1024):
        for ulo, uhi in ((0.0, math.inf), (-math.inf, -0.25), (-0.5, 0.7)):
            got = profile_integral(d, (n,), 0.2, f, ulo, uhi)[0]
            want = _quad_reference(d, n, 0.2, f, max(ulo, -1.0), min(uhi, 1.0))
            assert abs(got - want) <= tol * max(1.0, abs(want)), (n, ulo, uhi)


def test_non_finite_weight_raises_like_quad(bump, quad_calls):
    # x^0.5 is nan on the array path and complex on the float path, where
    # adaptive quadrature raises today's error.
    f = to_real_function(parse("x^0.5")).fn
    with pytest.raises(QuadratureError):
        _quad_reference(bump, 16, 0.0, f, -1.0, 1.0)
    with pytest.raises(QuadratureError):
        profile_integral(bump, (16,), 0.0, f)
    assert quad_calls


def test_sift_on_fixed_nodes_makes_no_quad_call(plus, quad_calls):
    f = to_real_function(parse("x*cos(x)"))
    res = dc.sift_derivative(plus, 2, f, a=0.4)
    assert not quad_calls
    assert abs(res.value - f.deriv_value(2, 0.4)) < 1e-8


@pytest.mark.parametrize("name", ["bump", "square", "plus", "minus", "mix"])
def test_check_dirac_makes_no_quad_call(name, request, quad_calls):
    # A profile kernel's rank integrals go through profile_integral.
    res = dc.check_dirac(request.getfixturevalue(name))
    assert res.ok and abs(res.normalization - 1.0) < 1e-13
    assert not quad_calls


def test_convolution_on_its_fixed_nodes_makes_no_quad_call(bump, conv, quad_calls):
    # The fixture's profile, built again past the convolution cache, on the
    # nodes of a full-support rank.
    profile = vintegral._convolution.__wrapped__(bump.profile, bump.profile_cuts,
                                                 bump.profile, bump.profile_cuts)
    cuts = vintegral._cuts(conv, *conv.profile_support)
    values = vintegral._profile_on_nodes(profile, cuts)
    _u, _w_coarse, w_fine = vintegral._fixed_nodes(cuts)
    assert not quad_calls
    assert np.array_equal(values, vintegral._profile_on_nodes(conv.profile, cuts))
    assert abs(float(values[-w_fine.size:] @ w_fine) - 1.0) <= 1e-14


@pytest.mark.parametrize("operands", [("mix", "bump"), ("mix", "mix")],
                         ids=["mix-bump", "mix-mix"])
def test_check_dirac_of_a_mixture_contraction_makes_no_quad_call(operands, request,
                                                                 quad_calls):
    d1, d2 = (request.getfixturevalue(name) for name in operands)
    res = dc.check_dirac(dc.convolve(d1, d2))
    assert res.ok and abs(res.normalization - 1.0) < 1e-13
    assert not quad_calls


def test_rule_sums_sum_a_row_alone_as_among_others():
    lo, hi = np.array([-1.0, 0.5, 2.0]), np.array([0.5, 2.0, 4.0])
    x, w_coarse, w_fine = vintegral._panel_rules(lo, hi)
    sums = [s[0].tolist() for s in vintegral._rule_sums((np.cos(x) * np.exp(x))[None],
                                                         w_coarse, w_fine, 3)]
    assert all(vintegral._accepted(*row) for row in zip(*sums))
    for i in range(3):
        xi, wc, wf = vintegral._panel_rules(lo[i:i + 1], hi[i:i + 1])
        alone = vintegral._rule_sums((np.cos(xi) * np.exp(xi))[None], wc, wf, 1)
        assert [s[0].tolist() for s in alone] == [[column[i]] for column in sums]


# -- rank batches -------------------------------------------------------------

def _rank_by_rank(d, lo, hi, ranks, weight, shift):
    # One call per rank, up to the first refusal: its rank's message.
    values = []
    for n in ranks:
        try:
            values.append(integrate_rank(d, lo, hi, (n,), weight, shift)[0])
        except QuadratureError as exc:
            return values, str(exc)
    return values, None


def _assert_batch_is_rank_by_rank(d, lo, hi, ranks, weight, shift):
    values, refusal = _rank_by_rank(d, lo, hi, ranks, weight, shift)
    if refusal is None:
        got = integrate_rank(d, lo, hi, tuple(ranks), weight, shift)
        assert [v.hex() for v in got] == [v.hex() for v in values], (lo, hi, shift)
    else:
        with pytest.raises(QuadratureError) as exc:
            integrate_rank(d, lo, hi, tuple(ranks), weight, shift)
        assert str(exc.value) == refusal


@pytest.mark.parametrize("name, order", [
    (name, order) for name in ("bump", "plus", "minus", "mix") for order in (0, 1, 2)]
    + [("square", 0)])
def test_rank_batch_gives_the_bits_of_one_rank_at_a_time(name, order, request):
    d = request.getfixturevalue(name).derivative(order)
    ranks = derivative_schedule(DEFAULT_SCHEDULE, order)[:7]
    weights = [None] + [f.fn for f in sift_battery()[1::4]]
    for shift in (0.0, 0.3, -1.7, 1e15):
        # The whole line; a lower bound that cuts the support at ranks 16
        # and 32 only; an upper bound that cuts it at every rank.
        for lo, hi in ((-math.inf, math.inf), (shift - 0.02, math.inf),
                       (-math.inf, shift + 0.1 / ranks[-1])):
            for w in weights:
                _assert_batch_is_rank_by_rank(d, lo, hi, ranks, w, shift)


def test_rank_batch_of_a_weight_that_takes_no_array(bump, quad_calls):
    # The fixed rules call math.cos node by node: no quad call.
    ranks = (16, 32, 64)
    _assert_batch_is_rank_by_rank(bump.derivative(1), -math.inf, math.inf, ranks,
                                  math.cos, 0.3)
    assert not quad_calls


def test_one_rank_of_a_batch_is_refined(bump, quad_calls):
    # The kink of |x| lies inside a panel at rank 16 only: that rank alone
    # is refined on arrays, with the bits it has when taken alone.
    w = _seed_9_weight()
    ranks = DEFAULT_SCHEDULE[:7]
    got = integrate_rank(bump, -math.inf, math.inf, ranks, w, 0.0587)
    values, _ = _rank_by_rank(bump, -math.inf, math.inf, ranks, w, 0.0587)
    assert not quad_calls
    assert [v.hex() for v in got] == [v.hex() for v in values]
    assert np.isnan(_fixed_rule(bump, ranks, 0.0587, [w], -1.0, 1.0)[0]).sum() == 1
    assert _within_targets(got[0], _quad_reference(bump, 16, 0.0587, w, -1.0, 1.0))


def test_reduction_asks_for_its_first_seven_ranks_at_once(bump, monkeypatch):
    asked = []
    real = vintegral._rank_integrals
    monkeypatch.setattr(vintegral, "_rank_integrals",
                        lambda vf, lo, hi, ranks, *a: asked.append(ranks)
                        or real(vf, lo, hi, ranks, *a))
    res = dc.sift(bump, math.cos, a=0.3)
    assert asked == [DEFAULT_SCHEDULE[:7]] and len(res.rank_values) == 7
    # Past the seventh rank, one rank a call.
    asked.clear()
    values = [1.0 + (-0.5) ** k for k in range(len(DEFAULT_SCHEDULE))]
    lookup = dict(zip(DEFAULT_SCHEDULE, values))
    res = vintegral.reduce_sequence(list(DEFAULT_SCHEDULE),
                                    lambda ranks: asked.append(ranks)
                                    or [lookup[n] for n in ranks], 1e-9)
    assert asked[0] == DEFAULT_SCHEDULE[:7]
    assert asked[1:] == [(n,) for n in DEFAULT_SCHEDULE[7:len(res.rank_values)]]


# -- fixed-node panel quadrature of composites -------------------------------
# The x path of a composite: the monotone pieces of g cut into panels where
# n g(x) crosses each profile cut, both fixed rules on every panel, and
# adaptive quad on a panel where they disagree.  A g with no derivative
# rule takes it on every piece; otherwise it serves the pieces that the
# substitution u = n g(x) does not take (tested further below).

#: Composites delta(g(x)) and their bounds (None: the rank's +/- n).
REGION_CASES = [("x^2-4", None), ("x^3-2*x^2-x+2", None), ("exp(x)-2.5", None),
                ("1/(x-1.5)-2", None), ("(x-1.3)^2", None), ("sin(3*x)", (-20.0, 20.0))]


def _quad_panels(comp, n, panels, weight):
    # The adaptive quadrature each panel falls back to.
    if weight is None:
        f = lambda x: comp.rank_eval(n, x)
    else:
        f = lambda x: comp.rank_eval(n, x) * weight(x)
    return [_quad_piece(f, p, q) for p, q in panels]


def _x_panels(comp, key):
    # The x panels of each rank of the plan: of the pieces it takes in x,
    # then of those it takes in u, in the order of its rows.
    groups, panels = comp.nodes(key)
    rows = [row for _cuts, rows, _x, _jac in groups for row in rows]
    rows = vintegral._exact_spans(comp.kernel, comp.scan, key, rows)
    more = vintegral._panels(comp.kernel, comp.scan.fn, key, rows)
    return [[*ps, *qs] for ps, qs in zip(panels, more)]


def _composite(kern, text):
    return dc.compose(kern, to_real_function(parse(text)))


def _opaque(kern, text):
    # The same g with no derivative rule: every piece takes the x path.
    return dc.compose(kern, to_real_function(parse(text)).fn)


@pytest.mark.parametrize("name", ["bump", "square", "plus", "minus"])
@pytest.mark.parametrize("text, bounds", REGION_CASES)
def test_region_rule_matches_quad(name, text, bounds, request, quad_calls):
    kern = request.getfixturevalue(name)
    comp, subst = _opaque(kern, text), _composite(kern, text)
    lo, hi = (-math.inf, math.inf) if bounds is None else bounds
    weights = [None] + [f.fn for f in sift_battery()[2::3]]
    # Each panel's quad meets its target 1e-12 * max(1, |I_p|), and the
    # sum meets theirs.  Up to rank 64 both rules do so without quad.  At
    # higher ranks g's rounding, scaled by n inside the kernel, is itself
    # up to ~1e-11 of the integral (sin(3x) near x = 20): the two differ
    # at that level, and where the fixed rules do, quad decides.  Where
    # the substitution takes the whole rank, it gives the same integral.
    for n, tol in ((16, 1e-12), (64, 1e-12), (4096, 1e-10), (65536, 1e-10)):
        a, b = (-n, n) if bounds is None else bounds
        panels = comp.nodes(((n, a, b),))[1][0]
        in_u = not subst.nodes(((n, a, b),))[1][0]
        for w in weights:
            got = integrate_rank(comp, lo, hi, (n,), weight=w)[0]
            assert n > 64 or not quad_calls, (n, w)
            pieces = _quad_panels(comp, n, panels, w)
            quad_calls.clear()
            target = tol * sum(max(1.0, abs(v)) for v in pieces)
            assert abs(got - sum(pieces)) <= target, (n, w)
            if in_u:
                want = integrate_rank(subst, lo, hi, (n,), weight=w)[0]
                assert abs(got - want) <= 10.0 * target, (n, w)
            quad_calls.clear()


def test_region_rules_agree_on_a_mixture(mix, quad_calls):
    # The parts' edges are panel edges, as they are in u: no quad call.
    comp = _opaque(mix, "x^2-4")
    got = integrate_rank(comp, -64.0, 64.0, (64,), weight=np.cos)[0]
    assert not quad_calls
    want = _quad_panels(comp, 64, comp.nodes(((64, -64.0, 64.0),))[1][0], np.cos)
    assert abs(got - sum(want)) <= 1e-12 * sum(max(1.0, abs(v)) for v in want)


def test_math_only_weight_stays_in_u_on_every_region(bump, quad_calls, monkeypatch):
    # math.cos takes no array: the rule in u calls it node by node, so each
    # of the three roots' pieces stays in u, with the bits of its array
    # twin, and no panel is left to x or to quad.
    comp = _composite(bump, "x^3-2*x^2-x+2")
    key = ((64, -64.0, 64.0),)
    called = []
    real = vintegral._execute

    def execute(plan, *a):  # records the rows whose fallback is called
        ranks, blocks = plan
        return real((ranks, [(*b[:-1], lambda r, *f, fb=b[-1]: called.append(r) or fb(r, *f))
                             for b in blocks]), *a)

    monkeypatch.setattr(vintegral, "_execute", execute)
    got = integrate_rank(comp, -math.inf, math.inf, (64,), weight=math.cos)[0]
    assert not quad_calls
    # No x panel, so every block is in u: no rule in u rejects a piece.
    assert comp.nodes(key)[1] == ((),) and called == []
    assert sum(len(rows) for _cuts, rows, _x, _jac in comp.nodes(key)[0]) == 3
    twin = integrate_rank(comp, -math.inf, math.inf, (64,), weight=_per_node(math.cos))[0]
    assert got.hex() == twin.hex()
    want = _quad_panels(comp, 64, _x_panels(_opaque(bump, "x^3-2*x^2-x+2"), key)[0],
                        math.cos)
    assert abs(got - sum(want)) <= 1e-12 * sum(max(1.0, abs(v)) for v in want)


def test_rejected_piece_in_u_is_taken_in_x_on_its_own_panels(bump, monkeypatch):
    # The kink of |x - 2.001| lies 0.001 from the root 2 of x^2 - 4, inside
    # that piece's u range at every rank: the fixed rules in u reject it,
    # and its fallback takes it in x on its exact panels.  The piece at -2
    # stays in u.
    comp = _composite(bump, "x^2-4")
    w = to_real_function(parse("abs(x-2.001)")).fn
    ranks = (16, 32, 64, 128)
    key = tuple((n, -n, n) for n in ranks)
    taken = []
    real = vintegral._execute

    def execute(plan, *a):  # records each u row's fallback and its value
        if plan[0] != ranks:
            return real(plan, *a)
        return real((ranks, [(*b[:-1], lambda r, *f, fb=b[-1]: taken.append(
            (r, fb(r, *f))) or taken[-1][1]) for b in plan[1]]), *a)

    monkeypatch.setattr(vintegral, "_execute", execute)
    got = integrate_rank(comp, -math.inf, math.inf, ranks, weight=w)
    groups, panels = comp.nodes(key)
    assert panels == ((),) * 4
    rows = [row for _cuts, rows, _x, _jac in groups for row in rows]
    assert [rows[r] for r, _v in taken] == [(j, 1) for j in range(4)]
    assert [r for r, _v in taken] == [1, 3, 5, 7]
    assert [v.hex() for v in got] == ["0x1.006764adf6965p+0", "0x1.003d11453f8a5p+0",
                                      "0x1.0029442a26efbp+0", "0x1.0021babd86167p+0"]
    # Each piece reads quad's value on its exact x panels within 1e-12 of
    # the rank integral (about 1), but at rank 64: there the adaptive rule
    # stops on the panel that holds the kink with its differences under
    # 1e-12 and a true error of 2.2e-12, which is pinned here.
    for (r, v), n, total in zip(taken, ranks, got):
        spans = vintegral._exact_spans(comp.kernel, comp.scan, key, [rows[r]])
        ps = vintegral._panels(comp.kernel, comp.scan.fn, key, spans)[rows[r][0]]
        miss = abs(v - math.fsum(_quad_panels(comp, n, ps, w)))
        assert miss <= 1e-12 * total if n != 64 else 2e-12 < miss < 2.5e-12, (n, miss)
    # The CLI's answer: 0.001/4 + 4.001/4.  Its err is not asserted.
    out = io.StringIO()
    assert run_command(["integrate", "abs(x-2.001)*delta(x^2-4)", "--json"], out,
                       io.StringIO()) == 0
    assert abs(json.loads(out.getvalue())["value"] - 1.0005) <= 1e-12


def test_non_finite_region_weight_raises_like_quad(bump):
    # x^0.5 is nan on the array path and complex on the float path around
    # the root x = -2, where adaptive quadrature raises today's error.
    comp = _composite(bump, "x^2-4")
    f = to_real_function(parse("x^0.5")).fn
    with pytest.raises(QuadratureError):
        _quad_panels(comp, 16, _x_panels(comp, ((16, -16.0, 16.0),))[0], f)
    with pytest.raises(QuadratureError):
        integrate_rank(comp, -math.inf, math.inf, (16,), weight=f)


# -- composites in the substituted variable u = n g(x) -------------------------

#: Composites delta(g(x)) with bounds (None: the rank's +/- n), and for the
#: roots k of g on them the inverse x_k(t) of g(x) = t and |dx_k/dt|.
INVERSE_CASES = [
    ("x^2-4", None, (-1, 1), lambda k, t: k * np.sqrt(4.0 + t),
     lambda k, t: 0.5 / np.sqrt(4.0 + t)),
    ("exp(x)-2.5", None, (0,), lambda k, t: np.log(2.5 + t), lambda k, t: 1.0 / (2.5 + t)),
    ("1/(x-1.5)-2", None, (0,), lambda k, t: 1.5 + 1.0 / (2.0 + t),
     lambda k, t: 1.0 / (2.0 + t) ** 2),
    ("sin(3*x)", (-7.0, 7.0), range(-6, 7),
     lambda k, t: (k * np.pi + (-1) ** k * np.arcsin(t)) / 3.0,
     lambda k, t: 1.0 / (3.0 * np.sqrt(1.0 - t * t))),
]


@pytest.mark.parametrize("name", ["bump", "square", "plus", "minus", "mix"])
@pytest.mark.parametrize("text, bounds, roots, inverse, slope", INVERSE_CASES,
                         ids=[c[0] for c in INVERSE_CASES])
def test_substitution_matches_quad_on_the_inverse(name, text, bounds, roots, inverse,
                                                  slope, request, quad_calls):
    # The reference integrates p(u) w(x(u/n)) |dx/dt| in u by adaptive quad,
    # panel by panel, with x(t) in closed form: no root solve, no g'.  The
    # x path reads g at x, where its rounding, scaled by n, reaches 4e-11 of
    # the sin(3x) integral at n = 65536.
    d = request.getfixturevalue(name)
    comp = _composite(d, text)
    lo, hi = (-math.inf, math.inf) if bounds is None else bounds
    cuts = d.profile_cuts
    for n in (16, 64, 4096, 65536):
        for w in [None] + [f.fn for f in sift_battery()[2::3]]:
            got = integrate_rank(comp, lo, hi, (n,), weight=w)[0]
            pieces = [_quad_piece(lambda u, k=k: d.profile(u) * slope(k, u / n)
                                  * (1.0 if w is None else w(inverse(k, u / n))), p, q)
                      for k in roots for p, q in zip(cuts, cuts[1:])]
            assert abs(got - sum(pieces)) <= 1e-12 * sum(max(1.0, abs(v)) for v in pieces), (n, w)
    assert len(quad_calls) == 4 * 4 * len(roots) * (len(cuts) - 1)


def test_certified_composite_makes_no_bisect_call(monkeypatch, bump):
    from deltacalc import roots

    # Every piece of this cubic holds a root and is taken in u at every
    # rank: its plans read the grid-level splits, and no turn is refined.
    text = "0.9*(x+1.3)*(x-0.94)*(x-1.79)"
    calls = []
    real = roots._bisect
    counted = lambda *a, **kw: calls.append(a) or real(*a, **kw)
    monkeypatch.setattr(roots, "_bisect", counted)
    monkeypatch.setattr(vintegral, "_bisect", counted)
    comp = _composite(bump, text)
    res = reduce_integral(comp, weight=np.exp)
    ranks = tuple(n for n, _v in res.rank_values)
    assert all(not ps for ps in comp.nodes(tuple((n, -n, n) for n in ranks[:7]))[1])
    assert not calls and "pieces" not in vars(comp.scan)
    # The x path, which bisects its panel edges, gives the same integrals.
    got = integrate_rank(comp, -math.inf, math.inf, ranks[:7], weight=np.exp)
    want = integrate_rank(_opaque(bump, text), -math.inf, math.inf, ranks[:7], weight=np.exp)
    assert calls
    assert all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(got, want))


#: Composites whose plans need the exact ends of the pieces, with their
#: ranks, which of them are taken wholly in u, and their rank integrals
#: against cos, bit for bit: pieces in x at ranks 16 and 32 beside the
#: turn between two roots; a tangency, whose violated certificate sends
#: every piece to x; a pole, past which a piece is left out; and two roots
#: 0.015 apart, both inside the grid bracket of the turn between them.
EXACT_CASES = [
    ("(x-1.5)^2", (16, 32, 64, 128), (False, False, False, False),
     [0.35547656720211357, 0.5044032922721207, 0.7145263288217402, 1.0113366283403022]),
    ("-1.0547*(x+2.515)*(x+2.231)", (16, 32, 64, 128), (False, False, True, True),
     [-4.262482450076677, -5.775480673618678, -4.9313761313951225, -4.791598853683281]),
    ("1/(x-1.5)-2", (16, 32, 64, 1024), (True, True, True, True),
     [-0.1041356203905162, -0.10406142269504677, -0.10404288663599323,
      -0.10403673326648732]),
    ("(x-0.293)*(x-0.308)", (16, 1024, 32768, 65536), (False, False, True, True),
     [4.803998297113219, 40.58370399740506, 129.7569321624442, 127.92084672413193]),
]


@pytest.mark.parametrize("text, ranks, in_u, want", EXACT_CASES,
                         ids=[c[0] for c in EXACT_CASES])
def test_exact_ends_where_the_plan_needs_them(text, ranks, in_u, want, bump):
    comp = _composite(bump, text)
    key = tuple((n, -n, n) for n in ranks)
    assert tuple(not ps for ps in comp.nodes(key)[1]) == in_u
    # Each rank's panels are those it has alone: no rank's pieces depend on
    # another's.
    assert comp.nodes(key)[1] == tuple(comp.nodes(((n, -n, n),))[1][0] for n in ranks)
    assert "pieces" in vars(comp.scan)
    assert integrate_rank(comp, -math.inf, math.inf, ranks, weight=np.cos) == want
    # The x panels end at the exact ends of the pieces they meet.
    if not all(in_u):
        lo, hi, _glo, _ghi = comp.scan.pieces
        edges = {x for ps in comp.nodes(key)[1] for p in ps for x in p}
        assert set(lo[1:] + hi[:-1]) <= edges


def test_x_path_serves_what_the_substitution_does_not(bump):
    # An uncertified tangent, the ranks 16 and 32 of a root pair 0.28
    # apart, where n g at the extremum between them lies inside the
    # support, and an opaque g: the answers the x path gives.
    out = io.StringIO()
    assert run_command(["integrate", "delta((x-1.5)^2)", "--json"], out, io.StringIO()) == 0
    res = json.loads(out.getvalue())
    assert res["variant"] == "irreducible" and round(res["exponent"], 3) == 0.5
    assert res["rank_values"][:3] == [[16, 5.059006806178131], [32, 7.154516037434905],
                                      [64, 10.11801361235626]]
    comp = _composite(bump, "-1.0547*(x+2.515)*(x+2.231)")
    ranks = (16, 32, 64, 128)
    key = tuple((n, -n, n) for n in ranks)
    assert tuple(not ps for ps in comp.nodes(key)[1]) == (False, False, True, True)
    assert integrate_rank(comp, -math.inf, math.inf, ranks, weight=np.cos)[:3] == [
        -4.262482450076677, -5.775480673618678, -4.9313761313951225]
    res = reduce_integral(dc.compose(bump, lambda x: x * x - 4.0), weight=np.cos)
    assert res.value == -0.20807341827342085
    assert res.rank_values[:2] == ((16, -0.20805925093196878), (32, -0.20806987654824222))


def test_piece_end_inside_the_support_keeps_the_x_path(bump):
    # g = 0.01(x - 1) scanned over [0, 2] is one piece, where n g at the
    # ends is -/+0.16 at rank 16: inside the profile support, so that rank
    # takes the x path, on the panels either side of x = 1.  At rank 4096
    # both ends lie outside the support, and the substituted rank reads
    # 1/|g'|.
    comp = dc.compose(bump, to_real_function(parse("0.01*(x-1)")), window=(0.0, 2.0))
    key = ((16, 0.9, 1.1), (4096, 0.9, 1.1))
    assert tuple(not ps for ps in comp.nodes(key)[1]) == (False, True)
    assert comp.nodes(((16, 0.9, 1.1),))[1][0] == ((0.9, 1.0), (1.0, 1.1))
    assert integrate_rank(comp, 0.9, 1.1, (16,)) == [2.651194015672525]
    assert abs(integrate_rank(comp, 0.9, 1.1, (4096,))[0] - 100.0) <= 1e-12 * 100.0


# -- caches keyed by value ---------------------------------------------------

def test_convolve_cache_keys_on_the_profiles(monkeypatch):
    # A stub builder whose profile remembers the functions it was built
    # from.  Each loop frees the last profiles, so an id()-keyed cache would
    # hand their profile to the next ones.
    def stub(f1, c1, f2, c2):
        prof = lambda u: 0.0 * np.asarray(u, dtype=float)
        prof.inputs = (f1, f2)
        return prof

    monkeypatch.setattr(vintegral, "_contraction", stub)
    for c in range(8):
        p = RealFunction(lambda u, c=c: c + 0.0 * np.asarray(u), label=f"p{c}")
        d = dc.DiracKernel(p, (-1.0, 1.0), f"k{c}")
        assert dc.convolve(d, d).profile.fn.inputs == (p.fn, p.fn)


def test_equiv_finds_regions_once_per_rank(monkeypatch, bump):
    from deltacalc.rewrite import CompTerm, DeltaTerm, ScaleTerm, check_equivalence

    built, cut = [], []
    real_plan, real_panels = vintegral._substitution, vintegral._panels
    monkeypatch.setattr(vintegral, "_substitution",
                        lambda d, g, s, key: built.append(key) or real_plan(d, g, s, key))
    monkeypatch.setattr(vintegral, "_panels", lambda d, fn, key, rows: (
        rows and cut.append((key, tuple(rows)))) or real_panels(d, fn, key, rows))
    # Without a symbolic g' the composite takes the x path on every piece:
    # one plan per key, which cuts its pieces into panels once.
    g = RealFunction(lambda x: 2.0 * x, label="2x")
    verdict = check_equivalence(CompTerm(g), ScaleTerm(0.5, DeltaTerm()),
                                kernel=bump)
    assert verdict.consistent and verdict.battery_size == 20
    assert built and len(built) == len(set(built))
    assert cut and len(cut) == len(set(cut)) == len(built)


def test_equiv_solves_the_substitution_once_per_rank_set(monkeypatch, bump):
    from deltacalc.rewrite import CompTerm, DeltaTerm, ScaleTerm, check_equivalence

    built, solved = [], []
    real_plan, real_nodes = vintegral._substitution, vintegral._nodes

    def plan(d, g, s, key):
        out = real_plan(d, g, s, key)
        built.append((key, tuple(not ps for ps in out[1])))
        return out

    monkeypatch.setattr(vintegral, "_substitution", plan)
    monkeypatch.setattr(vintegral, "_nodes", lambda g, fn, key, cuts, rows: solved.append(
        (key, cuts, tuple(rows))) or real_nodes(g, fn, key, cuts, rows))
    g = to_real_function(parse("2*x"))
    verdict = check_equivalence(CompTerm(g), ScaleTerm(0.5, DeltaTerm()),
                                kernel=bump)
    assert verdict.consistent and verdict.battery_size == 20
    assert built and len(built) == len(set(built))
    assert solved and len(solved) == len(set(solved))
    # The first seven ranks are one batch, and no rank takes the x path.
    assert [n for n, _a, _b in solved[0][0]] == list(DEFAULT_SCHEDULE[:7])
    assert all(all(in_u) for _key, in_u in built)


def test_kernel_derivatives_and_their_node_values_are_built_once():
    from deltacalc import vintegral
    from deltacalc.vfun import bump_delta

    k = bump_delta()
    assert k.derivative(0) is k
    d2 = k.derivative(2)
    assert k.derivative(2) is d2 and d2.order == 2
    assert d2.derivative(1) is d2.derivative(1)
    p = vintegral._profile_on_nodes(d2.profile, d2.profile_cuts)
    assert p is vintegral._profile_on_nodes(d2.profile, d2.profile_cuts)
    assert not p.flags.writeable
    u = vintegral._fixed_nodes(d2.profile_cuts)[0]
    assert np.array_equal(p, d2.profile.fn(u))


# -- octave panels: every other family on the array rules -------------------

def _no_quad(*_args, **_kwargs):
    raise AssertionError("adaptive quad was called")


def test_lorentzian_ranks_on_octave_panels():
    # n/(1+n^2 x^2) over [-n, n] is 2 atan(n^2).  Its peak has width 1/n,
    # and the panels cut at 0 and +-2^j/n see it at every rank.
    ranks = tuple(2 ** k for k in range(4, 21))
    for n, v in zip(ranks, integrate_rank(dc.cauchy_psi(), -math.inf, math.inf, ranks)):
        want = 2.0 * math.atan(float(n) ** 2)
        assert abs(v - want) <= 1e-14 * want, n


@pytest.mark.parametrize("weight", [None, lambda x: np.exp(-x * x),
                                    lambda x: 1.0 / (1.0 + x * x)],
                         ids=["1", "exp(-x^2)", "1/(1+x^2)"])
def test_lorentzian_reduces_to_pi_with_no_quad_call(weight, monkeypatch):
    monkeypatch.setattr(vintegral, "quad", _no_quad)
    res = reduce_integral(dc.cauchy_psi(), weight=weight)
    assert res.reduced and abs(res.value - math.pi) <= 1e-13, res


def test_family_with_no_support_sifts_at_its_shift():
    # n e^(-n^2 x^2)/sqrt(pi) declares no support: its peak at the shift is
    # found by the panels about it, not by luck.
    gauss = dc.VirtualFunction(lambda n, x: n * np.exp(-(n * x) ** 2) / math.sqrt(math.pi))
    res = reduce_integral(gauss.translate(0.3), weight=np.cos)
    assert res.reduced and abs(res.value - math.cos(0.3)) <= 1e-12, res


def test_lorentzian_against_cos_is_within_err_or_not_reduced():
    # A rank that quadrature refuses is not Reduced either.
    try:
        res = reduce_integral(dc.cauchy_psi(), weight=np.cos)
    except QuadratureError:
        return
    assert not res.reduced or abs(res.value - math.pi) <= res.error_estimate, res
