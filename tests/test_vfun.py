import math

import numpy as np
import pytest

import deltacalc as dc
from deltacalc.errors import SmoothnessError
from deltacalc.vfun import (
    BUMP_NORMALIZATION,
    C_INF,
    DiracCertificate,
    DiracFailure,
    RealFunction,
    check_dirac,
    kernel_from_json,
    kernel_to_json,
)
from deltacalc.vnum import from_sequence, make_const


# -- RealFunction ----------------------------------------------------------

def test_real_function_analytic_derivative_chain():
    f = RealFunction(math.sin, derivs=(math.cos, lambda x: -math.sin(x)),
                     smoothness=C_INF, label="sin")
    assert f.derivative(1)(0.0) == 1.0
    assert abs(f.derivative(2)(math.pi / 2) + 1.0) < 1e-15


def test_real_function_fd_fallback():
    f = RealFunction(lambda x: x**3, smoothness=C_INF, label="x^3")
    # No analytic derivatives: finite differences take over.
    assert abs(f.deriv_value(1, 2.0) - 12.0) < 1e-7


def test_one_difference_past_the_rules_then_refusal():
    f = RealFunction(lambda x: x**3, label="x^3")
    with pytest.raises(SmoothnessError, match="order 2"):
        f.derivative(2)
    # A difference quotient is never differenced again.
    with pytest.raises(SmoothnessError, match="order 1"):
        f.derivative(1).derivative(1)
    g = RealFunction(math.sin, derivs=(math.cos,), label="sin")
    assert abs(g.derivative(2)(0.5) + math.sin(0.5)) < 1e-8
    with pytest.raises(SmoothnessError, match="order 3"):
        g.derivative(3)


def test_constant_has_every_derivative():
    from deltacalc.vfun import const_function

    assert const_function(3.0).derivative(6)(1.5) == 0.0


def test_smoothness_gate():
    f = RealFunction(abs, smoothness=0, label="|x|")
    with pytest.raises(SmoothnessError):
        f.derivative(1)


# -- kernels ---------------------------------------------------------------

def test_bump_normalization_constant():
    # 1 / integral of exp(-1/(1-x^2)) on (-1, 1); high-precision reference
    # value (30-digit quadrature): 2.25228362104358...
    assert abs(BUMP_NORMALIZATION - 2.25228362104358) < 1e-12


def test_bump_normalization_literal_matches_quad():
    # The constant is written out so that importing the package needs no
    # SciPy; it is the float adaptive quad gives at 1e-14.
    from scipy.integrate import quad

    from deltacalc.vfun import _raw_bump

    val, _ = quad(_raw_bump, -1.0, 1.0, epsabs=1e-14, epsrel=1e-14, limit=200)
    assert abs(BUMP_NORMALIZATION - 1.0 / val) <= 1e-14 * BUMP_NORMALIZATION


def test_bump_center_value(bump):
    # f_n(0) = n * c / e with c the normalization constant.
    for n in (16, 1024):
        expect = n * BUMP_NORMALIZATION / math.e
        assert abs(bump.rank_eval(n, 0.0) - expect) < 1e-12 * n


def test_bump_support(bump):
    assert bump.support_interval(64) == (-1.0 / 64.0, 1.0 / 64.0)
    assert bump.rank_eval(64, 1.0 / 64.0) == 0.0
    assert bump.rank_eval(64, 0.5) == 0.0


def test_square_pulse_values(square):
    assert square.rank_eval(10, 0.05) == 5.0
    assert square.rank_eval(10, 0.2) == 0.0


def test_shifted_supports(plus, minus):
    assert plus.support_interval(8) == (1.0 / 8.0, 3.0 / 8.0)
    assert minus.support_interval(8) == (-3.0 / 8.0, -1.0 / 8.0)
    assert plus.rank_eval(8, 2.0 / 8.0) > 0.0
    assert plus.rank_eval(8, 0.0) == 0.0


def test_translate(bump):
    shifted = bump.translate(3.0)
    n = 32
    assert shifted.rank_eval(n, 3.0) == bump.rank_eval(n, 0.0)
    lo, hi = shifted.support_interval(n)
    assert abs(lo - (3.0 - 1.0 / n)) < 1e-15


def test_eval_at_diagonal(bump):
    # f_n at the infinitesimal 1/(2n): inside the support at every rank, so
    # the diagonal value grows like n.
    xi = from_sequence(lambda n: 1.0 / (2.0 * n))
    v = bump.eval_at(xi)
    assert v.value_at(100) == bump.rank_eval(100, 0.005)
    assert v.value_at(200) > v.value_at(100)
    # The exported eval_at takes a real number too: n p(0.3 n) is 0 from n = 4.
    assert dc.classify(dc.eval_at(bump, 0.3)) is dc.NumberClass.INFINITESIMAL
    half = dc.eval_at(bump, dc.partial() * 0.5)
    assert [half.value_at(n) for n in dc.DEFAULT_SCHEDULE] == \
        [n * bump.profile(0.5) for n in dc.DEFAULT_SCHEDULE]
    assert dc.classify(half) is dc.NumberClass.INFINITE
    # At 2/n, outside the support [-1/n, 1/n], every rank reads 0.
    assert dc.classify(dc.eval_at(bump, dc.partial() * 2.0)) is dc.NumberClass.INFINITESIMAL


def test_kernel_derivative_shape(bump):
    d1 = bump.derivative(1)
    n = 50
    # Odd function of x at each rank; negative just right of the center.
    assert d1.rank_eval(n, 0.0) == 0.0
    assert d1.rank_eval(n, 0.005) < 0.0
    assert abs(d1.rank_eval(n, 0.005) + d1.rank_eval(n, -0.005)) < 1e-9


def test_square_kernel_derivative_rejected(square):
    with pytest.raises(SmoothnessError):
        square.derivative(1)


def test_mixture_averages(plus, minus, mix):
    n = 40
    for x in (0.05, -0.05, 0.02):
        want = 0.5 * (plus.rank_eval(n, x) + minus.rank_eval(n, x))
        assert abs(mix.rank_eval(n, x) - want) < 1e-12 * n


def test_mixture_reads_each_part_on_its_support(plus, minus):
    # Each part's profile is read only where u may lie in its support; its
    # value is 0.0 elsewhere, as the part's own profile gives there.
    from deltacalc.vfun import DiracKernel

    seen = []

    def recorded(d):
        fn = lambda u: seen.append((d.name, np.asarray(u))) or d.profile.fn(u)
        return DiracKernel(RealFunction(fn, smoothness=C_INF, label=d.name),
                           d.profile_support, d.name)

    mix = dc.mixture(recorded(plus), recorded(minus))
    us = np.linspace(-4.0, 4.0, 8001)
    seen.clear()
    got = mix.profile(us)
    for name, u in seen:
        lo, hi = (plus if name == "plus" else minus).profile_support
        assert ((lo <= u) & (u <= hi)).all()
    want = 0.5 * (plus.profile(us) + minus.profile(us))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert [mix.profile(u) for u in (-2.0, 0.0, 2.5)] == [0.5 * minus.profile(-2.0), 0.0,
                                                         0.5 * plus.profile(2.5)]
    # nan is handed to the parts, which decide its value.
    assert mix.profile(math.nan) == 0.5 * (plus.profile(math.nan) + minus.profile(math.nan))


def test_mixture_rejects_non_dirac(bump):
    bad = dc.cauchy_psi()
    with pytest.raises(TypeError):
        dc.mixture(bump, bad)


# -- the certificate check -------------------------------------------------

def test_check_dirac_accepts_bump(bump):
    res = check_dirac(bump)
    assert isinstance(res, DiracCertificate)
    assert abs(res.normalization - 1.0) < 1e-8
    assert res.support_class.value == "infinitesimal"


def test_check_dirac_accepts_square(square):
    assert check_dirac(square).ok


def test_check_dirac_rejects_cauchy_psi():
    res = check_dirac(dc.cauchy_psi())
    assert isinstance(res, DiracFailure)
    assert res.condition == "iii"


def test_check_dirac_rejects_point_altered():
    # Sifts like a delta (the single altered point has measure zero) but the
    # pointwise vanishing condition catches it.
    pa = dc.point_altered_delta(at=7.0, value=3.0)
    res = check_dirac(pa)
    assert not res.ok
    assert res.condition == "iii"
    assert "x=7" in res.detail


def test_point_altered_still_sifts():
    pa = dc.point_altered_delta()
    res = dc.sift(pa, math.cos, a=0.0)
    assert res.reduced
    assert abs(res.value - 1.0) < 1e-6


def test_check_dirac_rejects_negative_family(bump):
    res = check_dirac(bump.derivative(1))
    assert not res.ok
    assert res.condition == "i"


def test_check_dirac_reads_a_profile_on_one_grid(bump):
    # Condition (i) reads n^(k+1) p^(k)(u) on one grid of u for all ranks,
    # with the same first failing rank and message as rank by rank.
    from deltacalc.vfun import _DIRAC_GRID, DiracKernel

    sizes = []
    for k in (0, 1):
        d = bump.derivative(k)
        prof = RealFunction(lambda u, f=d.profile.fn: sizes.append(np.size(u)) or f(u),
                            smoothness=C_INF, label="counted")
        res = check_dirac(DiracKernel(prof, d.profile_support, "counted", order=k))
        assert sizes.count(_DIRAC_GRID) == 1
        sizes.clear()
    assert res.condition == "i" and res.detail == check_dirac(bump.derivative(1)).detail
    assert res.detail == "negative value -460 at x=0.047485, rank n=16"


def test_check_dirac_rejects_wrong_mass():
    from deltacalc.vfun import DiracKernel, _BUMP_PROFILE

    doubled = RealFunction(lambda x: 2.0 * _BUMP_PROFILE.fn(x),
                           smoothness=C_INF, label="2*bump")
    k = DiracKernel(doubled, (-1.0, 1.0), "double")
    res = check_dirac(k)
    assert not res.ok
    assert res.condition == "ii"


# -- serialization ---------------------------------------------------------

@pytest.mark.parametrize("name", ["bump", "square", "plus", "minus"])
def test_kernel_json_round_trip(name, all_kernels):
    key = {"mixture": "mixture"}.get(name, name)
    record = kernel_to_json(all_kernels[key])
    back = kernel_from_json(record)
    assert back.name == all_kernels[key].name
    n = 32
    for x in np.linspace(-0.2, 0.2, 11):
        assert back.rank_eval(n, float(x)) == all_kernels[key].rank_eval(n, float(x))


def _support_rule_at(rule, n):
    # "(a/n, b/n)" at rank n.
    return tuple(float(end.strip().removesuffix("/n")) / n
                 for end in rule.strip("()").split(","))


@pytest.mark.parametrize("name", ["bump", "square", "plus", "minus", "mixture",
                                  "convolution", "mixture(bump, square)"])
def test_support_rule_matches_support_interval(name, all_kernels, bump, square):
    kernel = (dc.mixture(bump, square) if name == "mixture(bump, square)"
              else all_kernels[name])
    rule = kernel_to_json(kernel)["support_rule"]
    for n in (1, 8):
        assert _support_rule_at(rule, n) == kernel.support_interval(n), rule


def test_mixture_json_round_trip(mix):
    record = kernel_to_json(mix)
    assert record["params"]["of"] == ["plus", "minus"]
    back = kernel_from_json(record)
    assert abs(back.rank_eval(16, 0.1) - mix.rank_eval(16, 0.1)) < 1e-12


def test_convolution_json_round_trip(conv):
    record = kernel_to_json(conv)
    assert record["params"]["of"] == ["bump", "bump"]
    back = kernel_from_json(record)
    assert back.name == "convolution"
    assert back.profile_support == conv.profile_support
    # The fixture's profile, found by value in the convolution cache, with
    # its derivatives: their node values are read from the same cache.
    assert back.profile is conv.profile
    assert back.derivative(1).profile.fn is conv.derivative(1).profile.fn
    for x in np.linspace(-0.06, 0.06, 11):
        assert back.rank_eval(32, float(x)) == conv.rank_eval(32, float(x))


def test_unknown_kernel_record_rejected():
    with pytest.raises(ValueError):
        kernel_from_json({"name": "nope"})


# -- closed-form bump derivatives and array evaluation -----------------------

def test_bump_derivatives_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    from deltacalc.vfun import _BUMP_PROFILE

    with mpmath.workdps(40):
        raw = lambda t: mpmath.exp(-1 / (1 - t * t))
        for k in range(7):
            dk = _BUMP_PROFILE.derivative(k)
            for x in (-0.83, -0.4, 0.0, 0.25, 0.6, 0.91):
                want = float(BUMP_NORMALIZATION * mpmath.diff(raw, x, k))
                assert abs(dk(x) - want) <= 1e-11 * max(1.0, abs(want)), (k, x)
            assert dk(1.0) == dk(-1.5) == 0.0


def test_shifted_and_mixed_profile_derivatives(plus, minus, mix):
    from deltacalc.vfun import _BUMP_PROFILE

    d3 = _BUMP_PROFILE.derivative(3)
    u = np.linspace(-3.5, 3.5, 41)
    assert np.array_equal(plus.derivative(3).profile(u), d3(u - 2.0))
    assert np.array_equal(mix.derivative(3).profile(u),
                          0.5 * (d3(u - 2.0) + d3(u + 2.0)))


@pytest.mark.parametrize("name", ["bump", "square", "plus", "minus", "mixture"])
def test_rank_eval_on_arrays_matches_floats(name, all_kernels):
    k = all_kernels[name]
    xs = np.linspace(-0.3, 0.3, 101)
    for d in ([k] if k.smoothness < 1 else [k, k.derivative(1), k.derivative(4)]):
        # numpy's vector loops may round exp differently by an ulp.
        np.testing.assert_allclose(
            d.rank_eval(16, xs), [d.rank_eval(16, float(x)) for x in xs],
            rtol=4 * np.finfo(float).eps, atol=0.0)
    pa = dc.point_altered_delta(at=0.0, value=3.0)
    assert pa.rank_eval(16, np.array([0.0, 0.01])).tolist() == [
        3.0, pa.rank_eval(16, 0.01)]


def test_check_dirac_takes_float_only_rank_functions():
    # A rank function that branches on a float cannot take the grids as
    # arrays; the check evaluates them point by point instead.
    square = dc.VirtualFunction(
        lambda n, x: 0.5 * n if abs(n * x) < 1.0 else 0.0,
        support=lambda n: (-1.0 / n, 1.0 / n), smoothness=-1, label="sq")
    assert check_dirac(square).ok


def test_outside_grid_is_np_unique_of_its_points():
    # Sorted and de-duplicated without np.unique, which imports numpy.ma.
    from deltacalc import vfun

    points = np.concatenate([np.linspace(-10.0, 10.0, 2001), np.arange(-10.0, 11.0)])
    want = np.unique(points)
    assert np.array_equal(vfun._OUTSIDE_GRID.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(vfun._outside_grid().view(np.uint64), want.view(np.uint64))
