import io
import json
import math

import pytest

from deltacalc.cli import Config, run_command


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    status = run_command(argv, out=out, err=err)
    return status, out.getvalue(), err.getvalue()


FAST = ["--probe-max-exp", "12"]


# -- simplify --------------------------------------------------------------

def test_simplify_composition():
    status, out, err = run(["simplify", "delta(x^2-4)"])
    assert status == 0
    assert "0.25·δ(x+2) + 0.25·δ(x−2)" in out
    assert "[strong]" in out


def test_simplify_scaling():
    status, out, _ = run(["simplify", "delta(3*x)"])
    assert status == 0
    assert "0.333333·δ(x)" in out


def test_simplify_vanish():
    status, out, _ = run(["simplify", "delta(sin(x)+2)"])
    assert status == 0
    assert out.strip().startswith("0")


def test_simplify_deriv_product_reports_order():
    status, out, _ = run(["simplify", "x^2*ddelta(x,1)"])
    assert status == 0
    assert "order 1" in out


def test_simplify_json():
    status, out, _ = run(["simplify", "delta(x^2-4)", "--json"])
    assert status == 0
    payload = json.loads(out)
    assert payload["strength"] == "strong"
    assert [t["a"] for t in payload["terms"]] == [-2.0, 2.0]


def _simplify_json(text):
    status, out, err = run(["simplify", "--json", "--", text])
    assert status == 0, err
    return json.loads(out)


@pytest.mark.parametrize("text,c", [("3*(x+delta(x-1))", 3.0),
                                    ("(x+delta(x-1))*2", 2.0),
                                    ("-(x+delta(x-1))", -1.0),
                                    ("(x+delta(x-1))/2", 0.5)])
def test_scaled_sum_keeps_smooth_residual(text, c):
    payload = _simplify_json(text)
    assert payload["terms"] == [{"c": c, "k": 0, "a": 1.0}]
    assert payload["residual"].startswith("smooth summand x")


def test_factor_order_does_not_change_derivative_terms():
    a = _simplify_json("x*ddelta(x-1,3)*exp(x)")["terms"]
    b = _simplify_json("x*exp(x)*ddelta(x-1,3)")["terms"]
    assert [(t["k"], t["a"]) for t in a] == [(t["k"], t["a"]) for t in b]
    assert all(abs(s["c"] - t["c"]) <= 1e-12 for s, t in zip(a, b))
    assert abs(a[0]["c"] + 4.0 * math.e) <= 1e-12


def test_factor_product_has_exact_derivatives():
    payload = _simplify_json("(x+1)*ddelta(x,2)*(x-1)")
    assert payload["terms"] == [{"c": 2.0, "k": 0, "a": 0.0},
                                {"c": -1.0, "k": 2, "a": 0.0}]
    assert payload["strength"] == {"order": 2}


@pytest.mark.parametrize("text, n, a, g_deriv", [
    ("exp(x)*ddelta(x-1,7)", 7, 1.0, lambda j: math.e),
    ("x^9*ddelta(x-1,8)", 8, 1.0, lambda j: float(math.perm(9, j))),
    ("sin(x)*ddelta(x,6)", 6, 0.0, lambda j: (0.0, 1.0, 0.0, -1.0)[j % 4]),
])
def test_high_order_normal_form_is_exact(text, n, a, g_deriv):
    # The binomial rule's coefficients (-1)^(n+i) C(n,i) g^(n-i)(a), exact
    # zeros left out.  Orders past 4 were differences of differences: c0
    # read -2.46108 for exp (truth -e) and -4.96056e+07 for x^9 (truth 9!),
    # and sin gained a spurious -7.4e-12 delta(x).
    want = [(c, i) for i in range(n + 1)
            if (c := (-1.0) ** (n + i) * math.comb(n, i) * g_deriv(n - i)) != 0.0]
    got = _simplify_json(text)["terms"]
    assert [(t["k"], t["a"]) for t in got] == [(i, a) for _c, i in want]
    for t, (c, _i) in zip(got, want):
        assert abs(t["c"] - c) <= 1e-12 * abs(c), (t, c)


@pytest.mark.parametrize("g, n", [("1/(1+x^2)", 16), ("atan(x)", 14), ("atan(x)", 16)])
def test_quotient_derivatives_stay_finite_at_high_order(g, n):
    # The quotient rule squared the denominator at every order, so order k
    # held (1+x^2)^(2^k): order 16 of 1/(1+x^2) overflowed a float power
    # (exit 1) and atan's order-14 coefficients were refused as not finite.
    mpmath = pytest.importorskip("mpmath")
    exact = {"1/(1+x^2)": lambda t: 1 / (1 + t * t), "atan(x)": mpmath.atan}[g]
    got = _simplify_json(f"{g}*ddelta(x-0.3,{n})")["terms"]
    assert [t["k"] for t in got] == list(range(n + 1))
    with mpmath.workdps(40):
        for t in got:
            i = t["k"]
            want = float((-1) ** (n + i) * math.comb(n, i)
                         * mpmath.diff(exact, mpmath.mpf(0.3), n - i))
            assert abs(t["c"] - want) <= 1e-12 * abs(want), (t, want)


def test_difference_of_a_difference_is_refused():
    # A library function with no derivative rule: one difference serves
    # order 1 only.
    from deltacalc.errors import SmoothnessError
    from deltacalc.rewrite import DeltaTerm, ProductTerm, simplify
    from deltacalc.vfun import RealFunction

    f = RealFunction(lambda x: x ** x, label="x^x")
    terms = simplify(ProductTerm(f, DeltaTerm(1, 1.0))).terms
    assert [(round(c, 6), k) for c, k, _a in terms] == [(-1.0, 0), (1.0, 1)]
    with pytest.raises(SmoothnessError, match="order 2"):
        simplify(ProductTerm(f, DeltaTerm(2, 1.0)))


def test_variable_exponent_has_every_order():
    # x^x at 1 and its derivatives there, 1, 1 and 2, in the binomial rule.
    mpmath = pytest.importorskip("mpmath")
    payload = _simplify_json("x^x*ddelta(x-1,2)")
    assert payload["strength"] == {"order": 2}
    want = [float(mpmath.diff(lambda t: t ** t, 1, 2 - i)) * (-1) ** i * math.comb(2, i)
            for i in range(3)]
    assert [(t["k"], t["a"]) for t in payload["terms"]] == [(0, 1), (1, 1), (2, 1)]
    assert all(abs(t["c"] - c) <= 1e-12 for t, c in zip(payload["terms"], want))


def test_variable_exponent_composite_reads_symbolic_slope():
    # delta(2^x - 3) = delta(x - log2 3) / (3 ln 2), g' from its rule.
    (term,) = _simplify_json("delta(2^x-3)")["terms"]
    truth = 1.0 / (3.0 * math.log(2.0))
    assert abs(term["c"] - truth) <= 4 * math.ulp(truth)


@pytest.mark.parametrize("text, truth", [("x^x*ddelta(x-1,2)", 2.0),
                                         ("x^(1+x)*ddelta(x-1,1)", -2.0)])
def test_variable_exponent_weight_sifts_within_err(text, truth):
    status, out, err = run(["integrate", text, "--json"])
    assert status == 0, err
    payload = json.loads(out)
    assert payload["variant"] == "reduced", payload
    assert abs(payload["value"] - truth) <= payload["error"], payload


def test_exponential_weight_sifts_at_order_3():
    # The third derivative of 2^x is (ln 2)^3 2^x: -(ln 2)^3 sqrt(2) at 0.5.
    # The value lies 3.4 ulps from it with an err of 1 ulp: the err of a
    # settled table does not count the rounding of the rank values.
    truth = -math.log(2.0) ** 3 * math.sqrt(2.0)
    status, out, err = run(["integrate", "2^x*ddelta(x-0.5,3)", "--json"])
    assert status == 0, err
    payload = json.loads(out)
    assert payload["variant"] == "reduced", payload
    assert abs(payload["value"] - truth) <= payload["error"] + 4 * math.ulp(truth), payload


@pytest.fixture
def weighted_kernel_orders(monkeypatch):
    """The order of each kernel that a profile kernel's rank integrals take
    against a weight: one of order >= 1 is the n^k path, n^k p^(k)(u)
    w(a + u/n)."""
    from deltacalc import vintegral

    orders, real = [], vintegral._profile_integrals

    def recorded(d, ranks, a, weights, factor=None, *bounds):
        if factor is not None or any(w is not None for w in weights):
            orders.append(d.order)
        return real(d, ranks, a, weights, factor, *bounds)

    monkeypatch.setattr(vintegral, "_profile_integrals", recorded)
    return orders


@pytest.mark.parametrize("argv", [
    ["x^x*ddelta(x-1,2)"], ["2^x*ddelta(x-0.5,3)"],
    ["x^(1+x)*ddelta(x-1,1)", "--kernel", "plus"], ["x^1.5*ddelta(x-2,2)"],
])
def test_weights_with_rules_take_no_n_power_path(argv, weighted_kernel_orders):
    status, _out, err = run(["integrate", *argv])
    assert status == 0, err
    assert weighted_kernel_orders and max(weighted_kernel_orders) == 0


def test_battery_members_take_no_n_power_path(bump, weighted_kernel_orders):
    import deltacalc as dc

    for f in dc.sift_battery():
        assert dc.sift_derivative(bump, 3, f, a=0.3).reduced, f.label
    assert weighted_kernel_orders and max(weighted_kernel_orders) == 0


@pytest.mark.parametrize("kernel, truth", [("bump", 0.0), ("plus", -1.0)])
def test_abs_weight_keeps_the_n_power_path(kernel, truth, weighted_kernel_orders):
    status, out, err = run(["integrate", "abs(x)*ddelta(x,1)", "--kernel", kernel, "--json"])
    assert status == 0, err
    payload = json.loads(out)
    assert payload["variant"] == "reduced" and abs(payload["value"] - truth) <= 1e-15
    assert 1 in weighted_kernel_orders
    status, out, err = run(["integrate", "abs(x)*ddelta(x,2)", "--json"])
    payload = json.loads(out)
    assert (payload["variant"], payload["exponent"]) == ("irreducible", 1), payload
    assert 2 in weighted_kernel_orders


@pytest.mark.parametrize("text, want", [
    ("x^x*ddelta(x-1,1)", "-1·δ(x−1) + 1·δ′(x−1)   [order 1]"),
    ("delta(abs(x)-1)", "1·δ(x+1) + 1·δ(x−1)   [strong]"),
])
def test_one_difference_still_serves(text, want):
    # Order 1 of x^x, by its rule, and the root slopes of the C^0
    # abs(x)-1, by one difference.
    status, out, err = run(["simplify", text])
    assert status == 0, err
    assert out.strip() == want


def test_non_finite_derivative_coefficient_is_refused():
    # (e^x)^2 has the derivative 2e^800 at 400: the product overflows to
    # inf, a coefficient no term may carry.
    status, out, err = run(["simplify", "exp(x)*exp(x)*ddelta(x-400,1)"])
    assert status == 1 and out == ""
    assert "not finite" in err


@pytest.mark.parametrize("text", ["delta(x)/x", "ddelta(x,1)/x", "ddelta(x,2)/x"])
def test_undefined_factor_is_named_at_every_order(text):
    # Orders 1 and 2 let the raw "cannot evaluate (1/x)^(k)" through.
    status, out, err = run(["simplify", text])
    assert status == 1 and out == ""
    assert "error (engine): factor undefined at a=0: cannot evaluate" in err


@pytest.mark.parametrize("text", ["x*1e308*delta(x-10)", "x*1e308*ddelta(x-10,1)"])
def test_factor_that_is_not_finite_is_named_at_every_order(text):
    status, out, err = run(["simplify", text])
    assert status == 1 and out == ""
    assert "error (engine): factor 'x*1e+308' is not finite at a=10" in err


def test_missing_derivative_is_not_an_undefined_factor():
    status, out, err = run(["simplify", "abs(x)*ddelta(x,1)"])
    assert status == 1 and out == ""
    assert "abs(x) is only C^0, cannot take derivative of order 1" in err


@pytest.mark.parametrize("text, c, a", [
    ("1e20*(exp(-40)*delta(x))", 424.8354255291589, 0.0),
    ("1e20*delta(1e15*(x-1))", 1e5, 1.0),
    ("1e20*((x-1+1e-15)*delta(x-1))", 1e5, 1.0),
])
def test_coefficients_are_trimmed_after_scaling(text, c, a):
    # Each rule's coefficient is below 1e-14 before the scale 1e20 applies:
    # trimmed there, the answer read 0.
    got = _simplify_json(text)["terms"]
    assert [(t["k"], t["a"]) for t in got] == [(0, a)]
    assert abs(got[0]["c"] - c) <= 1e-12 * c


def test_discontinuous_kernel_has_no_derivative():
    status, out, err = run(["integrate", "x*ddelta(x,1)", "--kernel", "square"])
    assert status == 1 and out == ""
    assert "square is only C^-1, cannot take derivative of order 1" in err


@pytest.mark.parametrize("text", ["delta(x)+0*x", "delta(x)+(2-2)*x",
                                  "delta(x)+0/(x+3)"])
def test_folded_zero_summand_is_structural_zero(text):
    payload = _simplify_json(text)
    assert payload["terms"] == [{"c": 1.0, "k": 0, "a": 0.0}]
    assert payload["residual"] is None


def test_simplify_uncertified_is_engine_error():
    status, out, err = run(["simplify", "delta(x^2)"])
    assert status == 1
    assert "error (engine)" in err


# -- integrate -------------------------------------------------------------

def test_integrate_delta():
    status, out, _ = run(["integrate", "delta(x)"] + FAST)
    assert status == 0
    assert "Reduced(1" in out


def test_integrate_irreducible():
    status, out, _ = run(["integrate", "delta(x)+3", "--json"])
    assert status == 0
    payload = json.loads(out)
    assert payload["variant"] == "irreducible"
    assert abs(payload["exponent"] - 1.0) < 0.05


def test_integrate_with_bounds():
    status, out, _ = run(["integrate", "delta(x-2)", "--lower", "3",
                          "--upper", "4"] + FAST)
    assert status == 0
    assert "Reduced(0" in out


@pytest.mark.parametrize("expr", ["delta(x-3)", "ddelta(x-3,1)", "delta(x^2-9)", "x"])
def test_reversed_bounds_are_refused_for_every_delta_term(expr):
    # The oriented integral from 5 to 1 is not 0; no term may read it so.
    status, out, err = run(["integrate", expr, "--lower", "5", "--upper", "1"] + FAST)
    assert status == 1 and out == ""
    assert "empty orientation" in err


@pytest.mark.parametrize("expr, bounds, truth", [
    ("exp(-x)", ["--lower", "20"], math.exp(-20)),
    ("delta(x+100)", ["--lower", "0"], 0.0),
    ("delta(x-100)", ["--upper", "0"], 0.0),
    ("delta(x-100)", ["--lower", "0"], 1.0),
])
def test_one_finite_bound_beyond_a_ranks_window_reads_zero_there(expr, bounds, truth):
    # At rank 16 the window [20, 16] or [0, -84] is empty, not reversed:
    # that rank reads 0 and later ranks reach the limit.
    status, out, err = run(["integrate", expr, *bounds, "--json"])
    assert status == 0, err
    payload = json.loads(out)
    assert payload["variant"] == "reduced"
    assert abs(payload["value"] - truth) <= 1e-9 * max(1.0, abs(truth))


@pytest.mark.parametrize("expr, truth", [("cos(x)*delta(x-5e5)", math.cos(5e5)),
                                         ("sin(x)*ddelta(x+3e4,1)", -math.cos(3e4)),
                                         ("delta(x-1e19)", 1.0)])
def test_far_shift_sifts_instead_of_reading_zero(expr, truth):
    # The infinite bounds are offsets from the shift, so no rank puts the
    # kernel's support outside them, even where a -/+ n rounds to a.
    status, out, err = run(["integrate", expr, "--json"])
    assert status == 0, err
    payload = json.loads(out)
    assert payload["variant"] == "reduced"
    assert abs(payload["value"] - truth) <= 1e-9


def _assert_reduces_to(argv, truth):
    """argv reduces within its reported error of truth, with the floor
    1e-12 * max(1, |truth|) of the sift calibration, and prints no -0."""
    status, out, err = run(argv + ["--json"])
    assert status == 0, err
    payload = json.loads(out)
    assert payload["variant"] == "reduced", payload
    assert abs(payload["value"] - truth) <= (payload["error"]
                                             + 1e-12 * max(1.0, abs(truth))), payload
    assert not payload["human"].startswith("Reduced(-0,")


def _runge_second_derivative(c, a):
    return (6.0 * c * c * a * a - 2.0 * c) / (1.0 + c * a * a) ** 3


@pytest.mark.parametrize("text, kernel, truth", [
    ("x^3*ddelta(x-1,2)", "minus", 6.0),
    ("cos(x)*ddelta(x-0.3,3)", "bump", -math.sin(0.3)),
    ("x*ddelta(x,3)", "bump", 0.0),
    ("exp(x)*ddelta(x,4)", "bump", 1.0),
    ("ddelta(x-0.3,3)*exp(x)", "minus", -math.exp(0.3)),
    ("1/(1+3.2838*x^2)*ddelta(x-0.4049,2)", "plus", _runge_second_derivative(3.2838, 0.4049)),
] + [(f"exp(x)*ddelta(x,{k})", "bump", (-1.0) ** k) for k in range(3, 44)])
def test_delta_derivative_sifts_by_parts(text, kernel, truth):
    # The derivative kernel's n^k p^(k)(u) lost digits or read noise as
    # divergence on each of these (94x its bar, 1.6e-8 off, Undetermined).
    _assert_reduces_to(["integrate", text, "--kernel", kernel], truth)


def test_delta_derivative_against_zero_prints_zero():
    # (-1)^k * 0.0 is -0.0, which %g prints as -0.
    status, out, _ = run(["integrate", "x*ddelta(x,3)"])
    assert status == 0 and out.startswith("Reduced(0, ")
    status, out, _ = run(["integrate", "x*ddelta(x,3)", "--json"])
    assert status == 0 and '"value":0,' in out and "-0" not in out


def test_derivative_cut_by_a_bound_keeps_its_end_terms():
    # The end term -delta_n(0) grows like n.
    status, out, _ = run(["integrate", "ddelta(x,1)", "--lower", "0"])
    assert status == 0 and out.startswith("Irreducible(p=1, sign -)")
    _assert_reduces_to(["integrate", "exp(x)*ddelta(x-0.3,2)", "--lower", "0.25"],
                       math.exp(0.3))


@pytest.mark.parametrize("expr, truth, tol", [
    ("exp(x)*ddelta(x,1)", -1.0, 1e-12),
    ("exp(x)*ddelta(x,2)", 1.0, 1e-9),
    ("exp(x)*ddelta(x,3)", -1.0, 1e-9),
    ("cos(x)*delta(x-0.3)", math.cos(0.3), 1e-12),
])
def test_contraction_sifts_and_its_derivatives_sift(expr, truth, tol):
    # bump * bump is C-inf, and its k-th derivative is the contraction of
    # the bump's k-th derivative with the bump: order 1 takes no difference
    # quotient and order 2 is not refused.
    status, out, err = run(["integrate", expr, "--kernel", "conv", "--json"])
    assert status == 0, err
    payload = json.loads(out)
    assert payload["variant"] == "reduced"
    assert abs(payload["value"] - truth) <= tol


@pytest.mark.parametrize("expr, bounds", [("delta(x-1e19)", ["--lower", "0"]),
                                          ("delta(x+1e19)", ["--upper", "0"])])
def test_far_shift_inside_one_finite_bound_sifts_whole(expr, bounds):
    # The kernel's whole support lies between the finite bound and the
    # infinite one at every rank: the integral is 1, not 1/2.
    status, out, err = run(["integrate", expr, *bounds, "--json"])
    assert status == 0, err
    payload = json.loads(out)
    assert payload["variant"] == "reduced"
    assert all(abs(v - 1.0) <= 1e-9 for _n, v in payload["rank_values"])


@pytest.mark.parametrize("shift", ["1e19", "1e15"])
def test_far_shifted_derivative_kernel_is_refused(shift):
    # Every node a + u/n rounds to a, so a derivative kernel reads w at one
    # point and its rank integral is exactly 0: |x|, which has no
    # derivative rule and keeps the derivative kernel, is refused.  By
    # parts x*ddelta reads x' = 1 and gives the truth, -1.
    status, out, err = run(["integrate", f"abs(x)*ddelta(x-{shift},1)"])
    assert status == 1 and out == ""
    assert "error (engine)" in err and f"a={float(shift):g}" in err
    _assert_reduces_to(["integrate", f"x*ddelta(x-{shift},1)"], -1.0)


def test_first_rank_to_fail_names_the_error_across_terms():
    # The terms' ranks are taken in batches: the first term is refused
    # only from rank 128, the second from rank 16, which names the error.
    status, out, err = run(["integrate", "abs(x)*ddelta(x-1e14,1) + abs(x)*ddelta(x-1e15,1)"])
    assert status == 1 and out == ""
    assert "at rank n=16," in err and "a=1e+15" in err


def test_far_shifted_derivative_kernel_alone_integrates_to_zero():
    # Without a weight no node is read: the integral of a kernel
    # derivative is 0 at any shift.
    status, out, err = run(["integrate", "ddelta(x-1e19,1)", "--json"])
    assert status == 0, err
    payload = json.loads(out)
    assert payload["variant"] == "reduced" and payload["value"] == 0.0


def test_integral_near_the_float_max_is_not_reduced_to_inf():
    # e^709.3 ~ 1.109e308: Richardson's factor * I_n overflowed, and the
    # table's (inf, inf) was accepted as Reduced(inf, err~inf).
    status, out, err = run(["integrate", "exp(x)*delta(x-709.3)", "--json"])
    assert status == 0, err
    payload = json.loads(out)
    assert payload["variant"] == "reduced"
    assert math.isfinite(payload["value"]) and math.isfinite(payload["error"])
    assert abs(payload["value"] - math.exp(709.3)) <= payload["error"]


@pytest.mark.parametrize("argv", [["simplify", "1e308*delta(x)+1e308*delta(x)"],
                                  ["simplify", "1e308*delta(x)+1e308*delta(x)", "--json"],
                                  ["simplify", "1e200*(1e200*delta(x))", "--json"]])
def test_overflowing_coefficient_is_refused(argv):
    # The merged coefficient 2e308 is inf: it printed inf·δ(x), and under
    # --json {"c":inf,...}, which no JSON parser reads.
    status, out, err = run(argv)
    assert status == 1 and out == ""
    assert "not finite" in err
    if "--json" in argv:
        assert json.loads(err)["error"] == "engine"


def test_partial_sum_overflow_is_not_refused():
    # 1e308 + 1e308 overflows on the way to the total 1e308.
    text = "1e308*delta(x)+1e308*delta(x)-1e308*delta(x)"
    status, out, err = run(["simplify", text])
    assert status == 0, err
    assert out.strip() == "1e+308·δ(x)   [strong]"
    status, out, err = run(["integrate", text])
    assert status == 0, err
    assert out.startswith("Reduced(1e+308, ")


@pytest.mark.parametrize("argv", [["integrate", "1e308*delta(x)+1e308*delta(x-1)"],
                                  ["integrate", "1e200*(1e200*delta(x))", "--json"]])
def test_overflowing_rank_sum_is_refused(argv):
    # Every I_n is inf: it gave Undetermined with inf in each rank value.
    status, out, err = run(argv)
    assert status == 1 and out == ""
    assert "at rank n=16, the integral is not finite" in err
    if "--json" in argv:
        assert json.loads(err)["error"] == "engine"


@pytest.mark.parametrize("bound", ["--lower=inf", "--lower=nan", "--upper=-inf"])
def test_non_finite_bound_is_refused(bound):
    status, out, err = run(["integrate", "delta(x)", bound] + FAST)
    assert status == 1 and out == ""
    assert "error (engine)" in err and "constant bound must be finite" in err


# -- equiv -----------------------------------------------------------------

def test_equiv_scaling_identity():
    status, out, _ = run(["equiv", "delta(2*x)", "0.5*delta(x)"] + FAST)
    assert status == 0
    assert "ConsistentEquivalent" in out


def test_equiv_distinct():
    status, out, _ = run(["equiv", "delta(x)", "delta(x-1)"] + FAST)
    assert status == 0
    assert "Distinct" in out


def test_equiv_names_the_side_that_does_not_reduce():
    # delta(x^2) on the square kernel diverges against 1; 0 reduces.
    status, out, err = run(["equiv", "0", "delta(x^2)", "--kernel", "square", "--json"])
    assert status == 0, err
    payload = json.loads(out)
    assert (payload["variant"], payload["side"], payload["witness"]) == \
        ("irreducible_side", "rhs", "1")


def test_equiv_far_shifted_delta_is_not_zero():
    # Every rank of delta(x-1e19) against 1 reads 1, so 0*x is distinct.
    status, out, err = run(["equiv", "delta(x-1e19)", "0*x", "--json"] + FAST)
    assert status == 0, err
    payload = json.loads(out)
    assert payload["variant"] == "distinct"
    assert abs(payload["lhs"] - 1.0) <= 1e-9 and payload["rhs"] == 0.0


def test_equiv_far_shift_skips_members_that_overflow():
    # exp(x) overflows at x ~ 709.8, so the rank integrals against it failed
    # and the command exited 1; the member is skipped and named.
    status, out, err = run(["equiv", "delta(x-800)", "delta(x-800)", "--json"] + FAST)
    assert status == 0, err
    payload = json.loads(out)
    assert payload["variant"] == "consistent_equivalent"
    assert payload["battery"] == 19 and payload["skipped"] == ["exp(+x)"]
    status, out, err = run(["equiv", "delta(x-800)", "delta(x-800)"] + FAST)
    assert status == 0, err
    assert out.strip().endswith("skipped, not finite at a shift: exp(+x)")


@pytest.mark.parametrize("lhs, rhs", [("delta(2*x-20)", "0.5*delta(x-10)"),
                                      ("x^4*delta(x-30)", "810000*delta(x-30)")])
def test_equiv_compares_large_integrals_relatively(lhs, rhs):
    # Each side is reduced to a relative tolerance: x^3 at 10 gives 500 on
    # both sides to 3.4e-9 relative, past an absolute 10*tol.
    status, out, err = run(["equiv", lhs, rhs, "--json"])
    assert status == 0, err
    assert json.loads(out)["variant"] == "consistent_equivalent"


def test_equiv_relative_deviation_is_still_decisive():
    status, out, _ = run(["equiv", "delta(x-30)", "1.001*delta(x-30)", "--json"])
    assert status == 0
    assert json.loads(out)["variant"] == "distinct"


@pytest.mark.parametrize("rhs", ["delta(2*x-1600)", "0.5*delta(x-800)"])
def test_equiv_skips_members_that_overflow_at_a_composite_root(tmp_path, rhs):
    # delta(2*x-1600) sits at its root 800, where exp(x) overflows.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scan_window": [790, 810]}))
    argv = ["equiv", "delta(2*x-1600)", rhs, "--config", str(cfg)]
    status, out, err = run(argv)
    assert status == 0, err
    assert out.startswith("ConsistentEquivalent over 19 ")
    assert out.strip().endswith("skipped, not finite at a shift: exp(+x)")


def test_equiv_without_skips_has_no_skipped_field():
    status, out, _ = run(["equiv", "delta(x-1)", "delta(x-1)", "--json"] + FAST)
    assert status == 0 and "skipped" not in json.loads(out)


# -- check-dirac / probe-kernels -------------------------------------------

@pytest.mark.parametrize("kernel", ["bump", "square", "plus", "minus"])
def test_check_dirac_accepts(kernel):
    status, out, _ = run(["check-dirac", "--kernel", kernel, "--json"] + FAST)
    assert status == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["kernel"]["name"] in (kernel, "mixture")


def test_check_dirac_names_the_condition_a_kernel_fails(monkeypatch):
    from deltacalc import bump_delta, cli

    monkeypatch.setitem(cli.KERNELS, "bump", lambda: bump_delta().derivative(1))
    status, out, _ = run(["check-dirac"] + FAST)
    assert status == 0
    assert out.startswith("bump: NOT a Dirac kernel — condition (i) violated: negative value")
    status, out, _ = run(["check-dirac", "--json"] + FAST)
    payload = json.loads(out)
    assert status == 0 and payload["valid"] is False and payload["condition"] == "i"
    assert payload["kernel"]["name"] == "bump^(1)"


def test_probe_kernels_flags_square_of_x():
    status, out, _ = run(["probe-kernels", "x^2",
                          "--kernels", "minus,square", "--json"] + FAST)
    assert status == 0
    payload = json.loads(out)
    assert payload["flagged"] is True


def test_probe_kernels_flags_values_that_disagree():
    # delta(|x|) depends on the kernel: bump reads 1, the one-sided plus 2.
    status, out, err = run(["probe-kernels", "abs(x)", "--kernels", "bump,plus", "--json"])
    assert status == 0, err
    payload = json.loads(out)
    assert payload["flagged"] is True
    assert payload["reason"] == "no generic operational rule: reduced values disagree (spread 1)"
    assert [(o["kernel"], round(o["result"]["value"], 12)) for o in payload["outcomes"]] == \
        [("bump", 1.0), ("plus", 2.0)]


def test_probe_kernels_rejects_delta_argument():
    status, _out, err = run(["probe-kernels", "delta(x)"])
    assert status == 1


@pytest.mark.parametrize("kernels", ["bump", "bump,bump", "bump,square,bump",
                                     "bump,nope", ""])
def test_probe_kernels_needs_two_distinct_known_kernels(kernels):
    # One kernel, or one kernel twice, agrees with itself and proves nothing.
    status, out, err = run(["probe-kernels", "x^2", "--kernels", kernels] + FAST)
    assert status == 2 and out == ""
    assert "error (config)" in err and "--kernels" in err


# -- trace -----------------------------------------------------------------

def test_trace_rank_csv(tmp_path):
    path = tmp_path / "trace.csv"
    status, out, _ = run(["integrate", "delta(x)", "--trace-out", str(path)]
                         + FAST)
    assert status == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "n,I_n"
    first = lines[1].split(",")
    assert float(first[0]) == 16.0


def test_trace_pointwise_csv(tmp_path):
    path = tmp_path / "points.csv"
    status, _out, _ = run(["trace", "delta(x)", "--at-rank", "64",
                           "--points", "11", "--trace-out", str(path)])
    assert status == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 12


def test_trace_without_rank_writes_the_integrate_trace(tmp_path):
    path = tmp_path / "trace.csv"
    status, _out, err = run(["integrate", "cos(x)*delta(x-1)", "--trace-out", str(path)])
    assert status == 0, err
    status, out, err = run(["trace", "cos(x)*delta(x-1)"])
    assert status == 0, err
    assert out == path.read_text()


def test_trace_at_rank_of_a_smooth_expression():
    status, out, err = run(["trace", "x^2", "--at-rank", "4", "--points", "3"])
    assert status == 0, err
    assert out == "x,value\n-2,4\n0,0\n2,4\n"


def test_trace_at_rank_of_smooth_and_composite_summands(bump):
    # The rank-4 integrand of x + delta(x^2-1) is x + 4 p(4(x^2-1)).
    status, out, err = run(["trace", "x+delta(x^2-1)", "--at-rank", "4", "--points", "41"])
    assert status == 0, err
    rows = [tuple(map(float, line.split(","))) for line in out.splitlines()[1:]]
    assert len(rows) == 41 and any(v != x for x, v in rows)
    for x, v in rows:
        assert abs(v - (x + bump.rank_eval(4, x * x - 1.0))) <= 1e-12, (x, v)


# -- error contract --------------------------------------------------------

def test_parse_error_exit_2():
    status, _out, err = run(["simplify", "delta(x"])
    assert status == 2
    assert "error (parse)" in err


def test_parse_error_json_on_stderr():
    status, out, err = run(["simplify", "1+*2", "--json"])
    assert status == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "parse"
    assert payload["position"] == 2


def test_nested_delta_dedicated_message():
    status, _out, err = run(["simplify", "delta(delta(x))"])
    assert status == 2
    assert "nested" in err


def test_config_error_exit_2(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text('{"no_such_key": 1}')
    status, _out, err = run(["integrate", "delta(x)", "--config", str(bad)])
    assert status == 2
    assert "config" in err
    # A config file that cannot be read, and a kernel that has no name.
    bad.write_text('{"kernel": "nope"}')
    for path, message in ((tmp_path / "missing.json", "cannot read config"),
                          (bad, "unknown kernel 'nope'")):
        status, out, err = run(["integrate", "delta(x)", "--config", str(path)])
        assert status == 2 and out == ""
        assert err.startswith("error (config)") and message in err
    # With --json, the error is one JSON object on stderr.
    bad.write_text('{"battery": "nope"}')
    status, out, err = run(["equiv", "delta(x)", "delta(x)", "--config", str(bad), "--json"])
    assert status == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "config" and "unknown battery 'nope'" in payload["message"]


@pytest.mark.parametrize("config", [
    {"probe_min_exp": 4.5}, {"probe_max_exp": 1e3}, {"battery": ["x"]},
    {"kernel": ["bump"]}, {"tolerance": True}, {"probe_min_exp": True}])
def test_config_value_of_the_wrong_type_exit_2(tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    status, out, err = run(["equiv", "delta(x)", "delta(x)", "--config", str(cfg)])
    assert status == 2 and out == ""
    assert err.startswith("error (config)") and next(iter(config)) in err


def test_engine_error_exit_1():
    status, _out, err = run(["simplify", "sin(x)+2"])
    assert status == 1


# -- config + determinism --------------------------------------------------

def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel": "square", "probe_max_exp": 10}))
    status, out, _ = run(["check-dirac", "--config", str(cfg), "--json"])
    assert status == 0
    assert json.loads(out)["kernel"]["name"] == "square"
    # Flag wins over file.
    status, out, _ = run(["check-dirac", "--config", str(cfg),
                          "--kernel", "bump", "--json"])
    assert json.loads(out)["kernel"]["name"] == "bump"


def test_config_schedule_property():
    cfg = Config(probe_min_exp=4, probe_max_exp=6)
    assert cfg.schedule == (16, 32, 64)


def test_json_output_is_byte_deterministic():
    runs = [run(["integrate", "cos(x)*delta(x^2-4)", "--json"] + FAST)
            for _ in range(2)]
    assert runs[0][0] == 0
    assert runs[0][1] == runs[1][1]
    assert runs[0][1].endswith("\n")


def test_json_floats_are_17_sig_digits():
    status, out, _ = run(["integrate", "delta(x-2)*cos(x)", "--json"] + FAST)
    assert status == 0
    payload = json.loads(out)
    # Round-tripping through the text must preserve the float exactly.
    text_value = out.split('"value":')[1].split(",")[0]
    assert float(text_value) == payload["value"]


# -- regressions and the fixed-node path ----------------------------------

def test_division_by_zero_is_engine_error():
    status, out, err = run(["simplify", "delta(1/x)"])
    assert status == 1
    assert "error (engine)" in err and "Traceback" not in err
    status, _, err = run(["integrate", "delta(x)+1/x", "--json"])
    assert status == 1
    assert json.loads(err)["error"] == "engine"


@pytest.mark.parametrize("argv, truth", [
    (["exp(-(x-30)^2)"], math.sqrt(math.pi)),
    (["exp(-100*(x-7.3)^2)"], math.sqrt(math.pi) / 10),
    (["exp(-1e4*(x-7.3)^2)", "--lower", "0", "--upper", "10"], math.sqrt(math.pi) / 100),
])
def test_smooth_summand_off_the_shift_is_found_on_octave_panels(argv, truth):
    # Mass away from the shift 0, in a peak of width 1, 0.1 or 0.01: the
    # panels cut at 0 and +-2^j/n place nodes on it at every rank.
    status, out, err = run(["integrate", *argv, "--json"])
    assert status == 0, err
    payload = json.loads(out)
    assert payload["variant"] == "reduced", payload
    assert abs(payload["value"] - truth) <= 1e-12 * truth, payload


@pytest.mark.parametrize("argv", [
    ["delta(x)+1/x"], ["1/x^2"], ["1/(x-0.5)^2"], ["sin(x)/x"],
    ["1/x^2", "--lower", "-1", "--upper", "1"],
    ["1/(x-0.3)^2", "--lower", "0", "--upper", "1"],
])
def test_pole_of_a_smooth_summand_is_refused(argv):
    # A pole at a panel cut is refused where the integrand is read there; one
    # inside a panel, where quad finds the integral probably divergent.
    status, out, err = run(["integrate", *argv])
    assert status == 1 and out == ""
    assert err.startswith("error (engine)") and "Traceback" not in err, err


def test_odd_smooth_summand_cancels_pair_by_pair():
    status, out, err = run(["integrate", "x", "--json"])
    assert status == 0, err
    payload = json.loads(out)
    assert payload["variant"] == "reduced" and payload["value"] == 0.0, payload


def test_oscillating_tail_is_within_err_or_not_reduced():
    status, out, err = run(["integrate", "cos(x)/(1+x^2)", "--json"])
    if status == 1:  # a rank that quadrature refuses: not Reduced either
        assert json.loads(err)["error"] == "engine", err
        return
    assert status == 0, err
    payload = json.loads(out)
    truth = math.pi / math.e
    assert (payload["variant"] != "reduced"
            or abs(payload["value"] - truth) <= payload["error"]), payload


def test_non_integer_order_is_within_err_or_not_reduced():
    # I_n = c n^-1.5: a table that eliminates 1/n, 1/n^2, ... in turn read
    # -5.67e-08 with err 4.09e-10, where column 1 shows order 1.5, not 2.
    status, out, err = run(["integrate", "abs(x)^1.5*delta(x)", "--json"])
    assert status == 0, err
    payload = json.loads(out)
    assert payload["variant"] != "reduced" or abs(payload["value"]) <= payload["error"], payload


def test_log_growth_is_not_irreducible():
    # I_n = 2 log(1 + n): its observed order settles at 0, not below it.
    status, out, err = run(["integrate", "1/(1+abs(x))", "--json"])
    assert status == 0, err
    assert json.loads(out)["variant"] != "irreducible"


def test_fifth_derivative_sifting():
    # (-1)^5 * 5! from closed-form bump derivatives of order 5.
    status, out, _ = run(["integrate", "ddelta(x,5)*x^5", "--json"])
    assert status == 0
    assert abs(json.loads(out)["value"] + 120.0) < 1e-6


def _readme_numerics_examples():
    import shlex
    from pathlib import Path

    text = Path(__file__).resolve().parents[1].joinpath("README.md").read_text()
    section = text.split("## Numerics", 1)[1].split("\n## ", 1)[0]
    return [shlex.split(line[len("$ deltacalc "):])
            for line in section.splitlines() if line.startswith("$ deltacalc ")]


@pytest.mark.parametrize("kernel", ["bump", "square", "plus", "minus", "mix"])
def test_readme_sift_examples_make_no_quad_call(kernel, monkeypatch):
    from deltacalc import vintegral

    calls = []
    real = vintegral.quad
    monkeypatch.setattr(vintegral, "quad",
                        lambda *a, **kw: calls.append(a[1:3]) or real(*a, **kw))
    examples = _readme_numerics_examples()
    assert len(examples) >= 2
    for argv in examples:
        argv = [a for a in argv if a != "--kernel"][:2] + ["--kernel", kernel]
        status, _, _ = run(argv)
        # ddelta on the discontinuous square kernel is refused up front.
        assert status == 0 or (kernel == "square" and "ddelta" in argv[1])
    assert calls == []


@pytest.mark.parametrize("kernel", ["bump", "square", "plus", "minus", "mix"])
@pytest.mark.parametrize("argv", [
    ["cos(x)*delta(x^2-4)"],
    # About 400 regions a rank (414/13 on the bump kernel).
    ["delta(cos(13-13*x))", "--lower", "-50", "--upper", "50", "--probe-max-exp", "8"]])
def test_composite_regions_make_no_quad_call(argv, kernel, monkeypatch):
    from deltacalc import vintegral

    calls = []
    real = vintegral.quad
    monkeypatch.setattr(vintegral, "quad",
                        lambda *a, **kw: calls.append(a[1:3]) or real(*a, **kw))
    status, out, _ = run(["integrate", *argv, "--kernel", kernel, "--json"])
    assert status == 0 and calls == []
    if kernel == "bump":
        want = 0.5 * math.cos(2.0) if argv[0].startswith("cos") else 414.0 / 13.0
        assert abs(json.loads(out)["value"] - want) <= 1e-8


def test_probe_of_close_roots_makes_no_quad_call(monkeypatch):
    # Roots 0.42 apart: at ranks 16 and 32, n g at the minimum between
    # them lies inside the support of minus, so the two pieces that meet
    # there take the x path, on panels where both fixed rules agree.
    from deltacalc import vintegral

    calls = []
    real = vintegral.quad
    monkeypatch.setattr(vintegral, "quad",
                        lambda *a, **kw: calls.append(a[1:3]) or real(*a, **kw))
    status, out, _ = run(["probe-kernels", "(-0.7518)*(x+1.7896)*(x+1.3667)*(x-0.9976)",
                          "--json"])
    assert status == 0 and calls == []


@pytest.mark.parametrize("kernel", ["bump", "square"])
def test_region_narrower_than_a_float_step_integrates_in_u(kernel):
    # |1e15 (x - 1)| < 1/n holds on at most the one float x = 1, so in x
    # every rank read 0; in u = n g(x) the Jacobian 1/|g'| = 1e-15 stays.
    status, out, _ = run(["integrate", "1e20*delta(1e15*(x-1))", "--kernel", kernel, "--json"])
    res = json.loads(out)
    assert status == 0 and res["variant"] == "reduced"
    assert abs(res["value"] - 1e5) <= 1e-9 * 1e5


@pytest.mark.parametrize("kernel", ["plus", "minus"])
def test_one_sided_kernel_at_a_flat_root(kernel):
    # On one side of the flat root of x^3, n x^3 stays inside the support
    # over a region that no grid point or probe around the root found at
    # high ranks.  On the monotone piece, the panels end where n x^3 meets
    # the profile cuts: I_n = n^(2/3) * (1/3) * int p(u) |u|^(-2/3) du.
    status, out, _ = run(["integrate", "delta(x^3)", "--kernel", kernel, "--json"])
    res = json.loads(out)
    assert status == 0 and res["variant"] == "irreducible"
    assert abs(res["exponent"] - 2.0 / 3.0) < 1e-3
    for n, v in res["rank_values"]:
        want = 0.21494712758990608 * n ** (2.0 / 3.0)
        assert abs(v - want) <= 1e-12 * want, n


@pytest.mark.parametrize("text", ["delta((x-1.3)^2)", "delta(x^2)"])
def test_one_sided_kernel_at_a_tangency(text):
    # n g meets the support of delta_+ on both sides of the touch:
    # I_n = sqrt(n) * int p(u) u^(-1/2) du.
    status, out, _ = run(["integrate", text, "--kernel", "plus", "--json"])
    res = json.loads(out)
    assert status == 0 and res["variant"] == "irreducible"
    assert abs(res["exponent"] - 0.5) < 1e-3
    for n, v in res["rank_values"]:
        want = 0.7182932341229047 * math.sqrt(n)
        assert abs(v - want) <= 1e-11 * want, n


def test_flat_odd_order_root_is_answered_without_a_traceback():
    # Brent's method stops short of converging next to a flat root; the
    # point it stops at is still the root.
    status, out, err = run(["integrate", "delta((x-1.3)^3)"])
    assert status == 0 and out.startswith("Irreducible(p=0.667, sign +)"), err
    status, out, err = run(["integrate", "cos(x)*delta((x-0.7)^3*(x+2))"])
    assert status == 0 and out.startswith("Irreducible(p=0.667"), err
    status, out, err = run(["simplify", "delta((x-1.3)^3)"])
    assert status == 1 and out == "" and "Traceback" not in err
    assert "non-simple root at x=1.3: derivative vanishes" in err, err


@pytest.mark.parametrize("kernel", ["bump", "plus"])
def test_overflowing_profile_order_is_refused(kernel):
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # A factor with no derivative rule needs the profile's own order-k
        # derivative, which overflows from k = 140.
        for text in ("abs(x)*ddelta(x,255)", "abs(x+1)*ddelta(x-0.3,140)"):
            status, out, err = run(["integrate", text, "--kernel", kernel])
            order = text.rsplit(",", 1)[1].rstrip(")")
            assert status == 1 and out == "", text
            assert f"kernel {kernel!r}" in err and f"order-{order}" in err, err
        # By parts no derivative of the profile is taken on the whole line.
        for text, truth in (("ddelta(x,255)", 0.0), ("exp(x)*ddelta(x,255)", -1.0),
                            ("ddelta(x-0.3,140)", 0.0), ("ddelta(x,139)", 0.0)):
            _assert_reduces_to(["integrate", text, "--kernel", kernel], truth)
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("order", [45, 128, 139])
def test_high_order_rank_that_diverges_is_refused_by_name(order):
    # The profile's values or the scale n^k leave the float range: the first
    # such rank is refused, naming itself and the kernel's order.  |x+5|
    # has no derivative rule, so the derivative kernel is integrated.
    status, out, err = run(["integrate", f"abs(x+5)*ddelta(x,{order})"])
    assert status == 1 and out == ""
    assert "at rank n=" in err and f"of order {order}" in err, err
    # By parts exp's rule reads exp^(k)(0) = 1.
    _assert_reduces_to(["integrate", f"exp(x)*ddelta(x,{order})"], (-1.0) ** order)


@pytest.mark.parametrize("order", [128, 139])
def test_rank_scale_beyond_the_float_range_is_refused(order):
    # 256^k is above the float range from k = 128: no bare OverflowError.
    from deltacalc.errors import QuadratureError
    from deltacalc.vfun import bump_delta
    from deltacalc.vintegral import profile_integral

    d = bump_delta().derivative(order)
    with pytest.raises(QuadratureError, match=f"at rank n=256, .* of order {order}") as info:
        profile_integral(d, (256,), 0.0, math.exp)
    assert info.value.rank == 256


def test_inner_structural_error_is_named_first():
    # Lifting walks a node's children before the node: of the two errors
    # here, delta inside sin is the inner one.
    for text in ("sin(delta(x))*delta(x)", "delta(x)*sin(delta(x))"):
        status, out, err = run(["simplify", text])
        assert status == 1 and out == ""
        assert "delta terms cannot appear inside sin(...)" in err, err


def test_json_parse_error_lists_expected_names_in_order():
    # `expected` is a set: sorted, its names are the same bytes in every
    # process, whatever the string hash seed.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import deltacalc

    argv = ["integrate", "delta(tanh(4*x)-0.2)", "--json"]
    errs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(Path(deltacalc.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "deltacalc.cli", *argv],
                              capture_output=True, env=env, timeout=60)
        assert proc.returncode == 2
        errs.append(proc.stderr)
    assert errs[0] == errs[1]
    expected = json.loads(errs[0])["expected"]
    assert expected == sorted(expected)


def _dumps_per_key(obj):
    # The JSON writer as it was: one json.dumps per key, string and literal.
    import numpy as np

    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        return "%.17g" % obj
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_dumps_per_key(v)}"
                              for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_dumps_per_key(v) for v in obj) + "]"
    raise TypeError(type(obj).__name__)


def test_json_text_writes_the_bytes_of_one_dumps_per_key(monkeypatch):
    import sys
    from pathlib import Path

    import numpy as np

    from deltacalc import cli

    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(root / "perfbench"))
    seen = []
    real = cli._json_text
    monkeypatch.setattr(cli, "_json_text", lambda obj: seen.append(obj) or real(obj))
    # One cycle of each benchmark workload, the README examples on every
    # kernel, and the error and usage paths.
    argvs = [list(q.argv) for workload in ("sift", "compose")
             for q, _ in zip(workloads.stream(workload, 1), workloads.cycle(workload))]
    argvs += [argv + ["--json"] for argv in _readme_numerics_examples()]
    argvs += [["simplify", "delta(x^2-4)", "--json"], ["check-dirac", "--kernel", "mix", "--json"],
              ["integrate", "delta(x", "--json"], ["integrate", "--json"],
              ["trace", "delta(x-0.5)", "--probe-max-exp", "6", "--json"]]
    for argv in argvs:
        run(argv)
    assert len(seen) > len(argvs)
    seen += [{"é\n\"": [float("nan"), -math.inf, -0.0, np.int64(7), True, None, "δ\t\x7f"]}]
    for obj in seen:
        assert real(obj) == _dumps_per_key(obj)


def test_smooth_summand_is_not_zero_from_its_values():
    # Each polynomial vanishes at the three points a probe once tried.
    status, out, _ = run(["simplify", "delta(x)+x*(x-1)*(x+1.3)"])
    assert status == 0 and "not reducible: smooth summand x*(x-1)*(x+1.3)" in out
    status, out, _ = run(["integrate", "delta(x)+x*(x-0.37)*(x+1.1)",
                          "--lower", "-1", "--upper", "2", "--json"])
    assert status == 0 and abs(json.loads(out)["value"] - 6.3295) <= 1e-9
    # The structural zero still is one.
    status, out, _ = run(["simplify", "delta(x)+0"])
    assert status == 0 and "not reducible" not in out and "1·δ(x)" in out


def test_complex_inner_function_is_engine_error():
    status, _, err = run(["integrate", "delta(x^2.5-1)"])
    assert status == 1
    assert "error (engine)" in err and "x^2.5-1" in err and "not real" in err
    assert "float() argument" not in err


def test_power_overflow_reads_as_out_of_range():
    # A float `**` overflows with the bare pair (34, 'Numerical result out
    # of range'); the message says what happened in words.
    status, out, err = run(["integrate", "x^400*delta(x-10)"])
    assert status == 1 and out == ""
    assert "error (engine)" in err and "x^400" in err and "result out of range" in err
    assert "(34" not in err and "Numerical" not in err


@pytest.mark.parametrize("text", ["x+1e999", "delta(x*1e999)", "ddelta(x,1e999)"])
def test_infinite_literal_is_parse_error(text):
    status, _, err = run(["simplify", text])
    assert status == 2
    assert "out of range" in err


# -- one scan window for every composite verb ------------------------------

def test_flat_run_is_not_a_tangency():
    # For x < -37, |e^x - 1| rounds to exactly 1: a plateau, not a dip.
    status, out, err = run(["simplify", "delta(exp(x)-1)"])
    assert status == 0, err
    assert out.strip() == "1·δ(x)   [strong]"


def test_off_grid_tangency_still_refused():
    status, _, err = run(["simplify", "delta((x-1.7)^2)"])
    assert status == 1
    assert "touches zero without sign change" in err


def test_simplify_and_integrate_agree_inside_window():
    status, out, err = run(["simplify", "delta(x^2-3025)", "--json"])
    assert status == 0, err
    terms = json.loads(out)["terms"]
    assert [t["a"] for t in terms] == [-55.0, 55.0]
    assert all(abs(t["c"] - 1.0 / 110.0) < 1e-15 for t in terms)
    status, out, _ = run(["integrate", "delta(x^2-3025)", "--json"])
    assert status == 0
    assert abs(json.loads(out)["value"] - 2.0 / 110.0) < 1e-9


def test_integrate_sees_roots_behind_a_complex_power():
    # On x < 0, x^2.5 is complex and abs() makes it real: the scan must see
    # the root at -1 as well as the one at 1, each 1/|g'| = 0.4.
    status, out, err = run(["integrate", "delta(abs(x^2.5)-1)", "--json"])
    assert status == 0, err
    assert abs(json.loads(out)["value"] - 0.8) < 1e-8


@pytest.mark.parametrize("verb", ["simplify", "integrate"])
def test_roots_past_window_are_refused(verb):
    # Roots at +-100: the window sees |g| shrinking toward both edges.
    status, out, err = run([verb, "delta(x^2-10000)"])
    assert status == 1
    assert out == ""
    assert "outside_scan_risk" in err


def test_recurring_roots_are_refused():
    # A periodic g: its roots go on past both edges of any window.  Most
    # root pairs of cos(x) - 0.9999999 lie between two grid points, where a
    # dip touches zero: the refusal is still the scan risk, not a tangency.
    for g in ("sin(0.6*x)", "cos(x)-0.9999999"):
        for verb in ("simplify", "integrate"):
            status, _, err = run([verb, f"delta({g})"])
            assert status == 1
            assert "outside_scan_risk" in err and "roots recur" in err


def test_root_pair_inside_one_grid_step_is_not_a_null():
    # |x-1| - 0.001 has roots at 0.999 and 1.001, both between the same two
    # grid points, and |g| = 0.001 between them: the dip is bisected down
    # to a root instead of resting on that local maximum, so no normal form
    # drops the two terms.
    status, out, err = run(["simplify", "delta(abs(x-1)-0.001)"])
    assert status == 1 and out == ""
    assert "touches zero without sign change" in err
    status, out, err = run(["integrate", "delta(abs(x-1)-0.001)", "--json"])
    assert status == 0, err
    assert abs(json.loads(out)["value"] - 2.0) < 1e-9


def test_pole_is_not_a_root():
    status, out, err = run(["simplify", "delta(1/(x-1.5)-2)"])
    assert status == 0, err
    assert out.strip() == "0.25·δ(x−2)   [strong]"


def test_scan_window_reaches_integrate(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scan_window": [-10, 10]}))
    status, _, err = run(["integrate", "delta(x^2-400)", "--config", str(cfg)])
    assert status == 1
    assert "outside_scan_risk" in err and "x=-10" in err
    status, out, _ = run(["integrate", "delta(x^2-400)", "--json"])
    assert status == 0 and abs(json.loads(out)["value"] - 0.05) <= 1e-10


@pytest.mark.parametrize("window", [[10, -10], [0, 0], [-1], "wide"])
def test_bad_scan_window_is_config_error(tmp_path, window):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scan_window": window}))
    status, _, err = run(["simplify", "delta(x)", "--config", str(cfg)])
    assert status == 2
    assert "error (config)" in err


def test_grid_size_is_gone(tmp_path):
    status, _, _ = run(["integrate", "delta(x^2-4)", "--grid-size", "64"])
    assert status == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_size": 4096}))
    status, _, err = run(["simplify", "delta(x^2-4)", "--config", str(cfg)])
    assert status == 2
    assert "grid_size" in err


def test_equiv_order_filters_battery():
    # The kink |x|(1+0.5sin(3x)) is C0 only: --order 1 drops it.
    status, out, _ = run(["equiv", "delta(x)", "delta(x)", "--order", "1",
                          "--json"] + FAST)
    assert status == 0
    assert json.loads(out)["battery"] == 19


def test_order_four_equivalences_are_consistent():
    # By parts each side reduces against every C^4 member; the derivative
    # kernel left the lhs irreducible against x.
    status, out, err = run(["equiv", "ddelta(x-0.5,4)", "ddelta(x-0.5,4)",
                            "--order", "4", "--json"])
    assert status == 0 and json.loads(out)["variant"] == "consistent_equivalent", err
    rhs = "+".join(f"({t['c']!r})*ddelta(x-0.5,{t['k']})"
                   for t in _simplify_json("exp(x)*ddelta(x-0.5,4)")["terms"])
    status, out, err = run(["equiv", "exp(x)*ddelta(x-0.5,4)", rhs, "--order", "4", "--json"])
    assert status == 0 and json.loads(out)["variant"] == "consistent_equivalent", err


# -- no traceback on any parseable composite -------------------------------

from hypothesis import HealthCheck, given, settings  # noqa: E402
from test_exprlang import _trees  # noqa: E402

from deltacalc.exprlang import render  # noqa: E402


@given(_trees(3))
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_composite_never_raises(tree):
    # Derandomized: an inner function with a thousand roots in the window
    # (say cos(13*x)) takes seconds to integrate, so the examples are fixed.
    text = f"delta({render(tree)})"
    for argv in (["simplify", text], ["integrate", text, "--probe-max-exp", "8"]):
        assert run(argv)[0] in (0, 1, 2), argv


# -- argparse output goes to the caller's streams --------------------------

def test_usage_error_goes_to_err(capsys):
    status, out, err = run(["integrate"])
    assert status == 2 and out == ""
    assert err.startswith("usage: deltacalc integrate")
    assert "error (usage): the following arguments are required: expression" in err
    assert capsys.readouterr() == ("", "")


def test_usage_error_under_json_is_an_error_object(capsys):
    status, out, err = run(["integrate", "delta(x)", "--kernel", "nope", "--json"])
    assert status == 2 and out == ""
    msg = json.loads(err)
    assert msg["error"] == "usage" and "invalid choice: 'nope'" in msg["message"]
    assert msg["usage"].startswith("usage: deltacalc integrate")
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("argv", [["--help"], ["integrate", "--help"]])
def test_help_goes_to_out(argv, capsys):
    status, out, err = run(argv)
    assert status == 0 and err == ""
    assert out.startswith("usage: deltacalc") and "-h, --help" in out
    assert capsys.readouterr() == ("", "")


# -- exit-code contract ----------------------------------------------------

def test_rank_overflow_is_config_error():
    # 2**1050 is no float: refused before any rank is built.
    status, out, err = run(["integrate", "delta(x)", "--probe-min-exp", "1050",
                            "--probe-max-exp", "1100"])
    assert status == 2 and out == ""
    assert err.startswith("error (config)") and "--probe-max-exp" in err
    assert "Traceback" not in err
    status, out, _ = run(["integrate", "delta(x)", "--probe-min-exp", "1000",
                          "--probe-max-exp", "1023", "--json"])
    assert status == 0 and abs(json.loads(out)["value"] - 1.0) < 1e-9
    # A minimum above the maximum leaves no schedule.
    status, out, err = run(["integrate", "delta(x)", "--probe-min-exp", "10",
                            "--probe-max-exp", "5"])
    assert status == 2 and out == ""
    assert err.startswith("error (config)") and "1 <= min < max" in err


def test_leading_minus_expression_follows_double_dash():
    status, out, err = run(["simplify", "-delta(x)"])
    assert status == 2 and out == "" and "error (usage)" in err
    status, out, _ = run(["simplify", "--json", "--", "-delta(x)"])
    assert status == 0
    assert json.loads(out)["terms"] == [{"c": -1.0, "k": 0, "a": 0.0}]
    # A leading plus is no option, and the expression is unchanged by it.
    plus = run(["integrate", "+delta(x)"])
    assert plus[0] == 0 and plus == run(["integrate", "delta(x)"])


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
def test_bad_tolerance_is_config_error(value):
    status, out, err = run(["integrate", "delta(x)", "--tolerance", value])
    assert status == 2 and out == ""
    assert "error (config)" in err and "tolerance" in err


@pytest.mark.parametrize("flags", [["--at-rank", "0"], ["--at-rank", "-4"],
                                   ["--points", "-2"], ["--x-min", "nan"],
                                   ["--x-max", "inf"], ["--x-min", "-inf"]])
def test_bad_trace_sampling_is_config_error(flags):
    status, out, err = run(["trace", "delta(x)", "--at-rank", "3", *flags])
    assert status == 2 and out == ""
    assert "error (config)" in err and flags[0] in err
    status, out, err = run(["trace", "delta(x)", "--at-rank", "3", *flags, "--json"])
    assert status == 2 and out == ""
    msg = json.loads(err)
    assert msg["error"] == "config" and flags[0] in msg["message"]


@pytest.mark.parametrize("argv, flag, plain, exponent", [
    (["integrate", "delta(x+500)"], "--lower", "-1000", "-1e3"),
    (["integrate", "delta(x+500)"], "--upper", "-100", "-1E2"),
    (["integrate", "delta(x)"], "--tolerance", "-0.001", "-1e-3"),
    (["trace", "delta(x)", "--at-rank", "3", "--points", "3"], "--x-min", "-1000", "-1e3"),
    (["trace", "delta(x)", "--at-rank", "3", "--points", "3"], "--x-max", "-0.5", "-5e-1"),
])
def test_negative_value_in_exponent_form_is_not_an_option(argv, flag, plain, exponent):
    # argparse reads "-1e3" as an option, where it reads "-1000" as a value.
    want = run(argv + [flag, plain] + FAST)
    assert want[0] in (0, 2) and "error (usage)" not in want[2]
    assert run(argv + [flag, exponent] + FAST) == want
    assert run(argv + [f"{flag}={exponent}"] + FAST) == want


def test_expression_in_exponent_form_after_a_minus_is_still_a_usage_error():
    status, out, err = run(["integrate", "-1e3"])
    assert status == 2 and out == ""
    assert "error (usage): the following arguments are required: expression" in err
    # A float option followed by a non-number that starts with "-" is not joined.
    status, out, err = run(["integrate", "delta(x)", "--lower", "-x"])
    assert status == 2 and out == ""
    assert "error (usage): argument --lower: expected one argument" in err


#: The sifted values of the two cases below.
ABOVE_CAP_TRUTH = {"ddelta(x,2)*cos(x)": -1.0, "ddelta(x-0.3,1)*sin(x)": -math.cos(0.3)}


@pytest.mark.parametrize("text,exps,order,cap", [
    ("ddelta(x,2)*cos(x)", ["30", "40"], 2, 1024),
    ("ddelta(x-0.3,1)*sin(x)", ["60", "70"], 1, 4096)])
def test_schedule_above_order_cap_is_refused(text, exps, order, cap):
    # At such ranks a + u/n rounds to a, and every I_n of a derivative
    # kernel read 0: with a factor that has no derivative rule, it is
    # refused.  By parts the factor's derivative is read at a, as it should.
    schedule = ["--probe-min-exp", exps[0], "--probe-max-exp", exps[1]]
    status, out, err = run(["integrate", text.split("*")[0] + "*abs(x+3)", *schedule])
    assert status == 1 and out == ""
    assert "error (engine)" in err and f"n = {cap}" in err and f"order {order}" in err
    _assert_reduces_to(["integrate", text, *schedule], ABOVE_CAP_TRUTH[text])


def test_default_schedule_under_order_cap_still_reduces():
    status, out, _ = run(["integrate", "ddelta(x,2)*cos(x)", "--json"])
    assert status == 0 and abs(json.loads(out)["value"] + 1.0) < 1e-9


# -- what a process builds once --------------------------------------------

#: Three composites in one query: more than a 2-entry cache holds.
THREE_COMPOSITES = [
    ["equiv", "delta(x^2-1)+delta(x^2-4)+delta(x^2-9)",
     "0.5*delta(x-1)+0.5*delta(x+1)+0.25*delta(x-2)+0.25*delta(x+2)"
     "+delta(x-3)/6+delta(x+3)/6", "--json"],
    ["integrate", "delta((x-1.5)^2)+delta(x^2-1)+delta(x^2-4)", "--json"],
]


@pytest.mark.parametrize("argv", THREE_COMPOSITES)
def test_query_builds_each_composite_once(argv, monkeypatch):
    # One call of rewrite.compose, the name perfbench/tracer.py wraps to
    # count `vintegral.compose.calls`, and one scan per composite.
    from deltacalc import rewrite, roots

    built, compose = [], rewrite.compose
    monkeypatch.setattr(rewrite, "compose",
                        lambda d, g, **kw: built.append(g) or compose(d, g, **kw))
    scanned, init = [], roots.Scan.__init__
    monkeypatch.setattr(roots.Scan, "__init__",
                        lambda self, g, window: scanned.append(g) or init(self, g, window))
    status, out, err = run(argv)
    assert status == 0, err
    assert len(built) == len(set(map(id, built))) == 3
    assert [id(g) for g in scanned] == [id(g) for g in built]
    assert json.loads(out)["variant"] == ("consistent_equivalent" if argv[0] == "equiv"
                                          else "irreducible")


def test_parser_keeps_no_state_between_calls():
    def kernel_of(argv):
        status, out, _ = run(["check-dirac", "--json", *argv])
        assert status == 0
        return json.loads(out)["kernel"]["name"]

    assert kernel_of(["--kernel", "square"]) == "square"
    assert kernel_of([]) == "bump"
    status, out, _ = run(["integrate", "delta(x-2)", "--lower", "3", "--upper", "4"]
                         + FAST)
    assert status == 0 and "Reduced(0" in out
    status, out, _ = run(["integrate", "delta(x-2)"] + FAST)
    assert status == 0 and "Reduced(1" in out
    assert run(["integrate", "--no-such-flag"])[0] == 2
    assert run(["integrate", "delta(x)"] + FAST)[0] == 0


def test_named_kernel_is_built_once(monkeypatch):
    from deltacalc import vfun, vintegral
    from deltacalc.cli import KERNELS

    assert KERNELS["mix"]() is KERNELS["mix"]()
    argv = ["integrate", "cos(x)*delta(x-0.5)", "--kernel", "mix", "--json"]
    first = run(argv)
    quads, checks = [], []
    real_quad, real_check = vintegral.quad, vfun.check_dirac
    monkeypatch.setattr(vintegral, "quad",
                        lambda *a, **kw: quads.append(a[1:3]) or real_quad(*a, **kw))
    monkeypatch.setattr(vfun, "check_dirac",
                        lambda *a, **kw: checks.append(a) or real_check(*a, **kw))
    assert run(argv) == first
    assert quads == [] and checks == []


def test_outputs_do_not_depend_on_earlier_calls():
    # The README examples on the four profile kernels, run twice in this
    # process in two orders, against each run alone in a fresh process.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import deltacalc

    commands = [[a for a in argv if a != "--kernel"][:2] + ["--kernel", kernel, "--json"]
                for kernel in ("bump", "square", "plus", "minus")
                for argv in _readme_numerics_examples()]
    env = dict(os.environ, PYTHONPATH=str(Path(deltacalc.__file__).parents[1]))
    fresh = []
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "deltacalc.cli", *argv],
                              capture_output=True, text=True, env=env)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert sum(rc == 0 for rc, _, _ in fresh) >= 10
    order = list(range(len(commands)))
    for i in order + order[::2] + order[1::2][::-1]:
        assert run(commands[i]) == fresh[i], commands[i]


@pytest.mark.parametrize("argv", [["integrate", "ddelta(x,1e20)"],
                                  ["simplify", "x*ddelta(x,1e20)"],
                                  ["equiv", "ddelta(x,1e20)", "ddelta(x,1e20)"]],
                         ids=["integrate", "simplify", "equiv"])
def test_huge_ddelta_order_is_a_parse_error(argv):
    # In a child process with a timeout, so that a hang fails the test.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import deltacalc

    env = dict(os.environ, PYTHONPATH=str(Path(deltacalc.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "deltacalc.cli", *argv, "--json"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    payload = json.loads(proc.stderr)
    assert payload["error"] == "parse" and "above 255" in payload["message"]
    assert payload["position"] == argv[1].index("1e20")


#: The limits of the two high-order sifts below.
HIGH_ORDER_TRUTH = {"exp(x)*ddelta(x-0.3,7)": -math.exp(0.3), "cos(x)*ddelta(x,7)": 0.0}


@pytest.mark.parametrize("argv", [["integrate", "exp(x)*ddelta(x-0.3,7)"],
                                  ["integrate", "cos(x)*ddelta(x,7)", "--kernel", "plus"]])
def test_finite_high_order_sift_is_not_irreducible(argv):
    # The derivative kernel's rounding noise grew like a power of n, which
    # the power-law fit took for divergence; by parts there is no n^k.
    _assert_reduces_to(argv, HIGH_ORDER_TRUTH[argv[1]])


@pytest.mark.parametrize("argv", [["integrate", "delta(x)/x", "--kernel", "plus"],
                                  ["integrate", "delta(x)+3"]])
def test_divergent_sift_stays_irreducible(argv):
    status, out, _ = run(argv + ["--json"])
    assert status == 0
    payload = json.loads(out)
    assert payload["variant"] == "irreducible" and abs(payload["exponent"] - 1.0) < 0.05
