"""Acceptance suite: twelve end-to-end criteria, one pass/fail line each.

Each criterion records a summary line (printed in the terminal summary via
the hook in conftest.py) and then asserts, so a red criterion is visible
both in the pytest report and in the one-line ledger.
"""

import itertools
import math

import numpy as np
import pytest

import deltacalc as dc
from deltacalc.rewrite import (
    CompTerm,
    DeltaTerm,
    ProductTerm,
    ScaleTerm,
    SmoothTerm,
    check_equivalence,
    evaluate_normal_form,
    kernel_dependence_probe,
    reduce_expr_integral,
    rewrite_composition,
    rewrite_deriv_product,
    rewrite_product,
    sift_battery,
    standard_battery,
)
from deltacalc.vfun import C_INF, RealFunction, const_function
from deltacalc.vintegral import _quad_piece, integrate_rank

REPORT = []


def _record(num, name, ok, detail):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    REPORT.append(line)
    assert ok, line


def _rf(fn, *derivs, label="g"):
    return RealFunction(fn, derivs=tuple(derivs), label=label)


X2M4 = _rf(lambda x: x * x - 4.0, lambda x: 2.0 * x, label="x^2-4")


def test_01_normalization(all_kernels):
    worst = 0.0
    for name, k in all_kernels.items():
        res = dc.reduce_integral(k)
        assert res.reduced, name
        worst = max(worst, abs(res.value - 1.0))
    _record(1, "normalization of all six kernels", worst <= 1e-8,
            f"max |I-1| = {worst:.3g}, tol 1e-8")


def test_02_sifting(all_kernels):
    worst = 0.0
    for (name, k), f, a in itertools.product(
            all_kernels.items(), sift_battery(), (-1.0, 0.0, 0.5, 3.0)):
        res = dc.sift(k, f, a=a)
        assert res.reduced, (name, f.label, a)
        worst = max(worst, abs(res.value - f(a)))
    _record(2, "sifting (6 kernels x 10 functions x 4 shifts)",
            worst <= 1e-6, f"max |sift - f(a)| = {worst:.3g}, tol 1e-6")


def test_03_composition_rule(bump):
    errs = []
    # x^2 - 4 against cos: symbolic and direct high-rank quadrature.
    want = math.cos(2.0) / 2.0
    nf = rewrite_composition(X2M4)
    fcos = standard_battery()[6]
    errs.append(abs(evaluate_normal_form(nf, fcos) - want))
    comp = dc.compose(bump, X2M4)
    direct = integrate_rank(comp, -math.inf, math.inf, (2**16,), weight=math.cos)[0]
    errs.append(abs(direct - want))
    # 3x: coefficient 1/3.
    g3 = _rf(lambda x: 3.0 * x, lambda x: 3.0, label="3x")
    nf3 = rewrite_composition(g3)
    errs.append(abs(nf3.terms[0][0] - 1.0 / 3.0))
    direct3 = integrate_rank(dc.compose(bump, g3), -math.inf, math.inf, (2**16,),
                             weight=math.cos)[0]
    errs.append(abs(direct3 - 1.0 / 3.0))
    # sin x on [-1, 7]: roots 0, pi, 2pi, all with |g'| = 1.
    gs = _rf(math.sin, math.cos, label="sin x")
    nfs = rewrite_composition(gs, window=(-1.0, 7.0))
    want_s = sum(math.cos(a) for _c, _k, a in nfs.terms)
    assert len(nfs.terms) == 3
    comp_s = dc.compose(bump, gs, window=(-1.0, 7.0))
    direct_s = integrate_rank(comp_s, -1.0, 7.0, (2**16,), weight=math.cos)[0]
    errs.append(abs(evaluate_normal_form(nfs, fcos) - want_s))
    errs.append(abs(direct_s - want_s))
    worst = max(errs)
    _record(3, "composition rule (x^2-4, 3x, sin)", worst <= 1e-6,
            f"max deviation {worst:.3g}, tol 1e-6")


def test_04_vanish_rule(bump):
    bad = 0
    for g in (_rf(lambda x: x * x + 1.0, lambda x: 2.0 * x, label="x^2+1"),
              _rf(lambda x: math.sin(x) + 2.0, math.cos, label="sin x+2")):
        res = dc.reduce_integral(dc.compose(bump, g))
        assert res.reduced
        bad += sum(1 for _n, v in res.rank_values if v != 0.0)
    _record(4, "vanish rule (exact zero at every probed rank)", bad == 0,
            f"{bad} nonzero rank values")


def test_05_irreducibility_exponents(bump, square):
    devs = []
    for k in (1.0, 3.0):
        expr = dc.SumTerm((DeltaTerm(), SmoothTerm(const_function(k))))
        res = reduce_expr_integral(expr, kernel=bump)
        assert res.kind == "irreducible", k
        devs.append(abs(res.exponent - 1.0))
    comp = dc.compose(square, lambda x: x * x)
    res = dc.reduce_integral(comp)
    assert res.kind == "irreducible"
    devs.append(abs(res.exponent - 0.5))
    worst = max(devs)
    _record(5, "irreducible growth exponents", worst <= 0.05,
            f"max |p - expected| = {worst:.3g}, tol 0.05")


def test_06_kernel_dependence(bump, square, plus, minus, mix):
    gx2 = _rf(lambda x: x * x, lambda x: 2.0 * x, label="x^2")
    gexp = _rf(math.exp, math.exp, label="exp(x)")
    r1 = kernel_dependence_probe(gx2, [minus, square])
    r2 = kernel_dependence_probe(gexp, [minus, plus])
    r3 = kernel_dependence_probe(X2M4, [bump, square, mix])
    ok = r1.flagged and r2.flagged and not r3.flagged
    _record(6, "kernel-dependence probe (x^2 and exp flagged, x^2-4 not)",
            ok, f"x^2={r1.flagged} exp={r2.flagged} x^2-4={r3.flagged}")


def test_07_derivative_sifting(bump):
    worst1 = 0.0
    for f in [f for f in standard_battery() if f.smoothness >= 1]:
        res = dc.sift_derivative(bump, 1, f, a=0.5)
        assert res.reduced, f.label
        worst1 = max(worst1, abs(res.value + f.deriv_value(1, 0.5)))
    res0 = dc.reduce_integral(bump.derivative(1))
    zero_dev = abs(res0.value)
    res2 = dc.sift_derivative(bump, 2, lambda x: x * x, a=0.0)
    worst2 = abs(res2.value - 2.0)
    ok = worst1 <= 1e-5 and zero_dev <= 1e-9 and worst2 <= 1e-4
    _record(7, "derivative sifting", ok,
            f"order-1 dev {worst1:.3g} (tol 1e-5), total-mass dev "
            f"{zero_dev:.3g} (tol 1e-9), order-2 dev {worst2:.3g} (tol 1e-4)")


def test_08_derivative_not_dirac(bump):
    res = dc.check_dirac(bump.derivative(1))
    ok = (not res.ok) and res.condition == "i" and "negative" in res.detail
    _record(8, "delta' fails the kernel conditions", ok,
            f"condition ({getattr(res, 'condition', '?')}): "
            f"{getattr(res, 'detail', 'unexpectedly valid')[:60]}")


def test_09_contraction(bump, conv):
    cert_ok = dc.check_dirac(conv).ok
    worst = 0.0
    for alpha in (0.0, 1.5):
        for k in range(6, 11):
            n = 2**k
            for x in np.linspace(alpha - 2.1 / n, alpha + 2.1 / n, 9):
                direct = _quad_piece(
                    lambda b: bump.rank_eval(n, x - b) *
                    bump.rank_eval(n, b - alpha),
                    x - 1.0 / n, x + 1.0 / n)
                worst = max(worst,
                            abs(conv.rank_eval(n, float(x) - alpha) - direct))
    ok = cert_ok and worst <= 1e-8
    _record(9, "contraction is a Dirac kernel + pointwise identity", ok,
            f"certificate={cert_ok}, max pointwise dev {worst:.3g}, tol 1e-8")


def test_10_product_rules(bump):
    worst_p = 0.0
    fx = _rf(lambda x: x * x + 5.0, lambda x: 2.0 * x, label="x^2+5")
    for f in standard_battery()[:8]:
        for a in (0.0, 2.0):
            nf = rewrite_product(fx, a)
            sym = evaluate_normal_form(nf, f)
            res = reduce_expr_integral(ProductTerm(fx, DeltaTerm(0, a)),
                                       weight=f, kernel=bump)
            assert res.reduced
            worst_p = max(worst_p, abs(sym - res.value))
    worst_b = 0.0
    g = _rf(lambda x: x * x, lambda x: 2.0 * x, lambda x: 2.0,
            lambda x: 0.0, label="x^2")
    for n in (1, 2):
        for a in (0.0, 0.5):
            nf = rewrite_deriv_product(g, n, a)
            for f in [f for f in standard_battery() if f.smoothness >= 2][:6]:
                sym = evaluate_normal_form(nf, f)
                res = reduce_expr_integral(
                    ProductTerm(g, DeltaTerm(n, a)), weight=f, kernel=bump)
                assert res.reduced
                worst_b = max(worst_b, abs(sym - res.value))
    ok = worst_p <= 1e-6 and worst_b <= 1e-4
    _record(10, "product rule and binomial derivative rule", ok,
            f"product dev {worst_p:.3g} (tol 1e-6), binomial dev "
            f"{worst_b:.3g} (tol 1e-4)")


def test_11_equivalence_checker(all_kernels, bump, square):
    g2x = _rf(lambda x: 2.0 * x, lambda x: 2.0, label="2x")
    v1 = check_equivalence(CompTerm(g2x), ScaleTerm(0.5, DeltaTerm()),
                           kernel=bump)
    scale_ok = (v1.variant == "consistent_equivalent"
                and v1.battery_size == 20 and v1.max_deviation <= 1e-6)
    gx2 = _rf(lambda x: x * x, lambda x: 2.0 * x, label="x^2")
    v2 = check_equivalence(CompTerm(gx2),
                           SmoothTerm(const_function(0.0, label="0")),
                           kernel=square)
    distinct_ok = v2.variant in ("distinct", "irreducible_side")
    pair_dev = 0.0
    pair_ok = True
    for (n1, k1), (n2, k2) in itertools.combinations(all_kernels.items(), 2):
        v = check_equivalence(DeltaTerm(kernel=k1), DeltaTerm(kernel=k2))
        pair_ok &= v.variant == "consistent_equivalent"
        pair_dev = max(pair_dev, v.max_deviation or math.inf)
    ok = scale_ok and distinct_ok and pair_ok
    _record(11, "equivalence checker", ok,
            f"delta(2x)~0.5delta(x) dev {v1.max_deviation:.3g}, "
            f"square(x^2) vs 0 -> {v2.variant}, 15 kernel pairs consistent="
            f"{pair_ok} (max dev {pair_dev:.3g})")


def test_12_counterexample_fidelity():
    psi = dc.check_dirac(dc.cauchy_psi())
    psi_ok = (not psi.ok) and psi.condition == "iii"
    pa = dc.point_altered_delta(at=7.0, value=3.0)
    sift_dev = 0.0
    for f in sift_battery()[:5]:
        res = dc.sift(pa, f, a=0.0)
        assert res.reduced
        sift_dev = max(sift_dev, abs(res.value - f(0.0)))
    pa_cert = dc.check_dirac(pa)
    pa_ok = sift_dev <= 1e-6 and (not pa_cert.ok) and pa_cert.condition == "iii"
    ok = psi_ok and pa_ok
    _record(12, "counterexamples (cauchy tails, point-altered bump)", ok,
            f"psi condition {getattr(psi, 'condition', '?')}, altered-bump "
            f"sift dev {sift_dev:.3g} yet certificate "
            f"{'rejected' if not pa_cert.ok else 'ACCEPTED'}")
