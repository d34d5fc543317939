import math

import pytest

from deltacalc.errors import RewriteError
from deltacalc.roots import (
    DERIV_FLOOR,
    certify_hypotheses,
    find_simple_roots,
)
from deltacalc.vfun import RealFunction


def _rf(fn, d, label):
    return RealFunction(fn, derivs=(d,), label=label)


QUAD = _rf(lambda x: x * x - 4.0, lambda x: 2.0 * x, "x^2-4")
SIN = _rf(math.sin, math.cos, "sin x")


def test_find_roots_quadratic():
    recs = find_simple_roots(QUAD, window=(-10, 10))
    assert [round(r.a, 12) for r in recs] == [-2.0, 2.0]
    assert abs(recs[0].g_prime + 4.0) < 1e-9
    assert abs(recs[1].g_prime - 4.0) < 1e-9


def test_find_roots_sin_window():
    recs = find_simple_roots(SIN, window=(-1.0, 7.0))
    assert len(recs) == 3
    assert abs(recs[0].a) < 1e-12
    assert abs(recs[1].a - math.pi) < 1e-12
    assert abs(recs[2].a - 2.0 * math.pi) < 1e-12


def test_roots_sorted_ascending():
    recs = find_simple_roots(SIN, window=(-8.0, 8.0))
    locs = [r.a for r in recs]
    assert locs == sorted(locs)


def test_certify_quadratic():
    recs = find_simple_roots(QUAD, window=(-10, 10))
    cert = certify_hypotheses(QUAD, recs, window=(-10, 10))
    assert cert.certified
    assert cert.r is not None and cert.r > 1.0
    for rec in cert.roots:
        lo, hi = rec.bracket
        assert lo < rec.a < hi
    # Brackets disjoint.
    assert cert.roots[0].bracket[1] < cert.roots[1].bracket[0]


def test_certify_sin_restricted_window():
    recs = find_simple_roots(SIN, window=(-1.0, 7.0))
    cert = certify_hypotheses(SIN, recs, window=(-1.0, 7.0))
    assert cert.certified


def test_no_roots_still_certifies():
    g = _rf(lambda x: math.sin(x) + 2.0, math.cos, "sin x + 2")
    recs = find_simple_roots(g)
    assert recs == []
    cert = certify_hypotheses(g, recs)
    assert cert.certified
    assert abs(cert.r - 0.5) < 1e-6  # min |g| = 1, r = half of it


def test_tangency_on_grid_violates():
    g = _rf(lambda x: x * x, lambda x: 2.0 * x, "x^2")
    recs = find_simple_roots(g, window=(-10, 10))
    cert = certify_hypotheses(g, recs, window=(-10, 10))
    assert cert.verdict == "violated"
    assert "non-simple" in cert.reason


def test_tangency_off_grid_violates():
    # The zero touch at x = 0.3 falls between sample points; the dip
    # refinement has to find it.
    g = _rf(lambda x: (x - 0.3) ** 2, lambda x: 2.0 * (x - 0.3), "(x-0.3)^2")
    recs = find_simple_roots(g, window=(-10, 10))
    assert recs == []
    cert = certify_hypotheses(g, recs, window=(-10, 10))
    assert cert.verdict == "violated"
    assert "without sign change" in cert.reason


def test_axis_asymptote_is_scan_risk():
    g = _rf(math.exp, math.exp, "exp(x)")
    cert = certify_hypotheses(g, [], window=(-20.0, 3.0))
    assert cert.verdict == "outside_scan_risk"
    assert not cert.certified


def test_derivative_floor():
    # A sign change with a tiny slope at the crossing: 1/|g'| would be
    # numeric noise, so certification refuses.
    eps = DERIV_FLOOR / 10.0
    g = _rf(lambda x: eps * x, lambda x: eps, "eps*x")
    recs = find_simple_roots(g, window=(-10, 10))
    cert = certify_hypotheses(g, recs, window=(-10, 10))
    assert cert.verdict == "violated"


def test_certificate_json():
    recs = find_simple_roots(QUAD, window=(-10, 10))
    cert = certify_hypotheses(QUAD, recs, window=(-10, 10))
    payload = cert.to_json()
    assert payload["verdict"] == "certified"
    assert len(payload["roots"]) == 2
    assert payload["roots"][0]["a"] == cert.roots[0].a
    assert payload["scan_window"] == [-10.0, 10.0]


def test_opaque_callable_uses_finite_differences():
    recs = find_simple_roots(lambda x: x - 1.25, window=(-5, 5))
    assert len(recs) == 1
    assert abs(recs[0].g_prime - 1.0) < 1e-6


# -- the one scan ------------------------------------------------------------

import numpy as np  # noqa: E402

import deltacalc as dc  # noqa: E402
from deltacalc import roots  # noqa: E402
from deltacalc.rewrite import rewrite_composition  # noqa: E402
from deltacalc.vintegral import integrate_rank  # noqa: E402


def test_one_grid_evaluation_per_composite():
    sizes = []

    def fn(x):
        sizes.append(np.size(x))
        return x * x - 4.0

    g = _rf(fn, lambda x: 2.0 * x, "x^2-4")
    assert len(rewrite_composition(g).terms) == 2
    comp = dc.compose(dc.bump_delta(), g)
    for n in (16, 1024, 2**16):
        integrate_rank(comp, -math.inf, math.inf, (n,))
    # Roots, certificate, pieces and every rank's plan read one array
    # evaluation of g on the grid.
    assert sizes.count(roots.GRID) == 1


def test_certificate_reads_its_own_scan(monkeypatch):
    g = _rf(lambda x: x * x - 4.0, lambda x: 2.0 * x, "x^2-4")
    want = certify_hypotheses(g, find_simple_roots(g))
    s = roots.Scan(g, roots.WINDOW)
    # An evicted scan is not looked up again: the certificate is the scan's.
    monkeypatch.setattr(roots, "scan", None)
    assert s.certificate == want and s.certificate.certified


def test_flat_run_is_not_a_dip():
    # |e^x - 1| rounds to exactly 1 on x < -37: no candidate tangency there.
    g = _rf(lambda x: np.exp(x) - 1.0, np.exp, "exp(x)-1")
    s = roots.scan(g)
    assert all(x > -37.0 for x, _level, _i, _j in s.dips)
    assert len(s.roots) == 1 and abs(s.roots[0]) < 1e-5
    # Nor is it an extremum: g is monotone on the whole window.
    assert s.pieces[:2] == s.splits[:2] == ([-60.0], [60.0])
    cert = certify_hypotheses(g, find_simple_roots(g))
    assert cert.certified


def test_sign_changes_are_not_dips():
    # Each sign change is refined once, by Brent's method, as a root.
    s = roots.scan(QUAD)
    assert s.dips == ()
    assert len(s.roots) == 2


def test_dip_is_bisected_to_the_touch():
    g = _rf(lambda x: (x - 1.7) ** 2, lambda x: 2.0 * (x - 1.7), "(x-1.7)^2")
    s = roots.scan(g)
    assert len(s.dips) == 1
    x, level, i, j = s.dips[0]
    assert abs(x - 1.7) <= 2 * math.ulp(1.7)
    assert level == (x - 1.7) ** 2 and s.xs[i] < x < s.xs[j]
    assert s.certificate.verdict == "violated"
    assert "without sign change" in s.certificate.reason


def test_exact_zero_on_the_grid_is_a_root():
    # 1.25 is a grid point: g is exactly 0 there, with no sign change
    # between grid neighbours for Brent's method to refine.
    s = roots.scan(lambda x: x - 1.25)
    assert s.roots == (1.25,)
    assert len(s.dips) == 1 and s.dips[0][1] == 0.0


def test_exact_zero_plateau_gives_no_dips():
    s = roots.scan(lambda x: 0.0 * x)
    assert len(s.roots) == roots.GRID
    assert s.dips == ()
    assert s.pieces[:2] == s.splits[:2] == ([-60.0], [60.0])


# -- monotone pieces ----------------------------------------------------------

from deltacalc.exprlang import parse, to_real_function  # noqa: E402


def test_pieces_split_at_each_extremum():
    # g' = 3x^2 - 4x - 1 vanishes at (2 -/+ sqrt(7))/3: a piece ends at the
    # last float before each turn, and the next starts at the float after.
    lo, hi, _glo, _ghi = roots.scan(to_real_function(parse("x^3-2*x^2-x+2"))).pieces
    assert len(lo) == 3 and lo[0] == -60.0 and hi[-1] == 60.0
    for turn, end, start in zip(((2 - 7 ** 0.5) / 3, (2 + 7 ** 0.5) / 3), hi, lo[1:]):
        assert abs(end - turn) <= 1e-14 and start == np.nextafter(end, np.inf)


def test_splits_end_at_the_grid_extremum():
    # At grid level a piece ends at the turn's grid extremum, within a grid
    # step of the exact turn, where |g| is no larger; a root or a bound in
    # a turn's grid bracket is straddled.
    s = roots.scan(to_real_function(parse("x^3-2*x^2-x+2")))
    lo, hi, glo, ghi = s.splits
    exact_hi, exact_ghi = s.pieces[1], s.pieces[3]
    assert len(lo) == 3 and lo[0] == -60.0 and hi[-1] == 60.0 and lo[1:] == hi[:-1]
    for x, v, turn, w in zip(hi[:-1], ghi[:-1], exact_hi[:-1], exact_ghi[:-1]):
        assert x in s.xs and abs(x - turn) < s.xs[1] - s.xs[0] and abs(v) <= abs(w)
    assert glo[1:] == ghi[:-1] == s.vals[np.searchsorted(s.xs, hi[:-1])].tolist()
    assert s.straddles([exact_hi[0]]) and not s.straddles(list(s.roots) + [-60.0, 60.0])


def test_a_pole_ends_a_piece():
    # 1/(x-1.5) - 2 changes sign at its pole x = 1.5, where it has no root:
    # the pieces split at the adjacent floats around it, with the symbolic
    # g' or with a difference quotient, which is noise beside the pole.  g
    # falls on every piece.
    f = to_real_function(parse("1/(x-1.5)-2"))
    for g in (f, f.fn):
        lo, hi, _glo, _ghi = roots.scan(g).pieces
        assert 1.5 in lo and np.nextafter(1.5, 0.0) in hi
        with np.errstate(divide="ignore"):
            for a, b in zip(lo, hi):
                assert (np.diff(f.fn(np.linspace(a, b, 1001))) <= 0.0).all(), (a, b)


def test_bisect_takes_a_function_of_floats_alone():
    # math.exp takes no array: each step calls it point by point, and each
    # bracket ends at the adjacent floats around its own level.
    levels = np.array([2.0, 5.0])
    x_in, x_out = roots._bisect(math.exp, [0.0, 0.0], [2.0, 3.0], side=-1.0, level=levels)
    assert (x_out == np.nextafter(x_in, np.inf)).all()
    for a, b, t in zip(x_in, x_out, levels):
        assert math.exp(a) < t <= math.exp(b)


def test_regions_refuse_only_where_g_meets_the_support_past_the_edge():
    bump, minus = dc.bump_delta(), dc.shifted_delta("-")
    far = _rf(lambda x: x * x - 10000.0, lambda x: 2.0 * x, "x^2-10000")
    comp = dc.compose(bump, far)
    assert integrate_rank(comp, -50.0, 50.0, (1024,))[0] == 0.0  # inside the window
    with pytest.raises(RewriteError, match="outside_scan_risk"):
        integrate_rank(comp, -math.inf, math.inf, (1024,))
    # exp(x) shrinks toward x = -60 but, without a sign change, never
    # reaches the support of delta_-; it stays inside the bump's.
    assert integrate_rank(dc.compose(minus, math.exp), -math.inf, math.inf, (1024,))[0] == 0.0
    assert integrate_rank(dc.compose(bump, math.exp), -math.inf, math.inf, (64,))[0] > 64.0


# -- disjoint brackets -------------------------------------------------------

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from deltacalc.roots import RootRecord  # noqa: E402


def _product(roots, scale):
    """scale * prod(x - r) and its derivative, evaluated as products so that
    roots a few floats apart stay apart."""
    def fn(x):
        out = scale
        for r in roots:
            out = out * (x - r)
        return out

    def d(x):
        return sum(scale * math.prod(x - r for j, r in enumerate(roots) if j != i)
                   for i in range(len(roots)))

    return RealFunction(fn, derivs=(d,), label="prod")


@given(st.floats(-3.5, 0.0), st.lists(st.floats(-11.0, 0.0), max_size=4))
@example(-1.0, [-9.6, 0.0])  # a gap of 2.5e-10 certifies: brackets 2.5e-11 apart
@example(0.0, [-9.7])  # 2e-10 is "clustered roots"
@settings(max_examples=150, deadline=None, derandomize=True)
def test_certified_brackets_are_disjoint(first, exponents):
    # Each bracket radius is at most 0.45 of the gap to each neighbour, and
    # a gap too small to leave room between them is "clustered roots".
    locs = [first]
    for e in exponents:
        locs.append(locs[-1] + 10.0 ** e)
    locs = sorted(set(locs))
    slopes = [math.prod(a - b for j, b in enumerate(locs) if j != i)
              for i, a in enumerate(locs)]
    scale = 1.0 / min(abs(s) for s in slopes)
    g = _product(locs, scale)
    recs = [RootRecord(a, scale * s, (a, a)) for a, s in zip(locs, slopes)]
    cert = certify_hypotheses(g, recs, window=(-4.0, 4.0))
    if cert.verdict != "violated":
        for rec in cert.roots:
            assert rec.bracket[0] < rec.a < rec.bracket[1]
        for r1, r2 in zip(cert.roots, cert.roots[1:]):
            assert r1.bracket[1] < r2.bracket[0]


# -- Brent's method ------------------------------------------------------------

import random  # noqa: E402

#: (f, its roots) for the brackets of test_brent_gives_the_bits_of_brentq.
BRENT_CASES = {
    "cubic": (lambda x: 0.7 * (x - 0.37) * (x + 1.7) * (x - 3.1), (-1.7, 0.37, 3.1)),
    "exp": (lambda x: math.exp(x) - 2.5, (math.log(2.5),)),
    "sin": (math.sin, (-math.pi, 0.0, math.pi)),
    # The root is 0.8; a bracket across the pole at 0.3 converges to it.
    "pole": (lambda x: 1.0 / (x - 0.3) - 2.0, (0.8, 0.3)),
    # Brent's method stops short of converging beside a flat root.
    "flat": (lambda x: (x - 1.3) ** 3, (1.3,)),
}

#: (xtol, rtol): `_crossing`'s, brentq's defaults and a loose pair.
BRENT_TOLS = ((1e-14, 8.9e-16), (2e-12, 4 * np.finfo(float).eps), (1e-3, 1e-10))


def _outcome(call):
    # The root's bits, or the error's type and message.
    try:
        return float(call()).hex()
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _brentq(f, a, b, xtol, rtol):
    from scipy.optimize import brentq

    return brentq(f, a, b, xtol=xtol, rtol=rtol, full_output=True, disp=False)[0]


@pytest.mark.parametrize("name", list(BRENT_CASES))
def test_brent_gives_the_bits_of_brentq(name):
    f, zeros = BRENT_CASES[name]
    rng = random.Random(name)
    for _ in range(150):
        r = rng.choice(zeros)
        a, b = r - 10.0 ** rng.uniform(-4, 0.5), r + 10.0 ** rng.uniform(-4, 0.5)
        if rng.random() < 0.2:  # most of these have ends of one sign
            a, b = sorted(rng.uniform(-4.0, 4.0) for _ in range(2))
        for xtol, rtol in BRENT_TOLS:
            want = _outcome(lambda: _brentq(f, a, b, xtol, rtol))
            assert _outcome(lambda: roots._brent(f, a, b, xtol, rtol)) == want, (a, b)


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x - 1.25, 1.25, 2.0),  # an exact zero at either end
    (lambda x: x - 2.0, 1.25, 2.0),
    (lambda x: x * x + 1.0, -1.0, 1.0),  # ends of one sign
    (lambda x: -0.0 if x < 0 else 1.0, -1.0, 1.0),  # -0.0 is a zero
    (lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0),  # NaN at b
    (lambda x: math.nan if x < 0.5 else 1.0, 0.0, 1.0),  # NaN at a
    (lambda x: math.nan if 0.2 < x < 0.9 else x - 0.5, 0.0, 1.0),  # NaN inside
], ids=["zero-at-a", "zero-at-b", "same-sign", "minus-zero", "nan-at-b", "nan-at-a",
        "nan-inside"])
def test_brent_ends_and_errors_are_brentq_s(f, a, b):
    for xtol, rtol in BRENT_TOLS:
        assert _outcome(lambda: roots._brent(f, a, b, xtol, rtol)) == _outcome(
            lambda: _brentq(f, a, b, xtol, rtol))


def test_crossing_gives_none_at_a_pole():
    f = BRENT_CASES["pole"][0]
    assert roots._crossing(f, 0.25, 0.35, [f(0.25), f(0.35)]) is None
    x = roots._crossing(f, 0.75, 0.85, [f(0.75), f(0.85)])
    assert x.hex() == _brentq(f, 0.75, 0.85, 1e-14, 8.9e-16).hex()
    assert abs(x - 0.8) < 1e-14


def test_scan_grid_is_shared_and_read_only():
    s1 = roots.scan(QUAD, (-10, 10))
    s2 = roots.Scan(SIN, (-10.0, 10.0))
    assert s1.xs is s2.xs and not s1.xs.flags.writeable
    assert np.array_equal(s1.xs, np.linspace(-10.0, 10.0, roots.GRID))


def test_outside_mask_is_the_comparison_mask():
    # _certify cuts each bracket out of the grid by searchsorted slices: the
    # mask of full-grid comparisons, also where an end is a grid point.
    xs = roots._grid(*roots.WINDOW)
    rng = random.Random(5)
    for _ in range(200):
        brackets = []
        for _ in range(rng.randrange(4)):
            lo = rng.choice((float(xs[rng.randrange(xs.size)]), rng.uniform(-61.0, 61.0)))
            brackets.append((lo, lo + rng.choice((0.0, 1e-10, 0.3, 2.0, 200.0))))
        want = np.ones(xs.size, dtype=bool)
        for lo, hi in brackets:
            want &= ~((xs >= lo) & (xs <= hi))
        assert np.array_equal(roots._outside(xs, brackets), want), brackets
