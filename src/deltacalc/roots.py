"""Root location, composition-rule certification and the scan window.

One scan of g over the window (`scan`) feeds root location, certification
and the region search of `vintegral.compose`.  Tails that keep |g| small up
to a window edge are flagged as OutsideScanRisk, not silently certified.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DeltaCalcError, RewriteError
from .vfun import RealFunction, difference, on_points

__all__ = [
    "RootRecord",
    "HypothesisCertificate",
    "scan",
    "find_simple_roots",
    "certify_hypotheses",
    "WINDOW",
    "DERIV_FLOOR",
]

#: The scan window of every composite verb (CLI `scan_window`).
WINDOW = (-60.0, 60.0)
#: Points of the scan grid (a step of 120/12288 = 5/512 on the default window).
GRID = 12289
DERIV_FLOOR = 1e-8


@dataclass(frozen=True)
class RootRecord:
    a: float
    g_prime: float
    bracket: tuple

    def to_json(self):
        return {"a": self.a, "g_prime": self.g_prime,
                "bracket": [self.bracket[0], self.bracket[1]]}


@dataclass(frozen=True)
class HypothesisCertificate:
    roots: tuple
    r: float | None
    scan_window: tuple
    verdict: str  # "certified" | "violated" | "outside_scan_risk"
    reason: str = ""
    #: (edge, lo, hi) for each window edge behind an outside_scan_risk:
    #: past it, g may take the values in [lo, hi].
    edges: tuple = ()
    #: What r is taken from: the scan's grid and g on it, the mask of the
    #: points outside the brackets, and the refined dips (x, |g(x)|) there.
    samples: tuple = field(default=(), compare=False, repr=False)

    @property
    def certified(self):
        return self.verdict == "certified"

    def floor(self, lo, hi):
        """Half the least |g| sampled on [lo, hi] outside the brackets: r
        where [lo, hi] holds the window, inf where it holds no sample (the
        region search finds no region there either), 0 without a scan."""
        if not self.samples:
            return 0.0
        xs, vals, outside, dips = self.samples
        i, j = np.searchsorted(xs, lo, "left"), np.searchsorted(xs, hi, "right")
        return min([float(np.min(np.abs(vals[i:j][outside[i:j]]), initial=np.inf))]
                   + [level for x, level in dips if lo <= x <= hi]) / 2.0

    def require(self):
        """Raise the RewriteError that refuses an uncertified composite."""
        if not self.certified:
            raise RewriteError(
                f"composition-rule hypotheses not certified "
                f"({self.verdict}): {self.reason}"
            )

    def to_json(self):
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "r": self.r,
            "scan_window": list(self.scan_window),
            "roots": [rec.to_json() for rec in self.roots],
        }


def _fn_of(g):
    return g.fn if isinstance(g, RealFunction) else g


def _deriv_of(g):
    """g' for the root slopes: g's own where g is C^1, else one `difference`
    of g (a C^0 or opaque g)."""
    if isinstance(g, RealFunction) and g.smoothness >= 1:
        return g.derivative(1).fn
    return difference(_fn_of(g))


def _bisect(inside, x_in, x_out):
    """Where `inside` ends between x_in, inside, and x_out: the pair
    (x_in, x_out) bisected down to adjacent floats (at most 200 steps)."""
    for _ in range(200):
        mid = 0.5 * (x_in + x_out)
        if mid == x_in or mid == x_out:
            break
        if inside(mid):
            x_in = mid
        else:
            x_out = mid
    return x_in, x_out


def _crossing(fn, lo, hi, ends):
    """The root where g changes sign between lo and hi (brentq), or None at
    a pole: where g fails, or |g| ends up above its values `ends` there."""
    from scipy.optimize import brentq

    try:
        x = brentq(fn, float(lo), float(hi), xtol=1e-14, rtol=8.9e-16)
        return float(x) if abs(fn(x)) <= np.min(np.abs(ends)) else None
    except (ArithmeticError, DeltaCalcError):
        return None


class Scan:
    """g on the grid of a window, and what the composite verbs read off it.

    `xs`, `vals`: the grid and g on it.  `roots`: ascending sign-change
    roots (brentq) and exact zeros.  `dips`: minima of |g| below 5% of
    `scale` = max(max |g|, 1) with no sign change across them, and exact
    zeros, as (x, |g(x)|, i, j): between grid neighbours xs[i], xs[j] that
    are both larger (so a plateau is none), x is bisected to the first
    float where |g| stops falling.  `seeds`: sign-change roots and dips with
    |g| < 0.5, where regions shrink.
    """

    def __init__(self, g, window):
        self.g, self.fn, self.window = g, _fn_of(g), window
        fn = self.fn
        self.xs = xs = np.linspace(window[0], window[1], GRID)
        self.vals = vals = on_points(fn, xs, finite=True)

        sign = np.sign(vals)
        crossings = [_crossing(fn, xs[i], xs[i + 1], vals[i:i + 2])
                     for i in np.flatnonzero(sign[:-1] * sign[1:] < 0)]
        crossings = [x for x in crossings if x is not None]
        self.roots = tuple(sorted(set(xs[sign == 0].tolist() + crossings)))

        mags = np.abs(vals)
        self.scale = max(float(np.max(mags)), 1.0)
        starts = np.flatnonzero(np.diff(mags, prepend=np.nan) != 0)
        ends = np.append(starts[1:], mags.size) - 1
        level = mags[starts]
        runs = 1 + np.flatnonzero((level[1:-1] < level[:-2])
                                  & (level[1:-1] < level[2:])
                                  & (level[1:-1] < 0.05 * self.scale))
        # Where g changes sign across a run, `_crossing` has its root.
        lo, hi = starts[runs] - 1, ends[runs] + 1
        dip = (sign[lo] == sign[hi]) | (level[runs] == 0.0)
        dips = []
        if dip.any():
            dfn = _deriv_of(g)
            falls = lambda x: fn(x) * dfn(x) < 0.0
            for i, j in zip(lo[dip], hi[dip]):
                _x, x = _bisect(falls, float(xs[i]), float(xs[j]))
                dips.append((x, abs(float(fn(x))), int(i), int(j)))
        self.dips = tuple(dips)
        self.seeds = tuple(sorted(crossings + [x for x, level, _i, _j in dips
                                               if level < 0.5]))

    @functools.cached_property
    def certificate(self):
        return certify_hypotheses(self.g, find_simple_roots(self.g, self.window),
                                  self.window)

    @functools.cached_property
    def probes(self):
        """The grid plus geometric probes around the seeds, which find a high
        rank's regions narrower than a grid step; ascending, with g on them."""
        seeds = np.array(self.seeds)[:, None]
        offsets = 1e-14 * 1.8 ** np.arange(85)
        local = np.hstack([seeds, seeds - offsets, seeds + offsets]).ravel()
        xs = np.concatenate((self.xs, local))
        vals = np.concatenate((self.vals, on_points(self.fn, local)))
        xs, first = np.unique(xs, return_index=True)
        return xs, vals[first]

    def regions(self, a, b, support):
        """The intervals of [a, b] where g lies strictly inside `support`,
        from the cached g on the grid and probes, boundaries bisected.  Past
        a window edge behind the certificate's outside_scan_risk, it refuses
        if the values g may take there (certificate.edges) enter or leave it.
        """
        slo, shi = support
        lo, hi = self.window
        if a < lo or b > hi:
            cert = self.certificate
            for edge, glo, ghi in cert.edges:
                past = a < edge if edge == lo else b > edge
                if past and glo < shi and ghi > slo and not slo <= glo <= ghi <= shi:
                    cert.require()

        xs, vals = self.probes
        sel = (xs >= a) & (xs <= b)
        xs, vals = xs[sel], vals[sel]
        flags = np.concatenate(([False], (slo < vals) & (vals < shi), [False]))
        change = np.flatnonzero(flags[1:] != flags[:-1])
        inside = lambda x: slo < self.fn(x) < shi
        last = len(xs) - 1

        def end(k, step):
            """Where the region holding xs[k] ends toward xs[k + step]; at
            an end of [a, b], that end itself if g is inside there."""
            if 0 <= k + step <= last:
                x_out = xs[k + step]
            else:
                x_out = a if step < 0 else b
                if inside(x_out):
                    return float(x_out)
            x_in, x_out = _bisect(inside, xs[k], x_out)
            return float(0.5 * (x_in + x_out))

        return tuple((end(i, -1), end(j, 1))
                     for i, j in zip(change[0::2], change[1::2] - 1))


_scan = functools.lru_cache(maxsize=2)(Scan)


def scan(g, window=WINDOW):
    """The scan of g over `window`, from a small cache keyed by both."""
    return _scan(g, (float(window[0]), float(window[1])))


def find_simple_roots(g, window=WINDOW):
    """The sign-change roots of g on the window, from its scan: bisected
    (brentq) to ~1e-13, ascending, with a local derivative estimate.
    Tangencies (zero touches without sign change) surface as Violated
    verdicts in certify_hypotheses instead."""
    dfn = _deriv_of(g)
    return [RootRecord(a=root, g_prime=float(dfn(root)), bracket=(root, root))
            for root in scan(g, window).roots]


def _monotone_on(fn, lo, hi):
    d = np.diff(on_points(fn, np.linspace(lo, hi, 65)))
    return bool(np.all(d > 0) or np.all(d < 0))


def certify_hypotheses(g, roots, window=WINDOW):
    """Certify the composition-rule hypotheses over the scan window.

    Shrinks brackets until disjoint and strictly monotone, takes r as half
    the sampled minimum of |g| outside the brackets, and demands r > 0
    strictly.  Axis-asymptotic tails (|g| at a window edge at or below 2r
    and shrinking toward the edge) downgrade to OutsideScanRisk.
    """
    s = scan(g, window)
    fn, (a, b) = s.fn, s.window
    locs = [rec.a for rec in roots]

    def violated(recs, reason):
        return HypothesisCertificate(tuple(recs), None, (a, b), "violated", reason)

    # Derivative floor: below it the composition coefficient 1/|g'| is
    # numerically meaningless.
    for rec in roots:
        if abs(rec.g_prime) <= DERIV_FLOOR:
            return violated(roots, f"non-simple root at x={rec.a:.6g}: "
                                   "derivative vanishes")

    # Bracket construction: start from neighbor/edge gaps, then shrink
    # until strictly monotone.  A radius is at most 0.45 of each gap, so
    # brackets stay disjoint.
    shrunk = []
    for i, rec in enumerate(roots):
        gaps = [rec.a - a, b - rec.a]
        if i > 0:
            gaps.append(rec.a - locs[i - 1])
        if i + 1 < len(locs):
            gaps.append(locs[i + 1] - rec.a)
        radius = min(0.45 * min(gaps), 1.0)
        while radius > 1e-10 and not _monotone_on(fn, rec.a - radius, rec.a + radius):
            radius *= 0.5
        if radius <= 1e-10:
            return violated(roots, "clustered roots: no monotone bracket "
                                   f"around x={rec.a:.6g}")
        shrunk.append(RootRecord(rec.a, rec.g_prime,
                                 (rec.a - radius, rec.a + radius)))

    # Outer floor r: half the sampled minimum of |g| outside all brackets,
    # lowered by the refined dips there (a tangency sits between grid points).
    outside = np.ones(len(s.xs), dtype=bool)
    for rec in shrunk:
        outside &= ~((s.xs >= rec.bracket[0]) & (s.xs <= rec.bracket[1]))
    mags = np.abs(s.vals[outside])
    dips = [(x, level) for x, level, i, j in s.dips if outside[i:j + 1].all()]
    r = min([float(np.min(mags)) if len(mags) else 0.0]
            + [level for _x, level in dips]) / 2.0
    samples = (s.xs, s.vals, outside, tuple(dips))

    # Roots recurring up to both edges (a periodic g): more lie past them.
    # This comes first: the dips of such a g may hide root pairs as well.
    gap = max(np.diff(locs), default=0.0)
    if len(locs) >= 4 and max(locs[0] - a, b - locs[-1]) <= gap:
        return HypothesisCertificate(
            tuple(shrunk), r, (a, b), "outside_scan_risk",
            f"roots recur up to both window edges (gaps up to {gap:.3g}); "
            "more may lie outside the scan window",
            edges=((a, -np.inf, np.inf), (b, -np.inf, np.inf)), samples=samples,
        )

    for x, level in dips:
        if level <= 1e-10 * s.scale:
            return violated(shrunk, f"non-simple root at x={x:.6g}: |g| touches "
                                    "zero without sign change (derivative "
                                    f"{float(_deriv_of(g)(x)):.3g})")
    if not r > 0.0:
        return violated(shrunk, "|g| reaches zero outside the root brackets")

    # Axis-asymptotic tails, past which g is taken to go on toward zero.
    width = b - a
    edges = tuple((edge, *sorted((fn(edge), 0.0))) for edge, inward in
                  ((a, a + 0.01 * width), (b, b - 0.01 * width))
                  if abs(fn(edge)) <= 2.0 * r and abs(fn(edge)) < abs(fn(inward)))
    if edges:
        return HypothesisCertificate(
            tuple(shrunk), r, (a, b), "outside_scan_risk",
            f"|g| is small ({abs(fn(edges[0][0])):.3g} <= 2r) and shrinking at "
            f"window edge x={edges[0][0]:g}; behaviour outside the scan window "
            "may depend on the kernel",
            edges=edges, samples=samples,
        )

    return HypothesisCertificate(tuple(shrunk), r, (a, b), "certified", samples=samples)
