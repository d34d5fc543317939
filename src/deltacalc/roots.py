"""Root location, composition-rule certification and the scan window.

One scan of g over the window (`scan`) feeds root location, certification
and the monotone pieces of g that `vintegral.compose` integrates over.
Tails that keep |g| small up to a window edge are flagged as
OutsideScanRisk, not silently certified.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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

    @property
    def certified(self):
        return self.verdict == "certified"

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


def _key(x):
    """Floats as uint64 keys in their order (`_float` maps keys back)."""
    bits = np.array(x, dtype=float).view(np.uint64)
    return np.where(bits >> np.uint64(63), ~bits, bits | np.uint64(2 ** 63))


def _float(key):
    return np.where(key >> np.uint64(63), key ^ np.uint64(2 ** 63), ~key).view(float)


def _bisect(fn, x_in, x_out, side=1.0, level=0.0):
    """Where side * (fn - level) stops being positive, between the arrays
    x_in, where it is, and x_out > x_in (`side`, `level`: floats or one per
    bracket): the pairs (x_in, x_out), all narrowed at once to adjacent
    floats.  A step cuts each bracket into parts of as many floats, 64 or
    more while under 2048 cuts in all, calls fn once on the cuts
    (`on_points`) and keeps the part that ends at the first cut where it is
    not positive: at most 11 steps, near 0 too."""
    lo, hi = _key(x_in), _key(x_out)
    side, level = np.reshape(side, (-1, 1)), np.reshape(level, (-1, 1))
    parts = max(64, 2048 // max(lo.size, 1))
    t, rows = np.arange(parts + 1) / parts, np.arange(lo.size)
    while ((span := hi - lo) > 1).any():
        cuts = lo[:, None] + (span[:, None] * t).astype(np.uint64)
        cuts[:, -1] = hi
        inner = cuts[:, 1:-1]
        v = on_points(fn, _float(inner).ravel()).reshape(inner.shape)
        inside = (inner == lo[:, None]) | (inner < hi[:, None]) & (side * (v - level) > 0.0)
        inside = np.hstack((inside, rows[:, None] < 0))
        first = np.argmin(inside, axis=1) + 1
        lo, hi = cuts[rows, first - 1], cuts[rows, first]
    return _float(lo), _float(hi)


def _value(fn, x):
    """fn(x) as a float; NaN raises brentq's error."""
    fx = float(fn(x))
    if fx != fx:
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def _brent(fn, a, b, xtol, rtol):
    """Brent's method (Brent, 1973) for a root of fn between the floats a and
    b, step for step as SciPy's `brentq` takes it, so with its bits: its
    NaN and sign errors, and after its 100 steps the last iterate."""
    xpre, xcur = a, b
    fpre, fcur = _value(fn, xpre), _value(fn, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        short = abs(spre) > delta and abs(fcur) < abs(fpre)
        if short:
            if xpre == xblk:  # secant
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:  # inverse quadratic extrapolation
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            short = 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound)
        spre, scur = (scur, stry) if short else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _value(fn, xcur)
    return xcur


def _div(p, q):
    """p / q as IEEE 754 divides, where Python raises on q = 0."""
    if q:
        return p / q
    if p == 0.0 or p != p:
        return math.nan
    return math.copysign(math.inf, p) * math.copysign(1.0, q)


def _crossing(fn, lo, hi, ends):
    """The root where g changes sign between lo and hi (where `_brent` stops),
    or None at a pole: where g fails, or |g| ends up above `ends` there."""
    try:
        x = _brent(fn, float(lo), float(hi), xtol=1e-14, rtol=8.9e-16)
        return x if abs(fn(x)) <= np.min(np.abs(ends)) else None
    except (ArithmeticError, DeltaCalcError):
        return None


@functools.lru_cache(maxsize=8)
def _grid(lo, hi):
    """The scan grid of the window [lo, hi]; read-only, shared by every scan
    of that window."""
    xs = np.linspace(lo, hi, GRID)
    xs.flags.writeable = False
    return xs


class Scan:
    """g on the grid of a window, and what the composite verbs read off it.

    `xs`, `vals`: the grid (`_grid`) and g on it.  `roots`: ascending
    sign-change roots (`_crossing`) and exact zeros.  `dips`: minima of |g|
    below 5% of `scale` = max(max |g|, 1) with no sign change across them,
    and exact zeros, as (x, |g(x)|, i, j): between grid neighbours xs[i],
    xs[j] that are both larger (so a plateau is none), x is bisected to the
    first float where |g| stops falling.  `poles`: the grid points before
    each sign change that is no root.  `splits` and `pieces`: where g is
    monotone, with grid-level and with exact ends; the plan of a composite
    reads `pieces` only for a piece it takes in x or leaves out.
    """

    def __init__(self, g, window):
        self.g, self.fn, self.window = g, _fn_of(g), window
        fn = self.fn
        self.xs = xs = _grid(*window)
        self.vals = vals = on_points(fn, xs, finite=True)

        sign = np.sign(vals)
        changes = np.flatnonzero(sign[:-1] * sign[1:] < 0)
        crossings = [_crossing(fn, xs[i], xs[i + 1], vals[i:i + 2]) for i in changes]
        self.poles = changes[np.equal(crossings, None)]
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
        lo, hi = lo[dip], hi[dip]
        self.dips = ()
        if lo.size:
            dfn = _deriv_of(g)
            _x, x = _bisect(lambda x: fn(x) * dfn(x), xs[lo], xs[hi], side=-1.0)
            self.dips = tuple((x, abs(float(fn(x))), i, j)
                              for x, i, j in zip(x.tolist(), lo.tolist(), hi.tolist()))

    @functools.cached_property
    def certificate(self):
        return _certify(self, _records(self))

    @functools.cached_property
    def _splits(self):
        """Where the window splits into the pieces where g is monotone: where
        g on the grid turns between two steps that move it (a flat run is no
        turn), and at each pole.  Per split, ascending: the grid points
        (i, j) that bracket it, the grid points (p, q) that end the pieces
        either side of it (the ends of the extremum's run, for a turn),
        whether it is a turn, and the sign of g' (a turn) or of g (a pole)
        before it."""
        step, poles = np.diff(self.vals), self.poles
        moves = np.flatnonzero(step)
        rise = step[moves] > 0.0
        k = np.flatnonzero(rise[:-1] != rise[1:])
        i, j = np.concatenate((moves[k], poles)), np.concatenate((moves[k + 1] + 1, poles + 1))
        p, q = np.concatenate((moves[k] + 1, poles)), np.concatenate((moves[k + 1], poles + 1))
        turn = np.arange(i.size) < k.size
        side = np.concatenate((np.where(rise[k], 1.0, -1.0), np.sign(self.vals[poles])))
        order = np.argsort(i, kind="stable")
        return tuple(v[order] for v in (i, j, p, q, turn, side))

    @functools.cached_property
    def splits(self):
        """The pieces' ends (lo, hi) and g at them (glo, ghi), as lists, at
        grid level: a piece ends at the grid point of its split (`_splits`)
        and reads g there, inside the range of g on the exact piece (a grid
        extremum never passes the true one, nor a grid point beside a pole
        the pole).  None where two splits' brackets overlap (two turns one
        step apart, or a turn beside a pole), where only `pieces` orders
        them."""
        i, j, p, q, _turn, _side = self._splits
        if (j[:-1] > i[1:]).any():
            return None
        lo, hi = np.append(0, q), np.append(p, self.xs.size - 1)
        return (self.xs[lo].tolist(), self.xs[hi].tolist(),
                self.vals[lo].tolist(), self.vals[hi].tolist())

    def straddles(self, points):
        """Whether a split's closed grid bracket holds one of `points`: there
        grid-level ends may put it in another piece than exact ends."""
        i, j = self._splits[:2]
        if not i.size:
            return False
        k = np.searchsorted(self.xs[i], points, "right") - 1
        return bool(((k >= 0) & (np.asarray(points) <= self.xs[j[k]])).any())

    @functools.cached_property
    def pieces(self):
        """The exact ends (lo, hi) of the pieces and g at them (glo, ghi), as
        lists: split at the adjacent floats where g' changes sign at each
        turn, and at each pole, at the adjacent floats where g changes sign
        (`_bisect`, every turn in one call and every pole in another).
        Beside a pole, g' may change sign nowhere: that split then runs to
        a grid neighbour, which only splits a monotone piece."""
        i, j, _p, _q, turn, side = self._splits
        x_in, x_out = (np.concatenate(ends) for ends in zip(*(
            _bisect(fn, self.xs[i[m]], self.xs[j[m]], side=side[m])
            for fn, m in ((_deriv_of(self.g), turn), (self.fn, ~turn)))))
        order = np.argsort(x_in, kind="stable")
        lo = np.concatenate((self.window[:1], x_out[order]))
        hi = np.concatenate((x_in[order], self.window[1:]))
        ends = on_points(self.fn, np.concatenate((lo, hi))).tolist()
        return lo.tolist(), hi.tolist(), ends[:len(lo)], ends[len(lo):]

    def ends(self, exact=False):
        """The pieces' ends and g at them: `pieces`, or without `exact`,
        `splits` where it serves."""
        return self.pieces if exact or self.splits is None else self.splits


_scan = functools.lru_cache(maxsize=2)(Scan)


def scan(g, window=WINDOW):
    """The scan of g over `window`, from a small cache keyed by both."""
    return _scan(g, (float(window[0]), float(window[1])))


def find_simple_roots(g, window=WINDOW):
    """The sign-change roots of g on the window, from its scan: refined by
    Brent's method (`_crossing`) to ~1e-13, ascending, with a local
    derivative estimate.  Tangencies (zero touches without sign change)
    surface as Violated verdicts in certify_hypotheses instead."""
    return _records(scan(g, window))


def _records(s):
    dfn = _deriv_of(s.g)
    return [RootRecord(a, float(dfn(a)), (a, a)) for a in s.roots]


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
    return _certify(scan(g, window), roots)


def _outside(xs, brackets):
    """Where the ascending grid xs lies outside every closed bracket."""
    out = np.ones(len(xs), dtype=bool)
    for lo, hi in brackets:
        out[np.searchsorted(xs, lo):np.searchsorted(xs, hi, "right")] = False
    return out


def _certify(s, roots):
    """certify_hypotheses on the grid, values and dips of the scan s."""
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
    outside = _outside(s.xs, [rec.bracket for rec in shrunk])
    mags = np.abs(s.vals[outside])
    dips = [(x, level) for x, level, i, j in s.dips if outside[i:j + 1].all()]
    r = min([float(np.min(mags)) if len(mags) else 0.0]
            + [level for _x, level in dips]) / 2.0

    # Roots recurring up to both edges (a periodic g): more lie past them.
    # This comes first: the dips of such a g may hide root pairs as well.
    gap = max(np.diff(locs), default=0.0)
    if len(locs) >= 4 and max(locs[0] - a, b - locs[-1]) <= gap:
        return HypothesisCertificate(
            tuple(shrunk), r, (a, b), "outside_scan_risk",
            f"roots recur up to both window edges (gaps up to {gap:.3g}); "
            "more may lie outside the scan window",
            edges=((a, -np.inf, np.inf), (b, -np.inf, np.inf)),
        )

    for x, level in dips:
        if level <= 1e-10 * s.scale:
            return violated(shrunk, f"non-simple root at x={x:.6g}: |g| touches "
                                    "zero without sign change (derivative "
                                    f"{float(_deriv_of(s.g)(x)):.3g})")
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
            edges=edges,
        )

    return HypothesisCertificate(tuple(shrunk), r, (a, b), "certified")
