"""The reduced-integral engine.

Virtual integrals are realized per rank (bounds are floats; in
`integrate_rank` alone an infinite bound becomes shift -/+ n), the rank
sequence I_n is recorded, and the observed order of its increments
(`limits`) makes the result a real limit ("reduced"), a divergence like
n^p ("irreducible"), or Undetermined.
"""

from __future__ import annotations

import bisect
import fractions
import functools
import math
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DeltaCalcError, QuadratureError, SmoothnessError
from .limits import DEFAULT_SCHEDULE, extract_limit, power_law_exponent
from .roots import WINDOW, _bisect, scan
from .vfun import (
    C_INF,
    DiracKernel,
    RealFunction,
    VirtualFunction,
    array_values,
)

__all__ = [
    "IntegralResult",
    "integrate_rank",
    "profile_integral",
    "reduce_bound",
    "first_batch",
    "reduce_integral",
    "sift",
    "sift_derivative",
    "derivative_schedule",
    "by_parts",
    "delta_integral",
    "convolve",
    "compose",
]

_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-12, limit=200)
_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegralResult:
    kind: str  # "reduced" | "irreducible" | "undetermined"
    value: float | None = None
    error_estimate: float | None = None
    exponent: float | None = None
    sign: float | None = None
    rank_values: tuple = field(default_factory=tuple)

    @property
    def reduced(self):
        return self.kind == "reduced"

    def to_json(self):
        out = {"variant": self.kind,
               "rank_values": [[n, v] for n, v in self.rank_values]}
        if self.kind == "reduced":
            out["value"] = self.value
            out["error"] = self.error_estimate
        elif self.kind == "irreducible":
            out["exponent"] = self.exponent
            out["sign"] = self.sign
        return out


#: Probes taken before `reduce_sequence` may stop early.
_MIN_PROBES = 7


def reduce_sequence(schedule, value_fn, tol):
    """Evaluate I_n over the schedule with early stopping.

    `value_fn` takes a tuple of ranks and returns their I_n.  Its first
    call gets the first _MIN_PROBES ranks, which are always taken, since
    `extract_limit` is not consulted before them; each later call gets one
    rank.  Once the probes agree under extrapolation (to quadrature's
    relative target) the remaining (costlier, higher-rank) quadratures are
    skipped; else `power_law_exponent` tells irreducible from undetermined.
    """
    values = list(value_fn(tuple(schedule[:_MIN_PROBES])))
    while True:
        res = _settled(values, schedule[:len(values)], tol)
        if res is not None:
            return res
        if len(values) == len(schedule):
            break
        values.extend(value_fn((schedule[len(values)],)))
    pairs = tuple(zip(schedule, values))
    fit = power_law_exponent(schedule, values)
    if fit is None:
        return IntegralResult("undetermined", rank_values=pairs)
    return IntegralResult("irreducible", exponent=fit[0], sign=fit[1], rank_values=pairs)


def _settled(values, ranks, tol):
    """The reduced result of I_n = `values` on `ranks`, or None where
    `extract_limit` does not settle it."""
    lim = extract_limit(values, ranks, tol, _QUAD_OPTS["epsrel"])
    if lim is None:
        return None
    return IntegralResult("reduced", value=float(lim[0]), error_estimate=float(lim[1]),
                          rank_values=tuple(zip(ranks, values)))


def _total(values):
    """Left-to-right sum; a single value is returned as it is.  Where only
    a partial sum overflowed, the exact sum rounded once (or its sign's inf)."""
    total = functools.reduce(operator.add, values)
    if math.isfinite(total) or not all(map(math.isfinite, values)):
        return total
    exact = sum(map(fractions.Fraction, values))
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def reduce_bound(bound, weight, lo, hi, schedule, tol):
    """The one reduction path: reduce the integral over [lo, hi] of the sum,
    over `bound`'s (c, factor, atom, family, shift), of c * factor * weight
    times the rank family at `shift`, through `reduce_sequence`.  factor is
    a RealFunction or None (1), weight a RealFunction, a bare callable (no
    derivative rule) or None (1), and family None is 0.  Of atom (a
    `rewrite` term, or None) only its `order` is read, 0 where it has none.
    A kernel's derivative of order j (a family with a `base`) is that base
    kernel at atom order k + j, so one rule serves every order of d^(k).
    A rank whose total is not finite is refused.  An atom of order k >= 1
    not integrated `by_parts` caps the schedule (`derivative_schedule`)."""
    if weight is not None and not isinstance(weight, RealFunction):
        weight = RealFunction(weight)  # a bare callable: no derivative rule
    # Each atom's weight: its factor times the caller's.
    atoms = []
    for c, f, atom, family, shift in bound:
        k, base = getattr(atom, "order", 0), getattr(family, "base", None)
        if base is not None:  # a kernel's derivative: its base kernel's atom
            k, family = k + family.order - base.order, base
        atoms.append((c, weight if f is None else f if weight is None else f.times(weight),
                      k, family, shift))
    # Only derivative kernels integrated as they are cap the schedule.
    capped = max([k for _c, w, k, fam, _s in atoms if not by_parts(fam, k, w)], default=0)
    return reduce_sequence(derivative_schedule(schedule, capped),
                           functools.partial(_totals, atoms, lo, hi), tol)


def _totals(atoms, lo, hi, ranks):
    """`reduce_bound`'s I_n at `ranks`: the sum over its (c, weight, k,
    family, shift) `atoms`.  A module function, not a closure that calls
    itself, so that no reference cycle keeps the families alive."""
    try:
        columns = [[c * v for v in ([0.0] * len(ranks) if family is None else
                                    delta_integral(family, k, lo, hi, ranks, w, shift))]
                   for c, w, k, family, shift in atoms]
    except DeltaCalcError:
        if len(ranks) == 1 or len(atoms) == 1:
            raise
        # Rank by rank, atom by atom: the first to fail names the error.
        for n in ranks:
            _totals(atoms, lo, hi, (n,))
        raise
    totals = [_total(column) for column in zip(*columns)]
    for n, total in zip(ranks, totals):
        if not math.isfinite(total):
            raise QuadratureError(f"at rank n={n}, the integral is not finite: "
                                  f"{total}", rank=n)
    return totals


def first_batch(bound, weights, schedule, tol, shared):
    """`reduce_bound(bound, w, -inf, inf, schedule, tol)` for each weight w
    of `weights` (RealFunctions) that the first _MIN_PROBES ranks settle,
    else None, from one stacked pass.  Every entry is None unless `bound`
    holds only atoms of order 0 on order-0 profile kernels whose support
    each of those ranks holds.  The nodes x = shift + u/n of those ranks
    are built once per (cuts, shift), and each weight and each atom's
    factor is evaluated on them once: `shared` keeps x and the weights'
    values on it for the next bound.  Each rule sum of all (weight, rank)
    rows of an atom is one contraction.  A weight whose rules a rank does
    not accept, or whose totals are not all finite, is left to
    `reduce_bound`."""
    ranks = tuple(schedule[:_MIN_PROBES])
    reach = min(ranks, default=0) ** 2  # u = n(x - shift) on the whole line
    if not bound or not all(isinstance(d, DiracKernel) and d.order == 0
                            and getattr(atom, "order", 0) == 0
                            and -reach <= d.profile_support[0] <= d.profile_support[1] <= reach
                            for _c, _f, atom, d, _s in bound):
        return [None] * len(weights)
    ok, columns = True, []
    for c, f, _atom, d, shift in bound:
        cuts = _cuts(d, *d.profile_support)
        u, w_coarse, w_fine = _fixed_nodes(cuts)
        m = w_coarse.size
        if (cuts, shift) not in shared:
            x = shift + u / np.array(ranks, dtype=float)[:, None]
            shared[(cuts, shift)] = x, *_on_nodes(weights, x, m)
        x, values, magnitude = shared[(cuts, shift)]
        with np.errstate(all="ignore"):
            # The profile times the atom's factor, one row per rank.
            g = np.broadcast_to(_profile_on_nodes(d.profile, cuts)
                                * (1.0 if f is None else array_values(f.fn, x)), x.shape)
            coarse = _contract(values[..., :m], w_coarse * g[:, :m])
            fine = _contract(values[..., m:], w_fine * g[:, m:])
            resabs = _contract(magnitude, w_fine * np.abs(g[:, m:]))
            ok = ok & _accepted(coarse, fine, resabs).all(axis=0)
        columns.append(c * fine)
    # Left to right, as `_total` adds the atoms' columns.
    totals = functools.reduce(operator.add, columns)
    ok = ok & np.isfinite(totals).all(axis=0)
    return [_settled(v, ranks, tol) if good else None
            for v, good in zip(totals.T.tolist(), ok.tolist())]


def _contract(values, w):
    """The sums over k of values[i, r, k] w[r, k], one row per rank r and
    column per weight i: one batched matrix product, of each rank's
    (weight, node) block and its rule weights, on views of `values`."""
    return np.matmul(values.transpose(1, 0, 2), w[..., None])[..., 0]


def _on_nodes(weights, x, m):
    """The weights on the 2-D nodes x, one (weight, rank) row per weight
    and rank, and |those values| past the first m nodes of each row.  A
    weight whose evaluation raises an error that `check_equivalence` may
    skip reads nan, so that `reduce_bound` raises it in its turn."""
    values = np.empty((len(weights), *x.shape))
    with np.errstate(all="ignore"):
        for row, w in zip(values, weights):
            try:
                row[...] = array_values(w.fn, x)
            except (ArithmeticError, DeltaCalcError):
                row[...] = math.nan
    return values, np.abs(values[..., m:])


# ---------------------------------------------------------------------------
# Per-rank quadrature
# ---------------------------------------------------------------------------

def quad(f, a, b, **kwargs):
    """SciPy's adaptive quad, imported when called, so that importing the
    package loads no SciPy.  `_quad_piece` looks this name up when it runs,
    so rebinding it reaches every call."""
    from scipy.integrate import quad

    return quad(f, a, b, **kwargs)


def _quad_piece(f, a, b, points=None):
    """Adaptive quad over [a, b], split at the `points` inside it: the
    adaptive rule's give-up.  QUADPACK's "probably divergent" (ier = 5)
    returns a finite part, not the integral: a QuadratureError."""
    if b <= a:
        return 0.0
    from scipy.integrate import IntegrationWarning

    try:
        with warnings.catch_warnings():
            # Roundoff warnings are routine for near-zero integrands at the
            # requested absolute tolerance; the limit extractor sees the
            # noise anyway.
            warnings.simplefilter("ignore", IntegrationWarning)
            warnings.filterwarnings("error", "The integral is probably divergent",
                                    IntegrationWarning)
            if points:
                pts = sorted(p for p in points if a < p < b)
                val, err = quad(f, a, b, points=pts or None, **_QUAD_OPTS)
            else:
                val, err = quad(f, a, b, **_QUAD_OPTS)
    except Exception as exc:  # scipy raises on various failures
        raise QuadratureError(f"quadrature failed on [{a:g}, {b:g}]: {exc}") from exc
    if not math.isfinite(val):
        raise QuadratureError(f"quadrature diverged on [{a:g}, {b:g}]",
                              diagnostics={"value": val, "error": err})
    return val


def integrate_rank(vf, lo, hi, ranks, weight=None, shift=0.0):
    """Rank-n integrals of f_n(x - shift) * weight(x) over [lo, hi], one per
    rank n of the tuple `ranks`.

    This is the one place that realises an infinite bound, as the offset
    -/+ n from the shift, so a kernel's support lies inside the bounds at
    every shift, and the one place that picks how a rank integral is
    taken: a profile kernel in u = n(x - shift), all ranks at once
    (`profile_integral`), a composite d_n(g(x)), which takes no shift, piece
    by piece over the monotone pieces of g, in u = n g(x) or in x
    (`_substituted`), and any other virtual function in x on its octave
    panels about the shift (`_octaves`), cut to its declared support: all
    on the fixed rules and the adaptive rule (`_refined`).  The ranks are
    taken in order: the lowest that fails raises its error."""
    # Reversed bounds (or nan) are refused; a finite bound beyond one
    # rank's window only empties that rank.
    if not (lo <= hi and lo < math.inf and hi > -math.inf):
        raise ValueError(f"empty orientation: lower bound {lo} > upper bound {hi}")
    # Offsets from the shift: no shift can round a rank's window away.
    offsets = [(-float(n) if lo == -math.inf else lo - shift,
                float(n) if hi == math.inf else hi - shift) for n in ranks]
    if isinstance(vf, DiracKernel):
        return profile_integral(vf, ranks, shift, weight,
                                [n * da for n, (da, _db) in zip(ranks, offsets)],
                                [n * db for n, (_da, db) in zip(ranks, offsets)])
    if isinstance(vf, Composite):
        if shift:
            raise ValueError(f"a composite takes no shift (shift {shift:g})")
        return _substituted(vf, ranks, offsets, weight)
    if shift:
        vf = vf.translate(shift)
    return [_regions_integral(vf, n, weight, *_octaves(vf, n, shift, shift + da, shift + db))
            for n, (da, db) in zip(ranks, offsets)]


def _octaves(vf, n, c, a, b):
    """vf's rank-n x panels on [a, b] cut to its declared support, and the
    cuts between them: cut at c and at c -/+ 2^j/n, j = 0, 1, ..., until
    the cuts reach the bounds, so one rule serves a peak of width 1/n about
    c and mass far from it.  The panels are listed from c outwards in
    left/right pairs: an odd integrand about c cancels pair by pair."""
    iv = vf.support_interval(n)
    if iv is not None:
        a, b = max(a, iv[0]), min(b, iv[1])
    steps = [0.0, 1.0 / n]
    while c - steps[-1] > a or c + steps[-1] < b:
        steps.append(2.0 * steps[-1])
    clip = lambda t: min(max(t, a), b)
    panels = [p for s, t in zip(steps, steps[1:])
              for p in ((clip(c - t), clip(c - s)), (clip(c + s), clip(c + t))) if p[0] < p[1]]
    return panels, sorted({e for p in panels for e in p})[1:-1]


#: Gauss-Legendre nodes per panel of the two fixed rules whose agreement
#: accepts a profile-kernel rank integral or a composite region's integral.
_FIXED_NODES = (128, 256)


#: The most nodes in one array call (1 MB an array): a batch of a
#: composite's solved nodes, or of a contraction's points.
_BATCH = 2 ** 17


_gauss_legendre = functools.lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)


def _panel_rules(lo, hi):
    """Nodes and weights of both fixed rules on the panels [lo[i], hi[i]]:
    the first rule's nodes first, each rule's panel by panel."""
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    nodes, weights = [], []
    for m in _FIXED_NODES:
        t, w = _gauss_legendre(m)
        nodes.append((mid[:, None] + half[:, None] * t).ravel())
        weights.append((half[:, None] * w).ravel())
    return np.concatenate(nodes), weights[0], weights[1]


@functools.lru_cache(maxsize=64)
def _fixed_nodes(cuts):
    """_panel_rules on the panels between `cuts`; read-only, shared by every
    call."""
    out = _panel_rules(np.array(cuts[:-1]), np.array(cuts[1:]))
    for arr in out:
        arr.flags.writeable = False
    return out


def _cuts(d, ulo, uhi):
    """The panel edges of d's fixed rules on [ulo, uhi]: its ends and the
    profile cuts between them."""
    return (ulo, *(c for c in d.profile_cuts if ulo < c < uhi), uhi)


@functools.lru_cache(maxsize=64)
def _profile_on_nodes(profile, cuts):
    """The profile on _fixed_nodes(cuts); read-only, shared by every rank
    and weight.  The cache holds its key profiles, so no other profile can
    take their values."""
    with np.errstate(all="ignore"):
        p = array_values(profile.fn, _fixed_nodes(cuts)[0])
    p.flags.writeable = False
    return p


def _accepted(coarse, fine, resabs):
    """Where the finer fixed rule's value may stand for adaptive quad's, on
    floats or elementwise on arrays: all finite, and both rules within
    quad's own target of each other, with its rounding floor relative to
    `resabs`, the integral of |integrand| (where quad stops with a roundoff
    warning).  Operators only: on floats, numpy calls would add a tenth to
    a profile rank's cost.  Call it under np.errstate(all="ignore")."""
    total, diff = coarse + fine + resabs, abs(fine - coarse)
    # total - total is 0 where the three are finite and their sum is.
    return (total - total == 0) & ((diff <= _QUAD_OPTS["epsabs"])
                                   | (diff <= _QUAD_OPTS["epsrel"] * abs(fine))
                                   | (diff <= 50.0 * _EPS * resabs))


def _rule_sums(values, w_coarse, w_fine, rows, scale=None, magnitude=None):
    """Both fixed rules on `values`, each summed per row as a dot product
    times that row's `scale` (default 1): lists of the coarse rule's, the
    fine rule's and the fine rule's on |magnitude| (default: |values|), the
    three that `_accepted` takes.  A row is a panel where `values` is laid
    out as _panel_rules lays out its nodes, or a row of a 2-D `values`,
    each row all of the rules' nodes.  Call it under
    np.errstate(all="ignore")."""
    m = w_coarse.size
    magnitude = values if magnitude is None else magnitude
    pairs = ((w_coarse, values[..., :m]), (w_fine, values[..., m:]),
             (w_fine, np.abs(magnitude[..., m:])))
    scale = [1.0] * rows if scale is None else scale
    sums = []
    for w, v in pairs:
        v = v.reshape(rows, 1, -1)
        dots = (v @ w.reshape(-1, v.shape[-1], 1)).ravel().tolist()
        sums.append([c * s for c, s in zip(scale, dots)])
    return sums


def _u_rule(d, cuts, x, scale, weight, jac=None, anchor=None):
    """n^k * integral of p(u) jac(u) w(x(u)) du on _fixed_nodes(cuts), p d's
    order-k profile and jac None 1, for each row of nodes x(u) and its n^k
    in `scale`: the fine rule's value, None where the rules disagree or a
    value is not finite.  `anchor` a subtracts w(a) from w; the rounding
    floor stays that of p * jac * w."""
    u, w_coarse, w_fine = _fixed_nodes(cuts)
    p = _profile_on_nodes(d.profile, cuts)
    if anchor is not None:
        x = np.concatenate((x, np.full((len(x), 1), anchor)), axis=1)
    with np.errstate(all="ignore"):
        wv = np.ones_like(x) if weight is None else array_values(weight, x)
        pj = p if jac is None else p * jac
        values = magnitude = pj * wv[:, :u.size]
        if anchor is not None:
            values = pj * (wv[:, :u.size] - wv[:, -1:])
        coarse, fine, resabs = _rule_sums(values, w_coarse, w_fine, len(x), scale, magnitude)
        return [v if _accepted(c, v, r) else None for c, v, r in zip(coarse, fine, resabs)]


def _scale(n, k):
    """n^k as a float, inf above the float range, where the rank diverges."""
    try:
        return float(n ** k)
    except OverflowError:
        return math.inf


def _fixed_rule(d, ranks, a, weight, ulo, uhi):
    """_u_rule in u = n(x - a) over [ulo, uhi], for each rank n of `ranks`:
    one value per rank, or None."""
    k = d.order
    # Over the whole support the integral of p = p0^(k), k >= 1, is 0, so
    # w(a) may be subtracted: that removes the n^k growth of the rounding.
    cancel = k > 0 and (ulo, uhi) == d.profile_support
    cuts = _cuts(d, ulo, uhi)
    x = a + _fixed_nodes(cuts)[0] / np.array(ranks, dtype=float)[:, None]
    return _u_rule(d, cuts, x, [_scale(n, k) for n in ranks], weight,
                   anchor=a if cancel else None)


#: Levels of halving, and panels halved at most at one level, that the
#: adaptive rule may take before adaptive quad decides.
_REFINE_LEVELS, _REFINE_PANELS = 12, 16


def _refined(f, lo, hi, points):
    """The integral of f over the panels [lo[i], hi[i]] (ndarrays, in
    order, end to end), which the fixed rules reject as a whole, by the
    one adaptive rule: both fixed rules on each panel, and each panel whose
    two rules are not `_accepted` halved at its midpoint, one array call
    (`array_values`) per level, until every panel is accepted or the
    panels' differences |fine - coarse| sum to within quad's targets
    (_QUAD_OPTS) of the sum of their fine values, or to within
    `_accepted`'s rounding floor: the math.fsum of the fine values.  Where
    a value is not finite or the level or panel budget (_REFINE_LEVELS,
    _REFINE_PANELS) is spent, adaptive quad over [lo[0], hi[-1]], split
    at `points`, decides."""
    a, b = float(lo[0]), float(hi[-1])
    kept = [[], [], []]  # fine sums, differences, |integrand| sums of kept panels
    for _level in range(_REFINE_LEVELS):
        x, w_coarse, w_fine = _panel_rules(lo, hi)
        with np.errstate(all="ignore"):
            coarse, fine, resabs = _rule_sums(array_values(f, x), w_coarse, w_fine, lo.size)
            ok = [_accepted(*row) for row in zip(coarse, fine, resabs)]
        if not all(map(math.isfinite, coarse + fine + resabs)):
            break
        diff = [abs(v - c) for c, v in zip(coarse, fine)]
        total, err, mag = (math.fsum(k + v) for k, v in zip(kept, (fine, diff, resabs)))
        if (all(ok) or err <= max(_QUAD_OPTS["epsabs"], _QUAD_OPTS["epsrel"] * abs(total))
                or err <= 50.0 * _EPS * mag):
            return total
        split = ~np.array(ok)
        if split.sum() > _REFINE_PANELS:
            break
        for k, v in zip(kept, (fine, diff, resabs)):
            k += [t for t, s in zip(v, split) if not s]
        mid = 0.5 * (lo[split] + hi[split])
        lo, hi = np.concatenate((lo[split], mid)), np.concatenate((mid, hi[split]))
    return _quad_piece(f, a, b, points)


def _regions_integral(vf, n, weight, panels, inner=()):
    """The integral of f_n * weight over the disjoint `panels`, summed in order.

    Both fixed rules are mapped onto every panel, and f_n * weight is
    evaluated in one array call on all the nodes and the points `inner`,
    cuts that no node meets: where it is not finite at one, the rank is
    refused.  A panel whose two rules disagree, or give a value that is not
    finite, goes to the adaptive rule (`_refined`).
    """
    if not panels:
        return 0.0
    f = lambda x: vf.rank_eval(n, x) * (1.0 if weight is None else weight(x))
    x, w_coarse, w_fine = _panel_rules(*np.array(panels).T)
    with np.errstate(all="ignore"):
        values = array_values(f, np.concatenate((x, inner)))
        coarse, fine, resabs = _rule_sums(values[:x.size], w_coarse, w_fine, len(panels))
        accepted = [_accepted(*row) for row in zip(coarse, fine, resabs)]
    for t, v in zip(inner, values[x.size:].tolist()):
        if not math.isfinite(v):
            raise QuadratureError(f"at rank n={n}, the integrand is {v} at the cut x={t:g}",
                                  rank=n)
    return sum(v if ok else _refined(f, np.array([p]), np.array([q]), None)
               for v, ok, (p, q) in zip(fine, accepted, panels))


def profile_integral(d, ranks, a, weight, ulo=-math.inf, uhi=math.inf):
    """Rank-n integrals of d_n(x - a) w(x) for the profile kernel d, one per
    rank n of the tuple `ranks`.

    With u = n(x - a) each is n^k * integral of p(u) w(a + u/n) over the
    profile support cut to [ulo, uhi] (floats, or one per rank), where p is
    d's order-k profile, so the quadrature nodes depend on neither n nor w.
    Two Gauss-Legendre rules on the panels between d.profile_cuts (u = 0,
    the middle of the support) are evaluated in one array call for all the
    ranks that share their cut support.  Where they disagree on a rank,
    the adaptive rule (`_refined`) halves the panels that disagree, with
    quad's targets on n^k p(u) w(a + u/n); where a value is not finite or
    its budget is spent, one quad call over the rank's u range, split at
    0, decides it.  The ranks are taken in order: the lowest that
    fails raises its error.  `weight` None integrates the kernel alone.
    """
    plo, phi = d.profile_support
    ulo, uhi = ([b] * len(ranks) if np.ndim(b) == 0 else b for b in (ulo, uhi))
    bounds = [(max(plo, lo), min(phi, hi)) for lo, hi in zip(ulo, uhi)]
    # The first rank that is refused, where w would be read at one point
    # and a derivative kernel give 0; no later rank is evaluated.
    refused = next((i for i, (n, (lo, hi)) in enumerate(zip(ranks, bounds))
                    if lo < hi and d.order and weight is not None
                    and a + lo / n == a + hi / n), len(ranks))
    groups = {}
    for i in range(refused):
        if bounds[i][0] < bounds[i][1]:
            groups.setdefault(bounds[i], []).append(i)
    fixed = {}
    for (lo, hi), rows in groups.items():
        fixed.update(zip(rows, _fixed_rule(d, [ranks[i] for i in rows], a, weight, lo, hi)))
    values = []
    for i, (n, (lo, hi)) in enumerate(zip(ranks, bounds)):
        if hi <= lo:
            values.append(0.0)
        elif i == refused:
            raise QuadratureError(f"at rank n={n}, every node a + u/n of a derivative "
                                  f"kernel rounds to its shift a={a:g}", rank=n)
        elif fixed[i] is not None:
            values.append(fixed[i])
        else:
            prof, scale, cuts = d.profile, _scale(n, d.order), _cuts(d, lo, hi)
            g = lambda u: scale * prof(u) * (1.0 if weight is None else weight(a + u / n))
            try:
                values.append(_refined(g, np.array(cuts[:-1]), np.array(cuts[1:]), [0.0]))
            except QuadratureError as exc:
                raise QuadratureError(f"at rank n={n}, kernel {d.name!r} of order {d.order}: "
                                      f"{exc}", rank=n, diagnostics=exc.diagnostics) from exc
    return values


def reduce_integral(vf, lo=-math.inf, hi=math.inf, schedule=DEFAULT_SCHEDULE,
                    tol=1e-9, weight=None):
    """Compute the rank sequence I_n and reduce it to an IntegralResult:
    vf is one atom of order 0 on `reduce_bound` (a kernel's derivative, an
    atom of its base kernel), which refuses a rank whose total is not
    finite."""
    return reduce_bound([(1.0, None, None, vf, 0.0)], weight, lo, hi, schedule, tol)


# ---------------------------------------------------------------------------
# Sifting
# ---------------------------------------------------------------------------

def sift(d, f, a=0.0, schedule=DEFAULT_SCHEDULE, tol=1e-9):
    """Reduce the integral of d_n(x - a) f(x) over the whole line; equals
    f(a) for valid inputs, and (-1)^k f^(k)(a) for d a kernel's order-k
    derivative.  d shifted to a is one atom of order 0 on `reduce_bound`,
    as in `reduce_integral`; `integrate_rank` takes a profile kernel in
    u = n(x - a).
    """
    return reduce_bound([(1.0, None, None, d, float(a))], f, -math.inf, math.inf,
                        schedule, tol)


def derivative_schedule(schedule, k):
    """The ranks of `schedule` that the order-k derivative of a kernel
    integrated as it is, n^k p^(k)(u) in u, may use: n <= 2^max(8, 14 - 2k)
    for k >= 1, every rank for k = 0.  Higher ranks lose too many digits:
    the integrand grows like n^k.  Far enough above the cap, a + u/n rounds
    to a and every I_n reads 0: refuse instead."""
    schedule = list(schedule)
    if k < 1:
        return schedule
    cap = 2 ** max(8, 14 - 2 * k)
    schedule = [n for n in schedule if n <= cap]
    if not schedule:
        raise DeltaCalcError(
            f"every rank of the schedule lies above n = {cap}, the cap for "
            f"delta derivatives of order {k}")
    return schedule


def by_parts(d, k, weight):
    """Whether `delta_integral` integrates by parts: k >= 1, d a profile kernel
    with a C^k profile, and F = `weight` (None for 1) with a rule of order k."""
    return (k > 0 and isinstance(d, DiracKernel) and d.smoothness >= k
            and (weight is None or weight.rule_order >= k))


def delta_integral(d, k, lo, hi, ranks, weight, a):
    """Rank-n integrals of d_n^(k)(x - a) F(x) over [lo, hi], one per rank n
    of `ranks`, for F the RealFunction `weight` (None for 1).  Where
    `by_parts`, (-1)^k times the order-0 integral of d_n(x - a) F^(k)(x),
    plus sum_{j<k} (-1)^j [d_n^(k-1-j)(x - a) F^(j)(x)] at each finite bound
    inside supp d_n(x - a), with no n^k; else d's order-k derivative (d, any
    virtual function, at k = 0) as it is (`integrate_rank`)."""
    if not by_parts(d, k, weight):
        return integrate_rank(d.derivative(k) if k else d, lo, hi, ranks,
                              None if weight is None else weight.fn, a)
    # F = 1 has F^(k) = 0; (-1)^k * 0.0 + 0.0 is 0.0, not -0.0.
    dk, F = ((np.zeros_like, lambda j, _x: float(j == 0)) if weight is None
             else (weight.derivative(k).fn, weight.deriv_value))
    values = [(-1.0) ** k * v + 0.0 for v in integrate_rank(d, lo, hi, ranks, dk, a)]
    plo, phi = d.profile_support
    for i, n in enumerate(ranks):
        for x, side in ((lo, -1.0), (hi, 1.0)):
            u = n * (x - a)  # +-inf at an infinite bound
            if plo < u < phi:
                values[i] += side * sum((-1.0) ** j * _scale(n, d.order + k - j)
                                        * d.derivative(k - 1 - j).profile(u) * F(j, x)
                                        for j in range(k))
    return values


def sift_derivative(d, k, f, a=0.0, schedule=DEFAULT_SCHEDULE, tol=1e-9):
    """Reduce the integral of d_n^{(k)}(x - a) f(x) = (-1)^k f^{(k)}(a), for
    a profile kernel with a C^k profile and a C^k f, as the expression
    d^(k)(x - a) against f: by parts where f has a rule of order k."""
    from .rewrite import DeltaTerm, reduce_expr_integral

    k = int(k)
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    if not isinstance(d, DiracKernel):
        raise TypeError("sift_derivative requires a profile-based Dirac kernel")
    if isinstance(f, RealFunction) and f.smoothness < k:
        raise SmoothnessError(f"test function {f.label!r} is only C^{f.smoothness}, "
                              f"needs C^{k} around a={a:g}")
    return reduce_expr_integral(DeltaTerm(k, float(a), kernel=d), weight=f,
                                schedule=schedule, tol=tol)


# ---------------------------------------------------------------------------
# Convolution (contraction)
# ---------------------------------------------------------------------------

def _contraction(f1, c1, f2, c2):
    """u -> the integral of f1(u - t) f2(t) dt, on a float or an ndarray,
    for f1 zero outside [c1[0], c1[-1]] and f2 outside [c2[0], c2[-1]], each
    smooth between its cuts c1, c2.

    u's t-panels are cut at c2 and at u minus c1, and the empty ones
    dropped; both fixed rules are summed over them, in array calls of at
    most _BATCH nodes.  A u whose two rules are not `_accepted` goes to the
    adaptive rule (`_refined`) on its t-panels, and where that gives up, to
    one quad call over them, split at its cuts.
    """
    c1, c2 = np.array(c1), np.array(c2)
    (t_coarse, w_coarse), (t_fine, w_fine) = map(_gauss_legendre, _FIXED_NODES)
    nodes = np.concatenate((t_coarse, t_fine))
    step = max(1, _BATCH // nodes.size)

    def conv(u):
        us = np.asarray(u, dtype=float)
        flat = us.ravel()
        # Each u's cuts, clipped to where f1(u - t) f2(t) may be nonzero.
        t0 = np.maximum(c2[0], flat - c1[-1])[:, None]
        t1 = np.minimum(c2[-1], flat - c1[0])[:, None]
        cuts = np.sort(np.clip(np.concatenate(
            (np.broadcast_to(c2, (flat.size, c2.size)), flat[:, None] - c1), axis=1),
            t0, t1), axis=1)
        keep = cuts[:, 1:] > cuts[:, :-1]
        rows, lo, hi = np.nonzero(keep)[0], cuts[:, :-1][keep], cuts[:, 1:][keep]
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        sums = np.zeros((3, flat.size))
        with np.errstate(all="ignore"):
            for i in range(0, rows.size, step):
                r, h = rows[i:i + step], half[i:i + step]
                t = mid[i:i + step, None] + h[:, None] * nodes
                values = array_values(f1, flat[r, None] - t) * array_values(f2, t)
                for total, part in zip(sums, _rule_sums(values, w_coarse, w_fine, r.size, h)):
                    total += np.bincount(r, part, flat.size)
            ok = _accepted(*sums)
        out = sums[1]
        for j in np.flatnonzero(~ok):
            out[j] = _refined(lambda t, c=flat[j]: f1(c - t) * f2(t),
                              cuts[j, :-1][keep[j]], cuts[j, 1:][keep[j]], cuts[j].tolist())
        return float(out[0]) if us.ndim == 0 else out.reshape(us.shape)

    return conv


@functools.lru_cache(maxsize=16)
def _convolution(p1, c1, p2, c2):
    """The profile p1 * p2 (`_contraction`): C^(s1 + s2) for p1 in C^s1 and
    p2 in C^s2, its k-th derivative p1^(i) * p2^(k - i) with i = min(k, s1).
    Cached by value, so a kernel built again reads the same profile's node
    values; the cache holds its key profiles, so no other pair takes it."""
    @functools.lru_cache(maxsize=None)
    def nth(k):
        i = int(min(k, p1.smoothness))
        return _contraction(p1.derivative(i).fn, c1, p2.derivative(k - i).fn, c2)

    return RealFunction(_contraction(p1.fn, c1, p2.fn, c2),
                        smoothness=p1.smoothness + p2.smoothness,
                        label=f"conv[{p1.label},{p2.label}]", nth_deriv=nth)


def convolve(d1, d2):
    """Contraction of two continuous profile kernels; a Dirac kernel again.

    The rank family is n * (p1 * p2)(n x): convolving n p1(n .) with
    n p2(n .) rescales the unit-rank profile convolution (`_convolution`).
    The support adds, eps_3 = eps_1 + eps_2, and so do the profile cuts.
    """
    for d in (d1, d2):
        if not isinstance(d, DiracKernel) or d.order:
            raise TypeError("convolve requires profile-based Dirac kernels")
        if d.smoothness < 0:
            raise SmoothnessError(
                f"kernel {d.name!r} is discontinuous; contraction requires "
                "continuous kernels"
            )
    cuts = [a + b for a in d1.profile_cuts for b in d2.profile_cuts]
    return DiracKernel(_convolution(d1.profile, d1.profile_cuts, d2.profile, d2.profile_cuts),
                       (min(cuts), max(cuts)), "convolution",
                       params={"of": [d1.name, d2.name]}, cuts=cuts)


# ---------------------------------------------------------------------------
# Composition d(g(x))
# ---------------------------------------------------------------------------

#: Steps a node x(u) of the substitution may take, and the step, in units
#: in the last place of max(|x|, 1), at or below which it has converged.
_SOLVE_STEPS, _SOLVE_ULPS = 16, 4


class Composite(VirtualFunction):
    """The composite virtual function x -> d_n(g(x)) that `compose` builds.
    `nodes(key)` holds the plan of the ranks (n, a, b) of `key`
    (`_substitution`), cached by value for the weights of one reduction."""

    def __init__(self, d, g, s):
        self.kernel, self.scan = d, s
        super().__init__(
            lambda n, x, d=d, gfn=s.fn: d.rank_eval(n, gfn(x)),
            smoothness=min(d.smoothness, getattr(g, "smoothness", C_INF)),
            label=f"{getattr(d, 'name', d.label)}({getattr(g, 'label', 'g')})",
        )
        # The pieces cover the window, so no region is searched.
        self.regions = None
        self.nodes = functools.lru_cache(maxsize=16)(
            functools.partial(_substitution, d, g, s))


def compose(d, g, window=WINDOW):
    """The composite virtual function x -> d_n(g(x)), with g scanned over
    `window`: see Composite."""
    if not d.has_support:
        raise ValueError("compose requires a kernel with declared support")
    return Composite(d, g, scan(g, window))


def _substitution(d, g, s, key):
    """The plan of the ranks (n, a, b) of `key` over the monotone pieces of
    g: whether each rank is taken wholly in u = n g(x); groups (cuts, rows,
    x, jac) of the pieces taken so, a row (rank index, piece index) per
    rank and piece of [a, b], with x(u) and 1/|g'(x(u))| on
    _fixed_nodes(cuts); and each rank's x panels (`_panels`) of the rest.
    A rank past an outside_scan_risk window edge is refused if the values
    g may take there (cert.edges) enter or leave supp(d_n); where g at the
    edge lies inside it, the outer piece reaches on to the bound.  In u the
    integral is n^k that of p(u) w(x(u)) / |g'(x(u))|: a piece is taken so
    if it holds a root of a certificate that is not violated, g has a
    symbolic g', n g at both of its ends lies outside the profile support
    on the side of its sign, and every x(u) converges inside it (`_solve`,
    in batches of at most _BATCH nodes).  The pieces' ends are the scan's
    grid-level `splits` until a piece is taken in x or left out, which
    reads the exact `pieces`, as do all where a split's grid bracket holds
    a root or a bound.  The grid-level end of a piece taken in u is no
    farther out in g than the exact one, so the same pieces pass, with the
    same u range and nodes."""
    cert, (wlo, whi) = s.certificate, s.window
    for n, a, b in key:
        if a < wlo or b > whi:
            slo, shi = d.support_interval(n)
            for edge, glo, ghi in cert.edges:
                past = a < edge if edge == wlo else b > edge
                if past and glo < shi and ghi > slo and not slo <= glo <= ghi <= shi:
                    cert.require()
    recs = (cert.roots if isinstance(d, DiracKernel) and isinstance(g, RealFunction)
            and g.rule_order >= 1 and cert.verdict != "violated" else ())
    exact = s.straddles([rec.a for rec in recs] + [x for _n, a, b in key for x in (a, b)])
    held, lo = {}, s.ends(exact)[0]  # piece index -> its certified root (None: two)
    for rec in recs:
        k = bisect.bisect_right(lo, rec.a) - 1
        held[k] = None if k in held else rec

    groups, x_rows = {}, []
    for j, (n, a, b) in enumerate(key):
        slo, shi = d.support_interval(n)
        ends = los, his, gls, ghs = _rank_ends(d, s, n, a, b, exact)
        for k in range(bisect.bisect_left(his, a), bisect.bisect_right(los, b)):
            span, rec = _span(s.fn, ends, k, a, b), held.get(k)
            if span is None:
                continue
            if rec is not None:
                plo, phi = d.profile_support
                low, high = (n * gls[k], n * ghs[k])[::1 if rec.g_prime > 0 else -1]
                if low < 0.0 < high and low <= plo and high >= phi:
                    gl, gr = span[2:]
                    ulo, uhi = max(plo, n * min(gl, gr)), min(phi, n * max(gl, gr))
                    if ulo < uhi:
                        groups.setdefault(_cuts(d, ulo, uhi), []).append(
                            (rec, los[k], his[k], (j, k)))
                    continue
            if not exact:
                exact = True
                ends = los, his, gls, ghs = _rank_ends(d, s, n, a, b, exact)
                span = _span(s.fn, ends, k, a, b)
            _xl, _xr, gl, gr = span
            if min(gl, gr) < shi and max(gl, gr) > slo:
                x_rows.append((j, *span))

    out = []
    for cuts, members in groups.items():
        size = max(1, _BATCH // _fixed_nodes(cuts)[0].size)
        for batch in (members[i:i + size] for i in range(0, len(members), size)):
            x, jac, good = _nodes(g, s.fn, key, cuts, [(row[0], rec, p, q)
                                                       for rec, p, q, row in batch])
            x_rows += _exact_spans(d, s, key, [row for (*_, row), ok in zip(batch, good)
                                               if not ok])
            if any(good):
                out.append((cuts, tuple(row for (*_, row), ok in zip(batch, good) if ok),
                            x[good], jac[good]))
    panels = _panels(d, s.fn, key, x_rows)
    return tuple(not ps for ps in panels), tuple(out), tuple(map(tuple, panels))


def _rank_ends(d, s, n, a, b, exact):
    """The scan's piece ends and g at them (`Scan.ends`), for rank n of the
    composite of d on [a, b]: where g at a window edge lies inside
    supp(d_n) and the bound lies past it, the outer piece reaches on to
    the bound."""
    los, his, gls, ghs = (list(e) for e in s.ends(exact))
    (wlo, whi), (slo, shi) = s.window, d.support_interval(n)
    if a < wlo and slo < s.vals[0] < shi:
        los[0], gls[0] = a, float(s.fn(a))
    if b > whi and slo < s.vals[-1] < shi:
        his[-1], ghs[-1] = b, float(s.fn(b))
    return los, his, gls, ghs


def _span(fn, ends, k, a, b):
    """Piece k of `ends` (`_rank_ends`) on [a, b]: (xl, xr, g(xl), g(xr)),
    or None where it is empty there."""
    los, his, gls, ghs = ends
    xl, xr = max(los[k], a), min(his[k], b)
    if not xl < xr:
        return None
    return (xl, xr, gls[k] if xl == los[k] else float(fn(xl)),
            ghs[k] if xr == his[k] else float(fn(xr)))


def _exact_spans(d, s, key, rows):
    """The x rows (rank index, xl, xr, g(xl), g(xr)) of the plan rows (rank
    index, piece index) of `key`, on the exact ends of the pieces."""
    out = []
    for j, k in rows:
        n, a, b = key[j]
        out.append((j, *_span(s.fn, _rank_ends(d, s, n, a, b, True), k, a, b)))
    return out


def _panels(d, fn, key, rows):
    """The x panels of d_n(g(x)), g = fn, a list per rank of `key`: each
    monotone piece (rank index, xl, xr, g(xl), g(xr)) cut where g crosses
    c/n, c a profile cut of d (else its support's ends), and the parts
    where g lies inside supp(d_n) kept.  All crossings are one batch."""
    found = []  # (row, level), each row's levels in the order g meets them
    for i, (j, xl, xr, gl, gr) in enumerate(rows):
        n = key[j][0]
        levels = ([c / n for c in d.profile_cuts] if isinstance(d, DiracKernel)
                  else list(d.support_interval(n)))
        found += [(i, t) for t in (levels if gl < gr else levels[::-1])
                  if min(gl, gr) < t < max(gl, gr)]
    edges = [[(xl, gl), (xr, gr)] for _j, xl, xr, gl, gr in rows]
    if found:
        i, t = np.array(found).T
        _j, xl, xr, gl, gr = np.array(rows)[i.astype(int)].T
        _x, x = _bisect(fn, xl, xr, side=np.where(gl > gr, 1.0, -1.0), level=t)
        for (i, t), x in zip(found, x.tolist()):
            edges[i].insert(-1, (x, t))
    out = [[] for _ in key]
    for (j, *_), e in zip(rows, edges):
        slo, shi = d.support_interval(key[j][0])
        out[j] += [(p, q) for (p, u), (q, v) in zip(e, e[1:])
                   if p < q and slo < 0.5 * (u + v) < shi]
    return out


def _nodes(g, fn, key, cuts, rows):
    """x(u) and 1/|g'(x(u))| on _fixed_nodes(cuts), one row per (rank index,
    root record, lo, hi) of `rows`, and whether each row's nodes all
    converged inside the root's piece [lo, hi], where g' has the root's
    sign."""
    n, root, slope, lo, hi = np.array([(key[j][0], rec.a, rec.g_prime, lo, hi)
                                       for j, rec, lo, hi in rows]).T[..., None]
    t = _fixed_nodes(cuts)[0] / n
    x = _solve(fn, t, root + t / slope, slope)
    with np.errstate(all="ignore"):
        dg = array_values(g.derivative(1).fn, x)
        jac = 1.0 / np.abs(dg)
        good = (lo <= x) & (x <= hi) & (dg * slope > 0.0) & (jac < math.inf)
    return x, jac, good.all(axis=1).tolist()


def _solve(fn, t, x, slope):
    """x where fn(x) = t, elementwise, from the first guess x: secant steps,
    the first a chord of `slope`, each secant's slope held within a factor
    of 2 of `slope`, where rounding makes a short secant's slope noise.  A
    node stops at its first step of at most _SOLVE_ULPS units in the last
    place of max(|x|, 1): an error that size moves no weight or slope
    beyond rounding.  A node that never stops is nan."""
    done = np.zeros(x.shape, dtype=bool)
    tol = _SOLVE_ULPS * _EPS * np.maximum(np.abs(x), 1.0)
    x0 = r0 = None
    with np.errstate(all="ignore"):
        for _ in range(_SOLVE_STEPS):
            r = array_values(fn, x) - t
            q = slope if x0 is None else slope * np.fmin(np.fmax(
                (r - r0) / ((x - x0) * slope), 0.5), 2.0)
            step = np.where(done, 0.0, r / q)
            x0, r0, x = x, r, x - step
            done |= np.abs(step) <= tol
            if done.all():
                return x
    return np.where(done, x, np.nan)


def _substituted(vf, ranks, bounds, weight):
    """The rank integrals of the Composite vf over the bounds (a, b) of each
    rank on its plan (vf.nodes): in u, by `_u_rule`, the pieces it takes
    so, and in x, on their panels over the pieces' exact ends, the rest and
    each piece in u whose two rules disagree."""
    key = tuple((n, a, b) for n, (a, b) in zip(ranks, bounds))
    _ok, groups, panels = vf.nodes(key)
    parts, redo = [[] for _ in ranks], []
    for cuts, rows, x, jac in groups:
        scale = [_scale(ranks[j], vf.kernel.order) for j, *_ in rows]
        for row, v in zip(rows, _u_rule(vf.kernel, cuts, x, scale, weight, jac)):
            if v is None:
                redo.append(row)
            else:
                parts[row[0]].append(v)
    more = _panels(vf.kernel, vf.scan.fn, key, _exact_spans(vf.kernel, vf.scan, key, redo))
    return [sum(vs, _regions_integral(vf, n, weight, [*ps, *qs]))
            for n, vs, ps, qs in zip(ranks, parts, panels, more)]
