"""The reduced-integral engine.

Virtual integrals are realized per rank against one weight or a stack
(bounds are floats; in `_rank_integrals` alone an infinite bound becomes
shift -/+ n): each rank family builds a plan, blocks of nodes, per-node
factor, rules and each row's fallback, and `_execute` weighs, sums and
refines it.  The rank sequence I_n
is recorded, and the observed order of its increments (`limits`) makes it
a real limit ("reduced"), a divergence like n^p ("irreducible"), or
Undetermined.
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
    "reductions",
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
        ranks = schedule[:len(values)]
        lim = extract_limit(values, ranks, tol, _QUAD_OPTS["epsrel"])
        if lim is not None:
            return IntegralResult("reduced", value=float(lim[0]), error_estimate=float(lim[1]),
                                  rank_values=tuple(zip(ranks, values)))
        if len(values) == len(schedule):
            break
        values.extend(value_fn((schedule[len(values)],)))
    pairs = tuple(zip(schedule, values))
    fit = power_law_exponent(schedule, values)
    if fit is None:
        return IntegralResult("undetermined", rank_values=pairs)
    return IntegralResult("irreducible", exponent=fit[0], sign=fit[1], rank_values=pairs)


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
    """The one reduction path: `reductions` of the one weight."""
    return reductions(bound, [weight], lo, hi, schedule, tol)[0]()


def reductions(bound, weights, lo, hi, schedule, tol):
    """Per weight, a function of no argument that reduces the integral over
    [lo, hi] of the sum, over `bound`'s (c, factor, atom, family, shift), of
    c * factor * weight times the rank family at `shift`, through
    `reduce_sequence`.  factor is a RealFunction or None (1), a weight a
    RealFunction, a bare callable (no derivative rule) or None, family None
    is 0, and of atom (a `rewrite` term, or None) only its `order` is read.
    A kernel's derivative of order j (a family with a `base`) is its base
    kernel at atom order k + j.  A rank whose total is not finite is
    refused.  An atom of order k >= 1 not `by_parts` caps the schedule
    (`derivative_schedule`).  The first ranks of the weights with one cap
    are one stack (`_totals`), taken on first use; the rest one by one."""
    weights = [w if w is None or isinstance(w, RealFunction) else RealFunction(w)
               for w in weights]
    atoms = []
    for c, f, atom, family, shift in bound:
        k, base = getattr(atom, "order", 0), getattr(family, "base", None)
        if base is not None:  # a kernel's derivative: its base kernel's atom
            k, family = k + family.order - base.order, base
        atoms.append((c, f, k, family, shift))
    caps = [max([k for _c, f, k, fam, _s in atoms if k and not by_parts(
        fam, k, w if f is None else f if w is None else f.times(w))], default=0) for w in weights]
    stacks = {}  # cap -> {weight index: its first ranks' totals, or None}

    def reduce(j):
        def values(r):  # the first call asks for the first ranks, a later one for one
            if len(r) > 1 and caps[j] not in stacks:
                stack = [i for i, c in enumerate(caps) if c == caps[j]]
                stacks[caps[j]] = dict(zip(stack, _totals(atoms, [weights[i] for i in stack],
                                                          lo, hi, r)))
            return len(r) > 1 and stacks[caps[j]][j] or _totals(atoms, [weights[j]], lo, hi, r)[0]
        return reduce_sequence(derivative_schedule(schedule, caps[j]), values, tol)

    return [functools.partial(reduce, j) for j in range(len(weights))]


def _totals(atoms, weights, lo, hi, ranks):
    """`reductions`' I_n at `ranks` per weight: the sum over the (c, factor,
    k, family, shift) `atoms` of c times the atom's `delta_integral`.  One
    weight raises the error of the lowest rank that fails (of the first
    atom at it), or of a total that is not finite; in a stack such a
    weight reads None, and all do where the stack raises."""
    try:
        columns = [[[c * v for v in row] for row in (
                        [[0.0] * len(ranks)] * len(weights) if family is None else
                        delta_integral(family, k, lo, hi, ranks, weights, shift, f))]
                   for c, f, k, family, shift in atoms]
    except Exception as exc:
        if len(weights) > 1:
            return [None] * len(weights)
        if not isinstance(exc, DeltaCalcError) or len(ranks) == 1 or len(atoms) == 1:
            raise
        # Rank by rank, atom by atom: the first to fail names the error.
        for n in ranks:
            _totals(atoms, weights, lo, hi, (n,))
        raise
    out = []
    for j in range(len(weights)):
        rows = [atom[j] for atom in columns]
        totals = rows[0] if len(rows) == 1 else [_total(column) for column in zip(*rows)]
        if not all(map(math.isfinite, totals)) and len(weights) == 1:
            n, t = next((n, t) for n, t in zip(ranks, totals) if not math.isfinite(t))
            raise QuadratureError(f"at rank n={n}, the integral is not finite: {t}", rank=n)
        out.append(totals if all(map(math.isfinite, totals)) else None)
    return out


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
    """`_rank_integrals` of one weight: one integral per rank."""
    return _rank_integrals(vf, lo, hi, ranks, [weight], shift)[0]


def _rank_integrals(vf, lo, hi, ranks, weights, shift=0.0, factor=None):
    """Rank-n integrals of f_n(x - shift) * factor(x) * w(x) over [lo, hi],
    for each w of `weights` (callables or None, 1; `factor` too): a list
    per weight, one integral per rank n of the tuple `ranks`.

    This is the one place that realises an infinite bound, as the offset
    -/+ n from the shift, so a kernel's support lies inside the bounds at
    every shift, and that picks the plan `_execute` takes: a profile
    kernel's rows in u = n(x - shift) (`_profile_integrals`), a composite
    d_n(g(x)), which takes no shift, piece by piece in u = n g(x) or in x
    (`_substituted`), and any other virtual function's x panels on its
    octaves about the shift (`_octaves`), cut to its declared support."""
    # Reversed bounds (or nan) are refused; a finite bound beyond one
    # rank's window only empties that rank.
    if not (lo <= hi and lo < math.inf and hi > -math.inf):
        raise ValueError(f"empty orientation: lower bound {lo} > upper bound {hi}")
    # Offsets from the shift: no shift can round a rank's window away.
    offsets = [(-float(n) if lo == -math.inf else lo - shift,
                float(n) if hi == math.inf else hi - shift) for n in ranks]
    if isinstance(vf, DiracKernel):
        return _profile_integrals(vf, ranks, shift, weights, factor,
                                  [n * da for n, (da, _db) in zip(ranks, offsets)],
                                  [n * db for n, (_da, db) in zip(ranks, offsets)])
    if isinstance(vf, Composite):
        if shift:
            raise ValueError(f"a composite takes no shift (shift {shift:g})")
        return _substituted(vf, ranks, offsets, weights, factor)
    if shift:
        vf = vf.translate(shift)
    blocks = [_panel_rows(vf, n, i, *_octaves(vf, n, shift, shift + da, shift + db))
              for i, (n, (da, db)) in enumerate(zip(ranks, offsets))]
    return _execute((ranks, [b for b in blocks if b]), weights, factor)


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
    floats or elementwise on arrays: both finite, and within quad's own
    target of each other, or within its rounding floor relative to a finite
    `resabs`, the integral of |integrand| (where quad stops with a roundoff
    warning).  Operators only: on floats, numpy calls would add a tenth to
    a profile rank's cost.  Call it under np.errstate(all="ignore")."""
    total, diff, floor = coarse + fine, abs(fine - coarse), 50.0 * _EPS * resabs
    # t - t is 0 where t is finite: the two rules' sum, and the floor.
    return (total - total == 0) & ((diff <= _QUAD_OPTS["epsabs"])
                                   | (diff <= _QUAD_OPTS["epsrel"] * abs(fine))
                                   | (diff <= floor) & (floor - floor == 0))


def _rule_sums(values, w_coarse, w_fine, rows, scale=1.0, magnitude=None):
    """Both fixed rules on `values`, a stack of integrands, one per weight,
    each summed per row as one matmul of a (1, node) row and a (node, 1)
    rule, the bits of the row alone, times that row's `scale`: (weight,
    row) arrays of the coarse rule's, the fine rule's and the fine rule's
    on |magnitude| (default: |values|), the three that `_accepted` takes.
    A row is a panel where an integrand is laid out as _panel_rules lays
    out its nodes, or a row of a 2-D integrand.  Call it under
    np.errstate(all="ignore")."""
    m = w_coarse.size
    magnitude = values if magnitude is None else magnitude
    pairs = ((w_coarse, values[..., :m]), (w_fine, values[..., m:]),
             (w_fine, np.abs(magnitude[..., m:])))
    sums = []
    for w, v in pairs:
        v = v.reshape(len(v), rows, 1, -1)
        sums.append((v @ w.reshape(-1, v.shape[-1], 1))[..., 0, 0] * scale)
    return sums


def _weigh(weights, x):
    """`weights` (None for 1) on the nodes x: a (weight, *x.shape) stack."""
    rows = [np.ones_like(x) if w is None else array_values(w, x) for w in weights]
    return rows[0][None] if len(rows) == 1 else np.stack(rows)


#: Weights a fixed rule takes at a time: their integrands stay in cache.
_CHUNK = 4
_last_stack = [None, None]  # (key, values): the last stack of several weights evaluated


def _execute(plan, weights, factor=None):
    """The rank integrals of `plan`, (ranks, blocks), for each of `weights`
    times `factor` (callables, None for 1): a list per weight.  A block (x,
    factor, rules, scale, rank of each row, anchored, inner, fallback) is
    rows of nodes x, a row per rank or composite piece on _fixed_nodes or
    one rank's panels by _panel_rules, then the shift a if `anchored` (f w
    there is subtracted) or `inner` cuts; its factor is p(u), p(u)/|g'(x(u))|
    or f_n(x), its scale each row's n^k.  A weight is evaluated once a block
    (`_weigh`; a stack of several is kept for the other side of an
    equivalence), and both rules summed per row, _CHUNK weights at a time.
    Here alone a rejected row, or a value at an inner cut that is not
    finite, is decided: nan in a stack (`reductions` takes that weight
    alone); for one weight, fallback(row, w, sums), the first to fail
    raising.  A rank sums its rows from 0, in the order of the blocks."""
    ranks, blocks = plan
    if len(weights) == 1 and factor is not None:  # one weight: as RealFunction.times
        weights, factor = [factor if weights[0] is None else
                           lambda x, f=factor, w=weights[0]: f(x) * w(x)], None
    rows, sums = [[[] for _ in ranks] for _ in weights], []
    for i, (x, pf, rules, scale, rank_of, anchored, inner, fallback) in enumerate(blocks):
        m = rules[0].size + rules[1].size
        key = len(weights) > 1 and (x.tobytes(), tuple(weights))
        with np.errstate(all="ignore"):
            hit = key and _last_stack[0] == key  # read once, by the other side, then freed
            wv = _last_stack[1] if hit else _weigh(weights, x)
            if key:
                _last_stack[:] = (None, None) if hit else (key, wv)
            fv = None if factor is None else array_values(factor, x)
            for c in range(0, len(weights), _CHUNK):
                chunk = wv[c:c + _CHUNK] if fv is None else fv * wv[c:c + _CHUNK]
                values = magnitude = pf * chunk[..., :pf.shape[-1]]
                if anchored:
                    values = pf * (chunk[..., :m] - chunk[..., m:])
                s = _rule_sums(values[..., :m], *rules, len(rank_of), scale, magnitude[..., :m])
                sums += [(i, j, row, zip(x[m:].tolist(), values[j - c, m:].tolist()) if inner
                          else ()) for j, row in enumerate(zip(*(t.tolist() for t in s)), c)]
    for i, j, row, cuts in sums:
        *_, rank_of, _anchored, _inner, fallback = blocks[i]
        bad = next((f"the integrand is {v} at the cut x={t:g}" for t, v in cuts
                    if not math.isfinite(v)), None)
        for r, row_sums in enumerate(zip(*row)):
            v = row_sums[1]
            if bad or not _accepted(*row_sums):
                if len(weights) > 1:
                    v = math.nan
                elif bad:
                    n = ranks[rank_of[r]]
                    raise QuadratureError(f"at rank n={n}, {bad}", rank=n)
                else:
                    v = fallback(r, weights[j], row_sums)
            rows[j][rank_of[r]].append(v)
    return [[sum(r, 0.0) for r in rank_rows] for rank_rows in rows]


def _scale(n, k):
    """n^k as a float, inf above the float range, where the rank diverges."""
    try:
        return float(n ** k)
    except OverflowError:
        return math.inf


#: Levels of halving, and panels halved at most at one level, that the
#: adaptive rule may take before adaptive quad decides.
_REFINE_LEVELS, _REFINE_PANELS = 12, 16


def _refined(f, lo, hi, points, first=None):
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
    at `points`, decides.  `first`, the panels' three sums, is the first level."""
    a, b = float(lo[0]), float(hi[-1])
    kept = [[], [], []]  # fine sums, differences, |integrand| sums of kept panels
    for _level in range(_REFINE_LEVELS):
        if first is None:
            x, w_coarse, w_fine = _panel_rules(lo, hi)
            with np.errstate(all="ignore"):
                first = (s[0].tolist() for s in _rule_sums(
                    array_values(f, x)[None], w_coarse, w_fine, lo.size))
        (coarse, fine, resabs), first = first, None
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


def _panel_rows(vf, n, i, panels, inner=()):
    """The block of vf's rank-n x panels (rank index i), or None: f_n on their
    nodes and `inner` cuts, and `_refined` from a rejected panel's sums."""
    if not panels:
        return None
    lo, hi = np.array(panels).T
    x, w_coarse, w_fine = _panel_rules(lo, hi)
    nodes = np.concatenate((x, inner))
    with np.errstate(all="ignore"):
        fn = array_values(lambda t: vf.rank_eval(n, t), nodes)

    def fallback(r, w, sums):
        f = lambda t: vf.rank_eval(n, t) * (1.0 if w is None else w(t))
        return _refined(f, lo[r:r + 1], hi[r:r + 1], None, [[s] for s in sums])

    return nodes, fn, (w_coarse, w_fine), 1.0, [i] * len(panels), False, len(inner), fallback


def _profile_rows(d, ranks, a, rows, ulo, uhi):
    """The block of d's rows x = a + u/n, n = ranks[i] for i in `rows`, on
    _fixed_nodes of [ulo, uhi]; the adaptive rule (`_refined`) on n^k p(u)
    w(a + u/n) for a rejected one.  On the whole support p = p0^(k), k >= 1,
    integrates to 0, so w(a) is subtracted: no n^k growth of the rounding."""
    k, prof, ns = d.order, d.profile, [ranks[i] for i in rows]
    cuts, anchored = _cuts(d, ulo, uhi), k > 0 and (ulo, uhi) == d.profile_support
    u, w_coarse, w_fine = _fixed_nodes(cuts)
    x = a + u / np.array(ns, dtype=float)[:, None]
    if anchored:
        x = np.concatenate((x, np.full((len(x), 1), a)), axis=1)

    def fallback(r, w, _sums):
        n, scale = ns[r], _scale(ns[r], k)
        g = lambda u: scale * prof(u) * (1.0 if w is None else w(a + u / n))
        try:
            return _refined(g, np.array(cuts[:-1]), np.array(cuts[1:]), [0.0])
        except QuadratureError as exc:
            raise QuadratureError(f"at rank n={n}, kernel {d.name!r} of order {k}: {exc}",
                                  rank=n, diagnostics=exc.diagnostics) from exc

    return (x, _profile_on_nodes(prof, cuts), (w_coarse, w_fine), [_scale(n, k) for n in ns],
            rows, anchored, 0, fallback)


def profile_integral(d, ranks, a, weight, ulo=-math.inf, uhi=math.inf):
    """`_profile_integrals` of one weight: one integral per rank."""
    return _profile_integrals(d, ranks, a, [weight], None, ulo, uhi)[0]


def _profile_integrals(d, ranks, a, weights, factor=None, ulo=-math.inf, uhi=math.inf):
    """Rank-n integrals of d_n(x - a) factor(x) w(x) for the profile kernel
    d, for each w of `weights` (`_rank_integrals`), per rank n of `ranks`.

    With u = n(x - a) each is n^k * integral of p(u) w(a + u/n) over the
    profile support cut to [ulo, uhi] (floats, or one per rank), where p is
    d's order-k profile, so the nodes depend on neither n nor w: the ranks
    that share their cut support are one block (`_profile_rows`) of the
    plan.  The first rank where w would be read at one point and a
    derivative kernel give 0 is refused, after the ranks below it."""
    plo, phi = d.profile_support
    ulo, uhi = ([b] * len(ranks) if np.ndim(b) == 0 else b for b in (ulo, uhi))
    bounds = [(max(plo, lo), min(phi, hi)) for lo, hi in zip(ulo, uhi)]
    refused = next((i for i, (n, (lo, hi)) in enumerate(zip(ranks, bounds))
                    if lo < hi and d.order and (factor, *weights) != (None, None)
                    and a + lo / n == a + hi / n), len(ranks))
    groups = {}
    for i in range(refused):
        if bounds[i][0] < bounds[i][1]:
            groups.setdefault(bounds[i], []).append(i)
    values = _execute((ranks, [_profile_rows(d, ranks, a, rows, lo, hi)
                               for (lo, hi), rows in groups.items()]), weights, factor)
    if refused < len(ranks):
        raise QuadratureError(f"at rank n={ranks[refused]}, every node a + u/n of a derivative "
                              f"kernel rounds to its shift a={a:g}", rank=ranks[refused])
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
    as in `reduce_integral`; `_rank_integrals` takes a profile kernel in
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


def delta_integral(d, k, lo, hi, ranks, weights, a, factor=None):
    """Rank-n integrals of d_n^(k)(x - a) F(x) over [lo, hi], F = factor * w
    for each w of `weights` (RealFunctions or None, 1), per rank n of
    `ranks`.  Where `by_parts`, (-1)^k times the order-0 integral of
    d_n(x - a) F^(k)(x), plus sum_{j<k} (-1)^j [d_n^(k-1-j)(x - a) F^(j)(x)]
    at each finite bound inside supp d_n(x - a), with no n^k; else d's
    order-k derivative (d, any virtual function, at k = 0) as it is."""
    if not k:  # nothing is taken by parts
        return _rank_integrals(d, lo, hi, ranks, [getattr(w, "fn", None) for w in weights], a,
                               getattr(factor, "fn", None))
    Fs = [w if factor is None else factor if w is None else factor.times(w) for w in weights]
    out, plain = {}, [j for j, F in enumerate(Fs) if not by_parts(d, k, F)]
    if plain:
        out.update(zip(plain, _rank_integrals(d.derivative(k), lo, hi, ranks, [
            getattr(weights[j], "fn", None) for j in plain], a, getattr(factor, "fn", None))))
    parted = [j for j in range(len(weights)) if j not in plain]
    # F = 1 has F^(k) = 0.
    dks = [np.zeros_like if Fs[j] is None else Fs[j].derivative(k).fn for j in parted]
    for j, values in zip(parted, _rank_integrals(d, lo, hi, ranks, dks, a) if dks else ()):
        F = (lambda i, _x: float(i == 0)) if Fs[j] is None else Fs[j].deriv_value
        plo, phi = d.profile_support
        # (-1)^k * 0.0 + 0.0 is 0.0, not -0.0.
        values = out[j] = [(-1.0) ** k * v + 0.0 for v in values]
        for i, n in enumerate(ranks):
            for x, side in ((lo, -1.0), (hi, 1.0)):
                u = n * (x - a)  # +-inf at an infinite bound
                if plo < u < phi:
                    values[i] += side * sum((-1.0) ** m * _scale(n, d.order + k - m)
                                            * d.derivative(k - 1 - m).profile(u) * F(m, x)
                                            for m in range(k))
    return [out[j] for j in range(len(weights))]


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
                for total, part in zip(sums, _rule_sums(values[None], w_coarse, w_fine,
                                                        r.size, h)):
                    total += np.bincount(r, part[0], flat.size)
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
    (`_substitution`), its pieces in u and each rank's x panels, cached by
    value for the weights of one reduction."""

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
    g: groups (cuts, rows, x, jac) of the pieces taken in u = n g(x), a row
    (rank index, piece index) per rank and piece of [a, b], with x(u) and
    1/|g'(x(u))| on _fixed_nodes(cuts); and each rank's x panels (`_panels`)
    of the rest, on their exact ends (`_exact_spans`).  A rank past an
    outside_scan_risk window edge is refused if the values g may take there
    (cert.edges) enter or leave supp(d_n); where g at the edge lies inside
    it, the outer piece reaches on to the bound.  In u the integral is n^k
    that of p(u) w(x(u)) / |g'(x(u))|: a piece is taken so if it holds a
    root of a certificate that is not violated, g has a symbolic g', n g at
    both of its ends lies outside the profile support on the side of its
    sign, and every x(u) converges inside it (`_solve`, in batches of at
    most _BATCH nodes).  Each piece is decided once, on the ends the plan
    starts with: the scan's grid-level `splits`, or its exact `pieces`
    where a split's grid bracket holds a root or a bound.  The grid-level
    end of a piece taken in u is no farther out in g than the exact one, so
    the same pieces pass on either, with the same u range and nodes."""
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
            x_rows.append((j, k))

    out = []
    for cuts, members in groups.items():
        size = max(1, _BATCH // _fixed_nodes(cuts)[0].size)
        for batch in (members[i:i + size] for i in range(0, len(members), size)):
            x, jac, good = _nodes(g, s.fn, key, cuts, [(row[0], rec, p, q)
                                                       for rec, p, q, row in batch])
            x_rows += [row for (*_, row), ok in zip(batch, good) if not ok]
            if any(good):
                out.append((cuts, tuple(row for (*_, row), ok in zip(batch, good) if ok),
                            x[good], jac[good]))
    return tuple(out), tuple(map(tuple, _panels(d, s.fn, key, _exact_spans(d, s, key, x_rows))))


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


def _substituted(vf, ranks, bounds, weights, factor=None):
    """The rank integrals of the Composite vf over each rank's bounds (a, b)
    for each of `weights` on its plan (vf.nodes): each rank's x panels, then
    its pieces in u, each of which the fixed rules reject taken in x on its
    exact ends."""
    key = tuple((n, a, b) for n, (a, b) in zip(ranks, bounds))
    groups, panels = vf.nodes(key)
    d, s = vf.kernel, vf.scan

    def in_x(rows, r, w, _sums):  # a rejected piece, in x as a one-rank plan
        j = rows[r][0]
        block = _panel_rows(vf, ranks[j], 0, _panels(
            d, s.fn, key, _exact_spans(d, s, key, rows[r:r + 1]))[j])
        return _execute(((ranks[j],), [block]), [w])[0][0]

    blocks = [b for j, ps in enumerate(panels) if (b := _panel_rows(vf, ranks[j], j, ps))]
    with np.errstate(all="ignore"):
        blocks += [(x, _profile_on_nodes(d.profile, cuts) * jac, _fixed_nodes(cuts)[1:],
                    [_scale(ranks[j], d.order) for j, _k in rows], [j for j, _k in rows], False,
                    0, functools.partial(in_x, rows)) for cuts, rows, x, jac in groups]
    return _execute((ranks, blocks), weights, factor)
