"""The reduced-integral engine.

Virtual integrals are realized per rank (bounds are floats; in
`integrate_rank` alone an infinite bound becomes shift -/+ n), the rank
sequence I_n is recorded, and the result is either a real limit
("reduced"), a certified power-law divergence ("irreducible"), or
Undetermined.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DeltaCalcError, QuadratureError, SmoothnessError
from .limits import (
    DEFAULT_SCHEDULE,
    SHORT_SCHEDULE,
    extract_limit,
    power_law_exponent,
)
from .roots import WINDOW, scan
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
    "reduce_integral",
    "sift",
    "sift_derivative",
    "derivative_schedule",
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
    rank.  Once the probes agree under extrapolation the remaining
    (costlier, higher-rank) quadratures are skipped; divergent-looking
    prefixes always run the full schedule so the power-law certification
    sees every probe.
    """
    values = list(value_fn(tuple(schedule[:_MIN_PROBES])))
    while True:
        lim = extract_limit(values, schedule[:len(values)], tol=tol)
        if lim is not None:
            return IntegralResult("reduced", value=float(lim[0]),
                                  error_estimate=float(lim[1]),
                                  rank_values=tuple(zip(schedule, values)))
        if len(values) == len(schedule):
            break
        values.extend(value_fn((schedule[len(values)],)))
    pairs = tuple(zip(schedule, values))
    fit = power_law_exponent(schedule, values)
    if fit is None:
        return IntegralResult("undetermined", rank_values=pairs)
    p, _r2, sign = fit
    return IntegralResult("irreducible", exponent=p, sign=sign, rank_values=pairs)


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
    if b <= a:
        return 0.0
    from scipy.integrate import IntegrationWarning

    try:
        with warnings.catch_warnings():
            # Roundoff warnings are routine for near-zero integrands at the
            # requested absolute tolerance; the limit extractor sees the
            # noise anyway.
            warnings.simplefilter("ignore", IntegrationWarning)
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
    (`profile_integral`), a composite d_n(g(x)) in u = n g(x) at the roots
    of g, all ranks at once (`_substituted`), and region by region
    (`_regions_integral`) at a rank the substitution does not take, any
    other virtual function by adaptive quad over its declared support, with
    a discontinuous function's support edges as split points.  The ranks
    are taken in order: the lowest that fails raises its error."""
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
    if shift:
        vf = vf.translate(shift)
    bounds = [(shift + da, shift + db) for da, db in offsets]
    values = (_substituted(vf, ranks, bounds, weight) if isinstance(vf, Composite)
              else [None] * len(ranks))
    return [v if v is not None else 0.0 if a > b else _rank_quad(vf, n, a, b, weight)
            for n, (a, b), v in zip(ranks, bounds, values)]


def _rank_quad(vf, n, a, b, weight):
    """The rank-n integral of f_n * weight over [a, b] for a virtual function
    that is not a profile kernel."""
    f = lambda x: vf.rank_eval(n, x) * (1.0 if weight is None else weight(x))

    if vf.regions is not None:
        pieces = [(max(a, rlo), min(b, rhi)) for rlo, rhi in vf.regions(n, a, b)]
        return _regions_integral(vf, n, weight, f, [(p, q) for p, q in pieces if p < q])

    iv = vf.support_interval(n)
    if iv is None:
        return _quad_piece(f, a, b)
    # Edges of a discontinuous kernel's support must be split points.
    return _quad_piece(f, max(a, iv[0]), min(b, iv[1]),
                       points=list(iv) if vf.smoothness < 0 else None)


#: Gauss-Legendre nodes per panel of the two fixed rules whose agreement
#: accepts a profile-kernel rank integral or a composite region's integral.
_FIXED_NODES = (128, 256)


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
    """The profile on _fixed_nodes(cuts), or None where it takes no array;
    read-only, shared by every rank and weight.  The cache holds its key
    profiles, so no other profile can take their values."""
    with np.errstate(all="ignore"):
        p = array_values(profile.fn, _fixed_nodes(cuts)[0])
    if p is not None:
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


def _rule_pair(values, w_coarse, w_fine, rows=1, scale=None, magnitude=None):
    """Both fixed rules on `values`, each summed per row as a dot product
    times that row's `scale` (default 1): lists of the fine rule's sums and
    of whether each is `_accepted` (none is where `values` is None), with
    the rounding floor taken from |magnitude| (default: |values|).  A row is
    a panel where `values` is laid out as _panel_rules lays out its nodes,
    or a row of a 2-D `values`, each row all of the rules' nodes.  Call it
    under np.errstate(all="ignore")."""
    if values is None:
        return [0.0] * rows, [False] * rows
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
    return sums[1], [_accepted(*row) for row in zip(*sums)]


def _u_rule(d, cuts, x, scale, weight, jac=None, anchor=None):
    """n^k * integral of p(u) jac(u) w(x(u)) du on _fixed_nodes(cuts), p d's
    order-k profile and jac None 1, for each row of nodes x(u) and its n^k
    in `scale`: the fine rule's value, None where adaptive quadrature must
    decide (the rules disagree, p or w takes no array, or a value is not
    finite).  `anchor` a subtracts w(a) from w; the rounding floor stays
    that of p * jac * w."""
    u, w_coarse, w_fine = _fixed_nodes(cuts)
    p = _profile_on_nodes(d.profile, cuts)
    if anchor is not None:
        x = np.concatenate((x, np.full((len(x), 1), anchor)), axis=1)
    with np.errstate(all="ignore"):
        wv = np.ones_like(x) if weight is None else array_values(weight, x.ravel())
        if p is None or wv is None:
            return [None] * len(x)
        wv = wv.reshape(x.shape)
        pj = p if jac is None else p * jac
        values = magnitude = pj * wv[:, :u.size]
        if anchor is not None:
            values = pj * (wv[:, :u.size] - wv[:, -1:])
        fine, ok = _rule_pair(values, w_coarse, w_fine, rows=len(x), scale=scale,
                              magnitude=magnitude)
    return [v if good else None for v, good in zip(fine, ok)]


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
    if cancel and weight is None:
        return [0.0] * len(ranks)
    cuts = _cuts(d, ulo, uhi)
    x = a + _fixed_nodes(cuts)[0] / np.array(ranks, dtype=float)[:, None]
    return _u_rule(d, cuts, x, [_scale(n, k) for n in ranks], weight,
                   anchor=a if cancel else None)


def _regions_integral(vf, n, weight, f, pieces):
    """The integral of f = f_n * weight over the disjoint intervals `pieces`.

    Both fixed rules are mapped onto every piece, and f_n and the weight
    are each evaluated once, in one array call on all the nodes.  A piece
    whose two rules disagree, or give a value that is not finite, goes to
    adaptive quad, as does every piece where f_n or the weight takes no
    array.
    """
    if not pieces:
        return 0.0
    x, w_coarse, w_fine = _panel_rules(*np.array(pieces).T)
    with np.errstate(all="ignore"):
        values = array_values(functools.partial(vf.rank_eval, n), x)
        if values is not None and weight is not None:
            wv = array_values(weight, x)
            values = None if wv is None else values * wv
        fine, accepted = _rule_pair(values, w_coarse, w_fine, rows=len(pieces))
    return sum(v if ok else _quad_piece(f, p, q)
               for v, ok, (p, q) in zip(fine, accepted, pieces))


def profile_integral(d, ranks, a, weight, ulo=-math.inf, uhi=math.inf):
    """Rank-n integrals of d_n(x - a) w(x) for the profile kernel d, one per
    rank n of the tuple `ranks`.

    With u = n(x - a) each is n^k * integral of p(u) w(a + u/n) over the
    profile support cut to [ulo, uhi] (floats, or one per rank), where p is
    d's order-k profile, so the quadrature nodes depend on neither n nor w.
    Two Gauss-Legendre rules on the panels between d.profile_cuts (u = 0,
    the middle of the support) are evaluated in one array call for all the
    ranks that share their cut support; where they disagree, or w takes no
    array, adaptive quad decides that rank.  The ranks are taken in order:
    the lowest that fails raises its error.  `weight` None integrates the
    kernel alone.
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
            prof, scale = d.profile, _scale(n, d.order)
            g = lambda u: scale * prof(u) * (1.0 if weight is None else weight(a + u / n))
            try:
                values.append(_quad_piece(g, lo, hi, points=[0.0]))
            except QuadratureError as exc:
                raise QuadratureError(f"at rank n={n}, kernel {d.name!r} of order {d.order}: "
                                      f"{exc}", rank=n, diagnostics=exc.diagnostics) from exc
    return values


def reduce_integral(vf, lo=-math.inf, hi=math.inf, schedule=DEFAULT_SCHEDULE,
                    tol=1e-9, weight=None):
    """Compute the rank sequence I_n and reduce it to an IntegralResult."""
    schedule = list(schedule)
    return reduce_sequence(
        schedule, lambda ranks: integrate_rank(vf, lo, hi, ranks, weight=weight), tol)


# ---------------------------------------------------------------------------
# Sifting
# ---------------------------------------------------------------------------

def sift(d, f, a=0.0, schedule=DEFAULT_SCHEDULE, tol=1e-9):
    """Reduce the integral of d_n(x - a) f(x) over the whole line; equals
    f(a) for valid inputs.  `integrate_rank` takes a profile kernel in
    u = n(x - a).
    """
    a = float(a)
    fn = f.fn if isinstance(f, RealFunction) else f
    return reduce_sequence(
        list(schedule),
        lambda ranks: integrate_rank(d, -math.inf, math.inf, ranks, fn, a), tol)


def derivative_schedule(schedule, k):
    """The ranks of `schedule` that a delta derivative of order k may use:
    n <= 2^max(8, 14 - 2k) for k >= 1, every rank for k = 0.  Higher ranks
    lose too many digits: the integrand grows like n^k.  Far enough above
    the cap, a + u/n rounds to a and every I_n reads 0: refuse instead."""
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


def sift_derivative(d, k, f, a=0.0, schedule=SHORT_SCHEDULE, tol=1e-9):
    """Reduce the integral of d_n^{(k)}(x - a) f(x) = (-1)^k f^{(k)}(a).

    Requires a profile kernel whose profile has a k-th derivative and a
    k-times differentiable f.  The schedule is capped by
    `derivative_schedule`, as for a delta derivative in an expression.
    """
    k = int(k)
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    if not isinstance(d, DiracKernel):
        raise TypeError("sift_derivative requires a profile-based Dirac kernel")
    dk = d.derivative(k)
    if isinstance(f, RealFunction) and f.smoothness != C_INF and f.smoothness < k:
        raise SmoothnessError(
            f"test function {f.label!r} is only C^{f.smoothness}, "
            f"needs C^{k} around a={a:g}"
        )
    return sift(dk, f, a=a, schedule=derivative_schedule(schedule, k), tol=tol)


# ---------------------------------------------------------------------------
# Convolution (contraction)
# ---------------------------------------------------------------------------

#: The convolution table's first and largest grid, its spline tolerance, and
#: the grid points per array call (~3 MB an array at 384 nodes a point).
_CONV_START, _CONV_MAX_POINTS, _CONV_TOL, _CONV_CHUNK = 513, 16385, 1e-10, 1024


def _profile_convolution(p1, s1, p2, s2):
    """Tabulate (p1 * p2)(u) on its support and return a clamped spline.

    At each grid point u, the integral of p1(u - t) p2(t) over the t where
    it may be nonzero is taken on the fixed rules, in one array call per
    _CONV_CHUNK points, or by adaptive quad where they disagree.  The grid
    doubles until two refinements agree within _CONV_TOL at the coarser
    grid's nodes.
    """
    from scipy.interpolate import CubicSpline

    lo, hi = s1[0] + s2[0], s1[1] + s2[1]

    def conv_at(us):
        return [y for i in range(0, us.size, _CONV_CHUNK)
                for y in conv_chunk(us[i:i + _CONV_CHUNK])]

    def conv_chunk(us):
        t0 = np.maximum(s2[0], us - s1[1])
        t1 = np.maximum(t0, np.minimum(s2[1], us - s1[0]))
        t, w_coarse, w_fine = _panel_rules(t0, t1)
        u = np.concatenate([np.repeat(us, m) for m in _FIXED_NODES])
        with np.errstate(all="ignore"):
            v1, v2 = array_values(p1, u - t), array_values(p2, t)
            values = None if v1 is None or v2 is None else v1 * v2
            fine, accepted = _rule_pair(values, w_coarse, w_fine, rows=us.size)
        return [v if ok else _quad_piece(lambda t, c=c: p1(c - t) * p2(t), a, b)
                for v, ok, c, a, b in zip(fine, accepted, us, t0, t1)]

    n_pts = _CONV_START
    xs = np.linspace(lo, hi, n_pts)
    ys = np.array(conv_at(xs))
    while n_pts < _CONV_MAX_POINTS:
        n_new = 2 * n_pts - 1
        xs_new = np.linspace(lo, hi, n_new)
        ys_new = np.empty(n_new)
        ys_new[0::2] = ys
        ys_new[1::2] = conv_at(xs_new[1::2])
        spline_new = CubicSpline(xs_new, ys_new)
        spline_old = CubicSpline(xs, ys)
        probe = np.linspace(lo, hi, 4 * n_pts + 1)
        diff = float(np.max(np.abs(spline_new(probe) - spline_old(probe))))
        xs, ys, n_pts = xs_new, ys_new, n_new
        if diff <= _CONV_TOL:
            break
    spline = CubicSpline(xs, ys, bc_type="natural")

    def prof(u, spline=spline, lo=lo, hi=hi):
        u_arr = np.asarray(u, dtype=float)
        inside = (u_arr > lo) & (u_arr < hi)
        out = np.where(inside, np.maximum(spline(np.clip(u_arr, lo, hi)), 0.0), 0.0)
        if out.ndim == 0:
            return float(out)
        return out

    return prof, (lo, hi)


@functools.lru_cache(maxsize=16)
def _convolution(p1, s1, p2, s2):
    """The profile convolution table, cached by value: the cache holds its key
    profiles, so no other pair can take their table."""
    return _profile_convolution(p1.fn, s1, p2.fn, s2)


def convolve(d1, d2):
    """Contraction of two continuous profile kernels; a Dirac kernel again.

    The rank family is n * (p1 * p2)(n x): convolving n p1(n .) with
    n p2(n .) rescales the unit-rank profile convolution.  The support adds:
    eps_3 = eps_1 + eps_2.
    """
    for d in (d1, d2):
        if not isinstance(d, DiracKernel) or d.order:
            raise TypeError("convolve requires profile-based Dirac kernels")
        if d.smoothness < 0:
            raise SmoothnessError(
                f"kernel {d.name!r} is discontinuous; contraction requires "
                "continuous kernels"
            )
    prof_fn, support = _convolution(d1.profile, d1.profile_support,
                                    d2.profile, d2.profile_support)
    profile = RealFunction(prof_fn, smoothness=1,
                           label=f"conv[{d1.profile.label},{d2.profile.label}]")
    return DiracKernel(profile, support, "convolution",
                       params={"of": [d1.name, d2.name]})


# ---------------------------------------------------------------------------
# Composition d(g(x))
# ---------------------------------------------------------------------------

#: Steps a node x(u) of the substitution may take, and the step, in units
#: in the last place of max(|x|, 1), at or below which it has converged.
_SOLVE_STEPS, _SOLVE_ULPS = 16, 4
#: The most nodes solved in one batch (1 MB an array): a reduction's first
#: seven ranks at a few roots take one.
_BATCH = 2 ** 17


class Composite(VirtualFunction):
    """The composite virtual function x -> d_n(g(x)) that `compose` builds.

    `nodes(key)` holds, for the ranks (n, a, b) of `key`, the substitution
    u = n g(x) at each certified root of g (`_substitution`); `regions(n, a,
    b)` the nonzero set {x in [a, b] : g(x) in supp(d_n)}, read off the scan
    of g (roots.Scan.regions), for the ranks the substitution does not take.
    Both are cached by value, so the weights of one reduction share them.
    """

    def __init__(self, d, g, s):
        self.kernel, self.scan = d, s
        super().__init__(
            lambda n, x, d=d, gfn=s.fn: d.rank_eval(n, gfn(x)),
            smoothness=min(d.smoothness, getattr(g, "smoothness", C_INF)),
            regions=functools.lru_cache(maxsize=64)(
                lambda n, a, b: s.regions(a, b, d.support_interval(n))),
            label=f"{getattr(d, 'name', d.label)}({getattr(g, 'label', 'g')})",
        )
        self.nodes = functools.lru_cache(maxsize=16)(
            functools.partial(_substitution, d, g, s))


def compose(d, g, window=WINDOW):
    """The composite virtual function x -> d_n(g(x)), with g scanned over
    `window`: see Composite."""
    if not d.has_support:
        raise ValueError("compose requires a kernel with declared support")
    return Composite(d, g, scan(g, window))


def _substitution(d, g, s, key):
    """The nodes of the rank integrals of d_n(g(x)) in u = n g(x), for the
    ranks (n, a, b) of the tuple `key`: whether each rank is taken so, and
    groups (cuts, ranks, x, jac) with one row of x(u) and of
    1/|g'(x(u))| per rank and root, on _fixed_nodes(cuts).

    On the certified monotone bracket around root a_i, the rank integral of
    d_n(g(x)) w(x) is n^k times that of p(u) w(x(u)) / |g'(x(u))| over the
    profile support, where g(x(u)) = u/n.  A rank is taken so where the
    certificate is not violated and either certified or [a, b] lies inside
    the scan window; g has a symbolic g'; supp(d_n) lies inside (-r, r), r
    the certificate's outer floor on [a, b], so that no region of [a, b]
    lies outside the brackets; at both ends of every bracket that meets
    [a, b], n g lies outside the profile support on the side of its sign;
    and every node x(u) converges inside its bracket (`_solve`).  A bound
    inside a bracket cuts that root's u-range at n g(bound).  The ranks and
    roots that share their cuts are solved in one batch of at most _BATCH
    nodes, and g' is called once on it.
    """
    ok = [False] * len(key)
    cert = s.certificate
    if not (isinstance(d, DiracKernel) and isinstance(g, RealFunction)
            and g.smoothness >= 1 and (g.nth_deriv is not None or g.derivs)
            and cert.verdict != "violated"):
        return tuple(ok), ()
    plo, phi = d.profile_support
    with np.errstate(all="ignore"):
        brackets = np.array([rec.bracket for rec in cert.roots]).reshape(-1, 2)
        ends = array_values(s.fn, brackets)
    if ends is None:
        return tuple(ok), ()
    ends = ends.tolist()

    def outside(v):
        return v >= phi if v > 0 else v <= plo

    groups = {}  # cuts -> [(rank index, root)]
    for j, (n, a, b) in enumerate(key):
        r = cert.floor(a, b)
        if not ((cert.certified or s.window[0] <= a and b <= s.window[1])
                and -r < plo / n and phi / n < r):
            continue
        rows = []
        for rec, (glo, ghi) in zip(cert.roots, ends):
            lo, hi = rec.bracket
            xl, xr = max(lo, a), min(hi, b)
            if xl >= xr:
                continue
            if not (glo * rec.g_prime < 0.0 < ghi * rec.g_prime
                    and outside(n * glo) and outside(n * ghi)):
                break
            glo = glo if xl == lo else float(s.fn(xl))
            ghi = ghi if xr == hi else float(s.fn(xr))
            ulo, uhi = max(plo, n * min(glo, ghi)), min(phi, n * max(glo, ghi))
            if ulo < uhi:
                rows.append((_cuts(d, ulo, uhi), j, rec))
        else:
            ok[j] = True
            for cuts, j, rec in rows:
                groups.setdefault(cuts, []).append((j, rec))

    out = []
    for cuts, rows in groups.items():
        size = max(1, _BATCH // _fixed_nodes(cuts)[0].size)
        for batch in (rows[i:i + size] for i in range(0, len(rows), size)):
            x, jac, good = _nodes(g, s.fn, key, cuts, batch)
            for (j, _rec), row_ok in zip(batch, good):
                ok[j] = ok[j] and row_ok
            keep = [ok[j] for j, _rec in batch]
            if any(keep):
                js = tuple(j for j, _rec in batch if ok[j])
                out.append((cuts, js, x[keep], jac[keep]))
    return tuple(ok), tuple(out)


def _nodes(g, fn, key, cuts, rows):
    """x(u) and 1/|g'(x(u))| on _fixed_nodes(cuts), one row per (rank index,
    root record) of `rows`, and whether each row's nodes all converged
    inside the root's bracket, where g' has the root's sign."""
    n, root, slope, lo, hi = np.array([(key[j][0], rec.a, rec.g_prime, *rec.bracket)
                                       for j, rec in rows]).T[..., None]
    t = _fixed_nodes(cuts)[0] / n
    x = _solve(fn, t, root + t / slope, slope)
    with np.errstate(all="ignore"):
        dg = array_values(g.derivative(1).fn, x.ravel())
        if dg is None:
            return x, x, [False] * len(rows)
        dg = dg.reshape(x.shape)
        jac = 1.0 / np.abs(dg)
        good = (lo <= x) & (x <= hi) & (dg * slope > 0.0) & (jac < math.inf)
    return x, jac, good.all(axis=1).tolist()


def _solve(fn, t, x, slope):
    """x where fn(x) = t, elementwise, from the first guess x: secant steps,
    the first a chord of `slope`, each secant's slope held within a factor
    of 2 of `slope`, where rounding makes a short secant's slope noise.  A
    node stops at its first step of at most _SOLVE_ULPS units in the last
    place of max(|x|, 1): an error that size moves no weight or slope
    beyond rounding.  A node that never stops, or every node where fn
    takes no array, is nan."""
    done = np.zeros(x.shape, dtype=bool)
    tol = _SOLVE_ULPS * _EPS * np.maximum(np.abs(x), 1.0)
    x0 = r0 = None
    with np.errstate(all="ignore"):
        for _ in range(_SOLVE_STEPS):
            fx = array_values(fn, x.ravel())
            if fx is None:
                break
            r = fx.reshape(x.shape) - t
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
    rank in u = n g(x) (vf.nodes), one per rank, None where the
    substitution does not take the rank or the two fixed rules disagree on
    one of its roots."""
    ok, groups = vf.nodes(tuple((n, a, b) for n, (a, b) in zip(ranks, bounds)))
    ok, parts = list(ok), [[] for _ in ranks]
    for cuts, js, x, jac in groups:
        scale = [_scale(ranks[j], vf.kernel.order) for j in js]
        for j, v in zip(js, _u_rule(vf.kernel, cuts, x, scale, weight, jac)):
            ok[j] = ok[j] and v is not None
            parts[j].append(v)
    return [sum(vs, 0.0) if good else None for vs, good in zip(parts, ok)]
