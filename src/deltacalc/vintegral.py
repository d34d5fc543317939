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

from .errors import QuadratureError, SmoothnessError
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
    """Incrementally evaluate I_n over the schedule with early stopping.

    Once _MIN_PROBES or more probes agree under extrapolation the remaining
    (costlier, higher-rank) quadratures are skipped; divergent-looking
    prefixes always run the full schedule so the power-law certification
    sees every probe.
    """
    values = []
    for i, n in enumerate(schedule):
        values.append(value_fn(n))
        if i + 1 >= _MIN_PROBES or i + 1 == len(schedule):
            lim = extract_limit(values, schedule[:i + 1], tol=tol)
            if lim is not None:
                return IntegralResult("reduced", value=float(lim[0]),
                                      error_estimate=float(lim[1]),
                                      rank_values=tuple(zip(schedule, values)))
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


def integrate_rank(vf, lo, hi, n, weight=None, shift=0.0):
    """Rank-n integral of f_n(x - shift) * weight(x) over [lo, hi].

    This is the one place that realises an infinite bound, as the offset
    -/+ n from the shift, so a kernel's support lies inside the bounds at
    every shift, and the one place that picks how a rank integral is
    taken: a profile kernel in
    u = n(x - shift) (`profile_integral`), a composite region by region
    (`_regions_integral`), any other virtual function by adaptive quad over
    its declared support, with a discontinuous function's support edges as
    split points."""
    # Reversed bounds (or nan) are refused; a finite bound beyond one
    # rank's window only empties that rank.
    if not (lo <= hi and lo < math.inf and hi > -math.inf):
        raise ValueError(f"empty orientation: lower bound {lo} > upper bound {hi}")
    # Offsets from the shift: no shift can round a rank's window away.
    da = -float(n) if lo == -math.inf else lo - shift
    db = float(n) if hi == math.inf else hi - shift
    if da > db:
        return 0.0
    if isinstance(vf, DiracKernel):
        return profile_integral(vf, n, shift, weight, n * da, n * db)
    a, b = shift + da, shift + db
    if shift:
        vf = vf.translate(shift)

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


def _rule_pair(values, w_coarse, w_fine, rows=1, scale=1.0, magnitude=None):
    """Both fixed rules on `values`, laid out as _panel_rules lays out its
    nodes, each summed per row of panels as a dot product times `scale`:
    lists of the fine rule's sums and of whether each is `_accepted` (none
    is where `values` is None), with the rounding floor taken from
    |magnitude| (default: |values|).  Call it under np.errstate(all="ignore")."""
    if values is None:
        return [0.0] * rows, [False] * rows
    m = w_coarse.size
    magnitude = values if magnitude is None else magnitude
    pairs = ((w_coarse, values[:m]), (w_fine, values[m:]),
             (w_fine, np.abs(magnitude[m:])))
    sums = [[scale * s for s in (v.reshape(rows, 1, -1) @ w.reshape(rows, -1, 1))
             .ravel().tolist()] for w, v in pairs]
    return sums[1], [_accepted(*row) for row in zip(*sums)]


def _fixed_rule(d, n, a, weight, ulo, uhi):
    """n^k * integral of p(u) w(a + u/n) over [ulo, uhi] on fixed nodes, or
    None where adaptive quadrature must decide: the two rules disagree,
    the profile or weight takes no array, or a value is not finite."""
    plo, phi = d.profile_support
    k = d.order
    # Over the whole support the integral of p = p0^(k), k >= 1, is 0, so
    # w(a) may be subtracted: that removes the n^k growth of the rounding.
    cancel = k > 0 and (ulo, uhi) == (plo, phi)
    if cancel and weight is None:
        return 0.0
    cuts = (ulo, *(c for c in d.profile_cuts if ulo < c < uhi), uhi)
    u, w_coarse, w_fine = _fixed_nodes(cuts)
    x = a + u / n
    if cancel:
        x = np.append(x, a)
    p = _profile_on_nodes(d.profile, cuts)
    with np.errstate(all="ignore"):
        wv = np.ones_like(x) if weight is None else array_values(weight, x)
        if p is None or wv is None:
            return None
        w_at_a = wv[-1] if cancel else 0.0
        wv = wv[:u.size]
        # quad's integrand is p * w: the rounding of w counts in full.
        fine, ok = _rule_pair(p * (wv - w_at_a), w_coarse, w_fine, scale=n ** k,
                              magnitude=p * wv)
        return fine[0] if ok[0] else None


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


def profile_integral(d, n, a, weight, ulo=-math.inf, uhi=math.inf):
    """Rank-n integral of d_n(x - a) w(x) for the profile kernel d.

    With u = n(x - a) it is n^k * integral of p(u) w(a + u/n) over the
    profile support cut to [ulo, uhi], where p is d's order-k profile, so
    the quadrature nodes depend on neither n nor w.  Two Gauss-Legendre
    rules on the panels between d.profile_cuts (u = 0, the middle of the
    support) are evaluated in one array call; when they disagree, or w
    takes no array, adaptive quad decides.  `weight` None integrates the
    kernel alone.
    """
    plo, phi = d.profile_support
    ulo, uhi = max(plo, ulo), min(phi, uhi)
    if uhi <= ulo:
        return 0.0
    if d.order and weight is not None and a + ulo / n == a + uhi / n:
        # w would be read at one point, and a derivative kernel give 0.
        raise QuadratureError(f"at rank n={n}, every node a + u/n of a derivative "
                              f"kernel rounds to its shift a={a:g}", rank=n)
    value = _fixed_rule(d, n, a, weight, ulo, uhi)
    if value is not None:
        return value
    prof, scale = d.profile, n ** d.order
    g = lambda u: scale * prof(u) * (1.0 if weight is None else weight(a + u / n))
    return _quad_piece(g, ulo, uhi, points=[0.0])


def reduce_integral(vf, lo=-math.inf, hi=math.inf, schedule=DEFAULT_SCHEDULE,
                    tol=1e-9, weight=None):
    """Compute the rank sequence I_n and reduce it to an IntegralResult."""
    schedule = list(schedule)
    return reduce_sequence(
        schedule, lambda n: integrate_rank(vf, lo, hi, n, weight=weight), tol)


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
        list(schedule), lambda n: integrate_rank(d, -math.inf, math.inf, n, fn, a), tol)


def sift_derivative(d, k, f, a=0.0, schedule=SHORT_SCHEDULE, tol=1e-9):
    """Reduce the integral of d_n^{(k)}(x - a) f(x) = (-1)^k f^{(k)}(a).

    Requires a profile kernel whose profile has a k-th derivative and a
    k-times differentiable f.  The default schedule stops at moderate
    ranks: the integrand magnitude grows like n^k and higher ranks lose the
    O(1) answer to cancellation.
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
    return sift(dk, f, a=a, schedule=schedule, tol=tol)


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
# Composition d(g(x)) with nonzero-region tracking
# ---------------------------------------------------------------------------

def compose(d, g, window=WINDOW):
    """The composite virtual function x -> d_n(g(x)).

    Its per-rank nonzero set {x : g(x) in supp(d_n)} is read off the scan of
    g over `window` (roots.Scan.regions), once per rank and bounds; it
    probes around the near-zero seeds of g, so the integrator never misses
    the shrinking regions around roots.
    """
    if not d.has_support:
        raise ValueError("compose requires a kernel with declared support")
    s = scan(g, window)

    @functools.lru_cache(maxsize=64)
    def regions(n, a, b):
        return s.regions(a, b, d.support_interval(n))

    return VirtualFunction(
        lambda n, x, d=d, gfn=s.fn: d.rank_eval(n, gfn(x)),
        smoothness=min(d.smoothness, getattr(g, "smoothness", C_INF)),
        regions=regions,
        label=f"{getattr(d, 'name', d.label)}({getattr(g, 'label', 'g')})",
    )
