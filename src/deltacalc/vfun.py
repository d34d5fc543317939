"""Virtual functions and Dirac kernels.

A virtual function is a rank-indexed family of real functions f_n.  The
kernels built here are all of the self-similar form f_n(x) = n * p(n x)
for a fixed unit-rank profile p supported on a bounded interval; that makes
per-rank supports, derivatives and convolutions cheap to manipulate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ProfileOverflowError, SmoothnessError
from .limits import DEFAULT_SCHEDULE
from .vnum import NumberClass, VirtualNumber, classify, from_sequence

__all__ = [
    "RealFunction",
    "VirtualFunction",
    "DiracKernel",
    "DiracCertificate",
    "DiracFailure",
    "C_INF",
    "bump_delta",
    "square_delta",
    "shifted_delta",
    "mixture",
    "cauchy_psi",
    "point_altered_delta",
    "eval_at",
    "check_dirac",
    "kernel_to_json",
    "kernel_from_json",
    "BUMP_NORMALIZATION",
]

#: Smoothness marker for infinitely differentiable functions.
C_INF = math.inf

#: Marker for functions that are not even continuous.
DISCONTINUOUS = -1


# ---------------------------------------------------------------------------
# Real functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealFunction:
    """A real function together with optional analytic derivatives.

    `derivs` lists rules for f', f'', ... in order; `nth_deriv`, when set,
    maps every order k >= 1 to f^(k) and takes precedence.  `smoothness` is
    the declared class (math.inf for C-infinity, an integer k for C^k, -1
    for discontinuous).  Kernel profiles, compiled expressions and the test
    batteries accept a float or an ndarray of floats.
    """

    fn: object
    derivs: tuple = ()
    smoothness: float = C_INF
    label: str = ""
    nth_deriv: object = None

    def __call__(self, x):
        return self.fn(x)

    def derivative(self, k=1):
        """f^(k), decided here alone.  Past the declared smoothness it is
        refused; else it comes from `nth_deriv`, else from `derivs`.  One
        order past those it is one `difference` of the last, declared C^0
        so that no difference is taken of it; past that, refused."""
        if k == 0:
            return self
        name = self.label or "function"
        if self.smoothness < k:
            raise SmoothnessError(
                f"{name} is only C^{self.smoothness}, "
                f"cannot take derivative of order {k}"
            )
        new_smooth = self.smoothness - k
        label = f"{self.label}^({k})" if self.label else ""
        if self.nth_deriv is not None:
            return RealFunction(
                self.nth_deriv(k), smoothness=new_smooth, label=label,
                nth_deriv=lambda j, rule=self.nth_deriv, k=k: rule(k + j))
        given = len(self.derivs)
        if k <= given:
            return RealFunction(self.derivs[k - 1], derivs=self.derivs[k:],
                                smoothness=new_smooth, label=label)
        if k == given + 1:
            return RealFunction(difference(self.derivs[-1] if given else self.fn),
                                smoothness=0, label=label)
        raise SmoothnessError(
            f"{name} has derivatives to order {given} and one difference "
            f"reaches order {given + 1}, cannot take derivative of order {k}"
        )

    def deriv_value(self, k, x):
        return self.derivative(k)(x)

    @property
    def rule_order(self):
        """The highest order k with a rule for f^(k), never a `difference`."""
        return min(self.smoothness, C_INF if self.nth_deriv is not None else len(self.derivs))

    def times(self, other):
        """f * g, with (f g)^(k) = sum of C(k, j) f^(j) g^(k-j) (Leibniz) to
        the order both have rules for."""
        def nth(k):
            return lambda x: sum(math.comb(k, j) * self.deriv_value(j, x)
                                 * other.deriv_value(k - j, x) for j in range(k + 1))

        order = min(self.rule_order, other.rule_order)
        return RealFunction(lambda x: self.fn(x) * other.fn(x),
                            () if order == C_INF else tuple(map(nth, range(1, int(order) + 1))),
                            min(self.smoothness, other.smoothness),
                            nth_deriv=nth if order == C_INF else None)


def difference(fn):
    """The five-point difference quotient of fn, with step 1e-5 * max(1, |x|):
    the package's one difference quotient."""
    def d(x):
        h = 1e-5 * np.maximum(1.0, np.abs(x))
        return (fn(x - 2 * h) - 8 * fn(x - h) + 8 * fn(x + h) - fn(x + 2 * h)) / (12 * h)

    return d


def const_function(c, label=None):
    c = float(c)
    return RealFunction(
        lambda x, c=c: c,
        smoothness=C_INF,
        label=label if label is not None else f"{c:g}",
        nth_deriv=lambda k: lambda x: 0.0,
    )


# ---------------------------------------------------------------------------
# The normalized bump profile
# ---------------------------------------------------------------------------

def _value(out):
    """A function's value `out`, an array: a float where it is 0-d (by
    float(), since a numpy scalar divides by zero without raising)."""
    return float(out) if out.ndim == 0 else out


def _raw_bump(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inside = np.abs(x) < 1.0
        w = np.where(inside, 1.0 - x * x, 1.0)
        out = np.where(inside, np.exp(-1.0 / w), 0.0)
    return _value(out)


#: 1 / integral of exp(-1/(1-x^2)) over (-1, 1); makes the bump unit-mass.
#: The float that adaptive quad gives at epsabs = epsrel = 1e-14, written
#: out so that importing the package needs no SciPy.
BUMP_NORMALIZATION = 2.2522836210435817


def _bump(x):
    return BUMP_NORMALIZATION * _raw_bump(x)


def _bump_polynomial(k):
    """Ascending coefficients of Q_k in p^(k)(x) = Q_k(x)/(1-x^2)^(2k) p(x).

    Q_0 = 1 and Q_{j+1} = Q_j' (1-x^2)^2 + 4 j x (1-x^2) Q_j - 2 x Q_j.
    From k = 140 on some coefficient is not a finite float: refused.
    """
    poly = np.polynomial.polynomial
    s = np.array([1.0, 0.0, -1.0])
    q = np.array([1.0])
    with np.errstate(all="ignore"):
        for j in range(k):
            q = poly.polysub(
                poly.polyadd(poly.polymul(poly.polyder(q), poly.polymul(s, s)),
                             poly.polymulx(poly.polymul(s, q)) * (4.0 * j)),
                2.0 * poly.polymulx(q))
    if not np.isfinite(q).all():
        raise ProfileOverflowError(f"the order-{k} derivative of its profile has "
                                   "coefficients that are not finite floats")
    return q


@functools.lru_cache(maxsize=16)
def _bump_derivative(k):
    """Closed form of the k-th derivative of the normalized bump."""
    q = _bump_polynomial(k)

    def dk(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            p = _bump(x)
            out = np.where(p > 0.0, np.polynomial.polynomial.polyval(x, q)
                           / (1.0 - x * x) ** (2 * k) * p, 0.0)
        return _value(out)

    return dk


_BUMP_PROFILE = RealFunction(_bump, smoothness=C_INF, label="bump",
                             nth_deriv=_bump_derivative)


# ---------------------------------------------------------------------------
# Virtual functions
# ---------------------------------------------------------------------------

class VirtualFunction:
    """Rank-indexed family of real functions.

    `support` (optional) maps a rank to the interval outside of which the
    rank function vanishes identically.
    """

    def __init__(self, rank_eval, support=None, smoothness=C_INF, label=""):
        self._rank_eval = rank_eval
        self._support = support
        self.smoothness = smoothness
        self.label = label

    def rank_eval(self, n, x):
        return self._rank_eval(n, x)

    def support_interval(self, n):
        if self._support is None:
            return None
        return self._support(n)

    def support_radius(self, n):
        iv = self.support_interval(n)
        if iv is None:
            return None
        return max(abs(iv[0]), abs(iv[1]))

    @property
    def has_support(self):
        return self._support is not None

    def support_radius_sequence(self):
        if self._support is None:
            return None
        return from_sequence(lambda n: self.support_radius(n))

    def translate(self, b):
        """Shift the argument by the finite real b: x -> x - b."""
        b = float(b)
        support = None
        if self._support is not None:
            support = lambda n, s=self._support, b=b: (s(n)[0] + b, s(n)[1] + b)
        return VirtualFunction(
            lambda n, x, vf=self, b=b: vf.rank_eval(n, x - b),
            support=support, smoothness=self.smoothness,
            label=f"{self.label}(x-{b:g})" if self.label else "",
        )

    def eval_at(self, xi):
        """Diagonal evaluation at a virtual number: n -> f_n(xi_n)."""
        return from_sequence(lambda n, vf=self, xi=xi: vf.rank_eval(n, xi.value_at(n)))

    def __repr__(self):
        return f"<VirtualFunction {self.label or 'anonymous'}>"


def eval_at(vf, xi):
    return vf.eval_at(VirtualNumber._coerce(xi))


# ---------------------------------------------------------------------------
# Dirac kernels (profile-based)
# ---------------------------------------------------------------------------

class DiracKernel(VirtualFunction):
    """Kernel family n * p(n x) for a fixed profile p on [lo, hi].

    With `order` k > 0 the family is the kernel's k-th derivative,
    n^(k+1) p(n x) where p is then the profile's k-th derivative; its
    smoothness is the profile's.  `profile_cuts` are the panel edges of its
    fixed-node quadrature: the support's ends and middle, u = 0, and any
    `cuts` given (a mixture passes its parts' edges).  `derivative(k)` is built once per order and
    kept on the kernel, so its profile, the key of the node-value cache in
    vintegral, is the same object at every rank; its `base` is the first
    kernel of the chain it was taken of (None on a kernel built directly).
    """

    def __init__(self, profile, profile_support, name, params=None, order=0, cuts=()):
        self.profile = profile
        self.profile_support = (float(profile_support[0]), float(profile_support[1]))
        self.name = name
        self.params = dict(params or {})
        self.order = int(order)
        lo, hi = self.profile_support
        self.profile_cuts = tuple(sorted(
            {lo, hi} | {float(c) for c in (0.0, 0.5 * (lo + hi), *cuts) if lo < c < hi}))
        self._derivatives = {}
        self.base = None

        super().__init__(
            lambda n, x, p=profile, k=self.order: n ** (k + 1) * p(n * x),
            support=lambda n, lo=lo, hi=hi: (lo / n, hi / n),
            smoothness=profile.smoothness,
            label=name,
        )

    def derivative(self, order=1):
        """Rank family of the order-th derivative: n^{k+1} p^{(k)}(n x);
        `profile.derivative` decides whether it exists."""
        if order == 0:
            return self
        if order not in self._derivatives:
            try:
                profile = self.profile.derivative(order)
            except ProfileOverflowError as exc:
                raise ProfileOverflowError(f"kernel {self.name!r}: {exc}") from None
            self._derivatives[order] = DiracKernel(
                profile, self.profile_support, f"{self.name}^({order})", self.params,
                order=self.order + order, cuts=self.profile_cuts)
            self._derivatives[order].base = self.base or self
        return self._derivatives[order]


def bump_delta():
    """Smooth bump kernel: n * p(n x) with p the normalized C-inf bump."""
    return DiracKernel(_BUMP_PROFILE, (-1.0, 1.0), "bump")


def square_delta():
    """Square-pulse kernel: n/2 on |x| < 1/n, zero elsewhere."""
    def p(x):
        x = np.asarray(x, dtype=float)
        out = np.where(np.abs(x) < 1.0, 0.5, 0.0)
        return _value(out)

    profile = RealFunction(p, smoothness=DISCONTINUOUS, label="square")
    return DiracKernel(profile, (-1.0, 1.0), "square")


def _shift_profile(base, shift):
    def shifted(f, s=shift):
        return lambda x: f(np.asarray(x, dtype=float) - s)

    return RealFunction(shifted(base.fn), smoothness=base.smoothness,
                        label=f"{base.label}(u-{shift:g})",
                        nth_deriv=lambda k: shifted(base.derivative(k).fn))


def shifted_delta(direction="+"):
    """Bump kernel shifted by 2/n: support (1/n, 3/n) for "+", mirrored for "-"."""
    if direction not in ("+", "-"):
        raise ValueError("direction must be '+' or '-'")
    s = 2.0 if direction == "+" else -2.0
    profile = _shift_profile(_BUMP_PROFILE, s)
    support = (s - 1.0, s + 1.0)
    name = "plus" if direction == "+" else "minus"
    return DiracKernel(profile, support, name)


def mixture(d1, d2):
    """Pointwise average of two profile kernels; itself a Dirac kernel."""
    for d in (d1, d2):
        if not isinstance(d, DiracKernel):
            raise TypeError("mixture requires profile-based Dirac kernels")
        res = check_dirac(d)
        if isinstance(res, DiracFailure):
            raise ValueError(f"mixture operand {d.name!r} is not a Dirac kernel: {res}")
    p1, p2 = d1.profile, d2.profile
    s1, s2 = d1.profile_support, d2.profile_support

    def part(f, lo, hi, x):
        # A part is evaluated on its own support [lo, hi] (and at nan); it
        # is 0.0 outside, as each part's profile already is there.
        xs = np.asarray(x, dtype=float)
        inside = ~((xs < lo) | (xs > hi))
        if inside.all():
            return np.asarray(f(x))
        out = np.zeros(xs.shape)
        if inside.any():
            out[inside] = f(xs[inside])
        return out

    def average(f1, f2):
        return lambda x: 0.5 * (part(f1, *s1, x) + part(f2, *s2, x))

    profile = RealFunction(
        average(p1.fn, p2.fn), smoothness=min(d1.smoothness, d2.smoothness),
        label=f"mix[{p1.label},{p2.label}]",
        nth_deriv=lambda k: average(p1.derivative(k).fn, p2.derivative(k).fn))
    lo = min(d1.profile_support[0], d2.profile_support[0])
    hi = max(d1.profile_support[1], d2.profile_support[1])
    return DiracKernel(profile, (lo, hi), "mixture",
                       params={"of": [d1.name, d2.name]},
                       cuts=d1.profile_cuts + d2.profile_cuts)


def cauchy_psi():
    """The Lorentzian family n / (1 + n^2 x^2): sifting-like but nowhere zero."""
    return VirtualFunction(
        lambda n, x: n / (1.0 + (n * x) ** 2),
        support=None,
        smoothness=C_INF,
        label="psi",
    )


def point_altered_delta(at=7.0, value=3.0):
    """Bump family altered at one real point: sifting but not a Dirac kernel.

    Declares the bump's support rule, which the certificate check refutes by
    sampling at the altered point.
    """
    base = bump_delta()

    def ev(n, x, base=base, at=at, value=value):
        out = np.where(x == at, float(value), base.rank_eval(n, x))
        return _value(out)

    return VirtualFunction(
        ev,
        support=lambda n: (-1.0 / n, 1.0 / n),
        smoothness=DISCONTINUOUS,
        label=f"bump-altered@{at:g}",
    )


# ---------------------------------------------------------------------------
# Dirac certificate check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiracCertificate:
    normalization: float
    normalization_error: float
    support_class: NumberClass
    checked_ranks: tuple

    @property
    def ok(self):
        return True

    def to_json(self):
        return {
            "valid": True,
            "normalization": self.normalization,
            "normalization_error": self.normalization_error,
            "support_class": self.support_class.value,
            "checked_ranks": list(self.checked_ranks),
        }


@dataclass(frozen=True)
class DiracFailure:
    condition: str  # "i" | "ii" | "iii"
    detail: str

    @property
    def ok(self):
        return False

    def __str__(self):
        return f"condition ({self.condition}) violated: {self.detail}"

    def to_json(self):
        return {"valid": False, "condition": self.condition, "detail": self.detail}


def _outside_grid():
    # Fixed sampling grid for the "vanishes outside the support" check;
    # includes every integer in [-10, 10] exactly so single-point
    # modifications at integer abscissae are detected.
    # Sorted and de-duplicated by hand: np.unique imports numpy.ma.
    g = np.sort(np.concatenate([np.linspace(-10.0, 10.0, 2001), np.arange(-10.0, 11.0)]))
    return g[np.append(True, g[1:] != g[:-1])]


_OUTSIDE_GRID = _outside_grid()


def _array_call(fn, x):
    """fn on the ndarray x, or None where fn takes no array: it raises, or
    returns anything but a float array of x's shape."""
    try:
        v = fn(x)
    except (TypeError, ValueError, ArithmeticError):
        return None
    if isinstance(v, np.ndarray) and v.dtype.kind == "f" and v.shape == x.shape:
        return v
    return None


def _float_or_nan(fn, x):
    try:
        return float(fn(x))
    except (TypeError, ValueError, ArithmeticError):
        return math.nan


def array_values(fn, x):
    """fn on the ndarray x: one array call where fn takes an ndarray, else
    one float call per node, where a node whose call fails reads nan.
    Call it under np.errstate(all="ignore")."""
    v = _array_call(fn, x)
    if v is None:
        v = np.array([_float_or_nan(fn, t) for t in x.ravel().tolist()]).reshape(x.shape)
    return v


def on_points(fn, xs, finite=False):
    """fn on the points xs: one array call where fn takes an ndarray, else
    one call per point, where a failing float evaluation raises; with
    `finite`, also where the array result is not finite everywhere."""
    with np.errstate(all="ignore"):
        vals = _array_call(fn, xs)
    if vals is not None and (not finite or np.isfinite(vals).all()):
        return vals
    return np.array([fn(float(x)) for x in xs], dtype=float)


#: How far from 1 `check_dirac` lets the normalization be, and the points
#: of its per-rank nonnegativity grid.
_DIRAC_TOL, _DIRAC_GRID = 1e-6, 1000


def check_dirac(vf, schedule=DEFAULT_SCHEDULE):
    """Check the three defining kernel conditions; returns a certificate
    or the first violated condition.

    (i) nonnegativity, sampled on a per-rank grid over the support;
    (ii) full-line integral reduces to 1 within _DIRAC_TOL;
    (iii) an infinitesimal support radius exists and the function is exactly
    zero at sampled points outside it.
    """
    from .vintegral import reduce_integral

    schedule = list(schedule)

    # (iii) support existence first: without it, (i)'s grid has no bounds.
    if not vf.has_support:
        return DiracFailure("iii", "no vanishing region: function has no "
                                   "declared infinitesimal support")

    # (i) nonnegativity over the support.  A profile kernel's ranks
    # n^(k+1) p^(k)(n x) all read p^(k) on one grid of u = n x.
    if isinstance(vf, DiracKernel):
        us = np.linspace(*vf.profile_support, _DIRAC_GRID)
        pu = on_points(vf.profile, us)
    for n in schedule:
        if isinstance(vf, DiracKernel):
            xs, vals = us / n, n ** (vf.order + 1) * pu
        else:
            xs = np.linspace(*vf.support_interval(n), _DIRAC_GRID)
            vals = on_points(lambda x: vf.rank_eval(n, x), xs)
        if np.min(vals) < -1e-9:
            x_bad = float(xs[int(np.argmin(vals))])
            return DiracFailure(
                "i", f"negative value {np.min(vals):.3g} at x={x_bad:.6g}, rank n={n}"
            )

    # (ii) unit normalization.
    result = reduce_integral(vf, schedule=schedule, tol=1e-8)
    if result.kind != "reduced" or abs(result.value - 1.0) > _DIRAC_TOL:
        got = result.value if result.kind == "reduced" else result.kind
        return DiracFailure("ii", f"full-line integral is {got}, not 1")

    # (iii) infinitesimal support radius and exact vanishing outside.
    radius_seq = vf.support_radius_sequence()
    cls = classify(radius_seq, schedule=schedule)
    if cls is not NumberClass.INFINITESIMAL:
        return DiracFailure("iii", f"support radius sequence classifies as {cls.value}")
    for n in (schedule[0], schedule[len(schedule) // 2], schedule[-1]):
        r = vf.support_radius(n)
        vals = on_points(lambda x: vf.rank_eval(n, x), _OUTSIDE_GRID)
        bad = np.flatnonzero((np.abs(_OUTSIDE_GRID) >= r) & (vals != 0.0))
        if bad.size:
            i = bad[0]
            return DiracFailure(
                "iii", f"support/zero check failed at x={_OUTSIDE_GRID[i]:g} "
                       f"(rank n={n}, value {vals[i]:g})"
            )

    return DiracCertificate(
        normalization=result.value,
        normalization_error=result.error_estimate,
        support_class=cls,
        checked_ranks=tuple(schedule),
    )


# ---------------------------------------------------------------------------
# Kernel descriptor serialization
# ---------------------------------------------------------------------------

def kernel_to_json(kernel):
    smooth = kernel.smoothness
    if smooth == C_INF:
        smooth_text = "C-inf"
    elif smooth < 0:
        smooth_text = "discontinuous"
    else:
        smooth_text = f"C^{smooth}"
    return {
        "name": kernel.name,
        "params": kernel.params,
        "smoothness": smooth_text,
        "support_rule": "({:g}/n, {:g}/n)".format(*kernel.profile_support),
    }


def kernel_from_json(record):
    name = record["name"]
    simple = {"bump": bump_delta, "square": square_delta,
              "plus": lambda: shifted_delta("+"), "minus": lambda: shifted_delta("-")}
    if name in simple:
        return simple[name]()
    if name in ("mixture", "convolution"):
        from .vintegral import convolve

        combine, default = ((mixture, ["plus", "minus"]) if name == "mixture"
                            else (convolve, ["bump", "bump"]))
        parts = record.get("params", {}).get("of", default)
        return combine(kernel_from_json({"name": parts[0]}),
                       kernel_from_json({"name": parts[1]}))
    raise ValueError(f"unknown kernel descriptor {name!r}")
