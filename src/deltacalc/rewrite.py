"""Symbolic delta-expression layer.

Expressions over delta terms and smooth factors are rewritten to normal
forms sum_i c_i * delta^(k_i)(x - a_i), and every rewrite can be
cross-checked numerically by integrating both sides against a battery of
test functions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

from .errors import DeltaCalcError, ExpressionError, RewriteError
from .limits import DEFAULT_SCHEDULE
# perfbench/tracer.py rebinds certify_hypotheses and find_simple_roots here.
from .roots import WINDOW, certify_hypotheses, find_simple_roots, scan  # noqa: F401
from .vfun import DiracKernel, RealFunction, VirtualFunction
# perfbench/tracer.py rebinds integrate_rank and reduce_sequence here.
from .vintegral import (  # noqa: F401
    _last_stack,
    _total,
    compose,
    convolve,
    integrate_rank,
    reduce_bound,
    reduce_integral,
    reduce_sequence,
    reductions,
)

__all__ = [
    "DeltaTerm",
    "CompTerm",
    "SmoothTerm",
    "ScaleTerm",
    "SumTerm",
    "ProductTerm",
    "ContractionTerm",
    "NormalForm",
    "EquivalenceVerdict",
    "ProbeReport",
    "rewrite_composition",
    "rewrite_product",
    "rewrite_deriv_product",
    "rewrite_convolution",
    "simplify",
    "evaluate_normal_form",
    "reduce_expr_integral",
    "check_equivalence",
    "kernel_dependence_probe",
    "standard_battery",
    "sift_battery",
]

#: Coefficients below this merge to zero during normalization.
COEFF_EPS = 1e-14


# ---------------------------------------------------------------------------
# Expression AST
# ---------------------------------------------------------------------------

class DeltaExpr:
    """Base class for delta-expression nodes."""


@dataclass(frozen=True)
class DeltaTerm(DeltaExpr):
    """delta^(k)(x - a), optionally bound to a specific kernel."""

    order: int = 0
    shift: float = 0.0
    kernel: object = None

    def __post_init__(self):
        if self.order < 0:
            raise ExpressionError("derivative order must be >= 0")


@dataclass(frozen=True)
class CompTerm(DeltaExpr):
    """delta(g(x)) for a smooth inner function."""

    inner: RealFunction
    kernel: object = None


@dataclass(frozen=True)
class SmoothTerm(DeltaExpr):
    f: RealFunction


@dataclass(frozen=True)
class ScaleTerm(DeltaExpr):
    c: float
    expr: DeltaExpr


@dataclass(frozen=True)
class SumTerm(DeltaExpr):
    parts: tuple


@dataclass(frozen=True)
class ProductTerm(DeltaExpr):
    """Smooth factor times a single delta-bearing term."""

    f: RealFunction
    delta: DeltaExpr

    def __post_init__(self):
        if not isinstance(self.delta, (DeltaTerm, CompTerm)):
            raise ExpressionError(
                "Product requires exactly one delta-bearing factor; products "
                "of two delta terms are only defined inside a contraction "
                "integral"
            )


@dataclass(frozen=True)
class ContractionTerm(DeltaExpr):
    """Integral over beta of d1(x - beta) d2(beta - a)."""

    d1: DiracKernel
    d2: DiracKernel
    shift: float = 0.0


def _is_zero_term(expr):
    """Whether a smooth summand is the structural zero: a constant labelled
    "0".  Its values never decide it."""
    return isinstance(expr.f, RealFunction) and expr.f.label == "0"


def _atoms(expr, c=1.0):
    """Flatten the linear nodes (SumTerm, ScaleTerm, ProductTerm) of expr in
    one walk: expr is the sum of c * factor * atom over the returned
    (c, factor, atom), where factor is a RealFunction or None and atom a
    DeltaTerm, CompTerm or SmoothTerm.  A contraction becomes the delta
    term bound to its convolved kernel."""
    if isinstance(expr, SumTerm):
        return tuple(a for p in expr.parts for a in _atoms(p, c))
    if isinstance(expr, ScaleTerm):
        return _atoms(expr.expr, c * expr.c)
    if isinstance(expr, ProductTerm):
        return ((c, expr.f, expr.delta),)
    if isinstance(expr, ContractionTerm):
        return ((c, None, DeltaTerm(0, expr.shift,
                                    kernel=convolve(expr.d1, expr.d2))),)
    if isinstance(expr, (DeltaTerm, CompTerm, SmoothTerm)):
        return ((c, None, expr),)
    raise ExpressionError(f"cannot flatten node {type(expr).__name__}")


def _kernel_of(atom, kernel):
    kern = atom.kernel if atom.kernel is not None else kernel
    if kern is None:
        raise ExpressionError("delta term evaluated without a kernel binding")
    return kern


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------

STRONG = "strong"


@dataclass(frozen=True)
class NormalForm:
    terms: tuple  # of (c, k, a)
    strength: object = STRONG  # STRONG or ("order", n)
    residual: object = None  # None | "zero" | reason string
    kernel_binding: object = None

    @staticmethod
    def from_terms(terms, strength=STRONG, residual=None, kernel_binding=None):
        merged = {}
        for c, k, a in terms:
            merged.setdefault((float(a), int(k)), []).append(float(c))
        merged = {key: _total(cs) for key, cs in merged.items()}
        for (a, k), c in merged.items():
            if not math.isfinite(c):
                raise RewriteError(f"coefficient {c} of the order-{k} delta "
                                   f"term at a={a:g} is not finite")
        out = tuple(
            (c, k, a)
            for (a, k), c in sorted(merged.items())
            if abs(c) >= COEFF_EPS
        )
        if not out and residual is None:
            residual = "zero"
        return NormalForm(out, strength, residual, kernel_binding)

    @property
    def is_zero(self):
        return not self.terms and self.residual == "zero"

    def render(self):
        if self.is_zero:
            return "0"
        if not self.terms:
            return f"<not reducible: {self.residual}>"
        parts = []
        for c, k, a in self.terms:
            d = "δ" + ("" if k == 0 else "′" * k if k <= 2 else f"^({k})")
            if a == 0:
                arg = "x"
            elif a > 0:
                arg = f"x−{a:g}"
            else:
                arg = f"x+{-a:g}"
            parts.append(f"{c:g}·{d}({arg})")
        text = " + ".join(parts).replace("+ -", "− ")
        if self.residual not in (None, "zero"):
            text += f"  [+ not reducible: {self.residual}]"
        return text

    def to_json(self):
        strength = ("strong" if self.strength == STRONG
                    else {"order": self.strength[1]})
        return {
            "terms": [{"c": c, "k": k, "a": a} for c, k, a in self.terms],
            "strength": strength,
            "residual": self.residual,
        }


# ---------------------------------------------------------------------------
# Rewrite rules
# ---------------------------------------------------------------------------

def _composition_terms(g, cert, window):
    """1/|g'(a_i)| on delta(x - a_i) at each certified root a_i of g."""
    if cert is None:
        cert = scan(g, window).certificate
    cert.require()
    return [(1.0 / abs(rec.g_prime), 0, rec.a) for rec in cert.roots]


def _product_terms(f, n, a):
    """The binomial rule for f(x) delta^(n)(x - a): (-1)^n (-1)^i C(n,i)
    f^(n-i)(a) on delta^(i)(x - a); at n = 0, the product rule."""
    terms = []
    for i in range(n + 1):
        try:
            value = float(f.deriv_value(n - i, a))
        except (ArithmeticError, ValueError, TypeError, ExpressionError) as exc:
            raise RewriteError(f"factor undefined at a={a:g}: {exc}") from exc
        coeff = ((-1.0) ** n) * ((-1.0) ** i) * math.comb(n, i) * value
        if not math.isfinite(coeff):
            part = f" has a derivative of order {n - i} that" if i < n else ""
            raise RewriteError(f"factor {f.label!r}{part} is not finite at a={a:g}")
        terms.append((coeff, i, a))
    return terms


def rewrite_composition(g, cert=None, window=WINDOW):
    """delta(g(x)) -> sum over simple roots of delta(x - a_i) / |g'(a_i)|.

    Requires certified hypotheses (by default, those of g's scan over
    `window`); an empty root set under certification means the composite
    is identically null.
    """
    return NormalForm.from_terms(_composition_terms(g, cert, window))


def rewrite_deriv_product(g, n, a):
    """g(x) delta^(n)(x-a): the binomial rule, an order-n equivalence (at
    n = 0, the product rule, a strong one)."""
    return NormalForm.from_terms(_product_terms(g, int(n), float(a)),
                                 ("order", int(n)) if n else STRONG)


def rewrite_product(f, a):
    """f(x) delta(x - a) -> f(a) delta(x - a)."""
    return rewrite_deriv_product(f, 0, a)


def rewrite_convolution(d1, d2, a=0.0):
    """Contraction integral of d1(x-b) d2(b-a) -> delta_3(x-a) with
    delta_3 = convolve(d1, d2)."""
    d3 = convolve(d1, d2)
    return NormalForm.from_terms([(1.0, 0, float(a))], STRONG, kernel_binding=d3)


def simplify(expr, window=WINDOW):
    """Rewrite an expression AST to its normal form: the rules' terms for
    every atom go through one `from_terms`.  The residual names every
    smooth summand that is not the structural zero."""
    atoms = _atoms(expr)
    terms, order, smooth, binding = [], 0, [], None
    for c, f, atom in atoms:
        if isinstance(atom, SmoothTerm):
            if not _is_zero_term(atom):
                smooth.append(atom.f.label or "f(x)")
            continue
        if isinstance(atom, CompTerm):
            base = _composition_terms(atom.inner, None, window)
        else:
            base = ((1.0, atom.order, float(atom.shift)),)
            if len(atoms) == 1:
                binding = atom.kernel
        for t, k, a in base:
            rule = ((1.0, k, a),) if f is None else _product_terms(f, k, a)
            terms.extend((c * (t * u), j, b) for u, j, b in rule)
            order = max(order, 0 if f is None else k)
    residual = (f"smooth summand{'s' if len(smooth) > 1 else ''} {', '.join(smooth)}"
                if smooth else None)
    return NormalForm.from_terms(terms, ("order", order) if order else STRONG,
                                 residual, binding)


def evaluate_normal_form(nf, f):
    """sum_i c_i (-1)^{k_i} f^{(k_i)}(a_i); `f.derivative` refuses an
    order that f lacks; an empty form is 0.0."""
    return _total([0.0] + [c * ((-1.0) ** k) * float(f.deriv_value(k, a))
                           for c, k, a in nf.terms])


# ---------------------------------------------------------------------------
# Numeric expression integration (termwise per rank)
# ---------------------------------------------------------------------------

def _bind(expr, kernel, window):
    """Each (c, factor, atom) of _atoms(expr) with the rank family it is
    integrated on (`_family`) and that family's shift; a delta-free
    RealFunction is one smooth summand."""
    if isinstance(expr, RealFunction):
        expr = SmoothTerm(expr)
    return [(c, f, atom, _family(atom, kernel, window), getattr(atom, "shift", 0.0))
            for c, f, atom in _atoms(expr)]


def _family(atom, kernel, window=WINDOW):
    """The rank family atom is integrated on: a delta term's kernel, a
    composite's `compose` over `window`, a smooth summand's f (None for 0)."""
    if isinstance(atom, SmoothTerm):
        return None if _is_zero_term(atom) else VirtualFunction(
            lambda _n, x, f=atom.f.fn: f(x))
    kern = _kernel_of(atom, kernel)
    if isinstance(atom, CompTerm):
        return compose(kern, atom.inner, window=window)
    return kern


def expr_rank_eval(expr, kernel, n, x):
    """Pointwise value of the bound integrand at rank n (for traces)."""
    values = []
    for c, f, atom in _atoms(expr):
        if isinstance(atom, SmoothTerm):
            v = float(atom.f(x))
        elif isinstance(atom, CompTerm):
            v = float(_kernel_of(atom, kernel).rank_eval(n, atom.inner(x)))
        else:
            kern = _kernel_of(atom, kernel)
            v = float((kern.derivative(atom.order) if atom.order else kern).rank_eval(
                n, x - atom.shift))
        values.append(c * (v if f is None else f(x) * v))
    return _total(values)


def reduce_expr_integral(expr, weight=None, kernel=None,
                         lo=-math.inf, hi=math.inf,
                         schedule=DEFAULT_SCHEDULE, tol=1e-9, window=WINDOW):
    """Reduce the virtual integral of expr * weight over [lo, hi]; delta
    composites are scanned over `window`."""
    return reduce_bound(_bind(expr, kernel, window), weight, lo, hi, schedule, tol)


# ---------------------------------------------------------------------------
# Equivalence checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceVerdict:
    variant: str  # "distinct" | "consistent_equivalent" | "irreducible_side"
    witness: str = ""
    lhs_value: float | None = None
    rhs_value: float | None = None
    battery_size: int = 0
    max_deviation: float | None = None
    side: str = ""
    skipped: tuple = ()  # labels of battery members not finite at a shift

    @property
    def consistent(self):
        return self.variant == "consistent_equivalent"

    def to_json(self):
        out = {"variant": self.variant}
        if self.variant == "distinct":
            out.update(witness=self.witness, lhs=self.lhs_value,
                       rhs=self.rhs_value)
        elif self.variant == "consistent_equivalent":
            out.update(battery=self.battery_size,
                       max_deviation=self.max_deviation)
        else:
            out.update(side=self.side, witness=self.witness)
        if self.skipped:
            out["skipped"] = list(self.skipped)
        return out


def _finite_at(f, x):
    try:
        return math.isfinite(f(x))
    except (ArithmeticError, DeltaCalcError):
        return False


def _delta_points(bound):
    """Where the delta terms of the bound atoms sit: each delta term's shift
    and the roots on each composite's scan."""
    return {a for _c, _f, atom, family, shift in bound if not isinstance(atom, SmoothTerm)
            for a in (family.scan.roots if isinstance(atom, CompTerm) else (shift,))}


def check_equivalence(lhs, rhs, kernel=None, battery=None, tol=1e-7,
                      order=None, schedule=DEFAULT_SCHEDULE, window=WINDOW):
    """Decide Dirac equivalence of two expressions against a test battery.

    A finite battery can only ever certify "consistent"; any irreducible
    side or any deviation beyond 10*tol relative to max(1, |lhs|, |rhs|)
    is decisive the other way.  A member whose integrals fail and that is
    not finite at some point where a delta term sits (exp(x) past x ~ 709)
    is skipped and named in the verdict's `skipped`.  A side's first ranks
    against every member are one stacked pass (`reductions`).
    """
    battery = standard_battery() if battery is None else battery
    if order is not None:
        battery = [f for f in battery if f.smoothness >= order]
    if not battery:
        raise ValueError("battery must be nonempty")
    points = None
    skipped = []
    # Each side is bound and its reductions built once, on first use.
    bound = functools.cache(lambda i: _bind((lhs, rhs)[i], kernel, window))
    reduced = functools.cache(lambda i: reductions(bound(i), battery, -math.inf, math.inf,
                                                   schedule, tol))

    def verdict(*args, **kw):
        return EquivalenceVerdict(*args, skipped=tuple(skipped), **kw)

    max_dev = 0.0
    try:
        for j, f in enumerate(battery):
            try:
                left = reduced(0)[j]()
                if not left.reduced:
                    return verdict("irreducible_side", side="lhs", witness=f.label)
                right = reduced(1)[j]()
            except (ArithmeticError, DeltaCalcError):
                if points is None:
                    points = _delta_points(bound(0) + bound(1))
                if all(_finite_at(f, a) for a in points):
                    raise
                skipped.append(f.label)
                continue
            if not right.reduced:
                return verdict("irreducible_side", side="rhs", witness=f.label)
            dev = abs(left.value - right.value)
            # A deviation that is not a number is decisive too.
            if not dev <= 10.0 * tol * max(1.0, abs(left.value), abs(right.value)):
                return verdict("distinct", witness=f.label, lhs_value=left.value,
                               rhs_value=right.value)
            max_dev = max(max_dev, dev)
        if len(skipped) == len(battery):
            raise DeltaCalcError("no test function is finite at the shifts "
                                 + ", ".join(f"{a:g}" for a in sorted(points)))
        return verdict("consistent_equivalent", battery_size=len(battery) - len(skipped),
                       max_deviation=max_dev)
    finally:
        _last_stack[:] = (None, None)  # the two sides' shared stack outlives neither


# ---------------------------------------------------------------------------
# Kernel-dependence probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeReport:
    g_label: str
    outcomes: tuple  # of (kernel name, IntegralResult)
    flagged: bool
    reason: str

    def to_json(self):
        return {
            "g": self.g_label,
            "outcomes": [{"kernel": name, "result": res.to_json()}
                         for name, res in self.outcomes],
            "flagged": self.flagged,
            "reason": self.reason,
        }


#: The spread of reduced values above which the kernel probe flags them.
_PROBE_SPREAD = 1e-6


def kernel_dependence_probe(g, kernels, schedule=DEFAULT_SCHEDULE, window=WINDOW):
    """Integrate delta_k(g(x)) per kernel and flag kernel-dependent results.

    When outcomes differ (divergent vs zero vs distinct finite values, or
    reduced values spread by more than _PROBE_SPREAD) the composite admits
    no kernel-generic operational rule.
    """
    if len(kernels) < 2:
        raise ValueError("probe needs at least two kernels")
    outcomes = []
    for kern in kernels:
        res = reduce_integral(compose(kern, g, window=window),
                              schedule=schedule, tol=1e-9)
        outcomes.append((getattr(kern, "name", kern.label), res))
    vals = [res.value for _n, res in outcomes]
    if {res.kind for _n, res in outcomes} != {"reduced"}:
        labels = sorted(f"{name}:{res.kind}" for name, res in outcomes)
        reason = f"outcomes differ in kind ({', '.join(labels)})"
    elif max(vals) - min(vals) > _PROBE_SPREAD:
        reason = f"reduced values disagree (spread {max(vals) - min(vals):.3g})"
    else:
        reason = None
    return ProbeReport(getattr(g, "label", "g"), tuple(outcomes), reason is not None,
                       "all kernels agree" if reason is None
                       else "no generic operational rule: " + reason)


# ---------------------------------------------------------------------------
# Test-function batteries
# ---------------------------------------------------------------------------

#: Each battery member as (label, expression text).  A text runs the same
#: float operations, in the same order, as the closed form of its label:
#: a polynomial in Horner form, as np.polyval evaluates it, and every
#: coefficient kept, as in sin(1*x) and exp(-1*x).
_STANDARD = (
    ("1", "1"), ("x", "x"), ("x^2", "x*x"), ("x^3", "x*x*x"), ("x^4", "x*x*x*x"),
    ("sin(1x)", "sin(1*x)"), ("cos(1x)", "cos(1*x)"),
    ("sin(2x)", "sin(2*x)"), ("cos(2x)", "cos(2*x)"),
    ("sin(0.5x)", "sin(0.5*x)"), ("cos(0.5x)", "cos(0.5*x)"),
    ("exp(+x)", "exp(1*x)"), ("exp(-x)", "exp(-1*x)"),
    ("1/(1+1x^2)", "1/(1+1*x*x)"), ("1/(1+0.25x^2)", "1/(1+0.25*x*x)"),
    # C0 but not C1 at the origin: exercises strong-mode equivalence.
    ("|x|(1+0.5sin(3x))", "abs(x)*(1+0.5*sin(3*x))"),
    ("x*cos(x)", "x*cos(x)"), ("atan(x)", "atan(x)"),
    ("exp(-x^2/4)", "exp(-0.25*x*x)"),
    ("2+0.5x-0.1x^3", "(-0.1*x*x+0.5)*x+2"),
)

_SIFT = (
    ("1", "1"), ("x", "x"), ("x^2+5", "x*x+5"), ("x^3", "x*x*x"),
    ("cos(1x)", "cos(1*x)"), ("sin(2x)", "sin(2*x)"), ("exp(-x)", "exp(-1*x)"),
    ("1/(1+1x^2)", "1/(1+1*x*x)"), ("x*cos(x)", "x*cos(x)"),
    ("exp(-x^2/4)", "exp(-0.25*x*x)"),
)


@functools.cache
def _member(label, text):
    """The battery member `text`, compiled once per process by the
    expression language: it takes a float or an ndarray and carries
    symbolic derivatives."""
    from .exprlang import _real_function, parse

    return replace(_real_function(parse(text)), label=label)


def standard_battery():
    """Default 20-function battery: polynomials to degree 4, three trig
    frequencies, exponentials, Runge rationals and one C0-only function."""
    return [_member(*m) for m in _STANDARD]


def sift_battery():
    """10 smooth functions used by the sifting acceptance checks."""
    return [_member(*m) for m in _SIFT]
