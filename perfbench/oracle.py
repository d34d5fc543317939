"""Reference answers computed without the engine.

Every benchmark query carries an `Expect` built here from the benchmark's
own parameters: values come from mpmath (`mpmath.diff` for sifted
derivatives, root sums over constructed roots for compositions), never
from deltacalc.  `classify` then sorts each engine answer into one of

    ok       the answer matches the expectation
    wrong    a value, normal form or verdict came back and misses it
    refused  the engine declined (exit 1, `undetermined`, irreducible side)
             where an answer was expected
    crashed  an exception escaped the entry point

Outcomes `refused` and `crashed` count as failures; `wrong` is the
silently wrong answer and also counts as a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath

mpmath.mp.dps = 30

#: Relative tolerance of every value check: 1e-6 * max(1, |ref|).
REL_TOL = 1e-6


def tol_of(ref):
    return REL_TOL * max(1.0, abs(ref))


def num(v):
    """Round a drawn parameter so its decimal text is the exact value."""
    return float(f"{v:.4f}")


def fmt(v):
    """Decimal text of a float that exprlang reads back to the same float."""
    return repr(float(v))


# ---------------------------------------------------------------------------
# Smooth test functions: expression text plus an mpmath twin
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothF:
    family: str
    text: str
    mp: object  # callable on mpmath numbers

    def value(self, a):
        return float(self.mp(mpmath.mpf(a)))

    def sifted_derivative(self, a, k):
        """(-1)^k F^(k)(a), the value of F(x)*ddelta(x-a,k)."""
        d = mpmath.diff(self.mp, mpmath.mpf(a), k)
        return float((-1) ** k * d)


def _signed(v):
    return f"+{fmt(v)}" if v >= 0 else f"-{fmt(-v)}"


def draw_smooth(rng, fam):
    """A member of family `fam` (cos/sin/exp/atan/x*cos/Runge/cubic) with
    seeded parameters."""
    if fam == "cos":
        w, p = num(rng.uniform(0.3, 2.5)), num(rng.uniform(-1.5, 1.5))
        return SmoothF(fam, f"cos({fmt(w)}*x{_signed(p)})",
                       lambda x: mpmath.cos(w * x + p))
    if fam == "sin":
        w, p = num(rng.uniform(0.3, 2.5)), num(rng.uniform(-1.5, 1.5))
        return SmoothF(fam, f"sin({fmt(w)}*x{_signed(p)})",
                       lambda x: mpmath.sin(w * x + p))
    if fam == "exp":
        c = num(rng.uniform(0.2, 1.0)) * rng.choice((-1, 1))
        return SmoothF(fam, f"exp({fmt(c)}*x)", lambda x: mpmath.exp(c * x))
    if fam == "atan":
        s, t = num(rng.uniform(0.3, 2.0)), num(rng.uniform(-1.0, 1.0))
        return SmoothF(fam, f"atan({fmt(s)}*x{_signed(t)})",
                       lambda x: mpmath.atan(s * x + t))
    if fam == "xcos":
        w = num(rng.uniform(0.3, 2.0))
        return SmoothF(fam, f"x*cos({fmt(w)}*x)", lambda x: x * mpmath.cos(w * x))
    if fam == "runge":
        b = num(rng.uniform(0.5, 5.0))
        return SmoothF(fam, f"1/(1+{fmt(b)}*x^2)", lambda x: 1 / (1 + b * x * x))
    if fam == "cubic":
        c0, c1, c2, c3 = (num(rng.uniform(-1.5, 1.5)) for _ in range(4))
        text = f"({fmt(c0)}{_signed(c1)}*x{_signed(c2)}*x^2{_signed(c3)}*x^3)"
        return SmoothF(fam, text, lambda x: c0 + c1 * x + c2 * x**2 + c3 * x**3)
    raise ValueError(f"unknown family {fam!r}")


FAMILIES = ("cos", "sin", "exp", "atan", "xcos", "runge", "cubic")

ONE = SmoothF("one", "1", lambda x: mpmath.mpf(1))


# ---------------------------------------------------------------------------
# Expectations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Expect:
    """What a correct engine answers.

    kind:
      value        integrate reduces to `value`
      terms        simplify gives sum of c*delta(x-a) over `terms`
      probe        probe-kernels agrees across kernels on `value`
      equivalent   equiv reports consistent_equivalent
      irreducible  integrate reports a power-law divergence
      no_form      simplify has no finite normal form to give
    refusal_ok: an engine refusal is an acceptable answer, since the
      engine's contract is to give the right answer or refuse.
    """

    kind: str
    value: float | None = None
    terms: tuple = ()
    refusal_ok: bool = False

    def to_json(self):
        out = {"kind": self.kind}
        if self.value is not None:
            out["value"] = self.value
        if self.terms:
            out["terms"] = [list(t) for t in self.terms]
        if self.refusal_ok:
            out["refusal_ok"] = True
        return out


@dataclass(frozen=True)
class Composite:
    """g(x) with its simple roots and |g'| there, known by construction."""

    family: str
    text: str
    mp: object
    roots: tuple = ()
    slopes: tuple = ()  # |g'(root)|, same order as roots

    def root_sum(self, f):
        """Sum of F(r_i) / |g'(r_i)|: the value of F(x)*delta(g(x))."""
        return float(sum(mpmath.mpf(f.value(r)) / s
                         for r, s in zip(self.roots, self.slopes)))

    def terms(self):
        return tuple((float(1 / s), float(r))
                     for r, s in sorted(zip(self.roots, self.slopes),
                                        key=lambda t: t[0]))


def slopes_of(g_mp, roots):
    return tuple(float(abs(mpmath.diff(g_mp, mpmath.mpf(r)))) for r in roots)


# ---------------------------------------------------------------------------
# Classification of engine answers
# ---------------------------------------------------------------------------

def _close(got, ref):
    return got is not None and math.isfinite(got) and abs(got - ref) <= tol_of(ref)


def classify(expect, answer):
    """Map an answer record (see run.py `Answer`) to ok/wrong/refused/crashed."""
    if answer.crashed:
        return "crashed"
    if answer.refused:
        if expect.refusal_ok or expect.kind == "no_form":
            return "ok"
        return "refused"
    kind = answer.kind
    k = expect.kind
    if k == "value":
        if kind == "reduced":
            return "ok" if _close(answer.value, expect.value) else "wrong"
        if kind == "undetermined":
            return "ok" if expect.refusal_ok else "refused"
        return "wrong"
    if k == "irreducible":
        if kind == "irreducible":
            return "ok"
        if kind == "undetermined":
            return "ok" if expect.refusal_ok else "refused"
        return "wrong"
    if k == "terms":
        got = answer.terms or ()
        if len(got) != len(expect.terms):
            return "wrong"
        for (c, a), (c0, a0) in zip(sorted(got, key=lambda t: t[1]), expect.terms):
            if not (_close(c, c0) and _close(a, a0)):
                return "wrong"
        return "ok"
    if k == "no_form":
        return "wrong"  # a finite normal form came back
    if k == "probe":
        if answer.flagged:
            return "wrong"
        vals = answer.probe_values or ()
        return "ok" if vals and all(_close(v, expect.value) for v in vals) else "wrong"
    if k == "equivalent":
        if kind == "consistent_equivalent":
            return "ok"
        if kind == "irreducible_side":
            return "refused"
        return "wrong"
    raise ValueError(f"unknown expectation {k!r}")


def self_check():
    """The oracle reproduces the README examples; raises if it does not."""
    mp = lambda x: x * x - 4
    g = Composite("poly", "x^2-4", mp, (-2.0, 2.0), slopes_of(mp, (-2.0, 2.0)))
    cosf = SmoothF("cos", "cos(x)", mpmath.cos)
    want = math.cos(2.0) / 2.0
    got = g.root_sum(cosf)
    if abs(got - want) > 1e-15:
        raise AssertionError(f"oracle: cos(x)*delta(x^2-4) gave {got}, want {want}")
    if g.terms() != ((0.25, -2.0), (0.25, 2.0)):
        raise AssertionError(f"oracle: delta(x^2-4) gave {g.terms()}")
    d3 = SmoothF("xcube", "x^3", lambda x: x**3).sifted_derivative(0.5, 3)
    if abs(d3 + 6.0) > 1e-12:
        raise AssertionError(f"oracle: x^3*ddelta(x-0.5,3) gave {d3}, want -6")
