"""Virtual numbers: rank-indexed real sequences with arithmetic and probes.

A virtual number is represented by a single canonical sequence n -> value.
All order/size questions are decided by probing the sequence on a schedule
of ranks, with an explicit Undetermined outcome when the probes do not
stabilize.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

from .errors import RankEvaluationError
from .limits import DEFAULT_SCHEDULE, extract_limit, power_law_exponent

__all__ = [
    "VirtualNumber",
    "NumberClass",
    "OrderVerdict",
    "make_const",
    "omega",
    "partial",
    "from_sequence",
    "classify",
    "shadow",
    "eventually_compare",
    "DEFAULT_SCHEDULE",
]


class NumberClass(Enum):
    INFINITESIMAL = "infinitesimal"
    FINITE_APPRECIABLE = "finite_appreciable"
    INFINITE = "infinite"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class OrderVerdict:
    variant: str  # "holds" | "fails" | "undetermined"
    cutoff_rank: int | None = None

    @property
    def holds(self):
        return self.variant == "holds"


def _pointwise(op, reflected=False):
    """op rank by rank, (a op b)_n = op(a_n, b_n); `reflected` swaps a and b."""
    def method(self, other):
        a, b = self, self._coerce(other)
        if reflected:
            a, b = b, a
        return VirtualNumber(lambda n: op(a.value_at(n), b.value_at(n)))

    return method


class VirtualNumber:
    """Rank-indexed real sequence. Immutable; values computed lazily."""

    __slots__ = ("_fn", "tag")

    def __init__(self, fn, tag=None):
        self._fn = fn
        self.tag = tag

    def value_at(self, n):
        """The value at rank n, refused where it is not a finite real: a
        division by zero, an overflow, a complex power of a negative base."""
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"rank must be a positive integer, got {n!r}")
        try:
            v = self._fn(n)
        except ZeroDivisionError:
            raise RankEvaluationError("division by a rank-zero value", n) from None
        except OverflowError:
            v = math.inf
        if isinstance(v, complex) or not math.isfinite(v):
            raise RankEvaluationError("sequence value is not a finite real", n)
        return float(v)

    def values(self, schedule=DEFAULT_SCHEDULE):
        return [self.value_at(n) for n in schedule]

    # -- arithmetic (pointwise per rank, exact in 64-bit floats) ----------

    @staticmethod
    def _coerce(x):
        if isinstance(x, VirtualNumber):
            return x
        return make_const(float(x))

    __add__, __radd__ = _pointwise(operator.add), _pointwise(operator.add, True)
    __sub__, __rsub__ = _pointwise(operator.sub), _pointwise(operator.sub, True)
    __mul__, __rmul__ = _pointwise(operator.mul), _pointwise(operator.mul, True)
    __truediv__ = _pointwise(operator.truediv)
    __rtruediv__ = _pointwise(operator.truediv, True)
    __pow__ = _pointwise(operator.pow)

    def __neg__(self):
        return VirtualNumber(lambda n, a=self: -a.value_at(n))

    def __abs__(self):
        return VirtualNumber(lambda n, a=self: abs(a.value_at(n)))

    def __repr__(self):
        if self.tag == "const":
            return f"VirtualNumber(const {self.value_at(1)!r})"
        if self.tag:
            return f"VirtualNumber(<{self.tag}>)"
        return "VirtualNumber(<sequence>)"


def make_const(r):
    """Constant virtual number: value_at(n) = r for every rank."""
    r = float(r)
    if not math.isfinite(r):
        raise ValueError(f"constant must be finite, got {r!r}")
    return VirtualNumber(lambda n: r, tag="const")


def omega():
    """The canonical infinite quantity: the sequence 1, 2, 3, ..."""
    return VirtualNumber(lambda n: float(n), tag="omega")


def partial():
    """The canonical infinitesimal, reciprocal of omega: 1/n per rank."""
    return VirtualNumber(lambda n: 1.0 / n, tag="partial")


def from_sequence(fn, tag=None):
    """Wrap an arbitrary rank -> real rule as a virtual number."""
    return VirtualNumber(fn, tag=tag)


#: Magnitude below which `classify` calls a sequence small.
_TOL_SMALL = 1e-6


def classify(v, schedule=DEFAULT_SCHEDULE):
    """Classify a virtual number by the rule `reduce_sequence` reads an
    integral's ranks by.  FiniteAppreciable: the probes extrapolate to a
    limit of at least _TOL_SMALL.  Infinitesimal: magnitudes non-increasing
    over the last 4 probes, with a smaller limit or, where a decay slower
    than the table's orders (1e-3/sqrt(n)) shows none, a last probe below
    _TOL_SMALL.  Infinite: it diverges like a power of n.  Anything else is
    Indeterminate.  Ranks that do not increase are refused.
    """
    schedule = list(schedule)
    vals = v.values(schedule)
    limit = extract_limit(vals, schedule, tol=max(_TOL_SMALL * 1e-3, 1e-12))
    if limit is not None and abs(limit[0]) >= _TOL_SMALL:
        return NumberClass.FINITE_APPRECIABLE
    tail = [abs(x) for x in vals[-4:]]
    if all(b <= a for a, b in zip(tail, tail[1:])) and \
            (limit is not None or tail[-1] < _TOL_SMALL):
        return NumberClass.INFINITESIMAL
    if limit is None and power_law_exponent(schedule, vals) is not None:
        return NumberClass.INFINITE
    return NumberClass.INDETERMINATE


def shadow(v, schedule=DEFAULT_SCHEDULE, tol=1e-9):
    """Standard part: the real limit of the sequence, or None.

    Constants are returned exactly; for sequences with O(1/n) error the
    extrapolated value is within tol of the true limit.
    """
    if v.tag == "const":
        return v.value_at(1)
    res = extract_limit(v.values(list(schedule)), list(schedule), tol=tol)
    if res is None:
        return None
    return res[0]


_RELATIONS = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
              ">=": operator.ge, ">": operator.gt}


#: The shortest stable suffix on which `eventually_compare` decides.
_MIN_STABLE = 4


def eventually_compare(a, b, rel, schedule=DEFAULT_SCHEDULE):
    """Decide an eventual order relation between two virtual numbers.

    Holds/Fails require the relation (resp. its negation) to be stable on a
    suffix of the probe schedule of length >= _MIN_STABLE; the cutoff rank is
    the first rank of the maximal stable suffix.
    """
    if rel not in _RELATIONS:
        raise ValueError(f"unknown relation {rel!r}")
    cmp = _RELATIONS[rel]
    schedule = list(schedule)
    flags = [cmp(a.value_at(n), b.value_at(n)) for n in schedule]

    def stable_suffix(fs):
        i = len(fs)
        while i > 0 and fs[i - 1]:
            i -= 1
        return len(fs) - i, i  # (suffix length, start index)

    length, start = stable_suffix(flags)
    if length >= _MIN_STABLE:
        return OrderVerdict("holds", cutoff_rank=schedule[start])
    length, start = stable_suffix([not f for f in flags])
    if length >= _MIN_STABLE:
        return OrderVerdict("fails", cutoff_rank=schedule[start])
    return OrderVerdict("undetermined")
