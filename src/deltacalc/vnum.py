"""Virtual numbers: rank-indexed real sequences with arithmetic and probes.

A virtual number is represented by a single canonical sequence n -> value.
All order/size questions are decided by probing the sequence on a schedule
of ranks, with an explicit Undetermined outcome when the probes do not
stabilize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import RankEvaluationError
from .limits import DEFAULT_SCHEDULE, extract_limit

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


class VirtualNumber:
    """Rank-indexed real sequence. Immutable; values computed lazily."""

    __slots__ = ("_fn", "tag")

    def __init__(self, fn, tag=None):
        self._fn = fn
        self.tag = tag

    def value_at(self, n):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"rank must be a positive integer, got {n!r}")
        v = float(self._fn(n))
        if not math.isfinite(v):
            raise RankEvaluationError("sequence value is not finite", n)
        return v

    def values(self, schedule=DEFAULT_SCHEDULE):
        return [self.value_at(n) for n in schedule]

    # -- arithmetic (pointwise per rank, exact in 64-bit floats) ----------

    @staticmethod
    def _coerce(x):
        if isinstance(x, VirtualNumber):
            return x
        return make_const(float(x))

    def __add__(self, other):
        other = self._coerce(other)
        return VirtualNumber(lambda n, a=self, b=other: a.value_at(n) + b.value_at(n))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return VirtualNumber(lambda n, a=self, b=other: a.value_at(n) - b.value_at(n))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        return VirtualNumber(lambda n, a=self, b=other: a.value_at(n) * b.value_at(n))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)

        def quot(n, a=self, b=other):
            d = b.value_at(n)
            if d == 0.0:
                raise RankEvaluationError("division by a rank-zero value", n)
            return a.value_at(n) / d

        return VirtualNumber(quot)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        return VirtualNumber(lambda n, a=self: -a.value_at(n))

    def __abs__(self):
        return VirtualNumber(lambda n, a=self: abs(a.value_at(n)))

    def __pow__(self, k):
        k = int(k)
        return VirtualNumber(lambda n, a=self: a.value_at(n) ** k)

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


#: Magnitude below which `classify` calls a sequence small, and the margin
#: below the schedule's step ratio that still counts as growth.
_TOL_SMALL, _GROWTH_MARGIN = 1e-6, 0.5


def classify(v, schedule=DEFAULT_SCHEDULE):
    """Classify a virtual number by probing its sequence.

    Infinitesimal: |v| at the last probe is below _TOL_SMALL and the
    magnitude trend over the last 4 probes is non-increasing.  Infinite: the
    magnitude multiplies by at least (schedule step ratio - _GROWTH_MARGIN)
    on each of the last 4 steps.  FiniteAppreciable: the probes extrapolate
    to a nonzero limit.  Anything else is Indeterminate.
    """
    schedule = list(schedule)
    if len(schedule) < 4 or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must contain >= 4 strictly increasing ranks")
    vals = v.values(schedule)
    mags = [abs(x) for x in vals]

    tail = mags[-4:]
    if mags[-1] < _TOL_SMALL and all(b <= a for a, b in zip(tail, tail[1:])):
        return NumberClass.INFINITESIMAL

    step_ratios = [schedule[i + 1] / schedule[i] for i in range(len(schedule) - 1)]
    growth_floor = [r - _GROWTH_MARGIN for r in step_ratios[-4:]]
    grew = [
        prev > 0 and cur / prev >= floor
        for prev, cur, floor in zip(mags[-5:-1], mags[-4:], growth_floor)
    ]
    if len(grew) == 4 and all(grew) and mags[-1] > 1.0:
        return NumberClass.INFINITE

    limit = extract_limit(vals, schedule, tol=max(_TOL_SMALL * 1e-3, 1e-12))
    if limit is not None and abs(limit[0]) >= _TOL_SMALL:
        return NumberClass.FINITE_APPRECIABLE
    if limit is not None and abs(limit[0]) < _TOL_SMALL and \
            all(b <= a for a, b in zip(tail, tail[1:])):
        return NumberClass.INFINITESIMAL
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


_RELATIONS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}


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
