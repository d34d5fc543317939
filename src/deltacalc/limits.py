"""Limit extraction and divergence rates of rank-indexed sequences, by one
rule: the observed order of a column's increments, the alpha at which they
shrink as those of n^-alpha do (Roache, 1998; Richardson's own check on his
deferred approach to the limit).  A limit comes from the levels of one
Richardson table against I_n = L + sum_k c_k / n^k whose columns show the
orders it predicts; a raw sequence whose order settles below 0 diverges
like n^-alpha; anything else, log growth among it, is undetermined.
"""

from __future__ import annotations

import functools
import math
import operator

#: Default probe schedule: n = 2^k for k = 4..20.
DEFAULT_SCHEDULE = tuple(2**k for k in range(4, 21))

#: How far an observed order may read below the model's, and how far the
#: orders that settle a divergence may spread and must lie below 0.
_SLACK = 0.25

#: Rounding level, in ulps of a sequence's largest magnitude: a value's
#: rounding, amplified up to 8-fold by a ratio-2 table, and eps * |L|.
_ROUNDING_ULPS = 16


def richardson_table(values, ranks):
    """Columns of the Richardson table on distinct `ranks`: column m
    eliminates 1/n^m, each entry by its own ratio r = n_{i+m} / n_i
    (Neville's form).  On ratio-2 ranks r is exactly 2^m."""
    return _table(values, _ratios(tuple(ranks)))


def _table(values, ratios):
    """`richardson_table` on the ranks whose `_ratios` are given."""
    level = list(values)
    columns = [level]
    for m in range(1, min(len(level) - 1, 8) + 1):
        level = [(r * b - a) / s for a, b, (r, s, _h) in
                 zip(level, level[1:], ratios[m] if m < len(ratios) else ())]
        columns.append(level)
    return columns


@functools.lru_cache(maxsize=64)
def _ratios(ranks):
    """Per column m of the table on the tuple `ranks`, each entry's ratio
    r = n_{i+m} / n_i, r - 1, and log(r) / m, the log-spacing of the ranks
    that column m - 1's entries stand for: computed once per schedule,
    whose prefixes every reduction reads again."""
    return [[(r, r - 1.0, math.log(r) / m if m else 0.0)
             for r in (q / p for p, q in zip(ranks, ranks[m:]))]
            for m in range(min(len(ranks), 10))]


def _order(ratio, h1, h2):
    """The alpha at which n^-alpha has successive increments in `ratio` on
    ranks log-spaced by h1 then h2: log(ratio) / h1 on geometric ranks
    (h1 == h2), else the root, by bisection, of the increasing g = alpha h
    + log(m1 / m2) - log(ratio), with h = h1 above 0 and h2 below and m_i =
    1 - e^(-|alpha| h_i) in [0, 1] (m1 / m2 is h1 / h2 at alpha 0 to
    rounding).  As |log(m1 / m2)| <= |log(h1 / h2)|, g changes sign on the
    bracket."""
    target = math.log(ratio)
    if h1 == h2:
        return target / h1
    spread = math.log(h1 / h2)

    def g(alpha):
        m1, m2 = -math.expm1(-abs(alpha) * h1), -math.expm1(-abs(alpha) * h2)
        return (alpha * (h1 if alpha > 0.0 else h2) - target
                + (math.log(m1 / m2) if m1 * m2 else spread))

    bound = (abs(target) + abs(spread)) / min(h1, h2) + 1.0
    lo, hi = -bound, bound
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if g(mid) > 0.0 else (mid, hi)
    return mid


def _orders(column, steps, floor, count):
    """Orders of the last `count` pairs of increments of a column m of the
    table, whose entry i stands for the geometric mean of ranks i..i+m and
    whose `steps` are column m + 1 of `_ratios`: inf where the later is
    within `floor` (settled), -inf where the pair has no order."""
    out = []
    for i in range(max(len(column) - 2 - count, 0), len(column) - 2):
        a, b, c = column[i:i + 3]
        d0, d1 = b - a, c - b
        if abs(d1) <= floor:
            out.append(math.inf)
        elif abs(d0) <= floor or (d0 > 0.0) != (d1 > 0.0):
            out.append(-math.inf)
        else:
            h1, h2 = steps[i][2], steps[i + 1][2]
            out.append(math.log(d0 / d1) / h1 if h1 == h2 else _order(d0 / d1, h1, h2))
    return out


def extract_limit(values, schedule, tol=1e-9, noise=0.0):
    """(limit, error) of `values` on strictly increasing ranks, or None.

    The raw values serve where their last two increments are within tol
    relative to max(1, |limit|).  Else level m of the Richardson table
    counts while its last three increments show orders of at least
    m + 1 - _SLACK or have settled: within `noise` (the values' relative
    accuracy, as quadrature's target) or _ROUNDING_ULPS ulps of max|I_n|.
    The limit is the later of the two diagonal entries that agree best, up
    to the levels too short to show an order (a 3-entry column shows one).
    The error, within tol, is the deepest counting level's tail bound plus
    the limit's distance from it; once settled, the best agreement, but at
    least that level's last increment.
    """
    if not all(map(operator.lt, schedule, schedule[1:])):
        raise ValueError(f"ranks must be strictly increasing, got {list(schedule)}")
    v = [float(x) for x in values]
    if len(v) < 3 or not all(map(math.isfinite, v)):
        return None
    # Raw stabilization first: avoids Richardson noise amplification on
    # sequences that are already converged to rounding level.
    raw = max(abs(v[-1] - v[-2]), abs(v[-2] - v[-3]))
    if raw <= tol * max(1.0, abs(v[-1])):
        return v[-1], raw

    # The table runs on the values over a power of two of their largest,
    # exact in binary, so that r * I_n stays below the float max.  Limit
    # and error are multiplied back before the test: its floor of 1 is in
    # the sequence's own units.
    big = max(map(abs, v))
    unit = 2.0 ** (math.frexp(big)[1] - 1)
    ratios = _ratios(tuple(schedule))
    columns = _table([x / unit for x in v], ratios)
    floor = max(_ROUNDING_ULPS * math.ulp(big / unit), noise * big / unit)
    deepest = depth = -1  # the deepest level that counts; depth adds those too short
    for m, column in enumerate(columns):
        orders = _orders(column, ratios[m + 1] if m + 1 < len(ratios) else (), floor, 2)
        if orders and min(orders) < m + 1 - _SLACK:
            break
        depth, deepest = m, m if orders else deepest
    if deepest < 0:
        return None
    # Increments that shrink at order m + 1 - _SLACK or faster sum to at
    # most the last over (r^(m + 1 - _SLACK) - 1): Richardson's estimate.
    last = columns[deepest]
    inc = abs(last[-1] - last[-2])
    h = math.log(schedule[-1] / schedule[-deepest - 2]) / (deepest + 1)
    bound = inc / math.expm1((deepest + 1 - _SLACK) * h)
    err, limit = min([(abs(b[-1] - a[-1]), b[-1])
                      for a, b in zip(columns, columns[1:depth + 1])] + [(bound, last[-1])],
                     key=operator.itemgetter(0))
    err = max(err, inc) if inc <= floor else bound + abs(limit - last[-1])
    limit, err = limit * unit, err * unit
    # Where the table on the values as they are could overflow (r * I_n -
    # I_m past the float max), only the scaling gives an answer, and a
    # diagonal that settles to its last bit there is no error bar: err is
    # at least _ROUNDING_ULPS ulps of the limit.
    if not math.isfinite(big * (1.0 + schedule[-1] / schedule[0])):
        err = max(err, _ROUNDING_ULPS * math.ulp(limit))
    if math.isfinite(limit) and err <= tol * max(1.0, abs(limit)):
        return limit, err
    return None


def power_law_exponent(schedule, values):
    """(p, sign) where the raw sequence diverges like sign * n^p: the
    orders of its last four increments lie within _SLACK of one another,
    and the last, -p, at least _SLACK below 0.  Otherwise None."""
    v = [float(x) for x in values]
    if len(v) < 5 or not all(map(math.isfinite, v)):
        return None
    floor = _ROUNDING_ULPS * math.ulp(max(map(abs, v)))
    orders = _orders(v, _ratios(tuple(schedule))[1], floor, 3)
    if all(map(math.isfinite, orders)) and max(orders) - min(orders) <= _SLACK \
            and orders[-1] <= -_SLACK:
        return -orders[-1], 1.0 if v[-1] > 0 else -1.0
    return None
