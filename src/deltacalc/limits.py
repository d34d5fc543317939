"""Limit extraction and divergence rates of rank-indexed sequences, by one
rule: the observed order of a column's increments, the alpha at which they
shrink as those of n^-alpha do (Roache, 1998; Richardson's own check on his
deferred approach to the limit).  A limit comes from the levels of one
Richardson table against I_n = L + sum_k c_k / n^k whose columns show the
orders it predicts; a raw sequence whose order settles below 0 diverges
like n^-alpha; anything else, log growth among it, is undetermined.
"""

from __future__ import annotations

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
    level = list(values)
    columns = [level]
    for m in range(1, min(len(values) - 1, 8) + 1):
        level = [((r := q / p) * b - a) / (r - 1.0)
                 for a, b, p, q in zip(level, level[1:], ranks, ranks[m:])]
        columns.append(level)
    return columns


def _order(ratio, h1, h2):
    """The alpha at which n^-alpha has successive increments in `ratio` on
    ranks log-spaced by h1 then h2: the root of g = log(expm1(alpha h1) /
    -expm1(-alpha h2) / ratio), whose slope moves monotonically from h2 to
    h1.  So past the first, Newton steps from log(ratio) / h1, the root on
    geometric ranks (h1 == h2), go one way until rounding stops them."""
    target = math.log(ratio)
    if h1 == h2:
        return target / h1

    def step(alpha):
        # m_i = 1 - e^(-|alpha| h_i) lies in [0, 1]: nothing overflows.
        m1, m2 = -math.expm1(-abs(alpha) * h1), -math.expm1(-abs(alpha) * h2)
        if not m1 * m2:  # alpha is 0 to rounding
            return (math.log(h1 / h2) - target) * 2.0 / (h1 + h2)
        d = h1 / m1 - h1 - h2 / m2 + h2
        h, slope = (h1, h1 + d) if alpha > 0.0 else (h2, h2 - d)
        return (alpha * h - target + math.log(m1 / m2)) / slope

    alpha = target / h1
    alpha -= step(alpha)
    first = s = step(alpha)
    while s and (s > 0.0) == (first > 0.0) and alpha - s != alpha:
        alpha -= s
        s = step(alpha)
    return alpha


def _orders(column, ranks, m, floor, count):
    """Orders of the last `count` pairs of increments of column m, whose
    entry i stands for the geometric mean of ranks i..i+m: inf where the
    later is within `floor` (settled), -inf where the pair has no order."""
    out = []
    for i in range(max(len(column) - 2 - count, 0), len(column) - 2):
        d0, d1 = column[i + 1] - column[i], column[i + 2] - column[i + 1]
        out.append(math.inf if abs(d1) <= floor else
                   -math.inf if abs(d0) <= floor or (d0 > 0.0) != (d1 > 0.0) else
                   _order(d0 / d1, math.log(ranks[i + m + 1] / ranks[i]) / (m + 1),
                          math.log(ranks[i + m + 2] / ranks[i + 1]) / (m + 1)))
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
    columns = richardson_table([x / unit for x in v], schedule)
    floor = max(_ROUNDING_ULPS * math.ulp(big / unit), noise * big / unit)
    deepest = depth = -1  # the deepest level that counts; depth adds those too short
    for m, column in enumerate(columns):
        orders = _orders(column, schedule, m, floor, 2)
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
    orders = _orders(v, schedule, 0, _ROUNDING_ULPS * math.ulp(max(map(abs, v))), 3)
    if all(map(math.isfinite, orders)) and max(orders) - min(orders) <= _SLACK \
            and orders[-1] <= -_SLACK:
        return -orders[-1], 1.0 if v[-1] > 0 else -1.0
    return None
