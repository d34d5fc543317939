"""Limit extraction and divergence-rate estimation for rank-indexed sequences.

Every standard part comes from one Richardson table against the error
model sum_k c_k / n^k, on the schedule's own rank ratios, so geometric
(n = 2^k) and non-uniform schedules are extrapolated alike.
"""

from __future__ import annotations

import math
import operator

import numpy as np

#: Default probe schedule: n = 2^k for k = 4..20.
DEFAULT_SCHEDULE = tuple(2**k for k in range(4, 21))


def richardson_diagonal(values, ranks):
    """Diagonal of the Richardson table for I_n = L + sum_k c_k / n^k on
    distinct `ranks`: level m eliminates 1/n^m, each entry by its own ratio
    r = n_{i+m} / n_i (Neville's form).  On ratio-2 ranks r is exactly 2^m."""
    level = list(values)
    diag = [level[-1]]
    depth = min(len(values) - 1, 8)
    for m in range(1, depth + 1):
        level = [((r := q / p) * b - a) / (r - 1.0)
                 for a, b, p, q in zip(level, level[1:], ranks, ranks[m:])]
        diag.append(level[-1])
    return diag


def _increments(v):
    """|v[i+1] - v[i]| for a list of floats.  Sequences here have a few
    dozen terms at most: on floats, numpy calls would cost more than the
    arithmetic."""
    return [abs(b - a) for a, b in zip(v, v[1:])]


def looks_divergent(values):
    """Heuristic growth check applied before any extrapolation.

    Richardson extrapolation happily resums geometric divergence (e.g.
    1 + 6n on a ratio-2 schedule extrapolates to 1), so growing sequences
    must be caught on the raw values.
    """
    v = [float(x) for x in values]
    if len(v) < 5:
        return False
    tail = v[-5:]
    inc = _increments(tail)
    if 0.0 in inc:
        return False
    ratios = [b / a for a, b in zip(inc, inc[1:])]
    growing_mag = all(abs(b) >= abs(a) for a, b in zip(tail, tail[1:]))
    return all(r >= 0.95 for r in ratios) and growing_mag and abs(v[-1]) > abs(v[-5])


#: Error floor of a limit near the float max, in ulps of the limit: a rank
#: value's rounding, which a ratio-2 table of depth <= 8 amplifies up to
#: about 8-fold, and eps * |L| is up to 2 ulps of L.
_NEAR_MAX_ULPS = 16


def extract_limit(values, schedule, tol=1e-9):
    """Return (limit, error_estimate) or None if the sequence does not settle.

    `schedule` holds the strictly increasing ranks of `values`.  Acceptance
    rule: two successive entries of the Richardson diagonal (or raw values)
    agree within tol relative to max(1, |limit|).
    """
    if not all(map(operator.lt, schedule, schedule[1:])):
        raise ValueError(f"ranks must be strictly increasing, got {list(schedule)}")
    v = [float(x) for x in values]
    if len(v) < 3:
        return None
    if not all(math.isfinite(x) for x in v):
        return None
    scale = max(1.0, abs(v[-1]))
    # Raw stabilization first: avoids Richardson noise amplification on
    # sequences that are already converged to rounding level.
    if abs(v[-1] - v[-2]) <= tol * scale and abs(v[-2] - v[-3]) <= tol * scale:
        return v[-1], max(abs(v[-1] - v[-2]), abs(v[-2] - v[-3]))
    if looks_divergent(v):
        return None
    # Acceleration can also resum bounded oscillation, so require the raw
    # increments to be dying before extrapolating.
    inc = _increments(v)
    if max(inc) > 0.0 and inc[-1] > 0.5 * max(inc) and inc[-1] > tol * scale:
        return None

    # The table runs on the values over a power of two of their largest,
    # exact in binary, so that r * I_n stays below the float max.  Limit
    # and error are multiplied back before the test: its floor of 1 is in
    # the sequence's own units.
    big = max(map(abs, v))
    unit = 2.0 ** (math.frexp(big)[1] - 1)
    diag = richardson_diagonal([x / unit for x in v], schedule)
    err, limit = math.inf, math.nan
    for a, b in zip(diag, diag[1:]):
        if abs(b - a) < err:
            err, limit = abs(b - a), b
    limit, err = limit * unit, err * unit
    # Where the table on the values as they are could overflow (r * I_n -
    # I_m past the float max), only the scaling gives an answer, and a
    # diagonal that settles to its last bit there is no error bar: err is
    # at least _NEAR_MAX_ULPS ulps of the limit.  Elsewhere err is the
    # diagonal's own, which can read 0 at rounding level.
    if not math.isfinite(big * (1.0 + schedule[-1] / schedule[0])):
        err = max(err, _NEAR_MAX_ULPS * math.ulp(limit))
    if math.isfinite(limit) and err <= tol * max(1.0, abs(limit)):
        return limit, err
    return None


#: Probes in the power-law fit, and the R^2 and exponent it must exceed.
_FIT_TAIL, _FIT_R2_MIN, _FIT_P_MIN = 8, 0.99, 0.05


def power_law_exponent(schedule, values):
    """Fit |I_n| ~ C n^p on the last _FIT_TAIL probes by log-log regression.

    Returns (p, r_squared, sign) when the fit certifies power-law growth
    (R^2 above _FIT_R2_MIN, p above _FIT_P_MIN), otherwise None.
    """
    ns = np.asarray(schedule, dtype=float)[-_FIT_TAIL:]
    vs = np.asarray(values, dtype=float)[-_FIT_TAIL:]
    if len(ns) < 4 or np.any(~np.isfinite(vs)) or np.any(np.abs(vs) == 0.0):
        return None
    x = np.log(ns)
    y = np.log(np.abs(vs))
    p, b = np.polyfit(x, y, 1)
    fit = p * x + b
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        return None
    r2 = 1.0 - ss_res / ss_tot
    if r2 > _FIT_R2_MIN and p > _FIT_P_MIN:
        return float(p), r2, 1.0 if vs[-1] > 0 else -1.0
    return None
