"""Limit extraction and divergence-rate estimation for rank-indexed sequences.

The probe schedules used throughout the engine are geometric (n = 2^k), so
Richardson extrapolation against an error model sum_k c_k / n^k is the
workhorse; iterated Aitken is the fallback for non-uniform schedules.
"""

from __future__ import annotations

import math

import numpy as np

#: Default probe schedule: n = 2^k for k = 4..20.
DEFAULT_SCHEDULE = tuple(2**k for k in range(4, 21))


def richardson_diagonal(values, ratio):
    """Diagonal of the Richardson table for error terms ~ ratio^{-k}."""
    level = list(values)
    diag = [level[-1]]
    depth = min(len(values) - 1, 8)
    for m in range(1, depth + 1):
        factor = float(ratio) ** m
        level = [
            (factor * level[i + 1] - level[i]) / (factor - 1.0)
            for i in range(len(level) - 1)
        ]
        diag.append(level[-1])
    return diag


def aitken(values):
    s = np.asarray(values, dtype=float)
    d1 = s[2:] - s[1:-1]
    d0 = s[1:-1] - s[:-2]
    den = d1 - d0
    out = np.where(np.abs(den) > 1e-300, s[2:] - d1 * d1 / np.where(den == 0, 1.0, den), s[2:])
    return out


def _increments(v):
    """|v[i+1] - v[i]| for a list of floats.  Sequences here have a few
    dozen terms at most: on floats, numpy calls would cost more than the
    arithmetic."""
    return [abs(b - a) for a, b in zip(v, v[1:])]


def looks_divergent(values):
    """Heuristic growth check applied before any extrapolation.

    Richardson/Aitken happily resum geometric divergence (e.g. 1 + 6n on a
    ratio-2 schedule extrapolates to 1), so growing sequences must be caught
    on the raw values.
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


def _uniform_ratio(schedule):
    r = [schedule[i + 1] / schedule[i] for i in range(len(schedule) - 1)]
    if max(r) - min(r) < 1e-9 * max(r):
        return r[0]
    return None


def extract_limit(values, schedule, tol=1e-9):
    """Return (limit, error_estimate) or None if the sequence does not settle.

    Acceptance rule: two successive accelerated (or raw) values agree within
    tol relative to max(1, |limit|).
    """
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
    # Acceleration can also resum bounded oscillation (Aitken maps +-1 to 0),
    # so require the raw increments to be dying before extrapolating.
    inc = _increments(v)
    if max(inc) > 0.0 and inc[-1] > 0.5 * max(inc) and inc[-1] > tol * scale:
        return None

    ratio = _uniform_ratio(schedule)
    if ratio is not None:
        diag = richardson_diagonal(v, ratio)
    else:
        diag = list(v)
        while len(diag) >= 3 and len(diag) > len(v) - 6:
            diag = list(aitken(diag))
        diag = diag[-6:] if len(diag) > 6 else diag

    # Near the float max the table overflows: a limit or an error that is
    # not finite is never accepted.
    best = None
    for i in range(len(diag) - 1):
        err = abs(diag[i + 1] - diag[i])
        if math.isfinite(err) and (best is None or err < best[0]):
            best = (err, diag[i + 1])
    if best is None:
        return None
    err, limit = best
    if err <= tol * max(1.0, abs(limit)):
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
