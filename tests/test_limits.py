import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from deltacalc.limits import (
    DEFAULT_SCHEDULE,
    aitken,
    extract_limit,
    looks_divergent,
    power_law_exponent,
    richardson_diagonal,
)


def test_schedules():
    assert DEFAULT_SCHEDULE[0] == 16
    assert DEFAULT_SCHEDULE[-1] == 2**20
    assert len(DEFAULT_SCHEDULE) == 17


def test_richardson_geometric_1_over_n():
    sched = list(DEFAULT_SCHEDULE)
    vals = [2.0 + 1.0 / n for n in sched]
    diag = richardson_diagonal(vals, 2.0)
    assert abs(diag[-1] - 2.0) < 1e-12


def test_richardson_two_term_error():
    sched = list(DEFAULT_SCHEDULE)
    vals = [5.0 + 3.0 / n - 7.0 / n**2 for n in sched]
    res = extract_limit(vals, sched, tol=1e-9)
    assert res is not None
    assert abs(res[0] - 5.0) < 1e-9


def test_aitken_linear_convergence():
    vals = [1.0 + 0.5**k for k in range(12)]
    acc = aitken(vals)
    assert abs(acc[-1] - 1.0) < 1e-9


def test_divergent_is_not_resummed():
    # Richardson on 1 + 6n with ratio 2 would "converge" to 1; the raw
    # growth check must block that.
    sched = list(DEFAULT_SCHEDULE)
    vals = [1.0 + 6.0 * n for n in sched]
    assert looks_divergent(vals)
    assert extract_limit(vals, sched, tol=1e-9) is None


def test_oscillating_sequence_has_no_limit():
    sched = list(range(1, 40))
    vals = [(-1.0) ** n for n in sched]
    assert extract_limit(vals, sched, tol=1e-9) is None


def test_raw_stabilization_short_circuit():
    sched = [1, 2, 3, 4, 5]
    vals = [3.0, 3.0, 4.0, 4.0, 4.0]
    res = extract_limit(vals, sched, tol=1e-9)
    assert res == (4.0, 0.0)


def test_power_law_fit():
    sched = list(DEFAULT_SCHEDULE)
    vals = [2.0 * math.sqrt(n) for n in sched]
    fit = power_law_exponent(sched, vals)
    assert fit is not None
    p, r2, sign = fit
    assert abs(p - 0.5) < 1e-6
    assert r2 > 0.999
    assert sign == 1.0


def test_power_law_rejects_convergent():
    sched = list(DEFAULT_SCHEDULE)
    vals = [1.0 + 1.0 / n for n in sched]
    assert power_law_exponent(sched, vals) is None


def test_power_law_negative_sign():
    sched = list(DEFAULT_SCHEDULE)
    vals = [-3.0 * n for n in sched]
    fit = power_law_exponent(sched, vals)
    assert fit is not None
    assert fit[2] == -1.0


def test_overflowing_table_gives_no_infinite_limit():
    # Near the float max, factor * I_n overflows in the Richardson table;
    # neither an infinite limit nor an infinite error is accepted.
    sched = list(DEFAULT_SCHEDULE[:7])
    vals = [1.1093689696227817e308 * (1.0 + 0.08 / n**2) for n in sched]
    assert math.isinf(richardson_diagonal(vals, 2.0)[1])
    assert extract_limit(vals, sched, tol=1e-9) is None


def _looks_divergent_on_arrays(values):
    # The same growth check in numpy, as a reference for the float loop.
    v = np.asarray(values, dtype=float)
    if len(v) < 5:
        return False
    tail = v[-5:]
    inc = np.abs(np.diff(tail))
    if np.any(inc == 0.0):
        return False
    ratios = inc[1:] / inc[:-1]
    growing_mag = np.all(np.abs(tail[1:]) >= np.abs(tail[:-1]))
    return bool(np.all(ratios >= 0.95) and growing_mag and abs(v[-1]) > abs(v[-5]))


@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from([0.0, 1.0, -1.0, 2.0])), max_size=12))
def test_growth_check_matches_its_array_form(values):
    assert looks_divergent(values) == _looks_divergent_on_arrays(values)
