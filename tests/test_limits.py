import math

import pytest

from deltacalc.limits import (
    DEFAULT_SCHEDULE,
    extract_limit,
    power_law_exponent,
    richardson_table,
)


def richardson_diagonal(values, ranks):
    return [column[-1] for column in richardson_table(values, ranks)]


def test_schedules():
    assert DEFAULT_SCHEDULE[0] == 16
    assert DEFAULT_SCHEDULE[-1] == 2**20
    assert len(DEFAULT_SCHEDULE) == 17


def test_richardson_geometric_1_over_n():
    sched = list(DEFAULT_SCHEDULE)
    vals = [2.0 + 1.0 / n for n in sched]
    diag = richardson_diagonal(vals, sched)
    assert abs(diag[-1] - 2.0) < 1e-12


def test_richardson_two_term_error():
    sched = list(DEFAULT_SCHEDULE)
    vals = [5.0 + 3.0 / n - 7.0 / n**2 for n in sched]
    res = extract_limit(vals, sched, tol=1e-9)
    assert res is not None
    assert abs(res[0] - 5.0) < 1e-9


NON_UNIFORM_SCHEDULES = [list(range(10, 100, 10)), [16, 24, 40, 64, 100, 160, 256, 400]]


@pytest.mark.parametrize("sched", NON_UNIFORM_SCHEDULES)
def test_two_term_error_on_non_uniform_ranks(sched):
    # Each table entry takes its own rank ratio, so 1/n and 1/n^2 are
    # eliminated on any increasing schedule.
    vals = [5.0 + 3.0 / n - 7.0 / n**2 for n in sched]
    limit, err = extract_limit(vals, sched, tol=1e-9)
    assert abs(limit - 5.0) < 1e-12
    assert err < 1e-12


# Diagonals on the default schedule's ranks, as the table gave them when it
# took the one ratio 2 for every entry: on ratio-2 ranks, r = 2^m exactly.
PINNED_DIAGONALS = [
    (7, lambda n: math.pi + math.sin(n) / n**2,
     ["0x1.921fb3ff95ab7p+1", "0x1.921fb02f7e270p+1", "0x1.921f82299c2e8p+1",
      "0x1.921f43c541ab9p+1", "0x1.921f1a860b665p+1", "0x1.921f036e8c5a6p+1",
      "0x1.921ef73f9422dp+1"]),
    (10, lambda n: 3.0 * math.exp(1.0 / n),
     ["0x1.800c003000800p+1", "0x1.7fffff9ffd000p+1", "0x1.8000000004005p+1",
      "0x1.7fffffffffffep+1"] + ["0x1.8000000000002p+1"] * 5),
]


@pytest.mark.parametrize("count, seq, diag", PINNED_DIAGONALS)
def test_ratio_two_diagonal_is_pinned(count, seq, diag):
    sched = list(DEFAULT_SCHEDULE[:count])
    assert [x.hex() for x in richardson_diagonal([seq(n) for n in sched], sched)] == diag


@pytest.mark.parametrize("seq, expected", [
    (lambda n: 3.0 * math.exp(1.0 / n), ("0x1.7fffffffffffdp+1", "0x1.0000000000000p-50")),
    (lambda n: 1e300 * (7.0 + 1.0 / n), ("0x1.4e7b4f70066e8p+999", "0x0.0p+0")),
    (lambda n: 1e-200 * (7.0 + 1.0 / n), ("0x1.56ef0cfc94354p-662", "0x1.87e92154f0000p-676")),
])
def test_table_over_a_power_of_two_keeps_the_bits(seq, expected):
    # The table runs on the values over a power of two of their largest,
    # which is exact: limits and errors are those of the values as they are.
    sched = list(DEFAULT_SCHEDULE[:9])
    res = extract_limit([seq(n) for n in sched], sched, tol=1e-9)
    assert tuple(x.hex() for x in res) == expected


@pytest.mark.parametrize("sched", [[16, 32, 32, 64, 128], [16, 64, 32, 128, 256]])
def test_ranks_that_do_not_increase_are_refused(sched):
    # A repeated rank would divide by zero in the table.
    with pytest.raises(ValueError, match="strictly increasing"):
        extract_limit([1.0 + 1.0 / n for n in sched], sched)


def test_divergent_is_not_resummed():
    # Richardson on 1 + 6n with ratio 2 would "converge" to 1; the raw
    # values' observed order, -1, must block that.
    sched = list(DEFAULT_SCHEDULE)
    vals = [1.0 + 6.0 * n for n in sched]
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
    p, sign = fit
    assert abs(p - 0.5) < 1e-6
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
    assert fit[1] == -1.0


def test_overflowing_table_gives_no_infinite_limit():
    # Near the float max, r * I_n overflows in a table on the values as
    # they are; extract_limit runs it on the values over a power of two, so
    # the limit and its error are finite.
    sched = list(DEFAULT_SCHEDULE[:7])
    limit_true = 1.1093689696227817e308
    vals = [limit_true * (1.0 + 0.08 / n**2) for n in sched]
    assert math.isinf(richardson_diagonal(vals, sched)[1])
    limit, err = extract_limit(vals, sched, tol=1e-9)
    assert math.isfinite(err)
    assert abs(limit - limit_true) <= 1e-12 * limit_true
