import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltacalc.errors import RankEvaluationError
from deltacalc.vintegral import reduce_sequence
from deltacalc.vnum import (
    DEFAULT_SCHEDULE,
    NumberClass,
    VirtualNumber,
    classify,
    eventually_compare,
    from_sequence,
    make_const,
    omega,
    partial,
    shadow,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_omega_and_partial_values():
    w = omega()
    p = partial()
    assert w.value_at(7) == 7.0
    assert p.value_at(8) == 0.125
    prod = w * p
    assert all(prod.value_at(n) == 1.0 for n in (1, 2, 17, 1024))


@given(finite, finite)
@settings(max_examples=60, deadline=None)
def test_arithmetic_is_exact_per_rank(a, b):
    # Per-rank arithmetic must agree exactly with 64-bit float arithmetic.
    va, vb = make_const(a), make_const(b)
    for n in (1, 3, 100):
        assert (va + vb).value_at(n) == a + b
        assert (va - vb).value_at(n) == a - b
        assert (va * vb).value_at(n) == a * b


@given(finite)
@settings(max_examples=40, deadline=None)
def test_negation_antisymmetry(a):
    v = make_const(a)
    assert (-(-v)).value_at(5) == v.value_at(5)
    assert (v + (-v)).value_at(5) == 0.0


def test_division_by_rank_zero_raises():
    num = make_const(1.0)
    den = from_sequence(lambda n: 0.0 if n == 3 else 1.0)
    q = num / den
    assert q.value_at(2) == 1.0
    with pytest.raises(RankEvaluationError, match="division by a rank-zero value"):
        q.value_at(3)
    # A value that is not finite, or that overflows, is refused at its rank.
    with pytest.raises(RankEvaluationError, match="not a finite real") as info:
        from_sequence(lambda n: math.inf if n == 5 else 1.0).value_at(5)
    assert info.value.rank == 5
    with pytest.raises(RankEvaluationError, match="not a finite real"):
        (omega() ** 1000).value_at(2**20)


def test_classify_partial_is_infinitesimal():
    assert classify(partial()) is NumberClass.INFINITESIMAL


def test_classify_omega_is_infinite():
    assert classify(omega()) is NumberClass.INFINITE


def test_classify_finite_appreciable():
    v = from_sequence(lambda n: 2.0 + 1.0 / n)
    assert classify(v) is NumberClass.FINITE_APPRECIABLE


SLOW_SCHEDULES = [list(range(10, 100, 10)), [3 * k * k for k in range(2, 11)]]


@pytest.mark.parametrize("sched", SLOW_SCHEDULES)
@pytest.mark.parametrize("seq, expected", [
    (lambda n: 2.0 + 1.0 / n, NumberClass.FINITE_APPRECIABLE),
    (lambda n: float(n), NumberClass.INFINITE),
    (lambda n: 1.0 / n, NumberClass.INFINITESIMAL),
])
def test_classify_on_schedules_with_step_ratios_under_1_5(sched, seq, expected):
    # The observed order solves for each step's own rank ratio, however
    # close to 1, so a bounded sequence is not read as infinite.
    assert classify(from_sequence(seq), schedule=sched) is expected


@pytest.mark.parametrize("sched", SLOW_SCHEDULES)
def test_shadow_on_non_uniform_schedules(sched):
    assert abs(shadow(from_sequence(lambda n: 2.0 + 1.0 / n), schedule=sched) - 2.0) < 1e-12


def test_slow_decay_below_the_small_magnitude_is_infinitesimal():
    # A support radius that shrinks like n^-0.5 shows no order of the
    # table, so no limit; its magnitudes, below _TOL_SMALL and shrinking,
    # still make it infinitesimal, as check_dirac's condition (iii) needs.
    v = from_sequence(lambda n: 1e-3 / math.sqrt(n))
    assert classify(v) is NumberClass.INFINITESIMAL


def test_classify_alternating_is_indeterminate():
    # A power-of-two schedule would see (-1)^n as constant; probe on
    # consecutive ranks instead.
    v = from_sequence(lambda n: (-1.0) ** n)
    assert classify(v, schedule=range(1, 30)) is NumberClass.INDETERMINATE


def test_classify_decaying_oscillation():
    # Magnitudes shrink monotonically, so this never classifies as
    # appreciable or infinite even though the sign flips every rank.
    v = from_sequence(lambda n: ((-1.0) ** n) / n**2)
    cls = classify(v, schedule=range(1, 40))
    assert cls in (NumberClass.INFINITESIMAL, NumberClass.INDETERMINATE)


def test_shadow_const_exact():
    assert shadow(make_const(math.pi)) == math.pi


def test_shadow_extrapolates_1_over_n():
    v = from_sequence(lambda n: math.pi + 1.0 / n)
    s = shadow(v)
    assert s is not None
    assert abs(s - math.pi) < 1e-9


def test_shadow_none_for_divergent():
    assert shadow(omega()) is None


def test_eventually_compare_cutoff():
    # 1/n < 0.1 holds from rank 11 on.
    v = partial()
    verdict = eventually_compare(v, make_const(0.1), "<",
                                 schedule=range(1, 101))
    assert verdict.holds
    assert verdict.cutoff_rank == 11


def test_eventually_compare_fails():
    verdict = eventually_compare(omega(), make_const(5.0), "<",
                                 schedule=range(1, 101))
    assert verdict.variant == "fails"
    assert verdict.cutoff_rank == 5


def test_eventually_compare_undetermined():
    v = from_sequence(lambda n: (-1.0) ** n)
    verdict = eventually_compare(v, make_const(0.0), "<", schedule=range(1, 10))
    assert verdict.variant == "undetermined"
    with pytest.raises(ValueError, match="unknown relation '!='"):
        eventually_compare(v, make_const(0.0), "!=")


def test_pow_and_abs():
    v = from_sequence(lambda n: -2.0)
    assert abs(v).value_at(4) == 2.0
    assert (v**3).value_at(4) == -8.0
    # A real exponent is taken as it is: 4^2.5 = 32.
    assert (omega() ** 2.5).value_at(4) == 32.0
    # The real cube root of -8 is a complex power in floats: refused.
    with pytest.raises(RankEvaluationError, match="not a finite real") as info:
        (make_const(-8.0) ** (1 / 3)).value_at(2)
    assert info.value.rank == 2
    # n^-0.5 is infinitesimal, though slower than the table's orders.
    assert classify(partial() ** 0.5) is not NumberClass.FINITE_APPRECIABLE
    # A virtual exponent is taken rank by rank, with float's bits.
    e = (1 + partial()) ** omega()
    assert all(e.value_at(n) == (1 + 1 / n) ** n for n in (1, 2, 3, *DEFAULT_SCHEDULE))
    # A sequence's own division by zero is refused at its rank.
    with pytest.raises(RankEvaluationError, match="division by a rank-zero value") as info:
        from_sequence(lambda n: 1 / (n - 3)).value_at(3)
    assert info.value.rank == 3


def test_rank_must_be_positive_integer():
    with pytest.raises(ValueError):
        partial().value_at(0)
    with pytest.raises(ValueError):
        partial().value_at(2.5)
    with pytest.raises(ValueError, match="constant must be finite"):
        make_const(math.inf)


def test_repr_names_a_constant_a_tag_or_a_sequence():
    assert repr(make_const(2.5)) == "VirtualNumber(const 2.5)"
    assert repr(omega()) == "VirtualNumber(<omega>)"
    assert repr(from_sequence(lambda n: 1.0)) == "VirtualNumber(<sequence>)"


#: The three schedules of `test_classify_and_reduce_sequence_agree`.
AGREEMENT_SCHEDULES = [list(DEFAULT_SCHEDULE), list(range(10, 100, 10)),
                       [3 * k * k for k in range(2, 11)]]

#: The class each verdict of `reduce_sequence` must come with.
VERDICT_CLASSES = {
    "irreducible": {NumberClass.INFINITE},
    "reduced": {NumberClass.FINITE_APPRECIABLE, NumberClass.INFINITESIMAL},
    "undetermined": {NumberClass.INDETERMINATE},
}


@pytest.mark.parametrize("sched", AGREEMENT_SCHEDULES, ids=["2^k", "10..90", "3k^2"])
@pytest.mark.parametrize("seq", [
    lambda n: n**0.3, lambda n: n**0.5, math.log, lambda n: 2.0 + 1.0 / n,
    lambda n: 1.0 / math.sqrt(n)], ids=["n^0.3", "n^0.5", "log n", "2+1/n", "1/sqrt(n)"])
def test_classify_and_reduce_sequence_agree(seq, sched):
    # A virtual number and an integral's ranks are read by one rule: the
    # paper's three classes and the engine's three verdicts agree.
    res = reduce_sequence(sched, lambda ranks: [seq(n) for n in ranks], tol=1e-9)
    assert classify(from_sequence(seq), schedule=sched) in VERDICT_CLASSES[res.kind], res
