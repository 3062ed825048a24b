import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab import turing, zeno
from hyperlab.errors import DomainError, ResourceError
from hyperlab.limits import SPEED_OF_LIGHT

# step index commonly quoted for the head outrunning light at 1 m/s on step 1;
# the convention of first_superluminal_step derives 30
QUOTED_SUPERLUMINAL_STEP = 29


def first_superluminal_step(head_speed_step1: float) -> int:
    """First step (1-based) whose head speed must exceed the speed of light.

    Step n lasts ``2**-(n-1)`` times the first step's duration while the head
    still crosses one cell, so the required speed doubles every step:
    speed(n) = head_speed_step1 * 2**(n-1), whatever the cell pitch.
    """
    if not head_speed_step1 > 0:  # NaN fails too
        raise DomainError("speed must be positive")
    n = 1
    speed = float(head_speed_step1)
    while speed <= SPEED_OF_LIGHT:
        n += 1
        speed *= 2.0
    return n


class TestZenoTime:
    def test_single_step(self):
        assert zeno.zeno_time(0) == 1

    def test_four_steps(self):
        assert zeno.zeno_time(3) == Fraction(15, 8)

    def test_matches_direct_summation(self):
        for n in range(64):
            direct = sum(Fraction(1, 2**i) for i in range(n + 1))
            assert zeno.zeno_time(n) == direct

    def test_limit_reached_within_tolerance(self):
        assert abs(float(zeno.zeno_time(64)) - 2.0) < 1e-12
        assert zeno.LIMIT == 2

    @given(st.integers(0, 400))
    def test_monotone_and_bounded(self, n):
        t_n = zeno.zeno_time(n)
        assert t_n < zeno.zeno_time(n + 1) < 2
        # the gap to the bound halves every step
        assert (2 - zeno.zeno_time(n + 1)) * 2 == 2 - t_n

    def test_negative_index_rejected(self):
        with pytest.raises(DomainError):
            zeno.zeno_time(-1)

    def test_exact_for_huge_indices(self):
        n = 10**5
        assert (2 - zeno.zeno_time(n)) * 2**n == 1

    def test_index_past_the_budget_refused(self):
        with pytest.raises(ResourceError, match="budget"):
            zeno.zeno_time(zeno.STEP_INDEX_BUDGET + 1)


class TestStepsWithinBudget:
    @given(st.integers(0, 300))
    def test_inverts_zeno_time_exactly(self, n):
        assert zeno.steps_within_budget(zeno.zeno_time(n)) == n

    def test_budget_at_limit_is_unbounded(self):
        assert zeno.steps_within_budget(2) == "unbounded"
        assert zeno.steps_within_budget(Fraction(5, 2)) == "unbounded"

    def test_budget_below_first_step(self):
        assert zeno.steps_within_budget(Fraction(1, 2)) is None

    def test_non_positive_budget_rejected(self):
        with pytest.raises(DomainError):
            zeno.steps_within_budget(0)

    @settings(max_examples=300)
    @given(st.one_of(
        st.fractions(0, 2, max_denominator=10**6),
        # within 2**-k of the limit, k up to 48
        st.builds(lambda k, f: 2 - f / 2**k, st.integers(0, 48),
                  st.fractions(0, 1, max_denominator=10**6)),
        # just before a toggle instant
        st.builds(lambda n, e: zeno.zeno_time(n) - Fraction(1, 2**e), st.integers(0, 48),
                  st.integers(0, 120)),
    ).filter(lambda t: 0 < t < 2))
    def test_budget_readings_match_a_linear_scan(self, t):
        n = -1  # largest n with zeno_time(n) <= t, -1 if none
        while zeno.zeno_time(n + 1) <= t:
            n += 1
        assert zeno.steps_within_budget(t) == (None if n < 0 else n)
        assert zeno.thomson_lamp(t)[1] == n + 1


class TestMergedReadings:
    @settings(max_examples=300)
    @given(st.one_of(st.fractions(0, 3, max_denominator=10**6),
                     st.builds(zeno.zeno_time, st.integers(0, 60))))
    def test_toggles_are_a_count_of_instants_up_to_t(self, t):
        toggles = None  # infinitely many from the limit on
        if t < zeno.LIMIT:
            toggles = 0
            while zeno.zeno_time(toggles) <= t:
                toggles += 1
        assert zeno.thomson_lamp(t)[1] == toggles

    @given(st.fractions(0, 2**12, max_denominator=10**6).filter(lambda t: t > 0))
    def test_decelerated_index_is_none_exactly_below_one(self, t):
        assert (zeno.decelerated_steps_within_budget(t) is None) == (t < 1)


class TestDeceleratedBudget:
    def test_sixty_four_to_one_gains_six(self):
        steps = zeno.decelerated_steps_within_budget
        assert steps(64) - steps(1) == 6

    def test_power_tower_gains_thousand(self):
        steps = zeno.decelerated_steps_within_budget
        assert steps(2**1000) - steps(1) == 1000

    def test_plain_index(self):
        assert zeno.decelerated_steps_within_budget(1) == 0
        assert zeno.decelerated_steps_within_budget(64) == 6
        assert zeno.decelerated_steps_within_budget(Fraction(127, 2)) == 5

    def test_rejects_budget_below_base(self):
        # below the first step no index fits; a budget of 0 or less is no budget
        assert zeno.decelerated_steps_within_budget(Fraction(1, 2)) is None
        for budget in (0, -3):
            with pytest.raises(DomainError, match="budget must be positive"):
                zeno.decelerated_steps_within_budget(budget)

    @given(st.integers(1, 10**9), st.integers(1, 10**6))
    def test_index_is_exact_floor_log2(self, num, den):
        q = Fraction(num, den)
        if q < 1:
            q = 1 / q
        n = zeno.decelerated_steps_within_budget(q)
        assert 2**n <= q < 2 ** (n + 1)


class TestThomsonLamp:
    def test_half_second_is_on(self):
        assert zeno.thomson_lamp(Fraction(1, 2)) == ("on", 0)

    def test_parity_near_the_limit(self):
        t = Fraction(19999, 10000)
        # toggle instants are 2 - 2**-n; count those <= t by hand
        toggles = sum(1 for n in range(60) if 2 - Fraction(1, 2**n) <= t)
        assert toggles == 14
        assert zeno.thomson_lamp(t) == ("on", toggles)  # even number of toggles

    def test_boundary_toggle_counts(self):
        # exactly at a toggle instant the flip has happened
        assert zeno.thomson_lamp(Fraction(7, 4)) == ("off", 3)

    def test_at_and_beyond_limit_undefined(self):
        # no finite count of toggles either
        assert zeno.thomson_lamp(2.0) == ("undefined", None)
        assert zeno.thomson_lamp(1000) == ("undefined", None)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            zeno.thomson_lamp(-0.5)

    @given(st.integers(0, 200))
    def test_parity_flips_exactly_at_toggles(self, n):
        before, _ = zeno.thomson_lamp(zeno.zeno_time(n) - Fraction(1, 2**(n + 2)))
        at, _ = zeno.thomson_lamp(zeno.zeno_time(n))
        assert before is not at


class TestHaltingFlag:
    def test_halting_machine_raises_flag(self, successor):
        flag, elapsed, outcome = zeno.atm_halting_flag(successor, "111", fuel=1000)
        assert flag == 1
        assert elapsed < 2
        assert elapsed == zeno.zeno_time(outcome.config.steps)

    def test_loop_machine_keeps_flag_down(self, self_loop):
        flag, elapsed, _ = zeno.atm_halting_flag(self_loop, "", fuel=1000)
        assert flag == 0
        assert elapsed < 2

    def test_flag_agrees_with_run_outcome(self, successor, self_loop):
        for machine, text in ((successor, "1"), (self_loop, "")):
            outcome = turing.run(machine, text, fuel=500)
            flag, _, _ = zeno.atm_halting_flag(machine, text, fuel=500)
            assert (flag == 1) == (outcome.kind == "halted")

    def test_fuel_at_the_budget_is_accepted(self, successor):
        flag, elapsed, outcome = zeno.atm_halting_flag(successor, "111", fuel=10**6)
        assert flag == 1
        assert elapsed == zeno.zeno_time(outcome.config.steps)


class TestSuperluminal:
    def test_default_threshold(self):
        assert first_superluminal_step(1.0) == 30

    def test_quoted_figure_recorded(self):
        assert first_superluminal_step(1.0) == QUOTED_SUPERLUMINAL_STEP + 1

    def test_doubling_start_speed_drops_threshold_by_one(self):
        assert first_superluminal_step(2.0) == first_superluminal_step(1.0) - 1

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            first_superluminal_step(0.0)

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            first_superluminal_step(math.nan)
