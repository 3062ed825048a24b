"""A trial-and-error run read in one pass: three numbers, no table of answers."""

import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperlab import tae
from hyperlab.errors import ResourceError
from hyperlab.tae import LimitPredicate, WheelExperiment, WheelStrategy


def read_table(table: list[int]) -> tuple[bool, int, int, bool]:
    """Verdict, mind changes, stable_since and unsettled, read off the whole table."""
    horizon = len(table) - 1
    changes = [y for y in range(1, horizon + 1) if table[y] != table[y - 1]]
    stable_since = changes[-1] if changes else 0
    return bool(table[-1]), len(changes), stable_since, stable_since == horizon


@given(st.integers(1, 50).flatmap(
    lambda horizon: st.lists(st.integers(0, 1), min_size=horizon + 1, max_size=horizon + 1)))
def test_limit_evaluation_agrees_with_a_reading_of_the_full_table(table):
    result = tae.evaluate_limit_predicate(
        LimitPredicate(kernel=lambda y: table[y], arity=0), (), horizon=len(table) - 1)
    assert (result.verdict, result.mind_changes, result.stable_since,
            result.unsettled) == read_table(table)


def test_answer_stream_is_three_numbers():
    assert tae.AnswerStream.__slots__ == ("horizon", "last_examined", "final_verdict")
    assert not hasattr(tae.goldbach_stream(8), "__dict__")
    assert not hasattr(tae.AnswerStream, "emit")


def test_goldbach_stream_retains_no_answer_list():
    tae.goldbach_stream(8)  # warm up first-call allocations
    tracemalloc.start()
    try:
        stream = tae.goldbach_stream(2 * 10**4)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(stream), stream.last_examined, stream.final_verdict) == (9999, 2 * 10**4, True)
    assert retained < 4096


@pytest.mark.parametrize("counterexample", [6, 12, 20])
def test_stream_stops_at_its_first_no(monkeypatch, counterexample):
    examined = []
    monkeypatch.setattr(tae, "has_prime_pair",
                        lambda even: examined.append(even) or even != counterexample)
    stream = tae.goldbach_stream(20)
    assert examined[-1] == stream.last_examined == counterexample
    assert (stream.final_verdict, stream.mind_changes) == (False, 1)
    assert len(stream) == len(stream.answers) == counterexample // 2 - 1
    assert stream.answers[-1] == (counterexample, False)
    assert all(verdict for _, verdict in stream.answers[:-1])


class TestCellBudget:
    @pytest.mark.parametrize("exp", [
        WheelExperiment(10**8, 0.5, WheelStrategy.ONE_AT_A_TIME),
        WheelExperiment(10, 1e-4, WheelStrategy.FREEZE_SUCCESSES),
    ], ids=["wheels", "small-p"])
    def test_laws_past_the_cell_budget_are_refused(self, exp):
        with pytest.raises(ResourceError, match="budget"):
            tae.ashby_simulate(exp, 2)

    @pytest.mark.parametrize("strategy", [WheelStrategy.ONE_AT_A_TIME,
                                          WheelStrategy.FREEZE_SUCCESSES])
    def test_cell_budget_is_inclusive(self, monkeypatch, strategy):
        exp = WheelExperiment(10, 0.5, strategy)
        monkeypatch.setattr(tae, "CELL_BUDGET", len(tae._trial_time_law(exp)[1]))
        tae.ashby_simulate(exp, 100)
        monkeypatch.setattr(tae, "CELL_BUDGET", tae.CELL_BUDGET - 1)
        with pytest.raises(ResourceError, match="budget"):
            tae.ashby_simulate(exp, 100)

    def test_all_or_nothing_draws_one_count_per_trial(self):
        # 2**21 wheels at p = 1 - 1e-9 still succeed in about one round
        exp = WheelExperiment(2**21, 1 - 1e-9, WheelStrategy.ALL_OR_NOTHING)
        mean, _ = tae.ashby_simulate(exp, 100)
        assert 1.0 <= mean < 1.1


@pytest.mark.parametrize("strategy", list(WheelStrategy))
def test_simulation_keeps_no_trial(strategy):
    # 40,000 trials: a float per trial would be 320 kB
    exp = WheelExperiment(10, 0.5, strategy, seed=3)
    tracemalloc.start()
    try:
        tae.ashby_simulate(exp, 40000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16
