"""A trial-and-error run read in one pass: three numbers, no table of answers."""

import tracemalloc

import pytest

from hyperlab import tae
from hyperlab.errors import ResourceError
from hyperlab.tae import WheelExperiment

from conftest import has_prime_pair, plant_composites


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


@pytest.mark.parametrize("counterexample, composites", [(6, [3]), (12, [7]), (20, [13, 17])],
                         ids=["6", "12", "20"])
def test_stream_stops_at_its_first_no(monkeypatch, counterexample, composites):
    plant_composites(monkeypatch, composites)
    stream = tae.goldbach_stream(20)
    assert stream.last_examined == counterexample
    assert [even for even in range(4, 21, 2) if not has_prime_pair(even)][0] == counterexample
    assert (stream.final_verdict, stream.mind_changes) == (False, 1)
    assert len(stream) == len(stream.answers) == counterexample // 2 - 1
    assert stream.answers[-1] == (counterexample, False)
    assert all(verdict for _, verdict in stream.answers[:-1])


class TestCellBudget:
    @pytest.mark.parametrize("exp", [
        WheelExperiment(10**8, 0.5, 2), WheelExperiment(10, 1e-4, 3)], ids=["wheels", "small-p"])
    def test_laws_past_the_cell_budget_are_refused(self, exp):
        with pytest.raises(ResourceError, match="budget"):
            tae.ashby_simulate(exp, 2)

    @pytest.mark.parametrize("exp", [
        WheelExperiment(2, 1e-310, 2),
        WheelExperiment(2, 1e-310, 3),
        WheelExperiment(10**306, 0.001, 2),
    ], ids=["subnormal-p", "subnormal-p-freeze", "wheels-near-the-float-range"])
    def test_law_bounds_past_the_float_range_are_refused(self, exp):
        with pytest.raises(ResourceError, match="more times than a float counts"):
            tae._law_span(exp)

    @pytest.mark.parametrize("strategy", [2, 3])
    def test_cell_budget_is_inclusive(self, monkeypatch, strategy):
        exp = WheelExperiment(10, 0.5, strategy)
        monkeypatch.setattr(tae, "CELL_BUDGET", len(tae._trial_time_law(exp)[1]))
        tae.ashby_simulate(exp, 100)
        monkeypatch.setattr(tae, "CELL_BUDGET", tae.CELL_BUDGET - 1)
        with pytest.raises(ResourceError, match="budget"):
            tae.ashby_simulate(exp, 100)

    def test_all_or_nothing_draws_one_count_per_trial(self):
        # 2**21 wheels at p = 1 - 1e-9 still succeed in about one round
        exp = WheelExperiment(2**21, 1 - 1e-9, 1)
        mean, _ = tae.ashby_simulate(exp, 100)
        assert 1.0 <= mean < 1.1


@pytest.mark.parametrize("strategy", list(tae.STRATEGIES))
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
