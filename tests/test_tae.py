import decimal
import itertools
import math
import random
import statistics
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperlab import tae, variates
from hyperlab.errors import DomainError, ResourceError
from hyperlab.tae import WheelExperiment

from conftest import (
    chi_square_upper,
    has_prime_pair,
    plant_composites,
    pooled_chi_square,
)


def sieve(limit: int) -> list[bool]:
    flags = [False, False] + [True] * (limit - 1)
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p::p] = [False] * len(flags[p * p::p])
    return flags


def is_prime(n: int) -> bool:
    """Deterministic trial division up to sqrt(n)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _pair_by_trial_division(even: int) -> bool:
    return any(is_prime(p) and is_prime(even - p) for p in range(2, even // 2 + 1))


class TestGoldbachStream:
    def test_horizon_four(self):
        stream = tae.goldbach_stream(4)
        assert stream.answers == [(4, True)]
        assert stream.mind_changes == 0

    def test_horizon_hundred_against_sieve(self):
        stream = tae.goldbach_stream(100)
        flags = sieve(100)
        for even, verdict in stream.answers:
            expected = any(flags[p] and flags[even - p]
                           for p in range(2, even // 2 + 1))
            assert verdict == expected
        assert stream.final_verdict is True
        assert stream.mind_changes == 0

    def test_mind_change_iff_counterexample(self, monkeypatch):
        # with 7 planted as composite, 12 = 5 + 7 is the first even without a pair
        plant_composites(monkeypatch, [7])
        stream = tae.goldbach_stream(20)
        assert stream.answers[-1] == (12, False)
        assert stream.mind_changes == 1
        assert stream.final_verdict is False

    def test_rejects_odd_horizon(self):
        with pytest.raises(DomainError):
            tae.goldbach_stream(7)

    def test_horizon_past_the_budget_is_refused(self, monkeypatch):
        sieved = []
        monkeypatch.setattr(tae, "_odd_prime_flags", sieved.append)
        with pytest.raises(ResourceError):
            tae.goldbach_stream(tae.GOLDBACH_HORIZON_BUDGET + 2)
        assert sieved == []
        monkeypatch.undo()
        assert tae.goldbach_stream(tae.GOLDBACH_HORIZON_BUDGET).final_verdict is True

    @settings(max_examples=60, deadline=None)
    @given(half=st.integers(2, 600), composites=st.lists(
        st.sampled_from([p for p in range(3, 100) if is_prime(p)]), max_size=3))
    def test_stream_stops_where_the_predicate_first_says_no(self, half, composites):
        with pytest.MonkeyPatch.context() as mp:
            plant_composites(mp, composites)
            stream = tae.goldbach_stream(2 * half)
            first_no = next((even for even in range(4, 2 * half + 1, 2)
                             if not has_prime_pair(even)), None)
        if first_no is None:
            assert (stream.last_examined, stream.final_verdict) == (2 * half, True)
        else:
            assert (stream.last_examined, stream.final_verdict) == (first_no, False)

    def test_sieved_pairs_agree_with_trial_division_for_every_even_to_4000(self):
        for even in range(4, 4001, 2):
            assert has_prime_pair(even) is _pair_by_trial_division(even)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, tae.GOLDBACH_HORIZON_BUDGET // 2))
    def test_sieved_pairs_agree_with_trial_division_up_to_the_budget(self, half):
        assert has_prime_pair(2 * half) is _pair_by_trial_division(2 * half)

    def test_primality_by_trial_division(self):
        flags = sieve(2000)
        for n in range(2000):
            assert is_prime(n) == flags[n]


def fisher_yates_tries(items: list[int], rng: random.Random) -> int:
    """Memoized bogosort by brute force: check the input, then draw the other
    distinct arrangements without replacement until the sorted one comes up."""
    target = tuple(sorted(items))
    if tuple(items) == target:
        return 1
    untried = sorted(set(itertools.permutations(items)) - {tuple(items)})
    tries = 1
    while True:
        j = rng.randrange(len(untried))
        tries += 1
        if untried[j] == target:
            return tries
        untried[j] = untried[-1]
        untried.pop()


class TestBogosort:
    def test_sorted_input_takes_one_try(self):
        result = tae.bogosort([1, 2, 3], seed=5)
        assert result.tries == 1 and not result.gave_up

    def test_memoized_three_elements_bounded_by_six(self):
        for seed in range(200):
            result = tae.bogosort([3, 1, 2], memoized=True, seed=seed)
            assert result.sequence == (1, 2, 3)
            assert result.tries <= math.factorial(3)

    def test_memoized_never_repeats_an_arrangement(self):
        # 2, 1, 1, 0 has 4!/2! = 12 distinct arrangements: a memoized run
        # finds the sorted one by try 12 at the latest, and reaches every count
        tries = {tae.bogosort([2, 1, 1, 0], memoized=True, seed=seed).tries
                 for seed in range(2000)}
        assert tries == set(range(2, 13))

    @pytest.mark.parametrize("items", [[3, 1, 0, 2], [1, 0, 2, 1]])
    def test_memoized_tries_match_a_fisher_yates_loop(self, items):
        # two samples of 20,000 runs, compared bin by bin at the 0.1 % level
        runs = 20000
        rng = random.Random(41)
        drawn = Counter(tae.bogosort(items, memoized=True, seed=rng).tries
                        for _ in range(runs))
        looped = Counter(fisher_yates_tries(items, rng) for _ in range(runs))
        assert set(drawn) == set(looped)
        statistic = sum((drawn[k] - looped[k]) ** 2 / (drawn[k] + looped[k]) for k in drawn)
        assert statistic < chi_square_upper(len(drawn) - 1)

    @pytest.mark.parametrize("items, arrangements", [([2, 0, 1], 6), ([1, 0, 1], 3),
                                                     ([4, 3, 2, 1, 0], 120)])
    def test_plain_shuffles_are_geometric(self, items, arrangements):
        # tries - 1 shuffles, each sorting with chance 1/M; 20,000 runs at the 0.1 % level
        runs = 20000
        rng = random.Random(43)
        shuffles = Counter(tae.bogosort(items, seed=rng).tries - 1 for _ in range(runs))
        rate = 1 / arrangements
        horizon = max(shuffles) + 1
        expected = {k: runs * rate * (1 - rate) ** (k - 1) for k in range(1, horizon)}
        expected[horizon] = runs * (1 - rate) ** (horizon - 1)  # the tail, never seen
        statistic, df = pooled_chi_square(shuffles, expected)
        assert statistic < chi_square_upper(df)

    def test_non_memoized_mean_matches_geometric_rate(self):
        # success probability per scramble of 5 distinct items is 1/120
        tries = []
        for seed in range(10**4):
            result = tae.bogosort([4, 3, 2, 1, 0], seed=seed, max_tries=10**5)
            assert not result.gave_up
            tries.append(result.tries)
        mean = sum(tries) / len(tries)
        assert abs(mean - 120.0) / 120.0 < 0.15

    def test_gave_up_carries_tries(self):
        result = tae.bogosort([2, 1, 3, 5, 4], seed=0, max_tries=3)
        assert result.gave_up and result.tries == 3

    @pytest.mark.parametrize("items", [[2, 0, 1], [1, 0, 1]])
    def test_give_up_ends_on_a_uniform_unsorted_shuffle(self, items):
        # 20,000 runs capped at one shuffle, at the 0.1 % level
        runs = 20000
        rng = random.Random(47)
        results = [tae.bogosort(items, seed=rng, max_tries=2) for _ in range(runs)]
        last = Counter(r.sequence for r in results if r.gave_up)
        unsorted = set(itertools.permutations(items)) - {tuple(sorted(items))}
        assert set(last) == unsorted
        gave_up = sum(last.values())
        statistic, df = pooled_chi_square(last, {a: gave_up / len(unsorted) for a in unsorted})
        assert statistic < chi_square_upper(df)

    def test_a_single_try_gives_up_on_the_input(self):
        for seed in range(50):
            result = tae.bogosort([2, 1, 3, 0], seed=seed, max_tries=1)
            assert result == tae.BogosortResult((2, 1, 3, 0), 1, gave_up=True)

    def test_factorial_guard(self):
        with pytest.raises(ResourceError):
            tae.bogosort(list(range(11)))


def ashby_case3_inclusion_exclusion(n: int, p: float) -> float:
    """Closed form for the freeze-successes mean, by inclusion-exclusion over
    subsets of wheels: sum_k (-1)**(k+1) C(n,k) / (1 - (1-p)**k)."""
    q = 1.0 - p
    return sum(
        (-1) ** (k + 1) * math.comb(n, k) / (1.0 - q**k) for k in range(1, n + 1)
    )


class TestAshbyAnalytic:
    def test_single_wheel_strategies_coincide(self):
        for strategy in tae.STRATEGIES:
            exp = WheelExperiment(1, 0.5, strategy)
            assert abs(tae.ashby_expected(exp)[0] - 2.0) < 1e-8

    # at p = 1e-17, 1 - p rounds to 1 and the sum would never end
    @pytest.mark.parametrize("p", [1e-7, 1e-17])
    def test_series_past_the_term_budget_is_refused(self, p):
        exp = WheelExperiment(10, p, 3)
        with pytest.raises(ResourceError, match="budget"):
            tae.ashby_expected(exp)

    @settings(max_examples=200)
    @given(st.integers(1, 10**4), st.floats(1e-3, 0.99))
    def test_term_bound_covers_the_terms_summed(self, n, p):
        # the series' own loop, counting its terms
        q, total, qt, terms = 1.0 - p, 1.0, 1.0 - p, 1
        while True:
            term = -math.expm1(n * math.log1p(-qt))
            total, qt, terms = total + term, qt * q, terms + 1
            if term <= total * tae.TAIL_RELATIVE_TOL:
                break
        bound = (math.log(n) - math.log(tae.TAIL_RELATIVE_TOL)) / -math.log1p(-p) + 2
        assert terms <= bound
        assert tae.ashby_expected(WheelExperiment(n, p, 3)) == (
            total, math.log2(total))

    @pytest.mark.parametrize("p", [0.5, 0.9])
    @pytest.mark.parametrize("n", [10, 10**12, 10**20, 10**300],
                             ids=lambda n: f"1e{len(str(n)) - 1}")
    def test_freeze_successes_mean_matches_a_high_precision_sum(self, n, p):
        # each term 1 - (1 - q**t)**N by ln and exp at 400 digits, where the
        # float series once lost its terms once q**t fell below 2**-54
        with decimal.localcontext() as ctx:
            ctx.prec = 400
            q, one = 1 - decimal.Decimal(p), decimal.Decimal(1)
            total, t, term = one, 0, one
            while term >= total * decimal.Decimal("1e-25"):
                t += 1
                term = one - (n * (one - q**t).ln()).exp()
                total += term
        seconds, log2 = tae.ashby_expected(WheelExperiment(n, p, 3))
        assert seconds == pytest.approx(float(total), rel=1e-8)
        assert log2 == math.log2(seconds)

    def test_thousand_wheels_all_or_nothing_log2(self):
        exp = WheelExperiment(1000, 0.5, 1)
        assert tae.ashby_expected(exp) == (2.0**1000, 1000.0)

    @pytest.mark.parametrize("n, strategy", [(1100, 1), (10**308, 2)],
                             ids=["all-or-nothing", "one-at-a-time"])
    def test_mean_past_the_float_range_is_refused(self, n, strategy):
        # the seconds are withheld and the log2 alone is given
        seconds, log2 = tae.ashby_expected(WheelExperiment(n, 0.5, strategy))
        assert seconds is None and 1024 < log2 < math.inf

    @settings(max_examples=200)
    @given(st.sampled_from(list(tae.STRATEGIES)),
           st.one_of(st.integers(1, 5000), st.integers(1, 10**299)), st.floats(0.01, 0.99))
    @example(1, 1019, 0.5)
    @example(1, 1020, 0.5)
    @example(2, 2**1019, 0.5)
    @example(2, 10**308, 0.01)
    def test_seconds_are_withheld_exactly_from_2_to_the_1020(self, strategy, n, p):
        # up to N = 10**299 the series' term bound, log(N / TAIL_RELATIVE_TOL) /
        # -log1p(-p), stays a float below 10**5, within budget; strategy 2
        # reaches 2**1020 only in the pinned examples
        seconds, log2 = tae.ashby_expected(WheelExperiment(n, p, strategy))
        assert (seconds is None) == (log2 >= 1020)
        if seconds is None:
            return
        if strategy == 3:
            assert log2 == math.log2(seconds)
        else:
            assert seconds == (p**-n if strategy == 1 else n / p)
            assert math.isclose(log2, math.log2(seconds), rel_tol=1e-9, abs_tol=1e-12)

    def test_one_at_a_time_is_n_over_p(self):
        exp = WheelExperiment(10, 0.25, 2)
        assert tae.ashby_expected(exp)[0] == 40.0

    def test_quoted_figures_differ_from_analytic(self):
        # the quoted one-at-a-time figure is 500 s; the analytic mean is 2000 s
        exp = WheelExperiment(1000, 0.5, 2)
        assert tae.ashby_expected(exp)[0] == 2000.0
        assert tae.QUOTED_CASE2_SECONDS == 500.0

    @given(st.integers(1, 12), st.floats(0.05, 0.95))
    def test_series_matches_inclusion_exclusion(self, n, p):
        exp = WheelExperiment(n, p, 3)
        series, _ = tae.ashby_expected(exp)
        closed = ashby_case3_inclusion_exclusion(n, p)
        assert abs(series - closed) <= 1e-6 * closed

    @given(st.integers(2, 12), st.floats(0.05, 0.5))
    def test_strategy_ordering_for_small_p(self, n, p):
        # all-or-nothing is slowest and freezing successes is fastest; the
        # first comparison genuinely needs p <= 1/2 (at p near 1 a single
        # parallel round beats n sequential spins)
        c1, c2, c3 = (tae.ashby_expected(WheelExperiment(n, p, strategy))[0]
                      for strategy in tae.STRATEGIES)
        assert c1 >= c2 * (1 - 1e-12) >= c3 * (1 - 1e-12)

    @given(st.integers(1, 12), st.floats(0.05, 0.95))
    def test_freezing_never_beats_sequential(self, n, p):
        c2 = tae.ashby_expected(WheelExperiment(n, p, 2))[0]
        c3 = tae.ashby_expected(WheelExperiment(n, p, 3))[0]
        assert c3 <= c2 * (1 + 1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            WheelExperiment(0, 0.5, 1)
        with pytest.raises(DomainError):
            WheelExperiment(3, 1.0, 1)

    def test_a_strategy_is_its_number(self):
        assert tae.ashby_expected(WheelExperiment(10, 0.5, 1)) == (1024.0, 10.0)
        assert tae.ashby_expected(WheelExperiment(10, 0.5, 2)) == (20.0, math.log2(20))

    @pytest.mark.parametrize("strategy", [0, 4, True, 2.0])
    def test_a_strategy_tae_cannot_run_is_refused(self, strategy):
        with pytest.raises(DomainError, match="strategy must be 1, 2 or 3"):
            WheelExperiment(10, 0.5, strategy)


class TestAshbySimulation:
    @pytest.mark.parametrize("strategy", list(tae.STRATEGIES))
    @pytest.mark.parametrize("n", [2, 4, 10])
    def test_monte_carlo_within_three_standard_errors(self, strategy, n):
        exp = WheelExperiment(n, 0.5, strategy, seed=1000 + 10 * n + strategy)
        mean, stderr = tae.ashby_simulate(exp, 10**5)
        analytic, _ = tae.ashby_expected(exp)
        assert abs(mean - analytic) <= 3 * stderr

    def test_same_seed_reproduces(self):
        exp = WheelExperiment(4, 0.5, 3, seed=42)
        assert tae.ashby_simulate(exp, 5000) == tae.ashby_simulate(exp, 5000)

    def test_case3_expectation_against_simulation(self):
        exp = WheelExperiment(10, 0.5, 3, seed=7)
        mean, stderr = tae.ashby_simulate(exp, 10**5)
        assert abs(mean - tae.ashby_expected(exp)[0]) <= 3 * stderr

    @pytest.mark.parametrize("n, p, strategy", [
        (2000, 0.5, 1),  # p**N underflows to 0.0
        (58, 0.5, 1),
        (2, 2.0**-57, 2),
        (1, 2.0**-58, 3),
    ])
    def test_refuses_counts_past_64_bits_before_drawing(self, n, p, strategy):
        with pytest.raises(DomainError, match="64-bit"):
            tae.ashby_simulate(WheelExperiment(n, p, strategy), 10)

    def test_largest_all_or_nothing_run_still_draws(self):
        exp = WheelExperiment(57, 0.5, 1, seed=3)
        mean, _ = tae.ashby_simulate(exp, 1000)
        assert 2.0**56 < mean < 2.0**58

    def test_rejects_zero_trials(self):
        with pytest.raises(DomainError):
            tae.ashby_simulate(WheelExperiment(2, 0.5, 2), 0)

    def test_trials_past_the_budget_refused(self):
        with pytest.raises(ResourceError, match="budget"):
            tae.ashby_simulate(WheelExperiment(2, 0.5, 2), tae.TRIAL_BUDGET + 1)

    def test_one_trial_is_refused(self):
        with pytest.raises(DomainError, match="two trials"):
            tae.ashby_simulate(WheelExperiment(2, 0.5, 1), 1)

    @pytest.mark.parametrize("strategy, n, p", [
        (1, 4, 0.5), (1, 2, 0.1), (2, 10, 0.5), (2, 1000, 0.3), (3, 10, 0.5), (3, 10**5, 0.2),
    ])
    def test_z_scores_over_seeds_are_standard(self, strategy, n, p):
        # 200 seeds of 2000 trials: the mean of 200 standard z-scores has standard
        # error 0.07 and their standard deviation about 0.05, so both bounds sit
        # about 4 standard errors out
        zs = []
        for seed in range(200):
            exp = WheelExperiment(n, p, strategy, seed=seed)
            mean, stderr = tae.ashby_simulate(exp, 2000)
            zs.append((mean - tae.ashby_expected(exp)[0]) / stderr)
        assert abs(statistics.fmean(zs)) < 0.3
        assert abs(statistics.stdev(zs) - 1) < 0.2

    @pytest.mark.parametrize("n, p, trials, seed, strategy", [
        (n, p, trials, seed, strategy)
        for strategy in (2, 3)
        for n, p, trials, seed in [(1, 0.5, 300, 1), (3, 0.2, 301, 2), (10, 0.9, 97, 3),
                                   (37, 0.01, 250, 4)]
    ] + [(1, 0.5, 300, 1, 1), (3, 0.2, 301, 2, 1), (37, 0.99, 250, 4, 1)])
    def test_moments_equal_a_per_trial_sum(self, n, p, trials, seed, strategy):
        exp = WheelExperiment(n, p, strategy, seed=seed)
        rng = random.Random(seed)
        if strategy == 1:
            times = [1 + math.floor(math.log(1 - rng.random()) / math.log1p(-p**n))
                     for _ in range(trials)]
        else:
            first, weights = tae._trial_time_law(exp)
            times = [first + i for i, count in variates.multinomial(rng, trials, weights).items()
                     for _ in range(count)]
        mean = Fraction(sum(times), trials)
        variance = sum((t - mean) ** 2 for t in times) / (trials - 1)
        assert tae.ashby_simulate(exp, trials) == (float(mean), math.sqrt(variance / trials))

    @pytest.mark.parametrize("strategy, n, p", [
        (2, 1, 0.5), (2, 5, 0.3), (2, 40, 0.7), (3, 1, 0.5), (3, 10, 0.5), (3, 12, 0.25),
    ])
    def test_law_of_one_trial_is_exact_and_leaves_out_at_most_2_to_the_minus_64(self, strategy, n, p):
        first, weights = tae._trial_time_law(WheelExperiment(n, p, strategy))
        last = first + len(weights) - 1
        p, q = Fraction(p), 1 - Fraction(p)
        if strategy == 2:
            def chance(t):  # the n-th success on spin t
                return math.comb(t - 1, n - 1) * p**n * q ** (t - n) if t >= n else 0

            def below(t):  # fewer than n successes in t spins
                return sum(math.comb(t, k) * p**k * q ** (t - k) for k in range(n))

            left_out = (1 - below(first - 1), below(last))
        else:
            def chance(t):  # the slowest of n wheels succeeds on spin t
                return (1 - q**t) ** n - (1 - q ** (t - 1)) ** n

            left_out = ((1 - q ** (first - 1)) ** n, 1 - (1 - q**last) ** n)
        assert max(left_out) <= Fraction(1, 2**64)
        total = sum(weights)
        for t, weight in enumerate(weights, first):
            assert abs(weight / total - chance(t)) <= 1e-12 * chance(t) + 1e-18

    @pytest.mark.parametrize("strategy", [2, 3])
    def test_memory_does_not_grow_with_wheels(self, strategy):
        tracemalloc.start()
        try:
            tae.ashby_simulate(WheelExperiment(200, 0.5, strategy, seed=5), 10**5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
