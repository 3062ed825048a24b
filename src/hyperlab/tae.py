"""Trial-and-error (limit) computation: worked procedures.

A trial-and-error procedure answers at every stage and may change its mind;
its result is the answer it settles on, which no run to a finite horizon can
certify as settled.

The worked procedures: a revisable yes/no stream for the prime-pair property
of even numbers, bogosort with and without memory of tried arrangements, and
the three classic strategies for compounding N independent chance events into
one grand success.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from typing import NamedTuple, Sequence

from .errors import DomainError, ResourceError, shown
from .reporting import Table
from .variates import multinomial


# -- answer streams and the even/prime-pair procedure ----------------------------


class AnswerStream:
    """Prime-pair answers: yes at 4, 6, ... before ``last_examined``, then
    ``final_verdict`` there, the working verdict. Only that last answer can
    be no, so the stream changes its mind at most once."""

    __slots__ = ("horizon", "last_examined", "final_verdict")

    def __init__(self, horizon: int, last_examined: int, final_verdict: bool):
        self.horizon, self.last_examined, self.final_verdict = (
            horizon, last_examined, final_verdict)

    @property
    def mind_changes(self) -> int:
        return int(not self.final_verdict)

    def __len__(self) -> int:
        return self.last_examined // 2 - 1

    @property
    def answers(self) -> list[tuple[int, bool]]:
        """Every (even, verdict) answer in order, rebuilt on request."""
        return [(even, True) for even in range(4, self.last_examined, 2)] + [
            (self.last_examined, self.final_verdict)]


# `tae goldbach` at the budget: about 0.1 s and 17 MB peak RSS as a CLI child on a 2-vCPU VM
GOLDBACH_HORIZON_BUDGET = 10**6


def _odd_prime_flags(limit: int) -> bytearray:
    """``flags[k]`` is 1 exactly when 2k + 1 <= limit is prime."""
    size = (limit + 1) // 2
    flags = bytearray([1]) * size
    flags[0] = 0
    for k in range(1, (math.isqrt(limit) + 1) // 2):
        if flags[k]:
            p = 2 * k + 1
            start = p * p // 2
            flags[start::p] = bytes(len(range(start, size, p)))
    return flags


def goldbach_stream(horizon_even: int) -> AnswerStream:
    """Examine even numbers 4, 6, ... up to the horizon, one answer each.

    The first answer is yes (4 = 2 + 2); each further even number keeps the
    yes going if it splits into two primes, otherwise the stream says no once
    and stops. A stream that ends still saying yes has, of course, only
    checked up to its horizon.

    All the evens are examined at once. Bit i of one int stands for the even
    2i + 2 while it has no prime pair, and bit k of another is set exactly
    when 2k + 1 is an odd prime up to the horizon. For each such prime up to
    half the horizon, shifting the primes left by k gives the evens it pairs
    off; the lowest bit left when the primes run out is the first no.
    """
    if horizon_even < 4 or horizon_even % 2 != 0:
        raise DomainError("horizon must be an even number >= 4")
    if horizon_even > GOLDBACH_HORIZON_BUDGET:
        raise ResourceError(
            f"horizon {shown(horizon_even)} is past the budget of {GOLDBACH_HORIZON_BUDGET}")
    flags = _odd_prime_flags(horizon_even)
    primes = int(flags[::-1].translate(bytes.maketrans(b"\0\1", b"01")), 2)
    unpaired = (1 << horizon_even // 2) - 4  # 6, 8, ..., the horizon
    for k in itertools.compress(range((horizon_even - 2) // 4 + 1), flags):
        if not unpaired:
            break
        unpaired &= ~(primes << k)
    if unpaired:
        return AnswerStream(horizon_even, 2 * (unpaired & -unpaired).bit_length(), False)
    return AnswerStream(horizon_even, horizon_even, True)


# -- bogosort ---------------------------------------------------------------------

MAX_BOGOSORT_LEN = 10


class BogosortResult(NamedTuple):
    sequence: tuple[int, ...]
    tries: int
    gave_up: bool = False


def check_bogosort_length(n: int) -> None:
    """Refuse a sequence of n items past MAX_BOGOSORT_LEN, before any is drawn."""
    if n > MAX_BOGOSORT_LEN:
        raise ResourceError(f"sequence longer than {MAX_BOGOSORT_LEN}: the factorial search "
                            "space is past desk scale")


def bogosort(
    seq: Sequence[int],
    memoized: bool = False,
    seed: int | random.Random = 0,
    max_tries: int = 10**6,
) -> BogosortResult:
    """Shuffle until sorted; checking an arrangement costs one try.

    Only the outcome is drawn. Over the M = n!/prod(c_i!) distinct
    arrangements (c_i the count of each value), a memoized run takes
    1 + randrange(1, M) tries and a plain one 1 + Geometric(1/M), capped by
    ``max_tries``; a plain run that gives up ends on a uniform unsorted
    shuffle (on the input when ``max_tries`` is 1). ``seed`` is an int or a
    ``random.Random`` to continue, as a caller that drew ``seq`` from it does.
    """
    items = list(seq)
    check_bogosort_length(len(items))
    if max_tries < 1:
        raise DomainError("max_tries must be positive")
    target = sorted(items)
    if items == target:
        return BogosortResult(tuple(items), 1)
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    arrangements = math.factorial(len(items)) // math.prod(
        math.factorial(items.count(v)) for v in set(items))
    if memoized:
        return BogosortResult(tuple(target), 1 + rng.randrange(1, arrangements))
    shuffles = 1 + math.floor(math.log(1.0 - rng.random()) / math.log1p(-1 / arrangements))
    if shuffles < max_tries:
        return BogosortResult(tuple(target), 1 + shuffles)
    last = items if max_tries == 1 else target
    while last == target:
        last = rng.sample(items, len(items))
    return BogosortResult(tuple(last), max_tries, gave_up=True)


# -- wheel strategies ----------------------------------------------------------------


# a strategy is its number: 1, all-or-nothing, respins every wheel until one round shows
# all successes; 2, one-at-a-time, finishes each wheel before starting the next; 3,
# freeze-successes, respins only the wheels still failing
STRATEGIES = (1, 2, 3)


class WheelExperiment:
    __slots__ = ("n_wheels", "p", "strategy", "seed")

    def __init__(self, n_wheels: int, p: float, strategy: int, seed: int = 0):
        if n_wheels < 1:
            raise DomainError("need at least one wheel")
        if n_wheels > sys.float_info.max:  # every strategy computes with N as a float
            raise DomainError(f"at most {sys.float_info.max:.6g} wheels, the float range")
        if not 0.0 < p < 1.0:
            raise DomainError("success probability must lie strictly between 0 and 1")
        if type(strategy) is not int or strategy not in STRATEGIES:
            raise DomainError(f"strategy must be 1, 2 or 3, got {shown(strategy)}")
        self.n_wheels, self.p, self.strategy, self.seed = n_wheels, p, strategy, seed


TAIL_RELATIVE_TOL = 1e-9

# the freeze-successes series may sum at most this many terms, a few seconds
SERIES_TERM_BUDGET = 3 * 10**7

# a simulated trial may expect at most 2**57 spins (its mean, or 1/p for each frozen
# wheel), 64 times below 2**63, so the trial times a run draws stay 64-bit counts
SIMULATION_LOG2_SPINS = 57

# times tabulated for the law of one trial under strategy 2 or 3, about 2 us each
CELL_BUDGET = 2**18

# trials one simulation may draw: all-or-nothing draws them one at a time
TRIAL_BUDGET = 10**7

ROW_TIMES = 100  # a wheel-table row's own cost, about 48 us, in law times of about 0.46 us


def ashby_expected(exp: WheelExperiment) -> tuple[float | None, float]:
    """Expected seconds to grand success, at one spin round per second, and
    their log2.

    All-or-nothing: a round succeeds with p**N, so the mean is p**-N.
    One-at-a-time: N wheels, each a mean 1/p spins, run back to back: N/p.
    Freeze-successes: the slowest of N independent wheels; its mean
    sum_{t>=0} (1 - (1 - (1-p)**t)**N) is summed until the tail is
    negligible relative to the accumulated value.
    The seconds are None from 2**1020 on, which only the first two reach;
    the log2 is always given.
    """
    n, p = exp.n_wheels, exp.p
    # a float overflows at 2**1024; below 2**1020 the rounding of log2 cannot reach it
    if exp.strategy == 1:
        log2 = -n * math.log2(p)
        return (p**-n if log2 < 1020 else None), log2
    if exp.strategy == 2:
        spins = n / p
        log2 = math.log2(spins) if spins < math.inf else math.log2(n) - math.log2(p)
        return (spins if log2 < 1020 else None), log2
    # term t is at most N*q**t and the total at least 1, so the tail test
    # holds by the first t with N*q**t <= tol: at most this many terms
    terms = (math.log(n) - math.log(TAIL_RELATIVE_TOL)) / -math.log1p(-p) + 2
    if terms > SERIES_TERM_BUDGET:
        raise ResourceError(
            f"the freeze-successes series needs up to {terms:.3g} terms, past the "
            f"budget of {SERIES_TERM_BUDGET}")
    q = 1.0 - p
    total = 1.0  # term 0
    qt = q  # q**t
    while True:
        term = -math.expm1(n * math.log1p(-qt))  # 1 - (1 - q**t)**N, also where q**t < 2**-53
        total += term
        qt *= q
        if term <= total * TAIL_RELATIVE_TOL:
            return total, math.log2(total)


def _law_span(exp: WheelExperiment) -> tuple[int, int]:
    """The first and last time the law of one trial under strategy 2 or 3
    tabulates, with at most 2**-64 left out each side; past CELL_BUDGET times
    is a ResourceError.

    Here L = log 2**64. Freeze-successes: 1 - P(T <= t) <= N (1 - p)**t <=
    2**-64 from t = (log N + L) / -log1p(-p) on. One-at-a-time: T > t when t
    spins bring fewer than N successes, and Chernoff's bounds on that binomial
    leave out the t with t p outside (N + L/2 - sqrt(L**2/4 + 2LN), N + L +
    sqrt(L**2 + 2LN)].
    """
    n, p = exp.n_wheels, exp.p
    log_bound = 64 * math.log(2)
    if exp.strategy == 3:
        least, low, high = 1, 0.0, (math.log(n) + log_bound) / -math.log1p(-p)
    else:
        least = n
        low = (n + log_bound / 2 - math.sqrt(log_bound**2 / 4 + 2 * log_bound * n)) / p
        high = (n + log_bound + math.sqrt(log_bound**2 + 2 * log_bound * n)) / p
    if high == math.inf:  # |low| <= high, so short of this both bounds are finite
        raise ResourceError(
            f"the law of one trial spans more times than a float counts, past the budget "
            f"of {CELL_BUDGET}")
    first, last = max(least, math.floor(low) + 1), math.ceil(high)
    if last - first + 1 > CELL_BUDGET:
        raise ResourceError(
            f"the law of one trial spans {last - first + 1} times, past the budget of "
            f"{CELL_BUDGET}")
    return first, last


def _trial_time_law(exp: WheelExperiment) -> tuple[int, list[float]]:
    """The law of one trial's time T under strategy 2 or 3 over _law_span:
    (first, weights), with weight i in proportion to P(T = first + i).

    Here q = 1 - p. Freeze-successes: F(t) = P(T <= t) = exp(N log1p(-q**t));
    the weights are differences of exp below F = 1/2, of expm1 above.
    One-at-a-time: the log weights, by lgamma, are taken less their largest.
    """
    n, q = exp.n_wheels, 1.0 - exp.p
    first, last = _law_span(exp)
    if exp.strategy == 3:
        logs = [-math.inf] + [n * math.log1p(-q**t) for t in range(1, last + 1)]
        return first, [math.exp(b) - math.exp(a) if b < -math.log(2)
                       else math.expm1(b) - math.expm1(a) for a, b in zip(logs, logs[1:])]
    logs = [math.lgamma(t) - math.lgamma(t - n + 1) + t * math.log(q)
            for t in range(first, last + 1)]
    peak = max(logs)
    return first, [math.exp(a - peak) for a in logs]


def _admit(exp: WheelExperiment, trials: int) -> int:
    """Refuse what ashby_simulate refuses, in its order; else the times of the law
    it tabulates, none under all-or-nothing."""
    if trials < 2:
        raise DomainError("a standard error needs at least two trials")
    if trials > TRIAL_BUDGET:
        raise ResourceError(f"{shown(trials)} trials is past the budget of {TRIAL_BUDGET}")
    log2_spins = -math.log2(exp.p) if exp.strategy == 3 else ashby_expected(exp)[1]
    if log2_spins > SIMULATION_LOG2_SPINS:
        raise DomainError(
            f"a simulated trial expects 2**{log2_spins:.3g} spins, past the "
            f"2**{SIMULATION_LOG2_SPINS} that 64-bit counts hold; "
            "use the analytic expectation")
    if exp.strategy == 1:
        return 0
    first, last = _law_span(exp)
    return last - first + 1


def ashby_simulate(exp: WheelExperiment, trials: int) -> tuple[float, float]:
    """Seeded Monte Carlo of the chosen strategy: (mean seconds, standard error).

    Only exact sums of the trial times and of their squares are kept. All-or-
    nothing draws each trial by inversion, 1 + floor(log U / log1p(-p**N)); the
    other two draw the count of trials at each time in one multinomial draw.
    """
    _admit(exp, trials)
    n, p = exp.n_wheels, exp.p
    rng = random.Random(exp.seed)
    total = squares = 0
    if exp.strategy == 1:
        log_fail, uniform, log = math.log1p(-p**n), rng.random, math.log
        for _ in range(trials):
            t = 1 + int(log(1.0 - uniform()) / log_fail)
            total += t
            squares += t * t
    else:
        first, weights = _trial_time_law(exp)
        for i, count in multinomial(rng, trials, weights).items():
            total += (first + i) * count
            squares += (first + i) ** 2 * count
    return total / trials, math.sqrt((trials * squares - total**2) / (trials**2 * (trials - 1)))


def wheel_table(p: float, wheels: Sequence[int], trials: int, seed: int) -> Table:
    """Closed form, Monte Carlo mean and standard error of each strategy, a row per wheel count
    (seed + 100 N + s for N wheels and strategy s). Before the first row runs, each row
    is refused as ashby_simulate would refuse it, and the rows' trials, the times of
    the laws they tabulate and ROW_TIMES a row share TRIAL_BUDGET."""
    work = 0
    for n in wheels:  # a time of a law costs about what a trial does
        work += trials + ROW_TIMES + sum(_admit(WheelExperiment(n, p, strategy), trials)
                                         for strategy in STRATEGIES)
        if work > TRIAL_BUDGET:
            raise ResourceError(
                f"{len(wheels)} rows x {trials} trials and the times of their laws are past "
                f"the budget of {TRIAL_BUDGET}")
    columns = ["wheels", "p"] + [f"case{strategy}_{part}" for strategy in STRATEGIES
                                 for part in ("analytic", "mc_mean", "mc_stderr")]
    rows = []
    for n in wheels:
        row = [n, p]
        for strategy in STRATEGIES:
            exp = WheelExperiment(n, p, strategy, seed=seed + 100 * n + strategy)
            mean, stderr = ashby_simulate(exp, trials)
            row += [ashby_expected(exp)[0], mean, stderr]
        rows.append(row)
    return Table(columns, zip(*rows))


# companion figures commonly quoted for the N=1000, p=1/2 example; recorded
# for reference, never asserted (the analytic means are 2**1000, 2000 and
# about 11 seconds respectively)
QUOTED_CASE1_LOG2_SECONDS = 1000.0
QUOTED_CASE2_SECONDS = 500.0
QUOTED_CASE3_NOTE = "just over half a second"
