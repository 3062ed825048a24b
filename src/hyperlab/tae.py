"""Trial-and-error (limit) computation semantics and worked procedures.

A limit predicate holds exactly when its binary kernel f(args, y) settles to 1
as y grows. A horizon-bounded evaluator can report the kernel's current
verdict, how often it changed its mind, and since when it has been stable --
but it can never certify stability, and the result object keeps that caveat
explicit.

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
from enum import IntEnum
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .errors import DomainError, ResourceError
from .variates import multinomial

if TYPE_CHECKING:
    from .turing import TuringMachine


class KernelDivergenceError(DomainError):
    """The kernel failed to produce an answer: it is not total at this point."""


# -- limit predicates ----------------------------------------------------------


class LimitPredicate(NamedTuple):
    """Binary kernel f(x1..xn, y) whose limit in y defines the predicate."""

    kernel: Callable[..., int]
    arity: int


def tm_kernel(machine: TuringMachine, fuel: int) -> Callable[..., int]:
    """Adapt a machine into a total-by-fuel kernel.

    Arguments are encoded in unary, separated by blanks. A run that exhausts
    its fuel raises :class:`KernelDivergenceError`; a halting run answers 1
    exactly when the cell under the head holds a mark.
    """
    from .turing import OutcomeKind, run

    def kernel(*args: int) -> int:
        text = machine.blank.join("1" * a for a in args)
        outcome = run(machine, text, fuel=fuel)
        if outcome.kind is OutcomeKind.OUT_OF_FUEL:
            raise KernelDivergenceError(
                f"kernel machine exceeded {fuel} steps on arguments {args!r}")
        config = outcome.config
        return 1 if config.tapes[0].read(config.head) != machine.blank else 0

    return kernel


class LimitEvaluation(NamedTuple):
    verdict: bool
    mind_changes: int
    stable_since: int
    unsettled: bool  # the last flip happened at the horizon itself


def evaluate_limit_predicate(
    pred: LimitPredicate, args: Sequence[int], horizon: int
) -> LimitEvaluation:
    """Run the kernel at y = 0..horizon and read off the limit candidate.

    The verdict is the kernel's value at the horizon; ``stable_since`` is the
    step of its last change, 0 if none. When that *is* the horizon the answer
    never had a chance to settle and ``unsettled`` is raised. Even a settled
    answer is only "correct unless the kernel changes its mind later" -- that
    uncertainty is inherent, not a bug.
    """
    if horizon < 1:
        raise DomainError("horizon must be at least 1")
    if len(args) != pred.arity:
        raise DomainError(f"predicate expects {pred.arity} arguments, got {len(args)}")
    mind_changes = stable_since = 0
    for y in range(horizon + 1):
        v = pred.kernel(*args, y)
        if v not in (0, 1):
            raise DomainError(f"kernel must answer 0 or 1, got {v!r} at y={y}")
        if y and v != verdict:
            mind_changes, stable_since = mind_changes + 1, y
        verdict = v
    return LimitEvaluation(
        verdict=bool(verdict),
        mind_changes=mind_changes,
        stable_since=stable_since,
        unsettled=stable_since == horizon,
    )


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


# `tae goldbach` at the budget: about 0.45 s and 18 MB peak RSS on a 2-vCPU VM
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


def has_prime_pair(even: int) -> bool:
    """True when the even number is a sum of two primes, read off odd-prime
    flags sieved up to it; evens past the horizon budget are refused."""
    if even % 2 != 0 or even < 4:
        raise DomainError("prime-pair check is defined for even numbers >= 4")
    if even > GOLDBACH_HORIZON_BUDGET:
        raise ResourceError(
            f"prime-pair check at {even} is past the budget of {GOLDBACH_HORIZON_BUDGET}")
    if even == 4:
        return True  # 2 + 2; every larger even can only split into two odd primes
    flags = _odd_prime_flags(even)
    j = even // 2 - 1  # p = 2k + 1 leaves even - p = 2(j - k) + 1
    return any(flags[k] and flags[j - k] for k in range(1, (even - 2) // 4 + 1))


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
            f"horizon {horizon_even} is past the budget of {GOLDBACH_HORIZON_BUDGET}")
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
    if len(items) > MAX_BOGOSORT_LEN:
        raise ResourceError(
            f"sequence longer than {MAX_BOGOSORT_LEN}: the factorial search space "
            "is past desk scale")
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


class WheelStrategy(IntEnum):
    ALL_OR_NOTHING = 1  # respin every wheel until one round shows all successes
    ONE_AT_A_TIME = 2  # finish each wheel before starting the next
    FREEZE_SUCCESSES = 3  # respin only the wheels still failing


class WheelExperiment:
    __slots__ = ("n_wheels", "p", "strategy", "seed")

    def __init__(self, n_wheels: int, p: float, strategy: WheelStrategy, seed: int = 0):
        if n_wheels < 1:
            raise DomainError("need at least one wheel")
        if n_wheels > sys.float_info.max:  # every strategy computes with N as a float
            raise DomainError(f"at most {sys.float_info.max:.6g} wheels, the float range")
        if not 0.0 < p < 1.0:
            raise DomainError("success probability must lie strictly between 0 and 1")
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


def ashby_expected(exp: WheelExperiment) -> float:
    """Expected seconds to grand success, at one spin round per second.

    All-or-nothing: a round succeeds with p**N, so the mean is p**-N.
    One-at-a-time: N wheels, each a mean 1/p spins, run back to back: N/p.
    Freeze-successes: the slowest of N independent wheels; its mean
    sum_{t>=0} (1 - (1 - (1-p)**t)**N) is summed until the tail is
    negligible relative to the accumulated value.
    A mean past the float range, reachable only by the first two, raises
    :class:`DomainError`; ``ashby_expected_log2`` gives its log2.
    """
    n, p = exp.n_wheels, exp.p
    if exp.strategy is not WheelStrategy.FREEZE_SUCCESSES:
        try:  # p**-N raises past the float range, N/p rounds to inf
            expected = p**-n if exp.strategy is WheelStrategy.ALL_OR_NOTHING else n / p
        except OverflowError:
            expected = math.inf
        if expected == math.inf:
            raise DomainError("the expectation is past the float range; use ashby_expected_log2")
        return expected
    # term t is at most N*q**t and the total at least 1, so the tail test
    # holds by the first t with N*q**t <= tol: at most this many terms
    terms = math.log(n / TAIL_RELATIVE_TOL) / -math.log1p(-p) + 2
    if terms > SERIES_TERM_BUDGET:
        raise ResourceError(
            f"the freeze-successes series needs up to {terms:.3g} terms, past the "
            f"budget of {SERIES_TERM_BUDGET}")
    q = 1.0 - p
    total = 0.0
    qt = 1.0  # q**t
    while True:
        term = 1.0 - (1.0 - qt) ** n
        total += term
        qt *= q
        if term <= total * TAIL_RELATIVE_TOL:
            return total


def ashby_expected_log2(exp: WheelExperiment) -> float:
    """log2 of the expectation, finite where the value itself would overflow."""
    n, p = exp.n_wheels, exp.p
    if exp.strategy is WheelStrategy.ALL_OR_NOTHING:
        return -n * math.log2(p)
    if exp.strategy is WheelStrategy.ONE_AT_A_TIME:
        spins = n / p
        return math.log2(spins) if spins < math.inf else math.log2(n) - math.log2(p)
    return math.log2(ashby_expected(exp))


def _trial_time_law(exp: WheelExperiment) -> tuple[int, list[float]]:
    """The law of one trial's time T under strategy 2 or 3: (first, weights), with
    weight i in proportion to P(T = first + i) and at most 2**-64 left out each side.

    Here q = 1 - p and L = log 2**64. Freeze-successes: F(t) = P(T <= t) =
    exp(N log1p(-q**t)), and 1 - F(t) <= N q**t <= 2**-64 from t = (log N + L)
    / -log q on; the weights are differences of exp below F = 1/2, of expm1
    above. One-at-a-time: T > t when t spins bring fewer than N successes, and
    Chernoff's bounds on that binomial leave out the t with t p outside (N + L/2
    - sqrt(L**2/4 + 2LN), N + L + sqrt(L**2 + 2LN)]; the log weights, by lgamma,
    are taken less their largest.
    """
    n, p, q = exp.n_wheels, exp.p, 1.0 - exp.p
    log_bound = 64 * math.log(2)
    if exp.strategy is WheelStrategy.FREEZE_SUCCESSES:
        first, last = 1, math.ceil((math.log(n) + log_bound) / -math.log1p(-p))
    else:
        low = n + log_bound / 2 - math.sqrt(log_bound**2 / 4 + 2 * log_bound * n)
        high = n + log_bound + math.sqrt(log_bound**2 + 2 * log_bound * n)
        first, last = max(n, math.floor(low / p) + 1), math.ceil(high / p)
    if last - first + 1 > CELL_BUDGET:
        raise ResourceError(
            f"the law of one trial spans {last - first + 1} times, past the budget of "
            f"{CELL_BUDGET}")
    if exp.strategy is WheelStrategy.FREEZE_SUCCESSES:
        logs = [-math.inf] + [n * math.log1p(-q**t) for t in range(1, last + 1)]
        return first, [math.exp(b) - math.exp(a) if b < -math.log(2)
                       else math.expm1(b) - math.expm1(a) for a, b in zip(logs, logs[1:])]
    logs = [math.lgamma(t) - math.lgamma(t - n + 1) + t * math.log(q)
            for t in range(first, last + 1)]
    peak = max(logs)
    return first, [math.exp(a - peak) for a in logs]


def ashby_simulate(exp: WheelExperiment, trials: int) -> tuple[float, float]:
    """Seeded Monte Carlo of the chosen strategy: (mean seconds, standard error).

    Only exact sums of the trial times and of their squares are kept. All-or-
    nothing draws each trial by inversion, 1 + floor(log U / log1p(-p**N)); the
    other two draw the count of trials at each time in one multinomial draw.
    """
    if trials < 2:
        raise DomainError("a standard error needs at least two trials")
    if trials > TRIAL_BUDGET:
        raise ResourceError(f"{trials} trials is past the budget of {TRIAL_BUDGET}")
    n, p = exp.n_wheels, exp.p
    log2_spins = (-math.log2(p) if exp.strategy is WheelStrategy.FREEZE_SUCCESSES
                  else ashby_expected_log2(exp))
    if log2_spins > SIMULATION_LOG2_SPINS:
        raise DomainError(
            f"a simulated trial expects 2**{log2_spins:.1f} spins, past the "
            f"2**{SIMULATION_LOG2_SPINS} that 64-bit counts hold; "
            "use the analytic expectation")
    rng = random.Random(exp.seed)
    total = squares = 0
    if exp.strategy is WheelStrategy.ALL_OR_NOTHING:
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


# companion figures commonly quoted for the N=1000, p=1/2 example; recorded
# for reference, never asserted (the analytic means are 2**1000, 2000 and
# about 11 seconds respectively)
QUOTED_CASE1_LOG2_SECONDS = 1000.0
QUOTED_CASE2_SECONDS = 500.0
QUOTED_CASE3_NOTE = "just over half a second"
