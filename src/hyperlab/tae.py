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

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from enum import IntEnum
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import DomainError, ResourceError

if TYPE_CHECKING:
    from .turing import TuringMachine


class KernelDivergenceError(DomainError):
    """The kernel failed to produce an answer: it is not total at this point."""


# -- limit predicates ----------------------------------------------------------


@dataclass(frozen=True)
class LimitPredicate:
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
        head = outcome.config.heads[0]
        return 1 if outcome.config.tapes[0].read(head) != machine.blank else 0

    return kernel


@dataclass(frozen=True)
class LimitEvaluation:
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


@dataclass(frozen=True)
class AnswerStream:
    """Prime-pair answers: yes at 4, 6, ... before ``last_examined``, then
    ``final_verdict`` there, the working verdict. Only that last answer can
    be no, so the stream changes its mind at most once."""

    horizon: int
    last_examined: int
    final_verdict: bool

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


# `tae goldbach` at the budget: about 0.45 s and 18 MB peak RSS on a 2-vCPU VM
GOLDBACH_HORIZON_BUDGET = 10**6


@functools.cache
def _odd_primes() -> tuple[bytearray, list[int]]:
    """Odd-prime flags up to the horizon budget, sieved once per process.

    ``flags[k]`` is 1 exactly when 2k + 1 is prime; the list holds every such
    k for the primes up to half the budget, the smaller half of a pair.
    """
    size = (GOLDBACH_HORIZON_BUDGET + 1) // 2
    flags = bytearray([1]) * size
    flags[0] = 0
    for k in range(1, (math.isqrt(GOLDBACH_HORIZON_BUDGET) + 1) // 2):
        if flags[k]:
            p = 2 * k + 1
            start = p * p // 2
            flags[start::p] = bytes(len(range(start, size, p)))
    return flags, list(itertools.compress(range(GOLDBACH_HORIZON_BUDGET // 4 + 1), flags))


def has_prime_pair(even: int) -> bool:
    """True when the even number is a sum of two primes.

    Reads the sieved flags, so evens past the horizon budget are refused.
    """
    if even % 2 != 0 or even < 4:
        raise DomainError("prime-pair check is defined for even numbers >= 4")
    if even > GOLDBACH_HORIZON_BUDGET:
        raise ResourceError(
            f"prime-pair check at {even} is past the budget of {GOLDBACH_HORIZON_BUDGET}")
    if even == 4:
        return True  # 2 + 2; every larger even can only split into two odd primes
    flags, smaller = _odd_primes()
    j = even // 2 - 1  # p = 2k + 1 leaves even - p = 2(j - k) + 1
    last = (even - 2) // 4  # p <= even / 2
    for k in smaller:
        if k > last:
            return False
        if flags[j - k]:
            return True
    return False


def goldbach_stream(horizon_even: int) -> AnswerStream:
    """Examine even numbers 4, 6, ... up to the horizon, one answer each.

    The first answer is yes (4 = 2 + 2); each further even number keeps the
    yes going if it splits into two primes, otherwise the stream says no once
    and stops. A stream that ends still saying yes has, of course, only
    checked up to its horizon.
    """
    if horizon_even < 4 or horizon_even % 2 != 0:
        raise DomainError("horizon must be an even number >= 4")
    if horizon_even > GOLDBACH_HORIZON_BUDGET:
        raise ResourceError(
            f"horizon {horizon_even} is past the budget of {GOLDBACH_HORIZON_BUDGET}")
    for even in range(6, horizon_even + 1, 2):
        if not has_prime_pair(even):
            return AnswerStream(horizon_even, even, False)
    return AnswerStream(horizon_even, horizon_even, True)


# -- bogosort ---------------------------------------------------------------------

MAX_BOGOSORT_LEN = 10


@dataclass(frozen=True)
class BogosortResult:
    sequence: tuple[int, ...]
    tries: int
    gave_up: bool = False


def _permutation_by_rank(items: Sequence[int], rank: int) -> list[int]:
    """Lehmer-code unranking: rank in [0, len!) to a unique arrangement."""
    pool = list(items)
    out = []
    for radix in range(len(pool), 0, -1):
        f = math.factorial(radix - 1)
        digit, rank = divmod(rank, f)
        out.append(pool.pop(digit))
    return out


def bogosort(
    seq: Sequence[int],
    memoized: bool = False,
    seed: "int | numpy.random.SeedSequence" = 0,
    max_tries: int = 10**6,
) -> BogosortResult:
    """Shuffle until sorted; checking an arrangement costs one try.

    The plain variant may redraw arrangements it has already rejected and is
    capped by ``max_tries`` (a gave-up result carries the count). The memoized
    variant never revisits an arrangement -- ranks are drawn without
    replacement -- so it needs at most len! tries. The shuffles draw from
    ``numpy.random.default_rng(seed)``; a caller that drew ``seq`` from the
    same seed passes an independent child of it instead.
    """
    items = list(seq)
    if len(items) > MAX_BOGOSORT_LEN:
        raise ResourceError(
            f"sequence longer than {MAX_BOGOSORT_LEN}: the factorial search space "
            "is past desk scale")
    if max_tries < 1:
        raise DomainError("max_tries must be positive")
    import numpy as np

    rng = np.random.default_rng(seed)
    target = sorted(items)

    current = items
    tries = 1
    if current == target:
        return BogosortResult(tuple(current), tries)

    if memoized:
        total = math.factorial(len(items))
        # virtual Fisher-Yates over ranks [0, total): each draw is uniform over
        # the ranks not yet tried. Rank 0 (the input order) was spent by the
        # first check, so swap the last slot into its place up front.
        swap: dict[int, int] = {0: total - 1}
        remaining = total - 1
        while remaining > 0:
            j = int(rng.integers(remaining))
            rank = swap.get(j, j)
            swap[j] = swap.get(remaining - 1, remaining - 1)
            remaining -= 1
            tries += 1
            current = _permutation_by_rank(items, rank)
            if current == target:
                return BogosortResult(tuple(current), tries)
        raise AssertionError("a sorted arrangement always exists")  # pragma: no cover

    while tries < max_tries:
        current = [items[i] for i in rng.permutation(len(items))]
        tries += 1
        if current == target:
            return BogosortResult(tuple(current), tries)
    return BogosortResult(tuple(current), tries, gave_up=True)


# -- wheel strategies ----------------------------------------------------------------


class WheelStrategy(IntEnum):
    ALL_OR_NOTHING = 1  # respin every wheel until one round shows all successes
    ONE_AT_A_TIME = 2  # finish each wheel before starting the next
    FREEZE_SUCCESSES = 3  # respin only the wheels still failing


@dataclass(frozen=True)
class WheelExperiment:
    n_wheels: int
    p: float
    strategy: WheelStrategy
    seed: int = 0

    def __post_init__(self):
        if self.n_wheels < 1:
            raise DomainError("need at least one wheel")
        if self.n_wheels > sys.float_info.max:  # every strategy computes with N as a float
            raise DomainError(f"at most {sys.float_info.max:.6g} wheels, the float range")
        if not 0.0 < self.p < 1.0:
            raise DomainError("success probability must lie strictly between 0 and 1")


TAIL_RELATIVE_TOL = 1e-9

# the freeze-successes series may sum at most this many terms, a few seconds
SERIES_TERM_BUDGET = 3 * 10**7

# a simulated trial may expect at most 2**57 spins, 64 times below 2**63,
# where numpy saturates a geometric draw and an int64 sum wraps around
SIMULATION_LOG2_SPINS = 57

# strategies 2 and 3 draw at most this many int64 cells (8 MiB) at a time,
# so a simulation's memory does not grow with the number of wheels; a block
# holds at least one whole trial, so this is also their budget of wheels
DRAW_BLOCK_CELLS = 2**20

# draws (wheels x trials) one simulation of strategy 2 or 3 may make
DRAW_BUDGET = 10**8

# trials one simulation may run: it keeps one float64 per trial, 80 MB at the budget
TRIAL_BUDGET = 10**7


def ashby_expected(exp: WheelExperiment) -> float:
    """Expected seconds to grand success, at one spin round per second.

    All-or-nothing: a round succeeds with p**N, so the mean is p**-N.
    One-at-a-time: N wheels, each a mean 1/p spins, run back to back: N/p.
    Freeze-successes: the slowest of N independent wheels; its mean
    sum_{t>=0} (1 - (1 - (1-p)**t)**N) is summed until the tail is
    negligible relative to the accumulated value.
    """
    n, p = exp.n_wheels, exp.p
    if exp.strategy is WheelStrategy.ALL_OR_NOTHING:
        return p**-n
    if exp.strategy is WheelStrategy.ONE_AT_A_TIME:
        return n / p
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
    """log2 of the expectation, exact where the value itself would overflow."""
    n, p = exp.n_wheels, exp.p
    if exp.strategy is WheelStrategy.ALL_OR_NOTHING:
        return -n * math.log2(p)
    return math.log2(ashby_expected(exp))


def ashby_case3_inclusion_exclusion(n: int, p: float) -> float:
    """Closed form for the freeze-successes mean, by inclusion-exclusion over
    subsets of wheels: sum_k (-1)**(k+1) C(n,k) / (1 - (1-p)**k)."""
    q = 1.0 - p
    return sum(
        (-1) ** (k + 1) * math.comb(n, k) / (1.0 - q**k) for k in range(1, n + 1)
    )


def ashby_simulate(exp: WheelExperiment, trials: int) -> tuple[float, float]:
    """Seeded Monte Carlo of the chosen strategy: (mean seconds, standard error).

    Each wheel's spin count until its first success is geometric with
    parameter p. The strategies compound those counts differently: a single
    geometric draw at p**N for all-or-nothing rounds, the per-wheel sum for
    one-at-a-time, the per-wheel maximum for freeze-successes.
    """
    if trials < 1:
        raise DomainError("need at least one trial")
    if trials > TRIAL_BUDGET:
        raise ResourceError(f"{trials} trials is past the budget of {TRIAL_BUDGET}")
    n, p = exp.n_wheels, exp.p
    if exp.strategy is not WheelStrategy.ALL_OR_NOTHING and (
            n > DRAW_BLOCK_CELLS or n * trials > DRAW_BUDGET):
        raise ResourceError(
            f"{n} wheels x {trials} trials is past the budget of {DRAW_BLOCK_CELLS} "
            f"wheels and {DRAW_BUDGET} draws")
    if exp.strategy is WheelStrategy.ALL_OR_NOTHING:
        log2_spins = -n * math.log2(p)
    elif exp.strategy is WheelStrategy.ONE_AT_A_TIME:
        log2_spins = math.log2(n) - math.log2(p)
    else:
        log2_spins = -math.log2(p)
    if log2_spins > SIMULATION_LOG2_SPINS:
        raise DomainError(
            f"a simulated trial expects 2**{log2_spins:.1f} spins, past the "
            f"2**{SIMULATION_LOG2_SPINS} that 64-bit draws count exactly; "
            "use the analytic expectation")
    import numpy as np

    rng = np.random.default_rng(exp.seed)
    if exp.strategy is WheelStrategy.ALL_OR_NOTHING:
        times = rng.geometric(p**n, size=trials).astype(np.float64)
    else:
        # trials x wheels draws, a block of whole rows at a time: the blocks
        # continue one geometric stream, so the draws are those of one array
        reduce = np.sum if exp.strategy is WheelStrategy.ONE_AT_A_TIME else np.max
        rows = max(1, DRAW_BLOCK_CELLS // n)
        times = np.empty(trials, dtype=np.float64)
        for start in range(0, trials, rows):
            block = rng.geometric(p, size=(min(rows, trials - start), n))
            times[start:start + len(block)] = reduce(block, axis=1)
    mean = float(times.mean())
    stderr = float(times.std(ddof=1) / math.sqrt(trials)) if trials > 1 else float("inf")
    return mean, stderr


# companion figures commonly quoted for the N=1000, p=1/2 example; recorded
# for reference, never asserted (the analytic means are 2**1000, 2000 and
# about 11 seconds respectively)
QUOTED_CASE1_LOG2_SECONDS = 1000.0
QUOTED_CASE2_SECONDS = 500.0
QUOTED_CASE3_NOTE = "just over half a second"
