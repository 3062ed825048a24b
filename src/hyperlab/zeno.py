"""Accelerated-machine time accounting.

Step ``i`` (counted from 0) lasts ``2**-i`` seconds, so the elapsed time
through step ``n`` is ``2 - 2**-n`` and the whole infinite cascade fits in
``LIMIT`` = 2 seconds, which is what lets such a machine finish unboundedly
many steps in finite time. All times are kept as exact rationals; floats only
appear at the reporting boundary (binary floats are dyadic rationals, so
accepting them loses nothing).

Two caveats frame everything here. Acceleration buys nothing on bounded
storage: a machine confined to a finite tape revisits a configuration and
loops, however fast it steps, so only the time accounting changes -- that
fact is documented rather than mechanised. And any finite prefix of the
cascade is an ordinary bounded run; functions below that stand in for the
completed limit (the halting flag, the lamp at its limit point) say so
explicitly instead of pretending the limit was reached.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from numbers import Rational
from typing import TYPE_CHECKING, NamedTuple, Union

from .errors import DomainError, ResourceError

if TYPE_CHECKING:
    from .turing import RunOutcome, TuringMachine

LIMIT = Fraction(2)  # seconds the whole cascade takes

# largest step index a report may carry the exact elapsed time of: that time is
# a fraction over 2**n, and `zeno time` takes about 0.3 s to print it at n = 10**6
STEP_INDEX_BUDGET = 10**6

TimeLike = Union[int, float, Fraction]


def _exact(t: TimeLike, what: str = "time") -> Fraction:
    if isinstance(t, float):
        if t != t or t in (float("inf"), float("-inf")):
            raise DomainError(f"{what} must be finite")
        return Fraction(t)
    if isinstance(t, Rational):
        return Fraction(t)
    raise DomainError(f"{what} must be a real number, got {type(t).__name__}")


def _floor_log2(q: Fraction) -> int:
    """floor(log2(q)) for exact rational q >= 1: floor(q) has the same one."""
    return (q.numerator // q.denominator).bit_length() - 1


def zeno_time(n: int) -> Fraction:
    """Exact elapsed time through step index n: the sum of 2**-i, i = 0..n.

    An index past STEP_INDEX_BUDGET is refused with :class:`ResourceError`.
    """
    if n < 0:
        raise DomainError("step index must be a natural number")
    if n > STEP_INDEX_BUDGET:
        raise ResourceError(f"step index {n} is past the budget of {STEP_INDEX_BUDGET}")
    return LIMIT - Fraction(1, 2**n)


class Unbounded(Enum):
    """Marker: the budget covers the entire infinite cascade."""

    UNBOUNDED = "unbounded"


UNBOUNDED = Unbounded.UNBOUNDED


def steps_within_budget(t: TimeLike) -> Union[int, Unbounded, None]:
    """Largest step index n with zeno_time(n) <= t, exactly.

    Returns UNBOUNDED when the budget reaches LIMIT, and None when even
    step 0 does not fit. Otherwise 2 - 2**-n <= t reads 2**n <= 1 / (2 - t).
    """
    budget = _exact(t, "budget")
    if budget <= 0:
        raise DomainError("budget must be positive")
    if budget >= LIMIT:
        return UNBOUNDED
    if budget < 1:
        return None
    return _floor_log2(1 / (LIMIT - budget))


def decelerated_steps_within_budget(t: TimeLike) -> int:
    """Largest step index n of the mirrored (decelerating) cascade within budget t.

    Mirroring the accelerating cascade turns the time left to its limit after
    step n (2**-n) into elapsed time 2**n: the first step lasts 1 time unit
    and each further step waits twice as long as the one before. A budget
    therefore buys only floor(log2(budget)) step indices, which is why
    stretching the deadline from 1 to 64 time units gains just 6 steps, and
    stretching it from 1 to 2**1000 gains just 1000. A budget below the first
    step is a :class:`DomainError`. Exact integer arithmetic.
    """
    budget = _exact(t, "budget")
    if budget < 1:
        raise DomainError("budget does not cover the first step")
    return _floor_log2(budget)


# -- Thomson's lamp ---------------------------------------------------------------


class LampState(Enum):
    ON = "on"
    OFF = "off"
    UNDEFINED = "undefined"


def lamp_toggle_count(t: TimeLike) -> int:
    """Number of toggle instants zeno_time(n) <= t, computed exactly."""
    budget = _exact(t, "t")
    if budget < 0:
        raise DomainError("time must be non-negative")
    got = steps_within_budget(budget) if budget > 0 else None
    if got is UNBOUNDED:
        raise DomainError("toggle count is infinite at or beyond the supertask limit")
    return 0 if got is None else got + 1


def thomson_lamp(t: TimeLike) -> LampState:
    """Lamp state at time t under the documented phase convention.

    The lamp switches on at t = 0 and toggles at every instant zeno_time(n),
    n >= 0. The state is only defined before the supertask limit; at and
    beyond it no finite parity constrains the lamp, so the function answers
    UNDEFINED there rather than pick a value.
    """
    instant = _exact(t, "t")
    if instant < 0:
        raise DomainError("time must be non-negative")
    if instant >= LIMIT:
        return LampState.UNDEFINED
    toggles = lamp_toggle_count(instant)
    return LampState.ON if toggles % 2 == 0 else LampState.OFF


# -- halting flag on an accelerated run --------------------------------------------


class HaltingFlagReport(NamedTuple):
    """Fuel-bounded surrogate for the accelerated halting-flag construction.

    The true construction completes a supertask: simulate the machine at
    accelerating pace and raise a designated flag square iff it halts, so the
    flag is readable after the finite limit time. At finite fuel the flag is
    only a halting *witness*, never a non-halting proof; ``fuel_bounded``
    stays True to keep that caveat attached to the data.
    """

    flag: int
    steps: int
    elapsed: Fraction
    outcome: RunOutcome
    fuel_bounded: bool = True


def atm_halting_flag(machine: TuringMachine, input_symbols: str, fuel: int) -> HaltingFlagReport:
    """Run at most ``fuel`` steps; flag 1 iff the machine halted in that budget.

    Elapsed time is zeno_time(steps): the prefix sum through slot ``steps``,
    i.e. the simulated steps plus the one slot spent writing the flag square.
    For any finite run this stays below LIMIT. Fuel past
    STEP_INDEX_BUDGET is refused with :class:`ResourceError` before the run.
    """
    if fuel > STEP_INDEX_BUDGET:
        raise ResourceError(
            f"fuel of {fuel} steps is past the budget of {STEP_INDEX_BUDGET}")
    from .turing import OutcomeKind, run

    outcome = run(machine, input_symbols, fuel=fuel)
    halted = outcome.kind is OutcomeKind.HALTED
    return HaltingFlagReport(
        flag=1 if halted else 0,
        steps=outcome.config.steps,
        elapsed=zeno_time(outcome.config.steps),
        outcome=outcome,
    )


# -- superluminal threshold ---------------------------------------------------------


def first_superluminal_step(head_speed_step1: float) -> int:
    """First step (1-based) whose head speed must exceed the speed of light.

    Step n lasts ``2**-(n-1)`` times the first step's duration while the head
    still crosses one cell, so the required speed doubles every step:
    speed(n) = head_speed_step1 * 2**(n-1), whatever the cell pitch.
    """
    from .limits import SPEED_OF_LIGHT

    if not head_speed_step1 > 0:  # NaN fails too
        raise DomainError("speed must be positive")
    n = 1
    speed = float(head_speed_step1)
    while speed <= SPEED_OF_LIGHT:
        n += 1
        speed *= 2.0
    return n
