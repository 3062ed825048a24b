"""Accelerated-machine time accounting.

Step ``i`` (counted from 0) lasts ``2**-i`` seconds, so the elapsed time
through step ``n`` is ``2 - 2**-n`` and the whole infinite cascade fits in
``LIMIT`` = 2 seconds, which is what lets such a machine finish unboundedly
many steps in finite time. Every time is an exact ``Fraction`` (or an int),
as ``cli`` reads it from the command line; floats only appear at the
reporting boundary, and a budget every index fits is the word ``"unbounded"``.

Two caveats frame everything here. Acceleration buys nothing on bounded
storage: a machine confined to a finite tape revisits a configuration and
loops, however fast it steps, so only the time accounting changes -- that
fact is documented rather than mechanised. And any finite prefix of the
cascade is an ordinary bounded run; functions below that stand in for the
completed limit (the halting flag, the lamp at its limit point) say so
explicitly instead of pretending the limit was reached.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError, ResourceError, shown

if TYPE_CHECKING:
    from .turing import RunOutcome, TuringMachine

LIMIT = Fraction(2)  # seconds the whole cascade takes

# largest step index a report may carry the exact elapsed time of: that time is
# a fraction over 2**n, and `zeno time` takes about 0.3 s to print it at n = 10**6
STEP_INDEX_BUDGET = 10**6

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
        raise ResourceError(f"step index {shown(n)} is past the budget of {STEP_INDEX_BUDGET}")
    return LIMIT - Fraction(1, 2**n)


def steps_within_budget(t: Fraction | int) -> int | str | None:
    """Largest step index n with zeno_time(n) <= t, exactly.

    Returns ``"unbounded"``, the word a report prints, when the budget reaches
    LIMIT and so covers the whole infinite cascade, and None when even step 0
    does not fit. Otherwise 2 - 2**-n <= t reads 2**n <= 1 / (2 - t).
    """
    if t <= 0:
        raise DomainError("budget must be positive")
    if t >= LIMIT:
        return "unbounded"
    if t < 1:
        return None
    return _floor_log2(1 / (LIMIT - t))


def decelerated_steps_within_budget(t: Fraction | int) -> int | None:
    """Largest step index n of the mirrored (decelerating) cascade within budget t.

    Mirroring the accelerating cascade turns the time left to its limit after
    step n (2**-n) into elapsed time 2**n: the first step lasts 1 time unit
    and each further step waits twice as long as the one before. A budget
    therefore buys only floor(log2(budget)) step indices, which is why
    stretching the deadline from 1 to 64 time units gains just 6 steps, and
    stretching it from 1 to 2**1000 gains just 1000. Returns None when even
    the first step does not fit. Exact integer arithmetic.
    """
    if t <= 0:
        raise DomainError("budget must be positive")
    return _floor_log2(t) if t >= 1 else None


# -- Thomson's lamp ---------------------------------------------------------------


def thomson_lamp(t: Fraction | int) -> tuple[str, int | None]:
    """Lamp state at time t under the documented phase convention, ``"on"``
    or ``"off"``, and the number of toggle instants zeno_time(n) <= t,
    computed exactly.

    The lamp switches on at t = 0 and toggles at every instant zeno_time(n),
    n >= 0. The state is only defined before the supertask limit; at and
    beyond it no finite parity constrains the lamp, so the function answers
    ``"undefined"`` there rather than pick a value, and the toggle count is None.
    """
    if t < 0:
        raise DomainError("time must be non-negative")
    if t >= LIMIT:
        return "undefined", None
    got = steps_within_budget(t) if t > 0 else None
    toggles = 0 if got is None else got + 1
    return ("on" if toggles % 2 == 0 else "off"), toggles


# -- halting flag on an accelerated run --------------------------------------------


class HaltingFlagReport(NamedTuple):
    """Fuel-bounded surrogate for the accelerated halting-flag construction.

    The true construction completes a supertask: simulate the machine at
    accelerating pace and raise a designated flag square iff it halts, so the
    flag is readable after the finite limit time. At finite fuel the flag is
    only a halting *witness*, never a non-halting proof; ``fuel_bounded``
    stays True to keep that caveat attached to the data. The steps the run
    took are ``outcome.config.steps``.
    """

    flag: int
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
            f"fuel of {shown(fuel)} steps is past the budget of {STEP_INDEX_BUDGET}")
    from .turing import run

    outcome = run(machine, input_symbols, fuel=fuel)
    return HaltingFlagReport(
        flag=int(outcome.kind == "halted"),
        elapsed=zeno_time(outcome.config.steps),
        outcome=outcome,
    )

