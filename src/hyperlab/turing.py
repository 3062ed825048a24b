"""Deterministic Turing-machine engine.

Machines are quintuple programs ``(state, read) -> (state, write, move)``
loaded from JSON documents. Tapes are unbounded in both directions and held
in a list-backed :class:`Tape`; a machine may have several tapes, in which
case one transition reads and writes all heads and moves them in one shared
direction.

Each machine compiles its quintuples once into a table ``(state, read) ->
(state, write, shift)`` that the one stepping loop, shared by runs, sessions
and :func:`step`, reads. Two hooks extend that loop:

* an oracle: entering the declared ask-state consults an opaque total
  predicate on the unary number written left of the head and resumes in the
  declared yes- or no-state, at no fuel cost;
* coupled input: entering the declared request-state pops the oldest symbol
  from an inbound queue onto the tape, or reports ``Waiting`` if the queue is
  empty.
"""

from __future__ import annotations

from collections import deque
from dataclasses import astuple, dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Optional

from .errors import ConfigurationError, DomainError, ResourceError, ValidationError

MOVES = {"l": -1, "n": 0, "r": 1}

DEFAULT_FUEL = 10**6
DEFAULT_TRACE_CAP = 10**4
FUEL_BUDGET = 10**7  # steps one drive may take; refused up front beyond this
# characters of tape text one drive may reach, (extent + fuel) x the longest
# symbol on each tape; refused up front beyond this
TAPE_TEXT_BUDGET = 5 * 10**7
# characters of tape text the snapshots of one traced run may keep; counted as
# they are taken, since a snapshot's text is not known before the run reaches it
TRACE_TEXT_BUDGET = 5 * 10**7


@dataclass(frozen=True)
class OracleStates:
    ask: str
    yes: str
    no: str


@dataclass(frozen=True)
class InputStates:
    request: str
    resume: str


@dataclass(frozen=True)
class TuringMachine:
    """Validated machine definition; immutable and shareable."""

    states: frozenset[str]
    initial: str
    finals: frozenset[str]
    alphabet: frozenset[str]
    blank: str
    num_tapes: int
    transitions: dict[tuple[str, tuple[str, ...]], tuple[str, tuple[str, ...], str]]
    one_sided: bool = False
    oracle_states: Optional[OracleStates] = None
    input_states: Optional[InputStates] = None
    oracle: Optional[Callable[[int], bool]] = None

    @cached_property
    def _table(self) -> dict:
        """The transitions as the stepping loop reads them, compiled once.

        The key reads tape 0's symbol alone on a one-tape machine, else the
        tuple of every tape's symbol. The value is ``(dst, write, shift,
        rest)``: ``write`` is tape 0's new symbol, or None where the rule
        writes back what it read; ``shift`` is the head move as an int;
        ``rest`` holds the symbols written on tapes 1 and up.
        """
        return {(src, read[0] if self.num_tapes == 1 else read):
                (dst, None if write[0] == read[0] else write[0], MOVES[move], write[1:])
                for (src, read), (dst, write, move) in self.transitions.items()}

    @cached_property
    def _longest_symbol(self) -> int:
        """The length of the longest symbol a cell may hold (the blank is in the alphabet)."""
        return max(map(len, self.alphabet))


class Tape:
    """One tape, unbounded in both directions, backed by a list.

    Cell p sits at ``cells[p - origin]`` and unwritten cells hold the blank
    symbol; ``lo..hi`` bounds the non-blank cells (empty when lo > hi). The
    list grows by doubling at whichever end a write falls beyond, so the
    tape's text is one join over a slice, not a walk of its cells.
    """

    __slots__ = ("blank", "cells", "origin", "lo", "hi")

    def __init__(self, blank: str, symbols: Iterable[str] = ()):
        """A tape holding ``symbols`` from cell 0 on, blank everywhere else."""
        self.blank = blank
        cells = self.cells = list(symbols)
        self.origin = 0
        # found from the two ends, so only blanks at an end are walked
        self.lo = next((i for i, s in enumerate(cells) if s != blank), 0)
        self.hi = next((i for i in range(len(cells) - 1, -1, -1) if cells[i] != blank), -1)

    def read(self, pos: int) -> str:
        index = pos - self.origin
        return self.cells[index] if 0 <= index < len(self.cells) else self.blank

    def write(self, pos: int, symbol: str) -> None:
        blank, cells = self.blank, self.cells
        if self.lo <= pos <= self.hi:
            cells[pos - self.origin] = symbol
            if symbol == blank:
                if pos == self.lo:
                    while self.lo <= self.hi and cells[self.lo - self.origin] == blank:
                        self.lo += 1
                elif pos == self.hi:
                    while cells[self.hi - self.origin] == blank:
                        self.hi -= 1
            return
        if symbol == blank:
            return
        index = pos - self.origin
        if index < 0:
            grow = max(-index, len(cells))
            cells[:0] = [blank] * grow
            self.origin -= grow
            index += grow
        elif index >= len(cells):
            cells.extend([blank] * max(index + 1 - len(cells), len(cells)))
        cells[index] = symbol
        if self.lo > self.hi:
            self.lo = self.hi = pos
        elif pos < self.lo:
            self.lo = pos
        else:
            self.hi = pos

    def text(self) -> str:
        """Non-blank content, from leftmost to rightmost written cell."""
        return "".join(self._written())

    def marks_left_of(self, pos: int) -> int:
        """Number of non-blank cells strictly left of ``pos``."""
        if pos <= self.lo:
            return 0
        window = self.cells[self.lo - self.origin:min(pos, self.hi + 1) - self.origin]
        return len(window) - window.count(self.blank)

    def copy(self) -> "Tape":
        twin = Tape(self.blank)
        twin.cells, twin.origin, twin.lo, twin.hi = self.cells[:], self.origin, self.lo, self.hi
        return twin

    def _written(self) -> list[str]:
        return self.cells[self.lo - self.origin:self.hi - self.origin + 1]

    def __eq__(self, other) -> bool:
        """Same blank and the same symbol in every cell, however the list is laid out."""
        if not isinstance(other, Tape):
            return NotImplemented
        return (self.blank == other.blank and self._written() == other._written()
                and (self.lo == other.lo or self.lo > self.hi))

    def __repr__(self) -> str:
        return f"Tape(blank={self.blank!r}, lo={self.lo}, text={self.text()!r})"


@dataclass
class TapeConfiguration:
    """Snapshot of a running machine: tapes, head positions, state."""

    tapes: tuple[Tape, ...]
    heads: tuple[int, ...]
    state: str
    steps: int = 0

    def read(self) -> tuple[str, ...]:
        return tuple([t.read(h) for t, h in zip(self.tapes, self.heads)])

    def tape_text(self, tape: int = 0) -> str:
        """Non-blank content of one tape, from leftmost to rightmost written cell."""
        return self.tapes[tape].text()

    def clone(self) -> "TapeConfiguration":
        return replace(self, tapes=tuple(t.copy() for t in self.tapes))


@dataclass(frozen=True)
class TraceSnapshot:
    """One traced configuration: state, heads, steps and the text of each tape."""

    state: str
    heads: tuple[int, ...]
    steps: int
    texts: tuple[str, ...]

    def tape_text(self, tape: int = 0) -> str:
        return self.texts[tape]


def _snapshot(config: TapeConfiguration) -> TraceSnapshot:
    return TraceSnapshot(config.state, config.heads, config.steps,
                         tuple(t.text() for t in config.tapes))


class OutcomeKind(Enum):
    HALTED = "halted"
    OUT_OF_FUEL = "out-of-fuel"
    STUCK = "stuck"


@dataclass
class RunOutcome:
    kind: OutcomeKind
    config: TapeConfiguration
    oracle_consultations: int = 0
    trace: Optional[list[TraceSnapshot]] = None


class AlreadyHaltedError(DomainError):
    """step() was asked to advance a configuration whose state is final."""


class TransitionMissing(Exception):
    """step() was asked to advance a configuration that no rule applies to."""

    def __init__(self, state: str, symbols: tuple[str, ...]):
        super().__init__(f"no transition for state {state!r} reading {symbols!r}")
        self.state = state
        self.symbols = symbols


# -- loading -------------------------------------------------------------------


def _required(doc, key: str, where: str):
    """doc[key] of a JSON object, or ValidationError saying what is missing."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{where} must be a JSON object, got {doc!r}")
    try:
        return doc[key]
    except KeyError:
        raise ValidationError(f"{where} lacks required key {key!r}") from None


def _names(value, what: str) -> frozenset[str]:
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{what} must be a list, got {value!r}")
    return frozenset(str(s) for s in value)


def _as_symbol_tuple(value, num_tapes: int, what: str) -> tuple[str, ...]:
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{what} must be a symbol or a list of symbols, got {value!r}")
    if len(value) != num_tapes:
        raise ValidationError(f"{what} must list {num_tapes} symbols, got {value!r}")
    return tuple(str(s) for s in value)


def load_machine(doc: dict) -> TuringMachine:
    """Validate a machine document and build an immutable definition.

    Rejects duplicate ``(state, read)`` keys (nondeterminism), references to
    undeclared states or symbols, and malformed oracle or input declarations.
    """
    where = "machine document"
    blank = str(_required(doc, "blank", where))
    alphabet = _names(_required(doc, "alphabet", where), "alphabet")
    states = _names(_required(doc, "states", where), "states")
    initial = str(_required(doc, "initial", where))
    finals = _names(_required(doc, "finals", where), "finals")
    raw_transitions = _required(doc, "transitions", where)
    if not isinstance(raw_transitions, list):
        raise ValidationError(f"transitions must be a list, got {raw_transitions!r}")

    num_tapes = doc.get("tapes", 1)
    if not isinstance(num_tapes, int) or isinstance(num_tapes, bool):
        raise ValidationError(f"tapes must be an integer, got {num_tapes!r}")
    if num_tapes < 1:
        raise ValidationError("a machine needs at least one tape")
    if blank not in alphabet:
        raise ValidationError(f"blank symbol {blank!r} must be in the alphabet")
    if initial not in states:
        raise ValidationError(f"initial state {initial!r} is not declared")
    if not finals <= states:
        raise ValidationError(f"final states {sorted(finals - states)} are not declared")

    transitions: dict[tuple[str, tuple[str, ...]], tuple[str, tuple[str, ...], str]] = {}
    for number, rule in enumerate(raw_transitions):
        where = f"transition {number}"
        src = str(_required(rule, "from", where))
        dst = str(_required(rule, "to", where))
        read = _as_symbol_tuple(_required(rule, "read", where), num_tapes, "read")
        write = _as_symbol_tuple(_required(rule, "write", where), num_tapes, "write")
        move = str(_required(rule, "move", where))
        if src not in states or dst not in states:
            raise ValidationError(f"transition {src!r}->{dst!r} references an undeclared state")
        for sym in read + write:
            if sym not in alphabet:
                raise ValidationError(f"transition uses symbol {sym!r} outside the alphabet")
        if move not in MOVES:
            raise ValidationError(f"move must be one of {sorted(MOVES)}, got {move!r}")
        key = (src, read)
        if key in transitions:
            raise ValidationError(
                f"duplicate transition for state {src!r} reading {read!r}: "
                "machines must be deterministic")
        transitions[key] = (dst, write, move)

    oracle_states = None
    if "oracle_states" in doc:
        osd = doc["oracle_states"]
        oracle_states = OracleStates(
            *(str(_required(osd, key, "oracle_states")) for key in ("ask", "yes", "no")))
        for s in (oracle_states.ask, oracle_states.yes, oracle_states.no):
            if s not in states:
                raise ValidationError(f"oracle state {s!r} is not declared")
        if oracle_states.ask in (oracle_states.yes, oracle_states.no):
            raise ValidationError("oracle ask state must differ from yes/no states")

    input_states = None
    if "input_states" in doc:
        isd = doc["input_states"]
        input_states = InputStates(
            *(str(_required(isd, key, "input_states")) for key in ("request", "resume")))
        for s in (input_states.request, input_states.resume):
            if s not in states:
                raise ValidationError(f"input state {s!r} is not declared")

    return TuringMachine(
        states=states,
        initial=initial,
        finals=finals,
        alphabet=alphabet,
        blank=blank,
        num_tapes=num_tapes,
        transitions=transitions,
        one_sided=bool(doc.get("one_sided", False)),
        oracle_states=oracle_states,
        input_states=input_states,
    )


def initial_configuration(machine: TuringMachine, input_symbols: str = "") -> TapeConfiguration:
    """Write the input on tape 0 starting at cell 0; all heads start at 0."""
    outside = set(input_symbols) - machine.alphabet
    if outside:
        first = next(sym for sym in input_symbols if sym in outside)
        raise ValidationError(f"input symbol {first!r} is outside the alphabet")
    tapes = (Tape(machine.blank, input_symbols),) + tuple(
        Tape(machine.blank) for _ in range(machine.num_tapes - 1))
    return TapeConfiguration(tapes=tapes, heads=(0,) * machine.num_tapes, state=machine.initial)


# -- stepping ------------------------------------------------------------------


def step(machine: TuringMachine, config: TapeConfiguration) -> TapeConfiguration:
    """Pure single step: returns the successor configuration, inputs untouched.

    No hook resolves: a configuration in the oracle's ask-state or the
    input request-state steps by the machine's own rules, if any.
    """
    if config.state in machine.finals:
        raise AlreadyHaltedError(f"state {config.state!r} is final")
    nxt = config.clone()
    if _drive(machine, nxt, nxt.steps + 1)[0] is OutcomeKind.STUCK:
        raise TransitionMissing(config.state, config.read())
    return nxt


def attach_oracle(machine: TuringMachine, oracle: Callable[[int], bool]) -> TuringMachine:
    """Bind an opaque total predicate to the machine's declared query states."""
    if machine.oracle_states is None:
        raise ConfigurationError(
            "machine declares no oracle states (ask/yes/no); cannot attach an oracle")
    return replace(machine, oracle=oracle)


def _drive(machine: TuringMachine, config: TapeConfiguration, fuel: int,
           oracle: Optional[Callable[[int], bool]] = None,
           queue: Optional[deque[str]] = None, snapshots: Optional[list[TraceSnapshot]] = None,
           trace_cap: int = DEFAULT_TRACE_CAP) -> tuple[Optional[OutcomeKind], int]:
    """Step ``config`` in place until it halts, sticks, reaches ``fuel`` steps or waits.

    Before each step the hooks resolve at no fuel cost: a given oracle
    answers the ask-state, then, only when a queue is given, the request-state
    takes the oldest queued symbol or the drive returns ``None`` (waiting on
    input). Returns the outcome kind and the number of oracle consultations.

    The inner loop steps on the compiled table with the head, the state, the
    step count and tape 0's layout in locals, doing :meth:`Tape.write`'s
    bookkeeping inline. It leaves, writing them back to ``config``, before
    anything that reads the configuration: a hook, a trace snapshot, the end.

    Fuel past FUEL_BUDGET, or tapes whose text could grow past
    TAPE_TEXT_BUDGET characters within it, are a :class:`ResourceError`
    before the first step; snapshots whose texts together pass
    TRACE_TEXT_BUDGET characters are one before the first snapshot past it.
    """
    remaining = fuel - config.steps
    if remaining > FUEL_BUDGET:
        raise ResourceError(f"fuel of {remaining} steps is past the budget of {FUEL_BUDGET}")
    # each step adds at most one cell to each tape
    reach = sum(max(0, t.hi - t.lo + 1) + remaining for t in config.tapes)
    if reach * machine._longest_symbol > TAPE_TEXT_BUDGET:
        raise ResourceError(
            f"{reach} cells of symbols up to {machine._longest_symbol} characters long may "
            f"hold {reach * machine._longest_symbol} characters of tape text, past the "
            f"budget of {TAPE_TEXT_BUDGET}")
    finals = machine.finals
    ask = yes = no = request = resume = None
    if oracle is not None and machine.oracle_states is not None:
        ask, yes, no = astuple(machine.oracle_states)
    if queue is not None:
        request, resume = astuple(machine.input_states)
    stops = finals.union(s for s in (ask, request) if s is not None)
    table, one_sided = machine._table, machine.one_sided
    tape = config.tapes[0]
    blank, cells = tape.blank, tape.cells
    # every head moves by the same shift, so the others keep their offsets
    # from head 0, and a one-sided machine's lowest head stays at or right of
    # cell 0 exactly when head 0 stays at or right of ``floor``
    offsets = [h - config.heads[0] for h in config.heads[1:]]
    others_at = list(zip(config.tapes[1:], offsets))
    floor = -min([0, *offsets])
    trace_left = max(0, trace_cap - len(snapshots)) if snapshots is not None else 0
    kept = sum(len(text) for snap in snapshots for text in snap.texts) if trace_left else 0
    consultations = 0
    while True:
        if config.state == ask:
            answer = oracle(tape.marks_left_of(config.heads[0]))
            config.state = yes if answer else no
            consultations += 1
        if config.state == request:
            if not queue:
                return None, consultations
            tape.write(config.heads[0], queue.popleft())
            config.state = resume
        if config.state in finals:
            return OutcomeKind.HALTED, consultations
        if config.steps >= fuel:
            return OutcomeKind.OUT_OF_FUEL, consultations
        origin, lo, hi, size = tape.origin, tape.lo, tape.hi, len(cells)
        head, state, steps = config.heads[0], config.state, config.steps
        try:
            while True:
                i = head - origin
                key = cells[i] if 0 <= i < size else blank
                if others_at:
                    key = (key, *[t.read(head + off) for t, off in others_at])
                rule = table.get((state, key))
                if rule is None:
                    return OutcomeKind.STUCK, consultations
                dst, write, shift, rest = rule
                if one_sided and head + shift < floor:
                    raise DomainError("head moved past the left edge of a one-sided tape")
                if write is None:
                    pass  # the rule writes back what it read
                elif lo <= head <= hi:
                    cells[i] = write
                    if write == blank:
                        if head == lo:
                            while lo <= hi and cells[lo - origin] == blank:
                                lo += 1
                        elif head == hi:
                            while cells[hi - origin] == blank:
                                hi -= 1
                elif write != blank:
                    if i < 0:
                        grow = max(-i, size)
                        cells[:0] = [blank] * grow
                        origin -= grow
                        i += grow
                        size += grow
                    elif i >= size:
                        grow = max(i + 1 - size, size)
                        cells.extend([blank] * grow)
                        size += grow
                    cells[i] = write
                    if lo > hi:
                        lo = hi = head
                    elif head < lo:
                        lo = head
                    else:
                        hi = head
                if rest:
                    for (t, off), symbol in zip(others_at, rest):
                        t.write(head + off, symbol)
                head += shift
                state = dst
                steps += 1
                if state in stops or steps >= fuel or trace_left:
                    break
        finally:
            tape.origin, tape.lo, tape.hi = origin, lo, hi
            config.heads = (head, *[head + off for off in offsets])
            config.state, config.steps = state, steps
        if trace_left:
            snapshot = _snapshot(config)
            kept += sum(map(len, snapshot.texts))
            if kept > TRACE_TEXT_BUDGET:
                raise ResourceError(
                    f"trace snapshots would keep {kept} characters of tape text, past the "
                    f"budget of {TRACE_TEXT_BUDGET}")
            snapshots.append(snapshot)
            trace_left -= 1


def run(
    machine: TuringMachine,
    input_symbols: str = "",
    fuel: int = DEFAULT_FUEL,
    trace: bool = False,
    trace_cap: int = DEFAULT_TRACE_CAP,
) -> RunOutcome:
    """Run until a final state, a missing transition, or fuel exhaustion.

    Oracle consultations resolve the ask-state without consuming fuel. The
    optional trace holds at most ``trace_cap`` snapshots; each keeps the
    text of every tape rather than a copy of it.
    """
    if fuel < 1:
        raise DomainError("fuel must be a positive integer")
    config = initial_configuration(machine, input_symbols)
    snapshots = [_snapshot(config)] if trace else None
    kind, consultations = _drive(machine, config, fuel, machine.oracle, snapshots=snapshots,
                                 trace_cap=trace_cap)
    return RunOutcome(kind, config, consultations, snapshots)


# -- coupled input sessions ------------------------------------------------------


class SessionClosedError(DomainError):
    """The coupled session already halted or got stuck."""


class SessionStatus(Enum):
    RUNNING = "running"
    WAITING = "waiting"
    HALTED = "halted"
    STUCK = "stuck"


_SESSION_STATUS = {  # a drive's outcome as a session status; None is waiting on input
    None: SessionStatus.WAITING, OutcomeKind.OUT_OF_FUEL: SessionStatus.RUNNING,
    OutcomeKind.HALTED: SessionStatus.HALTED, OutcomeKind.STUCK: SessionStatus.STUCK}


@dataclass
class CoupledSession:
    """A running machine that accepts symbols after the computation started.

    Symbols are queued first-in-first-out by :meth:`feed`. Whenever control
    sits in the declared request-state, :meth:`advance` pops the oldest queued
    symbol onto the tape at the head and resumes in the declared resume-state
    at no fuel cost; with an empty queue the session reports ``WAITING``
    without stepping. An attached oracle answers the ask-state as in :func:`run`.
    """

    machine: TuringMachine
    config: TapeConfiguration = field(init=False)
    status: SessionStatus = field(init=False, default=SessionStatus.RUNNING)
    queue: deque[str] = field(init=False, default_factory=deque)

    def __post_init__(self):
        if self.machine.input_states is None:
            raise ConfigurationError(
                "machine declares no input states (request/resume); "
                "cannot open a coupled session")
        self.config = initial_configuration(self.machine)

    def feed(self, symbol: str) -> int:
        """Queue one symbol; returns the queue length as acknowledgment."""
        if self.status in (SessionStatus.HALTED, SessionStatus.STUCK):
            raise SessionClosedError(f"session is {self.status.value}; cannot feed input")
        if symbol not in self.machine.alphabet:
            raise ValidationError(f"symbol {symbol!r} is outside the alphabet")
        self.queue.append(symbol)
        if self.status is SessionStatus.WAITING:
            self.status = SessionStatus.RUNNING
        return len(self.queue)

    def advance(self, max_steps: int = DEFAULT_FUEL) -> SessionStatus:
        """Step until waiting on input, halting, sticking, or exhausting max_steps."""
        if self.status in (SessionStatus.HALTED, SessionStatus.STUCK):
            return self.status
        kind, _ = _drive(self.machine, self.config, self.config.steps + max_steps,
                         self.machine.oracle, self.queue)
        self.status = _SESSION_STATUS[kind]
        return self.status


def open_session(machine: TuringMachine) -> CoupledSession:
    return CoupledSession(machine)
