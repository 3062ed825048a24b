"""Deterministic Turing-machine engine.

Machines are quintuple programs ``(state, read) -> (state, write, move)``
loaded from JSON documents. Tapes are unbounded in both directions and stored
sparsely; a machine may have several tapes, in which case one transition reads
and writes all heads and moves them in one shared direction.

Two execution hooks extend the base engine:

* an oracle: entering the declared ask-state consults an opaque total
  predicate on the unary number written left of the head and resumes in the
  declared yes- or no-state, at no fuel cost;
* coupled input: entering the declared request-state pops the oldest symbol
  from an inbound queue onto the tape, or reports ``Waiting`` if the queue is
  empty.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import repeat
from typing import Callable, Optional

from .errors import ConfigurationError, DomainError, ValidationError

MOVES = {"l": -1, "n": 0, "r": 1}

DEFAULT_FUEL = 10**6
DEFAULT_TRACE_CAP = 10**4


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


@dataclass
class TapeConfiguration:
    """Snapshot of a running machine: sparse tapes, head positions, state."""

    tapes: tuple[dict[int, str], ...]
    heads: tuple[int, ...]
    state: str
    steps: int = 0

    def read(self, machine: TuringMachine) -> tuple[str, ...]:
        return tuple(t.get(h, machine.blank) for t, h in zip(self.tapes, self.heads))

    def tape_text(self, machine: TuringMachine, tape: int = 0) -> str:
        """Non-blank content of one tape, from leftmost to rightmost written cell."""
        blank = machine.blank
        cells = self.tapes[tape]
        written = [p for p, s in cells.items() if s != blank]
        if not written:
            return ""
        return "".join(map(cells.get, range(min(written), max(written) + 1), repeat(blank)))

    def clone(self) -> "TapeConfiguration":
        return TapeConfiguration(
            tapes=tuple(dict(t) for t in self.tapes),
            heads=self.heads,
            state=self.state,
            steps=self.steps,
        )


@dataclass(frozen=True)
class TraceSnapshot:
    """One traced configuration: state, heads, steps and the text of each tape."""

    state: str
    heads: tuple[int, ...]
    steps: int
    texts: tuple[str, ...]

    def tape_text(self, machine: TuringMachine, tape: int = 0) -> str:
        return self.texts[tape]


class _TapeMirror:
    """List-backed copy of one sparse tape, kept only while a run is traced.

    Cell p sits at ``cells[p - origin]`` and blank cells hold the blank
    symbol; ``lo..hi`` bounds the non-blank cells (empty when lo > hi). A
    snapshot's text is then one join over that slice, not a walk of the tape.
    """

    def __init__(self, tape: dict[int, str], blank: str):
        self.blank = blank
        self.lo, self.hi = (min(tape), max(tape)) if tape else (0, -1)
        self.origin = self.lo
        self.cells = [tape.get(p, blank) for p in range(self.lo, self.hi + 1)]

    def write(self, pos: int, symbol: str) -> None:
        blank, cells = self.blank, self.cells
        if symbol == blank:
            if not self.lo <= pos <= self.hi:
                return
            cells[pos - self.origin] = blank
            if pos == self.lo:
                while self.lo <= self.hi and cells[self.lo - self.origin] == blank:
                    self.lo += 1
            elif pos == self.hi:
                while cells[self.hi - self.origin] == blank:
                    self.hi -= 1
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
        elif pos > self.hi:
            self.hi = pos

    def text(self) -> str:
        if self.lo > self.hi:
            return ""
        return "".join(self.cells[self.lo - self.origin:self.hi - self.origin + 1])


def _snapshot(config: TapeConfiguration, mirrors: list[_TapeMirror]) -> TraceSnapshot:
    return TraceSnapshot(config.state, config.heads, config.steps,
                         tuple(m.text() for m in mirrors))


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
    """Internal stuck signal; run() turns it into a Stuck outcome."""

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
    for sym in input_symbols:
        if sym not in machine.alphabet:
            raise ValidationError(f"input symbol {sym!r} is outside the alphabet")
    tape0 = {i: s for i, s in enumerate(input_symbols) if s != machine.blank}
    tapes = (tape0,) + tuple({} for _ in range(machine.num_tapes - 1))
    return TapeConfiguration(tapes=tapes, heads=(0,) * machine.num_tapes, state=machine.initial)


# -- stepping ------------------------------------------------------------------


def _apply_transition(machine: TuringMachine, config: TapeConfiguration) -> None:
    """Advance ``config`` in place by one transition. Raises on stuck/halted."""
    if config.state in machine.finals:
        raise AlreadyHaltedError(f"state {config.state!r} is final")
    symbols = config.read(machine)
    rule = machine.transitions.get((config.state, symbols))
    if rule is None:
        raise TransitionMissing(config.state, symbols)
    dst, write, move = rule
    delta = MOVES[move]
    new_heads = []
    for i, (tape, head) in enumerate(zip(config.tapes, config.heads)):
        if write[i] == machine.blank:
            tape.pop(head, None)
        else:
            tape[head] = write[i]
        new_head = head + delta
        if machine.one_sided and new_head < 0:
            raise DomainError("head moved past the left edge of a one-sided tape")
        new_heads.append(new_head)
    config.heads = tuple(new_heads)
    config.state = dst
    config.steps += 1


def _consult_oracle(machine: TuringMachine, config: TapeConfiguration) -> bool:
    """Answer the pending query: unary count of non-blank cells left of head 0."""
    n = sum(1 for pos, sym in config.tapes[0].items()
            if pos < config.heads[0] and sym != machine.blank)
    return bool(machine.oracle(n))


def step(machine: TuringMachine, config: TapeConfiguration) -> TapeConfiguration:
    """Pure single step: returns the successor configuration, inputs untouched."""
    nxt = config.clone()
    _apply_transition(machine, nxt)
    return nxt


def attach_oracle(machine: TuringMachine, oracle: Callable[[int], bool]) -> TuringMachine:
    """Bind an opaque total predicate to the machine's declared query states."""
    if machine.oracle_states is None:
        raise ConfigurationError(
            "machine declares no oracle states (ask/yes/no); cannot attach an oracle")
    return replace(machine, oracle=oracle)


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
    text of every tape rather than a copy of it, and the tapes are mirrored
    only until the trace is full.
    """
    if fuel < 1:
        raise DomainError("fuel must be a positive integer")
    config = initial_configuration(machine, input_symbols)
    snapshots: Optional[list[TraceSnapshot]] = None
    mirrors: Optional[list[_TapeMirror]] = None
    if trace:
        mirrors = [_TapeMirror(t, machine.blank) for t in config.tapes]
        snapshots = [_snapshot(config, mirrors)]
    consultations = 0

    while True:
        if machine.oracle is not None and machine.oracle_states is not None \
                and config.state == machine.oracle_states.ask:
            answer = _consult_oracle(machine, config)
            config.state = machine.oracle_states.yes if answer else machine.oracle_states.no
            consultations += 1
        if config.state in machine.finals:
            return RunOutcome(OutcomeKind.HALTED, config, consultations, snapshots)
        if config.steps >= fuel:
            return RunOutcome(OutcomeKind.OUT_OF_FUEL, config, consultations, snapshots)
        heads = config.heads
        try:
            _apply_transition(machine, config)
        except TransitionMissing:
            return RunOutcome(OutcomeKind.STUCK, config, consultations, snapshots)
        if mirrors is not None:
            if len(snapshots) < trace_cap:
                for mirror, tape, head in zip(mirrors, config.tapes, heads):
                    mirror.write(head, tape.get(head, machine.blank))
                snapshots.append(_snapshot(config, mirrors))
            else:
                mirrors = None


# -- coupled input sessions ------------------------------------------------------


class SessionClosedError(DomainError):
    """The coupled session already halted or got stuck."""


class SessionStatus(Enum):
    RUNNING = "running"
    WAITING = "waiting"
    HALTED = "halted"
    STUCK = "stuck"


@dataclass
class CoupledSession:
    """A running machine that accepts symbols after the computation started.

    Symbols are queued first-in-first-out by :meth:`feed`. Whenever control
    sits in the declared request-state, :meth:`advance` pops the oldest queued
    symbol onto the tape at the head and resumes in the declared resume-state
    at no fuel cost; with an empty queue the session reports ``WAITING``
    without stepping.
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
        budget = max_steps
        while budget > 0:
            if self.config.state == self.machine.input_states.request:
                if not self.queue:
                    self.status = SessionStatus.WAITING
                    return self.status
                symbol = self.queue.popleft()
                head = self.config.heads[0]
                if symbol == self.machine.blank:
                    self.config.tapes[0].pop(head, None)
                else:
                    self.config.tapes[0][head] = symbol
                self.config.state = self.machine.input_states.resume
            if self.config.state in self.machine.finals:
                self.status = SessionStatus.HALTED
                return self.status
            try:
                _apply_transition(self.machine, self.config)
            except TransitionMissing:
                self.status = SessionStatus.STUCK
                return self.status
            budget -= 1
        self.status = SessionStatus.RUNNING
        return self.status


def open_session(machine: TuringMachine) -> CoupledSession:
    return CoupledSession(machine)
