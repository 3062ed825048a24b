"""Deterministic Turing-machine engine.

Machines are quintuple programs ``(state, read) -> (state, write, move)``
loaded from JSON documents. Tapes are unbounded in both directions and held
in a :class:`Tape` of one-byte symbol codes; a machine may have several
tapes, all read and written at one head, which each transition moves in one
direction.

Each machine compiles its quintuples once into a table ``(state, read) ->
(state, write, shift)`` over symbol codes, which the one stepping loop
behind :func:`run` reads. On one tape, a rule whose state
keeps itself over a set of symbols, writing a fixed symbol for each and
moving one way, is a sweep: the loop applies it to the whole block of such
cells at once. One hook extends that loop, an oracle: entering the declared
ask-state consults an opaque total predicate on the unary number written
left of the head and resumes in the declared yes- or no-state, at no fuel
cost.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Optional

from .errors import ConfigurationError, DomainError, ResourceError, ValidationError, shown

MOVES = {"l": -1, "n": 0, "r": 1}

DEFAULT_FUEL = 10**6
TRACE_CAP = 10**4  # snapshots one traced run keeps
FUEL_BUDGET = 10**7  # steps x tapes one drive may take; refused up front beyond this
# characters of tape text one drive may reach, (extent + fuel) x the longest
# symbol on each tape; refused up front beyond this
TAPE_TEXT_BUDGET = 5 * 10**7
# characters of tape text the snapshots of one traced run may keep; counted as
# they are taken, since a snapshot's text is not known before the run reaches it
TRACE_TEXT_BUDGET = 5 * 10**7
ALPHABET_BUDGET = 256  # symbols, the blank included: a cell holds one byte
TAPE_BUDGET = 256  # tapes of one machine, refused when its document is loaded


class OracleStates(NamedTuple):
    ask: str
    yes: str
    no: str


class TuringMachine:
    """Validated machine definition; shareable, and never changed once built.

    It keeps a ``__dict__``, where its compiled tables are cached.
    """

    def __init__(
        self,
        states: frozenset[str],
        initial: str,
        finals: frozenset[str],
        alphabet: frozenset[str],
        blank: str,
        num_tapes: int,
        transitions: dict[tuple[str, tuple[str, ...]], tuple[str, tuple[str, ...], str]],
        one_sided: bool = False,
        oracle_states: Optional[OracleStates] = None,
    ):
        self.states, self.initial, self.finals, self.alphabet = states, initial, finals, alphabet
        self.blank, self.num_tapes, self.transitions = blank, num_tapes, transitions
        self.one_sided, self.oracle_states, self.oracle = one_sided, oracle_states, None

    @cached_property
    def _codes(self) -> SymbolCodes:
        """The alphabet's one-byte codes, the blank as code 0, fixed once."""
        return SymbolCodes(self.blank, self.alphabet)

    @cached_property
    def _table(self) -> dict:
        """The transitions as the stepping loop reads them, compiled once.

        Each state maps to its row of rules by the codes it reads: on one
        tape a list indexed by tape 0's code, else a dict keyed by the tuple
        of every tape's code; a row reads None where no rule applies, and
        the states without rules are left out, sharing one empty row as a
        rule's destination, so the table grows with the rules. A rule
        is ``(dst, row, write, shift, extra)``: ``row`` is dst's row;
        ``write`` is tape 0's new code, or None where the rule writes back
        what it read; ``shift`` is the head move as an int; ``extra`` is the
        tuple of codes written on tapes 1 and up, or on one tape the rule's
        :class:`Sweep`, or None.
        """
        code, sweeps = self._codes.by_name, self._sweeps
        one_tape = self.num_tapes == 1
        new_row = (lambda: [None] * ALPHABET_BUDGET) if one_tape else _Rules
        rows, empty = {src: new_row() for src, _ in self.transitions}, new_row()
        for (src, read), (dst, write, move) in self.transitions.items():
            got, put = [code[s] for s in read], [code[s] for s in write]
            if one_tape:
                sweep = sweeps.get(src)
                key, extra = got[0], sweep if sweep and got[0] not in sweep.outside else None
            else:
                key, extra = tuple(got), tuple(put[1:])
            rows[src][key] = (dst, rows.get(dst, empty), None if put[0] == got[0] else put[0],
                              MOVES[move], extra)
        return rows

    @cached_property
    def _sweeps(self) -> dict[str, Sweep]:
        """The states of a one-tape machine that sweep, each with its sweep.

        State q sweeps over the set S of the non-blank symbols a whose rule
        keeps q, writes a non-blank f(a) and moves left or right, when all
        those rules move the same way. From a cell in S such a state passes,
        unchanged, every cell up to the first one outside S.
        """
        if self.num_tapes > 1:
            return {}
        loops: dict[str, dict[str, tuple[str, str]]] = {}
        for (src, (got,)), (dst, (put,), move) in self.transitions.items():
            if src == dst and self.blank not in (got, put):
                loops.setdefault(src, {})[got] = (put, move)
        code, identity = self._codes.by_name, bytes(range(256))
        sweeps = {}
        for state, rules in loops.items():
            moves = {move for _, move in rules.values()}
            if len(moves) > 1 or moves == {"n"}:
                continue
            rewrite = bytearray(identity)
            for got, (put, _) in rules.items():
                rewrite[code[got]] = code[put]
            outside = bytes(sorted(set(code.values()) - {code[a] for a in rules}))
            sweeps[state] = Sweep(outside, None if rewrite == identity else bytes(rewrite))
        return sweeps

    @cached_property
    def _longest_symbol(self) -> int:
        """The length of the longest symbol a cell may hold (the blank is in the alphabet)."""
        return max(map(len, self.alphabet))


class _Rules(dict):
    """A row of a machine with several tapes, which reads None where no rule applies."""

    def __missing__(self, key):
        return None


class Sweep(NamedTuple):
    """A state's rules over the set S of the symbols it keeps itself on.

    ``outside`` holds the code of every symbol outside S, the blank among
    them; ``rewrite`` is the ``bytes.translate`` table taking each code in S
    to the code its rule writes, or None where every rule writes back what
    it read.
    """

    outside: bytes
    rewrite: Optional[bytes]


class SymbolCodes:
    """A machine's alphabet as one-byte codes, the blank as code 0, and back.

    The codes are fixed once, over the whole alphabet, which the loader keeps
    within ALPHABET_BUDGET symbols; every symbol encoded must be in it.
    Where every symbol is one character below U+0100, text turns into codes
    and back by one ``bytes.translate`` each way; else symbol by symbol.
    """

    __slots__ = ("names", "by_name", "_encode", "_decode")

    def __init__(self, blank: str, alphabet: Iterable[str]):
        self.names = [blank, *sorted(set(alphabet) - {blank})]
        self.by_name = {name: code for code, name in enumerate(self.names)}
        self._encode = self._decode = None
        if all(len(name) == 1 and ord(name) < 256 for name in self.names):
            encode = bytearray(256)
            for code, name in enumerate(self.names):
                encode[ord(name)] = code
            self._encode = bytes(encode)
            self._decode = bytes(map(ord, self.names)).ljust(256, b"\0")

    def encode(self, symbols: Iterable[str]) -> bytearray:
        """The codes of ``symbols``, each of which must be in the alphabet."""
        if self._encode is not None and isinstance(symbols, str):
            return bytearray(symbols.encode("latin-1").translate(self._encode))
        return bytearray(map(self.by_name.__getitem__, symbols))

    def text(self, cells: bytearray) -> str:
        """The symbols of ``cells``, written one after another."""
        if self._decode is not None:
            return cells.translate(self._decode).decode("latin-1")
        return "".join(map(self.names.__getitem__, cells))


class Tape:
    """One tape, unbounded in both directions, backed by a bytearray of codes.

    Cell p sits at ``cells[p - origin]`` as the code ``codes`` gives its
    symbol; every cell outside the array, and every erased one, holds the
    blank, code 0. The non-blank extent is not kept: it is read off the
    array, by stripping its blanks, where it is needed. Only :meth:`_put`
    grows the array, by doubling at whichever end a non-blank write falls
    beyond, so the tape's text is made from one slice, not a walk of its
    cells.
    """

    __slots__ = ("codes", "cells", "origin")

    def __init__(self, codes: SymbolCodes, symbols: Iterable[str] = ()):
        """A tape holding ``symbols`` from cell 0 on, blank everywhere else."""
        self.codes = codes
        self.cells = codes.encode(symbols)
        self.origin = 0

    def read(self, pos: int) -> str:
        return self.codes.names[self._code(pos)]

    def write(self, pos: int, symbol: str) -> None:
        self._put(pos, self.codes.by_name[symbol])

    def _code(self, pos: int) -> int:
        index = pos - self.origin
        return self.cells[index] if 0 <= index < len(self.cells) else 0

    def _put(self, pos: int, code: int) -> None:
        cells, index = self.cells, pos - self.origin
        if not 0 <= index < len(cells):
            if not code:
                return  # the cell is blank already
            if index < 0:
                grow = max(-index, len(cells))
                cells[:0] = bytes(grow)
                self.origin -= grow
                index += grow
            else:
                cells.extend(bytes(max(index + 1 - len(cells), len(cells))))
        cells[index] = code

    def text(self) -> str:
        """Non-blank content, from leftmost to rightmost written cell."""
        return self.codes.text(self.cells.strip(b"\0"))

    def marks_left_of(self, pos: int) -> int:
        """Number of non-blank cells strictly left of ``pos``."""
        end = min(max(pos - self.origin, 0), len(self.cells))
        return end - self.cells.count(0, 0, end)


class TapeConfiguration:
    """Snapshot of a running machine: tapes, the head they share, state, steps."""

    __slots__ = ("tapes", "head", "state", "steps")

    def __init__(self, tapes: tuple[Tape, ...], head: int, state: str):
        self.tapes, self.head, self.state, self.steps = tapes, head, state, 0

    def tape_text(self, tape: int = 0) -> str:
        """Non-blank content of one tape, from leftmost to rightmost written cell."""
        return self.tapes[tape].text()


class TraceSnapshot(NamedTuple):
    """One traced configuration: state, head, steps and the text of each tape."""

    state: str
    head: int
    steps: int
    texts: tuple[str, ...]

    def tape_text(self, tape: int = 0) -> str:
        return self.texts[tape]


def _snapshot(config: TapeConfiguration) -> TraceSnapshot:
    return TraceSnapshot(config.state, config.head, config.steps,
                         tuple(t.text() for t in config.tapes))


class OutcomeKind(Enum):
    HALTED = "halted"
    OUT_OF_FUEL = "out-of-fuel"
    STUCK = "stuck"


class RunOutcome:
    __slots__ = ("kind", "config", "oracle_consultations", "trace")

    def __init__(self, kind: OutcomeKind, config: TapeConfiguration,
                 oracle_consultations: int = 0, trace: Optional[list[TraceSnapshot]] = None):
        self.kind, self.config, self.oracle_consultations, self.trace = (
            kind, config, oracle_consultations, trace)


# -- loading -------------------------------------------------------------------


def _required(doc, key: str, where: str):
    """doc[key] of a JSON object, or ValidationError saying what is missing."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{where} must be a JSON object, got {shown(doc)}")
    try:
        return doc[key]
    except KeyError:
        raise ValidationError(f"{where} lacks required key {key!r}") from None


def _names(value, what: str) -> frozenset[str]:
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{what} must be a list, got {shown(value)}")
    return frozenset(str(s) for s in value)


def _as_symbol_tuple(value, num_tapes: int, what: str) -> tuple[str, ...]:
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, (list, tuple)):
        raise ValidationError(
            f"{what} must be a symbol or a list of symbols, got {shown(value)}")
    if len(value) != num_tapes:
        raise ValidationError(f"{what} must list {num_tapes} symbols, got {shown(value)}")
    return tuple(str(s) for s in value)


def load_machine(doc: dict) -> TuringMachine:
    """Validate a machine document and build an immutable definition.

    Rejects duplicate ``(state, read)`` keys (nondeterminism), references to
    undeclared states or symbols, and a malformed oracle declaration. Keys
    it does not know are ignored.
    """
    where = "machine document"
    blank = str(_required(doc, "blank", where))
    alphabet = _names(_required(doc, "alphabet", where), "alphabet")
    states = _names(_required(doc, "states", where), "states")
    initial = str(_required(doc, "initial", where))
    finals = _names(_required(doc, "finals", where), "finals")
    raw_transitions = _required(doc, "transitions", where)
    if not isinstance(raw_transitions, list):
        raise ValidationError(f"transitions must be a list, got {shown(raw_transitions)}")

    num_tapes = doc.get("tapes", 1)
    if not isinstance(num_tapes, int) or isinstance(num_tapes, bool):
        raise ValidationError(f"tapes must be an integer, got {shown(num_tapes)}")
    if num_tapes < 1:
        raise ValidationError("a machine needs at least one tape")
    if num_tapes > TAPE_BUDGET:
        raise ResourceError(f"{num_tapes} tapes are past the budget of {TAPE_BUDGET}")
    one_sided = doc.get("one_sided", False)
    if not isinstance(one_sided, bool):
        raise ValidationError(f"one_sided must be true or false, got {shown(one_sided)}")
    if blank not in alphabet:
        raise ValidationError(f"blank symbol {shown(blank)} must be in the alphabet")
    if len(alphabet) > ALPHABET_BUDGET:
        raise ResourceError(f"an alphabet of {len(alphabet)} symbols is past the budget of "
                            f"{ALPHABET_BUDGET}, the blank included")
    if initial not in states:
        raise ValidationError(f"initial state {shown(initial)} is not declared")
    if not finals <= states:
        raise ValidationError(f"final states {shown(sorted(finals - states))} are not declared")

    transitions: dict[tuple[str, tuple[str, ...]], tuple[str, tuple[str, ...], str]] = {}
    for number, rule in enumerate(raw_transitions):
        where = f"transition {number}"
        src = str(_required(rule, "from", where))
        dst = str(_required(rule, "to", where))
        read = _as_symbol_tuple(_required(rule, "read", where), num_tapes, "read")
        write = _as_symbol_tuple(_required(rule, "write", where), num_tapes, "write")
        move = str(_required(rule, "move", where))
        if src not in states or dst not in states:
            raise ValidationError(
                f"transition {shown(src)}->{shown(dst)} references an undeclared state")
        for sym in read + write:
            if sym not in alphabet:
                raise ValidationError(f"transition uses symbol {shown(sym)} outside the alphabet")
        if move not in MOVES:
            raise ValidationError(f"move must be one of {sorted(MOVES)}, got {shown(move)}")
        key = (src, read)
        if key in transitions:
            raise ValidationError(
                f"duplicate transition for state {shown(src)} reading {shown(read)}: "
                "machines must be deterministic")
        transitions[key] = (dst, write, move)

    oracle_states = None
    if "oracle_states" in doc:
        osd = doc["oracle_states"]
        oracle_states = OracleStates(
            *(str(_required(osd, key, "oracle_states")) for key in ("ask", "yes", "no")))
        for s in (oracle_states.ask, oracle_states.yes, oracle_states.no):
            if s not in states:
                raise ValidationError(f"oracle state {shown(s)} is not declared")
        if oracle_states.ask in (oracle_states.yes, oracle_states.no):
            raise ValidationError("oracle ask state must differ from yes/no states")

    return TuringMachine(
        states=states,
        initial=initial,
        finals=finals,
        alphabet=alphabet,
        blank=blank,
        num_tapes=num_tapes,
        transitions=transitions,
        one_sided=one_sided,
        oracle_states=oracle_states,
    )


def initial_configuration(machine: TuringMachine, input_symbols: str = "") -> TapeConfiguration:
    """Write the input on tape 0 starting at cell 0; the head starts at 0.

    The input is a string of one-character symbols, or a list of symbols.
    """
    outside = set(input_symbols) - machine.alphabet
    if outside:
        first = next(sym for sym in input_symbols if sym in outside)
        raise ValidationError(f"input symbol {shown(first)} is outside the alphabet")
    codes = machine._codes
    tapes = (Tape(codes, input_symbols),) + tuple(
        Tape(codes) for _ in range(machine.num_tapes - 1))
    return TapeConfiguration(tapes=tapes, head=0, state=machine.initial)


# -- stepping ------------------------------------------------------------------


def attach_oracle(machine: TuringMachine, oracle: Callable[[int], bool]) -> TuringMachine:
    """Bind an opaque total predicate to the machine's declared query states."""
    if machine.oracle_states is None:
        raise ConfigurationError(
            "machine declares no oracle states (ask/yes/no); cannot attach an oracle")
    import copy

    bound = copy.copy(machine)  # shares the compiled tables, which hold no oracle
    bound.oracle = oracle
    return bound


def _sweep_length(cells: bytearray, outside: bytes, i: int, shift: int, room: int) -> int:
    """How many cells from ``cells[i]`` on, stepping by ``shift``, hold no
    code of ``outside``, counting at most ``room``.

    Each code is looked for with one find in windows that grow fourfold, so
    a code missing from a long tape is not sought far past the end of a
    short run.
    """
    run, width = 0, 64
    while run < room:
        probe = reach = min(run + width, room)
        for code in outside:
            if shift > 0:
                found = cells.find(code, i + run, i + reach)
                if found >= 0:
                    reach = found - i
            else:
                found = cells.rfind(code, i + 1 - reach, i + 1 - run)
                if found >= 0:
                    reach = i - found
        if reach < probe:
            return reach
        run, width = probe, 4 * width
    return room


def _drive(machine: TuringMachine, config: TapeConfiguration, fuel: int,
           snapshots: Optional[list[TraceSnapshot]] = None) -> tuple[OutcomeKind, int]:
    """Step a fresh ``config`` in place until it halts, sticks or reaches ``fuel`` steps.

    Before each step the oracle that :func:`attach_oracle` bound to the
    machine, if any, answers the ask-state, at no fuel cost. Returns the
    outcome kind and the number of oracle consultations.

    The configuration's one head reads and writes every tape. Given
    snapshots, it appends one after each step while they number fewer than
    TRACE_CAP.

    The inner loop steps on the compiled table with the head, the state and
    the step count in locals, and writes tape 0's array in place; only a
    write beyond the array goes through :meth:`Tape._put`, which grows it.
    It leaves, writing the locals back to ``config``, before anything that
    reads the configuration: the oracle, a trace snapshot, the end.

    A sweep rule takes the whole run of cells its state keeps itself on at
    once: up to the first cell outside its set, clipped at the array's end
    (every cell past it is blank, and the blank always ends a sweep), at
    the fuel and, moving left on a one-sided tape, short of cell 0, so the
    ordinary step still raises there. It rewrites them with one
    ``bytes.translate`` and counts one step per cell. Sweeps are off while
    trace snapshots are taken, on several tapes, and in a state that is a
    stop (final, or the ask state of a bound oracle).

    Fuel times tapes past FUEL_BUDGET, or tapes whose text could grow past
    TAPE_TEXT_BUDGET characters within it, are a :class:`ResourceError`
    before the first step; snapshots whose texts together pass
    TRACE_TEXT_BUDGET characters are one before the first snapshot past it.
    """
    tapes = len(config.tapes)
    if tapes * fuel > FUEL_BUDGET:  # a step costs about the same on each tape
        on = f" on {tapes} tapes" if tapes > 1 else ""
        raise ResourceError(f"fuel of {fuel} steps{on} is past the budget of {FUEL_BUDGET}")
    # each step adds at most one cell to each tape
    reach = sum(len(t.cells.strip(b"\0")) + fuel for t in config.tapes)
    if reach * machine._longest_symbol > TAPE_TEXT_BUDGET:
        raise ResourceError(
            f"{reach} cells of symbols up to {machine._longest_symbol} characters long may "
            f"hold {reach * machine._longest_symbol} characters of tape text, past the "
            f"budget of {TAPE_TEXT_BUDGET}")
    finals, oracle = machine.finals, machine.oracle
    ask = yes = no = None
    if oracle is not None:  # attach_oracle binds one only where oracle states are declared
        ask, yes, no = machine.oracle_states
    stops = finals | {ask} if ask is not None else finals
    table, one_sided = machine._table, machine.one_sided
    tape, others = config.tapes[0], config.tapes[1:]
    cells = tape.cells
    trace_left = max(0, TRACE_CAP - len(snapshots)) if snapshots is not None else 0
    kept = sum(len(text) for snap in snapshots for text in snap.texts) if trace_left else 0
    consultations = 0
    while True:
        if config.state == ask:
            answer = oracle(tape.marks_left_of(config.head))
            config.state = yes if answer else no
            consultations += 1
        if config.state in finals:
            return OutcomeKind.HALTED, consultations
        if config.steps >= fuel:
            return OutcomeKind.OUT_OF_FUEL, consultations
        origin, size = tape.origin, len(cells)
        head, state, steps = config.head, config.state, config.steps
        row = table.get(state)
        if row is None:
            return OutcomeKind.STUCK, consultations
        try:
            while True:
                i = head - origin
                key = cells[i] if 0 <= i < size else 0
                if others:
                    key = (key, *[t._code(head) for t in others])
                rule = row[key]
                if rule is None:
                    return OutcomeKind.STUCK, consultations
                dst, next_row, write, shift, extra = rule
                if one_sided and head + shift < 0:
                    raise DomainError("head moved past the left edge of a one-sided tape")
                if extra is not None:
                    if others:
                        for t, code in zip(others, extra):
                            t._put(head, code)
                    elif not trace_left and state not in stops:
                        # a sweep over non-blank cells, so inside the array
                        room = min(fuel - steps, size - i if shift > 0 else i + 1)
                        if one_sided and shift < 0:
                            room = min(room, head)
                        run = _sweep_length(cells, extra.outside, i, shift, room)
                        if extra.rewrite is not None:
                            first = i if shift > 0 else i + 1 - run
                            cells[first:first + run] = cells[first:first + run].translate(
                                extra.rewrite)
                        head += shift * run
                        steps += run
                        if steps >= fuel:
                            break
                        continue
                if write is None:
                    pass  # the rule writes back what it read
                elif 0 <= i < size:
                    cells[i] = write
                else:
                    tape._put(head, write)
                    origin, size = tape.origin, len(cells)
                head += shift
                state, row = dst, next_row
                steps += 1
                if state in stops or steps >= fuel or trace_left:
                    break
        finally:
            config.head, config.state, config.steps = head, state, steps
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
) -> RunOutcome:
    """Run until a final state, a missing transition, or fuel exhaustion.

    Oracle consultations resolve the ask-state without consuming fuel. The
    optional trace holds at most TRACE_CAP snapshots; each keeps the text of
    every tape rather than a copy of it.
    """
    if fuel < 1:
        raise DomainError("fuel must be a positive integer")
    config = initial_configuration(machine, input_symbols)
    snapshots = [_snapshot(config)] if trace else None
    kind, consultations = _drive(machine, config, fuel, snapshots)
    return RunOutcome(kind, config, consultations, snapshots)

