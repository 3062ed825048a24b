"""Deterministic Turing-machine engine.

Machines are quintuple programs ``(state, read) -> (state, write, move)``
loaded from JSON documents. Tapes are unbounded in both directions; a
machine may have several, all read and written at one head, which each
transition moves in one direction. Its tapes run as the tracks of one tape
(Hopcroft, Motwani & Ullman's "multiple tracks"): a cell holds one symbol per
tape, coded in one byte. A :class:`TuringMachine` is the alphabet, the
states and the rules, with that coding of its symbols and cells. A
:class:`TapeConfiguration` is its instantaneous description: that tape, the
head, the state and the steps; it starts from its machine, which it keeps.

Each machine compiles its quintuples once into a table ``(state, cell) ->
(state, write, shift)`` over cell codes, which the one stepping loop,
:func:`_drive`, reads. A rule whose state keeps itself over a set of cells,
writing a fixed cell for each and moving one way, is a sweep: the loop
applies it to the whole block of such cells at once, within its fuel.
:func:`run` alone checks the budgets and takes the trace, a configuration
after each one-step drive.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import DomainError, ResourceError, ValidationError, shown

MOVES = {"l": -1, "n": 0, "r": 1}

TRACE_CAP = 10**4  # rows (configurations) one traced run keeps
FUEL_BUDGET = 10**7  # steps one run may take; refused up front beyond this
# characters of tape text one run may reach, tapes x (extent + fuel) x the
# longest symbol; refused up front beyond this
TAPE_TEXT_BUDGET = 5 * 10**7
# characters of tape text the rows of one traced run may keep, counted as
# kept cells x the longest symbol as each is taken, since its extent is not known
TRACE_TEXT_BUDGET = 5 * 10**7
ALPHABET_BUDGET = 256  # symbols, the blank included, and contents of a cell: one byte
TAPE_BUDGET = 256  # tapes of one machine, so symbols in a cell; refused at load
_NO_RULES = (None,) * 256  # the row of a state without rules, indexed by cell code


class TuringMachine:
    """Validated machine definition, with the codes of its symbols and
    cells and its compiled tables; shareable, and never changed once built.

    Symbols are coded over the whole alphabet, ``names``, the blank as code
    0 (``by_name`` maps back), which the loader keeps within ALPHABET_BUDGET
    symbols; every symbol encoded must be in it. Where every symbol is one
    character below U+0100, codes turn into text by one ``bytes.translate``,
    and text into codes by one; else symbol by symbol.

    A cell holds one symbol per tape, a content of ``contents``, coded by
    its index there (``by_content`` maps back). The contents come first that
    hold a symbol on tape 0 and the blank on every other, in the symbols'
    order, so an input symbol's code is its cell's code and the blank cell
    is code 0; then every content some rule writes. More than
    ALPHABET_BUDGET contents are a :class:`ResourceError`. ``tracks[t]`` is
    the ``bytes.translate`` table taking a cell code to the code of its
    symbol on tape t.
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
    ):
        self.states, self.initial, self.finals, self.alphabet = states, initial, finals, alphabet
        self.blank, self.num_tapes, self.transitions = blank, num_tapes, transitions
        self.one_sided = one_sided
        self.names = [blank, *sorted(alphabet - {blank})]
        self.by_name = {name: code for code, name in enumerate(self.names)}
        inputs = [(name,) + (blank,) * (num_tapes - 1) for name in self.names]
        written = (write for _, write, _ in transitions.values())
        self.contents = list(dict.fromkeys([*inputs, *written]))  # each once, inputs first
        self.by_content = {content: code for code, content in enumerate(self.contents)}
        if len(self.contents) > ALPHABET_BUDGET:
            raise ResourceError(f"{len(self.contents)} contents of a cell are past the budget "
                                f"of {ALPHABET_BUDGET}, the blank cell included")
        self.tracks = [bytes(self.by_name[cell[t]] for cell in self.contents).ljust(256, b"\0")
                       for t in range(num_tapes)]
        self._encode = self._decode = None
        if all(len(name) == 1 and ord(name) < 256 for name in self.names):
            encode = bytearray(256)
            for code, name in enumerate(self.names):
                encode[ord(name)] = code
            self._encode = bytes(encode)
            self._decode = bytes(map(ord, self.names)).ljust(256, b"\0")
        self._table = self._compile_table(self._compile_sweeps())

    def encode(self, symbols: Iterable[str]) -> bytearray:
        """The codes of ``symbols``, each of which must be in the alphabet."""
        if self._encode is not None and isinstance(symbols, str):
            return bytearray(symbols.encode("latin-1").translate(self._encode))
        return bytearray(map(self.by_name.__getitem__, symbols))

    def text(self, cells: bytes, track: int = 0) -> str:
        """Track ``track`` of ``cells``, from its leftmost to its rightmost non-blank symbol."""
        # strip the blank cells first, so that only the extent is copied
        codes = cells.strip(b"\0").translate(self.tracks[track]).strip(b"\0")
        if self._decode is not None:
            return codes.translate(self._decode).decode("latin-1")
        return "".join(map(self.names.__getitem__, codes))

    def _compile_table(self, sweeps: dict[str, tuple[bytes, Optional[bytes]]]) -> dict:
        """The transitions as the stepping loop reads them, compiled once.

        Each state maps to its row of rules, a list indexed by the cell code
        it reads, which reads None where no rule applies; a rule that reads
        a content no cell can hold is left out. The states without rules are
        left out too, sharing the empty row ``_NO_RULES`` as a rule's
        destination and as the loop's start, so the table grows with the
        rules. A rule is ``(dst, row, write, shift, sweep)``: ``row`` is
        dst's row; ``write`` is the new cell code, or None where the rule
        writes back what it read; ``shift`` is the head move as an int;
        ``sweep`` is its state's ``(stop, rewrite)`` in ``sweeps``, or None.

        A write-back is None, not the code read, so that its step skips the
        store into the tape: with the store, a write-back machine that never
        sweeps took 1.3-1.5 times as long over 3 * 10**6 steps.
        """
        cell, width = self.by_content, len(self.contents)
        rows = {src: [None] * width for src, _ in self.transitions}
        for (src, read), (dst, write, move) in self.transitions.items():
            got, put, sweep = cell.get(read), cell[write], sweeps.get(src)
            if got is not None:
                rows[src][got] = (
                    dst, rows.get(dst, _NO_RULES), None if put == got else put, MOVES[move],
                    sweep if sweep and not sweep[0][got] else None)
        return rows

    def _compile_sweeps(self) -> dict[str, tuple[bytes, Optional[bytes]]]:
        """The states that sweep, each with its sweep ``(stop, rewrite)``.

        State q sweeps over the set S of the non-blank cells c whose rule
        keeps q, writes a non-blank cell f(c) and moves left or right, when
        all those rules move the same way; a cell is blank when it is blank
        on every track. From a cell in S such a state passes, unchanged,
        every cell up to the first one outside S. ``stop`` is the
        ``bytes.translate`` table taking each code in S to 0 and every
        other, the blank among them, to 1; ``rewrite`` is the one taking
        each code in S to the code its rule writes, or None where every
        rule writes back what it read, so that such a sweep skips its
        translate: with it, a write-back sweeper took about 1.3 times as
        long over 10**7 steps.
        """
        cell = self.by_content
        loops: dict[str, dict[int, tuple[int, str]]] = {}
        for (src, read), (dst, write, move) in self.transitions.items():
            got, put = cell.get(read), cell[write]
            if src == dst and got and put:  # neither blank, nor a content no cell holds
                loops.setdefault(src, {})[got] = (put, move)
        identity = bytes(range(256))
        sweeps = {}
        for state, rules in loops.items():
            moves = {move for _, move in rules.values()}
            if len(moves) > 1 or moves == {"n"}:
                continue
            rewrite = bytearray(identity)
            for got, (put, _) in rules.items():
                rewrite[got] = put
            stop = bytes(int(code not in rules) for code in range(256))
            sweeps[state] = stop, None if rewrite == identity else bytes(rewrite)
        return sweeps


class TapeConfiguration:
    """A running machine: its tape, the head, the state and the steps taken.

    The tape holds the tracks of the machine's tapes, unbounded in both
    directions, in a bytearray of cell codes: cell p sits at
    ``cells[p - origin]`` as the code ``machine`` gives its content; every
    cell outside the array, and every erased one, holds the blank cell,
    code 0. The non-blank extent is not kept: it is read off the array, by
    stripping its blanks, where it is needed. Only :meth:`_put` grows the
    array, by doubling at whichever end a non-blank write falls beyond, so a
    track's text is made from one slice, not a walk of its cells.
    """

    __slots__ = ("machine", "cells", "origin", "head", "state", "steps")

    def __init__(self, machine: TuringMachine, symbols: Sequence[str] = ""):
        """``symbols`` on track 0 from cell 0 on, blank everywhere else, and
        the head on cell 0 in the machine's initial state. ``symbols`` is a
        string of one-character symbols or a list of symbols, all in the alphabet."""
        outside = set(symbols) - machine.alphabet
        if outside:
            first = next(sym for sym in symbols if sym in outside)
            raise ValidationError(f"input symbol {shown(first)} is outside the alphabet")
        self.machine, self.cells, self.origin = machine, machine.encode(symbols), 0
        self.head, self.state, self.steps = 0, machine.initial, 0

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

    def tape_text(self, tape: int = 0) -> str:
        """Non-blank content of one tape, from leftmost to rightmost written cell."""
        return self.machine.text(self.cells, tape)

    def _trace_row(self) -> TapeConfiguration:
        """A copy for a trace, read and never stepped: its cells cut to the
        non-blank extent, as ``bytes``, and its ``origin`` moved to match."""
        row = TapeConfiguration.__new__(TapeConfiguration)
        row.cells = cut = bytes(self.cells.strip(b"\0"))
        # the cut starts at the first cell holding its first code, the first nonzero one
        row.machine, row.origin = self.machine, self.origin + self.cells.find(cut[:1])
        row.head, row.state, row.steps = self.head, self.state, self.steps
        return row


class RunOutcome:
    """How a run ended, ``kind``: ``"halted"`` in a final state, ``"stuck"``
    with no rule for its state and cell, or ``"out-of-fuel"``; its last
    configuration, and its trace rows when traced."""

    __slots__ = ("kind", "config", "trace")

    def __init__(self, kind: str, config: TapeConfiguration,
                 trace: Optional[list[TapeConfiguration]] = None):
        self.kind, self.config, self.trace = kind, config, trace


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

    Rejects duplicate ``(state, read)`` keys (nondeterminism) and references
    to undeclared states or symbols. Keys it does not know are ignored.
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
        raise ResourceError(f"{shown(num_tapes)} tapes are past the budget of {TAPE_BUDGET}")
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
        for state in (src, dst):
            if state not in states:
                raise ValidationError(f"{where} references an undeclared state {shown(state)}")
        for sym in read + write:
            if sym not in alphabet:
                raise ValidationError(f"transition uses symbol {shown(sym)} outside the alphabet")
        if move not in MOVES:
            raise ValidationError(f"move must be one of {sorted(MOVES)}, got {shown(move)}")
        key = (src, read)
        if key in transitions:
            raise ValidationError(f"{where} repeats the state and read of an earlier one: "
                                  "machines must be deterministic")
        transitions[key] = (dst, write, move)

    return TuringMachine(
        states=states,
        initial=initial,
        finals=finals,
        alphabet=alphabet,
        blank=blank,
        num_tapes=num_tapes,
        transitions=transitions,
        one_sided=one_sided,
    )


# -- stepping ------------------------------------------------------------------


def _sweep_length(cells: bytearray, stop: bytes, i: int, shift: int, room: int) -> int:
    """How many cells from ``cells[i]`` on, stepping by ``shift``, hold a
    code that ``stop`` takes to 0, counting at most ``room``.

    Each window is translated by ``stop`` and searched once, so entering a
    sweep costs the same whatever the size of the set; windows grow
    fourfold, so the end of a short run is not sought far past it on a long
    tape.
    """
    run, width = 0, 64
    while run < room:
        reach = min(run + width, room)
        if shift > 0:
            found = cells[i + run:i + reach].translate(stop).find(1)
            if found >= 0:
                return run + found
        else:
            found = cells[i + 1 - reach:i + 1 - run].translate(stop).rfind(1)
            if found >= 0:
                return reach - 1 - found
        run, width = reach, 4 * width
    return room


def _drive(config: TapeConfiguration, fuel: int) -> str:
    """Step ``config`` in place until it halts, sticks or reaches ``fuel``
    steps, and return how it ended, the word a :class:`RunOutcome` keeps.

    The configuration's one head reads and writes a cell of the tape, every
    track at once. The loop steps on the compiled table with the head, the
    state and the step count in locals, and writes the tape's array in
    place; only a write beyond the array goes through
    :meth:`TapeConfiguration._put`, which grows it. The locals are written
    back to ``config`` however the loop ends, a raise included.

    A sweep rule takes the whole run of cells its state keeps itself on at
    once: up to the first cell outside its set, clipped at the array's end
    (every cell past it is blank, and the blank always ends a sweep), at
    the fuel and, moving left on a one-sided tape, short of cell 0, so the
    ordinary step still raises there. It rewrites them with one
    ``bytes.translate`` and counts one step per cell, so with one step of
    fuel left it covers one cell. None starts in a final state: the loop
    starts off one and ends on entering one.
    """
    finals, one_sided, cells = config.machine.finals, config.machine.one_sided, config.cells
    origin, size = config.origin, len(cells)
    head, state, steps = config.head, config.state, config.steps
    row = config.machine._table.get(state, _NO_RULES)
    try:
        while state not in finals:
            if steps >= fuel:
                return "out-of-fuel"
            i = head - origin
            rule = row[cells[i] if 0 <= i < size else 0]
            if rule is None:
                return "stuck"
            dst, next_row, write, shift, sweep = rule
            if one_sided and head + shift < 0:
                raise DomainError("head moved past the left edge of a one-sided tape")
            if sweep is not None:
                # a sweep over non-blank cells, so inside the array
                stop, rewrite = sweep
                room = min(fuel - steps, size - i if shift > 0 else i + 1)
                if one_sided and shift < 0:
                    room = min(room, head)
                run = _sweep_length(cells, stop, i, shift, room)
                if rewrite is not None:
                    first = i if shift > 0 else i + 1 - run
                    cells[first:first + run] = cells[first:first + run].translate(rewrite)
                head += shift * run
                steps += run
                continue
            if write is None:
                pass  # the rule writes back what it read
            elif 0 <= i < size:
                cells[i] = write
            else:
                config._put(head, write)
                origin, size = config.origin, len(cells)
            head += shift
            state, row = dst, next_row
            steps += 1
        return "halted"
    finally:
        config.head, config.state, config.steps = head, state, steps


def run(machine: TuringMachine, input_symbols: str = "", *, fuel: int,
        trace: bool = False) -> RunOutcome:
    """Run until a final state, a missing transition, or ``fuel`` steps; the
    fuel has no default, the caller states it as the command line does.

    Fuel below 1, an input symbol outside the alphabet, fuel past
    FUEL_BUDGET, or tracks whose text could grow past TAPE_TEXT_BUDGET
    characters within it are refused, in that order, before the first step.

    An untraced run is one :func:`_drive`. A traced run drives one step at
    a time, keeping a row after each, while the rows number fewer than
    TRACE_CAP; then one drive takes the rest. A row is a configuration that
    keeps a copy of the tape's non-blank cells and reads a track's text off
    it when asked; rows that keep cells of more than TRACE_TEXT_BUDGET
    characters are refused before the first one past it.
    """
    if fuel < 1:
        raise DomainError("fuel must be a positive integer")
    config = TapeConfiguration(machine, input_symbols)
    if fuel > FUEL_BUDGET:
        raise ResourceError(f"fuel of {shown(fuel)} steps is past the budget of {FUEL_BUDGET}")
    longest = max(map(len, machine.alphabet))  # the blank is in the alphabet
    # each step adds at most one cell to the extent, a symbol on each track
    reach = machine.num_tapes * (len(config.cells.strip(b"\0")) + fuel)
    if reach * longest > TAPE_TEXT_BUDGET:
        raise ResourceError(
            f"{reach} cells of symbols up to {longest} characters long may hold "
            f"{reach * longest} characters of tape text, past the budget of {TAPE_TEXT_BUDGET}")
    if not trace:
        return RunOutcome(_drive(config, fuel), config)
    rows = [config._trace_row()]
    kept = len(rows[0].cells) * longest
    while len(rows) < TRACE_CAP and config.steps < fuel:
        steps = config.steps
        _drive(config, steps + 1)
        if config.steps == steps:
            break  # halted or stuck where it stands
        row = config._trace_row()
        kept += len(row.cells) * longest
        if kept > TRACE_TEXT_BUDGET:
            raise ResourceError(
                f"trace snapshots would keep {kept} characters of tape text, past the "
                f"budget of {TRACE_TEXT_BUDGET}")
        rows.append(row)
    return RunOutcome(_drive(config, fuel), config, rows)
