import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperlab import cli, turing
from hyperlab.errors import DomainError, ResourceError, ValidationError

from conftest import contents_doc, self_loop_doc, successor_doc


class TestLoading:
    def test_unknown_keys_are_ignored(self, successor):
        doc = successor_doc() | {"input_states": {"request": "scan"}, "comment": 7}
        assert turing.load_machine(doc).transitions == successor.transitions

    def test_successor_loads_with_two_states(self, successor):
        assert len(successor.states) == 2
        outcome = turing.run(successor, "111", fuel=100)
        assert outcome.kind == "halted"
        assert outcome.config.tape_text() == "1111"

    def test_duplicate_rule_is_nondeterminism(self):
        doc = successor_doc()
        doc["transitions"].append(
            {"from": "scan", "read": "1", "to": "done", "write": "1", "move": "n"})
        with pytest.raises(ValidationError, match="deterministic"):
            turing.load_machine(doc)

    def test_dangling_state_reference(self):
        doc = successor_doc()
        doc["transitions"][0]["to"] = "ghost"
        with pytest.raises(ValidationError, match="undeclared state"):
            turing.load_machine(doc)

    def test_symbol_outside_alphabet(self):
        doc = successor_doc()
        doc["transitions"][0]["write"] = "x"
        with pytest.raises(ValidationError, match="outside the alphabet"):
            turing.load_machine(doc)

    def test_blank_must_be_in_alphabet(self):
        doc = successor_doc()
        doc["blank"] = "#"
        with pytest.raises(ValidationError, match="blank"):
            turing.load_machine(doc)

    def test_missing_key(self):
        with pytest.raises(ValidationError, match="required key"):
            turing.load_machine({"blank": "_"})


class TestStep:
    def test_skip_right_leaves_tape(self, successor):
        outcome = turing.run(successor, "1", fuel=1)
        assert outcome.kind == "out-of-fuel"
        assert outcome.config.head == 1
        assert outcome.config.tape_text() == "1"
        assert outcome.config.steps == 1

    def test_no_movement_keeps_head(self):
        machine = turing.load_machine(self_loop_doc())
        outcome = turing.run(machine, fuel=1)
        assert outcome.config.head == 0 and outcome.config.steps == 1

    def test_multitape_rule_consumes_and_writes_pairs(self):
        doc = {
            "blank": "_", "tapes": 2,
            "alphabet": ["_", "a"],
            "states": ["copy", "done"],
            "initial": "copy", "finals": ["done"],
            "transitions": [
                {"from": "copy", "read": ["a", "_"], "to": "copy",
                 "write": ["a", "a"], "move": "r"},
                {"from": "copy", "read": ["_", "_"], "to": "done",
                 "write": ["_", "_"], "move": "n"},
            ],
        }
        machine = turing.load_machine(doc)
        outcome = turing.run(machine, "aaa", fuel=50)
        assert outcome.kind == "halted"
        assert outcome.config.tape_text(tape=0) == "aaa"
        assert outcome.config.tape_text(tape=1) == "aaa"
        # one head over both tapes, moved once per transition
        assert outcome.config.head == 3


class TestRun:
    def test_successor_on_three_marks(self, successor):
        outcome = turing.run(successor, "111", fuel=100)
        assert outcome.kind == "halted"
        assert outcome.config.tape_text() == "1111"
        assert outcome.config.steps == 4

    def test_self_loop_runs_out_of_fuel(self, self_loop):
        outcome = turing.run(self_loop, "", fuel=50)
        assert outcome.kind == "out-of-fuel"
        assert outcome.config.steps == 50

    def test_immediate_halt_on_empty_input(self):
        doc = successor_doc()
        doc["initial"] = "done"
        machine = turing.load_machine(doc)
        outcome = turing.run(machine, "", fuel=10)
        assert outcome.kind == "halted"
        assert outcome.config.steps == 0

    def test_stuck_when_no_rule(self, successor):
        doc = successor_doc()
        del doc["transitions"][1]
        machine = turing.load_machine(doc)
        outcome = turing.run(machine, "1", fuel=10)
        assert outcome.kind == "stuck"

    def test_trace_is_bounded(self, self_loop):
        with mock.patch.object(turing, "TRACE_CAP", 5):
            outcome = turing.run(self_loop, "", fuel=30, trace=True)
        assert len(outcome.trace) == 5

    def test_input_validated(self, successor):
        with pytest.raises(ValidationError):
            turing.run(successor, "abc", fuel=10**6)

    def test_a_configuration_starts_from_its_machine(self, successor, write_json):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            status = cli.main(["tm", "run", write_json("successor.json", successor_doc()),
                               "--input", "1x1"])
        with pytest.raises(ValidationError) as refusal:
            turing.TapeConfiguration(successor, ["1", "x", "1"])
        message = "input symbol 'x' is outside the alphabet"
        assert status == 1 and str(refusal.value) == message
        assert json.loads(err.getvalue()) == {"error": "validation-error", "message": message}
        config = turing.TapeConfiguration(successor, "11")
        assert (config.machine, config.state, config.head, config.steps, config.tape_text()) == (
            successor, successor.initial, 0, 0, "11")
        outcome = turing.run(successor, "111", fuel=100, trace=True)
        assert len(outcome.trace) == 5
        assert all(row.machine is successor for row in outcome.trace + [outcome.config])

    def test_one_sided_tape_rejects_left_edge(self):
        doc = successor_doc()
        doc["one_sided"] = True
        doc["transitions"][0]["move"] = "l"
        machine = turing.load_machine(doc)
        with pytest.raises(DomainError, match="one-sided"):
            turing.run(machine, "1", fuel=10)


def _random_machine_doc(rng: np.random.Generator) -> dict:
    states = ["s0", "s1", "s2", "halt"]
    symbols = ["_", "1"]
    transitions = []
    for state in states[:-1]:
        for sym in symbols:
            if rng.random() < 0.85:
                transitions.append({
                    "from": state,
                    "read": sym,
                    "to": states[int(rng.integers(len(states)))],
                    "write": symbols[int(rng.integers(2))],
                    "move": ["l", "n", "r"][int(rng.integers(3))],
                })
    return {
        "blank": "_", "alphabet": symbols, "states": states,
        "initial": "s0", "finals": ["halt"], "transitions": transitions,
    }


class TestFuelMonotonicity:
    def test_outcome_stable_once_settled(self, rng):
        settled = 0
        for _ in range(60):
            machine = turing.load_machine(_random_machine_doc(rng))
            text = "1" * int(rng.integers(4))
            first = turing.run(machine, text, fuel=40)
            if first.kind == "out-of-fuel":
                continue
            settled += 1
            for fuel in (first.config.steps + 1, 80, 500):
                again = turing.run(machine, text, fuel=max(fuel, 1))
                assert again.kind == first.kind
                assert again.config.steps == first.config.steps
                assert _engine_view(again.config) == _engine_view(first.config)
        assert settled >= 10  # the corpus must actually exercise the property


def test_run_agrees_with_iterated_pure_steps(rng):
    # the fast in-place loop inside run() must be indistinguishable from
    # stepping the document's raw rules one at a time (_reference_drive)
    for _ in range(20):
        doc = _random_machine_doc(rng)
        text = "1" * int(rng.integers(4))
        outcome = turing.run(turing.load_machine(doc), text, fuel=50)
        ref = _reference_start(doc, text)
        assert outcome.kind == _reference_drive(doc, ref, 50)
        # state, the shared head, steps, and each tape's text and extent
        assert _engine_view(outcome.config) == _reference_view(doc, ref)


@settings(max_examples=40)
@given(st.integers(0, 5), st.integers(1, 60))
def test_tape_sparsity_grows_at_most_one_cell_per_step(marks, fuel):
    machine = turing.load_machine(successor_doc())
    text = "1" * marks
    outcome = turing.run(machine, text, fuel=fuel)
    extent = _extent(outcome.config)
    written = extent[1] - extent[0] + 1 if extent else 0
    assert written <= marks + outcome.config.steps


# symbols of several characters, including the blank, so a snapshot's text
# cannot be recovered by stripping characters
_WIDE_SYMBOLS = ["..", "a", "bb", "c.", ".d"]


def _reads(tapes: int) -> list[tuple[str, ...]]:
    """Every symbol on tape 0, with one of the first two symbols on every other tape."""
    return [(a,) + (b,) * (tapes - 1)
            for a in _WIDE_SYMBOLS for b in _WIDE_SYMBOLS[:2 if tapes > 1 else 1]]


# symbols to write on every tape after tape 0, by the number of tapes, drawn at once
_OTHERS = {tapes: st.sampled_from(list(product(_WIDE_SYMBOLS, repeat=tapes - 1))).map(list)
           for tapes in range(1, 5)}


@st.composite
def _wide_machines(draw):
    """Random 1- to 4-tape machines over _WIDE_SYMBOLS that erase and move freely."""
    tapes = draw(st.integers(1, 4))
    states = ["s0", "s1", "s2", "halt"]
    reads = _reads(tapes)
    transitions = []
    for state in states[:-1]:
        for read in reads:
            if draw(st.booleans()) or read[0] == "..":
                write = [draw(st.sampled_from(_WIDE_SYMBOLS))] + draw(_OTHERS[tapes])
                transitions.append({
                    "from": state, "read": list(read),
                    "to": draw(st.sampled_from(states)), "write": write,
                    "move": draw(st.sampled_from("lnr")),
                })
    doc = {"blank": "..", "alphabet": _WIDE_SYMBOLS, "states": states, "tapes": tapes,
           "initial": "s0", "finals": ["halt"], "transitions": transitions}
    text = draw(st.text(alphabet="a", max_size=6))
    return doc, text


class TestTrace:
    @settings(max_examples=150, deadline=None)
    @given(_wide_machines(), st.integers(1, 80), st.integers(1, 40))
    def test_snapshots_match_stepped_configurations(self, case, fuel, cap):
        doc, text = case
        machine = turing.load_machine(doc)
        with mock.patch.object(turing, "TRACE_CAP", cap):
            outcome = turing.run(machine, text, fuel=fuel, trace=True)
        ref = _reference_start(doc, text)
        trace = [_reference_view(doc, ref)]  # the starting configuration
        _reference_drive(doc, ref, fuel, trace=trace)
        # each row's cells sit where its origin says: the extents are the reference's
        assert list(map(_engine_view, outcome.trace)) == trace[:cap]

    def test_interior_blanks_print_as_the_blank_symbol(self):
        doc = {"blank": "__", "alphabet": ["__", "a", "XY"], "states": ["go", "done"],
               "initial": "go", "finals": ["done"],
               "transitions": [
                   {"from": "go", "read": "a", "to": "go", "write": "__", "move": "r"},
                   {"from": "go", "read": "__", "to": "done", "write": "XY", "move": "n"}]}
        machine = turing.load_machine(doc)
        outcome = turing.run(machine, "aaa", fuel=10**6, trace=True)
        assert [s.tape_text() for s in outcome.trace] == [
            "aaa", "aa", "a", "", "XY"]
        # erasing an edge cell next to erased cells skips all of them
        doc["states"] = ["go", "gap", "back", "erase", "done"]
        doc["transitions"] = [
            {"from": "go", "read": "a", "to": "gap", "write": "a", "move": "r"},
            {"from": "gap", "read": "__", "to": "go", "write": "__", "move": "r"},
            {"from": "go", "read": "__", "to": "back", "write": "XY", "move": "l"},
            {"from": "back", "read": "__", "to": "back", "write": "__", "move": "l"},
            {"from": "back", "read": "a", "to": "erase", "write": "__", "move": "r"},
            {"from": "erase", "read": "__", "to": "done", "write": "__", "move": "n"}]
        machine = turing.load_machine(doc)
        outcome = turing.run(machine, "a", fuel=10**6, trace=True)
        assert [s.tape_text() for s in outcome.trace] == [
            "a", "a", "a", "a__XY", "a__XY", "XY", "XY"]
        # a blank written inside the extent reads as an erased cell
        cfg = turing.TapeConfiguration(turing.load_machine(doc | {"transitions": []}))
        for pos, symbol in {-2: "a", 0: "__", 1: "XY", 3: "__"}.items():
            _write(cfg, pos, symbol)
        assert cfg.tape_text() == "a____XY"


_BLANK = _WIDE_SYMBOLS[0]
# a machine with no rules, for its coding of _WIDE_SYMBOLS
_RULELESS = turing.load_machine({"blank": _BLANK, "alphabet": _WIDE_SYMBOLS, "states": ["s0"],
                                 "initial": "s0", "finals": [], "transitions": []})


def _write(config, pos, symbol):
    """Write ``symbol`` on track 0 of ``config``'s tape and the blank on every other."""
    config._put(pos, config.machine.by_name[symbol])


class TestTape:
    """A configuration's tape against a plain dict of the non-blank cells, written alike."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(_WIDE_SYMBOLS), max_size=6),
           st.lists(st.tuples(st.integers(-12, 12), st.sampled_from(_WIDE_SYMBOLS)),
                    max_size=40))
    # erase both edges of the input, then write far left of the emptied tape
    @example(["a", _BLANK, "bb"], [(0, _BLANK), (2, _BLANK), (-5, "c.")])
    def test_agrees_with_a_dict_model(self, initial, writes):
        tape = turing.TapeConfiguration(_RULELESS, initial)
        model = {p: s for p, s in enumerate(initial) if s != _BLANK}
        for pos, symbol in writes:
            _write(tape, pos, symbol)
            if symbol == _BLANK:
                model.pop(pos, None)
            else:
                model[pos] = symbol
            span = range(min(model), max(model) + 1) if model else range(0)
            assert tape.tape_text() == "".join(model.get(p, _BLANK) for p in span)
        rebuilt, shifted = (turing.TapeConfiguration(_RULELESS) for _ in range(2))
        for pos in sorted(model, reverse=True):
            _write(rebuilt, pos, model[pos])
            _write(shifted, pos + 1, model[pos])
        assert (rebuilt.tape_text(), _extent(rebuilt)) == (tape.tape_text(), _extent(tape))
        assert ((shifted.tape_text(), _extent(shifted)) == (tape.tape_text(), _extent(tape))) is (
            not model)


# -- an independent reference stepper ---------------------------------------------


@dataclass
class _Reference:
    """A machine run by hand: each tape a dict of its non-blank cells."""

    tapes: list[dict]
    state: str
    head: int = 0
    steps: int = 0


def _listed(value) -> list:
    return [value] if isinstance(value, str) else list(value)


def _reference_drive(doc, ref, fuel, trace=None):
    """Step ``ref`` by the document's raw rules until it halts, sticks or
    reaches ``fuel`` steps; the outcome kind."""
    blank, moves = doc["blank"], {"l": -1, "n": 0, "r": 1}
    rules = {(r["from"], tuple(_listed(r["read"]))): r for r in doc["transitions"]}

    def put(tape, symbol):
        if symbol == blank:
            tape.pop(ref.head, None)
        else:
            tape[ref.head] = symbol

    while True:
        if ref.state in doc["finals"]:
            return "halted"
        if ref.steps >= fuel:
            return "out-of-fuel"
        rule = rules.get((ref.state, tuple(t.get(ref.head, blank) for t in ref.tapes)))
        if rule is None:
            return "stuck"
        if doc.get("one_sided") and ref.head + moves[rule["move"]] < 0:
            raise DomainError("head moved past the left edge of a one-sided tape")
        for tape, symbol in zip(ref.tapes, _listed(rule["write"])):
            put(tape, symbol)
        ref.head, ref.state = ref.head + moves[rule["move"]], rule["to"]
        ref.steps += 1
        if trace is not None:
            trace.append(_reference_view(doc, ref))


def _reference_start(doc, text="") -> _Reference:
    tapes = [{p: s for p, s in enumerate(text) if s != doc["blank"]}]
    return _Reference(tapes + [{} for _ in range(doc.get("tapes", 1) - 1)], doc["initial"])


def _reference_view(doc, ref):
    """State, head, steps, each tape's text, each tape's non-blank extent."""
    texts = tuple("".join(t.get(p, doc["blank"]) for p in range(min(t), max(t) + 1))
                  if t else "" for t in ref.tapes)
    extents = tuple((min(t), max(t)) if t else None for t in ref.tapes)
    return ref.state, ref.head, ref.steps, texts, extents


def _extent(config, track=0):
    """The leftmost and rightmost cells of a configuration's tape whose track
    is not blank, or None where the track is blank."""
    marked = [i for i, code in enumerate(config.cells) if config.machine.tracks[track][code]]
    return (config.origin + marked[0], config.origin + marked[-1]) if marked else None


def _engine_view(config):
    tracks = range(len(config.machine.tracks))
    texts = tuple(config.tape_text(k) for k in tracks)
    extents = tuple(_extent(config, k) for k in tracks)
    return config.state, config.head, config.steps, texts, extents


@st.composite
def _random_docs(draw):
    """Raw documents of random 1- to 4-tape machines over _WIDE_SYMBOLS, with
    a state with no rules, one-sided or not."""
    tapes = draw(st.integers(1, 4))
    states = ["s0", "s1", "s2", "dead", "halt"]
    transitions = [
        {"from": state, "read": list(read), "to": draw(st.sampled_from(states)),
         "write": [draw(st.sampled_from(_WIDE_SYMBOLS))] + draw(_OTHERS[tapes]),
         "move": draw(st.sampled_from("lnr"))}
        for state in states[:3] for read in _reads(tapes) if draw(st.booleans()) or read[0] == ".."]
    return {"blank": "..", "alphabet": _WIDE_SYMBOLS, "states": states, "tapes": tapes,
            "initial": "s0", "finals": ["halt"], "transitions": transitions,
            "one_sided": draw(st.booleans())}


@st.composite
def _sweeping_docs(draw):
    """Raw documents like _random_docs', on which runs of one state over a
    block of cells take most steps: each state but the final keeps itself,
    moving one way, over a set of non-blank symbols, rewriting them or not."""
    tapes = draw(st.integers(1, 4))
    states = ["s0", "s1", "s2", "s3", "s4", "halt"]
    marks = _WIDE_SYMBOLS[1:]
    transitions = []
    for state in states[:5]:
        keep = draw(st.sets(st.sampled_from(marks), min_size=1, max_size=3))
        move, rewrites = draw(st.sampled_from("lr")), draw(st.booleans())
        for a, *read in _reads(tapes):
            others = draw(_OTHERS[tapes])
            if a in keep:
                write = [draw(st.sampled_from(marks)) if rewrites else a] + others
                transitions.append({"from": state, "read": [a] + read, "to": state,
                                    "write": write, "move": move})
            elif draw(st.booleans()) or a == "..":
                transitions.append({
                    "from": state, "read": [a] + read, "to": draw(st.sampled_from(states)),
                    "write": [draw(st.sampled_from(_WIDE_SYMBOLS))] + others,
                    "move": draw(st.sampled_from("lnr"))})
    return {"blank": "..", "alphabet": _WIDE_SYMBOLS, "states": states, "tapes": tapes,
            "initial": "s0", "finals": ["halt"], "transitions": transitions,
            "one_sided": draw(st.booleans())}


# inputs of up to 40 symbols in blocks of one symbol, so runs have cells to cross
_BLOCKS = st.lists(st.tuples(st.sampled_from(_WIDE_SYMBOLS), st.integers(1, 12)),
                   max_size=8).map(lambda blocks: [s for s, n in blocks for _ in range(n)][:40])


def _sweeper(rules, tapes=1, one_sided=False) -> dict:
    """A document from (state, read, to, write, move) rules on one tape; a
    second tape, if asked for, is read as blank and left blank."""
    return {"blank": "..", "alphabet": _WIDE_SYMBOLS, "tapes": tapes,
            "states": ["s0", "s1", "s2", "halt"], "initial": "s0",
            "finals": ["halt"], "one_sided": one_sided,
            "transitions": [{"from": f, "read": [r] + [".."] * (tapes - 1), "to": t,
                             "write": [w] + [".."] * (tapes - 1), "move": m}
                            for f, r, t, w, m in rules]}


# s0 runs right over a and bb, rewriting a to c., until a blank
_RIGHT = [("s0", "a", "s0", "c.", "r"), ("s0", "bb", "s0", "bb", "r")]
# ...then s1 runs left over what s0 left, rewriting c. to a, into cell 0
_INTO_THE_EDGE = _sweeper(_RIGHT + [("s0", "..", "s1", ".d", "l"), ("s1", "c.", "s1", "a", "l"),
                                    ("s1", "bb", "s1", "bb", "l")], one_sided=True)
# s0 runs right over a and bb and stops on a .d, then s1 runs left over bb
# and stops on an a, both inside the extent
_BACK_TO_A = _sweeper([("s0", "a", "s0", "a", "r"), ("s0", "bb", "s0", "bb", "r"),
                       ("s0", ".d", "s1", ".d", "l"), ("s1", "bb", "s1", "bb", "l"),
                       ("s1", "a", "halt", "a", "n")])
_LONG = ["a"] * 18 + ["bb"] * 20
# s0 runs right to the end and s1 erases the bb block leftwards; then s2 runs
# left over the a block and s0 right over it, into the erased cells
_INTO_ERASED_RIGHT = _sweeper([("s0", "a", "s0", "a", "r"), ("s0", "bb", "s0", "bb", "r"),
                               ("s0", "..", "s1", "..", "l"), ("s1", "bb", "s1", "..", "l"),
                               ("s1", "a", "s2", "a", "l"), ("s2", "a", "s2", "a", "l"),
                               ("s2", "..", "s0", "..", "r")])
# s0 erases the bb block rightwards; then s1 runs right over the a block and
# s2 left over it, into the erased cells
_INTO_ERASED_LEFT = [("s0", "bb", "s0", "..", "r"), ("s0", "a", "s1", "a", "r"),
                     ("s1", "a", "s1", "a", "r"), ("s1", "..", "s2", "..", "l"),
                     ("s2", "a", "s2", "a", "l"), ("s2", "..", "s1", "..", "r")]


class TestAgainstTheReference:
    """run() against _reference_drive, which shares no code with the
    engine: not the compiled table, not the configuration's tape."""

    @settings(max_examples=200, deadline=None)
    @given(_random_docs(), st.text(alphabet="a", max_size=6), st.integers(1, 80),
           st.integers(0, 6))
    def test_run_and_its_trace(self, doc, text, fuel, cap):
        _check_run(doc, text, fuel, cap)

    @settings(max_examples=300, deadline=None)
    @given(_sweeping_docs(), _BLOCKS, st.integers(1, 200), st.integers(0, 30))
    # fuel ends inside a run; a one-sided run left into cell 0; a trace cap
    # reached inside a run; two tapes, halting straight out of a run; runs
    # both ways that end on a symbol inside the extent
    @example(_sweeper(_RIGHT), _LONG, 25, 0)
    @example(_INTO_THE_EDGE, _LONG, 200, 0)
    @example(_INTO_THE_EDGE, _LONG, 200, 9)
    @example(_sweeper(_RIGHT + [("s0", "..", "halt", "a", "n")], tapes=2), _LONG, 100, 0)
    @example(_BACK_TO_A, _LONG + [".d", "a", "a"], 200, 0)
    # runs into erased cells inside the array, each way, and one-sided next to cell 0
    @example(_INTO_ERASED_RIGHT, _LONG, 200, 0)
    @example(_sweeper(_INTO_ERASED_LEFT), ["bb"] * 6 + ["a"] * 20, 200, 0)
    @example(_sweeper(_INTO_ERASED_LEFT, one_sided=True), ["bb"] + ["a"] * 20, 200, 0)
    def test_sweeping_run_and_its_trace(self, doc, text, fuel, cap):
        _check_run(doc, text, fuel, cap)


def _check_run(doc, text, fuel, cap):
    """run() with a trace of at most cap snapshots, and an untraced drive,
    against the reference."""
    machine = turing.load_machine(doc)
    ref, trace = _reference_start(doc, text), []
    capped = mock.patch.object(turing, "TRACE_CAP", cap)
    try:
        kind = _reference_drive(doc, ref, fuel, trace=trace)
    except DomainError:
        with capped, pytest.raises(DomainError, match="one-sided"):
            turing.run(machine, text, fuel=fuel, trace=True)
        # untraced, the drive stops where the reference raised
        config = turing.TapeConfiguration(machine, text)
        with pytest.raises(DomainError, match="one-sided"):
            turing._drive(config, fuel)
        assert _engine_view(config) == _reference_view(doc, ref)
        return
    with capped:
        outcome = turing.run(machine, text, fuel=fuel, trace=True)
    assert outcome.kind == kind
    assert _engine_view(outcome.config) == _reference_view(doc, ref)
    # the first row, of the starting configuration, is kept at any cap
    expected = ([_reference_view(doc, _reference_start(doc, text))] + trace)[:max(cap, 1)]
    assert list(map(_engine_view, outcome.trace)) == expected
    untraced = turing.run(machine, text, fuel=fuel)
    assert untraced.kind == kind
    assert _engine_view(untraced.config) == _reference_view(doc, ref)


def _step_by_step(doc, text, steps):
    """Drive ``doc`` on ``text`` at fuel = steps + 1, the step of a traced run,
    up to ``steps`` times, each against one reference step; the last kind,
    or None where both raised at the one-sided edge."""
    machine = turing.load_machine(doc)
    config, ref = turing.TapeConfiguration(machine, text), _reference_start(doc, text)
    kind = "out-of-fuel"
    for _ in range(steps):
        before = config.steps
        try:
            kind = _reference_drive(doc, ref, ref.steps + 1)
        except DomainError:
            with pytest.raises(DomainError, match="one-sided"):
                turing._drive(config, config.steps + 1)
            assert _engine_view(config) == _reference_view(doc, ref)
            return None
        assert turing._drive(config, config.steps + 1) == kind
        assert config.steps - before == ref.steps - before <= 1
        assert _engine_view(config) == _reference_view(doc, ref)
        if kind != "out-of-fuel":
            break
    return kind


class TestOneStep:
    """_drive at fuel = steps + 1 takes exactly one step, as the reference does."""

    def test_an_ordinary_rule(self):
        doc = _sweeper([("s0", "a", "s1", "bb", "r"), ("s1", "a", "s0", "c.", "r"),
                        ("s0", "..", "halt", "a", "n")])
        assert not _swept(turing.load_machine(doc))
        assert _step_by_step(doc, ["a"] * 6, 10) == "halted"

    def test_a_sweep_rule_covers_one_cell(self):
        doc = _sweeper(_RIGHT + [("s0", "..", "halt", "a", "n")])
        assert _swept(turing.load_machine(doc)) == {"s0"}
        assert _step_by_step(doc, _LONG, 50) == "halted"

    def test_a_write_past_either_end_of_the_array(self):
        # on an empty array s0 writes at cell 0 and s1 left of it, at -1;
        # then s2 moves back and s0 writes right of the array, at cell 1
        doc = _sweeper([("s0", "..", "s1", "a", "l"), ("s1", "..", "s2", "bb", "r"),
                        ("s2", "a", "s0", "a", "r")])
        machine = turing.load_machine(doc)
        config = turing.TapeConfiguration(machine)
        arrays = []
        for _ in range(4):
            turing._drive(config, config.steps + 1)
            arrays.append((config.origin, len(config.cells)))
        assert arrays == [(0, 1), (-1, 2), (-1, 2), (-1, 4)]
        assert _step_by_step(doc, "", 10) == "stuck"

    def test_at_the_one_sided_edge_it_raises(self):
        assert _step_by_step(_INTO_THE_EDGE, _LONG, 200) is None

    @settings(max_examples=100, deadline=None)
    @given(_sweeping_docs(), _BLOCKS)
    def test_random_sweeping_machines(self, doc, text):
        _step_by_step(doc, text, 60)


def _golden_machine(name: str) -> turing.TuringMachine:
    path = Path(__file__).parent / "golden" / f"{name}.json"
    return turing.load_machine(json.loads(path.read_text()))


def _swept(machine: turing.TuringMachine) -> set[str]:
    """The states whose compiled rules carry a sweep."""
    return {state for state, row in machine._table.items()
            if any(rule is not None and rule[-1] is not None for rule in row)}


class TestSweepMarks:
    """Which states the compiled table runs as sweeps, and over what."""

    def test_the_benchmark_machines(self):
        # the scan, palindrome and doubling machines of the exact-heavy
        # benchmark, with their state and symbol names
        scan = turing.load_machine({
            "blank": "_", "alphabet": ["_", "a", "b"], "states": ["scan", "done"],
            "initial": "scan", "finals": ["done"],
            "transitions": [
                {"from": "scan", "read": "a", "to": "scan", "write": "b", "move": "r"},
                {"from": "scan", "read": "b", "to": "scan", "write": "a", "move": "r"},
                {"from": "scan", "read": "_", "to": "done", "write": "a", "move": "n"}]})
        palindrome, doubling = _golden_machine("palindrome"), _golden_machine("doubling")
        doubling_sweeps = doubling._compile_sweeps()
        assert set(scan._compile_sweeps()) == _swept(scan) == {"scan"}
        assert (set(palindrome._compile_sweeps()) == _swept(palindrome)
                == {"carry_a", "carry_b", "back"})
        assert set(doubling_sweeps) == _swept(doubling) == {"right", "left", "convert", "rewind"}
        assert all(rewrite is None for _, rewrite in palindrome._compile_sweeps().values())
        assert doubling_sweeps["right"][1] is doubling_sweeps["left"][1] is None
        for machine, state, rewrites in (
                (scan, "scan", {"a": "b", "b": "a"}), (doubling, "convert", {"y": "1"}),
                (doubling, "rewind", {"x": "1", "1": "1"})):  # mark -> one
            code, (_, rewrite) = machine.by_name, machine._compile_sweeps()[state]
            assert {a: machine.names[rewrite[code[a]]] for a in rewrites} == rewrites

    def test_a_run_ends_on_every_symbol_outside_the_set(self):
        doubling = _golden_machine("doubling")
        names = doubling.names
        outside = {state: sorted(names[c] for c in range(len(names)) if stop[c])
                   for state, (stop, _) in doubling._compile_sweeps().items()}
        assert outside == {"right": ["_", "x"], "left": ["_", "x"], "convert": ["1", "_", "x"],
                         "rewind": ["_", "y"]}

    def test_a_loop_writing_the_blank_is_no_part_of_a_sweep(self):
        # fwd keeps itself over a, writing AA, and over b, erasing it
        multichar = _golden_machine("multichar")
        assert _swept(multichar) == {"fwd", "back"}
        code = multichar.by_name
        assert multichar._table["fwd"][code["a"]][-1] is not None
        assert multichar._table["fwd"][code["b"]][-1] is None

    def test_loops_that_move_two_ways_or_stay_do_not_sweep(self):
        doc = {"blank": "_", "alphabet": ["_", "a", "b"], "states": ["two", "stay", "erase"],
               "initial": "two", "finals": [], "transitions": [
                   {"from": "two", "read": "a", "to": "two", "write": "a", "move": "r"},
                   {"from": "two", "read": "b", "to": "two", "write": "b", "move": "l"},
                   {"from": "stay", "read": "a", "to": "stay", "write": "b", "move": "n"},
                   {"from": "erase", "read": "a", "to": "erase", "write": "_", "move": "r"}]}
        assert _swept(turing.load_machine(doc)) == set()

    def test_several_tapes_sweep_on_their_tracks(self):
        # move keeps itself over ("1", "_"), writing ("_", "1") and moving right
        two_tape = _golden_machine("two_tape")
        assert set(two_tape._compile_sweeps()) == _swept(two_tape) == {"move"}
        cell, (stop, rewrite) = two_tape.by_content, two_tape._compile_sweeps()["move"]
        assert rewrite[cell["1", "_"]] == cell["_", "1"]
        contents = two_tape.contents
        assert sorted(contents[c] for c in range(len(contents)) if stop[c]) == [
            ("_", "1"), ("_", "_"), ("x", "_"), ("x", "x")]

    def test_entering_a_sweep_costs_the_same_whatever_its_set(self):
        # r sweeps right over single (s1, _) cells on a 2-tape machine with
        # 256 contents, so 255 codes end its sweep; one find per code took
        # about 100 us per sweep entered, about 7 s for these 2 * 10**5 steps
        doc = contents_doc(16)
        doc["states"] += ["r", "t"]
        doc["initial"] = "r"
        doc["transitions"] += [
            {"from": "r", "read": ["s1", "_"], "to": "r", "write": ["s1", "_"], "move": "r"},
            {"from": "r", "read": ["s2", "_"], "to": "t", "write": ["s2", "_"], "move": "r"},
            {"from": "t", "read": ["s1", "_"], "to": "r", "write": ["s1", "_"], "move": "n"}]
        machine = turing.load_machine(doc)
        assert len(machine.contents) == turing.ALPHABET_BUDGET
        assert set(machine._compile_sweeps()) == {"r"}
        start = time.perf_counter()
        outcome = turing.run(machine, ["s1", "s2"] * 10**5, fuel=2 * 10**5)
        assert time.perf_counter() - start < 1.0
        assert outcome.kind == "out-of-fuel"
        assert outcome.config.tape_text(0) == "s1s2" * 10**5


class TestAlphabetBudget:
    def _doc(self, size: int) -> dict:
        """A one-rule machine over ``size`` symbols that writes the last one."""
        symbols = ["_"] + [f"s{i}" for i in range(1, size)]
        return {"blank": "_", "alphabet": symbols, "states": ["go", "done"],
                "initial": "go", "finals": ["done"], "transitions": [
                    {"from": "go", "read": "_", "to": "done", "write": symbols[-1],
                     "move": "n"}]}

    def test_at_the_budget_a_machine_loads_and_runs(self):
        assert turing.ALPHABET_BUDGET == 256
        machine = turing.load_machine(self._doc(256))
        outcome = turing.run(machine, fuel=5)
        assert outcome.kind == "halted" and outcome.config.tape_text() == "s255"

    def test_past_the_budget_the_machine_is_refused(self):
        with pytest.raises(ResourceError, match="budget of 256"):
            turing.load_machine(self._doc(257))


class TestContentBudget:
    def test_at_the_budget_a_machine_loads_and_runs(self):
        machine = turing.load_machine(contents_doc(16))
        assert len(machine.contents) == turing.ALPHABET_BUDGET
        outcome = turing.run(machine, fuel=1000)
        assert outcome.kind == "halted"
        assert [outcome.config.tape_text(k) for k in range(2)] == ["s15", "s15"]

    def test_past_the_budget_the_machine_is_refused(self):
        with pytest.raises(ResourceError, match="257 contents of a cell are past the budget"):
            turing.load_machine(contents_doc(17))


class TestTapeBudget:
    def _doc(self, tapes: int) -> dict:
        """A one-rule machine on ``tapes`` tapes that marks every tape once."""
        return {"blank": "_", "alphabet": ["_", "1"], "states": ["go", "done"],
                "initial": "go", "finals": ["done"], "tapes": tapes, "transitions": [
                    {"from": "go", "read": ["_"] * tapes, "to": "done", "write": ["1"] * tapes,
                     "move": "n"}]}

    def test_at_the_budget_a_machine_loads_and_runs(self):
        assert turing.TAPE_BUDGET == 256
        outcome = turing.run(turing.load_machine(self._doc(256)), fuel=5)
        assert outcome.kind == "halted"
        assert [outcome.config.tape_text(k) for k in range(256)] == ["1"] * 256

    def test_past_the_budget_the_machine_is_refused(self):
        with pytest.raises(ResourceError, match="budget of 256"):
            turing.load_machine(self._doc(257))

    def test_a_traced_run_keeps_cells_not_the_text_of_every_tape(self):
        # 256 tapes, only tape 0 written: a text per tape and snapshot took
        # about 65 s to reach the cap, one copy of the cells 0.2 s
        blanks = ["_"] * 255
        machine = turing.load_machine({
            "blank": "_", "alphabet": ["_", "1"], "states": ["go"], "initial": "go",
            "finals": [], "tapes": 256, "transitions": [
                {"from": "go", "read": ["_"] + blanks, "to": "go", "write": ["1"] + blanks,
                 "move": "r"}]})
        start = time.perf_counter()
        outcome = turing.run(machine, fuel=12_000, trace=True)
        assert time.perf_counter() - start < 1.0
        assert len(outcome.trace) == turing.TRACE_CAP
        last = outcome.trace[-1]
        assert (last.tape_text(0), last.tape_text(255)) == ("1" * last.steps, "")


class TestFuelBudget:
    def test_run_past_the_budget_is_refused_before_stepping(self, self_loop):
        with pytest.raises(ResourceError, match="budget"):
            turing.run(self_loop, fuel=turing.FUEL_BUDGET + 1)

    def test_run_at_the_budget_is_accepted(self, successor):
        outcome = turing.run(successor, "11", fuel=turing.FUEL_BUDGET)
        assert outcome.kind == "halted"


def _successor_writing(mark: str) -> turing.TuringMachine:
    """The successor machine with ``mark`` as the symbol it appends; its input mark is "1"."""
    doc = successor_doc()
    doc["alphabet"].append(mark)
    doc["transitions"][1]["write"] = mark
    return turing.load_machine(doc)


class TestTapeTextBudget:
    """(extent + fuel) x the longest symbol bounds the tape text, checked before stepping."""

    def test_long_symbols_at_the_fuel_budget_are_refused(self):
        machine = _successor_writing("m" * 20)
        with pytest.raises(ResourceError, match="budget"):
            turing.run(machine, "", fuel=turing.FUEL_BUDGET)
        assert turing.run(machine, "", fuel=turing.FUEL_BUDGET // 20).kind == "halted"

    def test_budget_is_inclusive(self):
        length = turing.TAPE_TEXT_BUDGET // turing.FUEL_BUDGET
        assert length * turing.FUEL_BUDGET == turing.TAPE_TEXT_BUDGET
        machine = _successor_writing("m" * length)
        # an empty tape and 10**7 steps of fuel: exactly the budget
        outcome = turing.run(machine, "", fuel=turing.FUEL_BUDGET)
        assert outcome.kind == "halted" and outcome.config.tape_text() == "m" * length
        # blank input cells are no part of the extent: still exactly the budget
        outcome = turing.run(machine, "_" * 3, fuel=turing.FUEL_BUDGET)
        assert outcome.kind == "halted" and outcome.config.tape_text() == "m" * length
        # one input cell more is past it
        with pytest.raises(ResourceError, match="budget"):
            turing.run(machine, "1", fuel=turing.FUEL_BUDGET)

    def test_every_tape_counts(self):
        doc = {"blank": "_", "alphabet": ["_", "1", "m" * 3], "states": ["s", "h"],
               "initial": "s", "finals": ["h"], "tapes": 2,
               "transitions": [{"from": "s", "read": ["_", "_"], "to": "h",
                                "write": ["1", "1"], "move": "n"}]}
        machine = turing.load_machine(doc)
        # two tapes of 10**7 cells each at 3 characters: 6 * 10**7
        with pytest.raises(ResourceError, match="budget"):
            turing.run(machine, "", fuel=turing.FUEL_BUDGET)
        assert turing.run(machine, "", fuel=turing.FUEL_BUDGET // 2).kind == "halted"

    def test_multichar_document_is_accepted_at_the_fuel_budget(self):
        path = Path(__file__).parent / "golden" / "multichar.json"
        machine = turing.load_machine(json.loads(path.read_text()))
        outcome = turing.run(machine, "abba", fuel=turing.FUEL_BUDGET)
        assert outcome.kind == "halted"


class TestTraceTextBudget:
    def test_budget_is_inclusive_and_counts_every_row(self, successor, monkeypatch):
        def rows(outcome):
            return [(c.state, c.head, c.steps, c.tape_text()) for c in outcome.trace]

        full = turing.run(successor, "1" * 50, fuel=10**6, trace=True)
        kept = sum(len(row.tape_text()) for row in full.trace)
        monkeypatch.setattr(turing, "TRACE_TEXT_BUDGET", kept)
        assert rows(turing.run(successor, "1" * 50, fuel=10**6, trace=True)) == rows(full)
        monkeypatch.setattr(turing, "TRACE_TEXT_BUDGET", kept - 1)
        with pytest.raises(ResourceError, match="budget"):
            turing.run(successor, "1" * 50, fuel=10**6, trace=True)

    def test_untraced_runs_keep_no_text(self, successor, monkeypatch):
        monkeypatch.setattr(turing, "TRACE_TEXT_BUDGET", 0)
        assert turing.run(successor, "1" * 50, fuel=10**6).kind == "halted"
