import csv
import io
import json
import sys
from collections import OrderedDict
from enum import IntEnum
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperlab import pairing, reporting
from hyperlab.errors import DomainError


class TestJson:
    def test_roundtrips_through_a_parser(self):
        record = {"a": 1, "b": [1.5, "x"], "c": {"d": None, "e": True}}
        text = reporting.to_json(record)
        assert json.loads(text) == record

    def test_field_order_is_insertion_order(self):
        assert reporting.to_json({"z": 1, "a": 2}) == '{"z":1,"a":2}'

    def test_seventeen_significant_digits(self):
        assert reporting.format_float(0.1) == "0.10000000000000001"
        assert reporting.format_float(1.875) == "1.875"

    def test_fractions_become_exact_strings(self):
        assert reporting.format_fraction(15, 8) == "15/8"
        assert reporting.format_fraction(-30, 16) == "-15/8"
        assert reporting.format_fraction(0, 7) == "0/1"
        assert reporting.format_fraction(2**70, 2**68) == "4/1"

    def test_integers_past_the_digit_limit_print_in_full(self):
        big = 10**5000 + 7
        text = reporting.to_json({"n": big, "q": reporting.format_fraction(3, 3 * big)})
        assert text == '{"n":1' + "0" * 4999 + '7,"q":"1/1' + "0" * 4999 + '7"}'
        table = reporting.Table(["n"], [[-big]])
        assert emitted(table, "csv").splitlines()[1] == "-1" + "0" * 4999 + "7"

    @settings(max_examples=60, deadline=None)
    @given(n=st.one_of(
        st.binary(min_size=1, max_size=9000).map(lambda b: int.from_bytes(b, "big")),
        st.integers(4290, 20000).map(lambda k: 10**k - 1),
        st.integers(4290, 20000).map(lambda k: 10**k),
        st.integers(14270, 70000).map(lambda k: 2**k),
    ), negative=st.booleans())
    @example(n=2**(10**5 + 1) - 1, negative=False)
    def test_format_int_agrees_with_str_at_every_size(self, n, negative):
        n = -n if negative else n
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = str(n)
        finally:
            sys.set_int_max_str_digits(limit)
        assert reporting.format_int(n) == expected

    @settings(max_examples=300)
    @given(text=st.text() | st.text(st.characters(max_codepoint=127)))
    @example(text="")
    @example(text=' ~"\\\x7f\x1f/')
    def test_strings_print_as_the_json_module_prints_them(self, text):
        # printable ASCII without a quote or a backslash is written as it is,
        # everything else through the json module's escaping
        assert reporting.to_json(text) == json.dumps(text)
        assert reporting.to_json({text: [text]}) == json.dumps({text: [text]}, separators=",:")
        plain = bytes(set(range(32, 127)) - set(b'"\\'))
        assert reporting._plain(text) == (
            text.isascii() and not text.encode().translate(None, plain))

    @staticmethod
    def _printable_ascii(text: str) -> bool:
        """_plain's predicate through str.isprintable, as it was first written."""
        return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text

    def test_plain_agrees_on_every_ascii_character(self):
        for c in map(chr, range(0x100)):  # and the Latin-1 characters past ASCII
            for text in (c, "a" + c + "b", c * 3):
                assert reporting._plain(text) == self._printable_ascii(text), ascii(text)

    @settings(max_examples=300)
    @given(text=st.text() | st.text(st.characters(max_codepoint=127)))
    def test_plain_agrees_on_any_text(self, text):
        assert reporting._plain(text) == self._printable_ascii(text)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            reporting.format_float(float("inf"))

    def test_emission_is_deterministic(self):
        record = {"x": 0.30000000000000004, "y": [1, 2, {"z": -0.0}]}
        a, b = io.StringIO(), io.StringIO()
        na = reporting.emit_report(record, "json", a)
        nb = reporting.emit_report(record, "json", b)
        assert a.getvalue() == b.getvalue()
        assert na == nb == len(a.getvalue().encode())


class _Level(IntEnum):
    LOW = 1


class _Text(str):
    pass


class TestTypeTable:
    """Each writer takes a value's exact type from its table. JSON refuses any
    other type, subclasses of the table's types among them, and CSV prints it
    through str."""

    @pytest.mark.parametrize("value, text", [
        (True, "true"), (False, "false"), (None, "null"), (3, "3"), (-0.0, "-0"),
        ("é", '"\\u00e9"'),
        ((1, (2,)), "[1,[2]]"),
    ], ids=repr)
    def test_json(self, value, text):
        assert reporting.to_json(value) == text

    @pytest.mark.parametrize("value", [np.bool_(True), np.int64(3), {1, 2}, b"x", complex(1, 1)], ids=repr)
    def test_json_rejects_what_it_always_rejected(self, value):
        with pytest.raises(DomainError, match="cannot serialise"):
            reporting.to_json({"x": value})

    @pytest.mark.parametrize("value", [
        _Level.LOW, np.float64(0.1), _Text('say "hi"'), OrderedDict([("b", 1), ("a", [2])]),
        Fraction(15, 8), reporting.Table(["a"], [[1]]),
    ], ids=repr)
    def test_json_refuses_subclasses_and_fractions(self, value):
        with pytest.raises(DomainError, match="cannot serialise"):
            reporting.to_json({"x": value})

    @pytest.mark.parametrize("value, cell", [
        (True, "True"), (None, ""), (_Level.LOW, str(_Level.LOW)),
        (np.float64(0.5), "0.5"), (np.int64(3), "3"),
        (np.uint64(2**64 - 1), "18446744073709551615"), (np.bool_(True), "True"),
        (Fraction(-3, 4), "-3/4"),
        ({"a": 1}, "{'a': 1}"),
    ], ids=repr)
    def test_csv_cells(self, value, cell):
        assert reporting._csv_cell(value) == cell

    def test_keys_equal_across_types_are_encoded_apart(self):
        assert reporting.to_json({1: "a"}) == '{"1":"a"}'
        assert reporting.to_json({True: "b"}) == '{"True":"b"}'
        assert reporting.to_json({1.0: "c"}) == '{"1.0":"c"}'

    def test_byte_count_of_non_ascii_text(self):
        out = io.StringIO()
        written = reporting.emit_report({"s": "é,ü"}, "csv", out)
        assert out.getvalue() == 's\n"é,ü"\n'
        assert written == len(out.getvalue().encode("utf-8")) == len(out.getvalue()) + 2


class TestCsv:
    def test_flattens_nested_keys(self):
        out = io.StringIO()
        reporting.emit_report({"a": 1, "b": {"c": 2.5}}, "csv", out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "a,b.c"
        assert lines[1] == "1,2.5"

    def test_one_row_per_record(self):
        out = io.StringIO()
        reporting.emit_report(reporting.Table(["a"], [[1, 2]]), "csv", out)
        assert out.getvalue().splitlines() == ["a", "1", "2"]

    def test_lists_join_with_semicolons(self):
        out = io.StringIO()
        reporting.emit_report({"xs": [1, 2, 3]}, "csv", out)
        assert out.getvalue().splitlines()[1] == "1;2;3"

    def test_quoting(self):
        out = io.StringIO()
        reporting.emit_report({"msg": 'a,"b"'}, "csv", out)
        assert out.getvalue().splitlines()[1] == '"a,""b"""'

    @pytest.mark.parametrize("text", ["h\rx", "a\r\nb", "\r"])
    def test_carriage_returns_are_quoted(self, text):
        out = io.StringIO()
        reporting.emit_report({"state": text, "n": 1}, "csv", out)
        assert list(csv.reader(io.StringIO(out.getvalue(), newline=""))) == \
            [["state", "n"], [text, "1"]]

    def test_unknown_format_rejected(self):
        with pytest.raises(DomainError):
            reporting.emit_report({}, "xml", io.StringIO())


def emitted(report, fmt: str) -> str:
    out = io.StringIO()
    reporting.emit_report(report, fmt, out)
    return out.getvalue()


def reference_json(records: list[dict]) -> str:
    return reporting.to_json(records) + "\n"


def reference_csv(records: list[dict]) -> str:
    """A list of flat records as CSV, the header the union of their keys: the
    writer tables replaced."""
    if not records:
        return "\n"
    header = list(dict.fromkeys(key for record in records for key in record))
    lines = [",".join(header)]
    for record in records:
        flat = reporting._flatten(record)
        lines.append(",".join([flat.get(key, "") for key in header]))
    return "\n".join(lines) + "\n"


def first_difference(got: str, want: str):
    """None for equal texts, else a little of each around where they first
    differ: a diff of two reports of many megabytes would take minutes."""
    if got == want:
        return None
    at = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))
    return at, got[at - 60:at + 60], want[at - 60:at + 60]


def as_records(columns, rows) -> list[dict]:
    return [dict(zip(columns, row)) for row in rows]


def enum_records(n: int) -> list[dict]:
    """Enumerated entries as the report printed them from one dict each,
    decoded index by index."""
    records = []
    for index in range(n):
        a, b = pairing.pair_decode(index)
        exact = Fraction(a, 10**b)
        records.append({"index": index, "a": a, "b": b, "value": float(exact),
                        "value_exact": f"{exact.numerator}/{exact.denominator}",
                        "canonical": pairing.is_canonical_pair(a, b)})
    return records


SCALARS = [
    st.integers(-10**30, 10**30), st.floats(allow_nan=False, allow_infinity=False),
    st.text(alphabet=st.sampled_from('ab,"\n\r %é'), max_size=6), st.booleans(), st.none(),
    st.fractions(max_denominator=10**6).map(lambda q: reporting.format_fraction(
        *q.as_integer_ratio())), st.lists(st.integers(0, 9), max_size=3)]


@st.composite
def tables(draw):
    columns = draw(st.lists(st.text(alphabet="xyz.%", min_size=1, max_size=3),
                            max_size=4, unique=True))
    # a column of one type takes that type's writer; a mixed one writes cell by cell
    cells = [draw(st.sampled_from(SCALARS + [st.one_of(SCALARS)])) for _ in columns]
    # a table of no columns has no rows
    return columns, draw(st.lists(st.tuples(*cells), max_size=12 if columns else 0))


class TestTable:
    """A table prints exactly the bytes of its rows as a list of records."""

    @pytest.mark.parametrize("n", [0, 1, 57, 2000, 60000])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_enumeration_is_byte_identical_to_one_record_per_entry(self, n, fmt):
        table = pairing.enumerate_reals(n)
        reference = (reference_json if fmt == "json" else reference_csv)(enum_records(n))
        assert first_difference(emitted(table, fmt), reference) is None

    def test_empty_table_prints_no_header(self):
        table = reporting.Table(pairing.ENTRY_COLUMNS, [()] * len(pairing.ENTRY_COLUMNS))
        assert emitted(table, "json") == "[]\n"
        assert emitted(table, "csv") == "\n"

    def test_enumeration_reaches_subnormal_and_zero_float_views(self):
        rows = list(zip(*pairing.enumerate_reals(60000).columns))
        assert any(0 < row[3] < 2.2250738585072014e-308 for row in rows)
        assert any(row[3] == 0 and row[1] for row in rows)

    @settings(max_examples=150, deadline=None)
    @given(table=tables())
    def test_any_table_matches_its_records(self, table):
        columns, rows = table
        records = as_records(columns, rows)
        table = reporting.Table(columns, zip(*rows) if rows else [()] * len(columns))
        assert emitted(table, "json") == reference_json(records)
        assert emitted(table, "csv") == reference_csv(records)

    def test_a_column_that_changes_type_between_blocks(self):
        rows = [(i, 0.5 if i < 5000 else None, "x" if i % 2 else 7) for i in range(9000)]
        records = as_records(["i", "v", "s"], rows)
        table = reporting.Table(["i", "v", "s"], zip(*rows))
        assert emitted(table, "json") == reference_json(records)
        assert emitted(table, "csv") == reference_csv(records)

    def test_blocks_that_mix_long_integers_signed_zeros_and_text_to_escape(self):
        # which cells a block can print without a per-cell writer changes
        # from block to block: the second holds integers past the digit limit
        # and one quote, the third every kind of text that JSON escapes or
        # CSV quotes
        block = reporting._BLOCK_ROWS
        texts = ['say "hi"', "back\\slash", "bell\x07", "del\x7f", "caf\u00e9", "a,b",
                 "cr\rlf\n", "%d%s"]
        rows = []
        for i in range(3 * block + 5):
            n = 10**5000 + i if i // block == 1 and i % 1000 == 7 else (-1) ** i * i
            x = -0.0 if i % 3 == 0 else (-1) ** i * i / 7
            s = texts[i % len(texts)] if i // block == 2 and i % 97 == 0 else f"t{i}"
            rows.append((n, x, 'q"' if i == block + 50 else s, i % 2 == 0))
        columns = ["n", "x%", "s", "flag"]
        records = as_records(columns, rows)
        assert emitted(reporting.Table(columns, zip(*rows)), "json") == reference_json(records)
        assert emitted(reporting.Table(columns, zip(*rows)), "csv") == reference_csv(records)

    def test_cells_the_writers_refuse(self):
        with pytest.raises(DomainError, match="finite"):
            emitted(reporting.Table(["x"], [[1.0, float("nan")]]), "json")
        with pytest.raises(DomainError, match="finite"):
            emitted(reporting.Table(["x"], [[float("-inf")]]), "csv")
        with pytest.raises(DomainError, match="cannot serialise"):
            emitted(reporting.Table(["x"], [[{1, 2}]]), "json")

    def test_every_row_has_one_cell_per_column(self):
        # the rows (1, 2), (3,) and the one row (1, 2, 3), a column at a time
        for columns in ([(1, 3), (2,)], [(1,), (2,), (3,)]):
            with pytest.raises(DomainError, match="2 cells"):
                reporting.Table(["a", "b"], columns)

    def test_long_integers_in_a_column(self):
        big = 10**5000 + 7
        table = reporting.Table(["n", "q"], [(big, 1), (reporting.format_fraction(1, big),
                                                        reporting.format_fraction(1, 2))])
        records = as_records(["n", "q"], zip(*table.columns))
        assert emitted(table, "json") == reference_json(records)
        assert emitted(table, "csv") == reference_csv(records)
