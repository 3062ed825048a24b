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

from hyperlab import reporting
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
        assert reporting.to_json(Fraction(15, 8)) == '"15/8"'

    def test_integers_past_the_digit_limit_print_in_full(self):
        big = 10**5000 + 7
        text = reporting.to_json({"n": big, "q": Fraction(1, big)})
        assert text == '{"n":1' + "0" * 4999 + '7,"q":"1/1' + "0" * 4999 + '7"}'
        assert reporting.to_csv([{"n": -big}]).splitlines()[1] == "-1" + "0" * 4999 + "7"

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
    """Exact types take the table; subclasses and unknown types keep the
    isinstance rules, so each line below prints as it always did, except that
    JSON prints numpy integers, through format_int as CSV does."""

    @pytest.mark.parametrize("value, text", [
        (True, "true"), (False, "false"), (None, "null"), (3, "3"), (-0.0, "-0"),
        (_Level.LOW, reporting.format_int(_Level.LOW)),
        (np.float64(0.1), "0.10000000000000001"),
        (np.int64(3), "3"), (np.uint64(2**64 - 1), "18446744073709551615"),
        (_Text('say "hi"'), '"say \\"hi\\""'),
        ("é", '"\\u00e9"'),
        (OrderedDict([("b", 1), ("a", [2])]), '{"b":1,"a":[2]}'),
        ((1, (2,)), "[1,[2]]"),
    ], ids=repr)
    def test_json(self, value, text):
        assert reporting.to_json(value) == text

    @pytest.mark.parametrize("value", [np.bool_(True), {1, 2}, b"x", complex(1, 1)], ids=repr)
    def test_json_rejects_what_it_always_rejected(self, value):
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
        reporting.emit_report([{"a": 1}, {"a": 2}], "csv", out)
        assert out.getvalue().splitlines() == ["a", "1", "2"]

    def test_lists_join_with_semicolons(self):
        out = io.StringIO()
        reporting.emit_report({"xs": [1, 2, 3]}, "csv", out)
        assert out.getvalue().splitlines()[1] == "1;2;3"

    def test_quoting(self):
        out = io.StringIO()
        reporting.emit_report({"msg": 'a,"b"'}, "csv", out)
        assert out.getvalue().splitlines()[1] == '"a,""b"""'

    def test_unknown_format_rejected(self):
        with pytest.raises(DomainError):
            reporting.emit_report({}, "xml", io.StringIO())
