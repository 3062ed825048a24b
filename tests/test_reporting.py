import io
import json
from fractions import Fraction

import pytest

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
