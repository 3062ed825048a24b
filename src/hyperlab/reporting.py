"""Deterministic report emission.

Reports must be byte-reproducible: fields keep their insertion order, floats
are printed with 17 significant digits, and no locale or hash randomisation
can leak in. Both writers pick a formatter by a value's exact type from a
table, else by its nearest base class in the same table. Any other integral
type, such as numpy's integers, prints as the int it stands for; JSON refuses
every remaining type and CSV prints it through ``str``. CSV flattens nested
keys with dots, one record per row. Exact integers and fractions are printed
in full however many digits they have.
"""

from __future__ import annotations

import decimal
import math
import numbers
import operator
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import IO, Any

from .errors import DomainError


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise DomainError(f"reports must contain finite numbers, got {x!r}")
    return f"{x:.17g}"


def format_int(n: int) -> str:
    """Every digit of n, also past the interpreter's int-to-str digit limit.

    Decimal's conversion is exempt from that limit, so the limit stays as it
    is for everyone else in the process.
    """
    try:
        return str(n)
    except ValueError:
        return format(_to_decimal(n), "f")


_SPLIT_BITS = 128  # below this many bits Decimal converts an int directly


def _to_decimal(n: int) -> decimal.Decimal:
    """n as an exact Decimal, by divide and conquer.

    Decimal(n) is quadratic in the digits. Splitting n at half its bit length
    as hi * 2**w + lo and joining the converted halves in exact decimal
    arithmetic costs about as much as the last multiplication, and the powers
    2**w are cached, since every level of the split reuses a few of them.
    This is the algorithm of CPython 3.12's ``_pylong.int_to_decimal_string``.
    """
    powers: dict[int, decimal.Decimal] = {}

    def power(w: int) -> decimal.Decimal:
        value = powers.get(w)
        if value is None:
            if w <= _SPLIT_BITS:
                value = decimal.Decimal(1 << w)
            elif w - 1 in powers:
                value = powers[w - 1] * 2
            else:
                value = power(w >> 1) * power(w - (w >> 1))
            powers[w] = value
        return value

    def convert(m: int, w: int) -> decimal.Decimal:
        if w <= _SPLIT_BITS:
            return decimal.Decimal(m)
        half = w >> 1
        hi = m >> half
        return convert(m - (hi << half), half) + convert(hi, w - half) * power(half)

    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                            Emin=decimal.MIN_EMIN, traps=[decimal.Inexact])
    with decimal.localcontext(exact):
        value = convert(abs(n), n.bit_length())
        return -value if n < 0 else value


def format_fraction(q: Fraction) -> str:
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        return f"{format_int(q.numerator)}/{format_int(q.denominator)}"


def _format_integral(value: numbers.Integral) -> str:
    return format_int(operator.index(value))


def _writer(writers: dict, value: Any):
    """The writer of value's type or of its nearest base class, else the
    integer writer for an integral value, or None."""
    for cls in type(value).__mro__:
        write = writers.get(cls)
        if write is not None:
            return write
    return _format_integral if isinstance(value, numbers.Integral) else None


def _json_dict(value: dict) -> str:
    writers = _JSON_WRITERS
    return "{" + ",".join([encode_basestring_ascii(str(k)) + ":"
                           + writers.get(type(v), _json_other)(v)
                           for k, v in value.items()]) + "}"


def _json_list(value: list | tuple) -> str:
    writers = _JSON_WRITERS
    return "[" + ",".join([writers.get(type(v), _json_other)(v) for v in value]) + "]"


def _json_other(value: Any) -> str:
    write = _writer(_JSON_WRITERS, value)
    if write is None:
        raise DomainError(f"cannot serialise {type(value).__name__} into a report")
    return write(value)


_JSON_WRITERS = {
    dict: _json_dict,
    list: _json_list,
    tuple: _json_list,
    str: encode_basestring_ascii,
    int: format_int,
    float: format_float,
    Fraction: lambda q: '"' + format_fraction(q) + '"',
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def to_json(value: Any) -> str:
    return _JSON_WRITERS.get(type(value), _json_other)(value)


_CSV_WRITERS = {
    str: str,
    int: format_int,
    float: format_float,
    Fraction: format_fraction,
    bool: str,
    type(None): lambda _: "",
}


def _csv_cell(value: Any) -> str:
    return (_writer(_CSV_WRITERS, value) or str)(value)


def _quote(cell: str) -> str:
    if "," in cell or '"' in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _flatten(record: dict, prefix: str = "") -> dict[str, str]:
    """Quoted cell text by dotted column name; lists join with semicolons."""
    flat: dict[str, str] = {}
    writers = _CSV_WRITERS
    for key, value in record.items():
        name = f"{prefix}{key}"
        write = writers.get(type(value))
        if write is not None:
            flat[name] = _quote(write(value))
        elif isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{name}."))
        elif isinstance(value, (list, tuple)):
            flat[name] = _quote(";".join([_csv_cell(v) for v in value]))
        else:
            flat[name] = _quote(_csv_cell(value))
    return flat


def _columns(record: dict, prefix: str = ""):
    """The column names _flatten gives record, in the same order."""
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _columns(value, prefix=f"{name}.")
        else:
            yield name


def to_csv(records: list[dict]) -> str:
    """Header first, then one row per record; a row's cells live only while
    its line is made, so the text is the only copy of the report."""
    if not records:
        return "\n"
    header = list(dict.fromkeys(key for record in records for key in _columns(record)))
    lines = [",".join(header)]
    for record in records:
        flat = _flatten(record)
        lines.append(",".join([flat.get(key, "") for key in header]))
    return "\n".join(lines) + "\n"


def render_report(result: dict | list, fmt: str) -> str:
    """The report text of one record (or a list of records)."""
    if fmt == "json":
        return to_json(result) + "\n"
    if fmt == "csv":
        return to_csv(result if isinstance(result, list) else [result])
    raise DomainError(f"unknown report format {fmt!r}")


def emit_report(result: dict | list, fmt: str, dest: IO[str]) -> int:
    """Write the report to dest once its text is whole; return bytes written."""
    text = render_report(result, fmt)
    dest.write(text)
    return len(text) if text.isascii() else len(text.encode("utf-8"))
