"""Deterministic report emission.

Reports must be byte-reproducible: fields keep their insertion order, floats
are printed with 17 significant digits, and no locale or hash randomisation
can leak in. Both writers pick a formatter by a value's exact type from a
table, else by its nearest base class in the same table. Any other integral
type, such as numpy's integers, prints as the int it stands for; JSON refuses
every remaining type and CSV prints it through ``str``. A report is one
record or one ``Table`` of rows. CSV flattens a record's nested keys with
dots into one row, and prints a table as its header and one line per row;
a table picks one writer per column, not per cell. Exact integers and
fractions are printed in full however many digits they have.
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
    if "," in cell or '"' in cell or "\n" in cell or "\r" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _csv_field(value: Any) -> str:
    """Quoted cell text of one value that is not a record; lists join with
    semicolons."""
    if isinstance(value, (list, tuple)):
        return _quote(";".join([_csv_cell(v) for v in value]))
    return _quote(_csv_cell(value))


def _flatten(record: dict, prefix: str = "") -> dict[str, str]:
    """Quoted cell text by dotted column name."""
    flat: dict[str, str] = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{name}."))
        else:
            flat[name] = _csv_field(value)
    return flat


class Table:
    """A multi-row report: column names and a sized sequence of row tuples,
    one cell per column. It reads as the list of records
    ``[dict(zip(columns, row)) for row in rows]``: JSON prints exactly that
    list, CSV a header and then one line per row. Cells are not records."""

    __slots__ = ("columns", "rows")

    def __init__(self, columns, rows):
        self.columns = tuple(columns)
        self.rows = rows


# rows made into text at a time: one block's cell texts are live at once, and
# a report keeps a table's text in its blocks, never in a second whole copy
_BLOCK_ROWS = 4096


def _table_blocks(table: Table, column_text, line_text, sep: str) -> list[str]:
    """The text of table's rows, a block of rows at a time, with sep between
    the blocks: column_text makes a block's cells a column at a time, picking
    its writer once per column, line_text makes one row's line from its cell
    texts, and sep joins the lines of a block."""
    rows = table.rows
    width = len(table.columns)
    if any(len(row) != width for row in rows):
        raise DomainError(f"every row of a table must have {width} cells")
    pieces = []
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        columns = [column_text(column) for column in zip(*block)]
        cells = zip(*columns) if width else [()] * len(block)
        pieces += [sep.join(map(line_text, cells)), sep]
    return pieces[:-1]


def _one_type(cells: tuple):
    kinds = set(map(type, cells))
    return kinds.pop() if len(kinds) == 1 else None


def _json_column(cells: tuple) -> list[str]:
    return list(map(_JSON_WRITERS.get(_one_type(cells), to_json), cells))


def _csv_column(cells: tuple) -> list[str]:
    kind = _one_type(cells)
    if kind in (int, float, Fraction, bool, type(None)):  # texts that never need quotes
        return list(map(_CSV_WRITERS[kind], cells))
    return list(map(_quote if kind is str else _csv_field, cells))


def _json_table(table: Table) -> list[str]:
    row = "{" + ",".join([encode_basestring_ascii(str(k)).replace("%", "%%") + ":%s"
                          for k in table.columns]) + "}"
    return ["[", *_table_blocks(table, _json_column, row.__mod__, ","), "]"]


def _csv_table(table: Table) -> list[str]:
    if not table.rows:
        return ["\n"]
    header = ",".join(map(str, table.columns)) + "\n"
    return [header, *_table_blocks(table, _csv_column, ",".join, "\n"), "\n"]


_JSON_WRITERS[Table] = lambda table: "".join(_json_table(table))


def to_csv(report: dict | Table) -> str:
    """One record as a header and one row, or a table as its header and rows."""
    if isinstance(report, Table):
        return "".join(_csv_table(report))
    flat = _flatten(report)
    return ",".join(flat) + "\n" + ",".join(flat.values()) + "\n"


def _report_pieces(result: dict | Table, fmt: str) -> list[str]:
    """The report text of one record or one table, in pieces that join to
    it: a table's text stays in its blocks of rows."""
    table = isinstance(result, Table)
    if fmt == "json":
        return _json_table(result) + ["\n"] if table else [to_json(result) + "\n"]
    if fmt == "csv":
        return _csv_table(result) if table else [to_csv(result)]
    raise DomainError(f"unknown report format {fmt!r}")


def render_report(result: dict | Table, fmt: str) -> str:
    """The report text of one record or one table."""
    return "".join(_report_pieces(result, fmt))


def emit_report(result: dict | Table, fmt: str, dest: IO[str]) -> int:
    """Write the report to dest once all its text is made; return bytes written."""
    pieces = _report_pieces(result, fmt)
    dest.writelines(pieces)
    return sum(len(p) if p.isascii() else len(p.encode("utf-8")) for p in pieces)
