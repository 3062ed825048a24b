"""Deterministic report emission.

Reports must be byte-reproducible: fields keep their insertion order, floats
are printed with 17 significant digits, and no locale or hash randomisation
can leak in. Both writers pick a formatter by a value's exact type from a
table: JSON refuses every other type, subclasses of the table's types and
numpy's scalars among them, and CSV prints it through ``str``. An exact
fraction reaches a report as its text, made by ``format_fraction`` where the
value is made, so this module never imports ``fractions``. It loads
``decimal`` only for an integer past the interpreter's digit limit, and
``json`` only for a string that JSON escapes (printable ASCII without a quote
or a backslash is written as it is). A report is one record or one ``Table``
of columns. CSV flattens a record's nested keys with dots into one row, and
prints a table as its header and one line per row, a block of rows with one
``%`` template. Exact integers and fractions are printed in full.
"""

from __future__ import annotations

import math
import operator
from typing import IO, TYPE_CHECKING, Any

from .errors import DomainError

if TYPE_CHECKING:
    import decimal


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
    import decimal  # only integers past the digit limit need it

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


def format_fraction(p: int, q: int) -> str:
    """p / q in lowest terms as the text "p/q", every digit printed; q > 0."""
    g = math.gcd(p, q)
    return f"{format_int(p // g)}/{format_int(q // g)}"


_PLAIN_BYTES = bytes(range(0x20, 0x7F)).translate(None, b'"\\')


def _plain(s: str) -> bool:
    """Whether JSON prints s as it is between quotes: printable ASCII, no quote
    and no backslash (``isascii`` reads a flag; one translate scans the text)."""
    return s.isascii() and not s.encode("ascii").translate(None, _PLAIN_BYTES)


def _json_str(s: str) -> str:
    if _plain(s):
        return '"' + s + '"'
    from json.encoder import encode_basestring_ascii  # only a string that needs escaping

    return encode_basestring_ascii(s)


def _json_dict(value: dict) -> str:
    writers = _JSON_WRITERS
    return "{" + ",".join([_json_str(str(k)) + ":"
                           + writers.get(type(v), _json_other)(v)
                           for k, v in value.items()]) + "}"


def _json_list(value: list | tuple) -> str:
    writers = _JSON_WRITERS
    return "[" + ",".join([writers.get(type(v), _json_other)(v) for v in value]) + "]"


def _json_other(value: Any) -> str:
    raise DomainError(f"cannot serialise {type(value).__name__} into a report")


_JSON_WRITERS = {
    dict: _json_dict,
    list: _json_list,
    tuple: _json_list,
    str: _json_str,
    int: format_int,
    float: format_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def to_json(value: Any) -> str:
    return _JSON_WRITERS.get(type(value), _json_other)(value)


_CSV_WRITERS = {
    str: str,
    int: format_int,
    float: format_float,
    bool: str,
    type(None): lambda _: "",
}


def _csv_cell(value: Any) -> str:
    return _CSV_WRITERS.get(type(value), str)(value)


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
    """Names and one sized sequence of cells per column, a cell a row: JSON
    prints the records ``[dict(zip(names, row)) for row in zip(*columns)]``."""

    __slots__ = ("names", "columns")

    def __init__(self, names, columns):
        self.names, self.columns = tuple(names), tuple(columns)
        if len(self.columns) != len(self.names) or len(set(map(len, self.columns))) > 1:
            raise DomainError(f"every row of a table must have {len(self.names)} cells")

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0


# rows made into text at a time: one block's cell texts are live at once, and
# a report keeps a table's text in its blocks, never in a second whole copy
_BLOCK_ROWS = 4096
_SHORT_INT = 10**640  # an int shorter than this prints under any digit limit


def _block_column(cells, json: bool) -> tuple[str, Any]:
    """A block's column as a % directive and its values: a plain type that
    needs no check per cell as it is, any other through its per-cell writer."""
    kind = type(cells[0]) if len(set(map(type, cells))) == 1 else None
    if kind is int and -_SHORT_INT < min(cells) and max(cells) < _SHORT_INT:
        return "%d", cells
    if kind is float and math.isfinite(sum(cells)):  # else format_float finds the culprit
        return "%.17g", cells
    if kind is str:
        text = "".join(cells)  # a cell needs escaping or quoting only if the block's text does
        if _plain(text) if json else _quote(text) is text:
            return '"%s"' if json else "%s", cells
    if json:
        return "%s", list(map(_JSON_WRITERS.get(kind, to_json), cells))
    return "%s", list(map(_quote if kind is str else _CSV_WRITERS.get(kind, _csv_field), cells))


def _table_pieces(table: Table, json: bool) -> list[str]:
    """A table's report text, a block of rows at a time."""
    rows, width = len(table), len(table.names)
    keys = [_json_str(str(k)).replace("%", "%%") + ":" for k in table.names]
    pieces = []
    for start in range(0, rows, _BLOCK_ROWS):
        size = min(_BLOCK_ROWS, rows - start)
        directives, values = zip(*[_block_column(column[start:start + size], json)
                                   for column in table.columns])
        cells = [None] * (size * width)  # the block's values, row by row
        for i, column in enumerate(values):
            cells[i::width] = column
        row = ("{" + ",".join(map(operator.add, keys, directives)) + "},") if json \
            else ",".join(directives) + "\n"
        pieces.append(row * size % tuple(cells))
    if json:  # no comma after the last row
        return ["[", *pieces[:-1], *[last[:-1] for last in pieces[-1:]], "]"]
    return [",".join(map(str, table.names)) + "\n", *pieces] if rows else ["\n"]


def to_csv(report: dict) -> str:
    """One record as a header and one row."""
    flat = _flatten(report)
    return ",".join(flat) + "\n" + ",".join(flat.values()) + "\n"


def report_pieces(result: dict | Table, fmt: str) -> list[str]:
    """The report text of one record or one table, in pieces that join to
    it: a table's text stays in its blocks of rows."""
    table = isinstance(result, Table)
    if fmt == "json":
        return _table_pieces(result, True) + ["\n"] if table else [to_json(result) + "\n"]
    if fmt == "csv":
        return _table_pieces(result, False) if table else [to_csv(result)]
    raise DomainError(f"unknown report format {fmt!r}")


def emit_report(result: dict | Table, fmt: str, dest: IO[str]) -> int:
    """Write the report to dest once all its text is made; return bytes written."""
    pieces = report_pieces(result, fmt)
    dest.writelines(pieces)
    return sum(len(p) if p.isascii() else len(p.encode("utf-8")) for p in pieces)
