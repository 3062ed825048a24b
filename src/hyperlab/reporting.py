"""Deterministic report emission.

Reports must be byte-reproducible: fields keep their insertion order, floats
are printed with 17 significant digits, and no locale or hash randomisation
can leak in. The JSON writer below is deliberately tiny rather than clever;
CSV flattens nested keys with dots, one record per row. Exact integers and
fractions are printed in full however many digits they have.
"""

from __future__ import annotations

import decimal
import json
import math
from fractions import Fraction
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
        return format(decimal.Decimal(n), "f")


def format_fraction(q: Fraction) -> str:
    return f"{format_int(q.numerator)}/{format_int(q.denominator)}"


def _scalar(value: Any) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return format_int(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, Fraction):
        return json.dumps(format_fraction(value))
    if isinstance(value, str):
        return json.dumps(value)
    raise DomainError(f"cannot serialise {type(value).__name__} into a report")


def to_json(value: Any) -> str:
    if isinstance(value, dict):
        parts = (f"{json.dumps(str(k))}:{to_json(v)}" for k, v in value.items())
        return "{" + ",".join(parts) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(to_json(v) for v in value) + "]"
    return _scalar(value)


def _flatten(record: dict, prefix: str = "") -> dict[str, Any]:
    flat: dict[str, Any] = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{name}."))
        elif isinstance(value, (list, tuple)):
            flat[name] = ";".join(_csv_cell(v) for v in value)
        else:
            flat[name] = value
    return flat


def _csv_cell(value: Any) -> str:
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, Fraction):
        return format_fraction(value)
    if value is None:
        return ""
    if isinstance(value, int) and not isinstance(value, bool):
        return format_int(value)
    return str(value)


def to_csv(records: list[dict]) -> str:
    if not records:
        return "\n"
    flats = [_flatten(r) for r in records]
    header: list[str] = []
    for flat in flats:
        for key in flat:
            if key not in header:
                header.append(key)
    lines = [",".join(header)]
    for flat in flats:
        lines.append(",".join(_quote(_csv_cell(flat.get(key))) for key in header))
    return "\n".join(lines) + "\n"


def _quote(cell: str) -> str:
    if any(ch in cell for ch in ',"\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def emit_report(result: dict | list, fmt: str, dest: IO[str]) -> int:
    """Serialise one record (or a list of records) and return bytes written."""
    if fmt == "json":
        text = to_json(result) + "\n"
    elif fmt == "csv":
        records = result if isinstance(result, list) else [result]
        text = to_csv(records)
    else:
        raise DomainError(f"unknown report format {fmt!r}")
    dest.write(text)
    return len(text.encode("utf-8"))
