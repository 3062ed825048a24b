"""Finite-precision reals and their diagonal enumeration.

A finite-precision real is a pair of naturals (a, b) standing for a * 10**-b.
The pairs live in a Cantor-style matrix and are numbered along diagonals:
``diag_start`` gives the index opening diagonal x, ``pair_index`` numbers a
pair (canonicalising trailing zeros of a first, so 1.50 and 1.5 share an
index), and ``pair_decode`` inverts the numbering in closed form via an exact
integer square root. Everything here is exact integer or rational arithmetic,
except the float view an enumerated entry carries beside its exact value.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import DomainError, ResourceError

if TYPE_CHECKING:
    from fractions import Fraction

ENUMERATION_BUDGET = 2 * 10**5  # entries one enumeration may list

# largest decimal shift b a value a / 10**b may carry: its report prints about
# b digits, which takes about 2 s at b = 3 * 10**5
DECIMAL_SHIFT_BUDGET = 3 * 10**5


def _require_natural(value: int, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise DomainError(f"{name} must be a natural number, got {value!r}")
    return value


class FinitePrecisionReal:
    """Value a * 10**-b with natural a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = _require_natural(a, "a"), _require_natural(b, "b")

    @property
    def value(self) -> Fraction:
        return real_value(self.a, self.b)

    @property
    def canonical(self) -> bool:
        """True when the digit payload carries no redundant trailing zero."""
        return is_canonical_pair(self.a, self.b)


def real_value(a: int, b: int) -> Fraction:
    """Exact rational a / 10**b; b past DECIMAL_SHIFT_BUDGET is a ResourceError."""
    from fractions import Fraction  # only `enum decode` prints an exact value

    _require_natural(a, "a")
    _require_natural(b, "b")
    if b > DECIMAL_SHIFT_BUDGET:
        raise ResourceError(f"decimal shift is past the budget of {DECIMAL_SHIFT_BUDGET}")
    return Fraction(a, 10**b)


def diag_start(x: int) -> int:
    """Index of the first pair on diagonal x: the triangular number x*(x+1)/2."""
    _require_natural(x, "x")
    return x * (x + 1) // 2


def pair_index(x: int, y: int) -> int:
    """Diagonal number of the pair (x, y), canonicalising trailing zeros of x.

    Recursion: 0 when x = 0; strip one trailing zero digit from x and one
    decimal shift from y when 10 divides x; otherwise diag_start(x + y) + y.
    Stripping more zeros than y allows has no defined meaning and is rejected.
    """
    _require_natural(x, "x")
    _require_natural(y, "y")
    original = (x, y)
    while True:
        if x == 0:
            return 0
        if x % 10 == 0:
            if y == 0:
                raise DomainError(
                    f"pair {original!r} is not canonicalisable: "
                    "payload has more trailing zeros than the decimal shift")
            x //= 10
            y -= 1
            continue
        return diag_start(x + y) + y


def integer_sqrt(v: int) -> int:
    """Exact floor square root; result r satisfies r*r <= v < (r+1)*(r+1)."""
    _require_natural(v, "v")
    return math.isqrt(v)


def pair_decode(idx: int) -> tuple[int, int]:
    """Pair (x, y) at index idx: diagonal w = floor((sqrt(1+8*idx)-1)/2),
    then y = idx - diag_start(w) and x = w - y. Exact for any index size."""
    _require_natural(idx, "idx")
    w = (integer_sqrt(1 + 8 * idx) - 1) // 2
    y = idx - diag_start(w)
    x = w - y
    return x, y


def is_canonical_pair(x: int, y: int) -> bool:
    """Pairs on which the numbering round-trips: index 0 itself, or x with no
    trailing zero digit. All (0, y) with y > 0 collapse onto index 0, and any
    x divisible by 10 is first rewritten, so neither can recover its index."""
    if x == 0:
        return y == 0
    return x % 10 != 0


# the cells of one enumerated entry, in order
ENTRY_COLUMNS = ("index", "a", "b", "value", "value_exact", "canonical")


def enumerate_reals(n: int) -> list[tuple]:
    """Decode indices 0..n-1 into finite-precision reals, flagging duplicates.

    Each entry is a row of ENTRY_COLUMNS: the index, the pair (a, b), the
    float nearest a / 10**b, the exact value as its lowest-terms text "p/q",
    and whether the pair is canonical. Non-canonical pairs repeat values that
    an earlier canonical pair already produced (for example index of (10, 1)
    equals that of (1, 0)); they are reported rather than skipped so the
    enumeration stays aligned with the index sequence. The walk goes along
    the diagonals, where index diag_start(w) + y holds the pair (w - y, y),
    exactly as pair_decode says.
    """
    _require_natural(n, "n")
    if n > ENUMERATION_BUDGET:
        raise ResourceError(f"{n} entries is past the budget of {ENUMERATION_BUDGET}")
    out = []
    tens = [1]  # tens[y] == 10**y
    w = 0
    while len(out) < n:
        start = len(out)
        for y in range(min(w + 1, n - start)):
            a = w - y
            # for a > 0, g = gcd(a, 10**y) = 2**i * 5**j has i, j <= y and
            # 2**i, 5**j <= a, so it divides 10**k; the digits of 10**y // g
            # are then those of 10**k // g and y - k zeros, with no y-digit
            # integer to convert
            k = min(y, a.bit_length()) if a else y
            g = math.gcd(a, tens[k])
            out.append((start + y, a, y, a / tens[y],
                        f"{a // g}/{tens[k] // g}{'0' * (y - k)}", is_canonical_pair(a, y)))
        w += 1
        tens.append(tens[-1] * 10)
    return out
