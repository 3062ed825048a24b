"""Finite-precision reals and their diagonal enumeration.

A finite-precision real is a pair of naturals (a, b) standing for a * 10**-b.
The pairs live in a Cantor-style matrix and are numbered along diagonals:
``diag_start`` gives the index opening diagonal x, ``pair_index`` numbers a
pair (canonicalising trailing zeros of a first, so 1.50 and 1.5 share an
index), and ``pair_decode`` inverts the numbering in closed form via an exact
integer square root. Everything here is exact integer arithmetic, except the
float view an entry carries beside its exact value, which is the lowest-terms
text "p/q" of a / 10**b.
"""

from __future__ import annotations

import math
import operator

from .errors import DomainError, ResourceError, shown
from .reporting import Table, format_fraction

ENUMERATION_BUDGET = 2 * 10**5  # entries one enumeration may list

# largest decimal shift b a value a / 10**b may carry: its report prints about
# b digits, which takes about 2 s at b = 3 * 10**5
DECIMAL_SHIFT_BUDGET = 3 * 10**5


def _require_natural(value: int, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise DomainError(f"{name} must be a natural number, got {shown(value)}")
    return value


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
                    f"pair {shown(original)} is not canonicalisable: "
                    "payload has more trailing zeros than the decimal shift")
            x //= 10
            y -= 1
            continue
        return diag_start(x + y) + y


def pair_decode(idx: int) -> tuple[int, int]:
    """Pair (x, y) at index idx: diagonal w = floor((sqrt(1+8*idx)-1)/2),
    then y = idx - diag_start(w) and x = w - y. Exact for any index size."""
    _require_natural(idx, "idx")
    w = (math.isqrt(1 + 8 * idx) - 1) // 2
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


def decode_entry(idx: int) -> tuple:
    """The row of ENTRY_COLUMNS at index idx, the row enumerate_reals makes
    there. A decimal shift past DECIMAL_SHIFT_BUDGET is a ResourceError, found
    before 10**b is built, and a value past the float range a DomainError."""
    a, b = pair_decode(idx)
    if b > DECIMAL_SHIFT_BUDGET:
        raise ResourceError(f"decimal shift is past the budget of {DECIMAL_SHIFT_BUDGET}")
    scale = 10**b
    try:
        value = a / scale
    except OverflowError:
        raise DomainError("the value a * 10**-b is past the float range") from None
    return idx, a, b, value, format_fraction(a, scale), is_canonical_pair(a, b)


def enumerate_reals(n: int) -> Table:
    """Decode indices 0..n-1 into finite-precision reals, flagging duplicates.

    Each entry is a row of ENTRY_COLUMNS: the index, the pair (a, b), the
    float nearest a / 10**b, the exact value as its lowest-terms text "p/q",
    and whether the pair is canonical. Non-canonical pairs repeat values that
    an earlier canonical pair already produced (for example index of (10, 1)
    equals that of (1, 0)); they are reported rather than skipped so the
    enumeration stays aligned with the index sequence. The walk goes along
    the diagonals, where index diag_start(w) + y holds the pair (w - y, y),
    exactly as pair_decode says, and makes each column a diagonal at a time.

    For a > 0, g = gcd(a, 10**y) = 2**i * 5**j has i, j <= y and 2**i, 5**j
    <= a, so g divides 10**k for every k >= a.bit_length(). On diagonal w,
    with k = w.bit_length(), the text of a / 10**y for y >= k is then the
    text of a / 10**k, cached per a, followed by y - k zeros.
    """
    _require_natural(n, "n")
    if n > ENUMERATION_BUDGET:
        raise ResourceError(f"{shown(n)} entries is past the budget of {ENUMERATION_BUDGET}")
    a_column, b_column, values, texts, canonical = [], [], [], [], []
    tens, zeros = [1], [""]  # tens[y] == 10**y, zeros[j] == "0" * j
    heads, canonical_of = [], []  # by a: the text of a / 10**k, and a % 10 != 0
    k = w = 0
    while len(a_column) < n:
        length = min(w + 1, n - len(a_column))  # pairs (w - y, y) for y < length
        if w.bit_length() != k:
            k = w.bit_length()
            heads = [format_fraction(a, tens[k]) for a in range(w)]
        heads.append(format_fraction(w, tens[k]))
        canonical_of.append(w % 10 != 0)
        a_column += range(w, w - length, -1)
        b_column += range(length)
        values += map(operator.truediv, range(w, w - length, -1), tens)
        positive = min(length, w)  # the pairs with a > 0
        short = min(k, positive)  # and among them the pairs with y < k
        texts += [format_fraction(w - y, tens[y]) for y in range(short)]
        texts += map(operator.add, heads[w - short:w - positive:-1], zeros[:positive - short])
        canonical += canonical_of[w:w - positive:-1]
        if length > w:  # (0, w) ends the diagonal
            texts.append("0/1")
            canonical.append(w == 0)
        w += 1
        tens.append(tens[-1] * 10)
        zeros.append(zeros[-1] + "0")
    return Table(ENTRY_COLUMNS, [range(n), a_column, b_column, values, texts, canonical])
