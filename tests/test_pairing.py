import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperlab import pairing
from hyperlab.errors import DomainError, ResourceError

naturals = st.integers(min_value=0, max_value=10**9)


def index_of(a, b):
    """The index of the pair (a, b), canonical or not: (a, b) is on diagonal a + b."""
    return pairing.diag_start(a + b) + b


class TestRealValue:
    """The value and exact value of the entry decode_entry makes at an index."""

    def value(self, a, b):
        index, *pair, value, exact, _ = pairing.decode_entry(index_of(a, b))
        assert (index, pair) == (index_of(a, b), [a, b])
        return value, exact

    def test_zero_payload(self):
        assert self.value(0, 5) == (0.0, "0/1")

    def test_reduces_to_lowest_terms(self):
        assert self.value(15, 1) == (1.5, "3/2")
        assert self.value(150, 2) == (1.5, "3/2")

    def test_integer_case(self):
        assert self.value(123, 0) == (123.0, "123/1")

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            pairing.decode_entry(-1)

    def test_decimal_shift_budget(self):
        budget = pairing.DECIMAL_SHIFT_BUDGET
        assert self.value(3, budget) == (0.0, "3/1" + "0" * budget)
        with pytest.raises(ResourceError, match="budget"):
            pairing.decode_entry(index_of(3, budget + 1))

    def test_value_past_the_float_range(self):
        with pytest.raises(DomainError, match="past the float range"):
            pairing.decode_entry(index_of(10**309, 0))
        assert self.value(10**308, 0) == (1e308, "1" + "0" * 308 + "/1")

    def test_canonical_flag(self):
        assert pairing.is_canonical_pair(15, 1)
        assert not pairing.is_canonical_pair(150, 2)
        assert pairing.is_canonical_pair(0, 0)
        assert not pairing.is_canonical_pair(0, 3)


class TestDiagStart:
    def test_origin(self):
        assert pairing.diag_start(0) == 0

    def test_small_diagonal(self):
        assert pairing.diag_start(3) == 6

    def test_closed_form_matches_summation(self):
        for x in range(200):
            assert pairing.diag_start(x) == sum(range(x + 1))

    def test_millionth_diagonal(self):
        assert pairing.diag_start(10**6) == 500000500000

    @given(naturals)
    def test_triangular_increment(self, x):
        assert pairing.diag_start(x + 1) - pairing.diag_start(x) == x + 1


class TestPairIndex:
    def test_zero_payload_always_zero(self):
        for y in (0, 1, 7, 10**6):
            assert pairing.pair_index(0, y) == 0

    def test_one_one(self):
        assert pairing.pair_index(1, 1) == 4

    def test_trailing_zero_canonicalises(self):
        # (10, 1) names the same value as (1, 0) and gets its index
        assert pairing.pair_index(10, 1) == pairing.pair_index(1, 0) == 1

    def test_underflow_rejected(self):
        with pytest.raises(DomainError, match="trailing zeros"):
            pairing.pair_index(100, 1)


class TestPairDecode:
    def test_origin(self):
        assert pairing.pair_decode(0) == (0, 0)

    def test_index_four(self):
        assert pairing.pair_decode(4) == (1, 1)

    def test_literal_floor_formula_oracle(self):
        # the closed form with explicit floors, evaluated with an exact
        # integer square root, must agree with the diagonal-walk decode
        def literal(idx: int) -> tuple[int, int]:
            s = math.isqrt(1 + 8 * idx)
            x = (((s - 1) // 2) * ((5 + s) // 2)) // 2 - idx
            y = idx - (((s - 1) // 2) * ((1 + s) // 2)) // 2
            return x, y

        for idx in range(5000):
            assert pairing.pair_decode(idx) == literal(idx)

    def test_exhaustive_roundtrip_small(self):
        for idx in range(10**4):
            x, y = pairing.pair_decode(idx)
            if pairing.is_canonical_pair(x, y):
                assert pairing.pair_index(x, y) == idx

    @given(st.integers(0, 10**3))
    def test_diagonal_endpoints(self, s):
        assert pairing.pair_decode(pairing.diag_start(s)) == (s, 0)
        assert pairing.pair_decode(pairing.diag_start(s) + s) == (0, s)

    @given(st.integers(0, 10**12))
    def test_decode_then_encode_on_canonical(self, idx):
        x, y = pairing.pair_decode(idx)
        if pairing.is_canonical_pair(x, y):
            assert pairing.pair_index(x, y) == idx


def rows(n):
    table = pairing.enumerate_reals(n)
    assert table.names == pairing.ENTRY_COLUMNS
    return list(zip(*table.columns))


def entries(n):
    return [dict(zip(pairing.ENTRY_COLUMNS, row)) for row in rows(n)]


def exact_text(a, b):
    q = Fraction(a, 10**b)
    return f"{q.numerator}/{q.denominator}"


class TestEnumerate:
    def test_first_element_is_zero(self):
        [row] = rows(1)
        assert row == (0, 0, 0, 0.0, "0/1", True)

    def test_first_ten_follow_the_decode_order(self):
        assert [(e["a"], e["b"]) for e in entries(10)] == \
            [pairing.pair_decode(i) for i in range(10)]

    def test_covers_every_pair_on_early_diagonals_once(self):
        count = pairing.diag_start(21)
        got = {(e["a"], e["b"]) for e in entries(count)}
        expected = {(x, y) for x in range(21) for y in range(21) if x + y <= 20}
        assert got == expected
        assert len(got) == count  # each exactly once

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 6, 7, 55, 56, 57, 1000])
    def test_matches_the_decode_of_every_index(self, n):
        # the diagonal walk against the closed-form decode, entry by entry,
        # with diagonals cut short at every position
        expected = []
        for idx in range(n):
            a, b = pairing.pair_decode(idx)
            expected.append((idx, a, b, float(Fraction(a, 10**b)), exact_text(a, b),
                             pairing.is_canonical_pair(a, b)))
        assert rows(n) == expected == [pairing.decode_entry(idx) for idx in range(n)]

    def test_last_entries_at_the_budget_match_the_decode(self):
        n = pairing.ENUMERATION_BUDGET
        for idx, a, b, value, exact, canonical in rows(n)[-700:]:
            assert (a, b) == pairing.pair_decode(idx)
            assert (value, exact) == (float(Fraction(a, 10**b)), exact_text(a, b))
            assert canonical == pairing.is_canonical_pair(a, b)

    @pytest.mark.parametrize("n", [-1, True, 2.0])
    def test_count_must_be_natural(self, n):
        with pytest.raises(DomainError):
            pairing.enumerate_reals(n)

    def test_count_past_the_budget_is_refused(self):
        with pytest.raises(ResourceError, match="budget"):
            pairing.enumerate_reals(pairing.ENUMERATION_BUDGET + 1)

    def test_duplicates_are_flagged_not_skipped(self):
        non_canonical = [e for e in entries(pairing.diag_start(21)) if not e["canonical"]]
        assert non_canonical, "early diagonals contain pairs like (10, 1)"
        # a flagged pair either canonicalises to a smaller-index twin with the
        # same value, or its payload has more trailing zeros than the shift
        # allows and the numbering rejects it outright
        for e in non_canonical:
            if e["a"] == 0:
                assert pairing.pair_index(e["a"], e["b"]) == 0
                continue
            try:
                twin_index = pairing.pair_index(e["a"], e["b"])
            except DomainError:
                continue
            tx, ty = pairing.pair_decode(twin_index)
            assert pairing.is_canonical_pair(tx, ty)
            assert exact_text(tx, ty) == e["value_exact"]
            assert twin_index < e["index"]
