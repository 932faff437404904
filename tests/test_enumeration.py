"""Tests for explicit enumeration and the Terquem correspondence."""

import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from bitpairs import (
    circular_pair_counts,
    enumerate_circular,
    enumerate_terquem,
    enumerate_Z,
    from_terquem,
    invert_bits,
    linear_pair_counts,
    s_circular_oracle,
    terquem_T,
    to_terquem,
    z_auto,
    z_oracle,
)

bit_strings = st.text(alphabet="01", min_size=1, max_size=40)


@st.composite
def terquem_cases(draw):
    # a random valid (sequence, n) pair, built entry by entry
    n = draw(st.integers(min_value=1, max_value=40))
    t = []
    i, lo = 1, 0
    while True:
        first = lo + 1 if (lo + 1) % 2 == i % 2 else lo + 2
        choices = range(first, n, 2)
        if not choices or draw(st.booleans()):
            break
        pick = draw(st.sampled_from(choices))
        t.append(pick)
        i, lo = i + 1, pick
    return tuple(t), n


class TestEnumerate:
    def test_linear_examples(self):
        assert enumerate_Z(3, 1, 0) == ["001"]
        assert enumerate_Z(4, 1, 0) == ["0010", "0100"]
        assert enumerate_Z(3, 0, 1) == ["011"]

    def test_circular_examples(self):
        assert enumerate_circular(4, 1, 1) == ["0011", "0110", "1001", "1100"]
        assert enumerate_circular(5, 1, 1) == []
        assert enumerate_circular(4, 4, 0) == ["0000"]

    def test_linear_matches_strings(self):
        # string-level ground truth for the listing's shifted scan and the
        # oracle's histogram: every length-n string that starts with 0 by its
        # linear profile
        for n in range(1, 11):
            lines = {}
            for v in range(1 << n):
                b = format(v, f"0{n}b")
                if b[0] == "0":
                    lines.setdefault(linear_pair_counts(b), []).append(b)
            for k in range(-1, n + 2):
                for m in range(-1, n + 2):
                    want = sorted(lines.get((n, k, m), []))
                    assert z_oracle(n, k, m) == len(want), (n, k, m)
                    assert enumerate_Z(n, k, m) == want, (n, k, m)

    def test_circular_matches_strings(self):
        # string-level ground truth for the oracle's ring rule and the ring
        # listing, one bitwise scan of all 2**n strings with the wrap slot
        # added: every length-n string by its circular profile
        for n in range(2, 11):
            rings = {}
            for v in range(1 << n):
                b = format(v, f"0{n}b")
                rings.setdefault(circular_pair_counts(b), []).append(b)
            for k in range(-1, n + 2):
                for m in range(-1, n + 2):
                    want = sorted(rings.get((n, k, m), []))
                    assert s_circular_oracle(n, k, m) == len(want), (n, k, m)
                    assert enumerate_circular(n, k, m) == want, (n, k, m)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            enumerate_Z(0, 0, 0)
        with pytest.raises(ValueError, match="oracle limit exceeded"):
            enumerate_Z(21, 0, 0)
        with pytest.raises(ValueError, match="below length 2"):
            enumerate_circular(1, 0, 0)
        with pytest.raises(ValueError, match="oracle limit exceeded"):
            enumerate_circular(21, 0, 0)


class TestInvert:
    def test_examples(self):
        assert invert_bits("011") == "100"
        assert invert_bits("0000") == "1111"
        assert invert_bits("01") == "10"

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="empty input"):
            invert_bits("")
        with pytest.raises(ValueError, match="not a binary string"):
            invert_bits("0x1")

    @given(bit_strings)
    def test_involution_and_profile_swap(self, b):
        assert invert_bits(invert_bits(b)) == b
        n, k, m = linear_pair_counts(b)
        assert linear_pair_counts(invert_bits(b)) == (n, m, k)


class TestToTerquem:
    def test_examples(self):
        assert to_terquem("001010001010001") == (1, 6, 7, 12, 13)
        assert to_terquem("0000") == (1, 2, 3)
        assert to_terquem("0101") == ()

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError, match="not in Z"):
            to_terquem("100")
        with pytest.raises(ValueError, match="not in Z.*1-pair"):
            to_terquem("0110")
        with pytest.raises(ValueError, match="empty input"):
            to_terquem("")
        # the alphabet is checked first, then the leading bit, then the 1-pairs
        with pytest.raises(ValueError, match="leading bit is 1"):
            to_terquem("110")
        with pytest.raises(ValueError, match="not a binary string"):
            to_terquem("0112")


class TestFromTerquem:
    def test_examples(self):
        assert from_terquem((1, 6, 7, 12, 13), 15) == "001010001010001"
        assert from_terquem((), 4) == "0101"
        assert from_terquem((1, 2, 3), 4) == "0000"

    def test_rejects_invalid_sequences(self):
        with pytest.raises(ValueError, match="first entry must be odd"):
            from_terquem((2, 3), 5)
        with pytest.raises(ValueError, match="alternate parity"):
            from_terquem((1, 3), 5)
        with pytest.raises(ValueError, match="strictly increasing"):
            from_terquem((3, 2), 5)
        with pytest.raises(ValueError, match="outside"):
            from_terquem((5,), 5)
        with pytest.raises(ValueError):
            from_terquem((), 0)

    @pytest.mark.parametrize(
        "t, message",
        [
            ((2, 0), "first entry must be odd"),
            ((1, 0), "entry 0 outside 1..5"),
            ((1, 1), "entries must be strictly increasing"),
            ((1, 3, 2), "entries must alternate parity"),
            ((1, 2, 6), "entry 6 outside 1..5"),
            ((1, 4, 3), "entries must be strictly increasing"),
        ],
    )
    def test_first_failing_entry_decides(self, t, message):
        # entries are checked in order, each for range, order, then parity
        with pytest.raises(ValueError) as refused:
            from_terquem(t, 6)
        assert str(refused.value) == f"invalid Terquem sequence: {message}"

    @given(terquem_cases())
    def test_round_trip_from_generated_sequences(self, case):
        t, n = case
        b = from_terquem(t, n)
        assert len(b) == n
        assert to_terquem(b) == t

    def test_memory_at_a_million_bits(self):
        # a seeded sequence of odd steps (entry i has the parity of i) that
        # starts with 40 adjacent slots and runs to the last one, n - 1:
        # the string, and the one bytearray it is built in, take about 2
        # bytes a bit, where a list of one-character strings took about 9
        n = 10**6
        rng = random.Random(20261022)
        t = list(range(1, 41))
        while t[-1] < n - 1:
            t.append(min(t[-1] + rng.randrange(1, 1999, 2), n - 1))
        t = tuple(t)
        tracemalloc.start()
        try:
            b = from_terquem(t, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.1 * n
        assert len(b) == n and b.startswith("0" * 41)
        assert to_terquem(b) == t


class TestEnumerateTerquem:
    def test_examples(self):
        assert enumerate_terquem(3, 2) == [(1, 2)]
        assert enumerate_terquem(4, 2) == [(1, 2), (1, 4), (3, 4)]
        assert enumerate_terquem(9, 0) == [()]

    def test_counts_match_triangle(self):
        for bound in range(0, 12):
            for k in range(0, bound + 2):
                assert len(enumerate_terquem(bound, k)) == terquem_T(bound, k)

    def test_matches_brute_force(self):
        # the k-subsets of 1..N, kept when entry i has the parity of i
        for bound in range(0, 15):
            for k in range(0, bound + 2):
                want = [
                    c for c in combinations(range(1, bound + 1), k)
                    if all(v % 2 == i % 2 for i, v in enumerate(c, start=1))
                ]
                assert enumerate_terquem(bound, k) == want, (bound, k)

    def test_deep_sequence_does_not_recurse(self):
        assert enumerate_terquem(1200, 1200) == [tuple(range(1, 1201))]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_terquem(-1, 0)
        with pytest.raises(ValueError):
            enumerate_terquem(4, -1)


class TestBijection:
    def test_round_trip_exhaustive(self):
        for n in range(1, 13):
            for k in range(n):
                members = enumerate_Z(n, k, 0)
                image = [to_terquem(b) for b in members]
                for b, t in zip(members, image):
                    assert from_terquem(t, n) == b
                assert sorted(image) == enumerate_terquem(n - 1, k)

    def test_cardinality_bridge(self):
        for n in range(1, 14):
            for k in range(n):
                assert len(enumerate_terquem(n - 1, k)) == z_auto(n, k, 0) == terquem_T(n - 1, k)
