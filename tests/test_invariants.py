"""Cross-cutting properties tying the counting routes together.

Exhaustive sweeps here stay at moderate n so the suite runs fast; the
acceptance tests repeat the load-bearing ones at their full stated ranges.
"""

from hypothesis import given, settings, strategies as st

from bitpairs import (
    MemoCache,
    binomial,
    circular_pair_counts,
    linear_pair_counts,
    s_circular,
    s_circular_oracle,
    sd_encode,
    wrap_parity_predicts_equal_ends,
    z_auto,
    z_base_case,
    z_closed_m0,
    z_oracle,
    z_recur_firstone,
    z_recur_split,
    z_reduce_to_m0,
)

bit_strings = st.text(alphabet="01", min_size=1, max_size=50)


def all_strings(n):
    width = f"0{n}b"
    return (format(v, width) for v in range(1 << n))


class TestMethodAgreement:
    def test_all_methods_equal_oracle(self):
        split_cache, firstone_cache = MemoCache(), MemoCache()
        for n in range(1, 11):
            for k in range(n + 1):
                for m in range(n + 1):
                    want = z_oracle(n, k, m)
                    assert z_recur_split(n, k, m, split_cache) == want
                    assert z_recur_firstone(n, k, m, firstone_cache) == want
                    assert z_reduce_to_m0(n, k, m) == want
                    assert z_auto(n, k, m) == want

    def test_fast_methods_agree_beyond_oracle_reach(self):
        for n, k, m in [(40, 6, 3), (65, 10, 10), (90, 0, 25), (120, 30, 1)]:
            a = z_recur_split(n, k, m)
            b = z_recur_firstone(n, k, m)
            c = z_reduce_to_m0(n, k, m)
            assert a == b == c == z_auto(n, k, m)

    def test_circular_formula_equals_oracle(self):
        # r * s(n, k, m) = n * z(n, k, m) holds for whichever route gives z,
        # and only an even n + k + m with runs left to count reaches z, once
        routes = (z_auto, z_reduce_to_m0, z_recur_split, z_recur_firstone)
        calls = []

        def counted_z(*args):
            calls.append(args)
            return z_auto(*args)

        for n in range(2, 11):
            for k in range(-2, n + 3):
                for m in range(-2, n + 3):
                    want = s_circular_oracle(n, k, m)
                    assert s_circular(n, k, m) == want
                    for z in routes:
                        assert s_circular(n, k, m, z=z) == want, (z.__name__, n, k, m)
                    calls.clear()
                    assert s_circular(n, k, m, z=counted_z) == want
                    runs = (n + k + m) % 2 == 0 and n - k - m > 0
                    assert calls == ([(n, k, m)] if runs else [])


class TestRowSums:
    def test_linear_rows_sum_to_half_the_strings(self):
        for n in range(1, 13):
            total = sum(z_oracle(n, k, m) for k in range(n) for m in range(n))
            assert total == 2 ** (n - 1)
            fast = sum(z_auto(n, k, m) for k in range(n) for m in range(n))
            assert fast == 2 ** (n - 1)

    def test_circular_rows_sum_to_all_strings(self):
        for n in range(2, 13):
            total = sum(
                s_circular(n, k, m) for k in range(n + 1) for m in range(n + 1)
            )
            assert total == 2**n


class TestBoundary:
    def test_zero_above_slot_count(self):
        for n in range(1, 12):
            for k in range(n + 2):
                for m in range(n + 2):
                    if k + m >= n:
                        assert z_auto(n, k, m) == 0

    def test_full_pair_line(self):
        for n in range(1, 30):
            assert z_auto(n, n - 1, 0) == 1
            for k in range(n):
                m = n - 1 - k
                if m != 0:
                    assert z_auto(n, k, m) == 0

    def test_base_case_consistent_with_oracle(self):
        for n in range(1, 10):
            for k in range(n + 1):
                for m in range(n + 1):
                    base = z_base_case(n, k, m)
                    if base is not None:
                        assert base == z_oracle(n, k, m)


class TestInversionSymmetry:
    def test_strings_starting_with_one(self):
        for n in range(1, 11):
            counts = {}
            for b in all_strings(n):
                if b[0] == "1":
                    _, k, m = linear_pair_counts(b)
                    counts[k, m] = counts.get((k, m), 0) + 1
            for k in range(n):
                for m in range(n):
                    assert counts.get((k, m), 0) == z_oracle(n, m, k)


class TestEndBitParity:
    def test_exhaustive(self):
        for n in range(1, 13):
            for b in all_strings(n):
                _, k, m = linear_pair_counts(b)
                predicted = wrap_parity_predicts_equal_ends(n, k, m)
                assert (b[0] == b[-1]) == predicted
                assert (sd_encode(b).count("D") % 2 == 0) == (b[0] == b[-1])

    @given(bit_strings)
    def test_random_strings(self, b):
        n, k, m = linear_pair_counts(b)
        assert (b[0] == b[-1]) == wrap_parity_predicts_equal_ends(n, k, m)


class TestZeroPairColumn:
    def test_collapses_to_previous_length(self):
        for n in range(1, 17):
            for m in range(n - 1):
                assert z_auto(n, 0, m) == z_auto(n - 1, m, 0)

    def test_closed_form_matches_oracle(self):
        for n in range(1, 13):
            for k in range(n):
                assert z_closed_m0(n, k) == z_oracle(n, k, 0)
                assert z_closed_m0(n, k) == binomial((n + k - 1) // 2, k)


class TestCircularStructure:
    def test_parity_zeros(self):
        for n in range(2, 13):
            for k in range(n + 1):
                for m in range(n + 1):
                    if (n + k + m) % 2 == 1:
                        assert s_circular(n, k, m) == 0

    def test_rotation_invariance(self):
        for n in range(2, 11):
            for b in all_strings(n):
                profile = circular_pair_counts(b)
                for r in range(1, n):
                    assert circular_pair_counts(b[r:] + b[:r]) == profile

    @given(st.text(alphabet="01", min_size=2, max_size=40), st.integers(0, 39))
    @settings(max_examples=60)
    def test_rotation_invariance_random(self, b, r):
        r %= len(b)
        assert circular_pair_counts(b[r:] + b[:r]) == circular_pair_counts(b)


class TestMemoSoundness:
    def test_fresh_equals_warm_equals_shared(self):
        targets = [(15, 4, 3), (9, 1, 5), (18, 6, 6), (11, 0, 0)]
        shared = MemoCache()
        warm_split = MemoCache()
        warm_first = MemoCache()
        # a cache keeps whole layers, so warm each target's length with a
        # wider query whose rectangle covers it; the targets then read cached cells
        for n, _, m in targets:
            z_recur_split(n, n - 2 - m, m, warm_split)
            z_recur_firstone(n, n - 2 - m, m, warm_first)
        for n, k, m in targets:
            assert (n, k, m) in warm_split and (n, k, m) in warm_first
            want = z_oracle(n, k, m)
            assert z_recur_split(n, k, m, MemoCache()) == want
            assert z_recur_firstone(n, k, m, MemoCache()) == want
            assert z_recur_split(n, k, m, warm_split) == want
            assert z_recur_firstone(n, k, m, warm_first) == want
            assert z_recur_split(n, k, m, shared) == want
            assert z_recur_firstone(n, k, m, shared) == want

    @given(
        st.integers(min_value=1, max_value=14),
        st.integers(min_value=0, max_value=14),
        st.integers(min_value=0, max_value=14),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_triples_agree(self, n, k, m):
        want = z_oracle(n, k, m)
        assert z_recur_split(n, k, m) == want
        assert z_recur_firstone(n, k, m) == want
        assert z_reduce_to_m0(n, k, m) == want
