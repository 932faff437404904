"""Unit tests for the counting routes and their shared base-case layer."""

import math
import random
import sys
import threading
import tracemalloc
from collections import Counter
from itertools import count, zip_longest

import pytest

import bitpairs.counting
from bitpairs import (
    MemoCache,
    PairProfile,
    binomial,
    circular_pair_counts,
    linear_pair_counts,
    s_circular,
    s_circular_oracle,
    sd_encode,
    terquem_T,
    wrap_parity_predicts_equal_ends,
    z_auto,
    z_base_case,
    z_closed_m0,
    z_oracle,
    z_recur_firstone,
    z_recur_split,
    z_reduce_to_m0,
)
from bitpairs.counting import (
    _COMB_CUTOFF,
    PRIME_TABLE_LIMIT,
    _cells,
    _prime_power_binomial,
    _primes_to,
    _profile_histogram,
    _transfer,
    _z_layer,
    decimal_digits,
    decimal_int,
)


class TestBinomial:
    def test_small(self):
        assert binomial(3, 2) == 3

    def test_zero_conventions(self):
        assert binomial(2, -1) == 0
        assert binomial(2, 3) == 0
        assert binomial(-1, 0) == 0

    def test_matches_pascal(self):
        for a in range(1, 12):
            for b in range(a + 1):
                assert binomial(a, b) == binomial(a - 1, b - 1) + binomial(a - 1, b)


def _is_prime(p):
    return p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))


def _digits(x, p):
    """The base-p digits of x, least significant first."""
    digits = []
    while x:
        x, d = divmod(x, p)
        digits.append(d)
    return digits


def _carries(x, y, p):
    """The carries made when x and y are added in base p."""
    carries = carry = 0
    while x or y:
        carry = x % p + y % p + carry >= p
        carries += carry
        x, y = x // p, y // p
    return carries


def _lucas(a, b, p):
    """C(a, b) mod p as the product of the binomials of the base-p digits."""
    residue = 1
    for x, y in zip_longest(_digits(a, p), _digits(b, p), fillvalue=0):
        if y > x:
            return 0
        y = min(y, x - y)
        # C(x, y) = (x - y + 1) ... x / y!, 64 factors at a time
        for i in range(0, y, 64):
            j = min(i + 64, y)
            top = math.prod(range(x - y + 1 + i, x - y + 1 + j))
            residue = residue * top * pow(math.prod(range(i + 1, j + 1)), -1, p) % p
    return residue


class TestPrimePowerKernel:
    """The kernel behind binomial above the cut-off, called directly."""

    def test_kummer_and_lucas(self):
        # checks that share no code with the kernel: the exponent of a prime p
        # in C(a, b) is the number of carries in b + (a - b) in base p
        # (Kummer), and C(a, b) mod p is the product of the binomials of the
        # base-p digits (Lucas).  Besides 2..13, the primes checked sit on
        # each side of the kernel's phase ends sqrt(a) and b, of the first
        # slice's lower end a - b and of the second's upper end a / 2, and
        # just below a, the first slice's upper end
        rng = random.Random(20261021)
        pairs = []
        for _ in range(30):
            a = rng.randint(2000, 2 * 10**5)
            pairs.append((a, rng.randint(math.isqrt(_COMB_CUTOFF * a) + 1, a // 2)))
        # the table's edge: a = 2**25 and two a in (2**24, 2**25], all on the
        # 2**25 table, with b at most twice the cut-off's, so each product
        # stays under 1.7 Mbit
        edge = PRIME_TABLE_LIMIT
        for a in (edge, rng.randint(edge // 2 + 1, edge), rng.randint(edge // 2 + 1, edge)):
            root = math.isqrt(_COMB_CUTOFF * a)
            pairs.append((a, rng.randint(root + 1, 2 * root)))
        for a, b in pairs:
            assert b * b > _COMB_CUTOFF * a  # so binomial takes the kernel
            result = binomial(a, b)
            primes = {2, 3, 5, 7, 11, 13}
            for x in (math.isqrt(a), b, a - b, a // 2, a):
                primes.add(next(p for p in range(x, 1, -1) if _is_prime(p)))
                if x < a:
                    primes.add(next(p for p in count(x + 1) if _is_prime(p)))
            for p in sorted(primes):
                e = _carries(b, a - b, p)
                unit, rest = divmod(result, p**e)
                assert rest == 0 and unit % p, (a, b, p)
                assert result % p == _lucas(a, b, p), (a, b, p)

    def test_every_b_up_to_400(self):
        for a in range(401):
            for b in range(a + 1):
                assert _prime_power_binomial(a, b) == math.comb(a, b), (a, b)

    def test_seeded_large(self):
        rng = random.Random(20261018)
        primes = [59999, 32749, 7919]
        powers = [2**15, 3**10, 7**5, 211**2, 31**3]
        # each side of a table's power-of-two limit
        edges = [2**j + d for j in (10, 13, 16) for d in (-1, 0, 1)]
        tops = primes + powers + [rng.randint(401, 60000) for _ in range(30)] + edges
        for a in tops:
            for b in (0, 1, a // 2, a - 1, a, rng.randint(0, a), rng.randint(0, a // 50)):
                assert _prime_power_binomial(a, b) == math.comb(a, b), (a, b)

    def test_any_table_growth_order(self):
        _primes_to.cache_clear()
        # one table per power of two touched: 8192, 512, 16384 (twice), 65536
        for a in (5000, 300, 9001, 9002, 40000):
            for b in (1, a // 3, a // 2):
                assert _prime_power_binomial(a, b) == math.comb(a, b), (a, b)
        assert _primes_to.cache_info().currsize == 4
        primes = _primes_to(2**16)
        assert list(primes) == sorted(primes)
        assert primes[-1] <= 2**16
        assert [p for p in primes if p < 1000] == [
            p for p in range(2, 1000) if all(p % d for d in range(2, math.isqrt(p) + 1))
        ]

    def test_threads_share_the_table(self, fast_switching):
        _primes_to.cache_clear()
        tops = [400 * i + 401 for i in range(24)]
        want = {a: math.comb(a, a // 3) for a in tops}
        wrong = []

        def work(shift):
            for a in tops[shift:] + tops[:shift]:
                if _prime_power_binomial(a, a // 3) != want[a]:
                    wrong.append(a)

        threads = [threading.Thread(target=work, args=(shift,)) for shift in (0, 7, 13, 19, 23)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert _primes_to.cache_info().currsize == 6  # 2**9 to 2**14, once each

    def test_slice_ends_on_a_prime(self):
        # every bisected end -- sqrt(a), b, r / j and a / j -- lands on a prime
        # or one past it
        for p in (2, 3, 5, 7, 11, 13, 31, 97, 101, 211, 997, 7919):
            tops = {j * p + d for j in range(1, 5) for d in (0, 1)}
            if p < 250:
                tops.add(p * p)
            for a in sorted(tops):
                root = math.isqrt(a)
                bs = {root - 1, root, root + 1, p - 1, p, p + 1}
                bs |= {a - j * p for j in range(1, 5)}
                for b in sorted(b for b in bs if 0 <= b <= a):
                    assert _prime_power_binomial(a, b) == math.comb(a, b), (a, b)

    def test_table_bound_refuses_before_the_sieve(self, monkeypatch):
        # a C(a, b) whose table would pass PRIME_TABLE_LIMIT is refused with
        # one line, and no table is built; math.comb still answers any a
        assert bitpairs.counting.PRIME_TABLE_LIMIT == 2**25
        _primes_to.cache_clear()
        with pytest.raises(ValueError) as refused:
            binomial(2**25 + 1, 2**24)
        assert str(refused.value) == (
            "binomial too large for the prime table: C(33554433, 16777216), a > 2**25"
        )
        with pytest.raises(ValueError, match=r"^binomial too large for the prime table: C\(5"):
            z_auto(10**10, 24 * 10**8, 16 * 10**8)
        assert _primes_to.cache_info().currsize == 0
        assert binomial(10**12, 3) == math.comb(10**12, 3)
        assert _primes_to.cache_info().currsize == 0
        # a = 2**25 itself still asks for its table (stubbed: no sieve runs)
        def asked(limit):
            raise LookupError(limit)

        monkeypatch.setattr(bitpairs.counting, "_primes_to", asked)
        with pytest.raises(LookupError, match=f"^{2**25}$"):
            binomial(2**25, 2**24)

    def test_math_comb_leaves_the_table_alone(self):
        _primes_to.cache_clear()
        assert binomial(10**9, 3) == math.comb(10**9, 3)
        assert binomial(10**6, 15000) == math.comb(10**6, 15000)
        assert _primes_to.cache_info().currsize == 0
        a = 10**6
        assert binomial(a, 3 * 10**5) > 0  # the kernel's values are pinned above
        assert _primes_to.cache_info().currsize == 1
        primes = _primes_to(2**20)  # that call's table: 2**19 < a <= 2**20
        assert _primes_to.cache_info().currsize == 1
        # under one byte per integer up to a, what a bytearray sieve would keep
        assert sys.getsizeof(primes) < a + 1

    def test_routing(self, monkeypatch):
        a = 4000
        b = math.isqrt(_COMB_CUTOFF * a)  # the last b that math.comb answers
        want = {b: math.comb(a, b), b + 1: math.comb(a, b + 1)}
        comb_calls = []

        def counting_comb(a, b):
            comb_calls.append((a, b))
            return want[b]

        monkeypatch.setattr(math, "comb", counting_comb)
        assert binomial(a, b) == want[b]
        assert binomial(a, a - b) == want[b]
        assert comb_calls == [(a, b), (a, b)]
        comb_calls.clear()
        assert binomial(a, b + 1) == want[b + 1]
        assert binomial(a, a - b - 1) == want[b + 1]
        assert comb_calls == []

    def test_math_comb_bound(self, monkeypatch):
        # past b = 2**17 a binomial that the cut-off sends to math.comb is
        # refused with one line, before math.comb runs
        with pytest.raises(ValueError) as refused:
            binomial(10**10, 2**17 + 1)
        assert str(refused.value) == (
            "binomial too large for math.comb: C(10000000000, 131073), b > 2**17"
        )
        assert binomial(10**10, 2) == math.comb(10**10, 2)
        comb_calls = []
        monkeypatch.setattr(math, "comb", lambda a, b: comb_calls.append((a, b)) or 1)
        assert binomial(10**10, 10**10 - 2**17) == 1  # b = 2**17 itself still answers
        with pytest.raises(ValueError, match=r"C\(10000000000, 131073\), b > 2\*\*17$"):
            binomial(10**10, 10**10 - 2**17 - 1)
        assert comb_calls == [(10**10, 2**17)]


class TestDecimalDigits:
    """decimal_digits(v) == str(v) on both paths: str() below the limit, and
    the conversion in the decimal module, whose leaves hold at most 14000 bits,
    above it."""

    def test_edges(self, lowest_digit_limit, unlimited_str):
        # the 640-digit limit, then the leaf size and its doubles, each
        # approached from both sides
        around = [b + d for b in (14000, 28000, 56000) for d in (-1, 0, 1)]
        exponents = [640, 641, 642] + [int(b * math.log10(2)) + d for b in around for d in (-1, 0, 1)]
        values = [0, 1, -1, 2**2126, -(10**5000) - 7]
        values += [10**j + d for j in exponents for d in (-1, 0, 1)]
        values += [2**j - 1 for j in [2126, 2127] + around]
        for v in values:
            assert decimal_digits(v) == unlimited_str(v), v.bit_length()

    def test_decimal_int_inverts(self, lowest_digit_limit):
        # int(text) below the limit, the decimal module above it; what int
        # itself refuses stays refused
        for v in (0, 7, -7, 10**640 - 1, 10**640, -(10**5000) - 7, 2**56001 - 1):
            assert decimal_int(decimal_digits(v)) == v, v.bit_length()
        assert decimal_int(" +12_3 ") == 123
        assert decimal_int("0" * 700 + "5") == 5
        for text in ("1e5", "1.0", "-", "", "--1", "1" * 700 + "x", "\u0663" * 700, "+" + "1" * 700):
            with pytest.raises(ValueError):
                decimal_int(text)

    def test_refused_without_decimal_module(self, lowest_digit_limit, monkeypatch):
        # where _decimal is missing, a value past the limit keeps str()'s own refusal
        value = 10**700
        with pytest.raises(ValueError) as refused:
            str(value)
        monkeypatch.setitem(sys.modules, "_decimal", None)  # `import _decimal` now fails
        with pytest.raises(ValueError) as raised:
            decimal_digits(value)
        assert str(raised.value) == str(refused.value)
        assert decimal_digits(10**639) == "1" + "0" * 639

    def test_seeded_random(self, lowest_digit_limit, unlimited_str):
        rng = random.Random(20261019)
        # bit lengths log-uniform from 2**11 to 2**18, then one of 600000
        lengths = [int(2 ** rng.uniform(11, 18)) for _ in range(8)] + [600000]
        for v in (rng.getrandbits(bits) | 1 << (bits - 1) for bits in lengths):
            assert decimal_digits(v) == unlimited_str(v), v.bit_length()


class TestPairCounts:
    def test_linear_examples(self):
        assert linear_pair_counts("001010001010001") == (15, 5, 0)
        assert linear_pair_counts("00") == (2, 1, 0)
        assert linear_pair_counts("0111") == (4, 0, 2)
        assert linear_pair_counts("0") == (1, 0, 0)
        assert _profile_histogram(1) == {(0, 0, 0): 1}
        assert _profile_histogram(2) == {(1, 0, 0): 1, (0, 0, 1): 1}

    def test_histogram_matches_strings(self):
        # the bitwise scan behind the oracles and verify_all's parity check
        # counts every string that starts with 0 by (k, m, last bit)
        for n in range(1, 13):
            strings = [b for b in (format(v, f"0{n}b") for v in range(1 << n)) if b[0] == "0"]
            want = Counter((*linear_pair_counts(b)[1:], int(b[-1])) for b in strings)
            assert _profile_histogram(n) == want, n

    def test_returns_profile(self):
        p = linear_pair_counts("0011")
        assert isinstance(p, PairProfile)
        assert (p.n, p.k, p.m) == (4, 1, 1)

    def test_circular_examples(self):
        assert circular_pair_counts("0011") == (4, 1, 1)
        assert circular_pair_counts("0000") == (4, 4, 0)
        assert circular_pair_counts("01") == (2, 0, 0)

    def test_circular_length_two_counts_both_orderings(self):
        assert circular_pair_counts("00") == (2, 2, 0)
        assert circular_pair_counts("11") == (2, 0, 2)
        # the ring oracle reads "00" as a (2, 0) ring, its complement "11" as
        # (0, 2), and "01" and its complement "10" as (0, 0) rings
        assert [s_circular_oracle(2, k, m) for k, m in ((2, 0), (0, 2), (0, 0))] == [1, 1, 2]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty input"):
            linear_pair_counts("")
        with pytest.raises(ValueError, match="empty input"):
            circular_pair_counts("")

    def test_circular_short_rejected(self):
        with pytest.raises(ValueError, match="below length 2"):
            circular_pair_counts("0")

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="not a binary string"):
            linear_pair_counts("012")


class TestSDEncode:
    def test_examples(self):
        assert sd_encode("0011") == "SDS"
        assert sd_encode("0101") == "DDD"
        assert sd_encode("000") == "SS"
        assert sd_encode("0") == ""

    def test_s_count_is_total_pairs(self):
        for b in ("0011", "010010", "111000111", "0"):
            _, k, m = linear_pair_counts(b)
            assert sd_encode(b).count("S") == k + m

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sd_encode("")


class TestWrapParity:
    def test_examples(self):
        assert wrap_parity_predicts_equal_ends(4, 1, 1) is False
        assert wrap_parity_predicts_equal_ends(1, 0, 0) is True
        assert wrap_parity_predicts_equal_ends(2, 1, 0) is True


class TestBaseCase:
    def test_all_zero_boundary(self):
        assert z_base_case(5, 4, 0) == 1
        assert z_base_case(5, 2, 3) == 0
        assert z_base_case(4, 0, 3) == 0

    def test_nonpositive_and_negative(self):
        assert z_base_case(0, 0, 0) == 0
        assert z_base_case(-2, 1, 1) == 0
        assert z_base_case(5, -1, 0) == 0
        assert z_base_case(5, 0, -1) == 0

    def test_interior_is_not_a_base_case(self):
        assert z_base_case(4, 1, 0) is None
        assert z_base_case(2, 0, 0) is None


class TestOracle:
    def test_examples(self):
        assert z_oracle(1, 0, 0) == 1
        assert z_oracle(3, 0, 1) == 1
        assert z_oracle(4, 1, 0) == 2

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            z_oracle(0, 0, 0)
        with pytest.raises(ValueError, match="oracle limit exceeded"):
            z_oracle(21, 0, 0)

    def test_circular_examples(self):
        assert s_circular_oracle(4, 4, 0) == 1
        assert s_circular_oracle(4, 1, 1) == 4
        assert s_circular_oracle(5, 1, 1) == 0

    def test_circular_rejects_bad_n(self):
        with pytest.raises(ValueError, match="below length 2"):
            s_circular_oracle(1, 0, 0)
        with pytest.raises(ValueError, match="oracle limit exceeded"):
            s_circular_oracle(30, 0, 0)


class TestRecurrences:
    def test_split_examples(self):
        assert z_recur_split(4, 1, 0) == 2
        assert z_recur_split(2, 0, 0) == 1
        assert z_recur_split(3, 2, 0) == 1

    def test_firstone_examples(self):
        assert z_recur_firstone(4, 1, 0) == 2
        assert z_recur_firstone(3, 0, 1) == 1
        assert z_recur_firstone(5, 4, 0) == 1

    def test_total_on_junk_arguments(self):
        for fn in (z_recur_split, z_recur_firstone):
            assert fn(0, 0, 0) == 0
            assert fn(-3, 2, 2) == 0
            assert fn(6, -1, 2) == 0
            assert fn(6, 2, -1) == 0
            assert fn(6, 4, 3) == 0

    def test_deep_arguments_do_not_hit_recursion_limit(self):
        assert z_recur_split(400, 1, 1) == z_recur_firstone(400, 1, 1)

    @pytest.mark.parametrize("from_one", [False, True], ids=["split", "first-one"])
    def test_layer_equals_oracle_on_rectangles(self, from_one):
        # every cell of the layer, not only the queried corner, on shapes
        # with k > m, k < m and both beyond the k + m < n interior
        for n in range(1, 15):
            for k, m in ((n + 2, 0), (0, n + 1), (3, 7)):
                layer = _z_layer(*_transfer(n, k, m, from_one), from_one, n, m)
                assert [len(row) for row in layer] == [m + 1] * (k + 1), (n, k, m)
                for a in range(k + 1):
                    for b in range(m + 1):
                        assert layer[a][b] == z_oracle(n, a, b), (n, a, b)

    def test_transfer_state(self):
        # both end-bit grids, not only a layer's readout, on the same shapes:
        # grown from "0", a string ends as it starts iff its n-1-a-b flips are
        # even; grown from both one-bit strings, reversal turns "ends in 0"
        # into "starts with 0" and complement swaps a and b for "ends in 1"
        for n in range(1, 15):
            for k, m in ((n + 2, 0), (0, n + 1), (3, 7)):
                one_bit = [[int(a == b == 0) for b in range(m + 1)] for a in range(k + 1)]
                zeros = [[0] * (m + 1) for _ in range(k + 1)]
                # both grids of each pass to n, as cells of n bits
                from0 = [_cells(g, n, m) for g in _transfer(n, k, m, False)]
                both = [_cells(g, n, m) for g in _transfer(n, k, m, True)]
                for a in range(k + 1):
                    for b in range(m + 1):
                        z = z_oracle(n, a, b)
                        ends_equal = (n - 1 - a - b) % 2 == 0
                        assert from0[0][a][b] == (z if ends_equal else 0), (n, a, b)
                        assert from0[1][a][b] == (0 if ends_equal else z), (n, a, b)
                        assert both[0][a][b] == z, (n, a, b)
                        assert both[1][a][b] == z_oracle(n, b, a), (n, a, b)
                # the seeds, the grids of a pass to length 1, in 1-bit slots
                assert [_cells(g, 1, m) for g in _transfer(1, k, m, False)] == [one_bit, zeros]
                assert [_cells(g, 1, m) for g in _transfer(1, k, m, True)] == [one_bit, one_bit]

    @pytest.mark.parametrize("from_one", [False, True], ids=["split", "first-one"])
    def test_narrowest_slots(self, from_one):
        # a pass bounded at exactly n has n-bit slots, and its last layer
        # holds the largest cells, up to 2**(n-1): every cell of the
        # (n+1) x (n+1) readout, and first-one's end-in-1 grid, against z_auto
        for n in range(1, 41):
            end0, end1 = _transfer(n, n, n, from_one)
            layer = _z_layer(end0, end1, from_one, n, n)
            assert [len(row) for row in layer] == [n + 1] * (n + 1), n
            assert layer == [[z_auto(n, a, b) for b in range(n + 1)] for a in range(n + 1)], n
            if from_one:
                want = [[z_auto(n, b, a) for b in range(n + 1)] for a in range(n + 1)]
                assert _cells(end1, n, n) == want, n

    def test_grid_budget(self, monkeypatch):
        # one bit a row over TRANSFER_GRID_BITS is refused before the pass
        # builds a row; a pass of exactly the budget runs, shown on a budget
        # of 72 bits, the grid of (6, 3, 2)
        assert bitpairs.counting.TRANSFER_GRID_BITS == 2**30
        with pytest.raises(ValueError, match=r"^recurrence grid too large: "
                           r"\(k\+1\)\(m\+1\)n = 1074790400 bits > 2\*\*30$"):
            _transfer(2**10 + 1, 2**10 - 1, 2**10 - 1, True)
        monkeypatch.setattr(bitpairs.counting, "TRANSFER_GRID_BITS", 72)
        for from_one in (False, True):
            layer = _z_layer(*_transfer(6, 3, 2, from_one), from_one, 6, 2)
            assert layer == [[z_oracle(6, a, b) for b in range(3)] for a in range(4)]
            with pytest.raises(ValueError, match=r"^recurrence grid too large: "
                               r"\(k\+1\)\(m\+1\)n = 84 bits "):
                _transfer(7, 3, 2, from_one)

    @pytest.mark.parametrize(
        "recur,n,k,m,bound",
        [
            # a few layers of ints below 2**300, whatever n is: 71 x 51 cells
            pytest.param(z_recur_split, 300, 70, 50, 32 * 2**20, id="z_recur_split"),
            pytest.param(z_recur_firstone, 300, 70, 50, 32 * 2**20, id="z_recur_firstone"),
            # skewed: each keeps 151 x 2 cells, not a 151 x 151 square
            pytest.param(z_recur_split, 400, 150, 1, 4 * 2**10 * 151 * 2, id="z_recur_split-skewed"),
            pytest.param(z_recur_firstone, 400, 150, 1, 4 * 2**10 * 151 * 2, id="z_recur_firstone-skewed"),
        ],
    )
    def test_memory_bounded(self, recur, n, k, m, bound):
        tracemalloc.start()
        try:
            value = recur(n, k, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == z_auto(n, k, m)
        assert peak < bound


class TestMemoCache:
    def test_write_once(self):
        c = MemoCache()
        c[(3, 1, 0)] = 1
        c[(3, 1, 0)] = 1  # identical rewrite is a no-op
        with pytest.raises(ValueError, match="overwrite"):
            c[(3, 1, 0)] = 2

    def test_shared_cache_serves_both_recurrences(self):
        shared = MemoCache()
        a = z_recur_split(12, 3, 2, shared)
        b = z_recur_firstone(12, 3, 2, shared)
        assert a == b == z_oracle(12, 3, 2)

    def test_warm_cache_matches_fresh(self):
        for recur in (z_recur_split, z_recur_firstone):
            warm = MemoCache()
            recur(14, 4, 3, warm)
            assert (14, 2, 2) in warm  # served from the layer the first call left
            assert recur(14, 2, 2, warm) == recur(14, 2, 2, MemoCache()) == z_oracle(14, 2, 2)
            assert recur(10, 2, 2, warm) == recur(10, 2, 2, MemoCache())

    @pytest.mark.parametrize("recur", [z_recur_split, z_recur_firstone])
    @pytest.mark.parametrize("n,k,m", [(40, 6, 3), (40, 2, 9), (150, 38, 22), (2, 0, 0)])
    def test_cache_holds_final_layer_only(self, recur, n, k, m):
        cache = MemoCache()
        recur(n, k, m, cache)
        assert cache
        assert {key[0] for key in cache} == {n}
        assert len(cache) <= (k + 1) * (m + 1)

    def test_base_cases_leave_cache_empty(self):
        cache = MemoCache()
        for recur in (z_recur_split, z_recur_firstone):
            assert recur(6, 4, 3, cache) == 0
            assert recur(6, 5, 0, cache) == 1
        assert not cache

    @pytest.mark.parametrize("recur", [z_recur_split, z_recur_firstone])
    def test_circular_queries_share_one_layer(self, recur):
        cache = MemoCache()
        got = s_circular(20, 5, 3, z=lambda n, k, m: recur(n, k, m, cache))
        assert got == s_circular(20, 5, 3)
        assert len(cache) == 6 * 4

    def test_shared_cache_raises_when_routes_disagree(self):
        # a wrong cell outside the first query's layer, as a faulty route
        # would leave it; the other route's wider layer overwrites it
        for first, second in ((z_recur_split, z_recur_firstone), (z_recur_firstone, z_recur_split)):
            shared = MemoCache()
            first(12, 2, 1, shared)
            shared[12, 4, 2] = z_oracle(12, 4, 2) + 1
            with pytest.raises(ValueError, match="overwrite"):
                second(12, 4, 3, shared)

    def test_concurrent_writers_of_one_key(self, fast_switching):
        # four writers per key, each with its own value, released together:
        # one value stays and the other three raise, in every round
        keys = [(n, 1, 1) for n in range(200)]
        writers = 4
        for _ in range(60):
            cache = MemoCache()
            barrier = threading.Barrier(writers, timeout=60)
            refused = [[] for _ in range(writers)]

            def write(value):
                barrier.wait()
                for key in keys:
                    try:
                        cache[key] = value
                    except ValueError:
                        refused[value].append(key)

            threads = [threading.Thread(target=write, args=(v,)) for v in range(writers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            for key in keys:
                kept = [v for v in range(writers) if key not in refused[v]]
                assert kept == [cache[key]], key

    def test_threads_share_one_cache_across_recurrences(self, fast_switching):
        # overlapping queries at one n: each thread answers some from its
        # own layer and some from another thread's, and rewrites equal cells
        n = 60
        queries = [(k, m) for k in range(0, 13, 3) for m in range(0, 10, 3)]
        shared = MemoCache()
        wrong, raised = [], []

        def work(recur, shift):
            try:
                for k, m in queries[shift:] + queries[:shift]:
                    if recur(n, k, m, shared) != z_auto(n, k, m):
                        wrong.append((recur.__name__, k, m))
            except ValueError as e:
                raised.append(e)

        threads = [
            threading.Thread(target=work, args=(recur, shift))
            for shift in (0, 5, 11)
            for recur in (z_recur_split, z_recur_firstone)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert wrong == raised == []
        assert {key[0] for key in shared} == {n}


class TestReduction:
    def test_examples(self):
        assert z_reduce_to_m0(4, 1, 1) == 1
        assert z_reduce_to_m0(8, 2, 2) == 9
        assert z_reduce_to_m0(6, 1, 1) == 4

    def test_m0_column_delegates_to_closed_form(self):
        for n in range(1, 12):
            for k in range(n):
                assert z_reduce_to_m0(n, k, 0) == z_closed_m0(n, k)

    def test_equals_per_term_sum(self):
        # the former evaluation: fresh binomials and column values for each f
        def per_term(n, k, m):
            base = z_base_case(n, k, m)
            if base is not None:
                return base
            if m == 0:
                return z_closed_m0(n, k)
            total = 0
            for f in range(1, m + 1):
                term = binomial(k + f, f) * z_closed_m0(n - m - f, k + f)
                if (n + k + m) % 2 == 0:
                    term += binomial(k + f - 1, f - 1) * z_closed_m0(n - m - f, k + f - 1)
                total += binomial(m - 1, f - 1) * term
            return total

        for n in range(31):
            for k in range(-2, n + 3):
                for m in range(-2, n + 3):
                    assert z_reduce_to_m0(n, k, m) == per_term(n, k, m), (n, k, m)

    def test_two_binomials_per_query(self, monkeypatch):
        calls = []

        def counting_binomial(a, b):
            calls.append((a, b))
            return binomial(a, b)

        def refuse(*args):
            raise AssertionError("the series must not evaluate column entries")

        expected = z_auto(5000, 1200, 800)
        monkeypatch.setattr("bitpairs.counting.binomial", counting_binomial)
        monkeypatch.setattr("bitpairs.counting.z_closed_m0", refuse)
        assert z_reduce_to_m0(5000, 1200, 800) == expected
        assert len(calls) <= 2, calls[:5]


class TestClosedForm:
    def test_examples(self):
        assert z_closed_m0(1, 0) == 1
        assert z_closed_m0(4, 1) == 2
        assert z_closed_m0(5, 2) == 3

    def test_out_of_range_is_zero(self):
        assert z_closed_m0(0, 0) == 0
        assert z_closed_m0(4, 4) == 0
        assert z_closed_m0(4, -1) == 0


class TestTriangle:
    def test_examples(self):
        assert terquem_T(0, 0) == 1
        assert terquem_T(4, 2) == 3
        assert terquem_T(7, 0) == 1

    def test_k_beyond_n_is_zero(self):
        assert terquem_T(3, 7) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="triangle index out of range"):
            terquem_T(-1, 0)
        with pytest.raises(ValueError, match="triangle index out of range"):
            terquem_T(3, -1)

    def test_shifted_closed_form(self):
        for n in range(1, 16):
            for k in range(n + 1):
                assert terquem_T(n - 1, k) == z_oracle(n, k, 0), (n, k)


def interior_points(count, seed):
    """count seeded (n, k, m) with 5000 <= n <= 10**5 and k + m <= n - 2, so
    z > 0: n log-uniform, and k/n and m/n each log-uniform from 0.001 to 0.5,
    so that math.comb answers some binomials of z and the kernel others."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        n = round(10 ** rng.uniform(math.log10(5000), 5))
        k, m = (round(n * 10 ** rng.uniform(-3, math.log10(0.5))) for _ in "km")
        if k + m <= n - 2:
            points.append((n, k, m))
    return points


INTERIOR_POINTS = interior_points(200, 20261019)
RING_POINTS = [p for p in INTERIOR_POINTS if sum(p) % 2 == 0]  # where the ring count is not 0


def last_bit_mismatches(points):
    """(n, k, m, got, want) wherever z_auto(n, k, m) differs from the sum over
    the last bit.  A counted string ends in 0 exactly when r = n - k - m is
    odd; deleting that bit shortens the last run, leaving z(n-1, k-1, m)
    strings, or removes it, leaving z(n-1, k, m).  For r even the last bit
    is 1 and the sum is z(n-1, k, m-1) + z(n-1, k, m).  With z_base_case
    the rule fixes z by induction on n, so it checks the runs count's
    derivation, not its transcription.  z_auto is looked up on the module,
    so a monkeypatched one is the one checked."""
    z = bitpairs.counting.z_auto
    found = []
    for n, k, m in points:
        if (n - k - m) % 2:
            want = z(n - 1, k - 1, m) + z(n - 1, k, m)
        else:
            want = z(n - 1, k, m - 1) + z(n - 1, k, m)
        got = z(n, k, m)
        if got != want:
            found.append((n, k, m, got, want))
    return found


class TestAuto:
    def test_examples(self):
        assert z_auto(8, 2, 2) == 9
        assert z_auto(5, 4, 0) == 1
        assert z_auto(5, 2, 3) == 0

    def test_matches_oracle_spot(self):
        for n, k, m in [(7, 2, 1), (9, 0, 4), (10, 3, 3), (12, 5, 0)]:
            assert z_auto(n, k, m) == z_oracle(n, k, m)

    def test_matches_oracle_full_grid(self):
        # k, m from -1 to n+2 cover junk arguments and the k + m = n-1 line
        for n in range(1, 17):
            for k in range(-1, n + 3):
                for m in range(-1, n + 3):
                    assert z_auto(n, k, m) == z_oracle(n, k, m), (n, k, m)

    @pytest.mark.parametrize(
        "n,k,m", [(2000, 500, 300), (5000, 1200, 800), (20000, 8800, 3), (50000, 12000, 8000)]
    )
    def test_matches_reduction_at_scale(self, n, k, m):
        assert z_auto(n, k, m) == z_reduce_to_m0(n, k, m)

    def test_last_bit_rule(self, monkeypatch):
        # the points whose z takes a binomial from the kernel, found with
        # both binomial routes stubbed out so that nothing is multiplied
        routed = []
        with monkeypatch.context() as stubs:
            stubs.setattr(math, "comb", lambda a, b: 1)
            for p in INTERIOR_POINTS:
                stubs.setattr(bitpairs.counting, "_prime_power_binomial",
                              lambda a, b, p=p: routed.append(p) or 1)
                z_auto(*p)
        assert len(set(routed)) >= len(INTERIOR_POINTS) // 4
        grid = [(n, k, m) for n in range(2, 17) for k in range(-1, n + 3) for m in range(-1, n + 3)]
        assert last_bit_mismatches(grid + INTERIOR_POINTS) == []

    def test_last_bit_rule_reports_a_wrong_z_auto(self, monkeypatch):
        real = bitpairs.counting.z_auto
        monkeypatch.setattr(bitpairs.counting, "z_auto",
                            lambda n, k, m: real(n, k, m) + ((n, k, m) == (5001, 1200, 700)))
        z = real(5001, 1200, 700)
        found = last_bit_mismatches(INTERIOR_POINTS + [(5001, 1200, 700)])
        assert found == [(5001, 1200, 700, z + 1, z)]

    def test_independent_of_reduction_and_closed_form(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("z_auto must not use another route")

        monkeypatch.setattr("bitpairs.counting.z_reduce_to_m0", refuse)
        monkeypatch.setattr("bitpairs.counting.z_closed_m0", refuse)
        for n in range(1, 13):
            for k in range(n + 1):
                for m in range(n + 1):
                    assert z_auto(n, k, m) == z_oracle(n, k, m), (n, k, m)


def four_term_mismatches(points):
    """(n, k, m, got, want) wherever s_circular(n, k, m) differs from the
    former definition: split over the leading bit and whether the
    wraparound slot closes a pair, the 1-led strings by bit inversion, so
    z(n, k, m) + z(n, k-1, m) + z(n, m, k) + z(n, m-1, k) for n + k + m
    even and 0 otherwise.  The routes are looked up on the module, so a
    monkeypatched one is the one checked."""
    s, z = bitpairs.counting.s_circular, bitpairs.counting.z_auto
    found = []
    for n, k, m in points:
        want = 0 if (n + k + m) % 2 else z(n, k, m) + z(n, k - 1, m) + z(n, m, k) + z(n, m - 1, k)
        got = s(n, k, m)
        if got != want:
            found.append((n, k, m, got, want))
    return found


class TestCircular:
    def test_examples(self):
        assert s_circular(8, 2, 2) == 36
        assert s_circular(4, 1, 1) == 4
        assert s_circular(5, 1, 1) == 0

    def test_rejects_short(self):
        with pytest.raises(ValueError, match="below length 2"):
            s_circular(1, 0, 0)

    def test_length_two(self):
        assert s_circular(2, 2, 0) == s_circular_oracle(2, 2, 0) == 1
        assert s_circular(2, 0, 0) == s_circular_oracle(2, 0, 0) == 2

    def test_equals_four_term_sum(self):
        grid = [(n, k, m) for n in range(2, 17) for k in range(-1, n + 3) for m in range(-1, n + 3)]
        scale = [(5000, 1200, 800), (50000, 12000, 8000), (50000, 12001, 8001)]
        assert four_term_mismatches(grid + scale + RING_POINTS) == []

    def test_four_term_sum_reports_a_wrong_s_circular(self, monkeypatch):
        real = bitpairs.counting.s_circular
        monkeypatch.setattr(bitpairs.counting, "s_circular",
                            lambda n, k, m: real(n, k, m) - ((n, k, m) == (5002, 1200, 700)))
        s = real(5002, 1200, 700)
        assert s > 0
        found = four_term_mismatches(RING_POINTS + [(5002, 1200, 700)])
        assert found == [(5002, 1200, 700, s - 1, s)]

    def test_pluggable_evaluator(self):
        cache = MemoCache()
        via_split = s_circular(10, 2, 4, z=lambda n, k, m: z_recur_split(n, k, m, cache))
        assert via_split == s_circular(10, 2, 4) == s_circular_oracle(10, 2, 4)


def transfer_mismatches(max_n):
    """(n, k, m, route, got, want) wherever a route disagrees with the split
    pass on a cell 0 <= k, m <= n, n = 1..max_n: first-one, z_auto and
    z_reduce_to_m0 against its z readout, and from n = 2 s_circular against
    its ring readout, the end-bit cells of the rings that close into (k, m).
    Routes are looked up on the module, so a monkeypatched one is the one
    checked."""
    routes = bitpairs.counting
    found = []
    for n in range(1, max_n + 1):
        split_ends = _transfer(n, n, n, False)
        split = _z_layer(*split_ends, False, n, n)
        firstone = _z_layer(*_transfer(n, n, n, True), True, n, n)
        end_bit = [_cells(rows, n, n) for rows in split_ends]
        for k in range(n + 1):
            for m in range(n + 1):
                z = split[k][m]
                checks = [
                    ("first-one", firstone[k][m], z),
                    ("auto", routes.z_auto(n, k, m), z),
                    ("reduce", routes.z_reduce_to_m0(n, k, m), z),
                ]
                if n >= 2:
                    # the wrap slot adds a 0-pair to a ring that starts with 0
                    # exactly when its last bit is 0; the rings that start
                    # with 1 are the complements, with k and m swapped
                    keys = ((k - 1, m, 0), (k, m, 1), (m - 1, k, 0), (m, k, 1))
                    ring = sum(end_bit[last][a][b] for a, b, last in keys if a >= 0)
                    checks.append(("circular", routes.s_circular(n, k, m), ring))
                found += [(n, k, m, route, got, want) for route, got, want in checks if got != want]
    return found


class TestTransferBeyondOracle:
    """Every cell up to n = 60, three times the oracle limit, read off one
    transfer pass per seed at each length: 77,530 cells of z and 77,526
    rings."""

    def test_every_cell_to_60(self):
        assert transfer_mismatches(60) == []

    def test_reports_a_wrong_z_auto(self, monkeypatch):
        real = bitpairs.counting.z_auto
        monkeypatch.setattr(bitpairs.counting, "z_auto",
                            lambda n, k, m: real(n, k, m) + ((n, k, m) == (23, 7, 9)))
        z = real(23, 7, 9)
        assert transfer_mismatches(24) == [(23, 7, 9, "auto", z + 1, z)]

    def test_reports_a_wrong_s_circular(self, monkeypatch):
        real = bitpairs.counting.s_circular
        monkeypatch.setattr(bitpairs.counting, "s_circular",
                            lambda n, k, m: real(n, k, m) - ((n, k, m) == (24, 10, 4)))
        s = real(24, 10, 4)
        assert s > 0
        assert transfer_mismatches(24) == [(24, 10, 4, "circular", s - 1, s)]
