"""Acceptance gate: the package's headline guarantees, at full stated ranges.

One test per guarantee; each prints a PASS line (visible with -s or -rP) and
the -v listing gives one pass/fail line per criterion either way.
"""

import math
import time

from bitpairs import (
    MemoCache,
    enumerate_terquem,
    enumerate_Z,
    from_terquem,
    linear_pair_counts,
    render_terquem_triangle,
    s_circular,
    s_circular_oracle,
    to_terquem,
    z_auto,
    z_oracle,
    z_recur_firstone,
    z_recur_split,
    z_reduce_to_m0,
)
from bitpairs.cli import run


def all_strings(n):
    width = f"0{n}b"
    return (format(v, width) for v in range(1 << n))


def test_acceptance_oracle_equivalence_linear():
    """All four fast methods equal the exhaustive oracle, n <= 16, under 60 s."""
    t0 = time.perf_counter()
    split_cache, firstone_cache = MemoCache(), MemoCache()
    for n in range(1, 17):
        for k in range(n + 1):
            for m in range(n + 1):
                want = z_oracle(n, k, m)
                assert z_recur_split(n, k, m, split_cache) == want
                assert z_recur_firstone(n, k, m, firstone_cache) == want
                assert z_reduce_to_m0(n, k, m) == want
                assert z_auto(n, k, m) == want
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS: oracle equivalence (linear), n<=16, {elapsed:.2f}s")


def test_acceptance_oracle_equivalence_circular():
    """The circular formula equals the circular oracle, n <= 16, under 60 s."""
    t0 = time.perf_counter()
    for n in range(2, 17):
        for k in range(n + 1):
            for m in range(n + 1):
                assert s_circular(n, k, m) == s_circular_oracle(n, k, m)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS: oracle equivalence (circular), n<=16, {elapsed:.2f}s")


def test_acceptance_motivating_instance(capsys):
    """The CLI answers the length-8 circular (2,2) question with 36."""
    code = run(["count", "--n", "8", "--k", "2", "--m", "2", "--circular"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "36\n"
    brute = 0
    for b in all_strings(8):
        k = sum(b[i] == b[(i + 1) % 8] == "0" for i in range(8))
        m = sum(b[i] == b[(i + 1) % 8] == "1" for i in range(8))
        brute += (k, m) == (2, 2)
    assert brute == 36
    print("PASS: motivating instance, CLI prints 36 == brute force over 256 strings")


def test_acceptance_closed_form():
    """z(n, k, 0) is the binomial C(floor((n+k-1)/2), k), n <= 16."""
    for n in range(1, 17):
        for k in range(n):
            assert z_oracle(n, k, 0) == math.comb((n + k - 1) // 2, k)
    print("PASS: closed form for the 1-pair-free column, n<=16")


def test_acceptance_triangle_fidelity():
    """The first 10 emitted triangle rows match C(floor((n+k)/2), k) entry-for-entry."""
    lines = render_terquem_triangle(10, "csv").splitlines()[1:]
    got = [tuple(int(x) for x in line.split(",")) for line in lines]
    expected = [
        (n, k, math.comb((n + k) // 2, k)) for n in range(10) for k in range(n + 1)
    ]
    assert got == expected
    assert got[0] == (0, 0, 1)
    assert (4, 2, 3) in got
    print("PASS: triangle fidelity, first 10 rows entry-for-entry")


def test_acceptance_end_bit_parity():
    """Ends are equal iff n+k+m is odd, for every string of length n <= 14."""
    for n in range(1, 15):
        for b in all_strings(n):
            _, k, m = linear_pair_counts(b)
            assert (b[0] == b[-1]) == ((n + k + m) % 2 == 1)
    print("PASS: end-bit parity rule, exhaustive n<=14, zero exceptions")


def test_acceptance_zero_pair_column_identity():
    """z(n, 0, m) = z(n-1, m, 0) for 1 <= n <= 16, 0 <= m < n-1."""
    for n in range(1, 17):
        for m in range(n - 1):
            assert z_auto(n, 0, m) == z_auto(n - 1, m, 0)
            assert z_oracle(n, 0, m) == z_oracle(n - 1, m, 0)
    print("PASS: zero-pair column identity, n<=16")


def test_acceptance_bijection():
    """Round trip both directions over all of Z(n,k,0), n <= 14; image is exact."""
    for n in range(1, 15):
        for k in range(n):
            members = enumerate_Z(n, k, 0)
            image = [to_terquem(b) for b in members]
            for b, t in zip(members, image):
                assert from_terquem(t, n) == b
            assert sorted(image) == enumerate_terquem(n - 1, k)
            for t in enumerate_terquem(n - 1, k):
                assert to_terquem(from_terquem(t, n)) == t
    assert to_terquem("001010001010001") == (1, 6, 7, 12, 13)
    assert from_terquem((1, 6, 7, 12, 13), 15) == "001010001010001"
    print("PASS: bijection round trips and image characterization, n<=14")


def test_acceptance_row_sums():
    """Counts over all profiles sum to 2^(n-1) linear and 2^n circular, n <= 16."""
    for n in range(1, 17):
        linear = sum(z_oracle(n, k, m) for k in range(n) for m in range(n))
        assert linear == 2 ** (n - 1)
    for n in range(2, 17):
        circular = sum(
            s_circular_oracle(n, k, m) for k in range(n + 1) for m in range(n + 1)
        )
        assert circular == 2**n
    print("PASS: row sums 2^(n-1) linear and 2^n circular, n<=16")


def test_acceptance_scale_smoke():
    """z(500,120,80): the fast path answers in under 5 s and both recurrences agree."""
    t0 = time.perf_counter()
    value = z_auto(500, 120, 80)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    assert value > 0
    assert z_recur_split(500, 120, 80, MemoCache()) == value
    assert z_recur_firstone(500, 120, 80, MemoCache()) == value
    print(f"PASS: scale smoke, auto in {elapsed:.3f}s, both recurrences bit-for-bit equal")
