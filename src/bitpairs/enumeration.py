"""Explicit enumeration of counted strings and the Terquem correspondence.

The functions here realize the sets whose sizes the counting module
computes, in lexicographic order, and implement the bijection between
1-pair-free strings and strictly increasing parity-alternating position
sequences (the sequences counted by the A046854 triangle).
"""

from __future__ import annotations

from typing import Sequence

from .counting import _check_length, _check_oracle_n, _require_bits
from .counting import _profiles, _ring_keys  # the scan of the strings that start with 0

_INVERT = str.maketrans("01", "10")


def invert_bits(b: str) -> str:
    """The bitwise complement; swaps the roles of k and m in any profile."""
    _require_bits(b)
    return b.translate(_INVERT)


def enumerate_Z(n: int, k: int, m: int) -> list[str]:
    """All length-n strings starting with 0 with linear profile (k, m).

    Lexicographic order; an exhaustive scan of the 2**(n-1) strings that
    start with 0, so n is refused above the oracle limit,
    ``DEFAULT_ORACLE_LIMIT`` = 20.
    """
    _check_oracle_n(n, False)
    width = f"0{n}b"
    return [format(v, width) for v, a, b in _profiles(n) if (a, b) == (k, m)]


def enumerate_circular(n: int, k: int, m: int) -> list[str]:
    """All length-n strings (either leading bit) with circular profile (k, m).

    Lexicographic order.  Two scans of the 2**(n-1) strings that start with
    0, so n is refused above the oracle limit, as in :func:`enumerate_Z`.
    The first lists those that close into (k, m) rings (see
    :func:`~bitpairs.counting._ring_keys`).  The second finds those that
    close into (m, k) rings: their complements are the listed strings that
    start with 1, in descending order, so they are reversed.
    """
    _check_oracle_n(n, True)
    width, ones = f"0{n}b", (1 << n) - 1
    zero, one = _ring_keys(k, m), _ring_keys(m, k)
    tail = [format(v ^ ones, width) for v, a, b in _profiles(n) if (a, b, v & 1) in one]
    return [format(v, width) for v, a, b in _profiles(n) if (a, b, v & 1) in zero] + tail[::-1]


# ---------------------------------------------------------------------------
# The Terquem correspondence
# ---------------------------------------------------------------------------
#
# A length-n string starting with 0 and free of 1-pairs is determined by the
# set of adjacency slots holding its 0-pairs.  Slot i (1-indexed, bits i and
# i+1) holds a 0-pair exactly when bit i is 0, which pins slot parities: the
# i-th recorded slot must have the parity of i.  The slot sequences are thus
# exactly the strictly increasing sequences 1 <= t_1 < ... < t_k <= n-1 with
# t_i = i (mod 2), and both directions below run in linear time.


def to_terquem(b: str) -> tuple[int, ...]:
    """Slot positions of the 0-pairs of a 1-pair-free string starting with 0.

    Positions are 1-indexed: entry i means bits i and i+1 are both 0.  The
    result starts odd, alternates parity and stays within 1..n-1.
    """
    _require_bits(b)
    if b[0] != "0":
        raise ValueError("not in Z(n,k,0): leading bit is 1")
    t = []
    for i, (x, y) in enumerate(zip(b, b[1:]), start=1):
        if x == y:
            if x == "1":
                raise ValueError("not in Z(n,k,0): contains a 1-pair")
            t.append(i)
    return tuple(t)


def _validate_terquem(t: Sequence[int], bound: int) -> None:
    prev = 0
    for i, v in enumerate(t, start=1):
        if not 1 <= v <= bound:
            raise ValueError(f"invalid Terquem sequence: entry {v} outside 1..{bound}")
        if v <= prev:
            raise ValueError(
                "invalid Terquem sequence: entries must be strictly increasing"
            )
        if v % 2 != i % 2:  # entry i has the parity of i, so the first is odd
            if i == 1:
                raise ValueError("invalid Terquem sequence: first entry must be odd")
            raise ValueError("invalid Terquem sequence: entries must alternate parity")
        prev = v


def from_terquem(t: Sequence[int], n: int) -> str:
    """The string in Z(n, len(t), 0) whose 0-pair slots are exactly t.

    Inverse of :func:`to_terquem`: the result starts with 0 and each later
    bit repeats its predecessor at a listed slot and flips otherwise.
    """
    _check_length(n, circular=False)
    _validate_terquem(t, n - 1)
    slots = set(t)
    bits = ["0"]
    for i in range(1, n):
        prev = bits[-1]
        bits.append(prev if i in slots else "1" if prev == "0" else "0")
    return "".join(bits)


def enumerate_terquem(
    universe_bound: int, k: int, start_parity: str = "odd"
) -> list[tuple[int, ...]]:
    """All length-k parity-alternating increasing sequences from {1..bound}.

    The odd-start variant begins with an odd entry and there are
    terquem_T(universe_bound, k) of them; the even-start variant begins even
    and there are terquem_T(universe_bound - 1, k).  Lexicographic order.
    """
    if universe_bound < 0:
        raise ValueError(f"universe_bound must be >= 0, got {universe_bound}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if start_parity not in ("odd", "even"):
        raise ValueError(f"start_parity must be 'odd' or 'even', got {start_parity!r}")
    # extend the prefixes in order, so they stay sorted; an entry is 1, 3, 5... above the last
    first = 1 if start_parity == "odd" else 2
    seqs: list[tuple[int, ...]] = [()]
    for i in range(k):
        stop = universe_bound - k + i + 2  # entry i+1 is at most bound - (k-i-1)
        seqs = [acc + (v,) for acc in seqs for v in range(acc[-1] + 1 if acc else first, stop, 2)]
    return seqs
