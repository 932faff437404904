"""Binary strings themselves: profiles, listings and the Terquem correspondence.

The string-level definitions come first: :func:`linear_pair_counts` and
:func:`circular_pair_counts` read a string's :class:`PairProfile` pair by
pair, and the listings' scan and the oracles' histogram are tested against
them.  The listings realize the sets whose sizes the counting module
computes, in lexicographic order, and the bijection maps 1-pair-free
strings to strictly increasing parity-alternating position sequences (the
sequences counted by the A046854 triangle).  A process that only counts
never imports this module.
"""

from collections import namedtuple
from collections.abc import Sequence

from .counting import _check_length, _check_oracle_n

_INVERT = str.maketrans("01", "10")


class PairProfile(namedtuple("PairProfile", "n k m")):
    """Length n of a string together with its 0-pair count k and 1-pair count m."""

    __slots__ = ()


def _require_bits(b: str) -> None:
    if not b:
        raise ValueError("empty input")
    if set(b) - {"0", "1"}:
        raise ValueError(f"not a binary string: {b!r}")


def linear_pair_counts(b: str) -> PairProfile:
    """Profile of b under linear adjacency (wraparound excluded).

    k counts indices i in 0..n-2 with b[i] = b[i+1] = 0, m likewise for 1s.
    """
    _require_bits(b)
    pairs = [x for x, y in zip(b, b[1:]) if x == y]  # the bit of each adjacent equal pair
    return PairProfile(len(b), pairs.count("0"), pairs.count("1"))


def circular_pair_counts(b: str) -> PairProfile:
    """Profile of b with position n-1 adjacent to position 0.

    The linear profile plus the wraparound slot (b[-1], b[0]), so for n = 2
    both orderings count and "00" yields k = 2.  Length below 2 is rejected:
    a single bit has no second position to pair with.
    """
    n, k, m = linear_pair_counts(b)
    _check_length(n, circular=True)
    wrap = b[-1] + b[0]
    return PairProfile(n, k + (wrap == "00"), m + (wrap == "11"))


def sd_encode(b: str) -> str:
    """Word over {S, D} describing each adjacent slot of b.

    Letter i is "S" when bits i and i+1 agree and "D" when they differ, so
    the result has length n-1 and its S-count equals k + m of the linear
    profile.
    """
    _require_bits(b)
    return "".join("S" if x == y else "D" for x, y in zip(b, b[1:]))


def invert_bits(b: str) -> str:
    """The bitwise complement; swaps the roles of k and m in any profile."""
    _require_bits(b)
    return b.translate(_INVERT)


def _listing(n: int, k: int, m: int, circular: bool) -> list[str]:
    # String v, read as format(v, f"0{n}b"), over w, which holds under each
    # bit of v the bit before it: v shifted one place, and on a ring the first
    # bit wrapped round under the last.  A line has the n - 1 slots below bit
    # n - 1, so v < 2**(n-1) lists the strings that start with 0; a ring adds
    # the wrap slot, and v runs over all 2**n strings.  A slot is a 1-pair
    # where v & w has a set bit and a 0-pair where v | w has a clear one.
    _check_oracle_n(n, circular)
    width, slots, wrap = f"0{n}b", (1 << n - 1 + circular) - 1, circular << n - 1
    return [
        format(v, width)
        for v in range(slots + 1)
        if ((w := v >> 1 | (v & 1) * wrap) & v).bit_count() == m
        and (slots ^ (v | w)).bit_count() == k
    ]


def enumerate_Z(n: int, k: int, m: int) -> list[str]:
    """All length-n strings starting with 0 with linear profile (k, m).

    Lexicographic order; an exhaustive scan of the 2**(n-1) strings that
    start with 0, so n is refused above the oracle limit,
    ``DEFAULT_ORACLE_LIMIT`` = 20.
    """
    return _listing(n, k, m, False)


def enumerate_circular(n: int, k: int, m: int) -> list[str]:
    """All length-n strings (either leading bit) with circular profile (k, m).

    Lexicographic order: the scan of :func:`enumerate_Z` over all 2**n
    strings, with the wrap slot that joins the last bit to the first added
    to the n - 1 linear ones, so n is refused above the oracle limit too.
    For n = 2 both orderings of the two bits count, as in
    :func:`circular_pair_counts`.
    """
    return _listing(n, k, m, True)


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
    if "11" in b:
        raise ValueError("not in Z(n,k,0): contains a 1-pair")
    return tuple([i for i, x, y in zip(range(1, len(b)), b, b[1:]) if x == y])


def _validate_terquem(t: Sequence[int], bound: int) -> None:
    for i, (prev, v) in enumerate(zip((0, *t), t), start=1):
        if not 1 <= v <= bound:
            raise ValueError(f"invalid Terquem sequence: entry {v} outside 1..{bound}")
        if v <= prev:
            raise ValueError("invalid Terquem sequence: entries must be strictly increasing")
        if v % 2 != i % 2:  # entry i has the parity of i, so the first is odd
            rule = "first entry must be odd" if i == 1 else "entries must alternate parity"
            raise ValueError(f"invalid Terquem sequence: {rule}")


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


def enumerate_terquem(universe_bound: int, k: int) -> list[tuple[int, ...]]:
    """All length-k parity-alternating increasing sequences from {1..bound} that start odd.

    Entry i has the parity of i; there are terquem_T(universe_bound, k) of
    them, in lexicographic order.  The sequences that start even are these
    for universe_bound - 1 with every entry raised by one.
    """
    if universe_bound < 0:
        raise ValueError(f"universe_bound must be >= 0, got {universe_bound}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    # extend the prefixes in order, so they stay sorted; an entry is 1, 3, 5... above the last
    seqs: list[tuple[int, ...]] = [()]
    for i in range(k):
        stop = universe_bound - k + i + 2  # entry i+1 is at most bound - (k-i-1)
        seqs = [acc + (v,) for acc in seqs for v in range(acc[-1] + 1 if acc else 1, stop, 2)]
    return seqs
