"""Exact counts of adjacent equal-bit pairs in binary strings.

Conventions used throughout the package:

* A *0-pair* is a position i with bits i and i+1 both 0; a *1-pair* likewise
  for 1s.  Under linear adjacency only positions 0..n-2 are considered; under
  circular adjacency position n-1 is also adjacent to position 0.
* ``z(n, k, m)`` is the number of length-n binary strings that start with 0
  and contain exactly k 0-pairs and m 1-pairs under linear adjacency.
* ``s_circular(n, k, m)`` counts all length-n strings, either leading bit,
  with exactly k 0-pairs and m 1-pairs under circular adjacency.

z is computed by six routes that the test-suite cross-checks against each
other.  They are not six independent derivations: the two recurrences are
one stepped transfer pass (:func:`_transfer`) seeded two ways, each with its
readout (:func:`_z_layer`); the reduction answers the m = 0 column with the
closed form; and those two and the runs count take every binomial from
:func:`binomial`.

* :func:`z_oracle` -- exhaustive scan of every string, the ground truth;
* :func:`z_recur_split` -- recurrence on the last bit;
* :func:`z_recur_firstone` -- recurrence on the first-1 position;
* :func:`z_reduce_to_m0` -- reduction to the m = 0 column;
* :func:`z_closed_m0` -- closed form for that column;
* :func:`z_auto` -- the runs count, two binomials: the fast path.

The oracles, the enumerators and ``verify_all``'s end-bit parity check share
one scan of the 2**(n-1) strings that start with 0 (:func:`_profiles`).  It
reads each string's pair counts off the bits of its index with
``int.bit_count``, and the last bit fixes the ring the string closes into
(:func:`_ring_keys`).  No scan visits a string that starts with 1: each is
the complement of one that starts with 0, with k and m swapped.
:func:`linear_pair_counts` and :func:`circular_pair_counts` remain the
string-level definitions the scan and the rings are tested against.

The transfer pass steps bottom-up over n on two grids of the query's
(k + 1) x (m + 1) cells, one per last bit, so the recurrences' memory is
bounded; a recurrence reads the layer at its n, and ``verify_all`` reads
every layer of one pass per seed.

All counts are exact Python ints, so no n within reach of the fast methods
overflows.  :func:`decimal_digits` is the one place a count becomes decimal
text, for every command and rendering: ``str()`` while the interpreter's
int -> str digit limit allows it, and beyond that a divide-and-conquer
conversion in the C ``decimal`` module, imported on that path only, so a
process that prints only small counts never loads it.  :func:`decimal_int`
is its inverse, with which tables are read back.

Every function is a pure function of its arguments; the recurrences'
optional caches are explicit write-once maps, so concurrent callers can
either share a cache or use one per thread with identical results.  Two
hidden caches never change a result, and both are
``functools.lru_cache``s of pure functions: the oracles' histogram per n,
n within the oracle limit, and the kernel's table of the primes up to each
power of two it has needed.  ``cache_clear()`` empties either.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections import Counter
from functools import lru_cache, partial
from itertools import compress, islice, product
from operator import add
from typing import Callable, Iterator, NamedTuple, Optional

# the one bound on every exhaustive scan: a pass reads the 2**(n-1) strings
# that start with 0, so at most 2**19 at n = 20
DEFAULT_ORACLE_LIMIT = 20
# the choices of `tables` and the CLI, kept here so building the parser imports no tables
Z_TABLE_FORMATS = ("csv", "tsv", "json")
TRIANGLE_FORMATS = ("csv", "bfile")
VERIFY_MODES = ("linear", "circular", "both")

_Grid = list[list[int]]  # cell [a][b] for profile (a, b), 0 <= a <= k, 0 <= b <= m


class PairProfile(NamedTuple):
    """Length of a string together with its 0-pair and 1-pair counts."""

    n: int
    k: int
    m: int


class MemoCache(dict):
    """Write-once map from (n, k, m) triples to exact counts.

    A recurrence given a cache stores there every cell (n, a, b) of the final
    layer it computed, so a warm cache answers later queries at the same n
    without another pass.  Both recurrences use the same keys, so a single
    cache may be shared between them (and between threads: entries are
    immutable ints and rewriting an identical value is a no-op).  Rewriting
    a key with a *different* value raises, so a shared cache turns any
    disagreement of the two routes on a cell they both wrote into a loud
    failure instead of a wrong count.  The check and the write are one
    ``dict.setdefault``, so of several threads writing one key the first
    value stays and every different one raises.  Only item assignment is
    checked: ``update()`` and ``|=`` are dict's own and overwrite silently.
    """

    def __setitem__(self, key: tuple[int, int, int], value: int) -> None:
        old = self.setdefault(key, value)
        if old != value:
            raise ValueError(f"memo cache overwrite at {key}: {old} -> {value}")


def binomial(a: int, b: int) -> int:
    """C(a, b), defined as 0 whenever a < 0, b < 0 or b > a.

    math.comb answers while b * b <= _COMB_CUTOFF * a, with b = min(b, a-b);
    beyond that the prime-power kernel does.
    """
    if a < 0 or b < 0 or b > a:
        return 0
    b = min(b, a - b)
    if b * b <= _COMB_CUTOFF * a:
        return math.comb(a, b)
    return _prime_power_binomial(a, b)


# math.comb ends in big-int divisions, which CPython does in quadratic time;
# the kernel only multiplies, but pays a Python step per prime up to b and a
# bisection per slice up to a / b.  Timed on CPython 3.11, the two break even
# near b * b = 140 * a at a = 1000, 90 * a at a = 2000, 40 * a at a = 10**4
# and 10-20 * a at a = 10**5 to 3 * 10**5.  At this cut-off, which sends
# nothing below a = 1000 to the kernel (b <= a / 2), the kernel is 1.5x
# faster at a = 1000, 4x at 10**4 and 5-6x at 10**5 to 3 * 10**5; a cut-off
# of 150-200 would hand it binomials at a = 600-800 where math.comb is as
# fast or faster.  3.12 breaks even at about the same points, 3.10 (a slower
# math.comb) below b * b = 40 * a.
_COMB_CUTOFF = 250

@lru_cache(maxsize=None)
def _primes_to(limit: int) -> array:
    """Every prime <= limit, ascending, from a throwaway sieve; callers share it."""
    sieve = bytearray(b"\x01") * ((limit + 1) // 2)  # sieve[i] for the odd 2i + 1
    sieve[:1] = b"\x00"
    for p in range(3, math.isqrt(limit) + 1, 2):
        if sieve[p // 2]:
            sieve[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(sieve), p)))
    return array("L", [2] * (limit > 1)) + array("L", compress(range(1, limit + 1, 2), sieve))


def _product(factors: list[int]) -> int:
    """Product of factors: math.prod over runs of 16, then a balanced tree."""
    factors = [math.prod(factors[i : i + 16]) for i in range(0, len(factors), 16)]
    while len(factors) > 1:
        odd = factors[-1:] if len(factors) % 2 else []
        factors = list(map(int.__mul__, factors[::2], factors[1::2])) + odd
    return factors[0] if factors else 1


def _prime_power_binomial(a: int, b: int) -> int:
    """C(a, b) for 0 <= b <= a as a product of prime powers (Goetgheluck 1987).

    By Legendre's formula a prime p divides C(a, b) exactly
    sum_i floor(a/p^i) - floor(b/p^i) - floor(r/p^i) times, r = a - b.
    With b <= r: a prime p <= sqrt(a) takes the full sum; above sqrt(a) one
    term remains, 1 exactly when a mod p < b mod p, tested in one pass over
    the table's primes in (sqrt(a), b].  A prime p > max(b, sqrt(a)) has
    floor(a/p) = j for p in (a/(j+1), a/j], and its term is 1 exactly when
    p > r/j: those primes fill the slices (r/j, a/j], j >= 1, so each slice
    is a range of the prime table, found by bisection and copied without a
    test per prime (j = 1 gives every prime in (r, a]).
    """
    b = min(b, a - b)
    r = a - b
    primes = _primes_to(1 << (a - 1).bit_length())  # one table per power of two
    root = math.isqrt(a)
    above = max(b, root)
    small = bisect_right(primes, root)

    factors = []
    for p in primes[:small]:
        e, q = 0, p
        while q <= a:
            e += a // q - b // q - r // q
            q *= p
        factors.append(p**e)
    factors += [p for p in primes[small : bisect_right(primes, b)] if a % p < b % p]
    for j in range(1, a // (above + 1) + 1):
        factors += primes[bisect_right(primes, max(r // j, above)) : bisect_right(primes, a // j)]
    return _product(factors)


def decimal_digits(value: int) -> str:
    """``str(value)`` for an exact int of any size: the decimal text of every printed count.

    When ``str`` refuses a value for having more digits than the
    interpreter's int -> str limit allows (4300 by default), the value is
    split at bit s into hi * 2**s + lo, both halves are converted alike down
    to leaves of at most 14000 bits, and the parts are recombined in the C
    ``decimal`` module (``_decimal``, libmpdec), whose big products use a
    number-theoretic transform and which no digit limit applies to.
    CPython 3.12's ``Lib/_pylong.py`` converts by the same idea.  The
    context holds any such int exactly and traps Rounded, which every
    Inexact also signals, so a lost digit raises.  ``_decimal`` is imported
    on that path only.  Where it is missing, the value is refused with
    ``str``'s own ValueError: pure-Python decimal arithmetic at this
    precision would not finish.  No interpreter setting is read or changed.
    """
    try:
        return str(value)
    except ValueError as refused:  # more digits than the int -> str limit allows
        try:
            import _decimal as decimal
        except ImportError:
            raise refused from None
    ctx = decimal.Context(decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Rounded])
    power = lru_cache(maxsize=None)(partial(ctx.power, 2))  # 2**s, once per split size s

    def convert(v: int, bits: int) -> decimal.Decimal:
        if bits <= 14000:
            return decimal.Decimal(v)
        s = bits // 2
        return ctx.fma(convert(v >> s, bits - s), power(s), convert(v & ((1 << s) - 1), s))

    return str(convert(value, value.bit_length()))


def decimal_int(text: str) -> int:
    """``int(text)`` for decimal text of any size: the inverse of :func:`decimal_digits`.

    Whatever ``int`` accepts it reads.  When ``int`` refuses a plain run of
    ASCII digits, with an optional leading "-", it can only be for the
    interpreter's int <-> str digit limit, and the ``decimal`` module reads
    it instead: ``int(Decimal(text))`` in the C module is exact and no
    digit limit applies to it.  Where only the pure-Python module exists,
    it converts through ``int(str)`` and so raises the same ValueError as
    ``int``.  Other text keeps ``int``'s own ValueError.  No interpreter
    setting is read or changed.  Like ``int(str)`` on CPython 3.11, the
    conversion takes time quadratic in the digits.
    """
    try:
        return int(text)
    except ValueError:
        if not (text.isascii() and text.removeprefix("-").isdigit()):
            raise
    import decimal

    return int(decimal.Decimal(text))


def _require_bits(b: str) -> None:
    if not b:
        raise ValueError("empty input")
    if set(b) - {"0", "1"}:
        raise ValueError(f"not a binary string: {b!r}")


def _check_length(n: int, circular: bool) -> None:
    if circular:
        if n < 2:
            raise ValueError("circular adjacency undefined below length 2")
    elif n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def linear_pair_counts(b: str) -> PairProfile:
    """Profile of b under linear adjacency (wraparound excluded).

    k counts indices i in 0..n-2 with b[i] = b[i+1] = 0, m likewise for 1s.
    """
    _require_bits(b)
    k = m = 0
    for x, y in zip(b, b[1:]):
        if x == y:
            if x == "0":
                k += 1
            else:
                m += 1
    return PairProfile(len(b), k, m)


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


def wrap_parity_predicts_equal_ends(n: int, k: int, m: int) -> bool:
    """Whether any string with linear profile (n, k, m) has equal end bits.

    The bits flip exactly at the n-1-k-m "D" slots, so the ends agree iff
    that flip count is even, i.e. iff n + k + m is odd.
    """
    return (n + k + m) % 2 == 1


def z_base_case(n: int, k: int, m: int) -> Optional[int]:
    """Boundary value of z(n, k, m), or None when a recurrence is needed.

    Zero for non-positive n or negative k/m, and whenever k + m >= n (a
    length-n string only has n-1 adjacent slots).  When every slot is a pair
    (k + m = n - 1) the string is constant, and starting with 0 forces the
    all-zeros string: 1 for (k, m) = (n-1, 0), else 0.
    """
    if n <= 0 or k < 0 or m < 0:
        return 0
    if k + m >= n:
        return 0
    if k + m == n - 1:
        return 1 if (k == n - 1 and m == 0) else 0
    return None


# ---------------------------------------------------------------------------
# Route 1: the exhaustive oracle
# ---------------------------------------------------------------------------


def _check_oracle_n(n: int, circular: bool) -> None:
    _check_length(n, circular)
    if n > DEFAULT_ORACLE_LIMIT:
        raise ValueError(f"oracle limit exceeded: n={n} > {DEFAULT_ORACLE_LIMIT}")


def _profiles(n: int) -> Iterator[tuple[int, int, int]]:
    """(v, k, m) for every string that starts with 0, v read as format(v, f"0{n}b").

    Those are the v < 2**(n-1).  Bit i of v holds string position n-1-i, so
    v & 1 is the last bit; bit i of v & v >> 1 is set exactly when positions
    n-2-i and n-1-i are both 1, and a clear bit of v | v >> 1 among the n-1
    adjacent slots marks a 0-pair.
    """
    slots = (1 << (n - 1)) - 1
    for v in range(slots + 1):
        yield v, (slots ^ (v | v >> 1)).bit_count(), (v & v >> 1).bit_count()


@lru_cache(maxsize=None)
def _profile_histogram(n: int) -> dict[tuple[int, int, int], int]:
    # One pass per n over the strings that start with 0, keyed (k, m, last bit).
    return dict(Counter((k, m, v & 1) for v, k, m in _profiles(n)))


def _ring_keys(k: int, m: int) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Histogram keys of the strings that start with 0 and close into (k, m) rings.

    Keys are (k, m, last bit) of the linear profile.  The wrap slot pairs the
    last bit with the leading 0, so it adds a 0-pair exactly when the last
    bit is 0.
    """
    return (k - 1, m, 0), (k, m, 1)


def z_oracle(n: int, k: int, m: int) -> int:
    """z(n, k, m) by scanning every length-n string that starts with 0.

    Ground truth for the formula-based routes.  One pass reads each string's
    pair counts and last bit off the bits of its index (see
    :func:`_profiles`, which the tests pin to :func:`linear_pair_counts`) and
    histograms all of that n, so repeated queries at the same n cost nothing
    extra; z sums the two last-bit cells of (k, m).  Exponential in n:
    refused above the oracle limit, ``DEFAULT_ORACLE_LIMIT`` = 20.
    """
    _check_oracle_n(n, False)
    return sum(_profile_histogram(n).get((k, m, last), 0) for last in (0, 1))


def s_circular_oracle(n: int, k: int, m: int) -> int:
    """Circular-adjacency count of all 2**n strings, by scanning half of them.

    A string that starts with 0 closes into a (k, m) ring when its histogram
    cell is one of the :func:`_ring_keys` of (k, m).  A ring that starts with
    1 is the complement of one that starts with 0 and closes into (m, k), so
    the count adds the cells of both key pairs.  Same histogram, and so the
    same scan and limit, as :func:`z_oracle`.
    """
    _check_oracle_n(n, True)
    return sum(_profile_histogram(n).get(key, 0) for key in _ring_keys(k, m) + _ring_keys(m, k))


# ---------------------------------------------------------------------------
# Routes 2 and 3: the recurrences, evaluated bottom-up over n
# ---------------------------------------------------------------------------


def _transfer(k: int, m: int, from_one: bool) -> Iterator[tuple[_Grid, _Grid]]:
    """The last-bit transfer pass: (end0, end1) at lengths 1, 2, 3, ...

    The strings grow from "0", and also from "1" when ``from_one``.
    end0[a][b] and end1[a][b] count the strings of the current length with
    profile (a, b), 0 <= a <= k, 0 <= b <= m, that end in 0 and in 1.  Each
    step appends a bit: a 0 adds a 0-pair after a 0, and a 1 a 1-pair after
    a 1, so end0'[a][b] = end0[a-1][b] + end1[a][b] and
    end1'[a][b] = end0[a][b] + end1[a][b-1].  Every step builds new grids
    from the ones it yielded, so those must not be changed in place.
    """
    zero = [0] * (m + 1)
    end0 = [[int(a == b == 0) for b in range(m + 1)] for a in range(k + 1)]
    end1 = end0 if from_one else [zero] * (k + 1)
    while True:
        yield end0, end1
        end0, end1 = (
            [list(map(add, up0, row1)) for up0, row1 in zip([zero, *end0], end1)],
            [list(map(add, row0, (0, *row1[:-1]))) for row0, row1 in zip(end0, end1)],
        )


def _z_layer(end0: _Grid, end1: _Grid, from_one: bool) -> _Grid:
    """z(n, a, b) on the grid, from :func:`_transfer`'s grids at length n.

    Grown from "0" alone (the last-bit split), z sums the two end-bit grids.
    Grown from both one-bit strings (first-one), z is end0: w(L, a, b) =
    z(L, b, a) counts the length-L strings that start with 1, by complement.
    At length L, p[a][b] is the diagonal sum of w(L-i, a-i, b) over i >= 0,
    which is z(L+1, a, b): i+1 leading 0s, then a string that starts with 1
    or is empty.  Likewise q[a][b], the diagonal sum of z(L-i, a, b-i), is
    w(L+1, a, b).  By reversal, p and q count all strings of length L+1,
    either leading bit, that end in 0 and in 1, so they step as end0 and
    end1 do, seeded at L = 0 with both one-bit strings; p is z.
    """
    if from_one:
        return end0
    return [list(map(add, row0, row1)) for row0, row1 in zip(end0, end1)]


def _layer_cell(n: int, k: int, m: int, cache: Optional[MemoCache], from_one: bool) -> int:
    base = z_base_case(n, k, m)
    if base is not None:
        return base
    if cache is not None and (n, k, m) in cache:
        return cache[n, k, m]
    layer = _z_layer(*next(islice(_transfer(k, m, from_one), n - 1, None)), from_one)
    if cache is not None:
        for a, b in product(range(k + 1), range(m + 1)):
            cache[n, a, b] = layer[a][b]
    return layer[k][m]


def z_recur_split(n: int, k: int, m: int, cache: Optional[MemoCache] = None) -> int:
    """z via the last-bit case split (transfer matrices, Stanley *EC1* §4.7).

    A counted string of length n >= 2 is a shorter one with a bit appended,
    so :func:`_transfer` counts them by last bit bottom-up from "0".
    A given ``cache`` receives the cells of the final layer, so once warm it
    answers later queries at the same n; shared with the other recurrence, it
    raises where the two routes disagree.
    """
    return _layer_cell(n, k, m, cache, False)


def z_recur_firstone(n: int, k: int, m: int, cache: Optional[MemoCache] = None) -> int:
    """z via the position of the first 1.

    For non-boundary input, z(n,k,m) is the sum over f = 1..k+1 of
    z(n-f, m, k+1-f): everything before the first 1 is a block of f leading
    0s contributing f-1 0-pairs, and what remains is a smaller instance with
    the pair roles swapped, on one diagonal of the lower layers (see
    :func:`_z_layer`).  ``cache`` works as for :func:`z_recur_split`.
    """
    return _layer_cell(n, k, m, cache, True)


# ---------------------------------------------------------------------------
# Routes 4 to 6: the reduction to m = 0, its closed form, the runs count
# ---------------------------------------------------------------------------


def terquem_T(n: int, k: int) -> int:
    """Entry of the triangle C(floor((n+k)/2), k), OEIS A046854.

    Counts the strictly increasing, parity-alternating sequences of length k
    from {1..n} that start odd (and, from {1..n+1}, those that start even).
    k beyond n yields 0 through the binomial convention.
    """
    if n < 0 or k < 0:
        raise ValueError("triangle index out of range")
    return binomial((n + k) // 2, k)


def z_closed_m0(n: int, k: int) -> int:
    """The 1-pair-free column: z(n, k, 0) = T(n-1, k) = C(floor((n+k-1)/2), k)."""
    if n < 1 or k < 0:
        return 0
    return terquem_T(n - 1, k)


def z_reduce_to_m0(n: int, k: int, m: int) -> int:
    """z by expanding 1-runs back into a 1-pair-free string.

    Deleting every run of two or more 1s from a counted string leaves a
    string with no 1-pairs; re-injecting the runs is a weighted choice of
    injection sites and run lengths.  With f deleted runs and C(m-1, f-1)
    ways to split the m pairs over them, z is the sum over f = 1..m of
    t_f = C(m-1, f-1) C(k+f, f) z(n-m-f, k+f, 0) for strings not ending in
    11 plus, when n+k+m is even (the only parity at which a counted string
    can end in 11), u_f = C(m-1, f-1) C(k+f-1, f-1) z(n-m-f, k+f-1, 0).

    Deleting f runs removes m+f ones and joins their neighbouring 0s into f
    new 0-pairs (f-1 if the last run ends the string), so length plus 0-pairs
    is the same for every f and the z values are C(a, k+f) and C(b, k+f-1)
    on two fixed Pascal rows, a = floor((n-m+k-1)/2), b = floor((n-m+k-2)/2).
    Hence t_{f+1}/t_f = (a-k-f)(m-f)/(f(f+1)), u_{f+1}/u_f = (b-k-f+1)(m-f)/f^2:
    two binomials, then O(m) exact small-factor steps; a 0 factor ends a series.
    """
    base = z_base_case(n, k, m)
    if base is not None:
        return base
    if m == 0:
        return z_closed_m0(n, k)
    a, b = (n - m + k - 1) // 2, (n - m + k - 2) // 2
    t = (k + 1) * binomial(a, k + 1)
    u = binomial(b, k) if (n + k + m) % 2 == 0 else 0
    total = 0
    for f in range(1, m + 1):
        total += t + u
        t = t * (a - k - f) * (m - f) // (f * (f + 1))
        u = u * (b - k - f + 1) * (m - f) // (f * f)
    return total


def z_auto(n: int, k: int, m: int) -> int:
    """z by counting runs (Mood 1940, *Ann. Math. Stat.* 11:367-392).

    A counted string is r = n-k-m alternating runs that start with a 0-run,
    so it has ceil(r/2) 0-runs and ones = floor(r/2) 1-runs.  A run of
    length L holds L-1 pairs, so the 0-runs split the n-m-ones zeros into
    ceil(r/2) positive parts, C(n-m-ones-1, k) ways, and the 1-runs split
    the m+ones ones into ones positive parts, C(m+ones-1, m) ways.  Off the
    boundary r >= 2, so both run counts are positive.  Two binomials, no
    loop, and a derivation independent of every other route.
    """
    base = z_base_case(n, k, m)
    if base is not None:
        return base
    ones = (n - k - m) // 2
    return binomial(n - m - ones - 1, k) * binomial(m + ones - 1, m)


# ---------------------------------------------------------------------------
# The circular case
# ---------------------------------------------------------------------------


def s_circular(
    n: int, k: int, m: int, *, z: Callable[[int, int, int], int] = z_auto
) -> int:
    """Number of length-n strings with circular profile (k, m), from one z.

    Zero whenever n + k + m is odd: closing the wraparound slot either adds
    a pair or does not, and both outcomes force n + k + m even via the
    end-bit parity rule.  Otherwise a ring that is not constant has r 0-runs
    and r 1-runs, r = (n-k-m)/2.  Count the pairs (string, position where a
    0-run starts) two ways: each string has r of them, and rotating a string
    to start at one gives a string that starts with 0, ends with 1 and so
    has linear profile (k, m); conversely each of the n rotations of a
    string counted by z(n, k, m) (it ends with 1, as n + k + m is even) is
    such a pair.  So r * s(n, k, m) = n * z(n, k, m).  At r = 0 only the
    constant rings remain: all 0s at (n, 0) and all 1s at (0, n).  ``z``
    selects the linear-count route (default: z_auto, which makes this
    n * C(k+r-1, r-1) * C(m+r-1, r-1) / r).
    """
    _check_length(n, circular=True)
    r = (n - k - m) // 2
    if (n + k + m) % 2 == 1 or r < 0:
        return 0
    if r == 0:
        return int((k, m) in ((n, 0), (0, n)))
    return n * z(n, k, m) // r
