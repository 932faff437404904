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
one transfer pass (:func:`_transfer`) seeded two ways, each with its
readout (:func:`_z_layer`); the reduction answers the m = 0 column with the
closed form; and those two and the runs count take every binomial from
:func:`binomial`.

* :func:`z_oracle` -- exhaustive scan of every string, the ground truth;
* :func:`z_recur_split` -- recurrence on the last bit;
* :func:`z_recur_firstone` -- recurrence on the first-1 position;
* :func:`z_reduce_to_m0` -- reduction to the m = 0 column;
* :func:`z_closed_m0` -- closed form for that column;
* :func:`z_auto` -- the runs count, two binomials: the fast path.

The oracles and ``verify_all``'s end-bit parity check share one histogram
of the 2**(n-1) strings that start with 0 (:func:`_profile_histogram`).  It
reads each string's pair counts off the bits of its index with
``int.bit_count``, and the last bit fixes the ring the string closes into
(see :func:`s_circular_oracle`).  This scan visits no string that starts
with 1: each is the complement of one that starts with 0, with k and m
swapped.  The listings in ``enumeration`` print strings, not counts, so
they read the same bits in a scan of their own: ``enumerate_Z`` over the
strings that start with 0, and ``enumerate_circular`` over all 2**n with
the wrap slot added.  The string-level definitions that the scans and the
rings are tested against, ``linear_pair_counts`` and
``circular_pair_counts`` with their ``PairProfile``, live in
``enumeration`` beside the listings, so a process that only counts never
builds them.

The transfer pass steps bottom-up to a length n on two grids of the
query's (k + 1) x (m + 1) cells, one per last bit, so the recurrences'
memory is bounded, and returns the grids at n: a recurrence reads them at
its n, and ``verify_all`` runs one pass per seed to each length it checks,
on the (n + 1) x (n + 1) grid.  A grid is k + 1 ints, one per row, each
holding the row's m + 1 cells in n-bit slots: no cell at a length L <= n
exceeds 2**(L-1), so no slot carries into the next, and one int addition
or shift steps a whole row.  A pass above ``TRANSFER_GRID_BITS`` = 2**30
bits a grid is refused with a ValueError before it starts.

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
power of two it has needed, at most ``PRIME_TABLE_LIMIT`` = 2**25.
``cache_clear()`` empties either.
"""

import math
from bisect import bisect_right
from collections import Counter
from collections.abc import Callable
from functools import lru_cache, partial
from itertools import compress, product
from operator import add

# the one bound on every exhaustive scan: at n = 20 a pass reads the 2**19
# strings that start with 0, and a ring listing all 2**20 strings
DEFAULT_ORACLE_LIMIT = 20

_Grid = list[list[int]]  # cell [a][b] for profile (a, b), 0 <= a <= k, 0 <= b <= m


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

    math.comb answers while b * b <= _COMB_CUTOFF * a, with b = min(b, a-b),
    for b <= 2**17; a larger b there, which needs a > 6.8e7, raises a
    ValueError, "binomial too large for math.comb: ...", before math.comb
    runs.  Beyond the cut-off the prime-power kernel answers, for
    a <= ``PRIME_TABLE_LIMIT`` = 2**25.  Past that bound the kernel raises a
    ValueError, "binomial too large for the prime table: ...", before it
    builds a table.
    """
    if a < 0 or b < 0 or b > a:
        return 0
    b = min(b, a - b)
    if b * b <= _COMB_CUTOFF * a:
        if b > 1 << 17:  # math.comb's divisions are quadratic; see _COMB_CUTOFF
            raise ValueError(f"binomial too large for math.comb: C({a}, {b}), b > 2**17")
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
# math.comb) below b * b = 40 * a.  math.comb's side is bounded at b = 2**17,
# where it took about 3 s at a = 10**10 on 3.11 (0.8-0.9 s at b = 2**16); the cut-off sends
# such a b to math.comb only above a = 2**34 / 250, about 6.8e7, where the
# kernel's table is refused too.
_COMB_CUTOFF = 250

# the largest a of a C(a, b) the kernel answers, and so its largest prime
# table, the primes up to 2**25: a 16 MiB sieve and 2.06M primes in 16.5 MB.
# At (n, 0.24n, 0.16n) that admits n up to 6.2e7, a count that took 77 s
# and peaked at 108 MB RSS on CPython 3.11; the largest at 2**24, n = 3.1e7,
# took 22 s and 71 MB, and the n = 1.6e7 headline needs 2**24
PRIME_TABLE_LIMIT = 1 << 25


@lru_cache(maxsize=None)
def _primes_to(limit: int) -> "array":
    """Every prime <= limit, ascending, from a throwaway sieve; callers share it."""
    from array import array  # its only use: a count that takes no kernel binomial never loads it

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
    if a > PRIME_TABLE_LIMIT:  # its table would hold the primes past 2**25
        raise ValueError(f"binomial too large for the prime table: C({a}, {b}), a > 2**25")
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


def _check_length(n: int, circular: bool) -> None:
    if circular:
        if n < 2:
            raise ValueError("circular adjacency undefined below length 2")
    elif n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def wrap_parity_predicts_equal_ends(n: int, k: int, m: int) -> bool:
    """Whether any string with linear profile (n, k, m) has equal end bits.

    The bits flip exactly at the n-1-k-m "D" slots, so the ends agree iff
    that flip count is even, i.e. iff n + k + m is odd.
    """
    return (n + k + m) % 2 == 1


def z_base_case(n: int, k: int, m: int) -> int | None:
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


@lru_cache(maxsize=None)
def _profile_histogram(n: int) -> dict[tuple[int, int, int], int]:
    """How many strings that start with 0 have each (k, m, last bit): one pass per n.

    Those are the v < 2**(n-1), v read as format(v, f"0{n}b").  Bit i of v
    holds string position n-1-i, so v & 1 is the last bit; bit i of
    v & v >> 1 is set exactly when positions n-2-i and n-1-i are both 1, and
    a clear bit of v | v >> 1 among the n-1 adjacent slots marks a 0-pair.
    """
    slots = (1 << (n - 1)) - 1
    return dict(Counter(((slots ^ (v | v >> 1)).bit_count(), (v & v >> 1).bit_count(), v & 1)
                        for v in range(slots + 1)))


def z_oracle(n: int, k: int, m: int) -> int:
    """z(n, k, m) by scanning every length-n string that starts with 0.

    Ground truth for the formula-based routes.  One pass reads each string's
    pair counts and last bit off the bits of its index (see
    :func:`_profile_histogram`, which the tests pin to
    :func:`~bitpairs.enumeration.linear_pair_counts`) and histograms all of
    that n, so repeated queries at the same n cost nothing extra; z sums the
    two last-bit cells of (k, m).  Exponential in n: refused above the oracle limit,
    ``DEFAULT_ORACLE_LIMIT`` = 20.
    """
    _check_oracle_n(n, False)
    return sum(_profile_histogram(n).get((k, m, last), 0) for last in (0, 1))


def s_circular_oracle(n: int, k: int, m: int) -> int:
    """Circular-adjacency count of all 2**n strings, by scanning half of them.

    The wrap slot pairs a string's last bit with its first.  A string that
    starts with 0 gains a 0-pair there exactly when its last bit is 0, so it
    closes into a (k, m) ring when its linear (k, m, last bit) cell is
    (k - 1, m, 0) or (k, m, 1).  A ring that starts with 1 is the complement
    of one that starts with 0 and closes into (m, k), whose cells are
    (m - 1, k, 0) and (m, k, 1).  Same histogram, and so the same scan and
    limit, as :func:`z_oracle`.
    """
    _check_oracle_n(n, True)
    cells = _profile_histogram(n)
    return sum(cells.get(key, 0) for key in ((k - 1, m, 0), (k, m, 1), (m - 1, k, 0), (m, k, 1)))


# ---------------------------------------------------------------------------
# Routes 2 and 3: the recurrences, evaluated bottom-up over n
# ---------------------------------------------------------------------------


# the most bits a transfer pass may hold in one end-bit grid, (k + 1)(m + 1)n:
# 128 MiB; every query of the tests, the demos and the benchmark needs at most
# 4.9 Mbit, at (n, k, m) = (500, 120, 80)
TRANSFER_GRID_BITS = 1 << 30


def _transfer(n: int, k: int, m: int, from_one: bool) -> tuple[list[int], list[int]]:
    """The last-bit transfer pass: (end0, end1) at length n.

    The strings grow from "0", and also from "1" when ``from_one``.
    end0[a][b] and end1[a][b] count the strings of the current length with
    profile (a, b), 0 <= a <= k, 0 <= b <= m, that end in 0 and in 1.  Each
    step appends a bit: a 0 adds a 0-pair after a 0, and a 1 a 1-pair after
    a 1, so end0'[a][b] = end0[a-1][b] + end1[a][b] and
    end1'[a][b] = end0[a][b] + end1[a][b-1].

    Each grid is a list of k + 1 ints, one per row a, holding cell b in bits
    n*b to n*b + n - 1 (read by :func:`_cells`).  Every cell that the pass
    or a readout forms counts strings of one length L <= n that all end in
    the same bit, or all start with 0, so it is at most 2**(L-1) < 2**n and
    no slot carries into the next.  So one int addition adds every cell of
    a row, and a shift by n moves each cell b to b + 1 (the 1-pair axis of
    the transfer matrix evaluated at 2**n): a step is 2(k + 1) int
    operations on rows of (m + 1)n bits, not 2(k + 1)(m + 1) additions.
    A pass whose grid would exceed ``TRANSFER_GRID_BITS`` = 2**30 bits is
    refused with a ValueError, "recurrence grid too large: ...", before it
    allocates a row.
    """
    bits = (k + 1) * (m + 1) * n
    if bits > TRANSFER_GRID_BITS:
        raise ValueError(f"recurrence grid too large: (k+1)(m+1)n = {bits} bits > 2**30")
    row_mask = (1 << n * (m + 1)) - 1
    end0 = [int(a == 0) for a in range(k + 1)]
    end1 = end0 if from_one else [0] * (k + 1)
    for _ in range(n - 1):
        end0, end1 = (
            list(map(add, [0, *end0], end1)),  # map stops with end1, at row k
            [row0 + (row1 << n & row_mask) for row0, row1 in zip(end0, end1)],
        )
    return end0, end1


def _cells(rows: list[int], w: int, m: int) -> _Grid:
    """The cells b = 0..m of each packed row, w bits a cell."""
    mask = (1 << w) - 1
    return [[row >> w * b & mask for b in range(m + 1)] for row in rows]


def _z_layer(end0: list[int], end1: list[int], from_one: bool, n: int, m: int) -> _Grid:
    """z(n, a, b) on the grid, from the rows that :func:`_transfer`'s pass to n returns.

    Grown from "0" alone (the last-bit split), z sums the two end-bit grids,
    one int addition a row, as a string ends in one bit only.  Grown from
    both one-bit strings (first-one), z is end0: w(L, a, b) = z(L, b, a)
    counts the length-L strings that start with 1, by complement.
    At length L, p[a][b] is the diagonal sum of w(L-i, a-i, b) over i >= 0,
    which is z(L+1, a, b): i+1 leading 0s, then a string that starts with 1
    or is empty.  Likewise q[a][b], the diagonal sum of z(L-i, a, b-i), is
    w(L+1, a, b).  By reversal, p and q count all strings of length L+1,
    either leading bit, that end in 0 and in 1, so they step as end0 and
    end1 do, seeded at L = 0 with both one-bit strings; p is z.
    """
    return _cells(end0 if from_one else list(map(add, end0, end1)), n, m)


def _layer_cell(n: int, k: int, m: int, cache: MemoCache | None, from_one: bool) -> int:
    base = z_base_case(n, k, m)
    if base is not None:
        return base
    if cache is not None and (n, k, m) in cache:
        return cache[n, k, m]
    end0, end1 = _transfer(n, k, m, from_one)
    if cache is None:
        return _z_layer(end0[k:], end1[k:], from_one, n, m)[0][m]  # row k alone
    layer = _z_layer(end0, end1, from_one, n, m)
    for a, b in product(range(k + 1), range(m + 1)):
        cache[n, a, b] = layer[a][b]
    return layer[k][m]


def z_recur_split(n: int, k: int, m: int, cache: MemoCache | None = None) -> int:
    """z via the last-bit case split (transfer matrices, Stanley *EC1* §4.7).

    A counted string of length n >= 2 is a shorter one with a bit appended,
    so :func:`_transfer` counts them by last bit bottom-up from "0".
    A given ``cache`` receives the cells of the final layer, so once warm it
    answers later queries at the same n; shared with the other recurrence, it
    raises where the two routes disagree.  A pass whose grid would hold more
    than ``TRANSFER_GRID_BITS`` = 2**30 bits, (k+1)(m+1)n, raises
    ``ValueError("recurrence grid too large: ...")`` before it allocates one.
    """
    return _layer_cell(n, k, m, cache, False)


def z_recur_firstone(n: int, k: int, m: int, cache: MemoCache | None = None) -> int:
    """z via the position of the first 1.

    For non-boundary input, z(n,k,m) is the sum over f = 1..k+1 of
    z(n-f, m, k+1-f): everything before the first 1 is a block of f leading
    0s contributing f-1 0-pairs, and what remains is a smaller instance with
    the pair roles swapped, on one diagonal of the lower layers, which the
    transfer pass to n sums as it goes (see :func:`_z_layer`).  ``cache``
    and the grid bound work as for :func:`z_recur_split`.
    """
    return _layer_cell(n, k, m, cache, True)


# ---------------------------------------------------------------------------
# Routes 4 to 6: the reduction to m = 0, its closed form, the runs count
# ---------------------------------------------------------------------------


def terquem_T(n: int, k: int) -> int:
    """Entry of the triangle C(floor((n+k)/2), k), OEIS A046854.

    Counts the strictly increasing, parity-alternating sequences of length k
    from {1..n} that start odd; those that start even from {1..n+1} are the
    same sequences with every entry raised by one.
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
