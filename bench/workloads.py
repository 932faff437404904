"""Seeded workload generators for the bitpairs benchmark.

Each workload is an endless stream of blocks.  A block holds a fixed number
of ops of each kind, in a seeded random order, and their sizes come from
:class:`Draw`.  An op is the argument list of one ``bitpairs`` CLI call plus the
parameters the checker needs to judge its output.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, NamedTuple

WORKLOADS = ("count_large", "cli_small", "tables_verify")


class Op(NamedTuple):
    argv: tuple[str, ...]  # arguments to the bitpairs CLI; argv[0] is the subcommand
    params: dict  # what the checker and the layer probes need


_PRIMES = [p for p in range(2, 400) if all(p % q for q in range(2, int(p**0.5) + 1))]


class Draw:
    """Seeded quasi-random draws: every stretch of the stream covers each range evenly.

    Dimension d (a name) yields frac(offset_d + i * alpha_d) on its i-th use, with
    a seeded random offset and alpha_d the fractional part of the square root of
    a distinct prime.  Unlike independent draws, any run of consecutive ops
    holds nearly the same mix of sizes whatever the seed, which keeps the
    run-to-run spread of the metrics small without fixing the inputs.

    ``part=(i, parts)`` puts the draw in the i-th of `parts` equal slices of
    the range, so a block that draws once per slice covers the whole range.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.dims: dict[str, list[float]] = {}  # name -> [offset, uses, alpha]

    def u(self, dim: str, part: tuple[int, int] = (0, 1)) -> float:
        if dim not in self.dims:
            self.dims[dim] = [self.rng.random(), 0, math.sqrt(_PRIMES[len(self.dims)]) % 1]
        d = self.dims[dim]
        d[1] += 1
        return (part[0] + (d[0] + d[1] * d[2]) % 1) / part[1]

    def uniform(self, dim: str, lo: float, hi: float, part: tuple[int, int] = (0, 1)) -> float:
        return lo + (hi - lo) * self.u(dim, part)

    def log_int(self, dim: str, lo: int, hi: int, part: tuple[int, int] = (0, 1)) -> int:
        return round(math.exp(self.uniform(dim, math.log(lo), math.log(hi), part)))

    def integer(self, dim: str, lo: int, hi: int, part: tuple[int, int] = (0, 1)) -> int:
        """An integer in lo..hi inclusive."""
        return lo + int(self.u(dim, part) * (hi - lo + 1))

    def choice(self, dim: str, options):
        return options[int(self.u(dim) * len(options))]


def _count(n: int, k: int, m: int, circular: bool = False, method: str = "auto") -> Op:
    argv = ["count", "--n", str(n), "--k", str(k), "--m", str(m)]
    if circular:
        argv.append("--circular")
    if method != "auto":
        argv += ["--method", method]
    return Op(tuple(argv), {"n": n, "k": k, "m": m, "circular": circular, "method": method})


def _table(n: int, circular: bool, fmt: str) -> Op:
    argv = ["table", "--n", str(n), "--format", fmt] + (["--circular"] if circular else [])
    return Op(tuple(argv), {"n": n, "circular": circular, "format": fmt})


def _enumerate(n: int, k: int, m: int, circular: bool) -> Op:
    argv = ["enumerate", "--n", str(n), "--k", str(k), "--m", str(m)]
    if circular:
        argv.append("--circular")
    return Op(tuple(argv), {"n": n, "k": k, "m": m, "circular": circular})


def _verify(max_n: int, mode: str) -> Op:
    return Op(("verify", "--max-n", str(max_n), "--mode", mode), {"max_n": max_n, "mode": mode})


def _even(n: int, k: int, m: int) -> int:
    """m adjusted so that n + k + m is even: odd sums have circular count 0."""
    return m - 1 if (n + k + m) % 2 and m > 0 else m + (n + k + m) % 2


def _block_count_large(d: Draw) -> list[Op]:
    """20 in-process count queries: big-int sums and decimal output dominate.

    Cost grows about as n^2.5, so each class keeps a narrow size range: the
    medians and p90 of a run then fall inside a class, not on a steep edge
    between classes, and move little with the seed.
    """
    ops = []
    for i in range(11):  # general linear queries
        n = d.log_int("n", 1000, 2000, (i, 11))
        ops.append(_count(n, round(n * d.uniform("k", 0.22, 0.28)), round(n * d.uniform("m", 0.12, 0.18))))
    for i in range(5):  # circular queries
        n = d.log_int("circular n", 1000, 1600, (i, 5))
        k = round(n * d.uniform("circular k", 0.22, 0.28))
        m = round(n * d.uniform("circular m", 0.12, 0.18))
        ops.append(_count(n, k, _even(n, k, m), circular=True))
    for i in range(4):  # tall, thin linear queries
        ops.append(_thin(d, THIN_N, (i, 4)))
    return ops


# Thin counts up to n = 20000 have at most 4190 decimal digits; from about
# n = 20700 on they pass CPython's 4300-digit limit on int -> str, and the CLI
# fails on them.  The timed ops stay below the limit, since a benchmark op
# must not fail; the larger ones are the digit-limit probes.
THIN_N = (5000, 20000)
OVER_LIMIT_N = (22000, 40000)
OVER_LIMIT_PROBES = 4


def _thin(d: Draw, n_range: tuple[int, int], part: tuple[int, int] = (0, 1)) -> Op:
    n = d.integer("thin n", *n_range, part)
    return _count(n, round(n * d.uniform("thin k", 0.40, 0.48)), d.integer("thin m", 0, 4))


def digit_limit_probes(seed: int) -> list[Op]:
    """Thin count queries whose answers have more than 4300 decimal digits."""
    d = Draw(random.Random(f"digit limit:{seed}"))
    return [_thin(d, OVER_LIMIT_N) for _ in range(OVER_LIMIT_PROBES)]


def _one_pair_free(d: Draw, n: int) -> str:
    bits = ["0"]
    for _ in range(n - 1):
        bits.append("0" if bits[-1] == "1" else d.rng.choice("01"))
    return "".join(bits)


def _block_cli_small(d: Draw) -> list[Op]:
    """13 tiny CLI calls over all six subcommands: process start and import dominate."""
    ops = []
    for method, circular in (
        ("auto", False), ("auto", True), ("oracle", None), ("split", None),
        ("first-one", None), ("reduce", None),
    ):
        n = d.integer(f"{method} n", 2, 12 if method == "oracle" else 20)
        k, m = d.integer(f"{method} k", 0, n // 2), d.integer(f"{method} m", 0, n // 2)
        if circular is None:
            circular = d.choice(f"{method} circular", (False, True))
        ops.append(_count(n, k, m, circular, method))
    n = d.integer("closed n", 2, 20)
    ops.append(_count(n, d.integer("closed k", 0, n - 1), 0, method="closed"))
    n = d.integer("enumerate n", 2, 10)
    k, m = d.integer("enumerate k", 0, n // 2), d.integer("enumerate m", 0, n // 2)
    ops.append(_enumerate(n, k, m, d.choice("enumerate circular", (False, True))))
    b = _one_pair_free(d, d.integer("bijection n", 1, 20))
    ops.append(Op(("bijection", "--string", b), {"string": b}))
    b = _one_pair_free(d, d.integer("sequence n", 1, 20))
    seq = [i for i in range(1, len(b)) if b[i - 1] == b[i]]
    text = ",".join(map(str, seq))
    ops.append(Op(("bijection", "--sequence", text, "--n", str(len(b))), {"sequence": seq, "n": len(b)}))
    rows, fmt = d.integer("rows", 1, 30), d.choice("triangle format", ("csv", "bfile"))
    ops.append(Op(("triangle", "--rows", str(rows), "--format", fmt), {"rows": rows, "format": fmt}))
    ops.append(_table(d.integer("table n", 2, 8), d.choice("table circular", (False, True)),
                      d.choice("table format", ("csv", "tsv", "json"))))
    ops.append(_verify(d.integer("verify n", 2, 6), d.choice("verify mode", ("linear", "circular", "both"))))
    return ops


def _block_tables_verify(d: Draw) -> list[Op]:
    """12 heavy CLI calls: tables, verify, enumerate, three recurrences and the oracle.

    Circular oracle and enumeration queries scan 2^n strings, linear ones
    2^(n-1), so the circular sizes are one lower.  The three recurrences are
    the slowest quarter of the ops, of about equal cost, and no other op comes
    near them, so a run's p90 falls inside that class rather than on the step
    below it.
    """
    ops = []
    for i, circular in enumerate((False, False, True)):
        ops.append(_table(d.log_int(f"table n {circular}", 30, 90, (i % 2, 2)), circular,
                          d.choice("table format", ("csv", "tsv", "json"))))
    for i in range(2):
        ops.append(_verify(d.integer("verify n", 8, 13, (i, 2)), "both"))
    for circular in (False, True):
        n = d.integer(f"enumerate n {circular}", 11 + (not circular), 14 + (not circular))
        k, m = d.integer(f"enumerate k {circular}", 0, n // 3), d.integer(f"enumerate m {circular}", 0, n // 3)
        ops.append(_enumerate(n, k, _even(n, k, m) if circular else m, circular))
    # The recurrences set the run's peak memory, and their memo dict grows in
    # steps, so every block runs the query that needs the most memory,
    # first-one at n = 150.  k and m are fixed shares of n.
    for method, n in (("first-one", 150), ("first-one", d.integer("first-one n", 140, 149)),
                      ("split", d.integer("split n", 140, 150))):
        ops.append(_count(n, round(0.25 * n), round(0.15 * n), method=method))
    for circular in (False, True):
        n = d.integer(f"oracle n {circular}", 13 + (not circular), 15 + (not circular))
        k, m = d.integer(f"oracle k {circular}", 0, n // 3), d.integer(f"oracle m {circular}", 0, n // 3)
        ops.append(_count(n, k, _even(n, k, m) if circular else m, circular, "oracle"))
    return ops


_BLOCKS = {
    "count_large": _block_count_large,
    "cli_small": _block_cli_small,
    "tables_verify": _block_tables_verify,
}

IN_PROCESS = {"count_large"}  # the others run `python -m bitpairs.cli` per op


def blocks(workload: str, seed: int) -> Iterator[list[Op]]:
    """The endless, seed-determined block stream of one workload."""
    make = _BLOCKS[workload]
    draw = Draw(random.Random(f"{workload}:{seed}"))
    while True:
        block = make(draw)
        draw.rng.shuffle(block)
        yield block

