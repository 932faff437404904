"""Tables of counts, the A046854 triangle, and verification reports.

Rendering conventions, chosen so output survives text round-trips and can be
diffed byte-for-byte:

* numbers are decimal with no separators, every count in full at any size
  (counts are arbitrary-precision; see ``counting.decimal_digits``);
* lines end with LF; every rendering ends with a trailing newline;
* zero cells are kept: the zero pattern (boundary and parity) is itself one
  of the claims the suite tests;
* b-files use the OEIS convention of a 1-based running index over the
  triangle read by rows, so the first line is "1 1";
* json is written from one record template with the bytes of
  ``json.dumps(records, indent=1)``, so rendering imports no encoder; only
  :func:`parse_z_table` imports ``json``, ``csv`` and ``io``.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .counting import (
    TRIANGLE_FORMATS,
    VERIFY_MODES,
    Z_TABLE_FORMATS,
    _check_length,
    _check_oracle_n,
    _profile_histogram,
    _transfer,
    _z_layer,
    decimal_digits,
    decimal_int,
    s_circular,
    s_circular_oracle,
    terquem_T,
    wrap_parity_predicts_equal_ends,
    z_auto,
    z_closed_m0,
    z_oracle,
    z_reduce_to_m0,
)

_HEADER = ("n", "k", "m", "count")  # the one table layout, in column order
_SEPARATORS = {"csv": ",", "tsv": "\t"}


def _check_choice(what: str, value: str, options: tuple[str, ...]) -> None:
    if value not in options:
        raise ValueError(f"unsupported {what}: {value!r} (supported: {', '.join(options)})")


def _grid(n: int, mode: str) -> list[tuple[int, int]]:
    # the (k, m) cells of a table in order: 0..n-1 each when linear, 0..n when circular
    side = range(n + 1 if mode == "circular" else n)
    return [(k, m) for k in side for m in side]


class ZTable(NamedTuple):
    """Every profile count for one string length, zero cells included.

    Linear tables cover 0 <= k, m <= n-1 and sum to 2**(n-1); circular
    tables cover 0 <= k, m <= n (the constant strings pair at all n slots)
    and sum to 2**n.
    """

    n: int
    mode: str  # "linear" or "circular"
    cells: tuple[tuple[int, int, int], ...]  # (k, m, count) sorted by (k, m)

    def total(self) -> int:
        return sum(c for _, _, c in self.cells)


def z_table(n: int, mode: str = "linear") -> ZTable:
    """All counts for length n in one table, computed by the fast methods."""
    _check_choice("mode", mode, ("linear", "circular"))
    _check_length(n, mode == "circular")
    count = s_circular if mode == "circular" else z_auto
    return ZTable(n, mode, tuple((k, m, count(n, k, m)) for k, m in _grid(n, mode)))


def render_z_table(n: int, mode: str = "linear", fmt: str = "csv") -> str:
    """Table of (n, k, m, count) records in csv, tsv or json."""
    _check_choice("format", fmt, Z_TABLE_FORMATS)
    table = z_table(n, mode)
    if fmt == "json":
        # the bytes of json.dumps(records, indent=1) for these all-int records,
        # without the pure-Python encoder
        records = ",\n".join(
            f' {{\n  "n": {n},\n  "k": {k},\n  "m": {m},\n  "count": {decimal_digits(c)}\n }}'
            for k, m, c in table.cells
        )
        return f"[\n{records}\n]\n"
    sep = _SEPARATORS[fmt]
    lines = [sep.join(_HEADER)]
    lines += [sep.join((str(n), str(k), str(m), decimal_digits(c))) for k, m, c in table.cells]
    return "\n".join(lines) + "\n"


def parse_z_table(text: str, fmt: str = "csv") -> ZTable:
    """Rebuild a ZTable from rendered text (the round-trip inverse).

    The mode is recovered from the cell count, n**2 for a linear table and
    (n+1)**2 for a circular one, and the records must spell that mode's
    (k, m) grid in :func:`z_table`'s order: 0..n-1 or 0..n on each side.
    """
    _check_choice("format", fmt, Z_TABLE_FORMATS)
    if fmt == "json":
        import json

        data = json.loads(text, parse_int=decimal_int)
        if not isinstance(data, list) or not all(
            isinstance(r, dict) and r.keys() == set(_HEADER) for r in data
        ):
            raise ValueError(f"malformed table: records need exactly the keys {', '.join(_HEADER)}")
        records = [tuple(r[key] for key in _HEADER) for r in data]
        if any(type(v) is not int for record in records for v in record):
            raise ValueError("malformed table: fields must be integers")
    else:
        import csv
        import io

        rows = [r for r in csv.reader(io.StringIO(text), delimiter=_SEPARATORS[fmt]) if r]
        if not rows or rows[0] != list(_HEADER):
            raise ValueError("malformed table: missing header")
        if any(len(r) != len(_HEADER) for r in rows[1:]):
            raise ValueError(f"malformed table: rows need exactly {len(_HEADER)} fields")
        try:
            records = [tuple(map(decimal_int, r)) for r in rows[1:]]
        except ValueError:
            raise ValueError("malformed table: fields must be integers") from None
    if not records:
        raise ValueError("malformed table: no records")
    n = records[0][0]
    if any(r[0] != n for r in records):
        raise ValueError("malformed table: inconsistent n")
    if any(r[3] < 0 for r in records):
        raise ValueError("malformed table: negative count")
    keys = [(k, m) for _, k, m, _ in records]
    mode = {n * n: "linear", (n + 1) ** 2: "circular"}.get(len(keys))
    if mode is None or keys != _grid(n, mode):
        raise ValueError("malformed table: unexpected cell count or coordinates")
    try:
        _check_length(n, mode == "circular")
    except ValueError as e:
        raise ValueError(f"malformed table: {e}") from None
    return ZTable(n, mode, tuple((k, m, c) for _, k, m, c in records))


def render_terquem_triangle(rows: int, fmt: str = "csv") -> str:
    """The triangle T(n, k) = C(floor((n+k)/2), k), rows n = 0..rows-1.

    csv emits one (n, k, T) record per entry with a header; bfile emits
    "index value" lines over the triangle read by rows, 1-based, matching
    the published A046854 b-file line for line.
    """
    if rows < 1:
        raise ValueError(f"rows must be >= 1, got {rows}")
    _check_choice("format", fmt, TRIANGLE_FORMATS)
    entries = [(n, k, decimal_digits(terquem_T(n, k))) for n in range(rows) for k in range(n + 1)]
    if fmt == "csv":
        lines = ["n,k,T"] + [f"{n},{k},{t}" for n, k, t in entries]
    else:
        lines = [f"{i} {t}" for i, (_, _, t) in enumerate(entries, start=1)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


class Mismatch(NamedTuple):
    n: int
    k: int
    m: int
    method: str
    got: int
    expected: int


class VerifyReport(NamedTuple):
    """Outcome of cross-checking the fast methods against the oracles."""

    max_n: int
    mode: str
    methods: tuple[str, ...]
    checks: int
    mismatches: tuple[Mismatch, ...]
    elapsed: float

    @property
    def success(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        status = "PASS" if self.success else "FAIL"
        head = (
            f"{status}: {len(self.mismatches)} mismatches in {self.checks} checks; "
            f"mode={self.mode} max_n={self.max_n} "
            f"methods={','.join(self.methods)} elapsed={self.elapsed:.2f}s"
        )
        lines = [head]
        lines += [
            f"  {w.method} at (n={w.n}, k={w.k}, m={w.m}): "
            f"got {decimal_digits(w.got)}, expected {decimal_digits(w.expected)}"
            for w in self.mismatches
        ]
        return "\n".join(lines)


def verify_all(max_n: int, mode: str = "both") -> VerifyReport:
    """Compare every counting route against the oracles up to max_n.

    Covers, per mode, the full (n, k, m) grid with 0 <= k, m <= n for the
    four fast linear methods against :func:`z_oracle`, the closed form on
    the m = 0 column, and the circular formula against
    :func:`s_circular_oracle`; plus, always, the z(n,0,m) = z(n-1,m,0)
    identity and the end-bit parity rule, checked once per (k, m, equal
    ends) that a length-n string has (the oracle histogram's keys and their
    complements') and counted as 2**n checks.  When a linear check runs, the
    two recurrences are read off one transfer pass per seed on the
    (max_n + 1) x (max_n + 1) grid, stepped once per length; the circular
    mode steps none.  max_n runs from 2 to the oracle limit,
    ``DEFAULT_ORACLE_LIMIT`` = 20.  The report lists every mismatch sorted
    by (n, k, m, method); success means none.
    """
    _check_choice("mode", mode, VERIFY_MODES)
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    _check_oracle_n(max_n, False)

    start = time.perf_counter()
    mismatches: list[Mismatch] = []
    checks = 0

    def compare(n: int, k: int, m: int, method: str, got: int, expected: int) -> None:
        nonlocal checks
        checks += 1
        if got != expected:
            mismatches.append(Mismatch(n, k, m, method, got, expected))

    do_linear, do_circular = mode != "circular", mode != "linear"
    methods = (
        ("split", "first-one", "reduce", "auto", "closed") * do_linear
        + ("circular",) * do_circular
        + ("end-parity", "column-collapse")
    )

    # the recurrences' passes, one per seed; a generator runs nothing until stepped
    split_pass, firstone_pass = _transfer(max_n, max_n, False), _transfer(max_n, max_n, True)
    for n in range(1, max_n + 1):
        if do_linear:  # each pass steps once per length, and only for the linear checks
            split = _z_layer(*next(split_pass), False)
            firstone = _z_layer(*next(firstone_pass), True)
        for k, m in _grid(n, "circular"):  # 0 <= k, m <= n
            if do_linear:
                want = z_oracle(n, k, m)
                compare(n, k, m, "split", split[k][m], want)
                compare(n, k, m, "first-one", firstone[k][m], want)
                compare(n, k, m, "reduce", z_reduce_to_m0(n, k, m), want)
                compare(n, k, m, "auto", z_auto(n, k, m), want)
                if m == 0:
                    compare(n, k, 0, "closed", z_closed_m0(n, k), want)
            if do_circular and n >= 2:
                want = s_circular_oracle(n, k, m)
                compare(n, k, m, "circular", s_circular(n, k, m), want)

        # end-bit parity rule, once per (k, m, whether the first and last bits
        # agree): the histogram keys (k, m, e) of the strings that start with 0
        # have equal ends when the last bit e is 0, as do their complements,
        # which swap k and m
        seen = {(a, b, not e) for k, m, e in _profile_histogram(n) for a, b in ((k, m), (m, k))}
        for k, m, ends in seen:
            predicted = wrap_parity_predicts_equal_ends(n, k, m)
            if ends != predicted:
                mismatches.append(Mismatch(n, k, m, "end-parity", int(ends), int(predicted)))
        checks += 1 << n

        # the 0-pair-free column collapses to the previous length's m = 0 column
        for m in range(max(0, n - 1)):
            compare(n, 0, m, "column-collapse", z_auto(n, 0, m), z_auto(n - 1, m, 0))

    mismatches.sort(key=lambda w: (w.n, w.k, w.m, w.method))
    return VerifyReport(
        max_n=max_n,
        mode=mode,
        methods=methods,
        checks=checks,
        mismatches=tuple(mismatches),
        elapsed=time.perf_counter() - start,
    )
