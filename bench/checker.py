"""Independent output checker for the bitpairs benchmark.

Reference counts come from the runs closed forms (Mood 1940), which share no
code or derivation with the package.  A counted string is an alternating
sequence of runs; a run of length L holds L-1 pairs, so n bits with k 0-pairs
and m 1-pairs form R = n-k-m runs.

* Linear, starting with 0: r0 = ceil(R/2) 0-runs and r1 = floor(R/2) 1-runs,
  z(n,k,m) = C(k+r0-1, r0-1) * C(m+r1-1, r1-1), the second factor [m = 0]
  when r1 = 0.
* Circular: R = 2r runs around the ring, s(n,k,m) = (n/r) C(k+r-1, r-1)
  C(m+r-1, r-1); R = 0 leaves the two constant strings.

:func:`self_check` compares both forms with a brute-force pair counter before
any output is judged.  :func:`check` returns None for a right output and a
one-line reason otherwise.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import sys
from typing import Iterator, Optional

from workloads import Op

DIGIT_LIMIT = 4300  # CPython's default limit on int <-> decimal str conversion


def z_runs(n: int, k: int, m: int) -> int:
    """Length-n strings starting with 0 with k 0-pairs and m 1-pairs (linear)."""
    runs = n - k - m
    if n < 1 or k < 0 or m < 0 or runs < 1:
        return 0
    r0, r1 = (runs + 1) // 2, runs // 2
    ones = math.comb(m + r1 - 1, r1 - 1) if r1 else int(m == 0)
    return math.comb(k + r0 - 1, r0 - 1) * ones


def s_runs(n: int, k: int, m: int) -> int:
    """Length-n strings with k 0-pairs and m 1-pairs under circular adjacency."""
    runs = n - k - m
    if n < 2 or k < 0 or m < 0 or runs < 0 or runs % 2:
        return 0
    if runs == 0:
        return int((k, m) in ((n, 0), (0, n)))
    r = runs // 2
    total = n * math.comb(k + r - 1, r - 1) * math.comb(m + r - 1, r - 1)
    if total % r:
        raise ArithmeticError(f"s_runs({n},{k},{m}) is not an integer")
    return total // r


def pair_counts(b: str, circular: bool) -> tuple[int, int]:
    """(0-pairs, 1-pairs) of b, counted slot by slot."""
    slots = len(b) if circular else len(b) - 1
    k = m = 0
    for i in range(slots):
        x, y = b[i], b[(i + 1) % len(b)]
        if x == y:
            if x == "0":
                k += 1
            else:
                m += 1
    return k, m


def self_check(max_n: int = 12) -> None:
    """Raise unless both closed forms match brute force on every (n, k, m), n <= max_n."""
    for n in range(1, max_n + 1):
        for circular in (False, True):
            if circular and n < 2:
                continue
            hist: dict[tuple[int, int], int] = {}
            for v in range(1 << (n if circular else n - 1)):
                km = pair_counts(format(v, f"0{n}b"), circular)
                hist[km] = hist.get(km, 0) + 1
            form = s_runs if circular else z_runs
            for k in range(n + 2):
                for m in range(n + 2):
                    if form(n, k, m) != hist.get((k, m), 0):
                        raise AssertionError(f"closed form wrong at {(n, k, m, circular)}")


def over_digit_limit(value: int) -> bool:
    return value >= 10**DIGIT_LIMIT


@contextlib.contextmanager
def _unlimited_digits() -> Iterator[None]:
    # The checker runs between timed ops, never during one.
    setter = getattr(sys, "set_int_max_str_digits", None)
    old = sys.get_int_max_str_digits() if setter else None
    if setter:
        setter(0)
    try:
        yield
    finally:
        if setter:
            setter(old)


def reference_count(p: dict) -> int:
    if p["method"] == "closed":
        return z_runs(p["n"], p["k"], 0)
    return (s_runs if p["circular"] else z_runs)(p["n"], p["k"], p["m"])


def _check_count(p: dict, out: str) -> Optional[str]:
    with _unlimited_digits():
        want = f"{reference_count(p)}\n"
    return None if out == want else "wrong count"


def _table_records(fmt: str, out: str) -> list[tuple[int, int, int, int]]:
    if fmt == "json":
        return [(r["n"], r["k"], r["m"], r["count"]) for r in json.loads(out)]
    sep = "," if fmt == "csv" else "\t"
    lines = out.split("\n")
    if lines[0] != sep.join(("n", "k", "m", "count")) or lines[-1] != "":
        raise ValueError("bad header or missing final newline")
    return [tuple(int(x) for x in line.split(sep)) for line in lines[1:-1]]


def _check_table(p: dict, out: str) -> Optional[str]:
    n, circular = p["n"], p["circular"]
    try:
        records = _table_records(p["format"], out)
    except (ValueError, KeyError, TypeError) as e:
        return f"unparsable table: {e}"
    hi = n if circular else n - 1
    grid = [(n, k, m) for k in range(hi + 1) for m in range(hi + 1)]
    if [r[:3] for r in records] != grid or any(len(r) != 4 for r in records):
        return "table cells missing, extra or out of order"
    if sum(r[3] for r in records) != 1 << (n if circular else n - 1):
        return "table total is not the number of strings"
    form = s_runs if circular else z_runs
    for _, k, m, count in random.Random(repr(p)).sample(records, min(32, len(records))):
        if count != form(n, k, m):
            return f"wrong table cell ({k}, {m})"
    return None


def _check_enumerate(p: dict, out: str) -> Optional[str]:
    n, k, m, circular = p["n"], p["k"], p["m"], p["circular"]
    lines = out.split("\n")
    if lines[-1] != "":
        return "missing final newline"
    strings = lines[:-1]
    if strings != sorted(set(strings)):
        return "strings not strictly increasing"
    for b in strings:
        if len(b) != n or set(b) - {"0", "1"} or (not circular and b[0] != "0"):
            return f"malformed string {b!r}"
        if pair_counts(b, circular) != (k, m):
            return f"string {b} has the wrong profile"
    want = (s_runs if circular else z_runs)(n, k, m)
    return None if len(strings) == want else f"{len(strings)} strings, expected {want}"


def _from_slots(slots: list[int], n: int) -> str:
    """The 1-pair-free string starting with 0 whose 0-pair slots are `slots`."""
    bits = ["0"]
    for i in range(1, n):
        bits.append(bits[-1] if i in slots else "10"[int(bits[-1])])
    return "".join(bits)


def _check_bijection(p: dict, out: str) -> Optional[str]:
    body = out.rstrip("\n")
    if "string" in p:
        b = p["string"]
        try:
            slots = [int(x) for x in body.split(",")] if body else []
        except ValueError:
            return "unparsable positions"
        ok = slots == sorted(set(slots)) and all(0 < x < len(b) for x in slots)
        return None if ok and _from_slots(slots, len(b)) == b else "positions do not map back"
    seq, n = p["sequence"], p["n"]
    if len(body) != n or "11" in body or not body.startswith("0"):
        return "not a 1-pair-free string of the right length"
    slots = [i for i in range(1, n) if body[i - 1] == body[i]]
    return None if slots == seq else "string does not map back"


def _check_triangle(p: dict, out: str) -> Optional[str]:
    entries = [(n, k, math.comb((n + k) // 2, k)) for n in range(p["rows"]) for k in range(n + 1)]
    if p["format"] == "csv":
        lines = ["n,k,T"] + [f"{n},{k},{t}" for n, k, t in entries]
    else:
        lines = [f"{i} {t}" for i, (_, _, t) in enumerate(entries, start=1)]
    return None if out == "\n".join(lines) + "\n" else "wrong triangle"


def _check_verify(p: dict, out: str) -> Optional[str]:
    return None if out.startswith("PASS") else "verify did not pass"


_CHECKS = {
    "count": _check_count,
    "table": _check_table,
    "enumerate": _check_enumerate,
    "bijection": _check_bijection,
    "triangle": _check_triangle,
    "verify": _check_verify,
}


def check(op: Op, code: int, out: str, err: str) -> Optional[str]:
    """None when the op exited 0 with the right output, else why it failed."""
    if code != 0:
        return f"exit {code}: {err.strip()[:200]}"
    return _CHECKS[op.argv[0]](op.params, out)
