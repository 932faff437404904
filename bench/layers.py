"""Traced runs: per-layer metrics from spans around calls into each module.

Each op runs exactly as in an untraced run, as a child span of the op's root
span.  After it, outside its timing, the tracer calls the public functions
of the modules the op exercises, with the op's inputs, one child span per
call.  The root span ends when the last of them does.  Spans of one op share
its id.  Spans stay in memory until the run ends.  For a subprocess op,
``cli.run`` is replayed in-process with cold caches, as a fresh CLI process
has them.

Layer metrics a workload's own ops never reach are probed on the first block
of ``cli_small``, which covers every subcommand.  So every traced run
reports every metric.

Aggregation: ``mean`` is the sum of a metric's samples over the sum of their
weights.  A weight is 1 per call unless noted.  ``max`` is the largest
sample, and ``sum`` is the total over the run.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Callable

import workloads
from checker import over_digit_limit

# name -> (unit, better, aggregation)
METRICS: dict[str, tuple[str, str, str]] = {
    "python.start_ms": ("ms", "lower", "mean"),
    "cli.import_ms": ("ms", "lower", "mean"),
    "cli.run_ms": ("ms", "lower", "mean"),
    "cli.self_ms": ("ms", "lower", "mean"),
    "counting.z_auto_ms": ("ms", "lower", "mean"),
    "counting.s_circular_ms": ("ms", "lower", "mean"),
    "counting.z_closed_m0_ms": ("ms", "lower", "mean"),
    "counting.calls": ("count", "lower", "mean"),
    "counting.reduce_terms": ("count", "lower", "mean"),
    "counting.result_bits": ("bits", "lower", "mean"),
    "kernel.comb_ms": ("ms", "lower", "mean"),
    "kernel.decimal_ms": ("ms", "lower", "mean"),
    "kernel.over_digit_limit": ("count", "lower", "sum"),
    "counting.z_recur_split_ms": ("ms", "lower", "mean"),
    "counting.z_recur_split_memo_entries": ("count", "lower", "mean"),
    "counting.z_recur_split_peak_mb": ("MB", "lower", "max"),
    "counting.z_recur_firstone_ms": ("ms", "lower", "mean"),
    "counting.z_recur_firstone_memo_entries": ("count", "lower", "mean"),
    "counting.z_recur_firstone_peak_mb": ("MB", "lower", "max"),
    "counting.oracle_ms": ("ms", "lower", "mean"),
    "counting.oracle_strings": ("count", "lower", "mean"),
    "tables.z_table_ms": ("ms", "lower", "mean"),
    "tables.render_ms": ("ms", "lower", "mean"),
    "tables.cells": ("count", "lower", "mean"),
    "tables.output_bytes": ("bytes", "lower", "mean"),
    "tables.verify_all_ms": ("ms", "lower", "mean"),
    "tables.verify_checks": ("count", "higher", "mean"),
    "enumeration.enumerate_ms": ("ms", "lower", "mean"),
    "enumeration.strings_scanned": ("count", "lower", "mean"),
    "enumeration.strings_emitted": ("count", "higher", "mean"),
    "enumeration.yield_ratio": ("ratio", "higher", "mean"),
    "trace.ops_per_s": ("1/s", "higher", "mean"),
}

# Added once per run by run.py, not by ops: the speed-adjusted ops_per_s of
# the traced run, and how many untimed over-4300-digit counts failed.
PER_RUN = {"trace.ops_per_s", "kernel.over_digit_limit"}

STARTUP_REPEATS = 5


def _z_work(n: int, k: int, m: int) -> int:
    """Terms z_auto sums for one z(n, k, m): 0 for base cases and m = 0, else m or 2m."""
    if n <= 0 or k < 0 or m < 0 or k + m >= n - 1 or m == 0:
        return 0
    return 2 * m if (n + k + m) % 2 == 0 else m


def fast_path_work(n: int, k: int, m: int, circular: bool) -> tuple[int, int]:
    """(z evaluations, reduction terms) of the fast path, computed from the inputs."""
    if not circular:
        return 1, _z_work(n, k, m)
    if (n + k + m) % 2:
        return 0, 0
    args = ((n, k, m), (n, k - 1, m), (n, m, k), (n, m - 1, k))
    return 4, sum(_z_work(*a) for a in args)


def largest_binomial(n: int, k: int, m: int) -> tuple[int, int]:
    """Arguments of the largest binomial the fast path evaluates for z(n, k, m).

    For m = 0 it is the closed form's C((n+k-1)//2, k).  Otherwise the biggest
    factor of every reduction term is z(n-m-f, k+f, 0) = C(a, k+f) with
    a = (n-m+k-1)//2 for all f, largest where k+f is nearest a/2.
    """
    if m == 0:
        return (n + k - 1) // 2, k
    a = (n - m + k - 1) // 2
    return a, min(max(a // 2, k + 1), k + m)


class Tracer:
    def __init__(self, workload: str, seed: int, env: dict[str, str], run_cli: Callable) -> None:
        from bitpairs import counting, enumeration, tables

        self.counting, self.enumeration, self.tables = counting, enumeration, tables
        self.workload, self.seed, self.env, self.run_cli = workload, seed, env, run_cli
        self.spans: list[dict] = []
        self.acc: dict[str, list[float]] = {}  # name -> [total or max, weight]
        self.t0 = time.perf_counter()
        self.probes = {
            "count": self._count, "table": self._table, "verify": self._verify,
            "enumerate": self._enumerate, "triangle": self._triangle,
            "bijection": self._bijection,
        }

    # -- recording ---------------------------------------------------------

    def span(self, op, parent, name: str, start: float, end: float, **attrs) -> int:
        sid = len(self.spans)
        self.spans.append({"id": sid, "op": op, "parent": parent, "name": name,
                           "start": start - self.t0, "end": end - self.t0, **attrs})
        return sid

    def call(self, op, parent: int, name: str, fn: Callable, *args, **kw):
        """fn(*args, **kw) inside a span; returns its value and its time in ms."""
        start = time.perf_counter()
        value = fn(*args, **kw)
        end = time.perf_counter()
        self.span(op, parent, name, start, end)
        return value, (end - start) * 1000

    def add(self, name: str, value: float, weight: float = 1.0) -> None:
        cell = self.acc.setdefault(name, [0.0, 0.0])
        if METRICS[name][2] == "max":
            cell[0] = max(cell[0], value)
        else:
            cell[0] += value
        cell[1] += weight

    def metrics(self) -> dict[str, float]:
        out = {}
        for name, (_, _, agg) in METRICS.items():
            total, weight = self.acc[name]
            out[name] = total / weight if agg == "mean" else total
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"workload": self.workload, "seed": self.seed,
               "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
               "spans": self.spans}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")

    # -- the run -----------------------------------------------------------

    def run(self, loop: Callable, blocks, seconds: float, at_boundary: Callable):
        self._startup()
        res = loop(self.workload, blocks, seconds, self.env, at_boundary,
                   on_op=self._on_op, min_ops=0)
        self._sweep()
        return res

    def _startup(self) -> None:
        """Interpreter start alone, then with the CLI module imported."""
        for i in range(STARTUP_REPEATS):
            times = []
            for code in ("pass", "import bitpairs.cli"):
                start = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], env=self.env, check=True)
                end = time.perf_counter()
                self.span(f"startup-{i}", None, f"python -c {code!r}", start, end)
                times.append((end - start) * 1000)
            self.add("python.start_ms", times[0])
            self.add("cli.import_ms", times[1] - times[0])

    def _on_op(self, i: int, op: workloads.Op, t0: float, dt: float, code: int) -> None:
        in_process = self.workload in workloads.IN_PROCESS
        root = self.span(i, None, "op", t0, t0 + dt, argv=list(op.argv), exit=code)
        self.span(i, root, "cli.run" if in_process else "python -m bitpairs.cli", t0, t0 + dt)
        self._probe(i, root, op, dt * 1000 if in_process else None)

    def _probe(self, op_id, root: int, op: workloads.Op, cli_ms) -> None:
        if cli_ms is None:
            self._clear_caches()
            _, cli_ms = self.call(op_id, root, "cli.run", self.run_cli, list(op.argv))
        inner = self.probes[op.argv[0]](op_id, root, op.params)
        self.add("cli.run_ms", cli_ms)
        self.add("cli.self_ms", cli_ms - inner)
        self.spans[root]["end"] = time.perf_counter() - self.t0

    def _sweep(self) -> None:
        """Probe the layers this workload never reached on the first block of
        cli_small, which holds every subcommand and every count method."""
        for j, op in enumerate(next(workloads.blocks("cli_small", self.seed))):
            missing = set(METRICS) - set(self.acc) - PER_RUN
            if not missing:
                return
            own, self.acc = self.acc, {}
            op_id = f"sweep-{j}"
            now = time.perf_counter()
            self._probe(op_id, self.span(op_id, None, "op", now, now, argv=list(op.argv)), op, None)
            got, self.acc = self.acc, own
            self.acc.update({k: v for k, v in got.items() if k in missing})

    def _clear_caches(self) -> None:
        for module in (self.counting, self.enumeration, self.tables):
            for obj in list(vars(module).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()

    # -- one probe per subcommand; each returns the ms of the calls cli.run makes --

    def _count(self, op_id, root: int, p: dict) -> float:
        c = self.counting
        n, k, m, circular, method = p["n"], p["k"], p["m"], p["circular"], p["method"]
        if method == "oracle":
            self._clear_caches()
            fn = c.s_circular_oracle if circular else c.z_oracle
            value, ms = self.call(op_id, root, "counting.oracle", fn, n, k, m)
            self.add("counting.oracle_ms", ms)
            self.add("counting.oracle_strings", 1 << (n if circular else n - 1))
        elif method in ("split", "first-one"):
            name = "z_recur_split" if method == "split" else "z_recur_firstone"
            recur = getattr(c, name)

            def evaluate():
                cache = c.MemoCache()
                z = lambda a, b, d: recur(a, b, d, cache)  # noqa: E731
                return (c.s_circular(n, k, m, z=z) if circular else z(n, k, m)), cache

            (value, cache), ms = self.call(op_id, root, f"counting.{name}", evaluate)
            self.add(f"counting.{name}_ms", ms)
            self.add(f"counting.{name}_memo_entries", len(cache))
            tracemalloc.start()
            try:
                self.call(op_id, root, f"counting.{name}.tracemalloc", evaluate)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.add(f"counting.{name}_peak_mb", peak / 2**20)
        elif method == "closed":
            value, ms = self.call(op_id, root, "counting.z_closed_m0", c.z_closed_m0, n, k)
            self.add("counting.z_closed_m0_ms", ms)
        elif method == "reduce":
            if circular:
                value, ms = self.call(op_id, root, "counting.s_circular", c.s_circular,
                                      n, k, m, z=c.z_reduce_to_m0)
            else:
                value, ms = self.call(op_id, root, "counting.z_reduce_to_m0",
                                      c.z_reduce_to_m0, n, k, m)
        else:
            name = "s_circular" if circular else "z_auto"
            value, ms = self.call(op_id, root, f"counting.{name}", getattr(c, name), n, k, m)
            self.add(f"counting.{name}_ms", ms)
            calls, terms = fast_path_work(n, k, m, circular)
            self.add("counting.calls", calls)
            self.add("counting.reduce_terms", terms)
            _, ms_comb = self.call(op_id, root, "kernel.comb", c.binomial,
                                   *largest_binomial(n, k, m))
            self.add("kernel.comb_ms", ms_comb)
            if not circular:
                _, ms_m0 = self.call(op_id, root, "counting.z_closed_m0", c.z_closed_m0, n, k)
                self.add("counting.z_closed_m0_ms", ms_m0)
        self.add("counting.result_bits", value.bit_length())
        if over_digit_limit(value):
            return ms
        _, ms_dec = self.call(op_id, root, "kernel.decimal", str, value)
        self.add("kernel.decimal_ms", ms_dec)
        return ms + ms_dec

    def _table(self, op_id, root: int, p: dict) -> float:
        n, circular = p["n"], p["circular"]
        mode = "circular" if circular else "linear"
        table, ms_t = self.call(op_id, root, "tables.z_table", self.tables.z_table, n, mode)
        text, ms_r = self.call(op_id, root, "tables.render_z_table",
                               self.tables.render_z_table, n, mode, p["format"])
        self.add("tables.z_table_ms", ms_t)
        self.add("tables.render_ms", ms_r - ms_t)
        self.add("tables.cells", len(table.cells))
        self.add("tables.output_bytes", len(text.encode()))
        self.add("counting.s_circular_ms" if circular else "counting.z_auto_ms",
                 ms_t, weight=len(table.cells))
        work = [fast_path_work(n, k, m, circular) for k, m, _ in table.cells]
        self.add("counting.calls", sum(w[0] for w in work))
        self.add("counting.reduce_terms", sum(w[1] for w in work))
        return ms_r

    def _verify(self, op_id, root: int, p: dict) -> float:
        c, max_n, mode = self.counting, p["max_n"], p["mode"]
        linear, circular = mode in ("linear", "both"), mode in ("circular", "both")

        def cold_oracle() -> int:
            strings = 0
            for n in range(1, max_n + 1):
                if linear:
                    c.z_oracle(n, 0, 0)
                    strings += 1 << (n - 1)
                if circular and n >= 2:
                    c.s_circular_oracle(n, 0, 0)
                    strings += 1 << n
            return strings

        self._clear_caches()
        strings, ms_o = self.call(op_id, root, "counting.oracle", cold_oracle)
        report, ms_v = self.call(op_id, root, "tables.verify_all", self.tables.verify_all,
                                 max_n, mode)
        self.add("counting.oracle_ms", ms_o)
        self.add("counting.oracle_strings", strings)
        self.add("tables.verify_all_ms", ms_v)
        self.add("tables.verify_checks", report.checks)
        return ms_o + ms_v

    def _enumerate(self, op_id, root: int, p: dict) -> float:
        e, n = self.enumeration, p["n"]
        fn = e.enumerate_circular if p["circular"] else e.enumerate_Z
        strings, ms = self.call(op_id, root, "enumeration.enumerate", fn, n, p["k"], p["m"])
        scanned = 1 << (n if p["circular"] else n - 1)
        self.add("enumeration.enumerate_ms", ms)
        self.add("enumeration.strings_scanned", scanned)
        self.add("enumeration.strings_emitted", len(strings))
        self.add("enumeration.yield_ratio", len(strings), weight=scanned)
        return ms

    def _triangle(self, op_id, root: int, p: dict) -> float:
        return self.call(op_id, root, "tables.render_terquem_triangle",
                         self.tables.render_terquem_triangle, p["rows"], p["format"])[1]

    def _bijection(self, op_id, root: int, p: dict) -> float:
        e = self.enumeration
        if "string" in p:
            return self.call(op_id, root, "enumeration.to_terquem", e.to_terquem, p["string"])[1]
        return self.call(op_id, root, "enumeration.from_terquem", e.from_terquem,
                         tuple(p["sequence"]), p["n"])[1]
