"""Benchmark for bitpairs: seeded, closed-loop, single-client workloads.

    python3 bench/run.py --workload count_large --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The program is used from ``src/`` as it is,
with no build or install.  One op is in flight at a time.  Every output is
judged by the independent checker in ``checker.py``, and checker work stays
outside every timing.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones:

* ``setup_s``: median over fresh interpreters of interpreter start plus
  ``import bitpairs`` plus generating the inputs, sampled between blocks
  across the run;
* ``ops_per_s``: correct ops per second of op time;
* ``latency_p50_ms`` and ``latency_p90_ms``: wall time of correct ops;
* ``peak_rss_mb``: the highest RSS of the program.  For ``count_large`` this
  is the benchmark process itself, which runs the program in-process.  For
  the other workloads it is the highest RSS of any op's subprocess;
* ``success_rate``: correct ops over attempted ops.  This is 1 - error_rate.
  It is reported this way round so that it is never 0.

With ``--trace 1`` the metrics are the per-layer ones from ``layers.py``.
The spans are also written to ``.bench_out/trace-<workload>-seed<seed>.json``.
Every run appends its result, with the seed, the Python version and the CPU
count, to ``.bench_out/results.jsonl``, or to the file named by ``--record``.

All times above are speed-adjusted (see :class:`Speed`): each is a wall time
scaled to a machine on which a fixed reference task takes its nominal time.
The unadjusted figures are printed and recorded next to them.

Queries whose counts have more than 4300 decimal digits are not timed ops,
because the CLI fails on them today (CPython's limit on int -> str).  Each
run sends a fixed number of them once, untimed, and prints how many failed;
the traced run reports that number as ``kernel.over_digit_limit``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import resource
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterator, Optional

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
POOL_OPS = 1000  # ops generated during set-up; more are drawn if a run needs them
MIN_OPS = 100  # so that latency_p90_ms has ten samples above it
SETUP_REPEATS = 10
SMOOTH = 3  # reference samples on each side of an op that scale its time
OP_TIMEOUT_S = 60.0
HARD_STOP_S = 120.0  # a run ends here even below MIN_OPS, well within 180 s


# The reference task each workload's ops are scaled by (see Speed).
REFERENCE = {"count_large": "cpu", "cli_small": "child", "tables_verify": "child"}


def program_env() -> dict[str, str]:
    """Environment for the program, in-process and in subprocesses alike."""
    os.environ.pop("BITPAIRS_ORACLE_LIMIT", None)  # the CLI default applies
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_subprocess(argv: list[str], env: dict[str, str]) -> tuple[int, str, str, float]:
    """Run to completion; return exit code, stdout, stderr and the child's peak RSS in MB."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    deadline = time.monotonic() + OP_TIMEOUT_S
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            ready = sel.select(timeout=max(0.0, deadline - time.monotonic()))
            if not ready:
                proc.kill()
            for key, _ in ready:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    for f in chunks:
        f.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = (b"".join(c).decode() for c in chunks.values())
    return proc.returncode, out, err, usage.ru_maxrss / 1024


def run_in_process(argv: list[str]) -> tuple[int, str, str]:
    from bitpairs import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def make_blocks(workload: str, seed: int) -> Iterator[list[workloads.Op]]:
    """Set-up: import the program and generate the inputs, POOL_OPS ops ahead."""
    import bitpairs  # noqa: F401  (set-up cost the program's users pay)

    stream = workloads.blocks(workload, seed)
    pool = [next(stream)]
    while len(pool) * len(pool[0]) < POOL_OPS:
        pool.append(next(stream))
    return itertools.chain(pool, stream)


def cpu_reference() -> None:
    """A fixed task like the program's in-process work: bytecode, a big-int
    product and a decimal conversion.  It runs no program code."""
    s = 0
    for i in range(100_000):
        s += i * i
    str(math.comb(12000, 4000) % 10**4000)


class Speed:
    """How fast the machine runs now, from reference tasks timed between ops.

    The shared 2-vCPU host this benchmark was tuned on changes speed by 10-40 %
    within seconds and over minutes, for the program and for any fixed task
    alike, which is more than the bounds allow between runs.  So a reference
    task is timed before every op and after the last one, and op i's wall time
    is multiplied by NOMINAL_MS[kind] / the median reference time of the
    SMOOTH samples on each side of it.  The result is the op's time on a
    machine where the reference task takes its nominal time.  The reference
    tasks run no program code, so a change to the program moves the adjusted
    times as it moves the raw ones.

    * ``cpu``: :func:`cpu_reference`, in-process.  It is cheap, so it suits
      workloads of many short ops;
    * ``child``: a fresh interpreter that imports a few standard modules and
      runs a short loop (``CHILD_CODE``), for ops that start an interpreter
      and then compute;
    * ``start``: a fresh interpreter that does nothing, ``python -c pass``,
      for the set-up probes.
    """

    NOMINAL_MS = {"cpu": 12.0, "child": 100.0, "start": 70.0}  # typical on the tuning host

    def __init__(self, env: dict[str, str], kind: str) -> None:
        self.env, self.kind = env, kind
        self.samples: list[float] = []  # ms

    def sample(self) -> None:
        self.samples.append(time_reference(self.kind, self.env))

    def op(self, i: int) -> float:
        """Scale factor for op i, from the SMOOTH samples before it and after it."""
        around = self.samples[max(0, i + 1 - SMOOTH):i + 1 + SMOOTH]
        return self.NOMINAL_MS[self.kind] / statistics.median(around)


CHILD_CODE = "import argparse, collections, functools, json\ns = 0\nfor i in range(150_000): s += i * i"


def time_reference(kind: str, env: dict[str, str]) -> float:
    """Milliseconds the reference task `kind` takes now."""
    t0 = time.perf_counter()
    if kind == "cpu":
        cpu_reference()
    else:
        code = "pass" if kind == "start" else CHILD_CODE
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return (time.perf_counter() - t0) * 1000


class SetupProbe:
    """Wall time of fresh interpreters that only do the set-up.

    The probes are spread over the run, between ops, so that their median
    samples the machine over the same stretch of time as the ops do.  Each is
    scaled by the ``start`` reference timed right before and right after it.
    """

    def __init__(self, workload: str, seed: int, env: dict[str, str], seconds: float) -> None:
        self.argv = [sys.executable, __file__, "--setup-only", "--workload", workload,
                     "--seed", str(seed)]
        self.env, self.every = env, seconds / SETUP_REPEATS
        self.times: list[tuple[float, float]] = []  # (raw, speed-adjusted) seconds

    def probe(self) -> None:
        before = time_reference("start", self.env)
        t0 = time.perf_counter()
        subprocess.run(self.argv, env=self.env, check=True)
        dt = time.perf_counter() - t0
        ref = (before + time_reference("start", self.env)) / 2
        self.times.append((dt, dt * Speed.NOMINAL_MS["start"] / ref))

    def when_due(self, elapsed: float) -> None:
        if len(self.times) < SETUP_REPEATS and elapsed >= len(self.times) * self.every:
            self.probe()

    def median(self) -> tuple[float, float]:
        """Median set-up time in seconds: (raw, speed-adjusted)."""
        while len(self.times) < SETUP_REPEATS:
            self.probe()
        return tuple(statistics.median(t[i] for t in self.times) for i in (0, 1))


class Outcome:
    """What the timed loop saw."""

    def __init__(self) -> None:
        self.ops: list[tuple[float, int, bool]] = []  # wall seconds, op index, correct
        self.wrong: list[str] = []  # ops that exited 0 with a wrong output
        self.errors: list[str] = []  # ops that exited non-zero
        self.child_rss_mb = 0.0

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def correct(self) -> int:
        return sum(ok for _, _, ok in self.ops)


def timed_loop(workload: str, blocks: Iterator[list[workloads.Op]], seconds: float,
               env: dict[str, str], between_ops, on_op=None, min_ops: int = MIN_OPS) -> Outcome:
    """Run whole blocks until `seconds` have passed and `min_ops` ops are done.

    `between_ops(elapsed)` runs before every op and after the last one, so op i
    runs between its i-th and (i+1)-th call.
    """
    import checker

    run = run_in_process if workload in workloads.IN_PROCESS else None
    res = Outcome()
    start = time.perf_counter()
    for block in blocks:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and res.attempted >= max(min_ops, 1)):
            break
        for op in block:
            if time.perf_counter() - start >= HARD_STOP_S:
                break
            between_ops(time.perf_counter() - start)
            argv = list(op.argv)
            t0 = time.perf_counter()
            if run:
                code, out, err = run(argv)
                dt = time.perf_counter() - t0
            else:
                code, out, err, rss = run_subprocess(
                    [sys.executable, "-m", "bitpairs.cli"] + argv, env
                )
                dt = time.perf_counter() - t0
                res.child_rss_mb = max(res.child_rss_mb, rss)
            if on_op is not None:
                on_op(res.attempted, op, t0, dt, code)
            reason = checker.check(op, code, out, err)
            res.ops.append((dt, res.attempted, reason is None))
            if reason is not None:
                (res.wrong if code == 0 else res.errors).append(f"{' '.join(argv)}: {reason}")
    between_ops(time.perf_counter() - start)
    return res


def digit_limit_probe(seed: int) -> tuple[int, list[str]]:
    """Send the over-4300-digit count queries once each, untimed.

    Returns how many exited non-zero, and the ones that printed a wrong count.
    """
    import checker

    failed, wrong = 0, []
    for op in workloads.digit_limit_probes(seed):
        code, out, err = run_in_process(list(op.argv))
        reason = checker.check(op, code, out, err)
        if code != 0:
            failed += 1
        elif reason is not None:
            wrong.append(f"{' '.join(op.argv)}: {reason}")
    return failed, wrong


def op_rates(res: Outcome, scale) -> tuple[float, list[float]]:
    """(correct ops per second of op time, latencies of correct ops in ms), each op's
    time multiplied by scale(op index)."""
    busy, lat_ms = 0.0, []
    for dt, i, ok in res.ops:
        dt *= scale(i)
        busy += dt
        if ok:
            lat_ms.append(dt * 1000)
    return len(lat_ms) / busy, lat_ms


def end_to_end(res: Outcome, setup_s: float, in_process: bool, scale) -> dict[str, float]:
    ops_per_s, lat_ms = op_rates(res, scale)
    if in_process:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        rss = res.child_rss_mb
    return {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s,
        "latency_p50_ms": statistics.median(lat_ms) if lat_ms else 0.0,
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1 else 0.0,
        "peak_rss_mb": rss,
        "success_rate": len(lat_ms) / res.attempted,
    }


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, default=OUT_DIR / "results.jsonl",
                    help="JSON-lines file the result is appended to")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "bitpairs" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'bitpairs'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        make_blocks(args.workload, args.seed)
        return 0

    import checker

    checker.self_check()
    env = program_env()
    started = time.time()
    blocks = make_blocks(args.workload, args.seed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    speed = Speed(env, REFERENCE[args.workload])
    in_process = args.workload in workloads.IN_PROCESS
    if args.trace:
        import layers

        tracer = layers.Tracer(args.workload, args.seed, env, run_in_process)
        res = tracer.run(timed_loop, blocks, args.seconds, lambda _: speed.sample())
        over_limit_failed, probe_wrong = digit_limit_probe(args.seed)
        tracer.add("trace.ops_per_s", op_rates(res, speed.op)[0])
        tracer.add("kernel.over_digit_limit", over_limit_failed)
        metrics = tracer.metrics()
        raw = {}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        setup = SetupProbe(args.workload, args.seed, env, args.seconds)

        def between_ops(elapsed: float) -> None:
            setup.when_due(elapsed)
            speed.sample()

        res = timed_loop(args.workload, blocks, args.seconds, env, between_ops)
        over_limit_failed, probe_wrong = digit_limit_probe(args.seed)
        setup_raw, setup_adj = setup.median()
        metrics = end_to_end(res, setup_adj, in_process, speed.op)
        raw = end_to_end(res, setup_raw, in_process, lambda i: 1.0)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    wrong = res.wrong + probe_wrong
    result = {
        "correct": not wrong,
        "attempted": res.attempted,
        "failed": res.attempted - res.correct,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "started": started, "result": result,
        "unadjusted": raw, "reference": speed.kind, "reference_ms": speed.samples,
    }
    args.record.parent.mkdir(parents=True, exist_ok=True)
    with args.record.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    for line in wrong[:5] + res.errors[:3]:
        print(f"failed: {line}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {res.attempted} ops, "
          f"{len(res.errors)} exited non-zero, {len(wrong)} wrong outputs; "
          f"{over_limit_failed} of {workloads.OVER_LIMIT_PROBES} untimed counts over "
          f"{checker.DIGIT_LIMIT} digits failed")
    for name, unit in units.items():
        extra = f"  (unadjusted {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:<38} {metrics[name]:>14.6g} {unit}{extra}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
