"""Judge benchmark result sets written by run.py (JSON lines, one run each).

    python3 bench/compare.py spread RESULTS.jsonl
    python3 bench/compare.py pairs PARENT.jsonl CHANGE.jsonl
    python3 bench/compare.py overhead RESULTS.jsonl
    python3 bench/compare.py run PARENT_DIR CHANGE_DIR --workload W --seeds 1-10 --out DIR

``spread`` prints, per workload and end-to-end metric, the median and the
distance between the quartiles as a share of the median, against the bound
in BENCHMARK.json.  ``pairs`` applies the gain rule: at least 10 pairs of
runs on the same seed, alternating which side ran first; the change wins at
least 9 in 10 pairs; and the medians differ by more than the parent's
interquartile range.  It also flags a change whose median is worse than the
parent's by more than the bound.  Where the parent's own spread exceeds the
bound, the metric is unresolved unless every change run beats every parent
run.  ``overhead`` gives the traced run's ops_per_s against the untraced
one.  ``run`` makes alternating runs of two checkouts for ``pairs``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: Path, trace: int = 0) -> dict[str, list[dict]]:
    """Records of one trace mode, grouped by workload, in the order they ran."""
    groups: dict[str, list[dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if rec["trace"] == trace:
                groups.setdefault(rec["workload"], []).append(rec)
    for recs in groups.values():
        recs.sort(key=lambda r: r["started"])
    return groups


def value(rec: dict, metric: str) -> float:
    return rec["result"]["metrics"][metric]["value"]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs: list[float]) -> float:
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / med if med else float("inf") if q3 > q1 else 0.0


def cmd_spread(args) -> int:
    bad = 0
    for workload, recs in load(args.results).items():
        env = {(r["python"], r["nproc"]) for r in recs}
        print(f"{workload}: {len(recs)} runs, seeds {sorted(r['seed'] for r in recs)}, "
              f"python/nproc {sorted(env)}")
        for name, m in E2E.items():
            xs = [value(r, name) for r in recs]
            s = spread(xs)
            verdict = "ok" if s < m["bound"] / 3 else "wide" if s <= m["bound"] else "TOO WIDE"
            if verdict == "TOO WIDE" and name != "setup_s":
                bad += 1
            print(f"  {name:<16} median {statistics.median(xs):>12.6g} {m['unit']:<6} "
                  f"spread {s:7.2%}  bound {m['bound']:.0%}  {verdict}")
    return 1 if bad else 0


def _better(a: float, b: float, direction: str) -> bool:
    return a > b if direction == "higher" else a < b


def judge(parent: list[float], change: list[float], metric: dict, valid_pairs: bool) -> str:
    """Verdict for one metric from paired runs (same index = same seed).

    `valid_pairs` is false when the pairs do not alternate or more ops fail
    on the change than on the parent; then no gain can be claimed.
    """
    direction, bound = metric["better"], metric["bound"]
    p1, pmed, p3 = quartiles(parent)
    cmed = statistics.median(change)
    wins = sum(_better(c, p, direction) for p, c in zip(parent, change))
    gain = cmed - pmed if direction == "higher" else pmed - cmed
    valid = len(parent) >= MIN_PAIRS and valid_pairs
    if valid and wins >= WIN_SHARE * len(parent) and gain > p3 - p1:
        return f"better ({wins}/{len(parent)} pairs won)"
    if -gain > bound * abs(pmed):
        return "worse: beyond the bound"
    every = all(_better(c, p, direction) for c in change for p in parent)
    if (p3 - p1) > bound * abs(pmed) and not every:
        return "unresolved: parent spread exceeds the bound"
    if not valid:
        return f"no regression (no gain can be claimed from these {len(parent)} pairs)"
    return f"no regression ({wins}/{len(parent)} pairs won)"


def cmd_pairs(args) -> int:
    parent, change = load(args.parent), load(args.change)
    worse = 0
    for workload in sorted(set(parent) & set(change)):
        by_seed = {r["seed"]: r for r in change[workload]}
        pairs = [(p, by_seed[p["seed"]]) for p in parent[workload] if p["seed"] in by_seed]
        firsts = [p["started"] < c["started"] for p, c in pairs]
        alternating = all(a != b for a, b in zip(firsts, firsts[1:]))
        failed = [sum(r["result"]["failed"] for r in side) for side in zip(*pairs)]
        print(f"{workload}: {len(pairs)} pairs, {'alternating' if alternating else 'NOT alternating'}"
              f", failed ops parent {failed[0]}, change {failed[1]}")
        for name, m in E2E.items():
            ps = [value(p, name) for p, _ in pairs]
            cs = [value(c, name) for _, c in pairs]
            verdict = judge(ps, cs, m, alternating and failed[1] <= failed[0])
            worse += verdict.startswith("worse")
            pq, cq = quartiles(ps), quartiles(cs)
            print(f"  {name:<16} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  "
                  f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {m['unit']}: {verdict}")
    return 1 if worse else 0


def cmd_overhead(args) -> int:
    plain, traced = load(args.results, 0), load(args.results, 1)
    for workload in sorted(set(plain) & set(traced)):
        a = statistics.median(value(r, "ops_per_s") for r in plain[workload])
        b = statistics.median(value(r, "trace.ops_per_s") for r in traced[workload])
        print(f"{workload}: ops_per_s untraced {a:.4g}, traced {b:.4g}, "
              f"overhead {a - b:.4g} 1/s ({(a - b) / a:.1%})")
    return 0


def _bench_digest(root: Path) -> str:
    h = hashlib.sha256()
    for f in sorted((root / "bench").glob("*.py")):
        h.update(f.read_bytes())
    return h.hexdigest()


def cmd_run(args) -> int:
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    sides = [("parent", args.parent), ("change", args.change)]
    if _bench_digest(args.parent) != _bench_digest(args.change):
        print("warning: the two checkouts have different benchmark code", file=sys.stderr)
    args.out.mkdir(parents=True, exist_ok=True)
    for i, seed in enumerate(seeds):
        for label, root in sides if i % 2 == 0 else sides[::-1]:
            cmd = [sys.executable, "bench/run.py", "--workload", args.workload, "--seed",
                   str(seed), "--seconds", str(args.seconds), "--trace", "0",
                   "--record", str((args.out / f"{label}.jsonl").resolve())]
            subprocess.run(cmd, cwd=root, check=True, stdout=subprocess.DEVNULL)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("spread")
    p.add_argument("results", type=Path)
    p.set_defaults(func=cmd_spread)
    p = sub.add_parser("pairs")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.set_defaults(func=cmd_pairs)
    p = sub.add_parser("overhead")
    p.add_argument("results", type=Path)
    p.set_defaults(func=cmd_overhead)
    p = sub.add_parser("run")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_run)
    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
