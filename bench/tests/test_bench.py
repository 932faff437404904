"""Tests of the benchmark's own code.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checker  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def first_ops(workload, seed, count):
    return list(itertools.islice(itertools.chain.from_iterable(workloads.blocks(workload, seed)), count))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = first_ops(workload, 7, 60)
    assert first == first_ops(workload, 7, 60)
    assert first != first_ops(workload, 8, 60)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_blocks_have_a_fixed_size_and_valid_argv(workload):
    stream = workloads.blocks(workload, 3)
    sizes = {len(next(stream)) for _ in range(5)}
    assert len(sizes) == 1
    from bitpairs.cli import build_parser

    parser = build_parser()
    for op in first_ops(workload, 3, 40):
        parser.parse_args(list(op.argv))


def _brute(n, circular):
    hist = {}
    for v in range(1 << (n if circular else n - 1)):
        km = checker.pair_counts(format(v, f"0{n}b"), circular)
        hist[km] = hist.get(km, 0) + 1
    return hist


@pytest.mark.parametrize("n", range(1, 11))
def test_closed_forms_agree_with_brute_force(n):
    lin = _brute(n, False)
    for k in range(n + 1):
        for m in range(n + 1):
            assert checker.z_runs(n, k, m) == lin.get((k, m), 0)
    if n >= 2:
        circ = _brute(n, True)
        for k in range(n + 1):
            for m in range(n + 1):
                assert checker.s_runs(n, k, m) == circ.get((k, m), 0)


def test_self_check_passes():
    checker.self_check(8)


def test_brute_force_counts_pairs_slot_by_slot():
    assert checker.pair_counts("0011", False) == (1, 1)
    assert checker.pair_counts("0110", True) == (1, 1)
    assert checker.pair_counts("00", True) == (2, 0)


def test_checker_accepts_right_and_rejects_wrong_counts():
    op = workloads.Op(("count",), {"n": 9, "k": 2, "m": 3, "circular": False, "method": "auto"})
    right = f"{checker.z_runs(9, 2, 3)}\n"
    assert checker.check(op, 0, right, "") is None
    assert checker.check(op, 0, f"{checker.z_runs(9, 2, 3) + 1}\n", "") is not None
    assert checker.check(op, 2, "", "error: boom") is not None


def test_checker_judges_tables():
    op = workloads.Op(("table",), {"n": 4, "circular": False, "format": "csv"})
    rows = [f"4,{k},{m},{checker.z_runs(4, k, m)}" for k in range(4) for m in range(4)]
    good = "\n".join(["n,k,m,count"] + rows) + "\n"
    assert checker.check(op, 0, good, "") is None
    assert checker.check(op, 0, good.replace("4,0,0,", "4,0,0,9"), "") is not None
    assert checker.check(op, 0, good.rsplit("\n", 2)[0] + "\n", "") is not None


def test_checker_judges_enumerations():
    p = {"n": 5, "k": 1, "m": 1, "circular": False}
    strings = sorted(
        b for b in (format(v, "05b") for v in range(16)) if checker.pair_counts(b, False) == (1, 1)
    )
    op = workloads.Op(("enumerate",), p)
    assert checker.check(op, 0, "".join(s + "\n" for s in strings), "") is None
    assert checker.check(op, 0, "".join(s + "\n" for s in strings[1:]), "") is not None
    assert checker.check(op, 0, "".join(s + "\n" for s in strings[::-1]), "") is not None


def test_checker_judges_bijections_and_triangles():
    op = workloads.Op(("bijection",), {"string": "00100"})
    assert checker.check(op, 0, "1,4\n", "") is None
    assert checker.check(op, 0, "1,3\n", "") is not None
    op = workloads.Op(("bijection",), {"sequence": [1, 4], "n": 5})
    assert checker.check(op, 0, "00100\n", "") is None
    assert checker.check(op, 0, "01000\n", "") is not None
    op = workloads.Op(("triangle",), {"rows": 3, "format": "bfile"})
    assert checker.check(op, 0, "1 1\n2 1\n3 1\n4 1\n5 1\n6 1\n", "") is None
    assert checker.check(op, 0, "1 1\n2 1\n3 1\n4 1\n5 2\n6 1\n", "") is not None


def test_digit_limit_is_checked_without_changing_it():
    big = 10**checker.DIGIT_LIMIT
    assert checker.over_digit_limit(big) and not checker.over_digit_limit(big - 1)
    before = sys.get_int_max_str_digits()
    op = workloads.Op(("count",), {"n": 30000, "k": 13350, "m": 4, "circular": False,
                                   "method": "auto"})
    assert checker.check(op, 0, "1\n", "") is not None
    assert sys.get_int_max_str_digits() == before


def test_timed_counts_stay_below_the_digit_limit_and_probes_pass_it():
    with checker._unlimited_digits():
        for op in first_ops("count_large", 5, 400):
            assert not checker.over_digit_limit(checker.reference_count(op.params)), op.argv
        probes = workloads.digit_limit_probes(5)
        assert len(probes) == workloads.OVER_LIMIT_PROBES
        assert probes == workloads.digit_limit_probes(5)
        for op in probes:
            assert checker.over_digit_limit(checker.reference_count(op.params)), op.argv


def test_speed_scales_each_op_by_the_references_around_it():
    speed = run.Speed({}, "child")
    nominal = run.Speed.NOMINAL_MS["child"]
    speed.samples = [i * nominal for i in range(1, 8)]
    assert run.SMOOTH == 3
    assert speed.op(0) == pytest.approx(1 / 2.5)  # samples 0-3
    assert speed.op(3) == pytest.approx(1 / 4.5)  # samples 1-6
    assert speed.op(6) == pytest.approx(1 / 6)  # run cut: no sample after op 6
    res = run.Outcome()
    res.ops = [(0.1, 0, True), (0.2, 1, True), (0.3, 2, False)]
    ops_per_s, lat_ms = run.op_rates(res, lambda i: 2.0)
    assert lat_ms == pytest.approx([200.0, 400.0])
    assert ops_per_s == pytest.approx(2 / 1.2)


def test_timed_loop_ends_at_the_hard_stop_below_min_ops(monkeypatch):
    monkeypatch.setattr(run, "HARD_STOP_S", 0.0)
    calls = []
    res = run.timed_loop("count_large", workloads.blocks("count_large", 1), 10.0, {}, calls.append)
    assert res.attempted == 0 and len(calls) == 1


def test_fast_path_work_is_computed_from_the_inputs():
    assert layers.fast_path_work(10, 2, 4, False) == (1, 8)  # n + k + m even: 2m terms
    assert layers.fast_path_work(10, 2, 3, False) == (1, 3)  # odd: m terms
    assert layers.fast_path_work(10, 2, 0, False) == (1, 0)  # m = 0: closed form
    assert layers.fast_path_work(9, 2, 2, True) == (0, 0)  # odd sum: no z evaluated


def test_largest_binomial_is_the_largest_reduction_factor():
    import math

    for n, k, m in ((300, 70, 40), (1000, 250, 150), (60, 5, 30), (40, 30, 3)):
        factors = [math.comb((n - m - f + k + f - 1) // 2, k + f) for f in range(1, m + 1)]
        a, b = layers.largest_binomial(n, k, m)
        assert math.comb(a, b) == max(factors)
    assert layers.largest_binomial(10, 3, 0) == (6, 3)


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.METRICS)
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}


def test_compare_needs_ten_alternating_pairs_and_nine_wins():
    metric = {"name": "ops_per_s", "better": "higher", "bound": 0.1}
    parent = [100.0 + i % 3 for i in range(10)]
    assert judge_ok(compare.judge(parent, [x + 10 for x in parent], metric, True), "better")
    assert not judge_ok(compare.judge(parent, [x + 10 for x in parent], metric, False), "better")
    assert not judge_ok(compare.judge(parent[:9], [x + 10 for x in parent[:9]], metric, True),
                        "better")
    assert judge_ok(compare.judge(parent, [x - 20 for x in parent], metric, True), "worse")
    noisy = [50.0, 150.0] * 5
    assert judge_ok(compare.judge(noisy, noisy[::-1], metric, True), "unresolved")


def judge_ok(verdict: str, word: str) -> bool:
    return verdict.startswith(word)
