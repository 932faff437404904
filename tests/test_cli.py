"""End-to-end tests of the command-line interface and its exit codes."""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import bitpairs.cli
import bitpairs.counting
import bitpairs.tables
from bitpairs.cli import METHODS, run
from bitpairs.counting import (
    s_circular,
    s_circular_oracle,
    z_auto,
    z_oracle,
    z_recur_firstone,
    z_recur_split,
    z_reduce_to_m0,
)

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What an installer's console-script wrapper does: import module:function and
# exit with its return value, under the script's own name in argv[0].
RUN_SCRIPT_TARGET = """\
import importlib, sys
module, function = sys.argv.pop(1).split(":")
sys.argv[0] = "bitpairs"
sys.exit(getattr(importlib.import_module(module), function)())
"""


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invalid_choice(option, value, choices):
    """The results argparse may give for a value outside `choices`: some Python
    versions print each choice with repr(), others bare."""
    return [
        (2, "", f"error: argument {option}: invalid choice: {value!r} (choose from {listed})\n")
        for listed in (", ".join(map(repr, choices)), ", ".join(choices))
    ]


def mask_elapsed(result):
    """An invoke() result with verify's wall-clock time blanked out."""
    code, out, err = result
    return code, re.sub(r"elapsed=\S+", "elapsed=...", out), err


def expected(fn, *args, **kwargs):
    """(exit code, stdout, stderr) the CLI owes for printing fn(*args, **kwargs)."""
    try:
        return 0, f"{fn(*args, **kwargs)}\n", ""
    except ValueError as e:
        return 2, "", f"error: {e}\n"


# the routes `count --method` names, as the library spells them
ROUTES = {
    "auto": z_auto,
    "split": z_recur_split,
    "first-one": z_recur_firstone,
    "reduce": z_reduce_to_m0,
}

# n = 1 (no ring), k + m >= n - 1 (constant strings and zeros), odd n + k + m
# (zero rings), and interior cells of both parities
DISPATCH_POINTS = [
    (1, 0, 0), (2, 1, 0), (2, 2, 0), (4, 0, 4), (5, 2, 2), (6, 4, 3), (7, 2, 2),
    (8, 2, 2), (9, 0, 4), (10, 2, 2), (10, 2, 3), (11, 3, 2), (12, 4, 2),
]


def digit_limit():
    """CPython's cap on int <-> decimal conversion, or None where there is none."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else None


def decimal(value):
    # the test's own conversion, free of the cap the CLI lifts
    if digit_limit() is None:
        return str(value)
    old = digit_limit()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(old)


class TestCount:
    def test_motivating_instance(self, capsys):
        code, out, err = invoke(capsys, "count", "--n", "8", "--k", "2", "--m", "2", "--circular")
        assert (code, out, err) == (0, "36\n", "")

    def test_odd_circular_is_zero(self, capsys):
        code, out, _ = invoke(capsys, "count", "--n", "5", "--k", "1", "--m", "1", "--circular")
        assert (code, out) == (0, "0\n")

    def test_methods_agree_linear(self, capsys):
        for n, k, m in DISPATCH_POINTS:
            argv = ("count", "--n", str(n), "--k", str(k), "--m", str(m), "--method")
            want = {"oracle": expected(z_oracle, n, k, m)}
            want.update((name, expected(z, n, k, m)) for name, z in ROUTES.items())
            assert len(set(want.values())) == 1
            for method, result in want.items():
                assert invoke(capsys, *argv, method) == result, (n, k, m, method)

    def test_methods_agree_circular(self, capsys):
        for n, k, m in DISPATCH_POINTS:
            argv = ("count", "--n", str(n), "--k", str(k), "--m", str(m), "--circular", "--method")
            want = {"oracle": expected(s_circular_oracle, n, k, m)}
            want.update((name, expected(s_circular, n, k, m, z=z)) for name, z in ROUTES.items())
            assert len(set(want.values())) == 1
            for method, result in want.items():
                assert invoke(capsys, *argv, method) == result, (n, k, m, method)

    def test_closed_method_on_its_domain(self, capsys):
        code, out, _ = invoke(capsys, "count", "--n", "10", "--k", "3", "--m", "0", "--method", "closed")
        assert code == 0
        _, auto, _ = invoke(capsys, "count", "--n", "10", "--k", "3", "--m", "0")
        assert out == auto

    def test_closed_method_domain_errors(self, capsys):
        code, _, err = invoke(capsys, "count", "--n", "10", "--k", "3", "--m", "1", "--method", "closed")
        assert code == 2
        assert err.startswith("error:")
        code, _, err = invoke(
            capsys, "count", "--n", "10", "--k", "3", "--m", "0", "--circular", "--method", "closed"
        )
        assert code == 2

    def test_linear_n_zero_refused(self, capsys):
        # every linear method refuses n = 0, ahead of closed's m = 0 rule
        refusal = (2, "", "error: n must be >= 1, got 0\n")
        for method in METHODS:
            for k, m in ((0, 0), (1, 0), (0, 1), (2, 3)):
                argv = ("count", "--n", "0", "--k", str(k), "--m", str(m), "--method", method)
                assert invoke(capsys, *argv) == refusal, (k, m, method)
        for n in ("0", "1"):
            code, _, err = invoke(capsys, "count", "--n", n, "--k", "0", "--m", "0",
                                  "--circular", "--method", "closed")
            assert (code, err) == (2, "error: method 'closed' does not apply to circular adjacency\n")

    def test_recurrence_builds_one_layer(self, capsys, monkeypatch):
        # a linear or a circular query is one z call, so one transfer pass,
        # stepped to the query's length n = 10
        transfer, built = bitpairs.counting._transfer, []

        def counted(k, m, from_one):
            record = [k, m, from_one, 0]  # the pass's arguments and grids drawn
            built.append(record)
            for grids in transfer(k, m, from_one):
                record[3] += 1
                yield grids

        monkeypatch.setattr(bitpairs.counting, "_transfer", counted)
        for method, from_one in (("split", False), ("first-one", True)):
            args = ("count", "--n", "10", "--k", "2", "--m", "4", "--method", method)
            assert invoke(capsys, *args) == (0, "15\n", "")
            assert built == [[2, 4, from_one, 10]]
            built.clear()
            assert invoke(capsys, *args, "--circular") == (0, "75\n", "")
            assert built == [[2, 4, from_one, 10]]
            built.clear()

    def test_large_n_fast_path(self, capsys):
        code, out, _ = invoke(capsys, "count", "--n", "200", "--k", "30", "--m", "20")
        assert code == 0
        assert int(out) > 0


class TestBeyondDigitLimit:
    """Counts with more than 4300 decimal digits print in full."""

    def test_count(self, capsys):
        before = digit_limit()
        code, out, err = invoke(capsys, "count", "--n", "22000", "--k", "9000", "--m", "2")
        assert (code, err) == (0, "")
        assert len(out) > 4301
        assert out == decimal(z_auto(22000, 9000, 2)) + "\n"
        assert digit_limit() == before

    def test_limit_restored_after_error(self, capsys):
        before = digit_limit()
        code, _, _ = invoke(capsys, "count", "--n", "10", "--k", "3", "--m", "1", "--method", "closed")
        assert code == 2
        assert digit_limit() == before

    def test_table_json(self, capsys, monkeypatch):
        # any table with such counts has over 2 * 10**8 cells, so fake the counts
        big = 10**5000 + 7
        monkeypatch.setattr(bitpairs.tables, "z_auto", lambda n, k, m: big)
        code, out, err = invoke(capsys, "table", "--n", "2", "--format", "json")
        assert (code, err) == (0, "")
        assert out.count(decimal(big)) == 4

    def test_limit_never_set(self, capsys, monkeypatch):
        # a count, a faked table cell and a failing verify's got field, each
        # over 4300 digits, print in full while setting the limit raises
        count = decimal(z_auto(22000, 9000, 2)) + "\n"
        big = 10**5000 + 7
        text = decimal(big)
        before = digit_limit()

        def refuse(limit):
            raise AssertionError(f"the int <-> str digit limit was set to {limit}")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
        assert invoke(capsys, "count", "--n", "22000", "--k", "9000", "--m", "2") == (0, count, "")
        monkeypatch.setattr(bitpairs.tables, "z_auto", lambda n, k, m: big)
        code, out, err = invoke(capsys, "table", "--n", "2", "--format", "json")
        assert (code, err, out.count(text)) == (0, "", 4)
        code, out, err = invoke(capsys, "verify", "--max-n", "2", "--mode", "linear")
        assert (code, err) == (1, "")
        assert out.startswith("FAIL: ")
        assert f"  auto at (n=1, k=0, m=0): got {text}, expected 1\n" in out
        assert digit_limit() == before

    def test_lowest_limit_process(self, tmp_path):
        # the interpreter's lowest limit, 640 digits, set for the whole process
        argv = ["count", "--n", "22000", "--k", "9000", "--m", "2"]
        command = [sys.executable, "-X", "int_max_str_digits=640", "-m", "bitpairs", *argv]
        assert spawn(command, tmp_path) == (0, decimal(z_auto(22000, 9000, 2)) + "\n", "")

    def test_overlapping_calls(self, capsys, fast_switching):
        # two threads through one stdout: 4583-digit counts beside small ones
        before = digit_limit()
        big, small = decimal(z_auto(22000, 9000, 2)), str(z_auto(8, 2, 2))
        codes = []

        def calls(times, *argv):
            for _ in range(times):
                codes.append(run(list(argv)))

        threads = [
            threading.Thread(target=calls, args=(40, "count", "--n", "22000", "--k", "9000", "--m", "2")),
            threading.Thread(target=calls, args=(4000, "count", "--n", "8", "--k", "2", "--m", "2")),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        out, err = capsys.readouterr()
        assert (len(codes), set(codes), err) == (4040, {0}, "")
        # each count is one write, its newline another, so lines may interleave
        assert (out.count(big), len(out)) == (40, 40 * len(big) + 4000 * len(small) + 4040)
        assert digit_limit() == before


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        code, _, err = invoke(capsys, "count", "--n", "8", "--k", "2")
        assert code == 2
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_negative_argument(self, capsys):
        code, _, err = invoke(capsys, "count", "--n", "-8", "--k", "2", "--m", "2")
        assert code == 2
        assert "nonnegative" in err

    def test_unknown_flag(self, capsys):
        code, _, err = invoke(capsys, "count", "--n", "8", "--k", "2", "--m", "2", "--frobnicate")
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 2

    def test_no_subcommand(self, capsys):
        code, _, err = invoke(capsys)
        assert code == 2

    def test_oracle_limit_exceeded(self, capsys):
        code, _, err = invoke(capsys, "count", "--n", "30", "--k", "2", "--m", "2", "--method", "oracle")
        assert code == 2
        assert "oracle limit exceeded" in err

    def test_help_exits_zero(self, capsys):
        for command in ("", "count", "table", "triangle", "verify", "enumerate", "bijection"):
            code, out, err = invoke(capsys, *command.split(), "--help")
            assert (code, err) == (0, ""), command
            assert out.startswith(f"usage: bitpairs {command}".rstrip()), command
        assert "count" in invoke(capsys, "--help")[1]


class TestParserReuse:
    """Each subcommand's parser is built once per process and serves every call
    of it; no call sees another's arguments.  The full parser is built only for
    calls that name no subcommand."""

    SEQUENCE = [
        ("count", "--n", "8", "--k", "2", "--m", "2", "--circular"),
        ("count", "--n", "8", "--k", "2"),
        ("count", "--n", "8", "--k", "2", "--m", "2", "--method", "bogus"),
        ("bijection", "--string", "0010", "--sequence", "1,3"),
        ("count", "--n", "0", "--k", "0", "--m", "0"),
        ("--help",),
        ("frobnicate", "--n", "1"),
        ("bijection", "--string", "0010"),
        ("count", "--n", "8", "--k", "2", "--m", "2", "--circular"),
    ]

    def test_sequence_matches_fresh_parsers(self, capsys, monkeypatch):
        alone = []
        for argv in self.SEQUENCE:
            bitpairs.cli._parser.cache_clear()
            alone.append(invoke(capsys, *argv))
        assert [code for code, _, _ in alone] == [0, 2, 2, 2, 2, 0, 2, 0, 0]

        builds = []
        build = bitpairs.cli.build_parser

        def counting_build():
            builds.append(1)
            return build()

        bitpairs.cli._parser.cache_clear()
        monkeypatch.setattr(bitpairs.cli, "build_parser", counting_build)
        set_digits = getattr(sys, "set_int_max_str_digits", None)
        before = digit_limit()
        if set_digits is not None:
            set_digits(4321)  # a limit no default has, so a restore must be real
        try:
            for argv, want in zip(self.SEQUENCE, alone):
                limit = digit_limit()
                assert invoke(capsys, *argv) == want, argv
                assert digit_limit() == limit, argv
            info = bitpairs.cli._parser.cache_info()
        finally:
            if set_digits is not None:
                set_digits(before)
            bitpairs.cli._parser.cache_clear()
        # one parser each for count and bijection; the full one for --help and frobnicate
        assert (info.misses, info.currsize) == (2, 2)
        assert len(builds) == 2

    def test_import_builds_no_parser(self, tmp_path):
        probe = "import bitpairs.cli as c; print(c._parser.cache_info().currsize)"
        assert spawn([sys.executable, "-c", probe], tmp_path) == (0, "0\n", "")

    def test_count_process_builds_one_parser(self, tmp_path):
        # a fresh interpreter's one count: one parser, cached under "count"
        # (asking for it again is a hit), and no full parser
        probe = """\
import bitpairs.cli as c
build, builds = c.build_parser, []
c.build_parser = lambda: builds.append(1) or build()
c.run(["count", "--n", "8", "--k", "2", "--m", "2"])
after_run = c._parser.cache_info()
c._parser("count")
again = c._parser.cache_info()
print(after_run.misses, after_run.currsize, again.hits, again.currsize, len(builds))
"""
        assert spawn([sys.executable, "-c", probe], tmp_path) == (0, "9\n1 1 1 1 0\n", "")


def nested(capsys, *argv):
    """(exit code, stdout, stderr) when the full parser reads `argv`: the
    subcommand's arguments parsed by its subparser under `bitpairs`."""
    parser = bitpairs.cli.build_parser()
    try:
        args = parser.parse_args(list(argv))
        code = args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        code = 2
    except SystemExit:  # --help
        code = 0
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# help, parse errors and the corners of argparse that differ between Python
# versions: abbreviations, `--n=5`, repeats, `--` and the exclusive group
NESTED_CORPUS = [
    "", "--help", "-h", "--", "frobnicate", "frobnicate --n 1", "--n 5",
    "-- count --n 5 --k 1 --m 1", "count -- --n 5 --k 1 --m 1", "count --n 5 --k 1 --m 1 --",
    "count -h", "table -h", "triangle -h", "verify -h", "enumerate -h", "bijection -h",
    "count --n 8 --k 2 --m 2 -h", "count --he",
    "count", "count --n 8 --k 2", "verify", "count --n x --k 2 --m 2", "count --n -8 --k 2 --m 2",
    "count --n 8 --k 2 --m 2 --method bogus", "table --n 4 --format xml",
    "triangle --rows 4 --format bogus", "verify --max-n 3 --mode spiral",
    "count --n 8 --k 2 --m 2 --frobnicate", "count --frobnicate", "count --n 8 --k 2 --m 2 extra",
    "count --n=5 --k=1 --m=1", "count --n 8 --k 2 --m 2 --circ", "verify --max 3",
    "count --n 5 --n 8 --k 2 --m 2", "count --n 8 --k 2 --m 2 --method oracle --oracle 21",
    "count --n 0 --k 0 --m 0", "table --n 4 --circular", "triangle --rows 4",
    "enumerate --n 6 --k 2 --m 1", "bijection", "bijection --string 0010 --sequence 1,3",
    "bijection --str 0010", "bijection --s 0010", "bijection --sequence 1,3 --n 7",
]


@pytest.mark.parametrize("argv", NESTED_CORPUS)
def test_run_matches_nested_parser(capsys, argv):
    want = mask_elapsed(nested(capsys, *argv.split()))
    assert mask_elapsed(invoke(capsys, *argv.split())) == want


class TestOracleLimitPlumbing:
    def test_flag_is_refused(self, capsys):
        # the bound is the constant DEFAULT_ORACLE_LIMIT: no subcommand takes a flag for it
        cases = [
            ("count", "--n", "8", "--k", "2", "--m", "2", "--method", "oracle"),
            ("verify", "--max-n", "6"),
            ("enumerate", "--n", "8", "--k", "2", "--m", "1"),
        ]
        for argv in cases:
            for value in ("21", "8"):
                line = f"error: unrecognized arguments: --oracle-limit {value}\n"
                assert invoke(capsys, *argv, "--oracle-limit", value) == (2, "", line), argv

    def test_environment_is_not_read(self, capsys, monkeypatch):
        cases = [
            ("count", "--n", "12", "--k", "2", "--m", "2", "--method", "oracle"),
            ("count", "--n", "21", "--k", "2", "--m", "2", "--method", "oracle"),
            ("verify", "--max-n", "6"),
            ("enumerate", "--n", "8", "--k", "2", "--m", "1"),
        ]
        monkeypatch.delenv("BITPAIRS_ORACLE_LIMIT", raising=False)
        unset = [mask_elapsed(invoke(capsys, *argv)) for argv in cases]
        for value in ("many", "21", "3"):
            monkeypatch.setenv("BITPAIRS_ORACLE_LIMIT", value)
            assert [mask_elapsed(invoke(capsys, *argv)) for argv in cases] == unset, value

    def test_verify_error_matches_count(self, capsys):
        line = "error: oracle limit exceeded: n=21 > 20\n"
        verify = invoke(capsys, "verify", "--max-n", "21")
        count = invoke(capsys, "count", "--n", "21", "--k", "2", "--m", "2", "--method", "oracle")
        assert verify == count == (2, "", line)


class TestEnumerate:
    def test_lines_match_count(self, capsys):
        for n in range(1, 9):
            for k in range(0, n, 2):
                for m in range(0, n, 2):
                    code, out, _ = invoke(
                        capsys, "enumerate", "--n", str(n), "--k", str(k), "--m", str(m)
                    )
                    assert code == 0
                    lines = out.splitlines()
                    _, count, _ = invoke(capsys, "count", "--n", str(n), "--k", str(k), "--m", str(m))
                    assert len(lines) == int(count)

    def test_circular_lines_match_count(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "--n", "6", "--k", "2", "--m", "2", "--circular")
        assert code == 0
        _, count, _ = invoke(capsys, "count", "--n", "6", "--k", "2", "--m", "2", "--circular")
        assert len(out.splitlines()) == int(count)

    def test_lexicographic(self, capsys):
        _, out, _ = invoke(capsys, "enumerate", "--n", "6", "--k", "1", "--m", "1")
        lines = out.splitlines()
        assert lines == sorted(lines)


class TestBijection:
    def test_forward(self, capsys):
        code, out, _ = invoke(capsys, "bijection", "--string", "001010001010001")
        assert (code, out) == (0, "1,6,7,12,13\n")

    def test_backward(self, capsys):
        code, out, _ = invoke(capsys, "bijection", "--sequence", "1,6,7,12,13", "--n", "15")
        assert (code, out) == (0, "001010001010001\n")

    def test_empty_sequence(self, capsys):
        code, out, _ = invoke(capsys, "bijection", "--string", "0101")
        assert (code, out) == (0, "\n")
        code, out, _ = invoke(capsys, "bijection", "--sequence", "", "--n", "4")
        assert (code, out) == (0, "0101\n")

    def test_sequence_requires_n(self, capsys):
        code, _, err = invoke(capsys, "bijection", "--sequence", "1,2")
        assert code == 2
        assert "--n is required" in err

    def test_n_only_with_sequence(self, capsys):
        code, out, err = invoke(capsys, "bijection", "--string", "0010", "--n", "7")
        assert (code, out, err) == (2, "", "error: --n applies only to --sequence\n")

    def test_mutually_exclusive(self, capsys):
        code, _, _ = invoke(capsys, "bijection", "--string", "00", "--sequence", "1", "--n", "2")
        assert code == 2

    def test_domain_errors(self, capsys):
        code, _, err = invoke(capsys, "bijection", "--string", "0110")
        assert code == 2
        assert "not in Z" in err
        code, _, err = invoke(capsys, "bijection", "--sequence", "2,3", "--n", "6")
        assert code == 2
        assert "invalid Terquem sequence" in err
        code, _, err = invoke(capsys, "bijection", "--sequence", "1,x", "--n", "6")
        assert code == 2
        assert "invalid sequence" in err


class TestTableAndTriangle:
    def test_table_stdout_csv(self, capsys):
        code, out, _ = invoke(capsys, "table", "--n", "4", "--circular")
        assert code == 0
        assert "4,1,1,4" in out.splitlines()

    def test_table_json(self, capsys):
        code, out, _ = invoke(capsys, "table", "--n", "3", "--format", "json")
        records = json.loads(out)
        assert {"n": 3, "k": 1, "m": 0, "count": 1} in records

    def test_out_writes_identical_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = invoke(capsys, "table", "--n", "5", "--out", str(path))
        assert code == 0
        assert out == ""
        _, direct, _ = invoke(capsys, "table", "--n", "5")
        assert path.read_bytes().decode() == direct
        assert b"\r" not in path.read_bytes()

    def test_triangle_bfile(self, capsys, tmp_path):
        path = tmp_path / "b.txt"
        code, _, _ = invoke(capsys, "triangle", "--rows", "10", "--format", "bfile", "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "1 1"
        assert len(lines) == 55

    def test_bad_format(self, capsys):
        for command, choices in (
            ("table --n 4", ("csv", "tsv", "json")),
            ("triangle --rows 4", ("csv", "bfile")),
        ):
            result = invoke(capsys, *command.split(), "--format", "xml")
            assert result in invalid_choice("--format", "xml", choices), command

    @pytest.mark.parametrize(
        "command,target",
        [(["table", "--n", "3"], "missing/t.csv"), (["triangle", "--rows", "3"], ".")],
        ids=["missing-directory", "is-a-directory"],
    )
    def test_unwritable_out(self, tmp_path, command, target):
        code, out, err = spawn(
            [sys.executable, "-m", "bitpairs", *command, "--out", str(tmp_path / target)], tmp_path
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err


class TestVerify:
    def test_clean_build_exits_zero(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--max-n", "6")
        assert code == 0
        assert out.startswith("PASS: 0 mismatches")

    def test_mode_flag(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--max-n", "5", "--mode", "circular")
        assert code == 0
        assert "mode=circular" in out

    def test_fault_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(bitpairs.tables, "z_auto", lambda n, k, m: 7)
        code, out, _ = invoke(capsys, "verify", "--max-n", "4", "--mode", "linear")
        assert code == 1
        assert out.startswith("FAIL")

    def test_bad_mode(self, capsys):
        result = invoke(capsys, "verify", "--max-n", "4", "--mode", "spiral")
        assert result in invalid_choice("--mode", "spiral", ("linear", "circular", "both"))

    def test_over_limit(self, capsys):
        code, _, err = invoke(capsys, "verify", "--max-n", "25")
        assert code == 2
        assert "oracle limit exceeded" in err


def declared_script(name):
    """The ``module:function`` target of `name` in pyproject's [project.scripts].

    A line scan, not ``tomllib``, which Python 3.10 lacks.
    """
    table = None
    for line in PYPROJECT.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            table = line
        elif table == "[project.scripts]":
            key, sep, value = line.partition("=")
            if sep and key.strip().strip("\"'") == name:
                return value.strip().strip("\"'")
    raise AssertionError(f"no {name!r} entry in [project.scripts] of {PYPROJECT}")


def checkout_env():
    """The environment with this checkout's package first on the path."""
    import_root = str(Path(bitpairs.__file__).resolve().parents[1])
    path = [import_root, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def spawn(argv, cwd):
    """Run `argv` as its own process with this checkout's package first on the path."""
    proc = subprocess.run(argv, cwd=cwd, env=checkout_env(), capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


class TestImportFootprint:
    """A command imports only what it runs; a bare ``import bitpairs`` loads no submodule."""

    # a fresh interpreter: the modules that importing the CLI and one command add
    PROBE = """\
import sys
before = set(sys.modules)
import bitpairs.cli
code = bitpairs.cli.run(sys.argv[1:])
print(code, *sorted(set(sys.modules) - before), file=sys.stderr)
"""

    def added(self, tmp_path, *argv):
        code, _, err = spawn([sys.executable, "-c", self.PROBE, *argv], tmp_path)
        status, *modules = err.split()
        assert (code, status) == (0, "0"), err
        return set(modules)

    def test_count(self, tmp_path):
        added = self.added(tmp_path, "count", "--n", "8", "--k", "2", "--m", "2")
        assert "bitpairs.counting" in added
        assert not added & {"bitpairs.tables", "bitpairs.enumeration", "json", "csv"}

    @pytest.mark.parametrize(
        "argv", ["table --n 4 --format csv", "triangle --rows 4", "verify --max-n 4"]
    )
    def test_tables_commands_load_no_codecs(self, tmp_path, argv):
        added = self.added(tmp_path, *argv.split())
        assert "bitpairs.tables" in added
        assert not added & {"json", "csv"}

    def test_decimal_only_past_the_digit_limit(self, tmp_path):
        # a small count prints with str(); the 4583-digit one needs _decimal
        small = self.added(tmp_path, "count", "--n", "8", "--k", "2", "--m", "2")
        assert not small & {"decimal", "_decimal"}
        assert "_decimal" in self.added(tmp_path, "count", "--n", "22000", "--k", "9000", "--m", "2")

    def test_package_import(self, tmp_path):
        probe = (
            "import sys; before = set(sys.modules); import bitpairs; "
            "print(sorted(m for m in set(sys.modules) - before if m.startswith('bitpairs.')))"
        )
        assert spawn([sys.executable, "-c", probe], tmp_path) == (0, "[]\n", "")


class TestConsoleScript:
    def test_closed_stdout_ends_quietly(self, tmp_path):
        # `| head -1`: the reader takes one line and closes the pipe while
        # over 300 KB are still to come, more than a pipe and its buffers hold
        argv = ["enumerate", "--n", "18", "--k", "4", "--m", "4", "--circular"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "bitpairs", *argv], cwd=tmp_path, env=checkout_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (first, proc.returncode, err) == (b"000001010101011111\n", -signal.SIGPIPE, b"")

    def test_run_as_module_without_warnings(self, tmp_path):
        # runpy warns when the module it runs is already imported, e.g. by the package
        args = ["count", "--n", "8", "--k", "2", "--m", "2", "--circular"]
        for module in ("bitpairs.cli", "bitpairs"):
            command = [sys.executable, "-W", "error", "-m", module, *args]
            assert spawn(command, tmp_path) == (0, "36\n", ""), module

    def test_entry_point(self, tmp_path):
        args = ["count", "--n", "8", "--k", "2", "--m", "2", "--circular"]
        expected = (0, "36\n", "")
        target = declared_script("bitpairs")
        assert spawn([sys.executable, "-c", RUN_SCRIPT_TARGET, target, *args], tmp_path) == expected
        assert spawn([sys.executable, "-m", "bitpairs", *args], tmp_path) == expected
        installed = shutil.which("bitpairs")
        if installed:
            assert spawn([installed, *args], tmp_path) == expected
