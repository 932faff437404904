"""Tests for table building, rendering, parsing and the verifier."""

import json

import pytest

import bitpairs.tables
from bitpairs import (
    Mismatch,
    VerifyReport,
    ZTable,
    linear_pair_counts,
    parse_z_table,
    render_terquem_triangle,
    render_z_table,
    s_circular,
    terquem_T,
    verify_all,
    z_auto,
    z_oracle,
    z_table,
)
from bitpairs.counting import (
    _transfer,
    binomial,
    wrap_parity_predicts_equal_ends,
    z_closed_m0,
)
from bitpairs.counting import z_reduce_to_m0 as real_reduce


def _plus_one_in_pass(cell, *seeds):
    # the passes of those seeds (from_one) to length n return end0 with cell
    # [a][b] one too high, in a copy of the real pass's rows
    def broken(n, k, m, from_one):
        end0, end1 = _transfer(n, k, m, from_one)
        if n == cell[0] and from_one in seeds:
            end0 = end0[:]
            end0[cell[1]] += 1 << n * cell[2]  # row a holds cell b in its n-bit slot b
        return end0, end1

    return broken


def _plus_one_at(point, f):
    return lambda *args: f(*args) + (args == point)


def _plant(monkeypatch, name, broken):
    # a planted fault reaches every caller: the name in both modules that bind
    # it, and s_circular's default z, bound when s_circular was defined
    for module in (bitpairs.counting, bitpairs.tables):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, broken)
    if name == "z_auto":
        monkeypatch.setitem(s_circular.__kwdefaults__, "z", broken)


def _mismatches_with(monkeypatch, name, broken, max_n=8):
    # verify's mismatches on the full grid to max_n with the fault planted
    _plant(monkeypatch, name, broken)
    return verify_all(max_n, "both").mismatches


# per verify method, in report order: a fault that only that method's records
# catch, as the (n, k, m) cell it shows at, the name to patch and its broken version
_WITNESSES = {
    "split": ((5, 1, 1), "_transfer", _plus_one_in_pass((5, 1, 1), False)),
    "first-one": ((5, 1, 1), "_transfer", _plus_one_in_pass((5, 1, 1), True)),
    "reduce": ((5, 1, 1), "z_reduce_to_m0", _plus_one_at((5, 1, 1), real_reduce)),
    # n + k + m is odd, so s_circular answers 0 there without calling z
    "auto": ((5, 0, 2), "z_auto", _plus_one_at((5, 0, 2), z_auto)),
    # k = n - 1: the reduction answers this cell from z_base_case
    "closed": ((5, 4, 0), "z_closed_m0", _plus_one_at((5, 4), z_closed_m0)),
    "circular": ((6, 1, 1), "s_circular", _plus_one_at((6, 1, 1), s_circular)),
    "end-parity": (
        (5, 1, 1),
        "wrap_parity_predicts_equal_ends",
        lambda *args: wrap_parity_predicts_equal_ends(*args) != (args == (5, 1, 1)),
    ),
}
_RING_AND_PARITY = ("circular", "end-parity")

# past the oracle limit, where split is the reference and end parity is not
# checked, a fault at one cell with 20 < n <= 24 for each remaining method
# but auto and circular, which test_counting's TestTransferBeyondOracle plants
_PAST_LIMIT = {
    "first-one": ((22, 1, 1), "_transfer", _plus_one_in_pass((22, 1, 1), True)),
    "reduce": ((22, 5, 3), "z_reduce_to_m0", _plus_one_at((22, 5, 3), real_reduce)),
    "closed": ((21, 20, 0), "z_closed_m0", _plus_one_at((21, 20), z_closed_m0)),  # k = n - 1
}


class TestZTable:
    def test_linear_cells_and_sum(self):
        for n in range(1, 10):
            table = z_table(n, "linear")
            assert len(table.cells) == n * n
            assert table.total() == 2 ** (n - 1)
            for k, m, c in table.cells:
                assert c == z_auto(n, k, m)
                if k + m >= n:
                    assert c == 0

    def test_circular_cells_and_sum(self):
        for n in range(2, 10):
            table = z_table(n, "circular")
            assert len(table.cells) == (n + 1) ** 2
            assert table.total() == 2**n
            for k, m, c in table.cells:
                assert c == s_circular(n, k, m)

    def test_cells_sorted(self):
        cells = z_table(5, "circular").cells
        assert [c[:2] for c in cells] == sorted(c[:2] for c in cells)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            z_table(0, "linear")
        with pytest.raises(ValueError, match="below length 2"):
            z_table(1, "circular")
        with pytest.raises(ValueError, match="unsupported mode"):
            z_table(4, "spiral")


class TestRenderZTable:
    def test_linear_csv_example(self):
        text = render_z_table(3, "linear", "csv")
        lines = text.splitlines()
        assert lines[0] == "n,k,m,count"
        for expected in ("3,0,0,1", "3,1,0,1", "3,2,0,1", "3,0,1,1"):
            assert expected in lines
        for line in lines[1:]:
            if line not in ("3,0,0,1", "3,1,0,1", "3,2,0,1", "3,0,1,1"):
                assert line.endswith(",0")

    def test_circular_csv_examples(self):
        assert "4,1,1,4" in render_z_table(4, "circular", "csv").splitlines()
        for line in render_z_table(5, "circular", "csv").splitlines()[1:]:
            _, k, m, c = (int(x) for x in line.split(","))
            if (5 + k + m) % 2 == 1:
                assert c == 0

    def test_json_shape(self):
        records = json.loads(render_z_table(4, "linear", "json"))
        assert all(set(r) == {"n", "k", "m", "count"} for r in records)
        assert len(records) == 16

    def test_json_bytes_match_json_dumps(self):
        # the json module stays the reference for the one-template rendering
        for mode, first in (("linear", 1), ("circular", 2)):
            for n in range(first, 41):
                table = z_table(n, mode)
                records = [dict(zip(bitpairs.tables._HEADER, (n, k, m, c))) for k, m, c in table.cells]
                text = render_z_table(n, mode, "json")
                assert text == json.dumps(records, indent=1) + "\n", (n, mode)
                assert parse_z_table(text, "json") == table

    def test_newline_discipline(self):
        for fmt in ("csv", "tsv", "json"):
            text = render_z_table(3, "linear", fmt)
            assert text.endswith("\n")
            assert "\r" not in text

    def test_unsupported_format(self):
        with pytest.raises(ValueError, match="supported: csv, tsv, json"):
            render_z_table(3, "linear", "xml")

    def test_round_trip_all_formats(self):
        for fmt in ("csv", "tsv", "json"):
            for mode in ("linear", "circular"):
                for n in (2, 5, 8):
                    table = z_table(n, mode)
                    again = parse_z_table(render_z_table(n, mode, fmt), fmt)
                    assert again == table

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError, match="missing header"):
            parse_z_table("1,2,3,4\n", "csv")
        with pytest.raises(ValueError, match="no records"):
            parse_z_table("n,k,m,count\n", "csv")
        good = render_z_table(3, "linear", "csv")
        with pytest.raises(ValueError, match="unexpected cell count"):
            parse_z_table(good + "3,9,9,0\n", "csv")
        header = "n,k,m,count\n"
        for text, why in (
            (header + "1,5,5,-7\n", "negative count"),
            (header + "1,0,0,-1\n", "negative count"),
            (header + "1,0,0\n", "exactly 4 fields"),
            (header + "1,0,0,1,0\n", "exactly 4 fields"),
            (header + "1,0,0,x\n", "integers"),
            (header + "1,5,5,7\n", "unexpected cell"),
            (header + "100000,0,0,1\n", "unexpected cell"),  # no 10**10-cell grid is built
            (header + "2,0,0,1\n2,0,0,1\n2,1,0,0\n2,1,1,0\n", "unexpected cell"),  # duplicate
            (header + "2,0,1,0\n2,0,0,1\n2,1,0,0\n2,1,1,0\n", "unexpected cell"),  # order
            (header + "2,0,0,1\n3,0,1,0\n2,1,0,1\n2,1,1,0\n", "inconsistent n"),
            (header + "0,0,0,1\n", "below length 2"),  # circular n = 0
            (header + "1,0,0,1\n1,0,1,0\n1,1,0,0\n1,1,1,0\n", "below length 2"),
        ):
            with pytest.raises(ValueError, match=f"malformed table: .*{why}"):
                parse_z_table(text, "csv")
        with pytest.raises(ValueError, match="malformed table: negative count"):
            parse_z_table('[{"n": 1, "k": 0, "m": 0, "count": -1}]', "json")
        with pytest.raises(ValueError, match="malformed table: unexpected cell"):
            parse_z_table('[{"n": 1000000000000, "k": 0, "m": 0, "count": 1}]', "json")
        for text in (
            '[{"n": 1}]',
            "[[1, 0, 0, 1]]",
            '{"n": 1}',
            "null",
            '[{"n": 1, "k": 0, "m": 0, "count": 1, "extra": 0}]',
            '[{"n": 1, "k": 0, "m": 0, "count": "1"}]',
            '[{"n": 1, "k": 0, "m": 0, "count": true}]',
            '[{"n": 1, "k": 0, "m": 0.0, "count": 1}]',
        ):
            with pytest.raises(ValueError, match="malformed table"):
                parse_z_table(text, "json")


class TestTriangle:
    def test_bfile_starts_at_index_one(self):
        assert render_terquem_triangle(1, "bfile") == "1 1\n"

    def test_bfile_line_count(self):
        for rows in (1, 4, 10):
            lines = render_terquem_triangle(rows, "bfile").splitlines()
            assert len(lines) == rows * (rows + 1) // 2
            assert [int(line.split()[0]) for line in lines] == list(
                range(1, len(lines) + 1)
            )

    def test_csv_example_row(self):
        assert "4,2,3" in render_terquem_triangle(5, "csv").splitlines()

    def test_first_column_all_ones(self):
        for line in render_terquem_triangle(12, "csv").splitlines()[1:]:
            n, k, t = (int(x) for x in line.split(","))
            if k == 0:
                assert t == 1

    def test_entries_match_formula(self):
        lines = render_terquem_triangle(10, "csv").splitlines()[1:]
        expected = [(n, k) for n in range(10) for k in range(n + 1)]
        assert len(lines) == len(expected)
        for line, (n, k) in zip(lines, expected):
            assert line == f"{n},{k},{terquem_T(n, k)}"

    def test_errors(self):
        with pytest.raises(ValueError, match="rows must be >= 1"):
            render_terquem_triangle(0, "csv")
        with pytest.raises(ValueError, match="supported: csv, bfile"):
            render_terquem_triangle(3, "json")


class TestBeyondDigitLimit:
    """Library calls render counts past the interpreter's int -> str digit
    limit (4300 by default) in full, with no CLI around them and the limit
    left as it is.  No real table, triangle or report reaches that size
    quickly, so the counts are faked."""

    BIG = 10**5000 + 7

    @pytest.fixture
    def text(self, unlimited_str):
        # str() alone refuses BIG under the limit in force
        with pytest.raises(ValueError):
            str(self.BIG)
        return unlimited_str(self.BIG)

    def test_table(self, monkeypatch, text):
        monkeypatch.setattr(bitpairs.tables, "z_auto", lambda n, k, m: self.BIG)
        for fmt in ("csv", "tsv", "json"):
            assert render_z_table(2, "linear", fmt).count(text) == 4, fmt

    @pytest.mark.parametrize("lowest", [False, True], ids=["default-limit", "lowest-limit"])
    def test_table_round_trip(self, monkeypatch, request, text, lowest):
        # every format reads back the cells it wrote, under the default limit
        # and under the lowest one, 640 digits
        if lowest:
            request.getfixturevalue("lowest_digit_limit")
        monkeypatch.setattr(bitpairs.tables, "z_auto", lambda n, k, m: self.BIG + k - m)
        cells = tuple((k, m, self.BIG + k - m) for k in (0, 1) for m in (0, 1))
        for fmt in ("csv", "tsv", "json"):
            assert parse_z_table(render_z_table(2, "linear", fmt), fmt) == ZTable(2, "linear", cells)
        # a long run of digits is still refused where it is not an integer, or negative
        header, row = "n,k,m,count\n", "1,0,0,{}\n"
        for count, why in (
            (text + "x", "fields must be integers"),
            (text + ".0", "fields must be integers"),
            ("1e5", "fields must be integers"),
            ("\u0663" * 5001, "fields must be integers"),  # ARABIC-INDIC DIGIT THREE
            ("-" + text, "negative count"),
        ):
            with pytest.raises(ValueError, match=f"^malformed table: {why}$"):
                parse_z_table(header + row.format(count), "csv")
        for count, why in (
            ("1e5", "fields must be integers"),
            (text + ".0", "fields must be integers"),
            ("-" + text, "negative count"),
        ):
            with pytest.raises(ValueError, match=f"^malformed table: {why}$"):
                parse_z_table(f'[{{"n": 1, "k": 0, "m": 0, "count": {count}}}]', "json")

    def test_triangle(self, monkeypatch, text):
        monkeypatch.setattr(bitpairs.tables, "terquem_T", lambda n, k: self.BIG)
        assert render_terquem_triangle(2, "csv").count(text) == 3
        assert render_terquem_triangle(2, "bfile") == f"1 {text}\n2 {text}\n3 {text}\n"

    def test_verify_summary(self, text):
        report = VerifyReport(1, "linear", ("auto",), 1, (Mismatch(1, 0, 0, "auto", self.BIG, 1),), 0.0)
        assert report.summary().endswith(f"\n  auto at (n=1, k=0, m=0): got {text}, expected 1")


class TestVerifyAll:
    def test_clean_build_passes(self):
        report = verify_all(8, "both")
        assert report.success
        assert report.mismatches == ()
        assert report.checks > 0
        assert "PASS: 0 mismatches" in report.summary()
        assert report.methods == (
            "split", "first-one", "reduce", "auto", "closed", "circular", "end-parity",
        )

    @pytest.mark.parametrize("mode", ["linear", "circular", "both"])
    @pytest.mark.parametrize("max_n", [2, 5, 9, 14, 22])
    def test_check_count(self, max_n, mode):
        # per n: the (n+1)^2 grid for the four linear routes plus the n+1
        # cells of the closed form's column, the ring's (n+1)^2 grid from
        # n = 2, and 2^n strings for end parity; past the oracle limit, n = 20,
        # split (the reference there) and end parity make no record
        lengths = range(1, max_n + 1)
        linear = sum((4 - (n > 20)) * (n + 1) ** 2 + (n + 1) for n in lengths)
        circular = sum((n + 1) ** 2 for n in lengths if n >= 2)
        always = sum(2**n for n in lengths if n <= 20)
        want = always + {"linear": linear, "circular": circular, "both": linear + circular}[mode]
        assert verify_all(max_n, mode).checks == want
        if max_n == 14:
            assert want == {"linear": 37841, "circular": 34001, "both": 39076}[mode]

    def test_minimum_range(self):
        report = verify_all(2, "linear")
        assert report.success
        assert "circular" not in report.methods

    def test_domain_errors(self, monkeypatch):
        with pytest.raises(ValueError, match="max_n must be >= 2"):
            verify_all(1)
        with pytest.raises(ValueError, match="^verify limit exceeded: max_n=101 > 100$"):
            verify_all(101)
        with pytest.raises(ValueError, match="unsupported mode"):
            verify_all(6, "sideways")
        # max_n = VERIFY_LIMIT runs and one more is refused before any pass,
        # shown on a limit of 5
        monkeypatch.setattr(bitpairs.tables, "VERIFY_LIMIT", 5)
        assert verify_all(5).success
        monkeypatch.setattr(bitpairs.tables, "_transfer", None)  # a pass would raise TypeError
        with pytest.raises(ValueError, match="^verify limit exceeded: max_n=6 > 5$"):
            verify_all(6)

    def test_fault_injection_linear(self, monkeypatch):
        def broken(*args):
            return 999 if args == (5, 1, 1) else real_reduce(*args)

        monkeypatch.setattr(bitpairs.tables, "z_reduce_to_m0", broken)
        report = verify_all(6, "linear")
        assert not report.success
        assert report.mismatches == (Mismatch(5, 1, 1, "reduce", 999, 2),)
        assert "FAIL: 1 mismatches" in report.summary()
        assert "reduce at (n=5, k=1, m=1): got 999, expected 2" in report.summary()

    @staticmethod
    def caught_alone(monkeypatch, method):
        # the witness shows as one mismatch: that method's, at the planted cell
        cell, name, broken = _WITNESSES[method]
        assert [w[:4] for w in _mismatches_with(monkeypatch, name, broken)] == [(*cell, method)]

    @pytest.mark.parametrize("method", [m for m in _WITNESSES if m not in _RING_AND_PARITY])
    def test_fault_injection_each_linear_check(self, monkeypatch, method):
        self.caught_alone(monkeypatch, method)

    @pytest.mark.parametrize("method", _RING_AND_PARITY)
    def test_fault_injection_each_ring_and_parity_check(self, monkeypatch, method):
        self.caught_alone(monkeypatch, method)

    def test_every_method_has_a_witness(self):
        assert tuple(_WITNESSES) == verify_all(2, "both").methods

    @pytest.mark.parametrize("method", _PAST_LIMIT)
    def test_fault_injection_past_the_oracle_limit(self, monkeypatch, method):
        cell, name, broken = _PAST_LIMIT[method]
        assert [w[:4] for w in _mismatches_with(monkeypatch, name, broken, 24)] == [(*cell, method)]

    @pytest.mark.parametrize(
        "name, broken, caught",
        [
            # the step both recurrences share: both catch it, and nothing else
            ("_transfer", _plus_one_in_pass((5, 1, 1), False, True), {"split", "first-one"}),
            ("binomial", _plus_one_at((4, 2), binomial), {"auto", "circular", "closed", "reduce"}),
            # off the boundary the reduction answers the m = 0 column with the closed form
            ("z_closed_m0", _plus_one_at((5, 1), z_closed_m0), {"closed", "reduce"}),
        ],
        ids=["transfer-step", "binomial", "closed-column"],
    )
    def test_fault_injection_shared_code(self, monkeypatch, name, broken, caught):
        assert {w.method for w in _mismatches_with(monkeypatch, name, broken)} == caught

    def test_fault_injection_oracle(self, monkeypatch):
        # the oracle one too high at a cell of the m = 0 column: every linear
        # route disagrees with it there, once each, in method order
        monkeypatch.setattr(bitpairs.tables, "z_oracle", _plus_one_at((5, 1, 0), z_oracle))
        report = verify_all(6, "linear")
        assert report.mismatches == tuple(
            Mismatch(5, 1, 0, method, 2, 3)
            for method in ("auto", "closed", "first-one", "reduce", "split")
        )

    @pytest.mark.parametrize("mode", ["linear", "both", "circular"])
    def test_one_pass_per_seed(self, monkeypatch, mode):
        # verify_all runs one pass per seed at each length n, on the full
        # (n + 1) x (n + 1) grid: one (n, k, m, from_one) record per pass; the
        # circular mode reads no recurrence, so it runs only the reference
        # split pass past the oracle limit
        calls = []

        def counted(*args):
            calls.append(args)
            return _transfer(*args)

        monkeypatch.setattr(bitpairs.tables, "_transfer", counted)
        assert verify_all(22, mode).success
        per_seed = [(n, n, n, seed) for n in range(1, 23) for seed in (False, True)]
        assert calls == ([(21, 21, 21, False), (22, 22, 22, False)] if mode == "circular" else per_seed)

    def test_fault_injection_circular(self, monkeypatch):
        monkeypatch.setattr(bitpairs.tables, "s_circular", lambda n, k, m: 0)
        report = verify_all(4, "circular")
        assert not report.success
        assert all(w.method == "circular" for w in report.mismatches)
        assert list(report.mismatches) == sorted(report.mismatches, key=lambda w: w[:4])

    def test_fault_injection_end_parity(self, monkeypatch):
        # wrong exactly when k == 1: one mismatch per such linear profile
        def wrong(n, k, m):
            return ((n + k + m) % 2 == 1) != (k == 1)

        clean = verify_all(9, "linear")
        monkeypatch.setattr(bitpairs.tables, "wrap_parity_predicts_equal_ends", wrong)
        report = verify_all(9, "linear")
        expected = set()
        for n in range(1, 10):
            for v in range(1 << n):
                b = format(v, f"0{n}b")
                _, k, m = linear_pair_counts(b)
                ends = b[0] == b[-1]
                if ends != wrong(n, k, m):
                    expected.add(Mismatch(n, k, m, "end-parity", int(ends), int(wrong(n, k, m))))
        assert expected
        assert len({w[:3] for w in expected}) == len(expected)
        assert report.mismatches == tuple(sorted(expected))
        assert report.checks == clean.checks
