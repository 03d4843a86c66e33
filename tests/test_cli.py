"""Command-line interface: formats, exit codes, determinism, round trips."""

import json
import time

import pytest

from confpoly import cli, ffield, verify
from confpoly.ring import LaurentPoly

PYRAMIDAL_5X5 = "1,0,0,0,0\n1,1,1,1,1\n1,2,3,4,5\n1,3,6,10,15\n1,4,10,20,35\n"


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def checked_cells(out):
    """(space, k) of every PASS/FAIL line of a verify run."""
    cells = []
    for line in out.splitlines():
        if line.startswith(("PASS ", "FAIL ")):
            fields = dict(f.split("=", 1) for f in line.split(" | ")[0].split()[1:])
            cells.append((fields["space"], int(fields["k"])))
    return cells


class TestTablePyramidal:
    def test_csv_reference_table(self, capsys):
        code, out, _ = run_cli(
            capsys, ["table", "pyramidal", "--max-k", "3", "--max-i", "4"]
        )
        assert code == 0
        assert out == PYRAMIDAL_5X5

    def test_latex_layout(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["table", "pyramidal", "--max-k", "3", "--max-i", "4", "--format", "latex"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == r"\begin{tabular}{c|ccccc}"
        assert lines[1] == r"$k \backslash i$ & 0 & 1 & 2 & 3 & 4 \\"
        assert lines[2] == r"\midrule"
        assert lines[3] == r"-1 & 1 & 0 & 0 & 0 & 0 \\"
        assert lines[-2] == r"3 & 1 & 4 & 10 & 20 & 35"
        assert lines[-1] == r"\end{tabular}"

    def test_range_policy(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "pyramidal", "--max-k", "33", "--max-i", "4"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestTableBetti:
    def test_json_standard_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["table", "betti", "--space", "unordered", "--kind", "standard",
             "-k", "2", "--max-n", "3", "--format", "json"],
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[-1]["ranks"] == ["1", "3", "5", "4"]
        assert rows[-1] == {
            "k": 2, "n": 3, "ranks": ["1", "3", "5", "4"], "poly": "4x^3+5x^2+3x+1",
        }

    def test_json_round_trip_standard(self, capsys):
        _, out, _ = run_cli(
            capsys,
            ["table", "betti", "--space", "ordered", "--kind", "standard",
             "-k", "2", "--max-n", "4", "--format", "json"],
        )
        for row in json.loads(out):
            rebuilt = LaurentPoly({i: int(r) for i, r in enumerate(row["ranks"])})
            assert str(rebuilt) == row["poly"]

    def test_json_round_trip_virtual(self, capsys):
        _, out, _ = run_cli(
            capsys,
            ["table", "betti", "--space", "unordered", "--kind", "virtual",
             "-k", "3", "--max-n", "4", "--format", "json"],
        )
        for row in json.loads(out):
            rebuilt = LaurentPoly({i: int(c) for i, c in enumerate(row["coeffs"])})
            assert str(rebuilt) == row["poly"]

    def test_csv_standard(self, capsys):
        code, out, _ = run_cli(
            capsys, ["table", "betti", "-k", "2", "--max-n", "3"]
        )
        assert code == 0
        assert out == "1\n1,2\n1,3,3\n1,3,5,4\n"

    def test_csv_virtual_single_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["table", "betti", "--space", "ordered", "--kind", "virtual",
             "-k", "2", "--max-n", "0"],
        )
        assert code == 0
        assert out == "1\n"

    def test_latex_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["table", "betti", "--space", "ordered", "--kind", "virtual",
             "-k", "2", "--max-n", "3", "--format", "latex"],
        )
        assert code == 0
        assert "3 & $x^6-9x^4+26x^2-24$" in out

    def test_k_policy(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "betti", "-k", "40", "--max-n", "2"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: confpoly table betti ")


class TestSeries:
    def test_standard_unordered_base(self, capsys):
        code, out, _ = run_cli(
            capsys, ["series", "--family", "standard-unordered", "-k", "0", "--order", "3"]
        )
        assert code == 0
        assert out == "1\n1\nx+1\nx+1\n"

    def test_virtual_unordered(self, capsys):
        code, out, _ = run_cli(
            capsys, ["series", "--family", "virtual-unordered", "-k", "2", "--order", "3"]
        )
        assert code == 0
        assert out.splitlines()[-1] == "x^6-3x^4+5x^2-4"

    def test_order_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, ["series", "--family", "virtual-unordered", "-k", "0", "--order", "0"]
        )
        assert code == 0
        assert out == "1\n"

    def test_raw_family_matches_simplified(self, capsys):
        _, raw, _ = run_cli(
            capsys,
            ["series", "--family", "virtual-unordered-raw", "-k", "3", "--order", "6"],
        )
        _, simplified, _ = run_cli(
            capsys, ["series", "--family", "virtual-unordered", "-k", "3", "--order", "6"]
        )
        assert raw == simplified

    def test_ordered_families(self, capsys):
        _, out, _ = run_cli(
            capsys, ["series", "--family", "standard-ordered", "-k", "2", "--order", "3"]
        )
        assert out.splitlines()[-1] == "24x^3+26x^2+9x+1"
        _, out, _ = run_cli(
            capsys, ["series", "--family", "virtual-ordered", "-k", "2", "--order", "3"]
        )
        assert out.splitlines()[-1] == "x^6-9x^4+26x^2-24"

    def test_order_policy(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["series", "--family", "virtual-unordered", "-k", "2", "--order", "65"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestVerifyCommand:
    def test_duality_per_check_lines(self, capsys):
        code, out, err = run_cli(
            capsys, ["verify", "duality", "-k", "2", "--max-n", "3", "--space", "both"]
        )
        assert code == 0
        lines = out.splitlines()
        assert "PASS suite=duality space=unordered k=2 n=0" in lines
        assert "PASS suite=duality space=ordered k=2 n=3" in lines
        assert lines[-1] == "result: PASS"
        assert "verified in" in err

    def test_suite_flag_spelling(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "--suite", "euler", "--max-k", "2", "--max-n", "4"]
        )
        assert code == 0
        assert "result: PASS" in out

    def test_conflicting_suites(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "duality", "--suite", "euler"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "nonsense"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("primes", ["2,three", "4", "101", "1", "2,2", "3,2,3"])
    def test_bad_primes(self, capsys, primes):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "pointcount", "--primes", primes])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_pointcount_over_budget_fails_fast(self, capsys):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "pointcount", "--max-n", "12", "--primes", "5"])
        assert time.perf_counter() - start < 1.0
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: confpoly verify ")
        # the usage line names every flag; the error line must still ask for
        # the two that price the run
        error = captured.err.splitlines()[-1]
        assert error.startswith("confpoly verify: error: pointcount would enumerate ")
        assert error.endswith("; lower --max-n or drop primes from --primes")

    def test_k_with_max_k_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "duality", "-k", "5", "--max-k", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: confpoly verify ")
        error = captured.err.splitlines()[-1]
        assert error.startswith("confpoly verify: error: ")
        assert "--max-k" in error and " -k" in error.replace("--max-k", "")

    def test_pointcount_budget_fits_q7_to_n7(self):
        ffield.check_budget(verify.DEFAULT_PRIMES, 7)
        with pytest.raises(ffield.TooLargeError):
            ffield.check_budget(verify.DEFAULT_PRIMES, 8)

    def test_k_narrows_pointcount(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "pointcount", "-k", "1", "--primes", "2,3", "--max-n", "2"]
        )
        assert code == 0
        cells = checked_cells(out)
        assert {k for space, k in cells if space != "-"} == {1}
        # the k-independent squarefree cells stay
        assert ("-", 0) in cells

    @pytest.mark.parametrize("suite", ["pointcount", "series", "recursions"])
    def test_space_narrows(self, capsys, suite):
        code, out, _ = run_cli(
            capsys,
            ["verify", suite, "--space", "ordered", "--max-k", "1", "--max-n", "2",
             "--primes", "2,3"],
        )
        assert code == 0
        spaces = {space for space, _ in checked_cells(out)}
        assert "unordered" not in spaces
        assert "-" in spaces

    def test_k_past_the_default_range(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "recursions", "-k", "10", "--max-n", "2"])
        assert code == 0
        assert "PASS suite=recursions space=- k=10 n=2" in out.splitlines()

    def test_pointcount_table(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "pointcount", "--primes", "2,3", "--max-n", "3"]
        )
        assert code == 0
        assert "enumerated" in out
        assert "formula" in out


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "pyramidal", "--max-k", "3", "--max-i", "4"],
            ["table", "betti", "-k", "2", "--max-n", "5", "--format", "json"],
            ["series", "--family", "virtual-unordered", "-k", "2", "--order", "6"],
            ["verify", "duality", "-k", "1", "--max-n", "4"],
        ],
    )
    def test_byte_identical_runs(self, capsys, argv):
        code1, out1, _ = run_cli(capsys, argv)
        code2, out2, _ = run_cli(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_usage_error_leaves_the_parser_as_it_was(self, capsys):
        calls = [
            ["series", "--family", "nonsense", "-k", "5", "--order", "10"],
            ["series", "--family", "virtual-ordered", "-k", "99", "--order", "10"],
            ["series", "--family", "virtual-ordered", "-k", "5", "--order", "10"],
        ]

        def outcome(argv):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            return (code, *capsys.readouterr())

        alone = []
        for argv in calls:
            cli.build_parser.cache_clear()
            alone.append(outcome(argv))
        assert [code for code, _, _ in alone] == [2, 2, 0]
        assert [outcome(argv) for argv in calls + calls] == alone + alone
        assert cli.build_parser() is cli.build_parser()
