"""Command-line interface: formats, exit codes, determinism, round trips."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from confpoly import cli, duality, ffield, verify
from confpoly.ring import LaurentPoly

ROOT = Path(__file__).resolve().parent.parent


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


# argv -> the whole stdout of a run that exits 0
EXACT_STDOUT = {
    "table pyramidal --max-k 3 --max-i 4":
        "1,0,0,0,0\n1,1,1,1,1\n1,2,3,4,5\n1,3,6,10,15\n1,4,10,20,35\n",
    "table betti -k 2 --max-n 3": "1\n1,2\n1,3,3\n1,3,5,4\n",
    "table betti --space ordered --kind virtual -k 2 --max-n 0": "1\n",
    "series --family standard-unordered -k 0 --order 3": "1\n1\nx+1\nx+1\n",
    "series --family virtual-unordered -k 0 --order 0": "1\n",
}


@pytest.mark.parametrize("argv", EXACT_STDOUT)
def test_stdout_is_exactly(capsys, argv):
    code, out, _ = run_cli(capsys, argv.split())
    assert code == 0
    assert out == EXACT_STDOUT[argv]


# argv -> text in the stdout of a run that exits 0
STDOUT_HAS = {
    "table betti --space ordered --kind virtual -k 2 --max-n 3 --format latex":
        "3 & $x^6-9x^4+26x^2-24$",
    "verify --suite euler --max-k 2 --max-n 4": "result: PASS",
}


@pytest.mark.parametrize("argv", STDOUT_HAS)
def test_stdout_has(capsys, argv):
    code, out, _ = run_cli(capsys, argv.split())
    assert code == 0
    assert STDOUT_HAS[argv] in out


class TestTablePyramidal:
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

    @pytest.mark.parametrize("k, max_n", [(0, 0), (3, 5), (17, 40)])
    @pytest.mark.parametrize("space", ["unordered", "ordered"])
    @pytest.mark.parametrize("kind", ["standard", "virtual"])
    def test_json_bytes_are_json_dumps(self, capsys, kind, space, k, max_n):
        # the CLI writes the table itself; json's own encoder is the reference
        polys = duality.FAMILIES[f"{kind}-{space}"](k, max_n)
        width = (lambda n: n + 1) if kind == "standard" else (lambda n: 2 * n + 1)
        payload = [
            {
                "k": k,
                "n": n,
                "ranks" if kind == "standard" else "coeffs":
                    [str(poly.coefficient(e)) for e in range(width(n))],
                "poly": str(poly),
            }
            for n, poly in enumerate(polys)
        ]
        _, out, _ = run_cli(
            capsys,
            ["table", "betti", "--space", space, "--kind", kind,
             "-k", str(k), "--max-n", str(max_n), "--format", "json"],
        )
        assert out == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize(
        "options, column",
        [
            ("--space ordered --kind standard -k 2", "ranks"),
            ("--space unordered --kind virtual -k 3", "coeffs"),
        ],
        ids=["standard", "virtual"],
    )
    def test_json_round_trip(self, capsys, options, column):
        _, out, _ = run_cli(
            capsys, ["table", "betti", *options.split(), "--max-n", "4", "--format", "json"]
        )
        for row in json.loads(out):
            rebuilt = LaurentPoly({i: int(c) for i, c in enumerate(row[column])})
            assert str(rebuilt) == row["poly"]


class TestSeries:
    def test_virtual_unordered(self, capsys):
        code, out, _ = run_cli(
            capsys, ["series", "--family", "virtual-unordered", "-k", "2", "--order", "3"]
        )
        assert code == 0
        assert out.splitlines()[-1] == "x^6-3x^4+5x^2-4"

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

    @pytest.mark.parametrize(
        "suite, ran", [("all", verify.SUITES), ("euler", ("euler",))], ids=["all", "euler"]
    )
    def test_timing_line_names_every_suite_that_ran(self, capsys, suite, ran):
        argv = ["verify", suite, "--max-k", "1", "--max-n", "2", "--primes", "2"]
        code, _, err = run_cli(capsys, argv)
        assert code == 0
        (line,) = err.splitlines()
        total, per_suite = line.removesuffix(")").split(" (")
        assert re.fullmatch(r"verified in \d+\.\d\ds", total)
        timings = [part.split(" ") for part in per_suite.split(", ")]
        assert [name for name, _ in timings] == list(ran)
        assert all(re.fullmatch(r"\d+\.\d\ds", seconds) for _, seconds in timings)

    @pytest.mark.parametrize("argv", ["verify duality --suite euler", "verify nonsense"])
    def test_bad_suite(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv.split())
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("primes", ["2,three", "4", "101", "1", "2,2", "3,2,3"])
    def test_bad_primes(self, capsys, primes):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "pointcount", "--primes", primes])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_large_prime_is_refused_at_once(self):
        # a large prime has no factor to find below its root: the policy
        # stops its trial division at the size limit instead of the root
        argv = ["verify", "series", "--max-k", "1", "--max-n", "1",
                "--primes", "1000000000000000000000000000057"]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "confpoly.cli", *argv],
            env=env, capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines()[-1] == (
            "confpoly verify: error: q=1000000000000000000000000000057 "
            "exceeds the size policy (100)"
        )

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


@pytest.mark.parametrize(
    "argv, error",
    [
        (["table", "pyramidal", "--max-k", "33"], "argument --max-k: must be in [-1, 32]"),
        (["table", "pyramidal", "--max-k", "1.5"], "argument --max-k: invalid int value: '1.5'"),
        (["table", "pyramidal", "--max-i", "-1"], "argument --max-i: must be in [0, 64]"),
        (["table", "betti", "-k", "33", "--max-n", "2"], "argument -k: must be in [0, 32]"),
        (["table", "betti", "-k", "2", "--max-n", "65"], "argument --max-n: must be in [0, 64]"),
        (["series", "--family", "virtual-ordered", "-k", "-1", "--order", "2"],
         "argument -k: must be in [0, 32]"),
        (["series", "--family", "virtual-ordered", "-k", "2", "--order", "65"],
         "argument --order: must be in [0, 64]"),
        (["verify", "-k", "33"], "argument -k: must be in [0, 32]"),
        (["verify", "--max-k", "-1"], "argument --max-k: must be in [0, 32]"),
        (["verify", "--max-n", "65"], "argument --max-n: must be in [0, 64]"),
        (["verify", "--max-n", "x"], "argument --max-n: invalid int value: 'x'"),
    ],
)
def test_limit_error_names_its_flag(capsys, argv, error):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    command = " ".join(argv[:2] if argv[0] == "table" else argv[:1])
    assert captured.err.startswith(f"usage: confpoly {command} ")
    assert captured.err.splitlines()[-1] == f"confpoly {command}: error: {error}"


@pytest.mark.parametrize(
    "argv",
    [
        "table betti --kind virtual --space ordered -k 32 --max-n 64 --format json",
        "verify series --max-k 16 --max-n 32",
    ],
)
def test_reader_closing_the_pipe_ends_the_run_quietly(argv):
    # each prints far more than a pipe holds, so the CLI is still writing
    # when its reader goes away after one line, as ``| head -1`` does
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "confpoly.cli", *argv.split()],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def _assert_survives_a_signal_handler(argv):
    # a timer signal with a Python handler interrupts the writes of an answer
    # that far outgrows a pipe, read slowly: every byte still arrives (one
    # large write can come out short on CPython 3.11)
    script = (
        "import signal, sys\n"
        "from confpoly import cli\n"
        "signal.signal(signal.SIGALRM, lambda *args: None)\n"
        "signal.setitimer(signal.ITIMER_REAL, 0.0002, 0.0002)\n"
        "code = cli.main(sys.argv[1:])\n"
        "signal.setitimer(signal.ITIMER_REAL, 0)\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    plain = subprocess.run(
        [sys.executable, "-m", "confpoly.cli", *argv],
        env=env, capture_output=True, timeout=120,
    ).stdout
    for _ in range(3):
        proc = subprocess.Popen(
            [sys.executable, "-c", script, *argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        chunks = []
        while chunk := proc.stdout.read(4096):
            chunks.append(chunk)
            time.sleep(0.0001)
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
        assert b"".join(chunks) == plain


def test_check_lines_survive_a_signal_handler():
    _assert_survives_a_signal_handler(["verify", "series", "--max-k", "16", "--max-n", "32"])


@pytest.mark.parametrize(
    "argv",
    [
        "series --family standard-ordered -k 32 --order 64",
        "table betti --space ordered -k 32 --max-n 64 --format json",
    ],
)
def test_answers_survive_a_signal_handler(argv):
    _assert_survives_a_signal_handler(argv.split())


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
