"""Verification-suite machinery: green runs, named failures, summaries."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import confpoly.combinatorics as combinatorics
import confpoly.duality as duality
import confpoly.ffield as ffield
import confpoly.poincare as poincare
from confpoly import cli
from confpoly.ring import X, TruncSeries
from confpoly.verify import SUITES, run_suites

ROOT = Path(__file__).resolve().parent.parent


class TestRunSuites:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suites(["nonsense"])

    def test_duality_suite_green(self):
        summary, results = run_suites(["duality"], max_k=3, max_n=6)
        assert summary.ok
        assert summary.failed == 0
        assert summary.first_failure is None
        assert summary.passed == len(results) == 2 * 4 * 7
        assert summary.suites == ("duality",)

    def test_recursions_suite_green(self):
        summary, _ = run_suites(["recursions"], max_k=4, max_n=8)
        assert summary.ok

    def test_euler_suite_green(self):
        summary, _ = run_suites(["euler"], max_k=3, max_n=6)
        assert summary.ok

    def test_series_suite_green(self):
        summary, _ = run_suites(["series"], max_k=3, max_n=8)
        assert summary.ok

    def test_pointcount_suite_green_small(self):
        summary, results = run_suites(["pointcount"], primes=(2, 3), max_n=4)
        assert summary.ok
        assert any(r.space == "ordered" for r in results)
        assert any(r.space == "unordered" for r in results)

    def test_single_k_restriction(self):
        _, results = run_suites(["duality"], only_k=2, max_n=5)
        assert {r.k for r in results} == {2}

    def test_all_names_every_suite(self):
        summary, _ = run_suites(["all"], max_k=1, max_n=3, primes=(2,))
        assert summary.suites == SUITES
        assert summary.ok


class TestFailureNaming:
    def test_exception_becomes_named_failure(self, monkeypatch):
        def explode(k, n):
            raise RuntimeError("boom")

        monkeypatch.setattr(poincare, "betti_unordered", explode)
        summary, _ = run_suites(["series"], max_k=1, max_n=2)
        assert not summary.ok
        first = summary.first_failure
        assert first.suite == "series"
        assert "RuntimeError" in first.detail

    def test_wrong_value_is_located(self, monkeypatch):
        real = combinatorics.pyramidal

        def off_by_one(k, i):
            value = real(k, i)
            return value + 1 if (k, i) == (2, 3) else value

        monkeypatch.setattr(combinatorics, "pyramidal", off_by_one)
        summary, _ = run_suites(["recursions"])
        assert not summary.ok
        first = summary.first_failure
        assert (first.suite, first.space, first.k, first.n) == ("recursions", "-", 2, 3)
        assert "disagree" in first.detail

    def test_summary_counts(self, monkeypatch):
        real = poincare.betti_unordered

        def broken(k, n):
            row = real(k, n)
            if (k, n) == (2, 3):
                ranks = list(row.ranks)
                ranks[1] += 1
                return poincare.BettiRow(k, n, tuple(ranks))
            return row

        monkeypatch.setattr(poincare, "betti_unordered", broken)
        summary, results = run_suites(["duality"], max_k=2, max_n=4)
        assert summary.failed == 1
        assert summary.passed + summary.failed == len(results)
        f = summary.first_failure
        assert (f.space, f.k, f.n) == ("unordered", 2, 3)

    # each suite's per-k builder, the position of its k argument, and the
    # spaces whose k = 1 cells a crash must turn into one failed cell each
    @pytest.mark.parametrize(
        "suite, module, name, k_at, spaces",
        [
            ("series", poincare, "unordered_series", 0, ["-"]),
            ("duality", duality, "check_duality", 0, ["unordered", "ordered"]),
            ("pointcount", ffield, "oracle_check", 1, ["-"]),
            ("euler", duality, "euler_consistency", 0, ["unordered", "ordered"]),
        ],
        ids=["series", "duality", "pointcount", "euler"],
    )
    def test_crashed_k_is_one_failed_cell(
        self, monkeypatch, capsys, suite, module, name, k_at, spaces
    ):
        real = getattr(module, name)

        def crash_at_k1(*args):
            if args[k_at] == 1:
                raise RuntimeError("boom")
            return real(*args)

        monkeypatch.setattr(module, name, crash_at_k1)
        _, results = run_suites([suite], max_k=2, max_n=3, primes=(3,))
        failed = [r for r in results if not r.passed]
        assert [(r.space, r.k, r.n) for r in failed] == [(s, 1, -1) for s in spaces]
        assert all("RuntimeError: boom" in r.detail for r in failed)
        assert {r.k for r in results if r.passed and r.space != "-"} >= {0, 2}
        argv = ["verify", suite, "--max-k", "2", "--max-n", "3", "--primes", "3"]
        assert cli.main(argv) == 1
        capsys.readouterr()


class TestNapolitanoChain:
    """verify series carries one chain of napolitano_step calls from k = 0."""

    @staticmethod
    def _record_steps(monkeypatch, wrong_call=None):
        # (input, output) of every step; call number wrong_call bumps the
        # y^2 coefficient of its output
        steps = []
        real = poincare.napolitano_step

        def recorded(q):
            out = real(q)
            if len(steps) + 1 == wrong_call:
                coeffs = list(out.coeffs)
                coeffs[2] = coeffs[2] + X
                out = TruncSeries(out.order, coeffs)
            steps.append((q, out))
            return out

        monkeypatch.setattr(poincare, "napolitano_step", recorded)
        return steps

    @staticmethod
    def _assert_one_chain(steps, order):
        assert steps[0][0] == poincare.unordered_series(0, order)
        for (_, previous), (q, _) in zip(steps, steps[1:]):
            assert q is previous

    @pytest.mark.parametrize("max_k", [0, 1, 5, 16])
    def test_one_step_per_k(self, monkeypatch, capsys, max_k):
        steps = self._record_steps(monkeypatch)
        assert cli.main(["verify", "series", "--max-k", str(max_k), "--max-n", "6"]) == 0
        capsys.readouterr()
        assert len(steps) == max_k
        if steps:
            self._assert_one_chain(steps, 6)

    @pytest.mark.parametrize("k", [0, 1, 7])
    def test_single_k_steps_up_from_zero(self, monkeypatch, capsys, k):
        steps = self._record_steps(monkeypatch)
        assert cli.main(["verify", "series", "-k", str(k), "--max-n", "6"]) == 0
        capsys.readouterr()
        assert len(steps) == k
        if steps:
            self._assert_one_chain(steps, 6)

    def test_wrong_step_names_its_k_first(self, monkeypatch, capsys):
        self._record_steps(monkeypatch, wrong_call=3)
        assert cli.main(["verify", "series", "--max-k", "6", "--max-n", "6"]) == 1
        out = capsys.readouterr().out
        first = next(line for line in out.splitlines() if line.startswith("first failure:"))
        assert "space=unordered k=3 " in first
        failed_ks = {
            int(line.split(" k=")[1].split()[0])
            for line in out.splitlines()
            if line.startswith("FAIL ")
        }
        assert failed_ks == {3, 4, 5, 6}


def test_traced_run_sees_every_suite():
    # perfbench's tracer replaces each verify.suite_<name>; the runner must
    # look the suites up when it runs, or the wrappers never see a check
    script = (
        "import contextlib, io, json, layers\n"
        "from confpoly import cli\n"
        "tracer = layers.Tracer()\n"
        "tracer.install()\n"
        "argv = ['verify', '--suite', 'all', '--max-k', '1', '--max-n', '3', '--primes', '2']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(argv)\n"
        "print(json.dumps({'code': code, 'counts': tracer.snapshot()}))\n"
    )
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == 0
    for name in SUITES:
        assert report["counts"].get(f"verify.suite_{name}.checks", 0) > 0, name
