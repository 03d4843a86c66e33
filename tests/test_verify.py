"""Verification-suite machinery: green runs, named failures, summaries."""

import collections
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import confpoly.combinatorics as combinatorics
import confpoly.duality as duality
import confpoly.ffield as ffield
import confpoly.kronecker as kronecker
import confpoly.poincare as poincare
import confpoly.ring as ring
import confpoly.verify as verify
import confpoly.virtual as virtual
from confpoly import cli
from confpoly.ring import LaurentPoly, TruncSeries
from confpoly.verify import SUITES, CheckResult, Scope, run_suites

from by_hand import patch_at

ROOT = Path(__file__).resolve().parent.parent


class TestRunSuites:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suites(["nonsense"])

    def test_duality_suite_green(self):
        summary, results = run_suites(["duality"], Scope(max_k=3, max_n=6))
        assert summary.ok
        assert summary.failed == 0
        assert summary.first_failure is None
        assert summary.passed == len(results) == 2 * 4 * 7
        assert summary.suites == ("duality",)

    @pytest.mark.parametrize(
        "suite, max_k, max_n", [("recursions", 4, 8), ("euler", 3, 6), ("series", 3, 8)]
    )
    def test_suite_green(self, suite, max_k, max_n):
        summary, _ = run_suites([suite], Scope(max_k=max_k, max_n=max_n))
        assert summary.ok

    def test_stabilization_reads_one_table_per_k(self, monkeypatch):
        # the 567 stabilization cells at the defaults read the printed table
        # once per k, and neither of the formula's own routes
        calls = collections.defaultdict(list)
        for name in ("betti_unordered_table", "betti_unordered", "stable_betti"):

            def counting(*args, _real=getattr(poincare, name), _name=name):
                calls[_name].append(args)
                return _real(*args)

            monkeypatch.setattr(poincare, name, counting)
        summary, _ = run_suites(["recursions"])
        assert summary.ok
        assert calls == {"betti_unordered_table": [(k, 12) for k in range(7)]}

    def test_pointcount_suite_green_small(self):
        summary, results = run_suites(["pointcount"], Scope(primes=(2, 3), max_n=4))
        assert summary.ok
        assert any(r.space == "ordered" for r in results)
        assert any(r.space == "unordered" for r in results)

    def test_single_k_restriction(self):
        _, results = run_suites(["duality"], Scope(only_k=2, max_n=5))
        assert {r.k for r in results} == {2}

    def test_pointcount_over_budget_raises_before_any_work(self):
        start = time.perf_counter()
        with pytest.raises(ffield.TooLargeError, match="over the budget"):
            run_suites(["pointcount"], Scope(max_n=9, primes=(5,)))
        assert time.perf_counter() - start < 1.0

    def test_all_names_every_suite(self):
        summary, _ = run_suites(["all"], Scope(max_k=1, max_n=3, primes=(2,)))
        assert summary.suites == SUITES
        assert summary.ok

    def test_default_cell_set(self):
        summary, results = run_suites(["all"])
        assert summary.ok
        assert summary.passed == len(results) == 1788
        assert collections.Counter((r.suite, r.space) for r in results) == {
            ("recursions", "-"): 138,
            ("recursions", "unordered"): 567,
            ("series", "-"): 91,
            ("series", "ordered"): 154,
            ("series", "unordered"): 322,
            ("duality", "ordered"): 91,
            ("duality", "unordered"): 91,
            ("pointcount", "-"): 24,
            ("pointcount", "ordered"): 78,
            ("pointcount", "unordered"): 78,
            ("euler", "ordered"): 77,
            ("euler", "unordered"): 77,
        }

    def test_runner_labels_cells_and_keeps_the_scope_spaces(self, monkeypatch):
        # suites yield bare cells; run_suites alone names their suite and
        # drops the cells of a space the scope leaves out
        cells = [
            ("unordered", 0, 0, True, ""),
            ("ordered", 0, 0, True, ""),
            ("-", 1, 2, False, "bad"),
            ("unordered", 1, 1, False, "dropped"),
            ("ordered", 2, 1, True, "kept"),
        ]
        monkeypatch.setattr(verify, "suite_euler", lambda scope: iter(cells))
        summary, results = run_suites(["euler"], Scope(spaces=("ordered",)))
        assert results == [
            CheckResult("euler", *cell) for cell in cells if cell[0] != "unordered"
        ]
        assert (summary.passed, summary.failed) == (2, 1)
        assert summary.first_failure == CheckResult("euler", "-", 1, 2, False, "bad")


class TestScope:
    """A scope no run can honour is refused when made, by ``_replace`` too,
    before any suite runs."""

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"primes": (4,)}, "4 is not prime"),
            ({"primes": (101,)}, "size policy"),
            ({"primes": (10403,)}, "q=10403 exceeds the size policy"),  # 101 * 103
            ({"primes": (2, 2)}, "distinct primes"),
            ({"primes": ()}, "distinct primes"),
            ({"only_k": 5, "max_k": 2}, "exclude each other"),
            ({"max_k": -1}, "nonnegative"),
            ({"max_n": -1}, "nonnegative"),
            ({"only_k": -1}, "nonnegative"),
            ({"spaces": ()}, "spaces"),
            ({"spaces": ("diagonal",)}, "spaces"),
            ({"spaces": ("ordered", "ordered")}, "spaces"),
            ({"primes": (2.0,)}, "primes"),
            ({"primes": (2, 3.0)}, "primes"),
            ({"max_k": 1.5}, "max_k"),
            ({"only_k": 2.0}, "only_k"),
            ({"max_n": 2.0}, "max_n"),
            ({"max_n": True}, "max_n"),
            ({"max_k": "2"}, "max_k"),
        ],
        ids=[
            "non-prime", "prime-past-policy", "composite-past-policy", "repeated-prime",
            "no-prime", "only_k-and-max_k", "negative-max_k", "negative-max_n", "negative-only_k",
            "no-space", "unknown-space", "repeated-space", "float-prime", "float-second-prime",
            "float-max_k", "float-only_k", "float-max_n", "bool-max_n", "str-max_k",
        ],
    )
    def test_bad_scope_raises_before_any_suite(self, monkeypatch, fields, message):
        ran = []
        for name in SUITES:
            monkeypatch.setattr(
                verify, f"suite_{name}", lambda scope, name=name: ran.append(name) or []
            )
        with pytest.raises(ValueError, match=message):
            run_suites(["all"], Scope(**fields))
        with pytest.raises(ValueError, match=message):
            Scope()._replace(**fields)
        assert ran == []
        run_suites(["all"], Scope(max_k=1, max_n=1, primes=(2,)))
        assert ran == list(SUITES)


class TestFailureDetails:
    """Every failure branch of a cell names its cell and says what went wrong."""

    @staticmethod
    def _first(names, scope):
        summary, _ = run_suites(names, scope)
        f = summary.first_failure
        return (f.suite, f.space, f.k, f.n), f.detail

    @pytest.mark.parametrize(
        "at, wrong, detail",
        [
            ((2, 3), {3: 24, 2: -26, 1: 9, 0: 1}, "negative coefficient in 24x^3-26x^2+9x+1"),
            ((2, 3), {3: 24, 2: 26, 1: 9, 0: 2}, "constant term 2 != 1"),
            ((2, 3), {4: 1, 3: 24, 2: 26, 1: 9, 0: 1}, "degree 4 != 3"),
            ((2, 3), {3: 25, 2: 26, 1: 9, 0: 1}, "leading coefficient 25 != 24"),
            # at k = 0 the factor 1 + 0x drops the degree to n - 1
            ((0, 3), {3: 6, 2: 11, 1: 6, 0: 1}, "degree 3 != 2"),
        ],
        ids=["negative", "constant", "degree", "leading", "k0-degree"],
    )
    def test_ordered_shape(self, monkeypatch, at, wrong, detail):
        patch_at(monkeypatch, poincare, "poincare_ordered", at, lambda p: LaurentPoly(wrong))
        cell = self._first(["series"], Scope(max_k=2, max_n=3))
        assert cell == (("series", "ordered", *at), detail)

    def test_ordered_shape_reads_no_leading_coefficient_at_k0(self, monkeypatch):
        # the leading coefficient of the product at k = 0 is (n - 1)!, which
        # the shape cell leaves to the duality suite
        patch_at(
            monkeypatch, poincare, "poincare_ordered", (0, 3), lambda p: p + LaurentPoly({2: 1})
        )
        assert run_suites(["series"], Scope(max_k=2, max_n=3))[0].ok
        cell = self._first(["duality"], Scope(max_k=2, max_n=3))
        assert cell[0] == ("duality", "ordered", 0, 3)

    @pytest.mark.parametrize(
        "wrong, detail",
        [
            ({6: 1, 4: -9, 3: 1, 2: 26, 0: -24}, "support (0, 2, 3, 4, 6) not contained"),
            ({8: 1, 6: 1, 4: -9, 2: 26, 0: -24}, "x^8+x^6-9x^4+26x^2-24 is not of degree 6"),
            ({6: 2, 4: -9, 2: 26, 0: -24}, "2x^6-9x^4+26x^2-24 is not monic"),
            ({6: 1, 4: -9, 2: 26, 0: -24, -2: 1}, "support (-2, 0, 2, 4, 6) not contained"),
            ({}, "0 is not of degree 6"),
        ],
        ids=["support", "degree", "monic", "negative-exponent", "zero"],
    )
    def test_virtual_shape(self, monkeypatch, wrong, detail):
        patch_at(monkeypatch, virtual, "virtual_ordered", (2, 3), lambda p: LaurentPoly(wrong))
        cell, got = self._first(["series"], Scope(max_k=2, max_n=3))
        assert cell == ("series", "ordered", 2, 3)
        assert got.startswith(detail)

    @pytest.mark.parametrize(
        "module, name, at, detail",
        [
            (poincare, "poincare_ordered", (1, 4), "x^2 coefficient 36 != Stirling c(5,3)=35"),
            (combinatorics, "stirling_first_unsigned", (5, 3),
             "x^2 coefficient 35 != Stirling c(5,3)=36"),
        ],
        ids=["product", "stirling"],
    )
    def test_stirling_cell(self, monkeypatch, module, name, at, detail):
        bump = {poincare: lambda p: p + LaurentPoly({2: 1}), combinatorics: lambda c: c + 1}
        patch_at(monkeypatch, module, name, at, bump[module])
        cell = self._first(["recursions"], Scope(max_k=1, max_n=2))
        assert cell == (("recursions", "-", 1, 5), detail)

    @pytest.mark.parametrize(
        "name, detail",
        [
            ("getzler_series_raw", "raw form x^4-3x^2+4 != simplified form x^4-3x^2+3"),
            ("virtual_unordered_series", "raw form x^4-3x^2+3 != simplified form x^4-3x^2+4"),
        ],
        ids=["raw", "simplified"],
    )
    def test_forms_agree(self, monkeypatch, name, detail):
        def bumped(s):
            coeffs = list(s.coeffs)
            coeffs[2] = coeffs[2] + 1
            return TruncSeries(s.order, coeffs)

        patch_at(monkeypatch, virtual, name, (2, 3), bumped)
        cell = self._first(["series"], Scope(max_k=2, max_n=3))
        assert cell == (("series", "unordered", 2, 2), detail)

    @pytest.mark.parametrize("q, n", [(2, 1), (3, 2)])
    def test_methods_agree(self, monkeypatch, q, n):
        offender = ffield.FieldPoly(ffield.PrimeField(q), [1, 2, 1])
        patch_at(monkeypatch, ffield, "squarefree_disagreements", (q, n), lambda bad: [offender])
        cell = self._first(["pointcount"], Scope(max_k=1, max_n=2, primes=(2, 3)))
        detail = f"q={q}: squarefree tests disagree at {offender!r}"
        assert cell == (("pointcount", "-", 0, n), detail)


class TestFailureNaming:
    def test_exception_becomes_named_failure(self, monkeypatch):
        def explode(k, n):
            raise RuntimeError("boom")

        monkeypatch.setattr(poincare, "betti_unordered", explode)
        summary, _ = run_suites(["series"], Scope(max_k=1, max_n=2))
        assert not summary.ok
        first = summary.first_failure
        assert first.suite == "series"
        assert "RuntimeError" in first.detail

    def test_wrong_value_is_located(self, monkeypatch):
        with monkeypatch.context() as m:
            patch_at(m, combinatorics, "pyramidal", (2, 3), lambda v: v + 1)
            summary, _ = run_suites(["recursions"])
        assert not summary.ok
        first = summary.first_failure
        assert (first.suite, first.space, first.k, first.n) == ("recursions", "-", 2, 3)
        assert "disagree" in first.detail

    def test_wrong_pyramidal_fails_the_stabilization_cells(self, monkeypatch, capsys):
        # the printed table reads the public pyramidal name and the expected
        # ranks the running-sum rows, so one wrong P(1, 3) fails the
        # stabilization cells of k = 2 that read it
        patch_at(monkeypatch, combinatorics, "pyramidal", (1, 3), lambda v: v + 1)
        assert cli.main(["verify", "recursions"]) == 1
        failed = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("FAIL ") and "space=unordered" in line
        ]
        assert len(failed) == 18
        assert failed[0] == "FAIL suite=recursions space=unordered k=2 n=3 | rank H^3 = 5, expected 4"

    def test_patched_pyramidal_leaves_the_memo_true(self, monkeypatch):
        # the memoized recursion must not call itself through the public
        # name, or values built from a patched neighbour outlive the patch
        real = combinatorics.pyramidal
        real.cache_clear()
        with monkeypatch.context() as m:
            patch_at(m, combinatorics, "pyramidal", (2, 3), lambda v: v + 1)
            run_suites(["recursions"])
        wrong = [
            (k, i) for k in range(9) for i in range(13) if real(k, i) != math.comb(i + k, i)
        ]
        assert wrong == []

    def test_summary_counts(self, monkeypatch):
        real = poincare.betti_unordered_table

        def broken(k, max_n):
            table = real(k, max_n)
            if k != 2 or max_n < 3:
                return table
            return (*table[:3], table[3] + LaurentPoly({1: 1}), *table[4:])

        monkeypatch.setattr(poincare, "betti_unordered_table", broken)
        summary, results = run_suites(["duality"], Scope(max_k=2, max_n=4))
        assert summary.failed == 1
        assert summary.passed + summary.failed == len(results)
        f = summary.first_failure
        assert (f.space, f.k, f.n) == ("unordered", 2, 3)

    # each suite's per-k builder, the position of its k argument, and the
    # spaces whose k = 1 cells a crash must turn into one failed cell each
    @pytest.mark.parametrize(
        "suite, module, name, k_at, spaces",
        [
            ("recursions", poincare, "betti_unordered_table", 0, ["unordered"]),
            ("series", poincare, "unordered_series", 0, ["-"]),
            ("duality", duality, "check_duality", 0, ["unordered", "ordered"]),
            ("pointcount", ffield, "oracle_check", 1, ["-"]),
            ("euler", duality, "euler_consistency", 0, ["unordered", "ordered"]),
        ],
        ids=["recursions", "series", "duality", "pointcount", "euler"],
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
        _, results = run_suites([suite], Scope(max_k=2, max_n=3, primes=(3,)))
        failed = [r for r in results if not r.passed]
        assert [(r.space, r.k, r.n) for r in failed] == [(s, 1, -1) for s in spaces]
        assert all("RuntimeError: boom" in r.detail for r in failed)
        assert {r.k for r in results if r.passed and r.space != "-"} >= {0, 2}
        argv = ["verify", suite, "--max-k", "2", "--max-n", "3", "--primes", "3"]
        assert cli.main(argv) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "suite, module, name",
        [
            ("recursions", combinatorics, "pyramidal_rows"),
            ("series", kronecker, "bit_width"),
        ],
        ids=["recursions", "series"],
    )
    def test_crash_in_set_up_is_one_failed_cell(self, monkeypatch, capsys, suite, module, name):
        # a suite that raises before its first k ends with one failed cell,
        # and the next suite still runs
        def crash(*args):
            raise IndexError("boom")

        monkeypatch.setattr(module, name, crash)
        scope = Scope(max_k=1, max_n=2)
        summary, results = run_suites([suite, "duality"], scope)
        assert results[0] == CheckResult(suite, "-", -1, -1, False, "IndexError: boom")
        assert results[1:] == run_suites(["duality"], scope)[1]
        assert (summary.failed, summary.first_failure) == (1, results[0])
        assert cli.main(["verify", suite, "--max-k", "1", "--max-n", "2"]) == 1
        assert capsys.readouterr().out.splitlines()[-2:] == [
            f"first failure: FAIL suite={suite} space=- k=-1 n=-1 | IndexError: boom",
            "result: FAIL",
        ]

    def test_crash_after_cells_keeps_them(self, monkeypatch):
        cells = [("-", 0, 0, True, ""), ("unordered", 0, 1, False, "bad")]

        def suite(scope):
            yield from cells
            raise RuntimeError("boom")

        monkeypatch.setattr(verify, "suite_duality", suite)
        summary, results = run_suites(["duality", "euler"], Scope(max_k=1, max_n=2))
        assert results[:3] == [
            *(CheckResult("duality", *cell) for cell in cells),
            CheckResult("duality", "-", -1, -1, False, "RuntimeError: boom"),
        ]
        assert {r.suite for r in results[3:]} == {"euler"} and summary.failed == 2

    @pytest.mark.parametrize("suite", ["duality", "euler"])
    def test_short_route_is_one_failed_cell(self, monkeypatch, suite):
        # a route that returns one polynomial too few at k = 2 must fail
        # that k, not drop the cell of its missing n
        scope = Scope(max_k=3, max_n=4)
        summary, _ = run_suites([suite], scope)
        assert (summary.passed, summary.failed) == (40, 0)
        real = duality.FAMILIES["virtual-unordered"]
        monkeypatch.setitem(
            duality.FAMILIES, "virtual-unordered",
            lambda k, max_n: real(k, max_n)[:-1] if k == 2 else real(k, max_n),
        )
        summary, results = run_suites([suite], scope)
        failed = [r for r in results if not r.passed]
        assert [(r.space, r.k, r.n) for r in failed] == [("unordered", 2, -1)]
        assert failed[0].detail.startswith("ValueError: zip()")
        assert (summary.passed, summary.failed) == (35, 1)


class TestNapolitanoChain:
    """verify series carries one chain of Kronecker steps from k = 0."""

    @staticmethod
    def _record_steps(monkeypatch, wrong_call=None):
        # (input, output, width) of every step; call number wrong_call adds
        # x to the y^2 coefficient of its output
        steps = []
        real = kronecker.chain_step

        def recorded(row, b):
            out = real(row, b)
            if len(steps) + 1 == wrong_call:
                out[2] += 1 << b
            steps.append((row, out, b))
            return out

        monkeypatch.setattr(kronecker, "chain_step", recorded)
        return steps

    # a run up to k, or at k alone, steps up from zero
    @pytest.mark.parametrize(
        "k_option", ["--max-k 0", "--max-k 1", "--max-k 5", "--max-k 16", "-k 0", "-k 1", "-k 7"]
    )
    def test_one_step_per_k(self, monkeypatch, capsys, k_option):
        steps = self._record_steps(monkeypatch)
        assert cli.main(["verify", "series", *k_option.split(), "--max-n", "6"]) == 0
        capsys.readouterr()
        k = int(k_option.split()[1])
        assert len(steps) == k
        if steps:
            b = kronecker.bit_width(k, 6)
            base = [kronecker.encode(c, b) for c in poincare.unordered_series(0, 6).coeffs]
            assert steps[0][0] == base
            for (_, previous, _), (row, _, _) in zip(steps, steps[1:]):
                assert row is previous
            assert {width for _, _, width in steps} == {b}

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


class TestCarriedSeries:
    """verify series carries one more series from k = 0, the raw virtual
    form as Kronecker ints, and reads the pyramidal and stable series from
    the running-sum rows of pyramidal_rows.  The simplified virtual form is
    the public series, read once at every k."""

    # the step of each carried series: (module, function)
    STEPS = {"raw_step": (kronecker, "raw_step")}

    def test_steps_match_per_k_builds(self):
        order = 32
        b = kronecker.bit_width(16, order)
        carried = kronecker.raw_base(order, b)
        for k in range(17):
            raw = virtual.getzler_series_raw(k, order)
            assert carried == [kronecker.encode(c, b) for c in raw.coeffs], k
            carried = kronecker.raw_step(carried)

    def test_steps_divide_no_series(self, monkeypatch):
        """From the k = 0 base on, the one-puncture step left on ring carries
        its series to k = 6 with series division, inversion and powers
        patched to raise, so a wrong division or power kernel cannot pass
        both the route and the step.  The Kronecker steps run no ring code
        at all (test_kronecker.py)."""
        order, last_k = 12, 6
        series = poincare.unordered_series(0, order)
        public = poincare.unordered_series(last_k, order)

        def refused(*args):
            raise AssertionError("a one-puncture step divided or powered a series")

        with monkeypatch.context() as m:
            m.setattr(TruncSeries, "__truediv__", refused)
            m.setattr(TruncSeries, "inverse", refused)
            m.setattr(TruncSeries, "__pow__", refused)
            for _ in range(last_k):
                series = poincare.napolitano_step(series)
        assert series == public

    @staticmethod
    def _count_calls(monkeypatch, module, name, wrong_call=None):
        # the arguments of every call; call number wrong_call adds 1 to the
        # y^2 coefficient of its output, a series or a row of ints
        calls = []
        real = getattr(module, name)

        def recorded(*args):
            out = real(*args)
            calls.append(args)
            if len(calls) == wrong_call:
                if isinstance(out, TruncSeries):
                    coeffs = list(out.coeffs)
                    coeffs[2] = coeffs[2] + 1
                    out = TruncSeries(out.order, coeffs)
                else:
                    out[2] += 1
            return out

        monkeypatch.setattr(module, name, recorded)
        return calls

    @pytest.mark.parametrize(
        "argv, last_k",
        [
            (["--max-k", "0"], 0),
            (["--max-k", "1"], 1),
            (["--max-k", "5"], 5),
            (["--max-k", "16"], 16),
            (["-k", "7"], 7),
        ],
        ids=["max-k-0", "max-k-1", "max-k-5", "max-k-16", "k-7"],
    )
    def test_public_routes_at_first_and_last_k(self, monkeypatch, capsys, argv, last_k):
        # the simplified route is read once at every k of the run; the raw
        # form is carried ring-free, so its public route runs at the last k alone
        raw, simplified = (
            self._count_calls(monkeypatch, virtual, name)
            for name in ("getzler_series_raw", "virtual_unordered_series")
        )
        steps = [self._count_calls(monkeypatch, *step) for step in self.STEPS.values()]
        assert cli.main(["verify", "series", *argv, "--max-n", "6"]) == 0
        capsys.readouterr()
        assert raw == [(k, 6) for k in sorted({last_k} - {0})]
        ks = [last_k] if argv[0] == "-k" else range(last_k + 1)
        assert simplified == [(k, 6) for k in ks]
        assert [len(calls) for calls in steps] == [last_k] * len(steps)

    @pytest.mark.parametrize("name", STEPS)
    @pytest.mark.parametrize("j", [1, 3, 6])
    def test_wrong_step_names_its_k_first(self, monkeypatch, capsys, name, j):
        self._count_calls(monkeypatch, *self.STEPS[name], wrong_call=j)
        assert cli.main(["verify", "series", "--max-k", "6", "--max-n", "6"]) == 1
        out = capsys.readouterr().out
        first = next(line for line in out.splitlines() if line.startswith("first failure:"))
        assert f" k={j} " in first
        failed_ks = {
            int(line.split(" k=")[1].split()[0])
            for line in out.splitlines()
            if line.startswith("FAIL ")
        }
        assert failed_ks == set(range(j, 7))

    @pytest.mark.parametrize(
        "name, detail",
        [
            ("raw_step", "raw form x^4-7x^2+21 != carried raw form x^4-7x^2+22"),
        ],
        ids=["raw"],
    )
    def test_last_k_names_the_carried_form(self, monkeypatch, name, detail):
        # the public routes agree with each other, so the carried form is named
        self._count_calls(monkeypatch, *self.STEPS[name], wrong_call=6)
        summary, _ = run_suites(["series"], Scope(max_k=6, max_n=6))
        f = summary.first_failure
        assert (f.space, f.k, f.n, f.detail) == ("unordered", 6, 2, detail)

    def test_public_simplified_series_is_checked_at_every_k(self, monkeypatch, capsys):
        # a simplified series wrong at one k short of the last is the series
        # that `series` and `table betti` print: its forms cell fails there
        self._count_calls(monkeypatch, virtual, "virtual_unordered_series", wrong_call=4)
        assert cli.main(["verify", "series", "--max-k", "6", "--max-n", "6"]) == 1
        out = capsys.readouterr().out
        first = next(line for line in out.splitlines() if line.startswith("first failure:"))
        assert first == (
            "first failure: FAIL suite=series space=unordered k=3 n=2 | "
            "raw form x^4-4x^2+6 != simplified form x^4-4x^2+7"
        )

    @pytest.mark.parametrize("j", [1, 3, 6])
    def test_wrong_row_fails_series_first_at_its_k(self, monkeypatch, j):
        # row k + 1 of pyramidal_rows is the pyramidal series at k, and row
        # k times 1 + y the stable series at k: a bumped y^2 entry in row
        # j + 1 fails the pyramidal cell of k = j first, then the stable
        # cells of k = j + 1 at y^2 and y^3, if the run has that k
        real = combinatorics.pyramidal_rows

        def bumped(max_k, max_i):
            rows = [list(row) for row in real(max_k, max_i)]
            rows[j + 1][2] += 1
            return rows

        monkeypatch.setattr(combinatorics, "pyramidal_rows", bumped)
        summary, results = run_suites(["series"], Scope(max_k=6, max_n=6))
        expected = combinatorics.pyramidal(j, 2)
        assert summary.first_failure == CheckResult(
            "series", "-", j, 2, False,
            f"1/(1-y)^{j + 1} coefficient {expected + 1} != {expected}",
        )
        failed = [(r.space, r.k, r.n) for r in results if not r.passed]
        assert failed == [("-", j, 2), *(("unordered", j + 1, n) for n in (2, 3) if j < 6)]

    # what raises, when (the number of the call and its arguments), and the
    # first k that fails: the step raises from k = 3 on, the raw base and
    # the rows at k = 0 on every try
    @pytest.mark.parametrize(
        "module, name, crashes, first_k",
        [
            (kronecker, "raw_step", lambda call, args: call > 2, 3),
            (combinatorics, "pyramidal_rows", lambda call, args: True, 0),
            (kronecker, "raw_base", lambda call, args: True, 0),
        ],
        ids=["raw-step", "rows", "raw-base"],
    )
    def test_crash_in_carried_state_is_one_failed_cell_per_k(
        self, monkeypatch, module, name, crashes, first_k
    ):
        real, calls = getattr(module, name), []

        def crashing(*args):
            calls.append(args)
            if crashes(len(calls), args):
                raise RuntimeError("boom")
            return real(*args)

        monkeypatch.setattr(module, name, crashing)
        _, results = run_suites(["series"], Scope(max_k=6, max_n=6))
        failed = [r for r in results if not r.passed]
        assert [(r.space, r.k, r.n) for r in failed] == [("-", k, -1) for k in range(first_k, 7)]
        assert all(r.detail == "RuntimeError: boom" for r in failed)
        assert {r.k for r in results if r.passed} == set(range(first_k))


def test_recursions_build_no_unordered_cell_under_ordered(monkeypatch, capsys):
    # the stabilization cells are unordered ones: under --space ordered the
    # suite does not build them, and stdout is the full run's minus them
    argv = ["verify", "recursions", "--max-n", "12"]
    assert cli.main(argv) == 0
    kept = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("PASS ") and "space=unordered" not in line
    ]
    calls = []
    monkeypatch.setattr(poincare, "betti_unordered_table", lambda *args: calls.append(args))
    assert cli.main([*argv, "--space", "ordered"]) == 0
    assert calls == []
    assert capsys.readouterr().out.splitlines() == [
        *kept, f"summary: suites=recursions passed={len(kept)} failed=0", "result: PASS"
    ]


def _entered(route, *args):
    """The code of every confpoly function that ``route(*args)`` enters, from
    cold caches."""
    package = Path(combinatorics.__file__).parent
    combinatorics.pyramidal.cache_clear()
    codes = set()

    def profile(frame, event, arg):
        if event == "call" and Path(frame.f_code.co_filename).parent == package:
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        route(*args)
    finally:
        sys.setprofile(None)
    return codes


def test_stabilization_routes_share_only_argument_checks():
    # the stabilization cells compare the printed table with the running-sum
    # rows; entered from cold caches, the two may share no confpoly code
    # but the argument checks
    table = _entered(poincare.betti_unordered_table, 6, 12)
    rows = _entered(combinatorics.pyramidal_rows, 6, 12)
    assert combinatorics.pyramidal.__wrapped__.__code__ in table
    assert combinatorics.pyramidal_rows.__code__ in rows
    assert table & rows == {ring._natural.__code__, ring._integer.__code__}


# what the closed form and the series of a three-way cell may share, and why
THREE_WAY_SHARED = {
    ring._natural: "the argument check of every public route",
    ring._integer: "pyramidal's argument check, and the series power's check of n",
    ring.LaurentPoly._make: "the constructor of every polynomial a kernel computes",
}


def test_series_cell_sides_share_only_ring_kernels():
    # a three-way cell compares the closed form, the series and the Kronecker
    # chain, a forms cell the carried raw form and the simplified series:
    # from cold caches, the ring sides of a three-way cell share only
    # THREE_WAY_SHARED, and the Kronecker sides share nothing with a ring side
    closed = _entered(lambda: [poincare.betti_unordered(6, n) for n in range(13)])
    series = _entered(poincare.unordered_series, 6, 12)
    assert closed & series == {f.__code__ for f in THREE_WAY_SHARED}

    def carried():
        b = kronecker.bit_width(6, 12)
        chain, raw = kronecker.chain_base(12, b), kronecker.raw_base(12, b)
        for _ in range(6):
            chain, raw = kronecker.chain_step(chain, b), kronecker.raw_step(raw)

    kronecker_sides = _entered(carried)
    assert {kronecker.chain_step.__code__, kronecker.raw_step.__code__} <= kronecker_sides
    simplified = _entered(virtual.virtual_unordered_series, 6, 12)
    for ring_side in (closed, series, simplified):
        assert not kronecker_sides & ring_side


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
