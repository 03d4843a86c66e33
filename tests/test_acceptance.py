"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every comparison is an exact integer or polynomial equality.
"""

from contextlib import contextmanager

from confpoly import cli
from confpoly.combinatorics import pyramidal, pyramidal_closed_form, pyramidal_rows
from confpoly.duality import check_duality, euler_consistency
from confpoly.ffield import oracle_check, squarefree_disagreements
from confpoly.poincare import (
    betti_unordered,
    napolitano_step,
    poincare_ordered,
    stable_betti,
    unordered_series,
)
from confpoly.ring import LaurentPoly
from confpoly.virtual import (
    getzler_series_raw,
    virtual_ordered,
    virtual_unordered,
    virtual_unordered_series,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL ({description})")
        raise
    print(f"criterion {number}: PASS ({description})")


def test_criterion_1_worked_example():
    with criterion(1, "reproduction of the k=2, n=3 example quartet"):
        assert str(betti_unordered(2, 3)) == "4x^3+5x^2+3x+1"
        assert str(poincare_ordered(2, 3)) == "24x^3+26x^2+9x+1"
        assert str(virtual_unordered(2, 3)) == "x^6-3x^4+5x^2-4"
        assert str(virtual_ordered(2, 3)) == "x^6-9x^4+26x^2-24"


def test_criterion_2_pyramidal_table(capsys):
    with criterion(2, "pyramidal table via CLI and recursion == closed form"):
        code = cli.main(["table", "pyramidal", "--max-k", "3", "--max-i", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == (
            "1,0,0,0,0\n1,1,1,1,1\n1,2,3,4,5\n1,3,6,10,15\n1,4,10,20,35\n"
        )
        for k in range(9):
            for i in range(13):
                assert pyramidal(k, i) == pyramidal_closed_form(k, i)


def test_criterion_3_three_way_agreement():
    with criterion(3, "closed form == series == iterated recursion, k<=6 n<=12"):
        for k in range(7):
            series = unordered_series(k, 12)
            chain = unordered_series(0, 12)
            for _ in range(k):
                chain = napolitano_step(chain)
            for n in range(13):
                closed = betti_unordered(k, n)
                assert closed == series[n]
                assert closed == chain[n]


def test_criterion_4_form_equivalence():
    with criterion(4, "raw virtual series == simplified form, k<=6 order 12"):
        for k in range(7):
            assert getzler_series_raw(k, 12) == virtual_unordered_series(k, 12)


def test_criterion_5_duality():
    with criterion(5, "dualized standard == virtual, both spaces, k<=6 n<=12"):
        for space in ("unordered", "ordered"):
            for k in range(7):
                report = check_duality(k, 12, space)
                assert all(report.matches), (space, k, report.first_mismatch)


def test_criterion_6_stability():
    with criterion(6, "ranks stabilize for n > j at the stable value, k<=6 j<=8"):
        # an independent side: the running-sum rows, row k is P(k-1, .),
        # which call no pyramidal recursion
        rows = pyramidal_rows(6, 12)
        for k in range(7):
            for j in range(9):
                stable = stable_betti(k, j)
                assert stable == rows[k][j] + (rows[k][j - 1] if j else 0)
                for n in range(j + 1, 13):
                    assert betti_unordered(k, n).coefficient(j) == stable
                assert betti_unordered(k, j).coefficient(j) == stable - pyramidal(k - 1, j - 1)
                assert betti_unordered(k, j).coefficient(j) == rows[k][j]


def test_criterion_6_fails_on_a_wrong_pyramidal(monkeypatch, capsys):
    # the formula's own routes both read the recursion, so with P(1, 3)
    # off by one (memo warmed) only the running-sum side tells
    import confpoly.combinatorics as combinatorics_module

    real = pyramidal
    for k in range(-1, 8):
        for i in range(-1, 13):
            real(k, i)
    wrong = lambda k, i: real(k, i) + ((k, i) == (1, 3))  # noqa: E731
    monkeypatch.setattr(combinatorics_module, "pyramidal", wrong)
    monkeypatch.setitem(globals(), "pyramidal", wrong)
    try:
        test_criterion_6_stability()
    except AssertionError:
        assert capsys.readouterr().out.startswith("criterion 6: FAIL")
    else:
        raise AssertionError("criterion 6 passed with a wrong P(1, 3)")


def test_criterion_7_euler_consistency():
    with criterion(7, "standard(-1) == virtual(1), both spaces, k<=6 n<=10"):
        for space in ("unordered", "ordered"):
            for k in range(7):
                assert all(euler_consistency(k, 10, space))


def test_criterion_8_pointcount_oracle():
    with criterion(8, "finite-field enumeration matches formulas, q in {2,3,5,7}"):
        for q in (2, 3, 5, 7):
            for n in range(6):
                assert squarefree_disagreements(q, n) == []
            for k in range(min(q, 4)):
                for report in oracle_check(q, k, 5):
                    assert report.agree, report


def _first_failure_line(out):
    for line in out.splitlines():
        if line.startswith("first failure:"):
            return line
    raise AssertionError(f"no first-failure line in output:\n{out}")


def test_criterion_9_mutation_sensitivity(monkeypatch, capsys):
    with criterion(9, "single-coefficient mutations are caught and named"):
        import confpoly.combinatorics as combinatorics_module
        import confpoly.ffield as ffield_module
        import confpoly.poincare as poincare_module
        import confpoly.virtual as virtual_module

        # the printed-typo value for the ordered virtual polynomial at (2, 3)
        real_vo = virtual_module.virtual_ordered

        def typo_virtual_ordered(k, n):
            if (k, n) == (2, 3):
                return LaurentPoly({4: -8, 2: 26, 0: -24})
            return real_vo(k, n)

        with monkeypatch.context() as m:
            m.setattr(virtual_module, "virtual_ordered", typo_virtual_ordered)
            code = cli.main(["verify", "--suite", "all"])
            out = capsys.readouterr().out
            assert code == 1
            assert "space=ordered k=2 n=3" in _first_failure_line(out)

        # a bumped Betti rank surfaces in the series three-way checks
        real_bu = poincare_module.betti_unordered

        def bumped_betti(k, n):
            poly = real_bu(k, n)
            return poly + LaurentPoly({2: 1}) if (k, n) == (3, 4) else poly

        with monkeypatch.context() as m:
            m.setattr(poincare_module, "betti_unordered", bumped_betti)
            code = cli.main(["verify", "--suite", "all", "--primes", "2,3"])
            out = capsys.readouterr().out
            assert code == 1
            assert "space=unordered k=3 n=4" in _first_failure_line(out)

        # a bumped ordered standard coefficient surfaces in the duality checks
        real_po = poincare_module.poincare_ordered

        def bumped_ordered(k, n):
            p = real_po(k, n)
            if (k, n) == (2, 3):
                return p + LaurentPoly({2: 1})
            return p

        with monkeypatch.context() as m:
            m.setattr(poincare_module, "poincare_ordered", bumped_ordered)
            code = cli.main(["verify", "--suite", "all", "--primes", "2,3"])
            out = capsys.readouterr().out
            assert code == 1
            assert "space=ordered k=2 n=3" in _first_failure_line(out)

        # a wrong pyramidal number surfaces in the recursion checks
        real_pyr = combinatorics_module.pyramidal
        # warm the memo cache over the whole verify range first, so the
        # original's recursive self-calls never route through the patched
        # name and bake mutated values into the cache
        for k in range(-1, 9):
            for i in range(-1, 14):
                real_pyr(k, i)

        def bumped_pyramidal(k, i):
            value = real_pyr(k, i)
            return value + 1 if (k, i) == (2, 3) else value

        with monkeypatch.context() as m:
            m.setattr(combinatorics_module, "pyramidal", bumped_pyramidal)
            code = cli.main(["verify", "--suite", "all", "--primes", "2,3"])
            out = capsys.readouterr().out
            assert code == 1
            assert "space=- k=2 n=3" in _first_failure_line(out)

        # a miscount in the enumeration surfaces in the pointcount checks
        ffield_module.clear_caches()
        real_count = ffield_module.count_squarefree_coprime

        def miscount(q, k, n):
            value = real_count(q, k, n)
            return value + 1 if (q, k, n) == (5, 2, 3) else value

        with monkeypatch.context() as m:
            m.setattr(ffield_module, "count_squarefree_coprime", miscount)
            code = cli.main(["verify", "--suite", "all", "--primes", "2,3,5"])
            out = capsys.readouterr().out
            assert code == 1
            assert "space=unordered k=2 n=3" in _first_failure_line(out)
