"""Standard Poincare polynomials: closed form, series, recursion, stability."""

import random
import sys
import threading

import pytest

import confpoly.duality as duality
import confpoly.poincare as poincare
from confpoly.poincare import (
    betti_unordered,
    napolitano_step,
    poincare_ordered,
    stable_betti,
    unordered_series,
)
from confpoly.ring import ONE, X, LaurentPoly, TruncSeries
from confpoly.virtual import virtual_ordered

from by_hand import (
    ORDERED_CALLS,
    OrderedRunningProduct,
    assert_divides_by_factors,
    falling_by_hand,
    ordered_by_hand,
)


class TestBettiUnordered:
    def test_two_punctures_three_points(self):
        assert betti_unordered(2, 3) == LaurentPoly({0: 1, 1: 3, 2: 5, 3: 4})
        assert str(betti_unordered(2, 3)) == "4x^3+5x^2+3x+1"

    def test_plane_three_points(self):
        assert betti_unordered(0, 3) == ONE + X

    def test_plane_keeps_no_zero_rank(self):
        # P(-1, i) = 0 for i > 0: the k = 0 ranks past x^1 are 0, and are not stored
        table = duality.FAMILIES["standard-unordered"](0, 8)
        for n in range(9):
            support = (0,) if n < 2 else (0, 1)
            assert betti_unordered(0, n).support() == table[n].support() == support, n

    def test_table_agrees_with_the_per_n_route(self):
        # the standard-unordered family builds its table from one pyramidal
        # row; the per-n route builds each polynomial on its own
        for k in range(33):
            table = duality.FAMILIES["standard-unordered"](k, 64)
            assert list(table) == [betti_unordered(k, n) for n in range(65)], k

    def test_single_point_is_the_space_itself(self):
        assert betti_unordered(1, 1) == ONE + X
        for k in range(6):
            assert betti_unordered(k, 1) == LaurentPoly({0: 1, 1: k})

    def test_zero_points(self):
        for k in range(5):
            assert betti_unordered(k, 0) == ONE

    def test_row_invariants(self):
        for k in range(7):
            for n in range(13):
                p = betti_unordered(k, n)
                assert p.coefficient(0) == 1
                assert all(0 <= e <= n and p.coefficient(e) > 0 for e in p.support())


class TestUnorderedSeries:
    def test_braid_base_case(self):
        s = unordered_series(0, 3)
        assert list(s.coeffs) == [ONE, ONE, ONE + X, ONE + X]

    def test_matches_closed_form_example(self):
        assert unordered_series(2, 3)[3] == LaurentPoly({0: 1, 1: 3, 2: 5, 3: 4})

    def test_zero_points_is_a_point(self):
        assert unordered_series(5, 0) == TruncSeries(0, [1])

    @pytest.mark.parametrize("order", [0, 1, 2, 12, 64])
    def test_equals_one_inverse_form(self, order):
        # the denominator (1 - y)(1 - x*y)^k by repeated products
        numerator = TruncSeries(order, [ONE, 0, X])
        denominator = TruncSeries(order, [ONE, -1])
        for k in range(33):
            assert unordered_series(k, order) == numerator * denominator.inverse(), k
            denominator = denominator * TruncSeries(order, [ONE, -X])

    def test_divides_by_factors(self, monkeypatch):
        assert_divides_by_factors(monkeypatch, unordered_series)


class TestNapolitanoStep:
    def test_single_step(self):
        assert napolitano_step(unordered_series(0, 8)) == unordered_series(1, 8)

    def test_three_steps(self):
        s = unordered_series(0, 8)
        for _ in range(3):
            s = napolitano_step(s)
        assert s == unordered_series(3, 8)

    def test_step_of_one_is_geometric(self):
        got = napolitano_step(TruncSeries(2, [1]))
        assert got == TruncSeries(2, [ONE, X, X * X])

    def test_chain_consistency(self):
        for k in range(6):
            assert napolitano_step(unordered_series(k, 12)) == unordered_series(k + 1, 12)


class TestStableBetti:
    def test_values(self):
        assert stable_betti(2, 2) == 5
        assert stable_betti(0, 0) == 1

    def test_cross_check_against_rows(self):
        for n in range(3, 9):
            assert betti_unordered(2, n).coefficient(2) == 5

    def test_generating_series(self):
        # j-th coefficient of (1+y)/(1-y)^k
        for k in range(7):
            gf = TruncSeries(10, [1, 1]) * (TruncSeries(10, [1, -1]) ** k).inverse()
            for j in range(11):
                assert gf[j] == LaurentPoly({0: stable_betti(k, j)})
        assert (
            TruncSeries(8, [1, 1]) * (TruncSeries(8, [1, -1]) ** 3).inverse()
        )[1] == LaurentPoly({0: 4})


class TestPoincareOrdered:
    def test_two_punctures_three_points(self):
        assert poincare_ordered(2, 3) == LaurentPoly({0: 1, 1: 9, 2: 26, 3: 24})
        assert str(poincare_ordered(2, 3)) == "24x^3+26x^2+9x+1"

    def test_braid_case(self):
        assert poincare_ordered(0, 2) == ONE + X

    def test_empty_product(self):
        assert poincare_ordered(3, 0) == ONE

    def test_degree_and_leading_coefficient(self):
        for k in range(7):
            for n in range(11):
                p = poincare_ordered(k, n)
                assert p.coefficient(0) == 1
                assert all(p.coefficient(e) >= 0 for e in p.support())
                if n == 0:
                    assert p == ONE
                elif k == 0:
                    assert p.degree() == n - 1
                else:
                    assert p.degree() == n
                    lead = 1
                    for j in range(n):
                        lead *= k + j
                    assert p.coefficient(n) == lead


class TestOrderedRunningProduct(OrderedRunningProduct):
    module, route, by_hand = poincare, "poincare_ordered", staticmethod(ordered_by_hand)
    family = "standard-ordered"
    deep = 1500, 1, sum(range(3, 1503))
    wrong = ordered_by_hand(2, 3) + LaurentPoly({2: 1})

    def test_threads_share_the_stores(self):
        # the stores are read, extended and replaced without a lock; every
        # interleaving must still hand out the right products
        expected = {
            (k, n): (ordered_by_hand(k, n), falling_by_hand(k, n)) for k, n in ORDERED_CALLS
        }
        wrong = []

        def worker(seed):
            calls = ORDERED_CALLS * 3
            random.Random(seed).shuffle(calls)
            for k, n in calls:
                got = (poincare_ordered(k, n), virtual_ordered(k, n))
                if got != expected[k, n]:
                    wrong.append((k, n))

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
