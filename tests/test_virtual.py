"""Virtual Poincare polynomials: product formula and both series forms."""

import math

import pytest

import confpoly.virtual as virtual
from confpoly.ring import ONE, LaurentPoly, TruncSeries
from confpoly.virtual import (
    getzler_series_raw,
    virtual_ordered,
    virtual_unordered,
    virtual_unordered_series,
)

from by_hand import OrderedRunningProduct, assert_divides_by_factors, falling_by_hand

X2 = LaurentPoly({2: 1})


class TestVirtualOrdered:
    def test_two_punctures_three_points(self):
        assert virtual_ordered(2, 3) == LaurentPoly({6: 1, 4: -9, 2: 26, 0: -24})
        assert str(virtual_ordered(2, 3)) == "x^6-9x^4+26x^2-24"

    def test_plane_one_point(self):
        assert virtual_ordered(0, 1) == LaurentPoly({2: 1})

    def test_hand_expansion(self):
        # (x^2 - 1)(x^2 - 2)
        assert virtual_ordered(1, 2) == LaurentPoly({4: 1, 2: -3, 0: 2})

    def test_recursive_product(self):
        for k in range(5):
            for n in range(1, 9):
                fiber = LaurentPoly({2: 1, 0: -(k + n - 1)})
                assert virtual_ordered(k, n) == virtual_ordered(k, n - 1) * fiber

    def test_falling_factorial_specialization(self):
        for k in range(5):
            for n in range(7):
                for q in (2, 3, 5, 11):
                    expected = math.prod(q - k - j for j in range(n))
                    assert virtual_ordered(k, n).eval_x_squared(q) == expected


class TestVirtualUnorderedSeries:
    def test_two_punctures_three_points(self):
        got = virtual_unordered_series(2, 3)[3]
        assert got == LaurentPoly({6: 1, 4: -3, 2: 5, 0: -4})
        assert str(got) == "x^6-3x^4+5x^2-4"

    def test_plane_low_orders(self):
        s = virtual_unordered_series(0, 2)
        assert list(s.coeffs) == [
            ONE,
            LaurentPoly({2: 1}),
            LaurentPoly({4: 1, 2: -1}),
        ]

    def test_one_point_is_the_space(self):
        assert virtual_unordered_series(3, 1)[1] == LaurentPoly({2: 1, 0: -3})


class TestGetzlerRaw:
    @pytest.mark.parametrize("k, order", [(0, 5), (2, 12)])
    def test_forms_coincide(self, k, order):
        assert getzler_series_raw(k, order) == virtual_unordered_series(k, order)

    def test_one_point(self):
        assert getzler_series_raw(1, 1)[1] == LaurentPoly({2: 1, 0: -1})


class TestOneInverseForms:
    """Each route equals its docstring's formula with the denominator
    multiplied out and inverted whole."""

    @pytest.mark.parametrize("order", [0, 1, 2, 12, 64])
    def test_simplified(self, order):
        numerator = TruncSeries(order, [ONE, 0, -X2])
        for k in range(33):
            denominator = TruncSeries(order, [ONE, -X2]) * TruncSeries(order, [ONE, 1]) ** k
            assert virtual_unordered_series(k, order) == numerator * denominator.inverse(), k

    @pytest.mark.parametrize("order", [0, 1, 2, 12, 64])
    def test_raw(self, order):
        for k in range(33):
            numerator = TruncSeries(order, [ONE, 0, -X2]) * TruncSeries(order, [ONE, -1]) ** k
            denominator = TruncSeries(order, [ONE, -X2]) * TruncSeries(order, [ONE, 0, -1]) ** k
            assert getzler_series_raw(k, order) == numerator * denominator.inverse(), k

    @pytest.mark.parametrize("route", [virtual_unordered_series, getzler_series_raw])
    def test_divides_by_factors(self, monkeypatch, route):
        assert_divides_by_factors(monkeypatch, route)


class TestVirtualUnordered:
    def test_two_punctures_three_points(self):
        assert virtual_unordered(2, 3) == LaurentPoly({6: 1, 4: -3, 2: 5, 0: -4})

    def test_empty_configuration(self):
        assert virtual_unordered(0, 0) == ONE

    def test_one_point(self):
        assert virtual_unordered(2, 1) == LaurentPoly({2: 1, 0: -2})


class TestShapeInvariants:
    def test_monic_even_degree(self):
        for k in range(7):
            for n in range(11):
                for p in (virtual_ordered(k, n), virtual_unordered(k, n)):
                    assert p.degree() == 2 * n
                    assert p.coefficient(2 * n) == 1
                    assert all(e % 2 == 0 and e >= 0 for e in p.support())


class TestOrderedRunningProduct(OrderedRunningProduct):
    module, route, by_hand = virtual, "virtual_ordered", staticmethod(falling_by_hand)
    family = "virtual-ordered"
    deep = 3000, 2998, -sum(range(3, 1503))
    wrong = LaurentPoly({4: -8, 2: 26, 0: -24})
