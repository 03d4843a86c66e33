"""Virtual Poincare polynomials: product formula and both series forms."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confpoly.duality as duality
import confpoly.virtual as virtual
from confpoly.ring import ONE, LaurentPoly
from confpoly.virtual import (
    VirtualPoly,
    getzler_series_raw,
    virtual_ordered,
    virtual_unordered,
    virtual_unordered_series,
)

from by_hand import ORDERED_CALLS, falling_by_hand


class TestVirtualOrdered:
    def test_two_punctures_three_points(self):
        vp = virtual_ordered(2, 3)
        assert vp.poly == LaurentPoly({6: 1, 4: -9, 2: 26, 0: -24})
        assert str(vp.poly) == "x^6-9x^4+26x^2-24"

    def test_plane_one_point(self):
        assert virtual_ordered(0, 1).poly == LaurentPoly({2: 1})

    def test_hand_expansion(self):
        # (x^2 - 1)(x^2 - 2)
        assert virtual_ordered(1, 2).poly == LaurentPoly({4: 1, 2: -3, 0: 2})

    def test_recursive_product(self):
        for k in range(5):
            for n in range(1, 9):
                fiber = LaurentPoly({2: 1, 0: -(k + n - 1)})
                assert virtual_ordered(k, n).poly == virtual_ordered(k, n - 1).poly * fiber

    def test_falling_factorial_specialization(self):
        for k in range(5):
            for n in range(7):
                for q in (2, 3, 5, 11):
                    expected = math.prod(q - k - j for j in range(n))
                    assert virtual_ordered(k, n).poly.eval_x_squared(q) == expected


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
    def test_no_punctures_forms_coincide(self):
        assert getzler_series_raw(0, 5) == virtual_unordered_series(0, 5)

    def test_two_punctures_deep(self):
        assert getzler_series_raw(2, 12) == virtual_unordered_series(2, 12)

    def test_one_point(self):
        assert getzler_series_raw(1, 1)[1] == LaurentPoly({2: 1, 0: -1})


class TestVirtualUnordered:
    def test_two_punctures_three_points(self):
        assert virtual_unordered(2, 3).poly == LaurentPoly({6: 1, 4: -3, 2: 5, 0: -4})

    def test_empty_configuration(self):
        assert virtual_unordered(0, 0).poly == ONE

    def test_one_point(self):
        assert virtual_unordered(2, 1).poly == LaurentPoly({2: 1, 0: -2})


class TestShapeInvariants:
    def test_monic_even_degree(self):
        for k in range(7):
            for n in range(11):
                for vp in (virtual_ordered(k, n), virtual_unordered(k, n)):
                    p = vp.poly
                    assert p.degree() == 2 * n
                    assert p.coefficient(2 * n) == 1
                    assert all(e % 2 == 0 and e >= 0 for e in p.support())

    def test_space_field_validated(self):
        with pytest.raises(ValueError):
            VirtualPoly(ONE, 0, 0, "diagonal")
        with pytest.raises(ValueError):
            virtual_ordered(-1, 2)
        with pytest.raises(ValueError):
            virtual_unordered_series(-1, 2)


class TestOrderedRunningProduct:
    @settings(max_examples=40, deadline=None)
    @given(st.permutations(ORDERED_CALLS))
    def test_any_call_order(self, calls):
        for k, n in calls:
            vp = virtual_ordered(k, n)
            assert (vp.poly, vp.k, vp.n, vp.space) == (falling_by_hand(k, n), k, n, "ordered")

    def test_deep_call_on_a_cold_store(self, monkeypatch):
        monkeypatch.setattr(virtual, "_ORDERED", {})
        vp = virtual_ordered(3, 1500)
        assert vp.poly.degree() == 3000
        assert vp.poly.coefficient(2998) == -sum(range(3, 1503))

    def test_patch_of_the_public_name_does_not_stick(self, monkeypatch):
        real = virtual.virtual_ordered

        def typo(k, n):
            if (k, n) == (2, 3):
                return VirtualPoly(LaurentPoly({4: -8, 2: 26, 0: -24}), k, n, "ordered")
            return real(k, n)

        with monkeypatch.context() as m:
            m.setattr(virtual, "virtual_ordered", typo)
            assert duality.FAMILIES["virtual-ordered"](2, 6)[3] == LaurentPoly(
                {4: -8, 2: 26, 0: -24}
            )
            assert not duality.check_duality(2, 6, "ordered").all_match()
        expected = tuple(falling_by_hand(2, n) for n in range(7))
        assert duality.FAMILIES["virtual-ordered"](2, 6) == expected
        assert duality.check_duality(2, 6, "ordered").all_match()
