"""The standard-to-virtual transformation and Euler-characteristic consistency."""

import pytest

import confpoly.poincare as poincare_module
import confpoly.virtual as virtual_module
from confpoly.duality import FAMILIES, check_duality, euler_consistency
from confpoly.poincare import betti_unordered, poincare_ordered
from confpoly.ring import LaurentPoly
from confpoly.virtual import virtual_ordered, virtual_unordered

# the public per-n function behind each family; the raw and the simplified
# unordered virtual series have the same coefficients
PER_N = {
    "standard-unordered": betti_unordered,
    "standard-ordered": poincare_ordered,
    "virtual-unordered": virtual_unordered,
    "virtual-unordered-raw": virtual_unordered,
    "virtual-ordered": virtual_ordered,
}


class TestCheckDuality:
    def test_unordered_two_punctures(self):
        report = check_duality(2, 8, "unordered")
        assert all(report.matches)
        assert report.first_mismatch is None

    def test_ordered_plane(self):
        assert all(check_duality(0, 8, "ordered").matches)

    def test_zero_points(self):
        for space in ("ordered", "unordered"):
            report = check_duality(3, 0, space)
            assert report.matches == (True,)

    def test_mismatch_is_reported_not_raised(self, monkeypatch):
        import confpoly.virtual as virtual_module

        real = virtual_module.virtual_ordered

        def broken(k, n):
            poly = real(k, n)
            return poly + LaurentPoly({2: 1}) if (k, n) == (1, 2) else poly

        monkeypatch.setattr(virtual_module, "virtual_ordered", broken)
        report = check_duality(1, 4, "ordered")
        assert report.matches == (True, True, False, True, True)
        n, lhs, rhs = report.first_mismatch
        assert n == 2
        assert lhs != rhs

    def test_space_validated(self):
        # the one space check of virtual, so its message
        with pytest.raises(ValueError) as info:
            check_duality(1, 2, "sideways")
        assert str(info.value) == "space must be one of ('unordered', 'ordered'), got 'sideways'"


class TestEulerConsistency:
    def test_unordered_value(self):
        assert euler_consistency(2, 3, "unordered") == (True,) * 4
        assert betti_unordered(2, 3).eval_int(-1) == -1
        assert virtual_unordered(2, 3).eval_int(1) == -1

    def test_ordered_value(self):
        assert euler_consistency(2, 3, "ordered") == (True,) * 4
        assert poincare_ordered(2, 3).eval_int(-1) == -6
        assert virtual_ordered(2, 3).eval_int(1) == -6

    def test_empty_configuration(self):
        assert euler_consistency(0, 0, "unordered") == (True,)
        assert betti_unordered(0, 0).eval_int(-1) == 1


class TestFamilies:
    def test_every_family_has_a_per_n_route(self):
        assert set(FAMILIES) == set(PER_N)

    @pytest.mark.parametrize("family", list(PER_N))
    def test_one_value_type(self, family):
        # every route and every family entry hands out a bare LaurentPoly
        for k in range(4):
            for n in range(6):
                assert type(PER_N[family](k, n)) is LaurentPoly, (k, n)
            assert {type(p) for p in FAMILIES[family](k, 5)} == {LaurentPoly}, k

    @pytest.mark.parametrize("family", list(PER_N))
    def test_truncation_does_not_matter(self, family):
        for k in range(7):
            # entry n of a table truncated at n itself, and of the per-n route
            last = [FAMILIES[family](k, n)[n] for n in range(13)]
            assert last == [PER_N[family](k, n) for n in range(13)]
            for order in range(13):
                assert list(FAMILIES[family](k, order)) == last[: order + 1]

    @pytest.mark.parametrize(
        "family, module, name",
        [
            ("standard-unordered", poincare_module, "betti_unordered_table"),
            ("standard-ordered", poincare_module, "poincare_ordered"),
            ("virtual-unordered", virtual_module, "virtual_unordered_series"),
            ("virtual-unordered-raw", virtual_module, "getzler_series_raw"),
            ("virtual-ordered", virtual_module, "virtual_ordered"),
        ],
    )
    def test_routes_are_looked_up_when_called(self, monkeypatch, family, module, name):
        class Called(Exception):
            pass

        def replaced(k, n):
            raise Called

        monkeypatch.setattr(module, name, replaced)
        with pytest.raises(Called):
            FAMILIES[family](2, 3)
