"""The standard-to-virtual transformation and Euler-characteristic consistency."""

import pytest

import confpoly.poincare as poincare_module
import confpoly.virtual as virtual_module
from confpoly.duality import (
    FAMILIES,
    DegreeTooHighError,
    check_duality,
    dualize_series,
    euler_consistency,
    undualize_series,
)
from confpoly.poincare import betti_unordered, poincare_ordered, unordered_series
from confpoly.ring import ONE, LaurentPoly, TruncSeries
from confpoly.virtual import virtual_ordered, virtual_unordered

# the public per-n function behind each family; the raw and the simplified
# unordered virtual series have the same coefficients
PER_N = {
    "standard-unordered": lambda k, n: betti_unordered(k, n).poly(),
    "standard-ordered": poincare_ordered,
    "virtual-unordered": lambda k, n: virtual_unordered(k, n).poly,
    "virtual-unordered-raw": lambda k, n: virtual_unordered(k, n).poly,
    "virtual-ordered": lambda k, n: virtual_ordered(k, n).poly,
}


def ordered_standard_series(k, order):
    return TruncSeries(order, [poincare_ordered(k, n) for n in range(order + 1)])


class TestDualizeSeries:
    def test_unordered_example(self):
        got = dualize_series(unordered_series(2, 3))
        assert got[3] == LaurentPoly({6: 1, 4: -3, 2: 5, 0: -4})

    def test_constant_series(self):
        assert dualize_series(TruncSeries(3, [1])) == TruncSeries(3, [1])

    def test_ordered_example(self):
        got = dualize_series(ordered_standard_series(2, 3))
        assert got[3] == LaurentPoly({6: 1, 4: -9, 2: 26, 0: -24})
        assert got[3] == virtual_ordered(2, 3).poly

    def test_degree_too_high_rejected(self):
        bad = TruncSeries(1, [ONE, LaurentPoly({2: 1})])
        with pytest.raises(DegreeTooHighError):
            dualize_series(bad)

    def test_negative_exponents_rejected(self):
        bad = TruncSeries(0, [LaurentPoly({-1: 1})])
        with pytest.raises(DegreeTooHighError):
            dualize_series(bad)

    def test_round_trip(self):
        for k in range(4):
            for series in (unordered_series(k, 8), ordered_standard_series(k, 8)):
                assert undualize_series(dualize_series(series)) == series


class TestCheckDuality:
    def test_unordered_two_punctures(self):
        report = check_duality(2, 8, "unordered")
        assert report.all_match()
        assert report.first_mismatch is None

    def test_ordered_plane(self):
        assert check_duality(0, 8, "ordered").all_match()

    def test_zero_points(self):
        for space in ("ordered", "unordered"):
            report = check_duality(3, 0, space)
            assert report.matches == (True,)

    def test_mismatch_is_reported_not_raised(self, monkeypatch):
        import confpoly.virtual as virtual_module

        real = virtual_module.virtual_ordered

        def broken(k, n):
            vp = real(k, n)
            if (k, n) == (1, 2):
                return virtual_module.VirtualPoly(
                    vp.poly + LaurentPoly({2: 1}), k, n, "ordered"
                )
            return vp

        monkeypatch.setattr(virtual_module, "virtual_ordered", broken)
        report = check_duality(1, 4, "ordered")
        assert not report.all_match()
        assert report.matches == (True, True, False, True, True)
        n, lhs, rhs = report.first_mismatch
        assert n == 2
        assert lhs != rhs

    def test_space_validated(self):
        with pytest.raises(ValueError):
            check_duality(1, 2, "sideways")


class TestEulerConsistency:
    def test_unordered_value(self):
        assert euler_consistency(2, 3, "unordered") == (True,) * 4
        assert betti_unordered(2, 3).poly().eval_int(-1) == -1
        assert virtual_unordered(2, 3).poly.eval_int(1) == -1

    def test_ordered_value(self):
        assert euler_consistency(2, 3, "ordered") == (True,) * 4
        assert poincare_ordered(2, 3).eval_int(-1) == -6
        assert virtual_ordered(2, 3).poly.eval_int(1) == -6

    def test_empty_configuration(self):
        assert euler_consistency(0, 0, "unordered") == (True,)
        assert betti_unordered(0, 0).poly().eval_int(-1) == 1


class TestFamilies:
    def test_every_family_has_a_per_n_route(self):
        assert set(FAMILIES) == set(PER_N)

    @pytest.mark.parametrize("family", list(PER_N))
    def test_truncation_does_not_matter(self, family):
        for k in range(7):
            # entry n of a table truncated at n itself, and of the per-n route
            last = [FAMILIES[family](k, n)[n] for n in range(13)]
            assert last == [PER_N[family](k, n) for n in range(13)]
            for order in range(13):
                assert list(FAMILIES[family](k, order)) == last[: order + 1]

    @pytest.mark.parametrize("family", list(PER_N))
    def test_negative_truncation_rejected(self, family):
        with pytest.raises(ValueError, match="truncation order must be nonnegative"):
            FAMILIES[family](2, -1)

    @pytest.mark.parametrize(
        "family, module, name",
        [
            ("standard-unordered", poincare_module, "betti_unordered"),
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
