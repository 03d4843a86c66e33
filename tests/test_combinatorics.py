"""Pyramidal numbers, Stirling numbers, and their cross-identities."""

import pytest

from confpoly.combinatorics import (
    KOutOfRangeError,
    pyramidal,
    pyramidal_closed_form,
    pyramidal_rows,
    stirling_first_unsigned,
)
from confpoly.ring import LaurentPoly, TruncSeries

# the published 5x5 reference table, rows k = -1..3, columns i = 0..4
REFERENCE_TABLE = (
    (1, 0, 0, 0, 0),
    (1, 1, 1, 1, 1),
    (1, 2, 3, 4, 5),
    (1, 3, 6, 10, 15),
    (1, 4, 10, 20, 35),
)


class TestPyramidal:
    def test_reference_values(self):
        assert pyramidal(2, 3) == 10
        assert pyramidal(-1, 0) == 1
        assert pyramidal(3, 4) == 35

    def test_reference_table(self):
        assert pyramidal_rows(3, 4) == REFERENCE_TABLE

    def test_negative_i_extension(self):
        for k in range(-1, 5):
            assert pyramidal(k, -1) == 0
            assert pyramidal(k, -3) == 0

    def test_k_out_of_range(self):
        with pytest.raises(KOutOfRangeError):
            pyramidal(-2, 0)
        with pytest.raises(KOutOfRangeError):
            pyramidal_closed_form(-1, 0)
        with pytest.raises(KOutOfRangeError):
            pyramidal_rows(-2, 3)
        with pytest.raises(ValueError, match="max_i"):
            pyramidal_rows(3, -1)

    def test_all_routes_agree(self):
        rows = pyramidal_rows(8, 12)
        for k in range(-1, 9):
            for i in range(13):
                assert pyramidal(k, i) == rows[k + 1][i]
                if k >= 0:
                    assert pyramidal(k, i) == pyramidal_closed_form(k, i)

    def test_row_recursion(self):
        # P(k+1, i) is the running sum of row k
        for k in range(-1, 6):
            for i in range(10):
                assert pyramidal(k + 1, i) == sum(pyramidal(k, j) for j in range(i + 1))

    def test_generating_function(self):
        # coefficients of 1/(1-y)^(k+1)
        for k in range(7):
            gf = (TruncSeries(12, [1, -1]) ** (k + 1)).inverse()
            for i in range(13):
                assert gf[i] == LaurentPoly({0: pyramidal(k, i)})

    def test_deep_calls_on_a_cold_cache(self):
        # k + i far past the interpreter's default recursion limit
        import math

        for k, i in [(0, 1200), (1200, 1), (3, 1500)]:
            pyramidal.cache_clear()
            assert pyramidal(k, i) == math.comb(i + k, i)


class TestStirling:
    def test_values(self):
        assert stirling_first_unsigned(3, 2) == 3
        assert stirling_first_unsigned(0, 0) == 1
        assert stirling_first_unsigned(3, 1) == 2

    def test_out_of_range_is_zero(self):
        assert stirling_first_unsigned(3, 0) == 0
        assert stirling_first_unsigned(3, 4) == 0
        assert stirling_first_unsigned(4, -1) == 0

    def test_cycle_count_total(self):
        # summing over cycle counts gives n!
        import math

        for n in range(8):
            assert sum(stirling_first_unsigned(n, r) for r in range(n + 1)) == math.factorial(n)

    def test_product_coefficients(self):
        # x^i coefficient of (1+x)(1+2x)...(1+(n-1)x) is c(n, n-i)
        for n in range(1, 9):
            product = LaurentPoly({0: 1})
            for j in range(1, n):
                product = product * LaurentPoly({0: 1, 1: j})
            for i in range(n):
                assert product.coefficient(i) == stirling_first_unsigned(n, n - i)

    def test_large_n_against_harmonic_form(self):
        # c(n, 1) = (n-1)! and c(n, 3) = (n-1)!/2 * (H^2 - H2), where H and
        # H2 are the sums of 1/j and 1/j^2 over j < n; n = 1500 is deeper
        # than the interpreter's default recursion limit
        import math
        from fractions import Fraction

        n = 1500
        h = sum(Fraction(1, j) for j in range(1, n))
        h2 = sum(Fraction(1, j * j) for j in range(1, n))
        assert stirling_first_unsigned(n, 1) == math.factorial(n - 1)
        assert stirling_first_unsigned(n, 3) == math.factorial(n - 1) * (h * h - h2) / 2
