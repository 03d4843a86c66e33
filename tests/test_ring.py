"""Arithmetic kernel: Laurent polynomials, truncated series, duality substitution."""

import doctest

import pytest
from hypothesis import given
from hypothesis import strategies as st

import confpoly.ring as ring
from confpoly.ring import (
    ONE,
    X,
    ZERO,
    LaurentPoly,
    NegativeExponentError,
    NonUnitConstantTermError,
    OrderMismatchError,
    TruncSeries,
    substitute_duality,
    substitute_duality_inverse,
)

from by_hand import series_product_by_hand


def P(terms):
    return LaurentPoly(terms)


term_maps = st.dictionaries(
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
)
polys = term_maps.map(LaurentPoly)

polys_nonneg = st.dictionaries(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=-9, max_value=9),
    max_size=4,
).map(LaurentPoly)


def series4(coeff_lists):
    return TruncSeries(4, coeff_lists)


series = st.lists(polys, min_size=0, max_size=5).map(series4)

unit_heads = st.tuples(
    st.sampled_from([1, -1]), st.integers(min_value=-3, max_value=3)
).map(lambda ce: LaurentPoly({ce[1]: ce[0]}))

invertible_series = st.tuples(unit_heads, st.lists(polys, max_size=4)).map(
    lambda pair: TruncSeries(4, [pair[0], *pair[1]])
)


class TestStoredForm:
    @given(term_maps, st.sets(st.integers(min_value=-8, max_value=8), max_size=4), polys)
    def test_insertion_order_and_zeros_do_not_show(self, terms, zero_exps, other):
        a = LaurentPoly(terms)
        padded = {e: 0 for e in zero_exps - terms.keys()}
        padded.update(reversed(list(terms.items())))
        b = LaurentPoly(padded)
        assert a == b
        assert (hash(a), str(a), repr(a)) == (hash(b), str(b), repr(b))
        assert hash(a + other) == hash(other + a)
        const = terms.get(0, 0)
        assert LaurentPoly({1: 0, 0: const}) == const
        assert hash(LaurentPoly({1: 0, 0: const})) == hash(const)

    def test_docstring_examples(self):
        failed, attempted = doctest.testmod(ring)
        assert failed == 0
        assert attempted > 0


class TestLaurentMul:
    def test_identity(self):
        assert ONE * P({2: 1, 0: -3}) == P({2: 1, 0: -3})

    def test_hand_expansion(self):
        assert P({0: 1, 1: 2}) * P({0: 1, 1: 3}) == P({0: 1, 1: 5, 2: 6})

    def test_three_factor_product(self):
        # (x^2-2)(x^2-3)(x^2-4), the n=3 ordered virtual polynomial for k=2
        product = P({2: 1, 0: -2}) * P({2: 1, 0: -3}) * P({2: 1, 0: -4})
        assert product == P({6: 1, 4: -9, 2: 26, 0: -24})

    def test_support_in_sumset(self):
        a, b = P({-2: 1, 1: 3}), P({0: 5, 4: -1})
        sumset = {ea + eb for ea in a.support() for eb in b.support()}
        assert set((a * b).support()) <= sumset


class TestEvalInt:
    def test_simple(self):
        assert P({2: 1, 0: -2}).eval_int(1) == -1

    def test_alternating_sum(self):
        # -4 + 5 - 3 + 1
        assert P({3: 4, 2: 5, 1: 3, 0: 1}).eval_int(-1) == -1

    def test_direct_sum(self):
        # 1 - 3 + 5 - 4, same value as the previous one (Euler characteristic)
        assert P({6: 1, 4: -3, 2: 5, 0: -4}).eval_int(1) == -1

    def test_negative_exponent_rejected(self):
        with pytest.raises(NegativeExponentError):
            P({-1: 1}).eval_int(2)

    def test_eval_x_squared(self):
        assert P({6: 1, 4: -9, 2: 26, 0: -24}).eval_x_squared(5) == 6
        with pytest.raises(ValueError):
            P({3: 1}).eval_x_squared(2)
        with pytest.raises(NegativeExponentError):
            P({-2: 1}).eval_x_squared(2)


class TestSubstituteDuality:
    def test_one_point(self):
        assert substitute_duality(P({0: 1, 1: 2}), 1) == P({2: 1, 0: -2})

    def test_three_points(self):
        got = substitute_duality(P({0: 1, 1: 3, 2: 5, 3: 4}), 3)
        assert got == P({6: 1, 4: -3, 2: 5, 0: -4})

    def test_empty_configuration(self):
        assert substitute_duality(ONE, 0) == ONE

    @given(polys, polys, st.integers(0, 4), st.integers(0, 4))
    def test_multiplicative(self, p, q, n, m):
        lhs = substitute_duality(p * q, n + m)
        rhs = substitute_duality(p, n) * substitute_duality(q, m)
        assert lhs == rhs

    @given(polys, st.integers(0, 6))
    def test_inverse_round_trip(self, p, n):
        assert substitute_duality_inverse(substitute_duality(p, n), n) == p

    @given(polys_nonneg, st.integers(0, 8))
    def test_lands_in_polynomials(self, p, n):
        if not p or p.degree() > n:
            return
        image = substitute_duality(p, n)
        assert not image or image.valuation() >= 0
        assert all(e % 2 == 0 for e in image.support())


class TestSeriesMul:
    def test_inverse_pair(self):
        geometric = TruncSeries(3, [1, 1, 1, 1])
        assert geometric * TruncSeries(3, [1, -1]) == TruncSeries(3, [1])

    def test_square(self):
        s = TruncSeries(2, [ONE, X])
        assert s * s == TruncSeries(2, [ONE, 2 * X, X * X])

    def test_difference_of_squares(self):
        n = 8
        lhs = TruncSeries(n, [1, -1]) ** 3 * TruncSeries(n, [1, 1]) ** 3
        rhs = TruncSeries(n, [1, 0, -1]) ** 3
        assert lhs == rhs
        # independent route: binomial expansion of (1 - y^2)^3
        from math import comb

        expected = [0] * (n + 1)
        for i in range(4):
            expected[2 * i] = (-1) ** i * comb(3, i)
        assert rhs == TruncSeries(n, expected)

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            TruncSeries(2, [1]) * TruncSeries(3, [1])
        with pytest.raises(OrderMismatchError):
            TruncSeries(2, [1]) + TruncSeries(3, [1])

    @given(series, series)
    def test_matches_product_by_hand(self, a, b):
        got = a * b
        assert [
            {e: c.coefficient(e) for e in c.support()} for c in got.coeffs
        ] == series_product_by_hand(a, b)

    def test_operands_must_be_series(self):
        s = TruncSeries(2, [ONE, X])
        with pytest.raises(TypeError):
            s * 2
        with pytest.raises(TypeError):
            2 * s
        with pytest.raises(TypeError):
            s + X

    @given(series, series, series)
    def test_ring_axioms(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @given(polys, polys, polys)
    def test_poly_ring_axioms(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * ONE == a
        assert a + ZERO == a


class TestSeriesInv:
    def test_geometric(self):
        assert TruncSeries(4, [1, -1]).inverse() == TruncSeries(4, [1, 1, 1, 1, 1])

    def test_geometric_in_xy(self):
        got = TruncSeries(3, [ONE, -X]).inverse()
        assert got == TruncSeries(3, [ONE, X, X**2, X**3])

    def test_negative_binomial(self):
        got = (TruncSeries(3, [1, 1]) ** 2).inverse()
        assert got == TruncSeries(3, [1, -2, 3, -4])

    def test_non_unit_rejected(self):
        with pytest.raises(NonUnitConstantTermError):
            TruncSeries(2, [2, 1]).inverse()
        with pytest.raises(NonUnitConstantTermError):
            TruncSeries(2, [ONE + X, 1]).inverse()
        with pytest.raises(NonUnitConstantTermError):
            TruncSeries(2, [0, 1]).inverse()

    def test_monomial_head_is_invertible(self):
        s = TruncSeries(3, [LaurentPoly({2: -1}), X])
        assert s * s.inverse() == TruncSeries(3, [1])

    @given(invertible_series)
    def test_two_sided_inverse(self, s):
        one = TruncSeries(s.order, [1])
        inv = s.inverse()
        assert s * inv == one
        assert inv * s == one


class TestRendering:
    @pytest.mark.parametrize(
        "terms,expected",
        [
            ({3: 4, 2: 5, 1: 3, 0: 1}, "4x^3+5x^2+3x+1"),
            ({6: 1, 4: -3, 2: 5, 0: -4}, "x^6-3x^4+5x^2-4"),
            ({}, "0"),
            ({0: -7}, "-7"),
            ({1: 1}, "x"),
            ({1: -1}, "-x"),
            ({-2: 1, 0: -1}, "-1+x^-2"),
            ({2: 1}, "x^2"),
        ],
    )
    def test_canonical_form(self, terms, expected):
        assert str(P(terms)) == expected

    def test_zero_degree_undefined(self):
        with pytest.raises(ValueError):
            ZERO.degree()
        with pytest.raises(ValueError):
            ZERO.valuation()

    def test_truncation_and_padding(self):
        s = TruncSeries(1, [1, 2, 3, 4])
        assert s == TruncSeries(1, [1, 2])
        assert len(TruncSeries(3, [1]).coeffs) == 4

    def test_coefficient_bounds(self):
        s = TruncSeries(2, [1])
        with pytest.raises(IndexError):
            s[3]
        with pytest.raises(IndexError):
            s[-1]
