"""Arithmetic kernel: Laurent polynomials, truncated series, duality substitution."""

import doctest
import re

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

# divisors whose y^0 coefficient is +-x^e with e != 0
shifted_heads = st.tuples(
    st.sampled_from([1, -1]), st.integers(min_value=-3, max_value=3).filter(bool)
).map(lambda ce: LaurentPoly({ce[1]: ce[0]}))

shifted_series = st.tuples(shifted_heads, st.lists(polys, max_size=4)).map(
    lambda pair: TruncSeries(4, [pair[0], *pair[1]])
)


# polynomials in y of degree <= 5 with zero gaps, truncated at an order
# that cuts some products short: the inputs whose zeros the product skips
gappy = st.dictionaries(st.integers(min_value=0, max_value=5), polys, max_size=3)


@st.composite
def sparse_series_pairs(draw):
    order = draw(st.integers(min_value=0, max_value=9))
    a, b = draw(gappy), draw(gappy)
    return tuple(TruncSeries(order, [c.get(j, ZERO) for j in range(6)]) for c in (a, b))


# integer series: a +-1 head (or any int head, for products) and an int
# tail with zero gaps, at orders that cut powers and products short
int_tails = st.dictionaries(
    st.integers(min_value=1, max_value=6), st.integers(min_value=-4, max_value=4), max_size=3
)


@st.composite
def int_series_pairs(draw):
    order = draw(st.integers(min_value=0, max_value=12))
    return tuple(
        TruncSeries(order, [draw(st.integers(-3, 3)), *(tail.get(j, 0) for j in range(1, 7))])
        for tail in (draw(int_tails), draw(int_tails))
    )


@st.composite
def invertible_int_series(draw):
    order = draw(st.integers(min_value=0, max_value=12))
    head, tail = draw(st.sampled_from([1, -1])), draw(int_tails)
    return TruncSeries(order, [head, *(tail.get(j, 0) for j in range(1, 7))])


def power_by_hand(s, n):
    """s^n as |n| products by hand of s, or of 1 / s for n < 0: powers of a
    series with x in a coefficient are built this way, since ``**`` takes
    integer series only."""
    base = s if n >= 0 else s.inverse()
    out = TruncSeries(s.order, [1])
    for _ in range(abs(n)):
        out = TruncSeries(s.order, [LaurentPoly(d) for d in series_product_by_hand(out, base)])
    return out


@st.composite
def sparse_invertible_series(draw):
    order = draw(st.integers(min_value=0, max_value=12))
    head, tail = draw(unit_heads), draw(gappy)
    return TruncSeries(order, [head, *(tail.get(j, ZERO) for j in range(1, 6))])


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

    @pytest.mark.parametrize(
        "terms,message",
        [
            ({0: 1.5}, "coefficient must be an int, got 1.5"),
            ({0.5: 2}, "exponent must be an int, got 0.5"),
            ({0: True}, "coefficient must be an int, got True"),
            ({True: 1}, "exponent must be an int, got True"),
            ({0: "1"}, "coefficient must be an int, got '1'"),
            ({1: 2, 0.5: 0}, "exponent must be an int, got 0.5"),
        ],
    )
    def test_terms_must_be_ints(self, terms, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LaurentPoly(terms)

    def test_bool_is_not_a_coefficient(self):
        with pytest.raises(TypeError):
            TruncSeries(2, [ONE, True])
        with pytest.raises(TypeError):
            X + True
        assert LaurentPoly({0: 1}) != True

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


class TestDot:
    # rows (e, c, q) of _dot: the monomial c * x^e, c nonzero, and a polynomial
    rows = st.lists(
        st.tuples(st.integers(-5, 5), st.integers(-9, 9).filter(bool), polys), max_size=5
    )

    @given(rows, st.randoms())
    def test_any_pair_order(self, rows, rnd):
        expected = {}
        for e, c, q in rows:
            monomial = TruncSeries(0, [P({e: c})])
            (product,) = series_product_by_hand(monomial, TruncSeries(0, [q]))
            for e, c in product.items():
                expected[e] = expected.get(e, 0) + c
        rows = [(e, c, q._terms) for e, c, q in rows]
        shuffled = rows.copy()
        rnd.shuffle(shuffled)
        assert ring._dot(shuffled) == ring._dot(rows) == LaurentPoly(expected)

    def test_cancelled_terms_are_not_kept(self):
        # across rows, across the terms of one operand, in the row that
        # fills the sum, and in a sum refilled after it cancelled
        assert ring._dot([(1, 1, {0: 1}), (1, -1, {0: 1})]).support() == ()
        assert ring._dot([(0, 1, {0: 1, 1: -1}), (1, 1, {0: 1, 1: -1})]).support() == (0, 2)
        assert ring._dot([(1, 1, {0: 1, 1: 1}), (0, 1, {1: -1, 2: -1})]).support() == ()
        refilled = ring._dot([(0, 1, {1: 1}), (0, -1, {1: 1}), (1, 2, {2: 3})])
        assert refilled == P({3: 6})
        assert ring._dot([]).support() == ()


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
    def test_term_by_term(self, p, n):
        # every polynomial, with degrees above n and negative exponents too:
        # the term c*x^e goes to (-1)^e * c * x^(2n-2e), and nothing else
        image = substitute_duality(p, n)
        expected = {2 * n - 2 * e: (-1) ** abs(e) * p.coefficient(e) for e in p.support()}
        assert {e: image.coefficient(e) for e in image.support()} == expected

    @given(polys_nonneg, st.integers(0, 8))
    def test_lands_in_polynomials(self, p, n):
        if not p or p.degree() > n:
            return
        image = substitute_duality(p, n)
        assert all(e >= 0 and e % 2 == 0 for e in image.support())


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

    @given(st.tuples(series, series) | sparse_series_pairs())
    def test_matches_product_by_hand(self, pair):
        a, b = pair
        got = a * b
        assert [
            {e: c.coefficient(e) for e in c.support()} for c in got.coeffs
        ] == series_product_by_hand(a, b)

    @given(int_series_pairs())
    def test_integer_product_matches_by_hand(self, pair):
        a, b = pair
        assert [{0: c.coefficient(0)} if c else {} for c in (a * b).coeffs] == (
            series_product_by_hand(a, b)
        )

    def test_integer_series_take_the_int_kernel(self, monkeypatch):
        calls = []
        int_dot = ring._int_dot

        def counting(xs, ys):
            calls.append(len(xs))
            return int_dot(xs, ys)

        monkeypatch.setattr(ring, "_int_dot", counting)
        s = TruncSeries(6, [1, 2, 0, -1])
        assert (s * s)[6] == 1 and s**-2 == power_by_hand(s, -2)
        assert len(calls) == 7 + 6
        calls.clear()
        t = TruncSeries(6, [ONE, X])
        assert t * s == TruncSeries(6, [1, X + 2, 2 * X, -1, -X]) and calls == []
        assert t * t * t == TruncSeries(6, [1, 3 * X, 3 * X * X, X * X * X]) and calls == []

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
        def plus(u, v):  # series have no +; the sum coefficient by coefficient
            return TruncSeries(u.order, [p + q for p, q in zip(u.coeffs, v.coeffs)])

        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * plus(b, c) == plus(a * b, a * c)

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
        assert got == TruncSeries(3, [ONE, X, X * X, X * X * X])

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

    @given(invertible_series | sparse_invertible_series())
    def test_two_sided_inverse(self, s):
        one = TruncSeries(s.order, [1])
        inv = s.inverse()
        assert s * inv == one
        assert inv * s == one

    @given(invertible_series, invertible_series, st.integers(min_value=0, max_value=5))
    def test_inverse_of_products_and_powers(self, a, b, k):
        assert (a * b).inverse() == a.inverse() * b.inverse()
        inverse = a.inverse()
        a_to_k = inverse_to_k = TruncSeries(a.order, [1])
        for _ in range(k):
            a_to_k, inverse_to_k = a_to_k * a, inverse_to_k * inverse
        assert a_to_k.inverse() == inverse_to_k


class TestSeriesPow:
    @given(invertible_int_series(), st.integers(-6, 6))
    def test_power_laws(self, s, n):
        one = TruncSeries(s.order, [1])
        assert s**n * s**-n == one
        assert s ** (n + 1) == s**n * s
        assert s**-1 == s.inverse()

    def test_binomial_powers(self):
        assert TruncSeries(4, [1, 1]) ** 3 == TruncSeries(4, [1, 3, 3, 1])
        assert TruncSeries(4, [1, 1]) ** -2 == TruncSeries(4, [1, -2, 3, -4, 5])
        assert TruncSeries(4, [-1, 1]) ** 0 == TruncSeries(4, [1])
        assert TruncSeries(4, [-1, 1]) ** 3 == TruncSeries(4, [-1, 3, -3, 1])

    @pytest.mark.parametrize(
        "n, message", [(-2, "-7 is not divisible by 3"), (3, "9 is not divisible by 2")],
        ids=["n=-2", "n=3"],
    )
    def test_inexact_step_raises(self, monkeypatch, n, message):
        # a wrong recurrence shows as a remainder, never as a rounded
        # quotient, for negative powers too: with every sum off by one,
        # (1 + y)^-2 leaves -7 at y^3, which 3 does not divide, and (1 + y)^3
        # leaves 9 at y^2, which 2 does not divide
        int_dot = ring._int_dot
        monkeypatch.setattr(ring, "_int_dot", lambda xs, ys: int_dot(xs, ys) + 1)
        with pytest.raises(ArithmeticError, match=f"^{message}$"):
            TruncSeries(4, [1, 1]) ** n

    @pytest.mark.parametrize(
        "coeffs, text",
        [
            ([ONE, -X], "(1) + (-x)y + (0)y^2"),
            ([LaurentPoly({2: -1}), 1], "(-x^2) + (1)y + (0)y^2"),
            ([1, 0, X * X + 1], "(1) + (0)y + (x^2+1)y^2"),
        ],
        ids=["tail", "head", "last"],
    )
    def test_polynomial_base_refused(self, coeffs, text):
        # powers of a series with x in a coefficient are built as products
        message = f"{text} has a coefficient in x; only integer series have powers"
        for n in (-1, 0, 2):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as raised:
                TruncSeries(2, coeffs) ** n
            assert type(raised.value) is ValueError

    @given(invertible_int_series(), st.integers(-6, 6))
    def test_integer_powers_match_products_by_hand(self, s, n):
        assert s**n == power_by_hand(s, n)

    @pytest.mark.parametrize("head", [2, ONE + X, 0], ids=["2", "1+x", "0"])
    @pytest.mark.parametrize("n", [-1, 0, 3])
    def test_non_unit_head_rejected(self, head, n):
        with pytest.raises(NonUnitConstantTermError):
            TruncSeries(2, [head, 1]) ** n


class TestSeriesDiv:
    @given(series, invertible_series | shifted_series)
    def test_product_divided_by_factor(self, a, b):
        assert (a * b) / b == a

    @given(series, invertible_series | shifted_series)
    def test_quotient_times_divisor(self, a, b):
        assert (a / b) * b == a

    @given(series, invertible_series | shifted_series)
    def test_matches_inverse_product(self, a, b):
        assert a / b == a * b.inverse()

    @given(sparse_series_pairs(), sparse_invertible_series())
    def test_sparse_operands(self, pair, b):
        a = TruncSeries(b.order, pair[0].coeffs)
        assert (a * b) / b == a

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError, match="series orders differ: 2 vs 3"):
            TruncSeries(2, [1]) / TruncSeries(3, [1])

    @pytest.mark.parametrize(
        "head,message",
        [
            (2, "y^0 coefficient 2 has non-unit coefficient 2"),
            (LaurentPoly({1: -3}), "y^0 coefficient -3x has non-unit coefficient -3"),
            (ONE + X, "y^0 coefficient x+1 is not a monomial unit"),
            (0, "y^0 coefficient 0 is not a monomial unit"),
        ],
    )
    def test_non_unit_head_rejected(self, head, message):
        divisor = TruncSeries(2, [head, 1])
        for dividend in (TruncSeries(2, [1]), TruncSeries(2, [0, X])):
            with pytest.raises(NonUnitConstantTermError, match=f"^{re.escape(message)}$"):
                dividend / divisor
        with pytest.raises(NonUnitConstantTermError, match=f"^{re.escape(message)}$"):
            divisor.inverse()

    def test_operands_must_be_series(self):
        s = TruncSeries(2, [ONE, X])
        with pytest.raises(TypeError):
            s / 2
        with pytest.raises(TypeError):
            2 / s


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

    @given(polys)
    def test_matches_rendering_term_by_term(self, p):
        text = ""
        for e in sorted(p.support(), reverse=True):
            c = p.coefficient(e)
            body = str(abs(c)) if e == 0 or abs(c) != 1 else ""
            body += "" if e == 0 else "x" if e == 1 else f"x^{e}"
            text += ("-" if c < 0 else "+" if text else "") + body
        assert str(p) == (text or "0")

    @given(polys_nonneg, st.integers(min_value=0, max_value=3))
    def test_decimal_row_is_decimals_and_str(self, p, extra):
        stop = (p.degree() + 1 if p else 0) + extra
        assert p.decimals(stop) == [str(p.coefficient(e)) for e in range(stop)]
        assert p.decimal_row(stop) == (p.decimals(stop), str(p))

    @pytest.mark.parametrize("terms, stop", [({3: 1}, 3), ({-1: 2, 0: 1}, 2)])
    def test_decimal_row_needs_the_whole_support(self, terms, stop):
        with pytest.raises(ValueError, match="has a term outside"):
            P(terms).decimal_row(stop)

    def test_zero_degree_undefined(self):
        with pytest.raises(ValueError):
            ZERO.degree()

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
