"""Products written out by hand, each once and nowhere else in the tests.

The ordered products are multiplied out one factor at a time, as
LaurentPoly products, and both routes' coefficient rows are checked
against them. The series product is
a plain convolution over exponent dicts, against which ``TruncSeries``
multiplication is checked. The product over F_q multiplies coefficient
tuples, against which ``FieldPoly`` division and gcd and the squarefree
test are checked, and marking each product g*g*h of it in turn gives the
square sieve's reference. ``assert_divides_by_factors`` counts what a
generating-series route costs, so a test can bound it without timing
anything. ``OrderedRunningProduct`` holds the tests of the two ordered
routes' running products, written once for both.
"""

import itertools
import random
from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

import confpoly.duality as duality
import confpoly.ring as ring
from confpoly.ring import ONE, LaurentPoly, TruncSeries

# every k with n both small and large, so a shuffle walks n up and down
ORDERED_CALLS = [(k, n) for k in range(4) for n in (0, 1, 2, 5, 9, 14)]
# every (k, n) up to the CLI limits k <= 32, n <= 64
LIMIT_CALLS = [(k, n) for k in range(33) for n in range(65)]


@cache
def ordered_by_hand(k, n):
    """(1 + k*x)(1 + (k+1)*x) ... (1 + (n+k-1)*x), one factor on the
    product of the first n - 1."""
    if n == 0:
        return ONE
    return ordered_by_hand(k, n - 1) * LaurentPoly({0: 1, 1: k + n - 1})


@cache
def falling_by_hand(k, n):
    """(x^2 - k)(x^2 - k - 1) ... (x^2 - k - n + 1), one factor on the
    product of the first n - 1."""
    if n == 0:
        return ONE
    return falling_by_hand(k, n - 1) * LaurentPoly({2: 1, 0: -(k + n - 1)})


def series_product_by_hand(a, b):
    """One {exponent: coefficient} dict per power of y in a * b."""
    out = []
    for m in range(a.order + 1):
        terms = {}
        for i in range(m + 1):
            p, q = a[i], b[m - i]
            for e1 in p.support():
                for e2 in q.support():
                    c = p.coefficient(e1) * q.coefficient(e2)
                    terms[e1 + e2] = terms.get(e1 + e2, 0) + c
        out.append({e: c for e, c in terms.items() if c})
    return out


def field_product_by_hand(q, *factors):
    """The product of coefficient tuples (lowest degree first) over F_q,
    reduced mod q and with no zero leading coefficient."""
    product = [1]
    for factor in factors:
        out = [0] * (len(product) + len(factor) - 1)
        for i, a in enumerate(product):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        product = out
    product = [c % q for c in product]
    while product and product[-1] == 0:
        product.pop()
    return tuple(product)


def square_sieve_by_hand(q, n):
    """Byte i is 1 if the i-th monic degree-n polynomial over F_q (its low
    coefficients read as a base-q number, constant term most significant)
    is a product g*g*h with g monic of degree >= 1, else 0: one product per
    (g, h), repeats included."""
    sieve = bytearray(q**n)
    for d in range(1, n // 2 + 1):
        for g in itertools.product(range(q), repeat=d):
            square = field_product_by_hand(q, (*g, 1), (*g, 1))
            for h in itertools.product(range(q), repeat=n - 2 * d):
                index = 0
                for c in field_product_by_hand(q, square, (*h, 1))[:-1]:
                    index = index * q + c
                sieve[index] = 1
    return bytes(sieve)


def assert_divides_by_factors(monkeypatch, route, k=32, order=64):
    """``route(k, order)`` makes at most 3 250 term products (3 217 measured
    for the raw virtual route at the defaults, 2 400 for each of the other
    two; a dense denominator inverted whole costs about 88 000), calls no
    ``inverse``, and divides only by series whose coefficients have at most
    one term.  A term product multiplies two nonzero coefficients, in
    ``_dot`` (one per term of q in each row (e, c, q), c a nonzero term) or
    in the integer series kernel ``_int_dot``."""
    dot, int_dot, divide = ring._dot, ring._int_dot, TruncSeries.__truediv__
    products, divisors = [0], []

    def counting_dot(rows):
        rows = list(rows)
        assert all(c for _, c, _ in rows), rows
        products[0] += sum(len(q) for _, _, q in rows)
        return dot(rows)

    def counting_int_dot(xs, ys):
        products[0] += sum(1 for x, y in zip(xs, ys) if x and y)
        return int_dot(xs, ys)

    def recording_divide(self, other):
        divisors.append(other)
        return divide(self, other)

    def no_inverse(self):
        raise AssertionError(f"{route.__name__} inverts {self}")

    with monkeypatch.context() as m:
        m.setattr(ring, "_dot", counting_dot)
        m.setattr(ring, "_int_dot", counting_int_dot)
        m.setattr(TruncSeries, "__truediv__", recording_divide)
        m.setattr(TruncSeries, "inverse", no_inverse)
        route(k, order)
    assert products[0] <= 3_250, f"{route.__name__}: {products[0]} term products"
    assert divisors, f"{route.__name__} divides by no series"
    for s in divisors:
        assert all(len(c.support()) <= 1 for c in s.coeffs), f"divided by {s}"


# given on a function, not on the method that both subclasses inherit, which
# hypothesis refuses to run from two classes
@settings(max_examples=40, deadline=None)
@given(calls=st.permutations(ORDERED_CALLS))
def _any_call_order(route, by_hand, calls):
    for k, n in calls:
        assert route(k, n) == by_hand(k, n)


class OrderedRunningProduct:
    """The running-product store of one ordered route.  A subclass named
    ``Test...`` sets ``module``, ``route`` (its name there), ``by_hand``,
    ``family`` (its ``duality.FAMILIES`` key), ``deep`` (the degree, and an
    exponent with its coefficient, of the deep call (3, 1500)) and
    ``wrong`` (what a patch of the public name answers at (2, 3))."""

    def test_any_call_order(self):
        _any_call_order(getattr(self.module, self.route), self.by_hand)

    def test_every_call_up_to_the_limits(self, monkeypatch):
        monkeypatch.setattr(self.module, "_ORDERED", {})
        calls = LIMIT_CALLS.copy()
        random.Random(0).shuffle(calls)
        for k, n in calls:
            assert getattr(self.module, self.route)(k, n) == self.by_hand(k, n), (k, n)

    def test_deep_call_on_a_cold_store(self, monkeypatch):
        monkeypatch.setattr(self.module, "_ORDERED", {})
        p = getattr(self.module, self.route)(3, 1500)
        degree, exponent, value = self.deep
        assert p.degree() == degree
        assert p.coefficient(exponent) == value

    def test_patch_of_the_public_name_does_not_stick(self, monkeypatch):
        real = getattr(self.module, self.route)

        def patched(k, n):
            return self.wrong if (k, n) == (2, 3) else real(k, n)

        with monkeypatch.context() as m:
            m.setattr(self.module, self.route, patched)
            assert duality.FAMILIES[self.family](2, 6)[3] == self.wrong
            assert not all(duality.check_duality(2, 6, "ordered").matches)
        expected = tuple(self.by_hand(2, n) for n in range(7))
        assert duality.FAMILIES[self.family](2, 6) == expected
        assert all(duality.check_duality(2, 6, "ordered").matches)
