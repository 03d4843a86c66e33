"""Virtual (Serre) Poincare polynomials of the same configuration spaces.

The punctured plane itself has virtual polynomial x^2 - k.  For ordered
n-point spaces this extends to the falling-factorial product

    (x^2 - k)(x^2 - k - 1) ... (x^2 - k - n + 1),

and the unordered spaces have the generating series

    (1 - y^2*x^2) / ((1 - y*x^2) * (1 + y)^k),

which is a simplification of the equivalent raw form

    (1 - y^2*x^2) * (1 - y)^k / ((1 - y*x^2) * (1 - y^2)^k).

Both forms are expanded independently; their agreement is a test, not a
normalization step.  Specialized at x^2 = q these polynomials count the
points of the corresponding varieties over a q-element field, which is
what the ffield module verifies by brute force.

Every per-(k, n) route returns a plain LaurentPoly, monic of degree 2n in
even powers of x for these spaces; the checking suites verify that rather
than the routes enforcing it, so a wrong value can be reported and pinpointed.
"""

from __future__ import annotations

from .ring import ONE, LaurentPoly, TruncSeries, _natural

SPACES = ("unordered", "ordered")

_X2 = LaurentPoly({2: 1})


# k -> (n, row): the coefficients of x^0, x^2, ..., x^2n of the last
# falling-factorial product made for each k, as a tuple of ints, so a sweep
# over n = 0, 1, 2, ... costs one factor per n and each answer is one
# LaurentPoly.  Kept apart from poincare's row, which it is checked against.
_ORDERED: dict[int, tuple[int, tuple[int, ...]]] = {}


def virtual_ordered(k: int, n: int) -> LaurentPoly:
    """(x^2 - k)(x^2 - k - 1) ... (x^2 - k - n + 1), expanded.

    Extended from the row held for k when that one has at most n factors,
    else from the empty product.  The factor x^2 - m takes the row c of
    even coefficients to c_(i-1) - m*c_i."""
    _natural("k", k)
    _natural("n", n)
    have, row = _ORDERED.get(k, (0, (1,)))
    if have > n:
        have, row = 0, (1,)
    for m in range(k + have, k + n):
        row = tuple([b - m * c for c, b in zip((*row, 0), (0, *row))])
    _ORDERED[k] = (n, row)
    return LaurentPoly._make({2 * i: c for i, c in enumerate(row) if c})


def virtual_unordered_series(k: int, order: int) -> TruncSeries:
    """(1 - y^2*x^2) / ((1 - y*x^2)(1 + y)^k) truncated at y^order.

    The numerator is multiplied by the integer power (1 + y)^(-k), and the
    product divided by 1 - y*x^2, whose coefficients have one term each.
    """
    _natural("k", k)  # TruncSeries checks order
    numerator = TruncSeries(order, [ONE, 0, -_X2])
    return numerator * TruncSeries(order, [ONE, 1]) ** -k / TruncSeries(order, [ONE, -_X2])


def getzler_series_raw(k: int, order: int) -> TruncSeries:
    """The unsimplified form (1 - y^2*x^2)(1 - y)^k / ((1 - y*x^2)(1 - y^2)^k).

    The numerator is multiplied by the integer powers (1 - y)^k and
    (1 - y^2)^(-k), and the product divided by 1 - y*x^2.  Must agree with
    :func:`virtual_unordered_series` coefficient by coefficient; the
    equality is exercised by the verification suites.
    """
    _natural("k", k)  # TruncSeries checks order
    numerator = TruncSeries(order, [ONE, 0, -_X2])
    punctures = TruncSeries(order, [ONE, -1]) ** k * TruncSeries(order, [ONE, 0, -1]) ** -k
    return numerator * punctures / TruncSeries(order, [ONE, -_X2])


def virtual_unordered(k: int, n: int) -> LaurentPoly:
    """y^n coefficient of the unordered virtual series."""
    _natural("n", n)  # the series checks k
    return virtual_unordered_series(k, n)[n]
