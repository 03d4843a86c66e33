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
"""

from __future__ import annotations

from dataclasses import dataclass

from .ring import ONE, LaurentPoly, TruncSeries

SPACES = ("unordered", "ordered")

_X2 = LaurentPoly({2: 1})


@dataclass(frozen=True)
class VirtualPoly:
    """A virtual Poincare polynomial together with its provenance (k, n, space).

    For the spaces handled here the polynomial is monic of degree 2n with
    support on even exponents only; those facts are verified by the
    checking suites rather than enforced at construction, so that a wrong
    value can be carried around, reported, and pinpointed.
    """

    poly: LaurentPoly
    k: int
    n: int
    space: str

    def __post_init__(self):
        if self.space not in SPACES:
            raise ValueError(f"space must be one of {SPACES}, got {self.space!r}")
        if self.k < 0 or self.n < 0:
            raise ValueError("k and n must be nonnegative")


# k -> (n, the product of the first n factors): the last falling-factorial
# product made for each k, so a sweep over n = 0, 1, 2, ... costs one factor
# per n.  Kept apart from poincare's product, which it is checked against.
_ORDERED: dict[int, tuple[int, LaurentPoly]] = {}


def _falling_product(k: int, n: int) -> LaurentPoly:
    """(x^2 - k) ... (x^2 - k - n + 1), extended from the product held for k
    when that one has at most n factors, else from the empty product."""
    have, product = _ORDERED.get(k, (0, ONE))
    if have > n:
        have, product = 0, ONE
    for j in range(have, n):
        product = product * LaurentPoly({2: 1, 0: -(k + j)})
    _ORDERED[k] = (n, product)
    return product


def virtual_ordered(k: int, n: int) -> VirtualPoly:
    """(x^2 - k)(x^2 - k - 1) ... (x^2 - k - n + 1), expanded."""
    if k < 0 or n < 0:
        raise ValueError("k and n must be nonnegative")
    return VirtualPoly(_falling_product(k, n), k, n, "ordered")


def virtual_unordered_series(k: int, order: int) -> TruncSeries:
    """(1 - y^2*x^2) / ((1 - y*x^2)(1 + y)^k) truncated at y^order."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    numerator = TruncSeries(order, [ONE, 0, -_X2])
    denominator = TruncSeries(order, [ONE, -_X2]) * TruncSeries(order, [ONE, 1]) ** k
    return numerator * denominator.inverse()


def getzler_series_raw(k: int, order: int) -> TruncSeries:
    """The unsimplified form (1 - y^2*x^2)(1 - y)^k / ((1 - y*x^2)(1 - y^2)^k).

    Must agree with :func:`virtual_unordered_series` coefficient by
    coefficient; the equality is exercised by the verification suites.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    numerator = TruncSeries(order, [ONE, 0, -_X2]) * TruncSeries(order, [ONE, -1]) ** k
    denominator = (
        TruncSeries(order, [ONE, -_X2]) * TruncSeries(order, [ONE, 0, -1]) ** k
    )
    return numerator * denominator.inverse()


def virtual_unordered(k: int, n: int) -> VirtualPoly:
    """y^n coefficient of the unordered virtual series."""
    if k < 0 or n < 0:
        raise ValueError("k and n must be nonnegative")
    series = virtual_unordered_series(k, n)
    return VirtualPoly(series[n], k, n, "unordered")
