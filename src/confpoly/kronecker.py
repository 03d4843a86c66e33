"""Kronecker-substituted series: a second arithmetic, with no ``ring`` code,
for the one-puncture chains that ``verify series`` carries.

Substituting x = 2^b makes a polynomial one Python int, its value at 2^b
(Kronecker 1882; Harvey 2009).  A series in y is a list of ints, and a
product by x is a shift by b bits, so a one-puncture step costs one big-int
operation per coefficient.  Evaluation at 2^b is a ring map, so sums and
shifts are exact whatever size the coefficients reach.  A width b tells two
polynomials apart only while every |coefficient| is below 2^(b-1), the range
of the balanced base-2^b digits that read an int back: :func:`bit_width`
gives such a b, and :func:`encode` raises for a coefficient outside it.

This module imports nothing from ``ring``, ``poincare``, ``virtual``,
``combinatorics`` or ``duality``, the routes whose series it checks.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb


def bit_width(k: int, order: int) -> int:
    """The b for series carried up to k punctures at order ``order``.

    Both chains and the virtual series, with every sign made positive and
    x = 1, are (1 + y^2) / (1 - y)^(k+1), whose largest coefficient below
    y^(order+1) is M = C(order+k, k) + C(order-2+k, k).  M bounds every
    |coefficient| they have at any k' <= k, and 2M the raw step's
    differences too, so b exceeds the bit length of 2M and every int a chain
    holds reads back.  That is b = 88 at (32, 64) and 44 at (16, 32)."""
    top = comb(order + k, k) + (comb(order - 2 + k, k) if order >= 2 else 0)
    return (2 * top).bit_length() + 1


def encode(p, b: int) -> int:
    """p(2^b) for a LaurentPoly p, from its stored terms alone, with no ring
    arithmetic.  ValueError for a negative exponent, or for a coefficient
    with |c| >= 2^(b-1), which width b cannot tell apart."""
    terms = p._terms
    if terms and max(map(abs, terms.values())) >> (b - 1):
        raise ValueError(f"{p} has a coefficient too large for x = 2^{b}")
    return sum(c << b * e for e, c in terms.items())  # e < 0: a negative shift


def decode(v: int, b: int) -> dict[int, int]:
    """The terms {e: c} of the polynomial p with p(2^b) = v and each c in
    [-2^(b-1), 2^(b-1)): the balanced base-2^b digits of v.  Only a FAIL
    detail needs them."""
    terms, e, mask, half = {}, 0, (1 << b) - 1, 1 << (b - 1)
    while v:
        c = v & mask
        if c >= half:
            c -= 1 << b
        if c:
            terms[e] = c
        v, e = (v - c) >> b, e + 1
    return terms


def chain_base(order: int, b: int) -> list[int]:
    """The Napolitano chain at k = 0, (1 + x*y^2) / (1 - y) at x = 2^b:
    1, 1, then 1 + x."""
    return [1, 1, *[1 + (1 << b)] * (order - 1)][: order + 1]


def chain_step(row: list[int], b: int) -> list[int]:
    """The Napolitano chain from k to k + 1 punctures: multiply by
    1/(1 - x*y), c'_0 = c_0 and c'_n = c_n + x*c'_(n-1), x*c a shift."""
    return list(accumulate(row, lambda previous, c: c + (previous << b)))


def raw_base(order: int, b: int) -> list[int]:
    """The raw virtual form at k = 0, (1 - x^2*y^2) / (1 - x^2*y) at
    x = 2^b: 1, x^2, then x^(2n) - x^(2n-2)."""
    return [1, *((1 << 2 * b * n) - (1 << 2 * b * (n - 1) if n > 1 else 0)
                 for n in range(1, order + 1))]


def raw_step(row: list[int]) -> list[int]:
    """The raw virtual form from k to k + 1 punctures: multiply by (1 - y),
    d_n = c_n - c_(n-1), then by 1/(1 - y^2), c'_n = d_n + c'_(n-2)."""
    out: list[int] = []
    for n, c in enumerate(row):
        d = c - row[n - 1] if n else c
        out.append(d + out[n - 2] if n >= 2 else d)
    return out
