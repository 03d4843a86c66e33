"""Standard Poincare polynomials of configuration spaces of the punctured plane.

For the plane with k points removed, the Betti numbers of the unordered
configuration space of n points come in a pyramidal-number closed form,
as the y^n coefficient of the generating function

    (1 + x*y^2) / ((1 - y) * (1 - x*y)^k),

and by iterating the one-extra-puncture step (multiplication by
1/(1 - x*y)) from the k = 0 base series.  The ordered space has the
product formula (1 + k*x)(1 + (k+1)*x) ... (1 + (n+k-1)*x).  All routes
are exposed so they can be checked against each other.
"""

from __future__ import annotations

from . import combinatorics
from .ring import ONE, LaurentPoly, TruncSeries, X, _natural


def betti_unordered(k: int, n: int) -> LaurentPoly:
    """Poincare polynomial of the unordered n-point space of the k-punctured
    plane, sum(rank H^i * x^i), from its Betti numbers:

    rank H^i = P(k-1, i) + P(k-1, i-1) for i < n, and P(k-1, n) at i = n.
    """
    _natural("k", k)
    _natural("n", n)
    P = combinatorics.pyramidal
    ranks = {i: P(k - 1, i) + P(k - 1, i - 1) for i in range(n)}
    ranks[n] = P(k - 1, n)
    # ints from pyramidal, so only the zeros of k = 0, P(-1, i > 0), go
    return LaurentPoly._make({i: r for i, r in ranks.items() if r})


def betti_unordered_table(k: int, max_n: int) -> tuple[LaurentPoly, ...]:
    """:func:`betti_unordered` for n = 0..max_n, from the one row
    P(k-1, 0..max_n): rank H^i for i < n does not depend on n."""
    _natural("k", k)
    _natural("max_n", max_n)
    row = [combinatorics.pyramidal(k - 1, i) for i in range(max_n + 1)]
    stable: dict[int, int] = {}
    table = []
    for n, top in enumerate(row):
        table.append(LaurentPoly._make({i: r for i, r in {**stable, n: top}.items() if r}))
        stable[n] = top + row[n - 1] if n else top
    return tuple(table)


def unordered_series(k: int, order: int) -> TruncSeries:
    """(1 + x*y^2) / ((1 - y)(1 - x*y)^k) truncated at y^order.

    The y^n coefficient is the Poincare polynomial of the unordered
    n-point configuration space.  The numerator is multiplied by
    (1 - x*y)^(-k), the integer power (1 - y)^(-k) with its y^n coefficient
    times x^n (the ring map y -> x*y), and the product divided by 1 - y, so
    no dense series is ever inverted.
    """
    _natural("k", k)  # TruncSeries checks order
    numerator = TruncSeries(order, [ONE, 0, X])
    power = TruncSeries(order, [ONE, -1]) ** -k
    punctures = [LaurentPoly({n: c.coefficient(0)}) for n, c in enumerate(power.coeffs)]
    return numerator * TruncSeries(order, punctures) / TruncSeries(order, [ONE, -1])


def napolitano_step(s: TruncSeries) -> TruncSeries:
    """Pass from k punctures to k+1: multiply by 1/(1 - x*y), as the running
    sum c'_0 = c_0, c'_n = c_n + x*c'_(n-1), with no series divided."""
    out: list[LaurentPoly] = []
    for c in s.coeffs:
        out.append(c + X * out[-1] if out else c)
    return TruncSeries(s.order, out)


def stable_betti(k: int, j: int) -> int:
    """The common value of rank H^j over all n > j: P(k-1, j) + P(k-1, j-1)."""
    _natural("k", k)
    _natural("j", j)
    P = combinatorics.pyramidal
    return P(k - 1, j) + P(k - 1, j - 1)


# k -> (n, row): the coefficients of x^0..x^n of the last ordered product
# made for each k, as a tuple of ints, so a sweep over n = 0, 1, 2, ...
# costs one factor per n and each answer is one LaurentPoly
_ORDERED: dict[int, tuple[int, tuple[int, ...]]] = {}


def poincare_ordered(k: int, n: int) -> LaurentPoly:
    """Poincare polynomial of the ordered n-point space:
    (1 + k*x)(1 + (k+1)*x) ... (1 + (n+k-1)*x).

    Extended from the row held for k when that one has at most n factors,
    else from the empty product.  The factor 1 + m*x takes the row c to
    c_i + m*c_(i-1)."""
    _natural("k", k)
    _natural("n", n)
    have, row = _ORDERED.get(k, (0, (1,)))
    if have > n:
        have, row = 0, (1,)
    for m in range(k + have, k + n):
        row = tuple([c + m * b for c, b in zip((*row, 0), (0, *row))])
    _ORDERED[k] = (n, row)
    return LaurentPoly._make({e: c for e, c in enumerate(row) if c})
