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

from dataclasses import dataclass

from . import combinatorics
from .ring import ONE, LaurentPoly, TruncSeries, X


@dataclass(frozen=True)
class BettiRow:
    """Ranks of the cohomology of the unordered n-point space, degree 0..n."""

    k: int
    n: int
    ranks: tuple[int, ...]

    def __post_init__(self):
        if self.k < 0 or self.n < 0:
            raise ValueError("k and n must be nonnegative")
        if len(self.ranks) != self.n + 1:
            raise ValueError(
                f"expected {self.n + 1} ranks for n={self.n}, got {len(self.ranks)}"
            )

    def poly(self) -> LaurentPoly:
        """The Poincare polynomial sum(ranks[i] * x^i)."""
        return LaurentPoly({i: r for i, r in enumerate(self.ranks)})


def betti_unordered(k: int, n: int) -> BettiRow:
    """Betti numbers of the unordered n-point space of the k-punctured plane.

    rank H^i = P(k-1, i) + P(k-1, i-1) for i < n, and P(k-1, n) at i = n.
    """
    if k < 0 or n < 0:
        raise ValueError("k and n must be nonnegative")
    P = combinatorics.pyramidal
    ranks = [P(k - 1, i) + P(k - 1, i - 1) for i in range(n)]
    ranks.append(P(k - 1, n))
    return BettiRow(k, n, tuple(ranks))


def unordered_series(k: int, order: int) -> TruncSeries:
    """(1 + x*y^2) / ((1 - y)(1 - x*y)^k) truncated at y^order.

    The y^n coefficient is the Poincare polynomial of the unordered
    n-point configuration space.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    numerator = TruncSeries(order, [ONE, 0, X])
    denominator = TruncSeries(order, [ONE, -1]) * TruncSeries(order, [ONE, -X]) ** k
    return numerator * denominator.inverse()


def napolitano_step(q: TruncSeries) -> TruncSeries:
    """Pass from k punctures to k+1: multiply by 1/(1 - x*y), as the running
    sum c'_0 = c_0, c'_n = c_n + x*c'_(n-1), with no series inverted."""
    out: list[LaurentPoly] = []
    for c in q.coeffs:
        out.append(c + X * out[-1] if out else c)
    return TruncSeries(q.order, out)


def stable_betti(k: int, j: int) -> int:
    """The common value of rank H^j over all n > j: P(k-1, j) + P(k-1, j-1)."""
    if k < 0 or j < 0:
        raise ValueError("k and j must be nonnegative")
    P = combinatorics.pyramidal
    return P(k - 1, j) + P(k - 1, j - 1)


# k -> (n, the product of the first n factors): the last ordered product
# made for each k, so a sweep over n = 0, 1, 2, ... costs one factor per n
_ORDERED: dict[int, tuple[int, LaurentPoly]] = {}


def _ordered_product(k: int, n: int) -> LaurentPoly:
    """(1 + k*x) ... (1 + (n+k-1)*x), extended from the product held for k
    when that one has at most n factors, else from the empty product."""
    have, product = _ORDERED.get(k, (0, ONE))
    if have > n:
        have, product = 0, ONE
    for j in range(have, n):
        product = product * LaurentPoly({0: 1, 1: k + j})
    _ORDERED[k] = (n, product)
    return product


def poincare_ordered(k: int, n: int) -> LaurentPoly:
    """Poincare polynomial of the ordered n-point space:
    (1 + k*x)(1 + (k+1)*x) ... (1 + (n+k-1)*x)."""
    if k < 0 or n < 0:
        raise ValueError("k and n must be nonnegative")
    return _ordered_product(k, n)
