"""Integer sequences: pyramidal numbers and Stirling numbers.

The k-dimensional pyramidal numbers P(k, i) are the k-fold iterated
partial sums of the constant sequence 1, seeded by the row P(-1, i) =
(1, 0, 0, ...).  They satisfy two recursions,

    P(k+1, i) = sum_{j <= i} P(k, j)        (running sums of a row)
    P(k+1, i+1) = P(k, i+1) + P(k+1, i)     (Pascal-style neighbor sum)

and for k >= 0 the closed form P(k, i) = C(i + k, i).  All three routes
are exported separately so the test suite can compare them instead of
trusting any single one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache


class KOutOfRangeError(ValueError):
    """Pyramidal numbers are only defined for k >= -1."""


# A cold recursion from (k, i) nests k + i calls deep.  So a call whose
# k + i is a multiple of _STRIDE above _STRIDE first memoizes, in order, the
# lattice of points _STRIDE apart below it.  Every recursion then stops
# within one lattice cell or at the next such antidiagonal, about
# 3 * _STRIDE calls deep, far below the interpreter's recursion limit.
_STRIDE = 64


@cache
def pyramidal(k: int, i: int) -> int:
    """P(k, i) by the memoized neighbor-sum recursion.

    Defined for k >= -1 and any integer i; vanishes for i < 0.
    """
    if k < -1:
        raise KOutOfRangeError(f"pyramidal numbers need k >= -1, got {k}")
    if i < 0:
        return 0
    if k == -1:
        return 1 if i == 0 else 0
    if i == 0:
        return 1
    if k + i > _STRIDE and (k + i) % _STRIDE == 0:
        for kk in (*range(0, k, _STRIDE), k):
            for ii in (*range(0, i, _STRIDE), i):
                if (kk, ii) != (k, i):
                    pyramidal(kk, ii)
    return pyramidal(k - 1, i) + pyramidal(k, i - 1)


def pyramidal_closed_form(k: int, i: int) -> int:
    """P(k, i) as the binomial C(i + k, i); valid for k >= 0."""
    if k < 0:
        raise KOutOfRangeError(f"closed form needs k >= 0, got {k}")
    if i < 0:
        return 0
    return math.comb(i + k, i)


@dataclass(frozen=True)
class PyramidalTable:
    """The rectangle of values P(k, i) for -1 <= k <= max_k, 0 <= i <= max_i.

    Built by running sums row over row (the first recursion), so it is a
    third independent route to the same numbers.
    """

    max_k: int
    max_i: int
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, max_k: int, max_i: int) -> "PyramidalTable":
        if max_k < -1:
            raise KOutOfRangeError(f"table needs max_k >= -1, got {max_k}")
        if max_i < 0:
            raise ValueError(f"table needs max_i >= 0, got {max_i}")
        row = tuple(1 if i == 0 else 0 for i in range(max_i + 1))
        rows = [row]
        for _ in range(max_k + 1):
            running = 0
            nxt = []
            for v in row:
                running += v
                nxt.append(running)
            row = tuple(nxt)
            rows.append(row)
        return cls(max_k, max_i, tuple(rows))

    def value(self, k: int, i: int) -> int:
        if not -1 <= k <= self.max_k:
            raise KOutOfRangeError(f"k={k} outside table range [-1, {self.max_k}]")
        if not 0 <= i <= self.max_i:
            raise ValueError(f"i={i} outside table range [0, {self.max_i}]")
        return self.rows[k + 1][i]


@cache
def stirling_first_unsigned(n: int, r: int) -> int:
    """Unsigned Stirling number of the first kind c(n, r).

    Counts permutations of n elements with r cycles; computed by
    c(m+1, j) = c(m, j-1) + m*c(m, j) with c(0, 0) = 1, one row at a time
    and keeping only the columns j <= r.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if r < 0 or r > n:
        return 0
    row = [1] + [0] * r  # c(0, 0..r)
    for m in range(n):
        row = [row[0] * m] + [row[j - 1] + m * row[j] for j in range(1, r + 1)]
    return row[r]
