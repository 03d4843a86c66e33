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

import itertools
import math
from functools import lru_cache

from .ring import _integer, _natural


class KOutOfRangeError(ValueError):
    """Pyramidal numbers are only defined for k >= -1."""


# A cold recursion from (k, i) nests k + i calls deep.  So a call whose
# k + i is a multiple of _STRIDE above _STRIDE first memoizes, in order, the
# lattice of points _STRIDE apart below it.  Every recursion then stops
# within one lattice cell or at the next such antidiagonal, about
# 3 * _STRIDE calls deep, far below the interpreter's recursion limit.
_STRIDE = 64


# typed, so that 2.0 or True never hits the entry of 2 or 1 past the check
@lru_cache(maxsize=None, typed=True)
def pyramidal(k: int, i: int) -> int:
    """P(k, i) by the memoized neighbor-sum recursion.

    Defined for k >= -1 and any integer i; vanishes for i < 0.
    """
    _integer("k", k)
    _integer("i", i)
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
                    _recurse(kk, ii)
    return _recurse(k - 1, i) + _recurse(k, i - 1)


# the recursion calls itself through this private name, so values memoized
# while a test patches ``pyramidal`` never come from the patched function
_recurse = pyramidal


def pyramidal_closed_form(k: int, i: int) -> int:
    """P(k, i) as the binomial C(i + k, i); valid for k >= 0."""
    _integer("k", k)
    _integer("i", i)
    if k < 0:
        raise KOutOfRangeError(f"closed form needs k >= 0, got {k}")
    if i < 0:
        return 0
    return math.comb(i + k, i)


def pyramidal_rows(max_k: int, max_i: int) -> tuple[tuple[int, ...], ...]:
    """The rows (P(k, 0), ..., P(k, max_i)) for k = -1..max_k.

    Built by running sums row over row (the first recursion), so it is a
    third independent route to the same numbers.
    """
    _integer("max_k", max_k)
    if max_k < -1:
        raise KOutOfRangeError(f"table needs max_k >= -1, got {max_k}")
    _natural("max_i", max_i)
    rows = [tuple(1 if i == 0 else 0 for i in range(max_i + 1))]
    for _ in range(max_k + 1):
        rows.append(tuple(itertools.accumulate(rows[-1])))
    return tuple(rows)


# typed, so that 2.0 or True never hits the entry of 2 or 1 past the check
@lru_cache(maxsize=None, typed=True)
def stirling_first_unsigned(n: int, r: int) -> int:
    """Unsigned Stirling number of the first kind c(n, r).

    Counts permutations of n elements with r cycles; computed by
    c(m+1, j) = c(m, j-1) + m*c(m, j) with c(0, 0) = 1, one row at a time
    and keeping only the columns j <= r.
    """
    _natural("n", n)
    _integer("r", r)
    if r < 0 or r > n:
        return 0
    row = [1] + [0] * r  # c(0, 0..r)
    for m in range(n):
        row = [row[0] * m] + [row[j - 1] + m * row[j] for j in range(1, r + 1)]
    return row[r]
