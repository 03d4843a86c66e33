"""Brute-force point counts over small prime fields.

This is the independent oracle for the virtual polynomials: specialized
at x^2 = q they must count the points of the configuration varieties over
the q-element field.  The ordered count enumerates all n-tuples of field
elements and keeps those with pairwise-distinct entries avoiding the
punctures.  The unordered count enumerates monic degree-n polynomials and
keeps the squarefree ones coprime to the puncture divisor: the points of
the unordered variety over the field are Galois-stable configurations,
i.e. exactly such polynomials, not merely n-subsets of rational points.
Punctures sit at {0, 1, ..., k-1}; any k distinct rational points would
give the same counts, and fixing them keeps runs reproducible.

Each field size q and degree n is enumerated once, for every k: the
puncture sets {0..k-1} are nested, so it is enough to record per monic
polynomial its smallest root (and its gcd squarefree verdict) and per
n-tuple of distinct elements its smallest entry.  These per-(q, n) tables
are kept as bytes in a process-wide cache; ``clear_caches`` empties it.

The gcd squarefree test is cross-checked by a second, independent one: a
sieve that marks every product g^2*h (g monic of degree >= 1), which is
exactly the set of non-squarefree monic polynomials (the Z(y)/Z(y^2)
structure of the squarefree count).  The sieve is built by multiplication
alone and never calls the gcd test.

Everything here is exhaustive enumeration on purpose.  No counting
formula from the other modules is allowed in; the module's entire value
is its independence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache
from typing import Iterable, Iterator, Optional

from . import virtual

# q^n per enumeration, and summed over a pointcount run: about a minute at
# the ~50 us a degree-7 polynomial costs, nearly all of it the gcd test
# (Python 3.11, 2-core x86-64)
ENUMERATION_BUDGET = 1_200_000

FIELD_SIZE_LIMIT = 100


class TooLargeError(ValueError):
    """The requested enumeration exceeds the tuple budget."""


def check_budget(primes: Iterable[int], max_n: int) -> None:
    """Raise TooLargeError if enumerating the q^n monic polynomials (and as
    many n-tuples) of each prime q and each n <= max_n passes the budget."""
    size = sum(q**n for q in primes for n in range(max_n + 1))
    if size > ENUMERATION_BUDGET:
        raise TooLargeError(
            f"pointcount would enumerate {size} polynomials, over the budget "
            f"of {ENUMERATION_BUDGET}"
        )


def _check_size(q: int, n: int) -> None:
    if q**n > ENUMERATION_BUDGET:
        raise TooLargeError(f"{q}^{n} tuples exceed the budget of {ENUMERATION_BUDGET}")


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field with q elements, q a small prime (policy: q <= 100)."""

    q: int

    def __post_init__(self):
        if not _is_prime(self.q):
            raise ValueError(f"{self.q} is not prime")
        if self.q > FIELD_SIZE_LIMIT:
            raise ValueError(f"q={self.q} exceeds the size policy ({FIELD_SIZE_LIMIT})")

    def elements(self) -> range:
        return range(self.q)


class FieldPoly:
    """Dense polynomial over a prime field, coefficients lowest degree first.

    Normalized so the leading coefficient is nonzero; the zero polynomial
    has an empty coefficient tuple.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, fld: PrimeField, coeffs):
        q = fld.q
        cs = [c % q for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "field", fld)
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _reduced(cls, fld: PrimeField, cs: list[int]) -> "FieldPoly":
        """A polynomial from a list already reduced mod q, which it strips of
        leading zeros in place instead of reducing again."""
        while cs and cs[-1] == 0:
            cs.pop()
        p = object.__new__(cls)
        object.__setattr__(p, "field", fld)
        object.__setattr__(p, "coeffs", tuple(cs))
        return p

    def degree(self) -> int:
        """Degree, with the convention -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldPoly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __add__(self, other: "FieldPoly") -> "FieldPoly":
        q = self.field.q
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % q
        return FieldPoly._reduced(self.field, out)

    def __mul__(self, other: "FieldPoly") -> "FieldPoly":
        q = self.field.q
        if not self.coeffs or not other.coeffs:
            return FieldPoly._reduced(self.field, [])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = (out[i + j] + a * b) % q
        return FieldPoly._reduced(self.field, out)

    def _divide(self, other: "FieldPoly", quot: Optional[list[int]]) -> list[int]:
        """The reduced remainder of long division by ``other``; the quotient's
        coefficients go into ``quot`` when it is a list of zeros."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = self.field.q
        rem = list(self.coeffs)
        dv = other.degree()
        if len(rem) <= dv:
            return rem
        inv_lead = pow(other.coeffs[-1], -1, q)
        for shift in range(len(rem) - 1 - dv, -1, -1):
            factor = (rem[shift + dv] * inv_lead) % q
            if factor:
                if quot is not None:
                    quot[shift] = factor
                for j, b in enumerate(other.coeffs):
                    rem[shift + j] = (rem[shift + j] - factor * b) % q
        del rem[dv:]
        return rem

    def __divmod__(self, other: "FieldPoly") -> tuple["FieldPoly", "FieldPoly"]:
        quot = [0] * max(0, len(self.coeffs) - len(other.coeffs) + 1)
        rem = self._divide(other, quot)
        return FieldPoly._reduced(self.field, quot), FieldPoly._reduced(self.field, rem)

    def __mod__(self, other: "FieldPoly") -> "FieldPoly":
        return FieldPoly._reduced(self.field, self._divide(other, None))

    def derivative(self) -> "FieldPoly":
        q = self.field.q
        return FieldPoly._reduced(
            self.field, [(i * c) % q for i, c in enumerate(self.coeffs)][1:]
        )

    def evaluate(self, a: int) -> int:
        q = self.field.q
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * a + c) % q
        return acc

    def monic(self) -> "FieldPoly":
        if self.is_zero():
            return self
        inv = pow(self.coeffs[-1], -1, self.field.q)
        return FieldPoly._reduced(
            self.field, [(c * inv) % self.field.q for c in self.coeffs]
        )

    def gcd(self, other: "FieldPoly") -> "FieldPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def __repr__(self) -> str:
        return f"FieldPoly(q={self.field.q}, coeffs={self.coeffs})"


def monic_polys(fld: PrimeField, degree: int) -> Iterator[FieldPoly]:
    """All monic polynomials of the given degree, lexicographic in the
    low coefficients."""
    if degree < 0:
        return
    for lower in itertools.product(fld.elements(), repeat=degree):
        yield FieldPoly(fld, lower + (1,))


def is_squarefree(f: FieldPoly) -> bool:
    """Squarefree test: gcd with the formal derivative is a nonzero constant."""
    if f.is_zero():
        return False
    return f.gcd(f.derivative()).degree() == 0


def _index(f: FieldPoly) -> int:
    """Position of a monic polynomial in the :func:`monic_polys` order: its
    low coefficients read as a base-q number, constant term most
    significant."""
    q, index = f.field.q, 0
    for c in f.coeffs[:-1]:
        index = index * q + c
    return index


def _monic_at(fld: PrimeField, n: int, index: int) -> FieldPoly:
    """The monic degree-n polynomial at ``index`` in the :func:`monic_polys`
    order; inverse of :func:`_index`."""
    low = []
    for _ in range(n):
        index, c = divmod(index, fld.q)
        low.append(c)
    return FieldPoly(fld, low[::-1] + [1])


def _square_multiples(fld: PrimeField, n: int) -> Iterator[FieldPoly]:
    """Every product g*g*h with g monic of degree d in 1..n//2 and h monic
    of degree n - 2d, repeats included.  These are exactly the monic
    degree-n polynomials that are not squarefree."""
    for d in range(1, n // 2 + 1):
        for g in monic_polys(fld, d):
            square = g * g
            for h in monic_polys(fld, n - 2 * d):
                yield square * h


@cache
def _square_sieve(q: int, n: int) -> bytes:
    """Byte i is 1 if the i-th monic degree-n polynomial is a multiple of a
    square, 0 if it is squarefree.  Built by multiplication alone, so it
    shares no code with the gcd test it cross-checks."""
    sieve = bytearray(q**n)
    for f in _square_multiples(PrimeField(q), n):
        sieve[_index(f)] = 1
    return bytes(sieve)


_SQUAREFREE = 0x80


@cache
def _polynomial_table(q: int, n: int) -> bytes:
    """Byte i describes the i-th monic degree-n polynomial f: its smallest
    root in 0..q-1 (q if it has none), plus ``_SQUAREFREE`` if
    :func:`is_squarefree` accepts f.  The punctures {0..k-1} are nested,
    so f avoids them exactly when its byte, less the flag, is at least k."""
    fld = PrimeField(q)
    table = bytearray()
    for f in monic_polys(fld, n):
        root = next((a for a in fld.elements() if f.evaluate(a) == 0), q)
        table.append(root | _SQUAREFREE if is_squarefree(f) else root)
    return bytes(table)


@cache
def _tuple_minima(q: int, n: int) -> tuple[int, ...]:
    """Entry m counts the n-tuples of pairwise-distinct field elements whose
    smallest entry is m; entry q counts the empty tuple."""
    counts = [0] * (q + 1)
    for tup in itertools.product(range(q), repeat=n):
        if len(set(tup)) == n:
            counts[min(tup, default=q)] += 1
    return tuple(counts)


def clear_caches() -> None:
    """Forget every per-(q, n) table, so the next count enumerates afresh
    (needed after patching a function the tables are built from)."""
    for table in (_square_sieve, _polynomial_table, _tuple_minima):
        table.cache_clear()


def squarefree_disagreements(q: int, n: int, limit: int = 1) -> list[FieldPoly]:
    """Monic degree-n polynomials on which the two squarefree tests differ.

    Compares the gcd verdicts of the (q, n) table with the square sieve
    over the full enumeration and returns up to ``limit`` offenders in
    enumeration order; an empty list means the tests agree everywhere.
    """
    fld = PrimeField(q)
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    _check_size(q, n)
    table, sieve = _polynomial_table(q, n), _square_sieve(q, n)
    bad = []
    for i, (entry, squareful) in enumerate(zip(table, sieve)):
        if bool(entry & _SQUAREFREE) == bool(squareful):
            bad.append(_monic_at(fld, n, i))
            if len(bad) >= limit:
                break
    return bad


def _check_enumeration_args(q: int, k: int, n: int) -> None:
    PrimeField(q)
    if not 0 <= k < q:
        raise ValueError(f"need 0 <= k < q, got k={k}, q={q}")
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    _check_size(q, n)


def count_ordered_configs(q: int, k: int, n: int) -> int:
    """Number of n-tuples of pairwise-distinct field elements avoiding the
    punctures {0, ..., k-1}, by exhaustive enumeration of all q^n tuples."""
    _check_enumeration_args(q, k, n)
    return sum(_tuple_minima(q, n)[k:])


def count_squarefree_coprime(q: int, k: int, n: int) -> int:
    """Number of monic degree-n polynomials over the field that are
    squarefree and nonvanishing on the punctures {0, ..., k-1}, by
    exhaustive enumeration of all q^n monic polynomials."""
    _check_enumeration_args(q, k, n)
    table = _polynomial_table(q, n)
    return sum(table.count(_SQUAREFREE | root) for root in range(k, q + 1))


@dataclass(frozen=True)
class OracleReport:
    """One enumeration-vs-formula comparison."""

    q: int
    k: int
    n: int
    space: str
    oracle_count: int
    formula_value: int
    agree: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "agree", self.oracle_count == self.formula_value)


def oracle_check(q: int, k: int, max_n: int) -> list[OracleReport]:
    """Enumerate both spaces for every n <= max_n and compare with the
    virtual polynomials specialized at x^2 = q."""
    _check_enumeration_args(q, k, max_n)
    unordered = virtual.virtual_unordered_series(k, max_n)
    reports = []
    for n in range(max_n + 1):
        reports.append(
            OracleReport(
                q, k, n, "ordered",
                count_ordered_configs(q, k, n),
                virtual.virtual_ordered(k, n).poly.eval_x_squared(q),
            )
        )
        reports.append(
            OracleReport(
                q, k, n, "unordered",
                count_squarefree_coprime(q, k, n),
                unordered[n].eval_x_squared(q),
            )
        )
    return reports
