"""Brute-force point counts over small prime fields.

This is the independent oracle for the virtual polynomials: specialized
at x^2 = q they must count the points of the configuration varieties over
the q-element field.  The ordered count enumerates the n-tuples of
pairwise-distinct field elements, each once as an n-permutation of the
field, and keeps those avoiding the punctures.  The unordered count
enumerates monic degree-n polynomials and keeps the squarefree ones
coprime to the puncture divisor: the points of the unordered variety over
the field are Galois-stable configurations, i.e. exactly such
polynomials, not merely n-subsets of rational points.
Punctures sit at {0, 1, ..., k-1}; any k distinct rational points would
give the same counts, and fixing them keeps runs reproducible.

Each field size q and degree n is enumerated once, for every k: the
puncture sets {0..k-1} are nested, so it is enough to record per monic
polynomial its smallest root (and its gcd squarefree verdict) and per
n-tuple of distinct elements its smallest entry.  These per-(q, n) tables
are kept as bytes in a process-wide cache; ``clear_caches`` empties it.
The smallest roots of all q^n polynomials come at once, from their values
at each element, which one Horner step per degree builds as bytes.  The
gcd verdicts come q at a time: the polynomials c + h that differ only in
the constant term c share the derivative h' and, when h' is not constant,
the first remainder h mod h' of Euclid's algorithm, so each group costs
one derivative and one division, and each polynomial only the steps after
the first.  Squarefreeness is kept by the affine maps x -> u*x + a
(u != 0), with f -> u^(-n) * f(u*x + a) monic again, so one group's
verdicts decide its whole orbit of up to q(q - 1) groups: a Taylor shift
``_shifted`` finds each translate, whose verdicts are the group's rotated
by its constant term, and each scaling x -> u*x of a translate permutes
them once more.  All of it runs on coefficient lists, with one
long-division kernel ``_divide`` that ``is_squarefree`` uses too.

The gcd squarefree test is cross-checked by a second, independent one: a
sieve that marks every product g^2*h (g monic of degree >= 1), which is
exactly the set of non-squarefree monic polynomials (the Z(y)/Z(y^2)
structure of the squarefree count).  For each degree of g the sieve holds
the larger of the two sets, the squares g^2 or the cofactors h, as one
byte column per coefficient, and multiplies each member of the other set
into all of it at once: ``bytes.translate`` by mod-q multiply tables
scales the columns, one int add per term sums them lane by lane, and a
Horner pass turns the lanes into indices.  It only multiplies, and shares
no helper with the gcd test.  ``FieldPoly`` is left as the reference
test's polynomial type and the name of an offender when the two tests
disagree.

Everything here is exhaustive enumeration on purpose.  No counting
formula from the other modules is allowed in; the module's entire value
is its independence.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from functools import cache
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from . import TooLargeError, check_field_size, virtual
from .ring import _natural

# q^n per enumeration, and summed over a pointcount run: about 0.7 s of
# work (`verify pointcount --max-n 7`, 1 061 991 polynomials).  A degree-7
# polynomial over F_7 costs ~0.6 us in its table (one group run per orbit
# under x -> u*x + a, the smallest roots and the orbit walk) and ~0.04 us
# more in the square sieve; the tuple count visits only the q!/(q-n)!
# injective tuples, 5 040 for (7, 7) (Python 3.11, 2-core x86-64)
ENUMERATION_BUDGET = 1_200_000

def _tuples(q: int, n: int) -> int:
    """q^n, or one past the budget where n alone puts q^n over it: q >= 2,
    and 2^n is over from n = ENUMERATION_BUDGET.bit_length() (21) on.  So a
    huge n is refused without building q^n."""
    return q**n if n < ENUMERATION_BUDGET.bit_length() else ENUMERATION_BUDGET + 1


def check_budget(primes: Iterable[int], max_n: int) -> None:
    """Raise TooLargeError if enumerating the q^n monic polynomials (and at
    most as many n-tuples) of each prime q and each n <= max_n passes the
    budget.  The sum stops at the first partial sum past the budget."""
    _natural("max_n", max_n)
    sizes = itertools.accumulate(_tuples(q, n) for q in primes for n in range(max_n + 1))
    size = next((size for size in sizes if size > ENUMERATION_BUDGET), None)
    if size is not None:
        raise TooLargeError(
            f"pointcount would enumerate at least {size} polynomials, over the "
            f"budget of {ENUMERATION_BUDGET}"
        )


class _PrimeFieldFields(NamedTuple):
    q: int


class PrimeField(_PrimeFieldFields):
    """The field with q elements, q a small prime (the package's
    ``check_field_size`` policy: q <= 100)."""

    __slots__ = ()

    def __new__(cls, q: int):
        return cls._make((q,))

    @classmethod
    def _make(cls, fields: Iterable) -> "PrimeField":
        """The checked constructor: ``PrimeField(q)`` and ``_replace`` both
        come through it."""
        (q,) = fields
        check_field_size(q)
        return super()._make((q,))


# The polynomial kernels work on coefficient lists mod q, lowest degree
# first, with no zero leading coefficient; FieldPoly wraps them.


@cache
def _inverses(q: int) -> tuple[int, ...]:
    """Entry c is the inverse of c mod q (entry 0, which has none, is 0)."""
    return (0,) + tuple(pow(c, -1, q) for c in range(1, q))


def _stripped(cs: list[int]) -> list[int]:
    """``cs`` with its zero leading coefficients popped, in place."""
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _divide(a, b, q: int, quot: Optional[list[int]] = None) -> list[int]:
    """The remainder of ``a`` by ``b`` in long division; the quotient's
    coefficients go into ``quot`` when it is a list of zeros.  Coefficients
    are reduced once per remainder, not once per term."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    dv = len(b) - 1
    rem = list(a)
    inv_lead = _inverses(q)[b[-1]]
    low = b[:-1]
    for shift in range(len(rem) - 1 - dv, -1, -1):
        factor = (rem[shift + dv] * inv_lead) % q
        if factor:
            if quot is not None:
                quot[shift] = factor
            j = shift  # a counter, not enumerate: this loop is the oracle's hot spot
            for c in low:
                rem[j] -= factor * c
                j += 1
    return _stripped([c % q for c in rem[:dv]])


def _derivative(a, q: int) -> list[int]:
    """The formal derivative."""
    return _stripped([(i * c) % q for i, c in enumerate(a)][1:])


def _shifted(a, t: int, q: int) -> list[int]:
    """The Taylor shift a(x + t), by repeated synthetic division; the
    leading coefficient is left as it is, so the degree is kept."""
    out = list(a)
    top = len(out) - 1
    for i in range(top):
        for j in range(top - 1, i - 1, -1):
            out[j] += t * out[j + 1]
    return [c % q for c in out]


def _gcd(a, b, q: int) -> list[int]:
    """A greatest common divisor by Euclid's algorithm, not made monic; it
    stops at a nonzero constant remainder, which divides everything."""
    while len(b) > 1:
        a, b = b, _divide(a, b, q)
    return list(b or a)


class FieldPoly:
    """Dense polynomial over a prime field, coefficients lowest degree first.

    Normalized so the leading coefficient is nonzero; the zero polynomial
    has an empty coefficient tuple.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, fld: PrimeField, coeffs):
        cs = _stripped([c % fld.q for c in coeffs])
        object.__setattr__(self, "field", fld)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldPoly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __divmod__(self, other: "FieldPoly") -> tuple["FieldPoly", "FieldPoly"]:
        quot = [0] * max(0, len(self.coeffs) - len(other.coeffs) + 1)
        rem = _divide(self.coeffs, other.coeffs, self.field.q, quot)
        return FieldPoly(self.field, quot), FieldPoly(self.field, rem)

    def evaluate(self, a: int) -> int:
        q = self.field.q
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * a + c) % q
        return acc

    def gcd(self, other: "FieldPoly") -> "FieldPoly":
        """The monic greatest common divisor; zero when both are zero."""
        q = self.field.q
        g = _gcd(self.coeffs, other.coeffs, q)
        return FieldPoly(self.field, [c * _inverses(q)[g[-1]] for c in g])

    def __repr__(self) -> str:
        return f"FieldPoly(q={self.field.q}, coeffs={self.coeffs})"


def monic_polys(fld: PrimeField, degree: int) -> Iterator[FieldPoly]:
    """All monic polynomials of the given degree, lexicographic in the
    low coefficients."""
    _natural("degree", degree)
    lows = itertools.product(range(fld.q), repeat=degree)
    return (FieldPoly(fld, [*low, 1]) for low in lows)


def is_squarefree(f: FieldPoly) -> bool:
    """Squarefree test: gcd with the formal derivative is a nonzero constant."""
    if not f.coeffs:
        return False
    q = f.field.q
    return len(_gcd(f.coeffs, _derivative(f.coeffs, q), q)) == 1


def _monic_at(fld: PrimeField, n: int, index: int) -> FieldPoly:
    """The monic degree-n polynomial at ``index`` in the :func:`monic_polys`
    order, where a polynomial's low coefficients read as a base-q number,
    constant term most significant."""
    low = []
    for _ in range(n):
        index, c = divmod(index, fld.q)
        low.append(c)
    return FieldPoly(fld, low[::-1] + [1])


# bytes per member in a product column: an index below q^n <= 2^32 fits
_LANE = 4


def _times_every(columns: list[bytes], q: int) -> Callable[[list[int]], memoryview]:
    """A function that multiplies one monic ``factor`` (reduced mod q) into
    every member h of a set of monic polynomials of one degree, and returns
    the index of each product factor * h in the :func:`monic_polys` order,
    in member order or its reverse.  ``columns[i]`` holds coefficient i of
    every member, one byte a member, the last column (the leading 1s)
    included.

    Each column is scaled once by each c in F_q with one ``bytes.translate``
    by a mod-q multiply table, and spread to one ``_LANE``-byte lane per
    member of one int.  A product coefficient is then a sum of scaled
    columns, one int add each.  At most min(len(columns), len(factor))
    residues meet in a lane, so its low byte holds the sum, and one
    ``translate`` per coefficient reduces it mod q.  A Horner pass over the
    coefficients, constant term first, makes each lane an index."""
    top, width = len(columns) - 1, _LANE * len(columns[0])
    residues = bytes(v % q for v in range(256))
    tables = [bytes((c * v) % q for v in range(q)).ljust(256, b"\0") for c in range(q)]
    scaled = []
    for column in columns:
        row = []
        for table in tables:
            lanes = bytearray(width)
            lanes[::_LANE] = column.translate(table)
            row.append(int.from_bytes(lanes, "little"))
        scaled.append(row)

    def indices(factor: list[int]) -> memoryview:
        if min(len(columns), len(factor)) * (q - 1) > 255:
            raise ValueError(f"a sum of residues mod {q} can pass a byte")
        index = 0
        for m in range(top + len(factor) - 1):
            total = sum(
                scaled[i][factor[m - i]]
                for i in range(max(0, m - len(factor) + 1), min(top, m) + 1)
            )
            lanes = bytearray(width)
            lanes[::_LANE] = total.to_bytes(width, "little")[::_LANE].translate(residues)
            index = index * q + int.from_bytes(lanes, "little")
        # the lanes in the machine's byte order; on a big-endian one the
        # members come reversed, which a set of marks does not see
        return memoryview(index.to_bytes(width, sys.byteorder)).cast("I")

    return indices


def _square_sieve(q: int, n: int) -> bytes:
    """Byte i is 1 if the i-th monic degree-n polynomial is a multiple of a
    square, 0 if it is squarefree: it marks every product g*g*h with g
    monic of degree d in 1..n//2 and h monic of degree n - 2d.

    For each d the larger of the two sets, the q^d squares g*g (made by a
    product loop of their own) or the q^(n-2d) cofactors h (the cofactors
    on a tie), is held as columns, and :func:`_times_every` multiplies
    each member of the smaller set into all of it at once.  A cofactor
    column is a repeat pattern, as the levels of :func:`_smallest_roots`
    are.  Only multiplication, so it shares no code with the gcd test it
    cross-checks."""
    sieve = bytearray(q**n)

    def times(a, b) -> list[int]:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return [c % q for c in out]

    for d in range(1, n // 2 + 1):
        m = n - 2 * d
        lows = itertools.product(range(q), repeat=d)
        squares = [times((*low, 1), (*low, 1)) for low in lows]
        if d > m:
            columns = [bytes(column) for column in zip(*squares)]
            factors = [[*high, 1] for high in itertools.product(range(q), repeat=m)]
        else:
            # coefficient j of the i-th cofactor is digit j of i in base q,
            # most significant first, as in the monic_polys order
            columns = [
                b"".join(bytes([c]) * q ** (m - 1 - j) for c in range(q)) * q**j
                for j in range(m)
            ] + [b"\1" * q**m]
            factors = squares
        products = _times_every(columns, q)
        for factor in factors:
            for i in products(factor):
                sieve[i] = 1
    return bytes(sieve)


_SQUAREFREE = 0x80


# byte 0 -> 1, any other byte -> 0: marks the polynomials with value 0
_IS_ZERO = bytes([1]) + bytes(255)


def _smallest_roots(q: int, n: int) -> bytes:
    """Byte i is the smallest root in 0..q-1 of the i-th monic degree-n
    polynomial, q if it has none.

    The i-th polynomial is c + x*g, with g the (i mod q^(n-1))-th monic
    polynomial of degree n-1, so its values at a follow from those of
    degree n-1 by one Horner step: for each c, one ``bytes.translate`` of
    the previous level by v -> (c + a*v) mod q.  For each a, from q - 1
    down to 0, one more ``translate`` marks the zero values, and the roots,
    held as one big int of q^n bytes, take byte a under the mark: the last
    write, by the smallest root, stands."""
    size = q**n
    roots = int.from_bytes(bytes([q]) * size, "big")
    for a in reversed(range(q)):
        steps = [
            bytes((c + a * v) % q for v in range(q)).ljust(256, b"\0") for c in range(q)
        ]
        values = b"\1"  # the one monic polynomial of degree 0 is 1 at a
        for _ in range(n):
            values = b"".join(values.translate(step) for step in steps)
        zeros = int.from_bytes(values.translate(_IS_ZERO), "big")
        roots = roots & ~(zeros * 0xFF) | zeros * a
    return roots.to_bytes(size, "big")


def _squarefree_group(h: list[int], q: int) -> bytes:
    """Byte c is ``_SQUAREFREE`` if c + h passes the gcd test of
    :func:`is_squarefree`, 0 if not, for c = 0..q-1 and h a monic
    polynomial of degree >= 1 with zero constant term.

    The q polynomials f = c + h share f' = h'.  When f' has degree >= 1
    they share h mod f' too, and f mod f' = (h mod f') + c, so Euclid on f
    and f' takes one derivative and one division for the whole group; each
    verdict runs the remaining steps from f' and that shifted remainder.
    With f' = 0 no f is squarefree, with f' a nonzero constant every f is,
    and a shifted remainder of 0 means f' divides f."""
    d = _derivative(h, q)
    if len(d) < 2:
        return bytes([_SQUAREFREE if d else 0]) * q
    r0 = _divide(h, d, q) or [0]
    verdicts = bytearray(q)
    for c in range(q):
        r = r0.copy()
        r[0] = (r[0] + c) % q
        # _gcd(d, []) is d itself, of degree >= 1
        if len(_gcd(d, _stripped(r), q)) == 1:
            verdicts[c] = _SQUAREFREE
    return bytes(verdicts)


@cache
def _polynomial_table(q: int, n: int) -> bytes:
    """Byte i describes the i-th monic degree-n polynomial f: its smallest
    root in 0..q-1 (q if it has none), plus ``_SQUAREFREE`` if
    :func:`is_squarefree` accepts f.  The punctures {0..k-1} are nested,
    so f avoids them exactly when its byte, less the flag, is at least k.

    The verdicts come one group at a time: the q polynomials c + h that
    differ only in the constant term sit q^(n-1) apart, at j, j + q^(n-1),
    ..., for h the j-th monic polynomial of degree n with zero constant
    term.  Squarefreeness is kept by every x -> u*x + a (u != 0), with the
    image f -> u^(-n) * f(u*x + a) monic again, so one
    :func:`_squarefree_group` run decides a whole orbit of groups:
    - a translate g = h(x + a), with s = g(0), sends c + h to
      c + g = (c + s) + (g - s), so the group of g - s has verdict c where
      h's group has c - s;
    - a scaling x -> u*x multiplies coefficient m of g - s by u^(m-n), and
      the image's verdict c is that of g - s at c * u^n.
    Groups are taken in index order, and each is written once, by the first
    image that reaches it; a group some map sends to itself keeps the
    verdicts it got first."""
    if n == 0:
        flags = bytearray([_SQUAREFREE])  # the constant 1
    else:
        stride = q ** (n - 1)
        flags, done = bytearray(q**n), bytearray(stride)
        # per scaling x -> u*x (u = 1 first): per coefficient m = 1..n-1 of a
        # group and per value, what it adds to the index of the image; and
        # per image constant c, the constant c * u^n whose verdict it reads
        scalings = [
            (
                [
                    [(c * pow(u, m - n, q)) % q * q ** (n - 1 - m) for c in range(q)]
                    for m in range(1, n)
                ],
                [(c * pow(u, n, q)) % q for c in range(q)],
            )
            for u in range(1, q)
        ]
        for j, high in enumerate(itertools.product(range(q), repeat=n - 1)):
            if done[j]:
                continue
            h = [0, *high, 1]
            verdicts = _squarefree_group(h, q)
            for a in range(q):
                g = _shifted(h, a, q)
                low, s = g[1:-1], g[0]
                # entry c is verdicts[c - s]; s = 0 slices to verdicts
                rotated = verdicts[-s:] + verdicts[:-s]
                for places, reads in scalings:
                    i = sum(map(list.__getitem__, places, low))
                    if not done[i]:
                        flags[i::stride] = bytes(map(rotated.__getitem__, reads))
                        done[i] = 1
    roots = int.from_bytes(_smallest_roots(q, n), "big")
    return (roots | int.from_bytes(flags, "big")).to_bytes(len(flags), "big")


@cache
def _tuple_minima(q: int, n: int) -> tuple[int, ...]:
    """Entry m counts the n-tuples of pairwise-distinct field elements whose
    smallest entry is m; entry q counts the empty tuple.  Only the injective
    tuples are enumerated, each once, as the n-permutations of the field."""
    if n == 0:
        return (0,) * q + (1,)
    minima = Counter(map(min, itertools.permutations(range(q), n)))
    return tuple(minima[m] for m in range(q + 1))


def clear_caches() -> None:
    """Forget every per-(q, n) table, so the next count enumerates afresh
    (needed after patching a function the tables are built from)."""
    for table in (_polynomial_table, _tuple_minima):
        table.cache_clear()


# a table byte in the sieve's terms: 0 if its flag says squarefree, 1 if not
_SQUAREFUL = bytes(0 if b & _SQUAREFREE else 1 for b in range(256))


def squarefree_disagreements(q: int, n: int) -> list[FieldPoly]:
    """The first monic degree-n polynomial, in enumeration order, on which
    the two squarefree tests differ, as a one-element list; an empty list
    means they agree everywhere.  Compares the gcd verdicts of the (q, n)
    table with the square sieve as one bytes comparison."""
    _check_enumeration_args(q, 0, n)
    verdicts, sieve = _polynomial_table(q, n).translate(_SQUAREFUL), _square_sieve(q, n)
    if verdicts == sieve:
        return []
    first = next(i for i, (a, b) in enumerate(zip(verdicts, sieve)) if a != b)
    return [_monic_at(PrimeField(q), n, first)]


def _check_enumeration_args(q: int, k: int, n: int, n_name: str = "n") -> None:
    """Raise ValueError unless q is a field size, k and n (the caller's
    ``n_name``) are nonnegative ints and k < q; TooLargeError if q^n is over
    the budget."""
    check_field_size(q)
    _natural("k", k)
    _natural(n_name, n)
    if k >= q:
        raise ValueError(f"need 0 <= k < q, got k={k}, q={q}")
    if _tuples(q, n) > ENUMERATION_BUDGET:
        raise TooLargeError(f"{q}^{n} tuples exceed the budget of {ENUMERATION_BUDGET}")


def count_ordered_configs(q: int, k: int, n: int) -> int:
    """Number of n-tuples of pairwise-distinct field elements avoiding the
    punctures {0, ..., k-1}, by exhaustive enumeration of the
    pairwise-distinct tuples, each visited once."""
    _check_enumeration_args(q, k, n)
    return sum(_tuple_minima(q, n)[k:])


def count_squarefree_coprime(q: int, k: int, n: int) -> int:
    """Number of monic degree-n polynomials over the field that are
    squarefree and nonvanishing on the punctures {0, ..., k-1}, by
    exhaustive enumeration of all q^n monic polynomials."""
    _check_enumeration_args(q, k, n)
    table = _polynomial_table(q, n)
    return sum(table.count(_SQUAREFREE | root) for root in range(k, q + 1))


class OracleReport(NamedTuple):
    """One enumeration-vs-formula comparison."""

    q: int
    k: int
    n: int
    space: str
    oracle_count: int
    formula_value: int

    @property
    def agree(self) -> bool:
        """Derived, so no record (one from ``_replace`` too) contradicts it."""
        return self.oracle_count == self.formula_value


def oracle_check(q: int, k: int, max_n: int) -> list[OracleReport]:
    """Enumerate both spaces for every n <= max_n and compare with the
    virtual polynomials specialized at x^2 = q."""
    _check_enumeration_args(q, k, max_n, "max_n")
    unordered = virtual.virtual_unordered_series(k, max_n)
    reports = []
    for n in range(max_n + 1):
        reports.append(
            OracleReport(
                q, k, n, "ordered",
                count_ordered_configs(q, k, n),
                virtual.virtual_ordered(k, n).eval_x_squared(q),
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
