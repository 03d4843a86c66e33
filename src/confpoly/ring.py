"""Exact arithmetic kernel: integer Laurent polynomials and truncated series.

Two immutable ring types live here:

``LaurentPoly``
    A finitely supported integer combination of powers ``x^e`` with ``e``
    any integer.  Negative exponents are legal but only ever appear
    transiently inside the duality substitution; every polynomial handed
    to or returned by the higher-level modules has nonnegative support.

``TruncSeries``
    A power series in ``y`` truncated at a fixed order ``N``, whose
    coefficients are ``LaurentPoly`` values.  Arithmetic takes series only
    and agrees with full power-series arithmetic modulo ``y^(N+1)``.  The
    truncation order is part of the value; mixing orders raises instead of
    silently re-truncating.  Division by a series with a unit y^0
    coefficient +-x^e is exact; ``inverse`` is the quotient 1 / s.  A series
    of integers with y^0 coefficient +-1 has every integer power, negative
    ones too; a series with x in a coefficient has no ``**``.

All exponents and coefficients are Python ints (arbitrary precision), never
floats or bools, so every comparison in the test suite is an exact equality.
"""

from __future__ import annotations

import operator
from typing import Iterable, Mapping, Union


class NegativeExponentError(ValueError):
    """Evaluation requested for a polynomial with a negative exponent."""


class OrderMismatchError(ValueError):
    """Two truncated series of different orders were combined."""


class NonUnitConstantTermError(ValueError):
    """Series division needs a y^0 coefficient that is a monomial +-x^e."""


def _natural(name: str, value) -> None:
    """The one argument check of every public route: raise ValueError,
    naming the argument, unless ``value`` is an int (not a bool) >= 0."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} must be a nonnegative int, got {value!r}")


def _integer(name: str, value) -> None:
    """The check of an argument whose domain has a rule of its own (k >= -1,
    any i, a negative power): raise ValueError, naming the argument, unless
    ``value`` is an int (not a bool)."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")


class LaurentPoly:
    """An integer Laurent polynomial in ``x``.

    Stored sparsely as exponent -> coefficient; zero coefficients are
    never kept, and the zero polynomial has empty support.

    >>> p = LaurentPoly({1: 2, 0: 1})
    >>> print(p * p)
    4x^2+4x+1
    >>> print(LaurentPoly({2: 1, 0: -3}))
    x^2-3
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        self._terms = {}
        for e, c in (terms or {}).items():
            if type(e) is not int or type(c) is not int:
                _integer("exponent", e)
                _integer("coefficient", c)
            if c:
                self._terms[e] = c

    @classmethod
    def _make(cls, terms: dict[int, int]) -> "LaurentPoly":
        """The polynomial on ``terms`` as given, unchecked: for the kernels,
        whose terms are ints already and which drop zero coefficients."""
        p = object.__new__(cls)
        p._terms = terms
        return p

    def coefficient(self, e: int) -> int:
        return self._terms.get(e, 0)

    def decimals(self, stop: int) -> list[str]:
        """The coefficients of x^0, x^1, ..., x^(stop - 1) in decimal, zeros
        included."""
        get = self._terms.get
        return [str(get(e, 0)) for e in range(stop)]

    def decimal_row(self, stop: int) -> tuple[list[str], str]:
        """``self.decimals(stop)`` and ``str(self)``, with each coefficient
        turned into decimal once: for large coefficients that conversion is
        most of the rendering.  The support must lie in 0..stop - 1."""
        cells = self.decimals(stop)
        terms = [(e, c) for e, c in zip(range(stop - 1, -1, -1), reversed(cells)) if c != "0"]
        if len(terms) != len(self._terms):
            raise ValueError(f"{self!r} has a term outside x^0..x^{stop - 1}")
        return cells, _render(terms)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._terms))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def degree(self) -> int:
        """Largest exponent; the zero polynomial has no degree."""
        if not self._terms:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(self._terms)

    # -- ring operations ------------------------------------------------

    def __add__(self, other: Union[int, "LaurentPoly"]) -> "LaurentPoly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():  # a term that cancels goes at once
            if c := out.get(e, 0) + c:
                out[e] = c
            else:
                del out[e]
        return LaurentPoly._make(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._make({e: -c for e, c in self._terms.items()})

    def __mul__(self, other: Union[int, "LaurentPoly"]) -> "LaurentPoly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return _dot((e, c, other._terms) for e, c in self._terms.items())

    __rmul__ = __mul__

    # -- evaluation -----------------------------------------------------

    def eval_int(self, v: int) -> int:
        """Exact value at an integer point; rejects negative exponents."""
        if self._terms and min(self._terms) < 0:
            raise NegativeExponentError(
                f"cannot evaluate {self} at an integer: negative exponent present"
            )
        return sum(c * v**e for e, c in self._terms.items())

    def eval_x_squared(self, v: int) -> int:
        """Value after substituting x^2 -> v; needs even nonnegative support."""
        for e in self._terms:
            if e < 0:
                raise NegativeExponentError(f"negative exponent {e} in {self}")
            if e % 2:
                raise ValueError(f"odd exponent {e} in {self}; x^2 substitution undefined")
        return sum(c * v ** (e // 2) for e, c in self._terms.items())

    # -- comparisons and rendering ---------------------------------------

    def __eq__(self, other: object) -> bool:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # a constant hashes like the int it equals
        if self._terms.keys() <= {0}:
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        """Canonical rendering: descending exponents, ASCII ``x^e``.

        >>> str(LaurentPoly({3: 4, 2: 5, 1: 3, 0: 1}))
        '4x^3+5x^2+3x+1'
        >>> str(LaurentPoly({6: 1, 4: -3, 2: 5, 0: -4}))
        'x^6-3x^4+5x^2-4'
        >>> str(LaurentPoly({}))
        '0'
        """
        terms = self._terms
        return _render([(e, str(terms[e])) for e in sorted(terms, reverse=True)])

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self._terms.items()))!r})"


class _PowerStrings(dict):
    """e -> ("x^e", "x^e", "-x^e"): the power, and the whole term of a
    coefficient 1 and of -1 (for e = 0: "", "1" and "-1").  Made on first
    use of each exponent."""

    def __missing__(self, e: int) -> tuple[str, str, str]:
        power = "" if e == 0 else "x" if e == 1 else f"x^{e}"
        self[e] = strings = (power, power or "1", f"-{power or 1}")
        return strings


_POWERS = _PowerStrings()


def _render(terms: list[tuple[int, str]]) -> str:
    """The canonical text of the terms (e, decimal coefficient), nonzero and
    in descending e: one branch per term, the powers from the cache."""
    if not terms:
        return "0"
    parts = []
    for e, c in terms:
        power, plus, minus = _POWERS[e]
        parts.append(plus if c == "1" else minus if c == "-1" else c + power)
    # a term's own "-" can follow a "+" only where two terms meet
    return "+".join(parts).replace("+-", "-")

ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
X = LaurentPoly({1: 1})


def _as_poly(value) -> LaurentPoly:
    if isinstance(value, LaurentPoly):
        return value
    if type(value) is int:
        return LaurentPoly._make({0: value} if value else {})
    return NotImplemented


def _dot(rows: Iterable[tuple[int, int, dict[int, int]]]) -> LaurentPoly:
    """Sum of ``c * x^e * q`` over the rows (e, c, q), each q the terms of a
    polynomial: the one loop that multiplies terms, into one dict.  The
    series kernels flatten one operand (the shorter, or the divisor) into the
    monomials c * x^e and put the longest q first, which fills the empty sum
    in one comprehension (c = 1 shifts q without multiplying).  Products of
    nonzero ints are nonzero, so only a sum can reach 0, and such a term is
    deleted where it cancels: the result needs no zero filter."""
    out: dict[int, int] = {}
    for e1, c1, q in rows:
        if not out:
            out = {e1 + e2: c2 if c1 == 1 else c1 * c2 for e2, c2 in q.items()}
            continue
        for e2, c2 in q.items():
            e = e1 + e2
            c = out.get(e, 0) + c1 * c2
            if c:
                out[e] = c
            else:
                del out[e]
    return LaurentPoly._make(out)


def _unit_inverse(head: LaurentPoly) -> tuple[int, int]:
    """(-e, c) for the inverse c * x^-e of a y^0 coefficient c * x^e with
    c = +-1, the only units over the integers;
    :class:`NonUnitConstantTermError` for any other."""
    if len(head._terms) != 1:
        raise NonUnitConstantTermError(f"y^0 coefficient {head} is not a monomial unit")
    ((e, c),) = head._terms.items()
    if c not in (1, -1):
        raise NonUnitConstantTermError(f"y^0 coefficient {head} has non-unit coefficient {c}")
    return -e, c


def _monomials(coeffs: tuple[LaurentPoly, ...], first=0, shift=0, scale=1) -> list:
    """(i, e + shift, c * scale) for each term c * x^e of the coefficient of
    y^i, i >= first, in order of i: a series flattened once for ``_dot``."""
    terms = range(first, len(coeffs))
    return [(i, e + shift, c * scale) for i in terms for e, c in coeffs[i]._terms.items()]


_CONSTANT = frozenset({0})


def _constants(coeffs: tuple[LaurentPoly, ...]) -> list[int] | None:
    """The coefficients as ints when every one is a constant, else None."""
    if all(c._terms.keys() <= _CONSTANT for c in coeffs):
        return [c._terms.get(0, 0) for c in coeffs]
    return None


def _trim(row: list[int]) -> list[int]:
    """``row`` cut after its last nonzero entry, in place."""
    while row and not row[-1]:
        row.pop()
    return row


def _int_dot(xs: list[int], ys: list[int]) -> int:
    """Sum of ``x * y`` over the pairs of two int rows: the one loop that
    multiplies the coefficients of an integer series."""
    return sum(map(operator.mul, xs, ys))


def substitute_duality(p: LaurentPoly, n: int) -> LaurentPoly:
    """Homogenized substitution x -> -1/x^2 at weight n: x^{2n} * p(-x^{-2}).

    Term by term, ``c*x^e`` becomes ``c*(-1)^e * x^(2n-2e)``, so the result
    is an honest polynomial whenever ``deg p <= n``.  This carries the
    standard Poincare polynomial of an n-point configuration space to the
    virtual one.
    """
    _natural("n", n)
    return LaurentPoly._make(
        {2 * n - 2 * e: (c if e % 2 == 0 else -c) for e, c in p._terms.items()}
    )


class TruncSeries:
    """A power series in ``y`` truncated at order N, LaurentPoly coefficients.

    ``coeffs[j]`` is the coefficient of ``y^j``; the tuple always has
    exactly ``order + 1`` entries.  Construction pads with zeros and
    discards anything beyond the order (that precision does not exist).

    >>> s = TruncSeries(3, [1, -1])        # 1 - y, truncated at y^3
    >>> print(s.inverse())
    (1) + (1)y + (1)y^2 + (1)y^3
    """

    __slots__ = ("_order", "_coeffs")

    def __init__(self, order: int, coeffs: Iterable[Union[int, LaurentPoly]] = ()):
        _natural("order", order)
        polys = []
        for c in coeffs:
            p = _as_poly(c)
            if p is NotImplemented:
                raise TypeError(f"coefficient {c!r} is not an int or LaurentPoly")
            polys.append(p)
        polys = polys[: order + 1]
        polys += [ZERO] * (order + 1 - len(polys))
        self._order = order
        self._coeffs = tuple(polys)

    @classmethod
    def _make(cls, order: int, coeffs: Iterable[LaurentPoly]) -> "TruncSeries":
        """The series on ``coeffs`` as given, unchecked: for the kernels,
        which make order + 1 LaurentPoly values."""
        s = object.__new__(cls)
        s._order, s._coeffs = order, tuple(coeffs)
        return s

    @classmethod
    def _of_ints(cls, order: int, values: list[int]) -> "TruncSeries":
        """``_make`` of the constants ``values``."""
        return cls._make(order, [LaurentPoly._make({0: c} if c else {}) for c in values])

    @property
    def order(self) -> int:
        return self._order

    @property
    def coeffs(self) -> tuple[LaurentPoly, ...]:
        return self._coeffs

    def __getitem__(self, j: int) -> LaurentPoly:
        """Coefficient of y^j (zero beyond the truncation order is an error)."""
        if not 0 <= j <= self._order:
            raise IndexError(f"y^{j} is outside truncation order {self._order}")
        return self._coeffs[j]

    def _match(self, other: "TruncSeries") -> None:
        if self._order != other._order:
            raise OrderMismatchError(
                f"series orders differ: {self._order} vs {other._order}"
            )

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._match(other)
        a = _constants(self._coeffs)
        if a is not None and (b := _constants(other._coeffs)) is not None:
            # y^m is a_0 b_m + ... + a_m b_0, on ints, with a the operand of
            # lower degree, cut after its last nonzero coefficient
            if len(_trim(a)) > len(_trim(b)):
                a, b = b, a
            b += [0] * (self._order + 1 - len(b))  # so b[m::-1] starts at b_m
            return TruncSeries._of_ints(
                self._order, [_int_dot(a[: m + 1], b[m::-1]) for m in range(self._order + 1)]
            )
        # y^m sums c * x^e * b_(m-i) over the terms c * x^e of each a_i, with
        # a the operand of fewer terms, flattened once
        a, b = self._coeffs, other._coeffs
        if sum(len(p._terms) for p in a) > sum(len(p._terms) for p in b):
            a, b = b, a
        a = _monomials(a)
        return TruncSeries._make(self._order, [
            _dot((e, c, b[m - i]._terms) for i, e, c in a if i <= m)
            for m in range(self._order + 1)
        ])

    def __pow__(self, n: int) -> "TruncSeries":
        """``self`` to the integer power n modulo y^(N+1), negative n too, for
        a series whose coefficients are all integers.

        The y^0 coefficient f_0 must be a unit +-1; otherwise
        :class:`NonUnitConstantTermError` is raised, and a coefficient in x is
        a ValueError.  J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7)
        follows from f * q' = n * f' * q for q = f^n:

            m * f_0 * q_m = sum over i = 1..min(m, d) of ((n + 1) i - m) f_i q_(m-i),

        with q_0 = f_0^n, over the f_i up to the last nonzero one, f_d.  So a
        power costs at most d products per coefficient, whatever n is, and
        no series is divided.
        """
        _integer("n", n)
        _, c0 = _unit_inverse(self._coeffs[0])
        f = _constants(self._coeffs)
        if f is None:
            raise ValueError(f"{self} has a coefficient in x; only integer series have powers")
        # f_0 = c0 = +-1 is its own inverse, and g holds c0 * f_i for i = 1..d
        g = _trim([c0 * c for c in f[1:]])
        ints = [c0 if n % 2 else 1]
        for m in range(1, self._order + 1):
            d = min(m, len(g))
            weighted = [((n + 1) * i - m) * g[i - 1] for i in range(1, d + 1)]
            s = _int_dot(weighted, ints[m - d : m][::-1])
            q, r = divmod(s, m)
            if r:  # a wrong recurrence shows as a remainder, never rounded
                raise ArithmeticError(f"{s} is not divisible by {m}")
            ints.append(q)
        return TruncSeries._of_ints(self._order, ints)

    def __truediv__(self, other: "TruncSeries") -> "TruncSeries":
        """The exact quotient modulo y^(N+1): the series q with q * other == self.

        The y^0 coefficient of ``other`` must be a single monomial with
        coefficient +-1 (the only units available over the integers);
        otherwise :class:`NonUnitConstantTermError` is raised.
        """
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._match(other)
        e0, c0 = _unit_inverse(other._coeffs[0])
        # q_m = unit * (s_m - t_1 q_(m-1) - ... - t_m q_0), with the terms of
        # -unit * t_i flattened once, q_(m-1) first and unit * s_m last
        t = _monomials(other._coeffs, 1, e0, -c0)
        out: list[LaurentPoly] = []
        for m, s in enumerate(self._coeffs):
            rows = [(e, c, out[m - i]._terms) for i, e, c in t if i <= m]
            rows.append((e0, c0, s._terms))
            out.append(_dot(rows))
        return TruncSeries._make(self._order, out)

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse modulo y^(N+1): the quotient 1 / self."""
        return TruncSeries(self._order, [ONE]) / self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self._order == other._order and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._order, self._coeffs))

    def __str__(self) -> str:
        parts = [f"({self._coeffs[0]})"]
        parts += [
            f"({c})y" if j == 1 else f"({c})y^{j}"
            for j, c in enumerate(self._coeffs)
            if j >= 1
        ]
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"TruncSeries(order={self._order}, coeffs={list(self._coeffs)!r})"
