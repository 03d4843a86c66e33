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
    silently re-truncating.

All coefficients are Python ints (arbitrary precision), never floats, so
every comparison in the test suite is an exact equality.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Union


class NegativeExponentError(ValueError):
    """Evaluation requested for a polynomial with a negative exponent."""


class OrderMismatchError(ValueError):
    """Two truncated series of different orders were combined."""


class NonUnitConstantTermError(ValueError):
    """Series inversion needs a y^0 coefficient that is a monomial +-x^e."""


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
        self._terms = {e: c for e, c in terms.items() if c} if terms else {}

    def coefficient(self, e: int) -> int:
        return self._terms.get(e, 0)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._terms))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def degree(self) -> int:
        """Largest exponent; the zero polynomial has no degree."""
        if not self._terms:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(self._terms)

    def valuation(self) -> int:
        """Smallest exponent; the zero polynomial has no valuation."""
        if not self._terms:
            raise ValueError("valuation of the zero polynomial is undefined")
        return min(self._terms)

    # -- ring operations ------------------------------------------------

    def __add__(self, other: Union[int, "LaurentPoly"]) -> "LaurentPoly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._terms.items()})

    def __mul__(self, other: Union[int, "LaurentPoly"]) -> "LaurentPoly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return _dot(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers of a general polynomial")
        result = LaurentPoly({0: 1})
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
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
        if not self._terms:
            return "0"
        parts = []
        for e in sorted(self._terms, reverse=True):
            c = self._terms[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                power = "x" if e == 1 else f"x^{e}"
                body = power if mag == 1 else f"{mag}{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+{body}" if c > 0 else f"-{body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self._terms.items()))!r})"


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
X = LaurentPoly({1: 1})


def _as_poly(value) -> LaurentPoly:
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return LaurentPoly({0: value})
    return NotImplemented


def _dot(pairs: Iterable[tuple[LaurentPoly, LaurentPoly]]) -> LaurentPoly:
    """Sum of ``a * b`` over the pairs: the one loop that multiplies terms."""
    out: dict[int, int] = {}
    for a, b in pairs:
        for e1, c1 in a._terms.items():
            for e2, c2 in b._terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
    return LaurentPoly(out)


def substitute_duality(p: LaurentPoly, n: int) -> LaurentPoly:
    """Homogenized substitution x -> -1/x^2 at weight n: x^{2n} * p(-x^{-2}).

    Term by term, ``c*x^e`` becomes ``c*(-1)^e * x^(2n-2e)``, so the result
    is an honest polynomial whenever ``deg p <= n``.  This carries the
    standard Poincare polynomial of an n-point configuration space to the
    virtual one.
    """
    if n < 0:
        raise ValueError("weight n must be nonnegative")
    return LaurentPoly(
        {2 * n - 2 * e: (c if e % 2 == 0 else -c) for e, c in p._terms.items()}
    )


def substitute_duality_inverse(q: LaurentPoly, n: int) -> LaurentPoly:
    """Undo :func:`substitute_duality` at weight n.

    The forward map lands in polynomials with even support; on those, the
    term ``s*x^(2j)`` pulls back to ``s*(-1)^(n-j) * x^(n-j)``.  Composing
    inverse(forward(p, n), n) returns p exactly, for every p.
    """
    if n < 0:
        raise ValueError("weight n must be nonnegative")
    out = {}
    for e, c in q._terms.items():
        if e % 2:
            raise ValueError(f"odd exponent {e}: not in the image of the substitution")
        j = e // 2
        out[n - j] = c if (n - j) % 2 == 0 else -c
    return LaurentPoly(out)


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
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
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

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._match(other)
        return TruncSeries(
            self._order, [a + b for a, b in zip(self._coeffs, other._coeffs)]
        )

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._match(other)
        # y^m pairs a[i] with b[m - i]; zip stops at b[0]
        a, b = self._coeffs, other._coeffs
        return TruncSeries(
            self._order, [_dot(zip(a, b[m::-1])) for m in range(self._order + 1)]
        )

    def __pow__(self, n: int) -> "TruncSeries":
        if n < 0:
            raise ValueError("negative series powers: invert first")
        result = TruncSeries(self._order, [ONE])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse modulo y^(N+1).

        The y^0 coefficient must be a single monomial with coefficient
        +-1 (the only units available over the integers); otherwise
        :class:`NonUnitConstantTermError` is raised.
        """
        a0 = self._coeffs[0]
        items = a0._terms
        if len(items) != 1:
            raise NonUnitConstantTermError(
                f"y^0 coefficient {a0} is not a monomial unit"
            )
        ((e, c),) = items.items()
        if c not in (1, -1):
            raise NonUnitConstantTermError(
                f"y^0 coefficient {a0} has non-unit coefficient {c}"
            )
        b0 = LaurentPoly({-e: c})
        a, out = self._coeffs, [b0]
        for m in range(1, self._order + 1):
            out.append(-(b0 * _dot(zip(a[1 : m + 1], reversed(out)))))
        return TruncSeries(self._order, out)

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
