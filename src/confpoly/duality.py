"""The duality between standard and virtual Poincare polynomials.

Applying x -> -1/x^2, y -> y*x^2 to the standard generating series of
either configuration-space family yields the virtual one.  Coefficient by
coefficient the transformation is the weight-n substitution of the ring
module, and this module checks the correspondence over whole ranges of
(k, n), reporting mismatches as data rather than raising, so the CLI can
print a full table.  It also holds :data:`FAMILIES`, the one table that
says which route answers each (kind, space) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import poincare, virtual
from .ring import (
    LaurentPoly,
    TruncSeries,
    substitute_duality,
    substitute_duality_inverse,
)


class DegreeTooHighError(ValueError):
    """A y^n coefficient of degree > n cannot be dualized into a polynomial."""


@dataclass(frozen=True)
class DualityReport:
    """Per-n outcome of comparing transformed standard against virtual."""

    k: int
    max_n: int
    space: str
    matches: tuple[bool, ...]
    first_mismatch: Optional[tuple[int, LaurentPoly, LaurentPoly]]

    def all_match(self) -> bool:
        return all(self.matches)


def dualize_series(s: TruncSeries) -> TruncSeries:
    """Apply the duality substitution to every coefficient of a series.

    The y^n coefficient must be a polynomial of degree at most n with
    nonnegative exponents (true for all standard Poincare series here);
    otherwise the transform leaves polynomial range and
    :class:`DegreeTooHighError` is raised.
    """
    out = []
    for n, c in enumerate(s.coeffs):
        if c:
            if c.valuation() < 0:
                raise DegreeTooHighError(
                    f"y^{n} coefficient {c} has negative exponents"
                )
            if c.degree() > n:
                raise DegreeTooHighError(
                    f"y^{n} coefficient {c} has degree {c.degree()} > {n}"
                )
        out.append(substitute_duality(c, n))
    return TruncSeries(s.order, out)


def undualize_series(s: TruncSeries) -> TruncSeries:
    """Invert :func:`dualize_series`, recovering the standard series."""
    return TruncSeries(
        s.order,
        [substitute_duality_inverse(c, n) for n, c in enumerate(s.coeffs)],
    )


def _per_n(poly_of):
    """Lift a per-n route to a family entry: (k, max_n) -> polys for n = 0..max_n."""

    def family(k: int, max_n: int) -> tuple[LaurentPoly, ...]:
        if max_n < 0:
            raise ValueError("truncation order must be nonnegative")
        return tuple(poly_of(k, n) for n in range(max_n + 1))

    return family


# Every (kind, space) route, keyed by the CLI family names.  Each entry maps
# (k, max_n) to the polynomials for n = 0..max_n; the series entries expand
# once per k, since coefficient n does not depend on the truncation order.
# Entries look their route up in its module on every call, so replacing a
# module attribute (a test's mutation, a tracer) is seen here too.
FAMILIES: dict[str, Callable[[int, int], tuple[LaurentPoly, ...]]] = {
    "standard-unordered": _per_n(lambda k, n: poincare.betti_unordered(k, n).poly()),
    "standard-ordered": _per_n(lambda k, n: poincare.poincare_ordered(k, n)),
    "virtual-unordered": lambda k, n: virtual.virtual_unordered_series(k, n).coeffs,
    "virtual-unordered-raw": lambda k, n: virtual.getzler_series_raw(k, n).coeffs,
    "virtual-ordered": _per_n(lambda k, n: virtual.virtual_ordered(k, n).poly),
}


def _standard_and_virtual(k: int, max_n: int, space: str):
    """The standard and the virtual polynomials of one space, n = 0..max_n."""
    if k < 0 or max_n < 0:
        raise ValueError("k and max_n must be nonnegative")
    if space not in virtual.SPACES:
        raise ValueError(f"space must be 'ordered' or 'unordered', got {space!r}")
    return (
        FAMILIES[f"standard-{space}"](k, max_n),
        FAMILIES[f"virtual-{space}"](k, max_n),
    )


def check_duality(k: int, max_n: int, space: str) -> DualityReport:
    """Compare the dualized standard polynomial with the virtual one for
    every n up to max_n.  Mismatches are recorded, not raised."""
    standard, virt = _standard_and_virtual(k, max_n, space)
    matches = []
    first_mismatch = None
    for n, (s, rhs) in enumerate(zip(standard, virt)):
        lhs = substitute_duality(s, n)
        ok = lhs == rhs
        matches.append(ok)
        if not ok and first_mismatch is None:
            first_mismatch = (n, lhs, rhs)
    return DualityReport(k, max_n, space, tuple(matches), first_mismatch)


def euler_consistency(k: int, max_n: int, space: str) -> tuple[bool, ...]:
    """Entry n is True iff standard(-1) equals virtual(1).

    Both sides compute the Euler characteristic of the same space, one
    from the alternating sum of Betti numbers, one from the virtual
    polynomial's scissor-additive count.
    """
    standard, virt = _standard_and_virtual(k, max_n, space)
    return tuple(s.eval_int(-1) == v.eval_int(1) for s, v in zip(standard, virt))
