"""The duality between standard and virtual Poincare polynomials.

Applying x -> -1/x^2, y -> y*x^2 to the standard generating series of
either configuration-space family yields the virtual one.  Coefficient by
coefficient the transformation is the weight-n substitution of the ring
module.  This module returns both sides of that correspondence, and of
the Euler characteristic, over whole ranges of (k, n); ``verify``
compares them and names each mismatch.  It also holds :data:`FAMILIES`,
the one table that says which route answers each (kind, space) pair.
"""

from __future__ import annotations

from typing import Callable

from . import poincare, virtual
from .ring import LaurentPoly, _natural, substitute_duality


def _per_n(poly_of):
    """Lift a per-n route to a family entry: (k, max_n) -> polys for n = 0..max_n."""

    def family(k: int, max_n: int) -> tuple[LaurentPoly, ...]:
        _natural("max_n", max_n)
        return tuple(poly_of(k, n) for n in range(max_n + 1))

    return family


# Every (kind, space) route, keyed by the CLI family names.  Each entry maps
# (k, max_n) to the polynomials for n = 0..max_n; the series entries expand
# once per k, since coefficient n does not depend on the truncation order,
# and the standard unordered table reads one pyramidal row per k.
# Entries look their route up in its module on every call, so replacing a
# module attribute (a test's mutation, a tracer) is seen here too.
FAMILIES: dict[str, Callable[[int, int], tuple[LaurentPoly, ...]]] = {
    "standard-unordered": lambda k, max_n: poincare.betti_unordered_table(k, max_n),
    "standard-ordered": _per_n(lambda k, n: poincare.poincare_ordered(k, n)),
    "virtual-unordered": lambda k, order: virtual.virtual_unordered_series(k, order).coeffs,
    "virtual-unordered-raw": lambda k, order: virtual.getzler_series_raw(k, order).coeffs,
    "virtual-ordered": _per_n(lambda k, n: virtual.virtual_ordered(k, n)),
}


def _standard_and_virtual(k: int, max_n: int, space: str):
    """The standard and the virtual polynomials of one space, n = 0..max_n."""
    _natural("k", k)
    _natural("max_n", max_n)
    if space not in virtual.SPACES:
        raise ValueError(f"space must be one of {virtual.SPACES}, got {space!r}")
    return (
        FAMILIES[f"standard-{space}"](k, max_n),
        FAMILIES[f"virtual-{space}"](k, max_n),
    )


def check_duality(k: int, max_n: int, space: str) -> tuple[tuple[LaurentPoly, LaurentPoly], ...]:
    """Entry n is the pair (dualized standard, virtual) of the space's
    polynomials, for every n up to max_n.  Sides of different lengths raise
    ValueError."""
    standard, virt = _standard_and_virtual(k, max_n, space)
    return tuple(
        (substitute_duality(s, n), v)
        for n, (s, v) in enumerate(zip(standard, virt, strict=True))
    )


def euler_consistency(k: int, max_n: int, space: str) -> tuple[tuple[int, int], ...]:
    """Entry n is the pair (standard(-1), virtual(1)).

    Both sides compute the Euler characteristic of the same space, one
    from the alternating sum of Betti numbers, one from the virtual
    polynomial's scissor-additive count.  Sides of different lengths raise
    ValueError.
    """
    standard, virt = _standard_and_virtual(k, max_n, space)
    return tuple((s.eval_int(-1), v.eval_int(1)) for s, v in zip(standard, virt, strict=True))
