"""Exact Poincare polynomials of configuration spaces of the punctured plane.

Standard and virtual (Serre) Poincare polynomials of the ordered and
unordered configuration spaces of the plane with k points removed, each
computed by every available route (closed forms, generating series, a
puncture-adding recursion, a duality substitution) and cross-checked
against a brute-force finite-field point count.

Import names from the submodule that defines them: ``confpoly.ring``
(``LaurentPoly``, ``TruncSeries``), ``confpoly.combinatorics``,
``confpoly.poincare`` (standard routes), ``confpoly.virtual`` (virtual
routes), ``confpoly.duality`` (the substitution and the family table),
``confpoly.ffield`` (the finite-field oracle), ``confpoly.verify`` (the
check suites) and ``confpoly.cli`` (the command line).
"""

from math import isqrt

__version__ = "0.1.0"

# declared here, where the CLI finds them without loading confpoly.verify;
# verify re-exports both
SUITES = ("recursions", "series", "duality", "pointcount", "euler")

DEFAULT_PRIMES = (2, 3, 5, 7)

# the oracle's field policy and its budget error, declared here so that
# confpoly.verify checks --primes and the CLI reports a run over the budget
# without loading the oracle confpoly.ffield, which uses both
FIELD_SIZE_LIMIT = 100


class TooLargeError(ValueError):
    """The requested enumeration exceeds ``ffield.ENUMERATION_BUDGET``."""


def check_field_size(q: int) -> None:
    """Raise ValueError unless q is a prime no larger than FIELD_SIZE_LIMIT.

    Trial division stops at FIELD_SIZE_LIMIT, so any int is decided at once;
    a q past the limit with no factor up to it is reported as too large."""
    from .ring import _natural  # not at the top: confpoly.kronecker loads no ring

    _natural("q", q)
    if q < 2 or any(q % d == 0 for d in range(2, min(isqrt(q), FIELD_SIZE_LIMIT) + 1)):
        raise ValueError(f"{q} is not prime")
    if q > FIELD_SIZE_LIMIT:
        raise ValueError(f"q={q} exceeds the size policy ({FIELD_SIZE_LIMIT})")
