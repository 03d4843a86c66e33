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

__version__ = "0.1.0"

# declared here, where the CLI finds them without loading confpoly.verify;
# verify re-exports both
SUITES = ("recursions", "series", "duality", "pointcount", "euler")

DEFAULT_PRIMES = (2, 3, 5, 7)
