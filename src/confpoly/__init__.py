"""Exact Poincare polynomials of configuration spaces of the punctured plane.

Standard and virtual (Serre) Poincare polynomials of the ordered and
unordered configuration spaces of the plane with k points removed, each
computed by every available route (closed forms, generating series, a
puncture-adding recursion, a duality substitution) and cross-checked
against a brute-force finite-field point count.
"""

from .combinatorics import (
    KOutOfRangeError,
    PyramidalTable,
    binomial,
    pyramidal,
    pyramidal_closed_form,
    stirling_first_unsigned,
)
from .duality import (
    DegreeTooHighError,
    DualityReport,
    check_duality,
    dualize_series,
    euler_consistency,
    undualize_series,
)
from .ffield import (
    FieldPoly,
    OracleReport,
    PrimeField,
    TooLargeError,
    count_ordered_configs,
    count_squarefree_coprime,
    is_squarefree,
    is_squarefree_by_sieve,
    monic_polys,
    oracle_check,
    squarefree_disagreements,
)
from .poincare import (
    BettiRow,
    betti_unordered,
    napolitano_step,
    poincare_ordered,
    stable_betti,
    unordered_series,
)
from .ring import (
    LaurentPoly,
    NegativeExponentError,
    NonUnitConstantTermError,
    OrderMismatchError,
    TruncSeries,
    substitute_duality,
    substitute_duality_inverse,
)
from .verify import CheckResult, VerifySummary, run_suites
from .virtual import (
    VirtualPoly,
    getzler_series_raw,
    virtual_ordered,
    virtual_unordered,
    virtual_unordered_series,
)

__version__ = "0.1.0"

__all__ = [
    "BettiRow",
    "CheckResult",
    "DegreeTooHighError",
    "DualityReport",
    "FieldPoly",
    "KOutOfRangeError",
    "LaurentPoly",
    "NegativeExponentError",
    "NonUnitConstantTermError",
    "OracleReport",
    "OrderMismatchError",
    "PrimeField",
    "PyramidalTable",
    "TooLargeError",
    "TruncSeries",
    "VerifySummary",
    "VirtualPoly",
    "betti_unordered",
    "binomial",
    "check_duality",
    "count_ordered_configs",
    "count_squarefree_coprime",
    "dualize_series",
    "euler_consistency",
    "getzler_series_raw",
    "is_squarefree",
    "is_squarefree_by_sieve",
    "monic_polys",
    "napolitano_step",
    "oracle_check",
    "poincare_ordered",
    "pyramidal",
    "pyramidal_closed_form",
    "run_suites",
    "stable_betti",
    "stirling_first_unsigned",
    "substitute_duality",
    "substitute_duality_inverse",
    "undualize_series",
    "unordered_series",
    "virtual_ordered",
    "virtual_unordered",
    "virtual_unordered_series",
]
