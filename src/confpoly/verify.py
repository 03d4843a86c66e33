"""Named cross-verification suites.

Every suite walks a documented default range and emits one
:class:`CheckResult` per cell, labeled by (space, k, n), so a single
wrong coefficient anywhere surfaces as a named first failure.  Checks
never raise: an exception inside a cell becomes a failed result for that
cell, and one while a suite builds the cells of a k becomes one failed
n = -1 cell for that k.  Default ranges match the acceptance targets and
keep the whole run comfortably under a minute.

Suites:

    recursions  pyramidal rows (both recursions vs closed form), the
                Stirling-number link, and rank stabilization in n
    series      closed-form Betti rows vs generating function vs the
                iterated one-puncture step; raw vs simplified virtual
                series; polynomial shape invariants; generating-function
                identities for pyramidal and stable ranks
    duality     transformed standard polynomial == virtual polynomial
    pointcount  finite-field enumerations vs specialized virtual
                polynomials, plus agreement of the two squarefree tests
    euler       standard(-1) == virtual(1)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import combinatorics, duality, ffield, poincare, virtual
from .ring import ONE, LaurentPoly, TruncSeries

SUITES = ("recursions", "series", "duality", "pointcount", "euler")

BOTH_SPACES = ("unordered", "ordered")

DEFAULT_PRIMES = (2, 3, 5, 7)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check; space is '-' where not applicable."""

    suite: str
    space: str
    k: int
    n: int
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerifySummary:
    suites: tuple[str, ...]
    passed: int
    failed: int
    first_failure: Optional[CheckResult]
    duration: float

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _crashed(
    suite: str, space: str, k: int, n: int, exc: Exception, prefix: str = ""
) -> CheckResult:
    return CheckResult(suite, space, k, n, False, f"{prefix}{type(exc).__name__}: {exc}")


def _check(
    suite: str, space: str, k: int, n: int, fn: Callable[[], tuple[bool, str]]
) -> CheckResult:
    try:
        ok, detail = fn()
    except Exception as exc:  # a crash in one cell must stay one failed cell
        return _crashed(suite, space, k, n, exc)
    return CheckResult(suite, space, k, n, ok, detail)


@dataclass(frozen=True)
class Scope:
    """What one run covers; every suite takes one and nothing else, so a
    new suite is one ``suite_<name>(scope)`` plus its name in :data:`SUITES`.

    A bound left as None means the suite's own default.  ``only_k``
    narrows every per-k loop to that k, and ``spaces`` drops the cells of
    the other space (cells with space '-' always stay)."""

    max_k: Optional[int] = None
    max_n: Optional[int] = None
    only_k: Optional[int] = None
    spaces: tuple[str, ...] = BOTH_SPACES
    primes: tuple[int, ...] = DEFAULT_PRIMES

    def n(self, default: int) -> int:
        """``max_n``, or the suite's default n bound."""
        return default if self.max_n is None else self.max_n

    def ks(self, default_max_k: int, lowest: int = 0) -> Sequence[int]:
        """``only_k`` alone, else ``lowest..max_k`` (or the suite's default)."""
        if self.only_k is not None:
            return (self.only_k,)
        return range(lowest, (default_max_k if self.max_k is None else self.max_k) + 1)

    def per_k(
        self, suite: str, space: str, k: int, cells: Iterator[CheckResult],
        prefix: str = "",
    ) -> list[CheckResult]:
        """The wanted cells of one k, drawn from the generator ``cells``.  If
        it raises, that k gets a single failed n = -1 cell instead."""
        try:
            return [c for c in cells if c.space == "-" or c.space in self.spaces]
        except Exception as exc:  # a crash in one k must stay one failed cell
            return [_crashed(suite, space, k, -1, exc, prefix)]


# -- recursions -------------------------------------------------------


def suite_recursions(scope: Scope) -> Iterator[CheckResult]:
    """Pyramidal rows k <= 8, i <= 12; the Stirling link for n <= 8; rank
    stabilization for k <= 6, j <= 8, n <= 12.  ``max_k`` replaces both
    k bounds and ``max_n`` both the i and the n bound."""
    pyramidal_ks = scope.ks(8, lowest=-1)
    max_n = scope.n(12)
    table = combinatorics.PyramidalTable.build(max(0, *pyramidal_ks), max_n)

    def pyramidal_cell(k: int, i: int) -> tuple[bool, str]:
        rec = combinatorics.pyramidal(k, i)
        tab = table.value(k, i)
        values = {"recursion": rec, "running-sum table": tab}
        if k >= 0:
            values["closed form"] = combinatorics.pyramidal_closed_form(k, i)
        if len(set(values.values())) == 1:
            return True, ""
        return False, "pyramidal routes disagree: " + ", ".join(
            f"{name}={v}" for name, v in values.items()
        )

    for k in pyramidal_ks:
        for i in range(max_n + 1):
            yield _check("recursions", "-", k, i, lambda k=k, i=i: pyramidal_cell(k, i))

    def stirling_cell(n: int) -> tuple[bool, str]:
        product = poincare.poincare_ordered(1, n - 1)
        for i in range(n):
            expected = combinatorics.stirling_first_unsigned(n, n - i)
            if product.coefficient(i) != expected:
                return False, (
                    f"x^{i} coefficient {product.coefficient(i)} != "
                    f"Stirling c({n},{n - i})={expected}"
                )
        return True, ""

    for n in range(1, 9):
        yield _check("recursions", "-", 1, n, lambda n=n: stirling_cell(n))

    def stable_cell(k: int, j: int, n: int) -> tuple[bool, str]:
        rank = poincare.betti_unordered(k, n).ranks[j]
        expected = poincare.stable_betti(k, j)
        if n == j:
            expected -= combinatorics.pyramidal(k - 1, j - 1)
        if rank == expected:
            return True, ""
        return False, f"rank H^{j} = {rank}, expected {expected}"

    if "unordered" not in scope.spaces:
        return
    for k in scope.ks(6):
        for j in range(8 + 1):
            for n in range(j, max_n + 1):
                yield _check(
                    "recursions", "unordered", k, n,
                    lambda k=k, j=j, n=n: stable_cell(k, j, n),
                )


# -- series -----------------------------------------------------------


def _ordered_shape(k: int, n: int) -> tuple[bool, str]:
    p = poincare.poincare_ordered(k, n)
    if any(c < 0 for c in p.terms.values()):
        return False, f"negative coefficient in {p}"
    if p.coefficient(0) != 1:
        return False, f"constant term {p.coefficient(0)} != 1"
    expected_degree = 0 if n == 0 else (n if k >= 1 else n - 1)
    if p.degree() != expected_degree:
        return False, f"degree {p.degree()} != {expected_degree}"
    if k >= 1:
        lead = 1
        for j in range(n):
            lead *= k + j
        if p.coefficient(n) != lead:
            return False, f"leading coefficient {p.coefficient(n)} != {lead}"
    return True, ""


def _virtual_shape(p: LaurentPoly, n: int) -> tuple[bool, str]:
    if any(e % 2 or e < 0 for e in p.support()):
        return False, f"support {p.support()} not contained in even exponents"
    if p.is_zero() or p.degree() != 2 * n:
        return False, f"{p} is not of degree {2 * n}"
    if p.coefficient(2 * n) != 1:
        return False, f"{p} is not monic"
    return True, ""


def suite_series(scope: Scope) -> Iterator[CheckResult]:
    """k <= 6 and series order 12, shape checks for n <= 10; ``max_n``
    replaces both the order and the shape bound."""
    order, shape_max_n = scope.n(12), scope.n(10)
    # the one-puncture chain, at chain_k punctures: built from k = 0 by
    # napolitano_step alone and carried from one k to the next, so a wrong
    # step at some k shows at that k first and at every k after it
    chain_k, chain = 0, None

    def chain_at(k: int) -> TruncSeries:
        nonlocal chain_k, chain
        if chain is None:
            chain = poincare.unordered_series(0, order)
        while chain_k < k:
            chain_k, chain = chain_k + 1, poincare.napolitano_step(chain)
        return chain

    def cells(k: int) -> Iterator[CheckResult]:
        q_series = poincare.unordered_series(k, order)
        stepped = chain_at(k)
        raw = virtual.getzler_series_raw(k, order)
        simplified = virtual.virtual_unordered_series(k, order)

        def three_way(k: int, n: int) -> tuple[bool, str]:
            a = poincare.betti_unordered(k, n).poly()
            b, c = q_series[n], stepped[n]
            if a == b == c:
                return True, ""
            return False, f"closed form {a}, series {b}, iterated step {c}"

        for n in range(order + 1):
            yield _check("series", "unordered", k, n, lambda k=k, n=n: three_way(k, n))

        def forms_agree(n: int) -> tuple[bool, str]:
            if raw[n] == simplified[n]:
                return True, ""
            return False, f"raw form {raw[n]} != simplified form {simplified[n]}"

        for n in range(order + 1):
            yield _check("series", "unordered", k, n, lambda n=n: forms_agree(n))

        for n in range(shape_max_n + 1):
            yield _check(
                "series", "ordered", k, n,
                lambda k=k, n=n: _virtual_shape(virtual.virtual_ordered(k, n).poly, n),
            )
            yield _check(
                "series", "unordered", k, n,
                lambda n=n: _virtual_shape(simplified[n], n),
            )
            yield _check(
                "series", "ordered", k, n, lambda k=k, n=n: _ordered_shape(k, n)
            )

        pyramidal_gf = (TruncSeries(order, [ONE, -1]) ** (k + 1)).inverse()

        def pyramidal_coeff(i: int) -> tuple[bool, str]:
            got = pyramidal_gf[i]
            expected = LaurentPoly.constant(combinatorics.pyramidal(k, i))
            if got == expected:
                return True, ""
            return False, f"1/(1-y)^{k + 1} coefficient {got} != {expected}"

        for i in range(order + 1):
            yield _check("series", "-", k, i, lambda i=i: pyramidal_coeff(i))

        stable_gf = TruncSeries(order, [ONE, ONE]) * (
            TruncSeries(order, [ONE, -1]) ** k
        ).inverse()

        def stable_coeff(j: int) -> tuple[bool, str]:
            got = stable_gf[j]
            expected = LaurentPoly.constant(poincare.stable_betti(k, j))
            if got == expected:
                return True, ""
            return False, f"(1+y)/(1-y)^{k} coefficient {got} != {expected}"

        for j in range(min(order, 8) + 1):
            yield _check("series", "unordered", k, j, lambda j=j: stable_coeff(j))

    for k in scope.ks(6):
        yield from scope.per_k("series", "-", k, cells(k))


# -- duality ----------------------------------------------------------


def suite_duality(scope: Scope) -> Iterator[CheckResult]:
    """k <= 6, n <= 12."""
    max_n = scope.n(12)

    def cells(k: int, space: str) -> Iterator[CheckResult]:
        report = duality.check_duality(k, max_n, space)
        for n, ok in enumerate(report.matches):
            detail = ""
            if not ok:
                detail = "transformed standard != virtual"
                if report.first_mismatch and report.first_mismatch[0] == n:
                    _, lhs, rhs = report.first_mismatch
                    detail = f"transformed standard {lhs} != virtual {rhs}"
            yield CheckResult("duality", space, k, n, ok, detail)

    for space in scope.spaces:
        for k in scope.ks(6):
            yield from scope.per_k("duality", space, k, cells(k, space))


# -- pointcount -------------------------------------------------------


POINTCOUNT_MAX_N = 5


def pointcount_size(primes: Iterable[int], max_n: Optional[int] = None) -> int:
    """Monic polynomials :func:`suite_pointcount` enumerates (and as many
    n-tuples): q^n summed over the primes and every n <= max_n."""
    max_n = POINTCOUNT_MAX_N if max_n is None else max_n
    return sum(q**n for q in primes for n in range(max_n + 1))


def suite_pointcount(scope: Scope) -> Iterator[CheckResult]:
    """k <= 3 (and k < q), n <= 5."""
    max_n = scope.n(POINTCOUNT_MAX_N)

    def cells(q: int, k: int) -> Iterator[CheckResult]:
        for r in ffield.oracle_check(q, k, max_n):
            yield CheckResult(
                "pointcount", r.space, r.k, r.n, r.agree,
                f"q={q}: enumerated {r.oracle_count}, formula {r.formula_value}",
            )

    def methods_agree(q: int, n: int) -> tuple[bool, str]:
        bad = ffield.squarefree_disagreements(q, n)
        if bad:
            return False, f"q={q}: squarefree tests disagree at {bad[0]!r}"
        return True, f"q={q}: squarefree tests agree on all monic degree-{n}"

    for q in scope.primes:
        for k in scope.ks(3):
            if k < q:
                yield from scope.per_k("pointcount", "-", k, cells(q, k), f"q={q}: ")
        for n in range(max_n + 1):
            yield _check(
                "pointcount", "-", 0, n, lambda q=q, n=n: methods_agree(q, n)
            )


# -- euler ------------------------------------------------------------


def suite_euler(scope: Scope) -> Iterator[CheckResult]:
    """k <= 6, n <= 10."""
    max_n = scope.n(10)

    def cells(k: int, space: str) -> Iterator[CheckResult]:
        for n, ok in enumerate(duality.euler_consistency(k, max_n, space)):
            yield CheckResult(
                "euler", space, k, n, ok, "" if ok else "standard(-1) != virtual(1)"
            )

    for space in scope.spaces:
        for k in scope.ks(6):
            yield from scope.per_k("euler", space, k, cells(k, space))


# -- runner -----------------------------------------------------------


def run_suites(
    names: Iterable[str],
    *,
    only_k: Optional[int] = None,
    max_k: Optional[int] = None,
    max_n: Optional[int] = None,
    spaces: Iterable[str] = BOTH_SPACES,
    primes: Iterable[int] = DEFAULT_PRIMES,
) -> tuple[VerifySummary, list[CheckResult]]:
    """Run the named suites (or all of them) and collect every check.

    ``max_k``/``max_n`` override each suite's documented default range;
    ``only_k`` restricts configuration-space checks to a single k."""
    wanted = set(names)
    unknown = wanted - set(SUITES) - {"all"}
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")

    scope = Scope(max_k, max_n, only_k, tuple(spaces), tuple(primes))
    ran = tuple(s for s in SUITES if s in wanted or "all" in wanted)
    start = time.perf_counter()
    results: list[CheckResult] = []
    for name in ran:
        # looked up when it runs, so a replaced suite (a test's patch, a
        # tracer's wrapper) is the one that runs
        results.extend(globals()[f"suite_{name}"](scope))
    duration = time.perf_counter() - start

    failed = [r for r in results if not r.passed]
    summary = VerifySummary(
        suites=ran,
        passed=len(results) - len(failed),
        failed=len(failed),
        first_failure=failed[0] if failed else None,
        duration=duration,
    )
    return summary, results
