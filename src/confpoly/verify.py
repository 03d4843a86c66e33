"""Named cross-verification suites.

Every suite walks a documented default range and yields bare cells
``(space, k, n, passed, detail)``; :func:`run_suites` alone labels them
with their suite and keeps those of the run's spaces, so a single wrong
coefficient anywhere surfaces as a named first failure.  A suite may skip
building the cells of a space the run leaves out.  Checks never raise:
an exception inside a cell becomes a failed cell, one while a suite
builds the cells of a k becomes one failed n = -1 cell for that k, and one
anywhere else in a suite ends that suite with one failed cell
``('-', -1, -1)``, after the cells it made.  Default ranges match the
acceptance targets; at them the five suites take about 0.03 s in all
(Python 3.11, 2-core x86-64).

Suites:

    recursions  pyramidal rows (both recursions vs closed form), the
                Stirling-number link, and rank stabilization in n: the
                printed Betti table vs the running-sum pyramidal rows
    series      closed-form Betti rows vs generating function vs the
                iterated one-puncture step; raw vs simplified virtual
                series; polynomial shape invariants; generating-function
                identities for pyramidal and stable ranks.  The chain and
                the raw virtual form are carried across k by one-puncture
                steps, ring-free, and the pyramidal and stable series read
                from the running-sum rows; the public simplified series is
                checked against the raw form at every k
    duality     transformed standard polynomial == virtual polynomial
    pointcount  finite-field enumerations vs specialized virtual
                polynomials, plus agreement of the two squarefree tests
    euler       standard(-1) == virtual(1)
"""

from __future__ import annotations

import math
import time
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

# SUITES and DEFAULT_PRIMES are declared in the package, where the CLI reads
# them without loading this module, and so is the field policy of --primes:
# the oracle confpoly.ffield is loaded only when pointcount runs, and
# confpoly.kronecker only when series runs
from . import DEFAULT_PRIMES, SUITES, check_field_size, combinatorics, duality, poincare, virtual
from .ring import LaurentPoly, _natural


class CheckResult(NamedTuple):
    """Outcome of one named check; space is '-' where not applicable."""

    suite: str
    space: str
    k: int
    n: int
    passed: bool
    detail: str = ""


class VerifySummary(NamedTuple):
    """``suite_durations`` are the seconds each of ``suites`` took, in
    order, and ``duration`` their sum."""

    suites: tuple[str, ...]
    passed: int
    failed: int
    first_failure: Optional[CheckResult]
    suite_durations: tuple[float, ...]

    @property
    def duration(self) -> float:
        return sum(self.suite_durations)

    @property
    def ok(self) -> bool:
        return self.failed == 0


Cell = tuple[str, int, int, bool, str]  # (space, k, n, passed, detail)


def _crashed(space: str, k: int, n: int, exc: Exception, prefix: str = "") -> Cell:
    return space, k, n, False, f"{prefix}{type(exc).__name__}: {exc}"


def _cell(space: str, k: int, n: int, check: Callable[..., tuple[bool, str]], *args) -> Cell:
    """The cell of ``check(*args)``, which returns (passed, detail).  If it
    raises, a failed cell that names the exception instead."""
    try:
        ok, detail = check(*args)
    except Exception as exc:  # a crash in one cell must stay one failed cell
        return _crashed(space, k, n, exc)
    return space, k, n, ok, detail


def _per_k(
    ks: Iterable[int], space: str, cells: Callable[[int], Iterator[Cell]], prefix: str = ""
) -> Iterator[Cell]:
    """Every cell of each k in ``ks``, drawn from the generator ``cells(k)``.
    If it raises, that k gets a single failed n = -1 cell instead."""
    for k in ks:
        try:
            batch = list(cells(k))
        except Exception as exc:  # a crash in one k must stay one failed cell
            batch = [_crashed(space, k, -1, exc, prefix)]
        yield from batch


class _ScopeFields(NamedTuple):
    max_k: Optional[int]
    max_n: Optional[int]
    only_k: Optional[int]
    spaces: tuple[str, ...]
    primes: tuple[int, ...]


class Scope(_ScopeFields):
    """What one run covers; every suite takes one and nothing else, so a
    new suite is one cell generator ``suite_<name>(scope)`` plus its name
    in :data:`SUITES`.

    A bound left as None means the suite's own default.  ``only_k``
    narrows every per-k loop to that k; run_suites keeps only the cells of
    ``spaces`` and of space '-'.  A scope no run can honour raises
    ValueError when made, before any suite sees it."""

    __slots__ = ()

    def __new__(
        cls,
        max_k: Optional[int] = None,
        max_n: Optional[int] = None,
        only_k: Optional[int] = None,
        spaces: tuple[str, ...] = virtual.SPACES,
        primes: tuple[int, ...] = DEFAULT_PRIMES,
    ):
        return cls._make((max_k, max_n, only_k, spaces, primes))

    @classmethod
    def _make(cls, fields: Iterable) -> "Scope":
        """The checked constructor: ``Scope(...)`` and ``_replace`` both
        come through it."""
        max_k, max_n, only_k, spaces, primes = fields
        # a repeat or a non-int shrinks the set
        if not primes or len({q for q in primes if type(q) is int}) < len(primes):
            raise ValueError(f"primes must be one or more distinct primes: {primes}")
        for q in primes:
            check_field_size(q)
        if only_k is not None and max_k is not None:
            raise ValueError("only_k and max_k exclude each other")
        for name, value in (("max_k", max_k), ("max_n", max_n), ("only_k", only_k)):
            if value is not None:
                _natural(name, value)
        if not spaces or len(set(spaces) & set(virtual.SPACES)) < len(spaces):
            raise ValueError(f"spaces must be one or more of {virtual.SPACES}: {spaces}")
        return super()._make((max_k, max_n, only_k, spaces, primes))

    def n(self, default: int) -> int:
        """``max_n``, or the suite's default n bound."""
        return default if self.max_n is None else self.max_n

    def ks(self, default_max_k: int, lowest: int = 0) -> Sequence[int]:
        """``only_k`` alone, else ``lowest..max_k`` (or the suite's default)."""
        if self.only_k is not None:
            return (self.only_k,)
        return range(lowest, (default_max_k if self.max_k is None else self.max_k) + 1)


# the stable cells of recursions and series check rank H^j for j <= 8, whatever max_n
STABLE_MAX_J = 8


# -- recursions -------------------------------------------------------


def suite_recursions(scope: Scope) -> Iterator[Cell]:
    """Pyramidal rows k <= 8, i <= 12; the Stirling link for n <= 8; rank
    stabilization for k <= 6, j <= 8, n <= 12.  ``max_k`` replaces both
    k bounds and ``max_n`` both the i and the n bound.

    The stabilization cells read ``betti_unordered_table(k, max_n)``, the
    table ``table betti`` prints, once per k, and expect the ranks from the
    running-sum rows of :func:`combinatorics.pyramidal_rows`: P(k-1, j) +
    P(k-1, j-1) for n > j, and P(k-1, j) at n = j."""
    pyramidal_ks = scope.ks(8, lowest=-1)
    max_n = scope.n(12)
    rows = combinatorics.pyramidal_rows(max(0, *pyramidal_ks), max_n)

    def pyramidal_cell(k: int, i: int) -> tuple[bool, str]:
        rec = combinatorics.pyramidal(k, i)
        values = {"recursion": rec, "running-sum table": rows[k + 1][i]}
        if k >= 0:
            values["closed form"] = combinatorics.pyramidal_closed_form(k, i)
        if len(set(values.values())) == 1:
            return True, ""
        return False, "pyramidal routes disagree: " + ", ".join(
            f"{name}={v}" for name, v in values.items()
        )

    for k in pyramidal_ks:
        for i in range(max_n + 1):
            yield _cell("-", k, i, pyramidal_cell, k, i)

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
        yield _cell("-", 1, n, stirling_cell, n)

    def stable_cells(k: int) -> Iterator[Cell]:
        # rows[k] is P(k-1, .)
        table, row = poincare.betti_unordered_table(k, max_n), rows[k]
        for j in range(STABLE_MAX_J + 1):
            for n in range(j, max_n + 1):
                rank = table[n].coefficient(j)
                expected = row[j] + (row[j - 1] if n > j > 0 else 0)
                detail = "" if rank == expected else f"rank H^{j} = {rank}, expected {expected}"
                yield "unordered", k, n, rank == expected, detail

    if "unordered" not in scope.spaces:
        return  # run_suites would drop every stabilization cell
    yield from _per_k(scope.ks(6), "unordered", stable_cells)


# -- series -----------------------------------------------------------


def _ordered_shape(k: int, n: int) -> tuple[bool, str]:
    p = poincare.poincare_ordered(k, n)
    if any(p.coefficient(e) < 0 for e in p.support()):
        return False, f"negative coefficient in {p}"
    if p.coefficient(0) != 1:
        return False, f"constant term {p.coefficient(0)} != 1"
    expected_degree = 0 if n == 0 else (n if k >= 1 else n - 1)
    if p.degree() != expected_degree:
        return False, f"degree {p.degree()} != {expected_degree}"
    # the factors are 1 + m x for m = k..k+n-1; at k = 0, 1 + 0x adds no degree
    lead = math.prod(range(max(k, 1), k + n))
    if p.coefficient(expected_degree) != lead:
        return False, f"leading coefficient {p.coefficient(expected_degree)} != {lead}"
    return True, ""


def _virtual_shape(p: LaurentPoly, n: int) -> tuple[bool, str]:
    if any(e % 2 or e < 0 for e in p.support()):
        return False, f"support {p.support()} not contained in even exponents"
    if not p or p.degree() != 2 * n:
        return False, f"{p} is not of degree {2 * n}"
    if p.coefficient(2 * n) != 1:
        return False, f"{p} is not monic"
    return True, ""


def suite_series(scope: Scope) -> Iterator[Cell]:
    """k <= 6 and series order 12, shape checks for n <= 10; ``max_n``
    replaces both the order and the shape bound.

    ``unordered_series(k)`` and ``virtual_unordered_series(k)`` are built
    once for every k.  The first is checked against the closed form and the
    Napolitano chain, the second against the raw virtual form and the shape
    of a virtual polynomial.  The chain and the raw form are carried from
    k = 0 as Kronecker ints at x = 2^b, b from the last k, and compared with
    a ring series by encoding it.  The pyramidal 1/(1 - y)^(k+1) and the
    stable (1 + y)/(1 - y)^k generating functions are read from the
    running-sum rows of :func:`combinatorics.pyramidal_rows`.  At the last
    k > 0, the public raw route is compared with the public simplified
    series and then with the carried raw form."""
    from . import kronecker

    order, shape_max_n = scope.n(12), scope.n(10)
    ks = scope.ks(6)
    bits = kronecker.bit_width(ks[-1], order)
    # (k, chain, raw): made at k = 0 by the first k's cells, with the rows,
    # and carried up to each asked-for k by the steps alone, one call each
    # per k, so a wrong step at some k shows there first and at every k
    # after it
    carried = rows = None

    def same(u, v) -> bool:
        """Two ring polynomials, or one and a Kronecker int it is encoded to meet."""
        if type(u) is int:
            u, v = v, u
        return u == v if type(v) is not int else kronecker.encode(u, bits) == v

    def shown(v) -> LaurentPoly:
        return LaurentPoly(kronecker.decode(v, bits)) if type(v) is int else v

    def cells(k: int) -> Iterator[Cell]:
        nonlocal carried, rows
        q_series = poincare.unordered_series(k, order)
        simplified = virtual.virtual_unordered_series(k, order)
        if carried is None:
            rows = combinatorics.pyramidal_rows(ks[-1], order)  # rows[k] is P(k-1, .)
            carried = 0, kronecker.chain_base(order, bits), kronecker.raw_base(order, bits)
        while carried[0] < k:
            done, chain, raw = carried
            carried = done + 1, kronecker.chain_step(chain, bits), kronecker.raw_step(raw)
        _, chain, raw = carried
        # the forms compared, in order; the public raw route is built at the
        # last k alone, and checked against both the others
        forms = [(("raw form", raw), ("simplified form", simplified))]
        if k == ks[-1] and k > 0:
            public_raw = ("raw form", virtual.getzler_series_raw(k, order))
            forms = [
                (public_raw, ("simplified form", simplified)),
                (public_raw, ("carried raw form", raw)),
            ]

        def three_way(k: int, n: int) -> tuple[bool, str]:
            a, s = poincare.betti_unordered(k, n), q_series[n]
            if a == s and same(s, chain[n]):
                return True, ""
            return False, f"closed form {a}, series {s}, iterated step {shown(chain[n])}"

        for n in range(order + 1):
            yield _cell("unordered", k, n, three_way, k, n)

        def forms_agree(n: int) -> tuple[bool, str]:
            for (name_a, a), (name_b, b) in forms:
                if not same(a[n], b[n]):
                    return False, f"{name_a} {shown(a[n])} != {name_b} {shown(b[n])}"
            return True, ""

        for n in range(order + 1):
            yield _cell("unordered", k, n, forms_agree, n)

        for n in range(shape_max_n + 1):
            yield _cell(
                "ordered", k, n,
                lambda: _virtual_shape(virtual.virtual_ordered(k, n), n),
            )
            yield _cell("unordered", k, n, lambda: _virtual_shape(simplified[n], n))
            yield _cell("ordered", k, n, _ordered_shape, k, n)

        def coefficient(
            gf: Sequence[int], label: str, formula: Callable, i: int
        ) -> tuple[bool, str]:
            got, expected = gf[i], formula(k, i)
            if got == expected:
                return True, ""
            return False, f"{label} coefficient {got} != {expected}"

        # the pyramidal and the stable series, each against its own formula
        stable_gf = [c + b for c, b in zip(rows[k], (0, *rows[k]))]  # (1 + y) rows[k]
        for space, gf, label, formula, bound in (
            ("-", rows[k + 1], f"1/(1-y)^{k + 1}", combinatorics.pyramidal, order),
            (
                "unordered", stable_gf, f"(1+y)/(1-y)^{k}", poincare.stable_betti,
                min(order, STABLE_MAX_J),
            ),
        ):
            for i in range(bound + 1):
                yield _cell(space, k, i, coefficient, gf, label, formula, i)

    yield from _per_k(ks, "-", cells)


# -- duality ----------------------------------------------------------


def suite_duality(scope: Scope) -> Iterator[Cell]:
    """k <= 6, n <= 12."""
    max_n = scope.n(12)

    def cells(space: str, k: int) -> Iterator[Cell]:
        named = False  # only the first mismatch of a (space, k) shows both sides
        for n, (lhs, rhs) in enumerate(duality.check_duality(k, max_n, space)):
            ok = lhs == rhs
            if ok:
                detail = ""
            elif named:
                detail = "transformed standard != virtual"
            else:
                detail, named = f"transformed standard {lhs} != virtual {rhs}", True
            yield space, k, n, ok, detail

    for space in scope.spaces:
        yield from _per_k(scope.ks(6), space, partial(cells, space))


# -- pointcount -------------------------------------------------------


POINTCOUNT_MAX_N = 5


def suite_pointcount(scope: Scope) -> Iterator[Cell]:
    """k <= 3 (and k < q), n <= 5."""
    from . import ffield

    max_n = scope.n(POINTCOUNT_MAX_N)

    def cells(q: int, k: int) -> Iterator[Cell]:
        for space, n, count, value in ffield.oracle_check(q, k, max_n):
            yield space, k, n, count == value, f"q={q}: enumerated {count}, formula {value}"

    def methods_agree(q: int, n: int) -> tuple[bool, str]:
        bad = ffield.squarefree_disagreements(q, n)
        if bad:
            return False, f"q={q}: squarefree tests disagree at {bad[0]!r}"
        return True, f"q={q}: squarefree tests agree on all monic degree-{n}"

    for q in scope.primes:
        ks = [k for k in scope.ks(3) if k < q]
        yield from _per_k(ks, "-", partial(cells, q), f"q={q}: ")
        for n in range(max_n + 1):
            yield _cell("-", 0, n, methods_agree, q, n)


# -- euler ------------------------------------------------------------


def suite_euler(scope: Scope) -> Iterator[Cell]:
    """k <= 6, n <= 10."""
    max_n = scope.n(10)

    def cells(space: str, k: int) -> Iterator[Cell]:
        for n, (standard, virt) in enumerate(duality.euler_consistency(k, max_n, space)):
            ok = standard == virt
            yield space, k, n, ok, "" if ok else "standard(-1) != virtual(1)"

    for space in scope.spaces:
        yield from _per_k(scope.ks(6), space, partial(cells, space))


# -- runner -----------------------------------------------------------


def run_suites(
    names: Iterable[str], scope: Scope = Scope()
) -> tuple[VerifySummary, list[CheckResult]]:
    """Run the named suites (or all of them) over ``scope``; collect every
    check.

    An unknown suite name raises ValueError, and a pointcount run past
    ``ffield.ENUMERATION_BUDGET`` raises ``ffield.TooLargeError``, both
    before any suite runs.  A suite that raises outside its cells and its
    ks keeps the cells it made and adds one failed cell ('-', -1, -1) that
    names the exception; the suites after it still run."""
    wanted = set(names)
    unknown = wanted - set(SUITES) - {"all"}
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")

    ran = tuple(s for s in SUITES if s in wanted or "all" in wanted)
    if "pointcount" in ran:
        from . import ffield

        ffield.check_budget(scope.primes, scope.n(POINTCOUNT_MAX_N))
    results: list[CheckResult] = []
    suite_durations = []
    for name in ran:
        suite_start = time.perf_counter()
        try:
            # looked up when it runs, so a replaced suite (a test's patch, a
            # tracer's wrapper) is the one that runs
            for space, k, n, passed, detail in globals()[f"suite_{name}"](scope):
                if space == "-" or space in scope.spaces:
                    results.append(CheckResult(name, space, k, n, passed, detail))
        except Exception as exc:  # a crash outside its cells and ks stays one failed cell
            results.append(CheckResult(name, *_crashed("-", -1, -1, exc)))
        suite_durations.append(time.perf_counter() - suite_start)

    failed = [r for r in results if not r.passed]
    summary = VerifySummary(
        suites=ran,
        passed=len(results) - len(failed),
        failed=len(failed),
        first_failure=failed[0] if failed else None,
        suite_durations=tuple(suite_durations),
    )
    return summary, results
