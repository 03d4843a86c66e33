"""Finite-field brute-force oracle: enumeration counts and polynomial helpers."""

import inspect

import pytest

import confpoly.combinatorics as combinatorics
import confpoly.duality as duality
import confpoly.ffield as ffield
import confpoly.poincare as poincare
import confpoly.virtual as virtual
from confpoly.ffield import (
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

# count_squarefree_coprime(q, k, n) and count_ordered_configs(q, k, n) for
# n = 0..5, as the per-(k, n) enumeration computed them before the counts
# moved to one table per (q, n)
SQUAREFREE_COPRIME = {
    (2, 0): (1, 2, 2, 4, 8, 16),
    (2, 1): (1, 1, 1, 3, 5, 11),
    (3, 0): (1, 3, 6, 18, 54, 162),
    (3, 1): (1, 2, 4, 14, 40, 122),
    (3, 2): (1, 1, 3, 11, 29, 93),
    (5, 0): (1, 5, 20, 100, 500, 2500),
    (5, 1): (1, 4, 16, 84, 416, 2084),
    (5, 2): (1, 3, 13, 71, 345, 1739),
    (5, 3): (1, 2, 11, 60, 285, 1454),
    (7, 0): (1, 7, 42, 294, 2058, 14406),
    (7, 1): (1, 6, 36, 258, 1800, 12606),
    (7, 2): (1, 5, 31, 227, 1573, 11033),
    (7, 3): (1, 4, 27, 200, 1373, 9660),
}
ORDERED = {
    (2, 0): (1, 2, 2, 0, 0, 0),
    (2, 1): (1, 1, 0, 0, 0, 0),
    (3, 0): (1, 3, 6, 6, 0, 0),
    (3, 1): (1, 2, 2, 0, 0, 0),
    (3, 2): (1, 1, 0, 0, 0, 0),
    (5, 0): (1, 5, 20, 60, 120, 120),
    (5, 1): (1, 4, 12, 24, 24, 0),
    (5, 2): (1, 3, 6, 6, 0, 0),
    (5, 3): (1, 2, 2, 0, 0, 0),
    (7, 0): (1, 7, 42, 210, 840, 2520),
    (7, 1): (1, 6, 30, 120, 360, 720),
    (7, 2): (1, 5, 20, 60, 120, 120),
    (7, 3): (1, 4, 12, 24, 24, 0),
}


@pytest.fixture
def fresh_tables():
    """Empty the per-(q, n) caches before a test patches what they are
    built from, and again after, so no patched table outlives the test."""
    ffield.clear_caches()
    yield
    ffield.clear_caches()


def _assert_pinned_counts():
    for (q, k), counts in SQUAREFREE_COPRIME.items():
        assert tuple(count_squarefree_coprime(q, k, n) for n in range(6)) == counts
    for (q, k), counts in ORDERED.items():
        assert tuple(count_ordered_configs(q, k, n) for n in range(6)) == counts


def _raise(*args, **kwargs):
    raise AssertionError("must not be called")


class TestPrimeField:
    def test_primality_checked(self):
        PrimeField(2)
        PrimeField(97)
        with pytest.raises(ValueError):
            PrimeField(4)
        with pytest.raises(ValueError):
            PrimeField(1)
        with pytest.raises(ValueError):
            PrimeField(100)

    def test_size_policy(self):
        with pytest.raises(ValueError):
            PrimeField(101)


class TestFieldPoly:
    def test_normalization(self):
        f5 = PrimeField(5)
        assert FieldPoly(f5, (1, 2, 0, 0)).coeffs == (1, 2)
        assert FieldPoly(f5, (0, 0)).is_zero()
        assert FieldPoly(f5, (7, 6)).coeffs == (2, 1)
        assert FieldPoly(f5, (0, 0, 1)).is_monic()

    def test_divmod_exhaustive(self):
        f3 = PrimeField(3)
        import itertools

        all_f = [FieldPoly(f3, c) for c in itertools.product(range(3), repeat=4)]
        divisors = [
            FieldPoly(f3, c)
            for c in itertools.product(range(3), repeat=3)
            if any(c)
        ]
        for f in all_f:
            for g in divisors:
                quot, rem = divmod(f, g)
                assert quot * g + rem == f
                assert rem.degree() < g.degree()
                assert f % g == rem
                # reduced and stripped, as the constructor would leave them
                for p in (quot, rem, f % g):
                    assert p.coeffs == FieldPoly(f3, p.coeffs).coeffs
        zero = FieldPoly(f3, ())
        with pytest.raises(ZeroDivisionError):
            divmod(all_f[5], zero)
        with pytest.raises(ZeroDivisionError):
            all_f[5] % zero

    def test_derivative(self):
        f5 = PrimeField(5)
        # d/dt (t^5 + 2t^2 + 3) = 5t^4 + 4t = 4t over F_5
        f = FieldPoly(f5, (3, 0, 2, 0, 0, 1))
        assert f.derivative().coeffs == (0, 4)

    def test_gcd_monic_and_divides(self):
        f5 = PrimeField(5)
        a = FieldPoly(f5, (1, 1))       # t + 1
        b = FieldPoly(f5, (2, 1))       # t + 2
        c = FieldPoly(f5, (4, 1))       # t + 4
        g = (a * b).gcd(a * c)
        assert g == a
        assert ((a * a * b).gcd(a * a * c)) == a * a

    def test_evaluate(self):
        f7 = PrimeField(7)
        f = FieldPoly(f7, (1, 0, 1))    # t^2 + 1
        assert [f.evaluate(a) for a in range(7)] == [(a * a + 1) % 7 for a in range(7)]


class TestSquarefree:
    def test_known_cases(self):
        f3 = PrimeField(3)
        t = FieldPoly(f3, (0, 1))
        one = FieldPoly(f3, (1,))
        assert is_squarefree(one)
        assert is_squarefree(t)
        assert not is_squarefree(t * t)
        assert not is_squarefree(t * t * (t + one))

    def test_inseparable_power(self):
        # t^3 = (t)^3 over F_3; derivative vanishes identically
        f3 = PrimeField(3)
        cube = FieldPoly(f3, (0, 0, 0, 1))
        assert cube.derivative().is_zero()
        assert not is_squarefree(cube)

    def test_methods_agree_small_fields(self):
        for q in (2, 3, 5):
            fld = PrimeField(q)
            for n in range(5):
                for f in monic_polys(fld, n):
                    assert is_squarefree(f) == is_squarefree_by_sieve(f)

    def test_disagreement_scan_empty(self):
        for q in (2, 3, 5):
            for n in range(5):
                assert squarefree_disagreements(q, n) == []

    def test_dropped_sieve_product_is_named(self, monkeypatch, fresh_tables):
        f3 = PrimeField(3)
        t = FieldPoly(f3, (0, 1))
        dropped = t * t * (t + FieldPoly(f3, (1,)))  # only as g^2*h with g = t
        real = ffield._square_multiples

        def leaky(fld, n):
            return (f for f in real(fld, n) if f != dropped)

        monkeypatch.setattr(ffield, "_square_multiples", leaky)
        assert squarefree_disagreements(3, 3, limit=5) == [dropped]
        assert squarefree_disagreements(3, 2) == []

    def test_sieve_never_calls_the_gcd_test(self, monkeypatch, fresh_tables):
        monkeypatch.setattr(ffield, "is_squarefree", _raise)
        for name in ("gcd", "derivative", "__divmod__", "__mod__", "_divide"):
            monkeypatch.setattr(FieldPoly, name, _raise)
        for q in (2, 3, 5, 7):
            for n in range(6):
                sieve = ffield._square_sieve(q, n)
                # q^n - q^(n-1) monic polynomials of degree n >= 2 are squarefree
                assert sieve.count(0) == (q**n - q ** (n - 1) if n >= 2 else q**n)


class TestCounts:
    def test_ordered_reference(self):
        assert count_ordered_configs(5, 2, 3) == 6
        assert count_ordered_configs(7, 0, 0) == 1
        assert count_ordered_configs(7, 1, 3) == 120

    def test_ordered_vanishing_threshold(self):
        # no n-tuple of distinct allowed values exists once n > q - k
        for q in (2, 3, 5):
            for k in range(q):
                for n in range(q - k + 2):
                    count = count_ordered_configs(q, k, n)
                    assert (count == 0) == (n > q - k)

    def test_squarefree_reference(self):
        assert count_squarefree_coprime(3, 0, 2) == 6
        assert count_squarefree_coprime(5, 2, 3) == 71
        assert count_squarefree_coprime(2, 0, 0) == 1

    def test_pinned_tables(self):
        _assert_pinned_counts()

    def test_counts_use_no_formula(self, monkeypatch, fresh_tables):
        for module in (combinatorics, duality, poincare, virtual):
            for name, value in vars(module).items():
                if inspect.isfunction(value):
                    monkeypatch.setattr(module, name, _raise)
        _assert_pinned_counts()

    def test_budget(self):
        with pytest.raises(TooLargeError):
            count_ordered_configs(97, 0, 5)
        with pytest.raises(TooLargeError):
            count_squarefree_coprime(97, 0, 5)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            count_ordered_configs(3, 3, 1)
        with pytest.raises(ValueError):
            count_ordered_configs(4, 0, 1)
        with pytest.raises(ValueError):
            count_squarefree_coprime(5, -1, 2)
        with pytest.raises(ValueError):
            count_squarefree_coprime(5, 0, -1)


class TestOracleCheck:
    def test_reference_run(self):
        reports = oracle_check(5, 2, 3)
        assert len(reports) == 8
        assert all(r.agree for r in reports)

    def test_tiny_field(self):
        reports = oracle_check(2, 1, 3)
        assert all(r.agree for r in reports)
        ordered = {r.n: r.oracle_count for r in reports if r.space == "ordered"}
        assert ordered[0] == 1 and ordered[1] == 1
        assert ordered[2] == 0 and ordered[3] == 0

    def test_precondition_violation(self):
        with pytest.raises(ValueError):
            oracle_check(3, 3, 1)

    def test_agree_field_is_derived(self):
        r = OracleReport(5, 2, 3, "ordered", 6, 6)
        assert r.agree
        r = OracleReport(5, 2, 3, "ordered", 6, 7)
        assert not r.agree

    def test_one_unordered_series_per_call(self, monkeypatch):
        calls = []
        real = virtual.virtual_unordered_series

        def counted(k, order):
            calls.append((k, order))
            return real(k, order)

        monkeypatch.setattr(virtual, "virtual_unordered", _raise)
        monkeypatch.setattr(virtual, "virtual_unordered_series", counted)
        assert all(r.agree for r in oracle_check(5, 2, 4))
        assert calls == [(2, 4)]

    def test_acceptance_range(self):
        for q in (2, 3, 5):
            for k in range(min(q, 4)):
                assert all(r.agree for r in oracle_check(q, k, 4))
