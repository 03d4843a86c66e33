"""Finite-field brute-force oracle: enumeration counts and polynomial helpers."""

import hashlib
import inspect
import itertools
import time

import pytest

import confpoly.cli as cli
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
    monic_polys,
    oracle_check,
    squarefree_disagreements,
)
from confpoly.verify import Scope, run_suites

from by_hand import field_product_by_hand, square_sieve_by_hand

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

# SHA-256 of _polynomial_table(q, n) at the default primes, as the
# FieldPoly-object gcd test and per-polynomial root search built them
# before both moved to the list kernels
POLYNOMIAL_TABLE_SHA256 = {
    (2, 0): "a5ab782c805e8bfbe34cb65742a0471cf5a53a97f0a1160ab6cccbb64c9131ce",
    (2, 1): "5dd1693933cc234394d793f125ab2a0bde44f490c262fe266ad35ee09e2a4016",
    (2, 2): "a6f2190acef11c734ef59f815acc4d253673e86b2487b76f82a4780e53982e95",
    (2, 3): "6d569428037d82ff8bc0c637ff1cbb09b5d177c0b1b22eae66f96cd88e4a5528",
    (2, 4): "bd1a448e6b2d58628a1c4589a2adf8beaf81cfdb21ba330b24136b5f1dbbd57a",
    (2, 5): "1720e5c3176704df73a5ea4ff190bfd920f422f999a9c0b00264b0f09c40ab8d",
    (3, 0): "5ee0dd4d4840229fab4a86438efbcaf1b9571af94f5ace5acc94de19e98ea9ab",
    (3, 1): "328d1f840c8de61fc7d500129aca145c52c6dcc9577a8258560edacd5df99b55",
    (3, 2): "380f6bec99010e7874365af700c4cdad1a9ba6fe570984604974b5bba48f6269",
    (3, 3): "39cce0b398d57566479034118cb2f1efebcc3cd60ca6469f60bce18a30c43a23",
    (3, 4): "2d843a9c7660dcf36e74f1777d01afd675178225d111fc97a205efd6f91ab814",
    (3, 5): "37ffd200ae7489069ed113c8f5e68a806beb66f5757242a62f05b70f1d1b389b",
    (5, 0): "c00e7f889cfc9216ec818bf2e1682fc6af0d89939c91776669478caf27c9727c",
    (5, 1): "f99c8f0f7ea3045f442d6fb952008b10545b2961cd6c5c7457b105cfb7976ba5",
    (5, 2): "d35429b60500b18613f9448daf3e9510cd989c584ef8101f5918bb5e210310e4",
    (5, 3): "f6c17cc12e0ac0099c1b205420dd9d46d6c63bb334ee7b9fe79457cea0057e10",
    (5, 4): "4c5c1b5c9a7ee5ed3b352f658bd79bb72c65c9bdef1b682f70ae52b8eaa10168",
    (5, 5): "d0b4357f48a643613ec7165be4f0f4303e4f4f2fc6c29f76c6c9d8c105bcce60",
    (7, 0): "4bfa260a661d68110a7a0a45264d2d43af9727de925cc2e09fb687b3651efe9d",
    (7, 1): "afcaaae0f2cb8b5a0011b351d816e838d65db7c03e2e40c9c9a166ad92100415",
    (7, 2): "d53ea86309cff873d7b49299f0a7efb0a678f9865e865841478fb5df67336e69",
    (7, 3): "aa680e3178a789dad0b3722588a83335c8a5b46a7ecaf5e07b68839ab1111d0e",
    (7, 4): "aad0aea3a52f9c4d19ffa16992eae2a8df821f90327f5935d9b87609bca147af",
    (7, 5): "1a404a0627b338bb12e2789c16bb6c3018c28ba98e623461d3037c8b383a1ec1",
}

# SHA-256 of _polynomial_table(q, 6), as the walk over translation orbits
# built them: groups fixed by a translate (p | 6 for p = 2, 3) and scalings
# x -> u*x that act as the identity ((q - 1) | 6 for q = 2, 3, 7)
DEGREE_6_TABLE_SHA256 = {
    2: "69af3169b97c72bcfb76e185a225c1cdc5e34ab566144b7a2a3ad16e0b0932f0",
    3: "a9a58f02b6354b868f6c3e73f0836cb4ce602cc8b6b61860b3309a487551034b",
    5: "1cbda62163810faab9edb1b022a780c9d7ad6f2ef1a0c051d1939960f85ac6d3",
    7: "0247ca160b928d419dacd1233e76414d65fc82f9b30231250dfc1d14576309ea",
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

    @pytest.mark.parametrize("q", [2.0, 3.0, True, "3"], ids=repr)
    def test_non_int_rejected(self, q):
        with pytest.raises(ValueError, match="q must be a nonnegative int"):
            PrimeField(q)

    def test_replace_and_make_are_checked(self):
        assert PrimeField(3)._replace(q=5) == PrimeField._make([5]) == PrimeField(5)
        with pytest.raises(ValueError, match="4 is not prime"):
            PrimeField(3)._replace(q=4)
        with pytest.raises(ValueError, match="size policy"):
            PrimeField._make([101])


class TestFieldPoly:
    def test_normalization(self):
        f5 = PrimeField(5)
        assert FieldPoly(f5, (1, 2, 0, 0)).coeffs == (1, 2)
        assert FieldPoly(f5, (0, 0)).coeffs == ()
        assert FieldPoly(f5, (7, 6)).coeffs == (2, 1)

    def test_divmod_exhaustive(self):
        # every f of degree <= 3 over F_3 is h*g + r for exactly one h and
        # one r with deg r < deg g, so this reaches each (f, g) pair once
        f3 = PrimeField(3)
        divisors = [
            (*low, lead)
            for deg in range(3)
            for lead in (1, 2)
            for low in itertools.product(range(3), repeat=deg)
        ]
        for g in divisors:
            deg = len(g) - 1
            for h in itertools.product(range(3), repeat=4 - deg):
                for r in itertools.product(range(3), repeat=deg):
                    hg = field_product_by_hand(3, h, g)
                    f = [a + b for a, b in itertools.zip_longest(hg, r, fillvalue=0)]
                    # reduced and stripped, as the constructor leaves them
                    assert divmod(FieldPoly(f3, f), FieldPoly(f3, g)) == (
                        FieldPoly(f3, h), FieldPoly(f3, r)
                    )
        with pytest.raises(ZeroDivisionError):
            divmod(FieldPoly(f3, (2, 1, 0, 1)), FieldPoly(f3, ()))

    def test_derivative(self):
        # d/dt (t^5 + 2t^2 + 3) = 5t^4 + 4t = 4t over F_5
        assert ffield._derivative([3, 0, 2, 0, 0, 1], 5) == [0, 4]

    def test_gcd_monic_and_divides(self):
        f5 = PrimeField(5)
        a, b, c, two = (1, 1), (2, 1), (4, 1), (2,)  # t + 1, t + 2, t + 4, 2

        def gcd(*pair):
            f, g = (FieldPoly(f5, field_product_by_hand(5, *factors)) for factors in pair)
            return f.gcd(g).coeffs

        assert gcd((a, b), (a, c)) == a
        assert gcd((a, a, b), (a, a, c)) == field_product_by_hand(5, a, a)
        assert gcd((two, a, b), (two, a, c)) == a

    def test_gcd_exhaustive(self):
        f3 = PrimeField(3)
        polys = [FieldPoly(f3, c) for c in itertools.product(range(3), repeat=3)]
        monics = [
            FieldPoly(f3, (*low, 1))
            for n in range(3)
            for low in itertools.product(range(3), repeat=n)
        ]
        zero, one = FieldPoly(f3, ()), FieldPoly(f3, (1,))

        def divides(h, f):
            return not divmod(f, h)[1].coeffs

        for f in polys:
            for g in polys:
                d = f.gcd(g)
                if not f.coeffs and not g.coeffs:
                    assert d == zero
                    continue
                # monic, a common divisor, and divisible by every common divisor
                assert d.coeffs[-1] == 1
                assert divides(d, f) and divides(d, g)
                assert all(divides(h, d) for h in monics if divides(h, f) and divides(h, g))
        for c in (1, 2):
            assert FieldPoly(f3, (c,)).gcd(zero) == one
            assert zero.gcd(FieldPoly(f3, (c,))) == one

    def test_evaluate(self):
        f7 = PrimeField(7)
        f = FieldPoly(f7, (1, 0, 1))    # t^2 + 1
        assert [f.evaluate(a) for a in range(7)] == [(a * a + 1) % 7 for a in range(7)]


class TestSquarefree:
    def test_known_cases(self):
        f3 = PrimeField(3)
        t, one = (0, 1), (1,)
        assert is_squarefree(FieldPoly(f3, one))
        assert is_squarefree(FieldPoly(f3, t))
        assert not is_squarefree(FieldPoly(f3, field_product_by_hand(3, t, t)))
        assert not is_squarefree(FieldPoly(f3, field_product_by_hand(3, t, t, (1, 1))))

    def test_inseparable_power(self):
        # t^3 = (t)^3 over F_3; derivative vanishes identically
        cube = (0, 0, 0, 1)
        assert ffield._derivative(cube, 3) == []
        assert not is_squarefree(FieldPoly(PrimeField(3), cube))

    def test_derivative_not_monic(self):
        # over F_7 the derivative of a monic quintic has leading coefficient 5
        f7 = PrimeField(7)
        linear = [(c, 1) for c in range(5)]  # t + c
        distinct = field_product_by_hand(7, *linear)
        # (t + 1)^2 (t^3 + 2)
        repeated = field_product_by_hand(7, linear[1], linear[1], (2, 0, 0, 1))
        for f in (distinct, repeated):
            assert len(f) == 6 and ffield._derivative(f, 7)[-1] == 5
        assert is_squarefree(FieldPoly(f7, distinct))
        assert not is_squarefree(FieldPoly(f7, repeated))

    def test_vanishing_derivative(self):
        # x^q + c = (x + c)^q over F_q, while x^q - x has derivative -1
        for q in (2, 3, 5, 7):
            fld = PrimeField(q)
            for c in range(q):
                f = (c,) + (0,) * (q - 1) + (1,)
                assert ffield._derivative(f, q) == []
                assert not is_squarefree(FieldPoly(fld, f))
            assert is_squarefree(FieldPoly(fld, (0, -1) + (0,) * (q - 2) + (1,)))

    def test_constants(self):
        f7 = PrimeField(7)
        assert is_squarefree(FieldPoly(f7, (1,)))
        assert is_squarefree(FieldPoly(f7, (3,)))
        assert not is_squarefree(FieldPoly(f7, ()))

    def test_large_field(self):
        f97 = PrimeField(97)
        a, b, c = ((r, 1) for r in (1, 2, 50))  # t + r
        assert is_squarefree(FieldPoly(f97, field_product_by_hand(97, a, b, c)))
        assert not is_squarefree(FieldPoly(f97, field_product_by_hand(97, a, a, c)))
        assert not is_squarefree(FieldPoly(f97, field_product_by_hand(97, a, b, b, c)))

    def test_disagreement_scan_empty(self):
        # n >= p covers the inseparable cases such as x^p + c
        for q, max_n in ((2, 10), (3, 7), (5, 5), (7, 5), (11, 4), (13, 3)):
            for n in range(max_n + 1):
                assert squarefree_disagreements(q, n) == []

    def test_dropped_sieve_product_is_named(self, monkeypatch, fresh_tables):
        dropped = FieldPoly(PrimeField(3), (0, 0, 1, 1))  # t^2 (t + 1), only as g^2*h with g = t
        at = 1  # its low coefficients (0, 0, 1) in base 3, constant term most significant
        real = ffield._times_every

        def leaky(columns, q):
            products = real(columns, q)

            def dropping(factor):
                n = len(columns) + len(factor) - 2
                return [i for i in products(factor) if (q, n, i) != (3, 3, at)]

            return dropping

        monkeypatch.setattr(ffield, "_times_every", leaky)
        assert squarefree_disagreements(3, 3) == [dropped]
        assert squarefree_disagreements(3, 2) == []

    def test_first_offender_is_named(self, monkeypatch, fresh_tables):
        # the sieve marks nothing, so every non-squarefree cubic is an offender
        monkeypatch.setattr(ffield, "_times_every", lambda columns, q: lambda factor: ())
        squareful = [f for f in monic_polys(PrimeField(3), 3) if not is_squarefree(f)]
        assert len(squareful) > 1
        assert squarefree_disagreements(3, 3) == squareful[:1]

    def test_flipped_group_verdict_is_named(self, monkeypatch, capsys, fresh_tables):
        # x^3 + x = x(x^2 + 1) over F_3 is squarefree; its group is c + x^3 + x
        real = ffield._squarefree_group

        def flipped(h, q):
            verdicts = real(h, q)
            if (q, h) == (3, [0, 1, 0, 1]):
                return bytes([verdicts[0] ^ ffield._SQUAREFREE]) + verdicts[1:]
            return verdicts

        monkeypatch.setattr(ffield, "_squarefree_group", flipped)
        assert cli.main(["verify", "pointcount"]) == 1
        out = capsys.readouterr().out
        assert (
            "FAIL suite=pointcount space=- k=0 n=3 | q=3: squarefree tests disagree "
            "at FieldPoly(q=3, coeffs=(0, 1, 0, 1))"
        ) in out.splitlines()
        monkeypatch.undo()
        ffield.clear_caches()
        assert squarefree_disagreements(3, 3) == []

    def test_flipped_verdict_spreads_over_its_orbit(self, monkeypatch, capsys, fresh_tables):
        # x^3 + x^2 heads an orbit of 10 groups over F_5 under x -> u*x + a,
        # each fixed by 2 of the 20 maps; the wrong verdict of
        # f = x^3 + x^2 + 3 = (x - 1)^2 (x + 3) spreads to one polynomial in
        # each, and f(x + 2) = x(x + 1)^2 comes first in enumeration order
        real = ffield._squarefree_group

        def flipped(h, q):
            verdicts = real(h, q)
            if (q, h) == (5, [0, 0, 1, 1]):
                return verdicts[:3] + bytes([verdicts[3] ^ ffield._SQUAREFREE]) + verdicts[4:]
            return verdicts

        monkeypatch.setattr(ffield, "_squarefree_group", flipped)
        verdicts = ffield._polynomial_table(5, 3).translate(ffield._SQUAREFUL)
        sieve = ffield._square_sieve(5, 3)
        wrong = [i for i, (a, b) in enumerate(zip(verdicts, sieve)) if a != b]
        assert len({i % 25 for i in wrong}) == len(wrong) == 10
        assert cli.main(["verify", "pointcount"]) == 1
        out = capsys.readouterr().out
        assert (
            "FAIL suite=pointcount space=- k=0 n=3 | q=5: squarefree tests disagree "
            "at FieldPoly(q=5, coeffs=(0, 1, 2, 1))"
        ) in out.splitlines()

    def test_sieve_never_calls_the_gcd_test(self, monkeypatch, fresh_tables):
        for name in (
            "is_squarefree", "_squarefree_group", "_shifted", "_gcd", "_divide", "_derivative",
            "_inverses", "_stripped", "monic_polys",
        ):
            monkeypatch.setattr(ffield, name, _raise)
        for name, value in list(vars(FieldPoly).items()):
            if inspect.isfunction(value):
                monkeypatch.setattr(FieldPoly, name, _raise)
        for q in (2, 3, 5, 7):
            for n in range(6):
                sieve = ffield._square_sieve(q, n)
                # q^n - q^(n-1) monic polynomials of degree n >= 2 are squarefree
                assert sieve.count(0) == (q**n - q ** (n - 1) if n >= 2 else q**n)


class TestSquareSieve:
    # every (q, n) of the default tables, fields past the default primes,
    # and degrees where p | n or the squares outnumber the cofactors
    @pytest.mark.parametrize(
        "q, n",
        [(q, n) for q in (2, 3, 5, 7) for n in range(6)]
        + [(2, 10), (3, 7), (7, 6), (11, 4), (13, 3), (97, 2), (97, 3)],
    )
    def test_matches_the_products_by_hand(self, q, n):
        assert ffield._square_sieve(q, n) == square_sieve_by_hand(q, n)

    @pytest.mark.parametrize(
        "n, held",
        [
            # d = 1: the 27 cofactors, times 3 squares; d = 2 > m = 1: the 9
            # squares, times 3 cofactors
            (5, [(4, 27, 3), (5, 9, 3)]),
            # d = 2 = m: a tie keeps the cofactors; d = 3 > m = 0: the squares
            (6, [(5, 81, 3), (3, 9, 9), (7, 27, 1)]),
        ],
    )
    def test_the_larger_set_is_held(self, monkeypatch, n, held):
        # per d, the (columns, members, calls) of the set held as columns:
        # m + 1 columns for the q^m cofactors, 2d + 1 for the q^d squares
        real, seen = ffield._times_every, []

        def recorded(columns, q):
            products = real(columns, q)
            seen.append([len(columns), len(columns[0]), 0])

            def counted(factor):
                seen[-1][2] += 1
                return products(factor)

            return counted

        monkeypatch.setattr(ffield, "_times_every", recorded)
        ffield._square_sieve(3, n)
        assert [tuple(s) for s in seen] == held

    def test_residue_sums_must_fit_a_byte(self):
        # (96 + x)(1 + 2x + x^2) = 96 + 96x + x^2 + x^3 mod 97: two residues
        # meet per coefficient (96 * 2 + 1 = 193), at most 2 * 96 = 192; three
        # can pass 255, which no (q, n) within the budget asks for
        products = ffield._times_every([b"\1", b"\2", b"\1"], 97)
        assert list(products([96, 1])) == [(96 * 97 + 96) * 97 + 1]
        with pytest.raises(ValueError, match="a sum of residues mod 97 can pass a byte"):
            products([0, 0, 1])


class TestTables:
    @pytest.mark.parametrize("q, max_n", [(2, 4), (3, 4), (5, 4), (7, 5), (11, 4)])
    def test_smallest_roots_match_evaluation(self, q, max_n):
        fld = PrimeField(q)
        for n in range(max_n + 1):
            expected = bytes(
                next((a for a in range(q) if f.evaluate(a) == 0), q)
                for f in monic_polys(fld, n)
            )
            assert ffield._smallest_roots(q, n) == expected

    @pytest.mark.parametrize(
        "q, max_n", [(2, 10), (3, 7), (5, 5), (7, 5), (11, 4), (13, 3)]
    )
    def test_grouped_verdicts_match_is_squarefree(self, q, max_n):
        fld = PrimeField(q)
        for n in range(max_n + 1):
            expected = bytes(
                ffield._SQUAREFREE if is_squarefree(f) else 0 for f in monic_polys(fld, n)
            )
            table = ffield._polynomial_table(q, n)
            assert bytes(b & ffield._SQUAREFREE for b in table) == expected

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_shifted_is_translation(self, q):
        fld = PrimeField(q)
        for n in range(5):
            for h in monic_polys(fld, n):
                for a in range(q):
                    g = ffield._shifted(h.coeffs, a, q)
                    assert len(g) == n + 1 and g[-1] == 1
                    shifted = FieldPoly(fld, g)
                    assert all(shifted.evaluate(x) == h.evaluate((x + a) % q) for x in range(q))

    @pytest.mark.parametrize("q, n, runs", [(7, 5, 68), (5, 5, 41)])
    def test_one_gcd_run_per_orbit(self, monkeypatch, fresh_tables, q, n, runs):
        # x -> u*x + a sends groups to groups, so there is one run per orbit
        # of groups: the q^(n-1) groups fall into 68 orbits over F_7 and 41
        # over F_5, against 343 and 129 under the translations alone
        calls = []
        real = ffield._squarefree_group

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(ffield, "_squarefree_group", counted)
        assert hashlib.sha256(ffield._polynomial_table(q, n)).hexdigest() == (
            POLYNOMIAL_TABLE_SHA256[q, n]
        )
        assert len(calls) == runs

    def test_degenerate_groups(self):
        group, flag = ffield._squarefree_group, ffield._SQUAREFREE
        # f' = 0: x^2 + c over F_2 and x^3 + c over F_3 are squares and cubes
        assert group([0, 0, 1], 2) == bytes(2)
        assert group([0, 0, 0, 1], 3) == bytes(3)
        # f' a nonzero constant: every c + x, and c + x^2 + x over F_2
        for q in (2, 3, 7):
            assert group([0, 1], q) == bytes([flag]) * q
        assert group([0, 1, 1], 2) == bytes([flag]) * 2

    @pytest.mark.parametrize("q, n", [(3, 2), (5, 3), (7, 4)])
    def test_derivative_dividing_f(self, q, n):
        # f' | f exactly when f = c + h for c = -(h mod f'), a constant; then
        # f is not squarefree.  x^n is one such f for every n < q.
        hits = 0
        for high in itertools.product(range(q), repeat=n - 1):
            h = [0, *high, 1]
            d = ffield._derivative(h, q)
            r0 = ffield._divide(h, d, q)
            if len(d) >= 2 and len(r0) <= 1:
                c = -r0[0] % q if r0 else 0
                assert ffield._squarefree_group(h, q)[c] == 0
                hits += 1
        assert hits > 0
        assert ffield._squarefree_group([0] * n + [1], q)[0] == 0

    def test_pinned_polynomial_tables(self):
        for (q, n), digest in POLYNOMIAL_TABLE_SHA256.items():
            assert hashlib.sha256(ffield._polynomial_table(q, n)).hexdigest() == digest

    @pytest.mark.parametrize("q", sorted(DEGREE_6_TABLE_SHA256))
    def test_pinned_degree_6_tables(self, q):
        digest = hashlib.sha256(ffield._polynomial_table(q, 6)).hexdigest()
        assert digest == DEGREE_6_TABLE_SHA256[q]

    @pytest.mark.parametrize("q, max_n", [(2, 5), (3, 5), (5, 5), (7, 5), (11, 4)])
    def test_tuple_minima_match_filtered_product(self, q, max_n):
        # all q^n tuples, kept when their entries are pairwise distinct
        for n in range(max_n + 1):
            expected = [0] * (q + 1)
            for tup in itertools.product(range(q), repeat=n):
                if len(set(tup)) == n:
                    expected[min(tup, default=q)] += 1
            assert ffield._tuple_minima(q, n) == tuple(expected)


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
        with pytest.raises(TooLargeError):
            squarefree_disagreements(97, 5)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: count_squarefree_coprime(7, 0, 10**7),
            lambda: ffield.check_budget((2, 3, 5, 7), 8000),
            lambda: run_suites(["pointcount"], Scope(max_n=8000)),
        ],
        ids=["huge-n", "huge-max-n", "huge-max-n-run"],
    )
    def test_budget_refuses_a_huge_n_at_once(self, call):
        # q >= 2, so n past the budget's bits is over it without building q^n,
        # and the run's sum stops at its first partial sum past the budget
        start = time.perf_counter()
        with pytest.raises(TooLargeError):
            call()
        assert time.perf_counter() - start < 0.1

    def test_preconditions(self):
        with pytest.raises(ValueError):
            count_ordered_configs(3, 3, 1)
        with pytest.raises(ValueError):
            count_ordered_configs(4, 0, 1)
        with pytest.raises(ValueError):
            squarefree_disagreements(4, 1)


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
        assert r._replace(oracle_count=7).agree
        assert not r._replace(formula_value=7)._replace(oracle_count=8).agree
        assert OracleReport._make([3, 1, 2, "unordered", 5, 5]).agree

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
