"""Kronecker-substituted series: the encoding, the bit width, the chains
against the ring routes, and the chains with every ring kernel refused."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import confpoly.kronecker as kronecker
import confpoly.poincare as poincare
import confpoly.ring as ring
import confpoly.virtual as virtual
from confpoly.ring import LaurentPoly, TruncSeries


@st.composite
def fitting(draw):
    """(p, b): a polynomial with support in 0..12 whose coefficients all
    have |c| < 2^(b-1)."""
    b = draw(st.integers(2, 100))
    half = 1 << (b - 1)
    terms = draw(st.dictionaries(st.integers(0, 12), st.integers(1 - half, half - 1)))
    return LaurentPoly(terms), b


@given(fitting())
def test_decode_reads_back_encode(case):
    p, b = case
    v = kronecker.encode(p, b)
    assert v == p.eval_int(1 << b)
    assert LaurentPoly(kronecker.decode(v, b)) == p


def test_digits_are_balanced():
    # each digit lies in [-2^(b-1), 2^(b-1)), the low end included
    assert kronecker.decode(-(1 << 43), 44) == {0: -(1 << 43)}
    assert kronecker.decode(1 << 43, 44) == {0: -(1 << 43), 1: 1}
    assert kronecker.decode(-1, 44) == {0: -1}


@pytest.mark.parametrize("c", [1 << 43, -(1 << 43), 1 << 60])
def test_a_coefficient_outside_the_width_raises(c):
    with pytest.raises(ValueError, match="too large"):
        kronecker.encode(LaurentPoly({0: 1, 3: c}), 44)
    # the largest that fits
    assert kronecker.decode(kronecker.encode(LaurentPoly({3: (1 << 43) - 1}), 44), 44) == {
        3: (1 << 43) - 1
    }


def test_a_negative_exponent_raises():
    with pytest.raises(ValueError):
        kronecker.encode(LaurentPoly({-1: 1}), 44)


def test_bit_width_at_the_cli_limits():
    assert kronecker.bit_width(32, 64) == 88
    assert kronecker.bit_width(16, 32) == 44


def test_chains_fit_and_match_the_routes_up_to_the_limits():
    # every coefficient of both chains for k <= 32 at order 64 is below
    # 2^(b-1), and the chains equal the ring routes there
    order = 64
    b = kronecker.bit_width(32, order)
    chain, raw = kronecker.chain_base(order, b), kronecker.raw_base(order, b)
    for k in range(33):
        for row, route in ((chain, poincare.unordered_series), (raw, virtual.getzler_series_raw)):
            digits = [kronecker.decode(v, b) for v in row]
            assert max(abs(c) for terms in digits for c in terms.values()) < 1 << (b - 1)
            assert [LaurentPoly(terms) for terms in digits] == list(route(k, order).coeffs)
        chain, raw = kronecker.chain_step(chain, b), kronecker.raw_step(raw)


def test_chains_run_no_ring_kernel(monkeypatch):
    """With every ring kernel patched to raise, the chains, their encoding
    and decoding still give the values the public routes gave before."""
    order, last_k = 12, 6
    public = [
        (poincare.unordered_series(k, order), virtual.getzler_series_raw(k, order))
        for k in range(last_k + 1)
    ]

    def refused(*args):
        raise AssertionError("the Kronecker chains ran a ring kernel")

    with monkeypatch.context() as m:
        m.setattr(ring, "_dot", refused)
        for name in ("__add__", "__radd__", "__neg__", "__mul__", "__rmul__"):
            m.setattr(LaurentPoly, name, refused)
        for name in ("__mul__", "__truediv__", "__pow__"):
            m.setattr(TruncSeries, name, refused)
        b = kronecker.bit_width(last_k, order)
        chain, raw = kronecker.chain_base(order, b), kronecker.raw_base(order, b)
        for k, (series, raw_series) in enumerate(public):
            assert chain == [kronecker.encode(c, b) for c in series.coeffs], k
            assert raw == [kronecker.encode(c, b) for c in raw_series.coeffs], k
            assert [kronecker.decode(v, b) for v in raw] == [
                dict(zip(c.support(), map(c.coefficient, c.support()))) for c in raw_series.coeffs
            ]
            chain, raw = kronecker.chain_step(chain, b), kronecker.raw_step(raw)


def test_imports_no_route_and_no_ring():
    # in a fresh interpreter, so no other test's imports count
    script = (
        "import sys, confpoly.kronecker\n"
        "print(*sorted(m for m in sys.modules if 'confpoly' in m))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["confpoly", "confpoly.kronecker"]
