"""Deformation arithmetic: powers of q, normalization product."""
import cmath
import math

import pytest
from hypothesis import given, strategies as st

from baxq.qnum import QContext, normalization, relative

from oracles import f_series

CTX = QContext(q=0.7)


def test_qpow_exact_for_real_q():
    assert CTX.qpow(2) == pytest.approx(0.49)
    assert CTX.qpow(-1) == pytest.approx(1.0 / 0.7)


@given(st.integers(min_value=2, max_value=4),
       st.floats(min_value=0.05, max_value=3.0),
       st.floats(min_value=0.0, max_value=2 * math.pi))
def test_normalization_telescopes(rank_plus_one, radius, angle):
    """prod_{j=1}^{L} N(q^{L-2j+1} z) = 1 - z, the product form of
    sum_j F(q^{L-2j+1} z) = -log(1 - z), holds for every z off the zeros
    and poles of its factors, q^{L-2j+1+L+-1+2Lk} z = 1."""
    z = radius * complex(math.cos(angle), math.sin(angle))
    L = rank_plus_one
    shifts = [L - 2 * j + 1 for j in range(1, L + 1)]
    if any(abs(1 - CTX.qpow(e + d + 2 * L * k) * z) < 1e-3
           for e in shifts for d in (L - 1, L + 1) for k in range(2)):
        return
    total = 1.0
    for e in shifts:
        total *= normalization(L, CTX.qpow(e) * z, CTX)
    assert total == pytest.approx(1 - z, abs=1e-9)


@given(st.integers(min_value=2, max_value=4),
       st.floats(min_value=0.0, max_value=0.95),
       st.floats(min_value=0.0, max_value=2 * math.pi))
def test_normalization_is_exp_of_minus_series_inside_its_disk(
        rank_plus_one, radius, angle):
    z = radius * complex(math.cos(angle), math.sin(angle))
    want = cmath.exp(-f_series(rank_plus_one, z, CTX))
    got = normalization(rank_plus_one, z, CTX)
    assert abs(got - want) <= 1e-11 * abs(want)


def test_normalization_raises_at_exact_pole():
    """z = q^{-e} is a pole of the product for e = L + 1 + 2Lk, and a zero
    for e = L - 1 + 2Lk."""
    for L, e in ((2, 3), (2, 7), (3, 4), (2, 1), (3, 2)):
        with pytest.raises(ArithmeticError):
            normalization(L, CTX.qpow(-e), CTX)


def test_relative_reads_zero_against_zero_as_zero():
    assert relative(3.0, 4.0) == 0.75
    assert relative(0.0, 0.0) == 0.0
