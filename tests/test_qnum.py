"""Deformation arithmetic: powers of q, normalization series."""
import cmath
import math

import pytest
from hypothesis import given, strategies as st

from baxq.qnum import QContext, f_series

CTX = QContext(q=0.7)


def test_qpow_exact_for_real_q():
    assert CTX.qpow(2) == pytest.approx(0.49)
    assert CTX.qpow(-1) == pytest.approx(1.0 / 0.7)


@given(st.integers(min_value=2, max_value=4),
       st.floats(min_value=0.05, max_value=0.8),
       st.floats(min_value=0.0, max_value=2 * math.pi))
def test_f_series_telescopes_to_log(rank_plus_one, radius, angle):
    """sum_{j=1}^{L} F(q^{L-2j+1} z) = -log(1 - z) needs |q^{L-2j+1} z| < 1;
    q^{1-L} r < 1 bounds the admissible radius."""
    z = radius * complex(math.cos(angle), math.sin(angle))
    if abs(z) * CTX.qpow(1 - rank_plus_one) >= 0.95:
        return
    total = sum(
        f_series(rank_plus_one, CTX.qpow(rank_plus_one - 2 * j + 1) * z, CTX)
        for j in range(1, rank_plus_one + 1)
    )
    assert total == pytest.approx(-cmath.log(1 - z), abs=1e-9)


def test_f_series_diverges_outside_disk():
    with pytest.raises(ValueError):
        f_series(2, 1.2, CTX)
