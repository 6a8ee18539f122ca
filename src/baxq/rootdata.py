"""Root data of type A_l: the Weyl vector rho.

Weights are (l+1)-tuples in epsilon coordinates (partition-like labels
mu_1..mu_{l+1}), which is what the determinant formulas are indexed by.
"""
from __future__ import annotations


def rho(l: int) -> tuple:
    """Staircase shifts rho_a = l/2 - a + 1 in epsilon coordinates."""
    return tuple(l / 2 - a + 1 for a in range(1, l + 2))
