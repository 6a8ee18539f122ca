"""Deformation-parameter arithmetic: powers of q and the normalization series.

Everything downstream works with powers of a fixed deformation parameter q.
Symbolic exponents are plain numbers (integers wherever the library builds
them); the twist enters numerically, as per-mode shifts at the trace.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class QContext:
    """Numeric context shared across a computation.

    Attributes:
        q: The deformation parameter (nonzero, not a root of unity; the
            default regime is real with 0 < q < 1).
        tolerance: Relative threshold used when pruning symbolic expressions
            and when screening traces for poles.
        tau: Numeric values of the twist parameters tau_1..tau_{l+1}, kept
            for callers that record them; the Q builds read the twist from
            `TwistConfig`.
    """

    q: complex = 0.7
    tolerance: float = 1e-12
    tau: tuple = ()

    @property
    def kappa(self) -> complex:
        return self.q - 1.0 / self.q

    def qpow(self, nu) -> complex:
        """q**nu on the principal branch (exact for real positive q)."""
        if isinstance(self.q, complex) or self.q <= 0:
            return cmath.exp(nu * cmath.log(self.q))
        if isinstance(nu, complex):
            return cmath.exp(nu * math.log(self.q))
        return self.q ** nu


# Terms summed by `f_series` before it gives up.
F_SERIES_MAX_TERMS = 100000


def f_series(rank_plus_one: int, z: complex, ctx: QContext) -> complex:
    """sum_{n>=1} z^n / (n [rank_plus_one]_{q^n}), convergent for |z| < 1.

    Satisfies sum_{j=1}^{L} F(q^{L-2j+1} z) = -log(1 - z) with
    L = rank_plus_one, which the tests exercise.
    """
    if abs(z) >= 1.0:
        raise ValueError("series diverges for |z| >= 1 (got |z|=%g)" % abs(z))
    total = 0.0 + 0j
    zn = 1.0 + 0j
    for n in range(1, F_SERIES_MAX_TERMS + 1):
        zn *= z
        term = zn / (n * _q_int(rank_plus_one, n, ctx))
        total += term
        if abs(term) < ctx.tolerance * max(1.0, abs(total)):
            return total
    raise RuntimeError("series did not converge within %d terms"
                       % F_SERIES_MAX_TERMS)


def _q_int(m: int, n: int, ctx: QContext) -> complex:
    """[m]_{q^n} without constructing a new context."""
    qn = ctx.qpow(n)
    return (qn ** m - qn ** (-m)) / (qn - 1.0 / qn)
