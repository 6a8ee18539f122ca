"""Deformation-parameter arithmetic: powers of q and the normalization product.

Everything downstream works with powers of a fixed deformation parameter q.
Symbolic exponents are plain numbers (integers wherever the library builds
them); the twist enters numerically, as per-mode shifts at the trace.
"""
from __future__ import annotations

import cmath
import itertools
import math
import sys
from dataclasses import dataclass

# Pole screen of the trace, `normalization` and `QFamily.c_l`.
TOLERANCE = 1e-12


def relative(num, scale):
    """num measured against scale; a zero scale counts as 1e-300, so a
    zero num reads 0 rather than nan."""
    return num / max(scale, 1e-300)


@dataclass(frozen=True)
class QContext:
    """Numeric context shared across a computation.

    Attributes:
        q: The deformation parameter (nonzero, not a root of unity; the
            default regime is real with 0 < q < 1).
        tau: Unused by the library, whose twist lives in `TwistConfig`;
            kept only because the benchmark's workloads pass it.
    """

    q: complex = 0.7
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


def normalization(L: int, z: complex, ctx: QContext) -> complex:
    """exp(-F(z)) for F(z) = sum_{n>=1} z^n / (n [L]_{q^n}), with |q| < 1.

    Expanding 1/[L]_{q^n} as a geometric series in q^{2Ln} gives
    prod_{k>=0} (1 - q^{L-1+2Lk} z) / (1 - q^{L+1+2Lk} z): the analytic
    continuation of exp(-F) to every z off its poles.  Factors are taken
    until q^{L-1+2Lk} |z| falls below double-precision epsilon.  A zero or
    a pole, a factor below `TOLERANCE`, raises ZeroDivisionError (an
    ArithmeticError): dividing by the product, or forming it, would divide
    by zero.
    """
    if not abs(ctx.q) < 1.0:
        raise ValueError("the normalization product needs |q| < 1")
    out = 1.0 + 0j
    for k in itertools.count():
        e = L - 1 + 2 * L * k
        zero = ctx.qpow(e) * z
        if abs(zero) < sys.float_info.epsilon:
            return out
        num, den = 1.0 - zero, 1.0 - ctx.qpow(e + 2) * z
        if abs(num) < TOLERANCE or abs(den) < TOLERANCE:
            raise ZeroDivisionError("normalization product of [%d]_q has a "
                                    "zero or pole at z = %r" % (L, z))
        out *= num / den
