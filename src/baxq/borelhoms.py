"""Oscillator realizations of the positive Borel half and its twisted family.

The base homomorphism sends the Chevalley generators of the upper Borel
subalgebra into the l-mode q-oscillator algebra; composing with powers of
the diagram rotation (index shift i -> i - a mod l+1) yields the family of
realizations indexed by a = 1..l+1 that underlies the different Baxter
operators.  The module carrying realization a is the tensor product of
(l - a + 1) lowering-type and (a - 1) raising-type Fock modules.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .oscalg import OscExpr
from .qnum import QContext


@dataclass(frozen=True)
class TwistConfig:
    """Boundary twist parameters tau_1..tau_{l+1}."""

    tau: Tuple[float, ...]

    @property
    def l(self) -> int:
        return len(self.tau) - 1

    def t(self, i: int) -> float:
        """t_i = tau_i - tau_{i+1} (1-based i in 1..l)."""
        return self.tau[i - 1] - self.tau[i]

    @classmethod
    def default(cls, l: int) -> "TwistConfig":
        # Generic, incommensurate values keep all trace denominators and
        # sector eigenvalues away from degeneracies.
        return cls(tuple(3.1 - 1.2 * i for i in range(l + 1)))


def _h_pattern(j: int, l: int) -> list:
    """Exponent pattern of the base image of q^{h_j}: coefficients on N_k."""
    if j == 0:
        return [2 if k == 1 else 1 for k in range(1, l + 1)]
    if j == l:
        return [-2 if k == l else -1 for k in range(1, l + 1)]
    return [1 if k == j + 1 else (-1 if k == j else 0) for k in range(1, l + 1)]


def _base_e_image(j: int, l: int, ctx: QContext) -> OscExpr:
    """Image of e_j under the base realization (a = l+1)."""
    if j == 0:
        # bdag_1 q^{N_2 + ... + N_l}
        spec = {1: (1, 0, 0)}
        for k in range(2, l + 1):
            spec[k] = (0, 0, 1)
        return OscExpr.monomial(l, spec)
    if j == l:
        # -kappa^{-1} b_l q^{N_l}
        spec = {l: (0, 1, 1)}
        return OscExpr.monomial(l, spec, -1.0 / ctx.kappa)
    # -b_j bdag_{j+1} q^{N_j - N_{j+1} - 1}
    spec = {j: (0, 1, 1), j + 1: (1, 0, -1)}
    return OscExpr.monomial(l, spec, -ctx.qpow(-1))


def o_image(kind: str, i: int, nu, a: int, l: int, ctx: QContext) -> OscExpr:
    """Image of generator i under realization a.

    kind is "e" (raising generator e_i, nu ignored) or "h" (Cartan
    exponential q^{nu h_i}); i runs over 0..l, a over 1..l+1.  Realization
    a sends generator i to the base image of generator (i - a) mod (l+1).
    """
    j = (i - a) % (l + 1)
    if kind == "e":
        return _base_e_image(j, l, ctx)
    if kind == "h":
        nu = Fraction(nu)
        pattern = _h_pattern(j, l)
        return OscExpr.q_exponent(l, [nu * c for c in pattern])
    raise ValueError("kind must be 'e' or 'h'")


def twist_coefficients(l: int) -> list:
    """Coefficients theta_j of the twist exponent sum_j theta_j h_j.

    The twist element pairs the parameters t_i = tau_i - tau_{i+1} with the
    Cartan generators through the inverse Cartan matrix,
    theta_j = sum_i c_ij t_i = sum_{m<=j} tau_m - (j/(l+1)) sum_m tau_m,
    which is exactly what makes the shift identities behind the functional
    relations close.  Each theta_j is returned as its exact coefficient list
    over tau_1..tau_{l+1}.
    """
    return [
        [Fraction(l + 1 - j, l + 1) if m <= j else Fraction(-j, l + 1)
         for m in range(1, l + 2)]
        for j in range(1, l + 1)
    ]


def twist_diagonal(a: int, twist: TwistConfig, ctx: QContext) -> list:
    """Image under realization a of the twist exponential, as shifts.

    The image is prod_k q^{E_k N_k}; the returned list holds the numeric
    exponents E_k = sum_j theta_j * pattern_j[k] at the twist's tau, for
    `trace_exact` to add to each mode.  The coefficients over tau are summed
    exactly before the single numeric evaluation.
    """
    l = twist.l
    theta = twist_coefficients(l)
    coeffs = [[Fraction(0)] * (l + 1) for _ in range(l)]
    for i in range(1, l + 1):
        j = (i - a) % (l + 1)
        pattern = _h_pattern(j, l)
        for k in range(l):
            if pattern[k]:
                coeffs[k] = [c + t * pattern[k]
                             for c, t in zip(coeffs[k], theta[i - 1])]
    return [sum(float(c) * twist.tau[m] for m, c in enumerate(row) if c)
            for row in coeffs]


def module_signs(a: int, l: int) -> tuple:
    """Fock-module grading signs for realization a.

    The first l - a + 1 modes carry the lowering-type module (sign -1), the
    remaining a - 1 modes the raising-type one (sign +1).
    """
    return tuple(-1 if k <= l - a + 1 else 1 for k in range(1, l + 1))
