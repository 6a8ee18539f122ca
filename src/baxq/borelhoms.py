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
    exponential q^{nu h_i}, nu a plain number); i runs over 0..l, a over
    1..l+1.  Realization a sends generator i to the base image of generator
    (i - a) mod (l+1).
    """
    j = (i - a) % (l + 1)
    if kind == "e":
        return _base_e_image(j, l, ctx)
    if kind == "h":
        return OscExpr.q_exponent(l, [nu * c for c in _h_pattern(j, l)])
    raise ValueError("kind must be 'e' or 'h'")


def twist_diagonal(a: int, twist: TwistConfig) -> list:
    """Image under realization a of the twist exponential, as mode shifts.

    The twist pairs t_i = tau_i - tau_{i+1} with the Cartan generators
    through the inverse Cartan matrix.  Its image is prod_k q^{E_k N_k} with
    E_k = tau_a - tau_{a+k}, colours taken mod l+1; the returned list holds
    the E_k, for `trace_powers` to add to each mode.
    """
    tau = twist.tau
    return [tau[a - 1] - tau[(a - 1 + k) % len(tau)]
            for k in range(1, len(tau))]


def module_signs(a: int, l: int) -> tuple:
    """Fock-module grading signs for realization a.

    The first l - a + 1 modes carry the lowering-type module (sign -1), the
    remaining a - 1 modes the raising-type one (sign +1).
    """
    return tuple(-1 if k <= l - a + 1 else 1 for k in range(1, l + 1))
