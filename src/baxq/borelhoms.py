"""The boundary twist and what each oscillator realization makes of it.

The Baxter operators are indexed by the realizations a = 1..l+1 of the
positive Borel half in the l-mode q-oscillator algebra (the base
realization composed with powers of the diagram rotation).  The trace
needs two things of realization a: the image of the twist exponential, as
per-mode exponent shifts, and the grading sign of each Fock module, since
its module is the tensor product of (l - a + 1) lowering-type and (a - 1)
raising-type Fock modules.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


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
