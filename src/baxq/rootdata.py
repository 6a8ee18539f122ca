"""Root-system combinatorics for type A_l: Cartan data, Weyl group, rho.

Weights are (l+1)-tuples in epsilon coordinates (partition-like labels
mu_1..mu_{l+1}), which is what the determinant formulas are indexed by.
The Weyl group is the symmetric group S_{l+1} permuting those coordinates.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple


@dataclass(frozen=True)
class WeylElement:
    """A permutation of {0..l} with its sign; perm[i] is the image of i."""

    perm: Tuple[int, ...]
    sign: int

    def apply(self, coords: Sequence) -> tuple:
        # (w x)_i = x_{w^{-1}(i)}: entry perm[j] of the result is coords[j].
        out = [None] * len(coords)
        for j, pj in enumerate(self.perm):
            out[pj] = coords[j]
        return tuple(out)


def _perm_sign(perm: Sequence[int]) -> int:
    s = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                s = -s
    return s


@dataclass(frozen=True)
class RootSystem:
    """Type A_l data used throughout the functional relations."""

    l: int

    def cartan(self) -> list:
        a = [[0] * self.l for _ in range(self.l)]
        for i in range(self.l):
            a[i][i] = 2
            if i > 0:
                a[i][i - 1] = -1
            if i + 1 < self.l:
                a[i][i + 1] = -1
        return a

    def rho(self) -> tuple:
        """Staircase shifts rho_a = l/2 - a + 1 in epsilon coordinates."""
        return tuple(self.l / 2 - a + 1 for a in range(1, self.l + 2))

    def weyl_enumerate(self) -> Iterator[WeylElement]:
        for perm in itertools.permutations(range(self.l + 1)):
            yield WeylElement(perm, _perm_sign(perm))

    def affine_action(self, w: WeylElement, mu: Sequence) -> tuple:
        """Shifted action w . mu = w(mu + rho) - rho on epsilon coordinates."""
        rho = self.rho()
        shifted = tuple(m + r for m, r in zip(mu, rho))
        moved = w.apply(shifted)
        return tuple(x - r for x, r in zip(moved, rho))
