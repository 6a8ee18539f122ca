"""Oscillator-valued Lax matrices: the basic matrix and its rotated family.

The basic Lax matrix acts on (l-mode oscillator algebra) x C^{l+1}; it is
stored as an (l+1) x (l+1) array of symbolic oscillator expressions.  Built
without a spectral parameter, every term carries its integer power of zeta
beside its oscillator monomial, so one matrix serves every zeta; built at a
number zeta, the powers are substituted.  The rotated family indexed by
a = 1..l+1 conjugates with powers of the cyclic shift matrix while cycling
the grading exponents; `build_L_a` forms it as an index map on the basic
matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .oscalg import OscExpr
from .qnum import QContext


@dataclass(frozen=True)
class GradingConfig:
    """Spectral-parameter grading exponents s_0..s_l (all positive ints)."""

    s: Tuple[int, ...]

    @classmethod
    def principal(cls, l: int) -> "GradingConfig":
        return cls((1,) * (l + 1))

    @property
    def l(self) -> int:
        return len(self.s) - 1

    @property
    def total(self) -> int:
        return sum(self.s)

    def partial(self, i: int, j: int) -> int:
        """s_{ij} = s_i + ... + s_{j-1} for 1 <= i < j <= l+1."""
        return sum(self.s[k] for k in range(i, j))

    def rotate(self) -> "GradingConfig":
        """Index substitution s_i -> s_{i+1 mod l+1}."""
        n = len(self.s)
        return GradingConfig(tuple(self.s[(i + 1) % n] for i in range(n)))


@dataclass
class LOperator:
    """An (l+1)x(l+1) matrix of oscillator expressions.

    `zeta` is None when the entries carry their zeta-powers symbolically.
    """

    l: int
    zeta: Optional[complex]
    grading: GradingConfig
    entries: list  # nested list [(l+1)][(l+1)] of OscExpr

    def entry(self, i: int, j: int) -> OscExpr:
        """1-based access to the coefficient of E_{ij}."""
        return self.entries[i - 1][j - 1]


def _zero_matrix(l: int) -> list:
    return [[OscExpr.zero(l) for _ in range(l + 1)] for _ in range(l + 1)]


def build_L(zeta: Optional[complex], grading: GradingConfig,
            ctx: QContext) -> LOperator:
    """The basic Lax matrix in closed form; zeta None keeps the powers."""
    l = grading.l
    kappa = ctx.kappa
    m = _zero_matrix(l)
    # Strictly lower block: kappa b_j bdag_i q^{N_j + N_{ji} - N_i - j + i - 2}
    for j in range(1, l + 1):
        for i in range(j + 1, l + 1):
            exps = [0] * l
            exps[j - 1] += 1
            for k in range(j, i):
                exps[k - 1] += 1
            exps[i - 1] -= 1
            m[i - 1][j - 1] = OscExpr.monomial(
                l,
                {j: (0, 1, exps[j - 1]),
                 i: (1, 0, exps[i - 1]),
                 **{k: (0, 0, exps[k - 1])
                    for k in range(j + 1, i)}},
                kappa * ctx.qpow(i - j - 2), grading.partial(j, i),
            )
    # Bottom row: b_j q^{N_j + N_{j,l+1} - j + l}
    for j in range(1, l + 1):
        exps = [0] * l
        exps[j - 1] += 1
        for k in range(j, l + 1):
            if k <= l:
                exps[k - 1] += 1
        m[l][j - 1] = OscExpr.monomial(
            l,
            {k: ((0, 1, exps[k - 1]) if k == j
                 else (0, 0, exps[k - 1]))
             for k in range(j, l + 1)},
            ctx.qpow(l - j), grading.partial(j, l + 1),
        )
    # Last column: -kappa bdag_i q^{N_{1i} - N_i + i - 2}
    for i in range(1, l + 1):
        exps = [1 if k < i else 0 for k in range(1, l + 1)]
        exps[i - 1] = -1
        m[i - 1][l] = OscExpr.monomial(
            l,
            {k: ((1, 0, exps[k - 1]) if k == i
                 else (0, 0, exps[k - 1]))
             for k in range(1, i + 1)},
            -kappa * ctx.qpow(i - 2),
            grading.total - grading.partial(i, l + 1),
        )
    # Diagonal.
    for i in range(1, l + 1):
        m[i - 1][i - 1] = OscExpr.monomial(l, {i: (0, 0, 1)})
    m[l][l] = (
        OscExpr.q_exponent(l, [-1] * l)
        + OscExpr.q_exponent(l, [1] * l, -ctx.qpow(l), grading.total)
    )
    if zeta is not None:
        m = [[e.at(zeta) for e in row] for row in m]
    return LOperator(l, zeta, grading, m)


def build_L_a(a: int, zeta: Optional[complex], grading: GradingConfig,
              ctx: QContext) -> LOperator:
    """Rotated Lax matrix, a = 1..l+1 (a = l+1 is the basic one); zeta None
    keeps the zeta-powers symbolic.

    The basic matrix at the grading rotated m = a mod (l+1) times,
    conjugated m times with the cyclic shift (v_j -> v_{j+1},
    v_{l+1} -> q^{-1} v_1): entry (i, j), 0-based, is q^{[j<m] - [i<m]}
    times its entry ((i - m), (j - m)) mod (l+1).
    """
    l = grading.l
    if not 1 <= a <= l + 1:
        raise ValueError("a out of range")
    m = a % (l + 1)
    rotated = grading
    for _ in range(m):
        rotated = rotated.rotate()
    base = build_L(zeta, rotated, ctx).entries
    ent = [[base[(i - m) % (l + 1)][(j - m) % (l + 1)].scale(
        ctx.qpow((j < m) - (i < m))) for j in range(l + 1)]
        for i in range(l + 1)]
    return LOperator(l, zeta, grading, ent)
