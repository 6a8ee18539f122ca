"""Oscillator-valued Lax matrices and their factored construction.

The basic Lax matrix acts on (l-mode oscillator algebra) x C^{l+1}; it is
stored as an (l+1) x (l+1) array of symbolic oscillator expressions.  Built
without a spectral parameter, every term carries its integer power of zeta
beside its oscillator monomial, so one matrix serves every zeta; built at a
number zeta, the powers are substituted.  A rotated family indexed by
a = 1..l+1 is generated by conjugating with the cyclic shift matrix while
simultaneously cycling the grading exponents.

`build_L_factored_oracle` rebuilds the same matrix as an ordered product of
elementary root factors times a diagonal dressing and a Cartan-like diagonal;
it serves as an independent cross-check of `build_L`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .oscalg import OscExpr, multiply
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


def _identity_matrix(l: int) -> list:
    m = _zero_matrix(l)
    for i in range(l + 1):
        m[i][i] = OscExpr.one(l)
    return m


def mat_mul(a: list, b: list, ctx: QContext) -> list:
    n = len(a)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = OscExpr.zero(a[0][0].modes)
            for k in range(n):
                if a[i][k].terms and b[k][j].terms:
                    acc = acc + multiply(a[i][k], b[k][j], ctx)
            out[i][j] = acc
    return out


def _n_range_exps(l: int, lo: int, hi: int) -> list:
    """Exponent vector of N_{lo,hi} = N_lo + ... + N_{hi-1} (1-based)."""
    return [1 if lo <= k < hi else 0 for k in range(1, l + 1)]


def build_L(zeta: Optional[complex], grading: GradingConfig,
            ctx: QContext) -> LOperator:
    """The basic Lax matrix in closed form; zeta None keeps the powers."""
    l = grading.l
    q = ctx.q
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


_O_CACHE: dict = {}


def _shift_matrices(l: int, ctx: QContext):
    """Cyclic shift O (v_j -> v_{j+1}, v_{l+1} -> q^{-1} v_1) and inverse."""
    key = (l, ctx.q)
    if key not in _O_CACHE:
        o = np.zeros((l + 1, l + 1), dtype=complex)
        oinv = np.zeros((l + 1, l + 1), dtype=complex)
        o[0, l] = 1.0 / ctx.q
        oinv[l, 0] = ctx.q
        for i in range(l):
            o[i + 1, i] = 1.0
            oinv[i, i + 1] = 1.0
        _O_CACHE[key] = (o, oinv)
    return _O_CACHE[key]


def build_L_a(a: int, zeta: Optional[complex], grading: GradingConfig,
              ctx: QContext) -> LOperator:
    """Rotated Lax matrix, a = 1..l+1 (a = l+1 is the basic one); zeta None
    keeps the zeta-powers symbolic."""
    l = grading.l
    if not 1 <= a <= l + 1:
        raise ValueError("a out of range")
    if a == l + 1:
        return build_L(zeta, grading, ctx)
    inner = build_L_a(a - 1 if a >= 2 else l + 1, zeta, grading.rotate(), ctx)
    o, oinv = _shift_matrices(l, ctx)
    tmp = _scalar_mat_apply(o, inner.entries, left=True)
    ent = _scalar_mat_apply(oinv, tmp, left=False)
    return LOperator(l, zeta, grading, ent)


def _scalar_mat_apply(s: np.ndarray, m: list, left: bool) -> list:
    n = len(m)
    modes = m[0][0].modes
    out = [[OscExpr.zero(modes) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c = s[i, k] if left else s[k, j]
                src = m[k][j] if left else m[i][k]
                if c != 0 and src.terms:
                    out[i][j] = out[i][j] + src.scale(c)
    return out


def build_L_factored_oracle(zeta: complex, grading: GradingConfig,
                            ctx: QContext) -> LOperator:
    """Independent reconstruction as an ordered product of root factors.

    Factors for the finite positive roots are multiplied left-to-right in
    colexicographic root order, followed by a diagonal middle factor, the
    (mutually commuting, collapsible) factors for the first affine shell,
    and the Cartan-like diagonal.
    """
    l = grading.l
    kappa = ctx.kappa
    factors: List[list] = []
    # Finite-root factors, colex order: (j ascending, then i ascending).
    for j in range(2, l + 2):
        for i in range(1, j):
            f = _identity_matrix(l)
            if j <= l:
                exps = _n_range_exps(l, i, j)
                exps[j - 1] -= 1
                coeff = (kappa * zeta ** grading.partial(i, j)
                         * ctx.qpow(j - i - 2))
                f[j - 1][i - 1] = OscExpr.monomial(
                    l,
                    {i: (0, 1, exps[i - 1]),
                     j: (1, 0, exps[j - 1]),
                     **{k: (0, 0, exps[k - 1])
                        for k in range(i + 1, j)}},
                    coeff,
                )
            else:
                exps = _n_range_exps(l, i, l + 1)
                coeff = zeta ** grading.partial(i, l + 1) * ctx.qpow(l - i)
                f[l][i - 1] = OscExpr.monomial(
                    l,
                    {k: ((0, 1, exps[k - 1]) if k == i
                         else (0, 0, exps[k - 1]))
                     for k in range(i, l + 1)},
                    coeff,
                )
            factors.append(f)
    # Middle diagonal factor (normalized by the overall scalar series).
    mid = _identity_matrix(l)
    mid[l][l] = OscExpr.one(l).scale(1.0 - ctx.qpow(-l) * zeta ** grading.total)
    factors.append(mid)
    # First-shell factors: all live in the last column, so they commute and
    # their ordered product equals identity plus the sum of the tails.
    shell = _identity_matrix(l)
    for i in range(1, l + 1):
        exps = _n_range_exps(l, i + 1, l + 1)
        coeff = (-kappa
                 * zeta ** (grading.total - grading.partial(i, l + 1))
                 * ctx.qpow(-i))
        shell[i - 1][l] = OscExpr.monomial(
            l,
            {k: ((1, 0, exps[k - 1]) if k == i
                 else (0, 0, exps[k - 1]))
             for k in range(i, l + 1)},
            coeff,
        )
    factors.append(shell)
    # Cartan-like diagonal.
    cart = _zero_matrix(l)
    for i in range(1, l + 1):
        cart[i - 1][i - 1] = OscExpr.monomial(l, {i: (0, 0, 1)})
    cart[l][l] = OscExpr.q_exponent(l, [-1] * l)
    factors.append(cart)

    prod = factors[0]
    for f in factors[1:]:
        prod = mat_mul(prod, f, ctx)
    return LOperator(l, zeta, grading, prod)


def max_entry_difference(a: LOperator, b: LOperator, ctx: QContext) -> float:
    """Largest coefficient of the normal-ordered entrywise difference."""
    worst = 0.0
    for i in range(a.l + 1):
        for j in range(a.l + 1):
            diff = a.entries[i][j] - b.entries[i][j]
            worst = max(worst, diff.prune().max_abs())
    return worst
