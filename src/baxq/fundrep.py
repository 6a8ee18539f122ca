"""First fundamental evaluation representation, R-matrices, direct transfer.

The (l+1)-dimensional evaluation representation realizes the loop-algebra
generators as explicit matrices depending on the spectral parameter through
the grading exponents.  The intertwiner between the coproduct and the
opposite coproduct on a tensor product of two such representations is found
numerically as the one-dimensional nullspace of a stacked linear system; it
yields both the Yang-Baxter check and a direct (matrix-product) construction
of the fundamental transfer operator used to cross-check the determinant
formulas.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .borelhoms import TwistConfig
from .lop import GradingConfig
from .qnum import QContext


def _eij(l: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((l + 1, l + 1), dtype=complex)
    m[i - 1, j - 1] = 1.0
    return m


@dataclass(frozen=True)
class FundRep:
    """Evaluation representation at a fixed spectral parameter."""

    zeta: complex
    grading: GradingConfig
    ctx: QContext

    @property
    def l(self) -> int:
        return self.grading.l

    def h_exp(self, i: int, nu: float = 1.0) -> np.ndarray:
        """Image of q^{nu h_i}, i = 0..l."""
        l, ctx = self.l, self.ctx
        d = np.ones(l + 1, dtype=complex)
        if i == 0:
            d[0] = ctx.qpow(-nu)
            d[l] = ctx.qpow(nu)
        else:
            d[i - 1] = ctx.qpow(nu)
            d[i] = ctx.qpow(-nu)
        return np.diag(d)

    def e(self, i: int) -> np.ndarray:
        l, ctx = self.l, self.ctx
        zs = self.zeta ** self.grading.s[i]
        if i == 0:
            return zs * ctx.q * _eij(l, l + 1, 1)
        return zs * _eij(l, i, i + 1)

    def f(self, i: int) -> np.ndarray:
        l, ctx = self.l, self.ctx
        zs = self.zeta ** (-self.grading.s[i])
        if i == 0:
            return zs / ctx.q * _eij(l, 1, l + 1)
        return zs * _eij(l, i + 1, i)

    def twist_matrix(self, twist: TwistConfig) -> np.ndarray:
        """Image of the twist exponential: v_m gets q^{tau_m - mean(tau)}.

        This is the inverse-Cartan pairing of the twist parameters with the
        Cartan generators, matching the convention of the trace-built
        operators.
        """
        l, ctx = self.l, self.ctx
        mean = sum(twist.tau) / (l + 1)
        return np.diag([ctx.qpow(twist.tau[m] - mean) for m in range(l + 1)])


def coproduct_matrix(kind: str, i: int, rep1: FundRep, rep2: FundRep,
                     opposite: bool = False) -> np.ndarray:
    """Matrix of Delta(x) (or the opposite coproduct) on rep1 (x) rep2.

    The opposite coproduct is Delta evaluated on the swapped pair of
    representations, with the two tensor factors swapped back.
    """
    l = rep1.l
    if opposite:
        m = coproduct_matrix(kind, i, rep2, rep1).reshape((l + 1,) * 4)
        return m.transpose(1, 0, 3, 2).reshape((l + 1) ** 2, -1)
    eye = np.eye(l + 1, dtype=complex)
    if kind == "h":
        m = np.kron(rep1.h_exp(i), rep2.h_exp(i))
    elif kind == "e":
        m = np.kron(rep1.e(i), eye) + np.kron(rep1.h_exp(i), rep2.e(i))
    elif kind == "f":
        m = np.kron(rep1.f(i), rep2.h_exp(i, -1.0)) + np.kron(eye, rep2.f(i))
    else:
        raise ValueError("kind must be 'h', 'e' or 'f'")
    return m


@dataclass
class RMatrix:
    """Normalized intertwiner on a pair of evaluation representations."""

    matrix: np.ndarray
    nullity: int
    residual: float


# Singular values below this fraction of the largest count as null.
NULL_RTOL = 1e-10


def solve_intertwiner(rep1: FundRep, rep2: FundRep) -> RMatrix:
    """Solve R Delta(x) = Delta_op(x) R for all Chevalley generators.

    The solution space must be one-dimensional; the representative is
    normalized so its (v1 (x) v1, v1 (x) v1) entry equals 1.
    """
    l = rep1.l
    d2 = (l + 1) ** 2
    eye = np.eye(d2, dtype=complex)
    blocks = []
    gens = ([("e", i) for i in range(l + 1)]
            + [("f", i) for i in range(l + 1)]
            + [("h", i) for i in range(1, l + 1)])
    for kind, i in gens:
        dl = coproduct_matrix(kind, i, rep1, rep2)
        dr = coproduct_matrix(kind, i, rep1, rep2, opposite=True)
        # row-major vec: (R X).flat = (I kron X.T) R.flat,
        #                (Y R).flat = (Y kron I) R.flat
        blocks.append(np.kron(eye, dl.T) - np.kron(dr, eye))
    m = np.vstack(blocks)
    # Only vh is used; with more rows than columns the reduced SVD has the
    # same singular values and vh, without the large unused U.
    _, sv, vh = np.linalg.svd(m, full_matrices=False)
    small = sv < NULL_RTOL * sv[0]
    nullity = int(np.count_nonzero(small)) + (m.shape[1] - len(sv))
    vec = vh[-1].conj()
    r = vec.reshape(d2, d2)
    if abs(r[0, 0]) < 1e-12:
        raise ArithmeticError("degenerate normalization entry in intertwiner")
    r = r / r[0, 0]
    resid = max(
        float(np.max(np.abs(r @ coproduct_matrix(k, i, rep1, rep2)
                            - coproduct_matrix(k, i, rep1, rep2, True) @ r)))
        for k, i in gens
    )
    return RMatrix(r, nullity, resid)


def _on_legs(r4: np.ndarray, x: np.ndarray, pa: int, pb: int) -> np.ndarray:
    """R on legs (pa, pb) applied to x, a tensor whose leading axes are legs.

    `r4` is the intertwiner reshaped to (out_a, out_b, in_a, in_b); R's
    output legs take the positions of the two contracted axes of x.
    """
    return np.moveaxis(np.tensordot(r4, x, axes=([2, 3], [pa, pb])),
                       (0, 1), (pa, pb))


def yang_baxter_residual(g: GradingConfig, ctx: QContext,
                         z1: complex, z2: complex, z3: complex) -> float:
    """|R12 R13 R23 - R23 R13 R12| on the triple product, normalized."""
    d = g.l + 1
    reps = [FundRep(z, g, ctx) for z in (z1, z2, z3)]
    r = {(a, b): solve_intertwiner(reps[a], reps[b]).matrix.reshape((d,) * 4)
         for a, b in ((0, 1), (0, 2), (1, 2))}
    eye = np.eye(d ** 3, dtype=complex).reshape((d,) * 6)
    lhs, rhs = eye, eye
    # Rightmost factor first: lhs = R12 (R13 (R23 1)), rhs = R23 (R13 (R12 1)).
    for pair in ((1, 2), (0, 2), (0, 1)):
        lhs = _on_legs(r[pair], lhs, *pair)
    for pair in ((0, 1), (0, 2), (1, 2)):
        rhs = _on_legs(r[pair], rhs, *pair)
    return float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs)))


def direct_transfer(zeta: complex, n: int, twist: TwistConfig,
                    grading: GradingConfig, ctx: QContext) -> np.ndarray:
    """Fundamental transfer operator built from the intertwiner directly.

    Auxiliary leg 0 carries the representation at zeta, legs 1..n the chain
    sites at spectral parameter 1; the site-n factor sits leftmost in the
    monodromy, matching the ordering used by the trace constructions.  The
    monodromy is a tensor with one output and one input axis per leg; each
    R-matrix is contracted over its two legs only.
    """
    l = grading.l
    d = l + 1
    aux = FundRep(zeta, grading, ctx)
    site = FundRep(1.0, grading, ctx)
    r4 = solve_intertwiner(aux, site).matrix.reshape(d, d, d, d)
    mono = np.eye(d ** (n + 1), dtype=complex).reshape((d,) * (2 * n + 2))
    for k in range(1, n + 1):
        mono = _on_legs(r4, mono, 0, k)
    tw = np.diagonal(aux.twist_matrix(twist))
    return np.einsum("i,iaib->ab", tw, mono.reshape(d, d ** n, d, d ** n))
