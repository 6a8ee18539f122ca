"""Functional relations tying transfer operators to Baxter operators.

Transfer operators for evaluation modules labeled by (l+1)-tuples mu are
reconstructed from determinants of shifted Baxter operators.  This module
provides that reconstruction and residual checks for the whole web of
relations it satisfies: the master TQ and TT (Pluecker) relations, the
T-system, the quantum Jacobi-Trudi determinants, the QQ Jacobi identity for
generalized Q-functions, symmetry properties of the transfer family, and
agreement with the transfer operator built directly from R-matrices.  Every
operator is a vector of values on the joint eigenlines (see `baxq.qop`), so
each relation is a scalar identity per eigenline.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .fundrep import direct_transfer
from .qnum import normalization, relative
from .qop import QFamily, op_det
from .rootdata import rho


@dataclass
class RelationReport:
    """Outcome of one residual check; the suite judges it against a bound."""

    name: str
    residual: Optional[float]  # None where it cannot be measured
    details: dict = field(default_factory=dict)
    reason: Optional[str] = None  # why the residual is None


def _pair(z: complex) -> list:
    """A complex number as [re, im], as the reports store them."""
    z = complex(z)
    return [z.real, z.imag]


def _rel_residual(lhs: np.ndarray, *scale_refs: np.ndarray) -> float:
    scale = max((float(np.max(np.abs(m))) for m in scale_refs), default=0.0)
    return relative(float(np.max(np.abs(lhs))), scale)


def _alternating_residual(terms) -> float:
    """|sum_b (-1)^b term_b| relative to the largest term."""
    acc, biggest = 0, 0.0
    for b, term in enumerate(terms):
        acc = acc - term if b % 2 else acc + term
        biggest = max(biggest, float(np.max(np.abs(term))))
    return relative(float(np.max(np.abs(acc))), biggest)


class TransferFromQ:
    """Determinant reconstruction of transfer operators from a Q-family."""

    def __init__(self, fam: QFamily):
        self.fam = fam
        self._c_inv = 1.0 / fam.c_l()

    def s_op(self, mu: Sequence, zeta: complex) -> np.ndarray:
        """S^mu: antisymmetrized product, det(Q_a(q^{2 mu_b/s} zeta)) / C."""
        l = self.fam.l
        if len(mu) != l + 1:
            raise ValueError("mu must have l + 1 components")
        return self._c_inv * self.fam.shifted_det(
            range(1, l + 2), [2 * m for m in mu], zeta)

    def t_op(self, mu: Sequence, zeta: complex) -> np.ndarray:
        """T^mu = S^{mu + rho}."""
        return self.s_op([m + r for m, r in zip(mu, rho(self.fam.l))], zeta)

    def t_scalar(self, nu, zeta: complex) -> np.ndarray:
        """T^{nu (1,..,1)} at chain level: the scalar (1 - q^{2 nu} zeta^s)^n.

        The universal operator for the trivial-type module is 1; on the
        chain the trace normalization turns it into this scalar, which is
        what the determinant of the full Q-family actually produces.
        """
        fam = self.fam
        val = (1.0 - fam.ctx.qpow(2 * nu)
               * zeta ** fam.grading.total) ** fam.n
        return val * fam.identity()

    def t_rect(self, a: int, m: int, zeta: complex) -> np.ndarray:
        """T_{a,m} = T^{m omega_a}(q^{(a-m)/s} zeta).

        Out-of-range columns (a < 0 or a > l+1) vanish; the boundary values
        a = 0, l+1 and m = 0 are the chain-level scalars produced by the
        uniform-weight transfer operators.
        """
        l = self.fam.l
        s = self.fam.grading.total
        if not 0 <= a <= l + 1:
            return 0 * self.fam.identity()
        shift = self.fam.ctx.qpow((a - m) / s)
        if a == 0 or m == 0:
            return self.t_scalar(0, shift * zeta)
        if a == l + 1:
            return self.t_scalar(m, shift * zeta)
        mu = [m if b <= a else 0 for b in range(1, l + 2)]
        return self.t_op(mu, shift * zeta)

    def t_norm(self, a: int, m: int, zeta: complex) -> complex:
        """Scalar relating the chain-level T_{a,m} to its universal image.

        T_{a,m} as built from determinants of chain Q-operators equals the
        universal operator times prod_b N(q^{e_b} zeta^s)^n, where
        N = exp(-F) is the normalization product of the Q-operator traces
        (`qnum.normalization`) and e_b runs over the column shifts of the
        determinant.
        """
        fam = self.fam
        l, s = fam.l, fam.grading.total
        zs = zeta ** s
        out = 1.0 + 0j
        for b in range(1, l + 2):
            e = (m + a if b <= a else a - m) + l + 2 - 2 * b
            out *= normalization(l + 1, fam.ctx.qpow(e) * zs, fam.ctx)
        return out ** fam.n

    def t_hat(self, a: int, m: int, zeta: complex) -> np.ndarray:
        """Universally normalized T_{a,m}: boundary columns become 1."""
        l = self.fam.l
        if not 0 <= a <= l + 1:
            return 0 * self.fam.identity()
        return self.t_rect(a, m, zeta) / self.t_norm(a, m, zeta)


def check_master_tq(tq: TransferFromQ, a: int, mu: Sequence,
                    zeta: complex) -> RelationReport:
    """sum_b (-1)^{b-1} S^{mu w/o b}(zeta) Q_a(q^{2 mu_b/s} zeta) = 0."""
    fam = tq.fam
    l, s = fam.l, fam.grading.total
    if len(mu) != l + 2:
        raise ValueError("mu must have l + 2 components")
    resid = _alternating_residual(
        tq.s_op([mu[c] for c in range(l + 2) if c != b], zeta)
        * fam.generalized_q((a,), fam.ctx.qpow(2 * mu[b] / s) * zeta)
        for b in range(l + 2))
    return RelationReport("master-tq", resid,
                          {"a": a, "mu": list(mu), "zeta": _pair(zeta)})


def check_master_tt(tq: TransferFromQ, mu: Sequence,
                    zeta: complex) -> RelationReport:
    """sum_b (-1)^b S^{mu_1..^b..mu_{l+2}} S^{mu_b, mu_{l+3}..mu_{2l+2}} = 0."""
    l = tq.fam.l
    if len(mu) != 2 * l + 2:
        raise ValueError("mu must have 2l + 2 components")
    head, tail = mu[: l + 2], mu[l + 2:]
    resid = _alternating_residual(
        tq.s_op([head[c] for c in range(l + 2) if c != b], zeta)
        * tq.s_op([head[b]] + list(tail), zeta) for b in range(l + 2))
    return RelationReport("master-tt", resid,
                          {"mu": list(mu), "zeta": _pair(zeta)})


def check_t_system(tq: TransferFromQ, a: int, m: int,
                   zeta: complex) -> RelationReport:
    """T_{a,m}(q^-1/s z) T_{a,m}(q^1/s z) =
       T_{a,m-1}(z) T_{a,m+1}(z) + T_{a-1,m}(z) T_{a+1,m}(z)."""
    s = tq.fam.grading.total
    qs = tq.fam.ctx.qpow(1 / s)
    lhs = tq.t_rect(a, m, zeta / qs) * tq.t_rect(a, m, qs * zeta)
    r1 = tq.t_rect(a, m - 1, zeta) * tq.t_rect(a, m + 1, zeta)
    r2 = tq.t_rect(a - 1, m, zeta) * tq.t_rect(a + 1, m, zeta)
    resid = _rel_residual(lhs - r1 - r2, lhs, r1, r2)
    return RelationReport("t-system", resid,
                          {"a": a, "m": m, "zeta": _pair(zeta)})


def check_jacobi_trudi(tq: TransferFromQ, a: int, m: int,
                       zeta: complex) -> RelationReport:
    """T_{a,m}(z) = det( T_{a-i+j,1}(q^{(i+j-m-1)/s} z) )_{i,j=1..m}.

    Unlike the T-system, the permutation terms of this determinant do not
    all carry the same chain-level normalization scalar, so the identity is
    checked on the universally normalized family `t_hat`.  At an exact zero
    or pole of its normalization product, a measure-zero set of zeta,
    nothing is measured and the reason says so.
    """
    s = tq.fam.grading.total
    details = {"a": a, "m": m, "zeta": _pair(zeta)}
    try:
        blocks = [
            [tq.t_hat(a - (i + 1) + (j + 1), 1,
                      tq.fam.ctx.qpow((i + j + 1 - m) / s) * zeta)
             for j in range(m)]
            for i in range(m)
        ]
        lhs = tq.t_hat(a, m, zeta)
    except ZeroDivisionError as exc:
        return RelationReport("jacobi-trudi", None, details, str(exc))
    det = op_det(blocks, np.multiply)
    return RelationReport("jacobi-trudi", _rel_residual(lhs - det, lhs, det),
                          details)


def check_qq_jacobi(fam: QFamily, a_tuple: Sequence[int], b: int, c: int,
                    zeta: complex) -> RelationReport:
    """Q_{a+b+c}(z) Q_a(z) = Q_{a+b}(q^1/s z) Q_{a+c}(q^-1/s z)
                           - Q_{a+c}(q^1/s z) Q_{a+b}(q^-1/s z).

    This is the Jacobi identity for the bordered determinant with rows
    (b, a_1..a_p, c); the shift orientation follows from the decreasing
    column convention of `generalized_q`.
    """
    s = fam.grading.total
    qs = fam.ctx.qpow(1 / s)
    at = tuple(a_tuple)
    lhs = fam.generalized_q(at + (b, c), zeta) * fam.generalized_q(at, zeta)
    r1 = (fam.generalized_q(at + (b,), qs * zeta)
          * fam.generalized_q(at + (c,), zeta / qs))
    r2 = (fam.generalized_q(at + (c,), qs * zeta)
          * fam.generalized_q(at + (b,), zeta / qs))
    resid = _rel_residual(lhs - r1 + r2, lhs, r1, r2)
    return RelationReport("qq-jacobi", resid,
                          {"a": list(at), "b": b, "c": c, "zeta": _pair(zeta)})


def check_unit_q(fam: QFamily, zeta: complex) -> RelationReport:
    """Q_{1..l+1}(zeta) = (1 - zeta^s)^n diag(C)."""
    lhs = fam.generalized_q(tuple(range(1, fam.l + 2)), zeta)
    rhs = (1.0 - zeta ** fam.grading.total) ** fam.n * fam.c_l()
    resid = _rel_residual(lhs - rhs, lhs, rhs)
    return RelationReport("unit-q", resid, {"zeta": _pair(zeta)})


def check_direct_vs_q(tq: TransferFromQ, zeta: complex) -> RelationReport:
    """Fundamental transfer from determinants vs the R-matrix construction.

    Projected into the joint eigenbasis, the R-matrix transfer operator must
    be diagonal (`offdiag_residue`, relative to its largest eigenvalue), so
    it commutes with every Q, with eigenvalues c(zeta) T^{omega_1}: one
    scalar c, fixed at the line of largest |T^{omega_1}|.  The residual is
    the larger of the two mismatches.
    """
    fam = tq.fam
    t_det = tq.t_op([1] + [0] * fam.l, zeta)
    t_dir = direct_transfer(zeta, fam.n, fam.twist, fam.grading, fam.ctx)
    # The joint eigenbasis as one matrix: column j is eigenline j.
    vecs = np.zeros(t_dir.shape, dtype=complex)
    vinv = np.zeros_like(vecs)
    start = 0
    for label, idxs in fam.sectors.items():
        lines = slice(start, start + len(idxs))
        vecs[idxs, lines], vinv[lines, idxs], _ = fam.basis(label)
        start += len(idxs)
    proj = vinv @ t_dir @ vecs
    diag = np.diagonal(proj)
    offdiag = _rel_residual(proj - np.diag(diag), diag)
    i = int(np.argmax(np.abs(t_det)))
    scale = t_det[i] / diag[i]
    resid = max(_rel_residual(t_det - scale * diag, t_det), offdiag)
    return RelationReport("direct-transfer", resid,
                          {"zeta": _pair(zeta), "scale": _pair(scale),
                           "offdiag_residue": offdiag})


def check_t_symmetries(tq: TransferFromQ, mu: Sequence, nu: int,
                       zeta: complex, i: int) -> list:
    """Symmetry suite for the transfer family.

    * T^{nu (1,..,1)} is the scalar (1 - q^{2 nu} zeta^s)^n (trivial
      one-dimensional module, up to the chain-level trace normalization);
    * a uniform shift of mu is a spectral-parameter shift;
    * swapping mu_i, mu_{i+1} with the staircase rule flips the sign.
    """
    fam = tq.fam
    s = fam.grading.total
    l = fam.l
    out = []
    lhs = tq.t_op([nu] * (l + 1), zeta)
    ref = tq.t_scalar(nu, zeta)
    out.append(RelationReport(
        "t-trivial", _rel_residual(lhs - ref, lhs, ref),
        {"nu": nu, "zeta": _pair(zeta)},
    ))
    shifted = tq.t_op([m + nu for m in mu], zeta)
    moved = tq.t_op(mu, fam.ctx.qpow(2 * nu / s) * zeta)
    out.append(RelationReport(
        "t-shift", _rel_residual(shifted - moved, shifted, moved),
        {"mu": list(mu), "nu": nu, "zeta": _pair(zeta)},
    ))
    swapped = list(mu)
    swapped[i - 1], swapped[i] = mu[i] - 1, mu[i - 1] + 1
    a = tq.t_op(mu, zeta)
    b = tq.t_op(swapped, zeta)
    out.append(RelationReport(
        "t-reflect", _rel_residual(a + b, a, b),
        {"mu": list(mu), "i": i, "zeta": _pair(zeta)},
    ))
    return out
