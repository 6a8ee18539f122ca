"""Bethe-root extraction from Q-eigenvalues and nested-equation residuals.

`QFamily.coefficients(a)` holds Q'_a exactly, as a stack of coefficients in
z = zeta^s per weight sector, and `QFamily.basis` gives each sector's joint
eigenbasis, which diagonalizes every slice of every Q'_a.  Along an
eigenline the diagonal is a polynomial of degree k_a, and a generalized
Q-function (a determinant of shifted Q_a's) is a power of zeta times the
determinant of shifted scalar polynomials.  These are formed and factored
without evaluating any operator.  The nested Bethe equations, in leveled
product form, are evaluated at the roots.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .qnum import relative
from .qop import QFamily, SectorLabel, dressing_exponent, op_det

# RECON_TOL bounds the relative size of an eigenline's coefficients above
# degree k_a.
RECON_TOL = 1e-7


@dataclass
class BethePolynomial:
    """Eigenvalue of a generalized Q-function along one eigenline.

    The eigenvalue is c * zeta^prefactor * prod_j (zeta^s - roots[j]) with
    the roots living in the variable z = zeta^s.
    """

    a_tuple: Tuple[int, ...]
    sector: SectorLabel
    eigenline: int
    leading: complex
    prefactor: float
    roots: List[complex]
    recon_residual: float

    @property
    def degree(self) -> int:
        return len(self.roots)


@dataclass
class BAEReport:
    """Residual of one level of the nested equations at one root."""

    path: Tuple[int, ...]
    level: int
    root_index: int
    root: complex
    residual: float
    string_gap: Optional[float]


def eigen_polynomial(fam: QFamily, a_tuple: Sequence[int],
                     label: SectorLabel, eigenline: int) -> BethePolynomial:
    """Eigenline polynomial in z = zeta^s of a generalized Q, factored.

    With zeta^{D_{a_i}} taken out of row i, entry (i, j) of the
    determinant has coefficients c_{a_i,k} q^{(p-2j+1)(k + D_{a_i}/s)}.
    The recorded residual is the relative size of the coefficients
    dropped above degree k_a.
    """
    at = tuple(a_tuple)
    coeffs = fam.basis(label)[2]
    p = len(at)
    s = fam.grading.total
    pref, resid, rows = 0.0, 0.0, []
    for a in at:
        k, c = label.k[a - 1], coeffs[a][eigenline]
        drop = float(relative(np.abs(c[k + 1:]).max(initial=0.0),
                              np.abs(c).max()))
        if drop > RECON_TOL:
            raise ArithmeticError("Q_%d eigenline polynomial exceeds "
                                  "degree %d (residual %.2e)"
                                  % (a, k, drop))
        resid = max(resid, drop)
        d = dressing_exponent(a, label, fam.twist, fam.grading)
        pref += d
        rows.append([c[:k + 1] * np.array(
            [fam.ctx.qpow((p - 2 * j + 1) * (e + d / s))
             for e in range(k + 1)]) for j in range(1, p + 1)])
    poly = op_det(rows, np.convolve) if rows else np.ones(1, dtype=complex)
    roots = [complex(r) for r in np.roots(poly[::-1])] if p else []
    return BethePolynomial(at, label, eigenline, complex(poly[-1]),
                           pref, roots, resid)


def path_polynomials(fam: QFamily, path: Sequence[int], label: SectorLabel,
                     eigenline: int) -> List[BethePolynomial]:
    """Polynomials of the nested prefixes (a_1), (a_1,a_2), ... of a path."""
    return [eigen_polynomial(fam, path[:i], label, eigenline)
            for i in range(1, len(path))]


def _leveled_ratio(fam: QFamily, path: Tuple[int, ...], level: int,
                   zm: complex, prev: list, others: list,
                   nxt: list) -> complex:
    """LHS/RHS of the leveled equation at a root zm of `level`: `others`
    holds the level's other roots, `prev`/`nxt` the adjacent levels'."""
    ctx = fam.ctx
    q = ctx.qpow(1)
    lhs = ctx.qpow(fam.twist.tau[path[level] - 1]
                   - fam.twist.tau[path[level - 1] - 1])
    if level == fam.l:
        lhs *= ((q * zm - 1.0) / (zm - q)) ** fam.n
    rhs = 1.0 + 0j
    for w in prev:
        rhs *= (zm - q * w) / (q * zm - w)
    for z in others:
        rhs *= (q * q * zm - z) / (zm - q * q * z)
    for v in nxt:
        rhs *= (zm - q * v) / (q * zm - v)
    return lhs / rhs


def bae_residual(path: Sequence[int], level: int,
                 polys: Sequence[BethePolynomial], root_index: int,
                 fam: QFamily) -> BAEReport:
    """Leveled nested equation at one root, reported as |LHS/RHS - 1|.

    `polys` holds the nested-prefix polynomials of the path (levels 1..l).
    Level 1 has no previous-level product, the last level trades the
    next-level product for the driving term ((q z - 1)/(z - q))^n, and the
    middle levels carry all three products.  `string_gap` is the smallest
    distance, relative to |root|, from the root to a zero or pole of one of
    those factors (None when there are none).  A root exactly on such a
    point, where a factor is 0 or infinite, has an infinite residual.
    """
    path = tuple(path)
    cur = polys[level - 1]
    zm = cur.roots[root_index]
    prev = polys[level - 2].roots if level > 1 else []
    others = [z for j, z in enumerate(cur.roots) if j != root_index]
    nxt = polys[level].roots if level < fam.l else []
    try:
        resid = abs(_leveled_ratio(fam, path, level, zm, prev, others, nxt)
                    - 1.0)
    except ZeroDivisionError:
        resid = math.inf
    # Factors vanish or diverge at z_m = q^{+-2} z_j for another root z_j of
    # the level and at z_m = q^{+-1} w for a root w of an adjacent level.
    q = fam.ctx.qpow(1)
    singular = ([z * f for z in others for f in (q * q, 1 / (q * q))]
                + [w * f for w in prev + nxt for f in (q, 1 / q)])
    gap = min((relative(abs(zm - x), abs(zm)) for x in singular),
              default=None)
    return BAEReport(path, level, root_index, zm, resid, gap)
