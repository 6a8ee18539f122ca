"""Bethe-root extraction from Q-eigenvalues and nested-equation residuals.

`QFamily.coefficients(a)` holds Q'_a exactly, as a stack of coefficients in
z = zeta^s per weight sector.  One eigenbasis per sector diagonalizes every
slice of every Q'_a; along an eigenline the diagonal is a polynomial of
degree k_a, and a generalized Q-function (a determinant of shifted Q_a's) is
a power of zeta times the determinant of shifted scalar polynomials.  These
are formed and factored without evaluating any operator (`eigenvalue`, the
dense projection, is the tests' reference).  The nested Bethe equations,
leveled product form and generic three-Q ratio form, are evaluated at the
roots; a damped Newton solver for the leveled form cross-checks them.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .qop import (QFamily, SectorLabel, dressing_exponent, horner, op_det,
                  sectors)

# Each sector's basis diagonalizes sum_a GAMMA^(a-1) Q'_a(z_a), z_a = zeta^s
# with zeta cycling through BASIS_ZETAS.  DIAG_TOL bounds the relative
# off-diagonal of every slice in that basis, RECON_TOL the relative size of
# an eigenline's coefficients above degree k_a.
BASIS_ZETAS = (0.43, 0.67)
GAMMA = 0.37 + 0.21j
DIAG_TOL = 1e-8
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

    def value(self, zeta: complex, s: int) -> complex:
        out = self.leading * cmath.exp(self.prefactor * cmath.log(zeta))
        zs = zeta ** s
        for r in self.roots:
            out *= zs - r
        return out


@dataclass
class BAEReport:
    """Residual of one level of the nested equations at one root."""

    path: Tuple[int, ...]
    level: int
    root_index: int
    root: complex
    residual: float
    string_gap: Optional[float]


class BetheSystem:
    """Shared-eigenbasis access to the Q-eigenvalues of one chain."""

    def __init__(self, fam: QFamily):
        self.fam = fam
        self._bases: Dict[SectorLabel, tuple] = {}
        self._sectors = sectors(fam.l, fam.n)
        # Per sector: smallest eigenvalue separation of the basis operator
        # (relative to its largest eigenvalue; None on a one-line sector)
        # and worst relative off-diagonal of any coefficient slice.
        self.health: Dict[SectorLabel, dict] = {}

    def sector_labels(self) -> List[SectorLabel]:
        return list(self._sectors)

    def _basis(self, label: SectorLabel) -> tuple:
        """(V, V^-1, {a: coefficients of Q'_a, one row per eigenline})."""
        if label in self._bases:
            return self._bases[label]
        s = self.fam.grading.total
        stacks = {a: self.fam.coefficients(a)[label]
                  for a in range(1, self.fam.l + 2)}
        # Combine every Q'_a: where one is scalar (k_a = 0), the others
        # still split the spectrum.
        b = sum(GAMMA ** (a - 1) * horner(c, BASIS_ZETAS[(a - 1) % 2] ** s)
                for a, c in stacks.items())
        vals, vecs = np.linalg.eig(b)
        vinv = np.linalg.inv(vecs)
        residues, coeffs = {}, {}
        for a, c in stacks.items():
            d = vinv @ c @ vecs
            diag = np.diagonal(d, axis1=1, axis2=2)
            off = np.abs(d - diag[:, :, None] * np.eye(len(vals))).max()
            residues[a] = float(off / max(np.abs(d).max(), 1e-300))
            coeffs[a] = diag.T
        worst = max(residues, key=residues.get)
        gaps = np.abs(vals[:, None] - vals[None, :])[
            np.triu_indices(len(vals), 1)]
        self.health[label] = {
            "min_separation": (float(gaps.min()
                                     / max(np.max(np.abs(vals)), 1e-300))
                               if gaps.size else None),
            "offdiag_residue": residues[worst],
        }
        # A basis that leaves some slice non-diagonal means a degenerate
        # spectrum on this sector.
        if residues[worst] > DIAG_TOL:
            raise ArithmeticError("sector %s eigenbasis does not diagonalize "
                                  "Q_%d (relative off-diagonal %.2e)"
                                  % (label.k, worst, residues[worst]))
        self._bases[label] = (vecs, vinv, coeffs)
        return self._bases[label]

    def n_lines(self, label: SectorLabel) -> int:
        return len(self._sectors[label])

    def eigenvalue(self, a_tuple: Sequence[int], label: SectorLabel,
                   eigenline: int, zeta: complex) -> complex:
        """Dense reference: the generalized Q at zeta, projected."""
        vecs, vinv, _ = self._basis(label)
        idx = np.array(self._sectors[label])
        q = self.fam.generalized_q(tuple(a_tuple), zeta)[np.ix_(idx, idx)]
        return complex(vinv[eigenline] @ q @ vecs[:, eigenline])

    def eigen_polynomial(self, a_tuple: Sequence[int], label: SectorLabel,
                         eigenline: int) -> BethePolynomial:
        """Eigenline polynomial in z = zeta^s of a generalized Q, factored.

        With zeta^{D_{a_i}} taken out of row i, entry (i, j) of the
        determinant has coefficients c_{a_i,k} q^{(p-2j+1)(k + D_{a_i}/s)}.
        The recorded residual is the relative size of the coefficients
        dropped above degree k_a.
        """
        at = tuple(a_tuple)
        coeffs = self._basis(label)[2]
        fam, p = self.fam, len(at)
        s = fam.grading.total
        pref, resid, rows = 0.0, 0.0, []
        for a in at:
            k, c = label.k[a - 1], coeffs[a][eigenline]
            drop = float(np.abs(c[k + 1:]).max(initial=0.0)
                         / max(np.abs(c).max(), 1e-300))
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

    def path_polynomials(self, path: Sequence[int], label: SectorLabel,
                         eigenline: int) -> List[BethePolynomial]:
        """Polynomials of the nested prefixes (a_1), (a_1,a_2), ... of a path."""
        return [self.eigen_polynomial(path[:i], label, eigenline)
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
    gap = min((abs(zm - x) / max(abs(zm), 1e-300) for x in singular),
              default=None)
    return BAEReport(path, level, root_index, zm, resid, gap)


def bae_ratio_residual(prev: BethePolynomial, cur: BethePolynomial,
                       nxt: BethePolynomial, root_index: int,
                       fam: QFamily) -> float:
    """Generic three-Q ratio form of the equations at one root of `cur`.

    -1 = [Q_prev(q^-1 z) Q_cur(q^2 z) Q_next(q^-1 z)] /
         [Q_prev(q z) Q_cur(q^-2 z) Q_next(q z)]
    with every evaluation through the s-th root of the shifted z-argument.
    """
    s = fam.grading.total
    q = fam.ctx.qpow(1)
    z = cur.roots[root_index]

    def ev(poly: BethePolynomial, shift: complex) -> complex:
        zeta = cmath.exp(cmath.log(shift * z) / s)
        return poly.value(zeta, s)

    num = ev(prev, 1 / q) * ev(cur, q * q) * ev(nxt, 1 / q)
    den = ev(prev, q) * ev(cur, 1 / (q * q)) * ev(nxt, q)
    return abs(num / den + 1.0)


def solve_bae_newton(path: Sequence[int], degrees: Sequence[int],
                     initial: Sequence[Sequence[complex]], fam: QFamily,
                     max_iter: int = 200, damping: float = 1.0,
                     tol: float = 1e-10) -> List[List[complex]]:
    """Damped Newton iteration on the logarithmic leveled equations.

    `initial` gives per-level root guesses; the flattened system solves
    log(LHS/RHS) = 0 for every (level, root).  Raises on non-convergence or
    a singular finite-difference Jacobian.
    """
    l = fam.l
    path = tuple(path)
    shapes = [len(g) for g in initial]
    if list(shapes) != list(degrees):
        raise ValueError("initial guesses do not match the level degrees")
    x = np.array([r for level in initial for r in level], dtype=complex)
    if x.size == 0:
        return [[] for _ in degrees]

    def unpack(vec: np.ndarray) -> List[List[complex]]:
        parts = np.split(vec, np.cumsum(shapes)[:-1])
        return [[complex(v) for v in part] for part in parts]

    def equations(vec: np.ndarray) -> np.ndarray:
        levels = unpack(vec)
        eqs = []
        for i in range(1, l + 1):
            cur = levels[i - 1]
            prev = levels[i - 2] if i > 1 else []
            nxt = levels[i] if i < l else []
            for m, zm in enumerate(cur):
                others = [z for j, z in enumerate(cur) if j != m]
                eqs.append(cmath.log(
                    _leveled_ratio(fam, path, i, zm, prev, others, nxt)))
        return np.array(eqs, dtype=complex)

    for _ in range(max_iter):
        f = equations(x)
        if np.max(np.abs(f)) < tol:
            return unpack(x)
        h = 1e-7 * max(1.0, float(np.max(np.abs(x))))
        jac = np.empty((f.size, x.size), dtype=complex)
        for j in range(x.size):
            xp = x.copy()
            xp[j] += h
            jac[:, j] = (equations(xp) - f) / h
        try:
            step = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError as exc:
            raise ArithmeticError("singular Jacobian in Newton step") from exc
        x = x - damping * step
    raise ArithmeticError("Newton iteration did not converge in %d steps"
                          % max_iter)
