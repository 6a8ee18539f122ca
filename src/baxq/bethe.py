"""Bethe-root extraction from Q-eigenvalues and nested-equation residuals.

On each weight sector the commuting Baxter family has a common eigenbasis;
along one eigenline the generalized Q-function is, up to a known power of
the spectral parameter, a polynomial in z = zeta^s whose degree is the sum
of the occupation numbers selected by the index tuple.  This module samples
those eigenvalues on the unit circle |z| = 1, recovers the polynomials by a
discrete Fourier transform, extracts their roots, and evaluates the nested
Bethe equations (in their leveled product form and in the generic three-Q
ratio form) at the extracted roots.  A damped Newton solver for the leveled
equations is included for cross-checking.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .qop import QFamily, SectorLabel, dressing_exponent, sectors


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
    details: dict = field(default_factory=dict)


class BetheSystem:
    """Shared-eigenbasis access to the Q-eigenvalues of one chain."""

    def __init__(self, fam: QFamily, basis_zetas: Tuple[float, float] = (0.43, 0.67),
                 gamma: complex = 0.37 + 0.21j, check_zeta: float = 0.59,
                 diag_tol: float = 1e-8):
        self.fam = fam
        self._bases: Dict[SectorLabel, tuple] = {}
        self._basis_zetas = basis_zetas
        self._gamma = gamma
        self._check_zeta = check_zeta
        self._diag_tol = diag_tol
        self._sectors = sectors(fam.l, fam.n)
        # Per sector: smallest eigenvalue separation of the basis operator
        # (relative to its largest eigenvalue; None on a one-line sector)
        # and worst relative off-diagonal residue of the probed Q_a.
        self.health: Dict[SectorLabel, dict] = {}

    def sector_labels(self) -> List[SectorLabel]:
        return list(self._sectors)

    def _basis(self, label: SectorLabel) -> tuple:
        """(indices, V, V^-1) diagonalizing the whole family on the sector."""
        if label in self._bases:
            return self._bases[label]
        idx = np.array(self._sectors[label])

        def block(a: int, zeta: float) -> np.ndarray:
            return self.fam.q_op(a, zeta)[np.ix_(idx, idx)]

        ops = range(1, self.fam.l + 2)
        # A generic combination of every Q_a: on a sector where some Q_a is
        # scalar (zero occupation k_a), the others still split the spectrum.
        zs = self._basis_zetas
        b = sum(self._gamma ** (a - 1) * block(a, zs[(a - 1) % len(zs)])
                for a in ops)
        vals, vecs = np.linalg.eig(b)
        vinv = np.linalg.inv(vecs)
        # The basis must diagonalize members of the family it was not built
        # from; a failure here means degenerate spectra on this sector.
        residues = {}
        for a in ops:
            d = vinv @ block(a, self._check_zeta) @ vecs
            off = np.max(np.abs(d - np.diag(np.diag(d))))
            residues[a] = float(off / max(1.0, np.max(np.abs(d))))
        worst = max(residues, key=residues.get)
        gaps = np.abs(vals[:, None] - vals[None, :])[
            np.triu_indices(len(vals), 1)]
        self.health[label] = {
            "min_separation": (float(gaps.min()
                                     / max(np.max(np.abs(vals)), 1e-300))
                               if gaps.size else None),
            "offdiag_residue": residues[worst],
        }
        if residues[worst] > self._diag_tol:
            raise ArithmeticError(
                "sector %s eigenbasis does not diagonalize Q_%d "
                "(relative off-diagonal %.2e)" % (label.k, worst,
                                                  residues[worst])
            )
        self._bases[label] = (idx, vecs, vinv)
        return self._bases[label]

    def n_lines(self, label: SectorLabel) -> int:
        return len(self._sectors[label])

    def eigenvalue(self, a_tuple: Sequence[int], label: SectorLabel,
                   eigenline: int, zeta: complex) -> complex:
        idx, vecs, vinv = self._basis(label)
        q = self.fam.generalized_q(tuple(a_tuple), zeta)[np.ix_(idx, idx)]
        return complex(vinv[eigenline] @ q @ vecs[:, eigenline])

    def eigen_polynomial(self, a_tuple: Sequence[int], label: SectorLabel,
                         eigenline: int,
                         recon_tol: float = 1e-7) -> BethePolynomial:
        """Recover the eigenline polynomial in z = zeta^s and factor it.

        The degree + 1 samples sit at the roots of unity z_t = w^t, where
        they are the discrete Fourier transform of the coefficients, so the
        inverse transform recovers them without an ill-conditioned solve
        (summed directly: with at most n + 1 samples that is as cheap as an
        FFT, and it spares loading numpy's FFT module).  One eigenvalue at
        the off-circle point zeta = check_zeta checks the result.
        """
        at = tuple(a_tuple)
        s = self.fam.grading.total
        degree = sum(label.k[a - 1] for a in at)
        pref = sum(
            dressing_exponent(a, label, self.fam.twist, self.fam.grading)
            for a in at
        )

        def undressed(zeta: complex) -> complex:
            return (self.eigenvalue(at, label, eigenline, zeta)
                    / cmath.exp(pref * cmath.log(zeta)))

        m = degree + 1
        vals = np.array([undressed(cmath.exp(2j * math.pi * t / (m * s)))
                         for t in range(m)])
        t = np.arange(m)
        # Ascending powers of z.
        coeffs = np.exp(-2j * math.pi * np.outer(t, t) / m) @ vals / m
        z0 = self._check_zeta ** s
        direct = undressed(self._check_zeta)
        scale = max(abs(direct), float(np.polyval(np.abs(coeffs[::-1]),
                                                  abs(z0))), 1e-300)
        resid = abs(np.polyval(coeffs[::-1], z0) - direct) / scale
        if resid > recon_tol:
            raise ArithmeticError(
                "eigenline polynomial reconstruction failed "
                "(degree %d, residual %.2e)" % (degree, resid)
            )
        leading = complex(coeffs[-1])
        roots = [complex(r) for r in np.roots(coeffs[::-1])] if degree else []
        return BethePolynomial(at, label, eigenline, leading, float(pref),
                               roots, float(resid))

    def path_polynomials(self, path: Sequence[int], label: SectorLabel,
                         eigenline: int) -> List[BethePolynomial]:
        """Polynomials of the nested prefixes (a_1), (a_1,a_2), ... of a path."""
        path = tuple(path)
        return [
            self.eigen_polynomial(path[:i], label, eigenline)
            for i in range(1, len(path))
        ]


def bae_residual(path: Sequence[int], level: int,
                 polys: Sequence[BethePolynomial], root_index: int,
                 fam: QFamily) -> BAEReport:
    """Leveled nested equation at one root, reported as |LHS/RHS - 1|.

    `polys` holds the nested-prefix polynomials of the path (levels 1..l).
    Level 1 has no previous-level product, the last level trades the
    next-level product for the driving term ((q z - 1)/(z - q))^n, and the
    middle levels carry all three products.
    """
    l = fam.l
    ctx = fam.ctx
    q = ctx.qpow(1)
    path = tuple(path)
    self_roots = polys[level - 1].roots
    zm = self_roots[root_index]
    lhs = ctx.qpow(fam.twist.tau[path[level] - 1]
                   - fam.twist.tau[path[level - 1] - 1])
    if level == l:
        lhs *= ((q * zm - 1.0) / (zm - q)) ** fam.n
    rhs = 1.0 + 0j
    if level > 1:
        for w in polys[level - 2].roots:
            rhs *= (zm - q * w) / (q * zm - w)
    for j, z in enumerate(self_roots):
        if j != root_index:
            rhs *= (q * q * zm - z) / (zm - q * q * z)
    if level < l:
        for v in polys[level].roots:
            rhs *= (zm - q * v) / (q * zm - v)
    resid = abs(lhs / rhs - 1.0)
    return BAEReport(path, level, root_index, zm, resid,
                     {"sector": list(polys[level - 1].sector.k),
                      "eigenline": polys[level - 1].eigenline})


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
        out, pos = [], 0
        for d in shapes:
            out.append([complex(v) for v in vec[pos:pos + d]])
            pos += d
        return out

    def equations(vec: np.ndarray) -> np.ndarray:
        levels = unpack(vec)
        ctx = fam.ctx
        q = ctx.qpow(1)
        eqs = []
        for i in range(1, l + 1):
            cur = levels[i - 1]
            for m, zm in enumerate(cur):
                lhs = ctx.qpow(fam.twist.tau[path[i] - 1]
                               - fam.twist.tau[path[i - 1] - 1])
                if i == l:
                    lhs *= ((q * zm - 1.0) / (zm - q)) ** fam.n
                rhs = 1.0 + 0j
                if i > 1:
                    for w in levels[i - 2]:
                        rhs *= (zm - q * w) / (q * zm - w)
                for j, z in enumerate(cur):
                    if j != m:
                        rhs *= (q * q * zm - z) / (zm - q * q * z)
                if i < l:
                    for v in levels[i]:
                        rhs *= (zm - q * v) / (q * zm - v)
                eqs.append(cmath.log(lhs / rhs))
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
