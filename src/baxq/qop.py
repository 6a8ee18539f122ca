"""Baxter operators on the twisted spin chain via graded oscillator traces.

The chain Hilbert space is (C^{l+1})^(x n), flattened row-major with site 1
as the leftmost tensor factor.  The a-th Baxter operator is the graded trace
over the a-th oscillator module family of the monodromy built from the
rotated Lax matrices (site-n factor leftmost), times the oscillator image of
the twist exponential (applied as numeric exponent shifts at the trace),
finally dressed with a sector-diagonal power of the spectral parameter.
Operators with different a and different spectral parameters all commute,
which the tests verify.

The undressed operator Q'_a vanishes between weight sectors, and on sector
k it is a matrix polynomial of degree k_a in z = zeta^s.  It is built once
per a, from the zeta-free Lax matrix, as exact coefficients: one
(k_a+1, m, m) stack per sector of size m.  The Q'_a commute, so one basis
per sector (`QFamily.basis`) diagonalizes every slice of every Q'_a, and
every operator of a family (Q_a at a given zeta, determinants of shifted
Q's, the transfer operators of `funcrel`) is a vector of its dim
eigenvalues, ordered by sector (as in `sectors`) and then by basis column.
Every determinant of shifted Q's is formed by `line_det`, as a polynomial
in z on each eigenline.  Only `QFamily.q_op` forms a (dim, dim) matrix.
"""
from __future__ import annotations

import cmath
import itertools
import json
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .borelhoms import TwistConfig, module_signs, twist_diagonal
from .lop import GradingConfig, build_L_a
from .oscalg import OscExpr, multiply, trace_product
from .qnum import TOLERANCE, QContext, relative

# Each sector's basis diagonalizes sum_a GAMMA^(a-1) Q'_a(z_a), z_a = zeta^s
# with zeta cycling through BASIS_ZETAS; DIAG_TOL bounds the relative
# off-diagonal of every coefficient slice in that basis.
BASIS_ZETAS = (0.43, 0.67)
GAMMA = 0.37 + 0.21j
DIAG_TOL = 1e-8


@dataclass(frozen=True)
class SectorLabel:
    """Occupation numbers (k_1..k_{l+1}) of a weight sector."""

    k: Tuple[int, ...]

    @property
    def n(self) -> int:
        return sum(self.k)


def basis_states(l: int, n: int):
    """Multi-indices (i_1..i_n), i in 1..l+1, row-major order."""
    return list(itertools.product(range(1, l + 2), repeat=n))


def state_index(state: Sequence[int], l: int) -> int:
    idx = 0
    for i in state:
        idx = idx * (l + 1) + (i - 1)
    return idx


def sector_of(state: Sequence[int], l: int) -> SectorLabel:
    k = [0] * (l + 1)
    for i in state:
        k[i - 1] += 1
    return SectorLabel(tuple(k))


def sectors(l: int, n: int) -> Dict[SectorLabel, list]:
    """Map from sector label to the ordered list of basis indices in it."""
    out: Dict[SectorLabel, list] = {}
    for st in basis_states(l, n):
        out.setdefault(sector_of(st, l), []).append(state_index(st, l))
    return out


def dressing_exponent(a: int, label: SectorLabel, twist: TwistConfig,
                      grading: GradingConfig) -> float:
    """D_{a,k}: the power of zeta multiplying sector k of operator a.

    D_{a,k} = (s/2) (mean(y) - y_a) with y_i = k_i - tau_i: built from
    h'_j = h_j - t_j, so the twist enters with a minus sign.
    """
    y = [k - t for k, t in zip(label.k, twist.tau)]
    return grading.total * (sum(y) / len(y) - y[a - 1]) / 2


def _walk(site: int, expr, row: int, col: int, weight: int, excess: list,
          env: tuple) -> None:
    """Fill Q' coefficients for every in-sector (row, col) pair extending a
    suffix.

    `expr` is the monodromy product over sites site+1..n-1 (None before the
    first, the unit if n = 1), `row`/`col` their partial state indices and
    `excess` the row minus column occupation counts so far.  Each site can
    cancel at most two units of excess, so a branch stops once the remaining
    sites cannot make row and column one sector, or once the product
    vanishes; site 0 is paired with `expr` in the trace, never multiplied.
    `env` holds (a, Lax entries, sector stacks, sector of each state, position
    of each state in its sector, module signs, twist shifts, s, context).
    """
    a, entries, blocks, block_of, pos, signs, shifts, s, ctx = env
    dim = len(entries)
    for i in range(dim):
        excess[i] += 1
        for j in range(dim):
            lax = entries[i][j]
            if not lax.terms:
                continue
            excess[j] -= 1
            if sum(map(abs, excess)) <= 2 * site:
                r, c = row + i * weight, col + j * weight
                if site == 0:
                    # A Lax term in entry (i, j) has zeta-power
                    # phi(i) - phi(j) mod s for one fixed phi, so the
                    # powers of an in-sector pair are multiples of s.
                    label = block_of[r]
                    blk = blocks[label]
                    for p, val in trace_product(expr, lax, signs, ctx,
                                                shifts).items():
                        if p // s >= len(blk):
                            raise ArithmeticError(
                                "Q'_%d has a z^%d term on sector %s, "
                                "above its degree %d"
                                % (a, p // s, label.k, len(blk) - 1))
                        blk[p // s, pos[r], pos[c]] = val
                else:
                    prod = lax if expr is None else multiply(expr, lax, ctx)
                    if prod.terms:
                        _walk(site - 1, prod, r, c, weight * dim, excess, env)
            excess[j] += 1
        excess[i] -= 1


def q_prime(a: int, n: int, twist: TwistConfig, grading: GradingConfig,
            ctx: QContext) -> Dict[SectorLabel, np.ndarray]:
    """Undressed Baxter operator Q'_a as exact coefficients in z = zeta^s.

    One walk over the zeta-free monodromy: the graded trace of each
    in-sector entry times the twist, split by power of zeta.  Returns, per
    sector k, a (k_a+1, m, m) array whose j-th slice multiplies z^j (rows
    and columns in the order of `sectors`); a term above degree k_a raises
    ArithmeticError.  Entry (i, j) of the monodromy is
    L_{i_n j_n} ... L_{i_1 j_1}: sites n..2 multiplied left to right, shared
    by states that agree there, and site 1 paired with them in the trace.
    """
    l = grading.l
    lop = build_L_a(a, None, grading, ctx)
    block_of, pos, blocks = {}, {}, {}
    for label, idxs in sectors(l, n).items():
        blocks[label] = np.zeros((label.k[a - 1] + 1, len(idxs), len(idxs)),
                                 dtype=complex)
        for p, idx in enumerate(idxs):
            block_of[idx], pos[idx] = label, p
    _walk(n - 1, OscExpr.one(l) if n == 1 else None, 0, 0, 1, [0] * (l + 1),
          (a, lop.entries, blocks, block_of, pos, module_signs(a, l),
           twist_diagonal(a, twist), grading.total, ctx))
    return blocks


def horner(coeffs: np.ndarray, z: complex) -> np.ndarray:
    """sum_k coeffs[k] z^k, by Horner's rule over the leading axis."""
    out = coeffs[-1]
    for c in coeffs[-2::-1]:
        out = out * z + c
    return out


def poly_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of polynomials with ascending coefficients along the leading
    axis, elementwise over the others (one column per eigenline)."""
    out = np.zeros((len(a) + len(b) - 1,) + b.shape[1:], dtype=complex)
    for k, ak in enumerate(a):
        out[k:k + len(b)] += ak * b
    return out


def op_det(blocks: list, product) -> np.ndarray:
    """Determinant of a matrix of mutually commuting entries.

    Cofactor expansion along the first row.  `product` multiplies two
    entries: `np.multiply` for eigenline values, `np.matmul` for matrices,
    `poly_product` for polynomials.
    """
    p = len(blocks)
    if p == 1:
        return blocks[0][0]
    out = None
    for col in range(p):
        entry = blocks[0][col]
        minor = [[blocks[r][c] for c in range(p) if c != col]
                 for r in range(1, p)]
        term = product(entry, op_det(minor, product))
        if col % 2:
            term = -term
        out = term if out is None else out + term
    return out


def line_det(rows: Sequence[np.ndarray], dress: Sequence[np.ndarray],
             powers: Sequence[float], s: int, ctx: QContext) -> np.ndarray:
    """det( Q_{a_i}(q^{p_j/s} zeta) ) on eigenlines, as a polynomial in z.

    rows[i] holds the coefficients of Q'_{a_i} in z = zeta^s, one column
    per eigenline (zero above a line's degree), dress[i] the dressing
    exponents D_{a_i} of those lines, and powers the column shifts p_j.
    Entry (i, j) has the coefficients c_{a_i,k} q^{p_j (k + D_{a_i}/s)},
    each power of q taken whole (rounded once), so the determinant is
    zeta^{sum_i D_{a_i}} P(zeta^s); returns the coefficients of P,
    ascending, one column per eigenline.
    """
    entries = [[r * np.power(ctx.q, p * (np.arange(len(r))[:, None] + d / s))
                for p in powers] for r, d in zip(rows, dress)]
    return op_det(entries, poly_product)


MATRIX_FORMAT_VERSION = 1


def save_matrix(path: str, mat: np.ndarray, meta: dict) -> None:
    """Write a complex matrix as flat binary plus a JSON sidecar.

    The sidecar (path + ".json") records the shape, dtype, format version
    and whatever run metadata (l, n, zeta, tau, grading, ...) is supplied.
    """
    arr = np.ascontiguousarray(mat, dtype=np.complex128)
    arr.tofile(path)
    sidecar = dict(meta)
    sidecar.update({
        "shape": list(arr.shape),
        "dtype": "complex128",
        "format_version": MATRIX_FORMAT_VERSION,
    })
    with open(path + ".json", "w", encoding="utf-8") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)


def load_matrix(path: str) -> Tuple[np.ndarray, dict]:
    """Read a matrix written by `save_matrix`; returns (matrix, sidecar)."""
    with open(path + ".json", encoding="utf-8") as f:
        meta = json.load(f)
    if meta.get("format_version") != MATRIX_FORMAT_VERSION:
        raise ValueError("unsupported matrix format version: %r"
                         % meta.get("format_version"))
    arr = np.fromfile(path, dtype=np.complex128).reshape(meta["shape"])
    return arr, meta


class QFamily:
    """Baxter operators of one chain (fixed l, n, twist, grading).

    Each Q'_a is built once (`q_prime`), each sector's joint eigenbasis at
    most once (`basis`); operators are vectors of eigenline values.
    """

    def __init__(self, n: int, twist: TwistConfig, grading: GradingConfig,
                 ctx: QContext):
        if grading.l != twist.l:
            raise ValueError("twist and grading rank mismatch")
        self.n = n
        self.twist = twist
        self.grading = grading
        self.ctx = ctx
        self.sectors = sectors(grading.l, n)
        self._sizes = [len(idxs) for idxs in self.sectors.values()]
        self._dress = {a: [dressing_exponent(a, k, twist, grading) for k in
                           self.sectors] for a in range(1, grading.l + 2)}
        self._coeffs: dict = {}
        self._bases: dict = {}
        self._rows: dict = {}
        # Per sector: smallest eigenvalue separation of the basis operator
        # (relative to its largest eigenvalue; None on a one-line sector),
        # worst relative off-diagonal of any coefficient slice.
        self.health: Dict[SectorLabel, dict] = {}

    @property
    def l(self) -> int:
        return self.grading.l

    @property
    def dim(self) -> int:
        return (self.l + 1) ** self.n

    def coefficients(self, a: int) -> Dict[SectorLabel, np.ndarray]:
        """Q'_a as per-sector coefficient stacks (`q_prime`), built once."""
        if a not in self._coeffs:
            self._coeffs[a] = q_prime(a, self.n, self.twist, self.grading,
                                      self.ctx)
        return self._coeffs[a]

    def basis(self, label: SectorLabel) -> tuple:
        """(V, V^-1, {a: coefficients of Q'_a, one row per eigenline}).

        V diagonalizes sum_a GAMMA^(a-1) Q'_a(z_a) (see BASIS_ZETAS): where
        one Q'_a is scalar (k_a = 0), the others still split the spectrum.
        A slice left off-diagonal beyond DIAG_TOL means a degenerate
        spectrum: ArithmeticError, raised again on every later call.
        """
        if label not in self._bases:
            self._bases[label] = self._eigenbasis(label)
        if isinstance(self._bases[label], ArithmeticError):
            raise self._bases[label]
        return self._bases[label]

    def _eigenbasis(self, label: SectorLabel):
        """`basis` of a sector, or the ArithmeticError for a degenerate one."""
        s = self.grading.total
        stacks = {a: self.coefficients(a)[label]
                  for a in range(1, self.l + 2)}
        b = sum(GAMMA ** (a - 1) * horner(c, BASIS_ZETAS[(a - 1) % 2] ** s)
                for a, c in stacks.items())
        vals, vecs = np.linalg.eig(b)
        vinv = np.linalg.inv(vecs)
        residues, coeffs = {}, {}
        for a, c in stacks.items():
            d = vinv @ c @ vecs
            diag = np.diagonal(d, axis1=1, axis2=2)
            off = np.abs(d - diag[:, :, None] * np.eye(len(vals))).max()
            residues[a] = float(relative(off, np.abs(d).max()))
            coeffs[a] = diag.T
        worst = max(residues, key=residues.get)
        gaps = np.abs(vals[:, None] - vals[None, :])[
            np.triu_indices(len(vals), 1)]
        self.health[label] = {
            "min_separation": (float(relative(gaps.min(),
                                              np.max(np.abs(vals))))
                               if gaps.size else None),
            "offdiag_residue": residues[worst],
        }
        if residues[worst] > DIAG_TOL:
            return ArithmeticError("sector %s eigenbasis does not "
                                   "diagonalize Q_%d (relative off-diagonal "
                                   "%.2e)" % (label.k, worst, residues[worst]))
        return vecs, vinv, coeffs

    def identity(self) -> np.ndarray:
        """The identity: 1 on every eigenline."""
        return np.ones(self.dim, dtype=complex)

    def _lines(self, a: int) -> tuple:
        """(coefficient rows, dressing exponents) of Q_a on every eigenline,
        in line order: rows is (n+1, dim), zero above each sector's k_a."""
        if a not in self._rows:
            rows = np.zeros((self.n + 1, self.dim), dtype=complex)
            start = 0
            for label, m in zip(self.sectors, self._sizes):
                c = self.basis(label)[2][a]
                rows[:c.shape[1], start:start + m] = c.T
                start += m
            self._rows[a] = rows, np.repeat(self._dress[a], self._sizes)
        return self._rows[a]

    def q_op(self, a: int, zeta: complex) -> np.ndarray:
        """Dressed Baxter operator Q_a(zeta), dense, from its sector blocks."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for d, (label, idxs) in zip(self._dress[a], self.sectors.items()):
            out[np.ix_(idxs, idxs)] = cmath.exp(d * cmath.log(zeta)) * horner(
                self.coefficients(a)[label], zeta ** self.grading.total)
        return out

    def shifted_det(self, a_tuple: Sequence[int], powers: Sequence[float],
                    zeta: complex) -> np.ndarray:
        """det( Q_{a_i}(q^{p_j/s} zeta) ): row i is a_i, column j is p_j."""
        s = self.grading.total
        rows, dress = zip(*map(self._lines, a_tuple))
        poly = line_det(rows, dress, powers, s, self.ctx)
        return np.exp(sum(dress) * cmath.log(zeta)) * horner(poly, zeta ** s)

    def generalized_q(self, a_tuple: Sequence[int],
                      zeta: complex) -> np.ndarray:
        """det( Q_{a_i}(q^{(p - 2j + 1)/s} zeta) )_{i,j=1..p}; empty -> 1."""
        p = len(a_tuple)
        if p == 0:
            return self.identity()
        return self.shifted_det(a_tuple, [p - 2 * j + 1
                                          for j in range(1, p + 1)], zeta)

    def c_l(self) -> np.ndarray:
        """Twisted Weyl-denominator-type normalization, one value per line.

        Sector value: prod_{i<j} q^{e_ij/2} / (1 - q^{e_ij}) with
        e_ij = (k_i - k_j) - (tau_i - tau_j).
        """
        tau, ctx = self.twist.tau, self.ctx
        out = []
        for label in self.sectors:
            val = 1.0 + 0j
            for i, j in itertools.combinations(range(self.l + 1), 2):
                e = (label.k[i] - label.k[j]) - (tau[i] - tau[j])
                den = 1.0 - ctx.qpow(e)
                if abs(den) < TOLERANCE:
                    raise ArithmeticError("degenerate twist in normalization")
                val *= ctx.qpow(e / 2.0) / den
            out.append(val)
        return np.repeat(out, self._sizes)
