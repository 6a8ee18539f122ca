"""Baxter operators on the twisted spin chain via graded oscillator traces.

The chain Hilbert space is (C^{l+1})^(x n), flattened row-major with site 1
as the leftmost tensor factor.  The a-th Baxter operator is the graded trace
over the a-th oscillator module family of the monodromy built from the
rotated Lax matrices (site-n factor leftmost), times the oscillator image of
the twist exponential (applied as numeric exponent shifts at the trace),
finally dressed with a sector-diagonal power of the spectral parameter.
Operators with different a and different spectral parameters all commute,
which the tests verify.

The undressed operator Q'_a is a matrix polynomial of degree n in
z = zeta^s that vanishes between weight sectors.  It is built once per a,
from the zeta-free Lax matrix, as exact coefficients: one (n+1, m, m) stack
per sector of size m.  An operator at a given zeta is then a Horner
evaluation of those stacks plus the sector dressing.

Determinants of shifted Baxter operators (generalized Q-functions) feed the
functional relations in `funcrel`.
"""
from __future__ import annotations

import cmath
import itertools
import json
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .borelhoms import TwistConfig, module_signs, twist_diagonal
from .lop import GradingConfig, LOperator, build_L_a
from .oscalg import OscExpr, multiply, trace_powers
from .qnum import QContext


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

    Built from h'_j = h_j - t_j, so the twist enters with a minus sign.
    """
    l = grading.l
    k = label.k
    s = grading.total
    acc = 0.0
    for j in range(1, l + 1):
        term = k[j - 1] - k[j] - twist.t(j)
        if j <= a - 1:
            acc += j * term
        else:
            acc -= (l - j + 1) * term
    return s * acc / (2 * (l + 1))


def monodromy_entry(lop: LOperator, row_state: Sequence[int],
                    col_state: Sequence[int], ctx: QContext) -> OscExpr:
    """Oscillator entry L_{i_n j_n} ... L_{i_1 j_1} of the n-site monodromy."""
    n = len(row_state)
    expr = lop.entry(row_state[-1], col_state[-1])
    for site in range(n - 2, -1, -1):
        expr = multiply(expr, lop.entry(row_state[site], col_state[site]), ctx)
    return expr


def _walk(site: int, expr, row: int, col: int, weight: int, excess: list,
          env: tuple) -> None:
    """Fill Q' coefficients for every in-sector (row, col) pair extending a
    suffix.

    `expr` is the monodromy product over sites site+1..n-1 (None before the
    first), `row`/`col` their partial state indices and `excess` the row
    minus column occupation counts so far.  Each site can cancel at most two
    units of excess, so a branch stops once the remaining sites cannot make
    row and column one sector, or once the product vanishes.  `env` holds
    (Lax entries, sector blocks, block of each state, position of each state
    in its block, module signs, twist shifts, s, context).
    """
    entries, blocks, block_of, pos, signs, shifts, s, ctx = env
    dim = len(entries)
    for i in range(dim):
        excess[i] += 1
        for j in range(dim):
            factor = entries[i][j]
            if not factor.terms:
                continue
            excess[j] -= 1
            if sum(map(abs, excess)) <= 2 * site:
                prod = factor if expr is None else multiply(expr, factor, ctx)
                if prod.terms:
                    r, c = row + i * weight, col + j * weight
                    if site == 0:
                        # A Lax term in entry (i, j) has zeta-power
                        # phi(i) - phi(j) mod s for one fixed phi, so the
                        # powers of an in-sector pair are multiples of s.
                        blk = blocks[block_of[r]]
                        for p, val in trace_powers(prod, signs, ctx,
                                                   shifts).items():
                            blk[p // s, pos[r], pos[c]] = val
                    else:
                        _walk(site - 1, prod, r, c, weight * dim, excess, env)
            excess[j] += 1
        excess[i] -= 1


def q_prime(a: int, n: int, twist: TwistConfig, grading: GradingConfig,
            ctx: QContext) -> Dict[SectorLabel, np.ndarray]:
    """Undressed Baxter operator Q'_a as exact coefficients in z = zeta^s.

    One walk over the zeta-free monodromy: the graded trace of each
    in-sector entry times the twist, split by power of zeta.  Returns, per
    sector, a (n+1, m, m) array whose k-th slice multiplies z^k (rows and
    columns in the order of `sectors`).  The entries are those of
    `monodromy_entry`, with the same multiply order, but pairs of states
    that share their last sites share the partial products over those sites.
    """
    l = grading.l
    lop = build_L_a(a, None, grading, ctx)
    secs = sectors(l, n)
    block_of, pos = {}, {}
    blocks = []
    for b, idxs in enumerate(secs.values()):
        blocks.append(np.zeros((n + 1, len(idxs), len(idxs)), dtype=complex))
        for p, idx in enumerate(idxs):
            block_of[idx], pos[idx] = b, p
    _walk(n - 1, None, 0, 0, 1, [0] * (l + 1),
          (lop.entries, blocks, block_of, pos, module_signs(a, l),
           twist_diagonal(a, twist, ctx), grading.total, ctx))
    return dict(zip(secs, blocks))


def horner(coeffs: np.ndarray, z: complex) -> np.ndarray:
    """sum_k coeffs[k] z^k, by Horner's rule over the leading axis."""
    out = coeffs[-1]
    for c in coeffs[-2::-1]:
        out = out * z + c
    return out


def c_l_diagonal(n: int, twist: TwistConfig, grading: GradingConfig,
                 ctx: QContext) -> np.ndarray:
    """Diagonal of the twisted Weyl-denominator-type normalization operator.

    Sector eigenvalue: prod_{i<j} q^{e_ij/2} / (1 - q^{e_ij}) with
    e_ij = (k_i - k_j) - (tau_i - tau_j).
    """
    l = grading.l
    diag = np.zeros((l + 1) ** n, dtype=complex)
    for label, idxs in sectors(l, n).items():
        val = 1.0 + 0j
        for i in range(1, l + 2):
            for j in range(i + 1, l + 2):
                e = (label.k[i - 1] - label.k[j - 1]) \
                    - (twist.tau[i - 1] - twist.tau[j - 1])
                den = 1.0 - ctx.qpow(e)
                if abs(den) < ctx.tolerance:
                    raise ArithmeticError("degenerate twist in normalization")
                val *= ctx.qpow(e / 2.0) / den
        diag[idxs] = val
    return diag


def op_det(blocks: list) -> np.ndarray:
    """Determinant of a matrix of mutually commuting operators.

    Cofactor expansion along the first row; entries are dense ndarrays.
    """
    p = len(blocks)
    if p == 1:
        return blocks[0][0]
    out = None
    for col in range(p):
        entry = blocks[0][col]
        minor = [[blocks[r][c] for c in range(p) if c != col]
                 for r in range(1, p)]
        term = entry @ op_det(minor)
        if col % 2:
            term = -term
        out = term if out is None else out + term
    return out


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

    Each Q'_a is built once as sector coefficient stacks (`q_prime`); dense
    dressed operators are evaluated from them and cached per (a, zeta).
    """

    def __init__(self, n: int, twist: TwistConfig, grading: GradingConfig,
                 ctx: QContext):
        if grading.l != twist.l:
            raise ValueError("twist and grading rank mismatch")
        self.n = n
        self.twist = twist
        self.grading = grading
        self.ctx = QContext(q=ctx.q, tolerance=ctx.tolerance,
                            tau=tuple(twist.tau))
        self._index = {label: np.array(idxs)
                       for label, idxs in sectors(grading.l, n).items()}
        self._coeffs: dict = {}
        self._cache: dict = {}

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

    def q_op(self, a: int, zeta: complex) -> np.ndarray:
        """Dressed Baxter operator Q_a(zeta) = zeta^{D_a} Q'_a(zeta), dense."""
        key = (a, complex(zeta))
        if key not in self._cache:
            z = zeta ** self.grading.total
            logz = cmath.log(zeta)
            out = np.zeros((self.dim, self.dim), dtype=complex)
            for label, coeffs in self.coefficients(a).items():
                d = dressing_exponent(a, label, self.twist, self.grading)
                idx = self._index[label]
                out[np.ix_(idx, idx)] = cmath.exp(d * logz) * horner(coeffs, z)
            self._cache[key] = out
        return self._cache[key]

    def shifted(self, a: int, zeta: complex, power) -> np.ndarray:
        """Q_a at q^{power/s} zeta (power may be rational)."""
        s = self.grading.total
        shift = self.ctx.qpow(float(power) / s)
        return self.q_op(a, shift * zeta)

    def generalized_q(self, a_tuple: Sequence[int],
                      zeta: complex) -> np.ndarray:
        """det( Q_{a_i}(q^{(p - 2j + 1)/s} zeta) )_{i,j=1..p}; empty -> 1."""
        p = len(a_tuple)
        if p == 0:
            return np.eye(self.dim, dtype=complex)
        blocks = [
            [self.shifted(a_tuple[i], zeta, p - 2 * (j + 1) + 1)
             for j in range(p)]
            for i in range(p)
        ]
        return op_det(blocks)

    def c_l(self) -> np.ndarray:
        return c_l_diagonal(self.n, self.twist, self.grading, self.ctx)
