"""Reference code the tests compare the library against.

Each reference builds its result the straight way, independent of the
library path it checks; the rest is algebra of the paper that only the
tests exercise (the Borel realization, the Weyl group, two l-weight
formulas).
"""
import cmath
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from baxq import rootdata
from baxq.bethe import BethePolynomial, _leveled_ratio
from baxq.lop import GradingConfig, LOperator, _zero_matrix, build_L
from baxq.lweight import (FactorRatio, _shifted_product, _vacuum,
                          conjectured_xi, highest_lweight, weight_shift)
from baxq.oscalg import ModeKey, OscExpr, _mode_trace, multiply
from baxq.qnum import TOLERANCE, QContext
from baxq.qop import QFamily, dressing_exponent, horner, op_det


def monodromy_entry(lop, row_state, col_state, ctx):
    """Oscillator entry L_{i_n j_n} ... L_{i_1 j_1} of the n-site monodromy,
    one straight product per entry: the reference for `q_prime`."""
    expr = lop.entry(row_state[-1], col_state[-1])
    for site in range(len(row_state) - 2, -1, -1):
        expr = multiply(expr, lop.entry(row_state[site], col_state[site]), ctx)
    return expr


def dense_eigenvalue(fam, a_tuple, label, line, zeta):
    """A generalized Q at zeta on one eigenline, from dense matrices only.

    det( Q_{a_i}(q^{(p - 2j + 1)/s} zeta) ) expanded by `op_det` with
    `np.matmul` over dense `q_op` matrices, restricted to the sector and
    projected with its basis: independent of the eigenline determinant
    (`qop.line_det`, behind `QFamily.shifted_det` and
    `bethe.eigen_polynomial`) that it checks.
    """
    p, s = len(a_tuple), fam.grading.total
    det = op_det([[fam.q_op(a, fam.ctx.qpow((p - 2 * j + 1) / s) * zeta)
                   for j in range(1, p + 1)] for a in a_tuple], np.matmul)
    idxs = fam.sectors[label]
    vecs, vinv, _ = fam.basis(label)
    return complex(vinv[line] @ det[np.ix_(idxs, idxs)] @ vecs[:, line])


def q_lines(fam, a, zeta):
    """Dressed Q_a(zeta) = zeta^{D_a} Q'_a(zeta^s) on every eigenline, one
    Horner pass per sector over the basis rows: the 1x1 reference for the
    determinants of `qop.line_det`."""
    s = fam.grading.total
    dress = [cmath.exp(dressing_exponent(a, label, fam.twist, fam.grading)
                       * cmath.log(zeta)) for label in fam.sectors]
    sizes = [len(idxs) for idxs in fam.sectors.values()]
    return np.repeat(dress, sizes) * np.concatenate(
        [horner(fam.basis(label)[2][a].T, zeta ** s)
         for label in fam.sectors])


def jimbo_r(z1, z2, grading, q):
    """Trigonometric R-matrix in closed form (Jimbo, Commun. Math. Phys.
    102 (1986) 537), in the layout [out_a, out_b, in_a, in_b] of
    `solve_intertwiner`, normalized to R[aa, aa] = 1, with x = (z1/z2)^S and
    S the grading total."""
    d, S = grading.l + 1, grading.total
    x = (z1 / z2) ** S
    den = q * x - 1 / q
    r = np.zeros((d,) * 4, dtype=complex)
    for a in range(d):
        r[a, a, a, a] = 1.0
        for b in range(d):
            if a != b:
                r[a, b, a, b] = (x - 1) / den
                p = (S - grading.partial(a + 1, b + 1) if a < b
                     else grading.partial(b + 1, a + 1))
                r[b, a, a, b] = (q - 1 / q) * (z1 / z2) ** p / den
    return r


def twist_coefficients(l: int) -> list:
    """Coefficients theta_j of the twist exponent sum_j theta_j h_j.

    The twist element pairs the parameters t_i = tau_i - tau_{i+1} with the
    Cartan generators through the inverse Cartan matrix,
    theta_j = sum_i c_ij t_i = sum_{m<=j} tau_m - (j/(l+1)) sum_m tau_m,
    which is exactly what makes the shift identities behind the functional
    relations close.  Each theta_j is returned as its exact coefficient list
    over tau_1..tau_{l+1}.
    """
    return [
        [Fraction(l + 1 - j, l + 1) if m <= j else Fraction(-j, l + 1)
         for m in range(1, l + 2)]
        for j in range(1, l + 1)
    ]


def summed_twist_diagonal(a: int, twist) -> list:
    """The twist shifts E_k = sum_j theta_j * pattern_j[k] of realization a,
    summed exactly over tau before one numeric evaluation: the reference
    for `twist_diagonal`."""
    l = twist.l
    theta = twist_coefficients(l)
    coeffs = [[Fraction(0)] * (l + 1) for _ in range(l)]
    for i in range(1, l + 1):
        j = (i - a) % (l + 1)
        pattern = _h_pattern(j, l)
        for k in range(l):
            if pattern[k]:
                coeffs[k] = [c + t * pattern[k]
                             for c, t in zip(coeffs[k], theta[i - 1])]
    return [sum(float(c) * twist.tau[m] for m, c in enumerate(row) if c)
            for row in coeffs]


def looped_dressing_exponent(a, label, twist, grading) -> float:
    """D_{a,k} as a sum over the simple roots, from h'_j = h_j - t_j: the
    reference for `dressing_exponent`."""
    l = grading.l
    k = label.k
    s = grading.total
    acc = 0.0
    for j in range(1, l + 1):
        term = k[j - 1] - k[j] - (twist.tau[j - 1] - twist.tau[j])
        if j <= a - 1:
            acc += j * term
        else:
            acc -= (l - j + 1) * term
    return s * acc / (2 * (l + 1))


_O_CACHE: dict = {}


def _shift_matrices(l, ctx):
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


def _scalar_mat_apply(s, m, left):
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


def conjugated_L_a(a, zeta, grading, ctx):
    """Rotated Lax matrix by conjugating a times with the cyclic shift, the
    grading rotated at each step: the reference for `build_L_a`."""
    l = grading.l
    if not 1 <= a <= l + 1:
        raise ValueError("a out of range")
    if a == l + 1:
        return build_L(zeta, grading, ctx)
    inner = conjugated_L_a(a - 1 if a >= 2 else l + 1, zeta, grading.rotate(),
                           ctx)
    o, oinv = _shift_matrices(l, ctx)
    tmp = _scalar_mat_apply(o, inner.entries, left=True)
    ent = _scalar_mat_apply(oinv, tmp, left=False)
    return LOperator(l, zeta, grading, ent)


# -- straight-line traces, the reference for `trace_product` --------------

def trace_powers(x: OscExpr, signs: Sequence[int], ctx: QContext,
                 shifts: Optional[Sequence[float]] = None
                 ) -> Dict[int, complex]:
    """Graded trace over a product of Fock modules, one sign per mode,
    taken separately for each zeta-power: {p: trace of the zeta^p part}.

    `shifts`, if given, adds a numeric exponent to each mode: the result is
    the trace of x * prod_k q^{shifts[k-1] N_k}.
    """
    if len(signs) != x.modes:
        raise ValueError("need one module sign per mode")
    if shifts is None:
        shifts = (0,) * x.modes
    elif len(shifts) != x.modes:
        raise ValueError("need one exponent shift per mode")
    out: Dict[int, complex] = {}
    for (key, p), c in x.terms:
        val = c
        for mode, s, sh in zip(key, signs, shifts):
            val *= _mode_trace(mode, s, sh, ctx)
            if val == 0:
                break
        out[p] = out.get(p, 0j) + val
    return out


def max_abs(x: OscExpr) -> float:
    """Largest coefficient magnitude of an expression (0 when empty)."""
    return max((abs(v) for _, v in x.terms), default=0.0)


# -- truncated Fock traces, the reference for `trace_product` --------------

@dataclass(frozen=True)
class TruncatedFock:
    """Finite matrix realization of one oscillator mode.

    kind=+1 realizes the raising-type module (bdag shifts the level up,
    b w_n = [n]_q w_{n-1}); kind=-1 realizes the lowering-type one
    (b shifts up, bdag w_n = -[n]_q w_{n-1}, q^{nu N} w_n = q^{-nu(n+1)} w_n).
    """

    cutoff: int
    kind: int
    ctx: QContext

    def _qnums(self) -> np.ndarray:
        q, k = self.ctx.q, self.ctx.kappa
        n = np.arange(self.cutoff, dtype=complex)
        return (q ** n - q ** (-n)) / k

    def raising(self) -> np.ndarray:
        m = np.zeros((self.cutoff, self.cutoff), dtype=complex)
        idx = np.arange(self.cutoff - 1)
        m[idx + 1, idx] = 1.0
        return m

    def lowering(self) -> np.ndarray:
        m = np.zeros((self.cutoff, self.cutoff), dtype=complex)
        idx = np.arange(1, self.cutoff)
        m[idx - 1, idx] = self._qnums()[idx]
        return m

    def bdag(self) -> np.ndarray:
        return self.raising() if self.kind > 0 else -self.lowering()

    def b(self) -> np.ndarray:
        return self.lowering() if self.kind > 0 else self.raising()

    def q_n(self, nu: float) -> np.ndarray:
        n = np.arange(self.cutoff)
        if self.kind > 0:
            diag = np.array([self.ctx.qpow(nu * int(k)) for k in n])
        else:
            diag = np.array([self.ctx.qpow(-nu * (int(k) + 1)) for k in n])
        return np.diag(diag.astype(complex))

    def mono_matrix(self, mode: ModeKey) -> np.ndarray:
        a, b, e = mode
        m = self.q_n(e)
        bop = self.b()
        for _ in range(b):
            m = bop @ m
        bd = self.bdag()
        for _ in range(a):
            m = bd @ m
        return m


def _zeta_free_terms(x: OscExpr) -> list:
    """(MonoKey, coeff) pairs of an expression without zeta-powers."""
    if any(p for (_, p), _ in x.terms):
        raise ValueError("expression carries zeta-powers")
    return [(key, c) for (key, _), c in x.terms]


def to_truncated(x: OscExpr, focks: Sequence[TruncatedFock]) -> np.ndarray:
    """Dense matrix of a zeta-free expression on the tensor product of
    cutoffs."""
    if len(focks) != x.modes:
        raise ValueError("need one truncation per mode")
    dim = int(np.prod([f.cutoff for f in focks]))
    out = np.zeros((dim, dim), dtype=complex)
    for key, c in _zeta_free_terms(x):
        m = np.eye(1, dtype=complex)
        for mode, f in zip(key, focks):
            m = np.kron(m, f.mono_matrix(mode))
        out += c * m
    return out


def truncated_trace(x: OscExpr, focks: Sequence[TruncatedFock]) -> complex:
    """Trace of to_truncated(x) computed mode-by-mode (no Kronecker blowup).

    The sign grading of the lowering-type module is baked into its matrix
    realization, so a plain matrix trace is the graded trace.
    """
    total = 0.0 + 0j
    for key, c in _zeta_free_terms(x):
        val = c
        for mode, f in zip(key, focks):
            val *= np.trace(f.mono_matrix(mode))
            if val == 0:
                break
        total += val
    return total


# -- factored Lax matrix, the reference for `build_L` ----------------------

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
            worst = max(worst, max_abs(diff))
    return worst


# -- ratio form and Newton solver, references for `bae_residual` -----------

# Newton iteration of `solve_bae_newton`: step cap, damping, residual bound.
NEWTON_MAX_ITER, NEWTON_DAMPING, NEWTON_TOL = 200, 1.0, 1e-10


def polynomial_value(poly: BethePolynomial, zeta: complex, s: int) -> complex:
    """Value c * zeta^prefactor * prod_j (zeta^s - roots[j]) at zeta."""
    out = poly.leading * cmath.exp(poly.prefactor * cmath.log(zeta))
    zs = zeta ** s
    for r in poly.roots:
        out *= zs - r
    return out


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
        return polynomial_value(poly, zeta, s)

    num = ev(prev, 1 / q) * ev(cur, q * q) * ev(nxt, 1 / q)
    den = ev(prev, q) * ev(cur, 1 / (q * q)) * ev(nxt, q)
    return abs(num / den + 1.0)


def solve_bae_newton(path: Sequence[int], degrees: Sequence[int],
                     initial: Sequence[Sequence[complex]],
                     fam: QFamily) -> List[List[complex]]:
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

    for _ in range(NEWTON_MAX_ITER):
        f = equations(x)
        if np.max(np.abs(f)) < NEWTON_TOL:
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
        x = x - NEWTON_DAMPING * step
    raise ArithmeticError("Newton iteration did not converge in %d steps"
                          % NEWTON_MAX_ITER)


# -- Borel realization -----------------------------------------------------

def _h_pattern(j: int, l: int) -> list:
    """Exponent pattern of the base image of q^{h_j}: coefficients on N_k."""
    if j == 0:
        return [2 if k == 1 else 1 for k in range(1, l + 1)]
    if j == l:
        return [-2 if k == l else -1 for k in range(1, l + 1)]
    return [1 if k == j + 1 else (-1 if k == j else 0) for k in range(1, l + 1)]


def _base_e_image(j: int, l: int, ctx: QContext) -> OscExpr:
    """Image of e_j under the base realization (a = l+1)."""
    if j == 0:
        # bdag_1 q^{N_2 + ... + N_l}
        spec = {1: (1, 0, 0)}
        for k in range(2, l + 1):
            spec[k] = (0, 0, 1)
        return OscExpr.monomial(l, spec)
    if j == l:
        # -kappa^{-1} b_l q^{N_l}
        spec = {l: (0, 1, 1)}
        return OscExpr.monomial(l, spec, -1.0 / ctx.kappa)
    # -b_j bdag_{j+1} q^{N_j - N_{j+1} - 1}
    spec = {j: (0, 1, 1), j + 1: (1, 0, -1)}
    return OscExpr.monomial(l, spec, -ctx.qpow(-1))


def o_image(kind: str, i: int, nu, a: int, l: int, ctx: QContext) -> OscExpr:
    """Image of generator i under realization a.

    kind is "e" (raising generator e_i, nu ignored) or "h" (Cartan
    exponential q^{nu h_i}, nu a plain number); i runs over 0..l, a over
    1..l+1.  Realization a sends generator i to the base image of generator
    (i - a) mod (l+1).
    """
    j = (i - a) % (l + 1)
    if kind == "e":
        return _base_e_image(j, l, ctx)
    if kind == "h":
        return OscExpr.q_exponent(l, [nu * c for c in _h_pattern(j, l)])
    raise ValueError("kind must be 'e' or 'h'")


# -- normalization series -------------------------------------------------

# Terms summed by `f_series` before it gives up.
F_SERIES_MAX_TERMS = 100000


def f_series(rank_plus_one: int, z: complex, ctx: QContext) -> complex:
    """sum_{n>=1} z^n / (n [rank_plus_one]_{q^n}), convergent for |z| < 1.

    Satisfies sum_{j=1}^{L} F(q^{L-2j+1} z) = -log(1 - z) with
    L = rank_plus_one, which the tests exercise.
    """
    if abs(z) >= 1.0:
        raise ValueError("series diverges for |z| >= 1 (got |z|=%g)" % abs(z))
    total = 0.0 + 0j
    zn = 1.0 + 0j
    for n in range(1, F_SERIES_MAX_TERMS + 1):
        zn *= z
        term = zn / (n * _q_int(rank_plus_one, n, ctx))
        total += term
        if abs(term) < TOLERANCE * max(1.0, abs(total)):
            return total
    raise RuntimeError("series did not converge within %d terms"
                       % F_SERIES_MAX_TERMS)


def _q_int(m: int, n: int, ctx: QContext) -> complex:
    """[m]_{q^n} without constructing a new context."""
    qn = ctx.qpow(n)
    return (qn ** m - qn ** (-m)) / (qn - 1.0 / qn)


# -- l-weight formulas -----------------------------------------------------

def factor_value(ratio: FactorRatio, zeta: complex, u: complex, s: int,
                 ctx: QContext) -> complex:
    """prod(1 - q^e zeta^s u) over the num exponents divided by the same
    over the den exponents."""
    zs = zeta ** s
    out = 1.0 + 0j
    for e in ratio.num:
        out *= 1.0 - ctx.qpow(e) * zs * u
    for e in ratio.den:
        out /= 1.0 - ctx.qpow(e) * zs * u
    return out


def sampled_shifted_product(mu: Sequence[float], zeta: complex, u: complex,
                            l: int, ctx: QContext) -> Tuple[float, float]:
    """The factorization of the evaluation highest weight at one point,
    both sides evaluated by `factor_value`: the reference for
    `check_shifted_product`, at any real mu.

    Returns the worst relative component residual over i = 1..l and the
    worst absolute weight residual of sum_a psi_{a,0} = lambda_0 + delta.
    """
    s = l + 1
    target = highest_lweight(mu, l)
    vacuum = _vacuum(l)
    comp_resid = 0.0
    for i in range(1, l + 1):
        lhs = factor_value(_shifted_product(mu, i, l, vacuum), zeta, u, s,
                           ctx)
        rhs = factor_value(target.plus_components[i - 1], zeta, u, s, ctx)
        comp_resid = max(comp_resid, abs(lhs / rhs - 1.0))
    total = [sum(w) for w in zip(*(psi.weight for psi in vacuum))]
    weight_resid = max(abs(t - (w0 + d)) for t, w0, d in
                       zip(total, target.weight, weight_shift(mu, l)))
    return comp_resid, weight_resid


def xi_weight(n_mat: Sequence[Sequence[int]], l: int) -> Tuple[float, ...]:
    """Weight part accompanying the general components."""

    def nn(a: int, j: int) -> int:
        if 1 <= a <= l + 1 and 1 <= j <= l:
            return n_mat[a - 1][j - 1]
        return 0

    out = []
    for i in range(1, l + 1):
        val = -2.0 - 2 * nn(i, 1) - 2 * nn(i + 1, l)
        for k in range(1, i):
            val += (nn(k, i - k) - nn(k, i - k + 1)
                    + nn(i, k - i + l + 1) - nn(i + 1, k - i + l))
        for k in range(i + 2, l + 2):
            val -= (nn(i, k - i) - nn(i + 1, k - i - 1)
                    + nn(k, i - k + l + 1) - nn(k, i - k + l + 2))
        out.append(val)
    return tuple(out)


def conjectured_lambda_plus(mu: Sequence[float],
                            m_mat: Sequence[Sequence[int]], i: int,
                            l: int) -> FactorRatio:
    """Component i for the evaluation module at occupation labels m_{a,j}.

    Obtained from the general oscillator-product components through the
    substitution n_{a,j} = m_{a,a+j}; m_mat[a-1][j-1] holds m_{a,j} for
    1 <= a < j <= l + 1 (other entries ignored).
    """
    n_mat = [
        [m_mat[a - 1][a + j - 1] if a + j <= l + 1 else 0
         for j in range(1, l + 1)]
        for a in range(1, l + 2)
    ]
    return conjectured_xi(mu, n_mat, i, l)


# -- Weyl group and Cartan matrix of type A_l ------------------------------

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


def cartan(l: int) -> list:
    a = [[0] * l for _ in range(l)]
    for i in range(l):
        a[i][i] = 2
        if i > 0:
            a[i][i - 1] = -1
        if i + 1 < l:
            a[i][i + 1] = -1
    return a


def weyl_enumerate(l: int) -> Iterator[WeylElement]:
    for perm in itertools.permutations(range(l + 1)):
        yield WeylElement(perm, _perm_sign(perm))


def affine_action(l: int, w: WeylElement, mu: Sequence) -> tuple:
    """Shifted action w . mu = w(mu + rho) - rho on epsilon coordinates."""
    rho = rootdata.rho(l)
    shifted = tuple(m + r for m, r in zip(mu, rho))
    moved = w.apply(shifted)
    return tuple(x - r for x, r in zip(moved, rho))
