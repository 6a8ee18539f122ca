"""Reference constructions the tests compare the library against.

Each builds its result the straight way, independent of the library path
it checks.
"""
from fractions import Fraction

import numpy as np

from baxq.borelhoms import _h_pattern
from baxq.lop import LOperator, build_L
from baxq.oscalg import OscExpr, multiply
from baxq.qop import op_det


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
    projected with its basis: independent of the eigenline path
    (`q_lines`, `BetheSystem.eigen_polynomial`) that it checks.
    """
    p, s = len(a_tuple), fam.grading.total
    det = op_det([[fam.q_op(a, fam.ctx.qpow((p - 2 * j + 1) / s) * zeta)
                   for j in range(1, p + 1)] for a in a_tuple], np.matmul)
    idxs = fam.sectors[label]
    vecs, vinv, _ = fam.basis(label)
    return complex(vinv[line] @ det[np.ix_(idxs, idxs)] @ vecs[:, line])


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
