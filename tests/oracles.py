"""Reference constructions the tests compare the library against.

Each builds its result the straight way, independent of the library path
it checks.
"""
import numpy as np

from baxq.oscalg import multiply
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
