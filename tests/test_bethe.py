"""Bethe roots: polynomial extraction, nested equations, Newton solver."""
import numpy as np
import pytest

from baxq.bethe import (BethePolynomial, BetheSystem, bae_ratio_residual,
                        bae_residual, solve_bae_newton)
from baxq.borelhoms import TwistConfig
from baxq.lop import GradingConfig
from baxq.qnum import QContext
from baxq.qop import QFamily, SectorLabel

from conftest import make_setup
from oracles import dense_eigenvalue


@pytest.fixture(scope="module")
def sys12():
    return BetheSystem(make_setup(1, 2)[3])


def test_eigenvalue_polynomial_reconstruction(sys12):
    label = SectorLabel((1, 1))
    poly = sys12.eigen_polynomial((1,), label, 0)
    assert poly.degree == 1
    assert poly.recon_residual < 1e-10
    # the fitted form must reproduce a fresh eigenvalue sample
    zeta = 0.71
    direct = dense_eigenvalue(sys12.fam, (1,), label, 0, zeta)
    assert abs(poly.value(zeta, sys12.fam.grading.total) - direct) \
        < 1e-9 * abs(direct)


def test_polynomial_degree_counts_occupations(sys12):
    # degree of Q_{(1,)} on sector k is k_1; trivial on the (2,0) line it is 2
    poly = sys12.eigen_polynomial((1,), SectorLabel((2, 0)), 0)
    assert poly.degree == 2


def test_leveled_equations_hold_on_extracted_roots(sys12):
    label = SectorLabel((1, 1))
    for line in range(sys12.n_lines(label)):
        polys = sys12.path_polynomials((1, 2), label, line)
        for idx in range(polys[0].degree):
            rep = bae_residual((1, 2), 1, polys, idx, sys12.fam)
            assert rep.residual < 1e-8, (line, idx, rep.residual)


def test_ratio_form_matches_leveled_form(sys12):
    """The generic three-Q ratio form also vanishes at the same roots."""
    label = SectorLabel((1, 1))
    fam = sys12.fam
    polys = sys12.path_polynomials((1, 2), label, 0)
    trivial = sys12.eigen_polynomial((), label, 0)
    full = sys12.eigen_polynomial((1, 2), label, 0)
    for idx in range(polys[0].degree):
        resid = bae_ratio_residual(trivial, polys[0], full, idx, fam)
        assert resid < 1e-7, resid


def test_newton_solver_confirms_roots(sys12):
    label = SectorLabel((1, 1))
    polys = sys12.path_polynomials((1, 2), label, 0)
    guesses = [[r * (1.0 + 0.02j) for r in p.roots] for p in polys]
    solved = solve_bae_newton((1, 2), [p.degree for p in polys], guesses,
                              sys12.fam)
    for level, poly in zip(solved, polys):
        for r in level:
            assert min(abs(r - t) for t in poly.roots) < 1e-8


def test_newton_rejects_shape_mismatch(sys12):
    with pytest.raises(ValueError):
        solve_bae_newton((1, 2), [2], [[0.1], [0.2]], sys12.fam)


def test_permuted_path_also_closes():
    _, _, _, fam = make_setup(1, 2)
    sys_ = BetheSystem(fam)
    label = SectorLabel((1, 1))
    polys = sys_.path_polynomials((2, 1), label, 0)
    for idx in range(polys[0].degree):
        rep = bae_residual((2, 1), 1, polys, idx, fam)
        assert rep.residual < 1e-8, rep.residual


def test_sector_labels_cover_chain(sys12):
    labels = sys12.fam.sectors
    assert sum(sys12.n_lines(lb) for lb in labels) == sys12.fam.dim


@pytest.mark.parametrize("l,n,s", [(1, 3, (1, 1)), (2, 2, (1, 1, 1)),
                                   (3, 2, (1, 1, 1, 1)), (2, 2, (2, 1, 1))])
def test_prefix_polynomials_match_dense_eigenvalues(l, n, s):
    """The polynomials read off the coefficient stacks reproduce the
    eigenvalues of the dense dressed generalized Q, on and off the real
    axis."""
    twist, grading = TwistConfig.default(l), GradingConfig(s)
    bs = BetheSystem(QFamily(n, twist, grading,
                             QContext(q=0.7, tau=twist.tau)))
    path = tuple(range(1, l + 2))
    for label in bs.fam.sectors:
        for line in range(bs.n_lines(label)):
            for poly in bs.path_polynomials(path, label, line):
                for zeta in (0.59, 0.6 + 0.3j):
                    direct = dense_eigenvalue(bs.fam, poly.a_tuple, label,
                                              line, zeta)
                    err = abs(poly.value(zeta, s=grading.total) - direct)
                    assert err <= 1e-10 * abs(direct), \
                        (label.k, line, poly.a_tuple, zeta, err)


def test_string_gap_measures_distance_to_factor_singularities():
    """The gap is the distance, relative to the root, to the nearest point
    q^{+-2} z_j (same level) or q^{+-1} w (adjacent level) where a factor
    of the product form vanishes or diverges."""
    fam = make_setup(2, 2)[3]
    q = fam.ctx.qpow(1)

    def poly(roots):
        return BethePolynomial((1,), SectorLabel((1, 1, 0)), 0, 1.0, 0.0,
                               roots, 0.0)

    w = 0.4 + 0.1j
    near = [poly([w]), poly([q * w * (1 + 1e-9)])]
    assert bae_residual((1, 2, 3), 2, near, 0, fam).string_gap \
        == pytest.approx(1e-9, rel=1e-5)
    string = [poly([w, q * q * w * (1 + 1e-13)]), poly([0.9])]
    assert bae_residual((1, 2, 3), 1, string, 0, fam).string_gap \
        == pytest.approx(1e-13, rel=1e-2)
    lone = make_setup(1, 1)[3]
    assert bae_residual((1, 2), 1, [poly([w])], 0, lone).string_gap is None
