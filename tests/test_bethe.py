"""Bethe roots: polynomial extraction, nested equations, Newton solver."""
import pytest

from baxq.bethe import (BethePolynomial, bae_residual, eigen_polynomial,
                        path_polynomials)
from baxq.borelhoms import TwistConfig
from baxq.lop import GradingConfig
from baxq.qnum import QContext
from baxq.qop import QFamily, SectorLabel

from conftest import make_setup
from oracles import (bae_ratio_residual, dense_eigenvalue, polynomial_value,
                     solve_bae_newton)

# Chains of rank 1..3 for the cross-checks against the leveled form, each
# on the sector (1, 1, 0, ..), where every level of the path has roots.
RANKS = [(1, 2), (2, 2), (3, 2)]


@pytest.fixture(scope="module")
def fam12():
    return make_setup(1, 2)[3]


def _label(l):
    return SectorLabel((1, 1) + (0,) * (l - 1))


def test_eigenvalue_polynomial_reconstruction(fam12):
    label = SectorLabel((1, 1))
    poly = eigen_polynomial(fam12, (1,), label, 0)
    assert poly.degree == 1
    assert poly.recon_residual < 1e-10
    # the fitted form must reproduce a fresh eigenvalue sample
    zeta = 0.71
    direct = dense_eigenvalue(fam12, (1,), label, 0, zeta)
    assert abs(polynomial_value(poly, zeta, fam12.grading.total) - direct) \
        < 1e-9 * abs(direct)


def test_polynomial_degree_counts_occupations(fam12):
    # degree of Q_{(1,)} on sector k is k_1; trivial on the (2,0) line it is 2
    poly = eigen_polynomial(fam12, (1,), SectorLabel((2, 0)), 0)
    assert poly.degree == 2


def test_leveled_equations_hold_on_extracted_roots(fam12):
    label = SectorLabel((1, 1))
    for line in range(len(fam12.sectors[label])):
        polys = path_polynomials(fam12, (1, 2), label, line)
        for idx in range(polys[0].degree):
            rep = bae_residual((1, 2), 1, polys, idx, fam12)
            assert rep.residual < 1e-8, (line, idx, rep.residual)


@pytest.mark.parametrize("l,n", RANKS)
def test_ratio_form_matches_leveled_form(l, n):
    """The generic three-Q ratio form also vanishes at the same roots, on
    every level: prefixes 0..l+1 of the path enter as (prev, cur, next)."""
    fam = make_setup(l, n)[3]
    label = _label(l)
    path = tuple(range(1, l + 2))
    for line in range(len(fam.sectors[label])):
        polys = [eigen_polynomial(fam, path[:i], label, line)
                 for i in range(l + 2)]
        for level in range(1, l + 1):
            for idx in range(polys[level].degree):
                resid = bae_ratio_residual(*polys[level - 1:level + 2], idx,
                                           fam)
                assert resid < 1e-7, (line, level, idx, resid)


@pytest.mark.parametrize("l,n", RANKS)
def test_newton_solver_confirms_roots(l, n):
    fam = make_setup(l, n)[3]
    label = _label(l)
    path = tuple(range(1, l + 2))
    for line in range(len(fam.sectors[label])):
        polys = path_polynomials(fam, path, label, line)
        guesses = [[r * (1.0 + 0.02j) for r in p.roots] for p in polys]
        solved = solve_bae_newton(path, [p.degree for p in polys], guesses,
                                  fam)
        for level, poly in zip(solved, polys):
            for r in level:
                assert min(abs(r - t) for t in poly.roots) < 1e-8, \
                    (line, poly.a_tuple)


def test_newton_rejects_shape_mismatch(fam12):
    with pytest.raises(ValueError):
        solve_bae_newton((1, 2), [2], [[0.1], [0.2]], fam12)


def test_permuted_path_also_closes(fam12):
    label = SectorLabel((1, 1))
    polys = path_polynomials(fam12, (2, 1), label, 0)
    for idx in range(polys[0].degree):
        rep = bae_residual((2, 1), 1, polys, idx, fam12)
        assert rep.residual < 1e-8, rep.residual


def test_sector_labels_cover_chain(fam12):
    assert sum(map(len, fam12.sectors.values())) == fam12.dim


@pytest.mark.parametrize("l,n,s", [(1, 3, (1, 1)), (2, 2, (1, 1, 1)),
                                   (3, 2, (1, 1, 1, 1)), (2, 2, (2, 1, 1))])
def test_prefix_polynomials_match_dense_eigenvalues(l, n, s):
    """The polynomials read off the coefficient stacks reproduce the
    eigenvalues of the dense dressed generalized Q, on and off the real
    axis."""
    twist, grading = TwistConfig.default(l), GradingConfig(s)
    fam = QFamily(n, twist, grading, QContext(q=0.7))
    path = tuple(range(1, l + 2))
    for label, idxs in fam.sectors.items():
        for line in range(len(idxs)):
            for poly in path_polynomials(fam, path, label, line):
                for zeta in (0.59, 0.6 + 0.3j):
                    direct = dense_eigenvalue(fam, poly.a_tuple, label, line,
                                              zeta)
                    err = abs(polynomial_value(poly, zeta, grading.total)
                              - direct)
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
