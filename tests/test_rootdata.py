"""Type-A root data: Cartan matrix, Weyl group, rho."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from baxq.rootdata import RootSystem, WeylElement


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_cartan_inverse_is_exact(l):
    """`cartan()` times the closed-form A_l inverse,
    c_ij = min(i,j)(l+1-max(i,j))/(l+1), is exactly the identity."""
    a = RootSystem(l).cartan()
    c = [[Fraction(min(i, j) * (l + 1 - max(i, j)), l + 1)
          for j in range(1, l + 1)] for i in range(1, l + 1)]
    for i in range(l):
        for j in range(l):
            acc = sum(a[i][k] * c[k][j] for k in range(l))
            assert acc == (1 if i == j else 0)


def test_rho_values():
    assert RootSystem(2).rho() == (1, 0, -1)
    assert RootSystem(3).rho() == (1.5, 0.5, -0.5, -1.5)


def test_rho_sums_to_zero():
    for l in (1, 2, 3, 4):
        assert sum(RootSystem(l).rho()) == 0


def test_weyl_enumeration_signs():
    rs = RootSystem(2)
    elems = list(rs.weyl_enumerate())
    assert len(elems) == 6
    assert elems[0].perm == (0, 1, 2) and elems[0].sign == 1
    assert sum(e.sign for e in elems) == 0


def test_weyl_apply_is_left_action():
    w = WeylElement((1, 2, 0), 1)
    # entry w(j) of the result holds coords[j]
    assert w.apply(("a", "b", "c")) == ("c", "a", "b")


@given(st.permutations(list(range(3))),
       st.lists(st.integers(-5, 5), min_size=3, max_size=3))
def test_affine_action_identity_and_inverse(perm, mu):
    rs = RootSystem(2)
    ident = WeylElement((0, 1, 2), 1)
    assert rs.affine_action(ident, mu) == tuple(mu)
    w = WeylElement(tuple(perm), 1)
    inv = [0] * 3
    for j, pj in enumerate(perm):
        inv[j] = pj  # build the inverse permutation
    winv = WeylElement(tuple(sorted(range(3), key=lambda i: perm[i])), 1)
    back = rs.affine_action(winv, rs.affine_action(w, mu))
    assert all(x == pytest.approx(float(m)) for x, m in
               zip(map(float, back), mu))
