"""Evaluation representation, intertwiners, Yang-Baxter, direct transfer."""
import numpy as np
import pytest

from baxq.borelhoms import TwistConfig
from baxq.fundrep import (FundRep, coproduct_matrix, direct_transfer,
                          solve_intertwiner, yang_baxter_residual)
from baxq.lop import GradingConfig
from baxq.qnum import QContext


def _rep(l, zeta):
    ctx = QContext(q=0.7, tau=TwistConfig.default(l).tau)
    return FundRep(zeta, GradingConfig.principal(l), ctx)


@pytest.mark.parametrize("l", [1, 2])
def test_serre_weights(l):
    """[e_i, f_j] = delta_ij (q^{h_i} - q^{-h_i}) / (q - q^{-1})."""
    rep = _rep(l, 0.6 + 0.2j)
    kappa = rep.ctx.kappa
    for i in range(l + 1):
        for j in range(l + 1):
            comm = rep.e(i) @ rep.f(j) - rep.f(j) @ rep.e(i)
            if i == j:
                expect = (rep.h_exp(i) - rep.h_exp(i, -1.0)) / kappa
            else:
                expect = np.zeros_like(comm)
            assert np.max(np.abs(comm - expect)) < 1e-12


def test_coproduct_homomorphism():
    """Delta([e_i, f_i]) equals the same commutator of coproduct images."""
    l = 1
    r1, r2 = _rep(l, 0.5), _rep(l, 1.3)
    for i in range(l + 1):
        de = coproduct_matrix("e", i, r1, r2)
        df = coproduct_matrix("f", i, r1, r2)
        dh = coproduct_matrix("h", i, r1, r2)
        dhi = np.linalg.inv(dh)
        comm = de @ df - df @ de
        assert np.max(np.abs(comm - (dh - dhi) / r1.ctx.kappa)) < 1e-12


def test_intertwiner_is_unique_and_nontrivial():
    l = 2
    r = solve_intertwiner(_rep(l, 0.45), _rep(l, 1.0))
    assert r.nullity == 1
    assert r.residual < 1e-10
    # must not degenerate to the bare flip of tensor factors
    d = l + 1
    flip = np.zeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            flip[b * d + a, a * d + b] = 1.0
    assert np.max(np.abs(r.matrix - flip)) > 0.1


def test_yang_baxter_holds():
    g = GradingConfig.principal(1)
    ctx = QContext(q=0.7, tau=TwistConfig.default(1).tau)
    assert yang_baxter_residual(g, ctx, 0.4, 0.9, 1.7) < 1e-10


def test_direct_transfer_depends_on_zeta():
    l, n = 1, 2
    twist = TwistConfig.default(l)
    g = GradingConfig.principal(l)
    ctx = QContext(q=0.7, tau=twist.tau)
    t1 = direct_transfer(0.3, n, twist, g, ctx)
    t2 = direct_transfer(0.7, n, twist, g, ctx)
    assert np.max(np.abs(t1 - t2)) > 1e-3


def test_direct_transfer_family_commutes():
    l, n = 1, 2
    twist = TwistConfig.default(l)
    g = GradingConfig.principal(l)
    ctx = QContext(q=0.7, tau=twist.tau)
    t1 = direct_transfer(0.3, n, twist, g, ctx)
    t2 = direct_transfer(0.7, n, twist, g, ctx)
    assert np.max(np.abs(t1 @ t2 - t2 @ t1)) < 1e-10


def test_twist_matrix_is_unimodular():
    rep = _rep(2, 0.5)
    tw = rep.twist_matrix(TwistConfig.default(2))
    assert np.prod(np.diag(tw)) == pytest.approx(1.0)


@pytest.mark.parametrize("l,n", [(1, 3), (2, 2)])
def test_direct_transfer_matches_kron_monodromy(l, n):
    """The leg-by-leg contraction equals the trace of tw R_{0n} ... R_{01}
    with every R_{0k} assembled densely from matrix units by kron."""
    d = l + 1
    twist = TwistConfig.default(l)
    g = GradingConfig.principal(l)
    ctx = QContext(q=0.7, tau=twist.tau)
    zeta = 0.55
    aux = FundRep(zeta, g, ctx)
    r = solve_intertwiner(aux, FundRep(1.0, g, ctx)).matrix

    def unit(i, j):
        m = np.zeros((d, d), dtype=complex)
        m[i, j] = 1.0
        return m

    mono = np.eye(d ** (n + 1), dtype=complex)
    for k in range(1, n + 1):
        r0k = 0
        for a, b, c, e in np.ndindex(d, d, d, d):
            coeff = r[a * d + b, c * d + e]
            if coeff:
                r0k = r0k + coeff * np.kron(
                    np.kron(unit(a, c), np.eye(d ** (k - 1))),
                    np.kron(unit(b, e), np.eye(d ** (n - k))))
        mono = r0k @ mono
    full = np.kron(aux.twist_matrix(twist), np.eye(d ** n)) @ mono
    dim = d ** n
    ref = sum(full[i * dim:(i + 1) * dim, i * dim:(i + 1) * dim]
              for i in range(d))
    got = direct_transfer(zeta, n, twist, g, ctx)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
