"""Functional relations of the transfer/Baxter web at small chain sizes."""
import numpy as np
import pytest

from baxq.cli import TOLERANCES
from baxq.funcrel import (TransferFromQ, check_direct_vs_q, check_jacobi_trudi,
                          check_master_tq, check_master_tt, check_qq_jacobi,
                          check_t_symmetries, check_t_system, check_unit_q)

from conftest import make_setup

TOL = TOLERANCES["relations"]


@pytest.fixture(scope="module")
def tq12():
    return TransferFromQ(make_setup(1, 2)[3])


@pytest.fixture(scope="module")
def tq21():
    return TransferFromQ(make_setup(2, 1)[3])


def test_unit_relation(tq12):
    rep = check_unit_q(tq12.fam, 0.62)
    assert rep.residual < 1e-10


def test_master_tq(tq12, tq21):
    for tq in (tq12, tq21):
        mu = list(range(tq.fam.l + 2))
        rep = check_master_tq(tq, 1, mu, 0.44)
        assert rep.residual < TOL, rep.residual


def test_master_tq_rejects_bad_mu(tq12):
    with pytest.raises(ValueError):
        check_master_tq(tq12, 1, [0, 1], 0.5)


def test_master_tt(tq21):
    rep = check_master_tt(tq21, [5, 3, 1, 0, 2, 4], 0.39)
    assert rep.residual < TOL, rep.residual


def test_t_system(tq21):
    for (a, m) in ((1, 1), (2, 1), (1, 2)):
        rep = check_t_system(tq21, a, m, 0.5)
        assert rep.residual < TOL, (a, m, rep.residual)


def test_jacobi_trudi_needs_normalized_family(tq12):
    rep = check_jacobi_trudi(tq12, 1, 2, 0.3)
    assert rep.residual < TOL, rep.residual


def test_t_hat_boundary_is_unity(tq12):
    ident = np.eye(tq12.fam.dim)
    for zeta in (0.25, 0.4):
        m = tq12.t_hat(0, 1, zeta)
        assert np.max(np.abs(m - ident)) < 1e-10


def test_qq_jacobi(tq21):
    rep = check_qq_jacobi(tq21.fam, (1,), 2, 3, 0.58)
    assert rep.residual < TOL, rep.residual


def test_t_symmetries(tq21):
    reps = check_t_symmetries(tq21, [3, 1, 0], 2, 0.47, 1)
    assert [r.name for r in reps] == ["t-trivial", "t-shift", "t-reflect"]
    for r in reps:
        assert r.residual < TOL, (r.name, r.residual)


def test_direct_vs_determinant(tq12):
    rep = check_direct_vs_q(tq12, 0.66)
    assert rep.residual < TOLERANCES["direct-transfer"], rep.residual


def test_s_op_antisymmetry(tq12):
    """Swapping two entries of mu negates S^mu."""
    a = tq12.s_op([2, 0], 0.5)
    b = tq12.s_op([0, 2], 0.5)
    assert np.max(np.abs(a + b)) < 1e-10 * np.max(np.abs(a))


def test_report_shape(tq12):
    """A check measures only: name, residual and numeric details; the
    suite attaches the bound."""
    rep = check_unit_q(tq12.fam, 0.3)
    assert rep.name == "unit-q"
    assert not hasattr(rep, "tolerance") and not hasattr(rep, "passed")
    assert rep.details == {"zeta": [0.3, 0.0]}
