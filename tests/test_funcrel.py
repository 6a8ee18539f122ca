"""Functional relations of the transfer/Baxter web at small chain sizes."""
import numpy as np
import pytest

from baxq import funcrel, qop
from baxq.cli import TOLERANCES, RunConfig, run_suite
from baxq.funcrel import (TransferFromQ, check_direct_vs_q, check_jacobi_trudi,
                          check_master_tq, check_master_tt, check_qq_jacobi,
                          check_t_symmetries, check_t_system, check_unit_q)
from baxq.qop import QFamily, SectorLabel

from conftest import make_setup

TOL = TOLERANCES["relations"]


@pytest.fixture(scope="module")
def tq12():
    return TransferFromQ(make_setup(1, 2)[3])


@pytest.fixture(scope="module")
def tq21():
    return TransferFromQ(make_setup(2, 1)[3])


@pytest.fixture(scope="module")
def tq32():
    return TransferFromQ(make_setup(3, 2)[3])


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


def test_jacobi_trudi_needs_normalized_family(tq12, tq32):
    rep = check_jacobi_trudi(tq12, 1, 2, 0.3)
    assert rep.residual < TOL, rep.residual
    for a, m in ((1, 2), (2, 2), (1, 3)):
        rep = check_jacobi_trudi(tq32, a, m, 0.3)
        assert rep.residual < TOL, (a, m, rep.residual)


def test_t_hat_boundary_is_unity(tq12, tq32):
    for tq in (tq12, tq32):
        ident = tq.fam.identity()
        for zeta in (0.25, 0.4):
            m = tq.t_hat(0, 1, zeta)
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


def test_rank3_relations(tq32):
    """Master TQ for every a, the T-system, QQ-Jacobi, the transfer
    symmetries and master TT at (l, n) = (3, 2)."""
    reps = [check_master_tq(tq32, a, [4, 0, 3, 1, 5], 0.47)
            for a in range(1, 5)]
    reps += [check_t_system(tq32, a, m, 0.5)
             for a, m in ((1, 1), (2, 1), (3, 1), (1, 2))]
    reps += [check_qq_jacobi(tq32.fam, at, b, c, 0.58)
             for at, b, c in (((1,), 2, 3), ((), 1, 4))]
    reps += check_t_symmetries(tq32, [4, 2, 1, 0], 1, 0.47, 2)
    reps.append(check_master_tt(tq32, [7, 3, 1, 0, 2, 4, 6, 5], 0.39))
    for rep in reps:
        assert rep.residual < TOL, (rep.name, rep.details, rep.residual)


def test_direct_transfer_must_be_diagonal_in_the_q_basis(tq12, monkeypatch):
    """An R-matrix transfer operator that mixes two eigenlines of a sector
    no longer commutes with the Q's; its eigenvalues alone would still
    match, but the projected off-diagonal fails the check."""
    rep = check_direct_vs_q(tq12, 0.66)
    assert rep.details["offdiag_residue"] < 1e-12
    fam = tq12.fam
    vecs, vinv, _ = fam.basis(SectorLabel((1, 1)))
    idxs = fam.sectors[SectorLabel((1, 1))]
    orig = funcrel.direct_transfer

    def mixed(*args):
        t = orig(*args)
        nilpotent = np.zeros((2, 2), dtype=complex)
        nilpotent[0, 1] = 1e-3 * np.abs(t).max()
        t[np.ix_(idxs, idxs)] += vecs @ nilpotent @ vinv
        return t

    monkeypatch.setattr(funcrel, "direct_transfer", mixed)
    rep = check_direct_vs_q(tq12, 0.66)
    assert rep.details["offdiag_residue"] > 1e-4
    assert rep.residual >= rep.details["offdiag_residue"]
    assert rep.residual > TOLERANCES["direct-transfer"]


# Entries failed under each mutation by the same relations checked on
# zero-padded sector stacks, measured at every chain of MUTATION_CHAINS.
MUTATION_CHAINS = ((1, 3), (2, 2), (2, 3), (3, 2))
SCALAR_SIDE = {"unit-q", "t-trivial", "t-system", "jacobi-trudi",
               "direct-transfer"}


def _roll_c_l(orig):
    """c_l with its sector values moved one sector on."""
    def c_l(self):
        sizes = [len(idxs) for idxs in self.sectors.values()]
        first = np.cumsum([0] + sizes[:-1])
        return np.repeat(np.roll(orig(self)[first], 1), sizes)
    return c_l


@pytest.mark.parametrize("mutation", ["roll-c_l", "negate-dressing",
                                      "negate-shift-powers"])
def test_relations_fail_exactly_under_mutation(mutation, monkeypatch):
    """The eigenline relations fail wherever the stack form failed: a
    permuted normalization or a reversed dressing breaks the relations
    that see absolute normalization, negated shifts also the shift
    relations (unit-q at (3, 2) survives them, as on the stacks)."""
    if mutation == "roll-c_l":
        monkeypatch.setattr(QFamily, "c_l", _roll_c_l(QFamily.c_l))
    elif mutation == "negate-dressing":
        orig = qop.dressing_exponent
        monkeypatch.setattr(qop, "dressing_exponent",
                            lambda *args: -orig(*args))
    else:
        orig = QFamily.shifted_det
        monkeypatch.setattr(QFamily, "shifted_det",
                            lambda self, at, powers, zeta:
                            orig(self, at, [-p for p in powers], zeta))
    for l, n in MUTATION_CHAINS:
        report = run_suite(RunConfig(l=l, n=n, suites=("relations",)))
        failed = {r["name"] for r in report["relations"] if not r["passed"]}
        expected = set(SCALAR_SIDE)
        if mutation == "negate-shift-powers":
            expected |= {"master-tq", "qq-jacobi", "t-shift"}
            if (l, n) == (3, 2):
                expected.discard("unit-q")
        assert failed == expected, (mutation, l, n)
