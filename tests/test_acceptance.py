"""End-to-end acceptance suite.

Each test exercises one headline capability across the advertised parameter
grid at its stated tolerance; the terminal summary (see conftest) prints one
PASS/FAIL line per criterion.
"""
import itertools
import random

import numpy as np
import pytest

from baxq.bethe import bae_residual, path_polynomials
from baxq.cli import TOLERANCES
from baxq.funcrel import (TransferFromQ, check_direct_vs_q,
                          check_jacobi_trudi, check_master_tq,
                          check_master_tt, check_qq_jacobi,
                          check_t_symmetries, check_t_system, check_unit_q)
from baxq.fundrep import yang_baxter_residual
from baxq.lop import GradingConfig, build_L
from baxq.lweight import conjectured_xi
from baxq.oscalg import trace_powers
from baxq.qnum import QContext
from baxq.qop import SectorLabel

from conftest import make_setup
from oracles import (TruncatedFock, build_L_factored_oracle,
                     max_entry_difference, sampled_shifted_product,
                     truncated_trace)
from test_oscalg import random_balanced_expr

TOL = TOLERANCES["relations"]
_FAMS = {}


def _fam(l, n):
    if (l, n) not in _FAMS:
        _FAMS[(l, n)] = make_setup(l, n)[3]
    return _FAMS[(l, n)]


def test_criterion_01_lax_matrix_exactness():
    rng = random.Random(101)
    for l in (1, 2, 3):
        grading = GradingConfig.principal(l)
        ctx = QContext(q=0.7)
        for _ in range(3):
            zeta = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
            closed = build_L(zeta, grading, ctx)
            oracle = build_L_factored_oracle(zeta, grading, ctx)
            assert max_entry_difference(closed, oracle, ctx) < 1e-12


def test_criterion_02_trace_engine():
    ctx = QContext(q=0.7)
    rng = random.Random(202)
    for _ in range(100):
        expr, sign = random_balanced_expr(rng)
        signs = (sign, sign)
        t40 = truncated_trace(expr, [TruncatedFock(40, sign, ctx)] * 2)
        t80 = truncated_trace(expr, [TruncatedFock(80, sign, ctx)] * 2)
        scale = max(1.0, abs(t80))
        assert abs(t80 - t40) < 1e-10 * scale  # cutoffs agree first
        exact = trace_powers(expr, signs, ctx)[0]
        assert abs(exact - t80) < 1e-10 * scale


@pytest.mark.parametrize("l,n", [(1, 3), (2, 2), (3, 1)])
def test_criterion_03_q_commutativity(l, n):
    rng = random.Random(303)
    fam = _fam(l, n)
    pairs = [(rng.uniform(0.3, 0.8), rng.uniform(0.3, 0.8)) for _ in range(5)]
    for a in range(1, l + 2):
        for b in range(1, l + 2):
            for z1, z2 in pairs:
                qa, qb = fam.q_op(a, z1), fam.q_op(b, z2)
                num = np.max(np.abs(qa @ qb - qb @ qa))
                den = max(float(np.max(np.abs(qa @ qb))), 1e-300)
                assert num / den < 1e-8, (a, b, z1, z2)


@pytest.mark.parametrize("l,n", [(1, 2), (2, 2)])
def test_criterion_04_unit_relation(l, n):
    rng = random.Random(404)
    fam = _fam(l, n)
    for _ in range(5):
        zeta = rng.uniform(0.2, 0.9)
        rep = check_unit_q(fam, zeta)
        assert rep.residual < TOL, rep.residual


@pytest.mark.parametrize("l,n", [(1, 2), (2, 1), (2, 2)])
def test_criterion_05_master_relations(l, n):
    rng = random.Random(505)
    tq = TransferFromQ(_fam(l, n))
    for _ in range(3):
        mu = rng.sample(range(0, 2 * l + 8), l + 2)
        a = rng.randrange(1, l + 2)
        rep = check_master_tq(tq, a, mu, rng.uniform(0.3, 0.7))
        assert rep.residual < TOL, ("tq", mu, rep.residual)
    for _ in range(3):
        mu = rng.sample(range(0, 4 * l + 8), 2 * l + 2)
        rep = check_master_tt(tq, mu, rng.uniform(0.3, 0.7))
        assert rep.residual < TOL, ("tt", mu, rep.residual)


def test_criterion_06_t_system_and_jacobi_trudi():
    tq = TransferFromQ(_fam(2, 2))
    for a, m in ((1, 1), (1, 2), (2, 1)):
        rep = check_t_system(tq, a, m, 0.5)
        assert rep.residual < TOL, ("ts", a, m, rep.residual)
    for a, m in ((1, 2), (2, 2), (1, 3)):
        rep = check_jacobi_trudi(tq, a, m, 0.3)
        assert rep.residual < TOL, ("jt", a, m, rep.residual)


@pytest.mark.parametrize("l", [1, 2])
def test_criterion_07_qq_jacobi_all_indices(l):
    fam = _fam(l, 2)
    labels = range(1, l + 2)
    for size in range(l):
        for at in itertools.combinations(labels, size):
            rest = [x for x in labels if x not in at]
            for b, c in itertools.permutations(rest, 2):
                rep = check_qq_jacobi(fam, at, b, c, 0.52)
                assert rep.residual < TOL, (at, b, c, rep.residual)


@pytest.mark.parametrize("l,n", [(1, 2), (2, 1), (2, 2)])
def test_criterion_08_r_matrix_cross_check(l, n):
    fam = _fam(l, n)
    ybe = yang_baxter_residual(fam.grading, fam.ctx, 0.45, 0.85, 1.35)
    assert ybe < 1e-8
    rep = check_direct_vs_q(TransferFromQ(fam), 0.6)
    assert rep.residual < TOLERANCES["direct-transfer"], rep.residual


@pytest.mark.parametrize("l,n,k", [(1, 2, (1, 1)), (2, 2, (1, 1, 0)),
                                   (3, 2, (0, 0, 1, 1)), (2, 4, (2, 2, 0))])
def test_criterion_09_bethe_closure(l, n, k):
    fam = _fam(l, n)
    label = SectorLabel(k)
    ident = tuple(range(1, l + 2))
    permuted = (2, 1) + ident[2:]
    for path in (ident, permuted):
        for line in range(len(fam.sectors[label])):
            polys = path_polynomials(fam, path, label, line)
            for level in range(1, l + 1):
                for idx in range(polys[level - 1].degree):
                    rep = bae_residual(path, level, polys, idx, fam)
                    assert rep.residual < 1e-6, \
                        (path, line, level, idx, rep.residual)


def test_criterion_10_lweight_factorization():
    rng = random.Random(1010)
    ctx = QContext(q=0.7)
    for l in (1, 2, 3):
        for _ in range(50):
            mu = [rng.uniform(-2.5, 2.5) for _ in range(l + 1)]
            zeta = complex(rng.uniform(0.2, 0.8), rng.uniform(-0.2, 0.2))
            u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            comp, wt = sampled_shifted_product(mu, zeta, u, l, ctx)
            assert comp < 1e-10 and wt < 1e-10, (l, mu)
        # exact structural independence from the out-of-window labels
        mu = [rng.uniform(-2, 2) for _ in range(l + 1)]
        base = [[rng.randrange(3) for _ in range(l)] for _ in range(l + 1)]
        pert = [[v + (4 if (a + 1) + (j + 1) > l + 1 else 0)
                 for j, v in enumerate(row)]
                for a, row in enumerate(base)]
        for i in range(1, l + 1):
            assert conjectured_xi(mu, base, i, l) \
                == conjectured_xi(mu, pert, i, l)


def test_criterion_11_symmetry_suite():
    rng = random.Random(1111)
    l = 2
    tq = TransferFromQ(_fam(l, 1))
    for _ in range(3):
        mu = sorted(rng.sample(range(0, l + 5), l + 1), reverse=True)
        nu = rng.randrange(1, 4)
        zeta = rng.uniform(0.3, 0.7)
        i = rng.randrange(1, l + 1)
        for rep in check_t_symmetries(tq, mu, nu, zeta, i):
            assert rep.residual < TOL, (rep.name, mu, nu, rep.residual)
