"""Baxter operators: sector structure, commutativity, persistence."""
import cmath

import numpy as np
import pytest

from baxq import qop
from baxq.borelhoms import TwistConfig, module_signs, twist_diagonal
from baxq.lop import GradingConfig, build_L_a
from baxq.oscalg import trace_powers
from baxq.qnum import QContext
from baxq.qop import (QFamily, SectorLabel, basis_states, dressing_exponent,
                      horner, load_matrix, op_det, q_prime,
                      save_matrix, sector_of, sectors, state_index)

from conftest import make_setup
from oracles import (dense_eigenvalue, looped_dressing_exponent,
                     monodromy_entry)


def test_state_indexing_row_major():
    assert state_index((1, 1), 2) == 0
    assert state_index((1, 2), 2) == 1
    assert state_index((3, 3), 2) == 8
    assert basis_states(1, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_sectors_partition_basis():
    secs = sectors(2, 2)
    total = sorted(i for idxs in secs.values() for i in idxs)
    assert total == list(range(9))
    assert all(label.n == 2 for label in secs)
    assert sector_of((1, 3), 2) == SectorLabel((1, 0, 1))


def test_operator_is_sector_block_diagonal():
    twist, grading, ctx, fam = make_setup(2, 2)
    mat = fam.q_op(1, 0.37)
    secs = sectors(2, 2)
    mask = np.zeros((9, 9), dtype=bool)
    for idxs in secs.values():
        for r in idxs:
            for c in idxs:
                mask[r, c] = True
    assert np.max(np.abs(mat[~mask])) == 0.0


@pytest.mark.parametrize("l,n", [(1, 3), (2, 2), (3, 2)])
def test_q_prime_matches_straight_line_monodromy(l, n):
    """The shared-suffix walk multiplies in the same order as
    monodromy_entry on the zeta-free Lax matrix, so every coefficient of
    every power agrees exactly."""
    twist, grading, ctx, fam = make_setup(l, n)
    s = grading.total
    states = basis_states(l, n)
    for a in range(1, l + 2):
        lop = build_L_a(a, None, grading, ctx)
        signs = module_signs(a, l)
        shifts = twist_diagonal(a, twist)
        got = q_prime(a, n, twist, grading, ctx)
        for label, members in sectors(l, n).items():
            ref = np.zeros((n + 1, len(members), len(members)), dtype=complex)
            for i, row in enumerate(members):
                for j, col in enumerate(members):
                    expr = monodromy_entry(lop, states[row], states[col], ctx)
                    for p, val in trace_powers(expr, signs, ctx,
                                               shifts).items():
                        assert p % s == 0
                        ref[p // s, i, j] = val
            assert np.array_equal(got[label], ref), (a, label)


@pytest.mark.parametrize("l,n,s", [(1, 3, (1, 1)), (2, 2, (1, 1, 1)),
                                   (3, 2, (1, 1, 1, 1)), (1, 3, (1, 2)),
                                   (2, 2, (2, 1, 1))])
def test_horner_matches_numeric_trace(l, n, s):
    """Coefficients evaluated by Horner's rule agree with a trace of the
    monodromy built at each zeta; each sector block has n+1 coefficients and
    the straight-line trace puts nothing between sectors."""
    twist, grading = TwistConfig.default(l), GradingConfig(s)
    ctx = QContext(q=0.7)
    states = basis_states(l, n)
    secs = sectors(l, n)
    same = np.zeros((len(states),) * 2, dtype=bool)
    for idxs in secs.values():
        same[np.ix_(idxs, idxs)] = True
    for a in range(1, l + 2):
        coeffs = q_prime(a, n, twist, grading, ctx)
        for label, idxs in secs.items():
            assert coeffs[label].shape == (n + 1, len(idxs), len(idxs))
        signs = module_signs(a, l)
        shifts = twist_diagonal(a, twist)
        for zeta in (0.81, 0.6 + 0.3j):
            lop = build_L_a(a, zeta, grading, ctx)
            ref = np.array([[trace_powers(monodromy_entry(lop, row, col, ctx),
                                          signs, ctx, shifts).get(0, 0j)
                             for col in states] for row in states])
            assert np.all(ref[~same] == 0), (a, zeta)
            got = np.zeros_like(ref)
            for label, idxs in secs.items():
                got[np.ix_(idxs, idxs)] = horner(coeffs[label],
                                                 zeta ** grading.total)
            err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
            assert err <= 1e-14, (a, zeta, err)


@pytest.mark.parametrize("l,n,s", [(1, 4, (1, 1)), (2, 3, (1, 1, 1)),
                                   (3, 2, (1, 1, 1, 1)), (1, 3, (1, 2)),
                                   (2, 2, (2, 1, 1))])
def test_coefficients_vanish_above_occupation(l, n, s):
    """On sector k, Q'_a is a polynomial of degree k_a in z: every slice
    above k_a is exactly zero, and `coefficients` is what q_op evaluates."""
    twist, grading = TwistConfig.default(l), GradingConfig(s)
    fam = QFamily(n, twist, grading, QContext(q=0.7))
    for a in range(1, l + 2):
        stacks = fam.coefficients(a)
        for label, c in stacks.items():
            assert np.all(c[label.k[a - 1] + 1:] == 0), (a, label)
        fam.q_op(a, 0.5)
        assert fam.coefficients(a) is stacks


@pytest.mark.parametrize("l,n,s", [(2, 2, (1, 1, 1)), (3, 2, (1, 1, 1, 1)),
                                   (1, 3, (1, 2))])
def test_q_op_matches_dense_assembly(l, n, s):
    """q_op is the dense matrix of the stack, exactly: each sector block is
    its dressing times the Horner sum of its coefficients, placed at the
    sector's basis indices."""
    twist, grading = TwistConfig.default(l), GradingConfig(s)
    fam = QFamily(n, twist, grading, QContext(q=0.7))
    for a in range(1, l + 2):
        for zeta in (0.55, 0.6 + 0.3j, 1j):
            ref = np.zeros((fam.dim, fam.dim), dtype=complex)
            for label, idxs in fam.sectors.items():
                d = dressing_exponent(a, label, twist, grading)
                ref[np.ix_(idxs, idxs)] = cmath.exp(d * cmath.log(zeta)) \
                    * horner(fam.coefficients(a)[label], zeta ** grading.total)
            assert np.array_equal(fam.q_op(a, zeta), ref), (a, zeta)


@pytest.mark.parametrize("l,n,s", [(1, 3, (1, 2)), (2, 2, (1, 1, 1)),
                                   (3, 2, (1, 1, 1, 1))])
def test_eigenline_values_are_projected_dense_operators(l, n, s):
    """q_lines and generalized_q list, sector by sector and then by basis
    column, the eigenvalues of the dense operators in each sector's basis;
    c_l is constant on a sector."""
    twist, grading = TwistConfig.default(l), GradingConfig(s)
    fam = QFamily(n, twist, grading, QContext(q=0.7))
    tuples = [(a,) for a in range(1, l + 2)] + [(1, 2), (2, 1)]
    for zeta in (0.55, 0.6 + 0.3j):
        got = {at: fam.generalized_q(at, zeta) for at in tuples}
        assert np.array_equal(got[(1,)], fam.q_lines(1, zeta))
        line = 0
        for label, idxs in fam.sectors.items():
            for col in range(len(idxs)):
                for at in tuples:
                    ref = dense_eigenvalue(fam, at, label, col, zeta)
                    err = abs(got[at][line] - ref)
                    assert err <= 1e-11 * max(abs(ref), 1.0), \
                        (label.k, col, at, zeta, err)
                line += 1
    c = fam.c_l()
    start = 0
    for idxs in fam.sectors.values():
        assert np.all(c[start:start + len(idxs)] == c[start])
        start += len(idxs)


def test_basis_is_built_once_and_only_on_request(monkeypatch):
    """q_op needs no basis; each sector's basis, or its failure, is formed
    by one eigendecomposition however often it is asked for."""
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig",
                        lambda m: calls.append(m.shape) or eig(m))
    fam = make_setup(2, 2)[3]
    fam.q_op(1, 0.5)
    assert calls == [] and fam.health == {}
    for _ in range(2):
        fam.generalized_q((1, 2), 0.5)
    assert len(calls) == len(fam.sectors) == len(fam.health)
    monkeypatch.setattr(qop, "DIAG_TOL", -1.0)
    fam, label = make_setup(1, 2)[3], SectorLabel((1, 1))
    calls.clear()
    for _ in range(2):
        with pytest.raises(ArithmeticError, match=r"sector \(1, 1\)"):
            fam.basis(label)
    assert len(calls) == 1 and list(fam.health) == [label]


def test_q_operators_commute():
    twist, grading, ctx, fam = make_setup(1, 2)
    a = fam.q_op(1, 0.41)
    b = fam.q_op(2, 0.78)
    assert np.max(np.abs(a @ b - b @ a)) < 1e-10


@pytest.mark.parametrize("l", [2, 3, 4])
def test_dressing_exponent_telescopes(l):
    """Summing D over a = 1..l+1 at fixed sector gives zero for every
    grading: the product of all dressings is zeta-power free."""
    twist = TwistConfig.default(l)
    for s in ((1,) * (l + 1), (2,) + (1,) * l, (0, 3) + (1,) * (l - 1)):
        grading = GradingConfig(s)
        for label in list(sectors(l, 1)) + list(sectors(l, 2)):
            total = sum(dressing_exponent(a, label, twist, grading)
                        for a in range(1, l + 2))
            assert total == pytest.approx(0.0, abs=1e-12), (s, label.k)


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
def test_dressing_exponent_matches_root_sum(l):
    """(s/2)(mean(y) - y_a), y_i = k_i - tau_i, is the sum over the simple
    roots of h'_j = h_j - t_j, gradings with zero entries included."""
    twist = TwistConfig.default(l)
    for s in ((1,) * (l + 1), tuple(range(1, l + 2)), (0,) * l + (2,),
              (3, 0) + (1,) * (l - 1)):
        grading = GradingConfig(s)
        for n in (1, 2, 3):
            for label in sectors(l, n):
                for a in range(1, l + 2):
                    got = dressing_exponent(a, label, twist, grading)
                    ref = looped_dressing_exponent(a, label, twist, grading)
                    assert abs(got - ref) <= 1e-13, (s, label.k, a)


def test_generalized_q_reduces_to_single():
    twist, grading, ctx, fam = make_setup(1, 1)
    single = fam.generalized_q((1,), 0.53)
    assert np.max(np.abs(single - fam.q_lines(1, 0.53))) == 0.0
    empty = fam.generalized_q((), 0.53)
    assert np.array_equal(empty, fam.identity())
    assert np.array_equal(empty, np.ones(fam.dim))


def test_op_det_matches_scalar_determinant():
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    blocks = [[vals[i, j] * np.eye(2, dtype=complex) for j in range(3)]
              for i in range(3)]
    det = op_det(blocks, np.matmul)
    assert det[0, 0] == pytest.approx(np.linalg.det(vals))
    assert det[0, 1] == 0.0
    # With np.convolve as the product, entries are polynomials (ascending
    # coefficients): (1 + z)(3 - z) - 2z = 3 - z^2.
    polys = [[np.array([1.0, 1.0]), np.array([2.0, 0.0])],
             [np.array([0.0, 1.0]), np.array([3.0, -1.0])]]
    assert np.array_equal(op_det(polys, np.convolve), [3.0, 0.0, -1.0])


def test_matrix_persistence_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    path = str(tmp_path / "q.bin")
    save_matrix(path, mat, {"l": 1, "n": 2, "zeta": [0.5, 0.0]})
    back, meta = load_matrix(path)
    assert np.array_equal(back, mat)
    assert meta["l"] == 1 and meta["shape"] == [4, 4]


def test_persistence_rejects_unknown_version(tmp_path):
    import json

    mat = np.eye(2, dtype=complex)
    path = str(tmp_path / "q.bin")
    save_matrix(path, mat, {})
    with open(path + ".json") as f:
        meta = json.load(f)
    meta["format_version"] = 99
    with open(path + ".json", "w") as f:
        json.dump(meta, f)
    with pytest.raises(ValueError):
        load_matrix(path)


def test_family_rejects_rank_mismatch():
    with pytest.raises(ValueError):
        QFamily(1, TwistConfig.default(1), GradingConfig.principal(2),
                QContext(q=0.7))
