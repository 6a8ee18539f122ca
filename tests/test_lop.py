"""Lax matrices: closed form vs factored oracle, rotated family."""
import random

import pytest

from baxq.lop import GradingConfig, build_L, build_L_a
from baxq.qnum import QContext

from oracles import (build_L_factored_oracle, conjugated_L_a, max_abs,
                     max_entry_difference)


CTX = QContext(q=0.7)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_closed_form_matches_factored_oracle(l):
    rng = random.Random(7 + l)
    grading = GradingConfig.principal(l)
    for _ in range(2):
        zeta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        a = build_L(zeta, grading, CTX)
        b = build_L_factored_oracle(zeta, grading, CTX)
        assert max_entry_difference(a, b, CTX) < 1e-12


@pytest.mark.parametrize("l", [2, 3, 4])
def test_rotated_family_closes(l):
    """a = l+1 gives back the basic matrix; all a are well-defined."""
    zeta = 0.4 + 0.1j
    grading = GradingConfig.principal(l)
    basic = build_L(zeta, grading, CTX)
    again = build_L_a(l + 1, zeta, grading, CTX)
    assert max_entry_difference(basic, again, CTX) == 0.0
    for a in range(1, l + 1):
        rot = build_L_a(a, zeta, grading, CTX)
        assert max_entry_difference(basic, rot, CTX) > 0.1


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_rotation_index_map_matches_conjugation(l):
    """The index map gives the same terms, in the same order, as conjugating
    a times with the cyclic shift, and the same coefficients up to the
    rounding of the q and 1/q factors the conjugation multiplies."""
    for s in [(1,) * (l + 1), tuple(range(1, l + 2)), (2,) + (0,) * l]:
        grading = GradingConfig(s)
        for zeta in (None, 0.6 + 0.3j):
            for a in range(1, l + 2):
                got = build_L_a(a, zeta, grading, CTX)
                ref = conjugated_L_a(a, zeta, grading, CTX)
                assert got.grading == ref.grading
                for row_got, row_ref in zip(got.entries, ref.entries):
                    for x, y in zip(row_got, row_ref):
                        assert [k for k, _ in x.terms] == \
                            [k for k, _ in y.terms], (s, zeta, a)
                        for (_, u), (_, v) in zip(x.terms, y.terms):
                            assert abs(u - v) <= 1e-15 * abs(v), (s, zeta, a)


def test_rotation_out_of_range_raises():
    grading = GradingConfig.principal(2)
    with pytest.raises(ValueError):
        build_L_a(0, 0.3, grading, CTX)


def test_grading_partial_sums():
    g = GradingConfig((2, 1, 3))
    assert g.l == 2
    assert g.total == 6
    assert g.partial(1, 3) == 4  # s_1 + s_2
    assert g.rotate().s == (1, 3, 2)


def test_entry_indexing_is_one_based():
    l = 1
    grading = GradingConfig.principal(l)
    lop = build_L(0.5, grading, CTX)
    # Top-left entry of the basic matrix is the bare Cartan power q^{N_1}.
    ((key, coeff),) = lop.entry(1, 1).terms
    assert coeff == pytest.approx(1.0)


def test_zeta_dependence_is_polynomial():
    """Entries at zeta and -zeta differ only in odd-grade terms (s = 1)."""
    l = 1
    grading = GradingConfig.principal(l)
    plus = build_L(0.5, grading, CTX)
    minus = build_L(-0.5, grading, CTX)
    # Off-diagonal entries carry a single power of zeta and flip sign.
    diff = plus.entry(2, 1) - minus.entry(2, 1).scale(-1.0)
    assert max_abs(diff) == 0.0
