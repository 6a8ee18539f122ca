"""Oscillator realizations of the Borel half: defining relations, twist."""
from fractions import Fraction

import pytest

from baxq.borelhoms import (TwistConfig, module_signs, o_image,
                            twist_coefficients, twist_diagonal)
from baxq.oscalg import multiply
from baxq.qnum import QContext


def _ctx(l):
    return QContext(q=0.7, tau=TwistConfig.default(l).tau)


def _affine_cartan(i, j, l):
    if l == 1:
        return 2 if i == j else -2
    if i == j:
        return 2
    if (i - j) % (l + 1) in (1, l):
        return -1
    return 0


@pytest.mark.parametrize("l", [1, 2, 3])
@pytest.mark.parametrize("a", [1, 2])
def test_cartan_conjugation_of_raising_generators(l, a):
    """q^{h_i} e_j q^{-h_i} = q^{A_ij} e_j in every realization."""
    if a > l + 1:
        return
    ctx = _ctx(l)
    for i in range(l + 1):
        for j in range(l + 1):
            h = o_image("h", i, 1, a, l, ctx)
            hinv = o_image("h", i, -1, a, l, ctx)
            e = o_image("e", j, None, a, l, ctx)
            lhs = multiply(multiply(h, e, ctx), hinv, ctx)
            rhs = e.scale(ctx.qpow(_affine_cartan(i, j, l)))
            assert (lhs - rhs).prune().max_abs() < 1e-12


def test_twist_coefficients_invert_cartan():
    """A theta = t: pairing the twist through the inverse Cartan matrix."""
    for l in (1, 2, 3):
        theta = twist_coefficients(l)
        for i in range(1, l + 1):
            acc = [2 * c for c in theta[i - 1]]
            if i >= 2:
                acc = [x - c for x, c in zip(acc, theta[i - 2])]
            if i <= l - 1:
                acc = [x - c for x, c in zip(acc, theta[i])]
            # t_i = tau_i - tau_{i+1} as coefficients over tau
            expect = [Fraction(0)] * (l + 1)
            expect[i - 1], expect[i] = Fraction(1), Fraction(-1)
            assert acc == expect


def test_twist_diagonal_is_twist_linear():
    l = 2
    ctx = _ctx(l)
    tau1, tau2 = TwistConfig.default(l).tau, (0.3, -1.7, 0.9)
    summed = TwistConfig(tuple(x + y for x, y in zip(tau1, tau2)))
    for a in range(1, l + 2):
        d1 = twist_diagonal(a, TwistConfig(tau1), ctx)
        d2 = twist_diagonal(a, TwistConfig(tau2), ctx)
        assert len(d1) == l
        assert twist_diagonal(a, summed, ctx) == pytest.approx(
            [x + y for x, y in zip(d1, d2)], abs=1e-14)
        # no constant part: the zero twist gives no shift
        assert twist_diagonal(a, TwistConfig((0.0,) * (l + 1)), ctx) \
            == [0.0] * l


def test_module_signs_partition():
    assert module_signs(1, 3) == (-1, -1, -1)
    assert module_signs(2, 3) == (-1, -1, 1)
    assert module_signs(4, 3) == (1, 1, 1)


def test_default_twist_is_generic():
    tw = TwistConfig.default(3)
    assert tw.l == 3
    diffs = {round(tw.t(i), 9) for i in range(1, 4)}
    assert all(abs(d - round(d)) > 1e-3 for d in diffs)
