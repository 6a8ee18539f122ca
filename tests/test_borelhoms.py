"""Oscillator realizations of the Borel half: defining relations, twist."""
import random
from fractions import Fraction

import pytest

from baxq.borelhoms import TwistConfig, module_signs, twist_diagonal
from baxq.oscalg import multiply
from baxq.qnum import QContext

from oracles import (max_abs, o_image, summed_twist_diagonal,
                     twist_coefficients)


CTX = QContext(q=0.7)


def _affine_cartan(i, j, l):
    if l == 1:
        return 2 if i == j else -2
    if i == j:
        return 2
    if (i - j) % (l + 1) in (1, l):
        return -1
    return 0


@pytest.mark.parametrize("a,l", [(a, l) for l in (1, 2, 3)
                                 for a in range(1, l + 2)])
def test_cartan_conjugation_of_raising_generators(a, l):
    """q^{h_i} e_j q^{-h_i} = q^{A_ij} e_j in every realization."""
    for i in range(l + 1):
        for j in range(l + 1):
            h = o_image("h", i, 1, a, l, CTX)
            hinv = o_image("h", i, -1, a, l, CTX)
            e = o_image("e", j, None, a, l, CTX)
            lhs = multiply(multiply(h, e, CTX), hinv, CTX)
            rhs = e.scale(CTX.qpow(_affine_cartan(i, j, l)))
            assert max_abs(lhs - rhs) < 1e-12


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


@pytest.mark.parametrize("l", [2, 3, 4])
def test_twist_diagonal_is_twist_linear(l):
    tau1 = TwistConfig.default(l).tau
    tau2 = (0.3, -1.7, 0.9, 2.2, -0.4)[:l + 1]
    summed = TwistConfig(tuple(x + y for x, y in zip(tau1, tau2)))
    for a in range(1, l + 2):
        d1 = twist_diagonal(a, TwistConfig(tau1))
        d2 = twist_diagonal(a, TwistConfig(tau2))
        assert len(d1) == l
        assert twist_diagonal(a, summed) == pytest.approx(
            [x + y for x, y in zip(d1, d2)], abs=1e-14)
        # no constant part: the zero twist gives no shift
        assert twist_diagonal(a, TwistConfig((0.0,) * (l + 1))) == [0.0] * l


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5, 6])
def test_twist_diagonal_is_the_summed_inverse_cartan_pairing(l):
    """The closed form tau_a - tau_{a+k} equals, bit for bit, the exact
    Fraction sum of theta_j over the realization's h-patterns."""
    rng = random.Random(100 + l)
    twists = [TwistConfig.default(l)] + [
        TwistConfig(tuple(rng.uniform(-5, 5) for _ in range(l + 1)))
        for _ in range(20)]
    for twist in twists:
        for a in range(1, l + 2):
            assert twist_diagonal(a, twist) == summed_twist_diagonal(a, twist)


def test_module_signs_partition():
    assert module_signs(1, 3) == (-1, -1, -1)
    assert module_signs(2, 3) == (-1, -1, 1)
    assert module_signs(4, 3) == (1, 1, 1)


def test_default_twist_is_generic():
    tw = TwistConfig.default(3)
    assert tw.l == 3
    diffs = {round(tw.tau[i] - tw.tau[i + 1], 9) for i in range(3)}
    assert all(abs(d - round(d)) > 1e-3 for d in diffs)
