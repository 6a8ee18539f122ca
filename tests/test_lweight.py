"""Factorized spectral weights: components, product identity, conjecture."""
import random

import pytest

from baxq import lweight
from baxq.lweight import (FactorRatio, check_shifted_product, conjectured_xi,
                          highest_lweight, osc_psi, weight_shift)
from baxq.qnum import QContext

from oracles import (conjectured_lambda_plus, factor_value,
                     sampled_shifted_product, xi_weight)

CTX = QContext(q=0.7)


def test_factor_ratio_algebra():
    a = FactorRatio((1.0, 3.0), (2.0,))
    b = FactorRatio((2.0,), (5.0,))
    prod = (a * b).canceled()
    assert prod.num == (1.0, 3.0)
    assert prod.den == (5.0,)
    assert a.shifted(2.0).num == (3.0, 5.0)


def test_factor_ratio_value():
    r = FactorRatio((1.0,), (0.0,))
    z, u = 0.4, 0.9
    got = factor_value(r, z, u, 2, CTX)
    assert got == pytest.approx((1 - 0.7 * z ** 2 * u) / (1 - z ** 2 * u))


def test_osc_psi_validates_input():
    with pytest.raises(ValueError):
        osc_psi(1, (0,), 2)
    with pytest.raises(ValueError):
        osc_psi(4, (0, 0), 2)


def test_osc_psi_vacuum_components():
    """At zero occupation the components collapse to the simple ratios."""
    lw = osc_psi(1, (0, 0), 2)
    assert lw.plus_components[0].canceled() == FactorRatio(den=(-2,))
    lw_top = osc_psi(3, (0, 0), 2)
    assert lw_top.plus_components[0] == FactorRatio.one()
    assert lw_top.plus_components[1].num == (1.0,)


def test_highest_lweight_components():
    lw = highest_lweight((2, 1, 0), 2)
    assert lw.weight == (1.0, 1.0)
    assert lw.plus_components[0] == FactorRatio(num=(2.0,), den=(4.0,))


def test_shifted_product_identity_random():
    rng = random.Random(19)
    for l in (1, 2, 3):
        for _ in range(10):
            mu = sorted((rng.randrange(0, 6) for _ in range(l + 1)),
                        reverse=True)
            zeta = 0.3 + 0.5 * rng.random()
            u = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.3, 0.3))
            comp, wt = sampled_shifted_product(mu, zeta, u, l, CTX)
            assert comp < 1e-10
            assert wt < 1e-10


def _spaced(l):
    return [10 * a for a in range(1, l + 2)]


def test_shifted_product_identity_is_exact():
    """No factor is left over and the weights agree exactly, l = 1..5."""
    for l in range(1, 6):
        assert check_shifted_product(_spaced(l), l) == (0, 0.0)


def test_shifted_product_rejects_labels_too_close():
    for mu in ([10, 20.5], [10, 12, 30]):
        with pytest.raises(ValueError):
            check_shifted_product(mu, len(mu) - 1)


@pytest.mark.parametrize("mutation, leftovers", [
    ("off-by-one-shift", (4, 8, 12)), ("shifted-highest-weight", (4, 4, 4))])
def test_shifted_product_mutation_leaves_factors(mutation, leftovers,
                                                 monkeypatch):
    """An off-by-one shift in the product leaves four factors per
    component; a shifted highest-weight component leaves four."""
    if mutation == "off-by-one-shift":
        orig = lweight._shifted_product
        monkeypatch.setattr(lweight, "_shifted_product",
                            lambda *args: orig(*args).shifted(1))
    else:
        orig = lweight.highest_lweight

        def shifted_first(mu, l):
            lw = orig(mu, l)
            comps = (lw.plus_components[0].shifted(1),) \
                + lw.plus_components[1:]
            return lweight.LWeight(lw.weight, comps)
        monkeypatch.setattr(lweight, "highest_lweight", shifted_first)
    for l, want in zip((1, 2, 3), leftovers):
        assert check_shifted_product(_spaced(l), l) == (want, 0.0)


def test_weight_shift_values():
    assert weight_shift((3, 1), 1) == (-4.0,)


def test_conjectured_xi_reduces_to_highest():
    """Zero occupation array reproduces the highest-weight components."""
    l = 2
    mu = (4, 2, 1)
    zero = [[0] * l for _ in range(l + 1)]
    target = highest_lweight(mu, l)
    for i in range(1, l + 1):
        got = conjectured_xi(mu, zero, i, l).canceled()
        want = target.plus_components[i - 1].canceled()
        assert got == want


def test_conjectured_xi_ignores_out_of_window_entries():
    """Entries n_{a,j} with a + j > l + 1 never enter the factor lists."""
    l = 2
    mu = (3, 2, 0)
    base = [[1, 0], [0, 1], [0, 0]]
    noisy = [row[:] for row in base]
    noisy[1][1] += 7   # a=2, j=2: outside the window
    noisy[2][0] += 3   # a=3, j=1: outside the window
    noisy[2][1] += 5
    for i in range(1, l + 1):
        assert conjectured_xi(mu, base, i, l) == conjectured_xi(mu, noisy, i, l)


def test_conjectured_xi_validates_shape():
    with pytest.raises(ValueError):
        conjectured_xi((1, 0), [[0]], 1, 1)


def test_xi_weight_matches_vacuum_shift():
    """At zero occupation the weight equals lambda_0 + delta with mu = 0."""
    for l in (1, 2, 3):
        zero = [[0] * l for _ in range(l + 1)]
        assert xi_weight(zero, l) == tuple([-2.0] * l)


def test_conjectured_lambda_plus_vacuum():
    l = 2
    mu = (5, 3, 1)
    zero = [[0] * (l + 1) for _ in range(l + 1)]
    for i in range(1, l + 1):
        got = conjectured_lambda_plus(mu, zero, i, l).canceled()
        want = highest_lweight(mu, l).plus_components[i - 1].canceled()
        assert got == want
