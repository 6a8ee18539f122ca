"""Oscillator algebra: normal ordering, exact traces, truncated oracle."""
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from baxq.borelhoms import TwistConfig, twist_diagonal
from baxq.lop import GradingConfig, build_L_a
from baxq.qnum import QContext
from baxq.oscalg import OscExpr, TracePoleError, multiply, trace_product

from oracles import TruncatedFock, to_truncated, trace_powers, truncated_trace

CTX = QContext(q=0.7)


def _bdag(modes=1, mode=1):
    return OscExpr.monomial(modes, {mode: (1, 0, 0)})


def _b(modes=1, mode=1):
    return OscExpr.monomial(modes, {mode: (0, 1, 0)})


def _qn(nu, modes=1, mode=1):
    return OscExpr.monomial(modes, {mode: (0, 0, nu)})


def _trace(x, signs, shifts=None):
    """trace_product with the unit as its first factor, unshifted unless
    shifts are given."""
    return trace_product(OscExpr.one(x.modes), x, signs, CTX,
                         [0] * x.modes if shifts is None else shifts)


def _mat(x, kind=1, cutoff=25):
    return to_truncated(x, [TruncatedFock(cutoff, kind, CTX)] * x.modes)


def _close(x, y, keep=20, tol=1e-12):
    """Interior-block comparison; truncation corrupts the top edge."""
    for kind in (1, -1):
        a = _mat(x, kind)[:keep, :keep]
        b = _mat(y, kind)[:keep, :keep]
        if np.max(np.abs(a - b)) > tol:
            return False
    return True


def test_defining_relation_bdag_b():
    """bdag b = [N]_q = (q^N - q^-N) / (q - 1/q) on both module types."""
    lhs = multiply(_bdag(), _b(), CTX)
    rhs = (_qn(1) - _qn(-1)).scale(1.0 / CTX.kappa)
    assert _close(lhs, rhs)


def test_defining_relation_b_bdag():
    """b bdag = (q q^N - q^-1 q^-N) / (q - 1/q)."""
    lhs = multiply(_b(), _bdag(), CTX)
    rhs = (_qn(1).scale(CTX.q) - _qn(-1).scale(1 / CTX.q)).scale(1 / CTX.kappa)
    assert _close(lhs, rhs)


def test_qn_conjugation_moves_through():
    """q^{nu N} bdag = q^{nu} bdag q^{nu N}."""
    lhs = multiply(_qn(2), _bdag(), CTX)
    rhs = multiply(_bdag(), _qn(2), CTX).scale(CTX.qpow(2))
    assert _close(lhs, rhs)


def test_modes_are_independent():
    x = multiply(_bdag(2, 1), _b(2, 2), CTX)
    y = multiply(_b(2, 2), _bdag(2, 1), CTX)
    assert dict(x.terms) == dict(y.terms)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 3))
def test_multiplication_matches_truncated(a1, b1, a2, b2):
    """Symbolic normal-ordered product == truncated matrix product."""
    x = OscExpr.monomial(1, {1: (a1, b1, 1)})
    y = OscExpr.monomial(1, {1: (a2, b2, -2)})
    z = multiply(x, y, CTX)
    keep = 14  # safely inside the cutoff for <= 6 ladder steps
    for kind in (1, -1):
        prod = (_mat(x, kind) @ _mat(y, kind))[:keep, :keep]
        scale = max(float(np.max(np.abs(prod))), 1.0)
        assert np.max(np.abs(_mat(z, kind)[:keep, :keep] - prod)) < 1e-11 * scale


def test_offdiagonal_trace_vanishes():
    x = OscExpr.monomial(1, {1: (2, 1, 5)})
    assert _trace(x, [1]).get(0, 0j) == 0.0


def test_exact_trace_is_geometric_sum():
    """tr q^{nu N} = 1/(1 - q^nu) on the raising module, negated on the
    lowering one (where it continues sum q^{-nu(n+1)})."""
    val = _trace(_qn(3), [1])[0]
    assert val == pytest.approx(1.0 / (1.0 - 0.7 ** 3))
    assert _trace(_qn(3), [-1])[0] == pytest.approx(-val)


def test_trace_pole_raises():
    with pytest.raises(TracePoleError):
        _trace(_qn(0), [1])
    with pytest.raises(TracePoleError):
        trace_product(_qn(2), _qn(-2), [-1], CTX, [0])


def test_trace_pole_raises_on_shifted_exponent():
    with pytest.raises(TracePoleError):
        _trace(_qn(1), [1], shifts=[-1.0])


def test_trace_shifts_act_as_q_exponent_factor():
    """trace(x, shifts) == trace(x * prod_k q^{shifts_k N_k})."""
    rng = random.Random(12)
    for _ in range(25):
        x = OscExpr.zero(2)
        for _ in range(3):
            x = x + random_balanced_expr(rng)[0]
        shifts = [rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)]
        for signs in ((1, 1), (-1, 1), (-1, -1)):
            shifted = _trace(x, signs, shifts)[0]
            moved = trace_product(x, OscExpr.q_exponent(2, shifts), signs,
                                  CTX, [0, 0])[0]
            assert abs(shifted - moved) <= 1e-14 * max(abs(moved), 1e-300)


def test_trace_rejects_shift_length_mismatch():
    x = OscExpr.q_exponent(2, [1, 2])
    with pytest.raises(ValueError):
        _trace(x, (1, 1), shifts=[0.5])
    with pytest.raises(ValueError):
        _trace(x, (1, 1), shifts=[0.5, 0.5, 0.5])


def test_trace_product_rejects_sign_and_mode_mismatch():
    """One sign per mode, and factors over the same modes: zip never
    truncates silently."""
    x = OscExpr.q_exponent(2, [1, 2])
    with pytest.raises(ValueError):
        _trace(x, (1,), shifts=[0.5, 0.5])
    with pytest.raises(ValueError):
        _trace(x, (1, 1, 1), shifts=[0.5, 0.5])
    with pytest.raises(ValueError):
        trace_product(_qn(1), x, (1, 1), CTX, [0.5, 0.5])


def test_zeta_powers_add_and_trace_separately():
    """Powers of zeta add in a product and are traced apart; substituting
    a number first gives the same trace at that zeta."""
    x = OscExpr.q_exponent(1, [2]) + OscExpr.q_exponent(1, [3], 0.5, zpow=1)
    y = OscExpr.q_exponent(1, [1], -2.0, zpow=2)
    traces = trace_product(x, y, [1], CTX, [0])
    assert sorted(traces) == [2, 3]
    assert traces[2] == pytest.approx(-2.0 * _trace(_qn(3), [1])[0])
    assert traces[3] == pytest.approx(-1.0 * _trace(_qn(4), [1])[0])
    zeta = 0.6 - 0.2j
    at_zeta = sum(v * zeta ** p for p, v in traces.items())
    assert trace_product(x.at(zeta), y.at(zeta), [1], CTX, [0])[0] == \
        pytest.approx(at_zeta)
    with pytest.raises(ValueError):
        truncated_trace(multiply(x, y, CTX), [TruncatedFock(10, 1, CTX)])


def random_balanced_expr(rng, modes=2, margin=2.5, sign=None):
    """Grade-balanced monomial whose truncated trace converges.

    Equal ladder powers per mode; the exponent keeps distance >= margin
    from the pole strip on the chosen module type (random unless given).
    """
    spec = {}
    if sign is None:
        sign = rng.choice([1, -1])
    for k in range(1, modes + 1):
        alpha = rng.randrange(0, 3)
        e = Fraction(round((alpha + margin + 3 * rng.random()) * 16), 16)
        spec[k] = (alpha, alpha, e if sign > 0 else -e)
    coeff = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return OscExpr.monomial(modes, spec, coeff), sign


def test_exact_vs_truncated_traces_random():
    rng = random.Random(11)
    for _ in range(25):
        x, sign = random_balanced_expr(rng)
        exact = _trace(x, (sign, sign))[0]
        approx = truncated_trace(x, [TruncatedFock(60, sign, CTX)] * 2)
        assert abs(exact - approx) < 1e-8 * max(1.0, abs(exact))


def _check_pair(x, y, signs, shifts):
    """trace_product(x, y) against the straight-line trace of the formed
    product, power by power, relative to the product's largest traced
    term."""
    prod = multiply(x, y, CTX)
    ref = trace_powers(prod, signs, CTX, shifts)
    scale = max((abs(v) for term in prod.terms for v in trace_powers(
        OscExpr(prod.modes, (term,)), signs, CTX, shifts).values()),
        default=0.0)
    got = trace_product(x, y, signs, CTX, shifts)
    for p in set(ref) | set(got):
        err = abs(got.get(p, 0j) - ref.get(p, 0j))
        assert err <= 1e-14 * scale, (p, err, scale)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_trace_product_matches_traced_product_of_lax_entries(l):
    """Pairs of zeta-free Lax entries, and of a two-site product with an
    entry, on both module types with the default twist shifts."""
    grading = GradingConfig.principal(l)
    for a in (1, l + 1):
        ent = build_L_a(a, None, grading, CTX).entries
        flat = [e for row in ent for e in row if e.terms]
        shifts = twist_diagonal(a, TwistConfig.default(l))
        for sign in (1, -1):
            signs = (sign,) * l
            for x in flat:
                for y in flat:
                    _check_pair(x, y, signs, shifts)
            for i, j in ((0, 1), (l, 0), (1, 1)):
                two = multiply(ent[i][j], ent[j][i], CTX)
                for y in flat:
                    _check_pair(two, y, signs, shifts)


def test_trace_product_matches_traced_product_random():
    rng = random.Random(13)
    for _ in range(40):
        x, sign = random_balanced_expr(rng)
        y = random_balanced_expr(rng, sign=sign)[0]
        y = y + random_balanced_expr(rng, sign=sign)[0]
        shifts = [rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)]
        _check_pair(x, y, (sign, sign), [0, 0])
        _check_pair(y, x, (sign, sign), shifts)


def test_multiply_keeps_every_nonzero_term():
    """No threshold: a term 1e-14 below the largest survives, exactly."""
    x = _bdag() + _b().scale(1e-14)
    prod = multiply(OscExpr.one(1), x, CTX)
    assert dict(prod.terms) == dict(x.terms)
    prod = multiply(_qn(1), x, CTX)
    assert dict(prod.terms) == {(((1, 0, 1),), 0): CTX.q,
                                (((0, 1, 1),), 0): 1e-14 * CTX.qpow(-1)}
