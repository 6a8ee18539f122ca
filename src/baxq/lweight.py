"""Factorized spectral weights of oscillator and evaluation modules.

The joint eigenvalues of the commuting currents on the relevant modules are
ratios of products of factors (1 - q^e zeta^s u).  This module represents
such components as explicit factor lists (multisets of exponents e), so
identities between them are exact comparisons of lists, and implements:

* the l components of the oscillator-module weights (three cases: a = 1,
  a = 2..l, a = l+1) together with their omega-basis weight parts;
* the highest-weight components of the evaluation modules;
* the product identity expressing the evaluation highest weight as the
  product of shifted oscillator components;
* the general conjectured components for arbitrary occupation labels, with
  their structural independence from the out-of-window labels.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class FactorRatio:
    """Ratio prod(1 - q^e zeta^s u) over num/den exponent lists."""

    num: Tuple[float, ...] = ()
    den: Tuple[float, ...] = ()

    @classmethod
    def one(cls) -> "FactorRatio":
        return cls()

    def __mul__(self, other: "FactorRatio") -> "FactorRatio":
        return FactorRatio(self.num + other.num, self.den + other.den)

    def shifted(self, c: float) -> "FactorRatio":
        """Apply zeta -> q^{c/s} zeta, i.e. add c to every exponent."""
        return FactorRatio(tuple(e + c for e in self.num),
                           tuple(e + c for e in self.den))

    def canceled(self) -> "FactorRatio":
        """Remove exponents appearing in both lists (multiset cancel)."""
        num = list(self.num)
        den = []
        for e in self.den:
            if e in num:
                num.remove(e)
            else:
                den.append(e)
        return FactorRatio(tuple(sorted(num)), tuple(sorted(den)))


@dataclass
class LWeight:
    """Weight part (omega basis) plus l factorized current components."""

    weight: Tuple[float, ...]
    plus_components: Tuple[FactorRatio, ...]


def osc_psi(a: int, n_tuple: Sequence[int], l: int) -> LWeight:
    """Weight data of the a-th oscillator module at occupation n_tuple."""
    n = list(n_tuple)
    if len(n) != l:
        raise ValueError("n_tuple must have l components")
    if not 1 <= a <= l + 1:
        raise ValueError("a out of range")

    def nsum(lo: int, hi: int) -> int:
        return sum(n[j - 1] for j in range(max(lo, 1), hi + 1))

    if a == l + 1:
        weight = [float(n[i] - n[i - 1]) for i in range(1, l)]
        weight.append(-float(nsum(1, l - 1) + 2 * n[l - 1]))
        comps = [FactorRatio.one() for _ in range(l - 1)]
        comps.append(FactorRatio(num=(1.0,)))
        return LWeight(tuple(weight), tuple(comps))

    weight = [0.0] * l
    for i in range(1, a - 1):
        weight[i - 1] += n[l + i - a + 1] - n[l + i - a]
    for i in range(a + 1, l + 1):
        weight[i - 1] -= n[i - a] - n[i - a - 1]
    if a >= 2:
        weight[a - 2] += (nsum(1, l - a + 1) - nsum(l - a + 2, l - 1)
                          - 2 * n[l - 1] + l - a + 1)
    weight[a - 1] -= (2 * n[0] + nsum(2, l - a + 1) - nsum(l - a + 2, l)
                      + l - a + 2)

    comps: List[FactorRatio] = []
    for i in range(1, l + 1):
        if i <= a - 2:
            comps.append(FactorRatio.one())
        elif i == a - 1:
            comps.append(FactorRatio(
                num=(-2 * nsum(1, l - a + 1) - l + a,)))
        elif i == a:
            comps.append(FactorRatio(
                num=(-2 * nsum(2, l - a + 1) - l + a + 1,),
                den=(-2 * nsum(1, l - a + 1) - l + a - 1,
                     -2 * nsum(1, l - a + 1) - l + a + 1)))
        else:
            comps.append(FactorRatio(
                num=(-2 * nsum(i - a, l - a + 1) - l + i - 1,
                     -2 * nsum(i - a + 2, l - a + 1) - l + i + 1),
                den=(-2 * nsum(i - a + 1, l - a + 1) - l + i - 1,
                     -2 * nsum(i - a + 1, l - a + 1) - l + i + 1)))
    return LWeight(tuple(float(w) for w in weight), tuple(comps))


def highest_lweight(mu: Sequence[float], l: int) -> LWeight:
    """Highest-weight data of the evaluation module with label mu."""
    if len(mu) != l + 1:
        raise ValueError("mu must have l + 1 components")
    weight = tuple(float(mu[i] - mu[i + 1]) for i in range(l))
    comps = tuple(
        FactorRatio(num=(2 * mu[i] - i + 1,), den=(2 * mu[i - 1] - i + 1,))
        for i in range(1, l + 1)
    )
    return LWeight(weight, comps)


def weight_shift(mu: Sequence[float], l: int) -> Tuple[float, ...]:
    """Shift delta = sum_i (-2 - mu_i + mu_{i+1}) omega_i."""
    return tuple(-2.0 - mu[i] + mu[i + 1] for i in range(l))


def _vacuum(l: int) -> List[LWeight]:
    """Weight data of the l + 1 oscillator modules at zero occupation."""
    return [osc_psi(a, (0,) * l, l) for a in range(1, l + 2)]


def _shifted_product(mu: Sequence[float], i: int, l: int,
                     vacuum: Sequence[LWeight]) -> FactorRatio:
    """Product over a of the a-th oscillator component at
    q^{2(mu_a+rho_a)/s} zeta."""
    out = FactorRatio.one()
    for a, psi in enumerate(vacuum, 1):
        comp = psi.plus_components[i - 1]
        out = out * comp.shifted(2 * mu[a - 1] + l - 2 * a + 2)
    return out


def check_shifted_product(mu: Sequence[int], l: int) -> Tuple[int, float]:
    """Exact check of the factorization of the evaluation highest weight.

    For i = 1..l, the product of shifted oscillator components times the
    inverted highest-weight component is canceled as a factor list.
    Returns the number of factors left over, over all i, and the largest
    absolute mismatch of sum_a psi_{a,0} = lambda_0 + delta.

    Every exponent is 2 mu_a + c with an integer c in [1 - l, l + 1].  At
    an integer mu with |mu_a - mu_b| > l for all a != b, two exponents
    agree exactly when their a and c agree, so the cancellation is the
    formal one: no leftover at one such mu proves the component identity
    for every mu.  Both sides of the weight identity are independent of mu.
    Any other mu is refused.
    """
    ordered = sorted(mu)
    if any(m != int(m) for m in mu) or any(
            b - a <= l for a, b in zip(ordered, ordered[1:])):
        raise ValueError("mu must be integers more than l apart")
    target = highest_lweight(mu, l)
    vacuum = _vacuum(l)
    leftover = 0
    for i in range(1, l + 1):
        comp = target.plus_components[i - 1]
        rest = (_shifted_product(mu, i, l, vacuum)
                * FactorRatio(comp.den, comp.num)).canceled()
        leftover += len(rest.num) + len(rest.den)
    total = [0.0] * l
    for psi in vacuum:
        total = [x + y for x, y in zip(total, psi.weight)]
    delta = weight_shift(mu, l)
    weight_resid = max(
        abs(t - (w0 + d))
        for t, w0, d in zip(total, target.weight, delta)
    )
    return leftover, weight_resid


def conjectured_xi(mu: Sequence[float], n_mat: Sequence[Sequence[int]],
                   i: int, l: int) -> FactorRatio:
    """General component i for the (l+1) x l occupation array n_mat.

    Sum limits are clamped to the array window, which makes the structural
    independence from entries n_{a,j} with a + j > l + 1 manifest.
    """
    if len(n_mat) != l + 1 or any(len(row) != l for row in n_mat):
        raise ValueError("n_mat must be (l+1) x l")

    def nsum(a: int, lo: int) -> int:
        return sum(n_mat[a - 1][j - 1] for j in range(max(lo, 1), l - a + 2))

    num, den = [], []
    for a in range(1, i):
        num.append(2 * mu[a - 1] - 2 * nsum(a, i - a) + i - 2 * a + 1)
    for a in range(1, i + 1):
        den.append(2 * mu[a - 1] - 2 * nsum(a, i - a + 1) + i - 2 * a + 1)
    for a in range(1, i + 2):
        num.append(2 * mu[a - 1] - 2 * nsum(a, i - a + 2) + i - 2 * a + 3)
    for a in range(1, i + 1):
        den.append(2 * mu[a - 1] - 2 * nsum(a, i - a + 1) + i - 2 * a + 3)
    return FactorRatio(tuple(num), tuple(den))
