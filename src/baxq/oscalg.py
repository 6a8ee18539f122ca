"""Symbolic multi-mode q-oscillator algebra with exact traces.

An expression is a finite sum of normal-ordered monomials

    c * prod_k  bdag_k^{alpha_k}  b_k^{beta_k}  q^{E_k N_k}

over independent modes k = 1..l, each term also carrying an integer power
p of the spectral parameter zeta, so that one expression can stand for a
whole polynomial in zeta.  The exponents E_k are plain numbers (integers for
every library-built expression), the coefficients c are complex doubles.
Products add the zeta-powers and are normal-ordered on the fly via the
exchange relation

    b bdag = (q q^N - q^{-1} q^{-N}) / (q - q^{-1}),

and graded traces over the level-raising/lowering Fock modules reduce to
closed-form geometric sums, so no Fock-space truncation is involved.  A trace
of a product x y is taken without forming it, with a per-mode exponent shift
(the twist), for every zeta-power apart.  No product drops a nonzero term.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from .qnum import TOLERANCE, QContext

# A per-mode monomial label: (alpha, beta, exponent E of q^{E N}).
ModeKey = Tuple[int, int, object]
# A full monomial label: one ModeKey per mode.
MonoKey = Tuple[ModeKey, ...]
# A term label: the monomial and its integer power of zeta.
TermKey = Tuple[MonoKey, int]


class TracePoleError(ArithmeticError):
    """Raised when a graded trace hits a pole 1 - q^E = 0."""


def _mode_unit() -> ModeKey:
    return (0, 0, 0)


@dataclass(frozen=True)
class OscExpr:
    """A sum of normal-ordered monomials over `modes` oscillator modes."""

    modes: int
    terms: tuple  # tuple of (TermKey, complex) pairs, in insertion order

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dict(cls, modes: int, d: Dict[TermKey, complex]) -> "OscExpr":
        return cls(modes, tuple((k, complex(v)) for k, v in d.items() if v != 0))

    @classmethod
    def zero(cls, modes: int) -> "OscExpr":
        return cls.from_dict(modes, {})

    @classmethod
    def one(cls, modes: int) -> "OscExpr":
        return cls.monomial(modes, {})

    @classmethod
    def monomial(cls, modes: int, spec: Dict[int, ModeKey],
                 coeff: complex = 1.0, zpow: int = 0) -> "OscExpr":
        """coeff * zeta^zpow times one monomial; `spec` maps 1-based mode
        index to (a, b, E)."""
        key = tuple(spec.get(k, _mode_unit()) for k in range(1, modes + 1))
        return cls.from_dict(modes, {(key, zpow): coeff})

    @classmethod
    def q_exponent(cls, modes: int, exps: Sequence, coeff: complex = 1.0,
                   zpow: int = 0) -> "OscExpr":
        """coeff * zeta^zpow * prod_k q^{exps[k-1] N_k}."""
        key = tuple((0, 0, e) for e in exps)
        return cls.from_dict(modes, {(key, zpow): coeff})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "OscExpr") -> "OscExpr":
        if self.modes != other.modes:
            raise ValueError("mode count mismatch")
        d = dict(self.terms)
        for k, v in other.terms:
            d[k] = d.get(k, 0.0) + v
        return OscExpr.from_dict(self.modes, d)

    def __sub__(self, other: "OscExpr") -> "OscExpr":
        return self + other.scale(-1.0)

    def scale(self, c: complex) -> "OscExpr":
        return OscExpr.from_dict(self.modes, {k: c * v for k, v in self.terms})

    def at(self, zeta: complex) -> "OscExpr":
        """The zeta-free expression obtained by substituting a number."""
        d: Dict[TermKey, complex] = {}
        for (key, p), v in self.terms:
            d[(key, 0)] = d.get((key, 0), 0.0) + v * zeta ** p
        return OscExpr.from_dict(self.modes, d)

    def __len__(self) -> int:
        return len(self.terms)


# -- normal ordering -------------------------------------------------------

# Cache of single-mode reorderings b^beta bdag^alpha =
#   sum c * bdag^a b^b q^{m N}, keyed by (q, beta, alpha); entries are lists
#   of (a, b, m, c).
_NO_CACHE: dict = {}


def _normal_order(beta: int, alpha: int, ctx: QContext) -> list:
    key = (ctx.q, beta, alpha)
    hit = _NO_CACHE.get(key)
    if hit is not None:
        return hit
    if beta == 0 or alpha == 0:
        out = [(alpha, beta, 0, 1.0 + 0j)]
    else:
        inner = _normal_order(beta - 1, alpha - 1, ctx)
        qa = ctx.qpow(alpha)
        cp = qa * ctx.q / (ctx.q * ctx.kappa)      # q^alpha / kappa
        cm = 1.0 / (qa * ctx.kappa)                # q^-alpha / kappa
        acc: Dict[Tuple[int, int, int], complex] = {}
        for a, b, m, c in inner:
            acc[(a, b, m + 1)] = acc.get((a, b, m + 1), 0.0) + cp * c
            acc[(a, b, m - 1)] = acc.get((a, b, m - 1), 0.0) - cm * c
        out = [(a, b, m, c) for (a, b, m), c in acc.items() if c != 0]
    _NO_CACHE[key] = out
    return out


# Cache of single-mode products, keyed by (q, m1, m2).
_MP_CACHE: dict = {}


def _mode_product(m1: ModeKey, m2: ModeKey, ctx: QContext) -> list:
    """Product of two single-mode monomials as [(ModeKey, coeff)]."""
    key = (ctx.q, m1, m2)
    hit = _MP_CACHE.get(key)
    if hit is not None:
        return hit
    a1, b1, e1 = m1
    a2, b2, e2 = m2
    # Move q^{e1 N} through bdag^{a2} b^{b2}: picks up q^{e1 (a2 - b2)}.
    phase = ctx.qpow(e1 * (a2 - b2)) if (a2 or b2) else 1.0
    esum = e1 + e2
    out = []
    for a, b, m, c in _normal_order(b1, a2, ctx):
        # bdag^{a1} [bdag^a b^b q^{mN}] b^{b2} q^{esum N}
        coeff = phase * c * (ctx.qpow(-m * b2) if b2 else 1.0)
        out.append(((a1 + a, b + b2, esum + m), coeff))
    _MP_CACHE[key] = out
    return out


def multiply(x: OscExpr, y: OscExpr, ctx: QContext) -> OscExpr:
    """Normal-ordered product x * y; the zeta-powers of the factors add."""
    if x.modes != y.modes:
        raise ValueError("mode count mismatch")
    acc: Dict[TermKey, complex] = {}
    for (kx, px), cx in x.terms:
        for (ky, py), cy in y.terms:
            partial = [((), cx * cy)]
            for mx, my in zip(kx, ky):
                factors = _mode_product(mx, my, ctx)
                partial = [
                    (key + (mk,), c * fc)
                    for key, c in partial
                    for mk, fc in factors
                ]
            p = px + py
            for key, c in partial:
                label = (key, p)
                acc[label] = acc.get(label, 0.0) + c
    return OscExpr.from_dict(x.modes, acc)


# -- exact graded traces ---------------------------------------------------

# Cache of single-mode traces, keyed by (q, mode, sign, shift).
_TRACE_CACHE: dict = {}


def _mode_trace(mode: ModeKey, sign: int, shift: float,
                ctx: QContext) -> complex:
    """Graded trace of bdag^a b^b q^{(E + shift) N} over one Fock module.

    `sign` is +1 for the raising-type module and -1 for the lowering-type
    one (whose trace is the negative of the other).  Off-diagonal powers
    (a != b) trace to zero.
    """
    a, b, e = mode
    if a != b:
        return 0.0
    key = (ctx.q, mode, sign, shift)
    hit = _TRACE_CACHE.get(key)
    if hit is not None:
        return hit
    # bdag^a b^a = [N]_q [N-1]_q ... [N-a+1]_q; expand the product of
    # (q^{-j} q^N - q^{j} q^{-N})/kappa factors into shifts of the exponent.
    shifts: Dict[int, complex] = {0: 1.0 + 0j}
    for j in range(a):
        nxt: Dict[int, complex] = {}
        qj = ctx.qpow(j)
        for m, c in shifts.items():
            nxt[m + 1] = nxt.get(m + 1, 0.0) + c / (qj * ctx.kappa)
            nxt[m - 1] = nxt.get(m - 1, 0.0) - c * qj / ctx.kappa
        shifts = nxt
    ev = e + shift
    total = 0.0 + 0j
    for m, c in shifts.items():
        pole = 1.0 - ctx.qpow(ev + m)
        if abs(pole) < TOLERANCE:
            raise TracePoleError(
                "trace pole at exponent %r + %r + %d" % (e, shift, m)
            )
        total += c / pole
    _TRACE_CACHE[key] = sign * total
    return _TRACE_CACHE[key]


# Cache of single-mode pair traces, keyed by (q, m1, m2, sign, shift).
_PAIR_CACHE: dict = {}


def _pair_trace(m1: ModeKey, m2: ModeKey, sign: int, shift: float,
                ctx: QContext) -> complex:
    """Graded trace of the single-mode product m1 m2 q^{shift N}."""
    key = (ctx.q, m1, m2, sign, shift)
    hit = _PAIR_CACHE.get(key)
    if hit is None:
        hit = _PAIR_CACHE[key] = sum(c * _mode_trace(mk, sign, shift, ctx)
                                     for mk, c in _mode_product(m1, m2, ctx))
    return hit


def trace_product(x: OscExpr, y: OscExpr, signs: Sequence[int], ctx: QContext,
                  shifts: Sequence[float]) -> Dict[int, complex]:
    """Graded trace of x * y * prod_k q^{shifts[k-1] N_k}, one module sign
    per mode, for each zeta-power: {p: trace of the zeta^p part}.  x * y is
    never formed: two monomials trace to a product of single-mode pairs."""
    if not x.modes == y.modes == len(signs) == len(shifts):
        raise ValueError("factors, signs and shifts need one entry per mode")
    out: Dict[int, complex] = {}
    for (kx, px), cx in x.terms:
        for (ky, py), cy in y.terms:
            val = cx * cy
            for mx, my, s, sh in zip(kx, ky, signs, shifts):
                val *= _pair_trace(mx, my, s, sh, ctx)
                if val == 0:
                    break
            else:
                out[px + py] = out.get(px + py, 0j) + val
    return out
