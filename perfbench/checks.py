"""Output checks derived apart from baxq.

Sector labels, multinomial eigenline counts and root counts are computed
here from the basis convention alone (state index = base-(l+1) digits of
the site colours), not through `baxq.qop.sectors`.  Each check returns a
list of problems; an empty list means the output passed.
"""
from __future__ import annotations

import itertools
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

# Off-sector entries of a Baxter operator must vanish up to rounding.
SECTOR_TOL = 1e-12
# Relative commutator of Q with the R-matrix transfer operator; measured
# values are below 5e-16.
COMMUTATOR_TOL = 1e-9
# Spectral parameter of that transfer operator.
ZETA_CHECK = 0.81
# Ranks l = 1, 2, 3 sampled by the lweights suite.
LWEIGHT_CASES = 3


def sector_ids(l: int, n: int) -> np.ndarray:
    """Occupation numbers (k_1..k_{l+1}) of every basis state, as one id."""
    d = l + 1
    ids = np.zeros(d ** n, dtype=np.int64)
    for idx in range(d ** n):
        k = [0] * d
        x = idx
        for _ in range(n):
            k[x % d] += 1
            x //= d
        code = 0
        for c in k:
            code = code * (n + 1) + c
        ids[idx] = code
    return ids


def compositions(n: int, parts: int) -> List[Tuple[int, ...]]:
    """All (k_1..k_parts) of non-negative integers summing to n."""
    return [k for k in itertools.product(range(n + 1), repeat=parts)
            if sum(k) == n]


def multinomial(k: Sequence[int]) -> int:
    out = math.factorial(sum(k))
    for c in k:
        out //= math.factorial(c)
    return out


def bethe_residual_count(l: int, n: int) -> int:
    """Residuals of the Bethe suite: one per root of each prefix level."""
    return sum(multinomial(k) * sum(sum(k[:i]) for i in range(1, l + 1))
               for k in compositions(n, l + 1))


def check_q(q: np.ndarray, l: int, n: int, transfer: np.ndarray,
            ids: np.ndarray) -> List[str]:
    """A built Baxter operator: shape, finiteness, sector blocks, commuting.

    `transfer` is the fundamental transfer operator from the R-matrix
    construction at another spectral parameter; `ids` is `sector_ids(l, n)`.
    """
    dim = (l + 1) ** n
    if q.shape != (dim, dim):
        return ["shape %s, expected %s" % (q.shape, (dim, dim))]
    if not np.all(np.isfinite(q)):
        return ["non-finite entries"]
    problems = []
    mag = np.abs(q)
    scale = float(mag.max())
    same = ids[:, None] == ids[None, :]
    off = float(mag[~same].max()) if (~same).any() else 0.0
    if not scale > 0.0:
        problems.append("zero operator")
    elif off > SECTOR_TOL * scale:
        problems.append("entry %.3e between different sectors" % off)
    for sid in np.unique(ids):
        sel = ids == sid
        if not mag[np.ix_(sel, sel)].max() > 0.0:
            problems.append("zero block on sector id %d" % sid)
    qt, tq = q @ transfer, transfer @ q
    denom = max(float(np.abs(qt).max()), float(np.abs(tq).max()), 1e-300)
    comm = float(np.abs(qt - tq).max()) / denom
    if not comm <= COMMUTATOR_TOL:
        problems.append("relative commutator with transfer %.3e" % comm)
    return problems


def check_report(report: dict, l: int, n: int) -> List[str]:
    """A `run_suite` report: its own verdict and the Bethe-suite structure."""
    problems = []
    entries = [r["passed"] for r in report.get("relations", [])]
    bethe = report.get("bethe")
    if bethe is not None:
        entries += [r["passed"] for r in bethe["residuals"]]
    lw = report.get("lweights")
    if lw is not None:
        entries += [c["passed"] for c in lw["cases"]]
        if len(lw["cases"]) != LWEIGHT_CASES:
            problems.append("%d lweights cases, expected %d"
                            % (len(lw["cases"]), LWEIGHT_CASES))
    if report.get("passed") != all(entries):
        problems.append("report verdict %r disagrees with its entries"
                        % report.get("passed"))
    if bethe is not None:
        problems += check_bethe(bethe, l, n)
    return problems


def check_bethe(bethe: dict, l: int, n: int) -> List[str]:
    problems = []
    lines: Dict[Tuple[int, ...], set] = {}
    prefixes: Dict[Tuple[Tuple[int, ...], int], list] = {}
    for p in bethe["polynomials"]:
        k = tuple(p["sector"])
        lines.setdefault(k, set()).add(p["eigenline"])
        prefixes.setdefault((k, p["eigenline"]), []).append(
            tuple(p["a_tuple"]))
        i = len(p["a_tuple"])
        if len(p["roots"]) != sum(k[:i]):
            problems.append("sector %s line %d prefix %s: %d roots, "
                            "expected %d" % (k, p["eigenline"],
                                             p["a_tuple"], len(p["roots"]),
                                             sum(k[:i])))
    expected = compositions(n, l + 1)
    if sorted(lines) != sorted(expected):
        problems.append("%d sectors, expected %d" % (len(lines),
                                                     len(expected)))
    for k in expected:
        if lines.get(k, set()) != set(range(multinomial(k))):
            problems.append("sector %s: %d eigenlines, expected %d"
                            % (k, len(lines.get(k, ())), multinomial(k)))
    want = [tuple(range(1, i + 1)) for i in range(1, l + 1)]
    for key, got in prefixes.items():
        if got != want:
            problems.append("sector %s line %d: prefixes %s" % (key + (got,)))
    count = len(bethe["residuals"])
    if count != bethe_residual_count(l, n):
        problems.append("%d Bethe residuals, expected %d"
                        % (count, bethe_residual_count(l, n)))
    return problems


class BuiltQs:
    """Every distinct matrix `QFamily.q_op` returned since the last check.

    The method is wrapped on the class, so the Q requests made inside
    `run_suite` are seen too.  The matrices are held until `check`.
    """

    def __init__(self, qop, direct_transfer):
        self.built: dict = {}
        self._direct_transfer = direct_transfer
        self._transfer: dict = {}
        self._ids: dict = {}
        orig = qop.QFamily.q_op
        built = self.built

        def q_op(fam, a, zeta):
            m = orig(fam, a, zeta)
            if id(m) not in built:
                built[id(m)] = (fam.n, fam.twist, fam.grading, fam.ctx, m)
            return m

        qop.QFamily.q_op = q_op

    def check(self) -> List[str]:
        """`check_q` on every captured matrix; forgets them afterwards."""
        out = []
        for n, twist, grading, ctx, q in self.built.values():
            l = grading.l
            key = (n, tuple(twist.tau), tuple(grading.s), ctx.q)
            if key not in self._transfer:
                self._transfer[key] = self._direct_transfer(
                    ZETA_CHECK, n, twist, grading, ctx)
            if (l, n) not in self._ids:
                self._ids[(l, n)] = sector_ids(l, n)
            out += ["Q l=%d n=%d: %s" % (l, n, p) for p in
                    check_q(q, l, n, self._transfer[key], self._ids[(l, n)])]
        self.built.clear()
        return out
