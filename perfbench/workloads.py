"""The benchmark's workloads: fixed operation lists over baxq's public API.

* verify-grid  -- `cli.run_suite` with all suites at the CLI defaults on
  (1,4), (2,2), (2,3): the user-facing command, with high Q-build reuse.
* verify-rank3 -- the same call at (3,2), where the R-matrix solve in
  `fundrep` dominates.  Its two level-3 Bethe residuals fail on every run
  (a fault in `BetheSystem._basis`) and are counted as failed operations.
* qbuild-edge  -- one `QFamily(...).q_op(a, zeta)` on a fresh family for
  a in {1, l+1} at the edge of the CLI guard n*(l+1)^n <= 2000: one-shot
  builds with no reuse.

The seed sets `RunConfig.seed` for the verify workloads and the sampled
zeta values for qbuild-edge.  (2,4) is left out: it also fails (a level-2
residual of 2.2e-6 against 1e-6) but one pass takes about 65 s.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from types import ModuleType
from typing import Callable, Dict, List, Tuple

import checks

# Relations-suite entries per report; only used to count the operations of
# a call that raised before producing a report.
RELATION_ENTRIES = 12


@dataclass
class Op:
    label: str
    l: int
    n: int
    call: Callable[[], object]
    expected: int  # operations this call accounts for if it raises


@dataclass
class Verdict:
    attempted: int
    failures: List[str]
    problems: List[str]


class Verify:
    def __init__(self, name: str, grid: Tuple[Tuple[int, int], ...]):
        self.name = name
        self.grid = grid

    def make_ops(self, mods: Dict[str, ModuleType], seed: int) -> List[Op]:
        cli = mods["cli"]
        ops = []
        for l, n in self.grid:
            config = cli.RunConfig(l=l, n=n, seed=seed)
            expected = (RELATION_ENTRIES + checks.bethe_residual_count(l, n)
                        + checks.LWEIGHT_CASES)
            # Look run_suite up at call time, so a traced run sees its
            # wrapper.
            ops.append(Op("verify l=%d n=%d" % (l, n), l, n,
                          lambda c=config: cli.run_suite(c), expected))
        return ops

    def evaluate(self, op: Op, report: dict, built: dict) -> Verdict:
        failures = []
        attempted = 0
        for r in report.get("relations", []):
            attempted += 1
            if not r["passed"]:
                failures.append("%s relation %s" % (op.label, r["name"]))
        for r in report.get("bethe", {}).get("residuals", []):
            attempted += 1
            if not r["passed"]:
                failures.append("%s bethe level %d sector %s line %d root %d"
                                % (op.label, r["level"], tuple(r["sector"]),
                                   r["eigenline"], r["root_index"]))
        for c in report.get("lweights", {}).get("cases", []):
            attempted += 1
            if not c["passed"]:
                failures.append("%s lweights l=%d" % (op.label, c["l"]))
        return Verdict(attempted, failures,
                       checks.check_report(report, op.l, op.n))


class QBuild:
    name = "qbuild-edge"
    grid = ((1, 7), (2, 5), (3, 4))

    def make_ops(self, mods: Dict[str, ModuleType], seed: int) -> List[Op]:
        qop, bh, lop, qnum = (mods[m] for m in ("qop", "borelhoms", "lop",
                                                 "qnum"))
        rng = random.Random(seed)
        ops = []
        for l, n in self.grid:
            twist = bh.TwistConfig.default(l)
            grading = lop.GradingConfig.principal(l)
            ctx = qnum.QContext(q=0.7, tau=twist.tau)
            for a in (1, l + 1):
                zeta = rng.uniform(0.3, 0.8)
                ops.append(Op(
                    "Q_%d l=%d n=%d zeta=%.4f" % (a, l, n, zeta), l, n,
                    lambda a=a, z=zeta, t=twist, g=grading, c=ctx, n=n:
                    qop.QFamily(n, t, g, c).q_op(a, z), 1))
        return ops

    def evaluate(self, op: Op, q, built: dict) -> Verdict:
        # The operator is checked with every other captured Q; here only
        # that it was captured, i.e. came through QFamily.q_op.
        seen = id(q) in built
        return Verdict(1, [], [] if seen else ["Q build was not captured"])


WORKLOADS = {w.name: w for w in (
    Verify("verify-grid", ((1, 4), (2, 2), (2, 3))),
    Verify("verify-rank3", ((3, 2),)),
    QBuild(),
)}
