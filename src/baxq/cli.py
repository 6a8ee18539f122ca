"""Command-line interface: configuration, suite orchestration, reporting.

Subcommands:

* ``verify``   -- run the selected residual-check suites and write a JSON
  report (optionally with binary matrix dumps);
* ``bethe``    -- extract Bethe roots per sector and report nested-equation
  residuals (JSON plus a CSV table);
* ``lweights`` -- sample the weight-factorization identities;
* ``dump-l``   -- inspect the symbolic Lax matrix entries.

Every run echoes its full configuration into the report so the numbers are
reproducible from the report alone.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import funcrel
from .bethe import BetheSystem, bae_residual
from .borelhoms import TwistConfig
from .fundrep import yang_baxter_residual
from .lop import GradingConfig, build_L
from .lweight import check_shifted_product, conjectured_xi
from .qnum import QContext
from .qop import QFamily, save_matrix

SCHEMA_VERSION = 1
ALL_SUITES = ("relations", "bethe", "lweights")
# Pass bounds: an entry passes when its residual lies below the bound of its
# kind.  "relations" covers every relation entry but the R-matrix
# comparison, "bethe" the residuals |LHS/RHS - 1| and "lweights" the product
# and weight residuals.
TOLERANCES = {
    "relations": 1e-8,
    "direct-transfer": 1e-6,
    "bethe": 1e-6,
    "lweights": 1e-10,
}
# Spectral parameters the relations are sampled at; the first one also
# serves `--dump-matrices` and `dump-l`.
ZETAS = (0.55, 0.35)


@dataclass
class RunConfig:
    """Validated parameters of one CLI run."""

    l: int = 2
    n: int = 2
    q: float = 0.7
    tau: Optional[Tuple[float, ...]] = None
    s: Optional[Tuple[int, ...]] = None
    suites: Tuple[str, ...] = ALL_SUITES
    seed: int = 0
    out: Optional[str] = None
    dump_matrices: bool = False
    allow_any_q: bool = False

    def resolved_tau(self) -> Tuple[float, ...]:
        return self.tau if self.tau is not None \
            else TwistConfig.default(self.l).tau

    def resolved_s(self) -> Tuple[int, ...]:
        return self.s if self.s is not None \
            else GradingConfig.principal(self.l).s

    def validate(self) -> None:
        if self.l < 1:
            raise ValueError("l must be >= 1")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not self.allow_any_q and not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0, 1); pass allow_any_q to "
                             "override")
        tau = self.resolved_tau()
        if len(tau) != self.l + 1:
            raise ValueError("tau must have l + 1 components")
        # Genericity screen: integer differences of twist parameters make
        # trace denominators and sector normalizations degenerate.
        for i in range(self.l + 1):
            for j in range(i + 1, self.l + 1):
                d = tau[i] - tau[j]
                if abs(d - round(d)) < 1e-3:
                    raise ValueError(
                        "tau_%d - tau_%d is within 1e-3 of an integer; "
                        "choose generic twist parameters" % (i + 1, j + 1)
                    )
        s = self.resolved_s()
        if len(s) != self.l + 1 or any(x < 0 for x in s) or sum(s) < 1:
            raise ValueError("grading must be l + 1 non-negative integers "
                             "with positive sum")
        if self.n * (self.l + 1) ** self.n > 2000:
            raise ValueError("requested chain exceeds the desk-scale "
                             "resource bound")
        for suite in self.suites:
            if suite not in ALL_SUITES:
                raise ValueError("unknown suite %r (choose from %s)"
                                 % (suite, ", ".join(ALL_SUITES)))

    def to_dict(self) -> dict:
        return {
            "l": self.l, "n": self.n, "q": self.q,
            "tau": list(self.resolved_tau()),
            "s": list(self.resolved_s()),
            "suites": list(self.suites),
            "seed": self.seed,
        }


def _family(config: RunConfig) -> QFamily:
    twist = TwistConfig(config.resolved_tau())
    grading = GradingConfig(config.resolved_s())
    ctx = QContext(q=config.q, tau=twist.tau)
    return QFamily(config.n, twist, grading, ctx)


def _report_entry(rep: funcrel.RelationReport,
                  tolerance: float = TOLERANCES["relations"]) -> dict:
    return {
        "name": rep.name,
        "residual": rep.residual,
        "tolerance": tolerance,
        "passed": rep.residual < tolerance,
        "details": rep.details,
    }


def _relations_suite(config: RunConfig, fam: QFamily,
                     rng: random.Random) -> List[dict]:
    tq = funcrel.TransferFromQ(fam)
    l = config.l
    z0, z_small = ZETAS[0], min(ZETAS)
    reps = [funcrel.check_unit_q(fam, z0)]
    # Distinct weight entries keep the antisymmetrized terms nonzero, so
    # the residual normalization is meaningful.
    mu = rng.sample(range(0, l + 5), l + 2)
    reps.append(funcrel.check_master_tq(tq, 1, mu, z0))
    mu2 = rng.sample(range(0, 2 * l + 6), 2 * l + 2)
    reps.append(funcrel.check_master_tt(tq, mu2, z0))
    reps.append(funcrel.check_t_system(tq, 1, 1, z0))
    reps.append(funcrel.check_jacobi_trudi(tq, 1, 2, z_small))
    reps.append(funcrel.check_qq_jacobi(fam, (), 1, 2, z0))
    nu = rng.randrange(1, 3)
    mu3 = sorted(rng.sample(range(0, l + 4), l + 1), reverse=True)
    reps += funcrel.check_t_symmetries(tq, mu3, nu, z0, 1)
    out = [_report_entry(rep) for rep in reps]
    out.append(_report_entry(funcrel.check_direct_vs_q(tq, z0),
                             TOLERANCES["direct-transfer"]))
    zs = (0.5, 0.9, 1.3)
    ybe = yang_baxter_residual(fam.grading, fam.ctx, *zs)
    out.append(_report_entry(funcrel.RelationReport(
        "yang-baxter", ybe, {"zetas": list(zs)})))
    a2 = min(2, l + 1)
    q1, q2 = fam.q_op(1, ZETAS[0]), fam.q_op(a2, ZETAS[-1])
    comm = float(np.max(np.abs(q1 @ q2 - q2 @ q1))
                 / max(np.max(np.abs(q1 @ q2)), 1e-300))
    out.append(_report_entry(funcrel.RelationReport(
        "q-commutativity", comm, {"a": [1, a2], "zetas": list(ZETAS)})))
    return out


def _bethe_suite(config: RunConfig, fam: QFamily) -> dict:
    """Roots and nested-equation residuals of every eigenline.

    A sector whose eigenbasis or polynomials cannot be formed (an
    ArithmeticError) gives one failed entry per eigenline under "failures".
    """
    bs = BetheSystem(fam)
    l = config.l
    path = tuple(range(1, l + 2))
    polys_out, residuals, failures = [], [], []
    for label in sorted(fam.sectors, key=lambda lb: lb.k):
        for line in range(bs.n_lines(label)):
            try:
                polys = bs.path_polynomials(path, label, line)
            except ArithmeticError as exc:
                failures.append({"sector": list(label.k), "eigenline": line,
                                 "reason": str(exc), "passed": False})
                continue
            for p in polys:
                polys_out.append({
                    "a_tuple": list(p.a_tuple),
                    "sector": list(label.k),
                    "eigenline": line,
                    "leading": [p.leading.real, p.leading.imag],
                    "prefactor": p.prefactor,
                    "roots": [[r.real, r.imag] for r in p.roots],
                    "recon_residual": p.recon_residual,
                })
            for i in range(1, l + 1):
                for m in range(len(polys[i - 1].roots)):
                    r = bae_residual(path, i, polys, m, fam)
                    entry = {
                        "path": list(path), "level": i, "root_index": m,
                        "sector": list(label.k), "eigenline": line,
                        "root": [r.root.real, r.root.imag],
                        "residual": r.residual,
                        "string_gap": r.string_gap,
                        "tolerance": TOLERANCES["bethe"],
                        "passed": r.residual < TOLERANCES["bethe"],
                    }
                    if math.isinf(r.residual):
                        # JSON has no infinity: no residual, and the reason.
                        entry["residual"] = None
                        entry["reason"] = ("root lies on a zero or pole of "
                                           "a product-form factor")
                    residuals.append(entry)
    health = [dict(sector=list(label.k), **h)
              for label, h in sorted(bs.health.items(),
                                     key=lambda item: item[0].k)]
    return {"polynomials": polys_out, "residuals": residuals,
            "failures": failures, "health": health}


def _lweights_suite(config: RunConfig, rng: random.Random) -> dict:
    ctx = QContext(q=config.q)
    results = []
    for l in (1, 2, 3):
        worst_c = worst_w = 0.0
        for _ in range(50):
            mu = [rng.uniform(-2, 2) for _ in range(l + 1)]
            z = complex(rng.uniform(0.2, 0.8), rng.uniform(-0.3, 0.3))
            u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            c, w = check_shifted_product(mu, z, u, l, ctx)
            worst_c, worst_w = max(worst_c, c), max(worst_w, w)
        mu = [rng.uniform(-2, 2) for _ in range(l + 1)]
        base = [[rng.randrange(3) for _ in range(l)] for _ in range(l + 1)]
        pert = [[v + (3 if a + 1 + j + 1 > l + 1 else 0)
                 for j, v in enumerate(row)]
                for a, row in enumerate(base)]
        structural = all(
            conjectured_xi(mu, base, i, l).canceled()
            == conjectured_xi(mu, pert, i, l).canceled()
            for i in range(1, l + 1)
        )
        results.append({
            "l": l,
            "product_residual": worst_c,
            "weight_residual": worst_w,
            "structural_independence": structural,
            "tolerance": TOLERANCES["lweights"],
            "passed": (worst_c < TOLERANCES["lweights"]
                       and worst_w < TOLERANCES["lweights"] and structural),
        })
    return {"cases": results}


def run_suite(config: RunConfig) -> dict:
    """Execute the selected suites and assemble the report dictionary.

    The relations and Bethe suites share one Q-family.  `timings` holds the
    wall time of each suite that ran, `elapsed_seconds` that of the run.
    """
    config.validate()
    rng = random.Random(config.seed)
    t0 = time.perf_counter()
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "config": config.to_dict(),
        "versions": {
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    fam = _family(config)
    timings = {}
    ok = True
    if "relations" in config.suites:
        start = time.perf_counter()
        rels = _relations_suite(config, fam, rng)
        timings["relations"] = time.perf_counter() - start
        report["relations"] = rels
        ok = ok and all(r["passed"] for r in rels)
    if "bethe" in config.suites:
        start = time.perf_counter()
        bet = _bethe_suite(config, fam)
        timings["bethe"] = time.perf_counter() - start
        report["bethe"] = bet
        ok = (ok and all(r["passed"] for r in bet["residuals"])
              and not bet["failures"])
    if "lweights" in config.suites:
        start = time.perf_counter()
        lw = _lweights_suite(config, rng)
        timings["lweights"] = time.perf_counter() - start
        report["lweights"] = lw
        ok = ok and all(c["passed"] for c in lw["cases"])
    report["passed"] = ok
    report["timings"] = timings
    report["elapsed_seconds"] = time.perf_counter() - t0
    return report


def emit_report(report: dict, out_dir: str) -> str:
    """Write report.json and a CSV summary into out_dir; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "report.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    rows = []
    for r in report.get("relations", []):
        rows.append(("relation", r["name"], r["residual"], r["passed"]))
    for r in report.get("bethe", {}).get("residuals", []):
        rows.append(("bethe", "level-%d" % r["level"], r["residual"],
                     r["passed"]))
    for r in report.get("bethe", {}).get("failures", []):
        rows.append(("bethe", "sector-%s-line-%d" % (
            "".join(map(str, r["sector"])), r["eigenline"]), "",
            r["passed"]))
    for c in report.get("lweights", {}).get("cases", []):
        rows.append(("lweights", "l=%d" % c["l"], c["product_residual"],
                     c["passed"]))
    with open(os.path.join(out_dir, "summary.csv"), "w",
              encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["suite", "check", "residual", "passed"])
        w.writerows(rows)
    return path


def _dump_matrices(config: RunConfig, out_dir: str) -> None:
    fam = _family(config)
    meta = config.to_dict()
    z = ZETAS[0]
    for a in range(1, config.l + 2):
        m = fam.q_op(a, z)
        save_matrix(os.path.join(out_dir, "q_%d.bin" % a), m,
                    dict(meta, a=a, zeta=[z, 0.0]))


def _dump_l_json(config: RunConfig) -> dict:
    fam = _family(config)
    lop = build_L(ZETAS[0], fam.grading, fam.ctx)
    entries = {}
    for i in range(1, config.l + 2):
        for j in range(1, config.l + 2):
            expr = lop.entry(i, j)
            entries["%d,%d" % (i, j)] = [
                {
                    "coeff": [c.real, c.imag],
                    "modes": [
                        {"mode": m + 1, "bdag": t[0], "b": t[1], "exp": t[2]}
                        for m, t in enumerate(key) if any(t)
                    ],
                }
                for (key, _), c in expr.terms
            ]
    return {
        "l": config.l, "zeta": ZETAS[0], "s": list(fam.grading.s),
        "entries": entries,
    }


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as f:
            data = json.load(f)
        for k, v in data.items():
            if not hasattr(cfg, k):
                raise ValueError("unknown config field %r" % k)
            if isinstance(v, list):
                v = tuple(v)
            setattr(cfg, k, v)
    if args.l is not None:
        cfg.l = args.l
        if cfg.tau is not None and len(cfg.tau) != cfg.l + 1:
            cfg.tau = None
    if args.n is not None:
        cfg.n = args.n
    if args.q is not None:
        cfg.q = args.q
    if args.tau is not None:
        cfg.tau = tuple(float(x) for x in args.tau.split(","))
    if args.seed is not None:
        cfg.seed = args.seed
    if getattr(args, "suite", None):
        cfg.suites = tuple(args.suite.split(","))
    if args.out is not None:
        cfg.out = args.out
    if getattr(args, "dump_matrices", False):
        cfg.dump_matrices = True
    return cfg


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--l", type=int, help="rank (chain has l+1 colors)")
    p.add_argument("--n", type=int, help="number of chain sites")
    p.add_argument("--q", type=float, help="deformation parameter")
    p.add_argument("--tau", help="comma-separated twist parameters")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, help="random seed")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="baxq",
        description="Baxter-operator functional-relation verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run residual-check suites")
    _add_common(p_verify)
    p_verify.add_argument("--suite", help="comma list: relations,bethe,"
                                          "lweights (default all)")
    p_verify.add_argument("--dump-matrices", action="store_true",
                          dest="dump_matrices",
                          help="persist Baxter matrices next to the report")

    p_bethe = sub.add_parser("bethe", help="roots and equation residuals")
    _add_common(p_bethe)

    p_lw = sub.add_parser("lweights", help="weight-factorization residuals")
    _add_common(p_lw)

    p_dump = sub.add_parser("dump-l", help="inspect the symbolic Lax matrix")
    _add_common(p_dump)

    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        if args.command in ALL_SUITES:
            cfg.suites = (args.command,)
        cfg.validate()
    except ValueError as exc:
        print("baxq: error: %s" % exc, file=sys.stderr)
        return 2
    out_dir = cfg.out or "baxq-out"

    if args.command in ("verify", "bethe", "lweights"):
        report = run_suite(cfg)
        path = emit_report(report, out_dir)
        if args.command == "bethe":
            bet = report["bethe"]
            bad = [r for r in bet["residuals"] if not r["passed"]]
            print("report written to %s (%d residuals, %d failing, %d "
                  "eigenlines failed)" % (path, len(bet["residuals"]),
                                          len(bad), len(bet["failures"])))
        else:
            if args.command == "verify" and cfg.dump_matrices:
                _dump_matrices(cfg, out_dir)
            print("report written to %s (passed=%s)" % (path,
                                                        report["passed"]))
        return 0 if report["passed"] else 1

    if args.command == "dump-l":
        doc = _dump_l_json(cfg)
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "l_operator.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
        print("L-operator dump written to %s" % path)
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
