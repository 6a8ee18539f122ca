"""Command-line interface: configuration, suite orchestration, reporting.

Subcommands:

* ``verify`` -- run the selected residual-check suites (``--suite``, default
  all) on one Q-family; write a JSON report, a CSV summary and, with
  ``--dump-matrices``, the Baxter matrices in binary;
* ``dump-l`` -- inspect the symbolic Lax matrix entries.

The flags given override the fields of the ``--config`` file, which override
`RunConfig`'s defaults; `RunConfig.validate` checks the result.  Every run
echoes its full configuration into the report so the numbers are
reproducible from the report alone.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import os
import random
import sys
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import funcrel
from .bethe import bae_residual, path_polynomials
from .borelhoms import TwistConfig
from .fundrep import yang_baxter_residual
from .lop import GradingConfig, build_L
from .lweight import check_shifted_product, conjectured_xi
from .qnum import QContext, relative
from .qop import QFamily, save_matrix

SCHEMA_VERSION = 1
ALL_SUITES = ("relations", "bethe", "lweights")
# Pass bounds: an entry passes when its residual lies below the bound of its
# kind.  "relations" covers every relation entry but the R-matrix
# comparison, "bethe" the residuals |LHS/RHS - 1|.  The l-weight identities
# are exact and take no bound.
TOLERANCES = {
    "relations": 1e-8,
    "direct-transfer": 1e-6,
    "bethe": 1e-6,
}
# Spectral parameters the relations are sampled at; the first one also
# serves `--dump-matrices` and `dump-l`.
ZETAS = (0.55, 0.35)


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


def _is_list(is_item, none_too=False):
    return lambda v: (none_too and v is None) or (
        isinstance(v, (list, tuple)) and all(map(is_item, v)))


# What each configuration field must hold (None for tau and s stands for
# the default).  A config file can put any JSON value into any field.
_FIELD_TYPES = {
    "l": ("an int", _is_int),
    "n": ("an int", _is_int),
    "q": ("a finite real number", _is_real),
    "tau": ("a list of finite numbers", _is_list(_is_real, none_too=True)),
    "s": ("a list of ints", _is_list(_is_int, none_too=True)),
    "suites": ("a list of strings", _is_list(lambda x: isinstance(x, str))),
    "seed": ("an int", _is_int),
    "out": ("a string", lambda v: isinstance(v, str)),
    "dump_matrices": ("a bool", lambda v: isinstance(v, bool)),
}


@dataclass
class RunConfig:
    """Parameters of one CLI run; `validate` checks them."""

    l: int = 2
    n: int = 2
    q: float = 0.7
    tau: Optional[Tuple[float, ...]] = None
    s: Optional[Tuple[int, ...]] = None
    suites: Tuple[str, ...] = ALL_SUITES
    seed: int = 0
    out: str = "baxq-out"
    dump_matrices: bool = False

    def resolved_tau(self) -> Tuple[float, ...]:
        return self.tau if self.tau is not None \
            else TwistConfig.default(self.l).tau

    def resolved_s(self) -> Tuple[int, ...]:
        return self.s if self.s is not None \
            else GradingConfig.principal(self.l).s

    def validate(self) -> None:
        for name, (kind, is_kind) in _FIELD_TYPES.items():
            if not is_kind(getattr(self, name)):
                raise ValueError("config field %r must be %s" % (name, kind))
        if self.l < 1:
            raise ValueError("l must be >= 1")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0, 1)")
        # l <= 4 bounds the intertwiner system (8,750 x 625 at l = 4, 22,032
        # x 1,296 at l = 5), and comes before any default of size l + 1 is
        # built.  n <= 7 is implied; testing it first keeps the power small.
        if self.l > 4 or self.n > 7 or self.n * (self.l + 1) ** self.n > 2000:
            raise ValueError("requested chain exceeds the desk-scale "
                             "resource bound (l <= 4 and n (l+1)^n <= 2000)")
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


def _report_entry(rep: funcrel.RelationReport) -> dict:
    bound = TOLERANCES.get(rep.name, TOLERANCES["relations"])
    passed = rep.residual is not None and rep.residual < bound
    entry = {"name": rep.name, "residual": rep.residual, "tolerance": bound,
             "passed": passed, "details": rep.details}
    if rep.reason is not None:
        entry["reason"] = rep.reason
    return entry


# Relation entries read off the joint eigenbasis, in report order.
Q_SIDE = ("unit-q", "master-tq", "master-tt", "t-system", "jacobi-trudi",
          "qq-jacobi", "t-trivial", "t-shift", "t-reflect", "direct-transfer")


def _relations_suite(fam: QFamily, rng: random.Random) -> List[dict]:
    l = fam.l
    z0, z_small = ZETAS[0], min(ZETAS)
    # Distinct weight entries keep the antisymmetrized terms nonzero, so
    # the residual normalization is meaningful.
    mu = rng.sample(range(0, l + 5), l + 2)
    mu2 = rng.sample(range(0, 2 * l + 6), 2 * l + 2)
    nu = rng.randrange(1, 3)
    mu3 = sorted(rng.sample(range(0, l + 4), l + 1), reverse=True)
    try:
        tq = funcrel.TransferFromQ(fam)
        reps = [funcrel.check_unit_q(fam, z0),
                funcrel.check_master_tq(tq, 1, mu, z0),
                funcrel.check_master_tt(tq, mu2, z0),
                funcrel.check_t_system(tq, 1, 1, z0),
                funcrel.check_jacobi_trudi(tq, 1, 2, z_small),
                funcrel.check_qq_jacobi(fam, (), 1, 2, z0)]
        reps += funcrel.check_t_symmetries(tq, mu3, nu, z0, 1)
        reps.append(funcrel.check_direct_vs_q(tq, z0))
        out = [_report_entry(rep) for rep in reps]
    except ArithmeticError as exc:
        out = [_report_entry(funcrel.RelationReport(name, None,
                                                    reason=str(exc)))
               for name in Q_SIDE]
    zs = (0.5, 0.9, 1.3)
    ybe = yang_baxter_residual(fam.grading, fam.ctx, *zs)
    out.append(_report_entry(funcrel.RelationReport(
        "yang-baxter", ybe, {"zetas": list(zs)})))
    a2 = min(2, l + 1)
    q1, q2 = fam.q_op(1, ZETAS[0]), fam.q_op(a2, ZETAS[-1])
    comm = float(relative(np.max(np.abs(q1 @ q2 - q2 @ q1)),
                          np.max(np.abs(q1 @ q2))))
    out.append(_report_entry(funcrel.RelationReport(
        "q-commutativity", comm, {"a": [1, a2], "zetas": list(ZETAS)})))
    return out


def _bethe_suite(fam: QFamily, rng: random.Random) -> dict:
    """Roots and nested-equation residuals of every eigenline.

    A sector whose eigenbasis or polynomials cannot be formed (an
    ArithmeticError) gives one failed entry per eigenline under "failures".
    """
    l = fam.l
    path = tuple(range(1, l + 2))
    polys_out, residuals, failures = [], [], []
    for label in sorted(fam.sectors, key=lambda lb: lb.k):
        for line in range(len(fam.sectors[label])):
            try:
                polys = path_polynomials(fam, path, label, line)
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
              for label, h in sorted(fam.health.items(),
                                     key=lambda item: item[0].k)]
    return {"polynomials": polys_out, "residuals": residuals,
            "failures": failures, "health": health}


def _lweights_suite(fam: QFamily, rng: random.Random) -> dict:
    """The l-weight identities for l = 1, 2, 3, whatever the chain.

    The product identity is checked once per l, exactly, at the integer
    label mu_a = 10 a, whose entries are spaced wider than
    `check_shifted_product` needs; the structural independence of
    `conjectured_xi` at a random label and occupation array.
    """
    results = []
    for l in (1, 2, 3):
        leftover, weight = check_shifted_product(
            [10 * a for a in range(1, l + 2)], l)
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
            "product_residual": leftover,
            "weight_residual": weight,
            "structural_independence": structural,
            "passed": leftover == 0 and weight == 0.0 and structural,
        })
    return {"cases": results}


# Each suite's runner, called with the run's family and rng, and the test of
# whether the part of the report it returns passed.
_SUITES = {
    "relations": (_relations_suite, lambda rs: all(r["passed"] for r in rs)),
    "bethe": (_bethe_suite,
              lambda b: not b["failures"]
              and all(r["passed"] for r in b["residuals"])),
    "lweights": (_lweights_suite,
                 lambda lw: all(c["passed"] for c in lw["cases"])),
}


def run_suite(config: RunConfig) -> dict:
    """Run the selected suites on one Q-family and assemble the report.

    Suites run in `ALL_SUITES` order whatever order `config.suites` gives,
    so the relations draw from the seeded rng before the l-weights.
    `timings` holds the wall time of each suite that ran, `elapsed_seconds`
    that of the run.  With `dump_matrices`, every Q_a of the same family is
    also written into `config.out`.
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
    fam = QFamily(config.n, TwistConfig(config.resolved_tau()),
                  GradingConfig(config.resolved_s()), QContext(q=config.q))
    timings = {}
    ok = True
    for name in ALL_SUITES:
        if name in config.suites:
            runner, passed = _SUITES[name]
            start = time.perf_counter()
            report[name] = runner(fam, rng)
            timings[name] = time.perf_counter() - start
            ok = ok and passed(report[name])
    if config.dump_matrices:
        _dump_matrices(config, fam)
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


def _dump_matrices(config: RunConfig, fam: QFamily) -> None:
    """Write each Q_a(ZETAS[0]) of `fam` and its sidecar into config.out."""
    os.makedirs(config.out, exist_ok=True)
    meta = config.to_dict()
    z = ZETAS[0]
    for a in range(1, config.l + 2):
        save_matrix(os.path.join(config.out, "q_%d.bin" % a), fam.q_op(a, z),
                    dict(meta, a=a, zeta=[z, 0.0]))


def _dump_l_json(config: RunConfig) -> dict:
    s = config.resolved_s()
    lop = build_L(ZETAS[0], GradingConfig(s), QContext(q=config.q))
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
        "l": config.l, "zeta": ZETAS[0], "s": list(s),
        "entries": entries,
    }


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            data = json.load(f)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        for k, v in data.items():
            if k not in _FIELD_TYPES:
                raise ValueError("unknown config field %r" % k)
            setattr(cfg, k, tuple(v) if isinstance(v, list) else v)
    for name in _FIELD_TYPES:
        if getattr(args, name, None) is not None:
            setattr(cfg, name, getattr(args, name))
    return cfg


def float_list(text: str) -> Tuple[float, ...]:
    """The floats of a comma-separated list (the --tau flag)."""
    return tuple(float(x) for x in text.split(","))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--l", type=int, help="rank (chain has l+1 colors)")
    p.add_argument("--n", type=int, help="number of chain sites")
    p.add_argument("--q", type=float, help="deformation parameter")
    p.add_argument("--tau", type=float_list,
                   help="comma-separated twist parameters")
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
    p_verify.add_argument("--suite", dest="suites",
                          type=lambda text: tuple(text.split(",")),
                          help="comma list: relations,bethe,lweights "
                               "(default all)")
    p_verify.add_argument("--dump-matrices", action="store_true", default=None,
                          help="persist Baxter matrices next to the report")

    _add_common(sub.add_parser("dump-l",
                               help="inspect the symbolic Lax matrix"))

    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        cfg.validate()
    except (OSError, ValueError) as exc:
        print("baxq: error: %s" % exc, file=sys.stderr)
        return 2

    if args.command == "dump-l":
        doc = _dump_l_json(cfg)
        os.makedirs(cfg.out, exist_ok=True)
        path = os.path.join(cfg.out, "l_operator.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
        print("L-operator dump written to %s" % path)
        return 0

    report = run_suite(cfg)
    path = emit_report(report, cfg.out)
    print("report written to %s (passed=%s)" % (path, report["passed"]))
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
