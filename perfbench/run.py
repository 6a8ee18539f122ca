"""Benchmark of baxq: `verify` wall time and one-shot Q builds.

Usage, from the root of a source checkout (nothing needs installing; the
library is imported from ./src):

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 30 --trace 0

A run imports baxq and builds the workload's inputs several times (set-up),
then runs whole passes over the workload's fixed operation list until the
next pass would end more than half a pass after `--seconds`.  After each
pass, untimed, every output is checked apart from the library (see
`checks.py`).  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
first pass runs untraced, the rest traced, and the metrics are per layer,
including the tracing overhead (traced minus untraced pass time).  Run
metadata is printed before that line; the full result, and with tracing
the spans, are written to perfbench/results/.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import sys
import time

import stats
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

BAXQ_MODULES = ("qnum", "oscalg", "lop", "borelhoms", "rootdata", "qop",
                "fundrep", "funcrel", "bethe", "lweight", "cli")
# Set-ups before the first pass and after each pass: spread over the run,
# their median sees the same machine as the passes do.
SETUP_FIRST, SETUP_BETWEEN = 5, 3

END_TO_END = (
    ("setup_s", "s"), ("pass_s", "s"), ("slowest_call_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("oscalg.multiply.calls", "count"), ("oscalg.multiply.self_s", "s"),
    ("oscalg.multiply.terms_out", "count"),
    ("oscalg.trace_exact.calls", "count"), ("oscalg.trace_exact.self_s", "s"),
    ("oscalg.trace_exact.terms_in", "count"),
    ("qnum.ExpKey.add.calls", "count"),
    ("lop.build_L_a.calls", "count"), ("lop.build_L_a.self_s", "s"),
    ("qop.q_op.calls", "count"), ("qop.q_prime.calls", "count"),
    ("qop.q_op.hit_ratio", "ratio"), ("qop.q_prime.self_s", "s"),
    ("qop.op_det.calls", "count"), ("qop.op_det.self_s", "s"),
    ("fundrep.solve_intertwiner.calls", "count"),
    ("fundrep.solve_intertwiner.self_s", "s"),
    ("fundrep.direct_transfer.self_s", "s"),
    ("bethe.eigen_polynomial.calls", "count"),
    ("bethe.eigen_polynomial.self_s", "s"),
    ("bethe.eigenvalue.calls", "count"), ("bethe.bae_residual.calls", "count"),
    ("funcrel.checks.calls", "count"), ("funcrel.checks.self_s", "s"),
    ("funcrel.s_op.calls", "count"),
    ("lweight.check_shifted_product.calls", "count"),
    ("lweight.check_shifted_product.self_s", "s"),
    ("cli.run_suite.calls", "count"), ("cli.run_suite.s", "s"),
    ("funcrel.residual_max", "rel"), ("bethe.residual_max", "rel"),
    ("lweight.residual_max", "rel"),
    ("trace.pass_s", "s"), ("trace.overhead_s", "s"), ("trace.spans", "count"),
)


def import_baxq() -> dict:
    """Fresh import of every baxq module (previous imports are dropped)."""
    for key in [k for k in sys.modules if k == "baxq" or k.startswith("baxq.")]:
        del sys.modules[key]
    mods = {m: importlib.import_module("baxq." + m) for m in BAXQ_MODULES}
    if not mods["cli"].__file__.startswith(SRC + os.sep):
        raise ImportError("baxq was imported from %s, not from %s"
                          % (mods["cli"].__file__, SRC))
    return mods


def set_up(workload, seed: int, times: list):
    """Import baxq afresh and build the workload's inputs, timed."""
    t0 = time.perf_counter()
    mods = import_baxq()
    ops = workload.make_ops(mods, seed)
    times.append(time.perf_counter() - t0)
    return mods, ops


def run_pass(ops, tracer=None, index: int = 0) -> dict:
    """One timed pass; with a tracer, spans of op i are tagged "index.i"."""
    gc.collect()
    op_s, results = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = "%d.%d" % (index, i)
        t0 = time.perf_counter()
        try:
            results.append((op.call(), None))
        except Exception as exc:  # a raising call is a failed operation
            results.append((None, "%s: %s" % (type(exc).__name__, exc)))
        op_s.append(time.perf_counter() - t0)
    return {"pass_s": time.perf_counter() - start, "op_s": op_s,
            "results": results}


def evaluate(workload, ops, done: dict, built_qs) -> dict:
    """Count the pass's operations and failures and run the checks."""
    start = time.perf_counter()
    attempted, failures, problems = 0, [], []
    for op, (result, err) in zip(ops, done.pop("results")):
        if err is not None:
            attempted += op.expected
            failures += ["%s raised %s" % (op.label, err)] * op.expected
            continue
        verdict = workload.evaluate(op, result, built_qs.built)
        attempted += verdict.attempted
        failures += verdict.failures
        problems += ["%s: %s" % (op.label, p) for p in verdict.problems]
        if isinstance(result, dict):
            done.setdefault("reports", []).append(result)
    problems += built_qs.check()
    done.update(attempted=attempted, failures=failures, problems=problems,
                check_s=time.perf_counter() - start)
    return done


def install_tracing(tracer) -> None:
    def terms_out(counts, args, result):
        counts["oscalg.multiply.terms_out"] = \
            counts.get("oscalg.multiply.terms_out", 0) + len(result)

    def terms_in(counts, args, result):
        counts["oscalg.trace_exact.terms_in"] = \
            counts.get("oscalg.trace_exact.terms_in", 0) + len(args[0])

    t = tracer
    t.install("oscalg", "multiply", "oscalg.multiply", terms_out)
    t.install("oscalg", "trace_exact", "oscalg.trace_exact", terms_in)
    t.install_counter("qnum", "ExpKey", "__add__", "qnum.ExpKey.add.calls")
    t.install("lop", "build_L_a", "lop.build_L_a")
    t.install_method("qop", "QFamily", "q_op", "qop.q_op")
    t.install("qop", "q_prime", "qop.q_prime")
    t.install("qop", "op_det", "qop.op_det")
    t.install("fundrep", "solve_intertwiner", "fundrep.solve_intertwiner")
    t.install("fundrep", "direct_transfer", "fundrep.direct_transfer")
    t.install_method("bethe", "BetheSystem", "eigen_polynomial",
                     "bethe.eigen_polynomial")
    t.install_method("bethe", "BetheSystem", "eigenvalue", "bethe.eigenvalue")
    t.install("bethe", "bae_residual", "bethe.bae_residual")
    t.install_prefix("funcrel", "check_", "funcrel.checks")
    t.install_method("funcrel", "TransferFromQ", "s_op", "funcrel.s_op")
    t.install("lweight", "check_shifted_product",
              "lweight.check_shifted_product")
    t.install("cli", "run_suite", "cli.run_suite")


def layer_metrics(spans: list, lo: int, hi: int, counts: dict,
                  reports: list) -> dict:
    """Per-layer metrics of one traced pass, whose spans are spans[lo:hi]."""
    agg = stats.aggregate(spans, lo, hi)

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    # Span metrics are named "<span>.calls", "<span>.self_s" or "<span>.s".
    out = {}
    for metric, _ in PER_LAYER:
        span, _, key = metric.rpartition(".")
        if key in ("calls", "self_s", "s") and span in agg:
            out[metric] = get(span, key)
    out.update(counts)
    requests = get("qop.q_op", "calls")
    out["qop.q_op.hit_ratio"] = (1.0 - get("qop.q_prime", "calls") / requests
                                 if requests else 0.0)

    def worst(values):
        return max(values, default=0.0)

    out["funcrel.residual_max"] = worst(
        r["residual"] for rep in reports for r in rep.get("relations", []))
    out["bethe.residual_max"] = worst(
        r["residual"] for rep in reports
        for r in rep.get("bethe", {}).get("residuals", []))
    out["lweight.residual_max"] = worst(
        max(c["product_residual"], c["weight_residual"]) for rep in reports
        for c in rep.get("lweights", {}).get("cases", []))
    out["trace.spans"] = hi - lo
    return out


def git_sha() -> object:
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def metadata(np, args, blas_threads: int) -> dict:
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"][
            "blas"].get("version")
    except (KeyError, TypeError):
        openblas = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "python": platform.python_version(), "numpy": np.__version__,
        "openblas": openblas, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads, "machine": platform.machine(),
    }


def keep_going(passes: list, seconds: float) -> bool:
    """True while the next pass would end at most half a pass late."""
    times = [p["pass_s"] for p in passes]
    mean = sum(times) / len(times)
    return sum(times) + 0.5 * mean <= seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "baxq", "__init__.py")):
        print("perfbench: no baxq sources under %s" % SRC, file=sys.stderr)
        return 2
    # numpy's BLAS pool must not exceed the cores this process may use.
    blas_threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads)
    sys.path.insert(0, SRC)
    import numpy as np

    import checks
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(WORKLOADS)))
    meta = metadata(np, args, blas_threads)

    setup_s = []
    for _ in range(SETUP_FIRST):
        mods, ops = set_up(workload, args.seed, setup_s)

    built_qs = checks.BuiltQs(mods["qop"], mods["fundrep"].direct_transfer)
    tracer = Tracer(mods) if args.trace else None
    passes, traced = [], []
    while (not passes or keep_going(passes, args.seconds)
           or (tracer is not None and not traced)):
        # With --trace 1 the first pass runs untraced: the overhead baseline.
        tracing = tracer is not None and bool(passes)
        if tracing:
            first_span = len(tracer.spans)
            install_tracing(tracer)
        done = run_pass(ops, tracer if tracing else None, len(passes))
        if not passes:
            # Read before any check has run, so no check adds to it.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracing:
            # Checks run untraced: their library calls are not the workload's.
            tracer.uninstall()
            done["spans"] = (first_span, len(tracer.spans))
            done["counts"] = tracer.take_counts()
            traced.append(done)
        evaluate(workload, ops, done, built_qs)
        passes.append(done)
        # Later set-ups replace the modules in sys.modules only; the
        # operations keep running on the modules of the first set-ups.
        for _ in range(SETUP_BETWEEN):
            set_up(workload, args.seed, setup_s)

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    problems = [x for p in passes for x in p["problems"]]

    if args.trace:
        per_pass = []
        for p in traced:
            lo, hi = p["spans"]
            m = layer_metrics(tracer.spans, lo, hi, p["counts"],
                              p.get("reports", []))
            m["trace.pass_s"] = p["pass_s"]
            per_pass.append(m)
        values = {name: stats.median([m.get(name, 0) for m in per_pass])
                  for name, _ in PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = values["trace.pass_s"] - passes[0]["pass_s"]
        units = dict(PER_LAYER)
    else:
        values = {
            "setup_s": stats.median(setup_s),
            "pass_s": stats.median([p["pass_s"] for p in passes]),
            "slowest_call_s": stats.median([max(p["op_s"]) for p in passes]),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}

    for i, p in enumerate(passes):
        kind = "traced" if tracer is not None and i else "untraced"
        print("pass %d (%s): %.3f s, checks %.3f s; ops: %s" % (
            i + 1, kind, p["pass_s"], p["check_s"],
            ", ".join("%s %.3f" % (op.label, s)
                      for op, s in zip(ops, p["op_s"]))))
    print("setup: median %.4f s of %s" % (stats.median(setup_s),
                                          ["%.4f" % s for s in setup_s]))
    for label in sorted(set(failures)):
        print("failed x%d: %s" % (failures.count(label), label))
    for problem in problems:
        print("CHECK FAILED: %s" % problem)
    if tracer is not None and tracer.missing:
        print("trace targets not found: %s" % ", ".join(tracer.missing))
    print("meta: %s" % json.dumps(meta, sort_keys=True))

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, "%s-seed%d-trace%d" % (args.workload,
                                                        args.seed, args.trace))
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump({"meta": meta, "metrics": metrics, "setup_s": setup_s,
                   "passes": [{"pass_s": p["pass_s"], "op_s": p["op_s"]}
                              for p in passes],
                   "failures": failures, "problems": problems}, f, indent=1)
    if tracer is not None:
        tracer.dump(stem + "-spans.json", meta)

    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
