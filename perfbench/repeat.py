"""Run the benchmark several times and report medians and spreads.

    python3 perfbench/repeat.py                       # every workload, seed 1
    python3 perfbench/repeat.py --workload verify-rank3 --seeds 1-10

Each run is `run.py` in its own process, one after another, with another
seed and the run length from BENCHMARK.json.  For every workload and metric
the script prints the median with its unit, the quartiles and the
interquartile spread as a share of the median, next to the bound
BENCHMARK.json gives it, and the operations attempted and failed.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_workload(bench: dict, workload: str, seeds: list,
                 trace: int) -> list:
    results = []
    for seed in seeds:
        cmd = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError("%s seed %d: exit %d\n%s" % (
                workload, seed, proc.returncode, proc.stderr))
        result = json.loads(lines[-1])
        results.append(result)
        print("%s seed %d: correct=%s failed %d/%d %s" % (
            workload, seed, result["correct"], result["failed"],
            result["attempted"],
            " ".join("%s=%.6g" % (k, v["value"])
                     for k, v in result["metrics"].items())), flush=True)
    return results


def summarize(workload: str, results: list, bounds: dict) -> None:
    print("%s: %d runs" % (workload, len(results)))
    print("  %-38s %-6s %12s %12s %12s %8s %6s" % (
        "metric", "unit", "q1", "median", "q3", "spread", "bound"))
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = stats.quartiles(values)
        bound = bounds.get(name)
        print("  %-38s %-6s %12.6g %12.6g %12.6g %8.4f %6s" % (
            name, first["unit"], q1, q2, q3,
            stats.spread(values),
            "-" if bound is None else bound))
    counts = sorted({(r["failed"], r["attempted"]) for r in results})
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print("  failed/attempted per run: %s; failed shares: %s; all correct: %s"
          % (counts, shares, all(r["correct"] for r in results)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="default: every workload")
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in
              bench["end_to_end"] + bench["per_layer"]}
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in bench["workloads"]])
    try:
        done = {w: run_workload(bench, w, parse_seeds(args.seeds), args.trace)
                for w in workloads}
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    for workload, results in done.items():
        summarize(workload, results, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
