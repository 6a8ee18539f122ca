"""Fast tests of the benchmark's own arithmetic, tracing and checks.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import os
import statistics
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from tracing import Tracer  # noqa: E402


# -- order statistics ------------------------------------------------------

def test_quartiles_match_statistics_module():
    values = [float(v) for v in range(1, 11)]
    assert stats.quartiles(values) == (2.75, 5.5, 8.25)
    assert stats.spread(values) == pytest.approx(1.0)
    data = [3.1, 2.9, 3.0, 3.3, 2.8, 3.05, 3.2]
    q1, q2, q3 = statistics.quantiles(data, n=4)
    assert stats.quartiles(data) == (q1, q2, q3)
    assert stats.median(data) == 3.05


def test_single_value_has_no_spread():
    assert stats.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert stats.spread([4.0]) == 0.0
    with pytest.raises(ValueError):
        stats.median([])


# -- self time from a span tree --------------------------------------------

def test_self_time_subtracts_children():
    spans = [
        ("root", 0.0, 10.0, -1, "0.0"),
        ("a", 1.0, 4.0, 0, "0.0"),
        ("leaf", 2.0, 3.0, 1, "0.0"),
        ("b", 5.0, 6.0, 0, "0.0"),
    ]
    assert stats.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [("p", 0.0, 10.0, -1, None), ("c", 1.0, 4.0, 0, None),
             ("c", 3.0, 5.0, 0, None), ("c", 9.0, 12.0, 0, None)]
    assert stats.self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_aggregate_recursive_spans():
    spans = [("det", 0.0, 8.0, -1, None), ("det", 1.0, 3.0, 0, None),
             ("det", 4.0, 7.0, 0, None), ("det", 5.0, 6.0, 2, None)]
    agg = stats.aggregate(spans)["det"]
    assert agg["calls"] == 4
    assert agg["self_s"] == pytest.approx(8.0)
    assert agg["s"] == pytest.approx(14.0)
    # A later slice keeps its parents: the second call's self time is 2.
    later = stats.aggregate(spans, 2)["det"]
    assert later["calls"] == 2
    assert later["self_s"] == pytest.approx(2.0 + 1.0)


# -- tracing from outside a module -----------------------------------------

def _fake_modules():
    lib = types.ModuleType("lib")
    exec("def leaf(x):\n    return [x] * x\n"
         "def outer(x):\n    return leaf(x) + leaf(x)\n"
         "class K:\n    def __add__(self, o):\n        return self\n"
         "    __radd__ = __add__\n", lib.__dict__)
    user = types.ModuleType("user")
    user.leaf = lib.leaf
    return {"lib": lib, "user": user}


def test_tracer_wraps_every_reference_and_restores():
    mods = _fake_modules()
    orig = mods["lib"].leaf
    tracer = Tracer(mods)

    def tally(counts, args, result):
        counts["n"] = counts.get("n", 0) + len(result)

    tracer.install("lib", "leaf", "lib.leaf", tally)
    tracer.install("lib", "outer", "lib.outer")
    tracer.install_counter("lib", "K", "__add__", "K.add")
    tracer.install("lib", "gone", "lib.gone")
    assert mods["user"].leaf is mods["lib"].leaf is not orig
    tracer.op = "0.1"
    mods["lib"].outer(2)
    mods["user"].leaf(3)
    k = mods["lib"].K()
    k + k
    1 + k
    names = [s[0] for s in tracer.spans]
    assert names == ["lib.outer", "lib.leaf", "lib.leaf", "lib.leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, -1]
    assert {s[4] for s in tracer.spans} == {"0.1"}
    assert tracer.take_counts() == {"n": 7, "K.add": 2}
    assert tracer.take_counts() == {"K.add": 0}
    assert tracer.missing == ["lib.gone"]
    tracer.uninstall()
    assert mods["user"].leaf is orig and mods["lib"].leaf is orig
    assert mods["lib"].K.__dict__["__radd__"] is mods["lib"].K.__dict__[
        "__add__"]


# -- independent output checks ---------------------------------------------

def test_sector_ids_follow_the_basis_convention():
    ids = checks.sector_ids(1, 2)  # states 11, 12, 21, 22
    assert ids[1] == ids[2]
    assert len({ids[0], ids[1], ids[3]}) == 3
    assert checks.multinomial((2, 1, 1)) == 12
    assert len(checks.compositions(3, 3)) == 10
    # (2,0): one line, 2 roots; (1,1): two lines, 1 root; (0,2): none.
    assert checks.bethe_residual_count(1, 2) == 4


@pytest.fixture(scope="module")
def chain():
    from baxq.borelhoms import TwistConfig
    from baxq.fundrep import direct_transfer
    from baxq.lop import GradingConfig
    from baxq.qnum import QContext
    from baxq.qop import QFamily

    l, n = 1, 3
    twist = TwistConfig.default(l)
    grading = GradingConfig.principal(l)
    ctx = QContext(q=0.7, tau=twist.tau)
    q = QFamily(n, twist, grading, ctx).q_op(1, 0.55)
    t = direct_transfer(checks.ZETA_CHECK, n, twist, grading, ctx)
    return l, n, q, t, checks.sector_ids(l, n)


def test_built_q_passes(chain):
    l, n, q, t, ids = chain
    assert checks.check_q(q, l, n, t, ids) == []


def test_q_with_entry_between_sectors_is_rejected(chain):
    l, n, q, t, ids = chain
    bad = q.copy()
    i, j = next((i, j) for i in range(len(ids)) for j in range(len(ids))
                if ids[i] != ids[j])
    bad[i, j] = 1e-6 * np.abs(q).max()
    assert any("between different sectors" in p
               for p in checks.check_q(bad, l, n, t, ids))


def test_q_not_commuting_with_transfer_is_rejected(chain):
    l, n, q, t, ids = chain
    bad = q.copy()
    sel = np.flatnonzero(ids == ids[1])  # a sector with several states
    bad[sel[0], sel[1]] += 1e-3 * np.abs(q).max()
    problems = checks.check_q(bad, l, n, t, ids)
    assert problems and all("commutator" in p for p in problems)


def test_degenerate_q_is_rejected(chain):
    l, n, q, t, ids = chain
    assert "zero operator" in checks.check_q(0 * q, l, n, t, ids)
    assert checks.check_q(q[:-1], l, n, t, ids)[0].startswith("shape")


@pytest.fixture(scope="module")
def bethe_report():
    from baxq.cli import RunConfig, run_suite

    return run_suite(RunConfig(l=1, n=2, suites=("bethe",)))


def test_bethe_report_passes(bethe_report):
    assert checks.check_report(bethe_report, 1, 2) == []


def test_missing_eigenline_is_rejected(bethe_report):
    bethe = dict(bethe_report["bethe"])
    bethe["polynomials"] = [p for p in bethe["polynomials"]
                            if not (p["sector"] == [1, 1]
                                    and p["eigenline"] == 1)]
    assert any("eigenlines" in p for p in checks.check_bethe(bethe, 1, 2))


def test_wrong_root_count_is_rejected(bethe_report):
    bethe = json.loads(json.dumps(bethe_report["bethe"]))
    poly = next(p for p in bethe["polynomials"] if p["roots"])
    poly["roots"].append([0.5, 0.0])
    assert any("roots, expected" in p for p in checks.check_bethe(bethe, 1, 2))


def test_inconsistent_verdict_is_rejected(bethe_report):
    report = dict(bethe_report, passed=False)
    assert any("verdict" in p for p in checks.check_report(report, 1, 2))


# -- the metric list BENCHMARK.json declares -------------------------------

def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as f:
        bench = json.load(f)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(run.PER_LAYER)
