"""CLI: configuration validation, suites, report files, exit codes."""
import json

import numpy as np
import pytest

from baxq.cli import RunConfig, main, run_suite
from baxq.qop import load_matrix


def _small():
    return RunConfig(l=1, n=2, suites=("relations",))


def test_config_validation_errors():
    with pytest.raises(ValueError):
        RunConfig(l=0).validate()
    with pytest.raises(ValueError):
        RunConfig(q=1.5).validate()
    with pytest.raises(ValueError):
        RunConfig(l=1, tau=(1.0, 0.0)).validate()  # integer difference
    with pytest.raises(ValueError):
        RunConfig(l=1, n=9).validate()  # resource bound
    with pytest.raises(ValueError):
        RunConfig(suites=("nonsense",)).validate()


def test_config_allows_exotic_q_with_flag():
    cfg = RunConfig(l=1, n=1, q=1.3, allow_any_q=True)
    cfg.validate()


def test_run_suite_relations_pass():
    report = run_suite(_small())
    assert report["passed"]
    assert report["schema_version"] == 1
    names = [r["name"] for r in report["relations"]]
    assert "master-tq" in names and "qq-jacobi" in names
    assert all(r["passed"] for r in report["relations"])


def test_run_suite_is_seed_deterministic():
    a = run_suite(RunConfig(l=1, n=1, suites=("relations",), seed=4))
    b = run_suite(RunConfig(l=1, n=1, suites=("relations",), seed=4))
    for rep in (a, b):  # wall-clock fields
        rep.pop("elapsed_seconds")
        rep.pop("timings")
    assert a == b


def test_run_suite_reports_timings_health_and_tolerances():
    report = run_suite(RunConfig(l=1, n=2))
    assert set(report["timings"]) == {"relations", "bethe", "lweights"}
    assert all(t >= 0.0 for t in report["timings"].values())
    bet = report["bethe"]
    assert [h["sector"] for h in bet["health"]] == [[0, 2], [1, 1], [2, 0]]
    for h in bet["health"]:
        assert h["offdiag_residue"] < 1e-8
        assert (h["min_separation"] is None) == (h["sector"] != [1, 1])
    assert bet["failures"] == []
    assert all(r["tolerance"] == 1e-6 for r in bet["residuals"])
    assert all(c["tolerance"] == 1e-10 for c in report["lweights"]["cases"])


def test_bethe_suite_passes_at_l2_n4():
    assert run_suite(RunConfig(l=2, n=4, suites=("bethe",)))["passed"]


def test_bethe_failures_at_l1_n6_are_exact_strings():
    """(1, 6) fails two Bethe residuals: their roots form an exact 2-string,
    where the leveled product form is 0/0.  Exactly those entries have a
    string gap below 1e-10; passing near-strings stay far above it."""
    report = run_suite(RunConfig(l=1, n=6, suites=("bethe",)))
    res = report["bethe"]["residuals"]
    failing = [r for r in res if not r["passed"]]
    assert len(failing) == 2 and not report["bethe"]["failures"]
    assert all(r["sector"] == [3, 3] and r["level"] == 1 for r in failing)
    tight = [r for r in res
             if r["string_gap"] is not None and r["string_gap"] < 1e-10]
    assert tight == failing
    for l, n in ((1, 7), (2, 4)):
        res = run_suite(RunConfig(l=l, n=n, suites=("bethe",)))["bethe"][
            "residuals"]
        assert all(r["passed"] for r in res)
        assert min(r["string_gap"] for r in res
                   if r["string_gap"] is not None) > 1e-8


def test_bethe_basis_failure_becomes_report_entry(monkeypatch):
    from baxq.bethe import BetheSystem

    def broken(self, label):
        raise ArithmeticError("degenerate sector %s" % (label.k,))

    monkeypatch.setattr(BetheSystem, "_basis", broken)
    report = run_suite(RunConfig(l=1, n=2, suites=("bethe",)))
    assert not report["passed"]
    failures = report["bethe"]["failures"]
    assert len(failures) == 4  # one per eigenline of the three sectors
    assert {(tuple(f["sector"]), f["eigenline"]) for f in failures} == {
        ((0, 2), 0), ((1, 1), 0), ((1, 1), 1), ((2, 0), 0)}
    assert all(not f["passed"] and "degenerate sector" in f["reason"]
               for f in failures)


def test_verify_writes_report_and_exit_code(tmp_path):
    out = str(tmp_path / "run")
    code = main(["verify", "--l", "1", "--n", "1", "--suite", "relations",
                 "--out", out])
    assert code == 0
    with open(out + "/report.json") as f:
        report = json.load(f)
    assert report["passed"]
    assert (tmp_path / "run" / "summary.csv").exists()


def test_verify_dump_matrices_roundtrip(tmp_path):
    out = str(tmp_path / "dump")
    code = main(["verify", "--l", "1", "--n", "1", "--suite", "relations",
                 "--out", out, "--dump-matrices"])
    assert code == 0
    mat, meta = load_matrix(out + "/q_1.bin")
    assert meta["l"] == 1 and meta["a"] == 1
    # reproduce the matrix from the recorded configuration
    from baxq.borelhoms import TwistConfig
    from baxq.lop import GradingConfig
    from baxq.qnum import QContext
    from baxq.qop import QFamily

    twist = TwistConfig(tuple(meta["tau"]))
    fam = QFamily(meta["n"], twist, GradingConfig(tuple(meta["s"])),
                  QContext(q=meta["q"], tau=twist.tau))
    fresh = fam.q_op(1, meta["zeta"][0] + 1j * meta["zeta"][1])
    assert np.max(np.abs(fresh - mat)) < 1e-12


def test_bethe_subcommand(tmp_path):
    out = str(tmp_path / "bethe")
    code = main(["bethe", "--l", "1", "--n", "2", "--out", out])
    assert code == 0
    with open(out + "/report.json") as f:
        report = json.load(f)
    assert report["bethe"]["residuals"]
    assert all(r["passed"] for r in report["bethe"]["residuals"])


def test_lweights_subcommand(tmp_path):
    out = str(tmp_path / "lw")
    code = main(["lweights", "--out", out])
    assert code == 0
    with open(out + "/report.json") as f:
        report = json.load(f)
    assert [c["l"] for c in report["lweights"]["cases"]] == [1, 2, 3]


def test_dump_l_subcommand(tmp_path):
    out = str(tmp_path / "lop")
    code = main(["dump-l", "--l", "1", "--out", out])
    assert code == 0
    with open(out + "/l_operator.json") as f:
        doc = json.load(f)
    assert doc["l"] == 1
    assert "1,1" in doc["entries"]
    # lower-left corner of the rank-1 matrix carries a single b term
    ((term,),) = (doc["entries"]["2,1"],)
    assert any(m["b"] == 1 for m in term["modes"])


def test_config_file_and_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"l": 2, "n": 1, "seed": 9}))
    out = str(tmp_path / "run")
    code = main(["verify", "--config", str(cfg_path), "--l", "1",
                 "--suite", "relations", "--out", out])
    assert code == 0
    with open(out + "/report.json") as f:
        report = json.load(f)
    assert report["config"]["l"] == 1  # flag wins over file
    assert report["config"]["seed"] == 9


def test_config_file_rejects_unknown_field(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"wibble": 1}))
    with pytest.raises(ValueError):
        main(["verify", "--config", str(cfg_path)])
