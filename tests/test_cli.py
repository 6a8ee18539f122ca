"""CLI: configuration validation, suites, report files, exit codes."""
import json
from dataclasses import fields

import numpy as np
import pytest

from baxq import qop
from baxq.borelhoms import TwistConfig
from baxq.cli import _FIELD_TYPES, TOLERANCES, RunConfig, main, run_suite
from baxq.lop import GradingConfig
from baxq.qnum import QContext
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
    assert set(_FIELD_TYPES) == {f.name for f in fields(RunConfig)}


def test_guard_admits_only_chains_the_default_twist_serves(capsys):
    """Every (l, n) the resource guard admits validates with the default
    twist; l = 5 fails the guard even with a generic twist."""
    admitted = [(l, n) for l in range(1, 5) for n in range(1, 8)
                if n * (l + 1) ** n <= 2000]
    assert len(admitted) == 19 and (4, 3) in admitted
    for l, n in admitted:
        RunConfig(l=l, n=n).validate()
    with pytest.raises(ValueError, match="l <= 4"):
        RunConfig(l=4, n=4).validate()
    assert main(["verify", "--l", "5", "--n", "1",
                 "--tau", "0.13,0.71,1.37,2.09,2.83,3.52"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("baxq: error: requested chain exceeds") \
        and "l <= 4" in err and err.count("\n") == 1


def test_run_suite_relations_pass():
    report = run_suite(_small())
    assert report["passed"]
    assert report["schema_version"] == 1
    names = [r["name"] for r in report["relations"]]
    assert names == ["unit-q", "master-tq", "master-tt", "t-system",
                     "jacobi-trudi", "qq-jacobi", "t-trivial", "t-shift",
                     "t-reflect", "direct-transfer", "yang-baxter",
                     "q-commutativity"]
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
    assert all("tolerance" not in c and c["product_residual"] == 0
               and c["weight_residual"] == 0.0
               for c in report["lweights"]["cases"])
    for r in report["relations"]:
        kind = "direct-transfer" if r["name"] == "direct-transfer" \
            else "relations"
        assert r["tolerance"] == TOLERANCES[kind]
        assert r["passed"] == (r["residual"] < r["tolerance"])
    assert TOLERANCES == {"relations": 1e-8, "direct-transfer": 1e-6,
                          "bethe": 1e-6}
    assert "tolerance" not in report["config"]
    assert "zetas" not in report["config"]
    json.dumps(report, allow_nan=False)


def test_bethe_singular_root_becomes_failed_entry(monkeypatch):
    """A root exactly on a zero of a product-form factor (an exact 2-string,
    z_2 = q^2 z_1 bit for bit) gives failed entries with a reason, and the
    report stays valid JSON."""
    from baxq import cli
    from baxq.bethe import BethePolynomial
    from baxq.qop import SectorLabel

    def strings(fam, path, label, line):
        q = fam.ctx.qpow(1)
        w = 0.4 + 0.1j

        def poly(roots):
            return BethePolynomial((1,), SectorLabel((1, 1, 0)), 0, 1.0, 0.0,
                                   roots, 0.0)
        return [poly([w, q * q * w]), poly([0.9])]

    monkeypatch.setattr(cli, "path_polynomials", strings)
    report = run_suite(RunConfig(l=2, n=1, suites=("bethe",)))
    assert not report["passed"]
    json.dumps(report, allow_nan=False)
    res = report["bethe"]["residuals"]
    singular = [r for r in res if r["level"] == 1]
    assert singular and all(
        r["residual"] is None and not r["passed"] and r["string_gap"] < 1e-15
        and "zero or pole" in r["reason"] for r in singular)
    assert all(r["residual"] is not None and "reason" not in r
               for r in res if r["level"] == 2)


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
    def broken(self, label):
        raise ArithmeticError("degenerate sector %s" % (label.k,))

    monkeypatch.setattr(qop.QFamily, "basis", broken)
    report = run_suite(RunConfig(l=1, n=2, suites=("bethe",)))
    assert not report["passed"]
    failures = report["bethe"]["failures"]
    assert len(failures) == 4  # one per eigenline of the three sectors
    assert {(tuple(f["sector"]), f["eigenline"]) for f in failures} == {
        ((0, 2), 0), ((1, 1), 0), ((1, 1), 1), ((2, 0), 0)}
    assert all(not f["passed"] and "degenerate sector" in f["reason"]
               for f in failures)


def test_relations_basis_failure_becomes_report_entries(monkeypatch, tmp_path,
                                                        capsys):
    """One sector without a basis fails every entry read off the basis,
    with no residual and a reason naming the sector; Yang-Baxter and the
    dense q-commutator are still measured.  The report is valid JSON and
    verify exits with status 1."""
    names = [r["name"] for r in run_suite(_small())["relations"]]
    basis = qop.QFamily.basis

    def broken(self, label):
        if label.k == (1, 1):
            raise ArithmeticError("sector %s eigenbasis is degenerate"
                                  % (label.k,))
        return basis(self, label)

    monkeypatch.setattr(qop.QFamily, "basis", broken)
    report = run_suite(_small())
    assert not report["passed"]
    json.dumps(report, allow_nan=False)
    rel = report["relations"]
    assert [r["name"] for r in rel] == names and len(rel) == 12
    for r in rel[:-2]:
        assert r["residual"] is None and not r["passed"], r["name"]
        assert "sector (1, 1)" in r["reason"]
    assert [r["name"] for r in rel[-2:]] == ["yang-baxter", "q-commutativity"]
    assert all(r["passed"] and "reason" not in r for r in rel[-2:])
    out = str(tmp_path / "run")
    assert main(["verify", "--l", "1", "--n", "2", "--suite", "relations",
                 "--out", out]) == 1
    with open(out + "/report.json") as f:
        assert json.load(f)["relations"][0]["residual"] is None
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("config", [RunConfig(l=1, n=2, q=0.3),
                                    RunConfig(l=2, n=2, q=0.05),
                                    RunConfig(l=3, n=2, q=0.1),
                                    RunConfig(l=2, n=2, s=(0, 0, 1))])
def test_small_q_and_graded_jacobi_trudi_is_measured(config):
    """Small q, or a grading that shifts zeta far, takes t_hat's
    normalization outside the disk of its series; the product measures
    Jacobi-Trudi there too, and the whole report passes."""
    report = run_suite(config)
    assert report["passed"]
    json.dumps(report, allow_nan=False)
    (jt,) = [r for r in report["relations"] if r["name"] == "jacobi-trudi"]
    assert jt["residual"] is not None and jt["residual"] < 1e-8
    assert "reason" not in jt


def test_jacobi_trudi_at_a_normalization_zero_fails_only_that_entry():
    """At q = 0.35^2 a factor of t_hat's normalization vanishes exactly at
    the sampled zeta = 0.35: the Jacobi-Trudi entry alone fails, with no
    residual and a reason naming the normalization."""
    report = run_suite(RunConfig(l=1, n=2, q=0.35 ** 2,
                                 suites=("relations",)))
    assert not report["passed"]
    json.dumps(report, allow_nan=False)
    (jt,) = [r for r in report["relations"] if r["name"] == "jacobi-trudi"]
    assert jt["residual"] is None and not jt["passed"]
    assert "normalization product" in jt["reason"]
    others = [r for r in report["relations"] if r is not jt]
    assert len(others) == 11 and all(r["passed"] for r in others)


def test_small_q_verify_exits_with_status_0(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["verify", "--l", "1", "--n", "2", "--q", "0.3",
                 "--out", out]) == 0
    with open(out + "/report.json") as f:
        assert json.load(f)["passed"]
    assert "Traceback" not in capsys.readouterr().err


def test_full_run_builds_each_sector_basis_once(monkeypatch):
    """The relations and Bethe suites read one joint eigenbasis per sector:
    one eigendecomposition each in a full run."""
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig",
                        lambda m: calls.append(m.shape) or eig(m))
    report = run_suite(RunConfig(l=2, n=2))
    assert report["passed"]
    assert len(calls) == len(report["bethe"]["health"]) == 6


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
    twist = TwistConfig(tuple(meta["tau"]))
    fam = qop.QFamily(meta["n"], twist, GradingConfig(tuple(meta["s"])),
                      QContext(q=meta["q"]))
    fresh = fam.q_op(1, meta["zeta"][0] + 1j * meta["zeta"][1])
    assert np.max(np.abs(fresh - mat)) < 1e-12


def test_verify_dump_reuses_the_run_family(tmp_path, monkeypatch):
    """A dumped run walks each Q'_a once (3 walks at l = 2), and the dumped
    matrices are the family's q_op."""
    calls = []
    walk = qop.q_prime
    monkeypatch.setattr(qop, "q_prime",
                        lambda a, *rest: calls.append(a) or walk(a, *rest))
    out = str(tmp_path / "dump")
    assert main(["verify", "--l", "2", "--n", "3", "--out", out,
                 "--dump-matrices"]) == 0
    assert sorted(calls) == [1, 2, 3]
    fam = qop.QFamily(3, TwistConfig.default(2), GradingConfig.principal(2),
                      QContext(q=0.7))
    for a in (1, 2, 3):
        mat, meta = load_matrix(out + "/q_%d.bin" % a)
        assert meta["a"] == a and meta["zeta"] == [0.55, 0.0]
        assert np.array_equal(mat, fam.q_op(a, 0.55))


def test_suite_order_does_not_change_the_report():
    """Suites run in one fixed order, so the relations draw from the rng
    before the l-weights however --suite lists them."""
    reports = [run_suite(RunConfig(l=1, n=2, seed=3, suites=suites))
               for suites in (("relations", "lweights"),
                              ("lweights", "relations"))]
    for rep in reports:  # wall-clock fields and the echoed order
        rep.pop("elapsed_seconds")
        rep.pop("timings")
        rep["config"].pop("suites")
    assert reports[0] == reports[1]


def test_verify_suite_bethe(tmp_path):
    out = str(tmp_path / "bethe")
    code = main(["verify", "--suite", "bethe", "--l", "1", "--n", "2",
                 "--out", out])
    assert code == 0
    with open(out + "/report.json") as f:
        report = json.load(f)
    assert report["bethe"]["residuals"]
    assert all(r["passed"] for r in report["bethe"]["residuals"])


def test_verify_suite_lweights(tmp_path):
    out = str(tmp_path / "lw")
    code = main(["verify", "--suite", "lweights", "--out", out])
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


def test_config_file_rejects_unknown_field(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"wibble": 1}))
    assert main(["verify", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == \
        "baxq: error: unknown config field 'wibble'\n"


@pytest.mark.parametrize("data, flags, message", [
    ({"l": "2"}, [], "config field 'l' must be an int"),
    ({"l": True}, [], "config field 'l' must be an int"),
    ({"n": 2.5}, [], "config field 'n' must be an int"),
    ({"seed": 1.5}, [], "config field 'seed' must be an int"),
    ({"q": "0.7"}, [], "config field 'q' must be a finite real number"),
    ({"tau": [1.0, "x", 2.0]}, [],
     "config field 'tau' must be a list of finite numbers"),
    ({"tau": [float("inf"), 0.3, 1.7]}, [],
     "config field 'tau' must be a list of finite numbers"),
    ({"s": [1, 1.0, 1]}, [], "config field 's' must be a list of ints"),
    ({"suites": "relations"}, [],
     "config field 'suites' must be a list of strings"),
    ({"dump_matrices": "yes"}, [], "config field 'dump_matrices' must be a "
                                   "bool"),
    ({"out": 3}, [], "config field 'out' must be a string"),
    ([1, 2], [], "config file must hold a JSON object"),
    ({"validate": 1}, [], "unknown config field 'validate'"),
    ({"l": 2, "tau": [3.1, 1.9, 0.7]}, ["--l", "1"],
     "tau must have l + 1 components"),
])
def test_malformed_config_file_exits_with_status_2(tmp_path, monkeypatch,
                                                   capsys, data, flags,
                                                   message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(data))
    assert main(["verify", "--config", "cfg.json"] + flags) == 2
    assert capsys.readouterr().err == "baxq: error: %s\n" % message
    assert not (tmp_path / "baxq-out").exists()


def test_invalid_configuration_exits_with_status_2(tmp_path, capsys):
    """l = 5 exceeds the resource guard, which is tested before any default
    twist is built: one error line, status 2, no report.  A non-generic
    twist at an admitted rank gives the twist message."""
    out = tmp_path / "l5"
    assert main(["verify", "--l", "5", "--n", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("baxq: error: requested chain exceeds") \
        and err.count("\n") == 1
    assert not out.exists()
    assert main(["verify", "--l", "1", "--tau", "1.0,0.0",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("baxq: error: tau_1 - tau_2 is within 1e-3 of an "
                          "integer") and err.count("\n") == 1
    assert not out.exists()


def test_guard_is_tested_before_defaults_are_built(monkeypatch):
    """Rejecting a huge rank builds no default twist or grading of that
    size."""
    def refuse(cls, l):
        raise AssertionError("default built for l = %d" % l)

    monkeypatch.setattr(TwistConfig, "default", classmethod(refuse))
    monkeypatch.setattr(GradingConfig, "principal", classmethod(refuse))
    with pytest.raises(ValueError, match="requested chain exceeds"):
        RunConfig(l=10 ** 6, n=1).validate()
