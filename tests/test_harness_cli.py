"""Harness determinism and the command-line surface."""

import json
import subprocess
import sys

import pytest

from liesym.harness import run_verification
from liesym.numeric import ProbeConfig


def _strip_timing(report_json):
    for c in report_json["checks"]:
        c.pop("elapsed_ms", None)
    return report_json


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "liesym.cli", *args],
                          capture_output=True, text=True, timeout=600)
    return proc


def test_report_determinism_same_seed():
    probe = ProbeConfig(points=6, digits=50, seed=42)
    a = run_verification(filter_glob="(2*", probe=probe)
    b = run_verification(filter_glob="(2*", probe=probe)
    ja = json.dumps(_strip_timing(a.to_json()), sort_keys=True)
    jb = json.dumps(_strip_timing(b.to_json()), sort_keys=True)
    assert ja == jb


def test_parallel_workers_match_single_worker():
    probe = ProbeConfig(points=6, digits=50, seed=42)
    a = run_verification(filter_glob="(1*", probe=probe, workers=1)
    b = run_verification(filter_glob="(1*", probe=probe, workers=2)
    ja = json.dumps(_strip_timing(a.to_json()), sort_keys=True)
    jb = json.dumps(_strip_timing(b.to_json()), sort_keys=True)
    assert ja == jb


def test_verify_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("verify", "--filter", "(5,5)", "--points", "6",
                   "--seed", "42", "--out", str(out))
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert all(c["pass"] for c in report["checks"])
    kinds = {c["check"] for c in report["checks"]}
    assert {"invariant", "lambda", "lie_det", "equation"} <= kinds
    # unmatched filter is a usage error
    proc = run_cli("verify", "--filter", "(99,99)", "--points", "6")
    assert proc.returncode == 2


def test_cli_parse_error_exit_code():
    proc = run_cli("prolong", "x*)Dx", "3")
    assert proc.returncode == 2


def test_cli_prolong_output():
    proc = run_cli("prolong", "x*Dx + a*y*Dy", "3")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("eta[1] = ") and "y'*a" in lines[0]
    proc = run_cli("prolong", "Dx", "4")
    assert [l.split(" = ")[1] for l in proc.stdout.strip().splitlines()] == ["0"] * 4


def test_cli_liedet_catalog_label():
    proc = run_cli("liedet", "(5,5)")
    assert proc.returncode == 0
    assert "9*y''^3" in proc.stdout
    assert "singular equation (order 2)" in proc.stdout
    proc = run_cli("liedet", "(27,n+2)", "--n", "4")
    assert proc.returncode == 0
    assert "prefactor: 32" in proc.stdout or "prefactor: -32" in proc.stdout
    assert "(y''')^2" in proc.stdout


def test_cli_liedet_explicit_fields():
    proc = run_cli("liedet", "Dx; Dy")
    assert proc.returncode == 0
    assert "determinant: 1" in proc.stdout


def test_cli_count():
    proc = run_cli("count", "(22,2)", "--order", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 1
    proc = run_cli("count", "(9,1)", "--order", "0")
    assert json.loads(proc.stdout)["count"] == 1
    proc = run_cli("count", "(6,6)", "--order", "4")
    assert json.loads(proc.stdout)["count"] == 0


UNREAD_FLAGS = {
    ("prolong", "Dx", "2"): ("--seed", "--points", "--digits", "--out", "--n", "--param"),
    ("catalog", "list"): ("--seed", "--points", "--digits", "--out", "--n", "--param"),
    ("liedet", "(5,5)"): ("--seed", "--points", "--digits", "--out"),
    ("count", "(22,2)", "--order", "1"): ("--points", "--digits", "--out"),
}
FLAG_VALUES = {"--seed": "1", "--points": "6", "--digits": "50", "--n": "4",
               "--param": "a=1"}


@pytest.mark.parametrize("command,flag", [(c, f) for c, flags in UNREAD_FLAGS.items()
                                          for f in flags])
def test_subcommands_reject_flags_they_do_not_read(command, flag, tmp_path, capsys):
    import liesym.cli as cli

    out = tmp_path / "f"
    value = str(out) if flag == "--out" else FLAG_VALUES[flag]
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, flag, value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_subcommands_accept_the_flags_they_read(capsys):
    import liesym.cli as cli

    assert cli.main(["count", "(26,n+1)", "--order", "4", "--seed", "7", "--n", "5",
                     "--param", "K=5/4"]) == 0
    assert json.loads(capsys.readouterr().out)["record"] == "(26,n+1)"
    assert cli.main(["liedet", "(26,n+1)", "--n", "5", "--param", "K=5/4"]) == 0
    assert "matrix order: 4" in capsys.readouterr().out
    # the flags are read: an unknown parameter name is a usage error
    for command in (["count", "(26,n+1)", "--order", "4"], ["liedet", "(26,n+1)"]):
        assert cli.main([*command, "--param", "Z=1"]) == 2
        assert "unknown parameter 'Z'" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--points", "0"), ("--digits", "20")])
def test_verify_refuses_a_probe_that_tests_nothing(flag, value, tmp_path, capsys):
    import liesym.cli as cli

    out = tmp_path / "r.json"
    assert cli.main(["verify", "--filter", "(5,5)", flag, value, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["prolong", "Dx", "13"], ["prolong", "Dx", "-1"],
                                  ["count", "(22,2)", "--order", "13"], ["liedet", "Dx"]])
def test_bad_user_input_is_a_usage_error(argv, capsys):
    import liesym.cli as cli

    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argument itself
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "error: " in err and "internal error" not in err


def test_cli_catalog_list():
    proc = run_cli("catalog", "list")
    assert proc.returncode == 0
    assert "(5,5)" in proc.stdout and len(proc.stdout.splitlines()) == 41


def test_verify_respects_param_override(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli("verify", "--filter", "(26,n+1)", "--points", "6",
                   "--n", "5", "--param", "K=5/4", "--out", str(out))
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    eq_checks = [c for c in report["checks"] if c["check"] == "equation"]
    assert eq_checks and all(c["instantiation"]["params"]["K"] == "5/4"
                             for c in eq_checks)


def test_failure_forces_nonzero_exit(tmp_path, monkeypatch):
    # sabotage: a wrong equation must fail verification end to end
    import shutil
    from liesym.catalog import data_dir

    dst = tmp_path / "data"
    shutil.copytree(data_dir(), dst)
    rec = json.loads((dst / "t1_22_2.json").read_text())
    rec["equations"] = [{"rhs": "x + H(series(k, 1, n-1, y^(k)))"}]
    (dst / "t1_22_2.json").write_text(json.dumps(rec))
    monkeypatch.setenv("LIESYM_CATALOG_DIR", str(dst))
    proc = run_cli("verify", "--filter", "(22,2)", "--points", "6")
    assert proc.returncode == 1


def test_checks_probe_with_the_seed_they_report(monkeypatch):
    import liesym.harness as harness

    real = harness.check_differential_invariant
    used = []

    def spy(fields, phi, probe):
        used.append(probe.seed)
        return real(fields, phi, probe)

    monkeypatch.setattr(harness, "check_differential_invariant", spy)
    report = run_verification(filter_glob="(5,5)", probe=ProbeConfig(seed=42))
    reported = [r.seed for r in report.results if r.check in ("invariant", "closure")]
    assert {r.check for r in report.results} >= {"invariant", "closure"}
    assert sorted(used) == sorted(reported)


def test_raising_check_is_one_failed_row(monkeypatch):
    import liesym.harness as harness

    def boom(fields, equation, probe):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(harness, "check_equation_invariance", boom)
    report = run_verification(filter_glob="(5,5)", probe=ProbeConfig(points=6, seed=42))
    raising = [r for r in report.results if r.check in ("equation", "singular")]
    assert {r.check for r in raising} == {"equation", "singular"}
    for r in raising:
        assert not r.passed
        assert r.verdicts == ["ZeroDivisionError: division by zero"]
    lie_det = [r for r in report.results if r.check == "lie_det"]
    assert len(lie_det) == 1 and lie_det[0].passed
    assert all(r.passed for r in report.results if r.check not in ("equation", "singular"))


def test_check_keys_are_unique():
    report = run_verification(filter_glob="(16,6)", probe=ProbeConfig(points=6, seed=42))
    keys = [(r.record, r.n, r.check, r.detail) for r in report.results]
    assert len(set(keys)) == len(keys)
    assert {"phi1@5", "phi3@5"} <= {r.detail for r in report.results if r.check == "invariant"}


def test_cli_crash_is_internal_error(monkeypatch, capsys):
    import liesym.cli as cli

    def boom(*args, **kwargs):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "rank_and_count", boom)
    assert cli.main(["count", "(22,2)", "--order", "1"]) == 3
    assert "internal error: ZeroDivisionError: division by zero" in capsys.readouterr().err


def test_python_dash_m_liesym_runs_verify():
    proc = subprocess.run([sys.executable, "-m", "liesym", "verify", "--filter", "(5,5)"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_worker_death_is_a_failed_row(monkeypatch, tmp_path, capsys):
    import os

    import liesym.cli as cli
    import liesym.harness as harness

    inner = harness.run_record_checks

    def dies_on_one_record(rec, *args):
        if rec.label == "(11,3)":
            os._exit(1)
        return inner(rec, *args)

    # the pool forks its workers, so they run the patched module
    monkeypatch.setattr(harness, "run_record_checks", dies_on_one_record)
    out = tmp_path / "report.json"
    argv = ["verify", "--filter", "(1[0-3],*", "--workers", "2", "--out", str(out)]
    assert cli.main(argv) == 1
    rows = json.loads(out.read_text())["checks"]
    assert {r["record"] for r in rows} == {"(10,2)", "(11,3)", "(13,4)"}
    dead = [r for r in rows if r["record"] == "(11,3)"]
    assert len(dead) == 1 and dead[0]["check"] == "worker" and not dead[0]["pass"]
    assert dead[0]["verdicts"][0].startswith("BrokenProcessPool: ")
    assert "FAIL (11,3) worker" in capsys.readouterr().err
    # only the record that kills its worker loses its rows
    for label in ("(10,2)", "(13,4)"):
        assert "worker" not in [r["check"] for r in rows if r["record"] == label]


def test_worker_death_fails_only_the_record_that_caused_it(monkeypatch):
    import os

    import liesym.harness as harness

    def rows(report):
        out = {}
        for r in report.results:
            j = r.to_json()
            j.pop("elapsed_ms")
            out.setdefault(r.record, []).append(j)
        return out

    want = rows(harness.run_verification(filter_glob="(1*"))
    inner = harness.run_record_checks

    def dies_on_one_record(rec, *args):
        if rec.label == "(11,3)":
            os._exit(1)
        return inner(rec, *args)

    # the pools fork their workers, so they run the patched module; the
    # death breaks the pool for every pending record, and each of those is
    # rerun on its own
    monkeypatch.setattr(harness, "run_record_checks", dies_on_one_record)
    got = rows(harness.run_verification(filter_glob="(1*", workers=2))
    assert set(got) == set(want) and len(want) == 9
    dead = got.pop("(11,3)")
    assert [r["check"] for r in dead] == ["worker"] and not dead[0]["pass"]
    assert got == {label: r for label, r in want.items() if label != "(11,3)"}


def test_verify_ends_with_a_summary_line(tmp_path, capsys):
    import liesym.cli as cli

    out = tmp_path / "report.json"
    assert cli.main(["verify", "--filter", "(5,5)", "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    rows = json.loads(out.read_text())["checks"]
    statuses = [v["status"] for r in rows for v in r["verdicts"] if "status" in v]
    assert err[0].startswith(f"{len(rows)} checks, 0 failed; verdicts: "
                             f"ExactZero {statuses.count('ExactZero')}, ExactNonzero 0, "
                             "ProbablyZero 0, ProbablyNonzero 0; slowest: (5,5) ")
    assert err[0].count(" ms") == 5
