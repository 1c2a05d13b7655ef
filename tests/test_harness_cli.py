"""Harness determinism and the command-line surface."""

import json
import subprocess
import sys

import pytest

from liesym.harness import run_verification
from liesym.numeric import DEFAULT_PROBE, ProbeConfig


def _strip_timing(report_json):
    for c in report_json["checks"]:
        c.pop("elapsed_ms", None)
    return report_json


def _rows(report, checks):
    """The rows of `report` for `checks`, without `elapsed_ms`."""
    return [{k: v for k, v in r.to_json().items() if k != "elapsed_ms"}
            for r in report.results if r.check in checks]


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


def test_start_up_imports_no_mpmath_dataclasses_or_inspect():
    # the probe computes in the standard library's decimal, the value types
    # are NamedTuples and the process pool is imported on the first pool
    # run, so no liesym process pays for importing mpmath, dataclasses and
    # the inspect, ast and dis it pulls in, or concurrent.futures and the
    # logging, multiprocessing and subprocess it pulls in
    code = ("import sys, liesym.harness, liesym.cli; "
            "print(*sorted({'mpmath', 'dataclasses', 'inspect', 'concurrent.futures', "
            "'logging', 'multiprocessing', 'subprocess'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_a_run_leaves_no_cyclic_garbage():
    # the derivation memo is passed down, not closed over, and each point's
    # walk is an object whose bound methods the caller holds, so neither
    # leaves a reference cycle for the cyclic collector
    import gc

    from liesym.catalog import default_order, find_record, instantiate, load_catalog
    from liesym.expr import indep
    from liesym.invariance import check_differential_invariant

    rec = find_record(load_catalog(), "(7,6)")
    con = instantiate(rec, n=default_order(rec))
    phi = con.invariants[0][1] + indep().as_expr()
    gc.collect()
    gc.disable()
    try:
        run_verification(filter_glob="(2[58],n+1)")
        verdicts = check_differential_invariant(con.fields, phi, DEFAULT_PROBE)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert not all(v.is_zero for v in verdicts)


def test_verify_runs_to_the_same_report_without_mpmath(tmp_path):
    out = tmp_path / "report.json"
    code = ("import sys; sys.modules['mpmath'] = None; from liesym.cli import main; "
            f"sys.exit(main(['verify', '--filter', '(1*', '--out', {str(out)!r}]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    want = run_verification(filter_glob="(1*")
    assert _strip_timing(json.loads(out.read_text())) == _strip_timing(want.to_json())


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


def test_verify_refuses_an_out_path_before_it_runs(tmp_path, monkeypatch, capsys):
    import liesym.cli as cli

    def no_run(**kwargs):
        raise AssertionError("the verification ran")

    monkeypatch.setattr(cli, "run_verification", no_run)
    assert cli.main(["verify", "--out", str(tmp_path / "missing" / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "error: --out" in err and "internal error" not in err


def test_a_filter_that_matches_nothing_writes_no_report(tmp_path, capsys):
    # a report of no checks reads "pass": true; none is written, and an
    # earlier report at the --out path does not survive the run
    import liesym.cli as cli

    out = tmp_path / "r.json"
    out.write_text(json.dumps({"pass": True, "checks": []}))
    assert cli.main(["verify", "--filter", "(99,99)", "--out", str(out)]) == 2
    assert out.read_text() == ""
    assert "no records matched the filter" in capsys.readouterr().err
    assert cli.main(["verify", "--filter", "(99,99)"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("value", ["x", "sqrt(2)", "exp(1)"])
def test_a_param_that_is_not_rational_is_a_usage_error(value, capsys):
    import liesym.cli as cli

    assert cli.main(["liedet", "(6,6)", "--param", f"K={value}"]) == 2
    err = capsys.readouterr().err
    assert f"{value!r} is not a rational value" in err and "internal error" not in err
    # verify books it as the record's one failed instantiate row
    report = run_verification(filter_glob="(6,6)", probe=ProbeConfig(points=6),
                              param_overrides={"K": value})
    [row] = report.results
    assert row.check == "instantiate" and not row.passed
    assert row.verdicts[0].startswith(f"ParseError: {value!r} is not a rational value")


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


def test_cli_liedet_prints_no_locus_that_is_empty():
    # 288*exp(-2*x)*exp(-x)*exp(x)*exp(2*x) is the constant 288
    proc = run_cli("liedet", "(22,n)", "--n", "6")
    assert proc.returncode == 0, proc.stderr
    assert "determinant: 288*exp(" in proc.stdout
    assert "singular" not in proc.stdout
    proc = run_cli("liedet", "(23,n+2)", "--n", "3")
    assert proc.returncode == 0, proc.stderr
    assert "singular locus" not in proc.stdout
    assert "singular equation (order 3): y^(3) = y - y' + y''" in proc.stdout


def test_cli_liedet_prints_the_top_jet_content(capsys):
    import liesym.cli as cli

    assert cli.main(["liedet", "(3,3)"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "factor: (1 + x^2 + y^2)^2" in lines
    assert "factor: (1 + y'^2)^1" in lines


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
    proc = run_cli("count", "(5,5)", "--order", "3")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rank"] == 5


@pytest.mark.parametrize("label", ["(21,n+1)", "(22,n)", "(23,n)", "(23,n+2)"])
def test_cli_count_refuses_transcendental_generators(label, capsys):
    import liesym.cli as cli

    assert cli.main(["count", label, "--order", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: exp(x) has no exact value at a rational point")


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
                                  ["count", "(22,2)", "--order", "13"], ["liedet", "Dx"],
                                  ["verify", "--workers", "0"],
                                  ["verify", "--workers", "-3"],
                                  # orders whose grounding needs jets past the ceiling
                                  ["liedet", "(22,n)", "--n", "13"],
                                  ["count", "(22,n)", "--order", "3", "--n", "13"],
                                  ["count", "(28,n)", "--order", "3", "--n", "40"],
                                  # an equation order past the ceiling
                                  ["liedet", "(24,n+1)", "--n", "13"],
                                  ["count", "(24,n+1)", "--order", "3", "--n", "13"],
                                  ["count", "(9,1)", "--order", "3", "--n", "13"],
                                  # more generators than a Lie determinant at the ceiling
                                  ["liedet", "(25,n+2)", "--n", "13"],
                                  ["count", "(25,n+2)", "--order", "3", "--n", "13"],
                                  ["liedet", "(27,n+2)", "--n", "13"],
                                  ["count", "(27,n+2)", "--order", "3", "--n", "13"]])
def test_bad_user_input_is_a_usage_error(argv, capsys):
    import liesym.cli as cli

    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argument itself
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "error: " in err and "internal error" not in err


@pytest.mark.parametrize("argv", [["prolong", "2²*x*Dx", "1"], ["prolong", "ln(0)*Dx", "1"],
                                  ["prolong", "ln(1-1)*Dx", "1"],
                                  ["prolong", "totd(y^(12))*Dx", "1"],
                                  ["prolong", "y'*Dx", "1"], ["liedet", "y'*Dx; Dy"]])
def test_bad_field_is_a_usage_error(argv, capsys):
    import liesym.cli as cli

    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "error: " in err and "internal error" not in err


def test_cli_prolong_folds_an_exponent_chain(capsys):
    import liesym.cli as cli

    assert cli.main(["prolong", "x^4^(1/2)*Dx", "1"]) == 0
    assert capsys.readouterr().out == "eta[1] = -2*x*y'\n"


def test_cli_prolong_prints_coefficients_past_the_int_to_str_limit(capsys):
    import liesym.cli as cli

    # the coefficient 2^8000 * 3^5000 has 4,795 digits; str() of an int stops
    # at 4,300.  The parser bounds each exact value it builds, products too,
    # so the factor 3^5000 comes from differentiating x^(3^5000).
    assert cli.main(["prolong", "2^8000*3^5000*x*Dx", "1"]) == 2
    capsys.readouterr()
    assert cli.main(["prolong", "2^8000*x^(3^5000)*Dx", "1"]) == 0
    out = capsys.readouterr().out
    tail = f"*x^{3 ** 5000 - 1}*y'\n"
    assert out.startswith("eta[1] = -") and out.endswith(tail)
    digits = out[len("eta[1] = -"):-len(tail)]
    value = 0
    for i in range(0, len(digits), 1000):
        value = value * 10 ** len(digits[i:i + 1000]) + int(digits[i:i + 1000])
    assert value == 2 ** 8000 * 3 ** 5000


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


def test_raising_lie_det_check_plans_no_singular_rows(monkeypatch):
    import liesym.harness as harness

    probe = ProbeConfig(points=6, seed=42)
    before = run_verification(filter_glob="(5,5)", probe=probe)
    assert _rows(before, {"singular"})

    def boom(fields):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(harness, "lie_determinant", boom)
    after = run_verification(filter_glob="(5,5)", probe=probe)
    lie_det, = _rows(after, {"lie_det"})
    want, = _rows(before, {"lie_det"})
    assert not lie_det["pass"] and lie_det["verdicts"] == ["ZeroDivisionError: division by zero"]
    assert lie_det["instantiation"] == want["instantiation"]
    assert not _rows(after, {"singular"})
    others = {r.check for r in before.results} - {"lie_det", "singular"}
    assert _rows(after, others) == _rows(before, others)


def test_a_variant_that_cannot_be_grounded_is_one_failed_row(monkeypatch):
    import liesym.harness as harness
    from liesym.catalog import ConstraintViolation
    from liesym.numeric import derive_seed

    variant_checks = {"extra_symmetry", "generator_probe"}
    probe = ProbeConfig(points=6, seed=42)
    before = run_verification(filter_glob="(2[56],n+1)", probe=probe)
    real = harness.instantiate

    def refuse_variants(rec, n=None, params=None):
        if params:
            raise ConstraintViolation("variant refused")
        return real(rec, n=n, params=params)

    monkeypatch.setattr(harness, "instantiate", refuse_variants)
    after = run_verification(filter_glob="(2[56],n+1)", probe=probe)
    variants = [r for r in after.results if r.check in variant_checks]
    assert {r.check for r in variants} == variant_checks
    assert [(r.record, r.n, r.check, r.detail) for r in variants] == \
        [(r.record, r.n, r.check, r.detail) for r in before.results if r.check in variant_checks]
    for r in variants:
        assert not r.passed and r.params == {}
        assert r.verdicts == ["ConstraintViolation: variant refused"]
        assert r.seed == derive_seed(42, r.record, r.n, r.check, r.detail)
    others = {r.check for r in before.results} - variant_checks
    assert _rows(after, others) == _rows(before, others)


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


@pytest.mark.parametrize("argv", [["catalog", "list"], ["prolong", "x^2*Dx + y*Dy", "12"]])
def test_closed_stdout_is_not_an_internal_error(argv):
    # stdout is a pipe whose reader has already gone, as in `liesym ... | head -1`
    import os

    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "liesym.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=600)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "internal error" not in proc.stderr and "Exception ignored" not in proc.stderr


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


@pytest.fixture
def inline_pool(monkeypatch):
    """Swap the process pool that the harness imports on a pool run for one
    that records the size it is asked for and the record label of each job
    in submission order, and runs each job in this process; return both
    lists."""
    import concurrent.futures
    from concurrent.futures import Future
    from types import SimpleNamespace

    seen = SimpleNamespace(sizes=[], labels=[])

    class InlinePool:
        def __init__(self, max_workers):
            seen.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, job):
            seen.labels.append(job[0].label)
            fut = Future()
            fut.set_result(fn(job))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return seen


@pytest.mark.parametrize("glob,workers,want", [("(5,5)", 5000, [1]),
                                               ("(1[0-3],*", 5000, [3]),
                                               ("(99,99)", 4, [])])
def test_pool_holds_no_more_processes_than_records(glob, workers, want, inline_pool,
                                                   tmp_path):
    import liesym.cli as cli

    out = tmp_path / "r.json"
    code = cli.main(["verify", "--filter", glob, "--workers", str(workers), "--out", str(out)])
    assert inline_pool.sizes == want
    assert code == (0 if want else 2)  # no records matched: a usage error


def test_pool_jobs_do_not_reload_the_catalog(inline_pool, monkeypatch):
    import liesym.harness as harness

    real = harness.load_catalog
    loads = []

    def counting_load():
        loads.append(1)
        return real()

    monkeypatch.setattr(harness, "load_catalog", counting_load)
    report = run_verification(filter_glob="(1[0-3],*", workers=2)
    assert inline_pool.sizes == [2] and len(loads) == 1
    assert {r.record for r in report.results} == {"(10,2)", "(11,3)", "(13,4)"}


def test_pool_jobs_are_submitted_longest_first(inline_pool, monkeypatch):
    import liesym.harness as harness

    # the jobs only need to be submitted: skip their checks
    monkeypatch.setattr(harness, "run_record_checks", lambda rec, *args: [])
    records = {r.label: r for r in harness.load_catalog()}
    harness.run_verification(workers=2)
    first = list(inline_pool.labels)
    assert sorted(first) == sorted(records) and len(first) == 41
    keys = [(-harness._job_cost(records[label], None), label) for label in first]
    assert keys == sorted(keys)
    # the record that is about a fifth of the check time starts at once
    assert "(7,6)" in first[:2]
    harness.run_verification(workers=2)
    assert inline_pool.labels[41:] == first


def test_instantiate_runs_once_per_record_and_order(monkeypatch):
    import re

    import liesym.expr as expr
    import liesym.harness as harness
    import liesym.parse as parse

    real, fresh_parse = harness.instantiate, parse._parse
    calls, inside = [], []  # calls: (record, overridden values, texts parsed afresh)

    def spy(rec, *args, **kwargs):
        missed = []
        calls.append((rec, kwargs.get("params"), missed))
        inside.append(missed)
        try:
            return real(rec, *args, **kwargs)
        finally:
            inside.pop()

    def spy_parse(text, ctx, allow_fields):  # a parse memo miss, or a text calling a slot
        if inside:
            inside[-1].append(text)
        return fresh_parse(text, ctx, allow_fields)

    monkeypatch.setattr(harness, "instantiate", spy)
    monkeypatch.setattr(parse, "_parse", spy_parse)
    parse._MEMO.clear()  # a default run keeps about 300 parses: no clear within it
    report = run_verification()
    variants = [r for r in report.results if r.check in ("extra_symmetry", "generator_probe")]
    assert len(calls) == len({(r.record, r.n) for r in report.results}) + len(variants)
    assert len(calls) == 77
    # grounding a record again at overridden values parses only the override
    # formulas and the templates that read an overridden name
    regrounds = [c for c in calls if c[1]]
    assert len(regrounds) == len(variants) == 12
    for rec, values, missed in regrounds:
        reading = {t for t in _template_texts(rec.data)
                   if set(re.findall(r"[^\W\d]\w*", t)) & values.keys()}
        assert reading and set(missed) <= reading | set(values.values()), (rec.label, missed)
        assert len(missed) <= len(reading) + len(values)
    # the kernel's memos stay within their bound
    assert len(expr._MONO_KEYS) <= 1024
    assert 0 < len(parse._MEMO) <= 1024


def _template_texts(data):
    """Every string in a record's JSON data."""
    if isinstance(data, str):
        yield data
    elif isinstance(data, dict):
        for v in data.values():
            yield from _template_texts(v)
    elif isinstance(data, list):
        for v in data:
            yield from _template_texts(v)
