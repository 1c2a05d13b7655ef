"""Acceptance suite: one test per criterion, each printing a verdict line.

Probabilistic checks run at 20 points / 50 digits (threshold 10^-30) unless a
criterion states otherwise.  Criterion 1 carries a sub-test that certifies a
misprint in the source table: the tabulated five-dimensional determinant value
is the square of the jet, while the determinant of the stated generator matrix
(whose rows the prolongation reproduces entry by entry) is exactly the cube.
The sub-test rejects the square and confirms the cube against an oracle that
expands the tabulated rows without the engine.
"""

import hashlib
import json
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction as F

from liesym import expr as E
from liesym.catalog import find_record, instantiate, load_catalog
from liesym.harness import run_verification
from liesym.invariance import OdeEquation, check_differential_invariant, \
    check_equation_invariance, rank_and_count
from liesym.jet import VectorField
from liesym.liedet import lie_determinant, singular_equations
from liesym.linear_ode import (
    CharSpec,
    char_spec_coeffs,
    coeffs_from_solutions,
    prop1_symmetries,
)
from liesym.numeric import DEFAULT_PROBE, ProbeConfig, ZeroStatus, is_zero
from liesym.parse import Context, parse_expression, parse_vector_field

from linear_ode_helpers import coeffs_from_roots
from cramer_oracle import cramer_coeffs, fraction_det, vandermonde_det, vandermonde_matrix

RECORDS = load_catalog()
STANDARD = ProbeConfig(points=20, digits=50, seed=42)
# sha256 of the seed-42 report of criterion 2, serialised with sort_keys and
# without `elapsed_ms`.  A change that alters any verdict, note or witness
# must re-pin this and say why.  Last re-pinned when the exact tier's
# class rule (`numeric.sum_of_classes`) began to prove a sum with exactly
# one nonzero class nonzero: the `(25,n+1)` `generator_probe` `probe1 r=1`
# verdicts with a witness at n = 3 and n = 6 read ExactNonzero instead of
# ProbablyNonzero; every pass, witness, magnitude and point count is
# unchanged.
REPORT_SHA256 = "86a7f0f4c1d03936550104e8b29fcfc1b8dc3bb04e73b39373ecab50b963c1ab"
X = E.indep().as_expr()
Y = E.dep().as_expr()


def J(k):
    return E.jet(k).as_expr()


def announce(num, passed, text):
    print(f"[criterion {num}] {'PASS' if passed else 'FAIL'} - {text}")


def _matches_up_to_sign(det, template):
    plus = is_zero(det - template, DEFAULT_PROBE)
    if plus.status == ZeroStatus.EXACT_ZERO:
        return True
    return is_zero(det + template, DEFAULT_PROBE).status == ZeroStatus.EXACT_ZERO


def test_criterion_1_lie_determinant_exactness():
    t0 = time.monotonic()
    ctx = Context(params={"alpha": None})

    def det_of(label, n, params=None):
        con = instantiate(find_record(RECORDS, label), n=n, params=params)
        return lie_determinant(con.fields).determinant

    # weighted scaling family: factprod(n-1)*(alpha-n)*y^(n)
    for n in (4, 6):
        for alpha in (F(7), F(n), F(n - 2)):
            det = det_of("(24,n+2)", n, {"alpha": alpha})
            tmpl = parse_expression(
                f"factprod({n-1})*({alpha} - {n})*y^({n})", ctx)
            assert _matches_up_to_sign(det, tmpl), (n, alpha)
    # inhomogeneous scaling: the constant factprod(n)
    for n in (3, 5):
        det = det_of("(25,n+2)", n)
        tmpl = parse_expression(f"factprod({n})", ctx)
        assert _matches_up_to_sign(det, tmpl), n
    # two scalings: factprod(n-2)*y^(n-1)*y^(n)
    for n in (4, 6):
        det = det_of("(26,n+2)", n)
        tmpl = parse_expression(f"factprod({n-2})*y^({n-1})*y^({n})", ctx)
        assert _matches_up_to_sign(det, tmpl), n
    # projective pair: factprod(n-2)*n^2*(y^(n-1))^2
    for n in (4, 6):
        det = det_of("(27,n+2)", n)
        tmpl = parse_expression(f"factprod({n-2})*{n}^2*(y^({n-1}))^2", ctx)
        assert _matches_up_to_sign(det, tmpl), n
    # five-dimensional unimodular algebra: the determinant of the stated
    # matrix is exactly 9*y''^3 (the companion sub-test certifies the
    # tabulated square as a misprint)
    det55 = det_of("(5,5)", 5)
    assert is_zero(det55 - 9 * J(2) ** 3, DEFAULT_PROBE).status == ZeroStatus.EXACT_ZERO
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"criterion 1 runtime {elapsed:.1f}s"
    announce(1, True, f"closed-form determinants exact (up to row parity) in {elapsed:.1f}s")


def _tabulated_5_5_rows(x, y, y1, y2, y3):
    """The stated generator matrix of (5,5) at one point, row by row.

    These are the literal tabulated rows of Dx, Dy, x*Dx - y*Dy, y*Dx, x*Dy
    over the columns (xi, eta, eta1, eta2, eta3); each row is pinned against
    the prolongation in tests/test_jet.py.
    """
    return [
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [x, -y, -2 * y1, -3 * y2, -4 * y3],
        [y, 0, -y1 ** 2, -3 * y1 * y2, -(3 * y2 ** 2 + 4 * y1 * y3)],
        [0, x, 1, 0, 0],
    ]


def _cofactor_det(rows):
    """Determinant by cofactor expansion along the first row."""
    if len(rows) == 1:
        return F(rows[0][0])
    total = F(0)
    for j, a in enumerate(rows[0]):
        if a:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * F(a) * _cofactor_det(minor)
    return total


def test_criterion_1_tabulated_5_5_square_as_stated():
    """The tabulated value 9*y''^2 for the five-dimensional determinant.

    The stated generator matrix is reproduced row by row by the prolongation
    (tests/test_jet.py), and its determinant expands to 9*y''^3: by the
    engine, by cofactor expansion of the tabulated rows at rational points
    below, and by sympy (tests/test_liedet.py).  The tabulated square is
    therefore a source misprint, recorded in the notes of the (5,5) catalog
    record.  The test rejects the square, confirms the cube, and checks that
    both have the same zero set: the singular equation y'' = 0.
    """
    con = instantiate(find_record(RECORDS, "(5,5)"))
    res = lie_determinant(con.fields)
    det = res.determinant
    # the engine value is exactly the cube
    assert is_zero(det - 9 * J(2) ** 3, DEFAULT_PROBE).status == ZeroStatus.EXACT_ZERO
    # the tabulated square is rejected with an exact witness
    square = is_zero(det - 9 * J(2) ** 2, DEFAULT_PROBE)
    assert square.status == ZeroStatus.EXACT_NONZERO, (
        "the engine agrees with the tabulated 9*y''^2, which the stated "
        "generator matrix does not give")
    assert F(square.witness["y''"]) not in (0, 1)
    # same zero set: y'' = 0 is the only root of both the cube and the square
    assert list(res.factors) == [(J(2), 3)]
    eqs = singular_equations(res)
    assert len(eqs) == 1
    assert eqs[0].factor == J(2) and eqs[0].kind == "ode"
    assert eqs[0].equation.order == 2 and eqs[0].equation.rhs.is_zero_expr()
    # oracle independent of the engine: expand the tabulated rows exactly
    rng = random.Random(55)
    separated = 0
    for _ in range(6):
        x, y, y1, y2, y3 = (F(rng.randint(-9, 9), rng.randint(1, 9))
                            for _ in range(5))
        value = _cofactor_det(_tabulated_5_5_rows(x, y, y1, y2, y3))
        assert value == 9 * y2 ** 3, (x, y, y1, y2, y3)
        if y2 not in (0, 1):
            assert value != 9 * y2 ** 2
            separated += 1
    assert separated >= 3
    announce(1, True, "tabulated 9*y''^2 detected as a source misprint; the "
                      "cube 9*y''^3 confirmed by engine and cofactor oracle")


def _digest(report):
    """sha256 of the report without `elapsed_ms`, as REPORT_SHA256 pins it."""
    data = report.to_json()
    for c in data["checks"]:
        c.pop("elapsed_ms")
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def _status_counts(report):
    return Counter(v["status"] for r in report.results for v in r.verdicts
                   if isinstance(v, dict) and "status" in v)


def test_criterion_2_full_catalog_verification():
    t0 = time.monotonic()
    report = run_verification(probe=STANDARD, workers=1)
    single = time.monotonic() - t0
    failures = [r for r in report.results if not r.passed]
    assert not failures, failures[:5]
    assert len({r.record for r in report.results}) == 41
    assert len(report.results) >= 160
    assert single < 600, f"single-worker run took {single:.0f}s"
    assert _digest(report) == REPORT_SHA256
    assert _status_counts(report)["ProbablyZero"] == 0
    t0 = time.monotonic()
    report4 = run_verification(probe=STANDARD, workers=4)
    quad = time.monotonic() - t0
    assert report4.passed
    # the pool's job order must not change the report
    assert _digest(report4) == REPORT_SHA256
    assert quad < 180, f"four-worker run took {quad:.0f}s"
    announce(2, True,
             f"{len(report.results)} checks over 41 records pass "
             f"({single:.0f}s single worker, {quad:.0f}s with 4)")


def test_criterion_3_sl3_quintic():
    con = instantiate(find_record(RECORDS, "(8,8)"))
    assert con.dimension == 8
    rhs = 5 * J(3) * J(4) / J(2) - F(40, 9) * J(3) ** 3 / J(2) ** 2
    eq = OdeEquation(5, rhs)
    verdicts = check_equation_invariance(con.fields, eq, STANDARD)
    assert len(verdicts) == 8
    assert all(v.is_zero for v in verdicts)
    announce(3, True, "all eight projective generators annihilate the quintic")


def test_criterion_4_exceptional_parameter_discrimination():
    ctx = Context(params={"n": None})
    for n in (5, 6):
        rec = find_record(RECORDS, "(26,n+1)")
        extra = VectorField(*parse_vector_field(f"x^2*Dx + {n-3}*x*y*Dy", ctx))
        good = instantiate(rec, n=n, params={"K": F(n, n - 1)})
        vs = check_equation_invariance([extra], good.equations[0].equation, STANDARD)
        assert all(v.is_zero for v in vs), ("(26)", n)
        bad = instantiate(rec, n=n, params={"K": 1})
        vs = check_equation_invariance([extra], bad.equations[0].equation, STANDARD)
        assert all(not v.is_zero for v in vs)
        assert all(v.witness is not None for v in vs), "witness must be logged"
        rec27 = find_record(RECORDS, "(27,n+1)")
        ydy = VectorField(E.ZERO, Y)
        good = instantiate(rec27, n=n, params={"K": 0})
        vs = check_equation_invariance([ydy], good.equations[0].equation, STANDARD)
        assert all(v.is_zero for v in vs), ("(27)", n)
        bad = instantiate(rec27, n=n, params={"K": 1})
        vs = check_equation_invariance([ydy], bad.equations[0].equation, STANDARD)
        assert all(not v.is_zero for v in vs)
        assert all(v.witness is not None for v in vs)
    announce(4, True, "extra symmetries admitted exactly at the stated values, "
                      "witnesses logged at the generic ones")


def test_criterion_5_vandermonde_cramer_lemmas():
    t0 = time.monotonic()
    rng = random.Random(20240510)
    done = 0
    sizes = [2, 3, 4, 5, 6]
    while done < 20:
        size = sizes[done % len(sizes)]
        roots = set()
        while len(roots) < size:
            roots.add(F(rng.randint(-12, 12), rng.randint(1, 9)))
        roots = sorted(roots)
        n = len(roots)
        V = vandermonde_matrix(roots)
        assert vandermonde_det(roots) == fraction_det(V)
        A = coeffs_from_roots(roots)
        assert A == cramer_coeffs(roots)
        B = [r ** n for r in roots]
        fn = [row[:-1] + [b] for row, b in zip(V, B)]
        assert fraction_det(fn) == A[-1] * fraction_det(V)
        done += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 5, f"criterion 5 runtime {elapsed:.1f}s"
    announce(5, True, f"20 root sets: product, symmetric and Cramer routes agree "
                      f"exactly in {elapsed:.2f}s")


def test_criterion_6_prop1_round_trip():
    exp_x = E.transcendental("exp", X)
    sin_x = E.transcendental("sin", X)
    cos_x = E.transcendental("cos", X)
    cases = [
        ([X ** 2, X ** 3], 4, 2, None),
        ([exp_x], 2, 1, CharSpec(real_roots=(0, 1))),
        ([sin_x, cos_x, X], 4, 1, None),
        ([X ** 2, X ** 3, exp_x], 5, 2, None),
        ([sin_x, cos_x, exp_x], 4, 1,
         CharSpec(real_roots=(0, 1), complex_pairs=((0, 1),))),
    ]
    for xis, order, lowest, spec in cases:
        A = coeffs_from_solutions(xis, order, lowest)
        rhs = E.ZERO
        for i, c in enumerate(A, start=lowest):
            rhs = rhs + c * E.jet_or_dep(i).as_expr()
        eq = OdeEquation(order, rhs)
        fields = prop1_symmetries(xis, lowest)
        verdicts = check_equation_invariance(fields, eq, STANDARD)
        assert all(v.is_zero for v in verdicts), (xis, order)
        if spec is not None:
            want = char_spec_coeffs(spec)
            got = [c.as_rational() for c in A]
            assert got == want[lowest:], (got, want)
    announce(6, True, "five solution sets recovered and certified; constant "
                      "cases match the root construction exactly")


def test_criterion_7_counting_formula():
    dx = VectorField(E.ONE, E.ZERO)
    dy = VectorField(E.ZERO, E.ONE)
    assert rank_and_count([dx], 0, STANDARD).count_dn == 1
    assert rank_and_count([dx, dy], 0, STANDARD).count_dn == 0
    assert rank_and_count([dx, dy], 1, STANDARD).count_dn == 1
    targets = [("(5,5)", [5]), ("(15,5)", [5]), ("(6,6)", [5]),
               ("(16,6)", [5]), ("(7,6)", [5]),
               ("(24,n)", [4, 7]), ("(25,n)", [4, 7]), ("(26,n)", [5, 8]),
               ("(27,n)", [5, 8]), ("(28,n)", [6, 9])]
    for label, ns in targets:
        rec = find_record(RECORDS, label)
        for n in ns:
            con = instantiate(rec, n=n)
            m = con.dimension
            r1 = rank_and_count(con.fields, m - 1, STANDARD)
            r2 = rank_and_count(con.fields, m, STANDARD)
            assert (r1.count_dn, r2.count_dn) == (1, 2), (label, n)
    announce(7, True, "d counts reproduce the worked examples and the "
                      "fundamental pattern for ten algebras")


def test_criterion_8_appendix_stress():
    t0 = time.monotonic()
    probe = ProbeConfig(points=30, digits=60, seed=42)
    labels = ["(1,3)", "(2,3)", "(3,3)", "(11,3)", "(17,3)",
              "(7,6)", "(16,6)", "(8,8)"]
    checked = 0
    for label in labels:
        con = instantiate(find_record(RECORDS, label))
        for order, phi in con.invariants:
            verdicts = check_differential_invariant(con.fields, phi, probe)
            assert all(v.is_zero for v in verdicts), (label, order)
            for v in verdicts:
                if v.status == ZeroStatus.PROBABLY_ZERO:
                    assert v.points_tested == 30 and v.precision_digits == 60
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 180, f"criterion 8 runtime {elapsed:.0f}s"
    announce(8, True, f"{checked} appendix invariants annihilated at 30 points "
                      f"and 60 digits in {elapsed:.0f}s")


def test_default_seed_report_proves_every_zero():
    # every verdict of the default-seed report is a proof: the nonzero ones
    # carry the probe's witness
    counts = _status_counts(run_verification(workers=1))
    assert counts["ProbablyZero"] == 0
    assert (counts["ExactZero"], counts["ExactNonzero"], counts["ProbablyNonzero"]) == (1359, 6, 0)


def test_criterion_9_report_determinism():
    def run_once(path):
        proc = subprocess.run(
            [sys.executable, "-m", "liesym.cli", "verify", "--seed", "42",
             "--points", "8", "--out", str(path)],
            capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr[-2000:]
        report = json.loads(path.read_text())
        for c in report["checks"]:
            c.pop("elapsed_ms", None)
        return json.dumps(report, sort_keys=True)

    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        a = run_once(Path(tmp) / "a.json")
        b = run_once(Path(tmp) / "b.json")
    assert a == b
    announce(9, True, "two seeded runs emit byte-identical reports "
                      "apart from timing fields")
