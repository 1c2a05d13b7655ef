"""Lie determinants: exact values, factor extraction, singular equations."""

import hashlib
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from liesym import expr as E
from liesym import harness, poly
from liesym.catalog import default_order, find_record, instantiate, load_catalog, secondary_order
from liesym.invariance import _integer_rank, bareiss, coefficient_matrix
from liesym.jet import VectorField
from liesym.liedet import (
    determinant,
    eliminate,
    factor_polynomial,
    lie_determinant,
    singular_equations,
)
from liesym.linear_ode import DependentSolutions, cramer
from liesym.numeric import ProbeConfig, is_zero
from liesym.parse import Context, parse_expression
from liesym.poly import WIDTH, Ring
from cramer_oracle import cramer_solve
from dense_oracle import ref_dense_div_exact, ref_dense_mul
from eval_oracle import ref_eval_exact
from linear_ode_helpers import exact_quotient
from rank_oracle import rank_at_point
import rule_oracle
from sympy_oracle import to_sympy

X = E.indep().as_expr()
Y = E.dep().as_expr()
PR = ProbeConfig(points=8, digits=50, seed=3)
DX = VectorField(E.ONE, E.ZERO)
DY = VectorField(E.ZERO, E.ONE)


def J(k):
    return E.jet(k).as_expr()


def chain(*powers):
    return [VectorField(E.ZERO, X ** k) for k in powers]


def test_two_translations_unit_determinant():
    res = lie_determinant([DX, DY])
    assert res.determinant == E.ONE


def test_five_dim_unimodular_determinant():
    gens = [DX, DY, VectorField(X, -Y), VectorField(Y, E.ZERO), VectorField(E.ZERO, X)]
    res = lie_determinant(gens)
    assert res.determinant == 9 * J(2) ** 3
    assert res.constant_prefactor.as_rational() == 9
    assert [(f, m) for f, m in res.factors] == [(J(2), 3)]
    eqs = singular_equations(res)
    assert len(eqs) == 1 and eqs[0].equation.order == 2
    assert eqs[0].equation.rhs.is_zero_expr()


def test_five_dim_unimodular_determinant_sympy_oracle():
    # an oracle outside liesym: prolong (xi, eta) by
    # eta_k = D(eta_{k-1}) - y_k*D(xi) and take the 5x5 determinant
    sympy = pytest.importorskip("sympy")
    x, y, y1, y2, y3, y4 = sympy.symbols("x y y1 y2 y3 y4")
    jets = [y, y1, y2, y3, y4]

    def total_d(f):
        return sympy.diff(f, x) + sum(
            jets[k + 1] * sympy.diff(f, jets[k]) for k in range(4))

    gens = [(1, 0), (0, 1), (x, -y), (y, 0), (0, x)]  # Dx, Dy, xDx-yDy, yDx, xDy
    rows = []
    for xi, eta in gens:
        xi, eta = sympy.sympify(xi), sympy.sympify(eta)
        row = [xi, eta]
        for k in range(1, 4):
            row.append(sympy.expand(total_d(row[-1]) - jets[k] * total_d(xi)))
        rows.append(row)
    det = sympy.factor(sympy.Matrix(rows).det())
    assert det == 9 * y2 ** 3
    assert sympy.expand(det - 9 * y2 ** 2) != 0  # the tabulated square


def test_scaling_family_determinant_symbolic_weight():
    al = E.param("alpha").as_expr()
    gens = [DX, DY, VectorField(X, al * Y)] + chain(1, 2, 3)
    res = lie_determinant(gens)
    want = 12 * (al - 4) * J(4)
    assert (res.determinant - want).is_zero_expr() or \
        (res.determinant + want).is_zero_expr()
    # the weight condition shows up as a parameter factor
    kinds = {s.kind for s in singular_equations(res)}
    assert "parameter" in kinds and any(
        s.equation is not None and s.equation.order == 4
        for s in singular_equations(res))


def test_parameter_kind_needs_every_atom_a_parameter():
    # a factor without y or jets is a parameter condition only when it holds
    # nothing but parameters; x^(1/2), x and sin(x) are implicit
    al = E.param("alpha").as_expr()
    for coeff, want in [(X ** F(1, 2), [("implicit", X ** F(1, 2))]),
                        ((al - 2) * E.transcendental("sin", X),
                         [("parameter", al - 2), ("implicit", E.transcendental("sin", X))]),
                        (E.transcendental("arctan", al) * X,
                         [("implicit", X), ("parameter", E.transcendental("arctan", al))])]:
        res = lie_determinant([VectorField(E.ZERO, coeff), DX])
        assert [(s.kind, s.factor) for s in singular_equations(res)] == want
    # the x factor of the (2,3) Lie determinant at its default order
    rec = find_record(load_catalog(), "(2,3)")
    eqs = singular_equations(lie_determinant(instantiate(rec).fields))
    assert [s.kind for s in eqs if s.factor == X] == ["implicit"]


def test_factors_that_vanish_nowhere_are_no_singular_locus():
    # exp(...) monomials and the constant cos(x)^2 + sin(x)^2 are factors of
    # the determinant with an empty zero set; exp(x) + y and sin(x) are not
    ex, c, s = (E.transcendental(fn, X) for fn in ("exp", "cos", "sin"))
    al = E.param("alpha").as_expr()
    for coeff in (ex, ex ** 2 * E.transcendental("exp", al), c * c + s * s):
        res = lie_determinant([VectorField(E.ZERO, coeff), DX])
        assert res.factors and singular_equations(res) == []
    res = lie_determinant([VectorField(E.ZERO, (ex + Y) * s), DX])
    assert sorted(str(e.factor) for e in singular_equations(res)) == ["sin(x)", "y + exp(x)"]
    # the catalog records whose determinants hold such factors
    for label, n in (("(22,n)", 6), ("(23,n)", None), ("(23,n+2)", 3), ("(23,n+2)", 6)):
        rec = find_record(load_catalog(), label)
        con = instantiate(rec) if n is None else instantiate(rec, n=n)
        res = lie_determinant(con.fields)
        assert all(e.kind == "ode" for e in singular_equations(res)), label


def test_inhomogeneous_scaling_constant_determinant():
    # with the weight pinned to the chain length the determinant collapses
    gens = [DX, DY] + chain(1, 2) + \
        [VectorField(X, 3 * Y + X ** 3)]
    res = lie_determinant(gens)
    assert res.determinant.is_rational_const()
    assert abs(res.determinant.as_rational()) == 12
    assert singular_equations(res) == []


def test_two_scalings_two_singular_equations():
    gens = [DX, DY, VectorField(X, E.ZERO), VectorField(E.ZERO, Y)] + chain(1, 2, 3)
    res = lie_determinant(gens)
    orders = sorted(s.equation.order for s in singular_equations(res))
    assert orders == [4, 5]
    for s in singular_equations(res):
        assert s.equation.rhs.is_zero_expr()


def test_projective_pair_squared_factor():
    r = F(2)
    gens = [DX, DY, VectorField(2 * X, r * Y), VectorField(X ** 2, r * X * Y)] + chain(1, 2)
    res = lie_determinant(gens)
    want = 32 * J(3) ** 2
    assert (res.determinant - want).is_zero_expr() or \
        (res.determinant + want).is_zero_expr()
    assert any(m == 2 for _f, m in res.factors)


def test_row_swap_flips_sign():
    gens = [DX, DY, VectorField(X, -Y), VectorField(Y, E.ZERO), VectorField(E.ZERO, X)]
    swapped = [gens[1], gens[0]] + gens[2:]
    a = lie_determinant(gens).determinant
    b = lie_determinant(swapped).determinant
    assert (a + b).is_zero_expr()


def test_factor_reassembly_identity():
    gens = [DX, DY, VectorField(X, E.ZERO), VectorField(E.ZERO, Y),
            VectorField(X ** 2, E.ZERO)]
    res = lie_determinant(gens)
    assert (res.reassembled() - res.determinant).is_zero_expr()


def test_factors_are_sorted_by_key_on_every_path():
    # a monomial (no factor left after the monomial part), a top-jet content,
    # a perfect power and an irreducible rest, each with opaque slots
    al = E.param("alpha").as_expr()
    half = (1 + X ** 2) ** F(1, 2)
    for e in (-3 * J(2) ** 3 * X * half * al ** 2, (1 + Y ** 2) * (J(1) + X) * half,
              (J(1) + Y) ** 4 * X ** F(1, 3), 2 * J(1) + Y * al + half):
        content, factors = factor_polynomial(e)
        assert [f._key for f, _m in factors] == sorted(f._key for f, _m in factors), e
        assert (math.prod((f.pow(m) for f, m in factors), start=E.Expr.rational(content)) - e
                ).is_zero_expr(), e


def test_non_polynomial_entries_fallback():
    half = VectorField(X ** F(5, 2), E.ZERO)
    res = lie_determinant([DX, DY, half])
    assert res.non_polynomial
    assert (res.reassembled() - res.determinant).is_zero_expr()
    assert not res.determinant.is_zero_expr()


def cofactor_determinant(matrix):
    """Reference determinant by cofactor (Laplace) expansion along the first
    row, memoized on the remaining columns; it divides nothing, so it holds
    for entries of any kind."""
    m = len(matrix)
    memo = {}

    def minor(k, cols):
        if k == m:
            return E.ONE
        if (k, cols) not in memo:
            total = E.ZERO
            for idx, j in enumerate(cols):
                if matrix[k][j].is_zero_expr():
                    continue
                piece = matrix[k][j] * minor(k + 1, cols[:idx] + cols[idx + 1:])
                total = total + piece if idx % 2 == 0 else total - piece
            memo[(k, cols)] = total
        return memo[(k, cols)]

    return minor(0, tuple(range(m)))


@pytest.mark.parametrize("e", [(1 << WIDTH - 1) - 2, (1 << WIDTH - 1) - 1, 1 << WIDTH - 1,
                               (1 << WIDTH) - 1, 1 << WIDTH, (1 << WIDTH) + 1, (1 << WIDTH) + 2])
def test_slot_width_guard_on_the_lie_path(e):
    # the Bareiss products of this matrix double its exponents, past 2^W:
    # the ring is widened for them, and the determinant is the cofactor one
    matrix = [[X ** e, Y, E.ONE], [Y, X ** e, X], [E.ONE, X, Y ** e + X]]
    assert determinant(matrix) == cofactor_determinant(matrix)
    assert exact_quotient(determinant(matrix) * X ** e, X ** e) == determinant(matrix)
    assert factor_polynomial(X ** e * (1 + Y) ** 2) == (1, [(1 + Y, 2), (X, e)])


def _non_polynomial_generator_sets():
    exp_x = E.transcendental("exp", X)
    sin_x = E.transcendental("sin", X)
    return [
        # fractional powers of atoms
        [DX, DY, VectorField(X, Y ** F(1, 3)), VectorField(E.ZERO, X ** F(1, 2))],
        [DX, DY, VectorField(X ** F(3, 2), Y), VectorField(X * Y ** F(1, 2), X ** F(5, 3))],
        # negative powers of compound bases
        [DX, DY, VectorField((1 + X ** 2).pow(-1), Y),
         VectorField(E.ZERO, (X + Y).pow(-2))],
        [DY, VectorField(X, 2 * Y), VectorField((1 + Y ** 2).pow(F(-1, 2)), X),
         VectorField(E.ZERO, (1 + X).pow(-1) + Y)],
        # exp and sin entries
        [DX, VectorField(E.ZERO, exp_x), VectorField(E.ZERO, sin_x),
         VectorField(E.ZERO, X * exp_x), VectorField(Y, exp_x * sin_x)],
        # all kinds together
        [DX, DY, VectorField(sin_x, Y ** F(1, 2)), VectorField(E.ZERO, (1 + exp_x).pow(-1)),
         VectorField(X ** F(2, 3), E.ZERO)],
    ]


@pytest.mark.parametrize("case", range(6))
def test_bareiss_matches_cofactor_expansion_off_polynomials(case):
    gens = _non_polynomial_generator_sets()[case]
    matrix = coefficient_matrix(gens, len(gens) - 2)
    res = lie_determinant(gens)
    assert res.non_polynomial
    assert res.determinant == determinant(matrix)
    assert is_zero(res.determinant - cofactor_determinant(matrix), PR).is_zero
    assert (res.reassembled() - res.determinant).is_zero_expr()


_COEFFS = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=7)).filter(bool)
_TERMS = st.lists(st.tuples(_COEFFS, st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=3)
_ENTRIES = st.one_of(st.just(E.ZERO), _COEFFS.map(E.Expr.rational),
                     _TERMS.map(lambda ts: E.expr_sum([c * X ** i * Y ** j for c, i, j in ts])))
_POINTS = [{E.indep(): F(2, 3), E.dep(): F(-5, 7)}, {E.indep(): F(-3), E.dep(): F(11, 2)},
           {E.indep(): F(7, 5), E.dep(): F(13)}]


@st.composite
def _augmented_matrices(draw):
    """The rows [M | b] of an n x n system in x and y, n <= 4: zero, constant
    and multi-term entries, and often a singular M, with one row a multiple
    of another or a zero column."""
    n = draw(st.integers(1, 4))
    rows = [[draw(_ENTRIES) for _ in range(n + 1)] for _ in range(n)]
    kind = draw(st.sampled_from(["any", "multiple", "zero column"]))
    if kind == "multiple" and n > 1:
        i, j = draw(st.permutations(range(n)))[:2]
        c = E.Expr.rational(draw(_COEFFS))
        rows[i][:n] = [c * e for e in rows[j][:n]]
    elif kind == "zero column":
        k = draw(st.integers(0, n - 1))
        for row in rows:
            row[k] = E.ZERO
    return rows


@given(_augmented_matrices())
def test_pivot_rule_keeps_the_determinant_and_the_cramer_solution(rows):
    # whichever rows the sparsest-entry pivots come from: the determinant is
    # the cofactor expansion's, and the Cramer solution, at a rational point
    # where det(M) is not zero, is the rational Cramer oracle's there
    n = len(rows)
    square = [row[:n] for row in rows]
    det = determinant(square)
    assert det == cofactor_determinant(square)
    if det.is_zero_expr():
        with pytest.raises(DependentSolutions):
            cramer(rows)
        return
    got = cramer(rows)
    for point in _POINTS:
        at = [[ref_eval_exact(e, point) for e in row] for row in rows]
        want = cramer_solve([row[:n] for row in at], [row[n] for row in at])
        if want is not None:
            assert [ref_eval_exact(a, point) for a in got] == want
            return
    pytest.fail(f"det(M) = {det} vanishes at every point")


def test_family_lie_determinants_match_their_closed_forms_up_to_order_12():
    # each open-range family with a stored closed form, at every order from
    # the lower end of its range to 12, past the orders the report checks:
    # the determinant is that form times the sign of the row order
    checked = []
    for rec in load_catalog():
        lo, hi = rec.data.get("n_range", [1, None])
        for n in range(lo, 13) if hi is None else ():
            con = instantiate(rec, n=n)
            if con.lie_det_expected is not None:
                det = lie_determinant(con.fields).determinant
                assert det in (con.lie_det_expected, -con.lie_det_expected), (rec.label, n)
                checked.append(rec.label)
    assert len(checked) == 51 and len(set(checked)) == 5


def test_the_28_lie_matrix_eliminates_with_no_general_product_or_division(monkeypatch):
    # every product and every division of the (28,n+2) elimination at n = 9
    # has a one-term operand, as its sparsest pivots are terms: none runs
    # the general product `mac` or the general division, which calls
    # `Ring.quotient` at each step (a constant divisor among them)
    fields = instantiate(find_record(load_catalog(), "(28,n+2)"), n=9).fields
    matrix = coefficient_matrix(fields, 9)
    want = cofactor_determinant(matrix)
    calls = []
    real_mac, real_quotient = poly.mac, Ring.quotient
    monkeypatch.setattr(poly, "mac", lambda *a: calls.append("mac") or real_mac(*a))
    monkeypatch.setattr(Ring, "quotient", lambda ring, a, b: calls.append(
        "division by a constant" if b == 0 else "division") or real_quotient(ring, a, b))
    assert determinant(matrix) == want
    assert calls == []


def test_lie_det_rows_search_no_witness_for_a_decided_difference(monkeypatch):
    # the stored form and the expected singular factors of every catalog Lie
    # row are compared by the exact tier alone: no probe runs, and the sign
    # each row notes is the one is_zero gives
    cons = _catalog_lie_det_instantiations()
    probed = []
    monkeypatch.setattr(harness, "is_zero", lambda e, probe: probed.append(e) or is_zero(e, probe))
    for con in cons:
        passed, _verdicts, detail, *_equations = harness._lie_det(con, PR)
        assert passed, (con.label, detail)
        if con.lie_det_expected is not None:
            det = lie_determinant(con.fields).determinant
            sign = "+" if is_zero(det - con.lie_det_expected, PR).is_zero else "-"
            assert detail == f"sign {sign}", con.label
    assert probed == []


def _catalog_lie_fields():
    """(label, n, fields) of every catalog record with m >= 2 fields, at
    default and secondary order."""
    out = []
    for rec in load_catalog():
        for n in (default_order(rec), secondary_order(rec)):
            if n is not None:
                fields = instantiate(rec, n=n).fields
                if len(fields) >= 2:
                    out.append((rec.label, n, fields))
    return out


def _catalog_lie_matrices():
    """The coefficient matrix at order m-2 of each of `_catalog_lie_fields`."""
    return [(label, n, coefficient_matrix(fields, len(fields) - 2))
            for label, n, fields in _catalog_lie_fields()]


# sha256 of every output below over the 63 catalog Lie matrices; a change of
# monomial order, such as the order of the indeterminates, moves the sign of
# the content or the order of the factors, and so this digest
LIE_OUTPUTS_SHA256 = "976d932afe42709eb19e5e0728345967040ff24a6b72abda0a851343beec2281"


def test_catalog_lie_outputs_are_pinned():
    # the determinant, the constant prefactor, the factors and the singular
    # equations (kind, factor, rhs) of every catalog Lie matrix, as strings
    lines = []
    for label, n, fields in _catalog_lie_fields():
        res = lie_determinant(fields)
        lines.append(" | ".join([
            label, str(n), str(res.determinant), str(res.constant_prefactor),
            "; ".join(f"{f}^{m}" for f, m in res.factors),
            "; ".join(f"{s.kind}:{s.factor}:{s.equation.rhs if s.equation else ''}"
                      for s in singular_equations(res))]))
    assert len(lines) == 63
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == LIE_OUTPUTS_SHA256


def test_singular_catalog_matrices_stop_at_the_first_column_without_a_pivot():
    # 7 of the 63 catalog Lie matrices are singular: the elimination stops at
    # its first column without a pivot, with sign 0, and the determinant is 0,
    # as the cofactor expansion says; the rank still skips such a column
    mats = _catalog_lie_matrices()
    assert len(mats) == 63
    singular = [(label, n, m) for label, n, m in mats if cofactor_determinant(m).is_zero_expr()]
    assert [(label, n) for label, n, _m in singular] == [
        ("(11,3)", 4), ("(21,n+1)", 4), ("(21,n+1)", 7), ("(10,2)", 3), ("(10,2)", 6),
        ("(20,2)", 3), ("(20,2)", 6)]
    for label, n, matrix in singular:
        _a, sign, _vars = eliminate(matrix)
        assert sign == 0, (label, n)
        assert determinant(matrix) == E.ZERO, (label, n)
    assert bareiss([[0, 1], [0, 2]], 1, False) == (0, 0)
    assert bareiss([[0, 1], [0, 2]], 1, True) == (1, 1)
    assert _integer_rank([[F(0), F(1)], [F(0), F(0)]]) == 1


def test_graded_ring_slots_and_width_match_the_oracle_on_catalog_matrices():
    # Ring.of collects its slot keys and reads each entry's `poly.degree`:
    # the same slots, in the same order, and the same width as the one-pass
    # loop it replaced
    mats = _catalog_lie_matrices()
    assert len(mats) == 63
    for label, n, matrix in mats:
        entries = [e for row in matrix for e in row]
        ring = Ring.of(entries, 2 * len(matrix))
        assert (ring.index, ring.W) == rule_oracle.ring_of(entries, 2 * len(matrix)), (label, n)


def test_perfect_powers_with_large_coefficients():
    # roots of the monic polynomial are taken in exact rationals, not floats
    big = 10 ** 200 * J(1) + 1
    assert factor_polynomial(big ** 2) == (1, [(big, 2)])
    cube = (3 ** 40 + 1) * J(1) + 1
    assert factor_polynomial(cube ** 3) == (1, [(cube, 3)])
    assert factor_polynomial(F(1, 3 ** 60) * cube ** 3) == (F(1, 3 ** 60), [(cube, 3)])


def test_perfect_powers_are_reduced_fully():
    # every exponent k >= 2 that divides the degree is tried, least first,
    # with no cap, and the root is factored again
    base = 1 + J(1)
    for k in (9, 10, 11):
        assert factor_polynomial(base ** k) == (1, [(base, k)])


def test_top_jet_content_splits_the_3_3_determinant():
    # the stored closed form -(1 + x^2 + y^2)^2*(1 + y'^2): the coefficients
    # of 1 and y'^2 share the square of 1 + x^2 + y^2
    fields = instantiate(find_record(load_catalog(), "(3,3)"), n=4).fields
    assert factor_polynomial(lie_determinant(fields).determinant) == (
        -1, [(1 + X ** 2 + Y ** 2, 2), (1 + J(1) ** 2, 1)])


def test_factor_multiplicities_sympy_oracle():
    # every irreducible factor of a returned (g, k) has multiplicity exactly k
    # in the determinant, over the catalog Lie determinants in Q[atoms]
    sympy = pytest.importorskip("sympy")
    checked = 0
    for label, n, matrix in _catalog_lie_matrices():
        det = determinant(matrix)
        if det.is_zero_expr() or not E.is_polynomial(det):
            continue
        want = dict(sympy.factor_list(to_sympy(sympy, det))[1])
        for g, k in factor_polynomial(det)[1]:
            for h, _m in sympy.factor_list(to_sympy(sympy, g))[1]:
                assert want.get(h, want.get(-h)) == k, (label, n, g)
        checked += 1
    assert checked == 50


def _catalog_lie_det_instantiations():
    out = []
    for rec in load_catalog():
        for n in (default_order(rec), secondary_order(rec)):
            if n is None:
                continue
            con = instantiate(rec, n=n)
            if con.lie_det_expected is not None or con.singular_factors:
                out.append(con)
    return out


def test_catalog_determinants_sympy_oracle():
    # every catalog Lie determinant, at default and secondary order, against
    # sympy's determinant of the matrix that sympy prolongs from (xi, eta)
    sympy = pytest.importorskip("sympy")
    cons = _catalog_lie_det_instantiations()
    assert len(cons) == 23
    for con in cons:
        order = len(con.fields) - 2
        x = sympy.Symbol("x")
        jets = [sympy.Symbol(E.atom_name(E.jet_or_dep(k))) for k in range(order + 2)]

        def total_d(f):
            return sympy.diff(f, x) + sum(
                jets[k + 1] * sympy.diff(f, jets[k]) for k in range(order + 1))

        rows = []
        for X_ in con.fields:
            xi, eta = to_sympy(sympy, X_.xi), to_sympy(sympy, X_.eta)
            row = [xi, eta]
            for k in range(1, order + 1):
                row.append(sympy.expand(total_d(row[-1]) - jets[k] * total_d(xi)))
            rows.append(row)
        want = sympy.Matrix(rows).det(method="bareiss")
        got = lie_determinant(con.fields).determinant
        assert sympy.expand(want - to_sympy(sympy, got)) == 0, con.label


def _assert_exact_numbers(e):
    """Every coefficient and exponent of e, inside compound bases and call
    arguments too, is an int when integral and a Fraction otherwise."""
    subs = [e] + [b for b, _ in E.walk_bases(e) if isinstance(b, E.Expr)] \
        + [b.arg for b, _ in E.walk_bases(e) if isinstance(b, E.Atom) and b.kind == "transc"]
    for sub in subs:
        for mono, c in sub.terms:
            for q in [c] + [ex for _b, ex in mono]:
                assert type(q) is (int if q.denominator == 1 else F), (sub, q)


def test_catalog_determinants_have_exact_coefficients():
    # no float reaches a coefficient through an int / int division
    for con in _catalog_lie_det_instantiations():
        det = determinant(coefficient_matrix(con.fields, len(con.fields) - 2))
        _assert_exact_numbers(det)
        prefactor, factors = factor_polynomial(det)
        assert type(prefactor) is F
        for f, m in factors:
            _assert_exact_numbers(f)
            quot = exact_quotient(det, f.pow(m))
            assert quot is not None, con.label
            _assert_exact_numbers(quot)


def test_composite_square_factor_split():
    ctx = Context()
    f = parse_expression("(1 + y'^2)*((1 + y'^2)*y''' - 3*y'*y''^2)^2", ctx)
    content, factors = factor_polynomial(f)
    mults = sorted(m for _f, m in factors)
    assert mults == [1, 2]


def test_singular_equation_is_invariant_and_rank_drops():
    gens = [DX, DY, VectorField(X, -Y), VectorField(Y, E.ZERO), VectorField(E.ZERO, X)]
    res = lie_determinant(gens)
    eq = singular_equations(res)[0].equation
    from liesym.invariance import check_equation_invariance

    vs = check_equation_invariance(gens, eq, PR)
    assert all(v.is_zero for v in vs)
    matrix = coefficient_matrix(gens, 3)
    on_locus = {E.indep(): F(1), E.dep(): F(1), E.jet(1): F(1),
                E.jet(2): F(0), E.jet(3): F(1, 2)}
    assert rank_at_point(matrix, on_locus) < 5


def test_degenerate_input_rejected():
    with pytest.raises(ValueError):
        lie_determinant([DX])


def _packing(nvars, graded):
    """(pack, unpack) between {exponent tuple: coefficient} and the ring over
    nvars slots with the first exponent in the highest slot."""
    ring = Ring({(i, 1): nvars - 1 - i for i in reversed(range(nvars))}, WIDTH, graded)

    def pack(d):
        return ring.poly({sum(k * ring.unit((i, 1)) for i, k in enumerate(exps)): c
                          for exps, c in d.items()})

    def unpack(p):
        return {tuple(reversed(ring.exponents(m))): c for m, c in p.items()}

    return pack, unpack


@st.composite
def _dense_pairs(draw):
    """(a, b) polynomials as {exponent tuple: coefficient} in up to 3
    variables, b nonzero."""
    nvars = draw(st.integers(0, 3))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    a = draw(st.dictionaries(exps, _COEFFS, max_size=4))
    b = draw(st.dictionaries(exps, _COEFFS, min_size=1, max_size=4))
    return nvars, a, b


@given(_dense_pairs())
def test_dense_division_matches_the_copying_grlex_division(pair):
    nvars, a, b = pair
    pack, unpack = _packing(nvars, True)
    a = {e: c.numerator if c.denominator == 1 else c for e, c in a.items()}
    p = pack(a) * pack(b)
    assert unpack(p) == ref_dense_mul(a, b)
    quot = p // pack(b)
    assert unpack(quot) == a == ref_dense_div_exact(ref_dense_mul(a, b), b)
    assert all(type(c) is int or c.denominator > 1 for c in quot.values())
    assert unpack(p) == ref_dense_mul(a, b)  # the dividend is left as it was
    with pytest.raises(ZeroDivisionError):
        p // pack({})
    if any(map(any, b)):  # b is not a constant, so it divides no p + constant
        const = (0,) * nvars
        inexact = {e: c for e, c in {**unpack(p), const: unpack(p).get(const, 0) + 1}.items() if c}
        with pytest.raises(E.ExprError):
            pack(inexact) // pack(b)
        with pytest.raises(E.ExprError):
            ref_dense_div_exact(inexact, b)


@given(_dense_pairs(), st.integers(2, 4))
def test_ring_root_matches_the_oracle_power(pair, k):
    # a monic r (its graded-lex leading coefficient 1): the ring's k-th root
    # of r^k is r, and a non-constant r^k plus 1 has no k-th root
    nvars, r, _b = pair
    if not r:
        return
    pack, unpack = _packing(nvars, True)
    r = {e: c.numerator if c.denominator == 1 else c for e, c in r.items()}
    r[max(r, key=lambda e: (sum(e), e))] = 1
    power = r
    for _ in range(k - 1):
        power = ref_dense_mul(power, r)
    assert unpack(pack(power).root(k)) == r
    if any(map(any, r)):
        const = (0,) * nvars
        shifted = {e: c for e, c in {**power, const: power.get(const, 0) + 1}.items() if c}
        assert pack(shifted).root(k) is None


@given(st.integers(1, 4), st.data())
def test_max_packed_key_is_the_leading_term(nvars, data):
    # with every exponent below 2^(W-1), int order is lex order with the
    # first exponent most significant, and graded lex with the degree slot
    exps = data.draw(st.lists(st.tuples(*[st.integers(0, (1 << WIDTH - 1) - 1)] * nvars),
                              min_size=1, max_size=6, unique=True))
    for graded, key in ((False, None), (True, lambda e: (sum(e), e))):
        pack, unpack = _packing(nvars, graded)
        packed = pack({e: 1 for e in exps})
        assert unpack({max(packed): 1}) == {max(exps, key=key): 1}
