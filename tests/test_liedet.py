"""Lie determinants: exact values, factor extraction, singular equations."""

from fractions import Fraction as F

import pytest

from liesym import expr as E
from liesym.catalog import default_order, instantiate, load_catalog, secondary_order
from liesym.invariance import coefficient_matrix
from liesym.jet import VectorField
from liesym.liedet import (
    determinant,
    exact_quotient,
    factor_polynomial,
    lie_determinant,
    singular_equations,
)
from liesym.numeric import ProbeConfig, is_zero
from liesym.parse import Context, parse_expression
from rank_oracle import rank_at_point
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


def test_perfect_powers_with_large_coefficients():
    # integer roots are taken exactly, not through a float
    big = 10 ** 200 * J(1) + 1
    assert factor_polynomial(big ** 2) == (1, [(big, 2)])
    cube = (3 ** 40 + 1) * J(1) + 1
    assert factor_polynomial(cube ** 3) == (1, [(cube, 3)])
    assert factor_polynomial(F(1, 3 ** 60) * cube ** 3) == (F(1, 3 ** 60), [(cube, 3)])


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
