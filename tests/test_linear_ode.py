"""Characteristic-root construction and coefficient recovery."""

import random
from fractions import Fraction as F

import pytest

from liesym import expr as E
from liesym import liedet
from liesym.invariance import OdeEquation, check_equation_invariance
from liesym.linear_ode import (
    CharSpec,
    DependentSolutions,
    DuplicateRoots,
    LinearOde,
    coeffs_from_solutions,
    fundamental_solutions,
    homogeneity_symmetry,
    linear_ode_from_spec,
    prop1_symmetries,
    solution_symmetries,
)
from liesym.numeric import ProbeConfig, is_zero
from liesym.poly import WIDTH

from linear_ode_helpers import (
    coeffs_from_roots,
    cramer_by_determinants,
    residual,
    translation_symmetry,
)
from cramer_oracle import cramer_coeffs, fraction_det, vandermonde_det, vandermonde_matrix
from sympy_oracle import to_sympy

X = E.indep().as_expr()
PR = ProbeConfig(points=8, digits=50, seed=21)


def _random_roots(rng, size):
    roots = set()
    while len(roots) < size:
        roots.add(F(rng.randint(-9, 9), rng.randint(1, 7)))
    return sorted(roots)


def test_vandermonde_product_matches_direct_determinant():
    assert vandermonde_det([F(1), F(2), F(3)]) == 2
    assert vandermonde_det([F(1), F(2)]) == 1  # a2 - a1
    rng = random.Random(100)
    for _ in range(10):
        roots = _random_roots(rng, rng.randint(2, 6))
        assert vandermonde_det(roots) == fraction_det(vandermonde_matrix(roots))


def test_coefficients_from_small_root_sets():
    a1, a2 = F(3), F(-2)
    A = coeffs_from_roots([a1, a2])
    assert A == [-(a1 * a2), a1 + a2]
    assert coeffs_from_roots([1, 2, 3]) == [F(6), F(-11), F(6)]


def test_top_coefficient_is_root_sum():
    rng = random.Random(5)
    for _ in range(5):
        roots = _random_roots(rng, 5)
        A = coeffs_from_roots(roots)
        assert A[-1] == sum(roots)


def test_symmetric_formula_agrees_with_cramer():
    rng = random.Random(9)
    for _ in range(20):
        roots = _random_roots(rng, rng.randint(2, 6))
        assert coeffs_from_roots(roots) == cramer_coeffs(roots)


def test_replaced_column_determinant_identity():
    rng = random.Random(42)
    for _ in range(10):
        roots = _random_roots(rng, rng.randint(2, 6))
        n = len(roots)
        V = vandermonde_matrix(roots)
        B = [r ** n for r in roots]
        fn = [row[:-1] + [b] for row, b in zip(V, B)]
        A = coeffs_from_roots(roots)
        assert fraction_det(fn) == A[-1] * fraction_det(V)


def test_duplicate_roots_rejected():
    with pytest.raises(DuplicateRoots):
        coeffs_from_roots([1, 1, 2])
    with pytest.raises(DuplicateRoots):
        CharSpec(real_roots=(1, 1))
    with pytest.raises(ValueError):
        CharSpec(complex_pairs=((1, 0),))


def test_roots_closer_than_float_resolution_are_distinct():
    a, b = F(1, 3), F(1, 3) + F(1, 10 ** 30)
    assert coeffs_from_roots([a, b]) == [-(a * b), a + b]
    assert CharSpec(real_roots=(a, b), complex_pairs=((a, 1), (b, 1))).order == 6
    with pytest.raises(DuplicateRoots):
        CharSpec(complex_pairs=((a, 1), (a, -1)))


def test_fundamental_solutions_real_roots():
    spec = CharSpec(real_roots=(0, 1))
    ode = linear_ode_from_spec(spec)
    assert [c.as_rational() for c in ode.coeffs] == [0, 1]  # y'' = y'
    sols = fundamental_solutions(spec)
    assert sols[0] == E.ONE
    for s in sols:
        assert is_zero(residual(ode, s), PR).is_zero


def test_fundamental_solutions_complex_pair():
    spec = CharSpec(complex_pairs=((0, 1),))
    ode = linear_ode_from_spec(spec)
    assert [c.as_rational() for c in ode.coeffs] == [-1, 0]  # y'' = -y
    for s in fundamental_solutions(spec):
        assert is_zero(residual(ode, s), PR).is_zero


def test_three_real_roots_round_trip():
    spec = CharSpec(real_roots=(1, 2, 3))
    ode = linear_ode_from_spec(spec)
    assert [c.as_rational() for c in ode.coeffs] == [6, -11, 6]
    for s in fundamental_solutions(spec):
        assert is_zero(residual(ode, s), PR).is_zero


def test_mixed_spec_round_trip_and_closure():
    spec = CharSpec(real_roots=(1, -2), complex_pairs=((0, 1),))
    ode = linear_ode_from_spec(spec)
    eq = OdeEquation(spec.order, ode.rhs())
    fields = solution_symmetries(fundamental_solutions(spec)) \
        + [homogeneity_symmetry(), translation_symmetry()]
    vs = check_equation_invariance(fields, eq, PR)
    assert all(v.is_zero for v in vs)


def test_coeffs_from_solutions_polynomial():
    A = coeffs_from_solutions([X ** 2, X ** 3], 4, 2)
    assert all(a.is_zero_expr() for a in A)


def test_coeffs_from_solutions_exponential():
    A = coeffs_from_solutions([E.transcendental("exp", X)], 2, 1)
    assert A[0] == E.ONE


def test_coeffs_from_solutions_trigonometric():
    sin = E.transcendental("sin", X)
    cos = E.transcendental("cos", X)
    A = coeffs_from_solutions([sin, cos, X], 4, 1)
    assert [str(a) for a in A] == ["0", "-1", "0"]


@pytest.mark.parametrize("case", range(4))
def test_coeffs_from_solutions_non_constant_match_sympy(case):
    sympy = pytest.importorskip("sympy")
    sin = E.transcendental("sin", X)
    xis, order, lowest = [
        ([X ** -1], 1, 0),
        ([X ** 2 + 1, X ** 3], 2, 0),
        ([X * E.transcendental("exp", X)], 1, 0),
        ([sin, X], 2, 0),
    ][case]
    got = coeffs_from_solutions(xis, order, lowest)
    x = sympy.Symbol("x")
    unknowns = sympy.symbols(f"a{lowest}:{order}")
    sols = [to_sympy(sympy, xi) for xi in xis]
    want = sympy.solve([sympy.diff(f, x, order) - sum(
        a * sympy.diff(f, x, i) for i, a in enumerate(unknowns, start=lowest))
        for f in sols], unknowns, dict=True)
    assert len(want) == 1
    assert len(got) == len(unknowns)
    for a, u in zip(got, unknowns):
        assert sympy.simplify(to_sympy(sympy, a) - want[0][u]) == 0, (case, a)
    assert not all(a.is_rational_const() for a in got)


def test_recovered_equation_certified_invariant():
    sin = E.transcendental("sin", X)
    cos = E.transcendental("cos", X)
    xis = [sin, cos, X]
    A = coeffs_from_solutions(xis, 4, 1)
    rhs = E.ZERO
    for i, c in enumerate(A, start=1):
        rhs = rhs + c * E.jet(i).as_expr()
    eq = OdeEquation(4, rhs)
    vs = check_equation_invariance(prop1_symmetries(xis, 1), eq, PR)
    assert all(v.is_zero for v in vs)


def _solution_sets():
    """The (21,n+1) solution sets at n = 4..12, the criterion-6 cases and
    exponential solution sets of criterion-5 style root sets."""
    exp_x, sin_x, cos_x = (E.transcendental(f, X) for f in ("exp", "sin", "cos"))
    cases = [([X ** j for j in range(2, n - 1)] + [exp_x], n, 2) for n in range(4, 13)]
    cases += [([X ** 2, X ** 3], 4, 2), ([exp_x], 2, 1), ([sin_x, cos_x, X], 4, 1),
              ([X ** 2, X ** 3, exp_x], 5, 2), ([sin_x, cos_x, exp_x], 4, 1)]
    rng = random.Random(20240510)
    for size in (2, 3, 4):
        roots = _random_roots(rng, size)
        cases.append((fundamental_solutions(CharSpec(real_roots=tuple(roots))), size, 0))
    return cases


def test_one_pass_solve_matches_determinant_oracle():
    for xis, order, lowest in _solution_sets():
        assert coeffs_from_solutions(xis, order, lowest) == \
            cramer_by_determinants(xis, order, lowest), (order, lowest)


@pytest.mark.parametrize("e", [(1 << WIDTH - 1) - 2, (1 << WIDTH - 1) - 1, 1 << WIDTH - 1,
                               (1 << WIDTH) - 1, 1 << WIDTH, (1 << WIDTH) + 1, (1 << WIDTH) + 2])
def test_slot_width_guard_on_the_cramer_solve(e):
    # exponents about 2^(W-1) that the elimination and the back-substitution
    # double: the one-pass solve is the determinant oracle's, and it solves
    xis = [X ** e, X ** (e + 1), X ** (e + 3)]
    got = coeffs_from_solutions(xis, 4, 1)
    assert got == cramer_by_determinants(xis, 4, 1)
    ode = LinearOde(4, (E.ZERO,) + tuple(got))
    assert all(residual(ode, f).is_zero_expr() for f in xis)


def test_one_pass_solve_eliminates_once(monkeypatch):
    calls = []
    real = liedet.bareiss

    def spy(a, one, skip):
        calls.append(len(a))
        return real(a, one, skip)

    monkeypatch.setattr(liedet, "bareiss", spy)
    xis = [X ** 2, X ** 3, X ** 4, E.transcendental("exp", X)]
    coeffs_from_solutions(xis, 6, 2)
    assert calls == [4]


def test_dependent_solutions_detected():
    with pytest.raises(DependentSolutions):
        coeffs_from_solutions([X ** 2, 3 * X ** 2], 4, 2)
    with pytest.raises(DependentSolutions):
        cramer_by_determinants([X ** 2, 3 * X ** 2], 4, 2)


def test_argument_validation():
    with pytest.raises(ValueError):
        coeffs_from_solutions([X], 3, 1)
    with pytest.raises(ValueError):
        coeffs_from_solutions([X], 2, 2)
