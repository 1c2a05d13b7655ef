"""Equation invariance, invariant annihilation, and rank counting."""

import random
from dataclasses import replace
from fractions import Fraction as F

import mpmath
import pytest

from liesym import expr as E
from liesym.catalog import default_order, instantiate, load_catalog
from liesym.invariance import (
    OdeEquation,
    _rank,
    check_differential_invariant,
    check_equation_invariance,
    coefficient_matrix,
    rank_and_count,
)
from liesym.jet import VectorField
from liesym.numeric import (
    MAX_RETRIES,
    ExactEvalError,
    ProbeConfig,
    ZeroStatus,
    _BadPoint,
    eval_exact,
    fractional_power_degrees,
    sample_point,
    sample_rational,
)
from rank_oracle import rank_at_point, ref_fraction_rank

X = E.indep().as_expr()
Y = E.dep().as_expr()
PR = ProbeConfig(points=8, digits=50, seed=77)


def J(k):
    return E.jet(k).as_expr()


DX = VectorField(E.ONE, E.ZERO)
DY = VectorField(E.ZERO, E.ONE)


def gens55():
    return [DX, DY, VectorField(X, -Y), VectorField(Y, E.ZERO), VectorField(E.ZERO, X)]


def test_ode_equation_validates_order():
    with pytest.raises(ValueError):
        OdeEquation(3, J(3))
    OdeEquation(3, J(2) ** 2)


def test_free_equation_solution_symmetry():
    eq = OdeEquation(4, E.ZERO)
    vs = check_equation_invariance([VectorField(E.ZERO, X ** 3)], eq, PR)
    assert vs[0].status == ZeroStatus.EXACT_ZERO


def test_power_law_equation_all_generators():
    # order five, weight 7 scaling, exponent (7-5)/(7-5+1) = 2/3
    gens = [DX, DY, VectorField(X, 7 * Y)] + \
        [VectorField(E.ZERO, X ** k) for k in (1, 2, 3)]
    eq = OdeEquation(5, J(4) ** F(2, 3))
    vs = check_equation_invariance(gens, eq, PR)
    assert all(v.is_zero for v in vs)


def test_noninvariance_detected_with_witness():
    gens = [VectorField(X, 7 * Y)]
    eq = OdeEquation(5, 2 * J(4) ** F(3, 4))
    vs = check_equation_invariance(gens, eq, PR)
    assert not vs[0].is_zero
    assert vs[0].witness is not None


def test_first_order_invariant_of_translations():
    vs = check_differential_invariant([DX, DY], J(1), PR)
    assert [v.status for v in vs] == [ZeroStatus.EXACT_ZERO] * 2


def test_yy_not_invariant_under_x_dy():
    vs = check_differential_invariant([VectorField(E.ZERO, X)], Y, PR)
    assert not vs[0].is_zero


def test_five_dim_fundamental_invariants():
    phi1 = J(4) * J(2) ** F(-5, 3) - F(5, 3) * J(3) ** 2 * J(2) ** F(-8, 3)
    phi2 = (J(2) ** 2 * J(5) + F(40, 9) * J(3) ** 3 - 5 * J(2) * J(3) * J(4)) / J(2) ** 4
    for phi in (phi1, phi2):
        vs = check_differential_invariant(gens55(), phi, PR)
        assert all(v.is_zero for v in vs)


def test_rational_functions_of_invariants_stay_invariant():
    pairs = [
        (J(1), J(2), [DX, DY]),
        (J(4) * J(2) ** F(-5, 3) - F(5, 3) * J(3) ** 2 * J(2) ** F(-8, 3),
         (J(2) ** 2 * J(5) + F(40, 9) * J(3) ** 3 - 5 * J(2) * J(3) * J(4)) / J(2) ** 4,
         gens55()),
        (J(2) * J(4) / J(3) ** 2, J(2) ** 2 * J(5) / J(3) ** 3,
         [DX, DY, VectorField(X, E.ZERO), VectorField(E.ZERO, Y),
          VectorField(E.ZERO, X)]),
    ]
    for phi, psi, gens in pairs:
        for combo in (phi * psi, phi + psi):
            vs = check_differential_invariant(gens, combo, PR)
            assert all(v.is_zero for v in vs)


def test_counting_examples():
    r = rank_and_count([DX], 0, PR)
    assert (r.rank_rn, r.count_dn) == (1, 1)
    r0 = rank_and_count([DX, DY], 0, PR)
    assert r0.count_dn == 0
    r1 = rank_and_count([DX, DY], 1, PR)
    assert (r1.rank_rn, r1.count_dn) == (2, 1)


def test_rank_monotone_in_order():
    gens = gens55()
    ranks = [rank_and_count(gens, k, PR).rank_rn for k in range(0, 6)]
    for a, b in zip(ranks, ranks[1:]):
        assert 0 <= b - a <= 1
    assert ranks[-1] == 5


def test_generator_scaling_leaves_verdicts_unchanged():
    gens = gens55()
    scaled = [g.scaled(F(-7, 3)) for g in gens]
    phi1 = J(4) * J(2) ** F(-5, 3) - F(5, 3) * J(3) ** 2 * J(2) ** F(-8, 3)
    a = [v.status for v in check_differential_invariant(gens, phi1, PR)]
    b = [v.status for v in check_differential_invariant(scaled, phi1, PR)]
    assert a == b
    eq = OdeEquation(5, 2 * J(4) ** F(3, 4))
    a = [v.status for v in check_equation_invariance([VectorField(X, 7 * Y)], eq, PR)]
    b = [v.status for v in check_equation_invariance(
        [VectorField(X, 7 * Y).scaled(5)], eq, PR)]
    assert a == b


def test_rank_report_invariant_count_relation():
    rep = rank_and_count(gens55(), 4, PR)
    assert rep.count_dn == rep.order + 2 - rep.rank_rn
    assert rep.count_dn == 1
    rep5 = rank_and_count(gens55(), 5, PR)
    assert rep5.count_dn == 2


def test_rank_drops_on_singular_locus():
    # y = x solves y''=0; on its jet the five-dimensional matrix loses rank
    matrix = coefficient_matrix(gens55(), 3)
    point = {E.indep(): F(2), E.dep(): F(2), E.jet(1): F(1),
             E.jet(2): F(0), E.jet(3): F(0)}
    assert rank_at_point(matrix, point) < 5
    generic = {E.indep(): F(2), E.dep(): F(3), E.jet(1): F(5, 7),
               E.jet(2): F(1, 3), E.jet(3): F(2, 5)}
    assert rank_at_point(matrix, generic) == 5


# -- the rank routine against the eliminations it replaced ---------------------

def ref_numeric_rank(rows, digits):
    """Rank with partial pivoting and pivot tolerance 10^-(digits//2)."""
    tol = mpmath.mpf(10) ** (-(digits // 2))
    rows = [list(r) for r in rows]
    m, n = len(rows), len(rows[0]) if rows else 0
    rank = col = r = 0
    while r < m and col < n:
        piv, pval = None, tol
        for i in range(r, m):
            if abs(rows[i][col]) > pval:
                piv, pval = i, abs(rows[i][col])
        if piv is None:
            col += 1
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, m):
            f = rows[i][col] / rows[r][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        rank += 1
        r += 1
        col += 1
    return rank


def _low_rank_matrices(seed, count):
    """Seeded m x n Fraction matrices of rank at most r, built as products
    of m x r and r x n factors with sparse small entries."""
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        r = rng.randint(0, min(m, n))

        def entry():
            return F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.7 else F(0)

        a = [[entry() for _ in range(r)] for _ in range(m)]
        b = [[entry() for _ in range(n)] for _ in range(r)]
        yield [[sum((a[i][k] * b[k][j] for k in range(r)), F(0)) for j in range(n)]
               for i in range(m)]


def _hard_rank_matrices(seed, count):
    """Seeded low-rank matrices with numerators and denominators up to 10^6,
    some columns zeroed, some rows with a zero prefix, and rows ordered by
    their first nonzero column, latest first, so that elimination has to
    swap rows."""
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        r = rng.randint(1, min(m, n))

        def entry():
            if rng.random() < 0.2:
                return F(0)
            return F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))

        a = [[entry() for _ in range(r)] for _ in range(m)]
        b = [[entry() for _ in range(n)] for _ in range(r)]
        zero_cols = set(rng.sample(range(n), rng.randint(0, n // 2)))
        rows = [[F(0) if j in zero_cols else sum((a[i][k] * b[k][j] for k in range(r)), F(0))
                 for j in range(n)] for i in range(m)]
        for i in rng.sample(range(m), rng.randint(0, m - 1)):
            k = rng.randint(1, n)
            rows[i][:k] = [F(0)] * k
        rows.sort(key=lambda row: next((j for j, v in enumerate(row) if v), n), reverse=True)
        yield rows


def _catalog_rank_matrices():
    """The matrices of the catalog's `rank` checks, at sampled points."""
    rng = random.Random(14)
    for rec in load_catalog():
        con = instantiate(rec, n=default_order(rec))
        if not con.fundamental_check:
            continue
        for order in (con.dimension - 1, con.dimension):
            matrix = coefficient_matrix(con.fields, order)
            atoms = set().union(*(E.leaf_atoms(e) for row in matrix for e in row))
            degrees = fractional_power_degrees(e for row in matrix for e in row)
            for _ in range(2):
                point = sample_point(rng, atoms, degrees=degrees)
                try:
                    yield [[eval_exact(e, point) for e in row] for row in matrix]
                except (_BadPoint, ZeroDivisionError, ExactEvalError):
                    continue


def test_rank_matches_fraction_elimination():
    cases = list(_low_rank_matrices(11, 400)) + list(_hard_rank_matrices(15, 300))
    catalog = list(_catalog_rank_matrices())
    assert len(catalog) > 50
    for rows in cases + catalog:
        before = [list(r) for r in rows]
        assert _rank(rows) == ref_fraction_rank(rows)
        assert rows == before


def test_rank_matches_numeric_elimination():
    digits = 50
    rng = random.Random(12)
    with mpmath.workdps(digits + 15):
        tol = mpmath.mpf(10) ** (-(digits // 2))
        for rows in _low_rank_matrices(13, 300):
            scale = mpmath.mpf(10) ** rng.choice((0, -20, -24, -26, -30))
            noisy = [[mpmath.mpf(v.numerator) / v.denominator * scale
                      + mpmath.mpf(rng.randint(-9, 9)) * mpmath.mpf(10) ** -40
                      for v in row] for row in rows]
            assert _rank(noisy, tol) == ref_numeric_rank(noisy, digits)


def ref_rank_and_count(fields, order, probe, samples=5):
    """The sampling loop rank_and_count ran before it shared one."""
    matrix = coefficient_matrix(fields, order)
    atoms = sorted(set().union(*(E.leaf_atoms(e) for row in matrix for e in row)),
                   key=lambda a: a._key)
    degrees = fractional_power_degrees(e for row in matrix for e in row)
    rng = random.Random(probe.seed)
    best, points, tried = 0, [], 0
    while len(points) < samples and tried < samples * MAX_RETRIES:
        tried += 1
        point = {}
        for a in atoms:
            v = sample_rational(rng)
            q = degrees.get(a)
            point[a] = abs(v) ** q if q else v
        try:
            r = rank_at_point(matrix, point)
        except (_BadPoint, ZeroDivisionError):
            continue
        points.append(tuple((a, point[a]) for a in atoms))
        best = max(best, r)
    return best, tuple(points)


def test_sample_point_degrees_reproduce_rank_sampling():
    radical = [DX, DY, VectorField(X ** F(1, 2), Y ** F(2, 3)),
               VectorField(E.ZERO, (X - Y).pow(-1)), VectorField(Y, X ** F(3, 4))]
    for gens, order in ((gens55(), 4), (radical, 3), (radical, 4)):
        for seed in (1, 77, 20240101):
            probe = replace(PR, seed=seed)
            rep = rank_and_count(gens, order, probe)
            assert (rep.rank_rn, rep.sample_points) == ref_rank_and_count(gens, order, probe)
    atoms = [E.indep(), E.dep(), E.jet(1)]
    degrees = {E.indep(): 2, E.jet(1): 12}
    rng_a, rng_b = random.Random(5), random.Random(5)
    for _ in range(50):
        want = {}
        for a in atoms:
            v = sample_rational(rng_a)
            want[a] = abs(v) ** degrees[a] if a in degrees else v
        assert sample_point(rng_b, atoms, degrees=degrees) == want
