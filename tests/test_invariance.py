"""Equation invariance, invariant annihilation, and rank counting."""

import random
from fractions import Fraction as F

import pytest

from liesym import expr as E
from liesym import invariance, numeric
from liesym.catalog import default_order, instantiate, load_catalog
from liesym.harness import _planned_orders
from liesym.invariance import (
    OdeEquation,
    _integer_rank,
    bareiss,
    check_differential_invariant,
    check_equation_invariance,
    coefficient_matrix,
    rank_and_count,
)
from liesym.jet import MAX_JET_ORDER, VectorField
from liesym.numeric import (
    DEFAULT_PROBE,
    MAX_RETRIES,
    ExactEvalError,
    ProbeConfig,
    SamplingExhausted,
    ZeroStatus,
    _BadPoint,
    derive_seed,
    is_zero,
    sample_point,
)
from cramer_oracle import fraction_det
from eval_oracle import eval_exact
from rank_oracle import rank_at_point, ref_fraction_rank, ref_rank_and_count

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
    c = F(-7, 3)
    scaled = [VectorField(c * g.xi, c * g.eta) for g in gens]
    phi1 = J(4) * J(2) ** F(-5, 3) - F(5, 3) * J(3) ** 2 * J(2) ** F(-8, 3)
    a = [v.status for v in check_differential_invariant(gens, phi1, PR)]
    b = [v.status for v in check_differential_invariant(scaled, phi1, PR)]
    assert a == b
    eq = OdeEquation(5, 2 * J(4) ** F(3, 4))
    a = [v.status for v in check_equation_invariance([VectorField(X, 7 * Y)], eq, PR)]
    b = [v.status for v in check_equation_invariance(
        [VectorField(5 * X, 35 * Y)], eq, PR)]
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
            for _ in range(2):
                point = sample_point(rng, atoms, frozenset())
                try:
                    yield [[eval_exact(e, point) for e in row] for row in matrix]
                except (_BadPoint, ZeroDivisionError):
                    continue


def test_rank_matches_fraction_elimination():
    cases = list(_low_rank_matrices(11, 400)) + list(_hard_rank_matrices(15, 300))
    catalog = list(_catalog_rank_matrices())
    assert len(catalog) > 50
    for rows in cases + catalog:
        before = [list(r) for r in rows]
        assert _integer_rank(rows) == ref_fraction_rank(rows)
        assert rows == before


def test_bareiss_ends_square_matrices_with_the_signed_determinant():
    # small entries make many matrices singular, some with a zero column
    # that is skipped while a later one still has a pivot
    rng = random.Random(19)
    for _ in range(500):
        size = rng.randint(1, 6)
        rows = [[F(rng.choice((0, 0, 1, -1, 2, 3))) for _ in range(size)] for _ in range(size)]
        if rng.random() < 0.3:
            rows[-1] = [x + y for x, y in zip(rows[0], rows[-1 if size == 1 else 1])]
        a = [[int(v) for v in r] for r in rows]
        rank, sign = bareiss(a, 1, True)
        assert rank == ref_fraction_rank(rows)
        assert sign * a[-1][-1] == fraction_det(rows)
        assert all(not a[i][j] for i in range(size) for j in range(i))  # zeros below
        # without the skip, a column without a pivot stops it with sign 0,
        # exactly on the singular matrices
        a = [[int(v) for v in r] for r in rows]
        _rank, sign = bareiss(a, 1, False)
        assert (sign == 0) == (fraction_det(rows) == 0)
        assert sign * a[-1][-1] == fraction_det(rows)


def _rank_and_count_pair(rep):
    return rep.rank_rn, rep.count_dn


def test_rank_sampling_matches_the_reference_loop():
    for seed in (1, 77, 20240101):
        probe = PR._replace(seed=seed)
        rep = rank_and_count(gens55(), 4, probe)
        assert _rank_and_count_pair(rep) == _rank_and_count_pair(
            ref_rank_and_count(gens55(), 4, probe))
        assert rep.samples == 1


def _count_integer_ranks(monkeypatch):
    calls = []
    monkeypatch.setattr(invariance, "_integer_rank",
                        lambda rows: calls.append(1) or _integer_rank(rows))
    return calls


def test_rank_shortcut_matches_the_reference_loop_on_the_catalog(monkeypatch):
    # every `rank` row of a default report: the seed and the orders it plans
    calls = _count_integer_ranks(monkeypatch)
    rows = 0
    for rec in load_catalog():
        for n in _planned_orders(rec, None):
            con = instantiate(rec, n=n)
            if not con.fundamental_check:
                continue
            for order in (con.dimension - 1, con.dimension):
                if order > MAX_JET_ORDER:
                    continue
                probe = DEFAULT_PROBE._replace(seed=derive_seed(
                    DEFAULT_PROBE.seed, rec.label, n, "rank", f"d@{order}"))
                rep = rank_and_count(con.fields, order, probe)
                ref = ref_rank_and_count(con.fields, order, probe)
                assert _rank_and_count_pair(rep) == _rank_and_count_pair(ref), \
                    (rec.label, n, order)
                assert rep.samples == 1
                rows += 1
    # each of these polynomial matrices reaches its bound at the first point
    assert rows == len(calls) == 70


def test_a_full_rank_rational_matrix_is_evaluated_once(monkeypatch):
    calls = _count_integer_ranks(monkeypatch)
    fields = [DX, DY, VectorField(X, -Y), VectorField(X.pow(-1), Y), VectorField(E.ZERO, X.pow(-1))]
    for order in (2, 3, 4):
        calls.clear()
        rep = rank_and_count(fields, order, PR)
        assert _rank_and_count_pair(rep) == _rank_and_count_pair(
            ref_rank_and_count(fields, order, PR))
        assert rep.rank_rn == min(5, order + 2)
        assert rep.samples == len(calls) == 1


def test_a_rank_deficient_matrix_evaluates_five_points(monkeypatch):
    calls = _count_integer_ranks(monkeypatch)
    # xi(x)*Dx fields leave the eta column zero: rank order + 1 of order + 2
    fields = [DX, VectorField(X, E.ZERO), VectorField(X.pow(-1), E.ZERO)]
    for order in (0, 1):
        calls.clear()
        rep = rank_and_count(fields, order, PR)
        ref = ref_rank_and_count(fields, order, PR)
        assert _rank_and_count_pair(rep) == _rank_and_count_pair(ref) == (order + 1, 1)
        assert rep.samples == ref.samples == len(calls) == 5


def test_the_admissible_point_loop_gives_up_after_max_retries_draws(monkeypatch):
    draws = []
    monkeypatch.setattr(numeric, "sample_point",
                        lambda *args: draws.append(1) or sample_point(*args))
    # a negative base under a square root rejects every probe point
    with pytest.raises(SamplingExhausted, match=f"in {MAX_RETRIES} attempts"):
        is_zero((-(1 + J(1) ** 2)) ** F(1, 2), PR)
    assert len(draws) == MAX_RETRIES
    draws.clear()

    def zero_denominator(e):
        raise _BadPoint

    # the rank evaluates each point's matrix through one exact walker, whose
    # value walk here rejects every rank point
    monkeypatch.setattr(invariance, "_walker",
                        lambda point, digits: (zero_denominator, zero_denominator))
    with pytest.raises(SamplingExhausted, match=f"in {MAX_RETRIES} attempts"):
        rank_and_count(gens55(), 4, PR)
    assert len(draws) == MAX_RETRIES


def test_rank_refuses_radical_generators():
    radical = [DX, DY, VectorField(X ** F(1, 2), Y ** F(2, 3)),
               VectorField(E.ZERO, (X - Y).pow(-1)), VectorField(Y, X ** F(3, 4))]
    for order in (3, 4):
        with pytest.raises(ExactEvalError, match="has no exact value at a rational point"):
            rank_and_count(radical, order, PR)
