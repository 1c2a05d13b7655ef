"""Total derivative, prolongation oracles, canonical form identities."""

import random
from fractions import Fraction as F

import mpmath
import pytest

from liesym import expr as E
from liesym.expr import Expr, diff
from liesym.jet import (
    MaxOrderExceeded,
    OrderMismatch,
    VectorField,
    _PROLONG_CACHE,
    apply_prolonged,
    coefficient_row,
    prolong,
    total_derivative,
)
from liesym.numeric import DEFAULT_PROBE, ZeroStatus, eval_mp, is_zero, sample_point

X = E.indep().as_expr()
Y = E.dep().as_expr()


def J(k):
    return E.jet(k).as_expr()


DX = VectorField(E.ONE, E.ZERO)
DY = VectorField(E.ZERO, E.ONE)


def characteristic(X_: VectorField) -> Expr:
    """w = eta - xi*y', the generator of the evolutionary form."""
    return X_.eta - X_.xi * J(1)


def test_total_derivative_basics():
    assert total_derivative(Y) == J(1)
    assert total_derivative(J(1) ** 2) == 2 * J(1) * J(2)
    assert total_derivative(X * J(2)) == J(2) + X * J(3)


def test_total_derivative_order_guard():
    with pytest.raises(MaxOrderExceeded):
        total_derivative(J(12))


def test_prolong_translations_vanish():
    pf = prolong(DX, 5)
    assert all(c.is_zero_expr() for c in pf.coeffs)


def test_prolong_scaling_family():
    al = E.param("alpha").as_expr()
    pf = prolong(VectorField(X, al * Y), 6)
    for j, c in enumerate(pf.coeffs, start=1):
        assert c == (al - j) * J(j)


def test_prolong_projective_family():
    r = E.param("r").as_expr()
    pf = prolong(VectorField(X ** 2, r * X * Y), 4)
    for k, c in enumerate(pf.coeffs, start=1):
        want = k * (r - k + 1) * (J(k - 1) if k > 1 else Y) + X * (r - 2 * k) * J(k)
        assert c == want


def test_prolongation_matches_tabulated_matrix_rows():
    # the five-dimensional unimodular algebra: every tabulated row
    rows = {
        "Dx": ([1, 0, 0, 0, 0], VectorField(E.ONE, E.ZERO)),
        "Dy": ([0, 1, 0, 0, 0], VectorField(E.ZERO, E.ONE)),
        "xDy": ([0, "x", 1, 0, 0], VectorField(E.ZERO, X)),
    }
    for name, (want, field) in rows.items():
        row = coefficient_row(field, 3)
        for entry, w in zip(row, want):
            expected = X if w == "x" else Expr.rational(w)
            assert entry == expected, name
    row = coefficient_row(VectorField(X, -Y), 3)
    assert row == [X, -Y, -2 * J(1), -3 * J(2), -4 * J(3)]
    row = coefficient_row(VectorField(Y, E.ZERO), 3)
    assert row[2] == -J(1) ** 2
    assert row[3] == -3 * J(1) * J(2)
    assert row[4] == -(3 * J(2) ** 2 + 4 * J(1) * J(3))


def _prolong_from_scratch(field, k):
    """eta[1..k] by the recursion, with no memo."""
    dxi = total_derivative(field.xi)
    out, prev = [], field.eta
    for j in range(1, k + 1):
        prev = total_derivative(prev) - J(j) * dxi
        out.append(prev)
    return out


def test_prolong_memo_in_any_order():
    field = VectorField(X ** 2 * Y + 1, X * Y ** 2 - 3 * Y)
    _PROLONG_CACHE.pop(field, None)
    want = _prolong_from_scratch(field, 8)
    for k in (5, 2, 7, 0, 7, 8, 1):
        pf = prolong(field, k)
        assert type(pf.coeffs) is tuple and pf.order == k and pf.base == field
        assert [c._key for c in pf.coeffs] == [c._key for c in want[:k]]
    # an equal field built apart shares the memo
    twin = VectorField(X ** 2 * Y + 1, X * Y ** 2 - 3 * Y)
    assert prolong(twin, 8).coeffs == tuple(want)
    assert len(_PROLONG_CACHE[field][1]) == 8


def test_prolong_order_errors_leave_memo_unchanged():
    field = VectorField(X * Y, Y ** 3)
    prolong(field, 3)
    fresh = VectorField(Y ** 2, X ** 3)
    _PROLONG_CACHE.pop(fresh, None)
    before = {f: (dxi, tuple(cs)) for f, (dxi, cs) in _PROLONG_CACHE.items()}
    for f in (field, fresh):
        with pytest.raises(ValueError):
            prolong(f, -1)
        with pytest.raises(MaxOrderExceeded):
            prolong(f, 13)
    after = {f: (dxi, tuple(cs)) for f, (dxi, cs) in _PROLONG_CACHE.items()}
    assert after == before and fresh not in after
    assert len(prolong(field, 12).coeffs) == 12


def test_apply_prolonged_examples():
    assert apply_prolonged(prolong(DY, 3), J(3)).is_zero_expr()
    al = E.param("alpha").as_expr()
    pf = prolong(VectorField(X, al * Y), 4)
    assert apply_prolonged(pf, J(3)) == (al - 3) * J(3)
    pf5 = prolong(VectorField(Y, E.ZERO), 3)
    assert apply_prolonged(pf5, J(2)) == -3 * J(1) * J(2)


def test_apply_order_mismatch():
    pf = prolong(DY, 2)
    with pytest.raises(OrderMismatch):
        apply_prolonged(pf, J(3))


def test_characteristic_examples():
    assert characteristic(DY) == E.ONE
    al = E.param("alpha").as_expr()
    assert characteristic(VectorField(X, al * Y)) == al * Y - X * J(1)


def _random_jet_poly(rng, top=3, terms=4):
    atoms = [E.indep(), E.dep()] + [E.jet(k) for k in range(1, top + 1)]
    out = E.ZERO
    for _ in range(terms):
        c = F(rng.randint(-5, 5))
        if not c:
            continue
        mono = Expr.rational(c)
        for a in rng.sample(atoms, rng.randint(1, 3)):
            mono = mono * a.as_expr() ** rng.randint(1, 2)
        out = out + mono
    return out


_CATALOG_FIELDS = [
    VectorField(E.ONE, E.ZERO),
    VectorField(E.ZERO, X ** 2),
    VectorField(X, -Y),
    VectorField(Y, E.ZERO),
    VectorField(X ** 2, 3 * X * Y),
    VectorField(2 * X * Y, Y ** 2 - X ** 2),
]


def test_characteristic_operator_identity():
    # pr(X)(e) == sum_j Dx^j(w) * de/dy^(j) + xi * Dx(e), exactly
    rng = random.Random(11)
    for field in _CATALOG_FIELDS:
        w = characteristic(field)
        for _ in range(3):
            e = _random_jet_poly(rng)
            lhs = apply_prolonged(prolong(field, 3), e)
            rhs = field.xi * total_derivative(e)
            dw = w
            rhs = rhs + dw * diff(e, E.dep())
            for j in range(1, 4):
                dw = total_derivative(dw)
                rhs = rhs + dw * diff(e, E.jet(j))
            assert is_zero(lhs - rhs, DEFAULT_PROBE).status == ZeroStatus.EXACT_ZERO


def test_prolongation_commutes_with_total_derivative():
    # [pr X, D_x] = -D_x(xi) * D_x as operators on jet polynomials
    rng = random.Random(23)
    for field in _CATALOG_FIELDS:
        for _ in range(10):
            e = _random_jet_poly(rng, top=3)
            lhs = apply_prolonged(prolong(field, 5), total_derivative(e))
            rhs = total_derivative(apply_prolonged(prolong(field, 3), e)) \
                - total_derivative(field.xi) * total_derivative(e)
            assert is_zero(lhs - rhs, DEFAULT_PROBE).status == ZeroStatus.EXACT_ZERO


def test_prolongation_linear_in_field():
    a, b = F(3), F(-7, 2)
    f1, f2 = _CATALOG_FIELDS[2], _CATALOG_FIELDS[4]
    combo = VectorField(a * f1.xi + b * f2.xi, a * f1.eta + b * f2.eta)
    pc = prolong(combo, 4).coeffs
    p1 = prolong(f1, 4).coeffs
    p2 = prolong(f2, 4).coeffs
    for c, c1, c2 in zip(pc, p1, p2):
        assert c == a * c1 + b * c2


def test_coefficient_order_bound():
    for field in _CATALOG_FIELDS:
        pf = prolong(field, 6)
        for j, c in enumerate(pf.coeffs, start=1):
            top = E.max_jet_order(c)
            assert top is None or top <= j


def test_vector_field_rejects_jets():
    with pytest.raises(ValueError):
        VectorField(J(1), E.ZERO)


def test_prolonged_action_matches_finite_differences():
    # independent directional-derivative oracle at one probe point
    field = VectorField(Y, E.ZERO)
    e = J(2) ** 3 * J(1) + X * J(3)
    pf = prolong(field, 3)
    symbolic = apply_prolonged(pf, e)
    rng = random.Random(5)
    atoms = [E.indep(), E.dep(), E.jet(1), E.jet(2), E.jet(3)]
    point = sample_point(rng, atoms, frozenset())
    digits = 60
    with mpmath.workdps(digits + 15):
        h = mpmath.mpf(10) ** -20
        direction = [eval_mp(c, point, digits) for c in coefficient_row(field, 3)]
        sym_val = eval_mp(symbolic, point, digits)

        def shifted(sign):
            pt = {}
            for a, d in zip(atoms, direction):
                base = mpmath.mpf(point[a].numerator) / point[a].denominator
                pt[a] = base + sign * h * d
            total = mpmath.mpf(0)
            for mono, coeff in e.terms:
                v = mpmath.mpf(coeff.numerator) / coeff.denominator
                for b, ex in mono:
                    v *= pt[b] ** int(ex)
                total += v
            return total

        fd = (shifted(1) - shifted(-1)) / (2 * h)
        assert abs(fd - sym_val) < mpmath.mpf(10) ** -25
