"""The kernel's single-pass sums against the left folds they replaced.

`total_derivative`, `apply_prolonged`, `substitute` and `clear_denominators`
each add all their summands into one accumulator.  The reference versions
below sum with ``+`` one piece at a time, multiplying in the same order; the
normal form makes both structurally identical, which is what keeps reports
byte-identical.
"""

import random
from fractions import Fraction as F

import pytest

from liesym import expr as E
from liesym.catalog import instantiate, load_catalog
from liesym.expr import Atom, Expr, diff, is_rational_fragment, substitute
from liesym.jet import VectorField, apply_prolonged, prolong, total_derivative
from liesym.numeric import clear_denominators

X = E.indep().as_expr()
Y = E.dep().as_expr()


def J(k):
    return E.jet(k).as_expr()


# -- reference folds -------------------------------------------------------------

def ref_total_derivative(e: Expr) -> Expr:
    top = E.max_jet_order(e) or 0
    out = diff(e, E.indep()) + J(1) * diff(e, E.dep())
    for k in range(1, top + 1):
        out = out + J(k + 1) * diff(e, E.jet(k))
    return out


def ref_apply_prolonged(PX, e: Expr) -> Expr:
    out = PX.base.xi * diff(e, E.indep()) + PX.base.eta * diff(e, E.dep())
    for j, coeff in enumerate(PX.coeffs, start=1):
        out = out + coeff * diff(e, E.jet(j))
    return out


def ref_substitute(e: Expr, bindings) -> Expr:
    out = E.ZERO
    for mono, coeff in e.terms:
        piece = Expr.rational(coeff)
        for b, ex in mono:
            piece = piece * E._subst_base(b, bindings).pow(ex)
        out = out + piece
    return out


def ref_num_den(e: Expr):
    per_term = []
    den_max: dict = {}
    for mono, coeff in e.terms:
        t_num = Expr.rational(coeff)
        t_den: dict = {}
        for b, ex in mono:
            k = ex.numerator
            if isinstance(b, Atom):
                if k >= 0:
                    t_num = t_num * b.as_expr().pow(k)
                else:
                    t_den[b] = t_den.get(b, 0) - k
            else:
                nb, db = ref_num_den(b)
                for dkey, dpow in db.items():
                    t_num = t_num * _key_expr(dkey).pow(dpow * (-k))
                t_den[nb] = t_den.get(nb, 0) + (-k)
        per_term.append((t_num, t_den))
        for key, p in t_den.items():
            den_max[key] = max(den_max.get(key, 0), p)
    total = E.ZERO
    for t_num, t_den in per_term:
        piece = t_num
        for key, p in den_max.items():
            gap = p - t_den.get(key, 0)
            if gap:
                piece = piece * _key_expr(key).pow(gap)
        total = total + piece
    return total, den_max


def _key_expr(key) -> Expr:
    return key.as_expr() if isinstance(key, Atom) else key


# -- seeded inputs -------------------------------------------------------------

def _random_poly(rng, atoms, terms):
    out = E.ZERO
    for _ in range(terms):
        mono = Expr.rational(F(rng.randint(-9, 9), rng.randint(1, 4)))
        for a in rng.sample(atoms, rng.randint(1, len(atoms))):
            mono = mono * a ** rng.randint(1, 3)
        out = out + mono
    return out


def _random_rational(rng, order):
    """A rational function of x, y, y', ..., y^(order) with compound
    denominators, nested once, and atoms under negative powers."""
    atoms = [X, Y] + [J(k) for k in range(1, order + 1)]
    num = _random_poly(rng, atoms, 5)
    den = _random_poly(rng, atoms[:3], 3)
    inner = (1 + _random_poly(rng, atoms[:2], 2) * (1 + X ** 2) ** F(-1)) ** F(-2)
    return num * den ** F(-1) + inner * J(order) ** F(-1) + Y ** F(-3)


def _random_field(rng):
    return VectorField(_random_poly(rng, [X, Y], 3), _random_poly(rng, [X, Y], 3))


@pytest.fixture(scope="module")
def seven_six():
    rec = next(r for r in load_catalog() if r.label == "(7,6)")
    return instantiate(rec)


# -- equivalence ---------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_total_derivative_matches_fold(seed):
    rng = random.Random(seed)
    e = _random_rational(rng, 1 + seed % 4)
    assert total_derivative(e)._key == ref_total_derivative(e)._key


@pytest.mark.parametrize("seed", range(6))
def test_apply_prolonged_matches_fold(seed):
    rng = random.Random(100 + seed)
    order = 1 + seed % 4
    PX = prolong(_random_field(rng), order)
    e = _random_rational(rng, order) + E.transcendental("arctan", J(order) * X)
    assert apply_prolonged(PX, e)._key == ref_apply_prolonged(PX, e)._key


@pytest.mark.parametrize("seed", range(6))
def test_substitute_matches_fold(seed):
    rng = random.Random(200 + seed)
    e = _random_rational(rng, 3) + E.transcendental("exp", J(3) - Y) * (1 + J(3)) ** F(1, 2)
    bindings = {E.jet(3): _random_rational(rng, 2), E.dep(): X + 2}
    assert substitute(e, bindings)._key == ref_substitute(e, bindings)._key


@pytest.mark.parametrize("seed", range(6))
def test_clear_denominators_matches_fold(seed):
    e = _random_rational(random.Random(300 + seed), 2)
    assert is_rational_fragment(e)
    assert clear_denominators(e)._key == ref_num_den(e)[0]._key


def test_large_residuals_of_7_6_match_fold(seven_six):
    X5 = seven_six.fields[4]
    phi5, phi6 = (next(p for o, p in seven_six.invariants if o == k) for k in (5, 6))
    eq = next(ce.equation for ce in seven_six.equations if ce.equation.order == 5)
    PX5, PX6 = prolong(X5, 5), prolong(X5, 6)
    # phi@6 under the fifth field: the largest invariant residual of the record
    residual = apply_prolonged(PX6, phi6)
    assert len(residual.terms) == 892
    assert residual._key == ref_apply_prolonged(PX6, phi6)._key
    applied = apply_prolonged(PX5, eq.defect())
    constraint = {E.jet(5): eq.rhs}
    assert substitute(applied, constraint)._key == ref_substitute(applied, constraint)._key
    low = apply_prolonged(PX5, phi5)
    assert is_rational_fragment(low) and len(low.terms) == 119
    assert clear_denominators(low)._key == ref_num_den(low)[0]._key


# -- regression: no intermediate sums on polynomial input ------------------------

def test_no_add_calls_on_polynomial_input(monkeypatch):
    rng = random.Random(7)
    atoms = [X, Y, J(1), J(2), J(3)]
    PX = prolong(_random_field(rng), 3)  # prolong subtracts: before the spy
    e = _random_poly(rng, atoms, 8)
    bindings = {E.jet(3): _random_poly(rng, atoms[:4], 4), E.indep(): Y - 1}
    calls = []
    add = Expr.__add__

    def spy(self, other):
        calls.append(1)
        return add(self, other)

    monkeypatch.setattr(Expr, "__add__", spy)
    applied = apply_prolonged(PX, e)
    out = substitute(applied, bindings)
    assert not applied.is_zero_expr() and not out.is_zero_expr()
    assert calls == []
