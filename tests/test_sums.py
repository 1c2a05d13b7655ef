"""The kernel's single-pass sums and merged term products against the
code they replaced.

`total_derivative`, `apply_prolonged`, `substitute` and `clear_denominators`
each add all their summands into one accumulator.  The reference versions
below sum with ``+`` one piece at a time, multiplying in the same order; the
normal form makes both structurally identical, which is what keeps reports
byte-identical.  Likewise the term product merges two sorted monomials where
its reference copies one into a dict and re-sorts the result.
"""

import random
from fractions import Fraction as F

import pytest

from liesym import expr as E
from liesym.catalog import instantiate, load_catalog
from liesym.expr import Atom, Expr, _base_key, _expr_from_terms, _make_term, _term_product, \
    diff, is_rational_fragment, substitute
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


def ref_term_product(m1, c1, m2, c2):
    """Term product through a dict of the first monomial, re-sorted."""
    coeff = c1 * c2
    items: dict = dict(m1)
    needs_rework = False
    for b, e in m2:
        cur = items.get(b)
        if cur is None:
            items[b] = e
        else:
            tot = cur + e
            if tot:
                items[b] = tot
                if not isinstance(b, Atom):
                    needs_rework = True
            else:
                del items[b]
    if not needs_rework:
        for b, e in items.items():
            if isinstance(b, Expr):
                if e.denominator == 1 and e > 0:
                    needs_rework = True
                    break
            elif isinstance(b, int):
                if not (0 < e < 1):
                    needs_rework = True
                    break
    if needs_rework:
        return _make_term(coeff, items)
    mono = tuple(sorted(items.items(), key=lambda t: _base_key(t[0])))
    return mono, coeff


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


# Monomial bases with the exponents the normal form allows them: atoms any
# nonzero rational, compound bases (content-free sums) a negative integer or a
# non-integer, primes a fraction in (0, 1).
_ATOM_BASES = [E.indep(), E.dep(), E.jet(1), E.jet(2), E.param("a"),
               E.transcendental("exp", X).terms[0][0][0][0]]
_SUM_BASES = [(1 + X).pow(-1).terms[0][0][0][0], (X - 2 * Y).pow(-1).terms[0][0][0][0],
              (1 + J(1) ** 2).pow(-1).terms[0][0][0][0]]
_PRIME_BASES = [2, 3, 5]
_ATOM_EXPS = [1, 2, 3, -1, -2, F(1, 2), F(-1, 2), F(2, 3), F(-5, 3)]
_SUM_EXPS = [-1, -2, F(1, 2), F(-1, 2), F(3, 2), F(-3, 2), F(1, 3), F(2, 3)]
_PRIME_EXPS = [F(1, 2), F(1, 3), F(2, 3), F(3, 4)]


def _random_mono(rng, partner=()):
    """A sorted normal-form monomial.  Against a partner monomial it often
    reuses the partner's bases: the negated exponent (the base cancels), a
    complement to a positive integer (a sum base re-expands, a prime leaves
    (0, 1)), or another exponent."""
    items = {}
    for b, e in partner:
        roll = rng.random()
        if roll < 0.25:
            continue
        if roll < 0.45 and not isinstance(b, int):
            items[b] = -e
        elif roll < 0.7 and not isinstance(b, Atom):
            items[b] = E._normal(rng.randint(1, 2) - e) if isinstance(b, Expr) else 1 - e
        else:
            items[b] = rng.choice(_PRIME_EXPS if isinstance(b, int) else
                                  _SUM_EXPS if isinstance(b, Expr) else _ATOM_EXPS)
    for pool, exps in ((_ATOM_BASES, _ATOM_EXPS), (_SUM_BASES, _SUM_EXPS),
                       (_PRIME_BASES, _PRIME_EXPS)):
        for b in rng.sample(pool, rng.randint(0, 2)):
            items.setdefault(b, rng.choice(exps))
    items = {b: E._normal(F(e)) for b, e in items.items() if e}
    if any(isinstance(b, int) and not 0 < e < 1 for b, e in items.items()):
        items = {b: e for b, e in items.items() if not isinstance(b, int)}
    if any(isinstance(b, Expr) and type(e) is int and e > 0 for b, e in items.items()):
        items = {b: e for b, e in items.items() if not isinstance(b, Expr)}
    return tuple(sorted(items.items(), key=lambda t: _base_key(t[0])))


def _as_expr(piece) -> Expr:
    return piece if isinstance(piece, Expr) else _expr_from_terms({piece[0]: piece[1]})


# -- equivalence ---------------------------------------------------------------

def test_term_product_matches_dict_and_sort():
    rng = random.Random(11)
    expanded = cancelled = 0
    for _ in range(3000):
        m1 = _random_mono(rng)
        m2 = _random_mono(rng, m1)
        c1 = F(rng.randint(-9, 9) or 1, rng.randint(1, 5))
        c2 = F(rng.randint(-9, 9) or 1, rng.randint(1, 5))
        got = _term_product(m1, c1, m2, c2)
        assert _as_expr(got)._key == _as_expr(ref_term_product(m1, c1, m2, c2))._key, (m1, m2)
        first = dict(m1)
        sums = [(b, first[b] + e) for b, e in m2 if b in first]
        cancelled += any(t == 0 for _, t in sums)
        expanded += any(not isinstance(b, Atom) and t.denominator == 1 and t > 0
                        for b, t in sums)
    assert expanded > 300 and cancelled > 300


def test_term_product_edge_cases():
    x, s, two = E.indep(), _SUM_BASES[0], 2
    cases = [
        ((), ((x, 2),)),                              # empty monomial
        (((x, 2),), ((x, -2),)),                      # cancels to the empty monomial
        (((s, F(1, 2)),), ((s, F(3, 2)),)),           # sum base re-expands: (1+x)^2
        (((s, F(-1, 2)),), ((s, F(3, 2)),)),          # sum base to the first power
        (((s, -1), (x, 1)), ((s, 1), (x, 1))),        # sum base cancels
        (((two, F(1, 2)),), ((two, F(1, 2)),)),       # prime surd folds: 2
        (((two, F(2, 3)), (x, 1)), ((two, F(2, 3)),)),  # 2^(4/3) = 2 * 2^(1/3)
    ]
    for m1, m2 in cases:
        for a, b in ((m1, m2), (m2, m1)):
            got = _as_expr(_term_product(a, F(3), b, F(-1, 2)))
            assert got._key == _as_expr(ref_term_product(a, F(3), b, F(-1, 2)))._key
    assert _as_expr(_term_product(((s, F(1, 2)),), F(1), ((s, F(3, 2)),), F(1))) == (1 + X) ** 2
    assert _term_product(((two, F(1, 2)),), F(1), ((two, F(1, 2)),), F(1)) == Expr.rational(2)


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
    num, den = clear_denominators(e)
    want_num, want_den = ref_num_den(e)
    assert num._key == want_num._key and den == want_den


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
    assert clear_denominators(low)[0]._key == ref_num_den(low)[0]._key


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
