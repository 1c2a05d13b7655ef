"""Kernel behaviors: normalization, single-pass sums, differentiation,
substitution."""

import operator
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liesym import expr as E
from liesym.catalog import instantiate, load_catalog
from liesym.expr import Expr, diff, expr_sum, substitute, sum_of_products
from liesym.numeric import DEFAULT_PROBE, ZeroStatus, is_zero

from expr_helpers import renormalized

X = E.indep().as_expr()
Y = E.dep().as_expr()


def J(k):
    return E.jet(k).as_expr()


def test_like_terms_merge_and_zero_drop():
    e = 2 * X + 3 * X - 5 * X
    assert e.is_zero_expr()
    assert (J(2) * J(3) - J(3) * J(2)).is_zero_expr()


def test_integer_powers_expand():
    e = (X + Y) ** 3
    assert len(e.terms) == 4
    assert e == X**3 + 3 * X**2 * Y + 3 * X * Y**2 + Y**3


def test_rational_coefficients_lowest_terms():
    e = Expr.rational(F(6, 4))
    assert e.as_rational() == F(3, 2)


def test_fractional_powers_merge_exponents():
    r = J(2) ** F(-1, 3)
    assert r * r * r == J(2) ** -1
    u = 2 * J(1) * J(3) - 3 * J(2) ** 2
    s = u ** F(1, 2)
    assert s * s == u


def test_constant_surds_factor_primes():
    e = Expr.rational(8) ** F(1, 2)
    # 8^(1/2) == 2 * 2^(1/2)
    assert e == 2 * Expr.rational(2) ** F(1, 2)
    assert (4 * X * X) ** F(1, 2) == 2 * X


def test_zero_power_rules():
    assert (X - X) ** 2 == E.ZERO
    with pytest.raises(E.DomainError):
        (X - X) ** F(-1)
    with pytest.raises(E.DomainError):
        Expr.rational(-2) ** F(1, 2)


def test_diff_examples():
    # partial of y''^3*y''' in y''' keeps the cube
    assert diff(J(2) ** 3 * J(3), E.jet(3)) == J(2) ** 3
    # chain rule through arctan
    at = E.transcendental("arctan", J(1))
    assert diff(at, E.jet(1)) == (1 + J(1) ** 2) ** -1
    # term-by-term derivative of the cleared quintic combination
    big = 9 * J(2) ** 2 * J(5) - 45 * J(2) * J(3) * J(4) + 40 * J(3) ** 3
    assert diff(big, E.jet(2)) == 18 * J(2) * J(5) - 45 * J(3) * J(4)


def test_diff_linearity_random():
    rng = random.Random(7)
    atoms = [E.indep(), E.dep(), E.jet(1), E.jet(2)]
    for _ in range(10):
        e1 = _random_poly(rng, atoms)
        e2 = _random_poly(rng, atoms)
        a, b = F(rng.randint(-5, 5)), F(rng.randint(1, 7), rng.randint(1, 5))
        v = rng.choice(atoms)
        lhs = diff(a * e1 + b * e2, v)
        rhs = a * diff(e1, v) + b * diff(e2, v)
        assert lhs == rhs


def test_product_rule_exact_on_rational_fragment():
    rng = random.Random(13)
    atoms = [E.indep(), E.dep(), E.jet(1), E.jet(2), E.jet(3)]
    for _ in range(10):
        e1 = _random_poly(rng, atoms)
        e2 = _random_poly(rng, atoms)
        v = rng.choice(atoms)
        residual = diff(e1 * e2, v) - e1 * diff(e2, v) - e2 * diff(e1, v)
        assert is_zero(residual, DEFAULT_PROBE).status == ZeroStatus.EXACT_ZERO


def test_substitute_examples():
    H = X * Y + J(1)
    assert substitute(J(5) - H, {E.jet(5): H}).is_zero_expr()
    al = E.param("alpha")
    assert substitute(al.as_expr() * J(1), {al: Expr.rational(4)}) == 4 * J(1)
    # simultaneous, not sequential
    e = X + Y
    out = substitute(e, {E.indep(): Y, E.dep(): X})
    assert out == X + Y


@pytest.mark.parametrize("op", [operator.sub, operator.truediv])
def test_reflected_operators_refuse_unsupported_types(op):
    for left, right in ((3.5, X), (X, 3.5)):
        with pytest.raises(TypeError, match="float"):
            op(left, right)


def test_substitute_into_transcendental_arguments():
    e = E.transcendental("exp", X * J(2))
    out = substitute(e, {E.jet(2): E.ZERO})
    assert out == E.ONE


def test_normalization_idempotent():
    rng = random.Random(3)
    atoms = [E.indep(), E.dep(), E.jet(1), E.jet(2)]
    for _ in range(12):
        e = _random_poly(rng, atoms)
        e = e * (J(2) ** F(-5, 3)) + E.transcendental("ln", 1 + X ** 2)
        assert renormalized(e) == e


def test_derive_keeps_no_state_between_calls():
    # one compound base and one transcendental call under three derivations:
    # a derivative kept from one call would be wrong in the next
    big = 9 * J(2) ** 2 * J(5) - 45 * J(2) * J(3) * J(4) + 40 * J(3) ** 3
    base = (1 + J(2) ** 2) ** F(-1, 2) * E.transcendental("arctan", X * J(2))
    calls = [(big + base, {E.jet(2): E.ONE}),
             (big * base, {E.jet(2): X, E.indep(): J(3)}),
             (base, {E.indep(): E.ONE, E.jet(2): J(3)})]
    forward = [E._derive(e, values)._key for e, values in calls]
    backward = [E._derive(e, values)._key for e, values in reversed(calls)]
    assert forward == backward[::-1]
    assert forward[0] == diff(big + base, E.jet(2))._key
    assert len(set(forward)) == 3


def _walk_jet_order(e):
    """max_jet_order by a walk of its own, with no cache."""
    orders = [0 if b.kind == "dep" else b.order for b, _ in E.walk_bases(e)
              if isinstance(b, E.Atom) and b.kind in ("dep", "jet")]
    return max(orders, default=None)


def test_max_jet_order_is_cached_and_survives_pickle():
    exprs = [E.ONE, X + 1, X * Y, J(2) - J(5) ** 2,
             E.transcendental("exp", J(3)) * (X + J(1)) ** F(-1, 2),
             (1 + E.transcendental("ln", 1 + Y ** 2)) ** F(1, 3)]
    for rec in load_catalog():
        con = instantiate(rec)
        exprs += [ce.equation.rhs for ce in con.equations] + [phi for _, phi in con.invariants]
    for e in exprs:
        want = _walk_jet_order(e)
        unwalked = pickle.loads(pickle.dumps(e))
        assert unwalked is E.ZERO or "scan" not in unwalked._flags
        assert E.max_jet_order(e) == want
        scan = e._flags["scan"]
        assert scan[1] == want  # None, for no y, is kept too
        assert E.max_jet_order(e) == want and e._flags["scan"] is scan
        assert E.max_jet_order(unwalked) == want
        assert unwalked._flags["scan"] == scan  # the whole scan, atoms re-interned
        assert E.max_jet_order(pickle.loads(pickle.dumps(e))) == want


def test_substitute_refuses_a_transcendental_key():
    t = E.transcendental("exp", X)
    atom = t.terms[0][0][0][0]
    assert atom.kind == "transc"
    for bindings in ({atom: Y}, {E.dep(): X, atom: Y}):
        with pytest.raises(ValueError, match="transcendental"):
            substitute(t * Y, bindings)
    assert substitute(t * Y, {E.dep(): X}) == t * X  # its argument's atoms still bind


def test_leaf_atoms_is_cached_and_equals_a_fresh_scan():
    al = E.param("alpha").as_expr()
    exprs = [E.ONE, X + al, E.transcendental("sin", al * J(2)) * (X + J(1)) ** F(-1, 2),
             (1 + E.transcendental("ln", 1 + Y ** 2)) ** F(1, 3)]
    for rec in load_catalog():
        con = instantiate(rec)
        exprs += [phi for _, phi in con.invariants] + [c for f in con.fields for c in (f.xi, f.eta)]
    for e in exprs:
        atoms = E.leaf_atoms(e)
        assert type(atoms) is frozenset and E.leaf_atoms(e) is atoms
        assert atoms == {b for b, _ in E.walk_bases(e) if type(b) is E.Atom and b.kind != "transc"}
    assert E.leaf_atoms(exprs[2]) == {E.param("alpha"), E.jet(2), E.indep(), E.jet(1)}


_PICKLE_ACROSS_SEEDS = """
import pickle, sys
from liesym.expr import Expr, max_jet_order
from liesym.parse import parse_expression
e = parse_expression("(1 + y^2)^(-1/2) + x")
if sys.argv[1] == "dump":
    max_jet_order(e)  # a flag, which must not travel
    sys.stdout.buffer.write(pickle.dumps(e))
else:
    f = pickle.loads(sys.stdin.buffer.read())
    base, = [b for m, _ in f.terms for b, _ in m if isinstance(b, Expr)]
    fresh = parse_expression("1 + y^2")
    print(e == f, hash(e) == hash(f), len({e, f}), hash(base) == hash(fresh), f._flags)
"""


def test_unpickled_expression_hashes_by_the_loading_process():
    # string hashes are seeded per process, so a hash pickled under one seed
    # would not match the fresh copy under another
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def run(seed, mode, data=None):
        return subprocess.run([sys.executable, "-c", _PICKLE_ACROSS_SEEDS, mode], input=data,
                              env={**env, "PYTHONHASHSEED": seed}, capture_output=True,
                              check=True, timeout=60).stdout

    assert run("2", "load", run("1", "dump")).decode().split() == ["True"] * 2 + ["1", "True", "{}"]


def test_structural_sharing_is_safe():
    e = (X + Y) ** F(-1)
    f = e * (X + Y)
    assert not e.is_zero_expr()
    assert is_zero(f - 1, DEFAULT_PROBE).status == ZeroStatus.EXACT_ZERO


def _random_poly(rng, atoms, terms=4, max_exp=3):
    out = E.ZERO
    for _ in range(terms):
        c = F(rng.randint(-6, 6))
        if c == 0:
            continue
        mono = Expr.rational(c)
        for a in rng.sample(atoms, rng.randint(1, len(atoms))):
            mono = mono * a.as_expr() ** rng.randint(1, max_exp)
        out = out + mono
    return out


# -- single-pass sums against the left fold ------------------------------------
#
# Random expressions mix the features that steer normalization: compound
# bases under negative and fractional exponents (a small shared pool, so that
# products merge their exponents, including back to a positive integer, which
# re-expands the base), prime surds (whose exponents can leave (0, 1)),
# transcendental atoms, and rational coefficients.

_COMPOUND = [1 + X, X - 2 * Y, 1 + J(1) ** 2]
_EXPONENTS = [F(-1), F(-2), F(1, 2), F(-1, 2), F(3, 2), F(-3, 2), F(1, 3), F(2, 3)]
_SURDS = [Expr.rational(2) ** F(1, 2), Expr.rational(3) ** F(1, 2),
          Expr.rational(6) ** F(-1, 2), Expr.rational(5) ** F(2, 3)]
_TRANSC = [E.transcendental("exp", X), E.transcendental("ln", 1 + X ** 2),
           E.transcendental("arctan", Y), E.transcendental("sin", X - Y),
           E.transcendental("cos", J(1))]

_factors = st.one_of(
    st.tuples(st.sampled_from([X, Y, J(1), J(2)]), st.integers(1, 3)).map(
        lambda t: t[0] ** t[1]),
    st.tuples(st.sampled_from(_COMPOUND), st.sampled_from(_EXPONENTS)).map(
        lambda t: t[0] ** t[1]),
    st.sampled_from(_SURDS),
    st.sampled_from(_TRANSC),
)


@st.composite
def _terms(draw):
    out = Expr.rational(draw(st.fractions(-4, 4, max_denominator=3)))
    for f in draw(st.lists(_factors, max_size=3)):
        out = out * f
    return out


def _fold(items) -> Expr:
    out = E.ZERO
    for e in items:
        out = out + e
    return out


_exprs = st.lists(_terms(), min_size=1, max_size=3).map(_fold)


@given(st.lists(_exprs, max_size=5), st.booleans())
def test_expr_sum_matches_left_fold(xs, cancel):
    if cancel:
        xs = xs + [-x for x in reversed(xs)]
    got = expr_sum(xs)
    assert got._key == _fold(xs)._key
    assert renormalized(got) == got
    if cancel:
        assert got.is_zero_expr()


@given(st.lists(st.tuples(_exprs, _exprs), max_size=4), st.booleans())
def test_sum_of_products_matches_left_fold(pairs, cancel):
    if cancel:
        pairs = pairs + [(-a, b) for a, b in pairs]
    got = sum_of_products(pairs)
    assert got._key == _fold(a * b for a, b in pairs)._key
    assert renormalized(got) == got
    if cancel:
        assert got.is_zero_expr()


def test_sum_of_products_re_expands_merged_bases():
    # (1+x)^(1/2) * (1+x)^(3/2) re-expands to (1+x)^2; 2^(1/2) * 2^(1/2) is 2
    half, root2 = (1 + X) ** F(1, 2), Expr.rational(2) ** F(1, 2)
    got = sum_of_products([(half, (1 + X) ** F(3, 2)), (root2, root2), (X, -X)])
    assert got == 3 + 2 * X
    assert got._key == (half * (1 + X) ** F(3, 2) + root2 * root2 - X * X)._key
    assert sum_of_products([]) == E.ZERO and expr_sum([]) == E.ZERO



# -- normal form of exponents and coefficients -----------------------------------
#
# An exponent or coefficient is an int when it is integral and a Fraction
# with denominator > 1 otherwise.  Monomials then hash and compare their
# integral exponents as machine integers, and integral coefficients multiply
# and add as machine integers.

def _assert_normal_rational(q):
    if q.denominator == 1:
        assert type(q) is int, q
    else:
        assert type(q) is F, q


def _assert_normal_exponents(e: Expr):
    subs = [e]
    for b, ex in E.walk_bases(e):
        assert ex != 0, (b, ex)
        _assert_normal_rational(ex)
        if isinstance(b, Expr):
            subs.append(b)
        elif isinstance(b, E.Atom) and b.kind == "transc":
            subs.append(b.arg)
    for sub in subs:
        for _, c in sub.terms:
            _assert_normal_rational(c)


_POWERS = [F(k) for k in (-2, -1, 2, 3)] + [F(1, 2), F(-1, 2), F(2, 3), F(-3, 2)]


@given(_exprs, _exprs, st.sampled_from(_POWERS))
def test_exponents_in_normal_form(a, b, r):
    results = [a, a * b, a - b, diff(a, E.indep()), diff(a, E.jet(1)),
               substitute(a, {E.jet(1): b, E.dep(): X + 2}),
               expr_sum([a, b, -a]), sum_of_products([(a, b), (b, b)])]
    for base in (a, b):
        try:
            results.append(base.pow(r))
        except E.DomainError:  # zero or negative rational under this power
            pass
    for e in results:
        _assert_normal_exponents(e)


def test_catalog_exponents_in_normal_form():
    seen = 0
    for rec in load_catalog():
        con = instantiate(rec)
        exprs = [ce.equation.rhs for ce in con.equations]
        exprs += [phi for _, phi in con.invariants]
        exprs += [con.lam] if con.lam is not None else []
        exprs += [c for f in con.fields for c in (f.xi, f.eta)]
        for e in exprs:
            _assert_normal_exponents(e)
            seen += 1
    assert seen > 300


def test_as_rational_is_a_fraction():
    for e in (Expr.rational(3), Expr.rational(F(6, 3)), Expr.rational(F(3, 4)),
              E.ZERO, (X + 1) - X):
        assert type(e.as_rational()) is F
    assert Expr.rational(F(6, 3)).as_rational() == 2


def test_integer_to_a_negative_power_is_exact():
    half = Expr.rational(2).pow(-1)
    assert half.as_rational() == F(1, 2)
    assert type(half.terms[0][1]) is F
    assert Expr.rational(-3).pow(-2).as_rational() == F(1, 9)
    assert Expr.rational(1).pow(-3) == E.ONE
    assert (2 * X).pow(-1) == F(1, 2) * X.pow(-1)
    assert Expr.rational(4).pow(F(-1, 2)).as_rational() == F(1, 2)
