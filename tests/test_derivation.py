"""One derivation routine against the per-coordinate routes it replaced.

`diff`, `total_derivative` and `apply_prolonged` all run `expr._derive`,
which applies a derivation term by term, each compound base's derivative
computed once per call.  `derivation_oracle` keeps the old routes: the
per-atom `diff` with its chain rule, D_x as a sum over the coordinates, and
pr(X) as sum c_a * d/da.  Both must give the same normal form (the same
`_key`) on expressions with nested compound bases, transcendental calls,
prime surds and fractional exponents, under random fields in x and y.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from liesym import expr as E
from liesym.expr import Expr, diff
from liesym.jet import VectorField, apply_prolonged, prolong, total_derivative

from derivation_oracle import ref_apply_prolonged, ref_diff, ref_total_derivative

X = E.indep().as_expr()

_JET_ATOMS = [E.indep(), E.dep(), E.jet(1), E.jet(2), E.jet(3), E.param("a")]
_FIELD_ATOMS = [E.indep(), E.dep(), E.param("a")]
_EXPONENTS = [1, 2, 3, -1, -2, F(1, 2), F(-1, 2), F(2, 3), F(3, 2), F(-5, 3)]
_BASE_EXPONENTS = [-1, -2, F(1, 2), F(-1, 2), F(2, 3), F(-3, 2)]
_SURDS = [Expr.rational(n) ** r for n, r in ((2, F(1, 2)), (3, F(2, 3)), (6, F(-1, 2)))]
_FNS = ["exp", "ln", "arctan", "sin", "cos"]
_coeffs = st.fractions(-3, 3, max_denominator=2).filter(bool)


def _product(coeff, factors) -> Expr:
    out = Expr.rational(coeff)
    for f in factors:
        out = out * f
    return out


def _factors(atoms, leaves):
    """Atom powers and prime surds, under compound bases `(1 + t)^r` and
    calls `fn(t)` nested up to `leaves` deep, t a term of such factors (a
    constant t is multiplied by x, so no base is a constant)."""
    leaf = st.one_of(
        st.tuples(st.sampled_from(atoms), st.sampled_from(_EXPONENTS)).map(
            lambda t: t[0].as_expr() ** t[1]),
        st.sampled_from(_SURDS))

    def nest(inner):
        body = st.builds(_product, _coeffs, st.lists(inner, min_size=1, max_size=2))
        body = body.map(lambda t: t * X if t.is_rational_const() else t)
        return st.one_of(
            inner,
            st.tuples(body, st.sampled_from(_BASE_EXPONENTS)).map(lambda t: (1 + t[0]) ** t[1]),
            st.tuples(st.sampled_from(_FNS), body).map(lambda t: E.transcendental(*t)))

    return st.recursive(leaf, nest, max_leaves=leaves)


def _sums(atoms, leaves, terms):
    term = st.builds(_product, _coeffs, st.lists(_factors(atoms, leaves), max_size=3))
    return st.lists(term, min_size=1, max_size=terms).map(E.expr_sum)


_exprs = _sums(_JET_ATOMS, 6, 3)
_fields = st.builds(VectorField, _sums(_FIELD_ATOMS, 3, 2), _sums(_FIELD_ATOMS, 3, 2))


@given(_exprs)
def test_diff_matches_per_atom_oracle(e):
    for a in _JET_ATOMS:
        assert diff(e, a)._key == ref_diff(e, a)._key


@given(_exprs)
def test_total_derivative_matches_coordinate_sum(e):
    assert total_derivative(e)._key == ref_total_derivative(e)._key


@settings(max_examples=60)
@given(_fields, _exprs)
def test_apply_prolonged_matches_coordinate_sum(X_, e):
    PX = prolong(X_, 3)
    dxi, eta = ref_total_derivative(X_.xi), X_.eta
    for j, got in enumerate(PX.coeffs, start=1):
        eta = ref_total_derivative(eta) - E.jet(j).as_expr() * dxi
        assert got._key == eta._key
    assert apply_prolonged(PX, e)._key == ref_apply_prolonged(PX, e)._key


def test_diff_contracts():
    # an atom equal by key but built apart is the interned one
    twin = E.Atom("param", 0, "a", "", None)
    A = E.param("a").as_expr()
    assert twin is not E.param("a") and diff(A ** 3 + X, twin) == 3 * A ** 2
    # a transcendental atom is no coordinate
    call = E.transcendental("exp", X).terms[0][0][0][0]
    with pytest.raises(ValueError, match="transcendental"):
        diff(X, call)
    # a prime surd is a constant; a call's derivative is fn'(u) * D(u)
    root2 = Expr.rational(2) ** F(1, 2)
    assert diff(root2 * X ** 2, E.indep()) == 2 * root2 * X
    assert diff(E.transcendental("sin", X ** 2), E.indep()) \
        == 2 * X * E.transcendental("cos", X ** 2)
