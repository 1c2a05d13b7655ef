"""The walk of `numeric._walker`: its domain walk rejects a point exactly
when `eval_mp` does, its value walks give the oracles' rejected points and
messages exactly and their values (`eval_oracle`), the exact walk's exactly
and the probe's decimal walk to `eval_oracle.agrees` (at 21, 50 and 185
digits), over the stored targets of the catalog and over built expressions
with poles, radicals, logarithms and nested calls; and the rank computes a
base once per point."""

import functools
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from liesym import expr as E
from liesym import invariance, numeric
from liesym.catalog import default_order, instantiate, load_catalog
from liesym.invariance import rank_and_count
from liesym.invdiff import apply_D
from liesym.jet import VectorField
from liesym.numeric import _BadPoint, _walker, eval_mp, sample_point, sample_rational
from eval_oracle import agrees, eval_exact, ref_eval_exact, ref_walker

XA, YA, PA = E.indep(), E.dep(), E.jet(1)
X, Y, P1 = XA.as_expr(), YA.as_expr(), PA.as_expr()
DIGITS = 50
TINY = F(1, 10 ** 11)  # below the 10^-10 admissibility threshold
# coordinates that put bases on poles, radicands below zero and ln
# arguments below 10^-10, next to ordinary values
VALUES = [F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 2), TINY]


def _rejected(run, e) -> bool:
    try:
        run(e)
    except _BadPoint:
        return True
    return False


def _agrees(e, point) -> bool:
    """Whether `point` is rejected, after asserting that the domain walk and
    `eval_mp` reject it alike, both at the probe's working precision."""
    with numeric._working(DIGITS):
        _value, domain = _walker(point, DIGITS)
        rejected = _rejected(domain, e)
        assert rejected == _rejected(lambda t: eval_mp(t, point, DIGITS), e)
    return rejected


@functools.cache
def _stored_targets() -> list:
    """Every stored invariant, lambda and closure D(phi1) of the default
    instantiations."""
    out = []
    for rec in sorted(load_catalog(), key=lambda r: r.label):
        con = instantiate(rec, n=default_order(rec))
        out += [phi for _order, phi in con.invariants]
        if con.lam is not None:
            out.append(con.lam)
            if con.invariants:
                out.append(apply_D(con.lam, con.invariants[0][1]))
    return out


def test_stored_targets_reject_the_points_eval_mp_rejects():
    # sampled points are mostly admissible; points over VALUES mostly hit
    # a pole, a negative radicand or a vanishing jet coordinate
    rng = random.Random(3)
    seen = set()
    for target in _stored_targets():
        atoms = sorted(E.leaf_atoms(target), key=lambda a: a._key)
        for _ in range(3):
            seen.add(_agrees(target, sample_point(rng, atoms, frozenset())))
            seen.add(_agrees(target, {a: rng.choice(VALUES) for a in atoms}))
    assert len(_stored_targets()) >= 100 and seen == {True, False}


LN_X = E.transcendental("ln", X)
# a compound base under a positive power, which the normal form expands but
# a monomial built directly may hold
SQUARED = E._expr_from_terms({((1 + (X - Y) ** -1, 2),): 1})


@pytest.mark.parametrize("e,point,rejected", [
    ((X - Y) ** -1, {XA: F(1), YA: F(1)}, True),
    ((X - Y) ** -1, {XA: F(2), YA: F(1)}, False),
    ((X - 2) ** F(1, 2), {XA: F(1)}, True),
    ((X - 2) ** F(1, 2), {XA: F(3)}, False),
    (LN_X * Y, {XA: TINY, YA: F(1)}, True),
    (LN_X ** 2 + Y, {XA: TINY, YA: F(1)}, True),
    (LN_X ** -1, {XA: F(1)}, True),
    (E.transcendental("exp", LN_X) + 1, {XA: TINY}, True),
    (E.transcendental("sin", (X - Y) ** -1) * X, {XA: F(1), YA: F(1)}, True),
    (E.transcendental("sin", (X - Y) ** -1) * X, {XA: F(1), YA: F(3)}, False),
    ((2 + (X - Y) ** -1) ** F(1, 2), {XA: F(1), YA: F(1)}, True),
    ((2 + (X - Y) ** -1) ** F(1, 2), {XA: F(1), YA: F(5, 4)}, True),
    ((2 + (X - Y) ** -1) ** F(1, 2), {XA: F(2), YA: F(1)}, False),
    (E.transcendental("arctan", 1 + P1 ** F(-1, 2)) ** 3, {PA: F(-1)}, True),
    (E.transcendental("arctan", 1 + P1 ** F(-1, 2)) ** 3, {PA: F(4)}, False),
    (SQUARED, {XA: F(1), YA: F(1)}, True),
    (SQUARED, {XA: F(2), YA: F(1)}, False),
], ids=["pole", "off-pole", "negative-radicand", "positive-radicand", "ln-tiny",
        "ln-tiny-squared", "ln-at-one-inverted", "ln-inside-exp", "pole-inside-sin",
        "sin-off-pole", "pole-under-root", "negative-radicand-of-sum", "root-of-sum",
        "radical-inside-cubed-call", "cubed-call", "pole-inside-squared-sum",
        "squared-sum"])
def test_explicit_points(e, point, rejected):
    assert _agrees(e, point) == rejected


_ATOMS = [XA, YA, PA]
_FNS = ["ln", "exp", "sin", "cos", "arctan"]
_EXPONENTS = [F(-2), F(-1), F(2), F(1, 2), F(-1, 2), F(1, 3), F(-3, 2), F(2, 5)]


def _build(tree):
    kind = tree[0]
    if kind == "atom":
        return _ATOMS[tree[1]].as_expr()
    if kind == "const":
        return E.Expr.rational(tree[1])
    if kind == "call":
        return E.transcendental(tree[1], _build(tree[2]))
    if kind == "pow":
        return _build(tree[2]) ** tree[1]
    a, b = _build(tree[1]), _build(tree[2])
    return a + b if kind == "add" else a * b


_TREES = st.recursive(
    st.one_of(st.tuples(st.just("atom"), st.integers(0, len(_ATOMS) - 1)),
              st.tuples(st.just("const"), st.sampled_from([F(1), F(-2), F(1, 3)]))),
    lambda inner: st.one_of(
        st.tuples(st.just("call"), st.sampled_from(_FNS), inner),
        st.tuples(st.just("pow"), st.sampled_from(_EXPONENTS), inner),
        st.tuples(st.sampled_from(["add", "mul"]), inner, inner)),
    max_leaves=6)


@settings(max_examples=300)
@given(_TREES, st.lists(st.sampled_from(VALUES), min_size=3, max_size=3))
def test_built_expressions_reject_the_points_eval_mp_rejects(tree, values):
    try:
        e = _build(tree)
    except (E.ExprError, ZeroDivisionError, ValueError):
        assume(False)  # a constant outside the domain, such as ln(0)
    _agrees(e, dict(zip(_ATOMS, values)))


def _outcome(run, e):
    """run(e), or the type and message of the _BadPoint or ExprError (an
    ExactEvalError among them) that it raised."""
    try:
        return run(e)
    except (_BadPoint, E.ExprError) as exc:
        return type(exc), str(exc)


# a coordinate: a probe rational, a positive one (so that most radicands
# and ln arguments are admissible and the values are compared), one of
# VALUES, or none (an unbound atom)
_PROBE_RATIONALS = st.randoms(use_true_random=False).map(sample_rational)
_COORDINATES = st.one_of(_PROBE_RATIONALS, _PROBE_RATIONALS.map(abs),
                         st.sampled_from(VALUES + [None]))


@settings(max_examples=400)
@given(st.one_of(_TREES, st.integers(0, 10 ** 4)), st.data(), st.sampled_from([21, 50, 185]))
def test_the_walks_match_the_oracle_walks(drawn, data, digits):
    # a built tree, or a stored target picked by index
    if isinstance(drawn, int):
        e = _stored_targets()[drawn % len(_stored_targets())]
    else:
        try:
            e = _build(drawn)
        except (E.ExprError, ZeroDivisionError, ValueError):
            assume(False)
    point = {}
    for a in sorted(E.leaf_atoms(e), key=lambda a: a._key):
        v = data.draw(_COORDINATES)
        if v is not None:
            point[a] = v
    ref_value, ref_domain = ref_walker(point, digits)
    with numeric._working(digits):
        value, _domain = _walker(point, digits)
        got, want = _outcome(value, e), _outcome(ref_value, e)
        assert agrees(got, e, point, digits) if type(got) is not tuple else got == want
        assert _outcome(_walker(point, digits)[1], e) == _outcome(ref_domain, e)
    assert _outcome(lambda t: eval_exact(t, point), e) == _outcome(
        lambda t: ref_eval_exact(t, point), e)


def test_a_rank_point_computes_a_shared_compound_base_once(monkeypatch):
    # the prolonged coefficients of the second field hold the base x - y;
    # each evaluation of it iterates its terms once
    shared = E.indep().as_expr() - E.dep().as_expr()
    fields = [VectorField(E.ONE, E.ZERO), VectorField(E.ZERO, shared ** -1)]
    walks, per_point = [], []

    class Counted(tuple):
        def __iter__(self):
            walks.append(1)
            return super().__iter__()

    coefficient_matrix, integer_rank = invariance.coefficient_matrix, invariance._integer_rank

    def matrix(fields, order):
        rows = coefficient_matrix(fields, order)
        copies = [b for row in rows for e in row for b, _ex in E.walk_bases(e) if b == shared]
        for b in copies:
            if type(b._terms) is not Counted:
                monkeypatch.setattr(b, "_terms", Counted(b._terms))
        assert len(copies) >= 3
        return rows

    def point(*args):
        walks.clear()
        return sample_point(*args)

    monkeypatch.setattr(invariance, "coefficient_matrix", matrix)
    monkeypatch.setattr(numeric, "sample_point", point)
    monkeypatch.setattr(invariance, "_integer_rank",
                        lambda rows: per_point.append(len(walks)) or integer_rank(rows))
    rank_and_count(fields, 3, numeric.DEFAULT_PROBE)
    assert per_point == [1]
