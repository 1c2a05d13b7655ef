"""The kernel's direct routes against the generic route they short-cut.

Six routes skip work on input that is already in normal form: an atom's
shared one-term expression, a one-term `_expr_from_terms` with no sort, a
term product with an empty monomial, the power rule in `diff` for a base
that is the differentiation atom, `substitute` passing through the terms
and bases its bindings do not touch, and `-` adding the negated terms of
its right operand with no negated copy.  Each must build exactly the `Expr`
the generic route builds: the same terms, the same key and hash, and an
`int` wherever the normal form requires one.  The references below are the
generic route written out: every term sorted by monomial key, the product
rule through `_make_term` and `_mul_into` for every base, the substitution
as a left fold over every base (`test_sums.ref_substitute`), and
subtraction as the sum with the negation.

The multiply-accumulate path has five more: the identity merge of a base
present in both monomials, the inline accumulation of `_mul_into`, the
shared `ZERO` for an empty accumulator, the skip of coordinate atoms in
`diff`, and the bounded memo of monomial keys.  Their references are
`test_sums.ref_term_product`, an `_acc_add` fold, `product_rule_diff` and
the key comprehension without the memo.
"""

import pickle
from fractions import Fraction as F
from operator import itemgetter

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from liesym import expr as E
from liesym.expr import Expr, diff, substitute
from liesym.numeric import DEFAULT_PROBE, eval_mp, is_zero, power_split

from derivation_oracle import ref_diff_base
from expr_helpers import renormalized
from test_expr import _assert_normal_exponents
from test_sums import ref_substitute, ref_term_product

X = E.indep().as_expr()
Y = E.dep().as_expr()
A = E.param("a").as_expr()


def J(k):
    return E.jet(k).as_expr()


# -- the generic route -----------------------------------------------------------

def sorted_from_terms(acc) -> Expr:
    """`_expr_from_terms` through the sort, for any number of entries."""
    items = [(E._mono_key(m), m, c) for m, c in acc.items() if c]
    items.sort(key=itemgetter(0))
    return Expr(tuple((m, c) for _, m, c in items),
                tuple((k, (c.numerator, c.denominator)) for k, _, c in items))


def product_rule_diff(e: Expr, a: E.Atom) -> Expr:
    """d e / d a with every base, the atom `a` included, rebuilt by
    `_make_term` and multiplied by its derivative through `_mul_into`."""
    acc: dict = {}
    for mono, coeff in e.terms:
        for b, ex in mono:
            db = E.ONE if b == a else ref_diff_base(b, a)
            if db.is_zero_expr():
                continue
            rest = dict(mono)
            rest[b] = ex - 1
            E._mul_into(acc, E._make_term(coeff * ex, rest).terms, db.terms)
    return sorted_from_terms(acc)


# -- random expressions ------------------------------------------------------------
#
# Terms over x, y, y', y'' and a parameter, with integer, negative and
# fractional exponents, fractional coefficients, and one compound base that
# holds two of the atoms (so its derivative goes through the chain rule).
# Coefficients with denominators 2 and 3 against exponents such as 2/3 and
# 3/2 make products coeff*ex that are integral: the power rule must give ints.

_ATOMS = [E.indep(), E.dep(), E.jet(1), E.jet(2), E.param("a")]
_COMPOUND = 1 + X * J(1)
_EXPONENTS = [1, 2, 3, -1, -2, F(1, 2), F(-1, 2), F(2, 3), F(3, 2), F(-3, 2), F(-5, 3)]
_COMPOUND_EXPONENTS = [-1, -2, F(1, 2), F(-1, 2), F(2, 3), F(-3, 2)]

_factors = st.one_of(
    st.tuples(st.sampled_from(_ATOMS), st.sampled_from(_EXPONENTS)).map(
        lambda t: t[0].as_expr() ** t[1]),
    st.sampled_from(_COMPOUND_EXPONENTS).map(lambda r: _COMPOUND ** r),
)


@st.composite
def _terms(draw):
    out = Expr.rational(draw(st.fractions(-4, 4, max_denominator=3)))
    for f in draw(st.lists(_factors, max_size=4)):
        out = out * f
    return out


_exprs = st.lists(_terms(), min_size=1, max_size=4).map(E.expr_sum)


@given(_exprs, st.sampled_from(_ATOMS))
def test_power_rule_route_matches_product_rule(e, a):
    got = diff(e, a)
    ref = product_rule_diff(e, a)
    assert got._key == ref._key and got._hash == ref._hash
    assert got.terms == ref.terms
    again = renormalized(got)
    assert again._key == got._key and again._hash == got._hash
    _assert_normal_exponents(got)


def test_power_rule_route_examples():
    x, y1 = E.indep(), E.jet(1)
    # the exponent-1 base is dropped, not kept at exponent 0
    assert diff(X * J(1), x).terms == ((((y1, 1),), 1),)
    # 3/2 * x^(2/3) differentiates to the int coefficient 1
    (mono, c), = diff(F(3, 2) * X ** F(2, 3), x).terms
    assert mono == ((x, F(-1, 3)),) and type(c) is int and c == 1
    # an atom equal to the interned one but built apart takes the same route
    twin = E.Atom("jet", 1, "", "", None)
    assert twin is not y1 and diff(J(1) ** 3, twin) == 3 * J(1) ** 2


@given(_exprs, st.fractions(-4, 4, max_denominator=3).filter(bool))
def test_term_product_with_empty_monomial_matches_merge(e, c):
    c = E._normal(c)
    for mono, coeff in e.terms:
        for args in ((mono, coeff, (), c), ((), c, mono, coeff)):
            got = E._term_product(*args)
            ref = ref_term_product(*args)
            assert got == ref
            assert type(got[1]) is (int if got[1].denominator == 1 else F)


@given(_exprs)
def test_single_entry_from_terms_matches_sorted_route(e):
    for mono, coeff in e.terms:
        got = E._expr_from_terms({mono: coeff})
        ref = sorted_from_terms({mono: coeff})
        assert got._key == ref._key and got._hash == ref._hash
        assert got.terms == ref.terms
    assert E._expr_from_terms({(): 0}) == E.ZERO
    assert E._expr_from_terms({((E.indep(), 2),): 0}).is_zero_expr()


# -- shared atom expressions -------------------------------------------------------

def test_atom_expression_is_shared():
    assert E.jet(3).as_expr() is E.jet(3).as_expr()
    assert E.param("a").as_expr() is A
    shared = X
    key = E._base_key(shared)
    assert E.is_rational_fragment(shared)
    # mixed use: products, a compound base, derivatives, substitution,
    # the exact tier, and the probe evaluator on the shared object
    compound = (1 + shared * Y) ** F(-1, 2)
    assert diff(compound, E.indep()) == F(-1, 2) * Y * (1 + X * Y) ** F(-3, 2)
    assert substitute(shared * Y, {E.dep(): shared}) == X ** 2
    assert is_zero(shared * shared - X ** 2, DEFAULT_PROBE).is_zero
    assert power_split(compound * shared) is not None
    assert eval_mp(shared, {E.indep(): F(3)}, 30) == 3
    assert eval_mp(shared, {E.indep(): F(-1, 4)}, 30) == mpmath.mpf(-1) / 4
    assert E.is_rational_fragment(shared)
    assert not E.is_rational_fragment(compound)
    assert E._base_key(shared) == key == ("e",) + shared._key
    assert shared is E.indep().as_expr() and shared.terms == ((((E.indep(), 1),), 1),)


def test_atom_pickle_round_trip():
    atoms = [E.indep(), E.dep(), E.jet(3), E.param("alpha"),
             E.transcendental("exp", X * J(1)).terms[0][0][0][0]]
    for atom in atoms:
        atom.as_expr()  # the copy carries the filled cache too
        copy = pickle.loads(pickle.dumps(atom))
        assert copy == atom and hash(copy) == hash(atom)
        assert copy.as_expr() == atom.as_expr()
        if atom.kind != "transc":
            assert diff(copy.as_expr() ** 2, atom) == 2 * atom.as_expr()


# -- substitution passes untouched terms through ---------------------------------
#
# Bindings of y, y' or y'' to the random factors or expressions above, into
# terms that also carry transcendental atoms whose argument holds y, y'' or
# neither, and the compound base 1 + x*y' (touched by a binding of y' only).
# Bound values under fractional powers become compound bases of their own.

_TRANSC = [E.transcendental("exp", J(2)), E.transcendental("arctan", X * Y),
           E.transcendental("sin", 1 + X ** 2)]
_subst_factors = st.one_of(
    _factors,
    st.tuples(st.sampled_from(_TRANSC), st.sampled_from([1, 2, -1, F(1, 2)])).map(
        lambda t: t[0] ** t[1]),
)


@st.composite
def _subst_terms(draw):
    out = Expr.rational(draw(st.fractions(-4, 4, max_denominator=3)))
    for f in draw(st.lists(_subst_factors, max_size=4)):
        out = out * f
    return out


_bindings = st.dictionaries(st.sampled_from([E.dep(), E.jet(1), E.jet(2)]),
                            st.one_of(_factors, _exprs), min_size=1, max_size=2)


@given(st.lists(_subst_terms(), min_size=1, max_size=4).map(E.expr_sum), _bindings)
@example(Y * J(2) * _COMPOUND ** F(-1, 2),
         {E.dep(): _COMPOUND ** F(3, 2), E.jet(2): _COMPOUND ** -1})
def test_substitute_matches_left_fold(e, bindings):
    # in the example, multiplying the untouched (1 + x*y')^(-1/2) in before
    # the bound values would expand (1 + x*y')^1 midway: the fold gives 1
    try:
        ref = ref_substitute(e, bindings)
    except E.DomainError:  # an even root of a negative bound value
        with pytest.raises(E.DomainError):
            substitute(e, bindings)
        return
    got = substitute(e, bindings)
    assert got._key == ref._key and got._hash == ref._hash
    assert got.terms == ref.terms
    _assert_normal_exponents(got)


_atom_exps = st.sampled_from(_EXPONENTS)
_compound_exps = st.sampled_from(_COMPOUND_EXPONENTS)


@given(_atom_exps, _atom_exps, _compound_exps, _compound_exps, _compound_exps,
       st.sampled_from([E.ONE, X, A]))
def test_substitute_on_shared_compound_bases_matches_left_fold(e1, e2, a, r1, r2, extra):
    # the bound values and an untouched base share the compound base, so
    # partial products can reach a positive integer power and re-expand
    e = extra * Y ** e1 * J(2) ** e2 * _COMPOUND ** a + Y ** e1
    bindings = {E.dep(): _COMPOUND ** r1, E.jet(2): X * _COMPOUND ** r2}
    got, ref = substitute(e, bindings), ref_substitute(e, bindings)
    assert got._key == ref._key and got._hash == ref._hash


def test_substitute_passes_untouched_terms_through():
    compound = (1 + X * J(1)) ** F(-1, 2)
    arctan = E.transcendental("arctan", X * Y)
    e = 3 * X * compound * arctan + F(1, 2) * Y ** 2 * J(2) ** F(1, 3) + J(1)
    # no base holds y'': every term is carried over, compound bases too
    same = substitute(e, {E.jet(3): X})
    assert same._key == e._key and same.terms == e.terms
    # y is bound: the arctan argument changes, the compound base does not
    out = substitute(e, {E.dep(): X})
    assert out == 3 * X * compound * E.transcendental("arctan", X ** 2) \
        + F(1, 2) * X ** 2 * J(2) ** F(1, 3) + J(1)
    base = compound.terms[0][0][0][0]
    assert E.leaf_atoms(base) == {E.indep(), E.jet(1)} and not E._touched(base, {E.dep(): X}.keys())
    assert E._touched(base, {E.jet(1): X}.keys())
    # the compound base of the untouched term is the same object in the result
    assert any(b is base for mono, _c in out.terms for b, _ex in mono)


# -- subtraction with no negated copy ----------------------------------------------

@given(_exprs, _exprs)
def test_sub_matches_sum_with_negation(a, b):
    for got, ref in ((a - b, a + (-b)), (a - a, E.ZERO), (a - 3, a + (-Expr.rational(3)))):
        assert got._key == ref._key and got._hash == ref._hash
        assert got.terms == ref.terms
        _assert_normal_exponents(got)


# -- the multiply-accumulate path --------------------------------------------------
#
# `_term_product` merges a base present in both monomials by identity before
# it compares keys; `_mul_into` adds its (mono, coeff) pieces inline;
# `_expr_from_terms` returns the shared `ZERO` for an empty accumulator;
# `diff` skips coordinate atoms other than the variable; `_mono_key` keeps
# the keys of recent monomials in a memo that is cleared when full.
# A twin of the compound base, equal but built apart, must merge like the
# shared one.

_TWIN = renormalized(_COMPOUND)
_twin_factors = st.one_of(_subst_factors, st.sampled_from(_COMPOUND_EXPONENTS).map(
    lambda r: E._make_term(1, {_TWIN: r})))


@st.composite
def _twin_terms(draw):
    out = Expr.rational(draw(st.fractions(-4, 4, max_denominator=3)))
    for f in draw(st.lists(_twin_factors, max_size=4)):
        out = out * f
    return out


_twin_exprs = st.lists(_twin_terms(), min_size=1, max_size=4).map(E.expr_sum)


def _same(got, ref):
    got = got if isinstance(got, Expr) else E._expr_from_terms({got[0]: got[1]})
    ref = ref if isinstance(ref, Expr) else E._expr_from_terms({ref[0]: ref[1]})
    assert got._key == ref._key and got._hash == ref._hash and got.terms == ref.terms


@given(_twin_exprs, _twin_exprs)
def test_identity_merge_matches_reference_product(a, b):
    assert _TWIN is not _COMPOUND and _TWIN == _COMPOUND
    for m1, c1 in a.terms:
        for m2, c2 in b.terms:
            _same(E._term_product(m1, c1, m2, c2), ref_term_product(m1, c1, m2, c2))


def _fold_mul_into(acc, a, b):
    """`_mul_into` as it was: one `_acc_add` per piece."""
    for m1, c1 in a.terms:
        for m2, c2 in b.terms:
            piece = E._term_product(m1, c1, m2, c2)
            pieces = piece.terms if isinstance(piece, Expr) else [piece]
            for mono, c in pieces:
                E._acc_add(acc, mono, c)


@given(_twin_exprs, _twin_exprs, _twin_exprs)
def test_inline_accumulation_matches_acc_add_fold(start, a, b):
    # the accumulator starts with terms the products extend, cancel, or
    # bring to the integer 1 (a Fraction sum that must become an int)
    ab = (a * b).terms
    for begin in (dict(start.terms), {m: -c for m, c in ab}, {m: 1 - c for m, c in ab}, {}):
        got, ref = dict(begin), dict(begin)
        E._mul_into(got, a.terms, b.terms)
        _fold_mul_into(ref, a, b)
        assert got == ref
        assert [type(c) for c in got.values()] == [type(ref[m]) for m in got]


@given(_twin_exprs)
def test_empty_accumulator_is_the_shared_zero(e):
    assert E._expr_from_terms({}) is E.ZERO
    assert e - e is E.ZERO and e * 0 is E.ZERO and E.expr_sum([e, -e]) is E.ZERO
    assert E.sum_of_products([(e, E.ONE), (-e, E.ONE)]) is E.ZERO
    assert diff(Expr.rational(3), E.indep()) is E.ZERO


@given(st.lists(_twin_terms(), min_size=1, max_size=4).map(E.expr_sum),
       st.sampled_from(_ATOMS))
def test_diff_skip_of_other_coordinates_matches_product_rule(e, a):
    # the terms also hold transcendental atoms, which are not skipped
    got = diff(e, a)
    ref = product_rule_diff(e, a)
    assert got._key == ref._key and got._hash == ref._hash
    assert got.terms == ref.terms


def _uncached_key(mono):
    return tuple([(E._base_key(b), (e.numerator, e.denominator)) for b, e in mono])


@given(_twin_exprs, st.booleans())
def test_memoized_monomial_keys_match_uncached(e, clear):
    if clear:
        E._MONO_KEYS.clear()
    for mono, _ in e.terms:
        assert E._mono_key(mono) == _uncached_key(mono)
        assert E._mono_key(mono) is E._mono_key(mono)


def test_monomial_key_memo_is_bounded():
    x = E.indep()
    monos = [((x, k),) for k in range(1, 2500)]
    for mono in monos:
        E._mono_key(mono)
        assert len(E._MONO_KEYS) <= 1024
    # cleared once it reached the bound: the latest monomials are kept
    assert monos[-1] in E._MONO_KEYS and monos[0] not in E._MONO_KEYS
    for mono in monos[:10] + monos[-10:]:
        assert E._mono_key(mono) == _uncached_key(mono)
