"""Each rule in one place: the slot degree is `poly.degree` alone, the
content split takes one gcd and one lcm, and every verdict routine takes
the check's probe with no default.  The degree and the content split are
held to the walks and loops they replaced (`rule_oracle`)."""

import inspect
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from liesym import expr as E
from liesym.expr import DomainError, Expr
from liesym.invariance import (check_differential_invariant, check_equation_invariance,
                               rank_and_count, relative_invariant_verdicts)
from liesym.invdiff import verify_lambda
from liesym.numeric import is_zero
from liesym.poly import degree

import rule_oracle

X = E.indep().as_expr()
Y = E.dep().as_expr()
A = E.param("a").as_expr()

# atoms, constant surds, a call, and compound bases under negative and
# fractional exponents
_LEAVES = [X, Y, E.jet(1).as_expr(), E.jet(3).as_expr(), A, Expr.rational(2) ** F(1, 2),
           Expr.rational(3) ** F(-2, 3), E.transcendental("exp", X), (1 + Y) ** -1,
           X ** F(1, 2) / (1 + Y)]
_EXPONENTS = [2, 3, -1, -2, F(1, 2), F(-1, 3), F(2, 3)]


@st.composite
def expressions(draw):
    """An expression built from the leaves by a few sums, products, powers
    and calls."""
    pool = list(_LEAVES)
    for _ in range(draw(st.integers(1, 6))):
        a, b = (draw(st.sampled_from(pool)) for _ in "ab")
        kind = draw(st.sampled_from(["sum", "product", "power", "call"]))
        try:
            if kind == "sum":
                e = a + draw(st.sampled_from([1, -1, F(2, 3)])) * b
            elif kind == "product":
                e = a * b
            elif kind == "power":
                e = (a + draw(st.sampled_from([0, 1])) * b) ** draw(st.sampled_from(_EXPONENTS))
            else:
                e = E.transcendental(draw(st.sampled_from(["exp", "sin", "arctan"])), a + b)
        except DomainError:
            continue
        if len(e.terms) <= 40:
            pool.append(e)
    return pool[-1]


@settings(max_examples=150)
@given(expressions())
def test_degree_is_the_uncached_walk_and_is_kept_in_the_flags(e):
    want = rule_oracle.degree(e)
    assert degree(e) == want and e._flags["degree"] == want
    fresh = pickle.loads(pickle.dumps(e))  # a copy carries no flags
    if fresh is not e:  # zero and a one-term atom are shared, not copied
        assert "degree" not in fresh._flags
        assert degree(fresh) == want and fresh._flags["degree"] == want
    for a in E.leaf_atoms(e):
        assert degree(a) == rule_oracle.degree(a) == 1


_COEFFS = st.one_of(st.integers(-10 ** 30, 10 ** 30),
                    st.fractions(max_denominator=10 ** 9)).filter(bool)


@given(st.lists(_COEFFS, min_size=1, max_size=8))
def test_content_split_is_the_gcd_and_lcm_loops(coeffs):
    e = E.expr_sum([Expr.rational(c) * X ** k for k, c in enumerate(coeffs)])
    content, body = E._extract_content(e)
    want_content, want_body = rule_oracle.extract_content(e)
    assert content == want_content and type(content) is F
    assert body._key == want_body._key


@pytest.mark.parametrize("routine", [check_equation_invariance, check_differential_invariant,
                                     relative_invariant_verdicts, rank_and_count, verify_lambda,
                                     is_zero])
def test_verdict_routines_take_the_probe_with_no_default(routine):
    probe = inspect.signature(routine).parameters["probe"]
    assert probe.default is inspect.Parameter.empty
