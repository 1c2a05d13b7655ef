"""`expr._scan`, the one cached scan of what an expression holds, against the
separate uncached walks of `scan_oracle`.

The scan reads the cached scan of each compound base and call argument, so
the draws share those objects between parents: each expression of a pool is
built from earlier ones, with sums under negative and fractional powers
(compound bases, nested), calls whose arguments hold jets and parameters,
constant surds, and fractional exponents at the top level and inside bases.
Pickled copies carry no flags and are scanned afresh.
"""

import pickle
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from liesym import expr as E
from liesym.expr import DomainError, Expr

import scan_oracle

X = E.indep().as_expr()
Y = E.dep().as_expr()
A = E.param("a").as_expr()


def J(k):
    return E.jet(k).as_expr()


_LEAVES = [X, Y, J(1), J(3), A, Expr.rational(2) ** F(1, 2), Expr.rational(3) ** F(-2, 3),
           Expr.rational(F(5, 7)), X ** F(1, 2) / (1 + Y)]
_EXPONENTS = [2, -1, -2, F(1, 2), F(-1, 3), F(2, 3)]


@st.composite
def pools(draw):
    """Expressions, each built from the leaves and earlier draws, so one
    compound base or call argument sits in many parents."""
    pool = list(_LEAVES)
    for _ in range(draw(st.integers(4, 10))):
        # the latest draws are picked more often, so bases nest and are shared
        a, b = (draw(st.sampled_from(pool) | st.sampled_from(pool[-3:])) for _ in "ab")
        c = draw(st.sampled_from([1, -1, 2, F(1, 3)]))
        kind = draw(st.sampled_from(["sum", "product", "power", "call"]))
        try:
            if kind == "sum":
                e = a + c * b
            elif kind == "product":
                e = a * b
            elif kind == "power":  # a sum under the power is a compound base
                e = (a + c * b + draw(st.sampled_from([0, 1]))) ** draw(st.sampled_from(_EXPONENTS))
            else:
                e = E.transcendental(draw(st.sampled_from(["exp", "ln", "sin", "arctan"])),
                                     a + c * b)
        except DomainError:
            continue
        if len(e.terms) <= 40:
            pool.append(e)
    return pool


@settings(max_examples=150)
@given(pools(), st.booleans())
def test_scan_is_the_oracle_walks(pool, parents_first):
    # parents first: each shared base is scanned inside its first parent and
    # read from its flags by the others; else bases before the parents
    for e in pool[::-1] if parents_first else pool:
        want = scan_oracle.scan(e)
        assert E._scan(e) == want
        assert E._scan(e) is e._flags["scan"]
        assert (E.leaf_atoms(e), E.max_jet_order(e), E.is_rational_fragment(e),
                E.is_polynomial(e)) == want[:3] + want[4:]
        copy = pickle.loads(pickle.dumps(e))
        assert copy is E.ZERO or "scan" not in copy._flags
        assert E._scan(copy) == want  # interned atoms compare by identity


def test_a_shared_base_or_argument_is_scanned_once(monkeypatch):
    inner = (1 + X * J(2)) ** F(-1, 2)
    arg = J(3) * inner + A
    call = E.transcendental("exp", arg)
    outer = (Y + inner + call) ** F(1, 3)
    parents = [inner * X, outer * J(1), call + outer, (outer + inner) ** -1, call * inner]
    walked = []
    real = E._scan

    def spy(e):
        if "scan" not in e._flags:
            walked.append(e)
        return real(e)

    monkeypatch.setattr(E, "_scan", spy)
    for e in parents:
        assert E.leaf_atoms(e) == scan_oracle.leaf_atoms(e)
        assert E.max_jet_order(e) == scan_oracle.max_jet_order(e)
    # each parent, compound base and call argument is walked once
    assert len(walked) == len({id(e) for e in walked})
    shared = [inner.terms[0][0][-1][0], arg, outer.terms[0][0][-1][0]]
    assert all(type(b) is Expr and any(b is w for w in walked) for b in shared)
