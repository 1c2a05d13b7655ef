"""The packed numerator of the power-product split against the expression
kernel's split (`split_oracle`): the same N, factors and exponents, the
slot width of a high-degree N, and the (7,6) equation residuals that the
exact tier decides without a term product of the kernel."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from liesym import expr as E
from liesym import harness, invariance
from liesym.catalog import default_order, find_record, instantiate, load_catalog
from liesym.harness import run_verification
from liesym.jet import apply_prolonged, prolong
from liesym.numeric import (DEFAULT_PROBE, ZeroStatus, clear_denominators, decide_exactly, is_zero,
                            power_split)
from liesym.poly import WIDTH
import split_oracle

X = E.indep().as_expr()
Y = E.dep().as_expr()


def J(k):
    return E.jet(k).as_expr()


ATOMS = [X, Y, J(1), J(2)]
# bases under an exponent class: polynomials, and rational functions with an
# atomic or a compound denominator inside
BASES = [X + Y, 1 + J(1) ** 2, 3 * J(2) * J(1) / X ** 2 - 4, (J(1) - Y) / (1 + X ** 2) + 1]
# compound denominators, two of them holding compound denominators of their own
NESTED = [1 + J(1) ** 2, 1 + 1 / (X + Y), J(1) + Y / (1 + J(1) ** 2),
          1 + X / (2 + 1 / (J(2) - X * Y))]
CLASSES = [F(0), F(1, 2), F(-1, 2), F(1, 3), F(-5, 3)]


def assert_same_split(e):
    """power_split(e) is the oracle's split: both None, or the packed N
    unpacks to the oracle's N and the factors and exponents agree in
    order."""
    got, want = power_split(e), split_oracle.power_split(e)
    assert (got is None) == (want is None)
    if got is not None:
        num, factors = got
        assert num.ring.unpack(num)._key == want[0]._key
        assert [(P._key, c) for P, c in factors] == [(P._key, c) for P, c in want[1]]
    return got


@st.composite
def rational_targets(draw):
    """A sum of one to four terms, each a coefficient times a Laurent
    monomial in the atoms, negative powers of the NESTED denominators, and
    powers of up to two BASES, each kept in one exponent class, with integer
    powers of their negations beside them."""
    picks = draw(st.lists(st.tuples(st.sampled_from(range(len(BASES))),
                                    st.sampled_from(CLASSES)),
                          max_size=2, unique_by=lambda t: t[0]))
    target = E.ZERO
    for _ in range(draw(st.integers(1, 4))):
        term = E.Expr.rational(F(draw(st.integers(-9, 9)) or 1, draw(st.integers(1, 5))))
        for a in ATOMS:
            term = term * a ** draw(st.integers(-2, 2))
        for Q in draw(st.lists(st.sampled_from(NESTED), max_size=2)):
            term = term * Q ** draw(st.integers(-2, -1))
        for j, r in picks:
            term = term * BASES[j] ** (r + draw(st.integers(-1, 2)))
            flip = draw(st.integers(-1, 1))
            if flip:
                term = term * (-BASES[j]) ** flip
        target = target + term
    return target


@settings(max_examples=150)
@given(rational_targets())
def test_packed_split_is_the_oracle_split(target):
    split = assert_same_split(target)
    if split is not None and not split[1]:
        # a rational function: its split is its cleared numerator
        num, den = clear_denominators(target)
        want_num, want_den = split_oracle.clear_denominators(target)
        assert num.ring.unpack(num)._key == want_num._key
        assert list(den.items()) == list(want_den.items())


def test_packed_split_is_the_oracle_split_on_the_report(monkeypatch):
    # every target that the default report splits (its invariants, lambdas
    # and closures, and their classes) and every nonempty equation residual
    # that it tests splits as the oracle does
    targets, residuals, checking = [], [], [False]
    real_split, real_zero, real_check = (
        invariance.power_split, invariance.is_zero, harness.check_equation_invariance)

    def split(e):
        targets.append(e)
        return real_split(e)

    def zero(e, *args, **kwargs):
        if checking[0] and not e.is_zero_expr():
            residuals.append(e)
        return real_zero(e, *args, **kwargs)

    def check(*args):
        checking[0] = True
        try:
            return real_check(*args)
        finally:
            checking[0] = False

    monkeypatch.setattr(invariance, "power_split", split)
    monkeypatch.setattr(invariance, "is_zero", zero)
    monkeypatch.setattr(harness, "check_equation_invariance", check)
    assert run_verification().passed
    assert len(targets) >= 130 and len(residuals) >= 40
    split = [assert_same_split(e) is not None for e in targets + residuals]
    assert sum(split[:len(targets)]) >= 120 and sum(split[len(targets):]) >= 40


@pytest.mark.parametrize("k", [15, 16])
def test_high_degree_numerator_is_packed_wide(k):
    # N = x^(2^k) - y has degree 2^k >= 2^(WIDTH-1), so it is packed in a
    # wider ring.  At width WIDTH = 16, x^(2^16) (slot 0) and y (slot 1) are
    # the same int, so without the widening N would cancel to zero
    A = X ** (2 ** k)
    for e in (A - Y, (A - Y) / (X + Y), A / J(1) - Y / J(1) + Y / (X + Y) ** 2):
        num, _factors = assert_same_split(e)
        assert num.ring.W > WIDTH and len(num) >= 2
        assert decide_exactly(e, frozenset()) is False
    # zero only once cleared: A/y + A/(x+y) - A*(x + 2y)/(y*(x+y))
    e = A / Y + A / (X + Y) - A * (X + 2 * Y) / (Y * (X + Y))
    assert not e.is_zero_expr()
    num, _factors = assert_same_split(e)
    assert num.ring.W > WIDTH and not num
    assert decide_exactly(e, frozenset()) is True
    # a compound key whose power passes the bound: (x^(2^(k-1)) + y)^(-2)
    e = (X ** 2 ** (k - 1) + Y) ** -2 * J(1) - Y
    num, _factors = assert_same_split(e)
    assert num.ring.W > WIDTH and decide_exactly(e, frozenset()) is False


def test_seven_six_equation_residuals_make_no_expression_products(monkeypatch):
    # the (7,6) eq1@5 residuals of the three fields that leave one: once the
    # fields are prolonged and the residuals built, the exact tier proves
    # each zero without a term product of the expression kernel
    rec = find_record(load_catalog(), "(7,6)")
    con = instantiate(rec, n=default_order(rec))
    eq = con.equations[0].equation
    assert eq.order == 5
    residuals = [E.substitute(apply_prolonged(prolong(X_, 5), eq.defect()), {E.jet(5): eq.rhs})
                 for X_ in con.fields]
    residuals = [r for r in residuals if not r.is_zero_expr()]
    assert sorted(len(r.terms) for r in residuals) == [93, 183, 188]
    calls = []
    real = E._term_product
    monkeypatch.setattr(E, "_term_product", lambda *a: calls.append(a) or real(*a))
    for r in residuals:
        assert decide_exactly(r, frozenset()) is True
    assert calls == []
    monkeypatch.undo()
    for r in residuals:
        assert is_zero(r, DEFAULT_PROBE).status == ZeroStatus.EXACT_ZERO
