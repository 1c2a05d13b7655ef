"""The packed decision of D_X for pr(X)(f) = w*f checks against the
expression-kernel oracle, the slot-width guard, and the (7,6) rows that it
decides without the expression kernel."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from liesym import expr as E
from liesym import invariance, poly
from liesym.catalog import default_order, find_record, instantiate, load_catalog
from liesym.invariance import _decide_log_derivatives, check_differential_invariant
from liesym.invdiff import apply_D, verify_lambda
from liesym.jet import VectorField, apply_prolonged, prolong, total_derivative
from liesym.numeric import DEFAULT_PROBE, ZeroStatus, decide_exactly, is_zero, power_split
from liesym.poly import WIDTH
from log_derivative_oracle import log_derivative_numerator
import split_oracle

X = E.indep().as_expr()
Y = E.dep().as_expr()


def J(k):
    return E.jet(k).as_expr()


def _decisions(fields, f, ws):
    """(packed decisions, decide_exactly of each oracle D_X) for f's split,
    each oracle D_X built on the split of `split_oracle`, whose N is an
    Expr.  Where the packed decision is False it comes with the residual,
    which is the oracle's D_X times prod P_k^(c_k - 1); elsewhere with
    None."""
    split = power_split(f)
    top = E.max_jet_order(f)
    PXs = [prolong(X_, top or 0) for X_ in fields]
    oracle = [log_derivative_numerator(PX, w, *split_oracle.power_split(f))
              for PX, w in zip(PXs, ws)]
    got = _decide_log_derivatives(split, PXs, ws)
    front = math.prod([P ** (c - 1) for P, c in split[1]], start=E.ONE)
    for (zero, residual), D in zip(got, oracle):
        assert residual == (front * D if zero is False else None)
    return [zero for zero, _residual in got], [decide_exactly(D, frozenset()) for D in oracle]


# field coefficients: an exp atom, fractional powers of a compound base, of an
# atom and of a prime, and a compound base under a negative power
EXTRAS = [E.ONE, E.transcendental("exp", X), E.transcendental("exp", -2 * X),
          (1 + X ** 2) ** F(1, 2), (1 + X ** 2) ** F(-1, 2), X ** F(1, 3),
          (1 + Y ** 2) ** -1, E.Expr.rational(2) ** F(1, 2)]
BASES = [1 + J(1) ** 2, J(2), X + Y]
CLASSES = [F(0), F(1, 2), F(-1, 3), F(3, 2)]


def _coeff(draw):
    return E.Expr.rational(F(draw(st.integers(-6, 6)) or 1, draw(st.integers(1, 4))))


@st.composite
def coefficients(draw):
    c = E.ZERO
    for _ in range(draw(st.integers(0, 2))):
        c = c + _coeff(draw) * X ** draw(st.integers(0, 2)) * Y ** draw(st.integers(0, 2)) \
            * draw(st.sampled_from(EXTRAS))
    return c


@st.composite
def targets(draw):
    """One or two terms: a Laurent monomial in x, y, y', y'' times powers of
    up to two bases, each kept in one exponent class."""
    picks = draw(st.lists(st.tuples(st.sampled_from(range(len(BASES))),
                                    st.sampled_from(CLASSES)),
                          max_size=2, unique_by=lambda t: t[0]))
    f = E.ZERO
    for _ in range(draw(st.integers(1, 2))):
        term = _coeff(draw)
        for a in (X, Y, J(1), J(2)):
            term = term * a ** draw(st.integers(-1, 2))
        for j, r in picks:
            term = term * BASES[j] ** (r + draw(st.integers(0, 1)))
        f = f + term
    return f


@settings(max_examples=80)
@given(targets(), st.lists(st.tuples(coefficients(), coefficients(),
                                     st.sampled_from(["none", "dxi", "other"])),
                           min_size=1, max_size=2),
       coefficients())
def test_packed_decision_is_the_oracle_decision(f, drawn, other):
    if f.is_rational_const() or power_split(f) is None:
        return
    fields = [VectorField(xi, eta) for xi, eta, _w in drawn]
    ws = [None if w == "none" else total_derivative(X_.xi) if w == "dxi" else other
          for X_, (_xi, _eta, w) in zip(fields, drawn)]
    got, want = _decisions(fields, f, ws)
    assert got == want


def test_opaque_slots_merge_when_unpacked(monkeypatch):
    # X = B^(1/2)*Dx with B = 1 + x^2 and f = B^(1/2): pr(X)(f) = x = w*f for
    # w = x*B^(-1/2).  B^(1/2) and B^(-1/2) are two opaque slots, so the packed
    # D_X = x*B^(1/2) - (x + x^3)*B^(-1/2) is not empty; unpacked, the exact
    # tier proves it zero, as it does the oracle's
    B = 1 + X ** 2
    unpacked = []
    real = poly.Ring.unpack
    monkeypatch.setattr(poly.Ring, "unpack", lambda *a: unpacked.append(real(*a)) or unpacked[-1])
    got, want = _decisions([VectorField(B ** F(1, 2), E.ZERO)], B ** F(1, 2), [X * B ** F(-1, 2)])
    assert got == want == [True]
    assert len(unpacked) == 1 and not unpacked[0].is_zero_expr()


def _default(label):
    rec = find_record(load_catalog(), label)
    return instantiate(rec, n=default_order(rec))


def test_packed_decision_is_the_oracle_decision_on_the_catalog():
    # every invariant, lambda and D(phi) of the default instantiations, with
    # radicals, parameters, exp atoms and compound denominators, and the
    # perturbations phi + x/7 and lambda*(1 + x/7), whose D_X is unpacked
    decided, nonzero = 0, 0
    for rec in sorted(load_catalog(), key=lambda r: r.label):
        con = instantiate(rec, n=default_order(rec))
        checks = [(phi + X / 7, None) for _order, phi in con.invariants]
        checks += [(phi, None) for _order, phi in con.invariants]
        if con.lam is not None:
            checks += [(con.lam, total_derivative), (con.lam * (1 + X / 7), total_derivative)]
            if con.invariants:
                checks.append((apply_D(con.lam, con.invariants[0][1]), None))
        for f, weight in checks:
            if power_split(f) is None:
                continue
            ws = [weight(X_.xi) if weight else None for X_ in con.fields]
            got, want = _decisions(con.fields, f, ws)
            assert got == want, con.label
            decided += len(got)
            nonzero += got.count(False)
    assert decided >= 600 and nonzero >= 130


@pytest.mark.parametrize("e", [(1 << WIDTH - 1) - 2, (1 << WIDTH - 1) - 1, 1 << WIDTH - 1,
                               (1 << WIDTH) - 1, 1 << WIDTH, (1 << WIDTH) + 1, (1 << WIDTH) + 2])
def test_slot_width_guard_at_the_bound(e):
    # x holds slot 0 and y slot 1, so at width W the monomials x^(2^W) and y
    # are the same int: without the guard, D_X = x^(e-1) - y of the field
    # x^(e-1)*Dy with w = 1 on f = y would cancel at e = 2^W + 1
    got, want = _decisions([VectorField(E.ZERO, X ** (e - 1))], Y, [E.ONE])
    assert got == want == [False]
    dx, dy = VectorField(E.ONE, E.ZERO), VectorField(E.ZERO, X ** (e - 1) - Y)
    for fields, f in (([dx], X ** e - e * X * Y), ([dy], Y), ([dx, dy], X ** e * Y)):
        got, want = _decisions(fields, f, [None] * len(fields))
        assert got == want == [False] * len(fields)
    # a field coefficient with a negative power of x: an opaque slot, whose
    # products with powers of x merge only when D_X is unpacked
    lowered = VectorField(X ** (1 - e), E.ZERO)
    for w in (None, total_derivative(lowered.xi)):
        got, want = _decisions([lowered], X ** e * Y, [w])
        assert got == want


@pytest.mark.parametrize("f, zero", [(X ** 40000, True), (J(1) ** 40000 + Y ** 3, False)])
def test_a_wider_decision_ring_repacks_the_split_numerator(f, zero, monkeypatch):
    # N has degree 40,000 and is packed 17 bits wide; with the field
    # x^70000*Dy the bound on D_X's degree needs 18, so N is unpacked from its
    # ring and packed again in the wider one
    field = VectorField(E.ZERO, X ** 70000)
    split = power_split(f)
    unpacked = []
    real = poly.Ring.unpack
    monkeypatch.setattr(poly.Ring, "unpack", lambda ring, p: unpacked.append(p) or real(ring, p))
    (got, _residual), = _decide_log_derivatives(split, [prolong(field, 1)], [None])
    assert split[0].ring.W == 17 and any(p is split[0] for p in unpacked)
    assert got is zero
    monkeypatch.undo()
    want = is_zero(apply_prolonged(prolong(field, 1), f), DEFAULT_PROBE)
    assert want.is_exact and want.is_zero is zero
    verdicts = check_differential_invariant([field], f, DEFAULT_PROBE)
    assert [v.status for v in verdicts] == [want.status]


def test_seven_six_rows_make_no_expression_products_after_prolong(monkeypatch):
    # every invariant, lambda and closure row of (7,6) is ExactZero, decided
    # over packed monomials: once the fields are prolonged, no residual is
    # built and no term product of the expression kernel runs
    con = _default("(7,6)")
    for X_ in con.fields:
        prolong(X_, 6)
    closure = apply_D(con.lam, con.invariants[0][1])
    armed, calls = [False], []
    real_split, real_prolong, real_product, real_apply = (
        invariance.power_split, invariance.prolong, E._term_product, invariance.apply_prolonged)

    def split(e):
        armed[0] = False
        return real_split(e)

    def prolonged(X_, k):
        out = real_prolong(X_, k)
        armed[0] = True
        return out

    def product(*args):
        if armed[0]:
            calls.append("term product")
        return real_product(*args)

    monkeypatch.setattr(invariance, "power_split", split)
    monkeypatch.setattr(invariance, "prolong", prolonged)
    monkeypatch.setattr(E, "_term_product", product)
    monkeypatch.setattr(invariance, "apply_prolonged",
                        lambda *a: calls.append("apply") or real_apply(*a))
    rows = [check_differential_invariant(con.fields, phi, DEFAULT_PROBE)
            for _order, phi in con.invariants]
    rows += [verify_lambda(con.fields, con.lam, DEFAULT_PROBE),
             check_differential_invariant(con.fields, closure, DEFAULT_PROBE)]
    assert len(rows) == 5
    for verdicts in rows:
        assert [v.status for v in verdicts] == [ZeroStatus.EXACT_ZERO] * 6
    assert calls == []
