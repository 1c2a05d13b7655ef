"""The power-product split, the exact tier built on it, and the exact
decision of pr(X)(f) = w*f checks through the logarithmic derivative of the
split."""

import functools
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from liesym import expr as E
from liesym import invariance
from liesym.catalog import default_order, find_record, instantiate, load_catalog
from liesym.invariance import (
    _decide_log_derivatives,
    check_differential_invariant,
    relative_invariant_verdicts,
)
from liesym.invdiff import apply_D
from liesym.jet import VectorField, apply_prolonged, prolong, total_derivative
from liesym.numeric import (
    ProbeConfig,
    ZeroStatus,
    ZeroVerdict,
    _BadPoint,
    classes,
    decide_exactly,
    eval_mp,
    is_zero,
    nonzero_verdict,
    power_split,
    sample_point,
    sample_rational,
)
from eval_oracle import as_mpf
from log_derivative_oracle import log_derivative_numerator
from probe_oracle import ref_nonzero_verdict, ref_probe_verdict
from sympy_oracle import to_sympy

X = E.indep().as_expr()
Y = E.dep().as_expr()
PR = ProbeConfig(points=10, digits=50, seed=424242)


def J(k):
    return E.jet(k).as_expr()


U = 2 * J(1) * J(3) - 3 * J(2) ** 2
# the base of the (7,6) invariant phi1, with y''^(-2) inside it
K1 = (-3 * J(1) * J(2) ** 2 + J(1) ** 2 * J(3) + J(3)) / J(2) ** 2
# the base of the (28,6) invariant phi1, under a fractional power
B28 = 3 * J(2) * J(4) / J(3) ** 2 - 4
BASES = [X, J(2), 1 + J(1) ** 2, U, K1, B28]
CLASSES = [F(0), F(1, 2), F(-1, 2), F(1, 3), F(2, 3), F(-3, 2)]
ATOMS = [X, Y, J(1), J(2), J(3)]


@st.composite
def split_targets(draw):
    """sum_t coeff_t * monomial_t * prod_j B_j^(r_j + k_tj) * (-B_j)^(m_tj):
    every base keeps one exponent class r_j, and its negation only ever
    carries integer exponents."""
    picks = draw(st.lists(st.tuples(st.sampled_from(range(len(BASES))),
                                    st.sampled_from(CLASSES)),
                          min_size=1, max_size=3, unique_by=lambda t: t[0]))
    target = E.ZERO
    for _ in range(draw(st.integers(1, 3))):
        term = E.Expr.rational(F(draw(st.integers(-9, 9)) or 1, draw(st.integers(1, 5))))
        for a in ATOMS:
            term = term * a ** draw(st.integers(-1, 2))
        for j, r in picks:
            term = term * BASES[j] ** (r + draw(st.integers(-2, 2)))
            flip = draw(st.integers(-2, 1))
            if flip:
                term = term * (-BASES[j]) ** flip
        target = target + term
    return target


def _split(e):
    """power_split(e) with N unpacked to an Expr."""
    num, factors = power_split(e)
    return num.ring.unpack(num), factors


@settings(max_examples=60)
@given(split_targets())
def test_split_reproduces_the_target(target):
    assert power_split(target) is not None
    num, factors = _split(target)
    rng = random.Random(7)
    atoms = sorted(E.leaf_atoms(target), key=lambda a: a._key)
    admissible = 0
    for _ in range(400):
        point = sample_point(rng, atoms, frozenset())
        try:
            want = eval_mp(target, point, PR.digits)
        except _BadPoint:
            continue
        with mpmath.workdps(65):
            want = as_mpf(want)
            got = as_mpf(eval_mp(num, point, PR.digits))
            for P, c in factors:
                pv = as_mpf(eval_mp(P, point, PR.digits))
                if c.denominator != 1:
                    assert pv > 0  # positive wherever the target is defined
                got *= mpmath.power(pv, mpmath.mpf(c.numerator) / c.denominator)
            assert abs(got - want) <= mpmath.mpf(10) ** -40 * max(1, abs(want))
        admissible += 1
        if admissible == 5:
            break
    assert admissible > 0


@st.composite
def polynomials(draw, constant_term=True):
    """Up to three terms in x, y and y' of degree at most 2 in each, with
    small rational coefficients; no constant term when asked."""
    p = E.ZERO
    for _ in range(draw(st.integers(0, 3))):
        term = E.Expr.rational(F(draw(st.integers(-9, 9)), draw(st.integers(1, 5))))
        for a in ATOMS[:3]:
            term = term * a ** draw(st.integers(0, 2))
        if not constant_term:
            term = term * draw(st.sampled_from(ATOMS[:3]))
        p = p + term
    return p


@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials(), polynomials(constant_term=False),
       st.fractions(min_value=-4, max_value=4, max_denominator=6), st.booleans())
def test_exact_tier_decides_a_split_sum(A, B, Q, c, cancel):
    # A*P^c + B*P^(c+1) == P^c * (A + B*P), and P = 1 + (60*Q)^2 is
    # positive, with integer coefficients and content 1, so the sum is
    # zero exactly when A + B*P is
    Q = 60 * Q
    P = 1 + Q * Q
    if cancel:
        A = -B * P
    e = A * P ** c + B * P ** (c + 1)
    zero = decide_exactly(e, frozenset())
    assert zero == (A + B * P).is_zero_expr()
    assert ref_probe_verdict(e, None, PR, frozenset()).is_zero == zero


def test_split_merges_a_base_and_its_negation():
    # (16,6)-style: U under -1/2 and -U under -4 make one factor U^(-9/2)
    num, factors = _split(U ** F(-1, 2) * (-U) ** -4)
    assert num == E.ONE
    assert len(factors) == 1 and factors[0][1] == F(-9, 2)
    assert factors[0][0] == U or factors[0][0] == -U
    # an odd integer power of the negation moves its sign into N
    num, factors = _split(J(1) * (1 - J(1) ** 2) ** F(-3, 2) * (J(1) ** 2 - 1) ** -3)
    assert num == -J(1)
    assert [c for _P, c in factors] == [F(-9, 2)]
    assert factors[0][0] == 1 - J(1) ** 2


def test_split_of_a_rational_function_is_its_numerator_and_denominators():
    num, factors = _split((X + Y) / X * (J(1) - Y) ** -2)
    assert num == X + Y
    assert dict(factors) == {X: -1, J(1) - Y: -2}


@pytest.mark.parametrize("target", [
    E.transcendental("exp", X) * J(1),
    E.transcendental("arctan", J(1)) + Y,
    E.Expr.rational(2) ** F(1, 2) * J(1),
    J(2) ** F(1, 2) + J(2) ** F(1, 3),
    J(2) ** F(1, 2) + 1,
    (1 + J(1) ** 2) ** F(1, 2) * (-1 - J(1) ** 2) ** F(1, 2),
    (1 + J(1) ** F(1, 2)) ** -1,
], ids=["exp", "arctan", "constant-surd", "mixed-classes", "term-without-base",
        "both-signs-fractional", "radical-inside-a-base"])
def test_split_refuses(target):
    assert power_split(target) is None


def _default(label):
    rec = find_record(load_catalog(), label)
    return instantiate(rec, n=default_order(rec))


def test_seven_six_phi2_and_closure_are_exact_zeros():
    con = _default("(7,6)")
    order, phi2 = con.invariants[1]
    assert order == 6
    dphi = apply_D(con.lam, con.invariants[0][1])
    for target in (phi2, dphi):
        verdicts = check_differential_invariant(con.fields, target, PR)
        assert [v.status for v in verdicts] == [ZeroStatus.EXACT_ZERO] * 6


def _residual(X_, f, weighted):
    top = E.max_jet_order(f)
    r = apply_prolonged(prolong(X_, top if top is not None else 0), f)
    return r - f * total_derivative(X_.xi) if weighted else r


def _weight(X_):
    return total_derivative(X_.xi)


def _default_checks():
    """(label, fields, f, weighted, perturbed) for every invariant, lambda
    and D(phi) of the default instantiations, and for the perturbations
    phi + c*x (c*y when every xi is 0) and lambda*(1 + c*x)."""
    rng = random.Random(5)
    for rec in sorted(load_catalog(), key=lambda r: r.label):
        con = instantiate(rec, n=default_order(rec))
        all_xi_zero = all(X_.xi.is_zero_expr() for X_ in con.fields)
        shift = Y if all_xi_zero else X
        for _order, phi in con.invariants:
            c = F(rng.randint(1, 97), rng.randint(1, 97))
            yield con.label, con.fields, phi, False, False
            yield con.label, con.fields, phi + shift * c, False, True
        if con.lam is not None:
            c = F(rng.randint(1, 97), rng.randint(1, 97))
            yield con.label, con.fields, con.lam, True, False
            if not all_xi_zero:
                yield con.label, con.fields, con.lam * (X * c + 1), True, True
            if con.invariants:
                yield con.label, con.fields, apply_D(con.lam, con.invariants[0][1]), False, False


def _witness_holds(residual, verdict) -> bool:
    """The verdict's witness is an admissible point of the residual (eval_mp
    raises _BadPoint otherwise), where the residual's magnitude to 6 digits
    is the verdict's.  An atom of the residual that the witness lacks (its
    terms cancel in the residual) takes the value a seeded stream draws for
    it; the stream draws for every atom, so it does not depend on the
    witness."""
    rng = random.Random(11)
    point = {}
    for a in sorted(E.leaf_atoms(residual), key=lambda a: a._key):
        drawn = sample_rational(rng)
        point[a] = F(verdict.witness.get(E.atom_name(a), drawn))
    with mpmath.workdps(PR.digits + 15):
        value = as_mpf(eval_mp(residual, point, PR.digits))
        return mpmath.nstr(abs(value), 6) == verdict.magnitude


UPGRADES = {(ZeroStatus.EXACT_ZERO, ZeroStatus.PROBABLY_ZERO),
            (ZeroStatus.EXACT_NONZERO, ZeroStatus.PROBABLY_NONZERO)}


def _agrees_with_the_residual(verdict, residual):
    """The verdict is the one is_zero(residual) gives, or upgrades its
    probable status to the exact one; an ExactNonzero verdict's witness
    holds on the residual (`_witness_holds`), and any other verdict is
    is_zero's own."""
    probed = is_zero(residual, PR)
    if verdict.status == ZeroStatus.EXACT_NONZERO:
        assert verdict.status == probed.status or (verdict.status, probed.status) in UPGRADES
        assert verdict.witness is not None and _witness_holds(residual, verdict)
    elif verdict != probed:
        assert (verdict.status, probed.status) in UPGRADES
        assert verdict == ZeroVerdict(ZeroStatus.EXACT_ZERO)


def test_split_verdicts_agree_with_the_residual_zero_test():
    # every verdict is the one is_zero(residual) gives, or an exact verdict
    # where is_zero(residual) gives the probable one; an ExactNonzero
    # witness, found without the residual, holds on it.  More than a hundred
    # verdicts are exact although the residual holds radicals, the 37
    # nonzero ones among them proved through D_X; more than a hundred are
    # decided class by class, their targets not splitting whole
    with_radicals = nonzero_with_radicals = by_class = nonzero_by_class = rejected = 0
    for label, fields, f, weighted, perturbed in _default_checks():
        new = relative_invariant_verdicts(fields, f, _weight if weighted else None, PR)
        whole = power_split(f) is not None
        for X_, a in zip(fields, new):
            residual = _residual(X_, f, weighted)
            _agrees_with_the_residual(a, residual)
            nonzero = a.status == ZeroStatus.EXACT_NONZERO
            if a.is_exact and not E.is_rational_fragment(residual):
                with_radicals += 1
                nonzero_with_radicals += nonzero
            if a.is_exact and not whole:
                by_class += 1
                nonzero_by_class += nonzero
        if perturbed:
            assert not all(v.is_zero for v in new), label
            rejected += 1
    assert with_radicals >= 100 and nonzero_with_radicals >= 37 and rejected >= 60
    assert by_class >= 110 and nonzero_by_class >= 50


def test_witness_search_equals_the_two_walk_oracle(monkeypatch):
    # every witness search of the perturbed checks, which checks the target's
    # domain and evaluates E in one walker per point, gives the verdict of
    # two separate full evaluations, field for field, at three probe seeds
    searches = []

    def spy(e, domain, probe):
        searches.append((e, domain))
        return nonzero_verdict(e, domain, probe)

    monkeypatch.setattr(invariance, "nonzero_verdict", spy)
    for _label, fields, f, weighted, perturbed in _default_checks():
        if perturbed:
            relative_invariant_verdicts(fields, f, _weight if weighted else None, PR)
    assert len(searches) >= 150
    witnessed = 0
    for seed in (PR.seed, 1234, 2027):
        probe = ProbeConfig(points=PR.points, digits=PR.digits, seed=seed)
        for e, domain in searches:
            verdict = nonzero_verdict(e, domain, probe)
            assert verdict == ref_nonzero_verdict(e, domain, probe)
            assert verdict.status == ZeroStatus.EXACT_NONZERO
            witnessed += verdict.witness is not None
    assert witnessed == 3 * len(searches)


def test_negatives_residual_with_radicals_is_exact_nonzero():
    # the negatives workload's perturbed lambda*(1 + c*x) of (8,8): under the
    # eighth field the residual holds radicals, D_X is proved nonzero, and
    # the verdict is ExactNonzero with a witness that holds on the residual
    con = _default("(8,8)")
    f = con.lam * (X * F(3, 7) + 1)
    X_ = con.fields[7]
    residual = _residual(X_, f, True)
    assert not E.is_rational_fragment(residual)
    PX = prolong(X_, E.max_jet_order(f))
    assert decide_exactly(log_derivative_numerator(PX, _weight(X_), *_split(f)),
                          frozenset()) is False
    verdict, = relative_invariant_verdicts([X_], f, _weight, PR)
    assert verdict.status == ZeroStatus.EXACT_NONZERO
    assert verdict.witness is not None and verdict.magnitude is not None
    probed = ref_probe_verdict(residual, None, PR, frozenset())
    assert probed.status == ZeroStatus.PROBABLY_NONZERO
    assert _witness_holds(residual, verdict)


P1 = 1 + J(1) ** 2


@pytest.mark.parametrize("f,status", [
    ((P1 ** 3) ** F(1, 6) - P1 ** F(1, 2), ZeroStatus.PROBABLY_ZERO),
    (P1 ** F(1, 2) + X * Y, ZeroStatus.PROBABLY_NONZERO),
], ids=["dependent", "independent"])
def test_two_nonzero_classes_give_the_residual_verdict(f, status):
    # two classes, each with a nonzero D_X under fields that move y', may
    # cancel: (P^3)^(1/6) and P^(1/2) are one function where P > 0, but P^3
    # expands, so the kernel keeps them apart (it merges (4P)^(1/2) into
    # 2*P^(1/2)), and their difference is zero.  No class decides such a
    # verdict, which is exactly is_zero(residual)
    fields = [VectorField(E.ZERO, X * Y), VectorField(Y, E.ZERO)]
    assert power_split(f) is None
    groups = classes(f, frozenset())
    assert len(groups) == 2 and not any(lifted for _group, lifted in groups)
    splits = [power_split(group) for group, _lifted in groups]
    assert None not in splits
    prolonged = [prolong(X_, 1) for X_ in fields]
    for split in splits:
        assert [z for z, _E in _decide_log_derivatives(split, prolonged, [None, None])] \
            == [False, False]
    for X_, verdict in zip(fields, relative_invariant_verdicts(fields, f, None, PR)):
        assert verdict == is_zero(_residual(X_, f, False), PR)
        assert verdict.status == status


@functools.cache
def _radical_invariants() -> list:
    """(label, fields, phi) for every stored invariant with radicals, at the
    default orders."""
    return [(con.label, con.fields, phi)
            for con in (_default(rec.label) for rec in sorted(load_catalog(), key=lambda r: r.label))
            for _order, phi in con.invariants if not E.is_rational_fragment(phi)]


@settings(max_examples=40)
@given(st.deferred(lambda: st.sampled_from(_radical_invariants())),
       st.sampled_from([X, Y, J(1), J(2)]),
       st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool))
def test_class_verdicts_agree_with_the_residual(invariant, a, c):
    # phi + c*a holds phi's radicals and a term without them, so it does not
    # split whole; the class verdict is is_zero(residual) or upgrades it, and
    # an ExactNonzero witness holds on the residual
    label, fields, phi = invariant
    f = phi + c * a
    for X_, verdict in zip(fields, relative_invariant_verdicts(fields, f, None, PR)):
        _agrees_with_the_residual(verdict, _residual(X_, f, False))


@pytest.mark.parametrize("label,check,field", [
    ("(3,3)", "phi3", 0),
    ("(8,8)", "lambda", 3),
    ("(28,6)", "phi1", 4),
])
def test_upgraded_residuals_vanish_under_sympy(label, check, field):
    sympy = pytest.importorskip("sympy")
    con = _default(label)
    weighted = check == "lambda"
    f = con.lam if weighted else con.invariants[int(check[3:]) - 1][1]
    X_ = con.fields[field]
    residual = _residual(X_, f, weighted)
    # the residual holds radicals: the probe tier alone (the oracle without
    # the lifted step) gives a probable zero, the splits of the residual and
    # of the target prove it, and sympy confirms it independently
    assert not E.is_rational_fragment(residual)
    assert ref_probe_verdict(residual, None, PR, frozenset()).status == ZeroStatus.PROBABLY_ZERO
    assert is_zero(residual, PR).status == ZeroStatus.EXACT_ZERO
    verdict, = relative_invariant_verdicts([X_], f, _weight if weighted else None, PR)
    assert verdict.status == ZeroStatus.EXACT_ZERO
    assert sympy.simplify(to_sympy(sympy, residual)) == 0
