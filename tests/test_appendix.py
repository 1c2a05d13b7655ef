"""Cross-checks among the appendix invariants and their operators."""

import random

import mpmath
import pytest

from liesym import expr as E
from liesym.catalog import find_record, instantiate, load_catalog
from liesym.invariance import check_differential_invariant
from liesym.jet import apply_prolonged, coefficient_row, prolong, total_derivative
from liesym.numeric import (
    ProbeConfig,
    SamplingExhausted,
    ZeroStatus,
    eval_mp,
    is_zero,
    sample_point,
)

from eval_oracle import as_mpf
from invdiff_helpers import functional_rank
from probe_oracle import ref_probe_verdict

RECORDS = load_catalog()
PR = ProbeConfig(points=20, digits=50, seed=42)


def rec(label):
    return instantiate(find_record(RECORDS, label))


def test_spiral_algebra_fourth_order_identity():
    # w4 equals lambda*Dx(w3) divided by w2, exactly
    con = rec("(1,3)")
    w2, w3, w4 = (con.invariants[i][1] for i in range(3))
    cand = con.lam * total_derivative(w3) / w2
    assert is_zero(cand - w4, PR).status == ZeroStatus.EXACT_ZERO


def test_half_plane_operator_step_is_jointly_dependent():
    # lambda*Dx(w3) and the tabulated w4 generate the same order-4 content:
    # with d4 = 3 for a three-dimensional algebra the Jacobian rank stays 3
    con = rec("(2,3)")
    w2, w3, w4 = (con.invariants[i][1] for i in range(3))
    cand = con.lam * total_derivative(w3)
    vs = check_differential_invariant(con.fields, cand, PR)
    assert all(v.is_zero for v in vs)
    assert functional_rank([w2, w3, cand], PR) == 3
    assert functional_rank([w2, w3, cand, w4], PR) == 3


def test_sphere_algebra_operator_step():
    con = rec("(3,3)")
    w2, w3, w4 = (con.invariants[i][1] for i in range(3))
    cand = con.lam * total_derivative(w3)
    vs = check_differential_invariant(con.fields, cand, PR)
    assert all(v.is_zero for v in vs)
    assert functional_rank([w2, w3, cand, w4], PR) == 3


def test_hyperbolic_branch_domains_are_disjoint():
    # the tabulated fourth-order form lives on y' > 1 while the operator
    # route needs |y'| < 1; a joint probe is identically inadmissible and
    # the sampler reports it rather than fabricating a verdict
    con = rec("(17,3)")
    w3, w4 = con.invariants[1][1], con.invariants[2][1]
    cand = con.lam * total_derivative(w3)
    quick = ProbeConfig(points=4, digits=50, seed=42)
    with pytest.raises(SamplingExhausted):
        is_zero(cand - w4, quick)
    # each side is certified on its own branch
    vs = check_differential_invariant(con.fields, cand, PR)
    assert all(v.is_zero for v in vs)
    vs = check_differential_invariant(con.fields, w4, PR)
    assert all(v.is_zero for v in vs)


def test_affine_algebra_residual_tier_and_finite_differences():
    # the shear-generator residual of the fifth-order invariant, which holds
    # radicals, is proved zero through its power-product split; the probe
    # tier on its own (the oracle without the lifted step) agrees, and a
    # directional finite difference at one probe point agrees with the
    # symbolic evaluation
    con = rec("(6,6)")
    phi1 = con.invariants[0][1]
    X4 = con.fields[3]  # y * d/dx
    residual = apply_prolonged(prolong(X4, 5), phi1)
    assert not E.is_rational_fragment(residual)
    assert is_zero(residual, PR).status == ZeroStatus.EXACT_ZERO
    probed = ref_probe_verdict(residual, None, PR, frozenset())
    assert probed.status == ZeroStatus.PROBABLY_ZERO
    assert probed.points_tested == 20 and probed.precision_digits == 50

    atoms = sorted(E.leaf_atoms(phi1) | E.leaf_atoms(X4.xi) | {E.indep(), E.dep()},
                   key=lambda a: a._key)
    jets = [E.indep(), E.dep()] + [E.jet(k) for k in range(1, 6)]
    rng = random.Random(2024)
    digits = 60
    with mpmath.workdps(digits + 15):
        h = mpmath.mpf(10) ** -20
        for _ in range(200):
            point = sample_point(rng, jets, frozenset())
            try:
                direction = [as_mpf(eval_mp(c, point, digits))
                             for c in coefficient_row(X4, 5)]

                def at(sign):
                    shifted = {}
                    for a, d in zip(jets, direction):
                        base = mpmath.mpf(point[a].numerator) / point[a].denominator
                        shifted[a] = base + sign * h * d
                    return _eval_float(phi1, shifted)

                fd = (at(1) - at(-1)) / (2 * h)
            except (_Inadmissible, Exception) as exc:
                if isinstance(exc, _Inadmissible):
                    continue
                continue
            assert abs(fd) < mpmath.mpf(10) ** -25
            return
    pytest.fail("no admissible finite-difference point found")


class _Inadmissible(Exception):
    pass


def _eval_float(e, point):
    total = mpmath.mpf(0)
    for mono, coeff in e.terms:
        v = mpmath.mpf(coeff.numerator) / coeff.denominator
        for b, ex in mono:
            if isinstance(b, E.Atom):
                bv = point[b]
            elif isinstance(b, int):
                bv = mpmath.mpf(b)
            else:
                bv = _eval_float(b, point)
            if ex.denominator == 1:
                v *= bv ** ex.numerator
            else:
                if bv <= 0:
                    raise _Inadmissible
                v *= bv ** (mpmath.mpf(ex.numerator) / ex.denominator)
        total += v
    return total


def test_equivalent_presentations_certified():
    for label in ("(6,6)", "(16,6)", "(7,6)", "(28,6)", "(8,8)"):
        con = rec(label)
        assert con.equivalences, label
        for ea, eb, pos in con.equivalences:
            v = is_zero(ea - eb, PR, positive=pos)
            assert v.is_zero, label
