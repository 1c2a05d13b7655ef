"""Invariant differentiation operators and the two-invariant recursion."""

from fractions import Fraction as F

import pytest

from liesym import expr as E
from liesym.invariance import check_differential_invariant
from liesym.invdiff import apply_D, verify_lambda
from liesym.jet import MaxOrderExceeded, VectorField, total_derivative
from liesym.numeric import ProbeConfig, ZeroStatus

from invdiff_helpers import DegenerateDenominator, functional_rank, lie_recursion

X = E.indep().as_expr()
Y = E.dep().as_expr()
PR = ProbeConfig(points=8, digits=50, seed=19)
DX = VectorField(E.ONE, E.ZERO)
DY = VectorField(E.ZERO, E.ONE)


def J(k):
    return E.jet(k).as_expr()


def gens55():
    return [DX, DY, VectorField(X, -Y), VectorField(Y, E.ZERO), VectorField(E.ZERO, X)]


def gens15():
    return [DX, DY, VectorField(X, E.ZERO), VectorField(E.ZERO, Y),
            VectorField(X ** 2, E.ZERO)]


def test_unit_lambda_for_translations():
    vs = verify_lambda([DX, DY], E.ONE, PR)
    assert [v.status for v in vs] == [ZeroStatus.EXACT_ZERO] * 2


def test_tabulated_lambdas():
    vs = verify_lambda(gens55(), J(2) ** F(-1, 3), PR)
    assert all(v.is_zero for v in vs)
    lam15 = J(1) * (2 * J(1) * J(3) - 3 * J(2) ** 2) ** F(-1, 2)
    vs = verify_lambda(gens15(), lam15, PR)
    assert all(v.is_zero for v in vs)


def test_lambda_rescaling_still_satisfies_pde():
    for gens, lam in [
        (gens55(), J(2) ** F(-1, 3)),
        (gens15(), J(1) * (2 * J(1) * J(3) - 3 * J(2) ** 2) ** F(-1, 2)),
        ([DX, DY], E.ONE),
    ]:
        vs = verify_lambda(gens, 2 * lam, PR)
        assert all(v.is_zero for v in vs)


def test_apply_D_trivial():
    assert apply_D(E.ONE, J(1)) == J(2)


def test_apply_D_produces_next_invariant():
    phi1 = J(4) * J(2) ** F(-5, 3) - F(5, 3) * J(3) ** 2 * J(2) ** F(-8, 3)
    dphi = apply_D(J(2) ** F(-1, 3), phi1)
    vs = check_differential_invariant(gens55(), dphi, PR)
    assert all(v.is_zero for v in vs)
    # tabulated phi2 agrees with D(phi1) modulo functions of phi1
    phi2 = (J(2) ** 2 * J(5) + F(40, 9) * J(3) ** 3 - 5 * J(2) * J(3) * J(4)) / J(2) ** 4
    assert functional_rank([phi1, dphi, phi2], PR) == 2


def test_apply_D_order_cap():
    with pytest.raises(MaxOrderExceeded):
        apply_D(E.ONE, J(12))


def test_quotient_of_derivatives_is_invariant():
    # Lie's theorem on the translation pair: Dx(v)/Dx(u) is invariant
    u, v = J(1), J(2)
    ratio = total_derivative(v) / total_derivative(u)
    vs = check_differential_invariant([DX, DY], ratio, PR)
    assert all(v_.is_zero for v_ in vs)


def test_lie_recursion_trivial_chain():
    ws = lie_recursion(X, Y, 2)
    assert ws[0] == Y
    assert ws[1] == J(1)
    assert ws[2] == J(2) / J(1)


def test_lie_recursion_degenerate_denominator():
    with pytest.raises(DegenerateDenominator):
        lie_recursion(E.ONE, Y, 1)


def test_lie_recursion_projective_x_algebra():
    # from w0 = y and the third-order invariant, one step lands on an
    # expression jointly annihilated with the tabulated fourth-order one
    gens = [DX, VectorField(X, E.ZERO), VectorField(X ** 2, E.ZERO)]
    w0 = Y
    w3 = F(2, 3) * J(1) ** -3 * J(3) - J(1) ** -4 * J(2) ** 2
    ws = lie_recursion(w0, w3, 1)
    candidate = ws[-1]
    vs = check_differential_invariant(gens, candidate, PR)
    assert all(v.is_zero for v in vs)
    w4 = J(4) * J(1) ** -4 + 6 * J(2) ** 3 * J(1) ** -6 - 6 * J(2) * J(3) * J(1) ** -5
    vs = check_differential_invariant(gens, w4, PR)
    assert all(v.is_zero for v in vs)
    assert functional_rank([w0, w3, candidate], PR) == 3
    assert functional_rank([w0, w3, candidate, w4], PR) == 3


def test_half_plane_fourth_order_via_operator():
    # applying the tabulated operator to the third-order invariant gives a
    # certified fourth-order invariant
    gens = [DY, VectorField(X, Y), VectorField(2 * X * Y, Y ** 2 - X ** 2)]
    w3 = X ** 2 * J(3) * (1 + J(1) ** 2) ** -2 \
        - 3 * X ** 2 * J(1) * J(2) ** 2 * (1 + J(1) ** 2) ** -3
    lam = X * (1 + J(1) ** 2) ** F(-1, 2)
    vs = verify_lambda(gens, lam, PR)
    assert all(v.is_zero for v in vs)
    w4 = apply_D(lam, w3)
    vs = check_differential_invariant(gens, w4, PR)
    assert all(v.is_zero for v in vs)
