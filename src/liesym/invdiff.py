"""Invariant differentiation: certify lambda candidates against the defining
linear PDE pr(X)(lambda) = lambda * D_x(xi), and apply D = lambda * D_x to
climb from an invariant of order k to one of order k+1."""

from __future__ import annotations

from typing import List, Sequence

import mpmath

from .expr import Expr, diff, leaf_atoms
from .invariance import generic_rank, relative_invariant_verdicts
from .jet import VectorField, total_derivative
from .numeric import DEFAULT_PROBE, ProbeConfig, ZeroVerdict, eval_mp


def verify_lambda(fields: Sequence[VectorField], lam: Expr,
                  probe: ProbeConfig = DEFAULT_PROBE) -> List[ZeroVerdict]:
    """Per-field verdict on pr(X)(lambda) - lambda * D_x(xi)."""
    return relative_invariant_verdicts(fields, lam, lambda X: total_derivative(X.xi), probe)


def apply_D(lam: Expr, phi: Expr) -> Expr:
    """D(phi) = lambda * D_x(phi), normalized; raises MaxOrderExceeded at
    the jet cap."""
    return lam * total_derivative(phi)


def functional_rank(exprs: Sequence[Expr], probe: ProbeConfig = DEFAULT_PROBE) -> int:
    """Generic rank of the Jacobian of the given jet-space functions with
    respect to all their coordinates, estimated at high precision at 4
    sample points.

    Used to certify functional dependence: for invariants {phi1, D(phi1),
    phi2} the rank stays at 2 even when the tabulated phi2 differs from
    D(phi1) by a function of phi1.
    """
    atoms = set()
    for e in exprs:
        atoms |= leaf_atoms(e)
    atoms = sorted(atoms, key=lambda a: a._key)
    jac = [[diff(e, a) for a in atoms] for e in exprs]
    with mpmath.workdps(probe.digits + 15):
        tol = mpmath.mpf(10) ** (-(probe.digits // 2))
        best, _points = generic_rank(
            jac, probe, 4, lambda e, point: eval_mp(e, point, probe.digits), tol)
    return best
