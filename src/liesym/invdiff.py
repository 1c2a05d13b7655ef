"""Invariant differentiation: certify lambda candidates against the defining
linear PDE pr(X)(lambda) = lambda * D_x(xi), and apply D = lambda * D_x to
climb from an invariant of order k to one of order k+1."""

from __future__ import annotations

from typing import List, Sequence

from .expr import Expr
from .invariance import relative_invariant_verdicts
from .jet import VectorField, prolong, total_derivative
from .numeric import ProbeConfig, ZeroVerdict


def verify_lambda(fields: Sequence[VectorField], lam: Expr,
                  probe: ProbeConfig) -> List[ZeroVerdict]:
    """Per-field verdict on pr(X)(lambda) - lambda * D_x(xi)."""
    return relative_invariant_verdicts(fields, lam, lambda X: prolong(X, 0).dxi, probe)


def apply_D(lam: Expr, phi: Expr) -> Expr:
    """D(phi) = lambda * D_x(phi), normalized; raises MaxOrderExceeded at
    the jet cap."""
    return lam * total_derivative(phi)
