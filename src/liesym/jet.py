"""Jet-space machinery: total derivative, prolongation, canonical form.

A point vector field xi(x,y)*Dx + eta(x,y)*Dy is prolonged to order k by the
recursion eta[j] = D_x(eta[j-1]) - y^(j) * D_x(xi) with eta[0] = eta, where
D_x is the total derivative.  The coefficient eta[j] involves jets of order
at most j.

D_x and pr(X) are derivations, fixed by their values on the coordinates
(D_x: x -> 1, y^(k) -> y^(k+1); pr(X): x -> xi, y -> eta, y^(k) -> eta[k]),
so `expr._derive` applies each in one pass, not once per coordinate.

Prolongation is memoized by field value: each field keeps D_x(xi) and the
coefficients built so far, and a higher order extends that list, so a field
is prolonged once per process whatever the orders asked of it.
"""

from __future__ import annotations

from typing import NamedTuple

from .expr import ONE, Expr, ExprError, _derive, indep, jet_or_dep, max_jet_order

# The one jet-order ceiling: prolongation, total derivatives, the parser
# and the harness's check plan all stop here.
MAX_JET_ORDER = 12

# The coordinates x, y, y', ..., y^(MAX_JET_ORDER), built once.
_COORDS = (indep(),) + tuple(jet_or_dep(k) for k in range(MAX_JET_ORDER + 1))

# D_x on the coordinates: x -> 1 and y^(k) -> y^(k+1) below the ceiling.
_DX_VALUES = dict(zip(_COORDS[:-1], (ONE,) + tuple(a.as_expr() for a in _COORDS[2:])))


class MaxOrderExceeded(ExprError):
    pass


class OrderMismatch(ExprError):
    pass


class _FieldCoefficients(NamedTuple):
    xi: Expr
    eta: Expr


class VectorField(_FieldCoefficients):
    """xi * d/dx + eta * d/dy with coefficients depending on x, y only,
    checked by the constructor, `_make` (and so `_replace`) and unpickling
    at pickle protocol 2 or later."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, e in zip(self._fields, self):
            order = max_jet_order(e)
            if order is not None and order > 0:
                raise ValueError(f"{name} coefficient must not contain jet atoms")
        return self

    @classmethod
    def _make(cls, values):
        return cls(*values)


class ProlongedField(NamedTuple):
    base: VectorField
    order: int
    coeffs: tuple  # (eta[1], ..., eta[order])
    dxi: Expr  # D_x(xi), the multiplier of the lambda PDE


def total_derivative(e: Expr) -> Expr:
    """D_x e, exact.  Refuses input already at the jet ceiling because the
    result would introduce order MAX_JET_ORDER + 1."""
    top = max_jet_order(e)
    if top is not None and top >= MAX_JET_ORDER:
        raise MaxOrderExceeded(
            f"expression already contains jet order {top} >= limit {MAX_JET_ORDER}")
    return _derive(e, _DX_VALUES)


# VectorField -> [D_x(xi), [eta[1], eta[2], ...]].
_PROLONG_CACHE: dict = {}


def prolong(X: VectorField, k: int) -> ProlongedField:
    """Prolongation to order k (0 <= k <= MAX_JET_ORDER)."""
    if k < 0:
        raise ValueError("prolongation order must be >= 0")
    if k > MAX_JET_ORDER:
        raise MaxOrderExceeded(f"prolongation order {k} exceeds limit {MAX_JET_ORDER}")
    entry = _PROLONG_CACHE.get(X)
    if entry is None:
        entry = _PROLONG_CACHE[X] = [total_derivative(X.xi), []]
    dxi, coeffs = entry
    for j in range(len(coeffs) + 1, k + 1):
        prev = coeffs[-1] if coeffs else X.eta
        coeffs.append(total_derivative(prev) - _COORDS[j + 1].as_expr() * dxi)
    return ProlongedField(X, k, tuple(coeffs[:k]), dxi)


def apply_prolonged(PX: ProlongedField, e: Expr) -> Expr:
    """Apply the prolonged field as a derivation on a jet-space function."""
    top = max_jet_order(e)
    if top is not None and top > PX.order:
        raise OrderMismatch(
            f"expression has jet order {top} but the field is prolonged to {PX.order}")
    return _derive(e, dict(zip(_COORDS, (PX.base.xi, PX.base.eta) + PX.coeffs)))


def coefficient_row(X: VectorField, order: int) -> list:
    """[xi, eta, eta[1], ..., eta[order]] for rank and determinant matrices."""
    pf = prolong(X, order)
    return [X.xi, X.eta, *pf.coeffs]
