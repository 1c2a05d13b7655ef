"""Small helpers over `liesym.linear_ode` that only the tests use.

`coeffs_from_roots` is the real-root case of `char_spec_coeffs`, the
symmetric-function route that `cramer_oracle` checks; `translation_symmetry`
is the field d/dx that leaves every constant-coefficient equation invariant;
`residual` is the defect of a candidate solution; `cramer_by_determinants`
is an oracle for `coeffs_from_solutions` that takes m+1 whole determinants,
each quotient by `exact_quotient` in a ring of its own.
"""

from fractions import Fraction
from typing import List, Optional, Sequence

from liesym.expr import ONE, ZERO, Expr, ExprError
from liesym.jet import VectorField
from liesym.liedet import determinant
from liesym.linear_ode import (
    CharSpec,
    DependentSolutions,
    LinearOde,
    _derivative_ladder,
    char_spec_coeffs,
)
from liesym.poly import Ring


def coeffs_from_roots(roots: Sequence[Fraction]) -> List[Fraction]:
    """[A_0, ..., A_{n-1}] for y^(n) = sum A_i y^(i) with the given simple
    roots; raises DuplicateRoots on a repeated root."""
    return char_spec_coeffs(CharSpec(real_roots=tuple(roots)))


def translation_symmetry() -> VectorField:
    return VectorField(ONE, ZERO)


def residual(ode: LinearOde, solution: Expr) -> Expr:
    """Defect of a candidate solution (a function of x)."""
    derivs = _derivative_ladder(solution, ode.order)
    total = derivs[ode.order]
    for i, c in enumerate(ode.coeffs):
        total = total - c * derivs[i]
    return total


def cramer_by_determinants(xis: Sequence[Expr], order: int, lowest_index: int) -> List[Expr]:
    """`coeffs_from_solutions` by Cramer's rule over separate determinants:
    A_i = det(M_i) / det(M), with det(M) and each det(M_i) computed on its
    own matrix."""
    ladders = [_derivative_ladder(f, order) for f in xis]
    rows = [lad[lowest_index:order] for lad in ladders]
    den = determinant(rows)
    if den.is_zero_expr():
        raise DependentSolutions("the prescribed solutions are linearly dependent")
    out = []
    for i in range(len(rows)):
        num = determinant([row[:i] + [lad[order]] + row[i + 1:]
                           for row, lad in zip(rows, ladders)])
        quot = exact_quotient(num, den)
        out.append(quot if quot is not None else num / den)
    return out


def exact_quotient(p: Expr, q: Expr) -> Optional[Expr]:
    """p / q when q divides p in the polynomial ring over the powers of
    p and q (see :mod:`liesym.poly`), else None."""
    ring = Ring.of([p, q], 1)
    try:
        return ring.unpack(ring.pack(p) // ring.pack(q))
    except ExprError:
        return None
