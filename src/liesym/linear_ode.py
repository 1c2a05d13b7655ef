"""Constant-coefficient equations from characteristic roots, and recovery of
variable coefficients from a prescribed solution set.

For distinct roots a_1..a_n the equation y^(n) = sum A_i y^(i) has
characteristic polynomial t^n - sum A_i t^i = prod (t - a_k), so the A_i are
signed elementary symmetric functions.  Complex pairs a +- ib contribute the
real solutions e^(ax)cos(bx), e^(ax)sin(bx).  Variable coefficients are
recovered from a solution set by one fraction-free elimination and an exact
back-substitution (`coeffs_from_solutions`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Sequence

from .expr import (
    Expr,
    ExprError,
    ONE,
    ZERO,
    dep,
    diff,
    indep,
    jet_or_dep,
    sum_of_products,
    transcendental,
)
from .jet import VectorField
from .liedet import eliminate


class DuplicateRoots(ExprError):
    pass


class DependentSolutions(ExprError):
    pass


class _Roots(NamedTuple):
    real_roots: tuple = ()
    complex_pairs: tuple = ()


class CharSpec(_Roots):
    """Distinct characteristic roots: real ones and complex pairs a +- ib,
    checked by the constructor, `_make` (and so `_replace`) and unpickling
    at pickle protocol 2 or later."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        roots = [(Fraction(r), Fraction(0)) for r in self.real_roots]
        for a, b in self.complex_pairs:
            if Fraction(b) == 0:
                raise ValueError("complex pair with zero imaginary part")
            roots.append((Fraction(a), Fraction(b)))
            roots.append((Fraction(a), -Fraction(b)))
        if len(set(roots)) != len(roots):
            raise DuplicateRoots("characteristic roots must be pairwise distinct")
        return self

    @classmethod
    def _make(cls, values):
        return cls(*values)

    @property
    def order(self) -> int:
        return len(self.real_roots) + 2 * len(self.complex_pairs)


class LinearOde(NamedTuple):
    """y^(order) = sum_{i} coeffs[i] * y^(i), coefficients as expressions."""

    order: int
    coeffs: tuple  # length == order, index i multiplies y^(i)

    def rhs(self) -> Expr:
        return sum_of_products((c, jet_or_dep(i).as_expr())
                               for i, c in enumerate(self.coeffs))


def _derivative_ladder(f: Expr, order: int) -> list:
    x = indep()
    out = [f]
    for _ in range(order):
        out.append(diff(out[-1], x))
    return out


def char_spec_coeffs(spec: CharSpec) -> List[Fraction]:
    """Real coefficients for a root set with complex pairs: the product of
    the real linear factors and the rational quadratics t^2 - 2a t +
    (a^2+b^2), expanded in the atom x for t."""
    t = indep().as_expr()
    factors = [t - Fraction(r) for r in spec.real_roots] + [
        t * t - 2 * Fraction(a) * t + Fraction(a) ** 2 + Fraction(b) ** 2
        for a, b in spec.complex_pairs]
    coeffs = {sum(ex for _b, ex in mono): c for mono, c in math.prod(factors, start=ONE).terms}
    return [-Fraction(coeffs.get(i, 0)) for i in range(spec.order)]


def linear_ode_from_spec(spec: CharSpec) -> LinearOde:
    coeffs = char_spec_coeffs(spec)
    return LinearOde(spec.order, tuple(Expr.rational(c) for c in coeffs))


def fundamental_solutions(spec: CharSpec) -> List[Expr]:
    """Expressions in x: e^(ax) per real root; e^(ax)cos(bx), e^(ax)sin(bx)
    per complex pair, in declaration order."""
    x = indep().as_expr()
    out = []
    for r in spec.real_roots:
        out.append(transcendental("exp", Fraction(r) * x))
    for a, b in spec.complex_pairs:
        ex, bx = transcendental("exp", Fraction(a) * x), Fraction(b) * x
        out.append(ex * transcendental("cos", bx))
        out.append(ex * transcendental("sin", bx))
    return out


# -- coefficient recovery from prescribed solutions ---------------------------

def coeffs_from_solutions(xis: Sequence[Expr], order: int, lowest_index: int) -> List[Expr]:
    """Solve xi_k^(n) = sum_{i>=lowest_index} A_i(x) xi_k^(i) for the A_i.

    Cramer's rule, A_i = det(M_i) / det(M), where M holds the derivatives
    xi_k^(i) and M_i has column i replaced by b = (xi_k^(n)): one `bareiss`
    elimination of [M | b] over the polynomial ring of :mod:`liesym.poly`
    (`liedet.eliminate`) gives det(M), then an exact back-substitution every
    det(M_i).  A_i is the polynomial quotient when det(M) divides det(M_i)
    in that ring, as it does for constant coefficients, and the expression
    fraction otherwise.
    Dependence is decided over the indeterminates of the polynomials (atoms
    and calls such as exp(x), sin(x)), so a dependence through an identity
    like sin^2 + cos^2 = 1 goes unseen.
    Returns [A_lowest, ..., A_{order-1}].
    """
    if not 0 <= lowest_index < order:
        raise ValueError("need 0 <= lowest_index < order")
    m = order - lowest_index
    if len(xis) != m:
        raise ValueError(f"need exactly {m} solutions, got {len(xis)}")
    a, sign, ring = eliminate([_derivative_ladder(f, order)[lowest_index:] for f in xis])
    det = a[-1][m - 1] if sign > 0 else ring.poly(()) - a[-1][m - 1]
    den = ring.unpack(det)
    if not sign or den.is_zero_expr():
        raise DependentSolutions("the prescribed solutions are linearly dependent")
    # row i reads sum_j a[i][j] A_j = a[i][m]; in place, a[i][m] becomes
    # det * A_i = det(M_i), a polynomial, so each division by a pivot is exact
    for i in reversed(range(m)):
        acc = det * a[i][m]
        for j in range(i + 1, m):
            acc = acc - a[i][j] * a[j][m]
        a[i][m] = acc // a[i][i]
    out = []
    for row in a:
        try:
            out.append(ring.unpack(row[m] // det))
        except ExprError:
            out.append(ring.unpack(row[m]) / den)
    return out


# -- symmetry generator sets ---------------------------------------------------

def solution_symmetries(solutions: Sequence[Expr]) -> List[VectorField]:
    """eta(x) * d/dy for each prescribed solution."""
    return [VectorField(ZERO, s) for s in solutions]


def homogeneity_symmetry() -> VectorField:
    return VectorField(ZERO, dep().as_expr())


def prop1_symmetries(xis: Sequence[Expr], lowest_index: int) -> List[VectorField]:
    """The generator set certifying a recovered equation: d/dy, y d/dy, the
    power solutions x^j below lowest_index, and each prescribed solution."""
    x = indep().as_expr()
    fields = [VectorField(ZERO, ONE), homogeneity_symmetry()]
    for j in range(1, lowest_index):
        fields.append(VectorField(ZERO, x ** j))
    fields.extend(solution_symmetries(xis))
    return fields
