"""Lie determinants: exact determinant of the prolonged coefficient matrix
of an m-dimensional algebra at order m-2, and extraction of the singular
invariant equations from its factors.

The determinant is computed by `invariance.bareiss`, the one fraction-free
elimination, over the graded ring of :mod:`liesym.poly` over the powers in
the entries.  This is exact for every matrix: the determinant is an integer
polynomial in the entries, Bareiss divisions are exact in any polynomial
ring, and substituting the powers back is a ring homomorphism.  Factor
extraction takes the rational content and the monomial factors, then the
content in the top jet (the factors common to its coefficients) and a
perfect-power root of the rest, which suffices for the catalog.  `eliminate`
also serves the Cramer solve of :mod:`liesym.linear_ode`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .expr import (
    Expr,
    ONE,
    ZERO,
    _extract_content,
    _make_term,
    _normal,
    diff,
    is_polynomial,
    jet,
    leaf_atoms,
    max_jet_order,
)
from .invariance import OdeEquation, bareiss, coefficient_matrix
from .jet import VectorField
from .numeric import nowhere_zero
from .poly import Ring


class SingularEquation(NamedTuple):
    """One vanishing factor of a Lie determinant.

    kind is "ode" when the factor is solved for its top jet, "parameter"
    when every atom of the factor is a family parameter (a degeneracy
    condition on the parameters), and "implicit" otherwise.
    """

    factor: Expr
    multiplicity: int
    kind: str
    order: int
    equation: Optional[OdeEquation]


class LieDeterminantResult(NamedTuple):
    matrix_order: int
    determinant: Expr
    factors: tuple
    constant_prefactor: Expr
    non_polynomial: bool  # some entry lies outside Q[atoms]

    def reassembled(self) -> Expr:
        return math.prod((f.pow(m) for f, m in self.factors), start=self.constant_prefactor)


def lie_determinant(fields: Sequence[VectorField]) -> LieDeterminantResult:
    m = len(fields)
    if m < 2:
        raise ValueError("a Lie determinant needs at least two generators")
    order = m - 2
    matrix = coefficient_matrix(fields, order)
    det = determinant(matrix)
    prefactor, factors = factor_polynomial(det)
    return LieDeterminantResult(
        order, det, tuple(factors), Expr.rational(prefactor),
        non_polynomial=not all(is_polynomial(e) for row in matrix for e in row))


def singular_equations(result: LieDeterminantResult) -> List[SingularEquation]:
    """Classify each factor; solve for the top jet when the factor is linear
    in it, otherwise keep it implicit.  A `nowhere_zero` monomial, or a
    factor constant where defined (each derivative zero, as of
    cos(x)^2 + sin(x)^2), vanishes nowhere and is left out."""
    out = []
    for f, mult in result.factors:
        if len(f.terms) == 1 and nowhere_zero(f.terms[0][0]) \
                or all(diff(f, a).is_zero_expr() for a in leaf_atoms(f)):
            continue
        top = max_jet_order(f)
        if not top:
            kind = "parameter" if all(a.kind == "param" for a in leaf_atoms(f)) else "implicit"
            out.append(SingularEquation(f, mult, kind, top, None))
            continue
        a = diff(f, jet(top))
        if a.is_zero_expr() or not diff(a, jet(top)).is_zero_expr():
            out.append(SingularEquation(f, mult, "implicit", top, None))
            continue
        b = f - a * jet(top).as_expr()
        rhs = -b / a
        out.append(SingularEquation(f, mult, "ode", top, OdeEquation(top, rhs)))
    return out


def eliminate(matrix: list) -> tuple:
    """(a, sign, ring): the rows `a` after `bareiss` of a matrix of expressions
    in the graded ring of its entries, wide enough for the product of two
    minors; sign 0 when a column without a pivot stopped it."""
    ring = Ring.of([e for row in matrix for e in row], 2 * len(matrix))
    a = [[ring.pack(e) for e in row] for row in matrix]
    return a, bareiss(a, ring.poly({0: 1}), False)[1], ring


def determinant(matrix: list) -> Expr:
    """Exact determinant of a square matrix of expressions: 0 at once when
    the elimination meets a column without a pivot."""
    a, sign, ring = eliminate(matrix)
    det = ring.unpack(a[-1][-1]) if sign else ZERO
    return det if sign >= 0 else -det


# -- factor extraction --------------------------------------------------------

def factor_polynomial(e: Expr) -> Tuple[Fraction, list]:
    """(prefactor, [(factor, multiplicity), ...]) with factors content-free
    and sorted by key.

    After the rational content (signed so that the leading term in graded
    lex order is positive) and the monomial factors, one rule: the factors
    common to every coefficient of the rest as a polynomial in its top jet,
    each coefficient factored by this function, are divided out; what is
    left is the k-th power of its root, for the least k >= 2 that has one,
    with the root factored again, or a factor of multiplicity 1.
    """
    if e.is_zero_expr():
        return Fraction(0), []
    content, body = _extract_content(e)
    ring = Ring.of([body], 1)
    poly = ring.pack(body)
    # the content is signed so that the leading coefficient is positive
    if poly[max(poly)] < 0:
        content, poly = -content, ring.poly(()) - poly
    factors: list = []
    # monomial part
    low = [min(col) for col in zip(*map(ring.exponents, poly))]
    if any(low):
        lm = sum(k * ring.unit(key) for key, k in zip(ring.index, low))
        poly = ring.poly({m - lm: c for m, c in poly.items()})
        factors.extend((_make_term(1, {b: u}), k) for (b, u), k in zip(ring.index, low) if k)
    rest = ring.unpack(poly)
    if rest != ONE:
        # content in the top jet v: the coefficients of the powers of v are
        # free of v, so factoring them recursively ends
        top = max_jet_order(rest)
        if top and (jet(top), 1) in ring.index:
            s, v = ring.index[(jet(top), 1)], ring.unit((jet(top), 1))
            coeffs: dict = {}
            for m, c in poly.items():
                k = ring.exponents(m)[s]
                coeffs.setdefault(k, {})[m - k * v] = c
            parts = [dict(factor_polynomial(ring.unpack(coeff))[1]) for coeff in coeffs.values()]
            common = {g: min(p[g] for p in parts) for g in parts[0] if all(g in p for p in parts)}
            if common:
                factors.extend(common.items())
                poly = poly // ring.pack(math.prod((g.pow(m) for g, m in common.items()), start=ONE))
                rest = ring.unpack(poly)
        lead = max(poly)
        deg, lead = lead >> ring.top, poly[lead]
        monic = ring.poly({m: _normal(Fraction(c, lead)) for m, c in poly.items()})
        for k in range(2, deg + 1):
            root = None if deg % k else monic.root(k)
            if root is not None:
                # p = lc(p) * root^k: the root's primitive part, factored again
                factors.extend((g, m * k) for g, m in factor_polynomial(ring.unpack(root))[1])
                break
        else:
            factors.append((rest, 1))
    factors.sort(key=lambda t: t[0]._key)
    return content, factors
