"""Lie determinants: exact determinant of the prolonged coefficient matrix
of an m-dimensional algebra at order m-2, and extraction of the singular
invariant equations from its factors.

The determinant is computed by `invariance.bareiss`, the one fraction-free
elimination, over a polynomial ring with an in-place exact division under
lex order (`_Dense`).  Its indeterminates are the powers that occur in the
entries: b^k with k a positive integer is the k-th power of the indeterminate
b, and any other power b^e (a negative or fractional exponent, a compound or
constant base) is an indeterminate of its own.  This is exact for every
matrix: the determinant is an integer polynomial in the entries, Bareiss
divisions are exact in any polynomial ring, and substituting the powers back
is a ring homomorphism, under which exponents of one base add up.  On
entries in Q[atoms] the indeterminates are just the atoms.  Factor
extraction takes the rational content and the monomial factors, then the
content in the top jet (the factors common to its coefficients) and a
perfect-power root of the rest, which suffices for the catalog.
`eliminate` and `exact_quotient` also serve the Cramer solve of
:mod:`liesym.linear_ode`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add, sub
from typing import List, Optional, Sequence, Tuple

from .expr import (
    Expr,
    ExprError,
    ONE,
    _base_key,
    _extract_content,
    _make_term,
    _normal,
    diff,
    expr_sum,
    is_polynomial,
    jet,
    leaf_atoms,
    max_jet_order,
)
from .invariance import OdeEquation, bareiss, coefficient_matrix
from .jet import VectorField


@dataclass(frozen=True)
class SingularEquation:
    """One vanishing factor of a Lie determinant.

    kind is "ode" when the factor is solved for its top jet, "parameter"
    when every atom of the factor is a family parameter (a degeneracy
    condition on the parameters), and "implicit" otherwise.
    """

    factor: Expr
    multiplicity: int
    kind: str
    order: int
    equation: Optional[OdeEquation] = None


@dataclass(frozen=True)
class LieDeterminantResult:
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
    in it, otherwise keep it implicit.  A product of `exp` calls, or a factor
    constant where defined (each derivative zero, as of cos(x)^2 + sin(x)^2),
    vanishes nowhere and is left out."""
    out = []
    for f, mult in result.factors:
        if len(f.terms) == 1 and all(getattr(b, "fn", "") == "exp" for b, _e in f.terms[0][0]) \
                or all(diff(f, a).is_zero_expr() for a in leaf_atoms(f)):
            continue
        top = max_jet_order(f)
        if not top:
            kind = "parameter" if all(a.kind == "param" for a in leaf_atoms(f)) else "implicit"
            out.append(SingularEquation(f, mult, kind, order=top))
            continue
        a = diff(f, jet(top))
        if a.is_zero_expr() or not diff(a, jet(top)).is_zero_expr():
            out.append(SingularEquation(f, mult, "implicit", order=top))
            continue
        b = f - a * jet(top).as_expr()
        rhs = -b / a
        out.append(SingularEquation(f, mult, "ode", order=top,
                                    equation=OdeEquation(top, rhs)))
    return out


# -- dense polynomial helpers -------------------------------------------------

def _unit(ex) -> tuple:
    """(unit exponent u, power k) with b^ex = (b^u)^k: u = 1 for a positive
    integer exponent, else u = ex and k = 1."""
    if ex.denominator == 1 and ex > 0:
        return 1, ex
    return ex, 1


def _poly_vars(exprs) -> list:
    """The indeterminates (base, unit exponent) of the given expressions."""
    vars = set()
    for e in exprs:
        for mono, _ in e._terms:
            for b, ex in mono:
                vars.add((b, _unit(ex)[0]))
    return sorted(vars, key=lambda v: (_base_key(v[0]), v[1]))


def _dense(e: Expr, vars: list) -> _Dense:
    index = {v: i for i, v in enumerate(vars)}
    out = _Dense()
    for mono, coeff in e._terms:
        exps = [0] * len(vars)
        for b, ex in mono:
            u, k = _unit(ex)
            exps[index[(b, u)]] = k
        out[tuple(exps)] = coeff
    return out


def _from_dense(d: dict, vars: list) -> Expr:
    def term(coeff, exps):
        items: dict = {}
        for (b, u), k in zip(vars, exps):
            if k:
                items[b] = items.get(b, 0) + u * k
        return _make_term(coeff, items)

    return expr_sum(term(coeff, exps) for exps, coeff in d.items())


def _grlex_key(exps: tuple):
    return (sum(exps), exps)


def _dense_mul(a: dict, b: dict) -> _Dense:
    out = _Dense()
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(map(add, ea, eb))
            cur = out.get(key, 0) + ca * cb
            if cur:
                out[key] = cur
            else:
                del out[key]
    return out


def _dense_sub(a: dict, b: dict) -> _Dense:
    out = _Dense(a)
    for e, c in b.items():
        cur = out.get(e, 0) - c
        if cur:
            out[e] = cur
        else:
            del out[e]
    return out


def _dense_div_exact(p: dict, q: dict) -> _Dense:
    """Exact division p / q in Q[vars]; raises ExprError if not exact.  Each
    step subtracts (quotient of the leading terms) * q from the remainder in
    place.  Leading terms are taken in lex order, the order of the exponent
    tuples: an exact quotient is the same under every monomial order."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = dict(p)
    quot = _Dense()
    lq = max(q)
    cq = q[lq]
    while rem:
        lr = max(rem)
        exps = tuple(map(sub, lr, lq))
        if min(exps, default=0) < 0:
            raise ExprError("inexact polynomial division")
        c = quot[exps] = _normal(Fraction(rem[lr], cq))
        for e, v in q.items():
            key = tuple(map(add, exps, e))
            cur = rem.get(key, 0) - c * v
            if cur:
                rem[key] = cur
            else:
                del rem[key]
    return quot


class _Dense(dict):
    """A polynomial as {exponent tuple: coefficient}, for `bareiss`."""
    __mul__, __sub__, __floordiv__ = _dense_mul, _dense_sub, _dense_div_exact


def exact_quotient(p: Expr, q: Expr) -> Optional[Expr]:
    """p / q when q divides p in the polynomial ring over the powers of
    p and q (see the module docstring), else None."""
    vars = _poly_vars([p, q])
    try:
        return _from_dense(_dense_div_exact(_dense(p, vars), _dense(q, vars)), vars)
    except ExprError:
        return None


def eliminate(matrix: list) -> tuple:
    """(a, sign, vars): the rows `a` after `bareiss` of a matrix of expressions
    as dense polynomials over the indeterminates `vars` of all its entries;
    sign 0 when a column without a pivot stopped it."""
    vars = _poly_vars(e for row in matrix for e in row)
    a = [[_dense(e, vars) for e in row] for row in matrix]
    return a, bareiss(a, _Dense({(0,) * len(vars): 1}), False)[1], vars


def determinant(matrix: list) -> Expr:
    """Exact determinant of a square matrix of expressions: 0 at once when
    the elimination meets a column without a pivot."""
    a, sign, vars = eliminate(matrix)
    det = _from_dense(a[-1][-1] if sign else _Dense(), vars)
    return det if sign >= 0 else -det


# -- factor extraction --------------------------------------------------------

def factor_polynomial(e: Expr) -> Tuple[Fraction, list]:
    """(prefactor, [(factor, multiplicity), ...]) with factors content-free.

    After the rational content (signed so that the leading term is
    positive) and the monomial factors, one rule: the factors common to
    every coefficient of the rest as a polynomial in its top jet, each
    coefficient factored by this function, are divided out; what is left
    is the k-th power of its root, for the least k >= 2 that has one, with
    the root factored again, or a factor of multiplicity 1.
    """
    if e.is_zero_expr():
        return Fraction(0), []
    content, body = _extract_content(e)
    vars = _poly_vars([body])
    dense = _dense(body, vars)
    # the content is signed so that the leading coefficient is positive
    if dense[max(dense, key=_grlex_key)] < 0:
        content = -content
        dense = {ex: -c for ex, c in dense.items()}
    factors: list = []
    # monomial part
    mins = [min(ex[i] for ex in dense) for i in range(len(vars))]
    if any(mins):
        dense = {tuple(x - mn for x, mn in zip(ex, mins)): c for ex, c in dense.items()}
        for (b, u), mn in zip(vars, mins):
            if mn:
                factors.append((_make_term(1, {b: u}), mn))
    rest = _from_dense(dense, vars)
    if rest == ONE:
        return content, factors
    # content in the top jet v: the coefficients of the powers of v are free
    # of v, so factoring them recursively ends
    top = max_jet_order(rest)
    if top and (jet(top), 1) in vars:
        i = vars.index((jet(top), 1))
        coeffs: dict = {}
        for ex, c in dense.items():
            coeffs.setdefault(ex[i], {})[ex[:i] + (0,) + ex[i + 1:]] = c
        common = None
        for coeff in coeffs.values():
            parts = dict(factor_polynomial(_from_dense(coeff, vars))[1])
            common = parts if common is None else {
                g: min(m, parts[g]) for g, m in common.items() if g in parts}
        if common:
            factors.extend(common.items())
            divisor = math.prod((g.pow(m) for g, m in common.items()), start=ONE)
            rest = exact_quotient(rest, divisor)
            dense = _dense(rest, vars)
    total_deg = max(map(sum, dense))
    lead = dense[max(dense, key=_grlex_key)]
    monic = {ex: _normal(Fraction(c, lead)) for ex, c in dense.items()}
    for k in range(2, total_deg + 1):
        root = None if total_deg % k else _dense_root(monic, k)
        if root is not None:
            # p = lc(p) * root^k: the root's primitive part, factored again
            factors.extend((g, m * k) for g, m in factor_polynomial(_from_dense(root, vars))[1])
            break
    else:
        factors.append((rest, 1))
    factors.sort(key=lambda t: t[0]._key)
    return content, factors


def _dense_root(p: dict, k: int):
    """The monic k-th root of a monic polynomial p, or None.  Each step adds
    the term that cancels the leading term of p - root^k, so that leading
    term falls in grlex order and the loop ends."""
    lead = max(p, key=_grlex_key)
    if any(x % k for x in lead):
        return None
    b0 = tuple(x // k for x in lead)
    root = {b0: 1}
    # the leading term of k * root^(k-1)
    div = tuple(x * (k - 1) for x in b0)
    while True:
        rem = _dense_sub(p, reduce(_dense_mul, [root] * k))
        if not rem:
            return root
        lr = max(rem, key=_grlex_key)
        exps = tuple(map(sub, lr, div))
        if min(exps) < 0 or _grlex_key(exps) >= _grlex_key(b0):
            return None
        root[exps] = _normal(Fraction(rem[lr], k))
