"""Lie determinants: exact determinant of the prolonged coefficient matrix
of an m-dimensional algebra at order m-2, and extraction of the singular
invariant equations from its factors.

The determinant is computed by fraction-free Bareiss elimination (Bareiss,
Math. Comp. 1968) over a polynomial ring with exact multivariate division
under graded-lex.  Its indeterminates are the powers that occur in the
entries: b^k with k a positive integer is the k-th power of the indeterminate
b, and any other power b^e (a negative or fractional exponent, a compound or
constant base) is an indeterminate of its own.  This is exact for every
matrix: the determinant is an integer polynomial in the entries, Bareiss
divisions are exact in any polynomial ring, and substituting the powers back
is a ring homomorphism, under which exponents of one base add up.  On
entries in Q[atoms] the indeterminates are just the atoms.  Factor
extraction covers rational content, monomials and perfect powers of a
multi-term polynomial, which suffices for the catalog.  `determinant` and
`exact_quotient` also serve the Cramer solve of :mod:`liesym.linear_ode`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .expr import (
    Expr,
    ExprError,
    ONE,
    ZERO,
    _base_key,
    _extract_content,
    _make_term,
    _normal,
    diff,
    expr_sum,
    is_polynomial,
    jet,
    max_jet_order,
)
from .invariance import OdeEquation, coefficient_matrix
from .jet import VectorField
from .numeric import _exact_root


@dataclass(frozen=True)
class SingularEquation:
    """One vanishing factor of a Lie determinant.

    kind is "ode" when the factor is solved for its top jet, "parameter"
    when the factor involves no jet coordinates (a degeneracy condition on
    the family parameters), and "implicit" otherwise.
    """

    factor: Expr
    multiplicity: int
    kind: str
    order: Optional[int] = None
    equation: Optional[OdeEquation] = None


@dataclass(frozen=True)
class LieDeterminantResult:
    matrix_order: int
    determinant: Expr
    factors: tuple
    constant_prefactor: Expr
    non_polynomial: bool = False  # some entry lies outside Q[atoms]

    def reassembled(self) -> Expr:
        out = self.constant_prefactor
        for f, mult in self.factors:
            out = out * f.pow(mult)
        return out


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
    """Classify each non-constant factor; solve for the top jet when the
    factor is linear in it, otherwise keep it implicit."""
    out = []
    for f, mult in result.factors:
        top = max_jet_order(f)
        if top is None or top == 0:
            kind = "parameter" if top is None else "implicit"
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


def _dense(e: Expr, vars: list) -> dict:
    index = {v: i for i, v in enumerate(vars)}
    out = {}
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


def _dense_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            cur = out.get(key)
            c = ca * cb
            if cur is None:
                out[key] = c
            else:
                cur = cur + c
                if cur:
                    out[key] = cur
                else:
                    del out[key]
    return out


def _dense_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        cur = out.get(e)
        if cur is None:
            out[e] = -c
        else:
            cur = cur - c
            if cur:
                out[e] = cur
            else:
                del out[e]
    return out


def _dense_div_exact(p: dict, q: dict) -> dict:
    """Exact division p / q in Q[vars]; raises ExprError if not exact."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    if not p:
        return {}
    rem = dict(p)
    quot: dict = {}
    lq = max(q, key=_grlex_key)
    cq = q[lq]
    while rem:
        lr = max(rem, key=_grlex_key)
        exps = tuple(a - b for a, b in zip(lr, lq))
        if any(x < 0 for x in exps):
            raise ExprError("inexact polynomial division")
        c = _normal(Fraction(rem[lr], cq))
        quot[exps] = quot.get(exps, 0) + c
        rem = _dense_sub(rem, _dense_mul({exps: c}, q))
    return quot


def exact_quotient(p: Expr, q: Expr) -> Optional[Expr]:
    """p / q when q divides p in the polynomial ring over the powers of
    p and q (see the module docstring), else None."""
    vars = _poly_vars([p, q])
    try:
        return _from_dense(_dense_div_exact(_dense(p, vars), _dense(q, vars)), vars)
    except ExprError:
        return None


def determinant(matrix: list) -> Expr:
    """Exact determinant of a square matrix of expressions (Bareiss)."""
    m = len(matrix)
    vars = _poly_vars(e for row in matrix for e in row)
    a = [[_dense(e, vars) for e in row] for row in matrix]
    sign = 1
    prev: dict = {tuple([0] * len(vars)): 1}
    for k in range(m - 1):
        if not a[k][k]:
            pivot_row = next((i for i in range(k + 1, m) if a[i][k]), None)
            if pivot_row is None:
                return ZERO  # column k is zero from row k down
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                num = _dense_sub(_dense_mul(a[i][j], a[k][k]),
                                 _dense_mul(a[i][k], a[k][j]))
                a[i][j] = _dense_div_exact(num, prev)
            a[i][k] = {}
        prev = a[k][k]
    det = a[m - 1][m - 1]
    if sign < 0:
        det = {e: -c for e, c in det.items()}
    return _from_dense(det, vars)


# -- factor extraction --------------------------------------------------------

def factor_polynomial(e: Expr) -> Tuple[Fraction, list]:
    """(prefactor, [(factor, multiplicity), ...]) with factors content-free.

    Handles rational content, monomial factors, and a remaining perfect
    power of a multi-term polynomial.  The remaining factor is returned with
    multiplicity 1 when no power structure is found.
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
    rest_expr = _from_dense(dense, vars)
    if rest_expr == ONE:
        return content, factors
    total_deg = max(sum(ex) for ex in dense)
    found = False
    for k in range(min(total_deg, 8), 1, -1):
        if total_deg % k:
            continue
        root = _dense_root(dense, k, vars)
        if root is not None:
            factors.append((_from_dense(root, vars), k))
            found = True
            break
    if not found:
        split = _split_quadratic_square(rest_expr)
        if split is not None:
            extra, parts = split
            content *= extra
            factors.extend(parts)
        else:
            factors.append((rest_expr, 1))
    factors.sort(key=lambda t: t[0]._key)
    return content, factors


def _split_quadratic_square(f: Expr):
    """Detect f = cofactor * (linear in its top jet)^2 via the discriminant.

    Writing f = a*v^2 + b*v + c in the top jet v, a repeated linear factor
    forces b^2 - 4*a*c = 0; the factor is then the primitive-in-v part of
    2*a*v + b, with the common v-free cofactor of (2a, b) removed by
    matching their recognized factorizations.
    """
    top = max_jet_order(f)
    if top is None or top < 1:
        return None
    v = jet(top)
    a2 = diff(diff(f, v), v)  # = 2a
    if a2.is_zero_expr():
        return None
    b = diff(f, v) - a2 * v.as_expr()
    c = f - a2 * v.as_expr() ** 2 * Expr.rational(Fraction(1, 2)) - b * v.as_expr()
    disc = b * b - 2 * a2 * c
    if not disc.is_zero_expr():
        return None
    common = _common_recognized_factor(a2, b) if not b.is_zero_expr() else None
    lin = a2 * v.as_expr() + b
    if common is not None and common != ONE:
        lin = exact_quotient(lin, common)
        if lin is None:
            return None
    _lin_content, lin_parts = factor_polynomial(lin)
    root = ONE
    for g, m in lin_parts:
        root = root * g.pow(m)
    cof_expr = exact_quotient(f, root * root)
    if cof_expr is None:
        return None
    out = [(root, 2)]
    extra = Fraction(1)
    if cof_expr != ONE:
        cof_content, cof_factors = factor_polynomial(cof_expr)
        extra = cof_content
        out.extend(cof_factors)
    return extra, out


def _common_recognized_factor(a: Expr, b: Expr):
    """Product of the common recognized factors of two polynomials (content
    ignored); None when either side resists factorization."""
    fa = dict()
    for g, m in factor_polynomial(a)[1]:
        fa[g] = fa.get(g, 0) + m
    out = ONE
    for g, m in factor_polynomial(b)[1]:
        have = fa.get(g, 0)
        k = min(have, m)
        if k:
            out = out * g.pow(k)
    return out


def _dense_root(p: dict, k: int, vars: list):
    """Polynomial k-th root of p, or None.  p has positive leading coeff."""
    lead = max(p, key=_grlex_key)
    if any(x % k for x in lead):
        return None
    c0 = _exact_root(p[lead], k)
    if c0 is None:
        return None
    b0_exp = tuple(x // k for x in lead)
    root = {b0_exp: c0}
    # divisor for the next-term update: k * b0^(k-1)
    div = {tuple(x * (k - 1) for x in b0_exp): k * c0 ** (k - 1)}
    for _ in range(400):
        rem = _dense_sub(p, _dense_pow(root, k))
        if not rem:
            return root
        lr = max(rem, key=_grlex_key)
        exps = tuple(a - b for a, b in zip(lr, next(iter(div))))
        if any(x < 0 for x in exps):
            return None
        c = _normal(Fraction(rem[lr], next(iter(div.values()))))
        if _grlex_key(exps) >= _grlex_key(max(root, key=_grlex_key)):
            return None
        root[exps] = root.get(exps, 0) + c
    return None


def _dense_pow(p: dict, k: int) -> dict:
    out = {tuple([0] * len(next(iter(p)))): 1} if p else {}
    base = p
    n = k
    while n:
        if n & 1:
            out = _dense_mul(out, base)
        n >>= 1
        if n:
            base = _dense_mul(base, base)
    return out
