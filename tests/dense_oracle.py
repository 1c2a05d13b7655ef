"""Polynomials as {exponent tuple: coefficient}, multiplied and divided the
plain way: each step of the exact division takes the graded-lex leading term
and builds the remainder anew as rem - c*x^e*q.  An oracle for the packed
product, exact division and k-th root of `liesym.poly.Poly`.
"""

from fractions import Fraction

from liesym.expr import ExprError


def _grlex_key(exps: tuple):
    return (sum(exps), exps)


def _add_into(out: dict, exps: tuple, c) -> None:
    cur = out.get(exps, 0) + c
    if cur:
        out[exps] = cur
    else:
        del out[exps]


def ref_dense_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            _add_into(out, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
    return out


def ref_dense_div_exact(p: dict, q: dict) -> dict:
    """Exact division p / q; raises ExprError if not exact."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = dict(p)
    quot: dict = {}
    lq = max(q, key=_grlex_key)
    while rem:
        lr = max(rem, key=_grlex_key)
        exps = tuple(a - b for a, b in zip(lr, lq))
        if any(x < 0 for x in exps):
            raise ExprError("inexact polynomial division")
        c = Fraction(rem[lr], q[lq])
        c = c.numerator if c.denominator == 1 else c
        _add_into(quot, exps, c)
        step = ref_dense_mul({exps: c}, q)
        rem = dict(rem)
        for e, v in step.items():
            _add_into(rem, e, -v)
    return quot
