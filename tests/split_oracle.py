"""The power-product split with its numerator N built in the expression
kernel: the oracle for the packed N of `liesym.numeric.power_split` and
`liesym.numeric.clear_denominators`."""

import math
from fractions import Fraction

from liesym.expr import (
    ONE,
    Atom,
    Expr,
    ExprError,
    _acc_add,
    _expr_from_terms,
    _format_base_pow,
    _make_term,
    expr_sum,
    is_polynomial,
    is_rational_fragment,
    sum_of_products,
    walk_bases,
)


def clear_denominators(e: Expr):
    """(N, D) with e == N / prod(D), N an Expr: the terms with one
    denominator signature share one numerator sum and one chain of missing
    powers.  D lists the denominators in order of first appearance.  Kept
    in e's flags under a key of its own."""
    hit = e._flags.get("oracle_clear")
    if hit is not None:
        return hit[0], dict(hit[1])
    groups: dict = {}
    den_max: dict = {}
    for mono, coeff in e._terms:
        num_mono, factors, t_den = [], [], {}
        for b, ex in mono:
            k = ex.numerator  # rational fragment: integer exponents only
            if isinstance(b, Atom):
                if k >= 0:
                    num_mono.append((b, k))
                else:
                    t_den[b] = t_den.get(b, 0) - k
            elif isinstance(b, Expr) and k < 0:
                nb, db = clear_denominators(b)
                factors += [_key_expr(dkey).pow(dpow * -k) for dkey, dpow in db.items()]
                t_den[nb] = t_den.get(nb, 0) - k
            else:
                raise ExprError(f"{_format_base_pow(b, ex)} is outside the rational fragment")
        for key, p in t_den.items():
            if den_max.get(key, 0) < p:
                den_max[key] = p
        acc = groups.setdefault(frozenset(t_den.items()), (t_den, {}))[1]
        terms = ((tuple(num_mono), coeff),)
        if factors:
            terms = math.prod(factors, start=_expr_from_terms(dict(terms)))._terms
        for m, c in terms:
            _acc_add(acc, m, c)
    pairs = []
    for t_den, acc in groups.values():
        head, tail = _expr_from_terms(acc), ONE
        for key, p in den_max.items():
            gap = p - t_den.get(key, 0)
            if gap:
                head, tail = head * tail, _key_expr(key).pow(gap)
        pairs.append((head, tail))
    num = sum_of_products(pairs)
    e._flags["oracle_clear"] = (num, tuple(den_max.items()))
    return num, den_max


def _key_expr(key) -> Expr:
    return key.as_expr() if isinstance(key, Atom) else key


def power_split(e: Expr):
    """(N, ((P_1, c_1), ...)) with e == N * prod_k P_k^(c_k), or None: the
    lowered terms are rebuilt as a new sum `rest`, and N is its numerator
    as an Expr."""
    for b, _ex in walk_bases(e):
        if isinstance(b, int) or isinstance(b, Atom) and b.kind == "transc":
            return None
    lows: dict = {}
    for mono, _c in e._terms:
        for b, ex in mono:
            if type(ex) is not int:
                lows[b] = min(ex, lows.get(b, ex))
    for b, low in lows.items():
        if isinstance(b, Expr) and not is_rational_fragment(b):
            return None
        for mono, _c in e._terms:
            if (dict(mono).get(b, 0) - low).denominator != 1:
                return None
    rest = e
    if lows:
        rest = expr_sum(_make_term(coeff, {b: ex - lows[b] if b in lows else ex
                                           for b, ex in mono})
                        for mono, coeff in e._terms)
    if not is_rational_fragment(rest):
        return None
    num, den = clear_denominators(rest)
    factors = [(_key_expr(key), Fraction(-p)) for key, p in den.items()]
    for b, c in lows.items():
        if not isinstance(b, Expr) or is_polynomial(b):
            factors.append((_key_expr(b), c))
            continue
        nb, db = clear_denominators(b)
        for key, p in db.items():
            d = _key_expr(key)
            if p % 2:
                nb = nb * d
            factors.append((d * d, -((p + 1) // 2) * c))
        factors.append((nb, c))
    merged: dict = {}
    for base, c in factors:
        if base.is_rational_const():
            v = base.as_rational()
            if c.denominator != 1 and v != 1:
                return None
            num = num * v ** c.numerator
            continue
        neg = -base
        if neg in merged:
            c_neg = merged[neg]
            if c.denominator == 1:
                base, flip = neg, c
            elif c_neg.denominator == 1:
                del merged[neg]
                flip = c_neg
            else:
                return None
            c += c_neg
            if flip.numerator % 2:
                num = -num
        else:
            c = merged.get(base, 0) + c
        merged[base] = c
    return num, tuple((base, c) for base, c in merged.items() if c)
