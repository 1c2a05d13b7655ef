"""The slot degree, the graded ring's slots and the content split as the
kernel computed them before each had one home: uncached walks and
hand-written gcd and lcm loops.  The oracle of `poly.degree`, `Ring.of` and
`expr._extract_content`."""

import math
from fractions import Fraction

from liesym.expr import Atom, Expr, _base_key, _expr_from_terms
from liesym.poly import width


def degree(x) -> int:
    """The total degree over the slots: b^k with k a positive integer counts
    k, any other power of a base counts 1, and an atom is of degree 1."""
    if type(x) is Atom:
        return 1
    return max((sum(ex if type(ex) is int and ex > 0 else 1 for _b, ex in mono)
                for mono, _c in x._terms), default=0)


def ring_of(exprs: list, scale: int) -> tuple:
    """(slot index, width) of the graded ring over the slots of `exprs`, by
    the loop that collected the keys and the degree in one pass."""
    keys, deg = set(), 0
    for e in exprs:
        for mono, _c in e._terms:
            t = 0
            for b, ex in mono:
                key, k = ((b, 1), ex) if type(ex) is int and ex > 0 else ((b, ex), 1)
                keys.add(key)
                t += k
            deg = max(deg, t)
    keys = sorted(keys, key=lambda k: (_base_key(k[0]), k[1]), reverse=True)
    return {k: s for s, k in enumerate(keys)}, width(scale * deg)


def extract_content(e: Expr):
    """(content, body) by one gcd loop over the numerators and one lcm loop
    over the denominators."""
    nums = [c.numerator for _, c in e._terms]
    dens = [c.denominator for _, c in e._terms]
    g = 0
    for n in nums:
        g = math.gcd(g, abs(n))
    l = 1
    for d in dens:
        l = l * d // math.gcd(l, d)
    content = Fraction(g, l)
    if content == 1:
        return content, e
    return content, _expr_from_terms({m: c.numerator // g * (l // c.denominator)
                                      for m, c in e._terms})
