"""One sparse polynomial ring outside the expression kernel, for the Lie
determinant, its factors, the Cramer solve, the numerator of the exact
tier's split and the `D_X` decisions.

The indeterminates are the powers in the expressions: b^k with k a positive
integer is the k-th power of the slot (b, 1), and any other power b^e is a
slot (b, e) of its own.  So every exponent is a nonnegative integer and
division stays in a polynomial ring; `Ring.unpack` substitutes the powers
back (a ring homomorphism).  A monomial prod s_i^(e_i) is the int
sum_i e_i << W*i, a product of monomials one int addition.  Every exponent
stays below 2^(W-1) (`width`), so no slot carries into the next and `max`
is the lex leading monomial.  A graded ring (`Ring.of`) keeps the total
degree in a top slot, which makes that order graded lex (Monagan and Pearce,
CASC 2007), and its slots in base-key order, the first highest: this order
fixes the sign of a factor's content.  The top bit of each slot is a guard:
b divides a when (a | guards) - b keeps every guard bit.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .expr import Atom, Expr, ExprError, _base_key, _make_term, _normal, expr_sum
from .jet import _COORDS

WIDTH = 16


def width(bound: int) -> int:
    """The slot width for exponents up to bound: WIDTH, or wider."""
    return WIDTH if bound < 1 << WIDTH - 1 else bound.bit_length() + 1


def _slot(b, ex) -> tuple:
    """(slot key, power) of b^ex."""
    return ((b, 1), ex) if type(ex) is int and ex > 0 else ((b, ex), 1)


def degree(x) -> int:
    """The total degree of x over its slots: 1 for an atom, and an expression
    keeps it in its flags under "degree"."""
    if type(x) is Atom:
        return 1
    d = x._flags.get("degree")
    if d is None:
        d = x._flags["degree"] = max(
            (sum(_slot(b, ex)[1] for b, ex in mono) for mono, _c in x._terms), default=0)
    return d


class Ring:
    """The slots of one packing at width W: `index` maps each slot key to its
    slot, in slot order.  A graded ring is fixed and keeps the total degree
    in slot `len(index)`; another takes a new slot for a key on first sight."""

    def __init__(self, index: dict, W: int, graded: bool):
        self.index, self.W, self.graded = index, W, graded
        self.top = W * len(index)  # the shift of a graded ring's degree slot
        self.guards = sum(1 << W * s + W - 1 for s in range(len(index) + 1))

    @staticmethod
    def of(exprs: list, scale: int) -> "Ring":
        """The graded ring over the slots of `exprs`, wide enough for degrees
        up to `scale` times the largest of theirs."""
        keys = sorted({_slot(b, ex)[0] for e in exprs for mono, _c in e._terms for b, ex in mono},
                      key=lambda k: (_base_key(k[0]), k[1]), reverse=True)
        deg = max(map(degree, exprs), default=0)
        return Ring({k: s for s, k in enumerate(keys)}, width(scale * deg), True)

    def poly(self, terms) -> "Poly":
        out = Poly(terms)
        out.ring = self
        return out

    def unit(self, key) -> int:
        """The monomial of the slot `key` to the first power."""
        return (1 << self.W * self.index[key]) + (1 << self.top if self.graded else 0)

    def exponents(self, m: int) -> list:
        """The exponent of each slot in the monomial m, in slot order."""
        return [m >> self.W * s & (1 << self.W) - 1 for s in range(len(self.index))]

    def quotient(self, a: int, b: int):
        """The monomial a / b, or None when b does not divide a."""
        d = (a | self.guards) - b
        return d ^ self.guards if d & self.guards == self.guards else None

    def pack(self, e: Expr) -> "Poly":
        index, W, out = self.index, self.W, self.poly(())
        for mono, c in e._terms:
            m = t = 0
            for b, ex in mono:
                key, k = _slot(b, ex)
                m += k << W * (index[key] if self.graded else index.setdefault(key, len(index)))
                t += k
            out[m + (t << self.top) if self.graded else m] = c
        return out

    def total_degree(self, poly: dict) -> int:
        """The degree of a polynomial of this ungraded ring, if it is below
        2^W - 1: as 2^W is 1 modulo 2^W - 1, a monomial is the sum of its
        exponents there."""
        return max((m % ((1 << self.W) - 1) for m in poly), default=0)

    def unpack(self, poly: dict) -> Expr:
        keys, W, mask, terms = list(self.index), self.W, (1 << self.W) - 1, []
        for m, c in poly.items():
            items: dict = {}
            m, s = m & (1 << self.top) - 1 if self.graded else m, 0
            while m:
                b, u = keys[s]
                items[b] = items.get(b, 0) + u * (m & mask)
                m, s = m >> W, s + 1
            terms.append(_make_term(c, items))
        return expr_sum(terms)


def mac(acc: dict, a: dict, b: dict, scale: int) -> dict:
    """acc += scale * a * b, with zero coefficients kept."""
    for m1, c1 in a.items():
        c1 *= scale
        for m2, c2 in b.items():
            acc[m1 + m2] = acc.get(m1 + m2, 0) + c1 * c2
    return acc


def _quotient(r, c):
    """The rational r / c, an int when integral."""
    return r // c if type(r) is int and type(c) is int and not r % c else _normal(Fraction(r, c))


class Poly(dict):
    """A polynomial of the graded ring `ring` as {monomial: coefficient}, with
    no zero coefficient: the domain `invariance.bareiss` runs on."""

    __slots__ = ("ring",)

    def __mul__(self, other: "Poly") -> "Poly":
        """The product; by a one-term factor, each term of the other moved
        and scaled in one pass, to the coefficients `mac` gives."""
        if len(other) == 1:
            (m0, c), = other.items()
            return self.ring.poly({m + m0: v * c for m, v in self.items()})
        if len(self) == 1:
            return other * self
        return self.ring.poly({m: c for m, c in mac({}, self, other, 1).items() if c})

    def __sub__(self, other: "Poly") -> "Poly":
        out = dict(self)
        for m, c in other.items():
            out[m] = out.get(m, 0) - c
        return self.ring.poly({m: c for m, c in out.items() if c})

    def __floordiv__(self, q: "Poly") -> "Poly":
        """The exact quotient; raises ExprError if q does not divide self.
        A one-term q divides each term on its own, and the constant 1 leaves
        int coefficients as they are.  Otherwise each step subtracts
        (quotient of the leading terms) * q from the remainder in place: an
        exact quotient is the same in every order."""
        if not q:
            raise ZeroDivisionError("polynomial division by zero")
        if len(q) == 1:
            (lq, cq), = q.items()
            if not lq and cq == 1 and all(type(r) is int for r in self.values()):
                return self
            g = self.ring.guards  # a cleared guard bit is a borrow (`Ring.quotient`)
            quot = self.ring.poly({(m | g) - lq ^ g: _quotient(r, cq) for m, r in self.items()})
            if any(e & g for e in quot):
                raise ExprError("inexact polynomial division")
            return quot
        rem, quot, lq = dict(self), self.ring.poly(()), max(q)
        cq = q[lq]
        while rem:
            lr = max(rem)
            e = self.ring.quotient(lr, lq)
            if e is None:
                raise ExprError("inexact polynomial division")
            c = quot[e] = _quotient(rem[lr], cq)
            for m, v in q.items():
                m += e
                cur = rem.get(m, 0) - c * v
                if cur:
                    rem[m] = cur
                else:
                    del rem[m]
        return quot

    def root(self, k: int):
        """The monic k-th root of this monic polynomial, or None.  Each step
        adds the term that cancels the leading term of self - root^k, so
        that leading term falls in graded lex order and the loop ends."""
        lead = max(self)
        if any(x % k for x in self.ring.exponents(lead)):
            return None
        b0 = lead // k
        root, div = self.ring.poly({b0: 1}), b0 * (k - 1)  # div leads k * root^(k-1)
        while True:
            rem = self - math.prod([root] * (k - 1), start=root)
            if not rem:
                return root
            lr = max(rem)
            e = self.ring.quotient(lr, div)
            if e is None or e >= b0:
                return None
            root[e] = _normal(Fraction(rem[lr], k))


@functools.cache
def shared(W: int) -> Ring:
    """The ungraded ring of the split's numerator and the `D_X` decisions at
    width W: slots 0, 1, 2, ... are x, y, y', ..., and any other key takes
    the next slot on first sight, so nothing that reads the order of
    monomials may use it."""
    return Ring({(a, 1): s for s, a in enumerate(_COORDS)}, W, False)


def integral(poly: dict) -> tuple:
    """(den*poly with int coefficients, den), den the lcm of the
    denominators of poly's coefficients."""
    den = math.lcm(*[c.denominator for c in poly.values()])
    return {m: c.numerator * (den // c.denominator) for m, c in poly.items()}, den


def packed(e: Expr, W: int) -> tuple:
    """(den*e as {monomial: int} in `shared(W)`, den), den the lcm of e's
    denominators; kept in e's flags (a field coefficient packs once)."""
    hit = e._flags.get(("packed", W))
    if hit is None:
        hit = e._flags[("packed", W)] = integral(shared(W).pack(e))
    return hit
