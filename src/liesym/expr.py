"""Immutable exact symbolic expressions over jet-space coordinates.

An expression is kept in a flattened sum-of-monomials normal form: a sum of
terms, each an exact rational coefficient times a product of bases raised to
rational exponents.  A base is one of

* an :class:`Atom` -- the independent variable x, the dependent variable y,
  a jet coordinate y^(k), a named parameter, or an opaque transcendental
  call (exp, ln, arctan, sin, cos) keyed by its normalized argument;
* a compound multi-term expression, which only appears under an exponent
  that cannot be expanded (negative integer or non-integer rational);
* a prime integer under a fractional exponent in (0, 1) (e.g. 2^(1/2)).

Positive integer powers of sums are always multiplied out, like terms are
always merged and zero coefficients dropped, so structural equality implies
mathematical equality.  Fractional powers are single valued: numeric probing
only ever evaluates them on positive bases.

Exponents and coefficients are exact rationals in one normal form: an
``int`` when integral and a ``Fraction`` otherwise (``_normal`` applies it
wherever they are made or combined).  So monomials hash and compare their
integral exponents as machine integers, and the mostly integral coefficients
multiply and add as machine integers.  ``hash(2) == hash(Fraction(2))`` and
the structural key reads (numerator, denominator), so the normal form does
not change term order or keys.  Dividing two coefficients must go through
``Fraction``: ``/`` on two ints is a float.  The bases of a monomial are
sorted by base key, and a term product merges its two sorted monomials in
one linear pass.

Sums of many pieces are built in a single pass: :func:`expr_sum` and
:func:`sum_of_products` add every term (or term product) into one dict of
monomial -> coefficient and normalize once, instead of copying and
re-sorting a growing sum at every ``+``.  Coefficient addition is exact, so
the result is structurally identical to the left fold.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter
from typing import Mapping, Union


_TRANSC_FNS = ("exp", "ln", "arctan", "sin", "cos")

_KIND_RANK = {"indep": 0, "dep": 1, "jet": 2, "param": 3, "transc": 4}


class ExprError(Exception):
    pass


class DomainError(ExprError):
    """Raised when an operation leaves the supported real domain."""


def _as_exact(value):
    """An int or Fraction argument in normal form (see `_normal`)."""
    if type(value) is int:
        return value
    if isinstance(value, (int, Fraction)):
        return _normal(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class Atom:
    """A leaf coordinate of the computation.

    Atoms compare and hash by structural key, so two transcendental atoms are
    equal exactly when their function names and normalized arguments agree.
    """

    __slots__ = ("kind", "order", "name", "fn", "arg", "_key", "_hash")

    def __init__(self, kind: str, order: int = 0, name: str = "",
                 fn: str = "", arg: "Expr | None" = None):
        self.kind = kind
        self.order = order
        self.name = name
        self.fn = fn
        self.arg = arg
        if kind == "jet":
            extra = (order,)
        elif kind == "param":
            extra = (name,)
        elif kind == "transc":
            extra = (fn, arg._key)  # type: ignore[union-attr]
        else:
            extra = ()
        self._key = ("a", _KIND_RANK[kind]) + extra
        self._hash = hash(self._key)

    def __eq__(self, other):
        return isinstance(other, Atom) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Atom({atom_name(self)})"

    def as_expr(self) -> "Expr":
        return _expr_from_terms({((self, 1),): 1})


_ATOM_CACHE: dict = {}


def indep() -> Atom:
    return _cached_atom(("indep",), lambda: Atom("indep"))


def dep() -> Atom:
    return _cached_atom(("dep",), lambda: Atom("dep"))


def jet(k: int) -> Atom:
    if k < 1:
        raise ValueError("jet order must be >= 1; use dep() for order 0")
    return _cached_atom(("jet", k), lambda: Atom("jet", order=k))


def param(name: str) -> Atom:
    if not name:
        raise ValueError("parameter name must be nonempty")
    return _cached_atom(("param", name), lambda: Atom("param", name=name))


def _cached_atom(key, build):
    atom = _ATOM_CACHE.get(key)
    if atom is None:
        atom = _ATOM_CACHE[key] = build()
    return atom


def jet_or_dep(k: int) -> Atom:
    return dep() if k == 0 else jet(k)


def atom_name(a: Atom) -> str:
    if a.kind == "indep":
        return "x"
    if a.kind == "dep":
        return "y"
    if a.kind == "jet":
        return "y" + "'" * a.order if a.order <= 3 else f"y^({a.order})"
    if a.kind == "param":
        return a.name
    return f"{a.fn}({format_expr(a.arg)})"


# A base inside a monomial: Atom, compound Expr, or a positive integer
# (prime) carried as a plain int under a fractional exponent.
Base = Union[Atom, "Expr", int]


def _base_key(b) -> tuple:
    if isinstance(b, Atom):
        return b._key
    if isinstance(b, int):
        return ("c", b)
    key = b._flags.get("base_key")
    if key is None:
        key = b._flags["base_key"] = ("e",) + b._key
    return key


def _normal(q):
    """An exponent or coefficient in normal form: an int when integral,
    else a Fraction."""
    return q.numerator if q.denominator == 1 else q


_ZERO_RAT = Fraction(0)


class Expr:
    """A normalized symbolic expression.  Immutable and hashable."""

    __slots__ = ("_terms", "_key", "_hash", "_flags")

    def __init__(self, terms: tuple, key: tuple):
        # Internal: use the module constructors / operators, never directly.
        self._terms = terms
        self._key = key
        self._hash = hash(key)
        self._flags: dict = {}

    # -- construction -----------------------------------------------------

    @staticmethod
    def rational(value) -> "Expr":
        c = _as_exact(value)
        if c == 0:
            return ZERO
        return _expr_from_terms({(): c})

    # -- basic queries ----------------------------------------------------

    @property
    def terms(self) -> tuple:
        """Tuple of (monomial, coefficient); monomial is ((base, exp), ...),
        sorted by base.  A coefficient or exponent is an int when integral
        and a Fraction otherwise."""
        return self._terms

    def is_zero_expr(self) -> bool:
        return not self._terms

    def is_rational_const(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and not self._terms[0][0])

    def as_rational(self) -> Fraction:
        if not self._terms:
            return _ZERO_RAT
        if len(self._terms) == 1 and not self._terms[0][0]:
            return Fraction(self._terms[0][1])
        raise ExprError("expression is not a rational constant")

    def __eq__(self, other):
        return isinstance(other, Expr) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Expr({format_expr(self)})"

    def __str__(self):
        return format_expr(self)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self._terms)
        for mono, c in other._terms:
            _acc_add(acc, mono, c)
        return _expr_from_terms(acc)

    __radd__ = __add__

    def __neg__(self):
        return _expr_from_terms({m: -c for m, c in self._terms})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms or not other._terms:
            return ZERO
        acc: dict = {}
        _mul_into(acc, self, other)
        return _expr_from_terms(acc)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.pow(-1)

    def __rtruediv__(self, other):
        return _coerce(other) * self.pow(-1)

    def __pow__(self, exponent):
        return self.pow(exponent)

    def pow(self, exponent) -> "Expr":
        r = _as_exact(exponent)
        if r == 0:
            return ONE
        if not self._terms:
            if r > 0:
                return ZERO
            raise DomainError("zero raised to a non-positive power")
        if r.denominator == 1:
            k = r.numerator
            if k == 1:
                return self
            if k > 1 and len(self._terms) > 1:
                return _int_pow(self, k)
        if len(self._terms) == 1:
            mono, coeff = self._terms[0]
            out_coeff, const_bases = _const_pow(coeff, r)
            items = dict(const_bases)
            for b, e in mono:
                items[b] = items.get(b, 0) + e * r
            return _make_term(out_coeff, items)
        # Multi-term base under a negative or fractional exponent: factor out
        # the positive rational content so equal bases merge structurally.
        content, body = _extract_content(self)
        out_coeff, const_bases = _const_pow(content, r)
        items = dict(const_bases)
        items[body] = items.get(body, 0) + r
        return _make_term(out_coeff, items)


def _coerce(value):
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Expr.rational(value)
    if isinstance(value, Atom):
        return value.as_expr()
    return NotImplemented


def _acc_add(acc: dict, mono, coeff):
    cur = acc.get(mono)
    if cur is None:
        acc[mono] = coeff
    else:
        cur = cur + coeff
        if cur:
            acc[mono] = cur if type(cur) is int else _normal(cur)
        else:
            del acc[mono]


def _mul_into(acc: dict, a: Expr, b: Expr) -> None:
    """Add the term products of a*b into the accumulator."""
    for m1, c1 in a._terms:
        for m2, c2 in b._terms:
            piece = _term_product(m1, c1, m2, c2)
            if isinstance(piece, Expr):
                for mono, c in piece._terms:
                    _acc_add(acc, mono, c)
            else:
                _acc_add(acc, piece[0], piece[1])


def expr_sum(exprs) -> Expr:
    """The sum of the expressions, normalized once."""
    acc: dict = {}
    for e in exprs:
        for mono, c in e._terms:
            _acc_add(acc, mono, c)
    return _expr_from_terms(acc)


def sum_of_products(pairs) -> Expr:
    """sum(a*b for a, b in pairs), normalized once.  Each product is added
    term by term into one accumulator; no intermediate sum is built."""
    acc: dict = {}
    for a, b in pairs:
        _mul_into(acc, a, b)
    return _expr_from_terms(acc)


def _expr_from_terms(acc: Mapping) -> Expr:
    items = [(_mono_key(m), m, c) for m, c in acc.items() if c]
    items.sort(key=itemgetter(0))
    terms = tuple([(m, c) for _, m, c in items])
    key = tuple([(k, (c.numerator, c.denominator)) for k, _, c in items])
    return Expr(terms, key)


def _mono_key(mono) -> tuple:
    return tuple([(b._key if type(b) is Atom else _base_key(b), (e.numerator, e.denominator))
                  for b, e in mono])


ZERO = _expr_from_terms({})
ONE = _expr_from_terms({(): 1})


def _term_product(m1, c1, m2, c2):
    """Multiply two terms.  Returns (mono, coeff) or a full Expr when the
    merged exponents force re-expansion (sum base at a positive integer
    power, constant base leaving (0,1)).

    Both monomials are sorted by base key, so their product is one linear
    merge; only a base present in both needs its exponents added."""
    coeff = c1 * c2
    if type(coeff) is not int:
        coeff = _normal(coeff)
    out = []
    needs_rework = False
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        b1, e1 = m1[i]
        b2, e2 = m2[j]
        k1, k2 = _base_key(b1), _base_key(b2)
        if k1 < k2:
            out.append(m1[i])
            i += 1
        elif k2 < k1:
            out.append(m2[j])
            j += 1
        else:
            tot = _normal(e1 + e2)
            if tot:
                out.append((b1, tot))
                if isinstance(b1, Expr) and type(tot) is int and tot > 0 \
                        or isinstance(b1, int) and tot >= 1:
                    needs_rework = True
            i += 1
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    if needs_rework:
        return _make_term(coeff, dict(out))
    return tuple(out), coeff


def _make_term(coeff, items: Mapping) -> Expr:
    """Build an expression from coefficient * product(base^exp), restoring
    all normal-form invariants (expansion, constant folding)."""
    if coeff == 0:
        return ZERO
    expandables = []
    kept: dict = {}
    for b, e in items.items():
        if not e:
            continue
        if isinstance(b, Expr):
            if e.denominator == 1 and e > 0:
                expandables.append((b, e.numerator))
            else:
                kept[b] = _normal(e)
        elif isinstance(b, int):
            # constant base: keep the exponent inside (0,1)
            k = math.floor(e)
            frac = e - k
            if k:
                coeff *= Fraction(b) ** k
            if frac:
                kept[b] = frac
        else:
            kept[b] = _normal(e)
    mono = tuple(sorted(kept.items(), key=lambda t: _base_key(t[0])))
    result = _expr_from_terms({mono: _normal(coeff)})
    for b, k in expandables:
        result = result * _int_pow(b, k)
    return result


def _int_pow(e: Expr, k: int) -> Expr:
    if k == 0:
        return ONE
    if k == 1:
        return e
    half = _int_pow(e, k // 2)
    out = half * half
    if k % 2:
        out = out * e
    return out


def _extract_content(e: Expr):
    """Split a multi-term expression as content * body, content a positive
    rational, body with coprime integer coefficients (sign preserved)."""
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
    # c / content = (c.numerator / g) * (l / c.denominator), both integers
    body = _expr_from_terms({m: c.numerator // g * (l // c.denominator)
                             for m, c in e._terms})
    return content, body


# -- exact powers of rational constants -------------------------------------

_SMALL_PRIME_LIMIT = 100_000


def _factor_int(n: int) -> list:
    """Trial-division factorization; the final cofactor may be composite
    (kept whole) when it exceeds the small-prime search."""
    out = []
    p = 2
    while p * p <= n and p < _SMALL_PRIME_LIMIT:
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            out.append((p, a))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _const_pow(c, r):
    """c**r as (rational coefficient, {prime_base: fractional exponent})."""
    if r.denominator == 1:
        k = r.numerator
        return _normal(c ** k if k >= 0 else Fraction(c) ** k), {}
    if c == 0:
        raise DomainError("zero under a fractional power")
    sign = 1
    if c < 0:
        if r.denominator % 2 == 1:
            sign = Fraction(-1) ** (r.numerator % 2)
            c = -c
        else:
            raise DomainError("even root of a negative rational")
    coeff = sign
    bases: dict = {}
    for prime, mult in _factor_int(c.numerator) + [
        (p, -a) for p, a in _factor_int(c.denominator)
    ]:
        if prime == 1:
            continue
        e = r * mult
        k = math.floor(e)
        frac = e - k
        if k:
            coeff *= Fraction(prime) ** k
        if frac:
            bases[prime] = bases.get(prime, _ZERO_RAT) + frac
    return _normal(coeff), bases


# -- transcendental calls ----------------------------------------------------

def transcendental(fn: str, arg: Expr) -> Expr:
    """Opaque call atom; only exact special values at 0 and ln(1) fold."""
    if fn not in _TRANSC_FNS:
        raise ValueError(f"unsupported function {fn!r}")
    if arg.is_rational_const():
        v = arg.as_rational()
        if v == 0:
            if fn == "exp":
                return ONE
            if fn == "ln":
                raise DomainError("ln(0)")
            if fn in ("sin", "arctan"):
                return ZERO
            if fn == "cos":
                return ONE
        if v == 1 and fn == "ln":
            return ZERO
    return Atom("transc", fn=fn, arg=arg).as_expr()


_D_TRANSC: dict = {
    "exp": lambda a: transcendental("exp", a.arg),
    "ln": lambda a: a.arg.pow(-1),
    "arctan": lambda a: (ONE + a.arg * a.arg).pow(-1),
    "sin": lambda a: transcendental("cos", a.arg),
    "cos": lambda a: -transcendental("sin", a.arg),
}


# -- differentiation ---------------------------------------------------------

_DIFF_CACHE: dict = {}


def diff(e: Expr, a: Atom) -> Expr:
    """Exact partial derivative, all other atoms held fixed."""
    if a.kind == "transc":
        raise ValueError("cannot differentiate with respect to a transcendental atom")
    hit = _DIFF_CACHE.get((e, a))
    if hit is not None:
        return hit
    acc: dict = {}
    for mono, coeff in e._terms:
        for i, (b, ex) in enumerate(mono):
            db = _diff_base(b, a)
            if db.is_zero_expr():
                continue
            rest = dict(mono)
            rest[b] = ex - 1
            _mul_into(acc, _make_term(coeff * ex, rest), db)
    out = _expr_from_terms(acc)
    _DIFF_CACHE[(e, a)] = out
    return out


def _diff_base(b, a: Atom) -> Expr:
    if isinstance(b, Atom):
        if b == a:
            return ONE
        if b.kind == "transc":
            inner = diff(b.arg, a)
            if inner.is_zero_expr():
                return ZERO
            return _D_TRANSC[b.fn](b) * inner
        return ZERO
    if isinstance(b, Expr):
        return diff(b, a)
    return ZERO


# -- substitution ------------------------------------------------------------

def substitute(e: Expr, bindings: Mapping[Atom, Expr]) -> Expr:
    """Simultaneous replacement of atoms by expressions, renormalized."""
    if not bindings:
        return e
    return sum_of_products([_subst_term(mono, coeff, bindings)
                            for mono, coeff in e._terms])


def _subst_term(mono, coeff, bindings):
    """The substituted term as a pair (head, tail) with head*tail equal to
    coeff * base_1^e_1 * ... * base_k^e_k multiplied left to right."""
    head, tail = Expr.rational(coeff), ONE
    for b, ex in mono:
        head, tail = head * tail, _subst_base(b, bindings).pow(ex)
    return head, tail


def _subst_base(b, bindings) -> Expr:
    if isinstance(b, Atom):
        direct = bindings.get(b)
        if direct is not None:
            return direct
        if b.kind == "transc":
            new_arg = substitute(b.arg, bindings)
            if new_arg == b.arg:
                return b.as_expr()
            return transcendental(b.fn, new_arg)
        return b.as_expr()
    if isinstance(b, Expr):
        return substitute(b, bindings)
    return _make_term(1, {b: 1})


# -- structure scans ---------------------------------------------------------

def walk_bases(e: Expr):
    """Yield every base reachable in the expression tree (including inside
    compound bases and transcendental arguments)."""
    seen = set()
    stack = [e]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        for mono, _ in cur._terms:
            for b, ex in mono:
                yield b, ex
                if isinstance(b, Expr):
                    stack.append(b)
                elif isinstance(b, Atom) and b.kind == "transc":
                    stack.append(b.arg)


def leaf_atoms(e: Expr) -> set:
    """Sampleable coordinates: indep/dep/jet/param atoms, looking through
    compound bases and transcendental arguments."""
    out = set()
    for b, _ in walk_bases(e):
        if isinstance(b, Atom) and b.kind != "transc":
            out.add(b)
    return out


def max_jet_order(e: Expr):
    """Highest jet order present; 0 if only y appears, None if no y at all."""
    best = None
    for b, _ in walk_bases(e):
        if isinstance(b, Atom):
            if b.kind == "jet":
                best = b.order if best is None else max(best, b.order)
            elif b.kind == "dep" and best is None:
                best = 0
    return best


def is_rational_fragment(e: Expr) -> bool:
    """True when the expression is a rational function of its atoms: no
    transcendental atoms, no fractional exponents anywhere."""
    flag = e._flags.get("rat")
    if flag is None:
        flag = True
        for b, ex in walk_bases(e):
            if ex.denominator != 1 or isinstance(b, int):
                flag = False
                break
            if isinstance(b, Atom) and b.kind == "transc":
                flag = False
                break
        e._flags["rat"] = flag
    return flag


def is_polynomial(e: Expr) -> bool:
    """True when every base is an atom with a nonnegative integer exponent."""
    for mono, _ in e._terms:
        for b, ex in mono:
            if not isinstance(b, Atom) or b.kind == "transc":
                return False
            if ex.denominator != 1 or ex < 0:
                return False
    return True


def renormalized(e: Expr) -> Expr:
    """Rebuild the expression from scratch through the public constructors
    (used to assert idempotence of normalization).  It sums with ``+`` on
    purpose, not with :func:`expr_sum`, so that it stays an oracle
    independent of the single-pass sums it checks."""
    out = ZERO
    for mono, coeff in e._terms:
        piece = Expr.rational(coeff)
        for b, ex in mono:
            if isinstance(b, Atom):
                if b.kind == "transc":
                    piece = piece * transcendental(b.fn, renormalized(b.arg)).pow(ex)
                else:
                    piece = piece * b.as_expr().pow(ex)
            elif isinstance(b, Expr):
                piece = piece * renormalized(b).pow(ex)
            else:
                piece = piece * _make_term(1, {b: ex})
        out = out + piece
    return out


# -- printing ----------------------------------------------------------------

def _format_exponent(e: Fraction) -> str:
    if e.denominator == 1 and e >= 0:
        return str(e.numerator)
    if e.denominator == 1:
        return f"({e.numerator})"
    return f"({e.numerator}/{e.denominator})"


def _format_base_pow(b, e: Fraction) -> str:
    if isinstance(b, Atom):
        s = atom_name(b)
    elif isinstance(b, int):
        s = str(b)
    else:
        s = "(" + format_expr(b) + ")"
    if e == 1:
        return s
    return f"{s}^{_format_exponent(e)}"


def _format_coeff(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def format_expr(e: Expr) -> str:
    """Render in the grammar accepted by :mod:`liesym.parse` (round-trips)."""
    if not e._terms:
        return "0"
    chunks = []
    for idx, (mono, coeff) in enumerate(e._terms):
        sign = "-" if coeff < 0 else "+"
        mag = -coeff if coeff < 0 else coeff
        factors = [_format_base_pow(b, ex) for b, ex in mono]
        if not factors:
            body = _format_coeff(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_format_coeff(mag)] + factors)
        if idx == 0:
            chunks.append(body if sign == "+" else "-" + body)
        else:
            chunks.append(f" {sign} {body}")
    return "".join(chunks)
