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

Input that is already in normal form takes a direct route, and each route
keeps one invariant: its result is structurally identical to the generic
route's (the same terms, key and hash, and an ``int`` wherever the normal
form requires one).  An atom is immutable, so its one-term expression is
built once and shared (:meth:`Atom.as_expr`).  A one-term accumulator is
keyed with no sort.  A term product with an empty monomial is the other
monomial with the product coefficient.  :func:`substitute` passes through
what its bindings do not touch: a term with no touched base goes into the
accumulator as it is, and any other term starts from its untouched atoms and
the untouched bases before its first touched one (still sorted), then
multiplies in the rest in order, a touched base substituted and an
untouched one as itself.  A base is touched when it is a bound atom, a
transcendental atom whose argument holds one, or a compound base that holds
one.  Only compound and prime bases re-expand when exponents merge, so
keeping their order keeps every intermediate product of the left fold.
``-`` adds the negated terms of its right operand with no negated copy.
The multiply-accumulate path keeps its cost per call low: a term product
merges a base present in both monomials by identity before it compares
keys, `_mul_into` adds its pieces into the accumulator inline, and an
empty accumulator is the shared `ZERO`.  `_mono_key` keeps the keys of recent
monomials in a memo (`_MONO_KEYS`), cleared whenever it reaches 1,024
entries.

One routine applies every derivation: `_derive(e, values)` sends each atom
in `values` to its value and every other atom to 0 (:func:`diff`, and the
total derivative and prolonged fields of :mod:`liesym.jet`).  A derivation
is fixed by those values, so it runs term by term: c * prod b_i^e_i adds
c*e_i * m_i * D(b_i) into one accumulator, where m_i lowers b_i by one, or
drops it at exponent 1, and keeps the bases in order (the power rule in
place: no rebuild).  D(atom) is its value, D(fn(u)) is fn'(u) * D(u), a
prime surd gives 0, and D of a compound base is computed once per call.
"""

from __future__ import annotations

import math
from decimal import Decimal
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

    The module constructors intern every atom by structure (`_interned`),
    and unpickling re-interns (`__reduce__`), so atoms compare and hash by
    identity, in C: two transcendental atoms are one exactly when their
    function names and normalized arguments agree.
    """

    __slots__ = ("kind", "order", "name", "fn", "arg", "_key", "_expr")

    def __init__(self, kind: str, order: int, name: str, fn: str, arg: "Expr | None"):
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
        self._expr = None

    def __reduce__(self):
        return _interned, (self.kind, self.order, self.name, self.fn, self.arg)

    def __repr__(self):
        return f"Atom({atom_name(self)})"

    def as_expr(self) -> "Expr":
        """The one-term expression of the atom, built once and shared."""
        e = self._expr
        if e is None:
            e = self._expr = _expr_from_terms({((self, 1),): 1})
        return e


_ATOM_CACHE: dict = {}


def indep() -> Atom:
    return _interned("indep", 0, "", "", None)


def dep() -> Atom:
    return _interned("dep", 0, "", "", None)


def jet(k: int) -> Atom:
    if k < 1:
        raise ValueError("jet order must be >= 1; use dep() for order 0")
    return _interned("jet", k, "", "", None)


def param(name: str) -> Atom:
    if not name:
        raise ValueError("parameter name must be nonempty")
    return _interned("param", 0, name, "", None)


def _interned(kind: str, order: int, name: str, fn: str, arg) -> Atom:
    """The one atom of this structure in the process."""
    key = (kind, order, name, fn, None if arg is None else arg._key)
    atom = _ATOM_CACHE.get(key)
    if atom is None:
        atom = _ATOM_CACHE[key] = Atom(kind, order, name, fn, arg)
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
    """A normalized symbolic expression.  Immutable and hashable.  Unpickling
    rebuilds it from its terms, so it hashes by the loading process's seed
    for strings, not by the seed of the process that pickled it."""

    __slots__ = ("_terms", "_key", "_hash", "_flags")

    def __init__(self, terms: tuple, key: tuple):
        # Internal: use the module constructors / operators, never directly.
        self._terms = terms
        self._key = key
        self._hash = hash(key)
        self._flags: dict = {}

    def __reduce__(self):
        return _expr_from_terms, (dict(self._terms),)

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
        acc = dict(self._terms)
        for mono, c in other._terms:
            _acc_add(acc, mono, -c)
        return _expr_from_terms(acc)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms or not other._terms:
            return ZERO
        acc: dict = {}
        _mul_into(acc, self._terms, other._terms)
        return _expr_from_terms(acc)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.pow(-1)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.pow(-1)

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
                return _expr_from_terms(_int_pow(self._terms, k))
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


def _mul_into(acc: dict, terms1, terms2) -> None:
    """Add the products of two term sequences into the accumulator
    (`_acc_add` inline)."""
    for m1, c1 in terms1:
        for m2, c2 in terms2:
            piece = _term_product(m1, c1, m2, c2)
            if type(piece) is not tuple:
                for mono, c in piece._terms:
                    _acc_add(acc, mono, c)
                continue
            mono, c = piece
            cur = acc.get(mono)
            if cur is None:
                acc[mono] = c
            else:
                cur += c
                if cur:
                    acc[mono] = cur if type(cur) is int else _normal(cur)
                else:
                    del acc[mono]


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
        _mul_into(acc, a._terms, b._terms)
    return _expr_from_terms(acc)


def _expr_from_terms(acc: Mapping) -> Expr:
    if not acc:
        return ZERO
    if len(acc) == 1:
        (m, c), = acc.items()
        if not c:
            return ZERO
        return Expr(((m, c),), ((_mono_key(m), (c.numerator, c.denominator)),))
    items = [(_mono_key(m), m, c) for m, c in acc.items() if c]
    items.sort(key=itemgetter(0))
    terms = tuple([(m, c) for _, m, c in items])
    key = tuple([(k, (c.numerator, c.denominator)) for k, _, c in items])
    return Expr(terms, key)


_MONO_KEYS: dict = {}


def _mono_key(mono) -> tuple:
    key = _MONO_KEYS.get(mono)
    if key is None:
        if len(_MONO_KEYS) >= 1024:
            _MONO_KEYS.clear()
        key = _MONO_KEYS[mono] = tuple([
            (b._key if type(b) is Atom else _base_key(b), (e.numerator, e.denominator))
            for b, e in mono])
    return key


ZERO = Expr((), ())
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
    if not m2:
        return m1, coeff
    if not m1:
        return m2, coeff
    out = []
    needs_rework = False
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        b1, e1 = m1[i]
        b2, e2 = m2[j]
        if b1 is not b2:
            k1 = b1._key if type(b1) is Atom else _base_key(b1)
            k2 = b2._key if type(b2) is Atom else _base_key(b2)
            if k1 < k2:
                out.append(m1[i])
                i += 1
                continue
            if k2 < k1:
                out.append(m2[j])
                j += 1
                continue
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
        result = result * _expr_from_terms(_int_pow(b._terms, k))
    return result


def _int_pow(terms, k: int) -> dict:
    """(sum of the term pairs ``terms``)^k, k >= 1, as a raw term dict."""
    if k == 1:
        return dict(terms)
    half = _int_pow(terms, k // 2).items()
    acc: dict = {}
    _mul_into(acc, half, half)
    if k % 2:
        square, acc = acc.items(), {}
        _mul_into(acc, square, terms)
    return acc


def _extract_content(e: Expr):
    """Split a multi-term expression as content * body, content a positive
    rational, body with coprime integer coefficients (sign preserved)."""
    g = math.gcd(*[c.numerator for _, c in e._terms])
    l = math.lcm(*[c.denominator for _, c in e._terms])
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
    return _interned("transc", 0, "", fn, arg).as_expr()


_D_TRANSC: dict = {
    "exp": lambda a: transcendental("exp", a.arg),
    "ln": lambda a: a.arg.pow(-1),
    "arctan": lambda a: (ONE + a.arg * a.arg).pow(-1),
    "sin": lambda a: transcendental("cos", a.arg),
    "cos": lambda a: -transcendental("sin", a.arg),
}


# -- differentiation ---------------------------------------------------------

def diff(e: Expr, a: Atom) -> Expr:
    """Exact partial derivative, all other atoms held fixed."""
    if a.kind == "transc":
        raise ValueError("cannot differentiate with respect to a transcendental atom")
    return _derive(e, {_interned(a.kind, a.order, a.name, a.fn, a.arg): ONE})


def _derive(e: Expr, values: Mapping[Atom, Expr]) -> Expr:
    """The derivation that sends each atom in `values` to its value and every
    other atom to 0, applied term by term (see the module docstring)."""
    memo: dict = {}  # compound or transcendental base -> its derivative

    def derive(e: Expr) -> Expr:
        acc: dict = {}
        for mono, coeff in e._terms:
            for i, (b, ex) in enumerate(mono):
                if type(b) is Atom and b.kind != "transc":
                    db = values.get(b)
                    if db is None:
                        continue  # another coordinate: a zero derivative
                elif type(b) is int:
                    continue  # a prime surd is a constant
                else:
                    db = memo.get(b)
                    if db is None:
                        if type(b) is Expr:
                            db = derive(b)
                        else:  # fn(u): fn'(u) * D(u)
                            db = derive(b.arg)
                            if db._terms:
                                db = _D_TRANSC[b.fn](b) * db
                        memo[b] = db
                if not db._terms:
                    continue
                # power rule: the base keeps its place, so the monomial stays
                # sorted and needs no rebuild
                c = coeff * ex
                if type(c) is not int:
                    c = _normal(c)
                lowered = () if ex == 1 else ((b, ex - 1),)
                _mul_into(acc, ((mono[:i] + lowered + mono[i + 1:], c),), db._terms)
        return _expr_from_terms(acc)

    return derive(e)


# -- substitution ------------------------------------------------------------

def substitute(e: Expr, bindings: Mapping[Atom, Expr]) -> Expr:
    """Simultaneous replacement of atoms by expressions, renormalized: the
    left fold over each term's bases, with the module docstring's pass-through.
    The keys are indep/dep/jet/param atoms, matched by identity (atoms are
    interned); a transcendental key raises ValueError."""
    if not bindings:
        return e
    if any(a.kind == "transc" for a in bindings):
        raise ValueError("cannot substitute for a transcendental atom")
    bound = bindings.keys()
    acc: dict = {}
    for mono, coeff in e._terms:
        kept = []
        rest = []  # multiplied in in order, from the first touched base on
        for b, ex in mono:
            touched = _touched(b, bound)
            if touched or rest and type(b) is not Atom:
                rest.append(_subst_base(b, bindings).pow(ex) if touched
                            else _expr_from_terms({((b, ex),): 1}))
            else:
                kept.append((b, ex))
        if not rest:
            _acc_add(acc, mono, coeff)
            continue
        head = _expr_from_terms({tuple(kept): coeff})
        for piece in rest[:-1]:
            head = head * piece
        _mul_into(acc, head._terms, rest[-1]._terms)
    return _expr_from_terms(acc)


def _touched(b, bound) -> bool:
    """Whether a substitution binding the set `bound` of non-transcendental
    atoms changes base b: b is one of them, or holds one (`leaf_atoms`)."""
    if type(b) is Atom:
        return b in bound or b.kind == "transc" and not bound.isdisjoint(_scan(b.arg)[0])
    return type(b) is Expr and not bound.isdisjoint(_scan(b)[0])


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


def _scan(e: Expr) -> tuple:
    """(leaf atoms, jet order, rational fragment, rational apart from its own
    exponents, polynomial): what e holds, cached on e.  One walk over e's
    bases reads the cached scan of each compound base and call argument, so
    an object shared by many parents is walked once."""
    hit = e._flags.get("scan")
    if hit is not None:
        return hit
    atoms, near, integral, poly = set(), True, True, True
    for mono, _c in e._terms:
        for b, ex in mono:
            if type(ex) is not int:
                integral = poly = False
            elif ex < 0:
                poly = False
            if type(b) is Atom and b.kind != "transc":
                atoms.add(b)
            elif type(b) is int:
                near = poly = False
            else:
                inner = _scan(b) if type(b) is Expr else _scan(b.arg)
                near, poly = near and type(b) is Expr and inner[2], False
                atoms |= inner[0]
    top = max([a.order for a in atoms if a.kind in ("dep", "jet")], default=None)
    hit = e._flags["scan"] = (frozenset(atoms), top, near and integral, near, poly)
    return hit


def leaf_atoms(e: Expr) -> frozenset:
    """Sampleable coordinates: indep/dep/jet/param atoms, looking through
    compound bases and transcendental arguments."""
    return _scan(e)[0]


def max_jet_order(e: Expr):
    """Highest jet order present; 0 if only y appears, None if no y."""
    return _scan(e)[1]


def is_rational_fragment(e: Expr) -> bool:
    """True when the expression is a rational function of its atoms: no
    transcendental atoms, no fractional exponents anywhere."""
    return _scan(e)[2]


def is_polynomial(e: Expr) -> bool:
    """True when every base is an atom with a nonnegative integer exponent."""
    return _scan(e)[4]


# -- printing ----------------------------------------------------------------

def _decimal(n: int) -> str:
    """``str(n)`` at any size: ``str`` of an int stops at 4,300 digits."""
    return str(Decimal(n))


def _format_exponent(e: Fraction) -> str:
    if e.denominator == 1 and e >= 0:
        return _decimal(e.numerator)
    return f"({_format_coeff(e)})"


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
        return _decimal(c.numerator)
    return f"{_decimal(c.numerator)}/{_decimal(c.denominator)}"


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
