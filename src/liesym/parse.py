"""Parser for the expression grammar and the vector-field input syntax.

Grammar (whitespace insignificant):

* numbers are runs of decimal digits; rationals are written with ``/``.  An
  identifier starts with a word character that is not a decimal digit.
* jets ``y'``, ``y''``, ``y'''`` and ``y^(k)`` for k >= 0 (``y^(2)`` is
  ``y''``, ``y^(0)`` is ``y``); to raise y itself to a parenthesized power,
  parenthesize the base: ``(y)^(3)``.
* operators ``+ - * / ^`` with precedence ``^`` > unary minus > ``* /`` >
  ``+ -``.  ``^`` takes a unary expression that must fold to an exact
  rational (integers, parenthesized rationals, or bound parameters); that
  expression may hold a ``^`` itself, so ``^`` is right-associative.
* functions ``exp( ) ln( ) arctan( ) sin( ) cos( ) sqrt( )``; ``sqrt(u)``
  is ``u^(1/2)``.  ``fact(k)`` folds to k! for an integer k (usable inside
  coefficients and exponents).
* free identifiers must be declared in the :class:`Context` (as symbolic
  parameters, bound rational values, named macros, or function slots).

Vector fields use the same grammar extended with the terminals ``Dx`` and
``Dy`` and must be linear in them, with jet-free coefficients, e.g.
``x^2*Dx + r*x*y*Dy``.  Every input error, also a value the kernel rejects
(``ln(0)``), an exact value past ``_MAX_BITS`` bits (``9^9^9``) or a power
of a sum that expands into more than 512 terms (``(x+y+1)^40``), is a
:class:`ParseError` at the offending token's character offset (a jet past
``MAX_JET_ORDER`` is a :class:`JetOrderError`).  The bound holds for every
coefficient of a product too (``2^8000*2^8000`` is an error at its ``*``).
Parses are kept, up to 1,024, by text, flags and the binding of each name
the text reads, unless the text calls a function slot or raises.

A text is parsed in one pass over the strings of one ``findall``, at token
indices that become character offsets only for an error.  Each grammar step
returns a raw term dict {monomial: coefficient}; an `Expr` is built only for
a sum under a negative or fractional power, an argument of a function, of
``totd`` or of a slot, a ``series`` item and the result.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple, Optional

from .expr import (
    Atom,
    Checked,
    Expr,
    ExprError,
    _acc_add,
    _as_exact,
    _const_pow,
    _expr_from_terms,
    _extract_content,
    _int_pow,
    _mul_into,
    _normal,
    dep,
    indep,
    jet_or_dep,
    leaf_atoms,
    max_jet_order,
    param,
    transcendental,
)
from .jet import MAX_JET_ORDER, MaxOrderExceeded, VectorField, total_derivative

_FUNCTIONS = ("exp", "ln", "arctan", "sin", "cos", "sqrt")


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at character {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    pass


class JetOrderError(ParseError, MaxOrderExceeded):
    """Input that names or builds a jet past ``MAX_JET_ORDER``."""


class _Error(Exception):
    """An input error inside one parse, raised with (message, token index,
    public class); `_parse` re-raises it as the public class at the token's
    character offset.  A slot's own errors pass through `_guard`."""


# The size in bits of the largest number, coefficient of a power or product,
# fact or factprod that the parser builds from input.  The catalog builds at
# most 28 bits (the number 255150000); a value of the bound takes microseconds,
# and its 2,467 digits stay below Python's int-to-str limit of 4,300.
_MAX_BITS = 1 << 13


def _check_bits(bits: float, i: int) -> None:
    if bits > _MAX_BITS:
        raise _Error(f"exact value of more than {_MAX_BITS} bits", i, ParseError)


def _check_power(terms: dict, r: Fraction, i: int) -> None:
    """Bound what ``terms^r`` builds: c^r has |r| * log2(c) bits, a sum of t
    terms to an integer power k has C(t+k-1, k) terms, and a sum under a
    negative or fractional power is split as content * body by `Expr.pow`,
    which keeps the body and takes only the content to the power r."""
    coeffs = terms.values()
    if len(terms) > 1 and (r < 0 or r.denominator != 1):
        content, body = _extract_content(_expr_from_terms(terms))
        _check_bits(max(abs(c) for _, c in body._terms).bit_length(), i)
        coeffs = [content]
    m = max((max(abs(c.numerator), c.denominator) for c in coeffs), default=1)
    if m > 1:
        _check_bits(min(abs(r), _MAX_BITS + 1) * math.log2(m), i)
    t, k = len(terms), min(r.numerator, 512) if r.denominator == 1 else 0
    if t > 1 and k > 1 and math.comb(t + k - 1, k) > 512:
        raise _Error("power of a sum with more than 512 terms", i, ParseError)


def _guard(i: int, fn, *args):
    """``fn(*args)`` for a value built from input; a kernel error becomes an
    input error at token ``i``."""
    try:
        return fn(*args)
    except ExprError as exc:
        cls = JetOrderError if isinstance(exc, MaxOrderExceeded) else ParseError
        raise _Error(str(exc), i, cls) from exc


def _power(terms: dict, r: Fraction, i: int) -> dict:
    """``terms^r`` as a raw term dict, as `Expr.pow` builds it."""
    if len(terms) == 1 and r:
        (mono, c), = terms.items()
        if all([type(b) is Atom for b, _ in mono]):
            coeff, primes = _guard(i, _const_pow, c, r)
            if not primes:
                return {tuple([(b, _normal(e * r)) for b, e in mono]): coeff}
    elif len(terms) > 1 and r.denominator == 1 and r > 1:
        return _int_pow(terms.items(), r.numerator)
    return dict(_guard(i, _expr_from_terms(terms).pow, r)._terms)


class _SymbolTable(NamedTuple):
    params: Optional[dict] = None
    macros: Optional[dict] = None
    functions: Optional[dict] = None
    auto_params: bool = False


class Context(Checked, _SymbolTable):
    """Symbol table for parsing.

    ``params`` maps declared names to an exact rational value or to None for
    a symbolic parameter atom.  ``macros`` are named expressions spliced in
    by reference.  ``functions`` are arbitrary-function slots applied to
    their parsed argument list at parse time.  A table left at None becomes
    a fresh dict, so the catalog's writes to one context's macros reach no
    other context.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        params, macros, functions, auto_params = _SymbolTable(*args, **kwargs)
        return super().__new__(cls, {} if params is None else params,
                               {} if macros is None else macros,
                               {} if functions is None else functions, auto_params)

    def child(self, **extra_params) -> "Context":
        p = dict(self.params)
        p.update(extra_params)
        return Context(p, dict(self.macros), dict(self.functions), self.auto_params)


# number | identifier | primes | operator; any other non-space character is
# an error (`_BAD_RE`)
_TOKEN_RE = re.compile(r"\d+|[^\W\d]\w*|'+|[-+*/^(),]")
_BAD_RE = re.compile(r"[^\w\s'+*/^(),-]")
_OPS = frozenset("-+*/^(),")
_X, _Y = ((indep(), 1),), ((dep(), 1),)
_TERMINALS = {param("\x00Dx"): 0, param("\x00Dy"): 1}  # the index of each in (xi, eta)


class _Parser:
    def __init__(self, tokens: list, context: Context, allow_fields: bool):
        self.toks = tokens  # ends with the sentinel ""
        self.i = 0
        self.ctx = context
        self.allow_fields = allow_fields

    def expect(self, text: str) -> None:
        t = self.toks[self.i]
        if t != text:
            raise _Error(f"expected {text!r}, found {t or 'end of input'!r}", self.i, ParseError)
        self.i += 1

    # -- grammar: each step returns a raw term dict that its caller owns ---

    def parse_expr(self) -> dict:
        node = self.parse_term()
        toks = self.toks
        while (op := toks[self.i]) == "+" or op == "-":
            self.i += 1
            for mono, c in self.parse_term().items():
                _acc_add(node, mono, c if op == "+" else -c)
        return node

    def parse_term(self) -> dict:
        node = self.parse_unary()
        toks = self.toks
        while (op := toks[self.i]) == "*" or op == "/":
            i = self.i
            self.i += 1
            rhs = self.parse_unary()
            if op == "/":
                if not rhs:
                    raise _Error("division by zero", i, ParseError)
                _check_power(rhs, Fraction(-1), i)
                rhs = _power(rhs, Fraction(-1), i)
            acc: dict = {}
            _mul_into(acc, node.items(), rhs.items())  # a constant factor scales
            node = acc
            _check_power(node, 1, i)  # the coefficients of the product
        return node

    def parse_unary(self) -> dict:
        if self.toks[self.i] == "-":
            self.i += 1
            return {m: -c for m, c in self.parse_unary().items()}
        return self.parse_power()

    def parse_power(self) -> dict:
        base = self.parse_primary()
        i = self.i
        if self.toks[i] != "^":
            return base
        self.i += 1
        r = self._fold_rational(self.parse_unary)
        _check_power(base, r, i)
        return _power(base, r, i)

    def _fold_rational(self, parse) -> Fraction:
        """Run ``parse`` and fold its terms to an exact rational."""
        i = self.i
        terms = parse()
        if terms and (len(terms) > 1 or () not in terms):
            raise _Error("expected an expression that folds to an exact rational", i, ParseError)
        return Fraction(terms.get((), 0))

    def _int_arg(self, name: str) -> int:
        """``(k)`` for a nonnegative integer k, the argument of fact and factprod."""
        self.expect("(")
        i = self.i
        k = self._fold_rational(self.parse_expr)
        self.expect(")")
        if k.denominator != 1 or k < 0:
            raise _Error(f"{name}() needs a nonnegative integer", i, ParseError)
        return k.numerator

    def _call_arg(self) -> dict:
        self.expect("(")
        arg = self.parse_expr()
        self.expect(")")
        return arg

    def parse_primary(self) -> dict:
        i = self.i
        t = self.toks[i]
        if t == "(":
            self.i += 1
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if not t or t in _OPS or t[0] == "'":
            raise _Error(f"unexpected token {t or 'end of input'!r}", i, ParseError)
        self.i += 1
        if t[0].isdecimal():
            _check_bits(len(t) * math.log2(10), i)
            v = int(t)
            return {(): v} if v else {}
        return self.parse_ident(t, i)

    def parse_ident(self, name: str, i: int) -> dict:
        if name == "x":
            return {_X: 1}
        if name == "y":
            return self.parse_dependent()
        if name in ("Dx", "Dy"):
            if not self.allow_fields:
                raise _Error(f"unknown identifier {name!r}", i, UnknownIdentifierError)
            return {((param("\x00" + name), 1),): 1}
        if name in _FUNCTIONS:
            arg = self._call_arg()
            if name == "sqrt":
                _check_power(arg, Fraction(1, 2), i)
                return _power(arg, Fraction(1, 2), i)
            return dict(_guard(i, transcendental, name, _expr_from_terms(arg))._terms)
        if name in ("fact", "factprod"):
            k = self._int_arg(name)
            js = range(1, k + 1) if name == "factprod" else [k]
            _check_bits(k, i)  # k! has at least k bits for k > 3
            _check_bits(sum(math.lgamma(j + 1) for j in js) / math.log(2), i)
            return {(): math.prod(math.factorial(j) for j in js)}
        if name == "totd":
            return dict(_guard(i, total_derivative, _expr_from_terms(self._call_arg()))._terms)
        ctx = self.ctx
        if name in ctx.functions:
            return self.parse_function_slot(name, i)
        if name in ctx.macros:
            return dict(ctx.macros[name]._terms)
        if ctx.params.get(name) is not None:
            c = _as_exact(ctx.params[name])
            return {(): c} if c else {}
        if name in ctx.params or ctx.auto_params:
            return {((param(name), 1),): 1}
        raise _Error(f"unknown identifier {name!r}", i, UnknownIdentifierError)

    def parse_dependent(self) -> dict:
        """Bare ``y``: may continue as primes or the ``y^(k)`` jet spelling."""
        toks, i = self.toks, self.i
        t = toks[i]
        if t[:1] == "'":
            self.i += 1
            self._check_jet(len(t), i)
            return {((jet_or_dep(len(t)), 1),): 1}
        if t == "^" and toks[i + 1] == "(":
            self.i += 2
            r = self._fold_rational(self.parse_expr)
            self.expect(")")
            if r.denominator == 1 and r >= 0:
                self._check_jet(r.numerator, i + 2)
                return {((jet_or_dep(r.numerator), 1),): 1}
            return _power({_Y: 1}, r, i)
        return {_Y: 1}

    def _check_jet(self, order: int, i: int) -> None:
        if order > MAX_JET_ORDER:
            raise _Error(f"jet order {order} exceeds the maximum {MAX_JET_ORDER}", i,
                         JetOrderError)

    def parse_function_slot(self, name: str, i: int) -> dict:
        """Apply an arbitrary-function slot to its parsed argument list."""
        fn = self.ctx.functions[name]
        self.expect("(")
        args: list = []
        if self.toks[self.i] != ")":
            while True:
                if self.toks[self.i] == "series":
                    args.extend(self.parse_series())
                else:
                    args.append(_expr_from_terms(self.parse_expr()))
                if self.toks[self.i] != ",":
                    break
                self.i += 1
        self.expect(")")
        return dict(_guard(i, fn, args)._terms)

    def parse_series(self) -> list:
        """series(var, lo, hi, template): the template re-parsed per var value.

        Expands to the (possibly empty) list of instances for var = lo..hi.
        """
        self.i += 1  # 'series'
        self.expect("(")
        var = self.toks[self.i]
        if not _IDENT_RE.match(var):
            raise _Error("series() needs a loop variable name", self.i, ParseError)
        self.i += 1
        self.expect(",")
        lo = self._fold_rational(self.parse_expr)
        self.expect(",")
        i = self.i
        hi = self._fold_rational(self.parse_expr)
        self.expect(",")
        if lo.denominator != 1 or hi.denominator != 1:
            raise _Error("series() bounds must be integers", i, ParseError)
        start = self.i
        out = []
        values = list(range(lo.numerator, hi.numerator + 1)) or [lo.numerator]
        for k in values:
            sub = _Parser(self.toks, self.ctx.child(**{var: Fraction(k)}), self.allow_fields)
            sub.i = start
            item = sub.parse_expr()
            end = sub.i
            if lo <= k <= hi:
                out.append(_expr_from_terms(item))
        self.i = end
        self.expect(")")
        return out


def _parse(text: str, ctx: Context, allow_fields: bool):
    """Parse all of ``text`` afresh; with ``allow_fields``, split the field."""
    if bad := _BAD_RE.search(text):
        raise ParseError(f"unexpected character {bad.group()!r}", bad.start())
    p = _Parser(_TOKEN_RE.findall(text) + [""], ctx, allow_fields)
    try:
        terms = p.parse_expr()
        if p.toks[p.i]:
            raise _Error(f"unexpected trailing input {p.toks[p.i]!r}", p.i, ParseError)
    except _Error as err:
        offsets = [m.start() for m in _TOKEN_RE.finditer(text)] + [len(text)]
        message, index, cls = err.args
        raise cls(message, offsets[index]) from err.__cause__
    if not allow_fields:
        return _expr_from_terms(terms)
    parts: tuple = ({}, {})  # every term is c * m * Dx or c * m * Dy, with no Dx, Dy in m
    for mono, c in terms.items():
        at = [j for j, (b, e) in enumerate(mono) if b in _TERMINALS and e == 1]
        rest = mono[:at[0]] + mono[at[0] + 1:] if at else ()
        if not at or not leaf_atoms(_expr_from_terms({rest: 1})).isdisjoint(_TERMINALS):
            raise ParseError("vector field must be linear in Dx and Dy", 0)
        parts[_TERMINALS[mono[at[0]][0]]][rest] = c
    xi, eta = map(_expr_from_terms, parts)
    if max(max_jet_order(xi) or 0, max_jet_order(eta) or 0) > 0:
        raise ParseError("vector field coefficients must not contain jets", 0)
    return VectorField(xi, eta)


_MEMO: dict = {}
_ABSENT = object()
_IDENT_RE = re.compile(r"[^\W\d]\w*")  # the ident tokens of a text


def _memoized(text: str, context: Optional[Context], allow_fields: bool):
    """``_parse``, kept by the text, the flags and the macro and parameter
    binding of each identifier the text names."""
    ctx = context or Context()
    names = dict.fromkeys(_IDENT_RE.findall(text))
    if not ctx.functions.keys().isdisjoint(names):
        return _parse(text, ctx, allow_fields)  # a slot may record its calls
    key = (text, allow_fields, ctx.auto_params, tuple([
        (ctx.macros.get(nm, _ABSENT), ctx.params.get(nm, _ABSENT)) for nm in names]))
    out = _MEMO.get(key)
    if out is None:
        if len(_MEMO) >= 1024:
            _MEMO.clear()
        out = _MEMO[key] = _parse(text, ctx, allow_fields)
    return out


def parse_expression(text: str, context: Optional[Context] = None) -> Expr:
    """Parse ``text`` to a normalized expression."""
    return _memoized(text, context, False)


def parse_vector_field(text: str, context: Optional[Context] = None) -> VectorField:
    """Parse a point vector field written with ``Dx``/``Dy`` terminals.

    Returns the VectorField (xi, eta); the input must be linear in Dx and Dy
    with coefficients free of them and of jets.
    """
    return _memoized(text, context, True)
