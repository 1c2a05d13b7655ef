"""Parser for the expression grammar and the vector-field input syntax.

Grammar (whitespace insignificant):

* numbers are runs of decimal digits; rationals are written with ``/``.  An
  identifier starts with a word character that is not a decimal digit.
* jets ``y'``, ``y''``, ``y'''`` and ``y^(k)`` for k >= 1 (``y^(2)`` is the
  same atom as ``y''``); to raise y itself to a parenthesized power,
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
:class:`ParseError` at the offending token's character offset.  The bound
holds for every coefficient of a product too (``2^8000*2^8000`` is an error
at its ``*``).  Parses are kept, up to 1,024, by text, flags and the binding
of each name the text reads, unless the text calls a function slot or raises.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

from .expr import (
    Expr,
    ExprError,
    _extract_content,
    dep,
    diff,
    indep,
    jet,
    leaf_atoms,
    max_jet_order,
    param,
    transcendental,
)
from .jet import MAX_JET_ORDER, total_derivative

_FUNCTIONS = ("exp", "ln", "arctan", "sin", "cos", "sqrt")


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at character {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    pass


# The size in bits of the largest number, coefficient of a power or product,
# fact or factprod that the parser builds from input.  The catalog builds at
# most 28 bits (the number 255150000); a value of the bound takes microseconds,
# and its 2,467 digits stay below Python's int-to-str limit of 4,300.
_MAX_BITS = 1 << 13


def _check_bits(bits: float, pos: int) -> None:
    if bits > _MAX_BITS:
        raise ParseError(f"exact value of more than {_MAX_BITS} bits", pos)


def _check_power(base: Expr, r: Fraction, pos: int) -> None:
    """Bound what ``base^r`` builds: c^r has |r| * log2(c) bits, a sum of t
    terms to an integer power k has C(t+k-1, k) terms, and a sum under a
    negative or fractional power is split as content * body by `Expr.pow`,
    which keeps the body and takes only the content to the power r."""
    coeffs = [c for _, c in base._terms]
    if len(coeffs) > 1 and (r < 0 or r.denominator != 1):
        content, body = _extract_content(base)
        _check_bits(max(abs(c) for _, c in body._terms).bit_length(), pos)
        coeffs = [content]
    m = max((max(abs(c.numerator), c.denominator) for c in coeffs), default=1)
    if m > 1:
        _check_bits(min(abs(r), _MAX_BITS + 1) * math.log2(m), pos)
    t, k = len(base._terms), min(r.numerator, 512) if r.denominator == 1 else 0
    if t > 1 and k > 1 and math.comb(t + k - 1, k) > 512:
        raise ParseError("power of a sum with more than 512 terms", pos)


def _guard(pos: int, fn, *args):
    """``fn(*args)`` for a value built from input; a kernel error becomes a
    ParseError at ``pos``."""
    try:
        return fn(*args)
    except ExprError as exc:
        raise ParseError(str(exc), pos) from exc


@dataclass
class Context:
    """Symbol table for parsing.

    ``params`` maps declared names to an exact rational value or to None for
    a symbolic parameter atom.  ``macros`` are named expressions spliced in
    by reference.  ``functions`` are arbitrary-function slots applied to
    their parsed argument list at parse time.
    """

    params: dict = field(default_factory=dict)
    macros: dict = field(default_factory=dict)
    functions: dict = field(default_factory=dict)
    auto_params: bool = False

    def child(self, **extra_params) -> "Context":
        p = dict(self.params)
        p.update(extra_params)
        return Context(p, dict(self.macros), dict(self.functions), self.auto_params)


class _Token(NamedTuple):
    kind: str  # num ident prime op end
    text: str
    pos: int


# number | identifier | primes | operator | any other non-space character
_TOKEN_RE = re.compile(r"(\d+)|([^\W\d]\w*)|('+)|([-+*/^(),])|(\S)")
_KINDS = (None, "num", "ident", "prime", "op")


def _tokenize(text: str) -> list:
    out = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastindex == len(_KINDS):
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        # tuple.__new__ skips the named tuple's Python-level constructor
        out.append(tuple.__new__(_Token, (_KINDS[m.lastindex], m.group(), m.start())))
    out.append(_Token("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, tokens: list, context: Context, allow_fields: bool):
        self.toks = tokens
        self.pos = 0
        self.ctx = context
        self.allow_fields = allow_fields

    # -- token plumbing ---------------------------------------------------

    def peek(self) -> _Token:
        return self.toks[self.pos]  # never past the end token

    def at(self, ops: str) -> bool:
        """Whether the next token is one of the operators ``ops``."""
        t = self.toks[self.pos]
        return t.kind == "op" and t.text in ops

    def next(self) -> _Token:
        t = self.toks[self.pos]
        if t.kind != "end":
            self.pos += 1
        return t

    def expect_op(self, text: str) -> _Token:
        t = self.next()
        if t.kind != "op" or t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}", t.pos)
        return t

    # -- grammar ----------------------------------------------------------

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.at("+-"):
            op = self.next().text
            rhs = self.parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.at("*/"):
            op = self.next()
            rhs = self.parse_unary()
            if op.text == "*":
                node = node * rhs
            elif rhs.is_zero_expr():
                raise ParseError("division by zero", op.pos)
            else:
                _check_power(rhs, Fraction(-1), op.pos)
                node = node / rhs
            _check_power(node, 1, op.pos)  # the coefficients of the product
        return node

    def parse_unary(self) -> Expr:
        if self.at("-"):
            self.next()
            return -self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_primary()
        if not self.at("^"):
            return base
        caret = self.next()
        r = self._fold_rational(self.parse_unary)
        _check_power(base, r, caret.pos)
        return _guard(caret.pos, base.pow, r)

    def _fold_rational(self, parse) -> Fraction:
        """Run ``parse`` and fold its expression to an exact rational."""
        pos = self.peek().pos
        e = parse()
        if not e.is_rational_const():
            raise ParseError("expected an expression that folds to an exact rational", pos)
        return e.as_rational()

    def _int_arg(self, name: str) -> int:
        """``(k)`` for a nonnegative integer k, the argument of fact and factprod."""
        self.expect_op("(")
        pos = self.peek().pos
        k = self._fold_rational(self.parse_expr)
        self.expect_op(")")
        if k.denominator != 1 or k < 0:
            raise ParseError(f"{name}() needs a nonnegative integer", pos)
        return k.numerator

    def _call_arg(self) -> Expr:
        self.expect_op("(")
        arg = self.parse_expr()
        self.expect_op(")")
        return arg

    def parse_primary(self) -> Expr:
        t = self.next()
        if t.kind == "num":
            _check_bits(len(t.text) * math.log2(10), t.pos)
            return Expr.rational(int(t.text))
        if t.kind == "op" and t.text == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if t.kind == "ident":
            return self.parse_ident(t)
        raise ParseError(f"unexpected token {t.text or 'end of input'!r}", t.pos)

    def parse_ident(self, t: _Token) -> Expr:
        name = t.text
        if name == "x":
            return indep().as_expr()
        if name == "y":
            return self.parse_dependent()
        if name in ("Dx", "Dy"):
            if not self.allow_fields:
                raise UnknownIdentifierError(f"unknown identifier {name!r}", t.pos)
            return param("\x00" + name).as_expr()
        if name in _FUNCTIONS:
            arg = self._call_arg()
            if name == "sqrt":
                _check_power(arg, Fraction(1, 2), t.pos)
                return _guard(t.pos, arg.pow, Fraction(1, 2))
            return _guard(t.pos, transcendental, name, arg)
        if name in ("fact", "factprod"):
            k = self._int_arg(name)
            js = range(1, k + 1) if name == "factprod" else [k]
            _check_bits(k, t.pos)  # k! has at least k bits for k > 3
            _check_bits(sum(math.lgamma(j + 1) for j in js) / math.log(2), t.pos)
            return Expr.rational(math.prod(math.factorial(j) for j in js))
        if name == "totd":
            return _guard(t.pos, total_derivative, self._call_arg())
        if name in self.ctx.functions:
            return self.parse_function_slot(name, t)
        if name in self.ctx.macros:
            return self.ctx.macros[name]
        if name in self.ctx.params:
            bound = self.ctx.params[name]
            if bound is None:
                return param(name).as_expr()
            return Expr.rational(bound)
        if self.ctx.auto_params:
            return param(name).as_expr()
        raise UnknownIdentifierError(f"unknown identifier {name!r}", t.pos)

    def parse_dependent(self) -> Expr:
        """Bare ``y``: may continue as primes or the ``y^(k)`` jet spelling."""
        nxt = self.peek()
        if nxt.kind == "prime":
            self.next()
            order = len(nxt.text)
            self._check_jet(order, nxt.pos)
            return jet(order).as_expr()
        if self.at("^") and self.toks[self.pos + 1].text == "(":
            caret = self.next()
            self.expect_op("(")
            pos = self.peek().pos
            r = self._fold_rational(self.parse_expr)
            self.expect_op(")")
            if r.denominator == 1 and r >= 1:
                self._check_jet(r.numerator, pos)
                return jet(r.numerator).as_expr()
            return _guard(caret.pos, dep().as_expr().pow, r)
        return dep().as_expr()

    def _check_jet(self, order: int, pos: int) -> None:
        if order > MAX_JET_ORDER:
            raise ParseError(
                f"jet order {order} exceeds the maximum {MAX_JET_ORDER}", pos)

    def parse_function_slot(self, name: str, t: _Token) -> Expr:
        """Apply an arbitrary-function slot to its parsed argument list."""
        fn = self.ctx.functions[name]
        self.expect_op("(")
        args: list = []
        if not self.at(")"):
            while True:
                if self.peek().kind == "ident" and self.peek().text == "series":
                    args.extend(self.parse_series())
                else:
                    args.append(self.parse_expr())
                if not self.at(","):
                    break
                self.next()
        self.expect_op(")")
        return _guard(t.pos, fn, args)

    def parse_series(self) -> list:
        """series(var, lo, hi, template): the template re-parsed per var value.

        Expands to the (possibly empty) list of instances for var = lo..hi.
        """
        self.next()  # 'series'
        self.expect_op("(")
        var_tok = self.next()
        if var_tok.kind != "ident":
            raise ParseError("series() needs a loop variable name", var_tok.pos)
        self.expect_op(",")
        lo = self._fold_rational(self.parse_expr)
        self.expect_op(",")
        pos = self.peek().pos
        hi = self._fold_rational(self.parse_expr)
        self.expect_op(",")
        if lo.denominator != 1 or hi.denominator != 1:
            raise ParseError("series() bounds must be integers", pos)
        start = self.pos
        out = []
        end = None
        values = list(range(lo.numerator, hi.numerator + 1)) or [lo.numerator]
        for k in values:
            sub = _Parser(self.toks, self.ctx.child(**{var_tok.text: Fraction(k)}),
                          self.allow_fields)
            sub.pos = start
            item = sub.parse_expr()
            end = sub.pos
            if lo <= k <= hi:
                out.append(item)
        self.pos = end
        self.expect_op(")")
        return out


_DX = param("\x00Dx")
_DY = param("\x00Dy")


def _parse(text: str, ctx: Context, allow_fields: bool):
    """Parse all of ``text`` afresh; with ``allow_fields``, split the field."""
    p = _Parser(_tokenize(text), ctx, allow_fields)
    e = p.parse_expr()
    t = p.next()
    if t.kind != "end":
        raise ParseError(f"unexpected trailing input {t.text!r}", t.pos)
    if not allow_fields:
        return e
    xi = diff(e, _DX)
    eta = diff(e, _DY)
    residual = e - xi * _DX.as_expr() - eta * _DY.as_expr()
    if not residual.is_zero_expr() or \
            {_DX, _DY} & (leaf_atoms(xi) | leaf_atoms(eta)):
        raise ParseError("vector field must be linear in Dx and Dy", 0)
    if max(max_jet_order(xi) or 0, max_jet_order(eta) or 0) > 0:
        raise ParseError("vector field coefficients must not contain jets", 0)
    return xi, eta


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


def parse_vector_field(text: str, context: Optional[Context] = None):
    """Parse a point vector field written with ``Dx``/``Dy`` terminals.

    Returns the pair (xi, eta) of coefficient expressions; the input must be
    linear in Dx and Dy with coefficients free of them and of jets.
    """
    return _memoized(text, context, True)
