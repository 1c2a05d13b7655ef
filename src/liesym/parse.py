"""Parser for the expression grammar and the vector-field input syntax.

Grammar (whitespace insignificant):

* identifiers ``x``, ``y``; jets ``y'``, ``y''``, ``y'''`` and ``y^(k)`` for
  k >= 1 (``y^(2)`` is the same atom as ``y''``); to raise y itself to a
  parenthesized power, parenthesize the base: ``(y)^(3)``.
* operators ``+ - * / ^`` with precedence ``^`` > unary minus > ``* /`` >
  ``+ -``; ``^`` is right-associative and its exponent must fold to an
  exact rational (integers, parenthesized rationals, or bound parameters).
* functions ``exp( ) ln( ) arctan( ) sin( ) cos( ) sqrt( )``; ``sqrt(u)``
  is ``u^(1/2)``.  ``fact(k)`` folds to k! for an integer k (usable inside
  coefficients and exponents).
* integers; rationals are written with ``/``.
* free identifiers must be declared in the :class:`Context` (as symbolic
  parameters, bound rational values, named macros, or function slots).

Vector fields use the same grammar extended with the terminals ``Dx`` and
``Dy`` and must be linear in them, e.g. ``x^2*Dx + r*x*y*Dy``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .expr import (
    Expr,
    ExprError,
    dep,
    diff,
    indep,
    jet,
    param,
    transcendental,
)
from .jet import MAX_JET_ORDER, total_derivative

_FUNCTIONS = ("exp", "ln", "arctan", "sin", "cos", "sqrt")


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    pass


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


@dataclass(frozen=True)
class _Token:
    kind: str  # num ident prime op end
    text: str
    pos: int


def _tokenize(text: str) -> list:
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(_Token("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if ch == "'":
            j = i
            while j < n and text[j] == "'":
                j += 1
            out.append(_Token("prime", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^(),":
            out.append(_Token("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(_Token("end", "", n))
    return out


class _Parser:
    def __init__(self, tokens: list, context: Context, allow_fields: bool = False):
        self.toks = tokens
        self.pos = 0
        self.ctx = context
        self.allow_fields = allow_fields

    # -- token plumbing ---------------------------------------------------

    def peek(self, ahead: int = 0) -> _Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

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
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            rhs = self.parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next()
            rhs = self.parse_unary()
            if op.text == "*":
                node = node * rhs
            else:
                if rhs.is_zero_expr():
                    raise ParseError("division by zero", op.pos)
                node = node / rhs
        return node

    def parse_unary(self) -> Expr:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.next()
            return -self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_primary()
        if self.peek().kind == "op" and self.peek().text == "^":
            caret = self.next()
            exponent = self.parse_exponent()
            try:
                return base.pow(exponent)
            except ExprError as exc:
                raise ParseError(str(exc), caret.pos) from exc
        return base

    def parse_exponent(self) -> Fraction:
        """Right-associative exponent, folded to an exact rational."""
        tok = self.peek()
        node = self.parse_unary_exponent()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.next()
            node = node ** self.parse_exponent()
        return self._fold_rational(node, tok.pos)

    def parse_unary_exponent(self):
        if self.peek().kind == "op" and self.peek().text == "-":
            self.next()
            return -self.parse_unary_exponent()
        tok = self.peek()
        e = self.parse_primary()
        return self._fold_rational(e, tok.pos)

    def _fold_rational(self, e, pos: int) -> Fraction:
        if isinstance(e, Fraction):
            return e
        if isinstance(e, Expr) and e.is_rational_const():
            return e.as_rational()
        raise ParseError("exponent does not reduce to an exact rational", pos)

    def parse_primary(self) -> Expr:
        t = self.next()
        if t.kind == "num":
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
            return self.parse_dependent(t)
        if name in ("Dx", "Dy"):
            if not self.allow_fields:
                raise UnknownIdentifierError(f"unknown identifier {name!r}", t.pos)
            return param("\x00" + name).as_expr()
        if name in _FUNCTIONS:
            self.expect_op("(")
            arg = self.parse_expr()
            self.expect_op(")")
            if name == "sqrt":
                try:
                    return arg.pow(Fraction(1, 2))
                except ExprError as exc:
                    raise ParseError(str(exc), t.pos) from exc
            return transcendental(name, arg)
        if name == "fact":
            self.expect_op("(")
            tok = self.peek()
            arg = self._fold_rational(self.parse_expr(), tok.pos)
            self.expect_op(")")
            if arg.denominator != 1 or arg < 0:
                raise ParseError("fact() needs a nonnegative integer", tok.pos)
            return Expr.rational(math.factorial(arg.numerator))
        if name == "factprod":
            self.expect_op("(")
            tok = self.peek()
            arg = self._fold_rational(self.parse_expr(), tok.pos)
            self.expect_op(")")
            if arg.denominator != 1 or arg < 0:
                raise ParseError("factprod() needs a nonnegative integer", tok.pos)
            out = 1
            for j in range(1, arg.numerator + 1):
                out *= math.factorial(j)
            return Expr.rational(out)
        if name == "totd":
            self.expect_op("(")
            arg = self.parse_expr()
            self.expect_op(")")
            return total_derivative(arg)
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

    def parse_dependent(self, t: _Token) -> Expr:
        """Bare ``y``: may continue as primes or the ``y^(k)`` jet spelling."""
        nxt = self.peek()
        if nxt.kind == "prime":
            self.next()
            order = len(nxt.text)
            self._check_jet(order, nxt.pos)
            return jet(order).as_expr()
        if nxt.kind == "op" and nxt.text == "^" and \
                self.peek(1).kind == "op" and self.peek(1).text == "(":
            caret = self.next()
            self.expect_op("(")
            tok = self.peek()
            inner = self.parse_expr()
            self.expect_op(")")
            r = self._fold_rational(inner, tok.pos)
            if r.denominator == 1 and r >= 1:
                order = r.numerator
                self._check_jet(order, tok.pos)
                node = jet(order).as_expr()
                # a further ^ binds to the jet atom: y^(4)^2
                if self.peek().kind == "op" and self.peek().text == "^":
                    self.next()
                    return node.pow(self.parse_exponent())
                return node
            try:
                return dep().as_expr().pow(r)
            except ExprError as exc:
                raise ParseError(str(exc), caret.pos) from exc
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
        if not (self.peek().kind == "op" and self.peek().text == ")"):
            while True:
                if self.peek().kind == "ident" and self.peek().text == "series":
                    args.extend(self.parse_series())
                else:
                    args.append(self.parse_expr())
                if self.peek().kind == "op" and self.peek().text == ",":
                    self.next()
                    continue
                break
        self.expect_op(")")
        try:
            return fn(args)
        except ExprError as exc:
            raise ParseError(f"function slot {name!r} failed: {exc}", t.pos) from exc

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
        tok = self.peek()
        lo = self._fold_rational(self.parse_expr(), tok.pos)
        self.expect_op(",")
        tok = self.peek()
        hi = self._fold_rational(self.parse_expr(), tok.pos)
        self.expect_op(",")
        if lo.denominator != 1 or hi.denominator != 1:
            raise ParseError("series() bounds must be integers", tok.pos)
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


def parse_expression(text: str, context: Optional[Context] = None) -> Expr:
    """Parse ``text`` to a normalized expression."""
    ctx = context or Context()
    p = _Parser(_tokenize(text), ctx)
    e = p.parse_expr()
    t = p.next()
    if t.kind != "end":
        raise ParseError(f"unexpected trailing input {t.text!r}", t.pos)
    return e


_DX = param("\x00Dx")
_DY = param("\x00Dy")


def parse_vector_field(text: str, context: Optional[Context] = None):
    """Parse a point vector field written with ``Dx``/``Dy`` terminals.

    Returns the pair (xi, eta) of coefficient expressions; the input must be
    linear in Dx and Dy with coefficients free of them.
    """
    ctx = context or Context()
    p = _Parser(_tokenize(text), ctx, allow_fields=True)
    e = p.parse_expr()
    t = p.next()
    if t.kind != "end":
        raise ParseError(f"unexpected trailing input {t.text!r}", t.pos)
    xi = diff(e, _DX)
    eta = diff(e, _DY)
    residual = e - xi * _DX.as_expr() - eta * _DY.as_expr()
    from .expr import leaf_atoms  # local import to keep module top thin

    if not residual.is_zero_expr() or \
            {_DX, _DY} & (leaf_atoms(xi) | leaf_atoms(eta)):
        raise ParseError("vector field must be linear in Dx and Dy", 0)
    return xi, eta
