"""The expression parser as an expression-valued recursive descent: the
oracle for `liesym.parse._parse`.

Every grammar step builds a normalized `Expr` (each partial sum and product
renormalized, each number an `Expr.rational`), the tokens are named tuples
with character offsets, and a vector field is split by differentiating in
Dx and Dy.  `parse` must give the same `_key`, or the same error type,
offset and message, as `liesym.parse._parse`; a jet past the ceiling is a
`JetOrderError` in both.
"""

import math
import re
from fractions import Fraction
from typing import NamedTuple

from liesym.expr import (
    Expr,
    ExprError,
    _extract_content,
    dep,
    diff,
    indep,
    jet,
    jet_or_dep,
    leaf_atoms,
    max_jet_order,
    param,
    transcendental,
)
from liesym.jet import MAX_JET_ORDER, MaxOrderExceeded, total_derivative
from liesym.parse import (
    _FUNCTIONS,
    _MAX_BITS,
    Context,
    JetOrderError,
    ParseError,
    UnknownIdentifierError,
)


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
        cls = JetOrderError if isinstance(exc, MaxOrderExceeded) else ParseError
        raise cls(str(exc), pos) from exc


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
            if r.denominator == 1 and r >= 0:
                self._check_jet(r.numerator, pos)
                return jet_or_dep(r.numerator).as_expr()
            return _guard(caret.pos, dep().as_expr().pow, r)
        return dep().as_expr()

    def _check_jet(self, order: int, pos: int) -> None:
        if order > MAX_JET_ORDER:
            raise JetOrderError(
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


def parse(text: str, ctx: Context, allow_fields: bool):
    """Parse all of ``text``; with ``allow_fields``, split the field."""
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


