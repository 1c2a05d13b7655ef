"""Conversion of liesym expressions to sympy, for oracle tests.

sympy is a test-only dependency: callers import it with
``pytest.importorskip`` and pass the module in.
"""

from fractions import Fraction

from liesym import expr as E


def to_sympy(sympy, e):
    """The sympy expression of `e`; atoms become symbols named as printed."""
    def base(b):
        if isinstance(b, int):
            return sympy.Integer(b)
        if isinstance(b, E.Expr):
            return to_sympy(sympy, b)
        if b.kind == "transc":
            fn = {"arctan": sympy.atan, "ln": sympy.log}.get(b.fn) or getattr(sympy, b.fn)
            return fn(to_sympy(sympy, b.arg))
        return sympy.Symbol(E.atom_name(b))

    return sympy.Add(*(
        sympy.Mul(sympy.Rational(c.numerator, c.denominator),
                  *(base(b) ** sympy.Rational(Fraction(ex).numerator, Fraction(ex).denominator)
                    for b, ex in mono))
        for mono, c in e.terms))
