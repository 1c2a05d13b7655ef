"""An oracle over `liesym.expr` that only the tests use.

`renormalized` rebuilds an expression from scratch through the public
constructors, to assert that normalization is idempotent.  It sums with
``+`` on purpose, not with `expr_sum`, so that it stays independent of the
single-pass sums it checks.
"""

from liesym.expr import ZERO, Atom, Expr, _make_term, transcendental


def renormalized(e: Expr) -> Expr:
    out = ZERO
    for mono, coeff in e.terms:
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
