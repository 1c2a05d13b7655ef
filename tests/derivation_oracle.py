"""The derivations as they were computed before one routine applied them.

`ref_diff` is the partial derivative by one atom: the power rule in place for
a base that is the atom, and the chain rule of `ref_diff_base` (compound
bases and transcendental calls) multiplied in through `_make_term` for every
other base.  `ref_total_derivative` is d/dx + sum_k y^(k+1) * d/dy^(k), and
`ref_apply_prolonged` is sum_a c_a * d/da over the coordinates x, y, y', ...
So each compound base goes through the chain rule once per coordinate.  An
oracle for `expr._derive`, which applies each derivation in one pass.
"""

from liesym import expr as E
from liesym.expr import ONE, ZERO, Atom, Expr, max_jet_order
from liesym.jet import _COORDS


def ref_diff(e: Expr, a: Atom) -> Expr:
    """d e / d a, all other atoms held fixed (a is matched by key)."""
    acc: dict = {}
    for mono, coeff in e.terms:
        for i, (b, ex) in enumerate(mono):
            if type(b) is Atom and b.kind != "transc":
                if b._key != a._key:
                    continue
                lowered = () if ex == 1 else ((b, ex - 1),)
                E._acc_add(acc, mono[:i] + lowered + mono[i + 1:], E._normal(coeff * ex))
                continue
            db = ref_diff_base(b, a)
            if db.is_zero_expr():
                continue
            rest = dict(mono)
            rest[b] = ex - 1
            E._mul_into(acc, E._make_term(coeff * ex, rest).terms, db.terms)
    return E._expr_from_terms(acc)


def ref_diff_base(b, a: Atom) -> Expr:
    """d b / d a for a base other than the atom `a`."""
    if isinstance(b, Atom):
        if b.kind == "transc":
            inner = ref_diff(b.arg, a)
            if inner.is_zero_expr():
                return ZERO
            return E._D_TRANSC[b.fn](b) * inner
        return ZERO
    if isinstance(b, Expr):
        return ref_diff(b, a)
    return ZERO


def ref_total_derivative(e: Expr) -> Expr:
    """D_x e as d/dx plus y^(k+1) * d/dy^(k) for each order up to e's."""
    top = max_jet_order(e)
    limit = top if top is not None else 0
    return E.sum_of_products([(ONE, ref_diff(e, _COORDS[0]))] + [
        (_COORDS[i + 1].as_expr(), ref_diff(e, _COORDS[i])) for i in range(1, limit + 2)])


def ref_apply_prolonged(PX, e: Expr) -> Expr:
    """pr(X) e as the sum of each coefficient times d e / d(its coordinate)."""
    return E.sum_of_products([(c, ref_diff(e, a)) for c, a in
                              zip((PX.base.xi, PX.base.eta) + PX.coeffs, _COORDS)])
