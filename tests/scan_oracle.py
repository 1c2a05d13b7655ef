"""The structure scans as separate walks with no cache: the oracle of
`expr._scan`.  Each walks `walk_bases` (or the top-level bases) on its own,
as the kernel did before one cached scan served them all."""

from liesym.expr import Atom, Expr, walk_bases


def leaf_atoms(e: Expr) -> frozenset:
    return frozenset([b for b, _ in walk_bases(e) if type(b) is Atom and b.kind != "transc"])


def max_jet_order(e: Expr):
    best = None
    for b, _ in walk_bases(e):
        if isinstance(b, Atom):
            if b.kind == "jet":
                best = b.order if best is None else max(best, b.order)
            elif b.kind == "dep" and best is None:
                best = 0
    return best


def is_rational_fragment(e: Expr) -> bool:
    for b, ex in walk_bases(e):
        if ex.denominator != 1 or isinstance(b, int):
            return False
        if isinstance(b, Atom) and b.kind == "transc":
            return False
    return True


def refused(e: Expr) -> bool:
    """What `power_split` refuses in every case: a transcendental atom, a
    constant surd, or a compound base that is not a rational fragment."""
    return any(type(b) is int or type(b) is Atom and b.kind == "transc"
               or type(b) is Expr and not is_rational_fragment(b)
               for mono, _c in e.terms for b, _ex in mono)


def is_polynomial(e: Expr) -> bool:
    for mono, _ in e.terms:
        for b, ex in mono:
            if not isinstance(b, Atom) or b.kind == "transc":
                return False
            if ex.denominator != 1 or ex < 0:
                return False
    return True


def scan(e: Expr) -> tuple:
    """The five facts in the order of `expr._scan`."""
    return (leaf_atoms(e), max_jet_order(e), is_rational_fragment(e), not refused(e),
            is_polynomial(e))
