"""Invariance judgments: equations, differential invariants, rank counting.

An nth-order equation y^(n) = H(x, y, ..., y^(n-1)) is invariant under a
field X when the prolonged action of X on y^(n) - H vanishes after the
substitution y^(n) -> H.  A jet-space function is a differential invariant
when every prolonged generator annihilates it outright.  The number of
independent invariants at order n is d_n = n + 2 - r_n where r_n is the
generic rank of the m x (n+2) matrix of prolonged coefficients, taken
exactly at seeded points until it reaches its bound min(m, n+2).  `bareiss`
is the package's one fraction-free elimination: this rank, the Lie
determinant and the Cramer solve run it.

Invariants and lambdas are decided over the packed monomials of
:mod:`liesym.poly`, in its ring of first-sight slots (`poly.shared`): a
product of monomials is one int addition.  The target's split hands over
its numerator N already packed in that ring, and the derivatives of N and
of the P_k are read from the packed exponents, so no part of D_X is built
as an expression.  An empty D_X is zero; another is
unpacked for `decide_exactly`, and when that proves it nonzero the witness
is probed on D_X times the split's nowhere-zero factor, so no residual is
built.  A target that does not split whole is decided class by class, in
the classes of the zero test (`numeric.classes`) and by its class rule
(`numeric.sum_of_classes`); only an undecided verdict builds the residual.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce
from typing import List, NamedTuple, Sequence, Tuple

from .expr import ONE, Checked, Expr, jet, leaf_atoms, max_jet_order, substitute
from .jet import (_COORDS, MAX_JET_ORDER, MaxOrderExceeded, VectorField, apply_prolonged,
                  coefficient_row, prolong)
from .numeric import (
    ProbeConfig,
    ZeroStatus,
    ZeroVerdict,
    _probe_once,
    _walker,
    classes,
    decide_exactly,
    is_zero,
    nonzero_verdict,
    power_split,
    sum_of_classes,
)
from .poly import degree, integral, mac, packed, shared, width


class _EquationSides(NamedTuple):
    order: int
    rhs: Expr


class OdeEquation(Checked, _EquationSides):
    """y^(order) = rhs, with rhs involving jets of order < order only, and
    1 <= order <= MAX_JET_ORDER (MaxOrderExceeded past it)."""

    __slots__ = ()

    def _check(self) -> None:
        if self.order < 1:
            raise ValueError("equation order must be >= 1")
        if self.order > MAX_JET_ORDER:
            raise MaxOrderExceeded(f"equation order {self.order} exceeds limit {MAX_JET_ORDER}")
        top = max_jet_order(self.rhs)
        if top is not None and top >= self.order:
            raise ValueError(
                f"rhs contains jet order {top}, not allowed at equation order {self.order}")

    def defect(self) -> Expr:
        return jet(self.order).as_expr() - self.rhs


class RankReport(NamedTuple):
    order: int
    rank_rn: int
    count_dn: int
    samples: int

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "rank": self.rank_rn,
            "count": self.count_dn,
            "samples": self.samples,
        }


def check_equation_invariance(fields: Sequence[VectorField], eq: OdeEquation,
                              probe: ProbeConfig) -> List[ZeroVerdict]:
    """Per-field verdict on pr_n(X)(y^(n) - rhs) restricted to the equation."""
    n = eq.order
    defect = eq.defect()
    constraint = {jet(n): eq.rhs}
    verdicts = []
    for X in fields:
        applied = apply_prolonged(prolong(X, n), defect)
        residual = substitute(applied, constraint)
        verdicts.append(is_zero(residual, probe))
    return verdicts


def check_differential_invariant(fields: Sequence[VectorField], phi: Expr,
                                 probe: ProbeConfig) -> List[ZeroVerdict]:
    """Per-field verdict on pr_k(X)(phi), with no constraint substitution."""
    return relative_invariant_verdicts(fields, phi, None, probe)


def relative_invariant_verdicts(fields: Sequence[VectorField], f: Expr, multiplier,
                                probe: ProbeConfig) -> List[ZeroVerdict]:
    """Per-field verdict on pr(X)(f) - w*f, where w = multiplier(X), or
    w = 0 when multiplier is None.

    When f splits as N * prod P_k^(c_k) (`power_split`), the residual is
    prod P_k^(c_k - 1) times
        D_X = (X(N) - w*N) * prod_k P_k + N * sum_k c_k*X(P_k)*prod_{i!=k} P_i,
    and that factor is nowhere zero where f is defined.  So the exact tier's
    answer on D_X settles the verdict whatever the c_k: zero without
    building the residual, and nonzero with the witness of that product
    (`nonzero_verdict`, at points where f is defined), which is the
    residual.  When f does not split whole, the residual, linear in f, is
    the sum of the products of its `classes`, each split: `sum_of_classes`
    decides it from their D_X answers, and a nonzero one is the nonzero
    class's product.  A class that lifts a factor or does not split (before
    any D_X is built) or an undecided sum sends the residual to `is_zero`.
    """
    split = power_split(f)
    prolonged = [prolong(X, max_jet_order(f) or 0) for X in fields]
    ws = [multiplier(X) if multiplier else None for X in fields]
    splits = [split] if split is not None else [
        None if lifted else power_split(group) for group, lifted in classes(f, frozenset())]
    decided = [] if None in splits else [_decide_log_derivatives(s, prolonged, ws) for s in splits]
    verdicts = []
    for PX, w, *answers in zip(prolonged, ws, *decided):
        zero = sum_of_classes(z for z, _E in answers) if answers else None
        if zero:
            verdicts.append(ZeroVerdict(ZeroStatus.EXACT_ZERO))
        elif zero is False:
            verdicts.append(nonzero_verdict(next(E for z, E in answers if z is False), f, probe))
        else:
            residual = apply_prolonged(PX, f)
            if w is not None:
                residual = residual - f * w
            verdicts.append(is_zero(residual, probe))
    return verdicts


def _decide_log_derivatives(split, prolonged, ws) -> list:
    """(decide_exactly(D_X), E) per field and w (None for 0) for the target's
    split (N, ((P_k, c_k), ...)): D_X = sum_a X(a)*G_a - w*H, with G_a and
    H = N * prod P_k the numerators of df/da and f, built once.  N comes
    packed from the split, and dN/da and dP_k/da are read from the packed
    exponents.  N, each P_k, the c_k (with dN/da and H) and each field's
    coefficients and w are scaled by the lcm of their denominators: D_X by
    a nonzero rational S.  When D_X is proved nonzero,
    E = prod P_k^(c_k - 1) * D_X / S is the residual pr(X)(f) - w*f; else E
    is None."""
    N, factors = split
    rows = [(PX.base.xi, PX.base.eta, *PX.coeffs, *([] if w is None else [w]))
            for PX, w in zip(prolonged, ws)]
    # a monomial of D_X is one of N or dN/da, one of each P_k or dP_k/da and
    # one of a field coefficient or w: its degree bounds every exponent
    bound = N.ring.total_degree(N) + sum(degree(P) for P, _c in factors) + max(
        [degree(v) for row in rows for v in row], default=0)
    ring = shared(width(bound))
    if N.ring is not ring:  # N holds atom slots only, so it repacks faithfully
        N = ring.pack(N.ring.unpack(N))
    polys, dens = zip(integral(N), *[packed(P, ring.W) for P, _c in factors])
    L = math.lcm(*[c.denominator for _P, c in factors])
    weights = [L] + [(L * c).numerator for _P, c in factors]
    W, mask = ring.W, (1 << ring.W) - 1
    G: dict = {}  # slot of a coordinate a -> G_a, and -1 -> -H
    for j, (poly, weight) in enumerate(zip(polys, weights)):
        cofactor = reduce(lambda acc, q: mac({}, acc, q, 1), polys[:j] + polys[j + 1:], {0: 1})
        if not j and ws.count(None) < len(ws):
            G[-1] = mac({}, poly, cofactor, -L)
        for m, k in poly.items():
            # N and the P_k are polynomials over the atoms; a coordinate's
            # slot is its place in a row
            r, s = m, 0
            while r and s < len(_COORDS):
                ex = r & mask
                if ex:
                    mac(G.setdefault(s, {}), {m - (1 << W * s): k * ex}, cofactor, weight)
                r, s = r >> W, s + 1
    decided, front = [], None
    for row, w in zip(rows, ws):
        scaled = [packed(v, ring.W) for v in row]
        scale = math.lcm(*[den for _p, den in scaled])
        acc: dict = {}
        for s, g in G.items():
            if s >= 0 or w is not None:
                mac(acc, scaled[s][0], g, scale // scaled[s][1])
        if not any(acc.values()):
            decided.append((True, None))
            continue
        D = ring.unpack(acc)
        zero = decide_exactly(D, frozenset())
        if zero is not False:
            decided.append((zero, None))
            continue
        if front is None:
            front = math.prod([P.pow(c - 1) for P, c in factors], start=ONE)
        decided.append((False, D * (front * Fraction(1, scale * L * math.prod(dens)))))
    return decided


def coefficient_matrix(fields: Sequence[VectorField], order: int) -> list:
    """m x (order+2) matrix of prolonged coefficients (xi, eta, eta[1..order])."""
    return [coefficient_row(X, order) for X in fields]


def rank_and_count(fields: Sequence[VectorField], order: int,
                   probe: ProbeConfig) -> RankReport:
    """Generic rank: the maximum exact rank over at most 5 seeded points.

    A point holds one rational per atom, in atom-key order.  The matrix is
    evaluated there by one exact walker (`numeric._walker`), each atom power
    and compound base once, and its rank taken (`_integer_rank`);
    `numeric._probe_once` resamples a point with a zero denominator.  Points
    are evaluated until the rank reaches its bound min(m, order + 2), or 5
    of them have been; the report counts them.  d_n = order + 2 - rank.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    matrix = coefficient_matrix(fields, order)
    atoms = sorted(set().union(*(leaf_atoms(e) for row in matrix for e in row)),
                   key=lambda a: a._key)
    full = min(len(matrix), order + 2)
    rng = random.Random(probe.seed)

    def rank_at(point):
        value, _domain = _walker(point, None)
        return _integer_rank([[value(e) for e in row] for row in matrix])
    best = samples = 0
    while best < full and samples < 5:
        _point, rank = _probe_once(rng, atoms, frozenset(), rank_at)
        best = max(best, rank)
        samples += 1
    return RankReport(order, best, order + 2 - best, samples)


def _integer_rank(rows: list) -> int:
    """Exact rank of a matrix of rationals by `bareiss` over the integers.
    Each row is first scaled by the lcm of its denominators
    (`poly.integral`), which keeps the rank."""
    return bareiss([[*integral(dict(enumerate(row)))[0].values()] for row in rows], 1, True)[0]


def bareiss(a: list, one, skip: bool) -> Tuple[int, int]:
    """Fraction-free elimination (Bareiss, Math. Comp. 1968) of the rows `a`
    in place, over the integers or the polynomials of `poly.Poly`: any domain
    with `*`, `-`, an exact `//`, `==`, a truth value and the unit `one`.
    The pivot of a column is its entry with the fewest terms in the rows not
    yet eliminated, and on a tie the one whose row has the fewest nonzero
    entries from that column on, then the first such row (Markowitz's rule
    in part: a sparse pivot row spreads the least fill into the rows below;
    over the integers, the first nonzero entry): a one-term pivot makes each
    product and division by it one pass over the other operand
    (`Poly.__mul__`, `__floordiv__`).
    Only rows are swapped.  A column without a pivot is skipped when `skip`
    (the rank), else it stops the elimination with sign 0.  Each entry right
    of and below a pivot is a minor of the row-swapped matrix, so dividing
    by the previous pivot is exact, and a square matrix ends with its
    determinant times the returned sign in the last entry: the rank, the
    determinant and the Cramer solve do not depend on the pivot rule.  The
    step (pv*x - f*y) // prev skips f*y when f or y is zero, keeps a zero x
    when both are, and leaves a row as it is when f is zero and pv == prev.
    Returns (rank, sign of the row swaps)."""
    m, n = len(a), len(a[0]) if a else 0
    rank = col = 0
    prev, sign, zero, sized = one, 1, one - one, isinstance(one, dict)
    while rank < m and col < n:
        live = [i for i in range(rank, m) if a[i][col]]
        if not live:
            if not skip:
                return rank, 0
            col += 1
            continue
        piv = min(live, key=lambda i: (len(a[i][col]), sum(map(bool, a[i][col:])))
                  ) if sized else live[0]
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        top = a[rank]
        pv = top[col]
        for row in a[rank + 1:]:
            f, row[col] = row[col], zero
            if not f and pv == prev:
                continue
            row[col + 1:] = [(pv * x - f * y) // prev if f and y else pv * x // prev if x else x
                             for x, y in zip(row[col + 1:], top[col + 1:])]
        prev = pv
        rank += 1
        col += 1
    return rank, sign
