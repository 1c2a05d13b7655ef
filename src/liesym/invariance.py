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
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .expr import ONE, Expr, jet, leaf_atoms, max_jet_order, substitute, sum_of_products
from .jet import VectorField, apply_prolonged, coefficient_row, prolong
from .numeric import (
    DEFAULT_PROBE,
    ProbeConfig,
    ZeroStatus,
    ZeroVerdict,
    _probe_once,
    decide_exactly,
    eval_exact,
    is_zero,
    power_split,
    probe_verdict,
)


@dataclass(frozen=True)
class OdeEquation:
    """y^(order) = rhs, with rhs involving jets of order < order only."""

    order: int
    rhs: Expr

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("equation order must be >= 1")
        top = max_jet_order(self.rhs)
        if top is not None and top >= self.order:
            raise ValueError(
                f"rhs contains jet order {top}, not allowed at equation order {self.order}")

    def defect(self) -> Expr:
        return jet(self.order).as_expr() - self.rhs


@dataclass(frozen=True)
class RankReport:
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
                              probe: ProbeConfig = DEFAULT_PROBE) -> List[ZeroVerdict]:
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
                                 probe: ProbeConfig = DEFAULT_PROBE) -> List[ZeroVerdict]:
    """Per-field verdict on pr_k(X)(phi), with no constraint substitution."""
    return relative_invariant_verdicts(fields, phi, None, probe)


def relative_invariant_verdicts(fields: Sequence[VectorField], f: Expr, multiplier,
                                probe: ProbeConfig = DEFAULT_PROBE) -> List[ZeroVerdict]:
    """Per-field verdict on pr(X)(f) - w*f, where w = multiplier(X), or
    w = 0 when multiplier is None.

    When f splits as N * prod P_k^(c_k) (`power_split`), the residual is
    prod P_k^(c_k - 1) times
        D_X = (X(N) - w*N) * prod_k P_k + N * sum_k c_k*X(P_k)*prod_{i!=k} P_i,
    and that factor is nowhere zero where f is defined.  So the exact tier's
    answer on D_X settles the verdict whatever the c_k: zero without
    building the residual, nonzero with the residual's probe witness
    (`probe_verdict`).  Without a split the residual goes to `is_zero`.
    """
    top = max_jet_order(f)
    k = top if top is not None else 0
    split = power_split(f)
    verdicts = []
    for X in fields:
        PX = prolong(X, k)
        w = multiplier(X) if multiplier else None
        zero = None if split is None else decide_exactly(_log_derivative_numerator(PX, w, *split))
        if zero:
            verdicts.append(ZeroVerdict(ZeroStatus.EXACT_ZERO))
            continue
        residual = apply_prolonged(PX, f)
        if w is not None:
            residual = residual - f * w
        verdicts.append(is_zero(residual, probe) if zero is None else
                        probe_verdict(residual, zero, probe, frozenset()))
    return verdicts


def _log_derivative_numerator(PX, w, N: Expr, factors) -> Expr:
    """D_X of `relative_invariant_verdicts` for f = N * prod P_k^(c_k)."""
    bases = [P for P, _c in factors]
    log_terms = sum_of_products(
        [(c * apply_prolonged(PX, P), math.prod(bases[:k] + bases[k + 1:], start=ONE))
         for k, (P, c) in enumerate(factors)])
    head = apply_prolonged(PX, N)
    if w is not None:
        head = head - w * N
    return sum_of_products([(head, math.prod(bases, start=ONE)), (N, log_terms)])


def coefficient_matrix(fields: Sequence[VectorField], order: int) -> list:
    """m x (order+2) matrix of prolonged coefficients (xi, eta, eta[1..order])."""
    return [coefficient_row(X, order) for X in fields]


def rank_and_count(fields: Sequence[VectorField], order: int,
                   probe: ProbeConfig = DEFAULT_PROBE) -> RankReport:
    """Generic rank: the maximum exact rank over at most 5 seeded points.

    A point holds one rational per atom, in atom-key order.  The matrix is
    evaluated there exactly (`eval_exact`) and its rank taken (`_integer_rank`);
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
    best = samples = 0
    while best < full and samples < 5:
        _point, rank = _probe_once(rng, atoms, frozenset(), lambda p: _integer_rank(
            [[eval_exact(e, p) for e in row] for row in matrix]))
        best = max(best, rank)
        samples += 1
    return RankReport(order, best, order + 2 - best, samples)


def _integer_rank(rows: list) -> int:
    """Exact rank of a matrix of rationals by `bareiss` over the integers.
    Each row is first scaled by the lcm of its denominators, which keeps
    the rank."""
    a = []
    for row in rows:
        scale = math.lcm(*[v.denominator for v in row])
        a.append([v.numerator * (scale // v.denominator) for v in row])
    return bareiss(a, 1, True)[0]


def bareiss(a: list, one, skip: bool) -> Tuple[int, int]:
    """Fraction-free elimination (Bareiss, Math. Comp. 1968) of the rows `a`
    in place, over the integers or `liedet`'s dense polynomials: any domain
    with `*`, `-`, an exact `//`, a truth value and the unit `one`.  The
    pivot is the first nonzero entry of a column; a column without one is
    skipped when `skip` (the rank), else it stops the elimination with sign
    0.  Each entry right of and below a pivot is a minor of the row-swapped
    matrix, so dividing by the previous pivot is exact, and a square matrix
    ends with its determinant times the returned sign in the last entry.
    Returns (rank, sign of the row swaps)."""
    m, n = len(a), len(a[0]) if a else 0
    rank = col = 0
    prev, sign, zero = one, 1, one - one
    while rank < m and col < n:
        piv = next((i for i in range(rank, m) if a[i][col]), None)
        if piv is None:
            if not skip:
                return rank, 0
            col += 1
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        top = a[rank]
        pv = top[col]
        for row in a[rank + 1:]:
            f, row[col] = row[col], zero
            row[col + 1:] = [(pv * x - f * y) // prev
                             for x, y in zip(row[col + 1:], top[col + 1:])]
        prev = pv
        rank += 1
        col += 1
    return rank, sign
