"""Invariance judgments: equations, differential invariants, rank counting.

An nth-order equation y^(n) = H(x, y, ..., y^(n-1)) is invariant under a
field X when the prolonged action of X on y^(n) - H vanishes after the
substitution y^(n) -> H.  A jet-space function is a differential invariant
when every prolonged generator annihilates it outright.  The number of
independent invariants at order n is d_n = n + 2 - r_n where r_n is the
generic rank of the m x (n+2) matrix of prolonged coefficients.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from .expr import (ONE, Expr, is_rational_fragment, jet, leaf_atoms, max_jet_order,
                   substitute, sum_of_products)
from .jet import VectorField, apply_prolonged, coefficient_row, prolong
from .numeric import (
    DEFAULT_PROBE,
    MAX_RETRIES,
    ProbeConfig,
    SamplingExhausted,
    ZeroStatus,
    ZeroVerdict,
    _BadPoint,
    decide_exactly,
    eval_exact,
    exact_nonzero,
    fractional_power_degrees,
    is_zero,
    power_split,
    sample_point,
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
    sample_points: tuple

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "rank": self.rank_rn,
            "count": self.count_dn,
            "samples": len(self.sample_points),
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
    and that factor is nowhere zero where f is defined.  So a D_X that the
    exact tier decides settles the verdict whatever the c_k: zero without
    building the residual, nonzero from the residual's witness when the
    residual is rational.  Otherwise the residual goes to `is_zero`.
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
        if zero is False and is_rational_fragment(residual):
            verdicts.append(exact_nonzero(residual, probe))
        else:
            verdicts.append(is_zero(residual, probe))
    return verdicts


def _log_derivative_numerator(PX, w, N: Expr, factors) -> Expr:
    """D_X of `relative_invariant_verdicts` for f = N * prod P_k^(c_k)."""
    bases = [P for P, _c in factors]
    log_terms = sum_of_products(
        [(c * apply_prolonged(PX, P), _product(bases[:k] + bases[k + 1:]))
         for k, (P, c) in enumerate(factors)])
    head = apply_prolonged(PX, N)
    if w is not None:
        head = head - w * N
    return sum_of_products([(head, _product(bases)), (N, log_terms)])


def _product(exprs) -> Expr:
    out = ONE
    for e in exprs:
        out = out * e
    return out


def coefficient_matrix(fields: Sequence[VectorField], order: int) -> list:
    """m x (order+2) matrix of prolonged coefficients (xi, eta, eta[1..order])."""
    return [coefficient_row(X, order) for X in fields]


def rank_at_point(matrix: list, point: dict) -> int:
    return _rank([[eval_exact(entry, point) for entry in row] for row in matrix])


def rank_and_count(fields: Sequence[VectorField], order: int,
                   probe: ProbeConfig = DEFAULT_PROBE) -> RankReport:
    """Generic rank over 5 exact rational sample points.

    The rank is certified with exact fraction arithmetic at each point and
    the maximum over samples is reported; d_n = order + 2 - rank.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    best, points = generic_rank(coefficient_matrix(fields, order), probe, 5, eval_exact)
    return RankReport(order, best, order + 2 - best, points)


def generic_rank(matrix: list, probe: ProbeConfig, samples: int, evaluate, tol=0):
    """(largest rank, points) of a matrix of expressions over `samples`
    admissible seeded points; each point is a tuple of (atom, value).

    `evaluate(entry, point)` gives each entry's value; a point where it
    raises _BadPoint or ZeroDivisionError is skipped.  Atoms under
    fractional powers are sampled as |t|^q (see `sample_point`), which
    keeps exact evaluation rational.
    """
    atoms = set()
    for row in matrix:
        for entry in row:
            atoms |= leaf_atoms(entry)
    atoms = sorted(atoms, key=lambda a: a._key)
    degrees = fractional_power_degrees(e for row in matrix for e in row)
    rng = random.Random(probe.seed)
    best = 0
    points = []
    tried = 0
    while len(points) < samples and tried < samples * MAX_RETRIES:
        tried += 1
        point = sample_point(rng, atoms, degrees=degrees)
        try:
            best = max(best, _rank([[evaluate(e, point) for e in row] for row in matrix], tol))
        except (_BadPoint, ZeroDivisionError):
            continue
        points.append(tuple((a, point[a]) for a in atoms))
    if len(points) < samples:
        raise SamplingExhausted("could not find admissible rank sample points")
    return best, tuple(points)


def _rank(rows: list, tol=0) -> int:
    """Rank by Gaussian elimination; an entry counts as zero when
    |entry| <= tol (tol = 0 for exact values).  Inexact values pivot on the
    largest entry (partial pivoting).  Any nonzero exact pivot gives the
    same rank, so exact values take the first one, which keeps their
    fractions smaller."""
    rows = [list(row) for row in rows]
    m, n = len(rows), len(rows[0]) if rows else 0
    rank = col = 0
    while rank < m and col < n:
        if tol:
            piv = max(range(rank, m), key=lambda i: abs(rows[i][col]))
            piv = piv if abs(rows[piv][col]) > tol else None
        else:
            piv = next((i for i in range(rank, m) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        pv = rows[piv][col]
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, m):
            f = rows[i][col] / pv
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank
