"""Rank oracles, independent of `liesym.invariance._integer_rank`.

`ref_fraction_rank` is plain Gaussian elimination with Fraction arithmetic
on the first nonzero pivot; `rank_at_point` evaluates a matrix of
expressions exactly at a rational point, by the oracle recursion
`eval_oracle.ref_eval_exact`, and takes that rank.
`ref_numeric_rank` eliminates mpmath values with partial pivoting and a
pivot tolerance, for matrices that have no exact value.
`ref_rank_and_count` is `rank_and_count`'s sampling loop as it was before it
stopped at a rank bound: it evaluates 5 admissible points whatever their
ranks, so it agrees with `rank_and_count` on the rank and the count, and on
the number of points only where the rank stays below its bound.
"""

import random

import mpmath

from liesym.expr import leaf_atoms
from liesym.invariance import RankReport, coefficient_matrix
from liesym.numeric import MAX_RETRIES, _BadPoint, sample_rational
from eval_oracle import ref_eval_exact


def ref_fraction_rank(rows):
    """Exact rank by elimination on the first nonzero pivot."""
    rows = [list(r) for r in rows]
    m, n = len(rows), len(rows[0]) if rows else 0
    rank = col = r = 0
    while r < m and col < n:
        pivot = next((i for i in range(r, m) if rows[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][col]
        for i in range(r + 1, m):
            f = rows[i][col] / pv
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        rank += 1
        r += 1
        col += 1
    return rank


def rank_at_point(matrix: list, point: dict) -> int:
    """Rank of a matrix of expressions at a rational point."""
    return ref_fraction_rank([[ref_eval_exact(entry, point) for entry in row] for row in matrix])


def ref_numeric_rank(rows, digits):
    """Rank with partial pivoting and pivot tolerance 10^-(digits//2)."""
    tol = mpmath.mpf(10) ** (-(digits // 2))
    rows = [list(r) for r in rows]
    m, n = len(rows), len(rows[0]) if rows else 0
    rank = col = r = 0
    while r < m and col < n:
        piv, pval = None, tol
        for i in range(r, m):
            if abs(rows[i][col]) > pval:
                piv, pval = i, abs(rows[i][col])
        if piv is None:
            col += 1
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, m):
            f = rows[i][col] / rows[r][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        rank += 1
        r += 1
        col += 1
    return rank


def ref_rank_and_count(fields, order, probe, samples=5):
    """The maximum rank over `samples` admissible points, each one evaluated."""
    matrix = coefficient_matrix(fields, order)
    atoms = sorted(set().union(*(leaf_atoms(e) for row in matrix for e in row)),
                   key=lambda a: a._key)
    rng = random.Random(probe.seed)
    best, points, tried = 0, [], 0
    while len(points) < samples and tried < samples * MAX_RETRIES:
        tried += 1
        point = {a: sample_rational(rng) for a in atoms}
        try:
            r = rank_at_point(matrix, point)
        except (_BadPoint, ZeroDivisionError):
            continue
        points.append(point)
        best = max(best, r)
    return RankReport(order, best, order + 2 - best, len(points))
