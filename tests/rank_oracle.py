"""An exact rank oracle, independent of `liesym.invariance._rank`.

`ref_fraction_rank` is plain Gaussian elimination with Fraction arithmetic
on the first nonzero pivot; `rank_at_point` evaluates a matrix of
expressions exactly at a rational point and takes that rank.
"""

from liesym.numeric import eval_exact


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
    return ref_fraction_rank([[eval_exact(entry, point) for entry in row] for row in matrix])
