"""An oracle for `linear_ode_helpers.coeffs_from_roots`, independent of it.

For distinct roots a_1..a_n the coefficients A_i of y^(n) = sum A_i y^(i)
solve the Vandermonde system V X = B with B = (a_1^n, ..., a_n^n)^T.  This
module solves that system literally by Cramer's rule with exact fractions,
and gives the Vandermonde product formula for checking the determinants.
`cramer_solve` is that rule for any square system of rationals.
"""

from fractions import Fraction
from typing import List, Optional, Sequence

from liesym.linear_ode import DuplicateRoots


def vandermonde_matrix(roots: Sequence[Fraction]) -> list:
    return [[Fraction(r) ** j for j in range(len(roots))] for r in roots]


def vandermonde_det(roots: Sequence[Fraction]) -> Fraction:
    """Product formula prod_{i<j} (a_j - a_i), oriented to match the
    determinant of the ascending-power matrix rows (1, a, ..., a^(n-1))."""
    roots = [Fraction(r) for r in roots]
    out = Fraction(1)
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            out *= roots[j] - roots[i]
    return out


def fraction_det(matrix: list) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals."""
    a = [list(map(Fraction, row)) for row in matrix]
    n = len(a)
    sign = 1
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] * inv
            if f:
                a[i] = [u - f * v for u, v in zip(a[i], a[k])]
    return sign * det


def cramer_solve(matrix: list, rhs: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """[X_0, ..., X_{n-1}] with matrix X = rhs, X_i = det(M_i) / det(M) by
    `fraction_det`, M_i with column i replaced by rhs; None when det(M) = 0."""
    det = fraction_det(matrix)
    if det == 0:
        return None
    return [fraction_det([row[:i] + [b] + row[i + 1:] for row, b in zip(matrix, rhs)]) / det
            for i in range(len(matrix))]


def cramer_coeffs(roots: Sequence[Fraction]) -> List[Fraction]:
    """[A_0, ..., A_{n-1}] from V X = B, B = (a_k^n), solved by Cramer."""
    roots = [Fraction(r) for r in roots]
    if len(set(roots)) != len(roots):
        raise DuplicateRoots("repeated characteristic root")
    out = cramer_solve(vandermonde_matrix(roots), [r ** len(roots) for r in roots])
    if out is None:
        raise DuplicateRoots("singular Vandermonde matrix")
    return out
