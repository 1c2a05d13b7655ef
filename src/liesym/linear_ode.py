"""Constant-coefficient equations from characteristic roots, and recovery of
variable coefficients from a prescribed solution set.

For distinct roots a_1..a_n the equation y^(n) = sum A_i y^(i) has
characteristic polynomial t^n - sum A_i t^i = prod (t - a_k), so the A_i are
signed elementary symmetric functions.  Complex pairs a +- ib contribute the
real solutions e^(ax)cos(bx), e^(ax)sin(bx).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

import mpmath

from .expr import (
    Expr,
    ExprError,
    ONE,
    ZERO,
    dep,
    diff,
    indep,
    is_rational_fragment,
    jet_or_dep,
    sum_of_products,
    transcendental,
)
from .jet import VectorField
from .numeric import (
    DEFAULT_PROBE,
    MAX_RETRIES,
    ProbeConfig,
    ZeroStatus,
    _BadPoint,
    eval_mp,
    is_zero,
)


class DuplicateRoots(ExprError):
    pass


class DependentSolutions(ExprError):
    pass


@dataclass(frozen=True)
class CharSpec:
    """Distinct characteristic roots: real ones and complex pairs a +- ib."""

    real_roots: tuple = ()
    complex_pairs: tuple = ()

    def __post_init__(self):
        roots = [(Fraction(r), Fraction(0)) for r in self.real_roots]
        for a, b in self.complex_pairs:
            if Fraction(b) == 0:
                raise ValueError("complex pair with zero imaginary part")
            roots.append((Fraction(a), Fraction(b)))
            roots.append((Fraction(a), -Fraction(b)))
        if len(set(roots)) != len(roots):
            raise DuplicateRoots("characteristic roots must be pairwise distinct")

    @property
    def order(self) -> int:
        return len(self.real_roots) + 2 * len(self.complex_pairs)


@dataclass(frozen=True)
class LinearOde:
    """y^(order) = sum_{i} coeffs[i] * y^(i), coefficients as expressions."""

    order: int
    coeffs: tuple  # length == order, index i multiplies y^(i)

    def rhs(self) -> Expr:
        return sum_of_products((c, jet_or_dep(i).as_expr())
                               for i, c in enumerate(self.coeffs))

    def residual(self, solution: Expr) -> Expr:
        """Defect of a candidate solution (a function of x)."""
        derivs = _derivative_ladder(solution, self.order)
        total = derivs[self.order]
        for i, c in enumerate(self.coeffs):
            total = total - c * derivs[i]
        return total


def _derivative_ladder(f: Expr, order: int) -> list:
    x = indep()
    out = [f]
    for _ in range(order):
        out.append(diff(out[-1], x))
    return out


def coeffs_from_roots(roots: Sequence[Fraction]) -> List[Fraction]:
    """[A_0, ..., A_{n-1}] for y^(n) = sum A_i y^(i) with the given simple
    roots; raises DuplicateRoots on a repeated root."""
    return char_spec_coeffs(CharSpec(real_roots=tuple(roots)))


def char_spec_coeffs(spec: CharSpec) -> List[Fraction]:
    """Real coefficients for a root set with complex pairs: multiply the
    real linear factors and the rational quadratics t^2 - 2a t + (a^2+b^2)."""
    poly = [Fraction(1)]

    def mul(factor: list):
        nonlocal poly
        out = [Fraction(0)] * (len(poly) + len(factor) - 1)
        for i, c in enumerate(poly):
            for j, d in enumerate(factor):
                out[i + j] += c * d
        poly = out

    for r in spec.real_roots:
        mul([Fraction(1), -Fraction(r)])
    for a, b in spec.complex_pairs:
        a, b = Fraction(a), Fraction(b)
        mul([Fraction(1), -2 * a, a * a + b * b])
    n = spec.order
    return [-poly[n - i] for i in range(n)]


def linear_ode_from_spec(spec: CharSpec) -> LinearOde:
    coeffs = char_spec_coeffs(spec)
    return LinearOde(spec.order, tuple(Expr.rational(c) for c in coeffs))


def fundamental_solutions(spec: CharSpec) -> List[Expr]:
    """Expressions in x: e^(ax) per real root; e^(ax)cos(bx), e^(ax)sin(bx)
    per complex pair, in declaration order."""
    x = indep().as_expr()
    out = []
    for r in spec.real_roots:
        out.append(_exp_of(Fraction(r) * x))
    for a, b in spec.complex_pairs:
        ax, bx = Fraction(a) * x, Fraction(b) * x
        out.append(_exp_of(ax) * transcendental("cos", bx))
        out.append(_exp_of(ax) * transcendental("sin", bx))
    return out


def _exp_of(arg: Expr) -> Expr:
    return transcendental("exp", arg)


# -- coefficient recovery from prescribed solutions ---------------------------

def coeffs_from_solutions(xis: Sequence[Expr], order: int, lowest_index: int,
                          probe: ProbeConfig = DEFAULT_PROBE) -> List[Expr]:
    """Solve xi_k^(n) = sum_{i>=lowest_index} A_i(x) xi_k^(i) for the A_i.

    With rational-function solutions the elimination is exact over the
    expression field.  Otherwise the coefficients are assumed constant (the
    fundamental-solution use case), solved numerically at a sample point,
    validated at held-out points, and reconstructed as exact rationals.
    Returns [A_lowest, ..., A_{order-1}].
    """
    if not 0 <= lowest_index < order:
        raise ValueError("need 0 <= lowest_index < order")
    m = order - lowest_index
    if len(xis) != m:
        raise ValueError(f"need exactly {m} solutions, got {len(xis)}")
    ladders = [_derivative_ladder(f, order) for f in xis]
    rows = [[lad[i] for i in range(lowest_index, order)] for lad in ladders]
    rhs = [lad[order] for lad in ladders]
    if all(is_rational_fragment(e) for lad in ladders for e in lad):
        sol = _solve_exact(rows, rhs)
    else:
        sol = _solve_sampled(rows, rhs, probe)
    return sol


def _solve_exact(rows: list, rhs: list) -> list:
    m = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    for k in range(m):
        piv = None
        for i in range(k, m):
            if is_zero(a[i][k]).status == ZeroStatus.EXACT_NONZERO:
                piv = i
                break
        if piv is None:
            raise DependentSolutions("elimination degenerated; solutions dependent")
        a[k], a[piv] = a[piv], a[k]
        inv = a[k][k].pow(Fraction(-1))
        a[k] = [entry * inv for entry in a[k]]
        for i in range(m):
            if i != k and not a[i][k].is_zero_expr():
                f = a[i][k]
                a[i] = [u - f * v for u, v in zip(a[i], a[k])]
    return [a[i][m] for i in range(m)]


def _solve_sampled(rows: list, rhs: list, probe: ProbeConfig) -> list:
    m = len(rows)
    x = indep()
    rng = random.Random(probe.seed)
    digits = probe.digits

    def eval_at(e: Expr, t: Fraction):
        return eval_mp(e, {x: t}, digits)

    with mpmath.workdps(digits + 15):
        solution = None
        for _ in range(MAX_RETRIES):
            t0 = Fraction(rng.randint(1, 400), rng.randint(97, 211))
            try:
                A = mpmath.matrix([[eval_at(e, t0) for e in row] for row in rows])
                b = mpmath.matrix([eval_at(e, t0) for e in rhs])
                solution = mpmath.lu_solve(A, b)
                break
            except (_BadPoint, ZeroDivisionError):
                continue
        if solution is None:
            raise DependentSolutions("no admissible sample point for the solve")
        # exact reconstruction, then held-out validation
        out = []
        for v in solution:
            frac = _rationalize(v, digits)
            if frac is None:
                raise DependentSolutions(
                    "sampled solve did not reconstruct constant rational coefficients")
            out.append(frac)
        tol = mpmath.mpf(10) ** (-(digits - 20))
        for _ in range(3):
            t = Fraction(rng.randint(1, 500), rng.randint(101, 223))
            for row, b in zip(rows, rhs):
                lhs = sum(mpmath.mpf(c.numerator) / c.denominator * eval_at(e, t)
                          for c, e in zip(out, row))
                if abs(lhs - eval_at(b, t)) > tol:
                    raise DependentSolutions(
                        "held-out validation failed; coefficients are not constant")
    return [Expr.rational(c) for c in out]


def _rationalize(v, digits: int) -> Optional[Fraction]:
    f = Fraction(str(mpmath.nstr(v, digits // 2))).limit_denominator(10 ** 6)
    with mpmath.workdps(digits + 15):
        if abs(mpmath.mpf(f.numerator) / f.denominator - v) < mpmath.mpf(10) ** (-(digits // 2 - 10)):
            return f
    return None


# -- symmetry generator sets ---------------------------------------------------

def solution_symmetries(solutions: Sequence[Expr]) -> List[VectorField]:
    """eta(x) * d/dy for each prescribed solution."""
    return [VectorField(ZERO, s, f"sol{i+1}") for i, s in enumerate(solutions)]


def homogeneity_symmetry() -> VectorField:
    return VectorField(ZERO, dep().as_expr(), "yDy")


def translation_symmetry() -> VectorField:
    return VectorField(ONE, ZERO, "Dx")


def prop1_symmetries(xis: Sequence[Expr], lowest_index: int) -> List[VectorField]:
    """The generator set certifying a recovered equation: d/dy, y d/dy, the
    power solutions x^j below lowest_index, and each prescribed solution."""
    x = indep().as_expr()
    fields = [VectorField(ZERO, ONE, "Dy"), homogeneity_symmetry()]
    for j in range(1, lowest_index):
        fields.append(VectorField(ZERO, x ** j, f"x{j}Dy"))
    fields.extend(solution_symmetries(xis))
    return fields
