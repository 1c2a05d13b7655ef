"""The two-invariant recursion of Lie and the Jacobian rank, which only the
tests use.

From invariants u and v, each quotient w_k = D_x(w_{k-1}) / D_x(w_{k-2}) of
total derivatives is again an invariant; no catalog record states a
recursion claim, so the report never runs it.  `functional_rank` certifies
functional dependence among invariants by a high-precision Jacobian rank.
"""

import random
from typing import List, Sequence

import mpmath

from liesym.expr import Expr, ExprError, diff, leaf_atoms
from liesym.jet import total_derivative
from liesym.numeric import (DEFAULT_PROBE, MAX_RETRIES, ProbeConfig, SamplingExhausted,
                            ZeroStatus, _BadPoint, eval_mp, is_zero, sample_point)
from eval_oracle import as_mpf
from rank_oracle import ref_numeric_rank


class DegenerateDenominator(ExprError):
    pass


def lie_recursion(u: Expr, v: Expr, steps: int) -> List[Expr]:
    """[w_1, ..., w_{steps+1}] with w_1 = v and
    w_k = D_x(w_{k-1}) / D_x(w_{k-2}), seeded by w_0 = u.

    Raises DegenerateDenominator when a denominator derivative vanishes
    identically.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    out = [v]
    prev, cur = u, v
    for _ in range(steps):
        den = total_derivative(prev)
        if is_zero(den, DEFAULT_PROBE).status == ZeroStatus.EXACT_ZERO:
            raise DegenerateDenominator(
                "total derivative of the previous invariant is identically zero")
        num = total_derivative(cur)
        nxt = num / den
        out.append(nxt)
        prev, cur = cur, nxt
    return out


def functional_rank(exprs: Sequence[Expr], probe: ProbeConfig = DEFAULT_PROBE) -> int:
    """Generic rank of the Jacobian of the given jet-space functions with
    respect to all their coordinates, the largest over 4 seeded admissible
    points at `probe.digits` digits.

    Used to certify functional dependence: for invariants {phi1, D(phi1),
    phi2} the rank stays at 2 even when the tabulated phi2 differs from
    D(phi1) by a function of phi1.
    """
    atoms = sorted(set().union(*(leaf_atoms(e) for e in exprs)), key=lambda a: a._key)
    jac = [[diff(e, a) for a in atoms] for e in exprs]
    rng = random.Random(probe.seed)
    best = found = 0
    with mpmath.workdps(probe.digits + 15):
        for _ in range(4 * MAX_RETRIES):
            point = sample_point(rng, atoms, frozenset())
            try:
                rows = [[as_mpf(eval_mp(e, point, probe.digits)) for e in row] for row in jac]
            except _BadPoint:
                continue
            best = max(best, ref_numeric_rank(rows, probe.digits))
            found += 1
            if found == 4:
                return best
    raise SamplingExhausted("could not find admissible Jacobian sample points")
