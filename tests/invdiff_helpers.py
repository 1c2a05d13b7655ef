"""The two-invariant recursion of Lie, which only the tests use.

From invariants u and v, each quotient w_k = D_x(w_{k-1}) / D_x(w_{k-2}) of
total derivatives is again an invariant; no catalog record states a
recursion claim, so the report never runs it.
"""

from typing import List

from liesym.expr import Expr, ExprError
from liesym.jet import total_derivative
from liesym.numeric import ZeroStatus, is_zero


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
        if is_zero(den).status == ZeroStatus.EXACT_ZERO:
            raise DegenerateDenominator(
                "total derivative of the previous invariant is identically zero")
        num = total_derivative(cur)
        nxt = num / den
        out.append(nxt)
        prev, cur = cur, nxt
    return out
