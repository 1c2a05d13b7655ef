"""The numerator D_X of pr(X)(f) - w*f for a split target, built in the
expression kernel: the oracle for the packed build of
`liesym.invariance._decide_log_derivatives`."""

import math

from liesym.expr import ONE, Expr, sum_of_products
from liesym.jet import apply_prolonged


def log_derivative_numerator(PX, w, N: Expr, factors) -> Expr:
    """D_X = (X(N) - w*N) * prod P_k + N * sum_k c_k*X(P_k)*prod_{i!=k} P_i
    for f = N * prod P_k^(c_k), with w = None for 0."""
    bases = [P for P, _c in factors]
    log_terms = sum_of_products(
        [(c * apply_prolonged(PX, P), math.prod(bases[:k] + bases[k + 1:], start=ONE))
         for k, (P, c) in enumerate(factors)])
    head = apply_prolonged(PX, N)
    if w is not None:
        head = head - w * N
    return sum_of_products([(head, math.prod(bases, start=ONE)), (N, log_terms)])
