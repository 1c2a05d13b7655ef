"""Evaluation at a rational point, for the tests.

`ref_walker` and `ref_eval_exact` are oracles for `numeric._walker`,
independent of it: the probe's walk on raw `mpmath.libmp` calls, with the
precision and the rounding passed at every operation, and the exact
recursion over Fractions with no memo.  The walker must match them bit for
bit: equal `_mpf_` tuples, equal rejected points and equal messages.

`eval_exact` is the one-expression exact evaluation of the code under test,
`numeric._walker` with no digits, for tests that evaluate one expression.
`as_mpf` gives a probe value, a `decimal.Decimal`, to the mpmath oracles,
and `agrees` compares it with the value of `ref_walker`: the walker computes
in decimal and the oracle in binary, so their values agree to their
roundoff, not bit for bit.
"""

from fractions import Fraction

import mpmath
from mpmath import libmp

from liesym.expr import Atom, Expr, ExprError, _format_base_pow, atom_name
from liesym.numeric import ExactEvalError, _BadPoint, _walker

_RND = libmp.round_nearest
_MPF_FN = {"exp": libmp.mpf_exp, "ln": libmp.mpf_log, "arctan": libmp.mpf_atan,
           "sin": libmp.mpf_sin, "cos": libmp.mpf_cos}


def eval_exact(e, point):
    """e's exact value at `point` through the walker under test."""
    value, _domain = _walker(point, None)
    return value(e)


def as_mpf(d):
    """The Decimal d as an mpf at mpmath's working precision, parsed from
    its decimal string."""
    return mpmath.mpf(str(d))


def agrees(d, e, point, digits: int) -> bool:
    """Whether d, the probe's value of e at `point` at `digits` + 15 working
    digits, is the oracle walk's value there to 10^3 units in the last of
    those digits, relative to max(1, |value|), plus 10^2 times the largest
    error of the oracle walk at 13 to 15 guard digits.  The walker computes
    in decimal and the oracle in binary, so they agree to their roundoff,
    not bit for bit, and the second term lets that roundoff grow as much as
    the oracle's own where e is ill-conditioned at the point: near a pole,
    exp(1/(x - y)) at x - y = 2*10^-10 loses 20 digits."""
    def oracle(guard):
        return mpmath.mpf(ref_walker(point, digits + guard - 15)[0](e))

    with mpmath.workdps(digits + 60):
        want, truth = oracle(15), oracle(55)
        spread = max(abs(oracle(guard) - truth) for guard in (13, 14, 15))
        unit = mpmath.mpf(10) ** -(digits + 15)
        return abs(as_mpf(d) - want) <= 10 ** 3 * unit * max(1, abs(want)) + 10 ** 2 * spread


def _mpf_rational(p: int, q: int, prec: int):
    """Raw value of ``mpf(p) / q`` at ``prec`` bits."""
    return libmp.mpf_div(libmp.mpf_pos(libmp.from_int(p), prec, _RND),
                         libmp.from_int(q), prec, _RND)


def ref_walker(point, digits: int):
    """(value, domain) over raw libmp values at `digits` + 15 digits, one
    memo per point; `value(e)` is the raw `_mpf_` tuple."""
    prec = libmp.dps_to_prec(digits + 15)
    tiny = libmp.mpf_pow_int(libmp.from_int(10), -10, prec, _RND)
    mul, add, lt = libmp.mpf_mul, libmp.mpf_add, libmp.mpf_lt
    memo: dict = {}
    checked = set()

    def node(e):
        total = libmp.fzero
        for mono, coeff in e._terms:
            v = _mpf_rational(coeff.numerator, coeff.denominator, prec)
            for b, ex in mono:
                v = mul(v, base(b) if ex == 1 else power(b, ex), prec, _RND)
            total = add(total, v, prec, _RND)
        return total

    def base(b):
        bv = memo.get(b)
        if bv is not None:
            return bv
        if isinstance(b, Atom):
            if b.kind == "transc":
                arg = base(b.arg)
                if b.fn == "ln" and lt(arg, tiny):
                    raise _BadPoint
                bv = _MPF_FN[b.fn](arg, prec, _RND)
            else:
                val = point.get(b)
                if val is None:
                    raise ExprError(f"no value supplied for {atom_name(b)}")
                bv = _mpf_rational(val.numerator, val.denominator, prec)
        elif isinstance(b, int):
            bv = libmp.mpf_pos(libmp.from_int(b), prec, _RND)
        else:
            bv = node(b)
        memo[b] = bv
        return bv

    def admissible(b, ex):
        bv = base(b)
        if ex.denominator == 1:
            if ex < 0 and lt(libmp.mpf_abs(bv, prec, _RND), tiny):
                raise _BadPoint
        elif lt(bv, tiny):
            raise _BadPoint
        return bv

    def power(b, ex):
        pv = memo.get((b, ex))
        if pv is not None:
            return pv
        bv = admissible(b, ex)
        if ex.denominator == 1:
            pv = libmp.mpf_pow_int(bv, ex.numerator, prec, _RND)
        else:
            pv = libmp.mpf_pow(bv, _mpf_rational(ex.numerator, ex.denominator, prec),
                               prec, _RND)
        memo[(b, ex)] = pv
        return pv

    def domain(e):
        for mono, _coeff in e._terms:
            for b, ex in mono:
                if ex < 0 or ex.denominator != 1:
                    admissible(b, ex)
                elif b in memo or b in checked or isinstance(b, int):
                    continue
                elif isinstance(b, Expr):
                    domain(b)
                elif b.kind == "transc":
                    if b.fn != "ln":
                        domain(b.arg)
                    elif lt(base(b.arg), tiny):
                        raise _BadPoint
                checked.add(b)

    return node, domain


def ref_eval_exact(e, point) -> Fraction:
    """Exact value by recursion over Fractions: integer powers of atoms and
    compound bases only."""
    total = Fraction(0)
    for mono, coeff in e._terms:
        v = coeff
        for b, ex in mono:
            if ex.denominator != 1 or isinstance(b, Atom) and b.kind == "transc":
                raise ExactEvalError(
                    f"{_format_base_pow(b, ex)} has no exact value at a rational point")
            if isinstance(b, Atom):
                bv = point.get(b)
                if bv is None:
                    raise ExprError(f"no value supplied for {atom_name(b)}")
            else:
                bv = ref_eval_exact(b, point)
            if bv == 0 and ex < 0:
                raise _BadPoint
            v *= bv ** ex.numerator
        total += v
    return total
