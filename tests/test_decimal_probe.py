"""The probe's number type, `decimal.Decimal`, against mpmath: the root,
sin, cos, arctan, exp and ln of the probe's walk are within one unit in the
last place of mpmath's at 36, 65 and 200 digits, and the witness's magnitude
prints as `mpmath.nstr(v, 6)` does.  The walk itself is compared with the
mpmath oracle walk in `test_domain_walk.py`.
"""

from decimal import Decimal, localcontext

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from liesym.numeric import _arctan, _magnitude, _root, _sin_cos
from eval_oracle import as_mpf

_PRECISIONS = [36, 65, 200]  # the working digits of probes at 21, 50 and 185 digits


def _within_an_ulp(got, want, prec, scale) -> bool:
    """|got - want| <= 10^(1-prec) * scale: one unit in the last of `prec`
    digits for a value of magnitude `scale`."""
    return abs(as_mpf(got) - want) <= mpmath.mpf(10) ** (1 - prec) * scale


@pytest.mark.parametrize("prec", _PRECISIONS)
@settings(max_examples=60)
@given(st.integers(10 ** 20, 10 ** 21 - 1), st.integers(-2000, 2000),
       st.integers(2, 9) | st.sampled_from([309, 999, 1000, 10 ** 13]))
def test_roots_match_mpmath_outside_the_float_range(prec, mantissa, exponent, q):
    # v up to 10^±2000, past float's 10^±308, and q past 308, where v / 10^(q*k)
    # in [1, 10^q) is past it too, and past the iteration's bound of 999
    v = Decimal(mantissa).scaleb(exponent - 20)
    with localcontext() as ctx:
        ctx.prec = prec
        v = +v
        got = _root(v, q)
    with mpmath.workdps(prec + 20):
        want = mpmath.root(mpmath.mpf(str(v)), q)
        assert _within_an_ulp(got, want, prec, want)


@pytest.mark.parametrize("prec", _PRECISIONS)
@settings(max_examples=60)
@given(st.fractions(-100, 100, max_denominator=10 ** 6))
def test_calls_match_mpmath_up_to_a_hundred(prec, q):
    with localcontext() as ctx:
        ctx.prec = prec
        x = Decimal(q.numerator) / q.denominator
        got = {"sin": _sin_cos(x, 1), "cos": _sin_cos(x, 0), "atan": _arctan(x),
               "exp": x.exp()}
        if x > 0:
            got["ln"] = x.ln()
    with mpmath.workdps(prec + 20):
        mx = mpmath.mpf(str(x))
        for name, value in got.items():
            want = getattr(mpmath, name)(mx)
            assert _within_an_ulp(value, want, prec, max(1, abs(want))), (name, x)


def test_calls_at_their_edges():
    # the argument reduction of sin and cos far from 0, and arctan past the
    # halving bound and at infinity's side
    for prec in _PRECISIONS:
        for s in ["0", "1e-30", "0.2", "-0.2", "3.14159", "4", "-4", "100", "1e12", "-7e20"]:
            with localcontext() as ctx:
                ctx.prec = prec
                x = +Decimal(s)
                got = {"sin": _sin_cos(x, 1), "cos": _sin_cos(x, 0), "atan": _arctan(x)}
            with mpmath.workdps(prec + 40):
                mx = mpmath.mpf(s)
                for name, value in got.items():
                    want = getattr(mpmath, name)(mx)
                    assert _within_an_ulp(value, want, prec, max(1, abs(want))), (name, s)


def _exact_decimal(v) -> Decimal:
    """The binary value of an mpf v > 0 as a Decimal, exactly."""
    _sign, man, exp, _bc = v._mpf_
    digits = man << exp if exp >= 0 else man * 5 ** -exp
    return Decimal((0, tuple(map(int, str(digits))), min(exp, 0)))


@settings(max_examples=300)
@given(st.integers(2 ** 218, 2 ** 219 - 1), st.integers(-300, 300))
def test_magnitude_prints_as_mpmath_on_drawn_values(man, exp):
    # values drawn in binary and converted exactly, so both printers see one number
    v = mpmath.mpf((0, man, exp - 218, 219))
    assert _magnitude(_exact_decimal(v)) == mpmath.nstr(v, 6)


@pytest.mark.parametrize("text,printed", [
    ("9.9999951", "10.0"),  # a carry through every digit
    ("1e-5", "1.0e-5"), ("1e-4", "0.0001"),  # the lower edge of fixed notation
    ("99999.95", "100000.0"), ("99999.94999", "99999.9"),  # the upper edge
    ("999999.5", "1.0e+6"), ("1e6", "1.0e+6"),
    ("1", "1.0"), ("10", "10.0"), ("100000", "100000.0"), ("1e-300", "1.0e-300"),
    ("1e300", "1.0e+300"), ("2.46771", "2.46771"), ("0.000123456789", "0.000123457"),
])
def test_magnitude_at_fixed_cases(text, printed):
    assert _magnitude(Decimal(text)) == printed
    # mpmath reads the text in binary, which may fall just below an exact
    # half at the 7th digit, and prints a value from about 12 digits, which
    # may drop below a half within 2*10^-12 of it: it prints the value
    # 10^-10 above the text alike
    with mpmath.workdps(65):
        assert mpmath.nstr(mpmath.mpf(text) * (1 + mpmath.mpf(10) ** -10), 6) == printed
