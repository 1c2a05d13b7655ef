"""Zero certification: exact tier, probabilistic tier, sampling discipline."""

import pickle
import random
from decimal import Decimal
from fractions import Fraction as F

import mpmath
import pytest

from liesym import expr as E
from liesym.invariance import OdeEquation
from liesym.jet import MaxOrderExceeded, VectorField
from liesym.linear_ode import CharSpec, DuplicateRoots
from liesym.numeric import (
    DEFAULT_PROBE,
    ExactEvalError,
    ProbeConfig,
    SamplingExhausted,
    ZeroStatus,
    _BadPoint,
    _CALLS,
    _root,
    _working,
    clear_denominators,
    eval_mp,
    is_zero,
    sample_point,
)
from eval_oracle import as_mpf, eval_exact

X = E.indep().as_expr()
Y = E.dep().as_expr()
PR = ProbeConfig(points=10, digits=50, seed=424242)


def J(k):
    return E.jet(k).as_expr()


def test_exact_zero_via_clearing():
    e = (X ** 2 - Y ** 2) / (X + Y) - (X - Y)
    assert is_zero(e, DEFAULT_PROBE).status == ZeroStatus.EXACT_ZERO
    nested = (X + (X + Y) ** -1) ** -1
    identity = nested * (X * (X + Y) + 1) - (X + Y)
    assert is_zero(identity, DEFAULT_PROBE).status == ZeroStatus.EXACT_ZERO


def test_exact_nonzero_with_witness():
    v = is_zero(J(2) - J(3), PR)
    assert v.status == ZeroStatus.EXACT_NONZERO
    assert v.witness is not None and v.magnitude is not None


def test_probable_zero_and_nonzero():
    u = 2 * J(1) * J(3) - 3 * J(2) ** 2
    s = u ** F(1, 2)
    ex = E.transcendental("exp", X) * E.transcendental("exp", -X) - 1
    v = is_zero(ex, PR)
    assert v.status == ZeroStatus.PROBABLY_ZERO
    assert v.points_tested == PR.points and v.precision_digits == PR.digits
    w = is_zero(s - J(2), PR)
    assert w.status == ZeroStatus.PROBABLY_NONZERO
    assert w.witness is not None


def test_sampling_exhausted_on_identically_singular():
    bad = (-(1 + J(1) ** 2)) ** F(1, 2)
    with pytest.raises(SamplingExhausted):
        is_zero(bad, PR)


def test_determinism_same_seed():
    u = (2 * J(1) * J(3) - 3 * J(2) ** 2) ** F(1, 2) - J(2)
    assert is_zero(u, PR) == is_zero(u, PR)
    first, second = is_zero(u, PR._replace(seed=7)), is_zero(u, PR._replace(seed=7))
    assert first.status == ZeroStatus.PROBABLY_NONZERO
    assert first.witness is not None and first.magnitude is not None
    assert first == second  # verdict, witness and magnitude alike


def test_probing_soundness_of_exact_zeros():
    # an exactly-zero quotient identity evaluated numerically stays below
    # the 10^-(digits-20) threshold at admissible points
    e = (X + Y) ** 2 / (X + Y) - X - Y
    rng = random.Random(99)
    atoms = sorted(E.leaf_atoms(e), key=lambda a: a._key)
    threshold = mpmath.mpf(10) ** -30
    hits = 0
    with mpmath.workdps(65):
        while hits < 5:
            point = sample_point(rng, atoms, frozenset())
            try:
                v = as_mpf(eval_mp(e, point, 50))
            except _BadPoint:
                continue
            assert abs(v) < threshold
            hits += 1


def test_sample_points_are_bounded_rationals():
    rng = random.Random(1)
    atoms = [E.indep(), E.jet(1)]
    for _ in range(50):
        pt = sample_point(rng, atoms, frozenset())
        for v in pt.values():
            assert abs(v.numerator) <= 4 * 10 ** 6 and 0 < v.denominator <= 10 ** 6
            assert F(1, 4) <= abs(v) <= 4


def test_positive_constraint_sampling():
    rng = random.Random(2)
    a = E.jet(2)
    for _ in range(20):
        pt = sample_point(rng, [a], positive=frozenset([a]))
        assert pt[a] > 0


def test_eval_exact_fractional_perfect_powers():
    # refused even where the root is rational: the exact rank evaluates
    # integer powers only
    for e, value in ((J(2) ** F(3, 2), F(9, 4)), (J(2) ** F(1, 2), F(10 ** 400)),
                     (X + (1 + J(1) ** 2) ** F(-1, 2), F(0))):
        with pytest.raises(ExactEvalError, match="has no exact value at a rational point"):
            eval_exact(e, {E.indep(): F(1), E.jet(1): value, E.jet(2): value})
    with pytest.raises(ExactEvalError, match=r"^exp\(x\) has no exact value"):
        eval_exact(E.transcendental("exp", X), {E.indep(): F(1)})


def test_clear_denominators_returns_polynomial():
    e = X / (X + Y) + Y / (X + Y) - 1
    assert not clear_denominators(e)[0]
    e2 = X / (X + Y)
    num, den = clear_denominators(e2)
    num = num.ring.unpack(num)
    assert E.is_polynomial(num) and num == X
    assert den == {X + Y: 1}


def test_zero_tolerance_tracks_precision():
    # a tiny but genuinely nonzero value is caught at 50 digits; sin can
    # vanish, so the exact tier leaves it to the probe
    tiny = E.Expr.rational(F(1, 10 ** 25)) * E.transcendental("sin", X)
    v = is_zero(tiny, PR)
    assert v.status == ZeroStatus.PROBABLY_NONZERO


@pytest.mark.parametrize("kwargs", [{"points": 0}, {"points": -3}, {"digits": 20},
                                    {"digits": 0}])
def test_probe_config_refuses_a_probe_that_tests_nothing(kwargs):
    # with no point, or a threshold 10^-(digits-20) of 1 or more, the
    # nonzero constant y''^(1/2) + 5 would come out ProbablyZero
    with pytest.raises(ValueError):
        ProbeConfig(**kwargs)
    with pytest.raises(ValueError):
        PR._replace(**kwargs)
    assert is_zero(J(2) ** F(1, 2) + 5, ProbeConfig(points=1, digits=21)).status \
        == ZeroStatus.PROBABLY_NONZERO


@pytest.mark.parametrize("cls, good, bad, error", [
    (ProbeConfig, (10, 50, 7), (0, 50, 7), ValueError),
    (ProbeConfig, (10, 50, 7), (10, 20, 7), ValueError),
    (OdeEquation, (3, J(2)), (3, J(3)), ValueError),
    (OdeEquation, (3, J(2)), (13, J(2)), MaxOrderExceeded),
    (VectorField, (X, Y), (J(1), Y), ValueError),
    (CharSpec, ((1, 2), ()), ((1, 1), ()), DuplicateRoots),
    (CharSpec, ((), ((1, 2),)), ((), ((1, 0),)), ValueError),
])
def test_every_way_to_build_a_checked_value_checks_it(cls, good, bad, error):
    # the constructor, `_make`, `_replace` (through `_make`) and unpickling
    # each refuse the invalid field values `bad`; the forged value, built
    # past every check, is what a pickle from elsewhere could carry
    value = cls(*good)
    assert cls._make(good) == value == pickle.loads(pickle.dumps(value))
    forged = tuple.__new__(cls, bad)
    for build in (lambda: cls(*bad), lambda: cls._make(bad),
                  lambda: value._replace(**dict(zip(cls._fields, bad))),
                  lambda: pickle.loads(pickle.dumps(forged))):
        with pytest.raises(error):
            build()


# -- the probe evaluator ------------------------------------------------------

_ORACLE_ATOMS = (E.indep(), E.dep(), E.jet(1), E.jet(2))
_FNS = ("exp", "ln", "arctan", "sin", "cos")


def _random_pair(rng, sp, syms, pool, depth):
    """A seeded random expression, built alike as (Expr, sympy expression):
    compound bases under negative and fractional exponents, prime surds,
    nested transcendental calls, and subexpressions shared from `pool`."""
    if depth == 0 or rng.random() < 0.15:
        if pool and rng.random() < 0.3:
            return rng.choice(pool)
        i = rng.randrange(len(_ORACLE_ATOMS) + 1)
        if i == len(_ORACLE_ATOMS):
            c = F(rng.randint(-9, 9) or 1, rng.randint(1, 7))
            return E.Expr.rational(c), sp.Rational(c.numerator, c.denominator)
        return _ORACLE_ATOMS[i].as_expr(), syms[i]
    kind = rng.choice(("add", "mul", "pow", "signed_pow", "surd", "fn", "fn"))
    a, sa = _random_pair(rng, sp, syms, pool, depth - 1)
    if kind in ("add", "mul"):
        b, sb = _random_pair(rng, sp, syms, pool, depth - 1)
        out = (a + b, sa + sb) if kind == "add" else (a * b, sa * sb)
    elif kind == "pow":
        # a positive compound base under a negative or fractional exponent
        c = F(rng.randint(1, 5), rng.randint(1, 3))
        r = rng.choice((F(-1), F(-2), F(1, 2), F(-1, 2), F(3, 2), F(-2, 3), F(1, 3)))
        base, sbase = a * a + c, sa * sa + sp.Rational(c.numerator, c.denominator)
        out = base.pow(r), sbase ** sp.Rational(r.numerator, r.denominator)
    elif kind == "signed_pow":
        b, sb = _random_pair(rng, sp, syms, pool, depth - 1)
        if (a - b).is_zero_expr():
            return a, sa
        out = (a - b).pow(F(-1)), 1 / (sa - sb)
    elif kind == "surd":
        p = rng.choice((2, 3, 5))
        r = rng.choice((F(1, 2), F(1, 3), F(-1, 2)))
        out = (a * E.Expr.rational(p).pow(r),
               sa * sp.Integer(p) ** sp.Rational(r.numerator, r.denominator))
    else:
        fn = rng.choice(_FNS)
        if fn == "ln":
            arg, sarg = a * a + 1, sa * sa + 1
        else:
            arg, sarg = a, sa
        sfn = {"exp": sp.exp, "ln": sp.log, "arctan": sp.atan,
               "sin": sp.sin, "cos": sp.cos}[fn]
        out = E.transcendental(fn, arg), sfn(sarg)
    pool.append(out)
    return out


def _tree_walk(e, point, digits):
    """Reference evaluator: the walk over the expression tree with no memo,
    in the probe's context with its root and calls, which `eval_mp`, one
    memo per point, must reproduce digit for digit."""
    def node(e):
        total = 0
        for mono, coeff in e.terms:
            v = Decimal(coeff.numerator) / coeff.denominator
            for b, ex in mono:
                bv = base(b)
                if ex.denominator == 1:
                    if ex < 0 and abs(bv) < tiny:
                        raise _BadPoint
                    v *= bv ** ex.numerator
                else:
                    if bv < tiny:
                        raise _BadPoint
                    v *= _root(bv, ex.denominator) ** ex.numerator
            total += v
        return total

    def base(b):
        if isinstance(b, int):
            return Decimal(b)
        if isinstance(b, E.Expr):
            return node(b)
        if b.kind != "transc":
            return Decimal(point[b].numerator) / point[b].denominator
        arg = node(b.arg)
        if b.fn == "ln" and arg < tiny:
            raise _BadPoint
        return _CALLS[b.fn](arg)

    with _working(digits):
        tiny = Decimal(10) ** -10
        return node(e)


def test_eval_mp_matches_tree_walk_and_sympy_oracle():
    sp = pytest.importorskip("sympy")
    syms = sp.symbols("x y y1 y2")
    rng = random.Random(20261018)
    pool: list = []
    compared = 0
    for _ in range(40):
        e, se = E.ZERO, sp.Integer(0)
        for _ in range(3):
            t, st = _random_pair(rng, sp, syms, pool, 3)
            e, se = e + t, se + st
        for _ in range(2):
            point = sample_point(rng, _ORACLE_ATOMS, frozenset())
            try:
                v = eval_mp(e, point, 50)
            except _BadPoint:
                with pytest.raises(_BadPoint):
                    _tree_walk(e, point, 50)
                continue
            assert str(v) == str(_tree_walk(e, point, 50))
            subs = {s: sp.Rational(point[a].numerator, point[a].denominator)
                    for s, a in zip(syms, _ORACLE_ATOMS)}
            ref = sp.N(se.subs(subs), 60)
            with mpmath.workdps(70):
                want = mpmath.mpf(str(ref))
                v = as_mpf(v)
                assert abs(v - want) <= mpmath.mpf(10) ** -40 * max(1, abs(want)), (
                    str(e), point)
            compared += 1
    assert compared >= 60


def _admissibility_cases():
    x, y, y2 = E.indep(), E.dep(), E.jet(2)
    inv, root, log = (X - Y) ** -1, J(2) ** F(1, 2), E.transcendental("ln", X)
    last_inv, last_root, last_log = X + J(2) + inv, X + root, X + log
    # the offending base sits in the last term only
    for e, base in [(last_inv, X - Y), (last_root, y2), (last_log, log.terms[0][0][0][0])]:
        assert base in dict(e.terms[-1][0])
        assert all(base not in dict(m) for m, _ in e.terms[:-1])
    in_arg = [E.transcendental("exp", inv) + X,
              E.transcendental("sin", root),
              E.transcendental("arctan", log) * Y]
    tiny, small, big = F(1, 10 ** 11), F(1, 2 * 10 ** 10), F(2, 10 ** 10)
    cases = []
    for e in [root, last_root, in_arg[1]]:   # fractional-power base y''
        for v, bad in [(tiny, True), (F(0), True), (F(-1), True),
                       (-big, True), (big, False), (F(3), False)]:
            cases.append((e, {x: F(1), y: F(1), y2: v}, bad))
    for e in [inv, last_inv, in_arg[0]]:     # negative-power base x - y
        for gap, bad in [(small, True), (-small, True), (F(0), True),
                         (big, False), (-big, False), (F(1, 3), False)]:
            cases.append((e, {x: F(1) + gap, y: F(1), y2: F(1)}, bad))
    for e in [log, last_log, in_arg[2]]:     # ln argument x
        for v, bad in [(tiny, True), (F(0), True), (F(-2), True),
                       (big, False), (F(5, 2), False)]:
            cases.append((e, {x: v, y: F(7), y2: F(1)}, bad))
    return cases


def test_bad_point_raised_exactly_when_a_base_or_ln_argument_is_inadmissible():
    for e, point, bad in _admissibility_cases():
        if bad:
            with pytest.raises(_BadPoint):
                eval_mp(e, point, 50)
            with pytest.raises(_BadPoint):
                _tree_walk(e, point, 50)
        else:
            assert str(eval_mp(e, point, 50)) == str(_tree_walk(e, point, 50))


def test_eval_mp_is_right_at_each_precision_and_caches_nothing():
    e = (1 + X ** 2) ** F(1, 2) * E.transcendental("exp", X) - E.Expr.rational(2) ** F(1, 2)
    point = {E.indep(): F(7, 3)}
    flags = {b: dict(b._flags) for b, _ in E.walk_bases(e) if isinstance(b, E.Expr)}
    flags[e] = dict(e._flags)
    low = eval_mp(e, point, 30)
    high = eval_mp(e, point, 80)
    assert eval_mp(e, point, 30) == low
    with mpmath.workdps(120):
        t = mpmath.mpf(7) / 3
        want = mpmath.sqrt(1 + t ** 2) * mpmath.exp(t) - mpmath.sqrt(2)
        assert abs(as_mpf(low) - want) < mpmath.mpf(10) ** -30
        assert abs(as_mpf(high) - want) < mpmath.mpf(10) ** -80
    # the evaluator leaves no entry behind, on e or on a base inside it
    assert all(ex._flags == before for ex, before in flags.items())


@pytest.mark.parametrize("digits", [21, 50, 185])
def test_eval_mp_keeps_fifteen_guard_digits(digits):
    # a value with no short expansion has all digits + 15 working digits,
    # each of them right, against mpmath at twice as many
    e = (1 + X ** 2) ** F(1, 3) * E.transcendental("arctan", X) + E.transcendental("ln", X)
    v = eval_mp(e, {E.indep(): F(7, 3)}, digits)
    assert len(v.as_tuple().digits) == digits + 15
    with mpmath.workdps(2 * digits + 30):
        t = mpmath.mpf(7) / 3
        want = mpmath.cbrt(1 + t ** 2) * mpmath.atan(t) + mpmath.ln(t)
        assert abs(as_mpf(v) - want) <= mpmath.mpf(10) ** -(digits + 13) * abs(want)


def test_missing_atom_is_named_inside_compound_bases_and_arguments():
    y1 = E.jet(1)
    point = {E.indep(): F(2), E.dep(): F(3)}
    in_base = X + (1 + Y * J(1) ** 2) ** F(-1, 2)
    in_arg = X * E.transcendental("exp", 1 + J(1))
    assert y1 not in dict(m for mono, _ in in_base.terms for m in mono)
    assert y1 not in dict(m for mono, _ in in_arg.terms for m in mono)
    for e in (in_base, in_arg):
        with pytest.raises(E.ExprError, match="no value supplied for y'$"):
            eval_mp(e, point, 50)
    with pytest.raises(E.ExprError, match="no value supplied for y'$"):
        eval_exact(X + (1 + Y * J(1) ** 2) ** -1, point)
    # exp(1 + y') has no exact value whatever y' is, so that refusal comes first
    with pytest.raises(ExactEvalError, match=r"^exp\(1 \+ y'\) has no exact value"):
        eval_exact(in_arg, point)


def test_probe_verdict_golden():
    # recorded from the tree-walking evaluator this one replaced; any drift in
    # values, sampled points or magnitude strings shows here; the witness is
    # the first point, and `points` counts the points evaluated up to it
    u = (2 * J(1) * J(3) - 3 * J(2) ** 2) ** F(1, 2) - J(2)
    assert is_zero(u, PR).to_json() == {
        "status": "ProbablyNonzero", "points": 1, "digits": 50,
        "witness": {"y'": "-194452/81415", "y''": "-108279/97750",
                    "y'''": "-216113/186655"},
        "magnitude": "2.46771"}
    point = {E.jet(1): F(-194452, 81415), E.jet(2): F(-108279, 97750),
             E.jet(3): F(-216113, 186655)}
    # the binary value recorded before differs from it by 5*10^-65 relative
    assert str(eval_mp(u, point, 50)) == (
        "2.4677139788092159426735980319530076845107811930777886213511923975")
