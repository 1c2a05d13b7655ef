"""The lifted classes of the exact tier (`numeric.decide_exactly` on a
target that does not split whole): the residuals they prove before any probe
point, their soundness against the probe oracle, and that they build no
atom."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from liesym import expr as E
from liesym import numeric
from liesym.catalog import default_order, find_record, instantiate, load_catalog
from liesym.invdiff import apply_D
from liesym.jet import apply_prolonged, prolong, total_derivative
from liesym.numeric import ProbeConfig, ZeroStatus, decide_exactly, is_zero, power_split

from probe_oracle import ref_probe_verdict
from sympy_oracle import to_sympy

RECORDS = load_catalog()
PR = ProbeConfig(points=20, digits=50, seed=20240101)
X = E.indep().as_expr()


def J(k):
    return E.jet(k).as_expr()


def _con(label, n=None):
    rec = find_record(RECORDS, label)
    return instantiate(rec, n=default_order(rec) if n is None else n)


def _residuals(fields, f, weighted):
    k = E.max_jet_order(f) or 0
    for X_ in fields:
        r = apply_prolonged(prolong(X_, k), f)
        yield r - f * total_derivative(X_.xi) if weighted else r


def _equation_residuals(fields, eq):
    for X_ in fields:
        applied = apply_prolonged(prolong(X_, eq.order), eq.defect())
        yield E.substitute(applied, {E.jet(eq.order): eq.rhs})


def _undecided_rows():
    """(row, residual, positive) for every residual of the rows that the
    default-seed report held as ProbablyZero before the lifted step, and of
    the `(28,n)` projective equation at the family orders 6..11: those that
    do not split whole."""
    one_three = _con("(1,3)")
    phi1 = one_three.invariants[0][1]
    rows = [("(1,3) phi1", r, frozenset()) for r in _residuals(one_three.fields, phi1, False)]
    rows += [("(1,3) lambda", r, frozenset())
             for r in _residuals(one_three.fields, one_three.lam, True)]
    rows += [("(1,3) D(phi)", r, frozenset())
             for r in _residuals(one_three.fields, apply_D(one_three.lam, phi1), False)]
    for n in range(6, 12):
        con = _con("(28,n)", n)
        rows += [(f"(28,n) eq1@{n}", r, frozenset())
                 for r in _equation_residuals(con.fields, con.equations[0].variants["identity"])]
    for label in ("(6,6)", "(8,8)", "(28,6)"):
        rows += [(f"{label} pair1", ea - eb, pos) for ea, eb, pos in _con(label).equivalences]
    rows = [row for row in rows if power_split(row[1]) is None]
    assert sorted({label for label, _r, _p in rows}) == sorted(
        ["(1,3) phi1", "(1,3) lambda", "(1,3) D(phi)", "(6,6) pair1", "(8,8) pair1",
         "(28,6) pair1"] + [f"(28,n) eq1@{n}" for n in range(6, 12)])
    return rows


def test_undecided_residuals_are_proved_and_vanish_under_sympy():
    # each is proved zero by the lifted classes alone; sympy brings each to 0
    # independently, with the record's positive atoms declared positive:
    # valid power rules, then one fraction, then cancellation
    sympy = pytest.importorskip("sympy")
    rows = _undecided_rows()
    for label, residual, positive in rows:
        assert decide_exactly(residual, positive), label
        assert is_zero(residual, PR, positive).status == ZeroStatus.EXACT_ZERO, label
        s = to_sympy(sympy, residual).subs({
            sympy.Symbol(E.atom_name(a)): sympy.Symbol(E.atom_name(a), positive=True)
            for a in positive})
        s = sympy.together(sympy.powsimp(sympy.expand_power_base(s)))
        assert sympy.cancel(s) == 0, label


def test_projective_equation_was_only_probable_before():
    # the check that forces the 5n-9 coefficient of (28,n): the probe tier on
    # its own (the oracle) gives a probable zero at 20 points, the zero test
    # a proof
    con = _con("(28,n)", 6)
    residual = [r for r in _equation_residuals(con.fields, con.equations[0].variants["identity"])
                if power_split(r) is None][0]
    probed = ref_probe_verdict(residual, None, PR, frozenset())
    assert probed.status == ZeroStatus.PROBABLY_ZERO and probed.points_tested == 20
    assert is_zero(residual, PR) == numeric.ZeroVerdict(ZeroStatus.EXACT_ZERO)


B = 1 + J(1) ** 2
K = (3 * J(2) * J(4) - 4 * J(3) ** 2) / J(3) ** 2  # Q/D, D a monomial in y'''
CLASSES = [F(-5, 2), F(-3, 2), F(-1, 2), F(1, 2), F(-2, 3), F(1, 3), F(-2), F(-1)]
FACTORS = [E.ONE, E.transcendental("exp", X), E.transcendental("arctan", J(1)) ** 2,
           E.transcendental("exp", X) * E.transcendental("arctan", J(1))]
ATOMS = [X, J(1), J(2), J(3)]
# the factors of the perturbation's class: nowhere zero, or not shown to be
PERTURBATIONS = {True: [E.ONE, E.transcendental("exp", X), E.Expr.rational(3) ** F(-1, 3),
                        E.Expr.rational(2) ** F(1, 2) * E.transcendental("exp", X)],
                 False: [E.transcendental("sin", X), E.transcendental("arctan", J(1)) ** 2]}


@st.composite
def lifted_targets(draw):
    """(target, c, nowhere, positive): pairs A*P^r*t - (A*P)*P^(r-1)*t, which
    vanish but not term by term, with mixed exponent classes r and
    transcendental factors t; the base K/D pairs K^r with (K*D)^r * D^(-r),
    which needs D > 0.  Optionally a perturbation c*y'*B^r*u, zero or not:
    with c != 0 its class is the one nonzero class, and `nowhere` says
    whether its factor u (exp calls and surds, or sin and arctan) is
    nowhere zero."""
    target = E.ZERO
    for _ in range(draw(st.integers(1, 3))):
        A = E.Expr.rational(F(draw(st.integers(-9, 9)) or 1, draw(st.integers(1, 4))))
        for a in ATOMS:
            A = A * a ** draw(st.integers(0, 2))
        r = draw(st.sampled_from(CLASSES))
        t = draw(st.sampled_from(FACTORS))
        if draw(st.booleans()):
            target = target + (A * B ** r - (A * B) * B ** (r - 1)) * t
        else:
            D = J(3) ** 2
            target = target + (A * K ** r - A * (K * D) ** r * D ** -r) * t
    c = draw(st.sampled_from([F(-2), 0, F(1, 3), 0, F(5, 2), 0]))
    nowhere = draw(st.booleans())
    u = draw(st.sampled_from(PERTURBATIONS[nowhere]))
    target = target + c * J(1) * B ** draw(st.sampled_from(CLASSES)) * u
    return target, c, nowhere, frozenset([E.jet(3)])


@settings(max_examples=60, deadline=None)
@given(lifted_targets())
def test_lifted_zero_has_no_probe_witness(case):
    # soundness: whenever the lifted classes say zero, the probe oracle finds
    # no witness at 20 points, and whenever they say nonzero it finds one; a
    # target they prove zero is ExactZero, one they prove nonzero has the
    # oracle's witness as ExactNonzero, and any other verdict is the
    # oracle's, byte for byte
    target, c, nowhere, positive = case
    if power_split(target) is not None:
        return
    lifted = decide_exactly(target, positive)
    assert lifted is (True if c == 0 else False if nowhere else None)
    oracle = ref_probe_verdict(target, None, PR, positive)
    verdict = is_zero(target, PR, positive)
    if lifted:
        assert oracle.status == ZeroStatus.PROBABLY_ZERO
        assert verdict.status == ZeroStatus.EXACT_ZERO
    elif lifted is False:
        assert oracle.status == ZeroStatus.PROBABLY_NONZERO
        assert verdict == oracle._replace(status=ZeroStatus.EXACT_NONZERO)
    else:
        assert verdict.to_json() == oracle.to_json()


def _count_eval_mp(monkeypatch) -> list:
    calls = []
    real = numeric.eval_mp

    def spy(e, point, digits):
        calls.append(e)
        return real(e, point, digits)

    monkeypatch.setattr(numeric, "eval_mp", spy)
    return calls


def test_undecided_residuals_are_proved_before_any_probe_point(monkeypatch):
    # the lifted classes are a branch of the exact tier, so a residual they
    # prove is ExactZero without one probe point evaluated
    rows = _undecided_rows()
    calls = _count_eval_mp(monkeypatch)
    for label, residual, positive in rows:
        assert is_zero(residual, PR, positive) == numeric.ZeroVerdict(ZeroStatus.EXACT_ZERO), label
    assert calls == []
    # a zero with dependent lifts is still probed, to the oracle's verdict
    e = E.transcendental("exp", X) * E.transcendental("exp", -X) - 1
    verdict = is_zero(e, PR)
    assert verdict.to_json() == ref_probe_verdict(e, None, PR, frozenset()).to_json()
    assert verdict.status == ZeroStatus.PROBABLY_ZERO and len(calls) == PR.points


def test_dependent_lifts_leave_the_probe_verdict_unchanged():
    # exp(x)*exp(-x) - 1 and sin^2 + cos^2 - 1 vanish, but their lifted
    # terms are dependent: the exact tier gives None, never False, and the
    # probe gives the oracle's verdict; so does a nonzero target whose
    # classes do not split, with the witness at the first point
    sin, cos = E.transcendental("sin", X), E.transcendental("cos", X)
    for e in (E.transcendental("exp", X) * E.transcendental("exp", -X) - 1,
              sin ** 2 + cos ** 2 - 1):
        assert power_split(e) is None and decide_exactly(e, frozenset()) is None
        verdict = is_zero(e, PR)
        assert verdict.status == ZeroStatus.PROBABLY_ZERO
        assert verdict == ref_probe_verdict(e, None, PR, frozenset())
    e = E.transcendental("exp", X) * J(1) - J(2) ** F(1, 2) + J(2) ** F(1, 3)
    assert decide_exactly(e, frozenset()) is None
    verdict = is_zero(e, PR)
    assert verdict == ref_probe_verdict(e, None, PR, frozenset())
    assert verdict.status == ZeroStatus.PROBABLY_NONZERO and verdict.points_tested == 1


def test_one_nonzero_class_with_nowhere_zero_lifts_is_proved_nonzero():
    # a sum of classes is nonzero when exactly one class is nonzero and its
    # lifted factors (exp calls, constant surds) vanish nowhere; two nonzero
    # classes, or a lifted factor that can vanish, leave it undecided
    exp = E.transcendental("exp", X)
    assert decide_exactly(E.Expr.rational(F(1, 10 ** 25)) * exp, frozenset()) is False
    cancelling = ((B ** F(1, 2) - B * B ** F(-1, 2)) * E.transcendental("arctan", J(1))
                  + B ** F(-1, 3) - B * B ** F(-4, 3))
    e = J(2) * E.Expr.rational(2) ** F(1, 2) * exp + cancelling
    assert power_split(e) is None and len(numeric.classes(e, frozenset())) == 3
    assert decide_exactly(e, frozenset()) is False
    assert decide_exactly(exp * E.transcendental("exp", -X) - 1, frozenset()) is None
    assert decide_exactly(E.transcendental("sin", X) * J(1), frozenset()) is None


def test_lifted_step_builds_no_atom():
    # the fresh indeterminates are never built: the exact tier reads the
    # coefficient of each of their monomials as a class of terms
    e = (E.transcendental("exp", X) * B ** F(-3, 2) - E.transcendental("exp", X) * B * B ** F(-5, 2)
         + B ** F(-1, 3) - B * B ** F(-4, 3))
    assert power_split(e) is None
    size = len(E._ATOM_CACHE)
    for _ in range(3):
        assert decide_exactly(e, frozenset())
    assert len(E._ATOM_CACHE) == size
