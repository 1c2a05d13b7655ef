"""The probe tier on its own: the verdict that probing alone gives, given
the exact tier's answer `zero`.  An oracle for what probing says about an
expression, independent of the lifted classes of `numeric.decide_exactly`
and of the probe loop of `numeric.is_zero`; and the witness search of
`numeric.nonzero_verdict` with a full evaluation of the domain at each
point, independent of its shared walker.
"""

import random

import mpmath

from liesym.expr import atom_name, leaf_atoms
from liesym.numeric import ZeroStatus, ZeroVerdict, _probe_once, eval_mp

from eval_oracle import as_mpf


def ref_probe_verdict(e, zero, probe, positive):
    """True is ExactZero; otherwise the first of `probe.points` seeded points
    where |e| >= 10^-(digits-20) is the witness, of ExactNonzero when `zero`
    is False and of ProbablyNonzero when it is None, counting the points
    evaluated up to it; without one the verdict is ProbablyZero, or
    ExactNonzero without a witness."""
    if zero:
        return ZeroVerdict(ZeroStatus.EXACT_ZERO)
    return _ref_search(leaf_atoms(e), lambda p: eval_mp(e, p, probe.digits),
                       zero is False, probe, positive)


def ref_nonzero_verdict(e, domain, probe):
    """ExactNonzero for e, proved nonzero, searched for as `ref_probe_verdict`
    does, over the atoms of e and `domain`, by two walks per point, each with
    its own memo: `domain` is evaluated in full (a point where it raises
    _BadPoint is inadmissible), then e."""
    def evaluate(p):
        eval_mp(domain, p, probe.digits)
        return eval_mp(e, p, probe.digits)

    return _ref_search(leaf_atoms(e) | leaf_atoms(domain), evaluate, True, probe, frozenset())


def _ref_search(atoms, evaluate, proved, probe, positive):
    rng = random.Random(probe.seed)
    atoms = sorted(atoms, key=lambda a: a._key)
    threshold = mpmath.mpf(10) ** (-(probe.digits - 20))
    for i in range(probe.points):
        point, value = _probe_once(rng, atoms, positive, evaluate)
        with mpmath.workdps(probe.digits + 15):
            value = as_mpf(value)
            if abs(value) >= threshold:
                witness = {atom_name(a): f"{v.numerator}/{v.denominator}"
                           for a, v in point.items()}
                status = ZeroStatus.EXACT_NONZERO if proved else ZeroStatus.PROBABLY_NONZERO
                return ZeroVerdict(status, i + 1, probe.digits, witness,
                                   mpmath.nstr(abs(value), 6))
    status = ZeroStatus.EXACT_NONZERO if proved else ZeroStatus.PROBABLY_ZERO
    return ZeroVerdict(status, probe.points, probe.digits)
