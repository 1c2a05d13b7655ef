"""Two-tier zero certification and exact/high-precision evaluation.

The exact tier, `decide_exactly`, writes an expression e as
N * prod P_k^(c_k) (`power_split`), with N and every P_k polynomials in the
atoms and each c_k rational.  The product vanishes nowhere where e is
defined, so e is identically zero exactly when N is, and a polynomial is
zero iff its normal form is empty.  That holds whatever the relations
between the radicals P_k^(c_k); nothing assumes them independent (the
pitfall described by Caviness & Fateman, 1976).  A rational function is
the split with no fractional factor: N is its numerator once every compound
or atomic denominator is cleared (`clear_denominators`).  An expression
that does not split (transcendental atoms, constant surds, mixed exponent
classes, radicals inside a base) gets no exact answer.

`probe_verdict` turns the exact tier's answer into the verdict.  Unless e
is proved zero, it is probed at seeded random rational points with mpmath
at the configured precision, and the first point where
|value| >= 10^-(digits-20) is the witness of ExactNonzero or
ProbablyNonzero.  The threshold keeps twenty orders of magnitude between
roundoff and an honest nonzero value.

A probe does not walk the expression tree: each expression is lowered once
per precision into a straight-line program over raw mpmath values, kept in
the expression's flags, and every probe point runs that program.  Each
value, rejected point and magnitude string is bit-identical to evaluating
the tree with mpf objects at the same precision.

The sampling policy is fixed, not configured: every coordinate of a probe
point is a rational sign*num/den with den in [10^3, 10^6] and magnitude
num/den in [1/4, 4], so that high-degree expressions stay well conditioned
(DEN_LOW, DEN_HIGH, MAG_LOW, MAG_HIGH).  Points that land within 10^-10 of
a pole, a branch point or a non-positive fractional-power base are
resampled, at most MAX_RETRIES = 100 times, after which SamplingExhausted
signals an identically singular expression.  A ProbeConfig sets only the
point count, the precision and the seed.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Optional

import mpmath
from mpmath import libmp

from .expr import (
    Atom,
    Expr,
    ExprError,
    ONE,
    _make_term,
    atom_name,
    expr_sum,
    is_polynomial,
    is_rational_fragment,
    leaf_atoms,
    sum_of_products,
    walk_bases,
)


class SamplingExhausted(ExprError):
    pass


class ExactEvalError(ExprError):
    pass


class _BadPoint(Exception):
    pass


class ZeroStatus(Enum):
    EXACT_ZERO = "ExactZero"
    EXACT_NONZERO = "ExactNonzero"
    PROBABLY_ZERO = "ProbablyZero"
    PROBABLY_NONZERO = "ProbablyNonzero"


@dataclass(frozen=True)
class ZeroVerdict:
    status: ZeroStatus
    points_tested: int = 0
    precision_digits: Optional[int] = None
    witness: Optional[dict] = None
    magnitude: Optional[str] = None

    @property
    def is_zero(self) -> bool:
        return self.status in (ZeroStatus.EXACT_ZERO, ZeroStatus.PROBABLY_ZERO)

    @property
    def is_exact(self) -> bool:
        return self.status in (ZeroStatus.EXACT_ZERO, ZeroStatus.EXACT_NONZERO)

    def to_json(self) -> dict:
        out = {"status": self.status.value}
        if self.points_tested:
            out["points"] = self.points_tested
        if self.precision_digits:
            out["digits"] = self.precision_digits
        if self.witness is not None:
            out["witness"] = self.witness
        if self.magnitude is not None:
            out["magnitude"] = self.magnitude
        return out


# The sampling policy (see the module docstring).
DEN_LOW = 1_000
DEN_HIGH = 1_000_000
MAG_LOW = Fraction(1, 4)
MAG_HIGH = Fraction(4)
MAX_RETRIES = 100


@dataclass(frozen=True)
class ProbeConfig:
    """Points per probe, working precision in decimal digits, and seed.

    A ProbablyZero verdict needs |value| < 10^-(digits-20) at every one of
    `points` points, so at least one point and more than 20 digits are
    required.  The sampling region and the retry limit are fixed by the
    module constants DEN_LOW, DEN_HIGH, MAG_LOW, MAG_HIGH and MAX_RETRIES.
    """

    points: int = 20
    digits: int = 50
    seed: int = 20240101

    def __post_init__(self):
        if self.points < 1:
            raise ValueError(f"points must be at least 1, got {self.points}")
        if self.digits <= 20:
            raise ValueError(f"digits must exceed 20, got {self.digits}")


DEFAULT_PROBE = ProbeConfig()


def derive_seed(seed: int, *parts) -> int:
    """Stable child seed, independent of execution order."""
    h = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return int.from_bytes(h[:8], "big")


def sample_rational(rng: random.Random) -> Fraction:
    den = rng.randint(DEN_LOW, DEN_HIGH)
    lo = int(den * MAG_LOW) + 1
    hi = max(int(den * MAG_HIGH), lo)
    num = rng.randint(lo, hi)
    sign = 1 if rng.random() < 0.5 else -1
    return Fraction(sign * num, den)


def sample_point(rng: random.Random, atoms, positive=frozenset(), degrees=None) -> dict:
    """One rational per atom, in atom-key order.  Atoms in ``positive`` get
    |t|; an atom with degree q in ``degrees`` gets |t|^q, so that its
    q-th roots stay rational."""
    out = {}
    for a in sorted(atoms, key=lambda a: a._key):
        v = sample_rational(rng)
        q = degrees.get(a) if degrees else None
        if q:
            out[a] = abs(v) ** q
        else:
            out[a] = abs(v) if a in positive else v
    return out


# -- denominator clearing (exact tier) ---------------------------------------

def clear_denominators(e: Expr):
    """(N, D) for a rational-fragment expression: e == N / prod(D), with N
    a polynomial (e times its nonzero denominators, fully expanded) and D a
    dict mapping each denominator base (atom or polynomial expression) to
    its positive power."""
    per_term = []
    den_max: dict = {}
    for mono, coeff in e._terms:
        t_num = Expr.rational(coeff)
        t_den: dict = {}
        for b, ex in mono:
            k = ex.numerator  # rational fragment: integer exponents only
            if isinstance(b, Atom):
                if k >= 0:
                    t_num = t_num * b.as_expr().pow(k)
                else:
                    t_den[b] = t_den.get(b, 0) - k
            elif isinstance(b, Expr):
                nb, db = clear_denominators(b)
                if k >= 0:
                    raise ExprError("unexpected expanded compound base")
                for dkey, dpow in db.items():
                    t_num = t_num * _key_expr(dkey).pow(dpow * (-k))
                t_den[nb] = t_den.get(nb, 0) + (-k)
            else:
                raise ExprError("constant surd outside the rational fragment")
        per_term.append((t_num, t_den))
        for key, p in t_den.items():
            if den_max.get(key, 0) < p:
                den_max[key] = p
    # each term's numerator times its missing denominator powers, multiplied
    # left to right; the last factor is multiplied into the sum directly
    pairs = []
    for t_num, t_den in per_term:
        head, tail = t_num, ONE
        for key, p in den_max.items():
            gap = p - t_den.get(key, 0)
            if gap:
                head, tail = head * tail, _key_expr(key).pow(gap)
        pairs.append((head, tail))
    return sum_of_products(pairs), den_max


def _key_expr(key) -> Expr:
    return key.as_expr() if isinstance(key, Atom) else key


# -- power-product split ------------------------------------------------------

def power_split(e: Expr):
    """(N, ((P_1, c_1), ...)) with e == N * prod_k P_k^(c_k), N and every
    P_k polynomials over the atoms and each c_k rational; or None.

    Integer denominators come from `clear_denominators`.  A base under a
    fractional exponent is factored out at its lowest exponent, provided
    its exponents differ by integers across all terms (a term without it
    counts as exponent 0).  Such a base is positive wherever e is defined;
    when it is a rational function Q / prod D_j^(p_j) it is rewritten as
    (Q * prod_{p_j odd} D_j) / prod (D_j^2)^ceil(p_j/2), whose factors are
    positive there too, so the identity holds at every point where e is
    defined and every P_k with a fractional exponent is positive.  A base P
    and its negation -P are merged when one of them has an integer
    exponent.  None for transcendental atoms, constant surds, mixed
    exponent classes, radicals inside a base, and P and -P both under
    fractional exponents (a target defined nowhere).
    """
    for b, _ex in walk_bases(e):
        if isinstance(b, int) or isinstance(b, Atom) and b.kind == "transc":
            return None
    lows: dict = {}
    for mono, _c in e._terms:
        for b, ex in mono:
            if type(ex) is not int:
                lows[b] = min(ex, lows.get(b, ex))
    for b, low in lows.items():
        if isinstance(b, Expr) and not is_rational_fragment(b):
            return None
        for mono, _c in e._terms:
            if (dict(mono).get(b, 0) - low).denominator != 1:
                return None
    rest = e
    if lows:
        rest = expr_sum(_make_term(coeff, {b: ex - lows[b] if b in lows else ex
                                           for b, ex in mono})
                        for mono, coeff in e._terms)
    if not is_rational_fragment(rest):
        return None
    num, den = clear_denominators(rest)
    factors = [(_key_expr(key), Fraction(-p)) for key, p in den.items()]
    for b, c in lows.items():
        if not isinstance(b, Expr) or is_polynomial(b):
            factors.append((_key_expr(b), c))
            continue
        nb, db = clear_denominators(b)
        for key, p in db.items():
            d = _key_expr(key)
            if p % 2:
                nb = nb * d
            factors.append((d * d, -((p + 1) // 2) * c))
        factors.append((nb, c))
    merged: dict = {}
    for base, c in factors:
        if base.is_rational_const():
            v = base.as_rational()
            if c.denominator != 1 and v != 1:
                return None
            num = num * v ** c.numerator
            continue
        neg = -base
        if neg in merged:
            # (-P)^k = (-1)^k * P^k for an integer k
            c_neg = merged[neg]
            if c.denominator == 1:
                base, flip = neg, c
            elif c_neg.denominator == 1:
                del merged[neg]
                flip = c_neg
            else:
                return None
            c += c_neg
            if flip.numerator % 2:
                num = -num
        else:
            c = merged.get(base, 0) + c
        merged[base] = c
    return num, tuple((base, c) for base, c in merged.items() if c)


# -- numeric evaluation -------------------------------------------------------
#
# The program of ``e`` at ``digits`` lives in ``e._flags[("mp", digits)]``.
# Its registers hold, in dependency order, the leaf atoms, prime-integer
# bases, each transcendental atom after its argument and each compound base
# after the bases inside it; every distinct (base, exponent) pair has a
# register of its own.  A sum step multiplies each row's coefficient by its
# factor registers left to right and adds the rows in term order.  Each raw
# call is the one the mpf operators make at the same precision and rounding
# (round to nearest), which is what keeps the results bit-identical.

_TINY_EXP = -10  # admissibility threshold 10^-10 for denominators/arguments

_RND = libmp.round_nearest

# step opcodes: (op, destination register, source register or rows, operand)
_SUM, _POW, _NEG_POW, _FRAC_POW, _LN, _FN = range(6)

_MPF_FN = {"exp": libmp.mpf_exp, "ln": libmp.mpf_log, "arctan": libmp.mpf_atan,
           "sin": libmp.mpf_sin, "cos": libmp.mpf_cos}


def eval_mp(e: Expr, point: Mapping[Atom, Fraction], digits: int):
    """Evaluate at a rational point with mpmath at `digits` working digits.

    Raises _BadPoint when the point is inadmissible (near-singular
    denominator, non-positive fractional-power base, bad ln argument).
    """
    program = e._flags.get(("mp", digits))
    if program is None:
        program = e._flags[("mp", digits)] = _Lowering(digits).program(e)
    return mpmath.mp.make_mpf(_run(program, point))


def _mpf_rational(p: int, q: int, prec: int):
    """Raw value of ``mpf(p) / q`` at ``prec`` bits."""
    return libmp.mpf_div(libmp.mpf_pos(libmp.from_int(p), prec, _RND),
                         libmp.from_int(q), prec, _RND)


class _Lowering:
    """Builds the straight-line program of one expression at one precision."""

    def __init__(self, digits: int):
        self.prec = libmp.dps_to_prec(digits + 15)
        self.tiny = libmp.mpf_pow_int(libmp.from_int(10), _TINY_EXP, self.prec, _RND)
        self.regs: list = []      # initial register file; constants filled in
        self.atoms: list = []     # (atom, register) loaded from the point
        self.steps: list = []
        self.slots: dict = {}     # base or node -> register
        self.powers: dict = {}    # (register, exponent) -> register

    def program(self, e: Expr) -> tuple:
        out = self._node(e)
        return (self.prec, self.tiny, tuple(self.atoms), self.regs,
                tuple(self.steps), out)

    def _new(self, value=None) -> int:
        self.regs.append(value)
        return len(self.regs) - 1

    def _node(self, e: Expr) -> int:
        reg = self.slots.get(e)
        if reg is not None:
            return reg
        rows = []
        for mono, coeff in e._terms:
            factors = tuple(self._power(self._base(b), ex) for b, ex in mono)
            rows.append((_mpf_rational(coeff.numerator, coeff.denominator,
                                       self.prec), factors))
        reg = self.slots[e] = self._new()
        self.steps.append((_SUM, reg, tuple(rows), None))
        return reg

    def _base(self, b) -> int:
        reg = self.slots.get(b)
        if reg is not None:
            return reg
        if isinstance(b, Atom):
            if b.kind == "transc":
                arg = self._node(b.arg)
                reg = self._new()
                op = _LN if b.fn == "ln" else _FN
                self.steps.append((op, reg, arg, _MPF_FN[b.fn]))
            else:
                reg = self._new()
                self.atoms.append((b, reg))
        elif isinstance(b, int):
            reg = self._new(libmp.mpf_pos(libmp.from_int(b), self.prec, _RND))
        else:
            reg = self._node(b)
        self.slots[b] = reg
        return reg

    def _power(self, base: int, ex: Fraction) -> int:
        if ex == 1:
            return base
        reg = self.powers.get((base, ex))
        if reg is not None:
            return reg
        if ex.denominator == 1:
            op, operand = (_NEG_POW if ex < 0 else _POW), ex.numerator
        else:
            op = _FRAC_POW
            operand = _mpf_rational(ex.numerator, ex.denominator, self.prec)
        reg = self.powers[(base, ex)] = self._new()
        self.steps.append((op, reg, base, operand))
        return reg


def _run(program, point):
    """Raw value of a lowered program at a rational point."""
    prec, tiny, atoms, regs, steps, out = program
    mul, add, lt = libmp.mpf_mul, libmp.mpf_add, libmp.mpf_lt
    regs = regs[:]
    for atom, reg in atoms:
        val = point.get(atom)
        if val is None:
            raise ExprError(f"no value supplied for {atom_name(atom)}")
        regs[reg] = _mpf_rational(val.numerator, val.denominator, prec)
    for op, dst, src, operand in steps:
        if op == _SUM:
            total = libmp.fzero
            for coeff, factors in src:
                v = coeff
                for f in factors:
                    v = mul(v, regs[f], prec, _RND)
                total = add(total, v, prec, _RND)
            regs[dst] = total
            continue
        bv = regs[src]
        if op == _POW:
            regs[dst] = libmp.mpf_pow_int(bv, operand, prec, _RND)
        elif op == _NEG_POW:
            if lt(libmp.mpf_abs(bv, prec, _RND), tiny):
                raise _BadPoint
            regs[dst] = libmp.mpf_pow_int(bv, operand, prec, _RND)
        elif op == _FRAC_POW:
            if lt(bv, tiny):
                raise _BadPoint
            regs[dst] = libmp.mpf_pow(bv, operand, prec, _RND)
        else:
            if op == _LN and lt(bv, tiny):
                raise _BadPoint
            regs[dst] = operand(bv, prec, _RND)
    return regs[out]


# -- exact rational evaluation ------------------------------------------------

def eval_exact(e: Expr, point: Mapping[Atom, Fraction]) -> Fraction:
    """Exact value at a rational point.  Fractional powers succeed only when
    the base value is a perfect power; transcendentals are not supported."""
    total = Fraction(0)
    for mono, coeff in e._terms:
        v = coeff
        for b, ex in mono:
            if isinstance(b, Atom):
                if b.kind == "transc":
                    raise ExactEvalError("transcendental atom in exact evaluation")
                bv = point.get(b)
                if bv is None:
                    raise ExprError(f"no value supplied for {atom_name(b)}")
            elif isinstance(b, int):
                bv = Fraction(b)
            else:
                bv = eval_exact(b, point)
            if ex.denominator == 1:
                if bv == 0 and ex < 0:
                    raise _BadPoint
                v *= bv ** ex.numerator
            else:
                root = _exact_root(bv, ex.denominator)
                if root is None:
                    raise ExactEvalError(
                        f"{bv} is not an exact {ex.denominator}th power")
                v *= root ** ex.numerator
        total += v
    return total


def _exact_root(v: Fraction, q: int):
    if v < 0:
        if q % 2 == 0:
            return None
        r = _exact_root(-v, q)
        return None if r is None else -r
    if v == 0:
        return Fraction(0)
    num = _int_root(v.numerator, q)
    den = _int_root(v.denominator, q)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _int_root(n: int, q: int):
    """The exact q-th root of n >= 0, or None when n is no perfect q-th power."""
    if q == 2:
        r = math.isqrt(n)
    elif n < 2:
        r = n
    else:
        # integer Newton iteration from above converges to floor(n^(1/q))
        r = 1 << -(-n.bit_length() // q)
        while True:
            s = ((q - 1) * r + n // r ** (q - 1)) // q
            if s >= r:
                break
            r = s
    return r if r ** q == n else None


def fractional_power_degrees(exprs) -> dict:
    """Per atom, the lcm of denominators of fractional exponents applied
    directly to it; sampling t^q for such atoms keeps evaluation exact."""
    out: dict = {}
    for e in exprs:
        for b, ex in walk_bases(e):
            if isinstance(b, Atom) and b.kind != "transc" and ex.denominator != 1:
                q = ex.denominator
                cur = out.get(b, 1)
                out[b] = cur * q // math.gcd(cur, q)
    return out


# -- the zero test ------------------------------------------------------------

def is_zero(e: Expr, probe: ProbeConfig = DEFAULT_PROBE,
            positive=frozenset()) -> ZeroVerdict:
    """Certify whether an expression is identically zero: the exact tier's
    answer, completed by probing (`probe_verdict`).  Atoms in ``positive``
    are sampled on the positive axis (branch restrictions).
    """
    return probe_verdict(e, decide_exactly(e), probe, positive)


def decide_exactly(e: Expr) -> Optional[bool]:
    """The exact tier: whether e is identically zero, or None when e does
    not split.  For e == N * prod P_k^(c_k) (`power_split`) the product is
    nonzero wherever e is defined, so e is zero iff the polynomial N is,
    that is iff N's normal form is empty."""
    if e.is_zero_expr():
        return True
    split = power_split(e)
    return None if split is None else split[0].is_zero_expr()


def probe_verdict(e: Expr, zero: Optional[bool], probe: ProbeConfig,
                  positive) -> ZeroVerdict:
    """The verdict on e, given the exact tier's answer `zero`.

    True is ExactZero, without probing.  Otherwise e is probed at
    `probe.points` seeded admissible points at `probe.digits` digits, atoms
    in ``positive`` on the positive axis.  The first point where
    |e| >= 10^-(digits-20) is the witness: of ExactNonzero when `zero` is
    False, of ProbablyNonzero when it is None.  Without such a point the
    verdict is ProbablyZero, or ExactNonzero without a witness.
    """
    if zero:
        return ZeroVerdict(ZeroStatus.EXACT_ZERO)
    proved = zero is False
    rng = random.Random(probe.seed)
    atoms = sorted(leaf_atoms(e), key=lambda a: a._key)
    threshold = mpmath.mpf(10) ** (-(probe.digits - 20))
    for _ in range(probe.points):
        point, value = _probe_once(e, atoms, rng, probe, positive)
        with mpmath.workdps(probe.digits + 15):
            if abs(value) >= threshold:
                witness = {atom_name(a): f"{v.numerator}/{v.denominator}"
                           for a, v in point.items()}
                status = ZeroStatus.EXACT_NONZERO if proved else ZeroStatus.PROBABLY_NONZERO
                return ZeroVerdict(status, probe.points, probe.digits, witness,
                                   mpmath.nstr(abs(value), 6))
    status = ZeroStatus.EXACT_NONZERO if proved else ZeroStatus.PROBABLY_ZERO
    return ZeroVerdict(status, probe.points, probe.digits)


def _probe_once(e: Expr, atoms, rng: random.Random, probe: ProbeConfig, positive):
    for _ in range(MAX_RETRIES):
        point = sample_point(rng, atoms, positive)
        try:
            return point, eval_mp(e, point, probe.digits)
        except _BadPoint:
            continue
    raise SamplingExhausted(
        f"no admissible probe point found in {MAX_RETRIES} attempts; "
        "the expression appears identically singular")


def atom_by_name(name: str) -> Atom:
    """Resolve a grammar-level coordinate name to its atom."""
    from .expr import dep, indep, jet, param

    if name == "x":
        return indep()
    if name == "y":
        return dep()
    if set(name) <= {"y", "'"} and name.startswith("y"):
        return jet(len(name) - 1)
    if name.startswith("y^(") and name.endswith(")"):
        return jet(int(name[3:-1]))
    return param(name)
