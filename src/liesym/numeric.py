"""Two-tier zero certification and exact/high-precision evaluation.

The exact tier, `decide_exactly`, writes an expression e as
N * prod P_k^(c_k) (`power_split`), with N and every P_k polynomials in the
atoms and each c_k rational.  The product vanishes nowhere where e is
defined, so e is identically zero exactly when N is, and a polynomial is
zero iff it has no term.  That holds whatever the relations between the
radicals P_k^(c_k); nothing assumes them independent (the pitfall
described by Caviness & Fateman, 1976).  A rational function is the split
with no fractional factor: N is its numerator once every compound or
atomic denominator is cleared (`clear_denominators`).  N is never built as
an expression: it is a packed polynomial of `poly.shared`, each monomial
one int, so the terms of one denominator signature are summed in one dict
and multiplied by their missing powers with int additions.  A compound
base is a denominator key and a factor P_k, so it keeps its cleared (N, D)
in its flags with N as an expression too, for `power_split` and later
terms.  When e does not split whole (transcendental atoms, constant surds,
mixed exponent classes), the tier lifts those factors to fresh
indeterminates and splits the coefficient of each of their monomials, a
class of e's terms (`classes`), zero when its N is empty and nonzero when
N has a term and its lifted factors are `nowhere_zero`.  `sum_of_classes`
decides e: zero when every class is, nonzero when one is and the rest are
zero, and else undecided, since lifted terms may be dependent.

`is_zero` runs the exact tier and then the probe, which only searches for
a witness.  Unless e is proved zero, it is probed at seeded random rational
points in decimal arithmetic (the standard library's `decimal`, at the
configured precision plus 15 guard digits), and the first point where
|value| >= 10^-(digits-20) is the witness of ExactNonzero (e proved
nonzero) or ProbablyNonzero (no exact answer).  The threshold keeps twenty
orders of magnitude between roundoff and an honest nonzero value.
`nonzero_verdict` searches the same way for the witness of an expression
proved nonzero elsewhere, at points where a second expression (the target
it was derived from) is defined too.

Every evaluation at a point is one walk over the expression tree
(`_walker`), each base and each power of a base computed once per point,
with Python operators on plain values: Decimals at the probe's working
precision, which `_probe` holds around its loop, or exact ints and
Fractions for the rank of `invariance.rank_and_count`, which evaluates a
point's whole matrix through one walker.  The exact walk refuses a
fractional power or a call (ExactEvalError) and rejects only a zero
denominator.  In the probe's walk a fractional power p/q is the p-th
power of the q-th root (`_root`), and the calls are `Decimal.exp`,
`Decimal.ln` and the series of `_sin_cos` and `_arctan`; the witness's
magnitude is printed to 6 digits as `mpmath.nstr` prints it (`_magnitude`).
The walker also has a domain walk, which rejects the points
the value walk rejects while computing only the values its tests read; the
witness search of `nonzero_verdict` checks the target's domain with it and
evaluates the witness expression over the same memo.

The sampling policy is fixed, not configured: every coordinate of a probe
point is a rational sign*num/den with den in [10^3, 10^6] and magnitude
num/den in [1/4, 4], so that high-degree expressions stay well conditioned
(DEN_LOW, DEN_HIGH, MAG_LOW, MAG_HIGH).  `_probe_once` is the package's
one admissible-point loop, for the probe and for `invariance.rank_and_count`:
a point where the evaluation raises _BadPoint (within 10^-10 of a pole, a
branch point or a non-positive fractional-power base, or an exact zero
denominator) is resampled, at most MAX_RETRIES = 100 times, after which
SamplingExhausted signals an identically singular expression.  A
ProbeConfig sets only the point count, the precision and the seed.
"""

from __future__ import annotations

import hashlib
import math
import random
from contextlib import nullcontext
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, getcontext, localcontext
from enum import Enum
from fractions import Fraction
from functools import reduce
from typing import Mapping, NamedTuple, Optional

from .expr import (
    Atom,
    Expr,
    ExprError,
    _format_base_pow,
    _acc_add,
    _expr_from_terms,
    _make_term,
    _normal,
    _scan,
    atom_name,
    expr_sum,
    is_polynomial,
    is_rational_fragment,
    leaf_atoms,
)
from .poly import Poly, Ring, degree, mac, shared, width


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


class ZeroVerdict(NamedTuple):
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


class _ProbeFields(NamedTuple):
    points: int = 20
    digits: int = 50
    seed: int = 20240101


class ProbeConfig(_ProbeFields):
    """Points per probe, working precision in decimal digits, and seed.

    A ProbablyZero verdict needs |value| < 10^-(digits-20) at every one of
    `points` points, so at least one point and more than 20 digits are
    required.  The sampling region and the retry limit are fixed by the
    module constants DEN_LOW, DEN_HIGH, MAG_LOW, MAG_HIGH and MAX_RETRIES.
    The constructor, `_make` (and so `_replace`) and unpickling at pickle
    protocol 2 or later check this.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.points < 1:
            raise ValueError(f"points must be at least 1, got {self.points}")
        if self.digits <= 20:
            raise ValueError(f"digits must exceed 20, got {self.digits}")
        return self

    @classmethod
    def _make(cls, values):
        return cls(*values)


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


def sample_point(rng: random.Random, atoms, positive) -> dict:
    """One rational per atom, in atom-key order.  Atoms in ``positive`` get
    |t|."""
    out = {}
    for a in sorted(atoms, key=lambda a: a._key):
        v = sample_rational(rng)
        out[a] = abs(v) if a in positive else v
    return out


# -- denominator clearing (exact tier) ---------------------------------------

def clear_denominators(e: Expr):
    """(N, D) for a rational-fragment expression: e == N / prod(D), with N
    the polynomial e * prod(D) packed in `poly.shared(W)`, and D a dict
    mapping each denominator base (atom or polynomial expression) to its
    positive power, in order of first appearance in the terms (the factor
    order of `power_split`).

    W is `poly.width` of a bound on N's degree (`poly.degree`), taken
    before anything is packed.  Terms with one denominator signature are
    added into one numerator, multiplied by the product of the missing
    powers once; a monomial is an int, a product of monomials one addition.
    A compound key keeps each of its packed powers in its flags, and a
    compound base keeps its own (N, D), N also as an Expr (`_cleared`).
    (N, D items) is kept in e's flags."""
    hit = e._flags.get("clear")
    if hit is not None:
        return hit[0], dict(hit[1])
    rows, den_max, top = [], {}, 0
    for mono, coeff in e._terms:
        atoms, keys, t_den, deg = [], [], {}, 0
        for b, ex in mono:
            k = ex.numerator  # rational fragment: integer exponents only
            if type(b) is Atom:
                if k > 0:
                    atoms.append((b, k))
                    deg += k
                else:
                    t_den[b] = t_den.get(b, 0) - k
            elif type(b) is Expr and k < 0:
                nb, db = _cleared(b)
                for key, p in db:
                    (atoms if type(key) is Atom else keys).append((key, -k * p))
                    deg -= k * p * degree(key)
                t_den[nb] = t_den.get(nb, 0) - k
            else:  # a constant surd, or a sum that the normal form expands
                raise ExprError(f"{_format_base_pow(b, ex)} is outside the rational fragment")
        for key, p in t_den.items():
            if den_max.get(key, 0) < p:
                den_max[key] = p
        rows.append((t_den, atoms, keys, coeff))
        top = max(top, deg)
    ring = shared(width(top + sum(p * degree(key) for key, p in den_max.items())))
    W, index, shifts = ring.W, ring.index, {}

    def monomial(items) -> int:
        m = 0
        for a, k in items:
            s = shifts.get(a)
            if s is None:
                s = shifts[a] = W * index.setdefault((a, 1), len(index))
            m += k << s
        return m

    groups: dict = {}
    for t_den, atoms, keys, coeff in rows:
        acc = groups.setdefault(frozenset(t_den.items()), (t_den, {}))[1]
        if keys:
            mac(acc, {monomial(atoms): coeff},
                 reduce(Poly.__mul__, [_power(key, p, ring) for key, p in keys]), 1)
        else:
            _acc_add(acc, monomial(atoms), coeff)
    num: dict = {}
    for t_den, acc in groups.values():
        gaps, powers = 0, []
        for key, p in den_max.items():
            gap = p - t_den.get(key, 0)
            if gap:
                if type(key) is Atom:
                    gaps += monomial(((key, gap),))
                else:
                    powers.append(_power(key, gap, ring))
        mac(num, acc, reduce(Poly.__mul__, powers, ring.poly({gaps: 1})), 1)
    num = ring.poly({m: c if type(c) is int else _normal(c) for m, c in num.items() if c})
    e._flags["clear"] = (num, tuple(den_max.items()), None)
    return num, den_max


def _cleared(b: Expr):
    """(N, D items) of `clear_denominators` for a compound base b, with N as
    an Expr: N is b's denominator key, and a factor of `power_split`.
    Unpacked once, and kept beside the packed N in b's flags."""
    hit = b._flags.get("clear")
    if hit is None:
        clear_denominators(b)
        hit = b._flags["clear"]
    if hit[2] is None:
        hit = b._flags["clear"] = hit[:2] + (hit[0].ring.unpack(hit[0]),)
    return hit[2], hit[1]


def _power(key: Expr, p: int, ring: Ring) -> Poly:
    """key^p packed in `ring` for a compound key, which keeps its powers in
    its flags."""
    powers = key._flags.get(("pow", ring.W))
    if powers is None:
        powers = key._flags[("pow", ring.W)] = [None, ring.pack(key)]
    while len(powers) <= p:
        powers.append(powers[-1] * powers[1])
    return powers[p]


def _key_expr(key) -> Expr:
    return key.as_expr() if isinstance(key, Atom) else key


# -- power-product split ------------------------------------------------------

def power_split(e: Expr):
    """(N, ((P_1, c_1), ...)) with e == N * prod_k P_k^(c_k), N a polynomial
    over the atoms packed in `poly.shared(W)` (`Ring.unpack` gives it as an
    Expr), every P_k a polynomial expression and each c_k rational; or None.

    Integer denominators come from `clear_denominators`.  A base under a
    fractional exponent is factored out at its lowest exponent, provided
    its exponents differ by integers across all terms (a term without it
    counts as exponent 0).  The lowered terms are in normal form as they
    stand, and are sorted into a sum without being rebuilt; only a
    compound base left at a positive power is expanded, term by term.  Such
    a base is positive wherever e is defined; when it is a rational
    function Q / prod D_j^(p_j) it is rewritten as
    (Q * prod_{p_j odd} D_j) / prod (D_j^2)^ceil(p_j/2), whose factors are
    positive there too, so the identity holds at every point where e is
    defined and every P_k with a fractional exponent is positive.  A base P
    and its negation -P are merged when one of them has an integer
    exponent.  None for transcendental atoms, constant surds, mixed
    exponent classes, radicals inside a base (what `expr._scan` finds, kept
    in e's flags), and P and -P both under fractional exponents (a target
    defined nowhere).
    """
    if not _scan(e)[3]:
        return None
    lows: dict = {}
    for mono, _c in e._terms:
        for b, ex in mono:
            if type(ex) is not int:
                lows[b] = min(ex, lows.get(b, ex))
    counts, expand = dict.fromkeys(lows, 0), False
    for mono, _c in e._terms:
        for b, ex in mono:
            low = lows.get(b)
            if low is not None:
                if (ex - low).denominator != 1:
                    return None
                counts[b] += 1
                expand = expand or type(b) is Expr and ex > low
    if any(n < len(e._terms) for n in counts.values()):
        return None
    rest = e
    if expand:
        rest = expr_sum(_make_term(coeff, {b: ex - lows[b] if b in lows else ex
                                           for b, ex in mono})
                        for mono, coeff in e._terms)
    elif lows:  # the lowered terms are in normal form already
        rest = _expr_from_terms({tuple([(b, _normal(ex - lows[b])) if b in lows else (b, ex)
                                        for b, ex in mono if ex != lows.get(b)]): coeff
                                 for mono, coeff in e._terms})
    num, den = clear_denominators(rest)
    factors = [(_key_expr(key), Fraction(-p)) for key, p in den.items()]
    for b, c in lows.items():
        if not isinstance(b, Expr) or is_polynomial(b):
            factors.append((_key_expr(b), c))
            continue
        nb, db = _cleared(b)
        for key, p in db:
            d = _key_expr(key)
            if p % 2:
                nb = nb * d
            factors.append((d * d, -((p + 1) // 2) * c))
        factors.append((nb, c))
    merged: dict = {}
    scale = 1
    for base, c in factors:
        if base.is_rational_const():
            v = base.as_rational()
            if c.denominator != 1 and v != 1:
                return None
            scale *= v ** c.numerator
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
                scale = -scale
        else:
            c = merged.get(base, 0) + c
        merged[base] = c
    if scale != 1:
        num = num.ring.poly({m: _normal(c * scale) for m, c in num.items()})
    return num, tuple((base, c) for base, c in merged.items() if c)


# -- evaluation ---------------------------------------------------------------

_TINY_EXP = -10  # admissibility threshold 10^-10 for denominators/arguments


def eval_mp(e: Expr, point: Mapping[Atom, Fraction], digits: int) -> Decimal:
    """Evaluate at a rational point in decimal arithmetic at `digits` + 15
    working digits: the precision `_probe` holds around its loop, or entered
    here.

    Raises _BadPoint when the point is inadmissible (near-singular
    denominator, non-positive fractional-power base, bad ln argument), and
    ExprError when the walk reaches an atom that `point` does not bind.
    """
    held = getcontext().prec == digits + 15
    with nullcontext() if held else _working(digits):
        value, _domain = _walker(point, digits)
        return Decimal(value(e))


def _working(digits: int):
    """The probe's decimal context, to enter: `digits` + 15 digits, and
    exponents as wide as `decimal` allows, so that exp(1/t) near a pole of
    1/t stays finite, as an mpf would."""
    return localcontext(Context(prec=digits + 15, Emax=MAX_EMAX, Emin=MIN_EMIN))


def _root(v: Decimal, q: int) -> Decimal:
    """v^(1/q) for v > 0 at the context's precision, at five guard digits:
    `sqrt` for q = 2; else Newton's iteration for x^q = v', where
    v' = v / 10^(q*k) lies in [1, 10^q) and the root is scaled back by 10^k.
    The iteration starts from a float guess made of numbers in [1, 10),
    which cannot overflow or underflow, and each step doubles the digits it
    has right, less the digits of q: its error grows by (q - 1)/2.  For
    q >= 1000, whose v' and x^(q - 1) may pass the exponent range of a
    context, v^(1/q) is exp(ln(v) / q)."""
    if q == 2:
        return v.sqrt()
    with localcontext() as ctx:
        ctx.prec += 5
        if q >= 1000:
            x = (v.ln() / q).exp()
        else:
            k, r = divmod(v.adjusted(), q)
            m = v.scaleb(-q * k)
            x = Decimal(float(m.scaleb(-r)) ** (1 / q) * 10 ** (r / q))
            good = 14  # digits the guess gets right
            while good < ctx.prec:
                x = ((q - 1) * x + m / x ** (q - 1)) / q
                good = 2 * good - len(str(q))
            x = x.scaleb(k)
    return +x


def _sin_cos(x: Decimal, k: int) -> Decimal:
    """sin x (k = 1) or cos x (k = 0) at the context's precision: for
    |x| >= 4, x less its nearest multiple of 2*pi, with pi = 4*arctan(1) and
    as many more guard digits as x has integer digits; then the Taylor
    series, summed until a term no longer changes the sum."""
    with localcontext() as ctx:
        ctx.prec += 5 + max(0, x.adjusted())
        if abs(x) >= 4:
            tau = 8 * _arctan(Decimal(1))
            x -= tau * (x / tau).to_integral_value()
        x2, term = x * x, x if k else Decimal(1)
        total, last, n = term, None, k
        while total != last:
            last = total
            term = -term * x2 / ((n + 1) * (n + 2))
            total += term
            n += 2
    return +total


def _arctan(x: Decimal) -> Decimal:
    """arctan x at the context's precision: the angle is halved,
    x -> x / (1 + sqrt(1 + x^2)), until |x| < 0.2, and then the series
    x - x^3/3 + x^5/5 - ... is summed until a term no longer changes it."""
    with localcontext() as ctx:
        ctx.prec += 5
        halvings = 0
        while abs(x) >= _FIFTH:
            x /= 1 + (1 + x * x).sqrt()
            halvings += 1
        x2, power, total, last, n = -x * x, x, x, None, 1
        while total != last:
            last = total
            power *= x2
            n += 2
            total += power / n
        total *= 2 ** halvings
    return +total


_FIFTH = Decimal("0.2")
_CALLS = {"exp": Decimal.exp, "ln": Decimal.ln, "arctan": _arctan,
          "sin": lambda x: _sin_cos(x, 1), "cos": lambda x: _sin_cos(x, 0)}


def _magnitude(v: Decimal) -> str:
    """`mpmath.nstr(v, 6)` for v > 0, as `mpmath.libmp.to_str` prints it:
    the digits truncated to 9 and rounded half up at the 7th, in fixed
    notation when the exponent lies in (-5, 6) and as d.ddddde±k otherwise,
    with trailing zeros stripped down to x.0.  (mpmath reads its 9 digits
    off a binary value of about 12 digits, so it prints a value less than
    2*10^-12 above a half at the 7th digit rounded down.)"""
    digits = "".join(map(str, v.as_tuple().digits[:9])).ljust(9, "0")
    exp, head = v.adjusted(), int(digits[:6]) + (digits[6] >= "5")
    if head == 10 ** 6:
        head, exp = 10 ** 5, exp + 1
    digits, suffix = str(head), ""
    if -5 < exp < 0:
        digits, split = "0" * -exp + digits, 1
    elif 0 <= exp < 6:
        split = exp + 1
    else:
        split, suffix = 1, f"e{exp:+d}"
    text = (digits[:split] + "." + digits[split:]).rstrip("0")
    return (text + "0" if text.endswith(".") else text) + suffix


def _walker(point: Mapping[Atom, Fraction], digits: Optional[int]):
    """(value, domain): two walks over expressions at one point, sharing one
    memo of base and power values.

    With `digits`, values are Decimals at the working precision `digits` +
    15, which the caller holds (`_working`); with None they are exact ints
    and Fractions.  The two differ in four places: a rational is rounded to
    a Decimal or kept; a base is inadmissible below 10^-10 or at exactly 0;
    and a fractional power or a call, which the exact walk refuses with
    ExactEvalError before it evaluates the base or the argument.

    `value(e)` is e's value, as `eval_mp` returns it.  `domain(e)` raises
    _BadPoint exactly when `value(e)` would, and computes only what the
    admissibility tests read: the value of a base under a negative or
    fractional power and of an ln argument.  It visits the other bases once,
    recursing into compound bases and call arguments, and never sums terms or
    converts coefficients.
    """
    exact = digits is None
    tiny = None if exact else Decimal(10) ** _TINY_EXP

    def rational(q):
        return q if exact else Decimal(q.numerator) / q.denominator

    def small(v):
        return v == 0 if exact else v < tiny

    memo: dict = {}  # base -> value, (base, exponent) -> value
    checked = set()  # bases whose domain is checked without their value

    def node(e):
        total = 0
        for mono, coeff in e._terms:
            v = rational(coeff)
            for b, ex in mono:
                v *= base(b) if ex == 1 else power(b, ex)
            total += v
        return total

    def refuse(b, ex):
        return ExactEvalError(f"{_format_base_pow(b, ex)} has no exact value at a rational point")

    def base(b):
        bv = memo.get(b)
        if bv is not None:
            return bv
        if isinstance(b, Atom):
            if b.kind == "transc":
                if exact:
                    raise refuse(b, 1)
                arg = base(b.arg)
                if b.fn == "ln" and small(arg):
                    raise _BadPoint
                bv = _CALLS[b.fn](arg)
            else:
                val = point.get(b)
                if val is None:
                    raise ExprError(f"no value supplied for {atom_name(b)}")
                bv = rational(val)
        elif isinstance(b, int):
            bv = rational(b)
        else:
            bv = node(b)
        memo[b] = bv
        return bv

    def admissible(b, ex):
        """b's value, once the test that b^ex reads of it passes."""
        bv = base(b)
        if ex.denominator == 1:
            if ex < 0 and small(abs(bv)):
                raise _BadPoint
        elif small(bv):
            raise _BadPoint
        return bv

    def power(b, ex):
        pv = memo.get((b, ex))
        if pv is not None:
            return pv
        if exact and (ex.denominator != 1 or isinstance(b, Atom) and b.kind == "transc"):
            raise refuse(b, ex)
        bv = admissible(b, ex)
        if ex.denominator != 1:
            bv = _root(bv, ex.denominator)
        pv = memo[(b, ex)] = bv ** ex.numerator
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
                    elif small(base(b.arg)):
                        raise _BadPoint
                checked.add(b)

    return node, domain


# -- the zero test ------------------------------------------------------------

def is_zero(e: Expr, probe: ProbeConfig,
            positive=frozenset()) -> ZeroVerdict:
    """Certify whether an expression is identically zero.

    A proof of zero by the exact tier (`decide_exactly`, which takes the
    atoms in ``positive`` as positive) is ExactZero, without probing.
    Otherwise e is probed at `probe.points` seeded admissible points at
    `probe.digits` digits, atoms in ``positive`` on the positive axis.  The
    first point where |e| >= 10^-(digits-20) is the witness: of ExactNonzero
    when the exact tier proved e nonzero, of ProbablyNonzero when it gave no
    answer, and the verdict counts the points evaluated up to it.  Without a
    witness the verdict is ProbablyZero, or ExactNonzero without a witness.
    """
    zero = decide_exactly(e, positive)
    if zero:
        return ZeroVerdict(ZeroStatus.EXACT_ZERO)
    return _probe(leaf_atoms(e), lambda p: eval_mp(e, p, probe.digits), zero, probe, positive)


def decide_exactly(e: Expr, positive) -> Optional[bool]:
    """The exact tier: whether e is identically zero, or None when it is
    not decided.  For e == N * prod P_k^(c_k) (`power_split`) the product is
    nonzero wherever e is defined, so e is zero iff the polynomial N is,
    that is iff the packed N has no term.  Otherwise `sum_of_classes`
    decides e from its `classes`: one is zero when it splits with N empty,
    nonzero when N has a term and its lifted factors are `nowhere_zero`."""
    if e.is_zero_expr():
        return True
    split = power_split(e)
    if split is not None:
        return not split[0]
    return sum_of_classes(None if (split := power_split(group)) is None
                          or split[0] and not nowhere_zero(lifted) else not split[0]
                          for group, lifted in classes(e, positive))


def sum_of_classes(answers) -> Optional[bool]:
    """Whether a sum of classes is zero, from their answers (True, False or
    None): zero when every class is, nonzero when exactly one is and every
    other zero, else None, as two nonzero classes may cancel."""
    nonzero = 0
    for answer in answers:
        nonzero += answer is False
        if answer is None or nonzero > 1:
            return None
    return not nonzero


def nowhere_zero(powers) -> bool:
    """Whether a product of the (base, exponent) pairs `powers` vanishes
    nowhere it is defined: every base is an `exp` call or a constant surd."""
    return all(type(b) is int or type(b) is Atom and b.fn == "exp" for b, _ex in powers)


def classes(e: Expr, positive) -> list:
    """[(group, lifted), ...]: e's terms in classes, each with the factors
    the class leaves out.

    First a compound base Q/D under a fractional power c, whose denominator
    D (`clear_denominators`) is a monomial in ``positive`` atoms, becomes
    Q^c * D^(-c), exact as D > 0.  Then each transcendental atom t, constant
    surd and base b under a fractional power is lifted to a fresh
    indeterminate: t to T_t, and b^(k + r/q) to b^k * T_b^r, with q the lcm
    of b's exponent denominators.  The lifted sum is zero exactly when the
    coefficient of each monomial in the T's is, so none is built: a class
    holds the terms with the same transcendental and surd factors and the
    same fractional parts of their exponents.  `group` is the sum of its
    terms without those transcendental and surd factors, which `lifted`
    lists as (base, exponent) pairs.
    """
    cleared = {}
    if positive:  # with none, no denominator is a monomial in positive atoms
        for b, ex in (item for mono, _c in e._terms for item in mono):
            if type(ex) is not int and isinstance(b, Expr) and is_rational_fragment(b):
                num, den = _cleared(b)
                if den and all(type(a) is Atom and a in positive for a, _p in den):
                    cleared[b] = num, den
    if cleared:
        e = expr_sum(math.prod([cleared[b][0].pow(ex) * _make_term(
                                    1, {a: -p * ex for a, p in cleared[b][1]})
                                if b in cleared else _make_term(1, {b: ex})
                                for b, ex in mono], start=Expr.rational(coeff))
                     for mono, coeff in e._terms)
    groups: dict = {}
    for mono, coeff in e._terms:
        lifted, parts, kept = [], [], []
        for b, ex in mono:
            if type(b) is int or type(b) is Atom and b.kind == "transc":
                lifted.append((b, ex))
                continue
            if type(ex) is not int:
                parts.append((b, ex - math.floor(ex)))
            kept.append((b, ex))
        # the lifted factors are the same across a class: its kept monomials differ
        groups.setdefault((tuple(lifted), tuple(parts)), {})[tuple(kept)] = coeff
    return [(_expr_from_terms(terms), lifted) for (lifted, _parts), terms in groups.items()]


def nonzero_verdict(e: Expr, domain: Expr, probe: ProbeConfig) -> ZeroVerdict:
    """ExactNonzero for e, proved nonzero, with the witness `is_zero` would
    search for: the points are drawn over the atoms of e and of `domain`,
    and a point where `domain` cannot be evaluated is inadmissible as well,
    so the witness lies where `domain` is defined.  At each point the domain
    walk checks `domain` without its value, and e is evaluated in the same
    walker, so the bases the two share are computed once."""
    def evaluate(p):
        value, check = _walker(p, probe.digits)
        check(domain)
        return value(e)

    return _probe(leaf_atoms(e) | leaf_atoms(domain), evaluate, False, probe, frozenset())


def _probe(atoms, evaluate, zero, probe: ProbeConfig, positive) -> ZeroVerdict:
    """The probe loop of `is_zero`, with the value at a point given by
    `evaluate`; the exact tier's answer `zero` (False or None) only picks
    the status.  The loop holds the working precision that `evaluate` and
    the threshold test compute at."""
    proved = zero is False
    rng = random.Random(probe.seed)
    atoms = sorted(atoms, key=lambda a: a._key)
    threshold = Decimal(10) ** (20 - probe.digits)
    with _working(probe.digits):
        for i in range(probe.points):
            point, value = _probe_once(rng, atoms, positive, evaluate)
            if abs(value) >= threshold:
                witness = {atom_name(a): f"{v.numerator}/{v.denominator}"
                           for a, v in point.items()}
                status = ZeroStatus.EXACT_NONZERO if proved else ZeroStatus.PROBABLY_NONZERO
                return ZeroVerdict(status, i + 1, probe.digits, witness,
                                   _magnitude(abs(value)))
    status = ZeroStatus.EXACT_NONZERO if proved else ZeroStatus.PROBABLY_ZERO
    return ZeroVerdict(status, probe.points, probe.digits)


def _probe_once(rng: random.Random, atoms, positive, evaluate):
    """(point, evaluate(point)) at the first of at most MAX_RETRIES points
    drawn by `sample_point` where `evaluate` raises no _BadPoint; raises
    SamplingExhausted when every one of them does."""
    for _ in range(MAX_RETRIES):
        point = sample_point(rng, atoms, positive)
        try:
            return point, evaluate(point)
        except _BadPoint:
            continue
    raise SamplingExhausted(
        f"no admissible point found in {MAX_RETRIES} attempts; "
        "the expression appears identically singular")
