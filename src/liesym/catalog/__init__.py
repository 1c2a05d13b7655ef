"""The data layer: every algebra family, canonical equation, invariant,
invariant-differentiation operator and Lie determinant, stored as JSON and
instantiated into concrete expressions at a chosen order n.

Record templates use the expression grammar with `n` (and any bound or
user-supplied parameters) resolved at instantiation time, `H(...)` for
arbitrary-function slots, `series(k, lo, hi, tmpl)` for variable-length
argument lists, `fact`/`factprod` for factorial coefficients and `totd` for
total derivatives.  Four record families with root-dependent generator sets
(solution chains and their logarithmic/first-order variants) are assembled
by builders on top of :mod:`liesym.linear_ode`: each takes the order n and
returns the fields and the blocks that the record's templates may name.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import List, Mapping, NamedTuple, Optional, Sequence

from ..expr import (Expr, ExprError, ONE, ZERO, _touched, dep, expr_sum, indep, jet_or_dep,
                    leaf_atoms, param, substitute, sum_of_products, transcendental, walk_bases)
from ..invariance import OdeEquation
from ..jet import MAX_JET_ORDER, MaxOrderExceeded, VectorField, total_derivative
from ..linear_ode import (
    CharSpec,
    coeffs_from_solutions,
    fundamental_solutions,
    linear_ode_from_spec,
    prop1_symmetries,
)
from ..parse import Context, _check_power, _Error, parse_expression, parse_vector_field


class CatalogError(ExprError):
    pass


class ConstraintViolation(CatalogError):
    pass


class CatalogRecord(NamedTuple):
    """A raw record: label, template strings and metadata, as loaded."""

    label: str
    data: dict

    @property
    def notes(self) -> str:
        return self.data.get("notes", "")


class ConcreteEquation(NamedTuple):
    """One canonical equation under every H choice: `variants` maps each
    name of `H_CHOICES` to its equation when the rhs calls H, and holds
    only `"identity"` otherwise."""

    variants: dict  # {h: OdeEquation}

    @property
    def equation(self) -> OdeEquation:
        return self.variants["identity"]

    @property
    def uses_H(self) -> bool:
        return len(self.variants) > 1


class ConcreteRecord(NamedTuple):
    label: str
    n: int
    dimension: int
    params: dict
    fields: list
    equations: list  # list[ConcreteEquation]
    invariants: list  # list[(order:int, Expr)]
    lam: Optional[Expr]
    lie_det_expected: Optional[Expr]
    singular_factors: list
    blocks: dict
    equivalences: list  # (Expr, Expr, positivity-atoms) certified-equal forms
    fundamental_check: bool
    extra_symmetries: list  # raw dicts, grounded lazily by the harness
    generator_probes: list  # raw dicts for bound-parameter discrimination
    case_note: str


# -- arithmetic over template formulas ----------------------------------------

def eval_formula(text, env: Mapping[str, Fraction]) -> Fraction:
    """Evaluate a template ('n+1', 'fact(n-1)', '7') or a number exactly."""
    ctx = Context(params={k: v for k, v in env.items() if v is not None})
    e = parse_expression(str(text), ctx)
    return e.as_rational()


def check_condition(cond: str, env: Mapping[str, Fraction]) -> bool:
    """'alpha != n-1' or 'K = n/(n-1)', evaluated exactly.

    A condition on a symbolic (unset) parameter holds for `!=` and fails
    for `=`: no value is excluded, and no case is selected, since the
    parameter equals no one value.  A condition that does not parse raises
    ParseError.
    """
    op = "!=" if "!=" in cond else "="
    lhs, found, rhs = cond.partition(op)
    if not found:
        raise CatalogError(f"cannot parse condition {cond!r}")
    ctx = Context(params=dict(env))
    lv, rv = parse_expression(lhs, ctx), parse_expression(rhs, ctx)
    if not (lv.is_rational_const() and rv.is_rational_const()):
        return op == "!="  # a symbolic parameter
    return (lv == rv) if op == "=" else (lv != rv)


# -- loading -------------------------------------------------------------------

def data_dir() -> Path:
    import os

    override = os.environ.get("LIESYM_CATALOG_DIR")
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


def load_catalog() -> List[CatalogRecord]:
    """Load every record and check the shipped manifest (count and labels)."""
    base = data_dir()
    manifest_path = base / "manifest.json"
    if not manifest_path.exists():
        raise CatalogError(f"manifest not found under {base}")
    manifest = json.loads(manifest_path.read_text())
    records = []
    seen = set()
    for fname in sorted(p.name for p in base.glob("*.json") if p.name != "manifest.json"):
        try:
            data = json.loads((base / fname).read_text())
        except json.JSONDecodeError as exc:
            raise CatalogError(f"{fname}: invalid JSON: {exc}") from exc
        label = data.get("label")
        if not label:
            raise CatalogError(f"{fname}: missing label")
        if label in seen:
            raise CatalogError(f"{fname}: duplicate label {label}")
        seen.add(label)
        records.append(CatalogRecord(label, data))
    expected = manifest.get("labels", [])
    got = sorted(seen)
    if got != sorted(expected):
        missing = sorted(set(expected) - seen)
        extra = sorted(seen - set(expected))
        raise CatalogError(
            f"manifest mismatch: missing {missing}, unexpected {extra}")
    if len(records) != manifest.get("count"):
        raise CatalogError(
            f"manifest mismatch: {len(records)} records, manifest says {manifest.get('count')}")
    return records


def find_record(records: Sequence[CatalogRecord], label: str) -> CatalogRecord:
    for r in records:
        if r.label == label:
            return r
    raise CatalogError(f"no record labelled {label!r}")


# -- arbitrary-function slots --------------------------------------------------

def _h_identity(args: list) -> Expr:
    return expr_sum(args)


def _h_square(args: list) -> Expr:
    return _h_identity(args) ** 2


def _h_one(args: list) -> Expr:
    return ONE


H_CHOICES: dict = {"identity": _h_identity, "square": _h_square, "one": _h_one}


def _h_slot(calls: list, args: list) -> Expr:
    """The H slot of an equation's one parse: a placeholder atom per call."""
    atom = param(f"\x00H{len(calls)}")
    calls.append((atom, args))
    return atom.as_expr()


def _h_values(rhs: Expr, calls: list, choice) -> dict:
    """The value of each placeholder under one H choice; calls come innermost
    first, so a nested call's value is known before its caller's."""
    values: dict = {}
    for atom, args in calls:
        _check_h_powers(args, values)
        values[atom] = choice([substitute(a, values) for a in args])
    _check_h_powers([rhs], values)
    return values


def _check_h_powers(exprs: list, values: dict) -> None:
    """Apply the parser's bounds to each power of a base holding a placeholder,
    at its value and inner bases first, as each choice's parse did (offset 0)."""
    for b, ex in reversed([p for e in exprs for p in walk_bases(e)] if values else []):
        if ex != 1 and _touched(b, values.keys()):
            _check_power(dict(substitute(b if type(b) is Expr else b.as_expr(), values)._terms),
                         ex, 0)


# -- instantiation -------------------------------------------------------------

def instantiate(record: CatalogRecord, n: Optional[int] = None,
                params: Optional[Mapping[str, object]] = None) -> ConcreteRecord:
    """Ground a record at order n with concrete parameter values.

    ``params`` values may be Fractions/ints, strings of formulas in n, or
    None to keep a parameter symbolic.  A name in ``params`` that is a
    bound replaces that bound's formula before later bounds and defaults
    are evaluated, and is not reported as a parameter.  Raises
    ConstraintViolation naming the violated constraint (also jets past MAX_JET_ORDER).
    """
    n = n if n is not None else default_order(record)
    try:
        return _ground(record, n, params)
    except MaxOrderExceeded as exc:
        raise ConstraintViolation(f"{record.label}: order n={n} needs jets past the "
                                  f"maximum order {MAX_JET_ORDER}") from exc
    except _Error as err:  # a parser bound on the value of an H choice
        message, _, cls = err.args
        raise cls(message, 0) from None


def _ground(record: CatalogRecord, n: int, params) -> ConcreteRecord:
    data = record.data
    lo, hi = data.get("n_range", [1, None])
    if n < lo or (hi is not None and n > hi):
        raise ConstraintViolation(f"{record.label}: order n={n} outside range [{lo}, {hi}]")
    overrides = dict(params or {})
    env: dict = {"n": Fraction(n)}
    for name, formula in data.get("bound", {}).items():
        env[name] = eval_formula(overrides.pop(name, formula), env)
    # defaults, then user overrides
    values: dict = {}
    for p in data.get("parameters", []):
        name = p["name"]
        default = data.get("defaults", {}).get(name)
        values[name] = None if default is None else eval_formula(default, env)
    for name, v in overrides.items():
        if name not in values:
            raise CatalogError(f"{record.label}: unknown parameter {name!r}")
        values[name] = None if v is None else eval_formula(v, env)
    env.update(values)
    for p in data.get("parameters", []):
        for excl in p.get("exclude", []):
            if values[p["name"]] is not None and values[p["name"]] == eval_formula(excl, env):
                raise ConstraintViolation(f"{record.label}: {p['name']} = {excl} excluded")
    # select a guarded case, if any
    content = dict(data)
    case_note = ""
    for case in data.get("cases", []):
        if all(check_condition(c, env) for c in case["when"]):
            content.update({k: v for k, v in case.items() if k != "when"})
            case_note = "; ".join(case["when"])
            break
    dimension = int(eval_formula(data.get("dimension", "0"), env))
    builder = data.get("builder")
    ctx = Context(params=dict(env))
    for name, tmpl in content.get("building_blocks", {}).items():
        ctx.macros[name] = parse_expression(tmpl, ctx)
    if builder:
        fields, extra_blocks = _BUILDERS[builder](n)
        ctx.macros.update(extra_blocks)
    else:
        fields = _build_generators(content.get("generators", []), ctx)
    if dimension and len(fields) != dimension:
        raise CatalogError(
            f"{record.label}: {len(fields)} generators, declared dimension {dimension}")
    if len(fields) > MAX_JET_ORDER + 2:  # a Lie determinant of r fields prolongs to r - 2
        raise MaxOrderExceeded(f"{len(fields)} generators exceed {MAX_JET_ORDER + 2}")
    invariants = []
    for inv in content.get("invariants", []):
        order = int(eval_formula(inv["order"], env))
        expr = parse_expression(inv["expr"], ctx)
        invariants.append((order, expr))
        ctx.macros[f"phi{len(invariants)}"] = expr
    equations = []
    for eq in content.get("equations", []):
        order = int(eval_formula(eq.get("order", data.get("order", "n")), env))
        calls: list = []
        rhs = parse_expression(eq["rhs"], Context(params=ctx.params, macros=ctx.macros,
                                                  functions={"H": partial(_h_slot, calls)}))
        variants = {h: substitute(rhs, _h_values(rhs, calls, choice))
                    for h, choice in H_CHOICES.items()} if calls else {"identity": rhs}
        equations.append(ConcreteEquation({h: OdeEquation(order, e) for h, e in variants.items()}))
    lam = None
    if content.get("lambda"):
        lam = parse_expression(content["lambda"], ctx)
    lie_det = None
    if content.get("lie_determinant"):
        lie_det = parse_expression(content["lie_determinant"], ctx)
    singular = [parse_expression(s, ctx) for s in content.get("singular_factors", [])]
    equivalences = []
    for pair in content.get("equivalences", []):
        pos = frozenset().union(*(leaf_atoms(parse_expression(nm, ctx))
                                  for nm in pair.get("positive", [])))
        equivalences.append((parse_expression(pair["a"], ctx),
                             parse_expression(pair["b"], ctx), pos))
    return ConcreteRecord(
        label=record.label,
        n=n,
        dimension=dimension or len(fields),
        params=dict(values),
        fields=fields,
        equations=equations,
        invariants=invariants,
        lam=lam,
        lie_det_expected=lie_det,
        singular_factors=singular,
        blocks=ctx.macros,
        equivalences=equivalences,
        fundamental_check=bool(content.get("fundamental_check")),
        extra_symmetries=content.get("extra_symmetries", []),
        generator_probes=content.get("generator_probes", []),
        case_note=case_note,
    )


def default_order(record: CatalogRecord) -> int:
    lo, _hi = record.data.get("n_range", [1, None])
    return lo


def secondary_order(record: CatalogRecord) -> Optional[int]:
    """A second sample order (min + 3), to catch n-dependent coefficient bugs."""
    lo, hi = record.data.get("n_range", [1, None])
    cand = lo + 3
    if hi is not None and cand > hi:
        return None
    return cand


def _build_generators(specs: list, ctx: Context) -> list:
    fields = []
    for spec in specs:
        if isinstance(spec, str):
            fields.append(VectorField(*parse_vector_field(spec, ctx)))
        else:
            var = spec["var"]
            lo = int(eval_formula(spec["from"], ctx.params))
            hi = int(eval_formula(spec["to"], ctx.params))
            for k in range(lo, hi + 1):
                sub = ctx.child(**{var: Fraction(k)})
                fields.append(VectorField(*parse_vector_field(spec["template"], sub)))
    return fields


# -- builders for root-dependent records ----------------------------------------

def _default_roots(count: int, avoid_zero: bool) -> list:
    """The first `count` of 0 (unless `avoid_zero`), 1, -1, 2, -2, ..."""
    roots = [Fraction(s * k) for k in range(1, count + 1) for s in (1, -1)]
    return (roots if avoid_zero else [Fraction(0)] + roots)[:count]


def _linear_chain_builder(n: int):
    """Generators Dx and eta_i(x)*Dy where the eta_i span the kernel of an
    order-(n-1) constant-coefficient operator; blocks u = that operator
    applied to y, and Du = its total derivative."""
    spec = CharSpec(real_roots=tuple(_default_roots(n - 1, avoid_zero=False)))
    fields = [VectorField(ONE, ZERO)]
    fields += [VectorField(ZERO, s) for s in fundamental_solutions(spec)]
    u = jet_or_dep(n - 1).as_expr() - linear_ode_from_spec(spec).rhs()
    blocks = {"u": u, "Du": total_derivative(u)}
    return fields, blocks


def _log_chain_builder(n: int):
    """Generators Dx, y*Dy and eta_i(x)*Dy with the eta_i spanning the kernel
    of an order-(n-2) operator; blocks u, Du, D2u_low (second total
    derivative with the top jet removed)."""
    spec = CharSpec(real_roots=tuple(_default_roots(n - 2, avoid_zero=True)))
    fields = [VectorField(ONE, ZERO), VectorField(ZERO, dep().as_expr())]
    fields += [VectorField(ZERO, s) for s in fundamental_solutions(spec)]
    u = jet_or_dep(n - 2).as_expr() - linear_ode_from_spec(spec).rhs()
    du = total_derivative(u)
    d2u_low = total_derivative(du) - jet_or_dep(n).as_expr()
    blocks = {"u": u, "Du": du, "D2u_low": d2u_low}
    return fields, blocks


def _prop1_builder(n: int):
    """Solution-chain algebra at dimension n+1: Dy, y*Dy, x*Dy and the
    prescribed solutions; the equation is reconstructed from the solutions
    and exposed through the block `lin_rhs`."""
    x = indep().as_expr()
    xis = [x ** j for j in range(2, n - 1)] + [transcendental("exp", x)]
    coeffs = coeffs_from_solutions(xis, n, 2)
    fields = prop1_symmetries(xis, 2)
    rhs = sum_of_products((c, jet_or_dep(i).as_expr())
                          for i, c in enumerate(coeffs, start=2))
    blocks = {"lin_rhs": rhs}
    return fields, blocks


def _char_roots_builder(n: int):
    """Fundamental-solution algebra at dimension n+2 for a constant
    coefficient equation built from a mixed real/complex root set."""
    if n >= 2:
        reals = _default_roots(n - 2, avoid_zero=True)
        spec = CharSpec(real_roots=tuple(reals), complex_pairs=((Fraction(0), Fraction(1)),))
    else:
        spec = CharSpec(real_roots=(Fraction(1),))
    ode = linear_ode_from_spec(spec)
    sols = fundamental_solutions(spec)
    fields = [VectorField(ZERO, s) for s in sols]
    fields.append(VectorField(ZERO, dep().as_expr()))
    fields.append(VectorField(ONE, ZERO))
    blocks = {"lin_rhs": ode.rhs()}
    return fields, blocks


_BUILDERS: dict = {
    "linear_chain": _linear_chain_builder,
    "log_chain": _log_chain_builder,
    "prop1": _prop1_builder,
    "char_roots": _char_roots_builder,
}
