"""Catalog loading, instantiation grounding, and constraint handling."""

import copy
import re
from fractions import Fraction as F

import pytest

from liesym import expr as E
from liesym.catalog import (
    CatalogError,
    ConstraintViolation,
    check_condition,
    default_order,
    eval_formula,
    find_record,
    instantiate,
    load_catalog,
    secondary_order,
)
from liesym.parse import (
    Context,
    ParseError,
    UnknownIdentifierError,
    parse_expression,
    parse_vector_field,
)

from grounding_oracle import per_choice_variants

RECORDS = load_catalog()

EXPECTED_LABELS = {
    "(9,1)", "(10,2)", "(20,2)", "(22,2)", "(A2.1,2)",
    "(4,4)", "(13,4)", "(14,4)", "(19,4)",
    "(5,5)", "(15,5)",
    "(6,6)", "(16,6)", "(7,6)",
    "(8,8)", "(28,6)", "(28,9)",
    "(22,n)", "(23,n)", "(24,n)", "(25,n)", "(26,n)", "(27,n)", "(28,n)",
    "(21,n+1)", "(24,n+1)", "(25,n+1)", "(26,n+1)", "(27,n+1)", "(28,n+1)",
    "(23,n+2)", "(24,n+2)", "(25,n+2)", "(26,n+2)", "(27,n+2)", "(28,n+2)",
    "(1,3)", "(2,3)", "(3,3)", "(11,3)", "(17,3)",
}


def test_manifest_complete():
    labels = {r.label for r in RECORDS}
    assert labels == EXPECTED_LABELS
    assert len(RECORDS) == 41


def test_every_record_instantiates_at_default_orders():
    for rec in RECORDS:
        for n in filter(None, [default_order(rec), secondary_order(rec)]):
            con = instantiate(rec, n=n)
            assert len(con.fields) == con.dimension
            for order, phi in con.invariants:
                top = E.max_jet_order(phi)
                assert (top or 0) == order, (rec.label, order)
            for ce in con.equations:
                assert ce.equation.order <= 12


def test_generator_counts_match_dimension_formulas():
    con = instantiate(find_record(RECORDS, "(24,n+2)"), n=6)
    assert con.dimension == 8 and len(con.fields) == 8
    con = instantiate(find_record(RECORDS, "(28,n)"), n=9)
    assert con.dimension == 9


def test_power_family_record_grounds():
    rec = find_record(RECORDS, "(24,n+1)")
    con = instantiate(rec, n=5, params={"alpha": 7, "K": 1})
    rhs = con.equations[0].equation.rhs
    assert rhs == E.jet(4).as_expr() ** F(2, 3)
    assert con.params["alpha"] == 7


def test_bound_override_replaces_its_formula():
    rec = find_record(RECORDS, "(25,n+1)")
    con = instantiate(rec, n=5, params={"r": 1})
    want = parse_vector_field("x*Dx + (y + x)*Dy")
    assert con.fields[-1] == want
    assert "r" not in con.params
    assert instantiate(rec, n=5).fields[-1] != want  # r = n-1 by default


def test_exponential_family_record_grounds():
    rec = find_record(RECORDS, "(25,n+1)")
    con = instantiate(rec, n=4, params={"K": 2})
    want = 2 * E.transcendental("exp", E.jet(3).as_expr() * F(-1, 6))
    assert con.equations[0].equation.rhs == want


def test_exceptional_ratio_instantiation():
    rec = find_record(RECORDS, "(26,n+1)")
    con = instantiate(rec, n=6, params={"K": "6/5"})
    want = F(6, 5) * E.jet(5).as_expr() ** 2 / E.jet(4).as_expr()
    assert con.equations[0].equation.rhs == want


def test_blocks_ground_for_shortest_chain_family():
    rec = find_record(RECORDS, "(28,n+1)")
    con = instantiate(rec, n=5)
    want = E.jet(2).as_expr() * E.jet(4).as_expr() * E.jet(3).as_expr() ** -2
    assert con.blocks["K1"] == want


def test_fourth_order_row_grounds():
    con = instantiate(find_record(RECORDS, "(19,4)"))
    assert con.lam == E.dep().as_expr() ** F(1, 2) * E.jet(2).as_expr() ** F(-1, 2)
    rhs = con.equations[0].equation.rhs  # with H = identity
    phi1 = con.invariants[0][1]
    want = F(4, 3) * E.jet(2).as_expr() ** -1 * E.jet(3).as_expr() ** 2 \
        + E.dep().as_expr() ** -1 * E.jet(2).as_expr() ** 2 * phi1
    assert rhs == want


def test_weighted_scaling_invariant_substitution():
    # alpha = 0 at order four grounds to y'''^(-2) * y''^3
    rec = find_record(RECORDS, "(24,n)")
    con = instantiate(rec, n=4, params={"alpha": 0})
    phi1 = con.invariants[0][1]
    assert phi1 == E.jet(3).as_expr() ** -2 * E.jet(2).as_expr() ** 3


def test_case_selection_on_special_weights():
    rec = find_record(RECORDS, "(24,n)")
    con = instantiate(rec, n=5, params={"alpha": 4})  # alpha = n-1
    assert con.case_note == "alpha = n-1"
    assert con.invariants[0][1] == E.jet(4).as_expr()
    assert con.lam == E.jet(3).as_expr()
    con = instantiate(rec, n=5, params={"alpha": 3})  # alpha = n-2
    assert con.invariants[0][1] == E.jet(3).as_expr()
    assert con.lam == E.jet(4).as_expr() ** -1


def test_symbolic_weight_selects_no_case_and_is_refused_in_exponents():
    # with alpha unset no `alpha = ...` case holds, so the general templates
    # are grounded, and their exponents in alpha do not fold to rationals
    rec = find_record(RECORDS, "(24,n)")
    with pytest.raises(ParseError, match="exact rational") as err:
        instantiate(rec, n=5, params={"alpha": None})
    assert err.value.offset == rec.data["invariants"][0]["expr"].index("(alpha")  # its exponent


def test_formula_reads_bound_values_and_rejects_symbolic_names():
    env = {"n": F(5), "alpha": None}
    assert eval_formula("fact(n-1)/(n+1)", env) == 4
    with pytest.raises(UnknownIdentifierError):  # CLI exit 2, not an internal error
        eval_formula("alpha + 1", env)


def test_malformed_case_condition_raises():
    env = {"alpha": F(3), "n": F(5)}
    for cond in ("alpah = n-1", "alpha = n-", "alpha == n-1"):  # unknown name, bad syntax
        with pytest.raises(ParseError):
            check_condition(cond, env)
    assert not check_condition("alpha = n-1", env)
    unset = {"alpha": None, "n": F(5)}  # a symbolic alpha equals no one value
    assert not check_condition("alpha = n-1", unset)
    assert check_condition("alpha != n-1", unset)
    rec = find_record(RECORDS, "(24,n)")
    data = copy.deepcopy(rec.data)
    data["cases"][0]["when"] = ["alpah = n-1"]
    with pytest.raises(ParseError):
        instantiate(rec._replace(data=data), n=5, params={"alpha": 3})


def test_constraint_violations_are_named():
    rec = find_record(RECORDS, "(24,n+1)")
    with pytest.raises(ConstraintViolation) as err:
        instantiate(rec, n=5, params={"alpha": 4})
    assert "alpha" in str(err.value)
    rec = find_record(RECORDS, "(26,n+1)")
    with pytest.raises(ConstraintViolation):
        instantiate(rec, n=5, params={"K": 0})


def test_n_range_enforced():
    rec = find_record(RECORDS, "(28,n)")
    with pytest.raises(ConstraintViolation):
        instantiate(rec, n=5)


@pytest.mark.parametrize("label, n", [("(22,n)", 13), ("(23,n)", 13), ("(28,n)", 13),
                                      ("(28,n)", 40), ("(24,n+2)", 13), ("(9,1)", 14)] + [
    # an equation of order 13 whose rhs stays at or below the ceiling
    (label, 13) for label in ("(21,n+1)", "(23,n+2)", "(24,n+1)", "(25,n+1)", "(26,n+1)",
                              "(27,n+1)", "(28,n+1)", "(9,1)", "(10,2)", "(20,2)", "(22,2)",
                              "(A2.1,2)")] + [
    # 15 generators: a Lie determinant past the ceiling
    ("(25,n+2)", 13), ("(27,n+2)", 13)])
def test_orders_past_the_jet_ceiling_are_constraint_violations(label, n):
    # a builder's total derivative, a template's jet or an equation order
    # past MAX_JET_ORDER
    with pytest.raises(ConstraintViolation) as err:
        instantiate(find_record(RECORDS, label), n=n)
    assert str(err.value).startswith(f"{label}: order n={n} needs jets past")


def test_unknown_parameter_rejected():
    rec = find_record(RECORDS, "(24,n+1)")
    with pytest.raises(CatalogError):
        instantiate(rec, n=5, params={"beta": 1})


def test_h_choices_differ():
    variants = instantiate(find_record(RECORDS, "(22,2)"), n=4).equations[0].variants
    rhs_id, rhs_sq, rhs_one = (variants[h].rhs for h in ("identity", "square", "one"))
    assert rhs_id != rhs_sq and rhs_one == E.ONE
    s = E.jet(1).as_expr() + E.jet(2).as_expr() + E.jet(3).as_expr()
    assert rhs_id == s and rhs_sq == s ** 2


def _equation_templates(rec, con):
    """The rhs templates of the case `instantiate` selected."""
    content = dict(rec.data)
    for case in rec.data.get("cases", []):
        if "; ".join(case["when"]) == con.case_note:
            content.update(case)
            break
    return [eq["rhs"] for eq in content.get("equations", [])]


def test_one_instantiation_holds_every_h_variant():
    for rec in RECORDS:
        con = instantiate(rec)
        templates = _equation_templates(rec, con)
        assert len(templates) == len(con.equations), rec.label
        for tmpl, ce in zip(templates, con.equations):
            uses_h = "H(" in tmpl.replace(" ", "")
            want = {"identity", "square", "one"} if uses_h else {"identity"}
            assert set(ce.variants) == want, rec.label
            assert ce.uses_H == uses_h and ce.equation is ce.variants["identity"]
            assert len({eq.order for eq in ce.variants.values()}) == 1


def _groundings():
    """Every record at its default and secondary orders, every open-range
    family at lo..lo+5, and the records whose cases select on a parameter."""
    for rec in RECORDS:
        lo, hi = rec.data.get("n_range", [1, None])
        orders = {default_order(rec), secondary_order(rec)}
        if hi is None:
            orders |= set(range(lo, lo + 6))
        for n in sorted(filter(None, orders)):
            yield rec, n, None
    rec = find_record(RECORDS, "(24,n)")
    yield rec, 5, {"alpha": 4}  # alpha = n-1
    yield rec, 5, {"alpha": 3}  # alpha = n-2


def test_h_variants_match_one_parse_per_choice():
    cases = selected = builders = 0
    for rec, n, params in _groundings():
        con, want = per_choice_variants(rec, n, params)
        assert len(con.equations) == len(want), rec.label
        for ce, oracle in zip(con.equations, want):
            assert ce.variants.keys() == oracle.keys(), (rec.label, n)
            for h, eq in ce.variants.items():
                assert eq.order == oracle[h].order, (rec.label, n, h)
                assert eq.rhs._key == oracle[h].rhs._key, (rec.label, n, h)
                assert eq.rhs.terms == oracle[h].rhs.terms, (rec.label, n, h)
        cases += 1
        selected += bool(con.case_note)
        builders += bool(rec.data.get("builder"))
    assert selected >= 2 and builders >= 4 * 6 and cases > 100


def _with_rhs(label, rhs):
    rec = find_record(RECORDS, label)
    data = copy.deepcopy(rec.data)
    data["equations"] = [{"rhs": rhs}]
    return rec._replace(data=data)


@pytest.mark.parametrize("rhs", ["H(H(y) + x)", "y*H(y')^2 + exp(H(x))^3",
                                 "(1 + H(y, y'))^(-1/2) + H(x)*H(y)", "H(y, H(x)^2)^3"])
def test_nested_and_nonlinear_h_match_one_parse_per_choice(rhs):
    con, want = per_choice_variants(_with_rhs("(22,2)", rhs), 4)
    for h, eq in con.equations[0].variants.items():
        assert eq.rhs._key == want[0][h].rhs._key, h


@pytest.mark.parametrize("rhs", ["H(x + y + 1)^40", "H(x + 1)^1000000", "H(H(x + 1)^1000)",
                                 "(1 + H(x/3^3000))^(-5)", "exp((1 + H(x/3^3000))^(-5))"])
def test_h_variants_keep_the_parser_bounds(rhs):
    # each was a ParseError when every H choice was parsed on its own
    with pytest.raises(ParseError):
        instantiate(_with_rhs("(22,2)", rhs), n=4)


def test_equivalences_resolve_positive_names_through_the_parser():
    pos = {label: [p for _a, _b, p in instantiate(find_record(RECORDS, label)).equivalences]
           for label in ("(6,6)", "(28,6)", "(7,6)", "(16,6)")}
    assert pos == {"(6,6)": [frozenset({E.jet(2)})], "(28,6)": [frozenset({E.jet(3)})],
                   "(7,6)": [frozenset()], "(16,6)": [frozenset()]}


_PROSE = ("label", "metadata", "notes", "source")  # names and prose, not templates


def _strings(obj):
    if isinstance(obj, str):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _strings(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _strings(item)


def test_every_building_block_is_read_by_another_template():
    # a block no other template string names is dead data: a mutation of it
    # changes no check
    dead = []
    for rec in RECORDS:
        blocks = rec.data.get("building_blocks", {})
        for name in blocks:
            others = [v for k, v in rec.data.items() if k not in _PROSE + ("building_blocks",)]
            others += [text for other, text in blocks.items() if other != name]
            names = {m for s in _strings(others) for m in re.findall(r"[A-Za-z_]\w*", s)}
            if name not in names:
                dead.append((rec.label, name))
    assert dead == []


def test_builder_records_expose_blocks():
    con = instantiate(find_record(RECORDS, "(22,n)"), n=4)
    assert "u" in con.blocks and E.max_jet_order(con.blocks["u"]) == 3
    con = instantiate(find_record(RECORDS, "(23,n+2)"), n=4)
    assert "lin_rhs" in con.blocks
    assert len(con.fields) == 6


@pytest.mark.parametrize("n", range(4, 10))
def test_solution_chain_recovers_its_equation_exactly(n):
    # solutions 1, x, ..., x^(n-2), e^x span the kernel of y^(n) = y^(n-1)
    con = instantiate(find_record(RECORDS, "(21,n+1)"), n=n)
    assert con.blocks["lin_rhs"] == E.jet(n - 1).as_expr()
    assert con.equations[0].equation.rhs == E.jet(n - 1).as_expr()


def test_templates_parse_under_grammar_round_trip():
    # every stored invariant template reparses from its printed form
    from liesym.expr import format_expr

    for rec in RECORDS:
        con = instantiate(rec)
        for _order, phi in con.invariants:
            assert parse_expression(format_expr(phi), Context(
                params={k: None for k in con.params})) == phi


def test_manifest_mismatch_detected(tmp_path, monkeypatch):
    import json
    import shutil
    from liesym.catalog import data_dir

    dst = tmp_path / "data"
    shutil.copytree(data_dir(), dst)
    manifest = json.loads((dst / "manifest.json").read_text())
    manifest["labels"] = manifest["labels"][:-1]
    manifest["count"] -= 1
    (dst / "manifest.json").write_text(json.dumps(manifest))
    monkeypatch.setenv("LIESYM_CATALOG_DIR", str(dst))
    with pytest.raises(CatalogError):
        load_catalog()
