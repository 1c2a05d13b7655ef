"""An oracle for the H variants that `catalog.instantiate` grounds.

`instantiate` parses each equation's rhs once, with every `H(...)` call a
placeholder atom, and builds the variant of each H choice by substitution.
This module keeps the per-choice loop it replaced: the rhs parsed afresh
(`parse._parse`, past the parse memo) once per choice, with the choice itself
in the `H` slot, in the symbol table `instantiate` parsed it in.
"""

from fractions import Fraction

from liesym.catalog import H_CHOICES, check_condition, eval_formula, instantiate
from liesym.invariance import OdeEquation
from liesym.parse import Context, _parse


def per_choice_variants(record, n, params=None):
    """The grounded record and, per equation, its variants {h: OdeEquation}
    from one parse per H choice; H occurs when the text holds "H(" ."""
    con = instantiate(record, n=n, params=params)
    data = record.data
    overrides = dict(params or {})
    env = {"n": Fraction(n)}
    for name, formula in data.get("bound", {}).items():
        env[name] = eval_formula(overrides.pop(name, formula), env)
    env.update(con.params)
    content = dict(data)
    for case in data.get("cases", []):
        if all(check_condition(c, env) for c in case["when"]):
            content.update({k: v for k, v in case.items() if k != "when"})
            break
    out = []
    for eq in content.get("equations", []):
        order = int(eval_formula(eq.get("order", data.get("order", "n")), env))
        variants = {}
        for h in H_CHOICES if "H(" in eq["rhs"].replace(" ", "") else ("identity",):
            ctx = Context(params=dict(env), macros=dict(con.blocks),
                          functions={"H": H_CHOICES[h]})
            variants[h] = OdeEquation(order, _parse(eq["rhs"], ctx, False))
        out.append(variants)
    return con, out
