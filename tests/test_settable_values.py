"""A ratchet on the settable values of `src/` (ROADMAP aim 2).

Counted by the aim-2 rule: every parameter with a default and every
field with a default of a `typing.NamedTuple` or a dataclass (an AST scan
of `src/`), every optional flag of `build_parser()` once per subcommand
that takes it, and every read of `os.environ`.  The count may fall, never
grow: when it falls, lower `RECORDED` here and in ROADMAP aim 2.
"""

import argparse
import ast
from pathlib import Path

from liesym.cli import build_parser

SRC = Path(__file__).resolve().parents[1] / "src"
RECORDED = 41  # ROADMAP aim 2


def _names(nodes) -> set:
    """The names that decorators or base classes refer to, as `dataclass`
    for both `dataclass` and `dataclasses.dataclass(...)`."""
    out = set()
    for d in nodes:
        d = d.func if isinstance(d, ast.Call) else d
        if isinstance(d, ast.Name):
            out.add(d.id)
        elif isinstance(d, ast.Attribute):
            out.add(d.attr)
    return out


def _declares_fields(node: ast.ClassDef) -> bool:
    """A dataclass or a `typing.NamedTuple`: its annotated class-body
    assignments are fields with defaults."""
    return "dataclass" in _names(node.decorator_list) or "NamedTuple" in _names(node.bases)


def source_values() -> list:
    """`file:owner.name` of each defaulted parameter and field, and
    `file:line` of each environment read."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a, owner = node.args, getattr(node, "name", "<lambda>")
                positional = a.posonlyargs + a.args
                defaulted = positional[len(positional) - len(a.defaults):]
                defaulted += [k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                found += [f"{where}:{owner}.{arg.arg}" for arg in defaulted]
            elif isinstance(node, ast.ClassDef) and _declares_fields(node):
                found += [f"{where}:{node.name}.{st.target.id}" for st in node.body
                          if isinstance(st, ast.AnnAssign) and st.value is not None]
            elif isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                found.append(f"{where}:{node.lineno} os.{node.attr}")
    return found


def cli_flags() -> list:
    """`subcommand --flag` for each optional flag each subcommand takes."""
    found = []
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found += [f"{name} {a.option_strings[0]}" for a in sub._actions
                          if a.option_strings and not isinstance(a, argparse._HelpAction)]
    return found


def test_settable_values_do_not_grow():
    values = source_values() + cli_flags()
    assert len(values) <= RECORDED, "\n".join(values)


def test_the_scan_sees_each_kind_of_value():
    values = source_values()
    assert "liesym/harness.py:run_verification.workers" in values
    assert "liesym/numeric.py:_ProbeFields.seed" in values
    assert any("os.environ" in v for v in values)
    flags = cli_flags()
    assert {"verify --seed", "count --seed", "count --order"} <= set(flags)
    assert not any(f.startswith("prolong ") for f in flags)
