"""Command-line surface: liesym verify | prolong | liedet | count | catalog.

Exit codes: 0 pass, 1 verification failure (a check that raises is a failed
check), 2 usage or parse error, 3 any other crash (internal error).
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import CatalogError, ConstraintViolation, find_record, instantiate, load_catalog
from .expr import format_expr
from .harness import run_verification
from .invariance import rank_and_count
from .jet import VectorField, prolong
from .liedet import lie_determinant, singular_equations
from .numeric import ProbeConfig
from .parse import Context, ParseError, parse_vector_field


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=20240101,
                        help="probe seed (default 20240101)")
    common.add_argument("--points", type=int, default=20,
                        help="probe points per check (default 20)")
    common.add_argument("--digits", type=int, default=50,
                        help="working precision in decimal digits (default 50)")
    common.add_argument("--out", type=str, default=None,
                        help="write the JSON report to this path")
    common.add_argument("--n", type=int, default=None,
                        help="instantiation order for family records")
    common.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                        help="parameter override (repeatable); VALUE may be a "
                             "rational or a formula in n")
    p = argparse.ArgumentParser(prog="liesym",
                                description="symbolic verification of point-symmetry algebras of scalar ODEs")
    sub = p.add_subparsers(dest="command")

    v = sub.add_parser("verify", parents=[common],
                       help="run the catalog verification harness")
    v.add_argument("--filter", type=str, default=None, help="label glob, e.g. '(5,5)' or '(2*'")
    v.add_argument("--workers", type=int, default=1, help="parallel worker processes")

    pr = sub.add_parser("prolong", parents=[common],
                        help="print prolongation coefficients of a vector field")
    pr.add_argument("field", type=str, help="e.g. 'x*Dx + a*y*Dy'")
    pr.add_argument("order", type=int)

    ld = sub.add_parser("liedet", parents=[common],
                        help="Lie determinant of a catalog algebra or explicit fields")
    ld.add_argument("target", type=str,
                    help="record label, or semicolon-separated vector fields")

    ct = sub.add_parser("count", parents=[common],
                        help="invariant count d_n for a catalog algebra")
    ct.add_argument("label", type=str)
    ct.add_argument("--order", type=int, required=True)

    cat = sub.add_parser("catalog", parents=[common], help="catalog inspection")
    cat.add_argument("action", choices=["list"])
    return p


def _parse_params(pairs):
    out = {}
    for item in pairs:
        if "=" not in item:
            raise ParseError(f"--param expects NAME=VALUE, got {item!r}", 0)
        name, value = item.split("=", 1)
        out[name.strip()] = value.strip()
    return out


def _instantiate_target(label: str, args):
    records = load_catalog()
    rec = find_record(records, label)
    return instantiate(rec, n=args.n, params=_parse_params(args.param))


def cmd_verify(args) -> int:
    probe = ProbeConfig(points=args.points, digits=args.digits, seed=args.seed)
    report = run_verification(filter_glob=args.filter, probe=probe,
                              workers=args.workers, n_override=args.n,
                              param_overrides=_parse_params(args.param) or None)
    text = report.render()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if not report.results:
        print("no records matched the filter", file=sys.stderr)
        return 2
    failures = [r for r in report.results if not r.passed]
    for r in failures:
        print(f"FAIL {r.record} {r.check} {r.detail}", file=sys.stderr)
    return 0 if not failures else 1


def cmd_prolong(args) -> int:
    ctx = Context(auto_params=True)
    xi, eta = parse_vector_field(args.field, ctx)
    pf = prolong(VectorField(xi, eta, "X"), args.order)
    for j, coeff in enumerate(pf.coeffs, start=1):
        print(f"eta[{j}] = {format_expr(coeff)}")
    return 0


def cmd_liedet(args) -> int:
    if "Dx" in args.target or "Dy" in args.target:
        ctx = Context(auto_params=True)
        fields = []
        for chunk in args.target.split(";"):
            xi, eta = parse_vector_field(chunk.strip(), ctx)
            fields.append(VectorField(xi, eta, f"X{len(fields)+1}"))
        label = "<fields>"
    else:
        con = _instantiate_target(args.target, args)
        fields, label = con.fields, args.target
    res = lie_determinant(fields, label)
    print(f"matrix order: {res.matrix_order}")
    print(f"determinant: {format_expr(res.determinant)}")
    print(f"prefactor: {format_expr(res.constant_prefactor)}")
    for f, m in res.factors:
        print(f"factor: ({format_expr(f)})^{m}")
    for s in singular_equations(res):
        if s.equation is not None:
            print(f"singular equation (order {s.order}): "
                  f"y^({s.order}) = {format_expr(s.equation.rhs)}")
        else:
            print(f"singular locus ({s.kind}): {format_expr(s.factor)} = 0")
    return 0


def cmd_count(args) -> int:
    con = _instantiate_target(args.label, args)
    probe = ProbeConfig(points=args.points, digits=args.digits, seed=args.seed)
    rep = rank_and_count(con.fields, args.order, probe)
    print(json.dumps({"record": args.label, "order": rep.order,
                      "rank": rep.rank_rn, "count": rep.count_dn}, sort_keys=True))
    return 0


def cmd_catalog(args) -> int:
    for rec in sorted(load_catalog(), key=lambda r: r.label):
        dim = rec.data.get("dimension", "?")
        print(f"{rec.label:12} dim={dim:6} {rec.notes[:70]}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help()
        return 2
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "prolong":
            return cmd_prolong(args)
        if args.command == "liedet":
            return cmd_liedet(args)
        if args.command == "count":
            return cmd_count(args)
        if args.command == "catalog":
            return cmd_catalog(args)
        parser.error(f"unknown command {args.command}")
    except (ParseError, ConstraintViolation, CatalogError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash is an internal error, not a failed check
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
