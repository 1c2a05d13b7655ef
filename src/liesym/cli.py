"""Command-line surface: liesym verify | prolong | liedet | count | catalog.

Exit codes: 0 pass, 1 verification failure (a check that raises is a failed
check) or a closed stdout (a pipe whose reader stopped, as `| head -1`;
nothing is printed), 2 usage or parse error, or generators with no exact
value at a rational point (count), 3 any other crash (internal error).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from .catalog import CatalogError, ConstraintViolation, find_record, instantiate, load_catalog
from .expr import format_expr
from .harness import run_verification
from .invariance import rank_and_count
from .jet import MAX_JET_ORDER, prolong
from .liedet import lie_determinant, singular_equations
from .numeric import DEFAULT_PROBE, ExactEvalError, ProbeConfig
from .parse import Context, ParseError, parse_vector_field


def _jet_order(text: str) -> int:
    order = int(text)
    if not 0 <= order <= MAX_JET_ORDER:
        raise argparse.ArgumentTypeError(f"order {order} outside 0..{MAX_JET_ORDER}")
    return order


def _workers(text: str) -> int:
    workers = int(text)
    if workers < 1:
        raise argparse.ArgumentTypeError(f"workers {workers} below 1")
    return workers


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes only the flags it reads."""
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=DEFAULT_PROBE.seed,
                      help="probe seed (default %(default)s)")
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--n", type=int, default=None,
                          help="instantiation order for family records")
    instance.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                          help="parameter override (repeatable); VALUE may be a "
                               "rational or a formula in n")
    p = argparse.ArgumentParser(prog="liesym",
                                description="symbolic verification of point-symmetry algebras of scalar ODEs")
    sub = p.add_subparsers(dest="command")

    v = sub.add_parser("verify", parents=[seed, instance],
                       help="run the catalog verification harness")
    v.add_argument("--points", type=int, default=DEFAULT_PROBE.points,
                   help="probe points per check (default %(default)s)")
    v.add_argument("--digits", type=int, default=DEFAULT_PROBE.digits,
                   help="working precision in decimal digits (default %(default)s)")
    v.add_argument("--out", type=str, default=None,
                   help="write the JSON report to this path")
    v.add_argument("--filter", type=str, default=None, help="label glob, e.g. '(5,5)' or '(2*'")
    v.add_argument("--workers", type=_workers, default=1, help="parallel worker processes")
    v.set_defaults(run=cmd_verify)

    pr = sub.add_parser("prolong", help="print prolongation coefficients of a vector field")
    pr.add_argument("field", type=str, help="e.g. 'x*Dx + a*y*Dy'")
    pr.add_argument("order", type=_jet_order)
    pr.set_defaults(run=cmd_prolong)

    ld = sub.add_parser("liedet", parents=[instance],
                        help="Lie determinant of a catalog algebra or explicit fields")
    ld.add_argument("target", type=str,
                    help="record label, or semicolon-separated vector fields")
    ld.set_defaults(run=cmd_liedet)

    ct = sub.add_parser("count", parents=[seed, instance],
                        help="invariant count d_n for a catalog algebra")
    ct.add_argument("label", type=str)
    ct.add_argument("--order", type=_jet_order, required=True)
    ct.set_defaults(run=cmd_count)

    cat = sub.add_parser("catalog", help="catalog inspection")
    cat.add_argument("action", choices=["list"])
    cat.set_defaults(run=cmd_catalog)
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
    try:
        probe = ProbeConfig(points=args.points, digits=args.digits, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:  # before the run, so that a bad path costs no verification
        out = open(args.out, "w") if args.out else nullcontext(sys.stdout)
    except OSError as exc:
        print(f"error: --out: {exc}", file=sys.stderr)
        return 2
    with out as fh:
        report = run_verification(filter_glob=args.filter, probe=probe,
                                  workers=args.workers, n_override=args.n,
                                  param_overrides=_parse_params(args.param) or None)
        if report.results:  # a report of no checks would read as a pass
            print(report.render(), file=fh)
    if not report.results:
        print("no records matched the filter", file=sys.stderr)
        return 2
    failures = [r for r in report.results if not r.passed]
    for r in failures:
        print(f"FAIL {r.record} {r.check} {r.detail}", file=sys.stderr)
    print(report.summary(), file=sys.stderr)
    return 0 if not failures else 1


def cmd_prolong(args) -> int:
    ctx = Context(auto_params=True)
    pf = prolong(parse_vector_field(args.field, ctx), args.order)
    for j, coeff in enumerate(pf.coeffs, start=1):
        print(f"eta[{j}] = {format_expr(coeff)}")
    return 0


def cmd_liedet(args) -> int:
    if "Dx" in args.target or "Dy" in args.target:
        ctx = Context(auto_params=True)
        fields = [parse_vector_field(chunk.strip(), ctx) for chunk in args.target.split(";")]
    else:
        fields = _instantiate_target(args.target, args).fields
    if not 2 <= len(fields) <= MAX_JET_ORDER + 2:
        print(f"error: a Lie determinant needs 2 to {MAX_JET_ORDER + 2} generators, "
              f"got {len(fields)}", file=sys.stderr)
        return 2
    res = lie_determinant(fields)
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
    rep = rank_and_count(con.fields, args.order, ProbeConfig(seed=args.seed))
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
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: stdout goes to devnull so the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParseError, ConstraintViolation, CatalogError, ExactEvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash is an internal error, not a failed check
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
