"""Batch verification over the catalog: one check table and one runner,
assembling a deterministic machine-readable report.

The table is `plan_checks`, which yields each check of a record at an order
n as (check, detail, params, thunk).  Check kinds, in plan order:

* ``instantiate`` -- the sole, failed row when the record cannot be grounded;
* ``worker``     -- the sole, failed row of a record whose worker process
                    dies also when the record runs alone in a pool of its
                    own (several workers only);
* ``equation``   -- prolonged invariance of each canonical equation, under
                    three arbitrary-function instantiations where one occurs;
* ``invariant``  -- annihilation of each stored differential invariant;
* ``lambda``     -- the defining PDE of the invariant-differentiation factor;
* ``closure``    -- D(phi1) is again annihilated;
* ``lie_det``    -- determinant matches the stored closed form up to the
                    row-parity sign, reassembles from its factors, and the
                    expected singular factors appear;
* ``singular``   -- each solved singular equation is invariant;
* ``rank``       -- d_{m-1} = 1 and d_m = 2 at generic points;
* ``equivalence`` -- alternative presentations agree;
* ``extra_symmetry``/``generator_probe`` -- exceptional-parameter
                    discrimination (a field or weight is admitted exactly at
                    the stated parameter value).

The runner, `run_record_checks`, gives each check one seed,
``derive_seed(seed, record, n, check, detail)``: the thunk probes with it and
the report shows it.  A check that raises any exception is a failed check,
reported once, whose sole verdict is ``"<ExceptionType>: <message>"``.
"""

from __future__ import annotations

import fnmatch
import json
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from functools import partial
from fractions import Fraction
from typing import List, Optional

from .catalog import (
    H_CHOICES,
    CatalogRecord,
    default_order,
    eval_formula,
    find_record,
    instantiate,
    load_catalog,
    secondary_order,
)
from .invariance import check_differential_invariant, check_equation_invariance, rank_and_count
from .invdiff import apply_D, verify_lambda
from .jet import MAX_JET_ORDER, VectorField
from .liedet import lie_determinant, singular_equations
from .numeric import DEFAULT_PROBE, ProbeConfig, ZeroStatus, derive_seed, is_zero
from .parse import Context, parse_vector_field


@dataclass
class CheckResult:
    record: str
    check: str
    detail: str
    n: int
    params: dict
    seed: int
    passed: bool
    verdicts: list
    elapsed_ms: int
    note: str = ""

    def to_json(self) -> dict:
        out = {
            "record": self.record,
            "check": self.check,
            "detail": self.detail,
            "instantiation": {"n": self.n, "params": self.params, "seed": self.seed},
            "pass": self.passed,
            "verdicts": self.verdicts,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class VerificationReport:
    seed: int
    probe_points: int
    probe_digits: int
    results: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "points": self.probe_points,
            "digits": self.probe_digits,
            "pass": self.passed,
            "checks": [r.to_json() for r in self.results],
        }

    def render(self) -> str:
        return json.dumps(self.to_json(), indent=1, sort_keys=True)

    def summary(self) -> str:
        """One line: checks and failures, verdicts by status, and the five
        slowest checks."""
        statuses = Counter(v["status"] for r in self.results for v in r.verdicts
                           if isinstance(v, dict) and "status" in v)
        slowest = sorted(self.results, key=lambda r: -r.elapsed_ms)[:5]
        failed = sum(not r.passed for r in self.results)
        return (f"{len(self.results)} checks, {failed} failed; verdicts: "
                + ", ".join(f"{s.value} {statuses[s.value]}" for s in ZeroStatus)
                + "; slowest: "
                + ", ".join(" ".join(filter(None, (r.record, r.check, r.detail)))
                            + f" {r.elapsed_ms} ms" for r in slowest))


def _params_json(params: dict) -> dict:
    out = {}
    for k, v in params.items():
        out[k] = None if v is None else f"{Fraction(v)}"
    return out


def run_record_checks(rec: CatalogRecord, probe: ProbeConfig,
                      n_override: Optional[int] = None,
                      param_overrides: Optional[dict] = None) -> List[CheckResult]:
    """Run every planned check of `rec`, one seed and one row per check."""
    out: List[CheckResult] = []
    orders = [n_override] if n_override is not None else \
        [o for o in (default_order(rec), secondary_order(rec)) if o is not None]
    for n in orders:
        for check, detail, params, thunk in plan_checks(rec, n, param_overrides):
            seed = derive_seed(probe.seed, rec.label, n, check, detail)
            t0 = time.time()
            try:
                passed, verdicts, note = thunk(replace(probe, seed=seed))
            except Exception as exc:  # a raising check is a failed check
                passed, verdicts, note = False, [f"{type(exc).__name__}: {exc}"], ""
            out.append(CheckResult(rec.label, check, detail, n, _params_json(params), seed,
                                   passed, verdicts, int((time.time() - t0) * 1000), note))
    return out


def plan_checks(rec: CatalogRecord, n: int, param_overrides: Optional[dict]):
    """Yield (check, detail, params, thunk) for every check of `rec` at order n.

    A thunk maps the check's ProbeConfig to (passed, verdicts, note).  Run
    each thunk before taking the next entry: the `singular` checks come from
    the `lie_det` thunk's result, and a thunk that instantiates its own
    variant of the record fills in `params`."""
    try:
        con = instantiate(rec, n=n, params=param_overrides)
    except Exception as exc:
        yield "instantiate", "", {}, partial(_reraise, exc)
        return

    # equations, under every H choice when an arbitrary function occurs
    uses_h = any(ce.uses_H for ce in con.equations)
    for h in H_CHOICES if uses_h else ("identity",):
        try:
            con_h = con if h == "identity" else \
                instantiate(rec, n=n, params=param_overrides, h_choice=h)
        except Exception as exc:
            yield "equation", f"H={h}", {}, partial(_reraise, exc)
            continue
        for i, ce in enumerate(con_h.equations, 1):
            if ce.uses_H or h == "identity":
                detail = f"eq{i}@{ce.equation.order}" + (f" H={h}" if ce.uses_H else "")
                yield "equation", detail, con_h.params, partial(
                    _verdicts, check_equation_invariance, con_h.fields, ce.equation)

    for i, (order, phi) in enumerate(con.invariants, 1):
        yield "invariant", f"phi{i}@{order}", con.params, partial(
            _verdicts, check_differential_invariant, con.fields, phi)

    if con.lam is not None:
        yield "lambda", "", con.params, partial(_verdicts, verify_lambda, con.fields, con.lam)
        if con.invariants and con.invariants[0][0] < MAX_JET_ORDER:
            detail = f"D(phi)@{con.invariants[0][0] + 1}"
            yield "closure", detail, con.params, partial(_closure, con)

    if con.lie_det_expected is not None or con.singular_factors:
        singular: list = []
        yield "lie_det", "", con.params, partial(_lie_det, con, singular)
        for eq in singular:
            yield "singular", f"singular@{eq.order}", con.params, partial(
                _verdicts, check_equation_invariance, con.fields, eq)

    if con.fundamental_check:
        for order, want_d in ((con.dimension - 1, 1), (con.dimension, 2)):
            if order <= MAX_JET_ORDER:
                yield "rank", f"d@{order}", con.params, partial(_rank, con.fields, order, want_d)

    for i, (ea, eb, pos) in enumerate(con.equivalences, 1):
        yield "equivalence", f"pair{i}", con.params, partial(_equivalence, ea, eb, pos)

    # exceptional-parameter discrimination: an extra field is admitted
    # exactly at the stated parameter value
    for i, spec in enumerate(con.extra_symmetries, 1):
        for values, expect_zero in ((spec.get("zero_at"), True),
                                    (spec.get("nonzero_at"), False)):
            if values:
                detail = f"extra{i} {spec['field']} @ " + \
                    ",".join(f"{k}={v}" for k, v in values.items())
                params: dict = {}
                yield "extra_symmetry", detail, params, partial(
                    _extra_symmetry, rec, n, spec["field"], values, params, expect_zero)

    # bound-parameter discrimination: the stated generator weight is the
    # only one admitting the equation
    for i, spec in enumerate(con.generator_probes, 1):
        for formula, expect_zero in ((spec.get("zero_at"), True),
                                     (spec.get("nonzero_at"), False)):
            if formula is not None:
                params = {}
                yield "generator_probe", f"probe{i} {spec['param']}={formula}", params, \
                    partial(_generator_probe, rec, n, spec["param"], formula, params,
                            expect_zero)


def _reraise(exc, probe):
    raise exc


def _verdicts(check, fields, target, probe, expect_zero=True):
    """check(fields, target, probe) passes when every verdict is zero, or,
    with expect_zero off, when some verdict is not."""
    verdicts = check(fields, target, probe)
    return (all(v.is_zero for v in verdicts) == expect_zero,
            [v.to_json() for v in verdicts], "")


def _closure(con, probe):
    dphi = apply_D(con.lam, con.invariants[0][1])
    return _verdicts(check_differential_invariant, con.fields, dphi, probe)


def _lie_det(con, singular: list, probe):
    """Determinant against the stored form, factors and singular factors;
    collects the solved singular equations below the top order in `singular`."""
    res = lie_determinant(con.fields)
    notes, problems = [], []
    if con.lie_det_expected is not None:
        if is_zero(res.determinant - con.lie_det_expected, probe).is_zero:
            notes.append("sign +")
        elif is_zero(res.determinant + con.lie_det_expected, probe).is_zero:
            notes.append("sign -")
        else:
            problems.append("determinant does not match the stored form")
    if not (res.reassembled() - res.determinant).is_zero_expr():
        problems.append("factor reassembly failed")
    problems += [f"expected singular factor missing: {want}" for want in con.singular_factors
                 if not any(is_zero(want - f, probe).is_zero or is_zero(want + f, probe).is_zero
                            for f, _m in res.factors)]
    singular.extend(s.equation for s in singular_equations(res)
                    if s.equation is not None and s.equation.order < MAX_JET_ORDER)
    return not problems, [], "; ".join(notes + problems)


def _rank(fields, order, want_d, probe):
    rep = rank_and_count(fields, order, probe)
    return rep.count_dn == want_d, [rep.to_json()], ""


def _equivalence(ea, eb, positive, probe):
    v = is_zero(ea - eb, probe, positive=positive)
    return v.is_zero, [v.to_json()], ""


def _extra_symmetry(rec, n, field, values, params, expect_zero, probe):
    con_v = instantiate(rec, n=n, params=values, enforce_constraints=False)
    params.update(con_v.params)
    xi, eta = parse_vector_field(field, Context(params={"n": Fraction(n), **con_v.params}))
    return _verdicts(check_equation_invariance, [VectorField(xi, eta)],
                     con_v.equations[0].equation, probe, expect_zero)


def _generator_probe(rec, n, param, formula, params, expect_zero, probe):
    value = eval_formula(formula, {"n": Fraction(n)})
    con_v = instantiate(rec, n=n, bound_overrides={param: value})
    params.update(con_v.params)
    return _verdicts(check_equation_invariance, con_v.fields,
                     con_v.equations[0].equation, probe, expect_zero)


def _worker(args):
    label, probe, n_override, params = args
    records = load_catalog()
    rec = find_record(records, label)
    return run_record_checks(rec, probe, n_override, params)


def _worker_died(rec: CatalogRecord, probe: ProbeConfig, n_override: Optional[int],
                 exc: BrokenProcessPool) -> CheckResult:
    """The failed row of a record whose worker died before returning."""
    n = n_override if n_override is not None else default_order(rec)
    return CheckResult(rec.label, "worker", "", n, {},
                       derive_seed(probe.seed, rec.label, n, "worker", ""), False,
                       [f"{type(exc).__name__}: {exc}"], 0)


def _pool_results(jobs: list, workers: int) -> list:
    """Each job's rows from a pool of `workers` processes, or the
    BrokenProcessPool its future raised."""
    out = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for fut in [pool.submit(_worker, job) for job in jobs]:
            try:
                out.append(fut.result())
            except BrokenProcessPool as exc:
                out.append(exc)
    return out


def run_verification(filter_glob: Optional[str] = None,
                     probe: ProbeConfig = DEFAULT_PROBE,
                     workers: int = 1,
                     n_override: Optional[int] = None,
                     param_overrides: Optional[dict] = None) -> VerificationReport:
    records = load_catalog()
    chosen = [r for r in records
              if filter_glob is None or fnmatch.fnmatch(r.label, filter_glob)]
    chosen.sort(key=lambda r: r.label)
    results: List[CheckResult] = []
    if workers > 1:
        jobs = [(r.label, probe, n_override, param_overrides) for r in chosen]
        for rec, job, rows in zip(chosen, jobs, _pool_results(jobs, workers)):
            # a broken pool fails every pending job: rerun each on its own
            if isinstance(rows, BrokenProcessPool):
                rows, = _pool_results([job], 1)
            if isinstance(rows, BrokenProcessPool):
                results.append(_worker_died(rec, probe, n_override, rows))
            else:
                results.extend(rows)
    else:
        for rec in chosen:
            results.extend(run_record_checks(rec, probe, n_override, param_overrides))
    results.sort(key=lambda r: (r.record, r.n, r.check, r.detail))
    return VerificationReport(probe.seed, probe.points, probe.digits, results)
