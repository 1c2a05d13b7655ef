"""Batch verification over the catalog: one runner that runs each check as
it plans it, assembling a deterministic machine-readable report.

`run_record_checks` runs the checks of a record at an order n in this order:

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

Each check runs through one local `run`, which gives it one seed,
``derive_seed(seed, record, n, check, detail)``: the check probes with it and
the report shows it.  A check that raises any exception is a failed check,
reported once, whose sole verdict is ``"<ExceptionType>: <message>"``.  A row
planned from an earlier one reads what `run` returns: the `singular` rows are
the solved singular equations the `lie_det` check gives back.  An
``extra_symmetry`` or ``generator_probe`` row reports the parameters of the
variant it grounds before it runs; a variant that cannot be grounded gives
one failed row with no parameters, as a record that cannot be grounded does.

`run_verification` takes the records longest first by a static cost key,
`_job_cost` (the size of the record's JSON template times its number of
planned orders; ties by label), and submits the pool jobs in that order:
longest-processing-time-first list scheduling (Graham 1969), so `(7,6)`,
about a fifth of the summed check time, starts at once.  The checks grow
with the number and length of the stored equations, invariants and
fields, so the template size stands in for the work: on the catalog this
key gives a 2-worker makespan within 0.5% of the order by measured check
time, with no timing file or setting.  The report rows are sorted at the end, so the
report does not depend on the order.
"""

from __future__ import annotations

import fnmatch
import json
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from typing import List, NamedTuple, Optional

from .catalog import (
    H_CHOICES,
    CatalogRecord,
    default_order,
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


class CheckResult(NamedTuple):
    record: str
    check: str
    detail: str
    n: int
    params: dict
    seed: int
    passed: bool
    verdicts: list
    elapsed_ms: int
    note: str

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


class VerificationReport(NamedTuple):
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
    """Run every check of `rec` as it is planned, one seed and one row per
    check, in the plan order of the module docstring."""
    out: List[CheckResult] = []

    def run(check, detail, params, fn, *args) -> list:
        """Append the row of fn(*args, probe at the check's seed) -> (passed,
        verdicts, note, *extra) under `params`; return the extra results, none
        when fn raises."""
        seed = derive_seed(probe.seed, rec.label, n, check, detail)
        t0 = time.perf_counter()
        try:
            passed, verdicts, note, *extra = fn(*args, probe._replace(seed=seed))
        except Exception as exc:  # a raising check is a failed check
            passed, verdicts, note, extra = False, [f"{type(exc).__name__}: {exc}"], "", []
        out.append(CheckResult(rec.label, check, detail, n, _params_json(params), seed,
                               passed, verdicts, int((time.perf_counter() - t0) * 1000), note))
        return extra

    for n in _planned_orders(rec, n_override):
        try:
            con = instantiate(rec, n=n, params=param_overrides)
        except Exception as exc:
            run("instantiate", "", {}, _reraise, exc)
            continue

        # equations, under every H choice when an arbitrary function occurs
        for h in H_CHOICES:
            for i, ce in enumerate(con.equations, 1):
                if h in ce.variants:
                    eq = ce.variants[h]
                    run("equation", f"eq{i}@{eq.order}" + (f" H={h}" if ce.uses_H else ""),
                        con.params, _verdicts, check_equation_invariance, con.fields, eq, True)
        for i, (order, phi) in enumerate(con.invariants, 1):
            run("invariant", f"phi{i}@{order}", con.params, _verdicts,
                check_differential_invariant, con.fields, phi, True)
        if con.lam is not None:
            run("lambda", "", con.params, _verdicts, verify_lambda, con.fields, con.lam, True)
            if con.invariants and con.invariants[0][0] < MAX_JET_ORDER:
                run("closure", f"D(phi)@{con.invariants[0][0] + 1}", con.params, _closure, con)
        if con.lie_det_expected is not None or con.singular_factors:
            for eq in run("lie_det", "", con.params, _lie_det, con):
                run("singular", f"singular@{eq.order}", con.params, _verdicts,
                    check_equation_invariance, con.fields, eq, True)
        if con.fundamental_check:
            for order, want_d in ((con.dimension - 1, 1), (con.dimension, 2)):
                if order <= MAX_JET_ORDER:
                    run("rank", f"d@{order}", con.params, _rank_count, con.fields, order, want_d)
        for i, (ea, eb, pos) in enumerate(con.equivalences, 1):
            run("equivalence", f"pair{i}", con.params, _equivalence, ea, eb, pos)

        # exceptional-parameter discrimination: an extra field, or the
        # record's own fields at a generator weight, admit the first equation
        # exactly at the stated parameter value
        for i, spec in [*enumerate(con.extra_symmetries, 1), *enumerate(con.generator_probes, 1)]:
            field = spec.get("field")  # None for a generator probe
            for side, expect_zero in (("zero_at", True), ("nonzero_at", False)):
                if spec.get(side) is None:
                    continue
                if field:
                    check, values = "extra_symmetry", spec[side]
                    detail = f"extra{i} {field} @ " + ",".join(
                        f"{k}={v}" for k, v in values.items())
                else:
                    check, values = "generator_probe", {spec["param"]: spec[side]}
                    detail = f"probe{i} {spec['param']}={spec[side]}"
                try:
                    con_v = instantiate(rec, n=n, params=values)
                except Exception as exc:
                    run(check, detail, {}, _reraise, exc)
                    continue
                run(check, detail, con_v.params, _discrimination, con_v, field, expect_zero)
    return out


def _planned_orders(rec: CatalogRecord, n_override: Optional[int]) -> List[int]:
    """The orders at which `run_record_checks` checks `rec`."""
    if n_override is not None:
        return [n_override]
    return [o for o in (default_order(rec), secondary_order(rec)) if o is not None]


def _reraise(exc, probe):
    raise exc


def _verdicts(check, fields, target, expect_zero, probe):
    """check(fields, target, probe) passes when every verdict is zero, or,
    with expect_zero off, when some verdict is not."""
    verdicts = check(fields, target, probe)
    return (all(v.is_zero for v in verdicts) == expect_zero,
            [v.to_json() for v in verdicts], "")


def _closure(con, probe):
    dphi = apply_D(con.lam, con.invariants[0][1])
    return _verdicts(check_differential_invariant, con.fields, dphi, True, probe)


def _lie_det(con, probe):
    """Determinant against the stored form, factors and singular factors;
    gives back the solved singular equations below the top order."""
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
    return (not problems, [], "; ".join(notes + problems),
            *(s.equation for s in singular_equations(res)
              if s.equation is not None and s.equation.order < MAX_JET_ORDER))


def _rank_count(fields, order, want_d, probe):
    rep = rank_and_count(fields, order, probe)
    return rep.count_dn == want_d, [rep.to_json()], ""


def _equivalence(ea, eb, positive, probe):
    v = is_zero(ea - eb, probe, positive=positive)
    return v.is_zero, [v.to_json()], ""


def _discrimination(con_v, field, expect_zero, probe):
    """Verdicts on the first equation of the grounded variant `con_v` under
    the extra `field`, or under its own fields when `field` is None."""
    fields = con_v.fields if field is None else [VectorField(*parse_vector_field(
        field, Context(params={"n": Fraction(con_v.n), **con_v.params})))]
    return _verdicts(check_equation_invariance, fields, con_v.equations[0].equation,
                     expect_zero, probe)


def _worker(args):
    """One pool job: the rows of one record, from run_record_checks' arguments."""
    return run_record_checks(*args)


def _worker_died(rec: CatalogRecord, probe: ProbeConfig, n_override: Optional[int],
                 exc: BrokenProcessPool) -> CheckResult:
    """The failed row of a record whose worker died before returning."""
    n = n_override if n_override is not None else default_order(rec)
    return CheckResult(rec.label, "worker", "", n, {},
                       derive_seed(probe.seed, rec.label, n, "worker", ""), False,
                       [f"{type(exc).__name__}: {exc}"], 0, "")


def _pool_results(jobs: list, workers: int) -> list:
    """Each job's rows from a pool of at most `workers` processes, or the
    BrokenProcessPool its future raised."""
    out = []
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        for fut in [pool.submit(_worker, job) for job in jobs]:
            try:
                out.append(fut.result())
            except BrokenProcessPool as exc:
                out.append(exc)
    return out


def _job_cost(rec: CatalogRecord, n_override: Optional[int]) -> int:
    """The static cost key of a record's job: its template size times its
    number of planned orders (see the module docstring)."""
    return len(json.dumps(rec.data, sort_keys=True)) * len(_planned_orders(rec, n_override))


def run_verification(filter_glob: Optional[str] = None,
                     probe: ProbeConfig = DEFAULT_PROBE,
                     workers: int = 1,
                     n_override: Optional[int] = None,
                     param_overrides: Optional[dict] = None) -> VerificationReport:
    records = load_catalog()
    chosen = [r for r in records
              if filter_glob is None or fnmatch.fnmatch(r.label, filter_glob)]
    chosen.sort(key=lambda r: (-_job_cost(r, n_override), r.label))
    results: List[CheckResult] = []
    if workers > 1 and chosen:
        jobs = [(r, probe, n_override, param_overrides) for r in chosen]
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
