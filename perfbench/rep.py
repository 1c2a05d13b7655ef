"""One repetition of one benchmark workload, in a fresh process.

    python3 perfbench/rep.py --workload catalog --seed 1 [--workers N]
        [--records GLOB] [--trace-out PATH] [--setup-only]

Imports liesym from the checkout's `src/`, times the set-up (import plus
`load_catalog()`), runs the workload through the public API and prints one
JSON object: times, resource use, the outcome of every check, and a digest
of the verdicts with the timing fields stripped.  Every process of the
repetition, pool workers included, samples the host's speed (speed.py);
wall_s, cpu_s and setup_s are given at the reference speed, and the raw
times as wall_raw_s, cpu_raw_s and setup_raw_s.  With --trace-out the
public functions are wrapped first (see tracer.py), the spans are written
to PATH, and per-function totals and counts are added to the output.
"""

from __future__ import annotations

import argparse
import fnmatch
import functools
import hashlib
import json
import multiprocessing
import os
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

from speed import Sampler

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

FAMILY_ORDERS = 6  # lo .. lo+5


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _statuses(verdicts) -> list:
    return [v["status"] for v in verdicts if isinstance(v, dict) and "status" in v]


def _from_results(results) -> tuple:
    """Check rows and the timing-stripped report body of harness results."""
    rows, body = [], []
    for r in results:
        j = r.to_json()
        rows.append({"record": r.record, "n": r.n, "check": r.check,
                     "detail": r.detail, "outcome": "pass" if r.passed else "fail",
                     "statuses": _statuses(j["verdicts"]), "s": r.elapsed_ms / 1000})
        j.pop("elapsed_ms")
        body.append(j)
    return rows, body


def _raised(record, n, check, exc, t0) -> dict:
    return {"record": record, "n": n, "check": check,
            "detail": f"{type(exc).__name__}: {exc}", "outcome": "error",
            "statuses": [], "s": time.perf_counter() - t0}


POOL_SLOTS = 64  # pool worker processes one repetition can record


def sample_pool_workers(shared):
    """Make each harness pool job sample the speed of its worker process.

    `shared` is a shared array: shared[0] counts the workers seen, and
    worker i adds up its jobs' reference-speed and raw CPU seconds in
    shared[1 + 3*i] and shared[2 + 3*i] and stores the perf_counter time its
    latest job ended in shared[3 + 3*i].  The pool pickles
    `liesym.harness._worker` by name, so the wrapper takes its place under
    that name before the workers fork.
    """
    import liesym.harness as harness

    inner = harness._worker
    mine: dict = {}  # pid -> (slot, Sampler); timers are not inherited by fork

    @functools.wraps(inner)
    def _worker(args):
        if os.getpid() not in mine:
            with shared.get_lock():
                slot = int(shared[0])
                shared[0] += 1
            mine.clear()
            mine[os.getpid()] = slot, Sampler().start()
        slot, sampler = mine[os.getpid()]
        a = sampler.mark()
        try:
            return inner(args)
        finally:
            ref, raw = sampler.totals(a, sampler.mark())
            with shared.get_lock():
                shared[1 + 3 * slot] += ref
                shared[2 + 3 * slot] += raw
                shared[3 + 3 * slot] = time.perf_counter()

    harness._worker = _worker


def pool_workers(shared) -> list:
    """(reference-speed CPU s, raw CPU s, end time) of each pool worker."""
    return [tuple(shared[1 + 3 * i:4 + 3 * i]) for i in range(int(shared[0]))]


def run_catalog(seed, workers, records_glob):
    from liesym.harness import run_verification
    from liesym.numeric import ProbeConfig

    probe = ProbeConfig(seed=seed)
    t0 = time.perf_counter()
    try:
        report = run_verification(filter_glob=records_glob, probe=probe, workers=workers)
    except Exception as exc:  # a crash is a failed run, reported as one check
        row = _raised("*", 0, "run_verification", exc, t0)
        return [row], [row["detail"]]
    rows, body = _from_results(report.results)
    return rows, {"seed": report.seed, "pass": report.passed, "checks": body}


def family_records(records, records_glob):
    """Records whose n_range is open above, sorted by label."""
    return sorted((r for r in records
                   if r.data.get("n_range", [1, None])[1] is None
                   and fnmatch.fnmatch(r.label, records_glob or "*")),
                  key=lambda r: r.label)


def run_families(seed, records_glob):
    from liesym.catalog import load_catalog
    from liesym.harness import run_record_checks
    from liesym.numeric import ProbeConfig

    probe = ProbeConfig(seed=seed)
    rows, body = [], []
    for rec in family_records(load_catalog(), records_glob):
        lo = rec.data["n_range"][0]
        for n in range(lo, lo + FAMILY_ORDERS):
            t0 = time.perf_counter()
            try:
                results = run_record_checks(rec, probe, n_override=n)
            except Exception as exc:  # counted as one failed check
                rows.append(_raised(rec.label, n, "run_record_checks", exc, t0))
                body.append(rows[-1]["detail"])
                continue
            r_rows, r_body = _from_results(results)
            rows += r_rows
            body += r_body
    return rows, body


def perturbation(rng: random.Random) -> Fraction:
    """A nonzero rational c = ±p/q with 1 <= p, q <= 97."""
    c = Fraction(rng.randint(1, 97), rng.randint(1, 97))
    return c if rng.random() < 0.5 else -c


def negative_cases(records, seed):
    """(record, kind, detail, thunk) for every perturbed check.

    An invariant phi becomes phi + c*x, or phi + c*y when every generator
    has xi = 0; lambda becomes lambda*(1 + c*x) when some xi != 0.  The
    residual for some generator is then c*xi, c*eta or c*lambda*xi, which is
    not zero, so every check must be rejected.
    """
    from liesym import dep, indep
    from liesym.catalog import instantiate
    from liesym.invariance import check_differential_invariant
    from liesym.invdiff import verify_lambda
    from liesym.numeric import ProbeConfig

    probe = ProbeConfig(seed=seed)
    rng = random.Random(seed)
    x, y = indep().as_expr(), dep().as_expr()
    for rec in sorted(records, key=lambda r: r.label):
        try:
            con = instantiate(rec)
        except Exception as exc:  # counted as one failed check
            yield rec.label, None, "instantiate", "", functools.partial(_reraise, exc)
            continue
        all_xi_zero = all(X.xi.is_zero_expr() for X in con.fields)
        shift, shift_name = (y, "y") if all_xi_zero else (x, "x")
        for order, phi in con.invariants:
            c = perturbation(rng)
            yield (rec.label, con.n, "invariant", f"phi@{order} + ({c})*{shift_name}",
                   functools.partial(check_differential_invariant,
                                     con.fields, phi + shift * c, probe))
        if con.lam is not None and not all_xi_zero:
            c = perturbation(rng)
            yield (rec.label, con.n, "lambda", f"lambda*(1 + ({c})*x)",
                   functools.partial(verify_lambda, con.fields, con.lam * (x * c + 1), probe))


def _reraise(exc):
    raise exc


def run_negatives(seed, records_glob):
    from liesym.catalog import load_catalog

    records = [r for r in load_catalog()
               if fnmatch.fnmatch(r.label, records_glob or "*")]
    rows, body = [], []
    for label, n, kind, detail, thunk in negative_cases(records, seed):
        t0 = time.perf_counter()
        try:
            verdicts = thunk()
        except Exception as exc:  # counted as one failed check
            rows.append(_raised(label, n, kind, exc, t0))
            body.append(rows[-1]["detail"])
            continue
        s = time.perf_counter() - t0
        js = [v.to_json() for v in verdicts]
        rejected = not all(v.is_zero for v in verdicts)
        rows.append({"record": label, "n": n, "check": kind, "detail": detail,
                     "outcome": "rejected" if rejected else "accepted",
                     "statuses": _statuses(js), "s": s})
        body.append([label, kind, detail, js])
    return rows, body


def _usage():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024  # KiB -> MiB


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=("catalog", "families", "negatives"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--records", default=None, help="glob over record labels")
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sampler = Sampler().start()
    m0 = sampler.mark()
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import liesym
    import liesym.harness  # noqa: F401  (everything a workload imports)

    if not Path(liesym.__file__).resolve().is_relative_to(SRC):
        print(f"liesym imported from {liesym.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace_out:
        from tracer import Tracer, install

        tracer = Tracer(f"{args.workload}-w{args.workers}-seed{args.seed}")
        install(tracer)
    from liesym.catalog import load_catalog

    load_catalog()
    setup_raw_s = time.perf_counter() - t0
    setup_s = setup_raw_s * sampler.scale(m0, sampler.mark())
    if args.setup_only:
        sampler.stop()
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    pool = multiprocessing.Array("d", 1 + 3 * POOL_SLOTS)
    if args.workers > 1:
        sample_pool_workers(pool)
    m1 = sampler.mark()
    cpu0, _ = _usage()
    t1 = time.perf_counter()
    if args.workload == "catalog":
        rows, body = run_catalog(args.seed, args.workers, args.records)
    elif args.workload == "families":
        rows, body = run_families(args.seed, args.records)
    else:
        rows, body = run_negatives(args.seed, args.records)
    wall_raw_s = time.perf_counter() - t1
    cpu1, rss = _usage()
    ref, raw = sampler.totals(m1, sampler.mark())
    sampler.stop()
    workers = pool_workers(pool)
    if workers:
        # The worker that finished last ran the chain of jobs the pool's wall
        # time waited for, so its speed rescales the wall time.
        last_ref, last_raw, _end = max(workers, key=lambda w: w[2])
        wall_s = wall_raw_s * last_ref / last_raw
    else:
        wall_s = wall_raw_s * ref / raw
    out = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": ref + sum(w[0] for w in workers),
           "setup_raw_s": setup_raw_s, "wall_raw_s": wall_raw_s, "cpu_raw_s": cpu1 - cpu0,
           "peak_rss_mb": rss, "checks": rows,
           "digest": _digest(body)}
    if tracer is not None:
        tracer.write_spans(args.trace_out)
        out["functions"] = tracer.by_function()
        out["counts"] = dict(tracer.counts)
        out["records"] = [[d, e - s] for _i, name, s, e, _p, _self, d in tracer.spans
                          if name == "harness.run_record_checks"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
