"""The liesym benchmark.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; liesym is imported from its `src/`.

Workloads (see BENCHMARK.json for why each is there):
  catalog     run_verification over all 41 records, 1 worker
  catalog-2w  the same with 2 workers (the harness process pool)
  families    run_record_checks(n_override=n) for every open-range family
              record at n = lo .. lo+5
  negatives   every stored invariant and lambda perturbed so that the
              checks must all be rejected

Every repetition starts in a fresh process (rep.py), so each pays the
imports and a cold differentiation cache, as a `liesym verify` user does.

--trace 0: set-up is timed in SETUP_REPS fresh processes, then whole
repetitions run until --seconds have passed (at least one); the end-to-end
metrics are medians over repetitions.  wall_s, cpu_s and setup_s are
seconds at the host's reference speed, not raw seconds: the host's speed
swings by up to 1.8x within seconds, so each process samples it while it
works and its times are rescaled (speed.py).  The raw times are printed
beside them.

--trace 1: one untraced repetition, one untraced 1-worker repetition when
the workload uses more workers, and one traced 1-worker repetition.  The
per-layer metrics come from the traced one; the spans and a summary are
written under perfbench/out/.

Every check's outcome is compared with an answer known without the engine
(catalog and families: every check passes; negatives: every check is
rejected).  The verdicts, with timings stripped, must be identical across
repetitions, between 1 and 2 workers, and between runs of the same seed in
this checkout; so must the count metrics of traced runs.  The last line of
output is one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 5
REP_TIMEOUT_S = 170

# workload -> (rep.py workload, workers, the outcome every check must have)
WORKLOADS = {
    "catalog": ("catalog", 1, "pass"),
    "catalog-2w": ("catalog", 2, "pass"),
    "families": ("families", 1, "pass"),
    "negatives": ("negatives", 1, "rejected"),
}

# Known catalog defects: (workload, record, n, check) -> reason.  They count
# as failed checks in `failed` and `pass_ratio` but do not make the run
# incorrect.  Remove an entry when the catalog is fixed.
KNOWN_DEFECTS = {
    ("families", "(24,n+1)", 8, "instantiate"):
        "default alpha = 7 equals the excluded value n-1 at n = 8",
}


class RepError(RuntimeError):
    pass


def rep(workload, seed, workers, records=None, trace_out=None, setup_only=False) -> dict:
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--workers", str(workers)]
    if records:
        cmd += ["--records", records]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    if setup_only:
        cmd.append("--setup-only")
    # A session of its own, so that a timeout also ends the pool workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=REP_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RepError(f"repetition exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "liesym").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(SRC)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    import mpmath

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "records": args.records, "nproc": os.cpu_count(),
            "python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "machine": platform.machine(),
            "source_sha256": source_digest()}


def judge(workload, reps) -> tuple:
    """(attempted, failed rows, unexpected failed rows) over all repetitions."""
    want = WORKLOADS[workload][2]
    attempted, failed, unexpected = 0, [], []
    for r in reps:
        for row in r["checks"]:
            attempted += 1
            if row["outcome"] != want:
                failed.append(row)
                key = (workload, row["record"], row["n"], row["check"])
                if key not in KNOWN_DEFECTS:
                    unexpected.append(row)
    return attempted, failed, unexpected


def exact_share(reps) -> float:
    statuses = [s for r in reps for row in r["checks"] for s in row["statuses"]]
    exact = sum(s in ("ExactZero", "ExactNonzero") for s in statuses)
    return exact / len(statuses) if statuses else 0.0


class Ledger:
    """Values that must repeat between runs of the same seed and source in
    this checkout, kept in perfbench/out/ledger.json."""

    def __init__(self, path: Path):
        self.path = path
        self.data = json.loads(path.read_text()) if path.exists() else {}

    def check(self, key: str, value) -> bool:
        old = self.data.setdefault(key, value)
        return old == value

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def _median_metric(reps, name) -> float:
    return statistics.median(r[name] for r in reps)


def run_untraced(args, env, kind, workers) -> tuple:
    setups = [rep(kind, args.seed, workers, args.records, setup_only=True)["setup_s"]
              for _ in range(SETUP_REPS)]
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < args.seconds:
        reps.append(rep(kind, args.seed, workers, args.records))
    setups += [r["setup_s"] for r in reps]
    attempted, failed, _ = judge(args.workload, reps)
    values = {
        "wall_s": _median_metric(reps, "wall_s"),
        "cpu_s": _median_metric(reps, "cpu_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _median_metric(reps, "peak_rss_mb"),
        "pass_ratio": (attempted - len(failed)) / attempted if attempted else 0.0,
        "exact_share": exact_share(reps),
    }
    out = {name: {"value": values[name], "unit": unit}
           for name, (unit, _better) in metrics.END_TO_END.items()}
    print(f"repetitions: {len(reps)}; wall_s (raw) "
          + " ".join(f"{r['wall_s']:.3f} ({r['wall_raw_s']:.3f})" for r in reps))
    return reps, out


def layer_values(traced: dict) -> dict:
    fns, counts = traced["functions"], traced["counts"]
    values = {}
    for name in metrics.PER_LAYER:
        fn, _, field = name.rpartition(".")
        values[name] = counts.get(name, fns.get(fn, {}).get(field, 0))
    mp_calls = fns.get("numeric.eval_mp", {}).get("calls", 0)
    # no eval_mp call means no point was wasted
    values["numeric.points_admissible_ratio"] = (
        counts.get("numeric.eval_mp.returns", 0) / mp_calls if mp_calls else 1.0)
    values["harness.record_max_s"] = max((s for _d, s in traced["records"]), default=0.0)
    values["harness.check_max_s"] = max((row["s"] for row in traced["checks"]), default=0.0)
    return values


def slowest_records(r: dict) -> list:
    if r.get("records"):
        pairs = r["records"]
    else:
        totals: dict = {}
        for row in r["checks"]:
            key = f"{row['record']}@{row['n']}"
            totals[key] = totals.get(key, 0.0) + row["s"]
        pairs = list(totals.items())
    return sorted(pairs, key=lambda p: -p[1])[:5]


def slowest_checks(r: dict) -> list:
    rows = sorted(r["checks"], key=lambda row: -row["s"])[:5]
    return [[f"{row['record']}@{row['n']} {row['check']} {row['detail']}", row["s"]]
            for row in rows]


def run_traced(args, env, kind, workers) -> tuple:
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"trace-{args.workload}-seed{args.seed}"
    spans_path = stem.with_suffix(".spans.jsonl")
    reps = [rep(kind, args.seed, workers, args.records)]
    if workers > 1:
        reps.append(rep(kind, args.seed, 1, args.records))
    base = reps[-1]  # untraced, 1 worker
    traced = rep(kind, args.seed, 1, args.records, trace_out=spans_path)
    reps.append(traced)
    values = layer_values(traced)
    out = {name: {"value": values[name], "unit": spec[0]}
           for name, spec in metrics.PER_LAYER.items()}

    modules: dict = {}
    for fn, agg in traced["functions"].items():
        m = modules.setdefault(fn.split(".")[0], {"calls": 0, "self_s": 0.0})
        m["calls"] += agg["calls"]
        m["self_s"] += agg["self_s"]
    summary = {
        "env": env,
        "metrics": out,
        "modules": dict(sorted(modules.items(), key=lambda kv: -kv[1]["self_s"])),
        "functions": traced["functions"],
        "slowest_records": slowest_records(traced),
        "slowest_checks": slowest_checks(base),
        "overhead": {"untraced_wall_s": base["wall_s"], "traced_wall_s": traced["wall_s"],
                     "overhead_s": traced["wall_s"] - base["wall_s"]},
        "spans": str(spans_path.relative_to(ROOT)),
    }
    print("per module (calls, self s): " + "; ".join(
        f"{m} {v['calls']} {v['self_s']:.3f}" for m, v in summary["modules"].items()))
    print("slowest records: " + "; ".join(f"{k} {s:.3f}s" for k, s in summary["slowest_records"]))
    print("slowest checks: " + "; ".join(f"{k} {s:.3f}s" for k, s in summary["slowest_checks"]))
    o = summary["overhead"]
    print(f"tracing overhead: {o['overhead_s']:+.3f}s "
          f"(traced {o['traced_wall_s']:.3f}s, untraced {o['untraced_wall_s']:.3f}s, 1 worker)")
    stem.with_suffix(".json").write_text(json.dumps(summary, indent=1))
    return reps, out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--records", default=None,
                    help="glob over record labels, to shrink the input (smoke test)")
    args = ap.parse_args(argv)
    if not (SRC / "liesym" / "__init__.py").is_file():
        print(f"no liesym sources under {SRC}", file=sys.stderr)
        return 2

    env = environment(args)
    print(json.dumps({"env": env}))
    kind, workers, _want = WORKLOADS[args.workload]
    try:
        reps, out = (run_traced if args.trace else run_untraced)(args, env, kind, workers)
    except (RepError, subprocess.TimeoutExpired) as exc:
        print(str(exc), file=sys.stderr)
        return 3

    attempted, failed, unexpected = judge(args.workload, reps)
    seen = Counter((row["record"], row["n"], row["check"], row["detail"], row["outcome"])
                   for row in failed)
    for (record, n, check, detail, outcome), times in list(seen.items())[:20]:
        key = (args.workload, record, n, check)
        tag = f"known defect: {KNOWN_DEFECTS[key]}" if key in KNOWN_DEFECTS else "UNEXPECTED"
        print(f"failed check ({tag}): {record}@{n} {check} {detail} -> {outcome}"
              f" in {times} of {len(reps)} repetitions")

    problems = []
    if unexpected:
        problems.append(f"{len(unexpected)} checks differ from the known answer")
    if len({r["digest"] for r in reps}) != 1:
        problems.append("verdicts differ between repetitions of the same seed")
    OUT.mkdir(exist_ok=True)
    ledger = Ledger(OUT / "ledger.json")
    key = f"{env['source_sha256'][:16]}:{kind}:{args.records}:{args.seed}"
    if not ledger.check(f"verdicts:{key}", reps[0]["digest"]):
        problems.append("verdicts differ from an earlier run of the same seed")
    if args.trace:
        counts = {n: out[n]["value"] for n in metrics.COUNT_METRICS}
        if not ledger.check(f"counts:{key}", counts):
            problems.append("count metrics differ from an earlier traced run of the same seed")
    ledger.save()
    for p in problems:
        print(f"INCORRECT: {p}")
    print(json.dumps({"correct": not problems and attempted > 0, "attempted": attempted,
                      "failed": len(failed), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
