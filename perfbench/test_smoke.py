"""Smoke test of the benchmark on a tiny input.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402


def bench(root, *args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


def result(*args) -> dict:
    proc, lines = bench(ROOT, *args)
    assert proc.returncode == 0, proc.stderr
    env = json.loads(lines[0])["env"]
    assert {"nproc", "python", "mpmath", "mpmath_backend", "seed"} <= set(env)
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


def test_end_to_end_metrics_on_one_record():
    out = result("--workload", "catalog", "--seed", "7", "--seconds", "0",
                 "--trace", "0", "--records", "(5,5)")
    assert out["correct"] and out["attempted"] > 0 and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {k: unit for k, (unit, _better) in metrics.END_TO_END.items()}
    assert out["metrics"]["pass_ratio"]["value"] == 1.0


def test_per_layer_metrics_from_traced_run():
    out = result("--workload", "catalog-2w", "--seed", "7", "--seconds", "0",
                 "--trace", "1", "--records", "(5,5)")
    assert out["correct"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {k: spec[0] for k, spec in metrics.PER_LAYER.items()}
    assert out["metrics"]["harness.record_max_s"]["value"] > 0
    spans = (HERE / "out" / "trace-catalog-2w-seed7.spans.jsonl").read_text().splitlines()
    assert {"id", "name", "start", "end", "parent", "run"} <= set(json.loads(spans[0]))


def test_negatives_are_all_rejected():
    out = result("--workload", "negatives", "--seed", "7", "--seconds", "0",
                 "--trace", "0", "--records", "(5,5)")
    assert out["correct"] and out["attempted"] > 0 and out["failed"] == 0


def test_known_answer_check_flags_a_wrong_outcome():
    row = {"record": "(5,5)", "n": 5, "check": "invariant", "outcome": "accepted"}
    attempted, failed, unexpected = run.judge("negatives", [{"checks": [row]}])
    assert (attempted, failed, unexpected) == (1, [row], [row])
    known = {"record": "(24,n+1)", "n": 8, "check": "instantiate", "outcome": "fail"}
    assert run.judge("families", [{"checks": [known]}]) == (1, [known], [])


def test_speed_rescales_cpu_time_to_the_reference_speed():
    s = speed.Sampler()
    loop = speed.REF_S
    # 1 s of work at the reference speed, then 1 s at half of it
    s.samples = [(0.0, loop), (1 + loop, 1 + 2 * loop), (2 + 2 * loop, 2 + 4 * loop)]
    ref, raw = s.totals(0, 2)
    assert abs(ref - (1 + 1 / 1.5)) < 1e-9 and abs(raw - (2 + 4 * loop)) < 1e-12
    assert abs(s.scale(0, 2) - ref / raw) < 1e-12


def test_sampler_samples_while_the_process_works():
    s = speed.Sampler().start()
    a = s.mark()
    sum(i * i for i in range(2_000_000))
    b = s.mark()
    s.stop()
    assert b - a >= 2 and all(c1 > c0 for c0, c1 in s.samples)
    assert s.scale(a, b) > 0


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        {k: v[:2] for k, v in metrics.PER_LAYER.items()}


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, lines = bench(tmp_path, "--workload", "catalog", "--seed", "1",
                        "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith('{"correct"') for line in lines)
