"""Smoke test of the benchmark's quick mode. It checks outputs and metric names, never timings."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )


def test_layer_map_names_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        assert list(json.load(fh)) == declared


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_quick_mode_checks_outputs_and_reports_every_metric(trace, kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    out = bench("--workload", "all", "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--quick")
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] > result["failed"] > 0
    want = {f"{w['name']}.{m['name']}": m["unit"] for w in spec["workloads"] for m in spec[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_an_output_that_differs_from_the_inputs_fails_the_check(tmp_path):
    workload = workloads.EvalWorkload("eval-replay-20k", str(tmp_path), seed=5, quick=True)
    patches = tracing.Patches()
    try:
        probe = workloads.Probe(patches)
        workload.prepare(probe)
        batch = workload.run_batch(probe)
        qid = next(iter(workload.expected))
        workload.expected[qid]["final_answer"] += " changed"
        with pytest.raises(workloads.CheckFailed, match=qid):
            workload.check(batch, first=False)
    finally:
        patches.restore()
        workload.close()


def test_without_planrag_sources_it_fails_without_a_result(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for name in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, name)):
            (bench_dir / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-chat-1k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
