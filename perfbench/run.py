"""planrag benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a checkout. NAME is one of eval-replay-20k, eval-chat-1k,
supervise-reward-1k, or ``all`` for the three in turn, each in a child process.
The inputs are made from the seed; the run repeats closed-loop batches, in
whole groups of a fixed size per workload, while the next group is expected to
end within S seconds (at least one group), checks every batch's outputs, and
prints its metrics by name with the units BENCHMARK.json gives them. Each timed
metric takes every operation once over its runs in a group, with CPU-bound
times scaled to a reference speed (group_figures), and reports the median over
the groups. The last
stdout line is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics with --trace 0; the per-layer metrics of a traced pass with
--trace 1). Exits 1 when an output check fails.
--quick shrinks every input for a smoke test; its timings mean nothing.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("eval-replay-20k", "eval-chat-1k", "supervise-reward-1k")
TIMED = ("setup_s", "ops_per_s", "op_p50_ms", "op_p95_ms")


def units() -> tuple[dict, dict]:
    """name -> unit of the end-to-end and of the per-layer metrics, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer"))


def machine() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "requests": version("requests")}


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload, probe, seconds: float, batches: list) -> list:
    """Closed loop: run whole groups of batches while the next is expected to end within `seconds`.

    Runs at least one group. Appends to `batches` (so a failed check still
    leaves the counts) and returns the new ones. The first batch of a run also
    keeps a sample of its search results for workload.check_search.
    """
    group = workload.size["group"]
    new, spent = [], 0.0
    while not new or spent + spent * group / len(new) < seconds:
        for _ in range(group):
            batch = workload.run_batch(probe)
            batches.append(batch)
            new.append(batch)
            workload.check(batch, first=len(batches) == 1)
            spent += batch.setup_s + batch.wall_s
            # drop this batch's garbage now, not inside the next batch (its time
            # and peak RSS would depend on when the collector ran)
            gc.collect()
    return new


def typical_latencies(group: list, scaled: bool) -> list[float]:
    """Each operation's latency over its runs in the group, sorted.

    Scaled latencies have the host's slowdown taken out, and their median drops
    odd runs either way. Unscaled ones (eval-chat-1k, mostly backend wait) are
    taken at their fastest run, the one the host slowed least.
    """
    pick = statistics.median if scaled else min
    return sorted(pick([t for b in group for t in b.latencies_s[op]])
                  for op in group[0].latencies_s)


def group_figures(group: list, scaled: bool) -> dict:
    """The timed end-to-end figures of one group of batches over the same inputs.

    CPU-bound times come scaled to the reference machine's uncontended speed
    (workloads.calibrate): set-up on every workload, operations on those that
    set `calibrate_every` or calibrate per batch (`scaled`). Each operation
    counts once over its runs in the group (every batch, and every copy of it
    in a batch; typical_latencies). Throughput follows Little's law: the operations in flight (their
    unscaled time over the batch's wall time, median of the batches) over the
    mean of those latencies. Set-up is the median of the group's set-ups.
    Group size and copies are fixed per workload, so the estimate does not
    change with the number of groups that fit in a run.
    """
    typical = typical_latencies(group, scaled)
    in_flight = statistics.median(b.busy_s / b.wall_s for b in group)
    return {
        "setup_s": statistics.median(b.setup_s for b in group),
        "ops_per_s": in_flight * len(typical) / sum(typical),
        "op_p50_ms": 1000 * statistics.median(typical),
        "op_p95_ms": 1000 * percentile(typical, 95),
    }


def end_to_end(workload, batches: list, unit: dict) -> tuple[dict, dict, dict]:
    """End-to-end metrics of a run, its workload's own figures, and the sample counts.

    Timed metrics are the median over groups of each group's figures.
    """
    size = workload.size["group"]
    groups = [batches[i:i + size] for i in range(0, len(batches), size)]
    per_group = [group_figures(g, workload.scaled) for g in groups]
    metrics = {name: statistics.median(f[name] for f in per_group) for name in TIMED}
    metrics.update(
        backend_chars_per_op=sum(b.backend_chars for b in batches) / sum(b.ops for b in batches),
        failed_frac=sum(b.failed for b in batches) / sum(b.attempted for b in batches),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    figures = {alias: (metrics[name], unit[name]) for name, alias in workload.aliases.items()}
    own = [workload.own_figures(b) for b in batches]
    for name, (_, figure_unit) in own[0].items():
        figures[name] = (statistics.median(o[name][0] for o in own), figure_unit)
    samples = {
        "batches": len(batches),
        "groups": len(groups),
        "per_group": per_group,
        "unscaled_ops_per_s": [b.ops / b.wall_s for b in batches],
        "op_samples_per_batch": min(len(b.latencies_s) for b in batches),
        "op_samples_above_p95": min(
            sum(1 for t in typical_latencies(g, workload.scaled) if 1000 * t > f["op_p95_ms"])
            for g, f in zip(groups, per_group)),
    }
    return metrics, figures, samples


def run_workload(name: str, seed: int, seconds: float, traced: bool, quick: bool,
                 unit: dict) -> dict:
    """One workload's run; `unit` holds the end-to-end metrics' units."""
    import tracing
    import workloads

    work = os.path.join(HERE, "_work", name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cls = workloads.SuperviseRewardWorkload if name == "supervise-reward-1k" else workloads.EvalWorkload
    workload = cls(name, work, seed, quick)
    patches = tracing.Patches()
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
              "quick": quick, "machine": machine()}
    batches, metrics = [], {}
    try:
        probe = workloads.Probe(patches)
        workload.prepare(probe)
        run_s = seconds / 2 if traced else seconds
        untraced = measure(workload, probe, run_s, batches)
        metrics, figures, samples = end_to_end(workload, untraced, unit)
        workload.check_search()
        result["figures"] = figures
        if traced:
            tracer = tracing.Tracer(patches)
            tracing.install(tracer, workload.query_class)
            traced_batches = measure(workload, probe, run_s, batches)
            patches.restore()
            traced_e2e, _, _ = end_to_end(workload, traced_batches, unit)
            tracer.write(os.path.join(work, "spans.jsonl"))
            backend = None
            if "backend" in traced_batches[0].extra:
                backend = {k: sum(b.extra["backend"][k] for b in traced_batches)
                           for k in ("requests", "connections")}
            ops = sum(b.ops for b in traced_batches)
            metrics = tracing.layer_metrics(
                tracer.spans,
                ops=ops,
                op_s=sum(b.op_s for b in traced_batches),
                backend=backend,
                transcript_bytes=sum(b.extra.get("transcript_bytes", 0)
                                     for b in traced_batches) / ops,
                overhead=1 - traced_e2e["ops_per_s"] / metrics["ops_per_s"],
            )
        result.update(correct=True, samples=samples, digest=batches[0].digest)
    except workloads.CheckFailed as exc:
        result.update(correct=False, problem=str(exc))
        metrics = {}
    finally:
        patches.restore()
        workload.close()
    outcomes = {}
    for b in batches:
        for key, count in b.outcomes.items():
            outcomes[key] = outcomes.get(key, 0) + count
    result.update(
        attempted=sum(b.attempted for b in batches),
        failed=sum(b.failed for b in batches),
        outcomes=outcomes,
        metrics=metrics,
    )
    return result


def report(r: dict, unit: dict) -> None:
    """Print one workload's result for a reader."""
    print(f"== {r['workload']} seed={r['seed']} correct={r['correct']} "
          f"attempted={r['attempted']} succeeded={r['attempted'] - r['failed']} "
          f"failed={r['failed']}")
    if not r["correct"]:
        print(f"   check failed: {r['problem']}")
    print(f"   machine {json.dumps(r['machine'])}")
    for key, count in sorted(r["outcomes"].items()):
        print(f"   outcome {key}: {count}")
    if "digest" in r:
        print(f"   output digest {r['digest']}")
    for key, value in r.get("samples", {}).items():
        print(f"   {key} {value}")
    for key, (value, figure_unit) in r.get("figures", {}).items():
        print(f"   {key} {value} {figure_unit}")
    for name, value in r["metrics"].items():
        print(f"   {name} {value} {unit[name]}")


def run_all(args) -> int:
    """Each workload in a child process of its own, so each has its own peak RSS."""
    metrics, attempted, failed, code = {}, 0, 0, 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + ["--quick"] * args.quick
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or child.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            return code or 1
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": code == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "planrag", "cli.py")):
        print(f"error: no planrag sources at {os.path.relpath(SRC)}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [SRC, HERE]
    # the fake backend is on loopback; keep any configured proxy out of the way
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"

    e2e_units, layer_units = units()
    unit = layer_units if args.trace else e2e_units
    r = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.quick,
                     e2e_units)
    out_dir = os.path.join(HERE, "_work", "results")
    os.makedirs(out_dir, exist_ok=True)
    label = f"{r['workload']}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    with open(os.path.join(out_dir, label + ".json"), "w", encoding="utf-8") as fh:
        json.dump(r, fh, indent=1)
    report(r, unit)
    print(json.dumps({
        "correct": r["correct"],
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in r["metrics"].items()},
    }))
    return 0 if r["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
