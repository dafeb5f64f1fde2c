"""The benchmark's three closed-loop workloads.

One client (this process) sends a batch of questions through ``planrag.cli.main``,
waits for it to finish, checks its outputs and sends the next, until the run's
time is spent. planrag only ever sees the files written by ``inputs``.

- eval-replay-20k: ``planrag run`` with replay scripts over a saved 20k-passage
  index, parallelism 1. BM25 search is nearly all of the episode time and
  ``load_index`` all of the set-up, so the index and search work shows here.
- eval-chat-1k: ``planrag run --config`` against the fake chat backend over a
  1k-passage index, parallelism 2. The generator gateway, truncation, retries
  and thread overlap dominate; a search change should not move it.
- supervise-reward-1k: ``planrag index`` (set-up), then ``supervise`` with probe
  scripts and ``reward`` over rollouts. It writes the index where the others
  read it, and runs control.validate, metrics.bleu, supervision and reward.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import urllib.request
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import planrag.bm25
import planrag.cli
import planrag.planner

import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
STATUSES = set(tracing.STATUSES)
ATTEMPTS = 3
# Fake backend latency. 20 ms per request is the fixed cost at which planrag's
# chat path was first measured (15.6 episodes/s at parallelism 1, no faults).
# 0.05 ms per completion character (20k characters/s) is a decode rate scaled
# down from a hosted model's few hundred per second, so that a batch of 200
# episodes takes about 10 s; at this rate the text past the branch still costs
# about as much as the request itself. README.md gives the measured mix.
BACKEND_BASE_MS = 20.0
BACKEND_PER_CHAR_MS = 0.05

# (full, quick) sizes; a batch is one CLI command over `questions` questions,
# each asked `copies` times in turn (once if absent), and a run counts each
# operation once over its runs in each `group` of batches (20 to 30 s of them on
# 2 vCPUs at full size; run.typical_latencies). Every `calibrate_every` episodes
# the speed of the machine is measured again (see calibrate); without it,
# episode latencies are not scaled.
SIZES = {
    "eval-replay-20k": ({"passages": 20000, "vocab": 20000, "questions": 200, "copies": 4,
                         "group": 2, "calibrate_every": 8},
                        {"passages": 2000, "vocab": 5000, "questions": 24, "copies": 2,
                         "group": 2, "calibrate_every": 8}),
    "eval-chat-1k": ({"passages": 1000, "vocab": 5000, "questions": 200, "group": 3},
                     {"passages": 300, "vocab": 2000, "questions": 24, "group": 2}),
    "supervise-reward-1k": ({"passages": 1000, "vocab": 5000, "questions": 250, "group": 48},
                            {"passages": 300, "vocab": 2000, "questions": 40, "group": 2}),
}
WORKLOADS = tuple(SIZES)

# The median time of calibrate()'s slice on the reference machine (2 vCPUs,
# Intel Xeon, Python 3.11.7) in its fast stretches; it ranges from 0.30 to
# 0.57 ms there as other tenants load the host.
CALIBRATION_REFERENCE_S = 0.35e-3
_TABLE = {i: i * 0.5 for i in range(8192)}


def calibrate() -> float:
    """Seconds for a fixed slice of dict lookups and float arithmetic; median of 5.

    Other tenants of the host slow all CPU work here by up to 2x for stretches
    of seconds to minutes (README.md). A CPU-bound time measured just after
    this one, times CALIBRATION_REFERENCE_S over it, reads about the same in
    any such stretch: the time the work takes at the reference machine's
    uncontended speed.
    """
    times = []
    for _ in range(5):
        start = perf_counter()
        total = 0.0
        for i in range(0, 8192, 3):
            total += _TABLE[i] * 1.5 / (i + 1.0)
        times.append(perf_counter() - start)
    return statistics.median(times)


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Batch:
    setup_s: float
    wall_s: float  # batch time after set-up
    ops: int
    op_s: float  # time inside the operations themselves (for layer shares)
    latencies_s: dict[str, list[float]]  # operation -> the latency of each of its copies
    busy_s: float  # the operations' latencies added up, unscaled
    backend_chars: int
    attempted: int
    failed: int
    outcomes: Counter
    digest: str
    extra: dict = field(default_factory=dict)


class Probe:
    """The untraced run's only instruments.

    One timer around planrag.planner.run_episode (episode latency, and the end
    of set-up as the first episode's start), stamps at the start of each
    supervised question and each scored rollout, a count of the characters
    replay scripts hand to the planner, and calibrate() between episodes
    every `calibrate_every` of them (never inside an episode's timer).
    """

    def __init__(self, patches: tracing.Patches):
        self.episodes: list[tuple[str, float, float, float]] = []  # question, start, end, scale
        self.calibrate_every = 0
        self.scale = 1.0
        self.calibrations: list[tuple[float, float]] = []  # (seconds it took, scale)
        self.question_starts: list[float] = []
        self.rollout_starts: list[float] = []
        self.replay_chars = 0
        probe = self
        run_episode = planrag.planner.run_episode

        def timed_episode(question, cfg, gen, idx=None):
            every = probe.calibrate_every
            if every and len(probe.episodes) % every == 0:
                probe.recalibrate()
            scale = probe.scale if every else 1.0
            start = perf_counter()
            try:
                return run_episode(question, cfg, gen, idx)
            finally:
                probe.episodes.append((question, start, perf_counter(), scale))

        def stamp(starts, fn):
            def stamped(*args, **kwargs):
                starts.append(perf_counter())
                return fn(*args, **kwargs)
            return stamped

        class CountingReplay(planrag.cli.ReplayGenerator):
            def emit_turn(self, ctx):
                emission = super().emit_turn(ctx)
                probe.replay_chars += len(emission.text)
                return emission

        patches.set(planrag.planner, "run_episode", timed_episode)
        patches.set(planrag.cli, "ReplayGenerator", CountingReplay)
        patches.set(planrag.cli, "probe_parametric",
                    stamp(self.question_starts, planrag.cli.probe_parametric))
        patches.set(planrag.cli, "total_reward",
                    stamp(self.rollout_starts, planrag.cli.total_reward))

    def recalibrate(self) -> float:
        """Run calibrate() now and keep its scale to the reference speed; returns the scale."""
        start = perf_counter()
        self.scale = CALIBRATION_REFERENCE_S / calibrate()
        self.calibrations.append((perf_counter() - start, self.scale))
        return self.scale

    def reset(self) -> None:
        self.calibrations.clear()
        self.episodes.clear()
        self.question_starts.clear()
        self.rollout_starts.clear()
        self.replay_chars = 0


def cli(argv: list[str]) -> tuple[int, str]:
    """planrag.cli.main with its console output kept off the benchmark's stdout.

    Returns the exit code and what the command wrote to stderr.
    """
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = planrag.cli.main(argv)
    return code, err.getvalue()


def digest(*paths: str) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def brute_force_top_k(index, query: str, k: int) -> list[tuple[str, float]]:
    """Top k by PassageIndex.score over every passage, ties broken by id."""
    terms = planrag.bm25.tokenize(query)
    scored = [(index.score(terms, o), index.passages[o].id) for o in range(index.doc_count)]
    ranked = sorted((s for s in scored if s[0] > 0), key=lambda s: (-s[0], s[1]))
    return [(pid, score) for score, pid in ranked[:k]]


def check_top_k(index, results: dict[str, list[tuple[str, float]]]) -> None:
    for query, got in results.items():
        want = brute_force_top_k(index, query, inputs.TOP_K)
        require([p for p, _ in got] == [p for p, _ in want],
                f"search({query!r}) ids {got} != brute force {want}")
        require(all(math.isclose(a, b, rel_tol=1e-9) for (_, a), (_, b) in zip(got, want)),
                f"search({query!r}) scores {got} != brute force {want}")


class EvalWorkload:
    """planrag run over a dataset: replay scripts, or the fake chat backend."""

    def __init__(self, name: str, work: str, seed: int, quick: bool):
        self.size = SIZES[name][quick]
        self.rng = random.Random(f"{name}:{seed}")
        self.chat = name == "eval-chat-1k"
        self.scaled = bool(self.size.get("calibrate_every"))  # are episode latencies scaled
        self.backend: subprocess.Popen | None = None
        self.reference_digest: str | None = None
        self.path = {k: os.path.join(work, v) for k, v in {
            "corpus": "corpus.jsonl", "index": "index.json", "dataset": "dev.jsonl",
            "scripts": "scripts.jsonl", "plans": "plans.json", "config": "config.json",
            "out": "out"}.items()}

    def prepare(self, probe: Probe) -> None:
        corpus = inputs.make_corpus(self.rng, self.size["passages"], self.size["vocab"])
        inputs.write_jsonl(self.path["corpus"], corpus.passages)
        # built in a child process so its memory stays out of this one's peak RSS
        subprocess.run(
            [sys.executable, "-m", "planrag", "index", "--corpus", self.path["corpus"],
             "--out", self.path["index"]],
            check=True, stdout=subprocess.DEVNULL, env={**os.environ, "PYTHONPATH": SRC})
        n = self.size["questions"]
        copies = self.size.get("copies", 1)
        if self.chat:
            data = inputs.eval_chat_inputs(self.rng, corpus, n)
            with open(self.path["plans"], "w", encoding="utf-8") as fh:
                json.dump(data["plans"], fh)
        else:
            data = inputs.eval_replay_inputs(self.rng, corpus, n)
            inputs.write_jsonl(self.path["scripts"], copied(data["scripts"], copies))
        inputs.write_jsonl(self.path["dataset"], copied(data["rows"], copies))
        self.expected = {e["id"]: e for e in copied(data["expected"], copies)}
        self.query_class = data["query_class"]
        probe.calibrate_every = self.size.get("calibrate_every", 0)
        if self.chat:
            self._start_backend(probe)

    def _start_backend(self, probe: Probe) -> None:
        self.backend = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "fake_backend.py"), self.path["plans"],
             str(BACKEND_BASE_MS), str(BACKEND_PER_CHAR_MS)],
            stdout=subprocess.PIPE, text=True)
        port = int(self.backend.stdout.readline())
        self.url = f"http://127.0.0.1:{port}"
        with open(self.path["config"], "w", encoding="utf-8") as fh:
            json.dump({"endpoint": f"{self.url}/v1/chat/completions", "model": "fake-chat"}, fh)
        # outputs at parallelism 2 must be the bytes a sequential run writes; the
        # backend's latency cannot change them, so this run goes without it
        self.reference_digest = self.run_batch(probe, parallelism=1, latency=False).digest

    def _backend_call(self, path: str, data: bytes | None = None) -> dict:
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(self.url + path, data=data, timeout=30) as resp:
            return json.load(resp)

    def close(self) -> None:
        if self.backend is None:
            return
        self.backend.terminate()
        try:
            self.backend.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.backend.kill()
            self.backend.wait()
        self.backend.stdout.close()
        self.backend = None

    def run_batch(self, probe: Probe, parallelism: int | None = None,
                  latency: bool = True) -> Batch:
        argv = ["run", "--dataset", self.path["dataset"], "--index", self.path["index"],
                "--out-dir", self.path["out"], "--budget", str(inputs.BUDGET),
                "--top-k", str(inputs.TOP_K)]
        if self.chat:
            argv += ["--config", self.path["config"], "--parallelism", str(parallelism or 2)]
            self._backend_call("/reset", json.dumps({"latency": latency}).encode())
        else:
            argv += ["--scripts", self.path["scripts"], "--parallelism", "1"]
        probe.reset()
        probe.recalibrate()
        started = perf_counter()
        code, _ = cli(argv)
        ended = perf_counter()
        transcripts = os.path.join(self.path["out"], "transcripts.jsonl")
        report = os.path.join(self.path["out"], "report.json")
        lines = read_jsonl(transcripts)
        outcomes = Counter(f"status.{r['status']}" for r in lines)
        outcomes.update(f"failure.{r['failure']}" for r in lines if r["failure"])
        failed = sum(1 for r in lines if r["status"] != "completed")
        first = min(s for _, s, _, _ in probe.episodes)
        latencies = {}
        for question, s, e, scale in probe.episodes:
            latencies.setdefault(question, []).append((e - s) * scale)
        busy = sum(e - s for _, s, e, _ in probe.episodes)
        # set-up is scaled by the calibrations on either side of it: the one before
        # the command and, where episodes are calibrated, the one before the first
        around = probe.calibrations[:2] if probe.calibrate_every else probe.calibrations[:1]
        setup = first - started - sum(d for d, _ in around[1:])
        setup_scale = statistics.mean(scale for _, scale in around)
        extra = {"exit_code": code, "lines": lines,
                 "transcript_bytes": os.path.getsize(transcripts)}
        if self.chat:
            stats = self._backend_call("/stats")
            chars = stats["prompt_chars"] + stats["completion_chars"]
            extra["backend"] = stats
            for status, count in stats["errors"].items():
                outcomes[f"backend.http_{status}"] += count
        else:
            chars = probe.replay_chars
        return Batch(
            setup_s=setup * setup_scale,
            wall_s=ended - first - sum(d for d, _ in probe.calibrations[len(around):]),
            ops=len(lines),
            op_s=busy,
            latencies_s=latencies,
            busy_s=busy,
            backend_chars=chars,
            attempted=len(lines),
            failed=failed,
            outcomes=outcomes,
            digest=digest(transcripts, report),
            extra=extra,
        )

    def check(self, batch: Batch, first: bool) -> None:
        lines = batch.extra.pop("lines")
        require(len(lines) == len(self.expected), "one transcript line per question")
        for rec in lines:
            exp = self.expected[rec["id"]]
            require(rec["status"] in STATUSES, f"{rec['id']}: unknown status {rec['status']}")
            require(rec["rounds_used"] <= inputs.BUDGET, f"{rec['id']}: rounds over budget")
            got = {k: rec[k] for k in ("status", "rounds_used", "final_answer")}
            want = {k: exp[k] for k in got}
            require(got == want, f"{rec['id']}: got {got}, inputs call for {want}")
            require(len(rec["rounds"]) == rec["rounds_used"], f"{rec['id']}: rounds log")
        want_code = 1 if any(e["status"] != "completed" for e in self.expected.values()) else 0
        require(batch.extra["exit_code"] == want_code,
                f"planrag run exited {batch.extra['exit_code']}, expected {want_code}")
        if self.reference_digest is None:
            self.reference_digest = batch.digest
        require(batch.digest == self.reference_digest,
                f"outputs changed between batches: {batch.digest} != {self.reference_digest}")
        if first:
            self.search_sample: dict[str, list[tuple[str, float]]] = {}
            per_class = Counter()
            for rec in lines:
                for r in rec["rounds"]:
                    kind = self.query_class.get(r["query"])
                    if kind and per_class[kind] < 2 and r["query"] not in self.search_sample:
                        per_class[kind] += 1
                        self.search_sample[r["query"]] = [(p["id"], p["score"])
                                                          for p in r["passages"]]
            require(sorted(per_class) == ["common", "rare"], "no queries of each class to check")

    def check_search(self) -> None:
        """The first batch's sampled search results against a brute-force ranking.

        Run after the batches, so that the index it loads stays out of their peak RSS.
        """
        check_top_k(planrag.bm25.load_index(self.path["index"]), self.search_sample)

    # end-to-end metrics under the names users of planrag run know them by
    aliases = {"ops_per_s": "episodes_per_s", "op_p50_ms": "episode_p50_ms",
               "op_p95_ms": "episode_p95_ms", "backend_chars_per_op": "backend_chars_per_episode"}

    def own_figures(self, batch: Batch) -> dict:
        return {}


class SuperviseRewardWorkload:
    """planrag index, then supervise with probe scripts, then reward rollouts."""

    scaled = True  # question latencies are scaled (one calibration per batch)

    def __init__(self, name: str, work: str, seed: int, quick: bool):
        self.size = SIZES[name][quick]
        self.rng = random.Random(f"{name}:{seed}")
        self.reference_digest: str | None = None
        self.path = {k: os.path.join(work, v) for k, v in {
            "corpus": "corpus.jsonl", "index": "index.json", "questions": "train.jsonl",
            "probes": "probes.jsonl", "rollouts": "rollouts.jsonl", "out": "sup",
            "sft": os.path.join("sup", "sft.jsonl"), "rewards": "rewards.jsonl"}.items()}

    def prepare(self, probe: Probe) -> None:
        corpus = inputs.make_corpus(self.rng, self.size["passages"], self.size["vocab"])
        inputs.write_jsonl(self.path["corpus"], corpus.passages)
        data = inputs.supervise_inputs(self.rng, corpus, self.size["questions"], ATTEMPTS)
        inputs.write_jsonl(self.path["questions"], data["rows"])
        inputs.write_jsonl(self.path["probes"], data["probes"])
        inputs.write_jsonl(self.path["rollouts"], data["rollouts"])
        self.data = data
        self.query_class = data["query_class"]

    def close(self) -> None:
        pass  # starts no process

    def run_batch(self, probe: Probe) -> Batch:
        p = self.path
        probe.reset()
        scale = probe.recalibrate()  # a batch takes under a second
        t0 = perf_counter()
        index_code, _ = cli(["index", "--corpus", p["corpus"], "--out", p["index"]])
        t1 = perf_counter()
        supervise_code, supervise_err = cli(
            ["supervise", "--questions", p["questions"], "--index", p["index"],
             "--scripts", p["probes"], "--out-dir", p["out"],
             "--attempts", str(ATTEMPTS), "--split", "sft"])
        t2 = perf_counter()
        reward_code, _ = cli(["reward", "--rollouts", p["rollouts"], "--samples", p["sft"],
                              "--out", p["rewards"], "--budget", str(inputs.BUDGET)])
        t3 = perf_counter()
        questions = len(self.data["rows"])
        rollout_ids = [r["id"] for r in self.data["rollouts"]]
        require(len(probe.question_starts) == questions, "one parametric probe per question")
        require(len(probe.rollout_starts) == len(rollout_ids), "one reward call per rollout")
        # an operation is one question: supervising it, then scoring its rollouts
        latency = dict(zip((r["id"] for r in self.data["rows"]),
                           _intervals(probe.question_starts, t2)))
        for qid, spent in zip(rollout_ids, _intervals(probe.rollout_starts, t3)):
            latency[qid] += spent
        samples = read_jsonl(p["sft"])
        rewards = read_jsonl(p["rewards"])
        errors = sum(1 for r in rewards if "error" in r)
        skipped = questions - len(samples)
        outcomes = Counter(f"kind.{s['kind']}" for s in samples)
        # supervise reports each skipped question as "skipping <id>: <reason>"
        outcomes.update(f"skipped.{line.split(': ', 1)[-1]}"
                        for line in supervise_err.splitlines() if line.startswith("skipping "))
        outcomes.update(f"reward.error.{r['error']}" for r in rewards if "error" in r)
        return Batch(
            setup_s=(t1 - t0) * scale,
            wall_s=t3 - t1,
            ops=questions,
            op_s=t3 - t1,
            latencies_s={qid: [spent * scale] for qid, spent in latency.items()},
            busy_s=sum(latency.values()),
            backend_chars=probe.replay_chars,
            attempted=questions + len(rollout_ids),
            failed=skipped + errors,
            outcomes=outcomes,
            digest=digest(p["index"], p["sft"], p["sft"] + ".summary.json", p["rewards"]),
            extra={"codes": [index_code, supervise_code, reward_code],
                   "samples": samples, "rewards": rewards,
                   "supervise_s": t2 - t1, "reward_s": t3 - t2, "rollouts": len(rollout_ids)},
        )

    def check(self, batch: Batch, first: bool) -> None:
        samples, rewards = batch.extra.pop("samples"), batch.extra.pop("rewards")
        require(batch.extra["codes"] == [0, 0, 0], f"exit codes {batch.extra['codes']}")
        got = {s["id"]: s["kind"] for s in samples}
        require(got == self.data["expected_kind"], "supervision kinds differ from the probes' design")
        require(len(rewards) == len(self.data["expected_ctrl"]), "one reward record per rollout")
        for i, (rec, ctrl) in enumerate(zip(rewards, self.data["expected_ctrl"])):
            require("error" not in rec, f"rollout {i}: {rec.get('error')}")
            require(rec["r_ctrl"] == ctrl, f"rollout {i}: r_ctrl {rec['r_ctrl']} != {ctrl}")
            require(0.0 <= rec["r_ans"] <= 1.0, f"rollout {i}: r_ans out of [0, 1]")
            require(rec["total"] == rec["r_ans"] + rec["r_ctrl"], f"rollout {i}: total")
        if self.reference_digest is None:
            self.reference_digest = batch.digest
        require(batch.digest == self.reference_digest,
                f"outputs changed between batches: {batch.digest} != {self.reference_digest}")
        if first:
            by_question = {r["id"]: r["question"] for r in self.data["rows"]}
            per_class = Counter()
            self.search_sample = []
            for s in samples:
                question = by_question[s["id"]]
                kind = self.query_class[question]
                if per_class[kind] == 3:
                    continue
                per_class[kind] += 1
                self.search_sample.append(
                    (s["id"], question, s["provenance"]["retrieval"]["passages_used"]))

    def check_search(self) -> None:
        """The first batch's sampled retrieval probes against a brute-force ranking."""
        index = planrag.bm25.load_index(self.path["index"])
        for sample_id, question, ids in self.search_sample:
            want = [pid for pid, _ in brute_force_top_k(index, question, inputs.TOP_K)]
            require(ids == want, f"{sample_id}: retrieval probe used {ids}, brute force {want}")

    aliases: dict = {}

    def own_figures(self, batch: Batch) -> dict:
        """Throughput of each command on its own."""
        return {"questions_per_s": (batch.ops / batch.extra["supervise_s"], "1/s"),
                "rewards_per_s": (batch.extra["rollouts"] / batch.extra["reward_s"], "1/s")}


def copied(records: list[dict], copies: int) -> list[dict]:
    """The records `copies` times over, in turn; copy c > 0 gets the id suffix ".c"."""
    return [dict(r, id=f"{r['id']}.{c}") if c else r for c in range(copies) for r in records]


def _intervals(starts: list[float], end: float) -> list[float]:
    """Start-to-start gaps; the last runs to the end of the command."""
    return [b - a for a, b in zip(starts, starts[1:] + [end])]
