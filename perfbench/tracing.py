"""Spans around planrag's public functions, recorded from outside the package.

A function is wrapped where its caller looks it up (``planrag.planner.read_turn``
for the planner's own call, ``planrag.cli.batch_run`` for the CLI's), so every
call path is seen without touching ``src/``. Spans stay in memory with their
parent taken from a thread-local stack; a span's self time is its duration
minus the time its children cover. ``layer_metrics`` turns one traced pass
into the per-layer metrics listed in ``layers.json``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time
import types
from time import perf_counter

import requests

import planrag.bm25
import planrag.cli
import planrag.control
import planrag.generator
import planrag.planner
import planrag.records
import planrag.reward
import planrag.supervision

STATUSES = ("completed", "malformed", "budget_zero_retrieve", "generator_failure")
KINDS = ("alpha", "beta", "gamma", "theta")


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Span:
    __slots__ = ("id", "parent", "name", "thread", "start", "end", "child_s", "attrs")

    def __init__(self, id_: int, parent: "Span | None", name: str):
        self.id = id_
        self.parent = parent
        self.name = name
        self.thread = threading.get_ident()
        self.child_s = 0.0
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self, patches: Patches):
        self.patches = patches
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Record a span per call of owner.attr; note(span, args, kwargs, result) adds attributes."""
        original = getattr(owner, attr)
        local, spans, ids = self._local, self.spans, self._ids

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = Span(next(ids), stack[-1] if stack else None, name)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
                spans.append(span)
            if note is not None:
                note(span, args, kwargs, result)
            return result

        self.patches.set(owner, attr, traced)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(
                    [s.id, s.parent.id if s.parent else None, s.name, s.thread,
                     s.start, s.end, s.attrs]
                ) + "\n")


def install(tracer: Tracer, query_class: dict[str, str]) -> None:
    """Wrap each layer's public functions at every place they are looked up."""
    bm25, cli, control = planrag.bm25, planrag.cli, planrag.control
    gen, planner, records = planrag.generator, planrag.planner, planrag.records
    reward, supervision = planrag.reward, planrag.supervision
    w = tracer.wrap

    def file_size(position):
        def note(span, args, kwargs, result):
            span.attrs["bytes"] = os.path.getsize(args[position])
        return note

    def search_note(span, args, kwargs, result):
        span.attrs["class"] = query_class.get(args[1])

    def post_note(span, args, kwargs, result):
        messages = kwargs["json"]["messages"]
        span.attrs["prompt_chars"] = sum(len(m["content"]) for m in messages)

    def truncate_note(span, args, kwargs, result):
        span.attrs["in"], span.attrs["out"] = len(args[0]), len(result)

    def replay_note(span, args, kwargs, result):
        span.attrs["completion_chars"] = len(result.text)

    def http_note(span, args, kwargs, result):
        span.attrs["backend"] = "http"

    def episode_note(span, args, kwargs, result):
        span.attrs["status"], span.attrs["rounds"] = result.status, result.rounds_used

    def classify_note(span, args, kwargs, result):
        span.attrs["kind"] = result.value

    def main_note(span, args, kwargs, result):
        span.attrs["command"] = args[0][0]

    w(cli, "main", "cli.main", main_note)
    w(bm25, "load_index", "bm25.load_index", file_size(0))
    w(bm25, "build_index", "bm25.build_index")
    w(bm25, "save_index", "bm25.save_index", file_size(1))
    w(bm25, "load_corpus", "bm25.load_corpus")
    w(bm25.PassageIndex, "search", "bm25.search", search_note)
    for module in (control, planner, gen, supervision, cli):
        w(module, "parse_trajectory", "control.parse_trajectory")
    w(reward, "validate", "control.validate")
    w(gen, "render_user_prompt", "generator.render_user_prompt")
    w(gen, "truncate_at_branch", "generator.truncate_at_branch", truncate_note)
    w(gen.ReplayGenerator, "emit_turn", "generator.emit_turn", replay_note)
    w(gen.HttpChatGenerator, "emit_turn", "generator.emit_turn", http_note)
    w(requests, "post", "generator.backend.post", post_note)
    # the retry backoff is a time.sleep in planrag.generator; give that module its own clock
    clock = types.SimpleNamespace(**vars(time))
    tracer.patches.set(gen, "time", clock)
    w(clock, "sleep", "generator.backoff")
    w(planner, "run_episode", "planner.run_episode", episode_note)
    w(planner, "read_turn", "planner.read_turn")
    w(cli, "batch_run", "planner.batch_run")
    w(reward, "bleu", "metrics.bleu")
    for fn in ("score_row", "answer_presence_at_k", "retrieval_stats", "avg_score"):
        w(cli, fn, "metrics.report")
    for fn in ("exact_match", "cover_em"):
        w(supervision, fn, "metrics.match")
    for fn in ("probe_parametric", "probe_retrieval"):
        w(cli, fn, "supervision.probe")
    w(cli, "classify", "supervision.classify", classify_note)
    w(cli, "teacher_followup_query", "supervision.teacher")
    w(cli, "build_sample", "supervision.build_sample")
    w(cli, "export_dataset", "supervision.export_dataset")
    w(cli, "total_reward", "reward.total_reward")
    for fn in ("read_jsonl", "load_dataset"):
        w(records, fn, "records.read")
    w(records, "write_jsonl", "records.write")


def _pct(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method); 0 when nothing was recorded."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _root(span: Span) -> Span:
    while span.parent is not None:
        span = span.parent
    return span


def layer_metrics(
    spans: list[Span],
    ops: int,
    op_s: float,
    backend: dict | None,
    transcript_bytes: float,
    overhead: float,
) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ops is the number of operations (episodes, or supervised questions) in the
    pass and op_s the time they took; "per op" figures divide by ops and
    "share" figures by op_s. A layer that did not run reads 0.
    """
    by: dict[str, list[Span]] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def get(name):
        return by.get(name, [])

    def total(name):
        return sum(s.duration for s in get(name))

    def per_op_ms(seconds):
        return 1000 * seconds / ops if ops else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    m: dict[str, float] = {}
    loads, saves = get("bm25.load_index"), get("bm25.save_index")
    m["bm25.load_s"] = _pct([s.duration for s in loads], 50)
    m["bm25.build_s"] = _pct(
        [s.duration for s in get("bm25.build_index")
         if s.parent is None or s.parent.name != "bm25.load_index"], 50)
    m["bm25.save_s"] = _pct([s.duration for s in saves], 50)
    sized = saves or loads
    m["bm25.index_bytes"] = sized[-1].attrs.get("bytes", 0) if sized else 0

    search = get("bm25.search")
    search_ms = [1000 * s.duration for s in search]
    m["bm25.search.calls"] = ratio(len(search), ops)
    m["bm25.search.p50_ms"] = _pct(search_ms, 50)
    m["bm25.search.p95_ms"] = _pct(search_ms, 95)
    for kind in ("common", "rare"):
        m[f"bm25.search.{kind}_p50_ms"] = _pct(
            [1000 * s.duration for s in search if s.attrs.get("class") == kind], 50)
    m["bm25.search.share"] = ratio(total("bm25.search"), op_s)

    posts = get("generator.backend.post")
    emits = get("generator.emit_turn")
    http_turns = [s for s in emits if s.attrs.get("backend") == "http" and "error" not in s.attrs]
    m["generator.backend.requests"] = ratio(len(posts), ops)
    m["generator.backend.retry_ratio"] = ratio(len(posts), len(http_turns))
    m["generator.backend.connections_per_request"] = (
        ratio(backend["connections"], backend["requests"]) if backend else 0.0)
    m["generator.backend.wait_share"] = ratio(total("generator.backend.post"), op_s)
    m["generator.backend.backoff_share"] = ratio(total("generator.backoff"), op_s)
    truncs = get("generator.truncate_at_branch")
    completions = [s.attrs["in"] for s in truncs] + [
        s.attrs["completion_chars"] for s in emits if "completion_chars" in s.attrs]
    m["generator.prompt_chars.mean"] = mean([s.attrs["prompt_chars"] for s in posts])
    m["generator.completion_chars.mean"] = mean(completions)
    m["generator.dropped_chars_frac"] = ratio(
        sum(s.attrs["in"] - s.attrs["out"] for s in truncs), sum(s.attrs["in"] for s in truncs))
    m["generator.render.total_ms"] = per_op_ms(total("generator.render_user_prompt"))
    m["generator.truncate.total_ms"] = per_op_ms(total("generator.truncate_at_branch"))
    m["generator.emit.self_ms"] = per_op_ms(sum(s.self_s for s in emits))

    validates, rewards = get("control.validate"), get("reward.total_reward")
    m["control.parse.calls"] = ratio(len(get("control.parse_trajectory")), ops)
    m["control.parse.total_ms"] = per_op_ms(total("control.parse_trajectory"))
    m["control.validate.calls"] = ratio(len(validates), ops)
    m["control.validate.total_ms"] = per_op_ms(total("control.validate"))
    m["control.validate.calls_per_reward"] = ratio(len(validates), len(rewards))

    episodes = get("planner.run_episode")
    finished = [s for s in episodes if "status" in s.attrs]
    m["planner.episode.self_ms"] = per_op_ms(sum(s.self_s for s in episodes))
    m["planner.read_turn.total_ms"] = per_op_ms(total("planner.read_turn"))
    m["planner.rounds.mean"] = mean([s.attrs["rounds"] for s in finished])
    for status in STATUSES:
        # a GeneratorError leaves run_episode; batch_run records it as a failure
        count = sum(1 for s in episodes if s.attrs.get("status", "generator_failure") == status)
        m[f"planner.status.{status}"] = ratio(count, len(episodes))
    m["planner.concurrency"] = ratio(
        sum(s.duration for s in episodes), total("planner.batch_run"))

    m["metrics.bleu.calls"] = ratio(len(get("metrics.bleu")), ops)
    m["metrics.bleu.total_ms"] = per_op_ms(total("metrics.bleu"))
    m["metrics.report.total_ms"] = per_op_ms(total("metrics.report"))
    m["metrics.match.total_ms"] = per_op_ms(total("metrics.match"))

    kinds = [s.attrs["kind"] for s in get("supervision.classify")]  # one per question
    m["supervision.probe.self_ms"] = per_op_ms(sum(s.self_s for s in get("supervision.probe")))
    m["supervision.search_calls_per_question"] = ratio(
        sum(1 for s in search if _root(s).attrs.get("command") == "supervise"), len(kinds))
    m["supervision.export.total_ms"] = per_op_ms(total("supervision.export_dataset"))
    for kind in KINDS:
        m[f"supervision.kind.{kind}"] = ratio(kinds.count(kind), len(kinds))

    m["reward.total.self_ms"] = per_op_ms(sum(s.self_s for s in rewards))
    m["reward.per_rollout_us"] = 1e6 * ratio(total("reward.total_reward"), len(rewards))

    def outermost(name):
        return sum(s.duration for s in get(name) if s.parent is None or s.parent.name != name)

    m["cli.records.read_ms"] = per_op_ms(outermost("records.read"))
    m["cli.records.write_ms"] = per_op_ms(outermost("records.write"))
    m["cli.transcript_bytes_per_episode"] = transcript_bytes
    m["trace.overhead_frac"] = overhead
    return m
