"""Fault schedules on the chat path: each question draws the outcome of each request.

A fake transport serves every question its own schedule of outcomes, then good
answers once the schedule runs out. A small oracle reads the same schedule and
says how the episode must end, how many requests it makes and which backoff
waits it sleeps; whatever the other questions drew must not change that.
"""

import contextlib
import http.client
import io
import itertools
import json
import os
import socket
import ssl
import tempfile
import types
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from planrag import generator
from planrag.bm25 import save_index
from planrag.cli import main
from planrag.generator import BACKOFF_BASE_S, MAX_ATTEMPTS, GeneratorSettings, HttpChatGenerator
from planrag.planner import PlannerConfig, batch_run, episode_record

BUDGET = 10  # above the most retrievals a schedule can draw, so the budget never binds


def chat(content):
    return 200, {"choices": [{"message": {"content": content}, "finish_reason": "stop"}]}


# outcome -> (what one request gets: a (status, body) reply or an exception to raise,
#             how the oracle reads it: None for a good turn, ("retry", reason) or ("fail", failure))
OUTCOMES = {
    "answer": (lambda: chat("[ANSWER] x [SOLVED]"), None),
    "retrieve": (lambda: chat("[INTERMEDIARY] look [RETRIEVE] Eiffel Tower Paris"), None),
    "503": (lambda: (503, {"error": "busy"}), ("retry", "backend returned 503")),
    "400": (lambda: (400, {"error": "bad"}), ("fail", "backend rejected request with status 400")),
    "429": (lambda: (429, {}), ("fail", "backend rejected request with status 429")),
    "not_json": (lambda: (200, {}), ("fail", "malformed backend response: 'choices'")),
    "no_choices": (lambda: (200, {"choices": []}),
                   ("fail", "malformed backend response: list index out of range")),
    "content_not_text": (lambda: chat(5),
                         ("fail", "malformed backend response: message content is int, not text")),
    "connection_error": (lambda: ConnectionRefusedError(111, "Connection refused"),
                         ("retry", "connection to the backend failed")),
    "timeout": (lambda: TimeoutError("timed out"), ("retry", "timed out after 60 s")),
    "cut_short": (lambda: http.client.IncompleteRead(b"cut", 480),
                  ("retry", "reply ended before its Content-Length")),
    "remote_disconnected": (lambda: http.client.RemoteDisconnected("closed"),
                            ("retry", "connection to the backend failed")),
    "dns": (lambda: socket.gaierror(-2, "Name or service not known"),
            ("retry", "connection to the backend failed")),
    "certificate": (lambda: ssl.SSLCertVerificationError(1, "certificate verify failed"),
                    ("fail", "backend request failed: SSLCertVerificationError")),
    "bad_status_line": (lambda: http.client.BadStatusLine("garbage"),
                        ("fail", "backend request failed: BadStatusLine")),
    "os_error": (lambda: OSError("disk"), ("retry", "connection to the backend failed")),
    "value_error": (lambda: ValueError("bad header"), ("fail", "backend request failed: ValueError")),
}


def oracle(schedule):
    """(status, failure, rounds_used, requests made, backoff waits) that ``schedule`` implies.

    batch_run records a failed episode afresh, without the rounds it made before
    failing, so its rounds_used reads 0.
    """
    attempt = rounds = made = 0
    waits = []
    for name in itertools.chain(schedule, itertools.repeat("answer")):
        made += 1
        reading = OUTCOMES[name][1]
        if name == "answer":
            return "completed", None, rounds, made, waits
        if name == "retrieve":
            rounds, attempt = rounds + 1, 0
        elif reading[0] == "fail":
            return "generator_failure", reading[1], 0, made, waits
        elif attempt + 1 == MAX_ATTEMPTS:
            failure = f"backend unavailable after {MAX_ATTEMPTS} attempts: {reading[1]}"
            return "generator_failure", failure, 0, made, waits
        else:
            waits.append(BACKOFF_BASE_S * 2**attempt)
            attempt += 1


class ScheduledTransport:
    """Serves each question its schedule, keyed by the question in the prompt.

    Records the requests of each (question, turn), the turn being the number of
    evidence blocks in the prompt. A question is one episode, so only one thread
    ever touches its entries.
    """

    def __init__(self, schedules):
        self.schedules = schedules
        self.served = {question: 0 for question in schedules}
        self.per_turn = {}

    def __call__(self, url, headers, payload, timeout):
        lines = payload["messages"][1]["content"].split("\n")
        question = lines[0].removeprefix("Question: ")
        turn = sum(line.startswith("Query: ") for line in lines)
        self.per_turn[question, turn] = self.per_turn.get((question, turn), 0) + 1
        schedule, n = self.schedules[question], self.served[question]
        self.served[question] = n + 1
        item = OUTCOMES[schedule[n] if n < len(schedule) else "answer"][0]()
        if isinstance(item, BaseException):
            raise item
        return item


def run_batch(schedules, idx, parallelism):
    """Episode records, requests per question and per turn, and the waits slept."""
    transport, waits = ScheduledTransport(schedules), []
    gen = HttpChatGenerator(GeneratorSettings(endpoint="http://backend/v1/chat", model="m"),
                            transport)
    with mock.patch.object(generator, "time", types.SimpleNamespace(sleep=waits.append)):
        episodes = batch_run(list(schedules), PlannerConfig(max_rounds=BUDGET), lambda i: gen,
                             idx, parallelism)
    records = [episode_record(ep, q) for q, ep in zip(schedules, episodes)]
    return records, transport, waits


schedules_strategy = st.lists(
    st.lists(st.sampled_from(sorted(OUTCOMES)), max_size=8), min_size=1, max_size=5
).map(lambda drawn: {f"q{i}": schedule for i, schedule in enumerate(drawn)})


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(schedules=schedules_strategy)
def test_each_episode_ends_as_its_own_schedule_says(tiny_index, schedules):
    runs = [run_batch(schedules, tiny_index, parallelism) for parallelism in (1, 2)]
    assert runs[0][0] == runs[1][0]
    for records, transport, waits in runs:
        want = {q: oracle(schedule) for q, schedule in schedules.items()}
        got = {r["id"]: (r["status"], r["failure"], r["rounds_used"]) for r in records}
        assert got == {q: w[:3] for q, w in want.items()}
        assert transport.served == {q: w[3] for q, w in want.items()}
        assert max(transport.per_turn.values()) <= MAX_ATTEMPTS
        assert sorted(waits) == sorted(wait for w in want.values() for wait in w[4])
    assert cli_transcripts(schedules, tiny_index) == runs[0][0]


def cli_transcripts(schedules, idx):
    """transcripts.jsonl of ``planrag run`` over the schedules, read back."""
    with tempfile.TemporaryDirectory() as tmp:
        path = lambda name: os.path.join(tmp, name)  # noqa: E731
        with open(path("dataset.jsonl"), "w", encoding="utf-8") as fh:
            for q in schedules:
                fh.write(json.dumps({"id": q, "question": q, "answers": ["x"]}) + "\n")
        with open(path("config.json"), "w", encoding="utf-8") as fh:
            json.dump({"endpoint": "http://backend/v1/chat", "model": "m", "budget": BUDGET}, fh)
        save_index(idx, path("index.json"))
        argv = ["run", "--dataset", path("dataset.jsonl"), "--index", path("index.json"),
                "--config", path("config.json"), "--out-dir", path("out"), "--parallelism", "2"]
        transport = ScheduledTransport(schedules)
        sleeps = types.SimpleNamespace(sleep=lambda s: None)
        with mock.patch.object(generator, "_http_transport", transport), \
                mock.patch.object(generator, "time", sleeps), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        with open(path("out/transcripts.jsonl"), encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
    assert code == (0 if all(r["status"] == "completed" for r in lines) else 1)
    assert [r["id"] for r in lines] == list(schedules)
    return lines
