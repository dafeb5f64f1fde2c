"""Planning loop: branch handling, budget enforcement, repair, batching."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planrag import cli
from planrag.bm25 import save_index
from planrag.control import (
    AWAIT_SOLVED,
    END,
    END_BREACH,
    OPEN,
    TRANSITIONS,
    Segment,
    TurnReading,
    parse_trajectory,
    read_turn,
    render_segments,
    validate,
)
from planrag.generator import (
    GenerationContext,
    GeneratorEmission,
    GeneratorError,
    ReplayGenerator,
    render_user_prompt,
    truncate_at_branch,
)
from planrag.planner import (
    Episode,
    FallbackPolicy,
    MissingIndexError,
    PlannerConfig,
    batch_run,
    build_context,
    episode_record,
    handle_retrieve,
    run_episode,
)

RETRIEVE_TURN = "[INTERMEDIARY] thinking about it [RETRIEVE] eiffel tower paris"
ANSWER_TURN = "[ANSWER] Paris [SOLVED]"


class AdaptiveRetriever:
    """Retrieves up to a target count, answers when told to finalize."""

    def __init__(self, target_rounds: int, answer: str = "Paris"):
        self.target_rounds = target_rounds
        self.answer = answer
        self.rounds = 0
        self.finalize_contexts: list[int] = []

    def emit_turn(self, ctx: GenerationContext) -> GeneratorEmission:
        if ctx.finalize_required:
            self.finalize_contexts.append(len(ctx.evidence_blocks))
            return GeneratorEmission(text=f"[ANSWER] {self.answer} [SOLVED]")
        if self.rounds < self.target_rounds:
            self.rounds += 1
            return GeneratorEmission(text=RETRIEVE_TURN)
        return GeneratorEmission(text=f"[ANSWER] {self.answer} [SOLVED]")


class FinalizeRecorder:
    """Passes each turn to ``inner`` and records whether the turn had to finalize."""

    def __init__(self, inner):
        self.inner = inner
        self.finalize_flags: list[bool] = []

    def emit_turn(self, ctx: GenerationContext) -> GeneratorEmission:
        self.finalize_flags.append(ctx.finalize_required)
        return self.inner.emit_turn(ctx)


class TestReadTurn:
    def test_answer_branch(self):
        reading = read_turn("[ANSWER] Paris [SOLVED]")
        assert reading.kind == "answer" and reading.has_solved
        assert reading.answer.strip() == "Paris"

    def test_answer_without_solved(self):
        reading = read_turn("[ANSWER] Paris")
        assert reading.kind == "answer" and not reading.has_solved

    def test_retrieve_branch(self):
        reading = read_turn(RETRIEVE_TURN)
        assert reading.kind == "retrieve"
        assert reading.query.strip() == "eiffel tower paris"

    def test_bare_intermediary(self):
        assert read_turn("[INTERMEDIARY] hmm").kind == "bare_intermediary"

    def test_intermediary_then_answer_is_bare(self):
        assert read_turn("[INTERMEDIARY] a [ANSWER] x [SOLVED]").kind == "bare_intermediary"

    def test_solved_first_is_malformed(self):
        reading = read_turn("[SOLVED]")
        assert reading.kind == "malformed"
        assert reading.reason == "Solved without Answer"

    def test_retrieve_first_is_malformed(self):
        assert read_turn("[RETRIEVE] q").kind == "malformed"

    def test_plain(self):
        assert read_turn("no tokens").kind == "plain"


class TestRunEpisode:
    def test_direct_answer(self, tiny_index):
        ep = run_episode("Where?", PlannerConfig(), ReplayGenerator([ANSWER_TURN]), tiny_index)
        assert ep.status == "completed"
        assert ep.final_answer == "Paris"
        assert ep.rounds_used == 0
        assert ep.control_names() == ["ANSWER", "SOLVED"]

    def test_two_refinement_rounds(self, tiny_index):
        gen = ReplayGenerator(
            [
                "[INTERMEDIARY] the intermediate answer [RETRIEVE] halftime show",
                "[INTERMEDIARY] still the same partial answer [RETRIEVE] "
                "What is the name of the artist performing in the halftime show",
                ANSWER_TURN,
            ]
        )
        ep = run_episode("who?", PlannerConfig(), gen, tiny_index)
        assert ep.status == "completed"
        assert ep.rounds_used == 2
        assert ep.control_names() == [
            "INTERMEDIARY", "RETRIEVE", "INTERMEDIARY", "RETRIEVE", "ANSWER", "SOLVED",
        ]
        assert [r.query for r in ep.memory] == [
            "halftime show",
            "What is the name of the artist performing in the halftime show",
        ]

    def test_forced_finalize_at_budget(self, tiny_index):
        gen = AdaptiveRetriever(target_rounds=99)
        ep = run_episode("q?", PlannerConfig(max_rounds=3), gen, tiny_index)
        assert ep.status == "completed"
        assert ep.rounds_used == 3
        assert len(ep.memory) == 3
        assert ep.final_answer == "Paris"
        assert gen.finalize_contexts == [3]

    def test_budget_zero_direct_answer(self, tiny_index):
        gen = FinalizeRecorder(ReplayGenerator([ANSWER_TURN]))
        ep = run_episode("q?", PlannerConfig(max_rounds=0), gen, tiny_index)
        assert ep.status == "completed" and ep.rounds_used == 0
        assert gen.finalize_flags == [True]

    def test_budget_zero_retrieve_is_error_status(self, tiny_index):
        ep = run_episode(
            "q?", PlannerConfig(max_rounds=0), ReplayGenerator([RETRIEVE_TURN]), tiny_index
        )
        assert ep.status == "budget_zero_retrieve"
        assert ep.final_answer == "" and ep.rounds_used == 0

    def test_malformed_turn_repaired_once(self, tiny_index):
        gen = ReplayGenerator(["[SOLVED]", ANSWER_TURN])
        ep = run_episode("q?", PlannerConfig(), gen, tiny_index)
        assert ep.status == "completed" and ep.final_answer == "Paris"
        assert any("Solved without Answer" in (s.note or "") for s in ep.steps)

    def test_second_malformed_ends_episode(self, tiny_index):
        gen = ReplayGenerator(["[SOLVED]", "[RETRIEVE] oops"])
        ep = run_episode("q?", PlannerConfig(), gen, tiny_index)
        assert ep.status == "malformed"
        assert ep.final_answer == ""

    def test_bare_intermediary_fallback_then_recovery(self, tiny_index):
        gen = ReplayGenerator(["[INTERMEDIARY] no retrieve here", ANSWER_TURN])
        ep = run_episode("q?", PlannerConfig(), gen, tiny_index)
        assert ep.status == "completed"
        # the fallback message is recorded in the accumulated transcript
        assert "control format" in ep.transcript

    def test_bare_intermediary_force_finalize_policy(self, tiny_index):
        cfg = PlannerConfig(fallback_policy=FallbackPolicy.FORCE_FINALIZE)
        gen = FinalizeRecorder(ReplayGenerator(["[INTERMEDIARY] no retrieve here", ANSWER_TURN]))
        ep = run_episode("q?", cfg, gen, tiny_index)
        assert ep.status == "completed" and ep.rounds_used == 0
        assert gen.finalize_flags == [False, True]

    def test_empty_query_fallback(self, tiny_index):
        gen = ReplayGenerator(["[INTERMEDIARY] hmm [RETRIEVE]    ", ANSWER_TURN])
        ep = run_episode("q?", PlannerConfig(), gen, tiny_index)
        assert ep.status == "completed" and ep.rounds_used == 0
        assert any("empty retrieval query" in (s.note or "") for s in ep.steps)

    def test_generator_failure_propagates(self, tiny_index):
        with pytest.raises(GeneratorError, match="replay script exhausted after 0 turns"):
            run_episode("q?", PlannerConfig(), ReplayGenerator([]), tiny_index)

    def test_missing_index_raises(self):
        with pytest.raises(MissingIndexError):
            run_episode("q?", PlannerConfig(), ReplayGenerator([RETRIEVE_TURN, ANSWER_TURN]))

    def test_answer_text_after_solved_truncated(self, tiny_index):
        gen = ReplayGenerator(["[ANSWER] Paris [SOLVED] extra chatter"])
        ep = run_episode("q?", PlannerConfig(), gen, tiny_index)
        assert ep.final_answer == "Paris"
        assert ep.transcript.endswith("[SOLVED]")

    def test_completed_clean_episode_validates(self, tiny_index):
        gen = ReplayGenerator([RETRIEVE_TURN, ANSWER_TURN])
        ep = run_episode("q?", PlannerConfig(max_rounds=3), gen, tiny_index)
        report = validate(ep.transcript, 3)
        assert report.valid and report.retrieve_count == 1

    def test_evidence_count_equals_rounds(self, tiny_index):
        for target in (0, 1, 2):
            gen = AdaptiveRetriever(target_rounds=target)
            ep = run_episode("q?", PlannerConfig(max_rounds=5), gen, tiny_index)
            assert ep.rounds_used == target == len(ep.memory)


APPEND, FORCE = FallbackPolicy.APPEND_FALLBACK_MESSAGE, FallbackPolicy.FORCE_FINALIZE
EMPTY_QUERY_TURN = "[INTERMEDIARY] hmm [RETRIEVE]    "
REPEATED = "repeated anomalous turn: "


@pytest.mark.parametrize(
    "turns, budget, policy, status, failure, notes, rounds",
    [
        ([ANSWER_TURN], 3, APPEND, "completed", None, [], 0),
        (["[ANSWER] Paris"], 3, APPEND, "completed", None,
         ["answer without Solved at end of turn"], 0),
        (["[ANSWER] Paris [SOLVED] more"], 3, APPEND, "completed", None,
         ["turn truncated after Solved"], 0),
        ([RETRIEVE_TURN + " [ANSWER] x", ANSWER_TURN], 3, APPEND, "completed", None,
         ["turn truncated after retrieval query"], 1),
        ([RETRIEVE_TURN], 0, FORCE, "budget_zero_retrieve",
         "generator retrieved with a zero retrieval budget",
         ["retrieve emitted in zero-budget mode"], 0),
        ([RETRIEVE_TURN] * 3, 1, APPEND, "malformed",
         "retrieval requested twice after budget exhaustion",
         ["retrieve emitted after budget exhaustion"] * 2, 1),
        ([EMPTY_QUERY_TURN] * 2, 3, APPEND, "malformed", REPEATED + "empty retrieval query",
         ["empty retrieval query"] * 2, 0),
        ([EMPTY_QUERY_TURN, "[SOLVED]", ANSWER_TURN], 3, APPEND, "malformed",
         REPEATED + "Solved without Answer", ["empty retrieval query", "Solved without Answer"], 0),
        # under FORCE_FINALIZE an empty query forces finalization and leaves the repair
        ([EMPTY_QUERY_TURN, "[SOLVED]", ANSWER_TURN], 3, FORCE, "completed", None,
         ["empty retrieval query", "Solved without Answer"], 0),
        # a malformed turn is repaired, not forced: the next retrieval still runs
        (["[SOLVED]", RETRIEVE_TURN, ANSWER_TURN], 3, FORCE, "completed", None,
         ["Solved without Answer"], 1),
        (["plain", RETRIEVE_TURN, ANSWER_TURN], 3, FORCE, "completed", None,
         ["turn was plain", "retrieve emitted after budget exhaustion"], 0),
        (["[INTERMEDIARY] x", "plain", "plain"], 3, FORCE, "malformed",
         REPEATED + "turn was plain",
         ["turn was bare intermediary", "turn was plain", "turn was plain"], 0),
        (["plain", "[INTERMEDIARY] x"], 3, APPEND, "malformed",
         REPEATED + "turn was bare intermediary", ["turn was plain", "turn was bare intermediary"], 0),
    ],
)
def test_run_episode_exits(tiny_index, turns, budget, policy, status, failure, notes, rounds):
    cfg = PlannerConfig(max_rounds=budget, fallback_policy=policy)
    ep = run_episode("q?", cfg, ReplayGenerator(turns), tiny_index)
    assert (ep.status, ep.failure, episode_record(ep, "q")["notes"], ep.rounds_used) == (
        status, failure, notes, rounds
    )


class TestBudgetSafety:
    @pytest.mark.parametrize("budget", [0, 1, 3, 5])
    def test_hard_cap(self, tiny_index, budget):
        gen = AdaptiveRetriever(target_rounds=99)
        ep = run_episode("q?", PlannerConfig(max_rounds=budget), gen, tiny_index)
        assert ep.rounds_used <= budget
        if budget > 0:
            assert ep.rounds_used == budget
            assert gen.finalize_contexts == [budget]

    def test_always_retrieve_script_at_budget(self, tiny_index):
        # an ordinal script that never answers: the finalize turn retrieves,
        # gets one repair, retrieves again, and the episode ends malformed
        gen = ReplayGenerator([RETRIEVE_TURN] * 10)
        ep = run_episode("q?", PlannerConfig(max_rounds=3), gen, tiny_index)
        assert ep.status == "malformed"
        assert ep.rounds_used == 3


class TestOps:
    def test_handle_retrieve_counts(self, tiny_index):
        ep = Episode(question="q")
        for expected in (1, 2, 3):
            handle_retrieve(ep, "paris", tiny_index, PlannerConfig(top_k=2))
            assert ep.rounds_used == expected
        with pytest.raises(RuntimeError, match="budget of 3 retrieval rounds already used"):
            handle_retrieve(ep, "paris", tiny_index, PlannerConfig(top_k=2))

    def test_handle_retrieve_empty_query(self, tiny_index):
        with pytest.raises(ValueError, match="retrieval query is empty"):
            handle_retrieve(Episode(question="q"), "   ", tiny_index, PlannerConfig())

    def test_force_finalize_at_budget(self, tiny_index):
        # the turn after the last allowed retrieval demands finalization
        # and carries that retrieval's evidence
        gen = AdaptiveRetriever(target_rounds=99)
        recorder = FinalizeRecorder(gen)
        run_episode("q?", PlannerConfig(max_rounds=1, top_k=2), recorder, tiny_index)
        assert gen.finalize_contexts == [1]
        assert recorder.finalize_flags == [False, True]

    def test_force_finalize_zero_budget(self, tiny_index):
        gen = AdaptiveRetriever(target_rounds=99)
        recorder = FinalizeRecorder(gen)
        run_episode("q?", PlannerConfig(max_rounds=0), recorder, tiny_index)
        assert gen.finalize_contexts == [0]
        assert recorder.finalize_flags == [True]

    def test_build_context_mirrors_state(self, tiny_index):
        ep = Episode(question="q")
        assert build_context(ep, True).evidence_blocks == ()
        handle_retrieve(ep, "paris", tiny_index, PlannerConfig(top_k=2))
        for finalize in (False, True):
            ctx = build_context(ep, finalize_required=finalize)
            assert ctx.finalize_required is finalize
            assert ctx.question == "q"
            assert [b.query for b in ctx.evidence_blocks] == ["paris"]
            assert ctx.evidence_blocks[0] is ep.memory[0]
            assert len(ctx.evidence_blocks[0].results) == 2


    def test_two_round_prompt_is_pinned(self, tiny_index):
        # the bytes a backend is sent once two rounds are in memory and the budget is spent
        turns = ["[INTERMEDIARY] first\nlook [RETRIEVE] eiffel paris",
                 "[INTERMEDIARY] then [RETRIEVE] german empire 1871", ANSWER_TURN]
        ep = run_episode("Which\\city?", PlannerConfig(max_rounds=2, top_k=2),
                         ReplayGenerator(turns), tiny_index)
        assert render_user_prompt(build_context(ep, finalize_required=True)) == PINNED_PROMPT


PINNED_PROMPT = (
    "Question: Which\\\\city?\n"
    "Query: eiffel paris\n"
    "[1] Eiffel Tower: The Eiffel Tower was completed in 1889 in Paris\n"
    "[2] Louvre: The Louvre museum is located in Paris France\n"
    "Query: german empire 1871\n"
    "[1] Unification: The German Empire was proclaimed in 1871\n"
    "Transcript:\n"
    "[INTERMEDIARY] first\n"
    "look [RETRIEVE] eiffel paris\n"
    "[INTERMEDIARY] then [RETRIEVE] german empire 1871\n"
    "[ANSWER] Paris [SOLVED]\n"
    "The retrieval budget is exhausted. Finalize now: emit the answer control token, your best "
    "final answer from the evidence above, and the termination token."
)


def replay_factory(scripts):
    return lambda i: ReplayGenerator(scripts[i])


class TestBatchRun:
    def test_parallel_equals_sequential(self, tiny_index):
        questions = [f"question {i}" for i in range(10)]
        scripts = [
            [RETRIEVE_TURN, f"[ANSWER] answer {i} [SOLVED]"] if i % 2 else
            [f"[ANSWER] answer {i} [SOLVED]"]
            for i in range(10)
        ]
        cfg = PlannerConfig()
        seq = batch_run(questions, cfg, replay_factory(scripts), tiny_index, parallelism=1)
        par = batch_run(questions, cfg, replay_factory(scripts), tiny_index, parallelism=4)
        seq_records = [episode_record(ep, str(i)) for i, ep in enumerate(seq)]
        par_records = [episode_record(ep, str(i)) for i, ep in enumerate(par)]
        assert json.dumps(seq_records) == json.dumps(par_records)

    def test_failure_isolated_to_slot(self, tiny_index):
        questions = [f"q{i}" for i in range(10)]
        scripts = [[ANSWER_TURN] for _ in range(10)]
        scripts[4] = []  # exhausts immediately
        out = batch_run(questions, PlannerConfig(), replay_factory(scripts), tiny_index, 3)
        assert out[4].status == "generator_failure"
        assert all(out[i].status == "completed" for i in range(10) if i != 4)

    def test_empty(self, tiny_index):
        assert batch_run([], PlannerConfig(), replay_factory([]), tiny_index) == []


class TestDeterminism:
    def test_identical_runs_serialize_identically(self, tiny_index):
        def run_once():
            gen = ReplayGenerator([RETRIEVE_TURN, ANSWER_TURN])
            ep = run_episode("q?", PlannerConfig(), gen, tiny_index)
            return json.dumps(episode_record(ep, "q0"), sort_keys=True)

        assert run_once() == run_once() == run_once()

    def test_timings_excluded_by_default(self, tiny_index, tmp_path, monkeypatch):
        """Step durations go to the timings.jsonl sidecar, never into a transcript."""
        turns = [[ANSWER_TURN], [RETRIEVE_TURN, ANSWER_TURN], ["plain", "plain"], []]
        paths = {name: tmp_path / f"{name}.jsonl" for name in ("dataset", "scripts")}
        paths["dataset"].write_text("".join(
            json.dumps({"id": f"q{i}", "question": "q?", "answers": ["Paris"]}) + "\n"
            for i in range(len(turns))
        ))
        paths["scripts"].write_text("".join(
            json.dumps({"id": f"q{i}", "turns": t}) + "\n" for i, t in enumerate(turns)
        ))
        save_index(tiny_index, str(tmp_path / "index.bin"))
        batches = []

        def recording_batch_run(*args):
            batches.append(batch_run(*args))
            return batches[-1]

        monkeypatch.setattr(cli, "batch_run", recording_batch_run)
        code = cli.main(["run", "--dataset", str(paths["dataset"]),
                         "--scripts", str(paths["scripts"]), "--index", str(tmp_path / "index.bin"),
                         "--out-dir", str(tmp_path / "out")])
        assert code == 1  # two episodes did not complete
        [episodes] = batches
        transcripts = (tmp_path / "out" / "transcripts.jsonl").read_text().splitlines()
        assert len(transcripts) == len(turns)
        assert not any("timing" in key for line in transcripts for key in json.loads(line))
        timings = [json.loads(line) for line in
                   (tmp_path / "out" / "timings.jsonl").read_text().splitlines()]
        assert [t["id"] for t in timings] == [f"q{i}" for i in range(len(turns))]
        assert [len(t["step_ms"]) for t in timings] == [len(ep.steps) for ep in episodes]
        assert [len(ep.steps) for ep in episodes] == [1, 2, 2, 0]
        assert all(ms >= 0 for t in timings for ms in t["step_ms"])


# whole and split token surfaces, stray brackets, unicode and blanks
TURN_PIECES = [
    "", " ", "\n", "[ANSWER]", "[SOLVED]", "[INTERMEDIARY]", "[RETRIEVE]",
    "[ANS", "WER]", "[SOL", "VED]", "[RETR", "[", "]", "[]", "paris", " eiffel tower", "é", "日本",
]
TURNS = st.one_of(st.text(max_size=20), st.lists(st.sampled_from(TURN_PIECES), max_size=8).map("".join))


def closed_branch(segments: tuple) -> tuple | None:
    """The first two segments as one complete branch, or None if they are not one.

    The oracle's own copy of the rule: a branch opens with a marker the open
    state accepts and closes with the marker that leads back to it (a
    retrieval query, kept) or to the end (the text after Solved, dropped).
    """
    if len(segments) < 2 or segments[0].marker is None:
        return None
    closer = segments[1]
    state, breach = TRANSITIONS[OPEN, segments[0].marker]
    if not breach:
        state, breach = TRANSITIONS[state, closer.marker]
    if breach:
        return None
    if state == END:
        closer = Segment(closer.marker, "")
    return segments[0], closer


def whole_turn_reading(text: str) -> TurnReading:
    """The oracle of read_turn: the turn parsed whole, the rest found by rendering the consumed prefix."""
    segs = parse_trajectory(text).segments
    lead = segs[:1] if segs and segs[0].marker is None else ()
    marked = segs[len(lead) :]
    if not marked:
        return TurnReading("plain", segs)
    first = marked[0]
    state, breach = TRANSITIONS[OPEN, first.marker]
    if breach:
        return TurnReading("malformed", segs, "", False, "", breach)
    branch = closed_branch(marked)
    answering = state == AWAIT_SOLVED
    if branch or answering:
        consumed = lead + (branch or (first,))
        truncated = bool(text[len(render_segments(consumed)) :].strip())
        if answering:
            return TurnReading("answer", consumed, first.text, branch is not None, "", "",
                               truncated)
        return TurnReading("retrieve", consumed, "", False, branch[1].text, "", truncated)
    nxt = marked[1].marker if len(marked) > 1 else None
    breach = TRANSITIONS[state, nxt][1] if nxt else END_BREACH[state]
    if breach != END_BREACH[state]:
        return TurnReading("malformed", segs, "", False, "", breach)
    return TurnReading("bare_intermediary", lead + (first,))


@given(text=TURNS)
@example(text="lead [ANSWER] x [SOLVED]")
@example(text="\n[INTERMEDIARY] a [RETRIEVE] q")
@example(text="[INTERMEDIARY] a [INTERMEDIARY] b")
@example(text="[INTERMEDIARY] a [RETRIEVE] q")
@example(text="[INTERMEDIARY] a [ANSWER] x")
@example(text="[INTERMEDIARY] a [SOLVED] x")
@example(text="[ANSWER] x [INTERMEDIARY] a")
@example(text="[ANSWER] x [RETRIEVE] q")
@example(text="[ANSWER] x [ANSWER] y")
@example(text="[ANSWER] x [SOLVED] y")
@example(text="[INTERMEDIARY] a [RETRIEVE] q [ANSWER] x [SOLVED]")
@example(text="[INTERMEDIARY] a [RETRIEVE] q \n[RETRIEVE] r")
@example(text="[ANSWER] x [SOLVED][SOLVED]")
@example(text="[ANSWER] x [SOLVED]   ")
# a surface split in two pieces, joined back and kept apart
@example(text="[INTERMEDIARY] a [RETR" + "IEVE] q")
@example(text="[INTERMEDIARY] a [RETR IEVE] q")
@settings(max_examples=500, derandomize=True, deadline=None)
def test_read_turn_equals_the_whole_turn_reading(text):
    oracle, reading = whole_turn_reading(text), read_turn(text)
    # what the reading consumes is a prefix of the turn, the oracle's segments as text
    assert text.startswith(reading.consumed)
    assert reading.consumed == render_segments(oracle.consumed)
    assert reading == oracle._replace(consumed=reading.consumed)
    assert truncate_at_branch(text) in (text, reading.consumed)


@given(text=TURNS)
@example(text="[SOLVED] oops [INTERMEDIARY] a [RETRIEVE] q [ANSWER] more junk")
@example(text="lead [ANSWER] x [SOLVED] y")
@example(text="[ANSWER] x [SOLVED]   ")
@example(text="[ANSWER] x [INTERMEDIARY] a [RETRIEVE] q [ANSWER]")
@example(text="\n[INTERMEDIARY] a [RETRIEVE] q [ANSWER] x")
@settings(max_examples=500, derandomize=True, deadline=None)
def test_the_chat_cut_ends_where_the_reading_does(text):
    cut, reading = truncate_at_branch(text), read_turn(text)
    closed = reading.kind == "retrieve" or reading.has_solved
    assert text.startswith(cut)
    assert (cut != text) == (closed and reading.truncated)
    if cut != text:
        assert read_turn(cut) == reading._replace(truncated=False)


@given(
    scripts=st.lists(st.lists(TURNS, max_size=5), min_size=1, max_size=3),
    max_rounds=st.integers(0, 3),
    policy=st.sampled_from(FallbackPolicy),
    parallelism=st.sampled_from([1, 2]),
)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_batch_run_invariants_under_arbitrary_turns(
    tiny_index, scripts, max_rounds, policy, parallelism
):
    cfg = PlannerConfig(max_rounds=max_rounds, fallback_policy=policy)
    questions = [f"question {i}" for i in range(len(scripts))]
    episodes = batch_run(
        questions, cfg, lambda i: ReplayGenerator(scripts[i]), tiny_index, parallelism
    )
    assert len(episodes) == len(scripts)
    for ep in episodes:
        assert ep.rounds_used <= max_rounds
        assert ep.status in ("completed", "malformed", "budget_zero_retrieve", "generator_failure")
