"""Self-triggered retrieval planning loop under an inference-time budget.

One episode alternates generator turns with retrieval. A turn is read as one
of: an answer branch (finishes the episode), an intermediary+retrieve branch
(retrieves and continues), or an anomaly (grammar breach, bare intermediary,
empty query) handled by a single repair re-prompt before the episode is ended
as malformed. When the budget is reached the generator is required to
finalize.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

from .bm25 import PassageIndex, RetrievedPassage
from .control import (
    AWAIT_SOLVED,
    END_BREACH,
    OPEN,
    TRANSITIONS,
    Segment,
    Trajectory,
    closed_branch,
    control_sequence,
    parse_trajectory,
    render_segments,
)
from .generator import (
    DEFAULT_PREAMBLE,
    EvidenceBlock,
    GenerationContext,
    GeneratorEmission,
    GeneratorError,
)

FALLBACK_MESSAGE = (
    "Your previous turn did not follow the control format. Either give partial "
    "reasoning and request a retrieval with a concrete query, or finalize your "
    "answer now."
)


class FallbackPolicy(Enum):
    APPEND_FALLBACK_MESSAGE = "append_fallback_message"
    FORCE_FINALIZE = "force_finalize"


class BudgetExhaustedError(RuntimeError):
    pass


class EmptyQueryError(ValueError):
    pass


class NotAtBudgetError(RuntimeError):
    pass


class MissingIndexError(RuntimeError):
    pass


@dataclass(frozen=True)
class PlannerConfig:
    max_rounds: int = 3
    top_k: int = 3
    fallback_policy: FallbackPolicy = FallbackPolicy.APPEND_FALLBACK_MESSAGE
    system_preamble: str = DEFAULT_PREAMBLE

    def __post_init__(self):
        if self.max_rounds < 0:
            raise ValueError("max_rounds must be >= 0")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")


@dataclass
class RetrievalRound:
    query: str
    results: list[RetrievedPassage]


@dataclass
class EpisodeState:
    question: str
    max_rounds: int
    memory: list[RetrievalRound] = field(default_factory=list)
    segments: list[Segment] = field(default_factory=list)
    rounds_used: int = 0

    @property
    def transcript(self) -> Trajectory:
        return Trajectory.from_segments(self.segments)


@dataclass
class PlanStep:
    index: int
    finalize: bool
    emission: GeneratorEmission
    action: str
    query: str | None = None
    note: str | None = None
    duration_s: float = 0.0


@dataclass
class Episode:
    state: EpisodeState
    steps: list[PlanStep]
    final_answer: str
    status: str  # completed | malformed | budget_zero_retrieve | generator_failure
    failure: str | None = None

    @property
    def memory(self) -> list[RetrievalRound]:
        return self.state.memory

    @property
    def rounds_used(self) -> int:
        return self.state.rounds_used

    @property
    def transcript(self) -> Trajectory:
        return self.state.transcript

    def control_names(self) -> list[str]:
        return [t.name for t in control_sequence(self.transcript)]


# --- turn interpretation ------------------------------------------------------


@dataclass(frozen=True)
class TurnReading:
    kind: str  # answer | retrieve | bare_intermediary | plain | malformed
    consumed: tuple[Segment, ...]
    answer: str = ""
    has_solved: bool = False
    query: str = ""
    reason: str = ""
    truncated: bool = False


def read_turn(text: str) -> TurnReading:
    """Classify one emission by the first branch it opens.

    Which marker may follow which is read from the grammar's transition
    table. An answer branch ends the episode even when it is not closed.
    """
    segs = parse_trajectory(text).segments
    lead = segs[:1] if segs and segs[0].marker is None else ()
    marked = segs[len(lead) :]
    if not marked:
        return TurnReading(kind="plain", consumed=segs)
    first = marked[0]
    state, breach = TRANSITIONS[OPEN, first.marker]
    if breach:
        return TurnReading(kind="malformed", consumed=segs, reason=breach)
    branch = closed_branch(marked)
    answering = state == AWAIT_SOLVED
    if branch or answering:
        consumed = lead + (branch or (first,))
        truncated = bool(text[len(render_segments(consumed)) :].strip())
        if answering:
            return TurnReading(
                kind="answer",
                consumed=consumed,
                answer=first.text,
                has_solved=branch is not None,
                truncated=truncated,
            )
        return TurnReading(
            kind="retrieve", consumed=consumed, query=branch[1].text, truncated=truncated
        )
    # An intermediary branch left open. A next marker that only leaves it open
    # (the breach of ending the turn here) makes it bare; any other is a breach.
    nxt = marked[1].marker if len(marked) > 1 else None
    breach = TRANSITIONS[state, nxt][1] if nxt else END_BREACH[state]
    if breach != END_BREACH[state]:
        return TurnReading(kind="malformed", consumed=segs, reason=breach)
    return TurnReading(kind="bare_intermediary", consumed=lead + (first,))


# --- operations ---------------------------------------------------------------


def build_context(
    state: EpisodeState, cfg: PlannerConfig, finalize_required: bool
) -> GenerationContext:
    return GenerationContext(
        system_preamble=cfg.system_preamble,
        question=state.question,
        evidence_blocks=tuple(
            EvidenceBlock(query=r.query, passages=[h.passage for h in r.results])
            for r in state.memory
        ),
        prior_segments=tuple(state.segments),
        finalize_required=finalize_required,
    )


def handle_retrieve(
    state: EpisodeState, query: str, idx: PassageIndex | None, top_k: int
) -> EpisodeState:
    """Run one retrieval round: append an evidence block and bump the counter.

    Memory is an append-only log; duplicate passages across rounds are kept.
    """
    if state.rounds_used >= state.max_rounds:
        raise BudgetExhaustedError(
            f"budget of {state.max_rounds} retrieval rounds already used"
        )
    query = query.strip()
    if not query:
        raise EmptyQueryError("retrieval query is empty")
    if idx is None:
        raise MissingIndexError("generator requested retrieval but no index is configured")
    state.memory.append(RetrievalRound(query=query, results=idx.search(query, top_k)))
    state.rounds_used += 1
    return state


def force_finalize(state: EpisodeState, cfg: PlannerConfig) -> GenerationContext:
    """Context demanding a final answer; only legal exactly at the budget."""
    if state.rounds_used != state.max_rounds:
        raise NotAtBudgetError(
            f"{state.rounds_used} of {state.max_rounds} rounds used; not at budget"
        )
    return build_context(state, cfg, finalize_required=True)


def run_episode(
    question: str,
    cfg: PlannerConfig,
    gen,
    idx: PassageIndex | None = None,
) -> Episode:
    """Run the full planning loop for one question.

    Backend failures (GeneratorError) propagate; grammar breakdowns end the
    episode with a malformed status after one repair re-prompt.
    """
    if not question:
        raise ValueError("question must be non-empty")
    state = EpisodeState(question=question, max_rounds=cfg.max_rounds)
    steps: list[PlanStep] = []
    repair_used = False
    finalize_forced = False

    def append_fallback(consumed: tuple[Segment, ...]) -> None:
        state.segments.extend(consumed)
        state.segments.append(Segment(None, "\n" + FALLBACK_MESSAGE + "\n"))

    while True:
        at_budget = state.rounds_used >= cfg.max_rounds
        finalize = at_budget or finalize_forced
        if at_budget:
            ctx = force_finalize(state, cfg)
        else:
            ctx = build_context(state, cfg, finalize_required=finalize)
        started = time.perf_counter()
        emission = gen.emit_turn(ctx)
        duration = time.perf_counter() - started
        reading = read_turn(emission.text)
        step = PlanStep(
            index=len(steps),
            finalize=finalize,
            emission=emission,
            action=reading.kind,
            duration_s=duration,
        )

        if reading.kind == "answer":
            state.segments.extend(reading.consumed)
            if not reading.has_solved:
                step.note = "answer without Solved at end of turn"
            elif reading.truncated:
                step.note = "turn truncated after Solved"
            steps.append(step)
            return Episode(
                state=state,
                steps=steps,
                final_answer=reading.answer.strip(),
                status="completed",
            )

        if reading.kind == "retrieve":
            query = reading.query.strip()
            if finalize:
                if cfg.max_rounds == 0:
                    step.note = "retrieve emitted in zero-budget mode"
                    steps.append(step)
                    return Episode(
                        state=state,
                        steps=steps,
                        final_answer="",
                        status="budget_zero_retrieve",
                        failure="generator retrieved with a zero retrieval budget",
                    )
                step.note = "retrieve emitted after budget exhaustion"
                steps.append(step)
                if repair_used:
                    return Episode(
                        state=state,
                        steps=steps,
                        final_answer="",
                        status="malformed",
                        failure="retrieval requested twice after budget exhaustion",
                    )
                repair_used = True
                append_fallback(reading.consumed)
                continue
            if not query:
                step.note = "empty retrieval query"
                steps.append(step)
                if cfg.fallback_policy is FallbackPolicy.FORCE_FINALIZE:
                    append_fallback(reading.consumed)
                    finalize_forced = True
                    continue
                if repair_used:
                    return Episode(
                        state=state,
                        steps=steps,
                        final_answer="",
                        status="malformed",
                        failure="repeated anomalous turn: empty retrieval query",
                    )
                repair_used = True
                append_fallback(reading.consumed)
                continue
            consumed = list(reading.consumed)
            if consumed and not consumed[-1].text.endswith("\n"):
                last = consumed[-1]
                consumed[-1] = Segment(last.marker, last.text + "\n")
            state.segments.extend(consumed)
            handle_retrieve(state, query, idx, cfg.top_k)
            step.query = query
            if reading.truncated:
                step.note = "turn truncated after retrieval query"
            steps.append(step)
            continue

        # plain text, bare intermediary, or a strict grammar breach
        step.note = reading.reason or f"turn was {reading.kind.replace('_', ' ')}"
        steps.append(step)
        anomaly = reading.reason or step.note
        if (
            reading.kind in ("plain", "bare_intermediary")
            and cfg.fallback_policy is FallbackPolicy.FORCE_FINALIZE
            and not finalize
        ):
            append_fallback(reading.consumed)
            finalize_forced = True
            continue
        if repair_used:
            return Episode(
                state=state,
                steps=steps,
                final_answer="",
                status="malformed",
                failure=f"repeated anomalous turn: {anomaly}",
            )
        repair_used = True
        append_fallback(reading.consumed)


def batch_run(
    questions: list[str],
    cfg: PlannerConfig,
    gen,
    idx: PassageIndex | None = None,
    parallelism: int = 1,
) -> list[Episode]:
    """Run independent episodes, preserving input order in the output.

    ``gen`` is either a shared gateway or a factory ``f(position) -> gateway``
    (replay scripts are per-episode). Per-episode failures are recorded in
    the corresponding slot, never aborting the batch.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")

    def resolve(i: int):
        if hasattr(gen, "emit_turn"):
            return gen
        return gen(i)

    def one(i: int, question: str) -> Episode:
        try:
            return run_episode(question, cfg, resolve(i), idx)
        except GeneratorError as exc:
            return Episode(
                state=EpisodeState(question=question, max_rounds=cfg.max_rounds),
                steps=[],
                final_answer="",
                status="generator_failure",
                failure=str(exc),
            )

    if parallelism == 1 or len(questions) <= 1:
        return [one(i, q) for i, q in enumerate(questions)]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(one, range(len(questions)), questions))


def episode_record(
    episode: Episode, qid: str, include_timings: bool = False
) -> dict:
    """Transcript line for one episode (stable field order)."""
    record = {
        "id": qid,
        "question": episode.state.question,
        "status": episode.status,
        "failure": episode.failure,
        "control_sequence": episode.control_names(),
        "rounds_used": episode.rounds_used,
        "rounds": [
            {
                "query": r.query,
                "passages": [
                    {
                        "id": h.passage.id,
                        "title": h.passage.title,
                        "text": h.passage.text,
                        "score": h.score,
                        "rank": h.rank,
                    }
                    for h in r.results
                ],
            }
            for r in episode.memory
        ],
        "final_answer": episode.final_answer,
        "transcript": episode.transcript.source,
        "notes": [s.note for s in episode.steps if s.note],
    }
    if include_timings:
        record["timings_ms"] = [round(s.duration_s * 1000, 3) for s in episode.steps]
    return record
