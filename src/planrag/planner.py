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
from dataclasses import dataclass, field
from enum import Enum

from .bm25 import PassageIndex
from .control import ControlToken, control_sequence, read_turn
from .control import parse_trajectory  # not called here: perfbench/tracing.py wraps this name
from .generator import (
    DEFAULT_PREAMBLE,
    EvidenceBlock,
    GenerationContext,
    GeneratorEmission,
    GeneratorError,
)

# a marker's name by dict lookup, which is cheaper than the Enum.name property
_NAMES = {t: t.name for t in ControlToken}

FALLBACK_MESSAGE = (
    "Your previous turn did not follow the control format. Either give partial "
    "reasoning and request a retrieval with a concrete query, or finalize your "
    "answer now."
)


class FallbackPolicy(Enum):
    APPEND_FALLBACK_MESSAGE = "append"
    FORCE_FINALIZE = "finalize"


class MissingIndexError(RuntimeError):
    pass


@dataclass(frozen=True)
class PlannerConfig:
    max_rounds: int = 3
    top_k: int = 3
    fallback_policy: FallbackPolicy = FallbackPolicy.APPEND_FALLBACK_MESSAGE

    def __post_init__(self):
        if self.max_rounds < 0:
            raise ValueError("max_rounds must be >= 0")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")


@dataclass
class PlanStep:
    emission: GeneratorEmission
    note: str | None = None
    duration_s: float = 0.0


@dataclass
class Episode:
    """One question's loop: evidence log, transcript text, steps and outcome."""

    question: str
    memory: list[EvidenceBlock] = field(default_factory=list)
    transcript: str = ""
    steps: list[PlanStep] = field(default_factory=list)
    final_answer: str = ""
    # completed | malformed | budget_zero_retrieve | generator_failure | missing_index
    status: str = "completed"
    failure: str | None = None

    @property
    def rounds_used(self) -> int:
        return len(self.memory)

    def control_names(self) -> list[str]:
        return [_NAMES[marker] for marker in control_sequence(self.transcript)]


# --- operations ---------------------------------------------------------------


def build_context(ep: Episode, finalize_required: bool) -> GenerationContext:
    # the context shares the episode's evidence blocks, whose result lists are never
    # changed once logged, so a turn copies no passage list
    return GenerationContext(
        DEFAULT_PREAMBLE, ep.question, tuple(ep.memory), ep.transcript, finalize_required
    )


def handle_retrieve(
    ep: Episode, query: str, idx: PassageIndex | None, cfg: PlannerConfig
) -> None:
    """Run one retrieval round: append an evidence block to the episode's memory.

    Memory is an append-only log; duplicate passages across rounds are kept.
    """
    if ep.rounds_used >= cfg.max_rounds:
        raise RuntimeError(f"budget of {cfg.max_rounds} retrieval rounds already used")
    query = query.strip()
    if not query:
        raise ValueError("retrieval query is empty")
    if idx is None:
        raise MissingIndexError("generator requested retrieval but no index is configured")
    ep.memory.append(EvidenceBlock(query, idx.search(query, cfg.top_k)))


def run_episode(
    question: str,
    cfg: PlannerConfig,
    gen,
    idx: PassageIndex | None = None,
) -> Episode:
    """Run the full planning loop for one question.

    Backend failures (GeneratorError) propagate, and a retrieval at zero
    budget ends the episode. Any other turn but an answer or a retrieval
    before finalization is an anomaly. Under FORCE_FINALIZE one that is not
    malformed, on a turn not yet finalizing, makes the next turn finalize;
    otherwise the first anomaly gets the one repair re-prompt and the second
    ends the episode as malformed.
    """
    if not question:
        raise ValueError("question must be non-empty")
    ep = Episode(question=question)
    repair_used = finalize_forced = False

    while True:
        finalize = ep.rounds_used >= cfg.max_rounds or finalize_forced
        ctx = build_context(ep, finalize_required=finalize)
        started = time.perf_counter()
        emission = gen.emit_turn(ctx)
        duration = time.perf_counter() - started
        reading = read_turn(emission.text)
        step = PlanStep(emission=emission, duration_s=duration)
        ep.steps.append(step)
        query = reading.query.strip()

        if reading.kind == "answer":
            ep.transcript += reading.consumed
            if not reading.has_solved:
                step.note = "answer without Solved at end of turn"
            elif reading.truncated:
                step.note = "turn truncated after Solved"
            ep.final_answer = reading.answer.strip()
            return ep

        if reading.kind == "retrieve" and finalize and cfg.max_rounds == 0:
            step.note = "retrieve emitted in zero-budget mode"
            ep.status = "budget_zero_retrieve"
            ep.failure = "generator retrieved with a zero retrieval budget"
            return ep

        if reading.kind == "retrieve" and not finalize and query:
            # a kept turn ends in "\n", as the fallback message does, and no surface holds
            # one, so no marker forms across two turns when control_names reads the text
            consumed = reading.consumed
            ep.transcript += consumed if consumed.endswith("\n") else consumed + "\n"
            handle_retrieve(ep, query, idx, cfg)
            if reading.truncated:
                step.note = "turn truncated after retrieval query"
            continue

        # retrieval when finalizing, empty query, plain, bare or malformed turn
        if reading.kind == "retrieve" and finalize:
            step.note = "retrieve emitted after budget exhaustion"
            failure = "retrieval requested twice after budget exhaustion"
        else:
            step.note = (
                "empty retrieval query"
                if reading.kind == "retrieve"
                else reading.reason or f"turn was {reading.kind.replace('_', ' ')}"
            )
            failure = f"repeated anomalous turn: {step.note}"
        if (
            cfg.fallback_policy is FallbackPolicy.FORCE_FINALIZE
            and reading.kind != "malformed"
            and not finalize
        ):
            finalize_forced = True
        elif repair_used:
            ep.status, ep.failure = "malformed", failure
            return ep
        else:
            repair_used = True
        ep.transcript += reading.consumed + "\n" + FALLBACK_MESSAGE + "\n"


def batch_run(
    questions: list[str],
    cfg: PlannerConfig,
    gateway_for,
    idx: PassageIndex | None = None,
    parallelism: int = 1,
) -> list[Episode]:
    """Run independent episodes, preserving input order in the output.

    ``gateway_for`` is a factory ``f(position) -> gateway``: replay scripts are
    per-episode, a chat backend may be shared. A backend failure or a retrieval
    with no index is recorded in the episode's slot, never aborting the batch.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")

    def one(i: int, question: str) -> Episode:
        try:
            return run_episode(question, cfg, gateway_for(i), idx)
        except GeneratorError as exc:
            status, failure = "generator_failure", str(exc)
        except MissingIndexError as exc:
            status, failure = "missing_index", str(exc)
        return Episode(question=question, status=status, failure=failure)

    if parallelism == 1 or len(questions) <= 1:
        return [one(i, q) for i, q in enumerate(questions)]
    # imported here: concurrent.futures loads logging and queue, which a serial run never needs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(one, range(len(questions)), questions))


def episode_record(episode: Episode, qid: str) -> dict:
    """Transcript line for one episode (stable field order)."""
    return {
        "id": qid,
        "question": episode.question,
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
        "transcript": episode.transcript,
        "notes": [s.note for s in episode.steps if s.note],
    }
