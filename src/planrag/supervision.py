"""Construction of the four structured supervision sample types.

A question is probed twice: once from the generator's own knowledge
(several attempts), once with retrieved passages in context. The two
outcomes classify the question into one of four answerability kinds, each
mapped to a fixed control-token training target.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .bm25 import PassageIndex, RetrievedPassage
from .control import control_sequence, last_answer, strip_control_tokens
from .control import parse_trajectory  # not called here: perfbench/tracing.py wraps this name
from .generator import EvidenceBlock, GenerationContext
from .metrics import References, cover_em, exact_match, normalize
from .records import write_json, write_jsonl

PARAMETRIC_PROBE_PREAMBLE = "Answer the question directly and concisely."
RETRIEVAL_PROBE_PREAMBLE = (
    "Use the retrieved passages to answer the question directly and concisely."
)
TEACHER_PREAMBLE = (
    "You refine retrieval queries. Given the original question, a partial "
    "answer, and the retrieved documents, restate what is already known and "
    "formulate a more targeted search query for the missing information. "
    "Reply with the query only."
)


class SupervisionKind(Enum):
    ALPHA = "alpha"
    BETA = "beta"
    GAMMA = "gamma"
    THETA = "theta"


class Split(Enum):
    SFT = "sft"
    RL = "rl"


class EmptyTeacherQueryError(ValueError):
    pass


class EmptyTargetQueryError(ValueError):
    """A question of control tokens and blanks only cannot be a target's retrieval query."""


class ProbeAttempt(NamedTuple):
    answer: str
    em: int
    cover_em: int


class ProbeOutcome(NamedTuple):
    attempts: tuple[ProbeAttempt, ...]
    with_retrieval: bool
    hits: tuple[RetrievedPassage, ...] = ()

    @property
    def passages_used(self) -> tuple[str, ...]:
        return tuple(h.passage.id for h in self.hits)


class SupervisionSample(NamedTuple):
    qid: str
    question: str
    references: list[str]
    kind: SupervisionKind
    target: str  # the control-token text that is exported
    teacher_query: str | None
    provenance: dict


def _extract_answer(text: str) -> str:
    """Answer-segment text when present, otherwise the whole emission."""
    answer = last_answer(text)
    return (text if answer is None else answer).strip()


def _attempt(answer: str, refs: References) -> ProbeAttempt:
    pred = normalize(answer, refs.mode)
    # positional: keyword arguments make a NamedTuple's __new__ take about twice as long
    return ProbeAttempt(answer, exact_match(pred, refs), cover_em(pred, refs))


def probe_parametric(question: str, refs: References, gen, attempts_n: int = 3) -> ProbeOutcome:
    """Generate attempts_n answers without evidence and score each one against ``refs``."""
    if attempts_n < 1:
        raise ValueError("attempts_n must be >= 1")
    attempts = []
    for _ in range(attempts_n):
        emission = gen.emit_turn(GenerationContext(PARAMETRIC_PROBE_PREAMBLE, question))
        attempts.append(_attempt(_extract_answer(emission.text), refs))
    return ProbeOutcome(tuple(attempts), False)


def probe_retrieval(
    question: str, refs: References, gen, idx: PassageIndex | None, top_k: int = 3
) -> ProbeOutcome:
    """One generation with the question's top-k passages in context, scored against ``refs``."""
    hits = idx.search(question, top_k) if idx is not None else []
    ctx = GenerationContext(RETRIEVAL_PROBE_PREAMBLE, question, (EvidenceBlock(question, hits),))
    emission = gen.emit_turn(ctx)
    return ProbeOutcome((_attempt(_extract_answer(emission.text), refs),), True, tuple(hits))


def classify(parametric: ProbeOutcome, retrieval: ProbeOutcome) -> SupervisionKind:
    """Decision order: alpha, then beta, then gamma, with theta as the rest."""
    if all(a.em == 1 for a in parametric.attempts):
        return SupervisionKind.ALPHA
    if any(a.cover_em == 1 and a.em == 0 for a in parametric.attempts):
        return SupervisionKind.BETA
    ret = retrieval.attempts[0]
    if ret.em == 0 and ret.cover_em == 0:
        return SupervisionKind.GAMMA
    return SupervisionKind.THETA


def teacher_followup_query(
    question: str, intermediary: str, hits: list[RetrievedPassage], teacher
) -> str:
    """Ask the teacher for a sharper follow-up query given the partial answer."""
    ctx = GenerationContext(TEACHER_PREAMBLE, question, (EvidenceBlock(question, hits),),
                            f"[INTERMEDIARY] {intermediary}")
    query = teacher.emit_turn(ctx).text.strip()
    if not strip_control_tokens(query):
        raise EmptyTeacherQueryError("teacher returned an empty follow-up query")
    return query


def _partial_answer(outcome: ProbeOutcome) -> str:
    """The probe's own best coverage-matching attempt, for intermediary text."""
    for a in outcome.attempts:
        if a.cover_em == 1 and a.em == 0:
            return a.answer
    for a in outcome.attempts:
        if a.cover_em == 1:
            return a.answer
    return outcome.attempts[0].answer if outcome.attempts else ""


def _outcome_dict(outcome: ProbeOutcome) -> dict:
    return {
        "with_retrieval": outcome.with_retrieval,
        "attempts": [
            {"answer": a.answer, "em": a.em, "cover_em": a.cover_em}
            for a in outcome.attempts
        ],
        "passages_used": list(outcome.passages_used),
    }


def build_sample(
    question: str,
    refs: list[str],
    parametric: ProbeOutcome,
    retrieval: ProbeOutcome,
    teacher_query: str | None = None,
    qid: str = "",
) -> SupervisionSample:
    """The control-token training target of the kind the probe outcomes classify as."""
    kind = classify(parametric, retrieval)
    if not refs:
        raise ValueError("a sample needs at least one reference answer")
    gold = strip_control_tokens(refs[0])
    query = strip_control_tokens(question)
    if not query and kind is not SupervisionKind.ALPHA:
        raise EmptyTargetQueryError(
            f"a {kind.value} sample retrieves with its question, "
            "which has no text besides control tokens"
        )
    answer_tail = f"[ANSWER] {gold} [SOLVED]"
    if kind is SupervisionKind.ALPHA:
        text = answer_tail
    elif kind is SupervisionKind.BETA:
        partial = strip_control_tokens(_partial_answer(parametric))
        text = f"[INTERMEDIARY] {partial} [RETRIEVE] {query} {answer_tail}"
    elif kind is SupervisionKind.THETA:
        partial = strip_control_tokens(_partial_answer(retrieval))
        text = f"[INTERMEDIARY] {partial} [RETRIEVE] {query} {answer_tail}"
    else:  # gamma: the teacher supplies the refined second query
        refined = strip_control_tokens(teacher_query or "")
        if not refined:
            raise EmptyTeacherQueryError("gamma sample requires a teacher query")
        first = strip_control_tokens(_partial_answer(parametric))
        second = strip_control_tokens(_partial_answer(retrieval))
        text = (
            f"[INTERMEDIARY] {first} [RETRIEVE] {query} "
            f"[INTERMEDIARY] {second} [RETRIEVE] {refined} {answer_tail}"
        )
    provenance = {"parametric": _outcome_dict(parametric), "retrieval": _outcome_dict(retrieval)}
    return SupervisionSample(qid, question, list(refs), kind, text,
                             teacher_query if kind is SupervisionKind.GAMMA else None, provenance)


def sample_record(sample: SupervisionSample, split: Split) -> dict:
    return {
        "id": sample.qid,
        "question": sample.question,
        "kind": sample.kind.value,
        "target": sample.target,
        "references": sample.references,
        "teacher_query": sample.teacher_query,
        "split": split.value,
        "control_sequence": [t.name for t in control_sequence(sample.target)],
        "provenance": sample.provenance,
    }


def export_dataset(samples: list[SupervisionSample], split: Split, path: str) -> dict:
    """Write samples (ordered by question id) plus a per-kind summary sidecar.

    Returns the summary: {"split", "total", "counts" per kind}.
    """
    ordered = sorted(samples, key=lambda s: s.qid)
    write_jsonl(path, (sample_record(sample, split) for sample in ordered))
    counts = {kind.value: 0 for kind in SupervisionKind}
    for sample in ordered:
        counts[sample.kind.value] += 1
    summary = {"split": split.value, "total": len(ordered), "counts": counts}
    write_json(path + ".summary.json", summary)
    return summary
