"""Rule-based reward: answer fidelity plus control accuracy."""

from __future__ import annotations

from typing import NamedTuple

from .control import ControlToken, last_answer, validate
from .metrics import BleuReference, bleu, bleu_reference

CONTROL_MATCH_BONUS = 0.5
INVALID_PENALTY = -0.5


class RewardBreakdown(NamedTuple):
    r_ans: float
    r_ctrl: float
    total: float


class PreparedSample(NamedTuple):
    """What scoring a rollout needs of its sample, worked out once for all its rollouts."""

    reference: BleuReference
    controls: tuple[ControlToken, ...]
    max_rounds: int


def final_answer_text(text: str) -> str:
    """Text of the last answer segment; empty when none was emitted."""
    return (last_answer(text) or "").strip()


def prepare(references: list[str], target: str, max_rounds: int) -> PreparedSample:
    """A sample's counted first reference and target text's controls, at budget ``max_rounds``.

    Raises ValueError when the sample can score no rollout: it has no
    references, its first reference is empty, or its target is invalid
    within the budget.
    """
    if not references:
        raise ValueError("sample has no reference answers")
    if not references[0]:
        raise ValueError("reference answer is empty")
    report = validate(target, max_rounds)
    if not report.valid:
        raise ValueError("target trajectory does not satisfy the grammar")
    return PreparedSample(bleu_reference(references[0]), report.markers, max_rounds)


def total_reward(rollout: str, prepared: PreparedSample) -> RewardBreakdown:
    """BLEU of the rollout text's final answer plus the three-level control reward.

    The control reward is INVALID_PENALTY for a rollout that breaks the grammar
    or the sample's budget, CONTROL_MATCH_BONUS for one with the target's
    control sequence, and 0 for any other. One ``validate`` walk gives both the
    verdict and the rollout's control sequence.
    """
    r_ans = bleu(final_answer_text(rollout), prepared.reference)
    report = validate(rollout, prepared.max_rounds)
    if not report.valid:
        r_ctrl = INVALID_PENALTY
    elif report.markers == prepared.controls:
        r_ctrl = CONTROL_MATCH_BONUS
    else:
        r_ctrl = 0.0
    return RewardBreakdown(r_ans, r_ctrl, r_ans + r_ctrl)
