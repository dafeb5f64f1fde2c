"""Rule-based reward: answer fidelity plus control accuracy."""

from __future__ import annotations

from dataclasses import dataclass

from .control import Trajectory, control_sequence, last_answer, validate
from .metrics import bleu
from .supervision import SupervisionSample

CONTROL_MATCH_BONUS = 0.5
INVALID_PENALTY = -0.5


@dataclass(frozen=True)
class RewardBreakdown:
    r_ans: float
    r_ctrl: float
    total: float


def answer_fidelity(rollout_answer: str, reference: str) -> float:
    if not reference:
        raise ValueError("reference answer is empty")
    return bleu(rollout_answer, reference)


def control_accuracy(rollout: Trajectory, target: Trajectory, max_rounds: int) -> float:
    """Three-level control reward: exact pattern match, valid-but-off, invalid."""
    if not validate(target, max_rounds).valid:
        raise ValueError("target trajectory does not satisfy the grammar")
    if not validate(rollout, max_rounds).valid:
        return INVALID_PENALTY
    if control_sequence(rollout) == control_sequence(target):
        return CONTROL_MATCH_BONUS
    return 0.0


def final_answer_text(t: Trajectory) -> str:
    """Text of the last answer segment; empty when none was emitted."""
    return (last_answer(t) or "").strip()


def total_reward(
    rollout: Trajectory, sample: SupervisionSample, max_rounds: int = 3
) -> RewardBreakdown:
    if not sample.references:
        raise ValueError("sample has no reference answers")
    r_ans = answer_fidelity(final_answer_text(rollout), sample.references[0])
    r_ctrl = control_accuracy(rollout, sample.target, max_rounds)
    return RewardBreakdown(r_ans=r_ans, r_ctrl=r_ctrl, total=r_ans + r_ctrl)
