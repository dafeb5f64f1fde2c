"""Rule-based reward: answer fidelity plus control accuracy."""

from __future__ import annotations

from dataclasses import dataclass

from .control import ControlToken, Trajectory, control_sequence, last_answer, validate
from .metrics import BleuReference, bleu, bleu_reference
from .supervision import SupervisionSample

CONTROL_MATCH_BONUS = 0.5
INVALID_PENALTY = -0.5


@dataclass(frozen=True)
class RewardBreakdown:
    r_ans: float
    r_ctrl: float
    total: float


@dataclass(frozen=True)
class PreparedSample:
    """What scoring a rollout needs of its sample, worked out once for all its rollouts."""

    reference: BleuReference
    controls: list[ControlToken]


def _reference(reference: str) -> BleuReference:
    if not reference:
        raise ValueError("reference answer is empty")
    return bleu_reference(reference)


def _target_controls(target: Trajectory, max_rounds: int) -> list[ControlToken]:
    if not validate(target, max_rounds).valid:
        raise ValueError("target trajectory does not satisfy the grammar")
    return control_sequence(target)


def _control_score(rollout: Trajectory, controls: list[ControlToken], max_rounds: int) -> float:
    if not validate(rollout, max_rounds).valid:
        return INVALID_PENALTY
    if control_sequence(rollout) == controls:
        return CONTROL_MATCH_BONUS
    return 0.0


def answer_fidelity(rollout_answer: str, reference: str) -> float:
    return bleu(rollout_answer, _reference(reference))


def control_accuracy(rollout: Trajectory, target: Trajectory, max_rounds: int) -> float:
    """Three-level control reward: exact pattern match, valid-but-off, invalid."""
    return _control_score(rollout, _target_controls(target, max_rounds), max_rounds)


def final_answer_text(t: Trajectory) -> str:
    """Text of the last answer segment; empty when none was emitted."""
    return (last_answer(t) or "").strip()


def prepare(sample: SupervisionSample, max_rounds: int) -> PreparedSample:
    """The sample's counted reference and target controls.

    Raises ValueError when the sample can score no rollout: it has no
    references, its first reference is empty, or its target is invalid.
    """
    if not sample.references:
        raise ValueError("sample has no reference answers")
    return PreparedSample(
        _reference(sample.references[0]), _target_controls(sample.target, max_rounds)
    )


def total_reward(
    rollout: Trajectory,
    sample: SupervisionSample,
    max_rounds: int = 3,
    prepared: PreparedSample | None = None,
) -> RewardBreakdown:
    """The rollout's reward; ``prepared`` is ``prepare(sample, max_rounds)``, made if not given."""
    if prepared is None:
        prepared = prepare(sample, max_rounds)
    r_ans = bleu(final_answer_text(rollout), prepared.reference)
    r_ctrl = _control_score(rollout, prepared.controls, max_rounds)
    return RewardBreakdown(r_ans=r_ans, r_ctrl=r_ctrl, total=r_ans + r_ctrl)
