"""Reward algebra: fidelity, control accuracy, additivity and bounds."""

import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planrag.control import control_sequence, validate
from planrag.metrics import bleu, bleu_reference
from planrag.reward import (
    CONTROL_MATCH_BONUS,
    INVALID_PENALTY,
    final_answer_text,
    prepare,
    total_reward,
)
from planrag.supervision import (
    ProbeAttempt,
    ProbeOutcome,
    build_sample,
)
from test_control import oracle_valid
from test_metrics import counter_bleu

HIT = ProbeAttempt(answer="the gold answer", em=1, cover_em=1)


def alpha_sample(gold="the gold answer"):
    return build_sample(
        "q?",
        [gold],
        ProbeOutcome(attempts=(HIT,), with_retrieval=False),
        ProbeOutcome(attempts=(HIT,), with_retrieval=True),
        qid="s1",
    )


def reward(rollout, sample):
    """The reward of a rollout text against a supervision sample, at budget 3."""
    return total_reward(rollout, prepare(sample.references, sample.target, 3))


def answer_fidelity(rollout_answer, reference):
    """r_ans of an answer against a reference, in a rollout of the target's controls."""
    prepared = prepare([reference], "[ANSWER] x [SOLVED]", 3)
    return total_reward(f"[ANSWER] {rollout_answer} [SOLVED]", prepared).r_ans


def control_accuracy(rollout, target, max_rounds):
    """r_ctrl of a rollout against a target, both checked at ``max_rounds``."""
    return total_reward(rollout, prepare(["gold"], target, max_rounds)).r_ctrl


class TestAnswerFidelity:
    def test_identity(self):
        assert answer_fidelity("the gold answer", "the gold answer") == pytest.approx(1.0)

    def test_empty_rollout(self):
        assert answer_fidelity("", "the gold answer") == 0.0

    def test_matches_bleu(self):
        assert answer_fidelity("the gold", "the gold answer") == pytest.approx(
            bleu("the gold", bleu_reference("the gold answer")), abs=1e-12
        )

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="reference answer is empty"):
            answer_fidelity("x", "")


class TestControlAccuracy:
    target = "[ANSWER] x [SOLVED]"

    def test_exact_match_bonus(self):
        rollout = "[ANSWER] whatever [SOLVED]"
        assert control_accuracy(rollout, self.target, 3) == 0.5

    def test_valid_but_different_sequence(self):
        rollout = "[INTERMEDIARY] a [RETRIEVE] q [ANSWER] x [SOLVED]"
        assert control_accuracy(rollout, self.target, 3) == 0.0

    def test_invalid_rollout_penalized(self):
        assert control_accuracy("[SOLVED]", self.target, 3) == -0.5

    def test_budget_breach_counts_as_invalid(self):
        rollout = (
            "[INTERMEDIARY] a [RETRIEVE] q " * 5 + "[ANSWER] x [SOLVED]"
        )
        assert control_accuracy(rollout, self.target, 3) == -0.5

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError, match="target trajectory does not satisfy the grammar"):
            control_accuracy(self.target, "[SOLVED]", 3)

    def test_depends_only_on_controls(self):
        a = "[ANSWER] completely different text [SOLVED]"
        b = "[ANSWER] x [SOLVED]"
        assert control_accuracy(a, self.target, 3) == control_accuracy(b, self.target, 3)

    def test_rollout_is_checked_at_the_budget_of_its_prepared_target(self):
        two = ("[INTERMEDIARY] a [RETRIEVE] q [INTERMEDIARY] b [RETRIEVE] r "
               "[ANSWER] x [SOLVED]")
        assert control_accuracy(two, self.target, 1) == INVALID_PENALTY
        assert control_accuracy(two, two, 3) == CONTROL_MATCH_BONUS
        # a target is checked at the budget its rollouts are scored at
        with pytest.raises(ValueError, match="target trajectory does not satisfy the grammar"):
            prepare(["gold"], two, 1)


class TestFinalAnswerText:
    def test_last_answer_segment(self):
        t = "[ANSWER] first [SOLVED][ANSWER] second [SOLVED]"
        assert final_answer_text(t) == "second"

    def test_no_answer(self):
        assert final_answer_text("[INTERMEDIARY] a") == ""


class TestTotalReward:
    def test_perfect_rollout(self):
        sample = alpha_sample()
        breakdown = reward(sample.target, sample)
        assert breakdown.r_ans == pytest.approx(1.0)
        assert breakdown.r_ctrl == 0.5
        assert breakdown.total == pytest.approx(1.5)

    def test_correct_controls_empty_answer(self):
        sample = alpha_sample()
        breakdown = reward("[ANSWER]  [SOLVED]", sample)
        assert breakdown.r_ans == 0.0
        assert breakdown.total == pytest.approx(0.5)

    def test_invalid_grammar_gold_text(self):
        sample = alpha_sample()
        # answer text is exactly gold but the turn never terminates
        breakdown = reward("[ANSWER] the gold answer", sample)
        assert breakdown.r_ans == pytest.approx(1.0)
        assert breakdown.r_ctrl == -0.5
        assert breakdown.total == pytest.approx(0.5)

    def test_additivity_exact(self):
        sample = alpha_sample()
        for text in (
            sample.target,
            "[ANSWER] partial gold [SOLVED]",
            "[SOLVED]",
            "plain text",
            "[INTERMEDIARY] a [RETRIEVE] q [ANSWER] the gold answer [SOLVED]",
        ):
            b = reward(text, sample)
            assert b.total == b.r_ans + b.r_ctrl

    def test_bounds_under_fuzz(self):
        rng = random.Random(99)
        sample = alpha_sample()
        pieces = [
            "[ANSWER]", "[SOLVED]", "[INTERMEDIARY]", "[RETRIEVE]",
            " the gold ", " answer ", " noise ", "",
        ]
        for _ in range(500):
            text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 8)))
            b = reward(text, sample)
            assert -0.5 <= b.total <= 1.5 + 1e-12

    def test_no_references_rejected(self):
        sample = alpha_sample()._replace(references=[])
        with pytest.raises(ValueError, match="sample has no reference answers"):
            reward("[ANSWER] x [SOLVED]", sample)

    def test_monotone_in_answer_quality(self):
        sample = alpha_sample()
        worse = reward("[ANSWER] zzz qqq [SOLVED]", sample)
        better = reward("[ANSWER] the gold answer [SOLVED]", sample)
        assert better.total >= worse.total


# --- bitwise oracle ------------------------------------------------------------

SURFACE_LETTER = {"[INTERMEDIARY]": "I", "[RETRIEVE]": "R", "[ANSWER]": "A", "[SOLVED]": "S"}
SURFACE_RE = re.compile("|".join(map(re.escape, SURFACE_LETTER)))
TARGETS = ["[ANSWER] x [SOLVED]", "[INTERMEDIARY] a [RETRIEVE] q [ANSWER] x [SOLVED]",
           "[INTERMEDIARY] a [RETRIEVE] q [INTERMEDIARY] b [RETRIEVE] r [ANSWER] x [SOLVED]"]
# few words, so that predictions and references share n-grams and repeat them
few_words = st.sampled_from(["gold", "answer", "the", "GOLD", "x"])
rollout_texts = st.lists(
    st.sampled_from(list(SURFACE_LETTER) + [" ", "", "\n", "[", "SOLVED]"])
    | few_words.map(" {} ".format)
    | st.text(max_size=3),
    max_size=12,
).map("".join)
references = st.lists(few_words, min_size=1, max_size=6).map(" ".join)
fillers = st.sampled_from(["", " ", "\n", " gold ", " the answer ", "x"])


@st.composite
def shaped_rollouts(draw):
    """Markers of the accepted shape, (I R)* A S, with blank and non-blank texts around them."""
    pieces = [draw(fillers)]
    rounds = draw(st.integers(0, 3))
    for surface in ["[INTERMEDIARY]", "[RETRIEVE]"] * rounds + ["[ANSWER]", "[SOLVED]"]:
        pieces += [surface, draw(fillers)]
    return "".join(pieces)


def oracle_reward(text, reference, target, max_rounds):
    """(r_ans, r_ctrl) worked out from the rollout's text alone.

    r_ans is counter_bleu of the last answer's text, and r_ctrl comes from the
    marker letters' regular-language oracle plus the checks on the texts between
    the markers and on the retrieve count.
    """
    surfaces = SURFACE_RE.findall(text)
    # texts[0] precedes the first marker, texts[i + 1] follows marker i
    texts = SURFACE_RE.split(text)
    letters = "".join(SURFACE_LETTER[s] for s in surfaces)
    answers = [texts[i + 1] for i, s in enumerate(surfaces) if s == "[ANSWER]"]
    r_ans = counter_bleu(answers[-1].strip() if answers else "", reference)
    valid = (
        oracle_valid(letters)
        and not texts[0].strip()
        and not texts[-1].strip()  # a valid sequence ends with Solved
        and all(texts[i + 1].strip() for i, s in enumerate(surfaces) if s == "[RETRIEVE]")
        and letters.count("R") <= max_rounds
    )
    target_letters = "".join(SURFACE_LETTER[s] for s in SURFACE_RE.findall(target))
    if not valid:
        r_ctrl = INVALID_PENALTY
    elif letters == target_letters:
        r_ctrl = CONTROL_MATCH_BONUS
    else:
        r_ctrl = 0.0
    return r_ans, r_ctrl


@given(rollout_texts | shaped_rollouts(), references, st.integers(0, 2), st.integers(0, 1))
@settings(max_examples=400, derandomize=True)
@example("[ANSWER]  [SOLVED]", "the gold answer", 0, 0)  # an empty answer
@example("[ANSWER] gold x x [SOLVED]", "the gold answer", 0, 0)  # one shared unigram
@example("[INTERMEDIARY] a [RETRIEVE] q " * 2 + "[ANSWER] gold [SOLVED]", "gold", 0, 1)  # budget
@example("[ANSWER] gold gold gold [SOLVED]", "gold answer gold", 0, 0)  # clipped by the reference
@example("[ANSWER] gold answer [SOLVED]", "gold gold answer answer", 0, 0)  # by the prediction
def test_reward_is_bitwise_the_oracle(text, reference, target_rounds, spare_rounds):
    target, max_rounds = TARGETS[target_rounds], target_rounds + spare_rounds
    got = total_reward(text, prepare([reference], target, max_rounds))
    assert (got.r_ans, got.r_ctrl) == oracle_reward(text, reference, target, max_rounds)
    assert got.total == got.r_ans + got.r_ctrl
    assert list(validate(text, max_rounds).markers) == control_sequence(text)
