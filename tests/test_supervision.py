"""Supervision forge: probing, the four-way classification, target building."""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planrag.control import (
    ControlToken,
    control_sequence,
    parse_trajectory,
    strip_control_tokens,
    validate,
)
from planrag.generator import GeneratorError, ReplayGenerator, render_user_prompt
from planrag.metrics import NormalizationMode, normalize_refs
from planrag.supervision import (
    EmptyTargetQueryError,
    EmptyTeacherQueryError,
    ProbeAttempt,
    ProbeOutcome,
    Split,
    SupervisionKind,
    build_sample,
    classify,
    export_dataset,
    probe_parametric,
    probe_retrieval,
    teacher_followup_query,
)

I, R, A, S = (
    ControlToken.INTERMEDIARY,
    ControlToken.RETRIEVE,
    ControlToken.ANSWER,
    ControlToken.SOLVED,
)

# attempt shapes: exact hit, covering-but-wrong, miss
HIT = ProbeAttempt(answer="paris", em=1, cover_em=1)
COVER = ProbeAttempt(answer="it is paris maybe", em=0, cover_em=1)
MISS = ProbeAttempt(answer="zzz", em=0, cover_em=0)


def outcome(*attempts, with_retrieval=False):
    return ProbeOutcome(attempts=tuple(attempts), with_retrieval=with_retrieval)


def expected_kind(parametric_attempts, retrieval_attempt):
    if all(a.em for a in parametric_attempts):
        return SupervisionKind.ALPHA
    if any(a.cover_em and not a.em for a in parametric_attempts):
        return SupervisionKind.BETA
    if not retrieval_attempt.em and not retrieval_attempt.cover_em:
        return SupervisionKind.GAMMA
    return SupervisionKind.THETA


def refs(*answers):
    """Reference answers normalized as supervise normalizes them by default."""
    return normalize_refs(list(answers), NormalizationMode.SQUAD_STYLE)


class TestProbes:
    def test_parametric_all_exact(self):
        gen = ReplayGenerator(["paris"] * 3)
        out = probe_parametric("q?", refs("Paris"), gen, attempts_n=3)
        assert [a.em for a in out.attempts] == [1, 1, 1]
        assert not out.with_retrieval

    def test_parametric_cover_only(self):
        gen = ReplayGenerator(["it is paris maybe"])
        out = probe_parametric("q?", refs("Paris"), gen, attempts_n=1)
        assert out.attempts[0].em == 0 and out.attempts[0].cover_em == 1

    def test_parametric_miss(self):
        out = probe_parametric("q?", refs("Paris"), ReplayGenerator(["zzz"]), attempts_n=1)
        assert out.attempts[0].em == 0 and out.attempts[0].cover_em == 0

    def test_parametric_strips_control_tokens(self):
        gen = ReplayGenerator(["[ANSWER] paris [SOLVED]"])
        out = probe_parametric("q?", refs("Paris"), gen, attempts_n=1)
        assert out.attempts[0].em == 1

    def test_em_implies_cover_invariant(self):
        gen = ReplayGenerator(["paris", "it is paris", "zzz"])
        out = probe_parametric("q?", refs("Paris"), gen, attempts_n=3)
        for a in out.attempts:
            assert a.em <= a.cover_em

    def test_retrieval_probe_records_passages(self, tiny_index):
        gen = ReplayGenerator(["1871"])
        question = "when was the German Empire proclaimed"
        out = probe_retrieval(question, refs("1871"), gen, tiny_index)
        assert out.with_retrieval
        assert out.attempts[0].em == 1
        assert "p4" in out.passages_used

    def test_retrieval_probe_without_index(self):
        out = probe_retrieval("q?", refs("x"), ReplayGenerator(["nope"]), None)
        assert out.passages_used == ()

    def test_attempts_n_validated(self):
        with pytest.raises(ValueError):
            probe_parametric("q?", refs("x"), ReplayGenerator([]), attempts_n=0)


class TestClassify:
    def test_alpha(self):
        assert classify(outcome(HIT, HIT, HIT), outcome(HIT, with_retrieval=True)) is SupervisionKind.ALPHA

    def test_beta(self):
        assert classify(outcome(COVER, MISS), outcome(HIT, with_retrieval=True)) is SupervisionKind.BETA

    def test_gamma(self):
        assert classify(outcome(MISS, MISS), outcome(MISS, with_retrieval=True)) is SupervisionKind.GAMMA

    def test_theta(self):
        assert classify(outcome(MISS, MISS), outcome(COVER, with_retrieval=True)) is SupervisionKind.THETA

    def test_partition_exhaustive(self):
        shapes = [HIT, COVER, MISS]
        for p1, p2, ret in itertools.product(shapes, repeat=3):
            parametric = outcome(p1, p2)
            retrieval = outcome(ret, with_retrieval=True)
            got = classify(parametric, retrieval)
            assert got is expected_kind([p1, p2], ret), (p1, p2, ret)

    def test_mixed_hit_and_miss_is_not_alpha(self):
        kind = classify(outcome(HIT, MISS), outcome(MISS, with_retrieval=True))
        assert kind is SupervisionKind.GAMMA


class TestTeacher:
    def test_scripted_query(self, tiny_index):
        teacher = ReplayGenerator(["who headlined the upcoming halftime show"])
        query = teacher_followup_query("q?", "a partial answer", [], teacher)
        assert query == "who headlined the upcoming halftime show"

    def test_prompt_holds_the_partial_answer_as_an_intermediary(self):
        prompts = []

        class Recorder(ReplayGenerator):
            def emit_turn(self, ctx):
                prompts.append(render_user_prompt(ctx))
                return super().emit_turn(ctx)

        teacher_followup_query("q?", "a partial answer", [], Recorder(["next query"]))
        assert prompts == ["Question: q?\nQuery: q?\nTranscript:\n[INTERMEDIARY] a partial answer"]

    def test_empty_query(self):
        for reply in ("   ", "[RETRIEVE] [SOLVED]"):
            with pytest.raises(EmptyTeacherQueryError):
                teacher_followup_query("q?", "partial", [], ReplayGenerator([reply]))

    def test_transport_failure_wrapped(self):
        with pytest.raises(GeneratorError, match="replay script exhausted after 0 turns"):
            teacher_followup_query("q?", "partial", [], ReplayGenerator([]))


class TestBuildSample:
    def test_alpha_target(self):
        sample = build_sample(
            "q?", ["42"], outcome(HIT, HIT), outcome(HIT, with_retrieval=True), qid="1",
        )
        assert sample.target == "[ANSWER] 42 [SOLVED]"
        assert control_sequence(sample.target) == [A, S]

    def test_beta_target(self):
        sample = build_sample(
            "who is X", ["paris"], outcome(COVER), outcome(HIT, with_retrieval=True), qid="2",
        )
        seq = control_sequence(sample.target)
        assert seq[:2] == [I, R]
        assert seq[-2:] == [A, S]
        assert validate(sample.target, 3).valid
        # the intermediary reflects the probe's own covering attempt
        assert COVER.answer in sample.target

    def test_theta_target(self):
        sample = build_sample(
            "q?", ["paris"], outcome(MISS), outcome(COVER, with_retrieval=True), qid="3",
        )
        assert control_sequence(sample.target) == [I, R, A, S]
        assert validate(sample.target, 3).valid

    def test_gamma_target(self):
        sample = build_sample(
            "who is X", ["paris"], outcome(MISS), outcome(MISS, with_retrieval=True),
            teacher_query="a sharper query", qid="4",
        )
        seq = control_sequence(sample.target)
        assert seq == [I, R, I, R, A, S]
        assert seq.count(R) >= 2
        assert validate(sample.target, 3).valid
        queries = [s.text.strip() for s in parse_trajectory(sample.target).segments if s.marker is R]
        assert queries == ["who is X", "a sharper query"]

    def test_gamma_requires_teacher_query(self):
        with pytest.raises(EmptyTeacherQueryError):
            build_sample(
                "q?", ["x"], outcome(MISS), outcome(MISS, with_retrieval=True), qid="5",
            )

    def test_control_tokens_stripped_from_fields(self):
        noisy = ProbeAttempt(answer="[SOLVED] paris now", em=0, cover_em=1)
        sample = build_sample(
            "what [ANSWER] is X", ["gold [RETRIEVE] answer"],
            outcome(noisy), outcome(HIT, with_retrieval=True), qid="7",
        )
        assert validate(sample.target, 3).valid

    def test_every_kind_validates(self):
        cases = [
            (SupervisionKind.ALPHA, outcome(HIT), outcome(HIT, with_retrieval=True), None),
            (SupervisionKind.BETA, outcome(COVER), outcome(HIT, with_retrieval=True), None),
            (SupervisionKind.GAMMA, outcome(MISS), outcome(MISS, with_retrieval=True), "q2"),
            (SupervisionKind.THETA, outcome(MISS), outcome(COVER, with_retrieval=True), None),
        ]
        for kind, parametric, retrieval, tq in cases:
            sample = build_sample("q?", ["gold"], parametric, retrieval, tq, qid="x")
            assert sample.kind is kind
            assert validate(sample.target, 3).valid, kind


class TestExport:
    def build_four(self):
        return [
            build_sample("q alpha", ["a"],
                         outcome(HIT), outcome(HIT, with_retrieval=True), qid="01"),
            build_sample("q beta", ["b"],
                         outcome(COVER), outcome(HIT, with_retrieval=True), qid="02"),
            build_sample("q gamma", ["c"],
                         outcome(MISS), outcome(MISS, with_retrieval=True), "tq", qid="03"),
            build_sample("q theta", ["d"],
                         outcome(MISS), outcome(COVER, with_retrieval=True), qid="04"),
        ]

    def test_counts_one_of_each(self, tmp_path):
        path = tmp_path / "sft.jsonl"
        summary = export_dataset(self.build_four(), Split.SFT, str(path))
        assert summary["total"] == 4
        assert summary["counts"] == {"alpha": 1, "beta": 1, "gamma": 1, "theta": 1}
        assert json.loads((tmp_path / "sft.jsonl.summary.json").read_text()) == summary

    def test_empty_export(self, tmp_path):
        path = tmp_path / "rl.jsonl"
        assert export_dataset([], Split.RL, str(path))["total"] == 0
        assert path.read_text() == ""
        summary = json.loads((tmp_path / "rl.jsonl.summary.json").read_text())
        assert summary["total"] == 0

    def test_reexport_byte_identical(self, tmp_path):
        samples = self.build_four()
        path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        export_dataset(list(reversed(samples)), Split.SFT, str(path_a))
        export_dataset(samples, Split.SFT, str(path_b))
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_exported_targets_validate(self, tmp_path):
        path = tmp_path / "sft.jsonl"
        export_dataset(self.build_four(), Split.SFT, str(path))
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            assert validate(rec["target"], 3).valid


# probe answers and references may carry whole or split control-token surfaces
PIECES = ["", " ", "\n", "paris", "é", "[ANSWER]", "[SOLVED]", "[INTERMEDIARY]", "[RETRIEVE]",
          "[ANS", "WER]", "["]
NOISY = st.lists(st.sampled_from(PIECES), max_size=6).map("".join)


def has_text(text):
    """Whether text has anything but blanks outside its control tokens."""
    return any(seg.text.strip() for seg in parse_trajectory(text).segments)


# every prefix and suffix of every surface, so texts hold tokens split and rejoined
FRAGMENTS = PIECES + [piece for token in ControlToken for i in range(1, len(token.surface))
                      for piece in (token.surface[:i], token.surface[i:])]


@given(st.lists(st.sampled_from(FRAGMENTS), max_size=12).map("".join))
@settings(max_examples=500, derandomize=True, deadline=None)
def test_strip_control_tokens_equals_replacing_each_surface(text):
    replaced = text
    for token in ControlToken:
        replaced = replaced.replace(token.surface, " ")
    assert strip_control_tokens(text) == " ".join(replaced.split())


# em 1 implies cover_em 1
ATTEMPT = st.builds(
    lambda answer, scores: ProbeAttempt(answer, *scores),
    NOISY,
    st.sampled_from([(1, 1), (0, 1), (0, 0)]),
)


@given(
    question=NOISY,
    refs=st.lists(NOISY, min_size=1, max_size=3),
    parametric=st.lists(ATTEMPT, min_size=1, max_size=4),
    retrieval=ATTEMPT,
    teacher_query=NOISY,
)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_sample_kind_follows_from_probes(question, refs, parametric, retrieval, teacher_query):
    p, r = outcome(*parametric), outcome(retrieval, with_retrieval=True)
    kind = classify(p, r)
    if kind is not SupervisionKind.ALPHA and not has_text(question):
        with pytest.raises(EmptyTargetQueryError):
            build_sample(question, refs, p, r, teacher_query)
        return
    if kind is SupervisionKind.GAMMA and not has_text(teacher_query):
        with pytest.raises(EmptyTeacherQueryError):
            build_sample(question, refs, p, r, teacher_query)
        return
    sample = build_sample(
        question, refs, p, r, teacher_query if kind is SupervisionKind.GAMMA else None
    )
    assert sample.kind is kind
    assert validate(sample.target, 2).valid, sample.target
