"""Control grammar: parsing round-trips, streaming equivalence, validation."""

import itertools
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planrag.bm25 import Passage, build_index
from planrag.control import (
    END,
    END_BREACH,
    OPEN,
    TRANSITIONS,
    ControlToken,
    ScannerState,
    Segment,
    TextRun,
    TokenEvent,
    Trajectory,
    ValidationReport,
    coalesce_events,
    control_sequence,
    last_answer,
    parse_trajectory,
    render_segments,
    scan_stream,
    validate,
)
from planrag.generator import ReplayGenerator
from planrag.planner import FALLBACK_MESSAGE, PlannerConfig, run_episode

I, R, A, S = (
    ControlToken.INTERMEDIARY,
    ControlToken.RETRIEVE,
    ControlToken.ANSWER,
    ControlToken.SOLVED,
)
SURFACES = [t.surface for t in ControlToken]
# text made of token surfaces, partial surfaces, whitespace and any other code points
MIXED_TEXT = st.lists(
    st.sampled_from(SURFACES + ["[RETRIE", "VE]", "[", "]", "[[", " ", "\n", "\t", "\u3000"])
    | st.text(max_size=4),
    max_size=12,
).map("".join)
_OLD_TOKEN_RE = re.compile("|".join(re.escape(s) for s in sorted(SURFACES, key=len, reverse=True)))


def finditer_parse(text: str) -> tuple[Segment, ...]:
    """parse_trajectory's segments as found by a scan of token matches."""
    segments: list[Segment] = []
    matches = list(_OLD_TOKEN_RE.finditer(text))
    if not matches:
        return (Segment(None, text),) if text else ()
    if matches[0].start() > 0:
        segments.append(Segment(None, text[: matches[0].start()]))
    for i, m in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        segments.append(Segment(ControlToken(m.group(0)), text[m.end() : end]))
    return tuple(segments)


def scan_all(text: str, chunks: list[str]) -> list:
    state = ScannerState()
    events = []
    for chunk in chunks:
        new, state = scan_stream(chunk, state)
        events.extend(new)
    new, state = scan_stream("", state, final=True)
    events.extend(new)
    assert state.pending == ""
    return coalesce_events(events)


class TestParse:
    def test_answer_solved(self):
        t = parse_trajectory("[ANSWER] 1871 A.D. [SOLVED]")
        assert [s.marker for s in t.segments] == [A, S]
        assert t.segments[0].text.strip() == "1871 A.D."

    def test_intermediary_retrieve(self):
        t = parse_trajectory("[INTERMEDIARY] partial [RETRIEVE] who is X")
        assert [(s.marker, s.text) for s in t.segments] == [
            (I, " partial "),
            (R, " who is X"),
        ]

    def test_empty(self):
        assert parse_trajectory("").segments == ()

    def test_plain_text_only(self):
        t = parse_trajectory("no tokens here")
        assert t.segments == (Segment(None, "no tokens here"),)

    def test_leading_text_before_token(self):
        t = parse_trajectory("hmm [ANSWER] x")
        assert t.segments[0] == Segment(None, "hmm ")
        assert t.segments[1].marker is A

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "[ANSWER] Paris [SOLVED]",
            "[[ANSWER]]",
            "[ANS WER] not a token [RETRIEVE]",
            "x[SOLVED]y[SOLVED]",
            "[INTERMEDIARY][RETRIEVE][ANSWER][SOLVED]",
        ],
    )
    def test_round_trip_examples(self, text):
        assert parse_trajectory(text).render() == text

    @given(st.text(alphabet="[]ANSWEREDIT ", max_size=60))
    @settings(max_examples=300, derandomize=True)
    def test_round_trip_bracket_soup(self, text):
        assert parse_trajectory(text).render() == text

    @given(
        st.lists(
            st.sampled_from(SURFACES + ["plain", " ", "[ANS", "WER]", "x]"]),
            max_size=12,
        )
    )
    @settings(max_examples=300, derandomize=True)
    def test_round_trip_token_mix(self, parts):
        text = "".join(parts)
        assert parse_trajectory(text).render() == text

    @given(MIXED_TEXT)
    @settings(max_examples=500, derandomize=True)
    def test_segments_equal_a_scan_of_token_matches(self, text):
        t = parse_trajectory(text)
        assert t.segments == finditer_parse(text)
        assert t.source == text


class TestScanner:
    def test_single_chunk(self):
        events = scan_all("[ANSWER] Paris [SOLVED]", ["[ANSWER] Paris [SOLVED]"])
        assert events == [TokenEvent(A), TextRun(" Paris "), TokenEvent(S)]

    def test_token_split_across_chunks(self):
        ev1, state = scan_stream("[ANS")
        assert ev1 == [] and state.pending == "[ANS"
        ev2, state = scan_stream("WER] x", state)
        assert coalesce_events(ev2) == [TokenEvent(A), TextRun(" x")]

    def test_no_tokens_flush(self):
        assert scan_all("no tokens here", ["no tokens here"]) == [
            TextRun("no tokens here")
        ]

    def test_pending_shorter_than_longest_surface(self):
        state = ScannerState()
        for ch in "[INTERMEDIARY":
            _, state = scan_stream(ch, state)
            assert len(state.pending) < max(len(s) for s in SURFACES)
        events, state = scan_stream("]", state)
        assert events == [TokenEvent(I)]

    def test_false_prefix_released(self):
        events = scan_all("[ANSWERX", ["[ANSWERX"])
        assert events == [TextRun("[ANSWERX")]

    def test_bracket_noise(self):
        events = scan_all("[[ANSWER]", ["[", "[ANS", "WER]"])
        assert events == [TextRun("["), TokenEvent(A)]

    def test_streaming_equivalence_random(self):
        rng = random.Random(20240901)
        pieces = SURFACES + ["[", "]", "[ANSW", "RETRIEVE]", " text ", "a", ""]
        for _ in range(400):
            text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
            single = scan_all(text, [text])
            cuts = sorted(rng.randint(0, len(text)) for _ in range(rng.randint(0, 6)))
            chunks, prev = [], 0
            for cut in cuts + [len(text)]:
                chunks.append(text[prev:cut])
                prev = cut
            assert scan_all(text, chunks) == single
            rendered = "".join(
                e.text if isinstance(e, TextRun) else e.token.surface for e in single
            )
            assert rendered == text


def oracle_valid(kinds: str) -> bool:
    """Brute-force regular-language check over marker letters."""
    return re.fullmatch(r"(IR)*AS", kinds) is not None


LETTER = {"I": I, "R": R, "A": A, "S": S}
FILLER = {"I": " partial thought ", "R": " find the missing fact ", "A": " done ", "S": ""}


def sequence_text(kinds: str) -> str:
    return "".join(LETTER[k].surface + FILLER[k] for k in kinds)


class TestValidate:
    def test_direct_answer(self):
        report = validate("[ANSWER] Paris [SOLVED]", 3)
        assert report.valid and report.retrieve_count == 0

    def test_two_rounds(self):
        text = sequence_text("IRIRAS")
        report = validate(text, 3)
        assert report.valid and report.retrieve_count == 2

    def test_solved_alone(self):
        report = validate("[SOLVED]", 3)
        assert not report.valid
        assert "Solved without Answer" in report.violations

    def test_empty_query_flagged(self):
        report = validate("[INTERMEDIARY] x [RETRIEVE]   [ANSWER] y [SOLVED]", 3)
        assert not report.valid
        assert "Retrieve with empty query" in report.violations

    def test_budget_breach(self):
        report = validate(sequence_text("IRIRAS"), 1)
        assert not report.valid
        assert report.retrieve_count == 2

    def test_plain_text_trajectory_invalid(self):
        assert not validate("just words", 3).valid

    def test_whitespace_tolerated(self):
        assert validate("  [ANSWER] x [SOLVED] \n", 3).valid

    def test_oracle_agreement_short(self):
        # full-depth enumeration lives in the acceptance suite
        for length in range(0, 6):
            for kinds in itertools.product("IRAS", repeat=length):
                kinds = "".join(kinds)
                got = validate(sequence_text(kinds), 8).valid
                assert got == oracle_valid(kinds), kinds

    def test_retrieve_count_monotone_under_prefixing(self):
        tail = "[ANSWER] x [SOLVED]"
        previous = -1
        for rounds in range(0, 6):
            text = "[INTERMEDIARY] a [RETRIEVE] q " * rounds + tail
            report = validate(text, 10)
            assert report.valid
            assert report.retrieve_count == rounds > previous or rounds == 0
            previous = report.retrieve_count


# the readers as they walked a parsed trajectory's segments, before they read the text
def segment_validate(t: Trajectory, max_rounds: int) -> ValidationReport:
    violations, markers = [], []
    retrieve_count = 0
    state = OPEN
    for marker, text in t.segments:
        if marker is None:
            if text.strip():
                violations.append("plain text before first control token")
            continue
        markers.append(marker)
        if marker is R and state != END:
            retrieve_count += 1
            if not text.strip():
                violations.append("Retrieve with empty query")
        state, breach = TRANSITIONS[state, marker]
        if breach:
            violations.append(breach)
        elif state == END and text.strip():
            violations.append("text after Solved")
    if END_BREACH[state]:
        violations.append(END_BREACH[state])
    if retrieve_count > max_rounds:
        violations.append(f"retrieve count {retrieve_count} exceeds max rounds {max_rounds}")
    return ValidationReport(not violations, tuple(violations), retrieve_count, tuple(markers))


def segment_last_answer(t: Trajectory) -> str | None:
    for marker, text in reversed(t.segments):
        if marker is A:
            return text
    return None


def segment_control_sequence(t: Trajectory) -> list[ControlToken]:
    return [seg.marker for seg in t.segments if seg.marker is not None]


# whole and partial surfaces, words, and ASCII and Unicode whitespace
READER_TEXT = st.lists(
    st.sampled_from(SURFACES + ["[ANS", "SOLVED]", "[RETRIE", "VE]", "[", "]", "paris", "x",
                                " ", "\n", "\t", "\xa0", "\u2028", "\u3000"])
    | st.text(max_size=4),
    max_size=14,
).map("".join)


@given(READER_TEXT, st.integers(0, 4))
@example("lead [ANSWER] x [SOLVED]", 3)
@example("[INTERMEDIARY] a [RETRIEVE] \u3000 [ANSWER] x [SOLVED] y", 0)
@example("[ANSWER] a [SOLVED][ANSWER] b [ANS", 2)
@settings(max_examples=500, derandomize=True)
def test_text_readers_agree_with_the_segment_walk(text, max_rounds):
    t = parse_trajectory(text)
    assert validate(text, max_rounds) == segment_validate(t, max_rounds)
    assert last_answer(text) == segment_last_answer(t)
    assert control_sequence(text) == segment_control_sequence(t)


def test_validate_reads_a_planner_transcript_with_its_fallback_message():
    # a plain turn and the fallback message after it join the query of the marker
    # before them in the planner's transcript text
    index = build_index([Passage("p1", "T", "some text")])
    turns = ["[INTERMEDIARY] a [RETRIEVE] q", "note", "[ANSWER] x [SOLVED]"]
    ep = run_episode("q?", PlannerConfig(), ReplayGenerator(turns), index)
    assert ep.transcript == (
        f"[INTERMEDIARY] a [RETRIEVE] q\nnote\n{FALLBACK_MESSAGE}\n[ANSWER] x [SOLVED]")
    assert validate(ep.transcript, 3).valid


class TestControlSequence:
    def test_projection(self):
        assert control_sequence(sequence_text("IRIRAS")) == [I, R, I, R, A, S]

    def test_direct(self):
        assert control_sequence("[ANSWER] x [SOLVED]") == [A, S]

    def test_empty(self):
        assert control_sequence("") == []

    def test_text_dropped(self):
        assert control_sequence("lead [ANSWER] body [SOLVED]") == [A, S]


def test_render_segments_is_concatenation():
    segs = [Segment(None, "pre"), Segment(I, " a "), Segment(R, " q")]
    assert render_segments(segs) == "pre[INTERMEDIARY] a [RETRIEVE] q"
