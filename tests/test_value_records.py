"""The value records built per turn, search, question, rollout or run are immutable NamedTuples.

Each record below comes from the code that builds it in a run. Assigning a field
raises, a record hashes exactly when its fields do, and keyword construction and
comparison with a plain tuple still work.
"""

import argparse

import pytest

from planrag.bm25 import Passage, build_index
from planrag.cli import SETTINGS, _chat_generator
from planrag.control import (
    ControlToken,
    ScannerState,
    Segment,
    TextRun,
    TokenEvent,
    parse_trajectory,
    read_turn,
    scan_stream,
    validate,
)
from planrag.generator import EvidenceBlock, GenerationContext, ReplayGenerator
from planrag.metrics import (
    MetricRow,
    NormalizationMode,
    ScoreReport,
    avg_score,
    bleu_reference,
    normalize_refs,
    retrieval_stats,
    rouge,
    score_row,
)
from planrag.planner import Episode
from planrag.reward import prepare, total_reward
from planrag.supervision import build_sample, probe_parametric, probe_retrieval

TARGET = "[INTERMEDIARY] born in [RETRIEVE] Ada Lovelace birth year [ANSWER] 1815 [SOLVED]"


def _records():
    """(name, record, hashable) for every converted type, each built as a run builds it."""
    passage = Passage(id="p1", title="Ada", text="Ada Lovelace was born in 1815")
    index = build_index([passage, Passage("p2", "Babbage", "Charles Babbage")])
    [hit] = index.search("Lovelace", 3)
    trajectory = parse_trajectory(TARGET)
    refs = normalize_refs(["1815"], NormalizationMode.SQUAD_STYLE)
    block = EvidenceBlock(query="Lovelace", results=[hit])
    context = GenerationContext("preamble", "When was Ada born?", (block,), TARGET)
    emission = ReplayGenerator(["[ANSWER] 1815 [SOLVED]"]).emit_turn(context)
    prepared = prepare(["1815"], TARGET, 3)
    outcome = probe_retrieval("Ada Lovelace", refs, ReplayGenerator(["1815"]), index)
    parametric = probe_parametric("Ada Lovelace", refs, ReplayGenerator(["1815"] * 3))
    sample = build_sample("Ada Lovelace", ["1815"], parametric, outcome, None, qid="q1")
    settings = argparse.Namespace(**{key: spec[1] for key, spec in SETTINGS.items()})
    settings.endpoint, settings.model = "http://backend/v1/chat", "m"
    row = score_row("demo", ["1815"], [["1815"]])
    report = ScoreReport([row], avg_score([row]), {"demo": retrieval_stats([Episode("q")])},
                         {1: 0.0, 3: 0.0}, NormalizationMode.SQUAD_STYLE.value)
    events, state = scan_stream("[ANSWER] 1815 [SOL")
    text_run, token_event = (next(e for e in events if isinstance(e, kind))
                             for kind in (TextRun, TokenEvent))
    return [
        ("Passage", passage, True),
        ("RetrievedPassage", hit, True),
        ("Segment", trajectory.segments[0], True),
        ("Trajectory", trajectory, True),
        ("ValidationReport", validate(TARGET, 3), True),
        ("TurnReading", read_turn(TARGET), True),
        ("EvidenceBlock", block, False),  # its results are a list
        ("GenerationContext", context, False),  # through its evidence blocks
        ("GeneratorEmission", emission, True),
        ("GeneratorSettings", _chat_generator(settings, "").settings, True),
        ("References", refs, True),
        ("RougeScores", rouge("born 1815", ["1815"]), True),
        ("MetricRow", score_row("demo", ["1815"], [["1815"]]), True),
        ("ScoreReport", report, False),  # its rows are a list
        ("BleuReference", bleu_reference("born in 1815"), False),  # its counts are Counters
        ("RewardBreakdown", total_reward(TARGET, prepared), True),
        ("PreparedSample", prepared, False),  # through its reference's Counters
        ("ProbeAttempt", outcome.attempts[0], True),
        ("ProbeOutcome", outcome, True),
        ("SupervisionSample", sample, False),  # its references are a list
        ("TextRun", text_run, True),
        ("TokenEvent", token_event, True),
        ("ScannerState", state, True),
    ]


RECORDS = _records()
CASES = pytest.mark.parametrize("record, hashable", [case[1:] for case in RECORDS],
                                ids=[case[0] for case in RECORDS])


@CASES
def test_assigning_a_field_raises(record, hashable):
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))


@CASES
def test_a_record_hashes_exactly_when_its_fields_do(record, hashable):
    if hashable:
        assert hash(record) == hash(tuple(record))
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)


@CASES
def test_keyword_construction_gives_an_equal_record(record, hashable):
    rebuilt = type(record)(**record._asdict())
    assert rebuilt == record
    assert type(rebuilt) is type(record)


@CASES
def test_a_record_equals_the_plain_tuple_of_its_fields(record, hashable):
    assert record == tuple(record)
    assert record._replace() == record


def test_records_keep_their_defaults_and_properties():
    passage = Passage(id="p1", title="T", text="x")
    assert passage._replace(text="y") == ("p1", "T", "y")
    assert scan_stream("")[1] == ScannerState("")
    context = GenerationContext(system_preamble="s", question="q")
    assert (context.evidence_blocks, context.transcript, context.finalize_required) == (
        (), "", False)
    assert Segment(ControlToken.ANSWER, " a").marker is ControlToken.ANSWER
    outcome = {name: record for name, record, _ in RECORDS}["ProbeOutcome"]
    assert outcome.passages_used == ("p1",)
    assert MetricRow("d", 1.0, 0.5, 0.25)._asdict() == {
        "dataset": "d", "em": 1.0, "rouge_avg": 0.5, "f1": 0.25}
