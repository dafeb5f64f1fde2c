"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Expected values come from brute-force oracles computed here,
independently of the implementation under test.
"""

import itertools
import json
import math
import random
import re
import string
import time

import pytest

from planrag.bm25 import Passage, build_index
from planrag.cli import main
from planrag.control import (
    ControlToken,
    ScannerState,
    TextRun,
    coalesce_events,
    control_sequence,
    parse_trajectory,
    scan_stream,
    validate,
)
from planrag.generator import GenerationContext, GeneratorEmission, ReplayGenerator
from planrag.metrics import (
    MetricRow,
    NormalizationMode,
    ScoreReport,
    avg_score,
    bleu,
    bleu_reference,
    cover_em,
    exact_match,
    normalize,
    normalize_refs,
    rouge,
    token_f1,
)
from planrag.planner import FallbackPolicy, PlannerConfig, run_episode
from planrag.reward import prepare, total_reward
from planrag.supervision import (
    SupervisionKind,
    build_sample,
    classify,
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

RETRIEVE_TURN = "[INTERMEDIARY] need more evidence [RETRIEVE] supporting facts"
ANSWER_TURN = "[ANSWER] Paris [SOLVED]"


def ok(n: int, message: str) -> None:
    print(f"ACCEPTANCE {n:02d} PASS: {message}")


# --- 1. grammar oracle ---------------------------------------------------------


def test_criterion_1_grammar_oracle():
    filler = {"I": " partial thought ", "R": " a concrete query ", "A": " final ", "S": ""}
    letter = {"I": I, "R": R, "A": A, "S": S}
    started = time.perf_counter()
    checked = 0
    for length in range(0, 9):
        for kinds in itertools.product("IRAS", repeat=length):
            kinds = "".join(kinds)
            text = "".join(letter[k].surface + filler[k] for k in kinds)
            got = validate(text, 8).valid
            want = re.fullmatch(r"(IR)*AS", kinds) is not None
            assert got == want, f"disagreement on {kinds!r}"
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked == (4**9 - 1) // 3
    assert elapsed < 10.0
    ok(1, f"validate matches the regular-language oracle on {checked} sequences "
          f"({elapsed:.1f}s)")


# --- 2. streaming equivalence --------------------------------------------------


def scan_chunks(chunks):
    state = ScannerState()
    events = []
    for chunk in chunks:
        new, state = scan_stream(chunk, state)
        events.extend(new)
    new, _ = scan_stream("", state, final=True)
    events.extend(new)
    return coalesce_events(events)


def test_criterion_2_streaming_equivalence():
    rng = random.Random(24601)
    pieces = [t.surface for t in ControlToken] + [
        "[", "]", "[ANSW", "ER]", "RETRIEVE", " plain text ", "x", "",
    ]
    started = time.perf_counter()
    for _ in range(1000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 10)))
        single = scan_chunks([text])
        cuts = sorted(rng.randint(0, len(text)) for _ in range(rng.randint(0, 7)))
        chunks, prev = [], 0
        for cut in cuts + [len(text)]:
            chunks.append(text[prev:cut])
            prev = cut
        assert scan_chunks(chunks) == single
        rendered = "".join(
            e.text if isinstance(e, TextRun) else e.token.surface for e in single
        )
        assert rendered == text
        assert parse_trajectory(text).render() == text
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    ok(2, f"1000 random strings scan identically under random chunkings ({elapsed:.1f}s)")


# --- 3. BM25 oracle -------------------------------------------------------------


def oracle_tokens(s):
    return [t for t in re.split(r"[\W_]+", s.lower()) if t]


def oracle_rank(passages, docs, df, avg, query, k1=1.2, b=0.75):
    n = len(docs)
    terms = sorted(set(oracle_tokens(query)))
    scored = []
    for p, d in zip(passages, docs):
        score = 0.0
        for term in terms:
            tf = d.count(term)
            if tf and term in df:
                idf = math.log((n - df[term] + 0.5) / (df[term] + 0.5) + 1)
                score += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(d) / avg))
        if score > 0:
            scored.append((p.id, score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


def test_criterion_3_bm25_oracle():
    rng = random.Random(7331)
    started = time.perf_counter()
    total_queries = 0
    for size, n_queries in ((137, 80), (1000, 120)):
        vocab = [
            "".join(rng.choices(string.ascii_lowercase, k=rng.randint(2, 6)))
            for _ in range(60)
        ]
        passages = [
            Passage(
                f"p{i:05d}",
                " ".join(rng.choices(vocab, k=rng.randint(0, 3))),
                " ".join(rng.choices(vocab, k=rng.randint(3, 30))),
            )
            for i in range(size)
        ]
        idx = build_index(passages)
        docs = [oracle_tokens(p.title + " " + p.text) for p in passages]
        avg = sum(map(len, docs)) / len(docs)
        df = {}
        for d in docs:
            for term in set(d):
                df[term] = df.get(term, 0) + 1
        for _ in range(n_queries):
            query = " ".join(rng.choices(vocab + ["absentterm"], k=rng.randint(1, 5)))
            k = rng.randint(1, 20)
            got = idx.search(query, k)
            want = oracle_rank(passages, docs, df, avg, query)[:k]
            assert [r.passage.id for r in got] == [pid for pid, _ in want], query
            for r, (_, score) in zip(got, want):
                assert abs(r.score - score) < 1e-9
            total_queries += 1
    elapsed = time.perf_counter() - started
    assert total_queries == 200
    assert elapsed < 30.0
    ok(3, f"top-k search equals brute-force scoring on {total_queries} queries "
          f"({elapsed:.1f}s)")


# --- 4. budget safety -----------------------------------------------------------


class AdaptiveRetriever:
    """Retrieves whenever allowed; answers only when told to finalize."""

    def __init__(self, target=10**9):
        self.target = target
        self.rounds = 0
        self.finalize_evidence_counts = []

    def emit_turn(self, ctx: GenerationContext) -> GeneratorEmission:
        if ctx.finalize_required:
            self.finalize_evidence_counts.append(len(ctx.evidence_blocks))
            return GeneratorEmission(text=ANSWER_TURN)
        if self.rounds < self.target:
            self.rounds += 1
            return GeneratorEmission(text=RETRIEVE_TURN)
        return GeneratorEmission(text=ANSWER_TURN)


def budget_index():
    return build_index(
        [Passage(f"p{i}", "", f"supporting facts item number {i}") for i in range(8)]
    )


ADVERSARIAL_SCRIPTS = [
    [RETRIEVE_TURN] * 30,
    ["[SOLVED]"] + [RETRIEVE_TURN] * 30,
    ["[INTERMEDIARY] going nowhere"] * 4,
    ["[INTERMEDIARY] x [RETRIEVE]    "] * 4,
    ["[RETRIEVE] rogue query"] * 4,
    ["plain rambling, no tokens"] * 4,
    [RETRIEVE_TURN, "[SOLVED]", RETRIEVE_TURN, ANSWER_TURN] * 8,
]


def test_criterion_4_budget_safety():
    idx = budget_index()
    started = time.perf_counter()
    episodes = 0
    for budget in (0, 1, 3, 5, 7, 10):
        cfg = PlannerConfig(max_rounds=budget)
        gen = AdaptiveRetriever()
        ep = run_episode("q?", cfg, gen, idx)
        assert ep.rounds_used <= budget
        if budget > 0:
            assert ep.rounds_used == budget
            assert ep.status == "completed"
        # forced finalization fired exactly once, exactly at the budget
        assert gen.finalize_evidence_counts == [budget]
        episodes += 1
        for script in ADVERSARIAL_SCRIPTS:
            for policy in FallbackPolicy:
                cfg_p = PlannerConfig(max_rounds=budget, fallback_policy=policy)
                ep = run_episode("q?", cfg_p, ReplayGenerator(list(script)), idx)
                assert ep.rounds_used <= budget
                assert ep.rounds_used == len(ep.memory)
                episodes += 1
    # realized mean counts reproduce the budget-table shape with replay data
    table = []
    for budget in (3, 5, 7, 10):
        gen = AdaptiveRetriever(target=4)
        ep = run_episode("q?", PlannerConfig(max_rounds=budget), gen, idx)
        table.append((budget, ep.rounds_used))
    assert table == [(3, 3), (5, 4), (7, 4), (10, 4)]
    elapsed = time.perf_counter() - started
    assert elapsed < 20.0
    ok(4, f"{episodes} adversarial episodes stayed within budget; forced "
          f"finalization fired exactly at the cap ({elapsed:.1f}s)")


# --- 5. case-study replays ------------------------------------------------------


def test_criterion_5_case_replays():
    idx = build_index(
        [
            Passage("c1", "Slovakia", "Slovakia was part of Czechoslovakia until 1993"),
            Passage("c2", "Halftime", "The halftime show artist for the upcoming Super Bowl"),
            Passage("c3", "Unification", "The empire was proclaimed in 1871"),
        ]
    )
    cfg = PlannerConfig()

    # case 1: partial internal knowledge first, then a reformulated sub-question
    gen1 = ReplayGenerator(
        [
            "[INTERMEDIARY] Slovakia is a country in Central Europe "
            "[RETRIEVE] what country was Slovakia part of",
            "[ANSWER] Czechoslovakia [SOLVED]",
        ]
    )
    ep1 = run_episode("what country was Slovakia?", cfg, gen1, idx)
    assert ep1.control_names()[:2] == ["INTERMEDIARY", "RETRIEVE"]
    assert ep1.status == "completed"

    # case 2: near-identical intermediaries, then a refined second query
    refined = (
        "What is the name of the artist performing in the halftime show "
        "for the upcoming Super Bowl?"
    )
    gen2 = ReplayGenerator(
        [
            "[INTERMEDIARY] the performer has been announced [RETRIEVE] halftime show",
            f"[INTERMEDIARY] the performer has been announced [RETRIEVE] {refined}",
            "[ANSWER] the announced artist [SOLVED]",
        ]
    )
    ep2 = run_episode("who performs at halftime?", cfg, gen2, idx)
    assert ep2.control_names() == [
        "INTERMEDIARY", "RETRIEVE", "INTERMEDIARY", "RETRIEVE", "ANSWER", "SOLVED",
    ]
    assert ep2.memory[1].query == refined
    assert ep2.rounds_used == 2

    # case 3: revise a wrong parametric year, then compress to a final answer
    gen3 = ReplayGenerator(
        [
            "[INTERMEDIARY] it was around 1880 [RETRIEVE] when was the empire proclaimed",
            "[INTERMEDIARY] the year was 1871 [RETRIEVE] significance of the proclamation",
            "[ANSWER] 1871 A.D. [SOLVED]",
        ]
    )
    ep3 = run_episode("when was the empire proclaimed?", cfg, gen3, idx)
    assert ep3.final_answer == "1871 A.D."
    assert ep3.status == "completed"
    ok(5, "the three scripted case studies reproduce their trajectories token for token")


# --- 6. metrics oracle ----------------------------------------------------------


CURATED_PAIRS = [
    ("Paris", ["paris"]),
    ("in Paris", ["Paris"]),
    ("the capital is paris", ["Paris"]),
    ("par is", ["Paris"]),
    ("the cat sat", ["cat sat down"]),
    ("a b c", ["a x c"]),
    ("The Eiffel Tower.", ["eiffel tower"]),
    ("1871 A.D.", ["1871 A.D."]),
    ("", ["x"]),
    ("x", ["x", "y z"]),
    ("quick brown fox jumps", ["the quick brown fox"]),
    ("he was born in 1952 in Hawaii", ["1952"]),
    ("blue", ["red", "green"]),
    ("new york city", ["New York"]),
    ("An answer, with punctuation!", ["answer with punctuation"]),
    ("same same same", ["same"]),
    ("alpha beta gamma delta epsilon", ["beta gamma delta"]),
    ("one two", ["one two three four five"]),
    ("word", ["word word word"]),
    ("  spaced    out  answer ", ["spaced out answer"]),
]


def ref_norm(s, mode):
    s = s.lower()
    if mode is NormalizationMode.SQUAD_STYLE:
        s = "".join(c for c in s if c not in set(string.punctuation))
        s = " ".join(w for w in s.split() if w not in ("a", "an", "the"))
    return " ".join(s.split())


def ref_overlap(xs, ys):
    pool = list(ys)
    hits = 0
    for x in xs:
        if x in pool:
            pool.remove(x)
            hits += 1
    return hits


def ref_f(hits, np, nr):
    if np == 0 and nr == 0:
        return 1.0
    if hits == 0 or np == 0 or nr == 0:
        return 0.0
    p, r = hits / np, hits / nr
    return 2 * p * r / (p + r)


def ref_grams(toks, n):
    return [tuple(toks[i : i + n]) for i in range(len(toks) - n + 1)]


def ref_lcs(a, b):
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = (
                table[i - 1][j - 1] + 1
                if a[i - 1] == b[j - 1]
                else max(table[i - 1][j], table[i][j - 1])
            )
    return table[-1][-1]


def ref_bleu(pred, ref):
    p = ref_norm(pred, NormalizationMode.MINIMAL).split()
    r = ref_norm(ref, NormalizationMode.MINIMAL).split()
    if not p:
        return 0.0
    orders = min(4, len(p))
    logs = []
    for n in range(1, orders + 1):
        hits = ref_overlap(ref_grams(p, n), ref_grams(r, n))
        if n == 1:
            if hits == 0:
                return 0.0
            logs.append(math.log(hits / len(ref_grams(p, 1))))
        else:
            logs.append(math.log((hits + 1) / (len(ref_grams(p, n)) + 1)))
    bp = 1.0 if len(p) > len(r) else math.exp(1 - len(r) / len(p))
    return bp * math.exp(sum(logs) / orders)


def em_and_cover(pred, refs, mode):
    """EM and CoverEM of a raw prediction against raw references."""
    normalized, prepared = normalize(pred, mode), normalize_refs(refs, mode)
    return exact_match(normalized, prepared), cover_em(normalized, prepared)


def test_criterion_6_metrics_oracle():
    for mode in NormalizationMode:
        for pred, refs in CURATED_PAIRS:
            np_ = ref_norm(pred, mode)
            want_em = int(any(np_ == ref_norm(r, mode) for r in refs))
            want_cover = int(any(ref_norm(r, mode) in np_ for r in refs))
            assert em_and_cover(pred, refs, mode) == (want_em, want_cover)

            ptoks = np_.split()
            want_f1 = max(
                ref_f(
                    ref_overlap(ptoks, ref_norm(r, mode).split()),
                    len(ptoks),
                    len(ref_norm(r, mode).split()),
                )
                for r in refs
            )
            assert token_f1(pred, refs, mode) == pytest.approx(want_f1, abs=1e-9)

            got = rouge(pred, refs, mode)
            for n, got_n in ((1, got.r1), (2, got.r2)):
                want_n = 0.0
                for r in refs:
                    pg = ref_grams(ptoks, n)
                    rg = ref_grams(ref_norm(r, mode).split(), n)
                    if pg and rg:
                        want_n = max(want_n, ref_f(ref_overlap(pg, rg), len(pg), len(rg)))
                assert got_n == pytest.approx(want_n, abs=1e-9)
            want_l = 0.0
            for r in refs:
                rtoks = ref_norm(r, mode).split()
                if ptoks and rtoks:
                    want_l = max(want_l, ref_f(ref_lcs(ptoks, rtoks), len(ptoks), len(rtoks)))
            assert got.rl == pytest.approx(want_l, abs=1e-9)
            assert got.avg == pytest.approx((got.r1 + got.r2 + got.rl) / 3, abs=1e-12)

        for pred, refs in CURATED_PAIRS:
            got = bleu(pred, bleu_reference(refs[0]))
            assert got == pytest.approx(ref_bleu(pred, refs[0]), abs=1e-9)

    rng = random.Random(8080)
    vocab = ["paris", "berlin", "rome", "the", "a", "capital", "1871", "x", "of"]
    for _ in range(10_000):
        pred = " ".join(rng.choices(vocab, k=rng.randint(0, 6)))
        refs = [" ".join(rng.choices(vocab, k=rng.randint(1, 4)))]
        mode = rng.choice(list(NormalizationMode))
        em, cover = em_and_cover(pred, refs, mode)
        assert em <= cover
    ok(6, "EM/CoverEM/F1/ROUGE/BLEU match independent oracles on 20 curated pairs; "
          "EM <= CoverEM held on 10000 random pairs")


# --- 7. aggregation -------------------------------------------------------------


def test_criterion_7_avg_score():
    cells = [
        ("hotpot", 0.330, 0.376, 0.441),
        ("popqa", 0.386, 0.375, 0.384),
        ("nq", 0.321, 0.358, 0.320),
        ("webq", 0.314, 0.393, 0.346),
        ("trivia", 0.579, 0.559, 0.674),
    ]
    rows = [MetricRow(name, em, rg, f1) for name, em, rg, f1 in cells]
    by_hand = sum(v for _, em, rg, f1 in cells for v in (em, rg, f1)) / 15
    got = avg_score(rows)
    assert got == by_hand  # identical arithmetic, exact equality
    report = ScoreReport(rows=rows, avg_score=got, normalization="squad")
    table = report.render_table()
    lines = table.strip().splitlines()
    assert lines[0].split() == ["Dataset", "EM", "ROUGE", "F1"]
    assert len(lines) == 7  # header + five datasets + Avg.Score
    assert lines[-1].split()[0] == "Avg.Score"
    assert f"{100 * by_hand:.1f}" in lines[-1]
    ok(7, f"unweighted mean over the 5x3 table equals hand arithmetic "
          f"({100 * by_hand:.1f}); table layout matches")


# --- 8. supervision partition ---------------------------------------------------


def supervision_world():
    """40 questions with scripted probes and hand-assigned kind labels."""
    rng = random.Random(616)
    cases = []
    kinds = [SupervisionKind.ALPHA, SupervisionKind.BETA,
             SupervisionKind.GAMMA, SupervisionKind.THETA] * 10
    for i, kind in enumerate(kinds):
        gold = f"gold{i}"
        if kind is SupervisionKind.ALPHA:
            probe_turns = [gold, gold, gold, "anything"]
        elif kind is SupervisionKind.BETA:
            probe_turns = [f"i believe {gold} mostly", "wrong", "wrong", "wrong"]
        elif kind is SupervisionKind.GAMMA:
            probe_turns = ["wrong", "wrong", "wrong", "still wrong"]
        else:
            probe_turns = ["wrong", "wrong", "wrong", f"{gold} region mostly"]
        cases.append(
            {
                "id": f"q{i:02d}",
                "question": f"synthetic question {i}",
                "answers": [gold],
                "kind": kind,
                "probe_turns": probe_turns,
                "teacher_turns": [f"sharper query about {gold}"],
            }
        )
    rng.shuffle(cases)
    return cases


def test_criterion_8_supervision_partition():
    idx = build_index(
        [Passage(f"p{i}", "", f"synthetic question passage {i}") for i in range(5)]
    )
    matches = 0
    cases = supervision_world()
    for case in cases:
        gen = ReplayGenerator(case["probe_turns"])
        refs = normalize_refs(case["answers"], NormalizationMode.SQUAD_STYLE)
        parametric = probe_parametric(case["question"], refs, gen, 3)
        retrieval = probe_retrieval(case["question"], refs, gen, idx)
        kind = classify(parametric, retrieval)
        assert kind is case["kind"], case["id"]
        teacher_query = None
        if kind is SupervisionKind.GAMMA:
            teacher_query = teacher_followup_query(
                case["question"],
                retrieval.attempts[0].answer,
                [],
                ReplayGenerator(case["teacher_turns"]),
            )
        sample = build_sample(
            case["question"], case["answers"], parametric, retrieval,
            teacher_query, qid=case["id"],
        )
        assert sample.kind is kind
        assert validate(sample.target, 3).valid
        seq = control_sequence(sample.target)
        retrieves = seq.count(R)
        if kind is SupervisionKind.ALPHA:
            assert retrieves == 0 and seq == [A, S]
        elif kind is SupervisionKind.BETA:
            assert seq[:2] == [I, R]
        elif kind is SupervisionKind.GAMMA:
            assert retrieves >= 2 and seq[-2:] == [A, S]
        else:
            assert seq == [I, R, A, S]
        matches += 1
    assert matches == 40
    ok(8, "classifier matched all 40 hand labels; every target validates and "
          "satisfies its kind invariant")


# --- 9. reward algebra ----------------------------------------------------------


def test_criterion_9_reward_algebra():
    from planrag.supervision import ProbeAttempt, ProbeOutcome

    hit = ProbeAttempt(answer="the gold answer", em=1, cover_em=1)
    sample = build_sample(
        "q?", ["the gold answer"],
        ProbeOutcome(attempts=(hit,), with_retrieval=False),
        ProbeOutcome(attempts=(hit,), with_retrieval=True),
        qid="s",
    )
    prepared = prepare(sample.references, sample.target, 3)
    perfect = total_reward(sample.target, prepared)
    assert perfect.total == pytest.approx(1.5)
    assert perfect.total == perfect.r_ans + perfect.r_ctrl

    invalid = total_reward("[SOLVED]", prepared)
    assert invalid.r_ctrl == -0.5

    rng = random.Random(4242)
    pieces = [
        "[ANSWER]", "[SOLVED]", "[INTERMEDIARY]", "[RETRIEVE]",
        " the gold ", " answer ", " noise ", " q ", "",
    ]
    for _ in range(2000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 10)))
        breakdown = total_reward(text, prepared)
        assert breakdown.total == breakdown.r_ans + breakdown.r_ctrl
        assert -0.5 <= breakdown.total <= 1.5 + 1e-12
    ok(9, "reward is exactly additive, 1.5 on the perfect rollout, -0.5 control "
          "on invalid grammar, bounded on 2000 fuzz rollouts")


# --- 10. end-to-end determinism -------------------------------------------------


def test_criterion_10_cli_determinism(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        "".join(
            json.dumps({"id": f"p{i}", "title": f"T{i}", "text": f"text about topic {i} paris"})
            + "\n"
            for i in range(6)
        )
    )
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text(
        "".join(
            json.dumps({"id": f"q{i}", "question": f"question {i}?", "answers": ["paris"]})
            + "\n"
            for i in range(6)
        )
    )
    scripts = tmp_path / "scripts.jsonl"
    scripts.write_text(
        "".join(
            json.dumps(
                {
                    "id": f"q{i}",
                    "turns": (
                        ["[INTERMEDIARY] checking [RETRIEVE] topic paris",
                         "[ANSWER] paris [SOLVED]"]
                        if i % 2
                        else ["[ANSWER] paris [SOLVED]"]
                    ),
                }
            )
            + "\n"
            for i in range(6)
        )
    )
    index_path = tmp_path / "index.json"
    assert main(["index", "--corpus", str(corpus), "--out", str(index_path)]) == 0

    outputs = []
    for name, extra in (
        ("r1", []), ("r2", []), ("r3", []), ("r4", ["--parallelism", "4"]),
    ):
        out_dir = tmp_path / name
        code = main(
            ["run", "--dataset", str(dataset), "--index", str(index_path),
             "--scripts", str(scripts), "--out-dir", str(out_dir), *extra]
        )
        assert code == 0
        outputs.append(
            (
                (out_dir / "transcripts.jsonl").read_bytes(),
                (out_dir / "report.json").read_bytes(),
                (out_dir / "report.txt").read_bytes(),
            )
        )
    assert len(set(outputs)) == 1
    ok(10, "replay-backed runs are byte-identical across 3 repeats and "
           "parallelism in {1, 4}")
