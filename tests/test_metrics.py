"""Metric correctness against independently coded oracles."""

import math
import random
import re
import string
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planrag.bm25 import Passage, RetrievedPassage
from planrag import metrics
from planrag.metrics import (
    MetricRow,
    NormalizationMode,
    References,
    RougeScores,
    ScoreReport,
    answer_presence_at_k,
    avg_score,
    bleu,
    bleu_reference,
    cover_em,
    exact_match,
    normalize,
    normalize_refs,
    retrieval_stats,
    rouge,
    score_row,
    token_f1,
)
from planrag.generator import EvidenceBlock
from planrag.planner import Episode

MIN = NormalizationMode.MINIMAL
SQUAD = NormalizationMode.SQUAD_STYLE

words = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
phrases = st.lists(words, min_size=0, max_size=8).map(" ".join)
# answers made of a few shared words, control-token surfaces and parts of them,
# whitespace, punctuation and any other code points
mixed_answers = st.lists(
    st.sampled_from([" a", " b", " the", " An", " B.", " é", "[ANSWER]", "[RETRIE", "]", "\n"])
    | st.text(max_size=3),
    max_size=14,
).map("".join)


def em(pred, refs, mode=SQUAD):
    """exact_match of a raw prediction against raw references."""
    return exact_match(normalize(pred, mode), normalize_refs(refs, mode))


def cover(pred, refs, mode=SQUAD):
    """cover_em of a raw prediction against raw references."""
    return cover_em(normalize(pred, mode), normalize_refs(refs, mode))


def bleu_of(pred, ref):
    """bleu of a prediction against a reference text."""
    return bleu(pred, bleu_reference(ref))


# --- reference implementations, written independently of the package ---------


def ref_norm(s, mode):
    """SQuAD's normalize_answer: lowercase, drop punctuation, blank out articles, fix spaces."""
    s = s.lower()
    if mode is SQUAD:
        s = "".join(c for c in s if c not in set(string.punctuation))
        s = re.sub(r"\b(a|an|the)\b", " ", s)
    return " ".join(s.split())


def ref_f1(pred, ref, mode):
    p, r = ref_norm(pred, mode).split(), ref_norm(ref, mode).split()
    if not p and not r:
        return 1.0
    overlap = 0
    pool = list(r)
    for tok in p:
        if tok in pool:
            pool.remove(tok)
            overlap += 1
    if overlap == 0:
        return 0.0
    prec, rec = overlap / len(p), overlap / len(r)
    return 2 * prec * rec / (prec + rec)


def ref_ngram_f(pred_toks, ref_toks, n):
    pn = [tuple(pred_toks[i : i + n]) for i in range(len(pred_toks) - n + 1)]
    rn = [tuple(ref_toks[i : i + n]) for i in range(len(ref_toks) - n + 1)]
    if not pn or not rn:
        return 0.0
    pool = list(rn)
    hits = 0
    for g in pn:
        if g in pool:
            pool.remove(g)
            hits += 1
    if hits == 0:
        return 0.0
    prec, rec = hits / len(pn), hits / len(rn)
    return 2 * prec * rec / (prec + rec)


def counter_overlap_scores(pred_toks, refs_toks):
    """Token F1 and ROUGE-1/2/L as first written, intersecting Counters."""

    def f1_of(overlap, n_pred, n_ref):
        if n_pred == 0 and n_ref == 0:
            return 1.0
        if n_pred == 0 or n_ref == 0 or overlap == 0:
            return 0.0
        precision, recall = overlap / n_pred, overlap / n_ref
        return 2 * precision * recall / (precision + recall)

    def bigrams(toks):
        return list(zip(toks, toks[1:]))

    f1 = r1 = r2 = rl = 0.0
    for ref in refs_toks:
        unigram = f1_of(sum((Counter(pred_toks) & Counter(ref)).values()), len(pred_toks), len(ref))
        f1 = max(f1, unigram)
        if pred_toks or ref:
            r1 = max(r1, unigram)
            rl = max(rl, f1_of(ref_lcs(pred_toks, ref), len(pred_toks), len(ref)))
        pb, rb = bigrams(pred_toks), bigrams(ref)
        if pb and rb:
            r2 = max(r2, f1_of(sum((Counter(pb) & Counter(rb)).values()), len(pb), len(rb)))
    return f1, RougeScores(r1, r2, rl, (r1 + r2 + rl) / 3)


def ref_lcs(a, b):
    best = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                best[i][j] = best[i - 1][j - 1] + 1
            else:
                best[i][j] = max(best[i - 1][j], best[i][j - 1])
    return best[-1][-1]


def ref_bleu(pred, ref):
    p = ref_norm(pred, MIN).split()
    r = ref_norm(ref, MIN).split()
    if not p:
        return 0.0
    orders = min(4, len(p))
    logs = []
    for n in range(1, orders + 1):
        pn = [tuple(p[i : i + n]) for i in range(len(p) - n + 1)]
        rn = [tuple(r[i : i + n]) for i in range(len(r) - n + 1)]
        pool = list(rn)
        hits = 0
        for g in pn:
            if g in pool:
                pool.remove(g)
                hits += 1
        if n == 1:
            if hits == 0:
                return 0.0
            logs.append(math.log(hits / len(pn)))
        else:
            logs.append(math.log((hits + 1) / (len(pn) + 1)))
    geo = math.exp(sum(logs) / orders)
    bp = 1.0 if len(p) > len(r) else math.exp(1 - len(r) / max(len(p), 1))
    return bp * geo


def counter_bleu(pred, ref):
    """bleu as first written, looking each predicted n-gram up in a Counter of the reference's."""
    pred_toks = normalize(pred, MIN).split()
    ref_toks = normalize(ref, MIN).split()
    if not pred_toks:
        return 0.0
    max_order = min(4, len(pred_toks))
    log_sum = 0.0
    for n in range(1, max_order + 1):
        pred_grams = list(zip(*(pred_toks[i:] for i in range(n))))
        ref_counts = Counter(zip(*(ref_toks[i:] for i in range(n))))
        matches = sum(min(c, ref_counts[g]) for g, c in Counter(pred_grams).items())
        if n == 1:
            if matches == 0:
                return 0.0
            p_n = matches / len(pred_grams)
        else:
            p_n = (matches + 1) / (len(pred_grams) + 1)
        log_sum += math.log(p_n) / max_order
    if len(pred_toks) > len(ref_toks):
        bp = 1.0
    else:
        bp = math.exp(1 - len(ref_toks) / len(pred_toks))
    return bp * math.exp(log_sum)


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


class TestNormalize:
    def test_minimal(self):
        assert normalize("  Paris ", MIN) == "paris"

    def test_squad(self):
        assert normalize("The Eiffel Tower.", SQUAD) == "eiffel tower"

    def test_empty(self):
        assert normalize("", SQUAD) == ""

    @given(phrases, st.sampled_from([MIN, SQUAD]))
    @settings(max_examples=200, derandomize=True)
    def test_idempotent(self, s, mode):
        once = normalize(s, mode)
        assert normalize(once, mode) == once

    def test_matches_reference(self):
        for pred, refs in CURATED_PAIRS:
            for mode in (MIN, SQUAD):
                assert normalize(pred, mode) == ref_norm(pred, mode)

    # any code point, lone surrogates included, every ASCII punctuation character,
    # non-ASCII punctuation, İ (two code points once lowercased), ß and articles
    @given(
        st.lists(
            st.text(st.characters() | st.characters(categories=["Cs"])
                    | st.sampled_from(string.punctuation + "’“”«»¿¡—…、。·İß"), max_size=5)
            | st.sampled_from([" the ", "a", "An", " "]),
            max_size=8,
        ).map("".join),
        st.sampled_from([MIN, SQUAD]),
    )
    @settings(max_examples=500, derandomize=True)
    # an article next to a non-word character; a surrogate pair split by punctuation
    @example("the€ a-b", SQUAD)
    @example("\ud83d!\ude00", SQUAD)
    def test_matches_reference_on_any_text(self, s, mode):
        assert normalize(s, mode) == ref_norm(s, mode)


class TestExactAndCover:
    def test_exact_examples(self):
        assert em("Paris", ["paris"]) == 1
        assert em("in Paris", ["Paris"]) == 0
        assert em("", ["x"]) == 0

    def test_cover_examples(self):
        assert cover("the capital is paris", ["Paris"]) == 1
        assert cover("par is", ["Paris"]) == 0

    def test_empty_refs_rejected(self):
        with pytest.raises(ValueError, match="at least one reference answer is required"):
            em("x", [])
        with pytest.raises(ValueError, match="at least one reference answer is required"):
            cover("x", [])

    @given(phrases, st.lists(phrases, min_size=1, max_size=3), st.sampled_from([MIN, SQUAD]))
    @settings(max_examples=500, derandomize=True)
    def test_em_implies_cover(self, pred, refs, mode):
        assert em(pred, refs, mode) <= cover(pred, refs, mode)

    @given(phrases, st.lists(phrases, min_size=1, max_size=2), st.sampled_from([MIN, SQUAD]))
    @settings(max_examples=200, derandomize=True)
    def test_metrics_invariant_under_prenormalized_input(self, pred, refs, mode):
        np_, nrefs = normalize(pred, mode), [normalize(r, mode) for r in refs]
        assert em(np_, nrefs, mode) == em(pred, refs, mode)
        assert cover(np_, nrefs, mode) == cover(pred, refs, mode)
        assert token_f1(np_, nrefs, mode) == pytest.approx(token_f1(pred, refs, mode))
        assert rouge(np_, nrefs, mode).avg == pytest.approx(rouge(pred, refs, mode).avg)


    @given(mixed_answers, st.lists(mixed_answers, min_size=1, max_size=3),
           st.sampled_from([MIN, SQUAD]))
    @settings(max_examples=200, derandomize=True)
    def test_prepared_references_score_as_the_raw_list(self, pred, refs, mode):
        # by definition, over the prediction and each reference normalized on its own
        prepared, normalized = normalize_refs(refs, mode), normalize(pred, mode)
        texts = [normalize(r, mode) for r in refs]
        assert prepared == References(mode, tuple(texts))
        exact = exact_match(normalized, prepared)
        assert exact == int(any(normalized == t for t in texts))
        # EM as first written: equal token lists
        assert exact == int(normalized.split() in [t.split() for t in texts])
        assert cover_em(normalized, prepared) == int(any(t in normalized for t in texts))


class TestTokenF1:
    def test_two_thirds(self):
        assert token_f1("the cat sat", ["cat sat down"], MIN) == pytest.approx(2 / 3)

    def test_identity(self):
        assert token_f1("same words here", ["same words here"]) == 1.0

    def test_disjoint(self):
        assert token_f1("aa bb", ["cc dd"]) == 0.0

    def test_one_empty(self):
        assert token_f1("", ["x"]) == 0.0
        assert token_f1("x", [""]) == 0.0

    def test_both_empty(self):
        assert token_f1("", [""]) == 1.0

    def test_max_over_refs(self):
        assert token_f1("a b", ["zz", "a b"]) == 1.0

    def test_oracle(self):
        for pred, refs in CURATED_PAIRS:
            for mode in (MIN, SQUAD):
                want = max(ref_f1(pred, r, mode) for r in refs)
                assert token_f1(pred, refs, mode) == pytest.approx(want, abs=1e-9)


class TestRouge:
    def test_identity(self):
        scores = rouge("a b c", ["a b c"], MIN)
        assert (scores.r1, scores.r2, scores.rl, scores.avg) == (1.0, 1.0, 1.0, 1.0)

    def test_axc(self):
        scores = rouge("a b c", ["a x c"], MIN)
        assert scores.r1 == pytest.approx(2 / 3)
        assert scores.r2 == 0.0
        assert scores.rl == pytest.approx(2 / 3)
        assert scores.avg == pytest.approx(4 / 9)

    def test_empty_pred(self):
        scores = rouge("", ["a b"], MIN)
        assert scores.r1 == scores.r2 == scores.rl == scores.avg == 0.0

    def test_both_empty_after_normalizing_scores_zero(self):
        # token F1 and EM give such a pair 1.0 (the SQuAD rule); every ROUGE gives 0.0
        assert rouge("...", ["The"], SQUAD) == RougeScores(r1=0.0, r2=0.0, rl=0.0, avg=0.0)
        assert em("...", ["The"], SQUAD) == token_f1("...", ["The"], SQUAD) == 1.0

    def test_avg_is_mean_of_components(self):
        rng = random.Random(7)
        vocab = ["aa", "bb", "cc", "dd", "ee"]
        for _ in range(50):
            pred = " ".join(rng.choices(vocab, k=rng.randint(0, 6)))
            ref = " ".join(rng.choices(vocab, k=rng.randint(1, 6)))
            s = rouge(pred, [ref], MIN)
            assert s.avg == pytest.approx((s.r1 + s.r2 + s.rl) / 3, abs=1e-12)
            assert 0.0 <= min(s.r1, s.r2, s.rl) and max(s.r1, s.r2, s.rl) <= 1.0

    def test_oracle(self):
        for pred, refs in CURATED_PAIRS:
            for mode in (MIN, SQUAD):
                got = rouge(pred, refs, mode)
                p = ref_norm(pred, mode).split()
                want1 = max(ref_ngram_f(p, ref_norm(r, mode).split(), 1) for r in refs)
                want2 = max(ref_ngram_f(p, ref_norm(r, mode).split(), 2) for r in refs)
                wantl = 0.0
                for r in refs:
                    rt = ref_norm(r, mode).split()
                    lcs = ref_lcs(p, rt)
                    if p and rt and lcs:
                        prec, rec = lcs / len(p), lcs / len(rt)
                        wantl = max(wantl, 2 * prec * rec / (prec + rec))
                assert got.r1 == pytest.approx(want1, abs=1e-9)
                assert got.r2 == pytest.approx(want2, abs=1e-9)
                assert got.rl == pytest.approx(wantl, abs=1e-9)


class TestBleu:
    def test_identity(self):
        assert bleu_of("the cat sat down", "the cat sat down") == pytest.approx(1.0)

    def test_disjoint(self):
        assert bleu_of("aa bb", "cc dd") == 0.0

    def test_empty_pred(self):
        assert bleu_of("", "x") == 0.0

    def test_short_pred_vs_longer_ref(self):
        got = bleu_of("the cat", "the cat sat")
        assert got == pytest.approx(math.exp(-0.5), abs=1e-9)

    def test_oracle(self):
        for pred, refs in CURATED_PAIRS:
            assert bleu_of(pred, refs[0]) == pytest.approx(ref_bleu(pred, refs[0]), abs=1e-9)

    @given(mixed_answers, mixed_answers)
    @settings(max_examples=200, derandomize=True)
    # every order matches, with n-grams more often in the prediction, then in the reference
    @example("b a b a b a", "a b a b")
    @example("a b a b", "b a b a b a")
    def test_counted_reference_is_bitwise_the_counter_scan(self, pred, ref):
        assert bleu(pred, bleu_reference(ref)) == counter_bleu(pred, ref)

    @given(phrases, phrases)
    @settings(max_examples=300, derandomize=True)
    def test_bounded(self, pred, ref):
        assert 0.0 <= bleu_of(pred, ref) <= 1.0 + 1e-12


class TestAggregation:
    def test_constant_row(self):
        assert avg_score([MetricRow("d", 0.30, 0.30, 0.30)]) == pytest.approx(0.30)

    def test_symmetry(self):
        rows = [MetricRow("d1", 0, 0, 0), MetricRow("d2", 1, 1, 1)]
        assert avg_score(rows) == pytest.approx(0.5)

    def test_mixed(self):
        assert avg_score([MetricRow("d", 0.3, 0.6, 0.9)]) == pytest.approx(0.6)

    def test_empty(self):
        with pytest.raises(ValueError, match="avg_score needs at least one row"):
            avg_score([])

    def test_score_row_averages(self):
        row = score_row("d", ["paris", "berlin"], [["paris"], ["rome"]], SQUAD)
        assert row.em == pytest.approx(0.5)

    def test_report_table_layout(self):
        report = ScoreReport(
            rows=[MetricRow("nq", 0.321, 0.358, 0.320)],
            avg_score=0.333,
            normalization="squad",
        )
        table = report.render_table()
        lines = table.strip().splitlines()
        assert lines[0].split() == ["Dataset", "EM", "ROUGE", "F1"]
        assert "32.1" in lines[1] and "35.8" in lines[1] and "32.0" in lines[1]
        assert lines[-1].startswith("Avg.Score") and "33.3" in lines[-1]


def make_episode(rounds: list[list[str]], answer="x") -> Episode:
    """Episode stub whose rounds hold passages with the given texts."""
    memory = []
    for qn, texts in enumerate(rounds):
        results = [
            RetrievedPassage(Passage(f"p{qn}-{i}", f"title {i}", text), 1.0 / (i + 1), i + 1)
            for i, text in enumerate(texts)
        ]
        memory.append(EvidenceBlock(query=f"q{qn}", results=results))
    return Episode(question="q", memory=memory, final_answer=answer)


class TestPresenceAndStats:
    def test_presence_rank1(self):
        ep = make_episode([["the answer is Paris", "noise", "noise"]])
        assert answer_presence_at_k(ep, ["Paris"], 1) == 1

    def test_presence_rank3_only(self):
        ep = make_episode([["noise one", "noise two", "contains Paris here"]])
        assert answer_presence_at_k(ep, ["Paris"], 1) == 0
        assert answer_presence_at_k(ep, ["Paris"], 3) == 1

    def test_presence_zero_retrieval(self):
        assert answer_presence_at_k(make_episode([]), ["Paris"], 3) == 0

    def test_presence_checks_any_block(self):
        ep = make_episode([["noise"], ["Paris is here"]])
        assert answer_presence_at_k(ep, ["Paris"], 1) == 1

    def test_stats_examples(self):
        eps = [make_episode([["t"]] * n) for n in (0, 1, 2, 3)]
        stats = retrieval_stats(eps)
        assert stats["mean"] == pytest.approx(1.5)
        assert stats["distribution"] == {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25}

    def test_stats_all_zero(self):
        stats = retrieval_stats([make_episode([]) for _ in range(3)])
        assert stats["mean"] == 0.0
        assert stats["distribution"] == {0: 1.0}

    def test_stats_thirds(self):
        eps = [make_episode([["t"]] * n) for n in (1, 1, 2)]
        assert retrieval_stats(eps)["mean"] == pytest.approx(4 / 3)

    def test_stats_empty(self):
        with pytest.raises(ValueError, match="no episodes"):
            retrieval_stats([])


# --- presence@k and score_row against today's definitions --------------------

# word pieces with ASCII punctuation inside and around them, articles, mixed case and
# non-ASCII letters and punctuation; separators with runs of whitespace and none at all
PIECES = ["paris", "Paris", "PA-RIS", "paris!", "the", "The", "a", "An", "new", "York",
          "new-york", "İstanbul", "istanbul", "straße", "STRASSE", "l’état", "ΣΑΣ", "it's",
          "...", "theatre", "a.b", "x"]
SEPARATORS = [" ", "  ", "\t", "\n ", ",", " - ", "\u00a0", "’", ""]
pieced = st.lists(st.tuples(st.sampled_from(PIECES), st.sampled_from(SEPARATORS)),
                  max_size=8).map(lambda xs: "".join(w + sep for w, sep in xs))
texts = st.one_of(pieced, st.text(max_size=12))
references = st.lists(
    st.one_of(pieced, st.sampled_from(["The", "...", "", " the  a "])), min_size=1, max_size=3
)
hits = st.lists(st.tuples(texts, texts), max_size=4)
MODES = st.sampled_from([MIN, SQUAD])


def episode_of(rounds: list[list[tuple[str, str]]]) -> Episode:
    memory = [
        EvidenceBlock(
            query=f"q{qn}",
            results=[
                RetrievedPassage(Passage(f"p{qn}-{i}", title, text), 1.0, i + 1)
                for i, (title, text) in enumerate(round_hits)
            ],
        )
        for qn, round_hits in enumerate(rounds)
    ]
    return Episode(question="q", memory=memory)


def presence_reference(episode, refs, k, mode):
    """answer_presence_at_k as first written: normalize every hit in full."""
    targets = [normalize(r, mode) for r in refs]
    for block in episode.memory:
        for hit in block.results[:k]:
            haystack = normalize(hit.passage.title + " " + hit.passage.text, mode)
            if any(t and t in haystack for t in targets):
                return 1
    return 0


# answers that appear only after normalization: punctuation inside a word, an article
# between words, a run of whitespace; the last one passes the word test and still misses
NORMALIZED_ONLY = [
    ([[("Capital", "the PA-RIS of France")]], ["Paris!"], 1, SQUAD, 1),
    ([[("x", "NEW the york")]], ["new york"], 1, SQUAD, 1),
    ([[("x", "in NEW\t\tYORK city")]], ["new   york"], 1, MIN, 1),
    ([[("a", "b"), ("c", "d"), ("x", "ISTANBUL, İstanbul’s")]], ["İstanbul"], 3, SQUAD, 1),
    ([[("a", "b"), ("c", "d"), ("x", "ISTANBUL, İstanbul’s")]], ["İstanbul"], 2, SQUAD, 0),
    ([[("x", "york new")]], ["New York"], 1, MIN, 0),
]


class TestPresenceEquivalence:
    @pytest.mark.parametrize("rounds, refs, k, mode, want", NORMALIZED_ONLY)
    def test_answer_found_only_after_normalization(self, rounds, refs, k, mode, want):
        episode = episode_of(rounds)
        assert answer_presence_at_k(episode, refs, k, mode) == want
        assert presence_reference(episode, refs, k, mode) == want

    @given(st.lists(hits, max_size=3), references, st.integers(1, 3), MODES)
    @settings(max_examples=600, derandomize=True)
    @example(*NORMALIZED_ONLY[0][:4])
    @example(*NORMALIZED_ONLY[2][:4])
    @example(*NORMALIZED_ONLY[5][:4])
    def test_equals_full_normalization(self, rounds, refs, k, mode):
        episode = episode_of(rounds)
        assert answer_presence_at_k(episode, refs, k, mode) == presence_reference(
            episode, refs, k, mode
        )


class TestScoreRowEquivalence:
    predictions = st.one_of(texts, st.sampled_from(["", "...", "!?", "  ", "The a"]))

    @given(
        st.lists(st.tuples(predictions, references), min_size=1, max_size=6), MODES
    )
    @settings(max_examples=300, derandomize=True)
    @example([("", [""]), ("...", ["The", "x"]), ("a b", ["b a", "a b c"])], SQUAD)
    def test_means_of_the_pairwise_metrics(self, pairs, mode):
        preds = [p for p, _ in pairs]
        refs = [r for _, r in pairs]
        n = len(pairs)
        row = score_row("d", preds, refs, mode)
        exact = sum(em(p, r, mode) for p, r in pairs) / n
        rg = sum(rouge(p, r, mode).avg for p, r in pairs) / n
        f1 = sum(token_f1(p, r, mode) for p, r in pairs) / n
        assert (row.em.hex(), row.rouge_avg.hex(), row.f1.hex()) == (
            exact.hex(), rg.hex(), f1.hex()
        )

    def test_f1_and_rouge1_part_only_when_both_are_empty(self):
        assert token_f1("...", ["The"]) == 1.0
        assert rouge("...", ["The"]).r1 == 0.0
        assert token_f1("...", ["x"]) == rouge("...", ["x"]).r1 == 0.0


class TestOverlapCounts:
    """The multiset intersection counted without Counters: the same ints, so the same floats."""

    tokens = st.lists(st.sampled_from(["a", "b", "c", "the", "é", ""]), max_size=10)

    @given(tokens, tokens)
    @settings(max_examples=300, derandomize=True)
    def test_shared_is_the_counter_intersection(self, a, b):
        assert metrics._shared(a, b) == sum((Counter(a) & Counter(b)).values())
        pairs_a, pairs_b = list(zip(a, a[1:])), list(zip(b, b[1:]))
        assert metrics._shared(pairs_a, pairs_b) == sum(
            (Counter(pairs_a) & Counter(pairs_b)).values())

    @given(st.lists(st.tuples(TestScoreRowEquivalence.predictions, references),
                    min_size=1, max_size=6), MODES)
    @settings(max_examples=300, derandomize=True)
    @example([("same same same", ["same"]), ("a b a b", ["b a b a", ""]), ("", [""])], SQUAD)
    def test_scores_equal_the_counter_reference(self, pairs, mode):
        counted = [counter_overlap_scores(normalize(p, mode).split(),
                                          [normalize(r, mode).split() for r in refs])
                   for p, refs in pairs]
        for (pred, refs), (f1, scores) in zip(pairs, counted):
            assert token_f1(pred, refs, mode) == f1
            assert rouge(pred, refs, mode) == scores
        n = len(pairs)
        row = score_row("d", [p for p, _ in pairs], [r for _, r in pairs], mode)
        assert row.rouge_avg == sum(scores.avg for _, scores in counted) / n
        assert row.f1 == sum(f1 for f1, _ in counted) / n
