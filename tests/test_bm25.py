"""BM25 index behavior against a brute-force full-scoring oracle."""

import errno
import hashlib
import io
import json
import math
import os
import random
import re
import string
import sys
import tempfile
import threading
from collections import Counter
from itertools import accumulate
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import rewrite_index
from planrag import bm25, records
from planrag.bm25 import (
    Passage,
    build_index,
    load_corpus,
    load_index,
    save_index,
    tokenize,
)


def oracle_tokens(s: str) -> list[str]:
    return [t for t in re.split(r"[\W_]+", s.lower()) if t]


def oracle_rank(passages, query, k1=1.2, b=0.75):
    """Independent full scan: recompute stats from the raw corpus.

    Sums each passage's terms in sorted order with search's expression, so its
    scores are the exact floats search returns.
    """
    return oracle_ranker(passages, k1, b)(query)


def oracle_ranker(passages, k1=1.2, b=0.75):
    """oracle_rank for many queries over one corpus, which is tokenized once."""
    docs = [Counter(oracle_tokens(p.title + " " + p.text)) for p in passages]
    lengths = [sum(d.values()) for d in docs]
    n = len(docs)
    avg = sum(lengths) / n

    def rank(query):
        terms = sorted(set(oracle_tokens(query)))
        dfs = [sum(1 for d in docs if term in d) for term in terms]
        scored = []
        for p, d, length in zip(passages, docs, lengths):
            score = 0.0
            for term, df in zip(terms, dfs):
                tf = d[term]
                if tf == 0 or df == 0:
                    continue
                idf = math.log((n - df + 0.5) / (df + 0.5) + 1)
                score += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * length / avg))
            scored.append((p.id, score))
        positive = [(pid, s) for pid, s in scored if s > 0]
        positive.sort(key=lambda item: (-item[1], item[0]))
        return positive

    return rank


# tie-heavy corpora: a few words, so every word is a stopword and many passages
# share a score; zero-token passages included
tie_corpora = st.integers(3, 5).flatmap(
    lambda v: st.tuples(
        st.lists(st.lists(st.integers(0, v - 1), max_size=6), min_size=1, max_size=30),
        st.lists(st.integers(0, v), min_size=1, max_size=8),  # v: a term not indexed
    )
)


def on_each_path(idx, query, k):
    """search's (id, score) pairs with the direct sum never tried, then tried
    first by every query, which falls back to the pruned path where it must."""
    for direct in (False, True):
        with mock.patch.object(bm25, "_direct", lambda terms: direct):
            yield [(r.passage.id, r.score) for r in idx.search(query, k)]


def random_corpus(rng, size, vocab_size=40):
    vocab = ["".join(rng.choices(string.ascii_lowercase, k=rng.randint(2, 6)))
             for _ in range(vocab_size)]
    passages = []
    for i in range(size):
        text = " ".join(rng.choices(vocab, k=rng.randint(3, 25)))
        title = " ".join(rng.choices(vocab, k=rng.randint(0, 3)))
        passages.append(Passage(id=f"p{i:04d}", title=title, text=text))
    return passages, vocab


class TestTokenize:
    def test_basic(self):
        assert tokenize("The Eiffel Tower (1889)!") == ["the", "eiffel", "tower", "1889"]

    def test_empty(self):
        assert tokenize("") == []

    def test_separators(self):
        assert tokenize("a-b_c") == ["a", "b", "c"]

    @given(st.text(st.characters() | st.sampled_from("_09\u0663\u00e9\u00df\u01c5\u0130\u65e5 ")))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_runs_of_alphanumerics(self, text):
        assert tokenize(text) == re.findall(r"[^\W_]+", text.lower())

    # every ASCII code point, so "_", punctuation and the \x1c-\x1f separators all appear
    @given(st.text(st.sampled_from([chr(c) for c in range(128)])))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_ascii_runs_of_alphanumerics(self, text):
        assert tokenize(text) == re.findall(r"[^\W_]+", text.lower())

    # KELVIN SIGN lowercases into ASCII, to "k"; "\u0130" lowercases out of it, to "i"
    # and a combining dot, which is no alphanumeric
    @pytest.mark.parametrize("text, tokens", [("\u212aelvin_Scale", ["kelvin", "scale"]),
                                              ("\u0130stanbul_Bay", ["i", "stanbul", "bay"])])
    def test_text_whose_lowercase_crosses_ascii(self, text, tokens):
        assert tokenize(text) == re.findall(r"[^\W_]+", text.lower()) == tokens


class TestBuild:
    def test_avg_doc_length(self):
        passages = [
            Passage("a", "", "one two three four"),
            Passage("b", "", "one two three four five six"),
            Passage("c", "", "one two three four five six seven eight"),
        ]
        idx = build_index(passages)
        assert idx.avg_doc_length == pytest.approx(6.0)
        assert idx.doc_count == 3

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="cannot build an index over an empty corpus"):
            build_index([])

    def test_duplicate_id(self):
        with pytest.raises(ValueError, match="duplicate passage id: a"):
            build_index([Passage("a", "", "x"), Passage("a", "", "y")])

    @pytest.mark.parametrize("k1, b", [(-0.5, 0.75), (1.2, -0.1), (1.2, 2.5), (math.inf, 0.75),
                                       (1e307, 0.75), (math.nan, 0.75), (1.2, math.nan)])
    def test_parameters_out_of_range(self, k1, b):
        # out of range, a norm can be negative and a term's bound idf * (k1 + 1) fails
        with pytest.raises(ValueError, match="k1"):
            build_index([Passage("a", "", "x")], k1=k1, b=b)

    def test_scores_stay_finite_at_the_largest_k1(self):
        # at k1 = 1e307 this corpus scored Infinity, and a k1 near the float maximum gave NaN
        passages = [Passage("p1", "", "a " * 200 + "c"), Passage("p2", "", "b"),
                    Passage("p3", "", "c")]
        hits = build_index(passages, k1=bm25.K1_MAX, b=1).search("a c", 3)
        assert [h.passage.id for h in hits] == ["p1", "p3"]
        assert all(math.isfinite(h.score) for h in hits)


class TestScore:
    def test_absent_term_scores_zero(self):
        idx = build_index([Passage("a", "", "alpha beta"), Passage("b", "", "gamma")])
        assert idx.score(["zeta"], 0) == 0.0

    def test_single_passage_oracle(self):
        passages = [Passage("only", "", "the quick brown fox jumps")]
        idx = build_index(passages)
        terms = tokenize("the quick brown fox jumps")
        want = oracle_rank(passages, "the quick brown fox jumps")[0][1]
        assert idx.score(terms, 0) == pytest.approx(want, abs=1e-9)

    def test_duplicate_query_terms_ignored(self):
        rng = random.Random(5)
        passages, vocab = random_corpus(rng, 20)
        idx = build_index(passages)
        q = [vocab[0], vocab[1]]
        for ordinal in range(idx.doc_count):
            assert idx.score(q + q + q, ordinal) == idx.score(q, ordinal)

    def test_ordinal_out_of_range(self):
        idx = build_index([Passage("a", "", "x")])
        with pytest.raises(IndexError, match=re.escape("ordinal 5 not in [0, 1)")):
            idx.score(["x"], 5)

    def test_scores_finite_nonnegative(self):
        rng = random.Random(11)
        passages, vocab = random_corpus(rng, 60)
        idx = build_index(passages)
        for _ in range(40):
            q = tokenize(" ".join(rng.choices(vocab, k=3)))
            for ordinal in range(0, idx.doc_count, 7):
                s = idx.score(q, ordinal)
                assert math.isfinite(s) and s >= 0.0


class TestSearch:
    def test_matches_bruteforce_200(self):
        rng = random.Random(42)
        passages, vocab = random_corpus(rng, 200)
        idx = build_index(passages)
        for _ in range(50):
            query = " ".join(rng.choices(vocab + ["missingterm"], k=rng.randint(1, 5)))
            k = rng.randint(1, 10)
            got = idx.search(query, k)
            want = oracle_rank(passages, query)[:k]
            assert [r.passage.id for r in got] == [pid for pid, _ in want]
            for r, (_, score) in zip(got, want):
                assert r.score == pytest.approx(score, abs=1e-9)
            assert [r.rank for r in got] == list(range(1, len(got) + 1))

    def test_no_indexed_terms(self):
        idx = build_index([Passage("a", "", "alpha beta")])
        assert idx.search("zzz qqq", 3) == []

    def test_k_larger_than_corpus(self):
        idx = build_index([Passage("a", "", "alpha"), Passage("b", "", "alpha beta")])
        results = idx.search("alpha", 50)
        assert {r.passage.id for r in results} == {"a", "b"}

    def test_tie_break_by_id(self):
        # identical passages score identically; order must follow ids
        passages = [Passage(pid, "", "same words here") for pid in ("z9", "a1", "m5")]
        idx = build_index(passages)
        assert [r.passage.id for r in idx.search("same words", 3)] == ["a1", "m5", "z9"]

    def test_scores_non_increasing(self):
        rng = random.Random(3)
        passages, vocab = random_corpus(rng, 80)
        idx = build_index(passages)
        results = idx.search(" ".join(vocab[:4]), 20)
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_neutral_passage_insertion_consistent(self):
        rng = random.Random(9)
        passages, vocab = random_corpus(rng, 50)
        query = " ".join(vocab[:3])
        extended = passages + [Passage("zz-new", "", "unrelatedword anotherunrelated")]
        got = build_index(extended).search(query, 10)
        want = oracle_rank(extended, query)[:10]
        assert [r.passage.id for r in got] == [pid for pid, _ in want]
        for r, (_, score) in zip(got, want):
            assert r.score == pytest.approx(score, abs=1e-12)

    @given(
        tie_corpora,
        st.randoms(use_true_random=False),
        st.integers(1, 35),
        st.sampled_from([0, 1.2]),
        st.sampled_from([0, 0.75, 1]),
    )
    @example(([[], [], []], [0, 1]), random.Random(0), 2, 1.2, 0.75)
    # k1 = 0: the unvisited term's bound equals the k-th score, and the passage
    # it would add ties that score with a smaller id
    @example(([[0], [1]], [0, 1]), random.Random(1), 1, 0, 0.75)
    # two passages tie on the exact score, but their partial sums, added in
    # visit order, round apart: without slack the one with the smaller id is pruned
    @example(
        ([[0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 2], [], [1, 1, 0, 2], [0, 1, 2], [0, 1, 1, 2, 1, 1],
          [1, 1], [2, 0, 2]], [2, 3, 1, 0, 2]),
        random.Random(1), 1, 1.2, 0,
    )
    # the same for the direct sum of share dicts: at k1 = 0 the first passage
    # (p20) gets w0's share and the tf-array term w1's whole bound, the second
    # (p21) the shares of w2 and w3. Since idf = ln((n + 1) / (df + 0.5)) and
    # 1.5 * 13.5 = 4.5 * 4.5, the exact scores tie, but the sums round apart:
    # without slack _summed drops p20, the one with the smaller id
    @example(
        ([[0, 1], [2, 3]] + [[2]] * 3 + [[3]] * 3 + [[1]] * 12 + [[]] * 3, [0, 1, 2, 3]),
        random.Random(0), 1, 0, 0.75,
    )
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_pruned_search_equals_exhaustive(self, corpus_query, rng, k, k1, b):
        docs, query_words = corpus_query
        ids = [f"p{i:02d}" for i in range(len(docs))]
        rng.shuffle(ids)  # id order independent of ordinal order, for tie-breaking
        passages = [
            Passage(pid, "", " ".join(f"w{w}" for w in words)) for pid, words in zip(ids, docs)
        ]
        query = " ".join(f"w{w}" for w in query_words)
        want = oracle_rank(passages, query, k1, b)[:k]
        for got in on_each_path(build_index(passages, k1, b), query, k):
            assert got == want

    @given(
        st.integers(100, 300),
        st.randoms(use_true_random=False),
        st.integers(1, 5),
        st.sampled_from([0, 1.2]),
        st.sampled_from([0, 0.75, 1]),
    )
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_pruned_candidates_equal_exhaustive(self, n, rng, k, k1, b):
        # Zipf-like words: a query's rare words admit a few dozen candidates
        # and its frequent ones are then added to the candidates left
        vocab = [f"w{i}" for i in range(40)]
        weights = [1 / (r + 1) for r in range(len(vocab))]
        ids = [f"p{i:03d}" for i in range(n)]
        rng.shuffle(ids)
        passages = [
            Passage(pid, "", " ".join(rng.choices(vocab, weights, k=rng.randint(1, 12))))
            for pid in ids
        ]
        frequent = rng.randint(1, 3)
        words = rng.sample(vocab[:4], frequent)
        words += rng.sample(vocab[4:], rng.randint(6, 8) - frequent)
        query = " ".join(words)
        want = oracle_rank(passages, query, k1, b)[:k]
        for got in on_each_path(build_index(passages, k1, b), query, k):
            assert got == want

    def test_stopword_only_queries_equal_exhaustive(self):
        # every query term is in more than half the passages: each bound is below ln 2 * (k1 + 1),
        # the first term visited admits most passages, and a prune often drops none of them
        rng = random.Random(16)
        common = [f"c{j:02d}" for j in range(16)]
        ids = [f"p{i:03d}" for i in range(300)]
        rng.shuffle(ids)
        passages = []
        for pid in ids:
            words = [w for w in common if rng.random() < 0.7] * rng.randint(1, 2)
            words += [f"r{rng.randrange(400)}" for _ in range(rng.randint(0, 12))]
            rng.shuffle(words)
            passages.append(Passage(pid, "", " ".join(words)))
        idx = build_index(passages)
        assert all(sum(w in p.text.split() for p in passages) > len(passages) / 2 for w in common)
        for n in (1, 2, 4, 8, 16):
            query = " ".join(rng.sample(common, n))
            want = oracle_rank(passages, query)
            for k in (1, 3, 10):
                for got in on_each_path(idx, query, k):
                    assert got == want[:k]

    @given(
        st.integers(2, 24),
        st.randoms(use_true_random=False),
        st.sampled_from([0, 1.2]),
        st.sampled_from([0, 0.75, 1]),
    )
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_terms_at_the_boundary_of_the_two_forms(self, n, rng, k1, b):
        # h-words are in exactly n // 2 passages, held as share dicts; o-words in
        # one more, held as tf arrays; r-words are rare
        docs = [[f"r{rng.randrange(3 * n)}" for _ in range(rng.randint(0, 4))] for _ in range(n)]
        boundary = {"h0": n // 2, "h1": n // 2, "o0": n // 2 + 1, "o1": n // 2 + 1}
        for word, df in boundary.items():
            for i in rng.sample(range(n), df):
                docs[i] += [word] * rng.randint(1, 3)
        ids = [f"p{i:02d}" for i in range(n)]
        rng.shuffle(ids)
        passages = []
        for pid, doc in zip(ids, docs):
            rng.shuffle(doc)
            passages.append(Passage(pid, "", " ".join(doc)))
        words = rng.sample(sorted(boundary), rng.randint(1, 4))
        words += [f"r{rng.randrange(3 * n)}" for _ in range(rng.randint(0, 3))]
        query = " ".join(words)
        want = oracle_rank(passages, query, k1, b)
        built = build_index(passages, k1, b)
        assert type(built.posting("h0")[0]) is dict and type(built.posting("o0")[0]) is not dict
        with tempfile.TemporaryDirectory() as directory:
            loaded = saved_then_loaded(built, directory)
        scores = dict(want)
        for idx in (built, loaded):
            for k in range(1, 11):
                for got in on_each_path(idx, query, k):
                    assert got == want[:k]
            for ordinal, passage in enumerate(passages):
                assert idx.score(words, ordinal) == scores.get(passage.id, 0.0)

    # case: (passages, {word: df}, _BALANCED_WITHIN or None for the default,
    # route). Share-dict words (df at most half the passages) lie in consecutive
    # passages, one after the other, so no two share one; tf-array words lie in
    # random ones.
    L = bm25._DIRECT_WITHIN
    ROUTES = {
        "at_the_limit": (2 * L, {"a": L - 20, "b": 10, "c": 10}, None, "direct"),
        "one_posting_more": (2 * L, {"a": L - 19, "b": 10, "c": 10}, None, "pruned"),
        "balanced_above_the_limit": (2 * L, {"a": L // 2, "b": L // 2, "c": L // 2}, None,
                                     "direct"),
        "one_term_of_exactly_half": (2 * L, {"a": L, "b": L // 2, "c": L // 2}, None, "direct"),
        "one_dominant_term": (2 * L, {"a": L + 1, "b": L // 2, "c": L // 2 - 1}, None, "pruned"),
        "balanced_at_the_cap": (2 * L, {"a": L, "b": L}, 2 * L, "direct"),
        "balanced_above_the_cap": (2 * L, {"a": L, "b": L}, 2 * L - 1, "pruned"),
        "untouched_passage_reaches_the_floor": (40, {"a": 20, "b": 20, "c": 21}, None, "fallback"),
        "tf_arrays_outweigh_the_share_dicts": (
            40, {"a": 20, "b": 20, "c": 21, "d": 21, "e": 21}, None, "pruned"),
    }

    @pytest.mark.parametrize("case", list(ROUTES))
    def test_each_query_takes_its_route(self, monkeypatch, case):
        n, dfs, cap, route = self.ROUTES[case]
        if cap is not None:
            monkeypatch.setattr(bm25, "_BALANCED_WITHIN", cap)
        rng = random.Random(25)
        docs = [[f"f{rng.randrange(50)}" for _ in range(rng.randint(1, 6))] for _ in range(n)]
        start = 0
        for word, df in dfs.items():
            if 2 * df > n:
                places = rng.sample(range(n), df)
            else:
                places, start = [(start + i) % n for i in range(df)], start + df
            for i in places:
                docs[i] += [word] * rng.randint(1, 3)
        ids = [f"p{i:03d}" for i in range(n)]
        rng.shuffle(ids)
        passages = [Passage(pid, "", " ".join(doc)) for pid, doc in zip(ids, docs)]
        idx = build_index(passages)
        held = [type(idx.posting(word)[0]) is dict for word in dfs]
        assert held == [2 * df <= n for df in dfs.values()]
        calls = []
        summed, pruned = bm25._summed, bm25.PassageIndex._pruned

        def counted_summed(shares, k, rest=0.0):
            result = summed(shares, k, rest)
            calls.append("summed" if result is not None else "fell back")
            return result

        def counted_pruned(self, terms, k):
            calls.append("pruned")
            return pruned(self, terms, k)

        monkeypatch.setattr(bm25, "_summed", counted_summed)
        monkeypatch.setattr(bm25.PassageIndex, "_pruned", counted_pruned)
        routes = {("summed",): "direct", ("pruned",): "pruned", ("fell back", "pruned"): "fallback"}
        query = " ".join(reversed(list(dfs)))
        want = oracle_rank(passages, query)
        for k in (1, 3, 10):
            calls.clear()
            assert [(r.passage.id, r.score) for r in idx.search(query, k)] == want[:k]
            assert routes[tuple(calls)] == route

    def test_queries_shaped_like_the_benchmark_equal_exhaustive(self, monkeypatch):
        # a Zipf(1) corpus of 3k passages of 60-140 words, where the 16 most
        # frequent words are held as tf arrays; the queries are shaped as the
        # benchmark's: 3 rare words; 2 of the 10 most frequent words and 6 of the
        # ranks 10-300; and only frequent words. 3 words of the ranks 20-100, all
        # held as share dicts and in many passages together, are summed directly
        # and exactly, each passage's shares added in sorted term order.
        rng = random.Random(25)
        vocab = [f"w{r}" for r in range(3000)]
        cum = list(accumulate(1 / r for r in range(1, len(vocab) + 1)))
        ids = [f"p{i:04d}" for i in range(3000)]
        rng.shuffle(ids)
        passages = [Passage(pid, "", " ".join(rng.choices(vocab, cum_weights=cum,
                                                          k=rng.randint(60, 140))))
                    for pid in ids]
        idx = build_index(passages)
        rank = oracle_ranker(passages)
        rare = [rng.sample(vocab[750:], 3) for _ in range(10)]
        heavy = [rng.sample(vocab[:10], 2) + rng.sample(vocab[10:300], 6) for _ in range(20)]
        frequent = [rng.sample(vocab[:10], n) for n in (1, 2, 4, 8)]
        mid = [rng.sample(vocab[20:100], 3) for _ in range(10)]
        bounded = []
        summed = bm25._summed

        def counted(shares, k, rest=0.0):
            result = summed(shares, k, rest)
            bounded.append(bool(rest) and result is not None)
            return result

        monkeypatch.setattr(bm25, "_summed", counted)
        taken = 0
        for words in rare + heavy + frequent + mid:
            query = " ".join(words)
            want = rank(query)
            for k in (1, 3, 10):
                bounded.clear()
                assert [(r.passage.id, r.score) for r in idx.search(query, k)] == want[:k]
                taken += words in heavy and bounded == [True]
                for got in on_each_path(idx, query, k):
                    assert got == want[:k]
        # most stopword-heavy searches sum their share dicts and bound their tf arrays
        assert taken >= 3 * len(heavy) * 3 // 4

    def test_rescores_only_the_top_k_left(self):
        # one pass over the posting, then exact scores for the k passages the last
        # prune leaves, not for every passage the pass met
        passages = [Passage(f"p{i:03d}", "", "common " + "filler " * i) for i in range(100)]
        reads = []

        class CountingNorms(list):
            def __getitem__(self, ordinal):
                reads.append(ordinal)
                return super().__getitem__(ordinal)

        idx = build_index(passages)
        idx.norms = CountingNorms(idx.norms)
        assert [r.passage.id for r in idx.search("common", 3)] == ["p000", "p001", "p002"]
        assert len(reads) <= idx.doc_count + 3

    def test_all_zero_token_corpus(self):
        idx = build_index([Passage("a", "", "..."), Passage("b", "", ""), Passage("c", "!", "-")])
        assert idx.avg_doc_length == 0
        assert idx.search("anything at all", 3) == []
        assert idx.score(["anything"], 0) == 0.0

    def test_determinism(self):
        rng = random.Random(13)
        passages, vocab = random_corpus(rng, 100)
        q = " ".join(vocab[:5])
        a = [(r.passage.id, r.score) for r in build_index(passages).search(q, 10)]
        b = [(r.passage.id, r.score) for r in build_index(passages).search(q, 10)]
        assert a == b


# round-trip corpora: tie-heavy words, unicode text and passages with no token
round_trip_words = st.sampled_from(
    ["w0", "w1", "w2", "Straße", "ÉTÉ", "日本", "ǅx", "_", "...", ""]
)
round_trip_texts = st.lists(round_trip_words, max_size=6).map(" ".join) | st.text(max_size=12)


def saved_then_loaded(index, directory):
    path = os.path.join(directory, "index.json")
    save_index(index, path)
    return load_index(path)


def _set(name, position, value):
    def edit(header, arrays):
        arrays[name][position] = value
    return edit


def _set_in_header(key, value, position=None):
    # header[key] = value, or header[key][position] = value
    def edit(header, arrays):
        if position is None:
            header[key] = value
        else:
            header[key][position] = value
    return edit


def _field_past_the_next(header, arrays):
    arrays["fields"][1] = arrays["fields"][2] + 1


def _repeat_a_term(header, arrays):
    header["terms"][1] = header["terms"][0]


def _offsets_past_the_postings(header, arrays):
    # the last term's slice ends one past the postings: still rising, but not at their count
    arrays["offsets"][-1] += 1


def _not_utf8_at(ordinal):
    def edit(header, arrays):
        arrays["text"][arrays["fields"][2 * ordinal + 1]] = 0xFF
    return edit


def _first_posting(index):
    # the corrupted posting is at position 0 of the arrays, in the first term's slice
    return index.posting(index.terms[0])


def _most_frequent(terms, offsets):
    return max(range(len(terms)), key=lambda i: offsets[i + 1] - offsets[i])


def _set_in_tf_array(name, value):
    # the first posting of the most frequent term, which is held as a tf array
    def edit(header, arrays):
        arrays[name][arrays["offsets"][_most_frequent(header["terms"], arrays["offsets"])]] = value
    return edit


def _tf_array_posting(index):
    i = _most_frequent(index.terms, index.offsets)
    assert 2 * (index.offsets[i + 1] - index.offsets[i]) > index.doc_count
    return index.posting(index.terms[i])


def _truncate_header(path):
    payload = Path(path).read_bytes()
    Path(path).write_bytes(payload[: payload.index(b"\n") // 2])


def _truncate_arrays(path):
    payload = Path(path).read_bytes()
    Path(path).write_bytes(payload[:-3])


# load_index's message for a k1 or b out of range
K1_AND_B = re.escape(f"k1 in [0, {bm25.K1_MAX}] and b in [0, 1]")


class TestPersistence:
    @given(
        st.lists(st.tuples(round_trip_texts, round_trip_texts), min_size=1, max_size=30),
        st.lists(round_trip_texts, min_size=1, max_size=4),
        st.integers(1, 35),
        st.sampled_from([0, 1.2]),
        st.sampled_from([0, 0.75, 1]),
    )
    # lone surrogates, which a JSON corpus line can hold, round trip too
    @example([("\ud800 w0", "w1 \udfff")], ["w0 w1"], 1, 1.2, 0.75)
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_round_trip_property(self, texts, queries, k, k1, b):
        passages = [Passage(f"p{i:02d}", title, text) for i, (title, text) in enumerate(texts)]
        built = build_index(passages, k1, b)
        with tempfile.TemporaryDirectory() as directory:
            loaded = saved_then_loaded(built, directory)
        for name in ("terms", "offsets", "ordinals", "tfs", "norms"):
            assert getattr(loaded, name) == getattr(built, name), name
        assert loaded.avg_doc_length == built.avg_doc_length
        assert list(loaded.passages) == list(built.passages)
        for query in queries:
            got = [(r.passage.id, r.score, r.rank) for r in loaded.search(query, k)]
            assert got == [(r.passage.id, r.score, r.rank) for r in built.search(query, k)]
            terms = tokenize(query)
            for ordinal in range(built.doc_count):
                assert loaded.score(terms, ordinal) == built.score(terms, ordinal)

    def test_resave_is_byte_identical(self, tmp_path):
        passages, _ = random_corpus(random.Random(23), 120)
        path = tmp_path / "index.json"
        save_index(build_index(passages, 0.9, 0.4), str(path))
        again = tmp_path / "again.json"
        save_index(load_index(str(path)), str(again))
        assert again.read_bytes() == path.read_bytes()

    def test_resave_onto_its_own_path_is_byte_identical(self, tmp_path, monkeypatch):
        passages, _ = random_corpus(random.Random(23), 120)
        path = tmp_path / "index.json"
        save_index(build_index(passages, 0.9, 0.4), str(path))
        before = path.read_bytes()
        loaded = load_index(str(path))
        # the text is copied in runs of 7 passages, the last run of 1
        monkeypatch.setattr(bm25, "_COPY_RUN", 7)
        save_index(loaded, str(path))
        assert path.read_bytes() == before
        assert list(loaded.passages) == passages

    @pytest.mark.parametrize("change", ["replaced", "unlinked"])
    def test_loaded_index_keeps_the_file_it_opened(self, tmp_path, change):
        rng = random.Random(43)
        passages, vocab = random_corpus(rng, 80)
        built = build_index(passages)
        path = str(tmp_path / "index.json")
        save_index(built, path)
        loaded = load_index(path)
        if change == "replaced":
            others, _ = random_corpus(random.Random(47), 80)
            save_index(build_index(others), path)
        else:
            os.unlink(path)
        # no passage was decoded before the change, so every one is read after it
        assert [loaded.passages[o] for o in range(len(passages))] == passages
        for _ in range(20):
            query = " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
            assert loaded.search(query, 5) == built.search(query, 5)

    def test_file_cut_short_after_load(self, tmp_path):
        passages, _ = random_corpus(random.Random(53), 30)
        path = str(tmp_path / "index.json")
        save_index(build_index(passages), path)
        index = load_index(path)
        size, text_size = os.path.getsize(path), index.fields[-1]
        last = len(passages) - 1
        # the last passage loses its last byte, and the one before it stays whole
        os.truncate(path, size - 1)
        assert index.passages[last - 1] == passages[last - 1]
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: passage {last} is cut short; "):
            index.passages[last]
        # save_index reads many passages at once and names the first one cut:
        # passage 10, cut one byte into its text
        os.truncate(path, size - text_size + index.fields[2 * 10 + 1] + 1)
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: passage 10 is cut short; "):
            save_index(index, str(tmp_path / "again.json"))
        assert os.listdir(tmp_path) == ["index.json"]
        # with all the text cut off, the first hit not yet decoded reads nothing
        os.truncate(path, size - text_size)
        with pytest.raises(ValueError, match=rf"^{re.escape(path)}: passage \d+ is cut short; "):
            index.search(passages[0].text, len(passages))

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_dropped_index_closes_its_file(self, tmp_path):
        passages, _ = random_corpus(random.Random(59), 20)
        path = str(tmp_path / "index.json")
        save_index(build_index(passages), path)
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(200):
            assert load_index(path).passages[3] == passages[3]
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.parametrize(
        "corrupt, message, first_use",
        [
            (_truncate_header, "not a readable index file", None),
            (_truncate_arrays, "bytes of arrays", None),
            (lambda path: rewrite_index(path, _set("offsets", 2, 1)), "offset", None),
            (lambda path: rewrite_index(path, _set("ordinals", 0, 12)), "ordinal",
             _first_posting),
            (lambda path: rewrite_index(path, _set("tfs", 0, 0)), "term frequency",
             _first_posting),
            (lambda path: rewrite_index(path, _set_in_tf_array("ordinals", 12)), "ordinal",
             _tf_array_posting),
            (lambda path: rewrite_index(path, _set_in_tf_array("tfs", 0)), "term frequency",
             _tf_array_posting),
            (lambda path: rewrite_index(path, lambda header, arrays: arrays["norms"].pop()),
             "norm", None),
            (lambda path: rewrite_index(path, _set_in_header("ids", "p0000", 1)),
             "unique string ids", None),
            (lambda path: rewrite_index(path, _set_in_header("ids", 5, 0)), "unique string ids",
             None),
            (lambda path: rewrite_index(path, _field_past_the_next), "field offsets", None),
            (lambda path: rewrite_index(path, lambda header, arrays: arrays["text"].pop()),
             "text length", None),
            (lambda path: rewrite_index(path, _not_utf8_at(3)), "passage 3 is not UTF-8",
             lambda index: index.passages[3]),
            (lambda path: rewrite_index(path, _repeat_a_term), "unique string terms", None),
            (lambda path: rewrite_index(path, _set_in_header("terms", 7, 0)),
             "unique string terms", None),
            (lambda path: rewrite_index(path, _set_in_header("ids", [])), "unique string ids",
             None),
            (lambda path: rewrite_index(path, _set("norms", 5, -0.5)), "finite norm >= 0", None),
            (lambda path: rewrite_index(path, _set("norms", 5, math.nan)), "finite norm >= 0",
             None),
            (lambda path: rewrite_index(path, _set("norms", 5, math.inf)), "finite norm >= 0",
             None),
            (lambda path: rewrite_index(path, _set_in_header("avg_doc_length", -1.0)),
             "avg_doc_length >= 0", None),
            (lambda path: rewrite_index(path, _set_in_header("k1", "1.2")), "numeric k1 and b",
             None),
            (lambda path: rewrite_index(path, _set_in_header("b", None)), "numeric k1 and b",
             None),
            (lambda path: rewrite_index(path, _set_in_header("k1", -0.5)), K1_AND_B, None),
            (lambda path: rewrite_index(path, _set_in_header("k1", math.inf)), K1_AND_B, None),
            (lambda path: rewrite_index(path, _set_in_header("k1", 1e307)), K1_AND_B, None),
            (lambda path: rewrite_index(path, _set_in_header("b", 1.5)), K1_AND_B, None),
            (lambda path: rewrite_index(path, _set("fields", 0, 1)), "rising from 0 to the text",
             None),
            (lambda path: rewrite_index(path, _offsets_past_the_postings),
             "rising from 0 to the posting count", None),
        ],
        ids=["truncated_header", "truncated_arrays", "offsets_not_rising",
             "ordinal_past_doc_count", "tf_below_1", "ordinal_past_doc_count_in_tf_array",
             "tf_below_1_in_tf_array", "norms_count", "id_repeated",
             "id_not_string", "fields_not_rising", "fields_past_text", "passage_not_utf8",
             "term_repeated", "term_not_string", "ids_empty", "norm_negative", "norm_nan",
             "norm_infinite", "avg_doc_length_negative", "k1_not_numeric", "b_not_numeric",
             "k1_negative", "k1_infinite", "k1_above_the_bound", "b_above_1",
             "fields_not_from_0", "offsets_past_the_postings"],
    )
    def test_corrupt_file(self, tmp_path, corrupt, message, first_use):
        # 12 passages, so ordinal 12 is one past the last
        passages, _ = random_corpus(random.Random(29), 12)
        path = str(tmp_path / "index.json")
        save_index(build_index(passages), path)
        corrupt(path)
        if first_use is None:
            with pytest.raises(ValueError, match=message) as caught:
                load_index(path)
        else:  # the load passes, and the first read of the corrupted part fails
            index = load_index(path)
            with pytest.raises(ValueError, match=message) as caught:
                first_use(index)
        assert str(caught.value).startswith(path)

    def test_file_of_the_other_byte_order(self, tmp_path):
        passages, vocab = random_corpus(random.Random(37), 50)
        built = build_index(passages)
        path = str(tmp_path / "index.json")
        save_index(built, path)

        def swap(header, arrays):
            header["byteorder"] = "big" if sys.byteorder == "little" else "little"
            for a in arrays.values():
                a.byteswap()

        rewrite_index(path, swap)
        loaded = load_index(path)
        assert loaded.norms == built.norms
        query = " ".join(vocab[:4])
        got = [(r.passage.id, r.score) for r in loaded.search(query, 10)]
        assert got == [(r.passage.id, r.score) for r in built.search(query, 10)]

    def test_threads_share_a_fresh_index(self, tmp_path):
        rng = random.Random(31)
        passages, vocab = random_corpus(rng, 300)
        path = str(tmp_path / "index.json")
        save_index(build_index(passages), path)
        queries = [" ".join(rng.choices(vocab, k=rng.randint(1, 5))) for _ in range(60)]

        def results(index):
            return [[(r.passage, r.score, r.rank) for r in index.search(q, 5)] for q in queries]

        want = results(load_index(path))
        shared = load_index(path)
        got = [None] * 4

        def worker(slot):
            got[slot] = results(shared)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 4

    def test_round_trip_search_equivalence(self, tmp_path):
        rng = random.Random(17)
        passages, vocab = random_corpus(rng, 200)
        idx = build_index(passages)
        path = tmp_path / "index.json"
        save_index(idx, str(path))
        loaded = load_index(str(path))
        for _ in range(50):
            query = " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
            got = [(r.passage.id, r.score) for r in loaded.search(query, 10)]
            want = [(r.passage.id, r.score) for r in idx.search(query, 10)]
            assert got == want

    def test_truncated_file(self, tmp_path):
        rng = random.Random(19)
        passages, _ = random_corpus(rng, 10)
        path = tmp_path / "index.json"
        save_index(build_index(passages), str(path))
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        with pytest.raises((ValueError, OSError), match="bytes of arrays"):
            load_index(str(path))

    @pytest.mark.parametrize("version", [1, 2, 999])
    def test_version_mismatch(self, tmp_path, version):
        path = tmp_path / "index.json"
        if version == 2:
            # a v2 file: the passages in the header, then four arrays
            passages, _ = random_corpus(random.Random(41), 60)
            save_index(build_index(passages, 0.9, 0.4), str(path))

            def to_v2(header, arrays):
                header.update(format_version=2, passages=[
                    {"id": p.id, "title": p.title, "text": p.text} for p in passages])
                del header["ids"], arrays["fields"], arrays["text"]

            rewrite_index(path, to_v2)
        else:
            path.write_text(json.dumps({"format_version": version, "k1": 1.2, "b": 0.75,
                                        "passages": [{"id": "a", "text": "tower in paris"}]}))
        with pytest.raises(ValueError) as caught:
            load_index(str(path))
        assert str(caught.value) == (f"{path}: expected format_version 3, got {version}; "
                                     "rebuild it with planrag index")

    def test_saved_bytes_are_pinned(self, tmp_path):
        passages = [
            Passage("p0", "The Eiffel Tower", "Built in 1889 for the World's Fair; 330 m tall."),
            Passage("p1", "", "snake_case and CamelCase, tabs\tand\x1cfile\x1fseparators"),
            Passage("p2", "Straße", "Die Straße ist lang. ÉTÉ à Paris, 日本語のテキスト"),
            Passage("p3", "\u212aelvin", "\u0130stanbul and ǅx, digits ٣٤ and 42"),
            Passage("p4", "...", "!?"),
        ]
        path = tmp_path / "index.json"
        save_index(build_index(passages, 0.9, 0.4), str(path))
        # the arrays are written in native byte order; this digest is the little-endian file
        if sys.byteorder == "little":
            assert hashlib.sha256(path.read_bytes()).hexdigest() == (
                "204816ab7d22cef8e9edb4056c0e866c0277dd9c9e8a72804f85278b7b95745a")

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "index.json"
        save_index(build_index([Passage("a", "", "old text")]), str(path))
        before = path.read_bytes()

        class DiskFull(io.BufferedWriter):
            def write(self, data):
                if isinstance(data, memoryview):  # the arrays after the header
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(data)

        def open_disk_full(file, mode, **kwargs):
            return io.TextIOWrapper(DiskFull(io.FileIO(file, mode)), **kwargs)

        monkeypatch.setattr(records, "open", open_disk_full, raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_index(build_index([Passage("b", "", "new text")]), str(path))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert load_index(str(path)).ids == ["a"]
        assert os.listdir(tmp_path) == ["index.json"]

    def test_save_path_error(self, tmp_path):
        idx = build_index([Passage("a", "", "x")])
        with pytest.raises(OSError):
            save_index(idx, str(tmp_path / "missing-dir" / "index.json"))

    def test_corpus_loader(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"id": "p1", "title": "T", "text": "hello world"}\n'
            '{"id": "p2", "text": "no title"}\n'
        )
        passages = load_corpus(str(path))
        assert [p.id for p in passages] == ["p1", "p2"]
        assert passages[1].title == ""

    def test_corpus_loader_rejects_bad_record(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        for line in ('{"id": "p1"}\n', "5\n", '["p1", "text"]\n'):
            path.write_text(line)
            with pytest.raises(ValueError, match="corpus record must be a JSON object"):
                load_corpus(str(path))
