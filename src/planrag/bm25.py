"""Self-contained BM25 passage retriever: build, score, search, persist."""

from __future__ import annotations

import heapq
import json
import math
import re
from dataclasses import dataclass
from typing import Iterable

from . import records

FORMAT_VERSION = 1

# a corpus line and a passage of an index file: {id, title?, text}
_PASSAGE = {"text": str}, {"title": str}

_TERM_RE = re.compile(r"[^\W_]+", re.UNICODE)


class EmptyCorpusError(ValueError):
    pass


class DuplicateIdError(ValueError):
    pass


class OrdinalOutOfRangeError(IndexError):
    pass


IndexFormatError = records.RecordFormatError


@dataclass(frozen=True)
class Passage:
    id: str
    title: str
    text: str


@dataclass(frozen=True)
class RetrievedPassage:
    passage: Passage
    score: float
    rank: int


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric character."""
    return _TERM_RE.findall(text.lower())


@dataclass
class PassageIndex:
    """Inverted index with BM25 statistics over an immutable passage corpus."""

    passages: list[Passage]
    postings: dict[str, dict[int, int]]  # term -> ordinal -> term frequency
    norms: list[float]  # ordinal -> k1 * (1 - b + b * length / avg_doc_length)
    avg_doc_length: float
    k1: float
    b: float

    @property
    def doc_count(self) -> int:
        return len(self.passages)

    def _idf(self, term: str) -> float:
        # non-negative variant: ln((N - df + 0.5) / (df + 0.5) + 1)
        df = len(self.postings.get(term, ()))
        if df == 0:
            return 0.0
        n = self.doc_count
        return math.log((n - df + 0.5) / (df + 0.5) + 1)

    def score(self, query_terms: list[str], ordinal: int) -> float:
        """BM25 score of one passage; absent terms contribute 0."""
        if not 0 <= ordinal < self.doc_count:
            raise OrdinalOutOfRangeError(f"ordinal {ordinal} not in [0, {self.doc_count})")
        norm = self.norms[ordinal]
        total = 0.0
        # sorted unique terms keep float accumulation order canonical
        for term in sorted(set(query_terms)):
            tf = self.postings.get(term, {}).get(ordinal, 0)
            if tf == 0:
                continue
            total += self._idf(term) * tf * (self.k1 + 1) / (tf + norm)
        return total

    def search(self, query: str, k: int) -> list[RetrievedPassage]:
        """Top-k positive-scoring passages, ties broken by ascending passage id.

        Exact term-at-a-time MaxScore pruning. build_index checks k1 >= 0 and
        0 <= b <= 1, so every norm is >= 0 and a term adds at most
        ``idf * (k1 + 1)`` to any score. Terms are visited by descending bound;
        each passage first met in a posting gets its full score, summed over all
        terms in sorted order from 0.0 exactly as ``score`` does, so scores are
        bitwise those of a full scan. Once the heap holds k scores and the bounds
        of the terms not yet visited sum to less than the k-th score, every
        passage not yet scored lies strictly below the k-th and cannot enter the
        top k, not even on an id tie. Float rounding is monotone and off by far
        less than the 1e-9 slack.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        k1p = self.k1 + 1
        terms = [
            (self.postings[t], self._idf(t))
            for t in sorted(set(tokenize(query)))
            if t in self.postings
        ]
        visits = sorted(terms, key=lambda term: -term[1])
        bounds = [idf * k1p for _, idf in visits]
        # tails[i]: sum of the bounds of the terms visited after visits[i]
        tails = [sum(bounds[i + 1 :]) for i in range(len(bounds))]
        norms = self.norms
        scores: dict[int, float] = {}
        heap: list[float] = []  # the k best scores so far, least first
        for (posting, _), tail in zip(visits, tails):
            for ordinal in posting:
                if ordinal in scores:
                    continue
                norm = norms[ordinal]
                total = 0.0
                for other, idf in terms:
                    tf = other.get(ordinal)
                    if tf:
                        total += idf * tf * k1p / (tf + norm)
                scores[ordinal] = total
                if total > 0:
                    if len(heap) < k:
                        heapq.heappush(heap, total)
                    elif total > heap[0]:
                        heapq.heapreplace(heap, total)
            if len(heap) == k and tail * (1 + 1e-9) < heap[0]:
                break
        if not heap:
            return []
        # a full heap bounds the top k from below; a short one holds every positive score
        floor = heap[0]
        ranked = heapq.nsmallest(
            k,
            (o for o, s in scores.items() if s >= floor),
            key=lambda o: (-scores[o], self.passages[o].id),
        )
        return [
            RetrievedPassage(passage=self.passages[o], score=scores[o], rank=r)
            for r, o in enumerate(ranked, 1)
        ]


def build_index(
    corpus: Iterable[Passage], k1: float = 1.2, b: float = 0.75
) -> PassageIndex:
    """Index a passage stream. Deterministic for a fixed input order."""
    if not (0 <= k1 < math.inf and 0 <= b <= 1):
        raise ValueError(f"BM25 needs finite k1 >= 0 and b in [0, 1], got k1={k1}, b={b}")
    passages: list[Passage] = []
    postings: dict[str, dict[int, int]] = {}
    doc_lengths: list[int] = []
    seen_ids: set[str] = set()
    for passage in corpus:
        if passage.id in seen_ids:
            raise DuplicateIdError(f"duplicate passage id: {passage.id}")
        ordinal = len(passages)
        seen_ids.add(passage.id)
        passages.append(passage)
        terms = tokenize(passage.title + " " + passage.text)
        doc_lengths.append(len(terms))
        for term in terms:
            postings.setdefault(term, {})
            postings[term][ordinal] = postings[term].get(ordinal, 0) + 1
    if not passages:
        raise EmptyCorpusError("cannot build an index over an empty corpus")
    avg_len = sum(doc_lengths) / len(doc_lengths)
    # an all-empty corpus has no postings, so no score depends on its norms
    avg = avg_len or 1.0
    return PassageIndex(
        passages=passages,
        postings=postings,
        norms=[k1 * (1 - b + b * length / avg) for length in doc_lengths],
        avg_doc_length=avg_len,
        k1=k1,
        b=b,
    )


def load_corpus(path: str) -> list[Passage]:
    """Read a line-delimited corpus: one JSON record {id, title?, text} per line."""
    passages = [
        Passage(id=rec["id"], title=rec.get("title", ""), text=rec["text"])
        for rec in records.read_jsonl(path, "corpus", *_PASSAGE)
    ]
    empty = next((p.id for p in passages if not p.text), None)
    if empty is not None:
        raise IndexFormatError(f"{path}: corpus record {empty} needs non-empty text")
    return passages


def save_index(index: PassageIndex, path: str) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "k1": index.k1,
        "b": index.b,
        "passages": [
            {"id": p.id, "title": p.title, "text": p.text} for p in index.passages
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False)


def load_index(path: str) -> PassageIndex:
    """Rebuild the index from its persisted corpus; observationally identical."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise IndexFormatError(f"{path}: not a readable index file") from exc
    if not isinstance(payload, dict) or payload.get("format_version") != FORMAT_VERSION:
        raise IndexFormatError(
            f"{path}: expected format_version {FORMAT_VERSION}, "
            f"got {payload.get('format_version') if isinstance(payload, dict) else type(payload).__name__}"
        )
    entries, k1, b = payload.get("passages"), payload.get("k1"), payload.get("b")
    if not isinstance(entries, list) or not all(isinstance(v, (int, float)) for v in (k1, b)):
        raise IndexFormatError(f"{path}: needs a passages list and numeric k1 and b")
    passages = []
    for n, p in enumerate(entries):
        problem = records.check(p, *_PASSAGE)
        if problem:
            raise IndexFormatError(f"{path}: passage {n} {problem}")
        passages.append(Passage(str(p["id"]), p.get("title", ""), p["text"]))
    return build_index(passages, k1=k1, b=b)
