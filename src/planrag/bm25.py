"""Self-contained BM25 passage retriever: build, score, search, persist."""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Iterable

FORMAT_VERSION = 1

_TERM_RE = re.compile(r"[^\W_]+", re.UNICODE)


class EmptyCorpusError(ValueError):
    pass


class DuplicateIdError(ValueError):
    pass


class OrdinalOutOfRangeError(IndexError):
    pass


class IndexFormatError(ValueError):
    pass


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
    doc_lengths: list[int]
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
        length = self.doc_lengths[ordinal]
        norm = self.k1 * (1 - self.b + self.b * length / self.avg_doc_length)
        total = 0.0
        # sorted unique terms keep float accumulation order canonical
        for term in sorted(set(query_terms)):
            tf = self.postings.get(term, {}).get(ordinal, 0)
            if tf == 0:
                continue
            total += self._idf(term) * tf * (self.k1 + 1) / (tf + norm)
        return total

    def search(self, query: str, k: int) -> list[RetrievedPassage]:
        """Top-k positive-scoring passages, ties broken by ascending passage id."""
        if k < 1:
            raise ValueError("k must be >= 1")
        terms = sorted(set(tokenize(query)))
        scores: dict[int, float] = {}
        for term in terms:
            posting = self.postings.get(term)
            if not posting:
                continue
            idf = self._idf(term)
            for ordinal, tf in posting.items():
                length = self.doc_lengths[ordinal]
                norm = self.k1 * (1 - self.b + self.b * length / self.avg_doc_length)
                contrib = idf * tf * (self.k1 + 1) / (tf + norm)
                scores[ordinal] = scores.get(ordinal, 0.0) + contrib
        ranked = sorted(
            (o for o, s in scores.items() if s > 0),
            key=lambda o: (-scores[o], self.passages[o].id),
        )
        return [
            RetrievedPassage(passage=self.passages[o], score=scores[o], rank=r)
            for r, o in enumerate(ranked[:k], 1)
        ]


def build_index(
    corpus: Iterable[Passage], k1: float = 1.2, b: float = 0.75
) -> PassageIndex:
    """Index a passage stream. Deterministic for a fixed input order."""
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
    return PassageIndex(
        passages=passages,
        postings=postings,
        doc_lengths=doc_lengths,
        avg_doc_length=avg_len,
        k1=k1,
        b=b,
    )


def load_corpus(path: str) -> list[Passage]:
    """Read a line-delimited corpus: one JSON record {id, title?, text} per line."""
    passages = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IndexFormatError(f"{path}:{lineno}: bad corpus record") from exc
            if "id" not in rec or "text" not in rec or not rec["text"]:
                raise IndexFormatError(f"{path}:{lineno}: record needs id and non-empty text")
            passages.append(
                Passage(id=str(rec["id"]), title=rec.get("title", ""), text=rec["text"])
            )
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
        fields = [p.get("id"), p.get("title", ""), p.get("text")] if isinstance(p, dict) else [None]
        if not all(isinstance(f, str) for f in fields):
            raise IndexFormatError(f"{path}: passage {n} needs string id, title and text")
        passages.append(Passage(*fields))
    return build_index(passages, k1=k1, b=b)
