"""QA scoring: EM, CoverEM, token F1, ROUGE-1/2/L, sentence BLEU, aggregation."""

from __future__ import annotations

import math
import re
import string
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable, NamedTuple

if TYPE_CHECKING:  # pragma: no cover
    from .planner import Episode


class NormalizationMode(Enum):
    # lowercase + whitespace collapse only
    MINIMAL = "minimal"
    # lowercase + punctuation removal + article removal + whitespace collapse
    SQUAD_STYLE = "squad"


_ARTICLE_RE = re.compile(r"\b(a|an|the)\b")
_PUNC_BYTES = string.punctuation.encode("ascii")
# lone surrogates, which JSON escapes can put in a string, pass the UTF-8 codec
_UTF8 = "utf-8", "surrogatepass"


def _fold(s: str, mode: NormalizationMode) -> str:
    """The first steps of ``normalize``: lowercase, and in squad mode drop ASCII punctuation."""
    s = s.lower()
    if mode is NormalizationMode.SQUAD_STYLE:
        # an ASCII byte never occurs inside a multi-byte UTF-8 sequence, so deleting the
        # punctuation bytes deletes exactly the punctuation characters
        s = s.encode(*_UTF8).translate(None, _PUNC_BYTES).decode(*_UTF8)
    return s


def _finish(folded: str, mode: NormalizationMode) -> str:
    """The rest of ``normalize``: blank out articles, collapse whitespace."""
    if mode is NormalizationMode.SQUAD_STYLE:
        folded = _ARTICLE_RE.sub(" ", folded)
    return " ".join(folded.split())


def normalize(s: str, mode: NormalizationMode = NormalizationMode.SQUAD_STYLE) -> str:
    return _finish(_fold(s, mode), mode)


def _tokens(s: str, mode: NormalizationMode) -> list[str]:
    return normalize(s, mode).split()


class References(NamedTuple):
    """A question's reference answers normalized once in one mode.

    ``exact_match`` and ``cover_em`` score the question's many answers against
    them, each answer normalized once in the same mode.
    """

    mode: NormalizationMode
    texts: tuple[str, ...]


def normalize_refs(refs: list[str], mode: NormalizationMode) -> References:
    """``refs`` normalized in ``mode``; ValueError when there are none."""
    if not refs:
        raise ValueError("at least one reference answer is required")
    return References(mode, tuple(normalize(r, mode) for r in refs))


def _ref_tokens(refs: list[str], mode: NormalizationMode) -> list[list[str]]:
    return [r.split() for r in normalize_refs(refs, mode).texts]


def exact_match(pred: str, refs: References) -> int:
    """1 iff ``pred``, normalized in ``refs.mode``, equals a reference."""
    return int(pred in refs.texts)


def cover_em(pred: str, refs: References) -> int:
    """1 iff ``pred``, normalized in ``refs.mode``, contains a reference as a substring."""
    return int(any(r in pred for r in refs.texts))


def _f1_from_counts(overlap: int, n_pred: int, n_ref: int) -> float:
    if n_pred == 0 and n_ref == 0:
        return 1.0
    if n_pred == 0 or n_ref == 0 or overlap == 0:
        return 0.0
    precision = overlap / n_pred
    recall = overlap / n_ref
    return 2 * precision * recall / (precision + recall)


def _ngrams(tokens: list[str], n: int) -> list[tuple[str, ...]]:
    return list(zip(*(tokens[i:] for i in range(n))))


def _shared(pred: list, ref: list) -> int:
    """The size of the multiset intersection of ``pred`` and ``ref``.

    Each item of ``pred`` takes one match out of a copy of ``ref``: O(len(pred)
    * len(ref)), as _lcs_len is, and cheaper than two Counters for the few
    tokens of an answer.
    """
    left = ref.copy()
    shared = 0
    for item in pred:
        if item in left:
            left.remove(item)
            shared += 1
    return shared


def _lcs_len(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


class RougeScores(NamedTuple):
    r1: float
    r2: float
    rl: float
    avg: float


def _overlap_scores(
    pred_toks: list[str], refs_toks: list[list[str]]
) -> tuple[float, RougeScores]:
    """Token F1 and ROUGE-1/2/L of one prediction, each the max over references."""
    f1 = r1 = r2 = rl = 0.0
    pred_bigrams = _ngrams(pred_toks, 2)
    for ref in refs_toks:
        unigram = _f1_from_counts(_shared(pred_toks, ref), len(pred_toks), len(ref))
        f1 = max(f1, unigram)
        if pred_toks or ref:  # both empty: token F1 is 1.0, every ROUGE 0.0
            r1 = max(r1, unigram)
            rl = max(rl, _f1_from_counts(_lcs_len(pred_toks, ref), len(pred_toks), len(ref)))
        ref_bigrams = _ngrams(ref, 2)
        if pred_bigrams and ref_bigrams:  # no bigram on a side: ROUGE-2 is 0.0
            r2 = max(r2, _f1_from_counts(
                _shared(pred_bigrams, ref_bigrams), len(pred_bigrams), len(ref_bigrams)))
    return f1, RougeScores(r1=r1, r2=r2, rl=rl, avg=(r1 + r2 + rl) / 3)


def token_f1(
    pred: str, refs: list[str], mode: NormalizationMode = NormalizationMode.SQUAD_STYLE
) -> float:
    """Max over references of the multiset token-overlap F1."""
    return _overlap_scores(_tokens(pred, mode), _ref_tokens(refs, mode))[0]


def rouge(
    pred: str, refs: list[str], mode: NormalizationMode = NormalizationMode.SQUAD_STYLE
) -> RougeScores:
    """ROUGE-1/2/L F-measures, each the max over references, plus their mean."""
    return _overlap_scores(_tokens(pred, mode), _ref_tokens(refs, mode))[1]


class BleuReference(NamedTuple):
    """A BLEU reference tokenized once: its length and its 1- to 4-gram counts."""

    length: int
    counts: tuple[Counter, ...]


def bleu_reference(ref: str) -> BleuReference:
    toks = _tokens(ref, NormalizationMode.MINIMAL)
    return BleuReference(len(toks), tuple(Counter(_ngrams(toks, n)) for n in range(1, 5)))


def bleu(pred: str, ref: BleuReference) -> float:
    """Sentence BLEU up to order 4 (capped at the prediction length).

    ``ref`` is ``bleu_reference(text)``, counted once for many predictions.
    Uniform weights, add-one smoothing on orders >= 2, brevity penalty.
    A prediction that shares no unigram with the reference, an empty one
    included, scores 0 before any n-gram is built. The prediction is not
    counted: each n-gram it shares with the reference is clipped by counting
    it in the prediction's few n-grams.
    """
    toks = pred.lower().split()  # the tokens of _tokens(pred, MINIMAL)
    if ref.counts[0].keys().isdisjoint(zip(toks)):
        return 0.0
    max_order = min(4, len(toks))
    log_sum = 0.0
    matches = 1
    for n, ref_counts in enumerate(ref.counts[:max_order], 1):
        # an n-gram is shared only if its first n - 1 tokens are, so once an order
        # shares nothing no higher one does
        if matches:
            grams = _ngrams(toks, n)
            matches = sum([min(grams.count(g), ref_counts[g]) for g in ref_counts.keys() & grams])
        size = len(toks) - n + 1  # the prediction's n-grams
        if n == 1:
            p_n = matches / size
        else:
            p_n = (matches + 1) / (size + 1)
        log_sum += math.log(p_n) / max_order
    if len(toks) > ref.length:
        bp = 1.0
    else:
        bp = math.exp(1 - ref.length / len(toks))
    return bp * math.exp(log_sum)


# --- aggregation -------------------------------------------------------------


class MetricRow(NamedTuple):
    dataset: str
    em: float
    rouge_avg: float
    f1: float


def avg_score(rows: list[MetricRow]) -> float:
    """Unweighted mean over every (dataset, metric) cell."""
    if not rows:
        raise ValueError("avg_score needs at least one row")
    cells = [v for row in rows for v in (row.em, row.rouge_avg, row.f1)]
    return sum(cells) / len(cells)


def score_row(
    dataset: str,
    predictions: list[str],
    references: list[list[str]],
    mode: NormalizationMode = NormalizationMode.SQUAD_STYLE,
) -> MetricRow:
    """Average EM / ROUGE / F1 of aligned predictions against reference sets."""
    if not predictions:
        raise ValueError("no predictions to score")
    if len(predictions) != len(references):
        raise ValueError("predictions and references are misaligned")
    ems, rgs, f1s = [], [], []
    for pred, refs in zip(predictions, references):
        normalized, normalized_refs = normalize(pred, mode), normalize_refs(refs, mode)
        f1, scores = _overlap_scores(normalized.split(), [r.split() for r in normalized_refs.texts])
        ems.append(exact_match(normalized, normalized_refs))
        rgs.append(scores.avg)
        f1s.append(f1)
    n = len(predictions)
    return MetricRow(dataset=dataset, em=sum(ems) / n, rouge_avg=sum(rgs) / n, f1=sum(f1s) / n)


def answer_presence_at_k(
    episode: "Episode",
    refs: list[str],
    k: int,
    mode: NormalizationMode = NormalizationMode.SQUAD_STYLE,
) -> int:
    """1 iff a normalized reference appears in any of the first k passages of a round."""
    if k < 1:
        raise ValueError("k must be >= 1")
    targets = [t for t in (normalize(r, mode) for r in refs) if t]
    target_words = [t.split() for t in targets]
    for block in episode.memory:
        for hit in block.results[:k]:
            folded = _fold(hit.passage.title + " " + hit.passage.text, mode)
            # _finish only blanks out words and collapses whitespace, so a target can occur in
            # the normalized hit only if each of its words occurs in the folded one
            for words in target_words:
                for word in words:
                    if word not in folded:
                        break
                else:
                    haystack = _finish(folded, mode)
                    for target in targets:
                        if target in haystack:
                            return 1
                    break
    return 0


def retrieval_stats(episodes: Iterable["Episode"]) -> dict:
    """Mean retrieval count and the fraction of episodes per realized count."""
    counts = [ep.rounds_used for ep in episodes]
    if not counts:
        raise ValueError("no episodes")
    dist = Counter(counts)
    total = len(counts)
    return {
        "mean": sum(counts) / total,
        "distribution": {r: dist[r] / total for r in sorted(dist)},
    }


@dataclass
class ScoreReport:
    rows: list[MetricRow]
    avg_score: float
    retrieval_stats: dict = field(default_factory=dict)
    presence_at_k: dict = field(default_factory=dict)
    normalization: str = NormalizationMode.SQUAD_STYLE.value

    def to_dict(self) -> dict:
        return {
            "normalization": self.normalization,
            "rows": [
                {
                    "dataset": r.dataset,
                    "em": r.em,
                    "rouge": r.rouge_avg,
                    "f1": r.f1,
                }
                for r in self.rows
            ],
            "avg_score": self.avg_score,
            "retrieval_stats": self.retrieval_stats,
            "presence_at_k": {str(k): v for k, v in sorted(self.presence_at_k.items())},
        }

    def render_table(self) -> str:
        """Aligned text table: EM / ROUGE / F1 per dataset, then Avg.Score (x100)."""
        name_w = max([len("Dataset")] + [len(r.dataset) for r in self.rows])
        lines = [f"{'Dataset':<{name_w}}  {'EM':>6}  {'ROUGE':>6}  {'F1':>6}"]
        for r in self.rows:
            lines.append(
                f"{r.dataset:<{name_w}}  {100 * r.em:>6.1f}  "
                f"{100 * r.rouge_avg:>6.1f}  {100 * r.f1:>6.1f}"
            )
        lines.append(f"{'Avg.Score':<{name_w}}  {100 * self.avg_score:>6.1f}")
        return "\n".join(lines) + "\n"
