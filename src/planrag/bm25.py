"""Self-contained BM25 passage retriever: build, score, search, persist."""

from __future__ import annotations

import bisect
import heapq
import json
import math
import operator
import os
import re
import string
import sys
import weakref
from array import array
from collections.abc import Callable, Sequence
from itertools import accumulate, chain, repeat
from typing import Iterable, NamedTuple

from . import records

FORMAT_VERSION = 3

# the flat arrays after a format_version 3 header, in file order, with the typecodes
# each may have: postings and field offsets unsigned, norms float64 and the
# passages' UTF-8 text bytes
_UNSIGNED = ("B", "H", "I", "Q")
_ARRAYS = {"offsets": _UNSIGNED, "ordinals": _UNSIGNED, "tfs": _UNSIGNED, "norms": ("d",),
           "fields": _UNSIGNED, "text": ("B",)}
# lone surrogates, which a corpus can hold through JSON escapes, pass the UTF-8 codec
_UTF8 = "utf-8", "surrogatepass"
# save_index copies the text this many passages at a time: a few MB a read, far below
# the 2 GiB that one read returns at most on Linux
_COPY_RUN = 4096

# a corpus line: {id, title?, text}
_PASSAGE = {"text": str}, {"title": str}

_WORD_RE = re.compile(r"\w+")
# ASCII text, as bytes, lowercased and split on every character but a-z and 0-9: the
# table maps A-Z to a-z, keeps a-z and 0-9 and makes every other byte a space
_ASCII_WORDS = bytes(c + 32 if chr(c) in string.ascii_uppercase
                     else c if chr(c) in string.ascii_lowercase + string.digits
                     else 32 for c in range(256))

# search sums a query's share-dict terms directly (_direct) when they hold at most
# _DIRECT_WITHIN postings in all and the query has no tf-array term, or when no one
# of them holds more than half of their postings and they hold at most
# _BALANCED_WITHIN; it accumulates, prunes and rescores any other query (the
# crossovers measured at 20k passages are in search's docstring)
_DIRECT_WITHIN = 256
_BALANCED_WITHIN = 8192
# search stops adding terms to its candidates once at most this many times k
# are left, and gives those their exact scores
_RESCORE_WITHIN = 4
# relative slack on both sides of every bound test; float rounding is far smaller
_SLACK = 1e-9
# the largest k1 that build_index takes and load_index reads: up to it, every norm
# k1 * (1 - b + b * length / avg) <= k1 * (1 + N) and every term bound idf * tf * (k1 + 1)
# stay finite for any corpus an array can index (tf < 2**64), so no score overflows
K1_MAX = 1000


class Passage(NamedTuple):
    id: str
    title: str
    text: str


class RetrievedPassage(NamedTuple):
    passage: Passage
    score: float
    rank: int


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric character."""
    if text.isascii():
        # bytes.translate is a table lookup per byte, far cheaper than str.translate's dict
        return text.encode().translate(_ASCII_WORDS).decode().split()
    # \w is exactly the alphanumerics plus "_", so "_" is made a separator first; text
    # whose lowercase is ASCII (a KELVIN SIGN) gets the ASCII path's tokens here too
    return _WORD_RE.findall(text.lower().replace("_", " "))


class _Passages(Sequence):
    """An index's passages by ordinal, each decoded when first read and then kept.

    Passage o's title and text are bytes fields[2o]:fields[2o + 2] of the passages'
    UTF-8 text, got with one ``read_text`` call (see PassageIndex). A Passage is
    published with one assignment, as PassageIndex.posting publishes its dicts.
    """

    def __init__(self, ids: list[str], fields: array,
                 read_text: Callable[[int, int], bytes], path: str | None) -> None:
        self._ids, self._fields, self._read_text, self._path = ids, fields, read_text, path
        self._memo: list[Passage | None] = [None] * len(ids)

    def __len__(self) -> int:
        return len(self._memo)

    def __getitem__(self, ordinal: int) -> Passage:
        passage = self._memo[operator.index(ordinal)]  # IndexError outside [-n, n)
        if passage is None:
            ordinal %= len(self._memo)
            data = self.encoded(ordinal, ordinal + 1)
            cut = self._fields[2 * ordinal + 1] - self._fields[2 * ordinal]
            try:
                title, text = data[:cut].decode(*_UTF8), data[cut:].decode(*_UTF8)
            except UnicodeDecodeError:
                raise ValueError(f"{self._path}: passage {ordinal} is not UTF-8 text") from None
            passage = self._memo[ordinal] = Passage(self._ids[ordinal], title, text)
        return passage

    def encoded(self, first: int, last: int) -> bytes:
        """The UTF-8 titles and texts of passages first to last - 1, 0 <= first < last <= n,
        one after the other, with one ``read_text`` call."""
        lo, hi = self._fields[2 * first], self._fields[2 * last]
        data = self._read_text(lo, hi)
        if len(data) != hi - lo:
            # only a file cut short after the load reads short: name the first passage it cut,
            # the one whose title or text ends first past the bytes read
            ordinal = (bisect.bisect_right(self._fields, lo + len(data)) - 1) // 2
            raise ValueError(f"{self._path}: passage {ordinal} is cut short; "
                             "the file changed after it was loaded")
        return data


class PassageIndex:
    """Inverted index with BM25 statistics over an immutable passage corpus.

    Passage o is ids[o] with its UTF-8 title at bytes fields[2o]:fields[2o + 1]
    of the passages' text and its text up to fields[2o + 2]; ``read_text(lo,
    hi)`` returns bytes lo:hi of that text. Term i of ``terms`` has its postings
    at ordinals[offsets[i]:offsets[i + 1]], with their term frequencies at the
    same places in tfs. The integer arrays are in the narrowest unsigned
    typecode that holds them, as save_index writes them. ``norms`` is a "d"
    array, ordinal -> k1 * (1 - b + b * length / avg_doc_length). ``slots``
    maps each term to its position in terms, when the caller has built it
    (load_index does, to check that the terms are unique).

    A built index holds the text in memory. A loaded one holds the postings,
    norms and field offsets, and the passages decoded so far; it reads each
    passage's text from its file, which it keeps open, and keeps the file's
    ``path`` for the checks done on first use (see load_index).
    """

    def __init__(self, ids: list[str], fields: array, read_text: Callable[[int, int], bytes],
                 terms: list[str], offsets: array, ordinals: array, tfs: array, norms: array,
                 avg_doc_length: float, k1: float, b: float, path: str | None = None,
                 slots: dict[str, int] | None = None) -> None:
        self.ids, self.fields, self.read_text, self.terms = ids, fields, read_text, terms
        self.offsets, self.ordinals, self.tfs, self.norms = offsets, ordinals, tfs, norms
        self.avg_doc_length, self.k1, self.b, self.path = avg_doc_length, k1, b, path
        self._slots = dict(zip(terms, range(len(terms)))) if slots is None else slots
        # one int object per ordinal, the key in every posting dict: search looks
        # an ordinal from one posting up in the others, and a key of the same
        # object matches without a value comparison
        self._keys = list(range(len(ids)))
        self._built: dict[str, tuple[dict[int, float] | array, float]] = {}
        self.passages = _Passages(ids, fields, read_text, path)

    def posting(self, term: str) -> tuple[dict[int, float] | array, float] | None:
        """The term's postings and its idf, or None for a term no passage holds.

        A term in at most half the passages is held as {ordinal: share}, each
        share ``idf * tf * (k1 + 1) / (tf + norm)`` as score computes it. A term
        in more, whose idf is below ln 2, is held as an array of its tf by
        ordinal, 0 where absent, in the tfs' typecode: its shares would fill a
        dict nearly the size of the corpus, and search visits it last, on few
        candidates.

        The entry is built from the term's slice of the arrays on first use and
        cached; that is when a loaded file's ordinals and term frequencies for
        the term are checked. Threads sharing an index may both build one
        term's entry; each builds its own and publishes it with one assignment,
        so no reader sees an entry half built.
        """
        entry = self._built.get(term)
        if entry is None:
            i = self._slots.get(term)
            if i is None:
                return None
            lo, hi = self.offsets[i], self.offsets[i + 1]
            ordinals, tfs = self.ordinals[lo:hi], self.tfs[lo:hi]
            # the tfs are unsigned, so all nonzero is all >= 1; all() scans fastest
            _need(all(tfs), self.path, f"term {term!r} has a term frequency below 1")
            idf = self._idf(len(tfs))
            try:
                if 2 * len(tfs) > self.doc_count:
                    values = array(tfs.typecode, [0]) * self.doc_count
                    # setitem returns None, so any() stores every posting
                    any(map(operator.setitem, repeat(values), ordinals, tfs))
                else:
                    k1p, norms = self.k1 + 1, self.norms
                    values = {o: idf * tf * k1p / (tf + norms[o])
                              for o, tf in zip(map(self._keys.__getitem__, ordinals), tfs)}
            except IndexError:
                raise ValueError(
                    f"{self.path}: term {term!r} has an ordinal past the passages") from None
            entry = self._built[term] = values, idf
        return entry

    def _exact(self, terms: Iterable[tuple], ordinal: int) -> float:
        # the passage's score over the terms' entries, summed in their order from 0.0
        total = 0.0
        for values, idf in terms:
            if type(values) is dict:
                total += values.get(ordinal, 0.0)  # adding 0.0 is exact
            else:
                tf = values[ordinal]
                if tf:
                    total += idf * tf * (self.k1 + 1) / (tf + self.norms[ordinal])
        return total

    @property
    def doc_count(self) -> int:
        return len(self.ids)

    def _idf(self, df: int) -> float:
        # non-negative variant: ln((N - df + 0.5) / (df + 0.5) + 1); df is the
        # length of a posting the caller already holds, never 0
        n = self.doc_count
        return math.log((n - df + 0.5) / (df + 0.5) + 1)

    def score(self, query_terms: list[str], ordinal: int) -> float:
        """BM25 score of one passage; absent terms contribute 0."""
        if not 0 <= ordinal < self.doc_count:
            raise IndexError(f"ordinal {ordinal} not in [0, {self.doc_count})")
        # sorted unique terms keep float accumulation order canonical
        return self._exact(filter(None, map(self.posting, sorted(set(query_terms)))), ordinal)

    def search(self, query: str, k: int) -> list[RetrievedPassage]:
        """Top-k positive-scoring passages, ties broken by ascending passage id.

        Exact by either of two strategies, picked by ``_direct`` from the
        query's own postings. A query goes to the direct sum (_summed) when it
        has no term held as a tf array and its terms hold at most
        ``_DIRECT_WITHIN`` postings in all; or when its terms held as
        {ordinal: share} dicts hold at most ``_BALANCED_WITHIN`` postings, no
        one of them more than half, and their bounds sum to more than those of
        its tf-array terms. The share dicts are summed over every passage they
        touch; each tf-array term is not summed but bounded, and the few
        passages that could still reach the k-th score are rescored. Any other
        query, and a direct sum that cannot rule out a passage no share dict
        touches, is accumulated, pruned and rescored (_pruned). Both return
        exact scores, bitwise those of ``score``, for a set of passages that
        holds the top k, which are then ranked by (-score, id).

        Where they cross over, on a 20k-passage index (warm, 2 vCPUs, Python
        3.11): with one share-dict term holding nearly all the postings and the
        others about 10 each, the direct sum takes about half the pruned time up
        to about 360 postings and loses from about 500, for 3 and for 6 terms
        alike (min of 7 over 60 queries), so a query with one dominant term goes
        direct only within ``_DIRECT_WITHIN`` = 256 postings. With terms of
        about equal size it wins much further. Direct / pruned time, each the
        sum over 20 random queries of the min of 7, the range over two runs:

        =============================  =========  =========  =========  =========  =========
        share-dict postings            900        4,096      8,192      12,288     16,384
        =============================  =========  =========  =========  =========  =========
        3 terms, k = 3                 0.64-0.65  0.89-0.93  0.94-0.95  0.95-0.98  1.09-1.11
        3 terms, k = 10                0.63-0.64  0.86-0.87  0.93-0.94  0.99       0.97-1.00
        6 terms, 2 tf arrays, k = 3    0.63-0.64  0.69-0.73  0.81-0.82  0.99       1.11-1.12
        6 terms, 2 tf arrays, k = 10   0.61-0.79  0.71       0.74-0.76  0.88-0.89  0.99-1.05
        =============================  =========  =========  =========  =========  =========

        At 24,576 postings the direct sum takes 1.09-1.40 of the pruned time.
        ``_BALANCED_WITHIN`` = 8,192 keeps a margin below the crossover.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        # every term held has a non-empty posting; filter drops the None of the others
        terms = list(filter(None, map(self.posting, sorted(set(tokenize(query))))))
        scores = None
        if _direct(terms):
            shares = [values for values, _ in terms if type(values) is dict]
            if len(shares) == len(terms):
                scores = _summed(shares, k)
            else:
                k1p = self.k1 + 1
                rest = sum(idf * k1p for values, idf in terms if type(values) is not dict)
                scores = _summed(shares, k, rest)
                if scores is not None:
                    # rescore: exact sums over the sorted terms from 0.0, as score makes them
                    exact = self._exact
                    scores = {ordinal: exact(terms, ordinal) for ordinal in scores}
        if scores is None:
            scores = self._pruned(terms, k)
        ids = self.ids
        ranked = sorted(scores, key=lambda o: (-scores[o], ids[o]))[:k]
        return [RetrievedPassage(self.passages[o], scores[o], r) for r, o in enumerate(ranked, 1)]

    def _pruned(self, terms: list[tuple], k: int) -> dict[int, float]:
        """Exact scores of the candidates left after pruning, which hold the top k.

        Three phases after the "continue" accumulator strategy (Moffat & Zobel,
        TOIS 1996). build_index checks 0 <= k1 <= K1_MAX and 0 <= b <= 1, so every norm
        is >= 0 and a term adds to a score at least 0 and at most its bound
        ``idf * (k1 + 1)``.

        1. Accumulate: terms are visited by descending bound, and each passage
           of a visited posting adds the term's share to its partial sum in
           ``acc``: the share posting holds, or for a term held as a tf array
           ``bound * tf / (tf + norm)``. Once k passages are held and the bounds
           of the terms not yet visited sum to less than the k-th largest
           partial sum, no new passage is admitted.
        2. Prune: a candidate whose partial sum plus the bounds of the terms not
           yet added is below the k-th largest partial sum is dropped, and the
           next term is added to the candidates left. This repeats until every
           term is added or at most ``_RESCORE_WITHIN * k`` candidates are left,
           and the candidates are pruned once more after the last term added.
           Both phases run in one loop over the terms, which takes the k-th
           largest partial sum at most once per term added.
        3. Rescore: each survivor gets its exact score.

        Why this is exact. A partial sum adds some of a passage's non-negative
        term shares, so ``acc`` is a lower bound on its true score, and the k
        passages with the k largest partial sums all score at least the k-th of
        them. A passage pruned, or never admitted, scores at most its partial
        sum plus the bounds of the terms it missed, which lies strictly below
        the k-th largest partial sum and so strictly below the k-th exact score:
        it cannot enter the top k, not even on an id tie. Partial sums add
        ``score``'s own shares, but in visit order, not sorted order; and a term
        held as a tf array adds ``bound * tf / (tf + norm)``, with
        ``bound = idf * (k1 + 1)`` taken once per term, not in ``score``'s order
        ``idf * tf * (k1 + 1) / (tf + norm)``. So a partial sum may round apart
        from a full sum, by a few units in the last place per term. Every bound
        test gets a relative slack of
        ``_SLACK`` on both sides, far more than that rounding. A prune keeps a
        candidate when ``(a + rest) * (1 + _SLACK) >= floor * (1 - _SLACK)``,
        and tests it as ``a >= cut``, that inequality solved for ``a`` once per
        prune: ``cut = floor * (1 - _SLACK) / (1 + _SLACK) - rest``, whose own
        rounding is relative to ``floor`` and again far below the slack. A prune
        whose cut is at most the smallest partial sum, as every cut <= 0 is,
        would keep every candidate, so ``acc`` is left as it is. ``acc`` values
        are only ever bounds: rescoring sums over the sorted terms from 0.0 as
        ``score`` does, so the scores returned are bitwise those of ``score``.
        """
        k1p = self.k1 + 1
        visits = sorted(terms, key=lambda term: -term[1])
        bounds = [idf * k1p for _, idf in visits]
        # tails[i]: sum of the bounds of visits[i:], the terms not yet added
        tails = [sum(bounds[i:]) for i in range(len(bounds) + 1)]
        keys, norms = self._keys, self.norms

        def kth(acc: dict[int, float]) -> float:
            # the k-th largest partial sum; 0.0, which prunes nothing, below k
            return heapq.nlargest(k, acc.values())[-1] if len(acc) >= k else 0.0

        # accumulate while admitting; after that prune, then add the next term to
        # the candidates left, until every term is added or few candidates are left
        acc: dict[int, float] = {}
        admitting = True
        for added, ((values, idf), bound) in enumerate(zip(visits, bounds), 1):
            if type(values) is dict:  # {ordinal: share}
                if added == 1:
                    acc = dict(values)
                elif admitting:
                    get = acc.get
                    for ordinal, share in values.items():
                        acc[ordinal] = get(ordinal, 0.0) + share
                else:
                    for ordinal in acc.keys() & values.keys():
                        acc[ordinal] += values[ordinal]
            # a tf array, read beside the norms while admitting and by ordinal after
            elif added == 1:
                acc = {o: bound * tf / (tf + norm)
                       for o, tf, norm in zip(keys, values, norms) if tf}
            elif admitting:
                get = acc.get
                for ordinal, tf, norm in zip(keys, values, norms):
                    if tf:
                        acc[ordinal] = get(ordinal, 0.0) + bound * tf / (tf + norm)
            else:
                for ordinal in acc:
                    tf = values[ordinal]
                    if tf:
                        acc[ordinal] += bound * tf / (tf + norms[ordinal])
            rest = tails[added]
            # no partial sum exceeds the visited bounds: the test passes only below them
            if admitting and rest >= tails[0] - rest:
                continue
            floor = kth(acc)
            # after the last term rest is 0.0, and only a floor of 0.0, which
            # prunes nothing, goes on admitting
            if admitting and rest * (1 + _SLACK) >= floor:
                continue
            admitting = False
            # (a + rest) * (1 + _SLACK) >= floor * (1 - _SLACK), solved for a
            cut = floor * (1 - _SLACK) / (1 + _SLACK) - rest
            # rebuild only when some candidate falls below the cut; a cut <= 0 drops none
            if min(acc.values()) < cut:
                acc = {o: a for o, a in acc.items() if a >= cut}
            if len(acc) <= _RESCORE_WITHIN * k:
                break
        # rescore: exact sums over the sorted terms from 0.0, as score makes them
        exact = self._exact
        return {ordinal: exact(terms, ordinal) for ordinal in acc}


def _direct(terms: list[tuple]) -> bool:
    """Whether search sums these (values, idf) query terms directly (_summed).

    Yes when the terms are all share dicts with at most ``_DIRECT_WITHIN``
    postings in all. Otherwise yes only when the share dicts hold at most
    ``_BALANCED_WITHIN`` postings, no one of them more than half, and their
    bounds sum to more than the tf-array terms': the bound of every term is
    ``idf * (k1 + 1)``, and where the tf-array terms' bounds reach the share
    dicts', _summed could not rule out a passage no share dict touches.
    """
    sizes = [len(values) for values, _ in terms if type(values) is dict]
    volume = sum(sizes)
    if len(sizes) == len(terms) and volume <= _DIRECT_WITHIN:
        return True
    if not sizes or 2 * max(sizes) > volume or volume > _BALANCED_WITHIN:
        return False
    return 2 * sum(idf for values, idf in terms if type(values) is dict) > sum(
        idf for _, idf in terms)


def _summed(shares: list[dict[int, float]], k: int,
            rest: float = 0.0) -> dict[int, float] | None:
    """The passages these share dicts touch that may reach the k-th largest
    score, with the sums of their shares; None when the shares cannot tell.

    Without ``rest`` the dicts are all the query's terms. Each passage's shares
    are added in the dicts' order, the sorted term order, as ``score`` adds
    them from 0.0: the first share a passage gets is ``0.0 + share`` bitwise,
    and a term it lacks adds 0.0, which is exact. So the sums are the exact
    scores, and the passages below the k-th largest are dropped.

    ``rest`` > 0 is the sum of the bounds ``idf * (k1 + 1)`` of the query's
    other terms, held as tf arrays, which are not summed. Each of them adds to a
    score at least 0 and at most its bound (every norm is >= 0), so a passage's
    sum ``a`` is a lower bound on its score and ``a + rest`` an upper one. The
    k passages with the k largest sums then score at least the k-th of them,
    the floor. A passage is dropped when ``(a + rest) * (1 + _SLACK) < floor *
    (1 - _SLACK)``: it scores strictly below the k-th exact score and cannot
    enter the top k, not even on an id tie. The slack on both sides covers the
    rounding of sums added in another order than ``score``'s, a few units in
    the last place per term, as in PassageIndex._pruned, whose docstring has the
    whole argument; so the order is free, and the largest dict is copied first.
    A passage no share dict touches has ``a = 0``; when the test would keep it,
    or fewer than k passages are touched, the top k may hold passages the sums
    do not, and None is returned. The sums returned are only bounds; the caller
    rescores them.
    """
    if rest:
        shares = sorted(shares, key=len, reverse=True)
    acc: dict[int, float] = {}
    for values in shares:
        both = {o: acc[o] + values[o] for o in acc.keys() & values.keys()}
        acc.update(values)
        acc.update(both)
    if rest:
        if len(acc) < k:
            return None
        floor = heapq.nlargest(k, acc.values())[-1]
        # (a + rest) * (1 + _SLACK) >= floor * (1 - _SLACK), solved for a
        cut = floor * (1 - _SLACK) / (1 + _SLACK) - rest
        if cut <= 0:
            return None
        return {o: a for o, a in acc.items() if a >= cut}
    if len(acc) > k:
        floor = heapq.nlargest(k, acc.values())[-1]
        acc = {o: score for o, score in acc.items() if score >= floor}
    return acc


def build_index(
    corpus: Iterable[Passage], k1: float = 1.2, b: float = 0.75
) -> PassageIndex:
    """Index a passage stream. Deterministic for a fixed input order."""
    if not (0 <= k1 <= K1_MAX and 0 <= b <= 1):
        raise ValueError(f"BM25 needs k1 in [0, {K1_MAX}] and b in [0, 1], got k1={k1}, b={b}")
    passages: list[Passage] = []
    postings: dict[str, dict[int, int]] = {}
    doc_lengths: list[int] = []
    seen_ids: set[str] = set()
    for passage in corpus:
        if passage.id in seen_ids:
            raise ValueError(f"duplicate passage id: {passage.id}")
        ordinal = len(passages)
        seen_ids.add(passage.id)
        passages.append(passage)
        terms = tokenize(passage.title + " " + passage.text)
        doc_lengths.append(len(terms))
        for term in terms:
            posting = postings.get(term)
            if posting is None:
                postings[term] = {ordinal: 1}
            else:
                posting[ordinal] = posting.get(ordinal, 0) + 1
    if not passages:
        raise ValueError("cannot build an index over an empty corpus")
    avg_len = sum(doc_lengths) / len(doc_lengths)
    # an all-empty corpus has no postings, so no score depends on its norms
    avg = avg_len or 1.0
    terms, dicts = list(postings), postings.values()
    # one flat list at a time, each packed and dropped before the next
    offsets, ordinals, tfs = (_packed(list(values)) for values in (
        accumulate(map(len, dicts), initial=0), chain.from_iterable(dicts),
        chain.from_iterable(map(dict.values, dicts))))
    # drop the dicts before the text is encoded, so the text adds nothing to the build's peak
    del postings, dicts
    norms = array("d", [k1 * (1 - b + b * length / avg) for length in doc_lengths])
    return PassageIndex(*_encoded(passages), terms, offsets, ordinals, tfs, norms, avg_len, k1, b)


def load_corpus(path: str) -> list[Passage]:
    """Read a line-delimited corpus: one JSON record {id, title?, text} per line."""
    passages = [
        Passage(id=rec["id"], title=rec.get("title", ""), text=rec["text"])
        for rec in records.read_jsonl(path, "corpus", *_PASSAGE)
    ]
    empty = next((p.id for p in passages if not p.text), None)
    if empty is not None:
        raise ValueError(f"{path}: corpus record {empty} needs non-empty text")
    return passages


def _encoded(passages: list[Passage]) -> tuple[list[str], array, Callable[[int, int], bytes]]:
    """The ids, field offsets and text reader that hold these passages in a PassageIndex."""
    parts = [field.encode(*_UTF8) for p in passages for field in (p.title, p.text)]
    fields = _packed(list(accumulate(map(len, parts), initial=0)))
    text = b"".join(parts)
    return [p.id for p in passages], fields, lambda lo, hi: text[lo:hi]


def _packed(values: list[int]) -> array:
    """The values in the narrowest unsigned typecode that holds them."""
    top = max(values, default=0)
    return array(next(c for c in _UNSIGNED if top < 1 << 8 * array(c).itemsize), values)


def save_index(index: PassageIndex, path: str) -> None:
    """Write a format_version 3 file: one JSON header line, then six flat arrays.

    The header holds k1, b, avg_doc_length, the passage ids, the terms in
    postings order, the byte order and each array's typecode and item count.
    The arrays follow in _ARRAYS order: term offsets, ordinals, term
    frequencies, norms, field offsets and the passages' UTF-8 text.

    The file is written beside ``path`` and then moved onto it
    (records.replacing), so a save that fails leaves any file already at
    ``path`` as it was, and an index loaded from ``path`` keeps reading the
    file it opened, also when it is saved onto its own path.
    """
    # every array but the text, the last, which is copied through the passages' reads
    views = {name: memoryview(getattr(index, name)) for name in list(_ARRAYS)[:-1]}
    arrays = {name: [view.format, len(view)] for name, view in views.items()}
    header = {
        "format_version": FORMAT_VERSION,
        "k1": index.k1,
        "b": index.b,
        "avg_doc_length": index.avg_doc_length,
        "ids": index.ids,
        "terms": index.terms,
        "byteorder": sys.byteorder,
        "arrays": {**arrays, "text": ["B", index.fields[-1]]},
    }
    with records.replacing(path, encoding="ascii", newline="\n") as fh:
        # dumps encodes in C; dump streams through the pure-Python encoder
        fh.write(json.dumps(header) + "\n")
        fh.flush()
        for view in views.values():
            fh.buffer.write(view)  # as the items lie in memory, without a copy
        n = index.doc_count
        for first in range(0, n, _COPY_RUN):
            fh.buffer.write(index.passages.encoded(first, min(first + _COPY_RUN, n)))


def load_index(path: str) -> PassageIndex:
    """Read a format_version 3 file as save_index wrote it, without tokenizing.

    A file of any other version raises ValueError; rebuild it with
    ``planrag index``. The postings, norms and field offsets are read now; the
    passages' text is not. The index holds a read-only descriptor of the file
    for its lifetime, closed once the index is dropped, and reads each passage
    with one positional read (os.pread, so POSIX only) when it is first decoded.
    Each term's postings are checked when posting first reads them, each
    passage's UTF-8 when it is first decoded. Replacing the file, as save_index
    does, or unlinking it leaves the index reading the file it opened; a file
    edited in place after the load is read as it now is, and one cut short
    fails the first read of a passage past its new end with ValueError.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON or nested too deep
            raise ValueError(f"{path}: not a readable index file") from exc
        version = header.get("format_version") if type(header) is dict else type(header).__name__
        _need(version == FORMAT_VERSION, path, f"expected format_version {FORMAT_VERSION}, "
              f"got {version}; rebuild it with planrag index")
        k1, b = header.get("k1"), header.get("b")
        _need(type(k1) in (int, float) and type(b) in (int, float), path, "needs numeric k1 and b")
        _need(0 <= k1 <= K1_MAX and 0 <= b <= 1, path, f"needs k1 in [0, {K1_MAX}] and b in [0, 1]")
        offsets, ordinals, tfs, norms, fields, text_size = _read_arrays(path, fh, header)
        ids, terms, avg = header.get("ids"), header.get("terms"), header.get("avg_doc_length")
        # each check of every element is one pass in C: a set of the types, a sort of
        # an already sorted list, and the term -> slot dict that search looks terms up in
        _need(type(ids) is list and set(map(type, ids)) == {str} and len(set(ids)) == len(ids),
              path, "needs a non-empty list of unique string ids")
        bounds = fields.tolist()
        _need(len(bounds) == 2 * len(ids) + 1 and bounds[0] == 0 and bounds[-1] == text_size
              and bounds == sorted(bounds), path,
              "needs two field offsets per passage and one more, rising from 0 to the text length")
        _need(type(avg) in (int, float) and 0 <= avg < math.inf, path,
              "needs avg_doc_length >= 0")
        _need(
            type(terms) is list and set(map(type, terms)) <= {str}
            and len(slots := dict(zip(terms, range(len(terms))))) == len(terms),
            path, "needs a list of unique string terms",
        )
        _need(
            len(offsets) == len(terms) + 1 and offsets[0] == 0
            and all(map(operator.lt, offsets, offsets[1:]))
            and offsets[-1] == len(ordinals) == len(tfs),
            path, "needs one offset per term and one more, rising from 0 to the posting count",
        )
        _need(len(norms) == len(ids) and all(0 <= norm < math.inf for norm in norms), path,
              "needs one finite norm >= 0 per passage")
        return PassageIndex(ids, fields, _text_reader(fh), terms, offsets, ordinals, tfs, norms,
                            avg, k1, b, path, slots)


def _need(ok: bool, path: str, what: str) -> None:
    if not ok:
        raise ValueError(f"{path}: {what}")


def _read_arrays(path: str, fh, header: dict) -> list:
    """The number arrays after the header, in _ARRAYS order and native byte order,
    then the byte count of the text, the last array, which is left unread."""
    specs = header.get("arrays")
    _need(
        header.get("byteorder") in ("little", "big")
        and type(specs) is dict and list(specs) == list(_ARRAYS)
        and all(
            type(spec) is list and len(spec) == 2 and spec[0] in _ARRAYS[name]
            and type(spec[1]) is int and spec[1] >= 0
            for name, spec in specs.items()
        ),
        path, "needs a byteorder and the typecode and count of each of " + ", ".join(_ARRAYS),
    )
    arrays = [(array(code), count) for code, count in specs.values()]
    size = sum(a.itemsize * count for a, count in arrays)
    rest = os.fstat(fh.fileno()).st_size - fh.tell()
    _need(rest == size, path, f"holds {rest} bytes of arrays, its header {size}")
    *numbers, (_, text_size) = arrays
    for a, count in numbers:
        a.fromfile(fh, count)
        if header["byteorder"] != sys.byteorder:
            a.byteswap()
    return [a for a, _ in numbers] + [text_size]


def _text_reader(fh) -> Callable[[int, int], bytes]:
    """read(lo, hi): bytes lo:hi of the text that starts at fh's position, each
    with one positional read of a descriptor of its own, closed once read is
    dropped; the read returns short only where the file now ends before hi."""
    fd, start = os.dup(fh.fileno()), fh.tell()

    def read(lo: int, hi: int) -> bytes:
        return os.pread(fd, hi - lo, start + lo)

    weakref.finalize(read, os.close, fd)
    return read
