"""Seeded input generator for the planrag benchmark.

Everything planrag sees is written here from a seed: Zipf corpora, datasets,
replay scripts, chat-backend plans, probe scripts and rollouts. Each generator
also returns what the benchmark expects planrag to produce from its inputs, so
the outputs can be checked without trusting the program.

Shares of designed cases (rounds, query classes, anomalies, faults, kinds) are
exact counts shuffled into place, not independent draws, so two seeds give
batches of the same shape and the timings do not drift with the seed.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

VOWELS = "aeiou"
# Corpus words never use "x"; wrong answers use only "x" syllables, so a wrong
# answer can never contain a reference answer as a substring (CoverEM).
CORPUS_CONSONANTS = "bcdfghjklmnprstvwz"
BUDGET = 3
TOP_K = 3


@dataclass
class Corpus:
    vocab: list[str]
    cum_weights: list[float]
    passages: list[dict]

    def zipf(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.vocab, cum_weights=self.cum_weights, k=k)

    def query(self, rng: random.Random, kind: str) -> str:
        """A stopword-heavy query or a rare-term one.

        Stopword-heavy: 8 words, 2 of them from the 10 most frequent, whose
        postings cover most passages (about as many as an 8-word Zipf draw
        holds), and 6 from the next ranks. Rare-term: 3 words from the
        lower three quarters of the vocabulary. Drawing a fixed number from each
        rank band keeps the cost of a query class steady across seeds.
        """
        if kind == "common":
            words = rng.sample(self.vocab[:10], 2) + rng.sample(self.vocab[10:3000], 6)
            rng.shuffle(words)
        else:
            words = rng.sample(self.vocab[len(self.vocab) // 4 :], 3)
        return " ".join(words)


def _words(rng: random.Random, n: int, consonants: str, seen: set[str]) -> list[str]:
    out = []
    while len(out) < n:
        word = "".join(
            rng.choice(consonants) + rng.choice(VOWELS) for _ in range(rng.randint(2, 4))
        )
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def make_corpus(rng: random.Random, passages: int, vocab_size: int) -> Corpus:
    """Passages of 60-140 tokens drawn from a Zipf(1) law over vocab_size words."""
    vocab = _words(rng, vocab_size, CORPUS_CONSONANTS, set())
    cum = list(itertools.accumulate(1.0 / r for r in range(1, vocab_size + 1)))
    corpus = Corpus(vocab, cum, [])
    for i in range(passages):
        corpus.passages.append(
            {
                "id": f"p{i:05d}",
                "title": " ".join(corpus.zipf(rng, 2)),
                "text": " ".join(corpus.zipf(rng, rng.randint(60, 140))),
            }
        )
    return corpus


def _wrong(rng: random.Random) -> str:
    return " ".join(
        "".join("x" + rng.choice(VOWELS) for _ in range(rng.randint(2, 3)))
        for _ in range(rng.randint(1, 3))
    )


def _exact_labels(rng: random.Random, n: int, shares: dict, rest=None) -> list:
    """n labels, round(share * n) of each (at least one), shuffled.

    `rest`, or else the first label, fills whatever the shares leave over.
    """
    labels = [label for label, share in shares.items() for _ in range(max(1, round(share * n)))]
    filler = next(iter(shares)) if rest is None else rest
    labels = (labels + [filler] * n)[:n]
    rng.shuffle(labels)
    return labels


def _query_classes(rng: random.Random, n: int, common: float = 0.5) -> list[str]:
    return _exact_labels(rng, n, {"common": common}, "rare")


def _questions(rng: random.Random, corpus: Corpus, n: int, classes: list[str] | None = None):
    """Unique question texts; a trailing id word keeps them distinct."""
    return [
        (corpus.query(rng, classes[i]) if classes else " ".join(corpus.zipf(rng, 6)))
        + f" q{i:04d}"
        for i in range(n)
    ]


# --- eval-replay ---------------------------------------------------------------

# Episode shapes (rounds, stopword-heavy queries) and their exact shares. A
# stopword-heavy search costs tens of times a rare-term one, so latency falls
# into groups by heavy queries. These shares put the median inside the group
# with none (in its two-round part) and the 95th percentile in the middle of
# the group with two, never on the edge between groups, where it would jump
# from seed to seed; and they keep a pass short enough for several passes per run.
REPLAY_SHAPES = {(0, 0): 0.20, (1, 0): 0.20, (2, 0): 0.25, (3, 0): 0.12,
                 (1, 1): 0.05, (2, 1): 0.04, (3, 1): 0.04, (2, 2): 0.05, (3, 2): 0.05}
# Anomalies the planner repairs with one re-prompt, and a share repeated twice,
# which ends the episode as malformed: (share, shapes it may replace a turn of).
REPLAY_ANOMALIES = {
    "malformed": (0.02, lambda rounds: rounds == 0),
    "after_budget": (0.04, lambda rounds: rounds == BUDGET),
    "plain": (0.08, lambda rounds: True),
    "bare": (0.04, lambda rounds: True),
}


def eval_replay_inputs(rng: random.Random, corpus: Corpus, n: int) -> dict:
    shapes = _exact_labels(rng, n, REPLAY_SHAPES)
    anomaly = ["none"] * n
    for label, (share, fits) in REPLAY_ANOMALIES.items():
        pool = [i for i in range(n) if anomaly[i] == "none" and fits(shapes[i][0])]
        for i in rng.sample(pool, max(1, round(share * n))):
            anomaly[i] = label
    questions = _questions(rng, corpus, n)
    rows, scripts, expected, query_class = [], [], [], {}
    for i in range(n):
        qid = f"q{i:04d}"
        answer = " ".join(rng.choice(corpus.vocab[:2000]) for _ in range(2))
        final = answer if rng.random() < 0.6 else _wrong(rng)
        rounds, heavy = shapes[i]
        kinds = ["common"] * heavy + ["rare"] * (rounds - heavy)
        rng.shuffle(kinds)
        queries = []
        for kind in kinds:
            q = corpus.query(rng, kind)
            query_class[q] = kind
            queries.append(q)
        turns = [
            f"[INTERMEDIARY] {' '.join(corpus.zipf(rng, rng.randint(4, 12)))} [RETRIEVE] {q}"
            for q in queries
        ] + [f"[ANSWER] {final} [SOLVED]"]
        exp = {"id": qid, "status": "completed", "rounds_used": rounds, "final_answer": final}
        if anomaly[i] == "malformed":
            turns = ["I am not sure how to proceed.", "Still thinking about it."] + turns
            exp.update(status="malformed", rounds_used=0, final_answer="")
        elif anomaly[i] in ("plain", "bare"):
            bad = "Let me think." if anomaly[i] == "plain" else "[INTERMEDIARY] partial reasoning"
            turns.insert(rng.randint(0, len(turns) - 1), bad)
        elif anomaly[i] == "after_budget":
            turns.insert(BUDGET, f"[INTERMEDIARY] one more [RETRIEVE] {corpus.query(rng, 'rare')}")
        rows.append({"id": qid, "question": questions[i], "answers": [answer]})
        scripts.append({"id": qid, "turns": turns})
        expected.append(exp)
    return {"rows": rows, "scripts": scripts, "expected": expected, "query_class": query_class}


# --- eval-chat -----------------------------------------------------------------

CHAT_FAULTS = {"429": 0.02, "503": 0.02}
# An episode's time is about proportional to its requests (rounds + 1); these
# shares keep the median and the 95th percentile inside one group each.
CHAT_ROUNDS = {0: 0.25, 1: 0.50, 2: 0.15, 3: 0.10}


def _junk(rng: random.Random, corpus: Corpus, after_answer: bool) -> str:
    """Text a model keeps generating past a complete branch."""
    words = " ".join(corpus.zipf(rng, rng.randint(8, 60)))
    if after_answer:
        return f" {words}"
    return f"\n[INTERMEDIARY] {words} [RETRIEVE] {' '.join(corpus.zipf(rng, 4))}"


def eval_chat_inputs(rng: random.Random, corpus: Corpus, n: int) -> dict:
    """Dataset plus per-question plans the fake chat backend follows.

    A plan's turn t is sent once the prompt shows t evidence blocks. A fault
    "t:a" makes attempt a of turn t answer with that HTTP status.
    """
    rounds = _exact_labels(rng, n, CHAT_ROUNDS)
    faults = _exact_labels(rng, n, CHAT_FAULTS, "none")
    classes = iter(_query_classes(rng, sum(rounds)))
    questions = _questions(rng, corpus, n)
    rows, plans, expected, query_class = [], {}, [], {}
    for i in range(n):
        qid = f"q{i:04d}"
        answer = " ".join(rng.choice(corpus.vocab[:500]) for _ in range(2))
        final = answer if rng.random() < 0.6 else _wrong(rng)
        turns, junk = [], []
        for _ in range(rounds[i]):
            kind = next(classes)
            q = corpus.query(rng, kind)
            query_class[q] = kind
            reason = " ".join(corpus.zipf(rng, rng.randint(4, 12)))
            turns.append(f"[INTERMEDIARY] {reason} [RETRIEVE] {q}")
            junk.append(_junk(rng, corpus, after_answer=False))
        turns.append(f"[ANSWER] {final} [SOLVED]")
        junk.append(_junk(rng, corpus, after_answer=True))
        plan = {"turns": turns, "junk": junk, "faults": {}}
        exp = {"id": qid, "status": "completed", "rounds_used": rounds[i], "final_answer": final}
        if faults[i] != "none":
            plan["faults"][f"{rng.randint(0, rounds[i])}:1"] = int(faults[i])
            if faults[i] == "429":
                exp.update(status="generator_failure", rounds_used=0, final_answer="")
        rows.append({"id": qid, "question": questions[i], "answers": [answer]})
        plans[questions[i]] = plan
        expected.append(exp)
    return {"rows": rows, "plans": plans, "expected": expected, "query_class": query_class}


# --- supervise + reward --------------------------------------------------------

KINDS = ("alpha", "beta", "gamma", "theta")
EMPTY_TEACHER_SHARE = 0.2  # of gamma questions; these are skipped by supervise
# per sample: rollouts matching the target's control pattern, valid but
# different, and breaking the grammar, with the r_ctrl each must earn
ROLLOUT_SHAPES = ("match",) * 2 + ("valid",) * 3 + ("invalid",) * 3
R_CTRL = {"match": 0.5, "valid": 0.0, "invalid": -0.5}


def _answer_turn(rng: random.Random, text: str) -> str:
    # probes accept both a marked answer and bare text
    return f"[ANSWER] {text} [SOLVED]" if rng.random() < 0.7 else text


def _rollout(rng: random.Random, corpus: Corpus, target_rounds: int, ref: str, shape: str) -> str:
    """A rollout whose control pattern matches the target, differs, or is invalid."""
    if shape == "match":
        rounds = target_rounds
    elif shape == "valid":
        rounds = rng.choice([r for r in range(BUDGET + 1) if r != target_rounds])
    else:
        rounds = rng.randint(0, BUDGET)
    answer = rng.choice(
        [ref, f"{ref} {' '.join(corpus.zipf(rng, rng.randint(1, 25)))}", _wrong(rng), ""]
    )
    parts = [
        f"[INTERMEDIARY] {' '.join(corpus.zipf(rng, rng.randint(3, 40)))} "
        f"[RETRIEVE] {' '.join(corpus.zipf(rng, rng.randint(2, 8)))} "
        for _ in range(rounds)
    ]
    tail = f"[ANSWER] {answer} [SOLVED]"
    if shape == "invalid":
        breach = rng.choice(["no_solved", "bare_retrieve", "over_budget", "no_retrieve"])
        if breach == "no_solved":
            tail = f"[ANSWER] {answer}"
        elif breach == "bare_retrieve":
            parts.insert(0, f"[RETRIEVE] {' '.join(corpus.zipf(rng, 3))} ")
        elif breach == "over_budget":
            parts = [f"[INTERMEDIARY] a [RETRIEVE] {w} " for w in corpus.zipf(rng, BUDGET + 1)]
        else:
            parts.insert(0, f"[INTERMEDIARY] {' '.join(corpus.zipf(rng, 5))} ")
    return "".join(parts) + tail


def supervise_inputs(rng: random.Random, corpus: Corpus, n: int, attempts: int) -> dict:
    kinds = [KINDS[i % 4] for i in range(n)]
    rng.shuffle(kinds)
    # A stopword-heavy question costs far more to search than a rare-term one;
    # 30% of them keeps the median question inside the rare-term group and the
    # 95th percentile inside the stopword-heavy one.
    classes = _query_classes(rng, n, common=0.3)
    questions = _questions(rng, corpus, n, classes)
    gamma_ids = [i for i, k in enumerate(kinds) if k == "gamma"]
    empty_teacher = set(rng.sample(gamma_ids, max(1, round(EMPTY_TEACHER_SHARE * len(gamma_ids)))))
    target_rounds = {"alpha": 0, "beta": 1, "theta": 1, "gamma": 2}
    rows, probes, rollouts, expected_kind, expected_ctrl = [], [], [], {}, []
    query_class = dict(zip(questions, classes))  # the retrieval probe searches the question
    for i in range(n):
        qid = f"q{i:04d}"
        ref = " ".join(rng.choice(corpus.vocab[:3000]) for _ in range(2))
        kind = kinds[i]
        wrong = [_wrong(rng) for _ in range(attempts + 1)]
        if kind == "alpha":
            param, retr = [ref] * attempts, ref
        elif kind == "beta":
            param = list(wrong[:attempts])
            param[rng.randrange(attempts)] = f"{ref} {' '.join(corpus.zipf(rng, 3))}"
            retr = wrong[-1]
        elif kind == "gamma":
            param, retr = wrong[:attempts], wrong[-1]
        else:
            param, retr = wrong[:attempts], ref
        teacher = [] if kind != "gamma" else [
            "" if i in empty_teacher else " ".join(corpus.zipf(rng, rng.randint(3, 8)))
        ]
        rows.append({"id": qid, "question": questions[i], "answers": [ref]})
        probes.append(
            {
                "id": qid,
                "probe_turns": [_answer_turn(rng, a) for a in param + [retr]],
                "teacher_turns": teacher,
            }
        )
        if i in empty_teacher:
            continue  # skipped by supervise, so it gets no sample and no rollouts
        expected_kind[qid] = kind
        shapes = list(ROLLOUT_SHAPES)
        rng.shuffle(shapes)
        for shape in shapes:
            rollouts.append({"id": qid, "text": _rollout(rng, corpus, target_rounds[kind], ref, shape)})
            expected_ctrl.append(R_CTRL[shape])
    return {
        "rows": rows,
        "probes": probes,
        "rollouts": rollouts,
        "expected_kind": expected_kind,
        "expected_ctrl": expected_ctrl,
        "query_class": query_class,
    }


def write_jsonl(path: str, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
