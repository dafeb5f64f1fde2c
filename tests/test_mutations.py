"""Seeded mutations of every input file kind, each run through cli.main in-process.

A mutated input may be accepted or refused, but never with a traceback: every
run returns 0 or 1, and a refusal is exactly one ``error:`` line on stderr. A
value that the JSON decoder refuses is refused with the name of its file.
``run`` and ``reward`` also exit 1 without an ``error:`` line when some episode
or rollout failed, which they record in their outputs.
"""

import json
import random

import pytest

from planrag.cli import main
from test_cli import CORPUS, DATASET, SCRIPTS, SUPERVISE_QUESTIONS, SUPERVISE_SCRIPTS

MUTATIONS_PER_KIND = 30
# values a JSON swap puts in place of another; the numbers stay small, so that
# no mutation asks for many threads, rounds or hits
_SWAPS = (None, True, False, -1, 0, 1, 2, 0.5, -0.5, float("nan"), float("inf"), "", "x",
          "[RETRIEVE]", [], ["x"], {}, {"id": "x"})


def _write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return str(path)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """One valid file of each input kind; the transcripts and samples are command outputs."""
    root = tmp_path_factory.mktemp("inputs")
    f = {
        "corpus": _write_jsonl(root / "corpus.jsonl", CORPUS),
        "dataset": _write_jsonl(root / "dataset.jsonl", DATASET),
        "scripts": _write_jsonl(root / "scripts.jsonl", SCRIPTS),
        "questions": _write_jsonl(root / "questions.jsonl", SUPERVISE_QUESTIONS),
        "probes": _write_jsonl(root / "probes.jsonl", SUPERVISE_SCRIPTS),
        "predictions": _write_jsonl(
            root / "predictions.jsonl",
            [{"id": r["id"], "prediction": a} for r, a in zip(DATASET, ["Paris", "Bonn", ""])]),
        "index": str(root / "index.bin"),
    }
    assert main(["index", "--corpus", f["corpus"], "--out", f["index"]]) == 0
    assert main(["run", "--dataset", f["dataset"], "--index", f["index"],
                 "--scripts", f["scripts"], "--out-dir", str(root / "run")]) == 0
    f["transcripts"] = str(root / "run" / "transcripts.jsonl")
    assert main(["supervise", "--questions", f["questions"], "--index", f["index"],
                 "--scripts", f["probes"], "--attempts", "2", "--out-dir", str(root / "sup")]) == 0
    f["samples"] = str(root / "sup" / "sft.jsonl")
    with open(f["samples"]) as fh:
        samples = [json.loads(line) for line in fh]
    f["rollouts"] = _write_jsonl(
        root / "rollouts.jsonl",
        [{"id": s["id"], "text": s["target"]} for s in samples]
        + [{"id": samples[0]["id"], "text": "[ANSWER] rome [SOLVED]"}])
    f["config"] = str(root / "config.json")
    with open(f["config"], "w") as fh:
        json.dump({"scripts": f["scripts"], "budget": 2, "top_k": 2, "parallelism": 2,
                   "fallback": "finalize", "normalization": "minimal", "k1": 1.2, "b": 0.75,
                   "temperature": 0.0, "max_tokens": 64}, fh)
    return f


# input kind -> the command that reads a file of that kind, given the valid
# inputs, the mutated file and a scratch dir for the outputs
COMMANDS = {
    "corpus": lambda f, m, out: ["index", "--corpus", m, "--out", f"{out}/i.bin"],
    "index": lambda f, m, out: ["run", "--dataset", f["dataset"], "--index", m,
                                "--scripts", f["scripts"], "--out-dir", out],
    "dataset": lambda f, m, out: ["run", "--dataset", m, "--index", f["index"],
                                  "--scripts", f["scripts"], "--out-dir", out],
    "scripts": lambda f, m, out: ["run", "--dataset", f["dataset"], "--index", f["index"],
                                  "--scripts", m, "--out-dir", out],
    "questions": lambda f, m, out: ["supervise", "--questions", m, "--index", f["index"],
                                    "--scripts", f["probes"], "--attempts", "2", "--out-dir", out],
    "probes": lambda f, m, out: ["supervise", "--questions", f["questions"], "--index",
                                 f["index"], "--scripts", m, "--attempts", "2", "--out-dir", out],
    "config": lambda f, m, out: ["run", "--dataset", f["dataset"], "--index", f["index"],
                                 "--out-dir", out, "--config", m],
    "predictions": lambda f, m, out: ["score", "--predictions", m, "--dataset", f["dataset"],
                                      "--out-dir", out],
    "transcripts": lambda f, m, out: ["compare", "--a", m, "--b", f["transcripts"], "--dataset",
                                      f["dataset"], "--subset", "a>=1", "--out", f"{out}/c.json"],
    "samples": lambda f, m, out: ["reward", "--rollouts", f["rollouts"], "--samples", m,
                                  "--out", f"{out}/r.jsonl"],
    "rollouts": lambda f, m, out: ["reward", "--rollouts", m, "--samples", f["samples"],
                                   "--out", f"{out}/r.jsonl"],
}


def _flip(data: bytes, rng: random.Random) -> bytes:
    data = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        data[rng.randrange(len(data))] = rng.randrange(256)
    return bytes(data)


def _truncate(data: bytes, rng: random.Random) -> bytes:
    return data[:rng.randrange(len(data))]


def _slots(value):
    """(container, key) for every value nested in a parsed JSON value."""
    items = value.items() if type(value) is dict else enumerate(value) if type(value) is list else ()
    for key, inner in items:
        yield value, key
        yield from _slots(inner)


def _swap(data: bytes, rng: random.Random) -> bytes:
    """One value of one JSON line swapped for another; bytes that hold no JSON get a flip."""
    lines = data.split(b"\n")
    parsed = {}
    for i, line in enumerate(lines):
        try:
            parsed[i] = json.loads(line)
        except ValueError:
            continue
    if not parsed:
        return _flip(data, rng)
    i = rng.choice(sorted(parsed))
    value = parsed[i]
    slots = list(_slots(value))
    if slots:
        container, key = rng.choice(slots)
        container[key] = rng.choice(_SWAPS)
    else:
        value = rng.choice(_SWAPS)
    lines[i] = json.dumps(value).encode()
    return b"\n".join(lines)


# well-formed JSON that the decoder refuses: arrays nested past the recursion limit,
# and an integer past int's digit limit
_REFUSED = {"deep_nesting": b"[" * 100_000 + b"]" * 100_000, "huge_integer": b"9" * 5_000}
_MARK = "refused value goes here"


def _refuse_first_value(data: bytes, value: bytes) -> bytes:
    """The first value of the first line, a JSON object, replaced with ``value``.

    The index file's first line is its header, so the rest of it is left as it was.
    """
    first, sep, rest = data.partition(b"\n")
    record = json.loads(first)
    record[next(iter(record))] = _MARK
    return json.dumps(record).encode().replace(json.dumps(_MARK).encode(), value) + sep + rest


@pytest.mark.parametrize("refused", list(_REFUSED))
@pytest.mark.parametrize("kind", list(COMMANDS))
def test_a_value_the_decoder_refuses_is_named_in_one_error(inputs, tmp_path, capsys, kind,
                                                           refused):
    with open(inputs[kind], "rb") as fh:
        valid = fh.read()
    mutant = tmp_path / "mutant"
    mutant.write_bytes(_refuse_first_value(valid, _REFUSED[refused]))
    out = tmp_path / "out"
    out.mkdir()
    code = main(COMMANDS[kind](inputs, str(mutant), str(out)))
    err = capsys.readouterr().err
    assert code == 1
    if kind == "rollouts":
        # the first rollout has its own error entry, and the others are still scored
        assert err == ""
        with open(out / "r.jsonl") as fh:
            entries = [json.loads(line) for line in fh]
        assert entries[0] == {"line": 1, "error": "malformed rollout record"}
        assert len(entries) == valid.count(b"\n") and all("total" in e for e in entries[1:])
    else:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(mutant) in err


@pytest.mark.parametrize("kind", list(COMMANDS))
def test_mutated_input_is_accepted_or_one_error_line(inputs, tmp_path, capsys, kind):
    rng = random.Random(f"planrag-mutations-{kind}")
    with open(inputs[kind], "rb") as fh:
        valid = fh.read()
    mutant = tmp_path / "mutant"
    out = tmp_path / "out"
    out.mkdir()
    for n in range(MUTATIONS_PER_KIND):
        mutate = rng.choice((_flip, _truncate, _swap))
        data = mutate(valid, rng)
        mutant.write_bytes(data)
        argv = COMMANDS[kind](inputs, str(mutant), str(out))
        code = main(argv)
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        case = f"{kind} mutation {n} ({mutate.__name__}): {data[:300]!r}"
        assert code in (0, 1), case
        if errors:
            assert code == 1 and err == errors[0] + "\n", case
        elif code == 1:
            assert argv[0] in ("run", "reward"), case
