"""End-to-end CLI behavior with replay backends in a temp workspace."""

import codecs
import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import rewrite_index
from planrag import bm25, cli
from planrag.bm25 import Passage, RetrievedPassage
from planrag.cli import SETTINGS, main, parse_subset_spec, CliError
from planrag.control import validate
from planrag.generator import GeneratorEmission
from planrag.metrics import (
    NormalizationMode,
    ScoreReport,
    answer_presence_at_k,
    avg_score,
    retrieval_stats,
    score_row,
)
from planrag.generator import EvidenceBlock
from planrag.planner import Episode

CORPUS = [
    {"id": "p1", "title": "Eiffel Tower", "text": "The Eiffel Tower was completed in 1889 in Paris"},
    {"id": "p2", "title": "Berlin", "text": "Berlin is the capital city of Germany"},
    {"id": "p3", "title": "Louvre", "text": "The Louvre museum is located in Paris France"},
    {"id": "p4", "title": "Unification", "text": "The German Empire was proclaimed in 1871"},
]

DATASET = [
    {"id": "q1", "question": "Where is the Eiffel Tower?", "answers": ["Paris"]},
    {"id": "q2", "question": "What is the capital of Germany?", "answers": ["Berlin"]},
    {"id": "q3", "question": "When was the German Empire proclaimed?", "answers": ["1871"]},
]

SCRIPTS = [
    {"id": "q1", "turns": ["[ANSWER] Paris [SOLVED]"]},
    {
        "id": "q2",
        "turns": [
            "[INTERMEDIARY] I should check [RETRIEVE] capital of Germany",
            "[ANSWER] Berlin [SOLVED]",
        ],
    },
    {
        "id": "q3",
        "turns": [
            "[INTERMEDIARY] some empire [RETRIEVE] german empire proclaimed",
            "[INTERMEDIARY] 1871 maybe [RETRIEVE] year german empire proclaimed",
            "[ANSWER] 1871 [SOLVED]",
        ],
    },
]


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return str(path)


@pytest.fixture
def workspace(tmp_path):
    paths = {
        "corpus": write_jsonl(tmp_path / "corpus.jsonl", CORPUS),
        "dataset": write_jsonl(tmp_path / "dataset.jsonl", DATASET),
        "scripts": write_jsonl(tmp_path / "scripts.jsonl", SCRIPTS),
        "index": str(tmp_path / "index.json"),
        "root": tmp_path,
    }
    assert main(["index", "--corpus", paths["corpus"], "--out", paths["index"]]) == 0
    return paths


def test_a_byte_order_mark_at_the_start_of_an_input_file_is_skipped(workspace, tmp_path):
    config = json.dumps({"budget": 1}).encode()
    outputs = []
    for mark in (b"", codecs.BOM_UTF8):
        (tmp_path / "config.json").write_bytes(mark + config)
        (tmp_path / "dev.jsonl").write_bytes(mark + Path(workspace["dataset"]).read_bytes())
        out_dir = tmp_path / f"out{len(mark)}"
        code = main(["run", "--dataset", str(tmp_path / "dev.jsonl"), "--scripts",
                     workspace["scripts"], "--index", workspace["index"], "--out-dir",
                     str(out_dir), "--config", str(tmp_path / "config.json")])
        assert code == 0
        assert json.loads((out_dir / "report.json").read_text())["run"]["budget"] == 1
        outputs.append((out_dir / "transcripts.jsonl").read_bytes())
    assert outputs[0] == outputs[1]


class TestIndexCmd:
    def test_summary(self, workspace, capsys):
        code = main(["index", "--corpus", workspace["corpus"], "--out", workspace["index"]])
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["doc_count"] == 4

    def test_rebuild_identical(self, workspace, capsys):
        main(["index", "--corpus", workspace["corpus"], "--out", workspace["index"]])
        first = capsys.readouterr().out
        main(["index", "--corpus", workspace["corpus"], "--out", workspace["index"]])
        assert capsys.readouterr().out == first

    def test_integer_config_value_of_a_number_setting(self, workspace, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"k1": 1, "b": 1}))
        by_config, by_flag = tmp_path / "config.bin", tmp_path / "flag.bin"
        argv = ["index", "--corpus", workspace["corpus"], "--out"]
        assert main(argv + [str(by_config), "--config", str(config)]) == 0
        assert main(argv + [str(by_flag), "--k1", "1", "--b", "1"]) == 0
        assert by_config.read_bytes() == by_flag.read_bytes()

    def test_missing_corpus(self, tmp_path, capsys):
        code = main(["index", "--corpus", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "i.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


def run_cmd(workspace, out_name, extra=()):
    out_dir = workspace["root"] / out_name
    code = main(
        [
            "run",
            "--dataset", workspace["dataset"],
            "--index", workspace["index"],
            "--scripts", workspace["scripts"],
            "--out-dir", str(out_dir),
            *extra,
        ]
    )
    return code, out_dir


class TestRunCmd:
    def test_outputs(self, workspace):
        code, out_dir = run_cmd(workspace, "run1")
        assert code == 0
        transcripts = [
            json.loads(line)
            for line in (out_dir / "transcripts.jsonl").read_text().splitlines()
        ]
        assert [t["id"] for t in transcripts] == ["q1", "q2", "q3"]
        assert [t["rounds_used"] for t in transcripts] == [0, 1, 2]
        assert transcripts[2]["final_answer"] == "1871"
        report = json.loads((out_dir / "report.json").read_text())
        assert report["report"]["rows"][0]["em"] == 1.0
        assert report["report"]["presence_at_k"]["1"] > 0
        table = (out_dir / "report.txt").read_text()
        assert "Avg.Score" in table

    def test_deterministic_across_runs_and_parallelism(self, workspace):
        outputs = []
        for name, extra in (
            ("d1", []), ("d2", []), ("d3", []),
            ("p4", ["--parallelism", "4"]),
        ):
            code, out_dir = run_cmd(workspace, name, extra)
            assert code == 0
            outputs.append(
                (out_dir / "transcripts.jsonl").read_bytes()
                + (out_dir / "report.json").read_bytes()
                + (out_dir / "report.txt").read_bytes()
            )
        assert len(set(outputs)) == 1

    @pytest.mark.parametrize("command, sub_dir", [(["run"], ""), (["sweep", "--budgets", "3"], "b3")])
    def test_missing_index_recorded_per_episode(self, workspace, tmp_path, capsys, command, sub_dir):
        dataset = write_jsonl(tmp_path / "two.jsonl", DATASET[:2])
        out_dir = tmp_path / "no-index"
        code = main([*command, "--dataset", dataset, "--scripts", workspace["scripts"],
                     "--out-dir", str(out_dir)])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        transcripts = [
            json.loads(line)
            for line in (out_dir / sub_dir / "transcripts.jsonl").read_text().splitlines()
        ]
        assert [(t["id"], t["status"]) for t in transcripts] == [
            ("q1", "completed"), ("q2", "missing_index")
        ]
        assert transcripts[0]["final_answer"] == "Paris"
        assert "no index" in transcripts[1]["failure"]
        assert (out_dir / sub_dir / "report.json").exists()

    def test_empty_dataset(self, workspace, tmp_path):
        empty = write_jsonl(tmp_path / "empty.jsonl", [])
        out_dir = workspace["root"] / "empty-run"
        code = main(
            ["run", "--dataset", empty, "--scripts", workspace["scripts"],
             "--out-dir", str(out_dir)]
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["report"]["rows"] == []

    def test_missing_scripts_and_backend(self, workspace, capsys):
        out_dir = workspace["root"] / "nogen"
        code = main(
            ["run", "--dataset", workspace["dataset"], "--out-dir", str(out_dir)]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_failed_episode_sets_exit_code(self, workspace, tmp_path):
        bad_scripts = write_jsonl(
            tmp_path / "bad.jsonl",
            [{"id": r["id"], "turns": []} for r in DATASET],
        )
        out_dir = workspace["root"] / "failing"
        code = main(
            ["run", "--dataset", workspace["dataset"], "--scripts", bad_scripts,
             "--index", workspace["index"], "--out-dir", str(out_dir)]
        )
        assert code == 1
        transcripts = [
            json.loads(line)
            for line in (out_dir / "transcripts.jsonl").read_text().splitlines()
        ]
        assert all(t["status"] == "generator_failure" for t in transcripts)

    def test_config_file_and_flag_precedence(self, workspace, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"budget": 1, "top_k": 2}))
        out_dir = workspace["root"] / "cfg"
        code = main(
            ["run", "--dataset", workspace["dataset"], "--scripts", workspace["scripts"],
             "--index", workspace["index"], "--out-dir", str(out_dir),
             "--config", str(config), "--budget", "3"]
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["run"]["budget"] == 3  # flag wins
        assert report["run"]["top_k"] == 2  # config wins over default

    def test_config_fallback_not_a_policy(self, workspace, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"fallback": "force_finalize"}))
        code = main(["run", "--dataset", workspace["dataset"], "--scripts", workspace["scripts"],
                     "--out-dir", str(tmp_path / "o"), "--config", str(config)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1 and "force_finalize" in err


# A replay run whose hits hold the answers: q1's at rank 1 as written, q2's at rank 1
# only after punctuation and articles are dropped, q3's only at rank 2; q4 never
# retrieves. The expected files are the bytes the report has always had.
PRESENCE_CORPUS = [
    {"id": "c1", "title": "Paris", "text": "Paris is the capital of France"},
    {"id": "c2", "title": "Tower", "text": "an Eiffel, the  Tower... stands on the Champ de Mars"},
    {"id": "c3", "title": "Seine", "text": "The Seine river flows past many towns"},
    {"id": "c4", "title": "Rivers", "text": "The Loire river is the longest river of France"},
    {"id": "c5", "title": "Valley", "text": "The Loire valley holds many castles"},
    {"id": "c6", "title": "Alps", "text": "Mont Blanc is the highest mountain of the Alps"},
]
PRESENCE_DATASET = [
    {"id": "q1", "question": "What is the capital of France?", "answers": ["Paris"]},
    {"id": "q2", "question": "What stands on the Champ de Mars?",
     "answers": ["The Eiffel Tower!", "tour Eiffel"]},
    {"id": "q3", "question": "Which river is the longest?", "answers": ["Loire", "the Loire river"]},
    {"id": "q4", "question": "What is the highest mountain?", "answers": ["Mont Blanc", "Blanc"]},
]
PRESENCE_SCRIPTS = [
    {"id": "q1", "turns": ["[INTERMEDIARY] look it up [RETRIEVE] capital of France",
                           "[ANSWER] Paris [SOLVED]"]},
    {"id": "q2", "turns": ["[INTERMEDIARY] a landmark [RETRIEVE] Champ de Mars stands",
                           "[ANSWER] the Eiffel tower in Paris [SOLVED]"]},
    {"id": "q3", "turns": ["[INTERMEDIARY] rivers [RETRIEVE] river flows past towns",
                           "[ANSWER] The Seine [SOLVED]"]},
    {"id": "q4", "turns": ["[ANSWER] Mont Blanc. [SOLVED]"]},
]
PINNED_REPORT = """{{
  "run": {{
    "dataset": "dataset",
    "budget": 3,
    "top_k": 3,
    "normalization": "{mode}"
  }},
  "report": {{
    "normalization": "{mode}",
    "rows": [
      {{
        "dataset": "dataset",
        "em": {em},
        "rouge": {rouge},
        "f1": {f1}
      }}
    ],
    "avg_score": {avg},
    "retrieval_stats": {{
      "dataset": {{
        "mean": 0.75,
        "distribution": {{
          "0": 0.25,
          "1": 0.75
        }}
      }}
    }},
    "presence_at_k": {{
      "1": {at1},
      "3": {at3}
    }}
  }}
}}
"""
PINNED = {
    "squad": (
        dict(em="0.5", rouge="0.5694444444444444", f1="0.6666666666666666",
             avg="0.5787037037037037", at1="0.5", at3="0.75"),
        "Dataset      EM   ROUGE      F1\ndataset    50.0    56.9    66.7\nAvg.Score    57.9\n",
    ),
    "minimal": (
        dict(em="0.25", rouge="0.42777777777777776", f1="0.6",
             avg="0.4259259259259259", at1="0.25", at3="0.5"),
        "Dataset      EM   ROUGE      F1\ndataset    25.0    42.8    60.0\nAvg.Score    42.6\n",
    ),
}


@pytest.mark.parametrize("mode", sorted(PINNED))
def test_report_bytes_of_a_run_whose_hits_hold_answers(tmp_path, mode):
    index = str(tmp_path / "index.bin")
    assert main(["index", "--corpus", write_jsonl(tmp_path / "corpus.jsonl", PRESENCE_CORPUS),
                 "--out", index]) == 0
    out_dir = tmp_path / "out"
    code = main([
        "run", "--dataset", write_jsonl(tmp_path / "dataset.jsonl", PRESENCE_DATASET),
        "--index", index, "--scripts", write_jsonl(tmp_path / "scripts.jsonl", PRESENCE_SCRIPTS),
        "--out-dir", str(out_dir), "--normalization", mode,
    ])
    assert code == 0
    hits = [[[p["id"] for p in r["passages"]] for r in json.loads(line)["rounds"]]
            for line in (out_dir / "transcripts.jsonl").read_text().splitlines()]
    assert hits == [[["c1", "c4", "c6"]], [["c2"]], [["c3", "c4"]], []]
    fields, table = PINNED[mode]
    assert (out_dir / "report.json").read_text() == PINNED_REPORT.format(mode=mode, **fields)
    assert (out_dir / "report.txt").read_text() == table


def _episode(*rounds):
    """An episode whose rounds hold passages with these texts, in rank order."""
    memory = [
        EvidenceBlock(f"q{n}", [RetrievedPassage(Passage(f"p{n}-{r}", "", text), 1.0, r)
                                for r, text in enumerate(texts, 1)])
        for n, texts in enumerate(rounds)
    ]
    return Episode(question="q", memory=memory, final_answer="Paris")


@pytest.mark.parametrize("mode", list(NormalizationMode))
def test_report_presence_runs_k1_only_where_k3_hits(tmp_path, monkeypatch, mode):
    episodes = [
        _episode(["in PARIS, France", "x", "y"]),  # rank 1
        _episode(["x", "paris!", "y"]),  # rank 2 only
        _episode(["x", "y", "Paris"]),  # rank 3 only
        _episode(["x", "y", "z"], ["Paris"]),  # a later round only, at rank 1
        _episode(["x"], ["y", "z", "paris"]),  # a later round only, at rank 3
        _episode(["x", "y", "z", "Paris"]),  # nowhere in the first three
        _episode(),  # no retrieval
    ]
    rows = [{"id": f"q{i}", "answers": ["Paris"]} for i in range(len(episodes))]
    want = {k: [answer_presence_at_k(ep, ["Paris"], k, mode) for ep in episodes] for k in (1, 3)}
    calls = []

    def counted(ep, refs, k, mode):
        calls.append((episodes.index(ep), k))
        return answer_presence_at_k(ep, refs, k, mode)

    # cli calls it through its own namespace, where the benchmark's tracer wraps it
    monkeypatch.setattr(cli, "answer_presence_at_k", counted)
    preds = [ep.final_answer for ep in episodes]
    payload, table = cli._score_report("d", preds, rows, mode, episodes)
    hits = [i for i, hit in enumerate(want[3]) if hit]
    assert sorted(calls) == sorted([(i, 3) for i in range(len(episodes))] + [(i, 1) for i in hits])
    assert payload["presence_at_k"] == {str(k): sum(v) / len(episodes) for k, v in want.items()}
    # the two-pass rule: every episode at k = 1 and again at k = 3
    row = score_row("d", preds, [r["answers"] for r in rows], mode)
    two_pass = ScoreReport([row], avg_score([row]), {"d": retrieval_stats(episodes)},
                           {k: sum(v) / len(episodes) for k, v in want.items()}, mode.value)
    cli._write_report(str(tmp_path / "one"), payload, table)
    cli._write_report(str(tmp_path / "two"), two_pass.to_dict(), two_pass.render_table())
    for name in ("report.json", "report.txt"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


class TestSweepCmd:
    def test_budget_sweep_counts(self, workspace, tmp_path):
        # scripts retrieve four times before answering on the fifth turn;
        # an extra answer turn covers the repair re-prompt at small budgets
        retrieve = "[INTERMEDIARY] more [RETRIEVE] eiffel paris"
        sweep_scripts = write_jsonl(
            tmp_path / "sweep_scripts.jsonl",
            [
                {"id": r["id"], "turns": [retrieve] * 4 + ["[ANSWER] Paris [SOLVED]"] * 2}
                for r in DATASET
            ],
        )
        out_dir = workspace["root"] / "sweep"
        code = main(
            ["sweep", "--dataset", workspace["dataset"], "--scripts", sweep_scripts,
             "--index", workspace["index"], "--out-dir", str(out_dir),
             "--budgets", "3,5"]
        )
        assert code == 0
        sweep = json.loads((out_dir / "sweep.json").read_text())
        by_budget = {row["budget"]: row for row in sweep["budgets"]}
        assert by_budget[3]["mean_count"] == pytest.approx(3.0)
        assert by_budget[5]["mean_count"] == pytest.approx(4.0)
        for row in sweep["budgets"]:
            assert all(int(k) <= row["budget"] for k in row["distribution"])
        assert (out_dir / "b3" / "transcripts.jsonl").exists()
        assert (out_dir / "sweep.txt").exists()

    def test_zero_budget(self, workspace, tmp_path):
        scripts = write_jsonl(
            tmp_path / "zb.jsonl",
            [{"id": r["id"], "turns": ["[ANSWER] Paris [SOLVED]"]} for r in DATASET],
        )
        out_dir = workspace["root"] / "sweep0"
        code = main(
            ["sweep", "--dataset", workspace["dataset"], "--scripts", scripts,
             "--out-dir", str(out_dir), "--budgets", "0"]
        )
        assert code == 0
        sweep = json.loads((out_dir / "sweep.json").read_text())
        assert sweep["budgets"][0]["mean_count"] == 0.0

    def test_bad_budget_runs_no_budget(self, workspace, capsys):
        out_dir = workspace["root"] / "sweep_bad"
        code = main(
            ["sweep", "--dataset", workspace["dataset"], "--scripts", workspace["scripts"],
             "--index", workspace["index"], "--out-dir", str(out_dir), "--budgets", "3,-1"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--budgets" in err and "-1" in err
        assert not out_dir.exists()

    def test_repeated_budget_runs_no_budget(self, workspace, capsys):
        out_dir = workspace["root"] / "sweep_repeat"
        code = main(
            ["sweep", "--dataset", workspace["dataset"], "--scripts", workspace["scripts"],
             "--index", workspace["index"], "--out-dir", str(out_dir), "--budgets", "1,3,01"]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: --budgets: 1 repeats\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--budgets", "1"]])
    def test_parallelism_below_1_writes_nothing(self, workspace, capsys, command):
        out_dir = workspace["root"] / "par0"
        code = main(
            command + ["--dataset", workspace["dataset"], "--scripts", workspace["scripts"],
                       "--index", workspace["index"], "--out-dir", str(out_dir),
                       "--parallelism", "0"]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: --parallelism must be >= 1, got 0\n"
        assert not out_dir.exists()

    def test_budget_setting_not_read(self, workspace, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"budget": 7}))
        out_dir = workspace["root"] / "sweep_cfg"
        code = main(
            ["sweep", "--dataset", workspace["dataset"], "--scripts", workspace["scripts"],
             "--index", workspace["index"], "--out-dir", str(out_dir), "--budgets", "1",
             "--config", str(config)]
        )
        assert code == 0
        assert (out_dir / "b1" / "transcripts.jsonl").exists()
        assert json.loads((out_dir / "b1" / "report.json").read_text())["run"]["budget"] == 1

    def test_run_is_a_sweep_of_one_budget(self, workspace):
        code, run_dir = run_cmd(workspace, "run2", ["--budget", "2"])
        assert code == 0
        sweep_dir = workspace["root"] / "sweep2"
        code = main(
            ["sweep", "--dataset", workspace["dataset"], "--scripts", workspace["scripts"],
             "--index", workspace["index"], "--out-dir", str(sweep_dir), "--budgets", "2"]
        )
        assert code == 0
        for name in ("transcripts.jsonl", "report.json", "report.txt"):
            assert (run_dir / name).read_bytes() == (sweep_dir / "b2" / name).read_bytes()


def _hash_seed_workspace(root):
    """A corpus, dataset and replay scripts whose searches take each search strategy."""
    rng = random.Random(10)
    vocab = [f"w{r}" for r in range(300)]
    weights = [1 / r for r in range(1, len(vocab) + 1)]
    corpus = [{"id": f"p{i:03d}", "title": " ".join(rng.choices(vocab, weights, k=2)),
               "text": " ".join(rng.choices(vocab, weights, k=rng.randint(20, 60)))}
              for i in range(200)]
    dataset, scripts = [], []
    for i in range(12):
        answer = " ".join(rng.choices(vocab[:40], k=2))
        rare = rng.sample(vocab[100:], 3)
        stopword_heavy = rng.sample(vocab[:5], 2) + rng.sample(vocab[5:60], 6)
        frequent = rng.sample(vocab[:5], 3)
        queries = [rare, stopword_heavy, frequent][:i % 4]
        turns = [f"[INTERMEDIARY] step {n} [RETRIEVE] {' '.join(q)}"
                 for n, q in enumerate(queries)]
        dataset.append({"id": f"q{i}", "question": f"question {i}?", "answers": [answer]})
        scripts.append({"id": f"q{i}", "turns": turns + [f"[ANSWER] {answer} [SOLVED]"]})
    return (write_jsonl(root / "corpus.jsonl", corpus), write_jsonl(root / "dev.jsonl", dataset),
            write_jsonl(root / "scripts.jsonl", scripts))


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # str hashes, and so set and dict-view orders, differ between interpreters
    # with different PYTHONHASHSEED; every output but the timings must not
    corpus, dataset, scripts = _hash_seed_workspace(tmp_path)
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}"
        out.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        index = str(out / "index.json")
        common = ["--dataset", dataset, "--index", index, "--scripts", scripts]
        # sweep exits 1: budget 0 ends the episodes that retrieve as budget_zero_retrieve
        for argv, code in ((["index", "--corpus", corpus, "--out", index], 0),
                           (["run", *common, "--out-dir", str(out / "run")], 0),
                           (["sweep", *common, "--budgets", "0,1,3",
                             "--out-dir", str(out / "sweep")], 1)):
            done = subprocess.run([sys.executable, "-m", "planrag", *argv], env=env,
                                  stdout=subprocess.DEVNULL, timeout=120)
            assert done.returncode == code
        written = sorted(p.relative_to(out) for p in out.rglob("*")
                         if p.is_file() and p.name != "timings.jsonl")
        outputs.append({name: (out / name).read_bytes() for name in written})
    names = {str(name) for name in outputs[0]}
    assert {"run/transcripts.jsonl", "run/report.json", "run/report.txt", "sweep/sweep.json",
            "sweep/b3/transcripts.jsonl", "sweep/b3/report.json", "sweep/b3/report.txt"} <= names
    assert outputs[0] == outputs[1]


# one question per case the planner records: every status and every note, and a
# retrieval query that ends in part of a surface whose rest starts the next turn
PINNED_SCRIPTS = {
    "clean": ["[INTERMEDIARY] check [RETRIEVE] Eiffel Tower", "[ANSWER] Paris [SOLVED]"],
    "no_solved": ["[ANSWER] Berlin"],
    "open_answer_cut": ["[ANSWER] Paris [INTERMEDIARY] more"],
    "after_solved": ["lead [ANSWER] 1871 [SOLVED] and some chatter"],
    "after_query": ["[INTERMEDIARY] look [RETRIEVE] capital of Germany [ANSWER] Bonn [SOLVED]",
                    "[ANSWER] Berlin [SOLVED]"],
    "bare": ["[INTERMEDIARY] thinking only", "[ANSWER] Paris [SOLVED]"],
    # under --fallback finalize, the retrieval after the bare turn is refused
    "forced": ["[INTERMEDIARY] thinking only", "[INTERMEDIARY] x [RETRIEVE] Eiffel Tower",
               "[ANSWER] Paris [SOLVED]"],
    "plain": ["just text\n", "[ANSWER] Paris [SOLVED]"],
    "empty_query": ["[INTERMEDIARY] hmm [RETRIEVE]   ", "[ANSWER] Paris [SOLVED]"],
    "malformed": ["[SOLVED] oops", "[RETRIEVE] again"],
    "budget": ["[INTERMEDIARY] a [RETRIEVE] german empire", "[INTERMEDIARY] b [RETRIEVE] 1871",
               "[INTERMEDIARY] c [RETRIEVE] proclaimed", "[ANSWER] 1871 [SOLVED]"],
    "split_surface": ["[INTERMEDIARY] split [RETRIEVE] Louvre Paris [ANSW",
                      "ER] Paris [SOLVED]", "[ANSWER] Paris [SOLVED]"],
    "exhausted": ["[INTERMEDIARY] x [RETRIEVE] Louvre museum"],
}
PINNED_ANSWERS = {"no_solved": "Berlin", "after_query": "Berlin", "budget": "1871",
                  "after_solved": "1871", "malformed": "Rome"}
# sha256 of each output, as written before the planner kept its transcript as text
PINNED_DIGESTS = {
    "finalize/report.json": "79c606f6b5d2255a7432547bc589d3f3fb418553e150eeff2a352c4c143a21c3",
    "finalize/transcripts.jsonl": "f94ba5ac5050faeab767dd556449983e2584c6d37447ead22fc9b81728a873a3",
    "no_index/report.json": "661c77f80fe627ec214a617c83caba3c240e4650ce9775f15b29b6efcb712f80",
    "no_index/transcripts.jsonl": "0e1179fc86bfa130745e954e834216dad9229ab4d82be5e338135165f356e687",
    "rewards.jsonl": "83804e23fce502662635b14483af86f2c2eabc70150d45a80bc4d6a2625eb93d",
    "run/report.json": "8e4d39e8149496cb82158c8989379a29bdf08d2c99227ec4b67eb0dc8c3486b4",
    "run/transcripts.jsonl": "1d88dedc3aa46e5a368bc464756971eb608cbb901ef3c122cb39eb01b396b490",
    "sup/sft.jsonl": "3c7687a8255fb011888ff6598026dc925e42737b46383f680047299e07790507",
    "sup/sft.jsonl.summary.json": "71388bb2d27d2dc214010fd80bd9ab1da7b01cfe29690a36f521552dfbacfd8b",
    "sweep/b0/report.json": "a87e81cd1e2ac26e0a7796bc909e52922c4596c22009a06e8babd9924a54e6a8",
    "sweep/b0/transcripts.jsonl": "0c01b2978fde11750868759ed2eab6b55ff14d3247c10c30c29a0dff2f4a37f6",
    "sweep/b1/report.json": "8e4d39e8149496cb82158c8989379a29bdf08d2c99227ec4b67eb0dc8c3486b4",
    "sweep/b1/transcripts.jsonl": "1d88dedc3aa46e5a368bc464756971eb608cbb901ef3c122cb39eb01b396b490",
    "sweep/b2/report.json": "3f9ac8cd12151bfd703360a5014c4dabbb433fde5a8c5dd7732457c691a4ed30",
    "sweep/b2/transcripts.jsonl": "def49ce1f0fe0f6f39dc46f5ecf7a9fba4cd50bb5523b7d6053fd8b0c49f1c06",
    "sweep/sweep.json": "70480f1a601dafbc49dc66a4ae6e69e05f0a7c2d76515bc7c1624371636a7fdd",
}


def test_replay_outputs_keep_their_bytes(tmp_path, capsys):
    ids = list(PINNED_SCRIPTS)
    dataset = write_jsonl(tmp_path / "dev.jsonl", [
        {"id": qid, "question": f"question {qid}?", "answers": [PINNED_ANSWERS.get(qid, "Paris")]}
        for qid in ids])
    scripts = write_jsonl(tmp_path / "scripts.jsonl",
                          [{"id": qid, "turns": turns} for qid, turns in PINNED_SCRIPTS.items()])
    corpus, index = write_jsonl(tmp_path / "corpus.jsonl", CORPUS), str(tmp_path / "index.json")
    common = ["--dataset", dataset, "--scripts", scripts]
    with_index = common + ["--index", index]
    questions = write_jsonl(tmp_path / "questions.jsonl", SUPERVISE_QUESTIONS)
    probes = write_jsonl(tmp_path / "probes.jsonl", SUPERVISE_SCRIPTS)
    out = tmp_path / "out"
    commands = [
        ["index", "--corpus", corpus, "--out", index],
        ["run", *with_index, "--budget", "1", "--out-dir", str(out / "run")],
        ["run", *with_index, "--budget", "1", "--fallback", "finalize",
         "--out-dir", str(out / "finalize")],
        ["run", *common, "--out-dir", str(out / "no_index")],
        ["sweep", *with_index, "--budgets", "2,0,1", "--out-dir", str(out / "sweep")],
        ["supervise", "--questions", questions, "--scripts", probes, "--index", index,
         "--attempts", "2", "--out-dir", str(out / "sup")],
    ]
    assert [main(argv) for argv in commands] == [0, 1, 1, 1, 1, 0]
    # rollouts are the run's transcripts, scored against each sample
    transcripts = read_records(out / "run" / "transcripts.jsonl")
    rollouts = write_jsonl(tmp_path / "rollouts.jsonl", [
        {"id": q["id"], "text": rec["transcript"]} for q in SUPERVISE_QUESTIONS
        for rec in transcripts])
    assert main(["reward", "--rollouts", rollouts, "--samples", str(out / "sup" / "sft.jsonl"),
                 "--out", str(out / "rewards.jsonl")]) == 0
    capsys.readouterr()

    episodes = [rec for path in out.rglob("transcripts.jsonl") for rec in read_records(path)]
    assert {rec["status"] for rec in episodes} == {
        "completed", "malformed", "budget_zero_retrieve", "generator_failure", "missing_index"}
    assert {note for rec in episodes for note in rec["notes"]} == {
        "answer without Solved at end of turn", "turn truncated after Solved",
        "turn truncated after retrieval query", "turn was bare intermediary", "turn was plain",
        "empty retrieval query", "Solved without Answer", "Retrieve without Intermediary",
        "retrieve emitted after budget exhaustion", "retrieve emitted in zero-budget mode"}
    # the surface cut at the end of a query does not join the next turn's text
    [split] = [rec for rec in transcripts if rec["id"] == "split_surface"]
    assert split["control_sequence"] == ["INTERMEDIARY", "RETRIEVE", "SOLVED", "ANSWER", "SOLVED"]
    assert "[ANSW\nER]" in split["transcript"]

    written = sorted(str(p.relative_to(out)) for p in out.rglob("*")
                     if p.name.endswith((".json", ".jsonl")) and p.name != "timings.jsonl")
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in written}
    assert digests == PINNED_DIGESTS


def synth_transcripts(tmp_path, name, rounds, answers):
    rows = [
        {"id": f"q{i}", "rounds_used": r, "final_answer": a, "status": "completed"}
        for i, (r, a) in enumerate(zip(rounds, answers))
    ]
    return write_jsonl(tmp_path / name, rows)


class TestCompareCmd:
    def make_pair(self, tmp_path):
        refs = [
            {"id": f"q{i}", "question": f"q {i}", "answers": ["gold"]} for i in range(10)
        ]
        dataset = write_jsonl(tmp_path / "refs.jsonl", refs)
        # A retrieves >=1 on ids 0..4; B retrieves 0 on ids 0,1,2,7,8,9
        a = synth_transcripts(
            tmp_path, "a.jsonl",
            [1, 2, 1, 1, 3, 0, 0, 0, 0, 0],
            ["gold"] * 10,
        )
        b = synth_transcripts(
            tmp_path, "b.jsonl",
            [0, 0, 0, 1, 1, 1, 1, 0, 0, 0],
            ["gold"] * 5 + ["wrong"] * 5,
        )
        return dataset, a, b

    def test_fraction(self, tmp_path, capsys):
        dataset, a, b = self.make_pair(tmp_path)
        out = tmp_path / "compare.json"
        code = main(
            ["compare", "--a", a, "--b", b, "--dataset", dataset,
             "--subset", "a>=1,b==0", "--out", str(out)]
        )
        assert code == 0
        result = json.loads(out.read_text())
        assert result["matched"] == 3 and result["fraction"] == pytest.approx(0.30)
        assert result["A"]["em"] == 1.0

    def test_id_mismatch(self, tmp_path, capsys):
        dataset, a, _ = self.make_pair(tmp_path)
        other = synth_transcripts(tmp_path, "other.jsonl", [0], ["x"])
        code = main(
            ["compare", "--a", a, "--b", other, "--dataset", dataset,
             "--subset", "a>=1,b==0"]
        )
        assert code == 1
        assert "mismatch" in capsys.readouterr().err

    def test_empty_subset(self, tmp_path):
        dataset, a, b = self.make_pair(tmp_path)
        out = tmp_path / "empty.json"
        code = main(
            ["compare", "--a", a, "--b", b, "--dataset", dataset,
             "--subset", "a>=9,b>=9", "--out", str(out)]
        )
        assert code == 0
        result = json.loads(out.read_text())
        assert result["fraction"] == 0.0 and result["A"] is None

    def test_subset_spec_parsing(self):
        atoms = parse_subset_spec("a>=1, b==0")
        assert atoms == [("a", ">=", 1), ("b", "==", 0)]
        with pytest.raises(CliError):
            parse_subset_spec("c>1")


SUPERVISE_QUESTIONS = [
    {"id": "s1", "question": "alpha question", "answers": ["paris"]},
    {"id": "s2", "question": "beta question", "answers": ["berlin"]},
    {"id": "s3", "question": "gamma question", "answers": ["vienna"]},
    {"id": "s4", "question": "theta question", "answers": ["rome"]},
]

SUPERVISE_SCRIPTS = [
    # probe turns: two parametric attempts then one retrieval-probe attempt
    {"id": "s1", "probe_turns": ["paris", "paris", "paris"], "teacher_turns": []},
    {"id": "s2", "probe_turns": ["probably berlin today", "nope", "berlin"], "teacher_turns": []},
    {"id": "s3", "probe_turns": ["no idea", "none", "still wrong"],
     "teacher_turns": ["where is the gamma entity located"]},
    {"id": "s4", "probe_turns": ["wrong", "wrong", "rome area mostly"], "teacher_turns": []},
]


class TestSuperviseCmd:
    def run_supervise(self, tmp_path, scripts, out_name="sup", questions=SUPERVISE_QUESTIONS):
        questions = write_jsonl(tmp_path / "questions.jsonl", questions)
        scripts_path = write_jsonl(tmp_path / "probe_scripts.jsonl", scripts)
        out_dir = tmp_path / out_name
        code = main(
            ["supervise", "--questions", questions, "--scripts", scripts_path,
             "--out-dir", str(out_dir), "--attempts", "2"]
        )
        return code, out_dir

    def test_one_of_each_kind(self, tmp_path, capsys):
        code, out_dir = self.run_supervise(tmp_path, SUPERVISE_SCRIPTS)
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["counts"] == {"alpha": 1, "beta": 1, "gamma": 1, "theta": 1}
        lines = (out_dir / "sft.jsonl").read_text().splitlines()
        assert len(lines) == 4

    def test_teacher_unreachable_skips_gamma(self, tmp_path, capsys):
        scripts = [dict(s) for s in SUPERVISE_SCRIPTS]
        scripts[2] = {"id": "s3", "probe_turns": ["no idea", "none", "still wrong"],
                      "teacher_turns": []}
        code, out_dir = self.run_supervise(tmp_path, scripts, "sup2")
        assert code == 0
        captured = capsys.readouterr()
        assert "skipping s3: replay script exhausted after 0 turns" in captured.err.splitlines()
        summary = json.loads(captured.out.strip().splitlines()[-1])
        assert summary["skipped"] == 1
        assert summary["counts"]["gamma"] == 0

    def test_model_failure_skips_only_its_question(self, tmp_path, capsys):
        scripts = [dict(s) for s in SUPERVISE_SCRIPTS]
        scripts[1] = dict(scripts[1], probe_turns=["probably berlin today"])
        code, out_dir = self.run_supervise(tmp_path, scripts, "sup3")
        assert code == 0
        captured = capsys.readouterr()
        assert "skipping s2" in captured.err
        summary = json.loads(captured.out.strip().splitlines()[-1])
        assert summary["skipped"] == 1 and summary["written"] == 3
        ids = [json.loads(line)["id"] for line in (out_dir / "sft.jsonl").read_text().splitlines()]
        assert ids == ["s1", "s3", "s4"]

    def test_query_of_control_tokens_only_skips_its_question(self, tmp_path, capsys):
        # a beta target would retrieve with the question, a gamma one with the teacher's reply
        questions = [dict(q) for q in SUPERVISE_QUESTIONS]
        questions[1] = dict(questions[1], question="[RETRIEVE] ")
        scripts = [dict(s) for s in SUPERVISE_SCRIPTS]
        scripts[2] = dict(scripts[2], teacher_turns=["[SOLVED]"])
        code, out_dir = self.run_supervise(tmp_path, scripts, "sup4", questions)
        assert code == 0
        captured = capsys.readouterr()
        assert "skipping s2" in captured.err and "skipping s3" in captured.err
        summary = json.loads(captured.out.strip().splitlines()[-1])
        assert summary["skipped"] == 2 and summary["written"] == 2

    def test_rerun_identical(self, tmp_path):
        _, out1 = self.run_supervise(tmp_path, SUPERVISE_SCRIPTS, "supA")
        _, out2 = self.run_supervise(tmp_path, SUPERVISE_SCRIPTS, "supB")
        assert (out1 / "sft.jsonl").read_bytes() == (out2 / "sft.jsonl").read_bytes()

    def test_chat_settings_reach_model_and_teacher(self, tmp_path, monkeypatch):
        built = []

        class FakeChat:
            def __init__(self, settings):
                built.append(settings)

            def emit_turn(self, ctx):
                return GeneratorEmission(text="[ANSWER] paris [SOLVED]")

        monkeypatch.setattr("planrag.cli.HttpChatGenerator", FakeChat)
        config = tmp_path / "chat.json"
        config.write_text(json.dumps(
            {"endpoint": "http://backend/v1/chat", "model": "m", "teacher_model": "t",
             "temperature": 0.7, "max_tokens": 64}
        ))
        questions = write_jsonl(tmp_path / "questions.jsonl", SUPERVISE_QUESTIONS)
        code = main(["supervise", "--questions", questions, "--config", str(config),
                     "--out-dir", str(tmp_path / "chat")])
        assert code == 0
        assert [s.model for s in built] == ["m", "t"]
        assert all(s.temperature == 0.7 and s.max_tokens == 64 for s in built)


class TestRewardCmd:
    def make_samples(self, tmp_path):
        samples = [
            {"id": "r1", "question": "q", "kind": "alpha",
             "target": "[ANSWER] paris [SOLVED]", "references": ["paris"]},
            {"id": "r2", "question": "q", "kind": "alpha",
             "target": "[ANSWER] berlin [SOLVED]", "references": ["berlin"]},
        ]
        return write_jsonl(tmp_path / "samples.jsonl", samples)

    def test_perfect_rollouts(self, tmp_path):
        samples = self.make_samples(tmp_path)
        rollouts = write_jsonl(
            tmp_path / "rollouts.jsonl",
            [{"id": "r1", "text": "[ANSWER] paris [SOLVED]"},
             {"id": "r2", "text": "[ANSWER] berlin [SOLVED]"}],
        )
        out = tmp_path / "rewards.jsonl"
        assert main(["reward", "--rollouts", rollouts, "--samples", samples,
                     "--out", str(out)]) == 0
        entries = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(e["total"] == pytest.approx(1.5) for e in entries)

    def test_malformed_line_isolated(self, tmp_path):
        samples = self.make_samples(tmp_path)
        rollouts = tmp_path / "rollouts.jsonl"
        rollouts.write_text(
            '{"id": "r1", "text": "[ANSWER] paris [SOLVED]"}\n'
            "this is not json\n"
            '{"id": "r2", "text": "[SOLVED]"}\n'
        )
        out = tmp_path / "rewards.jsonl"
        assert main(["reward", "--rollouts", str(rollouts), "--samples", samples,
                     "--out", str(out)]) == 1
        entries = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(entries) == 3
        assert "error" in entries[1]
        assert entries[2]["r_ctrl"] == -0.5

    def test_rollout_text_not_string(self, tmp_path, capsys):
        samples = self.make_samples(tmp_path)
        rollouts = write_jsonl(tmp_path / "rollouts.jsonl", [{"id": "r1", "text": 5}])
        out = tmp_path / "rewards.jsonl"
        assert main(["reward", "--rollouts", rollouts, "--samples", samples,
                     "--out", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        assert json.loads(out.read_text()) == {"line": 1, "error": "malformed rollout record"}

    def test_rollout_line_not_utf8(self, tmp_path):
        samples = self.make_samples(tmp_path)
        rollouts = tmp_path / "rollouts.jsonl"
        rollouts.write_bytes(
            b'{"id": "r1", "text": 5}\n\xff\n{"id": "r2", "text": "[ANSWER] berlin [SOLVED]"}\n'
        )
        out = tmp_path / "rewards.jsonl"
        assert main(["reward", "--rollouts", str(rollouts), "--samples", samples,
                     "--out", str(out)]) == 1
        entries = [json.loads(line) for line in out.read_text().splitlines()]
        assert entries[:2] == [{"line": n, "error": "malformed rollout record"} for n in (1, 2)]
        assert entries[2]["id"] == "r2" and entries[2]["total"] == pytest.approx(1.5)

    def test_negative_budget_writes_no_rewards(self, tmp_path, capsys):
        samples = self.make_samples(tmp_path)
        rollouts = write_jsonl(tmp_path / "rollouts.jsonl", [{"id": "r1", "text": "[SOLVED]"}])
        out = tmp_path / "rewards.jsonl"
        assert main(["reward", "--rollouts", rollouts, "--samples", samples,
                     "--out", str(out), "--budget", "-1"]) == 1
        assert capsys.readouterr().err == "error: --budget must be >= 0, got -1\n"
        assert not out.exists()

    def test_each_sample_is_validated_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_validate(text, max_rounds):
            calls.append(text)
            return validate(text, max_rounds)

        monkeypatch.setattr("planrag.reward.validate", counting_validate)
        samples = self.make_samples(tmp_path)
        texts = ["[ANSWER] paris [SOLVED]", "[SOLVED]", "[ANSWER] berlin [SOLVED]"]
        rollouts = write_jsonl(tmp_path / "rollouts.jsonl",
                               [{"id": qid, "text": t} for t in texts for qid in ("r1", "r2")])
        out = tmp_path / "rewards.jsonl"
        assert main(["reward", "--rollouts", rollouts, "--samples", samples,
                     "--out", str(out)]) == 0
        # one call per rollout, and one per sample for its target
        assert len(calls) == 3 * 2 + 2
        assert Counter(calls) == {t: 3 if t != "[SOLVED]" else 2 for t in texts}

    def test_samples_that_score_nothing_keep_their_error_on_every_rollout(self, tmp_path):
        samples = write_jsonl(tmp_path / "samples.jsonl", [
            {"id": "ok", "question": "q", "kind": "alpha",
             "target": "[ANSWER] paris [SOLVED]", "references": ["paris"]},
            {"id": "bad_target", "question": "q", "kind": "alpha",
             "target": "[SOLVED]", "references": ["paris"]},
            {"id": "empty_ref", "question": "q", "kind": "alpha",
             "target": "[SOLVED]", "references": ["", "paris"]},
            {"id": "no_refs", "question": "q", "kind": "alpha",
             "target": "[SOLVED]", "references": []},
        ])
        ids = ["bad_target", "ok", "empty_ref", "no_refs", "missing"] * 2 + ["no_refs", "ok"]
        rollouts = write_jsonl(tmp_path / "rollouts.jsonl",
                               [{"id": qid, "text": "[ANSWER] paris [SOLVED]"} for qid in ids])
        out = tmp_path / "rewards.jsonl"
        assert main(["reward", "--rollouts", rollouts, "--samples", samples,
                     "--out", str(out)]) == 1
        errors = {
            "bad_target": "target trajectory does not satisfy the grammar",
            "empty_ref": "reference answer is empty",
            "no_refs": "sample has no reference answers",
            "missing": "no matching sample id",
        }
        want = [{"id": "ok", "r_ans": 1.0, "r_ctrl": 0.5, "total": 1.5} if qid == "ok"
                else {"id": qid, "error": errors[qid]} for qid in ids]
        assert [json.loads(line) for line in out.read_text().splitlines()] == want

    def test_empty_rollouts(self, tmp_path):
        samples = self.make_samples(tmp_path)
        rollouts = tmp_path / "rollouts.jsonl"
        rollouts.write_text("")
        out = tmp_path / "rewards.jsonl"
        assert main(["reward", "--rollouts", str(rollouts), "--samples", samples,
                     "--out", str(out)]) == 0
        assert out.read_text() == ""


def test_supervise_and_reward_read_their_texts_without_building_a_trajectory(
        tmp_path, monkeypatch, capsys):
    questions = write_jsonl(tmp_path / "questions.jsonl", SUPERVISE_QUESTIONS + [
        {"id": "s5", "question": "skipped question", "answers": ["oslo"]}])
    # a probe answer in control tokens is read from its last answer segment
    scripts = [dict(SUPERVISE_SCRIPTS[0], probe_turns=["[ANSWER] paris [SOLVED]", "paris",
                                                       "paris"]),
               *SUPERVISE_SCRIPTS[1:], {"id": "s5", "probe_turns": [], "teacher_turns": []}]
    scripts = write_jsonl(tmp_path / "probes.jsonl", scripts)
    texts = ["[ANSWER] paris [SOLVED]", "[SOLVED]", "lead [ANSWER] rome [SOLVED]",
             "[INTERMEDIARY] a [RETRIEVE] where [ANSWER] vienna [SOLVED] after"]

    def supervise_then_reward(name):
        out_dir = tmp_path / name
        supervised = main(["supervise", "--questions", questions, "--scripts", scripts,
                           "--attempts", "2", "--out-dir", str(out_dir)])
        supervise_io = capsys.readouterr()
        samples = [json.loads(line) for line in (out_dir / "sft.jsonl").read_text().splitlines()]
        rollouts = write_jsonl(out_dir / "rollouts.jsonl", [
            {"id": qid, "text": text} for qid in ("s1", "s2", "s3", "s4", "s5") for text in
            texts + [sample["target"] for sample in samples if sample["id"] == qid]])
        rewarded = main(["reward", "--rollouts", rollouts, "--samples",
                         str(out_dir / "sft.jsonl"), "--out", str(out_dir / "rewards.jsonl")])
        reward_io = capsys.readouterr()
        return [supervised, supervise_io, rewarded, reward_io] + [
            (out_dir / f).read_bytes() for f in ("sft.jsonl", "sft.jsonl.summary.json",
                                                 "rewards.jsonl")]

    expected = supervise_then_reward("parsed")
    assert expected[0] == 0 and expected[2] == 1  # s5 is skipped, so its rollouts score nothing
    assert expected[1].err == "skipping s5: replay script exhausted after 0 turns\n"

    def refuse(text):
        raise AssertionError("scoring parsed a Trajectory")

    for module in ("planrag.cli", "planrag.supervision", "planrag.control"):
        monkeypatch.setattr(f"{module}.parse_trajectory", refuse)
    calls = []

    def counting_validate(text, max_rounds):
        calls.append(text)
        return validate(text, max_rounds)

    monkeypatch.setattr("planrag.reward.validate", counting_validate)
    assert supervise_then_reward("text") == expected
    # four samples, each validated once for its target and once per rollout of its id
    assert len(calls) == 4 + 4 * (len(texts) + 1)


class TestScoreCmd:
    def test_score_predictions(self, tmp_path, capsys):
        dataset = write_jsonl(tmp_path / "refs.jsonl", DATASET)
        preds = write_jsonl(
            tmp_path / "preds.jsonl",
            [{"id": "q1", "prediction": "Paris"},
             {"id": "q2", "prediction": "munich"},
             {"id": "q3", "prediction": "1871"}],
        )
        code = main(["score", "--predictions", preds, "--dataset", dataset, "--name", "toy"])
        assert code == 0
        out = capsys.readouterr().out
        assert "toy" in out and "66.7" in out  # EM 2/3

    def test_missing_prediction(self, tmp_path, capsys):
        dataset = write_jsonl(tmp_path / "refs.jsonl", DATASET)
        preds = write_jsonl(tmp_path / "preds.jsonl", [{"id": "q1", "prediction": "x"}])
        assert main(["score", "--predictions", preds, "--dataset", dataset]) == 1


def read_records(path):
    """A written JSONL file's records; reading it as strict UTF-8 checks it is UTF-8."""
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


class TestLoneSurrogate:
    """A JSON escape can put a lone surrogate in any input string, which UTF-8 cannot
    encode; each output writes it as that escape, which reads back as the same string."""

    def test_in_a_corpus_passage(self, workspace):
        corpus = [dict(p) for p in CORPUS]
        corpus[1]["text"] += " \ud800"
        write_jsonl(workspace["root"] / "corpus.jsonl", corpus)
        assert main(["index", "--corpus", workspace["corpus"], "--out", workspace["index"]]) == 0
        code, out_dir = run_cmd(workspace, "run")
        assert code == 0
        q2 = read_records(out_dir / "transcripts.jsonl")[1]
        assert corpus[1]["text"] in [p["text"] for p in q2["rounds"][0]["passages"]]

    def test_in_a_replay_turn(self, workspace):
        scripts = [dict(s) for s in SCRIPTS]
        scripts[0] = {"id": "q1", "turns": ["[ANSWER] Paris \ud83d [SOLVED]"]}
        write_jsonl(workspace["root"] / "scripts.jsonl", scripts)
        code, out_dir = run_cmd(workspace, "run")
        assert code == 0
        q1 = read_records(out_dir / "transcripts.jsonl")[0]
        assert q1["final_answer"] == "Paris \ud83d"
        assert q1["transcript"] == scripts[0]["turns"][0]

    def test_in_a_chat_reply(self, workspace, monkeypatch):
        reply = {"choices": [{"message": {"content": "[ANSWER] Paris \ud800 [SOLVED]"}}]}
        monkeypatch.setattr("planrag.generator._http_transport", lambda *args: (200, reply))
        config = workspace["root"] / "chat.json"
        config.write_text(json.dumps({"endpoint": "http://backend/v1/chat", "model": "m"}))
        out_dir = workspace["root"] / "chat"
        code = main(["run", "--dataset", workspace["dataset"], "--index", workspace["index"],
                     "--config", str(config), "--out-dir", str(out_dir)])
        assert code == 0
        answers = [t["final_answer"] for t in read_records(out_dir / "transcripts.jsonl")]
        assert answers == ["Paris \ud800"] * 3

    def test_in_a_supervise_question(self, tmp_path):
        questions = [dict(q) for q in SUPERVISE_QUESTIONS]
        questions[1]["question"] = "capital \ud800?"
        code, out_dir = TestSuperviseCmd().run_supervise(
            tmp_path, SUPERVISE_SCRIPTS, questions=questions
        )
        assert code == 0
        samples = read_records(out_dir / "sft.jsonl")
        assert [s["question"] for s in samples] == [q["question"] for q in questions]
        assert "capital \ud800?" in samples[1]["target"]


def _run_on_bad_index(tmp_path):
    return ["run", "--dataset", str(tmp_path / "dataset.jsonl"),
            "--index", str(tmp_path / "bad_index.json"),
            "--scripts", str(tmp_path / "scripts.jsonl"), "--out-dir", str(tmp_path / "o")]


def _index_bytes(tmp_path, payload):
    (tmp_path / "bad_index.json").write_bytes(payload)
    return _run_on_bad_index(tmp_path)


def _corrupt_index(tmp_path, edit):
    """The workspace index with edit(header, arrays) applied, read by a replay run."""
    rewrite_index(tmp_path / "index.json", edit, tmp_path / "bad_index.json")
    return _run_on_bad_index(tmp_path)


def _ordinal_past_passages(header, arrays):
    # q2's script retrieves "capital of Germany"; 4 is one past the last passage
    arrays["ordinals"][arrays["offsets"][header["terms"].index("capital")]] = 4


def _hit_not_utf8(header, arrays):
    # p2 (ordinal 1) is the one hit of q2's "capital of Germany"
    arrays["text"][arrays["fields"][3]] = 0xFF


def _config(tmp_path, config, command="run"):
    """A config-driven command: settings such as scripts come from the config alone."""
    path = tmp_path / "bad_config.json"
    path.write_text(json.dumps(config))
    inputs = "--questions" if command == "supervise" else "--dataset"
    return [command, inputs, str(tmp_path / "dataset.jsonl"), "--out-dir", str(tmp_path / "o"),
            "--config", str(path)]


def _corpus_bytes(tmp_path, payload):
    path = tmp_path / "bad_corpus.jsonl"
    path.write_bytes(payload)
    return ["index", "--corpus", str(path), "--out", str(tmp_path / "i.json")]


def _transcripts_without_rounds(tmp_path):
    rows = [{"id": r["id"], "final_answer": "x"} for r in DATASET]
    path = write_jsonl(tmp_path / "no_rounds.jsonl", rows)
    return ["compare", "--a", path, "--b", path, "--dataset", str(tmp_path / "dataset.jsonl"),
            "--subset", "a>=1"]


def _dataset_scalar_line(tmp_path):
    path = tmp_path / "scalar.jsonl"
    path.write_text(json.dumps(DATASET[0]) + "\n5\n")
    preds = write_jsonl(tmp_path / "preds.jsonl", [{"id": "q1", "prediction": "Paris"}])
    return ["score", "--predictions", preds, "--dataset", str(path)]


def _dataset(tmp_path, *rows):
    path = write_jsonl(tmp_path / "bad_dataset.jsonl", list(rows))
    return ["run", "--dataset", path, "--scripts", str(tmp_path / "scripts.jsonl"),
            "--out-dir", str(tmp_path / "o")]


def _corpus_title_not_string(tmp_path):
    path = write_jsonl(tmp_path / "bad_corpus.jsonl", [CORPUS[0], {**CORPUS[1], "title": 5}])
    return ["index", "--corpus", path, "--out", str(tmp_path / "i.json")]


def _predictions(tmp_path, text):
    path = tmp_path / "bad_preds.jsonl"
    path.write_text(text)
    return ["score", "--predictions", str(path), "--dataset", str(tmp_path / "dataset.jsonl")]


def _replay_scripts(tmp_path, text):
    path = tmp_path / "bad_scripts.jsonl"
    path.write_text(text)
    return ["run", "--dataset", str(tmp_path / "dataset.jsonl"), "--scripts", str(path),
            "--out-dir", str(tmp_path / "o")]


def _probe_scripts(tmp_path, text):
    path = tmp_path / "bad_probes.jsonl"
    path.write_text(text)
    return ["supervise", "--questions", str(tmp_path / "dataset.jsonl"), "--scripts", str(path),
            "--out-dir", str(tmp_path / "o")]


def _reward_samples(tmp_path, text):
    path = tmp_path / "bad_samples.jsonl"
    path.write_text(text)
    rollouts = write_jsonl(tmp_path / "rollouts.jsonl", [{"id": "r1", "text": "[SOLVED]"}])
    return ["reward", "--rollouts", rollouts, "--samples", str(path),
            "--out", str(tmp_path / "rewards.jsonl")]


@pytest.mark.parametrize(
    "make_argv, names",
    [
        (lambda tmp: _index_bytes(tmp, json.dumps(
            {"format_version": 1, "k1": 1.2, "b": 0.75, "passages": CORPUS}).encode()),
         ["bad_index.json", "format_version 3", "planrag index"]),
        (lambda tmp: _corrupt_index(tmp, lambda header, arrays: header.update(b=2)),
         ["bad_index.json", "b in [0, 1]"]),
        (_transcripts_without_rounds, ["no_rounds.jsonl:1", "rounds_used"]),
        (_dataset_scalar_line, ["scalar.jsonl:2", "JSON object"]),
        (lambda tmp: _dataset(tmp, {"id": "q1", "question": "q?", "answers": [5]}),
         ["bad_dataset.jsonl:1", "answers"]),
        (lambda tmp: _dataset(tmp, {"id": "q1", "question": 5, "answers": ["a"]}),
         ["bad_dataset.jsonl:1", "question"]),
        (lambda tmp: _dataset(tmp, {"id": "q1", "question": "", "answers": ["a"]}),
         ["bad_dataset.jsonl", "question"]),
        (lambda tmp: _dataset(tmp, DATASET[0], DATASET[1], DATASET[0]),
         ["bad_dataset.jsonl:3", "dataset record id q1 repeats line 1"]),
        (_corpus_title_not_string, ["bad_corpus.jsonl:2", "title"]),
        (lambda tmp: _corpus_bytes(tmp, (json.dumps(CORPUS[0]) + "\n").encode() * 2),
         ["bad_corpus.jsonl:2", "corpus record id p1 repeats line 1"]),
        (lambda tmp: _reward_samples(tmp, '{"question": "q", "target": "[SOLVED]"}\n'),
         ["bad_samples.jsonl:1", "id"]),
        (lambda tmp: _reward_samples(tmp, '{"id": "r1"}\n\n[1, 2]\n'),
         ["bad_samples.jsonl:3", "JSON object"]),
        (lambda tmp: _predictions(tmp, '{"id": "q1", "prediction": "a"}\n{"prediction": "a"}\n'),
         ["bad_preds.jsonl:2", "id"]),
        (lambda tmp: _predictions(tmp, "5\n"), ["bad_preds.jsonl:1", "JSON object"]),
        (lambda tmp: _replay_scripts(tmp, "5\n"), ["bad_scripts.jsonl:1", "JSON object"]),
        (lambda tmp: _replay_scripts(tmp, '{"id": "q1", "turns": "[ANSWER] a [SOLVED]"}\n'),
         ["bad_scripts.jsonl:1", "turns"]),
        (lambda tmp: _probe_scripts(tmp, "5\n"), ["bad_probes.jsonl:1", "JSON object"]),
        (lambda tmp: _probe_scripts(tmp, '{"id": "q1", "probe_turns": 5}\n'),
         ["bad_probes.jsonl:1", "probe_turns"]),
        (lambda tmp: _reward_samples(tmp, '{"id": "r1", "kind": "zeta"}\n'),
         ["bad_samples.jsonl:1", "kind as one of alpha, beta, gamma, theta"]),
        (lambda tmp: _config(tmp, {"budget": None}), ["bad_config.json", "budget"]),
        (lambda tmp: _config(tmp, {"budget": [1]}), ["bad_config.json", "budget"]),
        (lambda tmp: _config(tmp, {"scripts": ["x"]}),
         ['bad_config.json: scripts must be a string, got ["x"]']),
        (lambda tmp: _config(tmp, {"scripts": True}),
         ["bad_config.json: scripts must be a string, got true"]),
        (lambda tmp: _config(tmp, {"split": "dev"}, "supervise"),
         ['bad_config.json: split must be one of sft, rl, got "dev"']),
        (lambda tmp: _config(tmp, {"endpoint": 5}),
         ["bad_config.json: endpoint must be a string, got 5"]),
        (lambda tmp: _config(tmp, {"budjet": 1}),
         ['bad_config.json: unknown setting "budjet"']),
        (lambda tmp: _config(tmp, {"endpoint": "ftp://backend/v1/chat", "model": "m"}),
         ['bad_config.json: endpoint must be an http:// or https:// URL with a host, '
          'got "ftp://backend/v1/chat"']),
        (lambda tmp: _config(tmp, {"teacher_endpoint": "backend/v1/chat"}, "supervise"),
         ['bad_config.json: teacher_endpoint must be an http:// or https:// URL with a host, '
          'got "backend/v1/chat"']),
        (lambda tmp: _index_bytes(tmp, b"\xff"), ["bad_index.json", "not a readable index"]),
        (lambda tmp: _corpus_bytes(tmp, json.dumps(CORPUS[0]).encode() + b"\n\xff\n"),
         ["bad_corpus.jsonl:2", "not UTF-8"]),
        (lambda tmp: _corrupt_index(tmp, _ordinal_past_passages),
         ["bad_index.json", "'capital' has an ordinal past the passages"]),
        (lambda tmp: _corrupt_index(tmp, _hit_not_utf8),
         ["bad_index.json", "passage 1 is not UTF-8"]),
    ],
    ids=["index_old_version", "index_b_out_of_range",
         "transcript_without_rounds",
         "dataset_line_not_object", "dataset_answer_not_string", "dataset_question_not_string",
         "dataset_question_empty", "dataset_id_repeated", "corpus_title_not_string",
         "corpus_id_repeated", "sample_without_id", "sample_line_not_object",
         "prediction_without_id", "prediction_line_not_object", "replay_script_not_object",
         "replay_turns_not_list", "probe_script_not_object", "probe_turns_not_list",
         "sample_kind_not_allowed", "config_budget_null", "config_budget_list",
         "config_scripts_list", "config_scripts_bool", "config_split_not_allowed",
         "config_endpoint_int", "config_key_unknown", "config_endpoint_not_http",
         "config_teacher_endpoint_without_scheme",
         "index_not_utf8", "corpus_not_utf8", "index_ordinal_past_passages",
         "index_hit_not_utf8"],
)
def test_malformed_input_file_is_one_error_line(workspace, capsys, make_argv, names):
    code = main(make_argv(workspace["root"]))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert all(name in err for name in names)


def test_index_cut_short_after_load_is_one_error_line(workspace, capsys, monkeypatch):
    # only the passage reads after the load can see it: the text is cut off right after it
    load_index = bm25.load_index

    def load_then_cut(path):
        index = load_index(path)
        os.truncate(path, os.path.getsize(path) - index.fields[-1])
        return index

    monkeypatch.setattr(bm25, "load_index", load_then_cut)
    code = main(["run", "--dataset", workspace["dataset"], "--index", workspace["index"],
                 "--scripts", workspace["scripts"], "--out-dir", str(workspace["root"] / "o")])
    err = capsys.readouterr().err
    assert code == 1
    # q2's search for "capital of Germany" hits p2, ordinal 1, first
    assert err == f"error: {workspace['index']}: passage 1 is cut short; the file changed after " \
        "it was loaded\n"


# per kind, a JSON value of another kind that comes close to it
_WRONG_KIND = {int: (2.0, "an integer"), float: ("0.5", "a number"), str: (5, "a string")}


@pytest.mark.parametrize("key", list(SETTINGS))
def test_config_setting_of_wrong_kind_is_one_error_line(workspace, capsys, key):
    kind = SETTINGS[key][0]
    if type(kind) is tuple:
        value, name = "none", "one of " + ", ".join(kind)
    else:
        value, name = _WRONG_KIND[kind]
    argv = _config(workspace["root"], {key: value})
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {argv[-1]}: {key} must be {name}, got {json.dumps(value)}\n"
    )


def test_every_number_setting_has_a_range_that_holds_its_default():
    for key, (kind, default, bounds) in SETTINGS.items():
        assert (bounds is not None) == (kind in (int, float)), key
        cli._check_range(key, key, default)


def _valid_argv(command, root):
    """A valid command line of each command, its outputs under root/out."""
    out = str(root / "out")
    replay = ["--dataset", str(root / "dataset.jsonl"), "--index", str(root / "index.json"),
              "--scripts", str(root / "scripts.jsonl"), "--out-dir", out]
    if command == "index":
        return ["index", "--corpus", str(root / "corpus.jsonl"), "--out", out]
    if command in ("run", "sweep"):
        return [command, *replay] + (["--budgets", "1"] if command == "sweep" else [])
    if command == "supervise":
        questions = write_jsonl(root / "questions.jsonl", SUPERVISE_QUESTIONS)
        probes = write_jsonl(root / "probes.jsonl", SUPERVISE_SCRIPTS)
        return ["supervise", "--questions", questions, "--scripts", probes, "--out-dir", out]
    if command == "reward":
        samples = write_jsonl(root / "samples.jsonl", [
            {"id": "r1", "kind": "alpha", "target": "[ANSWER] a [SOLVED]", "references": ["a"]}])
        rollouts = write_jsonl(root / "rollouts.jsonl", [{"id": "r1", "text": "[SOLVED]"}])
        return ["reward", "--rollouts", rollouts, "--samples", samples, "--out", out]
    if command == "compare":
        side = write_jsonl(root / "side.jsonl",
                           [{"id": r["id"], "rounds_used": 0, "final_answer": "x"} for r in DATASET])
        return ["compare", "--a", side, "--b", side, "--dataset", str(root / "dataset.jsonl"),
                "--subset", "a==0", "--out", out]
    preds = write_jsonl(root / "preds.jsonl", [{"id": r["id"], "prediction": "x"} for r in DATASET])
    return ["score", "--predictions", preds, "--dataset", str(root / "dataset.jsonl"),
            "--out-dir", out]


_BOUNDS = {"budget": ">= 0", "top_k": ">= 1", "parallelism": ">= 1", "attempts": ">= 1",
           "max_tokens": ">= 1", "k1": ">= 0", "temperature": ">= 0", "b": "in [0, 1]"}
_OUT_OF_RANGE = {"budget": -1, "top_k": 0, "parallelism": 0, "attempts": 0, "max_tokens": 0,
                 "k1": -1, "temperature": -1, "b": 2}
# command -> the number settings it has a flag for; run, sweep and supervise also
# read temperature and max_tokens, which only a config sets
_NUMBER_FLAGS = {"index": ("k1", "b"), "run": ("budget", "top_k", "parallelism"),
                 "sweep": ("top_k", "parallelism"), "supervise": ("attempts", "top_k"),
                 "reward": ("budget",)}
_RANGE_CASES = (
    [(command, by, key, _OUT_OF_RANGE[key])
     for command, keys in _NUMBER_FLAGS.items() for key in keys for by in ("flag", "config")]
    + [(command, "config", key, _OUT_OF_RANGE[key])
       for command in ("run", "sweep", "supervise") for key in ("temperature", "max_tokens")]
    + [("run", "config", "temperature", float("nan")), ("index", "config", "k1", float("inf")),
       ("index", "config", "k1", 10**400), ("supervise", "config", "top_k", 2**1024),
       ("index", "flag", "k1", float("nan")), ("index", "flag", "b", -0.5),
       # every key of a config is checked, also one the command does not read
       ("score", "config", "top_k", 0), ("compare", "config", "parallelism", 0)]
)


@pytest.mark.parametrize("command, by, key, value", _RANGE_CASES,
                         ids=[f"{c}-{by}-{k}={str(v)[:6]}" for c, by, k, v in _RANGE_CASES])
def test_setting_out_of_range_is_one_error_line_and_writes_nothing(
    workspace, capsys, command, by, key, value
):
    root = workspace["root"]
    argv = _valid_argv(command, root)
    if by == "flag":
        where, got = "--" + key.replace("_", "-"), SETTINGS[key][0](value)
        argv += [where, str(value)]
    else:
        (root / "cfg.json").write_text(json.dumps({key: value}))
        argv += ["--config", str(root / "cfg.json")]
        where, got = f"{root / 'cfg.json'}: {key}", value
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {where} must be {_BOUNDS[key]}, got {got}\n"
    assert not (root / "out").exists()


@pytest.mark.parametrize("command", ["index", "reward", "compare"])
def test_an_output_file_that_cannot_be_written_is_named_in_its_error(workspace, capsys, command):
    root = workspace["root"]
    argv = _valid_argv(command, root)
    out = str(root / "nodir" / "out")
    argv[argv.index("--out") + 1] = out
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {out!r}\n"
