"""Command-line harness: index, run, sweep, compare, supervise, reward, score."""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import re
import sys

from . import bm25, records
from .control import parse_trajectory  # not called here: perfbench/tracing.py wraps this name
from .generator import (
    GeneratorError,
    GeneratorSettings,
    HttpChatGenerator,
    ReplayGenerator,
    split_endpoint,
)
from .metrics import (
    NormalizationMode,
    ScoreReport,
    answer_presence_at_k,
    avg_score,
    normalize_refs,
    retrieval_stats,
    score_row,
)
from .planner import FallbackPolicy, PlannerConfig, batch_run, episode_record
from .reward import prepare, total_reward
from .supervision import (
    EmptyTargetQueryError,
    EmptyTeacherQueryError,
    Split,
    SupervisionKind,
    build_sample,
    classify,
    export_dataset,
    probe_parametric,
    probe_retrieval,
    teacher_followup_query,
)

# setting -> (kind, default, range): records.fits takes the kind, _check_range a
# number's (low, high). main resolves every setting once and hands the result to the
# command: a flag of the same name, where the command has one, wins over the config
# file, which wins over the default; the README lists which commands have which flags.
# compare's --a and --b name its two transcript files, so its --b is side B, not BM25 b.
SETTINGS: dict[str, tuple[records.Kind, object, tuple[float, float] | None]] = {
    "budget": (int, 3, (0, math.inf)),
    "top_k": (int, 3, (1, math.inf)),
    "parallelism": (int, 1, (1, math.inf)),
    "attempts": (int, 3, (1, math.inf)),
    "normalization": (tuple(m.value for m in NormalizationMode), "squad", None),
    "fallback": (tuple(f.value for f in FallbackPolicy), "append", None),
    "split": (tuple(s.value for s in Split), "sft", None),
    "k1": (float, 1.2, (0, bm25.K1_MAX)),
    "b": (float, 0.75, (0, 1)),
    "scripts": (str, None, None),
    "endpoint": (str, None, None),
    "model": (str, None, None),
    "teacher_endpoint": (str, None, None),
    "teacher_model": (str, None, None),
    "temperature": (float, 0.0, (0, math.inf)),
    "max_tokens": (int, 512, (1, math.inf)),
    "auth_env": (str, "PLANRAG_API_KEY", None),
}


class CliError(Exception):
    pass


def _check_range(where: str, key: str, value) -> None:
    """Raise CliError, naming ``where``, if ``value`` is outside setting ``key``'s range.

    A setting that is not a number has no range. NaN, the infinities and integers too
    large for a float (which main would fail to convert) are outside every range.
    """
    bounds = SETTINGS[key][2]
    if bounds and not (bounds[0] <= value <= bounds[1] and value <= sys.float_info.max):
        low, high = bounds
        bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise CliError(f"{where} must be {bound}, got {value}")


def _load_config(path: str | None) -> dict:
    """The config file's settings, every one checked against its kind and range.

    One UTF-8 byte order mark at the start of the file is skipped.
    """
    if not path:
        return {}
    with open(path, "rb") as fh:
        try:
            config = json.loads(fh.read().decode("utf-8-sig"))
        except (ValueError, RecursionError):  # not UTF-8, not JSON or nested too deep
            config = None
    if not isinstance(config, dict):
        raise CliError(f"{path}: config must be a flat JSON object")
    for key, value in config.items():
        if key not in SETTINGS:
            raise CliError(f"{path}: unknown setting {json.dumps(key, ensure_ascii=False)}")
        kind = SETTINGS[key][0]
        if not records.fits(value, kind):
            got = json.dumps(value, ensure_ascii=False)
            raise CliError(f"{path}: {key} must be {records.kind_name(kind)}, got {got}")
        _check_range(f"{path}: {key}", key, value)
        if key.endswith("endpoint"):
            try:
                split_endpoint(value)
            except ValueError:
                got = json.dumps(value, ensure_ascii=False)
                raise CliError(
                    f"{path}: {key} must be an http:// or https:// URL with a host, got {got}"
                ) from None
    return config


def _gateways(rows: list[dict], settings, what: str, fields: tuple[str, ...]) -> list:
    """One ``f(position) -> gateway`` per script field: replay scripts when given, else chat.

    Without scripts each field's chat backend is shared by every position; a
    ``teacher_`` field's backend takes the teacher_endpoint and teacher_model.
    """
    path = settings.scripts
    if path:
        scripts = {
            rec["id"]: rec
            for rec in records.read_jsonl(path, f"{what} script", {}, dict.fromkeys(fields, list))
        }
        missing = [row["id"] for row in rows if row["id"] not in scripts]
        if missing:
            raise CliError(f"no {what} script for ids: {', '.join(missing[:5])}")
        # ReplayGenerator is looked up when called, so that it can be patched
        return [lambda i, f=f: ReplayGenerator(scripts[rows[i]["id"]].get(f, [])) for f in fields]
    roles = ["teacher_" if f.startswith("teacher_") else "" for f in fields]
    chats = [_chat_generator(settings, role) for role in roles]
    return [lambda i, chat=chat: chat for chat in chats]


def _chat_generator(settings, role: str) -> HttpChatGenerator:
    """Chat backend from the settings; role "teacher_" prefers teacher_endpoint/model."""
    endpoint, model = (
        getattr(settings, role + key) or getattr(settings, key) for key in ("endpoint", "model")
    )
    if not endpoint or not model:
        raise CliError("need --scripts for replay, or endpoint+model in --config")
    return HttpChatGenerator(
        GeneratorSettings(
            endpoint=endpoint,
            model=model,
            temperature=settings.temperature,
            max_tokens=settings.max_tokens,
            auth_env=settings.auth_env,
        )
    )


def _dataset_name(args) -> str:
    return args.name or os.path.splitext(os.path.basename(args.dataset))[0]


def _score_report(name, predictions, rows, mode, episodes=None) -> tuple[dict, str]:
    """report.json payload and report.txt table: one score row, or none without rows.

    With ``episodes`` the report also holds their retrieval stats and answer presence.
    """
    if not rows:
        empty = ScoreReport(rows=[], avg_score=None, normalization=mode.value)
        return empty.to_dict(), "Dataset  EM  ROUGE  F1\n(no rows)\n"
    row = score_row(name, predictions, [r["answers"] for r in rows], mode)
    stats = presence = None
    if episodes is not None:
        stats = {name: retrieval_stats(episodes)}
        pairs = [(ep, r["answers"]) for ep, r in zip(episodes, rows)]
        at3 = [answer_presence_at_k(ep, refs, 3, mode) for ep, refs in pairs]
        # a hit in the first passage of a round is one in its first three: only those
        # episodes can have presence@1
        at1 = [hit and answer_presence_at_k(ep, refs, 1, mode)
               for (ep, refs), hit in zip(pairs, at3)]
        presence = {1: sum(at1) / len(episodes), 3: sum(at3) / len(episodes)}
    report = ScoreReport([row], avg_score([row]), stats, presence, mode.value)
    return report.to_dict(), report.render_table()


def _write_report(out_dir: str, payload: dict, table: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    records.write_json(os.path.join(out_dir, "report.json"), payload)
    with records.replacing(os.path.join(out_dir, "report.txt"), encoding="utf-8") as fh:
        fh.write(table)


def _run_budgets(args, settings, runs: list[tuple[int, str]]):
    """Run the dataset at each ``(budget, out_dir)`` of ``runs`` in turn.

    Rows, index and gateways are loaded once. Each budget writes its
    transcripts.jsonl, timings.jsonl and report to its out_dir, and its
    episodes, report payload and table are yielded before the next budget
    runs, not all returned at the end.
    """
    rows = records.load_dataset(args.dataset)
    idx = bm25.load_index(args.index) if args.index else None
    fallback = FallbackPolicy(settings.fallback)
    mode = NormalizationMode(settings.normalization)
    [factory] = _gateways(rows, settings, "replay", ("turns",))
    name = _dataset_name(args)
    questions = [row["question"] for row in rows]
    ids = [row["id"] for row in rows]
    for budget, out_dir in runs:
        cfg = PlannerConfig(max_rounds=budget, top_k=settings.top_k, fallback_policy=fallback)
        os.makedirs(out_dir, exist_ok=True)
        episodes = batch_run(questions, cfg, factory, idx, settings.parallelism)
        transcripts = map(episode_record, episodes, ids)
        records.write_jsonl(os.path.join(out_dir, "transcripts.jsonl"), transcripts)
        # step durations go to a sidecar, so that transcripts stay byte-identical
        timings = (
            {"id": qid, "step_ms": [round(s.duration_s * 1000, 3) for s in ep.steps]}
            for qid, ep in zip(ids, episodes)
        )
        records.write_jsonl(os.path.join(out_dir, "timings.jsonl"), timings)
        report, table = _score_report(
            name, [ep.final_answer for ep in episodes], rows, mode, episodes
        )
        run_info = {
            "dataset": name,
            "budget": cfg.max_rounds,
            "top_k": cfg.top_k,
            "normalization": mode.value,
        }
        _write_report(out_dir, {"run": run_info, "report": report}, table)
        yield episodes, report, table


def cmd_index(args, settings) -> int:
    passages = bm25.load_corpus(args.corpus)
    index = bm25.build_index(passages, k1=settings.k1, b=settings.b)
    bm25.save_index(index, args.out)
    print(
        json.dumps(
            {"doc_count": index.doc_count, "avg_doc_length": index.avg_doc_length}
        )
    )
    return 0


def cmd_run(args, settings) -> int:
    [(episodes, _, table)] = _run_budgets(args, settings, [(settings.budget, args.out_dir)])
    print(table, end="")
    failed = [ep for ep in episodes if ep.status != "completed"]
    if failed:
        print(f"{len(failed)} episode(s) did not complete cleanly", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args, settings) -> int:
    try:
        budgets = [int(b) for b in args.budgets.split(",") if b.strip()]
    except ValueError:
        raise CliError(f"bad budget list: {args.budgets}") from None
    if not budgets:
        raise CliError("at least one budget is required")
    # every budget is checked before any runs, so a bad one writes nothing
    for i, budget in enumerate(budgets):
        _check_range("--budgets", "budget", budget)
        if budget in budgets[:i]:
            raise CliError(f"--budgets: {budget} repeats")
    name = _dataset_name(args)
    runs = [(budget, os.path.join(args.out_dir, f"b{budget}")) for budget in budgets]
    sweep_rows = []
    exit_code = 0
    for budget, (episodes, report, _) in zip(budgets, _run_budgets(args, settings, runs)):
        stats = report["retrieval_stats"].get(name, {"mean": 0.0, "distribution": {}})
        sweep_rows.append(
            {
                "budget": budget,
                "mean_count": stats["mean"],
                "avg_score": report["avg_score"],
                "distribution": {str(k): v for k, v in stats["distribution"].items()},
            }
        )
        if any(ep.status != "completed" for ep in episodes):
            exit_code = 1
    sweep = {"dataset": name, "budgets": sweep_rows}
    records.write_json(os.path.join(args.out_dir, "sweep.json"), sweep)
    lines = [f"{'Budget':>6}  {'Avg.Count':>9}  {'Avg.Score':>9}"]
    for r in sweep_rows:
        score = "-" if r["avg_score"] is None else f"{100 * r['avg_score']:.1f}"
        lines.append(f"{r['budget']:>6}  {r['mean_count']:>9.2f}  {score:>9}")
    lines.append("")
    lines.append("Retrieval-count distribution per budget:")
    for r in sweep_rows:
        dist = " ".join(f"{k}:{v:.2f}" for k, v in r["distribution"].items())
        lines.append(f"B={r['budget']}  {dist}")
    table = "\n".join(lines) + "\n"
    with records.replacing(os.path.join(args.out_dir, "sweep.txt"), encoding="utf-8") as fh:
        fh.write(table)
    print(table, end="")
    return exit_code


_ATOM_RE = re.compile(r"^\s*([ab])\s*(==|!=|<=|>=|<|>)\s*(\d+)\s*$")
_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<=": operator.le,
    ">=": operator.ge,
    "<": operator.lt,
    ">": operator.gt,
}


def parse_subset_spec(spec: str) -> list[tuple[str, str, int]]:
    """Conjunction of comparisons on the two sides' retrieval counts.

    Example: "a>=1,b==0" keeps pairs where side A retrieved at least once
    while side B answered without retrieval.
    """
    atoms = []
    for part in spec.split(","):
        m = _ATOM_RE.match(part)
        if not m:
            raise CliError(f"bad subset atom: {part!r} (expected e.g. a>=1)")
        atoms.append((m.group(1), m.group(2), int(m.group(3))))
    return atoms


def _subset_match(atoms, rounds_a: int, rounds_b: int) -> bool:
    values = {"a": rounds_a, "b": rounds_b}
    return all(_OPS[op](values[var], n) for var, op, n in atoms)


def _read_transcripts(path: str) -> dict:
    """Transcript records by id, each checked for the fields compare reads."""
    shape = {"rounds_used": int, "final_answer": str}
    return {rec["id"]: rec for rec in records.read_jsonl(path, "transcript", shape, {})}


def cmd_compare(args, settings) -> int:
    mode = NormalizationMode(settings.normalization)
    atoms = parse_subset_spec(args.subset)
    side_a = _read_transcripts(args.side_a)
    side_b = _read_transcripts(args.side_b)
    if set(side_a) != set(side_b):
        only_a = sorted(set(side_a) - set(side_b))[:5]
        only_b = sorted(set(side_b) - set(side_a))[:5]
        raise CliError(f"transcript id mismatch (only in A: {only_a}, only in B: {only_b})")
    refs = {r["id"]: r["answers"] for r in records.load_dataset(args.dataset)}
    missing = sorted(set(side_a) - set(refs))
    if missing:
        raise CliError(f"no references for transcript ids: {missing[:5]}")
    ids = sorted(side_a)
    matched = [
        qid
        for qid in ids
        if _subset_match(atoms, side_a[qid]["rounds_used"], side_b[qid]["rounds_used"])
    ]
    fraction = len(matched) / len(ids) if ids else 0.0
    result = {
        "subset": args.subset,
        "total": len(ids),
        "matched": len(matched),
        "fraction": fraction,
    }
    lines = [f"subset {args.subset}: {len(matched)}/{len(ids)} pairs ({100 * fraction:.1f}%)"]
    if matched:
        for label, side in (("A", side_a), ("B", side_b)):
            row = score_row(
                label,
                [side[qid]["final_answer"] for qid in matched],
                [refs[qid] for qid in matched],
                mode,
            )
            result[label] = {"em": row.em, "rouge": row.rouge_avg, "f1": row.f1}
            lines.append(
                f"{label}: EM {100 * row.em:.1f}  ROUGE {100 * row.rouge_avg:.1f}  "
                f"F1 {100 * row.f1:.1f}"
            )
    else:
        result["A"] = result["B"] = None
        lines.append("empty subset: no metric rows")
    text = "\n".join(lines) + "\n"
    if args.out:
        records.write_json(args.out, result)
    print(text, end="")
    return 0


def cmd_supervise(args, settings) -> int:
    rows = records.load_dataset(args.questions)
    idx = bm25.load_index(args.index) if args.index else None
    mode = NormalizationMode(settings.normalization)
    split = Split(settings.split)
    model, teacher = _gateways(rows, settings, "probe", ("probe_turns", "teacher_turns"))
    samples = []
    skipped = []
    for i, row in enumerate(rows):
        question, refs, gen = row["question"], row["answers"], model(i)
        normalized = normalize_refs(refs, mode)
        try:
            parametric = probe_parametric(question, normalized, gen, settings.attempts)
            retrieval = probe_retrieval(question, normalized, gen, idx, settings.top_k)
            kind = classify(parametric, retrieval)
            teacher_query = None
            if kind is SupervisionKind.GAMMA:
                teacher_query = teacher_followup_query(
                    question, retrieval.attempts[0].answer, list(retrieval.hits), teacher(i)
                )
            samples.append(
                build_sample(question, refs, parametric, retrieval, teacher_query, qid=row["id"])
            )
        except (GeneratorError, EmptyTeacherQueryError, EmptyTargetQueryError) as exc:
            skipped.append(row["id"])
            print(f"skipping {row['id']}: {exc}", file=sys.stderr)
    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, f"{split.value}.jsonl")
    exported = export_dataset(samples, split, out_path)
    summary = {"written": exported["total"], "skipped": len(skipped), "counts": exported["counts"]}
    print(json.dumps(summary))
    return 0


def cmd_reward(args, settings) -> int:
    kinds = tuple(k.value for k in SupervisionKind)
    sample_fields = {"question": str, "kind": kinds, "target": str, "references": list}
    # sample id -> the references and target text that prepare takes
    sample_by_id = {
        rec["id"]: (rec.get("references", []), rec.get("target", ""))
        for rec in records.read_jsonl(args.samples, "sample", {}, sample_fields)
    }
    prepared = {}  # sample id -> its PreparedSample, or the text of why it scores nothing
    entries = []
    errors = 0
    for lineno, rec in records.iter_jsonl(args.rollouts):
        if records.check(rec, {"text": str}, {}):
            entries.append({"line": lineno, "error": "malformed rollout record"})
            errors += 1
            continue
        qid = str(rec["id"])
        sample = sample_by_id.get(qid)
        if sample is not None and qid not in prepared:
            try:
                prepared[qid] = prepare(*sample, settings.budget)
            except ValueError as exc:
                prepared[qid] = str(exc)
        # a str says why the rollout scores nothing
        ready = prepared.get(qid, "no matching sample id")
        if type(ready) is str:
            entries.append({"id": qid, "error": ready})
            errors += 1
            continue
        r_ans, r_ctrl, total = total_reward(rec["text"], ready)
        entries.append({"id": qid, "r_ans": r_ans, "r_ctrl": r_ctrl, "total": total})
    records.write_jsonl(args.out, entries)
    print(f"wrote {len(entries)} reward records ({errors} errors)")
    return 1 if errors else 0


def cmd_score(args, settings) -> int:
    mode = NormalizationMode(settings.normalization)
    rows = records.load_dataset(args.dataset)
    preds = {
        rec["id"]: rec.get("prediction", "")
        for rec in records.read_jsonl(args.predictions, "prediction", {}, {"prediction": str})
    }
    missing = [r["id"] for r in rows if r["id"] not in preds]
    if missing:
        raise CliError(f"predictions missing for ids: {', '.join(missing[:5])}")
    payload, table = _score_report(_dataset_name(args), [preds[r["id"]] for r in rows], rows, mode)
    if args.out_dir:
        _write_report(args.out_dir, payload, table)
    print(table, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planrag",
        description="Control-token retrieval planning: indexing, runs, scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def flags(p, *keys, help=None):
        """One flag per setting, its type or choices taken from SETTINGS."""
        for key in keys:
            kind = SETTINGS[key][0]
            spec = {"choices": kind} if type(kind) is tuple else {"type": kind}
            p.add_argument("--" + key.replace("_", "-"), help=help, **spec)

    def common(p):
        p.add_argument("--config", help="flat JSON config file")
        flags(p, "normalization")

    p = sub.add_parser("index", help="build and save a passage index")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    flags(p, "k1", "b")
    p.add_argument("--config")
    p.set_defaults(func=cmd_index)

    def episodes(p):
        """Flags shared by run and sweep."""
        common(p)
        p.add_argument("--dataset", required=True)
        p.add_argument("--out-dir", required=True)
        p.add_argument("--index")
        flags(p, "scripts", help="replay scripts file (one {id, turns} per line)")
        flags(p, "top_k", "parallelism", "fallback")
        p.add_argument("--name")

    p = sub.add_parser("run", help="run planning episodes over a dataset")
    episodes(p)
    flags(p, "budget")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="repeat a run across retrieval budgets")
    episodes(p)
    p.add_argument("--budgets", required=True, help="comma-separated, e.g. 3,5,7,10")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="score two transcript files on a subset")
    common(p)
    p.add_argument("--a", dest="side_a", required=True, help="transcripts for side A")
    p.add_argument("--b", dest="side_b", required=True, help="transcripts for side B")
    p.add_argument("--dataset", required=True)
    p.add_argument("--subset", required=True, help='e.g. "a>=1,b==0"')
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("supervise", help="build structured supervision samples")
    common(p)
    p.add_argument("--questions", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--index")
    flags(p, "scripts", help="probe scripts: {id, probe_turns, teacher_turns}")
    flags(p, "attempts", "top_k", "split")
    p.set_defaults(func=cmd_supervise)

    p = sub.add_parser("reward", help="score rollouts against supervision samples")
    p.add_argument("--rollouts", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--out", required=True)
    flags(p, "budget")
    p.add_argument("--config")
    p.set_defaults(func=cmd_reward)

    p = sub.add_parser("score", help="score a predictions file against references")
    common(p)
    p.add_argument("--predictions", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--name")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_score)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        settings = argparse.Namespace()
        for key, (kind, default, _) in SETTINGS.items():
            value = getattr(args, key, None)
            if value is None:
                value = config.get(key, default)
            else:
                _check_range("--" + key.replace("_", "-"), key, value)
            setattr(settings, key, float(value) if kind is float else value)
        return args.func(args, settings)
    except (CliError, GeneratorError, OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
