"""Line-delimited record I/O shared by the CLI commands."""

from __future__ import annotations

import json
from typing import Any, Iterable, Iterator


class RecordFormatError(ValueError):
    pass


def iter_jsonl(path: str) -> Iterator[tuple[int, Any]]:
    """(line number, parsed value) for each non-blank line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RecordFormatError(f"{path}:{lineno}: invalid record") from exc
            yield lineno, record


def read_jsonl(path: str) -> list[dict]:
    return [record for _, record in iter_jsonl(path)]


def write_jsonl(path: str, records: Iterable[dict]) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
            count += 1
    return count


def load_dataset(path: str) -> list[dict]:
    """Questions file: one {id, question, answers[]} record per line."""
    rows = read_jsonl(path)
    for i, row in enumerate(rows, 1):
        if not isinstance(row, dict):
            raise RecordFormatError(f"{path}: record {i} must be a JSON object")
        if "id" not in row or "question" not in row:
            raise RecordFormatError(f"{path}: record {i} needs id and question")
        answers = row.get("answers")
        if not isinstance(answers, list) or not answers:
            raise RecordFormatError(f"{path}: record {i} needs a non-empty answers list")
        row["id"] = str(row["id"])
    return rows
