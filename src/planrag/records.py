"""Line-delimited record I/O shared by the CLI commands.

Every input file is one JSON object per line with an ``id``. ``check`` is the
one decision on a record's shape; ``read_jsonl`` applies it to a whole file,
in which each id is unique.
"""

from __future__ import annotations

import codecs
import contextlib
import json
import os
from itertools import chain
from typing import IO, Any, Iterable, Iterator

# field kind -> how a message names it; ``float`` also takes an integer, ``list``
# is a list of strings, and a tuple of strings as a kind allows just those strings
_KINDS = {str: "a string", int: "an integer", float: "a number", list: "a list of strings"}
Kind = type | tuple[str, ...]
# json.dumps(record, ensure_ascii=False) builds this encoder again for every call
_ENCODER = json.JSONEncoder(ensure_ascii=False)
# json.loads(s) is this decoder's decode(s), which matches a whitespace regex before and
# after the value; a stripped line has no whitespace at either end to match
_DECODE = json.JSONDecoder().raw_decode


def iter_jsonl(path: str) -> Iterator[tuple[int, Any]]:
    """(line number, parsed value) for each non-blank line.

    The value is None for a line that is not JSON, and the line's raw bytes for
    one that is not UTF-8; neither fits a record shape. One UTF-8 byte order
    mark at the start of the file is skipped, as RFC 8259 lets a parser do.
    """
    with open(path, "rb") as fh:
        first = fh.readline().removeprefix(codecs.BOM_UTF8)
        for lineno, raw in enumerate(chain((first,), fh), 1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                yield lineno, raw
                continue
            if not line:
                continue
            try:
                record, end = _DECODE(line)
                if end != len(line):  # data after the value, which json.loads rejects too
                    record = None
            except json.JSONDecodeError:  # also a line that starts with a byte order mark
                record = None  # not an object, so it fits no record shape
            yield lineno, record


def fits(value: Any, kind: Kind) -> bool:
    """Whether a parsed JSON value is of a kind: str, int, float, list or a tuple of strings."""
    if type(kind) is tuple:
        return type(value) is str and value in kind
    if kind is float:
        return type(value) is float or type(value) is int
    return type(value) is kind and (kind is not list or all(type(v) is str for v in value))


def kind_name(kind: Kind) -> str:
    return "one of " + ", ".join(kind) if type(kind) is tuple else _KINDS[kind]


def check(record: Any, required: dict[str, Kind], optional: dict[str, Kind]) -> str | None:
    """None when ``record`` has the shape, else what it must be.

    The shape is a JSON object with a string or integer ``id``, every
    ``required`` field, and the ``optional`` fields that are present, each of
    its kind: str, int, list (of strings) or a tuple of the strings allowed.
    Plain loops, not all(): read_jsonl calls it once per record.
    """
    if type(record) is not dict or type(record.get("id")) not in (str, int):
        return _shape(required, optional)
    for f, k in required.items():
        if not fits(record.get(f), k):
            return _shape(required, optional)
    for f, k in optional.items():
        if f in record and not fits(record[f], k):
            return _shape(required, optional)
    return None


def _shape(required: dict[str, Kind], optional: dict[str, Kind]) -> str:
    fields = [f"{f} as {kind_name(k)}" for f, k in required.items()]
    fields += [f"optional {f} as {kind_name(k)}" for f, k in optional.items()]
    return "must be a JSON object with a string or integer id" + "".join(", " + f for f in fields)


def read_jsonl(
    path: str, what: str, required: dict[str, Kind], optional: dict[str, Kind]
) -> list[dict]:
    """Every record of a file, each checked, with its id turned into a string.

    The first record that does not fit raises ValueError
    ``<path>:<line>: <what> record must be ...``, ``<path>:<line>: not UTF-8
    text`` or, for an id already read, ``<path>:<line>: <what> record id <id>
    repeats line <n>``.
    """
    rows = []
    lines: dict[str, int] = {}  # id -> the first line it is on
    for lineno, record in iter_jsonl(path):
        if type(record) is bytes:
            raise ValueError(f"{path}:{lineno}: not UTF-8 text")
        problem = check(record, required, optional)
        if problem:
            raise ValueError(f"{path}:{lineno}: {what} record {problem}")
        rid = record["id"] = str(record["id"])
        first = lines.setdefault(rid, lineno)
        if first != lineno:
            raise ValueError(f"{path}:{lineno}: {what} record id {rid} repeats line {first}")
        rows.append(record)
    return rows


@contextlib.contextmanager
def replacing(path: str, **open_args) -> Iterator[IO[str]]:
    """A text file written beside ``path`` and moved onto it when the block ends.

    A block that raises, or is interrupted, removes the file it was writing, so
    any file already at ``path`` is left as it was. A lone surrogate, which a
    JSON escape can put in a string and UTF-8 cannot encode, is written as its
    backslash escape: the JSON escape that reads back as the same string. An
    ``OSError`` about the file beside ``path`` names ``path`` instead.
    """
    partial = f"{path}.{os.getpid()}.partial"
    try:
        with open(partial, "w", errors="backslashreplace", **open_args) as fh:
            yield fh
        os.replace(partial, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(partial)
        if isinstance(exc, OSError) and exc.filename == partial:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def write_jsonl(path: str, records: Iterable[dict]) -> int:
    count = 0
    with replacing(path, encoding="utf-8") as fh:
        for record in records:
            fh.write(_ENCODER.encode(record) + "\n")
            count += 1
    return count


def write_json(path: str, payload: dict) -> None:
    with replacing(path, encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, ensure_ascii=False)
        fh.write("\n")


def load_dataset(path: str) -> list[dict]:
    """Questions file: one {id, question, answers[]} record per line."""
    rows = read_jsonl(path, "dataset", {"question": str, "answers": list}, {})
    for row in rows:
        if not row["question"]:
            raise ValueError(f"{path}: dataset record {row['id']} needs a non-empty question")
        if not row["answers"]:
            raise ValueError(f"{path}: dataset record {row['id']} needs a non-empty answers list")
    return rows
