"""Record files: inputs read line by line, outputs written whole or not at all, with unchanged bytes."""

import codecs
import json
import os
import tempfile
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planrag import records

ROWS = [{"id": "a", "text": "één"}, {"id": 2, "list": [1, 2.5, None]}, {"id": "c"}]


def _rows_then(failure):
    # the first two rows, then the failure in place of the third
    yield from ROWS[:2]
    if isinstance(failure, BaseException):
        raise failure
    yield failure


def test_written_bytes(tmp_path):
    path = str(tmp_path / "out.jsonl")
    assert records.write_jsonl(path, iter(ROWS)) == 3
    with open(path, "rb") as fh:
        assert fh.read() == "".join(
            json.dumps(r, ensure_ascii=False) + "\n" for r in ROWS).encode("utf-8")
    payload = {"rows": ROWS, "n": 3}
    records.write_json(path, payload)
    with open(path, "rb") as fh:
        assert fh.read() == (json.dumps(payload, indent=2, ensure_ascii=False) + "\n").encode()
    assert os.listdir(tmp_path) == ["out.jsonl"]


@pytest.mark.parametrize(
    "failure, error",
    [({"id": "c", "value": object()}, TypeError), (KeyboardInterrupt(), KeyboardInterrupt)],
    ids=["encoder_raises", "interrupted"],
)
def test_failed_jsonl_write_keeps_the_old_file(tmp_path, failure, error):
    path = str(tmp_path / "transcripts.jsonl")
    records.write_jsonl(path, [{"id": "old"}])
    with open(path, "rb") as fh:
        before = fh.read()
    with pytest.raises(error):
        records.write_jsonl(path, _rows_then(failure))
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert os.listdir(tmp_path) == ["transcripts.jsonl"]


def test_failed_json_write_keeps_the_old_file(tmp_path):
    path = str(tmp_path / "report.json")
    records.write_json(path, {"old": True})
    with open(path, "rb") as fh:
        before = fh.read()
    with pytest.raises(TypeError):
        # json.dump has written the first keys when it meets the object
        records.write_json(path, {"rows": ROWS * 100, "last": object()})
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert os.listdir(tmp_path) == ["report.json"]


def test_a_failed_write_names_its_path_not_the_file_beside_it(tmp_path):
    missing = str(tmp_path / "nodir" / "out.jsonl")
    with pytest.raises(FileNotFoundError) as opened:
        records.write_jsonl(missing, ROWS)
    # a directory at the path fails the move onto it, once the file beside it is written
    directory = tmp_path / "out.json"
    directory.mkdir()
    with pytest.raises(IsADirectoryError) as moved:
        records.write_json(str(directory), {"rows": ROWS})
    for failure, path in ((opened, missing), (moved, str(directory))):
        assert (failure.value.filename, failure.value.filename2) == (path, None)
        assert str(failure.value).endswith(f": {path!r}")
    assert os.listdir(tmp_path) == ["out.json"]


def test_a_byte_order_mark_is_skipped_at_the_start_of_the_file_only(tmp_path):
    bom = codecs.BOM_UTF8
    path = tmp_path / "rows.jsonl"
    path.write_bytes(bom + b'{"id": "a"}\n' + bom + b'{"id": "b"}\n')
    # a mark past the first line is no whitespace to JSON, so that line is not JSON
    assert list(records.iter_jsonl(str(path))) == [(1, {"id": "a"}), (2, None)]
    path.write_bytes(bom + bom + b'{"id": "a"}\n')
    assert list(records.iter_jsonl(str(path))) == [(1, None)]
    path.write_bytes(bom)
    assert list(records.iter_jsonl(str(path))) == []


def _read_with_loads(path):
    """iter_jsonl as it was when it parsed each stripped line with json.loads."""
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
                record = json.loads(line)
            except json.JSONDecodeError:
                record = None
            yield lineno, record


# JSON and Unicode whitespace, and the byte order mark, which is neither
_SPACES = st.text(st.sampled_from(" \t\r\x0b\x0c\x1c\x85\xa0\u2028\u3000\ufeff"), max_size=3)
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=3),
    max_leaves=6,
).map(json.dumps)  # NaN and Infinity as json.dumps writes them
_AFTER = st.sampled_from(["", "", " 1", "{}", " {}", "x", ",", "]", "\xa0]"])
# a value or any text, between spaces and with or without data after it; a lone
# surrogate in the text, encoded, and the fixed byte strings are not UTF-8
_LINES = st.one_of(
    st.tuples(_SPACES, _VALUES | st.text(max_size=6), _AFTER, _SPACES).map(
        lambda parts: "".join(parts).encode("utf-8", "surrogatepass")),
    st.sampled_from([b"\xff", b"\xc3", b'{"id": "\xe9"}', b"\xed\xa0\x80"]),
)


@given(st.booleans(), st.lists(_LINES, max_size=6))
@example(True, [b"\x0b{\"id\": 1}\xc2\xa0", "\u3000[1]\u3000".encode(), b"", b"  "])
@example(False, [b'{"id": 1} x', b'{"id": 1} {"id": 2}', b"1 2", b"[] []"])
@example(True, [codecs.BOM_UTF8 + b'{"id": 1}', b'{"a": NaN}', b"Infinity", b"-Infinity"])
@example(False, [b'"text"', b"[1, 2]", b"3", b"null", b"\xff{}", b"\n"])
@settings(max_examples=300, derandomize=True, deadline=None)
def test_each_line_parses_as_json_loads_parses_it(bom, lines):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "rows.jsonl")
        with open(path, "wb") as fh:
            fh.write(codecs.BOM_UTF8 * bom + b"\n".join(lines))
        # repr, so that NaN compares equal and 1 differs from 1.0 and True
        got = [(n, repr(v)) for n, v in records.iter_jsonl(path)]
        assert got == [(n, repr(v)) for n, v in _read_with_loads(path)]
