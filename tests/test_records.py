"""Record files: inputs read line by line, outputs written whole or not at all, with unchanged bytes."""

import codecs
import json
import os

import pytest

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
