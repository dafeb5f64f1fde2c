import json
from array import array

import pytest

from planrag.bm25 import Passage, build_index


def rewrite_index(path, edit, out=None):
    """Apply edit(header, arrays) to a saved index and write it, consistently framed, to out.

    out defaults to path, so the file is rewritten in place.
    """
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for name, (code, count) in header["arrays"].items():
            arrays[name] = array(code)
            arrays[name].fromfile(fh, count)
    edit(header, arrays)
    header["arrays"] = {name: [a.typecode, len(a)] for name, a in arrays.items()}
    with open(path if out is None else out, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for a in arrays.values():
            a.tofile(fh)


@pytest.fixture(scope="session")
def tiny_index():
    passages = [
        Passage("p1", "Eiffel Tower", "The Eiffel Tower was completed in 1889 in Paris"),
        Passage("p2", "Berlin", "Berlin is the capital city of Germany"),
        Passage("p3", "Louvre", "The Louvre museum is located in Paris France"),
        Passage("p4", "Unification", "The German Empire was proclaimed in 1871"),
        Passage("p5", "Halftime", "The artist headlining the halftime show was announced"),
        Passage("p6", "Slovakia", "Slovakia was part of Czechoslovakia until 1993"),
    ]
    return build_index(passages)
