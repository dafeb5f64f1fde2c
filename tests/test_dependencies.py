"""Every module planrag imports is in the standard library, planrag or its dependencies."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def declared_dependencies() -> set[str]:
    """The names in pyproject.toml's [project].dependencies, read without tomllib (3.11+)."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    listed = re.search(r"^dependencies\s*=\s*\[(.*?)\]\s*$", project, re.M | re.S).group(1)
    return {
        re.match(r"[\w.-]+", spec).group().lower().replace("-", "_")
        for spec in re.findall(r'"([^"]+)"', listed)
    }


def imported_names(source: str) -> list[str]:
    """The top-level name of each module that ``source`` imports, anywhere in it."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("planrag" if node.level else node.module.split(".")[0])
    return names


def test_every_import_is_stdlib_planrag_or_declared():
    allowed = set(sys.stdlib_module_names) | {"planrag"} | declared_dependencies()
    undeclared = [
        f"{path.name} imports {name}"
        for path in sorted((ROOT / "src" / "planrag").glob("*.py"))
        for name in imported_names(path.read_text(encoding="utf-8"))
        if name not in allowed
    ]
    assert undeclared == []


def test_the_guard_sees_every_import_form():
    source = "import numpy as np\nfrom os.path import join\nfrom . import bm25\n"
    source += "def f():\n    import yaml.loader\n"
    assert imported_names(source) == ["numpy", "os", "planrag", "yaml"]
    assert {"numpy", "yaml"}.isdisjoint(declared_dependencies())


def loaded_after_importing(module: str) -> set[str]:
    """The modules a fresh interpreter has loaded after ``import <module>``."""
    probe = f"import sys, {module}; print(sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    return set(ast.literal_eval(out))


def test_importing_the_cli_loads_no_http_transport():
    # the chat transport imports http.client and ssl when it first sends a request, so the
    # commands that never ask a backend (index, score, reward, replay runs) do not pay for them
    assert {"http.client", "ssl"} & loaded_after_importing("planrag.cli") == set()


def test_importing_the_cli_loads_no_thread_pool():
    # batch_run imports concurrent.futures only to run episodes in parallel; threading is
    # not checked, as site may load it before any planrag module
    assert "concurrent.futures" not in loaded_after_importing("planrag.cli")


@pytest.mark.parametrize(
    "module, submodules",
    [("planrag", []), ("planrag.control", ["planrag.control"]),
     ("planrag.bm25", ["planrag.bm25", "planrag.records"])],
)
def test_importing_a_module_loads_only_the_modules_it_uses(module, submodules):
    # the package itself imports none of its modules
    loaded = loaded_after_importing(module)
    assert sorted(name for name in loaded if name.startswith("planrag.")) == submodules


# the grammar's states, tables and token pattern: control.py reads turns and validates
# trajectories by them, and every other module asks control.py for its verdict
GRAMMAR_INTERNALS = {
    "TRANSITIONS", "END_BREACH", "OPEN", "AWAIT_RETRIEVE", "AWAIT_SOLVED", "END", "_TOKEN_RE",
}


def names_used(source: str) -> set[str]:
    """Every name ``source`` imports, reads or writes, or looks up as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_only_control_names_the_grammar_internals():
    named = {
        path.name: sorted(GRAMMAR_INTERNALS & names_used(path.read_text(encoding="utf-8")))
        for path in sorted((ROOT / "src" / "planrag").glob("*.py"))
        if path.name != "control.py"
    }
    assert {name: used for name, used in named.items() if used} == {}


def test_the_grammar_guard_sees_imports_names_and_attributes():
    source = "from .control import OPEN as o\nx.END\nstate = AWAIT_SOLVED\n"
    assert {"OPEN", "END", "AWAIT_SOLVED"} <= names_used(source)


# the segment form of a trajectory: the planning loop, the prompts and supervision carry
# a transcript as text, and parse_trajectory's result stays with control.py
SEGMENT_FORMS = {"Segment", "Trajectory", "render_segments"}


def test_only_control_names_the_segment_forms():
    named = {
        path.name: sorted(SEGMENT_FORMS & names_used(path.read_text(encoding="utf-8")))
        for path in sorted((ROOT / "src" / "planrag").glob("*.py"))
        if path.name != "control.py"
    }
    assert {name: used for name, used in named.items() if used} == {}
