"""The package's dependencies, declared and imported: the program runs on the standard library."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
SRC = ROOT / "src" / "hyperlab"


def _names(requirements: list[str]) -> set[str]:
    return {re.match(r"[\w.-]+", r).group().lower() for r in requirements}


def test_numpy_is_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert "numpy" not in _names(project["dependencies"])
    # hyperlab.linalg, the tests' reference eigensolver, keeps numpy in the test extra
    assert {"numpy", "pytest", "hypothesis"} <= _names(project["optional-dependencies"]["test"])


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_only_linalg_imports_numpy_and_none_imports_dataclasses():
    # every module, the library-only ones no command loads included
    modules = {p.stem: _imported_roots(p) for p in SRC.glob("*.py")}
    assert {name for name, roots in modules.items() if "numpy" in roots} == {"linalg"}
    assert not {name for name, roots in modules.items() if "dataclasses" in roots}
