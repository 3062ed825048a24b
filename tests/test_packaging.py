"""The package's declared dependencies: the program runs on the standard library."""

import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _names(requirements: list[str]) -> set[str]:
    return {re.match(r"[\w.-]+", r).group().lower() for r in requirements}


def test_numpy_is_no_runtime_dependency():
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert "numpy" not in _names(project["dependencies"])
    # hyperlab.linalg, the tests' reference eigensolver, keeps numpy in the test extra
    assert {"numpy", "pytest", "hypothesis"} <= _names(project["optional-dependencies"]["test"])
