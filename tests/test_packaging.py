"""The package's dependencies, declared and imported: the program runs on the standard library."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
README = ROOT / "README.md"
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
    unwanted = {"dataclasses", "argparse", "enum", "functools"}
    assert not {name for name, roots in modules.items() if roots & unwanted}
    # exact fractions reach the writers as text: only zeno computes in them,
    # and cli reads the fractions that zeno's commands take
    assert not modules["reporting"] & {"numbers", "fractions"}
    assert {name for name, roots in modules.items() if "fractions" in roots} == {"zeno", "cli"}


# public names that no module in src or perfbench loads yet, each
# kept for the roadmap direction that gives it a caller
LIBRARY_ONLY = {
    "linalg.tensor_product",  # direction 6: linalg moves into tests/
    "linalg.hermitian_eigensystem",  # direction 6: linalg moves into tests/
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _defined(tree: ast.Module) -> set[str]:
    """The public names a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {name for name in names if not name.startswith("_")}


def _loaded(tree: ast.Module) -> set[str]:
    """Every name a module reads, reads as an attribute, or imports by name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    callers = [ROOT / "src", ROOT / "perfbench"]
    loaded = set().union(*(_loaded(_tree(p)) for d in callers for p in d.rglob("*.py")))
    unused = {f"{p.stem}.{name}" for p in SRC.glob("*.py")
              for name in _defined(_tree(p)) - loaded}
    assert unused == LIBRARY_ONLY


def _imported(tree: ast.Module) -> set[str]:
    """The names a module's imports bind, ``__future__`` features aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def _raised(tree: ast.Module) -> set[str]:
    """The names of the exception classes a module raises."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    return names


def test_every_import_is_read_and_every_error_is_raised():
    # code left behind by a deletion: an import nothing reads, an error nothing raises
    trees = {p.stem: _tree(p) for p in SRC.glob("*.py")}
    unread = {f"{module}.{name}" for module, tree in trees.items()
              for name in _imported(tree) - {node.id for node in ast.walk(tree)
                                             if isinstance(node, ast.Name)
                                             and isinstance(node.ctx, ast.Load)}}
    assert not unread
    errors = {node.name for node in trees["errors"].body if isinstance(node, ast.ClassDef)}
    unraised = errors - {"HyperlabError"} - set().union(*map(_raised, trees.values()))
    assert not unraised


def test_the_budget_table_lists_every_budget_with_its_value():
    # README's Budgets section: a row | `module.NAME` | `value` | per budget or cap
    section = README.read_text(encoding="utf-8").partition("\n## Budgets\n")[2]
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \| `([^`]+)` \|", section, re.M)
    budgets = {(p.stem, name) for p in SRC.glob("*.py") for name in _defined(_tree(p))
               if name.endswith("_BUDGET")}
    assert budgets <= {(module, name) for module, name, _ in rows}
    assert len(rows) == len({(module, name) for module, name, _ in rows})  # each once
    for module, name, text in rows:
        assert re.fullmatch(r"[\d *+-]+", text), text  # integer arithmetic only
        value = eval(text, {"__builtins__": {}})
        assert getattr(importlib.import_module(f"hyperlab.{module}"), name) == value, name
