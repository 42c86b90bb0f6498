"""The package has zero runtime dependencies: it imports only the standard
library and declares no dependency. Neither it nor its tests import a name
they never use."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ibagsearch").rglob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def absolute_imports(path: Path) -> list[str]:
    """Top-level module names of the file's absolute imports."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.partition(".")[0])
    return names


def unused_imports(path: Path) -> list[str]:
    """Names the file imports and never reads, skipping ``from __future__``
    and lines marked ``# noqa: F401``. Every module of the package and of
    its tests imports ``annotations`` from ``__future__``, so annotations
    are read as names, not strings."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(ast.parse(source, str(path))):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_sources_found():
    assert ROOT / "src" / "ibagsearch" / "__init__.py" in SOURCES
    assert Path(__file__).resolve() in TESTS


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    outside = [name for name in absolute_imports(path) if name not in sys.stdlib_module_names]
    assert not outside, f"{path.name} imports {outside}"


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_names_it_uses(path):
    unused = unused_imports(path)
    assert not unused, f"{path.name} imports unused {unused}"


# by stem: a test id that names the acceptance file would count as a criterion
@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.stem)
def test_tests_import_only_names_they_use(path):
    unused = unused_imports(path)
    assert not unused, f"{path.name} imports unused {unused}"
