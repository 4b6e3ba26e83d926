"""Import hygiene: the package and its tests import only what CI installs.

CI installs numpy and pytest and nothing else, so an import of any other
third-party module (scipy, sympy, mpmath, hypothesis, ...) passes wherever
that module happens to be installed and fails in CI.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "pytest", "quadsum"}
SOURCES = sorted((ROOT / "src" / "quadsum").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _imported_modules(path: Path) -> list[tuple[int, str]]:
    """(line, top-level module) of every absolute import in the file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_imports_only_the_standard_library_numpy_pytest_and_quadsum(path):
    stray = [f"line {line}: {name}" for line, name in _imported_modules(path) if name not in ALLOWED]
    assert not stray, f"{path.name} imports {stray}"


def test_import_check_sees_every_source_file():
    assert (ROOT / "src" / "quadsum" / "lattice.py") in SOURCES
    assert Path(__file__).resolve() in SOURCES
