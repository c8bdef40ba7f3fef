"""Dead-name checks over the source and the tests, with the stdlib `ast`.

- Every private (single leading underscore) function, method and class in
  `src/randomgroups` is referenced somewhere outside its own definition, in
  `src/` or `tests/`.
- No module under `src/` or `tests/` imports a name it never reads; an
  `__init__.py` may import names only to re-export them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
MODULES = SOURCES + sorted((ROOT / "tests").rglob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _mentions(tree: ast.Module):
    """(name, line) of every name the module reads or imports, and of every
    attribute it reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def _private_definitions(tree: ast.Module):
    """(name, first line, last line) of every private function, method and
    class, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno, node.end_lineno


def test_every_private_definition_is_used():
    mentions = {path: list(_mentions(_parse(path))) for path in MODULES}
    unused = []
    for path in SOURCES:
        for name, first, last in _private_definitions(_parse(path)):
            used = any(n == name and not (where == path and first <= line <= last)
                       for where, found in mentions.items() for n, line in found)
            if not used:
                unused.append(f"{path.relative_to(ROOT)}:{first} {name}")
    assert unused == []


def _imported_names(tree: ast.Module):
    """(bound name, line) of every import but `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    tree = _parse(path)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unread = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in read]
    assert unread == []
