"""Dead-name checks over the source and the tests, with the stdlib `ast`.

- Every private (single leading underscore) function, method and class in
  `src/randomgroups` is referenced somewhere outside its own definition, in
  `src/` or `tests/`.
- No module under `src/` or `tests/` imports a name it never reads; an
  `__init__.py` may import names only to re-export them.
- Every public top-level function, class and constant in `src/randomgroups`
  is read somewhere in `src/` outside its own definition (a re-export in
  `__init__.py` is no read), or is named in `UNREAD_PUBLIC_NAMES` with the
  reason it stays.
- Every dataclass field in `src/randomgroups` is read as an attribute
  somewhere in `src/` or `tests/`.
- No module in `src/` but `words` imports the names that fix the slot
  layout of relator texts or the format of window keys: the other layers
  read rotations through the window index alone.
- In `src/` only `model` reads `_relator_windows`: each presentation builds
  its window index once (`Presentation.windows`), and every reader shares it.
- The window index is the one place the longest piece is computed: in `src/`
  only `_WindowIndex` reads `_neighbour_lcp`, and `max_piece_length` calls no
  `argsort`.
- No top-level name that `tests/oracles.py` defines is defined anywhere in
  `src/`: the oracles live beside the tests, and the library keeps one
  reading of what they check.
- Every name in `UNREAD_PUBLIC_NAMES` is documented in the README's
  "Library API" section.
- `src/` keeps no module-level cache: no function is decorated with
  `functools.lru_cache` or `functools.cache`, and no module-level name that
  holds `CACHE` is assigned.  What is computed for a presentation lives on
  that object (`Presentation.windows`, `Presentation.engine`).
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


def _is_read(name, path, first, last, mentions) -> bool:
    """Does a module of `mentions` read `name` outside lines first..last of
    `path`, where it is defined?"""
    return any(n == name and not (where == path and first <= line <= last)
               for where, found in mentions.items() for n, line in found)


def test_every_private_definition_is_used():
    mentions = {path: list(_mentions(_parse(path))) for path in MODULES}
    unused = [f"{path.relative_to(ROOT)}:{first} {name}" for path in SOURCES
              for name, first, last in _private_definitions(_parse(path))
              if not _is_read(name, path, first, last, mentions)]
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


# public names that nothing in `src/` reads, each with the reason it stays
UNREAD_PUBLIC_NAMES = {
    # library API for the paper's statements, checked only by tests
    "bounds.rule_out_dominates": "exact test that p is below the rule-out bound",
    "bounds.q_constant": "path-fillability factor for user-supplied constants",
    "bounds.presentation_fill_probability_exact": "closed form for n(X) = 1 diagrams",
    "cayley.is_geodesic": "geodesic query beside `distance`",
    "diagrams.diagram_to_json": "writes the diagram files that `fill` and the benchmark read",
    "diagrams.boundary_word": "boundary label of a filled diagram",
    "diagrams.isoperimetric_check": "linear isoperimetric threshold of a filling",
    "diagrams.classify_ladder": "ladder shape of a bigon diagram",
    "diagrams.restrict_boundary": "builds the restricted diagrams the benchmark fills",
    "roundtree.extension_words": "the extension word set X_k of a tree",
    "words.cyclically_reduce": "word algebra, re-exported by the package",
    "words.inverse_word": "word algebra",
    "words.has_piece_of_length": "exact piece test for one length",
    "words.check_c_prime": "C'(λ) of one presentation, re-exported by the package",
}


def test_unread_public_names_are_documented():
    readme = (ROOT / "README.md").read_text()
    undocumented = [name for name in UNREAD_PUBLIC_NAMES if f"`{name}`" not in readme]
    assert undocumented == []


def _public_definitions(tree: ast.Module):
    """(name, first line, last line) of every public top-level function,
    class and assigned constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node.lineno, node.end_lineno


def test_every_public_name_is_read_or_listed():
    mentions = {path: list(_mentions(_parse(path))) for path in SOURCES
                if path.name != "__init__.py"}
    unread = [f"{path.stem}.{name}" for path in SOURCES
              for name, first, last in _public_definitions(_parse(path))
              if not _is_read(name, path, first, last, mentions)]
    # a listed name that is read again, or gone, leaves the list
    assert sorted(unread) == sorted(UNREAD_PUBLIC_NAMES)


def _dataclass_fields(tree: ast.Module):
    """(class, field) of every annotated field of a `@dataclass` class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                ast.unparse(d).split("(")[0] == "dataclass" for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def test_every_dataclass_field_is_read():
    read = {node.attr for path in MODULES for node in ast.walk(_parse(path))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.stem}.{cls}.{name}" for path in SOURCES
              for cls, name in _dataclass_fields(_parse(path)) if name not in read]
    assert unread == []


# the names of `words` that know the slot layout or the key format
SLOT_AND_KEY_NAMES = {"_relator_texts", "_text_length", "_slot_view", "_slot_keys",
                      "_window_keys", "_key_bits", "_neighbour_lcp"}


def test_private_slot_and_key_names_stay_in_words():
    imported = [f"{path.stem}: {alias.name}" for path in SOURCES if path.stem != "words"
                for node in ast.walk(_parse(path)) if isinstance(node, ast.ImportFrom)
                for alias in node.names if alias.name in SLOT_AND_KEY_NAMES]
    assert imported == []


def test_only_model_builds_relator_windows():
    readers = [path.stem for path in SOURCES
               if any(name == "_relator_windows" for name, _ in _mentions(_parse(path)))]
    assert readers == ["model"]


def test_the_window_index_alone_finds_the_longest_piece():
    tree = _parse(ROOT / "src" / "randomgroups" / "words.py")
    spans = {node.name: range(node.lineno, node.end_lineno + 1) for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    lcp_readers = [f"{path.stem}:{line}" for path in SOURCES
                   for name, line in _mentions(_parse(path)) if name == "_neighbour_lcp"
                   if path.stem != "words" or line not in spans["_WindowIndex"]]
    assert lcp_readers == []
    sorts = [line for name, line in _mentions(tree)
             if name == "argsort" and line in spans["max_piece_length"]]
    assert sorts == []


def _module_caches(tree: ast.Module):
    """(what, line) of every `lru_cache` or `cache` decorator, at any depth,
    and of every module-level assignment to a name that holds CACHE."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for d in node.decorator_list:
                name = ast.unparse(d.func if isinstance(d, ast.Call) else d).split(".")[-1]
                if name in ("lru_cache", "cache"):
                    yield f"@{name} {node.name}", d.lineno
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                if "CACHE" in name.upper():
                    yield name, node.lineno


def test_src_keeps_no_module_level_cache():
    caches = [f"{path.stem}:{line} {what}" for path in SOURCES
              for what, line in _module_caches(_parse(path))]
    assert caches == []


def _top_level_names(tree: ast.Module):
    """Every function, class and assigned name at the top of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def _definitions(tree: ast.Module):
    """The top-level names of a module and every function, method and class
    it defines at any depth."""
    yield from _top_level_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name


def test_src_defines_no_oracle():
    oracles = set(_top_level_names(_parse(ROOT / "tests" / "oracles.py")))
    defined = {f"{path.stem}.{name}" for path in SOURCES
               for name in _definitions(_parse(path)) if name in oracles}
    assert defined == set()
