"""Source layout of the package: lines at most 115 characters, one statement per line, imports at module level."""

from __future__ import annotations

import ast
import textwrap
import tokenize
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "overlapkit").glob("*.py"))
MAX_WIDTH = 115
COMPOUND = (
    ast.If,
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.With,
    ast.AsyncWith,
    ast.Try,
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
)


def test_the_package_sources_are_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "numerics.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_line_is_wider_than_115_characters(path):
    wide = [k for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if len(line) > MAX_WIDTH]
    assert wide == [], f"{path.name}: lines wider than {MAX_WIDTH}: {wide}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_semicolon_packs_statements(path):
    with path.open("rb") as handle:
        tokens = list(tokenize.tokenize(handle.readline))
    packed = [t.start[0] for t in tokens if t.type == tokenize.OP and t.string == ";"]
    assert packed == [], f"{path.name}: ';' on lines {packed}"


def _bodies(node: ast.stmt):
    """The statement lists of a compound statement, each of which must start on a line of its own."""
    yield node.body
    yield getattr(node, "orelse", [])
    yield getattr(node, "finalbody", [])
    for handler in getattr(node, "handlers", []):
        yield handler.body


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_compound_statement_starts_its_body_on_its_header_line(path):
    source = path.read_text(encoding="utf-8")
    lines = source.encode("utf-8").splitlines()
    packed = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, COMPOUND):
            for body in _bodies(node):
                # col_offset counts UTF-8 bytes; only indentation may come before the statement.
                if body and lines[body[0].lineno - 1][: body[0].col_offset].strip():
                    packed.append(body[0].lineno)
    assert packed == [], f"{path.name}: bodies on their header line at {sorted(packed)}"


def _imports_in_functions(source: str) -> list[int]:
    """Lines of the import statements inside a function body, nested ones included."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found |= {n.lineno for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))}
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    inner = _imports_in_functions(path.read_text(encoding="utf-8"))
    assert inner == [], f"{path.name}: imports inside functions on lines {inner}"


def test_an_import_inside_a_function_is_found():
    source = textwrap.dedent(
        """\
        import math


        class C:
            def f(self):
                def g():
                    import os

                from . import x
        """
    )
    assert _imports_in_functions(source) == [7, 9]


def _unused_imports(source: str) -> list[str]:
    """The names an import in source binds that no expression of source reads, __future__ imports aside."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # __init__.py is left out: it imports names to re-export them.
    unused = _unused_imports(path.read_text(encoding="utf-8"))
    assert unused == [], f"{path.name}: imported but unused: {unused}"


def test_an_unused_import_is_found():
    source = textwrap.dedent(
        """\
        from __future__ import annotations

        import os
        import os.path
        import numpy as np
        from .numerics import _first, _values as values, sample_grid


        def f(x: sample_grid) -> float:
            return np.sum(_first(x))
        """
    )
    assert _unused_imports(source) == ["os", "values"]


def _unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """module:name for each module-level _private name of sources that no code of sources reads or imports."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
    unreferenced = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            private = [n for n in names if n.startswith("_") and not n.startswith("__")]
            unreferenced += [f"{module}:{n}" for n in private if n not in referenced]
    return unreferenced


def test_every_private_name_is_referenced():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert _unreferenced_private_names(sources) == []


def test_an_unreferenced_private_name_is_found():
    sources = {
        "a.py": textwrap.dedent(
            """\
            __all__ = ["public"]
            _LIMIT, _dead_constant = 3, 4


            def _used():
                return _LIMIT


            def _dead():
                return _used()


            class _Base:
                pass


            def public():
                return 0
            """
        ),
        "b.py": "from .a import _used\n\n\nclass C(a._Base):\n    pass\n",
    }
    assert _unreferenced_private_names(sources) == ["a.py:_dead_constant", "a.py:_dead"]
