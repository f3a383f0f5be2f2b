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
