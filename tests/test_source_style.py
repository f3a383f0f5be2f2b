"""Source layout of the package: lines at most 115 characters, one statement per line, imports at module level."""

from __future__ import annotations

import ast
import textwrap
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "overlapkit").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
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
    assert {p.name for p in DEMOS} >= {"05_property_matrix.py"}


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


# The float-or-array choice for sums, powers, deduplication and joined columns is made in numerics alone.
NUMERICS_ONLY = {
    ("math", "fsum"),
    ("np", "unique"),
    ("numpy", "unique"),
    ("np", "power"),
    ("numpy", "power"),
    ("np", "float_power"),
    ("numpy", "float_power"),
    ("np", "concatenate"),
    ("numpy", "concatenate"),
}


def _numerics_only_uses(source: str) -> list[str]:
    """line:module.name for each NUMERICS_ONLY function that source reads or imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            used = [(node.value.id, node.attr)]
        elif isinstance(node, ast.ImportFrom):
            used = [(node.module, alias.name) for alias in node.names]
        else:
            continue
        found += [f"{node.lineno}:{m}.{n}" for m, n in used if (m, n) in NUMERICS_ONLY]
    return found


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "numerics.py"], ids=lambda p: p.name)
def test_fsum_unique_and_power_are_called_only_in_numerics(path):
    uses = _numerics_only_uses(path.read_text(encoding="utf-8"))
    assert uses == [], f"{path.name}: use numerics._fsum, _pow, _distinct or _joined instead: {uses}"


def test_a_use_of_fsum_unique_or_power_is_found():
    source = textwrap.dedent(
        """\
        import math
        import numpy as np
        from numpy import concatenate, float_power, power


        def f(x):
            y = np.float_power(np.concatenate((x, x)), 2.0)
            return math.fsum(x) + np.unique(x)[0] + np.sum(x) + math.prod(y)
        """
    )
    assert _numerics_only_uses(source) == [
        "3:numpy.concatenate",
        "3:numpy.float_power",
        "3:numpy.power",
        "7:np.float_power",
        "7:np.concatenate",
        "8:math.fsum",
        "8:np.unique",
    ]


# The checkers of one property group each; every other caller names check_property, the one entry point.
GROUP_CHECKERS = {"check_unary_property", "check_ep", "check_contraposition"}


def _name_uses(source: str, names: set[str]) -> list[str]:
    """line:name for each name, attribute or import of source that is one of names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used = [node.id]
        elif isinstance(node, ast.Attribute):
            used = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used = [alias.name for alias in node.names]
        else:
            continue
        found += [(node.lineno, n) for n in used if n in names]
    return [f"{line}:{name}" for line, name in sorted(found)]


@pytest.mark.parametrize(
    "path",
    [p for p in SOURCES + DEMOS if p.name not in ("properties.py", "__init__.py")],
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_only_properties_names_the_group_checkers(path):
    uses = _name_uses(path.read_text(encoding="utf-8"), GROUP_CHECKERS)
    assert uses == [], f"{path.name}: call check_property instead: {uses}"


def test_a_use_of_a_group_checker_is_found():
    source = textwrap.dedent(
        """\
        import overlapkit as ok
        from overlapkit.properties import check_ep as exchange, check_property


        def f(imp):
            scan = ok.check_contraposition
            return check_property(imp, "NP"), exchange(imp), scan(imp, ok.make_standard()), "check_unary_property"
        """
    )
    assert _name_uses(source, GROUP_CHECKERS) == ["2:check_ep", "6:check_contraposition"]


# The block loop of the mesh kernels; every other module scans through _scan_rows and _mesh_values.
BLOCK_LOOP = {"_blocks", "_clean_prefix", "_POINT_ERRORS", "FIRST_BLOCK"}


@pytest.mark.parametrize(
    "path", [p for p in SOURCES + DEMOS if p.name != "numerics.py"], ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_only_numerics_names_the_block_loop(path):
    uses = _name_uses(path.read_text(encoding="utf-8"), BLOCK_LOOP)
    assert uses == [], f"{path.name}: call _scan_rows or _mesh_values instead: {uses}"


def test_a_use_of_the_block_loop_is_found():
    source = textwrap.dedent(
        """\
        from .numerics import FIRST_BLOCK, SCAN_BLOCK, _mesh_values
        from . import numerics


        def f(cols, fn):
            for start, stop in numerics._blocks(len(cols[0])):
                try:
                    return _mesh_values(cols, fn), "_clean_prefix", FIRST_BLOCK
                except numerics._POINT_ERRORS as exc:
                    return numerics._clean_prefix(fn, cols, exc)
        """
    )
    want = ["1:FIRST_BLOCK", "6:_blocks", "8:FIRST_BLOCK", "9:_POINT_ERRORS", "10:_clean_prefix"]
    assert _name_uses(source, BLOCK_LOOP) == want


# The builders of Implication records: the composite families, the crisp family and aggregate, whose labels differ.
IMPLICATION_BUILDERS = {
    ("implications", "_composite"),
    ("implications", "make_crisp_family"),
    ("aggregation", "aggregate"),
}


def _implication_calls(module: str, source: str) -> list[str]:
    """line:owner for each call of Implication in source outside IMPLICATION_BUILDERS.

    owner is the module-level definition that holds the call, or <module>; a
    name that an import binds to Implication counts as Implication.
    """
    tree = ast.parse(source)
    names = {"Implication"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {alias.asname for alias in node.names if alias.name == "Implication" and alias.asname}
    found = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called in names and (module, owner) not in IMPLICATION_BUILDERS:
                found.append((node.lineno, owner))
    return [f"{line}:{owner}" for line, owner in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_builders_call_implication(path):
    calls = _implication_calls(path.stem, path.read_text(encoding="utf-8"))
    assert calls == [], f"{path.name}: build composites with implications._composite: {calls}"


def test_a_call_of_implication_is_found():
    source = textwrap.dedent(
        """\
        from .implications import Implication, Implication as Imp
        from . import implications

        DEFAULT = Implication(fn=min, label="min", family="gon")


        def _composite(family, fn, *parts):
            return Implication(fn=fn, label=family, family=family, parts=parts)


        def make_x(f):
            def inner():
                return implications.Implication(fn=f, label="x", family="gon")

            return Imp(fn=f, label="x", family="gon"), inner, isinstance(f, Implication)
        """
    )
    assert _implication_calls("implications", source) == ["4:<module>", "13:make_x", "15:make_x"]
    assert _implication_calls("aggregation", source) == ["4:<module>", "8:_composite", "13:make_x", "15:make_x"]
