"""Contracts over expressions drawn from the grammar table cli._FORMS.

Each form's example is a template: a call's arguments, and the pieces after
a name's colon, that name a constructor are replaced by drawn expressions
of that constructor's kind (its form's kind in cli._GRAMMAR, so an
aggregation slot gets an aggregation), and the rest are parameters, drawn
as numbers or, for a crisp kind, as one of the kinds. Calls nest at most
two deep below the drawn expression. A form added to the grammar is drawn
without editing this file.

On the grid-11 sample mesh, for every drawn expression that parses:

* values() gives the bits of the scalar call at every point, or the
  exception (type and message) that the call raises at the first point
  where it raises, and emits the same warnings (category and message);
* parse(obj.label) rebuilds the same label and the same bits.

On a small product grid of every arity, numerics._tensor, which evaluates
a vectorized object on broadcast axes, gives the bits of the flat
evaluation (the grid's points as 1-d columns, in blocks), or its error; an
unmarked object, or one whose broadcast evaluation raises, takes the flat
path.

check_properties of all ten property rows, for a drawn implication and
negation, gives the reports check_property gives row by row, or raises the
same error (type and message).

On the CLI, `eval EXPR --grid 5` for a drawn expression exits 0, 2 or 3
with no traceback in every format, gives the same 9-decimal values in
text, CSV and JSON, and writes the same bytes when run twice.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import overlapkit as ok
from overlapkit import cli, numerics, properties
from overlapkit.implications import CRISP_KINDS
from overlapkit.numerics import OverlapkitError, _sample_mesh

CFG = ok.CheckConfig(grid_resolution=11)
DEPTH = 2


def _form_kind(piece: str):
    """The kind of the form whose name heads piece (aggregation kept apart), or None for a parameter."""
    match = cli._HEAD.match(piece)
    entry = cli._GRAMMAR.get(match.group(1)) if match else None
    return None if entry is None else entry[1].kind


def _template(example: str) -> tuple[str, list[list[str]], str, str]:
    """example as (prefix, groups of pieces, the separator of a group's pieces, suffix).

    A call's groups are its ';'-separated argument lists; a name:REST has one
    group, the ','-separated pieces of REST; any other name has none.
    """
    call = cli._call_form(example)
    if call is not None:
        head, inner = call
        return f"{head}(", [cli._split_top(g, ",") for g in cli._split_top(inner, ";")], ", ", ")"
    name, colon, rest = example.partition(":")
    return (f"{name}:", [cli._split_top(rest, ",")], ",", "") if colon else (example, [], ",", "")


def _is_leaf(example: str) -> bool:
    _, groups, _, _ = _template(example)
    return all(_form_kind(piece) is None for group in groups for piece in group)


# form kind -> the examples of its forms, one per alternative of a name list (mean | min | ...).
EXAMPLES: dict[str, list[str]] = {}
for _f in cli._FORMS:
    EXAMPLES.setdefault(_f.kind, []).extend(_f.example.split(" | "))

# Most parameters lie in (0, 1] (thresholds, levels, e) or are small positive powers and arities.
NUMBERS = st.one_of(
    st.sampled_from(["0", "0.5", "1", "2", "3"]),
    st.integers(min_value=0, max_value=4).map(str),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True).map(repr),
    st.floats(min_value=0.0, max_value=4.0).map(repr),
)


def _piece(piece: str, depth: int) -> st.SearchStrategy[str]:
    kind = _form_kind(piece)
    if kind is not None:
        return _expressions(kind, depth - 1)
    key, eq, _ = piece.rpartition("=")
    if eq:
        return NUMBERS.map(lambda v: f"{key}={v}")
    if piece in CRISP_KINDS:
        return st.sampled_from(CRISP_KINDS)
    return NUMBERS


def _filled(example: str, depth: int) -> st.SearchStrategy[str]:
    prefix, groups, sep, suffix = _template(example)
    drawn = st.tuples(*(st.tuples(*(_piece(p, depth) for p in group)) for group in groups))
    return drawn.map(lambda gs: prefix + "; ".join(sep.join(g) for g in gs) + suffix)


def _expressions(kind: str, depth: int) -> st.SearchStrategy[str]:
    """An expression of a form of kind whose calls nest at most depth deep."""
    examples = [e for e in EXAMPLES[kind] if depth > 0 or _is_leaf(e)]
    return st.sampled_from(examples).flatmap(lambda e: _filled(e, depth))


EXPRESSIONS = st.sampled_from(sorted(EXAMPLES)).flatmap(lambda kind: _expressions(kind, DEPTH))


def _parse(text: str):
    """The object text names, or None when the grammar or a constructor refuses it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return cli._parse_any(text, CFG)
        except (cli.ParseError, ok.PreconditionError):
            return None


def _outcome(evaluate):
    """evaluate()'s value as bits, or its exception as (type, message)."""
    try:
        return evaluate().view(np.uint64).tolist()
    except OverlapkitError as exc:
        return type(exc), str(exc)


def _warned(evaluate):
    """(_outcome(evaluate), the distinct warnings it emits as (category, message), sorted)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcome = _outcome(evaluate)
    return outcome, sorted({(w.category.__name__, str(w.message)) for w in caught})


def _scalar(obj, cols):
    def evaluate():
        return np.array([float(obj(*p)) for p in zip(*(c.tolist() for c in cols))], dtype=float)

    return _warned(evaluate)


def _array(obj, cols):
    return _warned(lambda: obj.values(*cols))


def test_the_strategy_reaches_every_form():
    drawable = {e for examples in EXAMPLES.values() for e in examples}
    assert drawable == {a for f in cli._FORMS for a in f.example.split(" | ")}
    # Every example, filled with its own pieces, is a template of itself.
    for example in drawable:
        prefix, groups, sep, suffix = _template(example)
        rebuilt = prefix + "; ".join(sep.join(g) for g in groups) + suffix
        assert cli._parse_any(rebuilt, CFG).label == cli._parse_any(example, CFG).label


@settings(max_examples=200)
@given(text=EXPRESSIONS)
# O_P:p=1e-17 at 0.9 rounds to 1, so the truncation raises at every point, through each composite.
@example(text="agg(min; ro(trunc:O_P:p=1e-17,a=0.9), gon(O_min, zadeh))")
@example(text="ql(trunc:O_P:p=1e-17,a=0.9, prob_sum)")
# x*y/e overflows for a tiny e away from the mixed region, where it is not selected.
@example(text="neutral_go:e=1e-310")
def test_scalar_and_array_agree_and_the_label_parses_back(text):
    obj = _parse(text)
    assume(obj is not None)
    cols = _sample_mesh(CFG, obj.arity)
    scalar = _scalar(obj, cols)
    assert _array(obj, cols) == scalar, text
    again = _parse(obj.label)
    assert again is not None, obj.label
    assert again.label == obj.label
    assert _scalar(again, cols) == scalar, obj.label


# The product grids of the _tensor contract: the grid-11 axis and a few random
# points, fewer points per axis from arity 3 up so a grid stays small.
_AXIS = np.sort(np.concatenate((numerics.uniform_grid(CFG), numerics.random_points(CFG)[:6])))
AXES = {1: _AXIS, 2: _AXIS, 3: _AXIS[::2]}


def _flat(obj, axis):
    """obj on the product grid of axis evaluated flat: its points as 1-d columns, in blocks."""
    cols = numerics._product_mesh(axis, obj.arity)
    (values,) = numerics._mesh_values(cols, lambda *p: (numerics._value(obj, *p),))
    return values.reshape((len(axis),) * obj.arity)


@settings(max_examples=200)
@given(text=EXPRESSIONS)
@example(text="zadeh")
@example(text="GO_PN:n=3")
@example(text="GO_PN:n=4")
@example(text="ro(O_P:p=2)")
@example(text="ql(trunc:O_P:p=1e-17,a=0.9, prob_sum)")
def test_tensor_bits_on_broadcast_axes_are_the_flat_evaluation(text):
    obj = _parse(text)
    assume(obj is not None)
    axis = AXES.get(obj.arity, _AXIS[::3])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert _outcome(lambda: numerics._tensor(obj, axis)) == _outcome(lambda: _flat(obj, axis)), text


def _flat_calls(monkeypatch) -> list:
    """The calls _tensor makes to the flat path (numerics._mesh_values), recorded while the test runs."""
    calls = []
    flat = numerics._mesh_values

    def recorded(cols, fn):
        calls.append(len(cols[0]))
        return flat(cols, fn)

    monkeypatch.setattr(numerics, "_mesh_values", recorded)
    return calls


def test_tensor_bits_take_the_flat_path_when_unmarked_or_raising(monkeypatch):
    axis = AXES[2]
    gon = cli.parse_implication("gon(GO_TL:p=2, zadeh)", CFG)
    want = _flat(gon, axis).view(np.uint64).tolist()
    calls = _flat_calls(monkeypatch)
    # Vectorized: one evaluation on broadcast axes, no flat one.
    assert numerics._tensor(gon, axis).view(np.uint64).tolist() == want
    assert calls == []
    # Unmarked (dataclasses.replace drops the mark): the flat path alone.
    unmarked = dataclasses.replace(gon, fn=lambda x, y: gon.fn(x, y))
    assert numerics._tensor(unmarked, axis).view(np.uint64).tolist() == want
    assert calls == [len(axis) ** 2]
    # Any error on broadcast axes, here one a 1-d column never meets, falls back to the flat path.
    calls.clear()

    def columns_only(x, y):
        if x.ndim > 1:
            raise TypeError("columns only")
        return gon.fn(x, y)

    picky = dataclasses.replace(gon, fn=numerics._vectorized(columns_only))
    assert numerics._tensor(picky, axis).view(np.uint64).tolist() == want
    assert calls == [len(axis) ** 2]
    # A library error is raised as the flat path raises it: the first raising point's, in C order.
    calls.clear()
    leaky = ok.FusionFunction(
        fn=numerics._vectorized(lambda x, y: numerics._where(x + y > 1.5, 1.0 + x, numerics._min(x, y))),
        arity=2,
        role="overlap",
        label="leaky_min",
    )
    with pytest.raises(ok.UnitRangeError) as flat_error:
        _flat(leaky, axis)
    calls.clear()
    with pytest.raises(ok.UnitRangeError) as tensor_error:
        numerics._tensor(leaky, axis)
    assert str(tensor_error.value) == str(flat_error.value)
    assert calls == [len(axis) ** 2]


def _reports(run):
    """run()'s reports as dicts, or the type and message of what it raises, with numpy's warnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return [report.as_dict() for report in run()]
        except Exception as exc:
            return type(exc), str(exc)


@settings(max_examples=80)
@given(implication=_expressions("implication", DEPTH), negation=_expressions("negation", 1))
# These raise at every point: the walk of all six meshes raises and the rows run one by one.
@example(implication="agg(min; ro(trunc:O_P:p=1e-17,a=0.9), gon(O_min, zadeh))", negation="zadeh")
@example(implication="tn(trunc:O_P:p=1e-17,a=0.9, zadeh)", negation="power:2")
def test_check_properties_reports_what_check_property_reports_row_by_row(implication, negation):
    # All ten rows walk their six meshes together; a walk that raises runs the rows one by one.
    i, n = _parse(implication), _parse(negation)
    assume(i is not None and n is not None)
    ids = list(properties._PROPERTIES)
    got = _reports(lambda: properties.check_properties(i, ids, n, CFG))
    assert got == _reports(lambda: [properties.check_property(i, pid, n, CFG) for pid in ids]), (implication, negation)


def _cli(argv: list) -> tuple:
    """cli.run(argv) in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _dumped_values(fmt: str, out: str) -> list:
    """The values of an eval grid dump written in fmt, as 9-decimal strings in grid order."""
    if fmt == "json":
        return [f"{v:.9f}" for v in np.ravel(json.loads(out)["values"]).tolist()]
    if fmt == "text":
        return [line.split(" ")[-1] for line in out.splitlines()]
    return [row[-1] for row in list(csv.reader(io.StringIO(out)))[1:]]


@settings(max_examples=200)
@given(text=EXPRESSIONS)
@example(text="neutral_go:e=1e-310")
@example(text="GO_PN:n=3")
def test_eval_grid_dumps_agree_across_formats_exit_cleanly_and_repeat(text):
    outcomes = {}
    for fmt in ("text", "csv", "json"):
        argv = ["eval", text, "--grid", "5", "--format", fmt]
        outcomes[fmt] = code, _, err = _cli(argv)
        assert code in (0, 2, 3) and "Traceback" not in err, (argv, code, err)
        assert _cli(argv) == outcomes[fmt], argv
    assert len({code for code, _, _ in outcomes.values()}) == 1, outcomes
    if code == 0:
        text_values, csv_values, json_values = (_dumped_values(fmt, out) for fmt, (_, out, _) in outcomes.items())
        assert len(text_values) in (5, 25) and text_values == csv_values == json_values, text
