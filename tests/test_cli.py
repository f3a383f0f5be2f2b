"""Command-line surface: grammar, verbs, formats, exit codes."""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlapkit import cli, dumps, numerics
from overlapkit.cli import _CATALOG_ROWS, _build_parser, _head_kind, run
from overlapkit.properties import check_properties, check_property


def _lines(capsys) -> list[str]:
    return capsys.readouterr().out.strip().splitlines()


# --- eval -------------------------------------------------------------------


def test_eval_at_point(capsys):
    assert run(["eval", "gon(GO_max, zadeh)", "--at", "0.6", "0.2"]) == 0
    assert _lines(capsys) == ["1.000000000"]


def test_eval_negation(capsys):
    assert run(["eval", "zadeh", "--at", "0.3"]) == 0
    assert _lines(capsys) == ["0.700000000"]


def test_eval_multiple_points(capsys):
    assert run(["eval", "O_min", "--at", "0.2", "0.9", "--at", "0.6", "0.4"]) == 0
    assert _lines(capsys) == ["0.200000000", "0.400000000"]


def test_eval_grid_dump(capsys):
    assert run(["eval", "zadeh", "--grid", "11"]) == 0
    lines = _lines(capsys)
    assert len(lines) == 11
    assert lines[0].split() == ["0.000000000", "1.000000000"]
    assert lines[-1].split() == ["1.000000000", "0.000000000"]


def test_grid_101_dump_of_a_residual_runs_one_bisection_bracket(monkeypatch, capsys):
    # The 10,201 points of the dump are one block, so ro's mesh bisection runs once.
    brackets = []
    bracket = numerics._bracket
    monkeypatch.setattr(numerics, "_bracket", lambda *args: brackets.append(args) or bracket(*args))
    assert run(["eval", "ro(O_P:p=2)"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 101**2
    assert len(brackets) == 1


def test_a_grid_dump_warns_as_the_point_queries_do(capsys):
    # neutral_go's x*y/e overflows for a tiny e where the formula does not select it.
    assert run(["eval", "neutral_go:e=1e-310", "--grid", "3"]) == 0
    dump = capsys.readouterr()
    assert dump.err == ""
    points = [line.split() for line in dump.out.splitlines()]
    assert run(["eval", "neutral_go:e=1e-310", *(a for *p, _ in points for a in ("--at", *p))]) == 0
    queries = capsys.readouterr()
    assert queries.err == ""
    assert queries.out.split() == [v for *_, v in points]


def _per_row_dump(expression: str, grid: int) -> str:
    """A text grid dump formatted a row at a time with _fmt, the reference for the run-at-a-time dump."""
    obj = cli._parse_any(expression, numerics.CheckConfig(grid_resolution=grid))
    axis = np.linspace(0.0, 1.0, grid)
    labels = [cli._fmt(g) for g in axis.tolist()]
    points = itertools.product(labels, repeat=obj.arity)
    return "".join(" ".join([*p, cli._fmt(v)]) + "\n" for p, v in zip(points, numerics._tensor(obj, axis).flat))


@pytest.mark.parametrize("grid", [2, 11, 101])
@pytest.mark.parametrize("expression", ["zadeh", "power:2", "O_P:p=2", "O_mM", "ro(O_min)", "gon(GO_max, zadeh)"])
def test_grid_dump_text_equals_the_per_row_format(expression, grid, capsys):
    assert run(["eval", expression, "--grid", str(grid)]) == 0
    assert capsys.readouterr().out == _per_row_dump(expression, grid)


def _grid_values(expression: str, grid: int):
    obj = cli._parse_any(expression, numerics.CheckConfig(grid_resolution=grid))
    axis = np.linspace(0.0, 1.0, grid)
    return obj, axis, numerics._tensor(obj, axis)


def _per_value_csv(expression: str, grid: int) -> str:
    """A CSV grid dump written by csv.writer over _fmt cells, the reference for the array renderer."""
    obj, axis, values = _grid_values(expression, grid)
    labels = [cli._fmt(g) for g in axis.tolist()]
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["x", "y"][: obj.arity] + ["value"])
    writer.writerows([*p, cli._fmt(v)] for p, v in zip(itertools.product(labels, repeat=obj.arity), values.flat))
    return out.getvalue()


def _rounded(obj):
    return [_rounded(v) for v in obj] if isinstance(obj, list) else round(obj, 9)


def _per_value_json(expression: str, grid: int) -> str:
    """A JSON grid dump rounded and encoded a float at a time, the reference for the array renderer."""
    obj, axis, values = _grid_values(expression, grid)
    payload = {"expression": obj.label, "grid": _rounded(axis.tolist()), "values": _rounded(values.tolist())}
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("fmt, reference", [("csv", _per_value_csv), ("json", _per_value_json)])
@pytest.mark.parametrize("grid", [2, 11, 101])
@pytest.mark.parametrize("expression", ["zadeh", "power:2", "O_P:p=2", "O_mM", "ro(O_min)", "gon(GO_max, zadeh)"])
def test_grid_dump_csv_and_json_equal_the_per_value_format(expression, grid, fmt, reference, capsys):
    assert run(["eval", expression, "--grid", str(grid), "--format", fmt]) == 0
    assert capsys.readouterr().out == reference(expression, grid)


def test_grid_dump_runs_format_as_fmt_does():
    values = np.array([[-0.0, 5e-324, 1.0], [0.1, 2.0 / 3.0, 1.0 - 2**-53]])
    axis = np.linspace(0.0, 1.0, 3)
    labels = ["0.000000000", "0.500000000", "1.000000000"]
    want = ["\n".join(f"{labels[i]} {labels[j]} {cli._fmt(values[i, j])}" for i in range(2) for j in range(3))]
    assert list(dumps._table(axis, values, " ", "\n")) == want
    one_run = "\n".join(f"{a} {cli._fmt(v)}" for a, v in zip(labels, values[0]))
    assert list(dumps._table(axis, values[0], " ", "\n")) == [one_run]
    assert cli._fmt(-0.0) == "-0.000000000"


def _nine_decimals(values: np.ndarray) -> list[str]:
    """The texts _fixed9 gives values, each wide one in its row's place."""
    digits = np.empty(len(values), dumps._NINE)
    wide = dumps._fixed9(values, digits)
    texts = [text.decode("ascii") for text in digits.view("S11").tolist()]
    for i, text in wide:
        texts[i] = text
    return texts


def _assert_exact(values) -> None:
    """_fixed9 writes "%.9f" % v, and _json_array json.dumps of round(v, 9), for every v of values."""
    values = np.asarray(values, dtype=float)
    floats = values.tolist()
    assert _nine_decimals(values) == ["%.9f" % v for v in floats]
    assert "".join(dumps._json_array(values, "")) == json.dumps([round(v, 9) for v in floats], indent=2)


@settings(max_examples=200)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64))
def test_nine_decimals_are_exact_on_unit_floats(values):
    _assert_exact(values)


@settings(max_examples=100)
@given(st.lists(st.floats(0.0, 1e-4, exclude_min=True, exclude_max=True), min_size=1, max_size=64))
def test_nine_decimals_are_exact_where_repr_takes_an_exponent(values):
    _assert_exact(values)


def test_nine_decimals_are_exact_on_every_multiple_of_2_to_the_minus_20():
    _assert_exact(np.arange(2**20 + 1) / 2**20)


def _ulps_around(centres: np.ndarray, ulps: int = 4) -> np.ndarray:
    steps = [centres]
    for direction in (0.0, 2.0):
        point = centres
        for _ in range(ulps):
            point = np.nextafter(point, direction)
            steps.append(point)
    return np.sort(np.clip(np.ravel(steps), 0.0, 1.0))


def test_nine_decimals_are_exact_within_4_ulps_of_a_half_unit():
    k = np.random.default_rng(0).integers(0, 10**9, 20_000)
    edges = np.array([0, 1, 4, 99_999, 100_000, 499_999_999, 999_999_998, 999_999_999])
    _assert_exact(_ulps_around((np.append(k, edges) + 0.5) * 1e-9))


def test_nine_decimals_are_exact_at_the_special_values():
    _assert_exact([-0.0, 5e-324, 1.0 - 2**-53, 0.0, 1.0, 1e-4, 1e-9, 5e-10, 9.99995e-5, 0.5])
    _assert_exact(_ulps_around(np.array([1e-4, 9.99995e-5, 5e-10, 1.5e-9])))
    _assert_exact(np.logspace(-12, -4, 2001))


_REFERENCES = {"text": _per_row_dump, "csv": _per_value_csv, "json": _per_value_json}


def _rendered_sizes(monkeypatch, capsys, expression: str, grid: int, fmt: str) -> list[int]:
    """The number of values _decimals renders at each call of a dump that equals its per-value reference."""
    sizes = []
    decimals = dumps._decimals

    def counted(values, *rest, **kw):
        sizes.append(len(values))
        return decimals(values, *rest, **kw)

    monkeypatch.setattr(dumps, "_decimals", counted)
    assert run(["eval", expression, "--grid", str(grid), "--format", fmt]) == 0
    assert capsys.readouterr().out == _REFERENCES[fmt](expression, grid)
    return sizes


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_a_grid_301_dump_renders_at_most_4096_values_of_whole_runs_at_a_time(fmt, monkeypatch, capsys):
    sizes = _rendered_sizes(monkeypatch, capsys, "O_P:p=2", 301, fmt)
    # The labels once (JSON's grid is a list), then 23 spans of 13 runs and one of the last 2.
    assert sizes == [301] * (fmt != "json") + [13 * 301] * 23 + [2 * 301]


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_a_negation_dump_longer_than_4096_values_renders_in_parts_of_its_run(fmt, monkeypatch, capsys):
    sizes = _rendered_sizes(monkeypatch, capsys, "power:2", 5000, fmt)
    assert sizes == [5000] * (fmt != "json") + [4096, 904]


def test_eval_aggregated_family(capsys):
    code = run(["eval", "agg(mean; gon(GO_max, zadeh), gon(O_P:p=2, zadeh))",
                "--at", "0.5", "0.5"])
    assert code == 0
    assert _lines(capsys) == ["0.968750000"]


def test_eval_arity_mismatch_exits_3(capsys):
    # The connective's own argument check refuses the point.
    assert run(["eval", "GO_PN:n=3", "--at", "0.5", "0.5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: GO_PN:n=3 takes 3 arguments, got 2\n"


def test_eval_out_of_range_exits_3():
    assert run(["eval", "zadeh", "--at", "2.0"]) == 3


@pytest.mark.parametrize("token", ["-0.001", "-1e-3", "-1E-3", "-1.0e-03"])
def test_eval_at_a_negative_number_in_any_notation_reaches_the_range_check(token, capsys):
    assert run(["eval", "O_min", "--at", token, "0.5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: value -0.001 is not in [0, 1]\n"


@pytest.mark.parametrize("token", ["-0.001", "-1e-3"])
def test_search_range_with_a_negative_exponent_reaches_the_parameter_check(token, capsys):
    assert run(["search", "ro(O_P:p={})", "--prop", "NP", "--range", token, "2", "--grid", "11"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: parameter 'p' must be > 0\n"


def test_an_option_string_is_still_an_option(capsys):
    # Only tokens that read as numbers are arguments: --at followed by -h still lacks its value.
    with pytest.raises(SystemExit) as exit_:
        run(["eval", "O_min", "--at", "-h"])
    assert exit_.value.code == 2
    assert "argument --at: expected at least one argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["axioms", "trunc:O_P:p=1e-17,a=0.5", "--grid", "11"],
        ["eval", "trunc:O_P:p=1e-17,a=0.5", "--at", "0.5", "0.5"],
        ["props", "gon(trunc:O_P:p=1e-17,a=0.5, zadeh)", "--prop", "all", "--grid", "11"],
    ],
    ids=["axioms", "eval", "props"],
)
def test_truncation_with_a_cut_of_one_exits_3(argv, capsys):
    # (0.5 * x) ** 1e-17 rounds to 1.0: one error line, not a ZeroDivisionError traceback.
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: truncating O_P:p=1e-17 at a=0.5 divides by zero: O(max(x, y), a) is 1\n"


@pytest.mark.parametrize(
    "argv, code, err",
    [
        pytest.param(
            ["eval", "gon(O_min, zadeh))"],
            2,
            "error: unbalanced parentheses in 'O_min, zadeh)'\n",
            id="unbalanced",
        ),
        pytest.param(
            ["eval", "agg(mean, gon(GO_max, zadeh))"],
            2,
            "error: agg needs 'agg(NAME; I1, I2, ...)': 'agg(mean, gon(GO_max, zadeh))'\n",
            id="agg-without-semicolon",
        ),
        pytest.param(
            ["eval", "GO_PN:n=3"],
            3,
            "error: grid dump supports arity <= 2; use --at for wider connectives\n",
            id="ternary-grid-dump",
        ),
        pytest.param(
            ["search", "ro(O_P:p=2)", "--prop", "NP", "--range", "1", "2"],
            2,
            "error: search template must contain a {} placeholder\n",
            id="search-without-placeholder",
        ),
    ],
)
def test_each_refusal_exits_with_its_code_and_message(argv, code, err, capsys):
    assert run(argv) == code
    assert capsys.readouterr() == ("", err)


def test_parse_error_exits_2():
    assert run(["eval", "nonsense("]) == 2
    assert run(["eval", "gon(O_min)"]) == 2
    assert run(["axioms", "crisp_lower:x"]) == 2


# A repeated parameter, and an unknown or missing one on a catalog entry.
@pytest.mark.parametrize(
    "expression",
    [
        "O_P:p=1,p=2",
        "idem_go:p=1,q=2,p=3",
        "trunc:O_P:p=1,a=0.5,a=0.5",
        "O_min:p=2",
        "O_P:q=1",
        "GO_PN",
    ],
)
def test_duplicate_parameter_exits_2(expression, capsys):
    assert run(["eval", expression, "--at", "0.5", "0.5"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [["eval", "O_P:p=1,p=2", "--at", "0.5", "0.5"], ["axioms", "O_P:p=1,p=2"]],
)
def test_parse_error_comes_from_the_parser_the_head_names(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "duplicate parameter 'p'" in captured.err


def test_every_catalog_head_names_its_parser():
    for expression, kind, _ in _CATALOG_ROWS:
        for alternative in expression.split(" | "):
            assert _head_kind(alternative) == {"aggregation": "connective"}.get(kind, kind)


def test_unknown_implication_family_is_named(capsys):
    assert run(["props", "foo(O_P:p=2)"]) == 2
    assert "unknown implication family 'foo'" in capsys.readouterr().err


DUAL_WARNING = (
    "warning: GO_max fails the GO2a/GO3a grid check at (0.1, 0.1);"
    " dual is returned with role 'aggregation', not 'grouping'\n"
)


@pytest.mark.parametrize(
    "argv",
    [["eval", "dualG(GO_max, zadeh)", "--at", "0.5", "0.25"], ["axioms", "dualG(GO_max, zadeh)", "--set", "GO"]],
)
@pytest.mark.parametrize("source", ["flag", "file"])
def test_dual_scan_runs_at_the_run_config(argv, source, tmp_path, capsys):
    # The converse scan of dualG runs on the 11-point grid the run asks for,
    # and its warning prints as one line without Python's source location.
    if source == "flag":
        extra = ["--grid", "11"]
    else:
        cfg = tmp_path / "grid11.cfg"
        cfg.write_text("grid_resolution = 11\n")
        extra = ["--config", str(cfg)]
    assert run(argv + extra) == 0
    err = capsys.readouterr().err
    assert err == DUAL_WARNING
    assert "cli.py" not in err


# --- axioms -----------------------------------------------------------------


def test_axioms_default_set_from_role(capsys):
    assert run(["axioms", "GO_max", "--assert"]) == 0
    out = capsys.readouterr().out
    assert "GO1" in out and "GO5" in out


def test_axioms_explicit_set_failure(capsys):
    # overlap axioms on a general overlap: O2 must fail, --assert flips exit
    assert run(["axioms", "GO_max", "--set", "O"]) == 0
    assert run(["axioms", "GO_max", "--set", "O", "--assert"]) == 1
    out = capsys.readouterr().out
    assert "O2" in out



@pytest.mark.parametrize(
    "argv, arity",
    [
        pytest.param(["axioms", "GO_PN:n=40"], 40, id="40"),
        pytest.param(["axioms", "GO_PN:n=70"], 70, id="70"),
        pytest.param(["axioms", "GO_PN:n=1e20"], 10**20, id="1e20"),
        pytest.param(["eval", "gon(O_min, zadeh)", "--grid", "3163"], 2, id="eval-grid-3163"),
        pytest.param(["props", "gon(O_min, zadeh)", "--prop", "LOP", "--grid", "3163"], 2, id="props-grid-3163"),
    ],
)
def test_axioms_of_a_huge_arity_exit_3(argv, arity, capsys):
    # The grid would hold more than 10^7 points (11^n for the axioms, 3163^2
    # for the dump): refused before it is built.
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"arity {arity} " in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "gon(O_min, zadeh)"],
        ["props", "gon(O_min, zadeh)", "--prop", "LOP"],
        ["props", "gon(O_min, zadeh)", "--prop", "CP"],
        ["compare", "gon(O_min, zadeh)", "gon(GO_max, zadeh)"],
    ],
    ids=["eval", "props-LOP", "props-CP", "compare"],
)
def test_every_product_mesh_above_the_bound_exits_3(argv, monkeypatch, capsys):
    # With the bound at 100 points, the 11^2 grid is refused by every verb, not only the dump.
    monkeypatch.setattr(numerics, "MAX_GRID_POINTS", 100)
    assert run(argv + ["--grid", "11", "--samples", "0"]) == 3
    assert "arity 2 needs 11^2 points, more than 100" in capsys.readouterr().err


def test_axioms_json(capsys):
    assert run(["axioms", "O_min", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["label"] == "O_min"
    assert payload["passed"] is True
    assert {c["axiom"] for c in payload["checks"]} == {"O1", "O2", "O3", "O4", "O5"}


def test_axioms_negation_target(capsys):
    assert run(["axioms", "zadeh", "--assert"]) == 0
    out = capsys.readouterr().out
    assert "N1" in out and "N2" in out


# --- props ------------------------------------------------------------------


def test_props_single_holds(capsys):
    assert run(["props", "gon(O_min, crisp_upper:0.5)", "--prop", "LOP", "--assert"]) == 0
    assert "holds" in capsys.readouterr().out


def test_props_failing_with_assert(capsys):
    assert run(["props", "gon(O_min, crisp_upper:0.5)", "--prop", "ROP", "--assert"]) == 1
    assert "fails" in capsys.readouterr().out


def test_props_list_and_csv(capsys):
    assert run(["props", "gon(O_min, zadeh)", "--prop", "NP,IP,EP", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0][0] == "property"
    assert [r[0] for r in rows[1:]] == ["NP", "IP", "EP"]
    got = {r[0]: r[1] for r in rows[1:]}
    # I(x,x) = 1 - x near zero, so the identity principle genuinely fails
    assert got == {"NP": "holds_on_grid", "IP": "fails", "EP": "holds_on_grid"}


def test_props_all(capsys):
    assert run(["props", "gon(O_min, zadeh)", "--prop", "all"]) == 0
    out = capsys.readouterr().out
    for pid in ("NP", "IP", "LOP", "ROP", "IB", "EP", "EP1", "CP", "L-CP", "R-CP"):
        assert pid in out


def test_props_contraposition_negation_flag(capsys):
    code = run(["props", "gon(O_min, power:2)", "--prop", "L-CP",
                "--negation", "power:2", "--assert"])
    assert code == 0


@pytest.fixture
def scans(monkeypatch):
    """What the CLI's scans were asked for, in call order: a property id per scan, a list of ids per batch."""
    asked = []

    def counting(implication, prop, negation=None, config=numerics.DEFAULT_CONFIG):
        asked.append(prop)
        return check_property(implication, prop, negation, config)

    def counting_batch(implication, pids, negation=None, config=numerics.DEFAULT_CONFIG):
        asked.append(list(pids))
        return check_properties(implication, pids, negation, config)

    monkeypatch.setattr(cli, "check_property", counting)
    monkeypatch.setattr(cli, "check_properties", counting_batch)
    return asked


@pytest.mark.parametrize("names", ["EP2.5", "NP,", "NP,EP<p>", "all,NP"])
def test_props_refuses_an_unknown_name_before_any_scan(names, scans, capsys):
    assert run(["props", "gon(O_min, zadeh)", "--prop", names, "--grid", "11"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown property ") and captured.err.count("\n") == 1
    assert scans == []


def test_props_names_take_any_case_and_hyphens(scans, capsys):
    argv = ["props", "gon(O_min, zadeh)", "--prop", " l-cp , ep1,R-CP,np ", "--grid", "11", "--format", "csv"]
    assert run(argv) == 0
    assert scans == [["L-CP", "EP1", "R-CP", "NP"]]
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [r[0] for r in rows[1:]] == scans[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["props", "gon(O_min, zadeh)", "--prop", "all"],
        ["axioms", "O_min"],
        ["axioms", "zadeh"],
        ["compare", "d(max_grouping)", "d(max_grouping)"],
    ],
    ids=["props", "axioms", "negation-axioms", "compare"],
)
def test_only_json_serializes_the_reports(argv, monkeypatch, capsys):
    # The JSON payload is built only when --format json writes it: text and CSV make no numerics._plain call.
    calls = []
    plain = numerics._plain
    monkeypatch.setattr(numerics, "_plain", lambda value: calls.append(value) or plain(value))
    for fmt in ("text", "csv"):
        assert run([*argv, "--grid", "11", "--format", fmt]) == 0
    assert calls == []
    assert run([*argv, "--grid", "11", "--format", "json"]) == 0
    assert calls
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["props", "gon(O_min)", "--negation", "nope", "--prop", "EP2"], "error: gon needs two arguments: 'gon(O_min)'"),
        (["props", "gon(O_min, zadeh)", "--negation", "nope", "--prop", "EP2"], "error: not a negation expression: 'nope'"),
        (["search", "gon(O_P:p={}, zadeh)", "--negation", "nope", "--prop", "EP2", "--range", "1", "2"],
         "error: not a negation expression: 'nope'"),
    ],
    ids=["expression", "negation", "search-negation"],
)
def test_props_reports_the_expression_then_the_negation_then_the_names(argv, message, scans, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().err == message + "\n"
    assert scans == []


# --- compare ----------------------------------------------------------------


def test_compare_duality(capsys):
    code = run(["compare", "gon(O_P:p=1, zadeh)", "gn(dualG(O_P:p=1, zadeh), zadeh)",
                "--assert"])
    assert code == 0
    assert "0.000000000" in capsys.readouterr().out


def test_compare_assert_fails_on_distinct(capsys):
    assert run(["compare", "gon(O_min, zadeh)", "gon(GO_max, zadeh)", "--assert"]) == 1


def test_compare_json(capsys):
    assert run(["compare", "gon(O_min, zadeh)", "gon(O_min, zadeh)", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["deviation"] == 0.0
    assert payload["samples_checked"] > 10000
    # The labels sit under the verb's argument names, ahead of the comparison's float lhs and rhs.
    assert list(payload)[:2] == ["expression", "expression2"]
    assert payload["expression"] == payload["expression2"] == "gon(O_min, zadeh)"
    assert isinstance(payload["lhs"], float) and isinstance(payload["rhs"], float)


# --- table2 -----------------------------------------------------------------


def test_table2_matches_expected(capsys):
    assert run(["table2", "--format", "csv", "--assert"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    header = rows[0]
    assert header[0] == "property"
    assert header[1:] == [
        "tn(O_min, zadeh)",
        "tn(O_min, power:2)",
        "tn(O_min, crisp_upper:0.5)",
        "gon(O_min, zadeh)",
        "gon(O_min, crisp_upper:0.5)",
    ]
    grid = {r[0]: r[1:] for r in rows[1:]}
    assert grid["EP"] == ["yes", "no", "yes", "yes", "yes"]
    assert grid["NP"] == ["yes", "no", "no", "yes", "no"]
    assert grid["ROP"] == ["yes", "yes", "no", "yes", "no"]
    assert grid["LOP"] == ["no", "no", "yes", "no", "yes"]
    assert grid["CP"] == ["yes", "no", "yes", "yes", "yes"]
    assert grid["L-CP"] == ["yes", "yes", "yes", "yes", "yes"]
    assert grid["R-CP"] == ["yes", "no", "yes", "yes", "yes"]


# --- search -----------------------------------------------------------------


def test_search_finds_ep_violation(capsys):
    code = run(["search", "gon(O_P:p={}, zadeh)", "--prop", "EP",
                "--range", "1", "3", "--steps", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "p=1.5" in out and "fails" in out


def test_search_assert_exit(capsys):
    code = run(["search", "gon(O_P:p={}, zadeh)", "--prop", "EP",
                "--range", "1", "3", "--steps", "5", "--assert"])
    assert code == 1


@pytest.mark.parametrize("steps", ["0", "-1"])
def test_search_rejects_steps_below_one(steps, capsys):
    code = run(["search", "gon(O_P:p={}, zadeh)", "--prop", "EP",
                "--range", "1", "2", "--steps", steps])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--steps must be >= 1" in captured.err


def test_search_rejects_steps_above_the_grid_bound(capsys):
    code = run(["search", "gon(O_P:p={}, zadeh)", "--prop", "EP",
                "--range", "1", "2", "--steps", "10000001"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --steps must be at most 10000000") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "template, bounds, shown",
    [
        ("ro(O_P:p={})", ["1", "inf"], "1 inf"),
        ("ro(O_P:p={})", ["inf", "2"], "inf 2"),
        ("crisp(C3, {}, 0.5)", ["nan", "0.5"], "nan 0.5"),
        # argparse alone would take these tokens for option strings and exit 2 with a usage block.
        ("ro(O_P:p={})", ["-inf", "2"], "-inf 2"),
        ("ro(O_P:p={})", ["1", "-Infinity"], "1 -inf"),
        ("crisp(C3, {}, 0.5)", ["-nan", "0.5"], "nan 0.5"),
    ],
    ids=["inf-hi", "inf-lo", "nan-lo", "minus-inf-lo", "minus-infinity-hi", "minus-nan-lo"],
)
def test_search_refuses_a_non_finite_range_before_any_scan(template, bounds, shown, scans, capsys):
    code = run(["search", template, "--prop", "IP", "--range", *bounds, "--steps", "3", "--grid", "11"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --range must be two finite numbers, got {shown}\n"
    assert scans == []


def test_search_no_violation(capsys):
    code = run(["search", "gon(GO_TL:p={}, zadeh)", "--prop", "L-CP",
                "--range", "1", "3", "--steps", "3", "--assert"])
    assert code == 0
    assert "violation found" in capsys.readouterr().out
    argv = ["search", "gon(GO_TL:p={}, zadeh)", "--prop", "L-CP", "--range", "1", "3", "--steps", "1"]
    assert run(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) is None
    assert run(argv + ["--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows == [
        ["expression", "property", "status", "witness", "lhs", "rhs", "deviation", "samples_checked"]
    ]


@pytest.mark.parametrize("prop", ["EP2", "all", "NP,IP"])
def test_search_refuses_an_unknown_name_before_any_scan(prop, scans, capsys):
    code = run(["search", "gon(O_P:p={}, zadeh)", "--prop", prop, "--range", "1", "2", "--steps", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown property ")
    assert scans == []


def test_search_names_the_property_without_its_hyphen(scans, capsys):
    argv = ["search", "gon(GO_TL:p={}, zadeh)", "--prop", "l-cp", "--range", "1", "3", "--steps", "2", "--grid", "11"]
    assert run(argv) == 0
    assert _lines(capsys) == ["no LCP violation found in [1, 3]"]
    assert scans == ["L-CP", "L-CP"]


# --- catalog ----------------------------------------------------------------


def test_catalog_lists_grammar(capsys):
    assert run(["catalog"]) == 0
    out = capsys.readouterr().out
    for token in ("O_P:p=", "GO_PN:n=", "crisp_upper:", "gon(", "agg(", "zadeh"):
        assert token in out


# --- output contract --------------------------------------------------------

# One argv per output shape.
OUTPUT_SHAPES = {
    "eval --at": ["eval", "O_P:p=2", "--at", "0.5", "0.25", "--at", "1", "0"],
    "eval 1-d": ["eval", "power:2"],
    "eval 2-d": ["eval", "gon(GO_max, zadeh)"],
    "axioms connective": ["axioms", "O_min"],
    "axioms negation": ["axioms", "power:2"],
    "props": ["props", "gon(GO_max, zadeh)", "--prop", "NP,EP,CP"],
    "compare": ["compare", "gon(GO_max, zadeh)", "tn(O_min, zadeh)"],
    "table2": ["table2"],
    "search violation": ["search", "gon(O_P:p={}, zadeh)", "--prop", "EP", "--range", "1", "3"],
    "search none": ["search", "gon(GO_TL:p={}, zadeh)", "--prop", "L-CP", "--range", "1", "3"],
    "catalog": ["catalog"],
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("shape", list(OUTPUT_SHAPES))
def test_output_is_machine_readable(shape, fmt, capsys):
    argv = OUTPUT_SHAPES[shape] + ["--grid", "6", "--samples", "5", "--format", fmt]
    assert run(argv) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        json.loads(out)
    else:
        header, *rows = csv.reader(io.StringIO(out))
        assert all(len(row) == len(header) for row in rows)


# --- config -----------------------------------------------------------------


def test_config_file_flag(tmp_path, capsys):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("grid_resolution = 21\nrandom_samples = 40\n")
    # the steep idempotent connective passes GO only at the coarse resolution
    assert run(["axioms", "idem_go:p=1,q=2", "--config", str(cfg), "--assert"]) == 0
    capsys.readouterr()
    assert run(["axioms", "idem_go:p=1,q=2", "--assert"]) == 1


def test_config_env_fallback(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("grid_resolution = 21\nrandom_samples = 40\n")
    monkeypatch.setenv("OVERLAPKIT_CONFIG", str(cfg))
    assert run(["axioms", "idem_go:p=1,q=2", "--assert"]) == 0


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("grid_resolution = 21\nrandom_samples = 40\n")
    code = run(["axioms", "idem_go:p=1,q=2", "--config", str(cfg),
                "--grid", "101", "--samples", "200", "--assert"])
    assert code == 1


def test_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("grid_resolution : 21\n")
    assert run(["eval", "zadeh", "--at", "0.5", "--config", str(cfg)]) == 2


def test_oversized_config_values_exit_2(tmp_path, capsys):
    assert run(["eval", "zadeh", "--at", "0.5", "--grid", "10000001"]) == 2
    assert "grid_resolution must be at most 10000000" in capsys.readouterr().err
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("random_samples = 10000001\n")
    assert run(["eval", "zadeh", "--at", "0.5", "--config", str(cfg)]) == 2
    assert "random_samples must be at most 10000000" in capsys.readouterr().err


def test_negative_seed_exits_2(tmp_path, capsys):
    argv = ["props", "gon(O_min, zadeh)", "--prop", "LOP", "--grid", "5"]
    assert run([*argv, "--seed", "-1"]) == 2
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("rng_seed = -1\n")
    assert run([*argv, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == "error: rng_seed must be a nonnegative integer\n" * 2


def test_non_utf8_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"grid_resolution = 21 # \xff\n")
    assert run(["eval", "zadeh", "--at", "0.5", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(cfg) in err and err.count("\n") == 1


def test_missing_config_exits_3(tmp_path):
    assert run(["eval", "zadeh", "--at", "0.5", "--config", str(tmp_path / "nope.cfg")]) == 3


def test_a_bisect_tol_below_53_steps_exits_2(tmp_path, capsys):
    assert run(["eval", "ro(O_min)", "--at", "0.5", "0.5", "--bisect-tol", "1e-20"]) == 2
    cfg = tmp_path / "fine.cfg"
    cfg.write_text("bisect_tol = 1e-20\n")
    assert run(["eval", "ro(O_min)", "--at", "0.5", "0.5", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bisect_tol must be at least 2**-51 (4.440892098500626e-16), got 1e-20\n" * 2


@pytest.mark.parametrize(
    "argv, read",
    [
        # A grid-101 dump is far larger than a pipe's buffer: the writer is still writing when the reader leaves.
        (["eval", "ro(O_min)"], b"0.000000000 0.000000000 1.000000000\n"),
        # One short line, still buffered when the reader has already left.
        (["eval", "zadeh", "--at", "0.5"], b""),
    ],
)
def test_a_closed_pipe_exits_141_with_nothing_on_stderr(argv, read):
    # Buffered stdout, as by default: PYTHONUNBUFFERED would write each line at once.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "overlapkit.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    first = proc.stdout.readline() if read else b""
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert (first, err) == (read, b"")


# --- determinism ------------------------------------------------------------


def test_repeated_commands_identical(capsys):
    run(["props", "gon(GO_max, zadeh)", "--prop", "EP", "--format", "json"])
    first = capsys.readouterr().out
    run(["props", "gon(GO_max, zadeh)", "--prop", "EP", "--format", "json"])
    assert capsys.readouterr().out == first


def test_seed_flag_changes_samples(capsys):
    run(["props", "gon(GO_max, zadeh)", "--prop", "EP", "--seed", "0", "--format", "json"])
    base = json.loads(capsys.readouterr().out)
    run(["props", "gon(GO_max, zadeh)", "--prop", "EP", "--seed", "5", "--format", "json"])
    other = json.loads(capsys.readouterr().out)
    # the verdict is seed-independent even though the sample set is not
    assert base[0]["status"] == other[0]["status"] == "fails"


# --- one parser per process -------------------------------------------------


def test_the_parser_is_built_once_and_keeps_no_state_between_runs(capsys):
    assert _build_parser() is _build_parser()
    assert run(["eval", "O_min", "--at", "0.2", "0.9", "--at", "0.6", "0.4", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["values"] == [0.2, 0.4]
    # A fresh --at list and the text default of --format.
    assert run(["eval", "O_min", "--at", "0.3", "0.8"]) == 0
    assert capsys.readouterr().out == "0.300000000\n"


@pytest.mark.parametrize(
    "bad",
    [
        ["eval"],
        ["eval", "zadeh", "--at", "0.5", "--format", "yaml"],
        ["search", "ro(O_P:p={})", "--prop", "NP", "--range", "1"],
        ["nope"],
    ],
)
def test_a_run_that_argparse_exits_leaves_the_next_run_unchanged(bad, capsys):
    good = ["eval", "gon(GO_max, zadeh)", "--at", "0.6", "0.2", "--at", "0.1", "0.3", "--format", "csv"]
    run(good)
    before = capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        run(bad)
    assert exit_.value.code == 2
    capsys.readouterr()
    run(good)
    after = capsys.readouterr()
    assert (after.out, after.err) == (before.out, before.err)


@pytest.mark.parametrize("verb", [[], ["eval"], ["props"], ["search"], ["catalog"]])
def test_help_of_the_shared_parser_is_that_of_a_fresh_one(verb, capsys):
    with pytest.raises(SystemExit):
        _build_parser.__wrapped__().parse_args([*verb, "--help"])
    reference = capsys.readouterr().out
    assert reference.startswith("usage: overlapkit")
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_:
            run([*verb, "--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out == reference
