"""Command-line surface: evaluate, audit, compare, and search connectives.

Verbs, each one row of _VERBS (its command, help text and arguments),
from which _build_parser builds every subparser in one loop:

* eval EXPR [--at x y ...]: value(s) at points, or a grid dump without --at.
* axioms EXPR [--set SET]: axiom report for a connective, against a set
  of conjunctors._CONNECTIVE_SETS (default: the set of its role).
* props EXPR [--prop LIST] [--negation NEG]: property reports for an
  implication; a name is a report id (L-CP), in any case, hyphens optional.
* compare EXPR1 EXPR2: sup deviation over the sampled pairs.
* table2: yes/no property matrix over the five built-in implication
  instances (one per implication class), as text, JSON, or CSV.
* search TEMPLATE --prop P --range LO HI [--steps N]: substitute N >= 1
  evenly spaced values from the finite range [LO, HI] into a {} placeholder
  and report the first property violation.
* catalog: list every named constructor and its grammar.

props and table2 scan through properties.check_properties, one
implication at a time, so all the meshes of its rows are walked in one
walk; search scans through properties.check_property. Every --prop name is resolved
before the first scan. `eval --at` leaves a
wrong coordinate count to the connective's own argument check. A negative
number is an argument, never an option string, in exponent notation and as
-inf or -nan too, so `--range -1e-3 2` and `--at -inf 0.5` reach the
program's own checks.

Each argv is parsed once: run() hands a well-formed one straight to its
verb's subparser. The top-level parser runs only for an unknown, missing
or abbreviated verb, a token the verb does not take, or a "--", and so
writes every usage error and help screen as before.

Expression grammar: one list of forms, _FORMS, which the parsers read and
`catalog` prints, one row per constructor with an example, its kind and a
note. A constructor is a bare name (zadeh), a name with a colon and
parameters (O_P:p=2, power:2), either of them (the named catalog entries),
or a call (gon(GO_max, zadeh)). Whitespace around commas is ignored, and a
key=value parameter may appear once per constructor.

Output: every verb returns one _Result, which holds a callable that
builds its JSON payload, called only for --format json, its CSV header
and rows, its text lines and whether the checked statement failed.
_emit writes it in the --format asked for, JSON as json.dumps of
numerics._plain(payload, 9), so a payload may hold report objects, and
run() alone turns `failed` into exit code 1 when --assert is given. Verbs
format their cells themselves, so the three formats show the same digits.
A grid dump's values stay one array, the payload's "values": the `dumps`
module renders them when they are written, in spans of at most 4096
values, with one array kernel for their 9 decimals in all three formats.

Exit codes: 0 success, 1 failed --assert, 2 parse/config error (including
an unknown, missing or repeated constructor parameter, and a NaN or
infinite search --range bound), 3 precondition
violation (including an out-of-range parameter value), 141 when the reader
of stdout closes it before the output ends. Floats print with 9
decimals; CSV is RFC 4180. Config resolution order: defaults, then --config
file (or the OVERLAPKIT_CONFIG environment variable), then individual flags.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import re
import sys
import warnings
from dataclasses import replace
from functools import lru_cache, partial
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from .aggregation import AGGREGATION_NAMES, OperatorFamily, aggregate, make_aggregation
from .conjunctors import (
    _CATALOG,
    _CONNECTIVE_SETS,
    FusionFunction,
    catalog,
    check_axioms,
    grouping_from,
    grouping_max,
    grouping_probsum,
    idempotent_go,
    overlap_from,
    piecewise_neutral_go,
    truncate_overlap,
)
from .dumps import _json, _table
from .implications import (
    Implication,
    make_crisp_family,
    make_d,
    make_gn,
    make_gon,
    make_ql,
    make_residual,
    make_tn,
)
from .negations import (
    Negation,
    classify,
    make_bottom,
    make_crisp,
    make_power_strict,
    make_standard,
    make_top,
)
from .numerics import (
    DEFAULT_CONFIG,
    MAX_GRID_POINTS,
    CheckConfig,
    ConfigError,
    OverlapkitError,
    PreconditionError,
    UnitRangeError,
    UnitValue,
    _tensor,
    load_config,
    uniform_grid,
)
from .properties import _PROPERTIES, PropertyReport, _property_id, check_properties, check_property, compare


class ParseError(OverlapkitError):
    """An expression or flag value could not be parsed (exit code 2)."""


def _fmt(value: float) -> str:
    return f"{float(value):.9f}"


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ParseError(f"expected a number, got {text!r}") from exc


# ---------------------------------------------------------------------------
# Expression parsing
# ---------------------------------------------------------------------------


def _split_top(text: str, sep: str) -> list[str]:
    parts, cur, depth = [], [], 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def _call_form(text: str) -> Optional[tuple[str, str]]:
    t = text.strip()
    if not t.endswith(")") or "(" not in t:
        return None
    head, _, rest = t.partition("(")
    head = head.strip()
    if not head.isidentifier():
        return None
    return head, rest[:-1]


def _kv_params(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    if not text.strip():
        return out
    for item in _split_top(text, ","):
        key, eq, raw = item.partition("=")
        if not eq:
            raise ParseError(f"expected key=value, got {item!r}")
        key = key.strip()
        if key in out:
            raise ParseError(f"duplicate parameter {key!r} in {text!r}")
        out[key] = _float(raw.strip())
    return out


class _Form(NamedTuple):
    """One constructor of the expression grammar, and its row in `catalog`.

    syntax is how its name is written: "name" alone, "name:REST", either of
    them ("name[:REST]") or "name(...)". build(name, rest, text, config)
    makes the object from rest, the text after the colon or inside the
    parentheses; text is the whole expression, for error messages.
    """

    example: str
    kind: str
    note: str
    syntax: str
    build: Callable[[str, str, str, CheckConfig], object]


def _keyed(make: Callable, *keys: str) -> Callable:
    """Builder of name:k=v,... taking exactly keys, passed to make by name."""
    wanted = f"exactly {','.join(k + '=VALUE' for k in keys)}" if keys else "no parameters"

    def build(name: str, rest: str, text: str, config: CheckConfig):
        params = _kv_params(rest)
        if set(params) != set(keys):
            raise ParseError(f"{name} takes {wanted}: {text!r}")
        return make(**params)

    return build


def _pair(make: Callable, last_kind: str, need: str, configured: bool = False) -> Callable:
    """Builder of name(CONNECTIVE, LAST), LAST parsed as last_kind; configured adds the config."""

    def build(name: str, rest: str, text: str, config: CheckConfig):
        parts = _split_top(rest, ",")
        if len(parts) < 2:
            raise ParseError(f"{name} needs {need}: {text!r}")
        args = (_parse(",".join(parts[:-1]), "connective", config), _parse(parts[-1], last_kind, config))
        return make(*args, config) if configured else make(*args)

    return build


def _trunc(name: str, rest: str, text: str, config: CheckConfig) -> FusionFunction:
    parts = _split_top(rest, ",")
    if len(parts) < 2 or not parts[-1].startswith("a="):
        raise ParseError(f"{name} needs an overlap and a=LEVEL: {text!r}")
    # No overlap's text ends in a=, so a second one repeats the level.
    if parts[-2].startswith("a="):
        raise ParseError(f"duplicate parameter 'a' in {rest!r}")
    return truncate_overlap(_parse(",".join(parts[:-1]), "connective", config), _float(parts[-1][2:]))


def _crisp(name: str, rest: str, text: str, config: CheckConfig) -> Implication:
    args = _split_top(rest, ",")
    if len(args) != 3:
        raise ParseError(f"{name} needs (KIND, alpha, beta): {text!r}")
    return make_crisp_family(args[0], _float(args[1]), _float(args[2]))


def _agg(name: str, rest: str, text: str, config: CheckConfig) -> Implication:
    segments = _split_top(rest, ";")
    if len(segments) != 2:
        raise ParseError(f"{name} needs '{name}(NAME; I1, I2, ...)': {text!r}")
    members = tuple(_parse(m, "implication", config) for m in _split_top(segments[1], ","))
    return aggregate(make_aggregation(segments[0], len(members)), OperatorFamily(members))


# Catalog entry parameter -> what its example and its note append.
_PARAM_SUFFIXES = {None: ("", ""), "p": (":p=2", ", needs p > 0"), "n": (":n=3", ", n-ary")}


def _catalog_form(name: str, note: str, param: Optional[str]) -> _Form:
    example_suffix, note_suffix = _PARAM_SUFFIXES[param]
    keys = () if param is None else (param,)
    return _Form(name + example_suffix, "connective", note + note_suffix, "name[:REST]",
                 _keyed(partial(catalog, name), *keys))


_FORMS = (
    *(_catalog_form(name, entry.note, entry.param) for name, entry in _CATALOG.items()),
    _Form("trunc:O_P:p=1,a=0.5", "connective", "truncation of an overlap at level a",
          "name:REST", _trunc),
    _Form("neutral_go:e=0.5", "connective", "piecewise connective with neutral element e",
          "name:REST", _keyed(piecewise_neutral_go, "e")),
    _Form("idem_go:p=1,q=2", "connective", "idempotent power-mean connective",
          "name:REST", _keyed(idempotent_go, "p", "q")),
    _Form("dualG(O_P:p=1, zadeh)", "connective", "negation dual, conjunctive to disjunctive",
          "name(...)", _pair(grouping_from, "negation", "a connective and a negation", configured=True)),
    _Form("dualO(max_grouping, zadeh)", "connective", "negation dual, disjunctive to conjunctive",
          "name(...)", _pair(overlap_from, "negation", "a connective and a negation", configured=True)),
    _Form("max_grouping", "connective", "maximum", "name", lambda *_: grouping_max()),
    _Form("prob_sum", "connective", "probabilistic sum", "name", lambda *_: grouping_probsum()),
    _Form(" | ".join(AGGREGATION_NAMES), "aggregation", "shipped aggregations",
          "name", lambda name, *_: make_aggregation(name, 2)),
    _Form("zadeh", "negation", "1 - x", "name", lambda *_: make_standard()),
    _Form("bottom", "negation", "indicator of x = 0", "name", lambda *_: make_bottom()),
    _Form("top", "negation", "indicator of x < 1", "name", lambda *_: make_top()),
    _Form("crisp_lower:0.5", "negation", "0 above the threshold, else 1",
          "name:REST", lambda name, rest, *_: make_crisp("lower", _float(rest))),
    _Form("crisp_upper:0.5", "negation", "0 at or above the threshold, else 1",
          "name:REST", lambda name, rest, *_: make_crisp("upper", _float(rest))),
    _Form("power:2", "negation", "1 - x^p, strict; strong only at p = 1",
          "name:REST", lambda name, rest, *_: make_power_strict(_float(rest))),
    _Form("gon(GO_max, zadeh)", "implication", "N(GO(x, N(y)))",
          "name(...)", _pair(make_gon, "negation", "two arguments")),
    _Form("gn(max_grouping, zadeh)", "implication", "G(N(x), y)",
          "name(...)", _pair(make_gn, "negation", "two arguments")),
    _Form("ql(O_min, max_grouping)", "implication", "G(0, O(1, y)) at x = 1, else 1",
          "name(...)", _pair(make_ql, "connective", "two arguments")),
    _Form("ro(O_P:p=1)", "implication", "sup{z : O(x, z) <= y} by bisection", "name(...)",
          lambda name, rest, text, config: make_residual(_parse(rest, "connective", config), config)),
    _Form("d(max_grouping)", "implication", "G(0, y) at x = 1, else 1", "name(...)",
          lambda name, rest, text, config: make_d(_parse(rest, "connective", config))),
    _Form("tn(O_min, zadeh)", "implication", "N(T(x, N(y)))",
          "name(...)", _pair(make_tn, "negation", "two arguments")),
    _Form("crisp(C3, 0.5, 0.5)", "implication", "two-valued threshold families C1..C4",
          "name(...)", _crisp),
    _Form("agg(mean; gon(GO_max, zadeh), gon(O_P:p=2, zadeh))", "implication", "aggregated family",
          "name(...)", _agg),
)

# The rows `catalog` prints.
_CATALOG_ROWS = [(form.example, form.kind, form.note) for form in _FORMS]

_HEAD = re.compile(r"\s*([A-Za-z_]\w*)")

# Constructor name -> (the parser it belongs to, its form). Aggregations
# are connectives to the parsers.
_GRAMMAR = {
    _HEAD.match(alternative).group(1): ({"aggregation": "connective"}.get(form.kind, form.kind), form)
    for form in _FORMS
    for alternative in form.example.split(" | ")
}

# Parser kind -> its noun in messages and, where the kind has call forms,
# the message for a call whose name is none of them.
_KINDS = {
    "implication": ("an implication", "unknown implication family {!r}"),
    "connective": ("a connective", "unknown connective constructor {!r}"),
    "negation": ("a negation", None),
}

# Syntaxes that match a name written without and with a colon.
_WORD_SYNTAX = {"": ("name", "name[:REST]"), ":": ("name:REST", "name[:REST]")}


def _parse(text: str, kind: str, config: CheckConfig = DEFAULT_CONFIG):
    """Parse text as an expression of kind: implication, connective or negation."""
    noun, unknown_call = _KINDS[kind]
    t = text.strip()
    call = _call_form(t) if unknown_call else None
    if call is not None:
        head, inner = call
        head_kind, form = _GRAMMAR.get(head, (None, None))
        if head_kind != kind or form.syntax != "name(...)":
            raise ParseError(unknown_call.format(head))
        return form.build(head, inner, text, config)
    name, colon, rest = t.partition(":")
    name_kind, form = _GRAMMAR.get(name, (None, None))
    if name_kind != kind or form.syntax not in _WORD_SYNTAX[colon]:
        raise ParseError(f"not {noun} expression: {text!r}")
    return form.build(name, rest, text, config)


def parse_negation(text: str) -> Negation:
    """Parse a negation expression from the grammar."""
    return _parse(text, "negation")


def parse_connective(text: str) -> FusionFunction:
    """Parse a connective expression from the grammar."""
    return _parse(text, "connective")


def parse_implication(text: str, config: CheckConfig = DEFAULT_CONFIG) -> Implication:
    """Parse an implication expression from the grammar."""
    return _parse(text, "implication", config)


def _head_kind(text: str) -> Optional[str]:
    """The parser of the expression's leading name: implication, connective or negation.

    None when the name is none of the grammar's constructors.
    """
    match = _HEAD.match(text)
    return _GRAMMAR.get(match.group(1) if match else "", (None, None))[0]


def _parse_any(text: str, config: CheckConfig):
    """Parse with the parser the expression's head names, so its error shows."""
    kind = _head_kind(text)
    if kind is None:
        raise ParseError(f"could not parse {text!r} as an implication, connective, or negation")
    return _parse(text, kind, config)


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


class _Result(NamedTuple):
    """What a verb produced, in every format, and whether its statement failed.

    payload() builds the JSON payload; _emit calls it only for --format
    json, so text and CSV never serialize a report. rows holds the CSV
    cells already formatted and may be a generator. csv_text, when given,
    stands for rows: the CSV lines after the header, already rendered,
    several to an item and without the item's last line end. An item of
    text may hold several lines.
    """

    payload: Callable[[], object]
    header: list
    rows: Iterable
    text: Iterable[str]
    failed: bool = False
    csv_text: Optional[Iterable[str]] = None


def _emit(result: _Result, fmt: str) -> None:
    """Write result to stdout as text, json or csv.

    JSON is json.dumps(numerics._plain(result.payload(), 9), indent=2): the
    reports as JSON data, every float rounded to 9 decimals, a grid dump's
    arrays rendered by dumps._json_array. A grid dump's text and CSV lines
    come rendered, a span of whole runs to an item (dumps._table): each
    item is one write, and its last line end another.
    """
    if fmt == "json":
        sys.stdout.writelines(_json(result.payload()))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(result.header)
        if result.csv_text is None:
            writer.writerows(result.rows)
        else:
            sys.stdout.writelines(chain.from_iterable((lines, "\r\n") for lines in result.csv_text))
    else:
        # An item and its line end are two writes, so a grid dump's span of lines is not copied to end it.
        sys.stdout.writelines(chain.from_iterable((line, "\n") for line in result.text))


def _yes(holds: bool) -> str:
    return "yes" if holds else "no"


def _report_row(report: PropertyReport) -> list:
    w = report.witness
    if w is None:
        cells = ["", "", "", ""]
    else:
        cells = [" ".join(map(_fmt, w.point)), _fmt(w.lhs), _fmt(w.rhs), _fmt(w.deviation)]
    return [report.property_id, report.status, *cells, report.samples_checked]


_PROPS_HEADER = ["property", "status", "witness", "lhs", "rhs", "deviation", "samples_checked"]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_eval(args, config: CheckConfig) -> _Result:
    obj = _parse_any(args.expression, config)
    arity = obj.arity
    if args.at:
        points = [tuple(float(UnitValue(v)) for v in raw) for raw in args.at]
        values = [float(obj(*p)) for p in points]
        return _Result(
            lambda: {"expression": obj.label, "points": points, "values": values},
            [f"x{i + 1}" for i in range(arity)] + ["value"],
            [[*map(_fmt, p), _fmt(v)] for p, v in zip(points, values)],
            [_fmt(v) for v in values],
        )
    if arity > 2:
        raise PreconditionError("grid dump supports arity <= 2; use --at for wider connectives")
    axis = uniform_grid(config)
    values = _tensor(obj, axis)
    # Rendered only in the format written, a span at a time.
    return _Result(
        lambda: {"expression": obj.label, "grid": axis.tolist(), "values": values},
        ["x", "y"][:arity] + ["value"],
        [],
        _table(axis, values, " ", "\n"),
        csv_text=_table(axis, values, ",", "\r\n"),
    )


# A connective's role -> the axiom set axioms checks when --set is not given.
_ROLE_TO_SET = {role: axiom_set for axiom_set, role in _CONNECTIVE_SETS.items()}


def _negation_axioms(negation: Negation, config: CheckConfig) -> _Result:
    cls = classify(negation, config)
    rows = [
        ["N1+N2", _yes(cls.is_negation), "fuzzy negation"],
        ["strict", _yes(cls.is_strict), "continuous and strictly decreasing"],
        ["strong", _yes(cls.is_strong), "involutive"],
        ["crisp", _yes(cls.is_crisp), "two-valued"],
        ["frontier", _yes(cls.is_frontier), "two-valued only at 0 and 1"],
    ]
    verdict = "PASS" if cls.is_negation else "FAIL"
    text = [f"{negation.label} [N] -> {verdict}"]
    text += [f"  {name:<9}{holds:<5}({note})" for name, holds, note in rows]

    def payload() -> dict:
        return {"label": negation.label, **cls.as_dict()}

    return _Result(payload, ["class", "holds", "note"], rows, text, not cls.is_negation)


def _cmd_axioms(args, config: CheckConfig) -> _Result:
    # A connective or implication head gets the connective parser and its
    # error; any other expression is read as a negation, whose parser then
    # reports what is wrong with it.
    if _head_kind(args.expression) in ("implication", "connective"):
        conn = _parse(args.expression, "connective", config)
    else:
        return _negation_axioms(parse_negation(args.expression), config)
    axiom_set = args.set or _ROLE_TO_SET.get(conn.role)
    if axiom_set is None:
        raise PreconditionError(
            f"{conn.label} has role {conn.role!r}; pick an axiom set with --set"
        )
    report = check_axioms(conn, axiom_set, config)
    rows = (
        [
            c.axiom,
            _yes(c.passed),
            "" if c.witness is None else " ".join(_fmt(v) for v in c.witness),
            _fmt(c.deviation),
            _yes(c.informational),
            c.note,
        ]
        for c in report.checks
    )
    header = ["axiom", "passed", "witness", "deviation", "informational", "note"]
    return _Result(lambda: report, header, rows, [report.summary()], not report.passed)


def _prop_id(name: str) -> str:
    """The report id of a --prop name, in any case and with hyphens anywhere; a ParseError if none."""
    try:
        return _property_id(name.strip().upper().replace("-", ""))
    except PreconditionError as exc:
        raise ParseError(str(exc)) from exc


def _cmd_props(args, config: CheckConfig) -> _Result:
    implication = parse_implication(args.expression, config)
    negation = parse_negation(args.negation)
    # Every name is resolved before the first scan runs.
    pids = list(_PROPERTIES) if args.prop.strip().lower() == "all" else [_prop_id(p) for p in args.prop.split(",")]
    reports = check_properties(implication, pids, negation, config)
    return _Result(
        lambda: reports,
        _PROPS_HEADER,
        (_report_row(r) for r in reports),
        (r.summary() for r in reports),
        not all(r.holds for r in reports),
    )


def _cmd_compare(args, config: CheckConfig) -> _Result:
    i1 = parse_implication(args.expression, config)
    i2 = parse_implication(args.expression2, config)
    result = compare(i1, i2, config)
    deviation, x, y, lhs, rhs = map(_fmt, (result.deviation, *result.at, result.lhs, result.rhs))
    return _Result(
        lambda: {"expression": i1.label, "expression2": i2.label, **result.as_dict()},
        ["deviation", "x", "y", "lhs", "rhs", "samples_checked"],
        [[deviation, x, y, lhs, rhs, result.samples_checked]],
        [f"deviation {deviation} at ({x}, {y}) lhs={lhs} rhs={rhs}"],
        result.deviation > config.eq_tol,
    )


TABLE2_PROPERTIES = ("EP", "NP", "ROP", "LOP", "CP", "L-CP", "R-CP")

# Expected yes/no entries for the built-in instance columns; None marks cells
# with no class-level expectation (reported per instance, never asserted).
TABLE2_EXPECTED = {
    "EP": ("yes", "no", "yes", "yes", "yes"),
    "NP": ("yes", "no", "no", "yes", "no"),
    "ROP": (None, None, "no", None, "no"),
    "LOP": (None, None, "yes", None, "yes"),
    "CP": ("yes", "no", "yes", "yes", "yes"),
    "L-CP": ("yes", "yes", "yes", "yes", "yes"),
    "R-CP": ("yes", "no", "yes", "yes", "yes"),
}


def table2_instances():
    """The five built-in instances, one per implication class column."""
    o_min = catalog("O_min")
    zadeh = make_standard()
    power2 = make_power_strict(2.0)
    crisp = make_crisp("upper", 0.5)
    return (
        (make_tn(o_min, zadeh), zadeh),
        (make_tn(o_min, power2), power2),
        (make_tn(o_min, crisp), crisp),
        (make_gon(o_min, zadeh), zadeh),
        (make_gon(o_min, crisp), crisp),
    )


def table2_matrix(config: CheckConfig = DEFAULT_CONFIG):
    """Compute the yes/no matrix: rows TABLE2_PROPERTIES, one column per instance."""
    instances = table2_instances()
    columns = [check_properties(impl, TABLE2_PROPERTIES, neg, config) for impl, neg in instances]
    rows = {prop: [_yes(column[k].holds) for column in columns] for k, prop in enumerate(TABLE2_PROPERTIES)}
    return [impl.label for impl, _ in instances], rows


def _cmd_table2(args, config: CheckConfig) -> _Result:
    columns, rows = table2_matrix(config)
    header = ["property"] + columns
    table = [[p] + rows[p] for p in TABLE2_PROPERTIES]
    width = max(len(c) for c in columns)
    text = [f"{p:<10}" + "".join(f"{c:>{width + 2}}" for c in cells) for p, *cells in [header] + table]
    failed = any(
        want is not None and got != want
        for prop, expected in TABLE2_EXPECTED.items()
        for got, want in zip(rows[prop], expected)
    )
    return _Result(lambda: {"columns": columns, "rows": rows}, header, table, text, failed)


def _cmd_search(args, config: CheckConfig) -> _Result:
    if "{}" not in args.template:
        raise ParseError("search template must contain a {} placeholder")
    if args.steps < 1:
        raise ParseError(f"--steps must be >= 1, got {args.steps}")
    if args.steps > MAX_GRID_POINTS:
        raise ParseError(f"--steps must be at most {MAX_GRID_POINTS}, got {args.steps}")
    lo, hi = args.range
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParseError(f"--range must be two finite numbers, got {lo:g} {hi:g}")
    negation = parse_negation(args.negation)
    pid = _prop_id(args.prop)
    header = ["expression"] + _PROPS_HEADER
    for value in np.linspace(lo, hi, args.steps):
        expr = args.template.replace("{}", f"{float(value):g}")
        report = check_property(parse_implication(expr, config), pid, negation, config)
        if not report.holds:
            row = [expr] + _report_row(report)
            text = [f"{expr}: {report.summary()}"]
            return _Result(lambda: {"expression": expr, **report.as_dict()}, header, [row], text, True)
    return _Result(lambda: None, header, [], [f"no {pid.replace('-', '')} violation found in [{lo:g}, {hi:g}]"])


def _cmd_catalog(args, config: CheckConfig) -> _Result:
    width = max(len(e) for e, _, _ in _CATALOG_ROWS)
    return _Result(
        lambda: [{"expression": e, "kind": k, "note": n} for e, k, n in _CATALOG_ROWS],
        ["expression", "kind", "note"],
        _CATALOG_ROWS,
        [f"{e:<{width}}  {k:<12} {n}" for e, k, n in _CATALOG_ROWS],
    )


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


# The flags that override one CheckConfig field each: (flag, dest, field, type, help).
_CONFIG_FLAGS = (
    ("--grid", "grid", "grid_resolution", int, "uniform grid resolution"),
    ("--samples", "samples", "random_samples", int, "number of seeded random samples"),
    ("--seed", "seed", "rng_seed", int, "random sample seed"),
    ("--tol", "tol", "eq_tol", float, "equality tolerance"),
    ("--bisect-tol", "bisect_tol", "bisect_tol", float, "bisection tolerance"),
)


# A negative number as float() reads it, in decimal or exponent notation, or -inf or -nan.
_NEGATIVE_NUMBER = re.compile(r"-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, taking every negative number _NEGATIVE_NUMBER matches for an argument.

    argparse's own pattern reads -0.5 as a number but -1e-3 and -inf as
    option strings, so those failed with a usage error before the
    program's own checks of --range and --at could name the value. argparse
    tries the pattern only on a token that names no option, so the common
    parse pays nothing for it. The subparsers are built with this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse keeps its pattern in this private attribute; checked on
        # CPython 3.11. Should a release rename it, -1e-3 and -inf would be
        # option strings again: the "argparse negatives" CI job runs the
        # tests of these tokens on the oldest and newest supported Pythons.
        self._negative_number_matcher = _NEGATIVE_NUMBER


# The arguments of two verbs each: (name, add_argument keywords).
_EXPRESSION = ("expression", {})
_NEGATION = ("--negation", dict(default="zadeh", help="negation for CP/LCP/RCP (default zadeh)"))

# Verb -> (its command, its help, its own arguments as (name, add_argument keywords)), in --help order.
_VERBS = {
    "eval": (_cmd_eval, "evaluate an expression", (
        _EXPRESSION,
        ("--at", dict(type=float, nargs="+", action="append",
                      help="evaluation point (repeatable); omit for a grid dump")),
    )),
    "axioms": (_cmd_axioms, "axiom report for a connective", (
        _EXPRESSION,
        ("--set", dict(choices=tuple(_CONNECTIVE_SETS), help="axiom set (default: from role)")),
    )),
    "props": (_cmd_props, "property reports for an implication", (
        _EXPRESSION,
        ("--prop", dict(default="all", help="comma list of properties, or 'all'")),
        _NEGATION,
    )),
    "compare": (_cmd_compare, "sup deviation of two implications", (_EXPRESSION, ("expression2", {}))),
    "table2": (_cmd_table2, "property matrix of the built-in instances", ()),
    "search": (_cmd_search, "scan a parameter range for a violation", (
        ("template", dict(help="implication expression with a {} placeholder")),
        ("--prop", dict(required=True, help="property to test at each step")),
        ("--range", dict(type=float, nargs=2, required=True, metavar=("LO", "HI"))),
        ("--steps", dict(type=int, default=11, help="number of values to try (>= 1)")),
        _NEGATION,
    )),
    "catalog": (_cmd_catalog, "list the expression grammar", ()),
}


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every verb, built once per process: parsing keeps no state between calls.

    The top-level parser's `verbs` maps each verb to its subparser, which
    run() parses a well-formed argv with alone (_parse_argv).
    """
    common = argparse.ArgumentParser(add_help=False)
    for flag, dest, _, kind, text in _CONFIG_FLAGS:
        common.add_argument(flag, dest=dest, type=kind, help=text)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text", help="output format")
    common.add_argument("--assert", dest="assert_", action="store_true",
                        help="exit 1 when the checked statement fails")
    common.add_argument("--config", help="config file path (fallback: OVERLAPKIT_CONFIG)")

    parser = _Parser(prog="overlapkit",
                     description="Evaluate and audit unit-interval connectives and implications.")
    sub = parser.add_subparsers(dest="verb", required=True)
    parser.verbs = {}
    for verb, (command, text, arguments) in _VERBS.items():
        p = parser.verbs[verb] = sub.add_parser(verb, parents=[common], help=text)
        p.set_defaults(command=command)
        for name, keywords in arguments:
            p.add_argument(name, **keywords)
    return parser


def _resolve_config(args) -> CheckConfig:
    config = DEFAULT_CONFIG
    path = args.config or os.environ.get("OVERLAPKIT_CONFIG")
    if path:
        config = load_config(path)
    overrides = {key: getattr(args, dest) for _, dest, key, *_ in _CONFIG_FLAGS if getattr(args, dest) is not None}
    return replace(config, **overrides) if overrides else config


def _parse_argv(argv: list[str]) -> argparse.Namespace:
    """The namespace of one argv, which argparse reads once when it is well formed.

    When argv[0] is a verb and no token is "--", the verb's subparser parses
    the rest: the top-level parser would only hand it every token after the
    verb. If no token is left over, that namespace, with `verb` set, is the
    top-level one. Otherwise (an unknown, missing or abbreviated verb, a
    token left over, or "--") the top-level parse_args runs as it would
    alone, so every usage error, help screen and exit code stays its own.
    """
    parser = _build_parser()
    verb = parser.verbs.get(argv[0]) if argv and "--" not in argv else None
    if verb is not None:
        args, rest = verb.parse_known_args(argv[1:])
        if not rest:
            args.verb = argv[0]
            return args
    return parser.parse_args(argv)


def run(argv: list[str]) -> int:
    """Parse and execute one command; returns the process exit code.

    A well-formed argv is parsed once, by its verb's subparser; the
    top-level parser runs only for an argv that subparser alone cannot take
    (see _parse_argv). Each warning raised prints on stderr as one line,
    "warning: <message>".
    """
    args = _parse_argv(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            result = args.command(args, _resolve_config(args))
            _emit(result, args.format)
        except BrokenPipeError:
            # The reader closed stdout: not a missing file, and main's to handle.
            raise
        except (ParseError, ConfigError, PreconditionError, UnitRangeError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2 if isinstance(exc, (ParseError, ConfigError)) else 3
    return 1 if result.failed and args.assert_ else 0


def main(argv: Optional[list[str]] = None) -> int:
    try:
        code = run(sys.argv[1:] if argv is None else list(argv))
        # Flushed here, so output still buffered meets a closed pipe below, not at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout closed it. As in the Python docs' note on SIGPIPE,
        # stdout goes to devnull so the flush at exit cannot raise again; the
        # exit code is a shell's for a process SIGPIPE ends, 128 + 13.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
