"""Command-line surface: evaluate, audit, compare, and search connectives.

Verbs:

* eval EXPR [--at x y ...]: value(s) at points, or a grid dump without --at.
* axioms EXPR [--set O|G|GO|T]: axiom report for a connective.
* props EXPR [--prop LIST] [--negation NEG]: property reports for an
  implication.
* compare EXPR1 EXPR2: sup deviation over the sampled pairs.
* table2: yes/no property matrix over the five built-in implication
  instances (one per implication class), as text, JSON, or CSV.
* search TEMPLATE --prop P --range LO HI [--steps N]: substitute N >= 1
  evenly spaced values into a {} placeholder and report the first property
  violation.
* catalog: list every named constructor and its grammar.

Expression grammar (whitespace around commas is ignored):

  connectives   O_mM | O_DB | O_P:p=2 | O_V | O_min | GO_max | GO_TL:p=2 |
                GO_PN:n=3 | GO_GN:n=3 | trunc:O_P:p=1,a=0.5 |
                neutral_go:e=0.5 | idem_go:p=1,q=2 | max_grouping |
                prob_sum | dualG(GO, NEG) | dualO(G, NEG) |
                mean | min | max | product
  negations     zadeh | bottom | top | crisp_lower:0.5 | crisp_upper:0.5 |
                power:2
  implications  gon(GO, NEG) | gn(G, NEG) | ql(O, G) | ro(O) | d(G) |
                tn(T, NEG) | crisp(C3, 0.5, 0.5) | agg(mean; I1, I2)

Exit codes: 0 success, 1 failed --assert, 2 parse/config error,
3 precondition violation. Floats print with 9 decimals; CSV is RFC 4180.
Config resolution order: defaults, then --config file (or the
OVERLAPKIT_CONFIG environment variable), then individual flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from dataclasses import replace
from typing import Optional

import numpy as np

from .aggregation import AGGREGATION_NAMES, OperatorFamily, aggregate, make_aggregation
from .conjunctors import (
    CATALOG_NAMES,
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
    CheckConfig,
    ConfigError,
    OverlapkitError,
    PreconditionError,
    UnitRangeError,
    UnitValue,
    _mesh_values,
    _product_mesh,
    _value,
    load_config,
    uniform_grid,
)
from .properties import (
    CP_VARIANTS,
    EP_VARIANTS,
    UNARY_PROPERTIES,
    PropertyReport,
    check_contraposition,
    check_ep,
    check_unary_property,
    compare,
)


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


def parse_negation(text: str) -> Negation:
    """Parse a negation expression from the grammar."""
    t = text.strip()
    if t == "zadeh":
        return make_standard()
    if t == "bottom":
        return make_bottom()
    if t == "top":
        return make_top()
    for prefix, kind in (("crisp_lower:", "lower"), ("crisp_upper:", "upper")):
        if t.startswith(prefix):
            return make_crisp(kind, _float(t[len(prefix):]))
    if t.startswith("power:"):
        return make_power_strict(_float(t[len("power:"):]))
    raise ParseError(f"not a negation expression: {text!r}")


def parse_connective(text: str) -> FusionFunction:
    """Parse a connective expression from the grammar."""
    t = text.strip()
    call = _call_form(t)
    if call is not None:
        head, inner = call
        if head in ("dualG", "dualO"):
            parts = _split_top(inner, ",")
            if len(parts) < 2:
                raise ParseError(f"{head} needs a connective and a negation: {text!r}")
            conn = parse_connective(",".join(parts[:-1]))
            neg = parse_negation(parts[-1])
            return grouping_from(conn, neg) if head == "dualG" else overlap_from(conn, neg)
        raise ParseError(f"unknown connective constructor {head!r}")
    if t.startswith("trunc:"):
        parts = _split_top(t[len("trunc:"):], ",")
        if len(parts) < 2 or not parts[-1].startswith("a="):
            raise ParseError(f"trunc needs an overlap and a=LEVEL: {text!r}")
        return truncate_overlap(parse_connective(",".join(parts[:-1])), _float(parts[-1][2:]))
    if t.startswith("neutral_go:"):
        params = _kv_params(t[len("neutral_go:"):])
        if set(params) != {"e"}:
            raise ParseError(f"neutral_go takes exactly e=VALUE: {text!r}")
        return piecewise_neutral_go(params["e"])
    if t.startswith("idem_go:"):
        params = _kv_params(t[len("idem_go:"):])
        if set(params) != {"p", "q"}:
            raise ParseError(f"idem_go takes exactly p=VALUE,q=VALUE: {text!r}")
        return idempotent_go(params["p"], params["q"])
    if t == "max_grouping":
        return grouping_max()
    if t == "prob_sum":
        return grouping_probsum()
    if t in AGGREGATION_NAMES:
        return make_aggregation(t, 2)
    name, _, param_text = t.partition(":")
    if name in CATALOG_NAMES:
        return catalog(name, **_kv_params(param_text))
    raise ParseError(f"not a connective expression: {text!r}")


def parse_implication(text: str, config: CheckConfig = DEFAULT_CONFIG) -> Implication:
    """Parse an implication expression from the grammar."""
    call = _call_form(text)
    if call is None:
        raise ParseError(f"not an implication expression: {text!r}")
    head, inner = call
    if head == "agg":
        segments = _split_top(inner, ";")
        if len(segments) != 2:
            raise ParseError(f"agg needs 'agg(NAME; I1, I2, ...)': {text!r}")
        members = tuple(
            parse_implication(m, config) for m in _split_top(segments[1], ",")
        )
        return aggregate(make_aggregation(segments[0], len(members)), OperatorFamily(members))
    if head == "crisp":
        args = _split_top(inner, ",")
        if len(args) != 3:
            raise ParseError(f"crisp needs (KIND, alpha, beta): {text!r}")
        return make_crisp_family(args[0], _float(args[1]), _float(args[2]))
    if head in ("ro", "d"):
        conn = parse_connective(inner)
        return make_residual(conn, config) if head == "ro" else make_d(conn)
    builders = {
        "gon": (make_gon, parse_negation),
        "gn": (make_gn, parse_negation),
        "tn": (make_tn, parse_negation),
        "ql": (make_ql, parse_connective),
    }
    if head not in builders:
        raise ParseError(f"unknown implication family {head!r}")
    parts = _split_top(inner, ",")
    if len(parts) < 2:
        raise ParseError(f"{head} needs two arguments: {text!r}")
    make, parse_last = builders[head]
    return make(parse_connective(",".join(parts[:-1])), parse_last(parts[-1]))


_IMPLICATION_HEADS = {"gon", "gn", "ql", "ro", "d", "tn", "crisp", "agg"}
_NEGATION_HEADS = {"zadeh", "bottom", "top", "crisp_lower", "crisp_upper", "power"}
_CONNECTIVE_HEADS = {
    "dualG",
    "dualO",
    "trunc",
    "neutral_go",
    "idem_go",
    "max_grouping",
    "prob_sum",
    *AGGREGATION_NAMES,
    *CATALOG_NAMES,
}


def _head_kind(text: str) -> Optional[str]:
    """The kind of expression its leading name starts: implication, connective or negation.

    None when the name is none of the grammar's constructors.
    """
    match = re.match(r"\s*([A-Za-z_]\w*)", text)
    head = match.group(1) if match else ""
    for kind, heads in (
        ("implication", _IMPLICATION_HEADS),
        ("connective", _CONNECTIVE_HEADS),
        ("negation", _NEGATION_HEADS),
    ):
        if head in heads:
            return kind
    return None


def _parse_any(text: str, config: CheckConfig):
    """Parse with the parser the expression's head names, so its error shows."""
    kind = _head_kind(text)
    if kind == "implication":
        return parse_implication(text, config)
    if kind == "connective":
        return parse_connective(text)
    if kind == "negation":
        return parse_negation(text)
    raise ParseError(
        f"could not parse {text!r} as an implication, connective, or negation"
    )


def _arity_of(obj) -> int:
    if isinstance(obj, FusionFunction):
        return obj.arity
    if isinstance(obj, Implication):
        return 2
    return 1


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _emit_csv(rows: list[list]) -> None:
    writer = csv.writer(sys.stdout)
    for row in rows:
        writer.writerow(row)


def _round_floats(obj):
    if isinstance(obj, float):
        return round(obj, 9)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit_json(payload) -> None:
    print(json.dumps(_round_floats(payload), indent=2))


def _report_row(report: PropertyReport) -> list:
    w = report.witness
    return [
        report.property_id,
        report.status,
        "" if w is None else " ".join(_fmt(v) for v in w.point),
        "" if w is None else _fmt(w.lhs),
        "" if w is None else _fmt(w.rhs),
        "" if w is None else _fmt(w.deviation),
        report.samples_checked,
    ]


_PROPS_HEADER = ["property", "status", "witness", "lhs", "rhs", "deviation", "samples_checked"]


def _emit_property_reports(reports: list[PropertyReport], fmt: str) -> None:
    if fmt == "json":
        _emit_json([r.as_dict() for r in reports])
    elif fmt == "csv":
        _emit_csv([_PROPS_HEADER] + [_report_row(r) for r in reports])
    else:
        for r in reports:
            print(r.summary())


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_eval(args, config: CheckConfig) -> int:
    obj = _parse_any(args.expression, config)
    arity = _arity_of(obj)
    if args.at:
        points = []
        for raw in args.at:
            if len(raw) != arity:
                raise PreconditionError(
                    f"{obj.label} takes {arity} coordinates, got {len(raw)}"
                )
            points.append(tuple(float(UnitValue(v)) for v in raw))
        values = [float(obj(*p)) for p in points]
        if args.format == "json":
            _emit_json({"expression": obj.label, "points": points, "values": values})
        elif args.format == "csv":
            header = [f"x{i + 1}" for i in range(arity)] + ["value"]
            rows = [list(map(_fmt, p)) + [_fmt(v)] for p, v in zip(points, values)]
            _emit_csv([header] + rows)
        else:
            for v in values:
                print(_fmt(v))
        return 0
    if arity > 2:
        raise PreconditionError("grid dump supports arity <= 2; use --at for wider connectives")
    axis = uniform_grid(config)
    grid = axis.tolist()
    (flat,) = _mesh_values(_product_mesh(axis, arity), lambda *p: (_value(obj, *p),))
    if arity == 1:
        values = flat.tolist()
        if args.format == "json":
            _emit_json({"expression": obj.label, "grid": grid, "values": values})
        elif args.format == "csv":
            _emit_csv([["x", "value"]] + [[_fmt(g), _fmt(v)] for g, v in zip(grid, values)])
        else:
            for g, v in zip(grid, values):
                print(f"{_fmt(g)} {_fmt(v)}")
        return 0
    matrix = flat.reshape(len(grid), len(grid)).tolist()
    if args.format == "json":
        _emit_json({"expression": obj.label, "grid": grid, "values": matrix})
    elif args.format == "csv":
        rows = [["x", "y", "value"]]
        for x, row in zip(grid, matrix):
            rows.extend([_fmt(x), _fmt(y), _fmt(v)] for y, v in zip(grid, row))
        _emit_csv(rows)
    else:
        for x, row in zip(grid, matrix):
            for y, v in zip(grid, row):
                print(f"{_fmt(x)} {_fmt(y)} {_fmt(v)}")
    return 0


_ROLE_TO_SET = {
    "overlap": "O",
    "grouping": "G",
    "general_overlap": "GO",
    "t_norm": "T",
}


def _negation_axioms(negation: Negation, args, config: CheckConfig) -> int:
    cls = classify(negation, config)
    rows = [
        ("N1+N2", cls.is_negation, "fuzzy negation"),
        ("strict", cls.is_strict, "continuous and strictly decreasing"),
        ("strong", cls.is_strong, "involutive"),
        ("crisp", cls.is_crisp, "two-valued"),
        ("frontier", cls.is_frontier, "two-valued only at 0 and 1"),
    ]
    if args.format == "json":
        _emit_json({"label": negation.label, **cls.as_dict()})
    elif args.format == "csv":
        table = [["class", "holds", "note"]]
        table += [[name, "yes" if holds else "no", note] for name, holds, note in rows]
        _emit_csv(table)
    else:
        verdict = "PASS" if cls.is_negation else "FAIL"
        print(f"{negation.label} [N] -> {verdict}")
        for name, holds, note in rows:
            print(f"  {name:<9}{'yes' if holds else 'no':<5}({note})")
    return 0 if (cls.is_negation or not args.assert_) else 1


def _cmd_axioms(args, config: CheckConfig) -> int:
    # A connective or implication head gets the connective parser and its
    # error; any other expression is read as a negation, whose parser then
    # reports what is wrong with it.
    if _head_kind(args.expression) in ("implication", "connective"):
        conn = parse_connective(args.expression)
    else:
        return _negation_axioms(parse_negation(args.expression), args, config)
    axiom_set = args.set or _ROLE_TO_SET.get(conn.role)
    if axiom_set is None:
        raise PreconditionError(
            f"{conn.label} has role {conn.role!r}; pick an axiom set with --set"
        )
    report = check_axioms(conn, axiom_set, config)
    if args.format == "json":
        _emit_json(report.as_dict())
    elif args.format == "csv":
        rows = [["axiom", "passed", "witness", "deviation", "informational", "note"]]
        for c in report.checks:
            rows.append(
                [
                    c.axiom,
                    "yes" if c.passed else "no",
                    "" if c.witness is None else " ".join(_fmt(v) for v in c.witness),
                    _fmt(c.deviation),
                    "yes" if c.informational else "no",
                    c.note,
                ]
            )
        _emit_csv(rows)
    else:
        print(report.summary())
    return 0 if (report.passed or not args.assert_) else 1


def _normalize_prop(name: str) -> str:
    return name.strip().upper().replace("-", "")


_ALL_PROPS = list(UNARY_PROPERTIES) + list(EP_VARIANTS) + list(CP_VARIANTS)


def _run_property(
    implication: Implication,
    prop: str,
    negation: Negation,
    config: CheckConfig,
) -> PropertyReport:
    if prop in UNARY_PROPERTIES:
        return check_unary_property(implication, prop, config)
    if prop in EP_VARIANTS:
        return check_ep(implication, prop, config)
    if prop in CP_VARIANTS:
        return check_contraposition(implication, negation, prop, config)
    raise ParseError(f"unknown property {prop!r} (want one of {_ALL_PROPS})")


def _cmd_props(args, config: CheckConfig) -> int:
    implication = parse_implication(args.expression, config)
    negation = parse_negation(args.negation)
    if args.prop.strip().lower() == "all":
        props = _ALL_PROPS
    else:
        props = [_normalize_prop(p) for p in args.prop.split(",")]
    reports = [_run_property(implication, p, negation, config) for p in props]
    _emit_property_reports(reports, args.format)
    failed = [r for r in reports if not r.holds]
    return 1 if (failed and args.assert_) else 0


def _cmd_compare(args, config: CheckConfig) -> int:
    i1 = parse_implication(args.expression, config)
    i2 = parse_implication(args.expression2, config)
    result = compare(i1, i2, config)
    if args.format == "json":
        _emit_json({"lhs": i1.label, "rhs": i2.label, **result.as_dict()})
    elif args.format == "csv":
        _emit_csv(
            [
                ["deviation", "x", "y", "lhs", "rhs", "samples_checked"],
                [
                    _fmt(result.deviation),
                    _fmt(result.at[0]),
                    _fmt(result.at[1]),
                    _fmt(result.lhs),
                    _fmt(result.rhs),
                    result.samples_checked,
                ],
            ]
        )
    else:
        print(
            f"deviation {_fmt(result.deviation)} at ({_fmt(result.at[0])}, {_fmt(result.at[1])}) "
            f"lhs={_fmt(result.lhs)} rhs={_fmt(result.rhs)}"
        )
    return 1 if (args.assert_ and result.deviation > config.eq_tol) else 0


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


def table2_instances(config: CheckConfig = DEFAULT_CONFIG):
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
    instances = table2_instances(config)
    columns = [impl.label for impl, _ in instances]
    rows = {}
    for prop in TABLE2_PROPERTIES:
        cells = []
        for impl, neg in instances:
            report = _run_property(impl, _normalize_prop(prop), neg, config)
            cells.append("yes" if report.holds else "no")
        rows[prop] = cells
    return columns, rows


def _cmd_table2(args, config: CheckConfig) -> int:
    columns, rows = table2_matrix(config)
    if args.format == "json":
        _emit_json({"columns": columns, "rows": rows})
    elif args.format == "csv":
        _emit_csv([["property"] + columns] + [[p] + rows[p] for p in TABLE2_PROPERTIES])
    else:
        width = max(len(c) for c in columns)
        print(f"{'property':<10}" + "".join(f"{c:>{width + 2}}" for c in columns))
        for p in TABLE2_PROPERTIES:
            print(f"{p:<10}" + "".join(f"{c:>{width + 2}}" for c in rows[p]))
    if args.assert_:
        for prop, expected in TABLE2_EXPECTED.items():
            for got, want in zip(rows[prop], expected):
                if want is not None and got != want:
                    return 1
    return 0


def _cmd_search(args, config: CheckConfig) -> int:
    if "{}" not in args.template:
        raise ParseError("search template must contain a {} placeholder")
    if args.steps < 1:
        raise ParseError(f"--steps must be >= 1, got {args.steps}")
    prop = _normalize_prop(args.prop)
    negation = parse_negation(args.negation)
    lo, hi = args.range
    found = None
    for value in np.linspace(lo, hi, args.steps):
        expr = args.template.replace("{}", f"{float(value):g}")
        implication = parse_implication(expr, config)
        report = _run_property(implication, prop, negation, config)
        if not report.holds:
            found = (expr, report)
            break
    if found is None:
        print(f"no {prop} violation found in [{args.range[0]:g}, {args.range[1]:g}]")
        return 0
    expr, report = found
    if args.format == "json":
        _emit_json({"expression": expr, **report.as_dict()})
    elif args.format == "csv":
        _emit_csv([["expression"] + _PROPS_HEADER] + [[expr] + _report_row(report)])
    else:
        print(f"{expr}: {report.summary()}")
    return 1 if args.assert_ else 0


_CATALOG_ROWS = [
    ("O_mM", "connective", "minimum times squared maximum"),
    ("O_DB", "connective", "doubled product over the sum"),
    ("O_P:p=2", "connective", "powered product, needs p > 0"),
    ("O_V", "connective", "bump above (0.5, 0.5), minimum elsewhere"),
    ("O_min", "connective", "minimum"),
    ("GO_max", "connective", "thresholded sum of squares"),
    ("GO_TL:p=2", "connective", "powered minimum times truncated sum, needs p > 0"),
    ("GO_PN:n=3", "connective", "product gated by coordinate sum, n-ary"),
    ("GO_GN:n=3", "connective", "geometric mean gated by coordinate sum, n-ary"),
    ("trunc:O_P:p=1,a=0.5", "connective", "truncation of an overlap at level a"),
    ("neutral_go:e=0.5", "connective", "piecewise connective with neutral element e"),
    ("idem_go:p=1,q=2", "connective", "idempotent power-mean connective"),
    ("dualG(O_P:p=1, zadeh)", "connective", "negation dual, conjunctive to disjunctive"),
    ("dualO(max_grouping, zadeh)", "connective", "negation dual, disjunctive to conjunctive"),
    ("max_grouping", "connective", "maximum"),
    ("prob_sum", "connective", "probabilistic sum"),
    ("mean | min | max | product", "aggregation", "shipped aggregations"),
    ("zadeh", "negation", "1 - x"),
    ("bottom", "negation", "indicator of x = 0"),
    ("top", "negation", "indicator of x < 1"),
    ("crisp_lower:0.5", "negation", "0 above the threshold, else 1"),
    ("crisp_upper:0.5", "negation", "0 at or above the threshold, else 1"),
    ("power:2", "negation", "1 - x^p, strict; strong only at p = 1"),
    ("gon(GO_max, zadeh)", "implication", "N(GO(x, N(y)))"),
    ("gn(max_grouping, zadeh)", "implication", "G(N(x), y)"),
    ("ql(O_min, max_grouping)", "implication", "G(0, O(1, y)) at x = 1, else 1"),
    ("ro(O_P:p=1)", "implication", "sup{z : O(x, z) <= y} by bisection"),
    ("d(max_grouping)", "implication", "G(0, y) at x = 1, else 1"),
    ("tn(O_min, zadeh)", "implication", "N(T(x, N(y)))"),
    ("crisp(C3, 0.5, 0.5)", "implication", "two-valued threshold families C1..C4"),
    ("agg(mean; gon(GO_max, zadeh), gon(O_P:p=2, zadeh))", "implication", "aggregated family"),
]


def _cmd_catalog(args, config: CheckConfig) -> int:
    if args.format == "json":
        _emit_json(
            [{"expression": e, "kind": k, "note": n} for e, k, n in _CATALOG_ROWS]
        )
    elif args.format == "csv":
        _emit_csv([["expression", "kind", "note"]] + [list(r) for r in _CATALOG_ROWS])
    else:
        width = max(len(e) for e, _, _ in _CATALOG_ROWS)
        for e, k, n in _CATALOG_ROWS:
            print(f"{e:<{width}}  {k:<12} {n}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--grid", type=int, help="uniform grid resolution")
    common.add_argument("--samples", type=int, help="number of seeded random samples")
    common.add_argument("--seed", type=int, help="random sample seed")
    common.add_argument("--tol", type=float, help="equality tolerance")
    common.add_argument("--bisect-tol", type=float, dest="bisect_tol", help="bisection tolerance")
    common.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", help="output format"
    )
    common.add_argument(
        "--assert",
        dest="assert_",
        action="store_true",
        help="exit 1 when the checked statement fails",
    )
    common.add_argument("--config", help="config file path (fallback: OVERLAPKIT_CONFIG)")

    parser = argparse.ArgumentParser(
        prog="overlapkit",
        description="Evaluate and audit unit-interval connectives and implications.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate an expression")
    p.add_argument("expression")
    p.add_argument(
        "--at",
        type=float,
        nargs="+",
        action="append",
        help="evaluation point (repeatable); omit for a grid dump",
    )

    p = sub.add_parser("axioms", parents=[common], help="axiom report for a connective")
    p.add_argument("expression")
    p.add_argument("--set", choices=("O", "G", "GO", "T"), help="axiom set (default: from role)")

    p = sub.add_parser("props", parents=[common], help="property reports for an implication")
    p.add_argument("expression")
    p.add_argument("--prop", default="all", help="comma list of properties, or 'all'")
    p.add_argument("--negation", default="zadeh", help="negation for CP/LCP/RCP (default zadeh)")

    p = sub.add_parser("compare", parents=[common], help="sup deviation of two implications")
    p.add_argument("expression")
    p.add_argument("expression2")

    sub.add_parser("table2", parents=[common], help="property matrix of the built-in instances")

    p = sub.add_parser("search", parents=[common], help="scan a parameter range for a violation")
    p.add_argument("template", help="implication expression with a {} placeholder")
    p.add_argument("--prop", required=True, help="property to test at each step")
    p.add_argument("--range", type=float, nargs=2, required=True, metavar=("LO", "HI"))
    p.add_argument("--steps", type=int, default=11, help="number of values to try (>= 1)")
    p.add_argument("--negation", default="zadeh", help="negation for CP/LCP/RCP (default zadeh)")

    sub.add_parser("catalog", parents=[common], help="list the expression grammar")
    return parser


def _resolve_config(args) -> CheckConfig:
    config = DEFAULT_CONFIG
    path = args.config or os.environ.get("OVERLAPKIT_CONFIG")
    if path:
        config = load_config(path)
    overrides = {}
    if args.grid is not None:
        overrides["grid_resolution"] = args.grid
    if args.samples is not None:
        overrides["random_samples"] = args.samples
    if args.seed is not None:
        overrides["rng_seed"] = args.seed
    if args.tol is not None:
        overrides["eq_tol"] = args.tol
    if args.bisect_tol is not None:
        overrides["bisect_tol"] = args.bisect_tol
    return replace(config, **overrides) if overrides else config


_COMMANDS = {
    "eval": _cmd_eval,
    "axioms": _cmd_axioms,
    "props": _cmd_props,
    "compare": _cmd_compare,
    "table2": _cmd_table2,
    "search": _cmd_search,
    "catalog": _cmd_catalog,
}


def run(argv: list[str]) -> int:
    """Parse and execute one command; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        return _COMMANDS[args.verb](args, config)
    except (ParseError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, UnitRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main(argv: Optional[list[str]] = None) -> int:
    return run(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
