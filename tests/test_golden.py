"""Golden outputs at grid 21: reports, witnesses and CLI text, pinned exactly.

Every case below is rebuilt from scratch and compared with its recorded
value in golden_grid21.json: the full-precision as_dict() of property,
axiom, comparison and commutation reports, crisp fits, the roles and
warning texts of the dual constructions, and the stdout of the CLI verbs
in text, json and csv. A refactor of the scan machinery must reproduce all
of it bit for bit. Re-record only from a commit whose outputs are known
good; the recorder prints each key it adds, removes or changes:

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import warnings

import pytest

import overlapkit as ok
from overlapkit.cli import parse_connective, parse_implication, parse_negation, run, table2_instances

from conftest import CATALOG_ENTRIES, write_fixture

FIXTURE = os.path.join(os.path.dirname(__file__), "golden_grid21.json")

CFG = ok.CheckConfig(grid_resolution=21, random_samples=40)
GRID = ["--grid", "21", "--samples", "40"]
FORMATS = ("text", "json", "csv")

# One instance per implication family; tn(O_min, zadeh) is a table2 instance.
FAMILY_EXPRESSIONS = (
    "gon(GO_max, zadeh)",
    "gn(max_grouping, zadeh)",
    "ql(O_min, max_grouping)",
    "ro(O_min)",
    "d(max_grouping)",
    "crisp(C3, 0.5, 0.5)",
    "agg(mean; gon(GO_max, zadeh), gon(O_P:p=2, zadeh))",
)

# Catalog entries also checked against the t-norm axioms: one associative,
# one that fails associativity at once.
T_CHECKED = ("O_min", "GO_max")

CONSTRUCTIONS = (
    "trunc:O_P:p=1,a=0.5",
    "neutral_go:e=0.5",
    "idem_go:p=1,q=2",
    "dualG(O_P:p=1, zadeh)",
    "dualO(max_grouping, zadeh)",
    "max_grouping",
    "prob_sum",
)

DUALS = (
    ("dualG", "O_P:p=1", "zadeh"),
    ("dualG", "O_P:p=3", "zadeh"),
    ("dualG", "GO_max", "zadeh"),
    ("dualG", "O_min", "power:2"),
    ("dualO", "max_grouping", "zadeh"),
    ("dualO", "prob_sum", "power:2"),
    ("dualO", "O_min", "zadeh"),
    ("dualO", "GO_max", "zadeh"),
)

DUAL_POINTS = ((0.0, 0.0), (0.3, 0.6), (0.0, 0.7), (1.0, 0.2), (0.9, 0.95), (1.0, 1.0))

CRISP_EXPRESSIONS = (
    "crisp(C1, 0.5, 0.5)",
    "crisp(C2, 0.25, 0.75)",
    "crisp(C3, 0.5, 0.5)",
    "crisp(C4, 0.3, 0.6)",
    "tn(O_min, crisp_upper:0.5)",
    "gon(O_min, crisp_lower:0.5)",
    "gon(GO_max, zadeh)",
)

# User connectives and implications, evaluated point by point, that fail the
# axioms no catalog entry fails: each connective with the sets it is checked
# against, then implications failing I1-I5 between them.
USER_CONNECTIVES = (
    ("x*y^2", 2, lambda x, y: x * y * y, ("O", "G", "GO", "T")),  # fails O1, G1, GO1, T1
    ("|x-y|", 2, lambda x, y: abs(x - y), ("O", "G", "GO")),  # fails O4, G4, GO4
    ("step(x+y>1)", 2, lambda x, y: 1.0 if x + y > 1.0 else 0.0, ("O", "G", "GO")),  # fails O5, G5, GO5
    ("xyz/2", 3, lambda x, y, z: 0.5 * x * y * z, ("GO",)),  # fails GO3
)
USER_IMPLICATIONS = (
    ("proj", lambda x, y: x),  # fails I1, I3, I5
    ("1-x", lambda x, y: 1.0 - x),  # fails I4
    ("1-y", lambda x, y: 1.0 - y),  # fails I2, I4, I5
)

COMPARE_PAIRS = (
    ("gon(O_P:p=1, zadeh)", "gn(dualG(O_P:p=1, zadeh), zadeh)"),
    ("gon(GO_max, zadeh)", "tn(O_min, zadeh)"),
    ("crisp(C1, 0.5, 0.5)", "crisp(C3, 0.5, 0.5)"),
)

CLI_COMMANDS = (
    ["table2"],
    ["props", "gon(GO_max, zadeh)", "--prop", "all"],
    ["axioms", "GO_max"],
    ["axioms", "GO_max", "--set", "O"],
    ["axioms", "O_P:p=2"],
    ["axioms", "GO_PN:n=3"],
    ["axioms", "prob_sum"],
    ["axioms", "dualG(GO_max, zadeh)", "--set", "G"],
    ["axioms", "power:2"],
    ["compare", "gon(GO_max, zadeh)", "tn(O_min, zadeh)"],
)


def _catalog_label(name: str, params: dict) -> str:
    return name + "".join(f":{k}={v}" for k, v in params.items())


def _properties(implication, negation) -> dict:
    out = {}
    for prop in ok.properties.UNARY_PROPERTIES:
        out[prop] = ok.check_unary_property(implication, prop, CFG).as_dict()
    for variant in ok.properties.EP_VARIANTS:
        out[variant] = ok.check_ep(implication, variant, CFG).as_dict()
    for variant in ok.properties.CP_VARIANTS:
        out[variant] = ok.check_contraposition(implication, negation, variant, CFG).as_dict()
    return out


def _axiom_sets(f, sets) -> dict:
    return {s: ok.check_axioms(f, s, CFG).as_dict() for s in sets}


def _dual(kind: str, conn: str, neg: str) -> dict:
    build = ok.grouping_from if kind == "dualG" else ok.overlap_from
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        f = build(parse_connective(conn), parse_negation(neg), CFG)
    return {
        "label": f.label,
        "role": f.role,
        "params": [list(p) for p in f.params],
        "values": [float(f(x, y)) for x, y in DUAL_POINTS],
        "warnings": [
            [w.category.__name__, str(w.message), os.path.basename(w.filename)] for w in caught
        ],
    }


def _cli(argv) -> list:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = run(argv)
    return [code, buf.getvalue()]


def _cases() -> dict:
    """Case name -> zero-argument function computing its JSON-ready value."""
    zadeh = ok.make_standard()
    cases = {}
    for expr in FAMILY_EXPRESSIONS:
        cases[f"props/{expr}"] = lambda e=expr: _properties(parse_implication(e, CFG), zadeh)
        cases[f"implication_axioms/{expr}"] = lambda e=expr: ok.check_implication_axioms(
            parse_implication(e, CFG), CFG
        ).as_dict()
    for impl, neg in table2_instances():
        cases[f"props/{impl.label} ~ {neg.label}"] = lambda i=impl, n=neg: _properties(i, n)
        cases[f"implication_axioms/{impl.label}"] = lambda i=impl: ok.check_implication_axioms(
            i, CFG
        ).as_dict()
    for name, params in CATALOG_ENTRIES:
        f = ok.catalog(name, **params)
        sets = ("O", "G", "GO") if f.arity == 2 else ("GO",)
        if name in T_CHECKED:
            sets += ("T",)
        cases[f"axioms/{_catalog_label(name, params)}"] = lambda f=f, s=sets: _axiom_sets(f, s)
    for expr in CONSTRUCTIONS:
        cases[f"axioms/{expr}"] = lambda e=expr: _axiom_sets(
            _quiet(parse_connective, e), ("O", "G", "GO")
        )
    for label, arity, fn, sets in USER_CONNECTIVES:
        f = ok.FusionFunction(fn=fn, arity=arity, role="aggregation", label=label)
        cases[f"axioms/{label}"] = lambda f=f, s=sets: _axiom_sets(f, s)
    for label, fn in USER_IMPLICATIONS:
        i = ok.Implication(fn=fn, label=label, family="gon")
        cases[f"implication_axioms/{label}"] = lambda i=i: ok.check_implication_axioms(i, CFG).as_dict()
    for kind, conn, neg in DUALS:
        cases[f"dual/{kind}({conn}, {neg})"] = lambda k=kind, c=conn, n=neg: _dual(k, c, n)
    cases["dual/negations.dual(O_P:p=2, power:2)"] = lambda: _plain_dual()
    for lhs, rhs in COMPARE_PAIRS:
        cases[f"compare/{lhs} | {rhs}"] = lambda a=lhs, b=rhs: ok.compare(
            parse_implication(a, CFG), parse_implication(b, CFG), CFG
        ).as_dict()
    for agg in ("mean", "product"):
        cases[f"commutes/{agg}"] = lambda a=agg: ok.check_commutes(
            ok.make_aggregation(a, 2),
            ok.OperatorFamily((ok.catalog("GO_max"), ok.catalog("O_P", p=2))),
            zadeh,
            CFG,
        ).as_dict()
    for expr in CRISP_EXPRESSIONS:
        cases[f"classify_crisp/{expr}"] = lambda e=expr: _crisp_fit(e)
    for argv in CLI_COMMANDS:
        for fmt in FORMATS:
            full = argv + GRID + ["--format", fmt]
            cases["cli/" + " ".join(full)] = lambda a=full: _cli(a)
    return cases


def _quiet(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args)


def _plain_dual() -> dict:
    f = ok.dual(ok.catalog("O_P", p=2), ok.make_power_strict(2))
    return {
        "label": f.label,
        "role": f.role,
        "arity": f.arity,
        "values": [float(f(x, y)) for x, y in DUAL_POINTS],
    }


def _crisp_fit(expr: str):
    fit = ok.classify_crisp(parse_implication(expr, CFG), CFG)
    return None if fit is None else list(fit)


def _normalize(value):
    return json.loads(json.dumps(value))


CASES = _cases()


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, golden):
    assert _normalize(CASES[name]()) == golden[name]


def _record() -> None:
    data = {name: _normalize(fn()) for name, fn in sorted(CASES.items())}
    write_fixture(FIXTURE, data)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    _record()
