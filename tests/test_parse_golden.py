"""Golden CLI output for every expression the parsers are known to meet.

Each expression below goes through the verbs that parse it -- eval at a
pair and at a single point, axioms, props, compare, and props with it as the
--negation -- at --grid 11 --samples 5, and catalog runs in all three
formats. The exit code, stdout, stderr and the warning texts of every run
are pinned in parse_golden.json, so a change to the expression parsers must
keep every accepted expression, every label and every error message as it
was. Re-record only from a commit whose outputs are known good:

    PYTHONPATH=src python tests/test_parse_golden.py --record
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import warnings

import pytest

from overlapkit.cli import run

FIXTURE = os.path.join(os.path.dirname(__file__), "parse_golden.json")

GRID = ["--grid", "11", "--samples", "5"]

# The examples `catalog` lists.
CATALOG_EXAMPLES = (
    "O_mM",
    "O_DB",
    "O_P:p=2",
    "O_V",
    "O_min",
    "GO_max",
    "GO_TL:p=2",
    "GO_PN:n=3",
    "GO_GN:n=3",
    "trunc:O_P:p=1,a=0.5",
    "neutral_go:e=0.5",
    "idem_go:p=1,q=2",
    "dualG(O_P:p=1, zadeh)",
    "dualO(max_grouping, zadeh)",
    "max_grouping",
    "prob_sum",
    "mean",
    "min",
    "max",
    "product",
    "zadeh",
    "bottom",
    "top",
    "crisp_lower:0.5",
    "crisp_upper:0.5",
    "power:2",
    "gon(GO_max, zadeh)",
    "gn(max_grouping, zadeh)",
    "ql(O_min, max_grouping)",
    "ro(O_P:p=1)",
    "d(max_grouping)",
    "tn(O_min, zadeh)",
    "crisp(C3, 0.5, 0.5)",
    "agg(mean; gon(GO_max, zadeh), gon(O_P:p=2, zadeh))",
)

# String literals of tests/ and bench/workloads.py (and the expressions the
# workloads generate) whose leading name is a grammar constructor, fragments
# and templates included.
SUITE_EXPRESSIONS = (
    "O_P",
    "GO_TL",
    "GO_PN",
    "GO_GN",
    "gon(",
    "ro(",
    "ql(",
    "agg",
    "crisp_lower:0.3",
    "power:1.75",
    "gon(O_P:p=1.75, power:2)",
    "gon(O_min, crisp_upper:0.5)",
    "gn(prob_sum, power:1.5)",
    "ql(O_P:p=2, prob_sum)",
    "d(prob_sum)",
    "tn(O_min, power:2)",
    "ro(O_DB)",
    "agg(product; tn(O_min, zadeh), d(prob_sum), crisp(C2))",
    "trunc:O_P:p=1.75,a=0.5",
    "trunc:O_V,a=0.4",
    "neutral_go:e=0.37",
    "idem_go:p=0.7,q=2.3",
    "dualO(prob_sum, zadeh)",
    "agg(mean; GO_max, O_P:p=2)",
    "agg(min; GO_PN:n=3, GO_GN:n=3)",
    "crisp(",
    "crisp",
    "O_P:p=1,p=2",
    "idem_go:p=1,q=2,p=3",
    "O_P:p=",
    "GO_PN:n=",
    "crisp_upper:",
    "agg(",
    "gon(O_min, power:2)",
    "gon(O_P:p=1, zadeh)",
    "gn(dualG(O_P:p=1, zadeh), zadeh)",
    "tn(O_min, crisp_upper:0.5)",
    "gon(O_min, zadeh)",
    "gon(O_P:p={}, zadeh)",
    "gon(GO_TL:p={}, zadeh)",
    "gon(O_min)",
    "crisp_lower:x",
    "ro(O_min)",
    "crisp(C1, 0.5, 0.5)",
    "crisp(C2, 0.25, 0.75)",
    "crisp(C4, 0.3, 0.6)",
    "gon(O_min, crisp_lower:0.5)",
    "dualG",
    "O_P:p=1",
    "O_P:p=3",
    "dualO",
    "dualG(GO_max, zadeh)",
    "gn",
    "gon",
    "ql",
    "ro",
    "d",
    "tn",
    "power:",
    "agg(min; ro(O_P:p=",
    "gon(O_mM, zadeh)",
    "gn(dualG(O_mM, zadeh), zadeh)",
    "gon(dualO(prob_sum, zadeh), zadeh)",
    "gn(prob_sum, zadeh)",
    "GO_TL:p=",
    "trunc:O_P:p=",
    "neutral_go:e=",
    "idem_go:p=",
    "dualG(O_P:p=",
    "crisp_lower:",
    "ro(O_P:p={})",
    "tn(O_P:p={}, zadeh)",
    "ql(O_P:p=",
    "agg(mean; gon(GO_max, zadeh), gon(O_P:p=",
    "gon(O_P:p=",
    "gn(dualG(O_P:p=",
    "ro(O_mM)",
    "ro(O_V)",
    "crisp(C3, {}, ",
    "gon(GO_TL:p=",
    "ro(O_P:p=",
    "gon(O_min, crisp_upper:",
    "gn(max_grouping, power:",
    "crisp(C3, ",
    "ro(O_P:p=x",
    "ro(idem_go:p=",
    "ql(O_P:p=2, max_grouping)",
    "crisp(C3, 0.73, 0.43)",
    "gon(O_P:p=2, zadeh)",
    "gn(dualG(O_P:p=2, zadeh), zadeh)",
    "GO_TL:p=2.64",
    "trunc:O_P:p=2,a=0.47",
    "neutral_go:e=0.48",
    "idem_go:p=1.01,q=2.11",
    "dualG(O_P:p=2, zadeh)",
    "power:2.68",
    "crisp_lower:0.73",
    "ro(O_P:p=2.07)",
    "ro(O_P:p=2.05)",
    "ro(idem_go:p=1.06,q=1.96)",
    "agg(min; ro(O_P:p=2.07), ro(O_DB))",
    "crisp(C3, {}, 0.5)",
    "gon(GO_TL:p=2.68, zadeh)",
    "power:1.95",
    "neutral_go:e=0.54",
    "ro(O_P:p=2.11)",
    "O_P:p=2.11",
    "GO_TL:p=2.68",
    "gon(O_min, crisp_upper:0.53)",
    "crisp_upper:0.53",
    "gn(max_grouping, power:1.95)",
    "gon(GO_TL:p=2.68, zadeh",
    "O_P:p=2.11x",
    "crisp(C3, 0.5)",
    "ro(O_P:p=x2.11)",
)

EDGE_CASES = (
    "O_min:",
    "O_P",
    "O_min:p=2",
    "zadeh:1",
    "zadeh(1)",
    "O_P(1)",
    "mean:1",
    "trunc",
    "gon (O_min, zadeh)",
    "idem_go:p=1,q=f(2)",
    "ro(O_P:p=1, zadeh)",
    "GO_PN:n=1e20",
    "GO_PN:n=3.0",
)

EXPRESSIONS = tuple(dict.fromkeys(CATALOG_EXAMPLES + SUITE_EXPRESSIONS + EDGE_CASES))

# Arities whose axiom grid is too large to evaluate; tests/test_cli.py pins
# that they exit 3.
NO_AXIOMS = {"GO_PN:n=1e20"}


def _argvs() -> list[list[str]]:
    argvs = []
    for expr in EXPRESSIONS:
        argvs += [
            ["eval", expr, "--at", "0.5", "0.25"],
            ["eval", expr, "--at", "0.5"],
            ["props", expr, "--prop", "NP"],
            ["compare", expr, "gon(O_min, zadeh)"],
            ["props", "tn(O_min, zadeh)", "--prop", "CP", "--negation", expr],
        ]
        if expr not in NO_AXIOMS:
            argvs.append(["axioms", expr])
    argvs = [argv + GRID for argv in argvs]
    return argvs + [["catalog", "--format", fmt] for fmt in ("text", "json", "csv")]


ARGVS = _argvs()


def _key(argv: list[str]) -> str:
    return json.dumps(argv)


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(argv)
    return {
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "warnings": [str(w.message) for w in caught],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(a) for a in ARGVS)


def test_parse_golden(golden):
    mismatched = [argv for argv in ARGVS if _run(argv) != golden[_key(argv)]]
    assert mismatched == []


def _record() -> None:
    data = {_key(argv): _run(argv) for argv in ARGVS}
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(data)} cases in {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_parse_golden.py --record")
    _record()
