"""Malformed expressions exit 2 with one error line, whatever the verb.

Each case takes one well-formed grammar example and breaks it once: drops
the closing parenthesis, turns a number into x, repeats a key=value,
replaces the leading name with an unknown one, or appends a comma. eval,
props and axioms must each exit 2, print nothing on stdout and one
`error:` line on stderr -- never a traceback or another exit code. The
examples and tokens are fixed lists here, not read from the parser's own
tables.
"""

from __future__ import annotations

import contextlib
import io
import re
import warnings

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from overlapkit.cli import run

EXAMPLES = (
    "O_mM",
    "O_P:p=2",
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
    "product",
    "zadeh",
    "top",
    "crisp_lower:0.5",
    "crisp_upper:0.5",
    "power:2",
    "gon(GO_max, zadeh)",
    "gn(max_grouping, zadeh)",
    "ql(O_min, max_grouping)",
    "ro(O_P:p=1)",
    "d(max_grouping)",
    "tn(O_min, power:2)",
    "crisp(C3, 0.5, 0.5)",
    "agg(mean; gon(GO_max, zadeh), gon(O_P:p=2, zadeh))",
)

UNKNOWN_NAMES = ("foo", "O_Q", "negate", "gonn", "GO_XY", "dual")

NUMBER = re.compile(r"(?<![\w.])\d+(?:\.\d+)?")
PAIR = re.compile(r"[A-Za-z_]\w*=[^,;()\s]+")
NAME = re.compile(r"[A-Za-z_]\w*")

MUTATIONS = ("drop_paren", "number_to_x", "repeat_pair", "unknown_name", "trailing_comma")


def _mutate(expression: str, mutation: str, data) -> str:
    if mutation == "drop_paren":
        assume(")" in expression)
        k = expression.rindex(")")
        return expression[:k] + expression[k + 1 :]
    if mutation == "number_to_x":
        matches = list(NUMBER.finditer(expression))
        assume(matches)
        m = data.draw(st.sampled_from(matches))
        return expression[: m.start()] + "x" + expression[m.end() :]
    if mutation == "repeat_pair":
        matches = list(PAIR.finditer(expression))
        assume(matches)
        m = data.draw(st.sampled_from(matches))
        return expression[: m.end()] + "," + m.group() + expression[m.end() :]
    if mutation == "unknown_name":
        return data.draw(st.sampled_from(UNKNOWN_NAMES)) + expression[NAME.match(expression).end() :]
    return expression + ","


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=250, deadline=None)
@given(
    expression=st.sampled_from(EXAMPLES),
    mutation=st.sampled_from(MUTATIONS),
    data=st.data(),
)
def test_malformed_expression_exits_2_with_one_error_line(expression, mutation, data):
    broken = _mutate(expression, mutation, data)
    for argv in (
        ["eval", broken, "--at", "0.5", "0.5"],
        ["props", broken, "--grid", "11"],
        ["axioms", broken, "--grid", "11"],
    ):
        code, out, err = _run(argv)
        assert (code, out) == (2, ""), (argv, err)
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
