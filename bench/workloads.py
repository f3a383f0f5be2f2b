"""Operation lists of the three benchmark workloads.

A workload is a fixed list of operations. The seed only picks parameter
values (p, e, a, crisp thresholds), search ranges and ``--at`` points; the
program sees nothing but the expressions and arguments that result. Seeds
map onto ``VARIANTS`` input sets (``seed % VARIANTS``) so that golden.json can
hold the expected output of every seed the benchmark accepts.

Every operation is either an in-process ``overlapkit.cli.run(argv)`` call
(``Op.argv``) or a call into the public library API (``Op.call``, which gets
the imported ``overlapkit`` package and returns the object to digest).

Why each workload exists:

* audit -- the CLI verbs and checkers at the default grid of 101. Most scans
  cover the whole mesh and hold, so the time goes into closed-form scalar
  evaluation (implications, conjunctors, negations) and the loops of
  properties. Bisection hardly runs. Array-native evaluation should show here.
* residual -- residual implications, numeric inverses and neutral-element
  search at grid 101. Almost all evaluations go through fixed-count bisection
  and the per-instance inverse cache, whose keys repeat across grid rows.
* sweep -- many short operations at --grid 21: parameter searches (some stop
  at their first step, some run every step), point queries for every family,
  small grid dumps, catalog, axioms and malformed expressions that must exit
  2. Time goes to CLI parsing, dispatch and formatting and to scans that stop
  at their first witness.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple, Optional

VARIANTS = 16

WORKLOADS = ("audit", "residual", "sweep")

# CheckConfig keyword arguments each workload runs at.
CONFIGS = {"audit": {}, "residual": {}, "sweep": {"grid_resolution": 21}}

# Family -> expression used wherever one instance per implication family is
# needed (point queries, evaluation probes).
FAMILY_EXPRESSIONS = {
    "gon": "gon(GO_max, zadeh)",
    "gn": "gn(max_grouping, zadeh)",
    "ql": "ql(O_min, max_grouping)",
    "ro": "ro(O_P:p=1)",
    "d": "d(max_grouping)",
    "tn": "tn(O_min, zadeh)",
    "crisp": "crisp(C3, 0.5, 0.5)",
    "agg": "agg(mean; gon(GO_max, zadeh), gon(O_P:p=2, zadeh))",
}


class Op(NamedTuple):
    """One benchmark operation: exactly one of argv and call is set."""

    name: str
    argv: Optional[list] = None
    call: Optional[Callable] = None


def _u(rng: random.Random, lo: float, hi: float, digits: int = 2) -> float:
    return round(rng.uniform(lo, hi), digits)


def _g(value: float) -> str:
    return f"{value:g}"


def _cli(name: str, *argv: str) -> Op:
    return Op(name=name, argv=list(argv))


def audit(rng: random.Random) -> list[Op]:
    # O_P exponents stay below 2.25: above it the dualG converse scan at grid
    # 101 downgrades the dual, and the duality compare would exit 3.
    p = rng.choice((1.25, 1.5, 1.75, 2.0))
    tl = _u(rng, 1.5, 3.0)
    a = _u(rng, 0.3, 0.7)
    e = _u(rng, 0.35, 0.85)
    iq = (_u(rng, 0.5, 1.5), _u(rng, 1.5, 3.0))
    npow = _u(rng, 1.5, 3.0)
    kind = rng.choice(("C1", "C2", "C3", "C4"))
    alpha, beta = _u(rng, 0.25, 0.75), _u(rng, 0.25, 0.75)

    instances = [
        ("tn(O_min, zadeh)", "zadeh"),
        ("tn(O_min, power:2)", "power:2"),
        ("tn(O_min, crisp_upper:0.5)", "crisp_upper:0.5"),
        ("gon(O_min, zadeh)", "zadeh"),
        ("gon(O_min, crisp_upper:0.5)", "crisp_upper:0.5"),
        ("gon(GO_max, zadeh)", "zadeh"),
        ("gn(max_grouping, zadeh)", "zadeh"),
        (f"ql(O_P:p={_g(p)}, max_grouping)", "zadeh"),
        ("d(max_grouping)", "zadeh"),
        (f"crisp({kind}, {_g(alpha)}, {_g(beta)})", "zadeh"),
        (f"agg(mean; gon(GO_max, zadeh), gon(O_P:p={_g(p)}, zadeh))", "zadeh"),
    ]
    duality = [
        (f"gon(O_P:p={_g(p)}, zadeh)", f"gn(dualG(O_P:p={_g(p)}, zadeh), zadeh)"),
        ("gon(O_mM, zadeh)", "gn(dualG(O_mM, zadeh), zadeh)"),
        ("gon(dualO(prob_sum, zadeh), zadeh)", "gn(prob_sum, zadeh)"),
    ]
    connectives = [
        "O_mM",
        "O_DB",
        f"O_P:p={_g(p)}",
        "O_V",
        "O_min",
        "GO_max",
        f"GO_TL:p={_g(tl)}",
        "GO_PN:n=3",
        "GO_GN:n=3",
        f"trunc:O_P:p={_g(p)},a={_g(a)}",
        f"neutral_go:e={_g(e)}",
        f"idem_go:p={_g(iq[0])},q={_g(iq[1])}",
        f"dualG(O_P:p={_g(p)}, zadeh)",
        "dualO(prob_sum, zadeh)",
        "zadeh",
        f"power:{_g(npow)}",
        f"crisp_lower:{_g(alpha)}",
    ]

    ops = [_cli("table2", "table2", "--assert")]
    ops += [
        _cli(f"props {expr}", "props", expr, "--prop", "all", "--negation", neg)
        for expr, neg in instances
    ]
    ops += [_cli(f"compare {l}", "compare", l, r, "--assert") for l, r in duality]
    ops += [_cli(f"axioms {c}", "axioms", c) for c in connectives]
    ops += [
        Op(
            "check_commutes",
            call=lambda ok: ok.check_commutes(
                ok.make_aggregation("mean", 2),
                ok.OperatorFamily((ok.catalog("GO_max"), ok.catalog("O_P", p=p))),
                ok.make_standard(),
            ),
        ),
        Op(
            "range_is_proper",
            call=lambda ok: ok.range_is_proper(
                ok.make_gon(ok.catalog("GO_max"), ok.make_standard())
            ),
        ),
        Op(
            "classify_crisp",
            call=lambda ok: ok.classify_crisp(ok.make_crisp_family(kind, alpha, beta)),
        ),
    ]
    return ops


def _off_grid(value: float) -> float:
    # Keep a neutral element off the 101-point grid so find_neutral takes its
    # bisection fallback instead of matching a grid candidate.
    return value + 0.003 if round(value * 100, 6).is_integer() else value


def residual(rng: random.Random) -> list[Op]:
    # How much of a grid needs no bisection depends on the exponents (for
    # ro(O_P:p) it is 1/(p+1)), so they stay near 2 to keep the cost of each
    # operation the same from seed to seed (and p away from 1, where the NP
    # scan would hold and run the whole mesh).
    p = _u(rng, 1.9, 2.1)
    q = _u(rng, 1.9, 2.1)
    tl = _u(rng, 1.8, 2.2)
    gp = _u(rng, 1.8, 2.2)
    e1 = _off_grid(_u(rng, 0.3, 0.55, 3))
    e2 = _off_grid(_u(rng, 0.6, 0.85, 3))
    iq = (_u(rng, 0.9, 1.1), _u(rng, 1.9, 2.1))
    at = [str(_u(rng, 0.05, 0.95)) for _ in range(8)]
    power = f"power:{_g(gp)}"

    ops = [
        _cli(f"props {expr}", "props", expr, "--prop", "all")
        for expr in (f"ro(O_P:p={_g(p)})", "ro(O_min)", "ro(O_mM)", "ro(O_DB)")
    ]
    ops += [
        _cli(f"eval {expr}", "eval", expr)
        for expr in (
            f"ro(O_P:p={_g(q)})",
            "ro(O_V)",
            f"ro(idem_go:p={_g(iq[0])},q={_g(iq[1])})",
        )
    ]
    agg = f"agg(min; ro(O_P:p={_g(p)}), ro(O_DB))"
    ops.append(
        _cli(
            f"eval {agg}",
            "eval",
            agg,
            *[tok for k in range(0, 8, 2) for tok in ("--at", at[k], at[k + 1])],
        )
    )

    def recovered(ok):
        negation = ok.make_power_strict(gp)
        go = ok.catalog("GO_TL", p=tl)
        return go, ok.recover_go(ok.make_gon(go, negation), negation)

    ops += [
        Op(
            f"check_implication_axioms ro(O_P:p={_g(p)})",
            call=lambda ok: ok.check_implication_axioms(
                ok.make_residual(ok.catalog("O_P", p=p))
            ),
        ),
        Op(
            "check_implication_axioms ro(O_mM)",
            call=lambda ok: ok.check_implication_axioms(ok.make_residual(ok.catalog("O_mM"))),
        ),
        Op("compare recover_go", call=lambda ok: ok.compare(*recovered(ok))),
        Op(
            "check_axioms recover_go GO",
            call=lambda ok: ok.check_axioms(recovered(ok)[1], "GO"),
        ),
        Op(
            f"classify inverse {power}",
            call=lambda ok: ok.classify(ok.inverse_negation(ok.make_power_strict(gp))),
        ),
        Op(
            "classify inverse power:2",
            call=lambda ok: ok.classify(ok.inverse_negation(ok.make_power_strict(2.0))),
        ),
        Op(
            f"find_neutral e={e1:g}",
            call=lambda ok: ok.find_neutral(ok.piecewise_neutral_go(e1)),
        ),
        Op(
            f"find_neutral e={e2:g}",
            call=lambda ok: ok.find_neutral(ok.piecewise_neutral_go(e2)),
        ),
    ]
    return ops


def sweep(rng: random.Random) -> list[Op]:
    lo, hi = _u(rng, 1.1, 1.6), _u(rng, 2.4, 3.2)
    clo, chi = _u(rng, 0.2, 0.4), _u(rng, 0.6, 0.8)
    beta = _u(rng, 0.3, 0.7)
    p = _u(rng, 1.5, 3.0)
    tl = _u(rng, 1.5, 3.0)
    npow = _u(rng, 1.5, 3.0)
    e = _u(rng, 0.3, 0.8)
    a = _u(rng, 0.3, 0.7)
    rng_args = ("--range", _g(lo), _g(hi), "--steps", "5")

    searches = [
        # these stop at the first step: the property fails across the range
        ("gon(O_P:p={}, zadeh)", "EP", rng_args),
        ("ro(O_P:p={})", "NP", rng_args),
        ("gon(GO_TL:p={}, zadeh)", "EP1", rng_args),
        (f"crisp(C3, {{}}, {_g(beta)})", "LOP", ("--range", _g(clo), _g(chi), "--steps", "5")),
        # these run every step: the property holds across the range
        ("ro(O_P:p={})", "IP", rng_args),
        ("gon(GO_TL:p={}, zadeh)", "IP", rng_args),
        ("tn(O_P:p={}, zadeh)", "L-CP", rng_args),
        ("gon(O_P:p={}, zadeh)", "R-CP", rng_args),
    ]
    grid = ("--grid", "21")
    ops = [
        _cli(f"search {tpl} {prop}", "search", tpl, "--prop", prop, *extra, *grid)
        for tpl, prop, extra in searches
    ]
    for family, expr in FAMILY_EXPRESSIONS.items():
        at = [str(_u(rng, 0.0, 1.0)) for _ in range(6)]
        ops.append(
            _cli(
                f"eval --at {family}",
                "eval",
                expr,
                *[tok for k in range(0, 6, 2) for tok in ("--at", at[k], at[k + 1])],
                *grid,
            )
        )
    ops += [
        _cli("eval gon csv", "eval", f"gon(GO_TL:p={_g(tl)}, zadeh)", "--format", "csv", *grid),
        _cli("eval power json", "eval", f"power:{_g(npow)}", "--format", "json", *grid),
        _cli("eval neutral_go json", "eval", f"neutral_go:e={_g(e)}", "--format", "json", *grid),
        _cli("eval ro csv", "eval", f"ro(O_P:p={_g(p)})", "--format", "csv", *grid),
        _cli("catalog", "catalog"),
        _cli("catalog json", "catalog", "--format", "json"),
        _cli("axioms O_P", "axioms", f"O_P:p={_g(p)}", *grid),
        _cli("axioms GO_TL csv", "axioms", f"GO_TL:p={_g(tl)}", "--format", "csv", *grid),
        _cli("axioms power json", "axioms", f"power:{_g(npow)}", "--format", "json", *grid),
        _cli("axioms neutral_go", "axioms", f"neutral_go:e={_g(e)}", *grid),
        _cli(
            "props crisp negation",
            "props",
            f"gon(O_min, crisp_upper:{_g(a)})",
            "--prop",
            "LOP,ROP,IP",
            "--negation",
            f"crisp_upper:{_g(a)}",
            *grid,
        ),
        _cli(
            "props gn json",
            "props",
            f"gn(max_grouping, power:{_g(npow)})",
            "--prop",
            "NP,IP,LOP",
            "--format",
            "json",
            *grid,
        ),
    ]
    # Malformed input: each must exit 2 with no traceback.
    malformed = [
        ("eval", f"gon(GO_TL:p={_g(tl)}, zadeh", "--at", "0.1", "0.2"),
        ("props", f"foo(O_P:p={_g(p)})"),
        ("axioms", f"O_P:p={_g(p)}x"),
        ("eval", f"crisp(C3, {_g(beta)})", "--at", "0.1", "0.2"),
        ("compare", "gon(O_min, zadeh)", f"ro(O_P:p=x{_g(p)})"),
        ("props", "gon(O_min, zadeh)", "--prop", f"EP{_g(p)}"),
    ]
    ops += [_cli(f"malformed {k}", *argv, *grid) for k, argv in enumerate(malformed)]
    return ops


BUILDERS = {"audit": audit, "residual": residual, "sweep": sweep}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def build(workload: str, seed: int) -> list[Op]:
    """The operation list of one workload for one seed."""
    ops = BUILDERS[workload](random.Random(variant_of(seed)))
    names = [op.name for op in ops]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate operation names in {workload}")
    return ops
