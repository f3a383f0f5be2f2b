"""The blockwise array scan reports what the scalar scan reports, at grid 101.

The reference runs the same checkers with the mesh kernels swapped for their
scalar forms, defined here, in every module that imports them: a
first-witness loop over the points as Python floats for numerics._scan_rows,
each point's sides from the float walk of numerics._sides (every term
through __call__), and a point-by-point loop for numerics._mesh_values.
Every report -- verdict, witness, sides, deviation and samples_checked --
must be equal, for the ten properties and compare, on the five table2
instances plus one instance of each remaining family and one implication
that evaluates point by point. The golden test covers grid 21; this one
covers the default grid, where the array scan runs several blocks.

T2 (associativity), T3 and check_idempotent are compared with the scalar
loops they replaced, on catalog entries and constructions, and T2 makes two
calls of the connective per block: F(x, y) and F(y, z) joined, then the two
outer terms.

Two cases pin the error order: a connective that leaves [0, 1] only after
the first witness still reports that witness, and one that leaves it first
raises the UnitRangeError the scalar order meets first. A hypothesis test
draws connectives that leak on random regions, inside gon, tn and ro at
small random configs, and requires every property check, compare,
classify_crisp, check_associativity, check_axioms(f, "O") (its O2 lines)
and find_neutral to report, or raise, what the scalar reference does. EP
and EP1, which join their four evaluations into two calls on a mesh, and
CP, L-CP and R-CP, which join theirs into one negation call and one
implication call, are also checked against the sides written out point by
point, on connectives that leak in the second half of a joined call.
check_properties, which walks a shared mesh once for several rows, must
report, or raise, what check_property reports row by row, on the same leaky
connectives.
"""

from __future__ import annotations

import dataclasses
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import overlapkit as ok
from overlapkit import aggregation, cli, conjunctors, dumps, implications, negations, numerics, properties
from overlapkit.cli import parse_connective, parse_implication, table2_instances
from overlapkit.numerics import _min, _prod, _vectorized, _where

# One instance per family not already among the table2 instances (gon, tn).
FAMILY_EXPRESSIONS = (
    "gn(max_grouping, zadeh)",
    "ql(O_min, max_grouping)",
    "ro(O_P:p=1)",
    "d(max_grouping)",
    "crisp(C3, 0.5, 0.5)",
    "agg(mean; gon(GO_max, zadeh), gon(O_P:p=2, zadeh))",
)

INSTANCES = list(table2_instances()) + [(parse_implication(e), ok.make_standard()) for e in FAMILY_EXPRESSIONS]

# An implication rebuilt with dataclasses.replace loses the _vectorized mark,
# so its mesh evaluations go point by point through the call.
_QL = parse_implication("ql(O_min, max_grouping)")
INSTANCES.append(
    (dataclasses.replace(_QL, fn=lambda x, y: _QL.fn(x, y), label=f"{_QL.label} point by point"), ok.make_standard())
)


def _scan(points, sides, relation):
    """First-witness scan of one row point by point, sides(point) giving (lhs, rhs): (witness, count, worst)."""
    worst, count = 0.0, 0
    for point in points:
        count += 1
        lhs, rhs = sides(point)
        failed, deviation = relation(lhs, rhs)
        if deviation > worst:
            worst = deviation
        if failed:
            return (point, lhs, rhs, deviation), count, worst
    return None, count, worst


def _scalar_scan_rows(cols, rows, env):
    """numerics._scan_rows point by point: at each point the sides of the rows still walking, as floats.

    The sides come from the float walk of numerics._sides, which evaluates
    each term once through __call__, in the order the sides are written;
    a row leaves at its first failing point.
    """
    active = list(range(len(rows)))
    results = [(None, 0, 0.0)] * len(rows)
    for point in zip(*(c.tolist() for c in cols)):
        if not active:
            break
        values = iter(numerics._sides(numerics._plan(tuple(rows[r][0] for r in active)), env, *point))
        for r, lhs, rhs in zip(tuple(active), values, values):
            _, count, worst = results[r]
            failed, deviation = rows[r][1](lhs, rhs)
            witness = (point, lhs, rhs, float(deviation)) if failed else None
            results[r] = (witness, count + 1, max(worst, float(deviation)))
            if failed:
                active.remove(r)
    return results


def _scalar_mesh_values(cols, fn):
    rows = [fn(*p) for p in zip(*(c.tolist() for c in cols))]
    return tuple(np.array(col, dtype=float) for col in zip(*rows))


# Every module of the package but numerics, which defines the kernels.
MODULES = (aggregation, cli, conjunctors, dumps, implications, negations, properties)


def _use_scalar_kernels(patch) -> None:
    """Swap the scalar reference in for _scan_rows and _mesh_values in every module that imports them."""
    for module in MODULES:
        for name, kernel in (("_scan_rows", _scalar_scan_rows), ("_mesh_values", _scalar_mesh_values)):
            if hasattr(module, name):
                patch.setattr(module, name, kernel)


def test_every_scan_outside_numerics_is_swapped_for_the_reference():
    importers = {m.__name__.rpartition(".")[2] for m in MODULES if hasattr(m, "_scan_rows")}
    assert importers == {"aggregation", "conjunctors", "implications", "properties"}


@pytest.fixture
def scalar_kernels(monkeypatch):
    """Run the checkers on the scalar reference kernels while active."""
    return partial(_use_scalar_kernels, monkeypatch)


def _reports(implication, negation, other) -> list[dict]:
    out = [properties.check_unary_property(implication, p) for p in properties.UNARY_PROPERTIES]
    out += [properties.check_ep(implication, v) for v in properties.EP_VARIANTS]
    out += [properties.check_contraposition(implication, negation, v) for v in properties.CP_VARIANTS]
    out.append(properties.compare(implication, other))
    return [r.as_dict() for r in out]


@pytest.mark.parametrize("k", range(len(INSTANCES)), ids=[i.label for i, _ in INSTANCES])
def test_array_scan_matches_scalar_reference(k, scalar_kernels):
    implication, negation = INSTANCES[k]
    other = INSTANCES[(k + 1) % len(INSTANCES)][0]
    got = _reports(implication, negation, other)
    # The ten rows in one call, rows sharing a mesh walking it together over several blocks.
    together = properties.check_properties(implication, list(properties._PROPERTIES), negation)
    assert [r.as_dict() for r in together] == got[:-1]
    scalar_kernels()
    assert got == _reports(implication, negation, other)


def _leaky_min(cut: float) -> ok.FusionFunction:
    """min(x, y), except 1 + x wherever x > cut: it leaves [0, 1] there."""
    return ok.FusionFunction(
        fn=_vectorized(lambda x, y: _where(x > cut, 1.0 + x, _min(x, y))),
        arity=2,
        role="overlap",
        label=f"leaky_min:{cut:g}",
    )


def test_leak_after_the_first_witness_still_reports_the_witness(scalar_kernels):
    implication = ok.make_gon(_leaky_min(0.5), ok.make_standard())
    samples = ok.numerics.sorted_samples(ok.DEFAULT_CONFIG)
    # The first array block holds points past the leak, so it raises ...
    with pytest.raises(ok.UnitRangeError):
        implication.values(samples[: numerics.FIRST_BLOCK], samples[: numerics.FIRST_BLOCK])
    # ... and the scan still scans the clean prefix before the leak, which
    # fails IP at I(x, x) = 1 - x for a small x.
    got = properties.check_unary_property(implication, "IP")
    assert got.status == "fails" and got.witness.point[0] < 0.5
    scalar_kernels()
    assert got.as_dict() == properties.check_unary_property(implication, "IP").as_dict()


def test_leak_before_the_first_witness_raises_the_scalar_error(scalar_kernels):
    implication = ok.make_gon(_leaky_min(0.005), ok.make_standard())
    x, y = numerics._sample_mesh(ok.DEFAULT_CONFIG, 2)
    # A plain array pass evaluates the lhs I(x, y) over the whole first block
    # and meets its leak first, at (0.01, 0) ...
    with pytest.raises(ok.UnitRangeError, match="value 1.01 is not in"):
        implication.values(x[: numerics.FIRST_BLOCK], y[: numerics.FIRST_BLOCK])
    # ... while the scalar order meets the rhs I(N(0), N(0)) = N(C(1, 0)) at
    # the very first point, and that is the error the array scan raises.
    with pytest.raises(ok.UnitRangeError) as array_error:
        properties.check_contraposition(implication, ok.make_standard(), "CP")
    scalar_kernels()
    with pytest.raises(ok.UnitRangeError) as scalar_error:
        properties.check_contraposition(implication, ok.make_standard(), "CP")
    assert str(array_error.value) == str(scalar_error.value) == "value 2.0 is not in [0, 1]"


def _lukasiewicz_except(overrides: dict) -> ok.Implication:
    """min(1, 1 - a + b), which satisfies EP, except overrides[(a, b)] at each of its pairs."""

    def fn(a, b):
        v = _min(1.0, 1.0 - a + b)
        for (pa, pb), value in overrides.items():
            v = _where((a == pa) & (b == pb), value, v)
        return v

    return ok.Implication(fn=_vectorized(fn), label="lukasiewicz_except", family="gon")


def _scalar_ep(implication, variant: str, config) -> properties.PropertyReport:
    """EP or EP1 point by point with the sides written out: I(y, z), I(x, I(y, z)), I(x, z), I(y, I(x, z))."""
    row = properties._PROPERTIES[variant]

    def i(a, b):
        return float(implication(a, b))

    def sides(point):
        x, y, z = point
        return i(x, i(y, z)), i(y, i(x, z))

    witness, count, _ = _scan(properties.triple_points(config), sides, row.relation(config.eq_tol))
    return properties._report(variant, witness, count, row.note)


@pytest.mark.parametrize("vectorized", [True, False], ids=["arrays", "point_by_point"])
@pytest.mark.parametrize("variant", properties.EP_VARIANTS)
@pytest.mark.parametrize("case", ["leak", "witness_then_leak", "outer_leak_first"])
def test_ep_leaking_in_the_second_half_of_the_joined_call_matches_the_scalar_sides(case, variant, vectorized):
    # The overrides sit at the first two random triples, k and k + 1, whose
    # coordinates no grid point shares, so every point before k is clean.
    # At k + 1, I(y, z) = 1 and the leak is met at I(x, z), the second half
    # of the joined call I(y || x, z || z). "witness_then_leak" breaks EP and
    # EP1 at k, in the same block, by I(x, z) = 0 there; "outer_leak_first"
    # also leaks at I(x, I(y, z)) = I(x, 1), which the scalar sides meet first.
    config = ok.DEFAULT_CONFIG
    x, y, z = numerics._sample_mesh(config, 3)
    k = len(numerics._grid_mesh(config, 3)[0])
    assert min(1.0, 1.0 - y[k + 1] + z[k + 1]) == 1.0
    overrides = {(float(x[k + 1]), float(z[k + 1])): 2.0}
    if case == "witness_then_leak":
        overrides[(float(x[k]), float(z[k]))] = 0.0
    if case == "outer_leak_first":
        overrides[(float(x[k + 1]), 1.0)] = 3.0
    implication = _lukasiewicz_except(overrides)
    if not vectorized:
        implication = dataclasses.replace(implication, fn=lambda a, b, _f=implication.fn: _f(a, b))
    got = _outcome(partial(properties.check_property, implication, variant, config=config))
    assert got == _outcome(partial(_scalar_ep, implication, variant, config))
    if case == "witness_then_leak":
        assert (got["status"], got["samples_checked"]) == ("fails", k + 1)
    else:
        leaked = 3.0 if case == "outer_leak_first" else 2.0
        assert got == (ok.UnitRangeError, f"value {leaked!r} is not in [0, 1]")


def _standard_except(overrides: dict) -> ok.Negation:
    """1 - v, except overrides[v] at each of its points."""

    def fn(v):
        out = 1.0 - v
        for pv, value in overrides.items():
            out = _where(v == pv, value, out)
        return out

    return ok.Negation(fn=_vectorized(fn), label="standard_except")


# The contraposition sides written out point by point, in the order of the scalar scan.
_CP_SIDES = {
    "CP": lambda i, n, x, y: (i(x, y), i(n(y), n(x))),
    "L-CP": lambda i, n, x, y: (i(n(x), y), i(n(y), x)),
    "R-CP": lambda i, n, x, y: (i(x, n(y)), i(y, n(x))),
}

# Each side's arguments under the standard negation, from (x, y): (first side, second side).
_CP_ARGS = {
    "CP": (lambda x, y: (x, y), lambda x, y: (1.0 - y, 1.0 - x)),
    "L-CP": (lambda x, y: (1.0 - x, y), lambda x, y: (1.0 - y, x)),
    "R-CP": (lambda x, y: (x, 1.0 - y), lambda x, y: (y, 1.0 - x)),
}


def _scalar_cp(implication, negation, variant: str, config) -> properties.PropertyReport:
    row = properties._PROPERTIES[variant]

    def sides(point):
        return _CP_SIDES[variant](lambda a, b: float(implication(a, b)), lambda a: float(negation(a)), *point)

    witness, count, _ = _scan(properties.pair_points(config), sides, row.relation(config.eq_tol))
    return properties._report(variant, witness, count, row.note.format(negation))


@pytest.mark.parametrize("vectorized", [True, False], ids=["arrays", "point_by_point"])
@pytest.mark.parametrize("variant", properties.CP_VARIANTS)
@pytest.mark.parametrize("case", ["leak", "witness_then_leak", "scalar_order"])
def test_cp_leaking_in_the_second_half_of_a_joined_call_matches_the_scalar_sides(case, variant, vectorized):
    # The overrides sit at the first two random pairs, k and k + 1, whose
    # coordinates no grid point shares, so every point before k is clean.
    # "leak" leaks at k + 1 in the second side, the second half of the joined
    # I call. "witness_then_leak" also breaks the law at k, in the same
    # block. "scalar_order" leaks N at x and at y and I at (x, y), all at
    # k + 1: the joined N call on y || x meets N(y) first, the scalar sides
    # meet I(x, y) (CP), N(x) (L-CP) or N(y) (R-CP) first.
    config = ok.DEFAULT_CONFIG
    pid = properties._property_id(variant)
    x, y = (c.tolist() for c in numerics._sample_mesh(config, 2))
    k = len(numerics._grid_mesh(config, 2)[0])
    first, second = _CP_ARGS[pid]
    i_overrides, n_overrides = {}, {}
    if case == "scalar_order":
        i_overrides[(x[k + 1], y[k + 1])] = 3.0
        n_overrides = {x[k + 1]: 4.0, y[k + 1]: 5.0}
        leaked = {"CP": 3.0, "L-CP": 4.0, "R-CP": 5.0}[pid]
    else:
        i_overrides[second(x[k + 1], y[k + 1])] = 2.0
        leaked = 2.0
    if case == "witness_then_leak":
        i_overrides[first(x[k], y[k])] = 0.0
    implication, negation = _lukasiewicz_except(i_overrides), _standard_except(n_overrides)
    if not vectorized:
        implication = dataclasses.replace(implication, fn=lambda a, b, _f=implication.fn: _f(a, b))
        negation = dataclasses.replace(negation, fn=lambda a, _f=negation.fn: _f(a))
    got = _outcome(partial(properties.check_property, implication, variant, negation, config))
    assert got == _outcome(partial(_scalar_cp, implication, negation, pid, config))
    if case == "witness_then_leak":
        assert (got["status"], got["samples_checked"]) == ("fails", k + 1)
    else:
        assert got == (ok.UnitRangeError, f"value {leaked!r} is not in [0, 1]")


# What a leaky connective gives where it leaks: a value above 1 or NaN, as
# a float or a NumPy scalar (UnitRangeError), or, inside the range, a
# positive value at y = 0, which ro's bisection refuses (PreconditionError).
LEAKS = {
    "above": lambda x, y: 1.0 + x,
    "nan": lambda x, y: np.nan,
    "numpy": lambda x, y: np.float64(1.0) + x,
    "inside": lambda x, y: 0.5 + 0.5 * x,
}
FAMILIES = {
    "gon": lambda f, cfg: ok.make_gon(f, ok.make_standard()),
    "tn": lambda f, cfg: ok.make_tn(f, ok.make_standard()),
    "ro": lambda f, cfg: ok.make_residual(f, cfg),
}


def _outcome(run):
    """run()'s report as a dict (another result as it is), or the class and text of the library error it raises."""
    try:
        result = run()
    except ok.OverlapkitError as error:
        return type(error), str(error)
    return result.as_dict() if hasattr(result, "as_dict") else result


def _outcomes(f, implication, negation, other, config) -> list:
    runs = [
        partial(properties.check_property, implication, pid, negation, config) for pid in properties._PROPERTIES
    ]
    runs.append(partial(properties.compare, implication, other, config))
    runs.append(partial(ok.classify_crisp, implication, config))
    runs += [partial(check, f, config=config) for check in (ok.check_associativity, ok.find_neutral)]
    runs.append(partial(ok.check_axioms, f, "O", config))
    return [_outcome(run) for run in runs]


@settings(max_examples=30)
@given(
    cx=st.floats(0.0, 1.0),
    cy=st.floats(0.0, 1.0),
    leak=st.sampled_from(sorted(LEAKS)),
    base=st.sampled_from([_min, _prod]),
    vectorized=st.booleans(),
    family=st.sampled_from(sorted(FAMILIES)),
    config=st.builds(
        ok.CheckConfig,
        grid_resolution=st.integers(2, 30),
        random_samples=st.integers(0, 60),
        rng_seed=st.integers(0, 3),
        bisect_tol=st.sampled_from([1e-3, 1e-6]),
    ),
)
def test_leaky_checks_match_the_scalar_reference(cx, cy, leak, base, vectorized, family, config):
    # The connective leaks where x > cx and y >= cy, so a scan may meet a
    # witness or an error first, in any block.
    def fn(x, y, _leak=LEAKS[leak]):
        return _where((x > cx) & (y >= cy), _leak(x, y), base(x, y))

    f = ok.FusionFunction(fn=_vectorized(fn), arity=2, role="overlap", label=f"leaky:{cx!r},{cy!r}")
    if not vectorized:
        f = dataclasses.replace(f, fn=lambda x, y: fn(x, y))
    implication, negation = FAMILIES[family](f, config), ok.make_standard()
    other = ok.make_gon(ok.catalog("O_min"), negation)
    got = _outcomes(f, implication, negation, other, config)
    with pytest.MonkeyPatch.context() as patch:
        _use_scalar_kernels(patch)
        assert got == _outcomes(f, implication, negation, other, config)


def _batch_outcome(run):
    """run()'s reports as dicts, or the class and text of the library error it raises."""
    try:
        return [report.as_dict() for report in run()]
    except ok.OverlapkitError as error:
        return type(error), str(error)


# Every spelling check_property takes: the report ids and the ids without their hyphen.
SPELLINGS = sorted(set(properties._PROPERTIES) | set(properties._UNHYPHENATED))


@settings(max_examples=30)
@given(
    cx=st.floats(0.0, 1.0),
    cy=st.floats(0.0, 1.0),
    leak=st.sampled_from(sorted(LEAKS)),
    base=st.sampled_from([_min, _prod]),
    vectorized=st.booleans(),
    family=st.sampled_from(sorted(FAMILIES)),
    pids=st.lists(st.sampled_from(SPELLINGS), min_size=1, max_size=12),
    negated=st.booleans(),
    config=st.builds(
        ok.CheckConfig,
        grid_resolution=st.integers(2, 30),
        random_samples=st.integers(0, 60),
        rng_seed=st.integers(0, 3),
        bisect_tol=st.sampled_from([1e-3, 1e-6]),
    ),
)
def test_check_properties_reports_what_the_rows_one_by_one_report(
    cx, cy, leak, base, vectorized, family, pids, negated, config
):
    # The rows that share a mesh walk it together and leave at their first
    # witness; the connective leaks where x > cx and y >= cy, so a joined
    # block may meet an error that one row alone never reaches. A subset in
    # any order, with repeats and unhyphenated ids, and no negation for CP
    # rows half the time, must give the reports, or the library error, of
    # check_property called row by row.
    def fn(x, y, _leak=LEAKS[leak]):
        return _where((x > cx) & (y >= cy), _leak(x, y), base(x, y))

    f = ok.FusionFunction(fn=_vectorized(fn), arity=2, role="overlap", label=f"leaky:{cx!r},{cy!r}")
    if not vectorized:
        f = dataclasses.replace(f, fn=lambda x, y: fn(x, y))
    implication = FAMILIES[family](f, config)
    negation = ok.make_standard() if negated else None
    got = _batch_outcome(lambda: properties.check_properties(implication, pids, negation, config))
    one_by_one = _batch_outcome(lambda: [properties.check_property(implication, p, negation, config) for p in pids])
    assert got == one_by_one


def test_check_properties_raises_the_error_of_the_first_row_that_raises():
    # R-CP leaks at the first random pair and CP at a later one: the shared
    # walk meets R-CP's leak first, but one by one CP runs first and raises
    # its own, and that is what check_properties must raise.
    config = ok.DEFAULT_CONFIG
    x, y = (c.tolist() for c in numerics._sample_mesh(config, 2))
    k = len(numerics._grid_mesh(config, 2)[0])
    implication = _lukasiewicz_except({(x[k + 5], y[k + 5]): 2.0, (x[k], 1.0 - y[k]): 3.0})
    negation, rows = ok.make_standard(), ["CP", "R-CP"]
    one_by_one = _batch_outcome(lambda: [properties.check_property(implication, p, negation, config) for p in rows])
    assert one_by_one == (ok.UnitRangeError, "value 2.0 is not in [0, 1]")
    assert _batch_outcome(lambda: properties.check_properties(implication, rows, negation, config)) == one_by_one
    assert _batch_outcome(lambda: properties.check_properties(implication, rows[::-1], negation, config)) == (
        ok.UnitRangeError,
        "value 3.0 is not in [0, 1]",
    )


def test_check_properties_walks_a_shared_mesh_once():
    # CP, L-CP and R-CP on the pair mesh: one negation call and one
    # implication call per block, where one by one they take three of each.
    calls = {"negation": 0, "implication": 0}
    zadeh, gon = ok.make_standard(), ok.make_gon(ok.catalog("O_min"), ok.make_standard())

    def counted(obj, key):
        def fn(*xs, _fn=obj.fn):
            calls[key] += isinstance(xs[0], np.ndarray)
            return _fn(*xs)

        return dataclasses.replace(obj, fn=_vectorized(fn))

    implication, negation = counted(gon, "implication"), counted(zadeh, "negation")
    config = ok.CheckConfig(grid_resolution=21)
    reports = properties.check_properties(implication, ["CP", "LCP", "R-CP"], negation, config)
    assert [r.holds for r in reports] == [True, True, True]
    assert calls == {"negation": 1, "implication": 1}
    calls.update(negation=0, implication=0)
    assert [properties.check_property(implication, p, negation, config) for p in ["CP", "LCP", "R-CP"]] == reports
    assert calls == {"negation": 3, "implication": 3}


def test_t2_makes_two_calls_of_f_per_block():
    # F(x, y) and F(y, z) in one joined call, then F(F(x, y), z) and F(x, F(y, z)) in a second.
    calls = []
    o_min = ok.catalog("O_min")

    def fn(x, y):
        calls.append(len(x))
        return o_min.fn(x, y)

    f = dataclasses.replace(o_min, fn=_vectorized(fn))
    assert ok.check_associativity(f).passed
    blocks = [stop - start for start, stop in numerics._blocks(21**3, numerics.FIRST_BLOCK, numerics.SCAN_BLOCK)]
    assert len(blocks) == 4
    assert calls == [2 * n for n in blocks for _ in range(2)]


# Connectives for the T2, T3 and idempotency references: associative ones
# that pass, ones that fail at once or deep in the grid, and n-ary ones.
CONNECTIVES = (
    "O_min",
    "O_P:p=1",
    "O_P:p=2",
    "O_mM",
    "O_DB",
    "O_V",
    "GO_max",
    "GO_TL:p=2",
    "neutral_go:e=0.5",
    "idem_go:p=1,q=2",
    "trunc:O_P:p=1,a=0.5",
    "max_grouping",
    "prob_sum",
    "GO_PN:n=3",
    "GO_GN:n=4",
)


def _scalar_associativity(f, config):
    xs = np.linspace(0.0, 1.0, 21)
    worst, at = 0.0, None
    for x in xs:
        for y in xs:
            left_inner = float(f(x, y))
            for z in xs:
                dev = abs(float(f(left_inner, z)) - float(f(x, float(f(y, z)))))
                if dev > worst:
                    worst, at = dev, (float(x), float(y), float(z))
                    if worst > config.eq_tol:
                        return ok.AxiomCheck("associativity", False, at, worst)
    return ok.AxiomCheck("associativity", True, deviation=worst)


def _scalar_worst_sample(config, g):
    worst, at = 0.0, None
    for x in numerics.sorted_samples(config):
        dev = abs(g(float(x)) - float(x))
        if dev > worst:
            worst, at = dev, float(x)
    return worst, at


@pytest.mark.parametrize("expression", CONNECTIVES)
def test_t2_t3_and_idempotency_match_the_scalar_loops(expression):
    f = parse_connective(expression)
    cfg = ok.DEFAULT_CONFIG
    worst, at = _scalar_worst_sample(cfg, lambda x: float(f(*[x] * f.arity)))
    holds = worst <= cfg.eq_tol
    assert ok.check_idempotent(f, cfg) == ok.IdempotencyResult(holds, None if holds else at, worst)
    if f.arity != 2:
        return
    assert ok.check_associativity(f, cfg) == _scalar_associativity(f, cfg)
    worst, at = _scalar_worst_sample(cfg, lambda x: float(f(x, 1.0)))
    holds = worst <= cfg.eq_tol
    t3 = ok.check_axioms(f, "T", cfg).check("T3")
    assert (t3.passed, t3.witness, t3.deviation) == (holds, None if holds else (at, 1.0), worst)
