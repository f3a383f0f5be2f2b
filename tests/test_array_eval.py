"""Array evaluation is bit-identical to scalar evaluation, for every constructor.

Each object's values() on a mesh must equal float(obj(*p)) at every point p,
compared as bit patterns (so the sign of a zero counts), on:

* the full default pair mesh, plus sorted_samples x sorted_samples for the
  crisp family, whose thresholds sit on sample points;
* the triple mesh of the EP scans;
* random points from hypothesis, mixed with the crisp thresholds, their
  float neighbours and O_DB's x + y = 0 corner.

The array meshes and pair_points/triple_points must list exactly the points
of the nested-loop reference generators kept here, in the same order.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import overlapkit as ok
from overlapkit.numerics import _axis, _product_mesh, _sample_mesh, random_points, sorted_samples

CFG = ok.DEFAULT_CONFIG
ALPHA, BETA = 0.5, 0.3


def _negations():
    return {
        "zadeh": ok.make_standard(),
        "bottom": ok.make_bottom(),
        "top": ok.make_top(),
        "crisp_lower:0.3": ok.make_crisp("lower", BETA),
        "crisp_upper:0.5": ok.make_crisp("upper", ALPHA),
        "power:1.75": ok.make_power_strict(1.75),
        "power:2": ok.make_power_strict(2.0),
        "inv(power:2)": ok.inverse_negation(ok.make_power_strict(2.0)),
        "nat(gon(O_min, zadeh))": ok.natural_negation(ok.make_gon(ok.catalog("O_min"), ok.make_standard())),
        # not marked _vectorized: values() loops over __call__
        "user": ok.Negation(fn=lambda x: 1.0 - x * x, label="user"),
    }


def _connectives():
    zadeh, power2 = ok.make_standard(), ok.make_power_strict(2.0)
    out = {f"{name}:{p}": ok.catalog(name, **p) for name, p in (
        ("O_mM", {}), ("O_DB", {}), ("O_P", {"p": 1.75}), ("O_P", {"p": 2}), ("O_V", {}),
        ("O_min", {}), ("GO_max", {}), ("GO_TL", {"p": 2.5}),
        ("GO_PN", {"n": 2}), ("GO_GN", {"n": 2}), ("GO_PN", {"n": 3}), ("GO_GN", {"n": 3}),
    )}
    out.update({
        "max_grouping": ok.grouping_max(),
        "prob_sum": ok.grouping_probsum(),
        "trunc:O_P:p=1.75,a=0.5": ok.truncate_overlap(ok.catalog("O_P", p=1.75), 0.5),
        "trunc:O_V,a=0.4": ok.truncate_overlap(ok.catalog("O_V"), 0.4),
        "neutral_go:e=0.5": ok.piecewise_neutral_go(0.5),
        "neutral_go:e=0.37": ok.piecewise_neutral_go(0.37),
        "idem_go:p=1,q=2": ok.idempotent_go(1.0, 2.0),
        "idem_go:p=0.7,q=2.3": ok.idempotent_go(0.7, 2.3),
        "dual(O_P:p=1.75, power:2)": ok.dual(ok.catalog("O_P", p=1.75), power2),
        "dual(GO_PN:n=3, zadeh)": ok.dual(ok.catalog("GO_PN", n=3), zadeh),
        "dualG(O_P:p=1, zadeh)": ok.grouping_from(ok.catalog("O_P", p=1), zadeh),
        "dualO(prob_sum, zadeh)": ok.overlap_from(ok.grouping_probsum(), zadeh),
        "agg(mean; GO_max, O_P:p=2)": ok.aggregate(
            ok.make_aggregation("mean", 2),
            ok.OperatorFamily((ok.catalog("GO_max"), ok.catalog("O_P", p=2))),
        ),
        "agg(min; GO_PN:n=3, GO_GN:n=3)": ok.aggregate(
            ok.make_aggregation("min", 2),
            ok.OperatorFamily((ok.catalog("GO_PN", n=3), ok.catalog("GO_GN", n=3))),
        ),
        "recovered(gon(GO_TL:p=2, power:2))": ok.recover_go(
            ok.make_gon(ok.catalog("GO_TL", p=2), power2), power2
        ),
        # not marked _vectorized: values() loops over __call__
        "user": ok.FusionFunction(fn=lambda x, y: x * y, arity=2, role="overlap", label="user"),
    })
    for name in ok.AGGREGATION_NAMES:
        for arity in (1, 2, 3):
            out[f"{name}/{arity}"] = ok.make_aggregation(name, arity)
    return out


def _implications():
    c, zadeh = ok.catalog, ok.make_standard()
    power2, power15 = ok.make_power_strict(2.0), ok.make_power_strict(1.5)
    out = {
        "gon(GO_max, zadeh)": ok.make_gon(c("GO_max"), zadeh),
        "gon(O_P:p=1.75, power:2)": ok.make_gon(c("O_P", p=1.75), power2),
        "gon(O_min, crisp_upper:0.5)": ok.make_gon(c("O_min"), ok.make_crisp("upper", ALPHA)),
        "gn(max_grouping, zadeh)": ok.make_gn(ok.grouping_max(), zadeh),
        "gn(prob_sum, power:1.5)": ok.make_gn(ok.grouping_probsum(), power15),
        "ql(O_min, max_grouping)": ok.make_ql(c("O_min"), ok.grouping_max()),
        "ql(O_P:p=2, prob_sum)": ok.make_ql(c("O_P", p=2), ok.grouping_probsum()),
        "d(max_grouping)": ok.make_d(ok.grouping_max()),
        "d(prob_sum)": ok.make_d(ok.grouping_probsum()),
        "tn(O_min, zadeh)": ok.make_tn(c("O_min"), zadeh),
        "tn(O_min, power:2)": ok.make_tn(c("O_min"), power2),
        "ro(O_P:p=1)": ok.make_residual(c("O_P", p=1)),
        "ro(O_DB)": ok.make_residual(c("O_DB")),
        "agg(mean; gon(GO_max, zadeh), gon(O_P:p=2, zadeh))": ok.aggregate(
            ok.make_aggregation("mean", 2),
            ok.OperatorFamily((ok.make_gon(c("GO_max"), zadeh), ok.make_gon(c("O_P", p=2), zadeh))),
        ),
        "agg(product; tn(O_min, zadeh), d(prob_sum), crisp(C2))": ok.aggregate(
            ok.make_aggregation("product", 3),
            ok.OperatorFamily((
                ok.make_tn(c("O_min"), zadeh),
                ok.make_d(ok.grouping_probsum()),
                ok.make_crisp_family("C2", ALPHA, BETA),
            )),
        ),
    }
    for kind in ("C1", "C2", "C3", "C4"):
        out[f"crisp({kind})"] = ok.make_crisp_family(kind, ALPHA, BETA)
    return out


NEGATIONS = _negations()
CONNECTIVES = _connectives()
IMPLICATIONS = _implications()
OBJECTS = {**{f"N {k}": v for k, v in NEGATIONS.items()},
           **{f"F {k}": v for k, v in CONNECTIVES.items()},
           **{f"I {k}": v for k, v in IMPLICATIONS.items()}}


def _assert_bit_identical(obj, cols) -> None:
    cols = tuple(np.asarray(c, dtype=float) for c in cols)
    got = obj.values(*cols)
    want = np.array([float(obj(*p)) for p in zip(*(c.tolist() for c in cols))])
    assert got.dtype == np.float64 and got.shape == want.shape
    differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    if differ.size:
        k = int(differ[0])
        point = tuple(float(c[k]) for c in cols)
        raise AssertionError(
            f"{obj.label}: {differ.size} points differ, first at {point}: {got[k]!r} != {want[k]!r}"
        )


def _argument_sets(obj, mesh):
    """Argument columns for obj drawn from the coordinate columns of mesh."""
    arity = obj.arity
    picks = [tuple(mesh[(k + j) % len(mesh)] for j in range(arity)) for k in range(len(mesh))]
    return picks if len(mesh) > arity else picks[:1]


def _reference_pairs(config):
    """The pair mesh as nested loops: the grid of _axis(config, 2) row by row, then random points in pairs."""
    grid = _axis(config, 2)
    for x in grid:
        for y in grid:
            yield float(x), float(y)
    r = random_points(config)
    for k in range(0, len(r) - 1, 2):
        yield float(r[k]), float(r[k + 1])


def _reference_triples(config):
    """The triple mesh as nested loops: the grid of _axis(config, 3) in C order, then random points in threes."""
    grid = _axis(config, 3)
    for x in grid:
        for y in grid:
            for z in grid:
                yield float(x), float(y), float(z)
    r = random_points(config)
    for k in range(0, len(r) - 2, 3):
        yield float(r[k]), float(r[k + 1]), float(r[k + 2])


def _assert_same_points(got, want):
    """The points of got are those of want, as Python floats, in the same order."""
    got, want = list(got), list(want)
    assert got == want
    assert all(type(v) is float for p in got for v in p)


def _mesh_points(config, arity):
    return zip(*(c.tolist() for c in _sample_mesh(config, arity)))


def test_pair_mesh_lists_pair_points_in_order():
    _assert_same_points(_mesh_points(CFG, 2), _reference_pairs(CFG))
    _assert_same_points(ok.pair_points(CFG), _reference_pairs(CFG))


def test_triple_mesh_lists_triple_points_in_order():
    _assert_same_points(_mesh_points(CFG, 3), _reference_triples(CFG))
    _assert_same_points(ok.triple_points(CFG), _reference_triples(CFG))


@pytest.mark.parametrize("samples", [0, 1, 2, 3, 5])
def test_meshes_match_generators_for_short_random_parts(samples):
    for grid in (2, 3, 37):
        cfg = ok.CheckConfig(grid_resolution=grid, random_samples=samples)
        _assert_same_points(_mesh_points(cfg, 2), _reference_pairs(cfg))
        _assert_same_points(ok.pair_points(cfg), _reference_pairs(cfg))
        _assert_same_points(_mesh_points(cfg, 3), _reference_triples(cfg))
        _assert_same_points(ok.triple_points(cfg), _reference_triples(cfg))


@pytest.mark.parametrize("name", sorted(OBJECTS))
def test_pair_mesh_bit_identical(name):
    obj = OBJECTS[name]
    for cols in _argument_sets(obj, _sample_mesh(CFG, 2)):
        _assert_bit_identical(obj, cols)


@pytest.mark.parametrize("name", sorted(OBJECTS))
def test_triple_mesh_bit_identical(name):
    obj = OBJECTS[name]
    for cols in _argument_sets(obj, _sample_mesh(CFG, 3)):
        _assert_bit_identical(obj, cols)


@pytest.mark.parametrize("name", sorted(k for k in IMPLICATIONS if k.startswith("crisp")))
def test_crisp_sample_square_bit_identical(name):
    _assert_bit_identical(IMPLICATIONS[name], _product_mesh(sorted_samples(CFG), 2))


def _near(values):
    return [v for x in values for v in (math.nextafter(x, 0.0), x, math.nextafter(x, 1.0)) if 0.0 <= v <= 1.0]


SPECIAL = _near([0.0, 1.0, ALPHA, BETA, 0.37, 0.4, 0.25, 0.75]) + [5e-324, 1e-300]
UNIT = st.one_of(st.floats(min_value=0.0, max_value=1.0), st.sampled_from(SPECIAL))


@pytest.mark.parametrize("name", sorted(OBJECTS))
@settings(max_examples=15)
@given(points=st.lists(st.tuples(UNIT, UNIT, UNIT), min_size=1, max_size=30))
def test_random_points_bit_identical(name, points):
    obj = OBJECTS[name]
    cols = [np.array(c) for c in zip(*points)]
    for args in _argument_sets(obj, cols):
        _assert_bit_identical(obj, args)


def test_values_reject_out_of_range_like_call():
    zadeh = ok.make_standard()
    with pytest.raises(ok.UnitRangeError, match="value -1.0 is not in"):
        zadeh.values(np.array([0.5, 2.0]))
    x = np.array([0.5])
    gon = ok.make_gon(ok.catalog("O_min"), zadeh)
    # Every connective words a wrong argument count alike, on a call and on values().
    for wrong, text in (
        (lambda: ok.catalog("GO_PN", n=3).values(x, x), "GO_PN:n=3 takes 3 arguments, got 2"),
        (lambda: ok.catalog("GO_PN", n=3)(0.5, 0.5), "GO_PN:n=3 takes 3 arguments, got 2"),
        (lambda: zadeh(0.1, 0.2), "zadeh takes 1 arguments, got 2"),
        (lambda: zadeh.values(x, x), "zadeh takes 1 arguments, got 2"),
        (lambda: gon(0.1), r"gon\(O_min, zadeh\) takes 2 arguments, got 1"),
        (lambda: gon.values(x), r"gon\(O_min, zadeh\) takes 2 arguments, got 1"),
        (lambda: gon.values(x, x, x), r"gon\(O_min, zadeh\) takes 2 arguments, got 3"),
    ):
        with pytest.raises(ok.PreconditionError, match=text):
            wrong()


def test_replaced_fn_drops_the_array_form():
    calls = []
    base = ok.catalog("O_P", p=2)
    counted = dataclasses.replace(base, fn=lambda x, y: calls.append(1) or base.fn(x, y))
    xs = np.linspace(0.0, 1.0, 7)
    assert counted.values(xs, xs).tolist() == base.values(xs, xs).tolist()
    assert len(calls) == 7


def test_inverse_and_recovery_meshes_make_no_scalar_calls(monkeypatch):
    calls = []

    def counted(original):
        def wrapper(*args, **kwargs):
            calls.append(original)
            return original(*args, **kwargs)

        return wrapper

    for cls in (ok.Negation, ok.Implication):
        monkeypatch.setattr(cls, "__call__", counted(cls.__call__))

    def scalar_calls(run) -> int:
        calls.clear()
        run()
        return len(calls)

    cfg = ok.CheckConfig(grid_resolution=21)
    power2 = ok.make_power_strict(2.0)
    go = ok.catalog("GO_TL", p=2)
    recovered = ok.recover_go(ok.make_gon(go, power2), power2, cfg)
    assert scalar_calls(lambda: ok.classify(ok.inverse_negation(power2), cfg)) == 0
    assert scalar_calls(lambda: ok.compare(go, recovered, cfg)) == 0
    # GO3 evaluates the all-ones corner as a point; the grid adds no call.
    corner = scalar_calls(lambda: recovered(1.0, 1.0))
    assert scalar_calls(lambda: ok.check_axioms(recovered, "GO", cfg)) == corner
