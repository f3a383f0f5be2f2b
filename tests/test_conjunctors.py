"""Table catalog, duality constructions, and the grid axiom engine."""

from __future__ import annotations

import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import overlapkit as ok
from overlapkit import conjunctors, numerics
from overlapkit.numerics import _min, _vectorized

from conftest import BINARY_ENTRIES, CATALOG_ENTRIES

ROLE_TO_SET = {
    "overlap": "O",
    "grouping": "G",
    "general_overlap": "GO",
    "t_norm": "T",
}


# --- catalog values ---------------------------------------------------------


def test_go_max_value():
    go = ok.catalog("GO_max")
    assert abs(float(go(0.8, 0.9)) - 0.45) <= 1e-12
    assert float(go(0.5, 0.5)) == 0.0


def test_o_p_value():
    f = ok.catalog("O_P", p=2)
    assert abs(float(f(0.5, 0.5)) - 0.0625) <= 1e-12


def test_o_min_neutral_line():
    f = ok.catalog("O_min")
    for x in ok.sample_grid():
        assert float(f(x, 1.0)) == float(x)


def test_o_mm_formula():
    f = ok.catalog("O_mM")
    # min(x,y) * max(x^2, y^2)
    assert abs(float(f(0.5, 0.8)) - 0.5 * 0.64) <= 1e-12


def test_o_db_formula():
    f = ok.catalog("O_DB")
    assert float(f(0.0, 0.0)) == 0.0
    assert abs(float(f(0.5, 0.25)) - 2 * 0.5 * 0.25 / 0.75) <= 1e-12


def test_o_v_branches():
    f = ok.catalog("O_V")
    # both above 1/2: (1 + (2x-1)^2 (2y-1)^2) / 2
    assert abs(float(f(0.75, 0.75)) - (1 + 0.25 * 0.25) / 2) <= 1e-12
    # otherwise min
    assert float(f(0.3, 0.8)) == 0.3


def test_go_tl_formula():
    f = ok.catalog("GO_TL", p=2)
    assert abs(float(f(0.8, 0.9)) - 0.64 * 0.7) <= 1e-12
    assert float(f(0.3, 0.4)) == 0.0


def test_go_pn_gate():
    f = ok.catalog("GO_PN", n=3)
    assert float(f(0.2, 0.3, 0.4)) == 0.0
    assert abs(float(f(0.5, 0.6, 0.7)) - 0.5 * 0.6 * 0.7 * 0.5) <= 1e-12


def test_go_gn_gate():
    f = ok.catalog("GO_GN", n=3)
    assert float(f(0.2, 0.3, 0.4)) == 0.0
    expected = (0.5 * 0.6 * 0.7) ** (1 / 3) * 0.5
    assert abs(float(f(0.5, 0.6, 0.7)) - expected) <= 1e-12


def test_gate_sum_is_order_independent():
    # arguments straddling the sum threshold must not break symmetry
    f = ok.catalog("GO_PN", n=3)
    pts = (0.05, 0.1, 0.85)
    vals = {float(f(*perm)) for perm in (
        pts, (0.1, 0.05, 0.85), (0.05, 0.85, 0.1), (0.85, 0.1, 0.05))}
    assert len(vals) == 1


def test_catalog_errors():
    with pytest.raises(ok.PreconditionError):
        ok.catalog("O_unknown")
    with pytest.raises(ok.PreconditionError):
        ok.catalog("O_P")
    with pytest.raises(ok.PreconditionError):
        ok.catalog("O_P", p=-1)
    with pytest.raises(ok.PreconditionError):
        ok.catalog("GO_PN")
    with pytest.raises(ok.PreconditionError):
        ok.catalog("O_min", p=2)


# --- constructions ----------------------------------------------------------


def test_truncate_overlap_zero_band(coarse):
    trunc = ok.truncate_overlap(ok.catalog("O_P", p=1), 0.5)
    for y in ok.sample_grid(coarse):
        if y <= 0.5:
            assert float(trunc(0.5, y)) == 0.0
    assert float(trunc(0.0, 0.7)) == 0.0
    assert float(trunc(1.0, 1.0)) == 1.0
    assert trunc.role == "general_overlap"


def test_truncate_overlap_breaks_o2(coarse):
    trunc = ok.truncate_overlap(ok.catalog("O_P", p=1), 0.5)
    rep = ok.check_axioms(trunc, "GO", coarse)
    assert rep.passed
    assert not ok.check_axioms(trunc, "O", coarse).check("O2").passed


def test_truncate_overlap_rejects_a_source_value_outside_the_unit_interval():
    # The cut 1.25 * 0.95 * 0.9 leaves [0, 1]; it must raise, not hide behind a negative denominator.
    leaky = ok.FusionFunction(fn=lambda x, y: 1.25 * x * y, arity=2, role="overlap", label="leaky")
    trunc = ok.truncate_overlap(leaky, 0.9)
    with pytest.raises(ok.UnitRangeError, match=r"value 1\.06875 "):
        trunc(0.95, 0.5)
    with pytest.raises(ok.UnitRangeError, match=r"value 1\.06875 "):
        trunc.values(np.array([0.95]), np.array([0.5]))


def test_truncate_overlap_refuses_a_cut_of_one_alike_on_floats_and_arrays():
    # (0.5 * 0.5) ** 1e-17 rounds to 1.0, so renormalizing by 1 - cut would divide by zero.
    trunc = ok.truncate_overlap(ok.catalog("O_P", p=1e-17), 0.5)
    message = r"^truncating O_P:p=1e-17 at a=0\.5 divides by zero: O\(max\(x, y\), a\) is 1$"
    with pytest.raises(ok.PreconditionError, match=message):
        trunc(0.5, 0.5)
    with pytest.raises(ok.PreconditionError, match=message):
        trunc.values(np.array([0.2, 0.5]), np.array([0.1, 0.5]))
    with pytest.raises(ok.PreconditionError, match=message):
        ok.check_axioms(trunc, "GO", ok.CheckConfig(grid_resolution=11))


def test_truncate_overlap_param_range():
    with pytest.raises(ok.PreconditionError):
        ok.truncate_overlap(ok.catalog("O_P", p=1), 0.0)
    with pytest.raises(ok.PreconditionError):
        ok.truncate_overlap(ok.catalog("O_P", p=1), 1.0)


def test_grouping_from_product():
    g = ok.grouping_from(ok.catalog("O_P", p=1), ok.make_standard())
    assert abs(float(g(0.5, 0.5)) - 0.75) <= 1e-12
    assert float(g(0.0, 0.0)) == 0.0
    for y in ok.sample_grid():
        assert float(g(1.0, y)) == 1.0
    assert g.role == "grouping"


def test_grouping_from_requires_strict():
    with pytest.raises(ok.PreconditionError):
        ok.grouping_from(ok.catalog("O_min"), ok.make_crisp("upper", 0.5))


def test_grouping_from_downgrades_without_converses():
    # GO_max hits zero at nonzero arguments, so the dual loses the grouping claim
    with pytest.warns(UserWarning):
        g = ok.grouping_from(ok.catalog("GO_max"), ok.make_standard())
    assert g.role == "aggregation"


def test_overlap_from_max_is_min():
    o = ok.overlap_from(ok.grouping_max(), ok.make_standard())
    assert float(o(0.3, 0.8)) == pytest.approx(0.3, abs=1e-12)
    assert float(o(1.0, 1.0)) == 1.0


def test_overlap_from_probsum_is_product(coarse):
    o = ok.overlap_from(ok.grouping_probsum(), ok.make_standard())
    for x in ok.sample_grid(coarse):
        for y in ok.sample_grid(coarse):
            assert abs(float(o(x, y)) - x * y) <= 1e-9


def test_piecewise_neutral_values():
    f = ok.piecewise_neutral_go(0.5)
    assert float(f(0.3, 0.5)) == pytest.approx(0.3, abs=1e-12)
    assert float(f(0.7, 0.8)) == pytest.approx(0.8, abs=1e-12)
    assert float(f(0.3, 0.8)) == pytest.approx(0.48, abs=1e-12)


def test_piecewise_neutral_param_range():
    with pytest.raises(ok.PreconditionError):
        ok.piecewise_neutral_go(0.0)
    with pytest.raises(ok.PreconditionError):
        ok.piecewise_neutral_go(1.2)


def test_idempotent_go_diagonal():
    f = ok.idempotent_go(1, 2)
    for x in ok.sample_grid():
        assert abs(float(f(x, x)) - x) <= 1e-12
    assert float(f(1.0, 1.0)) == 1.0
    assert float(f(0.5, 0.0)) == 0.0


def test_idempotent_go_param_range():
    with pytest.raises(ok.PreconditionError):
        ok.idempotent_go(0, 1)
    with pytest.raises(ok.PreconditionError):
        ok.idempotent_go(1, -1)


def test_idempotent_go_axioms_at_coarse_grid(coarse):
    rep = ok.check_axioms(ok.idempotent_go(1, 2), "GO", coarse)
    assert rep.passed


def test_idempotent_go_steep_wall_hits_jump_bound():
    # ((x y^2 + x^2 y)/2)^(1/3) is continuous but has a cube-root wall at
    # x = 0; at the default resolution its first grid step slightly exceeds
    # the 10/resolution jump bound, so only the continuity heuristic trips.
    rep = ok.check_axioms(ok.idempotent_go(1, 2), "GO")
    failed = [c.axiom for c in rep.checks if not c.passed and not c.informational]
    assert failed == ["GO5"]


# --- axiom engine -----------------------------------------------------------


def test_every_catalog_entry_passes_claimed_set():
    for name, params in CATALOG_ENTRIES:
        f = ok.catalog(name, **params)
        rep = ok.check_axioms(f, ROLE_TO_SET[f.role])
        assert rep.passed, f"{f.label}: {rep.summary()}"


def test_go_max_fails_o2_with_witness():
    rep = ok.check_axioms(ok.catalog("GO_max"), "O")
    o2 = rep.check("O2")
    assert not o2.passed
    assert o2.witness is not None
    x, y = o2.witness
    assert x > 0 and y > 0
    assert float(ok.catalog("GO_max")(x, y)) == 0.0


def test_go_tl_fails_o2_with_witness():
    rep = ok.check_axioms(ok.catalog("GO_TL", p=2), "O")
    assert not rep.check("O2").passed


def test_o_min_is_t_norm():
    assert ok.check_axioms(ok.catalog("O_min"), "T").passed


def test_product_is_t_norm():
    assert ok.check_axioms(ok.catalog("O_P", p=1), "T").passed


def test_o_p2_is_not_t_norm():
    rep = ok.check_axioms(ok.catalog("O_P", p=2), "T")
    assert not rep.passed


def test_go_pn_binary_seam_is_visible_at_fine_grid():
    # at arity 2 the default grid is fine enough to expose the genuine
    # discontinuity along x + y = 1; only GO5 fails
    rep = ok.check_axioms(ok.catalog("GO_PN", n=2), "GO")
    failed = [c.axiom for c in rep.checks if not c.passed and not c.informational]
    assert failed == ["GO5"]


def test_axiom_set_arity_mismatch():
    with pytest.raises(ok.PreconditionError):
        ok.check_axioms(ok.catalog("GO_PN", n=3), "O")


def test_fail_entries_carry_witness():
    rep = ok.check_axioms(ok.catalog("GO_max"), "O")
    for c in rep.checks:
        if not c.passed:
            assert c.witness is not None


def test_max_grouping_passes_g_set():
    assert ok.check_axioms(ok.grouping_max(), "G").passed
    assert ok.check_axioms(ok.grouping_probsum(), "G").passed


def _counting(f, calls):
    return dataclasses.replace(f, fn=lambda *xs: calls.append(xs) or f.fn(*xs))


def test_checks_and_duals_evaluate_the_grid_once():
    cfg = ok.CheckConfig(grid_resolution=21, random_samples=0)
    calls = []
    ok.check_axioms(_counting(ok.catalog("GO_max"), calls), "GO", cfg)
    assert len(calls) == 21 * 21 + 1  # the grid tensor plus the GO3 corner
    calls.clear()
    ok.grouping_from(_counting(ok.catalog("O_P", p=1), calls), ok.make_standard(), cfg)
    assert len(calls) == 21 * 21
    calls.clear()
    ok.overlap_from(_counting(ok.grouping_probsum(), calls), ok.make_standard(), cfg)
    assert len(calls) == 21 * 21


def test_report_serialization():
    rep = ok.check_axioms(ok.catalog("O_min"), "O")
    d = rep.as_dict()
    assert d["label"] == "O_min"
    assert d["passed"] is True
    assert {c["axiom"] for c in d["checks"]} >= {"O1", "O2", "O3", "O4", "O5"}


# --- neutral elements and idempotency ---------------------------------------


def test_find_neutral_examples():
    assert ok.find_neutral(ok.catalog("O_min")) == pytest.approx(1.0, abs=1e-9)
    assert ok.find_neutral(ok.catalog("O_mM")) == pytest.approx(1.0, abs=1e-9)
    assert ok.find_neutral(ok.catalog("GO_max")) is None
    assert ok.find_neutral(ok.catalog("O_V")) is None
    assert ok.find_neutral(ok.catalog("O_DB")) is None
    assert ok.find_neutral(ok.piecewise_neutral_go(0.5)) == pytest.approx(0.5, abs=1e-9)
    assert ok.find_neutral(ok.piecewise_neutral_go(0.3)) == pytest.approx(0.3, abs=1e-9)


@pytest.mark.parametrize("e", [0.434, 0.691])
def test_find_neutral_accepts_a_bisected_neutral_element(e):
    # min(1, x*y/e) has neutral element e, which lies between grid points,
    # so only the bisection fallback can find it.
    f = ok.FusionFunction(
        fn=_vectorized(lambda x, y: _min(1.0, x * y / e)), arity=2, role="general_overlap", label="scaled"
    )
    assert ok.find_neutral(f) == pytest.approx(e, abs=1e-8)


def _per_candidate_neutral(f, config=ok.DEFAULT_CONFIG):
    """find_neutral with one first-witness scan per grid candidate: the reference for its one-walk grid phase."""
    samples, grid = numerics.sorted_samples(config), numerics.uniform_grid(config)

    def deviates(a, budget):
        row = (("F", "x", a), "x"), numerics._apart(budget)
        ((witness, _, _),) = numerics._scan_rows((samples,), [row], {"F": f})
        return witness is not None

    for a in grid.tolist():
        if not deviates(a, config.eq_tol):
            return ok.UnitValue(a)
    (values,) = numerics._mesh_values((grid,), lambda a: (numerics._value(f, 0.5, a),))
    gap = (values - 0.5).tolist()
    for i in range(len(grid) - 1):
        if gap[i] == 0.0 or gap[i] * gap[i + 1] >= 0.0:
            continue
        lo, hi, lo_val = float(grid[i]), float(grid[i + 1]), gap[i]
        for _ in range(numerics.iteration_count(config.bisect_tol)):
            mid = 0.5 * (lo + hi)
            mid_val = float(f(0.5, mid)) - 0.5
            if mid_val == 0.0:
                lo = hi = mid
                break
            if (mid_val < 0.0) == (lo_val < 0.0):
                lo, lo_val = mid, mid_val
            else:
                hi = mid
        if not deviates(0.5 * (lo + hi), 10.0 * config.bisect_tol):
            return ok.UnitValue(0.5 * (lo + hi))
    return None


def _same(got, want) -> bool:
    return (got is None and want is None) or (got is not None and want is not None and got.hex() == want.hex())


_NEUTRAL_CASES = [(name, lambda n=name, p=params: ok.catalog(n, **p)) for name, params in BINARY_ENTRIES] + [
    (f"neutral_go:e={e}", lambda e=e: ok.piecewise_neutral_go(e)) for e in (0.3, 0.5, 1.0, 0.437, 0.8125)
]


@pytest.mark.parametrize("make", [m for _, m in _NEUTRAL_CASES], ids=[n for n, _ in _NEUTRAL_CASES])
def test_find_neutral_walks_the_grid_as_the_per_candidate_scans_do(make):
    f = make()
    want = _per_candidate_neutral(f)
    assert _same(ok.find_neutral(f), want)
    # A copy without the _vectorized mark evaluates its meshes point by point, with the same result.
    copy = dataclasses.replace(f, fn=lambda x, y, _fn=f.fn: _fn(x, y))
    assert _same(ok.find_neutral(copy), want)


@pytest.mark.parametrize(
    "cfg", [ok.CheckConfig(grid_resolution=2, random_samples=0), ok.CheckConfig(grid_resolution=7)]
)
def test_find_neutral_walks_small_grids_as_the_per_candidate_scans_do(cfg):
    for make in (m for _, m in _NEUTRAL_CASES):
        f = make()
        assert _same(ok.find_neutral(f, cfg), _per_candidate_neutral(f, cfg)), f.label


def test_find_neutral_walks_a_grid_wider_than_one_part_of_its_mesh(monkeypatch):
    # Parts of 3 rows: the neutral element 0.5 lies in the 17th part, the others each run to their end.
    monkeypatch.setattr(conjunctors, "SCAN_BLOCK", 3 * len(numerics.sorted_samples(ok.DEFAULT_CONFIG)) + 2)
    for e in (0.5, 0.437):
        f = ok.piecewise_neutral_go(e)
        assert _same(ok.find_neutral(f), _per_candidate_neutral(f)), e


def _leaky(row: float, at, calls: list, e: float = 0.5):
    """neutral_go(e), but 1.5 on the candidate row at the samples where at(x) holds; counts its array calls."""
    base = ok.piecewise_neutral_go(e).fn

    def fn(x, a):
        if isinstance(x, np.ndarray):
            calls.append(len(x))
        return numerics._where((a == row) & at(x), 1.5, base(x, a))

    return ok.FusionFunction(fn=_vectorized(fn), arity=2, role="general_overlap", label="leaky")


def test_find_neutral_skips_a_candidate_that_leaks_after_its_first_deviation():
    # f(x, 0.2) = 0.2 * x / 0.5 deviates from x at the first sample above 0, long before x > 0.9 leaks.
    calls = []
    f = _leaky(0.2, lambda x: x > 0.9, calls)
    with pytest.raises(ok.UnitRangeError):
        f(0.95, 0.2)
    assert _per_candidate_neutral(f) == 0.5
    assert ok.find_neutral(f) == 0.5


def test_find_neutral_scans_only_the_candidates_of_the_part_that_raises():
    # Grid 101, parts of 13 rows: the first part in 1 call; the second, holding row 0.2, raises after a
    # prefix bisection of 13 calls, then 12 of its rows take a one-call scan and row 0.2 takes 10 (its block
    # raises and is bisected); the walk resumes with the third part and passes 0.5 in the fourth.
    calls = []
    assert ok.find_neutral(_leaky(0.2, lambda x: x > 0.9, calls)) == 0.5
    assert len(calls) == 1 + 13 + 12 + 10 + 2


def test_find_neutral_raises_the_error_of_a_candidate_that_leaks_before_any_deviation():
    # At x = 0 no candidate deviates yet, so the leak at (0, 0.2) is met first.
    f = _leaky(0.2, lambda x: x == 0.0, [])
    with pytest.raises(ok.UnitRangeError) as want:
        _per_candidate_neutral(f)
    with pytest.raises(ok.UnitRangeError) as got:
        ok.find_neutral(f)
    assert str(got.value) == str(want.value) == "value 1.5 is not in [0, 1]"


def _dividing(row: float):
    """neutral_go(0.5) as a plain Python function, unmarked, that divides by zero on the candidate row."""
    base = ok.piecewise_neutral_go(0.5)

    def fn(x, a):
        return x / 0.0 if a == row else float(base(x, a))

    return ok.FusionFunction(fn=fn, arity=2, role="general_overlap", label="dividing")


@pytest.mark.parametrize("row", [0.8, 0.2])
def test_find_neutral_meets_other_errors_only_where_the_per_candidate_scans_do(row):
    # Row 0.8 lies after the neutral element 0.5, which a walk in blocks evaluates before it passes 0.5.
    cfg = ok.CheckConfig(grid_resolution=11, random_samples=10)
    f = _dividing(row)
    try:
        want = _per_candidate_neutral(f, cfg)
    except ZeroDivisionError as error:
        with pytest.raises(ZeroDivisionError) as got:
            ok.find_neutral(f, cfg)
        assert str(got.value) == str(error)
        assert row == 0.2
    else:
        assert want == 0.5 and row == 0.8
        assert _same(ok.find_neutral(f, cfg), want)


def test_find_neutral_stops_each_candidate_at_its_first_witness_after_another_error():
    # 1201 samples: a candidate's scan takes two blocks. Row 0.2 deviates in its first block and divides by
    # zero only in its second (x > 0.95), which its scan never evaluates; so does row 0.9, after the neutral 0.5.
    cfg = ok.CheckConfig(grid_resolution=1001)
    assert len(numerics.sorted_samples(cfg)) == 1201

    def fn(x, a):
        leak = ((a == 0.2) | (a == 0.9)) & (x > 0.95)
        divided = numerics._branch(leak, lambda x: numerics._pow(0.0 * x, -1.0), 0.0, x)
        return numerics._where(leak, divided, base(x, a))

    base = ok.piecewise_neutral_go(0.5).fn
    f = ok.FusionFunction(fn=_vectorized(fn), arity=2, role="general_overlap", label="late division")
    with pytest.raises(ZeroDivisionError):
        f(0.96, 0.2)
    assert _per_candidate_neutral(f, cfg) == 0.5
    assert ok.find_neutral(f, cfg) == 0.5


def test_find_neutral_evaluates_the_grid_101_mesh_in_nine_calls():
    # No leak, and no neutral element: the walk takes every candidate in 8 parts of at most 13 rows,
    # the fallback one more call.
    calls = []
    f = _leaky(2.0, lambda x: x > 1.0, calls)
    scaled = dataclasses.replace(f, fn=_vectorized(lambda x, a: f.fn(x, a) * 0.5))
    assert ok.find_neutral(scaled) is None
    assert len(calls) == 9
    assert sum(calls) == 101 * len(numerics.sorted_samples(ok.DEFAULT_CONFIG)) + 101


@st.composite
def _neutral_searches(draw):
    """(config, SCAN_BLOCK, f): f is neutral_go(e), e on or off the grid, perhaps leaking on one grid row."""
    cfg = ok.CheckConfig(grid_resolution=draw(st.integers(2, 31)), random_samples=draw(st.integers(0, 40)))
    grid = numerics.uniform_grid(cfg).tolist()
    n = len(numerics.sorted_samples(cfg))
    walk = draw(st.integers(n, n * len(grid)))
    e = draw(st.sampled_from(grid[1:]) | st.floats(0.01, 1.0))
    leak = draw(st.none() | st.tuples(st.booleans(), st.sampled_from(grid), st.floats(0.0, 1.0)))
    if leak is None:
        return cfg, walk, ok.piecewise_neutral_go(e)
    out_of_range, row, threshold = leak
    if out_of_range:
        return cfg, walk, _leaky(row, lambda x: x >= threshold, [], e)
    base = ok.piecewise_neutral_go(e)

    def fn(x, a):
        return x / 0.0 if a == row and x >= threshold else float(base(x, a))

    return cfg, walk, ok.FusionFunction(fn=fn, arity=2, role="general_overlap", label="dividing")


def _outcome(search, f, cfg):
    """The bits of what search(f, cfg) returns, or the type and message of what it raises."""
    try:
        found = search(f, cfg)
    except Exception as error:
        return type(error), str(error)
    return None if found is None else found.hex()


@settings(max_examples=150, derandomize=True)
@given(_neutral_searches())
def test_find_neutral_agrees_with_the_per_candidate_scans_at_any_walk(search):
    cfg, walk, f = search
    want = _outcome(_per_candidate_neutral, f, cfg)
    with mock.patch.object(conjunctors, "SCAN_BLOCK", walk):
        assert _outcome(ok.find_neutral, f, cfg) == want


def test_check_idempotent_examples():
    assert bool(ok.check_idempotent(ok.catalog("O_min")))
    sq = ok.catalog("O_P", p=2)
    res = ok.check_idempotent(sq)
    assert not bool(res)
    # x = 0.5 is a counterexample (0.0625 != 0.5); the returned witness is
    # the worst sampled point, so its deviation is at least that large
    assert abs(float(sq(0.5, 0.5)) - 0.0625) <= 1e-12
    assert res.deviation >= 0.4375 - 1e-9
    assert abs(float(sq(res.witness, res.witness)) - res.witness) == pytest.approx(
        res.deviation, abs=1e-12
    )
    assert bool(ok.check_idempotent(ok.idempotent_go(1, 2)))
    assert bool(ok.check_idempotent(ok.idempotent_go(0.5, 3)))


def test_check_associativity():
    assert ok.check_associativity(ok.catalog("O_min")).passed
    assert ok.check_associativity(ok.catalog("O_P", p=1)).passed
    for name, params in (("GO_max", {}), ("O_P", {"p": 2}), ("O_mM", {})):
        chk = ok.check_associativity(ok.catalog(name, **params))
        assert not chk.passed
        assert chk.witness is not None


def test_continuity_heuristic():
    assert ok.continuity_heuristic(ok.catalog("O_min")).passed
    step = ok.FusionFunction(
        fn=lambda x, y: 1.0 if x > 0.5 else 0.0,
        arity=2,
        role="aggregation",
        label="step",
    )
    assert not ok.continuity_heuristic(step).passed


# --- module invariants ------------------------------------------------------


def test_duality_roundtrip_on_overlaps(overlap_catalog):
    nz = ok.make_standard()
    for f in overlap_catalog:
        back = ok.overlap_from(ok.grouping_from(f, nz), nz)
        assert ok.compare(f, back).deviation <= 1e-9, f.label


def test_grouping_of_o_min_under_nonstrong_has_no_neutral():
    g = ok.grouping_from(ok.catalog("O_min"), ok.make_power_strict(2))
    assert ok.find_neutral(g) is None


def test_neutral_one_biconditional(binary_catalog):
    for f in binary_catalog:
        rep = ok.check_axioms(f, "GO")
        go3a = rep.check("GO3a").passed
        neutral = ok.find_neutral(f)
        neutral_is_one = neutral is not None and abs(neutral - 1.0) <= 1e-9
        assert neutral_is_one == (go3a and neutral is not None), f.label


def test_minimum_characterization():
    for f in (ok.catalog("O_min"), ok.idempotent_go(1, 2)):
        neutral = ok.find_neutral(f)
        idem = bool(ok.check_idempotent(f))
        if neutral is not None and abs(neutral - 1.0) <= 1e-9 and idem:
            assert ok.compare(f, ok.catalog("O_min")).deviation <= 1e-9


# --- refusals ---------------------------------------------------------------


def _ternary():
    return ok.catalog("GO_PN", n=3)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: ok.FusionFunction(fn=min, arity=2, role="sideways", label="f"),
            ok.PreconditionError,
            "unknown role 'sideways'",
            id="unknown-role",
        ),
        pytest.param(
            lambda: ok.FusionFunction(fn=min, arity=0, role="overlap", label="f"),
            ok.PreconditionError,
            "arity must be positive",
            id="arity-0",
        ),
        pytest.param(
            lambda: ok.catalog("GO_PN", n=2.5),
            ok.PreconditionError,
            "arity 'n' must be an integer >= 2",
            id="n-2.5",
        ),
        pytest.param(
            lambda: ok.catalog("GO_PN", n=1), ok.PreconditionError, "arity 'n' must be an integer >= 2", id="n-1"
        ),
        pytest.param(
            lambda: ok.truncate_overlap(ok.grouping_probsum(), 0.5),
            ok.PreconditionError,
            "truncate_overlap needs a binary overlap function",
            id="truncate-a-grouping",
        ),
        pytest.param(
            lambda: ok.dual(ok.make_gon(ok.catalog("GO_max"), ok.make_standard()), ok.make_standard()),
            ok.PreconditionError,
            "dual expects a FusionFunction",
            id="dual-of-an-implication",
        ),
        pytest.param(
            lambda: ok.grouping_from(_ternary(), ok.make_standard()),
            ok.PreconditionError,
            "grouping_from needs a binary function",
            id="grouping-from-a-ternary",
        ),
        pytest.param(
            lambda: ok.check_axioms(ok.catalog("O_min"), "X"),
            ok.PreconditionError,
            "unknown axiom set 'X' (want O|G|GO|T)",
            id="unknown-axiom-set",
        ),
        pytest.param(
            lambda: ok.check_associativity(_ternary()),
            ok.PreconditionError,
            "associativity applies to binary functions",
            id="associativity-of-a-ternary",
        ),
        pytest.param(
            lambda: ok.find_neutral(_ternary()),
            ok.PreconditionError,
            "find_neutral applies to binary functions",
            id="neutral-of-a-ternary",
        ),
        pytest.param(
            lambda: ok.check_axioms(ok.catalog("O_min"), "O").check("X"),
            KeyError,
            "'X'",
            id="report-check-unknown",
        ),
    ],
)
def test_each_refusal_names_what_it_refuses(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert str(raised.value) == message
