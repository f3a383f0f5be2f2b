"""Named implication properties, contraposition laws, and comparisons."""

from __future__ import annotations

from dataclasses import replace

import pytest

import numpy as np
import overlapkit as ok
from overlapkit import cli, numerics, properties
from overlapkit.properties import CP_VARIANTS, EP_VARIANTS, UNARY_PROPERTIES

from conftest import BINARY_ENTRIES, NEGATION_CATALOG


def _gon(name, negation, **params):
    return ok.make_gon(ok.catalog(name, **params), negation)


# --- unary properties -------------------------------------------------------


def test_np_for_gn_max():
    imp = ok.make_gn(ok.grouping_max(), ok.make_standard())
    assert ok.check_unary_property(imp, "NP").holds


def test_crisp_gon_property_profile():
    # two-valued instance built from min and an upper-threshold negation
    imp = _gon("O_min", ok.make_crisp("upper", 0.5))
    assert ok.check_unary_property(imp, "LOP").holds
    assert ok.check_unary_property(imp, "IP").holds
    assert ok.check_unary_property(imp, "IB").holds
    rop = ok.check_unary_property(imp, "ROP")
    assert not rop.holds
    assert rop.witness is not None
    x, y = rop.witness.point
    assert x > y and float(imp(x, y)) >= 1.0 - 1e-9


def test_rop_holds_for_strict_instances():
    assert ok.check_unary_property(_gon("O_min", ok.make_standard()), "ROP").holds


def test_failing_report_carries_witness():
    rep = ok.check_unary_property(_gon("O_V", ok.make_standard()), "NP")
    assert not rep.holds
    assert rep.witness is not None
    assert rep.witness.deviation > 1e-9
    assert rep.samples_checked > 0


def test_report_truthiness_and_serialization():
    rep = ok.check_unary_property(_gon("O_min", ok.make_standard()), "NP")
    assert rep.holds and bool(rep)
    d = rep.as_dict()
    assert d["property"] == "NP"
    assert d["status"] == "holds_on_grid"
    assert d["witness"] is None


# --- exchange principle -----------------------------------------------------


def test_ep_holds_for_associative_core():
    assert ok.check_ep(_gon("O_min", ok.make_standard()), "EP").holds


def test_ep_fails_for_go_max_with_triple_witness():
    rep = ok.check_ep(_gon("GO_max", ok.make_standard()), "EP")
    assert not rep.holds
    assert rep.witness is not None
    assert len(rep.witness.point) == 3


def _scan_blocks(report) -> list[int]:
    """The lengths of the blocks of a scan that visited report.samples_checked points."""
    blocks = numerics._blocks(report.samples_checked, numerics.FIRST_BLOCK, numerics.SCAN_BLOCK)
    return [stop - start for start, stop in blocks]


@pytest.mark.parametrize("variant", EP_VARIANTS)
def test_ep_evaluates_each_block_in_two_implication_calls(variant, monkeypatch):
    calls = []
    values = ok.Implication.values
    monkeypatch.setattr(ok.Implication, "values", lambda self, *xs: calls.append(len(xs[0])) or values(self, *xs))
    report = ok.check_ep(_gon("O_min", ok.make_standard()), variant)
    assert report.holds
    # Each call evaluates both points of a block's sides: I(y, z) and I(x, z), then the two outer calls.
    assert calls == [2 * n for n in _scan_blocks(report) for _ in range(2)]


def test_ep1_for_frontier_negation():
    # product keeps GO2a, and the standard negation is frontier
    assert ok.check_ep(_gon("O_P", ok.make_standard(), p=1), "EP1").holds


# --- contraposition ---------------------------------------------------------


def test_lcp_for_all_gon_instances(binary_catalog, negations):
    for go in binary_catalog:
        for n in negations:
            imp = ok.make_gon(go, n)
            assert ok.check_contraposition(imp, n, "LCP").holds, (go.label, n.label)


def test_cp_for_strong_negation(binary_catalog):
    nz = ok.make_standard()
    for go in binary_catalog:
        assert ok.check_contraposition(ok.make_gon(go, nz), nz, "CP").holds, go.label


def test_rcp_with_numeric_inverse():
    for make in (ok.make_standard, lambda: ok.make_power_strict(2)):
        n = make()
        imp = _gon("O_min", n)
        inv = ok.inverse_negation(n)
        assert ok.check_contraposition(imp, inv, "RCP", config=replace(ok.DEFAULT_CONFIG, eq_tol=2e-8)).holds


def test_ql_fails_lcp_for_every_catalog_negation():
    imp = ok.make_ql(ok.catalog("O_min"), ok.grouping_max())
    for _, make in NEGATION_CATALOG:
        rep = ok.check_contraposition(imp, make(), "LCP")
        assert not rep.holds
        assert rep.witness is not None


# Lukasiewicz's implication, a formula of its own: it calls no negation, so every N call counted is the scan's.
_LUKASIEWICZ = ok.Implication(
    fn=numerics._vectorized(lambda x, y: numerics._min(1.0, 1.0 - x + y)), label="lukasiewicz", family="gon"
)


@pytest.mark.parametrize("variant", CP_VARIANTS)
def test_contraposition_evaluates_each_block_in_one_negation_and_one_implication_call(variant, monkeypatch):
    calls = {"N": [], "I": []}
    for cls, key in ((ok.Negation, "N"), (ok.Implication, "I")):
        values = cls.values
        monkeypatch.setattr(
            cls, "values", lambda self, *xs, _v=values, _k=key: calls[_k].append(len(xs[0])) or _v(self, *xs)
        )
    report = ok.check_contraposition(_LUKASIEWICZ, ok.make_standard(), variant)
    assert report.holds
    # N on y and x joined, then I on the two sides' arguments joined.
    want = [2 * n for n in _scan_blocks(report)]
    assert calls == {"N": want, "I": want}


def test_a_grid_101_pair_scan_runs_four_blocks_of_at_most_4096_points():
    report = ok.check_contraposition(_LUKASIEWICZ, ok.make_standard(), "CP")
    assert report.holds and report.samples_checked == 101**2 + ok.DEFAULT_CONFIG.random_samples // 2
    # A joined call then stays within 8192 points.
    assert _scan_blocks(report) == [1024, 2048, 4096, 10301 - 7168]


def test_cp_report_symmetric_under_role_swap():
    nz = ok.make_standard()
    imp = _gon("O_P", nz, p=2)
    direct = ok.check_contraposition(imp, nz, "CP")
    swapped = ok.check_contraposition(
        ok.Implication(fn=lambda x, y: float(imp(x, y)), label="swap", family="gon"),
        nz,
        "CP",
    )
    assert direct.holds == swapped.holds


# --- one entry point --------------------------------------------------------

SMALL = ok.CheckConfig(grid_resolution=11, random_samples=5)
REPORT_IDS = ("NP", "IP", "LOP", "ROP", "IB", "EP", "EP1", "CP", "L-CP", "R-CP")
# Hyphenless id -> the report of the group checker that scans it.
GROUP_REPORT = {
    **dict.fromkeys(UNARY_PROPERTIES, lambda imp, v, neg: ok.check_unary_property(imp, v, SMALL)),
    **dict.fromkeys(EP_VARIANTS, lambda imp, v, neg: ok.check_ep(imp, v, SMALL)),
    **dict.fromkeys(CP_VARIANTS, lambda imp, v, neg: ok.check_contraposition(imp, neg, v, SMALL)),
}


@pytest.mark.parametrize("pid", REPORT_IDS)
@pytest.mark.parametrize(
    "go, negation",
    [("O_min", ok.make_standard()), ("GO_max", ok.make_power_strict(2.0)), ("O_V", ok.make_crisp("upper", 0.5))],
    ids=["O_min-zadeh", "GO_max-power", "O_V-crisp"],
)
def test_check_property_reports_what_the_group_checker_reports(pid, go, negation):
    imp = ok.make_gon(ok.catalog(go), negation)
    variant = pid.replace("-", "")
    expected = GROUP_REPORT[variant](imp, variant, negation).as_dict()
    assert expected["property"] == pid
    for spelling in (pid, variant):
        assert ok.check_property(imp, spelling, negation, SMALL).as_dict() == expected


@pytest.mark.parametrize(
    "checker, args, prop",
    [
        (ok.check_unary_property, (), "EP"),
        (ok.check_unary_property, (), "LCP"),
        (ok.check_ep, (), "NP"),
        (ok.check_ep, (), "CP"),
        (ok.check_contraposition, (ok.make_standard(),), "NP"),
        (ok.check_contraposition, (ok.make_standard(),), "EP1"),
        (ok.check_contraposition, (ok.make_standard(),), "L-CP"),
    ],
)
def test_group_checkers_refuse_ids_outside_their_group(checker, args, prop):
    imp = _gon("O_min", ok.make_standard())
    with pytest.raises(ok.PreconditionError, match="unknown"):
        checker(imp, *args, prop, SMALL)


@pytest.mark.parametrize("prop", ["EP2", "np", "L-C-P", "", "all"])
def test_check_property_refuses_an_unknown_name(prop):
    with pytest.raises(ok.PreconditionError, match="unknown property"):
        ok.check_property(_gon("O_min", ok.make_standard()), prop, ok.make_standard(), SMALL)


@pytest.mark.parametrize("prop", ["CP", "L-CP", "LCP", "R-CP", "RCP"])
def test_contraposition_without_a_negation_is_a_precondition_error(prop):
    imp = _gon("O_min", ok.make_standard())
    with pytest.raises(ok.PreconditionError, match="needs a negation"):
        ok.check_property(imp, prop, None, SMALL)
    if "-" not in prop:
        with pytest.raises(ok.PreconditionError, match="needs a negation"):
            ok.check_contraposition(imp, None, prop, SMALL)


def test_properties_without_a_negation_ignore_it():
    imp = _gon("O_min", ok.make_standard())
    for pid in UNARY_PROPERTIES + EP_VARIANTS:
        assert ok.check_property(imp, pid, config=SMALL) == ok.check_property(imp, pid, ok.make_top(), SMALL)


# --- proposition suite ------------------------------------------------------


def test_prop_strong_np_iff_neutral_one(binary_catalog):
    nz = ok.make_standard()
    for go in binary_catalog:
        neutral = ok.find_neutral(go)
        expected = neutral is not None and abs(neutral - 1.0) <= 1e-9
        got = ok.check_unary_property(ok.make_gon(go, nz), "NP").holds
        assert got == expected, go.label


def test_prop_strong_ep_iff_associative(binary_catalog):
    nz = ok.make_standard()
    for go in binary_catalog:
        expected = ok.check_associativity(go).passed
        got = ok.check_ep(ok.make_gon(go, nz), "EP").holds
        assert got == expected, go.label


def test_prop_crisp_profile_with_neutral_one():
    # both crisp threshold families over a neutral-1 overlap
    for n in (ok.make_crisp("upper", 0.5), ok.make_crisp("lower", 0.5)):
        imp = _gon("O_min", n)
        for prop in ("IP", "LOP", "IB"):
            assert ok.check_unary_property(imp, prop).holds, prop
        assert ok.check_ep(imp, "EP").holds
        assert ok.check_contraposition(imp, n, "CP").holds
        assert ok.check_contraposition(imp, n, "RCP").holds
        assert not ok.check_unary_property(imp, "NP").holds
        assert not ok.check_unary_property(imp, "ROP").holds


def test_prop_frontier_ep1():
    for name, params in (("O_P", {"p": 1}), ("O_min", {}), ("O_mM", {})):
        imp = _gon(name, ok.make_standard(), **params)
        assert ok.check_ep(imp, "EP1").holds, name


def test_prop_ib_contrapositive():
    # squared product with the standard negation must break IB
    assert not ok.check_unary_property(_gon("O_P", ok.make_standard(), p=2), "IB").holds


# --- comparison and range ---------------------------------------------------


def test_compare_self_is_zero():
    imp = _gon("GO_max", ok.make_standard())
    c = ok.compare(imp, imp)
    assert c.deviation == 0.0


def test_compare_duality_instance():
    nz = ok.make_standard()
    lhs = _gon("O_P", nz, p=1)
    rhs = ok.make_gn(ok.grouping_from(ok.catalog("O_P", p=1), nz), ok.inverse_negation(nz))
    assert ok.compare(lhs, rhs).deviation <= 1e-9


def test_compare_separates_gn_top_from_gon(binary_catalog, negations):
    ref = ok.make_gn(ok.grouping_max(), ok.make_top())
    for go in binary_catalog[:3]:
        for n in negations[:2]:
            c = ok.compare(ref, ok.make_gon(go, n))
            assert c.deviation > 0.4


def test_range_is_proper_examples():
    assert ok.range_is_proper(ok.make_crisp_family("C3", 0.5, 0.5))
    assert not ok.range_is_proper(_gon("GO_max", ok.make_standard()))
    assert not ok.range_is_proper(ok.make_gn(ok.grouping_max(), ok.make_standard()))


def test_pair_and_triple_points_deterministic():
    a = list(ok.pair_points(ok.DEFAULT_CONFIG))
    b = list(ok.pair_points(ok.DEFAULT_CONFIG))
    assert a == b
    t = list(ok.triple_points(ok.CheckConfig(grid_resolution=11, random_samples=30)))
    assert t == list(ok.triple_points(ok.CheckConfig(grid_resolution=11, random_samples=30)))


def test_pair_and_triple_points_refuse_a_mesh_above_the_bound(monkeypatch):
    # The generators walk numerics._sample_mesh, so they refuse what every pairwise check refuses.
    monkeypatch.setattr(numerics, "MAX_GRID_POINTS", 100)
    cfg = ok.CheckConfig(grid_resolution=11, random_samples=0)
    with pytest.raises(ok.PreconditionError, match=r"arity 2 needs 11\^2 points, more than 100"):
        next(ok.pair_points(cfg))
    with pytest.raises(ok.PreconditionError, match=r"arity 3 needs 21\^3 points, more than 100"):
        next(ok.triple_points(cfg))


def test_range_is_proper_when_the_image_misses_an_end():
    # Image [0.5, 1]: no gap inside it, but it misses the end 0.
    upper = ok.Implication(fn=numerics._vectorized(lambda x, y: 0.5 + 0.5 * y), label="upper", family="gon")
    assert ok.range_is_proper(upper)


@pytest.mark.parametrize(
    "ids, message",
    [
        (["NP", "CP"], "CP needs a negation"),
        (["EP", "XX"], "unknown property 'XX' (want one of "
                       "['NP', 'IP', 'LOP', 'ROP', 'IB', 'EP', 'EP1', 'CP', 'LCP', 'RCP'])"),
    ],
    ids=["cp-without-negation", "unknown-id"],
)
@pytest.mark.parametrize("once", [iter, lambda ids: (p for p in ids)], ids=["iterator", "generator"])
def test_check_properties_reads_a_one_pass_iterable_of_ids_once(ids, message, once):
    # The one-by-one fallback must see the ids the shared walk saw, so a
    # one-pass iterable raises what the same ids as a list raise.
    imp = _gon("O_min", ok.make_standard())
    for pids in (ids, once(ids)):
        with pytest.raises(ok.PreconditionError) as raised:
            ok.check_properties(imp, pids)
        assert str(raised.value) == message


# --- one walk of every mesh ---------------------------------------------------

ALL_IDS = list(properties._PROPERTIES)
# The residual workload's props instances, with props' default negation.
RESIDUALS = ("ro(O_P:p=2)", "ro(O_min)", "ro(O_mM)", "ro(O_DB)")


@pytest.mark.parametrize("grid", [21, 101])
def test_check_properties_walks_without_falling_back_to_the_rows_one_by_one(grid, monkeypatch):
    # A walk of several meshes that raises is run again row by row, which
    # would hide the raise behind equal reports: with check_property
    # refusing, table2's columns and the residual instances must still pass.
    config = ok.CheckConfig(grid_resolution=grid)
    cases = [(i, n, ids) for i, n in cli.table2_instances() for ids in (cli.TABLE2_PROPERTIES, ALL_IDS)]
    cases += [(cli.parse_implication(e, config), ok.make_standard(), ALL_IDS) for e in RESIDUALS]
    want = [[properties.check_property(i, pid, n, config) for pid in ids] for i, n, ids in cases]

    def refused(*args):
        raise AssertionError("check_properties ran the rows one by one")

    monkeypatch.setattr(properties, "check_property", refused)
    assert [properties.check_properties(i, ids, n, config) for i, n, ids in cases] == want


def _counted(monkeypatch) -> dict:
    """Counts, while the test runs, of _bracket runs, the points they bisect and outermost Implication.values calls."""
    counts = {"brackets": 0, "points": 0, "calls": 0}
    bracket, values, depth = numerics._bracket, ok.Implication.values, [0]

    def counted_bracket(holds, tol, lo=0.0, fixed=()):
        counts["brackets"] += 1
        counts["points"] += len(fixed[0]) if fixed else np.size(lo)
        return bracket(holds, tol, lo, fixed)

    def counted_values(self, *xs):
        counts["calls"] += depth[0] == 0
        depth[0] += 1
        try:
            return values(self, *xs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(numerics, "_bracket", counted_bracket)
    monkeypatch.setattr(ok.Implication, "values", counted_values)
    return counts


@pytest.mark.parametrize(
    "expression, per_mesh, one_walk",
    [
        ("ro(O_DB)", {"brackets": 12, "points": 12295, "calls": 12}, {"brackets": 6, "points": 12295, "calls": 6}),
        ("tn(O_min, zadeh)", {"brackets": 0, "points": 0, "calls": 27}, {"brackets": 0, "points": 0, "calls": 19}),
    ],
)
def test_one_walk_of_every_mesh_makes_fewer_brackets_and_calls_than_a_walk_per_mesh(
    expression, per_mesh, one_walk, monkeypatch
):
    # props --prop all at the default config. A walk per mesh is how
    # check_properties walked before its meshes shared one walk: the counts
    # it pins are that walk's. One walk joins the calls of every mesh, so it
    # runs fewer bisections, on the same points, in fewer top-level calls.
    implication, negation = cli.parse_implication(expression), ok.make_standard()
    counts = _counted(monkeypatch)
    groups: dict = {}
    for pid in ALL_IDS:
        groups.setdefault(properties._PROPERTIES[pid].mesh, []).append(pid)
    walked = [r for group in groups.values() for r in properties._scan(implication, [group], negation, ok.DEFAULT_CONFIG)]
    assert counts == per_mesh
    counts.update(brackets=0, points=0, calls=0)
    reports = properties.check_properties(implication, ALL_IDS, negation)
    assert counts == one_walk
    assert reports == sorted(walked, key=lambda r: ALL_IDS.index(r.property_id))
    assert one_walk["calls"] < per_mesh["calls"] and one_walk["points"] == per_mesh["points"]
    assert one_walk["brackets"] < per_mesh["brackets"] or per_mesh["brackets"] == 0
