"""Named implication properties, contraposition laws, and comparisons."""

from __future__ import annotations

from dataclasses import replace

import pytest

import overlapkit as ok
from overlapkit import numerics

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
