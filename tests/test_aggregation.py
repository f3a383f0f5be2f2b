"""Aggregation of operator families and commutation with the gon construction."""

from __future__ import annotations

import pytest

import overlapkit as ok


def test_make_aggregation_names():
    for name in ok.AGGREGATION_NAMES:
        agg = ok.make_aggregation(name, arity=3)
        assert agg.arity == 3
        assert agg.role == "aggregation"
    with pytest.raises(ok.PreconditionError):
        ok.make_aggregation("median")


def test_aggregation_values():
    mean = ok.make_aggregation("mean", 2)
    assert float(mean(0.2, 0.8)) == pytest.approx(0.5, abs=1e-12)
    assert float(ok.make_aggregation("min", 3)(0.4, 0.2, 0.9)) == 0.2
    assert float(ok.make_aggregation("max", 2)(0.4, 0.2)) == 0.4
    assert float(ok.make_aggregation("product", 2)(0.5, 0.5)) == 0.25


def test_family_validation():
    with pytest.raises(ok.PreconditionError):
        ok.OperatorFamily(members=())
    with pytest.raises(ok.PreconditionError):
        ok.OperatorFamily(members=(ok.catalog("O_min"), ok.catalog("GO_PN", n=3)))
    nz = ok.make_standard()
    with pytest.raises(ok.PreconditionError):
        ok.OperatorFamily(members=(ok.catalog("O_min"), ok.make_gon(ok.catalog("O_min"), nz)))


def test_family_metadata():
    fam = ok.OperatorFamily(members=[ok.catalog("GO_max"), ok.catalog("O_P", p=2)])
    assert fam.size == 2
    assert fam.arity == 2
    assert fam.kind == "fusion"


def test_aggregate_idempotent_family():
    fam = ok.OperatorFamily(members=(ok.catalog("O_min"), ok.catalog("O_min")))
    agg = ok.aggregate(ok.make_aggregation("mean", 2), fam)
    assert ok.compare(agg, ok.catalog("O_min")).deviation == 0.0


def test_aggregate_mean_value():
    fam = ok.OperatorFamily(members=(ok.catalog("O_P", p=1), ok.catalog("O_min")))
    agg = ok.aggregate(ok.make_aggregation("mean", 2), fam)
    assert float(agg(0.5, 0.5)) == pytest.approx(0.375, abs=1e-12)


def test_aggregate_min_boundary():
    fam = ok.OperatorFamily(members=(ok.catalog("GO_max"), ok.catalog("GO_TL", p=2)))
    agg = ok.aggregate(ok.make_aggregation("min", 2), fam)
    assert float(agg(1.0, 1.0)) == 1.0


def test_aggregate_arity_mismatch():
    fam = ok.OperatorFamily(members=(ok.catalog("O_min"), ok.catalog("O_P", p=1)))
    with pytest.raises(ok.PreconditionError):
        ok.aggregate(ok.make_aggregation("mean", 3), fam)


def test_aggregated_implications_stay_implications():
    nz = ok.make_standard()
    fam = ok.OperatorFamily(
        members=(ok.make_gon(ok.catalog("GO_max"), nz), ok.make_gon(ok.catalog("O_P", p=2), nz))
    )
    agg = ok.aggregate(ok.make_aggregation("mean", 2), fam)
    assert agg.family == "agg"
    assert ok.check_implication_axioms(agg).passed


def test_aggregate_go_passes_axioms():
    fam = ok.OperatorFamily(members=(ok.catalog("GO_max"), ok.catalog("O_P", p=2)))
    agg = ok.aggregate_go(ok.make_aggregation("mean", 2), fam)
    assert agg.role == "general_overlap"
    assert ok.check_axioms(agg, "GO").passed
    assert float(agg(0.0, 0.7)) == 0.0
    assert float(agg(1.0, 1.0)) == 1.0


def test_aggregate_go_rejects_failing_member():
    # arity-2 sum-gated product fails the continuity heuristic, so the
    # lemma's hypothesis is not met and the constructor refuses
    fam = ok.OperatorFamily(members=(ok.catalog("GO_max"), ok.catalog("GO_PN", n=2)))
    with pytest.raises(ok.PreconditionError) as err:
        ok.aggregate_go(ok.make_aggregation("mean", 2), fam)
    assert "GO5" in str(err.value)


def test_dual_aggregation_keeps_axioms(coarse):
    nz = ok.make_standard()
    for name in ok.AGGREGATION_NAMES:
        agg = ok.make_aggregation(name, 2)
        d = ok.dual(agg, nz)
        assert float(d(0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)
        assert float(d(1.0, 1.0)) == pytest.approx(1.0, abs=1e-12)
        grid = sorted(ok.sample_grid(coarse))
        for x in grid:
            prev = None
            for y in grid:
                v = float(d(x, y))
                if prev is not None:
                    assert v >= prev - 1e-12
                prev = v


def test_check_commutes_mean_and_min():
    nz = ok.make_standard()
    gos = ok.OperatorFamily(members=(ok.catalog("GO_max"), ok.catalog("O_P", p=2)))
    for name in ("mean", "min"):
        rep = ok.check_commutes(ok.make_aggregation(name, 2), gos, nz)
        assert rep.holds, rep.summary()


def test_check_commutes_more_combinations():
    nz = ok.make_standard()
    gos = ok.OperatorFamily(members=(ok.catalog("O_min"), ok.catalog("O_P", p=1)))
    for name in ("max", "product"):
        rep = ok.check_commutes(ok.make_aggregation(name, 2), gos, nz)
        assert rep.holds, rep.summary()


def test_check_commutes_single_member_identity():
    nz = ok.make_standard()
    fam = ok.OperatorFamily(members=(ok.catalog("GO_max"),))
    rep = ok.check_commutes(ok.make_aggregation("mean", 1), fam, nz)
    assert rep.holds
    assert rep.witness is None


def test_check_commutes_requires_strong():
    fam = ok.OperatorFamily(members=(ok.catalog("GO_max"),))
    with pytest.raises(ok.PreconditionError):
        ok.check_commutes(ok.make_aggregation("mean", 1), fam, ok.make_power_strict(2))


def _step():
    return ok.FusionFunction(fn=lambda x, y: 1.0 if x > 0.5 else 0.0, arity=2, role="aggregation", label="step")


def _gons():
    nz = ok.make_standard()
    return ok.OperatorFamily((ok.make_gon(ok.catalog("GO_max"), nz), ok.make_gon(ok.catalog("O_min"), nz)))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: ok.make_aggregation("mean", 0), "aggregation arity must be >= 1", id="arity-0"
        ),
        pytest.param(
            lambda: ok.OperatorFamily((ok.make_standard(), ok.make_standard())),
            "unsupported family member types ['Negation']",
            id="family-of-negations",
        ),
        pytest.param(
            lambda: ok.aggregate(ok.make_standard(), ok.OperatorFamily((ok.catalog("O_min"),))),
            "aggregate needs a FusionFunction aggregation",
            id="aggregate-with-a-negation",
        ),
        pytest.param(
            lambda: ok.aggregate_go(ok.make_aggregation("mean"), _gons()),
            "aggregate_go needs a family of fusion functions",
            id="aggregate-go-of-implications",
        ),
        pytest.param(
            lambda: ok.aggregate_go(_step(), ok.OperatorFamily((ok.catalog("O_min"), ok.catalog("GO_max")))),
            "aggregation step fails the continuity heuristic at (0.5, 0.0)",
            id="aggregate-go-with-a-jump",
        ),
        pytest.param(
            lambda: ok.check_commutes(
                ok.make_aggregation("mean"), ok.OperatorFamily((ok.catalog("GO_PN", n=3),) * 2), ok.make_standard()
            ),
            "check_commutes needs a family of binary fusion functions",
            id="commutes-of-ternaries",
        ),
    ],
)
def test_each_refusal_names_what_it_refuses(call, message):
    with pytest.raises(ok.PreconditionError) as raised:
        call()
    assert type(raised.value) is ok.PreconditionError
    assert str(raised.value) == message
