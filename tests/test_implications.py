"""Seven implication constructions, axiom checks, and crisp classification."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import overlapkit as ok
from overlapkit.numerics import _max, _vectorized, _where

from conftest import BINARY_ENTRIES

CLOSED_FORM_TOL = 1e-12
RECOVER_TOL = 2e-8


def _gon_max_closed_form(x: float, y: float) -> float:
    # N_Z(GO_max(x, N_Z(y))) simplifies to min(1, 1 - x^2 - y^2 + 2y)
    return min(1.0, 1.0 - x * x - y * y + 2 * y)


def test_gon_closed_form_example():
    imp = ok.make_gon(ok.catalog("GO_max"), ok.make_standard())
    assert float(imp(0.6, 0.2)) == pytest.approx(1.0, abs=CLOSED_FORM_TOL)
    for x, y in ok.pair_points(ok.DEFAULT_CONFIG):
        assert abs(float(imp(x, y)) - _gon_max_closed_form(x, y)) <= CLOSED_FORM_TOL


def test_gon_rejects_grouping():
    with pytest.raises(ok.PreconditionError):
        ok.make_gon(ok.grouping_max(), ok.make_standard())


def test_gn_probsum_value():
    imp = ok.make_gn(ok.grouping_probsum(), ok.make_standard())
    # I(x, y) = 1 - x(1-y)
    assert float(imp(0.5, 0.5)) == pytest.approx(0.75, abs=1e-12)
    assert float(imp(1.0, 0.0)) == 0.0
    assert float(imp(0.0, 0.0)) == 1.0


def test_gn_requires_grouping():
    with pytest.raises(ok.PreconditionError):
        ok.make_gn(ok.catalog("O_min"), ok.make_standard())


def test_ql_values():
    imp = ok.make_ql(ok.catalog("O_P", p=2), ok.grouping_max())
    # below x = 1 the top negation forces the value 1
    assert float(imp(0.999, 0.0)) == 1.0
    assert float(imp(0.3, 0.8)) == 1.0
    # at x = 1: G(0, O(1, y))
    assert float(imp(1.0, 0.5)) == pytest.approx(0.25, abs=1e-12)
    assert float(imp(1.0, 0.0)) == 0.0
    assert float(imp(1.0, 1.0)) == 1.0


def test_d_values():
    imp = ok.make_d(ok.grouping_max())
    assert float(imp(1.0, 0.4)) == pytest.approx(0.4, abs=1e-12)
    assert float(imp(0.4, 0.4)) == 1.0
    assert float(imp(0.0, 0.0)) == 1.0


def test_tn_is_kleene_dienes_for_min():
    imp = ok.make_tn(ok.catalog("O_min"), ok.make_standard())
    for x, y in ((0.0, 0.0), (0.3, 0.8), (0.5, 0.5), (1.0, 0.25)):
        assert float(imp(x, y)) == pytest.approx(max(1 - x, y), abs=1e-12)


def test_tn_rejects_grouping():
    with pytest.raises(ok.PreconditionError):
        ok.make_tn(ok.grouping_max(), ok.make_standard())


def test_residual_goguen_values():
    imp = ok.make_residual(ok.catalog("O_P", p=1))
    assert float(imp(0.5, 0.2)) == pytest.approx(0.4, abs=1e-8)
    assert float(imp(0.0, 0.5)) == 1.0
    assert float(imp(0.3, 0.8)) == 1.0


def test_residual_godel_values():
    imp = ok.make_residual(ok.catalog("O_min"))
    assert float(imp(0.7, 0.3)) == pytest.approx(0.3, abs=1e-8)
    assert float(imp(0.2, 0.9)) == 1.0


def test_crisp_family_truth_tables():
    a, b = 0.5, 0.5
    c1 = ok.make_crisp_family("C1", a, b)
    c2 = ok.make_crisp_family("C2", a, b)
    c3 = ok.make_crisp_family("C3", a, b)
    c4 = ok.make_crisp_family("C4", a, b)
    # C1 drops to 0 when x >= alpha and y <= beta; boundaries included
    assert float(c1(0.5, 0.5)) == 0.0
    assert float(c1(0.4999, 0.5)) == 1.0
    assert float(c1(0.5, 0.5001)) == 1.0
    # C2 requires strict crossings on both sides
    assert float(c2(0.5, 0.5)) == 1.0
    assert float(c2(0.5001, 0.4999)) == 0.0
    # C3 mixes: x boundary included, y strict
    assert float(c3(0.5, 0.5)) == 1.0
    assert float(c3(0.5, 0.4999)) == 0.0
    # C4 mixes the other way: x strict, y boundary included
    assert float(c4(0.5001, 0.5)) == 0.0
    assert float(c4(0.5, 0.5)) == 1.0
    assert float(c4(0.5001, 0.5001)) == 1.0


@pytest.mark.parametrize(
    "kind, alpha, beta",
    [
        ("C1", 0.0, 0.5),  # C1 needs alpha in (0,1]
        ("C1", 0.5, 1.0),  # and beta in [0,1)
        ("C2", 1.0, 0.5),
        ("C2", 0.5, 0.0),
        ("C3", 0.0, 0.5),
        ("C3", 0.5, 0.0),
        ("C4", 1.0, 0.5),
        ("C4", 0.5, 1.0),
        ("C9", 0.5, 0.5),
    ],
)
def test_crisp_family_param_ranges(kind, alpha, beta):
    with pytest.raises(ok.PreconditionError):
        ok.make_crisp_family(kind, alpha, beta)


def test_implication_corners(binary_catalog, negations):
    for go in binary_catalog:
        for n in negations:
            imp = ok.make_gon(go, n)
            assert float(imp(0.0, 0.0)) == pytest.approx(1.0, abs=1e-9)
            assert float(imp(1.0, 1.0)) == pytest.approx(1.0, abs=1e-9)
            assert float(imp(1.0, 0.0)) == pytest.approx(0.0, abs=1e-9)


def test_axioms_all_families(coarse):
    nz = ok.make_standard()
    instances = [
        ok.make_gon(ok.catalog("GO_max"), nz),
        ok.make_gn(ok.grouping_max(), nz),
        ok.make_ql(ok.catalog("O_min"), ok.grouping_max()),
        ok.make_d(ok.grouping_probsum()),
        ok.make_tn(ok.catalog("O_min"), nz),
        ok.make_crisp_family("C3", 0.5, 0.5),
    ]
    for imp in instances:
        rep = ok.check_implication_axioms(imp)
        assert rep.passed, f"{imp.label}: {rep.summary()}"
    rep = ok.check_implication_axioms(ok.make_residual(ok.catalog("O_P", p=1), coarse), coarse)
    assert rep.passed


def test_axioms_detect_monotonicity_violation():
    broken = ok.Implication(
        fn=lambda x, y: x * (1 - y),  # increasing in x, decreasing in y
        label="broken",
        family="gn",
    )
    rep = ok.check_implication_axioms(broken)
    assert not rep.passed
    assert not rep.check("I1").passed or not rep.check("I2").passed


def test_natural_negation_of_gon_min_is_standard():
    imp = ok.make_gon(ok.catalog("O_min"), ok.make_standard())
    nat = ok.natural_negation(imp)
    nz = ok.make_standard()
    for x in ok.sample_grid():
        assert abs(float(nat(x)) - float(nz(x))) <= 1e-12


def test_natural_negation_of_crisp():
    nat = ok.natural_negation(ok.make_crisp_family("C3", 0.5, 0.5))
    assert float(nat(0.4999)) == 1.0
    assert float(nat(0.5)) == 0.0


def test_recover_go_examples():
    nz = ok.make_standard()
    rec = ok.recover_go(ok.make_gon(ok.catalog("GO_max"), nz), nz)
    assert float(rec(0.8, 0.9)) == pytest.approx(0.45, abs=RECOVER_TOL)
    rec = ok.recover_go(ok.make_gon(ok.catalog("O_P", p=1), nz), nz)
    assert float(rec(0.8, 0.9)) == pytest.approx(0.72, abs=RECOVER_TOL)
    assert rec.role == "general_overlap"


COARSE = ok.CheckConfig(grid_resolution=21, random_samples=40)


def _recovery(name: str, params: dict, p: float):
    """compare(GO, recover_go(gon(GO, power:p), power:p)) at COARSE."""
    go, negation = ok.catalog(name, **params), ok.make_power_strict(p)
    return ok.compare(go, ok.recover_go(ok.make_gon(go, negation), negation, COARSE), COARSE)


@settings(max_examples=30)
@given(entry=st.sampled_from(BINARY_ENTRIES), p=st.floats(min_value=0.75, max_value=2.0))
def test_recover_go_within_twice_bisect_tol_for_moderate_powers(entry, p):
    assert _recovery(*entry, p).deviation <= 2 * COARSE.bisect_tol


# The misses recover_go's docstring documents: power:p whose inverse is
# ill-conditioned in floats, measured at COARSE.
@pytest.mark.parametrize(
    "name, params, p, deviation",
    [
        ("O_P", {"p": 2}, 3.0, "5.1e-07"),
        ("O_mM", {}, 5.0, "0.0005"),
        ("O_mM", {}, 8.0, "0.009"),
        ("GO_TL", {"p": 2}, 0.5, "3.9e-08"),
        ("GO_TL", {"p": 2}, 0.3, "3.5e-06"),
    ],
)
def test_recover_go_misses_where_the_inverse_is_ill_conditioned(name, params, p, deviation):
    got = _recovery(name, params, p).deviation
    assert got > 2 * COARSE.bisect_tol
    assert f"{got:.2g}" == deviation


def test_recover_go_requires_strict():
    imp = ok.make_gon(ok.catalog("O_min"), ok.make_crisp("upper", 0.5))
    with pytest.raises(ok.PreconditionError):
        ok.recover_go(imp, ok.make_crisp("upper", 0.5))


def test_classify_crisp_canonical_cases():
    nz = ok.make_standard()
    cases = [
        (ok.make_gon(ok.catalog("O_min"), ok.make_crisp("upper", 0.5)), ("C3", 0.5, 0.5)),
        (ok.make_gon(ok.catalog("O_min"), ok.make_crisp("lower", 0.5)), ("C4", 0.5, 0.5)),
        (ok.make_gon(ok.catalog("GO_max"), ok.make_crisp("lower", 0.25)), ("C4", 0.5, 0.25)),
        (ok.make_gon(ok.catalog("GO_TL", p=2), ok.make_crisp("upper", 0.125)), ("C3", 0.5, 0.125)),
    ]
    for imp, expected in cases:
        fit = ok.classify_crisp(imp)
        assert fit is not None, imp.label
        assert (fit.kind, fit.alpha, fit.beta) == expected, imp.label


def test_classify_crisp_none_for_continuous():
    imp = ok.make_gon(ok.catalog("GO_max"), ok.make_standard())
    assert ok.classify_crisp(imp) is None


def test_classify_crisp_roundtrip():
    for kind, a, b in (("C1", 0.5, 0.0), ("C2", 0.0, 1.0), ("C3", 0.5, 0.5), ("C4", 0.5, 0.25)):
        fit = ok.classify_crisp(ok.make_crisp_family(kind, a, b))
        assert fit == ok.CrispFit(kind, a, b)


def test_crisp_gon_instances_are_two_valued(coarse):
    imp = ok.make_gon(ok.catalog("O_min"), ok.make_crisp("upper", 0.5))
    for x, y in ok.pair_points(coarse):
        assert float(imp(x, y)) in (0.0, 1.0)


def test_gon_gn_duality_instance():
    # gn over the dual grouping with the inverse negation reproduces gon
    nz = ok.make_standard()
    lhs = ok.make_gon(ok.catalog("O_P", p=1), nz)
    rhs = ok.make_gn(ok.grouping_from(ok.catalog("O_P", p=1), nz), ok.inverse_negation(nz))
    assert ok.compare(lhs, rhs).deviation <= 2e-8


@pytest.mark.parametrize("name, params", BINARY_ENTRIES)
def test_gon_well_formed_for_every_binary_entry(name, params):
    imp = ok.make_gon(ok.catalog(name, **params), ok.make_standard())
    assert ok.check_implication_axioms(imp).passed


# --- refusals ---------------------------------------------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: ok.Implication(fn=min, label="i", family="foo"),
            "unknown implication family 'foo'",
            id="unknown-family",
        ),
        pytest.param(
            lambda: ok.make_gon(ok.catalog("GO_PN", n=3), ok.make_standard()),
            "make_gon needs a binary FusionFunction",
            id="gon-of-a-ternary",
        ),
        pytest.param(
            lambda: ok.make_ql(ok.grouping_probsum(), ok.grouping_probsum()),
            "make_ql needs an overlap-role connective",
            id="ql-with-a-grouping-as-O",
        ),
        pytest.param(
            lambda: ok.make_ql(ok.catalog("O_min"), ok.catalog("O_min")),
            "make_ql needs a grouping function",
            id="ql-with-an-overlap-as-G",
        ),
        pytest.param(
            lambda: ok.make_residual(ok.grouping_probsum()),
            "make_residual needs a conjunctive connective",
            id="residual-of-a-grouping",
        ),
        pytest.param(
            lambda: ok.make_d(ok.catalog("O_min")), "make_d needs a grouping function", id="d-of-an-overlap"
        ),
    ],
)
def test_each_refusal_names_what_it_refuses(call, message):
    with pytest.raises(ok.PreconditionError) as raised:
        call()
    assert type(raised.value) is ok.PreconditionError
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "call, who",
    [
        (lambda n: ok.make_gon(ok.catalog("O_min"), n), "make_gon"),
        (lambda n: ok.make_tn(ok.catalog("O_min"), n), "make_tn"),
        (lambda n: ok.make_gn(ok.grouping_max(), n), "make_gn"),
        (lambda n: ok.dual(ok.catalog("O_min"), n), "dual"),
    ],
    ids=["gon", "tn", "gn", "dual"],
)
@pytest.mark.parametrize("negation", [ok.catalog("O_min"), lambda x: 1.0 - x], ids=["connective", "function"])
def test_a_constructor_refuses_a_negation_that_is_not_a_negation(call, who, negation):
    # Refused when built, not when first evaluated with the wrong argument count.
    with pytest.raises(ok.PreconditionError) as raised:
        call(negation)
    assert type(raised.value) is ok.PreconditionError
    assert str(raised.value) == f"{who} needs a Negation"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ok.inverse_negation(ok.catalog("O_min")), "inverse_negation needs a Negation"),
        (lambda: ok.classify(ok.catalog("O_min")), "classify needs a Negation"),
        (
            lambda: ok.check_commutes(
                ok.make_aggregation("mean", 2), ok.OperatorFamily(members=(ok.catalog("GO_max"),)), ok.catalog("O_min")
            ),
            "classify needs a Negation",
        ),
        (lambda: ok.truncate_overlap(ok.make_standard(), 0.5), "truncate_overlap needs a binary overlap function"),
    ],
    ids=["inverse_negation", "classify", "check_commutes", "truncate_overlap"],
)
def test_a_function_refuses_an_argument_of_the_wrong_kind(call, message):
    with pytest.raises(ok.PreconditionError) as raised:
        call()
    assert type(raised.value) is ok.PreconditionError
    assert str(raised.value) == message


def test_classify_crisp_finds_no_fit_for_a_threshold_that_never_switches():
    # I(x, 0) = 1 everywhere: the alpha bisection has no switch to find.
    one = ok.Implication(fn=_vectorized(lambda x, y: _max(1.0, x)), label="one", family="crisp")
    assert ok.classify_crisp(one) is None


def test_classify_crisp_finds_no_fit_when_no_corner_family_agrees():
    # Zero exactly where x - y > 1/2: two-valued, and it switches at 1/2 on both edges, but its zero
    # region is a triangle, so the corner family fitted there differs from it at (0.6, 0.4).
    fn = _vectorized(lambda x, y: _where(x - y > 0.5, 0.0, 1.0))
    triangle = ok.Implication(fn=fn, label="triangle", family="crisp")
    assert ok.classify_crisp(triangle) is None
