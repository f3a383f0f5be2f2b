"""Acceptance gate: twelve criteria, one printed verdict line each.

Tolerances are pinned where each criterion states them: exact-identity
checks at eq_tol = 1e-9, closed forms at 1e-12, single bisections at
1e-8, composed bisections at 2e-8.
"""

from __future__ import annotations

import csv
import io
from dataclasses import replace

import pytest

import overlapkit as ok
from overlapkit.cli import run

from conftest import BINARY_ENTRIES, CATALOG_ENTRIES, OVERLAP_ENTRIES

EQ_TOL = 1e-9
CLOSED_FORM_TOL = 1e-12
BISECT_TOL = 1e-8
COMPOSED_TOL = 2e-8

ROLE_TO_SET = {"overlap": "O", "general_overlap": "GO"}


@pytest.fixture
def announce(capsys):
    def _announce(num: int, desc: str, passed: bool, detail: str = ""):
        with capsys.disabled():
            print(f"{'PASS' if passed else 'FAIL'}: criterion {num:02d} - {desc}")
        assert passed, detail or desc

    return _announce


def test_criterion_01_catalog_axioms(announce):
    assert ok.DEFAULT_CONFIG.eq_tol == EQ_TOL
    problems = []
    for name, params in CATALOG_ENTRIES:
        f = ok.catalog(name, **params)
        rep = ok.check_axioms(f, ROLE_TO_SET[f.role])
        if not rep.passed:
            problems.append(f"{f.label} fails {rep.as_dict()}")
    for name in ("GO_max", "GO_TL"):
        f = ok.catalog(name, p=2) if name == "GO_TL" else ok.catalog(name)
        o2 = ok.check_axioms(f, "O").check("O2")
        if o2.passed or o2.witness is None:
            problems.append(f"{f.label} should fail O2 with a witness")
    announce(
        1,
        "all nine named entries pass their claimed axiom sets; the two "
        "general-overlap-only entries fail O2 with witnesses",
        not problems,
        "; ".join(problems),
    )


def test_criterion_02_closed_form(announce):
    imp = ok.make_gon(ok.catalog("GO_max"), ok.make_standard())
    worst = max(
        abs(float(imp(x, y)) - min(1.0, 1.0 - x * x - y * y + 2 * y))
        for x, y in ok.pair_points(ok.DEFAULT_CONFIG)
    )
    announce(
        2,
        "thresholded-sum implication matches its closed form within 1e-12",
        worst <= CLOSED_FORM_TOL,
        f"max deviation {worst:.3e}",
    )


def test_criterion_03_crisp_classification(announce):
    cases = [
        (ok.make_gon(ok.catalog("O_min"), ok.make_crisp("upper", 0.5)), ("C3", 0.5, 0.5)),
        (ok.make_gon(ok.catalog("O_min"), ok.make_crisp("lower", 0.5)), ("C4", 0.5, 0.5)),
    ]
    problems = []
    mesh = list(ok.pair_points(ok.DEFAULT_CONFIG))
    for imp, expected in cases:
        if any(float(imp(x, y)) not in (0.0, 1.0) for x, y in mesh):
            problems.append(f"{imp.label} is not two-valued")
        fit = ok.classify_crisp(imp)
        if fit is None or (fit.kind, fit.alpha, fit.beta) != expected:
            problems.append(f"{imp.label}: got {fit}, want {expected}")
    announce(
        3,
        "threshold implications are two-valued and classify to the exact "
        "case splits",
        not problems,
        "; ".join(problems),
    )


def test_criterion_04_well_formedness(announce, binary_catalog, negations):
    problems = []
    for go in binary_catalog:
        for n in negations:
            rep = ok.check_implication_axioms(ok.make_gon(go, n))
            if not rep.passed:
                problems.append(f"gon({go.label}, {n.label})")
    announce(
        4,
        "every catalog pair yields a well-formed implication (I1-I5)",
        not problems,
        "; ".join(problems),
    )


def test_criterion_05_contraposition_ladder(announce, binary_catalog, negations):
    problems = []
    for go in binary_catalog:
        for n in negations:
            if not ok.check_contraposition(ok.make_gon(go, n), n, "LCP").holds:
                problems.append(f"L-CP gon({go.label}, {n.label})")
    for go in binary_catalog:
        for n in (ok.make_standard(), ok.make_power_strict(2)):
            imp = ok.make_gon(go, n)
            inv = ok.inverse_negation(n)
            composed = replace(ok.DEFAULT_CONFIG, eq_tol=COMPOSED_TOL)
            if not ok.check_contraposition(imp, inv, "RCP", config=composed).holds:
                problems.append(f"R-CP gon({go.label}, {n.label})")
    nz = ok.make_standard()
    for go in binary_catalog:
        if not ok.check_contraposition(ok.make_gon(go, nz), nz, "CP").holds:
            problems.append(f"CP gon({go.label}, zadeh)")
    announce(
        5,
        "left contraposition for all pairs, right contraposition under the "
        "numeric inverse for strict negations, full contraposition for the "
        "standard negation",
        not problems,
        "; ".join(problems),
    )


def test_criterion_06_np_ep_biconditionals(announce, binary_catalog):
    nz = ok.make_standard()
    problems = []
    for go in binary_catalog:
        neutral = ok.find_neutral(go)
        want_np = neutral is not None and abs(neutral - 1.0) <= EQ_TOL
        if ok.check_unary_property(ok.make_gon(go, nz), "NP").holds != want_np:
            problems.append(f"NP mismatch for {go.label}")
        want_ep = ok.check_associativity(go).passed
        if ok.check_ep(ok.make_gon(go, nz), "EP").holds != want_ep:
            problems.append(f"EP mismatch for {go.label}")
    expected_ep = {"O_min": True, "GO_max": False, "O_P:p=2": False, "O_mM": False}
    for go in binary_catalog:
        if go.label in expected_ep:
            got = ok.check_ep(ok.make_gon(go, nz), "EP")
            if got.holds != expected_ep[go.label]:
                problems.append(f"EP for {go.label} should be {expected_ep[go.label]}")
            if not got.holds and got.witness is None:
                problems.append(f"EP failure for {go.label} lacks a witness")
    announce(
        6,
        "left neutrality tracks the neutral element and exchange tracks "
        "associativity, instance by instance",
        not problems,
        "; ".join(problems),
    )


def test_criterion_07_duality_equality(announce, overlap_catalog):
    problems = []
    for go in overlap_catalog:
        for n in (ok.make_standard(), ok.make_power_strict(2)):
            lhs = ok.make_gon(go, n)
            rhs = ok.make_gn(ok.grouping_from(go, n), ok.inverse_negation(n))
            dev = ok.compare(lhs, rhs).deviation
            if dev > COMPOSED_TOL:
                problems.append(f"{go.label}/{n.label}: {dev:.2e}")
    announce(
        7,
        "the dual-grouping construction with the inverse negation "
        "reproduces each implication within 2e-8",
        not problems,
        "; ".join(problems),
    )


def test_criterion_08_recovery_roundtrip(announce, overlap_catalog):
    problems = []
    for go in overlap_catalog:
        for n in (ok.make_standard(), ok.make_power_strict(2)):
            rec = ok.recover_go(ok.make_gon(go, n), n)
            dev = ok.compare(go, rec).deviation
            if dev > COMPOSED_TOL:
                problems.append(f"{go.label}/{n.label}: {dev:.2e}")
    announce(
        8,
        "the source connective is recoverable from its implication within "
        "2e-8",
        not problems,
        "; ".join(problems),
    )


def test_criterion_09_residual_oracles(announce):
    goguen = ok.make_residual(ok.catalog("O_P", p=1))
    godel = ok.make_residual(ok.catalog("O_min"))
    worst_goguen = worst_godel = 0.0
    for x, y in ok.pair_points(ok.DEFAULT_CONFIG):
        worst_goguen = max(
            worst_goguen, abs(float(goguen(x, y)) - (1.0 if x <= y else y / x))
        )
        worst_godel = max(
            worst_godel, abs(float(godel(x, y)) - (1.0 if x <= y else y))
        )
    announce(
        9,
        "bisected residuals match the rational and minimum closed forms "
        "within 1e-8",
        worst_goguen <= BISECT_TOL and worst_godel <= BISECT_TOL,
        f"deviations {worst_goguen:.2e}, {worst_godel:.2e}",
    )


def test_criterion_10_aggregation_commutes(announce):
    nz = ok.make_standard()
    gos = ok.OperatorFamily(members=(ok.catalog("GO_max"), ok.catalog("O_P", p=2)))
    problems = []
    for name in ("mean", "min"):
        rep = ok.check_commutes(ok.make_aggregation(name, 2), gos, nz)
        if not rep.holds:
            problems.append(f"{name}: {rep.summary()}")
    announce(
        10,
        "aggregating implications equals implicating the dual-aggregated "
        "connective within 1e-9",
        not problems,
        "; ".join(problems),
    )


def test_criterion_11_family_separations(announce, binary_catalog, negations):
    problems = []
    ref = ok.make_gn(ok.grouping_max(), ok.make_top())
    for go in binary_catalog:
        for n in negations:
            dev = ok.compare(ref, ok.make_gon(go, n)).deviation
            if dev <= 0.1:
                problems.append(f"separation {go.label}/{n.label}: {dev:.3f}")
    overlaps = [ok.catalog(name, **params) for name, params in OVERLAP_ENTRIES]
    groupings = (ok.grouping_max(), ok.grouping_probsum())
    for o in overlaps:
        for g in groupings:
            imp = ok.make_ql(o, g)
            for n in negations:
                if ok.check_contraposition(imp, n, "LCP").holds:
                    problems.append(f"ql({o.label}, {g.label}) L-CP held for {n.label}")
    for o in overlaps:
        imp = ok.make_residual(o)
        for n in negations:
            if ok.check_contraposition(imp, n, "LCP").holds:
                problems.append(f"ro({o.label}) L-CP held for {n.label}")
    crisp_negs = [n for n in negations if ok.classify(n).is_crisp]
    for go in binary_catalog:
        for n in crisp_negs:
            if not ok.range_is_proper(ok.make_gon(go, n)):
                problems.append(f"range not proper for gon({go.label}, {n.label})")
    for g in groupings:
        for n in (ok.make_standard(), ok.make_power_strict(2)):
            if ok.range_is_proper(ok.make_gn(g, n)):
                problems.append(f"range proper for gn({g.label}, {n.label})")
    announce(
        11,
        "the top-negation disjunctive implication stays far from every "
        "catalog instance, quotient and residual families break left "
        "contraposition everywhere, and range properness separates the "
        "crisp from the continuous families",
        not problems,
        "; ".join(problems),
    )


def test_criterion_12_table_reproduction(announce, capsys):
    code = run(["table2", "--format", "csv", "--assert"])
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    grid = {r[0]: r[1:] for r in rows[1:]}
    expected = {
        "EP": ["yes", "no", "yes", "yes", "yes"],
        "NP": ["yes", "no", "no", "yes", "no"],
        "ROP": ["yes", "yes", "no", "yes", "no"],
        "LOP": ["no", "no", "yes", "no", "yes"],
        "CP": ["yes", "no", "yes", "yes", "yes"],
        "L-CP": ["yes", "yes", "yes", "yes", "yes"],
        "R-CP": ["yes", "no", "yes", "yes", "yes"],
    }
    mismatches = [p for p, want in expected.items() if grid.get(p) != want]
    announce(
        12,
        "the built-in property matrix reproduces every filled expectation "
        "across the five instances",
        code == 0 and not mismatches,
        f"exit {code}, mismatched rows {mismatches}",
    )
