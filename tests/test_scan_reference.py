"""The blockwise array scan reports what the scalar scan reports, at grid 101.

The reference runs the same checkers with the mesh kernels swapped for their
scalar forms: numerics._scan over the points as Python floats, and a
point-by-point loop for full-mesh evaluations, each point evaluated through
__call__. Every report -- verdict, witness, sides, deviation and
samples_checked -- must be equal, for the ten properties and compare, on the
five table2 instances plus one instance of each remaining family. The golden
test covers grid 21; this one covers the default grid, where the array scan
runs several blocks.

T2 (associativity), T3 and check_idempotent are compared with the scalar
loops they replaced, on catalog entries and constructions.

Two cases pin the error order: a connective that leaves [0, 1] only after
the first witness still reports that witness, and one that leaves it first
raises the UnitRangeError the scalar order meets first.
"""

from __future__ import annotations

import numpy as np
import pytest

import overlapkit as ok
from overlapkit import numerics, properties
from overlapkit.cli import parse_connective, parse_implication, table2_instances
from overlapkit.numerics import _scan, _vectorized

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


def _scalar_scan_mesh(cols, sides, relation):
    return _scan(zip(*(c.tolist() for c in cols)), lambda p: sides(*p), relation)


def _scalar_mesh_values(cols, fn):
    rows = [fn(*p) for p in zip(*(c.tolist() for c in cols))]
    return tuple(np.array(col, dtype=float) for col in zip(*rows))


@pytest.fixture
def scalar_kernels(monkeypatch):
    """Run the property checkers on the scalar reference kernels while active."""

    def use_scalar():
        monkeypatch.setattr(properties, "_scan_mesh", _scalar_scan_mesh)
        monkeypatch.setattr(properties, "_mesh_values", _scalar_mesh_values)

    return use_scalar


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
    scalar_kernels()
    assert got == _reports(implication, negation, other)


def _leaky_min(cut: float) -> ok.FusionFunction:
    """min(x, y), except 1 + x wherever x > cut: it leaves [0, 1] there."""
    return ok.FusionFunction(
        fn=_vectorized(
            lambda x, y: 1.0 + x if x > cut else min(x, y),
            lambda x, y: np.where(x > cut, 1.0 + x, np.minimum(x, y)),
        ),
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
    # ... and the scan falls back to the scalar order, which fails IP at
    # I(x, x) = 1 - x for a small x before it reaches the leak.
    got = properties.check_unary_property(implication, "IP")
    assert got.status == "fails" and got.witness.point[0] < 0.5
    scalar_kernels()
    assert got.as_dict() == properties.check_unary_property(implication, "IP").as_dict()


def test_leak_before_the_first_witness_raises_the_scalar_error(scalar_kernels):
    implication = ok.make_gon(_leaky_min(0.005), ok.make_standard())
    x, y = properties._pair_mesh(ok.DEFAULT_CONFIG)
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
