"""Negation constructors, the numeric classifier, and De Morgan duals."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import overlapkit as ok
from overlapkit.conjunctors import _CATALOG
from overlapkit.numerics import _sample_mesh, _vectorized, _where

from conftest import NEGATION_CATALOG


def test_standard_values():
    nz = ok.make_standard()
    assert nz(0.0) == 1.0
    assert nz(1.0) == 0.0
    assert abs(nz(0.3) - 0.7) <= 1e-12


def test_crisp_values():
    lower = ok.make_crisp("lower", 0.5)
    upper = ok.make_crisp("upper", 0.5)
    # lower: 1 while x <= alpha; upper: 0 once x >= alpha
    assert lower(0.5) == 1.0
    assert lower(0.5000001) == 0.0
    assert upper(0.5) == 0.0
    assert upper(0.4999999) == 1.0
    assert ok.make_top()(0.999) == 1.0
    assert ok.make_bottom()(0.0) == 1.0
    assert ok.make_bottom()(1e-12) == 0.0


@pytest.mark.parametrize(
    "kind, alpha",
    [("lower", 1.0), ("lower", -0.1), ("upper", 0.0), ("upper", 1.5), ("sideways", 0.5)],
)
def test_crisp_rejects_bad_params(kind, alpha):
    with pytest.raises((ok.PreconditionError, ok.UnitRangeError)):
        ok.make_crisp(kind, alpha)


def test_power_strict_values():
    n2 = ok.make_power_strict(2)
    assert abs(n2(0.9) - 0.19) <= 1e-12
    assert n2(0.0) == 1.0
    n1 = ok.make_power_strict(1)
    assert abs(n1(0.4) - 0.6) <= 1e-12


def test_power_strict_rejects_nonpositive():
    with pytest.raises(ok.PreconditionError):
        ok.make_power_strict(0)
    with pytest.raises(ok.PreconditionError):
        ok.make_power_strict(-2)


def test_classify_standard():
    cls = ok.classify(ok.make_standard())
    assert cls.is_negation
    assert cls.is_strict
    assert cls.is_strong
    assert cls.is_frontier
    assert not cls.is_crisp


def test_classify_crisp_upper():
    cls = ok.classify(ok.make_crisp("upper", 0.5))
    assert cls.is_negation
    assert cls.is_crisp
    assert not cls.is_strict
    assert not cls.is_frontier


def test_classify_power_two():
    cls = ok.classify(ok.make_power_strict(2))
    assert cls.is_strict
    assert not cls.is_strong
    # N(N(0.5)) = 1 - 0.75^2 = 0.4375, off by 0.0625
    assert cls.witness is not None
    n2 = ok.make_power_strict(2)
    assert abs(float(n2(n2(0.5))) - 0.4375) <= 1e-12


def test_classify_evaluates_the_negation_on_two_meshes():
    # The samples, then N's values there; the grid steps are read from the samples' values.
    inverse = ok.inverse_negation(ok.make_power_strict(2))
    values, meshes = ok.Negation.values, []

    def counted(self, *xs):
        if self is inverse:
            meshes.append(len(xs[0]))
        return values(self, *xs)

    with mock.patch.object(ok.Negation, "values", counted):
        cls = ok.classify(inverse)
    assert meshes == [301, 301]
    assert cls.is_negation and cls.is_frontier and not cls.is_strong


def test_classify_witnesses_a_boundary_and_a_rise():
    cfg = ok.CheckConfig(grid_resolution=11, random_samples=0)
    half = ok.classify(ok.Negation(fn=lambda x: 0.5, label="half"), cfg)
    assert not half.is_negation
    assert half.witnesses["boundary"] == (0.0, 0.5, 1.0, 0.5)
    assert half.witness == half.witnesses["boundary"]
    # 1 - x but 0.9 at 0.5: the rise from 0.6 at 0.4, the least value before it.
    bump = ok.classify(ok.Negation(fn=lambda x: 0.9 if x == 0.5 else 1.0 - x, label="bump"), cfg)
    assert not bump.is_negation
    assert bump.witnesses["antitonic"] == (0.4, 0.5)


def test_classify_witnesses_the_first_flat_step_of_the_grid():
    # Flat on [0.6, 0.7]: the first flat step of the grid is (0.6, 0.61), whatever random samples lie between.
    fn = _vectorized(lambda x: _where(x < 0.6, 1.0 - x, _where(x <= 0.7, 0.4, (1.0 - x) * 0.4 / 0.3)))
    cls = ok.classify(ok.Negation(fn=fn, label="flat"))
    assert cls.is_negation and not cls.is_strict
    assert cls.witnesses["strict"] == (0.6, 0.61)


def test_a_classification_with_no_failed_class_has_no_witness():
    # On the two grid points alone, zadeh is strict, strong, crisp and frontier.
    cls = ok.classify(ok.make_standard(), ok.CheckConfig(grid_resolution=2, random_samples=0))
    assert cls.witnesses == {}
    assert cls.witness is None


def test_every_catalog_member_is_negation():
    for _, make in NEGATION_CATALOG:
        cls = ok.classify(make())
        assert cls.is_negation


def test_class_hierarchy():
    for _, make in NEGATION_CATALOG:
        cls = ok.classify(make())
        if cls.is_strong:
            assert cls.is_strict
        if cls.is_strict:
            assert cls.is_negation


def test_dual_product_is_probabilistic_sum():
    prod = ok.catalog("O_P", p=1)
    psum = ok.dual(prod, ok.make_standard())
    assert abs(float(psum(0.5, 0.5)) - 0.75) <= 1e-12
    assert abs(float(psum(0.3, 0.4)) - (1 - 0.7 * 0.6)) <= 1e-12


def test_dual_min_is_max():
    mx = ok.dual(ok.catalog("O_min"), ok.make_standard())
    assert float(mx(0.2, 0.7)) == 0.7


def test_dual_boundary():
    for name in ("O_min", "O_P"):
        f = ok.catalog(name, p=1) if name == "O_P" else ok.catalog(name)
        d = ok.dual(f, ok.make_standard())
        assert float(d(0.0, 0.0)) == 0.0


@settings(max_examples=40)
@given(name=st.sampled_from(ok.CATALOG_NAMES), p=st.floats(min_value=0.1, max_value=10.0))
def test_dual_involution_for_strong(name, p):
    # The zadeh dual applied twice gives back f on the pair mesh, for every
    # catalog entry (the n-ary ones at n = 2) and any exponent p.
    f = ok.catalog(name, **{"p": {"p": p}, "n": {"n": 2}}.get(_CATALOG[name].param, {}))
    nz = ok.make_standard()
    x, y = _sample_mesh(ok.DEFAULT_CONFIG, 2)
    back = ok.dual(ok.dual(f, nz), nz)
    assert np.abs(back.values(x, y) - f.values(x, y)).max() <= ok.DEFAULT_CONFIG.eq_tol


def test_crisp_triple_composition_exact():
    for make in (lambda: ok.make_crisp("lower", 0.5), lambda: ok.make_crisp("upper", 0.5)):
        n = make()
        for x in ok.sample_grid():
            assert float(n(n(n(x)))) == float(n(x))


def test_inverse_negation_roundtrip():
    n2 = ok.make_power_strict(2)
    inv = ok.inverse_negation(n2)
    for y in (0.0, 0.19, 0.5, 1.0):
        assert abs(float(n2(inv(y))) - y) <= 1e-6


def test_inverse_negation_requires_strict():
    with pytest.raises(ok.PreconditionError):
        ok.inverse_negation(ok.make_crisp("upper", 0.5))
