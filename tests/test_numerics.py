"""Unit-interval core: validation, config, grids, bisection kernels."""

from __future__ import annotations

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import overlapkit as ok
from overlapkit import numerics
from overlapkit.numerics import (
    DISTINCT_FLOOR,
    _axis,
    _bracket,
    _columns,
    _distinct,
    _fsum,
    _invert,
    _min,
    _pow,
    _sample_mesh,
    _vectorized,
    config_from_mapping,
    iteration_count,
    random_points,
    sorted_samples,
    uniform_grid,
)


def test_unit_value_accepts_interval():
    assert ok.UnitValue(0.0) == 0.0
    assert ok.UnitValue(1.0) == 1.0
    assert ok.UnitValue(0.5) == 0.5
    assert isinstance(ok.UnitValue(0.5), float)


@pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan"), float("inf"), -1e-12])
def test_unit_value_rejects_out_of_range(bad):
    with pytest.raises(ok.UnitRangeError):
        ok.UnitValue(bad)


def test_default_config_values():
    cfg = ok.DEFAULT_CONFIG
    assert cfg.grid_resolution == 101
    assert cfg.random_samples == 200
    assert cfg.rng_seed == 0
    assert cfg.eq_tol == 1e-9
    assert cfg.bisect_tol == 1e-8


@pytest.mark.parametrize(
    "kwargs",
    [
        {"grid_resolution": 1},
        {"grid_resolution": 0},
        {"random_samples": -1},
        {"eq_tol": 0.0},
        {"eq_tol": -1e-9},
        {"bisect_tol": 0.0},
        {"bisect_tol": 1e-20},
        {"grid_resolution": 10**7 + 1},
        {"random_samples": 10**7 + 1},
        {"rng_seed": -1},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ok.ConfigError):
        ok.CheckConfig(**kwargs)


def test_config_from_mapping_roundtrip():
    cfg = config_from_mapping({"grid_resolution": "51", "eq_tol": "1e-6"})
    assert cfg.grid_resolution == 51
    assert cfg.eq_tol == 1e-6
    assert cfg.random_samples == 200


def test_config_from_mapping_rejects_unknown_key():
    with pytest.raises(ok.ConfigError):
        config_from_mapping({"resolution": "51"})


def test_load_config_file(tmp_path):
    path = tmp_path / "check.cfg"
    path.write_text(
        "# comment line\n"
        "grid_resolution = 31\n"
        "\n"
        "rng_seed = 7\n"
    )
    cfg = ok.load_config(str(path))
    assert cfg.grid_resolution == 31
    assert cfg.rng_seed == 7
    assert cfg.bisect_tol == 1e-8


def test_load_config_rejects_garbage(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("grid_resolution 31\n")
    with pytest.raises(ok.ConfigError):
        ok.load_config(str(path))


def test_load_config_rejects_non_utf8_text(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"# caf\xff\ngrid_resolution = 31\n")
    with pytest.raises(ok.ConfigError, match="latin1.cfg"):
        ok.load_config(str(path))


def test_sample_grid_deterministic():
    a = ok.sample_grid(ok.DEFAULT_CONFIG)
    b = ok.sample_grid(ok.DEFAULT_CONFIG)
    assert a == b
    assert all(isinstance(v, ok.UnitValue) for v in a)


def test_seed_changes_random_points():
    base = random_points(ok.DEFAULT_CONFIG)
    other = random_points(ok.CheckConfig(rng_seed=1))
    assert not np.array_equal(base, other)
    assert np.array_equal(base, random_points(ok.CheckConfig(rng_seed=0)))


def test_uniform_grid_endpoints():
    grid = uniform_grid(ok.DEFAULT_CONFIG)
    assert grid[0] == 0.0
    assert grid[-1] == 1.0
    assert len(grid) == 101
    assert np.all(np.diff(grid) > 0)


def test_sorted_samples_contains_grid_and_random():
    cfg = ok.DEFAULT_CONFIG
    samples = sorted_samples(cfg)
    assert np.all(np.diff(samples) > 0)
    assert set(uniform_grid(cfg)) <= set(samples.tolist())
    assert len(samples) > len(uniform_grid(cfg))


def test_iteration_count():
    assert iteration_count(1e-8) == math.ceil(math.log2(1e8)) + 2
    assert iteration_count(0.5) == 3
    # fixed-count bisection halves the bracket below tol
    assert 0.5 ** (iteration_count(1e-8) - 2) <= 1e-8
    assert iteration_count(2**-51) == 53


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: config_from_mapping({"grid_resolution": "abc"}),
            ok.ConfigError,
            "bad value for 'grid_resolution': 'abc'",
            id="config-value-not-a-number",
        ),
        pytest.param(
            lambda: iteration_count(1),
            ok.PreconditionError,
            "tolerance must be a positive finite float",
            id="tolerance-not-a-float",
        ),
    ],
)
def test_each_refusal_names_what_it_refuses(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert str(raised.value) == message


@pytest.mark.parametrize("tol", [2**-52, 1e-20, 5e-324])
def test_iteration_count_refuses_a_tolerance_below_53_steps(tol):
    with pytest.raises(ok.PreconditionError, match=r"below 2\*\*-51"):
        iteration_count(tol)


def test_bisect_sup_threshold():
    got = ok.bisect_sup(lambda z: z <= 0.3, 1e-8)
    assert abs(got - 0.3) <= 1e-8


def test_bisect_sup_whole_interval_exact():
    assert ok.bisect_sup(lambda z: True, 1e-8) == 1.0


def test_bisect_sup_requires_true_at_zero():
    with pytest.raises(ok.PreconditionError):
        ok.bisect_sup(lambda z: z > 0.5, 1e-8)


def test_bisect_sup_monotone_in_predicate():
    tol = 1e-8
    weak = ok.bisect_sup(lambda z: z <= 0.7, tol)
    strong = ok.bisect_sup(lambda z: z <= 0.4, tol)
    assert weak >= strong - 2 * tol


def test_invert_strict_standard():
    nz = ok.make_standard()
    assert abs(ok.invert_strict(nz, 0.3, 1e-8) - 0.7) <= 1e-8
    assert ok.invert_strict(nz, 0.0, 1e-8) == 1.0
    assert ok.invert_strict(nz, 1.0, 1e-8) == 0.0


def test_invert_strict_power():
    # solve 1 - x^2 = 0.19
    n2 = ok.make_power_strict(2)
    assert abs(ok.invert_strict(n2, 0.19, 1e-8) - 0.9) <= 1e-6


def test_invert_strict_roundtrip():
    n2 = ok.make_power_strict(2)
    for y in (0.0, 0.1, 0.5, 0.77, 1.0):
        x = ok.invert_strict(n2, y, 1e-8)
        assert abs(float(n2(x)) - y) <= 1e-6


def test_invert_strict_rejects_crisp():
    with pytest.raises(ok.PreconditionError):
        ok.invert_strict(ok.make_crisp("upper", 0.5), 0.3, 1e-8)


# The starts of _bracket's callers: zeros as an array, _sup's float 0.0 (the
# first step's mask makes lo an array) and _invert's _min(s, 0.0) for s > 0.
_BRACKET_STARTS = {
    "zeros": lambda c: np.zeros(len(c)),
    "sup": lambda c: 0.0,
    "invert": lambda c: _min(c + 0.5, 0.0),
}

# Masks as holds returns them: bool, and not bool, whose truth values are np.where's.
_MASK_KINDS = {
    "bool": lambda mask: mask,
    "int8": lambda mask: mask.astype(np.int8),
    "float": lambda mask: np.where(mask, 0.25, 0.0),
}


def _assert_unsigned(*bounds) -> None:
    """No bound has its sign bit set: a -0.0 would not survive lo + 0.0."""
    for bound in bounds:
        assert not np.signbit(bound).any()


@settings(max_examples=60)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=16),
    st.sampled_from([1e-8, 1e-12]),
    st.sampled_from(sorted(_BRACKET_STARTS)),
    st.sampled_from(sorted(_MASK_KINDS)),
)
@example([1.0, 1.0], 1e-8, "sup", "bool")  # holds everywhere
@example([0.0, 0.0, 0.0], 1e-12, "invert", "int8")  # holds at no midpoint
@example([1.0, 0.0, 0.3], 1e-8, "zeros", "float")
def test_bracket_on_arrays_takes_the_steps_of_each_float(thresholds, tol, start, kind):
    c = np.array(thresholds)
    mask = _MASK_KINDS[kind]
    lo, hi = _bracket(lambda m: mask(m <= c), tol, _BRACKET_STARTS[start](c))
    _assert_unsigned(lo, hi)
    for k, ck in enumerate(thresholds):
        want = _bracket(lambda m: m <= ck, tol)
        assert (float(lo[k]).hex(), float(hi[k]).hex()) == tuple(v.hex() for v in want)


def _two_bound_bracket(holds, tol, lo=0.0, hi=1.0):
    """The bisection loop with both bounds carried, the reference for _bracket's dyadic form."""
    for _ in range(iteration_count(tol)):
        mid = 0.5 * (lo + hi)
        up = holds(mid)
        if isinstance(up, np.ndarray):
            lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        else:
            lo, hi = (mid, hi) if up else (lo, mid)
    return lo, hi


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.atleast_1d(values)]


@settings(max_examples=60)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=16),
    st.sampled_from([0.5, 1e-3, 1e-8, 1e-12, 2**-51]),
    st.sampled_from([np.less, np.less_equal]),
    st.sampled_from(sorted(_BRACKET_STARTS)),
    st.sampled_from(sorted(_MASK_KINDS)),
)
@example([1.0], 2**-51, np.less_equal, "sup", "bool")  # holds everywhere
@example([0.0, 0.0], 2**-51, np.less, "invert", "bool")  # holds nowhere
@example([0.0, 1.0], 1e-8, np.less, "zeros", "int8")
def test_bracket_matches_the_two_bound_loop(thresholds, tol, below, start, kind):
    c = np.array(thresholds)
    mask = _MASK_KINDS[kind]
    got = _bracket(lambda m: mask(below(m, c)), tol, _BRACKET_STARTS[start](c))
    want = _two_bound_bracket(lambda m: below(m, c), tol, np.zeros(len(c)), np.ones(len(c)))
    _assert_unsigned(*got)
    assert [_hex(v) for v in got] == [_hex(v) for v in want]
    for ck in thresholds:

        def holds(m, ck=ck):
            return bool(below(m, ck))

        assert [v.hex() for v in _bracket(holds, tol)] == [v.hex() for v in _two_bound_bracket(holds, tol)]


def test_a_point_and_a_mesh_raise_the_same_bisection_errors():
    ro = ok.make_residual(ok.grouping_max().with_role("general_overlap"))
    inv = ok.inverse_negation(ok.make_standard())
    cases = [
        (ok.PreconditionError, r"^bisect_sup requires pred\(0\) to hold$", ro, (0.5, 0.1)),
        (ok.UnitRangeError, r"^value 1\.5 is not in \[0, 1\]$", inv, (1.5,)),
    ]
    for error, message, obj, point in cases:
        with pytest.raises(error, match=message):
            obj(*point)
        with pytest.raises(error, match=message):
            obj.values(*(np.array([0.25, x]) for x in point))


def test_a_point_and_a_mesh_word_a_numpy_scalar_range_error_alike():
    # On floats the formula returns np.float64(1.5), on arrays an array; both name the value as a float.
    fn = _vectorized(lambda x, y: np.float64(2.0) * x + y)
    f = ok.FusionFunction(fn=fn, arity=2, role="aggregation", label="f")
    with pytest.raises(ok.UnitRangeError, match=r"^value 1\.5 is not in \[0, 1\]$"):
        f(0.5, 0.5)
    with pytest.raises(ok.UnitRangeError, match=r"^value 1\.5 is not in \[0, 1\]$"):
        f.values(np.array([0.25, 0.5]), np.array([0.25, 0.5]))


@pytest.mark.parametrize("resolution", [101, 11])
def test_reduced_grids(resolution):
    # The configured grid up to two coordinates; 21 points for three and 11
    # beyond, whatever the configured resolution (finer than it at 11).
    cfg = ok.CheckConfig(grid_resolution=resolution)
    assert [len(_axis(cfg, k)) for k in range(1, 7)] == [resolution, resolution, 21, 11, 11, 11]
    # EP holds for tn(O_min, zadeh), so the scan visits the whole triple mesh.
    report = ok.check_ep(ok.make_tn(ok.catalog("O_min"), ok.make_standard()), "EP", cfg)
    assert report.holds
    assert report.samples_checked == 21**3 + cfg.random_samples // 3


# The array forms of _fsum, _pow and _invert against their float forms, bit for bit.

_SIGNED_ZEROS = st.sampled_from([0.0, -0.0])
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _repeated(pool: list[float], n: int, seed: int) -> np.ndarray:
    """n draws from pool, so a column of heavy repeats."""
    return np.array(pool)[np.random.default_rng(seed).integers(0, len(pool), n)]


@settings(max_examples=100)
@given(st.lists(st.tuples(st.one_of(_SIGNED_ZEROS, _FINITE), st.one_of(_SIGNED_ZEROS, _FINITE)), min_size=1))
def test_fsum_of_two_columns_is_math_fsum_per_point(pairs):
    a, b = (np.array(col) for col in zip(*pairs))
    try:
        want = [math.fsum(p) for p in pairs]
    except OverflowError:
        # Two finite terms overflow: the columns fall back to math.fsum per point and raise alike.
        with pytest.raises(OverflowError):
            _fsum(a, b)
        return
    assert _bits(_fsum(a, b)) == _bits(want)


def test_fsum_of_two_columns_keeps_signed_zeros_and_non_finite_terms_as_math_fsum():
    zeros = [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (1.0, -1.0), (-1.0, 1.0)]
    a, b = (np.array(col) for col in zip(*zeros))
    assert _bits(_fsum(a, b)) == _bits([math.fsum(p) for p in zeros])
    inf = math.inf
    assert _bits(_fsum(np.array([inf, 0.5]), np.array([1.0, 0.5]))) == _bits([inf, 1.0])
    assert math.isnan(_fsum(np.array([math.nan]), np.array([1.0]))[0])
    with pytest.raises(ValueError):
        _fsum(np.array([inf]), np.array([-inf]))


_SUBNORMAL = st.floats(min_value=-(2.0**-1022), max_value=2.0**-1022)
_TERMS = st.one_of(_SIGNED_ZEROS, _FINITE, _SUBNORMAL, st.floats(0.0, 1.0))


@st.composite
def _near_one(draw) -> tuple[float, float, float]:
    """Three terms in some order, two in [0, 1] and a third that puts their sum within a few ulps of 1."""
    a, b = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    c = 1.0 - a - b
    for _ in range(draw(st.integers(0, 4))):
        c = math.nextafter(c, draw(st.sampled_from([-math.inf, math.inf])))
    return draw(st.permutations([a, b, c]))


def _fsum_matches_math_fsum_per_point(triples) -> None:
    a, b, c = (np.array(col) for col in zip(*triples))
    try:
        want = [math.fsum(p) for p in triples]
    except OverflowError:
        with pytest.raises(OverflowError):
            _fsum(a, b, c)
        return
    assert _bits(_fsum(a, b, c)) == _bits(want)


@settings(max_examples=200)
@given(st.lists(st.tuples(_TERMS, _TERMS, _TERMS), min_size=1))
def test_fsum_of_three_columns_is_math_fsum_per_point(triples):
    _fsum_matches_math_fsum_per_point(triples)


@settings(max_examples=200)
@given(st.lists(_near_one(), min_size=1, max_size=50))
def test_fsum_of_three_columns_summing_within_ulps_of_one_is_math_fsum(triples):
    _fsum_matches_math_fsum_per_point(triples)


def test_fsum_of_three_columns_rounds_ties_and_sticky_bits_as_math_fsum():
    # 1 + half an ulp is a tie, broken to even by 0 and upwards by any positive third term;
    # the two TwoSum errors then carry it, and the odd rounding keeps the sticky bit.
    half, tiny = 2.0**-53, 2.0**-1074
    triples = [
        (1.0, half, 0.0), (1.0, half, tiny), (1.0, half, -tiny), (half, tiny, 1.0),
        (1.0 + 2**-52, half, -tiny), (1.0, half, half * 2**-60), (-1.0, -half, -tiny),
        (1e16, 1.0, -1e16), (2.0**-1022, -(2.0**-1023), tiny),
        (0.0, -0.0, -0.0), (-0.0, -0.0, -0.0), (1.0, -1.0, -0.0), (0.1, 0.2, -0.3),
    ]
    _fsum_matches_math_fsum_per_point(triples)


def test_fsum_of_three_finite_columns_calls_no_math_fsum(monkeypatch):
    a, b, c = (np.linspace(0.0, 1.0, 50) ** k for k in (1, 2, 3))
    want = [math.fsum(p) for p in zip(a.tolist(), b.tolist(), c.tolist())]
    monkeypatch.setattr(math, "fsum", lambda _: pytest.fail("math.fsum called"))
    assert _bits(_fsum(a, b, c)) == _bits(want)


def test_fsum_of_three_columns_keeps_non_finite_terms_and_overflow_as_math_fsum():
    inf, big = math.inf, sys.float_info.max
    # math.fsum raises on an overflow of its partial sums, although big + big - big is finite.
    with pytest.raises(OverflowError):
        _fsum(np.array([big]), np.array([big]), np.array([-big]))
    assert _bits(_fsum(np.array([inf, 0.5]), np.array([1.0, 0.25]), np.array([2.0, 0.25]))) == _bits([inf, 1.0])
    assert math.isnan(_fsum(np.array([math.nan]), np.array([1.0]), np.array([0.0]))[0])
    with pytest.raises(ValueError):
        _fsum(np.array([inf]), np.array([1.0]), np.array([-inf]))
    # Four columns still sum point by point.
    four = [(1.0, 2.0**-53, 2.0**-60, -(2.0**-1074))]
    assert _bits(_fsum(*(np.array(col) for col in zip(*four)))) == _bits([math.fsum(p) for p in four])


_BASES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1e-310]),
    st.floats(min_value=0.0, max_value=1.0),
)


@settings(max_examples=60)
@given(
    pool=st.lists(_BASES, min_size=1, max_size=20),
    n=st.sampled_from([1, 7, DISTINCT_FLOOR - 1, DISTINCT_FLOOR, 3 * DISTINCT_FLOOR]),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.one_of(st.sampled_from([1.0, 2.0, 3.0, 0.5, 1e-3]), st.floats(min_value=0.01, max_value=20.0)),
)
def test_pow_on_a_column_is_float_pow_per_element(pool, n, seed, exponent):
    col = _repeated(pool, n, seed)
    assert _bits(_pow(col, exponent)) == _bits([b**exponent for b in col.tolist()])


@settings(max_examples=40)
@given(
    pool=st.lists(st.one_of(_BASES, st.floats(min_value=-1.0, max_value=0.0)), min_size=1, max_size=20),
    n=st.sampled_from([5, DISTINCT_FLOOR, 2 * DISTINCT_FLOOR + 3]),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.sampled_from([1.0, 3.0, 5.0, 7.0]),
)
def test_pow_of_negative_bases_to_odd_integer_exponents_is_float_pow_per_element(pool, n, seed, exponent):
    col = _repeated(pool, n, seed)
    assert _bits(_pow(col, exponent)) == _bits([b**exponent for b in col.tolist()])


@pytest.mark.parametrize(
    "bad, exponent, error",
    [
        (1e300, 2.0, OverflowError),
        (0.0, -1.0, ZeroDivisionError),
        # Python's pow gives a complex number, which np.array(..., dtype=float) refuses.
        (-0.5, 0.5, TypeError),
    ],
)
def test_pow_on_a_column_raises_what_float_pow_raises_and_warns_nothing(bad, exponent, error):
    col = np.array([0.25, bad, 0.75])
    with pytest.raises(error):
        np.array([b**exponent for b in col.tolist()], dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            _pow(col, exponent)


def test_pow_of_a_nan_base_is_nan_and_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _pow(np.array([0.5, math.nan, 0.0]), 1.75)
    assert _bits(got) == _bits([0.5**1.75, math.nan**1.75, 0.0])


def test_pow_of_a_large_random_column_is_float_pow_bit_for_bit():
    col = np.random.default_rng(1).random(200_000)
    assert _bits(_pow(col, 1.75)) == _bits([b**1.75 for b in col.tolist()])


def test_pow_does_not_deduplicate(monkeypatch):
    def refuse(col):
        raise AssertionError("_pow called _distinct")

    monkeypatch.setattr(numerics, "_distinct", refuse)
    col = np.array([0.5, 0.25, 0.5])
    assert _bits(_pow(col, 2.0)) == _bits([b**2.0 for b in col.tolist()])


def test_distinct_keeps_signed_zeros_apart_and_refuses_short_columns():
    col = np.tile([0.0, -0.0, 0.5], DISTINCT_FLOOR)
    values, inverse = _distinct(col)
    assert len(values) == 3
    assert values[inverse].tobytes() == col.tobytes()
    assert _distinct(col[: DISTINCT_FLOOR - 1]) is None
    assert _distinct(0.5) is None


@settings(max_examples=10)
@given(
    p=st.floats(min_value=0.3, max_value=4.0),
    pool=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30),
    seed=st.integers(0, 2**32 - 1),
)
def test_inverting_a_column_of_repeated_values_is_invert_strict_per_point(p, pool, seed):
    negation = ok.make_power_strict(p)
    y = _repeated(pool + [0.0, 1.0], DISTINCT_FLOOR + 100, seed)
    assert _bits(_invert(negation, y, 1e-8)) == _bits([ok.invert_strict(negation, v, 1e-8) for v in y.tolist()])


def test_inverting_the_pair_mesh_y_column_is_invert_strict_per_point():
    # Each grid value once per mesh row, then the random tail: the mesh compare walks over recover_go.
    negation = ok.make_power_strict(2.0)
    _, y = _sample_mesh(ok.CheckConfig(grid_resolution=41), 2)
    assert _bits(_invert(negation, y, 1e-8)) == _bits([ok.invert_strict(negation, v, 1e-8) for v in y.tolist()])


def test_the_sample_mesh_is_read_only_and_its_refusal_is_not_cached():
    for col in _sample_mesh(ok.DEFAULT_CONFIG, 2):
        assert not col.flags.writeable
    huge = ok.CheckConfig(grid_resolution=4000)
    for _ in range(2):
        with pytest.raises(ok.PreconditionError):
            _sample_mesh(huge, 2)


def test_values_takes_ready_columns_as_they_are_and_broadcasts_the_rest():
    x = np.linspace(0.0, 1.0, 5)
    cols = _columns((x, 0.25))
    assert cols[0] is x
    assert _bits(cols[1]) == _bits(np.full(5, 0.25))
    general = [(0.25, 0.5), (x, np.float64(0.25)), (x, [0.5] * 5), (x.astype(np.float32), 0.25), (x, x[:1])]
    for xs in general:
        want = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float)) for v in xs))
        assert [_bits(c) for c in _columns(xs)] == [_bits(c) for c in want]
    with pytest.raises(ValueError):
        _columns((x, x[:3]))


# --- range check: one reduction, then two, then the mask ---------------------


def _mask_checked(values: np.ndarray) -> np.ndarray:
    """The range check as a mask alone: the reference the reductions must agree with."""
    at = numerics._first(~((values >= 0.0) & (values <= 1.0)))
    if at is not None:
        raise ok.UnitRangeError(f"value {float(values[at])!r} is not in [0, 1]")
    return values


_OUT_OF_RANGE = st.sampled_from([math.nan, math.inf, -math.inf, -5e-324, 1.0 + 2.0**-52])


@settings(max_examples=100)
@given(
    shape=st.one_of(st.tuples(st.integers(1, 40)), st.tuples(st.integers(1, 8), st.integers(1, 8))),
    seed=st.integers(0, 2**32 - 1),
    bad=st.lists(st.tuples(_OUT_OF_RANGE, st.integers(0, 2**16)), max_size=3),
)
def test_checked_names_the_first_bad_value_as_the_mask_does(shape, seed, bad):
    values = np.random.default_rng(seed).random(shape)
    values.flat[0] = -0.0
    for value, at in bad:
        values.flat[at % values.size] = value
    if not bad:
        assert numerics._checked(values) is values
        return
    with pytest.raises(ok.UnitRangeError) as want:
        _mask_checked(values)
    with pytest.raises(ok.UnitRangeError) as got:
        numerics._checked(values)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("shape", [(0,), (0, 3)])
def test_checked_passes_an_empty_array(shape):
    empty = np.zeros(shape)
    assert numerics._checked(empty) is empty


def test_checked_passes_negative_zero():
    values = np.array([0.5, -0.0, 1.0, 0.0])
    assert numerics._checked(values) is values


def _checks_alike(values):
    """Whether _checked returns values itself or raises the mask's message, as _mask_checked does."""
    try:
        _mask_checked(values)
    except ok.UnitRangeError as want:
        with pytest.raises(ok.UnitRangeError) as got:
            numerics._checked(values)
        assert str(got.value) == str(want)
        return False
    assert numerics._checked(values) is values
    return True


_NEGATIVE_NAN = float(np.copysign(math.nan, -1.0))

# Each edge of the one-reduction bits test, and whether the range check passes it.
_RANGE_EDGES = [
    (0.0, True),
    (-0.0, True),
    (5e-324, True),
    (-5e-324, False),
    (1.0, True),
    (float(np.nextafter(1.0, 2.0)), False),
    (math.nan, False),
    (_NEGATIVE_NAN, False),
    (math.inf, False),
    (-math.inf, False),
]


@pytest.mark.parametrize("value, passes", _RANGE_EDGES, ids=[repr(v) for v, _ in _RANGE_EDGES])
@pytest.mark.parametrize("at", [0, 5, 9])
def test_checked_treats_each_edge_of_the_bits_test_as_the_mask_does(value, passes, at):
    values = np.linspace(0.0, 1.0, 10)
    values[at] = value
    assert np.signbit(values[at]) == np.signbit(value)
    assert _checks_alike(values) == passes
    # Strided and two-dimensional views of the same values.
    assert _checks_alike(np.repeat(values, 2)[::2]) == passes
    assert _checks_alike(values.reshape(2, 5)) == passes


@pytest.mark.parametrize(
    "values, passes",
    [
        (np.array([5], dtype=np.int64), False),
        (np.array([0, 1], dtype=np.int64), True),
        (np.array([0.25, 1.0], dtype=np.float32), True),
        (np.array([0.25, 1.5], dtype=np.float32), False),
        (np.array([0.25, -0.0], dtype=np.float32), True),
        (np.array([0.25, np.nan], dtype=np.float32), False),
        (np.array([0.25, 0.5]).astype(">f8"), True),
        (np.array([0.25, -0.5]).astype(">f8"), False),
    ],
    ids=[
        "int64 [5]", "int64 [0, 1]", "float32 in range", "float32 1.5", "float32 -0.0", "float32 nan", ">f8", ">f8 -0.5"
    ],
)
def test_checked_treats_other_dtypes_as_the_mask_does(values, passes):
    assert _checks_alike(values) == passes


def test_checked_passes_a_float64_array_in_range_with_one_reduction(monkeypatch):
    values = np.concatenate(([0.0, 5e-324, 1.0], np.random.default_rng(3).random(5000)))

    class Refuse:
        def reduce(self, *args, **kwargs):
            raise AssertionError("the float reductions ran")

    monkeypatch.setattr(np, "minimum", Refuse())
    assert numerics._checked(values) is values


# --- fixed-column powers within a mesh bisection -----------------------------


@pytest.fixture
def float_power_calls(monkeypatch):
    """[calls, elements]: the np.float_power calls made while the test runs and the elements they powered."""
    calls = [0, 0]
    real = np.float_power

    def counting(*args, **kwargs):
        calls[0] += 1
        calls[1] += np.size(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "float_power", counting)
    return calls


def _unsettled_mesh(n: int = 40) -> tuple[np.ndarray, np.ndarray]:
    """Columns on which a residual implication bisects some points and is exactly 1 at others."""
    return np.linspace(0.05, 1.0, n), np.linspace(0.0, 0.9, n)


def _midpoint_elements(m: int, steps: range) -> int:
    """Elements of the midpoint columns of a bracket over m points: at step k the table of 2**(k-1) odd
    multiples of the width while it is at most a quarter of a column of MIDPOINT_TABLE_FLOOR or more, else
    the column itself."""
    tabled = m >= numerics.MIDPOINT_TABLE_FLOOR
    return sum(2 ** (k - 1) if tabled and 4 * 2 ** (k - 1) <= m else m for k in steps)


@pytest.fixture
def tables_on_short_columns(monkeypatch):
    """Midpoint tables on columns of any length, so that short meshes exercise them."""
    monkeypatch.setattr(numerics, "MIDPOINT_TABLE_FLOOR", 0)


@pytest.mark.parametrize(
    "implication, calls, elements",
    [
        # 31 evaluations of x**p * z**p (pred at 0 and 1, then 29 steps), x[cond]**p once in the bracket.
        # 6 points are bisected, too few for a table: 2 * 2 * 40 + 6 + 29 * 6.
        (ok.make_residual(ok.catalog("O_P", p=1.96)), 2 * 2 + 29 * 1 + 1, 2 * 2 * 40 + 6 + 29 * 6),
        # Five powers per evaluation, two of them of x: 3 a step, x**p and x**q once in the bracket.
        # All 40 points are bisected, fewer than MIDPOINT_TABLE_FLOOR, so every column is powered.
        (ok.make_residual(ok.idempotent_go(0.91, 2.0)), 2 * 5 + 29 * 3 + 2, 2 * 5 * 40 + 2 * 40 + 29 * 3 * 40),
    ],
    ids=["ro(O_P:p=1.96)", "ro(idem_go:p=0.91,q=2)"],
)
def test_fixed_column_powers_are_taken_once_per_bracket(implication, calls, elements, float_power_calls):
    x, y = _unsettled_mesh()
    got = implication.values(x, y)
    assert float_power_calls == [calls, elements]
    assert numerics._fixed == {}
    assert _bits(got) == _bits([implication(a, b) for a, b in zip(x.tolist(), y.tolist())])


def test_fixed_midpoint_powers_of_a_short_column_come_from_tables_below_the_floor(
    float_power_calls, tables_on_short_columns
):
    # With the floor lowered, the 40-point bracket of ro(idem_go) takes tables of 2, 4 and 8 values for
    # z**q and z**p at steps 2-4 (step 1's midpoint is a float, filled to a column).
    ro = ok.make_residual(ok.idempotent_go(0.91, 2.0))
    x, y = _unsettled_mesh()
    assert _bits(ro.values(x, y)) == _bits([ro(a, b) for a, b in zip(x.tolist(), y.tolist())])
    assert float_power_calls == [99, 2 * 5 * 40 + 2 * 40 + 29 * 40 + 2 * (40 + 2 + 4 + 8 + 25 * 40)]
    assert numerics._fixed == {}


def test_fixed_midpoint_powers_are_taken_from_tables_of_their_distinct_values(float_power_calls):
    # 1000 points all bisected (x**p > y): each step powers a table while it is at most 250 values.
    x, y = np.linspace(0.5, 1.0, 1000), np.linspace(0.0, 0.1, 1000)
    ro = ok.make_residual(ok.catalog("O_P", p=2.5))
    assert _bits(ro.values(x, y)) == _bits([ro(a, b) for a, b in zip(x.tolist(), y.tolist())])
    # The predicate at 0 and 1, x[cond] once, then the float midpoint of step 1 and steps 2-29.
    tables = 2 * 2 * 1000 + 1000 + 1000 + _midpoint_elements(1000, range(2, 30))
    assert float_power_calls == [34, tables]
    assert tables < 2 * 2 * 1000 + 1000 + 29 * 1000
    # An inverse bisects from an array lo, so its step 1 powers a table of one value; 511 points are too few.
    inverse = ok.inverse_negation(ok.make_power_strict(2.5))
    cases = [
        (1000, _midpoint_elements(1000, range(1, 30))),
        (512, 1 + 2 + 4 + 8 + 16 + 32 + 64 + 128 + 21 * 512),
        (511, 29 * 511),
    ]
    for n, elements in cases:
        float_power_calls[:] = [0, 0]
        y = np.linspace(0.001, 0.999, n)
        assert _bits(inverse.values(y)) == _bits([inverse(b) for b in y.tolist()])
        assert float_power_calls == [29, elements], n


_TABLE_SUBJECTS = {
    "ro(O_P:p)": lambda p, q: ok.make_residual(ok.catalog("O_P", p=p)),
    "ro(idem_go:p,q)": lambda p, q: ok.make_residual(ok.idempotent_go(p, q)),
    "inverse_negation(power:p)": lambda p, q: ok.inverse_negation(ok.make_power_strict(p)),
}


@settings(max_examples=24)
@given(
    subject=st.sampled_from(sorted(_TABLE_SUBJECTS)),
    p=st.floats(min_value=0.1, max_value=10.0),
    q=st.floats(min_value=0.1, max_value=10.0),
    n=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
)
@example(subject="ro(idem_go:p,q)", p=0.91, q=2.0, n=3000, seed=1)
@example(subject="inverse_negation(power:p)", p=2.5, q=1.0, n=3000, seed=2)
@example(subject="inverse_negation(power:p)", p=0.37, q=1.0, n=512, seed=3)
@example(subject="inverse_negation(power:p)", p=0.37, q=1.0, n=511, seed=3)
def test_fixed_midpoint_table_powers_match_the_scalar_reference(subject, p, q, n, seed):
    # Meshes from 1 to 3000 points, so that steps fall on both sides of the quarter-column table rule and
    # of MIDPOINT_TABLE_FLOOR.
    obj = _TABLE_SUBJECTS[subject](p, q)
    rng = np.random.default_rng(seed)
    xs = [rng.random(n), rng.random(n)][: obj.arity]
    got = obj.values(*xs)
    assert numerics._fixed == {}
    assert _bits(got) == _bits([obj(*point) for point in zip(*(c.tolist() for c in xs))])


@settings(max_examples=40)
@given(
    p=st.floats(min_value=0.1, max_value=10.0),
    thresholds=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40),
    n=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
    tol=st.sampled_from([1e-8, 2**-51]),
    start=st.sampled_from(sorted(_BRACKET_STARTS)),
)
@example(2.0, [1.0], numerics.MIDPOINT_TABLE_FLOOR, 0, 1e-8, "sup")  # holds everywhere
@example(0.5, [0.0], numerics.MIDPOINT_TABLE_FLOOR, 0, 1e-8, "invert")  # holds nowhere
def test_fixed_midpoint_powers_in_a_bracket_are_float_pow_at_every_step(p, thresholds, n, seed, tol, start):
    # The midpoints' powers at each of up to 53 steps, against the bracket of each float; from
    # MIDPOINT_TABLE_FLOOR elements up _pow powers the midpoints' table while the bracket moves lo.
    c = _repeated(thresholds, n, seed)
    tabled = []

    def holds(m):
        tabled.append(_midpoints_registered())
        return _pow(m, p) <= c

    lo, hi = _bracket(holds, tol, _BRACKET_STARTS[start](c))
    assert numerics._fixed == {}
    assert any(tabled) == (n >= numerics.MIDPOINT_TABLE_FLOOR)
    _assert_unsigned(lo, hi)
    for k, ck in enumerate(c.tolist()):
        want = _bracket(lambda m: m**p <= ck, tol)
        assert (float(lo[k]).hex(), float(hi[k]).hex()) == tuple(v.hex() for v in want)


def _raises(obj, *point) -> bool:
    try:
        obj(*point)
    except ok.UnitRangeError:
        return True
    return False


def _midpoints_registered() -> int:
    """How many bracket midpoint columns _fixed lists now."""
    return sum(steps is not None for _, _, steps in numerics._fixed.values())


@pytest.mark.parametrize("powered", ["x", "z"])
def test_fixed_column_powers_are_released_when_the_bracket_raises(powered, tables_on_short_columns):
    # Inside [0, 1] at z = 0 and z = 1, outside it for z in (0.3, 0.4), where some brackets step.
    # The held column x or the midpoints z are powered; the step that raises has its midpoints registered.
    registered_at_raise = []

    def fn(x, z):
        band = (z > 0.3) & (z < 0.4)
        if isinstance(z, np.ndarray) and band.any():
            registered_at_raise.append(_midpoints_registered())
        value = numerics._pow(x, 2.0) * z if powered == "x" else x * numerics._pow(z, 2.0)
        return numerics._where(band, 1.5, value)

    ro = ok.make_residual(ok.FusionFunction(fn=_vectorized(fn), arity=2, role="overlap", label="band"))
    x, y = np.linspace(0.05, 1.0, 40), np.linspace(0.3, 0.05, 40)
    points = list(zip(x.tolist(), y.tolist()))
    k = next(i for i, p in enumerate(points) if _raises(ro, *p))
    assert 0 < k < len(points) - 1
    with pytest.raises(ok.UnitRangeError) as at_point:
        ro(*points[k])
    assert str(at_point.value) == "value 1.5 is not in [0, 1]"
    with pytest.raises(ok.UnitRangeError) as on_mesh:
        ro.values(x, y)
    assert str(on_mesh.value) == str(at_point.value)
    assert registered_at_raise[0] == 1
    assert numerics._fixed == {}
    assert x.flags.writeable and y.flags.writeable
    # The whole-mesh walk raises point k's error.
    with pytest.raises(ok.UnitRangeError) as in_kernel:
        numerics._mesh_values((x, y), lambda a, b: (ro.values(a, b),))
    assert str(in_kernel.value) == str(at_point.value)
    assert numerics._fixed == {}


def test_mesh_values_raises_the_float_error_of_the_first_raising_point_of_a_later_block():
    # Three blocks; points k and k + 100 of the second are out of range, each with its own value.
    n, k = 2 * numerics.MAX_BLOCK + 100, numerics.MAX_BLOCK + 1234
    x = np.linspace(0.0, 1.0, n)
    arrays, floats = [], []

    def fn(a):
        bad = (a == x[k]) | (a == x[k + 100])
        if isinstance(a, np.ndarray):
            arrays.append((int(np.searchsorted(x, a[0])), len(a)))
            return numerics._where(bad, 1.0 + a / 4, 1.0 - a)
        floats.append(a)
        # Out of range by another value as a float, so the float error is told from the array one.
        return 2.0 + a if bad else 1.0 - a

    leaky = ok.Negation(fn=_vectorized(fn), label="leaky")
    with pytest.raises(ok.UnitRangeError) as at_point:
        leaky(float(x[k]))
    floats.clear()
    with pytest.raises(ok.UnitRangeError) as on_mesh:
        numerics._mesh_values((x,), lambda a: (numerics._value(leaky, a),))
    assert str(on_mesh.value) == str(at_point.value) == f"value {2.0 + float(x[k])!r} is not in [0, 1]"
    # The first block once, as arrays; then prefixes of the second; of the points after k, none as floats.
    assert arrays[0] == (0, numerics.MAX_BLOCK)
    assert all(start == numerics.MAX_BLOCK for start, _ in arrays[1:])
    assert max(start + size for start, size in arrays) <= 2 * numerics.MAX_BLOCK
    assert floats == [float(x[k])]


def test_fixed_midpoint_powers_are_released_when_an_inversion_raises(tables_on_short_columns):
    # 1 - x**2, but 1.5 for x in (0.3, 0.4): an inversion bracket steps into that band with its midpoints
    # registered.
    registered_at_raise = []

    def fn(x):
        band = (x > 0.3) & (x < 0.4)
        if isinstance(x, np.ndarray) and band.any():
            registered_at_raise.append(_midpoints_registered())
        return numerics._where(band, 1.5, 1.0 - numerics._pow(x, 2.0))

    leaky = ok.Negation(fn=_vectorized(fn), label="leaky", is_strict=True)
    y = np.linspace(0.05, 0.95, 40)
    k = next(i for i, v in enumerate(y.tolist()) if _raises(lambda v: ok.invert_strict(leaky, v, 1e-8), v))
    assert 0 < k < len(y) - 1
    with pytest.raises(ok.UnitRangeError) as at_point:
        ok.invert_strict(leaky, float(y[k]), 1e-8)
    with pytest.raises(ok.UnitRangeError) as on_mesh:
        _invert(leaky, y, 1e-8)
    assert str(on_mesh.value) == str(at_point.value) == "value 1.5 is not in [0, 1]"
    assert registered_at_raise[0] == 1
    assert numerics._fixed == {}


def test_fixed_column_powers_in_nested_bisections_match_the_scalar_reference(monkeypatch, tables_on_short_columns):
    zadeh, power2 = ok.make_standard(), ok.make_power_strict(2.0)
    cfg = ok.CheckConfig(grid_resolution=6, random_samples=4)
    # An overlap that is itself a residual implication: its bisection runs inside each outer step.
    inner = ok.make_residual(ok.catalog("O_P", p=2), cfg)
    fn = _vectorized(lambda x, z: 1.0 - numerics._value(inner, x, 1.0 - z))
    residual_overlap = ok.FusionFunction(fn=fn, arity=2, role="overlap", label="1 - ro(O_P:p=2)(x, 1 - z)")
    nested = {
        "ro(1 - ro(O_P:p=2)(x, 1 - z))": ok.make_residual(residual_overlap, cfg),
        "agg(min; ro(O_P:p=2), ro(O_DB))": ok.aggregate(
            ok.make_aggregation("min", 2),
            ok.OperatorFamily((ok.make_residual(ok.catalog("O_P", p=2)), ok.make_residual(ok.catalog("O_DB")))),
        ),
        "ro(recovered(gon(O_P:p=2, power:2)))": ok.make_residual(
            ok.recover_go(ok.make_gon(ok.catalog("O_P", p=2), power2), power2, cfg), cfg
        ),
        "ro(recovered(gon(idem_go:p=0.91,q=2, zadeh)))": ok.make_residual(
            ok.recover_go(ok.make_gon(ok.idempotent_go(0.91, 2.0), zadeh), zadeh, cfg), cfg
        ),
    }
    x, y = _sample_mesh(cfg, 2)
    # The most midpoint columns registered at once while each implication powers a table.
    most = {}
    real = numerics._pow_midpoints

    def spying(*args):
        most[label] = max(most.get(label, 0), _midpoints_registered())
        return real(*args)

    monkeypatch.setattr(numerics, "_pow_midpoints", spying)
    for label, implication in nested.items():
        got = implication.values(x, y)
        assert numerics._fixed == {}, label
        assert _bits(got) == _bits([implication(a, b) for a, b in zip(x.tolist(), y.tolist())]), label
    # An inner bracket runs inside an outer step and sees both steps' midpoints.
    assert most["ro(1 - ro(O_P:p=2)(x, 1 - z))"] == 2
    assert most["agg(min; ro(O_P:p=2), ro(O_DB))"] == 1


def test_joined_cuts_columns_of_different_lengths_back_within_two_scan_blocks():
    # The blocks of several meshes: consecutive calls are joined while they fit in 2 * SCAN_BLOCK points.
    rng = np.random.default_rng(0)
    calls = [[rng.random(n), rng.random(n)] for n in (301, 1024, 4096, 4096, 17, 2048, 4096)]
    seen = []

    def g(a, b):
        seen.append(len(a))
        return a * b

    out = numerics._joined(g, calls)
    assert [v.tolist() for v in out] == [(a * b).tolist() for a, b in calls]
    assert seen == [301 + 1024 + 4096, 4096 + 17 + 2048, 4096]
    assert max(seen) <= 2 * numerics.SCAN_BLOCK
