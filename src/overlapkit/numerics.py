"""Unit-interval numerics shared by every connective module.

All connectives in this package map [0,1]^n into [0,1]. This module owns the
small numeric core everything else leans on: a validating float type, the
check configuration (grid resolution, tolerances, RNG seed), deterministic
sample grids, two bisection kernels -- the supremum of a downward-closed
predicate (used by residual implications) and the inversion of a strictly
decreasing map (used by duality and recovery roundtrips) -- and the private
first-witness scan kernel _scan that every pointwise mesh check runs on.

Bisections run a fixed iteration count ceil(log2(1/tol)) + 2 rather than
testing convergence, so results are bit-for-bit deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, Iterable, Optional

import numpy as np


class OverlapkitError(Exception):
    """Base class for all library errors."""


class UnitRangeError(OverlapkitError, ValueError):
    """A value escaped [0, 1] (or was NaN)."""


class PreconditionError(OverlapkitError, ValueError):
    """An operation was called with arguments violating its contract."""


class ConfigError(OverlapkitError, ValueError):
    """A config file or config value could not be parsed."""


class UnitValue(float):
    """A float constrained to [0.0, 1.0].

    Construction rejects NaN and out-of-range input instead of clamping, so a
    connective that leaks outside the unit interval fails at the point of the
    bug rather than poisoning downstream checks.
    """

    __slots__ = ()

    def __new__(cls, value: float) -> "UnitValue":
        v = float(value)
        if math.isnan(v) or v < 0.0 or v > 1.0:
            raise UnitRangeError(f"value {value!r} is not in [0, 1]")
        return super().__new__(cls, v)

    def __repr__(self) -> str:
        return f"UnitValue({float(self)!r})"


@dataclass(frozen=True)
class CheckConfig:
    """Knobs for every numeric check.

    grid_resolution equally spaced points (always including 0 and 1) plus
    random_samples extra points drawn from a seeded generator make up the
    sample set. eq_tol guards closed-form identities; bisect_tol guards
    anything computed iteratively. The two tolerances are independent.
    """

    grid_resolution: int = 101
    random_samples: int = 200
    rng_seed: int = 0
    eq_tol: float = 1e-9
    bisect_tol: float = 1e-8

    def __post_init__(self) -> None:
        if not isinstance(self.grid_resolution, int) or self.grid_resolution < 2:
            raise ConfigError("grid_resolution must be an integer >= 2")
        if not isinstance(self.random_samples, int) or self.random_samples < 0:
            raise ConfigError("random_samples must be a nonnegative integer")
        if not isinstance(self.rng_seed, int):
            raise ConfigError("rng_seed must be an integer")
        for name in ("eq_tol", "bisect_tol"):
            value = getattr(self, name)
            if not (isinstance(value, float) and math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name} must be a positive finite float")


DEFAULT_CONFIG = CheckConfig()

_CONFIG_KEYS = {f.name for f in fields(CheckConfig)}
_INT_KEYS = {"grid_resolution", "random_samples", "rng_seed"}


def config_from_mapping(mapping: dict) -> CheckConfig:
    """Build a CheckConfig from string keys/values (config file or CLI)."""
    kwargs: dict = {}
    for key, raw in mapping.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            kwargs[key] = int(raw) if key in _INT_KEYS else float(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
    return CheckConfig(**kwargs)


def load_config(path: str) -> CheckConfig:
    """Load a CheckConfig from a plain key = value file.

    Recognized keys are exactly: grid_resolution, random_samples, rng_seed,
    eq_tol, bisect_tol. Blank lines and '#' comments are ignored. Missing
    keys keep their defaults.
    """
    values: dict = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = text.partition("=")
            values[key.strip()] = raw.strip()
    return config_from_mapping(values)


def sample_grid(config: CheckConfig = DEFAULT_CONFIG) -> list[UnitValue]:
    """Equally spaced points 0..1 followed by seeded random points.

    Deterministic for a given config: same seed, same list.
    """
    pts = [UnitValue(v) for v in np.linspace(0.0, 1.0, config.grid_resolution)]
    pts.extend(UnitValue(v) for v in random_points(config))
    return pts


@lru_cache(maxsize=32)
def random_points(config: CheckConfig = DEFAULT_CONFIG) -> np.ndarray:
    """The seeded random part of the sample set, as a read-only array."""
    rng = np.random.default_rng(config.rng_seed)
    pts = rng.random(config.random_samples)
    pts.setflags(write=False)
    return pts


@lru_cache(maxsize=32)
def uniform_grid(config: CheckConfig = DEFAULT_CONFIG) -> np.ndarray:
    """The equally spaced part of the sample grid, as a read-only array."""
    grid = np.linspace(0.0, 1.0, config.grid_resolution)
    grid.setflags(write=False)
    return grid


@lru_cache(maxsize=32)
def sorted_samples(config: CheckConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Sorted, deduplicated union of the uniform grid and the random points."""
    merged = np.unique(np.asarray(sample_grid(config), dtype=float))
    merged.setflags(write=False)
    return merged


def iteration_count(tol: float) -> int:
    """Fixed bisection iteration budget for a target tolerance."""
    if not (isinstance(tol, float) and math.isfinite(tol) and tol > 0.0):
        raise PreconditionError("tolerance must be a positive finite float")
    return max(1, math.ceil(math.log2(1.0 / tol))) + 2


def bisect_sup(pred: Callable[[float], bool], tol: float) -> UnitValue:
    """Supremum of {z in [0,1] : pred(z)} for a downward-closed predicate.

    pred must hold at 0 and be true exactly on an initial segment [0, z*].
    Returns z with |z - z*| <= tol.
    """
    if not pred(0.0):
        raise PreconditionError("bisect_sup requires pred(0) to hold")
    if pred(1.0):
        return UnitValue(1.0)
    lo, hi = 0.0, 1.0
    for _ in range(iteration_count(tol)):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return UnitValue(0.5 * (lo + hi))


def invert_strict(negation, y: float, tol: float) -> UnitValue:
    """Solve N(x) = y for a strictly decreasing continuous negation.

    The negation must be declared strict (its is_strict flag); anything else
    is rejected because bisection on a non-monotone or discontinuous map is
    meaningless. Endpoints are returned exactly.
    """
    if not getattr(negation, "is_strict", False):
        raise PreconditionError("invert_strict requires a negation declared strict")
    target = UnitValue(y)
    if target >= 1.0:
        return UnitValue(0.0)
    if target <= 0.0:
        return UnitValue(1.0)
    lo, hi = 0.0, 1.0  # N(lo) >= target >= N(hi) throughout
    for _ in range(iteration_count(tol)):
        mid = 0.5 * (lo + hi)
        if negation(mid) >= target:
            lo = mid
        else:
            hi = mid
    return UnitValue(0.5 * (lo + hi))


def _scan(
    points: Iterable[tuple],
    sides: Callable[[tuple], tuple[float, float]],
    relation: Callable[[float, float], tuple[bool, float]],
) -> tuple[Optional[tuple], int, float]:
    """First-witness scan of a pointwise relation over a mesh.

    Visits points in order; sides(point) gives (lhs, rhs) and
    relation(lhs, rhs) gives (failed, deviation). Stops at the first failing
    point. Returns (witness, count, worst): witness is (point, lhs, rhs,
    deviation) of that point or None, count the points visited (the failing
    one included), worst the largest deviation seen.
    """
    worst, count = 0.0, 0
    for point in points:
        count += 1
        lhs, rhs = sides(point)
        failed, deviation = relation(lhs, rhs)
        if deviation > worst:
            worst = deviation
        if failed:
            return (point, lhs, rhs, deviation), count, worst
    return None, count, worst


def _apart(tol: float) -> Callable[[float, float], tuple[bool, float]]:
    """Scan relation failing where the two sides differ by more than tol."""

    def relation(lhs: float, rhs: float) -> tuple[bool, float]:
        deviation = abs(lhs - rhs)
        return deviation > tol, deviation

    return relation
