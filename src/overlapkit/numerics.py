"""Unit-interval numerics shared by every connective module.

All connectives in this package map [0,1]^n into [0,1]. This module owns the
small numeric core everything else leans on: a validating float type, the
check configuration (grid resolution, tolerances, RNG seed), the grid layer
that decides which points every check visits, two bisection kernels -- the
supremum of a downward-closed predicate (used by residual implications) and
the inversion of a strictly decreasing map (used by duality and recovery
roundtrips) -- and the mesh kernels every pointwise check runs on.

Bisections run a fixed iteration count ceil(log2(1/tol)) + 2 rather than
testing convergence, so results are bit-for-bit deterministic. Every
bisection except find_neutral's runs on one loop, _bracket, on floats or
on arrays, where each element takes the steps its float would. _sup and
_invert are one body each for a point and a mesh, and bisect only the
points whose result is not an exact endpoint.

_Connective is the one evaluation contract of Negation, FusionFunction
and Implication: a call checks the argument count and range-checks fn's
value into a UnitValue, and values() makes the same check and evaluates
arrays. Meshes are evaluated as numpy arrays and single points as floats,
and only this module chooses between them. Each connective formula is
written once over the primitives _min, _max, _prod, _fsum, _pow, _where,
_all, _not and the lazy _branch, and marked with _vectorized; compositions
go through _value. On floats each primitive runs the Python builtin, on
arrays the numpy ufunc, except that _pow and _fsum run Python's pow and
math.fsum per element: numpy's power rounds differently on a few percent
of points, so the bits would differ.

_scan_mesh is the first-witness scan and _mesh_values the full evaluation
of a mesh, both over one block loop, _blockwise. When a block raises
UnitRangeError or PreconditionError, _blockwise bisects on the block's
prefix length for the first point that raises, hands on the clean prefix
before it and then raises that point's error as its float evaluation
does. So the witness or error reported is the one met first in point
order, with no point evaluated as a scalar but the raising one.

_plain is the one serializer of the report dataclasses, and _Record gives
each of them as_dict() through it.

The grid layer builds every sample mesh: _axis is the one reduced-grid
rule, _sample_mesh the mesh the property scans walk and the one place its
point order is written (properties.pair_points and triple_points yield its
points), and _tensor the one full evaluation of an object on a product
grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache, partial, reduce
from typing import Callable, Optional

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
            raise UnitRangeError(f"value {v!r} is not in [0, 1]")
        return super().__new__(cls, v)

    def __repr__(self) -> str:
        return f"UnitValue({float(self)!r})"


def _plain(value):
    """value as JSON data: a dataclass as its fields in order (keyed by metadata "key" if set), tuples as lists."""
    if is_dataclass(value):
        return {f.metadata.get("key", f.name): _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


class _Record:
    """Base of the report dataclasses: as_dict() is the _plain form of the report."""

    def as_dict(self) -> dict:
        return _plain(self)


# Largest product mesh, grid_resolution, random_samples and search --steps:
# the columns of 11^7 points take over a gigabyte, so arity 7 and up, or a
# binary grid of over 3162 points per axis, is refused rather than evaluated.
MAX_GRID_POINTS = 10**7


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
        for name in ("grid_resolution", "random_samples"):
            if getattr(self, name) > MAX_GRID_POINTS:
                raise ConfigError(f"{name} must be at most {MAX_GRID_POINTS}")
        if not isinstance(self.rng_seed, int) or self.rng_seed < 0:
            raise ConfigError("rng_seed must be a nonnegative integer")
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
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text") from exc
    values: dict = {}
    for lineno, line in enumerate(lines, start=1):
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
    return [UnitValue(v) for v in np.concatenate((uniform_grid(config), random_points(config)))]


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
    merged = np.unique(np.concatenate((uniform_grid(config), random_points(config))))
    merged.setflags(write=False)
    return merged


def iteration_count(tol: float) -> int:
    """Fixed bisection iteration budget for a target tolerance."""
    if not (isinstance(tol, float) and math.isfinite(tol) and tol > 0.0):
        raise PreconditionError("tolerance must be a positive finite float")
    return max(1, math.ceil(math.log2(1.0 / tol))) + 2


def _bracket(holds: Callable, tol: float, lo=0.0, hi=1.0) -> tuple:
    """Final bracket (lo, hi) of bisecting [lo, hi]: lo moves up to mid where holds(mid), else hi down.

    holds(mid) is a bool on floats and a mask on arrays, which step elementwise.
    """
    for _ in range(iteration_count(tol)):
        mid = 0.5 * (lo + hi)
        ok = holds(mid)
        # isinstance inline, not _where: this runs at every step of every scalar bisection.
        if isinstance(ok, np.ndarray):
            lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
        else:
            lo, hi = (mid, hi) if ok else (lo, mid)
    return lo, hi


def bisect_sup(pred: Callable[[float], bool], tol: float) -> UnitValue:
    """Supremum of {z in [0,1] : pred(z)} for a downward-closed predicate.

    pred must hold at 0 and be true exactly on an initial segment [0, z*].
    Returns z with |z - z*| <= tol.
    """
    return UnitValue(_sup(pred, tol))


def invert_strict(negation, y: float, tol: float) -> UnitValue:
    """Solve N(x) = y for a strictly decreasing continuous negation.

    The negation must be declared strict (its is_strict flag); anything else
    is rejected because bisection on a non-monotone or discontinuous map is
    meaningless. Endpoints are returned exactly.
    """
    if not getattr(negation, "is_strict", False):
        raise PreconditionError("invert_strict requires a negation declared strict")
    return UnitValue(_invert(negation, y, tol))


def _sup(pred: Callable[..., bool], tol: float, *xs):
    """bisect_sup of z -> pred(*xs, z) at a point (floats) or at each point of the arrays xs.

    Where pred holds at 1 the result is exactly 1; only the other points are
    bisected. z comes last, so partial binds a point without a Python frame per step.
    """
    if not _all(pred(*xs, 0.0)):
        raise PreconditionError("bisect_sup requires pred(0) to hold")

    def bisect(*p):
        lo, hi = _bracket(partial(pred, *p), tol)
        return 0.5 * (lo + hi)

    return _branch(_not(pred(*xs, 1.0)), bisect, 1.0, *xs)


def _invert(negation, y, tol: float):
    """invert_strict at the float y, or at every element of the array y: exact at y = 0 and 1, else bisected."""
    t = _checked(y) if _is_array(y) else float(UnitValue(y))

    def bisect(s):
        # The bracket starts as arrays on a mesh, so every step evaluates N on one.
        lo, hi = _bracket(lambda mid: _value(negation, mid) >= s, tol, _min(s, 0.0), _max(s, 1.0))
        return 0.5 * (lo + hi)

    return _branch((t > 0.0) & (t < 1.0), bisect, _where(t >= 1.0, 0.0, 1.0), t)


def _apart(tol: float) -> Callable[[float, float], tuple[bool, float]]:
    """Scan relation failing where the two sides differ by more than tol.

    Works on floats and, elementwise, on arrays.
    """

    def relation(lhs: float, rhs: float) -> tuple[bool, float]:
        deviation = abs(lhs - rhs)
        return deviation > tol, deviation

    return relation


def _jump_bound(resolution: int) -> float:
    """The largest adjacent-cell jump a continuity check accepts on a grid of resolution points."""
    return 10.0 / resolution


# ---------------------------------------------------------------------------
# Array evaluation
# ---------------------------------------------------------------------------

# Largest block a mesh kernel evaluates at once: with a few temporaries per
# connective stage, a block holds well under a few MB.
MAX_BLOCK = 8192
FIRST_BLOCK = 256

# What evaluating a block raises when one of its points is out of range or
# breaks a contract; the kernels then look for the first such point.
_POINT_ERRORS = (UnitRangeError, PreconditionError)


def _vectorized(fn: Callable) -> Callable:
    """Mark fn as written over this module's primitives: it takes floats or float64 arrays.

    The mark rides on the function object, so an object built with another
    fn (dataclasses.replace) loses it and evaluates meshes point by point.
    """
    fn.vectorized = True
    return fn


def _is_array(*xs) -> bool:
    # A loop, not any() over a generator: this runs on every scalar primitive call.
    for x in xs:
        if isinstance(x, np.ndarray):
            return True
    return False


def _checked(values: np.ndarray) -> np.ndarray:
    """values if all lie in [0, 1], else UnitRangeError naming the first."""
    at = _first(~((values >= 0.0) & (values <= 1.0)))
    if at is not None:
        raise UnitRangeError(f"value {float(values[at])!r} is not in [0, 1]")
    return values


class _Connective:
    """The one evaluation contract of Negation, FusionFunction and Implication.

    A subclass has fn, label and arity. Its call evaluates fn at a point and
    range-checks the result into a UnitValue. values() broadcasts the arrays
    xs to equal-length 1-d float64 arrays and evaluates them with fn and the
    same range check when fn is marked _vectorized, and point by point
    through the call when it is not. Both refuse a wrong argument count with
    the same PreconditionError. Each subclass binds __call__ =
    _Connective.__call__ as its own attribute, so a tracer (bench/spans.py)
    can wrap one class's scalar calls and count them apart.
    """

    def _check_arity(self, xs: tuple) -> None:
        if len(xs) != self.arity:
            raise PreconditionError(f"{self.label} takes {self.arity} arguments, got {len(xs)}")

    def __call__(self, *xs: float) -> UnitValue:
        # _check_arity's test inline: this runs at every scalar evaluation.
        if len(xs) != self.arity:
            self._check_arity(xs)
        return UnitValue(self.fn(*xs))

    def values(self, *xs) -> np.ndarray:
        """The object at every point of the arrays xs, bit-identical to the call pointwise."""
        self._check_arity(xs)
        xs = tuple(np.atleast_1d(c) for c in np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in xs)))
        if getattr(self.fn, "vectorized", False):
            return _checked(self.fn(*xs))
        return np.array([float(self(*p)) for p in _scalar_points(xs)], dtype=float)


def _value(obj, *xs):
    """obj at a point (a float) or on a mesh (an array): the input picks the path."""
    # The loop of _is_array, inline: every composition calls this at every level.
    for x in xs:
        if isinstance(x, np.ndarray):
            return obj.values(*xs)
    return float(obj(*xs))


# The formula primitives: floats or arrays in (any array picks the array path), the same bits out.


def _min(*xs):
    return reduce(np.minimum, xs) if _is_array(*xs) else min(xs)


def _max(*xs):
    return reduce(np.maximum, xs) if _is_array(*xs) else max(xs)


def _prod(*xs):
    return reduce(np.multiply, xs) if _is_array(*xs) else math.prod(xs)


def _fsum(*xs):
    """math.fsum of xs, at each point of the arrays xs."""
    if _is_array(*xs):
        return np.array([math.fsum(p) for p in _scalar_points(xs)], dtype=float)
    return math.fsum(xs)


def _pow(base, exponent: float):
    """base ** exponent; on an array Python's float pow per element, as numpy's power rounds differently."""
    if _is_array(base):
        return np.array([b**exponent for b in base.tolist()], dtype=float)
    return base**exponent


def _all(cond) -> bool:
    """Whether cond holds: a bool on floats, every element of a mask on arrays."""
    return bool(cond.all()) if _is_array(cond) else bool(cond)


def _not(cond):
    return ~cond if _is_array(cond) else not cond


def _where(cond, a, b):
    """a where cond holds, else b. Both are evaluated; see _branch for a lazy choice."""
    return np.where(cond, a, b) if _is_array(cond, a, b) else (a if cond else b)


def _branch(cond, branch: Callable, other, *xs):
    """branch(*xs) where cond holds, else other.

    On floats cond is a bool; on arrays a mask, and branch sees only the
    elements of the arrays xs where it holds, as the scalar form would.
    other is a float, or on arrays also an array of cond's shape.
    """
    if not _is_array(cond):
        return branch(*xs) if cond else other
    out = np.full(cond.shape, other, dtype=float)
    if cond.any():
        out[cond] = branch(*(x[cond] for x in xs))
    return out


def _blocks(n: int, first: int):
    """(start, stop) over range(n) in blocks doubling from first up to MAX_BLOCK."""
    start, size = 0, first
    while start < n:
        stop = min(n, start + size)
        yield start, stop
        start, size = stop, min(2 * size, MAX_BLOCK)


def _scalar_points(cols: tuple):
    return zip(*(c.tolist() for c in cols))


def _blockwise(cols: tuple[np.ndarray, ...], fn: Callable[..., tuple], first: int):
    """(start, arrays) for each block of _blocks over the columns cols, arrays being fn(*block) broadcast.

    Points evaluate independently, so a prefix of a block raises exactly
    when one of its points does. A block that raises is bisected on its
    prefix length for its first raising point k, in at most 13 evaluations
    for MAX_BLOCK points. The clean prefix before k is yielded; resuming
    raises k's error as fn raises it on k's floats, the error a point-by-point
    run meets first, or, should the floats pass, the array error.
    """
    for start, stop in _blocks(len(cols[0]), first):
        block = tuple(c[start:stop] for c in cols)
        # clean is the longest prefix known to evaluate, raising the shortest known to raise.
        clean, raising, m = 0, stop - start + 1, stop - start
        while raising - clean > 1:
            try:
                arrays, clean = np.broadcast_arrays(*fn(*(c[:m] for c in block))), m
            except _POINT_ERRORS as exc:
                error, raising = exc, m
            m = (clean + raising) // 2
        if clean:
            yield start, arrays
        if clean < stop - start:
            fn(*(float(c[clean]) for c in block))
            raise error


def _scan_mesh(
    cols: tuple[np.ndarray, ...],
    sides: Callable[..., tuple],
    relation: Callable,
) -> tuple[Optional[tuple], int, float]:
    """First-witness scan of a pointwise relation over the points given as columns.

    sides(*coords) gives (lhs, rhs) and relation(lhs, rhs) gives (failed,
    deviation), both on block arrays. Stops at the first failing point.
    Returns (witness, count, worst) with Python floats: witness is (point,
    lhs, rhs, deviation) of that point or None, count the points visited
    (the failing one included), worst the largest deviation seen. Blocks
    double in size, so a scan failing at point k evaluates about 2k points
    plus one block. When a point's sides raise, the scan reports a witness
    before that point if there is one and raises the point's error
    otherwise, as a point-by-point scan would.
    """
    worst = 0.0
    for start, (lhs, rhs) in _blockwise(cols, sides, FIRST_BLOCK):
        failed, deviation = relation(lhs, rhs)
        hit = _first(failed)
        if hit is not None:
            (k,) = hit
            worst = max(worst, float(deviation[: k + 1].max()))
            point = tuple(float(c[start + k]) for c in cols)
            return (point, float(lhs[k]), float(rhs[k]), float(deviation[k])), start + k + 1, worst
        worst = max(worst, float(deviation.max()))
    return None, len(cols[0]), worst


def _mesh_values(cols: tuple[np.ndarray, ...], fn: Callable[..., tuple]) -> tuple[np.ndarray, ...]:
    """Every point's fn(*coords), a tuple of values, as one array per entry.

    Evaluates blocks of MAX_BLOCK points as arrays. When a point raises, the
    error raised is that of the first such point, as a point-by-point
    evaluation would raise it.
    """
    parts = [arrays for _, arrays in _blockwise(cols, fn, MAX_BLOCK)]
    return tuple(np.concatenate(col) for col in zip(*parts))


# ---------------------------------------------------------------------------
# Grid layer: which points a check visits
# ---------------------------------------------------------------------------

def _axis(config: CheckConfig, arity: int) -> np.ndarray:
    """The grid along each coordinate: the configured one up to arity 2, 21 points for 3, 11 beyond."""
    if arity <= 2:
        return uniform_grid(config)
    return np.linspace(0.0, 1.0, 21 if arity == 3 else 11)


def _product_mesh(axis: np.ndarray, arity: int) -> tuple[np.ndarray, ...]:
    """Columns of itertools.product(axis, repeat=arity), in its order, refused above MAX_GRID_POINTS."""
    # Compared as logarithms, so a huge arity never builds len(axis)**arity.
    if arity * math.log(len(axis)) > math.log(MAX_GRID_POINTS):
        raise PreconditionError(f"arity {arity} needs {len(axis)}^{arity} points, more than {MAX_GRID_POINTS}")
    return tuple(g.ravel() for g in np.meshgrid(*[np.asarray(axis, dtype=float)] * arity, indexing="ij"))


def _grid_mesh(config: CheckConfig, arity: int) -> tuple[np.ndarray, ...]:
    """Columns of the product grid of _axis(config, arity), in C order."""
    return _product_mesh(_axis(config, arity), arity)


def _sample_mesh(config: CheckConfig, arity: int) -> tuple[np.ndarray, ...]:
    """Columns of _grid_mesh(config, arity), then of the random points taken arity at a time."""
    r = random_points(config)
    m = len(r) // arity
    return tuple(np.concatenate((g, r[k : arity * m : arity])) for k, g in enumerate(_grid_mesh(config, arity)))


def _tensor(f, axis: np.ndarray) -> np.ndarray:
    """f (a Negation, FusionFunction or Implication) on the product grid of axis, one tensor axis per argument."""
    (vals,) = _mesh_values(_product_mesh(axis, f.arity), lambda *p: (_value(f, *p),))
    return vals.reshape((len(axis),) * f.arity)


def _first(mask: np.ndarray) -> Optional[tuple[int, ...]]:
    """Index of the first True of mask in C order, or None when there is none."""
    if not mask.any():
        return None
    return tuple(int(k) for k in np.unravel_index(int(np.argmax(mask)), mask.shape))
