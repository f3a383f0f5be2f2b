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
on arrays, where each element takes the steps its float would. Its bracket
is dyadic: it starts at [0, 1] and halves at each step, so it is one
array lo and a float width, and each step is two additions and a
product: mid = lo + width, then lo + width * ok for the mask ok. That is
np.where(ok, mid, lo) bit for bit, since lo is never -0.0, without
np.where's branch per element, which mispredicts on a bisection's mask,
new at every step: on a shared 2-core x86-64 host, at 2,048 elements
np.where took 11.0 us with a fresh half-true mask against 2.6 us with one
mask repeated, and the product and sum 3.4 us with either. The bounds and
midpoints are exact float64 values for up to 53 steps, so
iteration_count refuses a tol below MIN_BISECT_TOL = 2**-51 and
CheckConfig a bisect_tol below it. _sup and _invert are one body each for
a point and a mesh, and bisect only the points whose result is not an
exact endpoint. One step on a mesh costs the connective's formula, one
range check, the comparison and the move of lo: values() tests the arity
inline and passes ready columns through untouched. One registry, _fixed,
lists the columns whose powers are cheap while a bracket runs: the
columns it holds fixed (_sup's point), which _pow powers once per
exponent for the whole bracket, and the current step's midpoints. At
step k these hold at most 2**(k-1) distinct values, the odd multiples of
the width, so while that table is at most a quarter of a column of at
least MIDPOINT_TABLE_FLOOR (512) elements _pow powers the table and
gathers.
_bracket alone sets the registry and restores it in a finally, so
nested bisections see their own columns and nothing outlives a bracket.

The range check, _checked, passes an in-range float64 array with one
reduction: the maximum of its bits viewed as uint64 is at most those of
1.0 exactly when every element lies in [+0.0, 1.0]. Anything else (-0.0,
a NaN of either sign, a value out of range, another dtype) takes the two
reductions, min and max, which pass -0.0, and only an array that fails
them builds the mask that names the first bad value.

_Connective is the one evaluation contract of Negation, FusionFunction
and Implication: a call checks the argument count and range-checks fn's
value into a UnitValue, and values() makes the same check and evaluates
arrays. Meshes are evaluated as numpy arrays and single points as floats,
and only this module chooses between them. Each connective formula is
written once over the primitives _min, _max, _prod, _fsum, _pow, _where,
_all, _not and the lazy _branch, and marked with _vectorized; compositions
go through _value. On floats each primitive runs the Python builtin, on
arrays the numpy ufunc, with two exceptions. _pow is np.float_power, which
calls the C library's pow as Python's float pow does, not np.power, whose
vector kernels round differently from host to host; a non-finite result
runs Python's pow per element, so errors stay as on floats, and a column
in _fixed is powered more cheaply with the same bits. _fsum of two
columns is np.add(a, b) + 0.0, the one correctly rounded sum with fsum's
+0.0 for -0.0 + -0.0, and of three columns _fsum3, the correctly rounded
sum from TwoSum steps and one rounding to odd; a non-finite sum, three
terms near overflow, or four or more columns, runs math.fsum per point.
The array path of _invert bisects each distinct y once (_distinct, from
DISTINCT_FLOOR elements up). _joined evaluates one composite at several
argument lists of 1-d arrays, of any lengths, with one call per 2 *
SCAN_BLOCK points, on their columns joined, so each connective it nests
is called once for all of them.

Arrays reach values() in two forms: equal-length 1-d columns, the points
of a mesh, or broadcast axes, float64 arrays of one dimension count that
broadcast together, which _tensor passes ((m, 1) and (1, m) for a binary
object) so that a term of one coordinate is computed once per axis
value. The primitives are ufuncs or broadcast their arguments (_branch,
and the per-point fallbacks of _fsum and _pow, through _pointwise), so
both forms give the bits of the scalar call.

_scan_rows is the one first-witness scan, and every pointwise check of
the package is a row of it: the property table, I(x, y) against J(x, y)
(check_commutes and classify_crisp's fit), classify_crisp's two-valued
scan, T2, the O2/G3 boundary lines and find_neutral's candidate scan. A
row's two sides are terms over the coordinates x, y and z whose heads name
connectives in an environment: EP's I(x, I(y, z)) is ("I", "x", ("I",
"y", "z")) in {"I": implication}. _scan_rows walks several meshes, each
with its rows, in one loop of rounds; a single scan is one mesh. Each
mesh takes blocks doubling from FIRST_BLOCK (1024 points) up to
SCAN_BLOCK (4096) of its own, and a round evaluates the next block of
every mesh still walking at once, each row leaving at its first witness
and each mesh when its rows or its points run out. _plan schedules the
rows of the meshes still walking when the walk starts and when a row or
a mesh leaves: a term is named per mesh, its height is one more than the
greatest of the terms of its mesh that take it (0 for a side), and
heights are evaluated from the greatest down, one joined call per head
(_joined) across all the meshes, so CP's I(x, y) and I(N(y), N(x))
share one call, and NP's and IP's I(x, y) share it too. For a residual
implication each call is one bisection, whatever its length, so a walk
of every mesh at once runs fewer of them. _sides evaluates a plan on a
block of each mesh, or term by term as floats at a point. _mesh_values,
the full evaluation of a mesh by a callable, slices its own blocks of
MAX_BLOCK (16384) points, so the grid-101 pair mesh is one block. When a
block of a round of one mesh, or of _mesh_values, raises UnitRangeError
or PreconditionError, _clean_prefix bisects on the block's prefix length
for the first point that raises; a scan walks its rows on the clean
prefix before it, and then that point's error is raised as its float
evaluation raises it. So the witness or error reported is the one met
first in point order, with no point evaluated as a scalar but the
raising one. A round of several meshes that raises raises as it is, and
properties.check_properties then runs its rows one by one.

_plain is the one serializer: _Record gives each report dataclass
as_dict() through it, and the CLI's JSON output is json.dumps of
_plain(payload, 9), its floats rounded to 9 decimals in the same walk.

The grid layer builds every sample mesh: _axis is the one reduced-grid
rule, _sample_mesh the mesh the property scans walk (cached and read-only)
and the one place its point order is written (properties.pair_points and
triple_points yield its points), and _tensor the one full evaluation of an
object on a product grid, on its broadcast axes (_product_axes) unless
the object is not vectorized or that raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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


def _plain(value, decimals: Optional[int] = None):
    """value as JSON data, each float rounded to decimals when given.

    A dataclass becomes its fields in order (keyed by metadata "key" if
    set), a tuple or list a list, a dict a dict; anything else, a numpy
    array among them, is left as it is. Strings, most leaves of a CLI
    payload, are tested first, and a dataclass is known by the attribute
    dataclasses.is_dataclass reads: is_dataclass itself cost about a
    microsecond a value, most of the walk of catalog's payload of strings.
    """
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return value if decimals is None else round(value, decimals)
    if isinstance(value, dict):
        return {k: _plain(v, decimals) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_plain(v, decimals) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return {f.metadata.get("key", f.name): _plain(getattr(value, f.name), decimals) for f in fields(value)}
    return value


class _Record:
    """Base of the report dataclasses: as_dict() is the _plain form of the report."""

    def as_dict(self) -> dict:
        return _plain(self)


# Largest product mesh, grid_resolution, random_samples and search --steps:
# the columns of 11^7 points take over a gigabyte, so arity 7 and up, or a
# binary grid of over 3162 points per axis, is refused rather than evaluated.
MAX_GRID_POINTS = 10**7

# Smallest bisection tolerance: iteration_count(MIN_BISECT_TOL) is 53, the
# most steps whose dyadic midpoints float64 holds exactly on [0, 1] (_bracket).
MIN_BISECT_TOL = 2.0**-51


@dataclass(frozen=True)
class CheckConfig:
    """Knobs for every numeric check.

    grid_resolution equally spaced points (always including 0 and 1) plus
    random_samples extra points drawn from a seeded generator make up the
    sample set. eq_tol guards closed-form identities; bisect_tol guards
    anything computed iteratively, and is at least MIN_BISECT_TOL. The two
    tolerances are independent.
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
        if self.bisect_tol < MIN_BISECT_TOL:
            raise ConfigError(f"bisect_tol must be at least 2**-51 ({MIN_BISECT_TOL!r}), got {self.bisect_tol!r}")


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
    """Fixed bisection iteration budget for a target tolerance, at most 53 steps."""
    if not (isinstance(tol, float) and math.isfinite(tol) and tol > 0.0):
        raise PreconditionError("tolerance must be a positive finite float")
    if tol < MIN_BISECT_TOL:
        raise PreconditionError(f"tolerance {tol!r} is below 2**-51, finer than 53 bisection steps resolve")
    return max(1, math.ceil(math.log2(1.0 / tol))) + 2


def _bracket(holds: Callable, tol: float, lo=0.0, fixed=()) -> tuple:
    """Final bracket (lo, hi) of bisecting [0, 1]: lo moves up to mid where holds(mid), else hi down.

    lo is 0.0, or zeros as an array so that holds sees arrays from the first
    step. holds(mid) is a bool on floats and a mask on arrays, which step
    elementwise. The bracket is dyadic: after k steps hi is lo + 2**-k, and
    for k <= 53 every such lo, hi and midpoint in [0, 1] is a float64, so
    one array lo and the float width carry the bracket, and each midpoint is
    the 0.5 * (lo + hi) of a two-bound loop bit for bit.

    An array step moves lo by width * ok into a new array: lo + width is mid
    and lo + 0.0 is lo, because lo starts at +0.0 (_sup's 0.0, _invert's
    _min(s, 0.0) with s > 0) and never takes a -0.0. A mask that is not
    bool is cast to bool, so its truth values are np.where's. np.where(ok,
    mid, lo) gives the same bits at three times the cost on the fresh
    half-true mask of each step (11.0 against 3.4 us at 2,048 elements),
    its per-element branch mispredicting.

    fixed are arrays that holds reads unchanged at every step. They are
    made read-only, so a kept power cannot go stale, and registered in
    _fixed for the whole bracket, so _pow powers each once per exponent. At step k an array of midpoints holds at
    most 2**(k-1) distinct values, the odd multiples of width. While that
    table is at most a quarter of an array of at least MIDPOINT_TABLE_FLOOR
    elements, the midpoints are registered beside them, so _pow powers the
    table and gathers; the registry is restored when the bracket ends or
    raises.
    """
    global _fixed
    outer = _fixed
    for c in fixed:
        c.flags.writeable = False
    held = {**outer, **{id(c): (c, {}, None) for c in fixed}} if fixed else outer
    width = 1.0
    on_array = type(lo) is np.ndarray
    try:
        _fixed = held
        for _ in range(iteration_count(tol)):
            width *= 0.5
            mid = lo + width
            if on_array:
                # Only float64 midpoints are the exact odd multiples the table holds.
                if width * lo.size >= 2.0 and lo.size >= MIDPOINT_TABLE_FLOOR and lo.dtype is _FLOAT64:
                    mid.flags.writeable = False
                    _fixed = {**held, id(mid): (mid, {}, (lo, width))}
                else:
                    _fixed = held
            ok = holds(mid)
            # isinstance inline, not _where: this runs at every step of every scalar bisection.
            if isinstance(ok, np.ndarray):
                lo = lo + width * ok.astype(bool, copy=False)
                on_array = True
            elif ok:
                lo = mid
    finally:
        _fixed = outer
    return lo, lo + width


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
        # On a mesh the columns p (copies _branch made) stay fixed for the whole bracket.
        lo, hi = _bracket(partial(pred, *p), tol, 0.0, p if _is_array(*p) else ())
        return 0.5 * (lo + hi)

    return _branch(_not(pred(*xs, 1.0)), bisect, 1.0, *xs)


def _invert(negation, y, tol: float):
    """invert_strict at the float y, or at every element of the array y: exact at y = 0 and 1, else bisected."""
    t = _checked(y) if _is_array(y) else float(UnitValue(y))

    def bisect(s):
        # lo starts as an array on a mesh, so every step evaluates N on one.
        lo, hi = _bracket(lambda mid: _value(negation, mid) >= s, tol, _min(s, 0.0))
        return 0.5 * (lo + hi)

    def bisect_distinct(s):
        # A mesh repeats its y values: bisect each distinct one once and scatter the results back.
        distinct = _distinct(s)
        if distinct is None:
            return bisect(s)
        values, inverse = distinct
        return bisect(values)[inverse]

    return _branch((t > 0.0) & (t < 1.0), bisect_distinct, _where(t >= 1.0, 0.0, 1.0), t)


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

# Block sizes of the mesh kernels. Each block of a composition pays a fixed
# wrapper, range-check and dispatch cost (a CP block of gon(GO_max, zadeh)
# took 64 us at 256 points and 85 us at 1024 on a shared 2-core x86-64
# host), so blocks are large. But a call joined past 8192 points costs
# more than the call it saves (that CP block joined took 97 us at 4096
# points and 413 us at 8192, against 154 us as two calls), so a
# first-witness scan takes blocks doubling from FIRST_BLOCK up to
# SCAN_BLOCK, and _joined joins at most two of them: a full scan of the
# grid-101 pair mesh (10,301 points) takes 4 blocks. A full evaluation takes blocks of MAX_BLOCK, so that of the
# grid-101 pair mesh is one block.
FIRST_BLOCK = 1024
SCAN_BLOCK = 4096
MAX_BLOCK = 16384

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


def _number(v: float) -> str:
    """v as a label writes it: f"{v:g}" when that reads back as v, else repr(v), so the label names v exactly."""
    short = f"{v:g}"
    return short if float(short) == v else repr(v)


def _is_array(*xs) -> bool:
    # A loop, not any() over a generator: this runs on every scalar primitive call.
    for x in xs:
        if isinstance(x, np.ndarray):
            return True
    return False


# The bits of 1.0. Viewed as uint64, the float64 values in [+0.0, 1.0] are
# exactly those at most these bits: -0.0, other negatives and NaNs of either
# sign lie above them.
_ONE_BITS = 0x3FF0000000000000


def _checked(values: np.ndarray) -> np.ndarray:
    """values if all lie in [0, 1], else UnitRangeError naming the first.

    One reduction, the maximum of a float64 array's bits, passes an array
    in [+0.0, 1.0]. Anything else -- -0.0, a NaN, a value out of range,
    another dtype -- takes two reductions, which pass -0.0 and fail a NaN,
    and only an array that fails them builds the mask that finds the first
    bad value.
    """
    if not values.size:
        return values
    if values.dtype is _FLOAT64 and np.maximum.reduce(values.view(np.uint64), axis=None) <= _ONE_BITS:
        return values
    if np.minimum.reduce(values, axis=None) >= 0.0 and np.maximum.reduce(values, axis=None) <= 1.0:
        return values
    at = _first(~((values >= 0.0) & (values <= 1.0)))
    if at is not None:
        raise UnitRangeError(f"value {float(values[at])!r} is not in [0, 1]")
    return values


class _Connective:
    """The one evaluation contract of Negation, FusionFunction and Implication.

    A subclass has fn, label and arity. Its call evaluates fn at a point and
    range-checks the result into a UnitValue. values() takes the arrays xs
    as equal-length 1-d float64 columns or as broadcast axes (_columns) and
    evaluates them with fn and the same range check when fn is marked
    _vectorized, and point by point through the call when it is not. Both refuse a wrong argument count with
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
        # As in __call__: this runs at every step of every mesh bisection.
        if len(xs) != self.arity:
            self._check_arity(xs)
        xs = _columns(xs)
        if getattr(self.fn, "vectorized", False):
            return _checked(self.fn(*xs))
        return _pointwise(lambda *p: float(self(*p)), xs)


_FLOAT64 = np.dtype(np.float64)


def _columns(xs: tuple) -> tuple[np.ndarray, ...]:
    """xs as the float64 arrays values() evaluates: equal-length 1-d columns, or broadcast axes.

    Compositions pass such columns, which come back as they are, and a
    float beside them becomes a constant column, without
    np.broadcast_arrays: it costs about 10 us a call, several times a whole
    evaluation of a short block. float64 arrays of one dimension count
    above 1 that broadcast together (_tensor's axes and what a formula
    makes of them) also come back as they are, a float beside them as an
    array of ones' shape; anything else is broadcast to 1-d columns.
    """
    n = None
    filled = False
    for x in xs:
        if type(x) is np.ndarray and x.dtype is _FLOAT64 and x.ndim == 1 and (n is None or n == len(x)):
            n = len(x)
        elif type(x) is float:
            filled = True
        else:
            break
    else:
        if n is not None:
            return tuple(np.full(n, x) if type(x) is float else x for x in xs) if filled else xs
    arrays = [x for x in xs if type(x) is not float]
    ndim = getattr(arrays[0], "ndim", 0) if arrays else 0
    if ndim > 1 and all(type(x) is np.ndarray and x.dtype is _FLOAT64 and x.ndim == ndim for x in arrays):
        # Raises the ValueError of np.broadcast_arrays when the shapes do not broadcast.
        np.broadcast_shapes(*(x.shape for x in arrays))
        return tuple(np.full((1,) * ndim, x) if type(x) is float else x for x in xs)
    return tuple(np.atleast_1d(c) for c in np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in xs)))


def _pointwise(g: Callable[..., float], xs: tuple) -> np.ndarray:
    """g at each point of xs, taken as Python floats, as an array of their broadcast shape."""
    cols = np.broadcast_arrays(*xs)
    values = [g(*p) for p in zip(*(c.ravel().tolist() for c in cols))]
    return np.array(values, dtype=float).reshape(cols[0].shape)


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


def _two_sum(a, b):
    """(s, e): s the rounded a + b and e its error, so s + e is a + b exactly (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


# Three columns whose magnitudes sum below this bound cannot overflow, in
# math.fsum's partial sums or in the TwoSum steps.
_FSUM3_BOUND = 2.0**1022


def _fsum3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The correctly rounded a + b + c at each point, or None when a term is not finite or may overflow.

    Boldo and Melquiond's sum of three (IEEE TC 2008): two TwoSum steps
    give a + b + c = th + tl + ul exactly, with th the rounded a + (b + c);
    tl + ul rounded to odd (the rounded sum, moved one ulp towards its
    error when that error is not 0 and the rounded sum's last bit is even)
    keeps the sticky bit that makes th + (tl + ul) round once, correctly.
    """
    # Quiet: huge terms overflow the bound's test, and a NaN or an infinity fails it.
    with np.errstate(over="ignore"):
        if not (np.abs(a) + np.abs(b) + np.abs(c) < _FSUM3_BOUND).all():
            return None
    uh, ul = _two_sum(b, c)
    th, tl = _two_sum(a, uh)
    v, e = _two_sum(tl, ul)
    # v is a fresh array; its points with an inexact, even sum, often none, move one ulp.
    odd = (e != 0.0) & ((v.view(np.uint64) & 1) == 0)
    v[odd] = np.nextafter(v[odd], np.copysign(np.inf, e[odd]))
    return th + v + 0.0


def _fsum(*xs):
    """math.fsum of xs, at each point of the arrays xs.

    Two finite terms have one correctly rounded sum, np.add's, and three
    have _fsum3's; + 0.0 turns their -0.0 into fsum's 0.0. A non-finite
    sum, three terms that may overflow and four or more terms go through
    math.fsum per point.
    """
    if not _is_array(*xs):
        return math.fsum(xs)
    if len(xs) == 2:
        # Quiet: a non-finite sum goes to math.fsum, which returns or raises as on floats.
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.add(*xs) + 0.0
        if np.isfinite(total).all():
            return total
    if len(xs) == 3:
        total = _fsum3(*xs)
        if total is not None:
            return total
    return _pointwise(lambda *p: math.fsum(p), xs)


# The columns whose powers are cheap while a mesh bracket runs, by id:
# id -> (column, {exponent: power}, steps). A column a bracket holds fixed has
# steps None and is powered once per exponent for the whole bracket. The
# midpoint column lo + width of a _bracket step has steps (lo, width): its
# values are the odd multiples (2j + 1) * width, j = lo * (0.5 / width), so
# _pow powers that table and gathers. _bracket sets it and restores the
# outer one after, and _pow fills and reads it.
_fixed: dict = {}

# Shortest array of midpoints whose powers _pow takes from a table. The table
# costs a few numpy calls more than powering the column: on a shared 2-core
# x86-64 host an inversion bracket took 418 us with tables against 394 us
# without at 256 points, about the same at 512, and 794 against 826 us at
# 1024; over a residual benchmark pass a floor of 512 beat 768, 1024 and none.
MIDPOINT_TABLE_FLOOR = 512


def _pow(base, exponent: float):
    """base ** exponent; on an array one np.float_power call, which runs the C library's pow per element.

    Python's float pow ends in that same pow, so the bits agree. Not numpy's
    power: its bits depend on the CPU's vector kernels. A non-finite element
    (0.0 to a negative power, a negative base to a fractional one, a NaN)
    sends the whole column through Python's pow, which returns or raises as
    on floats.

    A column registered in _fixed is powered more cheaply, with the same
    bits: one that a mesh bisection holds fixed once per exponent, at the
    first step, and a bracket step's midpoints by powering the table of
    their distinct values and gathering (_bracket). Later calls with the
    same exponent get that read-only power back, and nothing is kept past
    the bracket.
    """
    if not _is_array(base):
        return base**exponent
    held = _fixed.get(id(base))
    if held is None:
        return _pow_column(base, exponent)
    _, powers, steps = held
    result = powers.get(exponent)
    if result is None:
        result = _pow_column(base, exponent) if steps is None else _pow_midpoints(base, exponent, *steps)
        result.flags.writeable = False
        powers[exponent] = result
    return result


def _pow_column(base: np.ndarray, exponent: float) -> np.ndarray:
    with np.errstate(all="ignore"):
        result = np.float_power(base, exponent)
    if not np.isfinite(result).all():
        result = _pointwise(lambda b: b**exponent, (base,))
    return result


def _pow_midpoints(mid: np.ndarray, exponent: float, lo: np.ndarray, width: float) -> np.ndarray:
    """_pow_column(mid, exponent) for mid = lo + width on a dyadic bracket, from the table of its values."""
    scale = 0.5 / width
    # Exact: j * 2 * width + width is (2j + 1) * width, an exact float64 for the 53 steps _bracket takes.
    table = np.arange(int(scale)) * (2.0 * width) + width
    with np.errstate(all="ignore"):
        powers = np.float_power(table, exponent)
    if not np.isfinite(powers).all():
        return _pow_column(mid, exponent)
    return powers.take((lo * scale).astype(np.intp))


# Shortest column _distinct deduplicates, for _invert's bisections. np.unique's
# fixed cost (15-45 us a call) outweighs what it saves on short columns, most
# of all on columns with no repeats: with a floor of 256, classify of an
# inverse power negation (columns of 301 distinct samples) took 5.9 ms against
# 4.8 ms when _pow deduplicated too.
DISTINCT_FLOOR = 1024


def _distinct(col):
    """(values, inverse) with values[inverse] equal to the float64 column col bit for bit, or None.

    Keyed on the bit pattern, so -0.0 and 0.0 stay apart. None for a float
    and for a column shorter than DISTINCT_FLOOR.
    """
    if not _is_array(col) or len(col) < DISTINCT_FLOOR:
        return None
    bits, inverse = np.unique(col.view(np.uint64), return_inverse=True)
    return bits.view(np.float64), inverse


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
    elements of the arrays xs where it holds, as 1-d columns, as the scalar
    form would. other is a float, or on arrays also an array. Arrays of
    different shapes (broadcast axes) are broadcast to one shape first.
    """
    if not _is_array(cond):
        return branch(*xs) if cond else other
    shape = cond.shape
    if any(type(x) is not np.ndarray or x.shape != shape for x in xs):
        shape = np.broadcast_shapes(shape, *(np.shape(x) for x in xs))
        cond = np.broadcast_to(cond, shape)
        xs = tuple(np.broadcast_to(x, shape) for x in xs)
    out = np.full(shape, other, dtype=float)
    if cond.any():
        out[cond] = branch(*(x[cond] for x in xs))
    return out


def _joined(g: Callable, calls: list) -> list:
    """[g(*args) for args in calls], each args being 1-d arrays of one length, from few calls of g.

    g runs once on consecutive calls' arrays joined, each argument
    position into one column, up to two scan blocks (2 * SCAN_BLOCK
    points; longer joined columns ran slower than the calls they save),
    and its result is cut back into one array per call: a composite g
    calls each connective it nests once for all of them. Calls may differ
    in length, as the blocks of several meshes do.
    """
    out, k = [], 0
    while k < len(calls):
        stop, n = k + 1, len(calls[k][0])
        while stop < len(calls) and n + len(calls[stop][0]) <= 2 * SCAN_BLOCK:
            n += len(calls[stop][0])
            stop += 1
        if stop == k + 1:
            out.append(g(*calls[k]))
        else:
            values, cut = g(*(np.concatenate(col) for col in zip(*calls[k:stop]))), 0
            for args in calls[k:stop]:
                out.append(values[cut : cut + len(args[0])])
                cut += len(args[0])
        k = stop
    return out


def _blocks(n: int):
    """(start, stop) over range(n) in blocks doubling from FIRST_BLOCK up to SCAN_BLOCK."""
    start, size = 0, FIRST_BLOCK
    while start < n:
        stop = min(n, start + size)
        yield start, stop
        start, size = stop, min(2 * size, SCAN_BLOCK)


def _scalar_points(cols: tuple):
    return zip(*(c.tolist() for c in cols))


def _clean_prefix(fn: Callable[..., tuple], block: tuple, error: Exception) -> tuple:
    """(clean, fn of the first clean points, error) for a block on which fn raised error.

    Points evaluate independently, so a prefix of a block raises exactly
    when one of its points does. The block is bisected on its prefix
    length for its first raising point clean, in at most 14 more prefix
    evaluations for MAX_BLOCK points; error is then that of the shortest
    prefix seen to raise, and the arrays those of the prefix before clean
    (None when clean is 0).
    """
    clean, raising, arrays = 0, len(block[0]), None
    m = raising // 2
    while raising - clean > 1:
        try:
            arrays, clean = fn(*(c[:m] for c in block)), m
        except _POINT_ERRORS as exc:
            error, raising = exc, m
        m = (clean + raising) // 2
    return clean, arrays, error


# A term is a coordinate "x", "y" or "z", a float, or (head, *terms): the
# connective env[head] at the terms, as a check is written on paper. A row is
# (sides, relation): sides its (lhs, rhs) terms, relation(lhs, rhs) the
# (failed, deviation) of each point.


def _heads(*terms) -> set:
    """The heads of the terms and of every term inside them."""
    return set().union(*({t[0]} | _heads(*t[1:]) for t in terms if type(t) is tuple))


@lru_cache(maxsize=256)
def _plan(meshes: tuple) -> tuple:
    """How _sides evaluates the rows of several meshes: (meshes, size, floats, calls, outs).

    meshes holds, for each mesh, the (lhs, rhs) pairs of its rows. A term
    is named per mesh, (m, term), so that each of size slots of a list
    holds a coordinate, float or term of one mesh m: the coordinates x, y
    and z of mesh m the slots 3m to 3m + 2, then the floats and terms as
    first written. floats holds (slot, m, float) for each float, outs the
    slots of the sides in order, mesh by mesh. A term's height is 0 for a
    side, else one more than the greatest height of a term of its mesh that
    takes it. calls hold (head, slots, argument slots) for each head at
    each height, from the greatest height down, the terms of every mesh
    together, so a term is evaluated just before the level that first needs
    it and each head is called once per level for all meshes: CP's I(x, y)
    shares the call of I(N(y), N(x)), one level above N(x) and N(y), and NP
    and IP, whose sides are at height 0, share it too. A walk takes its plan
    when it starts and when a row or a mesh leaves; the cache spares a
    search, which scans one row set again and again, the 5-10 us of
    building it.
    """
    slots: dict = {(m, c): 3 * m + j for m in range(len(meshes)) for j, c in enumerate("xyz")}
    height: dict = {}

    def gather(m: int, t, h: int) -> None:
        slots.setdefault((m, t), len(slots))
        if type(t) is tuple and height.get((m, t), -1) < h:
            height[m, t] = h
            for a in t[1:]:
                gather(m, a, h + 1)

    for m, sides in enumerate(meshes):
        for t in (t for pair in sides for t in pair):
            gather(m, t, 0)
    levels: dict = {}
    for (m, t), h in height.items():
        levels.setdefault((-h, t[0]), []).append((m, t))
    calls = tuple(
        (head, tuple(slots[k] for k in keys), tuple(tuple(slots[m, a] for a in t[1:]) for m, t in keys))
        for (_, head), keys in sorted(levels.items())
    )
    floats = tuple((slot, m, t) for (m, t), slot in slots.items() if type(t) is float)
    outs = tuple(slots[m, t] for m, sides in enumerate(meshes) for pair in sides for t in pair)
    return meshes, len(slots), floats, calls, outs


def _sides(plan: tuple, env: dict, blocks: list) -> list:
    """lhs and rhs of each row of the plan (_plan), in one list, at a point or on a block of each mesh.

    blocks holds one tuple of coordinates per mesh of the plan. At a point,
    of a plan of one mesh, each term is evaluated once, as floats, where it
    is first needed in the order the sides are written. On blocks each float
    is a column of its mesh's length, and each head is called once per level
    of the plan, on the arguments of every term of that level joined
    (_joined).
    """
    meshes, size, floats, calls, outs = plan
    if not _is_array(*blocks[0]):
        (sides,), (point,) = meshes, blocks
        value = dict(zip("xyz", point))

        def walk(t):
            if type(t) is float:
                return t
            if t not in value:
                value[t] = _value(env[t[0]], *(walk(a) for a in t[1:]))
            return value[t]

        return [walk(t) for pair in sides for t in pair]
    vals: list = [None] * size
    for m, block in enumerate(blocks):
        vals[3 * m : 3 * m + len(block)] = block
    for slot, m, v in floats:
        vals[slot] = np.full(len(blocks[m][0]), v)
    get = vals.__getitem__
    for head, slots, arguments in calls:
        values = env[head].values
        if len(slots) == 1:
            vals[slots[0]] = values(*map(get, arguments[0]))
        else:
            for slot, v in zip(slots, _joined(values, [[*map(get, args)] for args in arguments])):
                vals[slot] = v
    return [*map(get, outs)]


def _scan_rows(meshes: list, env: dict) -> list[tuple[Optional[tuple], int, float]]:
    """First-witness scans of rows over several meshes, in one walk of rounds.

    meshes are (cols, rows) pairs: cols a mesh's points as columns, rows
    its (sides, relation) pairs, whose terms name connectives in env. Each
    mesh is walked in blocks doubling from FIRST_BLOCK up to SCAN_BLOCK, so
    a scan failing at point k of its mesh evaluates at most about 2k points
    plus one block. A round takes the next block of every mesh still
    walking and evaluates the sides of every row still walking on them
    (_sides, on the plan of all their terms, made when the walk starts and
    again when a row or a mesh leaves), and relation(lhs, rhs) gives each
    row's (failed, deviation) on its own mesh's block. A row leaves at its
    first failing point, a mesh when no row of it is left or its points
    run out, and the walk ends when no mesh is left. Returns one (witness,
    count, worst) per row, in the order of meshes and their rows, with
    Python floats: witness is (point, lhs, rhs, deviation) of the failing
    point or None, count the points visited (the failing one included),
    worst the largest deviation seen.

    When the block of a round that walks one mesh raises UnitRangeError or
    PreconditionError, the rows are walked on the block's clean prefix
    (_clean_prefix); the rows with a witness there keep it and, if any row
    is left, the first raising point's error is raised as the float
    evaluation of their sides raises it, as a point-by-point scan would.
    A round of several meshes that raises raises its error as it is.
    """
    rows = [row for _, mesh_rows in meshes for row in mesh_rows]
    found, counts, worst = [None] * len(rows), [0] * len(rows), [0.0] * len(rows)
    # Each mesh walking: its columns, its blocks to come and its rows still walking.
    walking, first = [], 0
    for cols, mesh_rows in meshes:
        if len(cols[0]) and mesh_rows:
            pending = _blocks(len(cols[0]))
            walking.append((cols, pending, list(range(first, first + len(mesh_rows)))))
        first += len(mesh_rows)
    plan = None
    while walking:
        if plan is None:
            plan = _plan(tuple(tuple(rows[r][0] for r in active) for _, _, active in walking))
        spans = [next(pending) for _, pending, _ in walking]
        blocks = [tuple(c[start:stop] for c in cols) for (cols, _, _), (start, stop) in zip(walking, spans)]
        error = None
        try:
            sides = iter(_sides(plan, env, blocks))
        except _POINT_ERRORS as exc:
            if len(walking) > 1:
                raise
            clean, arrays, error = _clean_prefix(lambda *block: _sides(plan, env, [block]), blocks[0], exc)
            sides = iter(arrays or ())
        left = False
        for (cols, _, active), (start, stop) in zip(walking, spans):
            for r, lhs, rhs in zip(tuple(active), sides, sides):
                failed, deviation = rows[r][1](lhs, rhs)
                hit = _first(failed)
                end = len(lhs) if hit is None else hit[0] + 1
                counts[r] += end
                worst[r] = max(worst[r], float(deviation[:end].max()))
                if hit is not None:
                    (k,) = hit
                    point = tuple(float(c[start + k]) for c in cols)
                    found[r] = (point, float(lhs[k]), float(rhs[k]), float(deviation[k]))
                    active.remove(r)
                    left = True
            left = left or stop == len(cols[0])
        if error is not None:
            ((cols, _, active),), ((start, _),) = walking, spans
            if active:
                point = tuple(float(c[start + clean]) for c in cols)
                _sides(_plan((tuple(rows[r][0] for r in active),)), env, [point])
                raise error
            break
        # The round's values go with it: every mesh walking had a row walking, so all of these are bound.
        del sides, lhs, rhs, failed, deviation
        if left:
            plan = None
            walking = [mesh for mesh, (_, stop) in zip(walking, spans) if mesh[2] and stop < len(mesh[0][0])]
    return list(zip(found, counts, worst))


def _mesh_values(cols: tuple[np.ndarray, ...], fn: Callable[..., tuple]) -> tuple[np.ndarray, ...]:
    """Every point's fn(*coords), a tuple of values, as one array per entry.

    Evaluates blocks of MAX_BLOCK points as arrays. When a block raises,
    its first raising point (_clean_prefix) is evaluated as floats, and the
    error raised is that point's, as a point-by-point evaluation would
    raise it, or, should the floats pass, the block's.
    """
    parts = []
    for start in range(0, len(cols[0]), MAX_BLOCK):
        block = tuple(c[start : start + MAX_BLOCK] for c in cols)
        try:
            parts.append(fn(*block))
        except _POINT_ERRORS as exc:
            clean, _, error = _clean_prefix(fn, block, exc)
            fn(*(float(c[clean]) for c in block))
            raise error
    return tuple(np.concatenate(col) for col in zip(*parts))


# ---------------------------------------------------------------------------
# Grid layer: which points a check visits
# ---------------------------------------------------------------------------

def _axis(config: CheckConfig, arity: int) -> np.ndarray:
    """The grid along each coordinate: the configured one up to arity 2, 21 points for 3, 11 beyond."""
    if arity <= 2:
        return uniform_grid(config)
    return np.linspace(0.0, 1.0, 21 if arity == 3 else 11)


def _product_axes(axis: np.ndarray, arity: int) -> tuple[np.ndarray, ...]:
    """axis once per argument, shaped to broadcast to the product grid, refused above MAX_GRID_POINTS.

    Argument k's axis runs along dimension k: (m, 1) and (1, m) for two
    arguments, (m, 1, 1), (1, m, 1) and (1, 1, m) for three.
    """
    # Compared as logarithms, so a huge arity never builds len(axis)**arity.
    if arity * math.log(len(axis)) > math.log(MAX_GRID_POINTS):
        raise PreconditionError(f"arity {arity} needs {len(axis)}^{arity} points, more than {MAX_GRID_POINTS}")
    axis = np.asarray(axis, dtype=float)
    return tuple(axis.reshape([-1 if j == k else 1 for j in range(arity)]) for k in range(arity))


def _product_mesh(axis: np.ndarray, arity: int) -> tuple[np.ndarray, ...]:
    """Columns of itertools.product(axis, repeat=arity), in its order, refused above MAX_GRID_POINTS."""
    return tuple(np.broadcast_to(a, (len(axis),) * arity).flatten() for a in _product_axes(axis, arity))


def _grid_mesh(config: CheckConfig, arity: int) -> tuple[np.ndarray, ...]:
    """Columns of the product grid of _axis(config, arity), in C order."""
    return _product_mesh(_axis(config, arity), arity)


@lru_cache(maxsize=4)
def _sample_mesh(config: CheckConfig, arity: int) -> tuple[np.ndarray, ...]:
    """Columns of _grid_mesh(config, arity), then of the random points taken arity at a time, read-only.

    Cached like uniform_grid, as every property scan walks it, but for few
    meshes: one at 3162 points per axis holds 160 MB. A mesh over
    MAX_GRID_POINTS raises on every call, since lru_cache keeps no errors.
    """
    r = random_points(config)
    m = len(r) // arity
    cols = tuple(np.concatenate((g, r[k : arity * m : arity])) for k, g in enumerate(_grid_mesh(config, arity)))
    for col in cols:
        col.setflags(write=False)
    return cols


def _tensor(f, axis: np.ndarray) -> np.ndarray:
    """f (a Negation, FusionFunction or Implication) on the product grid of axis, one tensor axis per argument.

    A vectorized f is evaluated on the broadcast axes of _product_axes, in
    slabs along the first of at most MAX_BLOCK points (one slab up to grid
    128 for two arguments), so a term of one coordinate is computed once
    per axis value. An unmarked f, or one whose broadcast evaluation
    raises, is evaluated on the flattened grid by _mesh_values, which
    raises the error of the first raising point in C order.
    """
    axes = _product_axes(axis, f.arity)
    shape = (len(axis),) * f.arity
    if getattr(f.fn, "vectorized", False):
        out = np.empty(shape)
        rows = max(1, MAX_BLOCK // math.prod(shape[1:]))
        try:
            for start in range(0, len(axis), rows):
                out[start : start + rows] = f.values(axes[0][start : start + rows], *axes[1:])
            return out
        except Exception:
            # Whatever raised, the flat path below raises the first raising point's error, or evaluates.
            pass
    (vals,) = _mesh_values(_product_mesh(axis, f.arity), lambda *p: (_value(f, *p),))
    return vals.reshape(shape)


def _first(mask: np.ndarray) -> Optional[tuple[int, ...]]:
    """Index of the first True of mask in C order, or None when there is none."""
    if not mask.any():
        return None
    return tuple(int(k) for k in np.unravel_index(int(np.argmax(mask)), mask.shape))
