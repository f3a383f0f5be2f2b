"""Overlap, grouping, and general overlap functions with a grid axiom engine.

The conjunctive connectives handled here are commutative, increasing maps on
[0,1]^n distinguished by their boundary behavior:

* overlap (O1-O5, binary): continuous; zero iff a factor is zero; one iff
  both arguments are one.
* grouping (G1-G5, binary): the disjunctive mirror; zero iff both arguments
  are zero; one iff some argument is one.
* general overlap (GO1-GO5, n-ary): the relaxation where the boundary
  conditions are one-directional (a zero factor forces 0, all-ones forces 1)
  and the converses GO2a/GO3a become optional extras.
* t-norm (T1-T3): commutative, associative, with neutral element 1.

check_axioms verifies a claimed axiom set numerically on a grid: symmetry,
exact boundary hits for the "if" directions, witness searches for the
falsifiable "only if" directions, all-pairs monotonicity (via running
maxima), and a continuity heuristic bounding jumps between adjacent grid
cells by 10/resolution. "Only if" directions that survive the search are
reported as "no counterexample found on grid", never as proved.

check_axioms evaluates the function once on the grid, as one array
evaluation of the grid points, and every check reads that tensor. The
converse checks -- the O2/O3/G2/G3 "only if" directions and GO2a/GO3a --
are one mask scan parameterized by side (overlap or grouping);
grouping_from and overlap_from run the same scan on the tensor of their
source before building its N-dual with negations.dual. Associativity (T2)
is a first-witness mesh scan of the 21^3 triple grid, and T3 and
check_idempotent take the first largest deviation over the samples.

The named catalog is one table, _CATALOG: the role, parameter, note and
formula pair of each name. catalog() and CATALOG_NAMES read it, and so do
the CLI's parsers and its catalog listing.

Every catalog entry and construction carries an array form of its formula
(numerics._vectorized), which FusionFunction.values evaluates; the piecewise
ones use np.where with guarded denominators and every ** goes through
numerics._pow, so array and scalar values agree bit for bit.

Binary functions are checked at the configured grid resolution; ternary and
wider ones on a reduced grid (21 points for arity 3, 11 beyond) to keep the
suite at desk scale. A grid of more than MAX_GRID_POINTS points (arity 7
and up, or a binary grid of over 3162 per axis) is refused with a
PreconditionError.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import partial, reduce
from typing import Callable, NamedTuple, Optional

import numpy as np

from .negations import dual
from .numerics import (
    DEFAULT_CONFIG,
    CheckConfig,
    PreconditionError,
    UnitValue,
    _apart,
    _array_form,
    _fsum,
    _mesh_values,
    _pointwise,
    _pow,
    _product_mesh,
    _scan_mesh,
    _value,
    _values,
    _vectorized,
    iteration_count,
    sorted_samples,
    uniform_grid,
)

ROLES = ("overlap", "grouping", "general_overlap", "t_norm", "aggregation")


@dataclass(frozen=True, eq=False)
class FusionFunction:
    """An n-ary connective on [0,1]^n with a role claim and a label.

    The role is a claim set by constructors; check_axioms verifies it. Output
    is validated into [0,1] on every call. values() evaluates whole arrays
    with the array form constructors attach to fn, and point by point
    through __call__ when fn has none.
    """

    fn: Callable[..., float]
    arity: int
    role: str
    label: str
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise PreconditionError(f"unknown role {self.role!r}")
        if self.arity < 1:
            raise PreconditionError("arity must be positive")

    def __call__(self, *xs: float) -> UnitValue:
        if len(xs) != self.arity:
            raise PreconditionError(
                f"{self.label} takes {self.arity} arguments, got {len(xs)}"
            )
        return UnitValue(self.fn(*xs))

    def values(self, *xs) -> np.ndarray:
        """f at every point of the arrays xs, bit-identical to __call__ pointwise."""
        if len(xs) != self.arity:
            raise PreconditionError(
                f"{self.label} takes {self.arity} arguments, got {len(xs)}"
            )
        return _values(self, xs)

    def _raw_values(self, xs: tuple) -> np.ndarray:
        # fn's values without the range check, as truncate_overlap uses them.
        form = _array_form(self.fn)
        return _pointwise(self.fn, xs) if form is None else form(*xs)

    def param(self, name: str) -> float:
        return dict(self.params)[name]

    def with_role(self, role: str) -> "FusionFunction":
        return replace(self, role=role)


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome of one axiom: pass/fail, witness point, worst deviation."""

    axiom: str
    passed: bool
    witness: Optional[tuple] = None
    deviation: float = 0.0
    note: str = ""
    informational: bool = False

    def as_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "passed": self.passed,
            "witness": None if self.witness is None else list(self.witness),
            "deviation": self.deviation,
            "note": self.note,
            "informational": self.informational,
        }


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom results for one function against one axiom set.

    Informational entries (the GO2a/GO3a converses) do not count toward the
    aggregate verdict: a general overlap may legitimately fail them.
    """

    label: str
    axiom_set: str
    checks: tuple[AxiomCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if not c.informational)

    def check(self, axiom: str) -> AxiomCheck:
        for c in self.checks:
            if c.axiom == axiom:
                return c
        raise KeyError(axiom)

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "axiom_set": self.axiom_set,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
        }

    def summary(self) -> str:
        lines = [f"{self.label} [{self.axiom_set}] -> {'PASS' if self.passed else 'FAIL'}"]
        for c in self.checks:
            tag = "pass" if c.passed else "FAIL"
            extra = " info" if c.informational else ""
            where = "" if c.witness is None else f" at {tuple(round(w, 9) for w in c.witness)}"
            note = f" ({c.note})" if c.note else ""
            lines.append(f"  {c.axiom:<6} {tag}{extra}{where}{note}")
        return "\n".join(lines)


@dataclass(frozen=True)
class IdempotencyResult:
    """Diagonal check f(x,...,x) = x with the worst offending point."""

    ok: bool
    witness: Optional[float] = None
    deviation: float = 0.0

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


def _require_positive(params: dict, key: str) -> float:
    if key not in params:
        raise PreconditionError(f"missing required parameter {key!r}")
    value = float(params[key])
    if not (math.isfinite(value) and value > 0.0):
        raise PreconditionError(f"parameter {key!r} must be > 0")
    return value


def _require_arity(params: dict) -> int:
    if "n" not in params:
        raise PreconditionError("missing required parameter 'n' (arity)")
    n = params["n"]
    if isinstance(n, float) and not n.is_integer():
        raise PreconditionError("arity 'n' must be an integer >= 2")
    n = int(n)
    if n < 2:
        raise PreconditionError("arity 'n' must be an integer >= 2")
    return n


def _pn_factor(xs: tuple[float, ...]) -> float:
    # fsum keeps the sum-gate decision independent of argument order,
    # which naive left-to-right addition is not near the threshold.
    return 0.0 if math.fsum(xs) <= 1.0 else min(xs)


def _pn_factor_array(xs: tuple[np.ndarray, ...]) -> np.ndarray:
    return np.where(_fsum(xs) <= 1.0, 0.0, reduce(np.minimum, xs))


def _o_v(x: float, y: float) -> float:
    if x >= 0.5 and y >= 0.5:
        s = (2.0 * x - 1.0) ** 2 * (2.0 * y - 1.0) ** 2
        return 0.5 * (1.0 + s)
    return min(x, y)


def _o_v_array(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.minimum(x, y)
    bump = (x >= 0.5) & (y >= 0.5)
    s = _pow(2.0 * x[bump] - 1.0, 2) * _pow(2.0 * y[bump] - 1.0, 2)
    out[bump] = 0.5 * (1.0 + s)
    return out


def _o_db_array(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    total = x + y
    zero = total == 0.0
    return np.where(zero, 0.0, 2.0 * x * y / np.where(zero, 1.0, total))


class _Entry(NamedTuple):
    role: str
    param: Optional[str]
    note: str
    fn: Callable[..., float]
    array_fn: Callable[..., np.ndarray]


# The named catalog entries. param is None, "p" (an exponent p > 0) or "n"
# (the arity, n >= 2); an entry with a parameter takes its value as the
# first argument of both its scalar formula and its array form.
_CATALOG = {
    "O_mM": _Entry(
        "overlap", None, "minimum times squared maximum",
        lambda x, y: min(x, y) * max(x * x, y * y),
        lambda x, y: np.minimum(x, y) * np.maximum(x * x, y * y),
    ),
    "O_DB": _Entry(
        "overlap", None, "doubled product over the sum",
        lambda x, y: 0.0 if x + y == 0.0 else 2.0 * x * y / (x + y),
        _o_db_array,
    ),
    "O_P": _Entry(
        "overlap", "p", "powered product",
        lambda p, x, y: x**p * y**p,
        lambda p, x, y: _pow(x, p) * _pow(y, p),
    ),
    "O_V": _Entry("overlap", None, "bump above (0.5, 0.5), minimum elsewhere", _o_v, _o_v_array),
    "O_min": _Entry("overlap", None, "minimum", lambda x, y: min(x, y), np.minimum),
    "GO_max": _Entry(
        "general_overlap", None, "thresholded sum of squares",
        lambda x, y: max(0.0, x * x + y * y - 1.0),
        lambda x, y: np.maximum(0.0, x * x + y * y - 1.0),
    ),
    "GO_TL": _Entry(
        "general_overlap", "p", "powered minimum times truncated sum",
        lambda p, x, y: min(x, y) ** p * max(0.0, x + y - 1.0),
        lambda p, x, y: _pow(np.minimum(x, y), p) * np.maximum(0.0, x + y - 1.0),
    ),
    "GO_PN": _Entry(
        "general_overlap", "n", "product gated by coordinate sum",
        lambda n, *xs: math.prod(xs) * _pn_factor(xs),
        lambda n, *xs: reduce(np.multiply, xs) * _pn_factor_array(xs),
    ),
    "GO_GN": _Entry(
        "general_overlap", "n", "geometric mean gated by coordinate sum",
        lambda n, *xs: math.prod(xs) ** (1.0 / n) * _pn_factor(xs),
        lambda n, *xs: _pow(reduce(np.multiply, xs), 1.0 / n) * _pn_factor_array(xs),
    ),
}

CATALOG_NAMES = tuple(_CATALOG)


def catalog(name: str, **params: float) -> FusionFunction:
    """The named catalog entry, addressable as e.g. O_P:p=2 or GO_PN:n=3.

    CATALOG_NAMES lists the names, and `overlapkit catalog` each with its
    description. Entries with a parameter need it: p > 0 for the powered
    ones, the arity n >= 2 for the n-ary ones. Any other parameter is an
    error.
    """
    entry = _CATALOG.get(name)
    if entry is None:
        raise PreconditionError(f"unknown catalog name {name!r}")
    args, arity, label = (), 2, name
    if entry.param == "p":
        p = _require_positive(params, "p")
        args, label = (p,), f"{name}:p={p:g}"
    elif entry.param == "n":
        arity = _require_arity(params)
        args, label = (arity,), f"{name}:n={arity}"
    extra = set(params) - {entry.param}
    if extra:
        raise PreconditionError(f"unexpected parameters {sorted(extra)}")
    # partial gives every object its own fn, which _vectorized marks.
    return FusionFunction(
        fn=_vectorized(partial(entry.fn, *args), partial(entry.array_fn, *args)),
        arity=arity,
        role=entry.role,
        label=label,
        params=tuple((entry.param, float(v)) for v in args),
    )


def grouping_max() -> FusionFunction:
    """The maximum, the basic grouping function."""
    return FusionFunction(
        fn=_vectorized(lambda x, y: max(x, y), np.maximum), arity=2, role="grouping", label="max_grouping"
    )


def grouping_probsum() -> FusionFunction:
    """Probabilistic sum 1 - (1-x)(1-y), a strict grouping function."""
    return FusionFunction(
        fn=_vectorized(lambda x, y: 1.0 - (1.0 - x) * (1.0 - y), lambda x, y: 1.0 - (1.0 - x) * (1.0 - y)),
        arity=2,
        role="grouping",
        label="prob_sum",
    )


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def truncate_overlap(overlap: FusionFunction, a: float) -> FusionFunction:
    """Truncate an overlap below its level at a, renormalized.

    The result max(0, O(x,y) - O(max(x,y), a)) / (1 - O(max(x,y), a)) is a
    general overlap function that vanishes on a strip of nonzero arguments,
    so it is deliberately not an overlap function.
    """
    if overlap.role != "overlap" or overlap.arity != 2:
        raise PreconditionError("truncate_overlap needs a binary overlap function")
    av = float(a)
    if not 0.0 < av < 1.0:
        raise PreconditionError("truncation level a must lie in (0,1)")

    def fn(x: float, y: float, _o=overlap.fn, _a=av) -> float:
        cut = _o(max(x, y), _a)
        return max(0.0, _o(x, y) - cut) / (1.0 - cut)

    def array_fn(x: np.ndarray, y: np.ndarray, _o=overlap, _a=av) -> np.ndarray:
        cut = _o._raw_values((np.maximum(x, y), np.full(x.shape, _a)))
        # A cut of 1 divides by zero in the scalar form; here it leaves
        # [0, 1] (inf or nan), so the caller re-runs the points as scalars.
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.maximum(0.0, _o._raw_values((x, y)) - cut) / (1.0 - cut)

    return FusionFunction(
        fn=_vectorized(fn, array_fn),
        arity=2,
        role="general_overlap",
        label=f"trunc:{overlap.label},a={av:g}",
        params=overlap.params + (("a", av),),
    )


def grouping_from(go: FusionFunction, negation, config: CheckConfig = DEFAULT_CONFIG) -> FusionFunction:
    """Dual a binary general overlap into a grouping: N(GO(N(x), N(y))).

    Requires a strict negation. The construction only yields a genuine
    grouping when GO also satisfies the converse boundary conditions GO2a
    and GO3a; those are scanned on the grid, and on failure the result is
    still returned but downgraded to the neutral aggregation role with a
    warning.
    """
    return _dual_from(go, negation, config, "overlap")


def overlap_from(grouping: FusionFunction, negation, config: CheckConfig = DEFAULT_CONFIG) -> FusionFunction:
    """Mirror of grouping_from: N(G(N(x), N(y))) as a general overlap.

    The grouping must honestly vanish only at (0,0) and reach 1 only with a
    1 argument (the converse scans); otherwise the dual is downgraded with a
    warning, as in grouping_from.
    """
    return _dual_from(grouping, negation, config, "grouping")


# Side whose converses the source must pass -> (public name, role and label
# head of the dual when they hold, warning tail when they fail).
_DUAL_FROM = {
    "overlap": (
        "grouping_from",
        "grouping",
        "dualG",
        "fails the GO2a/GO3a grid check at {}; dual is returned with role 'aggregation', not 'grouping'",
    ),
    "grouping": (
        "overlap_from",
        "general_overlap",
        "dualO",
        "fails the grouping converse grid check at {}; dual is returned with role 'aggregation'",
    ),
}


def _dual_from(f: FusionFunction, negation, config: CheckConfig, side: str) -> FusionFunction:
    who, role, head, failure = _DUAL_FROM[side]
    if f.arity != 2:
        raise PreconditionError(f"{who} needs a binary function")
    if not getattr(negation, "is_strict", False):
        raise PreconditionError(f"{who} requires a strict negation")
    xs = _axis_grid(config, 2)
    tensor = _tensor(f, xs)
    for level in (0.0, 1.0):
        check = _converse_check("converse", side, level, tensor, xs, config.eq_tol)
        if not check.passed:
            warnings.warn(f"{f.label} {failure.format(check.witness)}", stacklevel=3)
            role = "aggregation"
            break
    return replace(dual(f, negation), role=role, label=f"{head}({f.label}, {negation.label})")


def piecewise_neutral_go(e: float) -> FusionFunction:
    """General overlap with prescribed neutral element e.

    min below e, max above e, and the rescaled product x*y/e on the mixed
    region; the three branches agree on the seams, so the result is
    continuous with f(x, e) = x.
    """
    ev = float(e)
    if not 0.0 < ev <= 1.0:
        raise PreconditionError("neutral element e must lie in (0,1]")

    def fn(x: float, y: float, _e=ev) -> float:
        if max(x, y) <= _e:
            return min(x, y)
        if min(x, y) >= _e:
            return max(x, y)
        return x * y / _e

    def array_fn(x: np.ndarray, y: np.ndarray, _e=ev) -> np.ndarray:
        lo, hi = np.minimum(x, y), np.maximum(x, y)
        return np.where(hi <= _e, lo, np.where(lo >= _e, hi, x * y / _e))

    return FusionFunction(
        fn=_vectorized(fn, array_fn),
        arity=2,
        role="general_overlap",
        label=f"neutral_go:e={ev:g}",
        params=(("e", ev),),
    )


def idempotent_go(p: float, q: float) -> FusionFunction:
    """Idempotent general overlap ((x^p y^q + x^q y^p)/2)^(1/(p+q))."""
    pv, qv = float(p), float(q)
    if not (math.isfinite(pv) and pv > 0.0 and math.isfinite(qv) and qv > 0.0):
        raise PreconditionError("idempotent_go needs p > 0 and q > 0")

    def fn(x: float, y: float, _p=pv, _q=qv) -> float:
        mean = 0.5 * (x**_p * y**_q + x**_q * y**_p)
        return mean ** (1.0 / (_p + _q))

    def array_fn(x: np.ndarray, y: np.ndarray, _p=pv, _q=qv) -> np.ndarray:
        mean = 0.5 * (_pow(x, _p) * _pow(y, _q) + _pow(x, _q) * _pow(y, _p))
        return _pow(mean, 1.0 / (_p + _q))

    return FusionFunction(
        fn=_vectorized(fn, array_fn),
        arity=2,
        role="general_overlap",
        label=f"idem_go:p={pv:g},q={qv:g}",
        params=(("p", pv), ("q", qv)),
    )


# ---------------------------------------------------------------------------
# Grid engine
# ---------------------------------------------------------------------------


def check_resolution(config: CheckConfig, arity: int) -> int:
    """Grid resolution used for a given arity (reduced beyond binary)."""
    if arity <= 2:
        return config.grid_resolution
    return 21 if arity == 3 else 11


def _axis_grid(config: CheckConfig, arity: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, check_resolution(config, arity))


# Largest grid _tensor evaluates. Beyond it the arity, not the resolution,
# drives the size (the columns of 11^7 points take over a gigabyte), so a
# wider connective is refused rather than evaluated.
MAX_GRID_POINTS = 10**7


def _tensor(f: FusionFunction, xs: np.ndarray) -> np.ndarray:
    # Compared as logarithms, so a huge arity never builds len(xs)**arity.
    if f.arity * math.log(len(xs)) > math.log(MAX_GRID_POINTS):
        raise PreconditionError(
            f"{f.label}: arity {f.arity} needs a grid of {len(xs)}^{f.arity} points,"
            f" more than {MAX_GRID_POINTS}"
        )
    (vals,) = _mesh_values(_product_mesh(xs, f.arity), lambda *p: (_value(f, *p),))
    return vals.reshape((len(xs),) * f.arity)


def _mask_check(
    axiom: str,
    mask: np.ndarray,
    xs: np.ndarray,
    deviation: float | np.ndarray = 0.0,
    note: str = "",
    informational: bool = False,
) -> Optional[AxiomCheck]:
    """The failing check at the first True of mask, or None when there is none.

    First means C order over the grid axes, the order a nested loop over xs
    meets the points in. deviation is a number, or an array shaped like mask
    that is read at the witness.
    """
    hits = np.argwhere(mask)
    if len(hits) == 0:
        return None
    at = tuple(int(k) for k in hits[0])
    if isinstance(deviation, np.ndarray):
        deviation = deviation[at]
    return AxiomCheck(
        axiom=axiom,
        passed=False,
        witness=tuple(float(xs[k]) for k in at),
        deviation=float(deviation),
        note=note,
        informational=informational,
    )


def _bound_check(axiom: str, excesses, xs: np.ndarray, bound: float, note: str = "") -> AxiomCheck:
    """Fail at the first excess array (one per axis) topping bound; else pass with the largest."""
    worst = 0.0
    for excess in excesses:
        top = float(excess.max())
        worst = max(worst, top)
        if top > bound:
            return _mask_check(axiom, excess > bound, xs, top, note)
    return AxiomCheck(axiom=axiom, passed=True, deviation=worst, note=note)


def _symmetry_check(axiom: str, tensor: np.ndarray, xs: np.ndarray, tol: float) -> AxiomCheck:
    swaps = (np.abs(tensor - np.swapaxes(tensor, axis, axis + 1)) for axis in range(tensor.ndim - 1))
    return _bound_check(axiom, swaps, xs, tol)


def _monotone_check(axiom: str, tensor: np.ndarray, xs: np.ndarray, tol: float) -> AxiomCheck:
    # Running maxima cover every pair along each axis, not just neighbors.
    drops = (np.maximum.accumulate(tensor, axis=axis) - tensor for axis in range(tensor.ndim))
    return _bound_check(axiom, drops, xs, tol)


def _continuity_check(axiom: str, tensor: np.ndarray, xs: np.ndarray) -> AxiomCheck:
    bound = 10.0 / len(xs)
    jumps = (np.abs(np.diff(tensor, axis=axis)) for axis in range(tensor.ndim))
    return _bound_check(axiom, jumps, xs, bound, note=f"adjacent-cell jump bound {bound:g}")


def _zero_slices_exact(axiom: str, tensor: np.ndarray, xs: np.ndarray) -> AxiomCheck:
    # "if" direction of GO2/O2: a zero coordinate must force value exactly 0.
    for axis in range(tensor.ndim):
        face = tuple(0 if k == axis else slice(None) for k in range(tensor.ndim))
        mask = np.zeros(tensor.shape, dtype=bool)
        mask[face] = tensor[face] != 0.0
        failed = _mask_check(axiom, mask, xs, float(np.abs(tensor[face]).max()))
        if failed is not None:
            return failed
    return AxiomCheck(axiom=axiom, passed=True)


_NO_CE = "no counterexample found on grid"


def _converse_check(
    axiom: str,
    side: str,
    level: float,
    tensor: np.ndarray,
    xs: np.ndarray,
    tol: float,
    note: str = "",
    informational: bool = False,
) -> AxiomCheck:
    """Converse boundary condition: level (0 or 1) is reached only where allowed.

    The overlap side allows 0 only with a zero argument (O2, GO2a) and 1
    only at the all-ones corner (O3, GO3a); the grouping side allows 0 only
    at the all-zero corner (G2) and 1 only with a one argument (G3). A
    failure's deviation is the value reached, except on the informational
    GO2a/GO3a entries, which report none.
    """
    if level == 0.0:
        hit, away = tensor <= tol, xs > 0.0
    else:
        hit, away = tensor >= 1.0 - tol, xs < 1.0
    # Overlap zeros and grouping ones need every coordinate away from level.
    join = np.logical_and if (side == "overlap") == (level == 0.0) else np.logical_or
    mask = hit & reduce(join, np.meshgrid(*[away] * tensor.ndim, indexing="ij", sparse=True))
    failed = _mask_check(axiom, mask, xs, 0.0 if informational else tensor, note, informational)
    return failed or AxiomCheck(axiom=axiom, passed=True, note=_NO_CE, informational=informational)


def check_axioms(f: FusionFunction, axiom_set: str, config: CheckConfig = DEFAULT_CONFIG) -> AxiomReport:
    """Verify one of the axiom sets O, G, GO, or T on the grid.

    O/G/T demand a binary function; GO accepts any arity. The report's
    aggregate verdict ignores the informational GO2a/GO3a entries. The
    function is evaluated once on the grid; every check reads that tensor.
    """
    if axiom_set in ("O", "G", "T") and f.arity != 2:
        raise PreconditionError(f"axiom set {axiom_set} applies to binary functions")
    checker = _AXIOM_SETS.get(axiom_set)
    if checker is None:
        raise PreconditionError(f"unknown axiom set {axiom_set!r} (want O|G|GO|T)")
    xs = _axis_grid(config, f.arity)
    checks = checker(f, _tensor(f, xs), xs, config)
    return AxiomReport(label=f.label, axiom_set=axiom_set, checks=tuple(checks))


# Side -> (axiom prefix, failure notes of the "only if" scans at levels 0 and 1).
_BINARY_SETS = {
    "overlap": ("O", "zero at nonzero arguments", "reaches 1 away from (1,1)"),
    "grouping": ("G", "zero away from (0,0)", "reaches 1 without a 1 argument"),
}


def _check_binary_axioms(side: str, f: FusionFunction, tensor, xs, config: CheckConfig) -> list[AxiomCheck]:
    """O1-O5 or G1-G5, mirror images of each other.

    The level the side takes on whole boundary lines (0 for overlaps, 1 for
    groupings) must hold exactly along them; the other level exactly at its
    corner. Where it does, the converse is scanned on the tensor.
    """
    prefix, *notes = _BINARY_SETS[side]
    tol = config.eq_tol
    checks = [_symmetry_check(prefix + "1", tensor, xs, tol)]
    for level, axiom, note in zip((0.0, 1.0), (prefix + "2", prefix + "3"), notes):
        if (level == 0.0) == (side == "overlap"):
            bad = _boundary_lines_exact(f, config, level)
        else:
            bad = _corner_exact(f, level)
        failed = None if bad is None else AxiomCheck(axiom, False, *bad)
        checks.append(failed or _converse_check(axiom, side, level, tensor, xs, tol, note))
    checks.append(_monotone_check(prefix + "4", tensor, xs, tol))
    checks.append(_continuity_check(prefix + "5", tensor, xs))
    return checks


def _check_general_overlap_axioms(f: FusionFunction, tensor, xs, config: CheckConfig) -> list[AxiomCheck]:
    tol = config.eq_tol
    checks = [_symmetry_check("GO1", tensor, xs, tol), _zero_slices_exact("GO2", tensor, xs)]

    bad = _corner_exact(f, 1.0)
    checks.append(AxiomCheck("GO3", True) if bad is None else AxiomCheck("GO3", False, *bad))
    checks.append(_monotone_check("GO4", tensor, xs, tol))
    checks.append(_continuity_check("GO5", tensor, xs))
    for level, axiom, note in (
        (0.0, "GO2a", "zero at all-nonzero arguments"),
        (1.0, "GO3a", "reaches 1 below the all-ones corner"),
    ):
        checks.append(_converse_check(axiom, "overlap", level, tensor, xs, tol, note, informational=True))
    return checks


def _check_tnorm_axioms(f: FusionFunction, tensor, xs, config: CheckConfig) -> list[AxiomCheck]:
    tol = config.eq_tol
    checks = [_symmetry_check("T1", tensor, xs, tol)]
    checks.append(replace(check_associativity(f, config), axiom="T2"))

    worst, at = _worst_sample(config, lambda x: _value(f, x, 1.0))
    checks.append(
        AxiomCheck(
            axiom="T3",
            passed=worst <= tol,
            witness=None if worst <= tol else (at, 1.0),
            deviation=worst,
            note="neutral element 1",
        )
    )
    return checks


def _worst_sample(config: CheckConfig, g: Callable) -> tuple[float, Optional[float]]:
    """Largest |g(x) - x| over the sorted samples and its first x (None when 0)."""
    samples = sorted_samples(config)
    (deviation,) = _mesh_values((samples,), lambda x: (abs(g(x) - x),))
    k = int(np.argmax(deviation))
    worst = float(deviation[k])
    return worst, (float(samples[k]) if worst > 0.0 else None)


_AXIOM_SETS = {
    "O": partial(_check_binary_axioms, "overlap"),
    "G": partial(_check_binary_axioms, "grouping"),
    "GO": _check_general_overlap_axioms,
    "T": _check_tnorm_axioms,
}


def _corner_exact(f: FusionFunction, value: float):
    """f(value, ..., value) == value exactly: None, else (witness, deviation)."""
    corner = tuple([value] * f.arity)
    got = float(f(*corner))
    return None if got == value else (corner, abs(got - value))


def _boundary_lines_exact(f: FusionFunction, config: CheckConfig, value: float):
    """Exact boundary sweep: f(value, s) and f(s, value) == value for all s.

    value is 0 for the overlap zero lines and 1 for the grouping one lines.
    Returns None on success, else (witness, deviation).
    """
    samples = sorted_samples(config)
    level = np.full(len(samples), value)
    # The points (value, s) and (s, value) for each sample s, in that order.
    xs = np.stack([level, samples], axis=1).ravel()
    ys = np.stack([samples, level], axis=1).ravel()
    witness, _, _ = _scan_mesh(
        (xs, ys),
        lambda x, y: (_value(f, x, y), value),
        lambda got, want: (got != want, abs(got - want)),
    )
    return None if witness is None else (witness[0], witness[3])


def check_associativity(f: FusionFunction, config: CheckConfig = DEFAULT_CONFIG) -> AxiomCheck:
    """Grid check of f(f(x,y),z) = f(x,f(y,z)) on a reduced triple grid."""
    if f.arity != 2:
        raise PreconditionError("associativity applies to binary functions")
    witness, _, worst = _scan_mesh(
        _product_mesh(np.linspace(0.0, 1.0, 21), 3),
        lambda x, y, z: (_value(f, _value(f, x, y), z), _value(f, x, _value(f, y, z))),
        _apart(config.eq_tol),
    )
    if witness is not None:
        return AxiomCheck(axiom="associativity", passed=False, witness=witness[0], deviation=witness[3])
    return AxiomCheck(axiom="associativity", passed=True, deviation=worst)


def continuity_heuristic(f: FusionFunction, config: CheckConfig = DEFAULT_CONFIG) -> AxiomCheck:
    """Standalone adjacent-jump continuity check (used for aggregations)."""
    xs = _axis_grid(config, f.arity)
    return _continuity_check("continuity", _tensor(f, xs), xs)


# ---------------------------------------------------------------------------
# Neutral element and idempotency
# ---------------------------------------------------------------------------


def find_neutral(f: FusionFunction, config: CheckConfig = DEFAULT_CONFIG) -> Optional[UnitValue]:
    """Search for a with f(x, a) = x for all sampled x.

    Grid candidates must match within eq_tol. If none does, the scan falls
    back on bisecting a sign change of a -> f(0.5, a) - 0.5; a candidate
    found that way carries bisection error, so it is verified at the looser
    10*bisect_tol before being accepted. Returns None when nothing survives.
    """
    if f.arity != 2:
        raise PreconditionError("find_neutral applies to binary functions")
    samples = sorted_samples(config)
    grid = uniform_grid(config)
    tol = config.eq_tol

    def deviates(a: float, budget: float) -> bool:
        return any(abs(float(f(x, a)) - float(x)) > budget for x in samples)

    for a in grid:
        if not deviates(float(a), tol):
            return UnitValue(float(a))

    gap = [float(f(0.5, float(a))) - 0.5 for a in grid]
    for i in range(len(grid) - 1):
        if gap[i] == 0.0 or gap[i] * gap[i + 1] >= 0.0:
            continue
        lo, hi = float(grid[i]), float(grid[i + 1])
        lo_val = gap[i]
        for _ in range(iteration_count(config.bisect_tol)):
            mid = 0.5 * (lo + hi)
            mid_val = float(f(0.5, mid)) - 0.5
            if mid_val == 0.0:
                lo = hi = mid
                break
            if (mid_val < 0.0) == (lo_val < 0.0):
                lo, lo_val = mid, mid_val
            else:
                hi = mid
        candidate = 0.5 * (lo + hi)
        if not deviates(candidate, 10.0 * config.bisect_tol):
            return UnitValue(candidate)
    return None


def check_idempotent(f: FusionFunction, config: CheckConfig = DEFAULT_CONFIG) -> IdempotencyResult:
    """Diagonal identity f(x,...,x) = x within eq_tol over all samples."""
    worst, at = _worst_sample(config, lambda x: _value(f, *([x] * f.arity)))
    ok = worst <= config.eq_tol
    return IdempotencyResult(ok=ok, witness=None if ok else at, deviation=worst)
