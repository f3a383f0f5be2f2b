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

The axioms are data: _AXIOMS holds the rows of each set, O, G, GO, T and
the implication set I (I1-I5), in report order. A row gives the axiom id,
its check -- symmetry, an exact boundary then its converse, monotonicity
along given axes in a given direction, continuity, a corner value within
a tolerance, associativity on the reduced triple grid, or the largest
deviation of f(x, 1) from x over the samples -- and its notes on failure
and on a pass. One runner, _check_set, evaluates the function once on the
grid with numerics._tensor and walks the rows; check_axioms and
implications.check_implication_axioms only choose the set. The connective
sets O, G, GO and T are named once, in _CONNECTIVE_SETS with the role each
checks, and check_axioms takes only those, so "I" is reachable only from
check_implication_axioms. continuity_heuristic, check_associativity
and the converse scan of grouping_from and overlap_from call the same row
checks; the two constructions then build the N-dual with dual, which lives
here beside them.

The named catalog is one table, _CATALOG: the role, parameter, note and
formula of each name. catalog() and CATALOG_NAMES read it, and so do
the CLI's parsers and its catalog listing.

Every catalog entry and construction is one formula over the numerics
primitives (_min, _max, _prod, _fsum, _pow, _where, _branch), marked with
numerics._vectorized, so the same body gives a point on floats and
FusionFunction.values a mesh on arrays, bit for bit alike. The call and
values() are numerics._Connective's, shared with Negation and
Implication. Piecewise formulas guard their denominators or branch lazily.

The grid along each coordinate is numerics._axis: the configured
resolution for unary and binary functions, a reduced grid (21 points for
arity 3, 11 beyond) for wider ones and for T2, to keep the suite at desk
scale. A grid of more than numerics.MAX_GRID_POINTS points (arity 7 and
up, or a binary grid of over 3162 per axis) is refused with a
PreconditionError.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import partial, reduce
from typing import Callable, NamedTuple, Optional

import numpy as np

from .negations import Negation, _require_negation
from .numerics import (
    DEFAULT_CONFIG,
    SCAN_BLOCK,
    CheckConfig,
    PreconditionError,
    UnitValue,
    _Connective,
    _Record,
    _all,
    _apart,
    _axis,
    _branch,
    _first,
    _fsum,
    _grid_mesh,
    _jump_bound,
    _max,
    _mesh_values,
    _min,
    _number,
    _pow,
    _prod,
    _scan_rows,
    _tensor,
    _value,
    _vectorized,
    _where,
    iteration_count,
    sorted_samples,
    uniform_grid,
)

ROLES = ("overlap", "grouping", "general_overlap", "t_norm", "aggregation")


@dataclass(frozen=True, eq=False)
class FusionFunction(_Connective):
    """An n-ary connective on [0,1]^n with a role claim and a label.

    The role is a claim set by constructors; check_axioms verifies it. Calls
    and values() follow the one contract of numerics._Connective: the output
    is validated into [0,1], and arrays are evaluated with fn when a
    constructor marked it numerics._vectorized.
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

    __call__ = _Connective.__call__

    def with_role(self, role: str) -> "FusionFunction":
        return replace(self, role=role)


@dataclass(frozen=True)
class AxiomCheck(_Record):
    """Outcome of one axiom: pass/fail, witness point, worst deviation."""

    axiom: str
    passed: bool
    witness: Optional[tuple] = None
    deviation: float = 0.0
    note: str = ""
    informational: bool = False


@dataclass(frozen=True)
class AxiomReport(_Record):
    """Per-axiom results for one function against one axiom set.

    Informational entries (the GO2a/GO3a converses) do not count toward the
    aggregate verdict passed: a general overlap may legitimately fail them.
    """

    label: str
    axiom_set: str
    passed: bool = field(init=False)
    checks: tuple[AxiomCheck, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", all(c.passed for c in self.checks if not c.informational))

    def check(self, axiom: str) -> AxiomCheck:
        for c in self.checks:
            if c.axiom == axiom:
                return c
        raise KeyError(axiom)

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


def _pn_factor(xs: tuple):
    # fsum keeps the sum-gate decision independent of argument order,
    # which naive left-to-right addition is not near the threshold.
    return _where(_fsum(*xs) <= 1.0, 0.0, _min(*xs))


def _o_v(x, y):
    return _branch((x >= 0.5) & (y >= 0.5), _o_v_bump, _min(x, y), x, y)


def _o_v_bump(x, y):
    return 0.5 * (1.0 + _pow(2.0 * x - 1.0, 2) * _pow(2.0 * y - 1.0, 2))


def _o_db(x, y):
    zero = x + y == 0.0
    return _where(zero, 0.0, 2.0 * x * y / _where(zero, 1.0, x + y))


class _Entry(NamedTuple):
    role: str
    param: Optional[str]
    note: str
    fn: Callable


# The named catalog entries. param is None, "p" (an exponent p > 0) or "n"
# (the arity, n >= 2); an entry with a parameter takes its value as the
# first argument of its formula.
_CATALOG = {
    "O_mM": _Entry("overlap", None, "minimum times squared maximum", lambda x, y: _min(x, y) * _max(x * x, y * y)),
    "O_DB": _Entry("overlap", None, "doubled product over the sum", _o_db),
    "O_P": _Entry("overlap", "p", "powered product", lambda p, x, y: _pow(x, p) * _pow(y, p)),
    "O_V": _Entry("overlap", None, "bump above (0.5, 0.5), minimum elsewhere", _o_v),
    "O_min": _Entry("overlap", None, "minimum", lambda x, y: _min(x, y)),
    "GO_max": _Entry(
        "general_overlap", None, "thresholded sum of squares", lambda x, y: _max(0.0, x * x + y * y - 1.0)
    ),
    "GO_TL": _Entry(
        "general_overlap", "p", "powered minimum times truncated sum",
        lambda p, x, y: _pow(_min(x, y), p) * _max(0.0, x + y - 1.0),
    ),
    "GO_PN": _Entry(
        "general_overlap", "n", "product gated by coordinate sum", lambda n, *xs: _prod(*xs) * _pn_factor(xs)
    ),
    "GO_GN": _Entry(
        "general_overlap", "n", "geometric mean gated by coordinate sum",
        lambda n, *xs: _pow(_prod(*xs), 1.0 / n) * _pn_factor(xs),
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
        args, label = (p,), f"{name}:p={_number(p)}"
    elif entry.param == "n":
        arity = _require_arity(params)
        args, label = (arity,), f"{name}:n={arity}"
    extra = set(params) - {entry.param}
    if extra:
        raise PreconditionError(f"unexpected parameters {sorted(extra)}")
    return FusionFunction(
        fn=_vectorized(partial(entry.fn, *args)),
        arity=arity,
        role=entry.role,
        label=label,
        params=tuple((entry.param, float(v)) for v in args),
    )


def grouping_max() -> FusionFunction:
    """The maximum, the basic grouping function."""
    return FusionFunction(
        fn=_vectorized(lambda x, y: _max(x, y)), arity=2, role="grouping", label="max_grouping"
    )


def grouping_probsum() -> FusionFunction:
    """Probabilistic sum 1 - (1-x)(1-y), a strict grouping function."""
    return FusionFunction(
        fn=_vectorized(lambda x, y: 1.0 - (1.0 - x) * (1.0 - y)),
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
    if not isinstance(overlap, FusionFunction) or overlap.role != "overlap" or overlap.arity != 2:
        raise PreconditionError("truncate_overlap needs a binary overlap function")
    av = float(a)
    if not 0.0 < av < 1.0:
        raise PreconditionError("truncation level a must lie in (0,1)")

    def fn(x, y, _o=overlap, _a=av):
        cut = _value(_o, _max(x, y), _a)
        if not _all(cut < 1.0):
            raise PreconditionError(f"truncating {_o.label} at a={_a:g} divides by zero: O(max(x, y), a) is 1")
        return _max(0.0, _value(_o, x, y) - cut) / (1.0 - cut)

    return FusionFunction(
        fn=_vectorized(fn),
        arity=2,
        role="general_overlap",
        label=f"trunc:{overlap.label},a={_number(av)}",
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


def dual(f: FusionFunction, negation: Negation) -> FusionFunction:
    """N-dual of a fusion function: N(f(N(x1),...,N(xn))).

    Keeps the arity; the result is tagged with the neutral 'aggregation' role
    because duality preserves aggregation-function status but may swap the
    conjunctive/disjunctive roles.
    """
    if not isinstance(f, FusionFunction):
        raise PreconditionError("dual expects a FusionFunction")
    _require_negation(negation, "dual")

    def fn(*xs, _f=f, _n=negation):
        return _value(_n, _value(_f, *[_value(_n, x) for x in xs]))

    return FusionFunction(
        fn=_vectorized(fn),
        arity=f.arity,
        role="aggregation",
        label=f"dual({f.label}, {negation.label})",
        params=f.params,
    )


def _dual_from(f: FusionFunction, negation, config: CheckConfig, side: str) -> FusionFunction:
    who, role, head, failure = _DUAL_FROM[side]
    if f.arity != 2:
        raise PreconditionError(f"{who} needs a binary function")
    if not getattr(negation, "is_strict", False):
        raise PreconditionError(f"{who} requires a strict negation")
    xs = _axis(config, 2)
    tensor = _tensor(f, xs)
    for level in (0.0, 1.0):
        witness, _ = _converse(f, tensor, xs, config, side=side, level=level)
        if witness is not None:
            warnings.warn(f"{f.label} {failure.format(witness)}", stacklevel=3)
            role = "aggregation"
            break
    return replace(dual(f, negation), role=role, label=f"{head}({f.label}, {negation.label})")


def piecewise_neutral_go(e: float) -> FusionFunction:
    """General overlap with prescribed neutral element e.

    min below e, max above e, and the rescaled product x*y/e on the mixed
    region; the three branches agree on the seams, so the result is
    continuous with f(x, e) = x. The product is written min(lo, e) * hi / e:
    that is x*y/e where the mixed branch is taken, and at most hi
    everywhere, so a tiny e overflows on neither path.
    """
    ev = float(e)
    if not 0.0 < ev <= 1.0:
        raise PreconditionError("neutral element e must lie in (0,1]")

    def fn(x, y, _e=ev):
        lo, hi = _min(x, y), _max(x, y)
        return _where(hi <= _e, lo, _where(lo >= _e, hi, _min(lo, _e) * hi / _e))

    return FusionFunction(
        fn=_vectorized(fn),
        arity=2,
        role="general_overlap",
        label=f"neutral_go:e={_number(ev)}",
        params=(("e", ev),),
    )


def idempotent_go(p: float, q: float) -> FusionFunction:
    """Idempotent general overlap ((x^p y^q + x^q y^p)/2)^(1/(p+q))."""
    pv, qv = float(p), float(q)
    if not (math.isfinite(pv) and pv > 0.0 and math.isfinite(qv) and qv > 0.0):
        raise PreconditionError("idempotent_go needs p > 0 and q > 0")

    def fn(x, y, _p=pv, _q=qv):
        mean = 0.5 * (_pow(x, _p) * _pow(y, _q) + _pow(x, _q) * _pow(y, _p))
        return _pow(mean, 1.0 / (_p + _q))

    return FusionFunction(
        fn=_vectorized(fn),
        arity=2,
        role="general_overlap",
        label=f"idem_go:p={_number(pv)},q={_number(qv)}",
        params=(("p", pv), ("q", qv)),
    )


# ---------------------------------------------------------------------------
# Axiom engine
# ---------------------------------------------------------------------------


def _point(at: tuple, xs: np.ndarray) -> tuple:
    """The grid point at the tensor index at."""
    return tuple(float(xs[k]) for k in at)


def _bounded(excesses, xs: np.ndarray, bound: float) -> tuple:
    """Witness and top of the first excess array (one per axis) topping bound, else (None, the largest)."""
    worst = 0.0
    for excess in excesses:
        top = float(excess.max())
        worst = max(worst, top)
        if top > bound:
            return _point(_first(excess > bound), xs), top
    return None, worst


# The row checks of _AXIOMS: check(f, tensor, xs, config, **row parameters)
# gives (witness, deviation), the witness None when the axiom holds. First
# means C order over the tensor, the order a nested loop over xs meets the
# points in.


def _symmetric(f, tensor, xs, config) -> tuple:
    swaps = (np.abs(tensor - np.swapaxes(tensor, axis, axis + 1)) for axis in range(tensor.ndim - 1))
    return _bounded(swaps, xs, config.eq_tol)


def _monotone(f, tensor, xs, config, direction: int = 1, axes=None) -> tuple:
    """Isotone (direction 1) or antitone (-1) along each of axes, by default every axis."""
    # Running maxima cover every pair along an axis, not just neighbors. Negation is exact, so an
    # antitone drop is the tensor minus its running minimum, bit for bit.
    signed = tensor if direction > 0 else -tensor
    drops = (np.maximum.accumulate(signed, axis=axis) - signed for axis in axes or range(tensor.ndim))
    return _bounded(drops, xs, config.eq_tol)


def _continuous(f, tensor, xs, config) -> tuple:
    jumps = (np.abs(np.diff(tensor, axis=axis)) for axis in range(tensor.ndim))
    return _bounded(jumps, xs, _jump_bound(len(xs)))


def _zero_faces(f, tensor, xs, config) -> tuple:
    """The "if" direction of GO2: a zero coordinate forces the value exactly 0."""
    index = np.indices(tensor.shape, sparse=True)
    faces = (np.where(index[axis] == 0, np.abs(tensor), 0.0) for axis in range(tensor.ndim))
    return _bounded(faces, xs, 0.0)


def _corner(f, tensor, xs, config, want: float, point: Optional[tuple] = None, exact: bool = True) -> tuple:
    """f at the corner point, by default (want, ..., want), against want: exactly, or within eq_tol."""
    point = point or (want,) * f.arity
    deviation = abs(float(f(*point)) - want)
    return (None if deviation <= (0.0 if exact else config.eq_tol) else point), deviation


def _lines(f, tensor, xs, config, level: float) -> tuple:
    """f(level, s) and f(s, level) equal level exactly for every sample s.

    level is 0 on the overlap zero lines and 1 on the grouping one lines.
    """
    samples = sorted_samples(config)
    edge = np.full(len(samples), level)
    # The points (level, s) and (s, level) for each sample s, in that order.
    cols = (np.stack([edge, samples], axis=1).ravel(), np.stack([samples, edge], axis=1).ravel())
    row = ((("F", "x", "y"), level), lambda got, want: (got != want, abs(got - want)))
    ((witness, _, _),) = _scan_rows([(cols, [row])], {"F": f})
    return (None, 0.0) if witness is None else (witness[0], witness[3])


def _converse(f, tensor, xs, config, side: str, level: float) -> tuple:
    """Converse boundary condition: level (0 or 1) is reached only where allowed.

    The overlap side allows 0 only with a zero argument (O2, GO2a) and 1
    only at the all-ones corner (O3, GO3a); the grouping side allows 0 only
    at the all-zero corner (G2) and 1 only with a one argument (G3). A
    failure's deviation is the value reached.
    """
    tol = config.eq_tol
    if level == 0.0:
        hit, away = tensor <= tol, xs > 0.0
    else:
        hit, away = tensor >= 1.0 - tol, xs < 1.0
    # Overlap zeros and grouping ones need every coordinate away from level.
    join = np.logical_and if (side == "overlap") == (level == 0.0) else np.logical_or
    at = _first(hit & reduce(join, np.meshgrid(*[away] * tensor.ndim, indexing="ij", sparse=True)))
    return (None, 0.0) if at is None else (_point(at, xs), float(tensor[at]))


def _associative(f, tensor, xs, config) -> tuple:
    """f(f(x,y),z) = f(x,f(y,z)) within eq_tol on the reduced triple grid, whatever tensor and xs are."""
    sides = (("F", ("F", "x", "y"), "z"), ("F", "x", ("F", "y", "z")))
    row = (sides, _apart(config.eq_tol))
    ((witness, _, worst),) = _scan_rows([(_grid_mesh(config, 3), [row])], {"F": f})
    return (None, worst) if witness is None else (witness[0], witness[3])


def _neutral_one(f, tensor, xs, config) -> tuple:
    """f(x, 1) = x within eq_tol over the sorted samples, with the largest deviation."""
    worst, at = _worst_sample(config, lambda x: _value(f, x, 1.0))
    return (None if worst <= config.eq_tol else (at, 1.0)), worst


def _worst_sample(config: CheckConfig, g: Callable) -> tuple[float, Optional[float]]:
    """Largest |g(x) - x| over the sorted samples and its first x (None when 0)."""
    samples = sorted_samples(config)
    (deviation,) = _mesh_values((samples,), lambda x: (abs(g(x) - x),))
    k = int(np.argmax(deviation))
    worst = float(deviation[k])
    return worst, (float(samples[k]) if worst > 0.0 else None)


class _Axiom(NamedTuple):
    """A row of _AXIOMS.

    check is one of the row checks above. exact, when set, is a check that
    runs first, the exact boundary an "only if" converse rests on; when it
    fails, it decides the row, with no note. failed and held are the notes
    when check fails and when the row holds; {jump} in them is the
    continuity bound of the grid. An informational row reports no deviation
    and does not count toward the report's verdict.
    """

    axiom: str
    check: Callable
    failed: str = ""
    held: str = ""
    informational: bool = False
    exact: Optional[Callable] = None


_NO_CE = "no counterexample found on grid"
_JUMP = "adjacent-cell jump bound {jump:g}"


def _converse_row(axiom: str, side: str, level: float, failed: str, **kw) -> _Axiom:
    return _Axiom(axiom, partial(_converse, side=side, level=level), failed, _NO_CE, **kw)


# Axiom set -> its rows, in report order. O and G are mirror images: the
# level a side takes on whole boundary lines (0 for overlaps, 1 for
# groupings) must hold exactly along them, the other level exactly at its
# corner, and where it does the "only if" converse is scanned. "I" is run
# by implications.check_implication_axioms only.
_AXIOMS = {
    "O": (
        _Axiom("O1", _symmetric),
        _converse_row("O2", "overlap", 0.0, "zero at nonzero arguments", exact=partial(_lines, level=0.0)),
        _converse_row("O3", "overlap", 1.0, "reaches 1 away from (1,1)", exact=partial(_corner, want=1.0)),
        _Axiom("O4", _monotone),
        _Axiom("O5", _continuous, _JUMP, _JUMP),
    ),
    "G": (
        _Axiom("G1", _symmetric),
        _converse_row("G2", "grouping", 0.0, "zero away from (0,0)", exact=partial(_corner, want=0.0)),
        _converse_row("G3", "grouping", 1.0, "reaches 1 without a 1 argument", exact=partial(_lines, level=1.0)),
        _Axiom("G4", _monotone),
        _Axiom("G5", _continuous, _JUMP, _JUMP),
    ),
    "GO": (
        _Axiom("GO1", _symmetric),
        _Axiom("GO2", _zero_faces),
        _Axiom("GO3", partial(_corner, want=1.0)),
        _Axiom("GO4", _monotone),
        _Axiom("GO5", _continuous, _JUMP, _JUMP),
        _converse_row("GO2a", "overlap", 0.0, "zero at all-nonzero arguments", informational=True),
        _converse_row("GO3a", "overlap", 1.0, "reaches 1 below the all-ones corner", informational=True),
    ),
    "T": (
        _Axiom("T1", _symmetric),
        _Axiom("T2", _associative),
        _Axiom("T3", _neutral_one, "neutral element 1", "neutral element 1"),
    ),
    "I": (
        _Axiom("I1", partial(_monotone, direction=-1, axes=(0,)), "not antitone in the first argument"),
        _Axiom("I2", partial(_monotone, axes=(1,)), "not isotone in the second argument"),
        _Axiom("I3", partial(_corner, want=1.0, point=(0.0, 0.0), exact=False)),
        _Axiom("I4", partial(_corner, want=1.0, point=(1.0, 1.0), exact=False)),
        _Axiom("I5", partial(_corner, want=0.0, point=(1.0, 0.0), exact=False)),
    ),
}


# The connective axiom sets -> the role each checks: check_axioms, the CLI's
# --set and its default set for a role read this. GO alone takes any arity.
_CONNECTIVE_SETS = {"O": "overlap", "G": "grouping", "GO": "general_overlap", "T": "t_norm"}


def _verdict(row: _Axiom, f, tensor, xs: np.ndarray, config: CheckConfig) -> AxiomCheck:
    """The AxiomCheck of one row on f's tensor over the grid xs."""
    witness, deviation, note = None, 0.0, ""
    if row.exact is not None:
        witness, deviation = row.exact(f, tensor, xs, config)
    if witness is None:
        witness, deviation = row.check(f, tensor, xs, config)
        note = (row.held if witness is None else row.failed).format(jump=_jump_bound(len(xs)))
    return AxiomCheck(
        axiom=row.axiom,
        passed=witness is None,
        witness=witness,
        deviation=0.0 if row.informational else deviation,
        note=note,
        informational=row.informational,
    )


def _check_set(f, axiom_set: str, config: CheckConfig) -> AxiomReport:
    """Every row of _AXIOMS[axiom_set] on f (a FusionFunction or Implication), evaluated once on its grid."""
    xs = _axis(config, f.arity)
    tensor = _tensor(f, xs)
    checks = tuple(_verdict(row, f, tensor, xs, config) for row in _AXIOMS[axiom_set])
    return AxiomReport(label=f.label, axiom_set=axiom_set, checks=checks)


def check_axioms(f: FusionFunction, axiom_set: str, config: CheckConfig = DEFAULT_CONFIG) -> AxiomReport:
    """Verify one of the connective axiom sets, the keys of _CONNECTIVE_SETS, on the grid.

    GO accepts any arity, the others demand a binary function. The report's
    aggregate verdict ignores the informational GO2a/GO3a entries. The
    function is evaluated once on the grid; every check reads that tensor.
    """
    if axiom_set not in _CONNECTIVE_SETS:
        raise PreconditionError(f"unknown axiom set {axiom_set!r} (want {'|'.join(_CONNECTIVE_SETS)})")
    if axiom_set != "GO" and f.arity != 2:
        raise PreconditionError(f"axiom set {axiom_set} applies to binary functions")
    return _check_set(f, axiom_set, config)


def check_associativity(f: FusionFunction, config: CheckConfig = DEFAULT_CONFIG) -> AxiomCheck:
    """Grid check of f(f(x,y),z) = f(x,f(y,z)) on a reduced triple grid."""
    if f.arity != 2:
        raise PreconditionError("associativity applies to binary functions")
    # The check reads neither a tensor nor xs; xs is the axis of the triple grid it scans.
    return _verdict(_Axiom("associativity", _associative), f, None, _axis(config, 3), config)


def continuity_heuristic(f: FusionFunction, config: CheckConfig = DEFAULT_CONFIG) -> AxiomCheck:
    """Standalone adjacent-jump continuity check (used for aggregations)."""
    xs = _axis(config, f.arity)
    return _verdict(_Axiom("continuity", _continuous, _JUMP, _JUMP), f, _tensor(f, xs), xs, config)


# ---------------------------------------------------------------------------
# Neutral element and idempotency
# ---------------------------------------------------------------------------


def find_neutral(f: FusionFunction, config: CheckConfig = DEFAULT_CONFIG) -> Optional[UnitValue]:
    """Search for a with f(x, a) = x for all sampled x.

    Grid candidates must match within eq_tol, and the first that does is
    returned. The candidate-major mesh (each grid value against every
    sample) is evaluated in parts of whole rows, at most SCAN_BLOCK points
    each (8 parts at grid 101), and the first row with no deviation passes.
    A part that raises has its own candidates scanned one at a time, each
    to its first witness, and the first that passes is returned; an error
    is raised where such a scan meets it, and the walk resumes with the
    next part if each of them deviates first. That is a scan of each
    candidate in turn, since a part that evaluates cleanly holds no point
    such a scan could raise on. If no candidate passes, the search falls
    back on bisecting a sign change of a -> f(0.5, a) - 0.5; a candidate
    found that way carries bisection error, so it is verified at the looser
    10*bisect_tol before being accepted. Returns None when nothing survives.
    """
    if f.arity != 2:
        raise PreconditionError("find_neutral applies to binary functions")
    samples = sorted_samples(config)
    grid = uniform_grid(config)

    def deviates(a: float, budget: float) -> bool:
        row = (("F", "x", a), "x"), _apart(budget)
        ((witness, _, _),) = _scan_rows([((samples,), [row])], {"F": f})
        return witness is not None

    step = max(1, SCAN_BLOCK // len(samples))
    for row in range(0, len(grid), step):
        rows = grid[row : row + step]
        cols = (np.tile(samples, len(rows)), np.repeat(rows, len(samples)))
        try:
            (values,) = _mesh_values(cols, lambda x, a: (_value(f, x, a),))
        except Exception:
            passes = (a for a in rows.tolist() if not deviates(a, config.eq_tol))
        else:
            failed, _ = _apart(config.eq_tol)(values, cols[0])
            passes = iter(rows[~failed.reshape(len(rows), -1).any(axis=1)].tolist())
        a = next(passes, None)
        if a is not None:
            return UnitValue(a)

    (values,) = _mesh_values((grid,), lambda a: (_value(f, 0.5, a),))
    gap = (values - 0.5).tolist()
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
