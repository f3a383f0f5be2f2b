"""Fuzzy negations: construction, numeric classification, and duality.

A fuzzy negation is an antitonic map N on [0,1] with N(0) = 1 and N(1) = 0.
The classes that matter downstream:

* strict    -- continuous and strictly decreasing (invertible);
* strong    -- involutive, N(N(x)) = x (implies strict);
* crisp     -- two-valued, which forces the lower/upper threshold families
               (0 past a cut point, 1 before it);
* frontier  -- takes the values 0 and 1 only at the endpoints.

Constructors declare the class flags they are known to satisfy; classify()
re-derives the same flags numerically on the sample grid, so the two routes
can be checked against each other. The N-dual of a fusion function,
N(f(N(x1),...,N(xn))), is conjunctors.dual, beside the grouping and overlap
constructions built on it; this module imports nothing from conjunctors.
_require_negation is the one refusal of a non-Negation, by dual, by
the gon, tn and gn constructors, by classify and by inverse_negation.

Each negation and the numeric inverse is one body over numerics (its
primitives, _invert): a point on floats, a mesh on arrays. A Negation is
called and evaluated on arrays through numerics._Connective, the contract
it shares with FusionFunction and Implication, so a wrong argument count
is a PreconditionError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .numerics import (
    DEFAULT_CONFIG,
    CheckConfig,
    PreconditionError,
    _Connective,
    _Record,
    _first,
    _invert,
    _jump_bound,
    _number,
    _pow,
    _tensor,
    _vectorized,
    _where,
    sorted_samples,
    uniform_grid,
)


@dataclass(frozen=True, eq=False)
class Negation(_Connective):
    """A unary connective on [0,1] plus declared classification claims.

    The is_* flags are claims set by constructors from known facts about the
    family; classify() verifies them numerically. Constructors write fn over
    the numerics primitives (numerics._vectorized). Calls and values() follow
    the one contract of numerics._Connective.
    """

    arity = 1

    fn: Callable[[float], float]
    label: str
    params: tuple[tuple[str, float], ...] = ()
    is_strict: bool = False
    is_strong: bool = False
    is_crisp: bool = False
    is_frontier: bool = False

    __call__ = _Connective.__call__


def _require_negation(negation, who: str) -> None:
    """Refuse anything but a Negation, with a PreconditionError that names the constructor who."""
    if not isinstance(negation, Negation):
        raise PreconditionError(f"{who} needs a Negation")


@dataclass(frozen=True)
class NegationClassification(_Record):
    """Numerically verified class membership with falsifying witnesses.

    witnesses maps a failed class name ("strict", "strong", ...) to the
    sample point(s) that falsified it.
    """

    is_negation: bool
    is_strict: bool
    is_strong: bool
    is_crisp: bool
    is_frontier: bool
    witnesses: dict = field(default_factory=dict)
    samples_checked: int = 0

    @property
    def witness(self) -> Optional[tuple]:
        if not self.witnesses:
            return None
        return next(iter(self.witnesses.values()))


def make_standard() -> Negation:
    """The standard negation 1 - x (strict, strong, frontier)."""
    return Negation(
        fn=_vectorized(lambda x: 1.0 - x),
        label="zadeh",
        is_strict=True,
        is_strong=True,
        is_frontier=True,
    )


def make_crisp(kind: str, alpha: float) -> Negation:
    """Two-valued negation: 'lower' is 0 for x > alpha, 'upper' for x >= alpha.

    Admissible thresholds differ: lower needs alpha in [0,1), upper needs
    alpha in (0,1]. The extremes are the least and greatest negations
    (lower at 0, upper at 1).
    """
    a = float(alpha)
    if kind == "lower":
        if not 0.0 <= a < 1.0:
            raise PreconditionError("lower crisp negation needs alpha in [0,1)")
        fn = _vectorized(lambda x, _a=a: _where(x > _a, 0.0, 1.0))
        label = f"crisp_lower:{_number(a)}"
    elif kind == "upper":
        if not 0.0 < a <= 1.0:
            raise PreconditionError("upper crisp negation needs alpha in (0,1]")
        fn = _vectorized(lambda x, _a=a: _where(x >= _a, 0.0, 1.0))
        label = f"crisp_upper:{_number(a)}"
    else:
        raise PreconditionError(f"unknown crisp kind {kind!r} (want lower|upper)")
    return Negation(fn=fn, label=label, params=(("alpha", a),), is_crisp=True)


def make_bottom() -> Negation:
    """The least negation: 1 at 0, else 0."""
    return replace(make_crisp("lower", 0.0), label="bottom")


def make_top() -> Negation:
    """The greatest negation: 0 at 1, else 1."""
    return replace(make_crisp("upper", 1.0), label="top")


def make_power_strict(p: float) -> Negation:
    """N(x) = 1 - x^p: strict for every p > 0, strong only for p = 1."""
    pv = float(p)
    if not (math.isfinite(pv) and pv > 0.0):
        raise PreconditionError("power negation needs p > 0")
    return Negation(
        fn=_vectorized(lambda x, _p=pv: 1.0 - _pow(x, _p)),
        label=f"power:{_number(pv)}",
        params=(("p", pv),),
        is_strict=True,
        is_strong=(pv == 1.0),
        is_frontier=True,
    )


def classify(negation: Negation, config: CheckConfig = DEFAULT_CONFIG) -> NegationClassification:
    """Numerically test the negation axioms and classes on the sample grid.

    Strictness bundles strict decrease on the grid with a continuity
    heuristic (adjacent-grid jump <= 10/grid_resolution); it is sound on the
    shipped catalog but, like any sampling argument, not a proof.
    """
    _require_negation(negation, "classify")
    tol = config.eq_tol
    samples = sorted_samples(config)
    vals = _tensor(negation, samples)
    witnesses: dict = {}

    boundary_ok = vals[0] == 1.0 and vals[-1] == 0.0
    if not boundary_ok:
        witnesses["boundary"] = (0.0, float(vals[0]), 1.0, float(vals[-1]))

    # Antitonic: no later value may exceed an earlier one (checked via the
    # running minimum so every pair is covered, not just neighbors).
    rise = _first(vals[1:] > np.minimum.accumulate(vals)[:-1] + tol)
    if rise is not None:
        j = rise[0] + 1
        i = int(np.argmin(vals[:j]))
        witnesses["antitonic"] = (float(samples[i]), float(samples[j]))

    grid = uniform_grid(config)
    # The grid is part of the samples, so its values are read from vals.
    steps = np.diff(vals[np.searchsorted(samples, grid)])
    # The first flat step, else the first jump past the continuity bound.
    step = _first(steps >= 0.0) or _first(np.abs(steps) > _jump_bound(config.grid_resolution))
    if step is not None:
        i = step[0]
        witnesses["strict"] = (float(grid[i]), float(grid[i + 1]))

    nn = _tensor(negation, vals)
    interior = (samples > 0.0) & (samples < 1.0)
    # A failed class's witness: the first sample where it fails and the value read there.
    for name, mask, values in (
        ("strong", np.abs(nn - samples) > tol, nn),
        ("crisp", np.minimum(vals, 1.0 - vals) > tol, vals),
        ("frontier", interior & ((vals <= tol) | (vals >= 1.0 - tol)), vals),
    ):
        at = _first(mask)
        if at is not None:
            witnesses[name] = (float(samples[at]), float(values[at]))

    is_negation = boundary_ok and rise is None
    is_strict = is_negation and step is None
    return NegationClassification(
        is_negation=is_negation,
        is_strict=is_strict,
        is_strong=is_strict and "strong" not in witnesses,
        is_crisp=is_negation and "crisp" not in witnesses,
        is_frontier=is_negation and "frontier" not in witnesses,
        witnesses=witnesses,
        samples_checked=len(samples),
    )


def inverse_negation(negation: Negation, tol: float | None = None) -> Negation:
    """Numeric inverse of a strict negation, itself packaged as a Negation.

    Each evaluation bisects N (numerics._invert, one body for a point and a
    mesh), so the result is within the bisection tolerance of the true
    inverse rather than exact; y = 0 and y = 1 map exactly to 1 and 0.
    """
    _require_negation(negation, "inverse_negation")
    if not negation.is_strict:
        raise PreconditionError("inverse_negation requires a strict negation")
    t = DEFAULT_CONFIG.bisect_tol if tol is None else float(tol)
    return Negation(
        fn=_vectorized(lambda y, _n=negation, _t=t: _invert(_n, y, _t)),
        label=f"inv({negation.label})",
        params=negation.params,
        is_strict=True,
        is_strong=negation.is_strong,
        is_frontier=negation.is_frontier,
    )
