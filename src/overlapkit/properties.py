"""Grid verification of implication properties and pointwise comparison.

Property ids:

* NP: I(1, y) = y (left neutrality).
* IP: I(x, x) = 1 (identity principle).
* LOP: x <= y implies I(x, y) = 1 (left-ordering).
* ROP: x > y implies I(x, y) != 1 (right-ordering, a strict inequality).
* IB: I(x, I(x, y)) = I(x, y) (iterative Boolean law).
* EP: I(x, I(y, z)) = I(y, I(x, z)) (exchange principle).
* EP1: I(x, I(y, z)) = 1 implies I(y, I(x, z)) = 1 (exchange at 1 only).
* CP / L-CP / R-CP: contraposition laws parameterized by a negation N,
  comparing I(x, y) with I(N(y), N(x)), I(N(x), y) with I(N(y), x), and
  I(x, N(y)) with I(y, N(x)) respectively.

All verdicts are grid verdicts: "holds_on_grid" never claims a proof.
Equality checks compare within eq_tol; ROP treats any value within eq_tol
of 1 as a violation, since the property demands strict distance from 1.
Failing scans stop at the lexicographically first witness so reports are
deterministic.

The ten scans are the rows of one table, _PROPERTIES, keyed by report id:
the mesh each walks, its two sides, the relation that fails a point and the
note. _check runs a row on numerics._scan_mesh, which evaluates the mesh as
arrays in doubling blocks and reports the witness or error a point-by-point
scan would; the public checkers only validate the id. NP and IP walk the
sorted samples, the other pairwise scans numerics._sample_mesh (the uniform
grid mesh plus seeded random pairs), EP and EP1 the triple mesh on the
reduced grid of numerics._axis (21 points) plus random triples. pair_points and
triple_points yield the points of those meshes as Python floats, in
numerics._sample_mesh's order, so they too refuse a mesh of more than
numerics.MAX_GRID_POINTS points. compare evaluates the whole pair mesh
with numerics._mesh_values, range_is_proper the sample square with
numerics._tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .implications import Implication
from .negations import Negation
from .numerics import (
    DEFAULT_CONFIG,
    CheckConfig,
    PreconditionError,
    _apart,
    _mesh_values,
    _Record,
    _sample_mesh,
    _scalar_points,
    _scan_mesh,
    _tensor,
    _value,
    sorted_samples,
)

UNARY_PROPERTIES = ("NP", "IP", "LOP", "ROP", "IB")
EP_VARIANTS = ("EP", "EP1")
CP_VARIANTS = ("CP", "LCP", "RCP")


@dataclass(frozen=True)
class PropertyWitness(_Record):
    """A failing point with both evaluated sides and their distance."""

    point: tuple
    lhs: float
    rhs: float
    deviation: float


@dataclass(frozen=True)
class PropertyReport(_Record):
    """Outcome of one property scan over the sampled mesh."""

    property_id: str = field(metadata={"key": "property"})
    status: str
    witness: Optional[PropertyWitness]
    samples_checked: int
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.status == "holds_on_grid"

    def __bool__(self) -> bool:
        return self.holds

    def summary(self) -> str:
        head = f"{self.property_id:<5} {self.status}"
        if self.witness is None:
            return head
        w = self.witness
        point = ", ".join(f"{v:.9f}" for v in w.point)
        return f"{head} at ({point}) lhs={w.lhs:.9f} rhs={w.rhs:.9f}"


def _report(pid: str, witness: Optional[tuple], count: int, note: str = "") -> PropertyReport:
    """PropertyReport from a _scan_mesh result: its witness tuple (or None) and count."""
    return PropertyReport(
        property_id=pid,
        status="fails" if witness is not None else "holds_on_grid",
        witness=None if witness is None else PropertyWitness(*witness),
        samples_checked=count,
        note=note,
    )


def pair_points(config: CheckConfig) -> Iterator[tuple[float, float]]:
    """The pair mesh point by point: the points of numerics._sample_mesh(config, 2), in order."""
    yield from _scalar_points(_sample_mesh(config, 2))


def triple_points(config: CheckConfig) -> Iterator[tuple[float, float, float]]:
    """The triple mesh point by point: the points of numerics._sample_mesh(config, 3), in order."""
    yield from _scalar_points(_sample_mesh(config, 3))


class _Property(NamedTuple):
    """A row of _PROPERTIES.

    mesh(config) gives the columns to scan; sides(i, n, *point) the (lhs,
    rhs), with i and n the implication and the negation under
    numerics._value; relation(eq_tol) the test of a point;
    note.format(negation) the report's note.
    """

    mesh: Callable[[CheckConfig], tuple]
    sides: Callable[..., tuple]
    relation: Callable[[float], Callable] = _apart
    note: str = ""


def _pairs_where(keep: Callable, config: CheckConfig) -> tuple[np.ndarray, np.ndarray]:
    """The pair mesh at the points where keep(x, y) holds."""
    x, y = _sample_mesh(config, 2)
    mask = keep(x, y)
    return x[mask], y[mask]


def _at_one(i, n, x, y):
    # IP and LOP compare with 1 by _apart: |v - 1| is 1 - v exactly for v <= 1.
    return i(x, y), 1.0


def _ib_sides(i, n, x, y):
    inner = i(x, y)
    return i(x, inner), inner


def _ep_sides(i, n, x, y, z):
    return i(x, i(y, z)), i(y, i(x, z))


_pairs = partial(_sample_mesh, arity=2)
_triples = partial(_sample_mesh, arity=3)
_BY_NEGATION = "negation {0.label}"

_PROPERTIES = {
    "NP": _Property(lambda c: np.broadcast_arrays(1.0, sorted_samples(c)), lambda i, n, x, y: (i(x, y), y)),
    "IP": _Property(lambda c: (sorted_samples(c),) * 2, _at_one),
    "LOP": _Property(partial(_pairs_where, np.less_equal), _at_one),
    "ROP": _Property(
        partial(_pairs_where, np.greater),
        _at_one,
        lambda tol: lambda lhs, rhs: (lhs >= rhs - tol, rhs - lhs),
        "strict bound: values within eq_tol of 1 violate ROP; witness deviation is the distance to 1",
    ),
    "IB": _Property(_pairs, _ib_sides),
    "EP": _Property(_triples, _ep_sides),
    "EP1": _Property(
        _triples,
        _ep_sides,
        lambda tol: lambda lhs, rhs: ((lhs >= 1.0 - tol) & (rhs < 1.0 - tol), 1.0 - rhs),
        "one side at 1 must force the other to 1",
    ),
    "CP": _Property(_pairs, lambda i, n, x, y: (i(x, y), i(n(y), n(x))), note=_BY_NEGATION),
    "L-CP": _Property(_pairs, lambda i, n, x, y: (i(n(x), y), i(n(y), x)), note=_BY_NEGATION),
    "R-CP": _Property(_pairs, lambda i, n, x, y: (i(x, n(y)), i(y, n(x))), note=_BY_NEGATION),
}


def _check(
    pid: str, implication: Implication, negation: Optional[Negation], config: CheckConfig
) -> PropertyReport:
    """The PropertyReport of scanning row pid of _PROPERTIES."""
    row = _PROPERTIES[pid]
    sides = partial(row.sides, partial(_value, implication), partial(_value, negation))
    witness, count, _ = _scan_mesh(row.mesh(config), sides, row.relation(config.eq_tol))
    return _report(pid, witness, count, row.note.format(negation))


def check_unary_property(
    implication: Implication, prop: str, config: CheckConfig = DEFAULT_CONFIG
) -> PropertyReport:
    """Check NP, IP, LOP, ROP, or IB for one implication."""
    if prop not in UNARY_PROPERTIES:
        raise PreconditionError(f"unknown property {prop!r} (want one of {UNARY_PROPERTIES})")
    return _check(prop, implication, None, config)


def check_ep(
    implication: Implication, variant: str = "EP", config: CheckConfig = DEFAULT_CONFIG
) -> PropertyReport:
    """Exchange principle over reduced-grid triples plus random triples.

    EP compares both nestings within eq_tol; EP1 only demands that hitting 1
    on one side forces 1 on the other. Scanning all ordered triples makes
    the one-directional EP1 test symmetric in practice.
    """
    if variant not in EP_VARIANTS:
        raise PreconditionError(f"unknown variant {variant!r} (want EP or EP1)")
    return _check(variant, implication, None, config)


def check_contraposition(
    implication: Implication,
    negation: Negation,
    variant: str = "CP",
    config: CheckConfig = DEFAULT_CONFIG,
) -> PropertyReport:
    """Contraposition laws CP, LCP, RCP with respect to a given negation.

    Sides are compared at config.eq_tol; pass a config with a looser eq_tol
    when the negation itself is a bisection-backed numeric inverse. The
    reports are named CP, L-CP and R-CP.
    """
    if variant not in CP_VARIANTS:
        raise PreconditionError(f"unknown variant {variant!r} (want CP, LCP, or RCP)")
    return _check({"LCP": "L-CP", "RCP": "R-CP"}.get(variant, variant), implication, negation, config)


@dataclass(frozen=True)
class Comparison(_Record):
    """Sup distance between two implications over the sampled pairs."""

    deviation: float
    at: tuple[float, float]
    lhs: float
    rhs: float
    samples_checked: int


def compare(i1: Implication, i2: Implication, config: CheckConfig = DEFAULT_CONFIG) -> Comparison:
    """Max |i1 - i2| over the pair mesh with the first maximizing point."""
    x, y = _sample_mesh(config, 2)
    left, right = _mesh_values((x, y), lambda a, b: (_value(i1, a, b), _value(i2, a, b)))
    k = int(np.argmax(np.abs(left - right)))
    lhs, rhs = float(left[k]), float(right[k])
    return Comparison(
        deviation=abs(lhs - rhs), at=(float(x[k]), float(y[k])), lhs=lhs, rhs=rhs, samples_checked=len(x)
    )


def range_is_proper(implication: Implication, config: CheckConfig = DEFAULT_CONFIG) -> bool:
    """True when the sampled image leaves a gap wider than 2/grid_resolution.

    The image is taken over the full sample mesh (uniform grid plus random
    points in both coordinates); a uniform grid alone can overstate gaps for
    implications whose level sets are diagonal.
    """
    values = np.sort(_tensor(implication, sorted_samples(config)), axis=None)
    threshold = 2.0 / config.grid_resolution
    if values[0] - 0.0 > threshold or 1.0 - values[-1] > threshold:
        return True
    return bool((np.diff(values) > threshold).any())
