"""Grid verification of implication properties and pointwise comparison.

Property ids:

* NP: I(1, y) = y (left neutrality).
* IP: I(x, x) = 1 (identity principle).
* LOP: x <= y implies I(x, y) = 1 (left-ordering).
* ROP: x > y implies I(x, y) != 1 (right-ordering, a strict inequality).
* IB: I(x, I(x, y)) = I(x, y) (iterative Boolean law).
* EP: I(x, I(y, z)) = I(y, I(x, z)) (exchange principle).
* EP1: I(x, I(y, z)) = 1 implies I(y, I(x, z)) = 1 (exchange at 1 only).
* CP / LCP / RCP: contraposition laws parameterized by a negation N,
  comparing I(x, y) with I(N(y), N(x)), I(N(x), y) with I(N(y), x), and
  I(x, N(y)) with I(y, N(x)) respectively.

All verdicts are grid verdicts: "holds_on_grid" never claims a proof.
Equality checks compare within eq_tol; ROP treats any value within eq_tol
of 1 as a violation, since the property demands strict distance from 1.
Failing scans stop at the lexicographically first witness so reports are
deterministic. Every property scan runs on numerics._scan_mesh, which
evaluates the mesh as arrays in doubling blocks and reports what the
scalar scan numerics._scan would; compare evaluates the whole pair mesh
with numerics._mesh_values, and range_is_proper the sample square with
numerics._tensor. Each check's sides are written once with
numerics._value, so the same code runs on block arrays and, in the scalar
fallback, on floats. The scans walk numerics._sample_mesh: pairwise scans
the uniform grid mesh plus seeded random pairs, triple scans (EP/EP1) the
reduced grid of numerics._axis (21 points) plus random triples, to stay at
desk scale. pair_points and triple_points yield those meshes point by
point, in the order of the columns the scans use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .implications import Implication
from .negations import Negation
from .numerics import (
    DEFAULT_CONFIG,
    CheckConfig,
    PreconditionError,
    _apart,
    _axis,
    _mesh_values,
    _sample_mesh,
    _scan_mesh,
    _tensor,
    _value,
    random_points,
    sorted_samples,
)

UNARY_PROPERTIES = ("NP", "IP", "LOP", "ROP", "IB")
EP_VARIANTS = ("EP", "EP1")
CP_VARIANTS = ("CP", "LCP", "RCP")


@dataclass(frozen=True)
class PropertyWitness:
    """A failing point with both evaluated sides and their distance."""

    point: tuple
    lhs: float
    rhs: float
    deviation: float

    def as_dict(self) -> dict:
        return {
            "point": list(self.point),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "deviation": self.deviation,
        }


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one property scan over the sampled mesh."""

    property_id: str
    status: str
    witness: Optional[PropertyWitness]
    samples_checked: int
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.status == "holds_on_grid"

    def __bool__(self) -> bool:
        return self.holds

    def as_dict(self) -> dict:
        return {
            "property": self.property_id,
            "status": self.status,
            "witness": None if self.witness is None else self.witness.as_dict(),
            "samples_checked": self.samples_checked,
            "note": self.note,
        }

    def summary(self) -> str:
        head = f"{self.property_id:<5} {self.status}"
        if self.witness is None:
            return head
        w = self.witness
        point = ", ".join(f"{v:.9f}" for v in w.point)
        return f"{head} at ({point}) lhs={w.lhs:.9f} rhs={w.rhs:.9f}"


def _report(pid: str, witness: Optional[tuple], count: int, note: str = "") -> PropertyReport:
    """PropertyReport from a _scan result: its witness tuple (or None) and count."""
    return PropertyReport(
        property_id=pid,
        status="fails" if witness is not None else "holds_on_grid",
        witness=None if witness is None else PropertyWitness(*witness),
        samples_checked=count,
        note=note,
    )


def pair_points(config: CheckConfig) -> Iterator[tuple[float, float]]:
    """The pair mesh point by point, in the order of numerics._sample_mesh(config, 2)."""
    grid = _axis(config, 2)
    for x in grid:
        for y in grid:
            yield float(x), float(y)
    r = random_points(config)
    for k in range(0, len(r) - 1, 2):
        yield float(r[k]), float(r[k + 1])


def triple_points(config: CheckConfig) -> Iterator[tuple[float, float, float]]:
    """The triple mesh point by point, in the order of numerics._sample_mesh(config, 3)."""
    grid = _axis(config, 3)
    for x in grid:
        for y in grid:
            for z in grid:
                yield float(x), float(y), float(z)
    r = random_points(config)
    for k in range(0, len(r) - 2, 3):
        yield float(r[k]), float(r[k + 1]), float(r[k + 2])


def check_unary_property(
    implication: Implication, prop: str, config: CheckConfig = DEFAULT_CONFIG
) -> PropertyReport:
    """Check NP, IP, LOP, ROP, or IB for one implication."""
    if prop not in UNARY_PROPERTIES:
        raise PreconditionError(f"unknown property {prop!r} (want one of {UNARY_PROPERTIES})")
    tol = config.eq_tol
    # IP and LOP compare with 1 by _apart too: |v - 1| is 1 - v exactly for v <= 1.
    relation, note = _apart(tol), ""

    def at_one(x, y):
        return _value(implication, x, y), 1.0

    if prop == "NP":
        samples = sorted_samples(config)
        points = (np.ones(len(samples)), samples)

        def sides(x, y):
            return _value(implication, x, y), y

    elif prop == "IP":
        samples = sorted_samples(config)
        points, sides = (samples, samples), at_one
    elif prop == "LOP":
        x, y = _sample_mesh(config, 2)
        points, sides = (x[x <= y], y[x <= y]), at_one
    elif prop == "ROP":
        x, y = _sample_mesh(config, 2)
        points, sides = (x[x > y], y[x > y]), at_one
        note = (
            "strict bound: values within eq_tol of 1 violate ROP; "
            "witness deviation is the distance to 1"
        )

        def relation(lhs, rhs):
            return lhs >= rhs - tol, rhs - lhs

    else:
        points = _sample_mesh(config, 2)

        def sides(x, y):
            inner = _value(implication, x, y)
            return _value(implication, x, inner), inner

    witness, count, _ = _scan_mesh(points, sides, relation)
    return _report(prop, witness, count, note)


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
    tol = config.eq_tol

    def sides(x, y, z):
        lhs = _value(implication, x, _value(implication, y, z))
        return lhs, _value(implication, y, _value(implication, x, z))

    if variant == "EP":
        relation, note = _apart(tol), ""
    else:
        note = "one side at 1 must force the other to 1"

        def relation(lhs, rhs):
            return (lhs >= 1.0 - tol) & (rhs < 1.0 - tol), 1.0 - rhs

    witness, count, _ = _scan_mesh(_sample_mesh(config, 3), sides, relation)
    return _report(variant, witness, count, note=note)


def check_contraposition(
    implication: Implication,
    negation: Negation,
    variant: str = "CP",
    config: CheckConfig = DEFAULT_CONFIG,
) -> PropertyReport:
    """Contraposition laws CP, LCP, RCP with respect to a given negation.

    Sides are compared at config.eq_tol; pass a config with a looser eq_tol
    when the negation itself is a bisection-backed numeric inverse.
    """
    if variant not in CP_VARIANTS:
        raise PreconditionError(f"unknown variant {variant!r} (want CP, LCP, or RCP)")
    i, n, v = implication, negation, _value
    sides = {
        "CP": lambda x, y: (v(i, x, y), v(i, v(n, y), v(n, x))),
        "LCP": lambda x, y: (v(i, v(n, x), y), v(i, v(n, y), x)),
        "RCP": lambda x, y: (v(i, x, v(n, y)), v(i, y, v(n, x))),
    }[variant]
    witness, count, _ = _scan_mesh(_sample_mesh(config, 2), sides, _apart(config.eq_tol))
    pid = {"CP": "CP", "LCP": "L-CP", "RCP": "R-CP"}[variant]
    return _report(pid, witness, count, note=f"negation {negation.label}")


@dataclass(frozen=True)
class Comparison:
    """Sup distance between two implications over the sampled pairs."""

    deviation: float
    at: tuple[float, float]
    lhs: float
    rhs: float
    samples_checked: int

    def as_dict(self) -> dict:
        return {
            "deviation": self.deviation,
            "at": list(self.at),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "samples_checked": self.samples_checked,
        }


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
