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
deterministic; every property scan runs on the kernel numerics._scan.
Pairwise scans walk the uniform grid mesh plus seeded random pairs; triple
scans (EP/EP1) use a reduced 21-point mesh plus random triples to stay at
desk scale.
"""

from __future__ import annotations

import itertools
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
    _scan,
    random_points,
    sorted_samples,
    uniform_grid,
)

UNARY_PROPERTIES = ("NP", "IP", "LOP", "ROP", "IB")
EP_VARIANTS = ("EP", "EP1")
CP_VARIANTS = ("CP", "LCP", "RCP")

EP_GRID_RESOLUTION = 21


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
    grid = uniform_grid(config)
    for x in grid:
        for y in grid:
            yield float(x), float(y)
    r = random_points(config)
    for k in range(0, len(r) - 1, 2):
        yield float(r[k]), float(r[k + 1])


def triple_points(config: CheckConfig) -> Iterator[tuple[float, float, float]]:
    grid = np.linspace(0.0, 1.0, EP_GRID_RESOLUTION)
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

    def at_one(p: tuple) -> tuple[float, float]:
        return float(implication(*p)), 1.0

    if prop == "NP":
        points = ((1.0, float(y)) for y in sorted_samples(config))

        def sides(p: tuple) -> tuple[float, float]:
            return float(implication(*p)), p[1]

    elif prop == "IP":
        points, sides = ((float(x), float(x)) for x in sorted_samples(config)), at_one
    elif prop == "LOP":
        points, sides = (p for p in pair_points(config) if p[0] <= p[1]), at_one
    elif prop == "ROP":
        points, sides = (p for p in pair_points(config) if p[0] > p[1]), at_one
        note = (
            "strict bound: values within eq_tol of 1 violate ROP; "
            "witness deviation is the distance to 1"
        )

        def relation(lhs: float, rhs: float) -> tuple[bool, float]:
            return lhs >= rhs - tol, rhs - lhs

    else:
        points = pair_points(config)

        def sides(p: tuple) -> tuple[float, float]:
            inner = float(implication(*p))
            return float(implication(p[0], inner)), inner

    witness, count, _ = _scan(points, sides, relation)
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

    def sides(p: tuple) -> tuple[float, float]:
        x, y, z = p
        lhs = float(implication(x, float(implication(y, z))))
        return lhs, float(implication(y, float(implication(x, z))))

    if variant == "EP":
        relation, note = _apart(tol), ""
    else:
        note = "one side at 1 must force the other to 1"

        def relation(lhs: float, rhs: float) -> tuple[bool, float]:
            return lhs >= 1.0 - tol and rhs < 1.0 - tol, 1.0 - rhs

    witness, count, _ = _scan(triple_points(config), sides, relation)
    return _report(variant, witness, count, note=note)


def check_contraposition(
    implication: Implication,
    negation: Negation,
    variant: str = "CP",
    config: CheckConfig = DEFAULT_CONFIG,
    tol: Optional[float] = None,
) -> PropertyReport:
    """Contraposition laws CP, LCP, RCP with respect to a given negation.

    tol overrides eq_tol; pass a looser bound when the negation itself is a
    bisection-backed numeric inverse.
    """
    if variant not in CP_VARIANTS:
        raise PreconditionError(f"unknown variant {variant!r} (want CP, LCP, or RCP)")
    budget = config.eq_tol if tol is None else float(tol)
    i, n = implication, negation
    sides = {
        "CP": lambda p: (float(i(*p)), float(i(float(n(p[1])), float(n(p[0]))))),
        "LCP": lambda p: (float(i(float(n(p[0])), p[1])), float(i(float(n(p[1])), p[0]))),
        "RCP": lambda p: (float(i(p[0], float(n(p[1])))), float(i(p[1], float(n(p[0]))))),
    }[variant]
    witness, count, _ = _scan(pair_points(config), sides, _apart(budget))
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
    # zip stops at the end of the mesh without drawing from seen, so the
    # next number seen gives is the count of pairs compared.
    seen = itertools.count()
    rows = ((p, float(i1(*p)), float(i2(*p))) for p, _ in zip(pair_points(config), seen))
    at, lhs, rhs = max(rows, key=lambda row: abs(row[1] - row[2]))
    return Comparison(deviation=abs(lhs - rhs), at=at, lhs=lhs, rhs=rhs, samples_checked=next(seen))


def range_is_proper(implication: Implication, config: CheckConfig = DEFAULT_CONFIG) -> bool:
    """True when the sampled image leaves a gap wider than 2/grid_resolution.

    The image is taken over the full sample mesh (uniform grid plus random
    points in both coordinates); a uniform grid alone can overstate gaps for
    implications whose level sets are diagonal.
    """
    samples = [float(s) for s in sorted_samples(config)]
    values = sorted(
        float(implication(x, y)) for x in samples for y in samples
    )
    threshold = 2.0 / config.grid_resolution
    if values[0] - 0.0 > threshold or 1.0 - values[-1] > threshold:
        return True
    for a, b in zip(values, values[1:]):
        if b - a > threshold:
            return True
    return False
