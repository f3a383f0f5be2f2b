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
note. A side is a term of numerics._plan whose heads name the implication I
and the negation N, as the property is written: CP compares I(x, y) with
I(N(y), N(x)). A row needs a negation when N heads one of its terms.
check_property takes a report id or the same id without its hyphen (L-CP
or LCP) and runs the row on numerics._scan_rows, the one first-witness
scan, which evaluates the mesh as arrays in blocks doubling from 1024 up to
4096 points and reports the witness or error a point-by-point scan would.
check_properties runs several rows and returns what check_property returns
for each: the rows are grouped by the mesh they walk (IB, CP, L-CP and R-CP
the pair mesh, EP and EP1 the triple mesh, the others a mesh each), and
every group is scanned in one walk of all their meshes, each mesh in its
own doubling blocks. A row leaves the walk at its first witness, a mesh
when its rows or its points run out. If that raises anything, the rows run
one by one in the order asked.

On a round the terms of the rows still walking are evaluated once each per
mesh, a nesting level at a time, one joined call per connective and level
for all the meshes (numerics._plan): CP, L-CP and R-CP take one negation
call, on x and y joined, and one implication call; I(x, y), which CP
compares and IB nests, is computed once; EP and EP1 share all four
nestings in two calls; and NP, IP, LOP and ROP join the pair and triple
meshes' calls. A single point is evaluated as floats in the order the
sides are written.
check_unary_property, check_ep and check_contraposition only refuse an id
outside their group and call check_property.

NP and IP walk the sorted samples, LOP and ROP the pairs of
numerics._sample_mesh (the uniform grid mesh plus seeded random pairs)
with x <= y and x > y, each its own mesh, the other pairwise scans the
whole pair mesh, EP and EP1 the triple mesh on the reduced grid of
numerics._axis (21 points) plus random triples. A row's mesh is built
once per config (_walked). pair_points and triple_points yield the points
of those meshes as Python floats, in numerics._sample_mesh's order, so
they too refuse a mesh of more than numerics.MAX_GRID_POINTS points.
compare evaluates the whole pair mesh with numerics._mesh_values,
range_is_proper the sample square with numerics._tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .implications import Implication
from .negations import Negation
from .numerics import (
    DEFAULT_CONFIG,
    CheckConfig,
    PreconditionError,
    _apart,
    _heads,
    _mesh_values,
    _Record,
    _sample_mesh,
    _scalar_points,
    _scan_rows,
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
    """PropertyReport from a numerics._scan_rows result: its witness tuple (or None) and count."""
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

    mesh(config) gives the columns to scan, sides the (lhs, rhs) terms
    (numerics._plan) over the heads I, the implication, and N, the
    negation, relation(eq_tol) the test of a point and
    note.format(negation) the report's note.
    """

    mesh: Callable[[CheckConfig], tuple]
    sides: tuple
    relation: Callable[[float], Callable] = _apart
    note: str = ""


def _pairs_where(keep: Callable, config: CheckConfig) -> tuple[np.ndarray, np.ndarray]:
    """The pair mesh at the points where keep(x, y) holds."""
    x, y = _sample_mesh(config, 2)
    mask = keep(x, y)
    return x[mask], y[mask]


_pairs = partial(_sample_mesh, arity=2)
_triples = partial(_sample_mesh, arity=3)
_BY_NEGATION = "negation {0.label}"
# IP, LOP and ROP compare I(x, y) with 1. By _apart (IP and LOP), |v - 1| is 1 - v exactly for v <= 1.
_AT_ONE = (("I", "x", "y"), 1.0)
_EXCHANGED = (("I", "x", ("I", "y", "z")), ("I", "y", ("I", "x", "z")))

_PROPERTIES = {
    "NP": _Property(lambda c: np.broadcast_arrays(1.0, sorted_samples(c)), (("I", "x", "y"), "y")),
    "IP": _Property(lambda c: (sorted_samples(c),) * 2, _AT_ONE),
    "LOP": _Property(partial(_pairs_where, np.less_equal), _AT_ONE),
    "ROP": _Property(
        partial(_pairs_where, np.greater),
        _AT_ONE,
        lambda tol: lambda lhs, rhs: (lhs >= rhs - tol, rhs - lhs),
        "strict bound: values within eq_tol of 1 violate ROP; witness deviation is the distance to 1",
    ),
    "IB": _Property(_pairs, (("I", "x", ("I", "x", "y")), ("I", "x", "y"))),
    "EP": _Property(_triples, _EXCHANGED),
    "EP1": _Property(
        _triples,
        _EXCHANGED,
        lambda tol: lambda lhs, rhs: ((lhs >= 1.0 - tol) & (rhs < 1.0 - tol), 1.0 - rhs),
        "one side at 1 must force the other to 1",
    ),
    "CP": _Property(_pairs, (("I", "x", "y"), ("I", ("N", "y"), ("N", "x"))), note=_BY_NEGATION),
    "L-CP": _Property(_pairs, (("I", ("N", "x"), "y"), ("I", ("N", "y"), "x")), note=_BY_NEGATION),
    "R-CP": _Property(_pairs, (("I", "x", ("N", "y")), ("I", "y", ("N", "x"))), note=_BY_NEGATION),
}


# The rows that need a negation: N heads one of their terms.
_NEGATED = {pid for pid, row in _PROPERTIES.items() if "N" in _heads(*row.sides)}

# Each report id without its hyphen -> the report id.
_UNHYPHENATED = {pid.replace("-", ""): pid for pid in _PROPERTIES}


def _property_id(prop: str) -> str:
    """The report id of prop, written as one or without its hyphen; PreconditionError for any other name."""
    pid = _UNHYPHENATED.get(prop, prop)
    if pid not in _PROPERTIES:
        raise PreconditionError(f"unknown property {prop!r} (want one of {list(_UNHYPHENATED)})")
    return pid


@lru_cache(maxsize=16)
def _walked(pid: str, config: CheckConfig) -> tuple:
    """The columns row pid walks, read-only; cached like numerics._sample_mesh, as a search scans one row often."""
    cols = _PROPERTIES[pid].mesh(config)
    for col in cols:
        col.setflags(write=False)
    return cols


def _scan(implication: Implication, groups: list, negation: Optional[Negation], config: CheckConfig) -> list:
    """The reports of the rows of groups, lists of ids of rows sharing a mesh, from one walk of all their meshes.

    The walk is numerics._scan_rows; the reports come in the order of the
    groups and their rows.
    """
    meshes, pids = [], []
    for group in groups:
        rows = [(_PROPERTIES[pid].sides, _PROPERTIES[pid].relation(config.eq_tol)) for pid in group]
        meshes.append((_walked(group[0], config), rows))
        pids += group
    for pid in pids if negation is None else ():
        if pid in _NEGATED:
            raise PreconditionError(f"{pid} needs a negation")
    results = _scan_rows(meshes, {"I": implication, "N": negation})
    return [_report(pid, w, n, _PROPERTIES[pid].note.format(negation)) for pid, (w, n, _) in zip(pids, results)]


def check_property(
    implication: Implication, prop: str, negation: Optional[Negation] = None, config: CheckConfig = DEFAULT_CONFIG
) -> PropertyReport:
    """Scan one property, named by its report id or the id without its hyphen (L-CP or LCP).

    CP, L-CP and R-CP evaluate the negation, so they refuse a missing one;
    the other properties ignore it.
    """
    (report,) = _scan(implication, [[_property_id(prop)]], negation, config)
    return report


def check_properties(
    implication: Implication, pids, negation: Optional[Negation] = None, config: CheckConfig = DEFAULT_CONFIG
) -> list[PropertyReport]:
    """[check_property(implication, pid, negation, config) for pid in pids], walking every mesh once.

    The rows are grouped by the mesh they walk, and all the groups are
    scanned in one walk (numerics._scan_rows): each round takes the next
    block of every mesh still walking, evaluates the terms of all the rows
    still walking with one call per connective and level, and a row drops
    out at its first witness. If that raises anything, the rows are run one
    by one in the order of pids, so the reports, or the error, are those
    of the one-by-one calls. pids may name a row twice, and is read once,
    so it may be any iterable.
    """
    pids = list(pids)
    try:
        ids = [_property_id(pid) for pid in pids]
        groups: dict = {}
        for pid in dict.fromkeys(ids):
            groups.setdefault(_PROPERTIES[pid].mesh, []).append(pid)
        walked = [pid for group in groups.values() for pid in group]
        reports = dict(zip(walked, _scan(implication, list(groups.values()), negation, config)))
        return [reports[pid] for pid in ids]
    except Exception:
        # Whatever raised, row by row raises what check_property raises, at the row that meets it.
        return [check_property(implication, pid, negation, config) for pid in pids]


def check_unary_property(
    implication: Implication, prop: str, config: CheckConfig = DEFAULT_CONFIG
) -> PropertyReport:
    """Check NP, IP, LOP, ROP, or IB for one implication."""
    if prop not in UNARY_PROPERTIES:
        raise PreconditionError(f"unknown property {prop!r} (want one of {UNARY_PROPERTIES})")
    return check_property(implication, prop, config=config)


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
    return check_property(implication, variant, config=config)


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
    return check_property(implication, variant, negation, config)


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
