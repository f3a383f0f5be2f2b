"""Aggregating families of connectives, and commutation with the gon form.

An operator family is an ordered list of same-arity connectives; applying an
n-ary aggregation A across the family's outputs yields a new connective of
the members' arity. Aggregating general overlaps with a continuous A gives a
general overlap again, and for a strong negation N the two routes

    aggregate the implications gon(GO_i, N)
    build gon(aggregate_go(dual(A, N), GO_i), N)

agree pointwise; check_commutes verifies that equality on the grid without
collapsing the two routes into one formula.

The aggregations are one formula each over the numerics primitives, and
aggregate one body over numerics._value: a point on floats, a mesh on arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conjunctors import FusionFunction, check_axioms, continuity_heuristic, dual
from .implications import Implication, _agreement, make_gon
from .negations import Negation, classify
from .numerics import (
    DEFAULT_CONFIG,
    CheckConfig,
    PreconditionError,
    _fsum,
    _max,
    _min,
    _prod,
    _sample_mesh,
    _scan_rows,
    _value,
    _vectorized,
)
from .properties import PropertyReport, _report

# The shipped aggregations, name -> formula over the numerics primitives.
_AGGREGATIONS = {
    "mean": lambda *xs: _fsum(*xs) / len(xs),
    "min": lambda *xs: _min(*xs),
    "max": lambda *xs: _max(*xs),
    "product": lambda *xs: _prod(*xs),
}
AGGREGATION_NAMES = tuple(_AGGREGATIONS)


def make_aggregation(name: str, arity: int = 2) -> FusionFunction:
    """One of the shipped aggregations: mean, min, max, product.

    All four are increasing, continuous, and map the all-zero and all-one
    corners to 0 and 1. mean with arity 1 doubles as the identity.
    """
    if arity < 1:
        raise PreconditionError("aggregation arity must be >= 1")
    if name not in _AGGREGATIONS:
        raise PreconditionError(f"unknown aggregation {name!r} (want one of {AGGREGATION_NAMES})")
    return FusionFunction(fn=_vectorized(_AGGREGATIONS[name]), arity=arity, role="aggregation", label=name)


@dataclass(frozen=True, eq=False)
class OperatorFamily:
    """Ordered, nonempty family of connectives sharing one arity.

    Members are either all fusion functions or all implications; the two
    kinds aggregate to the corresponding kind.
    """

    members: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise PreconditionError("an operator family needs at least one member")
        kinds = {type(m).__name__ for m in self.members}
        if any(not isinstance(m, (FusionFunction, Implication)) for m in self.members):
            raise PreconditionError(f"unsupported family member types {sorted(kinds)}")
        if len(kinds) > 1:
            raise PreconditionError("family members must all be the same kind")
        if len({m.arity for m in self.members}) > 1:
            raise PreconditionError("family members must share one arity")

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def arity(self) -> int:
        return self.members[0].arity

    @property
    def kind(self) -> str:
        return "fusion" if isinstance(self.members[0], FusionFunction) else "implication"

    @property
    def label(self) -> str:
        return ", ".join(m.label for m in self.members)


def aggregate(agg: FusionFunction, family: OperatorFamily):
    """Compose: (x_1..x_k) -> A(F_1(x), ..., F_n(x)).

    A's arity must equal the family size. Implication families yield an
    Implication, fusion families a FusionFunction with the neutral
    aggregation role (retag or audit it before using it as something
    stronger).
    """
    if not isinstance(agg, FusionFunction):
        raise PreconditionError("aggregate needs a FusionFunction aggregation")
    if agg.arity != family.size:
        raise PreconditionError(
            f"aggregation arity {agg.arity} does not match family size {family.size}"
        )
    members = family.members
    label = f"agg({agg.label}; {family.label})"

    def fn(*xs, _a=agg, _ms=members):
        return _value(_a, *[_value(m, *xs) for m in _ms])

    if family.kind == "implication":
        return Implication(
            fn=_vectorized(fn),
            label=label,
            family="agg",
            parts=(("aggregation", agg), ("members", members)),
        )
    return FusionFunction(fn=_vectorized(fn), arity=family.arity, role="aggregation", label=label)


def aggregate_go(
    agg: FusionFunction, family: OperatorFamily, config: CheckConfig = DEFAULT_CONFIG
) -> FusionFunction:
    """Aggregate general overlaps into a general overlap.

    Every member must pass the GO axiom check and the aggregation must pass
    the continuity heuristic; the result then carries the general_overlap
    role legitimately.
    """
    if family.kind != "fusion":
        raise PreconditionError("aggregate_go needs a family of fusion functions")
    cont = continuity_heuristic(agg, config)
    if not cont.passed:
        raise PreconditionError(
            f"aggregation {agg.label} fails the continuity heuristic at {cont.witness}"
        )
    for member in family.members:
        report = check_axioms(member, "GO", config)
        if not report.passed:
            failed = [c.axiom for c in report.checks if not c.passed and not c.informational]
            raise PreconditionError(f"{member.label} fails GO axioms {failed}")
    return aggregate(agg, family).with_role("general_overlap")


def check_commutes(
    agg: FusionFunction,
    gos: OperatorFamily,
    negation: Negation,
    config: CheckConfig = DEFAULT_CONFIG,
) -> PropertyReport:
    """Compare the two constructions described in the module docstring.

    The negation must classify as strong (involutive), since the equality
    hinges on N undoing itself. Both routes are built independently and
    compared on the pair mesh up to the first point where they differ by
    more than eq_tol. The note holds the largest deviation seen: over the
    whole mesh when the routes agree, up to and including that first
    witness when not.
    """
    cls = classify(negation, config)
    if not cls.is_strong:
        raise PreconditionError(
            f"check_commutes requires a strong negation; {negation.label} is not"
        )
    if gos.kind != "fusion" or gos.arity != 2:
        raise PreconditionError("check_commutes needs a family of binary fusion functions")

    implication_route = aggregate(
        agg, OperatorFamily(tuple(make_gon(go, negation) for go in gos.members))
    )
    connective_route = make_gon(aggregate_go(dual(agg, negation), gos, config), negation)

    env = {"I": implication_route, "J": connective_route}
    ((witness, count, worst),) = _scan_rows([(_sample_mesh(config, 2), [_agreement(config.eq_tol)])], env)
    return _report(
        "commutes",
        witness,
        count,
        note=f"{implication_route.label} vs {connective_route.label}; max deviation {worst:.3g}",
    )
