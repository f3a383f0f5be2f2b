"""Implication constructors, their natural negations, and crisp classification.

Families built here (labels follow the CLI grammar):

* gon(GO, N): N(GO(x, N(y))), the residuated-negation composite over a
  conjunctive connective that need not have a neutral element.
* gn(G, N): G(N(x), y), the disjunction/negation composite.
* ql(O, G): the two-branch form G(0, O(1,y)) at x = 1, else 1.
* ro(O): the residual sup{z : O(x,z) <= y}, computed by bisection.
* d(G): G(0, y) at x = 1, else 1.
* tn(T, N): N(T(x, N(y))) with T claimed to be a t-norm.
* crisp(kind, alpha, beta): the four two-valued threshold families C1-C4.

check_implication_axioms verifies the defining conditions on the grid:
antitone in the first argument (I1), isotone in the second (I2), and the
corner values I(0,0) = 1 (I3), I(1,1) = 1 (I4), I(1,0) = 0 (I5). They are
the "I" rows of the axiom table conjunctors._AXIOMS, run by the same
runner as the connective axiom sets. Corner checks use eq_tol so
bisection-backed residuals are not penalized for their final-bracket width.

classify_crisp inverts the crisp construction: when an implication is
two-valued on the sample mesh it bisects the zero-region boundary, snaps the
thresholds to nearby sample points, decides strict vs non-strict by
evaluating at the candidate itself, and accepts a fit only when the fitted
family reproduces the implication on the whole mesh.

One builder makes the composite families: _composite(family, fn, *parts)
marks fn vectorized and labels the result family(part labels) from the
(key, part) pairs it also records as parts, so gon, tn, gn, ql, ro and d
each state only their role check (_require) and their formula. gon, tn and
recover_go share one formula, _negated(C, N) = N(C(x, N(y))); recover_go
passes N^{-1} for N. crisp and aggregation.aggregate build their own
records, since their labels are not family(part labels).

Every constructor attaches one function, written once over numerics: the
compositions (gon, tn, gn, ql, d, the natural negation and the recovered
connective) over numerics._value, ql and d through the lazy
numerics._branch, ro over numerics._sup, which bisects a point or a mesh,
and the crisp family over numerics._where. So the same body evaluates a
point on floats and a mesh on arrays, through the call and values() of
numerics._Connective that Implication shares with Negation and
FusionFunction. The I1/I2 grid (numerics._tensor) and the two mesh scans
of classify_crisp run on arrays; the I3-I5 corners and the threshold
bisections are point queries and stay scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .conjunctors import ROLES, AxiomReport, FusionFunction, _check_set
from .negations import Negation, _require_negation, inverse_negation
from .numerics import (
    DEFAULT_CONFIG,
    CheckConfig,
    PreconditionError,
    _Connective,
    _apart,
    _branch,
    _bracket,
    _number,
    _product_mesh,
    _scan_rows,
    _sup,
    _value,
    _vectorized,
    _where,
    sorted_samples,
)

FAMILIES = ("gon", "gn", "ql", "ro", "d", "tn", "crisp", "agg")

# kind: (x compared strictly with alpha, y compared strictly with beta). The
# admissible thresholds follow: alpha in [0, 1) when x is compared strictly,
# else (0, 1]; beta in (0, 1] when y is compared strictly, else [0, 1).
_CRISP_STRICT = {"C1": (False, False), "C2": (True, True), "C3": (False, True), "C4": (True, False)}
CRISP_KINDS = tuple(_CRISP_STRICT)


@dataclass(frozen=True, eq=False)
class Implication(_Connective):
    """A binary map on [0,1]^2 built by one of the named constructors.

    family records which constructor produced it and parts holds the operand
    objects, so reports can trace an implication back to its ingredients.
    Calls and values() follow the one contract of numerics._Connective;
    arrays go point by point through the call when fn is not marked
    numerics._vectorized (a user function, or an object rebuilt with
    dataclasses.replace).
    """

    arity = 2

    fn: Callable[[float, float], float]
    label: str
    family: str
    parts: tuple = ()
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise PreconditionError(f"unknown implication family {self.family!r}")

    __call__ = _Connective.__call__


class CrispFit(NamedTuple):
    """Threshold family recovered by classify_crisp."""

    kind: str
    alpha: float
    beta: float


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def _require(f: FusionFunction, who: str, roles=(), what: str = "") -> None:
    """Refuse f unless it is a binary FusionFunction and, when roles are given, its role is one of them."""
    if not isinstance(f, FusionFunction) or f.arity != 2:
        raise PreconditionError(f"{who} needs a binary FusionFunction")
    if roles and f.role not in roles:
        raise PreconditionError(f"{who} needs {what}")


def _composite(family: str, fn: Callable, *parts: tuple, params: tuple = ()) -> Implication:
    """The family's implication with formula fn over parts, (key, object) pairs, labelled family(labels)."""
    return Implication(
        fn=_vectorized(fn),
        label=f"{family}({', '.join(part.label for _, part in parts)})",
        family=family,
        parts=parts,
        params=params,
    )


def _negated(c, n) -> Callable:
    """(x, y) -> N(C(x, N(y))): gon and tn with their N, recover_go with N^{-1}."""

    def fn(x, y, _c=c, _n=n):
        return _value(_n, _value(_c, x, _value(_n, y)))

    return fn


def make_gon(go: FusionFunction, negation: Negation) -> Implication:
    """I(x,y) = N(GO(x, N(y))) for a binary conjunctive connective GO.

    GO does not need a neutral element; that freedom is what distinguishes
    this family from tn. Any binary non-grouping connective is accepted.
    """
    _require(go, "make_gon", [r for r in ROLES if r != "grouping"], "a conjunctive connective, not a grouping")
    _require_negation(negation, "make_gon")
    return _composite("gon", _negated(go, negation), ("go", go), ("negation", negation))


def make_gn(grouping: FusionFunction, negation: Negation) -> Implication:
    """I(x,y) = G(N(x), y) for a binary grouping function G."""
    _require(grouping, "make_gn", ("grouping",), "a grouping function")
    _require_negation(negation, "make_gn")

    def fn(x, y, _g=grouping, _n=negation):
        return _value(_g, _value(_n, x), y)

    return _composite("gn", fn, ("grouping", grouping), ("negation", negation))


def make_ql(overlap: FusionFunction, grouping: FusionFunction) -> Implication:
    """Two-branch quantum-logic style form: G(0, O(1,y)) if x = 1, else 1.

    Only this specialization is exposed; with other negations the shape
    fails the implication axioms and is deliberately not constructible here.
    Both operands' arity is checked before either role.
    """
    _require(overlap, "make_ql")
    _require(grouping, "make_ql")
    _require(overlap, "make_ql", ("overlap", "general_overlap"), "an overlap-role connective")
    _require(grouping, "make_ql", ("grouping",), "a grouping function")

    def fn(x, y, _o=overlap, _g=grouping):
        return _branch(x == 1.0, lambda ys: _value(_g, 0.0, _value(_o, 1.0, ys)), 1.0, y)

    return _composite("ql", fn, ("overlap", overlap), ("grouping", grouping))


def make_residual(overlap: FusionFunction, config: CheckConfig = DEFAULT_CONFIG) -> Implication:
    """Residual implication sup{z : O(x,z) <= y} via monotone bisection.

    Relies on O being continuous and increasing in z so the admissible set
    is a closed initial segment and the supremum is attained. O(x,0) = 0
    guarantees the set is nonempty; a connective violating that surfaces as
    a precondition error at evaluation time.
    """
    _require(overlap, "make_residual", ("overlap", "general_overlap", "t_norm"), "a conjunctive connective")
    tol = config.bisect_tol

    def fn(x, y, _o=overlap, _tol=tol):
        return _sup(lambda xs, ys, z: _value(_o, xs, z) <= ys, _tol, x, y)

    return _composite("ro", fn, ("overlap", overlap), params=(("bisect_tol", tol),))


def make_d(grouping: FusionFunction) -> Implication:
    """Two-branch disjunctive form: G(0, y) if x = 1, else 1."""
    _require(grouping, "make_d", ("grouping",), "a grouping function")

    def fn(x, y, _g=grouping):
        return _branch(x == 1.0, lambda ys: _value(_g, 0.0, ys), 1.0, y)

    return _composite("d", fn, ("grouping", grouping))


def make_tn(tnorm: FusionFunction, negation: Negation) -> Implication:
    """I(x,y) = N(T(x, N(y))) where the caller claims T passes T1-T3.

    The claim is not re-verified here; run check_axioms(T, "T") to audit it.
    """
    _require(tnorm, "make_tn", [r for r in ROLES if r != "grouping"], "a conjunctive connective, not a grouping")
    _require_negation(negation, "make_tn")
    return _composite("tn", _negated(tnorm, negation), ("tnorm", tnorm), ("negation", negation))


def make_crisp_family(kind: str, alpha: float, beta: float) -> Implication:
    """Two-valued threshold implications, zero exactly on one corner region.

    C1: 0 iff x >= alpha and y <= beta   (alpha in (0,1], beta in [0,1))
    C2: 0 iff x >  alpha and y <  beta   (alpha in [0,1), beta in (0,1])
    C3: 0 iff x >= alpha and y <  beta   (alpha, beta in (0,1])
    C4: 0 iff x >  alpha and y <= beta   (alpha, beta in [0,1))
    """
    if kind not in CRISP_KINDS:
        raise PreconditionError(f"unknown crisp kind {kind!r} (want C1..C4)")
    a, b = float(alpha), float(beta)
    x_strict, y_strict = _CRISP_STRICT[kind]
    a_ok = 0.0 <= a < 1.0 if x_strict else 0.0 < a <= 1.0
    b_ok = 0.0 < b <= 1.0 if y_strict else 0.0 <= b < 1.0
    if not (a_ok and b_ok):
        raise PreconditionError(f"parameters ({a:g}, {b:g}) out of range for {kind}")

    def fn(x, y, _a=a, _b=b, _xs=x_strict, _ys=y_strict):
        in_x = x > _a if _xs else x >= _a
        in_y = y < _b if _ys else y <= _b
        return _where(in_x & in_y, 0.0, 1.0)

    return Implication(
        fn=_vectorized(fn),
        label=f"crisp({kind}, {_number(a)}, {_number(b)})",
        family="crisp",
        params=(("alpha", a), ("beta", b)),
        parts=(("kind", kind),),
    )


# ---------------------------------------------------------------------------
# Derived objects
# ---------------------------------------------------------------------------


def natural_negation(implication: Implication) -> Negation:
    """The unary trace x -> I(x, 0), wrapped with no class claims.

    Classify it numerically; when the source connective has neutral element
    1, the trace of gon(GO, N) recovers N itself.
    """
    def fn(x, _i=implication):
        return _value(_i, x, 0.0)

    return Negation(fn=_vectorized(fn), label=f"nat({implication.label})")


def recover_go(
    implication: Implication,
    negation: Negation,
    config: CheckConfig = DEFAULT_CONFIG,
) -> FusionFunction:
    """Invert the gon construction: (x,y) -> N^{-1}(I(x, N^{-1}(y))).

    Needs a strict negation for the numeric inverse to exist. For
    I = make_gon(GO, N) the result is within twice the bisection tolerance
    of GO only where N^{-1} is well conditioned in floats: at grid 21 with
    40 samples, for zadeh and power:p with p in [0.75, 2] (worst 5.7e-9
    over the binary catalog). For power:p, 1 - v**p rounds to 1 once
    v**p < 2**-53: O_P:p=2 deviates 5e-7 at power:3, O_mM 5e-4 at
    (0.05, 0.1) at power:5 and 9.0e-3 at (0.1, 0.3) at power:8. Near
    (1, 1), GO_TL:p=2 deviates 4e-8 at power:0.5 and 3.5e-6 at power:0.3.
    """
    if not getattr(negation, "is_strict", False):
        raise PreconditionError("recover_go requires a strict negation")
    inv = inverse_negation(negation, config.bisect_tol)

    return FusionFunction(
        fn=_vectorized(_negated(implication, inv)),
        arity=2,
        role="general_overlap",
        label=f"recovered({implication.label})",
    )


# ---------------------------------------------------------------------------
# Axioms and crisp classification
# ---------------------------------------------------------------------------


def check_implication_axioms(
    implication: Implication, config: CheckConfig = DEFAULT_CONFIG
) -> AxiomReport:
    """Grid check of I1-I5 for one implication.

    Monotonicity uses running extrema so every grid pair is covered, not
    just neighbors; corner identities are compared within eq_tol.
    """
    return _check_set(implication, "I", config)


def _snap_candidates(pred: Callable[[float], bool], samples) -> Optional[list[float]]:
    """Bisect the boundary of a monotone true-then-false predicate on [0,1].

    Returns candidate threshold locations: sample points falling inside the
    final bracket first (a threshold sitting on a sample point should be
    reported as that point, not as an endpoint a rounding error away), then
    the bracket endpoints. None when pred never turns false.
    """
    if not pred(0.0) or pred(1.0):
        return None
    lo, hi = _bracket(pred, 1e-12)
    pad = 1e-9
    snapped = sorted({float(s) for s in samples if lo - pad <= float(s) <= hi + pad})
    # Prefer the endpoint with the terser repr: when the boundary sits on an
    # exactly representable value (dyadic thresholds hit by the bisection),
    # that endpoint is the true switch point and the other is off by one
    # final-bracket width.
    endpoints = sorted({lo, hi} - set(snapped), key=lambda v: (len(repr(v)), v))
    return snapped + endpoints


def classify_crisp(
    implication: Implication, config: CheckConfig = DEFAULT_CONFIG
) -> Optional[CrispFit]:
    """Fit a two-valued implication to one of the threshold families C1-C4.

    Returns None as soon as an interior value shows the range is not
    {0, 1}. Otherwise the zero region is a corner set {x over alpha} x
    {y under beta}; both thresholds are bisected along the y = 0 and x = 1
    edges, strictness is read off by evaluating at the threshold itself,
    and the fit is accepted only if the reconstructed family agrees with
    the input everywhere on the sample mesh.
    """
    samples = [float(s) for s in sorted_samples(config)]
    mesh = _product_mesh(sorted_samples(config), 2)
    tol = config.eq_tol
    value = ("I", "x", "y")
    two_valued = ((value, value), lambda v, _: ((v > tol) & (v < 1.0 - tol), np.minimum(v, 1.0 - v)))
    ((off_level, _, _),) = _scan_rows([(mesh, [two_valued])], {"I": implication})
    if off_level is not None:
        return None

    a_cands = _snap_candidates(lambda x: float(implication(x, 0.0)) > 0.5, samples)
    b_cands = _snap_candidates(lambda y: float(implication(1.0, y)) < 0.5, samples)
    if a_cands is None or b_cands is None:
        return None

    for a in a_cands:
        x_strict = float(implication(a, 0.0)) > 0.5
        for b in b_cands:
            y_strict = float(implication(1.0, b)) >= 0.5
            kind = next(k for k, strict in _CRISP_STRICT.items() if strict == (x_strict, y_strict))
            try:
                fitted = make_crisp_family(kind, a, b)
            except PreconditionError:
                continue
            ((witness, _, _),) = _scan_rows([(mesh, [_agreement(tol)])], {"I": implication, "J": fitted})
            if witness is None:
                return CrispFit(kind=kind, alpha=a, beta=b)
    return None


def _agreement(tol: float) -> tuple:
    """The row of I(x, y) against J(x, y) within tol, for classify_crisp's fit and aggregation.check_commutes."""
    return (("I", "x", "y"), ("J", "x", "y")), _apart(tol)

