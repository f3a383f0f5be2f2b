"""Bisected residual implications against an exact bisection in rational arithmetic.

ro(O)(x, y) = sup{z : O(x, z) <= y} is bisected in float64, where O(x, z) <= y
is decided on rounded values. Here the same fixed-count bisection runs on
fractions.Fraction, where it is decided exactly. Its final bracket holds the
exact supremum, so each value that make_residual's array path gives on the
grid-21 pair square must lie within bisect_tol of every point of it. The
overlaps are written again below, from their definitions, so the oracle
shares no code with the library.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

import overlapkit as ok
from overlapkit.numerics import CheckConfig, iteration_count, uniform_grid

# Each catalog entry as an exact formula over Fractions, z the second argument.
_EXACT = {
    ("O_min", ()): lambda x, z: min(x, z),
    ("O_mM", ()): lambda x, z: min(x, z) * max(x * x, z * z),
    ("O_DB", ()): lambda x, z: 0 if x + z == 0 else 2 * x * z / (x + z),
    ("O_P", (("p", 1),)): lambda x, z: x * z,
    ("O_P", (("p", 2),)): lambda x, z: (x * z) ** 2,
    ("GO_max", ()): lambda x, z: max(0, x * x + z * z - 1),
}

# The one value farther than bisect_tol from the exact supremum: GO_max's float
# formula rounds 1 + z*z to 1 for z below about 1.05e-8, so at x = 1, y = 0 the
# float bisection climbs to 1.02e-8 while the supremum is 0 (ROADMAP item 12).
_FLAT = {("GO_max", 1.0, 0.0): float.fromhex("0x1.6p-27")}


def _exact_bracket(o, x: Fraction, y: Fraction, steps: int) -> tuple[Fraction, Fraction]:
    """_sup's result as an exact bracket: [1, 1] where O(x, 1) <= y, else the bisection's last [lo, hi]."""
    one = Fraction(1)
    if o(x, one) <= y:
        return one, one
    lo, hi = Fraction(0), one
    for _ in range(steps):
        mid = (lo + hi) / 2
        if o(x, mid) <= y:
            lo = mid
        else:
            hi = mid
    return lo, hi


def test_bisected_residuals_lie_within_bisect_tol_of_the_exact_bisection():
    config = CheckConfig(grid_resolution=21)
    tol = Fraction(config.bisect_tol)
    steps = iteration_count(config.bisect_tol)
    grid = uniform_grid(config)
    x, y = np.repeat(grid, len(grid)), np.tile(grid, len(grid))
    outside = {}
    for (name, params), o in _EXACT.items():
        values = ok.make_residual(ok.catalog(name, **dict(params)), config).values(x, y)
        for xi, yi, v in zip(x.tolist(), y.tolist(), values.tolist()):
            lo, hi = _exact_bracket(o, Fraction(xi), Fraction(yi), steps)
            if max(Fraction(v) - lo, hi - Fraction(v)) > tol:
                outside[(name, xi, yi)] = v
    assert outside == _FLAT
