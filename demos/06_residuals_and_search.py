"""Residual implications by bisection, and parameter counterexample search.

The residual of a continuous increasing conjunction is the largest z
with O(x, z) <= y. The package computes it by fixed-count bisection, so
closed-form residuals make good oracles for the numeric machinery.
"""

import numpy as np

import overlapkit as ok


def main() -> None:
    print("== residual of the product (rational closed form) ==")
    goguen = ok.make_residual(ok.catalog("O_P", p=1))
    print("I(x, y) should be 1 when x <= y and y/x otherwise:")
    for x, y in ((0.5, 0.2), (0.2, 0.5), (0.8, 0.6), (1.0, 0.0)):
        closed = 1.0 if x <= y else y / x
        print(f"  I({x}, {y}) = {float(goguen(x, y)):.9f} (closed form {closed:.9f})")

    print()
    print("== residual of the minimum (step closed form) ==")
    godel = ok.make_residual(ok.catalog("O_min"))
    for x, y in ((0.7, 0.3), (0.3, 0.7), (0.5, 0.5)):
        closed = 1.0 if x <= y else y
        print(f"  I({x}, {y}) = {float(godel(x, y)):.9f} (closed form {closed:.9f})")

    print()
    print("== residuals break left contraposition ==")
    rep = ok.check_property(goguen, "LCP", ok.make_standard())
    print(rep.summary())

    print()
    print("== searching a parameter range for a property violation ==")
    print("powered products keep the exchange principle only at p = 1,")
    print("where the product is associative:")
    for p in np.linspace(1.0, 2.0, 5):
        imp = ok.make_gon(ok.catalog("O_P", p=float(p)), ok.make_standard())
        rep = ok.check_property(imp, "EP")
        state = "holds" if rep.holds else f"fails at {rep.witness.point}"
        print(f"  p = {p:.2f}: {state}")

    print()
    print("the same sweep is one CLI call:")
    print('  overlapkit search "gon(O_P:p={}, zadeh)" --prop EP --range 1 2 --steps 5')


if __name__ == "__main__":
    main()
