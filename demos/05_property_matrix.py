"""Property profiles of implication instances, including the built-in matrix.

The property checkers scan the sample mesh and either report a first
witness or certify the property on the grid. The built-in five-instance
matrix (also available as `overlapkit table2`) summarizes how the
property profile shifts with the negation class.
"""

import overlapkit as ok
from overlapkit.cli import TABLE2_PROPERTIES, table2_instances


def main() -> None:
    nz = ok.make_standard()

    print("== one instance in detail ==")
    imp = ok.make_gon(ok.catalog("O_min"), ok.make_crisp("upper", 0.5))
    print(f"{imp.label}:")
    for prop in ("NP", "IP", "LOP", "ROP", "IB"):
        print(f"  {ok.check_unary_property(imp, prop).summary()}")
    print(f"  {ok.check_ep(imp, 'EP').summary()}")

    print()
    print("== exchange tracks associativity ==")
    for name, params in (("O_min", {}), ("GO_max", {}), ("O_P", {"p": 2})):
        go = ok.catalog(name, **params)
        assoc = ok.check_associativity(go).passed
        ep = ok.check_ep(ok.make_gon(go, nz), "EP").holds
        print(f"{go.label:<8} associative: {str(assoc):<6} exchange: {ep}")

    print()
    print("== left neutrality tracks the neutral element ==")
    for name in ("O_min", "O_mM", "O_V", "O_DB"):
        go = ok.catalog(name)
        neutral = ok.find_neutral(go)
        np_holds = ok.check_unary_property(ok.make_gon(go, nz), "NP").holds
        print(f"{go.label:<8} neutral: {str(neutral):<16} left neutrality: {np_holds}")

    print()
    print("== the five-instance matrix ==")
    instances = table2_instances()
    labels = [imp.label for imp, _ in instances]
    print(f"{'property':<9} " + " ".join(f"{lab:<28}" for lab in labels))
    for prop in TABLE2_PROPERTIES:
        cells = []
        for imp, negation in instances:
            if prop in ("CP", "L-CP", "R-CP"):
                variant = prop.replace("-", "")
                holds = ok.check_contraposition(imp, negation, variant).holds
            elif prop == "EP":
                holds = ok.check_ep(imp, "EP").holds
            else:
                holds = ok.check_unary_property(imp, prop).holds
            cells.append("yes" if holds else "no")
        print(f"{prop:<9} " + " ".join(f"{c:<28}" for c in cells))

    print()
    print("== range properness ==")
    print("two-valued implications leave most of the unit interval")
    print("uncovered; continuous disjunctive ones fill it:")
    for imp in (ok.make_crisp_family("C3", 0.5, 0.5),
                ok.make_gn(ok.grouping_max(), nz)):
        print(f"{imp.label:<22} proper range: {ok.range_is_proper(imp)}")


if __name__ == "__main__":
    main()
