"""Property profiles of implication instances, including the built-in matrix.

check_property scans the sample mesh for one property and either reports
a first witness or certifies the property on the grid. The built-in
five-instance matrix, read from cli.table2_matrix (also printed by
`overlapkit table2`), summarizes how the property profile shifts with the
negation class.
"""

import overlapkit as ok
from overlapkit.cli import table2_matrix


def main() -> None:
    nz = ok.make_standard()

    print("== one instance in detail ==")
    imp = ok.make_gon(ok.catalog("O_min"), ok.make_crisp("upper", 0.5))
    print(f"{imp.label}:")
    for prop in ("NP", "IP", "LOP", "ROP", "IB"):
        print(f"  {ok.check_property(imp, prop).summary()}")
    print(f"  {ok.check_property(imp, 'EP').summary()}")

    print()
    print("== exchange tracks associativity ==")
    for name, params in (("O_min", {}), ("GO_max", {}), ("O_P", {"p": 2})):
        go = ok.catalog(name, **params)
        assoc = ok.check_associativity(go).passed
        ep = ok.check_property(ok.make_gon(go, nz), "EP").holds
        print(f"{go.label:<8} associative: {str(assoc):<6} exchange: {ep}")

    print()
    print("== left neutrality tracks the neutral element ==")
    for name in ("O_min", "O_mM", "O_V", "O_DB"):
        go = ok.catalog(name)
        neutral = ok.find_neutral(go)
        np_holds = ok.check_property(ok.make_gon(go, nz), "NP").holds
        print(f"{go.label:<8} neutral: {str(neutral):<16} left neutrality: {np_holds}")

    print()
    print("== the five-instance matrix ==")
    labels, rows = table2_matrix()
    print(f"{'property':<9} " + " ".join(f"{lab:<28}" for lab in labels))
    for prop, cells in rows.items():
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
