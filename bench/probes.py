"""Kernel probes: single-layer costs measured once per traced run.

Each probe times one kernel in isolation with tracing off and reports the
median of a few repetitions:

* implications.eval_ns.<family>: one scalar evaluation per implication family;
* properties.scan_ms.<prop>: one property scan summed over the fixed instance
  set (the five table2 instances plus gon(GO_max, zadeh) and ro(O_P:p=1));
* numerics.bisect_sup_us / invert_strict_us / unitvalue_ns;
* negations.inverse_cold_us / inverse_warm_us: numeric inverse evaluations
  on a fresh instance and again on the same points;
* conjunctors.check_axioms_ms.<set> for O, G, GO and T;
* cli.parse_us: parsing one implication expression.
"""

from __future__ import annotations

import random
import statistics
import time

from workloads import FAMILY_EXPRESSIONS

SCAN_PROPS = ("NP", "IP", "LOP", "ROP", "IB", "EP", "EP1", "CP", "LCP", "RCP")
AXIOM_SETS = {"O": "O_P:p=2", "G": "max_grouping", "GO": "GO_max", "T": "O_min"}


def _median_time(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _points(n: int) -> list[tuple[float, float]]:
    rng = random.Random(0)
    return [(rng.random(), rng.random()) for _ in range(n)]


def run_probes(ok, cli) -> dict:
    """Probe values keyed by metric name, as (value, unit) pairs."""
    out: dict = {}
    points = _points(4000)
    for family, expr in FAMILY_EXPRESSIONS.items():
        imp = cli.parse_implication(expr)
        pts = points[:500] if family == "ro" else points

        def evaluate(imp=imp, pts=pts):
            for x, y in pts:
                imp(x, y)

        out[f"implications.eval_ns.{family}"] = (_median_time(evaluate, 5) / len(pts) * 1e9, "ns")

    zadeh = ok.make_standard()
    instances = [
        *cli.table2_instances(),
        (cli.parse_implication("gon(GO_max, zadeh)"), zadeh),
        (cli.parse_implication("ro(O_P:p=1)"), zadeh),
    ]
    for prop in SCAN_PROPS:

        def scan(prop=prop):
            for imp, negation in instances:
                if prop in ("EP", "EP1"):
                    ok.check_ep(imp, prop)
                elif prop in ("CP", "LCP", "RCP"):
                    ok.check_contraposition(imp, negation, prop)
                else:
                    ok.check_unary_property(imp, prop)

        out[f"properties.scan_ms.{prop}"] = (_median_time(scan, 1) * 1e3, "ms")

    targets = [x for x, _ in points[:1000]]
    power2 = ok.make_power_strict(2.0)
    tol = ok.DEFAULT_CONFIG.bisect_tol

    def bisect():
        for t in targets:
            ok.bisect_sup(lambda z, t=t: z * z <= t, tol)

    def invert():
        for t in targets:
            ok.invert_strict(power2, t, tol)

    def unit_values():
        for t in targets:
            ok.UnitValue(t)

    out["numerics.bisect_sup_us"] = (_median_time(bisect, 5) / len(targets) * 1e6, "us")
    out["numerics.invert_strict_us"] = (_median_time(invert, 5) / len(targets) * 1e6, "us")
    out["numerics.unitvalue_ns"] = (_median_time(unit_values, 21) / len(targets) * 1e9, "ns")

    cold, warm = [], []
    for _ in range(5):
        inverse = ok.inverse_negation(power2)
        for sink in (cold, warm):
            t0 = time.perf_counter()
            for t in targets:
                inverse(t)
            sink.append(time.perf_counter() - t0)
    out["negations.inverse_cold_us"] = (statistics.median(cold) / len(targets) * 1e6, "us")
    out["negations.inverse_warm_us"] = (statistics.median(warm) / len(targets) * 1e6, "us")

    for axiom_set, expr in AXIOM_SETS.items():
        conn = cli.parse_connective(expr)
        seconds = _median_time(lambda conn=conn, s=axiom_set: ok.check_axioms(conn, s), 3)
        out[f"conjunctors.check_axioms_ms.{axiom_set}"] = (seconds * 1e3, "ms")

    exprs = list(FAMILY_EXPRESSIONS.values())

    def parse():
        for _ in range(50):
            for expr in exprs:
                cli.parse_implication(expr)

    out["cli.parse_us"] = (_median_time(parse, 5) / (50 * len(exprs)) * 1e6, "us")
    return out
