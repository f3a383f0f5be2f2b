"""overlapkit benchmark: end-to-end and per-layer costs of the CLI and library.

    python3 bench/run.py --workload audit --seed 1 --seconds 26 --trace 0
    python3 bench/run.py --smoke

One workload (audit, residual or sweep; see workloads.py) runs in this
process as a closed loop with one client: each operation starts when the
previous one has finished, with no threads or subprocesses. Operations are
in-process ``overlapkit.cli.run(argv)`` calls or public library calls. The
operation list repeats, in whole passes, until ``--seconds`` of operation
time have been measured; every operation's exit code and output digest is
checked against golden.json.

Times are reference-host times. The host's speed drifts by tens of percent
from second to second on a shared machine, so every operation is bracketed,
and long ones sampled on a timer, by a short calibration loop, and its wall
time is scaled to a host on which that loop takes CAL_REF_S. The env line
repeats the end-to-end metrics in plain wall-clock time.

``--trace 0`` reports the end-to-end metrics:

* ops_per_s: operations per second over the fixed operation list, from each
  operation's median time across passes;
* op_p50_ms: median operation time, as the mean of the middle fifth of the
  per-operation medians;
* op_tail_ms: over all operations run, the time at the highest percentile
  with at least ten operations beyond it, as the mean of the nine samples
  centred on that rank (rank and sample count are in the env line);
* setup_s: median over several fresh imports of overlapkit, parser build and
  sample-cache warm-up (numpy is imported once, before);
* peak_rss_mb: peak resident memory of the process.

``--trace 1`` is a separate run that reports the per-layer metrics: kernel
probes, then one untraced pass, then traced passes (spans.py) until
``--seconds`` of wall time have passed since the start. Counts are per pass
and repeat exactly.

Standard output ends with one JSON line: correct, attempted, failed, metrics.
Before it come the metrics as text and an ``env`` line. The full report,
including the spans of a traced run, is written to bench/out/.
"""

from __future__ import annotations

import os

# One numpy thread: the load stays on one core.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import probes  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPS = 15
TAIL_BEYOND = 10
TAIL_BAND = 9

# Timed regions are scaled to a reference host on which one CAL_ITERS loop
# of calibrate() takes CAL_REF_S. Operations shorter than CAL_WINDOW_S share
# the loops around their window; timed passes also run a loop every
# SAMPLE_PERIOD_S during each operation.
CAL_ITERS = 4_000
CAL_REF_S = 0.003
CAL_WINDOW_S = 0.025
SAMPLE_PERIOD_S = 0.05


class BenchError(Exception):
    """The benchmark cannot run here (exit code 2, no result printed)."""


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def fresh_import():
    """Import overlapkit and its CLI from SRC, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "overlapkit" or m.startswith("overlapkit.")]:
        del sys.modules[name]
    ok = importlib.import_module("overlapkit")
    cli = importlib.import_module("overlapkit.cli")
    if not Path(ok.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"overlapkit was imported from {ok.__file__}, not from {SRC}")
    return ok, cli


def set_up(config_kwargs: list[dict]):
    """Set-up seconds (median of SETUP_REPS fresh imports, wall and scaled) and the last import."""
    if not (SRC / "overlapkit" / "__init__.py").is_file():
        raise BenchError(f"no overlapkit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    wall, scaled = [], []
    for _ in range(SETUP_REPS):
        # Collect the modules dropped by the previous import first, so no
        # collection of them lands inside a timed import.
        gc.collect()
        before = calibrate(CAL_ITERS)
        t0 = time.perf_counter()
        ok, cli = fresh_import()
        numerics = sys.modules["overlapkit.numerics"]
        cli._build_parser()
        for kwargs in config_kwargs:
            config = ok.CheckConfig(**kwargs)
            numerics.uniform_grid(config)
            numerics.random_points(config)
            numerics.sorted_samples(config)
        seconds = time.perf_counter() - t0
        after = calibrate(CAL_ITERS)
        wall.append(seconds)
        scaled.append(to_reference(seconds, [before, after]))
    setup = {"wall": statistics.median(wall), "scaled": statistics.median(scaled)}
    return setup, ok, cli


class _Point:
    __slots__ = ("v",)

    def __init__(self, v: float) -> None:
        self.v = v


def _blend(x: float, y: float) -> float:
    return x * y + 0.5 if x < y else y - 0.25 * x


def calibrate(iterations: int = 100_000) -> float:
    """Seconds for a fixed pure-Python loop: the host's current speed.

    The loop mixes what the program's scalar paths do -- small objects,
    float arithmetic, calls and dict stores -- so it slows down with the
    host the way the program does; a bare integer loop tracks it less well.
    """
    t0 = time.perf_counter()
    acc, slots = 0.0, {}
    for i in range(iterations):
        x = (i % 101) / 101.0
        pair = (_Point(x).v, float(i))
        acc += _blend(pair[0], 0.5) + abs(math.sqrt(x) - x)
        slots[i & 63] = pair
    return time.perf_counter() - t0


def to_reference(seconds: float, calibrations: list[float]) -> float:
    """Seconds scaled to the reference host, from the calibrations around them."""
    return seconds * CAL_REF_S / statistics.fmean(calibrations)


class HostSampler:
    """Calibration loops run from a timer signal while an operation runs.

    A long operation outlasts the host's speed swings, so the loops around it
    say little about the speed during it. Every ``period`` seconds the signal
    handler times one loop; the loops' own time is taken out of the
    operation's time. A period of 0 samples nothing.
    """

    def __init__(self, period: float) -> None:
        self.period = period
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibrate(CAL_ITERS))
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "HostSampler":
        self.samples, self.spent = [], 0.0
        if self.period:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        if self.period:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Operations and golden outputs
# ---------------------------------------------------------------------------


def canonical(result) -> str:
    """Stable text of a library result; floats keep every digit."""
    if hasattr(result, "as_dict"):
        return json.dumps(result.as_dict(), sort_keys=True)
    return repr(result)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def execute(op: workloads.Op, ok, cli, sampler: HostSampler | None = None):
    """Run one operation: (seconds, exit code, digest of its output)."""
    sampler = sampler or HostSampler(0.0)
    out = io.StringIO()
    result = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            with sampler:
                if op.argv is not None:
                    rc = cli.run(list(op.argv))
                else:
                    result = op.call(ok)
                    rc = 0
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation; the run goes on
            rc = -1
            out.write(traceback.format_exc())
        seconds = time.perf_counter() - t0 - sampler.spent
    text = out.getvalue() if op.argv is not None or rc == -1 else canonical(result)
    return seconds, rc, digest(text)


def load_golden(workload: str, seed: int):
    """Golden [name, exit code, digest] rows for this seed, or None."""
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle).get(f"{workload}/{workloads.variant_of(seed)}")


class Passes:
    """Per-operation times and failures over repeated passes of one op list."""

    def __init__(self, ops, golden, sample_period: float = 0.0) -> None:
        self.ops = ops
        self.golden = golden
        self.sampler = HostSampler(sample_period)
        self.times = [[] for _ in ops]
        self.wall = [[] for _ in ops]
        self.pass_seconds: list[float] = []
        self.attempted = 0
        self.failures: list[dict] = []

    def run_pass(self, ok, cli, tracer=None) -> None:
        total = 0.0
        before = calibrate(CAL_ITERS)
        window: list = []  # (index, wall seconds) since the last calibration
        samples: list = []
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.set_root(f"op {op.name}")
            seconds, rc, dig = execute(op, ok, cli, self.sampler)
            window.append((i, seconds))
            samples += self.sampler.samples
            self.wall[i].append(seconds)
            self.attempted += 1
            # Without golden rows for this op list nothing can be checked: all fail.
            want = None if self.golden is None else self.golden[i]
            if want != [op.name, rc, dig]:
                self.failures.append({"op": op.name, "exit": rc, "digest": dig, "golden": want})
            # Short operations share the calibrations around a window of
            # CAL_WINDOW_S, so calibrating does not take longer than them.
            if sum(w for _, w in window) >= CAL_WINDOW_S or i == len(self.ops) - 1:
                after = calibrate(CAL_ITERS)
                for j, wall in window:
                    scaled = to_reference(wall, [before, *samples, after])
                    self.times[j].append(scaled)
                    total += scaled
                before, window, samples = after, [], []
        self.pass_seconds.append(total)

    def run_until(self, done, ok, cli, tracer=None) -> None:
        """Whole passes until done() is true (at least one)."""
        while True:
            self.run_pass(ok, cli, tracer)
            if done():
                return


def check_golden(ops, golden) -> list:
    """The golden rows, or None when they do not describe this op list."""
    if golden is None or [g[0] for g in golden] != [op.name for op in ops]:
        return None
    return golden


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end_metrics(times: list[list[float]], setup_s: float):
    """Metrics from per-operation time samples (one list per operation).

    ops_per_s and op_p50_ms work on each operation's median across passes.
    An operation list holds few operations, often with wide gaps between
    their costs, so one order statistic jumps with the noise of whichever
    sample sits at it: op_p50_ms is the mean of the middle fifth of the
    per-operation medians and op_tail_ms the mean of the TAIL_BAND samples
    centred on the rank with TAIL_BEYOND samples beyond it.
    """
    medians = sorted(statistics.median(t) for t in times)
    k = max(1, round(len(medians) / 5))
    k += (len(medians) - k) % 2  # keep the band centred on the median
    lo = (len(medians) - k) // 2
    pooled = sorted(x for t in times for x in t)
    rank = max(0, len(pooled) - TAIL_BEYOND - 1)
    band = pooled[max(0, rank - TAIL_BAND // 2) : rank + TAIL_BAND // 2 + 1]
    metrics = {
        "ops_per_s": (len(medians) / sum(medians), "1/s"),
        "op_p50_ms": (statistics.fmean(medians[lo : lo + k]) * 1e3, "ms"),
        "op_tail_ms": (statistics.fmean(band) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    tail = {"op_tail_rank": rank + 1, "op_tail_samples": len(pooled)}
    return metrics, tail


def per_layer_metrics(tracer: spans.Tracer, traced: Passes, untraced: Passes, overhead: float):
    n = len(traced.pass_seconds)

    def per_pass(count: int):
        # Counts repeat exactly from pass to pass, so this is a whole number.
        return count // n if count % n == 0 else count / n

    metrics = {}
    totals = tracer.layer_totals(overhead)
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = (totals[layer]["self_s"] / n, "s")
        metrics[f"{layer}.calls"] = (per_pass(totals[layer]["calls"]), "count")
    for layer, clsname in spans.SCALAR_CLASSES.items():
        metrics[f"{layer}.evals"] = (per_pass(tracer.count(f"{layer}.{clsname}.__call__")), "count")
    metrics["numerics.bisections"] = (per_pass(sum(tracer.count(s) for s in spans.BISECTIONS)), "count")
    metrics["properties.points_checked"] = (per_pass(tracer.points_checked), "count")
    offered = tracer.points_offered()
    metrics["properties.scan_fraction"] = (tracer.points_checked / offered if offered else 1.0, "ratio")
    ratio = statistics.median(traced.pass_seconds) / statistics.median(untraced.pass_seconds)
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    shares = {layer: totals[layer]["self_s"] for layer in spans.LAYERS}
    whole = sum(shares.values()) or 1.0
    return metrics, {layer: round(v / whole, 4) for layer, v in shares.items()}


def environment(workload: str, seed: int, ok, ops, passes: list, calibration: dict) -> dict:
    attempted = sum(p.attempted for p in passes)
    failures = sum(len(p.failures) for p in passes)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "threads_env": {var: os.environ[var] for var in THREAD_VARS},
        "workload": workload,
        "seed": seed,
        "variant": workloads.variant_of(seed),
        "config": dataclasses.asdict(ok.CheckConfig(**workloads.CONFIGS[workload])),
        "ops_per_pass": len(ops),
        "passes": sum(len(p.pass_seconds) for p in passes),
        "operations": attempted,
        "fail_ratio": failures / attempted,
        "calibration_s": calibration,
    }


def print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:.6g} {unit}")


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    setup, ok, cli = set_up([workloads.CONFIGS[workload]])
    ops = workloads.build(workload, seed)
    passes = Passes(ops, check_golden(ops, load_golden(workload, seed)), SAMPLE_PERIOD_S)
    calibration = {"before": calibrate()}
    # Measured time is reference-host time, so the number of passes, and with
    # it the samples behind each percentile, does not follow the host's speed.
    passes.run_until(lambda: sum(passes.pass_seconds) >= seconds, ok, cli)
    calibration["after"] = calibrate()
    metrics, tail = end_to_end_metrics(passes.times, setup["scaled"])
    wall, _ = end_to_end_metrics(passes.wall, setup["wall"])
    env = environment(workload, seed, ok, ops, [passes], calibration) | tail
    env["wall_clock"] = {name: value for name, (value, _) in wall.items()}
    report = {
        "env": env,
        "metrics": metrics,
        "op_seconds": {op.name: t for op, t in zip(ops, passes.times)},
        "failures": passes.failures,
    }
    return finish(report, [passes], f"{workload}-seed{seed}-trace0")


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    started = time.perf_counter()
    _, ok, cli = set_up([workloads.CONFIGS[workload]])
    ops = workloads.build(workload, seed)
    golden = check_golden(ops, load_golden(workload, seed))
    calibration = {"before": calibrate()}
    probe_metrics = probes.run_probes(ok, cli)
    untraced = Passes(ops, golden)
    untraced.run_pass(ok, cli)
    overhead = spans.overhead_per_child()
    traced = Passes(ops, golden)
    tracer = spans.Tracer(ok)
    tracer.install()
    try:
        traced.run_until(lambda: time.perf_counter() - started >= seconds, ok, cli, tracer)
    finally:
        tracer.uninstall()
    calibration["after"] = calibrate()
    metrics, shares = per_layer_metrics(tracer, traced, untraced, overhead)
    metrics.update(probe_metrics)
    env = environment(workload, seed, ok, ops, [untraced, traced], calibration)
    env["self_share"] = shares
    env["overhead_per_child_s"] = overhead
    report = {
        "env": env,
        "metrics": metrics,
        "spans": tracer.span_records(),
        "failures": untraced.failures + traced.failures,
    }
    return finish(report, [untraced, traced], f"{workload}-seed{seed}-trace1")


def finish(report: dict, passes: list, stem: str) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    metrics = report["metrics"]
    print_metrics(metrics)
    print("env " + json.dumps(report["env"], sort_keys=True))
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def smoke() -> int:
    """One operation of each workload; every declared metric must appear with its unit."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    _, ok, cli = set_up([workloads.CONFIGS[w] for w in workloads.WORKLOADS])
    probe_metrics = probes.run_probes(ok, cli)
    problems = []
    for workload in workloads.WORKLOADS:
        ops = workloads.build(workload, 0)[:1]
        golden = load_golden(workload, 0)
        golden = None if golden is None else check_golden(ops, golden[:1])
        untraced = Passes(ops, golden)
        untraced.run_pass(ok, cli)
        e2e, _ = end_to_end_metrics(untraced.times, 1.0)
        tracer = spans.Tracer(ok)
        traced = Passes(ops, golden)
        tracer.install()
        try:
            traced.run_pass(ok, cli, tracer)
        finally:
            tracer.uninstall()
        layer, _ = per_layer_metrics(tracer, traced, untraced, 0.0)
        layer.update(probe_metrics)
        problems += [f"{workload}: {f}" for f in untraced.failures + traced.failures]
        for group, got in (("end_to_end", e2e), ("per_layer", layer)):
            for spec in declared[group]:
                value = got.get(spec["name"])
                if value is None or value[1] != spec["unit"] or not value[1]:
                    problems.append(f"{workload}: {group} metric {spec['name']} missing or unit differs")
        print(f"smoke {workload}: {len(e2e)} end-to-end, {len(layer)} per-layer metrics")
    for problem in problems:
        print(f"smoke FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one operation per workload, check metric names")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        run = run_traced if args.trace else run_untraced
        result = run(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
