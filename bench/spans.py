"""In-memory span tracer for the traced benchmark run.

The tracer wraps, from outside the program, every public function of the
seven overlapkit layers plus the scalar ``__call__`` of ``Negation``,
``FusionFunction`` and ``Implication``. Each span knows its parent span, and
its self time is its duration minus the time covered by its child spans.
Spans are aggregated in memory per (parent, span) edge -- a traced pass makes
millions of scalar calls, too many to keep one record each -- and written out
when the run ends.

Not spanned: ``UnitValue`` construction (its cost lands in the span that
builds the value) and the iteration of the ``pair_points``/``triple_points``
generators (it lands in the checker consuming them; the generator span only
covers creating the generator).

Wrapping shifts a little time into the parent: the wrapper's own work before
and after the timed call. ``overhead_per_child`` measures that cost, and the
layer self times subtract it once per child span.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time

LAYERS = ("cli", "properties", "implications", "conjunctors", "negations", "aggregation", "numerics")

# Layer -> class whose scalar __call__ is spanned; its call count is the
# layer's "evals" counter.
SCALAR_CLASSES = {"implications": "Implication", "conjunctors": "FusionFunction", "negations": "Negation"}

BISECTIONS = ("numerics.bisect_sup", "numerics.invert_strict")

# Property checkers whose reports carry samples_checked.
SCANS = ("check_unary_property", "check_ep", "check_contraposition", "compare")

ROOT = "bench"


class Spans:
    """Span edges aggregated per (parent, span): [calls, total_s, self_s]."""

    def __init__(self) -> None:
        self.edges: dict = {}
        self.stack = [[ROOT, 0.0]]

    def wrap(self, name: str, fn, after=None):
        """fn wrapped in a span; after(args, kwargs, result) runs on return."""
        stack, edges, clock = self.stack, self.edges, time.perf_counter

        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                key = (parent[0], name)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += dt
                edge[2] += dt - frame[1]
            if after is not None:
                after(args, kwargs, result)
            return result

        span.__wrapped__ = fn
        return span


class Tracer(Spans):
    """Wraps the layers of an imported overlapkit package while installed."""

    def __init__(self, package) -> None:
        super().__init__()
        self.modules = {layer: sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS}
        self.namespaces = [package, *self.modules.values()]
        self.points_checked = 0
        self._scans: dict = {}  # (kind, config) -> number of scans
        self._undo: list = []
        props = self.modules["properties"]
        # Unwrapped mesh helpers, used to count the points a full scan offers.
        self._pair_points = props.pair_points
        self._triple_points = props.triple_points
        self._sorted_samples = self.modules["numerics"].sorted_samples

    def _scan_hook(self, fn):
        sig = inspect.signature(fn)
        default_kind = {"check_ep": "triples"}.get(fn.__name__, "pairs")

        def after(args, kwargs, report) -> None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            key = (bound.arguments.get("prop", default_kind), bound.arguments["config"])
            self._scans[key] = self._scans.get(key, 0) + 1
            self.points_checked += report.samples_checked

        return after

    def points_offered(self) -> int:
        """Points the recorded scans visit when none stops early.

        Call it once the tracer is uninstalled: the mesh helpers reach the
        numerics layer, and counting through spans would add to its calls.
        """
        total = 0
        for (kind, config), scans in self._scans.items():
            if kind in ("NP", "IP"):
                n = len(self._sorted_samples(config))
            elif kind == "LOP":
                n = sum(1 for x, y in self._pair_points(config) if x <= y)
            elif kind == "ROP":
                n = sum(1 for x, y in self._pair_points(config) if x > y)
            elif kind == "triples":
                n = sum(1 for _ in self._triple_points(config))
            else:
                n = sum(1 for _ in self._pair_points(config))
            total += scans * n
        return total

    def install(self) -> None:
        wrapped = {}
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                after = self._scan_hook(obj) if layer == "properties" and attr in SCANS else None
                wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj, after))
        # Rebind every namespace that holds a wrapped function, so calls made
        # through `from .numerics import bisect_sup` style imports are seen too.
        for ns in self.namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])
        for layer, clsname in SCALAR_CLASSES.items():
            cls = getattr(self.modules[layer], clsname)
            original = cls.__dict__["__call__"]
            self._undo.append((cls, "__call__", original))
            cls.__call__ = self.wrap(f"{layer}.{clsname}.__call__", original)

    def uninstall(self) -> None:
        while self._undo:
            ns, attr, obj = self._undo.pop()
            setattr(ns, attr, obj)

    def set_root(self, name: str) -> None:
        """Name the root span: the operation that the next spans belong to."""
        self.stack[0] = [name, 0.0]

    # -- results -----------------------------------------------------------

    def span_records(self) -> list[dict]:
        return [
            {"parent": parent, "span": name, "calls": c, "total_s": total, "self_s": own}
            for (parent, name), (c, total, own) in sorted(self.edges.items())
        ]

    def layer_totals(self, overhead_per_child: float) -> dict:
        """Per layer: calls, and self seconds net of the wrapper overhead."""
        children: dict = {}
        for (parent, _), (calls, _, _) in self.edges.items():
            children[parent] = children.get(parent, 0) + calls
        totals = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for (_, name), (calls, _, own) in self.edges.items():
            layer = totals[name.split(".", 1)[0]]
            layer["calls"] += calls
            layer["self_s"] += own
        for parent, n in children.items():
            layer = parent.split(".", 1)[0]
            if layer in totals:
                totals[layer]["self_s"] -= overhead_per_child * n
        return totals

    def count(self, span: str) -> int:
        return sum(c for (_, name), (c, _, _) in self.edges.items() if name == span)


def overhead_per_child(reps: int = 5, n: int = 20000) -> float:
    """Seconds a parent span loses to each child span's wrapper.

    Times n calls of a spanned no-op inside a spanned parent against the same
    loop over the bare no-op; the median difference per call is the cost.
    """

    def noop():
        return None

    samples = []
    for _ in range(reps):
        spans = Spans()
        child = spans.wrap("probe.child", noop)

        def loop(f=child):
            for _ in range(n):
                f()

        spans.wrap("probe.parent", loop)()
        spanned = spans.edges[(ROOT, "probe.parent")][2]
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        bare = time.perf_counter() - t0
        samples.append(max(0.0, spanned - bare) / n)
    return statistics.median(samples)
