"""Outside-in layer tracing for one benchmark child process.

Wraps public functions at the module attributes their callers resolve at
call time (``harness.run_standard``, ``intervention.AnalyticModel``, ...),
records one span per call in memory, and restores every attribute when the
run ends.  Nothing under ``src/`` is modified; spans are recorded only from
the benchmark's side of each layer boundary.
"""

from __future__ import annotations

import math
import os
import time
from typing import Any, Callable

Observer = Callable[[Any, tuple], None]


class Tracer:
    """Span recorder: one ``[name, start, end, parent]`` list per call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
        stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[idx][1] = start
            spans[idx][2] = end

    def wrap(self, owner: Any, attr: str, name: str, observe: Observer | None = None) -> Callable:
        """Replace ``owner.attr`` with a spanning wrapper; returns the wrapper."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if observe is not None:
                observe(result, args)
            return result

        self.replace(owner, attr, wrapper)
        return wrapper

    def tally(self, owner: Any, attr: str, name: str, under: str | None = None) -> None:
        """Count calls to ``owner.attr`` without a span (a call inside one
        layer); with ``under``, also count the calls made inside such a span."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            self.count(name + ".calls")
            if under is not None and any(self.spans[i][0] == under for i in self._stack):
                self.count(under + ".steps")
            return original(*args, **kwargs)

        self.replace(owner, attr, wrapper)

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, dict]:
        """Per span name: summed self time, call count and span durations."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for idx, (name, start, end, _parent) in enumerate(self.spans):
            entry = out.setdefault(name, {"self_s": 0.0, "calls": 0, "durations": []})
            entry["self_s"] += (end - start) - child_time[idx]
            entry["calls"] += 1
            entry["durations"].append(end - start)
        return out


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of ``tmperc`` (imported here, not earlier)."""
    from tmperc import analytic, checks, harness, intervention

    def engine_trace(trace, args) -> None:
        g = args[0]
        tracer.count("engine.generations", trace.tau_end)
        tracer.count("engine.edges_scanned", int(g.degrees()[trace.final_infected].sum()))

    def graph_edges(g, _args) -> None:
        tracer.count("tmgraph.edges", g.num_edges)

    def scan_result(value, _args) -> None:
        tracer.count("intervention.boundary_scan.nan", math.isnan(value))

    def emitted(paths, _args) -> None:
        tracer.count("harness.emit.bytes", sum(os.path.getsize(p) for p in paths))

    tracer.wrap(harness, "run_dichotomy", "harness.run_dichotomy")
    tracer.wrap(harness, "run_intervention", "harness.run_intervention")
    tracer.wrap(harness, "emit", "harness.emit", emitted)
    for owner in (harness, checks):
        tracer.wrap(owner, "sample_graph", "tmgraph.sample_graph", graph_edges)
        tracer.wrap(owner, "run_standard", "engine.run_standard", engine_trace)
    tracer.wrap(harness, "assign_thresholds", "tmgraph.assign_thresholds")
    tracer.wrap(harness, "select_seeds", "tmgraph.select_seeds")
    tracer.wrap(harness, "run_coinflip", "engine.run_coinflip", engine_trace)
    for owner in (harness, intervention, checks):
        tracer.wrap(owner, "AnalyticModel", "analytic.AnalyticModel")
    for owner in (harness, intervention):
        tracer.wrap(owner, "critical_seed", "analytic.critical_seed")
    # Calls from the harness cross into the intervention layer and get spans;
    # the same functions called inside that layer (boundary_scan's bisection
    # steps) are only counted, so their time stays with the scan.
    for attr in ("build_profile", "build_surrogate", "predict"):
        tracer.wrap(harness, attr, "intervention." + attr)
        under = "intervention.boundary_scan" if attr == "predict" else None
        tracer.tally(intervention, attr, "intervention." + attr, under)
    tracer.wrap(harness, "run_to_trigger", "intervention.run_to_trigger")
    tracer.wrap(harness, "apply_in_simulation", "intervention.apply_in_simulation")
    tracer.wrap(harness, "boundary_scan", "intervention.boundary_scan", scan_result)
    for owner in (analytic, checks):
        tracer.wrap(owner, "pi_r", "analytic.pi_r")
    tracer.wrap(checks, "check_growth_bounds", "analytic.check_growth_bounds")
    # run_validation iterates ALL_CHECKS and tests one entry by identity
    # against the module global, so both must resolve to the same wrapper.
    wrapped = [
        tracer.wrap(checks, fn.__name__, "checks." + fn.__name__.removeprefix("check_"))
        for fn in checks.ALL_CHECKS
    ]
    tracer.replace(checks, "ALL_CHECKS", wrapped)


CHECK_NAMES = (
    "templates",
    "pi_exact",
    "mass_sums",
    "growth_and_ratio",
    "convexity_samples",
    "coinflip_reduction",
    "engine_fixpoint",
    "residual_enumeration",
)


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer table; a layer that did not run reports 0."""
    spans = tracer.self_times()
    counters = tracer.counters

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0) + counters.get(name + ".calls", 0)

    def durations(name: str) -> list[float]:
        return spans.get(name, {}).get("durations", [])

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    engine_s = self_s("engine.run_standard") + self_s("engine.run_coinflip")
    generations = counters.get("engine.generations", 0)
    edges_scanned = counters.get("engine.edges_scanned", 0)
    edges = counters.get("tmgraph.edges", 0)
    scans = calls("intervention.boundary_scan")
    out = {
        "engine.run_standard.self_s": self_s("engine.run_standard"),
        "engine.run_coinflip.self_s": self_s("engine.run_coinflip"),
        "engine.runs": calls("engine.run_standard") + calls("engine.run_coinflip"),
        "engine.generations": generations,
        "engine.us_per_generation": ratio(engine_s, generations, 1e6),
        "engine.edges_scanned": edges_scanned,
        "engine.ns_per_edge_scanned": ratio(engine_s, edges_scanned, 1e9),
        "engine.run_standard.p50_ms": 1e3 * _quantile(durations("engine.run_standard"), 0.50),
        "engine.run_standard.p99_ms": 1e3 * _quantile(durations("engine.run_standard"), 0.99),
        "engine.run_coinflip.p50_ms": 1e3 * _quantile(durations("engine.run_coinflip"), 0.50),
        "engine.run_coinflip.p99_ms": 1e3 * _quantile(durations("engine.run_coinflip"), 0.99),
        "analytic.pi_r.self_s": self_s("analytic.pi_r"),
        "analytic.pi_r.calls": calls("analytic.pi_r"),
        "analytic.us_per_pi_r": ratio(self_s("analytic.pi_r"), calls("analytic.pi_r"), 1e6),
        "analytic.check_growth_bounds.self_s": self_s("analytic.check_growth_bounds"),
        "analytic.AnalyticModel.self_s": self_s("analytic.AnalyticModel"),
        "analytic.AnalyticModel.calls": calls("analytic.AnalyticModel"),
        "analytic.critical_seed.self_s": self_s("analytic.critical_seed"),
        "analytic.critical_seed.calls": calls("analytic.critical_seed"),
        "intervention.boundary_scan.self_s": self_s("intervention.boundary_scan"),
        "intervention.boundary_scan.incl_s": sum(durations("intervention.boundary_scan")),
        "intervention.boundary_scan.steps": counters.get("intervention.boundary_scan.steps", 0),
        "intervention.boundary_scan.nan_frac": ratio(
            counters.get("intervention.boundary_scan.nan", 0), scans
        ),
        "intervention.predict.self_s": self_s("intervention.predict"),
        "intervention.predict.calls": calls("intervention.predict"),
        "intervention.build_surrogate.self_s": self_s("intervention.build_surrogate"),
        "intervention.build_surrogate.calls": calls("intervention.build_surrogate"),
        "intervention.build_profile.self_s": self_s("intervention.build_profile"),
        "intervention.run_to_trigger.self_s": self_s("intervention.run_to_trigger"),
        "intervention.apply_in_simulation.self_s": self_s("intervention.apply_in_simulation"),
        "tmgraph.sample_graph.self_s": self_s("tmgraph.sample_graph"),
        "tmgraph.sample_graph.calls": calls("tmgraph.sample_graph"),
        "tmgraph.edges": edges,
        "tmgraph.ns_per_edge": ratio(self_s("tmgraph.sample_graph"), edges, 1e9),
        "tmgraph.select_seeds.self_s": self_s("tmgraph.select_seeds"),
        "tmgraph.assign_thresholds.self_s": self_s("tmgraph.assign_thresholds"),
        "harness.self_s": self_s("harness.run_dichotomy") + self_s("harness.run_intervention"),
        "harness.emit.self_s": self_s("harness.emit"),
        "harness.emit.bytes": counters.get("harness.emit.bytes", 0),
    }
    for check in CHECK_NAMES:
        out[f"checks.{check}.self_s"] = self_s("checks." + check)
    return out
