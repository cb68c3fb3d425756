"""The benchmark tracer's engine counters against a recount from plain traces.

``bench/tracer.py`` counts runs, generations and scanned edges from the
``PercolationTrace`` fields it reads; this pins those fields.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from tmperc import harness

# loaded by path, so the benchmark's other modules stay off sys.path
_SPEC = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
)
bench_tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_tracer)

TINY_DICHOTOMY = {
    "name": "tiny-dichotomy",
    "master_seed": 106,
    "graph": {"template": {"kind": "ring", "k": 8, "reach": 1}, "n": 800,
              "near_degree": 5.0, "far_degree": 5.0},
    "thresholds": {"zeta": {"2": 0.5, "3": 0.5}},
    "sweep": {"axis": "zeta_fraction", "threshold": 3, "complement": 2, "values": [0.0, 0.5]},
    "graphs": 2,
    "trials": 3,
    "seed_factors": [0.9, 1.1],
}

TINY_COINFLIP = {
    "name": "tiny-coinflip",
    "master_seed": 108,
    "graph": {"template": {"kind": "single"}, "n": 800, "near_degree": 10.0},
    "thresholds": {"coinflip": {"s": 1, "r_max": 20}},
    "sweep": {"axis": "coin_z", "values": [0.4, 0.6]},
    "graphs": 2,
    "trials": 3,
    "seed_factors": [0.9, 1.1],
}


@pytest.mark.parametrize(
    "raw, engine",
    [(TINY_DICHOTOMY, "run_standard"), (TINY_COINFLIP, "run_coinflip")],
    ids=["standard", "coinflip"],
)
def test_tracer_engine_counters_match_a_recount(monkeypatch, raw, engine):
    config = harness.load_config(raw)
    recorded = []
    run = getattr(harness, engine)

    def recording(g, *args):
        trace = run(g, *args)
        recorded.append((g, trace))
        return trace

    monkeypatch.setattr(harness, engine, recording)
    untraced = harness.run_dichotomy(config)
    monkeypatch.undo()
    tracer = bench_tracer.Tracer()
    bench_tracer.install(tracer)
    try:
        traced = harness.run_dichotomy(config)
    finally:
        tracer.restore()
    metrics = bench_tracer.layer_metrics(tracer)
    assert traced.rows == untraced.rows
    assert metrics["engine.runs"] == len(recorded) == len(untraced.rows) == 24
    assert metrics["engine.generations"] == sum(len(trace.totals) - 1 for _, trace in recorded)
    assert metrics["engine.edges_scanned"] == sum(
        int(np.diff(g.indptr)[trace.final_infected].sum()) for g, trace in recorded
    )
    assert metrics["engine.generations"] > metrics["engine.runs"]
