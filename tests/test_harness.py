import argparse
import concurrent.futures
import csv
import hashlib
import json
import math
import pickle
import re
from pathlib import Path

import pytest

from tmperc import cli, harness
from tmperc import intervention as iv
from tmperc.harness import ConfigError


def base_config(**overrides):
    raw = {
        "name": "unit",
        "master_seed": 11,
        "graph": {"template": {"kind": "single"}, "n": 1000, "p": 0.01},
        "thresholds": {"zeta": {"2": 0.5, "3": 0.5}},
        "sweep": {"axis": "zeta_fraction", "threshold": 3, "complement": 2, "values": [0.5]},
        "graphs": 1,
        "trials": 1,
    }
    raw.update(overrides)
    return raw


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError):
        harness.load_config(base_config(bogus_key=1))
    with pytest.raises(ConfigError):
        harness.load_config(
            base_config(graph={"template": {"kind": "single"}, "n": 10, "p": 0.1, "pp": 2})
        )
    with pytest.raises(ConfigError):
        harness.load_config(
            base_config(sweep={"axis": "zeta_fraction", "values": [0.5], "oops": 1})
        )
    with pytest.raises(ConfigError):
        harness.load_config(
            base_config(intervention={"variant": "bolster_a", "mystery": True})
        )
    with pytest.raises(ConfigError):  # no code reads a top-level seed_counts
        harness.load_config(base_config(seed_counts=[10]))


def test_config_requires_exactly_one_graph_parameterization():
    with pytest.raises(ConfigError):
        harness.load_config(
            base_config(graph={"template": {"kind": "single"}, "n": 10, "p": 0.1, "near_degree": 5})
        )
    with pytest.raises(ConfigError):
        harness.load_config(base_config(graph={"template": {"kind": "single"}, "n": 10}))


def test_degree_shorthand_matches_paper_parameterization():
    config = harness.load_config(
        base_config(
            graph={
                "template": {"kind": "ring", "k": 10, "reach": 1},
                "n": 10000,
                "near_degree": 5.0,
                "far_degree": 5.0,
            }
        )
    )
    params = config.params
    assert params.p == pytest.approx(50 / (3 * 10000))
    assert params.q == pytest.approx(50 / (7 * 10000))
    k20 = harness.load_config(
        base_config(
            graph={
                "template": {"kind": "ring", "k": 20, "reach": 1},
                "n": 10000,
                "near_degree": 5.0,
                "far_degree": 5.0,
            }
        )
    )
    params20 = k20.params
    assert params20.p == pytest.approx(100 / (3 * 10000))
    assert params20.q == pytest.approx(100 / (17 * 10000))


def test_config_hash_changes_with_any_field():
    baseline = harness.load_config(base_config())
    assert baseline.config_hash == harness.load_config(base_config()).config_hash
    changed = [
        base_config(master_seed=12),
        base_config(trials=2),
        base_config(epsilon=0.2),
        base_config(graph={"template": {"kind": "single"}, "n": 1001, "p": 0.01}),
        base_config(thresholds={"zeta": {"2": 1.0}}),
    ]
    hashes = {harness.load_config(c).config_hash for c in changed}
    hashes.add(baseline.config_hash)
    assert len(hashes) == len(changed) + 1


def _parse_cell(cell: str):
    """A CSV cell as ``emit`` writes it: empty, true/false, an int, a float or text."""
    if cell in ("", "true", "false"):
        return {"": None, "true": True, "false": False}[cell]
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def test_emit_roundtrip_and_empty_table(tmp_path):
    config = harness.load_config(base_config())
    table = harness.run_dichotomy(config)
    base = str(tmp_path / "rows")
    paths = harness.emit(table, base)
    assert len(paths) == 2
    with open(base + ".csv", newline="", encoding="utf-8") as fh:
        header = fh.readline()
        reader = csv.reader(fh)
        columns = next(reader)
        rows = [dict(zip(columns, map(_parse_cell, cells))) for cells in reader]
    meta = dict(part.split("=", 1) for part in header.lstrip("# ").split())
    assert meta["config_hash"] == table.config_hash
    assert columns == table.columns
    assert len(rows) == len(table.rows)
    for mine, theirs in zip(table.rows, rows):
        for column in table.columns:
            value = mine.get(column)
            if isinstance(value, float) and math.isnan(value):
                continue
            assert theirs[column] == value
    empty = harness.ResultTable("empty", "cafe", ["a", "b"], [])
    harness.emit(empty, str(tmp_path / "empty"))
    with open(tmp_path / "empty.csv") as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# config_hash=cafe")
    assert lines[1] == "a,b"
    assert len(lines) == 2


class _Unprintable:
    def __str__(self):
        raise RuntimeError("cell cannot be formatted")


class _NotJson:
    """A cell the CSV writer prints and ``json.dumps`` refuses."""

    def __str__(self):
        return "opaque"


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_emit_failure_keeps_previous_file(tmp_path, fmt):
    base = str(tmp_path / "rows")
    good = harness.ResultTable("good", "cafe", ["a"], [{"a": i} for i in range(3)])
    harness.emit(good, base)
    before = {ext: Path(f"{base}.{ext}").read_bytes() for ext in ("csv", "jsonl")}
    # the second row fails after the header and first row are written: in the
    # CSV, which comes first, or only in the JSON lines
    cell = _Unprintable() if fmt == "csv" else _NotJson()
    bad = harness.ResultTable("bad", "beef", ["a"], [{"a": 1}, {"a": cell}])
    with pytest.raises((RuntimeError, TypeError)):
        harness.emit(bad, base)
    # both files are written before either is renamed, so the pair stays as it was
    assert {ext: Path(f"{base}.{ext}").read_bytes() for ext in ("csv", "jsonl")} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv", "rows.jsonl"]


def test_rerun_is_byte_identical(tmp_path):
    config = harness.load_config(base_config(trials=2, graphs=2))
    first = harness.run_dichotomy(config)
    second = harness.run_dichotomy(config)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    harness.emit(first, a)
    harness.emit(second, b)
    assert Path(a + ".csv").read_bytes() == Path(b + ".csv").read_bytes()
    assert Path(a + ".jsonl").read_bytes() == Path(b + ".jsonl").read_bytes()


def test_single_point_single_trial_row_count():
    config = harness.load_config(base_config(seed_factors=[1.1]))
    table = harness.run_dichotomy(config)
    assert len(table.rows) == 1
    row = table.rows[0]
    assert row["seed_factor"] == 1.1
    assert row["verdict"] in ("spread", "halted")


def test_dichotomy_rejects_intervention_config():
    with pytest.raises(ConfigError):
        harness.load_config(base_config(intervention={"variant": "bolster_a"}))
    config = harness.load_config(_intervention_config())
    with pytest.raises(ConfigError):
        harness.run_dichotomy(config)


def test_intervention_requires_alpha_axis():
    with pytest.raises(ConfigError, match="alpha axis"):
        harness.load_config(base_config(intervention={"variant": "bolster_a"}))


def test_intervention_rows_and_no_trigger(tmp_path):
    n = 4000
    config = harness.load_config(
        {
            "name": "iv-unit",
            "master_seed": 3,
            "graph": {"template": {"kind": "single"}, "n": n, "p": 7 / n},
            "thresholds": {"zeta": {"2": 1.0}},
            "sweep": {"axis": "alpha", "values": [0.0, 1.0]},
            "graphs": 2,
            "trials": 1,
            "intervention": {
                "variant": "diminish",
                "lambda": 0.1,
                "baseline_seed_factor": 1.6,
                "compute_boundary": False,
            },
        }
    )
    table = harness.run_intervention(config)
    triggered_rows = [r for r in table.rows if r["triggered"]]
    assert triggered_rows
    for row in triggered_rows:
        assert row["predicted"] in ("predicted-halt", "predicted-spread", "uncertain-band")
        assert row["actual"] in ("spread", "halted")
        assert row["i_cur"] > row["i_prev"]
    # subcritical baseline: one graph with a hopeless seed count
    low = harness.load_config(
        {
            "name": "iv-low",
            "master_seed": 3,
            "graph": {"template": {"kind": "single"}, "n": n, "p": 7 / n},
            "thresholds": {"zeta": {"2": 1.0}},
            "sweep": {"axis": "alpha", "values": [0.5]},
            "graphs": 1,
            "trials": 1,
            "intervention": {
                "variant": "diminish",
                "lambda": 0.5,
                "baseline_seed_count": 3,
                "compute_boundary": False,
            },
        }
    )
    rows = harness.run_intervention(low).rows
    assert len(rows) == 1
    assert rows[0]["predicted"] == "no-trigger"
    assert not rows[0]["triggered"]


def _intervention_config(**section):
    raw = base_config(sweep={"axis": "alpha", "values": [0.5]})
    raw["intervention"] = {"variant": "diminish", **section}
    return raw


@pytest.mark.parametrize("value", [0.0, -0.2, 1.5])
def test_config_rejects_stop_fraction_outside_unit_interval(value):
    with pytest.raises(ConfigError, match="stop_fraction"):
        harness.load_config(base_config(stop_fraction=value))
    assert harness.load_config(base_config(stop_fraction=1.0)).stop_fraction == 1.0


@pytest.mark.parametrize("value", [-0.2, 1.0, 1.5])
def test_config_rejects_epsilon_outside_zero_to_one(value):
    with pytest.raises(ConfigError, match="epsilon"):
        harness.load_config(base_config(epsilon=value))
    assert harness.load_config(base_config(epsilon=0.0, seed_factors=[1.0])).epsilon == 0.0


@pytest.mark.parametrize("value", [0.0, 1.0, -0.2, 1.5])
def test_config_rejects_intervention_lambda_outside_open_unit_interval(value):
    with pytest.raises(ConfigError, match="lambda"):
        harness.load_config(_intervention_config(**{"lambda": value}))
    config = harness.load_config(_intervention_config(**{"lambda": 0.5}))
    assert config.intervention.trigger_fraction == 0.5


@pytest.mark.parametrize("value", [0.0, -0.2, 1.5])
def test_config_rejects_intervention_stop_fraction_outside_unit_interval(value):
    with pytest.raises(ConfigError, match="stop_fraction"):
        harness.load_config(_intervention_config(stop_fraction=value))
    assert harness.load_config(_intervention_config(stop_fraction=1.0)).stop_fraction == 1.0


@pytest.mark.parametrize(
    "factors", [[-1.0], ["a"], [], [True], [math.nan], [math.inf], [0.9, None], 0.9],
    ids=["negative", "string", "empty", "bool", "nan", "inf", "none", "scalar"],
)
def test_config_rejects_bad_seed_factors(factors):
    with pytest.raises(ConfigError, match="seed_factors"):
        harness.load_config(base_config(seed_factors=factors))


def _ring5_intervention(**section):
    return {
        "name": "ring5-baseline",
        "master_seed": 3,
        "graph": {"template": {"kind": "ring", "k": 5, "reach": 1}, "n": 500, "p": 0.02, "q": 0.002},
        "thresholds": {"zeta": {"2": 0.5, "3": 0.5}},
        "sweep": {"axis": "alpha", "values": [0.5]},
        "graphs": 1,
        "intervention": {"variant": "diminish", **section},
    }


@pytest.mark.parametrize(
    "raw, run",
    [
        (
            base_config(trials=2, graphs=2, sweep={
                "axis": "zeta_fraction", "threshold": 3, "complement": 2, "values": [0.0, 1.0]}),
            harness.run_dichotomy,
        ),
        (
            # workers unpickle the config's CoinflipModel
            base_config(trials=2, graphs=2, thresholds={"coinflip": {"s": 1, "r_max": 20}},
                        sweep={"axis": "coin_z", "values": [0.3, 1.0]}),
            harness.run_dichotomy,
        ),
        (
            _ring5_intervention(compute_boundary=True)
            | {"graphs": 2, "sweep": {"axis": "alpha", "values": [0.2, 0.9]}},
            harness.run_intervention,
        ),
    ],
    ids=["standard", "coinflip", "intervention"],
)
def test_parallel_equals_serial(raw, run):
    config = harness.load_config(raw)
    serial = run(config, jobs=1)
    parallel = run(config, jobs=2)
    assert repr(serial.rows) == repr(parallel.rows)  # every cell exactly, NaN included


@pytest.mark.parametrize(
    "section, message",
    [
        ({"baseline_seed_count": 600}, "baseline seed count 600 is not below n = 500"),
        ({"baseline_seed_count": 500}, "baseline seed count 500 is not below n = 500"),
        (
            {"baseline_seed_factor": 1000.0},
            "baseline_seed_factor 1000.0 x phi_critical 15 = baseline seed count 15000 is not below n = 500",
        ),
    ],
    ids=["count-600", "count-500", "factor-1000"],
)
def test_baseline_seed_count_must_be_below_n(section, message):
    # load_config resolves the baseline seed count, so no run starts with a bad one
    with pytest.raises(ConfigError, match=message):
        harness.load_config(_ring5_intervention(**section))
    assert harness.load_config(_ring5_intervention(baseline_seed_count=499)).intervention.baseline_seed_count == 499
    # the default factor 1.3 of the critical seed 15
    assert harness.load_config(_ring5_intervention()).intervention.baseline_seed_count == 20


def test_sweeps_read_only_typed_fields(monkeypatch):
    # load_config owns every critical seed and run size; the sweeps and their
    # workers read them from the config and never call the analytic layer
    configs = [
        base_config(graphs=2),
        base_config(thresholds={"coinflip": {"s": 1, "r_max": 20}}, sweep={"axis": "coin_z", "values": [0.3, 1.0]}),
        base_config(sweep={"axis": "seed_count", "values": [10, 60]}),
        _ring5_intervention() | {"graphs": 2},
    ]
    configs = [harness.load_config(raw) for raw in configs]

    def analytic_layer(*args):
        raise AssertionError("a sweep called the analytic layer")

    monkeypatch.setattr(harness, "critical_seed", analytic_layer)
    monkeypatch.setattr(harness, "AnalyticModel", analytic_layer)
    for config in configs:
        summary = harness.analytic_summary(config)
        assert [row["phi_critical"] for row in summary] == [r.phi_critical for r in config.critical]
        run = harness.run_dichotomy if config.intervention is None else harness.run_intervention
        assert run(config).rows


def _sweep_config(axis, value, **overrides):
    raw = base_config(sweep={"axis": axis, "values": [value]}, **overrides)
    if axis == "coin_z":
        raw["thresholds"] = {"coinflip": {"s": 1, "z": 0.5, "r_max": 20}}
    return raw


@pytest.mark.parametrize(
    "raw",
    [
        _sweep_config("zeta_fraction", 1.5),
        _sweep_config("coin_z", 1.7),
        _sweep_config("seed_count", -5),
        _sweep_config("seed_count", 2.5),
        _sweep_config("alpha", 1.5, intervention={"variant": "diminish"}),
        _sweep_config("alpha", 1.5, intervention={"variant": "bolster_a"}),
        base_config(trials=1.5),
        base_config(master_seed=-3),
        base_config(graphs=True),
        _intervention_config(baseline_seed_count=2.5),
        _intervention_config(baseline_seed_count=-1),
        _intervention_config(baseline_seed_count=True),
    ],
    ids=[
        "zeta_fraction-1.5",
        "coin_z-1.7",
        "seed_count--5",
        "seed_count-2.5",
        "alpha-1.5-diminish",
        "alpha-1.5-bolster_a",
        "trials-1.5",
        "master_seed--3",
        "graphs-true",
        "baseline_seed_count-2.5",
        "baseline_seed_count--1",
        "baseline_seed_count-true",
    ],
)
def test_config_rejects_out_of_range_sweep_and_count_values(raw):
    with pytest.raises(ConfigError):
        harness.load_config(raw)


def _graph_config(template, **graph):
    return base_config(graph={"template": template, "n": 1000, **graph})


@pytest.mark.parametrize(
    "raw",
    [
        _graph_config({"kind": "hexagon"}, p=0.01),
        _graph_config({"kind": "ring", "k": 10, "reach": 1}, n=1005, p=0.01),
        _graph_config({"kind": "single"}, p=1.5),
        _graph_config({"kind": "planted", "k": 2}, p=0.001, q=0.01),
        _graph_config({"kind": "single"}, n=0, p=0.01),
        _graph_config({"kind": "ring", "reach": 1}, p=0.01),
        _graph_config({"kind": "single"}, near_degree=5.0, far_degree=5.0),
        _graph_config({"kind": "single"}, p=0.01, far_degree=5.0),
        _graph_config({"kind": "single"}, n="1000", p=0.01),
        _graph_config({"kind": "single"}, p="0.01"),
        base_config(epsilon="0.1"),
        base_config(stop_fraction=None),
        _intervention_config(**{"lambda": "0.1"}),
    ],
    ids=[
        "unknown-template-kind",
        "n-not-divisible-by-k",
        "p-above-1",
        "q-above-p",
        "n-zero",
        "ring-without-k",
        "far_degree-on-single-block",
        "p-with-far_degree",
        "n-string",
        "p-string",
        "epsilon-string",
        "stop_fraction-null",
        "lambda-string",
    ],
)
def test_config_rejects_bad_graph_and_scalars_at_load(raw):
    with pytest.raises(ConfigError):
        harness.load_config(raw)


def _coinflip_config(**coin):
    law = {"s": 1, "z": 0.5, "r_max": 20, **coin}
    return base_config(thresholds={"coinflip": law}, sweep={"axis": "none", "values": [0]})


def _variant_config(variant, zeta=None, **section):
    raw = base_config(thresholds={"zeta": zeta or {"2": 0.5, "3": 0.5}}, sweep={"axis": "alpha", "values": [0.5]})
    raw["intervention"] = {"variant": variant, **section}
    return raw


_RAISE_BY_ONE = {"2": {"3": 1.0}, "3": {"4": 1.0}}


@pytest.mark.parametrize(
    "raw",
    [
        _graph_config({"kind": "ring", "k": 10.7, "reach": 1}, p=0.01),
        _graph_config({"kind": "ring", "k": 10, "reach": 1.9}, p=0.01),
        _graph_config({"kind": "planted", "k": 2.0}, p=0.01),
        _graph_config({"kind": "custom", "neighbors": {"0.5": [0]}}, p=0.01),
        base_config(thresholds={"zeta": {"2": "0.5", "3": "0.5"}}),
        base_config(thresholds={"zeta": {"2.5": 1.0}}),
        base_config(sweep={"axis": "zeta_fraction", "threshold": 3.5, "complement": 2, "values": [0.5]}),
        _coinflip_config(s="1"),
        _coinflip_config(z="0.5"),
        _coinflip_config(r_max=20.0),
        _variant_config("bolster", zeta={"3": 1.0}, zeta_prime={"3": {"2": 1.0}}, allow_weaken="false"),
        _variant_config("bolster", zeta_prime=_RAISE_BY_ONE, allow_weaken=0),
        _variant_config("bolster", zeta_prime=_RAISE_BY_ONE, save_vertices="true"),
        _variant_config("bolster", zeta_prime=_RAISE_BY_ONE, save_vertices=1),
        _variant_config("bolster", zeta_prime={"2": {"3": "1.0"}, "3": {"4": 1.0}}),
        _variant_config("bolster_a", compute_boundary="yes"),
        _variant_config("delay", r_max_prime=8.5),
        _variant_config("delay", z_prime="0.5"),
        _variant_config("diminish", alpha_q_ratio="1"),
    ],
    ids=[
        "ring-k-10.7",
        "ring-reach-1.9",
        "planted-k-float",
        "custom-cluster-key-0.5",
        "zeta-string-weights",
        "zeta-threshold-2.5",
        "sweep-threshold-3.5",
        "coinflip-s-string",
        "coinflip-z-string",
        "coinflip-r_max-float",
        "allow_weaken-string",
        "allow_weaken-int",
        "save_vertices-string",
        "save_vertices-int",
        "zeta_prime-string-weight",
        "compute_boundary-string",
        "r_max_prime-float",
        "z_prime-string",
        "alpha_q_ratio-string",
    ],
)
def test_config_rejects_coerced_fields_at_load(raw):
    with pytest.raises(ConfigError):
        harness.load_config(raw)


@pytest.mark.parametrize(
    "raw, message",
    [
        (base_config(graph=5), "graph must be an object"),
        (base_config(thresholds="x"), "thresholds must be an object"),
        (base_config(sweep={"axis": "none", "values": 0.5}), "sweep.values must be a non-empty"),
        (_sweep_config("alpha", 0.5, intervention=3), "intervention must be an object"),
        (
            base_config(thresholds={"coinflip": 7}, sweep={"axis": "none", "values": [0]}),
            "thresholds.coinflip must be an object",
        ),
        (_graph_config({"kind": "custom", "neighbors": 5}, p=0.01), "neighbors must be an object"),
        ([base_config()], "config must be an object"),
        (_graph_config("single", p=0.01), "graph.template must be an object"),
    ],
    ids=["graph", "thresholds", "sweep-values", "intervention", "coinflip", "neighbors", "list",
         "template-string"],
)
def test_config_rejects_sections_of_the_wrong_type(raw, message):
    # each raised a bare TypeError, ValueError or AttributeError, or (the
    # template string) a ConfigError about its letters as unknown keys
    with pytest.raises(ConfigError, match=message):
        harness.load_config(raw)


def test_custom_bolster_needs_a_law_for_every_drawable_threshold():
    with pytest.raises(ConfigError, match=r"no law for drawable thresholds \[3\]"):
        harness.load_config(_variant_config("bolster", zeta_prime={"2": {"3": 1.0}}))
    config = harness.load_config(_variant_config("bolster", zeta_prime=_RAISE_BY_ONE))
    assert config.intervention.variants[0].zeta_prime == {2: {3: 1.0}, 3: {4: 1.0}}


def test_intervention_plan_holds_one_typed_spec_per_alpha_point():
    raw = _variant_config("bolster_a", **{"lambda": 0.2})
    raw["sweep"]["values"] = [0, 0.5, 1]
    config = harness.load_config(raw)
    plan = config.intervention
    assert plan.alphas == (0.0, 0.5, 1.0) and all(type(a) is float for a in plan.alphas)
    assert plan.trigger_fraction == 0.2
    # every threshold the law can draw has a law, at every point
    assert [sorted(variant.zeta_prime) for variant in plan.variants] == [[2, 3]] * 3
    assert plan.variants[1].zeta_prime[3] == {4: 0.5, 5: 0.5}
    # the default baseline is 1.3 times the critical seed, resolved at load
    assert (config.stop_fraction, config.critical[0].phi_critical, plan.baseline_seed_count) == (0.8, 12, 16)
    assert plan.compute_boundary is True
    assert plan.variants == tuple(plan.variant_at(alpha) for alpha in plan.alphas)
    # off the grid, variant_at agrees with the public constructors of every kind
    def config_of(kind, **section):
        if kind in ("diminish", "sequester"):
            section["alpha_q_ratio"] = 0.4
        return harness.load_config(_variant_config(kind, **section))

    configs = {
        kind: config_of(kind) for kind in ("bolster_a", "bolster_b", "diminish", "sequester", "delay")
    }
    configs["fixed_delay"] = config_of("delay", z_prime=0.6, r_max_prime=8)
    configs["custom"] = config_of("bolster", zeta_prime=_RAISE_BY_ONE, save_vertices=True)
    plans = {name: config.intervention for name, config in configs.items()}
    # --jobs pickles the config, and so each plan's builder, to its workers
    unpickled = {name: pickle.loads(pickle.dumps(config)).intervention for name, config in configs.items()}
    drawable = (2, 3)
    for alpha in (0.13, 0.37, 0.81):
        assert plans["bolster_a"].variant_at(alpha) == iv.bolster_a(alpha, drawable)
        assert plans["bolster_b"].variant_at(alpha) == iv.bolster_b(alpha, drawable)
        assert plans["diminish"].variant_at(alpha) == iv.Diminish(alpha, 0.4 * alpha)
        assert plans["sequester"].variant_at(alpha) == iv.Sequester(alpha, 0.4 * alpha)
        assert plans["delay"].variant_at(alpha) == iv.delay(alpha, drawable, 20)
        assert plans["fixed_delay"].variant_at(alpha) == iv.delay(0.6, drawable, 8)
        # the custom law has no strength
        assert plans["custom"].variant_at(alpha) == iv.Bolster(
            {2: {3: 1.0}, 3: {4: 1.0}}, save_vertices=True
        )
        for name, plan in plans.items():
            assert unpickled[name].variant_at(alpha) == plan.variant_at(alpha), name


def _n200(**overrides):
    # critical seed 2 at every sweep point
    graph = {"template": {"kind": "single"}, "n": 200, "p": 0.05}
    return base_config(graph=graph, thresholds={"zeta": {"2": 1.0}}, **overrides)


def test_seed_counts_above_n_fail_before_any_graph(tmp_path, monkeypatch):
    def no_graph(*args):
        raise AssertionError("sampled a graph before the seed counts were checked")

    monkeypatch.setattr(harness, "sample_graph", no_graph)
    with pytest.raises(ConfigError, match="sweep value 5000: seed count 5000 is above n = 200"):
        harness.load_config(_n200(sweep={"axis": "seed_count", "values": [10, 5000]}))
    # one rule for a count given and a count the factor gives; it fails at load,
    # so the analytic command rejects the config too
    raw = _n200(sweep={"axis": "none", "values": [0]}, seed_factors=[1, 500])
    path = tmp_path / "n200.json"
    path.write_text(json.dumps(raw))
    message = "sweep value 0: seed factor 500 x phi_critical 2 = seed count 1000 is above n = 200"
    with pytest.raises(ConfigError, match=message):
        cli.main(["analytic", "-c", str(path)])
    config = harness.load_config(_n200(sweep={"axis": "none", "values": [0]}, seed_factors=[1, 100]))
    assert config.seed_counts == (((1, 2), (100, 200)),)


def test_point_without_seed_counts_samples_no_graph(monkeypatch):
    # p = 0 leaves the critical seed infinite, so the point has no runs to make
    graph = {"template": {"kind": "single"}, "n": 1000, "p": 0.0}
    config = harness.load_config(base_config(graph=graph, graphs=5, trials=2))
    assert config.seed_counts == ((),)

    def no_graph(*args):
        raise AssertionError("sampled a graph for a point with no runs")

    monkeypatch.setattr(harness, "sample_graph", no_graph)
    assert harness.run_dichotomy(config).rows == []


def test_config_accepts_sweep_and_count_boundaries():
    for raw in (
        _sweep_config("seed_count", 1000),
        _sweep_config("zeta_fraction", 1.0),
        _sweep_config("coin_z", 1.0),
        _sweep_config("seed_count", 0),
        _sweep_config("alpha", 0.0, intervention={"variant": "diminish"}),
        _sweep_config("alpha", 1.0, intervention={"variant": "bolster_a"}),
        base_config(master_seed=0, graphs=1, trials=1),
        _intervention_config(baseline_seed_count=0),
        base_config(seed_factors=[0, 2.5]),
    ):
        harness.load_config(raw)


def test_cli_seed_override_is_validated_and_keeps_the_config_hash(tmp_path, monkeypatch):
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(base_config()))
    monkeypatch.setattr(harness, "run_dichotomy", lambda *a, **k: pytest.fail("work started"))
    with pytest.raises(ConfigError):
        cli.main(["dichotomy", "-c", str(path), "--seed", "-3", "--out", str(tmp_path / "x")])
    # a top level that is not a JSON object is rejected with or without the override
    listed = tmp_path / "list.json"
    listed.write_text(json.dumps([base_config()]))
    for seed in (None, 12):
        with pytest.raises(ConfigError, match="config must be an object"):
            cli._load(argparse.Namespace(config=str(listed), seed=seed))
    args = argparse.Namespace(config=str(path), seed=12)
    overridden = cli._load(args)
    assert overridden.master_seed == 12
    # the hash of a valid override is the one the config with that seed written gets
    expected = harness.load_config({**base_config(), "master_seed": 12})
    assert overridden.config_hash == expected.config_hash
    assert overridden.config_hash != harness.load_config(base_config()).config_hash


def test_cli_seed_override_of_an_intervention_config(tmp_path):
    # the override is set on the file's dict as written; the hash also digests
    # defaults that no intervention run reads and that its config may not write
    path = tmp_path / "iv.json"
    path.write_text(json.dumps(_variant_config("bolster_a")))
    overridden = cli._load(argparse.Namespace(config=str(path), seed=12))
    assert overridden.master_seed == 12
    expected = harness.load_config({**_variant_config("bolster_a"), "master_seed": 12})
    assert overridden.config_hash == expected.config_hash
    normalized = {**_variant_config("bolster_a"), "master_seed": 12, "epsilon": 0.1}
    normalized.update(stop_fraction=0.9, seed_factors=[0.9, 1.1])
    normalized["intervention"] = {
        "variant": "bolster_a",
        "lambda": 0.1,
        "baseline_seed_factor": 1.3,
        "alpha_q_ratio": 1.0,
        "compute_boundary": True,
        "stop_fraction": 0.8,
    }
    canonical = json.dumps(normalized, sort_keys=True, separators=(",", ":"))
    assert overridden.config_hash == hashlib.sha256(canonical.encode()).hexdigest()[:16]
    with pytest.raises(ConfigError, match="does not read"):
        harness.load_config(normalized)


def test_jobs_rejected_below_one_and_capped_at_task_count(monkeypatch):
    started = []

    class SerialPool:
        """Records the requested worker count and maps in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    config = harness.load_config(base_config(graphs=2))
    serial = harness.run_dichotomy(config)
    assert harness.run_dichotomy(config, jobs=64).rows == serial.rows
    assert started == [2]
    for jobs in (0, -3):
        with pytest.raises(ConfigError, match="jobs"):
            harness.run_dichotomy(config, jobs=jobs)
    assert started == [2]


def test_rows_of_runs_finished_before_the_intervention_are_not_scored():
    # 95% of the vertices are seeds and the continuation stops at 90%, so
    # every run has spread at generation 0, past the trigger, before any
    # intervention acts; even Diminish(0, 0), which deletes every edge and
    # is predicted to halt, leaves it spread
    n = 10000
    config = harness.load_config(
        {
            "name": "iv-finished",
            "master_seed": 5,
            "graph": {"template": {"kind": "single"}, "n": n, "p": 7 / n},
            "thresholds": {"zeta": {"2": 1.0}},
            "sweep": {"axis": "alpha", "values": [0.0, 1.0]},
            "graphs": 2,
            "trials": 1,
            "intervention": {
                "variant": "diminish",
                "lambda": 0.1,
                "baseline_seed_count": 9500,
                "stop_fraction": 0.9,
                "compute_boundary": False,
            },
        }
    )
    rows = harness.run_intervention(config).rows
    assert len(rows) == 4
    for row in rows:
        assert row["triggered"] and row["i_cur"] == 9500
        assert row["actual"] == "spread"
        assert row["agree"] is None
    assert {row["predicted"] for row in rows if row["alpha"] == 0.0} == {"predicted-halt"}


def test_analytic_summary_shape():
    config = harness.load_config(
        base_config(sweep={"axis": "zeta_fraction", "threshold": 3, "complement": 2,
                           "values": [0.0, 0.5, 1.0]})
    )
    rows = harness.analytic_summary(config)
    assert [row["value"] for row in rows] == [0.0, 0.5, 1.0]
    assert all(row["phi_critical"] > 0 for row in rows)
    # weaker thresholds (all twos) percolate easier
    assert rows[0]["phi_critical"] <= rows[2]["phi_critical"]


def test_coinflip_sweep_path():
    n = 2000
    config = harness.load_config(
        {
            "name": "coin-unit",
            "master_seed": 5,
            "graph": {"template": {"kind": "single"}, "n": n, "p": 10 / n},
            "thresholds": {"coinflip": {"s": 1, "z": 0.5, "r_max": 20}},
            "sweep": {"axis": "coin_z", "values": [1.0]},
            "graphs": 1,
            "trials": 2,
        }
    )
    table = harness.run_dichotomy(config)
    assert len(table.rows) == 4  # two factors, two trials
    dist = config.laws[0]
    assert dist.zeta[1] == 1.0  # z = 1 collapses to threshold s + 1


def test_cli_analytic_prints_json_for_every_bench_and_golden_config(tmp_path, capsys):
    from test_golden import CONFIGS

    paths = sorted((Path(__file__).resolve().parents[1] / "bench" / "configs").glob("*.json"))
    assert paths
    for name, raw in CONFIGS.items():
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(raw))
    for path in paths:
        assert cli.main(["analytic", "-c", str(path)]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rows and all(type(row["within_theory"]) is bool for row in rows), path


def test_coinflip_table_outside_theory_writes_json_booleans(tmp_path):
    # s = 0 puts half the mass on threshold 1, outside the theorem
    raw = _coinflip_config(s=0)
    raw["graph"] = {"template": {"kind": "single"}, "n": 1000, "near_degree": 10.0}
    table = harness.run_dichotomy(harness.load_config(raw))
    assert table.rows
    harness.emit(table, str(tmp_path / "s0"))
    with open(tmp_path / "s0.csv", newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert {row["within_theory"] for row in rows} == {"false"}
    lines = (tmp_path / "s0.jsonl").read_text().splitlines()
    assert [json.loads(line)["within_theory"] for line in lines[1:]] == [False] * len(rows)


def test_cli_analytic_and_validate(tmp_path, capsys):
    from tmperc.cli import main

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config()))
    assert main(["analytic", "-c", str(path)]) == 0
    out = capsys.readouterr().out
    assert "phi_critical" in out
    assert main(["dichotomy", "-c", str(path), "--out", str(tmp_path / "rows")]) == 0
    assert (tmp_path / "rows.csv").exists()


def _n400(**overrides):
    graph = {"template": {"kind": "single"}, "n": 400, "p": 0.02}
    fields = {"master_seed": 5, "trials": 3, "sweep": {"axis": "none", "values": [0]}}
    return base_config(graph=graph, thresholds={"zeta": {"2": 1.0}}, **{**fields, **overrides})


def test_seed_factors_sharing_a_substream_are_rejected():
    # a factor picks its seed substream by round(1000 * factor), so 1.0 and
    # 1.0004 drew the same seeds and emitted identical trials
    with pytest.raises(ConfigError, match=r"seed_factors \[1.0, 1.0004\] share RNG substreams"):
        harness.load_config(_n400(seed_factors=[1.0, 1.0004]))
    # epsilon = 0 makes the default factors [1.0, 1.0]
    with pytest.raises(ConfigError, match=r"\[1.0, 1.0\] share .*give seed_factors"):
        harness.load_config(_n400(epsilon=0.0))
    runs = harness.load_config(_n400(seed_factors=[1.0, 1.0006])).seed_counts[0]
    assert [harness._factor_key(f) for f, _ in runs] == [1000, 1001]
    # the seed-count axis reads no factor
    harness.load_config(_n400(epsilon=0.0, sweep={"axis": "seed_count", "values": [10]}))


@pytest.mark.parametrize(
    "raw",
    [
        {**_variant_config("bolster_a"), "trials": 3},
        {**_variant_config("bolster_a"), "seed_factors": [0.9, 1.1]},
        {**_variant_config("diminish"), "stop_fraction": 0.7},
        _variant_config("bolster_a", save_vertices=True),
        _variant_config("delay", allow_weaken=True),
        _variant_config("diminish", zeta_prime=_RAISE_BY_ONE),
        _variant_config("bolster", zeta_prime=_RAISE_BY_ONE, z_prime=0.5),
        _variant_config("sequester", r_max_prime=8),
        _variant_config("bolster_a", alpha_q_ratio=0.5),
        _variant_config("bolster_b", alpha_q_ratio=1.0),
        _variant_config("bolster", zeta_prime=_RAISE_BY_ONE, alpha_q_ratio=0.5),
        _variant_config("delay", alpha_q_ratio=0.5),
    ],
    ids=[
        "trials-3",
        "seed_factors",
        "top-level-stop_fraction",
        "save_vertices-on-bolster_a",
        "allow_weaken-on-delay",
        "zeta_prime-on-diminish",
        "z_prime-on-bolster",
        "r_max_prime-on-sequester",
        "alpha_q_ratio-on-bolster_a",
        "alpha_q_ratio-on-bolster_b",
        "alpha_q_ratio-on-bolster",
        "alpha_q_ratio-on-delay",
    ],
)
def test_intervention_config_rejects_keys_its_run_ignores(raw):
    # each loaded and changed nothing: bolster_a with save_vertices built a
    # variant that does not save vertices
    with pytest.raises(ConfigError, match="one trial per graph|do not read|does not read"):
        harness.load_config(raw)


@pytest.mark.parametrize(
    "flags", [["--seed", "3"], ["--jobs", "7"], ["--out", "x"]], ids=["seed", "jobs", "out"]
)
def test_cli_analytic_rejects_options_it_ignores(tmp_path, capsys, flags):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config()))
    with pytest.raises(SystemExit) as exc:
        cli.main(["analytic", "-c", str(path), *flags])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


ROOT = Path(__file__).resolve().parents[1]
# the config_hash each of these configs writes into its CSV header; a refactor of
# load_config must keep every one
PINNED_HASHES = {
    "bench/coinflip": "f58a7936bd3be897",
    "bench/dichotomy": "bbd341f6ddb69efb",
    "bench/intervene_bolster_a": "196c9044918b1f36",
    "bench/intervene_diminish_ring": "92c2e52d0ad9f6f7",
    "golden/bolster": "ceac9695d4cf4a0e",
    "golden/bolster_b": "867b33930797086b",
    "golden/coinflip": "8867247de507520d",
    "golden/delay": "e9fafe6bda370505",
    "golden/dichotomy": "ad85fceb4603bbd4",
    "golden/diminish": "c4c318b1581c27ae",
    "golden/sequester": "91cd992f82afca81",
}


def test_config_hashes_of_the_bench_and_golden_configs_are_pinned():
    from test_golden import CONFIGS

    configs = {f"golden/{name}": raw for name, raw in CONFIGS.items()}
    for path in (ROOT / "bench" / "configs").glob("*.json"):
        configs[f"bench/{path.stem}"] = json.loads(path.read_text())
    hashes = {key: harness.load_config(raw).config_hash for key, raw in configs.items()}
    assert hashes == PINNED_HASHES


def _coin_axis(axis, values, **law):
    return base_config(
        thresholds={"coinflip": {"s": 1, "r_max": 20, **law}},
        sweep={"axis": axis, "values": values},
    )


@pytest.mark.parametrize(
    "raw, message",
    [
        (base_config(sweep={"axis": "none", "values": [0], "threshold": 3}), "does not read"),
        (base_config(sweep={"axis": "seed_count", "values": [10], "complement": 2}), "does not read"),
        (
            _graph_config({"kind": "single", "k": 7, "reach": 3}, p=0.01)
            | {"sweep": {"axis": "none", "values": [0], "threshold": 9}},
            r"does not read \['k', 'reach'\]",
        ),
        (_graph_config({"kind": "cube3", "k": 8}, p=0.01), "does not read"),
        (_graph_config({"kind": "planted", "k": 2, "reach": 1}, p=0.01), "does not read"),
        (
            _graph_config({"kind": "ring", "k": 10, "reach": 1, "neighbors": {"0": [0]}}, p=0.01),
            "does not read",
        ),
        (_coin_axis("coin_z", [0.5], z="half"), "coinflip z 'half' is not a number"),
        (_coin_axis("zeta_fraction", ["abc", None], z=0.5), "'abc' is not a number"),
        (_coin_axis("zeta_fraction", [0.5], z=0.5), "zeta_fraction axis sweeps a zeta law"),
        (base_config(sweep={"axis": "coin_z", "values": [0.5]}), "coin_z axis sweeps a coinflip"),
        (base_config(sweep={"axis": "none", "values": ["a,b"]}), "'a,b' is not a number"),
        (base_config(name="two\nlines"), "one-line string"),
        (base_config(name=5), "one-line string"),
        (base_config(name=""), "one-line string"),
        (base_config(sweep={"axis": "alpha", "values": [0.1, 0.9]}), "add an intervention"),
        (base_config(output=5), "output 5 is not a non-empty string or null"),
        (base_config(output=""), "output '' is not a non-empty string or null"),
        (
            _n400(seed_factors=[0.5, 7.0], sweep={"axis": "seed_count", "values": [10]}),
            "seed_count axis gives the seed counts; drop seed_factors",
        ),
        (
            _graph_config({"kind": "single"}, p=0.0035, q=0.002),
            "q or far_degree 0.002 given but the template has no far clusters",
        ),
        (
            _intervention_config(baseline_seed_count=10, baseline_seed_factor=9.0),
            "baseline_seed_count gives the baseline seeds; drop baseline_seed_factor",
        ),
        (
            _variant_config("bolster", zeta_prime={"2": {"3": 1.5, "4": -0.5}, "3": {"4": 1.0}}),
            "reassignment law for r=2 has a negative weight",
        ),
        (
            base_config(thresholds={"zeta": {"2": math.nan}}, sweep={"axis": "none", "values": [0]}),
            "threshold distribution has a non-finite weight",
        ),
        (
            _variant_config("bolster", zeta_prime={"2": {"3": math.nan}, "3": {"4": 1.0}}),
            "reassignment law for r=2 has a non-finite weight",
        ),
        (
            base_config(
                thresholds={"zeta": {"2": math.inf, "3": math.nan}}, sweep={"axis": "none", "values": [0]}
            ),
            "threshold distribution has a non-finite weight",
        ),
        (_intervention_config(baseline_seed_factor=math.nan), "baseline_seed_factor nan is not finite"),
        (_intervention_config(baseline_seed_factor=math.inf), "baseline_seed_factor inf is not finite"),
        (_intervention_config(baseline_seed_factor=-1.0), r"baseline_seed_factor -1.0 is not finite and >= 0"),
        (
            _n400(sweep={"axis": "zeta_fraction", "values": [math.nan]}),
            r"zeta_fraction sweep value nan outside \[0, 1\]",
        ),
        (
            _n400(sweep={"axis": "zeta_fraction", "values": [0.5, 1.5]}),
            r"zeta_fraction sweep value 1.5 outside \[0, 1\]",
        ),
        (
            _n400(sweep={"axis": "zeta_fraction", "values": [-0.5]}),
            r"zeta_fraction sweep value -0.5 outside \[0, 1\]",
        ),
        # phi = 0.5 > 1/3 leaves no analytic horizon
        (_graph_config({"kind": "single"}, n=100, p=0.5), "graph: empty horizon"),
        (
            _intervention_config(baseline_seed_count=10)
            | {"graph": {"template": {"kind": "single"}, "n": 100, "p": 0.5}},
            "graph: empty horizon",
        ),
        *(
            (
                base_config(sweep={"axis": "zeta_fraction", "threshold": 2, "complement": 2,
                                   "values": [value]}),
                "sweep threshold and complement are both 2",
            )
            for value in (0.0, 0.5, 1.0)
        ),
        (
            base_config(thresholds={"zeta": {"2": 1.0}}, sweep={"axis": "zeta_fraction", "values": [0.5]}),
            "sweep threshold and complement are both 2",
        ),
        # the zeta_fraction axis replaces these laws, which loaded unchecked
        (base_config(thresholds={"zeta": {"2": 5.0, "7": -3.0}}), "zeta: threshold distribution has a negative"),
        (base_config(thresholds={"zeta": {"0": 1.0}}), r"zeta: thresholds must be >= 1, got \[0\]"),
        (base_config(thresholds={"zeta": {"2": math.nan, "3": 0.1}}), "zeta: threshold distribution has a non-finite"),
        # at alpha = 0 a negative ratio gave the valid far retention -0.0
        *(
            (
                _sweep_config("alpha", 0.0, intervention={"variant": "diminish", "alpha_q_ratio": ratio}),
                re.escape(f"alpha_q_ratio {ratio!r} is not finite and >= 0"),
            )
            for ratio in (-1.0, -1e300, math.inf)
        ),
        (
            _ring5_intervention() | {"graph": {"template": {"kind": "ring", "k": 5, "reach": 1}, "n": 500, "p": 0.0}},
            "baseline has no finite critical seed; set baseline_seed_count",
        ),
    ],
    ids=[
        "threshold-off-zeta_fraction",
        "complement-off-zeta_fraction",
        "k-and-reach-on-single",
        "k-on-cube3",
        "reach-on-planted",
        "neighbors-on-ring",
        "coin_z-with-string-z",
        "coinflip-law-on-zeta_fraction-with-text-values",
        "coinflip-law-on-zeta_fraction",
        "zeta-law-on-coin_z",
        "text-sweep-value",
        "two-line-name",
        "integer-name",
        "empty-name",
        "alpha-axis-without-intervention",
        "integer-output",
        "empty-output",
        "seed_factors-on-seed_count",
        "q-on-single-block",
        "baseline_seed_factor-beside-count",
        "bolster-negative-weight",
        "zeta-nan-weight",
        "zeta_prime-nan-weight",
        "zeta-infinite-weight-beside-nan",
        "baseline_seed_factor-nan",
        "baseline_seed_factor-inf",
        "baseline_seed_factor-negative",
        "zeta_fraction-nan",
        "zeta_fraction-above-1",
        "zeta_fraction-below-0",
        "empty-horizon",
        "empty-horizon-with-baseline_seed_count",
        "zeta_fraction-one-threshold-at-0",
        "zeta_fraction-one-threshold-at-0.5",
        "zeta_fraction-one-threshold-at-1",
        "zeta_fraction-one-threshold-by-default",
        "zeta_fraction-over-negative-zeta",
        "zeta_fraction-over-threshold-0-zeta",
        "zeta_fraction-over-nan-zeta",
        "alpha_q_ratio-negative",
        "alpha_q_ratio-huge-negative",
        "alpha_q_ratio-inf",
        "edgeless-baseline-factor",
    ],
)
def test_config_rejects_keys_and_values_its_run_ignores_or_cannot_write(raw, message):
    # each loaded: the key, the law or the sweep went unread, the value broke
    # the CSV's rows, its "# config_hash=... name=..." line or its write, a
    # law summing to 1 with a negative weight failed only when graphs were
    # sampled, a NaN weight hung the critical-seed search, or a bad baseline
    # seed factor failed only when the run computed its seed count, a
    # zeta_fraction outside [0, 1] failed with a message that named no axis,
    # a graph with no analytic horizon failed in every command's critical
    # seed, a zeta_fraction threshold equal to its complement failed or
    # ran one law at every point, a zeta_fraction sweep ignored a bad zeta,
    # a negative alpha_q_ratio ran as 1.0 at alpha = 0, or a baseline with no
    # finite critical seed failed only when the run computed its seed count
    with pytest.raises(ConfigError, match=message):
        harness.load_config(raw)


def test_seed_count_axis_runs_the_given_counts(tmp_path):
    config = harness.load_config(_n400(graphs=2, sweep={"axis": "seed_count", "values": [10, 60]}))
    table = harness.run_dichotomy(config)
    assert [row["seed_count"] for row in table.rows] == [10] * 6 + [60] * 6  # 2 graphs x 3 trials
    assert all(math.isnan(row["seed_factor"]) for row in table.rows)
    harness.emit(table, str(tmp_path / "rows"))
    with open(tmp_path / "rows.csv", newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert [(row["seed_factor"], row["seed_count"]) for row in rows] == [
        ("nan", str(row["seed_count"])) for row in table.rows
    ]
    with open(tmp_path / "rows.jsonl") as fh:
        lines = [json.loads(line) for line in fh][1:]
    assert [(line["seed_factor"], line["seed_count"]) for line in lines] == [
        (None, row["seed_count"]) for row in table.rows
    ]
    assert repr(harness.run_dichotomy(config, jobs=2).rows) == repr(table.rows)


def test_sweep_values_are_numbers_written_as_given(tmp_path):
    for law in ({}, {"z": 0.7}):  # a written z is checked, and the axis replaces it
        config = harness.load_config(_coin_axis("coin_z", [1, 0.5], **law))
        assert [coin.z for coin in config.coins] == [1.0, 0.5]
    config = harness.load_config(_n400(sweep={"axis": "none", "values": [0, 2.5]}, seed_factors=[1, 2.5]))
    assert config.sweep_values == (0, 2.5) and type(config.sweep_values[0]) is int
    # seed factors too: an integer factor stays an integer in the CSV and the JSON lines
    assert config.seed_counts == (((1, 4), (2.5, 10)),) * 2 and type(config.seed_counts[0][0][0]) is int
    harness.emit(harness.run_dichotomy(config), str(tmp_path / "rows"))
    with open(tmp_path / "rows.csv", newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert {row["value"] for row in rows} == {"0", "2.5"}
    assert {(row["seed_factor"], row["seed_count"]) for row in rows} == {("1", "4"), ("2.5", "10")}
    lines = [json.loads(line) for line in (tmp_path / "rows.jsonl").read_text().splitlines()[1:]]
    assert {(type(line["seed_factor"]), line["seed_factor"]) for line in lines} == {(int, 1), (float, 2.5)}
