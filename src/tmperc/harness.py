"""Experiment harness: config parsing, sweep drivers, and tabular output.

Configs are JSON with nested sections; unknown keys are rejected so typos
fail loudly.  Every row of a result table is regenerable from the config
plus the master seed: each (sweep point, graph, trial) work item draws from
its own RNG substream, and rows are sorted canonically, so parallel and
serial execution emit identical files.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

import numpy as np

from . import rngutil
from .analytic import AnalyticModel, CoinflipModel, coinflip_reduce, critical_seed
from .engine import (
    EngineConfig,
    CoinflipState,
    run_coinflip,
    run_standard,
)
from .intervention import (
    Bolster,
    Delay,
    Diminish,
    InterventionSpec,
    Sequester,
    apply_in_simulation,
    bolster_a,
    bolster_b,
    boundary_scan,
    build_profile,
    build_surrogate,
    predict,
    run_to_trigger,
    snapshot_observed,
)
from .template import TemplateGraph, from_neighbors, make_cube3, make_planted, make_ring, make_single
from .tmgraph import (
    TMParams,
    ThresholdDistribution,
    assign_thresholds,
    sample_graph,
    select_seeds,
)

__all__ = [
    "ExperimentConfig",
    "ResultTable",
    "load_config",
    "config_hash",
    "template_from_spec",
    "params_from_config",
    "distribution_at",
    "analytic_summary",
    "run_dichotomy",
    "run_intervention",
    "emit",
    "read_table",
]


class ConfigError(ValueError):
    pass


def _require_keys(section: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


_TEMPLATE_KEYS = {"kind", "k", "reach", "neighbors"}
_GRAPH_KEYS = {"template", "n", "p", "q", "near_degree", "far_degree"}
_THRESHOLD_KEYS = {"zeta", "coinflip"}
_COINFLIP_KEYS = {"s", "z", "r_max"}
_SWEEP_KEYS = {"axis", "values", "threshold", "complement"}
_INTERVENTION_KEYS = {
    "variant",
    "lambda",
    "baseline_seed_factor",
    "baseline_seed_count",
    "alpha_q_ratio",
    "zeta_prime",
    "z_prime",
    "r_max_prime",
    "allow_weaken",
    "save_vertices",
    "compute_boundary",
    "stop_fraction",
}
_TOP_KEYS = {
    "name",
    "master_seed",
    "graph",
    "thresholds",
    "sweep",
    "graphs",
    "trials",
    "epsilon",
    "stop_fraction",
    "seed_factors",
    "seed_counts",
    "intervention",
    "output",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; ``raw`` keeps the normalized dict."""

    raw: dict

    @property
    def name(self) -> str:
        return self.raw["name"]

    @property
    def master_seed(self) -> int:
        return self.raw["master_seed"]

    @property
    def graphs(self) -> int:
        return self.raw["graphs"]

    @property
    def trials(self) -> int:
        return self.raw["trials"]

    @property
    def epsilon(self) -> float:
        return self.raw["epsilon"]

    @property
    def stop_fraction(self) -> float:
        return self.raw["stop_fraction"]

    @property
    def sweep_values(self) -> list:
        return self.raw["sweep"]["values"]

    @property
    def intervention(self) -> dict | None:
        return self.raw.get("intervention")

    @property
    def output(self) -> str | None:
        return self.raw.get("output")


def load_config(source: str | Mapping[str, Any]) -> ExperimentConfig:
    """Parse and normalize a config from a JSON path or an in-memory mapping."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = dict(source)
    _require_keys(data, _TOP_KEYS, "config")
    for key in ("name", "graph", "thresholds", "sweep"):
        if key not in data:
            raise ConfigError(f"config missing required key {key!r}")
    out = dict(data)
    out.setdefault("master_seed", 0)
    out.setdefault("graphs", 50)
    out.setdefault("trials", 50)
    out.setdefault("epsilon", 0.1)
    out.setdefault("stop_fraction", 0.9)
    out.setdefault("seed_factors", [1.0 - out["epsilon"], 1.0 + out["epsilon"]])
    graph = dict(out["graph"])
    _require_keys(graph, _GRAPH_KEYS, "graph")
    if "template" not in graph or "n" not in graph:
        raise ConfigError("graph section needs 'template' and 'n'")
    template = dict(graph["template"])
    _require_keys(template, _TEMPLATE_KEYS, "graph.template")
    by_prob = "p" in graph
    by_degree = "near_degree" in graph
    if by_prob == by_degree:
        raise ConfigError("specify the graph by p/q or by near_degree/far_degree, not both")
    out["graph"] = graph
    thresholds = dict(out["thresholds"])
    _require_keys(thresholds, _THRESHOLD_KEYS, "thresholds")
    if ("zeta" in thresholds) == ("coinflip" in thresholds):
        raise ConfigError("thresholds section needs exactly one of 'zeta' or 'coinflip'")
    if "coinflip" in thresholds:
        _require_keys(dict(thresholds["coinflip"]), _COINFLIP_KEYS, "thresholds.coinflip")
    out["thresholds"] = thresholds
    sweep = dict(out["sweep"])
    _require_keys(sweep, _SWEEP_KEYS, "sweep")
    if sweep.get("axis") not in ("zeta_fraction", "coin_z", "alpha", "seed_count", "none"):
        raise ConfigError(f"unknown sweep axis {sweep.get('axis')!r}")
    if not sweep.get("values"):
        raise ConfigError("sweep.values must be non-empty")
    out["sweep"] = sweep
    if "intervention" in out and out["intervention"] is not None:
        iv_section = dict(out["intervention"])
        _require_keys(iv_section, _INTERVENTION_KEYS, "intervention")
        iv_section.setdefault("lambda", 0.1)
        iv_section.setdefault("baseline_seed_factor", 1.3)
        iv_section.setdefault("alpha_q_ratio", 1.0)
        iv_section.setdefault("compute_boundary", True)
        # post-intervention threshold mixes finish near 90%, so the spread
        # verdict for continuations uses a lower cutoff by default
        iv_section.setdefault("stop_fraction", 0.8)
        out["intervention"] = iv_section
    if out["trials"] < 1 or out["graphs"] < 1:
        raise ConfigError("graphs and trials must be >= 1")
    return ExperimentConfig(out)


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(config.raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def template_from_spec(spec: Mapping[str, Any]) -> TemplateGraph:
    kind = spec.get("kind")
    if kind == "single":
        return make_single()
    if kind == "ring":
        return make_ring(int(spec["k"]), int(spec["reach"]))
    if kind == "cube3":
        return make_cube3()
    if kind == "planted":
        return make_planted(int(spec["k"]))
    if kind == "custom":
        return from_neighbors({int(i): set(v) for i, v in spec["neighbors"].items()})
    raise ConfigError(f"unknown template kind {kind!r}")


def params_from_config(config: ExperimentConfig) -> TMParams:
    graph = config.raw["graph"]
    template = template_from_spec(graph["template"])
    n = int(graph["n"])
    if "p" in graph:
        p = float(graph["p"])
        q = float(graph.get("q", 0.0))
    else:
        eta = n / template.k
        p = float(graph["near_degree"]) / (template.k_p * eta)
        if template.k_q > 0:
            q = float(graph.get("far_degree", 0.0)) / (template.k_q * eta)
        else:
            if float(graph.get("far_degree", 0.0)) != 0.0:
                raise ConfigError("far_degree given but the template has no far clusters")
            q = 0.0
    return TMParams(template, n, p, q)


def distribution_at(config: ExperimentConfig, value: float | None) -> ThresholdDistribution:
    """Threshold distribution at one sweep point (value=None for the base law)."""
    thresholds = config.raw["thresholds"]
    axis = config.raw["sweep"]["axis"]
    if "zeta" in thresholds:
        zeta = {int(r): float(w) for r, w in thresholds["zeta"].items()}
        if axis == "zeta_fraction" and value is not None:
            high = int(config.raw["sweep"].get("threshold", max(zeta)))
            low = int(config.raw["sweep"].get("complement", min(zeta)))
            zeta = {low: 1.0 - float(value), high: float(value)}
            zeta = {r: w for r, w in zeta.items() if w > 0.0}
        return ThresholdDistribution.from_mapping(zeta)
    cf = thresholds["coinflip"]
    z = float(cf["z"])
    if axis == "coin_z" and value is not None:
        z = float(value)
    model = CoinflipModel({int(cf["s"]): 1.0}, z, int(cf["r_max"]))
    return coinflip_reduce(model)


def _coinflip_state(config: ExperimentConfig, n: int, value: float | None) -> CoinflipState | None:
    thresholds = config.raw["thresholds"]
    if "coinflip" not in thresholds:
        return None
    cf = thresholds["coinflip"]
    z = float(cf["z"])
    if config.raw["sweep"]["axis"] == "coin_z" and value is not None:
        z = float(value)
    return CoinflipState.uniform(n, int(cf["s"]), z, int(cf["r_max"]))


@dataclass
class ResultTable:
    name: str
    config_hash: str
    columns: list[str]
    rows: list[dict]

    def sorted_rows(self) -> list[dict]:
        def key(row: dict):
            return tuple(
                (v is None, v if v is not None else 0) for v in (row.get(c) for c in self.columns)
            )

        return sorted(self.rows, key=key)


# ---------------------------------------------------------------------------
# dichotomy experiments

_DICHOTOMY_COLUMNS = [
    "point",
    "value",
    "seed_factor",
    "seed_count",
    "graph",
    "trial",
    "verdict",
    "final_fraction",
    "tau_end",
    "phi_critical",
    "t_star",
    "within_theory",
]


def analytic_summary(config: ExperimentConfig) -> list[dict]:
    """Critical seed size and assumption report for every sweep point."""
    params = params_from_config(config)
    rows = []
    for idx, value in enumerate(config.sweep_values):
        dist = distribution_at(config, value)
        model = AnalyticModel(params, dist)
        result = critical_seed(model)
        rows.append(
            {
                "point": idx,
                "value": value,
                "phi_critical": result.phi_critical,
                "t_star": result.t_star,
                "t_max": result.t_max,
                **result.assumptions.to_dict(),
            }
        )
    return rows


def _factor_key(factor: float) -> int:
    """Substream index of a seed factor (0 for the seed-count axis's NaN)."""
    return int(round(factor * 1000)) if not math.isnan(factor) else 0


def _dichotomy_graph_task(args: tuple) -> list[dict]:
    raw, point_idx, graph_idx, result = args
    config = ExperimentConfig(raw)
    params = params_from_config(config)
    value = config.sweep_values[point_idx]
    dist = distribution_at(config, value)
    phi_crit = result.phi_critical
    seed = config.master_seed
    engine_config = EngineConfig(stop_fraction=config.stop_fraction)
    g = sample_graph(params, rngutil.substream(seed, rngutil.GRAPH, point_idx, graph_idx))
    cf_base = _coinflip_state(config, params.n, value)
    if cf_base is None:
        thresholds = assign_thresholds(
            dist, params.n, rngutil.substream(seed, rngutil.THRESHOLDS, point_idx, graph_idx)
        )
    else:
        thresholds = None
    rows: list[dict] = []
    seed_counts: list[tuple[float, int]] = []
    if config.raw["sweep"]["axis"] == "seed_count":
        seed_counts.append((float("nan"), int(value)))
    else:
        for factor in config.raw["seed_factors"]:
            if phi_crit is None:
                continue
            seed_counts.append((factor, int(round(factor * phi_crit))))
    for factor, count in seed_counts:
        for trial in range(config.trials):
            key = (point_idx, graph_idx, trial, _factor_key(factor))
            stream = rngutil.substream(seed, rngutil.ENGINE, *key)
            seeds = select_seeds(
                min(count, params.n), params.n, rngutil.substream(seed, rngutil.SEEDS, *key)
            )
            if cf_base is None:
                trace = run_standard(g, thresholds, seeds, engine_config)
            else:
                trace = run_coinflip(g, cf_base, seeds, engine_config, stream)
            rows.append(
                {
                    "point": point_idx,
                    "value": value,
                    "seed_factor": factor,
                    "seed_count": count,
                    "graph": graph_idx,
                    "trial": trial,
                    "verdict": trace.verdict,
                    "final_fraction": trace.final_fraction,
                    "tau_end": trace.tau_end,
                    "phi_critical": phi_crit,
                    "t_star": result.t_star,
                    "within_theory": result.assumptions.within_theory,
                }
            )
    return rows


def run_dichotomy(config: ExperimentConfig, jobs: int = 1) -> ResultTable:
    """Simulate around the analytic critical seed size for every sweep point."""
    if config.intervention is not None:
        raise ConfigError("dichotomy configs must not carry an intervention section")
    params = params_from_config(config)
    tasks = []
    for point_idx, value in enumerate(config.sweep_values):
        result = critical_seed(AnalyticModel(params, distribution_at(config, value)))
        tasks.extend((config.raw, point_idx, g_idx, result) for g_idx in range(config.graphs))
    rows: list[dict] = []
    for chunk in _execute(tasks, _dichotomy_graph_task, jobs):
        rows.extend(chunk)
    table = ResultTable(config.name, config_hash(config), list(_DICHOTOMY_COLUMNS), rows)
    table.rows = table.sorted_rows()
    return table


# ---------------------------------------------------------------------------
# intervention experiments

_INTERVENTION_COLUMNS = [
    "point",
    "alpha",
    "graph",
    "triggered",
    "i_cur",
    "i_prev",
    "growth",
    "healthy",
    "phi_J",
    "Phi_J",
    "predicted",
    "actual",
    "final_fraction",
    "agree",
    "boundary_i_cur",
    "too_late",
    "j_decay_ok",
]


def _variant_at(section: Mapping[str, Any], alpha: float, thresholds: tuple[int, ...]):
    kind = section["variant"]
    if kind == "bolster_a":
        return bolster_a(alpha, thresholds)
    if kind == "bolster_b":
        return bolster_b(alpha, thresholds)
    if kind == "bolster":
        law = {
            int(r): {int(v): float(w) for v, w in inner.items()}
            for r, inner in section["zeta_prime"].items()
        }
        return Bolster(
            law,
            allow_weaken=bool(section.get("allow_weaken", False)),
            save_vertices=bool(section.get("save_vertices", False)),
        )
    if kind == "delay":
        z_prime = float(section.get("z_prime", alpha))
        return Delay(z_prime, int(section.get("r_max_prime", 20)))
    if kind == "diminish":
        return Diminish(alpha, alpha * float(section.get("alpha_q_ratio", 1.0)))
    if kind == "sequester":
        return Sequester(alpha, alpha * float(section.get("alpha_q_ratio", 1.0)))
    raise ConfigError(f"unknown intervention variant {kind!r}")


def _baseline_seed_count(config: ExperimentConfig) -> int:
    """Seed count of the baseline runs: given, or a factor of the critical seed."""
    section = config.intervention
    if "baseline_seed_count" in section:
        return int(section["baseline_seed_count"])
    model = AnalyticModel(params_from_config(config), distribution_at(config, None))
    phi_crit = critical_seed(model).phi_critical
    if phi_crit is None:
        raise ConfigError("baseline has no finite critical seed; set baseline_seed_count")
    return int(round(section["baseline_seed_factor"] * phi_crit))


def _intervention_graph_task(args: tuple) -> list[dict]:
    raw, graph_idx, baseline = args
    config = ExperimentConfig(raw)
    section = config.intervention
    assert section is not None
    params = params_from_config(config)
    dist = distribution_at(config, None)
    seed = config.master_seed
    g = sample_graph(params, rngutil.substream(seed, rngutil.GRAPH, 0, graph_idx))
    thresholds = assign_thresholds(
        dist, params.n, rngutil.substream(seed, rngutil.THRESHOLDS, 0, graph_idx)
    )
    seeds = select_seeds(
        baseline, params.n, rngutil.substream(seed, rngutil.SEEDS, 0, graph_idx)
    )
    engine_config = EngineConfig(stop_fraction=float(section["stop_fraction"]))
    lam = float(section["lambda"])
    thresholds_present = tuple(sorted(int(v) for v in np.unique(thresholds)))
    probe_spec = InterventionSpec(
        _variant_at(section, float(config.sweep_values[0]), thresholds_present), lam
    )
    run, triggered = run_to_trigger(g, thresholds, seeds, probe_spec, engine_config)
    rows: list[dict] = []
    if not triggered:
        rows.append(
            {
                "point": -1,
                "alpha": math.nan,
                "graph": graph_idx,
                "triggered": False,
                "i_cur": int(run.totals[-1]),
                "i_prev": int(run.totals[-2]) if len(run.totals) > 1 else 0,
                "growth": math.nan,
                "healthy": params.n - int(run.totals[-1]),
                "phi_J": math.nan,
                "Phi_J": None,
                "predicted": "no-trigger",
                "actual": run.verdict,
                "final_fraction": run.totals[-1] / params.n,
                "agree": None,
                "boundary_i_cur": math.nan,
                "too_late": None,
                "j_decay_ok": None,
            }
        )
        return rows
    observed = snapshot_observed(run)
    profile = build_profile(observed, params)
    for point_idx, value in enumerate(config.sweep_values):
        alpha = float(value)
        variant = _variant_at(section, alpha, thresholds_present)
        surrogate = build_surrogate(observed, variant, params, profile)
        verdict = predict(surrogate, config.epsilon)
        spec = InterventionSpec(variant, lam)
        trace = apply_in_simulation(
            run.clone(),
            spec,
            rngutil.substream(seed, rngutil.INTERVENTION, point_idx, graph_idx),
        )
        actual = trace.verdict
        if verdict.outcome == "predicted-halt":
            agree: bool | None = actual == "halted"
        elif verdict.outcome == "predicted-spread":
            agree = actual == "spread"
        else:
            agree = None
        boundary = math.nan
        if section["compute_boundary"]:
            boundary = boundary_scan(observed, variant, params)
        rows.append(
            {
                "point": point_idx,
                "alpha": alpha,
                "graph": graph_idx,
                "triggered": True,
                "i_cur": observed.i_cur,
                "i_prev": observed.i_prev,
                "growth": observed.i_cur - observed.i_prev,
                "healthy": observed.healthy_total,
                "phi_J": verdict.phi_J,
                "Phi_J": verdict.Phi_J,
                "predicted": verdict.outcome,
                "actual": actual,
                "final_fraction": trace.final_fraction,
                "agree": agree,
                "boundary_i_cur": boundary,
                "too_late": verdict.flags.get("too_late"),
                "j_decay_ok": verdict.flags.get("j_decay_ok"),
            }
        )
    return rows


def run_intervention(config: ExperimentConfig, jobs: int = 1) -> ResultTable:
    """Trigger, predict, intervene and compare across the sweep grid."""
    if config.intervention is None:
        raise ConfigError("intervention configs need an intervention section")
    if config.raw["sweep"]["axis"] != "alpha":
        raise ConfigError("intervention sweeps use the alpha axis")
    baseline = _baseline_seed_count(config)
    tasks = [(config.raw, graph_idx, baseline) for graph_idx in range(config.graphs)]
    rows: list[dict] = []
    for chunk in _execute(tasks, _intervention_graph_task, jobs):
        rows.extend(chunk)
    table = ResultTable(config.name, config_hash(config), list(_INTERVENTION_COLUMNS), rows)
    table.rows = table.sorted_rows()
    return table


def _execute(tasks: list, fn, jobs: int) -> list:
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))


# ---------------------------------------------------------------------------
# output

def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit(table: ResultTable, path_base: str, formats: tuple[str, ...] = ("csv", "jsonl")) -> list[str]:
    """Write the table as CSV and/or JSON lines; returns the paths written.

    Each file is written beside its final path and renamed into place, so a
    failed write leaves any earlier file at that path intact.
    """
    paths = []
    directory = os.path.dirname(path_base)
    if directory:
        os.makedirs(directory, exist_ok=True)
    if "csv" in formats:
        paths.append(_write_replace(path_base + ".csv", _csv_lines(table)))
    if "jsonl" in formats:
        paths.append(_write_replace(path_base + ".jsonl", _jsonl_lines(table)))
    return paths


def _csv_lines(table: ResultTable) -> Iterator[str]:
    yield f"# config_hash={table.config_hash} name={table.name}\n"
    yield ",".join(table.columns) + "\n"
    for row in table.rows:
        yield ",".join(_format_value(row.get(c)) for c in table.columns) + "\n"


def _jsonl_lines(table: ResultTable) -> Iterator[str]:
    yield json.dumps({"config_hash": table.config_hash, "name": table.name}) + "\n"
    for row in table.rows:
        clean = {k: (None if isinstance(v, float) and math.isnan(v) else v) for k, v in row.items()}
        yield json.dumps(clean, sort_keys=True) + "\n"


def _write_replace(path: str, lines: Iterator[str]) -> str:
    """Write ``lines`` to a temporary file beside ``path``, then rename it over ``path``."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"writing {path}: {exc}") from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    return path


def read_table(path: str) -> ResultTable:
    """Round-trip reader for the CSV emitted by :func:`emit`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        meta = dict(part.split("=", 1) for part in header.lstrip("# ").split())
        columns = fh.readline().strip().split(",")
        rows = []
        for line in fh:
            cells = line.rstrip("\n").split(",")
            row = {}
            for col, cell in zip(columns, cells):
                row[col] = _parse_cell(cell)
            rows.append(row)
    return ResultTable(meta.get("name", ""), meta["config_hash"], columns, rows)


def _parse_cell(cell: str):
    if cell == "":
        return None
    if cell == "true":
        return True
    if cell == "false":
        return False
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell
