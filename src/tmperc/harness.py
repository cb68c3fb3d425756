"""Experiment harness: config parsing, sweep drivers, and tabular output.

Configs are JSON with nested sections; a section that is not an object, or
that has unknown keys, is rejected so typos fail loudly.  ``load_config``
parses a config once: it checks every field, sets every default and builds
the graph parameters, each sweep point's law and the typed intervention
plan, whose ``variant_at`` gives the intervention at any strength alpha.  A
bad config fails before any work, and the drivers and their workers read
only typed fields.  The normalized dict ``raw`` is kept only as the input of
``config_hash``.  Every row of a result table is regenerable from the config
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
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from . import rngutil
from .analytic import AnalyticModel, CoinflipModel, coinflip_reduce, critical_seed
from .engine import CoinflipState, run_coinflip, run_standard
from .intervention import (
    Bolster,
    Diminish,
    Sequester,
    Variant,
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
from .template import from_neighbors, make_cube3, make_planted, make_ring, make_single
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
    "analytic_summary",
    "run_dichotomy",
    "run_intervention",
    "emit",
    "ConfigError",
]


class ConfigError(ValueError):
    pass


def _section(value: Any, allowed: set[str] | None, where: str) -> dict:
    """A copy of the JSON object ``value``, whose keys must lie in ``allowed`` unless it is None."""
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where} must be an object, not {type(value).__name__}")
    unknown = set(value) - allowed if allowed is not None else set()
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    return dict(value)


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
_VARIANTS = ("bolster_a", "bolster_b", "bolster", "delay", "diminish", "sequester")
# the intervention keys that only some variants read, and those variants
_VARIANT_KEYS = {
    **dict.fromkeys(("zeta_prime", "allow_weaken", "save_vertices"), ("bolster",)),
    **dict.fromkeys(("z_prime", "r_max_prime"), ("delay",)),
    "alpha_q_ratio": ("diminish", "sequester"),
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
    "intervention",
    "output",
}


@dataclass(frozen=True)
class InterventionPlan:
    """An alpha sweep's intervention section, parsed once into typed fields.

    ``variant_at(alpha)`` is the intervention of kind ``kind`` at strength
    alpha; its threshold laws cover ``thresholds``, the thresholds the
    configured law can draw.  ``variants[i]`` is the one at sweep point i,
    built with the plan so every point's law check fails before any work.
    A baseline run triggers once |I| > trigger_fraction * n, and every run
    of the plan counts as spread at ``stop_fraction``.
    """

    kind: str
    thresholds: tuple[int, ...]
    alpha_q_ratio: float
    zeta_prime: dict[int, dict[int, float]] | None  # the custom bolster's law
    z_prime: float | None  # None: the delay's coin probability is alpha
    r_max_prime: int
    allow_weaken: bool
    save_vertices: bool
    trigger_fraction: float
    stop_fraction: float
    baseline_seed_count: int | None  # None: a factor of the critical seed
    baseline_seed_factor: float
    compute_boundary: bool
    alphas: tuple[float, ...]
    variants: tuple[Variant, ...] = field(init=False)

    def __post_init__(self) -> None:
        variants = []
        for alpha in self.alphas:
            try:  # each point meets the library's own checks
                variants.append(self.variant_at(alpha))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"sweep value {alpha!r}: {exc}") from exc
        object.__setattr__(self, "variants", tuple(variants))

    def variant_at(self, alpha: float) -> Variant:
        """The intervention at strength ``alpha`` (the custom bolster has none)."""
        if self.kind == "bolster_a":
            return bolster_a(alpha, self.thresholds)
        if self.kind == "bolster_b":
            return bolster_b(alpha, self.thresholds)
        if self.kind == "bolster":
            return Bolster(self.zeta_prime, self.allow_weaken, self.save_vertices)
        if self.kind == "delay":
            # cutting the coin probability to z' is the geometric bolster that
            # preflips the coins of a vertex one contact short of threshold r
            z_prime = alpha if self.z_prime is None else self.z_prime
            law = {}
            for r in self.thresholds:
                coins = CoinflipModel({r - 1: 1.0}, z_prime, max(self.r_max_prime, r))
                law[r] = {v: w for v, w in enumerate(coinflip_reduce(coins).zeta, 1) if v >= r}
            return Bolster(law)
        variant = Diminish if self.kind == "diminish" else Sequester
        return variant(alpha, alpha * self.alpha_q_ratio)


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed experiment: the typed fields every driver and worker reads.

    ``load_config`` is the only parser and builds the graph parameters, each
    sweep point's law and the intervention plan once.  ``raw`` is the normalized
    dict, kept only for ``config_hash``.
    """

    raw: dict
    name: str
    master_seed: int
    graphs: int
    trials: int
    epsilon: float
    stop_fraction: float
    seed_factors: tuple[float, ...]
    axis: str
    sweep_values: tuple
    params: TMParams
    laws: tuple[ThresholdDistribution, ...]  # one per sweep point
    coins: tuple[tuple[int, float, int], ...] | None  # (s, z, r_max) per point of a coinflip config
    intervention: InterventionPlan | None  # alpha sweeps only
    output: str | None


def _real(value: Any, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} {value!r} is not a number")
    return float(value)


def _integer(value: Any, key: str, low: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"{key} {value!r} is not an integer >= {low}")
    return value


def _key(key: Any, where: str) -> int:
    """An integer written as a JSON object key, such as the "2" of {"2": 0.5}."""
    return _integer(int(key) if isinstance(key, str) and key.isdecimal() else key, where, 0)


def _weights(law: Any, where: str) -> dict[int, float]:
    """A threshold law written as {"2": 0.5, "3": 0.5}."""
    return {
        _key(r, f"{where} threshold"): _real(w, f"{where} weight")
        for r, w in _section(law, None, where).items()
    }


def _flag(value: Any, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key} {value!r} is not true or false")
    return value


def _fraction(value: Any, key: str, ends: str) -> float:
    """``value`` as a float in the unit interval, its ends open or closed as in "(]"."""
    x = _real(value, key)
    low_ok = x > 0.0 if ends[0] == "(" else x >= 0.0
    if not (low_ok and (x < 1.0 if ends[1] == ")" else x <= 1.0)):
        raise ConfigError(f"{key} {value!r} outside {ends[0]}0, 1{ends[1]}")
    return x


def load_config(source: str | Mapping[str, Any]) -> ExperimentConfig:
    """Parse, check and normalize a config from a JSON path or an in-memory mapping.

    Every default is set and every field checked here, so a bad config raises
    ``ConfigError`` before any work starts.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            source = json.load(fh)
    out = _section(source, _TOP_KEYS, "config")
    for key in ("name", "graph", "thresholds", "sweep"):
        if key not in out:
            raise ConfigError(f"config missing required key {key!r}")
    if out.get("intervention") is not None:
        # checked as written: the defaults below still feed config_hash
        if out.get("trials", 1) != 1:
            raise ConfigError(f"trials {out['trials']!r}: an intervention sweep runs one trial per graph")
        ignored = sorted({"seed_factors", "stop_fraction"} & set(out))
        if ignored:
            raise ConfigError(f"intervention sweeps do not read {ignored}; set stop_fraction in the section")
    out.setdefault("master_seed", 0)
    out.setdefault("graphs", 50)
    out.setdefault("trials", 50)
    out.setdefault("epsilon", 0.1)
    out.setdefault("stop_fraction", 0.9)
    stop_fraction = _fraction(out["stop_fraction"], "stop_fraction", "(]")
    epsilon = _fraction(out["epsilon"], "epsilon", "[)")
    out.setdefault("seed_factors", [1.0 - epsilon, 1.0 + epsilon])
    factors = out["seed_factors"]
    if not isinstance(factors, list) or not factors or not all(
        isinstance(f, (int, float)) and not isinstance(f, bool) and math.isfinite(f) and f >= 0
        for f in factors
    ):
        raise ConfigError(f"seed_factors {factors!r} is not a non-empty list of finite numbers >= 0")
    graph = _section(out["graph"], _GRAPH_KEYS, "graph")
    if "template" not in graph or "n" not in graph:
        raise ConfigError("graph section needs 'template' and 'n'")
    graph["template"] = _section(graph["template"], _TEMPLATE_KEYS, "graph.template")
    family = ("p", "q") if "p" in graph else ("near_degree", "far_degree")
    if family[0] not in graph or set(graph) - {"template", "n", *family}:
        raise ConfigError("specify the graph by p/q or by near_degree/far_degree, not both")
    out["graph"] = graph
    thresholds = _section(out["thresholds"], _THRESHOLD_KEYS, "thresholds")
    if ("zeta" in thresholds) == ("coinflip" in thresholds):
        raise ConfigError("thresholds section needs exactly one of 'zeta' or 'coinflip'")
    if "coinflip" in thresholds:
        coin = _section(thresholds["coinflip"], _COINFLIP_KEYS, "thresholds.coinflip")
        thresholds["coinflip"] = coin
    out["thresholds"] = thresholds
    sweep = _section(out["sweep"], _SWEEP_KEYS, "sweep")
    if sweep.get("axis") not in ("zeta_fraction", "coin_z", "alpha", "seed_count", "none"):
        raise ConfigError(f"unknown sweep axis {sweep.get('axis')!r}")
    if not isinstance(sweep.get("values"), list) or not sweep["values"]:
        raise ConfigError("sweep.values must be a non-empty list")
    out["sweep"] = sweep
    section = out.get("intervention")
    if section is not None:
        if sweep["axis"] != "alpha":
            raise ConfigError("intervention sweeps use the alpha axis")
        section = _section(section, _INTERVENTION_KEYS, "intervention")
        kind = section.get("variant")
        if kind not in _VARIANTS:
            raise ConfigError(f"unknown intervention variant {kind!r}")
        ignored = sorted(key for key in section if kind not in _VARIANT_KEYS.get(key, (kind,)))
        if ignored:
            raise ConfigError(f"intervention variant {kind!r} does not read {ignored}")
        section.setdefault("lambda", 0.1)
        section.setdefault("baseline_seed_factor", 1.3)
        section.setdefault("alpha_q_ratio", 1.0)
        section.setdefault("compute_boundary", True)
        # post-intervention threshold mixes finish near 90%, so the spread
        # verdict for continuations uses a lower cutoff by default
        section.setdefault("stop_fraction", 0.8)
        out["intervention"] = section
    n = _integer(graph["n"], "n", 1)
    master_seed = _integer(out["master_seed"], "master_seed", 0)
    graphs = _integer(out["graphs"], "graphs", 1)
    trials = _integer(out["trials"], "trials", 1)
    if sweep["axis"] == "seed_count":
        for value in sweep["values"]:
            if _integer(value, "seed_count", 0) > n:
                raise ConfigError(f"seed_count {value} is above n = {n}")
    try:
        params = _graph_params(graph)
    except KeyError as exc:
        raise ConfigError(f"graph.template needs {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"graph: {exc}") from exc
    points = []
    for value in sweep["values"]:
        try:  # each point meets the library's own checks
            points.append(_law_at(thresholds, sweep, value))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"sweep value {value!r}: {exc}") from exc
    laws, coins = zip(*points)
    keys = [_factor_key(factor) for factor in factors]
    if section is None and sweep["axis"] != "seed_count" and len(set(keys)) < len(keys):
        raise ConfigError(
            f"seed_factors {factors} share RNG substreams (equal after rounding to 0.001);"
            " give seed_factors that differ"
        )
    plan = None
    if section is not None:
        # the alpha axis keeps the configured law, and so its thresholds, at every point
        drawable = tuple(r for r, w in enumerate(laws[0].zeta, 1) if w > 0)
        zeta_prime = None
        if kind == "bolster":
            zeta_prime = {
                _key(r, "zeta_prime threshold"): _weights(inner, "zeta_prime")
                for r, inner in _section(section.get("zeta_prime"), None, "zeta_prime").items()
            }
            missing = sorted(set(drawable) - set(zeta_prime))
            if missing:
                raise ConfigError(f"zeta_prime has no law for drawable thresholds {missing}")
        count = section.get("baseline_seed_count")
        plan = InterventionPlan(
            kind=kind,
            thresholds=drawable,
            alpha_q_ratio=_real(section["alpha_q_ratio"], "alpha_q_ratio"),
            zeta_prime=zeta_prime,
            z_prime=_real(section["z_prime"], "z_prime") if "z_prime" in section else None,
            r_max_prime=_integer(section.get("r_max_prime", 20), "r_max_prime", 1),
            allow_weaken=_flag(section.get("allow_weaken", False), "allow_weaken"),
            save_vertices=_flag(section.get("save_vertices", False), "save_vertices"),
            trigger_fraction=_fraction(section["lambda"], "intervention lambda", "()"),
            stop_fraction=_fraction(section["stop_fraction"], "intervention stop_fraction", "(]"),
            baseline_seed_count=None if count is None else _integer(count, "baseline_seed_count", 0),
            baseline_seed_factor=_real(section["baseline_seed_factor"], "baseline_seed_factor"),
            compute_boundary=_flag(section["compute_boundary"], "compute_boundary"),
            alphas=tuple(_real(value, "alpha") for value in sweep["values"]),
        )
    return ExperimentConfig(
        raw=out,
        name=out["name"],
        master_seed=master_seed,
        graphs=graphs,
        trials=trials,
        epsilon=epsilon,
        stop_fraction=stop_fraction,
        seed_factors=tuple(factors),
        axis=sweep["axis"],
        sweep_values=tuple(sweep["values"]),
        params=params,
        laws=laws,
        coins=coins if "coinflip" in thresholds else None,
        intervention=plan,
        output=out.get("output"),
    )


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(config.raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _graph_params(graph: Mapping[str, Any]) -> TMParams:
    """Template and edge probabilities of a graph section, given by p/q or by expected degrees."""
    spec, n = graph["template"], graph["n"]
    kind = spec.get("kind")
    if kind == "single":
        template = make_single()
    elif kind == "ring":
        template = make_ring(_integer(spec["k"], "ring k", 1), _integer(spec["reach"], "reach", 0))
    elif kind == "cube3":
        template = make_cube3()
    elif kind == "planted":
        template = make_planted(_integer(spec["k"], "template k", 1))
    elif kind == "custom":
        neighbors = _section(spec["neighbors"], None, "graph.template neighbors")
        template = from_neighbors({_key(i, "cluster"): set(v) for i, v in neighbors.items()})
    else:
        raise ConfigError(f"unknown template kind {kind!r}")
    if n % template.k != 0:  # every sampled graph splits n into k equal clusters
        raise ValueError(f"n={n} not divisible by k={template.k}")
    if "p" in graph:
        return TMParams(template, n, _real(graph["p"], "p"), _real(graph.get("q", 0.0), "q"))
    eta = n / template.k
    near = _real(graph["near_degree"], "near_degree")
    far = _real(graph.get("far_degree", 0.0), "far_degree")
    if template.k_q == 0 and far != 0.0:
        raise ConfigError("far_degree given but the template has no far clusters")
    q = far / (template.k_q * eta) if template.k_q > 0 else 0.0
    return TMParams(template, n, near / (template.k_p * eta), q)


def _law_at(thresholds: Mapping[str, Any], sweep: Mapping[str, Any], value):
    """Threshold law at one sweep point, with the (s, z, r_max) of a coinflip law or None."""
    axis, cf = sweep["axis"], thresholds.get("coinflip")
    if cf is not None:
        s, r_max = _integer(cf["s"], "coinflip s", 0), _integer(cf["r_max"], "coinflip r_max", 1)
        z = _real(value if axis == "coin_z" else cf["z"], "coin probability")
        return coinflip_reduce(CoinflipModel({s: 1.0}, z, r_max)), (s, z, r_max)
    zeta = _weights(thresholds["zeta"], "zeta")
    if axis == "zeta_fraction":
        high = _integer(sweep.get("threshold", max(zeta)), "sweep threshold", 1)
        low = _integer(sweep.get("complement", min(zeta)), "sweep complement", 1)
        fraction = _real(value, "zeta_fraction")
        zeta = {low: 1.0 - fraction, high: fraction}
        zeta = {r: w for r, w in zeta.items() if w > 0.0}
    return ThresholdDistribution.from_mapping(zeta), None


@dataclass
class ResultTable:
    name: str
    config_hash: str
    columns: list[str]
    rows: list[dict]


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
    rows = []
    for idx, (value, law) in enumerate(zip(config.sweep_values, config.laws)):
        result = critical_seed(AnalyticModel(config.params, law))
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
    config, point_idx, graph_idx, result, seed_counts = args
    params, seed = config.params, config.master_seed
    value = config.sweep_values[point_idx]
    g = sample_graph(params, rngutil.substream(seed, rngutil.GRAPH, point_idx, graph_idx))
    coin = config.coins[point_idx] if config.coins else None
    if coin is None:
        law_stream = rngutil.substream(seed, rngutil.THRESHOLDS, point_idx, graph_idx)
        thresholds = assign_thresholds(config.laws[point_idx], params.n, law_stream)
    else:
        cf_base = CoinflipState.uniform(params.n, *coin)
    rows: list[dict] = []
    for factor, count in seed_counts:
        for trial in range(config.trials):
            key = (point_idx, graph_idx, trial, _factor_key(factor))
            seeds = select_seeds(count, params.n, rngutil.substream(seed, rngutil.SEEDS, *key))
            if coin is None:
                trace = run_standard(g, thresholds, seeds, config.stop_fraction)
            else:
                stream = rngutil.substream(seed, rngutil.ENGINE, *key)
                trace = run_coinflip(g, cf_base, seeds, config.stop_fraction, stream)
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
                    "phi_critical": result.phi_critical,
                    "t_star": result.t_star,
                    "within_theory": result.assumptions.within_theory,
                }
            )
    return rows


def run_dichotomy(config: ExperimentConfig, jobs: int = 1) -> ResultTable:
    """Simulate around the analytic critical seed size for every sweep point.

    Every seed count is checked against n before any graph is sampled.
    """
    if config.intervention is not None:
        raise ConfigError("dichotomy configs must not carry an intervention section")
    n = config.params.n
    tasks = []
    for point_idx, (value, law) in enumerate(zip(config.sweep_values, config.laws)):
        result = critical_seed(AnalyticModel(config.params, law))
        phi_crit = result.phi_critical
        if config.axis == "seed_count":
            counts = [(math.nan, value)]
        else:  # no runs at a point without a finite critical seed
            factors = config.seed_factors if phi_crit is not None else ()
            counts = [(factor, int(round(factor * phi_crit))) for factor in factors]
        if any(count > n for _, count in counts):
            raise ConfigError(f"sweep value {value!r}: seed counts {counts} exceed n = {n}")
        tasks.extend((config, point_idx, g_idx, result, counts) for g_idx in range(config.graphs))
    return _table(config, _DICHOTOMY_COLUMNS, tasks, _dichotomy_graph_task, jobs)


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


def _baseline_seed_count(config: ExperimentConfig) -> int:
    """Seed count of the baseline runs: given, or a factor of the critical seed."""
    plan, params = config.intervention, config.params
    count = plan.baseline_seed_count
    if count is None:
        # the alpha axis keeps the configured law at every point: laws[0] is the baseline's
        phi_crit = critical_seed(AnalyticModel(params, config.laws[0])).phi_critical
        if phi_crit is None:
            raise ConfigError("baseline has no finite critical seed; set baseline_seed_count")
        count = int(round(plan.baseline_seed_factor * phi_crit))
    if not 0 <= count < params.n:
        raise ConfigError(f"baseline seed count {count} is not in [0, n = {params.n})")
    return count


def _intervention_graph_task(args: tuple) -> list[dict]:
    config, graph_idx, baseline = args
    plan, params, seed = config.intervention, config.params, config.master_seed
    g = sample_graph(params, rngutil.substream(seed, rngutil.GRAPH, 0, graph_idx))
    thresholds = assign_thresholds(
        config.laws[0], params.n, rngutil.substream(seed, rngutil.THRESHOLDS, 0, graph_idx)
    )
    seeds = select_seeds(
        baseline, params.n, rngutil.substream(seed, rngutil.SEEDS, 0, graph_idx)
    )
    run, triggered = run_to_trigger(
        g, thresholds, seeds, plan.variants[0], plan.trigger_fraction, plan.stop_fraction
    )
    observed = snapshot_observed(run)
    shared = {"graph": graph_idx, "i_cur": observed.i_cur, "i_prev": observed.i_prev,
              "healthy": observed.healthy_total}
    if not triggered:
        return [
            {
                **shared,
                "point": -1,
                "alpha": math.nan,
                "triggered": False,
                "growth": math.nan,
                "phi_J": math.nan,
                "Phi_J": None,
                "predicted": "no-trigger",
                "actual": run.verdict,
                "final_fraction": observed.i_cur / params.n,
                "agree": None,
                "boundary_i_cur": math.nan,
                "too_late": None,
                "j_decay_ok": None,
            }
        ]
    profile = build_profile(observed, params)
    rows: list[dict] = []
    for point_idx, (alpha, variant) in enumerate(zip(plan.alphas, plan.variants)):
        surrogate = build_surrogate(profile, variant)
        verdict = predict(surrogate, config.epsilon)
        trace = apply_in_simulation(
            run.clone(),
            variant,
            rngutil.substream(seed, rngutil.INTERVENTION, point_idx, graph_idx),
        )
        actual = trace.verdict
        expected = {"predicted-halt": "halted", "predicted-spread": "spread"}.get(verdict.outcome)
        # a run that had finished before the intervention acted is not scored
        agree = None if expected is None or run.verdict is not None else actual == expected
        boundary = math.nan
        if plan.compute_boundary:
            boundary = boundary_scan(profile, variant)
        rows.append(
            {
                **shared,
                "point": point_idx,
                "alpha": alpha,
                "triggered": True,
                "growth": observed.i_cur - observed.i_prev,
                "phi_J": verdict.phi_J,
                "Phi_J": verdict.Phi_J,
                "predicted": verdict.outcome,
                "actual": actual,
                "final_fraction": trace.final_fraction,
                "agree": agree,
                "boundary_i_cur": boundary,
                "too_late": not profile.gate_ok,
                "j_decay_ok": surrogate.j_decay_ok,
            }
        )
    return rows


def run_intervention(config: ExperimentConfig, jobs: int = 1) -> ResultTable:
    """Trigger, predict, intervene and compare across the sweep grid."""
    if config.intervention is None:
        raise ConfigError("intervention configs need an intervention section")
    baseline = _baseline_seed_count(config)
    tasks = [(config, graph_idx, baseline) for graph_idx in range(config.graphs)]
    return _table(config, _INTERVENTION_COLUMNS, tasks, _intervention_graph_task, jobs)


def _table(config: ExperimentConfig, columns: list[str], tasks: list, fn, jobs: int) -> ResultTable:
    """Run ``fn`` on every task, in ``jobs`` processes, and sort the rows column by column.

    The canonical order makes a parallel table identical to a serial one.
    """
    if jobs < 1:
        raise ConfigError(f"jobs {jobs} must be >= 1")
    if jobs == 1 or len(tasks) <= 1:
        chunks = [fn(task) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # a serial run never loads it

        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            chunks = list(pool.map(fn, tasks))

    def key(row: dict):
        return tuple((v is None, v if v is not None else 0) for v in (row.get(c) for c in columns))

    rows = sorted((row for chunk in chunks for row in chunk), key=key)
    return ResultTable(config.name, config_hash(config), list(columns), rows)


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


def emit(table: ResultTable, path_base: str) -> list[str]:
    """Write the table as CSV and as JSON lines; returns the two paths.

    Both files are written in full before either is renamed into place, so a
    failed write leaves the earlier pair intact; a failure of the second
    ``os.replace`` can still leave a new CSV beside an old JSONL.
    """
    directory = os.path.dirname(path_base)
    if directory:
        os.makedirs(directory, exist_ok=True)
    return _write_replace(
        {path_base + ".csv": _csv_lines(table), path_base + ".jsonl": _jsonl_lines(table)}
    )


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


def _write_replace(files: Mapping[str, Iterator[str]]) -> list[str]:
    """Write every file in full beside its path, then rename each temporary file over its path."""
    tmps = {path: f"{path}.{os.getpid()}.tmp" for path in files}
    try:
        for path, lines in files.items():
            with open(tmps[path], "w", encoding="utf-8") as fh:
                fh.writelines(lines)
        for path, tmp in tmps.items():
            os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"writing {path}: {exc}") from exc
    finally:
        for tmp in tmps.values():
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
    return list(files)
