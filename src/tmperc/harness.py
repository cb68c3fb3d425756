"""Experiment harness: config parsing, sweep drivers, and tabular output.

Configs are JSON with nested sections.  ``load_config`` parses a config
once, reading each key where it is used: it checks every field, sets every
default and builds the graph parameters, each sweep point's law, critical
seed and seed counts, and the typed intervention plan, whose ``variant_at``
gives the intervention at any strength alpha.  A section that is not an
object, or a key that the run would not read, is rejected so typos fail
loudly.  A bad config fails before any work, and the sweep runners and
their workers read only typed fields.  The config's hash digests its normalized
form: the keys as written plus the defaults.  Every row of a result table is
regenerable from the config plus the master seed: each (sweep point, graph,
trial) work item draws from its own RNG substream, and rows are sorted
canonically, so parallel and serial execution emit identical files.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterator, Mapping

from . import rngutil
from .analytic import AnalyticModel, CoinflipModel, CriticalResult, coinflip_reduce, critical_seed
from .engine import run_coinflip, run_standard
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
    delay,
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
    "analytic_summary",
    "run_dichotomy",
    "run_intervention",
    "emit",
    "ConfigError",
]


class ConfigError(ValueError):
    pass


def _object(value: Any, where: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where} must be an object, not {type(value).__name__}")
    return value


_REQUIRED = object()


class _Section:
    """One JSON object of a config, read key by key.

    ``get`` records each key it is asked for, and ``close`` rejects any key of
    this section, or of a section read under it, that no read asked for.
    ``data`` is the normalized section: the keys as written plus each default
    read with ``normalize``, which ``config_hash`` digests.
    """

    def __init__(self, value: Any, where: str):
        self.data, self.where = dict(_object(value, where)), where
        self.read: set[str] = set()
        self.children: list[_Section] = []

    def __contains__(self, key: str) -> bool:
        return key in self.data

    def get(self, key: str, default: Any = _REQUIRED, normalize: bool = False) -> Any:
        self.read.add(key)
        if key in self.data:
            return self.data[key]
        if default is _REQUIRED:
            raise ConfigError(f"{self.where} missing required key {key!r}")
        if normalize:
            self.data[key] = default
        return default

    def section(self, key: str) -> _Section:
        """The object under ``key``, whose normalized form replaces it here."""
        child = _Section(self.get(key), key if self.where == "config" else f"{self.where}.{key}")
        self.data[key] = child.data
        self.children.append(child)
        return child

    def close(self) -> dict:
        unread = sorted(set(self.data) - self.read)
        if unread:
            raise ConfigError(f"{self.where} does not read {unread}")
        for child in self.children:
            child.close()
        return self.data


def _checked(where: str, build, *args):
    """``build(*args)``, with a library ValueError or TypeError raised as a ConfigError."""
    try:
        return build(*args)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class InterventionPlan:
    """An alpha sweep's intervention section, parsed once into typed fields.

    ``variant_at(alpha)`` is the intervention at strength alpha: a
    ``functools.partial`` of a module-level builder that ``_plan`` binds once
    with the kind's inputs, such as the thresholds the configured law can
    draw.  It is called off the grid too, and it must pickle, because
    ``--jobs`` sends the config to worker processes.  ``variants[i]`` is the
    one at sweep point i, built with the plan so every point's law check
    fails before any work.  A baseline run starts from
    ``baseline_seed_count`` seeds, as written or resolved from the baseline
    seed factor and critical seed, and triggers once |I| > trigger_fraction * n.
    """

    variant_at: Callable[[float], Variant]
    trigger_fraction: float
    baseline_seed_count: int  # below n
    compute_boundary: bool
    alphas: tuple[float, ...]
    variants: tuple[Variant, ...] = field(init=False)

    def __post_init__(self) -> None:
        # each point meets the library's own checks
        variants = tuple(_checked(f"sweep value {a!r}", self.variant_at, a) for a in self.alphas)
        object.__setattr__(self, "variants", variants)


def _edge_variant(variant: type[Diminish], alpha_q_ratio: float, alpha: float) -> Diminish:
    """``Diminish`` or ``Sequester`` with near retention alpha and far retention ratio * alpha."""
    return variant(alpha, alpha * alpha_q_ratio)


def _fixed(variant: Variant, alpha: float) -> Variant:
    """A law with no strength, built and checked once: the same at every alpha."""
    return variant


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed experiment: the typed fields every driver and worker reads.

    ``load_config`` is the only parser and builds the graph parameters, each
    sweep point's law and critical seed, and the intervention plan once.
    ``config_hash`` is the digest of the normalized config.  ``trials``,
    ``stop_fraction`` and ``seed_counts`` drive dichotomy runs:
    ``seed_counts[i]`` holds sweep point i's (seed factor, seed count) runs,
    with a NaN factor on the seed_count axis.  An intervention config runs
    one trial per graph, stops at its intervention section's
    ``stop_fraction`` and has no seed counts.
    """

    config_hash: str
    name: str
    master_seed: int
    graphs: int
    trials: int
    epsilon: float
    stop_fraction: float
    seed_counts: tuple[tuple[tuple[float, int], ...], ...]  # factors as written, counts <= n
    sweep_values: tuple  # numbers, as written
    params: TMParams
    laws: tuple[ThresholdDistribution, ...]  # one per sweep point
    critical: tuple[CriticalResult, ...]  # one per sweep point
    coins: tuple[CoinflipModel, ...] | None  # one per point of a coinflip config
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
    """A non-empty threshold law written as {"2": 0.5, "3": 0.5}."""
    if not _object(law, where):
        raise ConfigError(f"{where} has no thresholds")
    return {_key(r, f"{where} threshold"): _real(w, f"{where} weight") for r, w in law.items()}


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


def load_config(source: Mapping[str, Any]) -> ExperimentConfig:
    """Parse and check a config mapping, reading each key once where it is used.

    Every default is set and every field checked here, so a bad config, or a
    key that its run would not read, raises ``ConfigError`` before any work.
    """
    top = _Section(source, "config")
    name = top.get("name")
    if not isinstance(name, str) or name.splitlines() != [name]:  # it ends the CSV's first line
        raise ConfigError(f"name {name!r} is not a non-empty one-line string")
    master_seed = _integer(top.get("master_seed", 0, True), "master_seed", 0)
    graphs = _integer(top.get("graphs", 50, True), "graphs", 1)
    epsilon = _fraction(top.get("epsilon", 0.1, True), "epsilon", "[)")
    output = top.get("output", None)
    if output is not None and (not isinstance(output, str) or not output):
        raise ConfigError(f"output {output!r} is not a non-empty string or null")
    params = _checked("graph", _graph_params, top.section("graph"))
    sweep = top.section("sweep")
    axis, values = sweep.get("axis"), sweep.get("values")
    if axis not in ("zeta_fraction", "coin_z", "alpha", "seed_count", "none"):
        raise ConfigError(f"unknown sweep axis {axis!r}")
    if not isinstance(values, list) or not values:
        raise ConfigError("sweep.values must be a non-empty list")
    points = [_real(value, f"{axis} sweep value") for value in values]  # CSV cells stay numbers
    laws, coins = _laws(top.section("thresholds"), sweep, axis, points)
    # an empty horizon fails here
    critical = tuple(_checked("graph", critical_seed, AnalyticModel(params, law)) for law in laws)
    plan = None
    if top.get("intervention", None) is None:
        if axis == "alpha":
            raise ConfigError("the alpha axis sweeps an intervention; add an intervention section")
        if axis == "seed_count" and "seed_factors" in top:
            raise ConfigError("the seed_count axis gives the seed counts; drop seed_factors")
        trials = _integer(top.get("trials", 50, True), "trials", 1)
        stop_fraction = _fraction(top.get("stop_fraction", 0.9, True), "stop_fraction", "(]")
        factors = top.get("seed_factors", [1.0 - epsilon, 1.0 + epsilon], True)
        if not isinstance(factors, list) or not factors:
            raise ConfigError(f"seed_factors {factors!r} is not a non-empty list")
        for f in factors:
            if not 0 <= _real(f, "seed_factors entry") < math.inf:
                raise ConfigError(f"seed_factors entry {f!r} is not finite and >= 0")
        keys = [_factor_key(factor) for factor in factors]
        if axis != "seed_count" and len(set(keys)) < len(keys):
            raise ConfigError(
                f"seed_factors {factors} share RNG substreams (equal after rounding to 0.001);"
                " give seed_factors that differ"
            )
        seed_counts = tuple(
            _seed_runs(axis, value, factors, result.phi_critical, params.n)
            for value, result in zip(values, critical)
        )
    else:
        if axis != "alpha":
            raise ConfigError("intervention sweeps use the alpha axis")
        trials = _integer(top.get("trials", 1), "trials", 1)
        if trials != 1:
            raise ConfigError(f"trials {trials}: an intervention sweep runs one trial per graph")
        section = top.section("intervention")
        # the alpha axis keeps the configured law at every point: laws[0] is the baseline's
        plan = _plan(section, laws[0], critical[0].phi_critical, params.n, points)
        # post-intervention threshold mixes finish near 90%, so the spread
        # verdict for continuations uses a lower cutoff by default
        stop = section.get("stop_fraction", 0.8, True)
        stop_fraction, seed_counts = _fraction(stop, "intervention stop_fraction", "(]"), ()
    normalized = top.close()
    if plan is not None:
        # defaults that no intervention run reads, digested so that every hash stays the same
        normalized.setdefault("trials", 50)
        normalized.update(stop_fraction=0.9, seed_factors=[1.0 - epsilon, 1.0 + epsilon])
        normalized["intervention"].setdefault("alpha_q_ratio", 1.0)
    canonical = json.dumps(normalized, sort_keys=True, separators=(",", ":"))
    return ExperimentConfig(
        config_hash=hashlib.sha256(canonical.encode()).hexdigest()[:16],
        name=name,
        master_seed=master_seed,
        graphs=graphs,
        trials=trials,
        epsilon=epsilon,
        stop_fraction=stop_fraction,
        seed_counts=seed_counts,
        sweep_values=tuple(values),
        params=params,
        laws=laws,
        critical=critical,
        coins=coins,
        intervention=plan,
        output=output,
    )


def _seed_runs(axis: str, value, factors: list, phi: int | None, n: int) -> tuple:
    """The (seed factor, seed count) runs at one dichotomy point: the seed_count
    axis's count with a NaN factor, or each factor times the critical seed ``phi``."""
    if axis == "seed_count":
        runs = [(math.nan, _integer(value, "seed_count", 0))]
    else:  # no runs at a point without a finite critical seed
        runs = [(f, round(f * phi)) for f in factors] if phi is not None else []
    for factor, count in runs:
        if count > n:
            how = "" if axis == "seed_count" else f"seed factor {factor!r} x phi_critical {phi} = "
            raise ConfigError(f"sweep value {value!r}: {how}seed count {count} is above n = {n}")
    return tuple(runs)


def _graph_params(graph: _Section) -> TMParams:
    """Template and edge probabilities of a graph section, given by p/q or by expected degrees."""
    n = _integer(graph.get("n"), "n", 1)
    spec = graph.section("template")
    kind = spec.get("kind")
    if kind == "single":
        template = make_single()
    elif kind == "ring":
        k, reach = _integer(spec.get("k"), "ring k", 1), _integer(spec.get("reach"), "reach", 0)
        template = make_ring(k, reach)
    elif kind == "cube3":
        template = make_cube3()
    elif kind == "planted":
        template = make_planted(_integer(spec.get("k"), "template k", 1))
    elif kind == "custom":
        neighbors = _object(spec.get("neighbors"), "graph.template neighbors")
        template = from_neighbors({_key(i, "cluster"): set(v) for i, v in neighbors.items()})
    else:
        raise ConfigError(f"unknown template kind {kind!r}")
    if n % template.k != 0:  # every sampled graph splits n into k equal clusters
        raise ConfigError(f"n={n} not divisible by k={template.k}")
    if "p" in graph:
        p, q = _real(graph.get("p"), "p"), _real(graph.get("q", 0.0), "q")
    else:
        eta = n / template.k
        p = _real(graph.get("near_degree"), "near_degree") / (template.k_p * eta)
        q = _real(graph.get("far_degree", 0.0), "far_degree")  # a degree until divided below
        if template.k_q > 0:
            q /= template.k_q * eta
    if template.k_q == 0 and q != 0.0:  # no run samples a far edge, so the value goes unread
        raise ConfigError(f"q or far_degree {q!r} given but the template has no far clusters")
    return TMParams(template, n, p, q)


def _laws(thresholds: _Section, sweep: _Section, axis: str, points: list[float]):
    """The threshold law at every sweep point, and the coinflip model of each coinflip point."""
    if "coinflip" in thresholds:
        if axis == "zeta_fraction":
            raise ConfigError("the zeta_fraction axis sweeps a zeta law, not a coinflip law")
        coin = thresholds.section("coinflip")
        s = _integer(coin.get("s"), "coinflip s", 0)
        r_max = _integer(coin.get("r_max"), "coinflip r_max", 1)
        # the coin_z axis replaces z, which it still checks when written
        z = _real(coin.get("z"), "coinflip z") if axis != "coin_z" or "z" in coin else None
        models = tuple(
            _checked(f"sweep value {x!r}", CoinflipModel, s, coin_z, r_max)
            for x, coin_z in zip(points, points if axis == "coin_z" else [z] * len(points))
        )
        return tuple(map(coinflip_reduce, models)), models
    if axis == "coin_z":
        raise ConfigError("the coin_z axis sweeps a coinflip law, not a zeta law")
    zeta = _weights(thresholds.get("zeta"), "zeta")
    build = ThresholdDistribution.from_mapping
    law = _checked("zeta", build, zeta)  # a law as written, even where the sweep replaces it
    if axis != "zeta_fraction":
        return (law,) * len(points), None
    for x in points:
        _fraction(x, "zeta_fraction sweep value", "[]")
    high = _integer(sweep.get("threshold", max(zeta)), "sweep threshold", 1)
    low = _integer(sweep.get("complement", min(zeta)), "sweep complement", 1)
    if high == low:  # the two-point mix would collapse to one threshold
        raise ConfigError(f"sweep threshold and complement are both {high}, not two thresholds")
    masses = [{r: w for r, w in {low: 1.0 - x, high: x}.items() if w > 0.0} for x in points]
    return tuple(_checked(f"sweep value {x!r}", build, m) for x, m in zip(points, masses)), None


def _plan(
    section: _Section, law: ThresholdDistribution, phi: int | None, n: int, alphas: list[float]
) -> InterventionPlan:
    """The typed plan of an intervention section over the baseline law and its critical seed."""
    kind = section.get("variant")
    # the alpha axis keeps the configured law, and so its thresholds, at every point
    drawable = tuple(r for r, w in enumerate(law.zeta, 1) if w > 0)
    if kind in ("bolster_a", "bolster_b"):
        variant_at = partial(bolster_a if kind == "bolster_a" else bolster_b, thresholds=drawable)
    elif kind in ("diminish", "sequester"):
        ratio = _real(section.get("alpha_q_ratio", 1.0, True), "alpha_q_ratio")
        if not 0 <= ratio < math.inf:  # alpha = 0 would hide it: 0 * -1.0 is a valid -0.0
            raise ConfigError(f"alpha_q_ratio {ratio!r} is not finite and >= 0")
        variant_at = partial(_edge_variant, Diminish if kind == "diminish" else Sequester, ratio)
    elif kind == "delay":
        r_max_prime = _integer(section.get("r_max_prime", 20), "r_max_prime", 1)
        variant_at = partial(delay, thresholds=drawable, r_max_prime=r_max_prime)
        if "z_prime" in section:  # a fixed coin probability in place of alpha
            z_prime = _real(section.get("z_prime"), "z_prime")
            variant_at = partial(_fixed, _checked("z_prime", variant_at, z_prime))
    elif kind == "bolster":
        zeta_prime = {
            _key(r, "zeta_prime threshold"): _weights(inner, "zeta_prime")
            for r, inner in _object(section.get("zeta_prime"), "zeta_prime").items()
        }
        missing = sorted(set(drawable) - set(zeta_prime))
        if missing:
            raise ConfigError(f"zeta_prime has no law for drawable thresholds {missing}")
        allow_weaken = _flag(section.get("allow_weaken", False), "allow_weaken")
        save_vertices = _flag(section.get("save_vertices", False), "save_vertices")
        custom = _checked("zeta_prime", Bolster, zeta_prime, allow_weaken, save_vertices)
        variant_at = partial(_fixed, custom)
    else:
        raise ConfigError(f"unknown intervention variant {kind!r}")
    count = section.get("baseline_seed_count", None)
    if count is not None and "baseline_seed_factor" in section:
        raise ConfigError("baseline_seed_count gives the baseline seeds; drop baseline_seed_factor")
    factor = _real(section.get("baseline_seed_factor", 1.3, True), "baseline_seed_factor")
    if not 0 <= factor < math.inf:
        raise ConfigError(f"baseline_seed_factor {factor!r} is not finite and >= 0")
    how = ""
    if count is None:
        if phi is None:
            raise ConfigError("baseline has no finite critical seed; set baseline_seed_count")
        how, count = f"baseline_seed_factor {factor!r} x phi_critical {phi} = ", round(factor * phi)
    if _integer(count, "baseline_seed_count", 0) >= n:
        raise ConfigError(f"{how}baseline seed count {count} is not below n = {n}")
    return InterventionPlan(
        variant_at=variant_at,
        trigger_fraction=_fraction(section.get("lambda", 0.1, True), "intervention lambda", "()"),
        baseline_seed_count=count,
        compute_boundary=_flag(section.get("compute_boundary", True, True), "compute_boundary"),
        alphas=tuple(alphas),
    )


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
    return [
        {
            "point": idx,
            "value": value,
            "phi_critical": result.phi_critical,
            "t_star": result.t_star,
            "t_max": result.t_max,
            **result.assumptions.to_dict(),
        }
        for idx, (value, result) in enumerate(zip(config.sweep_values, config.critical))
    ]


def _factor_key(factor: float) -> int:
    """Substream index of a seed factor (0 for the seed-count axis's NaN)."""
    return int(round(factor * 1000)) if not math.isnan(factor) else 0


def _dichotomy_graph_task(args: tuple) -> list[dict]:
    config, point_idx, graph_idx = args
    params, seed = config.params, config.master_seed
    value, result = config.sweep_values[point_idx], config.critical[point_idx]
    g = sample_graph(params, rngutil.substream(seed, rngutil.GRAPH, point_idx, graph_idx))
    model = config.coins[point_idx] if config.coins else None
    if model is None:
        law_stream = rngutil.substream(seed, rngutil.THRESHOLDS, point_idx, graph_idx)
        thresholds = assign_thresholds(config.laws[point_idx], params.n, law_stream)
    rows: list[dict] = []
    for factor, count in config.seed_counts[point_idx]:
        for trial in range(config.trials):
            key = (point_idx, graph_idx, trial, _factor_key(factor))
            seeds = select_seeds(count, params.n, rngutil.substream(seed, rngutil.SEEDS, *key))
            if model is None:
                trace = run_standard(g, thresholds, seeds, config.stop_fraction)
            else:
                stream = rngutil.substream(seed, rngutil.ENGINE, *key)
                trace = run_coinflip(g, model, seeds, config.stop_fraction, stream)
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
    """Simulate the seed counts of every sweep point, which ``load_config`` set."""
    if config.intervention is not None:
        raise ConfigError("dichotomy configs must not carry an intervention section")
    points = [p for p, counts in enumerate(config.seed_counts) if counts]
    tasks = [(config, p, g) for p in points for g in range(config.graphs)]
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


def _intervention_graph_task(args: tuple) -> list[dict]:
    config, graph_idx = args
    plan, params, seed = config.intervention, config.params, config.master_seed
    g = sample_graph(params, rngutil.substream(seed, rngutil.GRAPH, 0, graph_idx))
    thresholds = assign_thresholds(
        config.laws[0], params.n, rngutil.substream(seed, rngutil.THRESHOLDS, 0, graph_idx)
    )
    seeds = select_seeds(
        plan.baseline_seed_count, params.n, rngutil.substream(seed, rngutil.SEEDS, 0, graph_idx)
    )
    run, triggered = run_to_trigger(
        g, thresholds, seeds, plan.variants[0], plan.trigger_fraction, config.stop_fraction
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
    tasks = [(config, graph_idx) for graph_idx in range(config.graphs)]
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
    return ResultTable(config.name, config.config_hash, list(columns), rows)


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
