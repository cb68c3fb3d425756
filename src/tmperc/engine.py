"""Percolation engines: synchronous threshold dynamics, coinflip dynamics,
and the halting/cheating three-stage variants.

Generations are synchronous: generation t+1 infects exactly the healthy
vertices whose infected-neighbor count against I(t) reaches their threshold.
Propagation is frontier-based.  A standard or coinflip generation gathers the
F adjacency entries of the vertices infected in the previous one and sorts
them once, so it costs O(F log F + k) whatever n is, and a whole run costs
O(n) set-up plus O(E log E) over its E scanned edges.  The three-stage modes
still do O(n) work per timestep: they rescan every cluster for its latent
pool and recount the infected set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .tmgraph import SampledGraph

__all__ = [
    "EngineConfig",
    "EngineError",
    "PercolationTrace",
    "CoinflipState",
    "StandardRun",
    "run_standard",
    "run_coinflip",
    "run_halting3",
    "run_cheating3",
]

SPREAD = "spread"
HALTED = "halted"


class EngineError(RuntimeError):
    pass


@dataclass(frozen=True)
class EngineConfig:
    """Stopping rule shared by every mode.

    ``stop_fraction`` operationalizes "almost all vertices infected": a run
    counts as spread once the infected fraction reaches it.  The generation
    cap exists as a safety net; the monotone processes cannot exceed n
    productive generations, so hitting a smaller cap is reported as an error.
    """

    stop_fraction: float = 0.9
    max_generations: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.stop_fraction <= 1.0:
            raise ValueError(f"stop_fraction {self.stop_fraction} outside (0, 1]")


@dataclass
class PercolationTrace:
    """Per-generation infected counts plus the final verdict.

    ``totals[t]`` is |I(t)| (index 0 is the seed generation) and
    ``per_cluster[t]`` its split by cluster.  For the three-stage modes
    "infected" counts latent plus contagious vertices.
    """

    n: int
    totals: np.ndarray
    per_cluster: np.ndarray
    verdict: str
    final_infected: np.ndarray
    # three-stage runs only: contagious counts by cluster at termination
    contagious_per_cluster: np.ndarray | None = None

    @property
    def tau_end(self) -> int:
        return len(self.totals) - 1

    @property
    def new_counts(self) -> np.ndarray:
        return np.diff(self.totals, prepend=0)

    @property
    def final_fraction(self) -> float:
        return float(self.totals[-1]) / self.n


def _gather_neighbors(g: SampledGraph, frontier: np.ndarray) -> np.ndarray:
    starts = g.indptr[frontier]
    lengths = g.indptr[frontier + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return g.indices[np.arange(total, dtype=np.int64) + shift]


def _tally(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending distinct entries of ``values`` and how often each occurs.

    One sort and a scan for run heads: O(F log F) in the F entries, with no
    n-sized temporary.  The ascending order fixes the coinflip draw order.
    """
    s = np.sort(values)
    bound = np.ones(s.size + 1, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=bound[1:-1])
    bounds = np.flatnonzero(bound)
    return s[bounds[:-1]], bounds[1:] - bounds[:-1]


class _Run:
    """State and commit path shared by the standard and coinflip runs.

    A subclass picks each generation's newly infected vertices in
    ``_next_infected``; ``step`` commits them and owns the totals,
    per-cluster counts, verdict and generation cap.
    """

    def __init__(self, g: SampledGraph, seeds: np.ndarray, config: EngineConfig):
        self.g = g
        self.config = config
        seeds = np.asarray(seeds, dtype=np.int64)
        if seeds.size and (seeds.min() < 0 or seeds.max() >= g.n):
            raise ValueError("seed ids outside the vertex range")
        self.infected = np.zeros(g.n, dtype=bool)
        self.infected[seeds] = True
        self.counts = np.zeros(g.n, dtype=np.int64)  # infected neighbors seen so far
        self.frontier = seeds
        self.generation = 0
        self.totals = [int(seeds.size)]
        self.per_cluster = [np.bincount(g.clusters[seeds], minlength=g.k)]
        self.verdict: str | None = None
        if self.totals[0] >= config.stop_fraction * g.n:
            self.verdict = SPREAD
        elif self.totals[0] == 0:
            self.verdict = HALTED

    def _frontier_tally(self) -> tuple[np.ndarray, np.ndarray]:
        """Vertices adjacent to the frontier, ascending, and their frontier-neighbor counts."""
        return _tally(_gather_neighbors(self.g, self.frontier))

    def _next_infected(self) -> np.ndarray:
        raise NotImplementedError

    def step(self) -> int:
        """Advance one generation; returns the number of newly infected vertices."""
        if self.verdict is not None:
            raise EngineError("run already finished")
        newly = self._next_infected()
        self.infected[newly] = True
        self.frontier = newly
        self.generation += 1
        total = self.totals[-1] + int(newly.size)
        self.totals.append(total)
        self.per_cluster.append(
            self.per_cluster[-1] + np.bincount(self.g.clusters[newly], minlength=self.g.k)
        )
        if total >= self.config.stop_fraction * self.g.n:
            self.verdict = SPREAD
        elif newly.size == 0:
            self.verdict = HALTED
        elif (
            self.config.max_generations is not None
            and self.generation >= self.config.max_generations
        ):
            raise EngineError(
                f"generation cap {self.config.max_generations} reached while still spreading"
            )
        return int(newly.size)

    def run(self, until_infected: int | None = None) -> str | None:
        """Run to a verdict, or pause once the infected count exceeds the trigger.

        Returns the verdict, or None when paused at the trigger.
        """
        while self.verdict is None:
            if until_infected is not None and self.totals[-1] > until_infected:
                return None
            self.step()
        if (
            until_infected is not None
            and self.verdict == SPREAD
            and self.totals[-1] > until_infected
        ):
            return None  # crossed the trigger and the stop fraction in one step
        return self.verdict

    def finish(self) -> str:
        verdict = self.run()
        assert verdict is not None
        return verdict

    def trace(self) -> PercolationTrace:
        if self.verdict is None:
            raise EngineError("run has no verdict yet")
        return PercolationTrace(
            n=self.g.n,
            totals=np.asarray(self.totals, dtype=np.int64),
            per_cluster=np.asarray(self.per_cluster, dtype=np.int64),
            verdict=self.verdict,
            final_infected=np.flatnonzero(self.infected),
        )


class StandardRun(_Run):
    """Steppable synchronous-threshold run; interventions mutate it mid-flight.

    Invariant between steps: ``counts`` holds infected-neighbor counts
    against I(t-1) (the frontier of generation t has not yet been folded
    in), which is exactly the state a subsequent step needs.
    """

    def __init__(
        self,
        g: SampledGraph,
        thresholds: np.ndarray,
        seeds: np.ndarray,
        config: EngineConfig | None = None,
    ):
        self.thresholds = np.array(thresholds, dtype=np.int64, copy=True)
        if self.thresholds.shape != (g.n,):
            raise ValueError("need one threshold per vertex")
        if self.thresholds.size and self.thresholds.min() < 1:
            raise ValueError("thresholds must be >= 1")
        super().__init__(g, seeds, config or EngineConfig())

    def clone(self) -> "StandardRun":
        dup = object.__new__(StandardRun)
        dup.g = self.g
        dup.config = self.config
        dup.thresholds = self.thresholds.copy()
        dup.infected = self.infected.copy()
        dup.counts = self.counts.copy()
        dup.frontier = self.frontier.copy()
        dup.generation = self.generation
        dup.totals = list(self.totals)
        dup.per_cluster = [arr.copy() for arr in self.per_cluster]
        dup.verdict = self.verdict
        return dup

    def _candidates(self) -> np.ndarray:
        """Vertices that generation t+1 would infect, without committing."""
        touched, hits = self._frontier_tally()
        ready = ~self.infected[touched] & (self.counts[touched] + hits >= self.thresholds[touched])
        return touched[ready]

    def _next_infected(self) -> np.ndarray:
        touched, hits = self._frontier_tally()
        self.counts[touched] += hits
        ready = ~self.infected[touched] & (self.counts[touched] >= self.thresholds[touched])
        return touched[ready]

    def current_exposure(self) -> np.ndarray:
        """Infected-neighbor counts against the full current infected set I(t)."""
        exposure = self.counts.copy()
        touched, hits = self._frontier_tally()
        exposure[touched] += hits
        return exposure

    def replace_graph(self, new_g: SampledGraph) -> None:
        """Swap in an edge-deleted graph, recounting exposures against I(t-1)."""
        if new_g.n != self.g.n:
            raise ValueError("replacement graph must keep the vertex set")
        prev_infected = self.infected.copy()
        prev_infected[self.frontier] = False
        eu, ev = new_g.edge_u, new_g.edge_v
        self.counts = np.bincount(ev[prev_infected[eu]], minlength=new_g.n) + np.bincount(
            eu[prev_infected[ev]], minlength=new_g.n
        )
        self.g = new_g


def run_standard(
    g: SampledGraph,
    thresholds: np.ndarray,
    seeds: np.ndarray,
    config: EngineConfig | None = None,
    rng: np.random.Generator | None = None,
) -> PercolationTrace:
    """Deterministic threshold percolation (rng accepted for interface symmetry)."""
    run = StandardRun(g, thresholds, seeds, config)
    run.finish()
    return run.trace()


@dataclass
class CoinflipState:
    """Per-vertex coinflip bookkeeping: susceptibility, coin probability, cap."""

    s: np.ndarray
    z: np.ndarray
    r_max: int

    @classmethod
    def uniform(cls, n: int, s: int, z: float, r_max: int) -> "CoinflipState":
        return cls(np.full(n, s, dtype=np.int64), np.full(n, z, dtype=float), r_max)

    def __post_init__(self) -> None:
        self.s = np.asarray(self.s, dtype=np.int64)
        self.z = np.asarray(self.z, dtype=float)
        if self.s.min(initial=0) < 0:
            raise ValueError("susceptibility counts must be >= 0")
        if self.z.min(initial=0.0) < 0.0 or self.z.max(initial=0.0) > 1.0:
            raise ValueError("coin probabilities must lie in [0, 1]")
        if self.r_max <= int(self.s.max(initial=0)):
            raise ValueError("forcing cap must exceed every susceptibility count")


class _CoinflipRun(_Run):
    def __init__(
        self,
        g: SampledGraph,
        cf: CoinflipState,
        seeds: np.ndarray,
        config: EngineConfig,
        rng: np.random.Generator,
    ):
        super().__init__(g, seeds, config)
        self.cf = cf
        self.rng = rng

    def _next_infected(self) -> np.ndarray:
        cf = self.cf
        touched, hits = self._frontier_tally()
        healthy = ~self.infected[touched]
        touched = touched[healthy]
        old = self.counts[touched]
        new = old + hits[healthy]
        self.counts[touched] = new
        infect = new >= cf.r_max
        flips = new - np.maximum(old, cf.s[touched])
        eligible = np.flatnonzero((flips > 0) & ~infect)
        if eligible.size:
            flip_n = flips[eligible]
            draws = self.rng.random(int(flip_n.sum()))
            success = draws < np.repeat(cf.z[touched[eligible]], flip_n)
            infect[eligible] = np.logical_or.reduceat(success, np.cumsum(flip_n) - flip_n)
        return touched[infect]


def run_coinflip(
    g: SampledGraph,
    cf: CoinflipState,
    seeds: np.ndarray,
    config: EngineConfig | None = None,
    rng: np.random.Generator | None = None,
) -> PercolationTrace:
    """Coinflip dynamics: one coin per newly infected neighbor past susceptibility.

    Coins are flipped in ascending vertex-id order each generation, so a run
    is a pure function of (graph, state, seeds, rng seed).  A vertex whose
    total contact count reaches r_max is infected unconditionally.
    """
    if rng is None:
        raise ValueError("coinflip mode requires an explicit rng")
    run = _CoinflipRun(g, cf, seeds, config or EngineConfig(), rng)
    run.finish()
    return run.trace()


HEALTHY, LATENT, CONTAGIOUS = 0, 1, 2


def _run_three_stage(
    g: SampledGraph,
    thresholds: np.ndarray,
    seeds: np.ndarray,
    config: EngineConfig,
    rng: np.random.Generator,
    cheating: bool,
) -> PercolationTrace:
    """Shared core of the halting/cheating three-stage processes.

    Each timestep promotes one latent vertex per cluster to contagious
    (uniformly at random); healthy vertices with enough contagious neighbors
    turn latent.  Halting stops the first time any cluster runs out of
    latents; cheating promotes a random healthy vertex there instead and
    stops once every cluster is out of latents.
    """
    thresholds = np.asarray(thresholds, dtype=np.int64)
    seeds = np.asarray(seeds, dtype=np.int64)
    n, k = g.n, g.k
    status = np.zeros(n, dtype=np.int8)
    status[seeds] = LATENT
    contagious_nbrs = np.zeros(n, dtype=np.int64)

    def infected_mask() -> np.ndarray:
        return status != HEALTHY

    totals = [int(seeds.size)]
    per_cluster = [np.bincount(g.clusters[seeds], minlength=k)]
    stop_at = config.stop_fraction * n
    verdict: str | None = SPREAD if totals[0] >= stop_at else None
    timestep = 0
    cap = config.max_generations if config.max_generations is not None else n + 2
    while verdict is None:
        latent_per_cluster = np.bincount(g.clusters[status == LATENT], minlength=k)
        if cheating:
            if int(latent_per_cluster.sum()) == 0:
                verdict = SPREAD if totals[-1] >= stop_at else HALTED
                break
        else:
            if np.any(latent_per_cluster == 0):
                verdict = SPREAD if totals[-1] >= stop_at else HALTED
                break
        promoted: list[int] = []
        for cluster in range(k):
            lo, hi = cluster * g.eta, (cluster + 1) * g.eta
            pool = np.flatnonzero(status[lo:hi] == LATENT)
            if pool.size == 0:
                if not cheating:
                    raise AssertionError("halting mode checked latents above")
                pool = np.flatnonzero(status[lo:hi] == HEALTHY)
                if pool.size == 0:
                    continue
            choice = lo + int(pool[rng.integers(pool.size)])
            promoted.append(choice)
        promoted_arr = np.asarray(promoted, dtype=np.int64)
        status[promoted_arr] = CONTAGIOUS
        touched, hits = _tally(_gather_neighbors(g, promoted_arr))
        contagious_nbrs[touched] += hits
        fresh_latent = np.flatnonzero(
            (status == HEALTHY) & (contagious_nbrs >= thresholds)
        )
        status[fresh_latent] = LATENT
        timestep += 1
        total = int(np.count_nonzero(infected_mask()))
        totals.append(total)
        per_cluster.append(np.bincount(g.clusters[infected_mask()], minlength=k))
        if total >= stop_at:
            verdict = SPREAD
        elif timestep >= cap:
            raise EngineError(f"three-stage run exceeded {cap} timesteps")
    return PercolationTrace(
        n=n,
        totals=np.asarray(totals, dtype=np.int64),
        per_cluster=np.asarray(per_cluster, dtype=np.int64),
        verdict=verdict,
        final_infected=np.flatnonzero(infected_mask()),
        contagious_per_cluster=np.bincount(g.clusters[status == CONTAGIOUS], minlength=k),
    )


def run_halting3(
    g: SampledGraph,
    thresholds: np.ndarray,
    seeds: np.ndarray,
    config: EngineConfig | None = None,
    rng: np.random.Generator | None = None,
) -> PercolationTrace:
    """Pessimistic three-stage percolation (stops at the first latent-free cluster)."""
    if rng is None:
        raise ValueError("three-stage modes require an explicit rng")
    return _run_three_stage(
        g, thresholds, seeds, config or EngineConfig(), rng, cheating=False
    )


def run_cheating3(
    g: SampledGraph,
    thresholds: np.ndarray,
    seeds: np.ndarray,
    config: EngineConfig | None = None,
    rng: np.random.Generator | None = None,
) -> PercolationTrace:
    """Optimistic three-stage percolation (promotes healthy vertices when out of latents)."""
    if rng is None:
        raise ValueError("three-stage modes require an explicit rng")
    return _run_three_stage(
        g, thresholds, seeds, config or EngineConfig(), rng, cheating=True
    )
