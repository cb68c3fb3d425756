"""Percolation engines: synchronous threshold dynamics, coinflip dynamics,
and the halting/cheating three-stage variants.

Generations are synchronous: generation t+1 infects exactly the healthy
vertices whose infected-neighbor count against I(t) reaches their threshold.
Propagation is frontier-based.  A standard or coinflip generation gathers the
F adjacency entries of the vertices infected in the previous one and sorts
them once, so it costs O(F log F + k) whatever n is, and a whole run costs
O(n) set-up plus O(E log E) over its E scanned edges.  A three-stage
timestep scatters the same way from the vertices it promotes; its only O(n)
work is the scan of every cluster for its latent pool, which fixes the draw
order, and its out-of-latents test is an O(k) count.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

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
    """State and commit path shared by the standard, coinflip and three-stage runs.

    A subclass picks each generation's newly infected vertices in
    ``_next_infected`` and may redefine when a run has stalled in
    ``_stalled``; ``step`` commits the vertices and owns the totals,
    per-cluster counts, verdict and generation cap, and ``finish`` is the
    one loop that drives generations.
    """

    def __init__(self, g: SampledGraph, seeds: np.ndarray, config: EngineConfig):
        self.g = g
        self.config = config
        seeds = np.asarray(seeds, dtype=np.int64)
        if seeds.size and (seeds.min() < 0 or seeds.max() >= g.n):
            raise ValueError("seed ids outside the vertex range")
        self.infected = np.zeros(g.n, dtype=bool)
        self.infected[seeds] = True
        if np.count_nonzero(self.infected) != seeds.size:
            raise ValueError("duplicate seed ids")
        self.counts = np.zeros(g.n, dtype=np.int64)  # infected neighbors seen so far
        self.frontier = seeds
        self.generation = 0
        self.totals = [int(seeds.size)]
        self.per_cluster = [np.bincount(g.clusters[seeds], minlength=g.k)]
        self.verdict: str | None = None
        if self.totals[0] >= config.stop_fraction * g.n:
            self.verdict = SPREAD
        elif self._stalled():
            self.verdict = HALTED

    def _stalled(self) -> bool:
        """True when no further generation can infect anyone."""
        return self.frontier.size == 0

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
        elif self._stalled():
            self.verdict = HALTED
        elif (
            self.config.max_generations is not None
            and self.generation >= self.config.max_generations
        ):
            raise EngineError(
                f"generation cap {self.config.max_generations} reached while still spreading"
            )
        return int(newly.size)

    def finish(self) -> str:
        while self.verdict is None:
            self.step()
        return self.verdict

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
        """Independent copy of the run state; the graph is shared, not copied."""
        return copy.deepcopy(self, {id(self.g): self.g})

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
) -> PercolationTrace:
    """Deterministic threshold percolation."""
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


class _ThreeStageRun(StandardRun):
    """Halting/cheating three-stage process on the standard commit path.

    "Infected" means latent or contagious, and ``counts`` holds
    contagious-neighbor counts.  Each timestep promotes one latent vertex
    per cluster to contagious, uniformly at random; healthy vertices with
    enough contagious neighbors turn latent.  Halting stops the first time
    any cluster runs out of latents; cheating promotes a random healthy
    vertex there instead and stops once every cluster is out of latents.
    """

    def __init__(
        self,
        g: SampledGraph,
        thresholds: np.ndarray,
        seeds: np.ndarray,
        config: EngineConfig | None,
        rng: np.random.Generator | None,
        cheating: bool,
    ):
        if rng is None:
            raise ValueError("three-stage modes require an explicit rng")
        self.rng = rng
        self.cheating = cheating
        self.contagious = np.zeros(g.n, dtype=bool)
        self.contagious_per_cluster = np.zeros(g.k, dtype=np.int64)
        super().__init__(g, thresholds, seeds, config)

    def _stalled(self) -> bool:
        latent = self.per_cluster[-1] - self.contagious_per_cluster
        return not (latent.any() if self.cheating else latent.all())

    def _next_infected(self) -> np.ndarray:
        g = self.g
        promoted = []
        for lo in range(0, g.n, g.eta):
            infected = self.infected[lo : lo + g.eta]
            pool = np.flatnonzero(infected & ~self.contagious[lo : lo + g.eta])
            if pool.size == 0 and self.cheating:
                pool = np.flatnonzero(~infected)
            if pool.size:
                promoted.append(lo + int(pool[self.rng.integers(pool.size)]))
        promoted = np.asarray(promoted, dtype=np.int64)
        self.contagious[promoted] = True
        self.contagious_per_cluster += np.bincount(g.clusters[promoted], minlength=g.k)
        touched, hits = _tally(_gather_neighbors(g, promoted))
        self.counts[touched] += hits
        ready = ~(self.infected | self.contagious)[touched] & (
            self.counts[touched] >= self.thresholds[touched]
        )
        return np.concatenate((touched[ready], promoted[~self.infected[promoted]]))

    def trace(self) -> PercolationTrace:
        trace = super().trace()
        trace.contagious_per_cluster = self.contagious_per_cluster.copy()
        return trace


def run_halting3(
    g: SampledGraph,
    thresholds: np.ndarray,
    seeds: np.ndarray,
    config: EngineConfig | None = None,
    rng: np.random.Generator | None = None,
) -> PercolationTrace:
    """Pessimistic three-stage percolation (stops at the first latent-free cluster)."""
    run = _ThreeStageRun(g, thresholds, seeds, config, rng, cheating=False)
    run.finish()
    return run.trace()


def run_cheating3(
    g: SampledGraph,
    thresholds: np.ndarray,
    seeds: np.ndarray,
    config: EngineConfig | None = None,
    rng: np.random.Generator | None = None,
) -> PercolationTrace:
    """Optimistic three-stage percolation (promotes healthy vertices when out of latents)."""
    run = _ThreeStageRun(g, thresholds, seeds, config, rng, cheating=True)
    run.finish()
    return run.trace()
