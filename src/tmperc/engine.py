"""Percolation engines: synchronous threshold dynamics and coinflip dynamics.

Generations are synchronous: generation t+1 infects exactly the healthy
vertices whose infected-neighbor count against I(t) reaches their threshold.
A coinflip run applies one ``CoinflipModel``'s s, z and r_max to every vertex.
Propagation is frontier-based.  Committing a generation gathers its F int32
adjacency entries and tallies them once into ``counts``, by one half-width
sort when F <= n and by an n-sized count when F > n, so while a run goes on
``counts`` are exposures against all of I(t) and only the tallied vertices
can turn next.  A generation costs O(min(F log F, n + F)), a whole run O(n)
set-up plus O(E log n) over its E scanned edges.  The tally returns its
distinct ids as ``np.intp``, so every later fancy index stays native.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .analytic import CoinflipModel
from .tmgraph import SampledGraph

__all__ = [
    "EngineError",
    "PercolationTrace",
    "StandardRun",
    "run_standard",
    "run_coinflip",
]

SPREAD = "spread"
HALTED = "halted"


class EngineError(RuntimeError):
    pass


@dataclass
class PercolationTrace:
    """Per-generation infected counts plus the final verdict.

    ``totals[t]`` is |I(t)| (index 0 is the seed generation).
    """

    n: int
    totals: np.ndarray
    verdict: str
    final_infected: np.ndarray

    @property
    def tau_end(self) -> int:
        return len(self.totals) - 1

    @property
    def final_fraction(self) -> float:
        return float(self.totals[-1]) / self.n


def _gather_neighbors(g: SampledGraph, frontier: np.ndarray) -> np.ndarray:
    starts = g.indptr[frontier]
    lengths = g.indptr[frontier + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return g.indices[:0]
    shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return g.indices[np.arange(total, dtype=np.int64) + shift]


def _tally(values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending distinct ``values`` (ids in [0, n)) as ``np.intp``, and how often each occurs.

    Switches direction on the F entries, as direction-optimizing BFS does:
    for F > n an n-sized ``bincount`` and scan cost O(n + F), and otherwise
    one sort at the width of ``values`` and a scan for run heads cost
    O(F log F) with no n-sized temporary.  Both give the same arrays; the
    ascending order fixes the coinflip draw order.
    """
    if values.size > n:
        counts = np.bincount(values, minlength=n)
        touched = np.flatnonzero(counts)
        return touched, counts[touched]
    s = np.sort(values)
    bound = np.ones(s.size + 1, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=bound[1:-1])
    bounds = np.flatnonzero(bound)
    return s[bounds[:-1]].astype(np.intp), bounds[1:] - bounds[:-1]


class _Run:
    """State and commit path shared by the standard and coinflip runs.

    ``_commit`` adds a generation and, unless it ends the run, tallies it
    into ``counts``, keeping ``touched`` (its neighbors, ascending) and
    ``hits`` (their frontier-neighbor counts).  A subclass picks the next
    generation in ``_next_infected``; ``finish`` is the one loop.  A run
    counts as spread once the infected fraction reaches ``stop_fraction``.
    """

    def __init__(self, g: SampledGraph, seeds: np.ndarray, stop_fraction: float):
        if not 0.0 < stop_fraction <= 1.0:
            raise ValueError(f"stop_fraction {stop_fraction} outside (0, 1]")
        self.g = g
        self.stop_fraction = stop_fraction
        seeds = np.asarray(seeds, dtype=np.intp)
        if seeds.size and (seeds.min() < 0 or seeds.max() >= g.n):
            raise ValueError("seed ids outside the vertex range")
        self.infected = np.zeros(g.n, dtype=bool)
        self.infected[seeds] = True
        if np.count_nonzero(self.infected) != seeds.size:
            raise ValueError("duplicate seed ids")
        self.counts = np.zeros(g.n, dtype=np.int64)
        self.totals: list[int] = []
        self.verdict: str | None = None
        self._commit(seeds)

    def _commit(self, newly: np.ndarray) -> None:
        self.frontier = newly
        total = (self.totals[-1] if self.totals else 0) + int(newly.size)
        self.totals.append(total)
        if total >= self.stop_fraction * self.g.n:
            self.verdict = SPREAD
        elif newly.size == 0:
            self.verdict = HALTED
        else:
            self.touched, self.hits = _tally(_gather_neighbors(self.g, newly), self.g.n)
            self.counts[self.touched] += self.hits

    def _require_live(self) -> None:
        if self.verdict is not None:
            raise EngineError("run already finished")

    def step(self) -> int:
        """Advance one generation; returns the number of newly infected vertices."""
        self._require_live()
        newly = self._next_infected()
        self.infected[newly] = True
        self._commit(newly)
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
            verdict=self.verdict,
            final_infected=np.flatnonzero(self.infected),
        )


class StandardRun(_Run):
    """Steppable synchronous-threshold run; interventions change it between generations.

    While the run goes on, ``counts`` holds every vertex's infected-neighbor
    count against I(t), so generation t+1 is the healthy ``touched`` vertices
    whose count meets their threshold.  After construction only ``reassign``
    writes ``thresholds`` and only ``replace_graph`` swaps the graph.
    """

    def __init__(
        self,
        g: SampledGraph,
        thresholds: np.ndarray,
        seeds: np.ndarray,
        stop_fraction: float,
    ):
        self.thresholds = np.array(thresholds, dtype=np.int64, copy=True)
        if self.thresholds.shape != (g.n,):
            raise ValueError("need one threshold per vertex")
        if self.thresholds.size and self.thresholds.min() < 1:
            raise ValueError("thresholds must be >= 1")
        super().__init__(g, seeds, stop_fraction)

    def clone(self) -> "StandardRun":
        """Independent copy of the run state; the graph is shared, not copied."""
        return copy.deepcopy(self, {id(self.g): self.g})

    def _candidates(self) -> np.ndarray:
        """Vertices that generation t+1 would infect, without committing."""
        self._require_live()
        touched = self.touched
        return touched[~self.infected[touched] & (self.counts[touched] >= self.thresholds[touched])]

    _next_infected = _candidates

    def current_exposure(self) -> np.ndarray:
        """Infected-neighbor counts against I(t): the run's own array, not a copy."""
        self._require_live()
        return self.counts

    def reassign(self, ids: np.ndarray, values: np.ndarray) -> None:
        """Give ``ids`` the thresholds ``values``; the only write after construction."""
        self._require_live()
        self.thresholds[ids] = values
        hits = np.full(self.g.n, -1, dtype=np.int64)  # -1 off the touched set
        hits[self.touched] = self.hits
        ready = ids[self.counts[ids] >= self.thresholds[ids]]  # exposed enough: turns next
        hits[ready] = np.maximum(hits[ready], 0)
        self.touched = np.flatnonzero(hits >= 0)
        self.hits = hits[self.touched]

    def replace_graph(self, new_g: SampledGraph) -> None:
        """Swap in an edge-deleted graph, recounting exposures against I(t).

        ``touched`` is kept: deleting edges turns no vertex outside it.
        """
        if new_g.n != self.g.n:
            raise ValueError("replacement graph must keep the vertex set")
        eu, ev = new_g.edge_u, new_g.edge_v
        self.counts = np.bincount(ev[self.infected[eu]], minlength=new_g.n) + np.bincount(
            eu[self.infected[ev]], minlength=new_g.n
        )
        self.g = new_g


def run_standard(
    g: SampledGraph,
    thresholds: np.ndarray,
    seeds: np.ndarray,
    stop_fraction: float,
) -> PercolationTrace:
    """Deterministic threshold percolation."""
    run = StandardRun(g, thresholds, seeds, stop_fraction)
    run.finish()
    return run.trace()


class _CoinflipRun(_Run):
    def __init__(
        self,
        g: SampledGraph,
        model: CoinflipModel,
        seeds: np.ndarray,
        stop_fraction: float,
        rng: np.random.Generator,
    ):
        super().__init__(g, seeds, stop_fraction)
        self.s, self.z, self.r_max, self.rng = model.s, model.z, model.r_max, rng

    def _next_infected(self) -> np.ndarray:
        healthy = ~self.infected[self.touched]
        touched = self.touched[healthy]
        new = self.counts[touched]
        old = new - self.hits[healthy]
        infect = new >= self.r_max
        flips = new - np.maximum(old, self.s)
        eligible = np.flatnonzero((flips > 0) & ~infect)
        if eligible.size:
            flip_n = flips[eligible]
            draws = self.rng.random(int(flip_n.sum()))
            infect[eligible] = np.logical_or.reduceat(draws < self.z, np.cumsum(flip_n) - flip_n)
        return touched[infect]


def run_coinflip(
    g: SampledGraph,
    model: CoinflipModel,
    seeds: np.ndarray,
    stop_fraction: float,
    rng: np.random.Generator,
) -> PercolationTrace:
    """Coinflip dynamics: one coin per newly infected neighbor past susceptibility.

    Every vertex follows ``model``: past its s contacts each new contact
    infects with probability z, and r_max contacts infect unconditionally.
    Coins are flipped in ascending vertex-id order each generation, so a run
    is a pure function of (graph, model, seeds, rng seed).
    """
    run = _CoinflipRun(g, model, seeds, stop_fraction, rng)
    run.finish()
    return run.trace()
