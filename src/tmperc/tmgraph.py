"""Sampling from the templated-multisection family: graphs, thresholds, seeds.

Vertices 0..n-1 are split into k clusters of eta = n/k consecutive ids, so
cluster(u) = u // eta.  A pair is "near" when their clusters are adjacent in
the template (which includes same-cluster pairs) and is joined independently
with probability p; far pairs use q.  Sampling enumerates present edges by
geometric gap skipping per (cluster-pair, probability) block, so the cost is
proportional to the number of edges rather than n^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable, Mapping

import numpy as np

from .template import TemplateGraph, make_single, validate

__all__ = [
    "TMParams",
    "ThresholdDistribution",
    "SampledGraph",
    "sample_graph",
    "assign_thresholds",
    "select_seeds",
    "near_far_counts",
    "dump_edges",
    "load_edges",
]


@dataclass(frozen=True)
class TMParams:
    """Graph-family parameters (template, n, p, q) with the derived quantities.

    ``allow_fractional_clusters`` relaxes the even-partition requirement for
    analytic-only parameter sets (surrogate graphs built on the healthy
    population); sampling always requires an even partition.
    """

    template: TemplateGraph
    n: int
    p: float
    q: float = 0.0
    allow_fractional_clusters: bool = False

    def __post_init__(self) -> None:
        report = validate(self.template)
        if report is not None:
            raise ValueError(f"invalid template: {report}")
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.q <= 1.0):
            raise ValueError(f"edge probabilities must lie in [0,1], got p={self.p}, q={self.q}")
        if self.q > self.p:
            raise ValueError(f"need q <= p, got q={self.q} > p={self.p}")
        if not self.allow_fractional_clusters and self.n % self.template.k != 0:
            raise ValueError(f"n={self.n} not divisible by k={self.template.k}")

    @property
    def k(self) -> int:
        return self.template.k

    @property
    def k_p(self) -> int:
        return self.template.k_p

    @property
    def k_q(self) -> int:
        return self.template.k_q

    @property
    def eta(self) -> float:
        return self.n / self.k

    @property
    def phi(self) -> float:
        """Per-cluster edge-probability mass p*k_p + q*k_q."""
        return self.p * self.k_p + self.q * self.k_q

    @property
    def expected_degree(self) -> float:
        return self.eta * self.phi

    def near_matrix(self) -> np.ndarray:
        near = np.zeros((self.k, self.k), dtype=bool)
        for i, nbrs in enumerate(self.template.neighbors):
            near[i, list(nbrs)] = True
        return near


@dataclass(frozen=True)
class ThresholdDistribution:
    """Law of per-vertex thresholds: zeta[i] is the probability of threshold i+1."""

    zeta: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.zeta) == 0:
            raise ValueError("threshold distribution needs at least one entry")
        if any(z < 0 for z in self.zeta):
            raise ValueError(f"negative probability in {self.zeta}")
        total = math.fsum(self.zeta)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"threshold probabilities sum to {total!r}, not 1")

    @classmethod
    def from_mapping(cls, mass: Mapping[int, float]) -> "ThresholdDistribution":
        r_max = max(mass)
        if min(mass) < 1:
            raise ValueError(f"thresholds must be >= 1, got {sorted(mass)}")
        zeta = [0.0] * r_max
        for r, weight in mass.items():
            zeta[r - 1] = weight
        return cls(tuple(zeta))

    @classmethod
    def point_mass(cls, r: int) -> "ThresholdDistribution":
        return cls.from_mapping({r: 1.0})

    @property
    def r_max(self) -> int:
        return len(self.zeta)

    @property
    def zeta1_condition_ok(self) -> bool:
        """Whether the threshold-1 population is controlled (zeta_1 < 2*zeta_2/3).

        A distribution with no threshold-1 mass satisfies the condition
        vacuously: the constraint exists to bound instantly-infectable
        vertices, of which there are none.
        """
        z1 = self.zeta[0]
        z2 = self.zeta[1] if len(self.zeta) > 1 else 0.0
        return z1 == 0.0 or z1 < (2.0 / 3.0) * z2

    def as_array(self) -> np.ndarray:
        return np.asarray(self.zeta, dtype=float)


class SampledGraph:
    """Concrete undirected graph with cluster bookkeeping.

    Immutable after construction: the edge and adjacency arrays are marked
    read-only, so instances can be shared freely across worker processes.
    """

    def __init__(self, params: TMParams, edge_u: np.ndarray, edge_v: np.ndarray):
        if params.n % params.k != 0:
            raise ValueError(f"n={params.n} not divisible by k={params.k}")
        self.params = params
        self.n = params.n
        self.k = params.k
        self.eta = params.n // params.k
        self.edge_u = np.ascontiguousarray(edge_u, dtype=np.int64)
        self.edge_v = np.ascontiguousarray(edge_v, dtype=np.int64)
        if self.edge_u.shape != self.edge_v.shape:
            raise ValueError("edge endpoint arrays must have equal length")
        if self.edge_u.size and not np.all(self.edge_u < self.edge_v):
            raise ValueError("edges must be stored with u < v")
        self.indptr, self.indices = _edges_to_csr(self.n, self.edge_u, self.edge_v)
        self.clusters = (np.arange(self.n, dtype=np.int64) // self.eta).astype(np.int64)
        self._near = params.near_matrix()
        for arr in (self.edge_u, self.edge_v, self.indptr, self.indices, self.clusters):
            arr.flags.writeable = False

    @property
    def num_edges(self) -> int:
        return int(self.edge_u.size)

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def cluster_of(self, u: int) -> int:
        return int(u) // self.eta

    def edge_is_near(self) -> np.ndarray:
        """Boolean mask over edges: near (template-adjacent clusters) or far."""
        return self._near[self.clusters[self.edge_u], self.clusters[self.edge_v]]

    def subgraph(self, keep: np.ndarray) -> "SampledGraph":
        """New graph retaining exactly the edges flagged in ``keep``."""
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != self.edge_u.shape:
            raise ValueError("keep mask must cover every edge")
        return SampledGraph(self.params, self.edge_u[keep], self.edge_v[keep])


def _edges_to_csr(n: int, edge_u: np.ndarray, edge_v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    endpoints = np.concatenate([edge_u, edge_v])
    others = np.concatenate([edge_v, edge_u])
    degree = np.bincount(endpoints, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])
    order = np.argsort(endpoints, kind="stable")
    indices = others[order]
    return indptr, indices


def _bernoulli_hits(count: int, prob: float, rng: np.random.Generator) -> np.ndarray:
    """Indices in [0, count) of independent Bernoulli(prob) successes.

    Enumerated by geometric gap skipping so the cost is O(successes).
    """
    if count <= 0 or prob <= 0.0:
        return np.empty(0, dtype=np.int64)
    if prob >= 1.0:
        return np.arange(count, dtype=np.int64)
    if prob < 1e-12:
        # geometric gaps would overflow int64; draw the success count and
        # place it uniformly (exactly the same law, and the count is tiny)
        hits = rng.binomial(count, prob)
        if hits == 0:
            return np.empty(0, dtype=np.int64)
        while True:
            positions = np.unique(rng.integers(0, count, size=hits))
            if positions.size == hits:
                return positions
    chunks: list[np.ndarray] = []
    position = -1
    batch = max(int(count * prob * 1.2) + 16, 64)
    while True:
        gaps = rng.geometric(prob, size=batch)
        positions = position + np.cumsum(gaps)
        inside = positions[positions < count]
        chunks.append(inside)
        if inside.size < positions.size:
            break
        position = int(positions[-1])
    return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]


def _decode_triangle(idx: np.ndarray, eta: int) -> tuple[np.ndarray, np.ndarray]:
    """Map linear indices over pairs {a < b} within a cluster of size eta to (a, b).

    Pair (a, b) has index a*eta - a*(a+1)/2 + (b - a - 1).
    """
    m = idx.astype(np.float64)
    disc = (2 * eta - 1) ** 2 - 8.0 * m
    a = np.floor((2 * eta - 1 - np.sqrt(disc)) / 2.0).astype(np.int64)
    # float sqrt can land one row off; fix up against the exact row starts
    for _ in range(2):
        starts = a * eta - a * (a + 1) // 2
        a = np.where(starts > idx, a - 1, a)
        next_starts = (a + 1) * eta - (a + 1) * (a + 2) // 2
        a = np.where(idx >= next_starts, a + 1, a)
    starts = a * eta - a * (a + 1) // 2
    b = a + 1 + (idx - starts)
    return a, b


def sample_graph(params: TMParams, rng: np.random.Generator) -> SampledGraph:
    """Draw one graph from the family; deterministic given the generator state."""
    if params.n % params.k != 0:
        raise ValueError(f"n={params.n} not divisible by k={params.k}")
    eta = params.n // params.k
    near = params.near_matrix()
    parts_u: list[np.ndarray] = []
    parts_v: list[np.ndarray] = []
    # Diagonal blocks are always near (templates contain their own cluster).
    tri_pairs = eta * (eta - 1) // 2
    for i in range(params.k):
        hits = _bernoulli_hits(tri_pairs, params.p, rng)
        if hits.size:
            a, b = _decode_triangle(hits, eta)
            parts_u.append(a + i * eta)
            parts_v.append(b + i * eta)
    for i in range(params.k):
        for j in range(i + 1, params.k):
            prob = params.p if near[i, j] else params.q
            hits = _bernoulli_hits(eta * eta, prob, rng)
            if hits.size:
                parts_u.append(hits // eta + i * eta)
                parts_v.append(hits % eta + j * eta)
    if parts_u:
        edge_u = np.concatenate(parts_u)
        edge_v = np.concatenate(parts_v)
        order = np.lexsort((edge_v, edge_u))
        edge_u, edge_v = edge_u[order], edge_v[order]
    else:
        edge_u = np.empty(0, dtype=np.int64)
        edge_v = np.empty(0, dtype=np.int64)
    return SampledGraph(params, edge_u, edge_v)


def assign_thresholds(
    dist: ThresholdDistribution, n: int, rng: np.random.Generator
) -> np.ndarray:
    """i.i.d. thresholds in 1..r_max for n vertices."""
    values = np.arange(1, dist.r_max + 1)
    return rng.choice(values, size=n, p=dist.as_array())


def select_seeds(phi: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform phi-subset of 0..n-1, returned sorted."""
    if not 0 <= phi <= n:
        raise ValueError(f"seed count {phi} outside [0, {n}]")
    return np.sort(rng.choice(n, size=phi, replace=False))


def near_far_counts(
    g: SampledGraph, u: int, members: Iterable[int]
) -> tuple[int, int]:
    """How many members of a vertex set are near / far from u (by cluster relation)."""
    ids = np.asarray(list(members) if not isinstance(members, np.ndarray) else members, dtype=np.int64)
    if ids.size == 0:
        return 0, 0
    near_row = g._near[g.cluster_of(u)]
    near_count = int(np.count_nonzero(near_row[g.clusters[ids]]))
    return near_count, int(ids.size) - near_count


def dump_edges(g: SampledGraph, fh: IO[str], seed: int | None = None) -> None:
    """Plain-text edge list with a header carrying the sampling parameters."""
    fh.write(
        f"# tm n={g.n} k={g.k} p={g.params.p!r} q={g.params.q!r} seed={seed}\n"
    )
    for u, v in zip(g.edge_u, g.edge_v):
        fh.write(f"{u} {v}\n")


def load_edges(fh: IO[str], template: TemplateGraph | None = None) -> SampledGraph:
    """Read a dump produced by :func:`dump_edges` (template defaults to single-cluster)."""
    header = fh.readline().strip()
    fields = dict(part.split("=") for part in header.lstrip("# ").split()[1:])
    n = int(fields["n"])
    k = int(fields["k"])
    if template is None and k == 1:
        template = make_single()
    if template is None or template.k != k:
        raise ValueError(f"dump uses k={k}; pass the matching template")
    params = TMParams(template, n, float(fields["p"]), float(fields["q"]))
    pairs = [line.split() for line in fh if line.strip()]
    edge_u = np.array([int(a) for a, _ in pairs], dtype=np.int64)
    edge_v = np.array([int(b) for _, b in pairs], dtype=np.int64)
    return SampledGraph(params, edge_u, edge_v)
