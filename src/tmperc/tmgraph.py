"""Sampling from the templated-multisection family: graphs, thresholds, seeds.

Vertices 0..n-1 are split into k clusters of eta = n/k consecutive ids, so
cluster(u) = u // eta.  A pair is "near" when their clusters are adjacent in
the template (which includes same-cluster pairs) and is joined independently
with probability p; far pairs use q.  Sampling enumerates present edges by
geometric gap skipping per (cluster-pair, probability) block, and the edge
list and CSR adjacency are grouped by endpoint with a radix pass over 16-bit
digits instead of a comparison sort, so the whole build costs O(n + E) in the
E edges rather than n^2 (one radix pass per grouping while n <= 2**16, two
while n < 2**31).  Buffers are dropped as their successors appear, so the
build peaks at 40-50 traced bytes per edge; the finished graph keeps 16 of
int32 ids per edge plus the int64 ``indptr``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .template import TemplateGraph

__all__ = [
    "TMParams",
    "ThresholdDistribution",
    "check_law",
    "SampledGraph",
    "sample_graph",
    "assign_thresholds",
    "select_seeds",
]


@dataclass(frozen=True)
class TMParams:
    """Graph-family parameters (template, n, p, q) with the derived quantities.

    n need not split evenly into the k clusters: the analytic model only
    reads eta = n/k (a surrogate on the healthy population has any n), while
    sampling a graph requires an even partition.
    """

    template: TemplateGraph
    n: int
    p: float
    q: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.q <= 1.0):
            raise ValueError(f"edge probabilities must lie in [0,1], got p={self.p}, q={self.q}")
        if self.q > self.p:
            raise ValueError(f"need q <= p, got q={self.q} > p={self.p}")

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


def check_law(law: Mapping[int, float], name: str) -> None:
    """Reject a threshold law that is empty, has a negative or non-finite weight,
    or sums to more than 1e-12 away from 1; ``name`` names the law in the error.

    A weight past 1 + 1e-12 is rejected before the sum: a NaN sum would pass
    the tolerance test, and weights near 1e308 would overflow ``math.fsum``.
    """
    if not law:
        raise ValueError(f"{name} needs at least one entry")
    if any(w < 0 for w in law.values()):
        raise ValueError(f"{name} has a negative weight: {dict(law)}")
    if not all(w <= 1.0 + 1e-12 for w in law.values()):
        raise ValueError(f"{name} has a non-finite weight or one above 1: {dict(law)}")
    total = math.fsum(law.values())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"{name} sums to {total!r}, not 1")


@dataclass(frozen=True)
class ThresholdDistribution:
    """Law of per-vertex thresholds: zeta[i] is the probability of threshold i+1."""

    zeta: tuple[float, ...]

    def __post_init__(self) -> None:
        # Python floats, so the reports derived from the law hold JSON-ready bools
        object.__setattr__(self, "zeta", tuple(float(z) for z in self.zeta))
        check_law(dict(enumerate(self.zeta, 1)), "threshold distribution")

    @classmethod
    def from_mapping(cls, mass: Mapping[int, float]) -> "ThresholdDistribution":
        r_max = max(mass)
        if min(mass) < 1:
            raise ValueError(f"thresholds must be >= 1, got {sorted(mass)}")
        zeta = [0.0] * r_max
        for r, weight in mass.items():
            zeta[r - 1] = weight
        return cls(tuple(zeta))

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


def _check_sampleable(params: TMParams) -> None:
    if params.n % params.k != 0:
        raise ValueError(f"n={params.n} not divisible by k={params.k}")
    if params.n > 2**31 - 1:
        raise ValueError(f"n={params.n} is above 2**31 - 1, the int32 vertex-id bound")


class SampledGraph:
    """Concrete undirected graph; vertex u lies in cluster u // eta.

    Vertex ids (``edge_u``, ``edge_v``, ``indices``) are int32, so n <= 2**31 - 1;
    ``indptr`` is int64, as 2E can pass 2**31.  Immutable after construction:
    the arrays are read-only, so instances can be shared across worker processes.
    """

    def __init__(self, params: TMParams, edge_u: np.ndarray, edge_v: np.ndarray):
        _check_sampleable(params)
        self.params = params
        self.n = params.n
        self.k = params.k
        self.eta = params.n // params.k
        edge_u, edge_v = np.asarray(edge_u), np.asarray(edge_v)
        if edge_u.shape != edge_v.shape:
            raise ValueError("edge endpoint arrays must have equal length")
        if edge_u.size and (edge_u.min() < 0 or edge_v.max() >= self.n or (edge_u >= edge_v).any()):
            raise ValueError(f"edges must be stored with 0 <= u < v < n = {self.n}")
        self.edge_u = np.ascontiguousarray(edge_u, dtype=np.int32)
        self.edge_v = np.ascontiguousarray(edge_v, dtype=np.int32)
        self.indptr, self.indices = _edges_to_csr(self.n, self.edge_u, self.edge_v)
        self._near = params.near_matrix()
        self._edge_near: np.ndarray | None = None
        for arr in (self.edge_u, self.edge_v, self.indptr, self.indices):
            arr.flags.writeable = False

    @property
    def num_edges(self) -> int:
        return int(self.edge_u.size)

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def edge_is_near(self) -> np.ndarray:
        """Read-only mask over edges: near (template-adjacent clusters) or far; built once."""
        if self._edge_near is None:
            self._edge_near = self._near[self.edge_u // self.eta, self.edge_v // self.eta]
            self._edge_near.flags.writeable = False
        return self._edge_near

    def subgraph(self, keep: np.ndarray) -> "SampledGraph":
        """New graph retaining exactly the edges flagged in ``keep``."""
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != self.edge_u.shape:
            raise ValueError("keep mask must cover every edge")
        kept = np.flatnonzero(keep)
        edge_u, edge_v = self.edge_u.take(kept), self.edge_v.take(kept)
        del kept
        return SampledGraph(self.params, edge_u, edge_v)


def _stable_order(parts: tuple[np.ndarray, ...], n: int) -> np.ndarray:
    """The stable permutation sorting the concatenated ``parts``, integers in [0, n).

    LSD radix over 16-bit digits: numpy's stable argsort of uint16 is a radix
    sort, so this is one pass for n <= 2**16 and two for n <= 2**32.  A pass
    refills one uint16 digit array from ``parts`` (no int64 key copy), and the
    second composes the two orders in place.  Transient bytes per key: 10
    traced, 18 with argsort's scratch; 20 and 28 with two passes.
    """
    digit = np.empty(sum(part.size for part in parts), dtype=np.uint16)
    order = None
    for shift in range(0, max(n - 1, 1).bit_length(), 16):
        start = 0
        for part in parts:
            np.right_shift(part, shift, out=digit[start:start + part.size], casting="unsafe")
            start += part.size
        if order is None:
            order = np.argsort(digit, kind="stable")
        else:  # order[step] is written over step: slot i is read before it is written
            step = np.argsort(digit[order], kind="stable")
            order = np.take(order, step, out=step, mode="clip")
    return order


def _edges_to_csr(n: int, edge_u: np.ndarray, edge_v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR int64 ``indptr`` and int32 ``indices``, each vertex's neighbours in edge-list order.

    Groups the 2E endpoints by `_stable_order` (20 or 40 traced bytes per
    edge), then gathers the neighbours by its order array (32 with it).
    """
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(edge_u, minlength=n) + np.bincount(edge_v, minlength=n), out=indptr[1:])
    order = _stable_order((edge_u, edge_v), n)
    return indptr, np.concatenate([edge_v, edge_u])[order]


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
    a = np.floor((2 * eta - 1 - np.sqrt((2 * eta - 1) ** 2 - 8.0 * idx)) / 2.0).astype(np.int64)
    b = np.empty_like(a)  # the fix-up's one scratch array; it ends as the column

    def column() -> np.ndarray:  # b = a + 1 + idx - row_start(a), in place
        np.subtract(2 * eta - 1, a, out=b)
        np.multiply(b, a, out=b)
        np.floor_divide(b, 2, out=b)  # row_start(a) = a*(2*eta-1-a)/2, exactly
        np.subtract(idx, b, out=b)
        np.add(b, a, out=b)
        return np.add(b, 1, out=b)

    for _ in range(2):  # float sqrt can land one row off; fix it by the exact row starts
        a -= column() <= a  # idx before the row start
        a += column() >= eta  # idx past the row end
    return a, column()


def sample_graph(params: TMParams, rng: np.random.Generator) -> SampledGraph:
    """Draw one graph from the family; deterministic given the generator state."""
    _check_sampleable(params)
    eta = params.n // params.k
    near = params.near_matrix()
    # Blocks are drawn diagonal-first, but kept by row cluster: block (i, i)
    # then (i, j) for j > i.  Each block is (u, v)-ascending and v rises block
    # by block, so a stable grouping by u yields the (u, v)-sorted edge list.
    rows: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in range(params.k)]
    tri_pairs = eta * (eta - 1) // 2
    for i in range(params.k):
        a, b = _decode_triangle(_bernoulli_hits(tri_pairs, params.p, rng), eta)
        rows[i].append((a + i * eta, b + i * eta))
    for i in range(params.k):
        for j in range(i + 1, params.k):
            hits = _bernoulli_hits(eta * eta, params.p if near[i, j] else params.q, rng)
            rows[i].append((hits // eta + i * eta, hits % eta + j * eta))
    edge_u = np.concatenate([u for row in rows for u, _ in row], dtype=np.int32)
    edge_v = np.concatenate([v for row in rows for _, v in row], dtype=np.int32)
    del rows, a, b  # the block arrays, now copied into the edge list
    order = _stable_order((edge_u,), params.n)
    edge_u, edge_v = edge_u[order], edge_v[order]
    del order
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
