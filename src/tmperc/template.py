"""Finite template graphs fixing the cluster communication topology.

A template is a regular undirected graph on cluster indices 0..k-1 whose
neighborhood always contains the cluster itself: intra-cluster pairs count
as "near" and receive the near edge probability.  With k=1 and a single
self-loop the whole construction degenerates to the classic single-block
random graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping


@dataclass(frozen=True)
class TemplateGraph:
    """Cluster topology: ``neighbors[i]`` is the set of clusters near cluster i.

    Construction rejects an invalid topology with a ``ValueError`` naming the
    first violated rule, checked in order: index bounds, symmetry,
    regularity, self-membership.
    """

    k: int
    neighbors: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        k, neighbors = self.k, self.neighbors
        if k < 1:
            raise ValueError(f"invalid template: bounds: cluster count {k} < 1")
        if len(neighbors) != k:
            raise ValueError(
                f"invalid template: bounds: {len(neighbors)} neighborhoods for {k} clusters"
            )
        for i, nbrs in enumerate(neighbors):
            for j in nbrs:
                if not 0 <= j < k:
                    raise ValueError(
                        f"invalid template: bounds: cluster {j} in neighborhood of {i}"
                        f" outside [0, {k})"
                    )
        for i in range(k):
            for j in neighbors[i]:
                if i not in neighbors[j]:
                    raise ValueError(
                        f"invalid template: symmetry: {j} in neighborhood of {i}"
                        f" but {i} not in neighborhood of {j}"
                    )
        degree = len(neighbors[0])
        for i in range(k):
            if len(neighbors[i]) != degree:
                raise ValueError(
                    f"invalid template: regularity: |neighborhood({i})| = {len(neighbors[i])}"
                    f" != |neighborhood(0)| = {degree}"
                )
        for i in range(k):
            if i not in neighbors[i]:
                raise ValueError(
                    f"invalid template: self-membership: {i} not in its own neighborhood"
                )

    @property
    def k_p(self) -> int:
        return len(self.neighbors[0])

    @property
    def k_q(self) -> int:
        return self.k - self.k_p


def make_single() -> TemplateGraph:
    """One cluster with a self-loop; k_p=1, k_q=0."""
    return TemplateGraph(1, (frozenset({0}),))


def make_ring(k: int, reach: int) -> TemplateGraph:
    """Ring of k clusters, each near the `reach` closest on either side (k_p = 2*reach+1)."""
    if reach < 0:
        raise ValueError(f"reach must be non-negative, got {reach}")
    if k <= 2 * reach:
        raise ValueError(f"ring needs k >= 2*reach+1, got k={k}, reach={reach}")
    neighbors = tuple(
        frozenset((i + a) % k for a in range(-reach, reach + 1)) for i in range(k)
    )
    return TemplateGraph(k, neighbors)


def make_cube3() -> TemplateGraph:
    """Eight clusters at the corners of a cube; near = self plus one bit flipped (k_p=4)."""
    neighbors = tuple(
        frozenset({i, i ^ 1, i ^ 2, i ^ 4}) for i in range(8)
    )
    return TemplateGraph(8, neighbors)


def make_planted(k: int) -> TemplateGraph:
    """k isolated clusters (near = own cluster only); k_p=1, k_q=k-1."""
    return TemplateGraph(k, tuple(frozenset({i}) for i in range(k)))


def from_neighbors(neighbors: Mapping[int, Iterable[int]]) -> TemplateGraph:
    """Build a template from an explicit neighbor map and validate it.

    Invalid input is rejected, never repaired.
    """
    k = len(neighbors)
    if sorted(neighbors) != list(range(k)):
        raise ValueError("neighbor map keys must be exactly 0..k-1")
    return TemplateGraph(k, tuple(frozenset(neighbors[i]) for i in range(k)))
