import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tmperc import template as tpl
from tmperc.rngutil import substream
from tmperc.tmgraph import (
    SampledGraph,
    TMParams,
    ThresholdDistribution,
    _bernoulli_hits,
    _decode_triangle,
    assign_thresholds,
    sample_graph,
    select_seeds,
)

from oracles import reference_csr, reference_sample_graph


def test_params_derived_quantities():
    params = TMParams(tpl.make_ring(20, 1), 10000, 100 / (3 * 10000), 100 / (17 * 10000))
    assert params.k_p == 3
    assert params.k_q == 17
    assert params.eta == 500
    assert math.isclose(params.phi, 200 / 10000)
    assert math.isclose(params.expected_degree, 10.0)


def test_params_rejections():
    with pytest.raises(ValueError):
        TMParams(tpl.make_single(), 10, 0.2, 0.5)  # q > p
    with pytest.raises(ValueError):
        TMParams(tpl.make_single(), 10, 1.5)
    # the parameters admit uneven clusters for analytic-only use; sampling refuses them
    relaxed = TMParams(tpl.make_planted(3), 10, 0.1)
    assert relaxed.eta == pytest.approx(10 / 3)
    with pytest.raises(ValueError):
        sample_graph(relaxed, substream(0, 1))  # 10 not divisible by 3


@pytest.mark.parametrize("template, n", [(tpl.make_planted(3), 10), (tpl.make_ring(5, 1), 3)])
def test_sample_graph_rejects_uneven_clusters(template, n):
    # analytic-only params admit n % k != 0; sampling still refuses them
    params = TMParams(template, n, 0.3, 0.1)
    with pytest.raises(ValueError, match=f"n={n} not divisible by k={template.k}"):
        sample_graph(params, substream(0, 1))


def test_threshold_distribution_validation():
    with pytest.raises(ValueError):
        ThresholdDistribution((0.5, 0.4))
    with pytest.raises(ValueError):
        ThresholdDistribution((1.5, -0.5))
    dist = ThresholdDistribution.from_mapping({2: 0.5, 3: 0.5})
    assert dist.r_max == 3
    assert dist.zeta == (0.0, 0.5, 0.5)


def test_zeta1_condition_flag():
    assert ThresholdDistribution.from_mapping({2: 1.0}).zeta1_condition_ok
    assert ThresholdDistribution((0.1, 0.9)).zeta1_condition_ok
    assert not ThresholdDistribution((0.4, 0.6)).zeta1_condition_ok
    assert ThresholdDistribution.from_mapping({3: 1.0}).zeta1_condition_ok  # no mass at 1


def test_complete_graph_when_p_one():
    params = TMParams(tpl.make_single(), 4, 1.0)
    g = sample_graph(params, substream(0, 1))
    assert g.num_edges == 6
    assert np.array_equal(g.degrees(), np.full(4, 3))


def test_empty_graph_when_p_zero():
    params = TMParams(tpl.make_single(), 50, 0.0)
    g = sample_graph(params, substream(0, 1))
    assert g.num_edges == 0


def test_mean_degree_concentration():
    n = 10000
    params = TMParams(tpl.make_single(), n, 10 / n)
    g = sample_graph(params, substream(3, 1))
    mean_degree = 2 * g.num_edges / n
    # Var(mean degree) ~ 2 p (1-p) (n-1)/n; three sigma around 10
    sigma = math.sqrt(2 * (10 / n) * (1 - 10 / n) * (n - 1) / n)
    assert abs(mean_degree - 10.0) <= 3 * sigma + 1e-9


def test_sampling_determinism_and_variation():
    params = TMParams(tpl.make_ring(10, 1), 1000, 0.01, 0.001)
    g1 = sample_graph(params, substream(9, 4))
    g2 = sample_graph(params, substream(9, 4))
    g3 = sample_graph(params, substream(9, 5))
    assert np.array_equal(g1.edge_u, g2.edge_u) and np.array_equal(g1.edge_v, g2.edge_v)
    assert not (
        g1.num_edges == g3.num_edges
        and np.array_equal(g1.edge_u, g3.edge_u)
        and np.array_equal(g1.edge_v, g3.edge_v)
    )


def test_adjacency_symmetry_no_self_loops_no_duplicates():
    params = TMParams(tpl.make_cube3(), 8 * 30, 0.2, 0.05)
    g = sample_graph(params, substream(11, 0))
    assert np.all(g.edge_u < g.edge_v)
    pairs = set(zip(g.edge_u.tolist(), g.edge_v.tolist()))
    assert len(pairs) == g.num_edges

    def neighbors(u):
        return g.indices[g.indptr[u] : g.indptr[u + 1]]

    for u in range(g.n):
        for v in neighbors(u):
            assert u in neighbors(v)


def test_cluster_sizes_exact():
    params = TMParams(tpl.make_planted(4), 40, 0.3, 0.1)
    g = sample_graph(params, substream(2, 2))
    assert (g.n, g.k, g.eta) == (40, 4, 10)  # cluster of u: u // eta


def test_near_edge_count_concentration():
    # aggregate near-pair edges over repeated sampling vs binomial expectation
    params = TMParams(tpl.make_planted(2), 60, 0.3, 0.1)
    near_pairs_per_graph = 2 * (30 * 29 // 2)
    samples = 40
    total = 0
    for i in range(samples):
        g = sample_graph(params, substream(17, i))
        total += int(np.count_nonzero(g.edge_is_near()))
    trials = samples * near_pairs_per_graph
    mean = trials * params.p
    sigma = math.sqrt(trials * params.p * (1 - params.p))
    assert abs(total - mean) <= 4 * sigma


def test_edge_is_near_is_computed_once_and_read_only():
    params = TMParams(tpl.make_ring(6, 1), 600, 0.05, 0.01)
    g = sample_graph(params, substream(18, 0))
    near = g.edge_is_near()
    assert near is g.edge_is_near()
    assert not near.flags.writeable
    assert np.array_equal(near, params.near_matrix()[g.edge_u // g.eta, g.edge_v // g.eta])


def test_assign_thresholds_point_masses():
    dist = ThresholdDistribution.from_mapping({2: 1.0})
    out = assign_thresholds(dist, 100, substream(1, 1))
    assert np.all(out == 2)
    ones = assign_thresholds(ThresholdDistribution.from_mapping({1: 1.0}), 50, substream(1, 2))
    assert np.all(ones == 1)


def test_assign_thresholds_concentration():
    dist = ThresholdDistribution.from_mapping({2: 0.5, 3: 0.5})
    out = assign_thresholds(dist, 10000, substream(5, 1))
    count3 = int(np.count_nonzero(out == 3))
    sigma = math.sqrt(10000 * 0.25)
    assert abs(count3 - 5000) <= 3 * sigma


def test_assign_thresholds_determinism():
    dist = ThresholdDistribution.from_mapping({1: 0.25, 2: 0.5, 4: 0.25})
    a = assign_thresholds(dist, 500, substream(8, 3))
    b = assign_thresholds(dist, 500, substream(8, 3))
    assert np.array_equal(a, b)


def test_select_seeds_edges_and_determinism():
    assert select_seeds(0, 10, substream(0, 0)).size == 0
    assert np.array_equal(select_seeds(10, 10, substream(0, 0)), np.arange(10))
    a = select_seeds(5, 100, substream(4, 4))
    b = select_seeds(5, 100, substream(4, 4))
    assert np.array_equal(a, b)
    assert np.unique(a).size == 5
    with pytest.raises(ValueError):
        select_seeds(11, 10, substream(0, 0))


@given(st.integers(2, 30), st.floats(0.0, 1.0))
def test_sampled_graph_symmetry_property(n, p):
    params = TMParams(tpl.make_single(), n, p)
    g = sample_graph(params, substream(99, n))
    counts = np.zeros(n, dtype=int)
    for u, v in zip(g.edge_u, g.edge_v):
        assert 0 <= u < v < n
        counts[u] += 1
        counts[v] += 1
    assert np.array_equal(counts, g.degrees())


def _graph_arrays(g):
    return g.edge_u, g.edge_v, g.indptr, g.indices


def _assert_arrays_equal(got, expected):
    for name, a, b in zip(("edge_u", "edge_v", "indptr", "indices"), got, expected):
        assert a.dtype == np.int64, name
        assert np.array_equal(a, b), name


@pytest.mark.parametrize(
    "template, n, p, q",
    [
        (tpl.make_single(), 600, 0.02, 0.0),
        (tpl.make_ring(10, 1), 10000, 5 / 3000, 5 / 7000),
        (tpl.make_ring(6, 2), 1200, 0.01, 0.002),
        (tpl.make_cube3(), 8 * 30, 0.2, 0.05),
        (tpl.make_planted(4), 400, 0.05, 0.01),
        (tpl.from_neighbors({0: {0, 1}, 1: {0, 1}, 2: {2, 3}, 3: {2, 3}}), 400, 0.04, 0.01),
        (tpl.make_single(), 70000, 3 / 70000, 0.0),  # n > 2**16: two radix digits
        (tpl.make_planted(3), 90, 0.0, 0.0),  # no edges
        (tpl.make_planted(2), 40, 1.0, 1.0),  # complete graph
    ],
    ids=["single", "ring10", "ring6-reach2", "cube3", "planted4", "custom-pairs", "single-70000",
         "empty", "complete"],
)
def test_sample_graph_matches_comparison_sort_reference(template, n, p, q):
    params = TMParams(template, n, p, q)
    for seed in range(3 if n > 10000 else 6):
        g = sample_graph(params, substream(31, seed))
        _assert_arrays_equal(_graph_arrays(g), reference_sample_graph(params, substream(31, seed)))


@pytest.mark.parametrize("n", [600, 70000])
def test_subgraph_and_shuffled_edges_match_comparison_sort_reference(n):
    params = TMParams(tpl.make_single(), n, 4 / n)
    g = sample_graph(params, substream(32, n))
    rng = np.random.default_rng(n)
    for fraction in (0.0, 0.3, 0.9, 1.0):
        keep = rng.random(g.num_edges) < fraction
        eu, ev = g.edge_u[keep], g.edge_v[keep]
        _assert_arrays_equal(_graph_arrays(g.subgraph(keep)), (eu, ev) + reference_csr(n, eu, ev))
    for _ in range(3):
        perm = rng.permutation(g.num_edges)
        eu, ev = g.edge_u[perm], g.edge_v[perm]
        shuffled = SampledGraph(params, eu, ev)
        _assert_arrays_equal(_graph_arrays(shuffled), (eu, ev) + reference_csr(n, eu, ev))


def _traced_peak(fn):
    """``fn()`` and the peak bytes numpy and Python allocated while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "template, p, q",
    [(tpl.make_single(), 20 / 50000, 0.0), (tpl.make_ring(10, 1), 20 / 15000, 2 / 35000)],
    ids=["single", "ring10"],
)
def test_graph_build_and_subgraph_peak_bytes_per_edge(template, p, q):
    # numpy's traced allocations repeat exactly for a fixed seed; the finished
    # graph keeps 32 bytes per edge, so the bounds leave room for one copy of
    # the edge list and one radix pass, not for several copies at once
    params = TMParams(template, 50000, p, q)
    g, peak = _traced_peak(lambda: sample_graph(params, substream(33, 0)))
    assert g.num_edges > 400000
    assert peak <= 90 * g.num_edges
    keep = np.random.default_rng(33).random(g.num_edges) < 0.5
    sub, peak = _traced_peak(lambda: g.subgraph(keep))
    assert peak <= 72 * sub.num_edges


RSS_GROWTH = """
import resource
from tmperc import template as tpl
from tmperc.rngutil import substream
from tmperc.tmgraph import TMParams, sample_graph
params = TMParams(tpl.make_single(), 200000, 20 / 200000)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
g = sample_graph(params, substream(33, 0))
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(g.num_edges, (after - before) * 1024)
"""


def test_graph_build_rss_growth_per_edge():
    # at n = 2*10**5 the edge keys need the second radix pass, and numpy's
    # stable argsort takes an index scratch array that tracemalloc does not
    # see; a fresh process bounds the peak RSS growth (kB on Linux) instead
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", RSS_GROWTH],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    edges, growth = map(int, proc.stdout.split())
    assert edges > 1900000
    assert growth <= 100 * edges


def test_bernoulli_hits_below_1e12_places_the_drawn_count_uniformly():
    # geometric gaps would overflow int64 here, so the count is drawn and placed
    count = 10**15
    hits = _bernoulli_hits(count, 1e-13, substream(34, 0))
    assert 50 < hits.size < 200  # Bin(10**15, 1e-13) has mean 100
    assert np.all(np.diff(hits) > 0)  # sorted and unique
    assert 0 <= hits[0] and hits[-1] < count


class _UnitGaps:
    """A generator stub whose every geometric gap is 1."""

    def geometric(self, prob, size):
        return np.ones(size, dtype=np.int64)


def test_bernoulli_hits_continues_past_its_first_batch():
    # a first batch of 64 gaps ends inside [0, 200), so three more follow
    assert np.array_equal(_bernoulli_hits(200, 0.01, _UnitGaps()), np.arange(200))


def test_decode_triangle_is_exact_and_peaks_at_32_bytes_per_edge():
    # the single-block draw of a graph with n = 5*10**4, p = 20/n; the pairs
    # must invert the index formula exactly, and the fix-up works in place
    eta = 50000
    idx = _bernoulli_hits(eta * (eta - 1) // 2, 20 / eta, substream(33, 0))
    assert idx.size > 400000
    (a, b), peak = _traced_peak(lambda: _decode_triangle(idx, eta))
    assert peak <= 32 * idx.size
    assert np.all((0 <= a) & (a < b) & (b < eta))
    assert np.array_equal(a * eta - a * (a + 1) // 2 + (b - a - 1), idx)
    for eta in (2, 3, 7, 1000, 70001):  # both ends of the index range
        total = eta * (eta - 1) // 2
        idx = np.unique(np.r_[np.arange(min(total, 3000)), total - 1 - np.arange(min(total, 3000))])
        a, b = _decode_triangle(idx, eta)
        assert np.all((0 <= a) & (a < b) & (b < eta))
        assert np.array_equal(a * eta - a * (a + 1) // 2 + (b - a - 1), idx)
