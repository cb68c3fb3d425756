import numpy as np
import pytest

from oracles import (
    dense_fixpoint,
    reference_coinflip,
    reference_exposure,
    reference_standard,
    reference_three_stage,
)
from tmperc import intervention as iv
from tmperc import template as tpl
from tmperc.engine import (
    EngineConfig,
    EngineError,
    StandardRun,
    _gather_neighbors,
    _tally,
    run_cheating3,
    run_coinflip,
    run_halting3,
    run_standard,
    CoinflipState,
)
from tmperc.rngutil import substream
from tmperc.tmgraph import SampledGraph, TMParams, sample_graph


def path_graph(n: int, p: float = 0.5) -> SampledGraph:
    params = TMParams(tpl.make_single(), n, p)
    u = np.arange(n - 1, dtype=np.int64)
    return SampledGraph(params, u, u + 1)


def random_instance(rng, max_n=12):
    kind = rng.integers(0, 4)
    if kind == 0:
        template = tpl.make_single()
    elif kind == 1:
        template = tpl.make_planted(int(rng.integers(2, 4)))
    elif kind == 2:
        template = tpl.make_ring(int(rng.integers(3, 5)), 1)
    else:
        template = tpl.make_cube3()
    k = template.k
    eta = int(rng.integers(1, max(2, max_n // k + 1)))
    n = k * eta
    p = float(rng.uniform(0.1, 0.9))
    q = float(rng.uniform(0.0, p))
    params = TMParams(template, n, p, q)
    g = sample_graph(params, substream(7000, int(rng.integers(1 << 30))))
    thresholds = rng.integers(1, 4, size=n)
    seeds = np.flatnonzero(rng.random(n) < 0.3)
    return g, thresholds, seeds


def medium_instance(rng):
    """A few hundred to two thousand vertices: frontiers of tens to hundreds."""
    template = [tpl.make_single(), tpl.make_planted(2), tpl.make_ring(5, 1)][int(rng.integers(3))]
    eta = int(rng.integers(60, 2000 // template.k))
    n = template.k * eta
    p = float(rng.uniform(3.0, 12.0)) / n * template.k / template.k_p
    params = TMParams(template, n, p, float(rng.uniform(0.0, p)))
    g = sample_graph(params, substream(7001, int(rng.integers(1 << 30))))
    thresholds = rng.integers(1, 4, size=n)
    seeds = np.flatnonzero(rng.random(n) < rng.uniform(0.01, 0.2))
    return g, thresholds, seeds


def assert_trace_equals(trace, expected):
    totals, per_cluster, verdict, final_infected = expected[:4]
    assert np.array_equal(trace.totals, totals)
    assert np.array_equal(trace.per_cluster, per_cluster)
    assert trace.verdict == verdict
    assert np.array_equal(trace.final_infected, final_infected)


def test_no_seeds_halts_at_generation_zero():
    g = path_graph(5)
    trace = run_standard(g, np.ones(5, dtype=int), np.empty(0, dtype=int))
    assert trace.verdict == "halted"
    assert trace.tau_end == 0
    assert trace.totals.tolist() == [0]


def test_complete_graph_threshold_one_spreads_in_one_generation():
    params = TMParams(tpl.make_single(), 4, 1.0)
    g = sample_graph(params, substream(1, 1))
    trace = run_standard(g, np.ones(4, dtype=int), np.array([2]), EngineConfig(stop_fraction=1.0))
    assert trace.verdict == "spread"
    assert trace.totals.tolist() == [1, 4]


def test_standard_matches_dense_fixpoint_on_random_instances():
    rng = np.random.default_rng(42)
    config = EngineConfig(stop_fraction=1.0)
    for _ in range(250):
        g, thresholds, seeds = random_instance(rng)
        trace = run_standard(g, thresholds, seeds, config)
        expected = dense_fixpoint(g.n, g.edge_u, g.edge_v, thresholds, seeds)
        assert np.array_equal(trace.final_infected, expected)


def test_trace_conservation_and_monotonicity():
    rng = np.random.default_rng(43)
    for _ in range(50):
        g, thresholds, seeds = random_instance(rng)
        trace = run_standard(g, thresholds, seeds, EngineConfig(stop_fraction=1.0))
        assert np.all(np.diff(trace.totals) >= 0)
        assert np.array_equal(np.diff(trace.totals, prepend=0), trace.new_counts)
        assert np.array_equal(trace.per_cluster.sum(axis=1), trace.totals)


def test_standard_determinism():
    params = TMParams(tpl.make_single(), 500, 8 / 500)
    g = sample_graph(params, substream(3, 3))
    thresholds = np.full(500, 2)
    seeds = np.arange(40)
    a = run_standard(g, thresholds, seeds)
    b = run_standard(g, thresholds, seeds)
    assert np.array_equal(a.totals, b.totals)
    assert np.array_equal(a.final_infected, b.final_infected)


def test_generation_cap_raises():
    g = path_graph(6)
    with pytest.raises(EngineError):
        run_standard(
            g,
            np.ones(6, dtype=int),
            np.array([0]),
            EngineConfig(stop_fraction=1.0, max_generations=2),
        )


def path_to_trigger(lam: float) -> tuple[StandardRun, bool]:
    g = path_graph(10)
    spec = iv.InterventionSpec(iv.Bolster({1: {1: 1.0}}), lam)
    config = EngineConfig(stop_fraction=1.0)
    return iv.run_to_trigger(g, np.ones(10, dtype=int), np.array([0]), spec, config)


def test_run_pauses_at_trigger():
    run, triggered = path_to_trigger(0.3)  # trigger at 3.0
    assert triggered
    assert run.totals[-1] == 4  # first count strictly above the trigger
    assert run.verdict is None
    assert run.finish() == "spread"


def test_replace_graph_disconnects():
    run, _ = path_to_trigger(0.2)  # trigger at 2.0
    g = run.g
    run.replace_graph(g.subgraph(np.zeros(g.num_edges, dtype=bool)))
    assert run.finish() == "halted"
    assert run.totals[-1] == run.totals[-2]


def test_current_exposure_counts_full_infected_set():
    g = path_graph(6)
    run = StandardRun(g, np.full(6, 2), np.array([0, 1]), EngineConfig(stop_fraction=1.0))
    exposure = run.current_exposure()
    assert exposure[2] == 1  # neighbor 1 infected
    assert exposure[3] == 0


# ---------------------------------------------------------------------------
# coinflip mode


def test_coinflip_deterministic_coin_equals_standard():
    params = TMParams(tpl.make_single(), 300, 10 / 300)
    g = sample_graph(params, substream(5, 5))
    seeds = np.arange(15)
    cf = CoinflipState.uniform(300, s=1, z=1.0, r_max=20)
    coin_trace = run_coinflip(g, cf, seeds, rng=substream(5, 6))
    std_trace = run_standard(g, np.full(300, 2), seeds)
    assert np.array_equal(coin_trace.totals, std_trace.totals)
    assert np.array_equal(coin_trace.final_infected, std_trace.final_infected)


def test_coinflip_zero_coin_equals_cap_threshold():
    params = TMParams(tpl.make_single(), 200, 20 / 200)
    g = sample_graph(params, substream(8, 5))
    seeds = np.arange(30)
    cf = CoinflipState.uniform(200, s=1, z=0.0, r_max=4)
    coin_trace = run_coinflip(g, cf, seeds, rng=substream(8, 6))
    std_trace = run_standard(g, np.full(200, 4), seeds)
    assert np.array_equal(coin_trace.totals, std_trace.totals)
    assert np.array_equal(coin_trace.final_infected, std_trace.final_infected)


def test_coinflip_determinism_given_seed():
    params = TMParams(tpl.make_single(), 400, 10 / 400)
    g = sample_graph(params, substream(9, 1))
    cf = CoinflipState.uniform(400, s=1, z=0.5, r_max=20)
    seeds = np.arange(25)
    a = run_coinflip(g, cf, seeds, rng=substream(9, 2))
    b = run_coinflip(g, cf, seeds, rng=substream(9, 2))
    assert np.array_equal(a.totals, b.totals)
    assert np.array_equal(a.final_infected, b.final_infected)


def test_coinflip_monotone_and_conserving():
    params = TMParams(tpl.make_planted(2), 200, 0.1, 0.02)
    g = sample_graph(params, substream(10, 1))
    cf = CoinflipState.uniform(200, s=1, z=0.4, r_max=6)
    trace = run_coinflip(g, cf, np.arange(10), rng=substream(10, 2))
    assert np.all(np.diff(trace.totals) >= 0)
    assert np.array_equal(trace.per_cluster.sum(axis=1), trace.totals)


# ---------------------------------------------------------------------------
# three-stage modes


def test_three_stage_coincide_for_single_cluster():
    params = TMParams(tpl.make_single(), 60, 0.2)
    g = sample_graph(params, substream(11, 1))
    thresholds = np.full(60, 2)
    seeds = np.arange(6)
    config = EngineConfig(stop_fraction=1.0)
    halting = run_halting3(g, thresholds, seeds, config, substream(11, 2))
    cheating = run_cheating3(g, thresholds, seeds, config, substream(11, 2))
    assert np.array_equal(halting.totals, cheating.totals)
    assert np.array_equal(halting.final_infected, cheating.final_infected)


def test_halting_subset_of_cheating_under_coupling():
    rng = np.random.default_rng(44)
    for i in range(25):
        template = tpl.make_planted(2)
        params = TMParams(template, 40, 0.3, 0.1)
        g = sample_graph(params, substream(12, i))
        thresholds = rng.integers(1, 3, size=40)
        seeds = np.flatnonzero(rng.random(40) < 0.25)
        config = EngineConfig(stop_fraction=1.0)
        halting = run_halting3(g, thresholds, seeds, config, substream(13, i))
        cheating = run_cheating3(g, thresholds, seeds, config, substream(13, i))
        assert set(halting.final_infected) <= set(cheating.final_infected)


def test_cheating_on_edgeless_graph_keeps_seeds_balanced_clusters():
    params = TMParams(tpl.make_single(), 20, 0.0)
    g = sample_graph(params, substream(14, 1))
    seeds = np.array([2, 5, 9])
    trace = run_cheating3(g, np.full(20, 2), seeds, EngineConfig(stop_fraction=1.0), substream(14, 2))
    assert np.array_equal(trace.final_infected, seeds)
    # two clusters, one seed each: depletes simultaneously, stops cleanly
    params2 = TMParams(tpl.make_planted(2), 20, 0.0, 0.0)
    g2 = sample_graph(params2, substream(14, 3))
    seeds2 = np.array([3, 13])
    trace2 = run_cheating3(g2, np.full(20, 2), seeds2, EngineConfig(stop_fraction=1.0), substream(14, 4))
    assert np.array_equal(trace2.final_infected, seeds2)


def test_halting_stops_when_any_cluster_is_out_of_latents():
    params = TMParams(tpl.make_planted(2), 20, 0.5, 0.0)
    g = sample_graph(params, substream(15, 1))
    seeds = np.array([0, 1, 2])  # all in cluster 0; cluster 1 has no latents
    trace = run_halting3(g, np.full(20, 1), seeds, EngineConfig(stop_fraction=1.0), substream(15, 2))
    assert trace.tau_end <= 1
    assert trace.verdict == "halted"


def test_three_stage_promotion_pace():
    # contagious count per cluster equals the timestep count at termination
    params = TMParams(tpl.make_planted(2), 30, 0.4, 0.1)
    g = sample_graph(params, substream(16, 1))
    rng_thresholds = np.random.default_rng(16)
    thresholds = rng_thresholds.integers(1, 3, size=30)
    seeds = np.array([0, 1, 2, 15, 16, 17])
    trace = run_halting3(g, thresholds, seeds, EngineConfig(stop_fraction=1.0), substream(16, 2))
    assert trace.contagious_per_cluster is not None
    assert np.all(trace.contagious_per_cluster == trace.tau_end)


def test_three_stage_rejects_thresholds_below_one():
    g = path_graph(5)
    for run in (run_halting3, run_cheating3):
        with pytest.raises(ValueError):
            run(g, np.zeros(5, dtype=int), np.array([0]), EngineConfig(), substream(17, 1))


def test_three_stage_stall_at_generation_cap_halts():
    params = TMParams(tpl.make_single(), 5, 0.5)
    edgeless = SampledGraph(params, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    config = EngineConfig(stop_fraction=1.0, max_generations=1)
    trace = run_halting3(edgeless, np.ones(5, dtype=int), np.array([0]), config, substream(18, 1))
    assert trace.verdict == "halted"
    assert trace.tau_end == 1


def test_duplicate_seeds_rejected_in_every_mode():
    g = path_graph(5)
    seeds = np.array([0, 0])
    config = EngineConfig(stop_fraction=1.0)
    with pytest.raises(ValueError):
        run_standard(g, np.full(5, 5), seeds, config)
    with pytest.raises(ValueError):
        run_coinflip(g, CoinflipState.uniform(5, 0, 1.0, 3), seeds, config, substream(19, 1))
    for run in (run_halting3, run_cheating3):
        with pytest.raises(ValueError):
            run(g, np.ones(5, dtype=int), seeds, config, substream(19, 2))


def test_three_stage_requires_rng():
    g = path_graph(4)
    with pytest.raises(ValueError):
        run_halting3(g, np.ones(4, dtype=int), np.array([0]))
    with pytest.raises(ValueError):
        run_coinflip(g, CoinflipState.uniform(4, 1, 0.5, 3), np.array([0]))


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(stop_fraction=0.0)


# ---------------------------------------------------------------------------
# scatter kernel and the pre-kernel reference step


def test_tally_matches_np_unique():
    rng = np.random.default_rng(50)
    cases = [np.empty(0, dtype=np.int64), np.array([7]), np.array([3, 3, 3]), np.arange(5)[::-1]]
    for _ in range(200):
        cases.append(rng.integers(0, int(rng.integers(1, 500)), size=int(rng.integers(0, 2000))))
    g = path_graph(6)  # empty and single-vertex frontiers, as the engine gathers them
    for frontier in (np.empty(0, dtype=np.int64), np.array([0]), np.array([3])):
        cases.append(_gather_neighbors(g, frontier))
    for values in cases:
        touched, hits = _tally(np.asarray(values, dtype=np.int64))
        expected, counts = np.unique(values, return_counts=True)
        assert np.array_equal(touched, expected)
        assert np.array_equal(hits, counts)


def test_standard_matches_reference_step():
    rng = np.random.default_rng(51)
    for i in range(120):
        g, thresholds, seeds = (medium_instance if i % 2 else random_instance)(rng)
        stop = float(rng.choice([0.5, 0.9, 1.0]))
        trace = run_standard(g, thresholds, seeds, EngineConfig(stop_fraction=stop))
        assert_trace_equals(trace, reference_standard(g, thresholds, seeds, stop))


def test_candidates_and_exposure_match_reference():
    rng = np.random.default_rng(52)
    for i in range(60):
        g, thresholds, seeds = (medium_instance if i % 2 else random_instance)(rng)
        run = StandardRun(g, thresholds, seeds, EngineConfig(stop_fraction=1.0))
        while True:
            exposure = reference_exposure(g, run.infected)
            assert np.array_equal(run.current_exposure(), exposure)
            ready = np.flatnonzero(~run.infected & (exposure >= run.thresholds))
            assert np.array_equal(run._candidates(), ready)
            if run.verdict is not None:
                break
            run.step()


def test_coinflip_matches_reference_draw_for_draw():
    rng = np.random.default_rng(53)
    for i in range(100):
        g, _, seeds = (medium_instance if i % 2 else random_instance)(rng)
        r_max = int(rng.integers(2, 8))
        s = rng.integers(0, r_max, size=g.n)
        z = rng.uniform(0.0, 1.0, size=g.n)
        stop = float(rng.choice([0.5, 1.0]))
        ours, theirs = substream(54, i), substream(54, i)
        config = EngineConfig(stop_fraction=stop)
        trace = run_coinflip(g, CoinflipState(s, z, r_max), seeds, config, ours)
        expected = reference_coinflip(g, s, z, r_max, seeds, stop, theirs)
        assert_trace_equals(trace, expected)
        assert ours.random() == theirs.random()  # same number of coins drawn


def test_three_stage_matches_reference():
    rng = np.random.default_rng(55)
    for i in range(60):
        g, thresholds, seeds = (medium_instance if i % 3 == 0 else random_instance)(rng)
        cheating = bool(i % 2)
        stop = float(rng.choice([0.5, 1.0]))
        run = run_cheating3 if cheating else run_halting3
        ours, theirs = substream(56, i), substream(56, i)
        trace = run(g, thresholds, seeds, EngineConfig(stop_fraction=stop), ours)
        expected = reference_three_stage(g, thresholds, seeds, stop, theirs, cheating)
        assert_trace_equals(trace, expected)
        assert np.array_equal(trace.contagious_per_cluster, expected[4])
        assert ours.random() == theirs.random()
