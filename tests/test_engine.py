import numpy as np
import pytest

from oracles import (
    dense_fixpoint,
    reference_coinflip,
    reference_exposure,
    reference_standard,
)
from tmperc import intervention as iv
from tmperc import template as tpl
from tmperc.analytic import CoinflipModel
from tmperc.engine import (
    EngineError,
    StandardRun,
    _gather_neighbors,
    _tally,
    run_coinflip,
    run_standard,
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
    totals, _, verdict, final_infected = expected[:4]
    assert np.array_equal(trace.totals, totals)
    assert trace.verdict == verdict
    assert np.array_equal(trace.final_infected, final_infected)


def test_no_seeds_halts_at_generation_zero():
    g = path_graph(5)
    trace = run_standard(g, np.ones(5, dtype=int), np.empty(0, dtype=int), 0.9)
    assert trace.verdict == "halted"
    assert trace.tau_end == 0
    assert trace.totals.tolist() == [0]


def test_complete_graph_threshold_one_spreads_in_one_generation():
    params = TMParams(tpl.make_single(), 4, 1.0)
    g = sample_graph(params, substream(1, 1))
    trace = run_standard(g, np.ones(4, dtype=int), np.array([2]), stop_fraction=1.0)
    assert trace.verdict == "spread"
    assert trace.totals.tolist() == [1, 4]


def test_standard_matches_dense_fixpoint_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(250):
        g, thresholds, seeds = random_instance(rng)
        trace = run_standard(g, thresholds, seeds, stop_fraction=1.0)
        expected = dense_fixpoint(g.n, g.edge_u, g.edge_v, thresholds, seeds)
        assert np.array_equal(trace.final_infected, expected)


def test_trace_conservation_and_monotonicity():
    rng = np.random.default_rng(43)
    for _ in range(50):
        g, thresholds, seeds = random_instance(rng)
        trace = run_standard(g, thresholds, seeds, stop_fraction=1.0)
        assert np.all(np.diff(trace.totals) >= 0)
        assert trace.totals[-1] == trace.final_infected.size


def test_standard_determinism():
    params = TMParams(tpl.make_single(), 500, 8 / 500)
    g = sample_graph(params, substream(3, 3))
    thresholds = np.full(500, 2)
    seeds = np.arange(40)
    a = run_standard(g, thresholds, seeds, 0.9)
    b = run_standard(g, thresholds, seeds, 0.9)
    assert np.array_equal(a.totals, b.totals)
    assert np.array_equal(a.final_infected, b.final_infected)


def path_to_trigger(lam: float) -> tuple[StandardRun, bool]:
    g = path_graph(10)
    variant = iv.Bolster({1: {1: 1.0}})
    return iv.run_to_trigger(g, np.ones(10, dtype=int), np.array([0]), variant, lam, 1.0)


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
    run = StandardRun(g, np.full(6, 2), np.array([0, 1]), stop_fraction=1.0)
    exposure = run.current_exposure()
    assert exposure[2] == 1  # neighbor 1 infected
    assert exposure[3] == 0


def test_reassign_turns_vertices_already_exposed_enough():
    # vertex 4 is exposed to seed 3 but to no vertex of the last frontier {1}
    run = StandardRun(path_graph(7), np.array([3, 1, 3, 3, 3, 3, 3]), np.array([0, 3]), 1.0)
    run.step()
    assert np.array_equal(run.frontier, [1]) and run._candidates().size == 0
    run.reassign(np.array([4]), np.array([1]))
    run.reassign(np.array([6]), np.array([2]))  # a later call keeps vertex 4 queued
    assert np.array_equal(run._candidates(), [4])
    assert run.finish() == "halted"
    assert np.array_equal(run.trace().final_infected, [0, 1, 3, 4])


# ---------------------------------------------------------------------------
# coinflip mode


def test_coinflip_deterministic_coin_equals_standard():
    params = TMParams(tpl.make_single(), 300, 10 / 300)
    g = sample_graph(params, substream(5, 5))
    seeds = np.arange(15)
    cf = CoinflipModel(1, 1.0, 20)
    coin_trace = run_coinflip(g, cf, seeds, 0.9, substream(5, 6))
    std_trace = run_standard(g, np.full(300, 2), seeds, 0.9)
    assert np.array_equal(coin_trace.totals, std_trace.totals)
    assert np.array_equal(coin_trace.final_infected, std_trace.final_infected)


def test_coinflip_determinism_given_seed():
    params = TMParams(tpl.make_single(), 400, 10 / 400)
    g = sample_graph(params, substream(9, 1))
    cf = CoinflipModel(1, 0.5, 20)
    seeds = np.arange(25)
    a = run_coinflip(g, cf, seeds, 0.9, substream(9, 2))
    b = run_coinflip(g, cf, seeds, 0.9, substream(9, 2))
    assert np.array_equal(a.totals, b.totals)
    assert np.array_equal(a.final_infected, b.final_infected)


def test_coinflip_monotone_and_conserving():
    params = TMParams(tpl.make_planted(2), 200, 0.1, 0.02)
    g = sample_graph(params, substream(10, 1))
    cf = CoinflipModel(1, 0.4, 6)
    trace = run_coinflip(g, cf, np.arange(10), 0.9, substream(10, 2))
    assert np.all(np.diff(trace.totals) >= 0)
    assert trace.totals[-1] == trace.final_infected.size


def test_duplicate_seeds_rejected_in_every_mode():
    g = path_graph(5)
    seeds = np.array([0, 0])
    with pytest.raises(ValueError):
        run_standard(g, np.full(5, 5), seeds, 1.0)
    with pytest.raises(ValueError):
        run_coinflip(g, CoinflipModel(0, 1.0, 3), seeds, 1.0, substream(19, 1))


def test_coinflip_requires_rng():
    g = path_graph(4)
    with pytest.raises(TypeError, match="rng"):
        run_coinflip(g, CoinflipModel(1, 0.5, 3), np.array([0]), 0.9)


def test_engine_config_validation():
    g = path_graph(4)
    with pytest.raises(ValueError, match=r"stop_fraction 0.0 outside \(0, 1\]"):
        run_standard(g, np.ones(4, dtype=int), np.array([0]), stop_fraction=0.0)
    with pytest.raises(ValueError, match="stop_fraction"):
        StandardRun(g, np.ones(4, dtype=int), np.array([0]), stop_fraction=1.5)
    with pytest.raises(ValueError, match="stop_fraction"):
        run_coinflip(g, CoinflipModel(1, 0.5, 3), np.array([0]), 0.0, substream(19, 2))


# ---------------------------------------------------------------------------
# scatter kernel and the pre-kernel reference step


def test_tally_matches_np_unique():
    # (values, n) pairs on both sides of the switch at F = n: sort for F <= n,
    # an n-sized count for F > n
    rng = np.random.default_rng(50)
    cases = [
        (np.empty(0, dtype=np.int64), 1),
        (np.array([7]), 8),
        (np.array([0]), 1),  # F = n = 1
        (np.array([0, 0]), 1),  # F = n + 1
        (np.array([3, 3, 3]), 4),
        (np.arange(5)[::-1], 5),
    ]
    for _ in range(100):
        n = int(rng.integers(1, 500))
        for size in (int(rng.integers(0, n)), n, n + 1, int(rng.integers(n + 2, 20 * n + 3))):
            cases.append((rng.integers(0, n, size=size), n))
    g = path_graph(6)  # empty and single-vertex frontiers, as the engine gathers them
    for frontier in (np.empty(0, dtype=np.int64), np.array([0]), np.array([3])):
        cases.append((_gather_neighbors(g, frontier), g.n))
    hub = SampledGraph(TMParams(tpl.make_single(), 6, 0.5), np.zeros(5, dtype=np.int64), np.arange(1, 6))
    cases.append((_gather_neighbors(hub, np.arange(1, 6)), hub.n))  # F = 5 <= n, all one vertex
    cases.append((_gather_neighbors(hub, np.arange(6)), hub.n))  # F = 10 > n
    sides = set()
    for values, n in cases:
        values = np.asarray(values, dtype=np.int64)
        touched, hits = _tally(values, n)
        expected, counts = np.unique(values, return_counts=True)
        assert touched.dtype == hits.dtype == np.int64
        assert np.array_equal(touched, expected)
        assert np.array_equal(hits, counts)
        sides.add(values.size > n)
    assert sides == {False, True}


def test_tally_of_int32_ids_returns_intp_ids():
    # the graph's ids are int32; the tally sorts them at that width and hands
    # back native indices on both sides of the switch at F = n
    rng = np.random.default_rng(52)
    for size in (0, 40, 50, 51, 400):
        values = rng.integers(0, 50, size=size).astype(np.int32)
        touched, hits = _tally(values, 50)
        expected, counts = np.unique(values, return_counts=True)
        assert touched.dtype == np.intp and hits.dtype == np.intp, size
        assert np.array_equal(touched, expected) and np.array_equal(hits, counts)
    g = path_graph(6)
    assert _gather_neighbors(g, np.array([2, 3])).dtype == np.int32
    assert _gather_neighbors(g, np.empty(0, dtype=np.intp)).dtype == np.int32


def test_standard_matches_reference_step():
    rng = np.random.default_rng(51)
    for i in range(120):
        g, thresholds, seeds = (medium_instance if i % 2 else random_instance)(rng)
        stop = float(rng.choice([0.5, 0.9, 1.0]))
        trace = run_standard(g, thresholds, seeds, stop_fraction=stop)
        assert_trace_equals(trace, reference_standard(g, thresholds, seeds, stop))


def test_candidates_and_exposure_match_reference():
    # a finished run has no next generation: its last one is never tallied
    rng = np.random.default_rng(52)
    for i in range(60):
        g, thresholds, seeds = (medium_instance if i % 2 else random_instance)(rng)
        run = StandardRun(g, thresholds, seeds, stop_fraction=1.0)
        while run.verdict is None:
            exposure = reference_exposure(g, run.infected)
            assert np.array_equal(run.current_exposure(), exposure)
            ready = np.flatnonzero(~run.infected & (exposure >= run.thresholds))
            assert np.array_equal(run._candidates(), ready)
            run.step()
        for peek in (run.current_exposure, run._candidates, run.step):
            with pytest.raises(EngineError, match="run already finished"):
                peek()


def test_coinflip_matches_reference_draw_for_draw():
    rng = np.random.default_rng(53)
    for i in range(100):
        g, _, seeds = (medium_instance if i % 2 else random_instance)(rng)
        r_max = int(rng.integers(2, 8))
        s, z = int(rng.integers(0, r_max)), 1.0 - rng.random()  # z in (0, 1]
        stop = float(rng.choice([0.5, 1.0]))
        ours, theirs = substream(54, i), substream(54, i)
        trace = run_coinflip(g, CoinflipModel(s, z, r_max), seeds, stop, ours)
        expected = reference_coinflip(
            g, np.full(g.n, s), np.full(g.n, z), r_max, seeds, stop, theirs
        )
        assert_trace_equals(trace, expected)
        assert ours.random() == theirs.random()  # same number of coins drawn


def _reference_generations(g, thresholds, infected, totals, stop, trigger_at=None):
    """Dense recount of every generation until a verdict, or until the next
    generation would carry the infected count past ``trigger_at``.

    ``infected`` and ``totals`` are advanced in place; returns the verdict,
    or None when paused at the trigger.
    """
    while True:
        ready = ~infected & (reference_exposure(g, infected) >= thresholds)
        if trigger_at is not None and totals[-1] + np.count_nonzero(ready) > trigger_at:
            return None
        infected |= ready
        totals.append(int(np.count_nonzero(infected)))
        if totals[-1] >= stop * g.n:
            return "spread"
        if not ready.any():
            return "halted"


def test_save_vertices_runs_match_reference():
    # run_to_trigger's peek only filters the paused frontier's tally; a
    # bolster reassigns thresholds against that tally's exposures and an edge
    # removal recounts them.  Every run still ends where a dense recount of
    # each generation ends.
    rng = np.random.default_rng(57)
    law = {r: {r + 1: 0.5, r + 2: 0.5} for r in (1, 2, 3)}
    paused = 0
    for i in range(60):
        g, thresholds, seeds = (medium_instance if i % 2 else random_instance)(rng)
        lam = float(rng.uniform(0.05, 0.6))
        stop = float(rng.choice([0.8, 1.0]))
        bolster = iv.Bolster(law, save_vertices=True)
        run, triggered = iv.run_to_trigger(g, thresholds, seeds, bolster, lam, stop)
        infected = np.zeros(g.n, dtype=bool)
        infected[seeds] = True
        totals = [int(seeds.size)]
        verdict = "spread" if totals[0] >= stop * g.n else ("halted" if not seeds.size else None)
        if verdict is None:
            verdict = _reference_generations(g, thresholds, infected, totals, stop, lam * g.n)
        assert run.totals == totals and np.array_equal(run.infected, infected)
        assert run.verdict == verdict
        if verdict is not None:
            assert triggered == (totals[-1] > lam * g.n)
            continue
        paused += 1
        assert triggered
        exposure = reference_exposure(g, infected)
        assert np.array_equal(run.current_exposure(), exposure)
        assert np.array_equal(
            run._candidates(), np.flatnonzero(~infected & (exposure >= thresholds))
        )
        variant = iv.Diminish(0.5, 0.5) if i % 3 == 0 else bolster
        trace = iv.apply_in_simulation(run, variant, substream(58, i))
        # continue on the graph and thresholds the intervention left behind
        verdict = _reference_generations(run.g, run.thresholds, infected, totals, stop)
        assert np.array_equal(trace.totals, totals) and trace.verdict == verdict
        assert np.array_equal(trace.final_infected, np.flatnonzero(infected))
    assert paused >= 20
