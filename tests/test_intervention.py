import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from oracles import enum_residual_er, enum_residual_tm, enum_thinning, tv_distance, tv_distance_2d
from tmperc import harness
from tmperc import intervention as iv
from tmperc import template as tpl
from tmperc.analytic import AnalyticModel, critical_seed
from tmperc.engine import EngineConfig, StandardRun, run_standard
from tmperc.rngutil import substream
from tmperc.tmgraph import (
    TMParams,
    ThresholdDistribution,
    assign_thresholds,
    sample_graph,
    select_seeds,
)


def er_state(n, i_cur, i_prev, r, healthy_r=None):
    healthy = healthy_r or {r: n - i_cur}
    return iv.ObservedState(
        n=n, k=1, i_cur=i_cur, i_prev=i_prev,
        i_cur_cluster=(i_cur,), i_prev_cluster=(i_prev,),
        healthy_by_threshold=healthy, tau=3,
    )


# ---------------------------------------------------------------------------
# residual distributions


def test_residual_er_no_previous_infections_is_plain_binomial():
    params = TMParams(tpl.make_single(), 100, 0.2)
    out = iv.residual_tm(er_state(100, 7, 0, 2), 2, params, 0)[0][:, 0]
    expected = np.array([math.comb(7, a) * 0.2**a * 0.8 ** (7 - a) for a in range(8)])
    assert tv_distance(out, expected) < 1e-12


def test_residual_er_pure_conditional_when_no_growth():
    params = TMParams(tpl.make_single(), 100, 0.3)
    m = 6
    out = iv.residual_tm(er_state(100, m, m, 2), 2, params, 0)[0][:, 0]
    b = [math.comb(m, d) * 0.3**d * 0.7 ** (m - d) for d in range(m + 1)]
    norm = b[0] + b[1]
    assert out[0] == pytest.approx(b[0] / norm, rel=1e-12)
    assert out[1] == pytest.approx(b[1] / norm, rel=1e-12)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_residual_er_matches_enumeration_randomized():
    rng = np.random.default_rng(21)
    for _ in range(60):
        m = int(rng.integers(0, 7))
        delta = int(rng.integers(0, 7))
        r = int(rng.integers(1, 4))
        p = float(rng.uniform(0.05, 0.6))
        params = TMParams(tpl.make_single(), 50, p)
        mine = iv.residual_tm(er_state(50, m + delta, m, r), r, params, 0)[0][:, 0]
        truth = enum_residual_er(m, delta, p, r)
        assert tv_distance(mine, truth) < 1e-10


def test_residual_tm_reduces_to_er_when_far_is_empty():
    params = TMParams(tpl.make_single(), 60, 0.25)
    state = er_state(60, 9, 4, 3)
    joint, _ = iv.residual_tm(state, 3, params, 0)
    assert joint.shape[1] == 1 or np.allclose(joint[:, 1:], 0.0)


def test_residual_tm_symmetric_clusters_cluster_independent():
    params = TMParams(tpl.make_ring(4, 1), 40, 0.3, 0.1)
    state = iv.ObservedState(
        n=40, k=4, i_cur=8, i_prev=4,
        i_cur_cluster=(2, 2, 2, 2), i_prev_cluster=(1, 1, 1, 1),
        healthy_by_threshold={2: 32}, tau=2,
    )
    joints = [iv.residual_tm(state, 2, params, c)[0] for c in range(4)]
    for other in joints[1:]:
        assert tv_distance_2d(joints[0], other) < 1e-12


def test_residual_tm_matches_joint_enumeration():
    rng = np.random.default_rng(22)
    template = tpl.make_planted(2)
    for _ in range(25):
        m_near = int(rng.integers(0, 5))
        d_near = int(rng.integers(0, 5))
        m_far = int(rng.integers(0, 5))
        d_far = int(rng.integers(0, 5))
        r = int(rng.integers(1, 4))
        p = float(rng.uniform(0.1, 0.6))
        q = float(rng.uniform(0.0, p))
        n = 40
        state = iv.ObservedState(
            n=n, k=2,
            i_cur=m_near + d_near + m_far + d_far,
            i_prev=m_near + m_far,
            i_cur_cluster=(m_near + d_near, m_far + d_far),
            i_prev_cluster=(m_near, m_far),
            healthy_by_threshold={r: n - (m_near + d_near + m_far + d_far)},
            tau=2,
        )
        params = TMParams(template, n, p, q)
        mine, _ = iv.residual_tm(state, r, params, 0)
        truth = enum_residual_tm(m_near, d_near, m_far, d_far, p, q, r)
        assert tv_distance_2d(mine, truth) < 1e-10


def test_profile_masses_and_decay_gate():
    n = 10000
    params = TMParams(tpl.make_single(), n, 7 / n)
    # early state: i_cur < 1/(3 phi) = n/21
    state = er_state(n, 300, 200, 2)
    profile = iv.build_profile(state, params)
    assert profile.gate_ok
    marg = profile.marginal(2)
    assert marg.sum() == pytest.approx(1.0, abs=1e-10)
    assert profile.decay_violations() == []
    # late state: gate off
    late = er_state(n, 1200, 900, 2)
    late_profile = iv.build_profile(late, params)
    assert not late_profile.gate_ok


# ---------------------------------------------------------------------------
# thinning


def test_thin_residual_identity_and_annihilation():
    n = 1000
    params = TMParams(tpl.make_single(), n, 0.01)
    profile = iv.build_profile(er_state(n, 30, 20, 3), params)
    same = iv.thin_residual(profile, 1.0, 1.0)
    assert tv_distance_2d(same.joints[3], profile.joints[3]) < 1e-12
    dead = iv.thin_residual(profile, 0.0, 0.0)
    assert dead.joints[3][0, 0] == pytest.approx(1.0, abs=1e-12)


def test_thin_residual_matches_enumeration():
    n = 60
    params = TMParams(tpl.make_planted(2), n, 0.3, 0.2)
    state = iv.ObservedState(
        n=n, k=2, i_cur=6, i_prev=3,
        i_cur_cluster=(3, 3), i_prev_cluster=(2, 1),
        healthy_by_threshold={3: 54}, tau=2,
    )
    profile = iv.build_profile(state, params)
    joint = profile.joints[3]
    small = joint[:5, :5] / joint[:5, :5].sum()
    thinned = iv.thin_residual(
        iv.ResidualProfile({3: small}, {3: 1.0}, True, 0.0, 0.0), 0.5, 0.3
    ).joints[3]
    truth = enum_thinning(small, 0.5, 0.3)
    assert tv_distance_2d(thinned, truth) < 1e-12


# ---------------------------------------------------------------------------
# surrogates


def uniform_r2_profile(n=10000, i_cur=300, i_prev=200):
    params = TMParams(tpl.make_single(), n, 7 / n)
    state = er_state(n, i_cur, i_prev, 2)
    return params, state, iv.build_profile(state, params)


def test_surrogate_bolster_point_mass_expansion():
    params, state, profile = uniform_r2_profile()
    bolster = iv.Bolster({2: {3: 1.0}})
    surrogate = iv.build_surrogate(state, bolster, params, profile)
    marg = profile.marginal(2)
    assert surrogate.j[2] == pytest.approx(marg[0], rel=1e-12)  # j_3 = Pr[H_0]
    assert surrogate.j[1] == pytest.approx(marg[1], rel=1e-12)  # j_2 = Pr[H_1]
    assert surrogate.j[0] == 0.0
    doomed = 1.0 - marg[0] - marg[1]
    assert surrogate.seed_count == pytest.approx(state.healthy_total * doomed, rel=1e-9)


def test_surrogate_mass_balance():
    params, state, profile = uniform_r2_profile()
    for variant in (
        iv.bolster_a(0.4, (2,)),
        iv.bolster_b(0.4, (2,)),
        iv.Diminish(0.6, 0.6),
        iv.Sequester(0.6, 0.6),
        iv.Delay(0.5, 10),
    ):
        surrogate = iv.build_surrogate(state, variant, params, profile)
        balance = surrogate.seed_count / state.healthy_total + surrogate.j.sum()
        assert balance == pytest.approx(1.0, abs=1e-10)


def test_delay_is_geometric_bolster():
    thresholds = (2, 3)
    delay = iv.Delay(0.5, 6)
    bolster = iv.delay_to_bolster(delay, thresholds)
    law = bolster.zeta_prime[2]
    assert law[2] == pytest.approx(0.5)
    assert law[3] == pytest.approx(0.25)
    assert law[4] == pytest.approx(0.125)
    assert law[6] == pytest.approx(1 - 0.5 - 0.25 - 0.125 - 0.0625)
    assert sum(law.values()) == pytest.approx(1.0)
    params, state, profile = uniform_r2_profile()
    via_delay = iv.build_surrogate(state, delay, params, profile)
    via_bolster = iv.build_surrogate(state, iv.delay_to_bolster(delay, (2,)), params, profile)
    assert np.allclose(via_delay.j, via_bolster.j)


def test_bolster_j_decay_under_gate():
    params, state, profile = uniform_r2_profile()
    assert profile.gate_ok
    for alpha in (0.0, 0.3, 0.7, 1.0):
        surrogate = iv.build_surrogate(state, iv.bolster_a(alpha, (2,)), params, profile)
        assert surrogate.j_decay_ok


def test_bolster_rejects_bad_laws():
    with pytest.raises(ValueError):
        iv.Bolster({2: {3: 0.6}})  # mass not 1
    with pytest.raises(ValueError):
        iv.Bolster({3: {2: 1.0}})  # below old threshold without the weaken flag
    weakened = iv.Bolster({3: {2: 1.0}}, allow_weaken=True)
    assert weakened.r_max_prime == 2
    with pytest.raises(ValueError):
        iv.Bolster({3: {1: 1.0}}, allow_weaken=True)  # below 2 even weakened


def test_surrogate_diminish_identity_and_annihilation():
    params, state, profile = uniform_r2_profile()
    noop = iv.build_surrogate(state, iv.Diminish(1.0, 1.0), params, profile)
    plain_j = np.array([profile.marginal(2)[1], profile.marginal(2)[0]])
    assert np.allclose(noop.j, plain_j)
    assert noop.params.p == params.p
    dead = iv.build_surrogate(state, iv.Diminish(0.0, 0.0), params, profile)
    assert dead.j[1] == pytest.approx(1.0, abs=1e-12)  # all mass at full threshold
    assert dead.seed_count == pytest.approx(0.0, abs=1e-9)
    assert dead.params.p == 0.0
    verdict = iv.predict(dead)
    assert verdict.outcome == iv.PREDICTED_HALT


def test_surrogate_diminish_monte_carlo():
    n = 10000
    params = TMParams(tpl.make_single(), n, 7 / n)
    m, delta, r, alpha = 250, 120, 2, 0.5
    state = er_state(n, m + delta, m, r)
    profile = iv.build_profile(state, params)
    surrogate = iv.build_surrogate(state, iv.Diminish(alpha, alpha), params, profile)
    rng = np.random.default_rng(77)
    samples = 1_000_000
    prior = rng.binomial(m, params.p, size=4 * samples)
    prior = prior[prior <= r - 1][:samples]
    fresh = rng.binomial(delta, params.p, size=samples)
    exposure = prior + fresh
    kept = rng.binomial(exposure, alpha)
    alive = kept < r
    mc_j = np.bincount(r - kept[alive] - 1, minlength=r)[:r] / samples
    assert np.allclose(surrogate.j, mc_j, atol=2e-3)
    mc_seed = state.healthy_total * (1 - alive.mean())
    assert surrogate.seed_count == pytest.approx(mc_seed, abs=2e-3 * state.healthy_total)


def test_sequester_keeps_probabilities_and_shares_j():
    params, state, profile = uniform_r2_profile()
    for alpha in (0.0, 0.5, 1.0):
        dim = iv.build_surrogate(state, iv.Diminish(alpha, alpha), params, profile)
        seq = iv.build_surrogate(state, iv.Sequester(alpha, alpha), params, profile)
        assert np.allclose(dim.j, seq.j)
        assert seq.params.p == params.p and seq.params.q == params.q
        assert seq.params.p >= dim.params.p and seq.params.q >= dim.params.q


def test_diminish_verdict_monotone_in_alpha():
    n = 10000
    params = TMParams(tpl.make_single(), n, 15 / n)
    state = er_state(n, 1100, 800, 3)
    profile = iv.build_profile(state, params)
    alphas = np.linspace(0.05, 1.0, 12)
    phis, seeds, outcomes = [], [], []
    for alpha in alphas:
        surrogate = iv.build_surrogate(state, iv.Diminish(alpha, alpha), params, profile)
        verdict = iv.predict(surrogate)
        phis.append(math.inf if verdict.Phi_J is None else verdict.Phi_J)
        seeds.append(verdict.phi_J)
        outcomes.append(verdict.outcome)
    assert all(phis[i] >= phis[i + 1] for i in range(len(phis) - 1))
    assert all(seeds[i] <= seeds[i + 1] + 1e-9 for i in range(len(seeds) - 1))
    halt_region = [o == iv.PREDICTED_HALT for o in outcomes]
    # halts form a prefix of the alpha grid
    if any(halt_region):
        last = max(i for i, h in enumerate(halt_region) if h)
        assert all(halt_region[: last + 1])


def test_predict_noop_bolster_past_bottleneck_is_spread():
    n = 10000
    params = TMParams(tpl.make_single(), n, 7 / n)
    dist = ThresholdDistribution.point_mass(2)
    g = sample_graph(params, substream(200, 1))
    thresholds = assign_thresholds(dist, n, substream(200, 2))
    model = AnalyticModel(params, dist)
    base = critical_seed(model)
    seeds = select_seeds(2 * base.phi_critical, n, substream(200, 3))
    spec = iv.InterventionSpec(iv.Bolster({2: {2: 1.0}}), 0.1)
    run, triggered = iv.run_to_trigger(g, thresholds, seeds, spec)
    assert triggered
    observed = iv.snapshot_observed(run)
    surrogate = iv.build_surrogate(observed, spec.variant, params)
    verdict = iv.predict(surrogate)
    assert verdict.outcome == iv.PREDICTED_SPREAD
    assert verdict.flags["too_late"]


def test_verdict_band_membership():
    params, state, profile = uniform_r2_profile()
    surrogate = iv.build_surrogate(state, iv.bolster_a(0.5, (2,)), params, profile)
    verdict = iv.predict(surrogate, epsilon=0.1)
    lo, hi = verdict.band
    if verdict.outcome == iv.UNCERTAIN:
        assert lo <= verdict.phi_J <= hi
    elif verdict.outcome == iv.PREDICTED_HALT:
        assert verdict.phi_J < lo
    else:
        assert verdict.phi_J > hi
    # a huge band always captures the seed count
    wide = iv.predict(surrogate, epsilon=50.0)
    assert wide.outcome == iv.UNCERTAIN


# ---------------------------------------------------------------------------
# live application


def triggered_run(seed=300, n=4000, p_scale=7.0, r=2, factor=1.8):
    params = TMParams(tpl.make_single(), n, p_scale / n)
    dist = ThresholdDistribution.point_mass(r)
    g = sample_graph(params, substream(seed, 1))
    thresholds = assign_thresholds(dist, n, substream(seed, 2))
    model = AnalyticModel(params, dist)
    base = critical_seed(model)
    seeds = select_seeds(int(factor * base.phi_critical), n, substream(seed, 3))
    spec = iv.InterventionSpec(iv.bolster_a(0.5, (r,)), 0.1)
    run, triggered = iv.run_to_trigger(
        g, thresholds, seeds, spec, EngineConfig(stop_fraction=0.8)
    )
    assert triggered
    return params, g, thresholds, seeds, run


def test_noop_diminish_leaves_trace_unchanged():
    params, g, thresholds, seeds, run = triggered_run()
    baseline = run_standard(g, thresholds, seeds, EngineConfig(stop_fraction=0.8))
    spec = iv.InterventionSpec(iv.Diminish(1.0, 1.0), 0.1)
    trace = iv.apply_in_simulation(run.clone(), spec, substream(301, 1))
    assert np.array_equal(trace.totals, baseline.totals)
    assert np.array_equal(trace.final_infected, baseline.final_infected)


def test_bolster_to_unreachable_threshold_halts_next_generation():
    params, g, thresholds, seeds, run = triggered_run()
    huge = g.n  # no vertex can accumulate n infected neighbors
    spec = iv.InterventionSpec(iv.Bolster({2: {huge: 1.0}}), 0.1)
    trace = iv.apply_in_simulation(run.clone(), spec, substream(301, 2))
    assert trace.verdict == "halted"
    # only the already-doomed vertices turn after the intervention
    assert trace.tau_end <= run.generation + 2


def test_sequester_never_deletes_healthy_healthy_edges():
    params, g, thresholds, seeds, run = triggered_run()
    infected_before = run.infected.copy()
    spec = iv.InterventionSpec(iv.Sequester(0.0, 0.0), 0.1)
    clone = run.clone()
    iv.apply_in_simulation(clone, spec, substream(301, 3))
    kept = clone.g
    healthy_pairs_original = int(
        np.count_nonzero(~infected_before[g.edge_u] & ~infected_before[g.edge_v])
    )
    healthy_pairs_kept = int(
        np.count_nonzero(~infected_before[kept.edge_u] & ~infected_before[kept.edge_v])
    )
    assert healthy_pairs_kept == healthy_pairs_original
    # alpha = 0 removes every infected-incident edge
    assert np.count_nonzero(infected_before[kept.edge_u] | infected_before[kept.edge_v]) == 0


def test_diminish_alpha_zero_halts():
    params, g, thresholds, seeds, run = triggered_run()
    spec = iv.InterventionSpec(iv.Diminish(0.0, 0.0), 0.1)
    trace = iv.apply_in_simulation(run.clone(), spec, substream(301, 4))
    assert trace.verdict == "halted"


def test_run_to_trigger_reports_subcritical_baseline():
    n = 3000
    params = TMParams(tpl.make_single(), n, 7 / n)
    dist = ThresholdDistribution.point_mass(2)
    g = sample_graph(params, substream(302, 1))
    thresholds = assign_thresholds(dist, n, substream(302, 2))
    seeds = select_seeds(5, n, substream(302, 3))  # far below critical
    spec = iv.InterventionSpec(iv.bolster_a(0.5, (2,)), 0.1)
    run, triggered = iv.run_to_trigger(g, thresholds, seeds, spec)
    assert not triggered
    assert run.verdict == "halted"


def test_run_to_trigger_save_vertices_pauses_before_the_crossing():
    params, g, thresholds, seeds, plain = triggered_run()
    config = EngineConfig(stop_fraction=0.8)
    spec = iv.InterventionSpec(iv.Bolster({2: {3: 1.0}}, save_vertices=True), 0.1)
    run, triggered = iv.run_to_trigger(g, thresholds, seeds, spec, config)
    trigger_at = spec.trigger_fraction * g.n
    assert triggered
    assert run.verdict is None
    assert run.totals[-1] <= trigger_at < run.totals[-1] + run._candidates().size
    assert plain.generation == run.generation + 1


def test_run_to_trigger_save_vertices_seeds_past_stop_fraction_trigger():
    params, g, thresholds, seeds, _ = triggered_run()
    config = EngineConfig(stop_fraction=0.001)
    for save in (False, True):
        spec = iv.InterventionSpec(iv.Bolster({2: {3: 1.0}}, save_vertices=save), 0.0001)
        run, triggered = iv.run_to_trigger(g, thresholds, seeds, spec, config)
        assert run.verdict == "spread" and run.generation == 0
        assert triggered


def test_snapshot_observed_consistency():
    params, g, thresholds, seeds, run = triggered_run()
    observed = iv.snapshot_observed(run)
    assert observed.i_cur == run.totals[-1]
    assert observed.i_prev == run.totals[-2]
    assert observed.i_cur > observed.i_prev
    assert sum(observed.healthy_by_threshold.values()) == observed.n - observed.i_cur


def test_boundary_scan_brackets_actual_state():
    # strong intervention: the boundary should exceed a weak intervention's
    params, g, thresholds, seeds, run = triggered_run(seed=305, n=10000, factor=1.4)
    observed = iv.snapshot_observed(run)
    strong = iv.boundary_scan(observed, iv.bolster_a(0.0, (2,)), params)
    weak = iv.boundary_scan(observed, iv.bolster_a(1.0, (2,)), params)
    if not (math.isnan(strong) or math.isnan(weak)):
        assert strong > weak


def test_modification1_save_vertices_changes_surrogate():
    params, state, profile = uniform_r2_profile()
    plain = iv.build_surrogate(state, iv.Bolster({2: {4: 1.0}}), params, profile)
    saving = iv.build_surrogate(
        state, iv.Bolster({2: {4: 1.0}}, save_vertices=True), params, profile
    )
    # saving vertices moves doomed mass back into the threshold law
    assert saving.seed_count < plain.seed_count
    assert saving.j.sum() > plain.j.sum()


def test_modification2_weaken_voids_decay_guarantee():
    params, state, profile = uniform_r2_profile()
    weaken = iv.Bolster({2: {2: 0.5, 3: 0.5}}, allow_weaken=True)
    surrogate = iv.build_surrogate(state, weaken, params, profile)
    assert surrogate.flags["modification2"]


# ---------------------------------------------------------------------------
# proportional rescaling of observed counts (boundary_scan's hypothetical states)


def _old_proportional(counts, total):
    """The rounding rule before deficits spilled: the whole residual on the largest."""
    base = sum(counts)
    out = [total // len(counts)] * len(counts) if base == 0 else [
        int(round(c * total / base)) for c in counts
    ]
    out[out.index(max(out))] += total - sum(out)
    return tuple(out)


def test_proportional_spills_deficit_instead_of_going_negative():
    # 7 ones rounded to 5 * 1/7 each give 7; the old rule put -1 on one entry
    counts = (0, 0, 1, 1, 1, 1, 0, 1, 1, 1)
    assert min(_old_proportional(counts, 5)) == -1
    assert iv._proportional(counts, 5) == (0, 0, 0, 0, 1, 1, 0, 1, 1, 1)
    shares = dict(enumerate(counts))
    assert iv._proportional_map(shares, 5) == dict(enumerate((0, 0, 0, 0, 1, 1, 0, 1, 1, 1)))


@given(
    st.lists(st.integers(0, 60), min_size=1, max_size=12),
    st.integers(0, 600),
)
@example([0, 0, 1, 1, 1, 1, 0, 1, 1, 1], 5)
def test_proportional_properties(counts, total):
    out = iv._proportional(tuple(counts), total)
    assert min(out) >= 0
    assert sum(out) == total
    old = _old_proportional(counts, total)
    if min(old) >= 0:
        assert out == old
    if sum(counts):
        mapped = iv._proportional_map(dict(enumerate(counts)), total)
        assert tuple(mapped.values()) == out


def test_boundary_scan_on_sparse_ring_cluster_counts():
    # graph 9 of this ring sweep at seed 2 scales 5 infected over 7 of 10
    # clusters; the negative cluster count used to make build_profile raise
    raw = {
        "name": "ring-diminish",
        "master_seed": 2,
        "graph": {"template": {"kind": "ring", "k": 10, "reach": 1}, "n": 10000,
                  "p": 0.003, "q": 0.002},
        "thresholds": {"zeta": {"3": 1.0}},
        "sweep": {"axis": "alpha", "values": [0.1, 0.25, 0.4, 0.55, 0.7, 0.85]},
        "graphs": 10,
        "trials": 1,
        "intervention": {"variant": "diminish", "lambda": 0.1, "baseline_seed_factor": 1.3,
                         "alpha_q_ratio": 2 / 3, "compute_boundary": True},
    }
    config = harness.load_config(raw)
    rows = harness._intervention_graph_task((config.raw, 9, harness._baseline_seed_count(config)))
    assert [row["point"] for row in rows] == list(range(6))
    assert rows[2]["boundary_i_cur"] == 648.5
