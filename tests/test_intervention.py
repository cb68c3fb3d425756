import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from oracles import (
    enum_residual_er,
    enum_residual_tm,
    enum_thinning,
    reference_standard,
    tv_distance,
    tv_distance_2d,
)
from tmperc import harness
from tmperc import intervention as iv
from tmperc import template as tpl
from tmperc.analytic import AnalyticModel, critical_seed, log_binom_row
from tmperc.engine import StandardRun, run_standard
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
        n=n, i_cur=i_cur, i_prev=i_prev,
        i_cur_cluster=(i_cur,), i_prev_cluster=(i_prev,),
        healthy_by_threshold=healthy,
    )


@pytest.mark.parametrize(
    "counts, message",
    [
        (dict(i_cur=3, i_prev=4, i_cur_cluster=(3,), i_prev_cluster=(4,)), "non-decreasing"),
        (dict(i_cur=3, i_prev=2, i_cur_cluster=(2,), i_prev_cluster=(2,)), "sum to the totals"),
        (dict(i_cur=3, i_prev=2, i_cur_cluster=(3,), i_prev_cluster=(1,)), "sum to the totals"),
        (dict(i_cur=3, i_prev=2, i_cur_cluster=(3,), i_prev_cluster=(2,), n=11), "cover every"),
        # a cluster of n/k = 2.5 or 1 vertices cannot hold more infected
        (dict(i_cur=3, i_prev=2, i_cur_cluster=(3, 0, 0, 0), i_prev_cluster=(2, 0, 0, 0)), "n/k"),
        (dict(i_cur=3, i_prev=2, i_cur_cluster=(1, 1, 1) + (0,) * 7, i_prev_cluster=(2,) + (0,) * 9),
         "n/k"),
    ],
    ids=["decreasing", "cur-cluster-sum", "prev-cluster-sum", "healthy-plus-infected",
         "cur-cluster-above-size", "prev-cluster-above-size"],
)
def test_observed_state_rejects_inconsistent_counts(counts, message):
    with pytest.raises(ValueError, match=message):
        iv.ObservedState(**{"n": 10, "healthy_by_threshold": {2: 7}, **counts})


# ---------------------------------------------------------------------------
# residual distributions


def test_residual_er_no_previous_infections_is_plain_binomial():
    params = TMParams(tpl.make_single(), 100, 0.2)
    out = iv.residual_tm(er_state(100, 7, 0, 2), 2, params, 0)[:, 0]
    expected = np.array([math.comb(7, a) * 0.2**a * 0.8 ** (7 - a) for a in range(8)])
    assert tv_distance(out, expected) < 1e-12


def test_residual_er_pure_conditional_when_no_growth():
    params = TMParams(tpl.make_single(), 100, 0.3)
    m = 6
    out = iv.residual_tm(er_state(100, m, m, 2), 2, params, 0)[:, 0]
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
        mine = iv.residual_tm(er_state(50, m + delta, m, r), r, params, 0)[:, 0]
        truth = enum_residual_er(m, delta, p, r)
        assert tv_distance(mine, truth) < 1e-10


def test_residual_tm_reduces_to_er_when_far_is_empty():
    params = TMParams(tpl.make_single(), 60, 0.25)
    state = er_state(60, 9, 4, 3)
    joint = iv.residual_tm(state, 3, params, 0)
    assert joint.shape[1] == 1 or np.allclose(joint[:, 1:], 0.0)


def test_residual_tm_symmetric_clusters_cluster_independent():
    params = TMParams(tpl.make_ring(4, 1), 40, 0.3, 0.1)
    state = iv.ObservedState(
        n=40, i_cur=8, i_prev=4,
        i_cur_cluster=(2, 2, 2, 2), i_prev_cluster=(1, 1, 1, 1),
        healthy_by_threshold={2: 32},
    )
    joints = [iv.residual_tm(state, 2, params, c) for c in range(4)]
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
            n=n,
            i_cur=m_near + d_near + m_far + d_far,
            i_prev=m_near + m_far,
            i_cur_cluster=(m_near + d_near, m_far + d_far),
            i_prev_cluster=(m_near, m_far),
            healthy_by_threshold={r: n - (m_near + d_near + m_far + d_far)},
        )
        params = TMParams(template, n, p, q)
        mine = iv.residual_tm(state, r, params, 0)
        truth = enum_residual_tm(m_near, d_near, m_far, d_far, p, q, r)
        assert tv_distance_2d(mine, truth) < 1e-10


def _trimmed_full_row(trials, prob):
    """The pmf over the full support 0..trials, cut below 1e-15 of its mode and renormalized."""
    row = np.exp(log_binom_row(trials, prob, trials))
    row = row[: np.flatnonzero(row > 1e-15 * row.max()).max() + 1]
    return row / row.sum()


@pytest.mark.parametrize("trials", [1, 2, 5, 17, 100, 1000, 12345, 10**5])
def test_pmf_row_cap_equals_full_support_row(trials):
    # a cap at mean + 3 sigma would drop entries above the 1e-15 trim and fail here
    for prob in [*np.geomspace(1e-13, 1.0, 27), 0.5, 0.9, 0.999999]:
        assert np.array_equal(iv._pmf_row(trials, float(prob)), _trimmed_full_row(trials, prob))


def test_pmf_row_empty_trials_and_zero_probability():
    for trials in (-3, 0):
        assert np.array_equal(iv._pmf_row(trials, 0.3), [1.0])
    assert np.array_equal(_trimmed_full_row(0, 0.3), [1.0])
    for trials in (1, 40, 10**5):
        assert np.array_equal(iv._pmf_row(trials, 0.0), _trimmed_full_row(trials, 0.0))


def _cluster_tv_reference(profile):
    """Largest TV gap between per-cluster threshold mixtures, rebuilt from residual_tm."""
    mixtures = []
    for cluster in range(profile.params.k):
        mixture = np.zeros(0)
        for r, weight in profile.weights.items():
            joint = iv.residual_tm(profile.observed, r, profile.params, cluster)
            marginal = np.array([
                sum(joint[b, a - b] for b in range(joint.shape[0]) if 0 <= a - b < joint.shape[1])
                for a in range(sum(joint.shape) - 1)
            ])
            size = max(mixture.size, marginal.size)
            mixture = np.pad(mixture, (0, size - mixture.size)) + np.pad(
                weight * marginal, (0, size - marginal.size)
            )
        mixtures.append(mixture)
    return max(tv_distance(a, b) for i, a in enumerate(mixtures) for b in mixtures[i + 1:])


@pytest.mark.parametrize(
    "template, n, p, q, cur, prev, healthy",
    [
        (tpl.make_ring(5, 1), 1000, 0.02, 0.002, (30, 10, 0, 5, 15), (20, 5, 0, 3, 10),
         {2: 500, 3: 440}),
        (tpl.make_planted(3), 600, 0.03, 0.001, (40, 5, 0), (25, 2, 0), {2: 300, 4: 255}),
    ],
    ids=["ring", "planted"],
)
def test_cluster_tv_max_matches_per_cluster_recomputation(template, n, p, q, cur, prev, healthy):
    state = iv.ObservedState(n=n, i_cur=sum(cur), i_prev=sum(prev), i_cur_cluster=cur,
                             i_prev_cluster=prev, healthy_by_threshold=healthy)
    profile = iv.build_profile(state, TMParams(template, n, p, q))
    expected = _cluster_tv_reference(profile)
    assert expected > 1e-3
    assert profile.cluster_tv_max() == pytest.approx(expected, rel=1e-12)


def test_cluster_tv_max_is_zero_on_a_single_cluster():
    profile = iv.build_profile(er_state(1000, 60, 40, 2), TMParams(tpl.make_single(), 1000, 0.01))
    assert profile.cluster_tv_max() == 0.0


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


def test_decay_violations_flag_slow_decay_and_mass_after_a_zero():
    n = 10000
    late = iv.build_profile(er_state(n, 3000, 2000, 2), TMParams(tpl.make_single(), n, 7 / n))
    marg = late.mixture_marginal()
    assert late.decay_violations() == [(0, marg[1] / marg[0])]
    assert marg[1] / marg[0] >= 2 / 3
    # at p = 1 every healthy vertex sees the one infected vertex: Pr[H_0] = 0 < Pr[H_1]
    certain = iv.build_profile(er_state(10, 1, 0, 2), TMParams(tpl.make_single(), 10, 1.0))
    assert certain.mixture_marginal()[:2].tolist() == [0.0, 1.0]
    assert certain.decay_violations() == [(0, math.inf)]


# ---------------------------------------------------------------------------
# thinning


def test_thin_residual_identity_and_annihilation():
    n = 1000
    params = TMParams(tpl.make_single(), n, 0.01)
    profile = iv.build_profile(er_state(n, 30, 20, 3), params)
    same = iv.thin_residual(profile.joints, 1.0, 1.0)
    assert tv_distance_2d(same[3], profile.joints[3]) < 1e-12
    dead = iv.thin_residual(profile.joints, 0.0, 0.0)
    assert dead[3][0, 0] == pytest.approx(1.0, abs=1e-12)


def test_thin_residual_matches_enumeration():
    n = 60
    params = TMParams(tpl.make_planted(2), n, 0.3, 0.2)
    state = iv.ObservedState(
        n=n, i_cur=6, i_prev=3,
        i_cur_cluster=(3, 3), i_prev_cluster=(2, 1),
        healthy_by_threshold={3: 54},
    )
    profile = iv.build_profile(state, params)
    joint = profile.joints[3]
    small = joint[:5, :5] / joint[:5, :5].sum()
    thinned = iv.thin_residual({3: small}, 0.5, 0.3)[3]
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
    surrogate = iv.build_surrogate(profile, bolster)
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
        iv.delay(0.5, (2,), 10),
    ):
        surrogate = iv.build_surrogate(profile, variant)
        balance = surrogate.seed_count / state.healthy_total + surrogate.j.sum()
        assert balance == pytest.approx(1.0, abs=1e-10)


def test_delay_is_geometric_bolster():
    bolster = iv.delay(0.5, (2, 3), 6)
    assert isinstance(bolster, iv.Bolster)
    law = bolster.zeta_prime[2]
    assert law[2] == pytest.approx(0.5)
    assert law[3] == pytest.approx(0.25)
    assert law[4] == pytest.approx(0.125)
    assert law[6] == pytest.approx(1 - 0.5 - 0.25 - 0.125 - 0.0625)
    assert sum(law.values()) == pytest.approx(1.0)


def test_bolster_j_decay_under_gate():
    params, state, profile = uniform_r2_profile()
    assert profile.gate_ok
    for alpha in (0.0, 0.3, 0.7, 1.0):
        surrogate = iv.build_surrogate(profile, iv.bolster_a(alpha, (2,)))
        assert surrogate.j_decay_ok


def test_bolster_rejects_bad_laws():
    with pytest.raises(ValueError):
        iv.Bolster({2: {3: 0.6}})  # mass not 1
    with pytest.raises(ValueError, match="negative weight"):
        iv.Bolster({2: {3: 1.5, 4: -0.5}})  # sums to 1
    for weight in (math.nan, math.inf):  # a NaN sum passes an abs(total - 1) > tol test
        with pytest.raises(ValueError, match="non-finite weight"):
            iv.Bolster({2: {3: weight}})
    with pytest.raises(ValueError, match="one above 1"):
        iv.Bolster({2: {3: 1e308, 4: 1e308}})  # math.fsum raises OverflowError on it
    with pytest.raises(ValueError):
        iv.Bolster({3: {2: 1.0}})  # below old threshold without the weaken flag
    weakened = iv.Bolster({3: {2: 1.0}}, allow_weaken=True)
    assert weakened.r_max_prime == 2
    with pytest.raises(ValueError):
        iv.Bolster({3: {1: 1.0}}, allow_weaken=True)  # below 2 even weakened


def test_surrogate_diminish_identity_and_annihilation():
    params, state, profile = uniform_r2_profile()
    noop = iv.build_surrogate(profile, iv.Diminish(1.0, 1.0))
    plain_j = np.array([profile.marginal(2)[1], profile.marginal(2)[0]])
    assert np.allclose(noop.j, plain_j)
    assert noop.params.p == params.p
    dead = iv.build_surrogate(profile, iv.Diminish(0.0, 0.0))
    assert dead.j[1] == pytest.approx(1.0, abs=1e-12)  # all mass at full threshold
    assert dead.seed_count == pytest.approx(0.0, abs=1e-9)
    assert dead.params.p == 0.0
    verdict = iv.predict(dead, 0.1)
    assert verdict.outcome == iv.PREDICTED_HALT


def test_surrogate_diminish_monte_carlo():
    n = 10000
    params = TMParams(tpl.make_single(), n, 7 / n)
    m, delta, r, alpha = 250, 120, 2, 0.5
    state = er_state(n, m + delta, m, r)
    profile = iv.build_profile(state, params)
    surrogate = iv.build_surrogate(profile, iv.Diminish(alpha, alpha))
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
        dim = iv.build_surrogate(profile, iv.Diminish(alpha, alpha))
        seq = iv.build_surrogate(profile, iv.Sequester(alpha, alpha))
        assert np.allclose(dim.j, seq.j)
        assert seq.params.p == params.p and seq.params.q == params.q
        assert seq.params.p >= dim.params.p and seq.params.q >= dim.params.q


def test_edge_surrogates_are_the_identity_bolster_on_thinned_exposures():
    # two thresholds on ring-5 with alpha_p != alpha_q: an edge variant thins
    # the joints, then runs the bolster loop under the law {r: {r: 1.0}}
    n, p, q, alpha_p, alpha_q = 1000, 0.02, 0.002, 0.7, 0.3
    params = TMParams(tpl.make_ring(5, 1), n, p, q)
    state = iv.ObservedState(n=n, i_cur=60, i_prev=38, i_cur_cluster=(30, 10, 0, 5, 15),
                             i_prev_cluster=(20, 5, 0, 3, 10), healthy_by_threshold={2: 500, 3: 440})
    profile = iv.build_profile(state, params)
    thinned = dataclasses.replace(profile, joints=iv.thin_residual(profile.joints, alpha_p, alpha_q))
    identity = iv.build_surrogate(thinned, iv.Bolster({2: {2: 1.0}, 3: {3: 1.0}}))
    seq = iv.build_surrogate(profile, iv.Sequester(alpha_p, alpha_q))
    dim = iv.build_surrogate(profile, iv.Diminish(alpha_p, alpha_q))
    assert identity.j.size == 3 and identity.j.min() > 0.0
    assert np.array_equal(seq.j, identity.j) and np.array_equal(dim.j, identity.j)
    assert seq.seed_count == dim.seed_count == identity.seed_count
    assert (seq.params.p, seq.params.q) == (identity.params.p, identity.params.q) == (p, q)
    assert (dim.params.p, dim.params.q) == (alpha_p * p, alpha_q * q)


def test_diminish_verdict_monotone_in_alpha():
    n = 10000
    params = TMParams(tpl.make_single(), n, 15 / n)
    state = er_state(n, 1100, 800, 3)
    profile = iv.build_profile(state, params)
    alphas = np.linspace(0.05, 1.0, 12)
    phis, seeds, outcomes = [], [], []
    for alpha in alphas:
        surrogate = iv.build_surrogate(profile, iv.Diminish(alpha, alpha))
        verdict = iv.predict(surrogate, 0.1)
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
    dist = ThresholdDistribution.from_mapping({2: 1.0})
    g = sample_graph(params, substream(200, 1))
    thresholds = assign_thresholds(dist, n, substream(200, 2))
    model = AnalyticModel(params, dist)
    base = critical_seed(model)
    seeds = select_seeds(2 * base.phi_critical, n, substream(200, 3))
    variant = iv.Bolster({2: {2: 1.0}})
    run, triggered = iv.run_to_trigger(g, thresholds, seeds, variant, 0.1, 0.9)
    assert triggered
    profile = iv.build_profile(iv.snapshot_observed(run), params)
    verdict = iv.predict(iv.build_surrogate(profile, variant), 0.1)
    assert verdict.outcome == iv.PREDICTED_SPREAD
    assert not profile.gate_ok


def test_verdict_band_membership():
    params, state, profile = uniform_r2_profile()
    surrogate = iv.build_surrogate(profile, iv.bolster_a(0.5, (2,)))
    epsilon = 0.1
    verdict = iv.predict(surrogate, epsilon)
    lo, hi = (1.0 - epsilon) * verdict.Phi_J, (1.0 + epsilon) * verdict.Phi_J
    if verdict.outcome == iv.UNCERTAIN:
        assert lo <= verdict.phi_J <= hi
    elif verdict.outcome == iv.PREDICTED_HALT:
        assert verdict.phi_J < lo
    else:
        assert verdict.phi_J > hi
    # a huge band always captures the seed count
    wide = iv.predict(surrogate, epsilon=50.0)
    assert wide.outcome == iv.UNCERTAIN


def test_predict_all_seed_surrogate_is_spread_outside_theory():
    params = TMParams(tpl.make_single(), 100, 0.01)
    verdict = iv.predict(iv.SurrogateSpec(np.zeros(3), 100.0, params), 0.1)
    # Phi_J 0, and within_theory None: the all-seed surrogate has no analytic model
    assert verdict == iv.Verdict(iv.PREDICTED_SPREAD, 100.0, 0, None, None)


# ---------------------------------------------------------------------------
# live application


def triggered_run(seed=300, n=4000, p_scale=7.0, r=2, factor=1.8):
    params = TMParams(tpl.make_single(), n, p_scale / n)
    dist = ThresholdDistribution.from_mapping({r: 1.0})
    g = sample_graph(params, substream(seed, 1))
    thresholds = assign_thresholds(dist, n, substream(seed, 2))
    model = AnalyticModel(params, dist)
    base = critical_seed(model)
    seeds = select_seeds(int(factor * base.phi_critical), n, substream(seed, 3))
    run, triggered = iv.run_to_trigger(
        g, thresholds, seeds, iv.bolster_a(0.5, (r,)), 0.1, stop_fraction=0.8
    )
    assert triggered
    return params, g, thresholds, seeds, run


def test_noop_diminish_leaves_trace_unchanged():
    params, g, thresholds, seeds, run = triggered_run()
    baseline = run_standard(g, thresholds, seeds, stop_fraction=0.8)
    trace = iv.apply_in_simulation(run.clone(), iv.Diminish(1.0, 1.0), substream(301, 1))
    assert np.array_equal(trace.totals, baseline.totals)
    assert np.array_equal(trace.final_infected, baseline.final_infected)


def test_bolster_to_unreachable_threshold_halts_next_generation():
    params, g, thresholds, seeds, run = triggered_run()
    huge = g.n  # no vertex can accumulate n infected neighbors
    trace = iv.apply_in_simulation(run.clone(), iv.Bolster({2: {huge: 1.0}}), substream(301, 2))
    assert trace.verdict == "halted"
    # only the already-doomed vertices turn after the intervention
    assert trace.tau_end <= len(run.totals) + 1


def test_sequester_never_deletes_healthy_healthy_edges():
    params, g, thresholds, seeds, run = triggered_run()
    infected_before = run.infected.copy()
    clone = run.clone()
    iv.apply_in_simulation(clone, iv.Sequester(0.0, 0.0), substream(301, 3))
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
    trace = iv.apply_in_simulation(run.clone(), iv.Diminish(0.0, 0.0), substream(301, 4))
    assert trace.verdict == "halted"


def test_edge_removal_on_an_edgeless_graph_changes_nothing():
    n = 50
    g = sample_graph(TMParams(tpl.make_ring(5, 1), n, 0.0, 0.0), substream(320, 1))
    assert g.num_edges == 0
    thresholds = np.full(n, 2)
    seeds = select_seeds(10, n, substream(320, 2))
    baseline = run_standard(g, thresholds, seeds, stop_fraction=0.9)
    for variant in (iv.Diminish(0.5, 0.5), iv.Sequester(0.5, 0.5)):
        run = StandardRun(g, thresholds, seeds, 0.9)
        trace = iv.apply_in_simulation(run, variant, substream(320, 3))
        assert run.g.num_edges == 0
        assert trace.verdict == baseline.verdict == "halted"
        assert np.array_equal(trace.totals, baseline.totals)
        assert np.array_equal(trace.final_infected, baseline.final_infected)


def test_run_to_trigger_reports_subcritical_baseline():
    n = 3000
    params = TMParams(tpl.make_single(), n, 7 / n)
    dist = ThresholdDistribution.from_mapping({2: 1.0})
    g = sample_graph(params, substream(302, 1))
    thresholds = assign_thresholds(dist, n, substream(302, 2))
    seeds = select_seeds(5, n, substream(302, 3))  # far below critical
    run, triggered = iv.run_to_trigger(g, thresholds, seeds, iv.bolster_a(0.5, (2,)), 0.1, 0.9)
    assert not triggered
    assert run.verdict == "halted"


@pytest.mark.parametrize("lam", [0.0, 1.0, -0.1])
def test_run_to_trigger_rejects_lambda_outside_open_unit_interval(lam):
    g = sample_graph(TMParams(tpl.make_single(), 10, 0.5), substream(303, 1))
    with pytest.raises(ValueError, match=r"trigger fraction .* outside \(0, 1\)"):
        iv.run_to_trigger(g, np.full(10, 2), np.array([0]), iv.bolster_a(0.5, (2,)), lam, 0.9)


def test_run_to_trigger_save_vertices_pauses_before_the_crossing():
    params, g, thresholds, seeds, plain = triggered_run()
    variant = iv.Bolster({2: {3: 1.0}}, save_vertices=True)
    run, triggered = iv.run_to_trigger(g, thresholds, seeds, variant, 0.1, stop_fraction=0.8)
    trigger_at = 0.1 * g.n
    assert triggered
    assert run.verdict is None
    assert run.totals[-1] <= trigger_at < run.totals[-1] + run._candidates().size
    assert len(plain.totals) == len(run.totals) + 1


def test_run_to_trigger_save_vertices_seeds_past_stop_fraction_trigger():
    params, g, thresholds, seeds, _ = triggered_run()
    for save in (False, True):
        variant = iv.Bolster({2: {3: 1.0}}, save_vertices=save)
        run, triggered = iv.run_to_trigger(g, thresholds, seeds, variant, 0.0001, 0.001)
        assert run.verdict == "spread" and len(run.totals) == 1
        assert triggered


def test_snapshot_observed_consistency():
    params, g, thresholds, seeds, run = triggered_run()
    observed = iv.snapshot_observed(run)
    assert observed.i_cur == run.totals[-1]
    assert observed.i_prev == run.totals[-2]
    assert observed.i_cur > observed.i_prev
    assert sum(observed.healthy_by_threshold.values()) == observed.n - observed.i_cur


@pytest.mark.parametrize(
    "template", [tpl.make_single(), tpl.make_ring(5, 1), tpl.make_planted(3)],
    ids=["single", "ring", "planted"],
)
def test_snapshot_splits_match_reference_per_cluster_counts(template):
    # the splits are recounted from the infected set and the last frontier;
    # the reference keeps the per-generation history the engine no longer has
    n = 150 * template.k
    params = TMParams(template, n, 6.0 / (template.k_p * 150), 1.0 / n)
    g = sample_graph(params, substream(311, template.k))
    thresholds = assign_thresholds(ThresholdDistribution((0.0, 0.7, 0.3)), n, substream(311, 2))
    seeds = select_seeds(n // 10, n, substream(311, 3))
    _, per_cluster, _, _ = reference_standard(g, thresholds, seeds, 0.9)
    assert len(per_cluster) > 3
    zeros = (0,) * template.k
    run = StandardRun(g, thresholds, seeds, 0.9)
    for t in range(len(per_cluster)):  # generation 0 first, the finished run last
        observed = iv.snapshot_observed(run)
        assert observed.i_cur_cluster == tuple(per_cluster[t])
        assert observed.i_prev_cluster == (tuple(per_cluster[t - 1]) if t else zeros)
        if run.verdict is None:
            run.step()
    paused, triggered = iv.run_to_trigger(g, thresholds, seeds, iv.bolster_a(0.5, (2, 3)), 0.2, 0.9)
    tau = len(paused.totals) - 1
    assert triggered and paused.verdict is None and tau >= 2
    observed = iv.snapshot_observed(paused)
    assert observed.i_cur_cluster == tuple(per_cluster[tau])
    assert observed.i_prev_cluster == tuple(per_cluster[tau - 1])
    assert (observed.i_cur, observed.i_prev) == (paused.totals[-1], paused.totals[-2])


def test_boundary_scan_brackets_actual_state():
    # strong intervention: the boundary should exceed a weak intervention's
    params, g, thresholds, seeds, run = triggered_run(seed=305, n=10000, factor=1.4)
    observed = iv.snapshot_observed(run)
    profile = iv.build_profile(observed, params)
    strong = iv.boundary_scan(profile, iv.bolster_a(0.0, (2,)))
    weak = iv.boundary_scan(profile, iv.bolster_a(1.0, (2,)))
    if not (math.isnan(strong) or math.isnan(weak)):
        assert strong > weak


def test_boundary_scan_is_nan_on_an_empty_range():
    # growth 70 of n = 100 puts the scan's bottom above its top (0.6 n)
    profile = iv.build_profile(er_state(100, 70, 0, 2), TMParams(tpl.make_single(), 100, 0.01))
    assert math.isnan(iv.boundary_scan(profile, iv.bolster_a(0.5, (2,))))
    assert profile._scan_profiles == {}  # no scaled state was evaluated


def test_boundary_scan_without_a_finite_critical_seed_is_nan():
    # k * t_max = 3,333 exceeds every |H| <= 1,000, so no scaled surrogate has a finite Phi_J
    n = 1000
    profile = iv.build_profile(er_state(n, 30, 20, 2), TMParams(tpl.make_single(), n, 1e-4))
    variant = iv.bolster_a(0.5, (2,))
    assert math.isnan(iv.boundary_scan(profile, variant))
    assert len(profile._scan_profiles) == 2  # both ends scored -inf, so no bisection
    for scaled in profile._scan_profiles.values():
        verdict = iv.predict(iv.build_surrogate(scaled, variant), epsilon=0.0)
        assert verdict.Phi_J is None and verdict.outcome == iv.PREDICTED_HALT


def _uncached_boundary_scan(observed, variant, params, lo_frac=0.001, hi_frac=0.6):
    """The bisection of ``boundary_scan`` with build_profile called at every step."""
    delta = observed.i_cur - observed.i_prev

    def excess(i_cur):
        hypo = iv._scaled_state(observed, i_cur, delta)
        surrogate = iv.build_surrogate(iv.build_profile(hypo, params), variant)
        verdict = iv.predict(surrogate, epsilon=0.0)
        return -math.inf if verdict.Phi_J is None else verdict.phi_J - verdict.Phi_J

    lo = max(delta, int(lo_frac * observed.n), 1)
    hi = min(int(hi_frac * observed.n), observed.n - 1)
    if lo >= hi or excess(lo) > 0 or excess(hi) < 0:
        return math.nan
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if excess(mid) <= 0 else (lo, mid)
    return 0.5 * (lo + hi)


def test_boundary_scan_profile_memo_matches_uncached_scans(monkeypatch):
    states = []
    for seed in (301, 305):
        params, _, _, _, run = triggered_run(seed=seed, factor=1.3)
        states.append((iv.snapshot_observed(run), params))
    variants = [iv.bolster_a(0.0, (2,)), iv.bolster_a(1.0, (2,)), iv.Diminish(0.6, 0.6)]
    expected = [[_uncached_boundary_scan(obs, v, params) for v in variants] for obs, params in states]
    assert not np.isnan(expected).any()
    profiles = [iv.build_profile(obs, params) for obs, params in states]
    calls = []
    build_profile = iv.build_profile
    monkeypatch.setattr(iv, "build_profile", lambda *a: calls.append(a) or build_profile(*a))
    built = []
    for which in (0, 1, 0):
        before = len(calls)
        got = [iv.boundary_scan(profiles[which], v) for v in variants]
        assert got == expected[which]
        built.append(len(calls) - before)
    # one profile per distinct scaled state, shared by the three scans and
    # kept on the graph's profile, so state A's second pass builds none
    assert built == [len(profiles[0]._scan_profiles), len(profiles[1]._scan_profiles), 0]
    assert min(built[:2]) > 0


def test_build_surrogate_needs_a_law_for_every_observed_threshold():
    params, state, profile = uniform_r2_profile()
    with pytest.raises(KeyError, match="no reassignment law for observed threshold 2"):
        iv.build_surrogate(profile, iv.Bolster({3: {4: 1.0}}))


def test_modification1_save_vertices_changes_surrogate():
    params, state, profile = uniform_r2_profile()
    plain = iv.build_surrogate(profile, iv.Bolster({2: {4: 1.0}}))
    saving = iv.build_surrogate(profile, iv.Bolster({2: {4: 1.0}}, save_vertices=True))
    # saving vertices moves doomed mass back into the threshold law
    assert saving.seed_count < plain.seed_count
    assert saving.j.sum() > plain.j.sum()


def test_modification2_weaken_voids_decay_guarantee():
    n = 10000
    params = TMParams(tpl.make_single(), n, 7 / n)
    profile = iv.build_profile(er_state(n, 300, 200, 2, {2: 4850, 3: 4850}), params)
    lower = {2: {2: 1.0}, 3: {2: 1.0}}  # threshold 3 drops to 2
    with pytest.raises(ValueError, match="puts mass below 3"):
        iv.Bolster(lower)
    surrogate = iv.build_surrogate(profile, iv.Bolster(lower, allow_weaken=True))
    # every vertex lands at residual threshold 2 - a, exposure a >= 2 is doomed
    m2, m3 = profile.marginal(2), profile.marginal(3)
    w2, w3 = profile.weights[2], profile.weights[3]
    expected = [w2 * m2[1] + w3 * m3[1], w2 * m2[0] + w3 * m3[0]]
    np.testing.assert_allclose(surrogate.j, expected, rtol=1e-12)
    kept = iv.build_surrogate(profile, iv.Bolster({2: {2: 1.0}, 3: {3: 1.0}}))
    assert surrogate.seed_count > kept.seed_count


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
    rows = harness._intervention_graph_task((config, 9))
    assert [row["point"] for row in rows] == list(range(6))
    assert rows[2]["boundary_i_cur"] == 648.5


def test_boundary_scan_keeps_scaled_clusters_within_their_size(monkeypatch):
    # on this planted k = 2 sweep a scan used to build a profile with 1,063
    # infected in a 1,000-vertex cluster, which build_profile clamped silently
    raw = {
        "name": "planted-overflow",
        "master_seed": 7,
        "graph": {"template": {"kind": "planted", "k": 2}, "n": 2000, "p": 0.006, "q": 5e-5},
        "thresholds": {"zeta": {"2": 1.0}},
        "sweep": {"axis": "alpha", "values": [0.3, 0.7]},
        "graphs": 3,
        "trials": 1,
        "intervention": {"variant": "bolster_a", "baseline_seed_count": 30},
    }
    states = []
    build = iv.build_profile

    def recording(observed, params):
        states.append(observed)
        return build(observed, params)

    monkeypatch.setattr(iv, "build_profile", recording)
    rows = harness.run_intervention(harness.load_config(raw)).rows
    assert any(row["triggered"] for row in rows)
    # the scan's top state now fills its largest cluster exactly
    assert max(max(s.i_cur_cluster + s.i_prev_cluster) for s in states) == 1000
