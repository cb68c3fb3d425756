import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (
    A_of_t,
    binom_log_pmf,
    bisect_critical_seed,
    exact_pi,
    exact_sum_pmf,
    f_of,
    janson_phi,
    loop_activation_table,
    t_star_lower_bound,
)
from tmperc import analytic
from tmperc import template as tpl
from tmperc.analytic import (
    AnalyticModel,
    CoinflipModel,
    check_convexity,
    check_growth_bounds,
    coinflip_reduce,
    critical_seed,
    log_sum_row,
    pi_r,
)
from tmperc.tmgraph import TMParams, ThresholdDistribution


def single_params(n, p):
    return TMParams(tpl.make_single(), n, p)


def mixed_params(k_p_kind, n, p, q):
    if k_p_kind == "planted2":
        return TMParams(tpl.make_planted(2), n, p, q)
    return TMParams(tpl.make_single(), n, p)


# ---------------------------------------------------------------------------
# binomial kernel


def test_binom_log_pmf_small_exact():
    assert binom_log_pmf(4, 0.5, 2) == pytest.approx(math.log(6 / 16), rel=1e-14)
    assert binom_log_pmf(7, 0.0, 0) == 0.0
    assert binom_log_pmf(7, 0.0, 3) == -math.inf
    assert binom_log_pmf(7, 1.0, 7) == 0.0
    assert binom_log_pmf(7, 1.0, 6) == -math.inf


def test_binom_log_pmf_matches_exact_rational():
    from fractions import Fraction

    p = Fraction(0.1)
    exact = Fraction(math.comb(30, 3)) * p**3 * (1 - p) ** 27
    assert binom_log_pmf(30, 0.1, 3) == pytest.approx(math.log(float(exact)), rel=1e-12)


def test_binom_log_pmf_rejects_out_of_range():
    with pytest.raises(ValueError):
        binom_log_pmf(4, 0.5, 5)
    with pytest.raises(ValueError):
        binom_log_pmf(4, 0.5, -1)
    with pytest.raises(ValueError):
        binom_log_pmf(4, 1.5, 1)


# ---------------------------------------------------------------------------
# activation probabilities


def test_pi_zero_generations():
    params = single_params(100, 0.3)
    for r in (1, 2, 5):
        assert pi_r(0, r, params) == 0.0


def test_pi_single_block_closed_form():
    params = single_params(100, 0.2)
    for t in range(1, 8):
        assert pi_r(t, 1, params) == pytest.approx(1 - 0.8**t, rel=1e-12)


def test_pi_two_block_enumeration():
    params = TMParams(tpl.make_planted(2), 4, 0.5, 0.5)
    assert pi_r(2, 2, params) == pytest.approx(11 / 16, rel=1e-14)


def test_pi_matches_exact_rational_randomized():
    rng = np.random.default_rng(1)
    for _ in range(60):
        if rng.random() < 0.5:
            template, k = tpl.make_single(), 1
        else:
            template, k = tpl.make_planted(2), 2
        p = float(rng.uniform(0.01, 0.6))
        q = float(rng.uniform(0.0, p)) if k == 2 else 0.0
        params = TMParams(template, 4 * k, p, q)
        t = int(rng.integers(1, 7))
        r = int(rng.integers(1, 6))
        mine = pi_r(t, r, params)
        truth = float(exact_pi(t, r, params.k_p, params.k_q, p, q))
        if truth > 0:
            assert mine == pytest.approx(truth, rel=1e-10)
        else:
            assert mine == 0.0


def test_pi_relative_accuracy_in_deep_tail():
    params = single_params(100000, 1e-4)
    truth = float(exact_pi(5, 3, 1, 0, 1e-4, 0.0))
    assert truth < 1e-9  # genuinely tiny
    assert pi_r(5, 3, params) == pytest.approx(truth, rel=1e-10)


def test_pi_monotonicity():
    params = TMParams(tpl.make_planted(2), 8, 0.3, 0.1)
    values = [[pi_r(t, r, params) for t in range(8)] for r in (1, 2, 3)]
    for row in values:
        assert all(0.0 <= v <= 1.0 for v in row)
        assert all(row[i] <= row[i + 1] + 1e-12 for i in range(len(row) - 1))
    for t in range(8):
        assert values[0][t] >= values[1][t] >= values[2][t]


def test_sum_pmf_mass_and_values():
    params = TMParams(tpl.make_planted(2), 8, 0.35, 0.15)
    for t in range(1, 5):
        full = (params.k_p + params.k_q) * t
        row = np.exp(log_sum_row(t, params, full))
        assert abs(row.sum() - 1.0) < 1e-10
        for j in (0, 1, 2):
            truth = float(exact_sum_pmf(t, j, params.k_p, params.k_q, params.p, params.q))
            assert row[j] == pytest.approx(truth, rel=1e-10)


def test_lemma_ratio_property():
    rng = np.random.default_rng(2)
    for _ in range(400):
        k_q = int(rng.integers(0, 3))
        template = tpl.make_planted(k_q + 1) if k_q else tpl.make_single()
        p = float(rng.uniform(1e-4, 0.5))
        q = float(rng.uniform(0.0, p)) if k_q else 0.0
        params = TMParams(template, 4 * template.k, p, q)
        r = int(rng.integers(1, 5))
        t = int(rng.integers(r + 1, r + 30))
        row = np.exp(log_sum_row(t, params, r + 1))
        if row[r] <= 0.0:
            continue
        bound = params.phi * t / (1.0 - max(params.p, params.q))
        assert row[r + 1] < bound * row[r] * (1 + 1e-9)


# ---------------------------------------------------------------------------
# mixture activation and the deficiency function


def test_A_point_mass_and_linearity():
    params = single_params(1000, 0.01)
    point = ThresholdDistribution.from_mapping({2: 1.0})
    assert A_of_t(5, point, params) == pytest.approx(pi_r(5, 2, params), rel=1e-12)
    assert A_of_t(0, point, params) == 0.0
    mix = ThresholdDistribution.from_mapping({2: 0.5, 3: 0.5})
    midpoint = 0.5 * (pi_r(5, 2, params) + pi_r(5, 3, params))
    assert A_of_t(5, mix, params) == pytest.approx(midpoint, rel=1e-12)


def test_model_table_matches_scalar():
    params = TMParams(tpl.make_ring(10, 1), 2000, 50 / (3 * 2000), 50 / (7 * 2000))
    dist = ThresholdDistribution.from_mapping({2: 0.3, 3: 0.7})
    model = AnalyticModel(params, dist)
    for t in (0, 1, 5, model.t_table // 2, model.t_table):
        assert model.A[t] == pytest.approx(A_of_t(t, dist, params), abs=1e-12)
    assert model.A[0] == 0.0
    assert np.all(np.diff(model.A) >= -1e-12)
    assert np.all((model.A >= 0.0) & (model.A <= 1.0))


def test_f_at_zero_activation_is_affine():
    # threshold above the trial count makes the activation exactly zero
    params = single_params(100, 0.05)
    dist = ThresholdDistribution.from_mapping({6: 1.0})
    model = AnalyticModel(params, dist)
    for t in (1, 2, 5):  # k_p*t < 6 so A(t) = 0 exactly
        assert model.A[t] == 0.0
        for phi in (0, 10, 50):
            assert f_of(phi, t, model) == phi - t


def test_f_increment_in_phi():
    params = single_params(5000, 10 / 5000)
    dist = ThresholdDistribution.from_mapping({2: 0.5, 3: 0.5})
    model = AnalyticModel(params, dist)
    for t in (1, 50, model.t_table):
        expected = 1.0 - model.A[t]
        for phi in (0, 100, 4000):
            assert f_of(phi + 1, t, model) - f_of(phi, t, model) == pytest.approx(
                expected, abs=1e-9
            )


def test_horizon_below_vertex_budget_for_sparse_configs():
    for n, deg in ((10000, 3.0), (10000, 10.0), (2000, 5.0)):
        params = single_params(n, deg / n)
        dist = ThresholdDistribution.from_mapping({2: 1.0})
        model = AnalyticModel(params, dist)
        assert model.t_max <= n  # k = 1
        assert f_of(n, model.t_max, model) == pytest.approx(n - model.t_max)
        assert f_of(n, model.t_max, model) >= 0.0


# ---------------------------------------------------------------------------
# critical seed


def test_critical_seed_janson_cross_check():
    n = 10000
    params = single_params(n, 10 / n)
    for r in (2, 3):
        model = AnalyticModel(params, ThresholdDistribution.from_mapping({r: 1.0}))
        result = critical_seed(model)
        target = janson_phi(n, 10 / n, r)
        assert result.phi_critical is not None
        assert abs(result.phi_critical - target) / target < 0.25


def test_critical_seed_minimality_and_feasibility():
    params = single_params(2000, 10 / 2000)
    dist = ThresholdDistribution.from_mapping({2: 0.4, 3: 0.6})
    model = AnalyticModel(params, dist)
    result = critical_seed(model)
    phi = result.phi_critical
    t_grid = range(1, model.t_max + 1)
    assert all(f_of(phi, t, model) >= 0.0 for t in t_grid)
    assert any(f_of(phi - 1, t, model) < 0.0 for t in t_grid)
    # t_star attains the minimum, smallest on ties
    curve = [f_of(phi, t, model) for t in t_grid]
    best = min(curve)
    assert curve[result.t_star - 1] == best
    assert all(curve[t] > best for t in range(result.t_star - 1))


def test_critical_seed_bisection_matches_linear_scan():
    params = single_params(500, 12 / 500)
    dist = ThresholdDistribution.from_mapping({2: 0.7, 3: 0.3})
    model = AnalyticModel(params, dist)
    result = critical_seed(model)
    t_arr = np.arange(1, model.t_max + 1)
    a_arr = model.A[1:]
    scan = next(
        phi
        for phi in range(params.n + 1)
        if np.min((params.n - phi) * a_arr - t_arr + phi) >= 0
    )
    assert result.phi_critical == scan


def _random_model(rng: np.random.Generator) -> AnalyticModel:
    """A model on a random template, size, density and threshold law (r_max 1..21)."""
    kind = int(rng.integers(4))
    if kind == 0:
        template = tpl.make_single()
    elif kind == 1:
        template = tpl.make_planted(int(rng.integers(2, 6)))
    elif kind == 2:
        template = tpl.make_ring(int(rng.integers(5, 11)), int(rng.integers(1, 3)))
    else:
        template = tpl.make_cube3()
    n = template.k * int(rng.integers(1, 300))
    eta = n / template.k
    # edgeless now and then, else sparse to dense
    degree = float(10 ** rng.uniform(-1.5, 2.0)) if rng.random() < 0.97 else 0.0
    share = float(rng.uniform(0.2, 1.0)) if template.k_q else 1.0
    p = min(1.0, share * degree / (template.k_p * eta))
    q = min(p, (1.0 - share) * degree / (template.k_q * eta)) if template.k_q else 0.0
    r_max = int(rng.integers(1, 22))
    weights = rng.random(r_max) * (rng.random(r_max) < 0.6)
    if not weights.any():
        weights[-1] = 1.0
    dist = ThresholdDistribution(tuple(float(w) for w in weights / weights.sum()))
    return AnalyticModel(TMParams(template, n, p, q), dist)


def test_closed_form_critical_seed_and_table_match_oracles():
    rng = np.random.default_rng(41)
    seen = {"empty horizon": 0, "edgeless": 0, "k*t_max > n": 0, "phi = 0": 0, "phi > 0": 0}
    for _ in range(3000):
        model = _random_model(rng)
        oracle_table = loop_activation_table(model.params, model.dist, model.t_table)
        assert np.array_equal(model.A, oracle_table)
        if model.t_max is not None and model.t_max < 1:
            with pytest.raises(ValueError):
                critical_seed(model)
            seen["empty horizon"] += 1
            continue
        result = critical_seed(model)
        assert (result.phi_critical, result.t_star) == bisect_critical_seed(model)
        if result.phi_critical is None:
            seen["edgeless" if model.t_max is None else "k*t_max > n"] += 1
        else:
            seen["phi = 0" if result.phi_critical == 0 else "phi > 0"] += 1
    assert all(count >= 20 for count in seen.values()), seen


def test_activation_basis_cache_hit_matches_miss_and_oracle():
    # ring-5 law: phi = 3*0.02 + 2*0.005 = 0.07, so t_max = 4 for every n here
    template = tpl.make_ring(5, 1)
    law = ThresholdDistribution.from_mapping({2: 0.4, 4: 0.6})
    other_law = ThresholdDistribution.from_mapping({1: 0.1, 3: 0.5, 4: 0.4})
    analytic._activation_basis.cache_clear()
    miss = AnalyticModel(TMParams(template, 500, 0.02, 0.005), law)
    assert analytic._activation_basis.cache_info().misses == 1
    hits = [
        AnalyticModel(TMParams(template, 500, 0.02, 0.005), law),
        AnalyticModel(TMParams(template, 900, 0.02, 0.005), law),
        AnalyticModel(TMParams(template, 500, 0.02, 0.005), other_law),
    ]
    info = analytic._activation_basis.cache_info()
    assert (info.hits, info.misses) == (3, 1)
    assert miss.t_table == 4 and all(model.t_table == 4 for model in hits)
    assert np.array_equal(hits[0].A, miss.A) and np.array_equal(hits[1].A, miss.A)
    for model in [miss, *hits]:
        assert np.array_equal(model.A, loop_activation_table(model.params, model.dist, 4))
    # n = 10 caps the table at n/k + 1 = 3: its own key, not a slice of the t = 4 basis
    short = AnalyticModel(TMParams(template, 10, 0.02, 0.005), law)
    assert short.t_table == 3 and analytic._activation_basis.cache_info().misses == 2
    assert np.array_equal(short.A, loop_activation_table(short.params, law, 3))


def test_activation_basis_is_read_only():
    params = TMParams(tpl.make_ring(5, 1), 500, 0.02, 0.005)
    model = AnalyticModel(params, ThresholdDistribution.from_mapping({3: 1.0}))
    law = analytic._EdgeLaw(params.k_p, params.k_q, params.p, params.q)
    basis = analytic._activation_basis(law, 3, model.t_table)
    assert basis.shape == (3, model.t_table + 1)
    with pytest.raises(ValueError):
        basis[0, 1] = 0.5
    with pytest.raises(ValueError):
        model.A[1] = 0.5


def test_closed_form_critical_seed_with_certain_activation():
    # A(t) = 1 makes f independent of phi; no sampled model reaches it inside
    # the horizon, so random non-decreasing tables with a tail of ones stand in
    rng = np.random.default_rng(42)
    for _ in range(500):
        n = int(rng.integers(10, 5000))
        t_max = int(rng.integers(1, 60))
        params = single_params(n, 1.0 / (3.0 * t_max + 1.0))
        model = AnalyticModel(params, ThresholdDistribution.from_mapping({2: 1.0}))
        assert model.t_max == t_max
        table = np.concatenate([[0.0], np.sort(rng.random(t_max) ** float(rng.uniform(0.2, 5.0)))])
        table[int(rng.integers(1, t_max + 2)) :] = 1.0
        model.A = table
        result = critical_seed(model)
        assert (result.phi_critical, result.t_star) == bisect_critical_seed(model)


def test_critical_seed_monotone_in_weaker_thresholds():
    params = single_params(10000, 10 / 10000)
    values = []
    for zeta3 in (0.0, 0.25, 0.5):
        mapping = {2: 1.0 - zeta3}
        if zeta3:
            mapping[3] = zeta3
        model = AnalyticModel(params, ThresholdDistribution.from_mapping(mapping))
        values.append(critical_seed(model).phi_critical)
    assert values[0] <= values[1] <= values[2]


def test_t_star_monotone_in_seed_count():
    params = single_params(10000, 10 / 10000)
    dist = ThresholdDistribution.from_mapping({2: 0.5, 3: 0.5})
    model = AnalyticModel(params, dist)
    t_arr = np.arange(1, model.t_max + 1)
    a_arr = model.A[1:]

    def t_star(phi):
        curve = (params.n - phi) * a_arr - t_arr + phi
        return int(t_arr[int(np.argmin(curve))])

    stars = [t_star(phi) for phi in range(0, 2000, 50)]
    assert all(stars[i] <= stars[i + 1] for i in range(len(stars) - 1))


def test_critical_seed_rejects_empty_horizon():
    params = single_params(100, 0.4)  # phi = 0.4 so floor(1/(3 phi)) = 0
    model = AnalyticModel(params, ThresholdDistribution.from_mapping({2: 1.0}))
    with pytest.raises(ValueError):
        critical_seed(model)


def test_critical_seed_infeasible_for_edgeless_family():
    params = single_params(100, 0.0)
    model = AnalyticModel(params, ThresholdDistribution.from_mapping({2: 1.0}))
    result = critical_seed(model)
    assert result.phi_critical is None


def test_assumption_report():
    n = 10000
    params = single_params(n, 10 / n)
    dist = ThresholdDistribution.from_mapping({1: 0.02, 2: 0.49, 3: 0.49})
    model = AnalyticModel(params, dist)
    report = model.assumptions
    assert report.zeta1_condition_ok
    assert report.beta_max == pytest.approx(1.0 - 0.02 * 10.0)
    assert report.beta_positive
    # eta*phi = 10 <= sqrt(0.8 * 10000)
    assert report.sparsity_ok
    assert report.within_theory
    heavy = AnalyticModel(params, ThresholdDistribution.from_mapping({1: 0.5, 2: 0.5}))
    assert not heavy.assumptions.zeta1_condition_ok
    assert not heavy.assumptions.beta_positive
    assert not heavy.assumptions.within_theory


# ---------------------------------------------------------------------------
# certification checks


def test_convexity_on_horizon():
    n = 10000
    params = single_params(n, 10 / n)
    for mapping in ({2: 1.0}, {2: 0.5, 3: 0.5}):
        model = AnalyticModel(params, ThresholdDistribution.from_mapping(mapping))
        report = check_convexity(model)
        assert report.hypothesis_ok
        assert report.convex_ok, report.violations[:3]


def test_convexity_hypothesis_gate():
    params = single_params(10000, 10 / 10000)
    model = AnalyticModel(params, ThresholdDistribution((0.9, 0.1)))
    report = check_convexity(model)
    assert not report.hypothesis_ok
    assert not (report.hypothesis_ok and report.convex_ok)


def test_growth_bounds_trivial_x():
    params = single_params(1000, 1e-3)
    report = check_growth_bounds(params, 2, 10, 1)
    assert report.preconditions_ok
    assert report.ok
    assert not report.lower_applicable  # 3*(1-p) < 4


def test_growth_bounds_second_bound_active():
    params = single_params(100000, 0.001)
    report = check_growth_bounds(params, 2, 8, 2)
    assert report.preconditions_ok
    assert report.lower_applicable  # 3*2*0.999 > 4
    assert report.ok


def test_growth_bounds_reports_precondition_violation():
    params = single_params(1000, 0.2)
    report = check_growth_bounds(params, 2, 8, 2)  # phi*x*t = 3.2 > 1/3
    assert not report.preconditions_ok
    assert not report.ok


def test_growth_bounds_randomized():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(300):
        r = int(rng.integers(1, 4))
        t = int(rng.integers(4 * r, 4 * r + 40))
        x = int(rng.integers(1, 4))
        if rng.random() < 0.5:
            template = tpl.make_ring(int(rng.integers(4, 9)), 1)
        else:
            template = tpl.make_planted(int(rng.integers(1, 5)))
        budget = 1.0 / (3.0 * x * t)  # keeps phi * x * t <= 1/3
        p_share = float(rng.uniform(0.2, 0.7))
        p = p_share * budget / template.k_p
        q = 0.0
        if template.k_q:
            q = min(p, float(rng.uniform(0.0, 1.0)) * (1 - p_share) * budget / template.k_q)
        params = TMParams(template, 4 * template.k, p, q)
        report = check_growth_bounds(params, r, t, x)
        assert report.preconditions_ok
        assert report.ok
        checked += 1
    assert checked == 300


# ---------------------------------------------------------------------------
# coinflip reduction


def test_coinflip_reduce_geometric_with_cap():
    dist = coinflip_reduce(CoinflipModel(1, 0.5, 4))
    assert dist.zeta == pytest.approx((0.0, 0.5, 0.25, 0.25))


def test_coinflip_reduce_deterministic_coin():
    dist = coinflip_reduce(CoinflipModel(2, 1.0, 10))
    assert dist.zeta[2] == 1.0  # threshold 3 = s + 1
    assert sum(dist.zeta) == pytest.approx(1.0)


def test_coinflip_reduce_support_and_mass():
    dist = coinflip_reduce(CoinflipModel(1, 0.3, 20))
    assert math.fsum(dist.zeta) == pytest.approx(1.0, abs=1e-12)
    assert dist.zeta[0] == 0.0  # no mass below s + 1


def test_coinflip_model_rejections():
    with pytest.raises(ValueError):
        CoinflipModel(1, 0.0, 10)  # z <= 0
    with pytest.raises(ValueError):
        CoinflipModel(1, 1.2, 10)
    with pytest.raises(ValueError):
        CoinflipModel(5, 0.5, 5)  # cap not above s
    with pytest.raises(ValueError):
        CoinflipModel(-1, 0.5, 10)  # negative s


# ---------------------------------------------------------------------------
# bottleneck lower bound


def test_t_star_lower_bound_values_and_validation():
    n = 10000
    params = single_params(n, 10 / n)
    dist = ThresholdDistribution.from_mapping({2: 0.5, 3: 0.5})
    model = AnalyticModel(params, dist)
    assert t_star_lower_bound(model, 0.5) == pytest.approx(25.0)
    # zeta_1 = 0 admits beta = 1
    assert t_star_lower_bound(model, 1.0) == pytest.approx(n / (2 * 100.0))
    result = critical_seed(model)
    assert result.t_star >= t_star_lower_bound(model, 1.0)
    with pytest.raises(ValueError):
        t_star_lower_bound(model, 0.0)
    with pytest.raises(ValueError):
        t_star_lower_bound(model, 1.5)
    skewed = AnalyticModel(params, ThresholdDistribution((0.09, 0.91)))
    with pytest.raises(ValueError):
        t_star_lower_bound(skewed, 0.5)  # zeta1*eta*phi = 0.9 > 1 - 0.5


@given(st.floats(1e-6, 1.0))
def test_t_star_bound_shrinks_with_beta(beta):
    params = single_params(10000, 10 / 10000)
    dist = ThresholdDistribution.from_mapping({2: 1.0})
    model = AnalyticModel(params, dist)
    assert t_star_lower_bound(model, beta) == pytest.approx(beta * 10000 / 200.0)
