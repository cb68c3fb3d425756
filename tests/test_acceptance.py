"""Acceptance gates for the whole artifact.

Each test drives one end-to-end quality criterion at its stated tolerance
and prints a single PASS/FAIL line (run with -s to see them live).  The
dichotomy-band gate (criterion 6) encodes its target bounds verbatim and
runs at n=10^5.  The dichotomy is asymptotic ("for all sufficiently large
n"), and at n=10^4 the bands do not hold yet: spread rates at 1.1*Phi are
0.57-0.78 against the 0.8 bar, with the transition midpoint near 1.06*Phi.
There Phi is as small as 55, so +-10% of Phi is about 5.5 seeds, inside the
run-to-run window of about sqrt(Phi) = 7 seeds.  The bracketed spread
rate at 1.2*Phi is printed as a diagnostic of how far the midpoint sits
from Phi.
"""

import math
import time

import numpy as np
import pytest

from oracles import (
    dense_fixpoint,
    enum_residual_er,
    enum_residual_tm,
    janson_phi,
    tv_distance,
    tv_distance_2d,
)
from tmperc import harness
from tmperc import intervention as iv
from tmperc import template as tpl
from tmperc.analytic import (
    AnalyticModel,
    CoinflipModel,
    check_convexity,
    check_growth_bounds,
    coinflip_reduce,
    critical_seed,
    log_sum_row,
)
from tmperc.engine import run_coinflip, run_standard
from tmperc.rngutil import substream
from tmperc.tmgraph import (
    TMParams,
    ThresholdDistribution,
    assign_thresholds,
    sample_graph,
    select_seeds,
)

JOBS = 2


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} — {detail}")


# ---------------------------------------------------------------------------
# 1. engine vs brute-force fixpoint


def test_acceptance_1_engine_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    templates = [
        tpl.make_single(),
        tpl.make_planted(2),
        tpl.make_planted(3),
        tpl.make_ring(3, 1),
        tpl.make_ring(5, 1),
        tpl.make_cube3(),
    ]
    mismatches = 0
    for i in range(1000):
        template = templates[int(rng.integers(len(templates)))]
        eta = int(rng.integers(1, 12 // template.k + 1)) if template.k <= 12 else 1
        n = template.k * eta
        p = float(rng.uniform(0.1, 0.9))
        q = float(rng.uniform(0.0, p))
        params = TMParams(template, n, p, q)
        g = sample_graph(params, substream(4000, i))
        thresholds = rng.integers(1, 4, size=n)
        seeds = np.flatnonzero(rng.random(n) < 0.3)
        trace = run_standard(g, thresholds, seeds, stop_fraction=1.0)
        expected = dense_fixpoint(n, g.edge_u, g.edge_v, thresholds, seeds)
        if not np.array_equal(trace.final_infected, expected):
            mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 10.0
    _report(
        "1 engine-oracle",
        ok,
        f"{mismatches} mismatches over 1000 instances, {elapsed:.1f}s (budget 10s)",
    )
    assert mismatches == 0
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. residual formulas vs exact conditional enumeration


def test_acceptance_2_residual_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(102)
    worst = 0.0
    instances = 0
    # single-block states
    for _ in range(300):
        m = int(rng.integers(0, 7))
        delta = int(rng.integers(0, min(7, 13 - m)))
        r = int(rng.integers(1, 5))
        p = float(rng.uniform(0.02, 0.6))
        n = m + delta + 20
        state = iv.ObservedState(
            n=n, i_cur=m + delta, i_prev=m,
            i_cur_cluster=(m + delta,), i_prev_cluster=(m,),
            healthy_by_threshold={r: n - m - delta},
        )
        params = TMParams(tpl.make_single(), n, p)
        mine = iv.residual_tm(state, r, params, 0)[:, 0]
        truth = enum_residual_er(m, delta, p, r)
        worst = max(worst, tv_distance(mine, truth))
        instances += 1
    # clustered states (near/far split through a two-cluster template)
    template = tpl.make_planted(2)
    for _ in range(200):
        m_near = int(rng.integers(0, 6))
        d_near = int(rng.integers(0, 6))
        m_far = int(rng.integers(0, 6))
        d_far = int(rng.integers(0, 6))
        r = int(rng.integers(1, 5))
        p = float(rng.uniform(0.05, 0.6))
        q = float(rng.uniform(0.0, p))
        n = 2 * (m_near + d_near + m_far + d_far + 10)
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
        worst = max(worst, tv_distance_2d(mine, truth))
        instances += 1
    elapsed = time.monotonic() - start
    ok = worst < 1e-10 and elapsed < 30.0
    _report(
        "2 residual-exactness",
        ok,
        f"worst TV {worst:.2e} over {instances} instances, {elapsed:.1f}s (budget 30s)",
    )
    assert instances >= 500
    assert worst < 1e-10
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 3. geometric decay of residual profiles


def _random_gated_state(rng) -> tuple[iv.ObservedState, TMParams]:
    kind = rng.integers(0, 3)
    if kind == 0:
        template = tpl.make_single()
    elif kind == 1:
        template = tpl.make_planted(2)
    else:
        template = tpl.make_ring(int(rng.integers(4, 11)), 1)
    k = template.k
    eta = int(rng.integers(200, 600))
    n = k * eta
    degree = float(rng.uniform(3.0, 12.0))
    near_share = float(rng.uniform(0.4, 1.0)) if template.k_q else 1.0
    p = degree * near_share / (template.k_p * eta)
    q = min(p, degree * (1 - near_share) / (template.k_q * eta)) if template.k_q else 0.0
    params = TMParams(template, n, p, q)
    # draw |I(tau)| inside [0.3, 0.7) of the decay gate k/(3*phi); the
    # 40-vertex floor applies only where it fits below the upper end
    gate = k / (3.0 * params.phi)
    lo, hi = max(1, int(0.3 * gate)), int(0.7 * gate)
    if hi > 40:
        lo = max(lo, 40)
    i_cur = int(rng.integers(lo, hi))
    if not i_cur < gate:
        raise ValueError(f"drawn i_cur={i_cur} is not inside the gate k/(3*phi)={gate:.1f}")
    i_prev = int(rng.integers(int(0.4 * i_cur), i_cur))
    # infected spread across clusters the way a live run does: multinomial
    # current, previous drawn from the current without replacement
    cur_cluster = rng.multinomial(i_cur, np.full(k, 1.0 / k))
    labels = np.repeat(np.arange(k), cur_cluster)
    prev_cluster = np.bincount(rng.choice(labels, size=i_prev, replace=False), minlength=k)
    healthy = n - i_cur
    weights = rng.dirichlet(np.ones(3))
    counts = np.floor(weights * healthy).astype(int)
    counts[0] += healthy - counts.sum()
    healthy_by_threshold = {r + 2: int(c) for r, c in enumerate(counts) if c > 0}
    state = iv.ObservedState(
        n=n, i_cur=i_cur, i_prev=i_prev,
        i_cur_cluster=tuple(int(c) for c in cur_cluster),
        i_prev_cluster=tuple(int(c) for c in prev_cluster),
        healthy_by_threshold=healthy_by_threshold,
    )
    return state, params


def _early_trigger_profiles():
    """Profiles snapshotted from live runs triggered inside the decay gate."""
    out = []
    n = 10000
    er_params = TMParams(tpl.make_single(), n, 7 / n)
    er_dist = ThresholdDistribution.from_mapping({2: 1.0})
    phi_er = critical_seed(AnalyticModel(er_params, er_dist)).phi_critical
    ring = tpl.make_ring(10, 1)
    ring_params = TMParams(ring, n, 50 / (3 * n), 50 / (7 * n))
    ring_dist = ThresholdDistribution.from_mapping({2: 0.5, 3: 0.5})
    phi_ring = critical_seed(AnalyticModel(ring_params, ring_dist)).phi_critical
    for idx, (params, dist, phi_base, lam) in enumerate(
        [(er_params, er_dist, phi_er, 0.03), (ring_params, ring_dist, phi_ring, 0.02)]
    ):
        for graph_idx in range(10):
            g = sample_graph(params, substream(5000, idx, graph_idx))
            thresholds = assign_thresholds(dist, n, substream(5001, idx, graph_idx))
            seeds = select_seeds(int(1.4 * phi_base), n, substream(5002, idx, graph_idx))
            variant = iv.bolster_a(0.5, (2, 3))
            run, triggered = iv.run_to_trigger(g, thresholds, seeds, variant, lam, 0.9)
            if not triggered:
                continue
            observed = iv.snapshot_observed(run)
            profile = iv.build_profile(observed, params)
            out.append((observed, params, profile))
    return out


def test_acceptance_3_residual_decay():
    start = time.monotonic()
    rng = np.random.default_rng(103)
    decay_violations = 0
    j_violations = 0
    gated_profiles = 0
    corpora = []
    for _ in range(300):
        state, params = _random_gated_state(rng)
        profile = iv.build_profile(state, params)
        corpora.append((state, params, profile))
    corpora.extend(_early_trigger_profiles())
    for state, params, profile in corpora:
        if not profile.gate_ok:
            continue
        gated_profiles += 1
        if profile.decay_violations():
            decay_violations += 1
        thresholds = tuple(sorted(state.healthy_by_threshold))
        law = {}
        for r in thresholds:
            support = list(range(r, r + 4))
            weights = rng.dirichlet(np.ones(len(support)))
            law[r] = dict(zip(support, map(float, weights)))
        surrogate = iv.build_surrogate(profile, iv.Bolster(law))
        if not surrogate.j_decay_ok:
            j_violations += 1
    elapsed = time.monotonic() - start
    ok = decay_violations == 0 and j_violations == 0 and gated_profiles >= 300
    _report(
        "3 residual-decay",
        ok,
        f"{decay_violations} profile and {j_violations} surrogate violations over "
        f"{gated_profiles} gated profiles, {elapsed:.1f}s",
    )
    assert gated_profiles >= 300
    assert decay_violations == 0
    assert j_violations == 0


# ---------------------------------------------------------------------------
# 4. convexity and proved inequalities on random draws


def test_acceptance_4_convexity_and_bounds():
    start = time.monotonic()
    rng = np.random.default_rng(104)
    convex_failures = 0
    scanned_models = 0
    for _ in range(30):
        if rng.random() < 0.5:
            template = tpl.make_single()
        else:
            template = tpl.make_ring(int(rng.integers(4, 21)), 1)
        eta = int(rng.integers(300, 1500))
        n = template.k * eta
        degree = float(rng.uniform(3.0, 15.0))
        near_share = float(rng.uniform(0.4, 1.0)) if template.k_q else 1.0
        p = degree * near_share / (template.k_p * eta)
        q = min(p, degree * (1 - near_share) / (template.k_q * eta)) if template.k_q else 0.0
        params = TMParams(template, n, p, q)
        # legal threshold law: zeta_1 strictly below two thirds of zeta_2
        z2 = float(rng.uniform(0.2, 0.8))
        z1 = float(rng.uniform(0.0, 0.6)) * (2.0 / 3.0) * z2
        z3 = 1.0 - z1 - z2
        dist = ThresholdDistribution((z1, z2, z3))
        report = check_convexity(AnalyticModel(params, dist))
        assert report.hypothesis_ok
        scanned_models += 1
        if not report.convex_ok:
            convex_failures += 1
    growth_failures = 0
    for i in range(10_000):
        r = int(rng.integers(1, 4))
        t = int(rng.integers(4 * r, 4 * r + 40))
        x = int(rng.integers(1, 4))
        template = tpl.make_ring(int(rng.integers(4, 8)), 1) if rng.random() < 0.5 else tpl.make_planted(int(rng.integers(1, 5)))
        budget = 1.0 / (3.0 * x * t)
        p_share = float(rng.uniform(0.2, 0.7))
        p = p_share * budget / template.k_p
        q = min(p, float(rng.uniform(0.0, 1.0)) * (1 - p_share) * budget / template.k_q) if template.k_q else 0.0
        params = TMParams(template, 4 * template.k, p, q)
        report = check_growth_bounds(params, r, t, x)
        if not (report.preconditions_ok and report.ok):
            growth_failures += 1
    ratio_failures = 0
    for i in range(10_000):
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
        if row[r + 1] >= bound * row[r] * (1 + 1e-9):
            ratio_failures += 1
    elapsed = time.monotonic() - start
    ok = convex_failures == 0 and growth_failures == 0 and ratio_failures == 0 and elapsed < 60.0
    _report(
        "4 convexity-and-bounds",
        ok,
        f"convexity {convex_failures}/{scanned_models} failures, growth {growth_failures}/10000, "
        f"ratio {ratio_failures}/10000, {elapsed:.1f}s (budget 60s)",
    )
    assert convex_failures == 0
    assert growth_failures == 0
    assert ratio_failures == 0
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 5. classical single-block cross-check


def test_acceptance_5_janson_cross_check():
    start = time.monotonic()
    n = 10000
    params = TMParams(tpl.make_single(), n, 10 / n)
    errors = {}
    for r in (2, 3):
        model = AnalyticModel(params, ThresholdDistribution.from_mapping({r: 1.0}))
        result = critical_seed(model)
        reference = janson_phi(n, 10 / n, r)
        errors[r] = abs(result.phi_critical - reference) / reference
    elapsed = time.monotonic() - start
    ok = all(err < 0.25 for err in errors.values()) and elapsed < 5.0
    _report(
        "5 janson-cross-check",
        ok,
        f"relative errors r=2: {errors[2]:.3f}, r=3: {errors[3]:.3f} (tolerance 0.25), "
        f"{elapsed:.1f}s (budget 5s)",
    )
    assert errors[2] < 0.25
    assert errors[3] < 0.25
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 6. dichotomy bands at desk scale


GRID = [0.0, 0.25, 0.5, 0.75]
# criterion 6's problem size; the module docstring says why not 10^4
DICHOTOMY_N = 100000


def _fig1_config(k: int, n: int = 10000) -> harness.ExperimentConfig:
    if k == 1:
        graph = {"template": {"kind": "single"}, "n": n, "near_degree": 10.0}
    else:
        graph = {
            "template": {"kind": "ring", "k": k, "reach": 1},
            "n": n,
            "near_degree": 5.0,
            "far_degree": 5.0,
        }
    return harness.load_config(
        {
            "name": f"fig1-k{k}",
            "master_seed": 106,
            "graph": graph,
            "thresholds": {"zeta": {"2": 0.5, "3": 0.5}},
            "sweep": {
                "axis": "zeta_fraction",
                "threshold": 3,
                "complement": 2,
                "values": GRID,
            },
            "graphs": 10,
            "trials": 10,
            "seed_factors": [0.9, 1.1, 1.2],
        }
    )


def test_acceptance_6_dichotomy_bands():
    start = time.monotonic()
    halt_rates = {}
    spread_rates = {}
    diag_12 = {}
    for k in (1, 10, 20):
        table = harness.run_dichotomy(_fig1_config(k, n=DICHOTOMY_N), jobs=JOBS)
        for x in GRID:
            lo = [r for r in table.rows if r["value"] == x and r["seed_factor"] == 0.9]
            hi = [r for r in table.rows if r["value"] == x and r["seed_factor"] == 1.1]
            extra = [r for r in table.rows if r["value"] == x and r["seed_factor"] == 1.2]
            halt_rates[(k, x)] = np.mean(
                [r["verdict"] == "halted" and r["final_fraction"] < 0.1 for r in lo]
            )
            spread_rates[(k, x)] = np.mean(
                [r["verdict"] == "spread" and r["final_fraction"] >= 0.9 for r in hi]
            )
            diag_12[(k, x)] = np.mean(
                [r["verdict"] == "spread" and r["final_fraction"] >= 0.9 for r in extra]
            )
    elapsed = time.monotonic() - start
    halt_ok = all(rate >= 0.8 for rate in halt_rates.values())
    spread_ok = all(rate >= 0.8 for rate in spread_rates.values())
    lines = [
        f"k={k} x={x}: halt@0.9Phi={halt_rates[(k, x)]:.2f} "
        f"spread@1.1Phi={spread_rates[(k, x)]:.2f} [spread@1.2Phi={diag_12[(k, x)]:.2f}]"
        for k in (1, 10, 20)
        for x in GRID
    ]
    _report(
        "6 dichotomy-bands",
        halt_ok and spread_ok and elapsed < 900,
        f"{elapsed:.0f}s (budget 900s)\n  " + "\n  ".join(lines),
    )
    assert elapsed < 900
    assert halt_ok, f"halt rates below 0.8: {halt_rates}"
    # The bound is asserted as stated.  At n=10^4 it fails (spread rates
    # 0.57-0.78 at 1.1*Phi, transition midpoint near 1.06*Phi); the
    # midpoint moves toward Phi as n grows, hence DICHOTOMY_N = 10^5.  The
    # bracketed 1.2*Phi rates above show the width of the transition.
    assert spread_ok, f"spread rates below 0.8 at 1.1*Phi: {spread_rates}"


# ---------------------------------------------------------------------------
# 7. network invariance of the critical seed size


def test_acceptance_7_network_invariance():
    start = time.monotonic()
    phis = {}
    for k in (10, 20):
        config = _fig1_config(k)
        for row in harness.analytic_summary(config):
            phis[(k, row["value"])] = row["phi_critical"]
    gaps = {
        x: abs(phis[(10, x)] - phis[(20, x)]) / phis[(10, x)] for x in GRID
    }
    elapsed = time.monotonic() - start
    ok = all(gap <= 0.02 for gap in gaps.values())
    _report(
        "7 network-invariance",
        ok,
        "relative gaps "
        + ", ".join(f"x={x}: {gap:.4f}" for x, gap in gaps.items())
        + f" (tolerance 0.02), {elapsed:.1f}s",
    )
    assert ok, gaps


# ---------------------------------------------------------------------------
# 8. coinflip reduction vs Monte-Carlo bisection


Z_GRID = [0.3, 0.4, 0.5, 0.6, 0.7]


def _empirical_critical_coinflip(z: float, trials: int = 20) -> tuple[int, float]:
    n = 10000
    params = TMParams(tpl.make_single(), n, 10 / n)
    cf = CoinflipModel(1, z, 20)
    dist = coinflip_reduce(cf)
    phi = critical_seed(AnalyticModel(params, dist)).phi_critical
    lo, hi = max(1, phi // 3), min(n, 3 * phi)
    step = 0
    key = int(z * 100)
    while hi - lo > max(2, int(0.02 * phi)):
        mid = (lo + hi) // 2
        wins = 0
        for trial in range(trials):
            g = sample_graph(params, substream(108, 1, key, step, trial))
            seeds = select_seeds(mid, n, substream(108, 2, key, step, trial))
            trace = run_coinflip(g, cf, seeds, 0.9, substream(108, 3, key, step, trial))
            wins += trace.verdict == "spread"
        if wins >= trials / 2:
            hi = mid
        else:
            lo = mid + 1
        step += 1
    return phi, 0.5 * (lo + hi)


def test_acceptance_8_coinflip_reduction():
    start = time.monotonic()
    rel_errors = {}
    for z in Z_GRID:
        phi, empirical = _empirical_critical_coinflip(z)
        rel_errors[z] = abs(empirical - phi) / phi
    within = sum(err <= 0.10 for err in rel_errors.values())
    elapsed = time.monotonic() - start
    ok = within >= 4 and elapsed < 1200
    _report(
        "8 coinflip-reduction",
        ok,
        ", ".join(f"z={z}: {err:.3f}" for z, err in rel_errors.items())
        + f"; {within}/5 within 10%, {elapsed:.0f}s (budget 1200s)",
    )
    assert within >= 4, rel_errors
    assert elapsed < 1200


# ---------------------------------------------------------------------------
# 9. intervention prediction agreement


def _intervention_config(name, variant, graph, zeta, values, ratio=1.0, seed=109):
    return harness.load_config(
        {
            "name": name,
            "master_seed": seed,
            "graph": graph,
            "thresholds": {"zeta": zeta},
            "sweep": {"axis": "alpha", "values": values},
            "graphs": 10,
            "trials": 1,
            "intervention": {
                "variant": variant,
                "lambda": 0.1,
                "baseline_seed_factor": 1.3,
                "compute_boundary": False,
                # only the edge-removal variants read the far-edge ratio
                **({"alpha_q_ratio": ratio} if variant in ("diminish", "sequester") else {}),
            },
        }
    )


_ER7 = {"template": {"kind": "single"}, "n": 10000, "p": 7 / 10000}
_ER15 = {"template": {"kind": "single"}, "n": 10000, "p": 15 / 10000}
_RING10 = {
    "template": {"kind": "ring", "k": 10, "reach": 1},
    "n": 10000,
    "p": 9 / 3000,
    "q": 6 / 3000,
}


def _agreement(table) -> tuple[int, int]:
    rows = [r for r in table.rows if r["triggered"] and r["agree"] is not None]
    return sum(bool(r["agree"]) for r in rows), len(rows)


def test_acceptance_9_intervention_prediction():
    start = time.monotonic()
    legs = {
        "bolster-a": _intervention_config(
            "acc-bolster-a", "bolster_a", _ER7, {"2": 1.0}, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        ),
        "diminish-er": _intervention_config(
            "acc-dim-er", "diminish", _ER15, {"3": 1.0}, [0.1, 0.25, 0.4, 0.55, 0.7, 0.85]
        ),
        "sequester-er": _intervention_config(
            "acc-seq-er", "sequester", _ER15, {"3": 1.0}, [0.05, 0.15, 0.25, 0.4, 0.6, 0.8]
        ),
        "diminish-ring": _intervention_config(
            "acc-dim-ring", "diminish", _RING10, {"3": 1.0},
            [0.1, 0.25, 0.4, 0.55, 0.7, 0.85], ratio=2.0 / 3.0,
        ),
        "sequester-ring": _intervention_config(
            "acc-seq-ring", "sequester", _RING10, {"3": 1.0},
            [0.05, 0.15, 0.25, 0.4, 0.6, 0.8], ratio=2.0 / 3.0,
        ),
    }
    rates = {}
    for leg, config in legs.items():
        agree, total = _agreement(harness.run_intervention(config, jobs=JOBS))
        rates[leg] = (agree, total, agree / total if total else math.nan)
    elapsed = time.monotonic() - start
    ok = all(rate >= 0.8 for _, _, rate in rates.values()) and elapsed < 1800
    _report(
        "9 intervention-prediction",
        ok,
        ", ".join(f"{leg}: {a}/{t}={rate:.2f}" for leg, (a, t, rate) in rates.items())
        + f"; {elapsed:.0f}s (budget 1800s)",
    )
    for leg, (agree, total, rate) in rates.items():
        assert rate >= 0.8, f"{leg}: {agree}/{total}"
    assert elapsed < 1800


# ---------------------------------------------------------------------------
# 10. qualitative strategy orderings


def _fitted_boundaries(table) -> dict[int, float]:
    per_graph: dict[int, list[tuple[float, str]]] = {}
    for row in table.rows:
        if row["triggered"]:
            per_graph.setdefault(row["graph"], []).append((row["alpha"], row["actual"]))
    out = {}
    for graph, pairs in per_graph.items():
        pairs.sort()
        halts = [a for a, verdict in pairs if verdict == "halted"]
        spreads = [a for a, verdict in pairs if verdict == "spread"]
        if halts and spreads:
            out[graph] = 0.5 * (max(halts) + min(spreads))
        elif halts:
            out[graph] = 1.0
        else:
            out[graph] = 0.0
    return out


def test_acceptance_10_strategy_orderings():
    start = time.monotonic()
    fine = [round(0.1 * i, 1) for i in range(11)]
    bolster_a = _fitted_boundaries(
        harness.run_intervention(
            _intervention_config("acc-ord-a", "bolster_a", _ER7, {"2": 1.0}, fine, seed=110),
            jobs=JOBS,
        )
    )
    bolster_b = _fitted_boundaries(
        harness.run_intervention(
            _intervention_config("acc-ord-b", "bolster_b", _ER7, {"2": 1.0}, fine, seed=110),
            jobs=JOBS,
        )
    )
    diminish = _fitted_boundaries(
        harness.run_intervention(
            _intervention_config("acc-ord-d", "diminish", _ER15, {"3": 1.0}, fine, seed=110),
            jobs=JOBS,
        )
    )
    sequester = _fitted_boundaries(
        harness.run_intervention(
            _intervention_config("acc-ord-s", "sequester", _ER15, {"3": 1.0}, fine, seed=110),
            jobs=JOBS,
        )
    )
    mean_a = float(np.mean(list(bolster_a.values())))
    mean_b = float(np.mean(list(bolster_b.values())))
    mean_d = float(np.mean(list(diminish.values())))
    mean_s = float(np.mean(list(sequester.values())))
    elapsed = time.monotonic() - start
    ok = mean_a > mean_b and mean_d > mean_s
    _report(
        "10 strategy-orderings",
        ok,
        f"bolster boundary A={mean_a:.3f} > B={mean_b:.3f}; "
        f"diminish {mean_d:.3f} > sequester {mean_s:.3f}; {elapsed:.0f}s",
    )
    assert mean_a > mean_b, (mean_a, mean_b)
    assert mean_d > mean_s, (mean_d, mean_s)
