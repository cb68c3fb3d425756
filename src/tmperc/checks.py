"""Built-in property battery behind the `validate` CLI subcommand.

A compact, self-contained subset of the full test suite: each check pits an
implementation path against an independent computation (exact rationals,
dense fixpoint iteration, exhaustive enumeration) or verifies a proved
inequality on random draws.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable

import numpy as np

from . import template as tpl
from .analytic import (
    AnalyticModel,
    CoinflipModel,
    check_convexity,
    check_growth_bounds,
    coinflip_reduce,
    log_sum_row,
    pi_r,
)
from .engine import run_standard
from .intervention import ObservedState, residual_tm
from .rngutil import substream
from .tmgraph import TMParams, ThresholdDistribution, sample_graph

CheckResult = tuple[str, bool, str]


def _exact_pi(t: int, r: int, params: TMParams) -> float:
    """pi_r via exact rational arithmetic (oracle)."""
    p = Fraction(params.p)
    q = Fraction(params.q)
    np_, nq = params.k_p * t, params.k_q * t
    head = Fraction(0)
    for j in range(min(r, np_ + nq + 1)):
        for i in range(j + 1):
            if i <= np_ and j - i <= nq:
                head += (
                    Fraction(math.comb(np_, i)) * p**i * (1 - p) ** (np_ - i)
                    * Fraction(math.comb(nq, j - i)) * q ** (j - i) * (1 - q) ** (nq - j + i)
                )
    return float(1 - head)


def check_templates() -> CheckResult:
    try:  # construction checks every template rule
        built = [
            tpl.make_single(),
            tpl.make_ring(10, 1),
            tpl.make_ring(7, 2),
            tpl.make_cube3(),
            tpl.make_planted(5),
        ]
    except ValueError as exc:
        return ("template-builders", False, str(exc))
    return ("template-builders", True, f"{len(built)} builders valid")


def check_pi_exact() -> CheckResult:
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(40):
        k = int(rng.integers(1, 4))
        template = tpl.make_planted(k) if k > 1 else tpl.make_single()
        p = float(rng.uniform(0.05, 0.5))
        q = float(rng.uniform(0.0, p))
        params = TMParams(template, 4 * k, p, q)
        t = int(rng.integers(1, 6))
        r = int(rng.integers(1, 5))
        mine = pi_r(t, r, params)
        exact = _exact_pi(t, r, params)
        if exact > 0:
            worst = max(worst, abs(mine - exact) / exact)
    ok = worst < 1e-10
    return ("pi-vs-exact-rational", ok, f"worst relative error {worst:.2e}")


def check_mass_sums() -> CheckResult:
    params = TMParams(tpl.make_planted(2), 8, 0.3, 0.2)
    for t in range(1, 6):
        total_trials = (params.k_p + params.k_q) * t
        mass = float(np.exp(log_sum_row(t, params, total_trials)).sum())
        if abs(mass - 1.0) > 1e-10:
            return ("distribution-mass", False, f"t={t} mass {mass!r}")
    return ("distribution-mass", True, "sum over full support is 1")


def check_growth_and_ratio(draws: int = 1000) -> CheckResult:
    rng = np.random.default_rng(11)
    for i in range(draws):
        r = int(rng.integers(1, 4))
        t = int(rng.integers(4 * r, 4 * r + 30))
        x = int(rng.integers(1, 4))
        if rng.random() < 0.5:
            template = tpl.make_ring(int(rng.integers(4, 8)), 1)  # k_p = 3
        else:
            template = tpl.make_planted(int(rng.integers(1, 5)))  # k_p = 1
        budget = 1.0 / (3.0 * x * t)  # keeps phi * x * t <= 1/3
        p_share = float(rng.uniform(0.2, 0.7))
        p = p_share * budget / template.k_p
        q = 0.0
        if template.k_q:
            q = min(p, float(rng.uniform(0.0, 1.0)) * (1 - p_share) * budget / template.k_q)
        params = TMParams(template, template.k * 4, p, q)
        report = check_growth_bounds(params, r, t, x)
        if report.preconditions_ok and not report.ok:
            return ("growth-bounds", False, f"violation at draw {i}")
        # consecutive-mass ratio bound
        row = np.exp(log_sum_row(t, params, r + 1))
        bound = params.phi * t / (1.0 - max(params.p, params.q))
        if row[r] > 0 and row[r + 1] >= bound * row[r] * (1 + 1e-9):
            return ("mass-ratio", False, f"ratio violation at draw {i}")
    return ("growth-bounds", True, f"{draws} random draws within bounds")


def check_convexity_samples() -> CheckResult:
    params = TMParams(tpl.make_single(), 10000, 10 / 10000)
    for zeta in ({2: 1.0}, {2: 0.5, 3: 0.5}, {1: 0.1, 2: 0.6, 3: 0.3}):
        dist = ThresholdDistribution.from_mapping(zeta)
        report = check_convexity(AnalyticModel(params, dist))
        if report.hypothesis_ok and not report.convex_ok:
            return ("convexity", False, f"violations for {zeta}: {report.violations[:3]}")
    return ("convexity", True, "second differences non-negative on the horizon")


def check_coinflip_reduction() -> CheckResult:
    dist = coinflip_reduce(CoinflipModel(1, 0.5, 4))
    expected = {2: 0.5, 3: 0.25, 4: 0.25}
    for r, w in expected.items():
        if abs(dist.zeta[r - 1] - w) > 1e-12:
            return ("coinflip-reduce", False, f"threshold {r}: {dist.zeta[r-1]} != {w}")
    total = math.fsum(dist.zeta)
    return ("coinflip-reduce", abs(total - 1.0) < 1e-12, f"mass {total}")


def check_engine_fixpoint(instances: int = 60) -> CheckResult:
    rng = np.random.default_rng(23)
    for i in range(instances):
        n = int(rng.integers(4, 13))
        k = int(rng.choice([1, 2]))
        if n % k:
            n -= n % k
        template = tpl.make_single() if k == 1 else tpl.make_planted(2)
        p = float(rng.uniform(0.1, 0.9))
        q = float(rng.uniform(0.0, p)) if k > 1 else 0.0
        params = TMParams(template, n, p, q)
        g = sample_graph(params, substream(900, i))
        thresholds = rng.integers(1, 4, size=n)
        seeds = np.flatnonzero(rng.random(n) < 0.3)
        trace = run_standard(g, thresholds, seeds, stop_fraction=1.0)
        dense = np.zeros((n, n), dtype=int)
        dense[g.edge_u, g.edge_v] = 1
        dense[g.edge_v, g.edge_u] = 1
        infected = np.zeros(n, dtype=bool)
        infected[seeds] = True
        while True:
            fresh = (~infected) & (dense @ infected >= thresholds)
            if not fresh.any():
                break
            infected |= fresh
        if not np.array_equal(np.flatnonzero(infected), trace.final_infected):
            return ("engine-fixpoint", False, f"mismatch at instance {i}")
    return ("engine-fixpoint", True, f"{instances} random instances match the dense fixpoint")


def check_residual_enumeration(instances: int = 25) -> CheckResult:
    rng = np.random.default_rng(31)
    params_template = tpl.make_single()
    for i in range(instances):
        m = int(rng.integers(0, 6))
        delta = int(rng.integers(0, 6))
        r = int(rng.integers(1, 4))
        p = float(rng.uniform(0.05, 0.6))
        n = 50
        obs = ObservedState(
            n=n, i_cur=m + delta, i_prev=m,
            i_cur_cluster=(m + delta,), i_prev_cluster=(m,),
            healthy_by_threshold={r: n - m - delta},
        )
        params = TMParams(params_template, n, p)
        mine = residual_tm(obs, r, params, 0)[:, 0]
        law: dict[int, float] = {}
        for vec in itertools.product([0, 1], repeat=m + delta):
            weight = 1.0
            for bit in vec:
                weight *= p if bit else 1.0 - p
            if sum(vec[:m]) <= r - 1:
                law[sum(vec)] = law.get(sum(vec), 0.0) + weight
        total = sum(law.values())
        size = max(mine.size, max(law, default=0) + 1)
        lhs, rhs = np.zeros(size), np.zeros(size)
        lhs[: mine.size] = mine
        for a, w in law.items():
            rhs[a] = w / total
        if 0.5 * np.abs(lhs - rhs).sum() > 1e-10:
            return ("residual-enumeration", False, f"TV gap at instance {i}")
    return ("residual-enumeration", True, f"{instances} instances match enumeration")


ALL_CHECKS: list[Callable[[], CheckResult]] = [
    check_templates,
    check_pi_exact,
    check_mass_sums,
    check_growth_and_ratio,
    check_convexity_samples,
    check_coinflip_reduction,
    check_engine_fixpoint,
    check_residual_enumeration,
]


def run_validation(quick: bool = False) -> list[CheckResult]:
    results = []
    for check in ALL_CHECKS:
        if quick and check is check_growth_and_ratio:
            results.append(check_growth_and_ratio(200))
            continue
        results.append(check())
    return results
