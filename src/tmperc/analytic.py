"""Critical-seed analytics for threshold percolation on templated graphs.

Central objects, for integer generations t:

    pi_r(t)  = Pr[Bin(k_p*t, p) + Bin(k_q*t, q) >= r]
    A(t)     = sum_r zeta_r * pi_r(t)
    f(phi,t) = (n - phi) * A(t) - k*t + phi

The critical seed size is the least phi with f(phi, t) >= 0 for every
integer t in [1, floor(1/(3*phi_edge))] where phi_edge = p*k_p + q*k_q;
the bottleneck generation t* is the (smallest) minimizer of f at that seed
size.  f is affine in phi, so the critical seed is a closed form: the
largest per-generation root (k*t - n*A(t)) / (1 - A(t)), rounded up.  All
binomial mass is computed in log space by one convolution kernel,
``log_sum_row``; survival probabilities take the tail sum directly when the
head is close to 1 so small activation probabilities keep full relative
accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.special import gammaln, logsumexp

from .tmgraph import TMParams, ThresholdDistribution

__all__ = [
    "binom_log_pmf",
    "log_binom_row",
    "log_sum_row",
    "pi_r",
    "A_of_t",
    "f_of",
    "AnalyticModel",
    "AssumptionReport",
    "CriticalResult",
    "critical_seed",
    "ConvexityReport",
    "check_convexity",
    "GrowthBoundReport",
    "check_growth_bounds",
    "CoinflipModel",
    "coinflip_reduce",
    "t_star_lower_bound",
]

_NEG_INF = float("-inf")


def binom_log_pmf(x: int, lam: float, i: int) -> float:
    """log Pr[Bin(x, lam) = i] via log-gamma; exact -inf for impossible cases."""
    if i < 0 or i > x:
        raise ValueError(f"successes i={i} outside [0, x={x}]")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"success probability {lam} outside [0, 1]")
    if lam == 0.0:
        return 0.0 if i == 0 else _NEG_INF
    if lam == 1.0:
        return 0.0 if i == x else _NEG_INF
    return (
        math.lgamma(x + 1)
        - math.lgamma(i + 1)
        - math.lgamma(x - i + 1)
        + i * math.log(lam)
        + (x - i) * math.log1p(-lam)
    )


def log_binom_row(trials: np.ndarray | int, prob: float, j_max: int) -> np.ndarray:
    """log pmf of Bin(trials, prob) at 0..j_max, vectorized over a trials array.

    Returns shape (j_max+1,) for scalar trials, else (j_max+1, len(trials)).
    """
    scalar = np.isscalar(trials)
    t = np.atleast_1d(np.asarray(trials, dtype=np.int64))
    j = np.arange(j_max + 1, dtype=np.int64)[:, None]
    if prob <= 0.0:
        out = np.full((j_max + 1, t.size), _NEG_INF)
        out[0, :] = 0.0
    elif prob >= 1.0:
        out = np.where(j == t[None, :], 0.0, _NEG_INF)
    else:
        with np.errstate(invalid="ignore"):
            out = (
                gammaln(t + 1.0)[None, :]
                - gammaln(j + 1.0)
                - gammaln(t - j + 1.0)
                + j * math.log(prob)
                + (t - j) * math.log1p(-prob)
            )
        out = np.where(j > t[None, :], _NEG_INF, out)
    return out[:, 0] if scalar else out


def log_sum_row(t: np.ndarray | int, params: TMParams, j_max: int) -> np.ndarray:
    """log Pr[Bin(k_p*t, p) + Bin(k_q*t, q) = j] for j = 0..j_max.

    The whole row is one masked (j_max+1) x (j_max+1) log-convolution: entry
    (j, i) holds log_b[i] + log_c[j-i] for i <= j and -inf above the
    diagonal, reduced by a single logsumexp over i.  Its temporaries grow as
    j_max**2, and pi_r's full-support fallback can pass j_max up to
    (k_p + k_q) * t.  Like ``log_binom_row``, a t array adds a trailing axis:
    the result is (j_max+1,) for scalar t, else (j_max+1, len(t)).  The array
    form sums over i in index order, while numpy may sum the scalar form's
    contiguous rows pairwise, so the two can differ in the last bits.
    """
    log_b = log_binom_row(params.k_p * t, params.p, j_max)
    log_c = log_binom_row(params.k_q * t, params.q, j_max)
    j = np.arange(j_max + 1)
    lag = j[:, None] - j[None, :]  # j - i
    mask = (lag >= 0).reshape(lag.shape + (1,) * (log_b.ndim - 1))
    terms = np.where(mask, log_b[None] + log_c[np.maximum(lag, 0)], _NEG_INF)
    return logsumexp(terms, axis=1)


def pi_r(t: int, r: int, params: TMParams) -> float:
    """Pr[Bin(k_p*t, p) + Bin(k_q*t, q) >= r]; relative accuracy on both tails.

    The complement sum over j < r is used when the result is large; otherwise
    the tail over j >= r is summed directly so tiny activation probabilities
    are not lost to cancellation.
    """
    if t < 0:
        raise ValueError(f"generation t={t} must be non-negative")
    if r < 1:
        raise ValueError(f"threshold r={r} must be >= 1")
    total_trials = (params.k_p + params.k_q) * t
    if r > total_trials:
        return 0.0
    head = float(np.exp(log_sum_row(t, params, r - 1)).sum())
    if 1.0 - head >= 0.5:
        return 1.0 - head
    mean = params.phi * t
    j_cap = int(min(total_trials, max(r + 80, math.ceil(4 * mean) + 80)))
    tail_terms = np.exp(log_sum_row(t, params, j_cap)[r:])
    tail = float(tail_terms.sum())
    if j_cap < total_trials and tail_terms.size and tail_terms[-1] > tail * 1e-17:
        # decay stalled before the cap; fall back to the full support
        tail = float(np.exp(log_sum_row(t, params, total_trials)[r:]).sum())
    return tail


def A_of_t(t: int, dist: ThresholdDistribution, params: TMParams) -> float:
    """Mixture activation probability sum_r zeta_r * pi_r(t)."""
    return math.fsum(
        z * pi_r(t, r + 1, params) for r, z in enumerate(dist.zeta) if z > 0.0
    )


@dataclass(frozen=True)
class AssumptionReport:
    """Which hypotheses of the dichotomy theorem the configuration satisfies.

    The solver never refuses to compute; a failed hypothesis only voids the
    theoretical guarantee, which downstream consumers surface as an
    outside-theory flag.
    """

    zeta1_condition_ok: bool
    beta_max: float
    beta_positive: bool
    sparsity_ok: bool
    probabilities_small: bool

    @property
    def within_theory(self) -> bool:
        return (
            self.zeta1_condition_ok
            and self.beta_positive
            and self.sparsity_ok
            and self.probabilities_small
        )

    def to_dict(self) -> dict:
        return {
            "zeta1_condition_ok": self.zeta1_condition_ok,
            "beta_max": self.beta_max,
            "beta_positive": self.beta_positive,
            "sparsity_ok": self.sparsity_ok,
            "probabilities_small": self.probabilities_small,
            "within_theory": self.within_theory,
        }


def _assumption_report(params: TMParams, dist: ThresholdDistribution) -> AssumptionReport:
    zeta1 = dist.zeta[0]
    beta_max = max(0.0, 1.0 - zeta1 * params.expected_degree)
    sparsity_ok = (
        beta_max > 0.0
        and params.expected_degree <= math.sqrt(beta_max * params.eta)
    )
    return AssumptionReport(
        zeta1_condition_ok=dist.zeta1_condition_ok,
        beta_max=beta_max,
        beta_positive=beta_max > 0.0,
        sparsity_ok=sparsity_ok,
        probabilities_small=(params.p <= 0.5 and params.q <= 0.5),
    )


class AnalyticModel:
    """Precomputed activation table for one (params, distribution) pair.

    ``t_max`` is the admissible horizon floor(1/(3*phi)), or None when the
    graph has no edges (phi = 0, infinite horizon, activation identically 0).
    The table is only materialized up to min(t_max, floor(n/k) + 1): beyond
    n/k the deficiency f is negative for every seed size, so no query needs
    larger t.  Instances are immutable after construction and safe to share.
    """

    def __init__(self, params: TMParams, dist: ThresholdDistribution):
        self.params = params
        self.dist = dist
        phi_edge = params.phi
        self.t_max: int | None = int(1.0 / (3.0 * phi_edge)) if phi_edge > 0 else None
        cap = int(params.n // params.k) + 1
        # phi == 0 means A is identically zero; a one-entry table suffices
        self.t_table = 0 if self.t_max is None else min(self.t_max, cap)
        self.A = self._activation_table(self.t_table)
        self.A.flags.writeable = False
        self.assumptions = _assumption_report(params, dist)

    def _activation_table(self, t_hi: int) -> np.ndarray:
        params, dist = self.params, self.dist
        r_m = dist.r_max
        t_arr = np.arange(t_hi + 1, dtype=np.int64)
        log_d = log_sum_row(t_arr, params, r_m - 1)
        head = np.cumsum(np.exp(log_d), axis=0)  # head[j] = Pr[sum <= j]
        pi = np.clip(1.0 - head, 0.0, 1.0)  # row r-1 holds pi_r = 1 - head[r-1]
        total_trials = (params.k_p + params.k_q) * t_arr
        for i in range(r_m):
            pi[i, total_trials < i + 1] = 0.0  # threshold above the trial count
        table = dist.as_array() @ pi
        table[0] = 0.0
        return table

    def A_at(self, t: int) -> float:
        if not 0 <= t <= self.t_table:
            raise ValueError(f"t={t} outside the tabulated range [0, {self.t_table}]")
        return float(self.A[t])


def f_of(phi: float, t: int, model: AnalyticModel) -> float:
    """Deficiency (n - phi)*A(t) - k*t + phi."""
    return (model.params.n - phi) * model.A_at(t) - model.params.k * t + phi


@dataclass(frozen=True)
class CriticalResult:
    """Critical seed size with its bottleneck generation and diagnostics.

    ``phi_critical`` is None when no seed count up to n keeps the deficiency
    non-negative across the horizon (callers treat that as +infinity: the
    process is subcritical for every feasible seeding).
    """

    phi_critical: int | None
    t_star: int | None
    assumptions: AssumptionReport
    t_max: int | None


def critical_seed(model: AnalyticModel) -> CriticalResult:
    """Least phi with f(phi, t) >= 0 on the whole horizon, in closed form.

    f(phi, t) = n*A(t) - k*t + phi*(1 - A(t)) is affine in phi, so each t
    with A(t) < 1 needs phi >= (k*t - n*A(t)) / (1 - A(t)), and a t with
    A(t) = 1 needs only k*t <= n.  The largest of those roots, rounded up,
    is stepped by one until the feasibility test on the table holds at phi
    and fails at phi - 1, which absorbs the rounding of the division.  (The
    bisection this replaces is kept as a test oracle.)  The minimizing t is
    found by full scan of the table; ties break to the smallest t.
    """
    params = model.params
    n, k = params.n, params.k
    if model.t_max is not None and model.t_max < 1:
        raise ValueError(
            "empty horizon: expected degree so large that floor(1/(3*phi)) < 1"
        )
    infeasible = CriticalResult(None, None, model.assumptions, model.t_max)
    if model.t_max is None:
        # no edges: f(phi, t) = phi - k*t goes negative within the horizon
        return infeasible
    if k * model.t_max > n:
        # at t in (n/k, t_max] even phi = n has f = n - k*t < 0
        return infeasible
    t_arr = np.arange(1, model.t_max + 1)
    a_arr = model.A[1 : model.t_max + 1]

    def feasible(phi: int) -> bool:
        return bool(np.min((n - phi) * a_arr - k * t_arr + phi) >= 0.0)

    below = a_arr < 1.0
    roots = (k * t_arr[below] - n * a_arr[below]) / (1.0 - a_arr[below])
    phi_star = min(n, math.ceil(roots.max(initial=0.0)))
    while not feasible(phi_star):
        phi_star += 1
    while phi_star > 0 and feasible(phi_star - 1):
        phi_star -= 1
    curve = (n - phi_star) * a_arr - k * t_arr + phi_star
    t_star = int(t_arr[int(np.argmin(curve))])
    return CriticalResult(phi_star, t_star, model.assumptions, model.t_max)


@dataclass(frozen=True)
class ConvexityReport:
    hypothesis_ok: bool
    convex_ok: bool
    violations: tuple[tuple[int, float], ...]
    tolerance: float

    @property
    def asserted(self) -> bool:
        """Convexity is only claimed when the hypothesis holds."""
        return self.hypothesis_ok and self.convex_ok


def check_convexity(model: AnalyticModel, tolerance: float = 1e-10) -> ConvexityReport:
    """Scan second differences of A over the horizon.

    Convexity is guaranteed when zeta_1 < 2*zeta_2/3 and p, q <= 1/2 on the
    region phi*t <= 1/3 (which the tabulated horizon enforces); outside that
    hypothesis the scan still runs but the report flags the gate.
    """
    hypothesis_ok = (
        model.dist.zeta1_condition_ok
        and model.params.p <= 0.5
        and model.params.q <= 0.5
    )
    a = model.A
    second = a[2:] - 2.0 * a[1:-1] + a[:-2]
    bad = np.flatnonzero(second < -tolerance)
    violations = tuple((int(t + 1), float(second[t])) for t in bad)
    return ConvexityReport(hypothesis_ok, len(violations) == 0, violations, tolerance)


@dataclass(frozen=True)
class GrowthBoundReport:
    preconditions_ok: bool
    upper_ok: bool | None
    lower_applicable: bool
    lower_ok: bool | None
    pi_t: float
    pi_xt: float

    @property
    def ok(self) -> bool:
        if not self.preconditions_ok:
            return False
        return bool(self.upper_ok) and (not self.lower_applicable or bool(self.lower_ok))


def check_growth_bounds(params: TMParams, r: int, t: int, x: int) -> GrowthBoundReport:
    """Verify the horizon growth bounds relating pi_r(x*t) and pi_r(t).

    Requires t >= 4r, x >= 1 integer and phi*x*t <= 1/3; violations are
    reported, not raised.  The upper bound always applies; the reverse bound
    only when 3*x*(1-p) > 4.
    """
    pre_ok = (
        x >= 1
        and t >= 4 * r
        and params.phi * x * t <= 1.0 / 3.0
        and params.p >= params.q
    )
    value_t = pi_r(t, r, params)
    value_xt = pi_r(x * t, r, params)
    if not pre_ok:
        return GrowthBoundReport(False, None, False, None, value_t, value_xt)
    slack = 1.0 + 1e-12
    upper = value_xt <= 3.0 * (4.0 * x / (3.0 * (1.0 - params.p))) ** r * value_t * slack
    lower_applicable = 3.0 * x * (1.0 - params.p) > 4.0
    lower = None
    if lower_applicable:
        lower = value_t <= 4.0 * (4.0 / (3.0 * x * (1.0 - params.p))) ** r * value_xt * slack
    return GrowthBoundReport(True, bool(upper), lower_applicable, lower, value_t, value_xt)


@dataclass(frozen=True)
class CoinflipModel:
    """Coinflip dynamics: susceptible after s contacts, then coin z per contact.

    ``s_dist`` gives the law of the susceptibility count; ``z`` is either a
    single coin probability or a per-susceptibility-class mapping.  Every
    vertex is unconditionally infected at r_max contacts.
    """

    s_dist: Mapping[int, float]
    z: float | Mapping[int, float]
    r_max: int

    def __post_init__(self) -> None:
        if not self.s_dist:
            raise ValueError("susceptibility distribution is empty")
        if any(s < 0 for s in self.s_dist):
            raise ValueError("susceptibility counts must be >= 0")
        total = math.fsum(self.s_dist.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"susceptibility probabilities sum to {total!r}, not 1")
        if self.r_max <= max(self.s_dist):
            raise ValueError(
                f"forcing cap r_max={self.r_max} must exceed max susceptibility {max(self.s_dist)}"
            )
        for s in self.s_dist:
            z = self.z_for(s)
            if not 0.0 < z <= 1.0:
                raise ValueError(f"coin probability {z} for class s={s} outside (0, 1]")

    def z_for(self, s: int) -> float:
        if isinstance(self.z, Mapping):
            return float(self.z[s])
        return float(self.z)


def coinflip_reduce(cf: CoinflipModel) -> ThresholdDistribution:
    """Preflip the coins: reduce coinflip dynamics to a threshold distribution.

    A vertex of class s receives threshold s+j with probability
    (1-z)^(j-1) * z for 1 <= j < r_max - s, and the leftover geometric mass
    lands on the forcing cap r_max.
    """
    zeta = np.zeros(cf.r_max)
    for s, weight in sorted(cf.s_dist.items()):
        z = cf.z_for(s)
        stay = 1.0
        for j in range(1, cf.r_max - s):
            zeta[s + j - 1] += weight * stay * z
            stay *= 1.0 - z
        zeta[cf.r_max - 1] += weight * stay
    return ThresholdDistribution(tuple(zeta))


def t_star_lower_bound(model: AnalyticModel, beta: float) -> float:
    """Bottleneck lower bound beta*n / (2*k*(phi*eta)^2).

    beta must lie in (0, 1] and satisfy zeta_1 * eta * phi <= 1 - beta (the
    largest admissible beta is reported by the model's assumption report).
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta={beta} outside (0, 1]")
    params = model.params
    if model.dist.zeta[0] * params.expected_degree > 1.0 - beta + 1e-15:
        raise ValueError(
            f"beta={beta} inadmissible: zeta_1*eta*phi = "
            f"{model.dist.zeta[0] * params.expected_degree} exceeds 1 - beta"
        )
    return beta * params.n / (2.0 * params.k * params.expected_degree**2)
