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
binomial mass is computed in log space by one packed-triangle convolution
kernel, ``log_sum_row``, that sums each row in index order.  ``pi_r``
takes the tail sum directly when the head is close to 1, so a small
activation probability keeps full relative accuracy; the model's table
takes 1 minus the cumulative head, and so is accurate in absolute terms.

The kernel needs only numpy and the standard library.  Log factorials come
from one table of cephes ``lgam`` (the algorithm behind scipy's ``gammaln``)
evaluated with libm's ``math.log``, so they equal ``gammaln`` bit for bit;
numpy's SIMD ``np.log`` can differ from libm in the last bit.  The table
costs about 0.7 us of Python per entry, once per process.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import asdict, dataclass

import numpy as np

from .tmgraph import TMParams, ThresholdDistribution

__all__ = [
    "log_binom_row",
    "log_sum_row",
    "pi_r",
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
]

_NEG_INF = float("-inf")


# cephes lgam: log(sqrt(2*pi)) and its Stirling-series coefficients for x >= 13
_LS2PI = 0.91893853320467274178
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
             7.93650340457716943945e-4, -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_log_factorial_table = np.zeros(0)


def _lgam(x: float) -> float:
    """cephes lgam(x) at an integer x >= 1 with libm's log; cephes's 3-term
    series from x = 1000 gives the same doubles as these 5 terms to 2*10**6."""
    if x < 13.0:
        return math.log(float(math.factorial(int(x) - 1)))
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    p = 1.0 / (x * x)
    a0, a1, a2, a3, a4 = _STIRLING
    return q + ((((a0 * p + a1) * p + a2) * p + a3) * p + a4) / x


def _log_factorials(top: int) -> np.ndarray:
    """Read-only float64 table of log(m!) for m = 0..at least top.

    Kept per process and grown by doubling; each new entry is one scalar
    ``_lgam(m + 1)``, about 0.7 us, so a table to 10**4 costs about 7 ms.
    """
    global _log_factorial_table
    old = _log_factorial_table
    if top >= old.size:
        grown = np.empty(max(top + 1, 2 * old.size))
        grown[: old.size] = old
        grown[old.size :] = [_lgam(m + 1.0) for m in range(old.size, grown.size)]
        grown.flags.writeable = False
        _log_factorial_table = grown
    return _log_factorial_table


def _segment_logsumexp(a: np.ndarray, seg: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over runs of rows of the 2-D ``a``, in scipy 1.17's steps:
    run k starts at row ``starts[k]`` and ``seg`` is each row's run; tied maxima
    are counted apart, and ``bincount`` adds each (run, column) bin in row order."""
    a_max = np.maximum.reduceat(a, starts, axis=0)
    at_max = a == a_max[seg]
    m = np.add.reduceat(at_max, starts, axis=0, dtype=np.intp).astype(np.float64)
    shift = np.where(a_max == _NEG_INF, 0.0, a_max)  # an all -inf run sums to -inf
    x = np.exp(np.where(at_max, _NEG_INF, a) - shift[seg])
    bins = (seg * a.shape[1])[:, None] + np.arange(a.shape[1])
    s = np.bincount(bins.ravel(), weights=x.ravel(), minlength=a_max.size)
    return np.log1p(s.reshape(a_max.shape) / m) + np.log(m) + a_max


def log_binom_row(trials: np.ndarray | int, prob: float, j_max: int) -> np.ndarray:
    """log pmf of Bin(trials, prob) at 0..j_max, vectorized over a trials array.

    Returns shape (j_max+1,) for scalar trials, else (j_max+1, len(trials)).
    The log factorials are read from ``_log_factorials``, the cephes ``lgam``
    table that matches scipy's ``gammaln`` bit for bit.
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
        lf = _log_factorials(max(j_max, int(t.max(initial=0))))
        out = (lf[t] - lf[: j_max + 1, None] - lf[np.maximum(t - j, 0)]
               + j * math.log(prob) + (t - j) * math.log1p(-prob))
        out[j > t] = _NEG_INF
    return out[:, 0] if scalar else out


def log_sum_row(t: np.ndarray | int, params: TMParams, j_max: int) -> np.ndarray:
    """log Pr[Bin(k_p*t, p) + Bin(k_q*t, q) = j] for j = 0..j_max.

    The row is one log-convolution over the packed lower triangle i <= j:
    row j holds log_b[i] + log_c[j-i] for i = 0..j contiguously and is summed
    in index order, so it never depends on j_max, and the scalar form equals
    each column of the array form bit for bit.  That is (j_max+1)(j_max+2)/2
    terms per column; pi_r's full-support fallback can pass j_max up to
    (k_p + k_q) * t.  Like ``log_binom_row``, a t array adds a trailing axis:
    the result is (j_max+1,) for scalar t, else (j_max+1, len(t)).
    """
    log_b = log_binom_row(params.k_p * t, params.p, j_max)
    log_c = log_binom_row(params.k_q * t, params.q, j_max)
    j = np.arange(j_max + 1)
    starts = j * (j + 1) // 2
    seg = np.repeat(j, j + 1)
    i = np.arange(seg.size) - starts[seg]
    out = _segment_logsumexp((log_b[i] + log_c[seg - i]).reshape(seg.size, -1), seg, starts)
    return out[:, 0] if log_b.ndim == 1 else out


def pi_r(t: int, r: int, params: TMParams) -> float:
    """Pr[Bin(k_p*t, p) + Bin(k_q*t, q) >= r]; relative accuracy on both tails.

    The complement of the sum over j < r is used when the result is large;
    otherwise the tail over j >= r, read from the same kernel row, is summed
    directly so tiny activation probabilities are not lost to cancellation.
    """
    if t < 0:
        raise ValueError(f"generation t={t} must be non-negative")
    if r < 1:
        raise ValueError(f"threshold r={r} must be >= 1")
    total_trials = (params.k_p + params.k_q) * t
    if r > total_trials:
        return 0.0
    # a tail is summed only if Pr[sum >= r] < 1/2, which puts the mean below r + 1,
    # so a larger mean would only lengthen the row the head reads
    mean = min(params.phi * t, r + 1.0)
    j_cap = int(min(total_trials, max(r + 80, math.ceil(4 * mean) + 80)))
    mass = np.exp(log_sum_row(t, params, j_cap))
    head = float(mass[:r].sum())
    if 1.0 - head >= 0.5:
        return 1.0 - head
    tail = float(mass[r:].sum())
    if j_cap < total_trials and mass[-1] > tail * 1e-17:
        # decay stalled before the cap; fall back to the full support
        tail = float(np.exp(log_sum_row(t, params, total_trials)[r:]).sum())
    return tail


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
        return {**asdict(self), "within_theory": self.within_theory}


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


# the TMParams fields that log_sum_row reads: the key of the activation basis
_EdgeLaw = namedtuple("_EdgeLaw", "k_p k_q p q")


@functools.lru_cache(maxsize=32)
def _activation_basis(law: _EdgeLaw, r_max: int, t_hi: int) -> np.ndarray:
    """Read-only (r_max, t_hi+1) array of pi_r(t) in row r-1, for t = 0..t_hi.

    It depends on neither n nor the threshold law, so models share it.
    """
    t_arr = np.arange(t_hi + 1, dtype=np.int64)
    log_d = log_sum_row(t_arr, law, r_max - 1)
    head = np.cumsum(np.exp(log_d), axis=0)  # head[j] = Pr[sum <= j]
    pi = np.clip(1.0 - head, 0.0, 1.0)  # row r-1 holds pi_r = 1 - head[r-1]
    total_trials = (law.k_p + law.k_q) * t_arr
    for i in range(r_max):
        pi[i, total_trials < i + 1] = 0.0  # threshold above the trial count
    pi.flags.writeable = False
    return pi


class AnalyticModel:
    """Precomputed activation table for one (params, distribution) pair.

    ``t_max`` is the admissible horizon floor(1/(3*phi)), or None when the
    graph has no edges (phi = 0, infinite horizon, activation identically 0).
    The table is only materialized up to min(t_max, floor(n/k) + 1): beyond
    n/k the deficiency f is negative for every seed size, so no query needs
    larger t.  The table is zeta @ pi over a read-only pi_r(t) basis shared by
    every model with the same (k_p, k_q, p, q, r_max, horizon).  Instances
    are immutable after construction and safe to share.
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
        params = self.params
        law = _EdgeLaw(params.k_p, params.k_q, params.p, params.q)
        table = self.dist.as_array() @ _activation_basis(law, self.dist.r_max, t_hi)
        table[0] = 0.0
        return table


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
    A(t) = 1 needs only k*t <= n, which the horizon check below ensures.
    The critical seed is the largest of those roots rounded up (0 when every
    A(t) = 1), capped at n.  The minimizing t is found by full scan of the
    table; ties break to the smallest t.
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
    below = a_arr < 1.0
    roots = (k * t_arr[below] - n * a_arr[below]) / (1.0 - a_arr[below])
    phi_star = min(n, math.ceil(roots.max(initial=0.0)))
    curve = (n - phi_star) * a_arr - k * t_arr + phi_star
    t_star = int(t_arr[int(np.argmin(curve))])
    return CriticalResult(phi_star, t_star, model.assumptions, model.t_max)


@dataclass(frozen=True)
class ConvexityReport:
    hypothesis_ok: bool
    convex_ok: bool
    violations: tuple[tuple[int, float], ...]
    tolerance: float


def check_convexity(model: AnalyticModel, tolerance: float = 1e-10) -> ConvexityReport:
    """Scan second differences of A over the horizon.

    Convexity is guaranteed when zeta_1 < 2*zeta_2/3 and p, q <= 1/2 on the
    region phi*t <= 1/3 (which the tabulated horizon enforces); outside that
    hypothesis the scan still runs but the report flags the gate.
    """
    hypothesis_ok = model.assumptions.zeta1_condition_ok and model.assumptions.probabilities_small
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
    value_xt = value_t if x == 1 else pi_r(x * t, r, params)
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

    Every vertex turns susceptible after ``s`` contacts; each later contact
    infects it with probability ``z``, and r_max contacts infect it
    unconditionally.
    """

    s: int
    z: float
    r_max: int

    def __post_init__(self) -> None:
        if self.s < 0:
            raise ValueError(f"susceptibility count s={self.s} must be >= 0")
        if self.r_max <= self.s:
            raise ValueError(f"forcing cap r_max={self.r_max} must exceed susceptibility s={self.s}")
        if not 0.0 < self.z <= 1.0:
            raise ValueError(f"coin probability {self.z} outside (0, 1]")


def coinflip_reduce(cf: CoinflipModel) -> ThresholdDistribution:
    """Preflip the coins: reduce coinflip dynamics to a threshold distribution.

    A vertex receives threshold s+j with probability (1-z)^(j-1) * z for
    1 <= j < r_max - s, and the leftover geometric mass lands on the
    forcing cap r_max.
    """
    zeta = np.zeros(cf.r_max)
    stay = 1.0
    for j in range(1, cf.r_max - cf.s):
        zeta[cf.s + j - 1] = stay * cf.z
        stay *= 1.0 - cf.z
    zeta[cf.r_max - 1] = stay
    return ThresholdDistribution(tuple(zeta))
