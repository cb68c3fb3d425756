"""Mid-percolation interventions: residual estimation, surrogate graphs,
success prediction, and live application inside a simulation.

At the trigger generation the healthy population carries residual state: a
healthy vertex with threshold r and a infected neighbors behaves like a
fresh vertex with threshold r - a.  From the aggregate counts |I(tau)|,
|I(tau-1)| and |H(r)| alone, the distribution of a (split into near/far
exposure on clustered graphs) is computable, which turns the intervened
process into a fresh percolation instance on the healthy population whose
critical seed size decides success.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .analytic import (
    AnalyticModel,
    critical_seed,
    log_binom_row,
)
from .engine import EngineConfig, PercolationTrace, StandardRun
from .tmgraph import SampledGraph, TMParams, ThresholdDistribution

__all__ = [
    "Bolster",
    "Delay",
    "Diminish",
    "Sequester",
    "InterventionSpec",
    "ObservedState",
    "ResidualProfile",
    "SurrogateSpec",
    "Verdict",
    "bolster_a",
    "bolster_b",
    "delay_to_bolster",
    "residual_tm",
    "build_profile",
    "thin_residual",
    "build_surrogate",
    "predict",
    "run_to_trigger",
    "snapshot_observed",
    "apply_in_simulation",
    "boundary_scan",
]

_TRUNCATION_EPS = 1e-15
_DECAY_SLACK = 1.0 + 1e-9


# ---------------------------------------------------------------------------
# intervention variants


@dataclass(frozen=True)
class Bolster:
    """Reassign each still-undecided healthy vertex a new threshold.

    ``zeta_prime[r]`` is the distribution of the new threshold for old
    threshold r, supported on [r, r_max_prime]; ``allow_weaken`` relaxes the
    support to [2, r_max_prime] (which voids the surrogate's threshold-1
    guarantee), ``save_vertices`` applies the reassignment before the
    trigger generation's infection step so doomed vertices can be rescued.
    """

    zeta_prime: Mapping[int, Mapping[int, float]]
    allow_weaken: bool = False
    save_vertices: bool = False

    def __post_init__(self) -> None:
        for r, law in self.zeta_prime.items():
            if not law:
                raise ValueError(f"empty reassignment law for threshold {r}")
            total = math.fsum(law.values())
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"reassignment law for r={r} sums to {total!r}")
            floor = 2 if self.allow_weaken else r
            bad = [v for v, w in law.items() if w > 0 and v < floor]
            if bad:
                raise ValueError(
                    f"reassignment law for r={r} puts mass below {floor}: {sorted(bad)}"
                )

    @property
    def r_max_prime(self) -> int:
        return max(v for law in self.zeta_prime.values() for v, w in law.items() if w > 0)


@dataclass(frozen=True)
class Delay:
    """Lower the coin probability to z_prime for the rest of the run.

    Equivalent to a geometric bolster: old threshold r maps to j >= r with
    probability (1-z')^(j-r) * z', leftover mass on the cap r_max_prime.
    """

    z_prime: float
    r_max_prime: int

    def __post_init__(self) -> None:
        if not 0.0 < self.z_prime <= 1.0:
            raise ValueError(f"z_prime={self.z_prime} outside (0, 1]")
        if self.r_max_prime < 1:
            raise ValueError("r_max_prime must be >= 1")


@dataclass(frozen=True)
class Diminish:
    """Delete every near edge w.p. 1-alpha_p and far edge w.p. 1-alpha_q."""

    alpha_p: float
    alpha_q: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha_p <= 1.0 and 0.0 <= self.alpha_q <= 1.0):
            raise ValueError("retention probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class Sequester(Diminish):
    """Like Diminish, but only edges incident to an infected vertex are at risk."""


Variant = Bolster | Delay | Diminish | Sequester


@dataclass(frozen=True)
class InterventionSpec:
    """A variant plus the trigger fraction lambda (intervene once |I| > lambda*n)."""

    variant: Variant
    trigger_fraction: float

    def __post_init__(self) -> None:
        if not 0.0 < self.trigger_fraction < 1.0:
            raise ValueError(f"trigger fraction {self.trigger_fraction} outside (0, 1)")


def bolster_a(alpha: float, thresholds: tuple[int, ...]) -> Bolster:
    """Raise by one w.p. alpha, by two w.p. 1-alpha (strategy A of the sweeps)."""
    law = {
        r: {v: w for v, w in {r + 1: alpha, r + 2: 1.0 - alpha}.items() if w > 0}
        for r in thresholds
    }
    return Bolster(law)


def bolster_b(alpha: float, thresholds: tuple[int, ...]) -> Bolster:
    """Raise by one w.p. (1+alpha)/2, by three w.p. (1-alpha)/2 (strategy B).

    Matches strategy A's expected new threshold r + 2 - alpha while spreading
    the mass two apart.
    """
    law = {
        r: {
            v: w
            for v, w in {r + 1: 0.5 + alpha / 2.0, r + 3: 0.5 - alpha / 2.0}.items()
            if w > 0
        }
        for r in thresholds
    }
    return Bolster(law)


def delay_to_bolster(delay: Delay, thresholds: tuple[int, ...]) -> Bolster:
    """Expand a coin-probability cut into its geometric threshold reassignment."""
    z = delay.z_prime
    law: dict[int, dict[int, float]] = {}
    for r in thresholds:
        cap = max(delay.r_max_prime, r)
        inner: dict[int, float] = {}
        stay = 1.0
        for j in range(r, cap):
            inner[j] = stay * z
            stay *= 1.0 - z
        inner[cap] = inner.get(cap, 0.0) + stay
        law[r] = inner
    return Bolster(law)


# ---------------------------------------------------------------------------
# observed state and residual profiles


@dataclass(frozen=True)
class ObservedState:
    """Aggregate counts available at the trigger generation.

    ``i_cur``/``i_prev`` are the infected totals after the triggering
    generation and the one before; the per-cluster arrays split them.
    ``healthy_by_threshold`` maps r to |H(r)| over the currently healthy.
    """

    n: int
    k: int
    i_cur: int
    i_prev: int
    i_cur_cluster: tuple[int, ...]
    i_prev_cluster: tuple[int, ...]
    healthy_by_threshold: Mapping[int, int]
    tau: int

    def __post_init__(self) -> None:
        if self.i_prev > self.i_cur:
            raise ValueError("infected counts must be non-decreasing")
        if sum(self.i_cur_cluster) != self.i_cur or sum(self.i_prev_cluster) != self.i_prev:
            raise ValueError("per-cluster counts must sum to the totals")
        if sum(self.healthy_by_threshold.values()) + self.i_cur != self.n:
            raise ValueError("healthy plus infected must cover every vertex")

    @property
    def healthy_total(self) -> int:
        return self.n - self.i_cur


def snapshot_observed(run: StandardRun) -> ObservedState:
    prev = int(run.totals[-2]) if len(run.totals) >= 2 else 0
    prev_cluster = (
        run.per_cluster[-2] if len(run.per_cluster) >= 2 else np.zeros(run.g.k, dtype=np.int64)
    )
    healthy_thr = run.thresholds[~run.infected]
    values, counts = np.unique(healthy_thr, return_counts=True)
    return ObservedState(
        n=run.g.n,
        k=run.g.k,
        i_cur=int(run.totals[-1]),
        i_prev=prev,
        i_cur_cluster=tuple(int(c) for c in run.per_cluster[-1]),
        i_prev_cluster=tuple(int(c) for c in prev_cluster),
        healthy_by_threshold={int(v): int(c) for v, c in zip(values, counts)},
        tau=run.generation,
    )


def _pmf_row(trials: int, prob: float) -> tuple[np.ndarray, float]:
    """Binomial pmf over 0..trials covering all but ~1e-15 mass; returns (row, dropped)."""
    if trials <= 0 or prob <= 0.0:
        return np.array([1.0]), 0.0
    mean = trials * prob
    soft = int(min(trials, math.ceil(mean + 12.0 * math.sqrt(mean + 1.0) + 30.0)))
    row = np.exp(log_binom_row(trials, prob, soft))
    covered = float(row.sum())
    if covered < 1.0 - _TRUNCATION_EPS and soft < trials:
        row = np.exp(log_binom_row(trials, prob, trials))
        covered = float(row.sum())
    dropped = max(0.0, 1.0 - covered)
    # trim a trailing sliver of sub-threshold entries to keep supports small
    keep = max(np.flatnonzero(row > _TRUNCATION_EPS * row.max()), default=0)
    row = row[: int(keep) + 1]
    if dropped > 0.0 or row.sum() != 1.0:
        row = row / row.sum()
    return row, dropped


def residual_tm(
    observed: ObservedState, r: int, params: TMParams, cluster: int
) -> tuple[np.ndarray, float]:
    """Joint law of (near, far) infected-neighbor counts for a healthy vertex.

    The exposure to I(tau-1) is a pair of binomials jointly conditioned on
    total at most r-1 (the vertex survived); fresh exposure to I(tau) -
    I(tau-1) convolves in independently.  Returns the 2D array indexed by
    (near count b, far count c) and the binomial tail mass truncated from
    the fresh exposure.  On a single cluster column 0 is the exposure law.
    """
    near_set = params.template.neighbors[cluster]
    m_near = sum(observed.i_prev_cluster[i] for i in near_set)
    m_far = observed.i_prev - m_near
    cur_near = sum(observed.i_cur_cluster[i] for i in near_set)
    d_near = cur_near - m_near
    d_far = (observed.i_cur - observed.i_prev) - d_near
    log_b = log_binom_row(m_near, params.p, r - 1)
    log_c = log_binom_row(m_far, params.q, r - 1)
    prior = np.exp(log_b[:, None] + log_c[None, :])
    mask = np.add.outer(np.arange(r), np.arange(r)) <= r - 1
    prior = np.where(mask, prior, 0.0)
    total = prior.sum()
    if total <= 0.0:
        raise ValueError("survival constraint has zero probability mass")
    prior /= total
    fresh_near, drop_b = _pmf_row(d_near, params.p)
    fresh_far, drop_c = _pmf_row(d_far, params.q)
    out = np.zeros((r + fresh_near.size - 1, r + fresh_far.size - 1))
    for d in range(r):
        for e in range(r - d):
            w = prior[d, e]
            if w > 0.0:
                out[d : d + fresh_near.size, e : e + fresh_far.size] += w * np.outer(
                    fresh_near, fresh_far
                )
    return out, drop_b + drop_c


@dataclass
class ResidualProfile:
    """Residual exposure laws per threshold, averaged over clusters.

    ``joints[r][b, c]`` is Pr[near = b, far = c | healthy, threshold r];
    ``weights[r]`` is |H(r)| / |H|.  ``gate_ok`` records whether the trigger
    happened early enough (|I(tau)| < k / (3*phi)) for the geometric-decay
    guarantee to apply; violations of that decay in the threshold-mixture
    marginal are stored regardless.
    """

    joints: dict[int, np.ndarray]
    weights: dict[int, float]
    gate_ok: bool
    dropped_mass: float
    cluster_tv_max: float

    def marginal(self, r: int) -> np.ndarray:
        return _marginal(self.joints[r])

    def mixture_marginal(self) -> np.ndarray:
        out = np.zeros(0)
        for r in self.joints:
            out = _padded_add(out, self.weights[r] * self.marginal(r))
        return out

    def decay_violations(self) -> list[tuple[int, float]]:
        """Indices a where Pr[H_{a+1}] fails to drop below (2/3) Pr[H_a]."""
        marg = self.mixture_marginal()
        bad: list[tuple[int, float]] = []
        for a in range(marg.size - 1):
            if marg[a + 1] <= 1e-250:
                continue
            if marg[a] <= 0.0:
                bad.append((a, math.inf))
            elif marg[a + 1] >= (2.0 / 3.0) * marg[a] * _DECAY_SLACK:
                bad.append((a, marg[a + 1] / marg[a]))
        return bad


def _marginal(joint: np.ndarray) -> np.ndarray:
    """Law of near + far exposure from a (near, far) joint."""
    idx = np.add.outer(np.arange(joint.shape[0]), np.arange(joint.shape[1]))
    return np.bincount(idx.ravel(), weights=joint.ravel())


def _padded_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b after zero-padding both to their common n-d bounding shape."""
    out = np.zeros(np.maximum(a.shape, b.shape))
    out[tuple(slice(size) for size in a.shape)] += a
    out[tuple(slice(size) for size in b.shape)] += b
    return out


def build_profile(observed: ObservedState, params: TMParams) -> ResidualProfile:
    """Residual profile averaged over clusters with healthy-count weights."""
    healthy = observed.healthy_total
    if healthy <= 0:
        raise ValueError("no healthy vertices left to profile")
    weights = {
        r: count / healthy for r, count in sorted(observed.healthy_by_threshold.items())
    }
    eta = params.n / params.k
    healthy_per_cluster = np.array(
        [eta - observed.i_cur_cluster[i] for i in range(params.k)], dtype=float
    )
    healthy_per_cluster = np.maximum(healthy_per_cluster, 0.0)
    cluster_weight = healthy_per_cluster / healthy_per_cluster.sum()
    joints: dict[int, np.ndarray] = {}
    per_cluster_mixtures: list[np.ndarray] = []
    dropped = 0.0
    for cluster in range(params.k):
        mixture = np.zeros(0)
        for r in weights:
            joint, drop = residual_tm(observed, r, params, cluster)
            dropped = max(dropped, drop)
            share = cluster_weight[cluster] * joint
            joints[r] = _padded_add(joints.get(r, np.zeros((0, 0))), share)
            mixture = _padded_add(mixture, weights[r] * _marginal(joint))
        per_cluster_mixtures.append(mixture)
    tv_max = 0.0
    for a, b in itertools.combinations(per_cluster_mixtures, 2):
        tv_max = max(tv_max, 0.5 * float(np.abs(_padded_add(a, -b)).sum()))
    phi_edge = params.phi
    gate_ok = phi_edge > 0 and observed.i_cur < params.k / (3.0 * phi_edge)
    return ResidualProfile(
        joints=joints,
        weights=weights,
        gate_ok=gate_ok,
        dropped_mass=dropped,
        cluster_tv_max=tv_max,
    )


def thin_residual(profile: ResidualProfile, alpha_p: float, alpha_q: float) -> ResidualProfile:
    """Push the profile through independent edge retention.

    Each near exposure survives w.p. alpha_p and each far exposure w.p.
    alpha_q, so the new joint is the old one filtered through binomial
    thinning matrices; the sums are exact because the support is finite.
    """
    new_joints: dict[int, np.ndarray] = {}
    for r, joint in profile.joints.items():
        rows, cols = joint.shape
        t_near = _thinning_matrix(rows, alpha_p)
        t_far = _thinning_matrix(cols, alpha_q)
        new_joints[r] = t_near @ joint @ t_far.T
    return ResidualProfile(
        joints=new_joints,
        weights=dict(profile.weights),
        gate_ok=profile.gate_ok,
        dropped_mass=profile.dropped_mass,
        cluster_tv_max=profile.cluster_tv_max,
    )


def _thinning_matrix(size: int, alpha: float) -> np.ndarray:
    """T[b, d] = Pr[Bin(d, alpha) = b] for 0 <= b, d < size."""
    return np.exp(log_binom_row(np.arange(size), alpha, size - 1))


# ---------------------------------------------------------------------------
# surrogate construction and prediction


@dataclass(frozen=True)
class SurrogateSpec:
    """Derived percolation instance on the healthy population.

    ``j[s-1]`` is the residual-threshold mass j_s; the doomed healthy mass
    1 - sum(j) becomes the seed count.  ``params`` carries the surrogate's
    edge probabilities (thinned for Diminish, original otherwise).
    """

    j: np.ndarray
    seed_count: float
    params: TMParams
    healthy_total: int
    flags: dict

    def __post_init__(self) -> None:
        balance = self.seed_count / self.healthy_total + float(self.j.sum())
        if abs(balance - 1.0) > 1e-9:
            raise ValueError(f"mass balance violated: {balance!r} != 1")

    @property
    def j_decay_ok(self) -> bool:
        j1 = float(self.j[0]) if self.j.size >= 1 else 0.0
        j2 = float(self.j[1]) if self.j.size >= 2 else 0.0
        return j1 == 0.0 or j1 < (2.0 / 3.0) * j2


def build_surrogate(
    observed: ObservedState,
    variant: Variant,
    params: TMParams,
    profile: ResidualProfile | None = None,
) -> SurrogateSpec:
    """Residual-threshold law of the healthy population after the intervention.

    A healthy vertex with old threshold r and exposure a < r draws new
    threshold r' from the variant's law and lands at residual threshold
    s = r' - a; exposure a >= r means the vertex is already doomed and joins
    the seed mass.  Delay is its geometric Bolster.  Diminish and Sequester
    thin the residual exposures by the retention rates and keep every
    threshold (the identity law); only Diminish also thins the surrogate's
    future edges, since Sequester spares healthy-healthy edges.
    """
    if not isinstance(variant, (Bolster, Delay, Diminish)):
        raise TypeError(f"unknown intervention variant {variant!r}")
    profile = profile or build_profile(observed, params)
    flags = {
        "too_late": not profile.gate_ok,
        "profile_decay_violations": len(profile.decay_violations()) if profile.gate_ok else 0,
        "cluster_tv_max": profile.cluster_tv_max,
        "cluster_heterogeneous": profile.cluster_tv_max > 0.05,
    }
    p, q = params.p, params.q
    if isinstance(variant, Delay):
        variant = delay_to_bolster(variant, tuple(sorted(observed.healthy_by_threshold)))
    if isinstance(variant, Bolster):
        flags["modification2"] = variant.allow_weaken
        bolster = variant
    else:
        if not isinstance(variant, Sequester):
            p, q = variant.alpha_p * p, variant.alpha_q * q
        profile = thin_residual(profile, variant.alpha_p, variant.alpha_q)
        bolster = Bolster({r: {r: 1.0} for r in profile.weights})
    j = np.zeros(bolster.r_max_prime)
    for r, weight in profile.weights.items():
        if weight <= 0.0:
            continue
        try:
            law = bolster.zeta_prime[r]
        except KeyError:
            raise KeyError(f"no reassignment law for observed threshold {r}") from None
        marg = profile.marginal(r)
        a_limit = marg.size if bolster.save_vertices else min(r, marg.size)
        for a in range(a_limit):
            mass = weight * marg[a]
            if mass <= 0.0:
                continue
            for new_r, prob in law.items():
                s = new_r - a
                if s >= 1 and prob > 0.0:
                    j[s - 1] += mass * prob
    healthy = observed.healthy_total
    seed = healthy * max(0.0, 1.0 - float(j.sum()))
    j_params = TMParams(params.template, healthy, p, q, allow_fractional_clusters=True)
    return SurrogateSpec(j, seed, j_params, healthy, flags)


PREDICTED_HALT = "predicted-halt"
PREDICTED_SPREAD = "predicted-spread"
UNCERTAIN = "uncertain-band"


@dataclass(frozen=True)
class Verdict:
    """Prediction for one intervention: seed count against the critical band."""

    outcome: str
    phi_J: float
    Phi_J: int | None
    t_star_J: int | None
    band: tuple[float, float]
    epsilon: float
    flags: dict


def predict(surrogate: SurrogateSpec, epsilon: float = 0.1) -> Verdict:
    """Decide halt/spread by placing phi_J against (1 +/- epsilon) * Phi_J."""
    flags = dict(surrogate.flags)
    flags["j_decay_ok"] = surrogate.j_decay_ok
    total = float(surrogate.j.sum())
    if total <= 1e-12:
        # every healthy vertex is doomed; the surrogate is all seed
        flags["degenerate_all_seed"] = True
        return Verdict(
            PREDICTED_SPREAD,
            surrogate.seed_count,
            0,
            None,
            (0.0, 0.0),
            epsilon,
            flags,
        )
    dist = ThresholdDistribution(tuple(surrogate.j / total))
    model = AnalyticModel(surrogate.params, dist)
    result = critical_seed(model)
    flags["within_theory"] = result.assumptions.within_theory and surrogate.j_decay_ok
    phi_j = surrogate.seed_count
    if result.phi_critical is None:
        # subcritical for every seed size up to n_J
        return Verdict(
            PREDICTED_HALT, phi_j, None, None, (math.inf, math.inf), epsilon, flags
        )
    band = ((1.0 - epsilon) * result.phi_critical, (1.0 + epsilon) * result.phi_critical)
    if phi_j < band[0]:
        outcome = PREDICTED_HALT
    elif phi_j > band[1]:
        outcome = PREDICTED_SPREAD
    else:
        outcome = UNCERTAIN
    return Verdict(
        outcome, phi_j, result.phi_critical, result.t_star, band, epsilon, flags
    )


# ---------------------------------------------------------------------------
# live application


def run_to_trigger(
    g: SampledGraph,
    thresholds: np.ndarray,
    seeds: np.ndarray,
    spec: InterventionSpec,
    config: EngineConfig | None = None,
) -> tuple[StandardRun, bool]:
    """Drive a run until the infected count first exceeds lambda * n.

    Returns (run, triggered).  A triggered run is paused at the trigger or
    has already spread past it; an untriggered run carries its verdict (the
    baseline finished at or below the trigger line).
    """
    run = StandardRun(g, thresholds, seeds, config)
    trigger_at = spec.trigger_fraction * g.n
    # a modification that rescues doomed vertices must fire before the
    # crossing generation commits, so it peeks one step ahead
    peek = isinstance(spec.variant, Bolster) and spec.variant.save_vertices
    while run.verdict is None:
        if run.totals[-1] + (run._candidates().size if peek else 0) > trigger_at:
            return run, True
        run.step()
    return run, run.totals[-1] > trigger_at


def apply_in_simulation(
    run: StandardRun, spec: InterventionSpec, rng: np.random.Generator
) -> "PercolationTrace":
    """Mutate a triggered run according to the variant and finish it."""
    variant = spec.variant
    if isinstance(variant, Delay):
        thresholds = tuple(sorted(np.unique(run.thresholds[~run.infected]).tolist()))
        variant = delay_to_bolster(variant, thresholds)
    if isinstance(variant, Bolster):
        _apply_bolster(run, variant, rng)
    elif isinstance(variant, Diminish):
        _apply_edge_removal(run, variant, rng)
    else:
        raise TypeError(f"unknown intervention variant {variant!r}")
    run.finish()
    return run.trace()


def _apply_bolster(run: StandardRun, bolster: Bolster, rng: np.random.Generator) -> None:
    exposure = run.current_exposure()
    healthy = ~run.infected
    if bolster.save_vertices:
        eligible = healthy
    else:
        eligible = healthy & (exposure < run.thresholds)
    for r in np.unique(run.thresholds[eligible]):
        law = bolster.zeta_prime.get(int(r))
        if law is None:
            raise KeyError(f"no reassignment law for threshold {int(r)}")
        ids = np.flatnonzero(eligible & (run.thresholds == r))
        values = np.array(sorted(law), dtype=np.int64)
        probs = np.array([law[int(v)] for v in values])
        run.thresholds[ids] = rng.choice(values, size=ids.size, p=probs / probs.sum())


def _apply_edge_removal(run: StandardRun, variant: Diminish, rng: np.random.Generator) -> None:
    """Drop edges at the variant's retention rates; Sequester spares healthy-healthy edges."""
    g = run.g
    if g.num_edges == 0:
        return
    retain_prob = np.where(g.edge_is_near(), variant.alpha_p, variant.alpha_q)
    keep = rng.random(g.num_edges) < retain_prob
    if isinstance(variant, Sequester):
        keep |= ~(run.infected[g.edge_u] | run.infected[g.edge_v])
    run.replace_graph(g.subgraph(keep))


def boundary_scan(
    observed: ObservedState,
    variant: Variant,
    params: TMParams,
    lo_frac: float = 0.001,
    hi_frac: float = 0.6,
) -> float:
    """Hypothetical |I(tau)| at which the intervention sits exactly at Phi_J.

    Holds the observed growth |I(tau)| - |I(tau-1)| and the cluster and
    threshold proportions fixed while scaling the infected count; bisects on
    the sign of phi_J - Phi_J (the epsilon = 0 surface).  Returns NaN when
    no crossing lies inside the scanned range.
    """
    delta = observed.i_cur - observed.i_prev

    def excess(i_cur: int) -> float:
        hypo = _scaled_state(observed, i_cur, delta)
        surr = build_surrogate(hypo, variant, params)
        verdict = predict(surr, epsilon=0.0)
        if verdict.Phi_J is None:
            return -math.inf
        return verdict.phi_J - verdict.Phi_J

    lo = max(delta, int(lo_frac * observed.n), 1)
    hi = min(int(hi_frac * observed.n), observed.n - 1)
    if lo >= hi:
        return math.nan
    f_lo, f_hi = excess(lo), excess(hi)
    if f_lo > 0 or f_hi < 0:
        return math.nan
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if excess(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _scaled_state(observed: ObservedState, i_cur: int, delta: int) -> ObservedState:
    i_prev = max(0, i_cur - delta)
    cur_cluster = _proportional(observed.i_cur_cluster, i_cur)
    prev_cluster = _proportional(observed.i_prev_cluster if observed.i_prev else observed.i_cur_cluster, i_prev)
    healthy_total = observed.n - i_cur
    shares = observed.healthy_by_threshold
    healthy = _proportional_map(shares, healthy_total)
    return ObservedState(
        n=observed.n,
        k=observed.k,
        i_cur=i_cur,
        i_prev=i_prev,
        i_cur_cluster=cur_cluster,
        i_prev_cluster=prev_cluster,
        healthy_by_threshold=healthy,
        tau=observed.tau,
    )


def _proportional(counts: tuple[int, ...], total: int) -> tuple[int, ...]:
    base = sum(counts)
    if base == 0:
        k = len(counts)
        out = [total // k] * k
    else:
        out = [int(round(c * total / base)) for c in counts]
    return tuple(_settle_residual(out, total))


def _proportional_map(shares: Mapping[int, int], total: int) -> dict[int, int]:
    base = sum(shares.values())
    keys = sorted(shares)
    out = [int(round(shares[r] * total / base)) for r in keys]
    return dict(zip(keys, _settle_residual(out, total)))


def _settle_residual(out: list[int], total: int) -> list[int]:
    """Make the rounded shares sum to ``total``, largest share first.

    A surplus goes to the largest entry (the first one on ties); a deficit is
    taken from the largest entries in turn, never driving one below 0.
    """
    residual = total - sum(out)
    for i in sorted(range(len(out)), key=lambda i: -out[i]):
        change = max(residual, -out[i])
        out[i] += change
        residual -= change
    return out
