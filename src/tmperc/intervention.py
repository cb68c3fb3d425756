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
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .analytic import AnalyticModel, CoinflipModel, coinflip_reduce, critical_seed, log_binom_row
from .engine import PercolationTrace, StandardRun
from .tmgraph import SampledGraph, TMParams, ThresholdDistribution, check_law

__all__ = [
    "Bolster",
    "Diminish",
    "Sequester",
    "ObservedState",
    "ResidualProfile",
    "SurrogateSpec",
    "Verdict",
    "bolster_a",
    "bolster_b",
    "delay",
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
    trigger generation's infection step so doomed vertices can be rescued
    (and ``run_to_trigger`` pauses one generation early).  ``apply`` draws
    the new thresholds in a run paused at the trigger.
    """

    zeta_prime: Mapping[int, Mapping[int, float]]
    allow_weaken: bool = False
    save_vertices: bool = False

    def __post_init__(self) -> None:
        for r, law in self.zeta_prime.items():
            check_law(law, f"reassignment law for r={r}")
            floor = 2 if self.allow_weaken else r
            bad = [v for v, w in law.items() if w > 0 and v < floor]
            if bad:
                raise ValueError(
                    f"reassignment law for r={r} puts mass below {floor}: {sorted(bad)}"
                )

    @property
    def r_max_prime(self) -> int:
        return max(v for law in self.zeta_prime.values() for v, w in law.items() if w > 0)

    def apply(self, run: StandardRun, rng: np.random.Generator) -> None:
        """Draw new thresholds for a paused run's healthy vertices, or only its undoomed ones."""
        eligible = ~run.infected
        if not self.save_vertices:
            eligible &= run.current_exposure() < run.thresholds
        ids = np.flatnonzero(eligible)
        old = run.thresholds[ids]  # each vertex draws once, by its threshold at the pause
        for r in np.flatnonzero(np.bincount(old)):
            law = self.zeta_prime.get(int(r))
            if law is None:
                raise KeyError(f"no reassignment law for threshold {int(r)}")
            group = ids[old == r]
            values = np.array(sorted(law), dtype=np.int64)
            probs = np.array([law[int(v)] for v in values])
            run.reassign(group, rng.choice(values, size=group.size, p=probs / probs.sum()))


@dataclass(frozen=True)
class Diminish:
    """Delete every near edge w.p. 1-alpha_p and far edge w.p. 1-alpha_q.

    ``apply`` acts on a run paused at the trigger.  ``save_vertices`` is a
    class constant, not a field: edges go only after the crossing generation
    commits, so no doomed vertex is rescued and no pause comes early.
    """

    alpha_p: float
    alpha_q: float
    save_vertices = False

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha_p <= 1.0 and 0.0 <= self.alpha_q <= 1.0):
            raise ValueError("retention probabilities must lie in [0, 1]")

    def apply(self, run: StandardRun, rng: np.random.Generator) -> None:
        """Drop a paused run's edges; Sequester spares healthy-healthy ones."""
        g = run.g
        draw = rng.random(g.num_edges)
        keep = np.less(draw, self.alpha_p, out=draw < self.alpha_q, where=g.edge_is_near())
        del draw
        if isinstance(self, Sequester):
            keep |= ~(run.infected[g.edge_u] | run.infected[g.edge_v])
        run.replace_graph(g.subgraph(keep))


@dataclass(frozen=True)
class Sequester(Diminish):
    """Like Diminish, but only edges incident to an infected vertex are at risk."""


Variant = Bolster | Diminish


def _raise_by(steps: Mapping[int, float], thresholds: tuple[int, ...]) -> Bolster:
    """Raise each threshold r to r + d with probability ``steps[d]``."""
    return Bolster({r: {r + d: w for d, w in steps.items() if w > 0} for r in thresholds})


def bolster_a(alpha: float, thresholds: tuple[int, ...]) -> Bolster:
    """Raise by one w.p. alpha, by two w.p. 1-alpha (strategy A of the sweeps)."""
    return _raise_by({1: alpha, 2: 1.0 - alpha}, thresholds)


def bolster_b(alpha: float, thresholds: tuple[int, ...]) -> Bolster:
    """Raise by one w.p. (1+alpha)/2, by three w.p. (1-alpha)/2 (strategy B).

    Matches strategy A's expected new threshold r + 2 - alpha while spreading
    the mass two apart.
    """
    return _raise_by({1: 0.5 + alpha / 2.0, 3: 0.5 - alpha / 2.0}, thresholds)


def delay(z_prime: float, thresholds: tuple[int, ...], r_max_prime: int) -> Bolster:
    """Cut the coin probability to z': the geometric bolster that preflips the
    coins of a vertex one contact short of threshold r, capped at max(r_max_prime, r).
    """
    law = {}
    for r in thresholds:
        coins = CoinflipModel(r - 1, z_prime, max(r_max_prime, r))
        law[r] = {v: w for v, w in enumerate(coinflip_reduce(coins).zeta, 1) if v >= r}
    return Bolster(law)


# ---------------------------------------------------------------------------
# observed state and residual profiles


@dataclass(frozen=True)
class ObservedState:
    """Aggregate counts available at the trigger generation.

    ``i_cur``/``i_prev`` are the infected totals after the triggering
    generation and the one before; the per-cluster arrays split them over
    the k clusters of n/k vertices each.  ``healthy_by_threshold`` maps r to
    |H(r)| over the currently healthy.
    """

    n: int
    i_cur: int
    i_prev: int
    i_cur_cluster: tuple[int, ...]
    i_prev_cluster: tuple[int, ...]
    healthy_by_threshold: Mapping[int, int]

    def __post_init__(self) -> None:
        if self.i_prev > self.i_cur:
            raise ValueError("infected counts must be non-decreasing")
        if sum(self.i_cur_cluster) != self.i_cur or sum(self.i_prev_cluster) != self.i_prev:
            raise ValueError("per-cluster counts must sum to the totals")
        if len(self.i_cur_cluster) * max(self.i_cur_cluster + self.i_prev_cluster) > self.n:
            raise ValueError("a per-cluster count exceeds the cluster size n/k")
        if sum(self.healthy_by_threshold.values()) + self.i_cur != self.n:
            raise ValueError("healthy plus infected must cover every vertex")

    @property
    def healthy_total(self) -> int:
        return self.n - self.i_cur


def snapshot_observed(run: StandardRun) -> ObservedState:
    """The counts of a paused run; |I(tau-1)| leaves out the last generation, its frontier."""
    eta, k = run.g.eta, run.g.k
    cur_cluster = np.bincount(np.flatnonzero(run.infected) // eta, minlength=k)
    prev_cluster = cur_cluster - np.bincount(run.frontier // eta, minlength=k)
    values, counts = np.unique(run.thresholds[~run.infected], return_counts=True)
    return ObservedState(
        n=run.g.n,
        i_cur=int(run.totals[-1]),
        i_prev=int(run.totals[-1]) - run.frontier.size,
        i_cur_cluster=tuple(int(c) for c in cur_cluster),
        i_prev_cluster=tuple(int(c) for c in prev_cluster),
        healthy_by_threshold={int(v): int(c) for v, c in zip(values, counts)},
    )


def _pmf_row(trials: int, prob: float) -> np.ndarray:
    """Binomial pmf of Bin(trials, prob), cut where its tail is negligible, renormalized.

    The row stops at mean + 12*sqrt(mean + 1) + 30.  Bernstein's bound puts
    the tail past that below 4.3e-28, which for trials <= 2**32 is under the
    cut of trailing entries below 1e-15 of the mode, so the row equals the
    full-support row under that cut.
    """
    if trials <= 0 or prob <= 0.0:
        return np.array([1.0])
    mean = trials * prob
    cap = int(min(trials, math.ceil(mean + 12.0 * math.sqrt(mean + 1.0) + 30.0)))
    row = np.exp(log_binom_row(trials, prob, cap))
    keep = max(np.flatnonzero(row > _TRUNCATION_EPS * row.max()), default=0)
    row = row[: int(keep) + 1]
    return row / row.sum()


def residual_tm(observed: ObservedState, r: int, params: TMParams, cluster: int) -> np.ndarray:
    """Joint law of (near, far) infected-neighbor counts for a healthy vertex.

    The exposure to I(tau-1) is a pair of binomials jointly conditioned on
    total at most r-1 (the vertex survived); fresh exposure to I(tau) -
    I(tau-1) convolves in independently.  Returns the 2D array indexed by
    (near count b, far count c).  On a single cluster column 0 is the
    exposure law.
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
    fresh_near = _pmf_row(d_near, params.p)
    fresh_far = _pmf_row(d_far, params.q)
    out = np.zeros((r + fresh_near.size - 1, r + fresh_far.size - 1))
    for d in range(r):
        for e in range(r - d):
            w = prior[d, e]
            if w > 0.0:
                out[d : d + fresh_near.size, e : e + fresh_far.size] += w * np.outer(
                    fresh_near, fresh_far
                )
    return out


@dataclass
class ResidualProfile:
    """Residual exposure laws per threshold of one observed state, averaged over clusters.

    ``observed`` and ``params`` are the state and graph family the profile was
    built from, so a surrogate or scan needs nothing else.
    ``joints[r][b, c]`` is Pr[near = b, far = c | healthy, threshold r];
    ``weights[r]`` is |H(r)| / |H|.  ``gate_ok`` records whether the trigger
    happened early enough (|I(tau)| < k / (3*phi)) for the geometric-decay
    guarantee to apply; ``decay_violations`` checks that decay in the
    threshold-mixture marginal regardless.
    """

    observed: ObservedState
    params: TMParams
    joints: dict[int, np.ndarray]
    weights: dict[int, float]
    gate_ok: bool
    # boundary_scan's profiles of scaled states by i_cur, shared by every variant
    _scan_profiles: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def cluster_tv_max(self) -> float:
        """Largest total-variation distance between two clusters' threshold-mixture exposure laws.

        The per-cluster laws are rebuilt from ``observed`` and ``params``; 0.0
        on a single cluster.
        """
        mixtures = []
        for cluster in range(self.params.k):
            mixture = np.zeros(0)
            for r, weight in self.weights.items():
                joint = residual_tm(self.observed, r, self.params, cluster)
                mixture = _padded_add(mixture, weight * _marginal(joint))
            mixtures.append(mixture)
        return max(
            (0.5 * float(np.abs(_padded_add(a, -b)).sum())
             for a, b in itertools.combinations(mixtures, 2)),
            default=0.0,
        )


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
    cluster_weight = healthy_per_cluster / healthy_per_cluster.sum()
    joints: dict[int, np.ndarray] = {}
    for cluster in range(params.k):
        for r in weights:
            share = cluster_weight[cluster] * residual_tm(observed, r, params, cluster)
            joints[r] = _padded_add(joints.get(r, np.zeros((0, 0))), share)
    phi_edge = params.phi
    gate_ok = phi_edge > 0 and observed.i_cur < params.k / (3.0 * phi_edge)
    return ResidualProfile(
        observed=observed, params=params, joints=joints, weights=weights, gate_ok=gate_ok
    )


def thin_residual(
    joints: Mapping[int, np.ndarray], alpha_p: float, alpha_q: float
) -> dict[int, np.ndarray]:
    """Push (near, far) exposure joints through independent edge retention.

    Each near exposure survives w.p. alpha_p and each far exposure w.p.
    alpha_q, so each new joint is the old one filtered through binomial
    thinning matrices; the sums are exact because the support is finite.
    """
    thinned: dict[int, np.ndarray] = {}
    for r, joint in joints.items():
        rows, cols = joint.shape
        thinned[r] = _thinning_matrix(rows, alpha_p) @ joint @ _thinning_matrix(cols, alpha_q).T
    return thinned


def _thinning_matrix(size: int, alpha: float) -> np.ndarray:
    """T[b, d] = Pr[Bin(d, alpha) = b] for 0 <= b, d < size."""
    return np.exp(log_binom_row(np.arange(size), alpha, size - 1))


# ---------------------------------------------------------------------------
# surrogate construction and prediction


@dataclass(frozen=True)
class SurrogateSpec:
    """Derived percolation instance on the healthy population.

    ``j[s-1]`` is the residual-threshold mass j_s; the doomed healthy mass
    1 - sum(j) becomes the seed count.  ``params`` is the family on the
    healthy population: its n is |H|, and its edge probabilities are thinned
    for Diminish and original otherwise.
    """

    j: np.ndarray
    seed_count: float
    params: TMParams

    def __post_init__(self) -> None:
        balance = self.seed_count / self.params.n + float(self.j.sum())
        if abs(balance - 1.0) > 1e-9:
            raise ValueError(f"mass balance violated: {balance!r} != 1")

    @property
    def j_decay_ok(self) -> bool:
        j1 = float(self.j[0]) if self.j.size >= 1 else 0.0
        j2 = float(self.j[1]) if self.j.size >= 2 else 0.0
        return j1 == 0.0 or j1 < (2.0 / 3.0) * j2


def build_surrogate(profile: ResidualProfile, variant: Variant) -> SurrogateSpec:
    """Residual-threshold law of the profile's healthy population after the intervention.

    A healthy vertex with old threshold r and exposure a < r draws new
    threshold r' from the bolster's law and lands at residual threshold
    s = r' - a; exposure a >= r means the vertex is already doomed and joins
    the seed mass.  Diminish and Sequester first thin the residual exposures
    by the retention rates and then keep every threshold: they are the
    identity bolster {r: {r: 1.0}} on the thinned exposures.  Only Diminish
    also thins the surrogate's future edges, since Sequester spares
    healthy-healthy edges.
    """
    params = profile.params
    p, q = params.p, params.q
    joints, bolster = profile.joints, variant
    if isinstance(variant, Diminish):
        if not isinstance(variant, Sequester):
            p, q = variant.alpha_p * p, variant.alpha_q * q
        joints = thin_residual(joints, variant.alpha_p, variant.alpha_q)
        bolster = Bolster({r: {r: 1.0} for r in profile.weights})
    j = np.zeros(bolster.r_max_prime)
    for r, weight in profile.weights.items():
        law = bolster.zeta_prime.get(r)
        if law is None:
            raise KeyError(f"no reassignment law for observed threshold {r}")
        marg = _marginal(joints[r])
        a_limit = marg.size if bolster.save_vertices else min(r, marg.size)
        for a in range(a_limit):
            mass = weight * marg[a]
            if mass <= 0.0:
                continue
            for new_r, prob in law.items():
                s = new_r - a
                if s >= 1 and prob > 0.0:
                    j[s - 1] += mass * prob
    healthy = profile.observed.healthy_total
    seed = healthy * max(0.0, 1.0 - float(j.sum()))
    return SurrogateSpec(j, seed, TMParams(params.template, healthy, p, q))


PREDICTED_HALT = "predicted-halt"
PREDICTED_SPREAD = "predicted-spread"
UNCERTAIN = "uncertain-band"


@dataclass(frozen=True)
class Verdict:
    """Prediction for one intervention: seed count against the critical band.

    ``within_theory`` holds when the surrogate meets the analytic model's
    assumptions and its j_1 < (2/3) j_2 decay; it is None when every healthy
    vertex is doomed and the surrogate is all seed.
    """

    outcome: str
    phi_J: float
    Phi_J: int | None
    t_star_J: int | None
    within_theory: bool | None


def predict(surrogate: SurrogateSpec, epsilon: float) -> Verdict:
    """Decide halt/spread by placing phi_J against (1 +/- epsilon) * Phi_J."""
    total = float(surrogate.j.sum())
    if total <= 1e-12:
        return Verdict(PREDICTED_SPREAD, surrogate.seed_count, 0, None, None)
    dist = ThresholdDistribution(tuple(surrogate.j / total))
    result = critical_seed(AnalyticModel(surrogate.params, dist))
    within = result.assumptions.within_theory and surrogate.j_decay_ok
    phi_j = surrogate.seed_count
    if result.phi_critical is None:
        # subcritical for every seed size up to n_J
        return Verdict(PREDICTED_HALT, phi_j, None, None, within)
    if phi_j < (1.0 - epsilon) * result.phi_critical:
        outcome = PREDICTED_HALT
    elif phi_j > (1.0 + epsilon) * result.phi_critical:
        outcome = PREDICTED_SPREAD
    else:
        outcome = UNCERTAIN
    return Verdict(outcome, phi_j, result.phi_critical, result.t_star, within)


# ---------------------------------------------------------------------------
# live application


def run_to_trigger(
    g: SampledGraph,
    thresholds: np.ndarray,
    seeds: np.ndarray,
    variant: Variant,
    trigger_fraction: float,
    stop_fraction: float,
) -> tuple[StandardRun, bool]:
    """Drive a run until the infected count first exceeds lambda * n.

    ``trigger_fraction`` is lambda.  Returns (run, triggered).  A triggered
    run is paused at the trigger or has already spread past it; an
    untriggered run carries its verdict (the baseline finished at or below
    the trigger line).
    """
    if not 0.0 < trigger_fraction < 1.0:
        raise ValueError(f"trigger fraction {trigger_fraction} outside (0, 1)")
    run = StandardRun(g, thresholds, seeds, stop_fraction)
    trigger_at = trigger_fraction * g.n
    # a modification that rescues doomed vertices must fire before the
    # crossing generation commits, so it peeks one step ahead
    while run.verdict is None:
        if run.totals[-1] + (run._candidates().size if variant.save_vertices else 0) > trigger_at:
            return run, True
        run.step()
    return run, run.totals[-1] > trigger_at


def apply_in_simulation(
    run: StandardRun, variant: Variant, rng: np.random.Generator
) -> "PercolationTrace":
    """Mutate a triggered run by the variant and finish it; a finished run is left as is."""
    if run.verdict is None:
        variant.apply(run, rng)
    run.finish()
    return run.trace()


_SCAN_LO_FRAC = 0.001
_SCAN_HI_FRAC = 0.6


def boundary_scan(profile: ResidualProfile, variant: Variant) -> float:
    """Hypothetical |I(tau)| at which the intervention sits exactly at Phi_J.

    Holds the profile's observed growth |I(tau)| - |I(tau-1)| and its cluster
    and threshold proportions fixed while scaling the infected count; bisects
    on the sign of phi_J - Phi_J (the epsilon = 0 surface).  The scan stops
    below the first scaled state that would put more than n/k infected in a
    cluster.  Returns NaN when no crossing lies inside the scanned range.  A
    scaled state's profile does not depend on the variant, so it is built
    once, kept on ``profile`` and reused by every later scan of it (every
    alpha of a graph).
    """
    observed, params = profile.observed, profile.params
    delta = observed.i_cur - observed.i_prev
    profiles = profile._scan_profiles

    def excess(i_cur: int) -> float:
        if i_cur not in profiles:
            profiles[i_cur] = build_profile(_scaled_state(observed, i_cur, delta), params)
        verdict = predict(build_surrogate(profiles[i_cur], variant), epsilon=0.0)
        if verdict.Phi_J is None:
            return -math.inf
        return verdict.phi_J - verdict.Phi_J

    lo = max(delta, int(_SCAN_LO_FRAC * observed.n), 1)
    hi = _scan_top(observed, delta, lo, min(int(_SCAN_HI_FRAC * observed.n), observed.n - 1))
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


def _scan_top(observed: ObservedState, delta: int, lo: int, hi: int) -> int:
    """The largest i_cur <= hi such that every scaled state from lo up to it fits n/k per cluster.

    A split of a total T over k clusters puts at most T * share + k in one
    cluster (share: the largest count over their sum, 1/k when all are 0), so
    every state below that bound fits; past it the states are checked in turn.
    """
    n, k = observed.n, len(observed.i_cur_cluster)
    top = hi
    for counts, offset in ((observed.i_cur_cluster, 0), (_prev_shape(observed), delta)):
        base = sum(counts)
        top = min(top, offset + (base * (n - k * k) // (k * max(counts)) if base else n - k * k))
    top = max(top, lo - 1)
    while top < hi:
        _, cur, prev = _scaled_splits(observed, top + 1, delta)
        if k * max(cur + prev) > n:
            break
        top += 1
    return top


def _prev_shape(observed: ObservedState) -> tuple[int, ...]:
    """The cluster proportions a scaled |I(tau-1)| is split by."""
    return observed.i_prev_cluster if observed.i_prev else observed.i_cur_cluster


def _scaled_splits(observed: ObservedState, i_cur: int, delta: int) -> tuple[int, tuple, tuple]:
    """|I(tau-1)| and the two cluster splits of the state scaled to ``i_cur`` infected."""
    i_prev = max(0, i_cur - delta)
    return (
        i_prev,
        _proportional(observed.i_cur_cluster, i_cur),
        _proportional(_prev_shape(observed), i_prev),
    )


def _scaled_state(observed: ObservedState, i_cur: int, delta: int) -> ObservedState:
    i_prev, cur_cluster, prev_cluster = _scaled_splits(observed, i_cur, delta)
    shares = observed.healthy_by_threshold
    keys = sorted(shares)
    healthy = dict(zip(keys, _proportional([shares[r] for r in keys], observed.n - i_cur)))
    return ObservedState(
        n=observed.n,
        i_cur=i_cur,
        i_prev=i_prev,
        i_cur_cluster=cur_cluster,
        i_prev_cluster=prev_cluster,
        healthy_by_threshold=healthy,
    )


def _proportional(counts: Sequence[int], total: int) -> tuple[int, ...]:
    """Split ``total`` in proportion to ``counts`` (equally when they are all 0).

    The rounded shares are settled to sum to ``total`` largest share first: a
    surplus goes to the largest entry (the first one on ties), and a deficit
    is taken from the largest entries in turn, never driving one below 0.
    """
    base = sum(counts)
    if base == 0:
        k = len(counts)
        out = [total // k] * k
    else:
        out = [int(round(c * total / base)) for c in counts]
    residual = total - sum(out)
    for i in sorted(range(len(out)), key=lambda i: -out[i]):
        change = max(residual, -out[i])
        out[i] += change
        residual -= change
    return tuple(out)
