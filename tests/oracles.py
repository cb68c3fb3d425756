"""Independent oracles for the test suite.

Everything here is deliberately brute force: exact rational arithmetic,
dense fixpoint iteration, exhaustive enumeration over edge indicator
vectors.  None of it shares code with the library paths it checks.
``scipy_log_binom_row`` is the binomial row as the library computed it
with ``scipy.special.gammaln``; ``loop_activation_table`` builds on it and
on scipy's ``logsumexp``, so the model's table, which reads log factorials
from the library's own cephes ``lgam`` port and sums with its own
log-sum-exp, must match scipy bit for bit.

The scalar references at the end (``binom_log_pmf``, ``A_of_t``, ``f_of``
and ``t_star_lower_bound``) state the formulas of the analytic module one
value at a time.  ``A_of_t`` sums the library's scalar ``pi_r``, a path
separate from the model's array table, and ``f_of`` reads ``model.A``.

``reference_sample_graph`` replays the library's block draws with its own
``_bernoulli_hits`` and ``_decode_triangle``, so the edge set matches draw for
draw; what it checks, the edge order and the CSR, it builds by comparison
sorts (``np.lexsort`` and a stable ``argsort``) in ``reference_csr``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.special import gammaln, logsumexp

from tmperc.analytic import pi_r
from tmperc.tmgraph import _bernoulli_hits, _decode_triangle


def exact_pi(t: int, r: int, k_p: int, k_q: int, p: float, q: float) -> Fraction:
    """Pr[Bin(k_p*t, p) + Bin(k_q*t, q) >= r] in exact rational arithmetic."""
    fp, fq = Fraction(p), Fraction(q)
    trials_p, trials_q = k_p * t, k_q * t
    head = Fraction(0)
    for total in range(min(r, trials_p + trials_q + 1)):
        for i in range(total + 1):
            j = total - i
            if i <= trials_p and j <= trials_q:
                head += (
                    Fraction(math.comb(trials_p, i)) * fp**i * (1 - fp) ** (trials_p - i)
                    * Fraction(math.comb(trials_q, j)) * fq**j * (1 - fq) ** (trials_q - j)
                )
    return 1 - head


def exact_sum_pmf(t: int, j: int, k_p: int, k_q: int, p: float, q: float) -> Fraction:
    """Pr[Bin(k_p*t, p) + Bin(k_q*t, q) = j] exactly."""
    fp, fq = Fraction(p), Fraction(q)
    trials_p, trials_q = k_p * t, k_q * t
    total = Fraction(0)
    for i in range(j + 1):
        if i <= trials_p and j - i <= trials_q:
            total += (
                Fraction(math.comb(trials_p, i)) * fp**i * (1 - fp) ** (trials_p - i)
                * Fraction(math.comb(trials_q, j - i)) * fq ** (j - i) * (1 - fq) ** (trials_q - j + i)
            )
    return total


def dense_fixpoint(n: int, edge_u: np.ndarray, edge_v: np.ndarray,
                   thresholds: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Final infected set of threshold percolation by dense fixpoint iteration."""
    adjacency = np.zeros((n, n), dtype=np.int64)
    adjacency[edge_u, edge_v] = 1
    adjacency[edge_v, edge_u] = 1
    infected = np.zeros(n, dtype=bool)
    infected[np.asarray(seeds, dtype=np.int64)] = True
    while True:
        fresh = (~infected) & (adjacency @ infected >= thresholds)
        if not fresh.any():
            return np.flatnonzero(infected)
        infected |= fresh


def _indicator_matrix(width: int) -> np.ndarray:
    """All 2^width edge indicator vectors as a (2^width, width) 0/1 array."""
    rows = np.arange(1 << width, dtype=np.int64)[:, None]
    return (rows >> np.arange(width)[None, :]) & 1


def enum_residual_er(m: int, delta: int, p: float, r: int) -> np.ndarray:
    """Exposure law by enumeration over all 2^(m+delta) edge indicator vectors."""
    bits = _indicator_matrix(m + delta)
    ones = bits.sum(axis=1)
    weights = p**ones * (1.0 - p) ** (m + delta - ones)
    prior = bits[:, :m].sum(axis=1)
    keep = prior <= r - 1
    out = np.bincount(ones[keep], weights=weights[keep], minlength=1)
    return out / out.sum()


def _indicator_tally(m: int, delta: int, prob: float) -> dict[tuple[int, int], float]:
    """Weights of (prior count, total count) over indicator vectors."""
    bits = _indicator_matrix(m + delta)
    ones = bits.sum(axis=1)
    weights = prob**ones * (1.0 - prob) ** (m + delta - ones)
    prior = bits[:, :m].sum(axis=1)
    tally: dict[tuple[int, int], float] = {}
    for d, a, w in zip(prior.tolist(), ones.tolist(), weights.tolist()):
        key = (d, a)
        tally[key] = tally.get(key, 0.0) + w
    return tally


def enum_residual_tm(
    m_near: int, d_near: int, m_far: int, d_far: int, p: float, q: float, r: int
) -> np.ndarray:
    """Joint (near, far) exposure law by enumeration, conditioned on survival.

    Near and far edges are independent, so the enumeration factorizes into
    indicator tallies joined through the constraint prior_near + prior_far
    <= r - 1.
    """
    near = _indicator_tally(m_near, d_near, p)
    far = _indicator_tally(m_far, d_far, q)
    out = np.zeros((m_near + d_near + 1, m_far + d_far + 1))
    total = 0.0
    for (dn, b), wn in near.items():
        for (df, c), wf in far.items():
            if dn + df <= r - 1:
                out[b, c] += wn * wf
                total += wn * wf
    return out / total


def enum_thinning(joint: np.ndarray, alpha_p: float, alpha_q: float) -> np.ndarray:
    """Push a small joint law through per-edge retention by enumeration."""
    rows, cols = joint.shape
    out = np.zeros_like(joint)
    for d in range(rows):
        for e in range(cols):
            mass = joint[d, e]
            if mass == 0.0:
                continue
            for keep_near in itertools.product((0, 1), repeat=d):
                w_near = 1.0
                for bit in keep_near:
                    w_near *= alpha_p if bit else 1.0 - alpha_p
                for keep_far in itertools.product((0, 1), repeat=e):
                    w_far = 1.0
                    for bit in keep_far:
                        w_far *= alpha_q if bit else 1.0 - alpha_q
                    out[sum(keep_near), sum(keep_far)] += mass * w_near * w_far
    return out


def janson_phi(n: int, p: float, r: int) -> float:
    """Classical single-block critical seed size for uniform threshold r."""
    return (1.0 - 1.0 / r) * (math.factorial(r - 1) / (n * p**r)) ** (1.0 / (r - 1))


def tv_distance(a: np.ndarray, b: np.ndarray) -> float:
    size = max(a.size, b.size)
    pa, pb = np.zeros(size), np.zeros(size)
    pa[: a.size] = a
    pb[: b.size] = b
    return 0.5 * float(np.abs(pa - pb).sum())


def tv_distance_2d(a: np.ndarray, b: np.ndarray) -> float:
    rows = max(a.shape[0], b.shape[0])
    cols = max(a.shape[1], b.shape[1])
    pa = np.zeros((rows, cols))
    pb = np.zeros((rows, cols))
    pa[: a.shape[0], : a.shape[1]] = a
    pb[: b.shape[0], : b.shape[1]] = b
    return 0.5 * float(np.abs(pa - pb).sum())


# ---------------------------------------------------------------------------
# engine reference: the generation step as the engine wrote it before its
# sort-based scatter kernel (hash ``np.unique`` plus ``np.bincount`` with
# minlength=n, O(n) per generation).  Traces must match it exactly.


def _neighbors(g, frontier: np.ndarray) -> np.ndarray:
    """Adjacency lists of ``frontier`` concatenated, one slice per vertex."""
    if len(frontier) == 0:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([g.indices[g.indptr[v] : g.indptr[v + 1]] for v in frontier])


def _reference_run(g, seeds: np.ndarray, stop_fraction: float, advance):
    """Shared verdict loop; ``advance(infected, frontier)`` returns the newly infected."""
    seeds = np.asarray(seeds, dtype=np.int64)
    infected = np.zeros(g.n, dtype=bool)
    infected[seeds] = True
    frontier = seeds
    totals = [int(seeds.size)]
    per_cluster = [np.bincount(seeds // g.eta, minlength=g.k)]
    stop_at = stop_fraction * g.n
    verdict = "spread" if totals[0] >= stop_at else ("halted" if totals[0] == 0 else None)
    while verdict is None:
        newly = advance(infected, frontier)
        infected[newly] = True
        frontier = newly
        totals.append(totals[-1] + int(newly.size))
        per_cluster.append(per_cluster[-1] + np.bincount(newly // g.eta, minlength=g.k))
        if totals[-1] >= stop_at:
            verdict = "spread"
        elif newly.size == 0:
            verdict = "halted"
    return np.asarray(totals), np.asarray(per_cluster), verdict, np.flatnonzero(infected)


def reference_standard(g, thresholds: np.ndarray, seeds: np.ndarray, stop_fraction: float):
    """(totals, per_cluster, verdict, final_infected) of a threshold run."""
    counts = np.zeros(g.n, dtype=np.int64)

    def advance(infected, frontier):
        nbrs = _neighbors(g, frontier)
        if nbrs.size:
            counts[:] += np.bincount(nbrs, minlength=g.n)
        touched = np.unique(nbrs)
        ready = (~infected[touched]) & (counts[touched] >= thresholds[touched])
        return touched[ready]

    return _reference_run(g, seeds, stop_fraction, advance)


def reference_coinflip(g, s: np.ndarray, z: np.ndarray, r_max: int, seeds: np.ndarray,
                       stop_fraction: float, rng: np.random.Generator):
    """Coinflip run drawing its coins in ascending vertex order, like the engine."""
    counts = np.zeros(g.n, dtype=np.int64)

    def advance(infected, frontier):
        nbrs = _neighbors(g, frontier)
        if nbrs.size == 0:
            return np.empty(0, dtype=np.int64)
        delta = np.bincount(nbrs, minlength=g.n)
        touched = np.unique(nbrs)
        touched = touched[~infected[touched]]
        old = counts[touched]
        new = old + delta[touched]
        counts[touched] = new
        forced = touched[new >= r_max]
        flips = new - np.maximum(old, s[touched])
        eligible = (flips > 0) & (new < r_max)
        flip_ids = touched[eligible]
        flip_n = flips[eligible]
        hit = np.zeros(flip_ids.size, dtype=bool)
        if flip_ids.size:
            draws = rng.random(int(flip_n.sum()))
            bounds = np.cumsum(flip_n)
            success = draws < np.repeat(z[flip_ids], flip_n)
            hit = np.logical_or.reduceat(success, np.concatenate([[0], bounds[:-1]]))
        return np.union1d(forced, flip_ids[hit])

    return _reference_run(g, seeds, stop_fraction, advance)


def reference_exposure(g, infected: np.ndarray) -> np.ndarray:
    """Infected-neighbor count of every vertex, recounted from the edge list."""
    ids = np.flatnonzero(infected)
    return np.bincount(_neighbors(g, ids), minlength=g.n)


def scipy_log_binom_row(trials, prob: float, j_max: int) -> np.ndarray:
    """log pmf of Bin(trials, prob) at 0..j_max from scipy's ``gammaln``.

    The library's ``log_binom_row`` before it dropped scipy, term for term:
    shape (j_max+1,) for scalar trials, else (j_max+1, len(trials)).
    """
    scalar = np.isscalar(trials)
    t = np.atleast_1d(np.asarray(trials, dtype=np.int64))
    j = np.arange(j_max + 1, dtype=np.int64)[:, None]
    if prob <= 0.0:
        out = np.full((j_max + 1, t.size), -np.inf)
        out[0, :] = 0.0
    elif prob >= 1.0:
        out = np.where(j == t[None, :], 0.0, -np.inf)
    else:
        with np.errstate(invalid="ignore"):
            out = (
                gammaln(t + 1.0)[None, :]
                - gammaln(j + 1.0)
                - gammaln(t - j + 1.0)
                + j * math.log(prob)
                + (t - j) * math.log1p(-prob)
            )
        out = np.where(j > t[None, :], -np.inf, out)
    return out[:, 0] if scalar else out


def loop_activation_table(params, dist, t_hi: int) -> np.ndarray:
    """A(t) for t = 0..t_hi by one logsumexp per convolution index j.

    The table ``AnalyticModel`` built before ``log_sum_row`` took an array
    of generations; it must agree bit for bit with the model's table.
    """
    r_m = dist.r_max
    t_arr = np.arange(t_hi + 1, dtype=np.int64)
    log_b = scipy_log_binom_row(params.k_p * t_arr, params.p, r_m - 1)
    log_c = scipy_log_binom_row(params.k_q * t_arr, params.q, r_m - 1)
    log_d = np.empty((r_m, t_hi + 1))
    for j in range(r_m):
        log_d[j] = logsumexp(log_b[: j + 1] + log_c[j::-1], axis=0)
    pi = np.clip(1.0 - np.cumsum(np.exp(log_d), axis=0), 0.0, 1.0)
    total_trials = (params.k_p + params.k_q) * t_arr
    for i in range(r_m):
        pi[i, total_trials < i + 1] = 0.0
    table = dist.as_array() @ pi
    table[0] = 0.0
    return table


def bisect_critical_seed(model) -> tuple[int | None, int | None]:
    """(phi_critical, t_star) by bisection over phi on the model's A table.

    The search ``critical_seed`` ran before its closed form: least phi in
    [0, n] with (n - phi)*A(t) - k*t + phi >= 0 at every t of the horizon,
    and the smallest minimizing t at that phi.
    """
    n, k = model.params.n, model.params.k
    if model.t_max is not None and model.t_max < 1:
        raise ValueError("empty horizon")
    if model.t_max is None or k * model.t_max > n:
        return None, None
    t_arr = np.arange(1, model.t_max + 1)
    a_arr = model.A[1 : model.t_max + 1]

    def feasible(phi: int) -> bool:
        return bool(np.min((n - phi) * a_arr - k * t_arr + phi) >= 0.0)

    if not feasible(n):
        return None, None
    lo, hi = 0, n
    if feasible(0):
        hi = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    curve = (n - hi) * a_arr - k * t_arr + hi
    return hi, int(t_arr[int(np.argmin(curve))])


# ---------------------------------------------------------------------------
# scalar references for the analytic module


def binom_log_pmf(x: int, lam: float, i: int) -> float:
    """log Pr[Bin(x, lam) = i] via log-gamma; exact -inf for impossible cases."""
    if i < 0 or i > x:
        raise ValueError(f"successes i={i} outside [0, x={x}]")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"success probability {lam} outside [0, 1]")
    if lam == 0.0:
        return 0.0 if i == 0 else -math.inf
    if lam == 1.0:
        return 0.0 if i == x else -math.inf
    return (
        math.lgamma(x + 1)
        - math.lgamma(i + 1)
        - math.lgamma(x - i + 1)
        + i * math.log(lam)
        + (x - i) * math.log1p(-lam)
    )


def A_of_t(t: int, dist, params) -> float:
    """Mixture activation probability sum_r zeta_r * pi_r(t)."""
    return math.fsum(
        z * pi_r(t, r + 1, params) for r, z in enumerate(dist.zeta) if z > 0.0
    )


def f_of(phi: float, t: int, model) -> float:
    """Deficiency (n - phi)*A(t) - k*t + phi on the model's table."""
    return (model.params.n - phi) * model.A[t] - model.params.k * t + phi


def t_star_lower_bound(model, beta: float) -> float:
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


def reference_csr(n: int, edge_u: np.ndarray, edge_v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``indptr``/``indices`` with each list in edge-list order, by a stable argsort."""
    endpoints = np.concatenate([edge_u, edge_v])
    others = np.concatenate([edge_v, edge_u])
    indptr = np.concatenate([[0], np.cumsum(np.bincount(endpoints, minlength=n))])
    return indptr, others[np.argsort(endpoints, kind="stable")]


def reference_sample_graph(params, rng: np.random.Generator):
    """``(edge_u, edge_v, indptr, indices)`` of ``sample_graph`` for the same generator.

    Blocks are drawn in the library's order: every diagonal block, then the
    (i, j) blocks for i < j.  The edges are put in (u, v) order by ``np.lexsort``.
    """
    eta = params.n // params.k
    near = params.near_matrix()
    parts_u, parts_v = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for i in range(params.k):
        a, b = _decode_triangle(_bernoulli_hits(eta * (eta - 1) // 2, params.p, rng), eta)
        parts_u.append(a + i * eta)
        parts_v.append(b + i * eta)
    for i, j in itertools.combinations(range(params.k), 2):
        hits = _bernoulli_hits(eta * eta, params.p if near[i, j] else params.q, rng)
        parts_u.append(hits // eta + i * eta)
        parts_v.append(hits % eta + j * eta)
    edge_u, edge_v = np.concatenate(parts_u), np.concatenate(parts_v)
    order = np.lexsort((edge_v, edge_u))
    edge_u, edge_v = edge_u[order], edge_v[order]
    return (edge_u, edge_v) + reference_csr(params.n, edge_u, edge_v)
