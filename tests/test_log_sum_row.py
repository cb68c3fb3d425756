"""The vectorized log_sum_row against the per-j logsumexp loop it replaced,
its array-of-t form against its scalar form, and its packed triangle's
independence of j_max and memory."""

import tracemalloc

import numpy as np
from scipy.special import logsumexp

from tmperc import template as tpl
from tmperc.analytic import log_binom_row, log_sum_row
from tmperc.tmgraph import TMParams


def _loop_row(t: int, params: TMParams, j_max: int) -> np.ndarray:
    log_b = log_binom_row(params.k_p * t, params.p, j_max)
    log_c = log_binom_row(params.k_q * t, params.q, j_max)
    out = np.empty(j_max + 1)
    for j in range(j_max + 1):
        out[j] = logsumexp(log_b[: j + 1] + log_c[j::-1])
    return out


def test_matches_per_j_loop():
    rng = np.random.default_rng(7)
    templates = [tpl.make_single(), tpl.make_planted(3), tpl.make_ring(6, 1)]
    for _ in range(300):
        template = templates[int(rng.integers(len(templates)))]
        p = float(10 ** rng.uniform(-6, -0.3))
        q = float(rng.uniform(0.0, p)) if template.k_q and rng.random() < 0.9 else 0.0
        params = TMParams(template, 4 * template.k, p, q)
        t = int(rng.integers(0, 60))
        j_max = int(rng.integers(0, 150))
        mine = log_sum_row(t, params, j_max)
        ref = _loop_row(t, params, j_max)
        finite = np.isfinite(ref)
        np.testing.assert_array_equal(np.isfinite(mine), finite)
        np.testing.assert_array_equal(mine[~finite], ref[~finite])
        # summation order differs, so allow a few ulps of the log value
        scale = np.maximum(1.0, np.abs(ref[finite]))
        assert np.all(np.abs(mine[finite] - ref[finite]) <= 1e-14 * scale)


def test_array_t_columns_match_scalar_rows():
    rng = np.random.default_rng(8)
    templates = [tpl.make_single(), tpl.make_planted(3), tpl.make_ring(6, 1), tpl.make_cube3()]
    for _ in range(300):
        template = templates[int(rng.integers(len(templates)))]
        p = float(10 ** rng.uniform(-6, -0.3))
        q = float(rng.uniform(0.0, p)) if template.k_q and rng.random() < 0.9 else 0.0
        params = TMParams(template, 4 * template.k, p, q)
        t = rng.integers(0, 60, size=int(rng.integers(1, 20)))
        j_max = int(rng.integers(0, 40))
        rows = log_sum_row(t, params, j_max)
        assert rows.shape == (j_max + 1, t.size)
        for col, t_val in enumerate(t):
            # both forms sum each row in index order, so they agree bit for bit
            np.testing.assert_array_equal(rows[:, col], log_sum_row(int(t_val), params, j_max))


def test_row_does_not_depend_on_j_max():
    rng = np.random.default_rng(9)
    templates = [tpl.make_single(), tpl.make_planted(3), tpl.make_ring(6, 1)]
    for _ in range(100):
        template = templates[int(rng.integers(len(templates)))]
        p = float(10 ** rng.uniform(-6, -0.3))
        q = float(rng.uniform(0.0, p)) if template.k_q and rng.random() < 0.9 else 0.0
        params = TMParams(template, 4 * template.k, p, q)
        j_max = int(rng.integers(0, 120))  # up to 150 terms: past numpy's 128-term pairwise block
        t = int(rng.integers(0, 60))
        short = log_sum_row(t, params, j_max)
        np.testing.assert_array_equal(log_sum_row(t, params, j_max + 30)[: j_max + 1], short)
        t_arr = rng.integers(0, 60, size=5)
        short = log_sum_row(t_arr, params, j_max)
        np.testing.assert_array_equal(log_sum_row(t_arr, params, j_max + 30)[: j_max + 1], short)


def test_table_traced_peak_stays_packed():
    # the r_max = 21 basis of an n = 10**5 model: 3,334 generations; the full
    # masked square peaked at 39.6 MB, the packed triangle at 23.0 MB
    params = TMParams(tpl.make_single(), 100_000, 1e-4)
    t = np.arange(3334)
    log_sum_row(t[-1:], params, 20)  # grow the log-factorial table first
    tracemalloc.start()
    try:
        rows = log_sum_row(t, params, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (21, 3334)
    assert peak <= 28e6
