"""The vectorized log_sum_row against the per-j logsumexp loop it replaced,
and its array-of-t form against its scalar form."""

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
            mine, ref = rows[:, col], log_sum_row(int(t_val), params, j_max)
            if j_max < 7:
                # under 8 terms numpy sums both forms in index order
                np.testing.assert_array_equal(mine, ref)
                continue
            # from 8 terms the scalar form's contiguous rows are summed pairwise
            finite = np.isfinite(ref)
            np.testing.assert_array_equal(np.isfinite(mine), finite)
            np.testing.assert_array_equal(mine[~finite], ref[~finite])
            scale = np.maximum(1.0, np.abs(ref[finite]))
            assert np.all(np.abs(mine[finite] - ref[finite]) <= 1e-14 * scale)
