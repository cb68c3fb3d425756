"""The analytic kernel's own log factorials and log-sum-exp against scipy.

``analytic`` reads log(m!) from a cephes ``lgam`` table and reduces with a
numpy port of scipy's ``logsumexp``; both must give scipy's bits exactly
(``np.array_equal``, sign bits included), so no golden output moves.
"""

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from tmperc import analytic
from tmperc.analytic import _log_factorials, _logsumexp, log_binom_row

from oracles import scipy_log_binom_row


def _same_bits(mine, ref) -> bool:
    mine, ref = np.asarray(mine), np.asarray(ref)
    return (
        mine.shape == ref.shape
        and np.array_equal(mine, ref, equal_nan=True)
        and np.array_equal(np.signbit(mine), np.signbit(ref))
    )


def test_log_factorials_match_gammaln_up_to_a_million():
    top = 10**6
    table = _log_factorials(top)
    assert table.dtype == np.float64 and table.size > top
    m = np.arange(top + 1)
    assert _same_bits(table[: top + 1], gammaln(m + 1.0))


def test_log_factorial_table_grows_in_steps_as_at_once_and_is_read_only(monkeypatch):
    monkeypatch.setattr(analytic, "_log_factorial_table", np.zeros(0))
    for top in (0, 5, 12, 13, 40, 999, 1000, 1500, 3000):
        stepped = _log_factorials(top)
        assert stepped.size > top
    monkeypatch.setattr(analytic, "_log_factorial_table", np.zeros(0))
    at_once = _log_factorials(3000)
    size = min(stepped.size, at_once.size)
    assert _same_bits(stepped[:size], at_once[:size])
    assert _log_factorials(10) is at_once  # no growth below the current size
    for table in (stepped, at_once):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0


@pytest.mark.parametrize("prob", [0.0, 1.0, 1e-7, 0.003, 0.5, 0.97])
def test_log_binom_row_matches_scipy_gammaln_row(prob):
    rng = np.random.default_rng(17)
    cases = [(0, 0), (0, 9), (3, 2), (3, 3), (5, 40), (100_000, 60), (99_999, 150)]
    cases += [(int(rng.integers(0, 5000)), int(rng.integers(0, 300))) for _ in range(20)]
    for trials, j_max in cases:
        assert _same_bits(log_binom_row(trials, prob, j_max), scipy_log_binom_row(trials, prob, j_max))
    for _ in range(20):
        trials = rng.integers(0, 100_001, size=int(rng.integers(1, 12)))
        trials[0] = 0
        j_max = int(rng.integers(0, 200))
        mine, ref = log_binom_row(trials, prob, j_max), scipy_log_binom_row(trials, prob, j_max)
        assert mine.shape == (j_max + 1, trials.size)
        assert _same_bits(mine, ref)


def _random_logs(rng, shape) -> np.ndarray:
    a = rng.normal(scale=float(10 ** rng.uniform(-2, 3)), size=shape)
    if rng.random() < 0.5:
        a = np.round(a)  # integer logs tie at the maximum often
    if rng.random() < 0.6:
        a[rng.random(shape) < rng.random()] = -np.inf
    return a


@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_logsumexp_matches_scipy(ndim):
    rng = np.random.default_rng(100 + ndim)
    axis = 0 if ndim == 1 else 1
    for _ in range(400):
        shape = tuple(int(s) for s in rng.integers(1, 25, size=ndim))
        a = _random_logs(rng, shape)
        if ndim > 1 and rng.random() < 0.4:
            a[0] = -np.inf  # all -inf slices along the reduced axis
        assert _same_bits(_logsumexp(a, axis), logsumexp(a, axis=axis))


def test_logsumexp_edge_slices():
    a = np.array(
        [
            [-np.inf, -np.inf, -np.inf],  # all -inf
            [0.0, 0.0, 0.0],  # every entry is a tied maximum
            [-1.0, 2.0, 2.0],  # tie plus a smaller term
            [-np.inf, -3.0, -np.inf],  # a single finite entry
            [-800.0, -745.5, -np.inf],  # terms underflow after the shift
        ]
    )
    out = _logsumexp(a, 1)
    assert out[0] == -np.inf and out[1] == np.log(3.0)
    assert _same_bits(out, logsumexp(a, axis=1))
