"""The analytic kernel's own log factorials and log-sum-exp against scipy.

``analytic`` reads log(m!) from a cephes ``lgam`` table and reduces runs of
rows with a numpy port of scipy's ``logsumexp``; both must give scipy's bits
exactly (``np.array_equal``, sign bits included), so no golden output moves.
scipy sums a two-column stack over axis 0 in index order, as the segmented
reduction does, so each run of each column is compared with scipy on a stack
of two copies of it.
"""

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from tmperc import analytic
from tmperc.analytic import _log_factorials, _segment_logsumexp, log_binom_row

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


def _runs(lengths) -> tuple[np.ndarray, np.ndarray]:
    """(seg, starts) of consecutive non-empty runs with these lengths."""
    lengths = np.asarray(lengths)
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    return np.repeat(np.arange(lengths.size), lengths), starts


def _matches_scipy_per_run(a, lengths) -> bool:
    seg, starts = _runs(lengths)
    out = _segment_logsumexp(a, seg, starts)
    bounds = np.append(starts, a.shape[0])
    ref = np.array(
        [
            [logsumexp(np.stack([col, col], axis=1), axis=0)[0] for col in a[lo:hi].T]
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
    )
    return _same_bits(out, ref)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_logsumexp_matches_scipy(width):
    rng = np.random.default_rng(100 + width)
    for _ in range(400):
        lengths = rng.integers(1, 40, size=int(rng.integers(1, 12)))
        a = _random_logs(rng, (int(lengths.sum()), width))
        if rng.random() < 0.4:
            a[: lengths[0]] = -np.inf  # an all -inf run
        assert _matches_scipy_per_run(a, lengths)


def test_logsumexp_edge_slices():
    runs = [
        [-np.inf, -np.inf, -np.inf],  # all -inf
        [0.0, 0.0, 0.0],  # every entry is a tied maximum
        [-1.0, 2.0, 2.0],  # tie plus a smaller term
        [-np.inf, -3.0, -np.inf],  # a single finite entry
        [-800.0, -745.5, -np.inf],  # terms underflow after the shift
        [5.0],  # a run of one
    ]
    flat = np.concatenate([np.asarray(run, dtype=float) for run in runs])
    a = np.stack([flat, flat[::-1]], axis=1)
    lengths = [len(run) for run in runs]
    out = _segment_logsumexp(a, *_runs(lengths))
    assert out[0, 0] == -np.inf and out[1, 0] == np.log(3.0) and out[5, 0] == 5.0
    assert _matches_scipy_per_run(a, lengths)
