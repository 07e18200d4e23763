import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as hst

from lindbladff import CapacityError, ValidationError, kernels


def test_pmf_window_matches_scipy():
    for n, p in [(50, 0.5), (400, 0.0024979), (1000, 0.9), (10, 0.3)]:
        lo, w = kernels.binom_pmf_window(n, p)
        ref = scipy.stats.binom.pmf(np.arange(lo, lo + w.size), n, p)
        assert np.max(np.abs(w - ref)) <= 1e-12
        assert abs(w.sum() - 1.0) <= 1e-12


def test_pmf_window_degenerate():
    lo, w = kernels.binom_pmf_window(7, 0.0)
    assert lo == 0 and np.allclose(w, [1.0])
    lo, w = kernels.binom_pmf_window(7, 1.0)
    assert lo == 7 and np.allclose(w, [1.0])


@pytest.mark.parametrize("p", [-0.1, 1.5, math.nan])
def test_pmf_window_rejects_p_outside_unit_interval(p):
    with pytest.raises(ValidationError, match="must be in"):
        kernels.binom_pmf_window(7, p)


def test_pmf_window_large_n():
    lo, w = kernels.binom_pmf_window(10_000_000, 0.5)
    assert abs(w.sum() - 1.0) <= 1e-10
    center = 5_000_000 - lo
    assert np.isclose(w[center], 1.0 / np.sqrt(np.pi * 5_000_000), rtol=1e-6)


@pytest.mark.parametrize("n", [10 ** 18, 10 ** 300])
def test_window_beyond_physical_memory_is_capacity_error(n):
    # the tail bound at p = 1/2 spans 3.9e10 counts (289 GiB) at n = 1e18 and
    # 5.3e151 counts at n = 1e300, more than any array can index
    with pytest.raises(CapacityError, match="^binomial window needs"):
        kernels.binom_pmf_window(n, 0.5)


def _loop_pmf_window(n, p):
    """Plain-Python transcription of the pmf window, summed in window order."""
    lo, hi = kernels._support(n, p, kernels.PMF_FLOOR)
    center = min(max(int(round(n * p)), lo), hi)
    w = [0.0] * (hi - lo + 1)
    w[center - lo] = 1.0
    odds = p / (1.0 - p)
    u = 1.0
    for m in range(center, hi):
        u *= (n - m) / (m + 1.0) * odds
        w[m + 1 - lo] = u
    u = 1.0
    for m in range(center, lo, -1):
        u *= m / (n - m + 1.0) / odds
        w[m - 1 - lo] = u
    total = 0.0
    for x in w:
        total += x
    return lo, np.array([x / total for x in w])


@pytest.mark.parametrize("n", [0, 1, 7, 16, 63, 100, 1001, 1333, 1335])
def test_kernels_bitwise_match_loop_transcription(n):
    for p in (0.5, 0.37, 0.9):
        lo, w = kernels.binom_pmf_window(n, p)
        lo_ref, w_ref = _loop_pmf_window(n, p)
        assert lo == lo_ref
        assert np.array_equal(w, w_ref)


def _assert_precision_window(n, p, m, amplitude):
    """The window holds every m whose pmf is at least its floor times the
    largest, and its values are the pmf window's on the overlap."""
    lo, w = kernels.binom_pmf_window(n, p, amplitude=amplitude)
    floor = kernels.AMPLITUDE_FLOOR if amplitude else kernels.PMF_FLOOR
    logpmf = scipy.stats.binom.logpmf(m, n, p)
    kept = m[logpmf >= logpmf.max() + math.log(floor)]
    assert lo <= kept.min() and kept.max() <= lo + w.size - 1, (lo, lo + w.size - 1, kept)
    assert abs(w.sum() - 1.0) <= 1e-14
    lo_wide, wide = kernels.binom_pmf_window(n, p)
    a, b = max(lo, lo_wide), min(lo + w.size, lo_wide + wide.size)
    assert np.allclose(w[a - lo:b - lo], wide[a - lo_wide:b - lo_wide], rtol=1e-14, atol=0.0)


@settings(max_examples=200, deadline=None, database=None)
@given(n=hst.integers(1, 10 ** 7), mean=hst.floats(1e-12, 1.0))
def test_precision_window_small_mean(n, mean):
    # N p <= 1: Poisson-like tails that a fixed multiple of sigma cuts short
    for amplitude in (True, False):
        _assert_precision_window(n, min(mean / n, 1.0), np.arange(min(n, 400) + 1), amplitude)


@settings(max_examples=200, deadline=None, database=None)
@given(n=hst.integers(1, 20000), p=hst.floats(1e-9, 1.0 - 1e-9))
def test_precision_window_any_mean(n, p):
    for amplitude in (True, False):
        _assert_precision_window(n, p, np.arange(n + 1), amplitude)


def test_precision_window_is_narrower_than_36_sigma():
    n, p = 10 ** 7, 0.5
    lo, w = kernels.binom_pmf_window(n, p, amplitude=True)
    sigma = math.sqrt(n * p * (1 - p))
    assert 12.1 * sigma <= w.size / 2 <= 14 * sigma
