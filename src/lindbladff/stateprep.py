"""Binomial-amplitude and discrete-Gaussian state synthesis.

The binomial register state carries amplitude sqrt(C(N, m)) / 2^(N/2) at m,
the square root of the Binomial(N, 1/2) pmf that ``kernels.binom_pmf``
builds by its centre-out ratio recursion.  No C(N, m) or log-factorial is
formed, so the construction survives far past the overflow point of C(N, m)
without the cancellation of a log-factorial difference; outside the pmf
window (amplitudes below 2^-511 of the largest) the amplitudes read
exactly 0.  The lattice Gaussian is the periodized Gaussian on Z_N,
normalized by the lattice sum f(mu, sigma), and comes with a recursive
rotation-angle schedule that synthesizes it one address bit at a time (low
bit first).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from . import numkernel as nk
from .kernels import _require_memory, binom_pmf

# Truncation of the lattice-Gaussian and theta series, below the double-
# precision resolution of the dominant term
SERIES_CUTOFF = 1e-16
# Centres per block of the direct lattice sum of ``f_mu_sigma``: at most 21
# sites each, so a block's arrays stay near 11 MiB each
_SUM_BLOCK = 1 << 16


class GaussianParams:
    """Periodized-Gaussian parameters: center mu, width sigma, period N, with
    a lattice sum f(mu, sigma) that does not underflow to 0.  The amplitudes
    and their angle schedule are N-periodic in mu, so mu is kept as the exact
    remainder fmod(mu, N): far from 0 the image sums would lose the position
    of each address against mu."""

    __slots__ = ("mu", "sigma", "n")

    def __init__(self, mu: float, sigma: float, n: int):
        if mu is None or not math.isfinite(mu):
            raise ValidationError(f"mu must be finite, got {mu}")
        n = nk.require_count(n, 2, "period")
        mu = math.fmod(mu, n)
        if f_mu_sigma(mu, sigma) == 0.0:  # f_mu_sigma also holds the one sigma rule
            raise ValidationError(f"f(mu, sigma) underflows to 0 at mu = {mu}, sigma = {sigma}")
        self.mu = mu
        self.sigma = sigma
        self.n = n


def binomial_amplitudes(n: int) -> np.ndarray:
    """Amplitudes sqrt(C(n, m)) / 2^(n/2) for m = 0..n (unit norm).

    The square root of the Binomial(n, 1/2) pmf, zero outside its window.
    """
    return np.sqrt(binom_pmf(nk.require_count(n, 1, "n"), 0.5))


def f_mu_sigma(mu, sigma: float):
    """Gaussian lattice normalizer f(mu, sigma) = sum_m exp(-(m - mu)^2 / (2 sigma^2)).

    ``mu`` is one centre (the result is a float) or an array of centres
    sharing the width (the result is an array).  f is 1-periodic in mu, so
    each centre is first reduced to its exact remainder fmod(mu, 1): far from
    0 the sites round to the float spacing of mu.  For sigma >= 1 it is
    evaluated through the dual theta series sqrt(2 pi sigma^2) (1 + 2 sum_l
    cos(2 pi l mu) q^(l^2)), truncated once the next term drops below the
    series cutoff (a single term already suffices for sigma >~ 1).  Below
    sigma = 1 that series cancels catastrophically when mu sits far from the
    lattice, so the lattice sum is taken directly; its positive terms fall
    off within a few sites.  Each centre's sites floor(mu - reach) ..
    ceil(mu + reach) are summed as one row, so a centre's sum does not
    depend on the others; rows are built _SUM_BLOCK centres at a time.
    Every sigma passes the one width rule 0 < 2 pi sigma^2 < inf: no
    exponent divides by 0 and the theta normalizer does not overflow.
    """
    if sigma is None or not (sigma > 0 and 0 < 2.0 * math.pi * sigma * sigma < math.inf):
        raise ValidationError(f"sigma needs 0 < 2 pi sigma^2 < inf, got {sigma}")
    mus = np.fmod(np.asarray(mu, dtype=float).reshape(-1), 1.0)
    if sigma < 1.0:
        reach = sigma * math.sqrt(-2.0 * math.log(SERIES_CUTOFF)) + 1.0
        lo = np.floor(mus - reach)
        count = (np.ceil(mus + reach) - lo + 1).astype(np.int64)
        total = np.empty(mus.size)
        for start in range(0, mus.size, _SUM_BLOCK):
            block = slice(start, start + _SUM_BLOCK)
            for c in np.unique(count[block]).tolist():  # at most two site counts
                rows = start + np.flatnonzero(count[block] == c)
                m = lo[rows, None] + np.arange(c)
                total[rows] = np.sum(np.exp(-((m - mus[rows, None]) ** 2) / (2.0 * sigma ** 2)),
                                     axis=1)
    else:
        total = np.ones(mus.size)
        l = 1
        while True:
            mag = 2.0 * math.exp(-2.0 * math.pi ** 2 * l ** 2 * sigma ** 2)
            if mag < SERIES_CUTOFF:
                break
            total += mag * np.cos(2.0 * math.pi * l * mus)
            l += 1
        total *= math.sqrt(2.0 * math.pi * sigma ** 2)
    return float(total[0]) if np.ndim(mu) == 0 else total


def discrete_gaussian_amplitudes(params: GaussianParams) -> np.ndarray:
    """Amplitudes of the periodized Gaussian on {0, ..., N-1} (unit norm).

    xi^2(m) = sum_l exp(-(m + l N - mu)^2 / (2 sigma^2)) / f(mu, sigma).  For
    sigma >= N the image sum is read as f((mu - m) / N, sigma / N), a few
    theta terms in place of ~17 sigma / N images; below N, where 1 / (sigma /
    N) would amplify the rounding of (mu - m) / N, its <= ~20 images are
    summed until the tail falls below the series cutoff.
    """
    mu, sigma, n = params.mu, params.sigma, params.n
    # the counts m, one image term and the running total: 24 bytes per count
    _require_memory(24 * n, "Gaussian amplitudes", f"arrays at N = {n}", "lower N")
    f = f_mu_sigma(mu, sigma)
    m = np.arange(n, dtype=float)
    if sigma >= n:
        return np.sqrt(f_mu_sigma((mu - m) / n, sigma / n) / f)
    # images with |m + l n - mu| > reach contribute below the cutoff
    reach = sigma * math.sqrt(-2.0 * math.log(SERIES_CUTOFF)) + 1.0
    l_lo = int(math.floor((mu - reach) / n)) - 1
    l_hi = int(math.ceil((mu + reach + n) / n)) + 1
    total = np.zeros(n)
    for l in range(l_lo, l_hi + 1):
        total += np.exp(-((m + l * n - mu) ** 2) / (2.0 * sigma ** 2))
    return np.sqrt(total / f)


def kw_angle_schedule(params: GaussianParams) -> list[np.ndarray]:
    """Rotation angles of the bit-recursive Gaussian synthesis, one level per
    address bit of the period ``params.n``, which must be a power of two.

    Level k holds 2^k nodes indexed by the low k address bits already fixed;
    the node angle alpha = arccos(sqrt(f(mu/2, sigma/2) / f(mu, sigma)))
    splits the remaining mass between the even (cos) and odd (sin) sublattice,
    where odd-branch recursion continues with (mu - 1) / 2.  Intermediate mu
    values are kept as exact reals (no rounding at odd mu).  A node whose
    lattice sum underflows to 0 carries no amplitude and takes angle 0.
    """
    depth = params.n.bit_length() - 1
    if params.n != 1 << depth:
        raise ValidationError(f"period {params.n} is not a power of two")
    # the N - 1 angles kept, and the last level's nodes, sums and N children:
    # 32 bytes per count
    _require_memory(32 * params.n, "angle schedule",
                    f"angles and node arrays at N = {params.n}", "lower N")
    mus = np.array([params.mu], dtype=float)
    sigma = params.sigma
    schedule = []
    for _ in range(depth):
        f_parent = f_mu_sigma(mus, sigma)
        f_even = f_mu_sigma(mus / 2.0, sigma / 2.0)
        ratio = np.divide(f_even, f_parent, out=np.ones_like(f_parent), where=f_parent > 0)
        bad = np.max(np.abs(np.clip(ratio, 0.0, 1.0) - ratio))
        if not bad <= 1e-12:
            raise ValidationError(f"branch ratio escapes [0, 1] by {bad:.3e}")
        schedule.append(np.arccos(np.sqrt(np.clip(ratio, 0.0, 1.0))))
        # path p picking bit b moves to p + b * 2^level, so the next level's
        # nodes are the even children followed by the odd children
        children = np.empty(2 * len(mus))
        children[: len(mus)] = mus / 2.0          # next bit 0
        children[len(mus):] = (mus - 1.0) / 2.0   # next bit 1
        mus = children
        sigma /= 2.0
    return schedule


def binomial_gaussian_distance(n: int) -> float:
    """l2 gap between the binomial amplitudes (restricted to m < N) and the
    matched periodized Gaussian (mu = N/2, sigma = sqrt(N)/2)."""
    if nk.require_count(n, 2, "n") % 2 != 0:
        raise ValidationError(f"n must be even, got {n}")
    a = binomial_amplitudes(n)[:n]
    xi = discrete_gaussian_amplitudes(GaussianParams(n / 2.0, math.sqrt(n) / 2.0, n))
    return float(np.linalg.norm(a - xi))
