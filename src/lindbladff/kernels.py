"""Hot binomial kernels of the fast-forwarded simulator, in numpy.

The two kernels below dominate the runtime of large fast-forwarding plans
(register counts up to ~10^7; a few ms per call at N = 10^7).  They follow
one summation order, and that order is the contract that keeps records
byte-stable on any numpy/BLAS build:

* the unnormalized pmf is 1 at the centre (``round(N p)`` for the pmf window,
  ``N // 2`` for the residue weights, whose window is the pmf window's at
  p = 1/2) and is extended outward by a running
  product of the ratios ``(N-m)/(m+1) * odds`` upward and
  ``m/(N-m+1) / odds`` downward, with ``odds = p/(1-p)``;
* values are accumulated sequentially: residue bins and the normalizing total
  in the order centre, upward terms, downward terms; the pmf window's total
  in window order (low to high).

The running products are spelled ``np.cumprod``, the bin sums ``np.bincount``
and the totals ``np.cumsum(...)[-1]``, all of which accumulate in input
order; the tests check both kernels bit for bit against a plain-Python loop
transcription of this order.

The pmf slices are normalized by their own sum.  Every window is the one
tail bound of ``_support``: it holds each count whose pmf is at least a floor
times the largest.  The pmf window's floor, ``PMF_FLOOR`` = 2^-1022, keeps
every value a normal double holds relative to the peak, so this recovers the
exact distribution, Poisson-like tails of a small N p included, while
sidestepping the loss of significance that large-argument log-gamma
differences would introduce.  The amplitude window, for readouts that
multiply sqrt(pmf), keeps only the entries with sqrt(pmf) at least 2^-53 of
the largest; what it leaves out cannot move a double-precision sum of
amplitudes.

Every window's tail bound is checked against the physical memory before its
running products are built (``_require_memory``, which the phase-estimation
routes share), so an eps small enough to ask for more counts than the machine
holds exits 1 with one line instead of failing inside numpy.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import CapacityError, ValidationError

# The pmf window keeps pmf >= PMF_FLOOR times the largest entry, every normal
# double relative to the peak; the amplitude window keeps pmf >=
# AMPLITUDE_FLOOR times it, i.e. sqrt(pmf) >= 2^-53 of the largest amplitude.
PMF_FLOOR = 2.0 ** -1022
AMPLITUDE_FLOOR = 2.0 ** -106


def _require_memory(nbytes: int, route: str, what: str, remedy: str):
    """Raise ``CapacityError`` when ``nbytes`` exceed the physical memory.

    The size is printed through ``Decimal``, which holds any integer a float
    cannot (d = 2000 register bits ask for 2^2003 bytes)."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > memory:
        from decimal import Decimal
        raise CapacityError(
            f"{route} needs {Decimal(int(nbytes)) / 2**30:.3g} GiB of {what}, "
            f"more than the {memory / 2**30:.1f} GiB of physical memory; {remedy}")


def _centre_out(n: int, center: int, lo: int, hi: int, odds: float):
    """Running products from the centre: up to ``hi`` and down to ``lo``."""
    m = np.arange(center, hi)
    up = np.cumprod((n - m) / (m + 1.0) * odds)
    m = np.arange(center, lo, -1)
    down = np.cumprod(m / (n - m + 1.0) / odds)
    return up, down


def _support(n: int, p: float, floor: float) -> tuple[int, int]:
    """An integer interval holding every m with pmf(m) >= floor * max pmf.

    Chernoff's bound pmf(m) <= exp(-n KL(m/n || p)) and Bernstein's lower
    bound on that exponent, n KL >= t^2 / (2 (npq + t/3)) at t = |m - np|,
    together with max pmf >= 1/(n+1), put pmf(m) / max pmf below the floor
    once t exceeds the root of t^2 = 2c (npq + t/3), c = ln((n+1)/floor),
    taken as a difference of logs since (n+1)/floor overflows at PMF_FLOOR.
    Unlike a multiple of sigma, this also covers the Poisson-like tails of a
    small np.  The bound's own width is checked against the memory, since
    past n p ~ 1e33 the float ends n p +- t collapse onto fewer counts.
    """
    c = math.log(n + 1.0) - math.log(floor)
    t = c / 3.0 + math.sqrt(c * c / 9.0 + 2.0 * c * n * p * (1.0 - p))
    _require_memory(8 * (2 * math.ceil(t) + 1), "binomial window", "running products",
                    "raise eps or lower N")
    return max(math.floor(n * p - t), 0), min(math.ceil(n * p + t), n)


def binom_pmf_window(n: int, p: float, amplitude: bool = False
                     ) -> tuple[int, np.ndarray]:
    """Binomial(n, p) pmf on its numerically relevant support.

    Returns ``(m_lo, w)`` where ``w[k]`` is the pmf at ``m_lo + k``; the slice
    is normalized to sum to one.  Degenerate ``p`` values give a point mass.
    The support is the tail-bound window of ``_support``, which keeps every
    entry at least ``PMF_FLOOR`` times the largest one (and some below it);
    ``amplitude`` picks ``AMPLITUDE_FLOOR`` instead.
    """
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must be in [0, 1], got {p}")
    if p == 0.0:
        return 0, np.array([1.0])
    if p == 1.0:
        return n, np.array([1.0])
    lo, hi = _support(n, p, AMPLITUDE_FLOOR if amplitude else PMF_FLOOR)
    center = min(max(int(round(n * p)), lo), hi)
    up, down = _centre_out(n, center, lo, hi, p / (1.0 - p))
    w = np.concatenate((down[::-1], [1.0], up))
    w /= np.cumsum(w)[-1]
    return lo, w


def binom_pmf(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) pmf over m = 0..n: the pmf window, zero outside it."""
    _require_memory(8 * (n + 1), "binomial pmf", f"pmf at N = {n}", "lower N")
    lo, w = binom_pmf_window(n, p)
    out = np.zeros(n + 1)
    out[lo: lo + w.size] = w
    return out


def binom_residue_weights(n: int, period: int, offset: int) -> np.ndarray:
    """Binomial(n, 1/2) mass aggregated by the residue class (m + offset) mod period."""
    lo, hi = _support(n, 0.5, PMF_FLOOR)
    center = n // 2
    up, down = _centre_out(n, center, lo, hi, 1.0)
    values = np.concatenate(([1.0], up, down))
    m = np.concatenate(([center], np.arange(center + 1, hi + 1),
                        np.arange(center - 1, lo - 1, -1)))
    out = np.bincount((m + offset) % period, weights=values, minlength=period)
    out /= np.cumsum(values)[-1]
    return out
