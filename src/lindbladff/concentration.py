"""Exact binomial tails and the matching concentration bounds.

These are reusable test oracles: the tail sums add up the exact pmf, read
from ``kernels.binom_pmf`` (the centre-out ratio recursion) and zero
outside its tail-bound window, which keeps every count whose pmf is at least
2^-1022 of the largest, Poisson-like tails of a small N p included.  The
Bernstein-style and Hoeffding bounds are checked against them.
``bernstein_bound`` is the stated form, with p(1-p)/2 + 2c/3 in its
denominator: it understates the Bernoulli variance by a factor 4 and is not
a valid bound (exact tails exceed it, first at N=16, p=1/2, c=1/4).  The
true-variance Bernstein denominator is 2p(1-p) + 2c/3.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from . import numkernel as nk
from .kernels import _require_memory, binom_pmf


def binomial_tail(n: int, p: float, c: float) -> float:
    """Exact mass of |m - N p| >= c N under Binomial(N, p); p is checked by
    the pmf's window (``kernels.binom_pmf_window``)."""
    n = nk.require_count(n, 0, "N")
    if not math.isfinite(c):
        raise ValidationError(f"c must be finite, got {c}")
    if c < 0:
        raise ValidationError(f"c must be nonnegative, got {c}")
    # the counts m, their distances |m - N p| and the pmf: 24 bytes per count
    _require_memory(24 * (n + 1), "binomial tail", f"tail arrays at N = {n}", "lower N")
    pmf = binom_pmf(n, p)
    return float(np.sum(pmf[np.abs(np.arange(n + 1) - n * p) >= c * n]))


def bernstein_bound(n: int, p: float, c: float) -> float:
    """2 exp(-N c^2 / (p(1-p)/2 + 2c/3)), the stated form.

    Kept as stated because the worked values pin it; it is not a valid tail
    bound.  The true-variance form has denominator 2p(1-p) + 2c/3.
    """
    if c == 0:
        return 2.0
    return 2.0 * math.exp(-n * c ** 2 / (0.5 * p * (1.0 - p) + 2.0 * c / 3.0))


def hoeffding_bound(n: int, c: float) -> float:
    """2 exp(-2 c^2 N)."""
    return 2.0 * math.exp(-2.0 * c ** 2 * n)

