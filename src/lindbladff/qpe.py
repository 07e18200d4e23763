"""Phase estimation and preparation on a channel, and the amplitude-estimation
decision demo.

``estimate`` reads a channel's exact outcome distribution, and ``_readout``
picks one outcome from it and reads the outcome map and the cost off the
channel:

* a ``standard`` channel of d register bits: Fourier-basis phase estimation,
  the distribution from the Dirichlet kernel of the register
  (``channel._dirichlet``, summed by ``_standard_distribution``), outcome y
  read as y / 2^d.
* a ``dilated`` channel of N steps (the slow route): per-eigencomponent
  Binomial(N, sin^2(sqrt(t/N) h)), sqrt(t/N) the circuits' shared
  ``numkernel.step_root``, on their numerically relevant support, so N can
  reach 10^6 and beyond; or an ``ff`` channel of register count N (the
  fast route), its ledger read out through the symmetric-sector N-fold
  Hadamard (the Kravchuk transform).  Both read ``counting_estimator(t, N,
  m)``; the fast readout is the slow one within total variation 2 sqrt(out),
  out the Binomial(N, 1/2) mass outside the plan's window, for Hamiltonian
  time P sqrt(t/N) instead of N sqrt(t/N).

The fast readout never builds the (N+1)^2 transform.  Address m carries the
binomial amplitude a_m = sqrt(C(N, m) / 2^N) and the system vector s_r of its
residue r = (m - shift) mod P.  The residue mask is a DFT over the period,
1[r(m) = r] = (1/P) sum_k w^(k (m - shift - r)) with w = e^(2 pi i/P), and
sum_m a_m w^(k m) |m> is the product state ((|0> + w^k |1>) / sqrt 2)^N, which
the Hadamard maps to (alpha_k |0> + beta_k |1>)^N with
alpha_k = e^(i pi k/P) cos(pi k/P) and beta_k = -i e^(i pi k/P) sin(pi k/P).
Its Dicke amplitudes c_k[x] = sqrt(C(N, x)) alpha_k^(N-x) beta_k^x are the
square roots of the Binomial(N, sin^2(pi k/P)) pmf times a closed-form phase,
so the transformed rows are X[x] = sum_k c_k[x] s_hat_k with
s_hat_k = (1/P) w^(-k shift) sum_r w^(-k r) s_r.

The ledger is s_r = sum_l e^(-i h_l theta_r) comps_l over orthogonal
eigencomponents of weight w_l, so X[x] = sum_l g_l[x] comps_l and the count
distribution is sum_l w_l |g_l[x]|^2, with g_l read from the scalar FFT of
level l's phase table.  Columns k and P - k share one pmf.  Each pmf is
touched on its precision window, where sqrt(pmf) is at least 2^-53 of the
column maximum, sized by a Chernoff tail bound: about 13 sigma wide for large
N sin^2, never under the Poisson-like tails near k = 0.  That is
O(P sqrt(N) L) time for L read levels and O(N L) memory, one complex row of
N + 1 counts per level.

Preparation (``prepare`` on a ``standard``, ``dilated`` or ``ff`` channel)
takes any target eigenspace beta of the spectrum it is given: it reads the
gaps g_l = (h_l - h_beta) / max|h - h_beta|, which put the target at 0 and
the farthest level at unit distance (halved on the 1-periodic ``standard``
lattice), and post-selects count 0 (``_postselect``), scaling eigencomponent
l by the channel kernel's column at the target.  That needs no transform:
row 0 of the symmetric-sector Hadamard is the binomial amplitude vector, so
X[0] = sum_r w_r s_r scales eigencomponent l by sum_r w_r e^(-i g_l theta_r).

Sampling a count draws on the distribution's support only (``_pick_outcome``),
so no route holds more than a few arrays of its register size.  The standard
route sums its distribution in fixed blocks of 2^14 outcomes, all levels into
one block before the next: an exact-mode call holds the 2^d distribution
(32 MiB at d = 22) and O(block) scratch, whatever the level count.  Every
route checks its register-sized arrays, and sample mode its draws, against
the physical memory before it builds them (``kernels._require_memory``).

An estimate reads the levels of weight above (4 dim 2^-53)^2, the square of the
rounding that ``decompose_state``'s amplitudes carry (``_read_levels``): lighter
ones, like an exact eigenstate's other levels, are noise that would cost register
rows.  Preparation reads every level, as post-selection amplifies a light target.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvariantError, ValidationError
from . import numkernel as nk
from .channel import Channel, FFPlan, _dirichlet, _residue_phases, channel
from .kernels import _require_memory, binom_pmf_window
from . import model
from .model import (Hamiltonian, SpectralState, decompose_state,
                    normalize_spectrum, spectral_gap)


class EstimationResult(NamedTuple):
    """One eigenvalue-estimation outcome (estimate in original spectrum units)."""

    estimate: float
    estimate_normalized: float
    raw_outcome: int
    distribution: np.ndarray
    cost: nk.CostReport
    saturated: bool = False


class PreparationResult(NamedTuple):
    """Post-selected eigenstate preparation summary."""

    postselect_probability: float
    overlap: float
    state: np.ndarray
    expected_repeats: float
    ideal_amplification_queries: float
    overlap_bound: float
    cost: nk.CostReport


# ---------------------------------------------------------------------------
# Standard (Fourier) route
# ---------------------------------------------------------------------------

# Outcomes per block of the standard route's distribution.
_STANDARD_BLOCK = 1 << 14


def _read_levels(state: SpectralState) -> np.ndarray:
    """The levels an estimate reads: weight above (4 dim 2^-53)^2, since each
    amplitude ||P_l v|| is a dim-term sum carrying about dim 2^-53 of rounding."""
    return np.flatnonzero(state.weights > (4 * state.components.shape[1] * 2.0 ** -53) ** 2)


def _standard_distribution(ham: Hamiltonian, state: SpectralState, d: int) -> np.ndarray:
    """The d-bit Fourier register's outcome distribution, summed in blocks of
    ``_STANDARD_BLOCK`` outcomes, each entry as over the whole grid."""
    size = 1 << d
    _require_memory(8 * size, "standard route", f"distribution at d = {d}", "lower d")
    read = _read_levels(state)
    dist = np.zeros(size)
    for lo in range(0, size, _STANDARD_BLOCK):
        block = dist[lo: lo + _STANDARD_BLOCK]
        ys = np.arange(lo, lo + block.size) / size
        for h, w in zip(ham.eigenvalues[read], state.weights[read]):
            block += w * _dirichlet(h - ys, d) ** 2
    dist /= 4 ** d
    return dist


def _postselect(state: SpectralState, beta: int, amp: np.ndarray, bound: float,
                slack: float, cost: nk.CostReport) -> PreparationResult:
    """Post-selection that scales eigencomponent l by the filter ``amp[l]``.

    The outcome has probability p0 = sum_l w_l |amp_l|^2 and leaves the
    normalized state sum_l c_l amp_l comps_l / sqrt(p0), whose overlap with
    eigenspace beta is w_beta |amp_beta|^2 / p0; an overlap below
    ``bound - slack`` raises ``InvariantError``.
    """
    c_beta = float(state.coeffs[beta])
    if c_beta == 0.0:
        raise ValidationError(f"state has no weight on eigenspace {beta}")
    kept = state.weights * np.abs(amp) ** 2
    p0 = float(np.sum(kept))
    overlap = float(kept[beta] / p0)
    if overlap < bound - slack:
        raise InvariantError(f"overlap {overlap} violates its bound {bound}")
    return PreparationResult(
        postselect_probability=p0,
        overlap=overlap,
        state=(state.coeffs * amp) @ state.components / math.sqrt(p0),
        expected_repeats=1.0 / p0,
        ideal_amplification_queries=1.0 / c_beta,
        overlap_bound=float(bound),
        cost=cost,
    )


# ---------------------------------------------------------------------------
# Slow counting distribution, sampler and readout
# ---------------------------------------------------------------------------

def _counting_distribution(weights: np.ndarray, qs: np.ndarray, n: int) -> np.ndarray:
    dist = np.zeros(n + 1)
    for w, q in zip(weights, qs):
        lo, pm = binom_pmf_window(n, float(q))
        dist[lo: lo + pm.size] += w * pm
    return dist


# Outcomes per block of the sampler's cumulative sum.
_SAMPLE_BLOCK = 1 << 16


def _sample_counts(dist: np.ndarray, seed, size: int) -> np.ndarray:
    """``size`` outcomes drawn from ``dist`` by inverse CDF, in O(block) scratch.

    ``Generator.choice(dist.size, p=dist / dist.sum())`` takes the sequential
    cumulative sum of p, divides it by its last value and searches it (side
    "right") for ``Generator.random(size)``.  Here that cumulative sum is
    carried through blocks of ``_SAMPLE_BLOCK`` outcomes, twice: one pass
    finds its last value, the next normalizes each block and resolves the
    draws that fall in it.  All-zero blocks are skipped, so a distribution
    on narrow windows costs little more than its support.  Every value is
    the one the whole cumulative sum holds, so the outcomes are choice's,
    without its register-sized copies.
    """
    total = dist.sum()
    if not (np.isfinite(total) and total > 0):
        raise InvariantError("outcome distribution is not finite or all zero")

    def blocks():
        carry = 0.0
        for lo in range(0, dist.size, _SAMPLE_BLOCK):
            block = dist[lo: lo + _SAMPLE_BLOCK]
            if not block.any():
                continue  # adds nothing to the cumulative sum and holds no draw
            if block.min() < 0:
                raise InvariantError("outcome distribution has a negative entry")
            cdf = block / total
            cdf[0] += carry
            np.cumsum(cdf, out=cdf)
            carry = cdf[-1]
            yield lo, cdf

    for _, cdf in blocks():
        pass
    last = cdf[-1]
    draws = np.random.default_rng(seed).random(size)
    picks = np.empty(size, dtype=np.int64)
    start = 0.0  # normalized cumulative sum before the block
    for lo, cdf in blocks():
        cdf /= last
        inside = (draws >= start) & (draws < cdf[-1])
        picks[inside] = lo + np.searchsorted(cdf, draws[inside], side="right")
        start = cdf[-1]
    return picks


def _pick_outcome(dist: np.ndarray, mode: str, seed, repeats: int = 1) -> int:
    """Single-shot outcome by default; repeats > 1 reports the sample median."""
    repeats = nk.require_count(repeats, 1, "repeats")
    if mode == "exact":
        return int(np.argmax(dist))
    if mode == "sample":
        # each draw holds a uniform variate and its picked outcome
        _require_memory(16 * repeats, "sample mode", f"draws for {repeats} repeats",
                        "lower repeats")
        return int(np.median(_sample_counts(dist, seed, repeats)))
    raise ValidationError(f"unknown mode {mode!r}")


def _readout(ham: Hamiltonian, dist: np.ndarray, chan: Channel, mode: str, seed,
             repeats: int) -> EstimationResult:
    """Pick an outcome from ``dist`` and report its estimate and ``chan``'s cost:
    outcome y of a ``standard`` register reads y / 2^d, count m of any other
    channel ``counting_estimator(t, N, m)``."""
    y = _pick_outcome(dist, mode, seed, repeats)
    est, sat = ((y / (1 << chan.n), False) if chan.method == "standard" else
                counting_estimator(chan.t, chan.n, y))
    return EstimationResult(
        estimate=float(ham.spectrum_map.to_original(est)),
        estimate_normalized=float(est),
        raw_outcome=int(y),
        distribution=dist,
        cost=chan.cost,
        saturated=bool(sat),
    )


def counting_estimator(t: float, n: int, m) -> tuple[np.ndarray, np.ndarray]:
    """Normalized-eigenvalue estimate sqrt(N/t) arcsin(sqrt(m/N)) with clamp;
    sqrt(N) / sqrt(t) where N/t overflows (a subnormal t), so count 0 reads 0."""
    frac = np.clip(np.asarray(m, dtype=float) / n, 0.0, 1.0)
    saturated = frac >= 1.0
    scale = math.sqrt(n / t) if n / t < math.inf else math.sqrt(n) / math.sqrt(t)
    return scale * np.arcsin(np.sqrt(frac)), saturated


# ---------------------------------------------------------------------------
# Fast route: Kravchuk readout through the product-state identity
# ---------------------------------------------------------------------------

def _alpha_phases(n: int, period: int) -> np.ndarray:
    """sigma^N e^(i N theta) for theta = pi k / P, k = 0..P-1, sigma = sign(cos theta)."""
    k = np.arange(period)
    return np.where(2 * k > period, -1, 1) ** n * np.exp(1j * np.pi * ((n * k) % (2 * period)) / period)


def residue_spectrum(p: FFPlan, eigs: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The ledger's DFT per level, shape (P, L): coeffs[l] (1/P) w^(-k shift) sum_r
    w^(-k r) e^(-i eigs[l] theta_r), w = e^(2 pi i/P), once the jump norm is checked."""
    nk.require_jump_norm(eigs)
    shift_phase = np.exp(-2j * math.pi * ((np.arange(p.period) * p.shift) % p.period) / p.period)
    spectrum = np.fft.fft(_residue_phases(p, eigs), axis=0)
    spectrum *= (shift_phase / p.period)[:, None] * coeffs
    return spectrum


def _level_rows(spectrum: np.ndarray, n: int) -> np.ndarray:
    """Transformed rows g_l[x] = sum_k c_k[x] spectrum[k, l], shape (L, N+1).

    c_k[x] = sqrt(pmf_k(x)) (-i)^(sigma_k x) times the alpha phase, with
    pmf_k = Binomial(N, sin^2(pi k/P)), so columns k and P - k share their pmf
    and differ in the sign of the (-i)^x exponent: over a pair, even x gains
    +-sqrt(pmf) (a + b) and odd x gains +-sqrt(pmf) (-i)(a - b), with a, b
    the two phased spectrum rows and the sign + for x = 0, 1 mod 4.  Each pmf
    is touched only on its precision window.
    """
    period = spectrum.shape[0]
    coef = spectrum * _alpha_phases(n, period)[:, None]
    rows = np.zeros((coef.shape[1], n + 1), dtype=complex)
    for k in range(period // 2 + 1):
        lo, pmf = binom_pmf_window(n, math.sin(math.pi * k / period) ** 2, amplitude=True)
        amp = np.sqrt(pmf)
        amp[(2 - lo) % 4::4] *= -1.0
        amp[(3 - lo) % 4::4] *= -1.0
        mirror = coef[period - k] if 0 < k < period - k else 0.0
        even = lo % 2
        hi = lo + amp.size
        rows[:, lo + even: hi: 2] += np.multiply.outer(coef[k] + mirror, amp[even::2])
        rows[:, lo + 1 - even: hi: 2] += np.multiply.outer(-1j * (coef[k] - mirror),
                                                           amp[1 - even::2])
    return rows


def _fast_distribution(ham: Hamiltonian, state: SpectralState, p: FFPlan) -> np.ndarray:
    """Count distribution sum_l |g_l[x]|^2 of the transformed ledger.

    The eigencomponents are orthogonal, so |X[x]|^2 splits over the levels;
    the weights w_l ride in the spectrum.  |g|^2 is summed through a float
    view of the rows, with no (L, N+1) temporary.
    """
    read = _read_levels(state)
    _require_memory(16 * read.size * (p.n + 1), "fast route",
                    f"ledger rows at N = {p.n}", "lower N or raise eps")
    rows = _level_rows(residue_spectrum(p, ham.eigenvalues[read], state.coeffs[read]), p.n)
    parts = rows.view(float).reshape(rows.shape[0], -1, 2)
    return np.einsum("lxc,lxc->x", parts, parts)


# ---------------------------------------------------------------------------
# Estimation and preparation on a dilated (slow), ff (fast) or standard channel
# ---------------------------------------------------------------------------

def _require_estimation(chan: Channel):
    if chan.method not in ("dilated", "ff", "standard"):
        raise ValidationError(f"phase estimation takes a dilated, ff or standard channel, "
                              f"not {chan.method}")


def _root_in_range(h: np.ndarray, chan: Channel) -> float:
    """``step_root(t, N)`` of ``chan``, refused past the range guard sqrt(t/N) max|h| <= pi/2."""
    root = nk.step_root(chan.t, chan.n)
    reach = root * float(np.max(np.abs(h)))
    if reach > 0.5 * math.pi:
        raise ValidationError(f"sqrt(t/N) max|h| = {reach:.3g} > pi/2 leaves the monotone "
                              f"estimator range; increase N")
    return root


def estimate(ham: Hamiltonian, state: SpectralState, chan: Channel,
             mode: str = "exact", seed=None, repeats: int = 1) -> EstimationResult:
    """The exact outcome distribution of ``chan`` and an outcome read from it
    (``_readout``): the Fourier register's on a ``standard`` channel of d bits,
    the counting statistics of a ``dilated`` or ``ff`` channel of count N."""
    _require_estimation(chan)
    if chan.method == "standard":
        dist = _standard_distribution(ham, state, chan.n)
    else:
        root = _root_in_range(ham.eigenvalues, chan)
        if chan.plan is not None:
            dist = _fast_distribution(ham, state, chan.plan)
        else:
            _require_memory(8 * (chan.n + 1), "slow route", f"distribution at N = {chan.n}",
                            "lower N")
            read = _read_levels(state)
            dist = _counting_distribution(state.weights[read],
                                          np.sin(root * ham.eigenvalues[read]) ** 2, chan.n)
    return _readout(ham, dist, chan, mode, seed, repeats)


def prepare(ham: Hamiltonian, state: SpectralState, beta: int, chan: Channel
            ) -> PreparationResult:
    """Post-select count 0 on ``chan`` to filter eigenspace ``beta``.  Every
    route reads the gaps g = h - h_beta stretched to unit radius, g / max|g|, so
    the result depends on the spectrum only up to a positive scale and shift;
    the ``standard`` filter is 1-periodic in the gap, so that route halves them
    into [-1/2, 1/2].  Its bound is w / (w + (1 - w) / (4 (2^d gap)^2)); the
    ``dilated`` one, w / (w + (1 - w) e^(-t gap^2)), holds in the estimator's
    range; the ``ff`` one is the inaccuracy chain: with sqrt(eps) = c_beta zeta and
    the unwindowed (``dilated``) overlap at 1 - zeta, the windowed one stays above
    1 - 6 zeta, its amplitude above c_beta - sqrt(eps)."""
    _require_estimation(chan)
    gap = spectral_gap(ham, beta)
    g = ham.eigenvalues - ham.eigenvalues[beta]
    widest = float(np.max(np.abs(g)))
    g, gap = g / widest, gap / widest
    zero, p = np.zeros(1), chan.plan
    c_beta, w = float(state.coeffs[beta]), state.weights[beta]
    if chan.method == "standard":
        g, gap = 0.5 * g, 0.5 * gap
        bound = w / (w + (1.0 - w) / (4.0 * ((1 << chan.n) * gap) ** 2))
        slack = 1e-10
    elif p is None:
        _root_in_range(g, chan)
        bound = w / (w + (1.0 - w) * math.exp(-chan.t * gap ** 2))
        slack = 1.0 / chan.n + 1e-10
    else:
        zeta = math.sqrt(p.eps) / c_beta if c_beta > 0 else math.inf
        bound, slack = 0.0, 1e-9
        if zeta < 1.0 / 6.0:
            plain = channel("dilated", p.t, None, n=p.n).kernel(g, zero)[:, 0]
            if w / np.sum(state.weights * plain ** 2) >= 1.0 - zeta:
                bound = 1.0 - 6.0 * zeta
    prep = _postselect(state, beta, chan.kernel(g, zero)[:, 0], bound, slack, chan.cost)
    root_p0 = math.sqrt(prep.postselect_probability)
    if p is not None and root_p0 < c_beta - math.sqrt(p.eps) - 1e-9:
        raise InvariantError(f"postselect amplitude {root_p0} fell below c_beta - sqrt(eps)")
    return prep


# ---------------------------------------------------------------------------
# Amplitude-estimation decision demo
# ---------------------------------------------------------------------------

class AmplitudeDecision(NamedTuple):
    decided_zero: bool
    correct: bool
    estimation: EstimationResult


class AmplitudeProblem(NamedTuple):
    """Seed-independent part of the decision demo for one oracle.

    ``distribution`` is the fast readout's count distribution on ``channel``;
    each run only samples a count from it and compares its phase with ``threshold``.
    """

    ham: Hamiltonian
    channel: Channel
    distribution: np.ndarray
    threshold: float
    amplitude: float
    witness_count: int


def amplitude_problem(n: int, witnesses: int, t: float = 250.0, register_n: int = 2048,
                      eps: float = 1e-5) -> AmplitudeProblem:
    """Phase-estimation problem of the search iterate of an n-bit oracle with
    ``witnesses`` marked addresses, built once per oracle.

    The iterate rotates span{|good>, |bad>} by 2 theta, sin theta = sqrt(W/2^n),
    and is +-1 on the rest of its 2^(n+1) dimensions (Brassard, Hoyer, Mosca
    and Tapp, Contemp. Math. 305, 2002), so its principal logarithm has the
    levels {-2 theta, 0, 2 theta, pi} and the flagged uniform state weight 1/2
    on each of +-2 theta; at W = 0 or 2^n it is the level 0 or pi itself.
    Level 0 is the flag-1 complement and pi the flag-0 one: both are empty at
    n = 0 and carry no weight otherwise, but they set the spectrum map.  An n
    whose one-witness levels +-2 asin(2^(-n/2)) would cluster with level 0
    is refused.
    """
    n = nk.require_count(n, 0, "address bits")
    if not 2.0 * math.asin(math.sqrt(math.ldexp(1.0, -n))) > model.CLUSTER_RTOL * math.pi:
        raise ValidationError(f"n = {n} address bits: need one witness's levels "
                              f"+-2 asin(2^(-n/2)) farther from 0 than the clustering tolerance")
    witnesses = nk.require_count(witnesses, 0, "witness count")
    if witnesses > 1 << n:
        raise ValidationError(f"witness count must lie in [0, 2^n = {1 << n}], got {witnesses}")
    amplitude = 2.0 ** (-n / 2.0) * math.sqrt(witnesses)
    if n == 0:  # no complement: the iterate is +1 (W = 0) or -1 (W = 1)
        levels, weights = [math.pi if witnesses else 0.0], [1.0]
    elif witnesses in (0, 1 << n):  # the state is the +1 or the -1 eigenvector
        levels, weights = [0.0, math.pi], ([0.0, 1.0] if witnesses else [1.0, 0.0])
    else:
        rotation = 2.0 * math.asin(amplitude)
        levels, weights = [-rotation, 0.0, rotation, math.pi], [0.5, 0.0, 0.5, 0.0]
    ham = normalize_spectrum(np.diag(levels))
    state = decompose_state(np.sqrt(weights), ham)
    chan = channel("ff", t, eps, n=register_n)
    return AmplitudeProblem(ham, chan, estimate(ham, state, chan).distribution,
                            math.asin(2.0 ** (-n / 2.0)), amplitude, witnesses)


def decide_amplitude(problem: AmplitudeProblem, mode: str = "sample",
                     seed=None) -> AmplitudeDecision:
    """One decision run: sample a count and compare its phase to the threshold."""
    result = _readout(problem.ham, problem.distribution, problem.channel, mode, seed, 1)
    decided_zero = abs(result.estimate) <= problem.threshold
    return AmplitudeDecision(decided_zero, decided_zero == (problem.witness_count == 0), result)

