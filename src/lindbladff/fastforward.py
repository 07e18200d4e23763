"""Quadratic fast-forwarding of the Hermitian-jump dephasing Lindbladian.

The simulated circuit prepares a binomial-amplitude address register, then
conjugates a bank of address-bit-controlled forward/backward evolutions by a
modular shift so that the sqrt(N)-wide bulk of the binomial mass drives the
correct evolution e^{-i H sqrt(t/N) (2m - N)}.  Because the register stays
diagonal throughout, the system action depends on the address m only through
its residue r(m) = (m - N/2 + 2^(d'-1)) mod 2^d', so the whole joint state is
represented exactly by 2^d' system vectors plus one weight per residue class.
That ledger is an exact description of the circuit (not an approximation) and
is what keeps register counts of 10^5..10^7 runnable at desk scale.

Nothing holds the whole ledger.  For every pure component it realizes the
level-pair ``gap_kernel`` sum_r w_r e^{-i (h_a - h_b) theta_r}, which the
``ff`` channel of ``channel.channel`` applies through ``Hamiltonian.dephase``.
Residue classes r and P - r carry opposite phases and mirror weights, so the
kernel is a cosine series over half the classes, summed in real arithmetic
from blocks of 256 phase-table rows, each one partial sum, in O(block +
levels^2) memory whatever the register count.  The fast phase-estimation
readout transforms the whole (P, L) phase table of the L levels it reads in
one FFT (``residue_spectrum``).

Address arithmetic is modulo 2^d (the d-bit register) rather than modulo N;
the shift maps the window bijectively either way and the out-of-window
components are realized as the periodic evolutions the circuit itself
produces, so they stay physical.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from . import numkernel as nk
from .dilated import CostReport, default_steps, step_root
from .kernels import binom_residue_weights

# Bits of the residue rows in one block of ``gap_kernel``: a block of
# 2^_SUM_BITS rows is one partial sum, so no long sequential accumulation
# loses digits against a partial sum near 1.
_SUM_BITS = 8


class FFPlan(NamedTuple):
    """Parameter bundle of one fast-forwarding run.

    ``window`` is the address interval driven exactly; everything outside it
    receives the periodic stand-in evolution.  ``full_window`` marks plans
    whose window covers every populated address (the simulation is then exact
    up to the binomial discretization).
    """

    t: float
    eps: float
    n: int                      # register count (even; ``gap_kernel`` enforces it)
    c: float                    # window half-width fraction
    d: int                      # address bits
    dprime: int                 # controlled bits
    window: tuple[int, int]
    full_window: bool = False
    note: str = ""

    @property
    def period(self) -> int:
        return 1 << self.dprime

    @property
    def shift(self) -> int:
        """Amount added to the address register by the modular shift."""
        return self.n // 2 - (1 << (self.dprime - 1))


def plan(t: float, eps: float, n_override: int | None = None) -> FFPlan:
    """Choose N, the window fraction c, and the register split (d, d').

    Defaults follow the first-order budget N = ``default_steps(t, eps)``,
    ceil(t^3 / eps^2) rounded up to even, and the window size that pins the
    discarded binomial mass at eps: c = sqrt(ln(2/eps) / 2) / sqrt(N).  N is
    even and the half-width 2^(d'-1) a power of two, so a window starting
    below 0 also ends at or past N: every window is full or inside [0, N].
    """
    nk.require_time(t)
    nk.require_eps(eps)
    note = ""
    if n_override is not None:
        n = nk.require_count(n_override, 2, "register count")
        if n % 2:
            n += 1
            note = f"odd register override rounded up to {n}"
    else:
        n = default_steps(t, eps)
        n += n % 2
    if 2.0 / eps == math.inf:  # a subnormal eps
        raise ValidationError(f"target error {eps} overflows the window's ln(2 / eps)")
    c = math.sqrt(math.log(2.0 / eps) / 2.0) / math.sqrt(n)
    if c * n < 1.0:
        raise ValidationError(
            f"window c*N = {c * n:.3f} < 1; increase N (or tighten eps) so the "
            f"window holds at least one address"
        )
    d = max(1, math.ceil(math.log2(n + 1)))
    dprime = min(math.ceil(math.log2(c * n)) + 1, d)
    half = 1 << (dprime - 1)
    window = (n // 2 - half, n // 2 + half - 1)
    full_window = window[0] <= 0 and window[1] >= n
    if not full_window and c >= 0.5:
        raise ValidationError(f"window fraction c = {c:.3f} >= 1/2 without full coverage")
    return FFPlan(float(t), float(eps), n, c, d, dprime, window, full_window, note)


def _phase_blocks(p: FFPlan, eigs: np.ndarray, rows: int, hi: int):
    """Rows [0, hi) of the phase table exp(-i h ``step_root(t, N)`` (2r - 2^d'))
    in blocks of shape (rows, n_levels); ``rows`` is a power of two.

    Row r is the product of the single uncontrolled backward factor and the
    d' bit evolutions selected by the bits of r, taken from the lowest bit
    up, mirroring how the circuit spends its evolution time.  The bit
    evolutions and the low-bit table (the uncontrolled factor doubled
    through the low bits: rows with the bit clear, then rows with it set)
    are made once per call; each block is that table times its own high
    bits.  Every row is the same left-to-right product, so a block equals
    its slice of the whole table bit for bit (but for blocks of one number).

    The product is also the more accurate table: against 40-digit mpmath on
    the levels {-1, -0.314, 0.707, 1} at t = 16, eps = 1e-3, it erred
    9.7e-16 and 8.8e-16 at P = 16384 and 131072, where exp(-i h theta_r)
    evaluated directly erred 1.8e-15 and 2.4e-15 (its argument carries the
    rounding of theta_r, about 20 rad there), and it moved the bytes of 7 of
    the 14 files tests/data/golden_*.jsonl.
    """
    low_bits = rows.bit_length() - 1
    root = step_root(p.t, p.n)
    fwd = [np.exp(-1j * eigs * root * (1 << j)) for j in range(p.dprime)]  # bit 1
    bwd = [np.exp(+1j * eigs * root * (1 << j)) for j in range(p.dprime)]  # bit 0
    table = np.exp(+1j * eigs * root)[None, :]  # uncontrolled factor
    for j in range(low_bits):
        table = np.concatenate((table * bwd[j], table * fwd[j]))
    # High bits multiply lines of ``wide`` rows by their factor repeated ``wide``
    # times: the same products, in inner loops of 256 numbers or more
    wide = min(rows, 1 << (255 // max(eigs.size, 1)).bit_length())
    lines = table.reshape(rows // wide, -1)
    high = [(np.tile(bwd[j], wide), np.tile(fwd[j], wide)) for j in range(low_bits, p.dprime)]
    for start in range(0, hi, rows):
        block = lines
        for j, factors in enumerate(high, low_bits):
            block = block * factors[(start >> j) & 1]
        yield block.reshape(table.shape)


def _residue_phases(p: FFPlan, eigs: np.ndarray) -> np.ndarray:
    """The whole phase table, shape (P, n_levels)."""
    return next(_phase_blocks(p, eigs, p.period, p.period))


def residue_spectrum(p: FFPlan, eigs: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The ledger's DFT per level, shape (P, L): coeffs[l] (1/P) w^(-k shift) sum_r
    w^(-k r) e^(-i eigs[l] theta_r), w = e^(2 pi i/P), once the jump norm is checked."""
    _check_norm(eigs)
    shift_phase = np.exp(-2j * math.pi * ((np.arange(p.period) * p.shift) % p.period) / p.period)
    spectrum = np.fft.fft(_residue_phases(p, eigs), axis=0)
    spectrum *= (shift_phase / p.period)[:, None] * coeffs
    return spectrum


JUMP_NORM_ATOL = 1e-9  # the one jump-norm rule: |h| <= 1 + this for every eigenvalue evolved


def _check_norm(eigs: np.ndarray):
    if float(np.max(np.abs(eigs))) > 1.0 + JUMP_NORM_ATOL:
        raise ValidationError("jump norm exceeds 1; normalize the spectrum and rescale time")


def gap_kernel(p: FFPlan, eigs_a: np.ndarray, eigs_b: np.ndarray) -> np.ndarray:
    """Fast-forward gap kernel sum_r w_r e^{-i (a - b) theta_r}, shape (len a, len b).

    Entry [i, j] multiplies the coherence between jump eigenvalues a_i and
    b_j; the ``ff`` channel applies it through ``Hamiltonian.dephase`` and
    ``gibbs_prepare`` reads one column of it against eigenvalue 0.  Classes r
    and P - r have opposite phases theta_r = sqrt(t/N) (2r - P) and mirror
    weights (equal up to rounding, for an even N, which is checked), so each
    pair adds (w_r + w_{P-r}) cos((a - b) theta_r): the sum runs over r in (0,
    P/2) as Re(x_r[a] conj(y_r[b])) of the phase table rows, real products of
    their real and of their imaginary parts, one partial sum per block of
    2^_SUM_BITS rows (all of (0, P/2) when shorter).  Class P/2 (theta = 0)
    adds its weight and the unpaired class 0 w_0 e^{i (a - b) B}, theta_0 =
    -B.  One spectrum (the same array) builds one table.
    """
    if p.n % 2:
        raise ValidationError(f"gap kernel needs an even register count, got {p.n}")
    _check_norm(eigs_a)
    _check_norm(eigs_b)
    weights = binom_residue_weights(p.n, p.period, -p.shift)
    half = p.period // 2
    fold = np.empty(half)
    fold[0] = 0.0  # class 0 has no partner; it is added below
    fold[1:] = weights[1:half] + weights[:half:-1]
    rows = 1 << min(_SUM_BITS, p.dprime - 1)
    total = np.full((eigs_a.size, eigs_b.size), weights[half])
    blocks_b = None if eigs_b is eigs_a else _phase_blocks(p, eigs_b, rows, half)
    for lo, x in zip(range(0, half, rows), _phase_blocks(p, eigs_a, rows, half)):
        y = x if blocks_b is None else next(blocks_b)
        for part in (np.real, np.imag):  # a contiguous right operand stays on BLAS
            total += (part(x).T * fold[lo:lo + rows]) @ np.ascontiguousarray(part(y))
    edge = ff_cost(p).hamiltonian_time
    return total + weights[0] * np.outer(np.exp(1j * edge * eigs_a), np.exp(-1j * edge * eigs_b))


def ff_cost(p: FFPlan) -> CostReport:
    """Cost of the fast-forwarded circuit: Hamiltonian time 2^d' sqrt(t / N),
    d' controlled factors plus one uncontrolled one, d address ancillas."""
    return CostReport(float(p.period) * step_root(p.t, p.n), p.dprime + 1, p.d)

