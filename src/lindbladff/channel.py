"""The one table of phase laws: the single-Hermitian-jump methods and the register.

Each method multiplies the coherence between levels a and b of the jump by
a function of the gap h_a - h_b, in the jump's eigenbasis: ``exact``,
exp(-t (h_a - h_b)^2 / 2); ``dilated``, cos(sqrt(t / N) (h_a - h_b))^N for N
steps (``dilated_kernel``); ``ff``, sum_r w_r e^{-i (h_a - h_b) theta_r}
(``gap_kernel``).  ``channel`` builds a method's kernel and cost
once, ``evolve`` applies the kernel through ``Hamiltonian.dephase``.
``standard``'s law, theta uniform on 2 pi {0, ..., 2^d - 1} (a d-bit Fourier
register), has the kernel 2^-d sum_j e^{-2 pi i (a - b) j}: ``qpe.estimate``
reads its outcome distribution, ``qpe.prepare`` its outcome-0 filter.

The ``dilated`` circuit is the baseline: each of its N steps adjoins a fresh
ancilla in |0>, evolves the pair under the block anti-diagonal dilation of
the jump for sqrt(t / N), and traces the ancilla out again.  A single step is
an exact CPTP channel; only the N-fold composition approximates the Lindblad
semigroup, with first-order accuracy in tau = t / N.  ``dilated_kernel``
composes the steps in closed form; the tests check it against the literal
circuit.

The ``ff`` circuit prepares a binomial-amplitude address register, then
conjugates a bank of address-bit-controlled forward/backward evolutions by a
modular shift, so that the sqrt(N)-wide bulk of the binomial mass drives
e^{-i H sqrt(t/N) (2m - N)}.  The register stays diagonal, so the system sees
the address m only through its residue r(m) = (m - N/2 + 2^(d'-1)) mod 2^d':
2^d' system vectors and one weight per residue class are the joint state
exactly, not an approximation, which keeps register counts of 10^5..10^7 at
desk scale.  Addresses are taken modulo 2^d (the d-bit register), not modulo
N: the shift maps the window bijectively either way, and the addresses
outside it take the periodic evolutions the circuit itself produces, so they
stay physical.  Classes r and P - r carry opposite phases and mirror weights,
so ``gap_kernel`` is a cosine series over half the classes.

Each kernel is E[e^{-i (a - b) theta}] over a phase law, so it is band
limited and ``node_count``'s Chebyshev points carry the evolving laws (it
refuses the ``standard`` lattice, which does not evolve): ``level_kernel``
interpolates a kernel from them to the levels of a spectrum, and
``evolve_matrix`` takes a state vector psi to psi psi^dag + Y C Y^dag, Y's
columns T_k(S) psi (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967, 1984), on
the matrix's own eigenvalues, where the eigenbasis path merges each cluster
into its first one: the two differ by at most sup |dK| times its width.
The independent oracles live with the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import ValidationError
from . import numkernel as nk
from .kernels import binom_residue_weights
from .model import Hamiltonian, SpectrumMap, normalize_levels, normalize_spectrum


class Channel(NamedTuple):
    """A method at time t (None for ``standard``) and count n (``dilated``'s steps,
    the ``ff`` plan's even N, ``standard``'s register bits, None for ``exact``): its
    gap kernel on any two eigenvalue arrays, shape (len a, len b), cost and ``ff`` plan."""

    method: str
    t: float | None
    n: int | None
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray]
    cost: nk.CostReport
    plan: FFPlan | None = None


def _dirichlet(theta: np.ndarray, d: int) -> np.ndarray:
    """sin(pi tw 2^d) / sin(pi tw) at theta wrapped to tw in [-1/2, 1/2], 2^d at
    integer theta: 1-periodic, its square the 2^d-outcome register's outcome ratio."""
    tw = theta - np.round(theta)
    s = np.sin(np.pi * tw)
    big = np.sin(np.pi * tw * (1 << d))
    return np.where(tw == 0.0, float(1 << d), big / np.where(tw == 0.0, 1.0, s))


def dilated_kernel(t: float, steps: int, eigs_a: np.ndarray, eigs_b: np.ndarray
                   ) -> np.ndarray:
    """Dilated gap kernel cos(sqrt(t / steps) (a - b))^steps, shape (len a, len b).

    Evaluated where |cos x| > 1/2 as sign(cos x)^steps * exp((steps / 2)
    log1p(-sin^2 x)), which keeps full relative accuracy where cos(x) rounds
    close to 1, and elsewhere as cos(x)^steps, since 1 - sin^2 x loses the
    digits of a small cos x (at one step, 7.45e-9 for 7.85e-9); the cost does
    not depend on ``steps``.  The ``dilated`` channel applies it, and the slow
    phase-estimation routes read that channel's column at eigenvalue 0.
    """
    x = nk.step_root(t, steps) * (eigs_a[:, None] - eigs_b[None, :])
    c = np.cos(x)
    with np.errstate(divide="ignore"):
        far = np.sign(c) ** steps * np.exp(0.5 * steps * np.log1p(-np.sin(x) ** 2))
    return np.where(np.abs(c) > 0.5, far, c ** steps)


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
        n = nk.default_steps(t, eps)
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
    root = nk.step_root(p.t, p.n)
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
    nk.require_jump_norm(eigs_a)
    if eigs_b is not eigs_a:
        nk.require_jump_norm(eigs_b)
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


def ff_cost(p: FFPlan) -> nk.CostReport:
    """Cost of the fast-forwarded circuit: Hamiltonian time 2^d' sqrt(t / N),
    d' controlled factors plus one uncontrolled one, d address ancillas."""
    return nk.CostReport(float(p.period) * nk.step_root(p.t, p.n), p.dprime + 1, p.d)


def channel(method: str, t: float | None, eps: float | None, n: int | None = None) -> Channel:
    """The ``exact``, ``dilated``, ``ff`` or ``standard`` channel for time t and count n.

    ``dilated`` runs n steps, ``default_steps(t, eps)`` when n is None, for
    Hamiltonian time n * sqrt(t / n) and one ancilla per step; ``ff`` runs
    ``plan(t, eps, n)``; ``exact`` costs nothing and reads no eps and no n;
    ``standard`` reads n alone, d <= 51 register bits, for 2^d - 1 evolutions.
    """
    if method not in ("exact", "dilated", "ff", "standard"):
        raise ValidationError(f"unknown channel method {method!r}; "
                              f"expected exact, dilated, ff or standard")
    if method == "ff":
        p = plan(t, eps, n)
        return Channel("ff", p.t, p.n, partial(gap_kernel, p), ff_cost(p), p)
    if method == "dilated":
        if n is None:
            n = nk.default_steps(t, eps)
        else:
            n = nk.require_count(n, 1, "step count")
            nk.require_time(t)
        return Channel("dilated", t, n, partial(dilated_kernel, t, n),
                       nk.CostReport(n * nk.step_root(t, n), n, n))
    if method == "standard":
        # rounding in pi tw 2^d: 0.59 rad at d = 51, 1.2 at d = 52 (2000 h against 60 digits)
        if (d := nk.require_count(n, 1, "register bits")) > 51:
            raise ValidationError(f"the standard route takes at most 51 register bits, "
                                  f"got {d}: past that the phases' rounding, scaled by 2^d, "
                                  f"reaches a radian")
        if t is not None or eps is not None:
            raise ValidationError("standard reads n alone, no t and no eps")
        def kernel(a, b):  # e^{-i pi x (2^d - 1)} D_d(x) / 2^d at x = a - b
            x = a[:, None] - b[None, :]
            return np.exp(-1j * np.pi * x * ((1 << d) - 1)) * _dirichlet(x, d) / (1 << d)
        return Channel("standard", None, d, kernel, nk.CostReport(float((1 << d) - 1), d, d))
    if n is not None:
        raise ValidationError("n is read by the dilated and ff methods, not by exact")
    nk.require_time(t)
    return Channel("exact", t, None,
                   lambda a, b: np.exp(-0.5 * t * (a[:, None] - b[None, :]) ** 2),
                   nk.CostReport(0.0, 0, 0))


def evolve(ham: Hamiltonian, state: np.ndarray, chan: Channel
           ) -> tuple[np.ndarray, nk.CostReport]:
    """``chan`` applied to a density matrix (checked by ``require_density``)
    or a state vector (see ``Hamiltonian.dephase``) of the jump ``ham``: the
    output density matrix and the channel's cost."""
    if np.ndim(state) != 1:
        state = nk.require_density(state)
    return ham.dephase(level_kernel(chan, ham.eigenvalues), state), chan.cost


def level_kernel(chan: Channel, h: np.ndarray) -> np.ndarray:
    """``chan``'s kernel on one spectrum h, shape (L, L).  Past its node count
    M < L levels it is 1 + Phi (K(x, x) - 1) Phi^T: K the kernel on M Chebyshev
    points x over [min h, max h], and Phi barycentric (Berrut and Trefethen,
    SIAM Review 46, 2004), a level on a node (or overflowing near one) taking
    its row.  That reads the kernel at M^2 pairs, not L^2 (for ``ff`` O(P M^2
    + L^2 M), not O(P L^2)), and the 1 keeps the rounding to the size of 1 -
    K.  At M >= L it is ``chan.kernel(h, h)``."""
    if (m := node_count(chan, float(np.ptp(h)), h.size)) < h.size:
        x = nk.chebyshev_points(float(h.min()), float(h.max()), m)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            phi = np.resize([1.0, -1.0], m) * np.r_[0.5, np.ones(m - 2), 0.5] / (h[:, None] - x)
            phi /= phi.sum(axis=1, keepdims=True)
        near = ~np.isfinite(phi).all(axis=1)
        phi[near] = np.eye(m)[np.abs(h[near, None] - x).argmin(axis=1)]
        return phi @ (chan.kernel(x, x) - 1.0) @ phi.T + 1.0
    return chan.kernel(h, h)


def node_count(chan: Channel, width: float, limit: int) -> int:
    """The first M >= 2 below ``limit`` (else ``limit``) at which M Chebyshev
    points interpolate ``chan``'s kernel over a normalized spectrum of
    ``width``: its coefficients are the mean of 2 J_m(theta width / 2) over
    the phase law (Jacobi-Anger), |J_m(z)| <= (z/2)^m / m!, so with h = width
    / 4 an interpolant errs by e <= 4 E (h |theta|)^M / M! / (1 - q), q bounding
    every later term ratio, a mean of products of two by 3e; M takes 3e <=
    2^-53 / 4.  ``ff``'s law is |theta| <= B, q = h B / (m + 1); ``exact``'s
    and ``dilated``'s N(0, t) (even moments at least ``dilated``'s), E
    |theta|^m = (2t)^(m/2) Gamma((m + 1)/2) / sqrt(pi), q = h sqrt(t (m + 2)) /
    (m + 1) (Gautschi).  ``standard``'s lattice, which no evolution takes
    (phase estimation, ``qpe.estimate`` and ``qpe.prepare``, reads it), is
    refused."""
    if chan.method == "standard":
        raise ValidationError("the standard channel does not evolve: evolve and evolve_matrix "
                              "take an exact, dilated or ff channel")
    bounded = chan.method == "ff"
    h, t = 0.25 * width * (chan.cost.hamiltonian_time if bounded else 1.0), chan.t
    term, ratio = 1.0, np.pi ** -0.5     # E (h |theta|)^m / m! and Gamma((m + 2)/2) / Gamma((m + 1)/2)
    for m in range(limit):
        q = h / (m + 1) if bounded else h * (t * (m + 2)) ** 0.5 / (m + 1)
        if m >= 2 and q < 1.0 and 48.0 * term / (1.0 - q) <= 2.0 ** -53:
            return m
        term *= q if bounded else h * (2.0 * t) ** 0.5 * ratio / (m + 1)
        ratio = 0.5 * (m + 1) / ratio
    return limit


def evolve_matrix(h: np.ndarray, state: np.ndarray, chan: Channel
                  ) -> tuple[np.ndarray, nk.CostReport, SpectrumMap]:
    """``evolve`` of ``normalize_spectrum(h)``, and its spectrum map; a state
    vector whose node count is below the dimension takes ``_node_form`` (on two
    levels or more, unmerged within the jump norm) and forms no eigenvectors."""
    h = nk.require_hermitian(h)
    if np.ndim(state) == 1:
        psi = nk.require_state(state, h.shape[0])
        w = np.linalg.eigvalsh(h)
        eigs, _, smap = normalize_levels(w)
        lo, hi = ((w[[0, -1]] - smap.shift) / smap.scale).tolist()
        if (eigs.size > 1 and hi <= 1.0 + nk.JUMP_NORM_ATOL
                and (m := node_count(chan, hi - lo, w.size)) < w.size):
            return _node_form(h, psi, chan, w, nk.chebyshev_points(lo, hi, m)), chan.cost, smap
    ham = normalize_spectrum(h)
    return (*evolve(ham, state, chan), ham.spectrum_map)


def _node_form(h: np.ndarray, psi: np.ndarray, chan: Channel, w: np.ndarray,
               x: np.ndarray) -> np.ndarray:
    """psi psi^dag + Y^T C conj(Y) on the M Chebyshev points x that span h's
    eigenvalues w, normalized: C = D (K(x, x) - 1) D^T holds the kernel's 2-D
    Chebyshev coefficients (D the cosine transform interpolating on x; the 1
    keeps the rounding at the size of 1 - K), and row k of Y is T_k(S) psi by
    the three-term recurrence, S = (2h - w_0 - w_last) / (w_last - w_0)."""
    n = x.size - 1
    d = np.cos(np.pi * (np.outer(np.arange(n + 1), np.arange(n + 1)) % (2 * n)) / n)
    d *= np.r_[0.5, np.ones(n - 1), 0.5] * (2.0 / n)
    d[[0, n]] *= 0.5
    c = d @ (chan.kernel(x, x) - 1.0) @ d.T
    s = h * (2.0 / (w[-1] - w[0]))
    s.flat[::w.size + 1] -= (w[0] + w[-1]) / (w[-1] - w[0])
    y = np.empty((n + 1, w.size), dtype=complex)
    y[0], y[1] = psi, s @ psi
    for k in range(2, n + 1):
        y[k] = 2.0 * (s @ y[k - 1]) - y[k - 2]
    return np.outer(psi, psi.conj()) + y.T @ c @ y.conj()
