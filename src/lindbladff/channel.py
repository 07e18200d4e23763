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
stay physical.  The weights, the Binomial(N, 1/2) mass folded mod P, have the
DFT (-1)^k cos(pi k / P)^N, so ``gap_kernel`` sums O(sqrt(log(1/eps))) terms.
Each term is the Dirichlet ratio of one class k (``_dirichlet_term``), which
the fast phase-estimation readout (``qpe.residue_spectrum``) reads at every
class instead of transforming a table of the P residue phases.

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


# math.pi = _PI_HI + _PI_MID, each times an integer |k| < 2^23 exact (30 and 23
# bits), and pi = math.pi + _PI_TAIL: so pi k - fl(pi k) comes to about 2^-100
_PI_HI = math.ldexp(math.floor(math.ldexp(math.pi, 28)), -28)
_PI_MID = math.pi - _PI_HI
_PI_TAIL = 1.2246467991473532e-16


def _dirichlet_term(k, x, period: int):
    """sin(s) e^{i s / P} / sin(s / P) at s = pi k + x, as its real and
    imaginary parts, for integers |k| < 2^23 (the range of the exact pi split)
    and a power of two P: the ``ff`` law's Fourier term at class k, which
    ``gap_kernel`` sums and ``qpe.residue_spectrum`` reads one by one.  The
    rounding of s (a two-sum) is taken into its sine and into sin(s / P) to
    first order, where pi k + x cancels; the ratio is P below |s| = 2^-30,
    where s / P may be subnormal.  k and x broadcast."""
    hi = np.pi * k
    lo = ((_PI_HI * k - hi) + _PI_MID * k) + _PI_TAIL * k   # pi k - hi
    s = hi + x
    v = s - hi
    e = (hi - (s - v)) + (x - v) + lo                 # pi k + x - s (Knuth's two-sum)
    sine, q = np.sin(s) + np.cos(s) * e, s / period
    low = np.sin(q) + np.cos(q) * (e / period)
    with np.errstate(divide="ignore", invalid="ignore"):  # P to the last bit below 2^-30
        return np.where(np.abs(s) < 2.0 ** -30, float(period), sine * np.cos(q) / low), sine


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


def gap_kernel(p: FFPlan, eigs_a: np.ndarray, eigs_b: np.ndarray) -> np.ndarray:
    """Fast-forward gap kernel sum_r w_r e^{-i (a - b) theta_r}, shape (len a, len b).

    Entry [i, j] multiplies the coherence between jump eigenvalues a_i and
    b_j; the ``ff`` channel applies it through ``Hamiltonian.dephase`` and
    ``gibbs_prepare`` reads one column of it against eigenvalue 0.  For an
    even N (checked) Poisson summation of the folded weights gives
    (1/P) sum_{|k| < P/2} c_k sin(s_k) e^{i s_k / P} / sin(s_k / P), c_k =
    cos(pi k / P)^N as exp((N / 2) log1p(-sin^2(pi k / P))) and s_k = pi k +
    B (a - b), B = ``ff_cost``'s Hamiltonian time: only the K terms with c_k
    >= 2^-60 (K solved for), the ratio P below |s_k| = 2^-30 (where s_k / P
    may be subnormal).  Each term reads its own sin(s_k), from the s_k its
    denominator reads, and takes the rounding of s_k (a two-sum) into both to
    first order: a shared numerator (-1)^k sin(B (a - b)) errs where pi k +
    B (a - b) cancels, an uncorrected s_k by 17 ulp at N = 16, P = 32, B = 64.
    Terms k and -k are added in pairs, so K(b, a) is conj K(a, b) bit for bit.
    """
    if p.n % 2:
        raise ValidationError(f"gap kernel needs an even register count, got {p.n}")
    nk.require_jump_norm(eigs_a)
    if eigs_b is not eigs_a:
        nk.require_jump_norm(eigs_b)
    period = p.period
    x = ff_cost(p).hamiltonian_time * (eigs_a[:, None] - eigs_b[None, :])
    # c_k >= 2^-60 while sin^2(pi k / P) <= 1 - 2^(-120 / N)
    reach = math.asin(math.sqrt(-math.expm1(-120.0 * math.log(2.0) / p.n)))
    real, imag = _dirichlet_term(0, x, period)                # c_0 = 1
    for k in range(1, min(period // 2 - 1, math.floor(period / math.pi * reach)) + 1):
        c = math.exp(0.5 * p.n * math.log1p(-math.sin(math.pi * k / period) ** 2))
        re_up, im_up = _dirichlet_term(k, x, period)
        re_down, im_down = _dirichlet_term(-k, x, period)
        real += c * (re_up + re_down)
        imag += c * (im_up + im_down)
    return (real + 1j * imag) / period


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
    its row.  That reads the kernel at M^2 pairs, not L^2 (for ``ff`` O(K M^2
    + L^2 M), not O(K L^2)), and the 1 keeps the rounding to the size of 1 -
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
