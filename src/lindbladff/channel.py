"""The one table of phase laws: the single-Hermitian-jump methods and the register.

Each method multiplies the coherence between levels a and b of the jump by
a function of the gap h_a - h_b, in the jump's eigenbasis: ``exact``,
exp(-t (h_a - h_b)^2 / 2); ``dilated``, cos(sqrt(t / N) (h_a - h_b))^N for N
steps (``dilated.dilated_kernel``); ``ff``, sum_r w_r e^{-i (h_a - h_b)
theta_r} (``fastforward.gap_kernel``).  ``channel`` builds a method's kernel
and cost once, ``evolve`` applies the kernel through ``Hamiltonian.dephase``.
``standard``'s law, theta uniform on 2 pi {0, ..., 2^d - 1} (a d-bit Fourier
register), gives ``qpe.prepare`` the kernel 2^-d sum_j e^{-2 pi i (a - b) j}.

Each kernel is E[e^{-i (a - b) theta}] over a phase law, so it is band
limited and ``node_count``'s Chebyshev points carry it: ``level_kernel``
interpolates it from them to the levels of a spectrum, and ``evolve_matrix``
takes a state vector psi to psi psi^dag + Y C Y^dag, Y's columns T_k(S) psi
(Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967, 1984), on the matrix's own
eigenvalues, where the eigenbasis path merges each cluster into its first
one: the two differ by at most sup |dK| times its width.
The independent oracles live with the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import ValidationError
from . import numkernel as nk
from .dilated import CostReport, default_steps, dilated_kernel, step_root
from .fastforward import FFPlan, ff_cost, gap_kernel, plan
from .model import Hamiltonian, SpectrumMap, normalize_levels, normalize_spectrum


class Channel(NamedTuple):
    """A method at time t (None for ``standard``) and count n (``dilated``'s steps,
    the ``ff`` plan's even N, ``standard``'s register bits, None for ``exact``): its
    gap kernel on any two eigenvalue arrays, shape (len a, len b), cost and ``ff`` plan."""

    method: str
    t: float | None
    n: int | None
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray]
    cost: CostReport
    plan: FFPlan | None = None


def _dirichlet(theta: np.ndarray, d: int) -> np.ndarray:
    """sin(pi tw 2^d) / sin(pi tw) at theta wrapped to tw in [-1/2, 1/2], 2^d at
    integer theta: 1-periodic, its square the 2^d-outcome register's outcome ratio."""
    tw = theta - np.round(theta)
    s = np.sin(np.pi * tw)
    big = np.sin(np.pi * tw * (1 << d))
    return np.where(tw == 0.0, float(1 << d), big / np.where(tw == 0.0, 1.0, s))


def channel(method: str, t: float | None, eps: float | None, n: int | None = None) -> Channel:
    """The ``exact``, ``dilated``, ``ff`` or ``standard`` channel for time t and count n.

    ``dilated`` runs n steps, ``default_steps(t, eps)`` when n is None, for
    Hamiltonian time n * sqrt(t / n) and one ancilla per step; ``ff`` runs
    ``plan(t, eps, n)``; ``exact`` costs nothing and reads no eps and no n;
    ``standard`` reads n alone, d <= 51 register bits, for 2^d - 1 evolutions.
    """
    if method not in ("exact", "dilated", "ff", "standard"):
        raise ValidationError(f"unknown single-jump method {method!r}; expected exact, dilated or ff")
    if method == "ff":
        p = plan(t, eps, n)
        return Channel("ff", p.t, p.n, partial(gap_kernel, p), ff_cost(p), p)
    if method == "dilated":
        if n is None:
            n = default_steps(t, eps)
        else:
            n = nk.require_count(n, 1, "step count")
            nk.require_time(t)
        return Channel("dilated", t, n, partial(dilated_kernel, t, n),
                       CostReport(n * step_root(t, n), n, n))
    if method == "standard":
        # rounding in pi tw 2^d: 0.59 rad at d = 51, 1.2 at d = 52 (2000 h against 60 digits)
        if (d := nk.require_count(n, 1, "register bits")) > 51:
            raise ValidationError(f"standard-route preparation takes at most 51 register bits, "
                                  f"got {d}: past that the phases' rounding, scaled by 2^d, "
                                  f"reaches a radian")
        if t is not None or eps is not None:
            raise ValidationError("standard reads n alone, no t and no eps")
        def kernel(a, b):  # e^{-i pi x (2^d - 1)} D_d(x) / 2^d at x = a - b
            x = a[:, None] - b[None, :]
            return np.exp(-1j * np.pi * x * ((1 << d) - 1)) * _dirichlet(x, d) / (1 << d)
        return Channel("standard", None, d, kernel, CostReport(float((1 << d) - 1), d, d))
    if n is not None:
        raise ValidationError("n is read by the dilated and ff methods, not by exact")
    nk.require_time(t)
    return Channel("exact", t, None,
                   lambda a, b: np.exp(-0.5 * t * (a[:, None] - b[None, :]) ** 2),
                   CostReport(0.0, 0, 0))


def _require_node_law(chan: Channel) -> Channel:
    """``chan``, unless it is the ``standard`` lattice, which neither the node
    rule nor the counting readout holds for: ``qpe.prepare`` alone reads it."""
    if chan.method == "standard":
        raise ValidationError("the standard channel only prepares: evolve, evolve_matrix and "
                              "estimate take an exact, dilated or ff channel")
    return chan


def evolve(ham: Hamiltonian, state: np.ndarray, chan: Channel
           ) -> tuple[np.ndarray, CostReport]:
    """``chan`` applied to a density matrix (checked by ``require_density``)
    or a state vector (see ``Hamiltonian.dephase``) of the jump ``ham``: the
    output density matrix and the channel's cost."""
    _require_node_law(chan)
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
    if h.size > 2 and (m := node_count(chan, float(np.ptp(h)), h.size)) < h.size:
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
    (m + 1) (Gautschi)."""
    bounded = chan.plan is not None
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
                  ) -> tuple[np.ndarray, CostReport, SpectrumMap]:
    """``evolve`` of ``normalize_spectrum(h)``, and its spectrum map; a state
    vector whose node count is below the dimension takes ``_node_form`` (on two
    levels or more, unmerged within the jump norm) and forms no eigenvectors."""
    _require_node_law(chan)
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
