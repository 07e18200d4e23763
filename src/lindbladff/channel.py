"""The one table of single-Hermitian-jump methods.

Each method multiplies the coherence between levels a and b of the jump by
a function of the gap h_a - h_b, in the jump's eigenbasis: ``exact``,
exp(-t (h_a - h_b)^2 / 2); ``dilated``, cos(sqrt(t / N) (h_a - h_b))^N for N
steps (``dilated.dilated_kernel``); ``ff``, sum_r w_r e^{-i (h_a - h_b)
theta_r} (``fastforward.gap_kernel``).  ``channel`` builds a method's kernel
and cost once, ``evolve`` applies the kernel through ``Hamiltonian.dephase``.

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
from .fastforward import JUMP_NORM_ATOL, FFPlan, ff_cost, gap_kernel, plan
from .model import Hamiltonian, SpectrumMap, normalize_levels, normalize_spectrum


class Channel(NamedTuple):
    """A method at time t and count n (the ``dilated`` step count, the ``ff``
    plan's even N, None for ``exact``): its gap kernel on any two eigenvalue
    arrays, shape (len a, len b), its cost, and an ``ff`` channel's plan."""

    method: str
    t: float
    n: int | None
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray]
    cost: CostReport
    plan: FFPlan | None = None


def channel(method: str, t: float, eps: float | None, steps: int | None = None,
            n: int | None = None) -> Channel:
    """The ``exact``, ``dilated`` or ``ff`` channel for time t.

    ``dilated`` runs ``steps`` steps, ``default_steps(t, eps)`` when none is
    given, for Hamiltonian time steps * sqrt(t / steps) and one ancilla per
    step; ``ff`` runs ``plan(t, eps, n)``; ``exact`` costs nothing and reads
    no eps.  A method refuses a count it does not read (``steps``, ``n``).
    """
    if method not in ("exact", "dilated", "ff"):
        raise ValidationError(f"unknown single-jump method {method!r}; expected exact, dilated or ff")
    for name, count, reader in (("steps", steps, "dilated"), ("n", n, "ff")):
        if count is not None and method != reader:
            raise ValidationError(f"{name} is read by the {reader} method alone, not by {method}")
    if method == "ff":
        p = plan(t, eps, n)
        return Channel("ff", p.t, p.n, partial(gap_kernel, p), ff_cost(p), p)
    if method == "dilated":
        if steps is None:
            steps = default_steps(t, eps)
        else:
            steps = nk.require_count(steps, 1, "step count")
            nk.require_time(t)
        return Channel("dilated", t, steps, partial(dilated_kernel, t, steps),
                       CostReport(steps * step_root(t, steps), steps, steps))
    nk.require_time(t)
    return Channel("exact", t, None,
                   lambda a, b: np.exp(-0.5 * t * (a[:, None] - b[None, :]) ** 2),
                   CostReport(0.0, 0, 0))


def evolve(ham: Hamiltonian, state: np.ndarray, chan: Channel
           ) -> tuple[np.ndarray, CostReport]:
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
    h = nk.require_hermitian(h)
    if np.ndim(state) == 1:
        psi = nk.require_state(state, h.shape[0])
        w = np.linalg.eigvalsh(h)
        eigs, _, smap = normalize_levels(w)
        lo, hi = ((w[[0, -1]] - smap.shift) / smap.scale).tolist()
        if (eigs.size > 1 and hi <= 1.0 + JUMP_NORM_ATOL
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
