"""The one table of single-Hermitian-jump methods.

Each method multiplies the coherence between levels a and b of the jump by
a function of the gap h_a - h_b, in the jump's eigenbasis: ``exact``,
exp(-t (h_a - h_b)^2 / 2); ``dilated``, cos(sqrt(t / N) (h_a - h_b))^N for N
steps (``dilated.dilated_kernel``); ``ff``, sum_r w_r e^{-i (h_a - h_b)
theta_r} (``fastforward.gap_kernel``).  ``channel`` builds a method's kernel
and cost once, ``evolve`` applies the kernel through ``Hamiltonian.dephase``.
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
from .model import Hamiltonian


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
    h = ham.eigenvalues
    return ham.dephase(chan.kernel(h, h), state), chan.cost
