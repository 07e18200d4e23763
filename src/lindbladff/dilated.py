"""Baseline Lindblad simulator: repeated short-time dilated-Hamiltonian steps.

Each step adjoins a fresh ancilla in |0>, evolves the pair under the block
anti-diagonal dilation of the jump for sqrt(tau), and traces the ancilla out
again.  A single step is an exact CPTP channel; only the N-fold composition
approximates the Lindblad semigroup, with first-order accuracy in tau.
:func:`dilated_evolve` composes the steps in closed form; the test suite
checks it against the literal one-step circuit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from . import numkernel as nk
from .model import Hamiltonian


class CostReport(NamedTuple):
    """Resource ledger: total Hamiltonian evolution time, steps, ancillas."""

    hamiltonian_time: float
    step_count: int
    ancilla_count: int


def default_steps(t: float, eps: float) -> int:
    """First-order step count t^3 / eps^2 (rounded up)."""
    nk.require_time(t)
    nk.require_eps(eps)
    try:  # t^3 or the quotient overflows, or eps^2 underflows to 0
        return max(1, math.ceil(t ** 3 / eps ** 2))
    except (OverflowError, ZeroDivisionError):
        raise ValidationError(f"step count t^3 / eps^2 overflows at t = {t}, eps = {eps}") from None


def dilated_kernel(t: float, steps: int, eigs_a: np.ndarray, eigs_b: np.ndarray
                   ) -> np.ndarray:
    """Dilated gap kernel cos(sqrt(t / steps) (a - b))^steps, shape (len a, len b).

    Evaluated as sign(cos x)^steps * exp((steps / 2) log1p(-sin^2 x)): the
    cost does not depend on ``steps``, and the log1p form keeps full relative
    accuracy where cos(x) rounds close to 1.  ``dilated_evolve`` applies it
    and the slow phase-estimation route reads its column against eigenvalue 0.
    """
    x = math.sqrt(t / steps) * (eigs_a[:, None] - eigs_b[None, :])
    with np.errstate(divide="ignore"):
        return np.sign(np.cos(x)) ** steps * np.exp(0.5 * steps * np.log1p(-np.sin(x) ** 2))


def dilated_evolve(ham: Hamiltonian, rho0: np.ndarray, t: float, steps: int
                   ) -> tuple[np.ndarray, CostReport]:
    """Compose ``steps`` dilated steps of the jump ``ham`` with tau = t / steps,
    from a density matrix (checked by ``require_density``) or a state vector
    (see ``Hamiltonian.dephase``).

    One step multiplies the coherence between eigenvalues a and b of the jump
    by cos(sqrt(tau) (h_a - h_b)), so the composition is the closed-form
    multiplier ``dilated_kernel``, applied by ``ham.dephase``.  Total
    evolution time is steps * sqrt(tau) = sqrt(steps * t); every step
    consumes one logical ancilla.
    """
    steps = nk.require_count(steps, 1, "step count")
    nk.require_time(t)
    if np.ndim(rho0) != 1:
        rho0 = nk.require_density(rho0)
    h = ham.eigenvalues
    cost = CostReport(
        hamiltonian_time=steps * math.sqrt(t / steps),
        step_count=steps,
        ancilla_count=steps,
    )
    return ham.dephase(dilated_kernel(t, steps, h, h), rho0), cost
