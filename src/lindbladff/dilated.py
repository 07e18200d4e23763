"""Baseline Lindblad simulator: repeated short-time dilated-Hamiltonian steps.

Each step adjoins a fresh ancilla in |0>, evolves the pair under the block
anti-diagonal dilation of the jump for sqrt(tau), and traces the ancilla out
again.  A single step is an exact CPTP channel; only the N-fold composition
approximates the Lindblad semigroup, with first-order accuracy in tau.
The ``dilated`` channel (``channel.channel``) composes the steps in closed
form, :func:`dilated_kernel`; the tests check it against the literal circuit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from . import numkernel as nk


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


def step_root(t: float, n: int) -> float:
    """sqrt(t / n), the step root of both circuits: sqrt(t) / sqrt(n) where t / n underflows."""
    return math.sqrt(t / n) if t / n > 0 else math.sqrt(t) / math.sqrt(n)


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
    x = step_root(t, steps) * (eigs_a[:, None] - eigs_b[None, :])
    c = np.cos(x)
    with np.errstate(divide="ignore"):
        far = np.sign(c) ** steps * np.exp(0.5 * steps * np.log1p(-np.sin(x) ** 2))
    return np.where(np.abs(c) > 0.5, far, c ** steps)

