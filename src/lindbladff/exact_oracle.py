"""Closed-form solution of the single-Hermitian-jump dephasing Lindbladian.

In the jump's eigenbasis each coherence between levels a and b is multiplied
by exp(-t (h_a - h_b)^2 / 2); ``evolve --method exact`` runs it.  The
independent oracles it is checked against (the vectorized propagator and an
adaptive RK4 integrator of the master equation) live with the tests, in
``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from . import numkernel as nk
from .model import Hamiltonian


def lindblad_exact_hermitian(ham: Hamiltonian, rho0: np.ndarray, t: float) -> np.ndarray:
    """Dephasing-channel solution for the single Hermitian jump ``ham``,
    from a density matrix (checked by ``require_density``) or a state vector
    (see ``Hamiltonian.dephase``)."""
    nk.require_time(t)
    if np.ndim(rho0) != 1:
        rho0 = nk.require_density(rho0)
    gaps = ham.eigenvalues[:, None] - ham.eigenvalues[None, :]
    return ham.dephase(np.exp(-0.5 * t * gaps ** 2), rho0)
