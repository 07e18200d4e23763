"""Gibbs-state preparation through the fast-forwarded dissipative channel.

A positive semidefinite problem Hamiltonian H_P = V diag(w) V^dag (norm at
most 1, used in its own units so beta keeps physical meaning) defines the
single jump |0><0|_anc (x) sqrt(H_P) (x) I on an ancilla + system + copy
register, run for time beta on |+> (x) |Omega>, Omega = sum_j |j>|j> / sqrt(d).
The ancilla coherence block then holds the half-temperature factor
exp(-(beta/2) H_P) |Omega> of the Gibbs purification, from which the state and
the partition function are read off.

The jump is never built.  It has eigenvalue sqrt(w_i) on |0>|v_i> (x) anything
and eigenvalue 0 on the whole ancilla-|1> sector, where it acts as zero.  The
fast-forwarded channel multiplies each coherence by the gap kernel
sum_r w_r e^{-i (h_a - h_b) theta_r}; the |1> side of the block always sits at
eigenvalue 0, so it contributes the phase 1 and the block's |0>|v_i> rows are
multiplied by K_i = sum_r w_r e^{-i sqrt(w_i) theta_r}, one column of the
kernel of ``channel("ff", beta, eps)`` against eigenvalue 0.  (A zero
eigenvalue of H_P shares that level, and gets K_i = sum_r w_r = 1, exactly as
it should.)  With (M (x) I)|Omega> = vec(M) / sqrt(d), the block vector is

    v = vec(V diag(K) V^dag) / (2 sqrt(d)),

one eigendecomposition of the 2^n matrix H_P and no matrix larger than it.
The prepared state V diag(|K|^2) V^dag / (4 d ||v||^2) and the Gibbs state
V diag(e^{-beta w}) V^dag / Z are both functions of H_P, so they commute and
their Uhlmann fidelity is the closed form (sum_i sqrt(p_i q_i))^2 over the
two level distributions p and q: no second eigendecomposition, no matrix
square root.  The amplitude-amplification queries a quantum implementation
would spend are reported, never simulated.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from . import numkernel as nk
from .channel import channel


class GibbsResult(NamedTuple):
    purification: np.ndarray       # 2n-qubit state vector
    reduced_state: np.ndarray      # n-qubit density matrix
    partition_estimate: float
    partition_exact: float         # Z of the reference Gibbs state
    fidelity: float
    cost: nk.CostReport
    ideal_amplification_queries: float


def _psd_eig(h_p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a PSD H_P whose jump sqrt(H_P) passes the
    jump-norm rule on the roots it evolves."""
    w, v = nk.herm_eig(h_p)
    if w[0] < -nk.PSD_ATOL:
        raise ValidationError(f"problem Hamiltonian has eigenvalue {w[0]:.3e} < 0")
    nk.require_jump_norm(math.sqrt(max(w[-1], 0.0)),
                         f"problem Hamiltonian norm {w[-1]:.6f} exceeds 1")
    return w, v


def gibbs_prepare(h_p: np.ndarray, beta: float, eps: float) -> GibbsResult:
    """Prepare the Gibbs purification at inverse temperature beta.

    The ``ff`` channel runs for time beta at target error eps; the partition
    estimate inverts the ancilla block norm (ideal value sqrt(Z / 2^n) / 2).
    One eigendecomposition of H_P gives the jump's roots, the exact Z and
    both level distributions that the fidelity compares.
    """
    if beta is None or beta < 0:
        raise ValidationError(f"inverse temperature must be nonnegative, got {beta}")
    nk.require_eps(eps)
    h_p = nk.require_square(h_p)
    d = h_p.shape[0]
    if d != 1 << int(round(math.log2(d))):
        raise ValidationError(f"dimension {d} is not a power of two")

    w, v = _psd_eig(h_p)
    roots = np.sqrt(np.clip(w, 0.0, None))
    if beta == 0:  # the identity channel: a kernel of ones, no evolution time
        kernel, cost = np.ones(d, dtype=complex), nk.CostReport(0.0, 0, 0)
    else:
        chan = channel("ff", beta, eps)
        kernel, cost = chan.kernel(roots, np.zeros(1))[:, 0], chan.cost
    block = (v * kernel) @ v.conj().T / (2.0 * math.sqrt(d))  # system rows, copy columns
    norm = float(np.linalg.norm(block))
    if norm < 1e-12:
        raise ValidationError(
            f"ancilla block norm {norm:.2e} degenerate; beta too large for this precision"
        )
    mat = block / norm
    z_est = d * (2.0 * norm) ** 2

    boltz = np.exp(-beta * w)
    z_exact = float(np.sum(boltz))
    prepared = np.abs(kernel) ** 2 / (4.0 * d * norm * norm)  # levels of mat @ mat^dag
    fid = float(np.sum(np.sqrt(prepared * (boltz / z_exact))) ** 2)
    return GibbsResult(
        purification=mat.reshape(-1),
        reduced_state=mat @ mat.conj().T,
        partition_estimate=z_est,
        partition_exact=z_exact,
        fidelity=fid,
        cost=cost,
        ideal_amplification_queries=math.sqrt(d / z_est),
    )
