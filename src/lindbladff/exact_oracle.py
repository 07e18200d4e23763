"""Ground-truth Lindblad evolution used to validate every simulator.

Two exact routes plus one brute-force route:

* :func:`lindblad_exact_hermitian` - closed-form dephasing solution for a
  single Hermitian jump: in the jump's eigenbasis each coherence between
  levels a and b is multiplied by exp(-t (h_a - h_b)^2 / 2).
* :func:`lindblad_exact_general` - vectorized propagator for any Hermitian
  jump list, exp(L t) on the row-major vectorization rho_ij -> |i>|j>.
* :func:`lindblad_rk4` - an independent adaptive Runge-Kutta integrator of
  the master equation itself.  It shares no code with the spectral routes
  and serves as the brute-force oracle in the tests.
"""

from __future__ import annotations

import numpy as np

from .config import TOL
from .errors import CapacityError, ValidationError
from . import numkernel as nk
from .model import Hamiltonian, LindbladSpec


def lindblad_exact_hermitian(ham: Hamiltonian, rho0: np.ndarray, t: float) -> np.ndarray:
    """Dephasing-channel solution for the single Hermitian jump ``ham``,
    from a density matrix or a state vector (see ``Hamiltonian.dephase``)."""
    if t < 0:
        raise ValidationError(f"negative evolution time {t}")
    gaps = ham.eigenvalues[:, None] - ham.eigenvalues[None, :]
    return ham.dephase(np.exp(-0.5 * t * gaps ** 2), rho0)


def steady_state(ham: Hamiltonian, rho0: np.ndarray) -> np.ndarray:
    """Infinite-time limit: coherence survives only inside each eigenspace."""
    return ham.dephase(np.eye(ham.n_levels), rho0)


def generator_matrix(spec: LindbladSpec) -> np.ndarray:
    """Vectorized generator sum_i (H_i (x) H_i* - H_i^2 (x) I / 2 - I (x) H_i*^2 / 2)."""
    d = spec.dim
    eye = np.eye(d)
    gen = np.zeros((d * d, d * d), dtype=complex)
    for h in spec.jumps:
        h2 = h @ h
        gen += np.kron(h, h.conj()) - 0.5 * np.kron(h2, eye) - 0.5 * np.kron(eye, h2.conj())
    return gen


def lindblad_exact_general(spec: LindbladSpec, rho0: np.ndarray, t: float) -> np.ndarray:
    """exp(L t) applied through the vectorized propagator.

    The vectorization is row-major (rho_ij -> |i>|j>), which is the ordering
    the generator expression above assumes; the conjugated factor acts on the
    column index.
    """
    if t < 0:
        raise ValidationError(f"negative evolution time {t}")
    rho0 = nk.require_square(rho0)
    d = rho0.shape[0]
    if d != spec.dim:
        raise ValidationError(f"dimension mismatch: rho {d} vs spec {spec.dim}")
    if d * d > TOL.vectorized_cap:
        raise CapacityError(
            f"vectorized propagator needs dim^2 = {d * d} > cap {TOL.vectorized_cap}"
        )
    if not spec.jumps:
        return rho0.copy()
    from scipy.linalg import expm

    prop = expm(generator_matrix(spec) * t)
    return nk.unvec(prop @ nk.vec(rho0))


_RK4_LOCAL_TOL = 1e-10  # see lindblad_rk4


def _deriv(rho: np.ndarray, jumps, jsq) -> np.ndarray:
    out = np.zeros_like(rho)
    for f, f2 in zip(jumps, jsq):
        out += f @ rho @ f.conj().T - 0.5 * (f2 @ rho + rho @ f2)
    return out


def _rk4_step(rho, h, jumps, jsq):
    k1 = _deriv(rho, jumps, jsq)
    k2 = _deriv(rho + 0.5 * h * k1, jumps, jsq)
    k3 = _deriv(rho + 0.5 * h * k2, jumps, jsq)
    k4 = _deriv(rho + h * k3, jumps, jsq)
    return rho + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def lindblad_rk4(jumps, rho0: np.ndarray, t: float) -> np.ndarray:
    """Brute-force master-equation integration (adaptive step doubling).

    Local error per step is controlled below ``_RK4_LOCAL_TOL`` by comparing
    one full step against two half steps.  Intentionally independent of the
    spectral solutions: it only ever evaluates the Lindblad right-hand side.
    """
    if t < 0:
        raise ValidationError(f"negative evolution time {t}")
    jumps = [np.asarray(j, dtype=complex) for j in jumps]
    jsq = [j.conj().T @ j for j in jumps]
    rho = np.asarray(rho0, dtype=complex).copy()
    if t == 0 or not jumps:
        return rho
    rate = max(float(np.max(np.abs(j))) for j in jumps) ** 2
    h = min(t, 0.05 / max(rate, 1e-12))
    done = 0.0
    while done < t:
        h = min(h, t - done)
        full = _rk4_step(rho, h, jumps, jsq)
        half = _rk4_step(_rk4_step(rho, 0.5 * h, jumps, jsq), 0.5 * h, jumps, jsq)
        err = float(np.max(np.abs(full - half))) / 15.0
        if err <= _RK4_LOCAL_TOL or h <= 1e-12 * t:
            rho = half + (half - full) / 15.0  # local extrapolation
            done += h
            if err > 0:
                h *= min(2.0, max(0.5, 0.9 * (_RK4_LOCAL_TOL / err) ** 0.2))
            else:
                h *= 2.0
        else:
            h *= max(0.1, 0.9 * (_RK4_LOCAL_TOL / err) ** 0.2)
    return rho
