"""Dense complex linear-algebra primitives shared by every module.

All operations are pure functions on numpy arrays; matrices are dense complex
double precision throughout.  Hermitian inputs are symmetrized as
(A + A^dag)/2 once their asymmetry is verified to sit below tolerance; larger
asymmetry raises, since silently proceeding would mask model-construction
bugs upstream.
"""

from __future__ import annotations

import numpy as np

from .config import TOL
from .errors import ValidationError


def as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValidationError(f"expected a matrix, got ndim={a.ndim}")
    return a


def require_square(a: np.ndarray) -> np.ndarray:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    return a


def hermiticity_defect(a: np.ndarray) -> float:
    """Max-entry distance between A and its conjugate transpose."""
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def require_hermitian(a: np.ndarray, atol: float | None = None) -> np.ndarray:
    """Validate Hermiticity and return the symmetrized matrix (A + A^dag)/2."""
    a = require_square(a)
    atol = TOL.hermitian_atol if atol is None else atol
    defect = hermiticity_defect(a)
    if defect > atol:
        raise ValidationError(
            f"matrix is not Hermitian: max asymmetry {defect:.3e} exceeds {atol:.1e}"
        )
    return 0.5 * (a + a.conj().T)


def herm_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, V)`` with eigenvalues ascending and unitary ``V`` such that
    ``A = V diag(w) V^dag``.
    """
    return np.linalg.eigh(require_hermitian(a))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of rho - sigma."""
    rho = require_square(rho)
    sigma = require_square(sigma)
    if rho.shape != sigma.shape:
        raise ValidationError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    diff = require_hermitian(rho - sigma, atol=2 * TOL.hermitian_atol)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def require_state(v: np.ndarray) -> np.ndarray:
    """Validate that ``v`` is a normalized state vector."""
    v = np.asarray(v, dtype=complex)
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > TOL.unit_norm_atol:
        raise ValidationError(
            f"state vector norm {nrm!r} deviates from 1 beyond {TOL.unit_norm_atol:.1e}")
    return v


def require_density(rho: np.ndarray) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity of a density matrix."""
    rho = require_hermitian(rho)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > TOL.trace_atol:
        raise ValidationError(f"density matrix trace {tr!r} deviates from 1")
    wmin = float(np.linalg.eigvalsh(rho)[0])
    if wmin < -TOL.psd_atol:
        raise ValidationError(f"density matrix has eigenvalue {wmin:.3e} below -{TOL.psd_atol:.1e}")
    return rho


def vec(rho: np.ndarray) -> np.ndarray:
    """Flatten a matrix to its row-major vectorization rho_ij -> |i>|j>."""
    return np.asarray(rho, dtype=complex).reshape(-1)


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec` for square matrices."""
    v = np.asarray(v, dtype=complex)
    d = int(round(np.sqrt(v.size)))
    return v.reshape(d, d)
