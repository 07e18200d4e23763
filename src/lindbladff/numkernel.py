"""Dense complex linear-algebra primitives and argument rules shared by every module.

All operations are pure functions on numpy arrays; matrices are dense complex
double precision throughout.  Hermitian inputs are symmetrized as
(A + A^dag)/2 once their asymmetry is verified to sit below
``HERMITIAN_ATOL``; larger asymmetry raises, since silently proceeding would
mask model-construction bugs upstream.  Each kind of argument has one rule
and one message here: ``require_square`` (a non-empty square matrix),
``require_state``, ``require_density``, ``require_jump_norm``, ``require_time``
(0 < t < inf), ``require_eps`` (0 < eps < 1) and ``require_count`` (integers).
Every circuit reads its resources and its N-step time slicing from here too:
the ``CostReport`` ledger, ``default_steps`` (the first-order count t^3 /
eps^2) and ``step_root`` (sqrt(t / N)).
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from .errors import ValidationError

HERMITIAN_ATOL = 1e-10   # max |A - A^dag| accepted (then symmetrized)
UNIT_NORM_ATOL = 1e-9    # state-vector normalization
TRACE_ATOL = 1e-9        # density-matrix trace
PSD_ATOL = 1e-8          # density eigenvalues >= -PSD_ATOL
JUMP_NORM_ATOL = 1e-9    # |h| <= 1 + this for every jump eigenvalue evolved


def require_square(a) -> np.ndarray:
    """Validate a non-empty square matrix and return it as a complex array."""
    a = np.asarray(a, dtype=complex)
    if not (a.ndim == 2 and 0 < a.shape[0] == a.shape[1]):
        raise ValidationError(f"expected a non-empty square matrix, got shape {a.shape}")
    return a


def hermiticity_defect(a: np.ndarray) -> float:
    """Max-entry distance between A and its conjugate transpose; an entry that
    is not finite makes it NaN or inf, without numpy's inf - inf warning."""
    with np.errstate(invalid="ignore"):
        return float(np.max(np.abs(a - a.conj().T)))


def require_hermitian(a: np.ndarray, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Validate Hermiticity and return the symmetrized matrix (A + A^dag)/2."""
    a = require_square(a)
    defect = hermiticity_defect(a)
    if not defect <= atol:
        if not np.isfinite(a).all():
            raise ValidationError("matrix has a non-finite entry")
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


def chebyshev_points(lo: float, hi: float, m: int) -> np.ndarray:
    """The m >= 2 points cos(pi k / (m - 1)) on [lo, hi], in their sine form."""
    return 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.sin(0.5 * np.pi * np.arange(m - 1, -m, -2) / (m - 1))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of rho - sigma."""
    rho = require_square(rho)
    sigma = require_square(sigma)
    if rho.shape != sigma.shape:
        raise ValidationError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    diff = require_hermitian(rho - sigma, atol=2 * HERMITIAN_ATOL)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def require_state(v: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Validate a normalized state vector, of shape (dim,) if ``dim`` is given."""
    v = np.asarray(v, dtype=complex)
    nrm = np.linalg.norm(v)
    if not abs(nrm - 1.0) <= UNIT_NORM_ATOL:  # a NaN norm fails too
        raise ValidationError(
            f"state vector norm {float(nrm)!r} deviates from 1 beyond {UNIT_NORM_ATOL:.1e}")
    if dim is not None and v.shape != (dim,):
        raise ValidationError(f"dimension mismatch: state {v.shape} vs Hamiltonian {dim}")
    return v


def require_density(rho: np.ndarray) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity of a density matrix."""
    rho = require_hermitian(rho)
    tr = float(np.trace(rho).real)
    if not abs(tr - 1.0) <= TRACE_ATOL:
        raise ValidationError(f"density matrix trace {tr!r} deviates from 1")
    wmin = float(np.linalg.eigvalsh(rho)[0])
    if wmin < -PSD_ATOL:
        raise ValidationError(f"density matrix has eigenvalue {wmin:.3e} below -{PSD_ATOL:.1e}")
    return rho


def require_jump_norm(eigs: np.ndarray, message: str = "jump norm exceeds 1; normalize "
                      "the spectrum and rescale time") -> None:
    """Validate the eigenvalues a jump evolves: |h| <= 1 + ``JUMP_NORM_ATOL``."""
    if not float(np.max(np.abs(eigs))) <= 1.0 + JUMP_NORM_ATOL:  # a NaN fails too
        raise ValidationError(message)


def require_time(t: float) -> None:
    """Validate an evolution time: 0 < t < inf (a missing one, None, is refused)."""
    if t is None or not 0 < t < np.inf:
        raise ValidationError(f"evolution time must be positive and finite, got {t}")


def require_eps(eps: float) -> None:
    """Validate a target error: 0 < eps < 1 (a missing one, None, is refused)."""
    if eps is None or not 0 < eps < 1:
        raise ValidationError(f"target error must be in (0, 1), got {eps}")


def require_count(n, floor: int, what: str) -> int:
    """Validate an integer count of at least ``floor`` and return it as an
    ``int``; a float, even a whole one, is refused (``operator.index``)."""
    try:
        if operator.index(n) >= floor:
            return operator.index(n)
    except TypeError:
        pass
    raise ValidationError(f"{what} must be an integer >= {floor}, got {n}")


class CostReport(NamedTuple):
    """Resource ledger: total Hamiltonian evolution time, steps, ancillas."""

    hamiltonian_time: float
    step_count: int
    ancilla_count: int


def default_steps(t: float, eps: float) -> int:
    """First-order step count t^3 / eps^2 (rounded up)."""
    require_time(t)
    require_eps(eps)
    try:  # t^3 or the quotient overflows, or eps^2 underflows to 0
        return max(1, math.ceil(t ** 3 / eps ** 2))
    except (OverflowError, ZeroDivisionError):
        raise ValidationError(f"step count t^3 / eps^2 overflows at t = {t}, eps = {eps}") from None


def step_root(t: float, n: int) -> float:
    """sqrt(t / n), the step root of both circuits: sqrt(t) / sqrt(n) where t / n underflows."""
    return math.sqrt(t / n) if t / n > 0 else math.sqrt(t) / math.sqrt(n)
