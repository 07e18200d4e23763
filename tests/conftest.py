import math
from types import SimpleNamespace

import numpy as np
import pytest

from lindbladff import ValidationError, decompose_state, normalize_spectrum
from lindbladff import numkernel as nk

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def random_eigenstate(rng, dim):
    """(ham, state, k): eigenvector k of a random non-diagonal Hermitian,
    decomposed against it; the other levels' weights are rounding noise."""
    ham = normalize_spectrum(random_hermitian(rng, dim))
    k = int(rng.integers(dim))
    return ham, decompose_state(ham.vectors[:, k], ham), int(ham.levels[k])


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def log_binom(n, m):
    """log C(n, m) through scipy's log-gamma, independent of the package's
    binomial kernels; its absolute error is the cancellation in
    log n! - log m! - log (n - m)!, a few ulp of log n!."""
    from scipy.special import gammaln

    m = np.asarray(m)
    return gammaln(n + 1.0) - gammaln(m + 1.0) - gammaln(n - m + 1.0)


def full_mixture(ham, psi, p):
    """Unwindowed reference for the fast-forwarded channel: the full binomial
    mixture of evolved projections, accumulated per eigencomponent by explicit
    summation over all addresses."""
    psi = nk.require_state(psi)
    comps = ham.components(psi)
    m = np.arange(p.n + 1)
    pmf = np.exp(log_binom(p.n, m) - p.n * math.log(2.0))
    root = math.sqrt(p.t / p.n)
    out = np.zeros((ham.dim, ham.dim), dtype=complex)
    # element (a, b) weight: sum_m pmf(m) exp(-i (h_a - h_b) sqrt(t / n) (2m - n))
    angles = root * (2 * m - p.n)
    for a in range(ham.n_levels):
        for b in range(ham.n_levels):
            gap = ham.eigenvalues[a] - ham.eigenvalues[b]
            w = np.sum(pmf * np.exp(-1j * gap * angles))
            out += w * np.outer(comps[a], comps[b].conj())
    return out


def goal_ledger(ham, psi, p):
    """The whole residue ledger of a pure input, built at once: ``weights[r]``
    is the binomial address mass of residue class r and ``states[r]`` the
    system vector every address in that class carries, shape (period, dim)."""
    from oracles import residue_weights, selected_phases

    states = selected_phases(p, ham.eigenvalues) @ ham.components(nk.require_state(psi))
    return SimpleNamespace(weights=np.array([float(w) for w in residue_weights(
        p.n, p.period, p.shift)]), states=states)


def residue_of(p, m):
    """Residue class driving the system action for address m."""
    return np.mod(np.asarray(m) - p.shift, p.period)


# ---------------------------------------------------------------------------
# Literal-circuit oracle for the dilated channel: one ancilla-assisted step,
# built and applied on the joint register-system space
# ---------------------------------------------------------------------------

def dilate(f):
    """Block anti-diagonal dilation [[0, F^dag], [F, 0]] (ancilla high-order)."""
    f = nk.require_square(f)
    d = f.shape[0]
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    out[:d, d:] = f.conj().T
    out[d:, :d] = f
    return out


def _step_unitary(f, tau):
    ft = dilate(f)
    w, v = np.linalg.eigh(ft)
    return (v * np.exp(-1j * w * math.sqrt(tau))) @ v.conj().T


def _apply_step(u, rho):
    d = rho.shape[0]
    joint = np.zeros((2 * d, 2 * d), dtype=complex)
    joint[:d, :d] = rho
    joint = u @ joint @ u.conj().T
    return joint[:d, :d] + joint[d:, d:]


def dilated_step(f, rho, tau):
    """One exact ancilla-assisted step of duration tau (evolution sqrt(tau))."""
    if tau <= 0:
        raise ValidationError(f"step duration must be positive, got {tau}")
    f = nk.require_hermitian(f)
    rho = nk.require_square(rho)
    if rho.shape[0] != f.shape[0]:
        raise ValidationError(f"dimension mismatch: rho {rho.shape[0]} vs jump {f.shape[0]}")
    return _apply_step(_step_unitary(f, tau), rho)
