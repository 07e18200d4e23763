"""Quadratic fast-forwarding of the Hermitian-jump dephasing Lindbladian.

The simulated circuit prepares a binomial-amplitude address register, then
conjugates a bank of address-bit-controlled forward/backward evolutions by a
modular shift so that the sqrt(N)-wide bulk of the binomial mass drives the
correct evolution e^{-i H sqrt(tau) (2m - N)}.  Because the register stays
diagonal throughout, the system action depends on the address m only through
its residue r(m) = (m - N/2 + 2^(d'-1)) mod 2^d', so the whole joint state is
represented exactly by 2^d' system vectors plus one weight per residue class.
That ledger is an exact description of the circuit (not an approximation) and
is what keeps register counts of 10^5..10^7 runnable at desk scale.

Address arithmetic is modulo 2^d (the d-bit register) rather than modulo N;
the shift maps the window bijectively either way and the out-of-window
components are realized as the periodic evolutions the circuit itself
produces, so they stay physical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TOL
from .errors import CapacityError, ValidationError
from . import numkernel as nk
from .dilated import CostReport
from .kernels import binom_residue_weights
from .model import Hamiltonian
from .stateprep import binomial_amplitudes, log_binom


@dataclass(frozen=True)
class FFPlan:
    """Parameter bundle of one fast-forwarding run.

    ``window`` is the address interval driven exactly; everything outside it
    receives the periodic stand-in evolution.  ``full_window`` marks plans
    whose window covers every populated address (the simulation is then exact
    up to the binomial discretization).
    """

    t: float
    eps: float
    n: int                      # register count (even)
    tau: float                  # t / n
    c: float                    # window half-width fraction
    d: int                      # address bits
    dprime: int                 # controlled bits
    window: tuple[int, int]
    full_window: bool = False
    note: str = ""

    @property
    def period(self) -> int:
        return 1 << self.dprime

    @property
    def shift(self) -> int:
        """Amount added to the address register by the modular shift."""
        return self.n // 2 - (1 << (self.dprime - 1))


def plan(t: float, eps: float, n_override: int | None = None) -> FFPlan:
    """Choose N, the window fraction c, and the register split (d, d').

    Defaults follow the first-order budget N = ceil(t^3 / eps^2) (rounded up
    to even) and the window size that pins the discarded binomial mass at
    eps: c = sqrt(ln(2/eps) / 2) / sqrt(N).
    """
    if t <= 0:
        raise ValidationError(f"evolution time must be positive, got {t}")
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"target error must be in (0, 1), got {eps}")
    note = ""
    if n_override is not None:
        n = int(n_override)
        if n < 2:
            raise ValidationError(f"register count must be >= 2, got {n}")
        if n % 2:
            n += 1
            note = f"odd register override rounded up to {n}"
    else:
        n = math.ceil(t ** 3 / eps ** 2)
        n += n % 2
    c = math.sqrt(math.log(2.0 / eps) / 2.0) / math.sqrt(n)
    if c * n < 1.0:
        raise ValidationError(
            f"window c*N = {c * n:.3f} < 1; increase N (or tighten eps) so the "
            f"window holds at least one address"
        )
    d = max(1, math.ceil(math.log2(n + 1)))
    dprime = min(math.ceil(math.log2(c * n)) + 1, d)
    half = 1 << (dprime - 1)
    window = (n // 2 - half, n // 2 + half - 1)
    full_window = window[0] <= 0 and window[1] >= n
    if not full_window and c >= 0.5:
        raise ValidationError(f"window fraction c = {c:.3f} >= 1/2 without full coverage")
    if not full_window and (window[0] < 0 or window[1] > n):
        raise ValidationError(f"window {window} escapes the address range [0, {n}]")
    return FFPlan(float(t), float(eps), n, t / n, c, d, dprime, window, full_window, note)


def u_add_map(p: FFPlan, m: int) -> int:
    """In-place modular addition on the d-bit address register."""
    if not 0 <= m < (1 << p.d):
        raise ValidationError(f"address {m} outside [0, 2^{p.d})")
    return (m + p.shift) % (1 << p.d)


def u_add_inverse(p: FFPlan, m: int) -> int:
    if not 0 <= m < (1 << p.d):
        raise ValidationError(f"address {m} outside [0, 2^{p.d})")
    return (m - p.shift) % (1 << p.d)


def residue_of(p: FFPlan, m) -> np.ndarray:
    """Residue class driving the system action for address m."""
    return np.mod(np.asarray(m) - p.shift, p.period)


def _residue_phases(p: FFPlan, eigs: np.ndarray) -> np.ndarray:
    """Phase table exp(-i h sqrt(tau) (2r - 2^d')) of shape (2^d', n_levels).

    Built by binary decomposition of the register value from the d' cached
    bit evolutions plus the single uncontrolled backward factor, mirroring
    how the circuit spends its evolution time.
    """
    root = math.sqrt(p.tau)
    r = np.arange(p.period)
    phases = np.tile(np.exp(+1j * eigs * root), (p.period, 1))  # uncontrolled factor
    for j in range(p.dprime):
        bit = (r >> j) & 1
        fwd = np.exp(-1j * eigs * root * (1 << j))   # bit 1
        bwd = np.exp(+1j * eigs * root * (1 << j))   # bit 0
        phases *= np.where(bit[:, None] == 1, fwd[None, :], bwd[None, :])
    return phases


def apply_vh(p: FFPlan, ham: Hamiltonian, m: int, psi: np.ndarray) -> np.ndarray:
    """System action of the shift-conjugated controlled evolution at address m."""
    if not 0 <= m < (1 << p.d):
        raise ValidationError(f"address {m} outside [0, 2^{p.d})")
    _check_norm(ham.eigenvalues)
    r = int(residue_of(p, m))
    angle = math.sqrt(p.tau) * (2 * r - p.period)
    return ham.evolve(angle, np.asarray(psi, dtype=complex))


@dataclass(frozen=True)
class GoalLedger:
    """Exact structured form of the joint register-system state.

    ``weights[r]`` aggregates the binomial address mass of residue class r and
    ``states[r]`` is the system vector every address in that class carries.
    ``amplitude(m)`` exposes the underlying per-address amplitude.
    """

    plan: FFPlan
    weights: np.ndarray
    states: np.ndarray  # (period, dim)

    def amplitude(self, m) -> np.ndarray:
        m = np.asarray(m, dtype=float)
        n = self.plan.n
        out = np.exp(0.5 * log_binom(n, np.clip(m, 0, n)) - 0.5 * n * math.log(2.0))
        return np.where((m >= 0) & (m <= n), out, 0.0)

    def residue(self, m) -> np.ndarray:
        return residue_of(self.plan, m)


def _check_norm(eigs: np.ndarray):
    if float(np.max(np.abs(eigs))) > 1.0 + TOL.jump_norm_atol:
        raise ValidationError("jump norm exceeds 1; normalize the spectrum and rescale time")


def gap_kernel(p: FFPlan, eigs_a: np.ndarray, eigs_b: np.ndarray) -> np.ndarray:
    """Fast-forward gap kernel sum_r w_r e^{-i (a - b) theta_r}, shape (len a, len b).

    Entry [i, j] multiplies the coherence between jump eigenvalues a_i and
    b_j; ``ff_evolve`` applies it to a density matrix in the eigenbasis and
    ``gibbs_prepare`` reads one column of it against eigenvalue 0.
    """
    _check_norm(eigs_a)
    _check_norm(eigs_b)
    weights = binom_residue_weights(p.n, p.period, -p.shift)
    return (_residue_phases(p, eigs_a).T * weights) @ _residue_phases(p, eigs_b).conj()


def ff_cost(p: FFPlan) -> CostReport:
    """Cost of the fast-forwarded circuit: Hamiltonian time 2^d' sqrt(tau),
    d' controlled factors plus one uncontrolled one, d address ancillas."""
    return CostReport(float(p.period) * math.sqrt(p.tau), p.dprime + 1, p.d)


def goal_ledger(ham: Hamiltonian, psi: np.ndarray, p: FFPlan) -> GoalLedger:
    """Build the residue ledger for a pure input state."""
    psi = nk.require_state(psi)
    if psi.shape[0] != ham.dim:
        raise ValidationError(f"dimension mismatch: state {psi.shape[0]} vs Hamiltonian {ham.dim}")
    _check_norm(ham.eigenvalues)
    comps = ham.components(psi)          # (n_levels, dim)
    states = _residue_phases(p, ham.eigenvalues) @ comps  # (period, dim)
    return GoalLedger(p, binom_residue_weights(p.n, p.period, -p.shift), states)


def ff_evolve(ham: Hamiltonian, state0: np.ndarray, p: FFPlan
              ) -> tuple[np.ndarray, GoalLedger | None, CostReport]:
    """Fast-forwarded simulation of the dephasing Lindbladian.

    Accepts a state vector or a density matrix.  A state vector goes through
    its residue ledger, which is returned.  A density matrix is multiplied in
    the eigenbasis by the level-pair ``gap_kernel`` that the ledger realizes
    for every pure component, and no ledger is returned (``None``).  The
    reported Hamiltonian time 2^d' sqrt(tau) is exactly the evolution time
    the d' controlled factors and one uncontrolled factor spend.
    """
    state0 = np.asarray(state0, dtype=complex)
    cost = ff_cost(p)
    if state0.ndim == 1:
        ledger = goal_ledger(ham, state0, p)
        rho = _ledger_density(ledger)
        return rho, ledger, cost
    rho0 = nk.require_density(state0)
    if rho0.shape[0] != ham.dim:
        raise ValidationError(f"dimension mismatch: rho {rho0.shape[0]} vs Hamiltonian {ham.dim}")
    return ham.dephase(gap_kernel(p, ham.eigenvalues, ham.eigenvalues), rho0), None, cost


def _ledger_density(ledger: GoalLedger) -> np.ndarray:
    s = ledger.states
    return (s.T * ledger.weights) @ s.conj()


def full_mixture(ham: Hamiltonian, psi: np.ndarray, p: FFPlan) -> np.ndarray:
    """Unwindowed reference: the full binomial mixture of evolved projections,
    accumulated per eigencomponent by explicit summation over all addresses."""
    psi = nk.require_state(psi)
    comps = ham.components(psi)
    m = np.arange(p.n + 1)
    pmf = np.exp(log_binom(p.n, m) - p.n * math.log(2.0))
    root = math.sqrt(p.tau)
    out = np.zeros((ham.dim, ham.dim), dtype=complex)
    # element (a, b) weight: sum_m pmf(m) exp(-i (h_a - h_b) sqrt(tau) (2m - n))
    angles = root * (2 * m - p.n)
    for a in range(ham.n_levels):
        for b in range(ham.n_levels):
            gap = ham.eigenvalues[a] - ham.eigenvalues[b]
            w = np.sum(pmf * np.exp(-1j * gap * angles))
            out += w * np.outer(comps[a], comps[b].conj())
    return out


def dense_circuit_reference(ham: Hamiltonian, psi: np.ndarray, p: FFPlan) -> np.ndarray:
    """Literal dense simulation of the circuit, as an oracle for the ledger.

    Builds the full 2^d x dim joint state, applies the inverse shift, the d'
    bit-controlled evolutions, the uncontrolled backward factor and the
    forward shift, then traces out the register.  Evolutions use scipy's
    expm so the path stays independent of the spectral machinery.
    """
    from scipy.linalg import expm

    psi = nk.require_state(psi)
    reg = 1 << p.d
    if reg * ham.dim > TOL.dense_reference_cap:
        raise CapacityError(
            f"dense reference needs register*system = {reg * ham.dim} "
            f"> cap {TOL.dense_reference_cap}"
        )
    amps = np.zeros(reg)
    amps[: p.n + 1] = binomial_amplitudes(p.n)
    joint = amps[:, None] * psi[None, :]

    fwd = np.array([(m + p.shift) % reg for m in range(reg)])
    joint = joint[fwd]                       # inverse shift: row m <- row (m + shift)
    root = math.sqrt(p.tau)
    mat = ham.matrix
    for j in range(p.dprime):
        u0 = expm(+1j * mat * root * (1 << j))
        u1 = expm(-1j * mat * root * (1 << j))
        bits = (np.arange(reg) >> j) & 1
        joint[bits == 0] = joint[bits == 0] @ u0.T
        joint[bits == 1] = joint[bits == 1] @ u1.T
    joint = joint @ expm(+1j * mat * root).T
    back = np.array([(m - p.shift) % reg for m in range(reg)])
    joint = joint[back]                      # forward shift
    return joint.T @ joint.conj()
