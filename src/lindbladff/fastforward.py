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

Nothing holds the whole ledger: ``ff_evolve`` streams a pure input's ledger
in blocks of B residue classes (B a power of two, one block of B x dim complex
numbers within 4 MiB), adding each block's share of the density matrix as it
goes, in O(B dim + dim^2) memory whatever the register count.  A mixed input
is multiplied by the ``gap_kernel`` in the jump's eigenbasis instead, which
streams its phase tables in the same blocks, and the fast phase-estimation
readout works from one level's phase table at a time.

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

# Bytes of one streamed block of residue rows (see ``_residue_sum``).
_BLOCK_BYTES = 4 << 20


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


def _residue_phases(p: FFPlan, eigs: np.ndarray, lo: int = 0,
                    rows: int | None = None) -> np.ndarray:
    """Rows [lo, lo + rows) of the phase table exp(-i h sqrt(tau) (2r - 2^d')),
    shape (rows, n_levels); the whole table (2^d' rows) by default.

    Row r is the product of the single uncontrolled backward factor and the
    d' cached bit evolutions selected by the bits of r, taken from the lowest
    bit up, mirroring how the circuit spends its evolution time.  ``rows`` is
    a power of two and ``lo`` a multiple of it: the low bits enumerate the
    block by doubling the table (rows with the bit clear, then rows with it
    set), and the high bits are those of ``lo``, common to the whole block.
    Every row is the same left-to-right product either way, so a block equals
    its slice of the whole table bit for bit.
    """
    rows = p.period if rows is None else rows
    low_bits = rows.bit_length() - 1
    root = math.sqrt(p.tau)
    phases = np.exp(+1j * eigs * root)[None, :]  # uncontrolled factor
    for j in range(p.dprime):
        fwd = np.exp(-1j * eigs * root * (1 << j))   # bit 1
        bwd = np.exp(+1j * eigs * root * (1 << j))   # bit 0
        if j < low_bits:
            phases = np.concatenate((phases * bwd, phases * fwd))
        else:
            phases *= fwd if (lo >> j) & 1 else bwd
    return phases


def _block_rows(p: FFPlan, dim: int) -> int:
    """Residue classes per streamed block: the largest power of two whose
    (rows, dim) complex block fits _BLOCK_BYTES, at most the period (a level
    count never exceeds dim)."""
    fit = max(1, _BLOCK_BYTES // (16 * dim))
    return min(p.period, 1 << (fit.bit_length() - 1))


def _check_norm(eigs: np.ndarray):
    if float(np.max(np.abs(eigs))) > 1.0 + TOL.jump_norm_atol:
        raise ValidationError("jump norm exceeds 1; normalize the spectrum and rescale time")


def gap_kernel(p: FFPlan, eigs_a: np.ndarray, eigs_b: np.ndarray) -> np.ndarray:
    """Fast-forward gap kernel sum_r w_r e^{-i (a - b) theta_r}, shape (len a, len b).

    Entry [i, j] multiplies the coherence between jump eigenvalues a_i and
    b_j; ``ff_evolve`` applies it to a density matrix in the eigenbasis and
    ``gibbs_prepare`` reads one column of it against eigenvalue 0.  The phase
    tables stream in blocks of residue classes as in ``ff_evolve``, adding
    (A_b^T w_b) @ conj(B_b) per block; one block is the whole-table product.
    """
    _check_norm(eigs_a)
    _check_norm(eigs_b)
    return _residue_sum(p, max(eigs_a.size, eigs_b.size),
                        lambda lo, rows: (_residue_phases(p, eigs_a, lo, rows),
                                          _residue_phases(p, eigs_b, lo, rows)))


def _residue_sum(p: FFPlan, width: int, tables) -> np.ndarray:
    """Sum over blocks of residue classes of (X_b^T w_b) @ conj(Y_b), where
    ``tables(lo, rows)`` returns the block's (X_b, Y_b), at most ``width``
    columns each, and w_b its binomial residue weights."""
    weights = binom_residue_weights(p.n, p.period, -p.shift)
    rows = _block_rows(p, width)
    total = None
    for lo in range(0, p.period, rows):
        x, y = tables(lo, rows)
        part = (x.T * weights[lo:lo + rows]) @ y.conj()
        if total is None:
            total = part
        else:
            total += part
    return total


def ff_cost(p: FFPlan) -> CostReport:
    """Cost of the fast-forwarded circuit: Hamiltonian time 2^d' sqrt(tau),
    d' controlled factors plus one uncontrolled one, d address ancillas."""
    return CostReport(float(p.period) * math.sqrt(p.tau), p.dprime + 1, p.d)


def ff_evolve(ham: Hamiltonian, state0: np.ndarray, p: FFPlan
              ) -> tuple[np.ndarray, CostReport]:
    """Fast-forwarded simulation of the dephasing Lindbladian.

    Accepts a state vector or a density matrix.  A state vector streams its
    residue ledger in blocks of residue classes: each block's system vectors
    S_b are built from their rows of the phase table and add
    (S_b^T w_b) @ conj(S_b) to rho, so no more than one block of the ledger
    is ever held, O(rows * dim + dim^2) memory for any register count.  When
    one block covers the period this is the whole-ledger product.  A density
    matrix is multiplied in the eigenbasis by the level-pair ``gap_kernel``
    that the ledger realizes for every pure component.  The reported
    Hamiltonian time 2^d' sqrt(tau) is exactly the evolution time the d'
    controlled factors and one uncontrolled factor spend.
    """
    state0 = np.asarray(state0, dtype=complex)
    cost = ff_cost(p)
    if state0.ndim == 1:
        comps = ham.components(state0)
        _check_norm(ham.eigenvalues)

        def ledger_block(lo, rows):
            s = _residue_phases(p, ham.eigenvalues, lo, rows) @ comps  # (rows, dim)
            return s, s

        return _residue_sum(p, ham.dim, ledger_block), cost
    rho0 = nk.require_density(state0)
    return ham.dephase(gap_kernel(p, ham.eigenvalues, ham.eigenvalues), rho0), cost


def dense_circuit_reference(ham: Hamiltonian, psi: np.ndarray, p: FFPlan) -> np.ndarray:
    """Literal dense simulation of the circuit, as an oracle for the ledger.

    Builds the full 2^d x dim joint state, applies the inverse shift, the d'
    bit-controlled evolutions, the uncontrolled backward factor and the
    forward shift, then traces out the register.  Evolutions use scipy's
    expm and the binomial amplitudes its log-gamma, so the path stays
    independent of the spectral machinery and of the binomial kernels.
    """
    from scipy.linalg import expm
    from scipy.special import gammaln

    psi = nk.require_state(psi)
    reg = 1 << p.d
    if reg * ham.dim > TOL.dense_reference_cap:
        raise CapacityError(
            f"dense reference needs register*system = {reg * ham.dim} "
            f"> cap {TOL.dense_reference_cap}"
        )
    log_fact = gammaln(np.arange(p.n + 1) + 1.0)  # log m!; reversed, log (n - m)!
    amps = np.zeros(reg)
    amps[: p.n + 1] = np.exp(0.5 * (log_fact[-1] - log_fact - log_fact[::-1]
                                    - p.n * math.log(2.0)))
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
