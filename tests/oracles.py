"""Independent oracles that only the tests call: the dense matrix of a
Hamiltonian's decomposition, the vectorized propagator, adaptive RK4 on the
master equation, the dephasing channel on an unmerged spectrum, the literal
fast-forwarding circuit, the Kronecker-product Pauli sum, the line-by-line
jump-list reader, the per-node angle recursion, the dense search iterate and
its Schur logarithm, a target's gaps stretched to unit radius, the standard
route's estimation and preparation in their closed form and in explicit
register sums, and references for the Gibbs, state-synthesis, concentration,
commuting-generator and amplitude-decision tests.  Each reaches its answer by
a route the CLI does not take, and may use scipy, which the package never does.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os

import mpmath
import numpy as np

from lindbladff import numkernel as nk
from lindbladff.numkernel import CostReport
from lindbladff.errors import CapacityError, InvariantError, ValidationError
from lindbladff.channel import FFPlan
from lindbladff.kernels import binom_pmf
from lindbladff.model import (Hamiltonian, LindbladSpec, SpectralState, decompose_state,
                              lindblad_spec, load_hamiltonian_text, normalize_spectrum,
                              parse_pauli_sum, spectral_gap)
from lindbladff.qpe import (AmplitudeDecision, AmplitudeProblem, EstimationResult,
                            PreparationResult, _fast_distribution, _pick_outcome, _read_levels,
                            amplitude_problem, decide_amplitude)
from lindbladff.stateprep import SERIES_CUTOFF

# Each oracle refuses a problem whose largest array would pass ORACLE_BYTES: the
# dim^2 x dim^2 complex generator of the vectorized propagator, and the
# register x system complex joint state of the circuit oracle.
ORACLE_BYTES = 2 ** 28
VECTORIZED_CAP = math.isqrt(ORACLE_BYTES // 16)   # dim^2, 4096
DENSE_REFERENCE_CAP = ORACLE_BYTES // 16          # register_dim * system_dim, 2^24


def vec(rho: np.ndarray) -> np.ndarray:
    """Flatten a matrix to its row-major vectorization rho_ij -> |i>|j>."""
    return np.asarray(rho, dtype=complex).reshape(-1)


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec` for square matrices."""
    v = np.asarray(v, dtype=complex)
    d = int(round(np.sqrt(v.size)))
    return v.reshape(d, d)


def hamiltonian_matrix(ham: Hamiltonian) -> np.ndarray:
    """V diag(eigenvalues[levels]) V^dag, rebuilt from the clustered
    decomposition of ``ham``."""
    m = (ham.vectors * ham.eigenvalues[ham.levels]) @ ham.vectors.conj().T
    return 0.5 * (m + m.conj().T)


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
    if d * d > VECTORIZED_CAP:
        raise CapacityError(
            f"vectorized propagator needs dim^2 = {d * d} > cap {VECTORIZED_CAP}"
        )
    if not spec.jumps:
        return rho0.copy()
    from scipy.linalg import expm

    prop = expm(generator_matrix(spec) * t)
    return unvec(prop @ vec(rho0))


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


def unmerged_channel(hn: np.ndarray, psi: np.ndarray, gap) -> np.ndarray:
    """sum_ab gap(h_a - h_b) P_a psi psi^dag P_b over every eigenvalue h_a of
    the normalized jump matrix hn, none merged into a cluster: numpy's eigh and
    the gap function as the caller writes it, the benchmark checker's formula."""
    w, v = np.linalg.eigh(hn)
    x = v * (v.conj().T @ nk.require_state(psi))
    return x @ gap(w[:, None] - w[None, :]) @ x.conj().T


def dense_circuit_reference(mat: np.ndarray, psi: np.ndarray, p: FFPlan) -> np.ndarray:
    """Literal dense simulation of the circuit of the jump ``mat``, as an
    oracle for the ledger.

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
    if reg * len(mat) > DENSE_REFERENCE_CAP:
        raise CapacityError(
            f"dense reference needs register*system = {reg * len(mat)} "
            f"> cap {DENSE_REFERENCE_CAP}"
        )
    log_fact = gammaln(np.arange(p.n + 1) + 1.0)  # log m!; reversed, log (n - m)!
    amps = np.zeros(reg)
    amps[: p.n + 1] = np.exp(0.5 * (log_fact[-1] - log_fact - log_fact[::-1]
                                    - p.n * math.log(2.0)))
    joint = amps[:, None] * psi[None, :]

    fwd = np.array([(m + p.shift) % reg for m in range(reg)])
    joint = joint[fwd]                       # inverse shift: row m <- row (m + shift)
    root = math.sqrt(p.t / p.n)
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


# Register counts up to which ``residue_weights`` sums C(n, m) exactly
EXACT_FOLD_CAP = 1 << 14


@functools.lru_cache(maxsize=16)
def _binomial_half_pmf(n: int) -> tuple[int, tuple]:
    """(lo, pmf): C(n, m) / 2^n at 40 digits for m = lo, lo + 1, ..., from the
    centre outward by the ratios (n - m) / (m + 1), down to 2^-200 of the
    centre on each side."""
    with mpmath.workdps(40):
        centre = n // 2
        peak = mpmath.binomial(n, centre) / mpmath.mpf(2) ** n
        floor = peak * mpmath.mpf(2) ** -200
        up, v = [], peak
        for m in range(centre, n):
            v = v * (n - m) / (m + 1)
            if v < floor:
                break
            up.append(v)
        down, v = [], peak
        for m in range(centre, 0, -1):
            v = v * m / (n - m + 1)
            if v < floor:
                break
            down.append(v)
    return centre - len(down), tuple(down[::-1] + [peak] + up)


def residue_weights(n: int, period: int, shift: int) -> list:
    """The Binomial(n, 1/2) mass of each residue class r = (m - shift) mod
    ``period`` of the addresses m, as mpmath numbers at the current precision.

    Up to n = ``EXACT_FOLD_CAP`` each class is the exact integer sum of its
    C(n, m), divided by 2^n once; above it each class sums the 40-digit pmf
    of ``_binomial_half_pmf``, whose mass left out is below 2^-190.  Neither
    reads the package's binomial kernels."""
    if n <= EXACT_FOLD_CAP:
        sums, c = [0] * period, 1
        for m in range(n + 1):
            sums[(m - shift) % period] += c
            c = c * (n - m) // (m + 1)
        return [mpmath.mpf(s) / mpmath.mpf(2) ** n for s in sums]
    lo, pmf = _binomial_half_pmf(n)
    sums = [[] for _ in range(period)]
    for m, v in enumerate(pmf, lo):
        sums[(m - shift) % period].append(v)
    return [mpmath.fsum(s) for s in sums]


def _root(t: float, n: int) -> float:
    """The double step root sqrt(t / N), sqrt(t) / sqrt(N) where t / N underflows."""
    return math.sqrt(t / n) if t / n > 0 else math.sqrt(t) / math.sqrt(n)


def residue_thetas(p: FFPlan) -> list:
    """theta_r = sqrt(t / N) (2r - P) of each residue class, the double step
    root times an exact integer."""
    return [mpmath.mpf(_root(p.t, p.n)) * (2 * r - p.period) for r in range(p.period)]


def selected_phases(p: FFPlan, eigs: np.ndarray) -> np.ndarray:
    """The whole phase table e^(-i eigs[l] theta_r), shape (P, L), one bit at a
    time over every row as the circuit spends its evolution time: the
    uncontrolled backward factor, then for each bit j the forward or backward
    factor of 2^j steps that the row's bit selects with ``np.where``."""
    root = _root(p.t, p.n)
    r = np.arange(p.period)
    phases = np.tile(np.exp(+1j * eigs * root), (p.period, 1))
    for j in range(p.dprime):
        bit = (r >> j) & 1
        fwd = np.exp(-1j * eigs * root * (1 << j))
        bwd = np.exp(+1j * eigs * root * (1 << j))
        phases *= np.where(bit[:, None] == 1, fwd[None, :], bwd[None, :])
    return phases


def alpha_phases(n: int, period: int) -> np.ndarray:
    """sigma^N e^(i N theta) for theta = pi k / P, k = 0..P-1, sigma = sign(cos theta):
    the phase of alpha_k^N, alpha_k = e^(i pi k / P) cos(pi k / P), in the
    product-state form of the Kravchuk readout."""
    k = np.arange(period)
    return (np.where(2 * k > period, -1, 1) ** n
            * np.exp(1j * np.pi * ((n * k) % (2 * period)) / period))


def fft_readout(p: FFPlan, eigs: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The fast readout's coefficients, shape (P, L), as the ledger's DFT: the
    FFT of ``selected_phases`` times coeffs[l] w^(-k shift) / P and the alpha
    phase, w = e^(2 pi i / P)."""
    shift = np.exp(-2j * math.pi * ((np.arange(p.period) * p.shift) % p.period) / p.period)
    spectrum = np.fft.fft(selected_phases(p, eigs), axis=0)
    return spectrum * ((shift / p.period) * alpha_phases(p.n, p.period))[:, None] * coeffs


def dirichlet_readout(p: FFPlan, x: float, k: int, dps: int = 40) -> complex:
    """One fast-readout coefficient at class k and unit weight, in mpmath at
    ``dps`` digits, for the level h whose phase over the circuit's Hamiltonian
    time B = P root is x = B h (root the double step root): the ledger's DFT
    (1/P) w^(-k shift) sum_r w^(-k r) e^(-i h theta_r), theta_r = root (2r - P),
    its geometric sum taken as (1 - z^P) / (1 - z) with z = w^(-k) e^(-2 i x / P),
    times the alpha phase sigma_k^N e^(i pi k N / P)."""
    with mpmath.workdps(dps):
        period, x = p.period, mpmath.mpf(x)
        z = mpmath.expj(-2 * (mpmath.pi * k + x) / period)
        total = mpmath.mpf(period) if z == 1 else (1 - z ** period) / (1 - z)
        sigma = -1 if 2 * k > period else 1
        phase = mpmath.expjpi(mpmath.mpf(-2 * ((k * p.shift) % period) + (p.n * k) % (2 * period))
                              / period)
        return complex(sigma ** p.n * total * mpmath.expj(x) * phase / period)


def residue_sum_kernel(p: FFPlan, eigs_a: np.ndarray, eigs_b: np.ndarray) -> np.ndarray:
    """The plain residue sum sum_r w_r e^{-i (a - b) theta_r} on every pair of
    a and b, over every class, in long double: the weights of
    ``residue_weights`` rounded to doubles, and each term the product of the
    phases e^{-i a theta_r} and e^{i b theta_r} to 64 bits where the
    platform's long double holds them.  Shape (len a, len b)."""
    ld = np.longdouble
    weights = np.array([float(w) for w in residue_weights(p.n, p.period, p.shift)], dtype=ld)
    thetas = ld(_root(p.t, p.n)) * (2 * np.arange(p.period) - p.period).astype(ld)
    a, b = np.asarray(eigs_a, dtype=ld), np.asarray(eigs_b, dtype=ld)
    out = np.zeros((a.size, b.size), dtype=np.clongdouble)
    for lo in range(0, p.period, 2048):
        rows = slice(lo, lo + 2048)
        out += (np.exp(-1j * np.outer(a, thetas[rows])) * weights[rows]
                ) @ np.exp(1j * np.outer(b, thetas[rows])).T
    return out.astype(complex)


def ff_column(p: FFPlan, levels) -> list:
    """sum_r w_r e^{-i h theta_r} at each h of ``levels`` (mpmath numbers), the
    ``ff`` kernel's column at 0, in the current mpmath precision."""
    weights, thetas = residue_weights(p.n, p.period, p.shift), residue_thetas(p)
    return [mpmath.fsum(w * mpmath.expj(-h * th) for w, th in zip(weights, thetas) if w)
            for h in levels]


@functools.lru_cache(maxsize=4)
def _kravchuk_classes(n: int, period: int, shift: int, dps: int) -> tuple:
    """B[x][r] = sum over the addresses m of class r = (m - shift) mod
    ``period`` of U[x, m] a_m, at ``dps`` digits: U the symmetric-sector N-fold
    Hadamard, U[x, m] = 2^(-N/2) sqrt(C(N, m) / C(N, x)) K_x(m), and a_m =
    sqrt(C(N, m) / 2^N) the binomial amplitude, so U[x, m] a_m = C(N, m)
    K_x(m) / (2^N sqrt(C(N, x))).  Column m of the Kravchuk values K_x(m) is
    the coefficient list of (1 - z)^m (1 + z)^(N - m), built column by column
    in exact integers."""
    binom = [math.comb(n, j) for j in range(n + 1)]
    classes = [[0] * period for _ in range(n + 1)]
    for m in range(n + 1):
        minus = [(-1) ** j * math.comb(m, j) for j in range(m + 1)]
        plus = [math.comb(n - m, j) for j in range(n - m + 1)]
        r = (m - shift) % period
        for x in range(n + 1):
            kx = sum(minus[j] * plus[x - j] for j in range(max(0, x - n + m), min(x, m) + 1))
            classes[x][r] += binom[m] * kx
    with mpmath.workdps(dps):
        scale = [1 / (mpmath.mpf(2) ** n * mpmath.sqrt(b)) for b in binom]
        return tuple(tuple(mpmath.mpf(c) * s for c in row) for row, s in zip(classes, scale))


def kravchuk_readout(p: FFPlan, lam, weights) -> list:
    """The fast route's count distribution on plan p, in the current mpmath
    precision: sum_l w_l |g_l[x]|^2 for x = 0..N, g_l[x] = sum_m U[x, m] a_m
    e^(-i lam_l theta_(r(m))), the explicit Kravchuk sum over every address m
    (``_kravchuk_classes``) of the phase table e^(-i lam_l theta_r), theta_r
    the double step root times 2r - P, which the circuit's bit-selected
    factors multiply out to.  For the register counts of a few hundred whose
    exact integers stay small."""
    rows = _kravchuk_classes(p.n, p.period, p.shift, mpmath.mp.dps)
    thetas = residue_thetas(p)
    dist = [0] * (p.n + 1)
    for h, w in zip(lam, weights):
        phases = [mpmath.expj(-h * th) for th in thetas]
        for x, row in enumerate(rows):
            dist[x] += w * abs(mpmath.fsum(b * f for b, f in zip(row, phases))) ** 2
    return dist


def sampled_median(dist, seed, repeats: int, margin: float) -> int:
    """The median of ``repeats`` counts drawn from ``dist`` by inverse CDF on
    numpy's ``default_rng(seed).random`` variates: draw v picks the first
    count whose cumulative mass over the total passes v.  Each variate must lie
    more than ``margin`` from every cumulative mass, so that a distribution
    within ``margin`` of ``dist`` in total picks the same counts."""
    total = mpmath.fsum(dist)
    cdf, acc = [], mpmath.mpf(0)
    for x in dist:
        acc += x
        cdf.append(acc / total)
    picks = []
    for v in np.random.default_rng(seed).random(repeats).tolist():
        assert min(abs(c - v) for c in cdf) > margin, (v, margin)
        picks.append(next(x for x, c in enumerate(cdf) if c > v))
    return int(np.median(picks))


def slow_rms_error(t: float, n: int, h: float) -> tuple:
    """The rms error sqrt(sum_m pmf(m) (est(m) - h)^2) of the slow readout of
    the eigenvalue h at time t and count n, est(m) = sqrt(n / t) asin(sqrt(m /
    n)), on the Binomial(n, sin^2(sqrt(t / n) h)) pmf at 40 digits (the double
    step root, as the circuit reads it), over the counts whose pmf is at least
    2^-200 of the mode's; and the first-order bound on a float64 evaluation
    that sums the pmf's window, each entry extended from the centre c by
    running ratios (3 u a step, so (3 |m - c| + 2 W + 8) u relative with the
    normalization over W entries) and est(m) to 8 u of |est|."""
    u = 2.0 ** -53
    with mpmath.workdps(40):
        q = mpmath.sin(mpmath.mpf(_root(t, n)) * h) ** 2
        mode = min(int(mpmath.floor((n + 1) * q)), n)
        peak = mpmath.binomial(n, mode) * q ** mode * (1 - q) ** (n - mode)
        floor, odds = peak * mpmath.mpf(2) ** -200, q / (1 - q)
        pmf, v = {mode: peak}, peak
        for m in range(mode, n):
            v = v * (n - m) / (m + 1) * odds
            if v < floor:
                break
            pmf[m + 1] = v
        v = peak
        for m in range(mode, 0, -1):
            v = v * m / (n - m + 1) / odds
            if v < floor:
                break
            pmf[m - 1] = v
        centre, width = int(round(float(n * q))), len(pmf)
        scale = mpmath.sqrt(mpmath.mpf(n) / t)
        est = {m: scale * mpmath.asin(mpmath.sqrt(mpmath.mpf(m) / n)) for m in pmf}
        square = mpmath.fsum(w * (est[m] - h) ** 2 for m, w in pmf.items())
        slack = mpmath.fsum(w * ((est[m] - h) ** 2 * (3 * abs(m - centre) + 2 * width + 8)
                                 + 16 * abs(est[m] - h) * abs(est[m])) for m, w in pmf.items())
        rms = mpmath.sqrt(square)
        return float(rms), float(slack * u / (2 * rms) + 2 * u * rms)


def ff_prepare_numbers(lam, comps, beta: int, p: FFPlan) -> dict:
    """What ``qpe prepare --route fast`` writes on plan p for the eigenvalues
    ``lam`` (ascending, distinct) and the projected components P_l psi
    (``comps``), in the current mpmath precision, each output a list of real
    numbers: the gaps g_l = (h_l - h_beta) / max|h - h_beta| and component l
    scaled by the ``ff`` column f_l at g_l, the state sum_l f_l P_l psi /
    sqrt(p0); the overlap bound is 1 - 6 zeta, zeta = sqrt(eps) / c_beta, where
    zeta < 1/6 and the dilated filter cos(sqrt(t / N) g)^N keeps an overlap of
    at least 1 - zeta, else 0.  The dilated overlap's margin to 1 - zeta is
    returned too, so that the branch can be checked away from its edge."""
    mp = mpmath.mp
    weights = [sum(abs(z) ** 2 for z in comp) for comp in comps]
    gaps = [x - lam[beta] for x in lam]
    widest = max(abs(x) for x in gaps)
    g = [x / widest for x in gaps]
    f = ff_column(p, g)
    kept = [w * abs(x) ** 2 for w, x in zip(weights, f)]
    p0 = mp.fsum(kept)
    state = [sum(x * comp[i] for x, comp in zip(f, comps)) / mp.sqrt(p0)
             for i in range(len(comps[0]))]
    w = weights[beta]
    zeta = mp.sqrt(p.eps) / mp.sqrt(w)
    root = mp.sqrt(mp.mpf(p.t) / p.n)
    plain = [mp.cos(root * x) ** p.n for x in g]
    margin = w / mp.fsum(wl * x ** 2 for wl, x in zip(weights, plain)) - (1 - zeta)
    bound = 1 - 6 * zeta if zeta < mp.mpf(1) / 6 and margin >= 0 else mp.mpf(0)
    return {
        "postselect_probability": [p0],
        "overlap": [kept[beta] / p0],
        "state": [part for z in state for part in (mp.re(z), mp.im(z))],
        "expected_repeats": [1 / p0],
        "ideal_amplification_queries": [1 / mp.sqrt(w)],
        "overlap_bound": [bound],
        "dilated_margin": [margin],
    }


def gibbs_numbers(lam, vecs, beta: float, p: FFPlan) -> dict:
    """What ``gibbs`` writes at inverse temperature beta on plan p for the PSD
    H_P = sum_l lam_l v_l v_l^dag (``vecs`` its eigenvectors), in the current
    mpmath precision, each output a list of real numbers: the ``ff`` column
    K_l at the roots sqrt(lam_l), the partition estimate sum_l |K_l|^2, the
    reduced state sum_l q_l v_l v_l^dag with q_l = |K_l|^2 / sum |K|^2 (its
    entries row by row, real and imaginary parts), the exact partition
    function sum_l e^(-beta lam_l), the Uhlmann fidelity of the two commuting
    states (sum_l sqrt(q_l e^(-beta lam_l) / Z))^2 and the ideal amplification
    queries sqrt(dim / sum |K|^2)."""
    mp = mpmath.mp
    dim = len(vecs)
    k = ff_column(p, [mp.sqrt(max(x, 0)) for x in lam])
    z_est = mp.fsum(abs(x) ** 2 for x in k)
    q = [abs(x) ** 2 / z_est for x in k]
    rho = [mp.fsum(ql * v[i] * mp.conj(v[j]) for ql, v in zip(q, vecs))
           for i in range(dim) for j in range(dim)]
    boltz = [mp.exp(-beta * x) for x in lam]
    z = mp.fsum(boltz)
    return {
        "partition_estimate": [z_est],
        "reduced_state": [part for x in rho for part in (mp.re(x), mp.im(x))],
        "partition_exact": [z],
        "fidelity": [mp.fsum(mp.sqrt(ql * b / z) for ql, b in zip(q, boltz)) ** 2],
        "ideal_amplification_queries": [mp.sqrt(dim / z_est)],
    }


def exact_gibbs(h_p: np.ndarray, beta: float) -> tuple[np.ndarray, float]:
    """Reference e^{-beta H_P} / Z via the spectral decomposition."""
    w, v = nk.herm_eig(h_p)
    boltz = np.exp(-beta * w)
    z = float(np.sum(boltz))
    rho = (v * (boltz / z)) @ v.conj().T
    return rho, z


def uhlmann_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(tr |sqrt(rho) sqrt(sigma)|)^2: the squared nuclear norm of the product
    of scipy's matrix square roots, with no assumption that the states commute."""
    from scipy.linalg import sqrtm

    return float(np.sum(np.linalg.svd(sqrtm(rho) @ sqrtm(sigma), compute_uv=False)) ** 2)


def kw_synthesize(schedule: list[np.ndarray]) -> np.ndarray:
    """Replay an angle schedule into the 2^depth amplitude vector."""
    depth = len(schedule)
    n = 2 ** depth
    amps = np.ones(n)
    for level, angles in enumerate(schedule):
        path = np.arange(n) & ((1 << level) - 1)
        bit = (np.arange(n) >> level) & 1
        a = angles[path]
        amps *= np.where(bit == 0, np.cos(a), np.sin(a))
    return amps


def per_node_angle_schedule(params) -> list[np.ndarray]:
    """``kw_angle_schedule`` by its recursion one node at a time: each node's
    lattice sums f(mu, sigma) in Python scalars (the theta series with
    ``math.cos``, or the direct sum over the node's own sites)."""
    def lattice_sum(mu: float, sigma: float) -> float:
        if sigma < 1.0:
            reach = sigma * math.sqrt(-2.0 * math.log(SERIES_CUTOFF)) + 1.0
            m = np.arange(math.floor(mu - reach), math.ceil(mu + reach) + 1)
            return float(np.sum(np.exp(-((m - mu) ** 2) / (2.0 * sigma ** 2))))
        total, l = 1.0, 1
        while (mag := 2.0 * math.exp(-2.0 * math.pi ** 2 * l ** 2 * sigma ** 2)) >= SERIES_CUTOFF:
            total += mag * math.cos(2.0 * math.pi * l * mu)
            l += 1
        return math.sqrt(2.0 * math.pi * sigma ** 2) * total

    mus, sigma, schedule = [params.mu], params.sigma, []
    for _ in range(params.n.bit_length() - 1):
        angles = []
        for mu in mus:
            parent = lattice_sum(mu, sigma)
            ratio = lattice_sum(mu / 2.0, sigma / 2.0) / parent if parent > 0 else 1.0
            angles.append(math.acos(math.sqrt(min(max(ratio, 0.0), 1.0))))
        schedule.append(np.array(angles))
        mus = [mu / 2.0 for mu in mus] + [(mu - 1.0) / 2.0 for mu in mus]
        sigma /= 2.0
    return schedule


def dml_gap(n: int, p: float) -> float:
    """Largest pointwise gap between the Binomial(N, p) pmf and the Gaussian
    density with matched mean and variance."""
    if not 0.0 < p < 1.0:
        raise ValidationError(f"p must be in (0, 1), got {p}")
    m = np.arange(n + 1)
    mu = n * p
    var = n * p * (1.0 - p)
    pdf = np.exp(-((m - mu) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
    return float(np.max(np.abs(binom_pmf(n, p) - pdf)))


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_pauli_sum(terms) -> np.ndarray:
    """Dense sum of coeff * PauliString over (coeff, string) pairs of one
    width, each term built by one ``np.kron`` per qubit."""
    dim = 2 ** len(terms[0][1])
    h = np.zeros((dim, dim), dtype=complex)
    for coeff, string in terms:
        op = np.array([[1.0 + 0j]])
        for ch in string:
            op = np.kron(op, _PAULI[ch])
        h += coeff * op
    return h


def line_by_line_jump_list(path: str) -> tuple[list, str]:
    """The (path, rate) pairs of a valid jump list and the digest of its
    scaled jumps, read one file line at a time by the jump-list reader the CLI
    had before ``model.parse_jump_list``."""
    base = os.path.dirname(os.path.abspath(path))
    pairs = []
    hasher = hashlib.sha256()
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            pairs.append((parts[0], float(parts[1]) if len(parts) > 1 else 1.0))
            with open(os.path.join(base, parts[0])) as jf:
                mat = load_hamiltonian_text(jf.read())
            hasher.update(np.ascontiguousarray(math.sqrt(pairs[-1][1]) * mat).tobytes())
    return pairs, hasher.hexdigest()


def pauli_noise_spec(terms) -> LindbladSpec:
    """Jumps sqrt(rate) * PauliString; always passes the commutation check.

    ``terms`` is an iterable of (pauli_string, rate), each rate positive and
    finite: a jump of any norm runs.
    """
    jumps = []
    for string, rate in terms:
        if not 0.0 < rate < math.inf:
            raise ValidationError(f"rate {rate} is not positive and finite")
        p = parse_pauli_sum(f"1.0 {string}")
        jumps.append(math.sqrt(rate) * p)
    return lindblad_spec(jumps)


def amplitude_decision_demo(n: int, witnesses: int, t: float = 250.0, register_n: int = 2048,
                            eps: float = 1e-5, mode: str = "sample",
                            seed=None) -> AmplitudeDecision:
    """Decide witness count W = 0 vs W >= 1 by phase-estimating the iterate.

    The estimated eigenphase is compared against half the minimal
    nonzero-witness rotation 2 arcsin(2^(-n/2)).  Repeated runs on one oracle
    should build ``amplitude_problem`` once and call ``decide_amplitude``.
    """
    return decide_amplitude(amplitude_problem(n, witnesses, t, register_n, eps), mode, seed)


def grover_iterate(bits) -> tuple[np.ndarray, np.ndarray]:
    """Dense search iterate of a 0/1 oracle on address x flag, 2^(n+1)
    dimensions, and its flagged uniform state.

    The raw product of the reflection about the flagged uniform state with
    the flag-Z differs from the rotation form by a global -1; that sign is
    absorbed here so a zero witness count sits at eigenphase 0, as in
    ``qpe.amplitude_problem``.
    """
    bits = np.asarray(bits, dtype=int)
    n = bits.size.bit_length() - 1
    dim = 1 << (n + 1)
    eta = np.zeros(dim)
    eta[2 * np.arange(bits.size) + bits] = 2.0 ** (-n / 2.0)
    signs = np.where(np.arange(dim) & 1, -1.0, 1.0)
    u = (2.0 * np.outer(eta, eta) - np.eye(dim)) * signs[None, :]
    return u, eta


def schur_orthogonal_log(u):
    """Principal Hermitian logarithm of a real orthogonal U through scipy's
    real Schur form: the form of a normal matrix is block diagonal, 1x1
    blocks +-1 and 2x2 rotation blocks, and eigenphase pi is assigned to +pi."""
    from scipy.linalg import schur

    t, q = schur(u, output="real")
    dim = u.shape[0]
    h = np.zeros((dim, dim), dtype=complex)
    i = 0
    while i < dim:
        if i + 1 < dim and abs(t[i + 1, i]) > 1e-10:
            phi = math.atan2(t[i + 1, i], t[i, i])
            h[i, i + 1] = -1j * phi
            h[i + 1, i] = 1j * phi
            i += 2
        else:
            h[i, i] = math.pi if t[i, i] < 0 else 0.0
            i += 1
    return q @ h @ q.conj().T


def dense_amplitude_problem(bits, t: float = 250.0, register_n: int = 2048,
                            eps: float = 1e-5) -> AmplitudeProblem:
    """``amplitude_problem`` of the oracle ``bits`` with its Hamiltonian and
    distribution taken the dense way: the Schur logarithm of the whole
    iterate, normalized, with the flagged uniform state decomposed against
    it.  Plan, threshold and amplitude do not depend on the iterate and are
    the closed form's."""
    bits = np.asarray(bits, dtype=int)
    closed = amplitude_problem(bits.size.bit_length() - 1, int(bits.sum()), t, register_n, eps)
    u, eta = grover_iterate(bits)
    ham = normalize_spectrum(schur_orthogonal_log(u))
    dist = _fast_distribution(ham, decompose_state(eta, ham), closed.channel.plan)
    return closed._replace(ham=ham, distribution=dist)


def unit_gaps(ham: Hamiltonian, beta: int) -> Hamiltonian:
    """``ham`` on the gaps h - h_beta to eigenspace ``beta`` over their widest,
    the spectrum every preparation route filters, built as its own Hamiltonian:
    the target checked by ``spectral_gap``, then subtracted, then divided out;
    the spectrum map is left as it was."""
    spectral_gap(ham, beta)
    gaps = ham.eigenvalues - ham.eigenvalues[beta]
    return ham._replace(eigenvalues=gaps / float(np.max(np.abs(gaps))))


def standard_filter(gaps, d):
    """Outcome-0 filter 2^-d sum_j e^(-2 pi i g j) of the d-bit register."""
    j = np.arange(1 << d)
    return np.exp(-2j * np.pi * np.outer(gaps, j)).sum(axis=1) / (1 << d)


def closed_form_standard_qpe(ham: Hamiltonian, state: SpectralState, d: int,
                             mode: str = "exact", seed=None,
                             repeats: int = 1) -> EstimationResult:
    """Standard-route estimation as the route wrote it before it read the
    ``standard`` channel: the d-bit register's distribution summed over the
    whole grid of outcomes y / 2^d, level by level, from D_d = sin(pi g 2^d) /
    sin(pi g) in its closed form at g = h - y / 2^d, the picked outcome read
    as y / 2^d and priced 2^d - 1 evolutions on d steps and d ancillas."""
    d = nk.require_count(d, 1, "register bits")
    size = 1 << d
    ys = np.arange(size) / size
    dist = np.zeros(size)
    read = _read_levels(state)
    for h, w in zip(ham.eigenvalues[read], state.weights[read]):
        tw = (h - ys) - np.round(h - ys)
        ratio = np.where(tw == 0.0, float(size),
                         np.sin(np.pi * tw * size) / np.where(tw == 0.0, 1.0, np.sin(np.pi * tw)))
        dist += w * ratio ** 2
    dist /= 4 ** d
    y = _pick_outcome(dist, mode, seed, repeats)
    return EstimationResult(float(ham.spectrum_map.to_original(y / size)), float(y / size),
                            int(y), dist, CostReport(float(size - 1), d, d), False)


def closed_form_standard_prepare(ham: Hamiltonian, state: SpectralState, beta: int,
                                 d: int) -> PreparationResult:
    """Standard-route preparation as the route wrote it before it read the
    ``standard`` channel's kernel: post-select outcome 0, which scales
    component l by e^(-i pi g_l (2^d - 1)) D_d(g_l) / 2^d at its gap
    g_l = h_l - h_beta, D_d = sin(pi g 2^d) / sin(pi g) in its closed form,
    the gaps first scaled by 1/2 / max|g| into [-1/2, 1/2] once they pass 1/2."""
    d = nk.require_count(d, 1, "register bits")
    if d > 51:
        raise ValidationError(
            f"the standard route takes at most 51 register bits, "
            f"got {d}: past that the phases' rounding, scaled by 2^d, reaches a radian")
    spectral_gap(ham, beta)
    g = ham.eigenvalues - ham.eigenvalues[beta]
    widest = float(np.max(np.abs(g)))
    if widest > 0.5:
        g = g * (0.5 / widest)
    tw = g - np.round(g)
    ratio = np.where(tw == 0.0, float(1 << d),
                     np.sin(np.pi * tw * (1 << d)) / np.where(tw == 0.0, 1.0, np.sin(np.pi * tw)))
    amp = np.exp(-1j * np.pi * g * ((1 << d) - 1)) * ratio / (1 << d)
    w = state.weights[beta]
    gap = float(np.min(np.abs(np.delete(g, beta))))
    bound = w / (w + (1.0 - w) / (4.0 * ((1 << d) * gap) ** 2))
    c_beta = float(state.coeffs[beta])
    if c_beta == 0.0:
        raise ValidationError(f"state has no weight on eigenspace {beta}")
    kept = state.weights * np.abs(amp) ** 2
    p0 = float(np.sum(kept))
    overlap = float(kept[beta] / p0)
    if overlap < bound - 1e-10:
        raise InvariantError(f"overlap {overlap} violates its bound {bound}")
    return PreparationResult(p0, overlap, (state.coeffs * amp) @ state.components / math.sqrt(p0),
                             1.0 / p0, 1.0 / c_beta, float(bound),
                             CostReport(float((1 << d) - 1), d, d))


def standard_route_numbers(lam, comps, beta: int, d: int) -> dict:
    """What ``qpe prepare --route standard`` and ``qpe --route standard`` write
    for the eigenvalues ``lam`` (ascending, distinct) and the projected
    components P_l psi (``comps``), in the current mpmath precision, each
    output a list of real numbers.

    The spectrum is read as it is inside [0, 1], else mapped affinely onto it.
    Preparation stretches the gaps h_l - h_beta to radius 1/2 and scales
    component l by the explicit sum f_l = 2^-d sum_j e^(-2 pi i g_l j); the
    state is sum_l f_l P_l psi / sqrt(p0), so no eigenvector phase enters.
    The distribution sums |2^-d sum_j e^(2 pi i j (h_l - y / 2^d))|^2 over the
    levels' weights ||P_l psi||^2, and the estimate reads its argmax outcome.
    """
    mp = mpmath.mp
    size = 1 << d
    lo, hi = lam[0], lam[-1]
    scale, shift = (1, 0) if lo >= 0 and hi <= 1 else (hi - lo, lo)
    h = [(x - shift) / scale for x in lam]
    weights = [sum(abs(z) ** 2 for z in comp) for comp in comps]

    def register_sum(phase):
        return mp.fsum(mp.expjpi(2 * phase * j) for j in range(size)) / size

    gaps = [x - h[beta] for x in h]
    widest = max(abs(x) for x in gaps)
    g = [x / (2 * widest) for x in gaps]
    f = [register_sum(-x) for x in g]
    kept = [w * abs(x) ** 2 for w, x in zip(weights, f)]
    p0 = mp.fsum(kept)
    state = [sum(x * comp[i] for x, comp in zip(f, comps)) / mp.sqrt(p0)
             for i in range(len(comps[0]))]
    gap = min(abs(x) for i, x in enumerate(g) if i != beta)
    w = weights[beta]
    dist = [mp.fsum(wl * abs(register_sum(hl - mp.mpf(y) / size)) ** 2
                    for wl, hl in zip(weights, h)) for y in range(size)]
    top = max(range(size), key=lambda y: dist[y])
    return {
        "postselect_probability": [p0],
        "overlap": [kept[beta] / p0],
        "state": [part for z in state for part in (mp.re(z), mp.im(z))],
        "expected_repeats": [1 / p0],
        "ideal_amplification_queries": [1 / mp.sqrt(w)],
        "overlap_bound": [w / (w + (1 - w) / (4 * (size * gap) ** 2))],
        "distribution": dist,
        "raw_outcome": [top],
        "estimate_normalized": [mp.mpf(top) / size],
        "estimate": [scale * mp.mpf(top) / size + shift],
    }


def standard_route_oracle(terms, psi: np.ndarray, beta: int, d: int, dps: int = 40):
    """``standard_route_numbers`` on mpmath's dense eigendecomposition of
    ``kron_pauli_sum(terms)`` at ``dps`` digits, with the first-order bound on
    how far the package's float64 numbers may lie from them (``eigen_oracle``),
    plus 4 2^d u (1 + |x|) for the float arithmetic after the
    eigendecomposition, whose phases reach 2^d pi.  Returns (numbers,
    bounds), each a dict of lists."""
    return eigen_oracle(kron_pauli_sum(terms),
                        lambda lam, comps: standard_route_numbers(lam, comps, beta, d),
                        lambda x: 4 * (1 << d) * 2.0 ** -53 * (1 + abs(x)), psi, dps)


def eigen_oracle(mat: np.ndarray, numbers, float_bound, psi=None, dps: int = 40):
    """``numbers(lam, vecs)`` on mpmath's eigendecomposition of the dense
    Hermitian ``mat`` at ``dps`` digits, lam ascending and distinct and vecs
    the projected components P_l psi (the eigenvectors themselves where psi
    is None), with the first-order bound on how far the package's float64
    numbers may lie from them.

    The error model: each side reads the matrix to an ulp an entry, and eigh's
    eigenvalues are exact for H + E, ||E|| <= dim u ||H|| (u = 2^-53, Weyl),
    so ||E|| <= e = 2 dim u ||H|| in all; each P_l psi (each eigenvector, up to
    its phase) then moves by at most e / gap_l (Davis and Kahan), gap_l its
    distance to the other eigenvalues.  A number x moves by at most the sum of
    |dx/dtheta| e_theta over those inputs (central differences, at ``dps``
    digits), plus ``float_bound(x)`` for the float arithmetic after the
    eigendecomposition.  Returns (numbers, bounds), each a dict of lists.
    """
    mp = mpmath.mp
    u = 2.0 ** -53
    with mpmath.workdps(dps):
        lam, vecs = mp.eighe(mpmath.matrix(mat.tolist()))
        dim = mat.shape[0]
        lam = [lam[i] for i in range(dim)]
        if any(b - a <= 0 for a, b in zip(lam, lam[1:])):
            raise ValidationError("the oracle takes a nondegenerate spectrum, ascending")
        cols = [[vecs[i, l] for i in range(dim)] for l in range(dim)]
        if psi is None:
            comps = cols
        else:
            proj = [mp.fsum(mp.conj(v[i]) * complex(psi[i]) for i in range(dim)) for v in cols]
            comps = [[v[i] * c for i in range(dim)] for v, c in zip(cols, proj)]
        want = numbers(lam, comps)
        err = 2 * dim * u * max(abs(x) for x in lam)
        step = mp.mpf(10) ** (-dps // 3)
        bounds = {name: [float_bound(x) for x in xs] for name, xs in want.items()}

        def add(move, budget):
            plus, minus = (numbers(*move(s)) for s in (step, -step))
            for name in bounds:
                for i, (a, b) in enumerate(zip(plus[name], minus[name])):
                    bounds[name][i] += abs(a - b) / (2 * step) * budget

        for l in range(dim):
            gap = min(abs(lam[l] - x) for k, x in enumerate(lam) if k != l)
            add(lambda s: ([x + s * (k == l) for k, x in enumerate(lam)], comps), err)
            for i in range(dim):
                for unit in (1, 1j):
                    def move(s, l=l, i=i, unit=unit):
                        moved = [list(c) for c in comps]
                        moved[l][i] += s * unit
                        return lam, moved
                    add(move, err / gap)
    return ({name: [float(x) for x in xs] for name, xs in want.items()},
            {name: [float(x) for x in xs] for name, xs in bounds.items()})
