"""Commuting-generator Lindbladians: criterion and factorized fast-forwarding.

A multi-jump dissipator factorizes into a sequence of single-jump channels
exactly when the vectorized per-jump generators pairwise commute.  Jumps that
pairwise commute or anticommute (in particular any set of scaled Pauli
strings) always qualify.  ``is_choi_commuting`` checks every pair on fixed
probes in O(d^2) time and memory; no d^2 x d^2 generator is built.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import ValidationError
from . import numkernel as nk
from .channel import Channel, channel, level_kernel
from .model import Hamiltonian, LindbladSpec, normalize_spectrum

# Commutation tolerance of ``is_choi_commuting``, relative to each probe's scale
COMMUTE_TOL = 1e-9

# L_J(X) = J X J - (J^2 X + X J^2) / 2 = sum_pq _GENERATOR[p, q] J^p X J^q
_GENERATOR = np.array([[0.0, 0.0, -0.5], [0.0, 1.0, 0.0], [-0.5, 0.0, 0.0]])


def _probe(dim: int) -> np.ndarray:
    """Seed-free probe columns x, y, z = exp(2 pi i k sqrt(p)), p = 2, 3, 5."""
    k = np.arange(dim)[:, None]
    return np.exp(2j * math.pi * ((k * np.sqrt([2.0, 3.0, 5.0])) % 1.0))


def _krylov(jump: np.ndarray, probe: np.ndarray) -> tuple[np.ndarray, float]:
    """The columns [v, Jv, J^2 v] of each probe column v, shape (d, 3, 3), by
    two three-column products; and the max absolute row sum, a bound on ||J||."""
    jv = jump @ probe
    return np.stack([probe, jv, jump @ jv], axis=2), float(np.max(np.sum(np.abs(jump), axis=1)))


def _generator_residual(a: np.ndarray, b: np.ndarray, ka: np.ndarray, kb: np.ndarray) -> float:
    """||L_A(L_B(x y^H)) z - L_B(L_A(x y^H)) z|| from the jumps' ``_krylov``
    columns, in four mat-vecs: L_J(x y^H) = K_x G K_y^H is rank three, and
    L_J(Y) z = sum_p J^p R_p for R = Y K_z G (G = ``_GENERATOR``)."""
    def apply(jump, inner, z):
        r = inner[:, 0] @ _GENERATOR @ (inner[:, 1].conj().T @ z) @ _GENERATOR
        return r[:, 0] + jump @ (r[:, 1] + jump @ r[:, 2])
    return float(np.linalg.norm(apply(a, kb, ka[:, 2]) - apply(b, ka, kb[:, 2])))


def is_choi_commuting(spec: LindbladSpec) -> tuple[bool, float]:
    """Pairwise-commutator check of the vectorized generators.

    Returns (passes, max commutator) from Freivalds (1977) probes on the
    columns of ``_probe``.  Commuting or anticommuting jumps A, B have
    commuting generators; (AB -+ BA) [x y] = 0 (relative to Frobenius
    norms) settles them, the smaller residual norm being the pair's value.
    Any other pair's value is ``_generator_residual``, relative to
    8 ||A||^2 ||B||^2 ||x|| ||y|| ||z|| (norms from ``_krylov``).  For the
    fixed probe a residual is a polynomial in A and B, not identically zero,
    so it misses a nonzero commutator only on a measure-zero set of inputs.
    """
    jumps = spec.jumps
    if len(jumps) < 2:
        return True, 0.0
    probe = _probe(spec.dim)
    x = probe[:, :2]
    ax = [a @ x for a in jumps]
    scales = [float(np.linalg.norm(a)) for a in jumps]
    x_norm = float(np.linalg.norm(x))
    krylov = functools.cache(lambda k: _krylov(jumps[k], probe))
    worst = 0.0
    passes = True
    for i, j in itertools.combinations(range(len(jumps)), 2):
        ab, ba = jumps[i] @ ax[j], jumps[j] @ ax[i]
        residual = float(min(np.linalg.norm(ab - ba), np.linalg.norm(ab + ba)))
        if residual > COMMUTE_TOL * scales[i] * scales[j] * x_norm:
            (ki, ni), (kj, nj) = krylov(i), krylov(j)
            residual = _generator_residual(jumps[i], jumps[j], ki, kj)
            # ||x|| ||y|| ||z|| = d^1.5: every probe entry has modulus 1
            passes = passes and residual <= COMMUTE_TOL * 8.0 * (ni * nj) ** 2 * spec.dim ** 1.5
        worst = max(worst, residual)
    return passes, worst


def choi_ff_evolve(spec: LindbladSpec, state0: np.ndarray, t: float,
                   eps_total: float) -> tuple[np.ndarray, nk.CostReport, float]:
    """Sequential per-jump fast-forwarding with a uniform error split.

    Each jump is eigendecomposed once, by ``normalize_spectrum``, and a jump
    of any width, normalized with map scale s, runs its normalized form for
    s^2 t: identity shifts leave the dissipator invariant and a c-scaled jump
    squares the rates.  A factor whose s^2 t or plan overflows raises naming
    the jump.  The channel factorizes only when the generators commute, so
    the spec must then pass ``is_choi_commuting``; the largest commutator it
    found is returned after the state and the cost.  Each factor gets
    eps_total / K and the input order (immaterial up to that budget for a
    commuting spec).
    """
    nk.require_time(t)
    nk.require_eps(eps_total)
    hams = [normalize_spectrum(j) for j in spec.jumps]
    eps_each = eps_total / len(hams)
    chans = [_factor_channel(k, ham, t, eps_each) for k, ham in enumerate(hams)]
    passes, worst = is_choi_commuting(spec)
    if not passes:
        raise ValidationError(f"generators do not commute (max commutator {worst:.3e})")
    state0 = np.asarray(state0, dtype=complex)
    # each factor maps density matrices to density matrices: validate once; a
    # vector's projector needs no eigenvalue check, only symmetrizing (numpy
    # can round psi_i psi_j* and psi_j psi_i* apart in the last bit)
    if state0.ndim == 1:
        psi = nk.require_state(state0)
        rho = nk.require_hermitian(np.outer(psi, psi.conj()))
    else:
        rho = nk.require_density(state0)
    if rho.shape[0] != spec.dim:
        raise ValidationError(f"dimension mismatch: state {rho.shape[0]} vs jumps {spec.dim}")
    costs = []
    for ham, chan in zip(hams, chans):
        if chan is not None:
            rho = ham.dephase(level_kernel(chan, ham.eigenvalues), rho)
            costs.append(chan.cost)
    # the counts sum from int 0, so the record keeps integer counts
    cost = nk.CostReport(sum((c.hamiltonian_time for c in costs), 0.0),
                         sum(c.step_count for c in costs), sum(c.ancilla_count for c in costs))
    return rho, cost, worst


def _factor_channel(k: int, ham: Hamiltonian, t: float, eps: float) -> Channel | None:
    """The ``ff`` channel of jump k's factor, run for scale^2 t; None when the
    factor is the identity (an identity-proportional jump, or a rate that
    underflows)."""
    try:
        time = ham.spectrum_map.scale ** 2 * t
    except OverflowError:
        time = math.inf
    try:
        return None if ham.n_levels == 1 or time == 0.0 else channel("ff", time, eps)
    except ValidationError as exc:
        raise ValidationError(f"jump {k} of width {ham.spectrum_map.scale:.6g} runs for "
                              f"scale^2 t = {time:.6g}: {exc}") from None
