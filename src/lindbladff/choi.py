"""Commuting-generator Lindbladians: criterion and factorized fast-forwarding.

A multi-jump dissipator factorizes into a sequence of single-jump channels
exactly when the vectorized per-jump generators pairwise commute.  Jumps that
pairwise commute or anticommute (in particular any set of scaled Pauli
strings) always qualify, and ``is_choi_commuting`` recognizes them on a
fixed probe in O(d^2) per pair; only the other pairs pay for the d^2 x d^2
generators.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, ValidationError
from . import numkernel as nk
from .dilated import CostReport
from .fastforward import ff_cost, gap_kernel, plan as make_plan
from .model import JUMP_NORM_ATOL, LindbladSpec, normalize_spectrum

# Commutation tolerance of ``is_choi_commuting``, relative to the
# generator-term scale
COMMUTE_TOL = 1e-9


def choi_generator_term(h: np.ndarray) -> np.ndarray:
    """Vectorized single-jump generator H (x) H* - H^2 (x) I / 2 - I (x) H*^2 / 2."""
    h = nk.require_hermitian(h)
    eye = np.eye(h.shape[0])
    h2 = h @ h
    return np.kron(h, h.conj()) - 0.5 * np.kron(h2, eye) - 0.5 * np.kron(eye, h2.conj())


# Bytes the superoperator fallback of ``is_choi_commuting`` may hold: two
# generator terms and three products, each d^2 x d^2 complex.
_SUPEROP_BYTES = 1 << 30


def _probe(dim: int) -> np.ndarray:
    """Two fixed, seed-free probe columns exp(2 pi i k sqrt(2)) and
    exp(2 pi i k sqrt(3)), k = 0..dim-1."""
    k = np.arange(dim)[:, None]
    return np.exp(2j * math.pi * ((k * np.array([math.sqrt(2.0), math.sqrt(3.0)])) % 1.0))


def _superop_commutator(a: np.ndarray, b: np.ndarray) -> tuple[bool, float]:
    """Whether the generator terms of jumps ``a`` and ``b`` commute, and the
    largest entry of their commutator."""
    if 5 * 16 * a.shape[0] ** 4 > _SUPEROP_BYTES:
        raise CapacityError(
            f"generator commutator at dim {a.shape[0]} needs more than "
            f"{_SUPEROP_BYTES} bytes")
    ta, tb = choi_generator_term(a), choi_generator_term(b)
    norm = float(np.max(np.abs(ta @ tb - tb @ ta)))
    scale = max(1.0, float(np.max(np.abs(ta))) * float(np.max(np.abs(tb))))
    return norm <= COMMUTE_TOL * scale, norm


def is_choi_commuting(spec: LindbladSpec) -> tuple[bool, float]:
    """Pairwise-commutator check of the vectorized generators.

    Returns (passes, max commutator).  Jumps A, B that commute or
    anticommute have commuting generators, and (AB -+ BA) X = 0 on a fixed
    two-column probe X detects either relation in O(d^2) (Freivalds, 1977),
    relative to ||A|| ||B|| ||X|| (Frobenius norms); the pair's value is then
    the smaller residual norm.  A pair where neither holds falls back to the
    commutator of its d^2 x d^2 generator terms, whose largest entry is the
    pair's value (relative to the product of the terms' largest entries);
    the fallback raises ``CapacityError`` above ``_SUPEROP_BYTES``.  The
    criterion is exact in theory, so a materially nonzero commutator means
    the spec is outside the factorizable class.
    """
    jumps = spec.jumps
    if len(jumps) < 2:
        return True, 0.0
    x = _probe(spec.dim)
    ax = [a @ x for a in jumps]
    scales = [float(np.linalg.norm(a)) for a in jumps]
    x_norm = float(np.linalg.norm(x))
    worst = 0.0
    passes = True
    for i in range(len(jumps)):
        for j in range(i + 1, len(jumps)):
            ab, ba = jumps[i] @ ax[j], jumps[j] @ ax[i]
            residual = float(min(np.linalg.norm(ab - ba), np.linalg.norm(ab + ba)))
            if residual <= COMMUTE_TOL * scales[i] * scales[j] * x_norm:
                worst = max(worst, residual)
                continue
            ok, norm = _superop_commutator(jumps[i], jumps[j])
            worst = max(worst, norm)
            passes = passes and ok
    return passes, worst


def choi_ff_evolve(spec: LindbladSpec, state0: np.ndarray, t: float,
                   eps_total: float) -> tuple[np.ndarray, CostReport, float]:
    """Sequential per-jump fast-forwarding with a uniform error split.

    Each jump is eigendecomposed once, by ``normalize_spectrum``; a jump
    whose norm, read off that spectrum, exceeds 1 raises.  The channel
    factorizes only when the generators commute, so the spec must then pass
    ``is_choi_commuting``; the largest commutator it found is returned after
    the state and the cost.  Each factor gets eps_total / K and the input
    order (immaterial up to that budget for a commuting spec).  A jump
    normalized with map scale s runs for s^2 t: identity shifts leave the
    dissipator invariant and a c-scaled jump squares the rates.
    """
    if not 0 < t < math.inf:
        raise ValidationError(f"evolution time must be positive and finite, got {t}")
    hams = [normalize_spectrum(j) for j in spec.jumps]
    for k, ham in enumerate(hams):
        nrm = float(np.max(np.abs(ham.spectrum_map.to_original(ham.eigenvalues[[0, -1]]))))
        if nrm > 1.0 + JUMP_NORM_ATOL:
            raise ValidationError(
                f"jump {k} has operator norm {nrm:.6f} > 1; rescale the jump by 1/{nrm:.4f} "
                f"and the evolution time by {nrm**2:.4f} (a c-scaled jump squares the rates)"
            )
    passes, worst = is_choi_commuting(spec)
    if not passes:
        raise ValidationError(f"generators do not commute (max commutator entry {worst:.3e})")
    state0 = np.asarray(state0, dtype=complex)
    # each factor maps density matrices to density matrices: validate once; a
    # vector's projector needs no eigenvalue check, only symmetrizing (numpy
    # can round psi_i psi_j* and psi_j psi_i* apart in the last bit)
    if state0.ndim == 1:
        psi = nk.require_state(state0)
        rho = nk.require_hermitian(np.outer(psi, psi.conj()))
    else:
        rho = nk.require_density(state0)
    eps_each = eps_total / len(hams)
    costs = []
    for ham in hams:
        time = ham.spectrum_map.scale ** 2 * t
        if ham.n_levels == 1 or time == 0.0:
            continue  # no dissipation: an identity-proportional jump, or an underflowed rate
        p = make_plan(time, eps_each)
        rho = ham.dephase(gap_kernel(p, ham.eigenvalues, ham.eigenvalues), rho)
        costs.append(ff_cost(p))
    # the counts sum from int 0, so the record keeps integer counts
    cost = CostReport(sum((c.hamiltonian_time for c in costs), 0.0),
                      sum(c.step_count for c in costs), sum(c.ancilla_count for c in costs))
    return rho, cost, worst
