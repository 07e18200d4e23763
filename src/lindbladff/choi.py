"""Commuting-generator Lindbladians: criterion, factorized fast-forwarding,
and the Pauli-noise constructor.

A multi-jump dissipator factorizes into a sequence of single-jump channels
exactly when the vectorized per-jump generators pairwise commute.  Jumps that
pairwise commute or anticommute (in particular any set of scaled Pauli
strings) always qualify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TOL
from .errors import ValidationError
from . import numkernel as nk
from .dilated import CostReport
from .fastforward import ff_evolve, plan as make_plan
from .model import LindbladSpec, lindblad_spec, normalized_jump, parse_pauli_sum


def choi_generator_term(h: np.ndarray) -> np.ndarray:
    """Vectorized single-jump generator H (x) H* - H^2 (x) I / 2 - I (x) H*^2 / 2."""
    h = nk.require_hermitian(h)
    eye = np.eye(h.shape[0])
    h2 = h @ h
    return np.kron(h, h.conj()) - 0.5 * np.kron(h2, eye) - 0.5 * np.kron(eye, h2.conj())


def is_choi_commuting(spec: LindbladSpec) -> tuple[bool, float]:
    """Pairwise-commutator check of the vectorized generators.

    Returns (passes, max commutator max-entry norm).  The tolerance scales
    with the product of the term magnitudes; the criterion is exact in
    theory, so a materially nonzero commutator means the spec is outside the
    factorizable class.
    """
    terms = [choi_generator_term(h) for h in spec.jumps]
    if len(terms) < 2:
        return True, 0.0
    worst = 0.0
    passes = True
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            comm = terms[i] @ terms[j] - terms[j] @ terms[i]
            norm = float(np.max(np.abs(comm)))
            worst = max(worst, norm)
            scale = max(1.0, float(np.max(np.abs(terms[i]))) * float(np.max(np.abs(terms[j]))))
            if norm > TOL.choi_commute_tol * scale:
                passes = False
    return passes, worst


def choi_ff_evolve(spec: LindbladSpec, state0: np.ndarray, t: float,
                   eps_total: float, override: bool = False
                   ) -> tuple[np.ndarray, CostReport]:
    """Sequential per-jump fast-forwarding with a uniform error split.

    Each factor gets eps_total / K; for a commuting spec the factor order is
    immaterial up to that budget, and we keep the input order.  Jumps whose
    spectrum leaves [0, 1] are normalized with the matching quadratic time
    rescale (identity shifts leave the dissipator invariant).  ``override``
    skips the commutation check: it forces the factorized channel.
    """
    if t <= 0:
        raise ValidationError(f"evolution time must be positive, got {t}")
    if not override:
        passes, worst = is_choi_commuting(spec)
        if not passes:
            raise ValidationError(
                f"generators do not commute (max commutator entry {worst:.3e}); "
                f"pass override=True to force the factorized channel anyway"
            )
    state0 = np.asarray(state0, dtype=complex)
    rho = np.outer(state0, state0.conj()) if state0.ndim == 1 else nk.require_density(state0)
    k = len(spec.jumps)
    eps_each = eps_total / k
    total_time = 0.0
    steps = 0
    ancillas = 0
    for jump in spec.jumps:
        ham, time_scale = normalized_jump(jump)
        if ham.zero_width:
            continue  # identity-proportional jump generates no dissipation
        p = make_plan(time_scale * t, eps_each)
        rho, cost = ff_evolve(ham, rho, p)
        total_time += cost.hamiltonian_time
        steps += cost.step_count
        ancillas += cost.ancilla_count
    return rho, CostReport(total_time, steps, ancillas)


def pauli_noise_spec(terms) -> LindbladSpec:
    """Jumps sqrt(rate) * PauliString; always passes the commutation check.

    ``terms`` is an iterable of (pauli_string, rate) with rates in (0, 1].
    """
    jumps = []
    for string, rate in terms:
        if not 0.0 < rate <= 1.0:
            raise ValidationError(
                f"rate {rate} outside (0, 1]; rescale the evolution time instead "
                f"(a c-scaled jump squares the rates)"
            )
        p = parse_pauli_sum(f"1.0 {string}")
        jumps.append(math.sqrt(rate) * p)
    return lindblad_spec(jumps)
