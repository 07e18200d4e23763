"""The single-Hermitian-jump channels share one decomposition and one
multiplier, ``Hamiltonian.dephase``, and ``Hamiltonian`` checks what it is
applied to: the checks raise typed errors for every route, and the routes
agree with their literal counterparts on generated jumps."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from lindbladff import (ValidationError, choi_ff_evolve, decompose_state, evolve,
                        lindblad_spec, normalize_spectrum)
from lindbladff.channel import channel
from lindbladff.model import CLUSTER_RTOL
from lindbladff.numkernel import trace_distance

from conftest import dilated_step, random_density, random_state
from oracles import hamiltonian_matrix, steady_state

HAM3 = normalize_spectrum(np.diag([0.0, 0.5, 1.0]).astype(complex))
FF = channel("ff", 1.0, 0.1, n=16)

MIXED_ROUTES = {
    "exact": lambda rho: evolve(HAM3, rho, channel("exact", 1.0, None))[0],
    "steady_state": lambda rho: steady_state(HAM3, rho),
    "dilated": lambda rho: evolve(HAM3, rho, channel("dilated", 1.0, None, 4)),
    "ff_density": lambda rho: evolve(HAM3, rho, FF),
}
PURE_ROUTES = {
    "decompose_state": lambda psi: decompose_state(psi, HAM3),
    "ff_pure": lambda psi: evolve(HAM3, psi, FF),
}


class TestInputChecks:
    @pytest.mark.parametrize("route", sorted(MIXED_ROUTES))
    @pytest.mark.parametrize("rho", [np.eye(2) / 2, np.eye(4) / 4], ids=["dim2", "dim4"])
    def test_mismatched_density_is_typed(self, route, rho):
        with pytest.raises(ValidationError, match="dimension mismatch"):
            MIXED_ROUTES[route](rho.astype(complex))

    @pytest.mark.parametrize("route", sorted(MIXED_ROUTES))
    def test_non_square_density_is_typed(self, route):
        with pytest.raises(ValidationError):
            MIXED_ROUTES[route](np.full((3, 2), 1 / math.sqrt(6.0), dtype=complex))

    @pytest.mark.parametrize("route", sorted(PURE_ROUTES))
    @pytest.mark.parametrize("psi", [np.array([1.0, 0.0]), np.ones(4) / 2],
                             ids=["dim2", "dim4"])
    def test_mismatched_state_is_typed(self, route, psi):
        with pytest.raises(ValidationError, match="dimension mismatch"):
            PURE_ROUTES[route](psi.astype(complex))

    @pytest.mark.parametrize("rho, message", [
        (np.diag([2.0, -1.0]), "density matrix has eigenvalue -1.000e+00 below -1.0e-08"),
        ([[0.5, 1.0], [0.0, 0.5]], "matrix is not Hermitian: max asymmetry 1.000e+00 exceeds 1.0e-10"),
        (np.diag([0.5, 0.6]), "density matrix trace 1.1 deviates from 1"),
    ], ids=["negative", "non_hermitian", "trace"])
    def test_invalid_density_is_rejected_alike(self, rho, message):
        # every single-jump method checks a density input by ``require_density``
        ham = normalize_spectrum(np.diag([0.0, 1.0]).astype(complex))
        for route in (lambda r: evolve(ham, r, channel("exact", 1.0, None))[0],
                      lambda r: evolve(ham, r, channel("dilated", 1.0, None, 4)),
                      lambda r: evolve(ham, r, FF)):
            with pytest.raises(ValidationError) as info:
                route(np.asarray(rho, dtype=complex))
            assert str(info.value) == message

    def test_zero_time_is_refused_alike(self):
        # one time rule, 0 < t < inf, and one message for every evolve method
        spec = lindblad_spec([np.diag([0.0, 1.0]).astype(complex)])
        rho = np.eye(2, dtype=complex) / 2
        for route in (lambda: evolve(HAM3, np.eye(3) / 3, channel("exact", 0.0, None))[0],
                      lambda: evolve(HAM3, np.eye(3) / 3, channel("dilated", 0.0, None, 4)),
                      lambda: evolve(HAM3, np.eye(3) / 3, channel("ff", 0.0, 0.1)),
                      lambda: choi_ff_evolve(spec, rho, 0.0, 0.1)):
            with pytest.raises(ValidationError) as info:
                route()
            assert str(info.value) == "evolution time must be positive and finite, got 0.0"

    def test_column_state_is_typed(self):
        with pytest.raises(ValidationError, match="dimension mismatch"):
            HAM3.components(np.ones((3, 1), dtype=complex) / math.sqrt(3.0))


# ---------------------------------------------------------------------------
# Generated jumps: exact degeneracies and gaps just under and just over the
# cluster tolerance CLUSTER_RTOL * ||H||
# ---------------------------------------------------------------------------

# Step from one eigenvalue to the next, in cluster tolerances: an exact
# repeat, just under one tolerance, just over it, or a fresh value
_STEPS = {"repeat": 0.0, "under": 0.9, "over": 1.1, "fresh": None}


@hst.composite
def jumps(draw):
    """A Hermitian jump of dim 2-6 with structured spectrum, and a generator
    seeded for its eigenbasis and the states it is applied to."""
    dim = draw(hst.integers(2, 6))
    fresh = draw(hst.lists(hst.floats(-3.0, 3.0), min_size=dim, max_size=dim))
    steps = draw(hst.lists(hst.sampled_from(sorted(_STEPS)), min_size=dim - 1,
                           max_size=dim - 1))
    # anchors: the eigenvalues without the sub-tolerance offsets, which fix
    # ||H|| to far better than the 10% margin around the tolerance
    anchors, offsets = [fresh[0]], [0.0]
    for step, value in zip(steps, fresh[1:]):
        if _STEPS[step] is None:
            anchors.append(value)
            offsets.append(0.0)
        else:
            anchors.append(anchors[-1])
            offsets.append(offsets[-1] + _STEPS[step])
    tol = CLUSTER_RTOL * max(abs(x) for x in anchors)
    eigs = np.array(anchors) + tol * np.array(offsets)
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return (q * eigs) @ q.conj().T, rng


@settings(max_examples=60, deadline=None, database=None)
@given(case=jumps(), steps=hst.integers(1, 7), mixed=hst.booleans())
@pytest.mark.parametrize("root_tau", [0.3, 2.0])
def test_dilated_evolve_matches_literal_steps(root_tau, case, steps, mixed):
    # root_tau = 2 puts sqrt(tau) * gap = 2 > pi/2 at the largest normalized
    # gap, where cos < 0 and odd step counts flip the sign
    f, rng = case
    ham = normalize_spectrum(f)
    if mixed:
        rho0 = random_density(rng, ham.dim)
    else:
        psi = random_state(rng, ham.dim)
        rho0 = np.outer(psi, psi.conj())
    tau = root_tau ** 2
    literal = rho0
    for _ in range(steps):
        literal = dilated_step(hamiltonian_matrix(ham), literal, tau)
    closed, cost = evolve(ham, rho0, channel("dilated", steps * tau, None, steps))
    assert np.max(np.abs(closed - literal)) <= 1e-12
    assert cost.step_count == steps


@settings(max_examples=60, deadline=None, database=None)
@given(case=jumps(), t=hst.floats(0.25, 4.0), eps=hst.floats(0.01, 0.5),
       n=hst.integers(2, 200))
def test_ff_pure_equals_ff_density(case, t, eps, n):
    f, rng = case
    ham = normalize_spectrum(f)
    psi = random_state(rng, ham.dim)
    chan = channel("ff", t, eps, n=n)
    pure, cost_pure = evolve(ham, psi, chan)
    dens, cost_dens = evolve(ham, np.outer(psi, psi.conj()), chan)
    assert np.max(np.abs(pure - dens)) <= 1e-12
    assert cost_pure == cost_dens


@settings(max_examples=60, deadline=None, database=None)
@given(case=jumps(), mixed=hst.booleans())
@pytest.mark.parametrize("eps", [0.05, 0.2])
@pytest.mark.parametrize("t", [0.5, 2.0])
def test_ff_and_dilated_within_eps_of_exact(t, eps, case, mixed):
    # each planned simulator meets its target eps against the exact channel
    f, rng = case
    ham = normalize_spectrum(f)
    x = random_density(rng, ham.dim) if mixed else random_state(rng, ham.dim)
    exact = evolve(ham, x, channel("exact", t, None))[0]
    ff, _ = evolve(ham, x, channel("ff", t, eps))
    dilated, _ = evolve(ham, x, channel("dilated", t, eps))
    assert trace_distance(ff, exact) <= eps
    assert trace_distance(dilated, exact) <= eps


# A rounding-level eigenvalue next to an exact 0: the two share one cluster,
# which keeps its first member, so the level stays at 0 (model._cluster)
ZERO_CLUSTER = (np.diag([0.0, 9e-10, 0.5, 1.0]).astype(complex), np.random.default_rng(11))


@settings(max_examples=60, deadline=None, database=None)
@given(case=jumps(), t=hst.floats(0.25, 4.0), steps=hst.integers(1, 200))
@example(case=ZERO_CLUSTER, t=1.0, steps=7)
@pytest.mark.parametrize("route", ["exact", "dilated", "ff"])
def test_pure_equals_density(route, case, t, steps):
    # a state vector goes through Hamiltonian.dephase on its eigenspace
    # components, its projector through the eigenbasis product
    f, rng = case
    ham = normalize_spectrum(f)
    psi = random_state(rng, ham.dim)
    apply = {
        "exact": lambda s: evolve(ham, s, channel("exact", t, None))[0],
        "dilated": lambda s: evolve(ham, s, channel("dilated", t, None, steps))[0],
        "ff": lambda s: evolve(ham, s, channel("ff", t, 0.1, n=2 * steps))[0],
    }[route]
    pure = apply(psi)
    dens = apply(np.outer(psi, psi.conj()))
    assert np.max(np.abs(pure - dens)) <= 1e-12


def test_zero_cluster_keeps_the_level():
    ham = normalize_spectrum(ZERO_CLUSTER[0])
    assert ham.dim > ham.n_levels == 3 and ham.eigenvalues[0] == 0.0
