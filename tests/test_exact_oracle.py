"""The exact channel (``channel("exact", ...)``) against the independent
oracles of ``tests/oracles.py``, and those oracles against each other."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from lindbladff import ValidationError, evolve, lindblad_spec, normalize_spectrum
from lindbladff.channel import channel
from lindbladff.errors import CapacityError
from lindbladff.model import CLUSTER_RTOL

from conftest import PAULI_Y, PAULI_Z, random_density, random_hermitian, random_state
from oracles import hamiltonian_matrix, lindblad_exact_general, lindblad_rk4, steady_state

PLUS_RHO = np.full((2, 2), 0.5, dtype=complex)
TWO_LEVEL = normalize_spectrum(np.diag([0.0, 1.0]))


class TestHermitianSolution:
    def test_identity_jump_is_frozen(self):
        ham = normalize_spectrum(np.eye(2))  # zero-width spectrum, no dissipation
        rho = random_density(np.random.default_rng(0), 2)
        assert np.allclose(evolve(ham, rho, channel("exact", 7.0, None))[0], rho)

    def test_two_level_dephasing_vs_rk4(self):
        # frozen from the RK4 oracle: off-diagonal 0.5 e^{-1} at t = 2
        out = evolve(TWO_LEVEL, PLUS_RHO, channel("exact", 2.0, None))[0]
        assert np.isclose(out[0, 1], 0.18393972058572117, atol=1e-10)
        oracle = lindblad_rk4([hamiltonian_matrix(TWO_LEVEL)], PLUS_RHO, 2.0)
        assert np.max(np.abs(out - oracle)) <= 1e-9

    def test_long_time_reaches_steady_state(self):
        out = evolve(TWO_LEVEL, PLUS_RHO, channel("exact", 50.0, None))[0]
        assert np.max(np.abs(out - np.eye(2) / 2)) <= 1e-6

    def test_trace_preserved(self, rng):
        ham = normalize_spectrum(random_hermitian(rng, 4))
        rho = random_density(rng, 4)
        out = evolve(ham, rho, channel("exact", 3.0, None))[0]
        assert abs(np.trace(out).real - 1.0) <= 1e-10

    def test_semigroup(self, rng):
        ham = normalize_spectrum(random_hermitian(rng, 4))
        rho = random_density(rng, 4)
        once = evolve(ham, rho, channel("exact", 3.0, None))[0]
        half, _ = evolve(ham, rho, channel("exact", 1.2, None))
        comp, _ = evolve(ham, half, channel("exact", 1.8, None))
        assert np.max(np.abs(once - comp)) <= 1e-9

    def test_complete_positivity_spot_check(self, rng):
        for _ in range(20):
            ham = normalize_spectrum(random_hermitian(rng, 4))
            chan = channel("exact", float(rng.uniform(0, 5)), None)
            out, _ = evolve(ham, random_density(rng, 4), chan)
            assert np.linalg.eigvalsh(out)[0] >= -1e-8

    def test_cross_rates_strictly_negative(self, rng):
        for _ in range(10):
            h = normalize_spectrum(random_hermitian(rng, 5)).eigenvalues
            rates = h[:, None] * h[None, :] - 0.5 * (h[:, None] ** 2 + h[None, :] ** 2)
            off = rates[~np.eye(len(h), dtype=bool)]
            assert np.all(off < 0)
            assert np.allclose(np.diag(rates), 0.0)


    @pytest.mark.parametrize("spectrum", [
        [0.0, 0.0, 0.4, 0.4, 0.4, 1.0],          # degenerate
        [0.0, 0.3, 0.3 + 1e-12, 0.7, 0.7, 1.0],  # clustered within CLUSTER_RTOL
    ])
    def test_random_cross_check_vs_oracles(self, spectrum):
        rng = np.random.default_rng(31)
        for _ in range(3):
            q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
            f = (q * np.array(spectrum)) @ q.conj().T
            f = 0.5 * (f + f.conj().T)
            ham = normalize_spectrum(f)
            assert ham.n_levels < 6 and ham.dim > ham.n_levels
            rho = random_density(rng, 6)
            t = float(rng.uniform(0.2, 3.0))
            out = evolve(ham, rho, channel("exact", t, None))[0]
            assert np.max(np.abs(out - lindblad_exact_general(lindblad_spec([f]), rho, t))) <= 1e-9
            assert np.max(np.abs(out - lindblad_rk4([f], rho, t))) <= 1e-8


@hst.composite
def small_jumps(draw):
    """A jump of dim 2-6, a state vector or a density matrix, and t at its
    edges: the spectrum is random, or a few levels repeated exactly
    (degenerate) or spread under half the cluster tolerance (clustered),
    inside [0, 1] (an identity map) or over [-3, 3]."""
    dim = draw(hst.integers(2, 6))
    kind = draw(hst.sampled_from(["random", "degenerate", "clustered"]))
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    lo, hi = (0.0, 1.0) if draw(hst.booleans()) else (-3.0, 3.0)
    if kind == "random":
        eigs = rng.uniform(lo, hi, dim)
    else:
        centers = rng.uniform(lo, hi, int(rng.integers(1, dim)))
        eigs = rng.choice(centers, dim)
        if kind == "clustered":
            eigs += rng.random(dim) * 0.45 * CLUSTER_RTOL * np.max(np.abs(centers))
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    f = (q * eigs) @ q.conj().T
    state = random_density(rng, dim) if draw(hst.booleans()) else random_state(rng, dim)
    t = draw(hst.one_of(hst.sampled_from([1e-9, 1e-3, 16.0]), hst.floats(1e-3, 16.0)))
    return 0.5 * (f + f.conj().T), state, t


@settings(max_examples=80, deadline=None, database=None)
@given(case=small_jumps())
def test_generated_cross_check_vs_oracles(case):
    # The oracles evolve the normalized jump (F - shift) / scale unmerged; the
    # eigenbasis path merges each cluster into its first eigenvalue, which
    # moves every gap by at most the cluster tolerance over the scale, and the
    # kernel by sqrt(t / e) times that (the largest slope of exp(-t g^2 / 2))
    f, state, t = case
    ham = normalize_spectrum(f)
    smap = ham.spectrum_map
    jump = (f - smap.shift * np.eye(len(f))) / smap.scale
    rho = state if state.ndim == 2 else np.outer(state, state.conj())
    out = evolve(ham, state, channel("exact", t, None))[0]
    merge = math.sqrt(t / math.e) * CLUSTER_RTOL * np.max(np.abs(np.linalg.eigvalsh(f))) / smap.scale
    assert np.max(np.abs(out - lindblad_exact_general(lindblad_spec([jump]), rho, t))) <= 1e-9 + merge
    assert np.max(np.abs(out - lindblad_rk4([jump], rho, t))) <= 1e-8 + merge


class TestGeneralSolution:
    def test_matches_hermitian_route(self, rng):
        ham = normalize_spectrum(random_hermitian(rng, 3))
        rho = random_density(rng, 3)
        spec = lindblad_spec([hamiltonian_matrix(ham)])
        a = evolve(ham, rho, channel("exact", 1.7, None))[0]
        b = lindblad_exact_general(spec, rho, 1.7)
        assert np.max(np.abs(a - b)) <= 1e-9

    def test_z_jump_dephasing_rate(self):
        # rate -2 on the off-diagonal: 0.5 e^{-1} at t = 0.5, frozen from RK4
        spec = lindblad_spec([PAULI_Z])
        out = lindblad_exact_general(spec, PLUS_RHO, 0.5)
        assert np.isclose(out[0, 1], 0.18393972058572117, atol=1e-9)
        oracle = lindblad_rk4([PAULI_Z], PLUS_RHO, 0.5)
        assert np.max(np.abs(out - oracle)) <= 1e-9

    def test_complex_jump_vs_rk4(self, rng):
        # exercises the conjugated tensor factor (Y has imaginary entries)
        rho = random_density(rng, 2)
        spec = lindblad_spec([PAULI_Y])
        out = lindblad_exact_general(spec, rho, 0.8)
        oracle = lindblad_rk4([PAULI_Y], rho, 0.8)
        assert np.max(np.abs(out - oracle)) <= 1e-9

    def test_multi_jump_vs_rk4(self, rng):
        jumps = [random_hermitian(rng, 2) for _ in range(2)]
        jumps = [j / np.max(np.abs(np.linalg.eigvalsh(j))) for j in jumps]
        rho = random_density(rng, 2)
        out = lindblad_exact_general(lindblad_spec(jumps), rho, 0.9)
        oracle = lindblad_rk4(jumps, rho, 0.9)
        assert np.max(np.abs(out - oracle)) <= 1e-8

    def test_empty_jump_list_rejected_by_spec_builder(self):
        with pytest.raises(ValidationError):
            lindblad_spec([])

    def test_no_jumps_is_identity_channel(self, rng):
        from lindbladff.model import LindbladSpec

        rho = random_density(rng, 2)
        out = lindblad_exact_general(LindbladSpec((), 2), rho, 3.0)
        assert np.allclose(out, rho)

    def test_trace_preserved(self, rng):
        spec = lindblad_spec([PAULI_Z, PAULI_Y])
        out = lindblad_exact_general(spec, random_density(rng, 2), 2.0)
        assert abs(np.trace(out).real - 1.0) <= 1e-9

    def test_size_cap(self):
        big = lindblad_spec([np.eye(128)])
        with pytest.raises(CapacityError):
            lindblad_exact_general(big, np.eye(128) / 128, 1.0)


class TestSteadyState:
    def test_diagonal_input_unchanged(self):
        rho = np.diag([0.25, 0.75]).astype(complex)
        assert np.allclose(steady_state(TWO_LEVEL, rho), rho)

    def test_plus_state_decoheres(self):
        assert np.allclose(steady_state(TWO_LEVEL, PLUS_RHO), np.eye(2) / 2)

    def test_matches_long_time_limit(self, rng):
        ham = normalize_spectrum(random_hermitian(rng, 3))
        rho = random_density(rng, 3)
        gaps = ham.eigenvalues[:, None] - ham.eigenvalues[None, :]
        min_rate = np.min(0.5 * gaps[~np.eye(3, dtype=bool)] ** 2)
        t = 50.0 / min_rate
        long_time = evolve(ham, rho, channel("exact", t, None))[0]
        assert np.max(np.abs(long_time - steady_state(ham, rho))) <= 1e-6
