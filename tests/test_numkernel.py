import numpy as np
import pytest

from lindbladff import ValidationError
from lindbladff import numkernel as nk

from conftest import PAULI_X, PAULI_Z, random_density, random_hermitian, random_state


class TestHermEig:
    def test_pauli_z_spectrum(self):
        w, _ = nk.herm_eig(PAULI_Z)
        assert np.allclose(w, [-1.0, 1.0])

    def test_identity_spectrum(self):
        w, _ = nk.herm_eig(np.eye(4))
        assert np.allclose(w, 1.0)

    def test_reconstruction_and_unitarity(self, rng):
        a = random_hermitian(rng, 8)
        w, v = nk.herm_eig(a)
        assert np.max(np.abs((v * w) @ v.conj().T - a)) <= 1e-9
        assert np.max(np.abs(v.conj().T @ v - np.eye(8))) <= 1e-9

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            nk.herm_eig(np.ones((2, 3)))

    def test_rejects_non_hermitian_naming_asymmetry(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="asymmetry"):
            nk.herm_eig(bad)


class TestEvolve:
    def test_rabi_quarter_period(self):
        out = nk.evolve(PAULI_X, np.pi / 2, np.array([1.0, 0.0]))
        assert np.allclose(out, [0.0, -1.0j], atol=1e-12)

    def test_zero_duration(self, rng):
        v = random_state(rng, 4)
        assert np.allclose(nk.evolve(random_hermitian(rng, 4), 0.0, v), v)

    def test_diagonal_phase(self):
        out = nk.evolve(np.diag([0.0, 1.0]), np.pi, np.array([0.0, 1.0]))
        assert np.allclose(out, [0.0, -1.0], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            nk.evolve(PAULI_X, 1.0, np.zeros(3))

    def test_isometry_randomized(self, rng):
        # norm drift over many randomized (H, s, v) draws
        drift = 0.0
        for _ in range(10_000):
            dim = int(rng.integers(2, 5))
            h = random_hermitian(rng, dim)
            v = random_state(rng, dim)
            s = float(rng.uniform(-5, 5))
            drift = max(drift, abs(np.linalg.norm(nk.evolve(h, s, v)) - 1.0))
        assert drift <= 1e-9

    def test_group_property(self, rng):
        for _ in range(50):
            h = random_hermitian(rng, 3)
            v = random_state(rng, 3)
            s1, s2 = rng.uniform(-2, 2, size=2)
            once = nk.evolve(h, s1 + s2, v)
            twice = nk.evolve(h, s2, nk.evolve(h, s1, v))
            assert np.max(np.abs(once - twice)) <= 1e-9


class TestKron:
    def test_identity(self):
        assert np.allclose(nk.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_sign_product(self):
        assert nk.kron(PAULI_Z, PAULI_Z)[3, 3] == 1.0

    def test_dims_multiply(self, rng):
        out = nk.kron(random_hermitian(rng, 2), random_hermitian(rng, 4))
        assert out.shape == (8, 8)


class TestTraceDistance:
    def test_equal_states(self, rng):
        rho = random_density(rng, 4)
        assert nk.trace_distance(rho, rho) <= 1e-12

    def test_orthogonal_states(self):
        assert np.isclose(nk.trace_distance(np.diag([1.0, 0]), np.diag([0, 1.0])), 1.0)

    def test_diagonal_example(self):
        # eigenvalues of the difference are +-0.25
        d = nk.trace_distance(np.diag([0.75, 0.25]), np.diag([0.5, 0.5]))
        assert np.isclose(d, 0.25, atol=1e-12)

    def test_symmetry_and_triangle(self, rng):
        for _ in range(100):
            a, b, c = (random_density(rng, 3) for _ in range(3))
            assert np.isclose(nk.trace_distance(a, b), nk.trace_distance(b, a), atol=1e-12)
            assert nk.trace_distance(a, c) <= nk.trace_distance(a, b) + nk.trace_distance(b, c) + 1e-9

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError):
            nk.trace_distance(np.eye(2) / 2, np.eye(3) / 3)
