import numpy as np
import pytest

from lindbladff import ValidationError
from lindbladff import numkernel as nk

from conftest import PAULI_Z, random_density, random_hermitian


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

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_rejects_non_finite_entry(self, entry):
        with pytest.raises(ValidationError, match="^matrix has a non-finite entry$"):
            nk.herm_eig(np.array([[entry, 0.0], [0.0, 1.0]]))


class TestRequireState:
    def test_norm_is_printed_as_a_plain_float(self):
        with pytest.raises(ValidationError, match=r"state vector norm 0\.5 deviates"):
            nk.require_state(np.array([0.5, 0.0]))

    @pytest.mark.parametrize("v", [[np.nan, 0.0], [np.nan, np.nan]])
    def test_nan_vector_is_rejected(self, v):
        with pytest.raises(ValidationError, match=r"state vector norm nan deviates"):
            nk.require_state(np.array(v))


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
