import itertools
import math

import numpy as np
import pytest
import scipy.stats
from scipy.linalg import eigh_tridiagonal, expm, hadamard

from lindbladff import (FFPlan, InvariantError, ValidationError,
                        amplitude_decision_demo, decompose_state, fast_qpe,
                        fast_qpe_eigenstate, normalize_spectrum, plan, slow_qpe,
                        slow_qpe_eigenstate, standard_qpe,
                        standard_qpe_eigenstate)
from lindbladff import qpe
from lindbladff.fastforward import goal_ledger, residue_of
from lindbladff.qpe import (_grover_iterate, _orthogonal_log, _transformed_row_zero,
                           _transformed_rows)
from lindbladff.stateprep import binomial_amplitudes, log_binom

from conftest import random_hermitian, random_state


def eigenstate_input(h, other=None):
    """Two-level Hamiltonian with an eigenstate at phase h."""
    other = (h + 0.37) % 1.0 if other is None else other
    lo, hi = sorted((h, other))
    ham = normalize_spectrum(np.diag([lo, hi]))
    idx = 0 if ham.eigenvalues[0] == h else 1
    vec = np.zeros(2, dtype=complex)
    vec[0 if lo == h else 1] = 1.0
    return ham, decompose_state(vec, ham), idx


PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)


class TestStandardQpe:
    def test_representable_phase_is_certain(self):
        ham, st, _ = eigenstate_input(0.25)
        res = standard_qpe(ham, st, 3)
        assert np.isclose(res.distribution[2], 1.0, atol=1e-12)
        assert np.isclose(res.estimate, 0.25)
        assert np.max(np.abs(np.delete(res.distribution, 2))) <= 1e-12

    def test_distribution_sums_to_one(self, rng):
        ham = normalize_spectrum(np.diag([0.0, 0.35, 1.0]))
        st = decompose_state(random_state(rng, 3), ham)
        res = standard_qpe(ham, st, 6)
        assert abs(res.distribution.sum() - 1.0) <= 1e-9

    def test_cost_counts_register_evolutions(self):
        ham, st, _ = eigenstate_input(0.3)
        assert standard_qpe(ham, st, 5).cost.hamiltonian_time == 31

    def test_failure_tail_bound(self, rng):
        for d in range(4, 11):
            h = float(rng.uniform(0, 1))
            ham, st, _ = eigenstate_input(h)
            res = standard_qpe(ham, st, d)
            ys = np.arange(1 << d) / (1 << d)
            circ = np.abs(((h - ys) + 0.5) % 1.0 - 0.5)
            for eps in (0.01, 0.05, 0.1):
                tail = float(res.distribution[circ >= eps].sum())
                assert tail <= 1.0 / ((1 << d) * eps) + 1e-12

    def test_sampling_is_deterministic_per_seed(self):
        ham, st, _ = eigenstate_input(0.3)
        a = standard_qpe(ham, st, 6, mode="sample", seed=42)
        b = standard_qpe(ham, st, 6, mode="sample", seed=42)
        assert a.raw_outcome == b.raw_outcome

    def test_repeat_median_mode_tightens_estimates(self):
        # optional repeat-median mode (single-shot remains the default)
        ham, st, _ = eigenstate_input(0.5)
        errs_single, errs_median = [], []
        for seed in range(40):
            one = slow_qpe(ham, st, 4.0, 400, mode="sample", seed=seed)
            med = slow_qpe(ham, st, 4.0, 400, mode="sample", seed=seed, repeats=15)
            errs_single.append(abs(one.estimate - 0.5))
            errs_median.append(abs(med.estimate - 0.5))
        assert np.mean(errs_median) <= np.mean(errs_single)


class TestStandardEigenstate:
    def test_worked_bound(self):
        # w_beta = 1/2, gap 0.5, d = 3: bound 0.5 / (0.5 + 0.5/64)
        ham = normalize_spectrum(np.diag([0.0, 0.5]))
        st = decompose_state(PLUS, ham)
        prep = standard_qpe_eigenstate(ham, st, 0, 3)
        assert np.isclose(prep.overlap_bound, 0.98462, atol=5e-6)
        assert prep.overlap >= prep.overlap_bound - 1e-10

    def test_pure_eigenstate(self):
        ham, st, idx = eigenstate_input(0.0, other=0.5)
        prep = standard_qpe_eigenstate(ham, st, idx, 4)
        assert np.isclose(prep.postselect_probability, 1.0, atol=1e-12)
        assert np.isclose(prep.overlap, 1.0, atol=1e-12)

    def test_nonzero_outcomes_never_contain_target(self):
        # with the target at phase 0, outcome y != 0 has exactly zero weight
        # on the target component
        ham = normalize_spectrum(np.diag([0.0, 0.5]))
        st = decompose_state(PLUS, ham)
        d = 3
        for y in range(1, 1 << d):
            theta = -y / (1 << d)
            num = math.sin(math.pi * theta * (1 << d)) ** 2
            assert abs(num) <= 1e-20

    def test_requires_shifted_spectrum(self):
        ham = normalize_spectrum(np.diag([0.25, 0.75]))
        st = decompose_state(PLUS, ham)
        with pytest.raises(ValidationError, match="shift_to_zero"):
            standard_qpe_eigenstate(ham, st, 0, 3)

    def test_aliased_component_gives_vacuous_bound(self):
        # an eigenvalue at exactly 1 sits at circular distance 0 from the
        # target and cannot be filtered on the Fourier route
        from lindbladff import shift_to_zero

        ham = shift_to_zero(normalize_spectrum(np.diag([0.3, 0.6])), 0)
        st = decompose_state(PLUS, ham)
        prep = standard_qpe_eigenstate(ham, st, 0, 4)
        assert prep.overlap_bound == 0.0
        assert np.isclose(prep.overlap, 0.5, atol=1e-12)


class TestSlowQpe:
    def test_worked_counting_parameter(self):
        ham, st, _ = eigenstate_input(0.5)
        res = slow_qpe(ham, st, 4.0, 400)
        q = math.sin(math.sqrt(4.0 / 400) * 0.5) ** 2
        assert np.isclose(q, 0.0024979, atol=1e-7)
        ref = scipy.stats.binom.pmf(np.arange(401), 400, q)
        assert np.max(np.abs(res.distribution - ref)) <= 1e-12

    def test_worked_estimator_value(self):
        est = math.sqrt(400 / 4.0) * math.asin(math.sqrt(1 / 400))
        assert np.isclose(est, 0.500208, atol=1e-6)

    def test_zero_phase_is_certain(self):
        ham, st, _ = eigenstate_input(0.0, other=0.6)
        res = slow_qpe(ham, st, 4.0, 100)
        assert np.isclose(res.distribution[0], 1.0, atol=1e-12)
        assert res.estimate == 0.0

    def test_mixture_distribution_sums_to_one(self, rng):
        ham = normalize_spectrum(np.diag([0.0, 0.35, 0.9]))
        st = decompose_state(random_state(rng, 3), ham)
        res = slow_qpe(ham, st, 8.0, 5000)
        assert abs(res.distribution.sum() - 1.0) <= 1e-9

    def test_counting_concentration_bound(self):
        # exact tail outside +-2 t h eps of N q, against 2 exp(-(24/11) t eps^2)
        n = 100_000
        for t, h, eps in itertools.product((4.0, 16.0), (0.25, 0.5, 1.0), (0.05, 0.1)):
            if eps >= h:
                continue
            q = math.sin(math.sqrt(t / n) * h) ** 2
            dev = 2.0 * t * h * eps
            lo = math.floor(n * q - dev)
            hi = math.ceil(n * q + dev)
            inside = scipy.stats.binom.cdf(hi - 1, n, q) - scipy.stats.binom.cdf(lo, n, q)
            assert 1.0 - inside <= 2.0 * math.exp(-24.0 / 11.0 * t * eps ** 2), (t, h, eps)

    def test_cost_is_dilated_realization(self):
        ham, st, _ = eigenstate_input(0.5)
        res = slow_qpe(ham, st, 4.0, 400)
        assert res.cost.hamiltonian_time == math.sqrt(400 * 4.0)
        assert res.cost.ancilla_count == 400

    def test_saturation_flag(self):
        ham, st, _ = eigenstate_input(0.5)
        from lindbladff.qpe import counting_estimator

        est, sat = counting_estimator(4.0, 10, 10)
        assert sat and np.isclose(est, math.sqrt(10 / 4.0) * math.pi / 2)


class TestSlowEigenstate:
    def test_worked_instance(self):
        # frozen at N = 1e4: p0 = 0.50915538, overlap = 0.98201850
        ham = normalize_spectrum(np.diag([0.0, 0.5]))
        st = decompose_state(PLUS, ham)
        prep = slow_qpe_eigenstate(ham, st, 0, 16.0, 10 ** 4)
        assert np.isclose(prep.postselect_probability, 0.5091553774243089, atol=1e-12)
        assert np.isclose(prep.postselect_probability, 0.509158, atol=1e-5)
        assert np.isclose(prep.overlap, 0.982018, atol=1e-5)
        assert prep.overlap >= prep.overlap_bound - 1.0 / 10 ** 4
        assert np.isclose(prep.overlap_bound, 0.5 / (0.5 + 0.5 * math.exp(-4.0)), atol=1e-9)

    def test_pure_eigenstate(self):
        ham, st, idx = eigenstate_input(0.0, other=0.5)
        prep = slow_qpe_eigenstate(ham, st, idx, 16.0, 1000)
        assert np.isclose(prep.postselect_probability, 1.0, atol=1e-12)
        assert np.isclose(prep.overlap, 1.0, atol=1e-12)

    def test_violated_bound_raises_invariant_error(self, monkeypatch):
        # a reported gap far above the true one pushes the bound above the overlap
        ham = normalize_spectrum(np.diag([0.0, 0.5]))
        st = decompose_state(PLUS, ham)
        monkeypatch.setattr(qpe, "spectral_gap", lambda ham, beta: 10.0)
        with pytest.raises(InvariantError, match="violates its bound"):
            slow_qpe_eigenstate(ham, st, 0, 16.0, 10 ** 4)

    def test_short_time_no_filtering(self):
        ham = normalize_spectrum(np.diag([0.0, 0.5]))
        st = decompose_state(PLUS, ham)
        prep = slow_qpe_eigenstate(ham, st, 0, 1e-6, 100)
        assert np.isclose(prep.overlap, 0.5, atol=1e-5)


def kravchuk_oracle(n):
    """Dense symmetric-sector N-fold Hadamard in the excitation-count basis.

    Built from the collective-spin representation: the symmetric-sector
    Hadamard is a global phase times the exponential of the tridiagonal
    (Jx + Jz), whose eigenvalues sit exactly on sqrt(2) * {-N/2..N/2}.
    Snapping the computed eigenvalues to that lattice turns the exponential
    into a signed sum over orthonormal eigenvectors.  O(N^2) memory and
    O(N^3) time: an oracle for register counts of a few hundred.
    """
    m = np.arange(n + 1)
    diag = (n - 2 * m) / 2.0
    off = 0.5 * np.sqrt((m[:-1] + 1.0) * (n - m[:-1]))
    w, v = eigh_tridiagonal(diag, off)
    two_m = np.rint(2.0 * w / math.sqrt(2.0)).astype(np.int64)
    assert np.max(np.abs(w - two_m * math.sqrt(2.0) / 2.0)) <= 1e-6
    signs = np.where(((n - two_m) // 2) % 2 == 0, 1.0, -1.0)
    return (v * signs) @ v.T


def oracle_rows(ham, state, p):
    """Transformed ledger rows through the dense transform, one residue class at a time."""
    psi = np.tensordot(state.coeffs, state.components, axes=(0, 0))
    ledger = goal_ledger(ham, psi, p)
    u = kravchuk_oracle(p.n)
    a = binomial_amplitudes(p.n)
    res = residue_of(p, np.arange(p.n + 1))
    b = np.zeros((p.n + 1, p.period))
    for r in range(p.period):
        idx = res == r
        b[:, r] = u[:, idx] @ a[idx]
    return b @ ledger.states


def plan_at(n, full, t=4.0):
    """Plan at any register count (``plan`` rounds odd counts up), with a
    window that covers every address or one a few bits narrower."""
    d = max(1, math.ceil(math.log2(n + 1)))
    dprime = d + n % 2 if full else max(1, d - 3)
    half = 1 << (dprime - 1)
    window = (n // 2 - half, n // 2 + half - 1)
    return FFPlan(t, 0.1, n, t / n, half / n, d, dprime, window,
                  window[0] <= 0 and window[1] >= n)


class TestKravchukUnitary:
    def test_single_register_is_hadamard(self):
        assert np.allclose(kravchuk_oracle(1), hadamard(2) / math.sqrt(2))

    def test_three_level_matrix(self):
        want = np.array([
            [0.5, 1 / math.sqrt(2), 0.5],
            [1 / math.sqrt(2), 0.0, -1 / math.sqrt(2)],
            [0.5, -1 / math.sqrt(2), 0.5],
        ])
        assert np.max(np.abs(kravchuk_oracle(2) - want)) <= 1e-12

    def test_matches_dense_contraction(self):
        for n in (3, 6, 10):
            u = kravchuk_oracle(n)
            dense = _dicke_contraction(n)
            assert np.max(np.abs(u - dense)) <= 1e-9

    def test_symmetry_and_unitarity(self):
        for n in (5, 64, 513):
            u = kravchuk_oracle(n)
            assert np.max(np.abs(u - u.T)) <= 1e-12
            assert np.max(np.abs(u @ u.T - np.eye(n + 1))) <= 1e-8

    @pytest.mark.parametrize("full", (True, False))
    @pytest.mark.parametrize("n", (1, 2, 3, 7, 64, 512))
    def test_transformed_rows_match_oracle(self, rng, n, full):
        p = plan_at(n, full)
        assert p.full_window == full
        ham = normalize_spectrum(random_hermitian(rng, 4))
        st = decompose_state(random_state(rng, 4), ham)
        rows = _transformed_rows(ham, st, p)
        assert np.max(np.abs(rows - oracle_rows(ham, st, p))) <= 1e-12

    @pytest.mark.parametrize("full", (True, False))
    @pytest.mark.parametrize("n", (1, 2, 3, 7, 64, 512, 4096))
    def test_row_zero_closed_form_matches_rows(self, rng, n, full):
        p = plan_at(n, full)
        ham = normalize_spectrum(random_hermitian(rng, 4))
        st = decompose_state(random_state(rng, 4), ham)
        row0 = _transformed_row_zero(ham, st, p)
        assert np.max(np.abs(row0 - _transformed_rows(ham, st, p)[0])) <= 1e-12


def _dicke_contraction(n):
    iso = np.zeros((1 << n, n + 1))
    for bits in itertools.product((0, 1), repeat=n):
        iso[int("".join(map(str, bits)), 2), sum(bits)] += 1.0
    iso /= np.sqrt(np.exp(log_binom(n, np.arange(n + 1))))
    return iso.T @ (hadamard(1 << n) / 2 ** (n / 2.0)) @ iso


class TestFastQpe:
    def test_full_window_matches_slow_exactly(self, rng):
        ham = normalize_spectrum(np.diag([0.0, 0.35, 0.9]))
        st = decompose_state(random_state(rng, 3), ham)
        p = plan(1.0, 2e-4, n_override=16)
        assert p.full_window
        fast = fast_qpe(ham, st, p)
        slow = slow_qpe(ham, st, 1.0, 16)
        assert np.max(np.abs(fast.distribution - slow.distribution)) <= 1e-12

    def test_zero_phase_certain(self):
        ham, st, _ = eigenstate_input(0.0, other=0.6)
        res = fast_qpe(ham, st, plan(2.0, 1e-3, n_override=256))
        assert res.distribution[0] >= 1.0 - 2 * math.sqrt(1e-3)
        assert res.raw_outcome == 0

    def test_windowed_distribution_close_to_unwindowed(self, rng):
        for n, eps in ((512, 1e-3), (2048, 1e-4)):
            ham = normalize_spectrum(np.diag([0.0, 0.4, 1.0]))
            st = decompose_state(random_state(rng, 3), ham)
            p = plan(4.0, eps, n_override=n)
            fast = fast_qpe(ham, st, p)
            slow = slow_qpe(ham, st, 4.0, n)
            l1 = float(np.sum(np.abs(fast.distribution - slow.distribution)))
            assert l1 <= 2.0 * math.sqrt(eps), (n, eps, l1)

    def test_distribution_sums_to_one(self, rng):
        ham = normalize_spectrum(np.diag([0.0, 0.5]))
        st = decompose_state(random_state(rng, 2), ham)
        res = fast_qpe(ham, st, plan(2.0, 1e-4, n_override=1024))
        assert abs(res.distribution.sum() - 1.0) <= 1e-9

    def test_cost_comes_from_ledger(self):
        ham, st, _ = eigenstate_input(0.5)
        p = plan(4.0, 1e-4, n_override=1024)
        res = fast_qpe(ham, st, p)
        assert res.cost.hamiltonian_time == p.period * math.sqrt(p.tau)

    def test_large_register_matches_slow(self):
        ham = normalize_spectrum(np.diag([0.0, 0.4, 1.0]))
        st = decompose_state(np.ones(3, dtype=complex) / math.sqrt(3.0), ham)
        n, eps = 10 ** 5, 1e-4
        fast = fast_qpe(ham, st, plan(64.0, eps, n_override=n))
        slow = slow_qpe(ham, st, 64.0, n)
        assert abs(fast.distribution.sum() - 1.0) <= 1e-9
        assert np.sum(np.abs(fast.distribution - slow.distribution)) <= 2.0 * math.sqrt(eps)


class TestFastEigenstate:
    def test_pure_eigenstate(self):
        ham, st, idx = eigenstate_input(0.0, other=0.5)
        eps = 1e-4
        prep = fast_qpe_eigenstate(ham, st, idx, plan(16.0, eps, n_override=4096))
        assert prep.postselect_probability >= 1.0 - 2 * math.sqrt(eps)
        assert prep.overlap >= 1.0 - 2 * math.sqrt(eps)

    def test_worked_inaccuracy_chain(self):
        # zeta = 0.02, eps = (c_beta zeta)^2; overlap must clear 1 - 6 zeta
        ham = normalize_spectrum(np.diag([0.0, 0.5]))
        st = decompose_state(PLUS, ham)
        zeta = 0.02
        eps = (float(st.coeffs[0]) * zeta) ** 2
        prep = fast_qpe_eigenstate(ham, st, 0, plan(16.0, eps, n_override=4096))
        assert np.isclose(prep.postselect_probability, 0.5091518577119774, atol=1e-10)
        assert prep.overlap >= 1.0 - 6.0 * zeta
        assert np.isclose(prep.overlap_bound, 1.0 - 6.0 * zeta)
        assert math.sqrt(prep.postselect_probability) >= float(st.coeffs[0]) - math.sqrt(eps)

    def test_full_window_matches_slow(self):
        ham = normalize_spectrum(np.diag([0.0, 0.5]))
        st = decompose_state(PLUS, ham)
        p = plan(1.0, 2e-4, n_override=16)
        fast = fast_qpe_eigenstate(ham, st, 0, p)
        slow = slow_qpe_eigenstate(ham, st, 0, 1.0, 16)
        assert abs(fast.postselect_probability - slow.postselect_probability) <= 1e-12
        assert abs(fast.overlap - slow.overlap) <= 1e-12


class TestScalingLaws:
    # grids start at t h^2 = 16 so the count statistics are past the
    # small-mean Poisson regime where the t h^2 -> 0 spike distorts the fit

    def test_slow_route_standard_quantum_limit(self):
        # RMS error vs evolution time: slope -1/2
        ham, st, _ = eigenstate_input(1.0, other=0.5)
        ts = np.array([16.0, 32.0, 64.0, 128.0])
        n = 500_000
        rms = [_rms_error(slow_qpe(ham, st, t, n), t, n, 1.0) for t in ts]
        slope = np.polyfit(np.log(ts), np.log(rms), 1)[0]
        assert abs(slope + 0.5) <= 0.1

    def test_fast_route_heisenberg_limit(self):
        # RMS error vs measured evolution-time cost: slope -1
        ham, st, _ = eigenstate_input(1.0, other=0.5)
        costs, rms = [], []
        for t in (16.0, 32.0, 64.0, 128.0):
            p = plan(t, 1e-6, n_override=2048)
            res = fast_qpe(ham, st, p)
            costs.append(res.cost.hamiltonian_time)
            rms.append(_rms_error(res, t, p.n, 1.0))
        slope = np.polyfit(np.log(costs), np.log(rms), 1)[0]
        assert abs(slope + 1.0) <= 0.15


def _rms_error(res, t, n, h_true):
    from lindbladff.qpe import counting_estimator

    est, _ = counting_estimator(t, n, np.arange(res.distribution.size))
    return float(np.sqrt(np.sum(res.distribution * (est - h_true) ** 2)))


class TestAmplitudeDemo:
    def test_grover_iterate_is_orthogonal_and_logged(self):
        bits = np.array([1, 0, 1, 0, 0, 0, 0, 0])
        u, eta = _grover_iterate(bits)
        assert np.max(np.abs(u @ u.T - np.eye(16))) <= 1e-12
        h = _orthogonal_log(u)
        assert np.max(np.abs(h - h.conj().T)) <= 1e-10
        assert np.max(np.abs(expm(-1j * h) - u)) <= 1e-9

    def test_amplitude_value(self):
        bits = np.zeros(8, dtype=int)
        bits[:2] = 1
        dec = amplitude_decision_demo(bits, t=100.0, register_n=512, mode="exact")
        assert np.isclose(dec.amplitude, 0.5)

    def test_zero_witness_certain_in_exact_mode(self):
        dec = amplitude_decision_demo(np.zeros(16, dtype=int), mode="exact")
        assert dec.decided_zero and dec.correct
        assert dec.confidence >= 1.0 - 1e-6

    def test_seeded_accuracy(self):
        correct = 0
        runs = 0
        for w in (0, 1, 4):
            bits = np.zeros(16, dtype=int)
            bits[:w] = 1
            for k in range(10):
                dec = amplitude_decision_demo(bits, mode="sample", seed=1000 + k)
                correct += int(dec.correct)
                runs += 1
        assert correct / runs >= 0.95
