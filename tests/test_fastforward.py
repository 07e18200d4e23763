import math
from functools import partial
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from lindbladff import (Channel, ValidationError, evolve,
                        normalize_spectrum, plan)
from lindbladff.channel import channel, gap_kernel, node_count
import lindbladff.channel as laws
from lindbladff import numkernel as nk
from lindbladff.qpe import residue_spectrum

from conftest import (full_mixture, goal_ledger, random_density, random_hermitian,
                      random_state, residue_of)
from oracles import (DENSE_REFERENCE_CAP, EXACT_FOLD_CAP, dense_circuit_reference,
                     hamiltonian_matrix, residue_sum_kernel, residue_thetas, residue_weights)
from test_single_jump import jumps

TWO_LEVEL = normalize_spectrum(np.diag([0.0, 1.0]))
PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Circuit-semantics oracles: the address arithmetic and the per-address
# system action, one address at a time
# ---------------------------------------------------------------------------

def u_add_map(p, m):
    """In-place modular addition on the d-bit address register."""
    if not 0 <= m < (1 << p.d):
        raise ValidationError(f"address {m} outside [0, 2^{p.d})")
    return (m + p.shift) % (1 << p.d)


def u_add_inverse(p, m):
    if not 0 <= m < (1 << p.d):
        raise ValidationError(f"address {m} outside [0, 2^{p.d})")
    return (m - p.shift) % (1 << p.d)


def unitary_evolve(ham, s, psi):
    """exp(-i H s) psi from the cached decomposition of ``ham``."""
    v = ham.vectors
    phases = np.exp(-1j * ham.eigenvalues * s)
    return v @ (phases[ham.levels] * (v.conj().T @ np.asarray(psi, dtype=complex)))


def apply_vh(p, ham, m, psi):
    """System action of the shift-conjugated controlled evolution at address m."""
    if not 0 <= m < (1 << p.d):
        raise ValidationError(f"address {m} outside [0, 2^{p.d})")
    r = int(residue_of(p, m))
    return unitary_evolve(ham, math.sqrt(p.t / p.n) * (2 * r - p.period), psi)


def ledger_density(ledger):
    """Density of the whole residue ledger, sum_r w_r s_r s_r^dag in one product."""
    s = ledger.states
    return (s.T * ledger.weights) @ s.conj()


class TestPlan:
    def test_default_plan_t8(self):
        p = plan(8.0, 0.1)
        assert p.n == 51200
        assert np.isclose(p.c, 0.005409, atol=1e-6)
        assert np.isclose(p.c * p.n, 276.9, atol=0.1)
        assert p.dprime == 10
        assert p.d == 16
        assert p.window == (25600 - 512, 25600 + 511)

    def test_override_plan(self):
        p = plan(1.0, 0.5, n_override=16)
        assert p.window == (4, 11)
        assert p.dprime == 3
        assert np.isclose(p.c * p.n, 3.33, atol=0.01)

    def test_odd_override_rounded_up(self):
        p = plan(1.0, 0.5, n_override=15)
        assert p.n == 16
        assert "rounded" in p.note

    def test_rejects_tiny_window(self):
        with pytest.raises(ValidationError, match="window"):
            plan(0.01, 0.9, n_override=2)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            plan(-1.0, 0.1)
        with pytest.raises(ValidationError):
            plan(1.0, 1.5)

    def test_odd_register_count_is_rejected(self, rng):
        # the gap kernel's Fourier coefficients (-1)^k cos(pi k / P)^N hold for
        # an even N, whose shift N/2 - P/2 is a whole address; ``plan`` rounds
        # odd counts up, a hand-built plan must not slip an odd one past it
        p = plan(1.0, 0.1, n_override=8)
        odd = p._replace(n=7)
        ham = normalize_spectrum(random_hermitian(rng, 3))
        with pytest.raises(ValidationError, match="even register count"):
            evolve(ham, random_state(rng, 3),
                   Channel("ff", odd.t, odd.n, partial(gap_kernel, odd),
                           laws.ff_cost(odd), odd))

    def test_full_window_coincidence(self):
        p = plan(1.0, 2e-4, n_override=16)  # error target so small c >= 1/2
        assert p.full_window
        assert p.dprime == p.d

    @settings(max_examples=300, deadline=None)
    @given(t=hst.floats(1e-3, 1e3), eps=hst.floats(1e-12, 0.999),
           n=hst.one_of(hst.none(), hst.integers(2, 10 ** 9)))
    def test_window_is_full_or_inside_the_address_range(self, t, eps, n):
        # N is even and the half-width a power of two, so a window that
        # starts below 0 also ends at or past N: it is full, never cut
        try:
            p = plan(t, eps, n_override=n)
        except ValidationError:
            return
        assert p.full_window or (0 <= p.window[0] and p.window[1] <= p.n and p.c < 0.5)


class TestAddressArithmetic:
    def test_worked_values(self):
        p = plan(1.0, 0.5, n_override=16)
        assert (p.d, p.dprime) == (5, 3)
        assert u_add_map(p, 3) == 7
        assert u_add_map(p, 30) == 2

    def test_inverse_composes_to_identity(self):
        p = plan(1.0, 0.5, n_override=16)
        for m in range(1 << p.d):
            assert u_add_inverse(p, u_add_map(p, m)) == m

    def test_range_validation(self):
        p = plan(1.0, 0.5, n_override=16)
        with pytest.raises(ValidationError):
            u_add_map(p, 32)


class TestControlledEvolution:
    def test_zero_hamiltonian_fixed_point(self, rng):
        ham = normalize_spectrum(np.zeros((2, 2)))
        p = plan(1.0, 0.5, n_override=16)
        psi = random_state(rng, 2)
        for m in range(0, 32, 5):
            assert np.allclose(apply_vh(p, ham, m, psi), psi)

    def test_in_window_matches_direct_evolution(self, rng):
        ham = normalize_spectrum(random_hermitian(rng, 2))
        p = plan(1.0, 0.5, n_override=16)
        psi = random_state(rng, 2)
        root = math.sqrt(p.t / p.n)
        for m in range(p.window[0], p.window[1] + 1):
            want = unitary_evolve(ham, root * (2 * m - p.n), psi)
            got = apply_vh(p, ham, m, psi)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_out_of_window_periodicity(self, rng):
        ham = normalize_spectrum(random_hermitian(rng, 2))
        p = plan(1.0, 0.5, n_override=16)
        psi = random_state(rng, 2)
        period = p.period
        for m in range(0, (1 << p.d) - period):
            a = apply_vh(p, ham, m, psi)
            b = apply_vh(p, ham, m + period, psi)
            assert np.max(np.abs(a - b)) <= 1e-12


class TestFastForwardEvolve:
    def test_zero_hamiltonian(self, rng):
        ham = normalize_spectrum(np.zeros((2, 2)))
        psi = random_state(rng, 2)
        rho, _ = evolve(ham, psi, channel("ff", 3.0, 0.25))
        assert np.max(np.abs(rho - np.outer(psi, psi.conj()))) <= 1e-12

    def test_two_level_window_accuracy(self):
        chan = channel("ff", 2.0, 0.05)
        p = chan.plan
        rho, _ = evolve(TWO_LEVEL, PLUS, chan)
        exact = evolve(TWO_LEVEL, np.outer(PLUS, PLUS.conj()), channel("exact", 2.0, None))[0]
        assert abs(rho[0, 1] - 0.18393972058572117) <= 0.02
        assert nk.trace_distance(rho, exact) <= 2 * 0.05
        ledger = goal_ledger(TWO_LEVEL, PLUS, p)
        assert abs(np.sum(ledger.weights) - 1.0) <= 1e-10
        assert np.allclose(np.linalg.norm(ledger.states, axis=1), 1.0, atol=1e-9)

    def test_cost_values_t8(self):
        chan = channel("ff", 8.0, 0.1)
        p = chan.plan
        _, cost = evolve(TWO_LEVEL, PLUS, chan)
        assert cost.hamiltonian_time == 2 ** 10 * math.sqrt(8.0 / 51200)
        assert np.isclose(cost.hamiltonian_time, 12.8)
        assert np.isclose(math.sqrt(51200 * 8.0), 640.0)
        assert cost.ancilla_count == p.d

    def test_cost_law_default_plans(self):
        for t in (1.0, 2.0, 4.0, 8.0, 16.0):
            for eps in (0.1, 0.05, 0.01):
                chan = channel("ff", t, eps)
                p = chan.plan
                _, cost = evolve(TWO_LEVEL, PLUS, chan)
                assert cost.hamiltonian_time == p.period * math.sqrt(p.t / p.n)
                assert cost.hamiltonian_time <= 4.0 * math.sqrt(t * math.log(2.0 / eps))

    def test_output_is_density(self, rng):
        ham = normalize_spectrum(random_hermitian(rng, 4))
        rho, _ = evolve(ham, random_state(rng, 4), channel("ff", 1.5, 0.1))
        assert abs(np.trace(rho).real - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(rho)[0] >= -1e-9

    def test_density_matrix_input_mixture_linearity(self, rng):
        ham = normalize_spectrum(random_hermitian(rng, 2))
        chan = channel("ff", 1.0, 0.1)
        v1, v2 = random_state(rng, 2), random_state(rng, 2)
        v2 = v2 - (v1.conj() @ v2) * v1
        v2 /= np.linalg.norm(v2)
        rho0 = 0.6 * np.outer(v1, v1.conj()) + 0.4 * np.outer(v2, v2.conj())
        out_mixed, _ = evolve(ham, rho0, chan)
        out_sum = 0.6 * evolve(ham, v1, chan)[0] + 0.4 * evolve(ham, v2, chan)[0]
        assert np.max(np.abs(out_mixed - out_sum)) <= 1e-9

    def test_density_input_matches_circuit_mixture(self, rng):
        # degenerate spectrum, full-rank mixed input: the eigenbasis kernel
        # against the literal circuit run on each eigenvector of rho
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        ham = normalize_spectrum((q * np.array([0.0, 0.6, 0.6, 1.0])) @ q.conj().T)
        rho0 = random_density(rng, 4)
        chan = channel("ff", 1.5, 0.1)
        p = chan.plan
        out, _ = evolve(ham, rho0, chan)
        w, v = np.linalg.eigh(rho0)
        mat = hamiltonian_matrix(ham)
        want = sum(w[k] * dense_circuit_reference(mat, v[:, k], p) for k in range(4))
        assert np.max(np.abs(out - want)) <= 1e-12

    def test_norm_guard(self, rng):
        raw = normalize_spectrum(random_hermitian(rng, 2))
        raw = raw._replace(eigenvalues=raw.eigenvalues * 1.5)
        with pytest.raises(ValidationError, match="jump norm exceeds 1"):
            evolve(raw, random_state(rng, 2), channel("ff", 1.0, 0.1))

    @pytest.mark.parametrize("reader", [lambda p, h: gap_kernel(p, h, np.zeros(1)),
                                        lambda p, h: residue_spectrum(p, h, np.ones(2))],
                             ids=["gap_kernel", "residue_spectrum"])
    def test_norm_guard_refuses_nan(self, reader):
        # nan > 1 + JUMP_NORM_ATOL is false: the rule once let a NaN eigenvalue
        # through, to a NaN kernel entry
        with pytest.raises(ValidationError, match="jump norm exceeds 1"):
            reader(laws.plan(1.0, 0.1), np.array([np.nan, 0.5]))


    def test_dimension_guard(self, rng):
        ham = normalize_spectrum(random_hermitian(rng, 2))
        with pytest.raises(ValidationError, match="dimension mismatch"):
            evolve(ham, random_state(rng, 3), channel("ff", 1.0, 0.1))

    def test_state_norm_guard(self, rng):
        ham = normalize_spectrum(random_hermitian(rng, 2))
        with pytest.raises(ValidationError):
            evolve(ham, 2.0 * random_state(rng, 2), channel("ff", 1.0, 0.1))


class TestStreamedDensity:
    def test_subnormal_time_keeps_its_phases(self):
        # t / N rounds to 0 at t = 5e-324, N = 2; the readout reads the step root
        # sqrt(t) / sqrt(N), so class 0 at level +-1 carries the circuit's
        # Hamiltonian time B = P sqrt(t) / sqrt(N) in its imaginary part, not 0
        p = plan(5e-324, 1e-3, 2)
        coef = residue_spectrum(p, np.array([-1.0, 0.0, 1.0]), np.ones(3))
        assert (p.t / p.n, p.period) == (0.0, 4)
        assert (coef[0].imag * p.period).tolist() == [-laws.ff_cost(p).hamiltonian_time, 0.0,
                                                      laws.ff_cost(p).hamiltonian_time]
        assert laws.ff_cost(p).hamiltonian_time == 6.286911138810514e-162

    @pytest.mark.parametrize("dim, bound", [(8, 8 * np.finfo(float).eps), (64, 1e-15)])
    def test_pure_input_is_the_ledger_product(self, rng, dim, bound):
        chan = channel("ff", 3.0, 0.05, n=10**7)
        p = chan.plan
        ham = normalize_spectrum(random_hermitian(rng, dim))
        psi = random_state(rng, dim)
        rho, _ = evolve(ham, psi, chan)
        assert np.max(np.abs(rho - ledger_density(goal_ledger(ham, psi, p)))) <= bound

    def test_memory_does_not_grow_with_the_ledger(self, rng):
        # the whole ledger at dim 256 and N = 10^7 is 16384 x 256 complex (64 MiB)
        chan = channel("ff", 3.0, 0.05, n=10**7)
        ham = normalize_spectrum(random_hermitian(rng, 256))
        psi = random_state(rng, 256)
        tracemalloc.start()
        try:
            evolve(ham, psi, chan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20, peak / 2 ** 20

    def test_one_array_and_its_copy_give_one_kernel(self, rng):
        # one spectrum checks its jump norm once, and gives the numbers two
        # equal arrays give
        p = plan(3.0, 0.05, 10**7)
        h = np.sort(rng.uniform(0.0, 1.0, 256))
        assert gap_kernel(p, h, h).tobytes() == gap_kernel(p, h, h.copy()).tobytes()

    def test_density_input_matches_the_residue_sum(self, rng):
        chan = channel("ff", 3.0, 0.05, n=10**7)
        p = chan.plan
        ham = normalize_spectrum(random_hermitian(rng, 64))
        rho = random_density(rng, 64)
        rho_ff, _ = evolve(ham, rho, chan)
        want = ham.dephase(residue_sum_kernel(p, ham.eigenvalues, ham.eigenvalues), rho)
        assert np.max(np.abs(rho_ff - want)) <= 1e-15

    def test_density_memory_does_not_grow_with_the_tables(self, rng):
        # the two whole phase tables at dim 256 and N = 10^7 are 64 MiB each
        chan = channel("ff", 3.0, 0.05, n=10**7)
        ham = normalize_spectrum(random_hermitian(rng, 256))
        rho = random_density(rng, 256)
        tracemalloc.start()
        try:
            evolve(ham, rho, chan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20, peak / 2 ** 20


def high_precision_kernel(p, eigs_a, eigs_b, digits=40):
    """sum_r w_r e^{-i (a - b) theta_r}, theta_r = sqrt(t / N) (2r - P), over
    every residue class at ``digits`` significant digits, from the oracle's
    weights and the double step root."""
    with mpmath.workdps(digits):
        terms = [(w, th) for w, th in zip(residue_weights(p.n, p.period, p.shift),
                                          residue_thetas(p)) if w]
        out = np.empty((eigs_a.size, eigs_b.size), dtype=complex)
        for i, a in enumerate(eigs_a.tolist()):
            for j, b in enumerate(eigs_b.tolist()):
                gap = mpmath.mpf(a) - mpmath.mpf(b)
                out[i, j] = complex(mpmath.fsum(w * mpmath.expj(-gap * th) for w, th in terms))
    return out


class TestFoldedKernel:
    @pytest.mark.parametrize("t,eps,n,period", [(1.0, 0.5, 16, 8), (1.0, 0.5, 22, 8),
                                                (3.0, 0.05, 4000, 256),
                                                (3.0, 0.05, 10**5, 1024)])
    def test_matches_high_precision_sum(self, rng, t, eps, n, period):
        p = plan(t, eps, n)
        assert p.period == period
        eigs = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 4)), [1.0]))
        zero = np.zeros(1)
        for a, b in ((eigs, eigs), (eigs, zero)):
            got = gap_kernel(p, a, b)
            assert np.max(np.abs(got - high_precision_kernel(p, a, b))) <= 8 * np.finfo(float).eps


# Register counts of the generated kernel check: every count up to
# oracles.EXACT_FOLD_CAP folds exact integer sums; the larger ones, a few so
# that their 40-digit pmfs are computed once, fold mpmath's
LARGE_COUNTS = [10 ** 5 + 2, 10 ** 6, 4 * 10 ** 6 + 2, 10 ** 7]
KERNEL_ULPS = 8 * 2.0 ** -52


def kernel_plan(t, eps, n):
    """``plan(t, eps, n)`` where it is accepted and its period is 8 to 2^14, else None."""
    try:
        p = plan(t, eps, n)
    except ValidationError:
        return None
    return p if 8 <= p.period <= 1 << 14 else None


def poisson_kernel(p, gaps, digits=40):
    """(1/P) sum_{|k| < P/2} cos(pi k / P)^N sin(s_k) / sin(s_k / P) e^{i s_k / P},
    s_k = pi k + B gap, at ``digits`` digits from the exact double gap and the
    double Hamiltonian time B, over every k whose cos(pi k / P)^N passes
    10^-(digits + 5) (it falls with |k|); the residue sum itself by Poisson
    summation (``test_poisson_form_is_the_residue_sum``)."""
    big_b = laws.ff_cost(p).hamiltonian_time
    out = []
    with mpmath.workdps(digits + 30):
        for gap in gaps:
            x = mpmath.mpf(big_b) * mpmath.mpf(gap)
            terms = []
            for k in range(p.period // 2):
                c = mpmath.exp(p.n * mpmath.log(mpmath.cos(mpmath.pi * k / p.period)))
                if c < mpmath.mpf(10) ** -(digits + 5):
                    break
                for s in {mpmath.pi * k + x, -mpmath.pi * k + x}:
                    ratio = (p.period if s == 0 else
                             mpmath.sin(s) / mpmath.sin(s / p.period) * mpmath.expj(s / p.period))
                    terms.append(c * ratio)
            out.append(complex(mpmath.fsum(terms) / p.period))
    return np.array(out)


class TestClosedForm:
    """The closed form against the plain residue sum over every class."""

    def test_generated_plans_cover_shifts_windows_and_overrides(self):
        # the draws of the generated check reach odd and even shifts, full and
        # narrow windows, and both register-count branches of the oracle
        plans = [p for t in (0.01, 0.5, 4.0, 64.0) for eps in (0.9, 0.1, 1e-3, 1e-9)
                 for n in [2, 16, 22, 64, 100, 1000, 4000, 16384, *LARGE_COUNTS]
                 if (p := kernel_plan(t, eps, n)) is not None]
        assert {p.shift % 2 for p in plans} == {0, 1}
        assert {p.full_window for p in plans} == {True, False}
        assert min(p.period for p in plans) == 8 and max(p.period for p in plans) == 1 << 14
        assert any(p.n > EXACT_FOLD_CAP for p in plans)

    @settings(max_examples=60, deadline=None, database=None)
    @given(t=hst.floats(1e-3, 64.0), eps=hst.floats(1e-12, 0.999),
           n=hst.one_of(hst.integers(2, EXACT_FOLD_CAP), hst.sampled_from(LARGE_COUNTS)),
           seed=hst.integers(0, 2 ** 32 - 1))
    @example(t=64.0, eps=1e-9, n=16, seed=0)
    def test_generated_plans_match_the_residue_sum(self, t, eps, n, seed):
        # P = 8 to 2^14 on n overrides (odd ones rounded up), both shift parities
        # and full and narrow windows, against the long-double residue sum: a
        # spectrum with its ends, a column at 0 and a block of other points.
        # The example (P = 32, B = 64, every c_k near 1) read 17 ulp before
        # each s_k carried its own rounding
        p = kernel_plan(t, eps, n)
        assume(p is not None)
        rng = np.random.default_rng(seed)
        h = np.concatenate(([-1.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, 5)))
        for b in (h, np.zeros(1), rng.uniform(-1.0, 1.0, 3)):
            got = gap_kernel(p, h, b)
            assert np.max(np.abs(got - residue_sum_kernel(p, h, b))) <= KERNEL_ULPS

    @pytest.mark.parametrize("gap", [5e-324, 2.2e-313, 1e-300, 1e-20, 1e-9])
    def test_tiny_gaps_read_one(self, gap):
        # B gap is subnormal at the smallest gaps, where s / P keeps fewer bits
        # than s: a ratio of the two once read 1 - 7.9e-12 at gap 2.2e-313
        p = plan(1.0, 0.4, 2)
        got = gap_kernel(p, np.array([gap, -gap]), np.zeros(1))[:, 0]
        assert np.max(np.abs(got - 1.0)) <= 2.0 ** -52 + laws.ff_cost(p).hamiltonian_time * gap

    @pytest.mark.parametrize("t, eps, n", [(1.0, 0.5, 16), (1.0, 0.5, 22), (2.0, 0.05, None),
                                           (1.0, 1e-3, 64), (3.0, 0.05, 4000)])
    def test_poisson_form_is_the_residue_sum(self, t, eps, n):
        # the 40-digit oracle of the large plans below is the residue sum, checked
        # at 40 digits where the sum over every class is cheap (both shift parities)
        p = plan(t, eps, n)
        gaps = np.array([-1.0, -0.3, 0.0, 0.01, 0.7, 1.0])
        want = high_precision_kernel(p, gaps, np.zeros(1))[:, 0]
        assert np.max(np.abs(poisson_kernel(p, gaps) - want)) <= 1e-30

    @pytest.mark.parametrize("t, eps, period", [(2.0, 0.05, 256), (8.0, 0.01, 8192),
                                                (8.0, 1e-3, 131072), (64.0, 1e-3, 1 << 21),
                                                (32.0, 1e-4, 1 << 23), (1024.0, 1e-6, 1 << 38)])
    def test_large_plans_match_forty_digits(self, t, eps, period):
        # the default plans up to P = 2^23, and t = 1024, eps = 1e-6 (N = 1.07e21),
        # on 16 gaps or more in [-1, 1]: random ones, and those where
        # pi k + B gap cancels to the last bits of the gap
        p = plan(t, eps)
        assert p.period == period
        big_b = laws.ff_cost(p).hamiltonian_time
        near = [s * math.pi * k / big_b for k in range(1, 9) for s in (1, -1)
                if math.pi * k <= big_b]
        gaps = np.concatenate((near, [0.0, 1.0, -1.0],
                               np.random.default_rng(period).uniform(-1.0, 1.0, 16 - len(near))))
        assert gaps.size >= 16 and np.all(np.abs(gaps) <= 1.0)
        got = gap_kernel(p, gaps, np.zeros(1))[:, 0]
        assert np.max(np.abs(got - poisson_kernel(p, gaps))) <= KERNEL_ULPS
        # item 19's identity: within 2 out of the dilated kernel cos(sqrt(t/N) gap)^N,
        # out below Hoeffding's 2 exp(-P^2 / (2N)) outside a window of half-width P/2
        out = 0.0 if p.full_window else 2.0 * math.exp(-p.period ** 2 / (2.0 * p.n))
        dilated = channel("dilated", p.t, None, n=p.n).kernel(gaps, np.zeros(1))[:, 0]
        assert np.max(np.abs(got - dilated)) <= 2.0 * out + KERNEL_ULPS


# Target errors of the generated circuit cross-check: every register count
# 2..64 plans under each, and both full and narrow windows occur
CIRCUIT_EPS = [0.4, 0.05, 1e-3, 1e-6]


class TestDenseReference:
    def test_generated_plans_cover_full_and_narrow_windows(self):
        plans = [plan(1.0, eps, n) for eps in CIRCUIT_EPS for n in range(2, 65)]
        assert {p.full_window for p in plans} == {True, False}
        assert max(p.n for p in plans) == 64
        assert max((1 << p.d) * 6 for p in plans) <= DENSE_REFERENCE_CAP  # jumps() dim <= 6

    @settings(max_examples=100, deadline=None, database=None)
    @given(case=jumps(), t=hst.floats(1e-3, 16.0), eps=hst.sampled_from(CIRCUIT_EPS),
           n=hst.integers(2, 64))
    def test_generated_jumps_match_the_circuit(self, case, t, eps, n):
        # the ff channel's kernel against the literal circuit on jumps of dim
        # 2-6 with clustered spectra; an odd n is rounded up to the next even N.
        # 3.7e-14 was the largest entry error over 1500 draws
        f, rng = case
        ham = normalize_spectrum(f)
        chan = channel("ff", t, eps, n=n)
        assert chan.n == n + n % 2
        psi = random_state(rng, ham.dim)
        got = evolve(ham, psi, chan)[0]
        want = dense_circuit_reference(hamiltonian_matrix(ham), psi, chan.plan)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_two_level_n16(self, rng):
        ham = normalize_spectrum(random_hermitian(rng, 2))
        chan = channel("ff", 1.0, 0.5, n=16)
        p = chan.plan
        psi = random_state(rng, 2)
        rho_ff, _ = evolve(ham, psi, chan)
        rho_ref = dense_circuit_reference(hamiltonian_matrix(ham), psi, p)
        assert nk.trace_distance(rho_ff, rho_ref) <= 1e-10

    def test_zero_hamiltonian(self, rng):
        ham = normalize_spectrum(np.zeros((2, 2)))
        chan = channel("ff", 1.0, 0.5, n=16)
        p = chan.plan
        psi = random_state(rng, 2)
        want = dense_circuit_reference(hamiltonian_matrix(ham), psi, p)
        assert nk.trace_distance(evolve(ham, psi, chan)[0], want) <= 1e-12

    def test_band_limited_dim32(self, rng):
        # P = 16 and B = 2.8 at N = 64 put M = 18 below 32 nondegenerate
        # levels, so the channel interpolates while the oracle sums the circuit
        ham = normalize_spectrum(random_hermitian(rng, 32))
        chan = channel("ff", 2.0, 0.4, n=64)
        p = chan.plan
        h = ham.eigenvalues
        assert (ham.n_levels, p.period) == (32, 16)
        assert node_count(chan, float(np.ptp(h)), h.size) < 32
        for psi in (random_state(rng, 32), random_state(rng, 32)):
            d = nk.trace_distance(evolve(ham, psi, chan)[0],
                                  dense_circuit_reference(hamiltonian_matrix(ham), psi, p))
            assert d <= 1e-10, d

    def test_random_sweep(self, rng):
        for t, n in ((0.5, 16), (1.0, 32), (2.0, 64)):
            ham = normalize_spectrum(random_hermitian(rng, 2))
            chan = channel("ff", t, 0.4, n=n)
            p = chan.plan
            psi = random_state(rng, 2)
            d = nk.trace_distance(evolve(ham, psi, chan)[0],
                                  dense_circuit_reference(hamiltonian_matrix(ham), psi, p))
            assert d <= 1e-10, (t, n, d)


class TestWindowBound:
    def test_bound_at_moderate_sizes(self, rng):
        # discarded-mass bound: distance to the unwindowed mixture stays
        # below 2 exp(-2 c^2 N) (= eps by construction of c)
        for n in (256, 1024, 4096):
            ham = normalize_spectrum(random_hermitian(rng, 2))
            psi = random_state(rng, 2)
            for eps in (0.1, 0.05):
                chan = channel("ff", 2.0, eps, n=n)
                p = chan.plan
                rho, _ = evolve(ham, psi, chan)
                mix = full_mixture(ham, psi, p)
                bound = 2.0 * math.exp(-2.0 * p.c ** 2 * p.n)
                assert nk.trace_distance(rho, mix) <= bound, (n, eps)

    def test_full_window_is_exact_mixture(self, rng):
        ham = normalize_spectrum(random_hermitian(rng, 2))
        psi = random_state(rng, 2)
        chan = channel("ff", 1.0, 2e-4, n=16)
        p = chan.plan
        assert p.full_window
        rho, _ = evolve(ham, psi, chan)
        assert nk.trace_distance(rho, full_mixture(ham, psi, p)) <= 1e-12


class TestEndToEnd:
    def test_accuracy_grid_small(self, rng):
        for t in (1.0, 4.0):
            for eps in (0.1, 0.05):
                ham = normalize_spectrum(random_hermitian(rng, 2))
                psi = random_state(rng, 2)
                rho, _ = evolve(ham, psi, channel("ff", t, eps))
                exact = evolve(ham, np.outer(psi, psi.conj()), channel("exact", t, None))[0]
                assert nk.trace_distance(rho, exact) <= 2 * eps, (t, eps)
