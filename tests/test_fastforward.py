import math
from functools import partial
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from lindbladff import (Channel, ValidationError, evolve,
                        normalize_spectrum, plan)
from lindbladff.channel import channel, node_count
from lindbladff import fastforward
from lindbladff import numkernel as nk
from lindbladff.fastforward import _phase_blocks, _residue_phases, gap_kernel
from lindbladff.kernels import PMF_FLOOR, _support, binom_residue_weights

from conftest import (full_mixture, goal_ledger, random_density, random_hermitian,
                      random_state, residue_of)
from oracles import DENSE_REFERENCE_CAP, dense_circuit_reference, hamiltonian_matrix
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


def whole_kernel(p, eigs_a, eigs_b):
    """Gap kernel from the two whole phase tables in one weighted product."""
    weights = binom_residue_weights(p.n, p.period, -p.shift)
    return (_residue_phases(p, eigs_a).T * weights) @ _residue_phases(p, eigs_b).conj()


def kernel_blocks(p):
    """Blocks ``gap_kernel`` sums over: 2^_SUM_BITS rows each, over P/2 rows."""
    return (p.period // 2) >> min(fastforward._SUM_BITS, p.dprime - 1)


def selected_phases(p, eigs):
    """Whole phase table, one bit at a time over every row: each row selects
    the forward or backward factor of bit j with ``np.where``."""
    root = math.sqrt(p.t / p.n)
    r = np.arange(p.period)
    phases = np.tile(np.exp(+1j * eigs * root), (p.period, 1))
    for j in range(p.dprime):
        bit = (r >> j) & 1
        fwd = np.exp(-1j * eigs * root * (1 << j))
        bwd = np.exp(+1j * eigs * root * (1 << j))
        phases *= np.where(bit[:, None] == 1, fwd[None, :], bwd[None, :])
    return phases


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
        # the gap kernel folds mirror residue classes, which pair up only for
        # an even N; ``plan`` rounds odd counts up, a hand-built plan must not
        # slip an odd one past it
        p = plan(1.0, 0.1, n_override=8)
        odd = p._replace(n=7)
        ham = normalize_spectrum(random_hermitian(rng, 3))
        with pytest.raises(ValidationError, match="even register count"):
            evolve(ham, random_state(rng, 3),
                   Channel("ff", odd.t, odd.n, partial(gap_kernel, odd),
                           fastforward.ff_cost(odd), odd))

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
                                        lambda p, h: fastforward.residue_spectrum(p, h, np.ones(2))],
                             ids=["gap_kernel", "residue_spectrum"])
    def test_norm_guard_refuses_nan(self, reader):
        # nan > 1 + JUMP_NORM_ATOL is false: the rule once let a NaN eigenvalue
        # through, to a NaN kernel entry
        with pytest.raises(ValidationError, match="jump norm exceeds 1"):
            reader(fastforward.plan(1.0, 0.1), np.array([np.nan, 0.5]))


    def test_dimension_guard(self, rng):
        ham = normalize_spectrum(random_hermitian(rng, 2))
        with pytest.raises(ValidationError, match="dimension mismatch"):
            evolve(ham, random_state(rng, 3), channel("ff", 1.0, 0.1))

    def test_state_norm_guard(self, rng):
        ham = normalize_spectrum(random_hermitian(rng, 2))
        with pytest.raises(ValidationError):
            evolve(ham, 2.0 * random_state(rng, 2), channel("ff", 1.0, 0.1))


class TestStreamedDensity:
    @pytest.mark.parametrize("t,eps,n", [(1.0, 0.5, 16), (2.0, 0.05, None), (3.0, 0.05, 10**6)])
    def test_whole_table_matches_bit_selection(self, rng, t, eps, n):
        p = plan(t, eps, n)
        ham = normalize_spectrum(random_hermitian(rng, 6))
        got = _residue_phases(p, ham.eigenvalues)
        assert got.tobytes() == selected_phases(p, ham.eigenvalues).tobytes()

    def test_subnormal_time_keeps_its_phases(self):
        # t / N rounds to 0 at t = 5e-324, N = 2; the table reads the step root
        # sqrt(t) / sqrt(N), so its largest phase, at class 0 and level +-1, is the
        # circuit's Hamiltonian time B = P sqrt(t) / sqrt(N), not 0
        p = plan(5e-324, 1e-3, 2)
        table = _residue_phases(p, np.array([-1.0, 0.0, 1.0]))
        assert (p.t / p.n, p.period) == (0.0, 4)
        assert float(np.max(np.abs(table.imag))) == fastforward.ff_cost(p).hamiltonian_time
        assert fastforward.ff_cost(p).hamiltonian_time == 6.286911138810514e-162

    @pytest.mark.parametrize("t,eps,n", [(1.0, 0.5, 16), (2.0, 0.05, None), (3.0, 0.05, 10**6)])
    def test_every_block_is_its_slice(self, rng, t, eps, n):
        p = plan(t, eps, n)
        eigs = normalize_spectrum(random_hermitian(rng, 5)).eigenvalues
        whole = _residue_phases(p, eigs)
        rows = 1
        while rows <= p.period:
            blocks = _phase_blocks(p, eigs, rows, p.period)
            for lo, block in zip(range(0, p.period, rows), blocks, strict=True):
                assert block.tobytes() == whole[lo:lo + rows].tobytes(), (rows, lo)
            rows *= 4 if p.period > 4096 else 2  # every other size at large periods, for time

    @pytest.mark.parametrize("levels", [2, 3, 40, 129])
    def test_few_levels_take_lines_of_rows(self, rng, levels):
        # fewer than 256 levels multiply their high bits over lines of several
        # rows; one level in blocks of one row is a lone number, which numpy
        # multiplies in its scalar loop, a last bit apart from its vector loops
        p = plan(3.0, 0.05, 10**6)
        eigs = rng.uniform(-1.0, 1.0, levels)
        whole = _residue_phases(p, eigs)
        for rows in (2, 8, 256, 1024):
            blocks = _phase_blocks(p, eigs, rows, p.period)
            for lo, block in zip(range(0, p.period, rows), blocks, strict=True):
                assert block.tobytes() == whole[lo:lo + rows].tobytes(), (rows, lo)

    def test_one_block_is_the_ledger_product(self, rng):
        chan = channel("ff", 3.0, 0.05, n=10**7)
        p = chan.plan
        ham = normalize_spectrum(random_hermitian(rng, 8))
        psi = random_state(rng, 8)
        assert kernel_blocks(p) == 32
        rho, _ = evolve(ham, psi, chan)
        want = ledger_density(goal_ledger(ham, psi, p))
        assert np.max(np.abs(rho - want)) <= 8 * np.finfo(float).eps

    def test_several_blocks_match_the_ledger_product(self, rng):
        chan = channel("ff", 3.0, 0.05, n=10**7)
        p = chan.plan
        ham = normalize_spectrum(random_hermitian(rng, 64))
        psi = random_state(rng, 64)
        assert kernel_blocks(p) == 32
        rho, _ = evolve(ham, psi, chan)
        assert np.max(np.abs(rho - ledger_density(goal_ledger(ham, psi, p)))) <= 1e-15

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

    def test_one_block_is_the_whole_kernel(self, rng):
        p = plan(3.0, 0.05, 10**7)
        eigs = normalize_spectrum(random_hermitian(rng, 8)).eigenvalues
        assert kernel_blocks(p) == 32
        got = gap_kernel(p, eigs, eigs)
        assert np.max(np.abs(got - whole_kernel(p, eigs, eigs))) <= 8 * np.finfo(float).eps

    def test_one_array_and_its_copy_give_one_kernel(self, rng):
        # one spectrum builds one phase table, the numbers two equal arrays build
        p = plan(3.0, 0.05, 10**7)
        h = np.sort(rng.uniform(0.0, 1.0, 256))
        assert gap_kernel(p, h, h).tobytes() == gap_kernel(p, h, h.copy()).tobytes()

    def test_kernel_blocks_match_the_whole_kernel(self, rng):
        p = plan(3.0, 0.05, 10**7)
        eigs_a = normalize_spectrum(random_hermitian(rng, 64)).eigenvalues
        eigs_b = np.concatenate((eigs_a[:3], [0.0]))
        assert kernel_blocks(p) == 32
        # |K| <= 1 and the blocks only reorder the sum over residues
        for a, b in ((eigs_a, eigs_a), (eigs_a, eigs_b), (eigs_b, eigs_a)):
            assert np.max(np.abs(gap_kernel(p, a, b) - whole_kernel(p, a, b))) <= 8 * np.finfo(float).eps

    @pytest.mark.parametrize("levels, columns", [(1025, None), (2048, [0.0, 1.0])],
                             ids=["1025-levels", "2048-levels"])
    def test_blocks_shorter_than_a_partial_sum(self, rng, levels, columns):
        # a block is one partial sum whatever the level count, so above 1024
        # levels a block is as long as at 8; the blocks regroup the 512-class
        # sum of total weight 1
        p = plan(8.0, 0.1)
        a = np.sort(rng.uniform(0.0, 1.0, levels))
        b = a if columns is None else np.array(columns)
        assert (p.period, kernel_blocks(p)) == (1024, 2)
        got = gap_kernel(p, a, b)
        assert np.max(np.abs(got - whole_kernel(p, a, b))) <= 32 * np.finfo(float).eps

    @pytest.mark.parametrize("t, eps, n, period", [(2.0, 0.05, None, 256), (8.0, 0.1, None, 1024),
                                                   (3.0, 0.05, 4 * 10**6, 8192)])
    def test_shrunk_blocks_match_one_block(self, monkeypatch, rng, t, eps, n, period):
        # blocks of 2^bits rows, down to one row, regroup the sum over P/2
        # classes of total weight 1 that one block of all P/2 rows takes: at
        # most 17 eps measured over 20 draws
        p = plan(t, eps, n)
        eigs = np.sort(rng.uniform(0.0, 1.0, 8))
        assert p.period == period
        monkeypatch.setattr(fastforward, "_SUM_BITS", p.dprime)
        assert kernel_blocks(p) == 1
        one = gap_kernel(p, eigs, eigs)
        for bits in (0, 1, 6, 7):
            monkeypatch.setattr(fastforward, "_SUM_BITS", bits)
            assert kernel_blocks(p) == period >> (bits + 1)
            assert np.max(np.abs(gap_kernel(p, eigs, eigs) - one)) <= 32 * np.finfo(float).eps

    def test_density_blocks_match_the_whole_kernel(self, rng):
        chan = channel("ff", 3.0, 0.05, n=10**7)
        p = chan.plan
        ham = normalize_spectrum(random_hermitian(rng, 64))
        rho = random_density(rng, 64)
        rho_ff, _ = evolve(ham, rho, chan)
        want = ham.dephase(whole_kernel(p, ham.eigenvalues, ham.eigenvalues), rho)
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
    every residue class at ``digits`` significant digits, from the double
    weights and t / N."""
    weights = binom_residue_weights(p.n, p.period, -p.shift)
    with mpmath.workdps(digits):
        root = mpmath.sqrt(mpmath.mpf(p.t / p.n))
        terms = [(mpmath.mpf(w), root * (2 * r - p.period))
                 for r, w in enumerate(weights.tolist()) if w]
        out = np.empty((eigs_a.size, eigs_b.size), dtype=complex)
        for i, a in enumerate(eigs_a.tolist()):
            for j, b in enumerate(eigs_b.tolist()):
                gap = mpmath.mpf(a) - mpmath.mpf(b)
                out[i, j] = complex(mpmath.fsum(w * mpmath.expj(-gap * th) for w, th in terms))
    return out


class TestFoldedKernel:
    @settings(max_examples=200, deadline=None, database=None)
    @given(t=hst.floats(0.25, 8.0), eps=hst.floats(0.01, 0.5),
           n=hst.one_of(hst.integers(2, 5000), hst.integers(5000, 10**7)))
    def test_residue_weights_are_mirror_symmetric(self, t, eps, n):
        # w_r = w_{P-r} in exact arithmetic; each bin sums the same terms in
        # another order, so they agree to (terms per bin) eps.  They are not
        # equal bit for bit (N = 22, P = 8 below), which is why the fold adds
        # w_r + w_{P-r} instead of doubling one of them.
        try:
            p = plan(t, eps, n)
        except ValidationError:
            return
        w = binom_residue_weights(p.n, p.period, -p.shift)
        half = p.period // 2
        lo, hi = _support(p.n, 0.5, PMF_FLOOR)
        per_bin = -(-(hi - lo + 1) // p.period)
        gap = np.abs(w[1:half] - w[:half:-1])
        assert np.all(gap <= per_bin * np.finfo(float).eps * w[1:half])

    def test_weights_differ_in_the_last_bit(self):
        p = plan(1.0, 0.5, 22)
        w = binom_residue_weights(p.n, p.period, -p.shift)
        assert p.period == 8 and not np.array_equal(w[1:4], w[:4:-1])

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
