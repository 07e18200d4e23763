import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from functools import partial

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.linalg import eigh_tridiagonal, expm, hadamard

from lindbladff import (CapacityError, FFPlan, InvariantError, ValidationError,
                        decompose_state, estimate, normalize_spectrum, plan, prepare)
from lindbladff import kernels, model, qpe
from lindbladff import numkernel as nk
from lindbladff.channel import (Channel, channel, dilated_kernel, evolve, evolve_matrix, ff_cost,
                                gap_kernel)
from lindbladff.cli import run
from lindbladff.kernels import _require_memory, binom_pmf_window
from lindbladff.qpe import (_counting_distribution,
                           _fast_distribution, _level_rows, _read_levels,
                           _sample_counts, counting_estimator, decide_amplitude,
                           residue_spectrum)

from conftest import (goal_ledger, log_binom, random_eigenstate, random_hermitian, random_state,
                      residue_of)
from oracles import (alpha_phases, amplitude_decision_demo, closed_form_standard_prepare,
                     closed_form_standard_qpe, dirichlet_readout, fft_readout,
                     dense_amplitude_problem, grover_iterate, schur_orthogonal_log,
                     standard_filter, standard_route_oracle, unit_gaps)
from test_single_jump import jumps


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
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")
H2Q = os.path.join(DATA, "h_two_qubit.pauli")


def slow_channel(t, n):
    """The slow route's channel: n dilated steps."""
    return channel("dilated", t, None, n=n)


def fast_channel(t, eps, n=None):
    """The fast route's channel: the ff plan of register count n."""
    return channel("ff", t, eps, n=n)


def standard_channel(d):
    """The standard route's channel: the d-bit register's lattice law."""
    return channel("standard", None, None, n=d)


class TestStandardQpe:
    def test_representable_phase_is_certain(self):
        ham, st, _ = eigenstate_input(0.25)
        res = estimate(ham, st, standard_channel(3))
        assert np.isclose(res.distribution[2], 1.0, atol=1e-12)
        assert np.isclose(res.estimate, 0.25)
        assert np.max(np.abs(np.delete(res.distribution, 2))) <= 1e-12

    def test_distribution_sums_to_one(self, rng):
        ham = normalize_spectrum(np.diag([0.0, 0.35, 1.0]))
        st = decompose_state(random_state(rng, 3), ham)
        res = estimate(ham, st, standard_channel(6))
        assert abs(res.distribution.sum() - 1.0) <= 1e-9

    def test_cost_counts_register_evolutions(self):
        ham, st, _ = eigenstate_input(0.3)
        assert estimate(ham, st, standard_channel(5)).cost.hamiltonian_time == 31

    def test_failure_tail_bound(self, rng):
        for d in range(4, 11):
            h = float(rng.uniform(0, 1))
            ham, st, _ = eigenstate_input(h)
            res = estimate(ham, st, standard_channel(d))
            ys = np.arange(1 << d) / (1 << d)
            circ = np.abs(((h - ys) + 0.5) % 1.0 - 0.5)
            for eps in (0.01, 0.05, 0.1):
                tail = float(res.distribution[circ >= eps].sum())
                assert tail <= 1.0 / ((1 << d) * eps) + 1e-12

    def test_sampling_is_deterministic_per_seed(self):
        ham, st, _ = eigenstate_input(0.3)
        a = estimate(ham, st, standard_channel(6), mode="sample", seed=42)
        b = estimate(ham, st, standard_channel(6), mode="sample", seed=42)
        assert a.raw_outcome == b.raw_outcome

    def test_repeat_median_mode_tightens_estimates(self):
        # optional repeat-median mode (single-shot remains the default)
        ham, st, _ = eigenstate_input(0.5)
        errs_single, errs_median = [], []
        for seed in range(40):
            one = estimate(ham, st, slow_channel(4.0, 400), mode="sample", seed=seed)
            med = estimate(ham, st, slow_channel(4.0, 400), mode="sample", seed=seed, repeats=15)
            errs_single.append(abs(one.estimate - 0.5))
            errs_median.append(abs(med.estimate - 0.5))
        assert np.mean(errs_median) <= np.mean(errs_single)


class TestStandardEigenstate:
    def test_worked_bound(self):
        # w_beta = 1/2, gap 0.5, d = 3: bound 0.5 / (0.5 + 0.5/64)
        ham = normalize_spectrum(np.diag([0.0, 0.5]))
        st = decompose_state(PLUS, ham)
        prep = prepare(ham, st, 0, standard_channel(3))
        assert np.isclose(prep.overlap_bound, 0.98462, atol=5e-6)
        assert prep.overlap >= prep.overlap_bound - 1e-10

    def test_pure_eigenstate(self):
        ham, st, idx = eigenstate_input(0.0, other=0.5)
        prep = prepare(ham, st, idx, standard_channel(4))
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

    def test_level_shifted_to_one_is_filtered(self):
        # the other level sits at exactly 1, a whole period of the Dirichlet
        # filter from the target; the gaps are halved into [-1/2, 1/2] first,
        # so it sits at gap 1/2: bound 0.5 / (0.5 + 0.5/256)
        ham = normalize_spectrum(np.diag([0.0, 1.0]))
        st = decompose_state(PLUS, ham)
        prep = prepare(ham, st, 0, standard_channel(4))
        assert np.isclose(prep.overlap_bound, 256 / 257)
        assert prep.overlap >= prep.overlap_bound > 0.0


class TestStandardLaw:
    """The standard route estimates and prepares through ``estimate`` and
    ``prepare`` on its lattice law, ``channel("standard", None, None, n=d)``,
    bit for bit the closed forms it ran before
    (``oracles.closed_form_standard_qpe`` and ``closed_form_standard_prepare``)."""

    @staticmethod
    def outcome(call):
        """Every field of a result as exact text, its arrays as bytes, or its error."""
        try:
            res = call()
        except (ValidationError, InvariantError) as exc:
            return type(exc), str(exc)
        return [(k, v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else (k, repr(v))
                for k, v in res._asdict().items()]

    @staticmethod
    def cases(seed):
        """Spectra drawn distinct, with exact repeats, with a pair 100 cluster
        tolerances apart and with a pair merged into one level; each as
        normalized and on a target's gaps stretched to unit radius
        (``oracles.unit_gaps``), with a random state, the target's
        eigenvector and a state with no weight on the target."""
        rng = np.random.default_rng(seed)
        dim = 2 + seed % 5
        eigs = rng.random(dim)
        if seed % 4 == 1:
            eigs[1:dim - 1:2] = eigs[0:dim - 2:2]
        elif seed % 4 >= 2:
            eigs[-1] = eigs[0] + (1e-7 if seed % 4 == 2 else 1e-13)
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        ham = normalize_spectrum((q * eigs) @ q.conj().T)
        for beta in range(ham.n_levels):
            space = ham.vectors[:, ham.levels == beta]
            other = random_state(rng, dim)
            other -= space @ (space.conj().T @ other)
            states, hams = [random_state(rng, dim), space[:, 0]], [ham]
            if ham.n_levels > 1:
                states.append(other / np.linalg.norm(other))
                hams.append(unit_gaps(ham, beta))
            for h in hams:
                for v in states:
                    yield h, decompose_state(v, h), beta

    @pytest.mark.parametrize("seed", range(24))
    def test_prepare_is_the_closed_form_bit_for_bit(self, seed):
        # prepare on any spectrum is the closed form on the target's unit gaps;
        # a one-level spectrum has no gaps to stretch, and the closed form
        # refuses it itself, after the register bits, as the channel does
        rng = np.random.default_rng(1000 + seed)
        for ham, st, beta in self.cases(seed):
            unit = unit_gaps(ham, beta) if ham.n_levels > 1 else ham
            for d in (1, 2, 51, int(rng.integers(3, 51)), 0, 52, 2000, 2.5):
                want = self.outcome(lambda: closed_form_standard_prepare(unit, st, beta, d))
                got = self.outcome(lambda: prepare(ham, st, beta, standard_channel(d)))
                assert got == want, (seed, beta, d)
        ham, st, _ = eigenstate_input(0.25)
        for beta in (-1, 2, 1.0):
            assert (self.outcome(lambda: prepare(ham, st, beta, standard_channel(4))) ==
                    self.outcome(lambda: closed_form_standard_prepare(unit_gaps(ham, beta), st,
                                                                      beta, 4)))

    @pytest.mark.parametrize("seed", range(24))
    def test_estimate_is_the_closed_form_bit_for_bit(self, seed):
        rng = np.random.default_rng(2000 + seed)
        for ham, st, _ in self.cases(seed):
            for d in (1, 2, int(rng.integers(3, 17)), 0, 2.5):
                for mode, repeats in itertools.product(("exact", "sample"), (1, 15)):
                    args = (mode, int(rng.integers(2 ** 32)), repeats)
                    want = self.outcome(lambda: closed_form_standard_qpe(ham, st, d, *args))
                    got = self.outcome(lambda: estimate(ham, st, standard_channel(d), *args))
                    assert got == want, (seed, d, args)

    @staticmethod
    def cli_refusal(mode, d):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(err):
            rc = run(["qpe", mode, "--route", "standard", "--ham", H2Q, "--d", d])
        return rc, out.getvalue(), err.getvalue()

    CAP = ("error: the standard route takes at most 51 register bits, got {}: "
           "past that the phases' rounding, scaled by 2^d, reaches a radian\n")

    @pytest.mark.parametrize("d", ("52", "2000"))
    def test_cli_refuses_register_bits_past_the_phase_rounding(self, d):
        assert self.cli_refusal("prepare", d) == (1, "", self.CAP.format(d))

    @pytest.mark.parametrize("d", ("52", "2000"))
    def test_cli_estimate_refuses_register_bits_past_the_phase_rounding(self, d):
        # the cap once held for preparation alone: estimation ran into the memory check
        assert self.cli_refusal("estimate", d) == (1, "", self.CAP.format(d))

    def test_only_prepare_reads_the_standard_law(self):
        # the phase-estimation pair, estimate and prepare, reads the law; evolution
        # does not: the node rule that every evolution asks refuses it on one, two
        # or three levels, for a state vector or a density matrix, on the node
        # path and on the eigenbasis path (a top cluster past the jump norm)
        ham = normalize_spectrum(np.diag([0.0, 0.5]))
        chan = standard_channel(4)
        message = ("the standard channel does not evolve: evolve and evolve_matrix "
                   "take an exact, dilated or ff channel")
        three, psi3 = np.diag([0.0, 0.5, 1.0]), np.ones(3) / math.sqrt(3.0)
        top = np.diag(np.r_[10.0 + np.linspace(0.0, 1e-3, 31), 10.001 + 9e-9])
        for call in (lambda: evolve(ham, PLUS, chan),
                     lambda: evolve_matrix(np.diag([0.0, 0.5]), PLUS, chan),
                     lambda: evolve(normalize_spectrum(np.eye(2)), PLUS, chan),
                     lambda: evolve_matrix(np.eye(2), PLUS, chan),
                     lambda: evolve(normalize_spectrum(three), psi3, chan),
                     lambda: evolve_matrix(three, psi3, chan),
                     lambda: evolve(ham, np.outer(PLUS, PLUS.conj()), chan),
                     lambda: evolve_matrix(three, np.outer(psi3, psi3), chan),
                     lambda: evolve_matrix(top, np.ones(32) / math.sqrt(32.0), chan)):
            with pytest.raises(ValidationError) as info:
                call()
            assert str(info.value) == message
        st = decompose_state(PLUS, ham)
        assert estimate(ham, st, chan).cost == prepare(ham, st, 0, chan).cost == chan.cost

    @pytest.mark.parametrize("t, eps", ((1.0, None), (None, 0.1)))
    def test_standard_law_reads_no_time_and_no_error(self, t, eps):
        with pytest.raises(ValidationError) as info:
            channel("standard", t, eps, n=4)
        assert str(info.value) == "standard reads n alone, no t and no eps"

    def test_goldens_match_the_explicit_sum_oracle(self):
        # every number the two standard-route goldens hold, against explicit
        # register sums on mpmath's eigendecomposition of the dense Pauli sum,
        # within the first-order error bound that the oracle derives
        records = {}
        for case in ("prepare_standard", "qpe_standard"):
            with open(os.path.join(DATA, f"golden_{case}.jsonl")) as fh:
                records[case] = json.loads(fh.readline())
        opts, est_opts = ({a: b for a, b in zip(rec["command"], rec["command"][1:])
                           if a.startswith("--")} for rec in records.values())
        assert {k: v for k, v in opts.items() if k != "--eigen"} == est_opts
        assert "--state" not in opts        # the plus state
        with open(os.path.join(ROOT, opts["--ham"])) as fh:
            terms = [(float(c), p) for c, p in (line.split() for line in fh
                                                if line.strip() and not line.startswith("#"))]
        d = int(opts["--d"])
        psi = np.full(1 << len(terms[0][1]), 2.0 ** (-len(terms[0][1]) / 2), dtype=complex)
        want, bound = standard_route_oracle(terms, psi, int(opts["--eigen"]), d)
        prep, est = records["prepare_standard"]["outputs"], records["qpe_standard"]["outputs"]
        got = {name: [prep[name]] for name in ("postselect_probability", "overlap",
                                               "expected_repeats", "ideal_amplification_queries",
                                               "overlap_bound")}
        got["state"] = [float(x) for z in prep["state"].split() for x in z.split(",")]
        got["distribution"] = est["distribution"]
        got.update((name, [est[name]]) for name in ("raw_outcome", "estimate_normalized",
                                                    "estimate"))
        assert sorted(got) == sorted(want)
        for name in got:
            assert len(got[name]) == len(want[name]), name
            for i, (g, w, b) in enumerate(zip(got[name], want[name], bound[name])):
                assert b < 1e-12 and abs(g - w) <= b, (name, i, g, w, b)
        top, second = sorted(want["distribution"])[-1:-3:-1]
        assert top - second > 2 * max(bound["distribution"])  # one argmax
        assert est["raw_outcome"] == want["raw_outcome"][0] and est["saturated"] is False
        for rec in records.values():
            assert rec["cost"] == {"hamiltonian_time": (1 << d) - 1.0, "step_count": d,
                                   "ancilla_count": d}


PREPARERS = {
    "standard": lambda ham, st, beta: prepare(ham, st, beta, standard_channel(5)),
    "slow": lambda ham, st, beta: prepare(ham, st, beta, slow_channel(16.0, 1000)),
    "fast": lambda ham, st, beta: prepare(ham, st, beta, fast_channel(4.0, 1e-3, 64)),
}


class TestTargetGaps:
    """Every route prepares any target beta on the gaps h - h_beta."""

    HAM = normalize_spectrum(np.diag([0.1, 0.45, 0.8]))
    STATE = decompose_state(np.array([0.6, 0.48, 0.64], dtype=complex), HAM)

    @pytest.mark.parametrize("beta", range(3))
    @pytest.mark.parametrize("route", sorted(PREPARERS))
    def test_target_off_zero_prepares_on_its_gaps(self, route, beta):
        h = self.HAM.eigenvalues
        prep = PREPARERS[route](self.HAM, self.STATE, beta)
        gaps = PREPARERS[route](self.HAM._replace(eigenvalues=h - h[beta]), self.STATE, beta)
        assert prep.state.tobytes() == gaps.state.tobytes()
        assert prep._replace(state=None) == gaps._replace(state=None)

    @pytest.mark.parametrize("beta", (-1, 3, 1.5, 1.0))
    @pytest.mark.parametrize("route", sorted(PREPARERS))
    def test_out_of_range_target_is_refused_alike(self, route, beta):
        with pytest.raises(ValidationError) as info:
            PREPARERS[route](self.HAM, self.STATE, beta)
        assert str(info.value) == f"eigenspace index {beta} out of range"


class TestSlowQpe:
    def test_worked_counting_parameter(self):
        ham, st, _ = eigenstate_input(0.5)
        res = estimate(ham, st, slow_channel(4.0, 400))
        q = math.sin(math.sqrt(4.0 / 400) * 0.5) ** 2
        assert np.isclose(q, 0.0024979, atol=1e-7)
        ref = scipy.stats.binom.pmf(np.arange(401), 400, q)
        assert np.max(np.abs(res.distribution - ref)) <= 1e-12

    def test_worked_estimator_value(self):
        est = math.sqrt(400 / 4.0) * math.asin(math.sqrt(1 / 400))
        assert np.isclose(est, 0.500208, atol=1e-6)

    def test_zero_phase_is_certain(self):
        ham, st, _ = eigenstate_input(0.0, other=0.6)
        res = estimate(ham, st, slow_channel(4.0, 100))
        assert np.isclose(res.distribution[0], 1.0, atol=1e-12)
        assert res.estimate == 0.0

    def test_mixture_distribution_sums_to_one(self, rng):
        ham = normalize_spectrum(np.diag([0.0, 0.35, 0.9]))
        st = decompose_state(random_state(rng, 3), ham)
        res = estimate(ham, st, slow_channel(8.0, 5000))
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
        res = estimate(ham, st, slow_channel(4.0, 400))
        assert res.cost.hamiltonian_time == math.sqrt(400 * 4.0)
        assert res.cost.ancilla_count == 400

    @pytest.mark.parametrize("t, n, reach", [(1e300, 4, "5e+149"), (4.0, 1, "2"),
                                             (2.5 * math.pi ** 2, 9, "1.66")])
    def test_range_refusal_prints_what_it_compares(self, t, n, reach):
        # sqrt(t/N) max|h| against pi/2, at three significant digits
        ham = normalize_spectrum(np.diag([-0.5, 1.0]))
        st = decompose_state(PLUS, ham)
        with pytest.raises(ValidationError) as info:
            estimate(ham, st, slow_channel(t, n))
        assert str(info.value) == (f"sqrt(t/N) max|h| = {reach} > pi/2 leaves the monotone "
                                   f"estimator range; increase N")

    def test_saturation_flag(self):
        ham, st, _ = eigenstate_input(0.5)
        est, sat = counting_estimator(4.0, 10, 10)
        assert sat and np.isclose(est, math.sqrt(10 / 4.0) * math.pi / 2)


@settings(max_examples=300, deadline=None, database=None)
@given(t=hst.one_of(hst.floats(5e-324, 1e300), hst.sampled_from([5e-324, 1e-310, 2.0 ** -1022])),
       n=hst.one_of(hst.integers(1, 2 ** 53), hst.sampled_from([1, 2, 2 ** 53])),
       m=hst.integers(0, 2 ** 53))
def test_counting_estimator_is_finite_and_unmoved(t, n, m):
    # at a subnormal t, N/t overflows; sqrt(N) / sqrt(t) keeps every count
    # finite and count 0 at 0, where sqrt(N/t) read inf * 0 = NaN
    est, sat = counting_estimator(t, n, m)
    frac = np.clip(np.asarray(m, dtype=float) / n, 0.0, 1.0)
    assert math.isfinite(est) and (m > 0 or est == 0.0) and sat == (frac >= 1.0)
    if math.isfinite(n / t):  # the arithmetic every record was written with
        assert est == math.sqrt(n / t) * np.arcsin(np.sqrt(frac))
    else:
        assert est == math.sqrt(n) / math.sqrt(t) * np.arcsin(np.sqrt(frac))


def test_counting_estimator_edges_are_covered():
    # the smallest normal t reads sqrt(N/t) at N = 1 and sqrt(N) / sqrt(t) at N = 2^53
    assert math.isinf(1 / 5e-324) and math.isinf(1 / 1e-310)
    assert math.isfinite(1 / 2.0 ** -1022) and math.isinf(2 ** 53 / 2.0 ** -1022)


class TestSlowEigenstate:
    def test_worked_instance(self):
        # frozen at N = 1e4: p0 = 0.50915538, overlap = 0.98201850; the gap
        # 0.5 is stretched to 1, so t = 4 keeps t gap^2 = 4 as when t was 16
        ham = normalize_spectrum(np.diag([0.0, 0.5]))
        st = decompose_state(PLUS, ham)
        prep = prepare(ham, st, 0, slow_channel(4.0, 10 ** 4))
        assert np.isclose(prep.postselect_probability, 0.5091553774243089, atol=1e-12)
        assert np.isclose(prep.postselect_probability, 0.509158, atol=1e-5)
        assert np.isclose(prep.overlap, 0.982018, atol=1e-5)
        assert prep.overlap >= prep.overlap_bound - 1.0 / 10 ** 4
        assert np.isclose(prep.overlap_bound, 0.5 / (0.5 + 0.5 * math.exp(-4.0)), atol=1e-9)

    def test_pure_eigenstate(self):
        ham, st, idx = eigenstate_input(0.0, other=0.5)
        prep = prepare(ham, st, idx, slow_channel(16.0, 1000))
        assert np.isclose(prep.postselect_probability, 1.0, atol=1e-12)
        assert np.isclose(prep.overlap, 1.0, atol=1e-12)

    def test_violated_bound_raises_invariant_error(self, monkeypatch):
        # a reported gap far above the true one pushes the bound above the overlap
        ham = normalize_spectrum(np.diag([0.0, 0.5]))
        st = decompose_state(PLUS, ham)
        monkeypatch.setattr(qpe, "spectral_gap", lambda ham, beta: 10.0)
        with pytest.raises(InvariantError, match="violates its bound"):
            prepare(ham, st, 0, slow_channel(4.0, 10 ** 4))

    def test_short_time_no_filtering(self):
        ham = normalize_spectrum(np.diag([0.0, 0.5]))
        st = decompose_state(PLUS, ham)
        prep = prepare(ham, st, 0, slow_channel(1e-6, 100))
        assert np.isclose(prep.overlap, 0.5, atol=1e-5)


# ---------------------------------------------------------------------------
# The slow routes on the dilated channel: bitwise the arithmetic they ran
# when they called the dilated kernel themselves and priced N steps as
# sqrt(N t), apart from that price, which is now the channel's N sqrt(t / N)
# ---------------------------------------------------------------------------

def written_out_filter(t, n, g):
    """The dilated kernel's column at gap 0, cos(sqrt(t / N) g)^N, as the slow
    routes evaluated it before they read it from the channel, and cos(x)^N
    itself where |cos x| <= 1/2 (where 1 - sin^2 x loses a small cos x)."""
    x = math.sqrt(t / n) * (g[:, None] - np.zeros(1)[None, :])
    c = np.cos(x)
    with np.errstate(divide="ignore"):
        far = np.sign(c) ** n * np.exp(0.5 * n * np.log1p(-np.sin(x) ** 2))
    return np.where(np.abs(c) > 0.5, far, c ** n)[:, 0]


# (t, N) at their edges: one step, the smallest subnormal time, a step root at
# the range guard's pi/2 for gaps of 1, N = 2^53, and pairs whose two cost
# expressions differ: by one ulp, and by two (the last two pairs)
COST_MOVES = [(1.0, 7), (3.0, 10), (7.0, 3), (0.37502690136087846, 375),
              (18.324540326743016, 192)]
SLOW_EDGES = [(5e-324, 1), (1e-300, 3), (2.0, 1), ((math.pi / 2) ** 2, 1), (16.0, 7),
              (4.0, 64), (16.0, 256), (64.0, 256), (2.0 ** 54, 2 ** 53)] + COST_MOVES


def test_cost_moves_are_covered():
    for t, n in COST_MOVES:
        assert math.sqrt(n * t) != n * math.sqrt(t / n)


@hst.composite
def slow_arguments(draw):
    if draw(hst.booleans()):
        return draw(hst.sampled_from(SLOW_EDGES))
    return draw(hst.floats(1e-3, 64.0)), draw(hst.integers(1, 4096))


@settings(max_examples=120, deadline=None, database=None)
@given(case=jumps(), args=slow_arguments(), beta_draw=hst.integers(0, 5))
def test_slow_routes_are_bitwise_their_dilated_arithmetic(case, args, beta_draw):
    t, n = args
    f, rng = case
    ham = normalize_spectrum(f)
    st = decompose_state(random_state(rng, ham.dim), ham)
    chan_cost = channel("dilated", t, None, n=n).cost
    # estimation: the distribution is register-sized, so the largest N is kept to preparation
    if n <= 4096:
        try:
            qpe._root_in_range(ham.eigenvalues, slow_channel(t, n))
        except ValidationError as exc:
            with pytest.raises(ValidationError) as info:
                estimate(ham, st, slow_channel(t, n))
            assert str(info.value) == str(exc)
        else:
            read = _read_levels(st)
            qs = np.sin(math.sqrt(t / n) * ham.eigenvalues[read]) ** 2
            want = np.zeros(n + 1)
            for w, q in zip(st.weights[read], qs):
                lo, pm = binom_pmf_window(n, float(q))
                want[lo: lo + pm.size] += w * pm
            res = estimate(ham, st, slow_channel(t, n))
            assert np.array_equal(res.distribution, want)
            assert res.raw_outcome == int(np.argmax(want))
            assert res.cost == chan_cost and type(res.cost.step_count) is int
    # preparation at a target with at least two levels and some weight, on its unit gaps
    beta = beta_draw % ham.n_levels
    if ham.n_levels < 2 or st.coeffs[beta] == 0.0:
        return
    g = unit_gaps(ham, beta).eigenvalues
    if math.sqrt(t / n) * float(np.max(np.abs(g))) > 0.5 * math.pi:
        with pytest.raises(ValidationError, match="monotone estimator range"):
            prepare(ham, st, beta, slow_channel(t, n))
        return
    amp = written_out_filter(t, n, g)
    assert np.array_equal(channel("dilated", t, None, n=n).kernel(g, np.zeros(1))[:, 0], amp)
    kept = st.weights * np.abs(amp) ** 2
    p0 = float(np.sum(kept))
    prep = prepare(ham, st, beta, slow_channel(t, n))
    assert prep.postselect_probability == p0
    assert prep.overlap == float(kept[beta] / p0)
    assert np.array_equal(prep.state, (st.coeffs * amp) @ st.components / math.sqrt(p0))
    assert prep.cost == chan_cost
    # N sqrt(t / N) carries 2.5 u of rounding (u = 2^-53: the quotient, the root,
    # the product) and sqrt(N t) 1.5 u, so the two differ by at most 4 u sqrt(N t),
    # two ulp for about 0.1% of random pairs
    assert abs(chan_cost.hamiltonian_time - math.sqrt(n * t)) <= 4 * 2.0 ** -53 * math.sqrt(n * t)


# (N, t, eps) of the fast preparation draws: plan() covers every address at
# N = 2 and 4 and gives narrow windows at N = 64 and 512
BOUND_COUNTS, BOUND_TIMES, BOUND_EPS = [2, 4, 64, 512], [1.0, 4.0, 16.0], [1e-9, 1e-4, 1e-2]


def test_fast_preparation_draws_cover_full_and_narrow_windows():
    for n, t, eps in itertools.product(BOUND_COUNTS, BOUND_TIMES, BOUND_EPS):
        assert plan(t, eps, n).full_window == (n <= 4), (n, t, eps)


@settings(max_examples=60, deadline=None, database=None)
@given(case=jumps(), n=hst.sampled_from(BOUND_COUNTS), t=hst.sampled_from(BOUND_TIMES),
       eps=hst.sampled_from(BOUND_EPS), beta_draw=hst.integers(0, 5))
def test_fast_preparation_bound_reads_the_dilated_filter(case, n, t, eps, beta_draw):
    # the inaccuracy chain's unwindowed check reads the dilated channel's
    # column at 0 at the plan's t and N, narrow windows included
    f, rng = case
    ham = normalize_spectrum(f)
    beta = beta_draw % ham.n_levels
    if ham.n_levels < 2:
        return
    psi = ham.vectors[:, np.flatnonzero(ham.levels == beta)[0]] + 0.05 * random_state(rng, ham.dim)
    st = decompose_state(psi / np.linalg.norm(psi), ham)
    zeta = math.sqrt(eps) / float(st.coeffs[beta])
    plain = written_out_filter(t, n, unit_gaps(ham, beta).eigenvalues)
    want = 0.0
    if zeta < 1.0 / 6.0 and st.weights[beta] / np.sum(st.weights * plain ** 2) >= 1.0 - zeta:
        want = 1.0 - 6.0 * zeta
    try:
        bound = prepare(ham, st, beta, fast_channel(t, eps, n)).overlap_bound
    except InvariantError as exc:  # a narrow window may break the chain; the bound is read first
        if "violates its bound" not in str(exc):
            return
        bound = float(str(exc).rsplit(" ", 1)[1])
    assert bound == want


# ---------------------------------------------------------------------------
# The fast routes on the ff channel: bitwise the arithmetic they ran when
# they took a plan and called its gap kernel and cost themselves
# ---------------------------------------------------------------------------

def plan_fast_qpe(ham, st, p, mode, seed, repeats):
    """The fast estimate on a given plan: its readout, ``ff_cost`` priced."""
    chan = Channel("ff", p.t, p.n, partial(gap_kernel, p), ff_cost(p), p)
    route_step_root(ham, p.t, p.n)  # range guard
    return qpe._readout(ham, _fast_distribution(ham, st, p), chan, mode, seed, repeats)


def plan_fast_qpe_eigenstate(ham, st, beta, p):
    """The fast preparation on a given plan, filtered by its ``gap_kernel``
    column at the target's unit gaps."""
    ham = unit_gaps(ham, beta)
    c_beta = float(st.coeffs[beta])
    root_eps = math.sqrt(p.eps)
    zeta = root_eps / c_beta if c_beta > 0 else math.inf
    bound = 0.0
    if zeta < 1.0 / 6.0:
        plain = written_out_filter(p.t, p.n, ham.eigenvalues)
        if st.weights[beta] / np.sum(st.weights * plain ** 2) >= 1.0 - zeta:
            bound = 1.0 - 6.0 * zeta
    prep = qpe._postselect(st, beta, gap_kernel(p, ham.eigenvalues, np.zeros(1))[:, 0],
                           bound, 1e-9, ff_cost(p))
    root_p0 = math.sqrt(prep.postselect_probability)
    if root_p0 < c_beta - root_eps - 1e-9:
        raise InvariantError(f"postselect amplitude {root_p0} fell below c_beta - sqrt(eps)")
    return prep


def assert_same_outcome(got_call, want_call, array_field):
    """Both calls raise the same error, or return equal records whose
    ``array_field`` arrays are equal entry for entry."""
    try:
        want = want_call()
    except (ValidationError, InvariantError) as exc:
        with pytest.raises(type(exc)) as info:
            got_call()
        assert str(info.value) == str(exc)
        return
    got = got_call()
    assert np.array_equal(getattr(got, array_field), getattr(want, array_field))
    assert got._replace(**{array_field: None}) == want._replace(**{array_field: None})


# (t, eps, N) at their edges: subnormal and huge t and eps, t at the range
# guard's pi/2 for gaps of 1, the smallest and odd counts (rounded up), the
# default count ceil(t^3 / eps^2), and an eps whose window is under one address
FAST_EDGES = [(5e-324, 1e-3, 2), (1e-300, 0.5, 3), (1.0, 5e-324, 64), (1.0, 1e-300, 64),
              (2.0 * (math.pi / 2) ** 2, 1e-3, 2), (4.0 * (math.pi / 2) ** 2, 1e-3, 3),
              (2.0 ** 54, 1e-3, 4096), (16.0, 1e-3, 4095), (4.0, 1e-3, 1),
              (1.0, 0.5, None), (4.0, 0.5, None), (16.0, 0.999, None), (5e-324, 0.5, None),
              (1.0, 1.0 - 2.0 ** -53, 2), (1.0, 1.0 - 2.0 ** -53, 4096)]


@hst.composite
def fast_arguments(draw):
    if draw(hst.booleans()):
        return draw(hst.sampled_from(FAST_EDGES))
    return (draw(hst.floats(1e-3, 64.0)), draw(hst.floats(1e-12, 0.5)),
            draw(hst.integers(2, 4096)))


@settings(max_examples=100, deadline=None, database=None)
@given(case=jumps(), args=fast_arguments(), beta_draw=hst.integers(0, 5),
       mode=hst.sampled_from(["exact", "sample"]), seed=hst.integers(0, 2 ** 32 - 1),
       repeats=hst.integers(1, 5))
def test_fast_routes_are_bitwise_their_plan_arithmetic(case, args, beta_draw, mode, seed,
                                                        repeats):
    t, eps, n = args
    f, rng = case
    ham = normalize_spectrum(f)
    st = decompose_state(random_state(rng, ham.dim), ham)
    assert_same_outcome(lambda: estimate(ham, st, fast_channel(t, eps, n), mode, seed, repeats),
                        lambda: plan_fast_qpe(ham, st, plan(t, eps, n), mode, seed, repeats),
                        "distribution")
    beta = beta_draw % ham.n_levels
    assert_same_outcome(lambda: prepare(ham, st, beta, fast_channel(t, eps, n)),
                        lambda: plan_fast_qpe_eigenstate(ham, st, beta, plan(t, eps, n)),
                        "state")


def test_fast_edges_are_covered():
    # a default count, an odd one rounded up, and every kind of refusal
    assert plan(1.0, 0.5).n == 4 and plan(16.0, 1e-3, 4095).n == 4096
    kinds = set()
    for t, eps, n in FAST_EDGES:
        try:
            plan(t, eps, n)
        except ValidationError as exc:
            kinds.add(str(exc).split(" ", 1)[0])
    assert kinds == {"target", "register", "window"}


# ---------------------------------------------------------------------------
# estimate and prepare on a dilated channel: bitwise the two slow route
# functions they replaced, slow_qpe and slow_qpe_eigenstate, transcribed below
# with the range guard they ran; both sides read their costs from the channel
# table.  The fast routes are checked against their plan arithmetic above.
# ---------------------------------------------------------------------------

def route_step_root(ham, t, n):
    """sqrt(t/N) for finite t > 0 and N >= 1, where sqrt(t/N) max|h| <= pi/2."""
    nk.require_time(t)
    nk.require_count(n, 1, "register count")
    root = math.sqrt(t / n)
    reach = root * float(np.max(np.abs(ham.eigenvalues)))
    if reach > 0.5 * math.pi:
        raise ValidationError(f"sqrt(t/N) max|h| = {reach:.3g} > pi/2 leaves the monotone "
                              f"estimator range; increase N")
    return root


def route_slow_qpe(ham, state, t, n, mode="exact", seed=None, repeats=1):
    root = route_step_root(ham, t, n)
    _require_memory(8 * (n + 1), "slow route", f"distribution at N = {n}", "lower N")
    read = _read_levels(state)
    qs = np.sin(root * ham.eigenvalues[read]) ** 2
    dist = _counting_distribution(state.weights[read], qs, n)
    return qpe._readout(ham, dist, channel("dilated", t, None, n=n), mode, seed, repeats)


def route_slow_qpe_eigenstate(ham, state, beta, t, n):
    ham = unit_gaps(ham, beta)
    route_step_root(ham, t, n)  # argument and range guard
    chan = channel("dilated", t, None, n=n)
    w, gap = state.weights[beta], model.spectral_gap(ham, beta)
    bound = w / (w + (1.0 - w) * math.exp(-t * gap ** 2))
    amp = chan.kernel(ham.eigenvalues, np.zeros(1))[:, 0]
    return qpe._postselect(state, beta, amp, bound, 1.0 / n + 1e-10, chan.cost)


def assert_same_record(got_call, want_call, array_field):
    """Both calls raise an error of one type, or return equal records whose
    ``array_field`` arrays are equal entry for entry."""
    try:
        want = want_call()
    except (ValidationError, InvariantError) as exc:
        with pytest.raises(type(exc)):
            got_call()
        return
    got = got_call()
    assert np.array_equal(getattr(got, array_field), getattr(want, array_field))
    assert got._replace(**{array_field: None}) == want._replace(**{array_field: None})


# arguments the slow route refuses: a time, a count
SLOW_REFUSED = [(0.0, 4), (float("nan"), 4), (1.0, 0), (1.0, 2.5)]


@settings(max_examples=200, deadline=None, database=None)
@given(case=jumps(), slow_args=hst.one_of(slow_arguments(), hst.sampled_from(SLOW_REFUSED)),
       beta_draw=hst.integers(0, 5), mode=hst.sampled_from(["exact", "sample"]),
       seed=hst.integers(0, 2 ** 32 - 1), repeats=hst.integers(1, 5))
def test_estimate_and_prepare_are_bitwise_the_route_functions(case, slow_args, beta_draw, mode,
                                                              seed, repeats):
    f, rng = case
    ham = normalize_spectrum(f)
    st = decompose_state(random_state(rng, ham.dim), ham)
    beta = beta_draw % ham.n_levels
    t, n = slow_args
    # the slow distribution is register-sized, so the largest N is kept to preparation
    if not isinstance(n, int) or n <= 4096:
        assert_same_record(lambda: estimate(ham, st, slow_channel(t, n), mode, seed, repeats),
                           lambda: route_slow_qpe(ham, st, t, n, mode, seed, repeats),
                           "distribution")
    assert_same_record(lambda: prepare(ham, st, beta, slow_channel(t, n)),
                       lambda: route_slow_qpe_eigenstate(ham, st, beta, t, n), "state")


@pytest.mark.parametrize("call", [lambda ham, st, chan: estimate(ham, st, chan),
                                  lambda ham, st, chan: prepare(ham, st, 0, chan)])
def test_counting_refuses_the_exact_channel(call):
    ham = normalize_spectrum(np.diag([0.0, 0.5]))
    with pytest.raises(ValidationError) as info:
        call(ham, decompose_state(PLUS, ham), channel("exact", 1.0, None))
    assert str(info.value) == ("phase estimation takes a dilated, ff or standard channel, "
                               "not exact")


@pytest.mark.parametrize("call", [
    lambda ham, st, chan: estimate(ham._replace(eigenvalues=np.array([0.0, 0.75, 1.5])), st, chan),
    lambda ham, st, chan: prepare(ham._replace(eigenvalues=np.array([0.0, 0.5, math.nan])), st, 0,
                                  chan)])
def test_fast_readouts_refuse_a_jump_norm_above_one(call):
    # sqrt(t/N) 1.5 = 0.375 passes the range guard, so the ledger's spectrum
    # (estimate) meets the norm check; preparation stretches any finite gaps
    # to unit radius, so its gap kernel's column (prepare) meets it at a NaN level
    ham = normalize_spectrum(np.diag([0.0, 0.5, 1.0]))
    st = decompose_state(np.ones(3, dtype=complex) / math.sqrt(3.0), ham)
    with pytest.raises(ValidationError, match="jump norm exceeds 1"):
        call(ham, st, channel("ff", 4.0, 1e-3, n=64))


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
    a = np.exp(0.5 * (log_binom(p.n, np.arange(p.n + 1)) - p.n * math.log(2.0)))
    res = residue_of(p, np.arange(p.n + 1))
    b = np.zeros((p.n + 1, p.period))
    for r in range(p.period):
        idx = res == r
        b[:, r] = u[:, idx] @ a[idx]
    return b @ ledger.states


def transformed_rows(ham, state, p):
    """Rows X[x] = sum_l g_l[x] c_l comps_l of the per-level readout, shape (N+1, dim)."""
    read = _read_levels(state)
    rows = _level_rows(residue_spectrum(p, ham.eigenvalues[read], state.coeffs[read]), p.n)
    return rows.T @ state.components[read]


# (-i)^x for x mod 4
_MINUS_I_POWERS = np.array([1.0, -1.0j, -1.0, 1.0j])


def column_rows(ham, state, p):
    """Transformed rows X[x] from the whole ledger, one column per k on its
    pmf window, shape (N+1, dim): the dense-column readout."""
    psi = np.tensordot(state.coeffs, state.components, axes=(0, 0))
    ledger = goal_ledger(ham, psi, p)
    n, period = p.n, p.period
    shift_phase = np.exp(-2j * math.pi * ((np.arange(period) * p.shift) % period) / period)
    s_hat = np.fft.fft(ledger.states, axis=0) * (shift_phase / period)[:, None]
    phases = alpha_phases(n, period)
    rows = np.zeros((n + 1, s_hat.shape[1]), dtype=complex)
    for k in range(period):
        lo, pmf = binom_pmf_window(n, math.sin(math.pi * min(k, period - k) / period) ** 2)
        x = np.arange(lo, lo + pmf.size)
        sigma = -1 if 2 * k > period else 1
        col = np.sqrt(pmf) * _MINUS_I_POWERS[(sigma * x) % 4]
        col *= phases[k]
        rows[lo: lo + pmf.size] += np.outer(col, s_hat[k])
    return rows


def column_distribution(ham, state, p):
    rows = column_rows(ham, state, p)
    return np.einsum("ms,ms->m", rows.real, rows.real) + np.einsum("ms,ms->m", rows.imag, rows.imag)


def plan_at(n, full, t=4.0):
    """Plan at any register count (``plan`` rounds odd counts up), with a
    window that covers every address or one a few bits narrower."""
    d = max(1, math.ceil(math.log2(n + 1)))
    dprime = d + n % 2 if full else max(1, d - 3)
    half = 1 << (dprime - 1)
    window = (n // 2 - half, n // 2 + half - 1)
    return FFPlan(t=t, eps=0.1, n=n, c=half / n, d=d, dprime=dprime, window=window,
                  full_window=window[0] <= 0 and window[1] >= n)


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
        rows = transformed_rows(ham, st, p)
        assert np.max(np.abs(rows - oracle_rows(ham, st, p))) <= 1e-12

    @pytest.mark.parametrize("full", (True, False))
    @pytest.mark.parametrize("n", (1, 2, 3, 7, 64, 512, 4096))
    def test_row_zero_closed_form_matches_rows(self, rng, n, full):
        # row 0 of the readout scales each component by the fast filter, the
        # gap kernel's column at eigenvalue 0; its closed form needs an even N
        p = plan_at(n, full)
        ham = normalize_spectrum(random_hermitian(rng, 4))
        st = decompose_state(random_state(rng, 4), ham)
        if n % 2:
            with pytest.raises(ValidationError, match="even register count"):
                gap_kernel(p, ham.eigenvalues, np.zeros(1))
            return
        row0 = (st.coeffs * gap_kernel(p, ham.eigenvalues, np.zeros(1))[:, 0]) @ st.components
        assert np.max(np.abs(row0 - transformed_rows(ham, st, p)[0])) <= 1e-12


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
        assert plan(1.0, 2e-4, n_override=16).full_window
        fast = estimate(ham, st, fast_channel(1.0, 2e-4, 16))
        slow = estimate(ham, st, slow_channel(1.0, 16))
        assert np.max(np.abs(fast.distribution - slow.distribution)) <= 1e-12

    def test_zero_phase_certain(self):
        ham, st, _ = eigenstate_input(0.0, other=0.6)
        res = estimate(ham, st, fast_channel(2.0, 1e-3, 256))
        assert res.distribution[0] >= 1.0 - 2 * math.sqrt(1e-3)
        assert res.raw_outcome == 0

    def test_windowed_distribution_close_to_unwindowed(self, rng):
        for n, eps in ((512, 1e-3), (2048, 1e-4)):
            ham = normalize_spectrum(np.diag([0.0, 0.4, 1.0]))
            st = decompose_state(random_state(rng, 3), ham)
            fast = estimate(ham, st, fast_channel(4.0, eps, n))
            slow = estimate(ham, st, slow_channel(4.0, n))
            l1 = float(np.sum(np.abs(fast.distribution - slow.distribution)))
            assert l1 <= 2.0 * math.sqrt(eps), (n, eps, l1)

    def test_distribution_sums_to_one(self, rng):
        ham = normalize_spectrum(np.diag([0.0, 0.5]))
        st = decompose_state(random_state(rng, 2), ham)
        res = estimate(ham, st, fast_channel(2.0, 1e-4, 1024))
        assert abs(res.distribution.sum() - 1.0) <= 1e-9

    def test_cost_comes_from_ledger(self):
        ham, st, _ = eigenstate_input(0.5)
        p = plan(4.0, 1e-4, n_override=1024)
        res = estimate(ham, st, fast_channel(4.0, 1e-4, 1024))
        assert res.cost.hamiltonian_time == p.period * math.sqrt(p.t / p.n)

    def test_large_register_matches_slow(self):
        ham = normalize_spectrum(np.diag([0.0, 0.4, 1.0]))
        st = decompose_state(np.ones(3, dtype=complex) / math.sqrt(3.0), ham)
        n, eps = 10 ** 5, 1e-4
        fast = estimate(ham, st, fast_channel(64.0, eps, n))
        slow = estimate(ham, st, slow_channel(64.0, n))
        assert abs(fast.distribution.sum() - 1.0) <= 1e-9
        assert np.sum(np.abs(fast.distribution - slow.distribution)) <= 2.0 * math.sqrt(eps)


class TestFastEigenstate:
    def test_pure_eigenstate(self):
        ham, st, idx = eigenstate_input(0.0, other=0.5)
        eps = 1e-4
        prep = prepare(ham, st, idx, fast_channel(16.0, eps, 4096))
        assert prep.postselect_probability >= 1.0 - 2 * math.sqrt(eps)
        assert prep.overlap >= 1.0 - 2 * math.sqrt(eps)

    def test_worked_inaccuracy_chain(self):
        # zeta = 0.02, eps = (c_beta zeta)^2; overlap must clear 1 - 6 zeta;
        # the gap 0.5 is stretched to 1, so t = 4 keeps t gap^2 = 4 as at t = 16
        ham = normalize_spectrum(np.diag([0.0, 0.5]))
        st = decompose_state(PLUS, ham)
        zeta = 0.02
        eps = (float(st.coeffs[0]) * zeta) ** 2
        prep = prepare(ham, st, 0, fast_channel(4.0, eps, 4096))
        assert np.isclose(prep.postselect_probability, 0.5091518577119774, atol=1e-10)
        assert prep.overlap >= 1.0 - 6.0 * zeta
        assert np.isclose(prep.overlap_bound, 1.0 - 6.0 * zeta)
        assert math.sqrt(prep.postselect_probability) >= float(st.coeffs[0]) - math.sqrt(eps)

    def test_full_window_matches_slow(self):
        ham = normalize_spectrum(np.diag([0.0, 0.5]))
        st = decompose_state(PLUS, ham)
        fast = prepare(ham, st, 0, fast_channel(1.0, 2e-4, 16))
        slow = prepare(ham, st, 0, slow_channel(1.0, 16))
        assert abs(fast.postselect_probability - slow.postselect_probability) <= 1e-12
        assert abs(fast.overlap - slow.overlap) <= 1e-12

    def test_light_target_is_amplified(self):
        # a target weight far below 2^-52 of the other level's still carries
        # the post-selected state: dropping light levels from row zero would
        # leave only the far level and an overlap near 0
        ham = normalize_spectrum(np.diag([0.0, 1.0]))
        c = math.sqrt(1e-17)
        st = decompose_state(np.array([c, math.sqrt(1.0 - c * c)], dtype=complex), ham)
        fast = prepare(ham, st, 0, fast_channel(64.0, 1e-8, 1000))
        slow = prepare(ham, st, 0, slow_channel(64.0, 1000))
        assert slow.overlap >= 1.0 - 1e-10
        assert abs(fast.overlap - slow.overlap) <= 1e-10


class TestScalingLaws:
    # grids start at t h^2 = 16 so the count statistics are past the
    # small-mean Poisson regime where the t h^2 -> 0 spike distorts the fit

    def test_slow_route_standard_quantum_limit(self):
        # RMS error vs evolution time: slope -1/2
        ham, st, _ = eigenstate_input(1.0, other=0.5)
        ts = np.array([16.0, 32.0, 64.0, 128.0])
        n = 500_000
        rms = [_rms_error(estimate(ham, st, slow_channel(t, n)), t, n, 1.0) for t in ts]
        slope = np.polyfit(np.log(ts), np.log(rms), 1)[0]
        assert abs(slope + 0.5) <= 0.1

    def test_fast_route_heisenberg_limit(self):
        # RMS error vs measured evolution-time cost: slope -1
        ham, st, _ = eigenstate_input(1.0, other=0.5)
        costs, rms = [], []
        for t in (16.0, 32.0, 64.0, 128.0):
            res = estimate(ham, st, fast_channel(t, 1e-6, 2048))
            costs.append(res.cost.hamiltonian_time)
            rms.append(_rms_error(res, t, 2048, 1.0))
        slope = np.polyfit(np.log(costs), np.log(rms), 1)[0]
        assert abs(slope + 1.0) <= 0.15


def _rms_error(res, t, n, h_true):
    est, _ = counting_estimator(t, n, np.arange(res.distribution.size))
    return float(np.sqrt(np.sum(res.distribution * (est - h_true) ** 2)))


class TestAmplitudeDemo:
    def test_grover_iterate_is_orthogonal_and_logged(self):
        bits = np.array([1, 0, 1, 0, 0, 0, 0, 0])
        u, eta = grover_iterate(bits)
        assert np.max(np.abs(u @ u.T - np.eye(16))) <= 1e-12
        h = schur_orthogonal_log(u)
        assert np.max(np.abs(h - h.conj().T)) <= 1e-10
        assert np.max(np.abs(expm(-1j * h) - u)) <= 1e-9

    def test_amplitude_value(self):
        assert np.isclose(qpe.amplitude_problem(3, 2, t=100.0, register_n=512).amplitude, 0.5)

    def test_zero_witness_certain_in_exact_mode(self):
        problem = qpe.amplitude_problem(4, 0)
        dec = decide_amplitude(problem, mode="exact")
        assert dec.decided_zero and dec.correct
        p = problem.channel.plan
        est, _ = counting_estimator(p.t, p.n, np.arange(p.n + 1))
        zero_side = np.abs(problem.ham.spectrum_map.to_original(est)) <= problem.threshold
        assert np.sum(problem.distribution[zero_side]) >= 1.0 - 1e-6

    def test_seeded_accuracy(self):
        correct = 0
        runs = 0
        for w in (0, 1, 4):
            for k in range(10):
                dec = amplitude_decision_demo(4, w, mode="sample", seed=1000 + k)
                correct += int(dec.correct)
                runs += 1
        assert correct / runs >= 0.95

    def test_address_bits_past_the_level_clustering_are_refused(self, monkeypatch):
        # one witness's levels +-2 asin(2^(-n/2)) stay apart from level 0 up to
        # n = 58 at CLUSTER_RTOL = 1e-9, the tolerance read at call time
        assert qpe.amplitude_problem(58, 1).ham.n_levels == 4
        for n in (59, 10 ** 400):
            with pytest.raises(ValidationError) as info:
                qpe.amplitude_problem(n, 1)
            assert str(info.value) == (f"n = {n} address bits: need one witness's levels "
                                       f"+-2 asin(2^(-n/2)) farther from 0 than the clustering "
                                       f"tolerance")
        with pytest.raises(ValidationError, match="^address bits must be an integer >= 0, got -1$"):
            qpe.amplitude_problem(-1, 1)
        monkeypatch.setattr(model, "CLUSTER_RTOL", 1e-6)
        with pytest.raises(ValidationError, match="n = 40 address bits"):
            qpe.amplitude_problem(40, 0)


def oracle_shapes():
    """Every n <= 6 address bits and W = 0..2^n witnesses."""
    for n in range(7):
        for w in range(2 ** n + 1):
            yield pytest.param(n, w, id=f"n{n}-w{w}")


class TestClosedFormProblem:
    @pytest.mark.parametrize("n, w", oracle_shapes())
    def test_matches_the_dense_schur_reference(self, n, w):
        # the dense path carries dim 2^-52 of rounding (the Schur form of a
        # dim-dimensional iterate, the state's dim-term sums);
        # measured at most 0.32 dim 2^-52 on the levels, the map and the
        # distribution
        closed = qpe.amplitude_problem(n, w)
        dense = dense_amplitude_problem(np.arange(2 ** n) < w)
        tol = 2 ** (n + 1) * np.finfo(float).eps
        assert closed.ham.eigenvalues.size == dense.ham.eigenvalues.size
        assert np.max(np.abs(closed.ham.eigenvalues - dense.ham.eigenvalues)) <= tol
        assert abs(closed.ham.spectrum_map.scale / dense.ham.spectrum_map.scale - 1.0) <= tol
        assert abs(closed.ham.spectrum_map.shift - dense.ham.spectrum_map.shift) <= tol
        assert np.max(np.abs(closed.distribution - dense.distribution)) <= tol
        for k in range(10):
            a, b = decide_amplitude(closed, seed=k), decide_amplitude(dense, seed=k)
            assert (a.estimation.raw_outcome, a.decided_zero) == (b.estimation.raw_outcome,
                                                                  b.decided_zero)


def iterate_phases(n, w):
    """Eigenphases of the n-bit search iterate with w witnesses on (-pi, pi]:
    +-2 theta on span{good, bad}, one 0 and one pi short of 2^n each on the
    flag-1 and flag-0 rest; -pi is pi."""
    rot = 2.0 * math.asin(math.sqrt(w / 2 ** n))
    return [0.0] * (2 ** n - 1) + [math.pi] * (2 ** n - 1) + [rot, -rot if w < 2 ** n else rot]


def grover_iterates():
    """Every search iterate with n <= 6 address bits and W = 0..2^n witnesses."""
    for n in range(7):
        for w in range(2 ** n + 1):
            u, _ = grover_iterate(np.arange(2 ** n) < w)
            yield pytest.param(u, iterate_phases(n, w), id=f"grover-n{n}-w{w}")


def rotation_matrix(rng, plus, minus, angles):
    """Random real orthogonal matrix with ``plus`` eigenvalues +1, ``minus``
    eigenvalues -1 and one rotation pair e^(+-i a) per entry of ``angles``,
    and its eigenphases."""
    dim = plus + minus + 2 * len(angles)
    block = np.zeros((dim, dim))
    block[np.arange(plus), np.arange(plus)] = 1.0
    block[np.arange(plus, plus + minus), np.arange(plus, plus + minus)] = -1.0
    for j, a in enumerate(angles):
        i = plus + minus + 2 * j
        block[i:i + 2, i:i + 2] = [[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]]
    q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    return q @ block @ q.T, [0.0] * plus + [math.pi] * minus + [*angles, *(-a for a in angles)]


def generated_rotations():
    """Repeated +-1 eigenvalues and repeated rotation pairs, angles at least
    0.05 from 0 and pi."""
    rng = np.random.default_rng(20261018)
    for case in range(60):
        plus, minus = (int(k) for k in rng.integers(0, 6, size=2))
        angles = [a for a in rng.uniform(0.05, math.pi - 0.05, size=int(rng.integers(0, 4)))
                  for _ in range(int(rng.integers(1, 4)))]
        if plus + minus + len(angles) == 0:
            plus = 1
        yield pytest.param(*rotation_matrix(rng, plus, minus, angles), id=f"generated-{case}")
    yield pytest.param(-np.eye(4), [math.pi] * 4, id="minus-only")
    yield pytest.param(np.eye(3), [0.0] * 3, id="plus-only")
    yield pytest.param(*rotation_matrix(rng, 2, 3, [0.5 * math.pi] * 3), id="quarter-turns")
    yield pytest.param(*rotation_matrix(rng, 1, 3, [math.pi - 0.05] * 2), id="near-pi")
    # distinct rotations whose cosines differ by about 1e-9
    yield pytest.param(*rotation_matrix(rng, 2, 2, [1.3, 1.3 + 1e-9, 1.3 + 2e-9, 0.1, 0.1 + 1e-9]),
                       id="close-pairs")


class TestOrthogonalLog:
    # the Schur logarithm is the dense reference of the closed-form amplitude
    # problem: it must be the principal logarithm, with the phases each
    # matrix was built from
    @pytest.mark.parametrize("u, phases", [*grover_iterates(), *generated_rotations()])
    def test_principal_log_matches_schur_oracle(self, u, phases):
        h = schur_orthogonal_log(u)
        assert np.max(np.abs(expm(-1j * h) - u)) <= 1e-12
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12
        got = np.linalg.eigvalsh(h)
        assert got.min() > -math.pi + 1e-6 and got.max() <= math.pi + 1e-12
        assert np.max(np.abs(got - np.sort(phases))) <= 1e-12


# ---------------------------------------------------------------------------
# Support-sized readouts: per-level fast rows, support sampling, the standard
# distribution in blocks of outcomes
# ---------------------------------------------------------------------------

def level_subset_state(ham, rng, populated):
    """Random pure state on the eigenspaces whose indices are in ``populated``;
    for a diagonal Hamiltonian the other weights are exactly zero."""
    v = np.zeros(ham.dim, dtype=complex)
    for lvl in populated:
        cols = ham.vectors[:, ham.levels == lvl]
        v += cols @ (rng.normal(size=cols.shape[1]) + 1j * rng.normal(size=cols.shape[1]))
    return decompose_state(v / np.linalg.norm(v), ham)


class TestFastReadout:
    @settings(max_examples=40, deadline=None, database=None)
    @given(n=hst.integers(1, 3000), full=hst.booleans(), dim=hst.integers(1, 5),
           seed=hst.integers(0, 2 ** 32 - 1), data=hst.data())
    def test_distribution_matches_column_oracle(self, n, full, dim, seed, data):
        rng = np.random.default_rng(seed)
        p = plan_at(n, full, t=min(4.0, float(n)))
        ham = normalize_spectrum(np.diag(rng.random(dim)))
        populated = data.draw(hst.sets(hst.integers(0, ham.n_levels - 1), min_size=1))
        st = level_subset_state(ham, rng, populated)
        dist = _fast_distribution(ham, st, p)
        assert _read_levels(st).size == len(populated)
        assert np.sum(np.abs(dist - column_distribution(ham, st, p))) <= 1e-14
        assert abs(dist.sum() - 1.0) <= 1e-14

    def test_large_register_matches_column_oracle(self, rng):
        ham = normalize_spectrum(np.diag([0.0, 0.4, 1.0]))
        st = decompose_state(random_state(rng, 3), ham)
        p = plan(64.0, 1e-4, n_override=10 ** 5)
        dist = _fast_distribution(ham, st, p)
        assert np.sum(np.abs(dist - column_distribution(ham, st, p))) <= 1e-14
        assert abs(dist.sum() - 1.0) <= 1e-14

    def test_fast_call_leaves_numpy_fft_unloaded(self):
        # the readout sums the ledger's DFT in closed form; numpy.fft, about
        # 1 ms of a cold call, is not imported
        code = ("import contextlib, io, sys\n"
                "from lindbladff.cli import run\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    rc = run(['qpe', '--route', 'fast', '--ham', {H2Q!r}, '--t', '4',"
                " '--N', '64'])\n"
                "print(rc, 'numpy.fft' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(qpe.__file__)))
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert done.stdout.split() == ["0", "False"], done.stderr

    def test_period_past_the_pi_split_is_refused(self):
        # classes |k| <= P / 2 must stay below 2^23 for the Dirichlet term's exact pi split
        p = plan_at(2 ** 24, False)._replace(dprime=24)
        with pytest.raises(ValidationError, match="period of at most 2"):
            residue_spectrum(p, np.zeros(1), np.ones(1))

    @pytest.mark.parametrize("make, levels", [
        (lambda: plan(1.0, 0.5, 16), 6),
        (lambda: plan_at(7, True), 6),
        (lambda: plan_at(33, False), 6),
        (lambda: plan_at(1001, True), 6),
        (lambda: plan(3.0, 0.05, 4000), 6),
        (lambda: plan(16.0, 1e-9, 10 ** 5), 6),
        (lambda: plan(64.0, 1e-4, 10 ** 7), 6),
        (lambda: plan(3.0, 1e-9, 10 ** 9), 4),
        (lambda: plan(64.0, 1e-12, 3 * 10 ** 10), 3)],
        ids=["P8", "odd-full-P16", "odd-narrow-P8", "odd-full-P2048", "P256", "P4096",
             "P16384", "P2^18", "P2^21"])
    def test_closed_form_matches_dirichlet_sum_and_fft(self, rng, make, levels):
        # against the 40-digit Dirichlet sum at the same phase x = fl(B h), within
        # 8 ulp of the largest entry: the two-sum leaves s exact to about 2^-100
        # and sin, cos, two products, a quotient and the odd-N phase round once
        # each; and against the FFT of the bit-selected table within 16 ulp, its
        # d' + 1 phase factors and log2 P stages adding at most 4.7 ulp on these
        # plans.  Every level checks the classes where s = pi k + x cancels.
        p = make()
        h = np.r_[-1.0, 0.0, rng.uniform(-1.0, 1.0, levels - 2)]
        coef = residue_spectrum(p, h, np.ones(levels))
        ulp = np.spacing(np.max(np.abs(coef)))
        assert np.max(np.abs(coef - fft_readout(p, h, np.ones(levels)))) <= 16 * ulp
        half = p.period // 2
        classes = {0, 1, half - 1, half, half + 1, p.period - 1,
                   *rng.integers(0, p.period, 8).tolist()}
        for l, x in enumerate(ff_cost(p).hamiltonian_time * h):
            near = round(-x / math.pi)
            for k in classes | {(near + j) % p.period for j in range(-2, 3)}:
                assert abs(coef[k, l] - dirichlet_readout(p, x, k)) <= 8 * ulp, (k, l)

    @pytest.mark.parametrize("levels", (1, 3))
    def test_memory_is_per_level_rows(self, rng, levels):
        # L complex rows and one float distribution, 24 MiB for one level at N = 10^6
        n = 10 ** 6
        ham = normalize_spectrum(np.diag([0.0, 0.4, 1.0]))
        st = level_subset_state(ham, rng, range(levels))
        p = plan(64.0, 1e-4, n_override=n)
        tracemalloc.start()
        try:
            _fast_distribution(ham, st, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (16 * levels + 8) * (n + 1) + 4 * 2 ** 20, peak / 2 ** 20

    def test_coefficients_count_against_the_memory(self, monkeypatch):
        # a full window, P = 128 classes at N = 64: the memory, the bytes of the
        # (P, 2) complex coefficients alone, holds both levels' rows of 65 counts
        ham = normalize_spectrum(np.diag([0.0, 1.0]))
        p = plan(1.0, 1e-300, 64)
        assert (p.n, p.period) == (64, 128)
        monkeypatch.setattr(kernels.os, "sysconf",
                            {"SC_PAGE_SIZE": 16, "SC_PHYS_PAGES": 2 * p.period}.get)
        monkeypatch.setattr(qpe, "residue_spectrum", lambda *args: pytest.fail("built"))
        with pytest.raises(CapacityError, match="fast route needs"):
            _fast_distribution(ham, decompose_state(PLUS, ham), p)


class TestReadLevels:
    """An estimate reads the levels of weight above (4 dim 2^-53)^2; an exact
    eigenstate's other weights are rounding noise below it."""

    @settings(max_examples=30, deadline=None, database=None)
    @given(dim=hst.integers(2, 64), seed=hst.integers(0, 2 ** 32 - 1), d=hst.integers(1, 8),
           n=hst.integers(1, 4096), full=hst.booleans())
    def test_eigenstate_reads_its_level_alone(self, dim, seed, d, n, full):
        ham, st, k = random_eigenstate(np.random.default_rng(seed), dim)
        floor = (4 * dim * 2.0 ** -53) ** 2
        # the noise peaks at 0.31 of the floor in 3000 eigenstates at dims 2-8
        assert np.max(np.delete(st.weights, k)) <= floor / 2 < floor < st.weights[k]
        diag = normalize_spectrum(np.diag(ham.eigenvalues))
        alone = level_subset_state(diag, np.random.default_rng(seed), [k])
        t = min(4.0, float(n))
        p = plan_at(n, full, t)
        for route, readout in (("standard",
                                lambda h, s: estimate(h, s, standard_channel(d)).distribution),
                               ("slow",
                                lambda h, s: estimate(h, s, slow_channel(t, n)).distribution),
                               ("fast", lambda h, s: _fast_distribution(h, s, p))):
            got, want = readout(ham, st), readout(diag, alone)
            assert np.sum(np.abs(got - want)) <= 1e-14, route

    def test_eigenstate_memory_is_one_level_rows(self):
        # one complex row of N + 1 counts and the distribution, not one row per level
        n = 10 ** 5
        ham, st, _ = random_eigenstate(np.random.default_rng(3), 8)
        p = plan(64.0, 1e-4, n_override=n)
        tracemalloc.start()
        try:
            _fast_distribution(ham, st, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2 * 16 + 8) * (n + 1), peak / 2 ** 20


# (seed, dim) of the generated spectra: three seeds for each dim 2-6
GENERATED = [(seed, dim) for dim in range(2, 7) for seed in range(3 * dim, 3 * dim + 3)]


def generated_spectrum(seed, dim):
    """A normalized Hamiltonian and the generator that drew it.

    The spectra cycle through distinct random eigenvalues, exact repeats
    (eigenvalues 2k and 2k + 1 equal, the last one single) and a pair 100
    cluster tolerances apart."""
    rng = np.random.default_rng(seed)
    eigs = rng.random(dim)
    if seed % 3 == 1:
        eigs[1:dim - 1:2] = eigs[0:dim - 2:2]
    elif seed % 3 == 2:
        eigs[1] = eigs[0] + 1e-7
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return normalize_spectrum((q * eigs) @ q.conj().T), rng


def generated_preparation(seed, dim):
    """A generated Hamiltonian on its gaps to a random target, stretched to
    unit radius as ``prepare`` stretches them, and a random state."""
    ham0, rng = generated_spectrum(seed, dim)
    beta = int(rng.integers(ham0.n_levels))
    ham = unit_gaps(ham0, beta)
    return ham, decompose_state(random_state(rng, dim), ham), beta


def normalized_filter(state, f):
    """sum_l c_l f_l comps_l over its norm, and that norm squared."""
    vec = (state.coeffs * f) @ state.components
    p0 = float(np.vdot(vec, vec).real)
    return vec / math.sqrt(p0), p0


class TestPreparationRelations:
    """Each route scales eigencomponent l by one filter number f_l: the
    post-selection probability is sum_l w_l |f_l|^2, the state is the
    normalized filtered components, and the overlap clears the route's bound."""

    CASES = GENERATED

    @staticmethod
    def check(prep, state, beta, f, slack):
        assert prep.overlap >= prep.overlap_bound - slack
        assert math.isfinite(prep.overlap_bound) and prep.overlap_bound >= 0.0
        vec, p0 = normalized_filter(state, f)
        assert abs(prep.postselect_probability - p0) <= 1e-12 * p0
        assert abs(prep.postselect_probability - np.sum(state.weights * np.abs(f) ** 2)) <= 1e-12 * p0
        assert np.max(np.abs(prep.state - vec)) <= 1e-12
        assert abs(prep.overlap - state.weights[beta] * abs(f[beta]) ** 2 / p0) <= 1e-12

    @pytest.mark.parametrize("scale", (1.0, 0.5))
    @pytest.mark.parametrize("seed,dim", CASES)
    def test_standard(self, seed, dim, scale):
        # at either scale the gaps are stretched back to +-1 and halved into
        # [-1/2, 1/2] before filtering
        ham, st, beta = generated_preparation(seed, dim)
        ham = ham._replace(eigenvalues=scale * ham.eigenvalues)
        f = standard_filter(0.5 / scale * ham.eigenvalues, 5)
        self.check(prepare(ham, st, beta, standard_channel(5)), st, beta, f, 1e-10)

    @pytest.mark.parametrize("seed,dim", CASES)
    def test_slow(self, seed, dim):
        ham, st, beta = generated_preparation(seed, dim)
        t, n = 16.0, 1000
        f = np.cos(math.sqrt(t / n) * ham.eigenvalues) ** n
        kernel = dilated_kernel(t, n, ham.eigenvalues, np.zeros(1))[:, 0]
        assert np.max(np.abs(kernel - f)) <= 1e-12
        self.check(prepare(ham, st, beta, slow_channel(t, n)), st, beta, kernel, 1.0 / n + 1e-10)

    @pytest.mark.parametrize("n", (2, 64, 512, 4096))
    @pytest.mark.parametrize("seed,dim", CASES)
    def test_fast_is_readout_row_zero(self, seed, dim, n):
        ham, st, beta = generated_preparation(seed, dim)
        t = min(4.0, float(n))
        p = plan(t, 1e-3, n_override=n)
        prep = prepare(ham, st, beta, fast_channel(t, 1e-3, n))
        row0 = transformed_rows(ham, st, p)[0]
        p0 = float(np.vdot(row0, row0).real)
        assert np.max(np.abs(prep.state - row0 / math.sqrt(p0))) <= 1e-12
        self.check(prep, st, beta, gap_kernel(p, ham.eigenvalues, np.zeros(1))[:, 0], 1e-9)

    @pytest.mark.parametrize("target", ("random", "top", "clustered"))
    @pytest.mark.parametrize("route", sorted(PREPARERS))
    @pytest.mark.parametrize("seed,dim", CASES)
    def test_unshifted(self, seed, dim, route, target):
        # the spectrum as normalized, in [0, 1]: every route filters the gaps
        # g = h - h_beta stretched to unit radius, and the standard route halves them
        ham, rng = generated_spectrum(seed, dim)
        st = decompose_state(random_state(rng, dim), ham)
        h = ham.eigenvalues
        beta = {"random": int(rng.integers(ham.n_levels)), "top": ham.n_levels - 1,
                "clustered": int(np.argmin(np.diff(h)))}[target]
        g = (h - h[beta]) / np.max(np.abs(h - h[beta]))
        f, slack = {
            "standard": lambda: (standard_filter(0.5 * g, 5), 1e-10),
            "slow": lambda: (np.cos(math.sqrt(16.0 / 1000) * g) ** 1000, 1.0 / 1000 + 1e-10),
            "fast": lambda: (gap_kernel(plan(4.0, 1e-3, n_override=64), g, np.zeros(1))[:, 0], 1e-9),
        }[route]()
        self.check(PREPARERS[route](ham, st, beta), st, beta, f, slack)

    @pytest.mark.parametrize("a, b", ((3.0, -1.25), (0.125, 0.5)))
    @pytest.mark.parametrize("route", sorted(PREPARERS))
    @pytest.mark.parametrize("seed,dim", CASES)
    def test_prepare_reads_gaps_in_any_units(self, seed, dim, route, a, b):
        # every route reads the target's gaps stretched to unit radius, so a
        # spectrum a h + b (a > 0) prepares what h prepares, up to rounding
        ham, rng = generated_spectrum(seed, dim)
        st = decompose_state(random_state(rng, dim), ham)
        beta = int(rng.integers(ham.n_levels))
        want = PREPARERS[route](ham, st, beta)
        got = PREPARERS[route](ham._replace(eigenvalues=a * ham.eigenvalues + b), st, beta)
        assert np.max(np.abs(got.state - want.state)) <= 1e-12
        for field in ("postselect_probability", "overlap", "expected_repeats",
                      "ideal_amplification_queries", "overlap_bound"):
            assert abs(getattr(got, field) - getattr(want, field)) <= 1e-12, field
        assert got.cost == want.cost


ESTIMATORS = {
    "standard": lambda ham, st: estimate(ham, st, standard_channel(6)),
    "slow": lambda ham, st: estimate(ham, st, slow_channel(16.0, 1000)),
    "fast64": lambda ham, st: estimate(ham, st, fast_channel(4.0, 1e-3, 64)),
    "fast4096": lambda ham, st: estimate(ham, st, fast_channel(4.0, 1e-3, 4096)),
}


@pytest.mark.parametrize("route", sorted(ESTIMATORS))
@pytest.mark.parametrize("seed,dim", GENERATED)
def test_generated_distribution_sums_to_one(seed, dim, route):
    # the unshifted spectra: repeats, a near-cluster pair, random states
    ham, rng = generated_spectrum(seed, dim)
    res = ESTIMATORS[route](ham, decompose_state(random_state(rng, dim), ham))
    assert abs(res.distribution.sum() - 1.0) <= 1e-12


def windowed_mixture(n, weights, qs):
    """Slow-route count distribution: weighted binomial windows on [0, N]."""
    return _counting_distribution(np.asarray(weights, dtype=float), np.asarray(qs), n)


class TestSupportSampler:
    @settings(max_examples=200, deadline=None, database=None)
    @given(n=hst.integers(1, 20001),
           weights=hst.lists(hst.sampled_from([0.0, 1e-3, 0.2, 0.5, 1.0]), min_size=1, max_size=4),
           qs=hst.lists(hst.floats(0.0, 1.0), min_size=4, max_size=4),
           k=hst.integers(1, 40), seed=hst.integers(0, 2 ** 63))
    def test_draws_equal_generator_choice(self, n, weights, qs, k, seed):
        weights[0] = weights[0] or 1.0
        dist = windowed_mixture(n, weights, qs[:len(weights)])
        want = np.random.default_rng(seed).choice(dist.size, p=dist / dist.sum(), size=k)
        got = _sample_counts(dist, seed, k)
        assert np.array_equal(got, want)
        assert qpe._pick_outcome(dist, "sample", seed, k) == int(np.median(want))

    @pytest.mark.parametrize("mode", ("exact", "sample"))
    def test_repeats_below_one_rejected(self, mode):
        with pytest.raises(ValidationError, match="repeats must be an integer >= 1, got -2"):
            qpe._pick_outcome(np.array([0.5, 0.5]), mode, 0, -2)

    def test_blocks_draw_what_one_block_draws(self, monkeypatch):
        # the carried cumulative sum across 7-outcome blocks, zeros included
        dist = windowed_mixture(300, [1.0, 0.2], [0.3, 0.8])
        dist[100:200] = 0.0
        whole = [_sample_counts(dist, seed, 25) for seed in range(20)]
        monkeypatch.setattr(qpe, "_SAMPLE_BLOCK", 7)
        for seed in range(20):
            assert np.array_equal(_sample_counts(dist, seed, 25), whole[seed])

    @pytest.mark.parametrize("d", (12, 18))
    def test_standard_picks_equal_support_choice(self, d):
        # the earlier sampler: Generator.choice over the support only
        ham = normalize_spectrum(np.diag([0.0, 0.3, 0.71, 1.0]))
        st = decompose_state(np.array([0.6, 0.5, 0.5, math.sqrt(0.14)]), ham)
        dist = estimate(ham, st, standard_channel(d)).distribution
        assert dist.size > qpe._SAMPLE_BLOCK or d == 12
        support = np.flatnonzero(dist)
        p = dist[support] / dist.sum()
        for seed in range(20):
            want = np.random.default_rng(seed).choice(support, p=p, size=15)
            assert np.array_equal(_sample_counts(dist, seed, 15), want), seed

    @pytest.mark.parametrize("bad", (np.nan, -1e-3, np.inf))
    def test_rejects_invalid_entry(self, bad):
        dist = windowed_mixture(64, [1.0], [0.3])
        dist[3] = bad
        with pytest.raises(InvariantError):
            qpe._pick_outcome(dist, "sample", 1)

    def test_rejects_all_zero(self):
        with pytest.raises(InvariantError):
            qpe._pick_outcome(np.zeros(17), "sample", 1)

    def test_exact_mode_is_argmax(self):
        dist = windowed_mixture(101, [0.3, 0.7], [0.2, 0.6])
        assert qpe._pick_outcome(dist, "exact", None) == int(np.argmax(dist))


def dense_standard_distribution(ham, state, d):
    """Standard-route distribution from the whole (levels x 2^d) phase grid."""
    ys = np.arange(1 << d)
    theta = ham.eigenvalues[:, None] - ys[None, :] / (1 << d)
    tw = theta - np.round(theta)
    big = np.sin(np.pi * tw * (1 << d))
    safe = np.where(tw == 0.0, 1.0, np.sin(np.pi * tw))
    ratio = np.where(tw == 0.0, float(4 ** d), (big / safe) ** 2)
    return (state.weights[:, None] * ratio).sum(axis=0) / 4 ** d


class TestStandardLevels:
    @settings(max_examples=150, deadline=None, database=None)
    @given(d=hst.integers(1, 12), seed=hst.integers(0, 2 ** 32 - 1),
           phases=hst.lists(hst.one_of(hst.floats(0.0, 1.0), hst.integers(0, 4096)),
                            min_size=1, max_size=6),
           zero=hst.lists(hst.booleans(), min_size=6, max_size=6))
    def test_bit_identical_to_dense_grid(self, d, seed, phases, zero):
        rng = np.random.default_rng(seed)
        eigs = [h / 4096.0 if isinstance(h, int) else h for h in phases]
        ham = normalize_spectrum(np.diag(eigs))
        amps = rng.normal(size=len(eigs)) + 1j * rng.normal(size=len(eigs))
        amps[np.array(zero[:len(eigs)])] = 0.0
        if not np.any(amps):
            amps[0] = 1.0
        st = decompose_state(amps / np.linalg.norm(amps), ham)
        got = estimate(ham, st, standard_channel(d)).distribution
        assert got.tobytes() == dense_standard_distribution(ham, st, d).tobytes()

    @pytest.mark.parametrize("d", (15, 16, 18))
    def test_blocks_bit_identical_to_dense_grid(self, rng, d):
        # 2, 4 and 16 blocks of outcomes; one phase sits exactly on the grid
        ham = normalize_spectrum(np.diag([0.0, 3.0 / 8.0, 0.3, 0.71, 1.0]))
        st = decompose_state(random_state(rng, 5), ham)
        got = estimate(ham, st, standard_channel(d)).distribution
        assert got.size == 1 << d > qpe._STANDARD_BLOCK
        assert got.tobytes() == dense_standard_distribution(ham, st, d).tobytes()

    @pytest.mark.parametrize("block", (1, 7, 100, 256))
    def test_shrunk_blocks_bit_identical_to_one_block(self, monkeypatch, rng, block):
        # each outcome sums the same levels in the same order in any block,
        # including blocks of 7 and 100 that divide no register of 2^9 outcomes
        ham = normalize_spectrum(np.diag([0.0, 3.0 / 8.0, 0.3, 0.71, 1.0]))
        st = decompose_state(random_state(rng, 5), ham)
        one = estimate(ham, st, standard_channel(9)).distribution
        monkeypatch.setattr(qpe, "_STANDARD_BLOCK", block)
        assert estimate(ham, st, standard_channel(9)).distribution.tobytes() == one.tobytes()


# Peak RSS of one route call in a fresh process, against a bare import.  The
# peak is the new image's VmHWM: ru_maxrss survives exec and would report the
# spawning pytest process's own peak instead.
_RSS_PROBE = """
import sys
import numpy as np
import lindbladff
if sys.argv[1] != "import":
    from lindbladff import decompose_state, estimate, normalize_spectrum
    from lindbladff.channel import channel
    rng = np.random.default_rng(3)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    ham = normalize_spectrum(a + a.conj().T)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = decompose_state(v / np.linalg.norm(v), ham)
    if sys.argv[1] == "slow":
        estimate(ham, state, channel("dilated", 1024.0, None, n=10 ** 7),
                 mode="sample", seed=5, repeats=15)
    elif sys.argv[1] == "standard22":
        estimate(ham, state, channel("standard", None, None, n=22))
    elif sys.argv[1] == "standard22-sample":
        estimate(ham, state, channel("standard", None, None, n=22), mode="sample", seed=5,
                 repeats=15)
    else:
        estimate(ham, state, channel("standard", None, None, n=18))
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def _max_rss_kib(what):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _RSS_PROBE, what], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    return int(out.stdout.split()[-1])


class TestRouteMemory:
    @pytest.mark.parametrize("route", ("slow", "standard", "standard22", "standard22-sample"))
    def test_route_stays_near_import_baseline(self, route):
        # a register-sized float array is 76 MiB for the slow route at N = 10^7;
        # at d = 22 the standard route's distribution alone is 32 MiB, and
        # sampling from it adds only block-sized scratch
        bound_mib = 48 if route.startswith("standard22") else 32
        extra = _max_rss_kib(route) - _max_rss_kib("import")
        assert extra <= bound_mib * 1024, extra / 1024
