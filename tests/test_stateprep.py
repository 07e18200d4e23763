import math
import os
import signal
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from lindbladff import (GaussianParams, ValidationError, binomial_amplitudes,
                        binomial_gaussian_distance, discrete_gaussian_amplitudes,
                        f_mu_sigma, kw_angle_schedule)
from lindbladff import stateprep

from oracles import dml_gap, kw_synthesize, per_node_angle_schedule


class TestBinomialAmplitudes:
    def test_n2(self):
        assert np.allclose(binomial_amplitudes(2), [0.5, 1 / np.sqrt(2), 0.5])

    def test_n1(self):
        assert np.allclose(binomial_amplitudes(1), [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_large_n_survives_overflow_range(self):
        a = binomial_amplitudes(1000)
        assert abs(np.linalg.norm(a) - 1.0) <= 1e-10

    def test_unit_norm_grid(self):
        for n in (4, 17, 64, 513, 4096):
            assert abs(np.linalg.norm(binomial_amplitudes(n)) - 1.0) <= 1e-10

    @pytest.mark.parametrize("n", (1, 2, 36, 1001, 10 ** 5, 10 ** 6, 10 ** 7))
    def test_matches_pmf_window_route(self, n):
        # the pmf-window amplitudes against 40-digit sqrt(C(n, m) / 2^n) from
        # mpmath, at m = n/2 + k sigma out to ten standard deviations
        a = binomial_amplitudes(n)
        assert abs(np.linalg.norm(a) - 1.0) <= 1e-14
        with mpmath.workdps(40):
            for k in (0, 1, 3, 6, 10):
                m = min(n, n // 2 + round(k * math.sqrt(n) / 2.0))
                want = mpmath.sqrt(mpmath.binomial(n, m) / mpmath.mpf(2) ** n)
                assert float(abs(a[m] - want) / want) <= 1e-13


class TestThetaNormalizer:
    def test_wide_sigma_value(self):
        # correction terms are ~e^{-79}; frozen from direct evaluation
        assert np.isclose(f_mu_sigma(8.0, 2.0), 5.013256549262001, atol=1e-9)
        assert np.isclose(f_mu_sigma(8.0, 2.0), 5.01326, atol=1e-5)

    def test_approaches_plain_gaussian_normalizer(self):
        for sigma in (2.0, 4.0, 8.0):
            assert abs(f_mu_sigma(3.3, sigma) - math.sqrt(2 * math.pi * sigma ** 2)) \
                <= 2 * math.exp(-2 * math.pi ** 2 * sigma ** 2) * math.sqrt(2 * math.pi * sigma ** 2) * 1.01

    def test_narrow_sigma_matches_lattice_sum(self):
        # brute-force lattice sum as the oracle
        mu, sigma = 0.0, 0.1
        brute = sum(math.exp(-((k - mu) ** 2) / (2 * sigma ** 2)) for k in range(-50, 51))
        assert np.isclose(f_mu_sigma(mu, sigma), brute, rtol=1e-12)

    @pytest.mark.parametrize("sigma", (0.05, 0.3, 0.999, 1.0, 1.2, 4.0))
    def test_array_of_centres_is_each_centre_alone(self, rng, sigma):
        # a centre's sum does not depend on the others (their site counts differ)
        mus = rng.uniform(-50.0, 50.0, size=200)
        got = f_mu_sigma(mus, sigma)
        assert got.tobytes() == np.array([f_mu_sigma(float(mu), sigma) for mu in mus]).tobytes()
        assert isinstance(f_mu_sigma(float(mus[0]), sigma), float)

    @pytest.mark.parametrize("block", (1, 7, 64))
    def test_shrunk_blocks_bit_identical_to_one_block(self, monkeypatch, rng, block):
        # a centre's row is summed alone, so blocks of any size (7 and 64
        # divide no 500 centres) give the one-block sums bit for bit
        mus = rng.uniform(-50.0, 50.0, size=500)
        one = f_mu_sigma(mus, 0.3)
        monkeypatch.setattr(stateprep, "_SUM_BLOCK", block)
        assert f_mu_sigma(mus, 0.3).tobytes() == one.tobytes()

    def test_angles_call_leaves_numpy_ma_unloaded(self):
        # np.unique loads numpy.ma on its first call, which made a cold
        # ``stateprep --what angles`` several times slower than a warm one;
        # the lattice sum's site counts need nothing past numpy's core
        code = ("import contextlib, io, sys\n"
                "from lindbladff.cli import run\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    rc = run(['stateprep', '--what', 'angles', '--N', '64'])\n"
                "print(rc, 'numpy.ma' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(stateprep.__file__)))
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert done.stdout.split() == ["0", "False"], done.stderr

    @pytest.mark.parametrize("sigma", (0.7, 1.05, 3.0))
    @pytest.mark.parametrize("mu", (1e15 + 0.25, 1e16, 1e17, 1e308, -1e16))
    def test_far_centre_is_its_remainder(self, mu, sigma):
        # f is 1-periodic in mu; far from 0 the sites once rounded to the float
        # spacing of mu (f(1e17, 0.7) read 1.0) and the theta series went NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert f_mu_sigma(mu, sigma) == f_mu_sigma(math.fmod(mu, 1.0), sigma)

    def test_lattice_sum_identity_random_params(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            mu = float(rng.uniform(-3, 10))
            sigma = float(rng.uniform(0.3, 3.0))
            brute = sum(math.exp(-((k - mu) ** 2) / (2 * sigma ** 2))
                        for k in range(int(mu - 40 * sigma) - 2, int(mu + 40 * sigma) + 3))
            assert np.isclose(f_mu_sigma(mu, sigma), brute, rtol=1e-11)


class TestDiscreteGaussian:
    def test_reflection_symmetry(self):
        xi = discrete_gaussian_amplitudes(GaussianParams(8.0, 2.0, 16))
        for m in range(1, 16):
            assert abs(xi[m] - xi[16 - m]) <= 1e-12

    def test_peak_value(self):
        # peak amplitude sqrt(1 / f(8, 2)), wraparound images ~e^{-32}
        xi = discrete_gaussian_amplitudes(GaussianParams(8.0, 2.0, 16))
        assert np.isclose(xi[8], math.sqrt(1.0 / f_mu_sigma(8.0, 2.0)), atol=1e-6)

    def test_unit_norm_grid(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(4, 200))
            params = GaussianParams(float(rng.uniform(0, n)), float(rng.uniform(0.5, n / 3)), n)
            xi = discrete_gaussian_amplitudes(params)
            assert abs(np.linalg.norm(xi) - 1.0) <= 1e-10

    @pytest.mark.parametrize("n, sigma", ((4, 0.7), (64, 3.0)))
    def test_centre_far_from_zero_is_read_modulo_the_period(self, n, sigma):
        # the amplitudes and their angles are N-periodic in mu; a dyadic mu
        # keeps mu + kN exact up to k = 2^40.  Read as given, a far centre lost
        # each address's position against it: at N = 4, mu = 1e17 every
        # amplitude read sqrt(3), and at mu = 1e308 the schedule was refused
        base = discrete_gaussian_amplitudes(GaussianParams(1.25, sigma, n))
        for k in (-3, 1, 7, 2 ** 20, 2 ** 40):
            shifted = discrete_gaussian_amplitudes(GaussianParams(1.25 + k * n, sigma, n))
            assert np.max(np.abs(shifted - base)) <= 1e-12, k
        for mu in (1e16, 1e17, 1e308):
            params = GaussianParams(mu, sigma, n)
            xi = discrete_gaussian_amplitudes(params)
            assert abs(np.linalg.norm(xi) - 1.0) <= 1e-12, mu
            assert np.linalg.norm(kw_synthesize(kw_angle_schedule(params)) - xi) <= 1e-8, mu

    @pytest.mark.parametrize("sigma", (1e10, 1e150))
    def test_wide_sigma_takes_no_image_loop(self, sigma):
        # sigma = 1e10 spans ~10^10 images of N = 16; they are read in closed
        # form, where summing them one by one never ended
        def too_slow(signum, frame):
            raise TimeoutError("wide-sigma amplitudes took over 5 s")
        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(5)
        try:
            xi = discrete_gaussian_amplitudes(GaussianParams(8.5, sigma, 16))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert xi.shape == (16,) and np.max(np.abs(xi - 0.25)) <= 1e-15

    def test_wide_sigma_matches_the_theta_reference(self):
        # sigma / N in [1, 50] against 40-digit image sums in their dual theta
        # form (terms l <= 5 reach far below 40 digits at sigma / N >= 1):
        # 7.8e-17 worst over 200 draws, where summing the images erred 3.7e-16
        def theta(x, s):
            return mpmath.sqrt(2 * mpmath.pi) * s * (1 + 2 * sum(
                mpmath.exp(-2 * (mpmath.pi * l * s) ** 2) * mpmath.cos(2 * mpmath.pi * l * x)
                for l in range(1, 6)))
        rng = np.random.default_rng(11)
        with mpmath.workdps(40):
            for _ in range(40):
                n = int(rng.integers(2, 65))
                mu, sigma = float(rng.uniform(-3 * n, 4 * n)), float(rng.uniform(1, 50)) * n
                xi = discrete_gaussian_amplitudes(GaussianParams(mu, sigma, n))
                f = theta(mpmath.mpf(mu), mpmath.mpf(sigma))
                for m in range(n):
                    want = mpmath.sqrt(theta((mpmath.mpf(mu) - m) / n, mpmath.mpf(sigma) / n) / f)
                    assert abs(float(xi[m] - want)) <= 1.1e-16, (n, mu, sigma, m)

    def test_zero_lattice_sum_is_refused(self):
        # f(8.5, 1e-3) = e^{-125000} underflows to 0, where the amplitudes
        # read 0/0 and no angle schedule is defined
        with pytest.raises(ValidationError, match="underflows to 0"):
            discrete_gaussian_amplitudes(GaussianParams(8.5, 1e-3, 16))


class TestSigmaRule:
    @pytest.mark.parametrize("sigma", (0.0, -1.0, math.nan, math.inf, 1e-170, 1.2e154,
                                       1e200, 1e300, None))
    def test_one_rule_one_message(self, sigma):
        # 2 pi sigma^2 must be positive and finite: past 1.34e154 sigma^2
        # overflowed in an OverflowError, and from 5.35e153 the theta
        # normalizer read inf
        messages = []
        for build in (lambda: GaussianParams(8.0, sigma, 16), lambda: f_mu_sigma(8.0, sigma)):
            with pytest.raises(ValidationError) as caught:
                build()
            messages.append(str(caught.value))
        assert messages[0] == messages[1] and "0 < 2 pi sigma^2 < inf" in messages[0]

    @pytest.mark.parametrize("mu", (math.nan, math.inf, None))
    def test_centre_must_be_finite(self, mu):
        # None once raised a TypeError from math.isfinite
        with pytest.raises(ValidationError) as caught:
            GaussianParams(mu, 2.0, 16)
        assert str(caught.value) == f"mu must be finite, got {mu}"

    def test_narrowest_width_inside_the_rule_runs(self):
        xi = discrete_gaussian_amplitudes(GaussianParams(8.0, 1e-150, 16))
        assert xi.tobytes() == np.eye(16)[8].tobytes()


class TestAngleSchedule:
    def test_root_angle_quarter_pi(self):
        sched = kw_angle_schedule(GaussianParams(8.0, 2.0, 16))
        assert abs(sched[0][0] - math.pi / 4) <= 1e-6

    def test_depth_one_two_point_case(self):
        params = GaussianParams(1.0, 0.7, 2)
        sched = kw_angle_schedule(params)
        assert len(sched) == 1 and sched[0].size == 1
        assert np.allclose(kw_synthesize(sched), discrete_gaussian_amplitudes(params), atol=1e-10)

    def test_replay_matches_direct(self):
        for n in (8, 16, 32, 64):
            params = GaussianParams(n / 2.0, math.sqrt(n) / 2.0, n)
            sched = kw_angle_schedule(params)
            synth = kw_synthesize(sched)
            direct = discrete_gaussian_amplitudes(params)
            assert np.linalg.norm(synth - direct) <= 1e-8

    def test_replay_matches_direct_off_center(self):
        sched = kw_angle_schedule(GaussianParams(5.0, 1.5, 16))
        synth = kw_synthesize(sched)
        direct = discrete_gaussian_amplitudes(GaussianParams(5.0, 1.5, 16))
        assert np.linalg.norm(synth - direct) <= 1e-8

    def test_random_params_replay_without_refusal(self):
        # the recursion halves sigma below 1, where the dual theta series
        # cancels; these draws used to raise "branch ratio escapes [0, 1]"
        rng = np.random.default_rng(0)
        draws = [(17.31115276595823, 2.0661105421141164)]
        draws += [(float(rng.uniform(16, 48)), float(rng.uniform(2, 6))) for _ in range(100)]
        for mu, sigma in draws:
            params = GaussianParams(mu, sigma, 64)
            synth = kw_synthesize(kw_angle_schedule(params))
            assert np.linalg.norm(synth - discrete_gaussian_amplitudes(params)) <= 1e-8

    @pytest.mark.parametrize("n,mu,sigma", [(1024, 8.3, 2.0), (64, 20.3, 0.3)])
    def test_zero_mass_nodes_take_angle_zero(self, n, mu, sigma):
        # deep lattice sums underflow to 0 here; such a node carries no
        # amplitude, and 0/0 used to print nan angles (460 of 1023 at N = 1024)
        params = GaussianParams(mu, sigma, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sched = kw_angle_schedule(params)
        angles = np.concatenate(sched)
        assert angles.size == n - 1 and np.all(np.isfinite(angles))
        assert np.linalg.norm(kw_synthesize(sched) - discrete_gaussian_amplitudes(params)) <= 1e-8

    def test_replay_bound_over_a_grid_with_zero_mass_nodes(self):
        gaps = []
        for n in (64, 1024):
            for sigma in (0.3, 0.5, 2.0, 4.0, 16.0):
                for mu in (0.0, 0.5, 8.3, 100.7):
                    params = GaussianParams(mu, sigma, n)
                    synth = kw_synthesize(kw_angle_schedule(params))
                    gaps.append(np.linalg.norm(synth - discrete_gaussian_amplitudes(params)))
        assert np.all(np.array(gaps) <= 1e-9)  # a nan gap fails too

    def test_requires_power_of_two(self):
        with pytest.raises(ValidationError):
            kw_angle_schedule(GaussianParams(3.0, 1.0, 12))

    @settings(max_examples=200, deadline=None, database=None)
    @given(depth=hst.integers(1, 12), log_sigma=hst.floats(math.log(0.05), math.log(64.0)),
           mu=hst.floats(-100.0, 5000.0))
    @example(depth=6, log_sigma=math.log(4.0), mu=39.21)
    @example(depth=6, log_sigma=math.log(0.3), mu=20.3)
    @example(depth=10, log_sigma=math.log(2.0), mu=8.3)
    def test_levels_match_the_per_node_recursion(self, depth, log_sigma, mu):
        # one f_mu_sigma call per level against one scalar call per node
        params = GaussianParams(mu, math.exp(log_sigma), 1 << depth)
        got = kw_angle_schedule(params)
        want = per_node_angle_schedule(params)
        assert [a.shape for a in got] == [a.shape for a in want]
        assert max(float(np.max(np.abs(a - b))) for a, b in zip(got, want)) <= 1e-13


class TestBinomialGaussianDistance:
    def test_monotone_decrease(self):
        ds = [binomial_gaussian_distance(n) for n in (64, 256, 1024, 4096)]
        assert all(a > b for a, b in zip(ds, ds[1:]))

    def test_measured_slope(self):
        # frozen measurement: the distance decays ~1/N on this grid, faster
        # than the 1/sqrt(N) design bound
        ns = np.array([64, 256, 1024, 4096])
        ds = np.array([binomial_gaussian_distance(int(n)) for n in ns])
        slope = np.polyfit(np.log(ns), np.log(ds), 1)[0]
        assert abs(slope + 1.0) <= 0.15

    def test_sqrt_n_bound_holds(self):
        # distance * sqrt(N) stays bounded (and in fact decreases)
        vals = [binomial_gaussian_distance(n) * math.sqrt(n) for n in (64, 256, 1024, 4096)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[0] <= 1.0

    def test_demoivre_laplace_point_gap(self):
        # exact pmf C(20,10)/2^20 vs the matched Gaussian density at the mode
        pmf = 184756 / 2 ** 20
        pdf = 1.0 / math.sqrt(10 * math.pi)
        assert np.isclose(pmf, 0.176197, atol=5e-7)
        assert np.isclose(pdf, 0.178412, atol=5e-7)
        assert dml_gap(20, 0.5) >= abs(pmf - pdf) - 1e-12
        assert np.isclose(dml_gap(20, 0.5), abs(pmf - pdf), atol=1e-6)

    def test_dml_gap_times_n_bounded(self):
        vals = [dml_gap(n, 0.5) * n for n in (20, 40, 80, 160)]
        assert max(vals) <= vals[0] * 1.05  # no growth

    def test_requires_even(self):
        with pytest.raises(ValidationError):
            binomial_gaussian_distance(65)
