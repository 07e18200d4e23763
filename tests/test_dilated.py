import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from lindbladff import ValidationError, default_steps, evolve, normalize_spectrum
from lindbladff.channel import channel
from lindbladff.dilated import dilated_kernel, step_root
from lindbladff import numkernel as nk

from conftest import dilate, dilated_step, random_density

PLUS_RHO = np.full((2, 2), 0.5, dtype=complex)
F = np.diag([0.0, 1.0]).astype(complex)
F_HAM = normalize_spectrum(F)  # F already has its spectrum in [0, 1]


def test_zero_jump_is_identity():
    rho = random_density(np.random.default_rng(1), 2)
    assert np.allclose(dilated_step(np.zeros((2, 2)), rho, 0.1), rho)


def test_short_time_generator_limit():
    # (step(rho) - rho) / tau approaches the dissipator with O(tau) error
    rng = np.random.default_rng(2)
    rho = random_density(rng, 2)
    lind = F @ rho @ F - 0.5 * (F @ F @ rho + rho @ F @ F)
    errs = []
    for tau in (1e-3, 5e-4, 2.5e-4):
        diff = (dilated_step(F, rho, tau) - rho) / tau
        errs.append(np.max(np.abs(diff - lind)))
    assert errs[0] <= 0.01
    assert errs[2] <= errs[0] / 2  # first order in tau


def test_single_step_cosine_damping():
    # frozen via a direct 4x4 computation: off-diagonal picks up cos(sqrt(tau))
    out = dilated_step(F, PLUS_RHO, 0.01)
    direct = _direct_step(F, PLUS_RHO, 0.01)
    assert np.max(np.abs(out - direct)) <= 1e-14
    assert np.isclose(out[0, 1].real, 0.5 * np.cos(0.1), atol=1e-12)
    assert np.isclose(out[0, 1].real / 0.5, 0.99500, atol=5e-6)


def _direct_step(f, rho, tau):
    u = expm(-1j * dilate(f) * np.sqrt(tau))
    joint = np.zeros((4, 4), dtype=complex)
    joint[:2, :2] = rho
    joint = u @ joint @ u.conj().T
    return joint[:2, :2] + joint[2:, 2:]


def test_step_output_is_density():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rho = random_density(rng, 2)
        out = dilated_step(F, rho, float(rng.uniform(0.001, 0.5)))
        assert abs(np.trace(out).real - 1.0) <= 1e-13
        assert np.linalg.eigvalsh(out)[0] >= -1e-10


def test_evolution_approaches_exact():
    exact = evolve(F_HAM, PLUS_RHO, channel("exact", 1.0, None))[0]
    out, cost = evolve(F_HAM, PLUS_RHO, channel("dilated", 1.0, None, 100))
    assert abs(out[0, 1].real - 0.5 * np.exp(-0.5)) <= 0.01
    assert np.isclose(out[0, 1].real, exact[0, 1].real, atol=0.01)
    assert cost.step_count == 100 and cost.ancilla_count == 100


def test_first_order_convergence_slope():
    exact = evolve(F_HAM, PLUS_RHO, channel("exact", 1.0, None))[0]
    steps = np.array([50, 100, 200, 400])
    errs = [nk.trace_distance(evolve(F_HAM, PLUS_RHO, channel("dilated", 1.0, None, int(s)))[0],
                              exact) for s in steps]
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert abs(slope + 1.0) <= 0.15


def test_doubling_steps_halves_error():
    exact = evolve(F_HAM, PLUS_RHO, channel("exact", 1.0, None))[0]
    e1 = nk.trace_distance(evolve(F_HAM, PLUS_RHO, channel("dilated", 1.0, None, 100))[0], exact)
    e2 = nk.trace_distance(evolve(F_HAM, PLUS_RHO, channel("dilated", 1.0, None, 200))[0], exact)
    assert 0.35 <= e2 / e1 <= 0.65


def test_cost_law_exact():
    _, cost = evolve(F_HAM, PLUS_RHO, channel("dilated", 2.0, None, 8))
    assert cost.hamiltonian_time == 8 * np.sqrt(2.0 / 8)
    assert np.isclose(cost.hamiltonian_time, np.sqrt(8 * 2.0))


def test_default_steps_rule():
    assert default_steps(2.0, 0.1) == int(np.ceil(8 / 0.01))
    assert default_steps(0.5, 0.5) == 1


def test_closed_form_matches_literal_composition():
    # normalized gaps up to 1 with sqrt(tau) = 2 put sqrt(tau)|gap| = 2 > pi/2,
    # where cos(x) < 0 and odd step counts flip the sign
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    ham = normalize_spectrum((q * np.array([-3.0, -1.0, 0.5, 3.0])) @ q.conj().T)
    rho = random_density(rng, 4)
    tau = 4.0
    literal, done = rho, 0
    for steps in (1, 7, 100, 500):
        while done < steps:
            literal = dilated_step(ham.matrix, literal, tau)
            done += 1
        closed, _ = evolve(ham, rho, channel("dilated", steps * tau, None, steps))
        assert np.max(np.abs(closed - literal)) <= 1e-12


def test_closed_form_accurate_at_huge_step_counts():
    # ln cos(x)^N = -t/2 - t^2/(12 N) - O(t^3/N^2) at x = sqrt(t/N); plain
    # cos(x)**N loses ~1e-7 here because cos(x) rounds next to 1
    n, t = 2_621_440_000, 64.0
    out, _ = evolve(F_HAM, PLUS_RHO, channel("dilated", t, None, n))
    log_k = np.log(2.0 * abs(out[0, 1]))
    assert abs(log_k + t / 2 + t ** 2 / (12 * n)) <= 1e-12


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_few_steps_accurate_where_cos_vanishes(steps):
    # 1 - sin^2 x loses a small cos x (the one-step kernel read 7.45e-9 for
    # 7.85e-9 at t = 2.4674010509243174 and gap 1), and at few steps the power
    # does not damp the loss; against 40-digit mpmath on the kernel's own
    # argument x, near pi/2 and 3pi/2 (where cos x changes sign): measured 1.9 ulp
    t = steps * (math.pi / 2) ** 2
    offsets = np.logspace(-16, -0.5, 32)
    gaps = np.concatenate([c + s * offsets for c in (1.0, 3.0) for s in (-1.0, 1.0)])
    got = dilated_kernel(t, steps, gaps, np.zeros(1))[:, 0]
    x = step_root(t, steps) * gaps
    with mpmath.workdps(40):
        want = np.array([float(mpmath.cos(mpmath.mpf(v)) ** steps) for v in x.tolist()])
    assert np.all(np.abs(got - want) <= 8 * 2.0 ** -52 * np.abs(want))


def test_validation():
    with pytest.raises(ValidationError):
        evolve(F_HAM, PLUS_RHO, channel("dilated", 1.0, None, 0))
    with pytest.raises(ValidationError):
        dilated_step(F, PLUS_RHO, 0.0)
    with pytest.raises(ValidationError):
        dilated_step(F, np.eye(3) / 3, 0.1)


def test_one_eigendecomposition(monkeypatch):
    # normalize_spectrum decomposes the jump once; evolve reuses it
    calls = []
    herm_eig = nk.herm_eig

    def counted(a, *args):
        calls.append(a.shape)
        return herm_eig(a, *args)

    monkeypatch.setattr(nk, "herm_eig", counted)
    rng = np.random.default_rng(5)
    ham = normalize_spectrum(random_density(rng, 6))
    assert calls == [(6, 6)]
    rho = random_density(rng, 6)
    out, _ = evolve(ham, rho, channel("dilated", 2.0, None, 9))
    assert calls == [(6, 6)]
    # cos(x)^N against exp(-N x^2 / 2) differs by at most t tau / 12 < 0.04 in the log
    assert np.max(np.abs(out - evolve(ham, rho, channel("exact", 2.0, None))[0])) <= 0.05
