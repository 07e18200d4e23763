"""One rule per argument kind: every library entry point that takes an
evolution time, a target error, an integer count or a preparation target
refuses the same bad value with the same ``ValidationError`` message, the
one its rule in ``numkernel`` (or ``model.spectral_gap``) states."""

import contextlib
import io

import numpy as np
import pytest

from lindbladff import (GaussianParams, ValidationError, amplitude_problem, bernstein_bound,
                        binomial_amplitudes, binomial_gaussian_distance, binomial_tail,
                        choi_ff_evolve, decompose_state, default_steps,
                        discrete_gaussian_amplitudes, estimate, gibbs_prepare, hoeffding_bound,
                        kw_angle_schedule, lindblad_spec, normalize_spectrum, plan, prepare)
from lindbladff.channel import channel
from lindbladff.cli import run

from test_qpe import PREPARERS

HAM = normalize_spectrum(np.diag([0.0, 0.5, 1.0]).astype(complex))
STATE = decompose_state(np.full(3, 3 ** -0.5, dtype=complex), HAM)
SPEC = lindblad_spec([np.diag([0.0, 1.0]).astype(complex)])
RHO2 = np.eye(2, dtype=complex) / 2


def slow(t, n):
    return channel("dilated", t, None, n=n)


def fast(t, eps, n):
    return channel("ff", t, eps, n=n)


def standard(d):
    return channel("standard", None, None, n=d)

# Each entry point with the argument under test left open; a single-jump
# channel is keyed by its method, and estimate and prepare on the dilated, ff
# and standard channels by slow_qpe, fast_qpe and standard_qpe and their
# _eigenstate forms.
TIME = {
    "exact": lambda t: channel("exact", t, None),
    "dilated": lambda t: channel("dilated", t, None, 4),
    "dilated_default_steps": lambda t: channel("dilated", t, 0.1),
    "ff": lambda t: channel("ff", t, 0.1),
    "default_steps": lambda t: default_steps(t, 0.1),
    "plan": lambda t: plan(t, 0.1),
    "choi_ff_evolve": lambda t: choi_ff_evolve(SPEC, RHO2, t, 0.1),
    "slow_qpe": lambda t: estimate(HAM, STATE, slow(t, 64)),
    "slow_qpe_eigenstate": lambda t: prepare(HAM, STATE, 0, slow(t, 64)),
    "fast_qpe": lambda t: estimate(HAM, STATE, fast(t, 1e-3, 64)),
    "fast_qpe_eigenstate": lambda t: prepare(HAM, STATE, 0, fast(t, 1e-3, 64)),
    "amplitude_problem": lambda t: amplitude_problem(2, 1, t=t),
}
EPS = {
    "dilated": lambda eps: channel("dilated", 1.0, eps),
    "ff": lambda eps: channel("ff", 1.0, eps),
    "default_steps": lambda eps: default_steps(1.0, eps),
    "plan": lambda eps: plan(1.0, eps),
    "choi_ff_evolve": lambda eps: choi_ff_evolve(SPEC, RHO2, 1.0, eps),
    "gibbs_prepare": lambda eps: gibbs_prepare(np.diag([0.0, 1.0]), 1.0, eps),
    "fast_qpe": lambda eps: estimate(HAM, STATE, fast(4.0, eps, 64)),
    "fast_qpe_eigenstate": lambda eps: prepare(HAM, STATE, 0, fast(4.0, eps, 64)),
    "amplitude_problem": lambda eps: amplitude_problem(2, 1, eps=eps),
}
# (entry point, floor, the count's name in the message, a count it takes)
COUNTS = {
    "plan": (lambda n: plan(1.0, 0.1, n), 2, "register count", 64),
    "amplitude_problem": (lambda n: amplitude_problem(2, 1, register_n=n), 2,
                          "register count", 2048),
    "slow_qpe": (lambda n: estimate(HAM, STATE, slow(4.0, n)), 1, "step count", 64),
    "slow_qpe_eigenstate": (lambda n: prepare(HAM, STATE, 0, slow(4.0, n)), 1, "step count", 64),
    "dilated": (lambda n: channel("dilated", 1.0, None, n), 1, "step count", 4),
    "ff": (lambda n: channel("ff", 1.0, 0.1, n=n), 2, "register count", 64),
    "fast_qpe": (lambda n: estimate(HAM, STATE, fast(4.0, 1e-3, n)), 2, "register count", 64),
    "fast_qpe_eigenstate": (lambda n: prepare(HAM, STATE, 0, fast(4.0, 1e-3, n)), 2,
                            "register count", 64),
    "standard_qpe": (lambda d: estimate(HAM, STATE, standard(d)), 1, "register bits", 4),
    "standard_qpe_eigenstate": (lambda d: prepare(HAM, STATE, 0, standard(d)), 1,
                                "register bits", 4),
    "standard_qpe_repeats": (lambda r: estimate(HAM, STATE, standard(4), repeats=r), 1, "repeats",
                             3),
    "slow_qpe_repeats": (lambda r: estimate(HAM, STATE, slow(4.0, 64), "sample", 0, r), 1,
                         "repeats", 3),
    "fast_qpe_repeats": (lambda r: estimate(HAM, STATE, fast(4.0, 1e-3, 64), repeats=r), 1,
                         "repeats", 3),
    "binomial_tail": (lambda n: binomial_tail(n, 0.5, 0.1), 0, "N", 10),
    # the bounds once priced -3 and 10.5 trials (2.34 and 1.62)
    "bernstein_bound": (lambda n: bernstein_bound(n, 0.5, 0.1), 0, "N", 10),
    "hoeffding_bound": (lambda n: hoeffding_bound(n, 0.1), 0, "N", 10),
    "binomial_amplitudes": (binomial_amplitudes, 1, "n", 4),
    "binomial_gaussian_distance": (binomial_gaussian_distance, 2, "n", 4),
    "discrete_gaussian_amplitudes": (
        lambda n: discrete_gaussian_amplitudes(GaussianParams(8.0, 2.0, n)), 2, "period", 16),
    "kw_angle_schedule": (lambda n: kw_angle_schedule(GaussianParams(8.0, 2.0, n)), 2,
                          "period", 16),
    "amplitude_problem_address_bits": (lambda n: amplitude_problem(n, 0), 0, "address bits", 2),
    "amplitude_problem_witnesses": (lambda w: amplitude_problem(2, w), 0, "witness count", 1),
}


def refusal(call, value) -> str:
    with pytest.raises(ValidationError) as info:
        call(value)
    return str(info.value)


# None, a missing value, once raised a TypeError from the comparison
@pytest.mark.parametrize("t", (0.0, -1.0, float("nan"), float("inf"), None))
@pytest.mark.parametrize("entry", sorted(TIME))
def test_time_is_refused_alike(entry, t):
    assert refusal(TIME[entry], t) == f"evolution time must be positive and finite, got {t}"


# 1.5 once ran default_steps to one step; choi_ff_evolve checked only its
# per-jump share, so two jumps ran at 0.75 each; None raised a TypeError
@pytest.mark.parametrize("eps", (0.0, 1.0, 1.5, -0.1, float("nan"), float("inf"), None))
@pytest.mark.parametrize("entry", sorted(EPS))
def test_target_error_is_refused_alike(entry, eps):
    assert refusal(EPS[entry], eps) == f"target error must be in (0, 1), got {eps}"


# Below the floor, and floats: 2.5 steps once gave NaN entries, a register
# count of 100.5 numpy's TypeError, and 17.9 an N rounded to 18; a float
# period once reached kw_angle_schedule's int.bit_length (AttributeError) or
# gave discrete_gaussian_amplitudes ceil(17.9) = 18 amplitudes, and 1.5
# witnesses built a problem.
@pytest.mark.parametrize("value", ("floor", -1, 2.5, 17.9, 100.5, 4.0))
@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_count_is_refused_alike(entry, value):
    call, floor, what, _ = COUNTS[entry]
    value = floor - 1 if value == "floor" else value
    assert refusal(call, value) == f"{what} must be an integer >= {floor}, got {value}"


@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_numpy_integer_count_is_taken(entry):
    call, _, _, good = COUNTS[entry]
    assert call(np.int64(good)) is not None


@pytest.mark.parametrize("route", sorted(PREPARERS))
def test_one_level_target_is_refused_alike(route, tmp_path):
    # the standard and fast routes once prepared a one-level spectrum, which
    # the slow route and the CLI refused; every route now reads the target's
    # gap, and the CLI checks it the same way before --zeta reads its weight
    ham = normalize_spectrum(0.5 * np.eye(2, dtype=complex))
    st = decompose_state(np.array([1.0, 0.0], dtype=complex), ham)
    message = "spectral gap undefined for a single-eigenvalue spectrum"
    assert refusal(lambda beta: PREPARERS[route](ham, st, beta), 0) == message
    path = tmp_path / "flat.pauli"
    path.write_text("0.5 I\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        count = [] if route == "standard" else ["--N", "64"]  # the standard route reads no --N
        rc = run(["qpe", "prepare", "--route", route, "--ham", str(path), *count])
    assert (rc, err.getvalue()) == (1, f"error: {message}\n")


# A 0x0 matrix once reached eigh: normalize_spectrum and choi_ff_evolve raised
# an IndexError, gibbs_prepare a "math domain error" from its log2(0)
EMPTY = np.zeros((0, 0), dtype=complex)
MATRIX = {
    "normalize_spectrum": normalize_spectrum,
    "gibbs_prepare": lambda a: gibbs_prepare(a, 1.0, 0.1),
    "choi_ff_evolve": lambda a: choi_ff_evolve(lindblad_spec([a]), a, 1.0, 0.1),
}


@pytest.mark.parametrize("entry", sorted(MATRIX))
def test_empty_matrix_is_refused_alike(entry):
    assert refusal(MATRIX[entry], EMPTY) == "expected a non-empty square matrix, got shape (0, 0)"
