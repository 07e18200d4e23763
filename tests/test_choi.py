import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from lindbladff import (ValidationError, choi_ff_evolve, evolve, is_choi_commuting,
                        lindblad_spec, normalize_spectrum, parse_pauli_sum)
from lindbladff.channel import channel
from lindbladff import choi, cli
from lindbladff import numkernel as nk

from conftest import PAULI_X, PAULI_Z, random_density, random_hermitian, random_state
from oracles import generator_matrix, lindblad_exact_general, lindblad_rk4, pauli_noise_spec

ZERO_KET = np.zeros((2, 2), dtype=complex)
ZERO_KET[0, 0] = 1.0


def generator_term(h: np.ndarray) -> np.ndarray:
    """The dense d^2 x d^2 generator of the single jump ``h``."""
    return generator_matrix(lindblad_spec([h]))


class TestGeneratorTerm:
    def test_z_term_diagonal(self):
        term = generator_term(PAULI_Z)
        assert np.allclose(term, np.diag([0.0, -2.0, -2.0, 0.0]))

    def test_identity_jump_vanishes(self):
        assert np.max(np.abs(generator_term(np.eye(2)))) <= 1e-15

    def test_trace_identity(self, rng):
        for _ in range(10):
            h = random_hermitian(rng, 3)
            term = generator_term(h)
            want = np.trace(h).real ** 2 - 3 * np.trace(h @ h).real
            assert np.isclose(np.trace(term).real, want, atol=1e-9)


class TestCommutationCheck:
    def test_anticommuting_pair_passes(self):
        ok, worst = is_choi_commuting(lindblad_spec([PAULI_X, PAULI_Z]))
        assert ok and worst <= 1e-12

    def test_tilted_pair_fails(self):
        tilted = (PAULI_X + PAULI_Z) / math.sqrt(2.0)
        ok, worst = is_choi_commuting(lindblad_spec([PAULI_X, tilted]))
        assert not ok and worst > 1e-3

    def test_commuting_pair_passes(self):
        z1 = np.kron(PAULI_Z, np.eye(2))
        z2 = np.kron(np.eye(2), PAULI_Z)
        ok, worst = is_choi_commuting(lindblad_spec([z1, z2]))
        assert ok and worst <= 1e-12

    def test_single_jump_vacuous(self):
        ok, worst = is_choi_commuting(lindblad_spec([PAULI_X]))
        assert ok and worst == 0.0

    def test_random_pauli_sets_always_pass(self, rng):
        labels = ["".join(p) for p in itertools.product("IXYZ", repeat=2)][1:]
        for _ in range(20):
            chosen = rng.choice(labels, size=3, replace=False)
            spec = pauli_noise_spec([(s, float(rng.uniform(0.1, 1.0))) for s in chosen])
            ok, worst = is_choi_commuting(spec)
            assert ok and worst <= 1e-12, chosen

    @pytest.mark.parametrize("qubits", [2, 3, 4, 5, 6])
    def test_pauli_sets_pass_on_the_probe(self, rng, qubits, monkeypatch):
        # every pair commutes or anticommutes, so the vector probe settles it
        def no_generator_probe(*args):
            raise AssertionError("generator probe reached")

        monkeypatch.setattr(choi, "_generator_residual", no_generator_probe)
        for _ in range(3):
            strings = ["".join(rng.choice(list("IXYZ"), size=qubits)) for _ in range(6)]
            spec = pauli_noise_spec([(s, float(rng.uniform(0.1, 1.0))) for s in strings])
            first = is_choi_commuting(spec)
            assert first[0] and first[1] <= 1e-12, strings
            assert is_choi_commuting(spec) == first

    def test_tilted_pair_fails_through_the_fallback(self, monkeypatch):
        tilted = (PAULI_X + PAULI_Z) / math.sqrt(2.0)
        spec = lindblad_spec([PAULI_X, tilted])
        probed = []
        original = choi._generator_residual

        def counted(*args):
            probed.append(args)
            return original(*args)

        monkeypatch.setattr(choi, "_generator_residual", counted)
        first = is_choi_commuting(spec)
        assert not first[0] and len(probed) == 1
        assert is_choi_commuting(spec) == first

    @settings(max_examples=150, deadline=None, database=None)
    @given(n=hst.integers(1, 4), seed=hst.integers(0, 2 ** 32 - 1), rotate=hst.booleans(),
           kind=hst.sampled_from(["strings", "shifted", "polynomial", "random", "tilted"]))
    def test_verdict_matches_dense_generators(self, n, seed, rotate, kind):
        # the verdict is whether the dense generator terms commute, on pairs that
        # commute (strings, a matrix and a polynomial in it), anticommute
        # (strings), are identity-shifted strings, or commute in no sense
        # (random Hermitian, a string against a tilt toward another string);
        # a random unitary frame makes every pair dense
        rng = np.random.default_rng(seed)
        d = 2 ** n

        def string():
            return parse_pauli_sum("1.0 " + "".join(rng.choice(list("IXYZ"), size=n)))

        if kind == "strings":
            a, b = rng.uniform(0.1, 1.0) * string(), rng.uniform(0.1, 1.0) * string()
        elif kind == "shifted":
            a, b = (rng.uniform(-0.5, 0.5) * np.eye(d) + rng.uniform(0.1, 0.5) * string()
                    for _ in range(2))
        elif kind == "polynomial":
            a = random_hermitian(rng, d)
            b = a @ a - rng.uniform(-1.0, 1.0) * a
        elif kind == "random":
            a, b = random_hermitian(rng, d), random_hermitian(rng, d)
        else:
            theta = rng.uniform(0.2, math.pi / 2 - 0.2)
            a = string()
            b = math.cos(theta) * a + math.sin(theta) * string()
        if rotate:
            u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            a, b = u @ a @ u.conj().T, u @ b @ u.conj().T
        spec = lindblad_spec([a, b])
        ga, gb = (generator_term(m) for m in spec.jumps)
        dense = np.max(np.abs(ga @ gb - gb @ ga)) <= 1e-9 * max(
            1.0, np.max(np.abs(ga)) * np.max(np.abs(gb)))
        assert is_choi_commuting(spec)[0] == dense

    def test_commutator_expansion_matches_direct(self, rng):
        # expansion into jump-level commutators agrees with the direct bracket
        for _ in range(5):
            hi, hj = random_hermitian(rng, 2), random_hermitian(rng, 2)
            ti, tj = generator_term(hi), generator_term(hj)
            direct = ti @ tj - tj @ ti
            eye = np.eye(2)

            def comm(a, b):
                return a @ b - b @ a

            hi2, hj2 = hi @ hi, hj @ hj
            expansion = (
                comm(np.kron(hi, hi.conj()), np.kron(hj, hj.conj()))
                - 0.5 * np.kron(comm(hi, hj2), hi.conj())
                - 0.5 * np.kron(hi, comm(hi, hj2).conj())
                - 0.5 * np.kron(comm(hi2, hj), hj.conj())
                - 0.5 * np.kron(hj, comm(hi2, hj).conj())
                + 0.25 * np.kron(comm(hi2, hj2), eye)
                + 0.25 * np.kron(eye, comm(hi2, hj2).conj())
            )
            assert np.max(np.abs(direct - expansion)) <= 1e-10


class TestSequentialFastForward:
    def test_single_jump_matches_ff(self):
        spec = lindblad_spec([np.diag([0.0, 1.0])])
        psi = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        rho_seq, cost_seq, _ = choi_ff_evolve(spec, psi, 2.0, 0.05)
        ham = normalize_spectrum(np.diag([0.0, 1.0]))
        rho_ff, cost_ff = evolve(ham, psi, channel("ff", 2.0, 0.05))
        assert np.max(np.abs(rho_seq - rho_ff)) <= 1e-12
        assert cost_seq.hamiltonian_time == cost_ff.hamiltonian_time

    @pytest.mark.parametrize("jump, time_scale, levels", [
        (0.5 * PAULI_Z, 1.0, [0.0, 1.0]),         # width 1: shifted only
        (np.diag([0.0, 0.7]), 1.0, [0.0, 0.7]),  # inside [0, 1]: kept as is
        (0.3 * PAULI_Z, 0.36, [0.0, 1.0]),       # width 0.6: runs for 0.36 t
    ], ids=["half_z", "inside_unit", "scaled_z"])
    def test_single_jump_runs_at_rescaled_time(self, jump, time_scale, levels):
        psi = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        rho, cost, _ = choi_ff_evolve(lindblad_spec([jump]), psi, 2.0, 0.05)
        ham = normalize_spectrum(jump)
        assert np.allclose(ham.eigenvalues, levels)
        assert np.isclose(ham.spectrum_map.scale ** 2, time_scale)
        want, want_cost = evolve(ham, psi, channel("ff", time_scale * 2.0, 0.05))
        assert np.max(np.abs(rho - want)) <= 1e-12
        assert np.isclose(cost.hamiltonian_time, want_cost.hamiltonian_time)

    def test_underflowed_rate_is_the_identity(self):
        # scale^2 t = (2e-200)^2 rounds to 0: the factor is the identity, not an error
        psi = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        rho, cost, _ = choi_ff_evolve(lindblad_spec([1e-200 * PAULI_X]), psi, 1.0, 0.1)
        assert np.array_equal(rho, np.outer(psi, psi.conj()))
        assert cost._asdict() == {"hamiltonian_time": 0.0, "step_count": 0, "ancilla_count": 0}

    @pytest.mark.parametrize("jump", (np.eye(2), 1e-200 * PAULI_X), ids=("identity", "underflowed"))
    @pytest.mark.parametrize("state", (np.ones(4) / 2, np.eye(4) / 4), ids=("vector", "density"))
    def test_state_of_another_dimension_is_refused(self, jump, state):
        # an identity factor never reaches dephase's check, so the state is
        # checked against the jumps before the factor loop
        with pytest.raises(ValidationError, match="^dimension mismatch: state 4 vs jumps 2$"):
            choi_ff_evolve(lindblad_spec([jump]), state, 1.0, 0.1)

    def test_any_width_runs_its_normalized_form(self):
        # no jump is refused for its norm: 2 Z and diag(-1.2, 0.3) run their
        # normalized forms for scale^2 t, and 1.5 I is the identity factor
        psi = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        for jump in (2.0 * PAULI_Z, np.diag([-1.2, 0.3])):
            spec = lindblad_spec([PAULI_X, jump])
            rho, _, _ = choi_ff_evolve(spec, psi, 1.0, 0.05)
            exact = lindblad_exact_general(spec, np.outer(psi, psi.conj()), 1.0)
            assert nk.trace_distance(rho, exact) <= 0.05
        # the identity factor keeps its share of eps: the X factor runs at eps / 2
        alone = choi_ff_evolve(lindblad_spec([PAULI_X]), ZERO_KET[0], 1.0, 0.025)
        shifted = choi_ff_evolve(lindblad_spec([PAULI_X, 1.5 * np.eye(2)]), ZERO_KET[0], 1.0, 0.05)
        assert alone[0].tobytes() == shifted[0].tobytes() and alone[1] == shifted[1]

    @pytest.mark.parametrize("jump, t, same, same_t", [
        (PAULI_Z + 5.0 * np.eye(2), 1.0, PAULI_Z, 1.0),  # an identity shift is no dissipation
        (2.0 * PAULI_Z, 1.0, PAULI_Z, 4.0),              # a c-scaled jump squares the rate
    ])
    def test_width_relations_are_bit_identical(self, rng, jump, t, same, same_t):
        psi = random_state(rng, 2)
        got = choi_ff_evolve(lindblad_spec([jump]), psi, t, 0.05)
        want = choi_ff_evolve(lindblad_spec([same]), psi, same_t, 0.05)
        assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]

    def test_overflowing_time_names_the_jump(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        for scale, message in ((1e200, "runs for scale^2 t = inf: evolution time must be"),
                               (1e100, "runs for scale^2 t = 4e+200: step count")):
            with pytest.raises(ValidationError, match=re.escape(f"jump 1 of width {2 * scale:.6g} "
                                                                + message)):
                choi_ff_evolve(lindblad_spec([PAULI_X, scale * PAULI_Z]), psi, 1.0, 0.05)

    @settings(max_examples=60, deadline=None, database=None)
    @given(data=hst.data(), n=hst.integers(1, 3), mixed=hst.booleans(),
           seed=hst.integers(0, 2 ** 32 - 1), t=hst.floats(0.1, 1.0),
           eps=hst.floats(0.01, 0.2))
    def test_pauli_noise_at_any_rate_within_eps(self, data, n, mixed, seed, t, eps):
        # rates up to 4 make jumps of norm up to 2, which run like any other
        terms = [(data.draw(hst.text("IXYZ", min_size=n, max_size=n)),
                  data.draw(hst.floats(0.0, 4.0, exclude_min=True)))
                 for _ in range(data.draw(hst.integers(1, 3)))]
        spec = pauli_noise_spec(terms)
        rng = np.random.default_rng(seed)
        rho0 = random_density(rng, 2 ** n) if mixed else random_state(rng, 2 ** n)
        rho, _, _ = choi_ff_evolve(spec, rho0, t, eps)
        dense0 = rho0 if mixed else np.outer(rho0, rho0.conj())
        assert nk.trace_distance(rho, lindblad_exact_general(spec, dense0, t)) <= eps
        assert nk.trace_distance(rho, lindblad_rk4(list(spec.jumps), dense0, t)) <= eps

    def test_xz_dephasing_to_maximally_mixed(self):
        spec = lindblad_spec([PAULI_X, PAULI_Z])
        rho, _, _ = choi_ff_evolve(spec, np.array([1.0, 0.0], dtype=complex), 8.0, 1e-2)
        exact = lindblad_exact_general(spec, ZERO_KET, 8.0)
        assert nk.trace_distance(rho, exact) <= 1e-2
        assert np.max(np.abs(exact - np.eye(2) / 2)) <= 1e-6  # e^{-2t} relaxation

    def test_order_permutation_within_budget(self):
        eps = 1e-2
        fwd = lindblad_spec([PAULI_X, PAULI_Z])
        rev = lindblad_spec([PAULI_Z, PAULI_X])
        psi = np.array([1.0, 0.0], dtype=complex)
        a, _, _ = choi_ff_evolve(fwd, psi, 1.0, eps)
        b, _, _ = choi_ff_evolve(rev, psi, 1.0, eps)
        assert nk.trace_distance(a, b) <= 2 * eps

    def test_noncommuting_raises(self):
        tilted = (PAULI_X + PAULI_Z) / math.sqrt(2.0)
        spec = lindblad_spec([PAULI_X, tilted])
        with pytest.raises(ValidationError, match="do not commute"):
            choi_ff_evolve(spec, np.array([1.0, 0.0], dtype=complex), 1.0, 0.1)

    @pytest.mark.parametrize("density", (False, True))
    def test_input_is_validated_once(self, monkeypatch, rng, density):
        # building the spec checks structure only; the channel eigendecomposes
        # each jump once, and only a density input pays for the eigvalsh of
        # ``require_density``: a vector's projector is positive by construction
        calls = []
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, lambda a, name=name, f=getattr(np.linalg, name):
                                calls.append(name) or f(a))
        terms = [("XI", 0.7), ("ZI", 0.4), ("ZZ", 0.9), ("IY", 0.5)]
        spec = pauli_noise_spec(terms)
        assert calls == []
        psi = np.exp(2j * np.pi * rng.random(4)) / 2.0
        rho, _, _ = choi_ff_evolve(spec, np.outer(psi, psi.conj()) if density else psi, 1.0, 0.05)
        assert (calls.count("eigh"), calls.count("eigvalsh")) == (len(terms), int(density))
        assert abs(np.trace(rho).real - 1.0) <= 1e-12

    @settings(max_examples=150, deadline=None, database=None)
    @given(data=hst.data(), n=hst.integers(1, 3), mixed=hst.booleans(),
           seed=hst.integers(0, 2 ** 32 - 1), t=hst.floats(0.25, 2.0),
           eps=hst.floats(0.01, 0.2))
    def test_shifted_strings_within_eps_of_exact(self, data, n, mixed, seed, t, eps):
        # jumps a I + b P with |a| + |b| <= 1: two shifted anticommuting strings
        # pass neither vector-probe relation, so the generator probe decides,
        # and a jump of width 2|b| != 1 runs at a rescaled time
        jumps = []
        for _ in range(data.draw(hst.integers(1, 4))):
            string = data.draw(hst.text("IXYZ", min_size=n, max_size=n))
            a = data.draw(hst.floats(-1.0, 1.0))
            b = data.draw(hst.floats(-1.0, 1.0)) * (1.0 - abs(a))
            jumps.append(a * np.eye(2 ** n) + b * parse_pauli_sum(f"1.0 {string}"))
        spec = lindblad_spec(jumps)
        rng = np.random.default_rng(seed)
        rho0 = random_density(rng, 2 ** n) if mixed else random_state(rng, 2 ** n)
        rho, _, _ = choi_ff_evolve(spec, rho0, t, eps)
        exact = lindblad_exact_general(spec, rho0 if mixed else np.outer(rho0, rho0.conj()), t)
        assert nk.trace_distance(rho, exact) <= eps

    @settings(max_examples=25, deadline=None, database=None)
    @given(data=hst.data(), seed=hst.integers(0, 2 ** 32 - 1), t=hst.floats(0.25, 2.0),
           eps=hst.floats(0.01, 0.2))
    def test_shifted_strings_at_six_qubits_match_the_pauli_channel(self, data, seed, t, eps):
        # a I + b P dissipates as b^2 D[P], the Pauli channel
        # rho -> (1 + e^{-2 b^2 t}) rho / 2 + (1 - e^{-2 b^2 t}) P rho P / 2;
        # the first two strings anticommute, so the generator probe decides at dim 64
        rest = data.draw(hst.text("IXYZ", min_size=5, max_size=5))
        strings = ["X" + rest, "Z" + rest, data.draw(hst.text("IXYZ", min_size=6, max_size=6))]
        jumps, channel = [], []
        for string in strings:
            a = data.draw(hst.floats(-1.0, 1.0))
            b = data.draw(hst.floats(-1.0, 1.0)) * (1.0 - abs(a))
            p = parse_pauli_sum(f"1.0 {string}")
            jumps.append(a * np.eye(64) + b * p)
            channel.append((math.exp(-2.0 * b * b * t), p))
        rho0 = random_density(np.random.default_rng(seed), 64)
        rho, _, _ = choi_ff_evolve(lindblad_spec(jumps), rho0, t, eps)
        want = rho0
        for decay, p in channel:
            want = 0.5 * (1.0 + decay) * want + 0.5 * (1.0 - decay) * (p @ want @ p)
        assert nk.trace_distance(rho, want) <= eps

    def test_vector_and_its_projector_agree_bitwise(self, rng):
        # a vector input gives the bytes its density input gives
        spec = pauli_noise_spec([("XY", 0.8), ("ZI", 0.5), ("ZZ", 0.3)])
        psi = random_state(rng, 4)
        rho_vec, _, _ = choi_ff_evolve(spec, psi, 1.0, 0.05)
        rho_den, _, _ = choi_ff_evolve(spec, np.outer(psi, psi.conj()), 1.0, 0.05)
        assert rho_vec.tobytes() == rho_den.tobytes()

    def test_factorization_identity(self, rng):
        # commuting generators: exp of the sum equals the product of exps
        from scipy.linalg import expm

        spec = pauli_noise_spec([("XI", 0.7), ("ZI", 0.4), ("ZZ", 0.9)])
        terms = [generator_term(j) for j in spec.jumps]
        t = 0.8
        joint = expm(sum(terms) * t)
        product = np.eye(16, dtype=complex)
        for term in terms:
            product = expm(term * t) @ product
        assert np.max(np.abs(joint - product)) <= 1e-9


class TestPauliNoise:
    def test_single_term(self):
        spec = pauli_noise_spec([("Z", 0.5)])
        assert np.allclose(spec.jumps[0], math.sqrt(0.5) * PAULI_Z)

    def test_rate_validation(self):
        # any positive finite rate is a jump; the rest are rejected
        assert np.allclose(pauli_noise_spec([("Z", 2.5)]).jumps[0], math.sqrt(2.5) * PAULI_Z)
        for rate in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValidationError, match="is not positive and finite"):
                pauli_noise_spec([("Z", rate)])

    def test_depolarizing_offdiagonal_rate(self):
        # X+Y+Z noise at rate lam: off-diagonal decays as e^{-4 lam t},
        # cross-checked against the brute-force integrator
        lam, t = 0.25, 0.7
        spec = pauli_noise_spec([("X", lam), ("Y", lam), ("Z", lam)])
        plus = np.full((2, 2), 0.5, dtype=complex)
        out = lindblad_exact_general(spec, plus, t)
        assert np.isclose(out[0, 1].real, 0.5 * math.exp(-4 * lam * t), atol=1e-10)
        oracle = lindblad_rk4(list(spec.jumps), plus, t)
        assert np.max(np.abs(out - oracle)) <= 1e-8

    def test_two_qubit_noise_end_to_end(self, rng):
        spec = pauli_noise_spec([("XY", 0.8), ("ZI", 0.5), ("XY", 0.3)])
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / math.sqrt(2)
        rho, _, _ = choi_ff_evolve(spec, psi, 1.0, 1e-2)
        exact = lindblad_exact_general(spec, np.outer(psi, psi.conj()), 1.0)
        assert nk.trace_distance(rho, exact) <= 1e-2
