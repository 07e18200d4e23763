import importlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from lindbladff import (ValidationError, evolve, gibbs_prepare,
                        lindblad_spec, normalize_spectrum, plan)
from lindbladff.channel import channel
from lindbladff import fastforward, gibbs, model
from lindbladff import numkernel as nk
from lindbladff.numkernel import CostReport

from oracles import exact_gibbs, uhlmann_fidelity

H_P2 = np.diag([0.0, 1.0]).astype(complex)


def random_psd_unit_norm(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = a @ a.conj().T
    return h / (np.linalg.eigvalsh(h)[-1] * (1 + 1e-12))


def random_unitary(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


# ---------------------------------------------------------------------------
# Dense oracle: the literal 2^(2n+1) jump run through the ff simulator
# ---------------------------------------------------------------------------

def gibbs_jump(h_p, n):
    """Jump operator |0><0|_anc (x) sqrt(H_P) (x) I_copy on 2n+1 qubits."""
    h_p = nk.require_square(h_p)
    if h_p.shape[0] != 1 << n:
        raise ValidationError(f"expected a {1 << n}-dim Hamiltonian for n = {n}")
    w, v = gibbs._psd_eig(h_p)
    roots = np.sqrt(np.clip(w, 0.0, None))
    dim = 1 << (2 * n + 1)
    out = np.zeros((dim, dim), dtype=complex)
    out[: dim // 2, : dim // 2] = np.kron((v * roots) @ v.conj().T, np.eye(1 << n))
    return out


def dense_gibbs(h_p, chan):
    """Evolve |+> (x) |Omega> under the dense jump and read the ancilla block
    times Omega: returns the normalized purification and the partition estimate."""
    d = h_p.shape[0]
    n = d.bit_length() - 1
    omega = np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d)
    psi0 = np.kron(np.array([1.0, 1.0]) / math.sqrt(2.0), omega)
    rho, _ = evolve(normalize_spectrum(gibbs_jump(h_p, n)), psi0, chan)
    half = d * d
    v = rho[:half, half:] @ omega
    norm = float(np.linalg.norm(v))
    return v / norm, d * (2.0 * norm) ** 2


class TestGibbsJump:
    def test_diagonal_example(self):
        f = gibbs_jump(H_P2, 1)
        assert np.allclose(np.diag(f), [0, 0, 1, 1, 0, 0, 0, 0])
        assert np.max(np.abs(f - np.diag(np.diag(f)))) <= 1e-15

    def test_identity_problem(self):
        f = gibbs_jump(np.eye(2), 1)
        want = np.zeros((8, 8))
        want[:4, :4] = np.eye(4)
        assert np.allclose(f, want)

    def test_norm_is_sqrt_of_problem_norm(self, rng):
        hp = 0.49 * random_psd_unit_norm(rng, 4) / 0.49  # unit norm
        hp *= 0.49
        f = gibbs_jump(hp, 2)
        assert np.isclose(np.max(np.abs(np.linalg.eigvalsh(f))),
                          math.sqrt(np.linalg.eigvalsh(hp)[-1]), atol=1e-10)
        assert np.max(np.abs(f - f.conj().T)) <= 1e-12
        lindblad_spec([f])  # norm <= 1 accepted

    def test_rejects_negative_spectrum(self):
        with pytest.raises(ValidationError, match="< 0"):
            gibbs_jump(np.diag([-0.1, 0.5]), 1)

    def test_positivity_reads_the_density_tolerance(self):
        # H_P's eigenvalues may dip to -PSD_ATOL, as a density matrix's may
        # (the rule once read a literal -1e-9)
        res = gibbs_prepare(np.diag([-5e-9, 1.0]), 1.0, 0.05)
        assert abs(res.fidelity - 1.0) <= 1e-6
        with pytest.raises(ValidationError, match="< 0"):
            gibbs_prepare(np.diag([-2e-8, 1.0]), 1.0, 0.05)

    def test_rejects_large_norm(self):
        with pytest.raises(ValidationError, match="exceeds 1"):
            gibbs_jump(np.diag([0.0, 1.5]), 1)

    def test_norm_rule_reads_the_roots_it_evolves(self):
        # the jump is sqrt(H_P): its top root may reach 1 + JUMP_NORM_ATOL, as
        # every jump eigenvalue the ff kernel evolves may, and no further (the
        # rule once read H_P's own norm against a literal 1 + 1e-9)
        bound = 1.0 + nk.JUMP_NORM_ATOL
        edge = bound * bound
        while math.sqrt(edge) > bound:
            edge = math.nextafter(edge, 0.0)
        while math.sqrt(math.nextafter(edge, 2.0)) <= bound:
            edge = math.nextafter(edge, 2.0)
        past = math.nextafter(edge, 2.0)
        assert nk.herm_eig(np.diag([0.0, edge]))[0][-1] == edge
        res = gibbs_prepare(np.diag([0.0, edge]), 1.0, 0.05)
        assert res.partition_exact == 1.0 + math.exp(-edge)
        with pytest.raises(ValidationError, match=f"^problem Hamiltonian norm {past:.6f} exceeds 1$"):
            gibbs_prepare(np.diag([0.0, past]), 1.0, 0.05)


class TestExactGibbs:
    def test_infinite_temperature(self):
        rho, z = exact_gibbs(H_P2, 0.0)
        assert np.allclose(rho, np.eye(2) / 2)
        assert z == 2.0

    def test_worked_values(self):
        rho, z = exact_gibbs(H_P2, 2.0)
        assert np.isclose(z, 1 + math.exp(-2.0))
        assert np.isclose(z, 1.13534, atol=5e-6)
        assert np.allclose(np.diag(rho).real, [0.88080, 0.11920], atol=5e-6)

    def test_zero_temperature_limit(self):
        rho, _ = exact_gibbs(H_P2, 200.0)
        assert np.allclose(rho, np.diag([1.0, 0.0]), atol=1e-12)


class TestGibbsPrepare:
    def test_worked_instance(self):
        res = gibbs_prepare(H_P2, beta=2.0, eps=0.05)
        assert np.allclose(np.diag(res.reduced_state).real, [0.88080, 0.11920], atol=1e-3)
        assert abs(res.partition_estimate - 1.13534) / 1.13534 <= 0.05
        assert res.fidelity >= 1 - 2 * 0.05
        # ideal ancilla-block amplitude: 0.5 sqrt(Z / 2)
        assert np.isclose(0.5 * math.sqrt(res.partition_estimate / 2.0), 0.37672, atol=1e-3)

    def test_infinite_temperature(self):
        # beta = 0 is the identity channel: a kernel of ones, no evolution time
        res = gibbs_prepare(H_P2, beta=0.0, eps=0.05)
        assert np.max(np.abs(res.reduced_state - np.eye(2) / 2)) <= 2 * np.finfo(float).eps
        assert abs(res.partition_estimate - 2.0) <= 4 * np.finfo(float).eps
        assert (res.partition_exact, res.fidelity) == (2.0, 1.0)
        assert res.cost == CostReport(0.0, 0, 0)

    def test_missing_beta_is_refused_by_its_rule(self):
        # None once raised a TypeError from the comparison
        with pytest.raises(ValidationError, match="^inverse temperature must be nonnegative, got None$"):
            gibbs_prepare(H_P2, None, 0.05)

    @pytest.mark.parametrize("beta", (math.nan, math.inf))
    def test_non_finite_beta_is_refused_by_the_time_rule(self, beta):
        with pytest.raises(ValidationError) as info:
            gibbs_prepare(H_P2, beta, 0.05)
        assert str(info.value) == f"evolution time must be positive and finite, got {beta}"

    def test_tiny_beta_is_planned_as_itself(self):
        # no floor on beta: 1e-300 runs the two-count plan of 1e-300
        p = plan(1e-300, 0.05)
        assert p.n == 2
        res = gibbs_prepare(H_P2, beta=1e-300, eps=0.05)
        assert res.cost == fastforward.ff_cost(p)
        assert abs(res.partition_estimate - 2.0) <= 4 * np.finfo(float).eps

    def test_purification_reduces_consistently(self):
        res = gibbs_prepare(H_P2, beta=2.0, eps=0.05)
        mat = res.purification.reshape(2, 2)
        assert np.max(np.abs(mat @ mat.conj().T - res.reduced_state)) <= 1e-12
        exact, _ = exact_gibbs(H_P2, 2.0)
        assert np.max(np.abs(np.diag(res.reduced_state) - np.diag(exact))) <= 2 * 0.05

    def test_random_two_qubit_instances(self, rng):
        for beta in (1.0, 2.0, 4.0):
            hp = random_psd_unit_norm(rng, 4)
            res = gibbs_prepare(hp, beta=beta, eps=0.05)
            _, z = exact_gibbs(hp, beta)
            assert res.fidelity >= 1 - 2 * 0.05, beta
            assert abs(res.partition_estimate - z) / z <= 0.05, beta

    def test_cost_scales_as_sqrt_beta(self):
        betas = [1.0, 2.0, 4.0, 8.0]
        costs = [gibbs_prepare(H_P2, beta=b, eps=0.05).cost.hamiltonian_time
                 for b in betas]
        slope = np.polyfit(np.log(betas), np.log(costs), 1)[0]
        assert abs(slope - 0.5) <= 0.1 + 1e-9

    def test_amplification_queries_reported(self):
        res = gibbs_prepare(H_P2, beta=2.0, eps=0.05)
        assert np.isclose(res.ideal_amplification_queries,
                          math.sqrt(2.0 / res.partition_estimate))

    def test_degenerate_block_error(self, monkeypatch):
        # beta far beyond double precision for this jump; the tight-window
        # plan keeps address leakage from masking the underflow
        monkeypatch.setattr(gibbs, "channel",
                            lambda method, t, eps: channel(method, t, eps, n=4096))
        with pytest.raises(ValidationError, match="degenerate"):
            gibbs_prepare(np.diag([1.0, 1.0]), beta=200.0, eps=2e-4)

    def test_structured_route_builds_no_dilated_jump(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense dilated route reached")

        # the table's module, whose ``evolve`` a dense route would call
        channel_module = importlib.import_module("lindbladff.channel")
        for module, name in ((model, "normalize_spectrum"), (channel_module, "evolve"),
                             (np, "kron")):
            monkeypatch.setattr(module, name, refuse)
        for name in ("normalize_spectrum", "evolve", "goal_ledger", "gibbs_jump"):
            assert not hasattr(gibbs, name), name
        res = gibbs_prepare(H_P2, beta=2.0, eps=0.05)
        assert res.fidelity >= 1 - 2 * 0.05

    def test_one_eigendecomposition(self, rng, monkeypatch):
        # herm_eig runs its one eigh through the patched np.linalg.eigh, so a
        # single eigendecomposition logs exactly these two entries
        hp = random_psd_unit_norm(rng, 8)
        calls = []

        def counted(name, fn):
            def wrapper(a, *args, **kwargs):
                calls.append((name, a.shape))
                return fn(a, *args, **kwargs)
            return wrapper

        for module, name in ((nk, "herm_eig"), (np.linalg, "eigh"), (np.linalg, "eigvalsh")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        res = gibbs_prepare(hp, beta=1.5, eps=0.05)
        assert calls == [("herm_eig", (8, 8)), ("eigh", (8, 8))]
        rho, z = exact_gibbs(hp, 1.5)
        assert res.partition_exact == z
        assert abs(res.fidelity - uhlmann_fidelity(res.reduced_state, rho)) <= 1e-12

    def test_ten_qubits(self, rng):
        hp = random_psd_unit_norm(rng, 1 << 10)
        res = gibbs_prepare(hp, beta=1.5, eps=0.05)
        _, z = exact_gibbs(hp, 1.5)
        assert res.purification.shape == (1 << 20,)
        assert res.fidelity >= 1 - 2 * 0.05
        assert abs(res.partition_estimate - z) / z <= 0.05


def _oracle_cases():
    rng = np.random.default_rng(7)
    cases = [(f"random-n{n}", random_psd_unit_norm(rng, 1 << n)) for n in (1, 2, 3, 4)]
    cases += [(f"identity-n{n}", np.eye(1 << n, dtype=complex)) for n in (1, 3)]
    for n in (2, 3):
        # two zero eigenvalues share level 0 with the ancilla-|1> sector
        w = np.concatenate([np.zeros(2), rng.uniform(0.1, 1.0, (1 << n) - 3), [1.0]])
        q = random_unitary(rng, 1 << n)
        cases.append((f"singular-n{n}", (q * w) @ q.conj().T))
    return dict(cases)


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
@pytest.mark.parametrize("beta", [0.5, 1.5])
def test_matches_dense_oracle(name, beta, monkeypatch):
    # The rotated zero eigenvalues come back from eigh as +-1e-17, whose roots
    # (~1e-9) sit at the default 1e-9 clustering tolerance.  The dense route
    # merges them into level 0 with the ancilla-|1> sector, which keeps its
    # lowest member (see the next test); the structured route keeps each
    # root, so the oracle clusters only rounding-level splits here.
    monkeypatch.setattr(model, "CLUSTER_RTOL", 1e-12)
    h_p = ORACLE_CASES[name]
    res = gibbs_prepare(h_p, beta, 0.05)
    want, z = dense_gibbs(h_p, channel("ff", beta, 0.05))  # the channel gibbs_prepare makes
    assert abs(np.vdot(want, res.purification)) ** 2 >= 1 - 1e-12
    assert abs(res.partition_estimate - z) <= 1e-12 * z


@hst.composite
def psd_problems(draw):
    """A PSD H_P of dim 2, 4 or 8 whose spectrum holds the levels 0 and 1, the
    rest random or repeats of them, diagonal or rotated, and beta in (0, 4]."""
    d = 1 << draw(hst.integers(1, 3))
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    rest = rng.uniform(0.0, 1.0, d - 2)
    if draw(hst.booleans()):
        rest = rng.choice(np.r_[0.0, 1.0, rest[:1]], d - 2)
    w = np.r_[0.0, rest, 1.0].astype(complex)
    q = random_unitary(rng, d) if draw(hst.booleans()) else np.eye(d)
    h_p = (q * w) @ q.conj().T
    beta = draw(hst.one_of(hst.sampled_from([4.0, 1e-300]),
                           hst.floats(0.0, 4.0, exclude_min=True)))
    return 0.5 * (h_p + h_p.conj().T), beta


@settings(max_examples=60, deadline=None, database=None)
@given(case=psd_problems())
def test_generated_spectra_match_dense_oracle(case):
    # the clustering tolerance of test_matches_dense_oracle, for its reason
    h_p, beta = case
    res = gibbs_prepare(h_p, beta, 0.05)
    with mock.patch.object(model, "CLUSTER_RTOL", 1e-12):
        want, z = dense_gibbs(h_p, channel("ff", beta, 0.05))
    assert abs(np.vdot(want, res.purification)) ** 2 >= 1 - 1e-12
    assert abs(res.partition_estimate - z) <= 1e-12 * z


def test_singular_at_default_clustering():
    h_p = ORACLE_CASES["singular-n3"]
    res = gibbs_prepare(h_p, 1.5, 0.05)
    want, z = dense_gibbs(h_p, channel("ff", 1.5, 0.05))  # the channel gibbs_prepare makes
    assert abs(np.vdot(want, res.purification)) ** 2 >= 1 - 1e-12
    assert abs(res.partition_estimate - z) <= 1e-12 * z
