"""The eigenvector-free route of ``channel.evolve_matrix``: a state vector whose
node count M is below the jump's dimension gets rho = psi psi^dag + Y C Y^dag
on the matrix's own eigenvalues.  On generated spectra (dims 16-128, t and eps
at their edges) it matches the eigenbasis path within a few ulp where no
cluster is merged, and an unmerged-spectrum oracle where one is; its node rule
interpolates every kernel within 2^-53; and no golden argv reaches it or
``level_kernel``'s interpolation."""

import importlib
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from lindbladff import ValidationError, evolve, normalize_spectrum
from lindbladff.channel import channel, evolve_matrix, node_count
from lindbladff.model import CLUSTER_RTOL

from conftest import random_state
from oracles import dense_circuit_reference, hamiltonian_matrix, residue_weights, unmerged_channel
from test_cli import DATA, GOLDEN, ROOT, invoke, strip_wall_time

channel_module = importlib.import_module("lindbladff.channel")

# Largest entrywise distance from the eigenbasis path on spectra with no
# merged cluster, in units of 2^-52 max(1, ||H|| / width), the rounding of a
# normalized eigenvalue: measured 4.2 over 240 draws at dims 16-128
PATH_ULPS = 16
# ... and from the unmerged oracles on clustered spectra: the closed forms
# (measured 4.3), and the literal circuit, whose own expm rounding puts it up
# to 132 ulp from the eigenbasis path on spectra with no cluster at all
ORACLE_ULPS = {"exact": 16, "dilated": 16, "ff": 512}


def ulp(h, smap):
    """2^-52 max(1, ||H|| / width): a normalized eigenvalue's rounding."""
    return 2.0 ** -52 * max(1.0, np.max(np.abs(np.linalg.eigvalsh(h))) / smap.scale)


def dilated_gap(t, n):
    """cos(x)^n, x = sqrt(t / n) g, with log cos x as log1p(-2 sin^2(x / 2))
    where cos x > 1/2, so that the rounding of cos x is not raised to the n."""
    def gap(g):
        x = np.sqrt(t / n) * g
        with np.errstate(invalid="ignore"):
            near = np.exp(n * np.log1p(-2.0 * np.sin(0.5 * x) ** 2))
        return np.where(np.cos(x) > 0.5, near, np.cos(x) ** n)
    return gap


@hst.composite
def jumps(draw, kinds=("random", "clustered", "degenerate")):
    """A jump matrix of dim 16-128 and a state; its spectrum is random, or a
    few levels repeated exactly (degenerate) or spread under half the cluster
    tolerance (clustered), inside [0, 1] (an identity map) or over [-3, 3]."""
    dim = draw(hst.integers(16, 128))
    kind = draw(hst.sampled_from(kinds))
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    lo, hi = (0.0, 1.0) if draw(hst.booleans()) else (-3.0, 3.0)
    if kind == "random":
        eigs = rng.uniform(lo, hi, dim)
    else:
        centers = rng.uniform(lo, hi, int(rng.integers(2, 9)))
        eigs = rng.choice(centers, dim)
        if kind == "clustered":
            eigs += rng.random(dim) * 0.45 * CLUSTER_RTOL * np.max(np.abs(centers))
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return (q * eigs) @ q.conj().T, random_state(rng, dim)


@hst.composite
def channels(draw, ff_n=10 ** 7):
    """A channel with t and eps at their edges: ``exact``, ``dilated`` with a
    given or a default step count, ``ff`` with a register count up to ``ff_n``."""
    method = draw(hst.sampled_from(["exact", "dilated", "ff"]))
    t = draw(hst.sampled_from([1e-9, 1e-3, 0.5, 2.0, 16.0] if method != "ff" else [1e-3, 0.5, 2.0, 4.0]))
    eps = draw(hst.sampled_from([1e-3, 0.05, 0.5, 0.999]))
    try:
        if method == "dilated":
            return channel("dilated", t, eps, draw(hst.one_of(hst.none(), hst.integers(1, 400))))
        if method == "ff":
            return channel("ff", t, eps, n=draw(hst.integers(2, ff_n)))
        return channel("exact", t, None)
    except ValidationError:  # a window below one address
        assume(False)


def routed(h, psi, chan):
    """``evolve_matrix``'s output, and whether it took the node form."""
    with mock.patch.object(channel_module, "_node_form", wraps=channel_module._node_form) as spy:
        rho, cost, smap = evolve_matrix(h, psi, chan)
    assert cost == chan.cost
    return rho, smap, spy.called


@settings(max_examples=150, deadline=None, database=None)
@given(case=jumps(kinds=("random", "degenerate")), chan=channels())
def test_matches_the_eigenbasis_path(case, chan):
    h, psi = case
    rho, smap, took = routed(h, psi, chan)
    assume(took)
    ham = normalize_spectrum(h)
    want, _ = evolve(ham, psi, chan)
    assert np.max(np.abs(rho - want)) <= PATH_ULPS * ulp(h, smap)
    assert np.allclose([smap.scale, smap.shift], ham.spectrum_map, rtol=0.0, atol=1e-13)


@settings(max_examples=60, deadline=None, database=None)
@given(case=jumps(kinds=("clustered",)), chan=channels(ff_n=256))
def test_clustered_matches_the_unmerged_oracle(case, chan):
    # the route reads every eigenvalue of the matrix; the eigenbasis path
    # merges each cluster into its first member, and moves by at most
    # sup |dK| <= E|theta| (sqrt(t), or B for ff) times twice the cluster width
    h, psi = case
    rho, smap, took = routed(h, psi, chan)
    assume(took)
    hn = (h - smap.shift * np.eye(len(h))) / smap.scale
    if chan.method == "ff":
        want = dense_circuit_reference(hn, psi, chan.plan)
    elif chan.method == "exact":
        want = unmerged_channel(hn, psi, lambda g: np.exp(-0.5 * chan.t * g ** 2))
    else:
        want = unmerged_channel(hn, psi, dilated_gap(chan.t, chan.n))
    assert np.max(np.abs(rho - want)) <= ORACLE_ULPS[chan.method] * ulp(h, smap)
    slope = chan.cost.hamiltonian_time if chan.plan else np.sqrt(chan.t)
    width = CLUSTER_RTOL * np.max(np.abs(np.linalg.eigvalsh(h))) / smap.scale
    merged, _ = evolve(normalize_spectrum(h), psi, chan)
    assert np.max(np.abs(rho - merged)) <= 2 * slope * width + PATH_ULPS * ulp(h, smap)


# ---------------------------------------------------------------------------
# The node rule, in extended precision: at the rule's M the interpolant of
# each kernel on 2-D Chebyshev points lies within 2^-53 of the kernel.  The
# rule itself aims at 2^-53 / 4, a margin of 4; the largest error measured
# over 200 draws was 0.25 * 2^-53, the rounding of cos^N in long double.
# ---------------------------------------------------------------------------

LD = np.longdouble
LD_PI = 4 * np.arctan(LD(1))


def long_kernel(chan, a, b):
    """The method's kernel on every pair of a and b, in long double."""
    g = a[:, None] - b[None, :]
    if chan.method == "exact":
        return np.exp(-0.5 * LD(chan.t) * g * g)
    if chan.method == "dilated":  # cos(x)^N, its rounding not raised to the N-th power
        x = np.sqrt(LD(chan.t) / chan.n) * g
        return np.sign(np.cos(x)) ** chan.n * np.exp(0.5 * chan.n * np.log1p(-np.sin(x) ** 2))
    p = chan.plan
    weights = np.array([float(w) for w in residue_weights(p.n, p.period, p.shift)], dtype=LD)
    thetas = np.sqrt(LD(p.t) / p.n) * (2 * np.arange(p.period) - p.period).astype(LD)
    out = np.zeros(g.shape, dtype=np.clongdouble)
    for w, theta in zip(weights, thetas):
        out += w * np.exp(-1j * g * theta)
    return out


def interpolation_error(chan, h, m):
    lo, hi = h[0], h[-1]
    k = np.arange(m)
    x = (hi + lo) / 2 + (hi - lo) / 2 * np.cos(LD_PI * k / (m - 1))
    d = np.cos(LD_PI * (np.outer(k, k) % (2 * m - 2)) / (m - 1)) * (LD(2) / (m - 1))
    d *= np.r_[0.5, np.ones(m - 2), 0.5]
    d[[0, -1]] /= 2
    c = d @ (long_kernel(chan, x, x) - 1) @ d.T
    s = (2 * h - lo - hi) / (hi - lo)
    t = np.ones((m, h.size), dtype=LD)
    t[1] = s
    for j in range(2, m):
        t[j] = 2 * s * t[j - 1] - t[j - 2]
    return float(np.max(np.abs(1 + t.T @ c @ t - long_kernel(chan, h, h))))


@pytest.mark.skipif(np.finfo(LD).eps > 2.0 ** -60, reason="long double is no wider than double")
@settings(max_examples=120, deadline=None, database=None)
@given(chan=channels(ff_n=4000), width=hst.floats(0.01, 1.0), low=hst.floats(0.0, 1.0),
       seed=hst.integers(0, 2 ** 32 - 1))
def test_node_rule_interpolates_within_half_an_ulp(chan, width, low, seed):
    h = np.sort(np.r_[0.0, width, np.random.default_rng(seed).uniform(0.0, width, 30)])
    h = (h + low * (1.0 - width)).astype(LD)
    m = node_count(chan, width, 10 ** 4)
    assert 2 <= m < 10 ** 4
    assert interpolation_error(chan, h, m) <= 2.0 ** -53


@pytest.mark.parametrize("t, width, m", [(0.9, 1.0, 17), (2.0, 1.0, 20), (8.0, 1.0, 27),
                                         (1e-9, 1.0, 4), (2.0, 0.0, 2)])
def test_normal_law_node_counts(t, width, m):
    # the exact and dilated rule reads t and the width alone
    assert node_count(channel("exact", t, None), width, 10 ** 4) == m
    assert node_count(channel("dilated", t, None, 7), width, 10 ** 4) == m
    assert node_count(channel("exact", t, None), width, m) == m


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_argvs_keep_the_eigenbasis_path(monkeypatch, case):
    # nor reaches ``level_kernel``'s interpolation: both forms read Chebyshev points
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(channel_module, "_node_form", mock.Mock(side_effect=AssertionError))
    monkeypatch.setattr(channel_module.nk, "chebyshev_points", mock.Mock(side_effect=AssertionError))
    rc, out = invoke(GOLDEN[case])
    assert rc == 0
    with open(os.path.join(DATA, f"golden_{case}.jsonl")) as fh:
        assert strip_wall_time(out) == fh.read()


def test_a_64_level_jump_takes_the_node_form():
    # the runtime-only smoke call: dim 64, 17 nodes at t = 1
    spy = mock.Mock(wraps=channel_module._node_form)
    with mock.patch.object(channel_module, "_node_form", spy):
        rc, _ = invoke(["evolve", "--method", "exact", "--ham",
                        os.path.join(DATA, "jump_shifted_x6.pauli"), "--t", "1"])
    assert rc == 0 and len(spy.call_args.args[4]) == 17


@pytest.mark.parametrize("method", ["exact", "dilated", "ff"])
def test_density_and_wide_node_counts_keep_the_eigenbasis_path(method):
    rng = np.random.default_rng(7)
    h = hamiltonian_matrix(normalize_spectrum(np.diag(rng.uniform(-1, 1, 32)).astype(complex)))
    psi = random_state(rng, 32)
    chan = channel(method, 1.0, 0.1) if method != "exact" else channel("exact", 1.0, None)
    assert routed(h, psi, chan)[2]
    assert not routed(h, np.outer(psi, psi.conj()), chan)[2]
    assert not routed(h[:8, :8], psi[:8] / np.linalg.norm(psi[:8]), chan)[2]


def test_top_cluster_past_the_jump_norm_keeps_the_eigenbasis_path():
    # unmerged, the top cluster maps to 1 + 9e-6, whose nodes the ff kernel
    # refuses; merged into its first member it maps to 1
    h = np.diag(np.r_[10.0 + np.linspace(0.0, 1e-3, 31), 10.001 + 9e-9]).astype(complex)
    psi = np.ones(32) / np.sqrt(32.0)
    rho, smap, took = routed(h, psi, channel("ff", 1.0, 0.1))
    assert not took and normalize_spectrum(h).n_levels == 31
    assert np.array_equal(rho, evolve(normalize_spectrum(h), psi, channel("ff", 1.0, 0.1))[0])


def test_state_is_checked_before_the_spectrum():
    with mock.patch("numpy.linalg.eigvalsh", side_effect=AssertionError):
        with pytest.raises(ValidationError, match="dimension mismatch: state"):
            evolve_matrix(np.eye(32, dtype=complex), np.ones(16) / 4, channel("exact", 1.0, None))
