"""The channel table: each single-jump method is a gap kernel and a cost, and
``evolve`` applies the kernel.  The table refuses what it cannot build, and
on generated spectra, states and edge arguments it is bitwise the arithmetic
each method ran before the table existed."""

import itertools
import math
import types

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from lindbladff import (CostReport, ValidationError, default_steps, evolve,
                        normalize_spectrum)
from lindbladff.channel import channel, ff_cost, gap_kernel, level_kernel, node_count, plan
from lindbladff import numkernel as nk
from lindbladff.model import CLUSTER_RTOL

from conftest import random_density, random_state
from test_single_jump import jumps

HAM = normalize_spectrum(np.diag([0.0, 0.5, 1.0]).astype(complex))


# A missing or invalid time, eps or count is refused by its one rule, keyed by
# method, in test_argument_rules.py.
class TestRefusals:
    @pytest.mark.parametrize("method", ["Exact", "choi-ff", "", None])
    def test_unknown_method_is_named(self, method):
        with pytest.raises(ValidationError) as info:
            channel(method, 1.0, 0.1)
        assert str(info.value) == (f"unknown channel method {method!r}; "
                                   f"expected exact, dilated, ff or standard")

    @pytest.mark.parametrize("method, steps", [("exact", None), ("dilated", 4)])
    def test_method_not_reading_eps_takes_none(self, method, steps):
        rho, cost = evolve(HAM, np.eye(3, dtype=complex) / 3, channel(method, 1.0, None, steps))
        assert rho.shape == (3, 3) and cost.step_count == (steps or 0)

    def test_dilated_checks_a_given_count_before_the_time(self):
        with pytest.raises(ValidationError, match="step count must be an integer >= 1"):
            channel("dilated", 0.0, None, 0)

    @pytest.mark.parametrize("n", [4, -5])
    def test_exact_refuses_a_count_with_one_message(self, n):
        with pytest.raises(ValidationError) as info:
            channel("exact", 1.0, None, n)
        assert str(info.value) == "n is read by the dilated and ff methods, not by exact"


def test_channel_is_the_module():
    import lindbladff
    import lindbladff.channel as m
    assert isinstance(m, types.ModuleType) and lindbladff.channel is m
    assert m.channel is channel and lindbladff.Channel is m.Channel


# ---------------------------------------------------------------------------
# Bitwise against the arithmetic of the per-method functions the table
# replaced: exact built exp(-t gaps^2 / 2) inline, dilated called the
# dilated kernel with default_steps(t, eps) or the given count, ff called
# gap_kernel on plan(t, eps, n); ``evolve`` reads one spectrum through
# ``level_kernel``, which interpolates past the node count
# ---------------------------------------------------------------------------

def reference(method, t, eps, steps, n, a, b):
    """The kernel on (a, b) and the cost, written as before the table."""
    if method == "exact":
        gaps = a[:, None] - b[None, :]
        return np.exp(-0.5 * t * gaps ** 2), CostReport(0.0, 0, 0)
    if method == "dilated":
        if steps is None:
            steps = default_steps(t, eps)
        steps = nk.require_count(steps, 1, "step count")
        nk.require_time(t)
        x = math.sqrt(t / steps) * (a[:, None] - b[None, :])
        c = np.cos(x)
        with np.errstate(divide="ignore"):
            far = np.sign(c) ** steps * np.exp(0.5 * steps * np.log1p(-np.sin(x) ** 2))
        kernel = np.where(np.abs(c) > 0.5, far, c ** steps)  # 1 - sin^2 x loses a small cos x
        # priced from sqrt(t) / sqrt(steps) where t / steps underflows to 0
        root = math.sqrt(t / steps) if t / steps > 0 else math.sqrt(t) / math.sqrt(steps)
        return kernel, CostReport(steps * root, steps, steps)
    p = plan(t, eps, n)
    return gap_kernel(p, a, b), ff_cost(p)


# t and eps at their edges and in the bulk: the smallest subnormal time, an
# eps^2 that underflows (refused), a t^3 / eps^2 that rounds up to one step,
# eps one ulp below 1 and near 2/e, where a two-count plan's window fraction
# reaches 1/2 (both refused by ``plan`` unless a count is given)
EDGES = [(5e-324, 1e-300), (5e-324, 1 - 2 ** -53), (1e-300, 0.5), (1e-100, 1e-100),
         (1e-12, 1e-9), (0.5, 2 / math.e), (1.0, math.nextafter(2 / math.e, 0.0)),
         (8.0, 1e-3), (1e-3, 0.999)]


@hst.composite
def arguments(draw):
    if draw(hst.booleans()):
        t, eps = draw(hst.sampled_from(EDGES))
    else:
        t, eps = draw(hst.floats(1e-3, 8.0)), draw(hst.floats(1e-3, 1.0, exclude_max=True))
    steps = draw(hst.one_of(hst.none(), hst.integers(1, 10 ** 9)))
    n = draw(hst.one_of(hst.none(), hst.integers(2, 10 ** 5)))
    return t, eps, steps, n


@settings(max_examples=80, deadline=None, database=None)
@given(case=jumps(), args=arguments(), mixed=hst.booleans())
@pytest.mark.parametrize("method", ["exact", "dilated", "ff"])
def test_table_is_bitwise_the_per_method_arithmetic(method, case, args, mixed):
    t, eps, steps, n = args
    f, rng = case
    ham = normalize_spectrum(f)
    x = random_density(rng, ham.dim) if mixed else random_state(rng, ham.dim)
    h = ham.eigenvalues
    other = rng.uniform(-1.0, 1.0, 3)
    steps, n = (steps if method == "dilated" else None), (n if method == "ff" else None)
    count = steps if method == "dilated" else n
    try:
        want_cost = reference(method, t, eps, steps, n, h, h)[1]
    except ValidationError as exc:
        with pytest.raises(ValidationError) as info:
            channel(method, t, eps, count)
        assert str(info.value) == str(exc)
        return
    chan = channel(method, t, eps, count)
    rho, cost = evolve(ham, x, chan)
    written = chan._replace(kernel=lambda a, b: reference(method, t, eps, steps, n, a, b)[0])
    want = ham.dephase(level_kernel(written, h), x if x.ndim == 1 else nk.require_density(x))
    assert np.array_equal(rho, want)
    assert cost == want_cost and type(cost.step_count) is int
    assert (chan.plan is not None) == (method == "ff")
    # the column form gibbs reads, and two distinct arrays of equal values
    for b in (np.zeros(1), h.copy(), other):
        assert np.array_equal(chan.kernel(h, b), reference(method, t, eps, steps, n, h, b)[0])


@pytest.mark.parametrize("n", (2, 3, 64, 2 ** 20, 2 ** 53))
def test_subnormal_time_is_priced_from_the_root_of_each(n):
    # t / N underflows to 0, so N sqrt(t / N) and P sqrt(t / N) once read 0.0;
    # sqrt(t) / sqrt(N) stays within two roundings of the exact root
    t = 5e-324
    for chan in (channel("dilated", t, None, n=n), channel("ff", t, 0.1, n=n)):
        count = chan.plan.period if chan.plan else chan.n
        exact = count * mpmath.sqrt(mpmath.mpf(t) / chan.n)
        assert abs(chan.cost.hamiltonian_time / exact - 1) <= 2.0 ** -51


# ---------------------------------------------------------------------------
# ``level_kernel`` against the direct kernel it interpolates, for every method
# ---------------------------------------------------------------------------

def edge_plans():
    """Plans with t, eps and N at their edges; plans ``plan`` refuses are left out."""
    plans = []
    for t, eps, n in itertools.product([1e-3, 0.5, 2.0, 8.0, 64.0], [0.9, 0.1, 1e-3, 1e-9],
                                       [None, 2, 16, 1024, 10**5, 10**7]):
        try:
            p = plan(t, eps, n)
        except ValidationError:
            continue
        plans.append(p)
    return plans


EDGE_PLANS = edge_plans()
# Rounding of the interpolated kernel against the direct one, in units of 1:
# at most 14.5 ulp measured for ff over 546 draws (L up to 512, M up to 174,
# both intervals), and at most 13.8 (exact) and 15.0 (dilated) over 1100
# draws each, 600 of them interpolated
BAND_ROUNDING = 24 * 2.0 ** -52
# The least eigenvalue of a kernel on L points, and its asymmetry, in units of
# L 2^-53 (each row sums L rounded entries): at most 8.4 (ff), 4.0 (exact) and
# 3.7 (dilated) measured over 150 draws of L <= 512, direct and interpolated
CHARACTERISTIC_ULPS = 32


def method_channel(method, p):
    """The ``method`` channel at plan p's t, with p's N as the dilated step count."""
    if method == "ff":
        return channel("ff", p.t, p.eps, n=p.n)
    if method == "dilated":
        return channel("dilated", p.t, None, n=p.n)
    return channel("exact", p.t, None)


def spectrum(rng, kind, low, levels):
    """``levels`` eigenvalues in [low, 1]: random with both ends present;
    clustered (pairs half or twice ``CLUSTER_RTOL`` apart); or degenerate
    (values repeated)."""
    h = rng.uniform(low, 1.0, levels)
    if kind == "random":
        h[:2] = low, 1.0
    elif kind == "clustered":
        pairs = levels // 2
        h[1::2] = h[0:2 * pairs:2] + rng.choice([-2.0, -0.5, 0.5, 2.0], pairs) * CLUSTER_RTOL
    else:
        h = rng.choice(h[:max(1, levels // 2)], levels)
    return np.clip(h, low, 1.0)


class TestBandLimitedKernel:
    def test_edge_plans_reach_both_paths(self):
        # every method interpolates below 512 levels on either interval for
        # some plans, and keeps the direct kernel at or below its node count
        assert len(EDGE_PLANS) >= 40
        for method in ("exact", "dilated", "ff"):
            counts = [node_count(method_channel(method, p), width, 10**4)
                      for p in EDGE_PLANS for width in (1.0, 2.0)]
            assert sum(m < 512 for m in counts) >= 60 and min(counts) >= 2

    @settings(max_examples=80, deadline=None, database=None)
    @given(p=hst.sampled_from(EDGE_PLANS), low=hst.sampled_from([0.0, -1.0]),
           kind=hst.sampled_from(["random", "clustered", "degenerate"]),
           above=hst.booleans(), share=hst.floats(0.0, 1.0), seed=hst.integers(0, 2**32 - 1))
    @pytest.mark.parametrize("method", ["exact", "dilated", "ff"])
    def test_matches_the_direct_kernel(self, method, p, low, kind, above, share, seed):
        # above the node count M of the full interval the kernel interpolates,
        # at or below it (the spectrum's own M may be smaller) it is the kernel
        chan = method_channel(method, p)
        m = node_count(chan, 1.0 - low, 10**4)
        if above and m < 512:
            levels = m + 1 + round(share * (511 - m))
        else:
            levels = 3 + round(share * (min(m, 512) - 3))
        h = spectrum(np.random.default_rng(seed), kind, low, levels)
        got, want = level_kernel(chan, h), chan.kernel(h, h)
        if node_count(chan, float(np.ptp(h)), levels) < levels:
            assert np.max(np.abs(got - want)) <= BAND_ROUNDING
        else:
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None, database=None)
    @given(method=hst.sampled_from(["exact", "dilated", "ff"]), p=hst.sampled_from(EDGE_PLANS),
           kind=hst.sampled_from(["random", "clustered"]),
           levels=hst.one_of(hst.integers(2, 64), hst.integers(65, 512)),
           seed=hst.integers(0, 2**32 - 1))
    def test_each_kernel_is_a_characteristic_function(self, method, p, kind, levels, seed):
        # K(a - b) = E e^{-i (a - b) theta} over a phase law, so K(0) = 1,
        # K(-gap) = conj K(gap) and K on any point set is positive semidefinite
        # (Bochner), the complete positivity of its Schur multiplier; the
        # direct kernel holds K(0) = 1 to an ulp (the ff terms k != 0 read
        # sin(pi k) of a rounded pi k) and its symmetry exactly, and the least
        # eigenvalue of either form stays within CHARACTERISTIC_ULPS L u of 0
        chan = method_channel(method, p)
        h = spectrum(np.random.default_rng(seed), kind, -1.0, levels)
        direct = chan.kernel(h, h)
        assert np.max(np.abs(np.diag(direct) - 1.0)) <= 2.0 ** -52
        assert np.array_equal(direct, direct.conj().T)
        band = level_kernel(chan, h)
        assert np.max(np.abs(np.diag(band) - 1.0)) <= BAND_ROUNDING
        floor = -CHARACTERISTIC_ULPS * levels * 2.0 ** -53
        assert np.max(np.abs(band - band.conj().T)) <= -floor
        for k in (direct, band):
            assert np.linalg.eigvalsh(0.5 * (k + k.conj().T))[0] >= floor

    def test_levels_on_or_beside_a_node_take_its_row(self):
        # 0 and 1 are the end nodes; 5e-324 overflows its row against node 0
        chan = channel("ff", 1.0, 0.1, n=10**7)
        h = np.concatenate(([0.0, 5e-324, 1.0], np.linspace(0.01, 0.99, 40)))
        got = level_kernel(chan, h)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - chan.kernel(h, h))) <= BAND_ROUNDING
