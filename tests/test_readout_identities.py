"""The fast-forward mechanism as two identities, through the public API.

Address m of the register has probability pmf(m) = C(N, m) / 2^N and drives
e^(-i H sqrt(t/N) (2 r(m) - P)).  Inside the plan's window [lo, hi] that
phase is 2m - N, the dilated step's own, and summed over every address the
dilated phases give cos(sqrt(t/N) gap)^N, the ``dilated`` kernel at N steps.
So the ``ff`` channel and the ``dilated`` channel at the plan's t and N are
mixtures of the same unitary conjugations except on the addresses outside
the window, whose mass is out:

* every entry of the two gap kernels differs by at most 2 out;
* the two count distributions of ``estimate`` differ by at most 2 sqrt(out)
  in total variation;

and where the window covers every address (out = 0) they agree to rounding.
The draws reach the edges of t (a subnormal and a tiny t, whose t / N
underflows, and t = 1024) and of eps (0.999).  A plan that ``plan`` refuses
is assumed away, and so is a readout draw outside ``estimate``'s range.  None
of them counts as a pass.
"""

import itertools
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from lindbladff import ValidationError, decompose_state, estimate, normalize_spectrum
from lindbladff.channel import channel, level_kernel, node_count
from lindbladff.model import CLUSTER_RTOL

from conftest import log_binom, random_state

# Register counts (odd ones are rounded up by the plan), target errors and
# times of the draws: full windows at small N and eps, narrow ones elsewhere,
# and the edges of eps and t.
COUNTS = [2, 3, 4, 16, 64, 255, 1024, 4096]
EPS = [0.999, 0.5, 1e-2, 1e-3, 1e-6, 1e-12]
TIMES = [5e-324, 1e-300, 0.5, 2.0, 16.0, 64.0, 1024.0]
EDGES = [("eps", 0.999), ("t", 5e-324), ("t", 1e-300), ("t", 1024.0)]

# Rounding allowed on top of each bound: at most 6 ulp of 1 measured between
# the kernels on full windows (4 ulp beyond 2 out on narrow ones), and a total
# variation of 2.7e-16 between full-window distributions.
KERNEL_ROUNDING = 16 * 2.0 ** -52
TV_ROUNDING = 1e-14


def channels(t, eps, n):
    """The ``ff`` channel and the ``dilated`` channel at its plan's t and N, or
    None where ``plan`` refuses the window (c*N < 1: eps = 0.999 at N = 2)."""
    try:
        ff = channel("ff", t, eps, n=n)
    except ValidationError as exc:
        if str(exc).startswith("window c*N = "):
            return None
        raise
    return ff, channel("dilated", ff.t, None, n=ff.n)


def grid():
    """(n, eps, t, plan) of every plan of the grid that ``plan`` accepts."""
    for n, eps, t in itertools.product(COUNTS, EPS, TIMES):
        if (pair := channels(t, eps, n)) is not None:
            yield n, eps, t, pair[0].plan


def outside_mass(p):
    """Binomial(N, 1/2) mass outside ``p.window``, summed term by term: one
    minus the inside mass would lose it to cancellation."""
    lo, hi = p.window
    m = np.arange(p.n + 1)
    outside = m[(m < lo) | (m > hi)]
    return float(np.sum(np.exp(log_binom(p.n, outside) - p.n * math.log(2.0))))


def in_range(p):
    """``estimate``'s range for spectra in [-1, 1]: sqrt(t/N) <= pi/2."""
    return math.sqrt(p.t / p.n) <= 0.5 * math.pi


@hst.composite
def spectra(draw):
    """Eigenvalues in [-1, 1]: random; clustered (pairs half or twice the
    clustering tolerance apart, merged or kept by ``normalize_spectrum``);
    or degenerate (values repeated).  Up to 64 of them, past the node count
    of many plans, where the ``ff`` kernel is interpolated (``level_kernel``)."""
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    dim = draw(hst.one_of(hst.integers(2, 6), hst.integers(7, 64)))
    h = rng.uniform(-1.0, 1.0, dim)
    kind = draw(hst.sampled_from(["random", "clustered", "degenerate"]))
    if kind == "clustered":
        pairs = dim // 2
        h[1::2] = h[0:2 * pairs:2] + rng.choice([-2.0, -0.5, 0.5, 2.0], pairs) * CLUSTER_RTOL
    elif kind == "degenerate":
        h = rng.choice(h[:max(1, dim // 2)], dim)
    return np.clip(h, -1.0, 1.0), rng


def test_draws_cover_full_and_narrow_windows():
    full = narrow = 0
    for n, eps, t, p in grid():
        if in_range(p):
            full += p.full_window
            narrow += not p.full_window and outside_mass(p) > TV_ROUNDING
    assert full >= 10 and narrow >= 10, (full, narrow)


def test_draws_reach_the_band_limited_kernel():
    # the node count over [-1, 1] is below 64 levels for most plans of the grid
    below = sum(node_count(channels(t, eps, n)[0], 2.0, 10 ** 4) < 64 for n, eps, t, _ in grid())
    assert below >= 100, below


def test_draws_reach_every_edge_in_range():
    # each edge keeps plans in estimate's range; only the window c*N < 1 is refused
    reached = dict.fromkeys(EDGES, 0)
    for n, eps, t, p in grid():
        for name, value in EDGES:
            reached[name, value] += {"eps": eps, "t": t}[name] == value and in_range(p)
    assert min(reached.values()) >= 2, reached
    refused = [(n, eps, t) for n, eps, t in itertools.product(COUNTS, EPS, TIMES)
               if channels(t, eps, n) is None]
    assert refused == [(2, 0.999, t) for t in TIMES], refused


@settings(max_examples=200, deadline=None, database=None)
@given(case=spectra(), n=hst.sampled_from(COUNTS), eps=hst.sampled_from(EPS),
       t=hst.sampled_from(TIMES))
def test_ff_kernel_is_the_dilated_kernel_within_twice_the_outside_mass(case, n, eps, t):
    h, rng = case
    pair = channels(t, eps, n)
    assume(pair is not None)
    ff, dilated = pair
    out = outside_mass(ff.plan)
    assert out == 0.0 or not ff.plan.full_window
    # At t = 1024 outside estimate's range (N <= 255) the phases reach 45-90 rad,
    # and the two kernels differ by those arguments' own rounding, up to 3.7e-15
    # past KERNEL_ROUNDING at N = 2, each kernel within 3.6e-15 of 50-digit
    # mpmath.  So the phases' own rounding is allowed too, 2^-52 B |a - b| for
    # the plan's Hamiltonian time B: over 59,220 checks on the grid, 111 of them
    # past KERNEL_ROUNDING, the worst excess was 0.11 of that term.
    phase = 2.0 ** -52 * ff.cost.hamiltonian_time
    # the spectrum's own kernel (interpolated past its node count), a column, and a block
    other = rng.uniform(-1.0, 1.0, 3)
    for got, b in ((level_kernel(ff, h), h), (ff.kernel(h, np.zeros(1)), np.zeros(1)),
                   (ff.kernel(h, other), other)):
        gap = np.max(np.abs(got - dilated.kernel(h, b)))
        spread = np.max(np.abs(h[:, None] - b))
        assert gap <= 2.0 * out + KERNEL_ROUNDING + phase * spread, (gap, out, phase * spread)


@settings(max_examples=150, deadline=None, database=None)
@given(case=spectra(), n=hst.sampled_from(COUNTS), eps=hst.sampled_from(EPS),
       t=hst.sampled_from(TIMES))
def test_fast_readout_is_the_slow_readout_within_twice_the_root_outside_mass(case, n, eps, t):
    h, rng = case
    pair = channels(t, eps, n)
    assume(pair is not None and in_range(pair[0].plan))
    ff, dilated = pair
    q, _ = np.linalg.qr(rng.normal(size=(h.size, h.size)) + 1j * rng.normal(size=(h.size, h.size)))
    ham = normalize_spectrum((q * h) @ q.conj().T)
    st = decompose_state(random_state(rng, ham.dim), ham)
    fast, slow = estimate(ham, st, ff).distribution, estimate(ham, st, dilated).distribution
    tv = 0.5 * float(np.sum(np.abs(fast - slow)))
    assert tv <= 2.0 * math.sqrt(outside_mass(ff.plan)) + TV_ROUNDING, tv
