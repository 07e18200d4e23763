import re

import numpy as np
import pytest

from lindbladff import ValidationError, bernstein_bound, binomial_tail, hoeffding_bound
from lindbladff.errors import CapacityError

from conftest import log_binom
from oracles import dml_gap


def test_worked_tail_exact():
    # m in {0,1,2,8,9,10}: (1+10+45)*2 = 112 states of 1024
    assert abs(binomial_tail(10, 0.5, 0.3) - 112 / 1024) <= 1e-12


def test_poisson_like_tail_is_exact():
    # m >= 13 at N p = 0.00694, about 156 sigma out, where the pmf is near
    # 1.4e-38; the value is mpmath's sum of the exact pmf at 50 digits
    tail = binomial_tail(10 ** 4, 6.940202013585375e-07, 0.0012)
    assert abs(tail - 1.3720600346455590e-38) <= 1e-13 * 1.3720600346455590e-38


def test_tail_edge_cases():
    assert np.isclose(binomial_tail(10, 0.5, 0.0), 1.0)
    assert binomial_tail(10, 0.5, 0.6) == 0.0  # beyond max(p, 1-p)


def test_worked_bernstein_value():
    # 2 exp(-0.9 / 0.325), frozen from direct evaluation
    val = bernstein_bound(10, 0.5, 0.3)
    assert np.isclose(val, 0.12542044965614335, atol=1e-12)
    assert np.isclose(val, 2 * np.exp(-0.9 / 0.325), atol=1e-15)
    assert bernstein_bound(10, 0.5, 0.0) == 2.0


def test_worked_hoeffding_value():
    val = hoeffding_bound(10, 0.3)
    assert np.isclose(val, 2 * np.exp(-1.8), atol=1e-15)
    assert np.isclose(val, 0.33060, atol=5e-6)
    assert hoeffding_bound(10, 0.0) == 2.0


def test_worked_chain_ordering():
    tail = binomial_tail(10, 0.5, 0.3)
    assert tail <= bernstein_bound(10, 0.5, 0.3) <= hoeffding_bound(10, 0.3)


def test_hoeffding_grid_no_violations():
    for n in range(2, 201):
        for c in [0.05, 0.15, 0.25, 0.35, 0.45]:
            assert binomial_tail(n, 0.5, c) <= hoeffding_bound(n, c) + 1e-15, (n, c)


def test_bernstein_form_counterexample_pinned():
    # The p(1-p)/2 denominator makes this bound tighter than true Bernstein
    # (whose denominator is 2 p(1-p) + 2c/3), and the exact tail exceeds it on
    # part of the grid; the smallest counterexample is pinned here, and the
    # true-variance form is checked to hold at the same points.
    tail = binomial_tail(16, 0.5, 0.25)
    assert tail > bernstein_bound(16, 0.5, 0.25)
    assert tail <= 2 * np.exp(-16 * 0.25 ** 2 / (2 * 0.25 + 2 * 0.25 / 3))
    tail = binomial_tail(25, 0.3, 0.25)
    assert tail > bernstein_bound(25, 0.3, 0.25)
    assert tail <= 2 * np.exp(-25 * 0.25 ** 2 / (2 * 0.21 + 2 * 0.25 / 3))


def test_true_variance_bernstein_grid_no_violations():
    for n in range(2, 201, 7):
        for p in [0.1, 0.3, 0.5, 0.7, 0.9]:
            for c in [0.05, 0.15, 0.25, 0.35, 0.45]:
                tail = binomial_tail(n, p, c)
                true_form = 2 * np.exp(-n * c ** 2 / (2 * p * (1 - p) + 2 * c / 3))
                assert tail <= true_form + 1e-15, (n, p, c)


def test_tail_monotone_in_c():
    cs = np.linspace(0.0, 0.6, 25)
    tails = [binomial_tail(60, 0.4, float(c)) for c in cs]
    assert all(a >= b - 1e-15 for a, b in zip(tails, tails[1:]))


def test_dml_gap_attained_near_mode():
    n, p = 40, 0.5
    m = np.arange(n + 1)
    pmf = np.exp(log_binom(n, m) - n * np.log(2))
    pdf = np.exp(-((m - 20) ** 2) / (2 * 10)) / np.sqrt(2 * np.pi * 10)
    argmax = int(np.argmax(np.abs(pmf - pdf)))
    assert abs(argmax - 20) <= 3
    assert np.isclose(dml_gap(n, p), np.max(np.abs(pmf - pdf)), atol=1e-15)


def test_validation():
    with pytest.raises(ValidationError):
        binomial_tail(10, 1.5, 0.1)
    with pytest.raises(ValidationError):
        binomial_tail(10, 0.5, -0.1)
    with pytest.raises(ValidationError):
        dml_gap(10, 0.0)


@pytest.mark.parametrize("n,p,c,message", [
    (-3, 0.5, 0.1, "N must be >= 0, got -3"),
    (10, float("nan"), 0.1, "p must be in [0, 1], got nan"),
    (10, 0.5, -0.1, "c must be nonnegative, got -0.1"),
    (10, 0.5, float("nan"), "c must be finite, got nan"),
    (10, 0.5, float("inf"), "c must be finite, got inf"),
])
def test_tail_rejects_with_one_message(n, p, c, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        binomial_tail(n, p, c)


def test_tail_beyond_memory_is_rejected_before_any_array():
    with pytest.raises(CapacityError, match="^binomial tail needs .* at N = 100000000000,"):
        binomial_tail(10 ** 11, 0.5, 0.1)
