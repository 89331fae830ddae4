"""The numpy two-sample KS test against scipy, its oracle.

scipy comes with the `dev` extra and is read only here: the statistic must
carry scipy's bits, and each p-value branch must agree with scipy's value
to the tolerance of that branch.
"""

import math
import sys
import time
import warnings

import numpy as np
import pytest

from besov_robust import _ks

stats = pytest.importorskip("scipy.stats")


def best_time(fn, *args, repeat=3):
    """The shortest of `repeat` wall times of fn(*args), and its value."""
    best = math.inf
    for _ in range(repeat):
        t = time.perf_counter()
        value = fn(*args)
        best = min(best, time.perf_counter() - t)
    return best, value


def sample_pair(kind: str, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    x = rng.normal(size=n)
    y = rng.normal(size=n) + rng.choice([0.0, 0.05, 0.5])
    if kind == "ties":
        x, y = np.round(x, 1), np.round(y, 1)
    if kind == "disjoint":
        y = x.max() + 1.0 + rng.random(n)
    return x, y


@pytest.mark.parametrize("kind", ["random", "ties", "disjoint"])
@pytest.mark.parametrize("n", [3, 4, 7, 10, 64, 999, 10_000, 10_001, 20_000, 10**6])
def test_statistic_bits_equal_scipy(kind, n):
    rng = np.random.default_rng(n)
    for _ in range(1 if n > 20_000 else 5):
        x, y = sample_pair(kind, n, rng)
        with warnings.catch_warnings():
            # scipy's own exact evaluation rounding above 1 (see below)
            warnings.simplefilter("ignore", RuntimeWarning)
            want = stats.ks_2samp(x, y)
        d, p = _ks.ks_2samp(x, y)
        assert np.float64(d).view(np.int64) == np.float64(want.statistic).view(np.int64)
        if kind == "disjoint":
            assert d == 1.0
        if want.pvalue == 0.0:
            assert p == 0.0


def shifted_pair(n: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Two samples of size n whose statistic is exactly h/n."""
    x = np.arange(float(n))
    return x, x + (h - 0.5)


EXACT_GRID = [
    (n, h)
    for n in (3, 10, 37, 100, 999, 4096, 10_000)
    for h in sorted({2, 3, n // 50, n // 20, n // 8, n // 4, n // 2, n})
    if h >= 2
]


@pytest.mark.parametrize("n,h", EXACT_GRID)
def test_exact_branch_matches_scipy(n, h):
    x, y = shifted_pair(n, h)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        want = stats.ks_2samp(x, y)
    seconds, (d, p) = best_time(_ks.ks_2samp, x, y)
    assert d == want.statistic == h / n
    if caught:
        # scipy's exact tail rounded above 1 (see the next test)
        assert p == pytest.approx(1.0, rel=1e-12)
    elif want.pvalue < sys.float_info.min:
        assert p == 0.0
    else:
        assert p == pytest.approx(want.pvalue, rel=1e-12, abs=0.0)
    assert seconds < 5e-3


def test_subnormal_tail_is_zero():
    # below the smallest normal float a tail keeps too few bits to compare
    x, y = shifted_pair(10_000, 2648)
    assert 0.0 < _ks._exact_sf(10_000, 2648) < sys.float_info.min
    assert _ks.ks_2samp(x, y) == (0.2648, 0.0)


@pytest.mark.parametrize("n", [7, 13, 30])
def test_exact_tail_at_one_step_is_one(n):
    # P(D >= 1/n) = 1. scipy's nested product rounds above 1 at these n, so
    # scipy abandons it for the asymptotic law (which says 1 - 4e-5 at
    # n = 7); the exact tail here is 1.
    x, y = shifted_pair(n, 1)
    with pytest.warns(RuntimeWarning, match="Exact calculation unsuccessful"):
        want = stats.ks_2samp(x, y)
    assert _ks.ks_2samp(x, y) == (1 / n, 1.0)
    assert 0.9999 < want.pvalue <= 1.0


def kolmogorov_grid():
    """(N, d, branch, rel) points covering each branch of the tail at
    N = round(n/2) >= 5000, with the relative tolerance of the branch."""
    out = []
    every = (1e-4, 0.01, 0.1, 0.5, 0.7, 1.0, 2.0, 2.19, 2.2, 4.0, 16.0, 100.0, 300.0, 369.9, 370.0)
    for N in (5_000, 5_001, 20_000, 50_000, 100_001, 500_000):
        # scipy takes 0.6 s a Smirnov tail at N = 500,000
        for nd2 in every if N < 500_000 else (0.01, 0.7, 2.19, 2.2, 100.0):
            d = math.sqrt(nd2 / N)
            if N * d**2 >= 2.2:
                branch, rel = "smirnov", 1e-9
            elif N <= 100_000 and N * d**1.5 <= 1.4:
                branch, rel = "durbin", 1e-10
            else:
                branch, rel = "pelz-good", 1e-12
            out.append((N, d, branch, rel))
        out += [(N, 0.4 / N, "ruben-gambino", 0.0), (N, 0.75 / N, "ruben-gambino", 1e-12), (N, 1.0, "ruben-gambino", 0.0)]
    return out


@pytest.mark.parametrize("N,d,branch,rel", kolmogorov_grid())
def test_kolmogorov_branches_match_scipy(N, d, branch, rel):
    want = float(stats.kstwo.sf(d, N))
    # the Smirnov sum has N(1 - d) terms: 5 ms holds up to n = 10^5
    seconds, p = best_time(_ks._kolmogorov_sf, N, d, repeat=3 if N <= 50_000 else 1)
    if want < sys.float_info.min:
        assert p < sys.float_info.min
    else:
        assert p == pytest.approx(want, rel=rel, abs=0.0)
    if branch == "durbin":
        assert p > 1.0 - 1.1e-5
    if N <= 50_000:
        assert seconds < 5e-3


@pytest.mark.parametrize("n", [10_001, 10_002, 20_000, 100_000])
def test_large_samples_use_the_law_at_half_n(n):
    # N = round(n/2), halves to even: 10,001 gives 5,000
    rng = np.random.default_rng(n)
    x, y = rng.random(n), rng.random(n) ** 1.01
    d, p = _ks.ks_2samp(x, y)
    assert p == _ks._kolmogorov_sf(round(n / 2), d)
    assert p == pytest.approx(stats.ks_2samp(x, y).pvalue, rel=1e-10)


def test_unequal_sizes_refused():
    with pytest.raises(ValueError):
        _ks.ks_2samp(np.zeros(3), np.zeros(4))
