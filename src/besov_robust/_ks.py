"""Two-sample Kolmogorov-Smirnov test for two samples of one size n, in numpy,
with the p-value branches of `scipy.stats.ks_2samp`: for n <= EXACT_MAX_N the
exact null of Hodges (Ark. Mat. 3, 1958), above it the Kolmogorov law at
N = round(n/2) in the regions of Simard & L'Ecuyer (J. Stat. Softw. 39(11),
2011), with the Pelz-Good series (JRSS-B 38, 1976) also where scipy uses the
Durbin matrix (N <= 100,000, N d^1.5 <= 1.4): they differ by < 1e-10 there.
"""

from __future__ import annotations

import math
import sys

import numpy as np

EXACT_MAX_N = 10_000


def ks_2samp(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(statistic, p-value) of the two-sided KS test of 1-d samples of one size n:
    max |F_x - F_y| over the pooled points, or h/n for n <= EXACT_MAX_N, with
    scipy's bits, and a p-value that is 0 below the smallest normal float."""
    n = x.size
    if y.size != n or n < 1:
        raise ValueError(f"the samples need one positive size, got {x.size} and {y.size}")
    x, y = np.sort(x), np.sort(y)
    d = 0.0
    for points in (x, y):  # the pooled sample, one half at a time
        gap = np.searchsorted(x, points, "right") / n
        gap -= np.searchsorted(y, points, "right") / n
        d = max(d, float(np.abs(gap, out=gap).max()))
    h = round(d * n)
    d, p = (h / n, _exact_sf(n, h)) if n <= EXACT_MAX_N else (d, _kolmogorov_sf(round(n / 2), d))
    return d, p if p >= sys.float_info.min else 0.0


def _exact_sf(n: int, h: int) -> float:
    """P(D_{n,n} >= h/n) = 2 sum_{k>=1} (-1)^{k-1} A_k, A_k = C(2n, n-kh) / C(2n, n),
    as 2 r_0 (1 - r_1 (1 - ...)) with no alternating sum to cancel: the ratios
    r_k = A_{k+1} / A_k = prod_{i<h} (n - kh - i) / (n + kh + i + 1) are below 1,
    and 0 from k = n // h on."""
    if h <= 0:
        return 1.0
    kh, i = h * np.arange(n // h)[:, None], np.arange(h)
    tail = 0.0
    for r in np.prod((n - kh - i) / (n + kh + i + 1.0), axis=1)[::-1].tolist():
        tail = r * (1.0 - tail)
    return min(1.0, 2.0 * tail)


def _kolmogorov_sf(N: int, d: float) -> float:
    """P(D_N >= d) for N >= 5,000, where N d >= N - 1 and d >= 1/2 imply N d^2 >= 370."""
    t = N * d
    if t <= 1.0:  # Ruben-Gambino: P(D_N < d) = N!/N^N max(0, 2t - 1)^N <= sqrt(2 pi N) e^-N
        return 1.0
    if t * d >= 370.0:
        return 0.0
    if t * d >= 2.2:
        return min(1.0, 2.0 * _smirnov_sf(N, d))
    return min(1.0, max(0.0, 1.0 - _pelz_good_cdf(N, d)))


def _stirling_error(x: np.ndarray) -> np.ndarray:
    """lgamma(x + 1) - (x + 1/2) log x + x - log(2 pi) / 2 by its series: within 1e-16
    from x = 16 on, 6e-4 at x = 1. Only j falls below 16, in Smirnov terms under
    e^-54 of their sum at N >= 5,000."""
    r2 = 1.0 / (x * x)
    return (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 * (1 / 1680 - r2 / 1188)))) / x


def _smirnov_sf(N: int, d: float) -> float:
    """P(D_N^+ >= d) = (1-d)^N + sum_{1 <= j < N(1-d)} (d/p) C(N, j) p^j (1-p)^(N-j), p = d + j/N
    (Birnbaum-Tingey), 50 ns a term. With a = N d, m = N - j, a term's log is j log1p(a/j) +
    m log1p(-a/m) + log(a sqrt(N/(2 pi j m))/(a+j)) + Stirling errors (Loader 2000)."""
    a = N * d
    j = np.arange(1.0, math.ceil(N - a))
    m = N - j
    log_terms = j * np.log1p(a / j)
    log_terms += m * np.log1p(-a / m)
    log_terms += np.log(a * math.sqrt(N / (2.0 * math.pi)) / ((a + j) * np.sqrt(j * m)))
    log_terms += _stirling_error(np.array([float(N)])) - _stirling_error(j) - _stirling_error(m)
    return math.exp(N * math.log1p(-d)) + float(np.exp(log_terms, out=log_terms).sum())


def _pelz_good_cdf(N: int, d: float) -> float:
    """P(D_N < d) = sqrt(2 pi) (K_0 + K_1/sqrt(N) + K_2/N + K_3/N^{3/2}) at z = d sqrt(N),
    the theta sums folded to w = pi^2 (k + 1/2)^2, k >= 0, and v = pi^2 k^2,
    k >= 1; at N d^2 < 2.2 the 12th term is below e^-297 of the first."""
    z = d * math.sqrt(N)
    z2 = z * z
    w = (math.pi * (np.arange(12) + 0.5)) ** 2
    v = (math.pi * np.arange(1.0, 13)) ** 2
    e, f = np.exp(-w / (2.0 * z2)), np.exp(-v / (2.0 * z2))
    k0 = e.sum() / z
    k1 = np.polyval([1.0, -z2], w) @ e / (6.0 * z2**2)
    k2 = (np.polyval([1.0 - 2.0 * z2, 2.0 * z2**2 - 5.0 * z2, 6.0 * z2**3 + 2.0 * z2**2], w) @ e / (72.0 * z**7)
          - v @ f / (36.0 * z**3))
    k3 = (np.polyval([5.0 - 30.0 * z2, 212.0 * z2**2 - 60.0 * z2, 135.0 * z2**2 - 96.0 * z2**3,
                      -30.0 * z2**3 - 90.0 * z2**4], w) @ e / (6480.0 * z**10)
          + np.polyval([-1.0, 3.0 * z2, 0.0], v) @ f / (216.0 * z**6))
    root = math.sqrt(N)
    return math.sqrt(2.0 * math.pi) * float(k0 + (k1 + (k2 + k3 / root) / root) / root)
