"""Per-level cost of the empirical wavelet transform, outside any workload.

Usage: python3 perfbench/levels.py SEED RESULT.json

Times `empirical_coeffs(x, family, 0, j)` for j = 0..j_max on two fixed
configurations and writes the increment t(j) - t(j-1), the cost that level j
adds, as `coefficients.empirical_level_s.<config>.j<j>`. Each t(j) is the
fastest of a config's repeated calls on one uniform sample drawn from SEED;
the fastest call is the one least disturbed by other processes.
"""

import json
import math
import sys
import time

import numpy as np

from besov_robust.coefficients import empirical_coeffs
from besov_robust.wavelets import wavelet_family

# (family, D, n, j_max, repeats per level)
CONFIGS = (("db3", 1, 2**14, 12, 9), ("db2", 2, 2**16, 7, 2))


def config_name(family: str, dim: int, n: int) -> str:
    return f"{family}-d{dim}-n{n}"


def profile(seed: int) -> dict[str, float]:
    out = {}
    for family, dim, n, j_max, repeats in CONFIGS:
        fam = wavelet_family(family)
        x = np.random.default_rng(seed).random((n, dim))
        empirical_coeffs(x, fam, 0, 0)  # warm caches before timing
        best = [math.inf] * (j_max + 1)
        # Each repeat sweeps all levels, so the calls for one level fall at
        # different moments of the machine's load rather than back to back.
        for _ in range(repeats):
            for j in range(j_max + 1):
                t0 = time.perf_counter()
                empirical_coeffs(x, fam, 0, j)
                best[j] = min(best[j], time.perf_counter() - t0)
        for j in range(j_max + 1):
            added = best[j] - (best[j - 1] if j else 0.0)
            out[f"coefficients.empirical_level_s.{config_name(family, dim, n)}.j{j}"] = added
    return out


if __name__ == "__main__":
    with open(sys.argv[2], "w") as fh:
        json.dump(profile(int(sys.argv[1])), fh)
