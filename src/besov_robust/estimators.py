"""Wavelet density estimators: linear, hard-thresholded, and adaptive.

All estimators share the same pipeline: empirical coefficients up to a top
level, optional hard thresholding of the fine levels, optional rescaling by
1/(1-eps) when the contamination proportion is known. The resolution
schedules take a sample size, a contamination level, and the smoothness
parameters of the generator and discriminator classes, and return integer
levels; the four schedules differ in which regime of the rate they target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .besov import BesovParams, conjugate
from .coefficients import CoefficientTree, _trial_size, empirical_coeffs
from .errors import RegimeMismatch
from .wavelets import WaveletFamily

KINDS = ("linear", "thresholded", "adaptive")
REGIMES = ("sparse-unstructured", "dense-unstructured", "structured", "linear-sparse")


@dataclass(frozen=True)
class EstimatorConfig:
    """Resolved estimator settings: levels, threshold constant, rescaling.

    `K` is the constant in the threshold t = K sqrt(j/n); K = 0 disables
    thresholding, turning the thresholded estimator into the linear one at
    j1. `rescale_epsilon`, when set, multiplies the final estimate by
    1/(1-eps), for use when the contamination proportion is known.
    """

    kind: str
    j0: int
    j1: int
    K: float = 1.0
    rescale_epsilon: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if not (0 <= self.j0 <= self.j1):
            raise ValueError(f"need 0 <= j0 <= j1, got ({self.j0}, {self.j1})")
        if self.kind == "linear" and self.j0 != self.j1:
            raise ValueError("the linear estimator keeps no thresholded levels: j0 must equal j1")
        if not self.K >= 0.0:
            raise ValueError("threshold constant must be nonnegative")
        if self.rescale_epsilon is not None and not (0.0 <= self.rescale_epsilon < 1.0):
            raise ValueError("rescale epsilon must lie in [0, 1)")


def _check_regime(
    regime: str, eps: float, gen: BesovParams, disc: BesovParams, dim: int
) -> tuple[float, float]:
    """The divisors (n_den, eps_den) of the regime's top level
    j1 = min(log2(n) / n_den, -log2(eps) / eps_den), once the regime's
    hypotheses hold and each divisor read is positive (eps = 0 reads no
    eps_den)."""
    if regime not in REGIMES:
        raise RegimeMismatch(f"unknown regime {regime!r}; choose from {REGIMES}")
    if eps > 0.0:
        # without contamination every schedule is a pure-n prescription and
        # the discriminator plays no role, so no ordering can be violated
        pd = conjugate(disc.p)
        if regime == "dense-unstructured":
            if pd > gen.p:
                raise RegimeMismatch(f"the dense schedule needs p_d'={pd} at most p_g={gen.p}")
        elif pd < gen.p:
            raise RegimeMismatch(
                f"sparse schedules need the dual exponent p_d'={pd} to be at least p_g={gen.p}"
            )
    s, dpg = gen.sigma, dim / gen.p
    if regime == "dense-unstructured":
        n_den, eps_den = 2.0 * s + dim, s + dim / disc.p
    else:
        n_den, eps_den = 2.0 * s + dim - 2.0 * dpg, s + dim - dpg
    if not n_den > 0.0 or (eps > 0.0 and not eps_den > 0.0):
        raise RegimeMismatch(
            f"the {regime} schedule divides log2(n) by {n_den} and -log2(eps) by {eps_den}; "
            "each divisor it reads must be positive"
        )
    return n_den, eps_den


def _floor_level(x: float) -> int:
    """A real-valued level prescription floored to a level >= 0; the 1e-12
    lets exact powers of two land on their integer."""
    return max(0, math.floor(x + 1e-12))


def choose_resolutions(
    n: int, eps: float, gen: BesovParams, disc: BesovParams, dim: int, regime: str
) -> tuple[int, int]:
    """Integer resolution levels (j0, j1) for the requested regime.

    Levels are floors of real-valued prescriptions, computed in log2 space
    (`_floor_level`). eps = 0 drops the contamination cap. The dense and
    linear-sparse schedules keep one level, j0 = j1.
    """
    if n < 2:
        raise ValueError("need at least two samples to pick a resolution")
    if not (0.0 <= eps < 1.0):
        raise ValueError("contamination level must lie in [0, 1)")
    n_den, eps_den = _check_regime(regime, eps, gen, disc, dim)
    ln = math.log2(n)
    top = ln / n_den
    if eps > 0.0:
        top = min(top, -math.log2(eps) / eps_den)
    j1 = _floor_level(top)
    if regime in ("sparse-unstructured", "structured"):
        # heavy contamination caps j1 below the variance-optimal j0; the
        # whole estimator coarsens rather than j1 being pulled back up
        return min(_floor_level(ln / (2.0 * gen.sigma + dim)), j1), j1
    return j1, j1


def _rescaled(tree: CoefficientTree, eps: float | None) -> CoefficientTree:
    if not eps:
        return tree
    factor = 1.0 / (1.0 - eps)
    out = CoefficientTree(tree.family, tree.dim, tree.alpha * factor, tree.trials)
    for j in tree.levels():
        out.set_level_array(j, tree.level_array(j) * factor)
    return out


def apply_threshold(tree: CoefficientTree, j0: int, K: float, n: int) -> CoefficientTree:
    """Hard-threshold levels above j0 at t = K sqrt(j/n), two-sided; n is
    the sample size of one trial."""
    out = CoefficientTree(tree.family, tree.dim, tree.alpha, tree.trials)
    for j in tree.levels():
        lev = tree.level_array(j)
        if j > j0:
            lev = np.where(np.abs(lev) <= K * math.sqrt(j / n), 0.0, lev)
        else:
            lev = lev.copy()
        out.set_level_array(j, lev)
    return out


def estimate_linear(
    samples, family: WaveletFamily, config: EstimatorConfig, trials: int | None = None
) -> CoefficientTree:
    """Empirical coefficients truncated at j0, optionally rescaled."""
    if config.kind != "linear":
        raise ValueError(f"linear estimator called with kind={config.kind!r}")
    tree = empirical_coeffs(samples, family, config.j0, config.j0, trials)
    return _rescaled(tree, config.rescale_epsilon)


def estimate_thresholded(
    samples, family: WaveletFamily, config: EstimatorConfig, trials: int | None = None
) -> CoefficientTree:
    """Keep levels up to j0, hard-threshold (j0, j1], then rescale."""
    if config.kind not in ("thresholded", "adaptive"):
        raise ValueError(f"thresholded estimator called with kind={config.kind!r}")
    tree = empirical_coeffs(samples, family, config.j0, config.j1, trials)
    tree = apply_threshold(tree, config.j0, config.K, _trial_size(samples, trials))
    return _rescaled(tree, config.rescale_epsilon)


def estimate(
    samples, family: WaveletFamily, config: EstimatorConfig, trials: int | None = None
) -> CoefficientTree:
    """Run the estimator `config.kind` names; adaptive configs are thresholded.

    With `trials=T`, samples holds T samples of equal size one after
    another, as one array or in chunks of whole trials, and the result is
    the block of their T estimates (`empirical_coeffs`), each bit-identical
    to estimating that sample alone."""
    if config.kind == "linear":
        return estimate_linear(samples, family, config, trials)
    return estimate_thresholded(samples, family, config, trials)


def adaptive_config(n: int, r: int, dim: int, K: float = 1.0) -> EstimatorConfig:
    """The schedule that needs only the family regularity, not sigma or eps.

    2^{j0} = n^{1/(2r+D)} and 2^{j1} = (n / ln n)^{1/D}, floored.
    """
    if n < 3:
        raise ValueError("the adaptive schedule needs n >= 3")
    if r < 0:
        raise ValueError("regularity must be nonnegative")
    j0 = _floor_level(math.log2(n) / (2.0 * r + dim))
    j1 = _floor_level(math.log2(n / math.log(n)) / dim)
    return EstimatorConfig("adaptive", j0, max(j0, j1), K=K)
