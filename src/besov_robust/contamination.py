"""Huber-contaminated sampling and indistinguishable adversarial density pairs.

`sample_huber` is the package's one sampler of the Huber mixture
(1-eps) p + eps g; `ContaminationSpec` names eps, the contaminator g and
whether g is sup-norm bounded. The pair constructors build two truths
(p, p~) and two contaminators (g, g~) whose Huber mixtures coincide exactly:
(1-eps) p + eps g = (1-eps) p~ + eps g~. Data drawn from the common mixture
carries no information about which truth produced it, so any estimator must
pay at least half the separation between the truths against one of them.
Both constructions perturb the uniform base with a single daughter wavelet,
which keeps every membership and mass check closed-form, and for the Haar
family the contaminators are realized exactly as dyadic piecewise-constant
densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .besov import BesovParams, besov_norm
from .coefficients import (
    PiecewiseConstant,
    SpikePerturbation,
    exact_coeffs,
    tree_axpy,
    uniform_density,
)
from .errors import BallViolation, InfeasibleEpsilon, NotSupBounded
from .wavelets import WaveletFamily, WaveletIndex, eval_wavelet

MODES = ("structured", "unstructured")
# Points of the midpoint grid on which `grid_sup` checks a contaminator
_GRID_SUP_POINTS = 32768
# Level of the per-axis KS test in `verify_indistinguishable`, before the
# Bonferroni split over the D axes
_KS_ALPHA = 0.01


def grid_sup(model) -> float:
    """Max of the pdf over a uniform midpoint grid of about _GRID_SUP_POINTS points."""
    d = model.dim
    per_axis = max(2, int(round(_GRID_SUP_POINTS ** (1.0 / d))))
    axis = (np.arange(per_axis) + 0.5) / per_axis
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    return float(np.max(model.pdf(pts)))


@dataclass(frozen=True)
class ContaminationSpec:
    """How the data is contaminated: a proportion eps of the sample comes from
    the explicit contaminating density `g`.

    "structured" additionally certifies the sup-norm budget M against a grid
    check; "unstructured" puts no bound on g. An M given with either mode
    must be a positive number.
    """

    eps: float
    mode: str = "unstructured"
    g: object = None
    M: Optional[float] = None

    def __post_init__(self):
        if not (0.0 <= self.eps < 1.0):
            raise ValueError("contamination proportion must lie in [0, 1)")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.g is None:
            raise ValueError(f"{self.mode} contamination needs an explicit density g")
        if self.M is not None and not self.M > 0.0:
            raise ValueError(f"the sup-norm budget M must be positive, got {self.M}")
        if self.mode == "structured":
            if self.M is None:
                raise ValueError("structured contamination needs a sup-norm budget M > 0")
            seen = grid_sup(self.g)
            if seen > self.M * (1.0 + 1e-9):
                raise NotSupBounded(
                    f"contaminator reaches {seen:.6g} on the check grid, over the budget {self.M}"
                )


def sample_huber(p_model, g_model, eps: float, n: int, seed_or_rng) -> np.ndarray:
    """Draw n points from the contaminated mixture (1-eps) p + eps g.

    Each point independently comes from g with probability eps. Component
    draws use the child streams i = 0, 1, 2 (mask, p, g) of the seed, so
    eps=0 reproduces the pure-p sample for the same seed. Child i is built
    directly as SeedSequence(seed, spawn_key=(i,)), which has the state of
    SeedSequence(seed).spawn(3)[i] without building the root and the other
    children, and only the children read are built. An unseeded call
    (None) draws one root entropy and builds its children from it, so its
    three streams still share one root.

    Work that changes no bit is skipped. With child streams (an int or tuple
    seed) and eps = 0 the mask is all False and its stream feeds nothing
    else, so it is not drawn and p's draw is returned. Whenever no point
    falls to g, p's draw is the whole sample: it is returned without the
    scatter into a fresh array, and g's stream is not built. A shared
    Generator still draws the mask first, because that advances the stream
    every later draw reads.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError("contamination level must lie in [0, 1)")
    shared = isinstance(seed_or_rng, np.random.Generator)
    if shared:
        p_rng = seed_or_rng
        mask = seed_or_rng.random(n) < eps
    else:
        entropy = np.random.SeedSequence().entropy if seed_or_rng is None else seed_or_rng

        def child(i: int) -> np.random.Generator:
            return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(i,)))

        p_rng = child(1)
        if eps == 0.0:
            return p_model.sample(n, p_rng)
        mask = child(0).random(n) < eps
    n_g = int(np.count_nonzero(mask))
    if n_g == 0:
        return p_model.sample(n, p_rng)
    p_draw = p_model.sample(n - n_g, p_rng)
    g_draw = g_model.sample(n_g, p_rng if shared else child(2))
    out = np.empty((n, p_model.dim))
    keep = ~mask
    for a in range(p_model.dim):  # 1-d boolean copies run 2-3x faster than row copies
        out[:, a][keep] = p_draw[:, a]
        out[:, a][mask] = g_draw[:, a]
    return out


def adversarial_spike_pair(
    gen: BesovParams, disc: BesovParams, eps: float, dim: int, family: WaveletFamily
):
    """Two truths a level-j daughter apart, with contaminators absorbing the gap.

    The level is the smallest j with 2^{-j(sigma_g + D - D/p_g)} <= eps, which
    makes the transferred mass ||h||_1 = ((1-eps)/eps) c_g ||psi||_1 at most 1.
    Returns (p, p_tilde, g, g_tilde, predicted_separation) where the
    separation is the exact IPM between the truths: L_d * c_g * 2^{-j sigma_d'}.
    """
    if not family.is_haar:
        raise ValueError("exact flat realizations of the pair need the Haar family")
    dpg = 0.0 if gen.p == math.inf else dim / gen.p
    if gen.sigma < dpg:
        raise ValueError(f"the spike construction needs sigma_g >= D/p_g, got {gen.sigma} < {dpg}")
    if eps <= 0.0:
        raise InfeasibleEpsilon("the construction needs a positive contamination budget")
    margin = min(1.0, gen.L - 1.0)
    if margin <= 0.0:
        raise BallViolation("the generator ball must have radius above 1 to fit the uniform base")
    denom = gen.sigma + dim - dpg
    j = max(0, math.ceil(-math.log2(eps) / denom - 1e-12))
    sig_g = gen.sigma_prime(dim)
    c_g = margin * min(2.0 ** (-dim * j / 2.0), 2.0 ** (-j * sig_g))
    idx = WaveletIndex(j, (0,) * dim, (1,) * dim)

    base = uniform_density(dim)
    p_tilde = SpikePerturbation(base, family, idx, c_g)
    if besov_norm(exact_coeffs(p_tilde, family, j), gen) > gen.L * (1.0 + 1e-12):
        raise BallViolation("perturbed truth left the generator ball")

    h_amp = (1.0 - eps) / eps * c_g
    l1 = h_amp * 2.0 ** (-dim * j / 2.0)
    if l1 > 2.0 + 1e-12:
        raise InfeasibleEpsilon(
            f"the contaminators would need L1 mass {l1:.3g} > 2 at level {j}"
        )
    s = j + 1
    axis = (np.arange(2**s) + 0.5) / 2**s
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    h_vals = h_amp * eval_wavelet(family, idx, pts)
    slack = 1.0 - l1 / 2.0
    shape = (2**s,) * dim
    g = PiecewiseConstant((np.maximum(h_vals, 0.0) + slack).reshape(shape), s)
    g_tilde = PiecewiseConstant((np.maximum(-h_vals, 0.0) + slack).reshape(shape), s)

    c_d = 2.0 ** (-j * disc.sigma_prime(dim))
    predicted = disc.L * c_g * c_d
    return base, p_tilde, g, g_tilde, predicted


def lecam_structured_pair(
    gen: BesovParams, eps: float, idx: WaveletIndex, family: WaveletFamily
):
    """A two-point pair whose truths differ by eps times a fixed daughter.

    p is uniform and p~ = p + eps c psi; the contaminators g = p + (1-eps) c psi
    and g~ = p make the mixtures agree identically. The separation is linear
    in eps by construction, and g stays bounded: ||g||_inf <= 2.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("the two-point pair needs eps in (0, 1)")
    dim = len(idx.k)
    sup = family.daughter_sup(idx)
    room = (gen.L - 1.0) * 2.0 ** (-idx.j * gen.sigma_prime(dim))
    c = min(1.0 / sup, room)
    if c <= 0.0:
        raise BallViolation("the generator ball must have radius above 1 to fit the uniform base")
    base = uniform_density(dim)
    p_tilde = SpikePerturbation(base, family, idx, eps * c)
    g = SpikePerturbation(base, family, idx, (1.0 - eps) * c)
    if besov_norm(exact_coeffs(p_tilde, family, idx.j), gen) > gen.L * (1.0 + 1e-12):
        raise BallViolation("perturbed truth left the generator ball")
    return base, p_tilde, g, base


@dataclass(frozen=True)
class IndistinguishabilityReport:
    """Outcome of the empirical same-law check between two mixtures."""

    n: int
    ks_statistic: float
    p_value: float
    ks_passed: bool
    tree_difference: float
    passed: bool


def verify_indistinguishable(
    pair_a, pair_b, eps: float, n: int, seed, family: WaveletFamily, j_max: int
) -> IndistinguishabilityReport:
    """Two-sample KS test between draws of the two mixtures, axiswise, and a
    comparison of the mixtures' exact coefficient trees up to level j_max.

    `pair_a` and `pair_b` are (truth, contaminator) tuples. The reported tree
    difference is the largest coefficient gap; the pair passes when the KS
    test does not reject and the trees agree to 1e-12.
    """
    from scipy.stats import ks_2samp  # about 1 s to import; only the KS check needs it

    pa, ga = pair_a
    pb, gb = pair_b
    kid_a, kid_b = np.random.SeedSequence(seed).spawn(2)
    xa = sample_huber(pa, ga, eps, n, np.random.default_rng(kid_a))
    xb = sample_huber(pb, gb, eps, n, np.random.default_rng(kid_b))
    stat, pval = 0.0, 1.0
    for axis in range(pa.dim):
        r = ks_2samp(xa[:, axis], xb[:, axis])
        if r.statistic > stat:
            stat, pval = float(r.statistic), float(r.pvalue)
    ks_passed = pval > _KS_ALPHA / pa.dim

    def mixture_tree(p_model, g_model):
        tp = exact_coeffs(p_model, family, j_max)
        tg = exact_coeffs(g_model, family, j_max)
        return tree_axpy(eps, tg, tree_axpy(-eps, tp, tp))

    d = tree_axpy(-1.0, mixture_tree(pb, gb), mixture_tree(pa, ga))
    tree_diff = max([abs(d.alpha)] + [float(np.abs(d.level_array(j)).max()) for j in d.levels()])
    passed = ks_passed and tree_diff < 1e-12
    return IndistinguishabilityReport(n, stat, pval, ks_passed, tree_diff, passed)
