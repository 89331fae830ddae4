"""Sequence-space Besov norms, dual-metric IPMs, and ball utilities.

Everything here operates on `CoefficientTree` objects, so norms and metrics
are computed exactly in coefficient space. The integral probability metric
over a Besov ball of discriminators has a closed dual form there: with
conjugate exponents it is the weighted dual sequence norm of the coefficient
difference, and the supremum is attained by an explicitly constructible
witness function (`ipm_witness`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .coefficients import CoefficientTree, difference_levels
from .errors import NotSupBounded, RegimeMismatch, ZeroDelta
from .wavelets import WaveletFamily


def conjugate(p: float) -> float:
    """Holder conjugate with the conventions 1' = inf and inf' = 1."""
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    if p <= 1.0:
        raise ValueError(f"exponent {p} outside [1, inf]")
    return p / (p - 1.0)


@dataclass(frozen=True)
class BesovParams:
    """Smoothness ball parameters (sigma, p, q, radius L): of the class the
    true density lives in (the generator), of the function class defining
    the loss (the discriminator), or of a class bounding a contaminator."""

    sigma: float
    p: float
    q: float
    L: float = 1.0

    def __post_init__(self):
        if not self.sigma >= 0.0:  # also rejects NaN
            raise ValueError(f"smoothness must be nonnegative, got {self.sigma}")
        for name, v in (("p", self.p), ("q", self.q)):
            if not (1.0 <= v):
                raise ValueError(f"{name} must lie in [1, inf], got {v}")
        if not self.L > 0.0:  # also rejects NaN
            raise ValueError(f"ball radius must be positive, got {self.L}")

    def sigma_prime(self, dim: int) -> float:
        """The level-weight exponent sigma + D/2 - D/p."""
        return self.sigma + dim / 2.0 - dim / self.p


# named discriminator balls for common losses; radius 1 throughout
LOSS_PRESETS: dict[str, BesovParams] = {
    "tv": BesovParams(0.0, math.inf, math.inf, 1.0),
    "wasserstein1": BesovParams(1.0, math.inf, math.inf, 1.0),
    "l2": BesovParams(0.0, 2.0, 2.0, 1.0),
    "ks": BesovParams(1.0, 1.0, math.inf, 1.0),
}


def loss_params(name: str) -> BesovParams:
    try:
        return LOSS_PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown loss {name!r}; choose from {sorted(LOSS_PRESETS)}") from None


def _power_sums(values: np.ndarray, p: float) -> np.ndarray:
    """Sums of |v|^p along the last axis (the max for p = inf), in numpy's
    pairwise order. The power is taken in place on the one temporary, and
    not at all for p = 1; numpy takes a ** 2.0 as a square, which is exact.

    A reduction along the last axis of a C-contiguous array sums each row
    exactly as numpy sums that row alone, so the rows of a block get the
    bits of separate 1-d calls."""
    a = np.abs(values)
    if a.shape[-1] == 0:
        return np.zeros(a.shape[:-1])
    if p == math.inf:
        return a.max(axis=-1)
    if p != 1.0:
        a **= p
    return a.sum(axis=-1)


def _root(sums: np.ndarray, p: float) -> np.ndarray:
    """The l^p norms from `_power_sums`: the sums themselves for p in
    {1, inf}, their square roots for p = 2, else sums ** (1/p) entry by
    entry with the C library's pow, the one a scalar power calls, so no
    vectorized power can move a last bit."""
    if p in (1.0, math.inf):
        return sums
    if p == 2.0:
        return np.sqrt(sums)
    return np.array([s ** (1.0 / p) for s in sums.ravel().tolist()]).reshape(sums.shape)


def _lp(values: np.ndarray, p: float) -> np.ndarray:
    """l^p norms along the last axis."""
    return _root(_power_sums(values, p), p)


def _level_lp(level: np.ndarray, p: float) -> np.ndarray:
    """Per-trial l^p norms, shape (T,), of a level block of shape
    (T, 2^D - 1, 2^j, ..., 2^j) (zero entries are absent coefficients).

    The fixed sum order: each orientation's 2^{Dj} entries are reduced by
    numpy's pairwise summation in row-major order, whatever layout the
    level lies in, then the orientation partial sums are added in
    orientation order. Each trial's entries form one row, so every trial
    of a block is reduced as its own level array alone would be. Working
    one orientation at a time bounds the temporaries to one orientation's
    size.
    """
    sums = [_power_sums(level[:, o].reshape(len(level), -1), p) for o in range(level.shape[1])]
    return _root(reduce(np.maximum if p == math.inf else np.add, sums), p)


def besov_norm(tree: CoefficientTree, params: BesovParams):
    """|alpha| + l^q norm over levels of 2^{j(sigma + D/2 - D/p)} ||beta_j||_p:
    a float, or for a block one norm per trial, with its own tree's bits."""
    levels = ((j, tree._trial_levels(j)) for j in tree.levels())
    u, kept = _level_terms(levels, params.sigma_prime(tree.dim), params.p, tree.trials or 1)
    norm = abs(tree.alpha) + _kept_lp(u, kept, params.q)
    return norm if tree.trials is not None else float(norm[0])


def in_ball(tree: CoefficientTree, params: BesovParams, slack: float = 1e-9):
    """Whether the tree lies in the ball of radius L, up to relative slack;
    for a block, one bool per trial."""
    return besov_norm(tree, params) <= params.L * (1.0 + slack)


def pairing(f: CoefficientTree, g: CoefficientTree):
    """The L2 pairing <f, g> computed in coefficient space.

    alpha_f alpha_g plus, level by level in increasing j, the pairwise sum in
    row-major order of the entrywise products of each level both trees store.
    A float, or for a block one pairing per trial, with its own trees' bits:
    a trial's products form one row, and it skips the levels its row of
    either tree lacks.
    """
    f.check_compatible(g)
    trials = f.trials or g.trials
    total = np.broadcast_to(f.alpha * g.alpha, (trials or 1,))
    for j in f.levels():
        a, b = f._trial_levels(j), g._trial_levels(j)
        if b is None:
            continue
        prod = a * b
        sums = prod.reshape(len(prod), -1).sum(axis=1)
        total = np.where(_rows_any(a) & _rows_any(b), total + sums, total)
    return total if trials is not None else float(total[0])


def _rows_any(level: np.ndarray) -> np.ndarray:
    """Per trial, whether the trial's row of a level block has an entry."""
    return level.any(axis=tuple(range(1, level.ndim)))


def _level_terms(levels, weight: float, p: float, trials: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Terms 2^{j weight} ||beta_j||_p of the (j, level block) pairs, in
    increasing j, shape (trials, levels), and which of them each trial keeps:
    a trial skips each level that is all zero in its row."""
    levels = list(levels)
    u = np.empty((trials, len(levels)))
    kept = np.empty((trials, len(levels)), dtype=bool)
    for i, (j, lev) in enumerate(levels):
        # a level of a single tree, shape (1, ...), holds for every trial
        np.multiply(2.0 ** (j * weight), _level_lp(lev, p), out=u[:, i])
        kept[:, i] = _rows_any(lev)
    return u, kept


def _kept_lp(u: np.ndarray, kept: np.ndarray, q: float) -> np.ndarray:
    """Per row, the l^q norm of the kept entries of u, taken in order as one
    compact array: a zero in the sum would change numpy's pairwise grouping."""
    if kept.all():
        return _lp(u, q)
    return np.array([_lp(row[keep], q) for row, keep in zip(u, kept)])


def besov_ipm(t1: CoefficientTree, t2: CoefficientTree, disc: BesovParams):
    """Exact IPM over the discriminator ball, between level-limited projections.

    Equals L * max(|delta alpha|, || {2^{-j sigma_d'} ||delta beta_j||_{p'}}_j ||_{q'})
    with delta the coefficient difference and (p', q') the conjugate exponents.
    Symmetric, zero iff the trees agree on all stored levels. The difference
    is formed one level at a time (`difference_levels`), so no whole
    difference tree is held.

    When either tree is a block of T trials (`CoefficientTree.trials`), the
    result is the array of the T trials' IPMs, each with the bits of its own
    tree's IPM: every reduction runs trial by trial in the one-tree order
    (`_level_lp`, `_kept_lp`). Otherwise it is a float.
    """
    trials = t1.trials or t2.trials
    u, kept = _level_terms(
        difference_levels(t1, t2), -disc.sigma_prime(t1.dim), conjugate(disc.p), trials or 1
    )
    a_part = abs(-1.0 * t2.alpha + t1.alpha)
    risk = disc.L * np.maximum(a_part, _kept_lp(u, kept, conjugate(disc.q)))
    return risk if trials is not None else float(risk[0])


def ipm_witness(delta: CoefficientTree, disc: BesovParams) -> CoefficientTree:
    """The discriminator attaining the IPM supremum against `delta`.

    The witness has Besov norm exactly L and pairing with delta exactly equal
    to the IPM. Finite exponents align coefficients with dual-exponent powers
    of |delta|; infinite exponents concentrate on the argmax; unit exponents
    spread a sign pattern. Ties for the argmax go to the first entry in
    (k, e) order.

    Raises ZeroDelta when delta has no stored coefficients and zero alpha.
    """
    delta._single("ipm_witness")
    p, pd = disc.p, conjugate(disc.p)
    sp = disc.sigma_prime(delta.dim)
    levels = delta.levels()
    u = _level_terms(((j, delta._trial_levels(j)) for j in levels), -sp, pd)[0][0]
    a_part, b_part = abs(delta.alpha), float(_lp(u, conjugate(disc.q)))
    if a_part == 0.0 and b_part == 0.0:
        raise ZeroDelta("the coefficient difference is identically zero")
    out = CoefficientTree(delta.family, delta.dim)
    L = disc.L
    if a_part >= b_part:
        out.alpha = L * math.copysign(1.0, delta.alpha)
        return out

    q, qd = disc.q, conjugate(disc.q)
    # level budgets s_j with ||s||_q = L, maximizing sum s_j u_j = L ||u||_{q'}
    if qd == math.inf:
        s = np.zeros(len(levels))
        s[int(np.argmax(u))] = L
    elif qd == 1.0:
        s = np.where(u > 0.0, L, 0.0)
    else:
        s = L * (u / b_part) ** (qd - 1.0)

    for j, budget in zip(levels, s):
        if budget == 0.0:
            continue
        target = budget * 2.0 ** (-j * sp)  # the p-norm the level must carry
        vals = delta.level_array(j)
        if pd == math.inf:
            # (k..., e) row-major order is the (k, e) sort order
            by_k = np.moveaxis(vals, 0, -1)
            pos = np.unravel_index(int(np.argmax(np.abs(by_k))), by_k.shape)
            shape = np.zeros_like(vals)
            np.moveaxis(shape, 0, -1)[pos] = math.copysign(1.0, float(by_k[pos]))
        elif pd == 1.0:
            shape = np.sign(vals)
        else:
            shape = np.sign(vals) * (np.abs(vals) / _level_lp(vals[None], pd)[0]) ** (pd - 1.0)
        out.set_level_array(j, target * shape)
    return out


def sup_norm_bound(params: BesovParams, family: WaveletFamily, dim: int = 1) -> float:
    """A uniform bound on the sup-norm of every function in the ball.

    Finite only when sigma > D/p: the levelwise sup of the synthesized series
    is controlled by kappa * L * (1 - 2^{(D/p - sigma) q'})^{-1/q'}, where
    kappa collects the father term and the overlap constants of the family
    (the periodized absolute translate sums, tensorized over axes).
    """
    dp = dim / params.p
    if params.sigma <= dp:
        raise NotSupBounded(f"sup bound needs sigma > D/p, got sigma={params.sigma}, D/p={dp}")
    qd = conjugate(params.q)
    if qd == math.inf:
        series = 1.0
    else:
        series = (1.0 - 2.0 ** ((dp - params.sigma) * qd)) ** (-1.0 / qd)
    overlap = (family.pb_phi + family.pb_psi) ** dim
    kappa = max(4.0 * family.psi_sup, overlap)
    return kappa * params.L * series


def ipm_nesting_check(
    t1: CoefficientTree, t2: CoefficientTree, disc: BesovParams, p_g: float
) -> tuple[float, float]:
    """IPM under the given ball and under the ball with p replaced by p_g'.

    When the dual exponent p' does not exceed p_g, the second metric dominates
    the first (exactly so in one dimension), which is the reduction that sends
    dense-regime losses to a class matched to the generator. Returns the pair
    (original, dominating); raises RegimeMismatch when p' > p_g.
    """
    pd = conjugate(disc.p)
    if pd > p_g:
        raise RegimeMismatch(f"nesting needs p' <= p_g, got p'={pd}, p_g={p_g}")
    wider = replace(disc, p=conjugate(p_g))
    return besov_ipm(t1, t2, disc), besov_ipm(t1, t2, wider)
