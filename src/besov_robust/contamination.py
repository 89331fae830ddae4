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
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .besov import BesovParams, besov_norm
from .coefficients import (
    PiecewiseConstant,
    SpikePerturbation,
    _midpoints,
    exact_coeffs,
    tree_axpy,
    uniform_density,
)
from .errors import BallViolation, InfeasibleEpsilon, NotSupBounded
from .wavelets import WaveletFamily, WaveletIndex, eval_wavelet

MODES = ("structured", "unstructured")
# Level of the per-axis KS test in `verify_indistinguishable`, before the
# Bonferroni split over the D axes
_KS_ALPHA = 0.01
# The largest array, in float64 entries, a pair level or sample size may ask for:
# at it `adversary` peaks at 0.57 GB (pair level 11) and 0.49 GB (2^23 samples).
MAX_ENTRIES = 2**24


@dataclass(frozen=True)
class ContaminationSpec:
    """How the data is contaminated: a proportion eps of the sample comes from
    the explicit contaminating density `g`.

    "structured" additionally certifies the sup-norm budget M against
    `g.sup_bound()`, which is exact for a piecewise-constant g and an upper
    bound for a spike, so no cell of g goes unread; "unstructured"
    puts no bound on g. An M given with either mode must be a positive
    number.
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
            sup = self.g.sup_bound()
            if sup > self.M * (1.0 + 1e-9):
                raise NotSupBounded(f"the contaminator's sup bound {sup:.6g} is over the budget {self.M}")


# numpy's SeedSequence constants; NEP 19 freezes the streams they seed
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # uint32 words in a SeedSequence's entropy pool
_WORD = 0xFFFFFFFF


def _words(entropy) -> list[int]:
    """The uint32 words SeedSequence assembles from an int or a nested
    sequence of ints, least significant first."""
    if isinstance(entropy, (tuple, list)):
        return [w for e in entropy for w in _words(e)]
    n = operator.index(entropy)
    if n < 0:
        raise ValueError(f"expected non-negative integer entropy, got {n}")
    out = [n & _WORD]
    while n > _WORD:
        n >>= 32
        out.append(n & _WORD)
    return out


def _hash_constants(h: int, mult: int, count: int):
    """The next `count` hash constants before and after each multiply, and
    the last one."""
    pre, post = [], []
    for _ in range(count):
        pre.append(h)
        h = h * mult & _WORD
        post.append(h)
    return np.array(pre, np.uint32), np.array(post, np.uint32), h


def _pcg64_seeds(words: np.ndarray) -> np.ndarray:
    """`SeedSequence.generate_state(4, np.uint64)` for each row of assembled
    entropy words, (rows, L >= _POOL) uint32 to (rows, 4) uint64: numpy's
    pool-of-4 hashmix and mix, one array operation per word for all rows."""
    h = _INIT_A

    def hashmix(value, count):
        nonlocal h
        pre, post, h = _hash_constants(h, _MULT_A, count)
        value = (value ^ pre) * post
        return value ^ (value >> 16)

    def mix(x, y):
        r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return r ^ (r >> 16)

    pool = hashmix(words[:, :_POOL], _POOL)
    for src in range(_POOL):
        # the pool word mixed into the three others is the same for each
        dst = [d for d in range(_POOL) if d != src]
        pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, src : src + 1], _POOL - 1))
    for src in range(_POOL, words.shape[1]):
        pool = mix(pool, hashmix(words[:, src : src + 1], _POOL))
    pre, post, _ = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
    state = (np.tile(pool, 2) ^ pre) * post
    state ^= state >> 16
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _ChildSeed:
    """One child stream's PCG64 seed words, handed to `np.random.PCG64` as
    its ISeedSequence, so numpy still seeds the stream from them. It is
    registered as one on first use (`_child_seeds`): subclassing at import
    would load numpy.random with the package."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _POOL or dtype is not np.uint64:
            raise ValueError("a child seed holds PCG64's four uint64 words only")
        return self.state


def _child_seeds(entropies: list) -> np.ndarray:
    """(len(entropies), 3, 4) uint64: the PCG64 seed words of the children
    SeedSequence(e, spawn_key=(k,)), k = 0, 1, 2, of each entropy e, which
    are SeedSequence(e).spawn(3)[k]. The entropy is padded with zero words
    to the pool size before the key word, as SeedSequence pads it; entropies
    of one word count are hashed together."""
    np.random.bit_generator.ISeedSequence.register(_ChildSeed)  # a no-op after the first
    runs = [_words(e) for e in entropies]
    out = np.empty((len(runs), 3, _POOL), np.uint64)
    for size in set(map(len, runs)):
        rows = [i for i, r in enumerate(runs) if len(r) == size]
        words = np.zeros((len(rows), 3, max(size, _POOL) + 1), np.uint32)
        words[:, :, :size] = np.array([runs[i] for i in rows], np.uint32).reshape(len(rows), 1, size)
        words[:, :, -1] = np.arange(3)
        out[rows] = _pcg64_seeds(words.reshape(3 * len(rows), -1)).reshape(len(rows), 3, _POOL)
    return out


class SeedBlock:
    """The child seeds of a block of trial seeds, hashed at once: `states`
    holds the PCG64 seed words of child k = 0, 1, 2 (mask, p, g) of trial t
    at [t, k]. `SeedBlock.of(seeds)` hashes ints or tuples of ints, and a
    slice of a block is the block of those trials. A plain class: a
    dataclass would add a third of a millisecond to the import."""

    __slots__ = ("states",)

    def __init__(self, states: np.ndarray):
        self.states = states

    @classmethod
    def of(cls, seeds: list) -> SeedBlock:
        return cls(_child_seeds(seeds))

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, trials: slice) -> SeedBlock:
        return SeedBlock(self.states[trials])


def _stream(state: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_ChildSeed(state)))


def _mixture(p_model, g_model, mask: np.ndarray, p_rng, g_rng, out: np.ndarray, grouped: bool) -> np.ndarray:
    """The sample whose points under `mask` come from g, assembled into
    `out`, or when `grouped` p's draw followed by g's, each drawn into its
    rows of `out`; p's draw into `out` when no point falls to g, and g's
    stream (`g_rng()`) is then not built."""
    n = mask.size
    n_g = int(np.count_nonzero(mask))
    if n_g == 0:
        return p_model.sample(n, p_rng, out)
    if grouped:
        p_model.sample(n - n_g, p_rng, out[: n - n_g])
        g_model.sample(n_g, g_rng(), out[n - n_g :])
        return out
    p_draw = p_model.sample(n - n_g, p_rng)
    g_draw = g_model.sample(n_g, g_rng())
    keep = ~mask
    for a in range(p_model.dim):  # 1-d copies run 2-3x faster than row copies
        out[:, a][keep] = p_draw[:, a]
        out[:, a][mask] = g_draw[:, a]
    return out


def _trial(p_model, g_model, eps: float, n: int, states: np.ndarray, out: np.ndarray, grouped: bool) -> np.ndarray:
    """One trial's sample from its child seeds (mask, p, g), drawn into
    `out`. At eps = 0 the mask is all False and its stream feeds nothing
    else, so it is not drawn."""
    p_rng = _stream(states[1])
    if eps == 0.0:
        return p_model.sample(n, p_rng, out)
    mask = _stream(states[0]).random(n) < eps
    return _mixture(p_model, g_model, mask, p_rng, lambda: _stream(states[2]), out, grouped)


def sample_huber(p_model, g_model, eps: float, n: int, seed_or_rng, *, grouped: bool = False) -> np.ndarray:
    """Draw n points from the contaminated mixture (1-eps) p + eps g, or n
    for each trial of a `SeedBlock`, stacked in trial order.

    Each point independently comes from g with probability eps.
    `seed_or_rng` is a Generator, a seed (an int or a tuple of ints), None,
    or a SeedBlock. A seed is the block of one, and None draws one
    root entropy as its seed. A trial's component draws use its child
    streams k = 0, 1, 2 (mask, p, g), those of SeedSequence(seed).spawn(3),
    so eps=0 reproduces the pure-p sample for the same seed. A block's
    child seeds are numpy's SeedSequence hash run once over all its trials
    (`_child_seeds`), and numpy's PCG64 seeds each stream read from them, so
    the streams keep every bit. In a block of 50 that costs about 5 us a
    trial and 2 us a stream, against 16 us for one SeedSequence child and
    its default_rng.

    Work that changes no bit is skipped. At eps = 0 the mask stream is not
    drawn. Whenever no point falls to g, p draws straight into the trial's
    rows and g's stream is not built. Otherwise the mixture is assembled by
    boolean mask, one axis at a time. A shared Generator draws the mask, p
    and g in turn from itself, so it always draws the mask first, because
    that advances the stream every later draw reads.

    `grouped` draws a trial's n - n_g points from p into its first rows and
    its n_g from g into the rest, with no assembly: the same points in
    another order, so the exact integer cell counts of a Haar estimate keep
    their bits.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError("contamination level must lie in [0, 1)")
    if isinstance(seed_or_rng, np.random.Generator):
        rng = seed_or_rng
        mask = rng.random(n) < eps
        return _mixture(p_model, g_model, mask, rng, lambda: rng, np.empty((n, p_model.dim)), grouped)
    block = seed_or_rng
    if not isinstance(block, SeedBlock):
        block = SeedBlock.of([np.random.SeedSequence().entropy if block is None else block])
    out = np.empty((len(block) * n, p_model.dim))
    for t, states in enumerate(block.states):
        _trial(p_model, g_model, eps, n, states, out[t * n : (t + 1) * n], grouped)
    return out


def _check_level(j: int, dim: int, cell_matrix: bool) -> None:
    """Refuse a level-j pair before it builds arrays above MAX_ENTRIES: the D 2^{D(j+1)}
    midpoints of its contaminators' cells, or a flat one's (2^{j+1})^2 Haar cell matrix."""
    bits = max(dim * (j + 1) + math.log2(dim), 2.0 * (j + 1) if cell_matrix else 0.0)
    if bits > math.log2(MAX_ENTRIES):
        raise ValueError(f"a pair at level {j} needs arrays of 2^{bits:.4g} entries, over the cap of {MAX_ENTRIES}")


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
    dpg = dim / gen.p
    if gen.sigma < dpg:
        raise ValueError(f"the spike construction needs sigma_g >= D/p_g, got {gen.sigma} < {dpg}")
    if eps <= 0.0:
        raise InfeasibleEpsilon("the construction needs a positive contamination budget")
    margin = min(1.0, gen.L - 1.0)
    if margin <= 0.0:
        raise BallViolation("the generator ball must have radius above 1 to fit the uniform base")
    denom = gen.sigma + dim - dpg
    j = max(0, math.ceil(-math.log2(eps) / denom - 1e-12))
    _check_level(j, dim, cell_matrix=True)
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
    h_vals = h_amp * eval_wavelet(family, idx, _midpoints(2**s, dim))
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
    _check_level(idx.j, dim, cell_matrix=False)
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

    `pair_a` and `pair_b` are (truth, contaminator) tuples. The KS test
    (`_ks.ks_2samp`) rejects at p <= 0.01 / D on the axis of the largest
    statistic; the pair passes when it does not reject and the trees agree
    to 1e-12, their largest coefficient gap being the tree difference.
    """
    from . import _ks  # loaded on first use: only the adversary check needs it

    pa, ga = pair_a
    pb, gb = pair_b
    kid_a, kid_b = np.random.SeedSequence(seed).spawn(2)
    xa = sample_huber(pa, ga, eps, n, np.random.default_rng(kid_a))
    xb = sample_huber(pb, gb, eps, n, np.random.default_rng(kid_b))
    stat, pval = 0.0, 1.0
    for axis in range(pa.dim):
        axis_stat, axis_pval = _ks.ks_2samp(xa[:, axis], xb[:, axis])
        if axis_stat > stat:
            stat, pval = axis_stat, axis_pval
    ks_passed = pval > _KS_ALPHA / pa.dim

    def mixture_tree(p_model, g_model):
        tp = exact_coeffs(p_model, family, j_max)
        tg = exact_coeffs(g_model, family, j_max)
        return tree_axpy(eps, tg, tree_axpy(-eps, tp, tp))

    d = tree_axpy(-1.0, mixture_tree(pb, gb), mixture_tree(pa, ga))
    tree_diff = max([abs(d.alpha)] + [float(np.abs(d.level_array(j)).max()) for j in d.levels()])
    passed = ks_passed and tree_diff < 1e-12
    return IndistinguishabilityReport(n, stat, pval, ks_passed, tree_diff, passed)
