"""Tests for sequence-space Besov norms, the dual IPM, and its witness."""

import hashlib
import math

import numpy as np
import pytest

from besov_robust.besov import (
    LOSS_PRESETS,
    BesovParams,
    besov_ipm,
    besov_norm,
    conjugate,
    in_ball,
    ipm_nesting_check,
    ipm_witness,
    loss_params,
    pairing,
    sup_norm_bound,
)
from besov_robust.coefficients import CoefficientTree, tree_axpy
from besov_robust.errors import (
    IncompatibleTrees,
    NotSupBounded,
    RegimeMismatch,
    ZeroDelta,
)
from besov_robust.wavelets import WaveletIndex, orientations, wavelet_family

HAAR = wavelet_family("haar")
INF = math.inf

# exponent grid covering the finite cases and both infinite edge cases
EXPONENT_COMBOS = [
    (0.0, INF, INF),
    (1.0, INF, INF),
    (0.0, 2.0, 2.0),
    (1.0, 1.0, INF),
    (0.5, 3.0, 1.5),
    (2.0, 1.0, 1.0),
    (0.3, 1.5, INF),
]


def rand_tree(rng, dim=1, j_max=4, n=12, with_alpha=True):
    t = CoefficientTree(HAAR, dim, alpha=float(rng.normal()) if with_alpha else 0.0)
    es = list(orientations(dim))
    for _ in range(n):
        j = int(rng.integers(0, j_max + 1))
        k = tuple(int(rng.integers(0, 2**j)) for _ in range(dim))
        e = es[int(rng.integers(len(es)))]
        t.set(WaveletIndex(j, k, e), float(rng.normal()))
    return t


def scaled_into_ball(tree, params):
    nrm = besov_norm(tree, params)
    out = tree.copy()
    out.alpha /= nrm
    for idx, v in list(out.items()):
        out.set(idx, v / nrm)
    return out


class TestParams:
    def test_conjugate_conventions(self):
        assert conjugate(1.0) == INF
        assert conjugate(INF) == 1.0
        assert conjugate(2.0) == 2.0
        assert conjugate(4.0) == pytest.approx(4.0 / 3.0)
        with pytest.raises(ValueError):
            conjugate(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            BesovParams(-0.1, 2.0, 2.0)
        with pytest.raises(ValueError):
            BesovParams(1.0, 0.9, 2.0)
        with pytest.raises(ValueError):
            BesovParams(1.0, 2.0, 2.0, L=0.0)
        with pytest.raises(ValueError):
            BesovParams(math.nan, 2.0, 2.0)
        with pytest.raises(ValueError):
            BesovParams(1.0, 2.0, 2.0, L=math.nan)

    def test_sigma_prime(self):
        assert BesovParams(1.0, 2.0, 2.0).sigma_prime(2) == pytest.approx(1.0)
        assert BesovParams(1.0, INF, INF).sigma_prime(2) == pytest.approx(2.0)

    def test_loss_presets(self):
        assert LOSS_PRESETS["tv"] == BesovParams(0.0, INF, INF, 1.0)
        assert LOSS_PRESETS["wasserstein1"].sigma == 1.0
        assert LOSS_PRESETS["l2"] == BesovParams(0.0, 2.0, 2.0, 1.0)
        assert LOSS_PRESETS["ks"] == BesovParams(1.0, 1.0, INF, 1.0)
        assert loss_params("tv") is LOSS_PRESETS["tv"]
        with pytest.raises(ValueError):
            loss_params("hellinger")


class TestBesovNorm:
    def test_zero_tree(self):
        assert besov_norm(CoefficientTree(HAAR, 1), BesovParams(1.0, 2.0, 2.0)) == 0.0

    def test_alpha_only_is_alpha(self):
        tree = CoefficientTree(HAAR, 1, alpha=1.0)
        for sigma, p, q in EXPONENT_COMBOS:
            assert besov_norm(tree, BesovParams(sigma, p, q)) == 1.0

    @pytest.mark.parametrize("j,sigma,p,dim", [(3, 1.0, 2.0, 1), (2, 0.5, INF, 2), (0, 2.0, 1.0, 1)])
    def test_single_beta_closed_form(self, j, sigma, p, dim):
        tree = CoefficientTree(HAAR, dim)
        tree.set(WaveletIndex(j, (0,) * dim, (1,) * dim), 1.0)
        dp = 0.0 if p == INF else dim / p
        want = 2.0 ** (j * (sigma + dim / 2.0 - dp))
        got = besov_norm(tree, BesovParams(sigma, p, 3.0))
        assert got == pytest.approx(want, rel=1e-14)

    def test_norm_axioms(self):
        rng = np.random.default_rng(2)
        for sigma, p, q in EXPONENT_COMBOS:
            params = BesovParams(sigma, p, q)
            for _ in range(10):
                x, y = rand_tree(rng), rand_tree(rng)
                nx = besov_norm(x, params)
                c = float(rng.normal())
                assert besov_norm(tree_axpy(c - 1.0, x, x), params) == pytest.approx(
                    abs(c) * nx, rel=1e-11, abs=1e-12
                )
                nsum = besov_norm(tree_axpy(1.0, x, y), params)
                assert nsum <= nx + besov_norm(y, params) + 1e-12

    def test_monotone_in_levels(self):
        rng = np.random.default_rng(4)
        params = BesovParams(1.0, 2.0, 2.0)
        tree = rand_tree(rng, j_max=3)
        low = besov_norm(tree, params)
        tree.set(WaveletIndex(5, (7,), (1,)), 0.3)
        assert besov_norm(tree, params) >= low

    def test_in_ball(self):
        params = BesovParams(1.0, 2.0, 2.0, L=2.0)
        tree = CoefficientTree(HAAR, 1, alpha=1.5)
        assert in_ball(tree, params)
        tree.alpha = 2.5
        assert not in_ball(tree, params)


class TestPairing:
    def test_pairing_is_coefficient_dot(self):
        a = CoefficientTree(HAAR, 1, alpha=2.0)
        b = CoefficientTree(HAAR, 1, alpha=0.5)
        i0, i1 = WaveletIndex(1, (0,), (1,)), WaveletIndex(2, (3,), (1,))
        a.set(i0, 3.0)
        a.set(i1, -1.0)
        b.set(i0, 0.25)
        assert pairing(a, b) == pytest.approx(2.0 * 0.5 + 3.0 * 0.25)
        assert pairing(a, b) == pairing(b, a)

    def test_pairing_incompatible(self):
        with pytest.raises(IncompatibleTrees):
            pairing(CoefficientTree(HAAR, 1), CoefficientTree(wavelet_family("db2"), 1))


class TestLayoutIndependence:
    """Norms, IPMs and pairings read each level in row-major order, so a
    level's memory layout cannot move a bit of them."""

    @staticmethod
    def _dense_pair(rng, dim):
        # every entry stored, at scales 1e-3..1e3, so each sum depends on
        # its order; the Fortran copies lay the orientation axis fastest
        trees = []
        for _ in range(2):
            tree = CoefficientTree(HAAR, dim, alpha=float(rng.normal()))
            for j in range(4):
                shape = (2**dim - 1,) + (2**j,) * dim
                tree.set_level_array(j, rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape))
            trees.append(tree)
        fortran = []
        for tree in trees:
            out = CoefficientTree(HAAR, dim, alpha=tree.alpha)
            for j in tree.levels():
                out.set_level_array(j, np.asfortranarray(tree.level_array(j)))
            assert not out.level_array(3).flags.c_contiguous
            fortran.append(out)
        return trees, fortran

    @pytest.mark.parametrize("dim", [2, 3])
    def test_fortran_levels_give_the_row_major_bits(self, dim):
        rng = np.random.default_rng(40 + dim)

        def bits(value):
            return np.float64(value).view(np.int64)

        for _ in range(10):
            (f, g), (ff, gf) = self._dense_pair(rng, dim)
            for sigma, p, q in EXPONENT_COMBOS:
                params = BesovParams(sigma, p, q)
                assert bits(besov_norm(ff, params)) == bits(besov_norm(f, params))
                assert bits(besov_ipm(ff, gf, params)) == bits(besov_ipm(f, g, params))
                assert bits(besov_ipm(ff, g, params)) == bits(besov_ipm(f, g, params))
            assert bits(pairing(ff, gf)) == bits(pairing(f, g))
            assert bits(pairing(f, gf)) == bits(pairing(f, g))


def pinned_digests() -> tuple[str, str]:
    """SHA-256 of the besov_norm and of the besov_ipm bits on fixed random
    trees and blocks for p, q in {1.5, 2, 3, 4}, every exponent off the TV
    path. Levels hold entries at scales 1e-3..1e3 and zeros, and some
    trials of a block lack a level, so the per-trial reductions and the
    per-row skipping of absent levels all enter."""
    exponents = (1.5, 2.0, 3.0, 4.0)
    rng = np.random.default_rng(2718)
    norm_hash, ipm_hash = hashlib.sha256(), hashlib.sha256()
    for dim, trials in ((1, None), (2, None), (3, None), (1, 4), (2, 3)):
        pair = []
        for _ in range(2):
            tree = CoefficientTree(HAAR, dim, alpha=rng.normal(size=trials or ()), trials=trials)
            lead = () if trials is None else (trials,)
            for j in range(5 - dim):
                shape = lead + (2**dim - 1,) + (2**j,) * dim
                lev = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
                lev[rng.random(shape) < 0.3] = 0.0
                if trials is not None:
                    lev[rng.random(trials) < 0.4] = 0.0  # trials that lack level j
                tree.set_level_array(j, lev)
            pair.append(tree)
        f, g = pair
        for p in exponents:
            for q in exponents:
                params = BesovParams(0.7, p, q)
                norm_hash.update(np.asarray(besov_norm(f, params), dtype=float).tobytes())
                ipm_hash.update(np.asarray(besov_ipm(f, g, params), dtype=float).tobytes())
    return norm_hash.hexdigest(), ipm_hash.hexdigest()


class TestPinnedBits:
    NORM_SHA256 = "50286783cfb7c61b0febc0208f67a6a5449758b749a53cecc5934ae8d0796984"
    IPM_SHA256 = "314574a9cc63338bf85da01fadca1ddb41f5ef3f40699531c9209202016dd0ab"

    @pytest.mark.byte_pin
    def test_norm_and_ipm_bits_off_the_tv_path(self):
        assert pinned_digests() == (self.NORM_SHA256, self.IPM_SHA256)


class TestBesovIpm:
    def test_equal_trees_zero(self):
        rng = np.random.default_rng(6)
        t = rand_tree(rng)
        assert besov_ipm(t, t.copy(), BesovParams(1.0, 2.0, 2.0)) == 0.0

    @pytest.mark.parametrize("j,delta,sigma", [(3, 0.7, 1.0), (0, -2.0, 0.0), (5, 0.01, 2.0)])
    def test_single_beta_delta_closed_form(self, j, delta, sigma):
        t1, t2 = CoefficientTree(HAAR, 1), CoefficientTree(HAAR, 1)
        t1.set(WaveletIndex(j, (0,), (1,)), delta)
        disc = BesovParams(sigma, INF, INF, 1.0)
        want = 2.0 ** (-j * (sigma + 0.5)) * abs(delta)
        assert besov_ipm(t1, t2, disc) == pytest.approx(want, rel=1e-14)

    def test_symmetry_triangle_monotone_covariant(self):
        rng = np.random.default_rng(8)
        t1, t2, t3 = rand_tree(rng), rand_tree(rng), rand_tree(rng)
        disc = BesovParams(0.5, 3.0, 1.5, 1.0)
        d12 = besov_ipm(t1, t2, disc)
        assert besov_ipm(t2, t1, disc) == pytest.approx(d12, rel=1e-14)
        assert besov_ipm(t1, t3, disc) <= d12 + besov_ipm(t2, t3, disc) + 1e-12
        steeper = BesovParams(0.9, 3.0, 1.5, 1.0)
        assert besov_ipm(t1, t2, steeper) <= d12 + 1e-15
        doubled = BesovParams(0.5, 3.0, 1.5, 2.0)
        assert besov_ipm(t1, t2, doubled) == pytest.approx(2.0 * d12, rel=1e-14)

    def test_additive_form_brackets_exact(self):
        # the sum of the two dual parts is an upper bound within a factor 2
        rng = np.random.default_rng(10)
        disc = BesovParams(0.5, 2.0, 2.0, 1.0)
        for _ in range(20):
            t1, t2 = rand_tree(rng), rand_tree(rng)
            exact = besov_ipm(t1, t2, disc)
            alpha_only = besov_ipm(
                CoefficientTree(HAAR, 1, t1.alpha), CoefficientTree(HAAR, 1, t2.alpha), disc
            )
            b1, b2 = t1.copy(), t2.copy()
            b1.alpha = b2.alpha = 0.0
            beta_only = besov_ipm(b1, b2, disc)
            additive = alpha_only + beta_only
            assert exact <= additive + 1e-15
            assert additive <= 2.0 * exact + 1e-15

    def test_incompatible(self):
        with pytest.raises(IncompatibleTrees):
            besov_ipm(
                CoefficientTree(HAAR, 1),
                CoefficientTree(HAAR, 2),
                BesovParams(1.0, 2.0, 2.0),
            )


class TestWitness:
    def test_witness_attains_ipm(self):
        rng = np.random.default_rng(12)
        worst_pair, worst_norm = 0.0, 0.0
        for sigma, p, q in EXPONENT_COMBOS:
            for L in (1.0, 2.5):
                disc = BesovParams(sigma, p, q, L)
                for rep in range(12):
                    dim = 1 if rep % 3 else 2
                    t1, t2 = rand_tree(rng, dim), rand_tree(rng, dim)
                    d = besov_ipm(t1, t2, disc)
                    delta = tree_axpy(-1.0, t2, t1)
                    w = ipm_witness(delta, disc)
                    worst_pair = max(worst_pair, abs(pairing(w, delta) - d) / d)
                    worst_norm = max(worst_norm, abs(besov_norm(w, disc) - L) / L)
        assert worst_pair < 1e-12
        assert worst_norm < 1e-12

    def test_single_coefficient_witness(self):
        j, val = 3, -0.4
        delta = CoefficientTree(HAAR, 1)
        idx = WaveletIndex(j, (2,), (1,))
        delta.set(idx, val)
        disc = BesovParams(1.0, 2.0, 2.0, 1.5)
        w = ipm_witness(delta, disc)
        assert w.n_coefficients == 1
        # the witness sits on the same coefficient, scaled to norm L
        want = -1.5 * 2.0 ** (-j * disc.sigma_prime(1))
        assert w.get(idx) == pytest.approx(want, rel=1e-13)
        assert besov_norm(w, disc) == pytest.approx(1.5, rel=1e-13)

    def test_alpha_dominant_witness(self):
        delta = CoefficientTree(HAAR, 1, alpha=-2.0)
        delta.set(WaveletIndex(4, (0,), (1,)), 1e-6)
        disc = BesovParams(0.0, INF, INF, 1.0)
        w = ipm_witness(delta, disc)
        assert w.alpha == -1.0
        assert w.n_coefficients == 0

    def test_zero_delta(self):
        with pytest.raises(ZeroDelta):
            ipm_witness(CoefficientTree(HAAR, 1), BesovParams(1.0, 2.0, 2.0))

    def test_random_ball_elements_never_exceed(self):
        rng = np.random.default_rng(14)
        disc = BesovParams(1.0, 2.0, 2.0, 1.0)
        t1, t2 = rand_tree(rng), rand_tree(rng)
        d = besov_ipm(t1, t2, disc)
        delta = tree_axpy(-1.0, t2, t1)
        for _ in range(300):
            f = scaled_into_ball(rand_tree(rng, j_max=5, n=15), disc)
            assert abs(pairing(f, delta)) <= d * (1.0 + 1e-12)


class TestSupNormBound:
    def test_requires_smoothness_over_dp(self):
        with pytest.raises(NotSupBounded):
            sup_norm_bound(BesovParams(0.5, 1.0, 2.0), HAAR, dim=1)
        with pytest.raises(NotSupBounded):
            sup_norm_bound(BesovParams(1.0, 2.0, 2.0), HAAR, dim=2)

    def test_linear_in_radius(self):
        b1 = sup_norm_bound(BesovParams(1.0, INF, INF, 1.0), HAAR)
        b2 = sup_norm_bound(BesovParams(1.0, INF, INF, 2.0), HAAR)
        assert b2 == pytest.approx(2.0 * b1)

    def test_q_one_drops_series_factor(self):
        # q = 1 gives conjugate infinity, so the geometric factor is 1
        loose = sup_norm_bound(BesovParams(1.0, INF, 2.0, 1.0), HAAR)
        tight = sup_norm_bound(BesovParams(1.0, INF, 1.0, 1.0), HAAR)
        assert tight <= loose

    def test_bound_dominates_reconstruction(self):
        rng = np.random.default_rng(16)
        params = BesovParams(1.0, INF, INF, 1.0)
        bound = sup_norm_bound(params, HAAR, dim=1)
        grid = ((np.arange(2**8) + 0.5) / 2**8)[:, None]
        for _ in range(100):
            t = scaled_into_ball(rand_tree(rng, j_max=4, n=20), params)
            assert np.max(np.abs(t.evaluate(grid))) <= bound

    def test_bound_dominates_reconstruction_2d(self):
        rng = np.random.default_rng(18)
        params = BesovParams(1.5, INF, INF, 1.0)
        bound = sup_norm_bound(params, HAAR, dim=2)
        g = (np.arange(2**5) + 0.5) / 2**5
        pts = np.array([[a, b] for a in g for b in g])
        for _ in range(20):
            t = scaled_into_ball(rand_tree(rng, dim=2, j_max=3, n=15), params)
            assert np.max(np.abs(t.evaluate(pts))) <= bound


class TestNesting:
    def test_identical_trees(self):
        t = CoefficientTree(HAAR, 1, alpha=1.0)
        disc = BesovParams(0.7, 4.0, 2.0, 1.0)
        assert ipm_nesting_check(t, t.copy(), disc, 2.0) == (0.0, 0.0)

    def test_matched_exponent_gives_equal_values(self):
        rng = np.random.default_rng(20)
        t1, t2 = rand_tree(rng), rand_tree(rng)
        # p_d = p_g' makes the two balls the same space
        p_g = 3.0
        disc = BesovParams(0.7, conjugate(p_g), 2.0, 1.0)
        first, second = ipm_nesting_check(t1, t2, disc, p_g)
        assert first == pytest.approx(second, rel=1e-14)

    def test_first_below_second(self):
        rng = np.random.default_rng(22)
        disc = BesovParams(0.7, 4.0, 2.0, 1.0)
        for _ in range(100):
            t1, t2 = rand_tree(rng), rand_tree(rng)
            first, second = ipm_nesting_check(t1, t2, disc, 2.0)
            assert first <= second * (1.0 + 1e-12)

    def test_regime_mismatch(self):
        t = CoefficientTree(HAAR, 1)
        # p_d = 1.25 has conjugate 5 > p_g = 2
        disc = BesovParams(0.7, 1.25, 2.0, 1.0)
        with pytest.raises(RegimeMismatch):
            ipm_nesting_check(t, t, disc, 2.0)
