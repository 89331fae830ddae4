"""Tests for the wavelet density estimators and resolution schedules."""

import math

import numpy as np
import pytest

from besov_robust.besov import LOSS_PRESETS, BesovParams, besov_ipm, besov_norm
from besov_robust.coefficients import (
    CoefficientTree,
    SpikePerturbation,
    exact_coeffs,
    tree_axpy,
    uniform_density,
)
from besov_robust.errors import RegimeMismatch
from besov_robust.estimators import (
    EstimatorConfig,
    adaptive_config,
    choose_resolutions,
    estimate,
    estimate_linear,
    estimate_thresholded,
)
from besov_robust.wavelets import WaveletIndex, eval_wavelet, wavelet_family

INF = math.inf
HAAR = wavelet_family("haar")
DB2 = wavelet_family("db2")
TV = LOSS_PRESETS["tv"]

GEN_HOLDER = BesovParams(1.0, INF, INF, 2.0)
GEN_P1 = BesovParams(1.0, 1.0, INF, 2.0)


# n = 16 Haar points in D = 2: a level-1 coefficient is a signed count over
# 8, and the level-1 threshold K sqrt(1/16) = K/4, both exact
EXACT_X = np.array([[0.1, 0.1]] * 2 + [[0.6, 0.1]] * 3 + [[0.4, 0.6]] * 4 + [[0.7, 0.7]] * 7)
AT = WaveletIndex(1, (0, 0), (1, 0))  # 2/8
ABOVE = WaveletIndex(1, (1, 0), (1, 0))  # 3/8
NEG = WaveletIndex(1, (0, 1), (1, 0))  # -4/8


def trees_equal(a, b):
    d = tree_axpy(-1.0, a, b)
    return d.alpha == 0.0 and d.n_coefficients == 0


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig("magic", 1, 2)
        with pytest.raises(ValueError):
            EstimatorConfig("thresholded", 3, 2)
        with pytest.raises(ValueError):
            EstimatorConfig("linear", 1, 2)  # linear needs j0 == j1
        with pytest.raises(ValueError):
            EstimatorConfig("thresholded", 1, 2, K=-0.5)
        with pytest.raises(ValueError):
            EstimatorConfig("thresholded", 1, 2, K=math.nan)
        with pytest.raises(ValueError):
            EstimatorConfig("thresholded", 1, 2, rescale_epsilon=1.0)

    def test_zero_threshold_allowed(self):
        cfg = EstimatorConfig("thresholded", 1, 3, K=0.0)
        assert cfg.K == 0.0


class TestChooseResolutions:
    def test_frozen_sparse_no_contamination(self):
        # n = 4096: 4096^{1/3} = 16, so both levels land on 4
        assert choose_resolutions(4096, 0.0, GEN_HOLDER, TV, 1, "sparse-unstructured") == (4, 4)

    def test_frozen_sparse_eps_cap(self):
        # cap 2^{j1} <= (1/4)^{-1/1} = 4 binds regardless of n
        j0, j1 = choose_resolutions(4096, 0.25, GEN_P1, TV, 1, "sparse-unstructured")
        assert j1 == 2
        assert j0 <= j1

    def test_heavy_contamination_collapses_levels(self):
        j0, j1 = choose_resolutions(4096, 0.9, GEN_P1, TV, 1, "sparse-unstructured")
        assert j0 == j1

    def test_dense_schedule(self):
        assert choose_resolutions(4096, 0.0, GEN_HOLDER, TV, 1, "dense-unstructured") == (4, 4)
        # eps cap: 2^j <= eps^{-1/(sigma + D/p_d)}; TV has p_d = inf
        j0, j1 = choose_resolutions(4096, 2.0**-3, GEN_HOLDER, TV, 1, "dense-unstructured")
        assert j0 == j1 == 3

    def test_linear_sparse_schedule(self):
        # p_g = 1, D = 1: 2^{j} = n^{1/(2 sigma - 1)} with sigma = 1 -> n
        j0, j1 = choose_resolutions(256, 0.0, GEN_P1, TV, 1, "linear-sparse")
        assert j0 == j1 == 8

    def test_structured_uses_sparse_formulas(self):
        a = choose_resolutions(4096, 0.01, GEN_P1, TV, 1, "sparse-unstructured")
        b = choose_resolutions(4096, 0.01, GEN_P1, TV, 1, "structured")
        assert a == b

    def test_regime_ordering_enforced_with_contamination(self):
        # TV dual exponent is 1 < p_g = inf: not a sparse pairing
        with pytest.raises(RegimeMismatch):
            choose_resolutions(4096, 0.1, GEN_HOLDER, TV, 1, "sparse-unstructured")
        # p_d' = 2 > p_g = 1: not a dense pairing
        with pytest.raises(RegimeMismatch):
            choose_resolutions(
                4096,
                0.1,
                BesovParams(1.0, 1.0, 2.0),
                BesovParams(0.0, 2.0, 2.0),
                1,
                "dense-unstructured",
            )

    def test_no_ordering_check_without_contamination(self):
        choose_resolutions(4096, 0.0, GEN_HOLDER, TV, 1, "sparse-unstructured")

    @pytest.mark.parametrize(
        "sigma,p,eps,regime",
        [
            (0.5, 1.0, 0.0, "sparse-unstructured"),  # 2 sigma + D - 2D/p = 0
            (0.25, 1.0, 0.0, "linear-sparse"),  # ... = -0.5, once floored to level 0
            (0.25, 1.0, 0.1, "structured"),
            (0.0, 1.0, 0.1, "dense-unstructured"),  # sigma + D/p_d = 0 under TV
        ],
    )
    def test_nonpositive_level_divisor_refused(self, sigma, p, eps, regime):
        with pytest.raises(RegimeMismatch, match="must be positive"):
            choose_resolutions(4096, eps, BesovParams(sigma, p, INF, 2.0), TV, 1, regime)

    def test_unread_eps_divisor_not_checked(self):
        # at eps = 0 the dense schedule never divides by sigma + D/p_d
        assert choose_resolutions(4096, 0.0, BesovParams(0.0, 1.0, INF, 2.0), TV, 1,
                                  "dense-unstructured") == (12, 12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            choose_resolutions(1, 0.0, GEN_HOLDER, TV, 1, "sparse-unstructured")
        with pytest.raises(ValueError):
            choose_resolutions(100, 1.0, GEN_HOLDER, TV, 1, "sparse-unstructured")
        with pytest.raises(RegimeMismatch):
            choose_resolutions(100, 0.0, GEN_HOLDER, TV, 1, "florid")


class TestLinearEstimator:
    def test_father_coefficient_is_one(self):
        x = uniform_density(1).sample(500, np.random.default_rng(3))
        est = estimate_linear(x, HAAR, EstimatorConfig("linear", 3, 3))
        assert est.alpha == 1.0
        assert max(est.levels()) <= 3

    def test_rescale_doubles_everything(self):
        x = uniform_density(1).sample(500, np.random.default_rng(3))
        plain = estimate_linear(x, HAAR, EstimatorConfig("linear", 3, 3))
        scaled = estimate_linear(x, HAAR, EstimatorConfig("linear", 3, 3, rescale_epsilon=0.5))
        assert scaled.alpha == 2.0
        for idx, v in plain.items():
            assert scaled.get(idx) == pytest.approx(2.0 * v, rel=1e-14)

    def test_linearity_in_the_sample(self):
        x = uniform_density(1).sample(1000, np.random.default_rng(5))
        cfg = EstimatorConfig("linear", 3, 3)
        e1 = estimate_linear(x[:400], HAAR, cfg)
        e2 = estimate_linear(x[400:], HAAR, cfg)
        avg = tree_axpy(0.4, e1, tree_axpy(0.6, e2, CoefficientTree(HAAR, 1)))
        full = estimate_linear(x, HAAR, cfg)
        diff = tree_axpy(-1.0, avg, full)
        assert abs(diff.alpha) < 1e-12
        assert all(abs(v) < 1e-12 for _, v in diff.items())

    def test_kind_guard(self):
        x = uniform_density(1).sample(10, np.random.default_rng(0))
        with pytest.raises(ValueError):
            estimate_linear(x, HAAR, EstimatorConfig("thresholded", 3, 3))

    def test_close_to_uniform_truth(self):
        x = uniform_density(1).sample(10**4, np.random.default_rng(11))
        est = estimate_linear(x, HAAR, EstimatorConfig("linear", 3, 3))
        truth = exact_coeffs(uniform_density(1), HAAR, 3)
        assert besov_ipm(est, truth, TV) < 0.1


class TestEstimateDispatch:
    @pytest.mark.parametrize(
        "cfg,direct",
        [
            (EstimatorConfig("linear", 3, 3, rescale_epsilon=0.1), estimate_linear),
            (EstimatorConfig("thresholded", 1, 4, K=0.5), estimate_thresholded),
            (EstimatorConfig("adaptive", 1, 4, K=0.5), estimate_thresholded),
        ],
    )
    def test_kind_selects_estimator(self, cfg, direct):
        x = uniform_density(1).sample(600, np.random.default_rng(19))
        assert list(estimate(x, DB2, cfg).items()) == list(direct(x, DB2, cfg).items())


class TestThresholdedEstimator:
    def test_zero_K_equals_linear_at_top(self):
        x = uniform_density(1).sample(800, np.random.default_rng(7))
        th = estimate_thresholded(x, HAAR, EstimatorConfig("thresholded", 2, 5, K=0.0))
        lin = estimate_linear(x, HAAR, EstimatorConfig("linear", 5, 5))
        assert trees_equal(th, lin)

    def test_huge_K_equals_linear_at_base(self):
        x = uniform_density(1).sample(800, np.random.default_rng(7))
        th = estimate_thresholded(x, HAAR, EstimatorConfig("thresholded", 2, 5, K=100.0))
        lin = estimate_linear(x, HAAR, EstimatorConfig("linear", 2, 2))
        assert trees_equal(th, lin)

    def test_threshold_is_two_sided_and_strict(self):
        full = estimate_thresholded(EXACT_X, HAAR, EstimatorConfig("thresholded", 0, 1, K=0.0))
        assert (full.get(AT), full.get(ABOVE), full.get(NEG)) == (0.25, 0.375, -0.5)
        out = estimate_thresholded(EXACT_X, HAAR, EstimatorConfig("thresholded", 0, 1, K=1.0))
        assert out.get(AT) == 0.0  # boundary value t = 1/4 does not survive
        assert out.get(ABOVE) == 0.375
        assert out.get(NEG) == -0.5  # negative coefficients kept by magnitude

    def test_low_levels_never_thresholded(self):
        full = estimate_thresholded(EXACT_X, HAAR, EstimatorConfig("thresholded", 1, 2, K=0.0))
        out = estimate_thresholded(EXACT_X, HAAR, EstimatorConfig("thresholded", 1, 2, K=1e6))
        assert out.levels() == [0, 1] and 2 in full.levels()
        assert out.get(AT) == 0.25
        assert [(i, v) for i, v in full.items() if i.j <= 1] == list(out.items())

    @pytest.mark.parametrize(
        "cfg",
        [
            EstimatorConfig("thresholded", 0, 2, K=1.0, rescale_epsilon=0.2),
            EstimatorConfig("linear", 2, 2, rescale_epsilon=0.2),
            EstimatorConfig("linear", 2, 2),
        ],
    )
    def test_estimate_writes_into_no_caller_array(self, cfg):
        x = np.vstack([EXACT_X, EXACT_X[::-1] * 0.5])
        before = x.tobytes()
        first = estimate(x, HAAR, cfg, trials=2)
        assert x.tobytes() == before
        again = estimate(x, HAAR, cfg, trials=2)
        for j in first.levels():
            assert not np.shares_memory(first.level_array(j), again.level_array(j))
            assert np.array_equal(first.level_array(j), again.level_array(j))

    def test_rescale_applied_after_thresholding(self):
        # a coefficient just below t must be cut even though rescaling
        # would push it above: order of operations matters
        x = np.full((100, 1), 0.2)
        plain = estimate_thresholded(x, HAAR, EstimatorConfig("thresholded", 0, 3, K=50.0))
        scaled = estimate_thresholded(
            x, HAAR, EstimatorConfig("thresholded", 0, 3, K=50.0, rescale_epsilon=0.5)
        )
        for idx, v in plain.items():
            assert scaled.get(idx) == pytest.approx(2.0 * v, rel=1e-14)
        assert scaled.n_coefficients == plain.n_coefficients

    def test_spike_survives_thresholding(self):
        j0 = 2
        idx = WaveletIndex(j0 + 1, (3,), (1,))
        spiked = SpikePerturbation(uniform_density(1), HAAR, idx, 0.17)
        survive = 0
        for s in range(100):
            x = spiked.sample(10**4, np.random.default_rng(1000 + s))
            est = estimate_thresholded(x, HAAR, EstimatorConfig("thresholded", j0, j0 + 1, K=1.0))
            survive += est.get(idx) != 0.0
        assert survive >= 95

    def test_thresholding_shrinks_besov_norm(self):
        x = uniform_density(1).sample(300, np.random.default_rng(9))
        full = estimate_thresholded(x, HAAR, EstimatorConfig("thresholded", 1, 5, K=0.0))
        cut = estimate_thresholded(x, HAAR, EstimatorConfig("thresholded", 1, 5, K=1.0))
        for params in (BesovParams(0.5, 2.0, 2.0), BesovParams(1.0, INF, INF), BesovParams(0.0, 1.0, 1.0)):
            assert besov_norm(cut, params) <= besov_norm(full, params) + 1e-12

    def test_nonlinearity_witness(self):
        # each half keeps its level-1 coefficient, but on the concatenated
        # sample the coefficient halves while the threshold shrinks only by
        # sqrt 2, so it dies: thresholding is not linear in the sample
        x1 = np.array([[0.125]] * 5 + [[0.375]] * 2 + [[0.9]] * 9)
        x2 = np.array([[0.7]] * 16)
        cfg = EstimatorConfig("thresholded", 0, 1, K=1.0)
        e1 = estimate_thresholded(x1, HAAR, cfg)
        e2 = estimate_thresholded(x2, HAAR, cfg)
        full = estimate_thresholded(np.vstack([x1, x2]), HAAR, cfg)
        idx = WaveletIndex(1, (0,), (1,))
        assert e1.get(idx) != 0.0
        avg = 0.5 * e1.get(idx) + 0.5 * e2.get(idx)
        assert avg != 0.0
        assert full.get(idx) == 0.0


class TestAdaptiveEstimator:
    def test_frozen_schedule(self):
        cfg = adaptive_config(1024, 2, 1)
        assert (cfg.j0, cfg.j1) == (2, 7)

    def test_needs_three_samples(self):
        with pytest.raises(ValueError):
            adaptive_config(2, 1, 1)
        with pytest.raises(ValueError):
            adaptive_config(100, -1, 1)

    def test_levels_clamped(self):
        cfg = adaptive_config(4, 0, 3)
        assert cfg.j0 <= cfg.j1

    def test_runs_without_any_contamination_input(self):
        x = uniform_density(1).sample(200, np.random.default_rng(13))
        est = estimate(x, DB2, adaptive_config(len(x), 1, 1))
        assert est.alpha == 1.0

    def test_flat_samples_accepted(self):
        x = uniform_density(1).sample(50, np.random.default_rng(13))
        a = estimate(x[:, 0], DB2, adaptive_config(len(x), 1, 1))
        b = estimate(x, DB2, adaptive_config(len(x), 1, 1))
        assert trees_equal(a, b)


class TestEvalDensity:
    """Point values of an estimated or exact density, via `CoefficientTree.evaluate`."""

    def test_uniform_tree(self):
        tree = exact_coeffs(uniform_density(1), HAAR, 3)
        assert tree.evaluate(np.array([0.37])) == pytest.approx(1.0, abs=1e-14)

    def test_spike_tree_two_terms(self):
        idx = WaveletIndex(2, (1,), (1,))
        spiked = SpikePerturbation(uniform_density(1), HAAR, idx, 0.2)
        tree = exact_coeffs(spiked, HAAR, 3)
        pt = np.array([0.3])
        want = 1.0 + 0.2 * float(eval_wavelet(HAAR, idx, pt))
        assert tree.evaluate(pt) == pytest.approx(want, abs=1e-13)

    def test_estimate_integrates_to_alpha(self):
        x = uniform_density(1).sample(400, np.random.default_rng(17))
        est = estimate_thresholded(x, HAAR, EstimatorConfig("thresholded", 2, 4))
        grid = ((np.arange(2**10) + 0.5) / 2**10)[:, None]
        assert float(np.mean(est.evaluate(grid))) == pytest.approx(est.alpha, abs=1e-10)

