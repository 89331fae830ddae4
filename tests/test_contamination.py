"""Tests for contaminated sampling and the indistinguishable pair builders."""

import hashlib
import math

import numpy as np
import pytest

from besov_robust.besov import LOSS_PRESETS, BesovParams, besov_ipm, besov_norm
from besov_robust.coefficients import (
    CoefficientTree,
    PiecewiseConstant,
    SpikePerturbation,
    exact_coeffs,
    uniform_density,
)
from besov_robust.contamination import (
    ContaminationSpec,
    IndistinguishabilityReport,
    adversarial_spike_pair,
    grid_sup,
    lecam_structured_pair,
    sample_huber,
    verify_indistinguishable,
)
from besov_robust.errors import BallViolation, InfeasibleEpsilon, NotSupBounded
from besov_robust.wavelets import WaveletIndex, wavelet_family

INF = math.inf
HAAR = wavelet_family("haar")
GEN = BesovParams(1.0, INF, INF, 2.0)
TV = LOSS_PRESETS["tv"]

HUBER_MODELS = {
    1: (PiecewiseConstant([0.5, 1.5], 1), PiecewiseConstant([2.0, 0.0], 1)),
    2: (
        PiecewiseConstant([[0.5, 1.5], [1.25, 0.75]], 1),
        PiecewiseConstant([[2.0, 0.0], [0.0, 2.0]], 1),
    ),
}
GOLDEN_HUBER_SHA256 = {
    (1, 0.0, "int"): "febd0db178c0344b4763ad202a608e10a55aab4bf9e491eb85d6ee941e412fb8",
    (1, 0.0, "tuple"): "c82ee9d7aafa966ad5d0858be2572138e7b109ff3696a517ac1bf7540864f48c",
    (1, 0.0, "generator"): "2e0a1345d571b63f4a1bb69d7f5f82cf09498c7fcf7635df354d24becf694659",
    (1, 0.25, "int"): "b1ed1912e9e5ed7b8e73d615d3c559541acbfbbee2191f8678d28ba6e977ff57",
    (1, 0.25, "tuple"): "da1dcea408902550856f90366a08944f712fc06ef592d7f20e2e67d5c2e4c62e",
    (1, 0.25, "generator"): "4e49629b6e02580d9532c9334e36bd228bb39c478554c4fc7b5b8979cb81ba26",
    (2, 0.0, "int"): "cdc2cba30a2b799b9dd60902a233c400972ce74c4a02dd3e2a99f60a05c501f4",
    (2, 0.0, "tuple"): "6509a0707dd8278de8052d379ee3100119a21e3555f24eec86368b05c056653b",
    (2, 0.0, "generator"): "5a7f88f0b61eb443a38827b4cc19fc9b55632a6f2838959b134027841bd4411a",
    (2, 0.25, "int"): "219ed1d88872b6ee7ac2feee2b574425a50fd13b5c0cdfc2e6308327df2d4c4c",
    (2, 0.25, "tuple"): "fea9e143487cb8885ef5a41bfdbb6c50bba309a49e6e026d43fbc08fd61bcb6f",
    (2, 0.25, "generator"): "26314ccb819581367cf6c1bd5a18a4cf6b0af1e188ba139822cbabfe20cb1fb1",
}


class TestSpec:
    def test_eps_range(self):
        with pytest.raises(ValueError):
            ContaminationSpec(1.0, "unstructured", g=uniform_density(1))
        with pytest.raises(ValueError):
            ContaminationSpec(-0.1, "unstructured", g=uniform_density(1))

    def test_explicit_modes_need_g(self):
        with pytest.raises(ValueError):
            ContaminationSpec(0.1, "unstructured")
        with pytest.raises(ValueError):
            ContaminationSpec(0.1, "structured", g=uniform_density(1))  # missing M

    def test_structured_sup_budget(self):
        ContaminationSpec(0.1, "structured", g=uniform_density(1), M=1.5)
        spiky = PiecewiseConstant(np.array([0.0, 2.0]), 1)
        with pytest.raises(NotSupBounded):
            ContaminationSpec(0.1, "structured", g=spiky, M=1.5)

    @pytest.mark.parametrize("mode", ["structured", "unstructured"])
    @pytest.mark.parametrize("M", [math.nan, 0.0, -1.0])
    def test_budget_must_be_positive(self, mode, M):
        with pytest.raises(ValueError):
            ContaminationSpec(0.1, mode, g=uniform_density(1), M=M)

    def test_only_explicit_modes(self):
        with pytest.raises(ValueError):
            ContaminationSpec(0.1, "lecam-pair", g=uniform_density(1))

    def test_grid_sup(self):
        assert grid_sup(uniform_density(2)) == pytest.approx(1.0)
        assert grid_sup(PiecewiseConstant(np.array([0.5, 1.5]), 1)) == pytest.approx(1.5)


class TestSampling:
    def test_spec_sampling_matches_mixture_rate(self):
        left = PiecewiseConstant(np.array([2.0, 0.0]), 1)
        right = PiecewiseConstant(np.array([0.0, 2.0]), 1)
        spec = ContaminationSpec(0.3, "unstructured", g=right)
        pts = sample_huber(left, spec.g, spec.eps, 10**5, 11)
        frac = float(np.mean(pts[:, 0] >= 0.5))
        assert abs(frac - 0.3) < 0.01

    def test_deterministic(self):
        a = sample_huber(uniform_density(1), uniform_density(1), 0.25, 64, 9)
        b = sample_huber(uniform_density(1), uniform_density(1), 0.25, 64, 9)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dim,eps,seed_kind", sorted(GOLDEN_HUBER_SHA256))
    def test_golden_bits(self, dim, eps, seed_kind):
        # SHA-256 of the float64 bytes of 1000 draws: every artifact depends
        # on these streams, so any change to them shows here
        p, g = HUBER_MODELS[dim]
        seed = {"int": 20240817, "tuple": (7, 3, 11), "generator": np.random.default_rng(5)}
        x = sample_huber(p, g, eps, 1000, seed[seed_kind])
        assert x.dtype == np.float64 and x.shape == (1000, dim)
        assert hashlib.sha256(x.tobytes()).hexdigest() == GOLDEN_HUBER_SHA256[(dim, eps, seed_kind)]


class TestSpikePair:
    @pytest.mark.parametrize("log2eps,want_j", [(-4, 2), (-6, 3), (-8, 4)])
    def test_level_choice(self, log2eps, want_j):
        # 2^j = eps^{-1/(sigma_g + D - D/p_g)} = eps^{-1/2} here
        _, p_tilde, *_ = adversarial_spike_pair(GEN, TV, 2.0**log2eps, 1, HAAR)
        assert p_tilde.index.j == want_j

    def test_measured_separation_equals_predicted(self):
        for log2eps in (-4, -6, -8):
            p, p_tilde, _, _, pred = adversarial_spike_pair(GEN, TV, 2.0**log2eps, 1, HAAR)
            t1 = exact_coeffs(p, HAAR, 6)
            t2 = exact_coeffs(p_tilde, HAAR, 6)
            assert besov_ipm(t1, t2, TV) == pytest.approx(pred, rel=1e-12)

    def test_separation_linear_in_eps(self):
        # at these parameters the separation exponent is exactly 1
        es = [2.0**-4, 2.0**-6, 2.0**-8]
        preds = [adversarial_spike_pair(GEN, TV, e, 1, HAAR)[4] for e in es]
        slope = np.polyfit(np.log2(es), np.log2(preds), 1)[0]
        assert slope == pytest.approx(1.0, abs=1e-9)

    def test_mixtures_identical(self):
        eps = 2.0**-4
        p, p_tilde, g, g_tilde, _ = adversarial_spike_pair(GEN, TV, eps, 1, HAAR)
        rep = verify_indistinguishable(
            (p, g), (p_tilde, g_tilde), eps, 2 * 10**4, 7, family=HAAR, j_max=4
        )
        assert isinstance(rep, IndistinguishabilityReport)
        assert rep.tree_difference <= 1e-12
        assert rep.ks_passed
        assert rep.passed

    def test_contaminators_are_densities_with_bounded_transfer(self):
        eps = 2.0**-6
        _, _, g, g_tilde, _ = adversarial_spike_pair(GEN, TV, eps, 1, HAAR)
        assert float(np.mean(g.values)) == pytest.approx(1.0, abs=1e-12)
        assert float(np.mean(g_tilde.values)) == pytest.approx(1.0, abs=1e-12)
        assert np.all(g.values >= 0.0) and np.all(g_tilde.values >= 0.0)
        moved = float(np.mean(np.abs(g.values - g_tilde.values)))
        assert moved <= 2.0
        assert float(np.mean(g.values - g_tilde.values)) == pytest.approx(0.0, abs=1e-12)

    def test_truth_stays_in_generator_ball(self):
        _, p_tilde, *_ = adversarial_spike_pair(GEN, TV, 2.0**-5, 1, HAAR)
        tree = exact_coeffs(p_tilde, HAAR, p_tilde.index.j + 1)
        assert besov_norm(tree, GEN) <= GEN.L * (1 + 1e-12)

    def test_two_dimensional_pair(self):
        gen2 = BesovParams(1.0, INF, INF, 2.0)
        eps = 2.0**-6
        p, p_tilde, g, g_tilde, pred = adversarial_spike_pair(gen2, TV, eps, 2, HAAR)
        rep = verify_indistinguishable(
            (p, g), (p_tilde, g_tilde), eps, 10**4, 3, family=HAAR, j_max=p_tilde.index.j + 1
        )
        assert rep.tree_difference <= 1e-12
        t1 = exact_coeffs(p, HAAR, p_tilde.index.j + 1)
        t2 = exact_coeffs(p_tilde, HAAR, p_tilde.index.j + 1)
        assert besov_ipm(t1, t2, TV) == pytest.approx(pred, rel=1e-12)

    def test_errors(self):
        with pytest.raises(InfeasibleEpsilon):
            adversarial_spike_pair(GEN, TV, 0.0, 1, HAAR)
        with pytest.raises(BallViolation):
            adversarial_spike_pair(BesovParams(1.0, INF, INF, 1.0), TV, 0.1, 1, HAAR)
        with pytest.raises(ValueError):
            adversarial_spike_pair(GEN, TV, 0.1, 1, wavelet_family("db2"))
        with pytest.raises(ValueError):
            # sigma_g < D/p_g breaks the construction's membership logic
            adversarial_spike_pair(BesovParams(0.5, 1.0, INF, 2.0), TV, 0.1, 1, HAAR)


class TestLeCamPair:
    IDX = WaveletIndex(2, (1,), (1,))

    def test_ipm_over_eps_constant(self):
        vals = []
        for eps in (0.01, 0.02, 0.04):
            p, p_tilde, _, _ = lecam_structured_pair(GEN, eps, self.IDX, HAAR)
            t1 = exact_coeffs(p, HAAR, 3)
            t2 = exact_coeffs(p_tilde, HAAR, 3)
            vals.append(besov_ipm(t1, t2, TV) / eps)
        assert max(vals) - min(vals) <= 1e-9 * max(vals)

    def test_mixtures_identical(self):
        p, p_tilde, g, g_tilde, = lecam_structured_pair(GEN, 0.25, self.IDX, HAAR)
        rep = verify_indistinguishable((p, g), (p_tilde, g_tilde), 0.25, 2 * 10**4, 3, family=HAAR, j_max=3)
        assert rep.tree_difference <= 1e-12
        assert rep.passed

    def test_contaminator_sup_bounded(self):
        _, _, g, g_tilde = lecam_structured_pair(GEN, 0.25, self.IDX, HAAR)
        assert g.sup_bound() <= 2.0 + 1e-12
        assert g_tilde.sup_bound() == 1.0  # the clean base

    def test_contaminator_in_ball(self):
        # g - base is a single daughter; its norm fits a radius-2 ball
        _, _, g, _ = lecam_structured_pair(GEN, 0.25, self.IDX, HAAR)
        tree = exact_coeffs(g, HAAR, 3)
        assert besov_norm(tree, BesovParams(1.0, INF, INF, 2.0, "contamination")) <= 2.0

    def test_ball_violation(self):
        with pytest.raises(BallViolation):
            lecam_structured_pair(BesovParams(1.0, INF, INF, 1.0), 0.1, self.IDX, HAAR)

    def test_eps_range(self):
        with pytest.raises(ValueError):
            lecam_structured_pair(GEN, 0.0, self.IDX, HAAR)


class TestVerifyIndistinguishable:
    def test_same_model_same_seed(self):
        u = uniform_density(1)
        rep = verify_indistinguishable((u, u), (u, u), 0.2, 5000, 13)
        assert rep.ks_passed
        assert rep.tree_difference is None

    def test_broken_pair_detected(self):
        p, p_tilde, g, g_tilde = lecam_structured_pair(GEN, 0.3, WaveletIndex(1, (0,), (1,)), HAAR)
        bad_g = SpikePerturbation(uniform_density(1), HAAR, WaveletIndex(1, (0,), (1,)), g.coeff * 2)
        rep = verify_indistinguishable((p, bad_g), (p_tilde, g_tilde), 0.3, 10**6, 5)
        assert not rep.ks_passed
        # the tree check also localizes the discrepancy
        rep2 = verify_indistinguishable((p, bad_g), (p_tilde, g_tilde), 0.3, 100, 5, family=HAAR, j_max=2)
        assert rep2.tree_difference > 1e-6
        assert not rep2.passed
