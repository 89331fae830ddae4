"""Tests for contaminated sampling and the indistinguishable pair builders."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from besov_robust import contamination
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
    SeedBlock,
    adversarial_spike_pair,
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

# The same, with a one-cell p (the uniform density) and the 2-cell
# contaminators above, at n = 0, 1 and 1000. For a Generator seed the hash
# also covers the next four draws of that Generator, so the stream position
# after the call is pinned too. Computed before the sampler skipped the
# eps = 0 mask, the n_g = 0 scatter and the one-cell search.
GOLDEN_SINGLE_CELL_SHA256 = {
    (1, 0.0, "int", 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (1, 0.0, "int", 1): "27d8b61869650f9d298d5bca9a2e2c30e94efedac21585eea779bc43d103c2b2",
    (1, 0.0, "int", 1000): "3a265bf96119abb564ddf798669edeac6cada56cb92aa4d91e8de7e0cf2e3280",
    (1, 0.0, "tuple", 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (1, 0.0, "tuple", 1): "42d6de96bad885a9d1cd566f8bd9632224a432492b5da6983eba5b7577ed272d",
    (1, 0.0, "tuple", 1000): "542a259d2a8588d88cbd405eb59fd7b0c5b9c2e683be2b59c2a66e877f93a04f",
    (1, 0.0, "generator", 0): "5aa9e3b47e68f7bcb4b828f546646ad478736990c5ba88479a41a06ff2dea61c",
    (1, 0.0, "generator", 1): "90a5a9e883e5d3c223f6518128c109597f5c2dba7846131cdd52515201f6263d",
    (1, 0.0, "generator", 1000): "014e79e4d221011166834a8f710b42bff8ac7202349e0f13a971c82542360f06",
    (1, 0.25, "int", 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (1, 0.25, "int", 1): "27d8b61869650f9d298d5bca9a2e2c30e94efedac21585eea779bc43d103c2b2",
    (1, 0.25, "int", 1000): "28212da9af5067d282408e3e7de1d726890e83cf164a071e63d97bf0520f40f4",
    (1, 0.25, "tuple", 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (1, 0.25, "tuple", 1): "42d6de96bad885a9d1cd566f8bd9632224a432492b5da6983eba5b7577ed272d",
    (1, 0.25, "tuple", 1000): "e616d60a1bfa8894edde48306bad0a15c41a31df757ea0b90693905c5c250cdf",
    (1, 0.25, "generator", 0): "5aa9e3b47e68f7bcb4b828f546646ad478736990c5ba88479a41a06ff2dea61c",
    (1, 0.25, "generator", 1): "90a5a9e883e5d3c223f6518128c109597f5c2dba7846131cdd52515201f6263d",
    (1, 0.25, "generator", 1000): "436e2e289a048f485fade54322d1fa04161b881d31b504a1e421b0cf89fb933b",
    (2, 0.0, "int", 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (2, 0.0, "int", 1): "7e399d358c99f9128ad6c7e8c6a555a691b45ca06e18399168f7b111e7aa28ad",
    (2, 0.0, "int", 1000): "9215553b6d4fa442dc91cbaf45d1a543127f16baf768b22aadba8b788364542c",
    (2, 0.0, "tuple", 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (2, 0.0, "tuple", 1): "91f9f67541120be13093f2a7d81975e3b669f4f5b6518d0112f76219296f169d",
    (2, 0.0, "tuple", 1000): "358453280bc88526783345a104af7c1ddf0c713f6ca66df7c6c72d76ca550c92",
    (2, 0.0, "generator", 0): "5aa9e3b47e68f7bcb4b828f546646ad478736990c5ba88479a41a06ff2dea61c",
    (2, 0.0, "generator", 1): "aac0be4ef85247ef41b52c29e024dd125296776123cad009381e640aedbb15b2",
    (2, 0.0, "generator", 1000): "fdbf60440e40d3dc60505085af29d2314cb081d140a62d51431684bedc1e03d1",
    (2, 0.25, "int", 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (2, 0.25, "int", 1): "7e399d358c99f9128ad6c7e8c6a555a691b45ca06e18399168f7b111e7aa28ad",
    (2, 0.25, "int", 1000): "7ab16d2cff4d32e942abbd82cf119fb4ceac7255213a2dca65d17a34aa1d3f1e",
    (2, 0.25, "tuple", 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (2, 0.25, "tuple", 1): "91f9f67541120be13093f2a7d81975e3b669f4f5b6518d0112f76219296f169d",
    (2, 0.25, "tuple", 1000): "872cb0caf8809aa04273e8e08bb596e2e0da1d53916a1ecd40157e7bfb2c6a98",
    (2, 0.25, "generator", 0): "5aa9e3b47e68f7bcb4b828f546646ad478736990c5ba88479a41a06ff2dea61c",
    (2, 0.25, "generator", 1): "aac0be4ef85247ef41b52c29e024dd125296776123cad009381e640aedbb15b2",
    (2, 0.25, "generator", 1000): "177c39b0f230ce0880295f8801f50dc1a909b94b8c545b0548f74eb1ddde14bc",
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

    def test_structured_budget_reads_every_cell(self):
        # a 256 x 256 contaminator, flat but for cell (0, 1) at 3: a midpoint
        # grid of 181 points per axis never reads that column
        values = np.ones((256, 256))
        values[0, 1] = 3.0
        g = PiecewiseConstant(values / values.mean(), 8)
        assert g.sup_bound() == pytest.approx(3.0, rel=1e-4)
        with pytest.raises(NotSupBounded, match="sup bound 2.9999"):
            ContaminationSpec(0.1, "structured", g=g, M=1.01)
        ContaminationSpec(0.1, "structured", g=g, M=g.sup_bound())

    @pytest.mark.parametrize(
        "g",
        [
            PiecewiseConstant([0.25, 1.75, 0.5, 1.5], 2),
            PiecewiseConstant([[0.5, 1.5], [1.25, 0.75]], 1),
            SpikePerturbation(uniform_density(1), HAAR, WaveletIndex(2, (1,), (1,)), 0.3),
            SpikePerturbation(uniform_density(2), HAAR, WaveletIndex(1, (1, 0), (1, 1)), 0.5),
        ],
        ids=["pwc-d1", "pwc-d2", "spike-d1", "spike-d2"],
    )
    def test_sup_bound_is_the_pdf_max(self, g):
        # on a midpoint grid of 2^-4 cells the pdf reaches its sup bound and
        # never passes it; a budget of that bound is admitted, one just
        # under it is not
        axis = (np.arange(16) + 0.5) / 16
        grid = np.stack(np.meshgrid(*[axis] * g.dim, indexing="ij"), axis=-1).reshape(-1, g.dim)
        assert g.pdf(grid).max() == pytest.approx(g.sup_bound(), rel=1e-14)
        ContaminationSpec(0.1, "structured", g=g, M=g.sup_bound())
        with pytest.raises(NotSupBounded):
            ContaminationSpec(0.1, "structured", g=g, M=0.99 * g.sup_bound())


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

    @pytest.mark.byte_pin
    @pytest.mark.parametrize("dim,eps,seed_kind", sorted(GOLDEN_HUBER_SHA256))
    def test_golden_bits(self, dim, eps, seed_kind):
        # SHA-256 of the float64 bytes of 1000 draws: every artifact depends
        # on these streams, so any change to them shows here
        p, g = HUBER_MODELS[dim]
        seed = {"int": 20240817, "tuple": (7, 3, 11), "generator": np.random.default_rng(5)}
        x = sample_huber(p, g, eps, 1000, seed[seed_kind])
        assert x.dtype == np.float64 and x.shape == (1000, dim)
        assert hashlib.sha256(x.tobytes()).hexdigest() == GOLDEN_HUBER_SHA256[(dim, eps, seed_kind)]

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("eps", [0.0, 2.0**-8, 0.25, 0.75])
    @pytest.mark.parametrize("seed", [20240817, (7, 3, 11)], ids=["int", "tuple"])
    def test_children_equal_spawned_children(self, dim, eps, seed):
        # the mixture drawn from the children of SeedSequence(seed).spawn(3)
        # (mask, p, g), the streams the block hash must reproduce, assembled
        # by mask from a sparse g share at 2^-8, a dense one at 1/4 and a
        # majority at 3/4
        p, g = HUBER_MODELS[dim]
        n = 1000
        kids = np.random.SeedSequence(seed).spawn(3)
        mask = np.random.default_rng(kids[0]).random(n) < eps
        want = np.empty((n, dim))
        want[~mask] = p.sample(n - int(mask.sum()), np.random.default_rng(kids[1]))
        want[mask] = g.sample(int(mask.sum()), np.random.default_rng(kids[2]))
        assert (eps == 0.0) == (not mask.any())
        np.testing.assert_array_equal(sample_huber(p, g, eps, n, seed), want)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("p_kind", ["pwc", "uniform"])
    @pytest.mark.parametrize(
        "eps,n,grouped",
        [(0.0, 1000, False), (2.0**-8, 8, False), (2.0**-8, 8, True), (0.25, 1000, False), (0.25, 1000, True)],
        ids=["eps0", "no-g-ordered", "no-g-grouped", "ordered", "grouped"],
    )
    def test_trial_draws_into_its_rows(self, dim, p_kind, eps, n, grouped):
        # every branch of a trial returns the rows it is handed, holding the
        # draws of the spawned children (mask, p, g): in sample order, or
        # p's then g's when grouped; no other row is written
        p = HUBER_MODELS[dim][0] if p_kind == "pwc" else uniform_density(dim)
        g = HUBER_MODELS[dim][1]
        seed = 20240817
        kids = np.random.SeedSequence(seed).spawn(3)
        mask = np.random.default_rng(kids[0]).random(n) < eps
        n_g = int(mask.sum())
        assert (n_g == 0) == (n == 8 or eps == 0.0)
        p_draw = p.sample(n - n_g, np.random.default_rng(kids[1]))
        g_draw = g.sample(n_g, np.random.default_rng(kids[2]))
        if grouped:
            want = np.concatenate([p_draw, g_draw])
        else:
            want = np.empty((n, dim))
            want[~mask], want[mask] = p_draw, g_draw
        block = np.full((n + 2, dim), -1.0)
        rows = block[1:-1]
        got = contamination._trial(p, g, eps, n, SeedBlock.of([seed]).states[0], rows, grouped)
        assert got is rows
        assert np.array_equal(rows.view(np.int64), want.view(np.int64))
        assert np.array_equal(block[[0, -1]], np.full((2, dim), -1.0))

    def test_unseeded_draw(self):
        p, g = HUBER_MODELS[2]
        x = sample_huber(p, g, 0.25, 500, None)
        assert x.shape == (500, 2) and np.all((0.0 <= x) & (x < 1.0))

    @pytest.mark.byte_pin
    @pytest.mark.parametrize("dim,eps,seed_kind,n", sorted(GOLDEN_SINGLE_CELL_SHA256))
    def test_golden_bits_single_cell(self, dim, eps, seed_kind, n):
        seed = {"int": 20240817, "tuple": (7, 3, 11), "generator": np.random.default_rng(5)}
        x = sample_huber(uniform_density(dim), HUBER_MODELS[dim][1], eps, n, seed[seed_kind])
        assert x.dtype == np.float64 and x.shape == (n, dim)
        digest = hashlib.sha256(x.tobytes())
        if seed_kind == "generator":
            digest.update(seed["generator"].random(4).tobytes())
        assert digest.hexdigest() == GOLDEN_SINGLE_CELL_SHA256[(dim, eps, seed_kind, n)]


def first_draws(seed_sequence_or_state) -> np.ndarray:
    """The first four 64-bit outputs of the stream a SeedSequence, or a
    child's PCG64 seed words, seeds."""
    if isinstance(seed_sequence_or_state, np.random.SeedSequence):
        rng = np.random.default_rng(seed_sequence_or_state)
    else:
        rng = np.random.Generator(np.random.PCG64(contamination._ChildSeed(seed_sequence_or_state)))
    return rng.integers(0, 2**64, size=4, dtype=np.uint64, endpoint=False)


WORDS = st.integers(0, 2**64 - 1)
ENTROPIES = st.one_of(
    WORDS,
    st.tuples(WORDS),
    st.lists(st.one_of(st.integers(0, 2**32 - 1), WORDS), min_size=1, max_size=6).map(tuple),
    st.integers(0, 2**128 - 1),
)


class TestBlockHash:
    """`SeedBlock.of` hashes a block's child seeds at once; each must seed
    the stream of default_rng(SeedSequence(e, spawn_key=(k,)))."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(ENTROPIES, min_size=1, max_size=8))
    @example([7, (1, 2**40, 3, 4, 5, 2**63), 2**100, (0,), 2**64 - 1])
    def test_block_equals_seed_sequence_children(self, block):
        # a block may mix entropies of one to eight words, past the pool of 4
        states = SeedBlock.of(block).states
        assert states.shape == (len(block), 3, 4) and states.dtype == np.uint64
        for e, row in zip(block, states):
            for k in range(3):
                want = first_draws(np.random.SeedSequence(e, spawn_key=(k,)))
                np.testing.assert_array_equal(first_draws(row[k]), want)

    def test_unseeded_root_entropy(self):
        e = np.random.SeedSequence().entropy
        assert 0 <= e < 2**128
        row = SeedBlock.of([e]).states[0]
        for k in range(3):
            want = first_draws(np.random.SeedSequence(e, spawn_key=(k,)))
            np.testing.assert_array_equal(first_draws(row[k]), want)

    @pytest.mark.parametrize("entropy", [-1, (3, -2**40), (1, (2, -5))])
    def test_negative_entry_refused(self, entropy):
        with pytest.raises(ValueError):
            np.random.SeedSequence(entropy)
        with pytest.raises(ValueError):
            SeedBlock.of([7, entropy])

    def test_slice_is_block_of_those_trials(self):
        seeds = [(5, 0, t) for t in range(7)]
        block = SeedBlock.of(seeds)
        assert len(block[2:5]) == 3
        np.testing.assert_array_equal(block[2:5].states, SeedBlock.of(seeds[2:5]).states)

    def test_child_seed_serves_pcg64_only(self):
        state = SeedBlock.of([1]).states[0, 0]
        with pytest.raises(ValueError):
            contamination._ChildSeed(state).generate_state(8, np.uint32)


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
        assert besov_norm(tree, BesovParams(1.0, INF, INF, 2.0)) <= 2.0

    def test_ball_violation(self):
        with pytest.raises(BallViolation):
            lecam_structured_pair(BesovParams(1.0, INF, INF, 1.0), 0.1, self.IDX, HAAR)

    def test_eps_range(self):
        with pytest.raises(ValueError):
            lecam_structured_pair(GEN, 0.0, self.IDX, HAAR)


class TestPairSizeCap:
    def test_largest_levels_under_the_cap(self):
        # the Haar contaminator's (2^(j+1))^2 cell matrix binds the sparse
        # pair in 1-d; the D 2^(D(j+1)) cell midpoints bind it from D = 2 on
        # and bind the structured pair
        for j, dim, cell_matrix in [(11, 1, True), (10, 2, True), (6, 3, True), (23, 1, False), (10, 2, False)]:
            contamination._check_level(j, dim, cell_matrix)
            with pytest.raises(ValueError, match="over the cap"):
                contamination._check_level(j + 1, dim, cell_matrix)

    def test_constructors_refuse_before_building(self):
        with pytest.raises(ValueError, match="level 30"):
            adversarial_spike_pair(GEN, TV, 2.0**-60, 1, HAAR)
        with pytest.raises(ValueError, match="level 40"):
            lecam_structured_pair(GEN, 0.1, WaveletIndex(40, (1,), (1,)), HAAR)


class TestVerifyIndistinguishable:
    def test_same_model_same_seed(self):
        u = uniform_density(1)
        rep = verify_indistinguishable((u, u), (u, u), 0.2, 5000, 13, family=HAAR, j_max=2)
        assert rep.ks_passed
        assert rep.tree_difference == 0.0

    def test_broken_pair_detected(self):
        p, p_tilde, g, g_tilde = lecam_structured_pair(GEN, 0.3, WaveletIndex(1, (0,), (1,)), HAAR)
        bad_g = SpikePerturbation(uniform_density(1), HAAR, WaveletIndex(1, (0,), (1,)), g.coeff * 2)
        rep = verify_indistinguishable((p, bad_g), (p_tilde, g_tilde), 0.3, 10**6, 5, family=HAAR, j_max=2)
        assert not rep.ks_passed
        # the tree check also localizes the discrepancy
        rep2 = verify_indistinguishable((p, bad_g), (p_tilde, g_tilde), 0.3, 100, 5, family=HAAR, j_max=2)
        assert rep2.tree_difference > 1e-6
        assert not rep2.passed
