"""Tests for the exponent oracle, risk harness, and rate fitting."""

import concurrent.futures
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from besov_robust import harness
from besov_robust.besov import LOSS_PRESETS, BesovParams, besov_ipm, besov_norm, conjugate
from besov_robust.coefficients import PiecewiseConstant, exact_coeffs, uniform_density
from besov_robust.contamination import ContaminationSpec, sample_huber
from besov_robust.errors import DegenerateFit, RegimeMismatch
from besov_robust.estimators import EstimatorConfig, adaptive_config, choose_resolutions, estimate
from besov_robust.harness import (
    ExponentSet,
    benchmark_suite,
    breakdown_curve,
    breakdown_point,
    fit_rate,
    fit_report_rate,
    resolve_jobs,
    risk_trials,
    run_sweep,
    theoretical_exponents,
)
from besov_robust.wavelets import wavelet_family

INF = math.inf
HAAR = wavelet_family("haar")
DB2 = wavelet_family("db2")
TV = LOSS_PRESETS["tv"]
GEN = BesovParams(1.0, INF, INF, 2.0)
NOSPEC = ContaminationSpec(0.0, "unstructured", g=uniform_density(1))


def random_indices(rng, dim=1):
    sigma_g, p_g = 0.0, 1.0
    while sigma_g <= dim / p_g:  # stay inside the continuity range
        sigma_g = rng.uniform(0.3, 4.0)
        p_g = rng.choice([1.0, 1.5, 2.0, 4.0, INF])
    sigma_d = rng.uniform(0.0, 2.0)
    p_d = rng.choice([1.0, 4.0 / 3.0, 2.0, 4.0, INF])
    gen = BesovParams(sigma_g, p_g, rng.choice([1.0, 2.0, INF]), 2.0)
    disc = BesovParams(sigma_d, p_d, rng.choice([1.0, 2.0, INF]), 1.0)
    return gen, disc


class TestExponents:
    def test_holder_tv_matches_pointwise_rate(self):
        ex = theoretical_exponents(GEN, TV, 1, "dense-unstructured")
        assert ex.n_exponents == (0.5, pytest.approx(1 / 3), pytest.approx(2 / 3))
        assert ex.eps_exponents == (1.0,)
        assert ex.dominant_n == pytest.approx(1 / 3)
        assert ex.dominant_eps == 1.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_lp_loss_eps_exponent(self, p):
        # L^p loss means the discriminator ball is the conjugate space
        pc = p / (p - 1.0)
        disc = BesovParams(0.0, pc, pc, 1.0)
        ex = theoretical_exponents(GEN, disc, 1, "dense-unstructured")
        want = 1.0 / (1.0 + 1.0 - 1.0 / p)
        assert ex.dominant_eps == pytest.approx(want, rel=1e-12)
        assert any(e == pytest.approx(want, rel=1e-12) for e in ex.eps_exponents)

    def test_smooth_dense_discriminator_collapses_to_eps(self):
        for gen, disc in [
            (GEN, BesovParams(1.0, 1.0, 1.0, 1.0)),
            (BesovParams(1.0, 2.0, 2.0, 2.0), BesovParams(2.0, 2.0, 2.0, 1.0)),
        ]:
            ex = theoretical_exponents(gen, disc, 1, "dense-unstructured")
            assert ex.eps_exponents == (1.0,)

    def test_smooth_sparse_hits_parametric_floor(self):
        disc = BesovParams(2.0, 1.0, 1.0, 1.0)
        ex = theoretical_exponents(GEN, disc, 1, "sparse-unstructured")
        assert ex.n_exponents == (0.5, 1.0, 1.0)
        assert ex.dominant_n == 0.5
        assert ex.eps_exponents == (1.0,)

    def test_structured_eps_is_always_one(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            dim = int(rng.integers(1, 4))
            gen, disc = random_indices(rng, dim)
            ex = theoretical_exponents(gen, disc, dim, "structured")
            assert ex.eps_exponents == (1.0,)

    def test_linear_never_beats_thresholded(self):
        rng = np.random.default_rng(5)
        count_eq = 0
        for _ in range(300):
            D = int(rng.integers(1, 4))
            gen, disc = random_indices(rng, D)
            pdc = conjugate(disc.p)
            if pdc < gen.p:
                continue
            ex = theoretical_exponents(gen, disc, D, "sparse-unstructured")
            dom5 = min(ex.n_exponents)
            dom6 = min(ex.n_exponents_linear)
            assert dom6 <= dom5 + 1e-12
            if disc.sigma >= D / 2.0 or pdc <= gen.p:
                assert dom6 == pytest.approx(dom5, rel=1e-12)
                count_eq += 1
        assert count_eq > 10

    def test_linear_sparse_dominant_uses_linear_terms(self):
        gen = BesovParams(1.5, 2.0, 2.0, 2.0)
        disc = BesovParams(0.1, 4.0 / 3.0, 2.0, 1.0)
        ex = theoretical_exponents(gen, disc, 1, "linear-sparse")
        assert ex.dominant_n == pytest.approx(1.35 / 3.5, rel=1e-12)
        sparse = theoretical_exponents(gen, disc, 1, "sparse-unstructured")
        assert sparse.dominant_n == pytest.approx(0.4, rel=1e-12)

    def test_hypothesis_checks(self):
        rough = BesovParams(0.5, 1.0, 1.0, 2.0)
        with pytest.raises(RegimeMismatch, match="sigma_g > D/p_g"):
            theoretical_exponents(rough, TV, 1, "sparse-unstructured")
        with pytest.raises(RegimeMismatch, match="sigma_g >= D/p_g"):
            theoretical_exponents(rough, TV, 1, "structured")
        with pytest.raises(RegimeMismatch, match="conjugate"):
            theoretical_exponents(GEN, TV, 1, "sparse-unstructured")
        with pytest.raises(RegimeMismatch, match="conjugate"):
            theoretical_exponents(
                BesovParams(1.5, 2.0, 2.0, 2.0),
                BesovParams(2.0, 1.0, 1.0, 1.0),
                1,
                "dense-unstructured",
            )
        with pytest.raises(RegimeMismatch, match="regularity"):
            theoretical_exponents(GEN, TV, 1, "dense-unstructured", r=1.0)
        with pytest.raises(ValueError):
            theoretical_exponents(GEN, TV, 1, "no-such-regime")
        with pytest.raises(RegimeMismatch, match="outside"):
            ExponentSet("structured", (0.5, 0.0, 1.0), (0.5, 0.5, 0.5), (1.0,))


class TestBreakdown:
    def test_parametric_floor_gives_root_n(self):
        disc = BesovParams(2.0, 1.0, 1.0, 1.0)
        curve = breakdown_curve(GEN, disc, 1, "sparse-unstructured", [16, 256])
        assert curve == [(16, 0.25), (256, 0.0625)]

    def test_structured_tv(self):
        curve = breakdown_curve(GEN, TV, 1, "structured", [64, 4096])
        assert curve[0] == (64, pytest.approx(0.25, rel=1e-12))
        assert curve[1] == (4096, pytest.approx(0.0625, rel=1e-12))

    def test_nonincreasing(self):
        curve = breakdown_curve(GEN, TV, 1, "dense-unstructured", [2**k for k in range(4, 16)])
        eps = [e for _, e in curve]
        assert all(a >= b for a, b in zip(eps, eps[1:]))

    def test_point_monotone_in_eps_exponent(self):
        assert breakdown_point(4096, 1 / 3, 1.0) < breakdown_point(4096, 1 / 3, 2.0) < 1.0
        with pytest.raises(ValueError):
            breakdown_point(1, 0.5, 1.0)
        with pytest.raises(ValueError):
            breakdown_point(4096, 0.0, 1.0)


class TestBenchmarkSuite:
    def test_frozen_norms(self):
        suite = benchmark_suite(GEN, 1)
        assert [name for name, _ in suite] == ["uniform", "dyadic-pwc", "spike"]
        norms = [besov_norm(exact_coeffs(m, HAAR, 4), GEN) for _, m in suite]
        assert norms[0] == pytest.approx(1.0)
        assert norms[1] == pytest.approx(1.6, rel=1e-9)
        assert norms[2] == pytest.approx(1.8, rel=1e-9)

    def test_members_are_positive_densities(self):
        for dim in (1, 2):
            for _, model in benchmark_suite(GEN, dim):
                assert model.min_value() > 0.0
                assert float(np.mean(model.values)) == pytest.approx(1.0)

    def test_deterministic_and_db_compatible(self):
        a = benchmark_suite(GEN, 1)
        b = benchmark_suite(GEN, 1)
        for (_, ma), (_, mb) in zip(a[1:], b[1:]):
            np.testing.assert_array_equal(ma.values, mb.values)
        for _, model in a:
            exact_coeffs(model, DB2, 3)  # must not raise

    def test_tight_ball_keeps_only_uniform(self):
        suite = benchmark_suite(BesovParams(1.0, INF, INF, 1.01), 1)
        assert [name for name, _ in suite] == ["uniform"]


class TestEstimateRisk:
    """Mean IPM risks over seeded trials, from `risk_trials`."""

    def test_dyadic_truth_low_risk(self):
        vals = np.full(8, 1.0)
        vals[1], vals[5] = 1.5, 0.5
        truth = PiecewiseConstant(vals, 3)
        cfg = EstimatorConfig("linear", 3, 3)
        risks = risk_trials(truth, NOSPEC, cfg, TV, 2**16, 4, 7, family=HAAR)
        assert risks.mean() < 0.05
        assert risks.mean() == pytest.approx(0.024994, abs=2e-3)
        assert risks.std(ddof=1) / math.sqrt(risks.size) > 0.0

    def test_risk_decreases_in_n(self):
        cfg = EstimatorConfig("linear", 3, 3)
        uni = uniform_density(1)
        means = [risk_trials(uni, NOSPEC, cfg, TV, 2**k, 6, 3, family=HAAR).mean() for k in range(8, 15)]
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_deterministic(self):
        cfg = EstimatorConfig("linear", 2, 2)
        a = risk_trials(uniform_density(1), NOSPEC, cfg, TV, 512, 3, 9, family=HAAR)
        b = risk_trials(uniform_density(1), NOSPEC, cfg, TV, 512, 3, 9, family=HAAR)
        np.testing.assert_array_equal(a, b)

    def test_needs_one_trial(self):
        cfg = EstimatorConfig("linear", 2, 2)
        with pytest.raises(ValueError, match="at least one trial"):
            risk_trials(uniform_density(1), NOSPEC, cfg, TV, 64, 0, 0, family=HAAR)

    def test_needs_sample_points(self):
        cfg = EstimatorConfig("linear", 2, 2)
        with pytest.raises(ValueError, match="at least one sample point"):
            risk_trials(uniform_density(1), NOSPEC, cfg, TV, 0, 2, 0, family=HAAR)


def one_trial_risks(truth, spec, cfg, disc, n, trials, seed, family, tree, cell_index=0, slot_offset=0):
    """risk_trials as a loop over trials: each sample estimated and measured on its own."""
    return np.array([
        besov_ipm(
            estimate(sample_huber(truth, spec.g, spec.eps, n, (seed, cell_index, slot_offset + t)), family, cfg),
            tree, disc,
        )
        for t in range(trials)
    ])


def structured(eps, dim):
    g = [2.0, 0.0] if dim == 1 else [[2.0, 0.0], [0.0, 2.0]]
    return ContaminationSpec(eps, "structured", g=PiecewiseConstant(np.array(g), 1), M=2.0)


class TestTrialBlocks:
    """risk_trials draws and bins the samples in chunks of up to 2^14 rows
    and runs one estimate and one IPM per bank block of trials, whose
    father sums hold up to 2^14 entries; every risk must keep the bits of
    its own trial."""

    CASES = {
        # name: (family, dim, truth, spec, config, loss, n, trials)
        "db3-linear-uneven-blocks": (
            "db3", 1, "dyadic-pwc", NOSPEC, EstimatorConfig("linear", 4, 4), "tv", 300, 60,
        ),
        "db2-d2-thresholded-rescaled": (
            "db2", 2, "dyadic-pwc", structured(0.1, 2),
            EstimatorConfig("thresholded", 1, 3, K=0.5, rescale_epsilon=0.1), "tv", 500, 40,
        ),
        "haar-structured-eps": (
            "haar", 1, "uniform", structured(0.25, 1), EstimatorConfig("linear", 0, 0), "tv", 1024, 20,
        ),
        "db4-adaptive-l2": ("db4", 1, "uniform", NOSPEC, adaptive_config(1000, 4, 1), "l2", 1000, 20),
        "db3-ks-two-per-block": ("db3", 1, "spike", NOSPEC, EstimatorConfig("linear", 3, 3), "ks", 2**13, 3),
        "db3-one-block-at-limit": ("db3", 1, "dyadic-pwc", NOSPEC, EstimatorConfig("linear", 4, 4), "tv", 2**14, 2),
        "db2-above-limit": (
            "db2", 1, "spike", structured(0.05, 1),
            EstimatorConfig("thresholded", 2, 5, rescale_epsilon=0.05), "tv", 2**14 + 5, 2,
        ),
        # the eps-rate-haar task: 50 one-trial chunks, one bank block
        "haar-eps-rate-task": (
            "haar", 1, "uniform", structured(2.0**-4, 1), EstimatorConfig("linear", 0, 0), "tv", 2**14, 50,
        ),
        # 25 chunks of two trials, one bank block
        "db3-two-trial-chunks": (
            "db3", 1, "dyadic-pwc", NOSPEC, EstimatorConfig("linear", 4, 4), "tv", 2**13, 50,
        ),
        # bank blocks of 16 trials (2^(2*5) sums each), the last one of 8;
        # chunks of 10 trials, so a block's chunks are 10 and 6 trials
        "db2-d2-partial-bank-block": (
            "db2", 2, "dyadic-pwc", structured(0.1, 2),
            EstimatorConfig("thresholded", 1, 4, K=0.5, rescale_epsilon=0.1), "tv", 1500, 40,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_blocks_match_one_trial_loop_bitwise(self, case):
        fam, dim, truth_name, spec, cfg, loss, n, trials = self.CASES[case]
        family = wavelet_family(fam)
        truth = dict(benchmark_suite(GEN, dim))[truth_name]
        tree = exact_coeffs(truth, family, cfg.j1 + 2)
        disc = LOSS_PRESETS[loss]
        got = risk_trials(
            truth, spec, cfg, disc, n, trials, 31, family=family, truth_tree=tree,
            cell_index=2, slot_offset=5,
        )
        want = one_trial_risks(truth, spec, cfg, disc, n, trials, 31, family, tree, 2, 5)
        assert got.shape == (trials,)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    # SHA-256 of the risk bytes of D=2 runs against the uniform truth, whose
    # tree is empty: every level measured is the estimate's own, summed in
    # row-major order. Taken when the bank's levels became row-major.
    D2_RISKS_SHA256 = {
        "db2": "cac4babb2e77208310d8e8c398e20ef0adcea1f508696bdca734565cad0dccc7",
        "haar": "d6d998a04c2eba7bf9fb436490361b842a8e510c79a28e82c66e13ada22af2bc",
    }

    @pytest.mark.parametrize("fam", sorted(D2_RISKS_SHA256))
    def test_d2_estimate_levels_keep_their_sum_order(self, fam):
        cfg, loss = {
            "db2": (EstimatorConfig("thresholded", 1, 3, K=0.5, rescale_epsilon=0.1), "tv"),
            "haar": (EstimatorConfig("linear", 3, 3), "l2"),
        }[fam]
        risks = risk_trials(
            uniform_density(2), structured(0.1, 2), cfg, LOSS_PRESETS[loss], 400, 12, 8,
            family=wavelet_family(fam),
        )
        assert hashlib.sha256(risks.tobytes()).hexdigest() == self.D2_RISKS_SHA256[fam]

    @pytest.mark.parametrize("case,blocks", [("haar-eps-rate-task", [50]), ("db2-d2-partial-bank-block", [16, 16, 8])])
    def test_one_estimate_and_ipm_per_bank_block(self, monkeypatch, case, blocks):
        fam, dim, truth_name, spec, cfg, loss, n, trials = self.CASES[case]
        family = wavelet_family(fam)
        truth = dict(benchmark_suite(GEN, dim))[truth_name]
        estimates, ipms = [], []

        def counted_estimate(samples, family, config, trials=None):
            estimates.append(trials)
            return estimate(samples, family, config, trials)

        def counted_ipm(t1, t2, disc):
            ipms.append(t1.trials)
            return besov_ipm(t1, t2, disc)

        monkeypatch.setattr(harness, "estimate", counted_estimate)
        monkeypatch.setattr(harness, "besov_ipm", counted_ipm)
        risk_trials(truth, spec, cfg, LOSS_PRESETS[loss], n, trials, 31, family=family)
        assert estimates == ipms == blocks

    def test_task_points_are_never_all_held(self):
        # the eps-rate-haar task holds 50 x 2^14 points (6.5 MB); drawn and
        # binned one chunk at a time, it peaks at a few chunks' worth
        fam, dim, truth_name, spec, cfg, loss, n, trials = self.CASES["haar-eps-rate-task"]
        family = wavelet_family(fam)
        truth = dict(benchmark_suite(GEN, dim))[truth_name]
        tree = exact_coeffs(truth, family, cfg.j1 + 2)
        chunk_bytes = 8 * n  # one trial of n doubles is one chunk
        tracemalloc.start()
        try:
            risk_trials(truth, spec, cfg, LOSS_PRESETS[loss], n, trials, 31, family=family, truth_tree=tree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * chunk_bytes

    def test_adaptive_block_skips_zero_levels_per_trial(self):
        # the db4 adaptive case above measures against the uniform truth,
        # whose tree is empty, so a level thresholded to zero in some trials
        # only must be skipped by those trials alone
        cfg = adaptive_config(1000, 4, 1)
        x = np.concatenate([
            sample_huber(uniform_density(1), NOSPEC.g, 0.0, 1000, (31, 2, 5 + t)) for t in range(20)
        ])
        block = estimate(x, wavelet_family("db4"), cfg, 20)
        rows_kept = [block.level_array(j).reshape(20, -1).any(axis=1) for j in block.levels()]
        assert any(kept.any() and not kept.all() for kept in rows_kept)


def dense_linear_config(n, eps):
    j0, j1 = choose_resolutions(n, eps, GEN, TV, 1, "dense-unstructured")
    return EstimatorConfig("linear", j0, j1)


def uniform_spec(eps):
    return ContaminationSpec(eps, "unstructured", g=uniform_density(1))


def fixed(cfg):
    """A schedule that gives cfg at every grid cell."""
    return lambda n, eps: cfg


class TestRunSweep:
    def test_uncontaminated_rate_fit(self):
        rep = run_sweep(
            benchmark_suite(GEN, 1), uniform_spec, dense_linear_config,
            TV, DB2, [2**k for k in range(8, 15)], [0.0], 8, 42,
            theory=theoretical_exponents(GEN, TV, 1, "dense-unstructured"),
        )
        fits = dict(rep.fitted)
        assert "n" in fits
        exponent, stderr = fits["n"]
        assert exponent == pytest.approx(1 / 3, abs=0.08)
        assert stderr < 0.08
        assert all(c.worst_truth in ("uniform", "dyadic-pwc", "spike") for c in rep.cells)

    def test_risk_nondecreasing_in_eps(self):
        gvals = np.full(8, 0.4)
        gvals[0] = 5.2
        rep = run_sweep(
            benchmark_suite(GEN, 1)[:2],
            lambda e: ContaminationSpec(e, "unstructured", g=PiecewiseConstant(gvals, 3)),
            fixed(EstimatorConfig("linear", 3, 3)),
            TV, HAAR, [1024], [0.0, 0.05, 0.1, 0.2], 6, 11,
        )
        cells = rep.cells
        assert all(
            a.mean <= b.mean + 2.0 * (a.stderr + b.stderr)
            for a, b in zip(cells, cells[1:])
        )

    def test_eps_axis_autofit_uses_zero_cell_as_plateau(self):
        gvals = np.full(8, 0.4)
        gvals[0] = 5.2
        rep = run_sweep(
            benchmark_suite(GEN, 1)[:1],
            lambda e: ContaminationSpec(e, "unstructured", g=PiecewiseConstant(gvals, 3)),
            fixed(EstimatorConfig("linear", 3, 3)),
            TV, HAAR, [2048], [0.0, 0.05, 0.1, 0.2, 0.3, 0.4], 4, 13,
        )
        fits = dict(rep.fitted)
        assert "eps" in fits
        assert fits["eps"][0] > 0.0

    def test_deterministic_across_jobs(self):
        args = (
            benchmark_suite(GEN, 1)[:2], uniform_spec, fixed(EstimatorConfig("linear", 2, 2)),
            TV, HAAR, [256, 512], [0.0, 0.1], 2, 5,
        )
        r1 = run_sweep(*args, jobs=1)
        r2 = run_sweep(*args, jobs=2)
        r3 = run_sweep(*args, jobs=1)
        assert r1.to_json() == r2.to_json() == r3.to_json()
        assert json.loads(r1.to_json())["schema"] == "besov-robust-risk/1"

    @pytest.mark.parametrize("jobs,cpus,expect", [(64, 3, 3), (64, 16, 4), (2, 16, 2), (64, 1, None)])
    def test_worker_pool_capped(self, monkeypatch, jobs, cpus, expect):
        # a stand-in pool records the requested size and runs tasks in process
        seen = []

        class RecordingPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        args = (
            benchmark_suite(GEN, 1)[:2], uniform_spec, fixed(EstimatorConfig("linear", 2, 2)),
            TV, HAAR, [256, 512], [0.0], 2, 5,
        )  # 2 cells x 2 truths = 4 tasks
        rep = run_sweep(*args, jobs=jobs)
        assert seen == ([] if expect is None else [expect])
        assert rep.to_json() == run_sweep(*args, jobs=1).to_json()

    def test_jobs_env_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv("BESOV_ROBUST_JOBS", "abc")
        with pytest.raises(ValueError, match="BESOV_ROBUST_JOBS"):
            resolve_jobs()
        monkeypatch.setenv("BESOV_ROBUST_JOBS", "3")
        assert resolve_jobs() == 3
        assert resolve_jobs(0) == 1

    def test_two_axis_grid_gets_no_autofit(self):
        rep = run_sweep(
            benchmark_suite(GEN, 1)[:1], uniform_spec, fixed(EstimatorConfig("linear", 2, 2)),
            TV, HAAR, [256, 512], [0.0, 0.1], 2, 5,
        )
        assert rep.fitted == ()

    def test_csv_round_trip(self, tmp_path):
        rep = run_sweep(
            benchmark_suite(GEN, 1)[:2], uniform_spec, fixed(EstimatorConfig("linear", 2, 2)),
            TV, HAAR, [256], [0.0, 0.1], 3, 5,
        )
        cells = tmp_path / "cells.csv"
        trials = tmp_path / "trials.csv"
        rep.write_csv(cells, trials)
        cell_lines = cells.read_text().strip().splitlines()
        trial_lines = trials.read_text().strip().splitlines()
        assert cell_lines[0] == "# besov-robust-cells/1"
        assert trial_lines[0] == "# besov-robust-trials/1"
        assert len(cell_lines) == 2 + len(rep.cells)
        assert len(trial_lines) == 2 + len(rep.cells) * 2 * 3  # cells x truths x trials

    def test_validation(self):
        with pytest.raises(ValueError):
            run_sweep([], uniform_spec, fixed(EstimatorConfig("linear", 2, 2)), TV, HAAR, [256], [0.0], 2, 0)
        dup = [("u", uniform_density(1)), ("u", uniform_density(1))]
        with pytest.raises(ValueError):
            run_sweep(dup, uniform_spec, fixed(EstimatorConfig("linear", 2, 2)), TV, HAAR, [256], [0.0], 2, 0)
        with pytest.raises(ValueError):
            run_sweep(
                benchmark_suite(GEN, 1)[:1], uniform_spec, fixed(EstimatorConfig("linear", 2, 2)),
                TV, HAAR, [256], [0.0], 1, 0,
            )


class TestFitRate:
    def test_exact_power_law(self):
        ns = np.array([2.0**k for k in range(8, 15)])
        exponent, stderr = fit_rate(ns, 3.0 * ns ** (-1 / 3), kind="decay")
        assert exponent == pytest.approx(1 / 3, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_growth_sign_convention(self):
        eps = np.array([2.0**-k for k in range(2, 9)])
        exponent, _ = fit_rate(eps, 0.7 * eps, kind="growth")
        assert exponent == pytest.approx(1.0, abs=1e-12)

    def test_plateau_flattens_fit(self):
        ns = np.array([2.0**k for k in range(8, 15)])
        exponent, _ = fit_rate(ns, 3.0 * ns ** (-1 / 3) + 0.2, kind="decay")
        assert exponent < 1 / 3

    def test_plateau_exclusion_recovers_slope(self):
        ns = np.array([2.0**k for k in range(8, 27)])
        means = np.maximum(30.0 * ns ** (-1 / 3), 0.2)
        exponent, _ = fit_rate(ns, means, kind="decay", plateau=0.2)
        assert exponent == pytest.approx(1 / 3, abs=1e-12)

    def test_degenerate_inputs(self):
        ns = np.array([256.0, 512.0, 1024.0])
        with pytest.raises(DegenerateFit, match="usable cells"):
            fit_rate(ns, ns**-0.5)
        ns = np.array([2.0**k for k in range(8, 15)])
        with pytest.raises(DegenerateFit, match="positive"):
            fit_rate(ns, np.zeros_like(ns))
        with pytest.raises(ValueError):
            fit_rate(ns, ns**-0.5, kind="sideways")
        with pytest.raises(ValueError):
            fit_rate(ns, ns[:3] ** -0.5)

    def test_report_rate_axis_validation(self):
        rep = run_sweep(
            benchmark_suite(GEN, 1)[:1], uniform_spec, fixed(EstimatorConfig("linear", 2, 2)),
            TV, HAAR, [256], [0.0], 2, 5,
        )
        with pytest.raises(ValueError):
            fit_report_rate(rep, "diagonal")
        with pytest.raises(DegenerateFit):
            fit_report_rate(rep, "n")
