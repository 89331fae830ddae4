"""Tests for the exponent oracle, risk harness, and rate fitting."""

import json
import math

import numpy as np
import pytest

from besov_robust import harness
from besov_robust.besov import LOSS_PRESETS, BesovParams, besov_norm, conjugate
from besov_robust.coefficients import PiecewiseConstant, exact_coeffs, uniform_density
from besov_robust.contamination import ContaminationSpec
from besov_robust.errors import DegenerateFit, RegimeMismatch
from besov_robust.estimators import EstimatorConfig, choose_resolutions
from besov_robust.harness import (
    ExponentSet,
    benchmark_suite,
    breakdown_curve,
    breakdown_point,
    estimate_risk,
    fit_rate,
    fit_report_rate,
    mixed_term_ratio,
    resolve_jobs,
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

    def test_mixed_term_never_dominates(self):
        ns = np.array([2.0**k for k in range(4, 20)])[:, None]
        eps = np.array([2.0**-k for k in range(1, 16)])[None, :]
        for sigma in (0.5, 1.0, 2.0, 4.0):
            assert float(np.max(mixed_term_ratio(sigma, ns, eps))) <= 1.0
        with pytest.raises(ValueError):
            mixed_term_ratio(0.0, 16.0, 0.1)


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
    def test_dyadic_truth_low_risk(self):
        vals = np.full(8, 1.0)
        vals[1], vals[5] = 1.5, 0.5
        truth = PiecewiseConstant(vals, 3)
        cfg = EstimatorConfig("linear", 3, 3)
        mean, err = estimate_risk(truth, NOSPEC, cfg, TV, 2**16, 4, 7, family=HAAR)
        assert mean < 0.05
        assert mean == pytest.approx(0.024994, abs=2e-3)
        assert err > 0.0

    def test_oracle_estimator_has_zero_risk(self):
        vals = np.full(8, 1.0)
        vals[1], vals[5] = 1.5, 0.5
        truth = PiecewiseConstant(vals, 3)
        cfg = EstimatorConfig("linear", 3, 3)
        tree = exact_coeffs(truth, HAAR, 5)
        mean, err = estimate_risk(
            truth, NOSPEC, cfg, TV, 256, 3, 7, family=HAAR,
            truth_tree=tree, estimator=lambda pts, fam: tree,
        )
        assert mean == 0.0 and err == 0.0

    def test_risk_decreases_in_n(self):
        cfg = EstimatorConfig("linear", 3, 3)
        uni = uniform_density(1)
        means = []
        for k in range(8, 15):
            m, _ = estimate_risk(uni, NOSPEC, cfg, TV, 2**k, 6, 3, family=HAAR)
            means.append(m)
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_deterministic(self):
        cfg = EstimatorConfig("linear", 2, 2)
        a = estimate_risk(uniform_density(1), NOSPEC, cfg, TV, 512, 3, 9, family=HAAR)
        b = estimate_risk(uniform_density(1), NOSPEC, cfg, TV, 512, 3, 9, family=HAAR)
        assert a == b

    def test_needs_two_trials(self):
        cfg = EstimatorConfig("linear", 2, 2)
        with pytest.raises(ValueError):
            estimate_risk(uniform_density(1), NOSPEC, cfg, TV, 64, 1, 0, family=HAAR)


def dense_linear_config(n, eps):
    j0, j1 = choose_resolutions(n, eps, GEN, TV, 1, "dense-unstructured")
    return EstimatorConfig("linear", j0, j1)


class TestRunSweep:
    def test_uncontaminated_rate_fit(self):
        rep = run_sweep(
            benchmark_suite(GEN, 1), None, dense_linear_config,
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
            EstimatorConfig("linear", 3, 3),
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
            EstimatorConfig("linear", 3, 3),
            TV, HAAR, [2048], [0.0, 0.05, 0.1, 0.2, 0.3, 0.4], 4, 13,
        )
        fits = dict(rep.fitted)
        assert "eps" in fits
        assert fits["eps"][0] > 0.0

    def test_deterministic_across_jobs(self):
        args = (
            benchmark_suite(GEN, 1)[:2], None, EstimatorConfig("linear", 2, 2),
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

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        args = (
            benchmark_suite(GEN, 1)[:2], None, EstimatorConfig("linear", 2, 2),
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
            benchmark_suite(GEN, 1)[:1], None, EstimatorConfig("linear", 2, 2),
            TV, HAAR, [256, 512], [0.0, 0.1], 2, 5,
        )
        assert rep.fitted == ()

    def test_csv_round_trip(self, tmp_path):
        rep = run_sweep(
            benchmark_suite(GEN, 1)[:2], None, EstimatorConfig("linear", 2, 2),
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
            run_sweep([], None, EstimatorConfig("linear", 2, 2), TV, HAAR, [256], [0.0], 2, 0)
        dup = [("u", uniform_density(1)), ("u", uniform_density(1))]
        with pytest.raises(ValueError):
            run_sweep(dup, None, EstimatorConfig("linear", 2, 2), TV, HAAR, [256], [0.0], 2, 0)
        with pytest.raises(ValueError):
            run_sweep(
                benchmark_suite(GEN, 1)[:1], None, EstimatorConfig("linear", 2, 2),
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
            benchmark_suite(GEN, 1)[:1], None, EstimatorConfig("linear", 2, 2),
            TV, HAAR, [256], [0.0], 2, 5,
        )
        with pytest.raises(ValueError):
            fit_report_rate(rep, "diagonal")
        with pytest.raises(DegenerateFit):
            fit_report_rate(rep, "n")
