"""Acceptance suite: one test per headline guarantee of the package.

Each test prints a single PASS/FAIL line (bypassing pytest capture) so a
plain ``pytest tests/test_acceptance.py`` run shows the verdicts even when
everything is green.  Seeds, grids, and tolerances are frozen; the expected
numbers were derived independently before being pinned here.

Covered guarantees, in order:

1. the coefficient-space metric equals its variational form: the witness
   attains it and no element of the discriminator ball exceeds it;
2. the estimation error shrinks with sample size at the advertised
   exponent for a Lipschitz truth under total variation;
3. with bounded contamination the excess risk grows linearly in the
   contamination fraction;
4. the adversarial construction yields two truths whose contaminated
   mixtures are statistically indistinguishable yet metrically separated
   by the predicted amount, scaling at the predicted exponent;
5. thresholding and rescaling obey their algebraic identities
   (equivariance, zero-threshold reduction, linearity in the sample);
6. the closed-form exponent oracle reproduces the known special cases;
7. the smoothness-agnostic schedule stays within a constant factor of the
   oracle schedule that knows the truth's smoothness;
8. metric domination across discriminator classes and the uniform
   sup-norm bound hold on random coefficient trees.
"""

import json
import math

import numpy as np
import pytest

from besov_robust.besov import (
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
from besov_robust.cli import main
from besov_robust.coefficients import (
    CoefficientTree,
    empirical_coeffs,
    exact_coeffs,
    tree_axpy,
    uniform_density,
)
from besov_robust.contamination import (
    ContaminationSpec,
    adversarial_spike_pair,
    verify_indistinguishable,
)
from besov_robust.estimators import (
    EstimatorConfig,
    adaptive_config,
    choose_resolutions,
    estimate_linear,
    estimate_thresholded,
)
from besov_robust.harness import (
    benchmark_suite,
    breakdown_curve,
    breakdown_point,
    risk_trials,
    theoretical_exponents,
)
from besov_robust.wavelets import WaveletIndex, orientations, wavelet_family

HAAR = wavelet_family("haar")
INF = math.inf


def report(capfd, name, ok, detail):
    with capfd.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def sparse_tree(rng, family, dim, levels, per_level):
    t = CoefficientTree(family, dim, alpha=float(rng.normal()))
    es = list(orientations(dim))
    for j in levels:
        for _ in range(per_level):
            k = tuple(int(rng.integers(0, 2**j)) for _ in range(dim))
            e = es[int(rng.integers(len(es)))]
            t.set(WaveletIndex(int(j), k, e), float(rng.normal()))
    return t


def scale_rows(block, scale):
    """The block with row t multiplied by scale[t]."""
    out = CoefficientTree(block.family, block.dim, alpha=block.alpha * scale, trials=block.trials)
    for j in block.levels():
        lev = block.level_array(j)
        out.set_level_array(j, lev * scale.reshape((-1,) + (1,) * (lev.ndim - 1)))
    return out


def entry_gap(a, b):
    keys = {i for i, _ in a.items()} | {i for i, _ in b.items()}
    gap = abs(a.alpha - b.alpha)
    for idx in keys:
        gap = max(gap, abs(a.get(idx) - b.get(idx)))
    return gap


def test_ipm_duality_witness_and_ball_supremacy(capfd):
    """The metric equals the witness pairing and dominates the ball.

    100 random sparse difference trees (at most 3 active levels, dims 1
    and 2) against a pool of discriminator classes; for each tree 1000
    random elements of the discriminator ball, 1e5 pairings in total.
    """
    rng = np.random.default_rng(20240801)
    discs = [
        loss_params("tv"),
        loss_params("wasserstein1"),
        loss_params("l2"),
        loss_params("ks"),
        BesovParams(0.7, 4.0, 2.0, 0.5),
        BesovParams(1.5, 1.5, INF, 2.0),
        BesovParams(0.3, INF, 1.0, 1.0),
        BesovParams(2.0, 1.0, 1.0, 1.0),
    ]
    failures = []
    worst = 0.0
    checked = 0
    for trial in range(100):
        dim = 1 if trial % 3 else 2
        n_levels = int(rng.integers(1, 4))
        levels = sorted(rng.choice(6, size=n_levels, replace=False).tolist())
        t1 = sparse_tree(rng, HAAR, dim, levels, int(rng.integers(1, 5)))
        t2 = sparse_tree(rng, HAAR, dim, levels, int(rng.integers(1, 5)))
        disc = discs[trial % len(discs)]
        d = besov_ipm(t1, t2, disc)
        delta = tree_axpy(-1.0, t2, t1)
        witness = ipm_witness(delta, disc)
        if not in_ball(witness, disc, slack=1e-9):
            failures.append((trial, "witness outside ball"))
        attained = abs(pairing(witness, delta))
        if abs(attained - d) > 1e-9 * d:
            failures.append((trial, f"witness pairing {attained} != ipm {d}"))
        es = list(orientations(dim))
        # the support of delta, level by level in `items` order: the flat
        # positions in the level array and the slice of the support draws
        support, start = [], 0
        for j in delta.levels():
            flat = np.flatnonzero(delta.level_array(j))
            support.append((j, flat, slice(start, start + flat.size)))
            start += flat.size
        # 1000 ball elements as one block, row by row in the draw order of
        # one element at a time; the uniform scale is drawn last in its row
        alphas, u = np.empty(1000), np.empty(1000)
        raw = {j: np.zeros((1000, len(es)) + (2**j,) * dim) for j in range(6)}
        for row in range(1000):
            # the draws of one `set` per support entry, then per random entry
            alphas[row] = rng.normal()
            draws = rng.normal(size=start)
            for j, flat, part in support:
                raw[j][row].flat[flat] = draws[part]
            for _ in range(3):
                j = int(rng.integers(0, 6))
                k = tuple(int(rng.integers(0, 2**j)) for _ in range(dim))
                o = int(rng.integers(len(es)))
                raw[j][(row, o) + k] = float(rng.normal())
            u[row] = rng.uniform(0.05, 1.0)
        f = CoefficientTree(HAAR, dim, alpha=alphas, trials=1000)
        for j, lev in raw.items():
            f.set_level_array(j, lev)
        scale = u * disc.L / besov_norm(f, disc)
        vals = np.abs(pairing(scale_rows(f, scale), delta))
        for val in vals[vals > d * (1.0 + 1e-9)]:
            failures.append((trial, f"ball element pairing {val} > ipm {d}"))
        worst = max(worst, float((vals / d).max()))
        checked += vals.size
    ok = not failures and checked == 100000
    report(
        capfd,
        "ipm-duality",
        ok,
        f"{checked} ball pairings, sharpest/ipm = {worst:.4f}, "
        f"{len(failures)} violations at rel 1e-9",
    )
    assert ok, failures[:5]


def test_rate_uncontaminated_n_exponent(capfd, tmp_path):
    """Risk decays like n^(-1/3) for a Lipschitz truth under TV.

    Runs the frozen rate-check preset: db3 family, linear estimator on
    the variance-matched schedule, n = 2^8 .. 2^14, 50 trials per cell.
    """
    out = tmp_path / "n_rate"
    rc = main(
        ["rate-check", "--preset", "holder1-tv-uncontaminated", "--out", str(out)]
    )
    cfg = json.loads((out / "config.json").read_text())
    verdict = json.loads((out / "verdict.json").read_text())
    design_ok = (
        cfg["n_grid"] == [2**j for j in range(8, 15)]
        and cfg["trials"] == 50
        and cfg["eps_grid"] == [0.0]
        and verdict["tolerance"] == 0.08
    )
    fitted = verdict["fitted"]
    ok = rc == 0 and design_ok and abs(fitted - 1.0 / 3.0) <= 0.08
    report(
        capfd,
        "n-rate-uncontaminated",
        ok,
        f"fitted n-exponent {fitted:.4f} vs 1/3, tolerance 0.08, "
        f"n in 2^8..2^14, 50 trials/cell",
    )
    assert ok, verdict


def test_rate_structured_eps_exponent(capfd, tmp_path):
    """Excess risk grows linearly in eps under bounded contamination.

    Frozen preset: uniform truth, contaminant uniform on [0, 1/2] (a
    single daughter coefficient away), fixed coarse estimator so the
    misspecification term isolates the eps slope, eps = 2^-8 .. 2^-2 at
    n = 2^14 with a clean cell for the plateau, 50 trials per cell.
    """
    out = tmp_path / "eps_rate"
    rc = main(["rate-check", "--preset", "structured-eps-rate", "--out", str(out)])
    cfg = json.loads((out / "config.json").read_text())
    verdict = json.loads((out / "verdict.json").read_text())
    design_ok = (
        cfg["n_grid"] == [2**14]
        and cfg["trials"] == 50
        and cfg["eps_grid"] == [0.0] + [2.0**-j for j in range(8, 1, -1)]
        and verdict["tolerance"] == 0.15
    )
    fitted = verdict["fitted"]
    ok = rc == 0 and design_ok and abs(fitted - 1.0) <= 0.15
    report(
        capfd,
        "eps-rate-structured",
        ok,
        f"fitted eps-exponent {fitted:.4f} vs 1, tolerance 0.15, "
        f"eps in 2^-8..2^-2 at n=2^14, 50 trials/cell",
    )
    assert ok, verdict


def test_adversarial_pair_indistinguishable_and_separated(capfd):
    """Contaminated mixtures agree exactly; truths stay separated.

    For eps in {2^-4, 2^-6, 2^-8}: the two mixtures have entrywise equal
    coefficient trees and pass a two-sample KS test at n = 1e5, while the
    metric between the truths is within a factor of 2 of the predicted
    separation.  The log-log slope of separation against eps matches the
    closed-form eps-exponent to 0.05.
    """
    gen = BesovParams(1.0, INF, INF, 2.0)
    tv = loss_params("tv")
    eps_grid = (2.0**-4, 2.0**-6, 2.0**-8)
    failures = []
    rows = []
    for eps in eps_grid:
        p, p_tilde, g, g_tilde, predicted = adversarial_spike_pair(
            gen, tv, eps, 1, HAAR
        )
        j_max = p_tilde.index.j + 1
        measured = besov_ipm(
            exact_coeffs(p, HAAR, j_max), exact_coeffs(p_tilde, HAAR, j_max), tv
        )
        rep = verify_indistinguishable(
            (p, g), (p_tilde, g_tilde), eps, 100000, 0, family=HAAR, j_max=j_max
        )
        if rep.tree_difference > 1e-12:
            failures.append((eps, f"mixture trees differ by {rep.tree_difference}"))
        if not rep.passed:
            failures.append((eps, f"KS rejected, p={rep.p_value}"))
        if not predicted / 2.0 <= measured <= predicted * 2.0:
            failures.append((eps, f"measured {measured} vs predicted {predicted}"))
        rows.append((eps, measured, rep.p_value))
    theory = theoretical_exponents(gen, tv, 1, "dense-unstructured").dominant_eps
    slope = float(
        np.polyfit(np.log([r[0] for r in rows]), np.log([r[1] for r in rows]), 1)[0]
    )
    if abs(slope - theory) > 0.05:
        failures.append(("slope", f"{slope} vs {theory}"))
    ok = not failures
    pvals = ", ".join(f"{r[2]:.3f}" for r in rows)
    report(
        capfd,
        "adversarial-indistinguishability",
        ok,
        f"slope {slope:.4f} vs exponent {theory:.4f}, KS p-values [{pvals}] "
        f"at n=1e5, separations match predictions",
    )
    assert ok, failures


def test_threshold_rescale_algebra(capfd):
    """Rescale equivariance, zero-threshold reduction, sample linearity."""
    rng = np.random.default_rng(505)
    n = 600
    x = rng.random(n)
    failures = []

    # rescaling by 1/(1-eps) commutes with everything after thresholding
    for eps in (0.1, 0.35):
        base = estimate_thresholded(x, HAAR, EstimatorConfig("thresholded", 1, 4))
        scaled = estimate_thresholded(
            x, HAAR, EstimatorConfig("thresholded", 1, 4, rescale_epsilon=eps)
        )
        factor = 1.0 / (1.0 - eps)
        if scaled.alpha != base.alpha * factor:
            failures.append(("alpha", eps))
        for idx, v in base.items():
            if scaled.get(idx) != v * factor:
                failures.append((idx, eps))

    # threshold constant 0 keeps every coefficient: same as the linear
    # estimator run at the fine resolution
    thresh0 = estimate_thresholded(
        x, HAAR, EstimatorConfig("thresholded", 0, 4, K=0.0)
    )
    linear = estimate_linear(x, HAAR, EstimatorConfig("linear", 4, 4))
    gap = entry_gap(thresh0, linear)
    if gap != 0.0:
        failures.append(("zero threshold", gap))

    # empirical coefficients are sample means, so any split recombines
    # exactly by weighted average
    full = empirical_coeffs(x, HAAR, 0, 4)
    zero = CoefficientTree(HAAR, 1)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, n))
        left = empirical_coeffs(x[:m], HAAR, 0, 4)
        right = empirical_coeffs(x[m:], HAAR, 0, 4)
        merged = tree_axpy(m / n, left, tree_axpy((n - m) / n, right, zero))
        worst = max(worst, entry_gap(merged, full))
    if worst > 1e-12:
        failures.append(("linearity", worst))

    ok = not failures
    report(
        capfd,
        "threshold-rescale-algebra",
        ok,
        f"equivariance exact, K=0 reduction gap 0, "
        f"linearity worst gap {worst:.2e} over 100 splits",
    )
    assert ok, failures[:5]


def test_closed_form_exponents(capfd):
    """The exponent oracle reproduces the known special cases exactly."""
    failures = []
    gen1 = BesovParams(1.0, INF, INF, 2.0)
    tv = loss_params("tv")

    # Lipschitz truth under TV: n-exponent 1/3, eps-exponent 1, in both
    # the unstructured-dense and bounded-contamination readings
    dense = theoretical_exponents(gen1, tv, 1, "dense-unstructured")
    if dense.dominant_n != pytest.approx(1.0 / 3.0, rel=1e-12):
        failures.append(("dense n", dense.dominant_n))
    if dense.dominant_eps != 1.0:
        failures.append(("dense eps", dense.dominant_eps))
    structured = theoretical_exponents(gen1, tv, 1, "structured")
    if structured.dominant_eps != 1.0:
        failures.append(("structured eps", structured.dominant_eps))

    # L^p losses (dual ball with zero smoothness): eps-exponent
    # sigma / (sigma + 1 - 1/p)
    for sigma, p in ((0.75, 1.5), (1.0, 2.0), (1.5, 4.0)):
        gen = BesovParams(sigma, INF, INF, 2.0)
        disc = BesovParams(0.0, conjugate(p), conjugate(p), 1.0)
        got = theoretical_exponents(gen, disc, 1, "dense-unstructured").dominant_eps
        want = sigma / (sigma + 1.0 - 1.0 / p)
        if got != pytest.approx(want, rel=1e-12):
            failures.append((f"L^{p} eps", got, want))

    # a smooth discriminator against a Lipschitz truth: parametric
    # n-exponent 1/2, eps-exponent 1, so the contamination tolerance is
    # exactly n^(-1/2)
    smooth = BesovParams(2.0, 1.0, 1.0, 1.0)
    es = theoretical_exponents(gen1, smooth, 1, "sparse-unstructured")
    if (es.dominant_n, es.dominant_eps) != (0.5, 1.0):
        failures.append(("sqrt-n", es.dominant_n, es.dominant_eps))
    n_grid = [2**j for j in range(4, 25, 2)]
    curve = breakdown_curve(gen1, smooth, 1, "sparse-unstructured", n_grid)
    for n, eps_star in curve:
        if eps_star != pytest.approx(n**-0.5, rel=1e-12):
            failures.append(("breakdown point", n, eps_star))
        if breakdown_point(n, 0.5, 1.0) != pytest.approx(n**-0.5, rel=1e-12):
            failures.append(("breakdown closed form", n))

    # sweeping the discriminator smoothness: exponents saturate at the
    # parametric pair once sigma_d >= 1
    for sigma_d in (0.25, 0.5, 1.0, 2.0):
        disc = BesovParams(sigma_d, 1.0, 1.0, 1.0)
        es = theoretical_exponents(gen1, disc, 1, "sparse-unstructured")
        want_n = min(0.5, (1.0 + sigma_d) / 3.0)
        want_eps = min(1.0, (1.0 + sigma_d) / 2.0)
        if es.dominant_n != pytest.approx(want_n, rel=1e-12):
            failures.append((f"sweep n at {sigma_d}", es.dominant_n, want_n))
        if es.dominant_eps != pytest.approx(want_eps, rel=1e-12):
            failures.append((f"sweep eps at {sigma_d}", es.dominant_eps, want_eps))

    ok = not failures
    report(
        capfd,
        "closed-form-exponents",
        ok,
        "TV 1/3 & linear-in-eps, L^p duals, sqrt-n saturation all exact",
    )
    assert ok, failures


def test_adaptive_schedule_within_factor_of_oracle(capfd):
    """Not knowing the smoothness costs at most a factor of 3 in risk.

    db4 family (enough regularity for both truths), n = 2^14, benchmark
    truths at sigma in {1, 2}; the oracle uses the variance-matched
    schedule for the true sigma, the adaptive schedule only sees the
    family regularity.  6 trials per truth, frozen seed.
    """
    family = wavelet_family("db4")
    tv = loss_params("tv")
    n = 2**14
    spec = ContaminationSpec(0.0, "unstructured", g=uniform_density(1))
    acfg = adaptive_config(n, family.regularity, 1)
    failures = []
    ratios = []
    for sigma in (1.0, 2.0):
        gen = BesovParams(sigma, INF, INF, 2.0)
        j0, j1 = choose_resolutions(n, 0.0, gen, tv, 1, "sparse-unstructured")
        oracle_cfg = EstimatorConfig("thresholded", j0, j1)
        for name, model in benchmark_suite(gen, 1):
            tree = exact_coeffs(model, family, acfg.j1 + 2)
            o_mean = risk_trials(model, spec, oracle_cfg, tv, n, 6, 91, family=family, truth_tree=tree).mean()
            a_mean = risk_trials(model, spec, acfg, tv, n, 6, 91, family=family, truth_tree=tree).mean()
            ratio = a_mean / o_mean
            ratios.append(ratio)
            if ratio > 3.0:
                failures.append((sigma, name, ratio))
    ok = not failures
    report(
        capfd,
        "adaptive-vs-oracle",
        ok,
        f"risk ratios {', '.join(f'{r:.3f}' for r in ratios)} all <= 3 "
        f"across benchmark truths at sigma 1 and 2",
    )
    assert ok, failures


def test_norm_domination_and_sup_bound(capfd):
    """Metric domination and the uniform sup bound on random trees."""
    rng = np.random.default_rng(20240808)
    failures = []

    # replacing the dual exponent with the generator's conjugate can only
    # grow the metric (100 random tree pairs, three class pairs)
    combos = [
        (BesovParams(0.7, 4.0, 2.0, 1.0), 2.0),
        (BesovParams(0.5, 2.0, 2.0, 1.0), 2.0),
        (BesovParams(1.0, INF, INF, 1.0), 3.0),
    ]
    for trial in range(100):
        disc, p_g = combos[trial % len(combos)]
        levels = sorted(rng.choice(5, size=3, replace=False).tolist())
        t1 = sparse_tree(rng, HAAR, 1, levels, 4)
        t2 = sparse_tree(rng, HAAR, 1, levels, 4)
        first, second = ipm_nesting_check(t1, t2, disc, p_g)
        if first > second * (1.0 + 1e-12):
            failures.append(("domination", trial, first, second))

    # every tree scaled into the ball stays under the uniform sup bound
    params = BesovParams(1.0, INF, INF, 1.0)
    bound = sup_norm_bound(params, HAAR, dim=1)
    grid = ((np.arange(2**8) + 0.5) / 2**8)[:, None]
    for trial in range(100):
        levels = sorted(rng.choice(5, size=3, replace=False).tolist())
        t = sparse_tree(rng, HAAR, 1, levels, 5)
        nrm = besov_norm(t, params)
        t.alpha /= nrm
        for idx, v in list(t.items()):
            t.set(idx, v / nrm)
        sup = float(np.max(np.abs(t.evaluate(grid))))
        if sup > bound:
            failures.append(("sup bound", trial, sup, bound))

    ok = not failures
    report(
        capfd,
        "norm-properties",
        ok,
        "domination on 100 tree pairs, sup bound on 100 ball trees",
    )
    assert ok, failures[:5]
