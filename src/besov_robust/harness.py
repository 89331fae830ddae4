"""Monte-Carlo risk measurement, closed-form rate exponents, and rate fits.

The closed-form side (ExponentSet, breakdown curves) is exact arithmetic on
the generator/discriminator indices. The empirical side draws contaminated
samples, runs an estimator, and measures the dual-norm distance to the exact
truth tree; per-trial random streams are derived from (master seed, cell
index, trial slot) so results never depend on scheduling order.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .besov import BesovParams, besov_ipm, besov_norm, conjugate
from .coefficients import (
    CoefficientTree,
    PiecewiseConstant,
    SpikePerturbation,
    exact_coeffs,
    uniform_density,
)
from .contamination import ContaminationSpec, sample_huber
from .errors import DegenerateFit, RegimeMismatch
from .estimators import REGIMES, EstimatorConfig, estimate
from .wavelets import WaveletFamily, WaveletIndex, wavelet_family

JSON_SCHEMA = "besov-robust-risk/1"
CELL_CSV_SCHEMA = "besov-robust-cells/1"
TRIAL_CSV_SCHEMA = "besov-robust-trials/1"


# -- closed-form exponents ---------------------------------------------------


@dataclass(frozen=True)
class ExponentSet:
    """Rate exponents for one regime.

    Risk scales like n^{-e} in the sample size and eps^{e} in the
    contamination level; the smallest exponent decays slowest and wins, so
    the dominant entries are minima. eps exponents above 1 are dropped at
    construction time: eps <= 1 makes them strictly smaller than the always
    present eps^1 term.
    """

    regime: str
    n_exponents: tuple[float, float, float]
    n_exponents_linear: tuple[float, float, float]
    eps_exponents: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        for label, terms in (
            ("n", self.n_exponents),
            ("linear n", self.n_exponents_linear),
            ("eps", self.eps_exponents),
        ):
            if not terms:
                raise RegimeMismatch(f"empty {label} exponent set")
            for e in terms:
                if not 0.0 < e < math.inf:
                    raise RegimeMismatch(f"{label} exponent {e} falls outside (0, inf)")

    @property
    def dominant_n(self) -> float:
        if self.regime == "linear-sparse":
            return min(self.n_exponents_linear)
        return min(self.n_exponents)

    @property
    def dominant_eps(self) -> float:
        return min(self.eps_exponents)

    def as_dict(self) -> dict:
        return {
            "regime": self.regime,
            "n_exponents": list(self.n_exponents),
            "n_exponents_linear": list(self.n_exponents_linear),
            "eps_exponents": list(self.eps_exponents),
            "dominant_n": self.dominant_n,
            "dominant_eps": self.dominant_eps,
        }


def theoretical_exponents(
    gen: BesovParams,
    disc: BesovParams,
    dim: int,
    regime: str,
    r: float | None = None,
) -> ExponentSet:
    """Closed-form exponents for the regime, with hypothesis checks.

    Passing the wavelet regularity r enables the r > sigma_g check; leave it
    None when no family has been fixed yet. Violated hypotheses raise
    RegimeMismatch naming the constraint.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    D = float(dim)
    sg, pg = gen.sigma, gen.p
    sd, pd = disc.sigma, disc.p
    pdc = conjugate(pd)
    if regime == "structured":
        if sg < D / pg:
            raise RegimeMismatch(
                f"structured rate needs sigma_g >= D/p_g; got {sg} < {D / pg}"
            )
    else:
        if sg <= D / pg:
            raise RegimeMismatch(
                f"{regime} rate needs sigma_g > D/p_g; got {sg} <= {D / pg}"
            )
        if regime == "dense-unstructured":
            if pdc > pg:
                raise RegimeMismatch(
                    f"dense regime needs conjugate(p_d) <= p_g; got {pdc} > {pg}"
                )
        elif pdc < pg:
            raise RegimeMismatch(
                f"{regime} regime needs conjugate(p_d) >= p_g; got {pdc} < {pg}"
            )
    if r is not None and r <= sg:
        raise RegimeMismatch(f"family regularity {r} must exceed sigma_g = {sg}")

    second = (sg + sd) / (2.0 * sg + D)
    num3 = sg + sd - D / pg + D / pdc
    n_exps = (0.5, second, num3 / (2.0 * sg + D * (1.0 - 2.0 / pg)))
    n_lin = (0.5, second, num3 / (2.0 * sg + D * (1.0 - 2.0 / pg + 2.0 / pdc)))

    eps_terms = [1.0]
    if regime != "structured":
        eps_terms.append((sg + sd + D / pdc - D / pg) / (sg - D / pg + D))
        if regime == "dense-unstructured":
            eps_terms.append((sg + sd) / (sg + D / pd))
    kept = sorted({e for e in eps_terms if e <= 1.0})
    return ExponentSet(regime, n_exps, n_lin, tuple(kept))


def breakdown_point(n: float, e_n: float, e_eps: float) -> float:
    """Largest eps whose contamination term still decays as fast as n^{-e_n}."""
    if n < 2:
        raise ValueError("breakdown point needs n >= 2")
    if e_n <= 0 or e_eps <= 0:
        raise ValueError("breakdown point needs positive exponents")
    return float(n) ** (-e_n / e_eps)


def breakdown_curve(
    gen: BesovParams,
    disc: BesovParams,
    dim: int,
    regime: str,
    n_grid,
) -> list[tuple[int, float]]:
    """eps*(n) over the grid; nonincreasing in n by construction."""
    ex = theoretical_exponents(gen, disc, dim, regime)
    return [
        (int(n), breakdown_point(float(n), ex.dominant_n, ex.dominant_eps))
        for n in n_grid
    ]


# -- benchmark truths ---------------------------------------------------------


def benchmark_suite(gen: BesovParams, dim: int) -> list[tuple[str, object]]:
    """Deterministic truth densities spread through the generator ball.

    Uniform (the ball center), a piecewise-constant profile on the 2^3 dyadic
    grid pushed to 80% of the norm budget, and a single localized spike at
    90%, all measured in the Haar basis and realized as exactly sampleable
    piecewise-constant models. Members that need more budget than L allows
    are dropped; uniform always remains. Tests pin this construction, so
    changing it is a versioning event.
    """
    haar = wavelet_family("haar")
    members: list[tuple[str, object]] = [("uniform", uniform_density(dim))]

    scale = 3
    cells = (2**scale,) * dim
    rng = np.random.default_rng(20240501)
    pattern = rng.uniform(-1.0, 1.0, size=cells)
    pattern -= pattern.mean()  # zero mean keeps 1 + amp*pattern a density
    pattern /= np.abs(pattern).max()
    probe = PiecewiseConstant(1.0 + 0.5 * pattern, scale)
    probe_norm = besov_norm(exact_coeffs(probe, haar, scale), gen)
    slope = (probe_norm - 1.0) / 0.5  # norm grows linearly in the amplitude
    budget = 0.8 * gen.L - 1.0
    if budget > 1e-9 and slope > 0:
        amp = min(budget / slope, 0.9)
        members.append(("dyadic-pwc", PiecewiseConstant(1.0 + amp * pattern, scale)))

    j_spike = max(scale - 1, 0)
    idx = WaveletIndex(j_spike, (2 ** max(j_spike - 1, 0) % 2**j_spike,) * dim, (1,) * dim)
    weight = 2.0 ** (j_spike * gen.sigma_prime(dim))
    budget = 0.9 * gen.L - 1.0
    if budget > 1e-9:
        coeff = min(budget / weight, 0.999 * 2.0 ** (-dim * j_spike / 2.0))
        spike = SpikePerturbation(uniform_density(dim), haar, idx, coeff)
        members.append(("spike", spike.as_piecewise_constant()))
    return members


# -- Monte-Carlo risk ---------------------------------------------------------


# Most sample rows drawn and binned at once (at least one trial), and most
# father sums, 2^(D(j1+1)) per trial, in one bank block (at least one
# trial). Chunks of 2^15 rows lost most of the gain over one trial at a time
# on a 2-vCPU machine with a 2 MB per-core L2 cache, which the binning's
# working arrays outgrow.
_BLOCK_ROWS = 2**14
# Levels the exact truth tree reaches above the estimator's top level j1:
# the truth's detail beyond j1 is bias the estimate cannot see, and the
# IPM must count it
_J_PAD = 2


class _Draws:
    """The samples of the trials with the given seeds, stacked in trial
    order, which is the array of `shape`; iterating draws them in chunks of
    at most _BLOCK_ROWS rows (at least one trial), a one-trial chunk being
    the sample itself. `empirical_coeffs` bins each chunk as it arrives and
    reads the trial size from `shape`, as perfbench's tracer does."""

    def __init__(self, truth, spec: ContaminationSpec, n: int, seeds: list):
        self.truth, self.spec, self.n, self.seeds = truth, spec, n, seeds
        self.shape = (len(seeds) * n, truth.dim)

    def __iter__(self):
        per = max(1, _BLOCK_ROWS // self.n)
        for i in range(0, len(self.seeds), per):
            samples = [
                sample_huber(self.truth, self.spec.g, self.spec.eps, self.n, s)
                for s in self.seeds[i : i + per]
            ]
            yield samples[0] if len(samples) == 1 else np.concatenate(samples)


def risk_trials(
    truth,
    spec: ContaminationSpec,
    est: EstimatorConfig,
    disc: BesovParams,
    n: int,
    trials: int,
    seed: int,
    *,
    family: WaveletFamily,
    truth_tree: CoefficientTree | None = None,
    cell_index: int = 0,
    slot_offset: int = 0,
) -> np.ndarray:
    """Per-trial IPM risks against the exact truth tree at j1 + _J_PAD.

    Trial t draws its sample stream from entropy (seed, cell_index,
    slot_offset + t); slot_offset keeps streams distinct when several truth
    models share a grid cell.

    The trials run in bank blocks of max(1, _BLOCK_ROWS // 2^(D(j1+1)))
    trials, so a block's father sums hold about as many entries as one
    binning chunk has rows: one estimate (`estimate(..., trials=m)`) and
    one IPM cover a block. Within it the samples are drawn and binned in
    chunks of at most _BLOCK_ROWS rows (`_Draws`), each trial's from its
    own stream, so the binning's working arrays stay in cache and the
    block's points are never all held. Every risk has the bits of
    estimating and measuring that trial alone: `np.bincount` adds each
    bin's weights in input order and each trial bins into cells of its
    own, whatever chunk it is in; the bank, the threshold and the
    rescaling act entry by entry; and every reduction of the IPM runs over
    one trial's row in the one-trial order.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if n < 1:
        raise ValueError("need at least one sample point per trial")
    if truth_tree is None:
        truth_tree = exact_coeffs(truth, family, est.j1 + _J_PAD)
    block = max(1, _BLOCK_ROWS // 2 ** (truth_tree.dim * (est.j1 + 1)))
    out = np.empty(trials)
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        draws = _Draws(truth, spec, n, [(seed, cell_index, slot_offset + t) for t in range(start, stop)])
        out[start:stop] = besov_ipm(estimate(draws, family, est, stop - start), truth_tree, disc)
    return out


# -- sweep reports ------------------------------------------------------------


@dataclass(frozen=True)
class CellResult:
    n: int
    eps: float
    mean: float
    stderr: float
    trials: int
    worst_truth: str
    truth_means: tuple[tuple[str, float], ...]
    truth_stderrs: tuple[tuple[str, float], ...]
    trial_risks: tuple[tuple[str, tuple[float, ...]], ...]


@dataclass(frozen=True)
class RiskReport:
    """One sweep: the grid, per-cell risks, fits, and the theory they chase.

    The JSON holds no timing, so identical seeds and configs serialize
    byte-identically.
    """

    seed: int
    trials: int
    grid: tuple[tuple[int, float], ...]
    cells: tuple[CellResult, ...]
    theory: ExponentSet | None
    fitted: tuple[tuple[str, tuple[float, float]], ...]
    meta: tuple[tuple[str, str], ...]

    def to_json(self) -> str:
        payload = {
            "schema": JSON_SCHEMA,
            "seed": self.seed,
            "trials": self.trials,
            "grid": [[n, eps] for n, eps in self.grid],
            "cells": [
                {
                    "n": c.n,
                    "eps": c.eps,
                    "mean": c.mean,
                    "stderr": c.stderr,
                    "trials": c.trials,
                    "worst_truth": c.worst_truth,
                    "truth_means": {k: v for k, v in c.truth_means},
                    "truth_stderrs": {k: v for k, v in c.truth_stderrs},
                    "trial_risks": {k: list(v) for k, v in c.trial_risks},
                }
                for c in self.cells
            ],
            "theory": self.theory.as_dict() if self.theory is not None else None,
            "fitted": {
                axis: {"exponent": e, "stderr": s} for axis, (e, s) in self.fitted
            },
            "meta": {k: v for k, v in self.meta},
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def write_csv(self, cells_path, trials_path) -> None:
        """Aggregate cell rows, and one row per cell-truth-trial."""
        with open(cells_path, "w", newline="") as fh:
            fh.write(f"# {CELL_CSV_SCHEMA}\n")
            w = csv.writer(fh)
            w.writerow(["n", "eps", "mean", "stderr", "trials", "worst_truth"])
            for c in self.cells:
                w.writerow([c.n, c.eps, repr(c.mean), repr(c.stderr), c.trials, c.worst_truth])
        with open(trials_path, "w", newline="") as fh:
            fh.write(f"# {TRIAL_CSV_SCHEMA}\n")
            w = csv.writer(fh)
            w.writerow(["n", "eps", "truth", "trial", "risk"])
            for c in self.cells:
                for name, risks in c.trial_risks:
                    for t, r in enumerate(risks):
                        w.writerow([c.n, c.eps, name, t, repr(r)])


def resolve_jobs(jobs=None) -> int:
    """Requested worker count: `jobs`, else $BESOV_ROBUST_JOBS, else 1; at least 1."""
    if jobs is None:
        raw = os.environ.get("BESOV_ROBUST_JOBS", "1") or "1"
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(f"BESOV_ROBUST_JOBS must be an integer, got {raw!r}") from None
    return max(1, int(jobs))


def _sweep_task(payload) -> np.ndarray:
    (model, spec, cfg, disc, n, seed, ci, slot0, trials, family, tree) = payload
    return risk_trials(
        model, spec, cfg, disc, n, trials, seed,
        family=family, truth_tree=tree, cell_index=ci, slot_offset=slot0,
    )


def run_sweep(
    truths,
    contamination,
    estimator_for,
    disc: BesovParams,
    family: WaveletFamily,
    n_grid,
    eps_grid,
    trials: int,
    seed: int,
    *,
    theory: ExponentSet | None = None,
    jobs: int | None = None,
    meta=(),
) -> RiskReport:
    """Risk over the (n, eps) grid, taking the worst truth per cell.

    truths: list of (name, model). contamination: callable eps ->
    ContaminationSpec. estimator_for: callable (n, eps) -> EstimatorConfig,
    so schedules may track the grid. When `fit_axis` names an axis of the
    grid, the matching rate fit is attached to the report.
    """
    truths = list(truths)
    if not truths:
        raise ValueError("benchmark suite is empty")
    names = [name for name, _ in truths]
    if len(set(names)) != len(names):
        raise ValueError("duplicate truth names in the suite")
    if trials < 2:
        raise ValueError("need at least two trials for standard errors")
    jobs = resolve_jobs(jobs)

    grid = [(int(n), float(e)) for n in n_grid for e in eps_grid]
    tree_cache: dict[tuple[int, int], CoefficientTree] = {}
    tasks = []
    for ci, (n, eps) in enumerate(grid):
        cfg = estimator_for(n, eps)
        spec = contamination(eps)
        j_max = cfg.j1 + _J_PAD
        for ti, (name, model) in enumerate(truths):
            key = (ti, j_max)
            if key not in tree_cache:
                tree_cache[key] = exact_coeffs(model, family, j_max)
            tasks.append(
                (ci, ti)
                + ((model, spec, cfg, disc, n, seed, ci, ti * trials, trials, family, tree_cache[key]),)
            )

    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here: it loads multiprocessing, which no serial run needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_task, [p for _, _, p in tasks]))
    else:
        results = [_sweep_task(p) for _, _, p in tasks]

    per_cell: dict[int, list[tuple[str, np.ndarray]]] = {ci: [] for ci in range(len(grid))}
    for (ci, ti, _), risks in zip(tasks, results):
        per_cell[ci].append((names[ti], risks))

    cells = []
    for ci, (n, eps) in enumerate(grid):
        rows = per_cell[ci]
        stats = [
            (name, float(r.mean()), float(r.std(ddof=1) / math.sqrt(trials)), r)
            for name, r in rows
        ]
        worst = max(stats, key=lambda row: row[1])
        cells.append(
            CellResult(
                n=n,
                eps=eps,
                mean=worst[1],
                stderr=worst[2],
                trials=trials,
                worst_truth=worst[0],
                truth_means=tuple((name, m) for name, m, _, _ in stats),
                truth_stderrs=tuple((name, s) for name, _, s, _ in stats),
                trial_risks=tuple(
                    (name, tuple(float(v) for v in r)) for name, _, _, r in stats
                ),
            )
        )

    report = RiskReport(
        seed=seed,
        trials=trials,
        grid=tuple(grid),
        cells=tuple(cells),
        theory=theory,
        fitted=(),
        meta=tuple(meta),
    )
    axis = fit_axis(n_grid, eps_grid)
    if axis is None:
        return report
    try:
        return replace(report, fitted=((axis, fit_report_rate(report, axis)),))
    except DegenerateFit:
        return report


# -- log-log fits -------------------------------------------------------------

# Fewest cells a log-log rate fit uses
_MIN_FIT_POINTS = 4


def fit_axis(n_grid, eps_grid) -> str | None:
    """The axis a sweep over n_grid x eps_grid fits, counting distinct values:
    "n" for >= 4 sample sizes at one eps, "eps" for >= 4 positive eps at one
    n, else None."""
    n_vals = {int(n) for n in n_grid}
    eps_vals = {float(e) for e in eps_grid}
    if len(n_vals) >= _MIN_FIT_POINTS and len(eps_vals) == 1:
        return "n"
    if len({e for e in eps_vals if e > 0.0}) >= _MIN_FIT_POINTS and len(n_vals) == 1:
        return "eps"
    return None


def fit_rate(
    xs,
    means,
    stderrs=None,
    *,
    kind: str = "decay",
    plateau: float | None = None,
) -> tuple[float, float]:
    """Log-log OLS exponent and its standard error.

    kind="decay" reports e with risk ~ x^{-e} (sample-size fits);
    kind="growth" reports e with risk ~ x^{+e} (contamination fits). When a
    plateau level is given, cells within 3 stderr of it are excluded first:
    the flat region belongs to the other term of the rate and biases the
    slope toward zero.
    """
    if kind not in ("decay", "growth"):
        raise ValueError(f"unknown fit kind {kind!r}")
    xs = np.asarray(xs, dtype=float)
    means = np.asarray(means, dtype=float)
    if xs.ndim != 1 or xs.shape != means.shape:
        raise ValueError("xs and means must be matching 1-d sequences")
    if np.any(means <= 0.0):
        raise DegenerateFit("every mean risk must be positive for a log fit")
    if np.any(xs <= 0.0):
        raise DegenerateFit("every grid value must be positive for a log fit")
    keep = np.ones(xs.size, dtype=bool)
    if plateau is not None:
        guard = 3.0 * np.asarray(stderrs, dtype=float) if stderrs is not None else 0.0
        keep = means > plateau + guard
    if int(keep.sum()) < _MIN_FIT_POINTS:
        raise DegenerateFit(
            f"{int(keep.sum())} usable cells after plateau exclusion, need >= {_MIN_FIT_POINTS}"
        )
    lx = np.log(xs[keep])
    ly = np.log(means[keep])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    dof = lx.size - 2
    spread = float(np.sum((lx - lx.mean()) ** 2))
    stderr = math.sqrt(float(resid @ resid) / dof / spread) if dof > 0 else 0.0
    exponent = -slope if kind == "decay" else slope
    return float(exponent), float(stderr)


def fit_report_rate(report: RiskReport, axis: str = "n") -> tuple[float, float]:
    """Fit one axis of a sweep report, holding the other coordinate fixed.

    axis="n" fits the cells at the smallest eps on the grid. axis="eps" fits
    the cells at the largest n; an eps = 0 cell, when present, supplies the
    plateau level and is excluded from the fit.
    """
    plateau = None
    if axis == "n":
        target = min(c.eps for c in report.cells)
        cells = [c for c in report.cells if c.eps == target]
        xs = [c.n for c in cells]
        kind = "decay"
    elif axis == "eps":
        target = max(c.n for c in report.cells)
        cells = [c for c in report.cells if c.n == target]
        floor_cells = [c for c in cells if c.eps == 0.0]
        if floor_cells:
            plateau = max(c.mean for c in floor_cells)
        cells = [c for c in cells if c.eps > 0.0]
        xs = [c.eps for c in cells]
        kind = "growth"
    else:
        raise ValueError(f"unknown axis {axis!r}")
    means = [c.mean for c in cells]
    errs = [c.stderr for c in cells]
    return fit_rate(xs, means, errs, kind=kind, plateau=plateau)
