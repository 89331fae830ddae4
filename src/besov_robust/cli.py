"""Command-line front end: estimations, risk sweeps, rate checks, plots.

Every run resolves to an `ExperimentConfig`, which is written back to the
output directory as `config.json`; feeding that file to `--config`
reproduces each artifact byte for byte. Validation happens before anything
touches the filesystem, so a rejected config leaves no partial outputs:
the process prints a single machine-readable error JSON naming the violated
precondition and exits with status 2. Exit status 1 is reserved for runs
that complete but fail their verdict (a rate check off its theoretical
exponent, an adversarial pair flunking the indistinguishability test).

Commands and their artifacts:

  estimate    config.json, coeffs.jsonl, estimate.json
  risk-sweep  config.json, risk.json, cells.csv, trials.csv, risk.svg,
              and baseline.json + ratio.json when a baseline estimator is set
  rate-check  the risk-sweep artifacts plus verdict.json and rate.svg
  breakdown   config.json, breakdown.json, breakdown.csv, breakdown.svg
  adversary   config.json, pair.json, indistinguishability.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from ._svg import anchored_power_line, log_log_svg
from .besov import LOSS_PRESETS, BesovParams, besov_ipm, loss_params
from .coefficients import PiecewiseConstant, SpikePerturbation, exact_coeffs, uniform_density
from .contamination import (
    ContaminationSpec,
    adversarial_spike_pair,
    lecam_structured_pair,
    sample_huber,
    verify_indistinguishable,
)
from .errors import BesovRobustError
from .estimators import (
    KINDS,
    REGIMES,
    EstimatorConfig,
    adaptive_config,
    choose_resolutions,
    estimate,
)
from .harness import (
    RiskReport,
    benchmark_suite,
    breakdown_curve,
    resolve_jobs,
    run_sweep,
    theoretical_exponents,
)
from .wavelets import WaveletIndex, wavelet_family

COMMANDS = ("estimate", "risk-sweep", "rate-check", "breakdown", "adversary")
_SCHEDULES = ("fixed", "regime", "adaptive")
_TRUTHS = ("benchmark", "uniform", "dyadic-pwc", "spike")
_G_KINDS = ("uniform", "piecewise")
_PAIRS = ("sparse", "structured")


class ConfigError(Exception):
    """A config failed validation; `precondition` names the broken rule."""

    def __init__(self, precondition: str, detail: str):
        super().__init__(detail)
        self.precondition = precondition
        self.detail = detail


# -- the experiment description ------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs, in plain serializable values.

    Unused fields keep their defaults; each command validates only the
    slice it reads. `gen` and `disc` are (sigma, p, q, L) with infinities
    spelled "inf" on disk, and `disc` may instead name a loss preset.
    """

    command: str
    family: str = "haar"
    dim: int = 1
    gen: tuple | None = None
    disc: Any = "tv"
    regime: str | None = None
    truth: str = "benchmark"
    contamination: Mapping | None = None
    estimator: Mapping | None = None
    baseline: Mapping | None = None
    n_grid: tuple = ()
    eps_grid: tuple = (0.0,)
    sigma_d_grid: tuple = ()
    samples: int = 4096
    eps: float = 0.0625
    pair: str = "sparse"
    idx: tuple | None = None
    trials: int = 8
    seed: int = 1
    tolerance: float = 0.1
    jobs: int | None = None
    out: str = "out"


_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def _num(v) -> float:
    if isinstance(v, str):
        if v == "inf":
            return math.inf
        if v == "-inf":
            return -math.inf
        raise ConfigError("config-file", f"bad numeric literal {v!r}")
    return float(v)


def _encode(obj):
    """JSON-safe copy: tuples to lists, infinities to strings."""
    if isinstance(obj, Mapping):
        return {str(k): _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _dumps(obj) -> str:
    return json.dumps(_encode(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _coerce(d: Mapping) -> dict:
    """Normalize a raw field dict so equal configs serialize identically."""
    out = dict(d)
    for k in out:
        if k not in _FIELDS:
            raise ConfigError("config-file", f"unknown config field {k!r}")
    for k in ("dim", "samples", "trials", "seed"):
        if k in out:
            out[k] = int(out[k])
    for k in ("eps", "tolerance"):
        if k in out:
            out[k] = _num(out[k])
    if out.get("jobs") is not None:
        out["jobs"] = int(out["jobs"])
    if out.get("gen") is not None:
        out["gen"] = tuple(_num(v) for v in out["gen"])
    if not isinstance(out.get("disc", "tv"), str):
        out["disc"] = tuple(_num(v) for v in out["disc"])
    if "n_grid" in out:
        out["n_grid"] = tuple(int(v) for v in out["n_grid"])
    for k in ("eps_grid", "sigma_d_grid"):
        if k in out:
            out[k] = tuple(_num(v) for v in out[k])
    if out.get("idx") is not None:
        j, kk, ee = out["idx"]
        out["idx"] = (int(j), tuple(int(v) for v in kk), tuple(int(v) for v in ee))
    for k in ("estimator", "baseline"):
        if out.get(k) is not None:
            e = dict(out[k])
            for f in ("j0", "j1", "r"):
                if e.get(f) is not None:
                    e[f] = int(e[f])
            if "K" in e:
                e["K"] = _num(e["K"])
            if "rescale" in e:
                e["rescale"] = bool(e["rescale"])
            out[k] = e
    if out.get("contamination") is not None:
        c = dict(out["contamination"])
        if "M" in c and c["M"] is not None:
            c["M"] = _num(c["M"])
        if "g" in c:
            g = dict(c["g"])
            if "scale_level" in g:
                g["scale_level"] = int(g["scale_level"])
            if "values" in g:
                g["values"] = np.asarray(g["values"], dtype=float).tolist()
            c["g"] = g
        out["contamination"] = c
    return out


# -- presets -------------------------------------------------------------------

PRESETS: dict[str, dict] = {
    # n-rate of the variance-matched linear estimator on clean data; the
    # fitted slope should sit within 0.08 of the predicted 1/3.
    "holder1-tv-uncontaminated": {
        "command": "rate-check",
        "family": "db3",
        "dim": 1,
        "gen": (1.0, math.inf, math.inf, 2.0),
        "disc": "tv",
        "regime": "dense-unstructured",
        "truth": "benchmark",
        "estimator": {"kind": "linear", "schedule": "regime"},
        "n_grid": tuple(2**k for k in range(8, 15)),
        "eps_grid": (0.0,),
        "trials": 50,
        "tolerance": 0.08,
        "seed": 7,
    },
    # eps-rate under a bounded contaminator at fixed n: a single coarse
    # coefficient separates the contaminator from the truth, so the risk
    # transitions cleanly from the noise plateau to slope one.
    "structured-eps-rate": {
        "command": "rate-check",
        "family": "haar",
        "dim": 1,
        "gen": (1.0, math.inf, math.inf, 2.0),
        "disc": "tv",
        "regime": "structured",
        "truth": "uniform",
        "contamination": {
            "mode": "structured",
            "g": {"kind": "piecewise", "values": (2.0, 0.0), "scale_level": 1},
        },
        "estimator": {"kind": "linear", "schedule": "fixed", "j0": 0, "j1": 0},
        "n_grid": (2**14,),
        "eps_grid": (0.0,) + tuple(2.0**-k for k in range(8, 1, -1)),
        "trials": 50,
        "tolerance": 0.15,
        "seed": 20240817,
    },
    # adaptive schedule vs the schedule that knows sigma, on the benchmark
    # truths; ratio.json records how much adaptivity costs.
    "adaptive-vs-oracle-holder1": {
        "command": "risk-sweep",
        "family": "db4",
        "dim": 1,
        "gen": (1.0, math.inf, math.inf, 2.0),
        "disc": "tv",
        "regime": "sparse-unstructured",
        "truth": "benchmark",
        "estimator": {"schedule": "adaptive"},
        "baseline": {"kind": "thresholded", "schedule": "regime"},
        "n_grid": (2**14,),
        "eps_grid": (0.0,),
        "trials": 6,
        "seed": 91,
    },
    "adaptive-vs-oracle-holder2": {
        "command": "risk-sweep",
        "family": "db4",
        "dim": 1,
        "gen": (2.0, math.inf, math.inf, 2.0),
        "disc": "tv",
        "regime": "sparse-unstructured",
        "truth": "benchmark",
        "estimator": {"schedule": "adaptive"},
        "baseline": {"kind": "thresholded", "schedule": "regime"},
        "n_grid": (2**14,),
        "eps_grid": (0.0,),
        "trials": 6,
        "seed": 91,
    },
    # breakdown radius eps*(n) for a family of discriminator smoothness
    # levels: rough discriminators notice contamination sooner, and from
    # sigma_d = 1 on the curve saturates at n^(-1/2).
    "sqrt-n-breakdown": {
        "command": "breakdown",
        "family": "haar",
        "dim": 1,
        "gen": (1.0, math.inf, math.inf, 2.0),
        "disc": (2.0, 1.0, 1.0, 1.0),
        "regime": "sparse-unstructured",
        "sigma_d_grid": (0.25, 0.5, 1.0, 2.0),
        "n_grid": tuple(2**k for k in range(4, 25, 2)),
    },
    # two mixtures that are the same distribution yet have truths a fixed
    # IPM apart; the KS report should pass at the default sample size.
    "sparse": {
        "command": "adversary",
        "pair": "sparse",
        "family": "haar",
        "dim": 1,
        "gen": (1.0, math.inf, math.inf, 2.0),
        "disc": "tv",
        "eps": 2.0**-6,
        "samples": 100000,
        "seed": 0,
    },
    "structured": {
        "command": "adversary",
        "pair": "structured",
        "family": "haar",
        "dim": 1,
        "gen": (1.0, math.inf, math.inf, 2.0),
        "disc": "tv",
        "eps": 2.0**-4,
        "idx": (2, (1,), (1,)),
        "samples": 100000,
        "seed": 0,
    },
    # small single-shot estimation demo with a mildly contaminated sample
    "dyadic-demo": {
        "command": "estimate",
        "family": "haar",
        "dim": 1,
        "gen": (1.0, math.inf, math.inf, 2.0),
        "disc": "tv",
        "truth": "dyadic-pwc",
        "contamination": {
            "mode": "structured",
            "g": {"kind": "piecewise", "values": (2.0, 0.0), "scale_level": 1},
        },
        "estimator": {"kind": "thresholded", "schedule": "fixed", "j0": 2, "j1": 5, "rescale": True},
        "eps": 0.05,
        "samples": 2**12,
        "seed": 5,
    },
}


def build_config(
    command: str,
    preset: str | None = None,
    config_path: str | None = None,
    overrides: Mapping | None = None,
) -> ExperimentConfig:
    """Merge defaults < preset < config file < explicit flags."""
    merged: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError("preset", f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
        merged.update(PRESETS[preset])
    if config_path is not None:
        try:
            raw = json.loads(Path(config_path).read_text())
        except OSError as err:
            raise ConfigError("config-file", f"cannot read {config_path}: {err}") from None
        except json.JSONDecodeError as err:
            raise ConfigError("config-file", f"{config_path} is not valid JSON: {err}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config-file", "the config file must hold a JSON object")
        merged.update(raw)
    if merged.get("command", command) != command:
        raise ConfigError(
            "command",
            f"config is for command {merged['command']!r}, not {command!r}",
        )
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})
    merged["command"] = command
    try:
        return ExperimentConfig(**_coerce(merged))
    except TypeError as err:
        raise ConfigError("config-file", str(err)) from None
    except (ValueError, OverflowError) as err:
        raise ConfigError("config-file", f"bad field value: {err}") from None


# -- validation ----------------------------------------------------------------


@dataclass
class _Plan:
    """Config resolved into live objects; built before any output exists."""

    family: Any = None
    gen: BesovParams | None = None
    disc: BesovParams | None = None
    truths: list = dataclasses.field(default_factory=list)
    spec_for: Any = None
    estimator_for: Any = None
    baseline_for: Any = None
    theory: Any = None
    axis: str | None = None
    pair: tuple | None = None
    pair_level: int = 0
    curves: list = dataclasses.field(default_factory=list)


def _params_from(value, role: str, what: str) -> BesovParams:
    if isinstance(value, str):
        try:
            base = loss_params(value)
        except ValueError as err:
            raise ConfigError(what, str(err)) from None
        return BesovParams(base.sigma, base.p, base.q, base.L, role)
    try:
        sigma, p, q, L = value
        return BesovParams(_num(sigma), _num(p), _num(q), _num(L), role)
    except (TypeError, ValueError) as err:
        raise ConfigError(what, f"need (sigma, p, q, L) or a preset name: {err}") from None


def _g_from(gspec: Mapping, dim: int):
    kind = gspec.get("kind")
    if kind == "uniform":
        return uniform_density(dim)
    if kind == "piecewise":
        try:
            return PiecewiseConstant(
                np.asarray(gspec["values"], dtype=float), gspec["scale_level"]
            )
        except (KeyError, ValueError) as err:
            raise ConfigError("contamination", f"bad piecewise contaminator: {err}") from None
    raise ConfigError("contamination", f"contaminator kind must be one of {_G_KINDS}, got {kind!r}")


def _spec_maker(cfg: ExperimentConfig, dim: int):
    c = cfg.contamination
    if c is None:
        return None
    mode = c.get("mode")
    if mode not in ("structured", "unstructured"):
        raise ConfigError("contamination", f"mode must be structured or unstructured, got {mode!r}")
    if "g" not in c:
        raise ConfigError("contamination", "a contaminating density g is required")
    g = _g_from(c["g"], dim)
    M = c.get("M")
    if M is None and mode == "structured":
        M = float(g.sup_bound())

    def spec_for(eps: float) -> ContaminationSpec:
        return ContaminationSpec(eps, mode, g=g, M=M)

    try:
        spec_for(0.0)
    except (BesovRobustError, ValueError) as err:
        raise ConfigError("contamination", str(err)) from None
    return spec_for


def _resolver_from(espec, *, what, cfg, family, gen, disc):
    espec = dict(espec or {})
    schedule = espec.get("schedule", "regime")
    if schedule not in _SCHEDULES:
        raise ConfigError(what, f"schedule must be one of {_SCHEDULES}, got {schedule!r}")
    K = float(espec.get("K", 1.0))
    rescale = bool(espec.get("rescale", False))
    kind = espec.get("kind", "adaptive" if schedule == "adaptive" else "thresholded")
    if kind not in KINDS:
        raise ConfigError(what, f"estimator kind must be one of {KINDS}, got {kind!r}")

    if schedule == "adaptive":
        if kind != "adaptive":
            raise ConfigError(what, "the adaptive schedule implies the adaptive kind")
        if rescale:
            raise ConfigError(what, "the adaptive schedule is never rescaled")
        r = espec.get("r", family.regularity)

        def resolve(n: int, eps: float) -> EstimatorConfig:
            return adaptive_config(n, r, cfg.dim, K=K)

        return resolve

    if schedule == "fixed":
        j0, j1 = espec.get("j0"), espec.get("j1")
        if j0 is None or j1 is None or not (0 <= int(j0) <= int(j1)):
            raise ConfigError(what, "a fixed schedule needs integer levels 0 <= j0 <= j1")
        j0, j1 = int(j0), int(j1)

        def resolve(n: int, eps: float) -> EstimatorConfig:
            eps_r = eps if (rescale and eps > 0.0) else None
            return EstimatorConfig(kind, j0, j1, K=K, rescale_epsilon=eps_r)

        return resolve

    if gen is None or cfg.regime is None:
        raise ConfigError(what, "a regime schedule needs gen and regime")
    if cfg.regime not in REGIMES:
        raise ConfigError("regime", f"regime must be one of {REGIMES}, got {cfg.regime!r}")

    def resolve(n: int, eps: float) -> EstimatorConfig:
        j0, j1 = choose_resolutions(n, eps, gen, disc, cfg.dim, cfg.regime)
        eps_r = eps if (rescale and eps > 0.0) else None
        return EstimatorConfig(kind, j0, j1, K=K, rescale_epsilon=eps_r, regime=cfg.regime)

    return resolve


def _check_resolver(resolver, what: str, pairs) -> None:
    for n, eps in pairs:
        try:
            resolver(int(n), float(eps))
        except (BesovRobustError, ValueError) as err:
            raise ConfigError(what, f"schedule fails at n={n}, eps={eps}: {err}") from None


def _truths_from(cfg: ExperimentConfig, gen: BesovParams | None) -> list:
    if cfg.truth not in _TRUTHS:
        raise ConfigError("truth", f"truth must be one of {_TRUTHS}, got {cfg.truth!r}")
    if cfg.truth == "uniform":
        return [("uniform", uniform_density(cfg.dim))]
    if gen is None:
        raise ConfigError("truth", f"truth {cfg.truth!r} needs gen to size its amplitudes")
    suite = benchmark_suite(gen, cfg.dim)
    if cfg.truth == "benchmark":
        return suite
    for name, model in suite:
        if name == cfg.truth:
            return [(name, model)]
    raise ConfigError(
        "truth", f"truth {cfg.truth!r} does not fit inside the ball of radius {gen.L}"
    )


def validate(cfg: ExperimentConfig) -> _Plan:
    """Resolve and cross-check every field the command will use."""
    plan = _Plan()
    if cfg.command not in COMMANDS:
        raise ConfigError("command", f"command must be one of {COMMANDS}, got {cfg.command!r}")
    if cfg.dim < 1:
        raise ConfigError("dim", "dimension must be a positive integer")
    if not (0 <= cfg.seed < 2**64):
        raise ConfigError("seed", "seed must fit in 64 bits")
    if not cfg.out:
        raise ConfigError("out", "the output directory name is empty")
    if not (math.isfinite(cfg.tolerance) and cfg.tolerance > 0.0):
        raise ConfigError("tolerance", "tolerance must be a positive finite number")
    try:
        resolve_jobs(cfg.jobs)
    except ValueError as err:
        raise ConfigError("jobs", str(err)) from None
    try:
        plan.family = wavelet_family(cfg.family)
    except ValueError as err:
        raise ConfigError("family", str(err)) from None
    plan.disc = _params_from(cfg.disc, "discriminator", "disc")
    plan.gen = None if cfg.gen is None else _params_from(cfg.gen, "generator", "gen")
    sweep = cfg.command in ("risk-sweep", "rate-check")

    if sweep:
        if not cfg.n_grid or any(n < 3 for n in cfg.n_grid):
            raise ConfigError("grid", "n_grid needs sample sizes of at least 3")
        if not cfg.eps_grid or any(not (0.0 <= e < 1.0) for e in cfg.eps_grid):
            raise ConfigError("grid", "eps_grid values must lie in [0, 1)")
        if cfg.trials < 2:
            raise ConfigError("trials", "trials must be at least 2 for standard errors")
        plan.truths = _truths_from(cfg, plan.gen)
        plan.spec_for = _spec_maker(cfg, cfg.dim)
        if plan.spec_for is None and any(e > 0.0 for e in cfg.eps_grid):
            raise ConfigError("contamination", "positive eps values need a contamination block")
        plan.estimator_for = _resolver_from(
            cfg.estimator, what="estimator", cfg=cfg, family=plan.family,
            gen=plan.gen, disc=plan.disc,
        )
        grid = [(n, e) for n in cfg.n_grid for e in cfg.eps_grid]
        _check_resolver(plan.estimator_for, "estimator", grid)
        if cfg.baseline is not None:
            plan.baseline_for = _resolver_from(
                cfg.baseline, what="baseline", cfg=cfg, family=plan.family,
                gen=plan.gen, disc=plan.disc,
            )
            _check_resolver(plan.baseline_for, "baseline", grid)
        if plan.gen is not None and cfg.regime is not None:
            adaptive = (cfg.estimator or {}).get("schedule") == "adaptive"
            r = plan.family.regularity if adaptive else None
            try:
                plan.theory = theoretical_exponents(
                    plan.gen, plan.disc, cfg.dim, cfg.regime, r=r
                )
            except BesovRobustError as err:
                if cfg.command == "rate-check":
                    raise ConfigError("regime", str(err)) from None
                plan.theory = None
        if cfg.command == "rate-check":
            if plan.theory is None:
                raise ConfigError("regime", "rate-check needs gen and regime for the theory side")
            positives = [e for e in cfg.eps_grid if e > 0.0]
            if len(cfg.n_grid) >= 4 and len(cfg.eps_grid) == 1:
                plan.axis = "n"
            elif len(positives) >= 4 and len(cfg.n_grid) == 1:
                plan.axis = "eps"
            else:
                raise ConfigError(
                    "grid",
                    "rate-check needs >= 4 n values with one eps, "
                    "or >= 4 positive eps values with one n",
                )
        return plan

    if cfg.command == "estimate":
        if cfg.samples < 3:
            raise ConfigError("samples", "estimation needs at least 3 samples")
        if not (0.0 <= cfg.eps < 1.0):
            raise ConfigError("eps", "eps must lie in [0, 1)")
        if cfg.truth == "benchmark":
            raise ConfigError("truth", "estimate runs on a single named truth, not the suite")
        plan.truths = _truths_from(cfg, plan.gen)
        plan.spec_for = _spec_maker(cfg, cfg.dim)
        if plan.spec_for is None:
            if cfg.eps > 0.0:
                raise ConfigError("contamination", "positive eps needs a contamination block")
            plan.spec_for = lambda e: ContaminationSpec(
                0.0, "unstructured", g=uniform_density(cfg.dim)
            )
        plan.estimator_for = _resolver_from(
            cfg.estimator, what="estimator", cfg=cfg, family=plan.family,
            gen=plan.gen, disc=plan.disc,
        )
        _check_resolver(plan.estimator_for, "estimator", [(cfg.samples, cfg.eps)])
        return plan

    if cfg.command == "breakdown":
        if plan.gen is None or cfg.regime is None:
            raise ConfigError("regime", "breakdown needs gen and regime")
        if not cfg.sigma_d_grid:
            raise ConfigError("sigma_d_grid", "breakdown needs discriminator smoothness values")
        if len(cfg.n_grid) < 2 or any(n < 2 for n in cfg.n_grid):
            raise ConfigError("grid", "breakdown needs at least two sample sizes, all >= 2")
        for sd in cfg.sigma_d_grid:
            if sd < 0.0:
                raise ConfigError("sigma_d_grid", "smoothness values must be nonnegative")
            try:
                disc_sd = dataclasses.replace(plan.disc, sigma=float(sd))
                ex = theoretical_exponents(plan.gen, disc_sd, cfg.dim, cfg.regime)
                points = breakdown_curve(plan.gen, disc_sd, cfg.dim, cfg.regime, cfg.n_grid)
            except (BesovRobustError, ValueError) as err:
                raise ConfigError("sigma_d_grid", f"sigma_d={sd}: {err}") from None
            plan.curves.append((float(sd), ex, points))
        return plan

    # adversary
    if cfg.pair not in _PAIRS:
        raise ConfigError("pair", f"pair must be one of {_PAIRS}, got {cfg.pair!r}")
    if not (0.0 < cfg.eps < 1.0):
        raise ConfigError("eps", "the adversarial construction needs eps in (0, 1)")
    if cfg.samples < 3:
        raise ConfigError("samples", "the distribution check needs at least 3 samples")
    if plan.gen is None:
        raise ConfigError("gen", "the adversarial constructions need gen")
    if not plan.family.is_haar:
        raise ConfigError("family", "exact flat realizations of the pairs need the Haar family")
    try:
        if cfg.pair == "sparse":
            p, pt, g, gt, predicted = adversarial_spike_pair(
                plan.gen, plan.disc, cfg.eps, cfg.dim, plan.family
            )
            plan.pair_level = pt.index.j
        else:
            raw = cfg.idx if cfg.idx is not None else (2, (1,) * cfg.dim, (1,) * cfg.dim)
            j, kk, ee = raw
            if len(kk) != cfg.dim or len(ee) != cfg.dim:
                raise ConfigError("idx", f"index arity does not match dim={cfg.dim}")
            p, pt, g, gt = lecam_structured_pair(
                plan.gen, cfg.eps, WaveletIndex(int(j), tuple(kk), tuple(ee)), plan.family
            )
            predicted = None
            plan.pair_level = int(j)
    except (BesovRobustError, ValueError) as err:
        raise ConfigError("pair", str(err)) from None
    plan.pair = (p, pt, g, gt, predicted)
    return plan


# -- artifact helpers ----------------------------------------------------------


def _write(path: Path, text: str) -> None:
    path.write_text(text)


def _model_dict(model) -> dict:
    if isinstance(model, PiecewiseConstant):
        return {
            "kind": "piecewise",
            "scale_level": model.scale_level,
            "values": model.values.tolist(),
        }
    if isinstance(model, SpikePerturbation):
        return {
            "kind": "spike",
            "base": _model_dict(model.base),
            "index": [model.index.j, list(model.index.k), list(model.index.e)],
            "coeff": model.coeff,
        }
    return {"kind": type(model).__name__}


def _axis_cells(report: RiskReport, axis: str):
    if axis == "n":
        return sorted(report.cells, key=lambda c: c.n)
    return sorted((c for c in report.cells if c.eps > 0.0), key=lambda c: c.eps)


def _sweep_svg(report: RiskReport, axis: str, theory_exp: float | None) -> str:
    cells = _axis_cells(report, axis)
    xs = [float(c.n) if axis == "n" else float(c.eps) for c in cells]
    ys = [c.mean for c in cells]
    errs = [c.stderr for c in cells]
    sign = -1.0 if axis == "n" else 1.0
    lines = []
    fitted = dict(report.fitted).get(axis)
    if fitted is not None:
        exp, se = fitted
        lx, ly = anchored_power_line(xs, xs[-1], ys[-1], sign * exp)
        lines.append({"label": f"fitted {exp:.3f} (se {se:.3f})", "x": lx, "y": ly})
    if theory_exp is not None:
        lx, ly = anchored_power_line(xs, xs[-1], ys[-1], sign * theory_exp)
        lines.append({"label": f"theory {theory_exp:.3f}", "x": lx, "y": ly, "dash": True})
    xlabel = "sample size n" if axis == "n" else "contamination fraction eps"
    return log_log_svg(
        title=f"mean IPM risk vs {'n' if axis == 'n' else 'eps'}",
        xlabel=xlabel,
        ylabel="mean IPM risk",
        points=[{"label": "measured risk", "x": xs, "y": ys, "yerr": errs}],
        lines=lines,
    )


# -- command bodies ------------------------------------------------------------


def _run_estimate(cfg: ExperimentConfig, plan: _Plan, out: Path) -> int:
    name, model = plan.truths[0]
    spec = plan.spec_for(cfg.eps)
    pts = sample_huber(model, spec.g, spec.eps, cfg.samples, cfg.seed)
    est = plan.estimator_for(cfg.samples, cfg.eps)
    tree = estimate(pts, plan.family, est)
    truth_tree = exact_coeffs(model, plan.family, est.j1 + 2)
    ipm = besov_ipm(tree, truth_tree, plan.disc)
    tree.to_jsonl(out / "coeffs.jsonl")
    payload = {
        "schema": "besov-robust-estimate/1",
        "truth": name,
        "n": cfg.samples,
        "eps": cfg.eps,
        "seed": cfg.seed,
        "estimator": {
            "kind": est.kind, "j0": est.j0, "j1": est.j1, "K": est.K,
            "rescale_epsilon": est.rescale_epsilon,
        },
        "stored_coefficients": tree.n_coefficients,
        "ipm_to_truth": ipm,
    }
    _write(out / "estimate.json", _dumps(payload))
    print(f"estimate: IPM to truth {ipm:.6g} with {payload['stored_coefficients']} "
          f"stored coefficients; artifacts in {out}")
    return 0


def _run_sweep_like(cfg: ExperimentConfig, plan: _Plan, out: Path) -> tuple[RiskReport, Path]:
    report = run_sweep(
        plan.truths,
        plan.spec_for,
        plan.estimator_for,
        plan.disc,
        plan.family,
        cfg.n_grid,
        cfg.eps_grid,
        cfg.trials,
        cfg.seed,
        theory=plan.theory,
        jobs=cfg.jobs,
        meta=(("command", cfg.command),),
    )
    _write(out / "risk.json", report.to_json() + "\n")
    report.write_csv(out / "cells.csv", out / "trials.csv")
    return report, out


def _run_risk_sweep(cfg: ExperimentConfig, plan: _Plan, out: Path) -> int:
    report, _ = _run_sweep_like(cfg, plan, out)
    fitted = dict(report.fitted)
    for axis in fitted:
        theory_exp = None
        if plan.theory is not None:
            theory_exp = plan.theory.dominant_n if axis == "n" else plan.theory.dominant_eps
        _write(out / "risk.svg", _sweep_svg(report, axis, theory_exp))
    if plan.baseline_for is not None:
        base_report = run_sweep(
            plan.truths, plan.spec_for, plan.baseline_for, plan.disc, plan.family,
            cfg.n_grid, cfg.eps_grid, cfg.trials, cfg.seed,
            theory=plan.theory, jobs=cfg.jobs, meta=(("command", cfg.command), ("role", "baseline")),
        )
        _write(out / "baseline.json", base_report.to_json() + "\n")
        rows = []
        for c, b in zip(report.cells, base_report.cells):
            rows.append({
                "n": c.n, "eps": c.eps, "risk": c.mean, "baseline_risk": b.mean,
                "ratio": c.mean / b.mean if b.mean > 0.0 else None,
            })
        ratios = [r["ratio"] for r in rows if r["ratio"] is not None]
        payload = {
            "schema": "besov-robust-ratio/1",
            "cells": rows,
            "max_ratio": max(ratios) if ratios else None,
        }
        _write(out / "ratio.json", _dumps(payload))
        if ratios:
            print(f"risk-sweep: max risk ratio vs baseline {max(ratios):.3f}; artifacts in {out}")
            return 0
    for axis, (exp, se) in report.fitted:
        print(f"risk-sweep: fitted {axis}-exponent {exp:.4f} (stderr {se:.4f}); artifacts in {out}")
    if not report.fitted and plan.baseline_for is None:
        print(f"risk-sweep: {len(report.cells)} cells; artifacts in {out}")
    return 0


def _run_rate_check(cfg: ExperimentConfig, plan: _Plan, out: Path) -> int:
    report, _ = _run_sweep_like(cfg, plan, out)
    axis = plan.axis
    fitted = dict(report.fitted).get(axis)
    if fitted is None:
        raise BesovRobustError(f"the sweep produced no {axis}-axis fit")
    exp, se = fitted
    theory_exp = plan.theory.dominant_n if axis == "n" else plan.theory.dominant_eps
    delta = abs(exp - theory_exp)
    verdict = "PASS" if delta <= cfg.tolerance else "FAIL"
    _write(out / "rate.svg", _sweep_svg(report, axis, theory_exp))
    payload = {
        "schema": "besov-robust-verdict/1",
        "verdict": verdict,
        "axis": axis,
        "fitted": exp,
        "fitted_stderr": se,
        "theoretical": theory_exp,
        "delta": delta,
        "tolerance": cfg.tolerance,
        "cells": len(report.cells),
    }
    _write(out / "verdict.json", _dumps(payload))
    print(f"rate-check {verdict}: fitted {axis}-exponent {exp:.4f} (stderr {se:.4f}) "
          f"vs theoretical {theory_exp:.4f}, tolerance {cfg.tolerance}")
    return 0 if verdict == "PASS" else 1


def _run_breakdown(cfg: ExperimentConfig, plan: _Plan, out: Path) -> int:
    curves_json = []
    csv_lines = ["# besov-robust-breakdown/1", "sigma_d,n,eps_star"]
    svg_lines = []
    for sd, ex, points in plan.curves:
        curves_json.append({
            "sigma_d": sd,
            "dominant_n": ex.dominant_n,
            "dominant_eps": ex.dominant_eps,
            "points": [[n, e] for n, e in points],
        })
        for n, e in points:
            csv_lines.append(f"{sd!r},{n},{e!r}")
        svg_lines.append({
            "label": f"sigma_d={sd:g} (slope {-ex.dominant_n / ex.dominant_eps:.3f})",
            "x": [float(n) for n, _ in points],
            "y": [e for _, e in points],
        })
    payload = {
        "schema": "besov-robust-breakdown/1",
        "gen": list(cfg.gen),
        "disc_base": cfg.disc if isinstance(cfg.disc, str) else list(cfg.disc),
        "regime": cfg.regime,
        "dim": cfg.dim,
        "curves": curves_json,
    }
    _write(out / "breakdown.json", _dumps(payload))
    _write(out / "breakdown.csv", "\n".join(csv_lines) + "\n")
    _write(out / "breakdown.svg", log_log_svg(
        title="largest harmless contamination eps*(n)",
        xlabel="sample size n",
        ylabel="breakdown radius eps*",
        lines=svg_lines,
    ))
    print(f"breakdown: {len(plan.curves)} curves over {len(cfg.n_grid)} sample sizes; "
          f"artifacts in {out}")
    return 0


def _run_adversary(cfg: ExperimentConfig, plan: _Plan, out: Path) -> int:
    p, pt, g, gt, predicted = plan.pair
    jm = plan.pair_level + 1
    tree_p = exact_coeffs(p, plan.family, jm)
    tree_pt = exact_coeffs(pt, plan.family, jm)
    measured = besov_ipm(tree_p, tree_pt, plan.disc)
    report = verify_indistinguishable(
        (p, g), (pt, gt), cfg.eps, cfg.samples, cfg.seed,
        family=plan.family, j_max=jm,
    )
    pair_payload = {
        "schema": "besov-robust-pair/1",
        "pair": cfg.pair,
        "eps": cfg.eps,
        "level": plan.pair_level,
        "gen": list(cfg.gen),
        "disc": cfg.disc if isinstance(cfg.disc, str) else list(cfg.disc),
        "predicted_separation": predicted,
        "measured_ipm": measured,
        "ratio": None if predicted is None else measured / predicted,
        "densities": {
            "p": _model_dict(p), "p_tilde": _model_dict(pt),
            "g": _model_dict(g), "g_tilde": _model_dict(gt),
        },
    }
    _write(out / "pair.json", _dumps(pair_payload))
    ks_payload = {
        "schema": "besov-robust-indistinguishability/1",
        "n": report.n,
        "ks_statistic": report.ks_statistic,
        "p_value": report.p_value,
        "ks_passed": report.ks_passed,
        "tree_difference": report.tree_difference,
        "passed": report.passed,
    }
    _write(out / "indistinguishability.json", _dumps(ks_payload))
    verdict = "PASS" if report.passed else "FAIL"
    print(f"adversary {verdict}: measured separation {measured:.6g}"
          + (f" (predicted {predicted:.6g})" if predicted is not None else "")
          + f", KS p-value {report.p_value:.3g} at n={report.n}")
    return 0 if report.passed else 1


def run(cfg: ExperimentConfig) -> int:
    """Validate, then write artifacts into cfg.out and return the exit code."""
    plan = validate(cfg)
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError("out", f"cannot create the output directory: {err}") from None
    _write(out / "config.json", _dumps(dataclasses.asdict(cfg)))
    if cfg.command == "estimate":
        return _run_estimate(cfg, plan, out)
    if cfg.command == "risk-sweep":
        return _run_risk_sweep(cfg, plan, out)
    if cfg.command == "rate-check":
        return _run_rate_check(cfg, plan, out)
    if cfg.command == "breakdown":
        return _run_breakdown(cfg, plan, out)
    return _run_adversary(cfg, plan, out)


# -- entry point ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError("usage", message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="besov-robust",
        description="Simulation and verification runs for robust wavelet density estimation.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--preset", help=f"named experiment; one of {sorted(PRESETS)}")
    parser.add_argument("--config", help="JSON file with ExperimentConfig fields")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--jobs", type=int, help="worker cap; falls back to BESOV_ROBUST_JOBS")
    parser.add_argument("--out", help="output directory (default: out)")
    parser.add_argument("--tolerance", type=float)
    parser.add_argument("--eps", type=float)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--samples", type=int)
    parser.add_argument("--family")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = build_config(
            args.command,
            preset=args.preset,
            config_path=args.config,
            overrides={
                "seed": args.seed, "jobs": args.jobs, "out": args.out,
                "tolerance": args.tolerance, "eps": args.eps,
                "trials": args.trials, "samples": args.samples,
                "family": args.family,
            },
        )
        return run(cfg)
    except ConfigError as err:
        print(json.dumps(
            {"error": {"precondition": err.precondition, "detail": err.detail}},
            sort_keys=True,
        ))
        return 2
    except BesovRobustError as err:
        print(json.dumps(
            {"error": {"precondition": type(err).__name__, "detail": str(err)}},
            sort_keys=True,
        ))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
