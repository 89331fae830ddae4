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
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from ._svg import anchored_power_line, log_log_svg
from .besov import BesovParams, besov_ipm, loss_params
from .coefficients import (
    _MAX_DIM, PiecewiseConstant, SpikePerturbation, _indexable, exact_coeffs, uniform_density,
)
from .contamination import (
    MAX_ENTRIES,
    MODES,
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
    fit_axis,
    fit_cells,
    resolve_jobs,
    run_sweep,
    theoretical_exponents,
    truth_level,
)
from .wavelets import WaveletIndex, wavelet_family

COMMANDS = ("estimate", "risk-sweep", "rate-check", "breakdown", "adversary")


class ConfigError(Exception):
    """A config failed validation; `precondition` names the broken rule, and
    the message is the detail."""

    def __init__(self, precondition: str, detail: str):
        super().__init__(detail)
        self.precondition = precondition


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


class _OneOf(tuple):
    """Field spec: one of these strings."""


class _Or(tuple):
    """Field spec: a None (for a None entry) or an instance of a leading
    type passes as it is; any other value must fit the last entry."""


class _Nested:
    """Field spec: a list of numbers or of such lists, kept as lists of floats."""


_INT64 = range(-(2**63), 2**63)
_QUAD = (float, float, float, float)  # (sigma, p, q, L)

# The type, shape and allowed strings of every config field, at every
# depth. A spec is `int` (an integer, or a float with no fractional part,
# in int64) or a `range` of allowed integers; `float` (a number other than
# a bool, or "inf" or "-inf"); `bool` or `str`; a `_OneOf`, `_Or` or
# `_Nested`; a tuple of specs (a list of exactly those entries) or a
# one-spec list (a list of any length), both kept as tuples; or a dict (an
# object with no other keys). Defaults live in ExperimentConfig and in the
# code that reads a nested object, never here, so config.json records the
# fields as given.
_FIELDS = {
    "command": _OneOf(COMMANDS),
    "family": str,
    "dim": int,
    "gen": _Or((None, _QUAD)),
    "disc": _Or((str, _QUAD)),
    "regime": _Or((None, _OneOf(REGIMES))),
    "truth": _OneOf(("benchmark", "uniform", "dyadic-pwc", "spike")),
    "contamination": _Or((None, {
        "mode": _OneOf(MODES),
        "M": _Or((None, float)),
        "g": {"kind": _OneOf(("uniform", "piecewise")), "values": _Nested, "scale_level": int},
    })),
    "estimator": _Or((None, {
        "kind": _OneOf(KINDS),
        "schedule": _OneOf(("fixed", "regime", "adaptive")),
        "j0": int, "j1": int, "r": int, "K": float, "rescale": bool,
    })),
    "n_grid": [int],
    "eps_grid": [float],
    "sigma_d_grid": [float],
    "samples": int,
    "eps": float,
    "pair": _OneOf(("sparse", "structured")),
    "idx": _Or((None, (int, [int], [int]))),
    "trials": int,
    "seed": range(2**64),
    "tolerance": float,
    "jobs": _Or((None, int)),
    "out": str,
}
_FIELDS["baseline"] = _FIELDS["estimator"]


def _walk(spec, v, path: str):
    """`v` checked against `spec` and normalized, so that equal configs
    serialize identically. A NaN raises a ConfigError named after its
    top-level field; any other misfit raises `config-file` naming the
    dotted field `path`."""

    def bad(what: str) -> ConfigError:
        return ConfigError("config-file", f"{path} must be {what}, got {v!r}")

    if isinstance(v, float) and math.isnan(v):
        top = path.split(".")[0]
        raise ConfigError(top, f"{path} holds a NaN; config values must be numbers or +-inf")
    if isinstance(spec, _Or):
        if any(v is None if t is None else isinstance(v, t) for t in spec[:-1]):
            return v
        return _walk(spec[-1], v, path)
    if isinstance(spec, _OneOf):
        if isinstance(v, str) and v in spec:
            return v
        raise bad(f"one of {tuple(spec)}")
    if isinstance(spec, dict):
        if not isinstance(v, Mapping):
            raise bad("an object")
        names = {k: f"{path}.{k}" if path else k for k in v}
        for k, name in names.items():
            if k not in spec:
                raise ConfigError("config-file", f"unknown config field {name!r}")
        return {k: _walk(spec[k], x, names[k]) for k, x in v.items()}
    if spec is _Nested or isinstance(spec, (tuple, list)):
        if not isinstance(v, (list, tuple)):
            raise bad("a list")
        if spec is _Nested:
            return [_walk(_Nested if isinstance(x, (list, tuple)) else float, x, path) for x in v]
        if isinstance(spec, tuple) and len(v) != len(spec):
            raise bad(f"a list of {len(spec)} entries")
        specs = spec if isinstance(spec, tuple) else spec * len(v)
        return tuple(_walk(s, x, path) for s, x in zip(specs, v))
    if spec in (bool, str):
        if isinstance(v, spec):
            return v
        raise bad("true or false" if spec is bool else "a string")
    if spec is float:
        if isinstance(v, str) and v in ("inf", "-inf"):
            return float(v)
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise bad("a number")
        if isinstance(v, numbers.Integral) and v not in _INT64:
            raise bad("a number, with integers in int64")
        return float(v)
    n = int(v) if isinstance(v, float) and v.is_integer() else v
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise bad("an integer")
    allowed = _INT64 if spec is int else spec
    if n not in allowed:
        raise bad(f"an integer in [{allowed.start}, {allowed.stop})")
    return int(n)


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
        except (ValueError, RecursionError) as err:  # bad UTF-8 or JSON, or nested too deep
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
        return ExperimentConfig(**_walk(_FIELDS, merged, ""))
    except RecursionError:  # lists nested about a thousand deep
        raise ConfigError("config-file", "the config nests its lists too deeply") from None


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
    curves: list = dataclasses.field(default_factory=list)
    config_json: str = ""


def _params_from(value, what: str) -> BesovParams:
    try:
        return loss_params(value) if isinstance(value, str) else BesovParams(*value)
    except ValueError as err:
        raise ConfigError(what, str(err)) from None


def _g_from(gspec: Mapping, dim: int):
    try:
        if gspec["kind"] == "uniform":
            return uniform_density(dim)
        g = PiecewiseConstant(np.asarray(gspec["values"], dtype=float), gspec["scale_level"])
    except KeyError as err:
        raise ConfigError("contamination", f"the contaminator g needs the key {err}") from None
    except ValueError as err:
        raise ConfigError("contamination", f"bad piecewise contaminator: {err}") from None
    if g.dim != dim:
        raise ConfigError("contamination", f"the contaminator values are {g.dim}-D, not dim={dim}")
    return g


def _spec_maker(cfg: ExperimentConfig, dim: int):
    c = cfg.contamination
    if c is None:
        # a placeholder for eps = 0, the only eps allowed without a block
        g = uniform_density(dim)
        return lambda eps: ContaminationSpec(eps, "unstructured", g=g)
    if "mode" not in c or "g" not in c:
        raise ConfigError("contamination", "a contamination block needs a mode and a density g")
    mode = c["mode"]
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
    K = espec.get("K", 1.0)
    rescale = espec.get("rescale", False)
    kind = espec.get("kind", "adaptive" if schedule == "adaptive" else "thresholded")

    if schedule == "adaptive":
        if kind != "adaptive":
            raise ConfigError(what, "the adaptive schedule implies the adaptive kind")
        if rescale:
            raise ConfigError(what, "the adaptive schedule is never rescaled")
        r = espec.get("r", family.regularity)

        def resolve(n: int, eps: float) -> EstimatorConfig:
            return adaptive_config(n, r, cfg.dim, K=K)

        return resolve

    fixed = schedule == "fixed"
    if fixed:
        j0, j1 = espec.get("j0"), espec.get("j1")
        if j0 is None or j1 is None or not (0 <= j0 <= j1):
            raise ConfigError(what, "a fixed schedule needs integer levels 0 <= j0 <= j1")
    elif gen is None or cfg.regime is None:
        raise ConfigError(what, "a regime schedule needs gen and regime")

    def resolve(n: int, eps: float) -> EstimatorConfig:
        if fixed:
            j0, j1 = espec["j0"], espec["j1"]
        else:
            j0, j1 = choose_resolutions(n, eps, gen, disc, cfg.dim, cfg.regime)
        eps_r = eps if (rescale and eps > 0.0) else None
        return EstimatorConfig(kind, j0, j1, K=K, rescale_epsilon=eps_r)

    return resolve


def _check_resolver(resolver, what: str, pairs, dim: int) -> None:
    for n, eps in pairs:
        try:
            level = truth_level(resolver(n, eps))
        except (BesovRobustError, ValueError) as err:
            raise ConfigError(what, f"schedule fails at n={n}, eps={eps}: {err}") from None
        if not _indexable(level + 1, dim):  # the truth's filter bank starts at level + 1
            raise ConfigError(what, f"truth level {level} at n={n}, eps={eps} is too fine to index at dim={dim}")


def _truths_from(cfg: ExperimentConfig, gen: BesovParams | None) -> list:
    if cfg.truth == "uniform":
        return [("uniform", uniform_density(cfg.dim))]
    if gen is None:
        raise ConfigError("truth", f"truth {cfg.truth!r} needs gen to size its amplitudes")
    try:
        suite = benchmark_suite(gen, cfg.dim)
    except OverflowError as err:  # a level weight 2^(j sigma') past the float range
        raise ConfigError("gen", f"the truth amplitudes overflow: {err}") from None
    if cfg.truth == "benchmark":
        return suite
    for name, model in suite:
        if name == cfg.truth:
            return [(name, model)]
    raise ConfigError(
        "truth", f"truth {cfg.truth!r} does not fit inside the ball of radius {gen.L}"
    )


def validate(cfg: ExperimentConfig) -> _Plan:
    """Resolve and cross-check every field the command will use, and
    serialize the config. `cfg` comes from `build_config`, whose field
    table has already rejected every value config.json cannot hold."""
    plan = _resolve(cfg)
    plan.config_json = _dumps(dataclasses.asdict(cfg))
    return plan


def _resolve(cfg: ExperimentConfig) -> _Plan:
    plan = _Plan()
    if cfg.dim < 1:
        raise ConfigError("dim", "dimension must be a positive integer")
    if cfg.dim > _MAX_DIM and cfg.command != "breakdown":
        raise ConfigError("dim", f"dimension must be at most {_MAX_DIM}, the tree reader's cap")
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
    plan.disc = _params_from(cfg.disc, "disc")
    plan.gen = None if cfg.gen is None else _params_from(cfg.gen, "gen")
    sweep = cfg.command in ("risk-sweep", "rate-check")

    if sweep:
        if not cfg.n_grid or any(n < 3 for n in cfg.n_grid):
            raise ConfigError("grid", "n_grid needs sample sizes of at least 3")
        if not cfg.eps_grid or any(not (0.0 <= e < 1.0) for e in cfg.eps_grid):
            raise ConfigError("grid", "eps_grid values must lie in [0, 1)")
        if cfg.trials < 2:
            raise ConfigError("trials", "trials must be at least 2 for standard errors")
        grid = [(n, e) for n in cfg.n_grid for e in cfg.eps_grid]
    elif cfg.command == "estimate":
        if cfg.samples < 3:
            raise ConfigError("samples", "estimation needs at least 3 samples")
        if not (0.0 <= cfg.eps < 1.0):
            raise ConfigError("eps", "eps must lie in [0, 1)")
        if cfg.truth == "benchmark":
            raise ConfigError("truth", "estimate runs on a single named truth, not the suite")
        grid = [(cfg.samples, cfg.eps)]

    if sweep or cfg.command == "estimate":
        plan.truths = _truths_from(cfg, plan.gen)
        plan.spec_for = _spec_maker(cfg, cfg.dim)
        if cfg.contamination is None and any(e > 0.0 for _, e in grid):
            raise ConfigError("contamination", "positive eps values need a contamination block")
        plan.estimator_for = _resolver_from(
            cfg.estimator, what="estimator", cfg=cfg, family=plan.family,
            gen=plan.gen, disc=plan.disc,
        )
        _check_resolver(plan.estimator_for, "estimator", grid, cfg.dim)
        if cfg.command == "estimate":
            return plan
        if cfg.baseline is not None:
            plan.baseline_for = _resolver_from(
                cfg.baseline, what="baseline", cfg=cfg, family=plan.family,
                gen=plan.gen, disc=plan.disc,
            )
            _check_resolver(plan.baseline_for, "baseline", grid, cfg.dim)
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
            plan.axis = fit_axis(cfg.n_grid, cfg.eps_grid)
            if plan.axis is None:
                raise ConfigError(
                    "grid",
                    "rate-check needs >= 4 distinct n values with one eps, "
                    "or >= 4 distinct positive eps values with one n",
                )
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
                disc_sd = dataclasses.replace(plan.disc, sigma=sd)
                ex = theoretical_exponents(plan.gen, disc_sd, cfg.dim, cfg.regime)
                points = breakdown_curve(plan.gen, disc_sd, cfg.dim, cfg.regime, cfg.n_grid)
            except (BesovRobustError, ValueError) as err:
                raise ConfigError("sigma_d_grid", f"sigma_d={sd}: {err}") from None
            plan.curves.append((sd, ex, points))
        return plan

    # adversary
    if not (0.0 < cfg.eps < 1.0):
        raise ConfigError("eps", "the adversarial construction needs eps in (0, 1)")
    if cfg.samples < 3:
        raise ConfigError("samples", "the distribution check needs at least 3 samples")
    if cfg.samples * max(2, cfg.dim) > MAX_ENTRIES:  # n D sample floats, 2n in the KS test
        raise ConfigError("samples", f"the distribution check takes at most {MAX_ENTRIES // max(2, cfg.dim)} samples")
    if plan.gen is None:
        raise ConfigError("gen", "the adversarial constructions need gen")
    if not plan.family.is_haar:
        raise ConfigError("family", "exact flat realizations of the pairs need the Haar family")
    try:
        if cfg.pair == "sparse":
            p, pt, g, gt, predicted = adversarial_spike_pair(
                plan.gen, plan.disc, cfg.eps, cfg.dim, plan.family
            )
        else:
            raw = cfg.idx if cfg.idx is not None else (2, (1,) * cfg.dim, (1,) * cfg.dim)
            j, kk, ee = raw
            if len(kk) != cfg.dim or len(ee) != cfg.dim:
                raise ConfigError("idx", f"index arity does not match dim={cfg.dim}")
            p, pt, g, gt = lecam_structured_pair(plan.gen, cfg.eps, WaveletIndex(j, kk, ee), plan.family)
            predicted = None
    except (BesovRobustError, ValueError, OverflowError) as err:
        raise ConfigError("pair", str(err)) from None
    plan.pair = (p, pt, g, gt, predicted)
    return plan


# -- artifact helpers ----------------------------------------------------------


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


def _sweep_svg(report: RiskReport, axis: str, theory_exp: float | None) -> str:
    x_of = (lambda c: float(c.n)) if axis == "n" else (lambda c: c.eps)
    cells = sorted(fit_cells(report, axis)[0], key=x_of)
    xs = [x_of(c) for c in cells]
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
    truth_tree = exact_coeffs(model, plan.family, truth_level(est))
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
    (out / "estimate.json").write_text(_dumps(payload))
    print(f"estimate: IPM to truth {ipm:.6g} with {payload['stored_coefficients']} "
          f"stored coefficients; artifacts in {out}")
    return 0


def _sweep(cfg: ExperimentConfig, plan: _Plan, estimator_for, *meta) -> RiskReport:
    return run_sweep(
        plan.truths, plan.spec_for, estimator_for, plan.disc, plan.family,
        cfg.n_grid, cfg.eps_grid, cfg.trials, cfg.seed,
        theory=plan.theory, jobs=cfg.jobs, meta=(("command", cfg.command), *meta),
    )


def _run_sweep_like(cfg: ExperimentConfig, plan: _Plan, out: Path) -> RiskReport:
    report = _sweep(cfg, plan, plan.estimator_for)
    (out / "risk.json").write_text(report.to_json() + "\n")
    report.write_csv(out / "cells.csv", out / "trials.csv")
    return report


def _run_risk_sweep(cfg: ExperimentConfig, plan: _Plan, out: Path) -> int:
    report = _run_sweep_like(cfg, plan, out)
    fitted = dict(report.fitted)
    for axis in fitted:
        theory_exp = None
        if plan.theory is not None:
            theory_exp = plan.theory.dominant_n if axis == "n" else plan.theory.dominant_eps
        (out / "risk.svg").write_text(_sweep_svg(report, axis, theory_exp))
    if plan.baseline_for is not None:
        base_report = _sweep(cfg, plan, plan.baseline_for, ("role", "baseline"))
        (out / "baseline.json").write_text(base_report.to_json() + "\n")
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
        (out / "ratio.json").write_text(_dumps(payload))
        if ratios:
            print(f"risk-sweep: max risk ratio vs baseline {max(ratios):.3f}; artifacts in {out}")
            return 0
    for axis, (exp, se) in report.fitted:
        print(f"risk-sweep: fitted {axis}-exponent {exp:.4f} (stderr {se:.4f}); artifacts in {out}")
    if not report.fitted and plan.baseline_for is None:
        print(f"risk-sweep: {len(report.cells)} cells; artifacts in {out}")
    return 0


def _run_rate_check(cfg: ExperimentConfig, plan: _Plan, out: Path) -> int:
    report = _run_sweep_like(cfg, plan, out)
    axis = plan.axis
    fitted = dict(report.fitted).get(axis)
    if fitted is None:
        raise BesovRobustError(f"the sweep produced no {axis}-axis fit")
    exp, se = fitted
    theory_exp = plan.theory.dominant_n if axis == "n" else plan.theory.dominant_eps
    delta = abs(exp - theory_exp)
    verdict = "PASS" if delta <= cfg.tolerance else "FAIL"
    (out / "rate.svg").write_text(_sweep_svg(report, axis, theory_exp))
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
    (out / "verdict.json").write_text(_dumps(payload))
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
    (out / "breakdown.json").write_text(_dumps(payload))
    (out / "breakdown.csv").write_text("\n".join(csv_lines) + "\n")
    (out / "breakdown.svg").write_text(log_log_svg(
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
    jm = pt.index.j + 1
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
        "level": pt.index.j,
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
    (out / "pair.json").write_text(_dumps(pair_payload))
    ks_payload = {
        "schema": "besov-robust-indistinguishability/1",
        "n": report.n,
        "ks_statistic": report.ks_statistic,
        "p_value": report.p_value,
        "ks_passed": report.ks_passed,
        "tree_difference": report.tree_difference,
        "passed": report.passed,
    }
    (out / "indistinguishability.json").write_text(_dumps(ks_payload))
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
    (out / "config.json").write_text(plan.config_json)
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
    except (ConfigError, BesovRobustError) as err:
        precondition = getattr(err, "precondition", type(err).__name__)
        print(json.dumps({"error": {"precondition": precondition, "detail": str(err)}}, sort_keys=True))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
