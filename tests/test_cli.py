"""End-to-end tests for the command line front end.

Each test drives ``besov_robust.cli.main`` in process and inspects exit
codes, printed lines, and the artifact files left in the output
directory.  Runs are kept small (few trials, modest sample sizes) so the
whole file stays fast; determinism checks compare raw bytes.
"""

import ctypes
import dataclasses
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
import xml.dom.minidom
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besov_robust.cli import (
    PRESETS,
    ConfigError,
    ExperimentConfig,
    build_config,
    main,
    validate,
)
import besov_robust
from besov_robust.besov import LOSS_PRESETS, BesovParams, besov_ipm, ipm_witness
from besov_robust.coefficients import (
    CoefficientTree,
    PiecewiseConstant,
    SpikePerturbation,
    exact_coeffs,
    tree_axpy,
    uniform_density,
)
from besov_robust.harness import truth_level
from besov_robust.wavelets import WaveletIndex, wavelet_family


def run_cli(args, capsys):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out


def read_bytes_map(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        with open(path, "rb") as fp:
            out[name] = fp.read()
    return out


FAST_RATE_ARGS = ["rate-check", "--preset", "structured-eps-rate", "--trials", "4"]
# a small D=2 thresholded estimate whose coeffs.jsonl bytes are pinned
GOLDEN_ESTIMATE_CONFIG = {
    "command": "estimate", "family": "db2", "dim": 2, "gen": [1.0, "inf", "inf", 2.0],
    "disc": "tv", "truth": "dyadic-pwc",
    "contamination": {
        "mode": "structured",
        "g": {"kind": "piecewise", "values": [[2.0, 0.0], [0.0, 2.0]], "scale_level": 1},
    },
    "estimator": {
        "kind": "thresholded", "schedule": "fixed", "j0": 1, "j1": 4, "K": 0.5, "rescale": True,
    },
    "eps": 0.05, "samples": 3000, "seed": 17,
}
GOLDEN_COEFFS_SHA256 = "933246c9515325ac38f2166fc71a51230833d79baa12aada8f6dd8eff650ea5d"
FAST_ADV_ARGS = ["adversary", "--preset", "sparse", "--samples", "20000"]
DEMO_ESTIMATOR = PRESETS["dyadic-demo"]["estimator"]
DEMO_CONTAMINATION = PRESETS["dyadic-demo"]["contamination"]


# modules `import besov_robust.cli` must not load, and who needs each:
# scipy.stats is no dependency at all (no command may load it, see below);
# the KS test (besov_robust._ks) only `adversary` runs; the process pool
# loads multiprocessing, and only a run_sweep with workers > 1 needs it;
# numpy.random is loaded by the first draw, and loading it at import would
# move its 10-20 ms from the run into the setup
LAZY_MODULES = ("scipy.stats", "besov_robust._ks", "concurrent.futures.process", "numpy.random")
SRC = os.path.dirname(os.path.dirname(besov_robust.__file__))


def main_under_memory_cap(args):
    """Run `cli.main(args)` in a fresh process under a 2 GiB address-space
    cap, check that it exits 2 within a second, and return the precondition
    it names."""
    code = (
        "import resource, sys, time; "
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
        "import besov_robust.cli as cli; t = time.perf_counter(); rc = cli.main(sys.argv[1:]); "
        "print(time.perf_counter() - t); sys.exit(rc)"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    res = subprocess.run([sys.executable, "-c", code] + list(args), capture_output=True, text=True, env=env)
    error_line, seconds = res.stdout.splitlines()
    assert res.returncode == 2 and res.stderr == ""
    assert float(seconds) < 1.0
    return json.loads(error_line)["error"]["precondition"]


def test_cli_import_leaves_lazy_modules_unloaded():
    code = f"import sys, besov_robust.cli; print([m for m in {LAZY_MODULES!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=SRC)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert res.stdout.strip() == "[]"


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_runs_load_no_scipy(tmp_path, preset):
    # numpy is the one runtime dependency: no command loads any scipy module
    code = (
        "import sys, besov_robust.cli as cli; rc = cli.main(sys.argv[1:]); "
        "print([m for m in sys.modules if m.partition('.')[0] == 'scipy']); sys.exit(rc)"
    )
    args = [PRESETS[preset]["command"], "--preset", preset, "--jobs", "1", "--out", str(tmp_path / "o")]
    env = dict(os.environ, PYTHONPATH=SRC)
    res = subprocess.run([sys.executable, "-c", code] + args, capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.splitlines()[-1] == "[]"


# SHA-256 of the rate-check artifacts of two presets; every one of these
# bytes must survive a speed-up. The Haar preset's were taken before
# sampling, folding and the wavelet lookup were rewritten to skip work, the
# db3 preset's when its basis became the filter-bank basis. config.json is
# left out: it records the output path.
GOLDEN_RATE_CHECK_SHA256 = {
    "structured-eps-rate": {
        "cells.csv": "e6a8332d792bd0838b4f5bde4124ba155541e55ef5986969ccef1c26ef0dff85",
        "rate.svg": "cedee30246807cef7af6dada07da2ab68e04ecfc4f7d2d7c172fb3d899696f2f",
        "risk.json": "1640b00b95bfe6dd567e6cb3d6b3e60113c26a0e5b75654bcccb9f194f538424",
        "trials.csv": "9ae52aabafe9d6239254130c940387bc93c482408b16349171b9a79d52c9b072",
        "verdict.json": "9fb12d3717785663ed929a5bb818d59edbbecb797bae6b621f7b780b5b9de8bf",
    },
    "holder1-tv-uncontaminated": {
        "cells.csv": "beca6f610589dada6bc4e9b19fd88b9892267f65e494bb414545a0214228a5fc",
        "rate.svg": "0aa7c327cdaf4f2a2498a6b1aaaa5c85a7d388ea474c35ab6be1d8ef33193aa4",
        "risk.json": "f5d0a8f779ac105e508beca4db2075f92aaf5a3c80051d5fe900e67c3eb9158d",
        "trials.csv": "635e34377b54a966af238cd781f5f173d2d68584365d8c0465d445186b81b0e6",
        "verdict.json": "df604c2ad77da882805bc1caf099b6118ec09e934c70e4dbc8af9f02fdb75f12",
    },
}


@pytest.mark.byte_pin
@pytest.mark.parametrize("preset", sorted(GOLDEN_RATE_CHECK_SHA256))
def test_rate_check_artifacts_byte_identical(capsys, tmp_path, preset):
    out = tmp_path / preset
    rc, _ = run_cli(["rate-check", "--preset", preset, "--jobs", "1", "--out", str(out)], capsys)
    assert rc == 0
    got = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in GOLDEN_RATE_CHECK_SHA256[preset]
    }
    assert got == GOLDEN_RATE_CHECK_SHA256[preset]


# SHA-256 of the risk-sweep artifacts of the two adaptive presets: the db4
# thresholded estimator, whose fine levels are all zero in some trials and
# not in others, pinned byte for byte. Taken before the trials of a sweep
# task were batched into one estimate and one IPM.
GOLDEN_RISK_SWEEP_SHA256 = {
    "adaptive-vs-oracle-holder1": {
        "baseline.json": "2967f538e0b17b24fdd8304b2c9c1d1355c423eee47f97e04d50a95f1be89c64",
        "ratio.json": "d1269d730ad42551b87f50413d8fe069fbb66d07c8dee5d9c53817f9f30984f8",
        "risk.json": "cca9af13fcad8e71299344c5649f1dfed0cedae67b9805836497d3157960ba93",
        "trials.csv": "d1d67a36c97f470eb79864e3e5d279b2b064c54ff842e57fd715aee0104c3c35",
    },
    "adaptive-vs-oracle-holder2": {
        "baseline.json": "9b9c9260c23b5e0546fcd8fc96890b1a231f872e81e4bbf82bc8efdde454d1a6",
        "ratio.json": "3165817203abf075d9e84fa12ccd295ceeb06fd4160981499dcd59e262048195",
        "risk.json": "9a76a40bc4a9b86a7e455cd90dcaa321214afbd6d0d2940d531469f924fc97dc",
        "trials.csv": "2608eac8ebcf1adee7c586f416d3896029caccbcdb3c4704864970d0c2875f9b",
    },
}


@pytest.mark.byte_pin
@pytest.mark.parametrize("preset", sorted(GOLDEN_RISK_SWEEP_SHA256))
def test_risk_sweep_artifacts_byte_identical(capsys, tmp_path, preset):
    out = tmp_path / preset
    rc, _ = run_cli(["risk-sweep", "--preset", preset, "--jobs", "1", "--out", str(out)], capsys)
    assert rc == 0
    got = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in GOLDEN_RISK_SWEEP_SHA256[preset]
    }
    assert got == GOLDEN_RISK_SWEEP_SHA256[preset]


# SHA-256 of the adversary and breakdown artifacts, taken before spikes
# were restricted to Haar daughters on a flat base. config.json is left
# out: it records the output path. The structured pair's
# indistinguishability.json was re-pinned when the KS p-value moved from
# scipy to numpy: 0.17642045644397497 became 0.17642045644397475.
GOLDEN_PAIR_AND_BREAKDOWN_SHA256 = {
    ("adversary", "sparse"): {
        "indistinguishability.json": "0b1489ec3c7b310883efadd318a4434c79d1b4b6e8cfe482f4452c3440e8e144",
        "pair.json": "3c384deb6414b72877853c8a665aa946eca3b7905ceec629cf18becfc74f3f68",
    },
    ("adversary", "structured"): {
        "indistinguishability.json": "0b33b7f648bd3d1a14b9e7cd2cc6e1c03a1c91f20050bb0d3a4f76dfd873e5af",
        "pair.json": "3291fcb2a7efccc6b2314bf3721258c5c284eef8043de3a9eccc0b916d5ef382",
    },
    ("breakdown", "sqrt-n-breakdown"): {
        "breakdown.csv": "7f11e9e7694c9cde03e870d8c220bf918cab4c81aa485327773c9c24986c386a",
        "breakdown.json": "4365439e66e357fcbf44960601d486d017d4850df698301bc5ef74b6c56bf3c8",
        "breakdown.svg": "a5bbccabaaf8e85d322de19e0a5090de8df5198ca058b58005b1961c834a36e6",
    },
}


@pytest.mark.byte_pin
@pytest.mark.parametrize("command,preset", sorted(GOLDEN_PAIR_AND_BREAKDOWN_SHA256))
def test_pair_and_breakdown_artifacts_byte_identical(capsys, tmp_path, command, preset):
    out = tmp_path / preset
    extra = ["--samples", "20000"] if command == "adversary" else []
    rc, _ = run_cli([command, "--preset", preset, "--out", str(out)] + extra, capsys)
    assert rc == 0
    got = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in GOLDEN_PAIR_AND_BREAKDOWN_SHA256[(command, preset)]
    }
    assert got == GOLDEN_PAIR_AND_BREAKDOWN_SHA256[(command, preset)]


def per_coefficient_methods_refused():
    """Patch `CoefficientTree.set`, `get` and `items` to raise: the package
    works on whole levels, and only tests address one coefficient."""

    def refuse(*args):
        raise AssertionError("a per-coefficient tree method ran")

    return mock.patch.multiple(CoefficientTree, set=refuse, get=refuse, items=refuse)


def run_adversary_refusing_per_coefficient_methods(capsys, out, preset):
    with per_coefficient_methods_refused():
        rc, _ = run_cli(["adversary", "--preset", preset, "--out", str(out), "--samples", "20000"], capsys)
    assert rc == 0


@pytest.mark.parametrize("preset", ["sparse", "structured"])
def test_adversary_calls_no_per_coefficient_method(capsys, tmp_path, preset):
    out = tmp_path / preset
    run_adversary_refusing_per_coefficient_methods(capsys, out, preset)
    assert all((out / name).is_file() for name in GOLDEN_PAIR_AND_BREAKDOWN_SHA256[("adversary", preset)])


@pytest.mark.byte_pin
@pytest.mark.parametrize("preset", ["sparse", "structured"])
def test_adversary_without_per_coefficient_methods_byte_identical(capsys, tmp_path, preset):
    out = tmp_path / preset
    run_adversary_refusing_per_coefficient_methods(capsys, out, preset)
    want = GOLDEN_PAIR_AND_BREAKDOWN_SHA256[("adversary", preset)]
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in want} == want


def test_spike_truth_and_witness_call_no_per_coefficient_method():
    # a spike on a base with levels of its own, added into the base's level;
    # p = 1 makes the witness one coefficient per level
    haar = wavelet_family("haar")
    base = PiecewiseConstant(np.arange(8.0, 24.0).reshape(4, 4) / 15.5, 2)
    idx = WaveletIndex(1, (1, 0), (1, 1))
    spike = SpikePerturbation(base, haar, idx, 0.125)
    with per_coefficient_methods_refused():
        truth = exact_coeffs(spike, haar, 3)
        delta = tree_axpy(-1.0, exact_coeffs(uniform_density(2), haar, 3), truth)
        witness = ipm_witness(delta, BesovParams(0.5, 1.0, 1.0, 1.0))
    want = exact_coeffs(base, haar, 3)
    want.set(idx, want.get(idx) + 0.125)
    assert truth.levels() == want.levels() == [0, 1]
    for j in want.levels():
        assert np.array_equal(truth.level_array(j).view(np.int64), want.level_array(j).view(np.int64))
    assert witness.n_coefficients == 1


def test_perfbench_trace_names_still_bound(tmp_path):
    # perfbench/tracer.py names each span after the module that defines the
    # traced function, and its per-layer metrics look these names up
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"), BESOV_ROBUST_JOBS="1")
    names, counts = set(), Counter()
    runs = [["rate-check", "--preset", "structured-eps-rate"], ["estimate", "--preset", "dyadic-demo"]]
    for i, argv in enumerate(runs):
        spec, result = tmp_path / f"spec{i}.json", tmp_path / f"result{i}.json"
        spec.write_text(json.dumps({
            "argv": argv + ["--out", str(tmp_path / f"out{i}")],
            "trace": True, "reload": None, "result": str(result),
        }))
        subprocess.run(
            [sys.executable, str(root / "perfbench" / "child.py"), str(spec)],
            env=env, check=True, capture_output=True,
        )
        trace = json.loads(result.read_text())["trace"]
        names |= {trace["names"][span[0]] for span in trace["spans"]}
        counts.update(trace["counts"])
    assert {
        "contamination.sample_huber", "harness.risk_trials",
        "estimators.estimate_linear", "estimators.estimate_thresholded",
    } <= names
    for count in ("contamination.sample_points", "harness.trials", "estimators.kept_coeffs"):
        assert counts[count] > 0, count


class TestPresetRegistry:
    def test_every_preset_builds_and_validates(self):
        assert PRESETS, "preset table must not be empty"
        for name, fields in PRESETS.items():
            cfg = build_config(fields["command"], preset=name)
            validate(cfg)

    def test_preset_commands_are_known(self):
        for fields in PRESETS.values():
            assert fields["command"] in (
                "estimate",
                "risk-sweep",
                "rate-check",
                "breakdown",
                "adversary",
            )

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            build_config("rate-check", preset="no-such-preset")

    def test_preset_command_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            build_config("estimate", preset="sparse")


class TestConfigErrors:
    def test_unknown_preset_exit_2(self, capsys, tmp_path):
        out = tmp_path / "o"
        rc, text = run_cli(
            ["rate-check", "--preset", "nope", "--out", str(out)], capsys
        )
        assert rc == 2
        err = json.loads(text)
        assert "error" in err
        assert err["error"]["precondition"]
        assert not out.exists()

    def test_malformed_config_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "o"
        rc, text = run_cli(
            ["rate-check", "--config", str(bad), "--out", str(out)], capsys
        )
        assert rc == 2
        err = json.loads(text)
        assert "config-file" in err["error"]["precondition"]
        assert not out.exists()

    def test_unknown_field_in_config_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"command": "rate-check", "zzz": 1}))
        out = tmp_path / "o"
        rc, text = run_cli(
            ["rate-check", "--config", str(bad), "--out", str(out)], capsys
        )
        assert rc == 2
        err = json.loads(text)
        assert err["error"]["precondition"]
        assert not out.exists()

    def test_command_mismatch_exit_2(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"command": "adversary"}))
        out = tmp_path / "o"
        rc, text = run_cli(
            ["rate-check", "--config", str(cfgfile), "--out", str(out)], capsys
        )
        assert rc == 2
        assert "error" in json.loads(text)
        assert not out.exists()

    def test_invalid_tolerance_no_partial_outputs(self, capsys, tmp_path):
        out = tmp_path / "o"
        rc, text = run_cli(
            FAST_RATE_ARGS + ["--tolerance", "-1", "--out", str(out)], capsys
        )
        assert rc == 2
        err = json.loads(text)
        assert "tolerance" in err["error"]["precondition"]
        assert not out.exists()

    def test_zero_level_divisor_exit_2(self, capsys, tmp_path):
        # sigma_g = 0.5 and p_g = 1 at D = 1 make the sparse schedule divide
        # log2(n) by 2 sigma_g + D - 2D/p_g = 0
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({
            "gen": [0.5, 1.0, 1.0, 2.0], "regime": "sparse-unstructured", "truth": "uniform",
            "estimator": {"kind": "thresholded", "schedule": "regime"}, "baseline": None,
        }))
        out = tmp_path / "o"
        rc, text = run_cli(
            ["risk-sweep", "--preset", "adaptive-vs-oracle-holder1", "--config", str(cfgfile),
             "--out", str(out)],
            capsys,
        )
        assert rc == 2
        assert text.count("\n") == 1
        err = json.loads(text)["error"]
        assert err["precondition"] == "estimator" and "divides log2(n) by 0.0" in err["detail"]
        assert not out.exists()

    def test_usage_error_exit_2(self, capsys, tmp_path):
        rc, text = run_cli(["rate-check", "--no-such-flag"], capsys)
        assert rc == 2
        assert "error" in json.loads(text)

    def test_missing_command_exit_2(self, capsys):
        rc, text = run_cli([], capsys)
        assert rc == 2
        assert "error" in json.loads(text)

    def test_bad_jobs_env_exit_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BESOV_ROBUST_JOBS", "abc")
        out = tmp_path / "o"
        rc, text = run_cli(FAST_RATE_ARGS + ["--out", str(out)], capsys)
        assert rc == 2
        assert text.count("\n") == 1
        assert json.loads(text)["error"]["precondition"] == "jobs"
        assert not out.exists()

    def test_out_names_existing_file_exit_2(self, capsys, tmp_path):
        out = tmp_path / "taken"
        out.write_text("keep me")
        rc, text = run_cli(FAST_RATE_ARGS + ["--out", str(out)], capsys)
        assert rc == 2
        assert text.count("\n") == 1
        assert json.loads(text)["error"]["precondition"] == "out"
        assert out.read_text() == "keep me"

    @pytest.mark.parametrize("slot", [0, 3])
    def test_nan_gen_sigma_or_radius_exit_2(self, capsys, tmp_path, slot):
        gen = [1.0, "inf", "inf", 2.0]
        gen[slot] = math.nan
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"command": "rate-check", "gen": gen}))
        out = tmp_path / "o"
        rc, text = run_cli(
            FAST_RATE_ARGS + ["--config", str(cfgfile), "--out", str(out)], capsys
        )
        assert rc == 2
        assert text.count("\n") == 1
        assert json.loads(text)["error"]["precondition"] == "gen"
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["estimate", "--preset", "dyadic-demo"],
            ["rate-check", "--preset", "structured-eps-rate"],
        ],
    )
    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_non_finite_or_zero_tolerance_exit_2(self, capsys, tmp_path, args, tol):
        out = tmp_path / "o"
        rc, text = run_cli(args + ["--tolerance", tol, "--out", str(out)], capsys)
        assert rc == 2
        assert text.count("\n") == 1
        assert json.loads(text)["error"]["precondition"] == "tolerance"
        assert not out.exists()

    @pytest.mark.parametrize(
        "preset,patch,precondition",
        [
            ("dyadic-demo", {"estimator": {"schedule": "fixed", "j0": 2, "j1": 5, "K": math.nan}},
             "estimator"),
            ("adaptive-vs-oracle-holder1", {"baseline": {"schedule": "regime", "K": math.nan}},
             "baseline"),
            ("dyadic-demo", {"contamination": {"mode": "structured", "M": math.nan, "g": {
                "kind": "piecewise", "values": [2.0, 0.0], "scale_level": 1}}}, "contamination"),
            ("dyadic-demo", {"contamination": {"mode": "unstructured", "g": {
                "kind": "piecewise", "values": [math.nan, 2.0], "scale_level": 1}}}, "contamination"),
            ("sqrt-n-breakdown", {"sigma_d_grid": [0.5, math.nan]}, "sigma_d_grid"),
        ],
        ids=["estimator.K", "baseline.K", "contamination.M", "contamination.g.values", "sigma_d_grid"],
    )
    def test_nan_in_config_file_exit_2(self, capsys, tmp_path, preset, patch, precondition):
        # json.dumps writes the NaN literal that json.loads accepts
        command = PRESETS[preset]["command"]
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"command": command, **patch}))
        out = tmp_path / "o"
        rc, text = run_cli(
            [command, "--preset", preset, "--config", str(cfgfile), "--out", str(out)], capsys
        )
        assert rc == 2
        assert text.count("\n") == 1
        assert json.loads(text)["error"]["precondition"] == precondition
        assert not out.exists()

    @pytest.mark.parametrize(
        "preset,patch,precondition",
        [
            ("sqrt-n-breakdown", {"estimator": {"K": math.nan}}, "estimator"),
            ("dyadic-demo", {"eps_grid": [math.nan]}, "eps_grid"),
        ],
        ids=["breakdown-estimator.K", "estimate-eps_grid"],
    )
    def test_nan_in_unread_field_exit_2(self, capsys, tmp_path, preset, patch, precondition):
        # the command never reads the field, but config.json could not record it
        command = PRESETS[preset]["command"]
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"command": command, **patch}))
        out = tmp_path / "o"
        rc, text = run_cli(
            [command, "--preset", preset, "--config", str(cfgfile), "--out", str(out)], capsys
        )
        assert rc == 2
        assert text.count("\n") == 1
        assert json.loads(text)["error"]["precondition"] == precondition
        assert not out.exists()

    @pytest.mark.parametrize(
        "preset,patch,field",
        [
            ("structured-eps-rate", {"trials": 2.5}, "trials"),
            ("dyadic-demo", {"samples": 4096.5}, "samples"),
            ("dyadic-demo", {"samples": "4096"}, "samples"),
            ("dyadic-demo", {"seed": True}, "seed"),
            ("dyadic-demo", {"dim": 1.5}, "dim"),
            ("dyadic-demo", {"jobs": 1.5}, "jobs"),
            ("dyadic-demo", {"estimator": {"kind": "thresholded", "schedule": "fixed", "j0": 1.7, "j1": 5}},
             "estimator.j0"),
            ("adaptive-vs-oracle-holder1", {"baseline": {"schedule": "regime", "r": False}}, "baseline.r"),
            ("structured-eps-rate", {"n_grid": [256.5, 1024]}, "n_grid"),
            ("structured", {"idx": [2, [1.5], [1]]}, "idx"),
            ("dyadic-demo", {"contamination": {"mode": "structured", "g": {
                "kind": "piecewise", "values": [2.0, 0.0], "scale_level": "1"}}}, "contamination.g.scale_level"),
        ],
        ids=[
            "trials", "samples", "samples-string", "seed-bool", "dim", "jobs", "estimator.j0", "baseline.r",
            "n_grid", "idx", "contamination.g.scale_level",
        ],
    )
    def test_non_integer_config_field_exit_2(self, capsys, tmp_path, preset, patch, field):
        # int() would truncate a fractional number and read a bool or a string
        command = PRESETS[preset]["command"]
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"command": command, **patch}))
        out = tmp_path / "o"
        rc, text = run_cli(
            [command, "--preset", preset, "--config", str(cfgfile), "--out", str(out)], capsys
        )
        assert rc == 2
        assert text.count("\n") == 1
        err = json.loads(text)["error"]
        assert err["precondition"] == "config-file"
        assert err["detail"].startswith(f"{field} must be an integer")
        assert not out.exists()

    @pytest.mark.parametrize(
        "patch,field",
        [
            ({"tolerance": True}, "tolerance"),
            ({"tolerance": None}, "tolerance"),
            ({"tolerance": [1]}, "tolerance"),
            ({"tolerance": "0.15"}, "tolerance"),
            ({"eps": False}, "eps"),
            ({"estimator": {"kind": "thresholded", "schedule": "fixed", "j0": 0, "j1": 0, "K": True}},
             "estimator.K"),
            ({"baseline": {"kind": "linear", "schedule": "fixed", "j0": 0, "j1": 0, "K": "1"}}, "baseline.K"),
            ({"eps_grid": [False, 0.0078125, 0.015625, 0.03125, 0.0625]}, "eps_grid"),
            ({"sigma_d_grid": [0.5, True]}, "sigma_d_grid"),
            ({"gen": [1.0, "inf", True, 2.0]}, "gen"),
            ({"disc": [0.0, 1.0, "infinity", 1.0]}, "disc"),
            ({"contamination": {"mode": "structured", "M": True, "g": {
                "kind": "piecewise", "values": [2.0, 0.0], "scale_level": 1}}}, "contamination.M"),
        ],
        ids=[
            "tolerance-bool", "tolerance-null", "tolerance-list", "tolerance-string", "eps-bool",
            "estimator.K-bool", "baseline.K-string", "eps_grid-bool", "sigma_d_grid-bool", "gen-bool",
            "disc-string", "contamination.M-bool",
        ],
    )
    def test_non_number_config_field_exit_2(self, capsys, tmp_path, patch, field):
        # float() read a bool as 0 or 1, so "tolerance": true ran a rate gate
        # at tolerance 1.0 and passed it
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"command": "rate-check", **patch}))
        out = tmp_path / "o"
        rc, text = run_cli(
            ["rate-check", "--preset", "structured-eps-rate", "--config", str(cfgfile), "--out", str(out)],
            capsys,
        )
        assert rc == 2
        assert text.count("\n") == 1
        err = json.loads(text)["error"]
        assert err["precondition"] == "config-file"
        assert err["detail"].startswith(f"{field} must be a number")
        assert not out.exists()

    def test_number_fields_accept_ints_and_infinities(self):
        cfg = build_config(
            "rate-check", preset="structured-eps-rate",
            overrides={"tolerance": 1, "gen": [1, "inf", "-inf", 2], "eps_grid": [0, 0.5]},
        )
        assert cfg.tolerance == 1.0 and type(cfg.tolerance) is float
        assert cfg.gen == (1.0, math.inf, -math.inf, 2.0) and cfg.eps_grid == (0.0, 0.5)

    def test_whole_float_integer_fields_are_accepted(self):
        cfg = build_config("estimate", preset="dyadic-demo", overrides={"samples": 4096.0, "seed": 5.0})
        assert (cfg.samples, cfg.seed) == (4096, 5)
        assert type(cfg.samples) is int and type(cfg.seed) is int

    @pytest.mark.parametrize(
        "preset,patch,precondition",
        [
            ("structured-eps-rate", {"n_grid": [256, 256, 512, 1024], "eps_grid": [0.0]}, "grid"),
            ("structured-eps-rate", {"eps_grid": [0.0, 2.0**-8, 2.0**-6, 2.0**-6, 2.0**-4]}, "grid"),
            ("dyadic-demo", {"estimator": {**DEMO_ESTIMATOR, "rescale": "false"}}, "config-file"),
            ("dyadic-demo", {"estimator": {**DEMO_ESTIMATOR, "rescale": 0.5}}, "config-file"),
            ("dyadic-demo", {"estimator": {**DEMO_ESTIMATOR, "rescale": 1}}, "config-file"),
            ("dyadic-demo", {"contamination": {**DEMO_CONTAMINATION, "g": {
                "kind": "piecewise", "values": ["2.0", "0"], "scale_level": 1}}}, "config-file"),
            ("dyadic-demo", {"contamination": {**DEMO_CONTAMINATION, "g": {
                "kind": "piecewise", "values": [True, 1.0], "scale_level": 1}}}, "config-file"),
        ],
        ids=[
            "repeated-n", "repeated-eps", "rescale-string", "rescale-float", "rescale-int",
            "values-strings", "values-bool",
        ],
    )
    def test_loose_config_exit_2_before_output(self, capsys, tmp_path, preset, patch, precondition):
        # a rate axis counted by grid entries passed validation and failed
        # after the sweep; bool() and float() read strings and bools
        command = PRESETS[preset]["command"]
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"command": command, **patch}))
        out = tmp_path / "o"
        rc, text = run_cli(
            [command, "--preset", preset, "--config", str(cfgfile), "--out", str(out)], capsys
        )
        assert rc == 2
        assert text.count("\n") == 1
        assert json.loads(text)["error"]["precondition"] == precondition
        assert not out.exists()

    def test_structured_budget_over_a_fine_cell_exit_2(self, capsys, tmp_path):
        # sup g is about 3.0, in one of 256 x 256 cells that a sampled grid
        # of the pdf never reads; the budget 1.01 must be refused
        values = np.ones((256, 256))
        values[0, 1] = 3.0
        g = {"kind": "piecewise", "values": (values / values.mean()).tolist(), "scale_level": 8}
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({
            **GOLDEN_ESTIMATE_CONFIG, "contamination": {"mode": "structured", "M": 1.01, "g": g},
        }))
        out = tmp_path / "o"
        rc, text = run_cli(["estimate", "--config", str(cfgfile), "--out", str(out)], capsys)
        assert rc == 2
        assert text.count("\n") == 1
        err = json.loads(text)["error"]
        assert err["precondition"] == "contamination" and "over the budget 1.01" in err["detail"]
        assert not out.exists()

    def test_integer_contaminator_values_become_floats(self):
        contamination = {**DEMO_CONTAMINATION, "g": {"kind": "piecewise", "values": [2, 0], "scale_level": 1}}
        cfg = build_config("estimate", preset="dyadic-demo", overrides={"contamination": contamination})
        assert cfg.contamination["g"]["values"] == [2.0, 0.0]
        assert all(type(v) is float for v in cfg.contamination["g"]["values"])

    # db 3 to "db3 " once built db3 under their own spelling, whose tree
    # files read as another basis; db600 overflowed a float
    @pytest.mark.parametrize("family", ["db23", "db30", "db 3", "db03", "db+3", "db\u0663", "db3 ", "db600"])
    def test_unstable_family_exit_2(self, capsys, tmp_path, family):
        out = tmp_path / "o"
        rc, text = run_cli(
            ["estimate", "--preset", "dyadic-demo", "--family", family, "--out", str(out)], capsys
        )
        assert rc == 2
        assert text.count("\n") == 1
        assert json.loads(text)["error"]["precondition"] == "family"
        assert not out.exists()

    BAD_FIXED = {"kind": "thresholded", "schedule": "fixed", "j0": 3, "j1": 1}

    @pytest.mark.parametrize(
        "preset,patch,precondition",
        [
            ("dyadic-demo", {"samples": 2, "truth": "benchmark"}, "samples"),
            ("dyadic-demo", {"eps": 1.5, "truth": "benchmark"}, "eps"),
            ("dyadic-demo", {"truth": "benchmark", "contamination": None}, "truth"),
            ("dyadic-demo", {"gen": None, "contamination": None}, "truth"),
            ("dyadic-demo", {"contamination": None, "estimator": BAD_FIXED}, "contamination"),
            ("dyadic-demo", {"contamination": {"g": DEMO_CONTAMINATION["g"]}, "estimator": BAD_FIXED},
             "contamination"),
            ("dyadic-demo", {"estimator": {"schedule": "regime"}, "baseline": BAD_FIXED}, "estimator"),
            ("adaptive-vs-oracle-holder1", {"trials": 1, "eps_grid": [0.1]}, "trials"),
            ("adaptive-vs-oracle-holder1", {"n_grid": [2], "baseline": BAD_FIXED}, "grid"),
            ("adaptive-vs-oracle-holder1", {"gen": None, "estimator": BAD_FIXED}, "truth"),
            ("adaptive-vs-oracle-holder1", {"eps_grid": [0.1], "estimator": BAD_FIXED}, "contamination"),
            ("adaptive-vs-oracle-holder1", {"estimator": BAD_FIXED, "baseline": BAD_FIXED}, "estimator"),
            ("adaptive-vs-oracle-holder1", {"regime": None, "baseline": {"schedule": "regime"}},
             "baseline"),
        ],
    )
    def test_two_faults_report_the_first(self, capsys, tmp_path, preset, patch, precondition):
        # estimate and the sweeps share one resolution path; each command
        # still checks its fields in its own order and stops at the first
        command = PRESETS[preset]["command"]
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"command": command, **patch}))
        out = tmp_path / "o"
        rc, text = run_cli(
            [command, "--preset", preset, "--config", str(cfgfile), "--out", str(out)], capsys
        )
        assert rc == 2
        assert json.loads(text)["error"]["precondition"] == precondition
        assert not out.exists()

    # each ended in a NaN traceback after OUT held an artifact, or measured
    # an infinite separation and passed
    @pytest.mark.parametrize(
        "preset,patch,precondition",
        [
            ("dyadic-demo", {"disc": ["inf", "inf", "inf", 1.0]}, "disc"),
            ("adaptive-vs-oracle-holder1", {"disc": ["inf", "inf", "inf", 1.0], "trials": 2}, "disc"),
            ("sparse", {"disc": [0.0, "inf", "inf", "inf"]}, "disc"),
            ("structured", {"disc": [0.0, "inf", "inf", "inf"]}, "disc"),
            ("structured-eps-rate", {"gen": ["inf", "inf", "inf", 2.0]}, "gen"),
        ],
        ids=["estimate-sigma", "risk-sweep-sigma", "sparse-radius", "structured-radius", "gen-sigma"],
    )
    def test_non_finite_ball_exit_2(self, capsys, tmp_path, preset, patch, precondition):
        command = PRESETS[preset]["command"]
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"command": command, **patch}))
        out = tmp_path / "o"
        rc, text = run_cli(
            [command, "--preset", preset, "--config", str(cfgfile), "--out", str(out)], capsys
        )
        assert rc == 2
        assert text.count("\n") == 1
        assert json.loads(text)["error"]["precondition"] == precondition
        assert not out.exists()

    def test_infinite_generator_radius_still_runs(self, capsys, tmp_path):
        # only the discriminator's radius scales a measured IPM
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"command": "rate-check", "gen": [1.0, "inf", "inf", "inf"]}))
        rc, text = run_cli(
            ["rate-check", "--preset", "holder1-tv-uncontaminated", "--config", str(cfgfile),
             "--out", str(tmp_path / "o")],
            capsys,
        )
        assert rc == 0 and "rate-check PASS" in text

    def test_error_json_is_single_line(self, capsys, tmp_path):
        rc, text = run_cli(["rate-check", "--preset", "nope"], capsys)
        assert rc == 2
        assert text.count("\n") == 1
        assert text.endswith("\n")


class TestRateCheck:
    def test_pass_exit_0_and_artifacts(self, capsys, tmp_path):
        out = tmp_path / "o"
        rc, text = run_cli(FAST_RATE_ARGS + ["--out", str(out)], capsys)
        assert rc == 0
        assert "rate-check PASS" in text
        for name in (
            "config.json",
            "risk.json",
            "cells.csv",
            "trials.csv",
            "rate.svg",
            "verdict.json",
        ):
            assert (out / name).exists(), name
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["schema"] == "besov-robust-verdict/1"
        assert verdict["verdict"] == "PASS"
        assert verdict["axis"] == "eps"
        assert abs(verdict["fitted"] - verdict["theoretical"]) <= verdict["tolerance"]
        assert verdict["delta"] == pytest.approx(
            abs(verdict["fitted"] - verdict["theoretical"])
        )

    def test_fail_exit_1_with_verdict(self, capsys, tmp_path):
        out = tmp_path / "o"
        rc, text = run_cli(
            FAST_RATE_ARGS + ["--tolerance", "0.0001", "--out", str(out)], capsys
        )
        assert rc == 1
        assert "rate-check FAIL" in text
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["verdict"] == "FAIL"
        # a failed verdict still leaves the full artifact set behind
        assert (out / "risk.json").exists()
        assert (out / "rate.svg").exists()

    def test_no_fit_is_a_fail_verdict(self, capsys, tmp_path):
        # at n = 3 every eps cell sits on the eps = 0 plateau: no fit; this
        # exited 2 with config.json, risk.json and both CSVs behind
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"command": "rate-check", "trials": 2, "n_grid": [3]}))
        out = tmp_path / "o"
        rc, text = run_cli(
            ["rate-check", "--preset", "structured-eps-rate", "--config", str(cfgfile), "--out", str(out)],
            capsys,
        )
        assert rc == 1
        assert text.startswith("rate-check FAIL: no eps-axis fit") and text.count("\n") == 1
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["schema"] == "besov-robust-verdict/1"
        assert verdict["verdict"] == "FAIL"
        assert verdict["fitted"] is verdict["fitted_stderr"] is verdict["delta"] is None
        xml.dom.minidom.parse(str(out / "rate.svg"))

    def test_risk_json_schema(self, capsys, tmp_path):
        out = tmp_path / "o"
        run_cli(FAST_RATE_ARGS + ["--out", str(out)], capsys)
        report = json.loads((out / "risk.json").read_text())
        assert report["schema"] == "besov-robust-risk/1"
        assert "eps" in report["fitted"]
        assert report["fitted"]["eps"]["exponent"] > 0
        assert report["cells"]

    def test_cells_csv_schema(self, capsys, tmp_path):
        out = tmp_path / "o"
        run_cli(FAST_RATE_ARGS + ["--out", str(out)], capsys)
        lines = (out / "cells.csv").read_text().splitlines()
        assert lines[0] == "# besov-robust-cells/1"
        assert lines[1] == "n,eps,mean,stderr,trials,worst_truth"
        assert len(lines) == 2 + 8  # one row per eps cell

    def test_svg_parses_as_xml(self, capsys, tmp_path):
        out = tmp_path / "o"
        run_cli(FAST_RATE_ARGS + ["--out", str(out)], capsys)
        doc = xml.dom.minidom.parseString((out / "rate.svg").read_text())
        assert doc.documentElement.tagName == "svg"


# A risk-sweep over a descending n_grid and a rate-check over a descending
# eps_grid: the fit reads the cells in grid order and the plot sorts them,
# and both orders leave their bits in these artifacts (fitting the sorted
# cells moves the last bit of either exponent). Taken before the fit and
# the plot shared one cell selection.
DESCENDING_GRID_RUNS = {
    "n": ("risk-sweep", "holder1-tv-uncontaminated",
          {"command": "risk-sweep", "n_grid": [2048, 1024, 512, 256], "trials": 4}, "risk.svg",
          "0x1.3d29aa7a8bd75p-2", "3d44c3f42c979e8b789297140caf707ac762d4bbdb0b862c89d7d5b689d3fc02"),
    "eps": ("rate-check", "structured-eps-rate",
            {"eps_grid": [0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0], "trials": 6}, "rate.svg",
            "0x1.d3df785e1e297p-1", "7f4e69030b29f0de5a803cb16743be4d48890d9c5deaa5ce3a6ddbbc9b900d50"),
}


@pytest.mark.byte_pin
@pytest.mark.parametrize("axis", sorted(DESCENDING_GRID_RUNS))
def test_descending_grid_fit_and_plot_pinned(capsys, tmp_path, axis):
    command, preset, patch, svg, exponent, svg_sha256 = DESCENDING_GRID_RUNS[axis]
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(patch))
    out = tmp_path / "o"
    rc, _ = run_cli([command, "--preset", preset, "--config", str(cfgfile), "--jobs", "1", "--out", str(out)], capsys)
    assert rc == 0
    fitted = json.loads((out / "risk.json").read_text())["fitted"]
    assert list(fitted) == [axis]
    assert fitted[axis]["exponent"].hex() == exponent
    assert hashlib.sha256((out / svg).read_bytes()).hexdigest() == svg_sha256


class TestDeterminism:
    def test_rerun_same_dir_byte_identical(self, capsys, tmp_path):
        out = tmp_path / "o"
        run_cli(FAST_RATE_ARGS + ["--out", str(out)], capsys)
        first = read_bytes_map(out)
        run_cli(FAST_RATE_ARGS + ["--out", str(out)], capsys)
        second = read_bytes_map(out)
        assert first == second

    def test_emitted_config_reproduces_run(self, capsys, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        run_cli(FAST_RATE_ARGS + ["--out", str(out1)], capsys)
        rc, _ = run_cli(
            [
                "rate-check",
                "--config",
                str(out1 / "config.json"),
                "--out",
                str(out2),
            ],
            capsys,
        )
        assert rc == 0
        first = read_bytes_map(out1)
        second = read_bytes_map(out2)
        # config.json records its own output directory; all result
        # artifacts must be byte-identical
        for name in first:
            if name == "config.json":
                c1 = json.loads(first[name])
                c2 = json.loads(second[name])
                c1.pop("out")
                c2.pop("out")
                assert c1 == c2
            else:
                assert first[name] == second[name], name

    def test_seed_changes_results(self, capsys, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        run_cli(FAST_ADV_ARGS + ["--out", str(out1)], capsys)
        run_cli(FAST_ADV_ARGS + ["--seed", "123", "--out", str(out2)], capsys)
        r1 = json.loads((out1 / "indistinguishability.json").read_text())
        r2 = json.loads((out2 / "indistinguishability.json").read_text())
        assert r1["p_value"] != r2["p_value"]

    def test_jobs_flag_does_not_change_results(self, capsys, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        run_cli(FAST_RATE_ARGS + ["--jobs", "1", "--out", str(out1)], capsys)
        run_cli(FAST_RATE_ARGS + ["--jobs", "2", "--out", str(out2)], capsys)
        for name in ("risk.json", "cells.csv", "trials.csv", "verdict.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_jobs_env_fallback(self, capsys, tmp_path, monkeypatch):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        run_cli(FAST_RATE_ARGS + ["--jobs", "1", "--out", str(out1)], capsys)
        monkeypatch.setenv("BESOV_ROBUST_JOBS", "2")
        run_cli(FAST_RATE_ARGS + ["--out", str(out2)], capsys)
        assert (out1 / "risk.json").read_bytes() == (out2 / "risk.json").read_bytes()


class TestAdversary:
    def test_sparse_pair_artifacts(self, capsys, tmp_path):
        out = tmp_path / "o"
        rc, text = run_cli(FAST_ADV_ARGS + ["--out", str(out)], capsys)
        assert rc == 0
        assert "adversary PASS" in text
        pair = json.loads((out / "pair.json").read_text())
        assert pair["schema"] == "besov-robust-pair/1"
        assert pair["pair"] == "sparse"
        assert pair["eps"] == 0.015625
        # the coefficient construction makes the measured separation match
        # the closed form exactly
        assert pair["measured_ipm"] == pair["predicted_separation"]
        assert pair["ratio"] == 1.0
        report = json.loads((out / "indistinguishability.json").read_text())
        assert report["schema"] == "besov-robust-indistinguishability/1"
        assert report["passed"] is True
        assert report["tree_difference"] == 0.0
        assert report["p_value"] > 0.01

    def test_sparse_densities_described(self, capsys, tmp_path):
        out = tmp_path / "o"
        run_cli(FAST_ADV_ARGS + ["--out", str(out)], capsys)
        pair = json.loads((out / "pair.json").read_text())
        dens = pair["densities"]
        assert set(dens) == {"p", "g", "p_tilde", "g_tilde"}
        assert dens["p"]["kind"] == "piecewise"
        assert dens["p_tilde"]["kind"] == "spike"

    def test_structured_pair_runs(self, capsys, tmp_path):
        out = tmp_path / "o"
        rc, text = run_cli(
            [
                "adversary",
                "--preset",
                "structured",
                "--samples",
                "20000",
                "--out",
                str(out),
            ],
            capsys,
        )
        assert rc == 0
        pair = json.loads((out / "pair.json").read_text())
        assert pair["pair"] == "structured"
        report = json.loads((out / "indistinguishability.json").read_text())
        assert report["passed"] is True

    def test_zero_predicted_separation_has_no_ratio(self, capsys, tmp_path):
        # a huge discriminator smoothness underflows the predicted separation
        # to 0.0, which the ratio divided by
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"command": "adversary", "disc": [1e308, 1.0, 1.0, 1.0]}))
        out = tmp_path / "o"
        rc, _ = run_cli(FAST_ADV_ARGS + ["--config", str(cfgfile), "--out", str(out)], capsys)
        assert rc in (0, 1)
        pair = json.loads((out / "pair.json").read_text())
        assert pair["predicted_separation"] == 0.0
        assert pair["ratio"] is None

    @pytest.mark.parametrize("preset", ["sparse", "structured"])
    def test_unseparated_truths_fail(self, capsys, tmp_path, preset):
        # a disc sigma of 1e308 weighs every level by 0: the mixtures pass
        # the KS test, but truths 0 apart show nothing, so the verdict fails
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"command": "adversary", "disc": [1e308, 1.0, 1.0, 1.0]}))
        out = tmp_path / "o"
        rc, text = run_cli(
            ["adversary", "--preset", preset, "--samples", "20000", "--config", str(cfgfile), "--out", str(out)],
            capsys,
        )
        assert rc == 1
        assert text.startswith("adversary FAIL: measured separation 0")
        assert text.rstrip().endswith("the truths are not separated under this loss")
        assert json.loads((out / "pair.json").read_text())["measured_ipm"] == 0.0
        report = json.loads((out / "indistinguishability.json").read_text())
        assert report["ks_passed"] is True and report["passed"] is True

    def test_eps_override(self, capsys, tmp_path):
        out = tmp_path / "o"
        rc, _ = run_cli(
            FAST_ADV_ARGS + ["--eps", "0.0625", "--out", str(out)], capsys
        )
        assert rc == 0
        pair = json.loads((out / "pair.json").read_text())
        assert pair["eps"] == 0.0625
        assert pair["level"] == 2


class TestBreakdown:
    def test_artifacts(self, capsys, tmp_path):
        out = tmp_path / "o"
        rc, _ = run_cli(
            ["breakdown", "--preset", "sqrt-n-breakdown", "--out", str(out)],
            capsys,
        )
        assert rc == 0
        payload = json.loads((out / "breakdown.json").read_text())
        assert payload["schema"] == "besov-robust-breakdown/1"
        curves = payload["curves"]
        assert len(curves) == 4
        lines = (out / "breakdown.csv").read_text().splitlines()
        assert lines[0] == "# besov-robust-breakdown/1"
        assert lines[1] == "sigma_d,n,eps_star"
        n_grid = json.loads((out / "config.json").read_text())["n_grid"]
        assert len(lines) == 2 + 4 * len(n_grid)
        doc = xml.dom.minidom.parseString((out / "breakdown.svg").read_text())
        assert doc.documentElement.tagName == "svg"
        assert len(doc.getElementsByTagName("polyline")) >= 4

    def test_smooth_discriminators_reach_sqrt_n(self, capsys, tmp_path):
        out = tmp_path / "o"
        run_cli(
            ["breakdown", "--preset", "sqrt-n-breakdown", "--out", str(out)],
            capsys,
        )
        payload = json.loads((out / "breakdown.json").read_text())
        by_sigma = {c["sigma_d"]: c for c in payload["curves"]}
        # once the metric is smooth enough the contamination tolerance
        # saturates at n^{-1/2}
        for sd in (1.0, 2.0):
            curve = by_sigma[sd]
            assert curve["dominant_eps"] == 1.0
            assert curve["dominant_n"] == 0.5
            for n, eps_star in curve["points"]:
                assert eps_star == pytest.approx(n ** -0.5)
        # a rougher metric fails sooner
        rough = by_sigma[0.25]
        smooth = by_sigma[2.0]
        for (n1, e1), (n2, e2) in zip(rough["points"], smooth["points"]):
            assert n1 == n2
            assert e1 <= e2 + 1e-15


class TestEstimate:
    def test_artifacts(self, capsys, tmp_path):
        out = tmp_path / "o"
        rc, text = run_cli(
            ["estimate", "--preset", "dyadic-demo", "--out", str(out)], capsys
        )
        assert rc == 0
        est = json.loads((out / "estimate.json").read_text())
        assert est["schema"] == "besov-robust-estimate/1"
        assert est["n"] == 4096
        assert est["ipm_to_truth"] >= 0.0
        assert math.isfinite(est["ipm_to_truth"])
        tree = CoefficientTree.from_jsonl(str(out / "coeffs.jsonl"))
        assert est["stored_coefficients"] == sum(1 for _ in tree.items()) == tree.n_coefficients
        # rescaling by 1/(1 - eps) shows up in the stored mean coefficient
        assert tree.alpha == pytest.approx(1.0 / (1.0 - est["eps"]))

    @pytest.mark.byte_pin
    def test_coeffs_jsonl_golden_hash(self, capsys, tmp_path):
        # the on-disk tree format is frozen; the db2 values are those of the
        # filter-bank basis with top level j1 + 1
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(GOLDEN_ESTIMATE_CONFIG))
        out = tmp_path / "o"
        rc, _ = run_cli(["estimate", "--config", str(cfgfile), "--out", str(out)], capsys)
        assert rc == 0
        data = (out / "coeffs.jsonl").read_bytes()
        assert len(data.splitlines()) == 352
        assert hashlib.sha256(data).hexdigest() == GOLDEN_COEFFS_SHA256

    @pytest.mark.parametrize("family,kind", [("haar", "linear"), ("db2", "thresholded")])
    def test_d2_ipm_is_the_reloaded_trees_ipm(self, capsys, tmp_path, family, kind):
        # the uniform truth stores no level, so every sum runs over the
        # estimate's own levels: the printed IPM has the bits of the tree
        # read back from coeffs.jsonl
        est = {"kind": kind, "schedule": "fixed", "j0": 3, "j1": 3}
        if kind == "thresholded":
            est.update(j0=1, K=0.5)
        for loss, seed in itertools.product(("tv", "l2"), (1, 2, 3)):
            cfg = dict(GOLDEN_ESTIMATE_CONFIG, family=family, disc=loss, truth="uniform",
                       estimator=est, samples=400, seed=seed)
            cfgfile = tmp_path / "c.json"
            cfgfile.write_text(json.dumps(cfg))
            out = tmp_path / f"{loss}-{seed}"
            rc, _ = run_cli(["estimate", "--config", str(cfgfile), "--out", str(out)], capsys)
            assert rc == 0
            printed = json.loads((out / "estimate.json").read_text())["ipm_to_truth"]
            tree = CoefficientTree.from_jsonl(str(out / "coeffs.jsonl"))
            truth = exact_coeffs(uniform_density(2), wavelet_family(family), 5)
            again = besov_ipm(tree, truth, LOSS_PRESETS[loss])
            assert np.float64(printed).view(np.int64) == np.float64(again).view(np.int64)

    def test_ipm_is_measured_at_the_harness_truth_level(self, capsys, tmp_path):
        out = tmp_path / "o"
        rc, _ = run_cli(["estimate", "--preset", "dyadic-demo", "--out", str(out)], capsys)
        assert rc == 0
        cfg = build_config("estimate", preset="dyadic-demo")
        plan = validate(cfg)
        est = plan.estimator_for(cfg.samples, cfg.eps)
        truth = exact_coeffs(plan.truths[0][1], plan.family, truth_level(est))
        tree = CoefficientTree.from_jsonl(str(out / "coeffs.jsonl"))
        printed = json.loads((out / "estimate.json").read_text())["ipm_to_truth"]
        again = besov_ipm(tree, truth, plan.disc)
        assert np.float64(printed).view(np.int64) == np.float64(again).view(np.int64)

    def test_rerun_byte_identical(self, capsys, tmp_path):
        out = tmp_path / "o"
        run_cli(["estimate", "--preset", "dyadic-demo", "--out", str(out)], capsys)
        first = read_bytes_map(out)
        run_cli(["estimate", "--preset", "dyadic-demo", "--out", str(out)], capsys)
        assert first == read_bytes_map(out)


class FakeLibc:
    """A libc whose `mallopt` records its calls, and whether `out` existed then."""

    def __init__(self, out):
        self.out, self.calls = out, []

        def mallopt(param, value):  # a plain function takes argtypes as a foreign one does
            self.calls.append((param, value, self.out.exists()))
            return 1

        self.mallopt = mallopt


# a fresh process that runs one small command through `main` (or none), then
# counts the page faults of four db2, D = 2 transforms of 2^16 points after a
# first one has grown the heap
FAULTS_AFTER_MAIN = """
import resource, sys
import numpy as np
import besov_robust.cli as cli
from besov_robust.coefficients import empirical_coeffs
from besov_robust.wavelets import wavelet_family
if sys.argv[1] != "none":
    assert cli.main(["estimate", "--preset", "dyadic-demo", "--out", sys.argv[1]]) == 0
x = np.random.default_rng(0).random((2**16, 2))
db2 = wavelet_family("db2")
empirical_coeffs(x, db2, 3, 7)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(4):
    empirical_coeffs(x, db2, 3, 7)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestAllocatorPolicy:
    DEMO = ["estimate", "--preset", "dyadic-demo"]

    def test_main_sets_both_thresholds_before_the_command(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "o"
        libc = FakeLibc(out)
        names = []
        monkeypatch.setattr(ctypes, "CDLL", lambda name: names.append(name) or libc)
        rc, _ = run_cli(self.DEMO + ["--out", str(out)], capsys)
        assert rc == 0
        assert names == [None]
        assert libc.calls == [(-1, 64 << 20, False), (-3, 32 << 20, False)]

    def test_import_sets_nothing(self):
        code = (
            "import ctypes, numpy; calls = []; "
            "ctypes.CDLL = lambda *args, **kw: calls.append(args); "
            "import besov_robust.cli; print(calls)"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert res.stdout.strip() == "[]"

    @pytest.mark.parametrize("libc", ["no-mallopt", "oserror"])
    def test_without_mallopt_the_command_runs_unchanged(self, capsys, tmp_path, monkeypatch, libc):
        rc, text = run_cli(self.DEMO + ["--out", str(tmp_path / "ref")], capsys)

        def no_libc(name):
            if libc == "oserror":
                raise OSError("no libc")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", no_libc)
        out = tmp_path / "o"
        assert run_cli(self.DEMO + ["--out", str(out)], capsys) == (rc, text.replace(str(tmp_path / "ref"), str(out)))
        for name in ("coeffs.jsonl", "estimate.json"):
            assert (out / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()

    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="libc has no mallopt")
    def test_transforms_after_main_reuse_freed_memory(self, tmp_path):
        # the default allocator unmaps or trims the transform's freed
        # temporaries, and faults them back in at every call
        env = dict(os.environ, PYTHONPATH=SRC)
        faults = {}
        for run in ("main", "none"):
            argv = [str(tmp_path / "o") if run == "main" else "none"]
            res = subprocess.run([sys.executable, "-c", FAULTS_AFTER_MAIN] + argv,
                                 capture_output=True, text=True, env=env, check=True)
            faults[run] = int(res.stdout.splitlines()[-1])
        assert faults["main"] < 64
        assert faults["none"] > 1000


class TestRiskSweepBaseline:
    def test_ratio_artifact(self, capsys, tmp_path):
        out = tmp_path / "o"
        rc, _ = run_cli(
            [
                "risk-sweep",
                "--preset",
                "adaptive-vs-oracle-holder1",
                "--trials",
                "2",
                "--out",
                str(out),
            ],
            capsys,
        )
        assert rc == 0
        ratio = json.loads((out / "ratio.json").read_text())
        assert ratio["schema"] == "besov-robust-ratio/1"
        assert ratio["max_ratio"] > 0
        assert ratio["cells"]
        for cell in ratio["cells"]:
            assert cell["ratio"] == pytest.approx(
                cell["risk"] / cell["baseline_risk"]
            )
        assert (out / "baseline.json").exists()
        assert (out / "risk.json").exists()


class TestConfigSerialization:
    def test_infinity_round_trips(self, tmp_path):
        import dataclasses

        from besov_robust.cli import _dumps

        cfg = build_config("rate-check", preset="holder1-tv-uncontaminated")
        assert cfg.gen[1] == math.inf  # (sigma, p, q, L) with p unbounded
        path = tmp_path / "c.json"
        path.write_text(_dumps(dataclasses.asdict(cfg)))
        reloaded = build_config("rate-check", config_path=str(path))
        assert reloaded == cfg

    def test_defaults_are_frozen_dataclass(self):
        cfg = ExperimentConfig(command="estimate")
        with pytest.raises(Exception):
            cfg.seed = 2


class TestFieldTable:
    """Every config field, at every depth, is typed by one table: a wrong
    type, shape or string and an unknown key exit 2 naming the dotted
    field, a NaN exits 2 naming its top-level field, and nothing else
    escapes build_config and validate."""

    RATE_ESTIMATOR = PRESETS["structured-eps-rate"]["estimator"]
    RATE_CONTAMINATION = PRESETS["structured-eps-rate"]["contamination"]

    def test_table_covers_every_config_field(self):
        assert set(besov_robust.cli._FIELDS) == {f.name for f in dataclasses.fields(ExperimentConfig)}

    # each printed a traceback, left OUT behind, exited 2 with Python's own
    # text, or passed with the misspelt key ignored
    @pytest.mark.parametrize(
        "patch,detail",
        [
            ({"family": None}, "family must be a string"),
            ({"family": [1]}, "family must be a string"),
            ({"family": 2.5}, "family must be a string"),
            ({"regime": 3}, "regime must be one of"),
            ({"dim": 1e308}, "dim must be an integer in"),
            ({"out": 5}, "out must be a string"),
            ({"n_grid": [1e20]}, "n_grid must be an integer in"),
            ({"eps_grid": 0.5}, "eps_grid must be a list"),
            ({"gen": 2.0}, "gen must be a list"),
            ({"estimator": 3}, "estimator must be an object"),
            ({"idx": 5}, "idx must be a list"),
            ({"contamination": 3}, "contamination must be an object"),
            ({"estimator": {**RATE_ESTIMATOR, "rescal": True}}, "unknown config field 'estimator.rescal'"),
            ({"contamination": {**RATE_CONTAMINATION, "zzz": 1}}, "unknown config field 'contamination.zzz'"),
        ],
        ids=[
            "family-null", "family-list", "family-float", "regime-int", "dim-1e308", "out-int",
            "n_grid-1e20", "eps_grid-scalar", "gen-scalar", "estimator-int", "idx-int",
            "contamination-int", "estimator.rescal", "contamination.zzz",
        ],
    )
    def test_mistyped_field_exit_2_naming_it(self, capsys, tmp_path, monkeypatch, patch, detail):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text(json.dumps({"command": "rate-check", **patch}))
        out = [] if "out" in patch else ["--out", "o"]
        rc, text = run_cli(["rate-check", "--preset", "structured-eps-rate", "--config", "c.json"] + out, capsys)
        assert rc == 2
        assert text.count("\n") == 1
        err = json.loads(text)["error"]
        assert err["precondition"] == "config-file"
        assert err["detail"].startswith(detail)
        assert os.listdir(tmp_path) == ["c.json"]

    @pytest.mark.parametrize(
        "patch,precondition",
        [
            ({"n_grid": [math.nan]}, "n_grid"),
            ({"idx": [2, [math.nan], [1]]}, "idx"),
            ({"contamination": {"mode": "structured", "g": {
                "kind": "piecewise", "values": [2.0, 0.0], "scale_level": math.nan}}}, "contamination"),
        ],
        ids=["n_grid", "idx", "contamination.g.scale_level"],
    )
    def test_nan_in_integer_field_names_top_level_field(self, capsys, tmp_path, patch, precondition):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"command": "rate-check", **patch}))
        out = tmp_path / "o"
        rc, text = run_cli(
            ["rate-check", "--preset", "structured-eps-rate", "--config", str(cfgfile), "--out", str(out)],
            capsys,
        )
        assert rc == 2
        assert json.loads(text)["error"]["precondition"] == precondition
        assert not out.exists()

    @pytest.mark.parametrize(
        "preset,patch,precondition",
        [
            ("structured-eps-rate", {"dim": 2}, "contamination"),
            ("holder1-tv-uncontaminated", {"gen": [1e308, "inf", "inf", 2.0]}, "gen"),
            ("holder1-tv-uncontaminated", {"dim": 24}, "dim"),
            ("holder1-tv-uncontaminated",
             {"estimator": {"kind": "thresholded", "schedule": "fixed", "j0": 0, "j1": 70}}, "estimator"),
            ("adaptive-vs-oracle-holder1",
             {"baseline": {"kind": "thresholded", "schedule": "fixed", "j0": 0, "j1": 70}}, "baseline"),
            ("dyadic-demo", {"dim": 17}, "dim"),
        ],
        ids=["contaminator-dim", "gen-sigma-1e308", "dim-24", "estimator-j1-70", "baseline-j1-70",
             "estimate-dim-17"],
    )
    def test_values_out_of_reach_exit_2(self, capsys, tmp_path, preset, patch, precondition):
        # a 1-D contaminator under dim 2 failed in the sampler after OUT
        # existed; a huge smoothness overflowed the truths' level weights; a
        # dim above the tree reader's cap, or a truth level int64 cannot
        # index, ended in numpy's size errors or a MemoryError
        command = PRESETS[preset]["command"]
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"command": command, **patch}))
        out = tmp_path / "o"
        start = time.perf_counter()
        rc, text = run_cli(
            [command, "--preset", preset, "--config", str(cfgfile), "--out", str(out)], capsys
        )
        assert time.perf_counter() - start < 1.0
        assert rc == 2
        assert text.count("\n") == 1
        assert json.loads(text)["error"]["precondition"] == precondition
        assert not out.exists()

    @pytest.mark.parametrize("depth", [600, 100000])
    def test_deeply_nested_lists_exit_2(self, capsys, tmp_path, depth):
        # past the recursion limit of the JSON reader or of the field walk
        values = "[" * depth + "1.0" + "]" * depth
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(
            '{"contamination": {"mode": "structured", "g": {"kind": "piecewise", '
            '"scale_level": 1, "values": ' + values + "}}}"
        )
        out = tmp_path / "o"
        rc, text = run_cli(
            ["rate-check", "--preset", "structured-eps-rate", "--config", str(cfgfile), "--out", str(out)],
            capsys,
        )
        assert rc == 2
        assert text.count("\n") == 1 and "error" in json.loads(text)
        assert not out.exists()

    # Adversary inputs whose arrays pass the size cap: the level-30 spike
    # tree (8 GiB), the contaminator's level-19 cell matrix (2 TiB), a 7.45
    # GiB sample and the level-40 spike tree (8 TiB) each ended in a
    # traceback, some after OUT existed
    @pytest.mark.parametrize("preset,fields", [
        ("sparse", {"eps": 2.0**-60}),
        ("sparse", {"eps": 2.0**-36}),
        ("sparse", {"samples": 10**9}),
        ("structured", {"idx": [40, [1], [1]]}),
    ])
    def test_adversary_size_refused_under_memory_cap(self, tmp_path, preset, fields):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(dict(fields, command="adversary")))
        out = tmp_path / "o"
        precondition = main_under_memory_cap(["adversary", "--preset", preset, "--config", str(cfgfile), "--out", str(out)])
        assert precondition == ("samples" if "samples" in fields else "pair")
        assert not out.exists()

    def test_truth_level_over_the_cap_refused_under_memory_cap(self, tmp_path):
        # truth level 32 (2^32 entries) passed the int64 rule, then asked for
        # 64 GiB after OUT existed
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({
            "command": "rate-check", "estimator": {"kind": "linear", "schedule": "fixed", "j0": 30, "j1": 30},
        }))
        out = tmp_path / "o"
        args = ["rate-check", "--preset", "holder1-tv-uncontaminated", "--config", str(cfgfile), "--out", str(out)]
        assert main_under_memory_cap(args) == "estimator"
        assert not out.exists()

    @pytest.mark.parametrize("dim,j1,refused", [(1, 22, False), (1, 23, True), (2, 9, False), (2, 10, True)])
    def test_truth_level_cap_edge(self, tmp_path, dim, j1, refused):
        # the truth's top level j1 + 2 holds (2^D - 1) 2^(D (j1 + 2)) entries:
        # 2^24 at D = 1, j1 = 22 and 3 2^22 at D = 2, j1 = 9 are inside the cap
        cfg = build_config("estimate", preset="dyadic-demo", overrides={
            "dim": dim, "contamination": {"mode": "unstructured", "g": {"kind": "uniform"}}, "out": str(tmp_path / "o"),
            "estimator": {"kind": "linear", "schedule": "fixed", "j0": j1, "j1": j1},
        })
        if refused:
            with pytest.raises(ConfigError, match="over the cap of 16777216") as info:
                validate(cfg)
            assert info.value.precondition == "estimator"
        else:
            validate(cfg)

    def test_structured_pair_level_overflow_exit_2(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"command": "adversary", "idx": [2**62, [1], [1]]}))
        out = tmp_path / "o"
        rc, text = run_cli(["adversary", "--preset", "structured", "--config", str(cfgfile), "--out", str(out)], capsys)
        assert rc == 2
        assert json.loads(text)["error"]["precondition"] == "pair"
        assert not out.exists()


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=6),
    st.sampled_from(["inf", "-inf", "tv", "haar", "fixed", "structured", "piecewise", "uniform"]),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308]),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=8,
)


def nested_field_paths(fields, prefix=()):
    for key, value in fields.items():
        if isinstance(value, dict):
            yield from nested_field_paths(value, prefix + (key,))
        if prefix:
            yield prefix + (key,)


def too_many_dims(path, value):
    # validate's memory grows exponentially in dim: a size limit, not a type rule
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return path == ("dim",) and number and 3 < value < 2**63


@pytest.mark.parametrize("preset", sorted(PRESETS))
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_single_field_swap_raises_only_config_error(tmp_path_factory, preset, data):
    config = json.loads(json.dumps(PRESETS[preset]))
    paths = [(f.name,) for f in dataclasses.fields(ExperimentConfig)] + sorted(nested_field_paths(config))
    path = data.draw(st.sampled_from(paths), label="path")
    value = data.draw(JSON_VALUES.filter(lambda v: not too_many_dims(path, v)), label="value")
    target = config
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    cfgfile = tmp_path_factory.getbasetemp() / "swapped.json"
    cfgfile.write_text(json.dumps(config))
    try:
        validate(build_config(PRESETS[preset]["command"], config_path=str(cfgfile)))
    except ConfigError:
        pass


BALL_SIGMAS = [0.0, 1e-300, 0.5, 1.0, 2.0, 1e308, math.inf]
BALL_EXPONENTS = [1.0, 2.0, math.inf]
BALL_RADII = [1e-300, 0.5, 1.0, 2.0, 1e308, math.inf]


@pytest.mark.parametrize("preset", ["dyadic-demo", "sparse", "structured"])
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_ball_swap_ends_in_an_exit_code(tmp_path_factory, preset, data):
    # any (sigma, p, q, L) in gen or disc runs to 0 or 1, or exits 2 before
    # OUT exists; a traceback or a numpy RuntimeWarning fails the test
    field = data.draw(st.sampled_from(["gen", "disc"]), label="field")
    ball = [data.draw(st.sampled_from(vals)) for vals in (BALL_SIGMAS, BALL_EXPONENTS, BALL_EXPONENTS, BALL_RADII)]
    command = PRESETS[preset]["command"]
    patch = {"command": command, field: ["inf" if v == math.inf else v for v in ball]}
    if command == "adversary":
        patch["samples"] = 2000
    base = tmp_path_factory.mktemp("ball")
    cfgfile = base / "c.json"
    cfgfile.write_text(json.dumps(patch))
    out = base / "o"
    rc = main([command, "--preset", preset, "--config", str(cfgfile), "--out", str(out)])
    assert rc in (0, 1, 2)
    if rc == 2:
        assert not out.exists()
