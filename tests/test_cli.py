"""End-to-end tests for the command line front end.

Each test drives ``besov_robust.cli.main`` in process and inspects exit
codes, printed lines, and the artifact files left in the output
directory.  Runs are kept small (few trials, modest sample sizes) so the
whole file stays fast; determinism checks compare raw bytes.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import xml.dom.minidom
from collections import Counter
from pathlib import Path

import pytest

from besov_robust.cli import (
    PRESETS,
    ConfigError,
    ExperimentConfig,
    build_config,
    main,
    validate,
)
import besov_robust
from besov_robust.coefficients import CoefficientTree


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
GOLDEN_COEFFS_SHA256 = "b493c6f6b69a300cc4282795058a6eb445806f4b4da7468ce2459cc10312bb92"
FAST_ADV_ARGS = ["adversary", "--preset", "sparse", "--samples", "20000"]


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a second to import and only `adversary` needs it
    src = os.path.dirname(os.path.dirname(besov_robust.__file__))
    code = "import sys, besov_robust.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert res.stdout.strip() == "False"


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

    @pytest.mark.parametrize("family", ["db23", "db30"])
    def test_unstable_family_exit_2(self, capsys, tmp_path, family):
        out = tmp_path / "o"
        rc, text = run_cli(
            ["estimate", "--preset", "dyadic-demo", "--family", family, "--out", str(out)], capsys
        )
        assert rc == 2
        assert text.count("\n") == 1
        assert json.loads(text)["error"]["precondition"] == "family"
        assert not out.exists()

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

    def test_coeffs_jsonl_golden_hash(self, capsys, tmp_path):
        # the on-disk tree format is frozen: these bytes were written by the
        # dict-backed tree that the array-backed one replaced
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(GOLDEN_ESTIMATE_CONFIG))
        out = tmp_path / "o"
        rc, _ = run_cli(["estimate", "--config", str(cfgfile), "--out", str(out)], capsys)
        assert rc == 0
        data = (out / "coeffs.jsonl").read_bytes()
        assert len(data.splitlines()) == 352
        assert hashlib.sha256(data).hexdigest() == GOLDEN_COEFFS_SHA256

    def test_rerun_byte_identical(self, capsys, tmp_path):
        out = tmp_path / "o"
        run_cli(["estimate", "--preset", "dyadic-demo", "--out", str(out)], capsys)
        first = read_bytes_map(out)
        run_cli(["estimate", "--preset", "dyadic-demo", "--out", str(out)], capsys)
        assert first == read_bytes_map(out)


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
