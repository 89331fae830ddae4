"""End-to-end and per-layer benchmark of the besov-robust CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Every workload run is a fresh child interpreter (perfbench/child.py) that
imports `besov_robust.cli` from ./src and runs one CLI command, closed loop,
with BESOV_ROBUST_JOBS=1 and one BLAS/OpenMP thread. Each child's outputs are
checked (see `check_artifacts`); a child that fails a check counts in
`failed`.

--trace 0 measures the end-to-end metrics: a warm-up import, SETUP_REPEATS
import-only children, then workload children until --seconds would be
exceeded (at least MIN_CHILDREN). setup_s, wall_s, cpu_s and samples_per_s
are means over the children, rescaled from the machine's pace measured
around them to a fixed nominal pace; peak_rss_mb is the median child's.

--trace 1 measures the per-layer metrics: the import breakdown from
`python -X importtime`, TRACED_CHILDREN children with the tracer installed
(their counts must agree exactly) alternating with as many untraced ones, and
the per-level transform profile of perfbench/levels.py.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it say the same for a reader.
Exit status is 2 when the checkout has no package to run, 1 when no child
ran to completion, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from tracer import LAYERS
from workloads import ARTIFACTS, WORKLOADS

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# One BLAS/OpenMP thread in this process too, set before numpy loads.
os.environ.update({var: "1" for var in THREAD_VARS})

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
# The machine's pace is how long a `ReferenceKernel` call takes: the median of
# PACE_REPEATS calls, made in this process on the CPU the children are pinned
# to, right before and again right after every child (see README.md).
PACE_REPEATS = 3
# End-to-end timings are reported at this pace, the typical one of the
# shared 2-vCPU VM the benchmark was built on.
NOMINAL_PACE_S = 0.020
SETUP_REPEATS = 3
MIN_CHILDREN = 3
TRACED_CHILDREN = 2
IMPORTTIME_REPEATS = 3
# Every run, set-up included, must end well inside 180 s.
RUN_DEADLINE_S = 165.0
# Metrics in these units are counts, which must repeat exactly between
# traced children (tree_set_calls, empirical_terms, trials, sample_points and
# jsonl_bytes among them).
COUNT_UNITS = ("count", "bytes")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class ReferenceKernel:
    """Fixed numpy work of the kinds the package does: interpolation at
    sample points, a weighted bincount and a sort. It is not the package's
    code, so a change to the package cannot change its time."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.random(2**15)
        self.grid = np.linspace(0.0, 1.0, 1025)
        self.values = rng.random(1025)
        self.bins = rng.integers(0, 4096, 2**15)

    def __call__(self) -> float:
        total = 0.0
        for _ in range(6):
            y = np.interp(self.x, self.grid, self.values)
            total += np.bincount(self.bins, weights=y, minlength=4096).sum() + np.sort(y)[0]
        return total

    def pace(self) -> float:
        """Seconds one call takes now on this process's CPU."""
        times = []
        for _ in range(PACE_REPEATS):
            t0 = _now()
            self()
            times.append(_now() - t0)
        return statistics.median(times)


def pin_to_fastest_cpu(kernel: ReferenceKernel) -> int:
    """Pin this process, and so its children, to the CPU with the best pace."""
    pace = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        pace[cpu] = kernel.pace()
    cpu = min(pace, key=pace.get)
    os.sched_setaffinity(0, {cpu})
    return cpu


class BenchError(Exception):
    """The run cannot produce a result: a child hung, or could not even import."""


class Runner:
    """Spawns children in a private work directory and reaps them with rusage."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.deadline = _now() + RUN_DEADLINE_S
        self.kernel = ReferenceKernel()
        self.cpu = pin_to_fastest_cpu(self.kernel)
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["BESOV_ROBUST_JOBS"] = "1"
        env["PYTHONHASHSEED"] = "0"  # fixed set order, so traced counts repeat exactly
        for var in THREAD_VARS:
            env[var] = "1"
        self.env = env

    def time_left(self) -> float:
        return self.deadline - _now()

    def spawn(self, args: list[str], log: Path) -> dict:
        """Run `python args...`; return wall/cpu/rss/exit code of the child,
        and the machine's pace around it."""
        pace_before = self.kernel.pace()
        with open(log, "wb") as fh:
            t0 = _now()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=self.work, env=self.env,
                stdout=fh, stderr=subprocess.STDOUT,
            )
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    ready, _, _ = select.select([pidfd], [], [], max(self.time_left(), 0.0))
                finally:
                    os.close(pidfd)
            except BaseException:  # interrupted or terminated: take the child down too
                proc.kill()
                proc.wait()
                raise
            if not ready:
                proc.kill()
            _, status, ru = os.wait4(proc.pid, 0)
            t1 = _now()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if not ready:
            raise BenchError(f"child {args[:2]} passed the run deadline")
        return {
            "pace_s": (pace_before + self.kernel.pace()) / 2,
            "spawned": t0,
            "wall_s": t1 - t0,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "peak_rss_mb": ru.ru_maxrss / 1024.0,
            "rc": proc.returncode,
        }

    def child(self, argv: list[str] | None, *, trace: bool = False, reload: str | None = None) -> dict:
        """One perfbench/child.py process; merges its own report into the record."""
        spec = self.work / "spec.json"
        result = self.work / "result.json"
        result.unlink(missing_ok=True)
        spec.write_text(json.dumps(
            {"argv": argv, "trace": trace, "reload": reload, "result": str(result)}
        ))
        rec = self.spawn([str(HERE / "child.py"), str(spec)], self.work / "child.log")
        if not result.is_file():
            rec["error"] = f"child exited {rec['rc']} without a report: " + self.log_tail()
            return rec
        report = json.loads(result.read_text())
        rec["setup_s"] = report["imported"] - rec["spawned"]
        if "run_end" in report:
            rec["run_s"] = report["run_end"] - report["run_start"]
        rec["report"] = report
        return rec

    def log_tail(self) -> str:
        text = (self.work / "child.log").read_text(errors="replace").strip()
        return text[-400:]


# -- output checks -------------------------------------------------------------


def _schema_of(path: Path) -> str | None:
    if path.suffix == ".json":
        return json.loads(path.read_text()).get("schema")
    with open(path) as fh:
        first = fh.readline().strip()
    if path.suffix == ".csv":
        return first[2:] if first.startswith("# ") else None
    if path.suffix == ".jsonl":
        header = json.loads(first)
        return header.get("format") if header.get("version") == 1 else None
    if path.suffix == ".svg":
        return "svg" if first.startswith("<svg") and path.read_text().rstrip().endswith("</svg>") else None
    return None


def check_artifacts(workload, out: Path, rc: int, seed: int) -> list[str]:
    """Problems with one run's artifacts and exit code; empty when all is well."""
    expected = ARTIFACTS[workload.command]
    found = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
    if found != sorted(expected):
        return [f"artifacts {found}, expected {sorted(expected)}"]
    problems = []
    for name, tag in expected.items():
        path = out / name
        if tag is None:
            if json.loads(path.read_text()).get("command") != workload.command:
                problems.append(f"{name} names another command")
        elif _schema_of(path) != tag:
            problems.append(f"{name} lacks its schema tag {tag}")
    if workload.command == "rate-check":
        verdict = json.loads((out / "verdict.json").read_text())["verdict"]
        want_rc = {"PASS": 0, "FAIL": 1}.get(verdict)
        if rc != want_rc:
            problems.append(f"exit code {rc} does not match verdict {verdict}")
        if seed == workload.default_seed and verdict != "PASS":
            problems.append(f"verdict {verdict} at the preset's own seed")
    elif rc != 0:
        problems.append(f"exit code {rc}")
    return problems


def artifact_hashes(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def samples_drawn(workload, out: Path) -> int:
    """Sample points the run drew, read from its own artifacts."""
    if workload.command == "estimate":
        return json.loads((out / "estimate.json").read_text())["n"]
    risk = json.loads((out / "risk.json").read_text())
    return sum(c["n"] * c["trials"] * len(c["truth_means"]) for c in risk["cells"])


def check_reloaded_tree(root: Path, out: Path, config_path: Path, seed: int) -> list[str]:
    """Reload coeffs.jsonl and recompute the IPM to the exact truth tree."""
    sys.path.insert(0, str(root / "src"))
    from besov_robust import cli
    from besov_robust.besov import besov_ipm
    from besov_robust.coefficients import CoefficientTree, exact_coeffs

    cfg = cli.build_config("estimate", config_path=str(config_path), overrides={"seed": seed})
    plan = cli.validate(cfg)
    est = plan.estimator_for(cfg.samples, cfg.eps)
    truth = exact_coeffs(plan.truths[0][1], plan.family, est.j1 + 2)
    tree = CoefficientTree.from_jsonl(out / "coeffs.jsonl")
    payload = json.loads((out / "estimate.json").read_text())
    problems = []
    if tree.n_coefficients != payload["stored_coefficients"]:
        problems.append(
            f"reloaded tree holds {tree.n_coefficients} coefficients, "
            f"estimate.json says {payload['stored_coefficients']}"
        )
    ipm = besov_ipm(tree, truth, plan.disc)
    if not math.isclose(ipm, payload["ipm_to_truth"], rel_tol=1e-12, abs_tol=1e-15):
        problems.append(f"reloaded IPM {ipm!r} != ipm_to_truth {payload['ipm_to_truth']!r}")
    return problems


class WorkloadRuns:
    """Runs one workload's children and checks each one's outputs."""

    def __init__(self, runner: Runner, workload, seed: int):
        self.runner = runner
        self.workload = workload
        self.seed = seed
        work = runner.work
        self.out = work / "out"
        self.first = work / "first"
        self.config_path = None
        if workload.config is not None:
            self.config_path = work / "workload-config.json"
            self.config_path.write_text(json.dumps(workload.config, indent=2))
        self.records: list[dict] = []
        self.reference: dict[str, str] | None = None
        self.reference_problems: list[str] = []

    def run(self, *, trace: bool = False) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        # Children run in the work directory, so the output path recorded in
        # config.json is "out" wherever the checkout is.
        argv = self.workload.argv(
            self.seed, self.out.name, self.config_path and str(self.config_path)
        )
        reload = str(self.out / "coeffs.jsonl") if self.workload.reload_tree else None
        rec = self.runner.child(argv, trace=trace, reload=reload)
        try:
            problems = [rec["error"]] if "error" in rec else self._check(rec)
        except (OSError, ValueError, KeyError) as err:
            problems = [f"unreadable artifacts: {err!r}"]
        rec["problems"] = problems
        self.records.append(rec)
        for p in problems:
            print(f"check failed ({self.workload.name}, run {len(self.records)}): {p}")
        return rec

    def _check(self, rec: dict) -> list[str]:
        problems = check_artifacts(self.workload, self.out, rec["rc"], self.seed)
        if problems:
            return problems
        hashes = artifact_hashes(self.out)
        if self.reference is None:
            # The first checked run's artifacts get the deep check; later runs
            # must match them byte for byte, and so share its verdict.
            self.out.rename(self.first)
            self.reference = hashes
            if self.workload.reload_tree:
                # stays the verdict if the check raises
                self.reference_problems = ["the reload check did not finish"]
                self.reference_problems = check_reloaded_tree(
                    self.runner.root, self.first, self.config_path, self.seed
                )
        if hashes != self.reference:
            return ["artifacts differ from the first run of this seed"]
        if self.reference_problems:
            return list(self.reference_problems)
        if self.workload.reload_tree:
            stored = json.loads((self.first / "estimate.json").read_text())["stored_coefficients"]
            if rec["report"]["reloaded_coefficients"] != stored:
                return ["the child's reload disagrees with estimate.json"]
        return []

    @property
    def good(self) -> list[dict]:
        return [r for r in self.records if not r["problems"]]

    def samples(self) -> int:
        return samples_drawn(self.workload, self.first)


# -- trace analysis ------------------------------------------------------------


class SpanTable:
    """Durations, self times and per-name totals of one traced child's spans."""

    def __init__(self, dump: dict):
        self.names = dump["names"]
        self.spans = dump["spans"]
        self.counts = Counter(dump["counts"])
        n = len(self.spans)
        self.dur = [end - start for _, _, start, end in self.spans]
        covered = [0.0] * n
        for i, (_, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                covered[parent] += self.dur[i]
        self.self_time = [self.dur[i] - covered[i] for i in range(n)]
        self.layer_self = defaultdict(float)
        for i, (nid, _, _, _) in enumerate(self.spans):
            self.layer_self[self.names[nid].split(".")[0]] += self.self_time[i]

    def _ids(self, names) -> set[int]:
        return {i for i, name in enumerate(self.names) if name in names}

    def total(self, *names: str) -> float:
        """Time inside calls to `names`, not counting such calls nested in one another."""
        ids = self._ids(names)
        inside = [False] * len(self.spans)
        total = 0.0
        for i, (nid, parent, _, _) in enumerate(self.spans):
            up = parent >= 0 and (inside[parent] or self.spans[parent][0] in ids)
            inside[i] = up
            if nid in ids and not up:
                total += self.dur[i]
        return total

    def calls(self, *names: str) -> int:
        ids = self._ids(names)
        return sum(1 for nid, _, _, _ in self.spans if nid in ids)

    def self_of(self, name: str) -> float:
        ids = self._ids((name,))
        return sum(self.self_time[i] for i, s in enumerate(self.spans) if s[0] in ids)

    def durations(self, name: str) -> list[float]:
        ids = self._ids((name,))
        return [self.dur[i] for i, s in enumerate(self.spans) if s[0] in ids]


def layer_metrics(table: SpanTable) -> dict[str, tuple[float, str]]:
    c = table.counts
    eval_names = ("wavelets.WaveletFamily.father_values", "wavelets.WaveletFamily.mother_values")
    empirical_s = table.total("coefficients.empirical_coeffs")
    terms = c["coefficients.empirical_terms"]
    tasks = table.durations("harness.risk_trials")
    m = {
        "wavelets.eval_s": (table.total(*eval_names), "s"),
        "wavelets.eval_calls": (table.calls(*eval_names), "count"),
        "wavelets.eval_points": (c["wavelets.eval_points"], "count"),
        "wavelets.family_build_s": (table.total("wavelets.wavelet_family"), "s"),
        "coefficients.empirical_s": (empirical_s, "s"),
        "coefficients.empirical_calls": (table.calls("coefficients.empirical_coeffs"), "count"),
        "coefficients.empirical_terms": (terms, "count"),
        "coefficients.empirical_ns_per_term": (empirical_s * 1e9 / terms if terms else 0.0, "ns"),
        "coefficients.tree_set_calls": (c["coefficients.tree_set_calls"], "count"),
        "coefficients.stored_coeffs": (c["coefficients.stored_coeffs"], "count"),
        "coefficients.tree_axpy_s": (table.total("coefficients.tree_axpy"), "s"),
        "coefficients.exact_s": (table.total("coefficients.exact_coeffs"), "s"),
        "coefficients.exact_calls": (table.calls("coefficients.exact_coeffs"), "count"),
        "coefficients.to_jsonl_s": (table.total("coefficients.CoefficientTree.to_jsonl"), "s"),
        "coefficients.from_jsonl_s": (table.total("coefficients.CoefficientTree.from_jsonl"), "s"),
        "coefficients.jsonl_bytes": (c["coefficients.jsonl_bytes"], "bytes"),
        "contamination.sample_huber_s": (table.total("contamination.sample_huber"), "s"),
        "contamination.sample_points": (c["contamination.sample_points"], "count"),
        "estimators.estimate_s": (table.total(
            "estimators.estimate_linear", "estimators.estimate_thresholded",
            "estimators.estimate_adaptive",
        ), "s"),
        "estimators.kept_ratio": (
            c["estimators.kept_coeffs"] / c["coefficients.empirical_coeffs"]
            if c["coefficients.empirical_coeffs"] else 0.0, "ratio",
        ),
        "besov.ipm_s": (table.total("besov.besov_ipm"), "s"),
        "besov.ipm_self_s": (table.self_of("besov.besov_ipm"), "s"),
        "besov.ipm_calls": (table.calls("besov.besov_ipm"), "count"),
        "harness.sweep_s": (table.total("harness.run_sweep"), "s"),
        "harness.tasks": (len(tasks), "count"),
        "harness.trials": (c["harness.trials"], "count"),
        "harness.task_max_share": (max(tasks) / sum(tasks) if tasks else 0.0, "ratio"),
        "cli.validate_s": (table.total("cli.validate"), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (table.layer_self[layer], "s")
    return m


def import_breakdown(runner: Runner) -> dict[str, float]:
    """Seconds for scipy.stats, numpy and the package's own modules at import."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        log = runner.work / "importtime.log"
        rec = runner.spawn(["-X", "importtime", "-c", "import besov_robust.cli"], log)
        if rec["rc"] != 0:
            raise BenchError("importing besov_robust.cli failed: " + log.read_text()[-400:])
        found = {"scipy_stats_s": 0.0, "numpy_s": 0.0, "besov_robust_self_s": 0.0}
        for line in log.read_text().splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            try:
                self_us, cum_us = int(fields[0]), int(fields[1])
            except ValueError:
                continue  # the column header
            mod = fields[2].strip()
            if mod == "scipy.stats":
                found["scipy_stats_s"] = cum_us / 1e6
            elif mod == "numpy":
                found["numpy_s"] = cum_us / 1e6
            elif mod.split(".")[0] == "besov_robust":
                found["besov_robust_self_s"] += self_us / 1e6
        runs.append(found)
    return {f"cli.import.{k}": statistics.median(r[k] for r in runs) for k in runs[0]}


def level_profile(runner: Runner, seed: int) -> dict[str, float]:
    out = runner.work / "levels.json"
    rec = runner.spawn([str(HERE / "levels.py"), str(seed), str(out)], runner.work / "levels.log")
    if rec["rc"] != 0:
        raise BenchError("level profile failed: " + (runner.work / "levels.log").read_text()[-400:])
    return json.loads(out.read_text())


# -- the two kinds of run ------------------------------------------------------


def import_only(runner: Runner) -> dict:
    """One child that only imports the CLI."""
    rec = runner.child(None)
    if "error" in rec:
        raise BenchError(rec["error"])
    return rec


def at_nominal_pace(recs: list[dict], key: str) -> float:
    """Mean `key` seconds of the children, rescaled from the mean pace
    measured around them to NOMINAL_PACE_S."""
    return NOMINAL_PACE_S * sum(r[key] for r in recs) / sum(r["pace_s"] for r in recs)


def timed_run(runner: Runner, runs: WorkloadRuns, seconds: float) -> dict:
    import_only(runner)  # warm-up: byte-compiles the package and fills the file cache
    setups = [import_only(runner) for _ in range(SETUP_REPEATS)]
    t_start = _now()
    while True:
        rec = runs.run()
        elapsed = _now() - t_start
        if len(runs.records) >= MIN_CHILDREN and elapsed + rec["wall_s"] > seconds:
            break
        if runner.time_left() < 2 * rec["wall_s"] + 10:
            break
    good = runs.good
    if not good:
        return {}
    setups += good
    for name, recs in (("pace_s", setups), ("setup_s", setups), ("wall_s", good),
                       ("run_s", good), ("cpu_s", good), ("peak_rss_mb", good)):
        print(f"measured {name} (n={len(recs)}): " + " ".join(f"{r[name]:.6g}" for r in recs))
    # Timings: the children's means at the nominal pace, which takes out
    # the machine's own swings in speed; memory: the median child.
    return {
        "setup_s": (at_nominal_pace(setups, "setup_s"), "s"),
        "wall_s": (at_nominal_pace(good, "wall_s"), "s"),
        "samples_per_s": (runs.samples() / at_nominal_pace(good, "run_s"), "1/s"),
        "cpu_s": (at_nominal_pace(good, "cpu_s"), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in good), "MB"),
    }


def traced_run(runner: Runner, runs: WorkloadRuns, seed: int) -> tuple[dict, list[str]]:
    import_only(runner)  # warm-up
    metrics = {k: (v, "s") for k, v in import_breakdown(runner).items()}
    untraced, traced = [], []
    for _ in range(TRACED_CHILDREN):  # alternate, so drift hits both sides alike
        untraced.append(runs.run())
        traced.append(runs.run(trace=True))
    if runs.reference is None or not all("run_s" in r for r in runs.records):
        return {}, []  # nothing ran to completion with checkable artifacts
    tables = [SpanTable(r["report"]["trace"]) for r in traced]
    per_child = [layer_metrics(t) for t in tables]
    problems = []
    for key, (value, unit) in per_child[0].items():
        values = [m[key][0] for m in per_child]
        if unit in COUNT_UNITS:
            if any(v != value for v in values):
                problems.append(f"{key} differs between traced runs: {values}")
            metrics[key] = (value, unit)
        else:
            metrics[key] = (statistics.median(values), unit)
    if metrics["contamination.sample_points"][0] != runs.samples():
        problems.append("contamination.sample_points disagrees with the artifacts")
    med = lambda recs, key: statistics.median(r[key] for r in recs)  # noqa: E731
    metrics["cli.artifact_bytes"] = (sum(p.stat().st_size for p in runs.first.iterdir()), "bytes")
    metrics["trace_overhead_s"] = (med(traced, "wall_s") - med(untraced, "wall_s"), "s")
    metrics["trace.run_s"] = (med(traced, "run_s"), "s")
    metrics["trace.untraced_run_s"] = (med(untraced, "run_s"), "s")
    metrics["trace.self_sum_s"] = (statistics.median(sum(t.layer_self.values()) for t in tables), "s")
    metrics.update({k: (v, "s") for k, v in level_profile(runner, seed).items()})
    return metrics, problems


def environment(runner: Runner) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpu": runner.cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "pinned": {var: runner.env[var] for var in ("BESOV_ROBUST_JOBS",) + THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="workload seed (default: the preset's)")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so running children are killed and the
    # work directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "besov_robust" / "cli.py").is_file():
        print("perfbench: run from a checkout root holding src/besov_robust", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    work = root / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        runner = Runner(root, work)
        print("env: " + json.dumps(environment(runner), sort_keys=True))
        print(f"workload {workload.name}, seed {seed}, trace {args.trace}")
        runs = WorkloadRuns(runner, workload, seed)
        try:
            if args.trace:
                metrics, problems = traced_run(runner, runs, seed)
            else:
                metrics, problems = timed_run(runner, runs, args.seconds), []
        except BenchError as err:
            print(f"perfbench: {err}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for p in problems:
        print(f"check failed: {p}")
    if not metrics:
        print("perfbench: no workload run completed its output check", file=sys.stderr)
        return 1
    attempted = len(runs.records)
    failed = attempted - len(runs.good)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"fail_rate: {failed / attempted:.6g} ({failed} of {attempted} runs)")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
