"""The benchmark's workloads and the artifacts each one must leave behind.

Every workload is one `besov-robust` CLI command run closed loop: one
process, one command at a time, with `BESOV_ROBUST_JOBS=1`. The three were
chosen so that each loads a different layer (see README.md):

- `rate-n-db3` spends most of its time in the empirical wavelet transform,
  on tiny trees;
- `estimate-2d-io` is the only D=2 workload and the only one that writes
  and reads the on-disk tree format, so per-coefficient tree work dominates;
- `eps-rate-haar` is dominated by sampling and by the import, with a
  trivial transform.
"""

from __future__ import annotations

from dataclasses import dataclass

ESTIMATE_2D_CONFIG = {
    "command": "estimate",
    "family": "db2",
    "dim": 2,
    "gen": [1.0, "inf", "inf", 2.0],
    "disc": "tv",
    "truth": "dyadic-pwc",
    "contamination": {
        "mode": "structured",
        "g": {"kind": "piecewise", "values": [[2.0, 0.0], [0.0, 2.0]], "scale_level": 1},
    },
    "estimator": {
        "kind": "thresholded", "schedule": "fixed", "j0": 3, "j1": 7, "K": 0.5, "rescale": True,
    },
    "eps": 0.05,
    "samples": 2**16,
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    preset: str | None
    config: dict | None
    default_seed: int
    reload_tree: bool = False

    def argv(self, seed: int, out: str, config_path: str | None) -> list[str]:
        """CLI arguments for one run; `config_path` is where `config` was written."""
        src = ["--preset", self.preset] if self.preset else ["--config", config_path]
        return [self.command, *src, "--seed", str(seed), "--out", out]


WORKLOADS = {
    w.name: w
    for w in (
        # db3, D=1, linear estimator, 7 n-cells x 3 truths x 50 trials.
        Workload("rate-n-db3", "rate-check", "holder1-tv-uncontaminated", None, 7),
        # db2, D=2, thresholded j0=3..j1=7 at n=2^16, then a reload of coeffs.jsonl.
        Workload("estimate-2d-io", "estimate", None, ESTIMATE_2D_CONFIG, 5, reload_tree=True),
        # Haar, j1=0, n=2^14, 8 eps x 50 trials.
        Workload("eps-rate-haar", "rate-check", "structured-eps-rate", None, 20240817),
    )
}

# Artifact name -> documented schema tag; None marks config.json, which
# carries the merged configuration instead of a tag.
ARTIFACTS = {
    "rate-check": {
        "config.json": None,
        "risk.json": "besov-robust-risk/1",
        "cells.csv": "besov-robust-cells/1",
        "trials.csv": "besov-robust-trials/1",
        "verdict.json": "besov-robust-verdict/1",
        "rate.svg": "svg",
    },
    "estimate": {
        "config.json": None,
        "estimate.json": "besov-robust-estimate/1",
        "coeffs.jsonl": "besov-robust-tree",
    },
}
