"""One measured process: import the CLI, optionally trace, run one command.

Usage: python3 perfbench/child.py SPEC.json

The spec (written by run.py) holds `argv` for `besov_robust.cli.main`, or
null to stop after the import, plus `trace`, `reload` (a coeffs.jsonl to
read back with `CoefficientTree.from_jsonl` after the command) and `result`,
the file this process writes its timestamps, exit code and trace into.
Timestamps use CLOCK_MONOTONIC, which the parent reads too, so the parent
can take the spawn-to-import time as set-up.
"""

import json
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    import besov_robust
    import besov_robust.cli

    out = {"imported": _now()}
    rc = 0
    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(besov_robust)
        out["run_start"] = _now()
        rc = besov_robust.cli.main(spec["argv"])
        if spec["reload"]:
            from besov_robust.coefficients import CoefficientTree

            out["reloaded_coefficients"] = CoefficientTree.from_jsonl(spec["reload"]).n_coefficients
        out["run_end"] = _now()
        if tracer is not None:
            out["trace"] = tracer.dump()
    out["rc"] = rc
    with open(spec["result"], "w") as fh:
        json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
