"""Entry point of every fresh child process.

``python -m bench.child '<json spec>'`` runs one repetition of one
workload (``mode: run``), one workload's check-run (``mode: check``),
the traced run (``mode: trace``) or nothing beyond the imports (``mode:
imports``, one more set-up sample for ``compile-catalog``) and prints
one JSON object as its last line.  The spec carries ``t_spawn``, the parent's monotonic clock when
it started this process, so set-up time includes interpreter start and
imports.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv) -> int:
    spec = json.loads(argv[1])
    from bench import workloads  # imports repro: part of measured set-up

    if spec["mode"] == "run":
        result = workloads.run_workload(
            spec["workload"], spec["seed"], spec["scale"], spec["budget_s"],
            spec["t_spawn"],
        )
    elif spec["mode"] == "imports":
        result = {"setup_s": time.monotonic() - spec["t_spawn"]}
    elif spec["mode"] == "check":
        result = workloads.check_workload(
            spec["workload"], spec["seed"], spec["packets"]
        )
    else:
        from bench import layers

        result = layers.traced_run(spec["seed"], spec["scale"], spec["golden"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
