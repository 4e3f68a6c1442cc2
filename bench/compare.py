"""Compare two result documents written by ``bench/run.py --out``.

``python -m bench.compare A.json B.json`` prints, per workload and
end-to-end metric, both values, the relative difference (B against A),
the bound ``BENCHMARK.json`` fixes and a verdict:

* ``regressed``  - B's value is worse than A's by more than the bound;
* ``unresolved`` - on either side the two best children disagree by more
  than the bound (the host was too noisy to tell), and B's children are
  not all better than A's;
* ``ok``         - otherwise.

Exact-count layer metrics that differ are listed as ``changed``.  Exit
status 1 on any ``regressed`` metric or any rise in the failed share.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def disagreement(row: dict, better: str) -> float:
    """Is the reported value reproducible inside one document?  The gap
    between the two best children, over the reported value (the
    estimators pick the best samples, so a slow third child says
    nothing; a lone good one does)."""
    ranked = sorted(row["per_child"], reverse=better == "higher")
    return abs(ranked[0] - ranked[1]) / row["value"] if len(ranked) > 1 else 0.0


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    sign = 1 if better == "lower" else -1
    if sign * (b["value"] - a["value"]) / a["value"] > bound:
        return "regressed"
    all_better = (
        max(b["per_child"]) < min(a["per_child"]) if better == "lower"
        else min(b["per_child"]) > max(a["per_child"])
    )
    if max(disagreement(a, better), disagreement(b, better)) > bound and not all_better:
        return "unresolved"
    return "ok"


def failed_share(result: dict) -> float:
    return result["failed"] / result["attempted"]


def compare(a: dict, b: dict) -> int:
    status = 0
    for key in ("hostname", "nproc", "python", "numpy", "git_commit", "seed",
                "scale", "host_speed_index_s"):
        print(f"{key:<20} A={a['header'].get(key)}  B={b['header'].get(key)}")
    print(f"\n{'workload':<18} {'metric':<12} {'A':>14} {'B':>14} "
          f"{'B vs A':>8} {'bound':>6}  verdict")
    for workload in SPEC["workloads"]:
        name = workload["name"]
        left, right = a["workloads"][name], b["workloads"][name]
        for metric in SPEC["end_to_end"]:
            x, y = left["metrics"].get(metric["name"]), right["metrics"].get(metric["name"])
            if x is None or y is None:
                print(f"{name:<18} {metric['name']:<12} missing on "
                      f"{'A' if x is None else 'B'}")
                status = 1
                continue
            outcome = verdict(x, y, metric["better"], metric["bound"])
            status |= outcome == "regressed"
            print(f"{name:<18} {metric['name']:<12} {x['value']:>14.4f} "
                  f"{y['value']:>14.4f} {(y['value'] - x['value']) / x['value']:>+8.1%} "
                  f"{metric['bound']:>6.0%}  {outcome}")
        if failed_share(right) > failed_share(left):
            print(f"{name:<18} failed share rose: {failed_share(left):.2%} -> "
                  f"{failed_share(right):.2%}")
            status = 1
    if failed_share(b["per_layer"]) > failed_share(a["per_layer"]):
        print("traced run: failed share rose")
        status = 1
    for metric in SPEC["per_layer"]:
        if metric["unit"] != "count":
            continue
        x = a["per_layer"]["metrics"].get(metric["name"])
        y = b["per_layer"]["metrics"].get(metric["name"])
        if x != y:
            print(f"changed: {metric['name']} {x} -> {y}")
    return status


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    documents = [json.loads(Path(path).read_text()) for path in argv[1:]]
    return compare(*documents)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
