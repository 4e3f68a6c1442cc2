"""Run the repo benchmark.

``python3 bench/run.py`` (or ``PYTHONPATH=src python -m bench.run``)
runs all five workloads, three fresh child processes each, then one
traced run, and prints every metric by name with its unit.

``--workload NAME --seed N --seconds S --trace 0|1`` is the driver's
contract (see ``BENCHMARK.json``): one workload, repeated in fresh
children until ``S`` seconds have been measured, last line of standard
output one JSON object; ``--trace 1`` makes the traced run instead.

``--smoke`` runs everything at 1/50 scale and validates the output
against the names ``BENCHMARK.json`` declares.

This process never imports ``repro``: every measurement happens in a
child it starts (closed loop, one generator process per workload), so
set-up time can include interpreter start and imports.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import math
import os
import platform
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: Common factor on every reference packet count in bench/workloads.py,
#: chosen so that 4 + 22 x 5 driver runs fit the contract's time cap.
SCALE = 0.1
SMOKE_SCALE = 0.02
REPS = 3
CHECK_PACKETS = 2000
CHILD_TIMEOUT_S = 170

#: Everything a child writes (bytecode aside) goes under here.
BUILD_DIR = ROOT / ".bench_build"


class BenchError(RuntimeError):
    pass


def build() -> None:
    """The program is Python: "building" is checking it is there and
    byte-compiling it, so no child pays for that inside ``setup_s``."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing")
    for tree in (ROOT / "src", ROOT / "bench"):
        compileall.compile_dir(str(tree), quiet=2)


def start_child(spec: dict) -> Tuple[subprocess.Popen, Path]:
    """Start a fresh interpreter with its own empty codegen cache
    directory inside the checkout: every child starts cold, and nothing
    is written outside."""
    cache = BUILD_DIR / f"codegen-cache-{os.getpid()}-{time.monotonic_ns()}"
    cache.mkdir(parents=True)
    env = dict(
        os.environ,
        PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT}",
        REPRO_CODEGEN_CACHE_DIR=str(cache),
    )
    spec = dict(spec, t_spawn=time.monotonic())
    child = subprocess.Popen(
        [sys.executable, "-m", "bench.child", json.dumps(spec)],
        cwd=ROOT, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    return child, cache


def finish_child(started: Tuple[subprocess.Popen, Path]) -> dict:
    child, cache = started
    try:
        out, err = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise BenchError(f"child exceeded {CHILD_TIMEOUT_S}s: {child.args[-1]}")
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    if child.returncode != 0:
        raise BenchError(
            f"child exited {child.returncode}: {child.args[-1]}\n{err[-2000:]}"
        )
    return json.loads(out.strip().splitlines()[-1])


def spawn(spec: dict) -> dict:
    return finish_child(start_child(spec))


# ----------------------------------------------------------------------
# One workload: R fresh children, then the check-run
# ----------------------------------------------------------------------
def best_rate(rates: List[float]) -> float:
    """Mean of the highest third of the samples (at least one)."""
    return statistics.mean(sorted(rates)[-max(1, len(rates) // 3):])


def summarize(per_child: List[List[float]], pick) -> dict:
    """One metric over a workload's children.  ``value`` is what is
    reported and bounded: ``pick`` over every sample - ``best_rate`` for
    rates, ``min`` for set-up time, the median for memory.  Interference
    on a shared host comes in bursts that only ever slow a sample down,
    so the best samples are the steadiest estimate of the program's own
    speed (README, "Why the best samples").  ``per_child`` keeps each
    child's own pick so a reader can see whether the children agree."""
    samples = [value for child in per_child for value in child]
    return {
        "value": pick(samples),
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "per_child": [pick(child) for child in per_child if child],
        "samples": samples,
    }


def run_workload(
    name: str, seed: int, scale: float, seconds: float, min_reps: int = 1
) -> dict:
    """``REPS`` fresh children, one after another; each sets up once
    and repeats whole fixed-size timed calls for its share of
    ``seconds`` (at least two).  A child that alone measured longer than
    ``seconds`` - one cold catalog pass does - is the last one, unless
    ``min_reps`` asks for more."""
    spec = {"mode": "run", "workload": name, "seed": seed, "scale": scale,
            "budget_s": seconds / REPS}
    runs: List[dict] = []
    while len(runs) < min_reps or (
        len(runs) < REPS and runs[-1]["timed_s"] < seconds
    ):
        runs.append(spawn(spec))
        if "unavailable" in runs[0]:
            # Never silently run a vector workload on another backend.
            return {"attempted": runs[0]["ops"], "failed": runs[0]["ops"],
                    "reps": 0, "metrics": {}, "reasons": [runs[0]["unavailable"]]}
    first = runs[0]
    setups = [run["setup_s"] for run in runs]
    while name == "compile-catalog" and len(setups) < REPS:
        # A cold pass is too long to repeat; its set-up (imports only)
        # is not, so sample that again in import-only children.
        setups.append(spawn({"mode": "imports"})["setup_s"])

    attempted = sum(run["ops"] for run in runs)
    failed = 0
    reasons: List[str] = []
    for index, run in enumerate(runs):
        bad = run["failed"]
        if run["digest"] != first["digest"]:
            bad = run["ops"]
            reasons.append(f"repetition {index + 1} digest differs from repetition 1")
        failed += bad
        reasons += run["reasons"]
    if name != "compile-catalog":
        packets = max(64, int(CHECK_PACKETS * min(1.0, scale / SCALE)))
        check = spawn({"mode": "check", "workload": name, "seed": seed,
                       "packets": packets})
        attempted += check["ops"]
        reasons += check["reasons"]
        if check["failed"]:
            failed = attempted  # the reference disagrees: nothing counts

    metrics = {
        "ops_per_s": summarize([run["rates"] for run in runs], best_rate),
        "setup_s": summarize([[setup] for setup in setups], min),
        "peak_rss_mb": summarize(
            [[run["peak_rss_mb"]] for run in runs], statistics.median
        ),
    }
    # The same numbers under the names a user of that workload knows.
    native = {}
    if name == "compile-catalog":
        native["catalog_compile_s"] = summarize([[run["timed_s"]] for run in runs], min)
    else:
        native["pkts_per_s"] = metrics["ops_per_s"]
    if name == "table-churn":
        native["readonly_pkts_per_s"] = summarize(
            [run["readonly_rates"] for run in runs], best_rate
        )
    return {
        "attempted": attempted, "failed": failed, "reasons": reasons,
        "reps": len(runs), "timed_calls": sum(len(run["rates"]) for run in runs),
        "timed_s": sum(run["timed_s"] for run in runs),
        "metrics": metrics, "native": native,
    }


# ----------------------------------------------------------------------
# Header: enough to never compare numbers from different hosts raw
# ----------------------------------------------------------------------
def host_speed_index() -> float:
    """Seconds for a fixed pure-Python spin loop (best of 3)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(2_000_000):
            total += i & 7
        best = min(best, time.perf_counter() - start)
    return best


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def header(seed: int, scale: float) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "hostname": socket.gethostname(),
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy,
        "git_commit": git_commit(),
        "seed": seed,
        "scale": scale,
        "loadavg_1min": os.getloadavg()[0],
        "host_speed_index_s": host_speed_index(),
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
_NATIVE_UNITS = {"pkts_per_s": "1/s", "readonly_pkts_per_s": "1/s",
                 "catalog_compile_s": "s"}


def print_workload(name: str, result: dict) -> None:
    print(f"\n{name}: {result['reps']} fresh children, "
          f"{result.get('timed_calls', 0)} timed calls in {result.get('timed_s', 0):.1f} s, "
          f"{result['failed']}/{result['attempted']} operations failed")
    for reason in result["reasons"]:
        print(f"  ! {reason}")
    for metric, row in {**result["metrics"], **result.get("native", {})}.items():
        unit = END_TO_END[metric]["unit"] if metric in END_TO_END else _NATIVE_UNITS[metric]
        print(f"  {metric:<22} {row['value']:>14.4f} {unit:<6} "
              f"(median {row['median']:.4f}, min {row['min']:.4f}, "
              f"max {row['max']:.4f}, n={len(row['samples'])})")


def print_layers(trace: dict) -> None:
    print(f"\nper-layer (traced run, {trace['failed']}/{trace['attempted']} "
          f"checked operations failed, {trace['traced_s']:.1f} s)")
    for reason in trace["reasons"]:
        print(f"  ! {reason}")
    for metric, value in sorted(trace["metrics"].items()):
        unit = PER_LAYER[metric]["unit"] if metric in PER_LAYER else "?"
        print(f"  {metric:<46} {value:>16.4f} {unit}")


def validate(workloads: Dict[str, dict], trace: dict) -> List[str]:
    """Every declared metric present, no undeclared one, all finite."""
    problems = []
    for name, result in workloads.items():
        got = result["metrics"]
        for metric in sorted(set(END_TO_END) ^ set(got)):
            problems.append(f"{name}: end-to-end metric {metric!r} "
                            f"{'missing' if metric in END_TO_END else 'undeclared'}")
        for metric, row in got.items():
            if not math.isfinite(row["value"]) or row["value"] == 0:
                problems.append(f"{name}: {metric} = {row['value']}")
    for metric in sorted(set(PER_LAYER) ^ set(trace["metrics"])):
        problems.append(f"per-layer metric {metric!r} "
                        f"{'missing' if metric in PER_LAYER else 'undeclared'}")
    for metric, value in trace["metrics"].items():
        if not math.isfinite(value):
            problems.append(f"per-layer {metric} = {value}")
    return problems


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def contract(args) -> int:
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    print(json.dumps({"header": header(args.seed, SCALE)}))
    if args.trace:
        trace = spawn({"mode": "trace", "seed": args.seed, "scale": SCALE,
                       "golden": True})
        print_layers(trace)
        attempted, failed = trace["attempted"], trace["failed"]
        metrics = {
            name: {"value": value, "unit": PER_LAYER[name]["unit"]}
            for name, value in trace["metrics"].items()
        }
    else:
        result = run_workload(args.workload, args.seed, SCALE, args.seconds)
        print_workload(args.workload, result)
        attempted, failed = result["attempted"], result["failed"]
        metrics = {
            name: {"value": row["value"], "unit": END_TO_END[name]["unit"]}
            for name, row in result["metrics"].items()
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if metrics else 1


def everything(args) -> int:
    scale = SMOKE_SCALE if args.smoke else SCALE
    # Smoke: one child, one timed call per workload.
    seconds, min_reps = (0.0, 1) if args.smoke else (args.seconds, REPS)
    head = header(args.seed, scale)
    print("header:")
    for key, value in head.items():
        print(f"  {key}: {value}")
    # Smoke validates the harness, not the numbers: let the traced run
    # share the machine with the workloads so it ends within a minute.
    pending = None
    trace_spec = {"mode": "trace", "seed": args.seed, "scale": scale,
                  "golden": not args.smoke}
    if args.smoke:
        pending = start_child(trace_spec)
    workloads = {}
    try:
        for name in WORKLOADS:
            workloads[name] = run_workload(name, args.seed, scale, seconds, min_reps)
            print_workload(name, workloads[name])
    except BaseException:
        if pending is not None:
            child, cache = pending
            child.kill()
            child.communicate()
            shutil.rmtree(cache, ignore_errors=True)
        raise
    trace = finish_child(pending) if pending is not None else spawn(trace_spec)
    print_layers(trace)
    for name in ("sharded-routable", "sharded-hostile"):
        predicted = trace["metrics"].get(f"trace.predicted_pkts_per_s.{name}")
        if predicted is not None and workloads[name]["metrics"]:
            measured = workloads[name]["metrics"]["ops_per_s"]["value"]
            print(f"  {name}: predicted {predicted:.0f} pkts/s from the layer rows, "
                  f"measured {measured:.0f} pkts/s end to end")
    head["workloads"] = {
        name: {"reps": r["reps"], "timed_calls": r.get("timed_calls", 0),
               "attempted": r["attempted"]}
        for name, r in workloads.items()
    }
    document = {"header": head, "workloads": workloads, "per_layer": trace}
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    problems = validate(workloads, trace)
    for problem in problems:
        print(f"invalid: {problem}")
    failed = trace["failed"] + sum(r["failed"] for r in workloads.values())
    print(f"\n{'FAILED' if failed or problems else 'ok'}: "
          f"{failed} failed operations, {len(problems)} schema problems")
    return 1 if failed or problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (driver contract)")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="seconds to measure per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 makes the traced run instead")
    parser.add_argument("--smoke", action="store_true",
                        help="everything at 1/50 scale, validated against BENCHMARK.json")
    parser.add_argument("--out", help="write the full result document here (JSON)")
    args = parser.parse_args(argv)
    try:
        build()
        return contract(args) if args.workload else everything(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            BUILD_DIR.rmdir()  # each child's cache directory is already gone
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
