"""Sharded engine scaling: wall-clock packets/second vs worker count.

Measures the P4 composition on the exact-heavy routable workload (every
packet stays on the indexed table fast path) at 1, 2 and 4 workers
against the single-process inline ``soak_program`` baseline, and writes
``BENCH_engine_scaling.json`` at the repo root.

One throughput figure is reported per worker count:
``wall_pkts_per_sec`` — total packets over the wall-clock time of one
``WorkerPool.submit`` (send the compiled pipeline to the workers,
generate the stream once in the parent, feed the shards over
shared-memory rings, collect every result), best of ``TRIALS``.  It is
the rate a user actually observes.
There is deliberately no modelled "one core per replica" figure: a pool
worker's ``elapsed_s`` includes time blocked on its ring, so dividing
by it does not isolate compute, and a number nobody can observe is not
a gate.

The JSON opens with the host it was measured on (hostname, core count,
scheduler affinity, Python version), the execution backend, the packet
count and whether this was a quick run, so the wall numbers can be read
for what they are: on a host with fewer free cores than workers the
replicas timeshare and the curve is flat.

On a host with >= 2 cores the 2-worker wall rate must beat the
single-process baseline.  On a 1-core runner no multiprocess
configuration can beat a single process (the work is CPU bound and
timeshared), so the ratio is recorded and not asserted.

Set ``BENCH_ENGINE_QUICK=1`` for a fast smoke run (CI).
"""

import json
import os
import platform
import socket
from pathlib import Path

import pytest

from repro.targets.engine import EngineConfig, run_sharded_program
from repro.targets.soak import SoakConfig, soak_program

QUICK = os.environ.get("BENCH_ENGINE_QUICK") == "1"
PACKETS = 2_000 if QUICK else 20_000
WORKER_COUNTS = (1, 2, 4)
#: Wall-clock trials at each worker count; best-of damps scheduler noise
#: (the workload is fixed, so slower runs are interference, not signal).
#: A quick run lasts well under a second, so one descheduling is a large
#: share of it; it gets more trials, which are cheap at that size.
TRIALS = 5 if QUICK else 2
OUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_engine_scaling.json"

RESULTS = {}


def config() -> SoakConfig:
    # Fault-free routable traffic: every packet exercises the exact/lpm
    # indexed lookup path end to end, nothing is randomly mutated, so
    # the measurement isolates pipeline execution cost.
    return SoakConfig(
        programs=["P4"],
        packets=PACKETS,
        seed=4242,
        fault_rate=0.0,
        traffic="routable",
    )


def _engine(workers: int) -> EngineConfig:
    # Round-robin keeps the shards balanced, so the curve is not skewed
    # by an unlucky flow-hash split.
    return EngineConfig(workers=workers, shard_policy="round-robin")


def _affinity():
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return None


@pytest.fixture(scope="module", autouse=True)
def write_results():
    yield
    payload = {
        "bench": "engine_scaling",
        "host": {
            "hostname": socket.gethostname(),
            "cpu_count": os.cpu_count(),
            "sched_getaffinity": _affinity(),
            "python": platform.python_version(),
        },
        "exec": config().exec_backend,
        "packets": PACKETS,
        "quick": QUICK,
        "program": "P4",
        "traffic": "routable",
        "shard_policy": "round-robin",
        "wall_trials": TRIALS,
        "results": RESULTS,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def test_single_process_baseline():
    block = soak_program(config(), "P4")
    assert block["ledger_ok"] and not block["uncaught"]
    RESULTS["baseline"] = {
        "pkts_per_sec": block["pkts_per_sec"],
        "emits": block["emits"],
        "drops": block["drops"],
        "digest": block["digest"],
    }


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_engine_workers(workers):
    best = None
    for _ in range(TRIALS):
        block = run_sharded_program(config(), "P4", _engine(workers))
        assert block["ledger_ok"] and not block["uncaught"]
        if best is not None:
            # Same (seed, workers, shard_policy): same digest, every run.
            assert block["digest"] == best["digest"]
        if best is None or block["pkts_per_sec"] > best["pkts_per_sec"]:
            best = block
    RESULTS[f"workers_{workers}"] = {
        "wall_pkts_per_sec": best["pkts_per_sec"],
        "digest": best["digest"],
        "shard_packets": [s["packets"] for s in best["shards"]],
    }


def test_dispatch_wall_clock_not_a_regression():
    """The regression this benchmark exists to catch: sharding once made
    wall-clock *worse* than no engine at all, because every worker redid
    the whole stream.  With >= 2 cores, the 2-worker pool must beat the
    single-process baseline outright; on a 1-core runner the ratio is
    recorded only."""
    baseline = RESULTS["baseline"]["pkts_per_sec"]
    dispatch = RESULTS["workers_2"]["wall_pkts_per_sec"]
    RESULTS["wall_check"] = {
        "cpu_count": os.cpu_count(),
        "dispatch_vs_baseline": (
            round(dispatch / baseline, 3) if baseline else None
        ),
    }
    if (os.cpu_count() or 1) >= 2:
        assert dispatch >= baseline, RESULTS


def test_sharded_totals_match_baseline():
    """Scaling must not change behavior: the 4-worker merged totals
    equal the single-process run exactly."""
    merged = run_sharded_program(config(), "P4", _engine(4))
    assert merged["emits"] == RESULTS["baseline"]["emits"]
    assert merged["drops"] == RESULTS["baseline"]["drops"]
    assert merged["digest"] == RESULTS["workers_4"]["digest"]
