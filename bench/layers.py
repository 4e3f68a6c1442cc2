"""The traced run: per-layer numbers, measured from outside.

One fresh child runs :func:`traced_run`.  Every number is a span (or a
count read from ``METRICS.snapshot()``) recorded around public calls
into one ``repro`` module; the layer is the module's name.  Per-packet
figures are microseconds per packet over a fixed seeded sample of the
workload's own stream.  The end-to-end metrics are never taken from this
run: it exists to say which layer a change in them came from.
"""

from __future__ import annotations

import hashlib
import os
import struct
import time
from typing import Dict, List, Tuple

from repro.net.packet import Packet
from repro.lib.catalog import PROGRAMS
from repro.obs.metrics import collecting
from repro.targets.backends import EXEC_BACKENDS
from repro.targets.engine import EngineConfig, assign_shard
from repro.targets.faults import FaultPlan
from repro.targets.pool import WorkerPool
from repro.targets.ring import ShardRing
from repro.targets.soak import (
    NUM_PORTS,
    SoakConfig,
    build_switch,
    compose_program,
    iter_stream_bytes,
    run_soak,
    update_digest,
)
from repro.targets.vector import NUMPY_AVAILABLE

from bench.trace import PipelineProxy, Tracer
from bench.workloads import (
    EXPECTED,
    LANES,
    ROUTES,
    audit_catalog,
    audit_soak,
    compile_composition,
    install_route,
    route_prefix,
    run_churn,
    scaled,
)

#: Packets in the per-layer sample at scale 1.0.
REF_SAMPLE = 20_000

#: DESIGN.md §13 per-packet record header: index u64, in_port u16, length u32.
_RECORD = struct.Struct("<QHI")
_RECORD_CAP = 8192

#: Module that implements each exec backend (the layer's name).
_MODULE = {"interp": "interpreter", "compiled": "compiled",
           "codegen": "codegen", "vector": "vector"}

_GOLDEN = dict(programs=["P4", "P7"], packets=5000, fault_rate=0.1, seed=1234)

_COVER_ROUNDS = 5


class _Layers:
    """State of one traced run: the tracer, the metrics found so far,
    and the operations checked along the way."""

    def __init__(self, seed: int, sample: int) -> None:
        self.seed = seed
        self.sample = sample
        self.tracer = Tracer()
        self.metrics: Dict[str, float] = {}
        self.ops = 0
        self.failed = 0
        self.reasons: List[str] = []

    def timed(self, span: str, fn, *args):
        """Traced call; returns ``(result, seconds)``."""
        record = len(self.tracer.spans)  # inner spans are appended after it
        result = self.tracer.call(span, fn, *args)
        _, start, end, _ = self.tracer.spans[record]
        return result, end - start

    def check(self, ops: int, failed: int, reasons: List[str]) -> None:
        self.ops += ops
        self.failed += failed
        self.reasons += reasons

    def config(self, traffic: str, backend: str = "interp") -> SoakConfig:
        return SoakConfig(
            programs=["P4"], packets=self.sample, seed=self.seed,
            traffic=traffic, fault_rate=0.1 if traffic == "mixed" else 0.0,
            exec_backend=backend,
        )


# ----------------------------------------------------------------------
# Compile side: one traced cold pass, one warm pass
# ----------------------------------------------------------------------
def _compile_layers(run: _Layers) -> None:
    tracer, metrics = run.tracer, run.metrics
    with collecting() as registry:
        outputs = {
            name: run.timed(
                f"compile.{name}", compile_composition, name, tracer.call
            )
            for name in PROGRAMS
        }
        cold = tracer.totals()
        _, warm_s = run.timed(
            "compile.warm_pass",
            lambda: [compile_composition(name) for name in PROGRAMS],
        )
        metrics["codegen.build_cache_hits"] = registry.counter(
            "codegen.build_cache_hits"
        )
    metrics["compile.warm_pass_s"] = warm_s
    for name, (_, seconds) in outputs.items():
        metrics[f"compile.{name}_s"] = seconds
    for span in ("frontend.check", "midend.link", "midend.analyze",
                 "midend.compose", "backend.tna", "backend.v1model"):
        metrics[f"{span}_s"] = cold[span]["total_s"]
    for backend in EXEC_BACKENDS:
        row = cold.get(f"backends.build.{backend}")
        if row is not None:
            metrics[f"backends.build_s.{backend}"] = row["total_s"]
    results = {name: output for name, (output, _) in outputs.items()}
    for metric, key in (
        ("ir.tables_total", "tables"),
        ("ir.byte_stack_total", "byte_stack"),
        ("backend.tna_stages_total", "tna_stages"),
        ("backend.tna_phv_bits_total", "tna_phv_bits"),
        ("backend.v1model_lines_total", "v1model_lines"),
        ("codegen.source_lines_total", "codegen_lines"),
    ):
        metrics[metric] = sum(output[key] for output in results.values())
    run.check(len(results), *audit_catalog(results))


# ----------------------------------------------------------------------
# Stream, transport and bookkeeping layers
# ----------------------------------------------------------------------
def _stream_layers(run: _Layers) -> Dict[str, List[Tuple[int, bytes, int]]]:
    metrics, n = run.metrics, run.sample
    streams = {}
    for traffic in ("routable", "mixed"):
        streams[traffic], seconds = run.timed(
            f"soak.gen.{traffic}",
            lambda: list(iter_stream_bytes(run.config(traffic), "P4", NUM_PORTS)),
        )
        metrics[f"soak.gen_us.{traffic}"] = seconds / n * 1e6
    mixed = streams["mixed"]

    plan = FaultPlan.uniform(0.1, seed=f"{run.seed}:P4")
    _, seconds = run.timed(
        "faults.mutate", lambda: [plan.mutate(data) for _, data, _ in mixed]
    )
    metrics["faults.mutate_us"] = seconds / n * 1e6

    _, seconds = run.timed(
        "engine.assign_shard",
        lambda: [assign_shard(i, data, 2, "flow-hash") for i, data, _ in mixed],
    )
    metrics["engine.assign_shard_us"] = seconds / n * 1e6

    _, seconds = run.timed(
        "net.packet_new", lambda: [Packet(data) for _, data, _ in mixed]
    )
    metrics["net.packet_new_us"] = seconds / n * 1e6

    ring = ShardRing()
    try:
        put_s, get_s = _ring_round_trips(run, ring, mixed)
    finally:
        ring.close()
        ring.unlink()
    metrics["ring.put_us"] = put_s / n * 1e6
    metrics["ring.get_us"] = get_s / n * 1e6

    pool = WorkerPool(EngineConfig(workers=2))
    try:
        _, metrics["pool.start_s"] = run.timed("pool.start", pool.start)
    finally:
        _, metrics["pool.close_s"] = run.timed("pool.close", pool.close)
    return streams


def _ring_round_trips(run: _Layers, ring: ShardRing, stream) -> Tuple[float, float]:
    """Pack the stream into §13-shaped records, put each and get it back
    in this process; returns producer and consumer seconds."""

    def put(chunk) -> None:
        record = bytearray()
        for index, data, in_port in chunk:
            record += _RECORD.pack(index, in_port, len(data))
            record += data
        ring.put(bytes(record))

    def get() -> int:
        record = ring.get()
        view = memoryview(record)
        offset, count = 0, 0
        while offset < len(record):
            _, _, length = _RECORD.unpack_from(record, offset)
            offset += _RECORD.size
            view[offset:offset + length]
            offset += length
            count += 1
        return count

    put_s = get_s = 0.0
    chunk, size, got = [], 0, 0
    for item in [*stream, None]:
        if item is not None:
            chunk.append(item)
            size += _RECORD.size + len(item[1])
        if chunk and (item is None or size >= _RECORD_CAP):
            put_s += run.timed("ring.put", put, chunk)[1]
            count, seconds = run.timed("ring.get", get)
            got += count
            get_s += seconds
            chunk, size = [], 0
    run.check(len(stream), abs(len(stream) - got),
              [] if got == len(stream) else ["ring round trip lost packets"])
    return put_s, get_s


# ----------------------------------------------------------------------
# Exec backends and the switch around them
# ----------------------------------------------------------------------
def _exec_layers(run: _Layers, streams) -> None:
    """Every backend over both samples, per packet and (where the
    backend has one) through the SoA batch path, each through a traced
    proxy so the switch's self time separates from the backend's.  The
    interpreter's digest is the reference for every other row."""
    tracer, metrics, n = run.tracer, run.metrics, run.sample
    reference = {}
    rows = []  # (metric name, pipeline span, switch span)
    verdicts = None
    for traffic, stream in streams.items():
        composed = compose_program(run.config(traffic), "P4")
        for backend in EXEC_BACKENDS:
            if backend == "vector" and not NUMPY_AVAILABLE:
                run.check(n, n, ["vector-unavailable"])
                continue
            for mode in ("process", "soa"):
                switch = build_switch(run.config(traffic, backend), "P4", composed)
                if mode == "soa" and not getattr(
                    switch.pipeline, "batch_supported", False
                ):
                    continue
                span = f"{_MODULE[backend]}.{mode}.{traffic}"
                outer = f"switch.{mode}.{backend}.{traffic}"
                switch.pipeline = PipelineProxy(switch.pipeline, tracer, span)
                verdicts = _drive(
                    switch, stream, mode == "soa", lambda fn: tracer.wrap(outer, fn)
                )
                digest = _fold(stream, verdicts)
                same = reference.setdefault(traffic, digest) == digest
                run.check(n, 0 if same else n,
                          [] if same else [f"{span} digest differs from interpreter"])
                rows.append((f"{_MODULE[backend]}.{mode}_us.{traffic}", span, outer))
    totals = tracer.totals()
    for metric, span, outer in rows:
        metrics[metric] = totals[span]["total_s"] / n * 1e6
        if metric == "codegen.process_us.routable":
            metrics["switch.process_self_us"] = totals[outer]["self_s"] / n * 1e6
        if metric == "codegen.soa_us.routable":
            metrics["switch.batch_self_us"] = totals[outer]["self_s"] / n * 1e6
    metrics["soak.digest_us"] = (
        run.timed("soak.digest", _fold, streams["mixed"], verdicts)[1] / n * 1e6
    )


def _fold(stream, verdicts) -> bytes:
    digest = hashlib.sha256()
    for (index, _, _), verdict in zip(stream, verdicts):
        update_digest(digest, index, verdict)
    return digest.digest()


def _drive(switch, stream, soa: bool, wrap=lambda fn: fn) -> list:
    """Feed ``stream`` to the switch one packet at a time, or in
    ``LANES``-packet SoA batches as the engine workers do; ``wrap``
    decorates the switch method (the traced rows put a span there)."""
    if not soa:
        process = wrap(switch.process)
        return [process(Packet(data), port) for _, data, port in stream]
    process_batch = wrap(switch.process_batch)
    verdicts = []
    for offset in range(0, len(stream), LANES):
        verdicts += process_batch(
            [(Packet(data), port) for _, data, port in stream[offset:offset + LANES]],
            True,
        )
    return verdicts


# ----------------------------------------------------------------------
# Telemetry cost and fast-path share
# ----------------------------------------------------------------------
def _obs_layers(run: _Layers, streams) -> None:
    """Workers run with the metrics registry on; price that as
    (on - off) / off around process_batch, and read the exact fast-path
    counts the registry keeps."""
    metrics = run.metrics
    stream = streams["mixed"]
    composed = compose_program(run.config("mixed"), "P4")
    for backend in ("codegen", "vector"):
        if backend == "vector" and not NUMPY_AVAILABLE:
            continue
        seconds = {False: [], True: []}
        for _ in range(5):
            for enabled in (False, True):
                switch = build_switch(run.config("mixed", backend), "P4", composed)
                span = f"obs.{backend}_soa.{'on' if enabled else 'off'}"
                if enabled:
                    with collecting() as registry:
                        elapsed = run.timed(span, _drive, switch, stream, True)[1]
                        snapshot, snap_s = run.timed("obs.snapshot", registry.snapshot)
                else:
                    elapsed = run.timed(span, _drive, switch, stream, True)[1]
                seconds[enabled].append(elapsed)
        off, on = min(seconds[False]), min(seconds[True])
        metrics[f"obs.metrics_on_overhead.{backend}_soa"] = (on - off) / off
        if backend == "vector":
            counters = snapshot["counters"]
            metrics["obs.snapshot_ms"] = snap_s * 1e3
            metrics["vector.split_lane_share"] = (
                counters.get("vector.split_lanes", 0) / len(stream)
            )
            metrics["vector.fallback_batch_share"] = (
                counters.get("vector.soa_fallback_batches", 0) / _batches(stream)
            )


def _batches(stream) -> int:
    return -(-len(stream) // LANES)


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def _table_layers(run: _Layers) -> None:
    metrics = run.metrics
    config = run.config("routable")
    switch = build_switch(config, "P4", compose_program(config, "P4"))
    tables = switch.pipeline.tables
    lpm = next(t for name, t in tables.items() if name.endswith("ipv4_lpm_tbl"))
    exact = next(t for name, t in tables.items() if name.endswith("forward_tbl"))

    def install() -> None:
        for index in range(ROUTES):
            install_route(switch, index)

    metrics["tables.insert_us"] = (
        run.timed("tables.insert", install)[1] / (2 * ROUTES) * 1e6
    )
    lpm.lookup([route_prefix(0)])
    exact.lookup([1000])
    keys = [(route_prefix(i * 2654435761 % ROUTES) + 7,) for i in range(run.sample)]
    hits, seconds = run.timed(
        "tables.lookup.lpm", lambda: sum(lpm.lookup(key)[2] for key in keys)
    )
    metrics["tables.lookup_us.lpm"] = seconds / len(keys) * 1e6
    run.check(len(keys), len(keys) - hits, [] if hits == len(keys) else ["lpm lookup missed"])
    keys = [(1000 + i * 2654435761 % ROUTES,) for i in range(run.sample)]
    hits, seconds = run.timed(
        "tables.lookup.exact", lambda: sum(exact.lookup(key)[2] for key in keys)
    )
    metrics["tables.lookup_us.exact"] = seconds / len(keys) * 1e6
    run.check(len(keys), len(keys) - hits, [] if hits == len(keys) else ["exact lookup missed"])
    install_route(switch, ROUTES)
    metrics["tables.rebuild_ms"] = (
        run.timed("tables.rebuild", lpm.lookup, [route_prefix(ROUTES)])[1] * 1e3
    )


# ----------------------------------------------------------------------
# Does the sum of the layers explain the whole?
# ----------------------------------------------------------------------
def _coverage(run: _Layers) -> None:
    """Mirror run_soak's inline loop (generate, construct, process,
    digest) with a span around each layer and compare the layers' sum
    with the untraced loop time the run itself reports.  Both sides are
    the best of ``_COVER_ROUNDS`` alternating rounds: the sample is short
    enough for one burst of interference to fake a gap."""
    n = run.sample
    config = run.config("routable", "codegen")
    composed = compose_program(config, "P4")
    untraced, traced, layers = [], [], []
    for _ in range(_COVER_ROUNDS):
        summary = run_soak(config)
        block = summary["programs"]["P4"]
        untraced.append(float(block["elapsed_s"]))

        tracer = Tracer()
        switch = build_switch(config, "P4", composed)
        switch.pipeline = PipelineProxy(switch.pipeline, tracer, "cover.exec")
        stream = iter_stream_bytes(config, "P4", NUM_PORTS)
        pull = tracer.wrap("cover.gen", lambda: next(stream, None))
        construct = tracer.wrap("cover.packet", Packet)
        process = tracer.wrap("cover.switch", switch.process)
        fold = tracer.wrap("cover.digest", update_digest)
        digest = hashlib.sha256()

        def mirrored() -> None:
            while True:
                item = pull()
                if item is None:
                    return
                index, data, in_port = item
                fold(digest, index, process(construct(data), in_port))

        tracer.call("cover.loop", mirrored)
        totals = tracer.totals()
        traced.append(totals["cover.loop"]["total_s"])
        layers.append(sum(
            totals[name]["total_s"]
            for name in ("cover.gen", "cover.packet", "cover.switch", "cover.digest")
        ))
        same = digest.hexdigest() == block["digest"]
        failed, reasons = audit_soak(summary, n)
        run.check(n, failed if same else n,
                  reasons + ([] if same else ["mirrored loop digest differs from run_soak"]))
    run.metrics["trace.coverage.inline-routable"] = min(layers) / min(untraced)
    run.metrics["trace.overhead_share"] = (min(traced) - min(untraced)) / min(untraced)


def _predictions(run: _Layers) -> None:
    """Per-packet cost of the dispatching parent and of one worker, from
    the layer rows, and the packet rate they allow.  The issue's model is
    10^6 / max(parent, worker / 2); with fewer cores than processes the
    CPU itself is a third bound, (parent + worker) / cores."""
    m = run.metrics
    cores = len(os.sched_getaffinity(0))
    for workload, traffic, backend in (
        ("sharded-routable", "routable", "vector"),
        ("sharded-hostile", "mixed", "codegen"),
    ):
        if f"{backend}.soa_us.{traffic}" not in m:
            continue
        parent = m[f"soak.gen_us.{traffic}"] + m["engine.assign_shard_us"] + m["ring.put_us"]
        worker = (
            m["ring.get_us"] + m["net.packet_new_us"] + m["switch.batch_self_us"]
            + m["soak.digest_us"]
            + m[f"{backend}.soa_us.{traffic}"]
            * (1 + max(0.0, m[f"obs.metrics_on_overhead.{backend}_soa"]))
            + (m["faults.mutate_us"] if traffic == "mixed" else 0.0)
        )
        m[f"trace.parent_us.{workload}"] = parent
        m[f"trace.worker_us.{workload}"] = worker
        m[f"trace.predicted_pkts_per_s.{workload}"] = 1e6 / max(
            parent, worker / 2, (parent + worker) / cores
        )


def _golden(run: _Layers) -> None:
    """Check (b): the CI golden digest, on codegen and on vector."""
    for backend in ("codegen", "vector"):
        offered = _GOLDEN["packets"] * len(_GOLDEN["programs"])
        if backend == "vector" and not NUMPY_AVAILABLE:
            run.check(offered, offered, ["golden vector: vector-unavailable"])
            continue
        summary = run_soak(
            SoakConfig(exec_backend=backend, **_GOLDEN), EngineConfig(workers=2)
        )
        failed, reasons = audit_soak(summary, _GOLDEN["packets"])
        if summary["digest"] != EXPECTED["golden_digest"]:
            failed, reasons = offered, reasons + [
                f"golden {backend}: digest {summary['digest'][:12]} != "
                f"{EXPECTED['golden_digest'][:12]}"
            ]
        run.check(offered, failed, reasons)


def traced_run(seed: int, scale: float, golden: bool) -> dict:
    run = _Layers(seed, max(LANES, int(REF_SAMPLE * scale)))
    start = time.perf_counter()
    _compile_layers(run)  # first: nothing is built or cached yet
    streams = _stream_layers(run)
    _exec_layers(run, streams)
    _obs_layers(run, streams)
    _table_layers(run)
    _coverage(run)
    _predictions(run)
    if NUMPY_AVAILABLE:
        churn = run_churn(
            seed, scaled("table-churn", scale), 0.0, time.monotonic(), min_calls=1
        )
        run.metrics["churn.readonly_pkts_per_s"] = churn["readonly_rates"][0]
        run.check(churn["ops"], churn["failed"], churn["reasons"])
    if golden:
        _golden(run)
    return {
        "metrics": run.metrics,
        "attempted": run.ops,
        "failed": run.failed,
        "reasons": run.reasons,
        "spans": run.tracer.totals(),
        "traced_s": time.perf_counter() - start,
    }
