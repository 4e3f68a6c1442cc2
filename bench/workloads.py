"""The five workloads: what a fresh child process runs for each.

Imported only by the child (:mod:`bench.child`), so importing ``repro``
here is part of the child's measured set-up time.  Every function calls
public ``repro`` functions and times them from outside.

An *operation* is one packet (dataplane workloads) or one composition
(``compile-catalog``).
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.driver import CompilerOptions, Up4Compiler
from repro.lib.catalog import COMPOSITIONS, PROGRAMS
from repro.lib.loader import load_module_source
from repro.net.build import PacketBuilder
from repro.net.packet import Packet
from repro.targets.backends import EXEC_BACKENDS, make_pipeline
from repro.targets.engine import EngineConfig
from repro.targets.soak import (
    NUM_PORTS,
    SoakConfig,
    build_switch,
    compose_program,
    run_soak,
    update_digest,
)
from repro.targets.vector import NUMPY_AVAILABLE

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

#: Reference packet counts (scale 1.0).  ``run.py`` multiplies them by
#: its scale factor; see README "Sizes" for how they relate to the host.
REF_PACKETS = {
    "inline-routable": 250_000,
    "sharded-routable": 1_000_000,
    "sharded-hostile": 250_000,
    "table-churn": 300_000,  # phase A; phase B offers half as many
}

#: Timed calls every child makes, however slow the host is: a burst of
#: interference must not leave a child without an undisturbed sample.
MIN_CALLS = 2

#: SoakConfig shape and whether the run is sharded (``workers=2``, the
#: CI golden shape on a 2-core host; never wider).
_SOAK_SHAPES: Dict[str, Tuple[dict, bool]] = {
    "inline-routable": (
        dict(programs=["P4"], traffic="routable", fault_rate=0.0,
             exec_backend="codegen"),
        False,
    ),
    "sharded-routable": (
        dict(programs=["P4"], traffic="routable", fault_rate=0.0,
             exec_backend="vector"),
        True,
    ),
    "sharded-hostile": (
        dict(programs=["P4"], traffic="mixed", fault_rate=0.1,
             exec_backend="codegen"),
        True,
    ),
}

#: Workloads that must not run at all without numpy.
VECTOR_WORKLOADS = ("sharded-routable", "table-churn")

def scaled(name: str, scale: float) -> int:
    return max(1, int(REF_PACKETS[name] * scale))


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped
    descendant (Linux reports ``ru_maxrss`` in KiB; for children it is
    the maximum over reaped processes, not their sum)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# ----------------------------------------------------------------------
# Soak-shaped workloads: one whole run_soak() is the timed call
# ----------------------------------------------------------------------
def soak_args(
    name: str, seed: int, packets: int, backend: Optional[str] = None
) -> Tuple[SoakConfig, Optional[EngineConfig]]:
    shape, sharded = _SOAK_SHAPES[name]
    config = SoakConfig(seed=seed, packets=packets, **shape)
    if backend is not None:
        config.exec_backend = backend
    return config, (EngineConfig(workers=2) if sharded else None)


def audit_soak(summary: dict, offered: int) -> Tuple[int, List[str]]:
    """Failed operations in one run_soak summary: uncaught escapes,
    unbalanced verdicts and undelivered packets, per program."""
    failed = 0
    reasons: List[str] = []
    for name, block in summary["programs"].items():
        bad = (
            len(block["uncaught"])
            + block["unbalanced_verdicts"]
            + abs(offered - block["packets"])
        )
        if not block["ledger_ok"] and not bad:
            bad = offered
        if bad:
            failed += min(bad, offered)
            reasons.append(
                f"{name}: {len(block['uncaught'])} uncaught, "
                f"{block['unbalanced_verdicts']} unbalanced, "
                f"{block['packets']}/{offered} delivered, "
                f"ledger_ok={block['ledger_ok']}"
            )
    return failed, reasons


def run_soak_workload(
    name: str, seed: int, packets: int, budget_s: float, t_spawn: float
) -> dict:
    # Warm-up with the exact config at packets=1: imports are done,
    # this adds compose + backend build + table install (+ pool
    # fork/close).  Every timed call below repeats all of that, as a
    # whole `repro soak` run does.
    run_soak(*soak_args(name, seed, 1))
    setup_s = time.monotonic() - t_spawn
    config, engine = soak_args(name, seed, packets)
    ops = packets * len(config.programs)
    rates: List[float] = []
    failed, reasons, digest = 0, [], None
    began = time.perf_counter()
    while len(rates) < MIN_CALLS or time.perf_counter() - began < budget_s:
        start = time.perf_counter()
        summary = run_soak(config, engine)
        rates.append(ops / (time.perf_counter() - start))
        bad, why = audit_soak(summary, packets)
        digest = digest or summary["digest"]
        if summary["digest"] != digest:
            bad, why = ops, why + ["digest differs between timed calls"]
        failed, reasons = failed + bad, reasons + why
    return {
        "setup_s": setup_s,
        "timed_s": time.perf_counter() - began,
        "ops": ops * len(rates),
        "rates": rates,
        "failed": failed,
        "reasons": reasons,
        "digest": digest,
        "peak_rss_mb": peak_rss_mb(),
    }


def check_soak_workload(name: str, seed: int, packets: int) -> dict:
    """Check (a): the same config under the reference interpreter and
    under the workload's backend must give one digest."""
    reference = run_soak(*soak_args(name, seed, packets, backend="interp"))
    candidate = run_soak(*soak_args(name, seed, packets))
    failed, reasons = audit_soak(reference, packets)
    more, why = audit_soak(candidate, packets)
    failed, reasons = failed + more, reasons + why
    if reference["digest"] != candidate["digest"]:
        failed = packets
        reasons.append(
            f"check-run digest {candidate['digest'][:12]} != interpreter "
            f"{reference['digest'][:12]}"
        )
    return {"ops": packets, "failed": failed, "reasons": reasons}


# ----------------------------------------------------------------------
# table-churn: the tables layer used as writes beside reads
# ----------------------------------------------------------------------
ROUTES = 4096
LANES = 256
MUTATE_EVERY = 1024
_DST_OFFSET = 14 + 16  # Ethernet header + offset of ipv4.dstAddr


def route_prefix(index: int) -> int:
    return (11 << 24) + (index << 8)  # 11.x.y.0/24


def _route_port(index: int) -> int:
    return 1 + index % (NUM_PORTS - 1)


def install_route(switch, index: int) -> None:
    switch.api.add_entry(
        "ipv4_lpm_tbl", [(route_prefix(index), 24)], "process", [1000 + index]
    )
    switch.api.add_entry(
        "forward_tbl",
        [1000 + index],
        "forward",
        [0x020000000001, 0x020000000002, _route_port(index)],
    )


def _churn_packets(
    rng: random.Random, count: int, installed: int, churn: bool
) -> List[Tuple[bytes, int, Optional[int]]]:
    """Seeded ``(bytes, in_port, expected egress port or None)`` spread
    uniformly over the installed prefixes plus the next one.  Under
    ``churn`` one more prefix is installed before every
    ``MUTATE_EVERY``-packet chunk after the first, so a packet to the
    pending prefix drops in its own chunk and forwards in later ones."""
    template = bytearray(
        PacketBuilder()
        .ethernet("02:00:00:00:00:01", "02:00:00:00:00:02", 0x0800)
        .ipv4("192.168.0.1", "11.0.0.1", 6, ttl=64)
        .payload(b"churn!!!")
        .build()
        .tobytes()
    )
    out = []
    for position in range(count):
        live = installed + (position // MUTATE_EVERY if churn else 0)
        route = rng.randrange(live + 1)
        address = route_prefix(route) + rng.randrange(1, 255)
        template[_DST_OFFSET:_DST_OFFSET + 4] = address.to_bytes(4, "big")
        expected = _route_port(route) if route < live else None
        out.append((bytes(template), rng.randrange(NUM_PORTS), expected))
    return out


def _drive(switch, packets, digest, churn_from: Optional[int]) -> Tuple[float, list]:
    """Push ``packets`` through the SoA batch path the engine workers
    use (Packet construction, process_batch, per-verdict digest fold);
    with ``churn_from`` set, install that route and the following ones,
    one per ``MUTATE_EVERY`` packets."""
    verdicts = []
    index = 0
    start = time.perf_counter()
    for offset in range(0, len(packets), LANES):
        if churn_from is not None and offset and offset % MUTATE_EVERY == 0:
            install_route(switch, churn_from)
            churn_from += 1
        batch = switch.process_batch(
            [(Packet(data), port) for data, port, _ in packets[offset:offset + LANES]],
            soa=True,
        )
        for verdict in batch:
            update_digest(digest, index, verdict)
            index += 1
        verdicts.extend(batch)
    return time.perf_counter() - start, verdicts


def _audit_churn(packets, verdicts) -> int:
    """Check (d): every verdict against the bench's own prefix->port
    table, plus the per-verdict accounting invariant."""
    failed = abs(len(packets) - len(verdicts))
    for (_, _, expected), verdict in zip(packets, verdicts):
        ports = [out.port for out in verdict.outputs]
        if ports != ([] if expected is None else [expected]) or not verdict.balanced():
            failed += 1
    return failed


def run_churn(
    seed: int, packets: int, budget_s: float, t_spawn: float,
    backend: str = "vector", min_calls: int = MIN_CALLS,
) -> dict:
    config = SoakConfig(
        programs=["P4"], traffic="routable", fault_rate=0.0,
        exec_backend=backend, seed=seed,
    )
    switch = build_switch(config, "P4", compose_program(config, "P4"))
    for index in range(ROUTES):
        install_route(switch, index)
    rng = random.Random(f"{seed}:table-churn")
    _drive(switch, _churn_packets(rng, 1, ROUTES, False), hashlib.sha256(), None)
    setup_s = time.monotonic() - t_spawn

    digest = hashlib.sha256()  # of the first call: every child makes that one
    installed = ROUTES
    rates: List[float] = []
    read_rates: List[float] = []
    ops = failed = 0
    timed_s = 0.0
    while len(rates) < min_calls or timed_s < budget_s:
        # Packets are made between the timed phases, never inside them.
        read_only = _churn_packets(rng, packets, installed, False)
        churned = _churn_packets(rng, max(1, packets // 2), installed, True)
        fold = digest if not rates else hashlib.sha256()
        read_s, read_verdicts = _drive(switch, read_only, fold, None)
        churn_s, churn_verdicts = _drive(switch, churned, fold, installed)
        installed += (len(churned) - 1) // MUTATE_EVERY
        read_rates.append(len(read_only) / read_s)
        rates.append(len(churned) / churn_s)
        timed_s += read_s + churn_s
        ops += len(read_only) + len(churned)
        failed += _audit_churn(read_only + churned, read_verdicts + churn_verdicts)
    reasons = [f"{failed} verdicts differ from the installed routes"] if failed else []
    stats = switch.stats
    if stats["units"] != stats["out"] + stats["dropped"]:
        failed, reasons = ops, reasons + ["switch ledger unbalanced"]
    return {
        "setup_s": setup_s,
        "timed_s": timed_s,
        "ops": ops,
        "rates": rates,
        "readonly_rates": read_rates,
        "failed": failed,
        "reasons": reasons,
        "digest": digest.hexdigest(),
        "peak_rss_mb": peak_rss_mb(),
    }


def check_churn(seed: int, packets: int) -> dict:
    """Check (a) for table-churn: the same phases on an interpreter
    switch and on a vector switch fold to one digest."""
    now = time.monotonic()
    reference = run_churn(seed, packets, 0.0, now, backend="interp", min_calls=1)
    candidate = run_churn(seed, packets, 0.0, now, min_calls=1)
    failed = reference["failed"] + candidate["failed"]
    reasons = reference["reasons"] + candidate["reasons"]
    if reference["digest"] != candidate["digest"]:
        failed = candidate["ops"]
        reasons.append("check-run digest differs from the interpreter's")
    return {"ops": candidate["ops"], "failed": failed, "reasons": reasons}


# ----------------------------------------------------------------------
# compile-catalog: every composition, both targets, every exec backend
# ----------------------------------------------------------------------
def _plain_call(name: str, fn: Callable, *args, **kwargs):
    return fn(*args, **kwargs)


def compile_composition(name: str, call: Callable = _plain_call) -> dict:
    """One composition from source text to every output the repo can
    produce; returns what the outputs are pinned by.  ``call(span, fn,
    *args)`` lets the traced run record a span per public call."""
    compiler = Up4Compiler()
    modules = [
        call("frontend.check", compiler.frontend,
             load_module_source(module), f"{module}.up4")
        for module in COMPOSITIONS[name]
    ]
    linked = call("midend.link", compiler.link, modules[0], modules[1:])
    analyzer = call("midend.analyze", compiler.analyze, linked)
    composed = call("midend.compose", compiler.midend, linked, analyzer)
    tna = call(
        "backend.tna", Up4Compiler(CompilerOptions(target="tna")).backend, composed
    )
    v1model = call(
        "backend.v1model",
        Up4Compiler(CompilerOptions(target="v1model")).backend,
        composed,
    )
    skipped = []
    codegen_source = ""
    for backend in EXEC_BACKENDS:
        if backend == "vector" and not NUMPY_AVAILABLE:
            skipped.append("vector-unavailable")
            continue
        pipeline = call(
            f"backends.build.{backend}", make_pipeline, composed, backend
        )
        if backend == "codegen":
            codegen_source = pipeline.source
    return {
        "tables": len(composed.tables),
        "byte_stack": composed.byte_stack_size,
        "tna_stages": tna.num_stages,
        "tna_phv_bits": tna.bits_allocated,
        "v1model_sha256": hashlib.sha256(v1model.source_text.encode()).hexdigest(),
        "v1model_lines": len(v1model.source_text.splitlines()),
        "codegen_sha256": hashlib.sha256(codegen_source.encode()).hexdigest(),
        "codegen_lines": len(codegen_source.splitlines()),
        "skipped": skipped,
    }


def audit_catalog(outputs: Dict[str, dict]) -> Tuple[int, List[str]]:
    """Check (e): compile outputs against the hand-pinned expected file."""
    failed = 0
    reasons = []
    for name, got in outputs.items():
        want = EXPECTED["compile"][name]
        wrong = [key for key, value in want.items() if got[key] != value]
        if wrong:
            failed += 1
            reasons.append(f"{name}: {', '.join(wrong)} differ from expected.json")
        reasons.extend(f"{name}: {why}" for why in got["skipped"])
    return failed, reasons


def run_catalog(t_spawn: float) -> dict:
    setup_s = time.monotonic() - t_spawn  # interpreter start + imports
    start = time.perf_counter()
    outputs = {name: compile_composition(name) for name in PROGRAMS}
    timed_s = time.perf_counter() - start
    failed, reasons = audit_catalog(outputs)
    return {
        "setup_s": setup_s,
        "timed_s": timed_s,
        "ops": len(outputs),
        "rates": [len(outputs) / timed_s],
        "failed": failed,
        "reasons": reasons,
        # Fingerprint of every output: a second cold pass must repeat it.
        "digest": hashlib.sha256(
            json.dumps(outputs, sort_keys=True).encode()
        ).hexdigest(),
        "peak_rss_mb": peak_rss_mb(),
    }


# ----------------------------------------------------------------------
def run_workload(
    name: str, seed: int, scale: float, budget_s: float, t_spawn: float
) -> dict:
    """One child's share of a workload: set up once, then whole timed
    calls of a fixed size until ``budget_s`` is used (``MIN_CALLS`` at
    least; ``budget_s`` 0 means exactly that many)."""
    if name in VECTOR_WORKLOADS and not NUMPY_AVAILABLE:
        # Every operation one call would have offered counts as failed.
        return {"unavailable": "vector-unavailable", "ops": scaled(name, scale)}
    if name == "compile-catalog":
        return run_catalog(t_spawn)  # a cold pass cannot repeat in one process
    if name == "table-churn":
        return run_churn(seed, scaled(name, scale), budget_s, t_spawn)
    return run_soak_workload(name, seed, scaled(name, scale), budget_s, t_spawn)


def check_workload(name: str, seed: int, packets: int) -> dict:
    if name in VECTOR_WORKLOADS and not NUMPY_AVAILABLE:
        return {"unavailable": "vector-unavailable"}
    if name == "table-churn":
        return check_churn(seed, packets)
    return check_soak_workload(name, seed, packets)
