"""Soak/fuzz harness: hostile traffic against the contained switch.

Pushes tens of thousands of randomized and fault-injected packets
through compiled catalog compositions (P1–P8) and checks the two
containment invariants the rest of the system relies on:

* **zero uncaught exceptions** — every per-packet failure must surface
  as a reason-coded :class:`~repro.targets.faults.Verdict`, never as an
  exception out of ``Switch.process``;
* **exact drop accounting** — for every packet,
  ``emits + drops-by-reason == units`` (each created packet unit
  terminates exactly once), and the switch-level ledger
  ``units == out + dropped`` balances over the whole run.

The run is fully deterministic: the packet generator and the
:class:`~repro.targets.faults.FaultPlan` both derive from the
configured seed, and the summary includes a SHA-256 digest of the
verdict stream so two runs with the same seed can be compared
bit-for-bit.  The digest covers **only** the verdict stream — never
wall-clock timings or other per-run metadata — so it is a pure function
of the configuration.  ``python -m repro soak`` is the CLI entry point;
``--workers N`` fans the same stream out over switch replicas via
:mod:`repro.targets.engine`.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine uses us)
    from repro.targets.engine import EngineConfig

from repro.errors import TargetError
from repro.lib.catalog import (
    COMPOSITIONS,
    EXTRA_COMPOSITIONS,
    build_monolithic,
    build_pipeline,
)
from repro.midend.optimize import action_statements
from repro.net.build import PacketBuilder
from repro.net.packet import Packet
from repro.obs.metrics import METRICS
from repro.obs.pkttrace import PacketTrace
from repro.obs.telemetry import FlightRecorder, LiveTelemetry, TraceWriter
from repro.targets.backends import executable_form, executor_class, make_pipeline
from repro.targets.faults import FaultPlan, ResourceGuards
from repro.targets.switch import Switch, SwitchConfig

#: Baseline entries valid for every catalog composition (they all share
#: the eth + l3 + ipv4 + ipv6 base tables).  Mirrors the integration
#: test entry set so routable traffic exercises the full pipeline.
_BASE_ENTRIES = [
    # (table, matches, action_micro, action_mono, args) — the monolithic
    # baseline renames the colliding v4/v6 ``process`` actions.
    ("ipv4_lpm_tbl", [(0x0A000000, 8)], "process", "process_v4", [7]),
    ("ipv4_lpm_tbl", [(0x0A010000, 16)], "process", "process_v4", [8]),
    ("ipv6_lpm_tbl", [(0x20010DB8 << 96, 32)], "process", "process_v6", [9]),
    ("forward_tbl", [7], "forward", "forward", [0x020000000001, 0x020000000002, 2]),
    ("forward_tbl", [8], "forward", "forward", [0x020000000001, 0x020000000002, 3]),
    ("forward_tbl", [9], "forward", "forward", [0x020000000001, 0x020000000002, 4]),
]


#: Ports on every soak switch replica (``build_switch``'s
#: ``SwitchConfig``).  The engine's parent-side dispatcher draws ingress
#: ports from the same constant, so the stream it ships is bit-identical
#: to the one a restarted replica regenerates for its prefix.
NUM_PORTS = 16

#: Default lanes per SoA batch handed to ``Switch.process_batch``
#: (``SoakConfig.batch_lanes`` / ``--batch-lanes``).  The soak loop
#: batches exactly this many consecutive packets of the stream it is
#: given (inline: the whole stream; a shard: the packets it owns),
#: partial batch only at end of stream; verdicts do not depend on batch
#: boundaries (the SoA parity argument, DESIGN.md §15), so the digest
#: is invariant to the lane count.
DEFAULT_BATCH_LANES = 256

#: :func:`consume` reports its watermark through ``ack`` every this many
#: digested packets: a pool worker's watchdog heartbeat and the progress
#: the ``watermarks`` report and a partial-result error show.
_ACK_EVERY = 2048

#: Seconds between an inline run's live telemetry publishes.
_PUBLISH_INTERVAL_S = 1.0


@dataclass
class SoakConfig:
    """One soak run: which programs, how many packets, which faults."""

    programs: List[str] = field(default_factory=lambda: ["P4", "P7"])
    packets: int = 50_000
    seed: int = 1234
    fault_rate: float = 0.1
    fault_spec: Optional[dict] = None
    mode: str = "micro"  # micro | mono
    strict: bool = False
    #: ``mixed`` is the hostile fuzz corpus; ``routable`` is a cheap
    #: well-formed v4/v6 mix that keeps every packet on the exact/lpm
    #: fast path (the engine-scaling benchmark's exact-heavy workload).
    traffic: str = "mixed"
    #: Execution backend (one of ``EXEC_BACKENDS``).  The verdict
    #: stream — and therefore the digest — must not depend on it; the
    #: differential suite pins that equivalence.
    exec_backend: str = "interp"
    #: Flight-recorder capacity: the last N verdicts kept per shard for
    #: post-mortem dumps (on uncaught escapes, ledger mismatch, or
    #: worker death).  0 disables the recorder.
    flight_recorder: int = 64
    #: Lanes per SoA batch handed to ``Switch.process_batch``.  Verdicts
    #: are batch-boundary-independent, so this tunes throughput (larger
    #: batches amortize more per numpy op on codegen's columnwise tier) without
    #: moving the digest.
    batch_lanes: int = DEFAULT_BATCH_LANES

    def validate(self) -> None:
        """Reject config values that would otherwise only fail deep
        inside a run (or inside N forked workers at once).

        Validation is against the live registries — the backends seam,
        the stream registry — never local literals, so a new backend is
        accepted here the moment the seam knows it.  :func:`run_soak`
        and the worker pool's parent-side ``submit`` both call this up
        front, before any fork, so a bad name fails once in the parent
        instead of in every worker and every supervised restart.
        """
        executor_class(self.exec_backend)  # raises on an unknown name
        _stream_for(self.traffic)  # raises on an unknown mix
        if self.fault_spec is not None:
            try:
                FaultPlan.from_spec(self.fault_spec)
            except TargetError as exc:
                err = TargetError(f"bad fault spec: {exc}")
                err.code = "bad-fault-spec"
                raise err from None
        if not self.programs:
            err = TargetError("no programs to soak")
            err.code = "no-programs"
            raise err
        repeated = sorted(
            {name for name in self.programs if self.programs.count(name) > 1}
        )
        if repeated:
            err = TargetError(
                f"program(s) listed more than once: {', '.join(repeated)}"
            )
            err.code = "duplicate-program"
            raise err
        if self.packets < 0:
            err = TargetError(
                f"packet count must be >= 0, got {self.packets}"
            )
            err.code = "bad-packet-count"
            raise err
        if not 0.0 <= self.fault_rate <= 1.0:
            err = TargetError(
                f"fault rate must be in [0, 1], got {self.fault_rate}"
            )
            err.code = "bad-fault-rate"
            raise err
        if self.mode not in ("micro", "mono"):
            err = TargetError(
                f"unknown compile mode {self.mode!r}; known: micro, mono"
            )
            err.code = "bad-mode"
            raise err
        if not isinstance(self.batch_lanes, int) or isinstance(
            self.batch_lanes, bool
        ) or self.batch_lanes < 1:
            err = TargetError(
                f"batch lane count must be a positive integer, "
                f"got {self.batch_lanes!r}"
            )
            err.code = "bad-batch-lanes"
            raise err


def _fault_plan(
    config: SoakConfig, program: str, seed: Optional[str] = None
) -> Optional[FaultPlan]:
    """Per-program plan so each program's fault stream is independent.

    ``seed`` overrides the derived ``{seed}:{program}`` seed — the
    sharded engine passes ``{seed}:{program}:shard{i}`` so each shard
    owns an independent, replayable fault stream.
    """
    seed = seed if seed is not None else f"{config.seed}:{program}"
    if config.fault_spec is not None:
        spec = dict(config.fault_spec)
        spec.setdefault("seed", seed)
        return FaultPlan.from_spec(spec)
    if config.fault_rate <= 0:
        return None
    return FaultPlan.uniform(config.fault_rate, seed=seed)


# ----------------------------------------------------------------------
# Packet generation
# ----------------------------------------------------------------------
# The seeded stream is a contract (DESIGN.md §8, "Seeded stream"): per
# traffic class, the same public ``random.Random`` calls in the same
# order.  Everything that does not depend on a draw is built once, into
# the tables below; tests/targets/test_stream.py holds the per-packet
# ``PacketBuilder`` generator these replaced and compares the two.
_MACS = ("02:00:00:00:00:01", "02:00:00:00:00:02")
_V4_DSTS = ("10.0.0.5", "10.1.2.3", "172.16.0.1", "192.1.2.3", "10.255.0.1")
_V4_PROTOS = (6, 17, 1)
_V4_TTLS = (0, 1, 64, 255)
_V6_DSTS = ("2001:db8::5", "fe80::1", "2001:db8::1", "fd00::9")
_V6_NEXT_HDRS = (6, 17, 59)
_V6_HOP_LIMITS = (0, 1, 64)


def _build_v4(dst: str, protocol: int, ttl: int, payload: bytes = b"") -> bytes:
    return (
        PacketBuilder()
        .ethernet(*_MACS, 0x0800)
        .ipv4("192.168.0.1", dst, protocol, ttl=ttl)
        .payload(payload)
        .build()
        .tobytes()
    )


def _build_v6(dst: str, next_hdr: int, hop_limit: int, payload: bytes) -> bytes:
    return (
        PacketBuilder()
        .ethernet(*_MACS, 0x86DD)
        .ipv6("fd00::1", dst, next_hdr, payload_len=8, hop_limit=hop_limit)
        .payload(payload)
        .build()
        .tobytes()
    )


class _MixedTables(NamedTuple):
    """Every draw-independent byte of the ``mixed`` corpus."""

    #: ``(dst, protocol, ttl)`` -> 34-byte eth+ipv4 header.  ``totalLen``
    #: is 20 whatever payload follows (the corpus never set it), so the
    #: header and its checksum depend on the key alone.
    v4: Dict[Tuple[str, int, int], bytes]
    #: ``(dst, next_hdr, hop_limit)`` -> the whole 62-byte packet.
    v6: Dict[Tuple[str, int, int], bytes]
    #: ``dst`` -> the 39-byte valid packet the truncation class cuts.
    cut: Dict[str, bytes]
    #: dst+src MAC, the prefix of the unknown-etherType class.
    macs: bytes


@functools.lru_cache(maxsize=None)
def _mixed_tables() -> _MixedTables:
    v4 = {
        (dst, protocol, ttl): _build_v4(dst, protocol, ttl)
        for dst in _V4_DSTS
        for protocol in _V4_PROTOS
        for ttl in _V4_TTLS
    }
    return _MixedTables(
        v4=v4,
        v6={
            (dst, next_hdr, hop_limit): _build_v6(
                dst, next_hdr, hop_limit, b"soakfuzz"
            )
            for dst in _V6_DSTS
            for next_hdr in _V6_NEXT_HDRS
            for hop_limit in _V6_HOP_LIMITS
        },
        cut={dst: v4[dst, 6, 64] + b"cutme" for dst in _V4_DSTS},
        macs=v4[_V4_DSTS[0], 6, 64][:12],
    )


@functools.lru_cache(maxsize=None)
def _routable_templates() -> Tuple[bytes, ...]:
    """The ``routable`` corpus: every v4/v6 destination in the soak
    pools with a sane TTL, so a packet is one ``choice``."""
    return tuple(
        [_build_v4(dst, 6, 64, b"engine!!") for dst in _V4_DSTS]
        + [_build_v6(dst, 6, 64, b"engine!!") for dst in _V6_DSTS]
    )


_Stream = Iterator[Tuple[int, bytes, int]]
#: ``(rng, packets, num_ports) -> stream``
_StreamFn = Callable[[random.Random, int, int], _Stream]


def _mixed_stream(rng: random.Random, packets: int, num_ports: int) -> _Stream:
    """Hostile fuzz corpus: valid, short, garbage, or odd-typed.

    Each expression below draws left to right in the order DESIGN.md §8
    tabulates — a payload's length before its bytes — and reordering
    one moves every later packet of the stream.
    """
    v4, v6, cut, macs = _mixed_tables()
    random_, choice, randrange = rng.random, rng.choice, rng.randrange
    for index in range(packets):
        roll = random_()
        if roll < 0.40:  # plausible IPv4, 0-31 random payload bytes
            data = v4[
                choice(_V4_DSTS), choice(_V4_PROTOS), choice(_V4_TTLS)
            ] + bytes(map(randrange, repeat(256, randrange(32))))
        elif roll < 0.65:  # plausible IPv6
            data = v6[
                choice(_V6_DSTS), choice(_V6_NEXT_HDRS), choice(_V6_HOP_LIMITS)
            ]
        elif roll < 0.80:  # valid packet truncated at a random byte
            data = cut[choice(_V4_DSTS)]
            data = data[: randrange(len(data))]
        elif roll < 0.90:  # unknown etherType
            data = macs + randrange(0x10000).to_bytes(2, "big") + b"mystery"
        else:  # pure garbage bytes, possibly shorter than any header
            data = bytes(map(randrange, repeat(256, randrange(64))))
        yield index, data, randrange(num_ports)


def _routable_stream(rng: random.Random, packets: int, num_ports: int) -> _Stream:
    """Cheap well-formed v4/v6 mix that stays on the exact/lpm path."""
    templates = _routable_templates()
    for index in range(packets):
        data = rng.choice(templates)
        yield index, data, rng.randrange(num_ports)


#: ``SoakConfig.traffic`` name -> stream function.  The one registry:
#: ``validate`` accepts exactly the mixes the generator can produce.
_STREAMS: Dict[str, _StreamFn] = {
    "mixed": _mixed_stream,
    "routable": _routable_stream,
}

#: Recognized packet-mix names (``SoakConfig.traffic``).
TRAFFIC_MIXES = tuple(_STREAMS)


def _stream_for(traffic: str) -> _StreamFn:
    try:
        return _STREAMS[traffic]
    except KeyError:
        raise TargetError(
            f"unknown traffic mix {traffic!r}; "
            f"known: {', '.join(TRAFFIC_MIXES)}"
        ) from None


def iter_stream_bytes(
    config: SoakConfig, program: str, num_ports: int
) -> _Stream:
    """The run's deterministic ``(index, bytes, in_port)`` stream.

    Derived purely from ``(config.seed, program, config.traffic)``.
    This is the wire form the engine's parent-side dispatcher ships to
    worker rings: already serialized.  :func:`iter_stream` wraps the
    same generator, so the two views cannot drift.
    """
    rng = random.Random(f"{config.seed}:{program}:packets")
    return _stream_for(config.traffic)(rng, config.packets, num_ports)


def iter_stream(
    config: SoakConfig, program: str, num_ports: int
) -> Iterator[Tuple[int, Packet, int]]:
    """:func:`iter_stream_bytes` with each payload wrapped in a
    :class:`~repro.net.packet.Packet` — what the single-process soak
    loop and the differential tests feed straight to a switch."""
    for index, data, in_port in iter_stream_bytes(config, program, num_ports):
        yield index, Packet(data), in_port


def _digest_record(index: int, kind: str, verdict) -> str:
    """One verdict's record in the verdict-stream digest."""
    return (
        f"{index}|{kind}|{len(verdict.outputs)}|"
        f"{sorted(verdict.reasons.items())}"
    )


def update_digest(digest, index: int, verdict) -> None:
    """Fold one verdict into a verdict-stream digest.

    The digest input is strictly ``(global packet index, verdict kind,
    emit count, reason counts)`` — no timings, no stats, no per-run
    metadata — so same seed (and same sharding parameters) always means
    the same digest.  :func:`consume` feeds the same records a batch at
    a time; SHA-256 is a stream, so the digest is the same.
    """
    digest.update(_digest_record(index, verdict.kind, verdict).encode())


@contextmanager
def _gc_watch() -> Iterator[Dict[str, object]]:
    """This process's cyclic collections while the ``with`` body runs:
    per generation how many passes ran and what they freed, their total
    pause, and the objects frozen out of every pass
    (``gc.get_freeze_count()``) at the end.  The hook sits in
    ``gc.callbacks`` for the body only."""
    collections = [0, 0, 0]
    collected = [0, 0, 0]
    pause = 0.0
    began = 0.0

    def on_gc(phase: str, info: Dict[str, int]) -> None:
        nonlocal began, pause
        if phase == "start":
            began = time.perf_counter()
            return
        pause += time.perf_counter() - began
        collections[info["generation"]] += 1
        collected[info["generation"]] += info["collected"]

    block: Dict[str, object] = {}
    gc.callbacks.append(on_gc)
    try:
        yield block
    finally:
        gc.callbacks.remove(on_gc)
        block.update(
            collections=collections,
            collected=collected,
            pause_ms=round(pause * 1e3, 3),
            frozen=gc.get_freeze_count(),
        )


def consume(
    switch: Switch,
    stream: Iterable[Tuple[int, Packet, int]],
    batch_lanes: int = DEFAULT_BATCH_LANES,
    publish: Optional[Callable[[int, Dict[str, int], int], None]] = None,
    publish_interval_s: float = 0.0,
    ack: Optional[Callable[[int], None]] = None,
    recorder: Optional[FlightRecorder] = None,
    on_trace: Optional[Callable[[int, PacketTrace, object], None]] = None,
) -> Dict[str, object]:
    """The soak loop: drive ``stream`` through ``switch`` and summarize.

    The only place a ``(index, packet, in_port)`` stream becomes a
    result block (DESIGN.md §8).  The inline run hands it the whole
    stream, a pool worker the packets its shard owns in global-index
    order; it knows nothing about processes, rings or shards, so the
    tests call it directly on a filtered stream to check a pool run.

    Packets go through ``switch.process_batch(soa=True)``,
    ``batch_lanes`` at a time (partial batch only at end of stream);
    the switch falls back to per-packet processing where the SoA path
    does not apply.  Batch mode has no per-packet trace by design, so
    when ``on_trace(index, trace, verdict)`` is given each packet runs
    through ``switch.process`` with its own :class:`PacketTrace`
    instead, which also reaches the flight recorder.  Verdicts do not
    depend on which way a batch ran or where its boundaries fall.

    Each batch is folded into the digest with one ``update`` over its
    verdicts' records (``update_digest``'s, concatenated — the same
    bytes in the same order), reading each verdict's ``kind`` once.

    ``publish(epoch, ledger, watermark)`` posts a mid-run telemetry
    message every ``publish_interval_s`` seconds (0 disables);
    ``recorder`` remembers the last N verdicts for post-mortem dumps,
    taking from each batch only the last N it would keep.  Neither
    touches the verdict stream or the digest.

    The *watermark* is the highest global packet index whose verdict
    has been folded into the digest (-1 until the first batch lands).
    ``ack(watermark)`` (pool workers) reports it at least every
    ``_ACK_EVERY`` digested packets: the supervisor's liveness
    heartbeat and progress report, not a resume point (DESIGN.md §14).

    An exception out of the switch is an escape from containment: the
    first 10 are recorded under ``uncaught`` (non-empty fails the run),
    the raising batch is not re-run — the switch ledger already holds
    whatever it processed, a re-run would double-count — none of its
    verdicts reach the digest, and the loop keeps going.

    ``elapsed_s`` is returned **unrounded**; callers round for
    presentation.  In a pool worker it includes time blocked on an
    empty ring, so it is the shard's wall time, not its busy time.
    ``gc`` is what the cyclic collector did meanwhile (``_gc_watch``);
    like the timings it is never part of the digest.
    """
    digest = hashlib.sha256()
    uncaught: List[str] = []
    unbalanced = 0
    kinds = {"emit": 0, "drop": 0, "killed": 0}
    batch: List[Tuple[int, Packet, int]] = []
    epoch = 0
    watermark = -1
    folded = 0
    acked_at = 0
    next_publish = (
        time.monotonic() + publish_interval_s
        if publish is not None and publish_interval_s > 0
        else None
    )
    start = time.perf_counter()

    def flush() -> None:
        nonlocal unbalanced, watermark, folded
        if not batch:
            return
        traces: List[Optional[PacketTrace]] = [None] * len(batch)
        try:
            if on_trace is None:
                verdicts = switch.process_batch(
                    ((packet, in_port) for _, packet, in_port in batch),
                    soa=True,
                )
            else:
                traces = [PacketTrace() for _ in batch]
                verdicts = [
                    switch.process(packet, in_port, trace)
                    for (_, packet, in_port), trace in zip(batch, traces)
                ]
        except Exception as exc:  # noqa: BLE001 — the invariant under test
            if recorder is not None:
                recorder.note(
                    batch[0][0], "uncaught", f"{type(exc).__name__}: {exc}"
                )
            if len(uncaught) < 10:
                uncaught.append(
                    f"batch [{batch[0][0]}..{batch[-1][0]}]: "
                    f"{type(exc).__name__}: {exc}"
                )
            batch.clear()
            return
        indices = [index for index, _, _ in batch]
        if recorder is not None:
            recorder.record_batch(indices, verdicts, traces)
        records = []
        for index, verdict, trace in zip(indices, verdicts, traces):
            if trace is not None:
                on_trace(index, trace, verdict)
            if not verdict.balanced():
                unbalanced += 1
            kind = verdict.kind
            kinds[kind] += 1
            records.append(_digest_record(index, kind, verdict))
        digest.update("".join(records).encode())
        # Only advance past *digested* packets: the watermark claims
        # what the shard digest covers, never un-folded indices.
        watermark = batch[-1][0]
        folded += len(batch)
        batch.clear()

    with _gc_watch() as gc_block:
        for item in stream:
            batch.append(item)
            if len(batch) >= batch_lanes:
                flush()
                if ack is not None and folded - acked_at >= _ACK_EVERY:
                    acked_at = folded
                    ack(watermark)
                if next_publish is not None and time.monotonic() >= next_publish:
                    epoch += 1
                    publish(epoch, dict(switch.stats), watermark)
                    next_publish = time.monotonic() + publish_interval_s
        flush()
    elapsed = time.perf_counter() - start

    stats = switch.stats
    ledger_ok = stats["units"] == stats["out"] + stats["dropped"]
    block: Dict[str, object] = {
        "packets": stats["in"],
        "emits": stats["out"],
        "drops": stats["dropped"],
        "units": stats["units"],
        "replicated": stats["replicated"],
        "killed": stats["killed"],
        "verdicts": kinds,
        "drops_by_reason": dict(sorted(switch.drops_by_reason.items())),
        "fault_trips": (
            dict(sorted(switch.faults.trips.items()))
            if switch.faults is not None
            else {}
        ),
        "uncaught": uncaught,
        "unbalanced_verdicts": unbalanced,
        "ledger_ok": ledger_ok and unbalanced == 0,
        "digest": digest.hexdigest(),
        "watermark": watermark,
        "elapsed_s": elapsed,
        "pkts_per_sec": round(stats["in"] / elapsed, 1) if elapsed else None,
        "telemetry_epochs": epoch,
        "gc": gc_block,
    }
    if recorder is not None and (uncaught or not block["ledger_ok"]):
        block["flight_recorder"] = recorder.dump()
    return block


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def compose_program(config: SoakConfig, program: str):
    """Compile one catalog program for this run's mode.

    Raises the compiler's own error for unknown or non-compiling
    programs — the CLI surfaces it as a structured failure.  The engine
    calls this in the parent before forking workers so a compile failure
    is reported exactly once, from a single process.
    """
    if program not in COMPOSITIONS and program not in EXTRA_COMPOSITIONS:
        known = ", ".join(sorted({*COMPOSITIONS, *EXTRA_COMPOSITIONS}))
        raise TargetError(f"unknown soak program {program!r}; known: {known}")
    return (
        build_pipeline(program)
        if config.mode == "micro"
        else build_monolithic(program)
    )


def build_switch(
    config: SoakConfig,
    program: str,
    composed,
    fault_seed: Optional[str] = None,
) -> Switch:
    """A fully-programmed switch replica around a compiled pipeline."""
    return switch_around(
        make_pipeline(composed, exec_backend=config.exec_backend),
        config,
        program,
        fault_seed,
    )


def switch_around(
    pipeline, config: SoakConfig, program: str, fault_seed: Optional[str] = None
) -> Switch:
    """The soak switch for an executor the caller built — the
    differential tests hand it one from a backend's own constructor,
    which (unlike ``make_pipeline``) runs the program as composed.

    Each ``_BASE_ENTRIES`` row is installed when the program declares
    its table: all of them for every catalog composition, the rows that
    apply for a user's module files (``repro profile FILES --packets``).
    """
    switch = Switch(
        pipeline,
        SwitchConfig(num_ports=NUM_PORTS, multicast_groups={1: [2, 3]}),
        faults=_fault_plan(config, program, seed=fault_seed),
        strict=config.strict,
    )
    for table, matches, act_micro, act_mono, args in _BASE_ENTRIES:
        if switch.api.find_table(table) is None:
            continue
        action = act_micro if config.mode == "micro" else act_mono
        switch.api.add_entry(table, matches, action, args)
    return switch


def executed_statements(composed) -> Dict[str, int]:
    """What a soak of ``composed`` runs: action statements as composed
    and in the form ``make_pipeline`` hands the executors."""
    return {
        "statements_before": action_statements(composed),
        "statements_after": action_statements(executable_form(composed)),
    }


def soak_program(
    config: SoakConfig,
    program: str,
    telemetry: Optional[LiveTelemetry] = None,
    trace_writer: Optional[TraceWriter] = None,
    composed=None,
) -> Dict[str, object]:
    """Soak one program in this process; returns its JSON-able block.

    The inline run is :func:`consume` on the whole stream, with the
    program-level fault seed.  ``telemetry`` receives epoch-stamped
    cumulative snapshots (registry + switch ledger) every
    ``_PUBLISH_INTERVAL_S`` seconds while the run is in flight and one
    final snapshot after it; ``trace_writer`` streams one JSONL
    pkttrace record per packet.  Both are observation-only: they never
    alter the verdict stream, so the digest is identical with or
    without them.

    ``composed`` is the program to run when the caller already compiled
    it (``repro profile``, under its tracer); ``program`` is then only
    the label that seeds the stream.  ``tables`` in the block is the
    replica's ``RuntimeAPI.lookup_info()`` after the run.
    """
    if composed is None:
        composed = compose_program(config, program)
    switch = build_switch(config, program, composed)

    def publish(
        epoch: int, ledger: Dict[str, int], watermark: int, final: bool = False
    ) -> None:
        telemetry.publish(
            program, 0, epoch, METRICS.snapshot(),
            ledger=ledger, final=final, watermark=watermark,
        )

    def write_trace(index: int, trace: PacketTrace, verdict) -> None:
        trace_writer.write(trace, index, program=program, verdict=verdict.kind)

    block = consume(
        switch,
        iter_stream(config, program, NUM_PORTS),
        batch_lanes=config.batch_lanes,
        publish=publish if telemetry is not None else None,
        publish_interval_s=_PUBLISH_INTERVAL_S,
        recorder=(
            FlightRecorder(config.flight_recorder)
            if config.flight_recorder > 0
            else None
        ),
        on_trace=write_trace if trace_writer is not None else None,
    )
    if telemetry is not None:
        publish(
            block["telemetry_epochs"] + 1,  # type: ignore[operator]
            dict(switch.stats),
            block["watermark"],  # type: ignore[arg-type]
            final=True,
        )
    block["elapsed_s"] = round(block["elapsed_s"], 3)  # type: ignore[call-overload]
    return {
        "program": program,
        "mode": config.mode,
        **executed_statements(composed),
        **block,
        "tables": switch.api.lookup_info(),
    }


def run_soak(
    config: SoakConfig,
    engine: Optional["EngineConfig"] = None,
    telemetry: Optional[LiveTelemetry] = None,
    trace_writer: Optional[TraceWriter] = None,
) -> Dict[str, object]:
    """Run the whole soak; ``ok`` is True iff every program held both
    containment invariants (no uncaught exceptions, exact accounting).

    With an :class:`~repro.targets.engine.EngineConfig`, each program's
    stream fans out over that many worker processes (switch replicas);
    the merged digest is then a pure function of
    ``(seed, workers, shard_policy)``.

    ``telemetry`` wires a live rolling view over the run (per-shard in
    the engine case); ``trace_writer`` streams per-packet JSONL traces
    and is single-process only — worker processes cannot share one
    output file without interleaving corruption.
    """
    config.validate()
    if engine is not None:
        from repro.targets.pool import WorkerPool

        if trace_writer is not None:
            raise TargetError(
                "--trace-out requires a single-process run (workers=1 "
                "without an engine); per-worker trace files are not "
                "supported"
            )
        # One pool for the whole soak; each submit composes its program,
        # then forks a fleet that inherits it.  The pool validates the
        # engine config (workers < 1, unknown policy) before any fork.
        with WorkerPool(engine) as pool:
            programs = {
                name: pool.submit(config, name, telemetry=telemetry)
                for name in config.programs
            }
    else:
        programs = {
            name: soak_program(
                config, name, telemetry=telemetry, trace_writer=trace_writer
            )
            for name in config.programs
        }
    ok = all(
        not block["uncaught"] and block["ledger_ok"]
        for block in programs.values()
    )
    combined = hashlib.sha256(
        "".join(str(block["digest"]) for block in programs.values()).encode()
    ).hexdigest()
    meta: Dict[str, object] = {
        "packets_per_program": config.packets,
        "seed": config.seed,
        "fault_rate": config.fault_rate,
        "fault_spec": config.fault_spec,
        "mode": config.mode,
        "traffic": config.traffic,
        "exec": config.exec_backend,
        "batch_lanes": config.batch_lanes,
        "guards": ResourceGuards().to_dict(),
    }
    if engine is not None:
        meta["workers"] = engine.workers
        meta["shard_policy"] = engine.shard_policy
        if engine.restart is not None:
            meta["restart_policy"] = engine.restart.to_dict()
        if engine.chaos is not None:
            meta["chaos"] = engine.chaos.to_dict()
    return {
        "soak": meta,
        "programs": programs,
        "digest": combined,
        "ok": ok,
    }


def render_summary(summary: Dict[str, object]) -> str:
    """Human-readable soak report."""
    lines = []
    meta = summary["soak"]
    lines.append(
        f"soak: {meta['packets_per_program']} packets/program, "
        f"seed={meta['seed']}, fault_rate={meta['fault_rate']}, "
        f"mode={meta['mode']}"
        + (
            f", workers={meta['workers']} ({meta['shard_policy']})"
            if "workers" in meta
            else ""
        )
    )
    for name, block in summary["programs"].items():  # type: ignore[union-attr]
        lines.append(
            f"\n{name}: {block['packets']} in -> {block['emits']} out, "
            f"{block['drops']} dropped, {block['killed']} killed "
            f"({block['pkts_per_sec']} pkt/s)"
        )
        lines.append(
            f"  executed {block['statements_after']} of "
            f"{block['statements_before']} composed action statements"
        )
        for shard in block.get("shards", ()):
            lines.append(
                f"  shard {shard['shard']}: {shard['packets']} pkts -> "
                f"{shard['emits']} out, {shard['drops']} dropped "
                f"[{shard['digest'][:12]}...]"
            )
        if "dispatch_s" in block:
            spins = ", ".join(
                f"shard{s}={n}"
                for s, n in sorted(block["ring_full_spins"].items())
            )
            lines.append(
                f"  parent dispatch {block['dispatch_s']}s of "
                f"{block['elapsed_s']}s; waits on a full ring: {spins}"
            )
        restarts = block.get("restarts") or {}
        if restarts:
            counts = ", ".join(
                f"shard{s}={n}" for s, n in sorted(restarts.items())
            )
            lines.append(
                f"  supervised restarts: {counts} "
                f"(digest unchanged by recovery)"
            )
        for reason, count in block["drops_by_reason"].items():
            lines.append(f"  drop[{reason}]: {count}")
        if block["fault_trips"]:
            trips = ", ".join(
                f"{site}={n}" for site, n in block["fault_trips"].items()
            )
            lines.append(f"  fault trips: {trips}")
        lines.append(
            f"  accounting: units={block['units']} "
            f"emits+drops={block['emits'] + block['drops']} "
            f"{'OK' if block['ledger_ok'] else 'MISMATCH'}"
        )
        if block["uncaught"]:
            lines.append(f"  UNCAUGHT: {block['uncaught']}")
    lines.append(f"\ndigest: {summary['digest']}")
    lines.append("result: " + ("OK" if summary["ok"] else "FAILED"))
    return "\n".join(lines)
