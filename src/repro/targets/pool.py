"""Sharded worker fleet: one fork per submit, parent-side dispatch.

This is the process orchestration of the sharded engine
(:mod:`repro.targets.engine` holds the shard model it runs) — the only
way a soak stream reaches worker processes.  The parent generates the
stream exactly once, assigns each packet's shard (the pure
:func:`~repro.targets.engine.assign_shard`), and pushes
``(index, in_port, bytes)`` records to its workers over per-shard SPSC
shared-memory rings (:mod:`repro.targets.ring`), so per-worker work is
O(shard), not O(stream):

* **one fleet per submit** — :meth:`WorkerPool.submit` composes the
  program and generates its modules first, then forks one worker per
  shard with the run as its ``Process`` arguments: each worker inherits
  the program, its modules and its ring's mapping.  Fork is the only
  start method; a host without it refuses a sharded run up front.
  The submit owns its processes, rings and result pipes, and tears
  them down before it returns, however the run ends.
* **batched records** — ring traffic is packed several packets per
  record (a small fixed header per packet), so the per-record ring
  bookkeeping amortizes to noise next to pipeline execution.
* **backpressure, never loss** — a full ring blocks the parent until
  the worker drains it; while blocked the parent keeps polling the
  result pipes so a crashed worker surfaces immediately.
* **determinism preserved** — workers consume exactly the packets their
  shard owns, in global-index order, through the one soak loop
  (:func:`~repro.targets.soak.consume`), so per-shard digests —
  and therefore the pinned golden merged digests — equal what a direct
  in-process call of that loop on the filtered stream produces (the
  oracle the tests compare every pool run against).
* **self-healing** — a replica death mid-stream (SIGKILL, hard exit,
  hung ring, watchdog) does not end the run.  A supervisor
  (:mod:`repro.targets.supervision`) starts a fresh replica, the same
  way as the first, that *replays* its deterministic prefix up to
  everything the parent has generated so far, while the parent keeps
  dispatching the rest over a fresh ring — so the merged digest is
  provably identical to an undisturbed run (DESIGN.md §14).  When the
  :class:`~repro.targets.supervision.RestartPolicy` budget runs out the
  shard is *abandoned*: surviving shards drain, then the run fails with
  a structured partial-result :class:`~repro.targets.engine
  .EngineError` naming the dead shard and its watermark.

Each worker incarnation posts its messages over a result pipe of its
own: nothing is shared between workers that a kill could leave held or
half-written, and a replaced incarnation's pipe is closed with it, so
its late messages are never read.  The parent stamps telemetry publishes with the submit's run number for
:class:`~repro.obs.telemetry.LiveTelemetry`, whose per-source epochs
restart at each new run (a restarted replica's epochs are offset past
its predecessor's so the live view stays monotone).
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import struct
import time
import traceback
from multiprocessing.connection import Connection, wait
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import TargetError
from repro.net.packet import Packet
from repro.obs.metrics import METRICS
from repro.targets.backends import derive_modules
from repro.targets.engine import (
    EngineConfig,
    EngineError,
    _merge_blocks,
    _publish_final_epochs,
    assign_shard,
    shard_seed,
)
from repro.targets.ring import DEFAULT_RING_BYTES, RingTimeout, ShardRing
from repro.targets.soak import (
    NUM_PORTS,
    SoakConfig,
    build_switch,
    compose_program,
    consume,
    executed_statements,
    iter_stream_bytes,
)
from repro.targets.supervision import RestartPolicy, Supervisor

#: Per-packet header inside a ring record: global index (uint64),
#: ingress port (uint16), payload length (uint32), little-endian.
_REC = struct.Struct("<QHI")

#: Per-shard ring capacity in bytes.  Bounds the parent's lead over a
#: slow worker; a full ring blocks the parent (backpressure) rather
#: than dropping anything.  Read each time a worker's ring is made
#: and when dispatch starts.
_RING_BYTES = DEFAULT_RING_BYTES

#: Give up on a worker that reports nothing for this long (safety net
#: against a hung worker).  The deadline is re-armed by *any* message
#: from a still-pending shard — telemetry publishes and acks count as
#: liveness — so a healthy worker on a long soak never trips it.  Also
#: how long a ring put may stay blocked on a full ring.
_WATCHDOG_S = 600.0


def _packet_room(ring_bytes: int) -> int:
    """Packet bytes a per-shard pack buffer may hold before the parent
    must flush it.  Records stay within 8 KiB, or a quarter of a small
    ring, which is always under :func:`repro.targets.ring.max_payload`:
    the packers flush *before* an append would cross it, so every record
    they put can be placed.  A lone packet bigger than that goes in a
    record of its own."""
    return min(8192, ring_bytes // 4) - _REC.size


def _iter_ring(
    ring: ShardRing, poll=None
) -> Iterator[Tuple[int, Packet, int]]:
    """Decode a worker's ring into its ``(index, packet, in_port)``
    sub-stream; ends at the end-of-stream sentinel."""
    while True:
        record = ring.get(poll=poll)
        if record is None:
            return
        view = memoryview(record)
        offset, end = 0, len(record)
        while offset < end:
            index, in_port, length = _REC.unpack_from(record, offset)
            offset += _REC.size
            # Packet() copies into its own bytearray; handing it the
            # memoryview slice skips the intermediate bytes copy.
            yield index, Packet(view[offset : offset + length]), in_port
            offset += length


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _resume_stream(
    config: SoakConfig,
    program: str,
    engine: EngineConfig,
    shard: int,
    resume_from: int,
    ring: ShardRing,
    poll,
) -> Iterator[Tuple[int, Packet, int]]:
    """A replacement replica's input stream.

    The prefix — every shard-owned packet with global index up to
    ``resume_from``, the parent's generation high-water mark at the
    restart — is regenerated locally from the pure ``(seed, program)``
    stream, replaying the dead predecessor's work to rebuild identical
    deterministic state (fault-plan RNG streams advance per processed
    packet, the digest refolds the same verdicts in the same order).
    The rest arrives over the fresh ring: the parent only ever puts
    indices above ``resume_from`` there, so the chained stream is the
    shard's full sub-stream, each index exactly once, in global order.
    """
    workers, policy = engine.workers, engine.shard_policy
    for index, data, in_port in iter_stream_bytes(config, program, NUM_PORTS):
        if index > resume_from:
            break
        if assign_shard(index, data, workers, policy) == shard:
            yield index, Packet(data), in_port
    yield from _iter_ring(ring, poll=poll)


def _stalled(stream, stalls):
    """Chaos ``stall`` wrapper: sleep before the scheduled indices."""
    pending = sorted(stalls)
    for item in stream:
        while pending and item[0] >= pending[0][0]:
            time.sleep(pending.pop(0)[1])
        yield item


def _run_pool_shard(
    config: SoakConfig,
    program: str,
    engine: EngineConfig,
    shard: int,
    attempt: int,
    resume_from: int,
    stalls,
    composed,
    ring: ShardRing,
    out: Connection,
    recorder,
) -> Dict[str, object]:
    """Execute one shard of a submitted run inside its worker."""
    # Fresh registry: a forked worker starts with the parent's counters,
    # and the parent merges our snapshot — that would double-count.
    METRICS.reset()
    METRICS.enable()
    switch = build_switch(
        config,
        program,
        composed,
        fault_seed=shard_seed(config.seed, program, shard),
    )
    # The replica lives as long as the worker: take it out of every
    # collection the packet loop triggers (DESIGN.md §13).
    gc.freeze()

    def publish(epoch: int, ledger: Dict[str, int], watermark: int) -> None:
        out.send(
            (
                "telemetry",
                {
                    "epoch": epoch,
                    "metrics": METRICS.snapshot(),
                    "ledger": ledger,
                    "watermark": watermark,
                    "final": False,
                },
            )
        )

    def ack(watermark: int) -> None:
        # Lightweight completed-watermark acknowledgement: the liveness
        # heartbeat and progress report even with telemetry off.
        out.send(("ack", {"watermark": watermark}))

    parent = os.getppid()

    def parent_alive() -> None:
        if os.getppid() != parent:  # pragma: no cover - orphan cleanup
            os._exit(1)

    if resume_from >= 0:
        stream = _resume_stream(
            config, program, engine, shard, resume_from, ring, parent_alive
        )
    else:
        stream = _iter_ring(ring, poll=parent_alive)
    if stalls:
        stream = _stalled(stream, stalls)
    block = consume(
        switch,
        stream,
        batch_lanes=config.batch_lanes,
        publish=publish,
        publish_interval_s=engine.publish_interval_s,
        ack=ack,
        recorder=recorder,
    )
    block["shard"] = shard
    block["metrics"] = METRICS.snapshot()
    block["seed"] = shard_seed(config.seed, program, shard)
    block["attempt"] = attempt
    if resume_from >= 0:
        block["resumed_from"] = resume_from
    return block


def _pool_worker(config: SoakConfig, program: str, composed,
                 engine: EngineConfig, shard: int, attempt: int,
                 resume_from: int, stalls, ring: ShardRing,
                 out: Connection) -> None:
    """One worker incarnation: run its shard once, post the result, exit.

    Posts ``(kind, payload)`` messages on ``out``, its own result pipe;
    a failed run posts an error instead (the supervisor starts a fresh
    process for the next attempt).

    GC discipline (DESIGN.md §13): the heap this process inherits from
    the parent, the composed program included, is frozen on entry, so
    its collections never rescan it (nor copy its pages); the replica
    is frozen once built.
    """
    from repro.obs.telemetry import FlightRecorder

    gc.freeze()
    recorder = (
        FlightRecorder(config.flight_recorder, shard=shard)
        if config.flight_recorder > 0
        else None
    )
    try:
        out.send(
            (
                "ok",
                _run_pool_shard(
                    config, program, engine, shard, attempt, resume_from,
                    stalls, composed, ring, out, recorder,
                ),
            )
        )
    except KeyboardInterrupt:
        out.send(
            ("error", {"error": "interrupted", "code": "interrupted",
                       "attempt": attempt})
        )
    except BaseException as exc:  # noqa: BLE001 — report, never hang the run
        detail = {
            "error": f"{type(exc).__name__}: {exc}",
            "code": getattr(exc, "code", "worker-error"),
            "traceback": traceback.format_exc(limit=8),
            "attempt": attempt,
        }
        if recorder is not None and len(recorder):
            detail["flight_recorder"] = recorder.dump()
        out.send(("error", detail))
    finally:
        ring.close()
        out.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _FlushAbort(Exception):
    """The shard whose buffer was being flushed was just restarted or
    abandoned; the in-flight payload is covered by the replacement's
    replay (restart) or moot (abandon), so the blocked ``put`` must
    unwind."""


class _RunState:
    """One ``submit()``: its fleet (processes, rings, result pipes) and
    everything it tracks — results, acks, failures, scheduled chaos,
    and telemetry epoch bookkeeping."""

    def __init__(self, run, config, program, composed, supervisor,
                 telemetry) -> None:
        self.run = run
        self.config = config
        self.program = program
        self.composed = composed
        self.sup: Supervisor = supervisor
        self.telemetry = telemetry
        self.procs: Dict[int, object] = {}
        #: Read end of each shard's current result pipe; dropped when
        #: its worker is reaped, or once the pipe ends.
        self.conns: Dict[int, Connection] = {}
        self.rings: List[Optional[ShardRing]] = [None] * supervisor.workers
        #: Ring-full spins of rings already reaped, per shard (a restart
        #: replaces the ring; its count must not vanish with it).
        self.spins: List[int] = [0] * supervisor.workers
        #: Shard currently being flushed (``None`` outside a blocking
        #: ring put); a restart/abandon of that shard mid-put raises
        #: :class:`_FlushAbort` to unwind the now-pointless write.
        self.flushing: Optional[int] = None
        #: Parent-side pack buffers, live only while dispatching (a
        #: restart clears the failed shard's buffer — the replacement
        #: replays those indices).
        self.buffers: Optional[List[bytearray]] = None
        self.results: Dict[int, Dict[str, object]] = {}
        self.epochs_seen: Dict[int, int] = {}
        #: Epoch base per shard: a restarted replica's epochs restart at
        #: 1, so the parent offsets them past its predecessor's to keep
        #: the live view's replace-by-epoch fold monotone.
        self.epoch_offset: Dict[int, int] = {}
        #: Deferred failures: ``(shard, reason, detail)`` awaiting a
        #: supervisor decision (restart vs abandon).
        self.failures: List[Tuple[int, str, Dict[str, object]]] = []
        #: ``(shard, attempt)`` pairs already recorded — one failure per
        #: incarnation, however many signals it produces (error message
        #: *and* death, say).
        self.failed_attempts: set = set()
        #: Highest global index generated so far: a restarted replica
        #: replays its shard up to it, the parent dispatches the rest.
        self.gen_high = -1
        self.gen_done = False
        self.sentinel_sent: set = set()
        #: Parent-side chaos events (kill/stop) not yet fired, sorted by
        #: firing index.
        self.pending_chaos: list = []
        #: Scheduled SIGCONTs for chaos-stopped workers.
        self.resumes: List[Tuple[float, object]] = []
        #: Worker processes a chaos ``kill`` was already sent to.
        self.chaos_killed: set = set()


class WorkerPool:
    """Sharded runs over ``engine.workers`` replicas, one fleet per submit.

    Usage::

        with WorkerPool(engine) as pool:
            for name in config.programs:
                blocks[name] = pool.submit(config, name)

    Each ``submit()`` starts its workers after composing the program
    and reaps them, their rings and their result pipes before it returns.
    Worker failures mid-run are *supervised*: the pool restarts the
    replica and deterministically recovers the shard (see the module
    docstring) within the engine's
    :class:`~repro.targets.supervision.RestartPolicy`.  Only after the
    policy is exhausted — or on ``KeyboardInterrupt`` — is the pool
    **broken** and further submits refused.  ``start()`` forks nothing;
    it only refuses a closed or broken pool.  ``close()`` is idempotent
    (``__exit__`` calls it unconditionally) and refuses every later
    submit.
    """

    def __init__(self, engine: EngineConfig) -> None:
        engine.validate()
        self.engine = engine
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:
            err = TargetError(
                "a sharded run forks its workers, and this platform has no "
                "fork start method; run without --workers"
            )
            err.code = "fork-unavailable"
            raise err from None
        self._run_id = 0
        #: Set by ``close()`` and by a failed or interrupted submit.
        self._refusing = False

    # ------------------------------------------------------------------
    def _spawn_worker(self, state: _RunState, shard: int) -> None:
        """Fork one shard's current attempt over a fresh ring and
        result pipe, the run as its arguments (inherited, not pickled);
        a replacement replays through ``gen_high``.

        Always a fresh ring: a replacement must not read the unread
        bytes its predecessor left in the old one.
        """
        ring = state.rings[shard] = ShardRing(_RING_BYTES)
        reader, writer = self._ctx.Pipe(duplex=False)
        state.conns[shard] = reader
        attempt = state.sup.attempts[shard]
        chaos = self.engine.chaos
        try:
            proc = state.procs[shard] = self._ctx.Process(
                target=_pool_worker,
                args=(
                    state.config, state.program, state.composed, self.engine,
                    shard, attempt, state.gen_high,
                    chaos.worker_stalls(shard, attempt) if chaos is not None
                    else [],
                    ring, writer,
                ),
                daemon=True,
            )
            proc.start()
        finally:
            # Only the worker writes: once its copy closes, the pipe ends.
            writer.close()

    def _reap(self, state: _RunState, shard: int) -> None:
        """Kill and forget one shard's worker, ring and result pipe.

        SIGKILL (not terminate): it reaps a SIGSTOPped worker too, and
        a replica being replaced — or one that already posted its
        result — has nothing graceful left to do.
        """
        proc = state.procs.pop(shard, None)
        if proc is not None and proc.pid is not None:
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=5)
        conn = state.conns.pop(shard, None)
        if conn is not None:
            conn.close()
        ring = state.rings[shard]
        if ring is not None:
            state.spins[shard] += ring.full_spins
            ring.close()
            state.rings[shard] = None

    def _teardown(self, state: _RunState) -> None:
        """Reap the submit's whole fleet: no worker process, ring
        mapping or result pipe outlives the submit."""
        for shard in range(len(state.rings)):
            self._reap(state, shard)

    def start(self) -> "WorkerPool":
        """Refuse a closed or broken pool; forks nothing (each submit
        starts and reaps its own fleet)."""
        if self._refusing:
            raise EngineError(
                "worker pool is closed or broken (failed run); "
                "create a new pool"
            )
        return self

    # ------------------------------------------------------------------
    # Failure intake
    # ------------------------------------------------------------------
    def _record_failure(self, state: _RunState, shard: int, reason: str,
                        detail: Optional[Dict[str, object]] = None) -> None:
        if shard in state.results or shard in state.sup.abandoned:
            return
        key = (shard, state.sup.attempts[shard])
        if key in state.failed_attempts:
            return
        state.failed_attempts.add(key)
        state.failures.append((shard, reason, dict(detail or {})))

    def _handle_message(self, state: _RunState, kind: str, shard: int,
                        payload: Dict[str, object]) -> bool:
        """Fold one result-pipe message; returns True when it came
        from a still-pending shard (the watchdog re-arm signal)."""
        pending = (
            shard not in state.results and shard not in state.sup.abandoned
        )
        if kind == "telemetry":
            watermark = payload.get("watermark")
            if pending:
                state.sup.ack(shard, watermark)  # type: ignore[arg-type]
            epoch = (
                int(payload.get("epoch", 0))  # type: ignore[arg-type]
                + state.epoch_offset.get(shard, 0)
            )
            state.epochs_seen[shard] = max(
                state.epochs_seen.get(shard, 0), epoch
            )
            if state.telemetry is not None:
                state.telemetry.publish(
                    state.program,
                    shard,
                    epoch,
                    payload.get("metrics", {}),
                    ledger=payload.get("ledger"),
                    final=bool(payload.get("final", False)),
                    run=state.run,
                    watermark=watermark,  # type: ignore[arg-type]
                )
            return pending
        if kind == "ack":
            if pending:
                state.sup.ack(shard, payload.get("watermark"))  # type: ignore[arg-type]
            return pending
        if kind == "error":
            if payload.get("code") == "interrupted":
                raise KeyboardInterrupt
            self._record_failure(state, shard, "error", payload)
            return pending
        if kind == "ok" and pending:
            state.results[shard] = payload
            state.sup.ack(shard, payload.get("watermark"))  # type: ignore[arg-type]
            return True
        return False

    def _sweep_liveness(self, state: _RunState) -> None:
        for shard, proc in state.procs.items():
            if shard in state.results or shard in state.sup.abandoned:
                continue
            if not proc.is_alive():
                self._record_failure(
                    state,
                    shard,
                    "died",
                    {
                        "error": (
                            f"worker died (exit code {proc.exitcode}) "
                            f"before reporting a result"
                        ),
                        "exitcode": proc.exitcode,
                    },
                )

    def _receive(self, state: _RunState, timeout: float) -> bool:
        """Fold every message waiting on the result pipes, waiting up to
        ``timeout`` for the first; True when one came from a still-
        pending shard (the watchdog re-arm signal).  A pipe whose worker
        is gone — exited, or killed, maybe mid-message — ends: it is
        closed and dropped, and the liveness sweep reports the death."""
        rearm = False
        ready = wait(list(state.conns.values()), timeout)
        for shard, conn in list(state.conns.items()):
            if conn not in ready:
                continue
            while True:
                try:
                    kind, payload = conn.recv()
                except (EOFError, OSError):
                    conn.close()
                    del state.conns[shard]
                    break
                rearm |= self._handle_message(state, kind, shard, payload)
                if not conn.poll():
                    break
        return rearm

    def _drain(self, state: _RunState) -> None:
        """Non-blocking result-pipe sweep + liveness check.  Failures
        are *recorded*, not raised — the supervisor decides their fate
        in :meth:`_process_failures`."""
        self._receive(state, 0)
        self._sweep_liveness(state)

    # ------------------------------------------------------------------
    # Chaos firing
    # ------------------------------------------------------------------
    def _fire_chaos(self, state: _RunState, index: Optional[int]) -> None:
        """Fire parent-side chaos events due at stream position
        ``index``; ``None`` fires everything left (events scheduled past
        the end of the stream — final-epoch faults)."""
        still_pending = []
        for event in state.pending_chaos:
            if not (index is None or event.pkt <= index):
                still_pending.append(event)
                continue
            shard = event.shard
            if shard in state.results or shard in state.sup.abandoned:
                event.fired = True  # nothing left to disturb
                continue
            proc = state.procs.get(shard)
            if (
                proc is None
                or proc in state.chaos_killed
                or not proc.is_alive()
            ):
                # The incumbent is already dead (possibly from our own
                # earlier event, not yet detected — or not yet even
                # delivered: ``is_alive`` stays true for a moment after
                # SIGKILL, and the dispatcher can cover hundreds of
                # packets in that moment) — hold the event so it lands
                # on the *replacement* replica instead of a corpse.  A
                # double-kill means two distinct casualties.
                still_pending.append(event)
                continue
            event.fired = True
            try:
                if event.action == "kill":
                    state.chaos_killed.add(proc)
                    os.kill(proc.pid, signal.SIGKILL)
                elif event.action == "stop":
                    os.kill(proc.pid, signal.SIGSTOP)
                    state.resumes.append(
                        (time.monotonic() + event.resume_s, proc)
                    )
            except (ProcessLookupError, OSError):  # pragma: no cover - raced
                pass
        state.pending_chaos[:] = still_pending

    def _fire_resumes(self, state: _RunState) -> None:
        if not state.resumes:
            return
        now = time.monotonic()
        remaining = []
        for due, proc in state.resumes:
            if now >= due:
                if proc.is_alive():
                    try:
                        os.kill(proc.pid, signal.SIGCONT)
                    except (ProcessLookupError, OSError):  # pragma: no cover
                        pass
            else:
                remaining.append((due, proc))
        state.resumes[:] = remaining

    # ------------------------------------------------------------------
    # Supervision: restart / abandon
    # ------------------------------------------------------------------
    def _record_event(self, state: _RunState, decision: str, shard: int,
                      reason: str) -> None:
        if state.telemetry is None:
            return
        state.telemetry.record_event(
            {
                "event": decision,
                "program": state.program,
                "shard": shard,
                "attempt": state.sup.attempts[shard],
                "reason": reason,
                "watermark": state.sup.watermarks[shard],
                "run": state.run,
            }
        )

    def _process_failures(self, state: _RunState) -> None:
        """Resolve every deferred failure: restart (a fresh worker that
        replays its shard up to ``gen_high``) within policy,
        abandon beyond it.

        Raises :class:`_FlushAbort` after resolving if the shard
        currently being flushed was among the casualties, so the
        blocked ``put`` to its defunct ring unwinds.
        """
        abort_flush = False
        while state.failures:
            shard, reason, detail = state.failures.pop(0)
            if shard in state.results or shard in state.sup.abandoned:
                continue
            # The result may have raced the failure signal (a worker
            # that posted "ok" and then exited) — drain first.
            self._drain(state)
            if shard in state.results:
                continue
            decision = state.sup.decide(shard, reason, detail)
            self._record_event(state, decision, shard, reason)
            if state.flushing == shard:
                abort_flush = True
            if state.buffers is not None:
                # Buffered-but-unflushed indices are <= gen_high: the
                # replacement replays them, or nobody runs them.
                state.buffers[shard].clear()
            if decision == Supervisor.ABANDON:
                self._reap(state, shard)
                continue
            delay = state.sup.backoff_s(shard)
            if delay > 0:
                time.sleep(delay)
            self._reap(state, shard)
            # The replacement's epochs restart at 1; base them past
            # everything its predecessor published.
            state.epoch_offset[shard] = state.epochs_seen.get(shard, 0)
            self._spawn_worker(state, shard)
            if state.gen_done:
                # The replay covers the whole stream: end the fresh ring
                # (it is empty, so the sentinel never waits).
                state.rings[shard].close_stream()
                state.sentinel_sent.add(shard)
        if abort_flush:
            raise _FlushAbort()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, state: _RunState) -> None:
        """Generate the stream once and fan it out to the shard rings."""
        engine = self.engine
        workers, policy = engine.workers, engine.shard_policy
        room = _packet_room(_RING_BYTES)
        watchdog_s = _WATCHDOG_S
        buffers = state.buffers = [bytearray() for _ in range(workers)]
        pack = _REC.pack
        abandoned = state.sup.abandoned
        drained = time.monotonic()

        def sweep() -> None:
            # Rate-limit the pipe poll + liveness check: one per 2ms
            # ring spin burns the very CPU the worker needs to drain
            # the ring on a single-core host; every 50ms is more than
            # enough to surface a crashed worker.
            nonlocal drained
            now = time.monotonic()
            if now - drained < 0.05:
                return
            drained = now
            self._drain(state)

        def poll() -> None:
            # Invoked every ring spin while blocked on backpressure.
            self._fire_resumes(state)
            sweep()
            if state.failures:
                self._process_failures(state)  # may raise _FlushAbort

        def blocking(shard: int, write) -> bool:
            """One blocking ``write(ring)`` to ``shard``'s ring; False
            when a restart or abandon unwound it (the replacement
            replays the payload's indices, or its fresh ring already
            has the sentinel) or the ring stalled past the watchdog."""
            state.flushing = shard
            try:
                write(state.rings[shard])
                return True
            except _FlushAbort:
                pass
            except RingTimeout as exc:
                self._record_failure(
                    state, shard, "ring-stall",
                    {"error": f"ring stayed full for {watchdog_s}s ({exc})"},
                )
                try:
                    self._process_failures(state)
                except _FlushAbort:
                    pass
            finally:
                state.flushing = None
            return False

        def flush(shard: int) -> None:
            payload = bytes(buffers[shard])
            buffers[shard].clear()
            blocking(
                shard,
                lambda ring: ring.put(payload, poll=poll, timeout=watchdog_s),
            )

        try:
            for index, data, in_port in iter_stream_bytes(
                state.config, state.program, NUM_PORTS
            ):
                if state.pending_chaos and state.pending_chaos[0].pkt <= index:
                    self._fire_chaos(state, index)
                if state.resumes:
                    self._fire_resumes(state)
                # A replacement started here replays through
                # ``gen_high``, which must still exclude the current
                # packet — it has not been handed to any ring or buffer
                # yet, and the loop below will dispatch it through the
                # normal path.  Advancing ``gen_high`` too early would
                # make the replacement replay it AND receive it: a
                # duplicated unit.
                if state.failures:
                    self._process_failures(state)
                elif index & 1023 == 0:
                    sweep()
                    if state.failures:
                        self._process_failures(state)
                shard = assign_shard(index, data, workers, policy)
                buffer = buffers[shard]
                size = len(data)
                # A flush resolves failures too, so it also runs before
                # ``gen_high`` takes in the packet.  An abandoned
                # shard's buffer stays empty: it is never flushed.
                if len(buffer) + size > room and buffer:
                    flush(shard)
                state.gen_high = index
                if shard in abandoned:
                    continue
                buffer += pack(index, in_port, size)
                buffer += data
            state.gen_done = True
            for shard in range(workers):
                if shard in abandoned:
                    continue
                if buffers[shard]:
                    flush(shard)
                if shard in abandoned or shard in state.sentinel_sent:
                    continue  # a restart already closed the fresh ring
                if blocking(
                    shard,
                    lambda ring: ring.close_stream(poll=poll, timeout=watchdog_s),
                ):
                    state.sentinel_sent.add(shard)
            if state.pending_chaos:
                # Events scheduled past the last generated index fire
                # after the sentinels: the "kill during the final
                # epoch" site — the worker is draining its ring tail or
                # finalizing its block.
                self._fire_chaos(state, None)
        finally:
            state.buffers = None

    # ------------------------------------------------------------------
    # Collect
    # ------------------------------------------------------------------
    def _collect_supervised(self, state: _RunState) -> None:
        """Gather one result per non-abandoned shard, restarting
        casualties along the way; raises the structured partial-result
        error if any shard ends the run abandoned."""
        engine = self.engine
        watchdog_s = _WATCHDOG_S
        deadline = time.monotonic() + watchdog_s
        while True:
            pending = [
                shard
                for shard in range(engine.workers)
                if shard not in state.results
                and shard not in state.sup.abandoned
            ]
            if not pending:
                break
            rearm = self._receive(state, 0.2)
            self._fire_resumes(state)
            self._sweep_liveness(state)
            if state.failures:
                self._process_failures(state)
                rearm = True
            if state.pending_chaos:
                # Deferred events (their target was dead when due) land
                # on the freshly restarted replica; the stream is fully
                # dispatched here, so everything left is due.
                self._fire_chaos(state, None)
            if rearm:
                deadline = time.monotonic() + watchdog_s
            elif time.monotonic() > deadline:
                for shard in pending:
                    self._record_failure(
                        state,
                        shard,
                        "watchdog",
                        {
                            "error": (
                                f"engine watchdog: worker reported nothing "
                                f"within {watchdog_s}s"
                            )
                        },
                    )
                self._process_failures(state)
                deadline = time.monotonic() + watchdog_s
        if state.sup.abandoned:
            raise self._partial_error(state)

    def _partial_error(self, state: _RunState) -> EngineError:
        """The structured partial-result failure: names the dead shard,
        its completed watermark, the supervisor's event ledger, and
        compact summaries of every surviving shard's result."""
        sup = state.sup
        shard = min(sup.abandoned)
        failure = dict(sup.last_failure.get(shard, {}))
        detail_text = str(failure.get("error") or failure.get("reason", "died"))
        partial = {
            "completed": sorted(state.results),
            "abandoned": sorted(sup.abandoned),
            "shards": {
                str(s): {
                    "packets": block.get("packets"),
                    "emits": block.get("emits"),
                    "drops": block.get("drops"),
                    "digest": block.get("digest"),
                    "watermark": block.get("watermark"),
                }
                for s, block in sorted(state.results.items())
            },
        }
        return EngineError(
            f"shard {shard} worker failed and exhausted its restart budget "
            f"after {sup.restarts[shard]} restart(s): {detail_text} "
            f"(completed watermark {sup.watermarks[shard]}; "
            f"{len(state.results)} of {self.engine.workers} shards finished)",
            shard=shard,
            worker_error=failure or None,
            watermark=sup.watermarks[shard],
            supervision=sup.summary(),
            partial=partial,
        )

    # ------------------------------------------------------------------
    def submit(self, config: SoakConfig, program: str,
               telemetry=None, composed=None) -> Dict[str, object]:
        """Run one program across a fleet of its own; returns the merged
        program block (:func:`~repro.targets.engine._merge_blocks` plus
        the supervision fields ``restarts`` / ``watermarks`` /
        ``degraded`` and the who-was-waiting pair ``dispatch_s`` /
        ``ring_full_spins``).  ``composed`` is the program to run when
        the caller already compiled it; ``program`` then only labels the
        run and seeds its stream."""
        # Validate, compose and generate in the parent, before the first
        # fork: a bad backend name, program or generation fails here,
        # once (workers would otherwise die N times on the same error).
        # Every worker — a supervised replacement too — inherits the
        # backend's module, the executable form and its generated
        # modules, and only instantiates them.
        config.validate()
        self.start()
        engine = self.engine
        if composed is None:
            composed = compose_program(config, program)
        statements = executed_statements(composed)
        derive_modules(composed, config.exec_backend)
        self._run_id += 1
        run = self._run_id
        policy = engine.restart if engine.restart is not None else RestartPolicy()
        sup = Supervisor(policy, config.seed, program, engine.workers)
        state = _RunState(run, config, program, composed, sup, telemetry)
        chaos = engine.chaos
        if chaos is not None:
            chaos.reset()
            state.pending_chaos = sorted(
                chaos.parent_events(), key=lambda event: event.pkt
            )
        start = time.perf_counter()
        try:
            for shard in range(engine.workers):
                self._spawn_worker(state, shard)
            dispatch_start = time.perf_counter()
            self._dispatch(state)
            dispatch_s = time.perf_counter() - dispatch_start
            self._collect_supervised(state)
            wall_s = time.perf_counter() - start
        except BaseException:
            self._refusing = True
            raise
        finally:
            self._teardown(state)
        shards = [state.results[shard] for shard in sorted(state.results)]
        if telemetry is not None:
            _publish_final_epochs(
                telemetry, program, shards, state.epochs_seen, run=run
            )
        merged = _merge_blocks(program, config, engine, shards, wall_s)
        merged.update(statements)
        merged["restarts"] = {
            str(s): n for s, n in sorted(sup.restarts.items()) if n
        }
        merged["watermarks"] = {
            str(s): w for s, w in sorted(sup.watermarks.items())
        }
        # Who was waiting: the parent spends ``dispatch_s`` generating and
        # shipping the stream; spins count the polls it sat blocked on a
        # full ring.  ~0 spins is a parent-bound run, many a worker-bound
        # one.
        merged["dispatch_s"] = round(dispatch_s, 3)
        merged["ring_full_spins"] = {
            str(shard): spins for shard, spins in enumerate(state.spins)
        }
        merged["degraded"] = False  # abandonment raises instead
        if sup.total_restarts:
            merged["supervision"] = sup.summary()
        return merged

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Refuse every later submit.  Idempotent, and safe at any time:
        each submit already reaped its own fleet."""
        self._refusing = True

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
