"""A V1Model-style behavioral switch around a pipeline.

Adds the fixed-function pieces a pipeline alone does not model (Fig. 2):
ports, the Packet Replication Engine (multicast groups), and
recirculation.  This is the reproduction's ``simple_switch``.

The switch is also the **fault-containment boundary**: every per-packet
exception is caught here and converted into a structured
:class:`~repro.targets.faults.Verdict` carrying a stable reason code,
so one malformed packet or buggy module degrades into a counted drop
instead of killing the run.  ``strict=True`` opts back into re-raising
(used by tests that assert on the exact error).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError, TargetError
from repro.net.packet import Packet
from repro.obs.metrics import METRICS
from repro.obs.pkttrace import PacketTrace
from repro.targets.faults import FaultError, FaultPlan, ResourceGuards, Verdict
from repro.targets.pipeline import PacketOut, PipelineInstance
from repro.targets.runtime_api import RuntimeAPI

DROP_PORT = 0xFF


@dataclass
class SwitchConfig:
    """Fixed-function configuration: ports and multicast groups."""

    num_ports: int = 16
    # group id -> egress port list
    multicast_groups: Dict[int, List[int]] = field(default_factory=dict)
    recirculate_port: Optional[int] = None


class Switch:
    """Ports + PRE + pipeline, processing one packet at a time.

    Parameters
    ----------
    pipeline:
        The pipeline executor to run packets through — a
        :class:`PipelineInstance` or any execution backend built by
        :func:`repro.targets.backends.make_pipeline`.
    config:
        Port count, multicast groups, recirculation port.
    guards:
        Resource bounds (recirculation depth, interpreter step budget,
        multicast fan-out cap, ...); defaults are generous.
    faults:
        Optional :class:`FaultPlan` injecting deterministic faults —
        soak/fuzz harness use.
    strict:
        When True, contained faults re-raise instead of becoming
        reason-coded drops (the pre-containment behavior, for tests).
    exec_backend:
        Optional backend name (one of
        :data:`repro.targets.backends.EXEC_BACKENDS`).  When it
        differs from the backend ``pipeline`` was built under, the
        switch rebuilds the executor for the same composed program.
        Pass it *before* installing table entries — a rebuild starts
        from the program's const entries only.
    """

    def __init__(
        self,
        pipeline: PipelineInstance,
        config: Optional[SwitchConfig] = None,
        guards: Optional[ResourceGuards] = None,
        faults: Optional[FaultPlan] = None,
        strict: bool = False,
        exec_backend: Optional[str] = None,
    ) -> None:
        if exec_backend is not None and exec_backend != getattr(
            pipeline, "backend", "interp"
        ):
            from repro.targets.backends import make_pipeline

            pipeline = make_pipeline(pipeline.composed, exec_backend)
        self.pipeline = pipeline
        self.config = config or SwitchConfig()
        self.api = RuntimeAPI(pipeline)
        self.guards = guards or ResourceGuards()
        self.faults = faults
        self.strict = strict
        pipeline.configure_faults(guards=self.guards, faults=faults)
        self.stats: Dict[str, int] = {
            "in": 0,
            "out": 0,
            "dropped": 0,
            "replicated": 0,
            "killed": 0,
            "units": 0,
        }
        #: Per-reason drop counters (reason -> count), always on.
        self.drops_by_reason: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def set_multicast_group(self, group_id: int, ports: List[int]) -> None:
        if group_id <= 0:
            raise TargetError("multicast group ids are positive")
        for port in ports:
            self._check_port(port)
        self.config.multicast_groups[group_id] = list(ports)

    def _check_port(self, port: int) -> None:
        if not (0 <= port < self.config.num_ports):
            raise TargetError(
                f"port {port} out of range [0, {self.config.num_ports})"
            )

    # ------------------------------------------------------------------
    # Verdict bookkeeping
    # ------------------------------------------------------------------
    def _drop(
        self,
        verdict: Verdict,
        reason: str,
        trace: Optional[PacketTrace],
        traced: bool = True,
    ) -> None:
        verdict.reasons[reason] = verdict.reasons.get(reason, 0) + 1
        self.stats["dropped"] += 1
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1
        if METRICS.enabled:
            METRICS.inc(f"switch.drops.{reason}")
        if traced and trace is not None:
            trace.drop(reason)

    def _kill(
        self,
        verdict: Verdict,
        reason: str,
        exc: BaseException,
        trace: Optional[PacketTrace],
    ) -> None:
        """Contain an exception: the in-flight unit becomes a drop."""
        if self.strict:
            raise exc
        verdict.killed = True
        if verdict.error is None:
            verdict.error = f"{type(exc).__name__}: {exc}"
        self._drop(verdict, reason, trace)

    def _emit(
        self,
        verdict: Verdict,
        out: PacketOut,
        trace: Optional[PacketTrace],
    ) -> None:
        if self.faults is not None and self.faults.trip("buffer"):
            self._drop(verdict, "buffer-exhausted", trace)
            return
        verdict.outputs.append(out)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def process(
        self,
        packet: Packet,
        in_port: int = 0,
        trace: Optional["PacketTrace"] = None,
    ) -> Verdict:
        """Process one packet to a :class:`Verdict` — never raises for
        packet-induced faults (unless ``strict``).

        An invalid ``in_port`` is a caller error and always raises.
        """
        self._check_port(in_port)
        metrics_on = METRICS.enabled
        if metrics_on:
            t0 = perf_counter()
        self.stats["in"] += 1
        guards = self.guards
        verdict = Verdict(outputs=[], reasons={}, units=1)
        if self.faults is not None:
            data, applied = self.faults.mutate(packet.tobytes())
            if applied:
                packet = Packet(data)
                if trace is not None:
                    for site in applied:
                        trace.fault(site, bytes=len(data))
        work = deque([(packet, in_port, 0)])
        while work:
            pkt, port, depth = work.popleft()
            if depth > guards.max_recirculations:
                if self.strict:
                    raise FaultError(
                        "recirc-limit",
                        f"recirculation limit "
                        f"({guards.max_recirculations}) exceeded",
                    )
                self._drop(verdict, "recirc-limit", trace)
                continue
            try:
                results = self.pipeline.process(pkt, port, trace)
            except FaultError as exc:
                self._kill(verdict, exc.reason, exc, trace)
                continue
            except ReproError as exc:
                self._kill(verdict, "internal", exc, trace)
                continue
            except Exception as exc:  # noqa: BLE001 — containment boundary
                self._kill(verdict, "internal", exc, trace)
                continue
            if not results:
                reason = self.pipeline.last_drop_reason or "pipeline-drop"
                # The pipeline already recorded its own drop event.
                self._drop(verdict, reason, trace, traced=False)
                continue
            for index, result in enumerate(results):
                if index:
                    verdict.units += 1
                if result.mcast_grp:
                    self._replicate(verdict, result, trace)
                elif result.recirculate:
                    work.append((result.packet, port, depth + 1))
                elif (
                    self.config.recirculate_port is not None
                    and result.port == self.config.recirculate_port
                ):
                    work.append((result.packet, result.port, depth + 1))
                elif result.port == DROP_PORT:
                    self._drop(verdict, "drop-port", trace)
                else:
                    self._emit(verdict, result, trace)
        self.stats["out"] += len(verdict.outputs)
        self.stats["units"] += verdict.units
        if verdict.killed:
            self.stats["killed"] += 1
            if metrics_on:
                METRICS.inc("switch.killed")
        if metrics_on:
            METRICS.inc("switch.packets")
            METRICS.inc("switch.emits", len(verdict.outputs))
            METRICS.inc("switch.units", verdict.units)
            METRICS.observe(
                "switch.latency_us.packet", (perf_counter() - t0) * 1e6
            )
        return verdict

    def _replicate(
        self,
        verdict: Verdict,
        result: PacketOut,
        trace: Optional[PacketTrace],
    ) -> None:
        """PRE replication with fan-out cap and misconfiguration drops."""
        group = self.config.multicast_groups.get(result.mcast_grp)
        if not group:
            if self.strict:
                raise FaultError(
                    "mcast-no-group",
                    f"no multicast group {result.mcast_grp}",
                )
            self._drop(verdict, "mcast-no-group", trace)
            return
        cap = self.guards.max_mcast_fanout
        for index, egress_port in enumerate(group):
            if index:
                verdict.units += 1
            if index >= cap:
                self._drop(verdict, "mcast-fanout", trace)
                continue
            if not (0 <= egress_port < self.config.num_ports):
                if self.strict:
                    raise FaultError(
                        "mcast-misconfig",
                        f"multicast group {result.mcast_grp} names "
                        f"out-of-range port {egress_port}",
                    )
                self._drop(verdict, "mcast-misconfig", trace)
                continue
            self.stats["replicated"] += 1
            self._emit(
                verdict, PacketOut(result.packet.copy(), egress_port), trace
            )

    # ------------------------------------------------------------------
    def inject(
        self, packet: Packet, in_port: int = 0, trace: Optional["PacketTrace"] = None
    ) -> List[PacketOut]:
        """Process a packet, returning only the emitted copies.

        Contained faults become counted drops (see
        ``drops_by_reason``); set ``strict=True`` on the switch to make
        them raise as before.
        """
        return self.process(packet, in_port, trace).outputs

    # ------------------------------------------------------------------
    def process_batch(
        self, items: Iterable[Tuple[Packet, int]], soa: bool = False
    ) -> List[Verdict]:
        """Process ``(packet, in_port)`` pairs to one Verdict each.

        The batched entry point the sharded traffic engine's workers
        drive: it amortizes the per-packet call overhead (attribute and
        method resolution happen once per batch, not per packet) while
        keeping per-packet containment semantics identical to
        :meth:`process` — the ledger and drop accounting are the same as
        processing the items one by one.

        With ``soa=True`` and a pipeline that advertises
        ``batch_supported`` (codegen and vector, for any program that
        cannot recirculate), the whole batch runs through one
        ``pipeline.process_soa`` call: codegen's generated function runs
        every lane in turn, vector runs the batch columnwise with
        divergence splitting where it has a plan (DESIGN.md §16).
        Fault-site RNG streams see lanes in submission order, so
        verdicts — and the soak digest over them — are bit-for-bit
        identical to the per-packet path.  The fast path declines (and
        this falls back to per-packet processing) under ``strict`` mode,
        a configured recirculation port, or a backend without batch
        support.

        Every ``in_port`` is checked before any lane is counted or run:
        a bad port anywhere raises and leaves the switch untouched.
        """
        items = list(items)
        for _packet, in_port in items:
            self._check_port(in_port)
        if (
            soa
            and not self.strict
            and self.config.recirculate_port is None
            and getattr(self.pipeline, "batch_supported", False)
        ):
            return self._process_batch_soa(items)
        process = self.process
        return [process(packet, in_port) for packet, in_port in items]

    def _process_batch_soa(
        self, items: List[Tuple[Packet, int]]
    ) -> List[Verdict]:
        """Struct-of-arrays batch: one ``process_soa`` call for N lanes.

        Mirrors :meth:`process` lane by lane — same mutate order against
        the fault plan's per-site streams, same verdicts — minus tracing
        (no per-packet trace in batch mode) and recirculation (the fast
        path is gated off for pipelines and configs that can
        recirculate).  The ledger moves once per batch; a lane with one
        unicast output and no fault plan (so no buffer site to draw)
        becomes its verdict directly, and only the other lanes go
        through ``_kill`` / ``_drop`` / ``_replicate`` / ``_emit``.
        """
        metrics_on = METRICS.enabled
        if metrics_on:
            t0 = perf_counter()
        n = len(items)
        faults = self.faults
        ports = [in_port for _packet, in_port in items]
        if faults is None:
            pkts = [packet for packet, _in_port in items]
            datas = [packet.tobytes() for packet in pkts]
        else:
            pkts, datas = [], []
            for packet, _in_port in items:
                data, applied = faults.mutate(packet.tobytes())
                pkts.append(Packet(data) if applied else packet)
                datas.append(data)
        stats = self.stats
        stats["in"] += n
        lanes = self.pipeline.process_soa(datas, ports, pkts)
        verdicts: List[Verdict] = []
        # Every lane counts as one output and one unit; a lane off the
        # direct path corrects its share below.
        out_total = units_total = n
        killed = 0
        for outputs, reason, exc in lanes:
            if (
                faults is None
                and outputs
                and len(outputs) == 1
                and not outputs[0].mcast_grp
                and outputs[0].port != DROP_PORT
            ):
                verdicts.append(Verdict(outputs, {}, 1))
                continue
            verdict = Verdict([], {}, 1)
            verdicts.append(verdict)
            if exc is not None:
                if isinstance(exc, FaultError):
                    self._kill(verdict, exc.reason, exc, None)
                else:
                    self._kill(verdict, "internal", exc, None)
                killed += 1
            elif not outputs:
                self._drop(verdict, reason or "pipeline-drop", None, traced=False)
            else:
                for index, result in enumerate(outputs):
                    if index:
                        verdict.units += 1
                    if result.mcast_grp:
                        self._replicate(verdict, result, None)
                    elif result.port == DROP_PORT:
                        self._drop(verdict, "drop-port", None)
                    else:
                        self._emit(verdict, result, None)
            out_total += len(verdict.outputs) - 1
            units_total += verdict.units - 1
        stats["out"] += out_total
        stats["units"] += units_total
        stats["killed"] += killed
        if metrics_on and n:
            if killed:
                METRICS.inc("switch.killed", killed)
            METRICS.inc("switch.packets", n)
            METRICS.inc("switch.emits", out_total)
            METRICS.inc("switch.units", units_total)
            lane_us = (perf_counter() - t0) * 1e6 / n
            METRICS.observe("switch.latency_us.packet", lane_us, count=n)
        return verdicts

    # ------------------------------------------------------------------
    def inject_many(
        self, packets: List[Packet], in_port: int = 0
    ) -> List[List[PacketOut]]:
        return [
            verdict.outputs
            for verdict in self.process_batch((p, in_port) for p in packets)
        ]
