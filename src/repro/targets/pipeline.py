"""Packet-level execution of a composed pipeline.

A :class:`PipelineInstance` owns the runtime state (tables, variables)
for one compiled program and processes packets through it:

* **micro mode** — the target-side parser loads the first El(ψ) bytes of
  the packet into the byte stack and sets ``upa_bs_len``; the homogenized
  MAT pipeline then runs; finally the target-side deparser emits
  ``upa_bs[0 : upa_bs_len]`` followed by the unparsed payload.
* **monolithic mode** — the native parser FSM runs over the raw bytes;
  the control statements run; the native deparser emits the valid
  headers in emit order followed by the payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional

from repro.errors import TargetError
from repro.frontend import astnodes as ast
from repro.midend.bytestack import BS_INSTANCE, BS_LEN_VAR, PARSER_ERR_VAR
from repro.midend.inline import IM_VAR, PKT_VAR, ComposedPipeline
from repro.net.packet import Packet
from repro.obs.metrics import LATENCY_SAMPLE_EVERY, METRICS
from repro.obs.pkttrace import PacketTrace
from repro.targets.faults import FaultError, FaultPlan, ResourceGuards
from repro.targets.interpreter import (
    Env,
    ExitSignal,
    HeaderValue,
    ImState,
    Interpreter,
    McEngine,
    PktObject,
    RegisterState,
    ReturnSignal,
    default_value,
)
from repro.targets.plan import expr_name
from repro.targets.tables import TableRuntime, table_runtimes


@dataclass
class PacketOut:
    """A packet leaving the pipeline on a port."""

    packet: Packet
    port: int
    mcast_grp: int = 0
    recirculate: bool = False

    def __iter__(self):
        return iter((self.packet, self.port))


class ParserErrorSignal(Exception):
    """Native parser rejected the packet.

    ``reason`` distinguishes a select-driven reject (``parser-reject``)
    from an extract past the end of the packet (``truncated-extract``).
    """

    def __init__(self, reason: str = "parser-reject") -> None:
        self.reason = reason
        super().__init__(reason)


class PipelineInstance:
    """Executable instance of a :class:`ComposedPipeline`.

    ``use_table_index=False`` forces every table onto the reference
    linear-scan lookup; differential tests use it to compare against
    the indexed fast path.
    """

    #: Execution-backend identifier (see repro.targets.backends).
    backend = "interp"

    def __init__(
        self,
        composed: ComposedPipeline,
        use_table_index: bool = True,
        guards: Optional[ResourceGuards] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.composed = composed
        # TableRuntime caches the per-table key-width vector on the decl,
        # so building many instances of one composition computes it once.
        self.tables: Dict[str, TableRuntime] = table_runtimes(
            composed, use_table_index
        )
        self.interp = Interpreter(self.tables)
        # Stateful externs (registers) persist across packets.
        self.persistent: Dict[str, object] = {}
        # Reason code for the last []-returning process() call; the
        # switch folds it into the packet's Verdict.
        self.last_drop_reason: Optional[str] = None
        # Packet counter driving deterministic stage-latency sampling
        # (see LATENCY_SAMPLE_EVERY); only advances while metrics are on.
        self._lat_tick = 0
        self.guards = ResourceGuards()
        self.configure_faults(guards=guards, faults=faults)

    def configure_faults(
        self,
        guards: Optional[ResourceGuards] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        """(Re)wire resource guards and a fault-injection plan."""
        if guards is not None:
            self.guards = guards
        self.interp.step_limit = self.guards.interp_step_budget
        self.interp.faults = faults

    # ------------------------------------------------------------------
    def _lat_sample(self) -> bool:
        """Decide whether this packet's stage latencies are timed, and
        propagate the decision to the interpreter's table-apply path.
        Deterministic (packet-counter stride), so the codegen executor
        samples the identical packets and reports identical counts."""
        if METRICS.enabled:
            tick = self._lat_tick
            self._lat_tick = tick + 1
            lat_on = tick % LATENCY_SAMPLE_EVERY == 0
        else:
            lat_on = False
        self.interp.lat_sample = lat_on
        return lat_on

    # ------------------------------------------------------------------
    # Environment setup
    # ------------------------------------------------------------------
    def _fresh_env(self, packet: Packet, in_port: int) -> Env:
        env = Env()
        im = ImState(in_port=in_port, pkt_len=len(packet))
        env.define(IM_VAR, im)
        env.define(PKT_VAR, PktObject(packet))
        for name, vtype in self.composed.variables.items():
            if isinstance(vtype, ast.ExternType) and vtype.name == "register":
                env.define(
                    name, self.persistent.setdefault(name, RegisterState())
                )
                continue
            value = default_value(vtype)
            if isinstance(value, McEngine):
                value.im = im
            env.define(name, value)
        return env

    def _im(self, env: Env) -> ImState:
        im = env.get(IM_VAR)
        assert isinstance(im, ImState)
        return im

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def process(
        self,
        packet: Packet,
        in_port: int = 0,
        trace: Optional[PacketTrace] = None,
    ) -> List[PacketOut]:
        """Run one packet through the pipeline; [] means dropped.

        Pass a :class:`~repro.obs.pkttrace.PacketTrace` as ``trace`` to
        record extract/MAT/deparse events for this packet.
        """
        if METRICS.enabled:
            METRICS.inc("interp.packets")
        env = self._fresh_env(packet, in_port)
        self.last_drop_reason = None
        self.interp.steps = 0
        self.interp.ptrace = trace
        try:
            if self.composed.mode == "micro":
                return self._process_micro(packet, env, trace)
            return self._process_monolithic(packet, env, trace)
        finally:
            self.interp.ptrace = None

    def process_traced(self, packet: Packet, in_port: int = 0):
        """Convenience: run one packet with tracing on; returns
        ``(outputs, trace)``."""
        trace = PacketTrace()
        outputs = self.process(packet, in_port, trace=trace)
        return outputs, trace

    def process_with(
        self,
        packet: Packet,
        im: Optional[ImState] = None,
        presets: Optional[Dict[str, object]] = None,
    ):
        """Run one packet with a shared im_t and preset argument
        variables; returns ``(outputs, final_env)`` so callers can read
        back out-parameters (orchestration-time module invocation)."""
        env = self._fresh_env(packet, im.in_port if im else 0)
        self.last_drop_reason = None
        self.interp.steps = 0
        if im is not None:
            env.set(IM_VAR, im)
        for name, value in (presets or {}).items():
            env.set(name, value)
        if self.composed.mode == "micro":
            outs = self._process_micro(packet, env)
        else:
            outs = self._process_monolithic(packet, env)
        return outs, env

    # ------------------------------------------------------------------
    # Micro mode
    # ------------------------------------------------------------------
    def _process_micro(
        self,
        packet: Packet,
        env: Env,
        trace: Optional[PacketTrace] = None,
    ) -> List[PacketOut]:
        bs = self.composed.byte_stack
        assert bs is not None
        lat_on = self._lat_sample()
        if lat_on:
            t0 = perf_counter()
        extract_len = self.composed.region.extract_length
        loaded = min(len(packet), extract_len)
        stack: HeaderValue = env.get(BS_INSTANCE)  # type: ignore[assignment]
        stack.valid = True
        data = packet.tobytes()
        for i in range(loaded):
            stack.fields[f"b{i}"] = data[i]
        env.set(BS_LEN_VAR, loaded)
        payload = data[extract_len:]
        if trace is not None:
            trace.extract("byte_stack", loaded, extract_length=extract_len)
        if lat_on:
            METRICS.observe(
                "pipeline.latency_us.parse", (perf_counter() - t0) * 1e6
            )

        try:
            self.interp.exec_block(self.composed.statements, env)
        except (ExitSignal, ReturnSignal):
            pass

        im = self._im(env)
        if env.get(PARSER_ERR_VAR) == 1 or im.dropped:
            reason = (
                "parser-error"
                if env.get(PARSER_ERR_VAR) == 1
                else "pipeline-drop"
            )
            self.last_drop_reason = reason
            if trace is not None:
                trace.drop(reason)
            return []
        if lat_on:
            t0 = perf_counter()
        out_len = int(env.get(BS_LEN_VAR))  # type: ignore[arg-type]
        if out_len > bs.size or out_len < 0:
            raise FaultError(
                "bytestack-bounds",
                f"byte-stack length {out_len} outside stack size {bs.size}",
            )
        out_bytes = bytes(
            stack.fields[f"b{i}"] for i in range(out_len)
        ) + payload
        if lat_on:
            METRICS.observe(
                "pipeline.latency_us.deparse", (perf_counter() - t0) * 1e6
            )
        if trace is not None:
            trace.deparse(out_len, len(payload))
            trace.output(
                im.out_port,
                len(out_bytes),
                im.mcast_grp,
                im.recirculate_requested,
            )
        return [
            PacketOut(
                Packet(out_bytes),
                im.out_port,
                im.mcast_grp,
                recirculate=im.recirculate_requested,
            )
        ]

    # ------------------------------------------------------------------
    # Monolithic mode
    # ------------------------------------------------------------------
    def _process_monolithic(
        self,
        packet: Packet,
        env: Env,
        trace: Optional[PacketTrace] = None,
    ) -> List[PacketOut]:
        parser = self.composed.native_parser
        data = packet.tobytes()
        cursor = 0
        lat_on = self._lat_sample()
        if parser is not None:
            if lat_on:
                t0 = perf_counter()
            try:
                cursor = self._run_native_parser(parser, data, env, trace)
            except ParserErrorSignal as sig:
                self.last_drop_reason = sig.reason
                if trace is not None:
                    trace.drop(sig.reason)
                return []
            finally:
                if lat_on:
                    METRICS.observe(
                        "pipeline.latency_us.parse",
                        (perf_counter() - t0) * 1e6,
                    )
        payload = data[cursor:]

        try:
            self.interp.exec_block(self.composed.statements, env)
        except (ExitSignal, ReturnSignal):
            pass

        im = self._im(env)
        if im.dropped:
            self.last_drop_reason = "pipeline-drop"
            if trace is not None:
                trace.drop("pipeline-drop")
            return []
        if lat_on:
            t0 = perf_counter()
        out = bytearray()
        for emit in self.composed.native_emits or []:
            value = self.interp.eval(emit, env)
            if not isinstance(value, HeaderValue):
                raise TargetError("native emit of a non-header value")
            if not value.valid:
                continue
            htype = emit.type
            assert isinstance(htype, ast.HeaderType)
            packed = _pack_header(value, htype)
            if trace is not None:
                trace.emit(expr_name(emit), len(packed))
            out.extend(packed)
        out.extend(payload)
        if lat_on:
            METRICS.observe(
                "pipeline.latency_us.deparse", (perf_counter() - t0) * 1e6
            )
        if trace is not None:
            trace.output(
                im.out_port,
                len(out),
                im.mcast_grp,
                im.recirculate_requested,
            )
        return [
            PacketOut(
                Packet(bytes(out)),
                im.out_port,
                im.mcast_grp,
                recirculate=im.recirculate_requested,
            )
        ]

    # ------------------------------------------------------------------
    def _run_native_parser(
        self,
        parser: ast.ParserDecl,
        data: bytes,
        env: Env,
        trace: Optional[PacketTrace] = None,
    ) -> int:
        states = {s.name: s for s in parser.states}
        cursor = 0

        def extract_hook(call: ast.MethodCallExpr, hook_env: Env):
            nonlocal cursor
            lvalue = call.args[1]
            header = self.interp.eval(lvalue, hook_env)
            htype = lvalue.type
            if not isinstance(header, HeaderValue) or not isinstance(
                htype, ast.HeaderType
            ):
                raise TargetError("extract target is not a header")
            size = htype.byte_width
            if cursor + size > len(data):
                raise ParserErrorSignal("truncated-extract")
            _unpack_header(header, htype, data[cursor : cursor + size])
            if trace is not None:
                trace.extract(expr_name(lvalue), size, offset=cursor)
            cursor += size
            return None

        self.interp.extract_hook = extract_hook
        # Parser locals live in a dedicated frame.
        frame = Env(env, label=f"parser {parser.name!r}")
        for local in parser.locals:
            if isinstance(local, ast.VarLocal):
                frame.define(
                    local.name,
                    self.interp.eval(local.init, frame)
                    if local.init is not None
                    else default_value(local.var_type),
                )
        try:
            state_name = "start"
            for _ in range(self.guards.parser_step_budget):
                if state_name == "accept":
                    return cursor
                if state_name == "reject":
                    raise ParserErrorSignal("parser-reject")
                state = states.get(state_name)
                if state is None:
                    raise TargetError(f"parser reached unknown state {state_name!r}")
                if trace is not None:
                    trace.parser_state(state_name)
                for stmt in state.stmts:
                    self.interp.exec_stmt(stmt, frame)
                state_name = self._transition(state, frame)
            raise FaultError(
                "parse-depth",
                f"native parser exceeded its "
                f"{self.guards.parser_step_budget}-state step budget",
            )
        finally:
            self.interp.extract_hook = None

    def _transition(self, state: ast.ParserState, env: Env) -> str:
        if state.direct_next is not None:
            return state.direct_next
        if not state.select_exprs:
            return "reject"
        subjects = [self.interp.eval(e, env) for e in state.select_exprs]
        for keysets, target in state.select_cases:
            if all(
                self._keyset_matches(ks, subj, env)
                for ks, subj in zip(keysets, subjects)
            ):
                return target
        return "reject"

    def _keyset_matches(self, keyset: ast.Expr, subject, env: Env) -> bool:
        if isinstance(keyset, ast.DefaultExpr):
            return True
        if isinstance(keyset, ast.MaskExpr):
            value = self.interp.eval(keyset.value, env)
            mask = self.interp.eval(keyset.mask, env)
            return (int(subject) & int(mask)) == (int(value) & int(mask))
        if isinstance(keyset, ast.RangeExpr):
            lo = self.interp.eval(keyset.lo, env)
            hi = self.interp.eval(keyset.hi, env)
            return int(lo) <= int(subject) <= int(hi)
        return self.interp.eval(keyset, env) == subject


# ======================================================================
# Header packing
# ======================================================================


def _pack_header(value: HeaderValue, htype: ast.HeaderType) -> bytes:
    acc = 0
    total = 0
    for fname, ftype in htype.fields:
        assert isinstance(ftype, ast.BitType)
        acc = (acc << ftype.width) | (value.fields[fname] & ((1 << ftype.width) - 1))
        total += ftype.width
    return acc.to_bytes(total // 8, "big")


def _unpack_header(value: HeaderValue, htype: ast.HeaderType, data: bytes) -> None:
    acc = int.from_bytes(data, "big")
    pos = htype.fixed_bit_width
    for fname, ftype in htype.fields:
        assert isinstance(ftype, ast.BitType)
        pos -= ftype.width
        value.fields[fname] = (acc >> pos) & ((1 << ftype.width) - 1)
    value.valid = True
