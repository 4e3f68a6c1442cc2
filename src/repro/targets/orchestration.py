"""Runtime execution of Orchestration pipelines (paper §4.1, §5.4).

An orchestration pipeline processes different copies of a packet in
different ways: it manipulates ``pkt`` instances (``copy_from``),
invokes Unicast modules on them, and enqueues results into an
``out_buf``.  The midend's slicing pass (§5.4) plans how a target would
schedule the per-instance threads; this module *executes* the program
in the behavioral target:

* every callee module is compiled standalone into its own
  :class:`~repro.targets.pipeline.PipelineInstance`, with its user
  parameters bound to synthetic argument variables,
* a module ``apply`` at orchestration level runs the callee pipeline on
  the instance's current bytes and writes the (possibly resized) result
  back — the logical input/output buffers of Fig. 3 in action,
* ``out_buf.enqueue`` snapshots the packet and its intrinsic metadata;
  dropped packets are not enqueued (Fig. 3's footnote).

The per-module control APIs are exposed under the instance name, so the
control plane can program ``prog_i``'s tables and ``test_i``'s tables
independently — µP4's per-module control interface (Fig. 4a).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ReproError, TargetError
from repro.frontend import astnodes as ast
from repro.frontend.typecheck import Module
from repro.midend.inline import IM_VAR, compose
from repro.midend.linker import LinkedProgram, LinkedUnit, link_modules
from repro.midend.slicing import ReplicationPlan, plan_replication
from repro.net.packet import Packet
from repro.targets.faults import (
    FaultError,
    FaultPlan,
    ResourceGuards,
    Verdict,
)
from repro.targets.interpreter import (
    Env,
    ExitSignal,
    ImState,
    Interpreter,
    PktObject,
    ReturnSignal,
    default_value,
)
from repro.targets.pipeline import PacketOut, PipelineInstance
from repro.targets.runtime_api import RuntimeAPI


class OutBufState:
    """The ``out_buf`` logical extern: collects (packet, im) pairs.

    ``capacity`` bounds the buffer (``ResourceGuards.max_out_buf``);
    enqueueing past it raises ``FaultError("buffer-exhausted")``, a
    bounded failure the containment boundary converts to a drop.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.items: List[PacketOut] = []
        self.capacity = capacity

    def call(self, method: str, args: List[object]) -> object:
        if method == "enqueue":
            pkt_obj, im = args[0], args[1]
            if not isinstance(pkt_obj, PktObject) or not isinstance(im, ImState):
                raise TargetError("out_buf.enqueue needs (pkt, im_t) arguments")
            if im.dropped:
                return None  # dropped packets are not inserted (Fig. 3)
            if self.capacity is not None and len(self.items) >= self.capacity:
                raise FaultError(
                    "buffer-exhausted",
                    f"out_buf capacity {self.capacity} exceeded",
                )
            self.items.append(
                PacketOut(pkt_obj.packet.copy(), im.out_port, im.mcast_grp)
            )
            return None
        if method == "merge":
            other = args[0]
            if isinstance(other, OutBufState):
                self.items.extend(other.items)
            return None
        if method == "to_in_buf":
            return None  # nested orchestration: buffers share storage here
        raise TargetError(f"out_buf has no method {method!r}")


class ModuleRunner:
    """A standalone-compiled Unicast module, invocable at runtime."""

    def __init__(self, unit: LinkedUnit, linked: LinkedProgram) -> None:
        sub = LinkedProgram(main=unit, providers=linked.providers)
        self.composed = compose(sub)
        self.instance = PipelineInstance(self.composed)
        self.api = RuntimeAPI(self.instance)
        self.user_params = unit.program.user_params

    def invoke(
        self, pkt_obj: PktObject, im: ImState, in_values: Dict[str, object]
    ) -> Dict[str, object]:
        """Run the module over the instance's bytes; returns out-args."""
        presets = {
            self.composed.arg_vars[name]: value
            for name, value in in_values.items()
        }
        outs, env = self.instance.process_with(
            pkt_obj.packet.copy(), im=im, presets=presets
        )
        if outs:
            pkt_obj.packet.copy_from(outs[0].packet)
        # A drop inside the module leaves im.dropped set; the packet
        # bytes stay as-is (the buffer model discards at enqueue time).
        out_values: Dict[str, object] = {}
        for param in self.user_params:
            if param.direction in ("out", "inout"):
                out_values[param.name] = env.get(self.composed.arg_vars[param.name])
        return out_values


@dataclass
class OrchestrationResult:
    outputs: List[PacketOut]
    plan: ReplicationPlan
    # Set when a contained fault emptied the outputs (strict=False).
    verdict: Optional[Verdict] = None


class OrchestrationRunner:
    """Executes an Orchestration main program over real packets.

    ``guards``/``faults`` are threaded into the orchestration-level
    interpreter and every standalone module runner.  With
    ``strict=False`` a per-packet fault is contained: ``process``
    returns an empty result whose ``verdict`` carries the reason code
    instead of raising.
    """

    def __init__(
        self,
        main: Module,
        libraries: Optional[List[Module]] = None,
        guards: Optional[ResourceGuards] = None,
        faults: Optional[FaultPlan] = None,
        strict: bool = True,
    ) -> None:
        linked = link_modules(main, libraries or [])
        info = linked.main.program
        if info.interface != "Orchestration":
            raise TargetError(
                f"program {info.name!r} implements {info.interface}; "
                f"OrchestrationRunner needs an Orchestration program"
            )
        self.linked = linked
        self.info = info
        self.control = info.control
        self.plan = plan_replication(info.control)
        self.guards = guards or ResourceGuards()
        self.faults = faults
        self.strict = strict
        # One standalone runner per module instance.
        self.runners: Dict[str, ModuleRunner] = {}
        for inst_name, inst in info.instances.items():
            unit = linked.resolve(inst.target)
            runner = ModuleRunner(unit, linked)
            runner.instance.configure_faults(guards=self.guards, faults=faults)
            self.runners[inst_name] = runner
        self.interp = Interpreter({})
        self.interp.step_limit = self.guards.interp_step_budget
        self.interp.faults = faults
        self.interp.module_hook = self._invoke_module  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    def api(self, instance_name: str) -> RuntimeAPI:
        """Control API of one module instance (per-module, Fig. 4a)."""
        try:
            return self.runners[instance_name].api
        except KeyError:
            raise TargetError(
                f"no module instance {instance_name!r}; have: "
                f"{', '.join(self.runners)}"
            ) from None

    # ------------------------------------------------------------------
    def process(self, packet: Packet, in_port: int = 0) -> OrchestrationResult:
        env = Env()
        self.interp.steps = 0
        out_bufs: List[OutBufState] = []
        im = ImState(in_port=in_port, pkt_len=len(packet))
        for param in self.control.params:
            ptype = param.param_type
            if isinstance(ptype, ast.ExternType):
                if ptype.name == "pkt":
                    env.define(param.name, PktObject(packet.copy()))
                elif ptype.name == "im_t":
                    env.define(param.name, im)
                elif ptype.name == "out_buf":
                    buf = OutBufState(capacity=self.guards.max_out_buf)
                    out_bufs.append(buf)
                    env.define(param.name, buf)
                elif ptype.name == "in_buf":
                    env.define(param.name, None)
                else:
                    env.define(param.name, default_value(ptype))
            else:
                env.define(param.name, default_value(ptype))
        env.define(IM_VAR, im)
        for local in self.control.locals:
            if isinstance(local, ast.VarLocal):
                vtype = local.var_type
                if isinstance(vtype, ast.ExternType) and vtype.name == "pkt":
                    env.define(local.name, PktObject(Packet()))
                elif isinstance(vtype, ast.ExternType) and vtype.name == "im_t":
                    env.define(local.name, ImState(in_port=in_port))
                else:
                    env.define(local.name, default_value(vtype))
        verdict: Optional[Verdict] = None
        try:
            self.interp.exec_block(self.control.apply_body.stmts, env)
        except (ExitSignal, ReturnSignal):
            pass
        except ReproError as exc:
            if self.strict:
                raise
            reason = exc.reason if isinstance(exc, FaultError) else "internal"
            verdict = Verdict(
                outputs=[],
                reasons={reason: 1},
                units=1,
                killed=True,
                error=f"{type(exc).__name__}: {exc}",
            )
        if verdict is not None:
            return OrchestrationResult(outputs=[], plan=self.plan, verdict=verdict)
        outputs: List[PacketOut] = []
        for buf in out_bufs:
            outputs.extend(buf.items)
        return OrchestrationResult(outputs=outputs, plan=self.plan)

    # ------------------------------------------------------------------
    def _invoke_module(self, call: ast.MethodCallExpr, env: Env):
        inst: ast.InstanceDecl = call.resolved[1]  # type: ignore[attr-defined]
        runner = self.runners.get(inst.name) or self.runners.get(
            getattr(inst, "original_name", inst.name)
        )
        if runner is None:
            raise TargetError(f"no runner for module instance {inst.name!r}")
        pkt_obj = self.interp.eval(call.args[0], env)
        im = self.interp.eval(call.args[1], env)
        if not isinstance(pkt_obj, PktObject) or not isinstance(im, ImState):
            raise TargetError("module apply needs (pkt, im_t) leading args")
        params = runner.user_params
        in_values: Dict[str, object] = {}
        for arg, param in zip(call.args[2:], params):
            if param.direction in ("in", "inout", ""):
                in_values[param.name] = self.interp.eval(arg, env)
        out_values = runner.invoke(pkt_obj, im, in_values)
        for arg, param in zip(call.args[2:], params):
            if param.direction in ("out", "inout"):
                self.interp.assign(arg, out_values[param.name], env)
        return None
