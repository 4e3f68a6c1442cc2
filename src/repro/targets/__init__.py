"""Behavioral target: executes compiled pipelines over byte packets.

This subpackage is the reproduction's stand-in for BMv2's
``simple_switch`` (V1Model) and for a Tofino device: it interprets the
composed IR produced by the midend/backends directly.

* :mod:`~repro.targets.tables` — match-action table runtime (exact,
  lpm, ternary, range) with const and runtime-installed entries.
* :mod:`~repro.targets.interpreter` — expression/statement evaluator.
* :mod:`~repro.targets.pipeline` — packet-in/packet-out execution of a
  :class:`~repro.midend.inline.ComposedPipeline`.
* :mod:`~repro.targets.plan` — build-time facts the executors share
  (default-value factories, header pack/unpack plans, ``IM_FAST``).
* :mod:`~repro.targets.codegen` — the generated-source executor: same
  semantics as the interpreter, resolved before the first packet;
  :mod:`~repro.targets.vector` is codegen's columnwise-numpy tier for
  wide batches (generated before the first such batch), and
  :mod:`~repro.targets.lanes` says which struct/header variables both
  generated bodies keep as plain cells.
* :mod:`~repro.targets.backends` — the ``ExecBackend`` seam mapping the
  names in ``EXEC_BACKENDS`` (``interp`` and ``codegen``, and their
  aliases ``compiled`` and ``vector``) to the two executors.
* :mod:`~repro.targets.switch` — a V1Model-style switch: ports, packet
  replication engine (multicast groups), recirculation.
* :mod:`~repro.targets.runtime_api` — the "control API" of the paper's
  Fig. 4: table entry installation and multicast group programming.
* :mod:`~repro.targets.faults` — fault containment (per-packet
  :class:`Verdict`, :class:`ResourceGuards`) and the deterministic
  :class:`FaultPlan` injector.
* :mod:`~repro.targets.soak` — the soak/fuzz harness behind
  ``python -m repro soak``.
* :mod:`~repro.targets.engine` — the shard model of the sharded
  traffic engine: run configuration, pure shard assignment and seeds,
  the fold of per-shard blocks.
* :mod:`~repro.targets.pool` — its process orchestration: per submit,
  worker processes forked after the program is composed, each owning a
  switch replica, fed by the parent over the shared-memory rings of
  :mod:`~repro.targets.ring` and restarted within the policy of
  :mod:`~repro.targets.supervision`.
"""

from repro.targets.tables import TableRuntime, Entry
from repro.targets.faults import (
    FaultError,
    FaultPlan,
    ResourceGuards,
    Verdict,
)
from repro.targets.pipeline import PipelineInstance, PacketOut
from repro.targets.backends import EXEC_BACKENDS, make_pipeline
from repro.targets.switch import Switch
from repro.targets.runtime_api import RuntimeAPI
from repro.targets.orchestration import OrchestrationRunner
from repro.targets.engine import (
    EngineConfig,
    EngineError,
    assign_shard,
    shard_seed,
)

__all__ = [
    "EngineConfig",
    "EngineError",
    "assign_shard",
    "shard_seed",
    "TableRuntime",
    "Entry",
    "FaultError",
    "FaultPlan",
    "ResourceGuards",
    "Verdict",
    "PipelineInstance",
    "EXEC_BACKENDS",
    "make_pipeline",
    "PacketOut",
    "Switch",
    "RuntimeAPI",
    "OrchestrationRunner",
]
