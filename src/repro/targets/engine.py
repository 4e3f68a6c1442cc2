"""Sharded parallel traffic engine: N switch replicas, one stream.

RMT dataplanes scale by replicating the pipeline (Bosshart et al.,
P4's "multiple parallel pipes"); this module does the same in software.
A run fans one deterministic packet stream out over ``workers``
processes, each owning an independent :class:`~repro.targets.switch
.Switch` replica built from the same compiled pipeline, and folds the
per-shard results back into one summary.

The parent generates the stream **once**, assigns each packet's shard,
and pushes ``(index, bytes, in_port)`` records over per-shard
shared-memory rings (:mod:`repro.targets.ring`) to the workers a
:class:`~repro.targets.pool.WorkerPool` submit forks once the program is
composed.  This matches how RMT hardware scales — one compiled
pipeline loaded into replicated pipes fed from one shared ingest — and
per-worker work is O(shard), not O(stream).

This module is the *shard model*: the run configuration, the pure
assignment and seed functions, and the fold of per-shard blocks into
one program block.  The loop every worker runs on its shard is the soak
loop itself (:func:`repro.targets.soak.consume`, the same one an inline
run uses); process orchestration for soak runs lives in
:mod:`repro.targets.pool` and nowhere else.

The determinism contract (DESIGN.md §9, §13):

* shard assignment is a pure function of the packet: ``flow-hash``
  (crc32 of the packet bytes mod workers — a software RSS) or
  ``round-robin`` (global packet index mod workers);
* each shard's fault stream is seeded ``{seed}:{program}:shard{i}``,
  independent of every other shard;
* each shard digests its verdict sub-stream keyed by *global* packet
  index; the merged digest is the SHA-256 of the per-shard digests in
  shard order.

Hence ``merged digest = f(seed, workers, shard_policy)`` — replayable
exactly, however the workers are scheduled and whatever the ring size
or process start method (pinned by test against an in-process oracle).

Workers report a local :class:`~repro.obs.metrics.MetricsRegistry`
snapshot; the parent folds them with the registry's commutative
``merge``.  Every worker starts from a **reset** registry — a forked
child inherits the parent's process-wide counters, and folding those
inherited counts back into the parent would double-count everything
recorded before the fork.

Failure containment mirrors the switch's: a worker that raises posts a
structured error the parent re-raises as :class:`EngineError`; a worker
that dies without reporting (crash, ``os._exit``) is detected by exit
code; ``KeyboardInterrupt`` anywhere tears every worker down (no
orphans) and propagates so the CLI exits 130.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import TargetError
from repro.obs.metrics import MetricsRegistry
from repro.targets.faults import ChaosPlan
from repro.targets.supervision import RestartPolicy
from repro.targets.soak import SoakConfig

#: Shard-assignment policies.
SHARD_POLICIES = ("flow-hash", "round-robin")


class EngineError(TargetError):
    """A worker process failed or died mid-run.

    ``site`` carries ``shard{i}`` and ``worker_error`` the structured
    error dict the worker posted (when it managed to post one), so the
    CLI's ``--json`` failure output stays machine-readable.

    A *partial-result* error (supervised pool, restart budget
    exhausted) additionally carries the dead shard's completed
    ``watermark``, the supervisor's restart ledger under
    ``supervision``, and compact per-shard summaries of the surviving
    results under ``partial`` — graceful degradation is still a failed
    run, but operators get everything the pool salvaged.
    """

    code = "engine-error"

    def __init__(
        self,
        message: str,
        shard: Optional[int] = None,
        worker_error: Optional[dict] = None,
        watermark: Optional[int] = None,
        supervision: Optional[dict] = None,
        partial: Optional[dict] = None,
    ) -> None:
        self.shard = shard
        self.site = f"shard{shard}" if shard is not None else None
        self.worker_error = worker_error
        self.watermark = watermark
        self.supervision = supervision
        self.partial = partial
        super().__init__(message)

    def to_dict(self) -> Dict[str, object]:
        out = super().to_dict()
        if self.shard is not None:
            out["shard"] = self.shard
        if self.worker_error is not None:
            out["worker_error"] = self.worker_error
        if self.watermark is not None:
            out["watermark"] = self.watermark
        if self.supervision is not None:
            out["supervision"] = self.supervision
        if self.partial is not None:
            out["partial"] = self.partial
        return out


@dataclass
class EngineConfig:
    """How to shard one run across worker processes.

    Only what a caller chooses per run lives here; the ring capacity
    and the watchdog are :mod:`repro.targets.pool` constants
    (``_RING_BYTES``, ``_WATCHDOG_S``)."""

    workers: int = 2
    shard_policy: str = "flow-hash"  # flow-hash | round-robin
    #: Seconds between live telemetry publishes from each worker
    #: (epoch-stamped cumulative registry snapshot + switch ledger on
    #: the worker's result pipe).  0 disables mid-run publishing entirely — the
    #: default, so runs without a live consumer pay nothing.
    publish_interval_s: float = 0.0
    #: Self-healing bounds for the worker pool.  ``None`` means the
    #: default :class:`RestartPolicy` — supervision is always on; set
    #: ``RestartPolicy(max_restarts_per_shard=0, restart_budget=0)``
    #: for the old fail-fast behavior.
    restart: Optional["RestartPolicy"] = None
    #: Scheduled process-level fault injection: a
    #: :class:`~repro.targets.faults.ChaosPlan` of kill/stop/stall
    #: events the dispatcher fires at exact stream positions.
    chaos: Optional["ChaosPlan"] = None

    def validate(self) -> None:
        if self.workers < 1:
            _reject("bad-workers", f"engine workers must be >= 1, got {self.workers}")
        if self.shard_policy not in SHARD_POLICIES:
            _reject(
                "bad-shard-policy",
                f"unknown shard policy {self.shard_policy!r}; "
                f"known: {', '.join(SHARD_POLICIES)}",
            )
        if not self.publish_interval_s >= 0:  # NaN too
            _reject(
                "bad-publish-interval",
                f"publish interval must be >= 0 seconds, "
                f"got {self.publish_interval_s}",
            )
        if self.restart is not None:
            self.restart.validate()
        if self.chaos is not None:
            for event in self.chaos.events:
                if event.shard >= self.workers:
                    _reject(
                        "bad-chaos-shard",
                        f"chaos event targets shard {event.shard} but the "
                        f"engine has only {self.workers} worker(s)",
                    )


def _reject(code: str, message: str) -> None:
    err = TargetError(message)
    err.code = code
    raise err


def shard_seed(seed: object, program: str, shard: int) -> str:
    """The derived per-shard seed: ``{seed}:{program}:shard{i}``."""
    return f"{seed}:{program}:shard{shard}"


def assign_shard(index: int, data: bytes, workers: int, policy: str) -> int:
    """Pure shard assignment for packet ``index`` with bytes ``data``.

    ``flow-hash`` uses crc32 (stable across processes and Python
    versions, unlike the salted builtin ``hash``) so all copies of one
    flow land on one replica; ``round-robin`` balances by index.
    """
    if workers <= 1:
        return 0
    if policy == "round-robin":
        return index % workers
    return zlib.crc32(data) % workers


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _merge_blocks(
    program: str,
    config: SoakConfig,
    engine: EngineConfig,
    shards: List[Dict[str, object]],
    wall_s: float,
) -> Dict[str, object]:
    """Fold per-shard blocks into one program block.

    A shard block and ``soak_program``'s inline block both wrap what
    :func:`~repro.targets.soak.consume` returns, so the merged block has
    the inline block's keys plus the sharding fields.

    Shard blocks arrive with unrounded ``elapsed_s``; rounding is
    applied only to the rendered per-shard output.  The one rate
    reported is the wall-clock one, ``packets / wall_s``.  The program's
    ``gc`` block is the shards' summed (each shard keeps its own).
    """

    def total(key: str) -> int:
        return sum(int(block[key]) for block in shards)

    def fold_counts(key: str) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for block in shards:
            for name, count in block[key].items():  # type: ignore[union-attr]
                out[name] = out.get(name, 0) + count
        return dict(sorted(out.items()))

    def fold_gc() -> Dict[str, object]:
        blocks = [block["gc"] for block in shards]

        def per_generation(key: str) -> List[int]:
            return [sum(gen) for gen in zip(*(g[key] for g in blocks))]

        return {
            "collections": per_generation("collections"),
            "collected": per_generation("collected"),
            "pause_ms": round(sum(g["pause_ms"] for g in blocks), 3),
            "frozen": sum(g["frozen"] for g in blocks),
        }

    uncaught: List[str] = []
    for block in shards:
        uncaught.extend(block["uncaught"])  # type: ignore[arg-type]
    merged_digest = hashlib.sha256(
        "".join(str(block["digest"]) for block in shards).encode()
    ).hexdigest()
    merged: Dict[str, object] = {
        "program": program,
        "mode": config.mode,
        "workers": engine.workers,
        "shard_policy": engine.shard_policy,
        "packets": total("packets"),
        "emits": total("emits"),
        "drops": total("drops"),
        "units": total("units"),
        "replicated": total("replicated"),
        "killed": total("killed"),
        "verdicts": fold_counts("verdicts"),
        "drops_by_reason": fold_counts("drops_by_reason"),
        "fault_trips": fold_counts("fault_trips"),
        "uncaught": uncaught[:10],
        "unbalanced_verdicts": total("unbalanced_verdicts"),
        "ledger_ok": (
            all(block["ledger_ok"] for block in shards)
            and total("units") == total("emits") + total("drops")
        ),
        "digest": merged_digest,
        "elapsed_s": round(wall_s, 3),
        "pkts_per_sec": (
            round(total("packets") / wall_s, 1) if wall_s else None
        ),
        "gc": fold_gc(),
        "shards": [
            {
                **{k: v for k, v in block.items() if k != "metrics"},
                "elapsed_s": round(float(block["elapsed_s"]), 3),
            }
            for block in shards
        ],
    }
    registry = MetricsRegistry()
    for block in shards:
        registry.merge(block.get("metrics", {}))  # type: ignore[arg-type]
    merged["metrics"] = registry.snapshot()
    return merged


def _publish_final_epochs(
    telemetry,
    program: str,
    shards: List[Dict[str, object]],
    epochs_seen: Dict[int, int],
    run: Optional[int] = None,
) -> None:
    """Final fold: the authoritative end-of-run snapshot per shard, one
    epoch past anything published mid-run so it always wins."""
    for block in shards:
        shard = int(block["shard"])  # type: ignore[arg-type]
        telemetry.publish(
            program,
            shard,
            epochs_seen.get(shard, 0) + 1,
            block.get("metrics", {}),
            ledger={
                "in": block["packets"],
                "out": block["emits"],
                "dropped": block["drops"],
                "replicated": block["replicated"],
                "killed": block["killed"],
                "units": block["units"],
            },
            final=True,
            run=run,
            watermark=block.get("watermark"),  # type: ignore[arg-type]
        )

