"""Supervision policy for the sharded worker fleet.

The switch is fault-contained per *packet*; this module makes the
engine fault-contained per *process*.  A replica death mid-stream
(SIGKILL, hard exit, hung ring) does not end the run: the pool treats
it the way production dataplanes treat a device reset — a recoverable
event:

* Workers acknowledge a per-shard **completed watermark**: the highest
  global packet index whose verdict has been folded into the shard
  digest (piggybacked on telemetry publishes and on lightweight
  ``("ack", ...)`` result-pipe messages) — the liveness heartbeat and
  the progress a partial-result error reports.
* On failure the pool starts a fresh replica, forked after the
  program was composed like the first.  It *replays* its own prefix up
  to ``gen_high``, everything the parent has generated so far,
  regenerated from the pure ``(seed, program)`` stream, while the
  parent keeps dispatching later packets over a fresh ring.  Execution is deterministic (per-shard fault RNG
  streams, pure shard assignment), so the rebuilt verdict stream — and
  therefore the shard digest — is bit-identical to an undisturbed run.
  See DESIGN.md §14 for the full argument.

:class:`RestartPolicy` bounds the healing: per-shard and run-level
restart budgets with exponential backoff (deterministically jittered
from the run seed, so soak timings replay too).  When a shard exhausts
its budget the supervisor *abandons* it: the pool drains the surviving
shards and raises a structured partial-result
:class:`~repro.targets.engine.EngineError` naming the dead shard and
its watermark, instead of tearing the run down mid-flight.

:class:`Supervisor` is pure bookkeeping — decisions, counters, event
log.  Process management (kill/start/dispatch) stays in
:class:`~repro.targets.pool.WorkerPool`, which owns the processes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import TargetError

#: Failure reasons a supervisor distinguishes in its event log.
FAILURE_REASONS = ("died", "error", "ring-stall", "watchdog")

#: Restart backoff ceiling, in seconds.
BACKOFF_MAX_S = 2.0
#: Multiplicative jitter span: a restart delay is scaled by a factor
#: drawn uniformly from ``[1, 1 + BACKOFF_JITTER]``, seeded per shard
#: and restart ordinal.
BACKOFF_JITTER = 0.5


@dataclass
class RestartPolicy:
    """Bounds on self-healing: how often, how fast, when to give up."""

    #: Restarts allowed per shard per run before the shard is abandoned.
    max_restarts_per_shard: int = 2
    #: Total restarts allowed across all shards per run.
    restart_budget: int = 8
    #: First-restart backoff; doubles per subsequent restart of the
    #: same shard, up to ``BACKOFF_MAX_S`` after seeded jitter (see
    #: :meth:`Supervisor.backoff_s`).
    backoff_base_s: float = 0.1

    def validate(self) -> None:
        if self.max_restarts_per_shard < 0:
            raise TargetError(
                f"max_restarts_per_shard must be >= 0, "
                f"got {self.max_restarts_per_shard}"
            )
        if self.restart_budget < 0:
            raise TargetError(
                f"restart_budget must be >= 0, got {self.restart_budget}"
            )
        if self.backoff_base_s < 0:
            raise TargetError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "max_restarts_per_shard": self.max_restarts_per_shard,
            "restart_budget": self.restart_budget,
            "backoff_base_s": self.backoff_base_s,
        }


class Supervisor:
    """Per-run restart bookkeeping for one pool submission.

    Tracks, per shard: the current *attempt* (1 = the original worker),
    the completed watermark (-1 until the first ack), restart count, and
    abandonment.  :meth:`decide` is the whole state machine: a failure
    either earns a restart (counters advance, attempt bumps) or an
    abandonment (budget exhausted).  Everything is recorded in
    :attr:`events` so operators can reconstruct the run's history from
    the partial-result error or the telemetry snapshot.
    """

    RESTART = "restart"
    ABANDON = "abandon"

    def __init__(
        self,
        policy: RestartPolicy,
        seed: object,
        program: str,
        workers: int,
    ) -> None:
        policy.validate()
        self.policy = policy
        self.seed = seed
        self.program = program
        self.workers = workers
        self.attempts: Dict[int, int] = {s: 1 for s in range(workers)}
        self.watermarks: Dict[int, int] = {s: -1 for s in range(workers)}
        self.restarts: Dict[int, int] = {s: 0 for s in range(workers)}
        self.abandoned: set = set()
        self.total_restarts = 0
        self.events: List[Dict[str, object]] = []
        #: Last structured failure detail per shard (worker error dict,
        #: exit code, ...) — carried into the partial-result error.
        self.last_failure: Dict[int, Dict[str, object]] = {}

    # ------------------------------------------------------------------
    def ack(self, shard: int, watermark: Optional[int]) -> None:
        """Fold a completed-watermark acknowledgement (monotone max)."""
        if watermark is None:
            return
        if int(watermark) > self.watermarks[shard]:
            self.watermarks[shard] = int(watermark)

    def decide(
        self, shard: int, reason: str, detail: Optional[Dict[str, object]] = None
    ) -> str:
        """Record one failure; returns ``"restart"`` or ``"abandon"``."""
        self.last_failure[shard] = dict(detail or {}, reason=reason)
        exhausted = (
            self.restarts[shard] >= self.policy.max_restarts_per_shard
            or self.total_restarts >= self.policy.restart_budget
        )
        if exhausted:
            self.abandoned.add(shard)
            self.events.append(
                {
                    "event": self.ABANDON,
                    "program": self.program,
                    "shard": shard,
                    "attempt": self.attempts[shard],
                    "watermark": self.watermarks[shard],
                    "reason": reason,
                    "restarts": self.restarts[shard],
                }
            )
            return self.ABANDON
        self.restarts[shard] += 1
        self.total_restarts += 1
        self.attempts[shard] += 1
        self.events.append(
            {
                "event": self.RESTART,
                "program": self.program,
                "shard": shard,
                "attempt": self.attempts[shard],
                "watermark": self.watermarks[shard],
                "reason": reason,
            }
        )
        return self.RESTART

    def backoff_s(self, shard: int) -> float:
        """Delay before the shard's *current* restart (after
        :meth:`decide` returned ``"restart"``).

        Exponential in the shard's restart ordinal, capped, and scaled
        by a jitter factor drawn from a stream seeded
        ``{seed}:{program}:restart:{shard}:{ordinal}`` — fully
        deterministic, so a chaos soak's timing replays from its seed
        while a real thundering herd still decorrelates (every shard and
        every attempt draws from its own stream).
        """
        ordinal = self.restarts[shard]
        if ordinal <= 0:
            return 0.0
        delay = self.policy.backoff_base_s * (2.0 ** (ordinal - 1))
        delay = min(delay, BACKOFF_MAX_S)
        rng = random.Random(
            f"{self.seed}:{self.program}:restart:{shard}:{ordinal}"
        )
        delay *= 1.0 + BACKOFF_JITTER * rng.random()
        return min(delay, BACKOFF_MAX_S)

    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        return bool(self.abandoned)

    def summary(self) -> Dict[str, object]:
        """JSON-able restart ledger for merged blocks / errors."""
        return {
            "restarts": {
                str(s): n for s, n in sorted(self.restarts.items()) if n
            },
            "total_restarts": self.total_restarts,
            "watermarks": {
                str(s): w for s, w in sorted(self.watermarks.items())
            },
            "abandoned": sorted(self.abandoned),
            "events": list(self.events),
        }
