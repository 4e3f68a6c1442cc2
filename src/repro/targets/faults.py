"""Fault containment for the behavioral target (and fault *injection*).

A real RMT switch drops a malformed packet and keeps forwarding; the
behavioral target used to be fail-stop instead — one bad packet raised
:class:`~repro.errors.TargetError` out of the switch and killed the run.
This module provides the three pieces that turn the switch into a
fault-contained boundary:

* :class:`Verdict` — the structured per-packet outcome
  (EMIT/DROP/KILLED) the switch returns instead of raising.  Every
  packet *unit* (the injected packet, each multicast copy, each extra
  pipeline result) terminates exactly once as an emit or a
  reason-coded drop, so ``len(outputs) + drops == units`` always holds
  and accounting sums to inputs.
* :class:`ResourceGuards` — bounds that convert runaway executions into
  bounded drops: an interpreter step budget, a native-parser step
  budget, the recirculation limit, a multicast fan-out cap, and the
  orchestration out-buffer capacity.
* :class:`FaultPlan` — a deterministic, seedable fault injector for
  soak/fuzz runs: corrupt or truncate packet bytes, fail a named table
  lookup, trip an extern, exhaust a buffer, at configurable per-site
  rates.

Reason codes are stable machine-readable slugs (:data:`REASONS`); the
switch counts drops per reason in ``Switch.drops_by_reason`` and, when
metrics are enabled, under ``switch.drops.<reason>``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import TargetError

#: Stable drop/kill reason codes (documented in DESIGN.md §8).
REASONS = (
    "pipeline-drop",      # program dropped the packet (im.drop / no route)
    "drop-port",          # egressed on the drop port (0xFF)
    "parser-error",       # homogenized parser flagged upa_parser_err
    "parser-reject",      # native parser transitioned to reject
    "truncated-extract",  # native parser extracted past end of packet
    "recirc-limit",       # recirculation depth guard tripped
    "step-budget",        # interpreter statement budget exhausted
    "parse-depth",        # native parser state-step budget exhausted
    "bytestack-bounds",   # byte-stack length left the operational region
    "mcast-no-group",     # mcast_grp set but no such group programmed
    "mcast-misconfig",    # multicast group names an out-of-range port
    "mcast-fanout",       # multicast copies beyond the fan-out cap
    "buffer-exhausted",   # out_buf / egress buffer capacity exceeded
    "extern-fault",       # an extern (or injected table fault) tripped
    "internal",           # any other contained exception
)

DEFAULT_STEP_BUDGET = 200_000


class FaultError(TargetError):
    """A guard or injected fault tripped inside the behavioral target.

    Carries a stable ``reason`` (one of :data:`REASONS`) and an optional
    ``site`` naming where it tripped (e.g. ``table:ipv4_lpm_tbl``).  The
    instance ``code`` is the reason, so CLI/JSON error output stays
    machine-readable.
    """

    def __init__(
        self, reason: str, message: Optional[str] = None, site: Optional[str] = None
    ) -> None:
        self.reason = reason
        self.site = site
        self.code = reason
        text = message or f"fault: {reason}"
        if site:
            text += f" (at {site})"
        super().__init__(text)


@dataclass
class ResourceGuards:
    """Bounds that turn runaway executions into bounded, counted drops."""

    max_recirculations: int = 8
    interp_step_budget: int = DEFAULT_STEP_BUDGET
    parser_step_budget: int = 1024
    max_mcast_fanout: int = 64
    max_out_buf: int = 1024

    def to_dict(self) -> Dict[str, int]:
        return {
            "max_recirculations": self.max_recirculations,
            "interp_step_budget": self.interp_step_budget,
            "parser_step_budget": self.parser_step_budget,
            "max_mcast_fanout": self.max_mcast_fanout,
            "max_out_buf": self.max_out_buf,
        }


@dataclass
class Verdict:
    """Structured outcome of one packet through the switch.

    ``units`` counts packet units created while processing (the injected
    packet plus every extra pipeline result and multicast copy); each
    unit terminates exactly once, so ``len(outputs) + drops == units``
    (:meth:`balanced`) is the switch's accounting invariant.
    """

    outputs: List[object] = field(default_factory=list)
    reasons: Dict[str, int] = field(default_factory=dict)
    units: int = 1
    killed: bool = False
    error: Optional[str] = None

    EMIT = "emit"
    DROP = "drop"
    KILLED = "killed"

    @property
    def kind(self) -> str:
        if self.killed:
            return self.KILLED
        return self.EMIT if self.outputs else self.DROP

    @property
    def drops(self) -> int:
        return sum(self.reasons.values())

    def balanced(self) -> bool:
        return len(self.outputs) + self.drops == self.units

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "emits": len(self.outputs),
            "drops": dict(self.reasons),
            "units": self.units,
            "killed": self.killed,
            "error": self.error,
        }


# ======================================================================
# Fault injection
# ======================================================================

#: Site categories a FaultPlan knows how to trip.
SITE_CATEGORIES = ("corrupt", "truncate", "table", "extern", "buffer")


class FaultPlan:
    """Deterministic, seedable fault injector.

    A plan maps *sites* to trip rates in ``[0, 1]``.  A site is either a
    bare category (``"table"`` trips every table lookup) or a named one
    (``"table:ipv4_lpm_tbl"``; the named rate wins over the category).
    Categories:

    * ``corrupt`` — XOR a random byte of the packet at injection time,
    * ``truncate`` — cut the packet short at injection time,
    * ``table`` / ``table:<name>`` — fail a table lookup
      (``extern-fault``),
    * ``extern`` / ``extern:<name>`` — trip an extern call
      (``extern-fault``),
    * ``buffer`` — exhaust the egress/out buffer
      (``buffer-exhausted``).

    Each site draws from its own :class:`random.Random` stream seeded
    with ``f"{seed}/{site}"``, so the same seed and plan yield an
    identical fault sequence regardless of which *other* sites exist —
    the determinism the soak harness asserts.

    ``sites`` is fixed at construction and never mutated afterwards:
    :meth:`trip` resolves each ``(category, name)`` to its site once per
    plan and remembers the answer until :meth:`reset`.
    """

    def __init__(
        self,
        seed: object = 0,
        sites: Optional[Mapping[str, float]] = None,
    ) -> None:
        # int or str; either seeds the per-site streams deterministically.
        self.seed = seed
        self.sites: Dict[str, float] = dict(sites or {})
        for site, rate in self.sites.items():
            if not (0.0 <= float(rate) <= 1.0):
                raise TargetError(f"fault site {site!r} rate {rate} not in [0, 1]")
        self.trips: Dict[str, int] = {}
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Rewind every site's random stream to the seed state."""
        self._rngs: Dict[str, random.Random] = {
            site: random.Random(f"{self.seed}/{site}") for site in self.sites
        }
        #: ``(category, name)`` -> site, filled by :meth:`trip`.
        self._resolved: Dict[Tuple[str, Optional[str]], Optional[str]] = {}
        self.trips.clear()

    @classmethod
    def from_spec(cls, spec: Mapping[str, object]) -> "FaultPlan":
        """Build from a JSON-able spec: ``{"seed": 1, "sites": {...}}``."""
        seed = spec.get("seed", 0)
        if not isinstance(seed, (int, str)):
            raise TargetError("fault spec 'seed' must be an int or string")
        sites = spec.get("sites", {})
        if not isinstance(sites, Mapping):
            raise TargetError("fault spec 'sites' must be a mapping of site -> rate")
        for site in sites:
            category = str(site).split(":", 1)[0]
            if category not in SITE_CATEGORIES:
                raise TargetError(
                    f"unknown fault site category {category!r}; "
                    f"known: {', '.join(SITE_CATEGORIES)}"
                )
        return cls(seed=seed, sites={str(k): float(v) for k, v in sites.items()})

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_spec(json.loads(text))

    @classmethod
    def uniform(cls, rate: float, seed: object = 0) -> "FaultPlan":
        """A spread of all five categories scaled off one base rate."""
        return cls(
            seed=seed,
            sites={
                "corrupt": rate,
                "truncate": rate / 2,
                "table": rate / 2,
                "extern": rate / 4,
                "buffer": rate / 8,
            },
        )

    def to_dict(self) -> Dict[str, object]:
        return {"seed": self.seed, "sites": dict(self.sites)}

    # ------------------------------------------------------------------
    def _site_for(self, category: str, name: Optional[str]) -> Optional[str]:
        if name is not None:
            named = f"{category}:{name}"
            if named in self.sites:
                return named
            # Composed pipelines prefix declaration names
            # (``main_l3_i_ipv4_i_ipv4_lpm_tbl``); accept the same
            # unambiguous suffix the RuntimeAPI accepts.
            prefix = f"{category}:"
            for site in self.sites:
                if site.startswith(prefix):
                    suffix = site[len(prefix):]
                    if name == suffix or name.endswith(f"_{suffix}"):
                        return site
        return category if category in self.sites else None

    def trip(self, category: str, name: Optional[str] = None) -> bool:
        """Deterministically decide whether this site faults now."""
        key = (category, name)
        try:
            site = self._resolved[key]
        except KeyError:
            site = self._resolved[key] = self._site_for(category, name)
        if site is None:
            return False
        rate = self.sites[site]
        if rate <= 0.0:
            return False
        tripped = self._rngs[site].random() < rate
        if tripped:
            self.trips[site] = self.trips.get(site, 0) + 1
        return tripped

    def mutate(self, data: bytes) -> Tuple[bytes, List[str]]:
        """Apply packet-byte faults (corrupt/truncate) at injection time.

        Returns the (possibly) mutated bytes and the list of sites that
        fired, for trace events.
        """
        applied: List[str] = []
        if data and self.trip("corrupt"):
            rng = self._rngs[self._site_for("corrupt", None)]  # type: ignore[index]
            pos = rng.randrange(len(data))
            flip = rng.randrange(1, 256)
            data = data[:pos] + bytes([data[pos] ^ flip]) + data[pos + 1 :]
            applied.append("corrupt")
        if data and self.trip("truncate"):
            rng = self._rngs[self._site_for("truncate", None)]  # type: ignore[index]
            data = data[: rng.randrange(len(data))]
            applied.append("truncate")
        return data, applied


# ======================================================================
# Process-level chaos injection
# ======================================================================

#: Actions a ChaosPlan knows how to inject.  ``kill`` and ``stop`` are
#: fired by the parent-side dispatcher (SIGKILL / SIGSTOP-then-SIGCONT
#: against the shard's worker process) when stream generation reaches
#: the event's packet index; ``stall`` runs inside the worker (a sleep
#: before processing the named packet), exercising the ring-stall /
#: watchdog recovery path.
CHAOS_ACTIONS = ("kill", "stop", "stall")


@dataclass
class ChaosEvent:
    """One scheduled process-level fault.

    ``pkt`` is a *global* packet index: parent-side actions fire when
    the dispatcher's stream generation reaches it (an index past the
    end of the stream fires after the final flush — a "final epoch"
    kill); a ``stall`` fires in the worker right before it processes
    that packet.  ``attempt`` filters worker-side events to one worker
    incarnation (default 1, the original), so a replacement replica
    does not re-trip the stall it was restarted to survive.
    """

    action: str
    shard: int
    pkt: int
    #: Seconds until the parent SIGCONTs a stopped worker.
    resume_s: float = 0.25
    #: Worker-side sleep for ``stall`` events.
    stall_s: float = 1.0
    #: Worker attempt a ``stall`` applies to (1 = original worker).
    attempt: int = 1
    fired: bool = False


class ChaosPlan:
    """A deterministic schedule of process-level faults.

    Mirrors :class:`FaultPlan`'s philosophy one layer up: faults are
    *planned*, not random — the spec names exactly which shard dies at
    which packet index, so a chaos soak replays bit-for-bit and its
    digest can be pinned against an undisturbed run.

    Spec grammar (CLI ``--chaos``, repeatable)::

        kill:shard=K@pkt=N                 SIGKILL shard K's worker
        stop:shard=K@pkt=N[@resume=S]      SIGSTOP, SIGCONT after S sec
        stall:shard=K@pkt=N[@for=S][@attempt=A]
                                           worker sleeps S sec at pkt N
    """

    def __init__(self, events: List[ChaosEvent]) -> None:
        for event in events:
            if event.action not in CHAOS_ACTIONS:
                raise TargetError(
                    f"unknown chaos action {event.action!r}; "
                    f"known: {', '.join(CHAOS_ACTIONS)}"
                )
            if event.shard < 0:
                raise TargetError(f"chaos shard must be >= 0, got {event.shard}")
            if event.pkt < 0:
                raise TargetError(f"chaos pkt must be >= 0, got {event.pkt}")
        self.events = list(events)

    # ------------------------------------------------------------------
    @classmethod
    def from_specs(cls, specs) -> "ChaosPlan":
        """Parse one spec string or a list of them."""
        if isinstance(specs, str):
            specs = [specs]
        return cls([cls._parse(spec) for spec in specs])

    @staticmethod
    def _parse(spec: str) -> ChaosEvent:
        action, _, rest = spec.partition(":")
        action = action.strip()
        fields: Dict[str, str] = {}
        for pair in filter(None, rest.split("@")):
            key, eq, value = pair.partition("=")
            if not eq:
                raise TargetError(
                    f"bad chaos spec {spec!r}: expected key=value, got {pair!r}"
                )
            key = key.strip()
            if key in fields:
                raise TargetError(
                    f"bad chaos spec {spec!r}: repeated field {key!r}"
                )
            fields[key] = value.strip()
        try:
            shard = int(fields.pop("shard"))
            pkt = int(fields.pop("pkt"))
        except KeyError as exc:
            raise TargetError(
                f"bad chaos spec {spec!r}: missing required field {exc}"
            ) from None
        except ValueError as exc:
            raise TargetError(f"bad chaos spec {spec!r}: {exc}") from None
        event = ChaosEvent(action=action, shard=shard, pkt=pkt)
        try:
            if "resume" in fields:
                event.resume_s = float(fields.pop("resume"))
            if "for" in fields:
                event.stall_s = float(fields.pop("for"))
            if "attempt" in fields:
                event.attempt = int(fields.pop("attempt"))
        except ValueError as exc:
            raise TargetError(f"bad chaos spec {spec!r}: {exc}") from None
        if fields:
            raise TargetError(
                f"bad chaos spec {spec!r}: unknown field(s) "
                f"{', '.join(sorted(fields))} "
                f"(known: shard, pkt, resume, for, attempt)"
            )
        if event.action not in CHAOS_ACTIONS:
            raise TargetError(
                f"unknown chaos action {event.action!r}; "
                f"known: {', '.join(CHAOS_ACTIONS)}"
            )
        return event

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Rewind fired flags (a pool reuses one plan across submits)."""
        for event in self.events:
            event.fired = False

    def parent_events(self) -> List[ChaosEvent]:
        """Events the parent-side dispatcher fires (kill/stop)."""
        return [e for e in self.events if e.action in ("kill", "stop")]

    def worker_stalls(self, shard: int, attempt: int):
        """``(pkt, seconds)`` stalls for one worker incarnation."""
        return [
            (e.pkt, e.stall_s)
            for e in self.events
            if e.action == "stall"
            and e.shard == shard
            and e.attempt == attempt
        ]

    def to_dict(self) -> Dict[str, object]:
        return {
            "events": [
                {
                    "action": e.action,
                    "shard": e.shard,
                    "pkt": e.pkt,
                    **({"resume_s": e.resume_s} if e.action == "stop" else {}),
                    **(
                        {"stall_s": e.stall_s, "attempt": e.attempt}
                        if e.action == "stall"
                        else {}
                    ),
                }
                for e in self.events
            ]
        }

    def __len__(self) -> int:
        return len(self.events)
