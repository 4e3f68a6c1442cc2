"""Per-packet execution traces for the behavioral target.

A :class:`PacketTrace` is an ordered event log of what the interpreter
did to one packet: parser extraction, every MAT apply (hit/miss, the
matched entry, the selected action and its arguments), deparsing/emits,
and the final disposition (output port, drop).  Behavioral tests use it
to assert *why* a packet was forwarded, not just that it was::

    outs, trace = instance.process_traced(pkt, in_port=1)
    assert trace.hit_sequence() == ["ipv4_lpm_tbl:process", "forward_tbl:forward"]

Tracing is opt-in per packet; the untraced path costs one ``is None``
check per event site.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: Version stamp for machine-readable trace exports (``to_json_line``,
#: ``--trace-out``); bump when the event schema changes shape.
TRACE_SCHEMA_VERSION = 1


@dataclass
class TraceEvent:
    """One step of packet processing."""

    kind: str  # extract | parser_state | table | deparse | emit | output | drop | fault
    data: Dict[str, object] = field(default_factory=dict)

    def __getitem__(self, key: str) -> object:
        return self.data[key]

    def get(self, key: str, default: object = None) -> object:
        return self.data.get(key, default)

    def describe(self) -> str:
        if self.kind == "table":
            verdict = "hit" if self.data.get("hit") else "miss"
            entry = self.data.get("entry")
            where = f" entry#{entry}" if entry is not None else ""
            args = self.data.get("args") or []
            argtext = f"({', '.join(str(a) for a in args)})" if args else ""
            return (
                f"table {self.data['table']} keys={self.data.get('keys')} "
                f"-> {verdict}{where} action={self.data.get('action')}{argtext}"
            )
        detail = " ".join(f"{k}={v}" for k, v in self.data.items())
        return f"{self.kind} {detail}".rstrip()


class PacketTrace:
    """Ordered event log for one packet's trip through a pipeline.

    ``shard`` tags the trace with the engine shard that processed the
    packet (None outside sharded runs), so traces collected from
    parallel workers stay attributable after merging.
    """

    def __init__(self, shard: Optional[int] = None) -> None:
        self.events: List[TraceEvent] = []
        self.shard = shard

    # ------------------------------------------------------------------
    # Recording (called by the interpreter/pipeline)
    # ------------------------------------------------------------------
    def add(self, kind: str, **data: object) -> TraceEvent:
        event = TraceEvent(kind=kind, data=data)
        self.events.append(event)
        return event

    def extract(self, source: str, length: int, **extra: object) -> None:
        self.add("extract", source=source, bytes=length, **extra)

    def parser_state(self, state: str) -> None:
        self.add("parser_state", state=state)

    def table(
        self,
        table: str,
        keys: Sequence[int],
        action: str,
        hit: bool,
        entry: Optional[int] = None,
        const: Optional[bool] = None,
        args: Sequence[int] = (),
    ) -> None:
        self.add(
            "table",
            table=table,
            keys=list(keys),
            action=action,
            hit=hit,
            entry=entry,
            const=const,
            args=list(args),
        )

    def emit(self, header: str, length: int) -> None:
        self.add("emit", header=header, bytes=length)

    def deparse(self, length: int, payload: int) -> None:
        self.add("deparse", bytes=length, payload=payload)

    def output(
        self, port: int, length: int, mcast_grp: int = 0, recirculate: bool = False
    ) -> None:
        self.add(
            "output",
            port=port,
            bytes=length,
            mcast_grp=mcast_grp,
            recirculate=recirculate,
        )

    def drop(self, reason: str) -> None:
        self.add("drop", reason=reason)

    def fault(self, site: str, **extra: object) -> None:
        """An injected fault fired at ``site`` (e.g. ``corrupt``,
        ``table:ipv4_lpm_tbl``)."""
        self.add("fault", site=site, **extra)

    # ------------------------------------------------------------------
    # Querying (called by tests and tools)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def tables(self) -> List[TraceEvent]:
        return self.of_kind("table")

    def hits(self) -> List[TraceEvent]:
        return [e for e in self.tables() if e.data.get("hit")]

    def misses(self) -> List[TraceEvent]:
        return [e for e in self.tables() if not e.data.get("hit")]

    def hit_sequence(self) -> List[str]:
        """``"table:action"`` for every MAT apply, in execution order."""
        return [f"{e.data['table']}:{e.data['action']}" for e in self.tables()]

    def dropped(self) -> bool:
        return any(e.kind == "drop" for e in self.events)

    def faults(self) -> List[TraceEvent]:
        return self.of_kind("fault")

    # ------------------------------------------------------------------
    def render(self) -> str:
        if not self.events:
            return "(empty packet trace)"
        return "\n".join(
            f"{i:3d}. {event.describe()}" for i, event in enumerate(self.events)
        )

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "events": [{"kind": e.kind, **e.data} for e in self.events],
        }
        if self.shard is not None:
            out["shard"] = self.shard
        return out

    def to_json_line(
        self, index: Optional[int] = None, program: Optional[str] = None
    ) -> str:
        """One compact, schema-versioned JSON line for this trace —
        the ``--trace-out FILE.jsonl`` record format."""
        record: Dict[str, object] = {"schema": TRACE_SCHEMA_VERSION}
        if index is not None:
            record["packet"] = index
        if program is not None:
            record["program"] = program
        record.update(self.to_dict())
        return json.dumps(record, separators=(",", ":"))
