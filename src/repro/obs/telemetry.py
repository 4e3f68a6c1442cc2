"""Live telemetry plane: rolling merged views of a running fleet.

Long soaks used to be black boxes: per-shard metrics existed only after
join, and a dead worker took its counters with it.  This module layers
a *live* export surface over the existing
:class:`~repro.obs.metrics.MetricsRegistry` / pkttrace substrate:

* :class:`LiveTelemetry` — a thread-safe rolling view.  Engine workers
  (or a single-process soak loop) periodically publish epoch-stamped
  cumulative registry snapshots plus a ledger block; the view keeps the
  latest snapshot per ``(program, shard)`` source and merges them on
  demand with the registry's commutative ``merge``.  Because each
  source's snapshot is cumulative and replace-by-epoch, every merged
  counter is monotonically non-decreasing over a run — the property the
  CI telemetry-smoke job asserts.
* :class:`StatsServer` — a daemon-thread HTTP server over a
  :class:`LiveTelemetry`: ``/stats.json`` (the merged snapshot as JSON)
  and ``/metrics`` (Prometheus text exposition), bound to localhost.
* :class:`FlightRecorder` — a bounded ring buffer of the last N verdict
  records (and any packet traces handed in), dumped on fault, failed
  ledger, or worker death for post-mortem attribution without paying
  for full per-packet tracing.
* :class:`TraceWriter` — streams pkttrace events as schema-versioned
  JSON lines (``--trace-out``).

Publishing is observation-only by construction: nothing here touches
packets, verdicts, or the digest input stream, so a run's verdict
digest is identical with telemetry on or off (pinned by test and CI).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, IO, List, Optional, Tuple, Union

from repro.obs.metrics import MetricsRegistry

#: Version stamp carried by every exported snapshot / JSONL line.
TELEMETRY_SCHEMA_VERSION = 1

#: Histogram keys with this marker get a quantile block in snapshots.
_LATENCY_MARKER = "latency_us"


# ======================================================================
# Rolling live view
# ======================================================================
class LiveTelemetry:
    """Rolling merged view over per-shard cumulative snapshots.

    Sources are ``(program, shard)`` pairs; each :meth:`publish` replaces
    that source's previous snapshot (stale epochs are ignored, so
    out-of-order queue delivery cannot roll a counter backwards).  The
    merged view is recomputed on read — publishes stay O(1) so the hot
    side never waits on an exporter.
    """

    #: Bounded supervision-event history kept per view (restarts,
    #: abandonments); old entries age out rather than grow a long soak.
    MAX_EVENTS = 256

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # (program, shard) -> {"epoch", "metrics", "ledger", "final"}
        self._sources: Dict[Tuple[str, int], Dict[str, object]] = {}
        self._events: deque = deque(maxlen=self.MAX_EVENTS)
        self._publishes = 0
        self._started = time.time()

    # ------------------------------------------------------------------
    def publish(
        self,
        program: str,
        shard: int,
        epoch: int,
        metrics: Dict[str, Dict[str, object]],
        ledger: Optional[Dict[str, int]] = None,
        final: bool = False,
        run: Optional[int] = None,
        watermark: Optional[int] = None,
    ) -> bool:
        """Install one source's cumulative snapshot; returns False if a
        newer epoch for the same source was already present.

        ``run`` identifies a worker-pool submission: each submit's
        workers count epochs from 1 again, so when the incoming ``run``
        differs from the stored one the snapshot *replaces* the source
        outright instead of losing the epoch comparison to the previous
        run's higher epochs.
        """
        key = (program, int(shard))
        with self._lock:
            current = self._sources.get(key)
            if (
                current is not None
                and current.get("run") == run
                and int(current["epoch"]) >= epoch  # type: ignore[arg-type]
            ):
                return False
            self._sources[key] = {
                "epoch": int(epoch),
                "metrics": metrics,
                "ledger": dict(ledger or {}),
                "final": bool(final),
                "run": run,
                "watermark": watermark,
            }
            self._publishes += 1
        return True

    def record_event(self, event: Dict[str, object]) -> None:
        """Append one supervision event (restart/abandon) to the bounded
        event history exposed by :meth:`snapshot`."""
        with self._lock:
            self._events.append(dict(event, ts=round(time.time(), 3)))

    def sources(self) -> List[Tuple[str, int]]:
        with self._lock:
            return sorted(self._sources)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sources)

    # ------------------------------------------------------------------
    def merged_registry(self) -> MetricsRegistry:
        """Fold the latest snapshot of every source into one registry."""
        registry = MetricsRegistry()
        with self._lock:
            snaps = [dict(entry["metrics"]) for entry in self._sources.values()]  # type: ignore[arg-type]
        for snap in snaps:
            registry.merge(snap)
        return registry

    def snapshot(self) -> Dict[str, object]:
        """The JSON-able rolling view: per-shard epochs + ledgers, the
        merged metrics snapshot, a summed ledger, and p50/p95/p99 for
        every ``latency_us`` histogram."""
        with self._lock:
            items = sorted(self._sources.items())
            publishes = self._publishes
            started = self._started
            events = list(self._events)
        registry = MetricsRegistry()
        ledger: Dict[str, int] = {}
        shards = []
        for (program, shard), entry in items:
            registry.merge(entry["metrics"])  # type: ignore[arg-type]
            for k, v in entry["ledger"].items():  # type: ignore[union-attr]
                ledger[k] = ledger.get(k, 0) + int(v)
            shard_entry = {
                "program": program,
                "shard": shard,
                "epoch": entry["epoch"],
                "final": entry["final"],
                "ledger": entry["ledger"],
            }
            if entry.get("run") is not None:
                shard_entry["run"] = entry["run"]
            if entry.get("watermark") is not None:
                shard_entry["watermark"] = entry["watermark"]
            shards.append(shard_entry)
        latency = {
            key: {
                "count": registry.histogram(key)["count"],  # type: ignore[index]
                **(registry.quantiles(key) or {}),
            }
            for key in registry.keys()
            if _LATENCY_MARKER in key and registry.histogram(key) is not None
        }
        return {
            "schema": TELEMETRY_SCHEMA_VERSION,
            "uptime_s": round(time.time() - started, 3),
            "publishes": publishes,
            "shards": shards,
            "ledger": ledger,
            "latency_us": latency,
            "metrics": registry.snapshot(),
            "events": events,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        return render_prometheus(self.snapshot())


# ======================================================================
# Prometheus text exposition
# ======================================================================
def _prom_name(key: str) -> str:
    out = []
    for ch in key:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    name = "".join(out)
    if name and name[0].isdigit():
        name = "_" + name
    return "repro_" + name


def render_prometheus(snapshot: Dict[str, object]) -> str:
    """Render a :meth:`LiveTelemetry.snapshot` (or bare registry
    snapshot) in Prometheus text exposition format.  Histogram log2
    buckets become cumulative ``le`` buckets with bound ``2^e``."""
    metrics = snapshot.get("metrics", snapshot)
    lines: List[str] = []
    for key, value in sorted(metrics.get("counters", {}).items()):  # type: ignore[union-attr]
        name = _prom_name(key)
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {value}")
    for key, value in sorted(metrics.get("gauges", {}).items()):  # type: ignore[union-attr]
        name = _prom_name(key)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {value}")
    for key, hist in sorted(metrics.get("histograms", {}).items()):  # type: ignore[union-attr]
        name = _prom_name(key)
        lines.append(f"# TYPE {name} histogram")
        cumulative = 0
        for exp in sorted(int(e) for e in hist.get("buckets", {})):
            cumulative += int(hist["buckets"][str(exp)])
            lines.append(
                f'{name}_bucket{{le="{2.0 ** exp:g}"}} {cumulative}'
            )
        lines.append(f'{name}_bucket{{le="+Inf"}} {hist["count"]}')
        lines.append(f"{name}_sum {hist['sum']}")
        lines.append(f"{name}_count {hist['count']}")
    for entry in snapshot.get("shards", ()):  # type: ignore[union-attr]
        labels = (
            f'program="{entry["program"]}",shard="{entry["shard"]}"'
        )
        lines.append(f"repro_shard_epoch{{{labels}}} {entry['epoch']}")
    return "\n".join(lines) + "\n"


# ======================================================================
# HTTP export
# ======================================================================
class _StatsHandler(BaseHTTPRequestHandler):
    server_version = "repro-stats/1"
    telemetry: LiveTelemetry  # injected by StatsServer

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        path = self.path.split("?", 1)[0]
        if path in ("/", "/stats.json", "/stats"):
            body = self.telemetry.to_json().encode()
            ctype = "application/json"
        elif path == "/metrics":
            body = self.telemetry.to_prometheus().encode()
            ctype = "text/plain; version=0.0.4"
        elif path == "/healthz":
            body, ctype = b"ok\n", "text/plain"
        else:
            self.send_error(404, "unknown path (try /stats.json, /metrics)")
            return
        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass  # never spam the run's stdout with access logs


class StatsServer:
    """Serve a :class:`LiveTelemetry` over HTTP from a daemon thread.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    construction.  The server never touches the dataplane — it only
    reads published snapshots under the view's lock.
    """

    def __init__(
        self, telemetry: LiveTelemetry, port: int = 0, host: str = "127.0.0.1"
    ) -> None:
        handler = type("BoundStatsHandler", (_StatsHandler,), {
            "telemetry": telemetry,
        })
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self.telemetry = telemetry
        self.host = host
        self.port = int(self._httpd.server_address[1])
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-stats-{self.port}",
            daemon=True,
        )

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "StatsServer":
        self._thread.start()
        return self

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread.is_alive():
            self._thread.join(timeout=5)

    def __enter__(self) -> "StatsServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()


# ======================================================================
# Flight recorder
# ======================================================================
class FlightRecorder:
    """Bounded ring of the last N per-packet outcomes.

    Recording is a tuple build plus a deque append — cheap enough to
    leave on for whole soaks, and :meth:`record_batch` builds only the
    last ``capacity`` of a batch, the ones the ring keeps — and the ring
    only becomes dicts at :meth:`dump` time (on fault, ledger mismatch,
    or worker death).  ``capacity=0`` disables recording entirely.
    """

    __slots__ = ("capacity", "shard", "_ring")

    def __init__(self, capacity: int = 64, shard: Optional[int] = None) -> None:
        self.capacity = int(capacity)
        self.shard = shard
        self._ring: deque = deque(maxlen=max(self.capacity, 0) or None)

    def __len__(self) -> int:
        return len(self._ring) if self.capacity > 0 else 0

    def record(self, index: int, verdict, trace=None) -> None:
        """Remember one verdict (``repro.targets.faults.Verdict``)."""
        if self.capacity <= 0:
            return
        self._ring.append((
            index,
            verdict.kind,
            len(verdict.outputs),
            verdict.units,
            dict(verdict.reasons) if verdict.reasons else None,
            verdict.error,
            trace.to_dict() if trace is not None else None,
        ))

    def record_batch(self, indices, verdicts, traces) -> None:
        """:meth:`record` each ``(index, verdict, trace)`` in order; the
        ring is the same as after recording all of them."""
        keep = self.capacity
        if keep <= 0:
            return
        for index, verdict, trace in zip(
            indices[-keep:], verdicts[-keep:], traces[-keep:]
        ):
            self.record(index, verdict, trace)

    def note(self, index: int, event: str, detail: str) -> None:
        """Remember a non-verdict event (e.g. an uncaught escape)."""
        if self.capacity <= 0:
            return
        self._ring.append((index, event, 0, 0, None, detail, None))

    def dump(self) -> List[Dict[str, object]]:
        """The ring as JSON-able dicts, oldest first."""
        out = []
        for index, kind, emits, units, reasons, error, trace in self._ring:
            entry: Dict[str, object] = {
                "packet": index,
                "kind": kind,
                "emits": emits,
                "units": units,
            }
            if self.shard is not None:
                entry["shard"] = self.shard
            if reasons:
                entry["reasons"] = reasons
            if error:
                entry["error"] = error
            if trace is not None:
                entry["trace"] = trace
            out.append(entry)
        return out


# ======================================================================
# JSONL packet-trace streaming
# ======================================================================
class TraceWriter:
    """Stream pkttrace events as JSON lines (``--trace-out FILE.jsonl``).

    Each line is one packet:
    ``{"schema": 1, "packet": i, "program": ..., "events": [...]}`` —
    machine-consumable, unlike ``PacketTrace.render``'s pretty-printing.
    """

    def __init__(self, destination: Union[str, IO[str]]) -> None:
        if isinstance(destination, str):
            self._fh: IO[str] = open(destination, "w", encoding="utf-8")
            self._owns = True
        else:
            self._fh = destination
            self._owns = False
        self.lines = 0

    def write(
        self,
        trace,
        index: int,
        program: Optional[str] = None,
        verdict: Optional[str] = None,
    ) -> None:
        record: Dict[str, object] = {
            "schema": TELEMETRY_SCHEMA_VERSION,
            "packet": index,
        }
        if program is not None:
            record["program"] = program
        if verdict is not None:
            record["verdict"] = verdict
        record.update(trace.to_dict())
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        self.lines += 1

    def close(self) -> None:
        self._fh.flush()
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ======================================================================
# Snapshot readers (`repro stats`)
# ======================================================================
def fetch_snapshot(source: str, timeout: float = 5.0) -> Dict[str, object]:
    """Load a telemetry snapshot from a URL, ``host:port``, bare port,
    or JSON file path."""
    target = source
    if target.isdigit():
        target = f"http://127.0.0.1:{target}/stats.json"
    elif ":" in target and not target.startswith("http") and "/" not in target:
        target = f"http://{target}/stats.json"
    if target.startswith("http://") or target.startswith("https://"):
        import urllib.parse
        import urllib.request

        if urllib.parse.urlparse(target).path in ("", "/"):
            target = target.rstrip("/") + "/stats.json"
        with urllib.request.urlopen(target, timeout=timeout) as resp:
            return json.loads(resp.read().decode())
    with open(source, "r", encoding="utf-8") as fh:
        return json.load(fh)


def render_stats(snapshot: Dict[str, object]) -> str:
    """Human-readable rendering of a telemetry snapshot."""
    lines: List[str] = []
    schema = snapshot.get("schema", "?")
    lines.append(
        f"telemetry snapshot (schema {schema}, "
        f"{snapshot.get('publishes', '?')} publishes, "
        f"up {snapshot.get('uptime_s', '?')}s)"
    )
    shards = snapshot.get("shards", [])
    for entry in shards:  # type: ignore[union-attr]
        ledger = entry.get("ledger", {})
        watermark = (
            f" wm={entry['watermark']}"
            if entry.get("watermark") is not None
            else ""
        )
        lines.append(
            f"  {entry['program']}/shard{entry['shard']} "
            f"epoch={entry['epoch']}{' final' if entry.get('final') else ''}: "
            f"in={ledger.get('in', 0)} out={ledger.get('out', 0)} "
            f"dropped={ledger.get('dropped', 0)} "
            f"killed={ledger.get('killed', 0)}{watermark}"
        )
    events = snapshot.get("events", [])
    if events:
        lines.append(f"  supervision events ({len(events)}):")
        for event in events:  # type: ignore[union-attr]
            lines.append(
                f"    {event.get('event', '?')} "
                f"{event.get('program', '?')}/shard{event.get('shard', '?')} "
                f"attempt={event.get('attempt', '?')} "
                f"reason={event.get('reason', '?')} "
                f"watermark={event.get('watermark', '?')}"
            )
    ledger = snapshot.get("ledger", {})
    if ledger:
        lines.append(
            "  merged ledger: "
            + " ".join(f"{k}={v}" for k, v in sorted(ledger.items()))  # type: ignore[union-attr]
        )
    latency = snapshot.get("latency_us", {})
    if latency:
        lines.append("  latency (us):")
        for key, q in sorted(latency.items()):  # type: ignore[union-attr]
            quants = " ".join(
                f"{name}={q[name]:.1f}"
                for name in ("p50", "p95", "p99")
                if q.get(name) is not None
            )
            lines.append(f"    {key}: n={q.get('count', 0)} {quants}")
    metrics = snapshot.get("metrics", {})
    counters = metrics.get("counters", {})  # type: ignore[union-attr]
    if counters:
        lines.append("  counters:")
        for key, value in sorted(counters.items()):
            lines.append(f"    {key} = {value}")
    return "\n".join(lines)
