"""Process-wide metrics registry: counters, gauges, histograms.

The compiler and the behavioral target report into the module-level
:data:`METRICS` registry, e.g.::

    METRICS.inc("frontend.tokens", len(tokens))
    METRICS.set_gauge("tna.schedule.stages_used", result.num_stages)
    METRICS.observe("tna.schedule.stage_occupancy", len(use.tables))

The registry is **disabled by default**: every report call returns
immediately after one attribute check, so instrumented hot paths pay
essentially nothing until someone opts in (``--metrics`` on the CLI, or
:func:`collecting` in tests).

The behavioral target reports ``interp.packets``, ``interp.table_hits``
/ ``interp.table_misses``, and ``interp.lookup.indexed`` /
``interp.lookup.scan`` — the last pair distinguishes O(1) indexed table
lookups (exact-hash, lpm-buckets) from linear scans (ternary/range
tables and the reference path).  Latency observations go under
``switch.latency_us.packet`` and ``pipeline.latency_us.{parse,lookup,
action,deparse}`` (microseconds; shared by both execution backends; the
per-stage pipeline latencies are sampled — see
:data:`LATENCY_SAMPLE_EVERY`).

Snapshots are plain dicts that round-trip through JSON losslessly:
histograms store ``count``/``sum``/``min``/``max`` plus fixed **log2
buckets** (bucket ``e`` counts values in ``[2^(e-1), 2^e)``, i.e.
``frexp(v)[1]``; the bucket key in a snapshot is the stringified
exponent) rather than raw samples, so p50/p95/p99 can be estimated
after any number of merges (:meth:`MetricsRegistry.quantile`).

Snapshots are also **mergeable**: :meth:`MetricsRegistry.merge` folds a
snapshot into a registry with commutative semantics (counters and
histogram count/sum/buckets add; histogram min/max take extrema;
gauges merge per their declared policy), so N worker processes can each
report a local snapshot and the parent can fold them in any order — the
sharded traffic engine (`repro.targets.engine`) and the live telemetry
plane (`repro.obs.telemetry`) rely on this.

Gauge merge policies (``set_gauge(key, v, policy=...)``):

* ``"max"`` — take the maximum (the compatible default; right for
  high-water marks like stage counts);
* ``"sum"`` — add (right for partitioned absolute quantities, e.g.
  per-shard resident entries);
* ``"last"`` — most recent write wins.  Each ``last`` write is stamped
  with a per-registry sequence number carried in the snapshot's
  ``gauge_meta`` block; merging keeps the lexicographically largest
  ``(seq, value)`` pair, which keeps the merge commutative and
  associative even for a non-monotonic gauge (e.g. queue depth).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from math import frexp
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Allowed gauge merge policies.
GAUGE_POLICIES = ("max", "sum", "last")

#: Per-packet stage latencies (``pipeline.latency_us.*``) are timed on
#: every Nth packet rather than every packet: a packet traverses many
#: tables, and timing each stage of each table on every packet is
#: dearer than the telemetry is worth (the ``obs.metrics_on_overhead.*``
#: rows of ``bench/`` price metrics-on).  Sampling is a
#: deterministic per-instance packet-counter stride — not random — so
#: both execution backends sample the same packets and report identical
#: observation counts.  Counters (packets, hits/misses, drops) remain
#: exact; only the latency histograms are sampled.
LATENCY_SAMPLE_EVERY = 16

#: Bucket exponent used for observations <= 0 (log2 is undefined there);
#: far below any representable positive float's exponent.
_NONPOS_BUCKET = -1100


class MetricsRegistry:
    """Counters, gauges and histograms under dotted string keys."""

    __slots__ = ("enabled", "counters", "gauges", "_hists", "_gauge_meta",
                 "_gauge_seq")

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        # key -> [count, sum, min, max, {bucket_exp: count}]
        self._hists: Dict[str, list] = {}
        # key -> (policy, seq); only gauges with a non-default policy or
        # a "last" sequence stamp appear here.
        self._gauge_meta: Dict[str, Tuple[str, int]] = {}
        self._gauge_seq = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self._hists.clear()
        self._gauge_meta.clear()
        self._gauge_seq = 0

    # ------------------------------------------------------------------
    # Reporting (no-ops while disabled)
    # ------------------------------------------------------------------
    def inc(self, key: str, n: int = 1) -> None:
        if not self.enabled:
            return
        self.counters[key] = self.counters.get(key, 0) + n

    def set_gauge(self, key: str, value: float, policy: str = "max") -> None:
        if not self.enabled:
            return
        self.gauges[key] = value
        if policy != "max":
            if policy not in GAUGE_POLICIES:
                raise ValueError(
                    f"unknown gauge policy {policy!r}; "
                    f"known: {', '.join(GAUGE_POLICIES)}"
                )
            self._gauge_seq += 1
            self._gauge_meta[key] = (policy, self._gauge_seq)

    def observe(self, key: str, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value`` (a batch reports
        its per-lane share once instead of once per lane)."""
        if not self.enabled:
            return
        hist = self._hists.get(key)
        bucket = frexp(value)[1] if value > 0 else _NONPOS_BUCKET
        if hist is None:
            self._hists[key] = [
                count, value * count, value, value, {bucket: count}
            ]
        else:
            hist[0] += count
            hist[1] += value * count
            if value < hist[2]:
                hist[2] = value
            if value > hist[3]:
                hist[3] = value
            buckets = hist[4]
            buckets[bucket] = buckets.get(bucket, 0) + count

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter(self, key: str) -> int:
        return self.counters.get(key, 0)

    def gauge(self, key: str) -> Optional[float]:
        return self.gauges.get(key)

    def gauge_policy(self, key: str) -> str:
        return self._gauge_meta.get(key, ("max", 0))[0]

    def histogram(self, key: str) -> Optional[Dict[str, object]]:
        hist = self._hists.get(key)
        if hist is None:
            return None
        return {
            "count": hist[0],
            "sum": hist[1],
            "min": hist[2],
            "max": hist[3],
            "buckets": {str(e): n for e, n in sorted(hist[4].items())},
        }

    def quantile(self, key: str, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile of a histogram from its log2
        buckets (linear interpolation within the containing bucket,
        clamped to the recorded min/max).  None if the key is absent."""
        hist = self._hists.get(key)
        if hist is None or hist[0] == 0:
            return None
        count, _, lo_all, hi_all, buckets = hist
        rank = q * count
        seen = 0.0
        for exp in sorted(buckets):
            n = buckets[exp]
            if seen + n >= rank:
                if exp == _NONPOS_BUCKET:
                    return min(lo_all, 0.0)
                lo, hi = 2.0 ** (exp - 1), 2.0 ** exp
                inside = max(rank - seen, 0.0) / n
                est = lo + inside * (hi - lo)
                return min(max(est, lo_all), hi_all)
            seen += n
        return hi_all

    def quantiles(
        self, key: str, qs: Sequence[float] = (0.5, 0.95, 0.99)
    ) -> Optional[Dict[str, float]]:
        """``{"p50": ..., "p95": ..., ...}`` for one histogram key."""
        if key not in self._hists:
            return None
        return {f"p{q * 100:g}": self.quantile(key, q) for q in qs}

    def keys(self) -> List[str]:
        """Every metric key present, sorted."""
        return sorted({*self.counters, *self.gauges, *self._hists})

    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self._hists)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        snap: Dict[str, Dict[str, object]] = {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                key: {
                    "count": h[0],
                    "sum": h[1],
                    "min": h[2],
                    "max": h[3],
                    "buckets": {str(e): n for e, n in sorted(h[4].items())},
                }
                for key, h in self._hists.items()
            },
        }
        if self._gauge_meta:
            snap["gauge_meta"] = {
                key: {"policy": policy, "seq": seq}
                for key, (policy, seq) in self._gauge_meta.items()
            }
        return snap

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def merge(self, snapshot: Dict[str, Dict[str, object]]) -> "MetricsRegistry":
        """Fold a :meth:`snapshot` dict into this registry.

        Commutative and associative, so per-worker snapshots can be
        folded in any order: counters add; histograms add
        count/sum/buckets and take min/max extrema; gauges merge per
        their policy (``max`` default, ``sum`` adds, ``last`` keeps the
        largest ``(seq, value)`` pair).  Snapshots without buckets or
        gauge metadata (the pre-telemetry schema) merge fine — buckets
        default to empty and every gauge defaults to ``max``.  Merging
        is explicit aggregation, not hot-path reporting, so it applies
        even while the registry is disabled.  Returns ``self``.
        """
        for key, value in snapshot.get("counters", {}).items():
            self.counters[key] = self.counters.get(key, 0) + int(value)
        meta_in = snapshot.get("gauge_meta", {})
        for key, value in snapshot.get("gauges", {}).items():
            current = self.gauges.get(key)
            entry = meta_in.get(key)
            policy, seq = (
                (str(entry["policy"]), int(entry.get("seq", 0)))
                if entry is not None
                else self._gauge_meta.get(key, ("max", 0))
            )
            if current is None:
                self.gauges[key] = value
                if policy != "max":
                    self._gauge_meta[key] = (policy, seq)
                continue
            if policy == "sum":
                self.gauges[key] = current + value
                self._gauge_meta[key] = (policy, 0)
            elif policy == "last":
                cur_seq = self._gauge_meta.get(key, ("last", 0))[1]
                # Largest (seq, value) wins: commutative, associative,
                # and "most recent write" whenever seqs are comparable.
                if (seq, value) > (cur_seq, current):
                    self.gauges[key] = value
                self._gauge_meta[key] = (policy, max(seq, cur_seq))
            else:
                self.gauges[key] = max(current, value)
        for key, h in snapshot.get("histograms", {}).items():
            incoming = {
                int(e): int(n) for e, n in h.get("buckets", {}).items()
            }
            hist = self._hists.get(key)
            if hist is None:
                self._hists[key] = [
                    h["count"], h["sum"], h["min"], h["max"], incoming
                ]
            else:
                hist[0] += h["count"]
                hist[1] += h["sum"]
                if h["min"] < hist[2]:
                    hist[2] = h["min"]
                if h["max"] > hist[3]:
                    hist[3] = h["max"]
                buckets = hist[4]
                for exp, n in incoming.items():
                    buckets[exp] = buckets.get(exp, 0) + n
        return self

    @classmethod
    def from_snapshot(cls, data: Dict[str, Dict[str, object]]) -> "MetricsRegistry":
        reg = cls(enabled=False)
        reg.counters = {k: int(v) for k, v in data.get("counters", {}).items()}
        reg.gauges = {k: v for k, v in data.get("gauges", {}).items()}
        for key, entry in data.get("gauge_meta", {}).items():
            reg._gauge_meta[key] = (
                str(entry["policy"]), int(entry.get("seq", 0))
            )
        for key, h in data.get("histograms", {}).items():
            reg._hists[key] = [
                h["count"], h["sum"], h["min"], h["max"],
                {int(e): int(n) for e, n in h.get("buckets", {}).items()},
            ]
        return reg

    @classmethod
    def from_json(cls, text: str) -> "MetricsRegistry":
        return cls.from_snapshot(json.loads(text))


#: The process-wide registry every instrumented module reports into.
METRICS = MetricsRegistry(enabled=False)


@contextmanager
def collecting(
    registry: Optional[MetricsRegistry] = None, fresh: bool = True
) -> Iterator[MetricsRegistry]:
    """Enable a registry (default: the global one) for the duration of a
    block, restoring its previous enabled state afterwards."""
    reg = registry if registry is not None else METRICS
    prior = reg.enabled
    if fresh:
        reg.reset()
    reg.enable()
    try:
        yield reg
    finally:
        reg.enabled = prior
