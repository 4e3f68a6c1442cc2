"""Tests of the live telemetry plane (repro.obs.telemetry)."""

import io
import json
import urllib.request

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.pkttrace import TRACE_SCHEMA_VERSION, PacketTrace
from repro.obs.telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    FlightRecorder,
    LiveTelemetry,
    StatsServer,
    TraceWriter,
    fetch_snapshot,
    render_prometheus,
    render_stats,
)
from repro.targets.faults import Verdict


def _snap(**counters):
    reg = MetricsRegistry(enabled=True)
    for key, n in counters.items():
        reg.inc(key, n)
    return reg.snapshot()


def _latency_snap(values, key="pipeline.latency_us.parse"):
    reg = MetricsRegistry(enabled=True)
    for v in values:
        reg.observe(key, v)
    return reg.snapshot()


class TestLiveTelemetry:
    def test_publish_and_sources(self):
        live = LiveTelemetry()
        assert len(live) == 0
        assert live.publish("P4", 0, 1, _snap(x=1))
        assert live.publish("P4", 1, 1, _snap(x=2))
        assert live.sources() == [("P4", 0), ("P4", 1)]
        assert len(live) == 2

    def test_stale_epoch_is_ignored(self):
        live = LiveTelemetry()
        assert live.publish("P4", 0, 5, _snap(x=100))
        assert not live.publish("P4", 0, 4, _snap(x=1))
        assert not live.publish("P4", 0, 5, _snap(x=1))
        assert live.merged_registry().counter("x") == 100

    def test_replace_by_epoch_keeps_counters_monotone(self):
        live = LiveTelemetry()
        totals = []
        # Cumulative per-shard snapshots arriving interleaved: the merged
        # counter must never decrease.
        for epoch, (a, b) in enumerate([(10, 5), (20, 5), (20, 30)], 1):
            live.publish("P4", 0, epoch, _snap(n=a))
            live.publish("P4", 1, epoch, _snap(n=b))
            totals.append(live.merged_registry().counter("n"))
        assert totals == sorted(totals)
        assert totals[-1] == 50

    def test_merged_view_sums_across_shards(self):
        live = LiveTelemetry()
        live.publish("P4", 0, 1, _snap(pkts=7))
        live.publish("P4", 1, 1, _snap(pkts=11))
        live.publish("P7", 0, 1, _snap(pkts=100))
        assert live.merged_registry().counter("pkts") == 118

    def test_snapshot_schema(self):
        live = LiveTelemetry()
        live.publish(
            "P4", 0, 3, _latency_snap([1.0, 2.0, 100.0]),
            ledger={"in": 3, "out": 1}, final=True,
        )
        snap = live.snapshot()
        assert snap["schema"] == TELEMETRY_SCHEMA_VERSION
        assert snap["publishes"] == 1
        [shard] = snap["shards"]
        assert shard == {
            "program": "P4", "shard": 0, "epoch": 3, "final": True,
            "ledger": {"in": 3, "out": 1},
        }
        assert snap["ledger"] == {"in": 3, "out": 1}
        lat = snap["latency_us"]["pipeline.latency_us.parse"]
        assert lat["count"] == 3
        assert 1.0 <= lat["p50"] <= 100.0
        json.dumps(snap)  # must be JSON-able as-is

    def test_snapshot_empty(self):
        snap = LiveTelemetry().snapshot()
        assert snap["shards"] == []
        assert snap["ledger"] == {}
        assert snap["latency_us"] == {}

    def test_new_run_replaces_source_despite_lower_epoch(self):
        # A pool reuses the same (program, shard) keys across submits;
        # run 2's epoch 1 must replace run 1's epoch 5, not be dropped
        # as stale.
        live = LiveTelemetry()
        assert live.publish("P4", 0, 5, _snap(x=100), run=1)
        assert not live.publish("P4", 0, 4, _snap(x=1), run=1)
        assert live.publish("P4", 0, 1, _snap(x=7), run=2)
        assert live.merged_registry().counter("x") == 7
        [shard] = live.snapshot()["shards"]
        assert shard["run"] == 2 and shard["epoch"] == 1

    def test_run_key_absent_when_unset(self):
        # Single-run publishers (profile, inline soak) omit run; the
        # snapshot schema must not grow a null field for them.
        live = LiveTelemetry()
        live.publish("P4", 0, 1, _snap(x=1))
        [shard] = live.snapshot()["shards"]
        assert "run" not in shard


class TestPrometheus:
    def test_renders_counters_gauges_histograms(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("switch.packets", 9)
        reg.set_gauge("compiled.slots", 12)
        reg.observe("pipeline.latency_us.parse", 3.0)
        reg.observe("pipeline.latency_us.parse", 5.0)
        live = LiveTelemetry()
        live.publish("P4", 0, 1, reg.snapshot())
        text = live.to_prometheus()
        assert "# TYPE repro_switch_packets counter" in text
        assert "repro_switch_packets 9" in text
        assert "repro_compiled_slots 12" in text
        # 3.0 and 5.0 land in [2,4) and [4,8): cumulative le buckets
        assert 'repro_pipeline_latency_us_parse_bucket{le="4"} 1' in text
        assert 'repro_pipeline_latency_us_parse_bucket{le="8"} 2' in text
        assert 'repro_pipeline_latency_us_parse_bucket{le="+Inf"} 2' in text
        assert "repro_pipeline_latency_us_parse_sum 8" in text
        assert "repro_pipeline_latency_us_parse_count 2" in text
        assert 'repro_shard_epoch{program="P4",shard="0"} 1' in text

    def test_bare_registry_snapshot_renders(self):
        text = render_prometheus(_snap(a=1))
        assert "repro_a 1" in text


class TestStatsServer:
    def test_serves_json_and_prometheus(self):
        live = LiveTelemetry()
        live.publish("P4", 0, 1, _snap(x=42), ledger={"in": 10})
        with StatsServer(live, port=0) as server:
            with urllib.request.urlopen(f"{server.url}/stats.json") as resp:
                assert resp.headers["Content-Type"] == "application/json"
                snap = json.loads(resp.read().decode())
            assert snap["metrics"]["counters"]["x"] == 42
            assert snap["ledger"] == {"in": 10}
            with urllib.request.urlopen(f"{server.url}/metrics") as resp:
                text = resp.read().decode()
            assert "repro_x 42" in text
            with urllib.request.urlopen(f"{server.url}/healthz") as resp:
                assert resp.read() == b"ok\n"

    def test_unknown_path_404(self):
        with StatsServer(LiveTelemetry(), port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{server.url}/nope")
            assert err.value.code == 404

    def test_rolling_view_visible_between_requests(self):
        live = LiveTelemetry()
        with StatsServer(live, port=0) as server:
            live.publish("P4", 0, 1, _snap(n=1))
            first = fetch_snapshot(str(server.port))
            live.publish("P4", 0, 2, _snap(n=5))
            second = fetch_snapshot(str(server.port))
        assert first["metrics"]["counters"]["n"] == 1
        assert second["metrics"]["counters"]["n"] == 5


class TestFlightRecorder:
    @staticmethod
    def _verdict(kind="emit", outputs=(), reasons=None, error=None):
        v = Verdict(outputs=list(outputs), reasons=dict(reasons or {}), units=1)
        v.error = error
        return v

    def test_ring_is_bounded(self):
        rec = FlightRecorder(capacity=3)
        for i in range(10):
            rec.record(i, self._verdict())
        assert len(rec) == 3
        assert [e["packet"] for e in rec.dump()] == [7, 8, 9]

    def test_dump_shape(self):
        rec = FlightRecorder(capacity=8, shard=2)
        rec.record(5, self._verdict(reasons={"parser-error": 1}, error="boom"))
        rec.note(6, "uncaught", "ValueError: nope")
        entries = rec.dump()
        assert entries[0]["packet"] == 5
        assert entries[0]["shard"] == 2
        assert entries[0]["reasons"] == {"parser-error": 1}
        assert entries[0]["error"] == "boom"
        assert entries[1] == {
            "packet": 6, "kind": "uncaught", "emits": 0, "units": 0,
            "shard": 2, "error": "ValueError: nope",
        }
        json.dumps(entries)

    def test_capacity_zero_disables(self):
        rec = FlightRecorder(capacity=0)
        rec.record(1, self._verdict())
        rec.record_batch([2], [self._verdict()], [None])
        rec.note(2, "x", "y")
        assert len(rec) == 0
        assert rec.dump() == []

    @pytest.mark.parametrize("batch", (1, 2, 3, 7))
    def test_a_batch_leaves_the_ring_recording_each_would(self, batch):
        one, many = FlightRecorder(capacity=3), FlightRecorder(capacity=3)
        verdicts = [
            self._verdict(reasons={"drop-port": i} if i % 2 else None)
            for i in range(10)
        ]
        for lo in range(0, 10, batch):
            indices = list(range(lo, min(lo + batch, 10)))
            chunk = verdicts[lo:lo + batch]
            for index, verdict in zip(indices, chunk):
                one.record(index, verdict)
            many.record_batch(indices, chunk, [None] * len(chunk))
        assert many.dump() == one.dump()
        assert [e["packet"] for e in many.dump()] == [7, 8, 9]

    def test_trace_attached(self):
        rec = FlightRecorder(capacity=4)
        trace = PacketTrace()
        trace.drop("parser-error")
        rec.record(0, self._verdict(kind="drop"), trace)
        [entry] = rec.dump()
        assert entry["trace"]["events"][0]["kind"] == "drop"


class TestTraceWriter:
    def test_writes_schema_versioned_jsonl(self):
        buf = io.StringIO()
        writer = TraceWriter(buf)
        trace = PacketTrace()
        trace.extract("eth", 14)
        writer.write(trace, 0, program="P4", verdict="emit")
        trace2 = PacketTrace()
        trace2.drop("parser-error")
        writer.write(trace2, 1, program="P4", verdict="drop")
        writer.close()
        lines = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert writer.lines == 2
        assert lines[0]["schema"] == TELEMETRY_SCHEMA_VERSION
        assert lines[0]["packet"] == 0
        assert lines[0]["program"] == "P4"
        assert lines[0]["verdict"] == "emit"
        assert lines[0]["events"][0]["kind"] == "extract"
        assert lines[1]["verdict"] == "drop"

    def test_file_destination(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(str(path)) as writer:
            trace = PacketTrace()
            trace.drop("x")
            writer.write(trace, 7)
        [line] = path.read_text().splitlines()
        assert json.loads(line)["packet"] == 7

    def test_pkttrace_to_json_line(self):
        trace = PacketTrace()
        trace.extract("eth", 14)
        record = json.loads(trace.to_json_line(index=3, program="P7"))
        assert record["schema"] == TRACE_SCHEMA_VERSION
        assert record["packet"] == 3
        assert record["program"] == "P7"


class TestReaders:
    def test_fetch_snapshot_from_file(self, tmp_path):
        live = LiveTelemetry()
        live.publish("P4", 0, 1, _snap(x=1))
        path = tmp_path / "snap.json"
        path.write_text(live.to_json())
        snap = fetch_snapshot(str(path))
        assert snap["metrics"]["counters"]["x"] == 1

    def test_render_stats_text(self):
        live = LiveTelemetry()
        live.publish(
            "P4", 0, 2, _latency_snap([4.0, 8.0]),
            ledger={"in": 2, "out": 1, "dropped": 1, "killed": 0},
        )
        text = render_stats(live.snapshot())
        assert "P4/shard0 epoch=2" in text
        assert "in=2 out=1 dropped=1" in text
        assert "pipeline.latency_us.parse" in text


class TestQuantiles:
    def test_quantiles_bracket_the_samples(self):
        reg = MetricsRegistry(enabled=True)
        for v in [1.0] * 90 + [1000.0] * 10:
            reg.observe("lat", v)
        assert reg.quantile("lat", 0.5) <= 2.0
        assert reg.quantile("lat", 0.99) >= 512.0
        qs = reg.quantiles("lat")
        assert set(qs) == {"p50", "p95", "p99"}

    def test_quantile_clamps_to_min_max(self):
        reg = MetricsRegistry(enabled=True)
        reg.observe("lat", 3.0)
        assert reg.quantile("lat", 0.0) == 3.0
        assert reg.quantile("lat", 1.0) == 3.0

    def test_nonpositive_values_bucketed(self):
        reg = MetricsRegistry(enabled=True)
        reg.observe("lat", 0.0)
        reg.observe("lat", -2.0)
        hist = reg.histogram("lat")
        assert hist["count"] == 2
        assert reg.quantile("lat", 0.5) == -2.0

    def test_quantile_missing_key(self):
        reg = MetricsRegistry(enabled=True)
        assert reg.quantile("missing", 0.5) is None
        assert reg.quantiles("missing") is None


class TestGaugePolicies:
    def test_sum_policy_adds(self):
        a = MetricsRegistry(enabled=True)
        a.set_gauge("entries", 10, policy="sum")
        b = MetricsRegistry(enabled=True)
        b.set_gauge("entries", 7, policy="sum")
        merged = MetricsRegistry().merge(a.snapshot()).merge(b.snapshot())
        assert merged.gauge("entries") == 17

    def test_last_policy_latest_seq_wins(self):
        a = MetricsRegistry(enabled=True)
        a.set_gauge("depth", 5, policy="last")
        a.set_gauge("depth", 2, policy="last")  # seq 2, value 2
        b = MetricsRegistry(enabled=True)
        b.set_gauge("depth", 9, policy="last")  # seq 1, value 9
        fwd = MetricsRegistry().merge(a.snapshot()).merge(b.snapshot())
        rev = MetricsRegistry().merge(b.snapshot()).merge(a.snapshot())
        assert fwd.gauge("depth") == rev.gauge("depth") == 2

    def test_default_max_keeps_old_schema(self):
        reg = MetricsRegistry(enabled=True)
        reg.set_gauge("stages", 5)
        assert "gauge_meta" not in reg.snapshot()
        assert reg.gauge_policy("stages") == "max"

    def test_unknown_policy_raises(self):
        reg = MetricsRegistry(enabled=True)
        with pytest.raises(ValueError):
            reg.set_gauge("g", 1, policy="average")
