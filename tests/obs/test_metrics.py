"""Tests of the metrics registry."""

import json

from repro.obs.metrics import METRICS, MetricsRegistry, collecting


class TestRegistry:
    def test_counters(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("frontend.tokens", 10)
        reg.inc("frontend.tokens", 5)
        reg.inc("linker.instances_resolved")
        assert reg.counter("frontend.tokens") == 15
        assert reg.counter("linker.instances_resolved") == 1
        assert reg.counter("missing") == 0

    def test_gauges(self):
        reg = MetricsRegistry(enabled=True)
        reg.set_gauge("tna.schedule.stages_used", 5)
        reg.set_gauge("tna.schedule.stages_used", 7)
        assert reg.gauge("tna.schedule.stages_used") == 7
        assert reg.gauge("missing") is None

    def test_histograms(self):
        reg = MetricsRegistry(enabled=True)
        for v in (4, 2, 9, 1):
            reg.observe("tna.schedule.stage_occupancy", v)
        hist = reg.histogram("tna.schedule.stage_occupancy")
        # log2 buckets [2^(e-1), 2^e): 1 -> e1, 2 -> e2, 4 -> e3, 9 -> e4
        assert hist == {
            "count": 4, "sum": 16, "min": 1, "max": 9,
            "buckets": {"1": 1, "2": 1, "3": 1, "4": 1},
        }
        assert reg.histogram("missing") is None

    def test_observe_count_equals_repeated_observes(self):
        """One ``observe(v, count=n)`` — what a SoA batch reports — reads
        as ``n`` single observes, on a fresh key and on a used one."""
        batched = MetricsRegistry(enabled=True)
        single = MetricsRegistry(enabled=True)
        for value, n in ((3.7, 256), (0.11, 16), (3.7, 1), (0.0, 5)):
            batched.observe("switch.latency_us.packet", value, count=n)
            for _ in range(n):
                single.observe("switch.latency_us.packet", value)
        got = batched.histogram("switch.latency_us.packet")
        want = single.histogram("switch.latency_us.packet")
        for field in ("count", "min", "max", "buckets"):
            assert got[field] == want[field]
        assert abs(got["sum"] - want["sum"]) <= 1e-9 * want["sum"]

    def test_keys_and_len(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("a.counter")
        reg.set_gauge("b.gauge", 1.0)
        reg.observe("c.hist", 2.0)
        assert reg.keys() == ["a.counter", "b.gauge", "c.hist"]
        assert len(reg) == 3


class TestDisabled:
    def test_disabled_by_default(self):
        reg = MetricsRegistry()
        assert reg.enabled is False

    def test_disabled_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.inc("a")
        reg.set_gauge("b", 1)
        reg.observe("c", 2)
        assert len(reg) == 0

    def test_global_registry_disabled_by_default(self):
        # Compiling anything without opting in must leave the process
        # registry untouched.
        assert METRICS.enabled is False
        before = len(METRICS)
        from repro.lib.catalog import build_pipeline

        build_pipeline("P4")
        assert len(METRICS) == before


class TestJsonRoundTrip:
    def _populated(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("frontend.tokens", 123)
        reg.set_gauge("analysis.extract_length_bytes", 54)
        reg.observe("tna.schedule.stage_occupancy", 3)
        reg.observe("tna.schedule.stage_occupancy", 5)
        return reg

    def test_snapshot_is_json_serializable(self):
        reg = self._populated()
        json.dumps(reg.snapshot())  # must not raise

    def test_round_trip_preserves_everything(self):
        reg = self._populated()
        clone = MetricsRegistry.from_json(reg.to_json())
        assert clone.snapshot() == reg.snapshot()
        assert clone.counter("frontend.tokens") == 123
        assert clone.gauge("analysis.extract_length_bytes") == 54
        assert clone.histogram("tna.schedule.stage_occupancy") == {
            "count": 2, "sum": 8, "min": 3, "max": 5,
            "buckets": {"2": 1, "3": 1},
        }


class TestCollecting:
    def test_collecting_enables_and_restores(self):
        reg = MetricsRegistry(enabled=False)
        with collecting(reg) as active:
            assert active is reg
            assert reg.enabled
            reg.inc("x")
        assert reg.enabled is False
        assert reg.counter("x") == 1  # data survives the context

    def test_collecting_fresh_resets(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("stale")
        with collecting(reg):
            assert reg.counter("stale") == 0

    def test_collecting_not_fresh_accumulates(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("kept")
        with collecting(reg, fresh=False):
            reg.inc("kept")
        assert reg.counter("kept") == 2


class TestMerge:
    @staticmethod
    def _loaded(counters=(), gauges=(), observations=()):
        reg = MetricsRegistry(enabled=True)
        for key, n in counters:
            reg.inc(key, n)
        for key, v in gauges:
            reg.set_gauge(key, v)
        for key, v in observations:
            reg.observe(key, v)
        return reg

    def test_counters_add(self):
        reg = self._loaded(counters=[("a", 3), ("b", 1)])
        reg.merge(self._loaded(counters=[("a", 4), ("c", 2)]).snapshot())
        assert reg.counter("a") == 7
        assert reg.counter("b") == 1
        assert reg.counter("c") == 2

    def test_gauges_take_max(self):
        reg = self._loaded(gauges=[("stages", 5)])
        reg.merge(self._loaded(gauges=[("stages", 3), ("phv", 9)]).snapshot())
        assert reg.gauge("stages") == 5
        assert reg.gauge("phv") == 9

    def test_histograms_fold(self):
        reg = self._loaded(observations=[("lat", 2), ("lat", 8)])
        reg.merge(self._loaded(observations=[("lat", 1), ("lat", 5)]).snapshot())
        assert reg.histogram("lat") == {
            "count": 4, "sum": 16, "min": 1, "max": 8,
            "buckets": {"1": 1, "2": 1, "3": 1, "4": 1},
        }

    def test_merge_is_commutative(self):
        def snaps():
            return [
                self._loaded(
                    counters=[("c", i)],
                    gauges=[("g", float(i))],
                    observations=[("h", i), ("h", 10 - i)],
                ).snapshot()
                for i in (1, 2, 3)
            ]

        forward = MetricsRegistry()
        for snap in snaps():
            forward.merge(snap)
        backward = MetricsRegistry()
        for snap in reversed(snaps()):
            backward.merge(snap)
        assert forward.snapshot() == backward.snapshot()

    def test_merge_works_while_disabled(self):
        reg = MetricsRegistry(enabled=False)
        reg.merge(self._loaded(counters=[("a", 5)]).snapshot())
        assert reg.counter("a") == 5

    def test_merge_into_from_snapshot_round_trip(self):
        base = self._loaded(counters=[("a", 2)], observations=[("h", 4)])
        clone = MetricsRegistry.from_snapshot(base.snapshot())
        clone.merge(base.snapshot())
        assert clone.counter("a") == 4
        assert clone.histogram("h") == {
            "count": 2, "sum": 8, "min": 4, "max": 4, "buckets": {"3": 2},
        }

    def test_merge_returns_self_for_chaining(self):
        reg = MetricsRegistry()
        a = self._loaded(counters=[("a", 1)]).snapshot()
        b = self._loaded(counters=[("a", 1)]).snapshot()
        assert reg.merge(a).merge(b).counter("a") == 2

    def test_merge_empty_snapshot_is_identity(self):
        reg = self._loaded(counters=[("a", 1)], gauges=[("g", 2.0)])
        before = reg.snapshot()
        reg.merge({})
        assert reg.snapshot() == before


class TestCompilerPopulation:
    def test_build_populates_all_layers(self):
        from repro.backend.tna import TnaBackend
        from repro.lib.catalog import build_pipeline

        reg = MetricsRegistry()
        with collecting():
            TnaBackend().compile(build_pipeline("P4"))
            snap = METRICS.snapshot()
        keys = {*snap["counters"], *snap["gauges"], *snap["histograms"]}
        assert len(keys) >= 10
        assert "linker.instances_resolved" in keys
        assert "analysis.extract_length_bytes" in keys
        assert "compose.tables" in keys
        assert "tna.phv.bits_allocated" in keys
        assert "tna.schedule.stages_used" in keys

    def test_interpreter_counters(self):
        from repro.net.packet import Packet
        from repro.lib.catalog import build_pipeline
        from repro.targets.pipeline import PipelineInstance

        inst = PipelineInstance(build_pipeline("P4"))
        with collecting():
            _, trace = inst.process_traced(Packet(bytes(64)), 1)
            assert METRICS.counter("interp.packets") == 1
            total_lookups = (METRICS.counter("interp.table_hits")
                             + METRICS.counter("interp.table_misses"))
            assert total_lookups == len(trace.hit_sequence()) > 0
