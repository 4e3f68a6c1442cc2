"""Telemetry plane end-to-end: digest neutrality and live publishing.

The acceptance contract: turning telemetry on (live publishing, latency
histograms, flight recorder, trace streaming) must not move a single
bit of the verdict-stream digest, and sharded runs must surface
epoch-stamped per-shard snapshots whose merged counters match the final
summary.
"""

from collections import Counter

import pytest

from repro.net.packet import Packet
from repro.obs.metrics import METRICS, MetricsRegistry, collecting
from repro.obs.telemetry import LiveTelemetry
from repro.targets import soak as soak_mod
from repro.targets.engine import EngineConfig
from repro.targets.soak import (
    NUM_PORTS,
    SoakConfig,
    build_switch,
    compose_program,
    iter_stream_bytes,
    run_soak,
    soak_program,
)
from repro.targets.vector import NUMPY_AVAILABLE, columnwise_module
from tests.targets.helpers import (
    EXECUTORS,
    LANE_LOOP,
    columnwise_floor,
    run_sharded,
)
#: The tiers a codegen batch runs on this host (columnwise needs numpy).
BATCH_TIERS = ["lane-loop"] + (["columnwise"] if NUMPY_AVAILABLE else [])


def quick_config(**kw):
    kw.setdefault("programs", ["P4"])
    kw.setdefault("packets", 400)
    kw.setdefault("seed", 99)
    kw.setdefault("fault_rate", 0.2)
    return SoakConfig(**kw)


class TestDigestNeutrality:
    def test_single_process_digest_unchanged_by_telemetry(self, monkeypatch):
        baseline = soak_program(quick_config(), "P4")
        telemetry = LiveTelemetry()
        # Publish after every batch.
        monkeypatch.setattr(soak_mod, "_PUBLISH_INTERVAL_S", 1e-9)
        with collecting():
            live = soak_program(quick_config(), "P4", telemetry=telemetry)
        assert live["telemetry_epochs"] >= 1
        assert telemetry.snapshot()["shards"][0]["final"]
        assert live["digest"] == baseline["digest"]
        assert live["packets"] == baseline["packets"]

    def test_sharded_digest_unchanged_by_telemetry(self):
        config = quick_config(packets=600, exec_backend="codegen")
        off = run_sharded(config, "P4", EngineConfig(workers=2))
        telemetry = LiveTelemetry()
        on = run_sharded(
            config,
            "P4",
            EngineConfig(workers=2, publish_interval_s=0.001),
            telemetry=telemetry,
        )
        assert on["digest"] == off["digest"]

    def test_flight_recorder_capacity_does_not_move_digest(self):
        a = soak_program(quick_config(flight_recorder=0), "P4")
        b = soak_program(quick_config(flight_recorder=8), "P4")
        assert a["digest"] == b["digest"]


class TestLivePublishing:
    def test_sharded_run_publishes_final_epochs(self):
        telemetry = LiveTelemetry()
        config = quick_config(packets=500)
        block = run_sharded(
            config, "P4", EngineConfig(workers=2), telemetry=telemetry
        )
        assert telemetry.sources() == [("P4", 0), ("P4", 1)]
        snap = telemetry.snapshot()
        assert all(s["final"] for s in snap["shards"])
        assert all(s["epoch"] >= 1 for s in snap["shards"])
        # The folded live ledger ends exactly at the merged summary.
        assert snap["ledger"]["in"] == block["packets"]
        assert snap["ledger"]["out"] == block["emits"]
        assert snap["ledger"]["dropped"] == block["drops"]
        merged = telemetry.merged_registry()
        assert merged.counter("switch.packets") == block["packets"]

    def test_run_soak_threads_telemetry_through(self):
        telemetry = LiveTelemetry()
        summary = run_soak(
            quick_config(programs=["P4", "P7"], packets=300),
            engine=EngineConfig(workers=2),
            telemetry=telemetry,
        )
        assert summary["ok"]
        assert {p for p, _ in telemetry.sources()} == {"P4", "P7"}

    def test_latency_quantiles_present_in_live_view(self):
        telemetry = LiveTelemetry()
        run_sharded(
            quick_config(packets=400), "P4",
            EngineConfig(workers=2), telemetry=telemetry,
        )
        latency = telemetry.snapshot()["latency_us"]
        for stage in ("parse", "lookup", "action"):
            key = f"pipeline.latency_us.{stage}"
            assert latency[key]["count"] > 0
            assert latency[key]["p50"] > 0
        assert latency["switch.latency_us.packet"]["p99"] >= (
            latency["switch.latency_us.packet"]["p50"]
        )


class TestLatencyInstrumentationBothBackends:
    def _stage_counts(self, exec_backend):
        from repro.targets.soak import (
            _routable_templates,
            build_switch,
            compose_program,
        )

        config = quick_config(
            fault_rate=0.0, traffic="routable", exec_backend=exec_backend
        )
        switch = build_switch(config, "P4", compose_program(config, "P4"))
        with collecting():
            for data in _routable_templates():
                switch.process(Packet(data), 1)
            return {
                stage: (METRICS.histogram(f"pipeline.latency_us.{stage}") or {})
                .get("count", 0)
                for stage in ("parse", "lookup", "action", "deparse")
            }

    def test_same_stage_keys_same_counts(self):
        interp = self._stage_counts("interp")
        codegen = self._stage_counts("codegen")
        # Both executors report under the same keys with identical
        # observation counts — the executor must not change what is
        # counted, only how fast it runs.
        assert interp == codegen
        assert all(count > 0 for count in interp.values())


@pytest.fixture
def registry_calls(monkeypatch):
    """Every call to a registry's write methods, counted by name.  The
    spies go on the class (``MetricsRegistry`` has ``__slots__``) before
    any executor is built, so methods bound at build time count too."""
    calls = Counter()
    for name in ("inc", "observe", "set_gauge"):
        def spy(self, *args, _method=getattr(MetricsRegistry, name),
                _name=name, **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(MetricsRegistry, name, spy)
    return calls


class TestMetricsOffCostsNothing:
    """With the registry off, the packet path makes no registry call at
    all; with it on, a batch reports per batch.  Counts, not a clock:
    every report site must sit behind one ``enabled`` check."""

    @staticmethod
    def _run(backend, calls, tier=None):
        """256 routable P4 packets through a fresh switch, one at a time
        or, on a ``tier``, as one SoA batch; ``calls`` counts from the
        first packet."""
        config = quick_config(
            packets=256, seed=7, fault_rate=0.0, traffic="routable",
            exec_backend=backend,
        )
        switch = build_switch(config, "P4", compose_program(config, "P4"))
        stream = iter_stream_bytes(config, "P4", NUM_PORTS)
        packets = [(Packet(data), port) for _, data, port in stream]
        if tier == "columnwise":
            # Generate the columnwise body, which the first batch would
            # (its two counts are per program, not per batch).
            columnwise_module(switch.pipeline.composed, switch.pipeline.tables)
        calls.clear()
        if tier is not None:
            with columnwise_floor(1 if tier == "columnwise" else LANE_LOOP):
                switch.process_batch(packets, soa=True)
        else:
            for packet, port in packets:
                switch.process(packet, port)

    @pytest.mark.parametrize("backend", EXECUTORS)
    def test_per_packet_process_makes_no_call(self, backend, registry_calls):
        assert not METRICS.enabled
        self._run(backend, registry_calls)
        assert registry_calls == {}

    @pytest.mark.parametrize("tier", BATCH_TIERS)
    def test_soa_batch_makes_no_call(self, tier, registry_calls):
        self._run("codegen", registry_calls, tier)
        assert registry_calls == {}

    #: ``inc`` calls one 256-lane batch makes on a fresh P4 switch, as
    #: measured: per-lane counters (the lane loop's
    #: ``interp.lookup.indexed``, one ``switch.drops.*`` per dropped lane)
    #: plus the first index builds.  Upper bounds, so a new per-lane
    #: report site cannot creep into the batch path unnoticed.
    MAX_INC = {"lane-loop": 663, "columnwise": 155}

    @pytest.mark.parametrize("tier", BATCH_TIERS)
    def test_soa_batch_reports_per_batch(self, tier, registry_calls):
        with collecting():
            self._run("codegen", registry_calls, tier)
        assert registry_calls["observe"] == 1
        assert registry_calls["set_gauge"] == 0
        assert registry_calls["inc"] <= self.MAX_INC[tier]


class TestFlightRecorderWiring:
    def test_dump_attached_on_uncaught_escape(self):
        # strict=True re-raises contained faults, which the soak loop
        # then counts as an uncaught escape — exactly the case the
        # flight recorder exists for.
        block = soak_program(
            quick_config(packets=200, strict=True, fault_rate=0.3), "P4"
        )
        assert block["uncaught"]
        assert "flight_recorder" in block
        assert len(block["flight_recorder"]) <= 64
        kinds = {entry["kind"] for entry in block["flight_recorder"]}
        assert "uncaught" in kinds

    def test_no_dump_on_clean_run(self):
        block = soak_program(quick_config(packets=100, fault_rate=0.0), "P4")
        assert not block["uncaught"]
        assert "flight_recorder" not in block
