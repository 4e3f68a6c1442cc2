"""Sharded traffic engine: determinism, merging, and failure handling.

The load-bearing properties:

* a 1-worker engine run reproduces the inline ``soak_program`` digest
  bit-for-bit (at fault_rate=0, where fault-seed derivation is moot);
* the merged digest is a pure function of ``(seed, workers,
  shard_policy)`` — replayable run after run;
* merged accounting is exact: shard ledgers balance individually and
  the totals balance after the fold;
* worker metrics start from a reset registry (fork-inheritance
  double-count regression) and fold to exactly the single-process
  counters;
* a failing or dying worker surfaces as a structured
  :class:`EngineError` and never leaves orphan processes.
"""

import json
import multiprocessing
import time

import pytest

from repro.errors import TargetError
from repro.obs.metrics import METRICS, collecting
from repro.targets.engine import (
    EngineConfig,
    EngineError,
    _merge_blocks,
    assign_shard,
    shard_seed,
)
from repro.targets.faults import ChaosPlan
from repro.targets import pool as pool_mod
from repro.targets.soak import SoakConfig, render_summary, run_soak, soak_program
from tests.targets.helpers import run_sharded, sabotage_shard0


def quick_config(**kw):
    kw.setdefault("programs", ["P4"])
    kw.setdefault("packets", 400)
    kw.setdefault("seed", 99)
    kw.setdefault("fault_rate", 0.2)
    return SoakConfig(**kw)


def no_orphans():
    return multiprocessing.active_children() == []


class TestShardAssignment:
    def test_round_robin_partitions_by_index(self):
        for index in range(40):
            assert assign_shard(index, b"x", 4, "round-robin") == index % 4

    def test_flow_hash_ignores_index(self):
        a = assign_shard(0, b"same packet", 4, "flow-hash")
        b = assign_shard(17, b"same packet", 4, "flow-hash")
        assert a == b

    def test_single_worker_gets_everything(self):
        assert assign_shard(123, b"anything", 1, "flow-hash") == 0

    def test_shard_seed_derivation(self):
        assert shard_seed(99, "P4", 2) == "99:P4:shard2"


class TestConfigValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(TargetError) as exc:
            EngineConfig(workers=0).validate()
        assert exc.value.code == "bad-workers"

    def test_unknown_policy_rejected(self):
        with pytest.raises(TargetError) as exc:
            EngineConfig(shard_policy="modulo-11").validate()
        assert exc.value.code == "bad-shard-policy"

    def test_chaos_shard_past_the_workers_rejected(self):
        chaos = ChaosPlan.from_specs(["kill:shard=2@pkt=10"])
        with pytest.raises(TargetError) as exc:
            EngineConfig(workers=2, chaos=chaos).validate()
        assert exc.value.code == "bad-chaos-shard"

    @pytest.mark.parametrize("interval", [-1.0, float("nan")])
    def test_bad_publish_interval_rejected(self, interval):
        # Regression: either one silently disabled mid-run publishing.
        with pytest.raises(TargetError) as exc:
            EngineConfig(publish_interval_s=interval).validate()
        assert exc.value.code == "bad-publish-interval"
        EngineConfig(publish_interval_s=0.0).validate()

    def test_unknown_program_fails_in_parent(self):
        with pytest.raises(TargetError, match="unknown soak program"):
            run_sharded(quick_config(), "P99", EngineConfig(workers=2))
        assert no_orphans()

    def test_unknown_ingest_rejected(self):
        # One transport, always concurrent: the old mode switches are
        # not accepted-and-ignored, they are gone.
        with pytest.raises(TypeError):
            EngineConfig(ingest="dispatch")
        with pytest.raises(TypeError):
            EngineConfig(sequential=True)


class TestDeterminism:
    def test_one_worker_matches_inline_digest(self):
        config = quick_config(fault_rate=0.0)
        inline = soak_program(config, "P4")
        merged = run_sharded(config, "P4", EngineConfig(workers=1))
        assert merged["shards"][0]["digest"] == inline["digest"]
        assert merged["packets"] == inline["packets"]
        assert merged["emits"] == inline["emits"]
        assert merged["drops"] == inline["drops"]
        assert merged["units"] == inline["units"]
        # Both say what they executed, and it is the same program.
        for key in ("statements_before", "statements_after"):
            assert merged[key] == inline[key]
        assert merged["statements_after"] < merged["statements_before"]
        assert merged["drops_by_reason"] == inline["drops_by_reason"]

    def test_same_parameters_replay_exactly(self):
        config = quick_config()
        engine = EngineConfig(workers=3)
        a = run_sharded(config, "P4", engine)
        b = run_sharded(config, "P4", engine)
        assert a["digest"] == b["digest"]
        assert [s["digest"] for s in a["shards"]] == [
            s["digest"] for s in b["shards"]
        ]

    def test_digest_is_a_function_of_workers_and_policy(self):
        config = quick_config()
        w2 = run_sharded(config, "P4", EngineConfig(workers=2))
        w3 = run_sharded(config, "P4", EngineConfig(workers=3))
        rr = run_sharded(
            config, "P4", EngineConfig(workers=2, shard_policy="round-robin")
        )
        assert w2["digest"] != w3["digest"]
        assert w2["digest"] != rr["digest"]

    def test_run_soak_engine_summary_is_deterministic(self):
        config = quick_config(packets=300)
        engine = EngineConfig(workers=2)
        a = run_soak(config, engine=engine)
        b = run_soak(config, engine=engine)
        assert a["ok"] and b["ok"]
        assert a["digest"] == b["digest"]
        assert a["soak"]["workers"] == 2


class TestAccounting:
    def test_merged_ledger_is_exact_under_faults(self):
        merged = run_sharded(
            quick_config(), "P4", EngineConfig(workers=4)
        )
        assert merged["uncaught"] == []
        assert merged["ledger_ok"]
        assert merged["units"] == merged["emits"] + merged["drops"]
        for shard in merged["shards"]:
            assert shard["ledger_ok"]
            assert shard["units"] == shard["emits"] + shard["drops"]

    def test_shards_partition_the_stream(self):
        config = quick_config(packets=400)
        merged = run_sharded(
            config, "P4", EngineConfig(workers=4, shard_policy="round-robin")
        )
        assert [s["packets"] for s in merged["shards"]] == [100, 100, 100, 100]
        assert merged["packets"] == 400

    def test_totals_match_single_process_run(self):
        # Same stream, same per-shard fault rate of zero: the sharded
        # totals must equal the inline run exactly, not approximately.
        config = quick_config(fault_rate=0.0)
        inline = soak_program(config, "P4")
        merged = run_sharded(config, "P4", EngineConfig(workers=4))
        for key in ("packets", "emits", "drops", "units", "killed"):
            assert merged[key] == inline[key]
        assert merged["verdicts"] == inline["verdicts"]


class TestWhoWasWaiting:
    """A sharded block says how long the parent dispatched and how often
    it sat on a full ring (digest-neutral, beside restarts/watermarks)."""

    def test_keys_and_types(self):
        merged = run_sharded(quick_config(), "P4", EngineConfig(workers=2))
        assert isinstance(merged["dispatch_s"], float)
        assert 0.0 <= merged["dispatch_s"] <= merged["elapsed_s"] + 0.001
        spins = merged["ring_full_spins"]
        assert sorted(spins) == ["0", "1"]
        assert all(isinstance(n, int) and n >= 0 for n in spins.values())
        assert merged["restarts"] == {} and sorted(merged["watermarks"]) == ["0", "1"]
        json.dumps(merged)

    def test_tiny_ring_reads_as_worker_bound(self, monkeypatch):
        # 400 packets cannot fit a 4 KiB ring while the worker is still
        # building its pipeline: the parent must wait, and say so.
        config = quick_config()
        roomy = run_sharded(config, "P4", EngineConfig(workers=2))
        monkeypatch.setattr(pool_mod, "_RING_BYTES", 4096)
        tiny = run_sharded(config, "P4", EngineConfig(workers=2))
        assert sum(tiny["ring_full_spins"].values()) > 0
        assert tiny["digest"] == roomy["digest"]

    def test_summary_prints_them(self):
        summary = run_soak(quick_config(packets=200), engine=EngineConfig(workers=2))
        text = render_summary(summary)
        assert "parent dispatch" in text and "waits on a full ring: shard0=" in text
        inline = render_summary(run_soak(quick_config(packets=200)))
        assert "parent dispatch" not in inline


class TestMetricsMerging:
    def test_worker_registries_start_clean(self):
        """Fork-inheritance regression: counters recorded in the parent
        before the fork must not reappear in worker snapshots."""
        config = quick_config(fault_rate=0.0)
        try:
            METRICS.reset()
            METRICS.enable()
            METRICS.inc("test.sentinel", 7)
            merged = run_sharded(config, "P4", EngineConfig(workers=2))
        finally:
            METRICS.disable()
            METRICS.reset()
        counters = merged["metrics"]["counters"]
        assert "test.sentinel" not in counters
        assert counters.get("switch.units", 0) > 0

    def test_merged_counters_equal_single_process(self):
        config = quick_config(fault_rate=0.0)
        with collecting() as reg:
            inline = soak_program(config, "P4")
        single = {
            k: v
            for k, v in reg.counters.items()
            if k.startswith(("switch.", "interp."))
        }
        merged = run_sharded(config, "P4", EngineConfig(workers=3))
        sharded = {
            k: v
            for k, v in merged["metrics"]["counters"].items()
            if k.startswith(("switch.", "interp."))
        }
        assert sharded == single
        assert inline["ledger_ok"]


def _shard_block(shard: int, packets: int, elapsed_s: float) -> dict:
    return {
        "shard": shard,
        "packets": packets,
        "emits": packets,
        "drops": 0,
        "units": packets,
        "replicated": 0,
        "killed": 0,
        "verdicts": {"emit": packets, "drop": 0, "killed": 0},
        "drops_by_reason": {},
        "fault_trips": {},
        "uncaught": [],
        "unbalanced_verdicts": 0,
        "ledger_ok": True,
        "digest": f"d{shard}",
        "elapsed_s": elapsed_s,
        "pkts_per_sec": None,
        "gc": {"collections": [0, 0, 0], "collected": [0, 0, 0],
               "pause_ms": 0.0, "frozen": 0},
    }


class TestWatchdog:
    def test_watchdog_still_trips_when_silent(self, monkeypatch):
        # The whole stream fits the ring, so the parent is done
        # dispatching while shard 0 sleeps on its last packet: nothing
        # re-arms the collect deadline, and with no restart budget the
        # watchdog failure is the run's error.
        from repro.targets.faults import ChaosPlan
        from repro.targets.supervision import RestartPolicy

        monkeypatch.setattr(pool_mod, "_WATCHDOG_S", 1.0)
        engine = EngineConfig(
            workers=2,
            shard_policy="round-robin",
            chaos=ChaosPlan.from_specs(["stall:shard=0@pkt=298@for=30"]),
            restart=RestartPolicy(max_restarts_per_shard=0, restart_budget=0),
        )
        start = time.monotonic()
        with pytest.raises(EngineError, match="watchdog"):
            run_sharded(
                quick_config(packets=300, fault_rate=0.0), "P4", engine
            )
        assert time.monotonic() - start < 15
        assert no_orphans()

    def test_watchdog_end_to_end_with_live_publishes(self, monkeypatch):
        # A real sharded run whose watchdog window is far shorter than
        # the run itself: per-epoch publishes must keep it alive.
        telemetry_epochs = []

        class Capture:
            def publish(self, program, shard, epoch, metrics, ledger=None,
                        final=False, run=None, watermark=None):
                telemetry_epochs.append((shard, epoch))
                return True

            def record_event(self, event):
                pass

        monkeypatch.setattr(pool_mod, "_WATCHDOG_S", 1.5)
        merged = run_sharded(
            quick_config(packets=3000, fault_rate=0.0),
            "P4",
            EngineConfig(workers=2, publish_interval_s=0.1),
            telemetry=Capture(),
        )
        assert merged["ledger_ok"]
        assert telemetry_epochs  # the run did publish mid-flight


class TestMergedRates:
    def test_submillisecond_shards_do_not_break_the_aggregate(self):
        """The merged rate is wall-clock (``packets / wall_s``), so
        sub-millisecond shard times cannot distort it; rounding is
        presentation only, applied to the rendered per-shard values."""
        engine = EngineConfig(workers=2)
        blocks = [
            _shard_block(0, 10, 0.0004),
            _shard_block(1, 10, 0.0003),
        ]
        merged = _merge_blocks(
            "P4", quick_config(), engine, blocks, wall_s=0.002
        )
        assert merged["pkts_per_sec"] == round(20 / 0.002, 1)
        assert [s["elapsed_s"] for s in merged["shards"]] == [0.0, 0.0]

    def test_zero_elapsed_yields_none_not_crash(self):
        engine = EngineConfig(workers=1)
        merged = _merge_blocks(
            "P4", quick_config(), engine, [_shard_block(0, 5, 0.0)],
            wall_s=0.0,
        )
        assert merged["pkts_per_sec"] is None
        # The modelled one-core-per-replica figure is gone, not None.
        assert "aggregate_pkts_per_sec" not in merged

    def test_real_run_reports_unrounded_busy_time(self):
        merged = run_sharded(
            quick_config(packets=50, fault_rate=0.0),
            "P4",
            EngineConfig(workers=2),
        )
        # However quick the run, the rate must be a real number.
        assert merged["pkts_per_sec"] is not None
        assert merged["pkts_per_sec"] > 0


class TestFailureHandling:
    def test_worker_exception_raises_engine_error(self, monkeypatch):
        sabotage_shard0(monkeypatch, "error")
        with pytest.raises(EngineError) as info:
            run_sharded(
                quick_config(packets=100),
                "P4",
                EngineConfig(workers=2),
            )
        err = info.value.to_dict()
        assert err["code"] == "engine-error"
        assert err["shard"] == 0
        assert "sabotaged" in str(err["worker_error"]["error"])
        assert no_orphans()

    def test_dead_worker_raises_engine_error(self, monkeypatch):
        sabotage_shard0(monkeypatch, "exit")
        with pytest.raises(EngineError, match="died"):
            run_sharded(
                quick_config(packets=100),
                "P4",
                EngineConfig(workers=2),
            )
        assert no_orphans()

    def test_worker_interrupt_propagates(self, monkeypatch):
        sabotage_shard0(monkeypatch, "interrupt")
        with pytest.raises(KeyboardInterrupt):
            run_sharded(
                quick_config(packets=100),
                "P4",
                EngineConfig(workers=2),
            )
        assert no_orphans()

    def test_surviving_workers_are_torn_down(self, monkeypatch):
        sabotage_shard0(monkeypatch, "error")
        # The non-sabotaged shard is mid-run when shard 0 fails; the
        # parent must not leave it running.
        with pytest.raises(EngineError):
            run_sharded(
                quick_config(packets=2000),
                "P4",
                EngineConfig(workers=2),
            )
        assert no_orphans()
