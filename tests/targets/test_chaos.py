"""Process-level chaos: supervised recovery must reproduce the exact
undisturbed digest, or fail with the structured partial-result error —
never a traceback, a hang, an orphan process, or a leaked segment."""

import multiprocessing
import os
import time

import pytest

from repro.errors import EXIT_TARGET_ERROR
from repro.targets.engine import EngineConfig, EngineError, assign_shard
from repro.targets import pool as pool_mod
from repro.targets.faults import ChaosPlan
from repro.targets.pool import _REC, WorkerPool
from repro.targets.ring import ShardRing
from repro.targets.soak import NUM_PORTS, SoakConfig, iter_stream_bytes
from repro.targets.supervision import RestartPolicy
from tests.targets.helpers import assert_matches_oracle, oracle_run

PACKETS = 2000


def chaos_config(**kw) -> SoakConfig:
    defaults = dict(
        programs=["P4"], packets=PACKETS, seed=77, fault_rate=0.05
    )
    defaults.update(kw)
    return SoakConfig(**defaults)


def fast_policy(**kw) -> RestartPolicy:
    defaults = dict(backoff_base_s=0.01)
    defaults.update(kw)
    return RestartPolicy(**defaults)


def no_orphans() -> bool:
    deadline = time.monotonic() + 5
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def run_chaotic(config, specs, *, policy=None, telemetry=None, **engine_kw):
    engine = EngineConfig(
        workers=2,
        chaos=ChaosPlan.from_specs(specs) if specs else None,
        restart=policy or fast_policy(),
        **engine_kw,
    )
    with WorkerPool(engine) as pool:
        return pool.submit(config, "P4", telemetry=telemetry)


@pytest.fixture(scope="module")
def clean_digest():
    """The undisturbed reference digest every chaos run must match."""
    block = run_chaotic(chaos_config(), specs=None)
    assert block["ledger_ok"] and not block["uncaught"]
    return block["digest"]


class TestKillRecovery:
    def test_sigkill_mid_stream_reproduces_digest(self, clean_digest):
        before = shm_segments()
        block = run_chaotic(
            chaos_config(), f"kill:shard=0@pkt={PACKETS // 2}"
        )
        assert block["digest"] == clean_digest
        # ...and not merely equal to another pool run: the recovered
        # shard's own digest equals a direct in-process shard loop's.
        assert_matches_oracle(
            block, oracle_run(chaos_config(), "P4", EngineConfig(workers=2))
        )
        assert block["uncaught"] == [] and block["ledger_ok"]
        assert block["restarts"] == {"0": 1}
        assert block["packets"] == PACKETS
        assert no_orphans()
        assert shm_segments() <= before  # no leaked ring segments

    def test_sigkill_under_backpressure_tiny_ring(
        self, clean_digest, monkeypatch
    ):
        # A 2 KiB ring forces the parent to block on a full ring many
        # times; the kill lands while records are in flight, so the
        # replacement's replay genuinely covers dispatched-but-unrun
        # packets.
        monkeypatch.setattr(pool_mod, "_RING_BYTES", 2048)
        block = run_chaotic(
            chaos_config(), f"kill:shard=0@pkt={PACKETS // 2}"
        )
        assert block["digest"] == clean_digest
        assert block["restarts"] == {"0": 1}
        # The waits on the killed replica's ring survive its ring.
        assert all(n > 0 for n in block["ring_full_spins"].values())
        assert no_orphans()

    def test_replacement_ring_carries_only_indices_above_gen_high(
        self, monkeypatch
    ):
        # Counts, not a clock: the replacement replays its shard up to
        # the parent's gen_high at the restart, so the parent puts on
        # the new ring exactly shard 0's packets above it — nothing it
        # replays.  A small ring keeps gen_high near the kill, so the
        # ring still carries a good part of the shard.
        restarts, puts = [], []
        spawn, put = WorkerPool._spawn_worker, ShardRing.put

        def spy_spawn(pool, state, shard):
            spawn(pool, state, shard)
            if state.sup.attempts[shard] > 1:
                restarts.append((shard, state.gen_high, state.rings[shard]))

        def spy_put(ring, payload, *args, **kwargs):
            offset = 0
            while offset < len(payload):
                index, _, length = _REC.unpack_from(payload, offset)
                puts.append((ring, index))
                offset += _REC.size + length
            return put(ring, payload, *args, **kwargs)

        monkeypatch.setattr(WorkerPool, "_spawn_worker", spy_spawn)
        monkeypatch.setattr(ShardRing, "put", spy_put)
        monkeypatch.setattr(pool_mod, "_RING_BYTES", 2048)
        config = chaos_config()
        block = run_chaotic(config, f"kill:shard=0@pkt={PACKETS // 2}")
        assert_matches_oracle(
            block, oracle_run(config, "P4", EngineConfig(workers=2))
        )
        assert block["restarts"] == {"0": 1}
        [(shard, gen_high, fresh)] = restarts
        assert shard == 0
        assert block["shards"][0]["resumed_from"] == gen_high
        sent = [index for ring, index in puts if ring is fresh]
        policy = EngineConfig().shard_policy
        assert sent == [
            index
            for index, data, _ in iter_stream_bytes(config, "P4", NUM_PORTS)
            if index > gen_high and assign_shard(index, data, 2, policy) == 0
        ]
        assert sent  # the kill left part of the shard to dispatch

    @pytest.mark.parametrize(
        "specs", [None, f"kill:shard=0@pkt={PACKETS // 2}"],
        ids=["undisturbed", "restart"],
    )
    def test_parent_generates_each_program_once(self, specs, monkeypatch):
        generated = []

        def spy(config, program, num_ports):
            generated.append(program)
            return iter_stream_bytes(config, program, num_ports)

        # Workers fork after the patch, but their calls (a replacement's
        # replay) land in their own copy of ``generated``.
        monkeypatch.setattr("repro.targets.pool.iter_stream_bytes", spy)
        engine = EngineConfig(
            workers=2,
            chaos=ChaosPlan.from_specs(specs) if specs else None,
            restart=fast_policy(),
        )
        config = chaos_config(programs=["P4", "P1"])
        with WorkerPool(engine) as pool:
            blocks = [pool.submit(config, name) for name in config.programs]
        assert generated == ["P4", "P1"]
        assert [b["restarts"] for b in blocks] == (
            [{"0": 1}] * 2 if specs else [{}] * 2
        )

    def test_sigkill_under_spawn_start_method(self, clean_digest, monkeypatch):
        monkeypatch.setattr(
            pool_mod, "_mp_context", lambda: multiprocessing.get_context("spawn")
        )
        block = run_chaotic(
            chaos_config(), f"kill:shard=0@pkt={PACKETS // 2}"
        )
        assert block["digest"] == clean_digest
        assert block["restarts"] == {"0": 1}
        assert no_orphans()

    def test_kill_during_final_epoch(self, clean_digest):
        # pkt beyond the stream fires after the sentinels: the worker
        # dies draining its ring tail or finalizing its result block.
        block = run_chaotic(
            chaos_config(), f"kill:shard=1@pkt={PACKETS + 1}"
        )
        assert block["digest"] == clean_digest
        assert block["uncaught"] == []
        # The worker may have finished before the late kill landed; if
        # it had not, exactly one supervised restart healed it.
        assert block["restarts"] in ({}, {"1": 1})
        assert no_orphans()

    def test_no_duplicate_unit_when_failure_lands_on_own_packet(self):
        # Regression: the dispatcher used to advance ``gen_high`` to the
        # current packet *before* resolving deferred failures.  When a
        # death was detected at the top of an iteration whose packet
        # belonged to the restarted shard, the recovery covered that
        # packet AND the loop buffered it — one duplicated unit and a
        # diverged digest.  This seed/kill combination reproduced the
        # race deterministically before the fix.
        config = chaos_config(packets=3000, seed=5, fault_rate=0.1)
        clean = run_chaotic(config, specs=None)
        block = run_chaotic(config, "kill:shard=1@pkt=1500")
        assert block["units"] == 3000
        assert block["digest"] == clean["digest"]
        assert block["restarts"] == {"1": 1}

    def test_double_kill_same_shard(self, clean_digest):
        block = run_chaotic(
            chaos_config(),
            [
                f"kill:shard=0@pkt={PACKETS // 4}",
                f"kill:shard=0@pkt={PACKETS // 2}",
            ],
        )
        assert block["digest"] == clean_digest
        assert block["restarts"] == {"0": 2}
        assert block["supervision"]["total_restarts"] == 2
        assert no_orphans()

    def test_kills_on_both_shards(self, clean_digest):
        block = run_chaotic(
            chaos_config(),
            [
                f"kill:shard=0@pkt={PACKETS // 3}",
                f"kill:shard=1@pkt={2 * PACKETS // 3}",
            ],
        )
        assert block["digest"] == clean_digest
        assert block["restarts"] == {"0": 1, "1": 1}
        assert no_orphans()

    def test_compiled_backend_recovers_identically(self):
        config = chaos_config(exec_backend="compiled")
        clean = run_chaotic(config, specs=None)
        block = run_chaotic(config, f"kill:shard=0@pkt={PACKETS // 2}")
        assert block["digest"] == clean["digest"]
        assert block["restarts"] == {"0": 1}
        assert no_orphans()


class TestStopAndStall:
    def test_sigstop_resume_loses_nothing(self, clean_digest):
        # The worker freezes mid-stream; backpressure holds the parent
        # until the scheduled SIGCONT, so no restart is even needed.
        block = run_chaotic(
            chaos_config(),
            f"stop:shard=0@pkt={PACKETS // 2}@resume=0.2",
        )
        assert block["digest"] == clean_digest
        assert block["uncaught"] == []
        assert no_orphans()

    def test_ring_stall_triggers_supervised_restart(
        self, clean_digest, monkeypatch
    ):
        # The worker sleeps far past the watchdog while its ring fills;
        # the parent's blocked put times out, the supervisor replaces
        # the replica (the replacement is not stalled: attempt filter),
        # and the digest still matches.
        monkeypatch.setattr(pool_mod, "_RING_BYTES", 2048)
        monkeypatch.setattr(pool_mod, "_WATCHDOG_S", 1.0)
        block = run_chaotic(
            chaos_config(), f"stall:shard=0@pkt={PACKETS // 4}@for=30"
        )
        assert block["digest"] == clean_digest
        assert block["restarts"] == {"0": 1}
        assert no_orphans()


class TestBudgetExhaustion:
    def test_partial_result_error_is_structured(self):
        before = shm_segments()
        with pytest.raises(EngineError) as excinfo:
            run_chaotic(
                chaos_config(),
                f"kill:shard=0@pkt={PACKETS // 2}",
                policy=fast_policy(max_restarts_per_shard=0,
                                   restart_budget=0),
            )
        err = excinfo.value
        assert err.shard == 0
        assert "restart budget" in str(err)
        as_dict = err.to_dict()
        assert as_dict["exit_code"] == EXIT_TARGET_ERROR
        assert as_dict["supervision"]["abandoned"] == [0]
        # The surviving shard drained and reported a full result.
        assert as_dict["partial"]["completed"] == [1]
        assert as_dict["partial"]["shards"]["1"]["digest"]
        assert as_dict["watermark"] >= -1
        assert no_orphans()
        assert shm_segments() <= before

    def test_repeated_kills_exhaust_the_budget(self):
        # Every incarnation dies at a later dispatch position; with one
        # allowed restart the second death abandons the shard.
        specs = [
            f"kill:shard=0@pkt={PACKETS // 4}",
            f"kill:shard=0@pkt={PACKETS // 2}",
        ]
        with pytest.raises(EngineError) as excinfo:
            run_chaotic(
                chaos_config(), specs,
                policy=fast_policy(max_restarts_per_shard=1),
            )
        err = excinfo.value
        assert err.supervision["restarts"] == {"0": 1}
        assert err.supervision["abandoned"] == [0]
        events = [e["event"] for e in err.supervision["events"]]
        assert events == ["restart", "abandon"]
        assert no_orphans()

    def test_pool_is_broken_after_partial_failure(self):
        engine = EngineConfig(
            workers=2,
            chaos=ChaosPlan.from_specs("kill:shard=0@pkt=100"),
            restart=fast_policy(max_restarts_per_shard=0, restart_budget=0),
        )
        pool = WorkerPool(engine)
        try:
            with pytest.raises(EngineError):
                pool.submit(chaos_config(), "P4")
            with pytest.raises(EngineError):
                pool.submit(chaos_config(), "P4")
        finally:
            pool.close()
        assert no_orphans()


class TestTelemetryIntegration:
    def test_restart_events_and_watermarks_surface(self, clean_digest):
        from repro.obs.telemetry import LiveTelemetry

        telemetry = LiveTelemetry()
        block = run_chaotic(
            chaos_config(),
            f"kill:shard=0@pkt={PACKETS // 2}",
            telemetry=telemetry,
            publish_interval_s=0.05,
        )
        assert block["digest"] == clean_digest
        snapshot = telemetry.snapshot()
        events = snapshot["events"]
        assert any(e["event"] == "restart" and e["shard"] == 0
                   for e in events)
        watermarks = {
            entry["shard"]: entry.get("watermark")
            for entry in snapshot["shards"]
        }
        # Final publishes carry each shard's completed watermark.
        assert all(w is not None for w in watermarks.values())
        assert no_orphans()
