"""Resident worker pool: lifecycle, backpressure, reuse, determinism."""

import multiprocessing
import time

import pytest

from repro.targets.backends import EXEC_BACKENDS
from repro.targets.engine import EngineConfig, EngineError, run_sharded_program
from repro.targets.pool import WorkerPool
from repro.targets.soak import SoakConfig
from repro.targets.supervision import RestartPolicy
from repro.targets.vector import NUMPY_AVAILABLE
from tests.targets.helpers import assert_matches_oracle, oracle_run

#: Every backend this host can run (``vector`` needs numpy).
BACKENDS = [b for b in EXEC_BACKENDS if b != "vector" or NUMPY_AVAILABLE]


def small_config(**kw) -> SoakConfig:
    defaults = dict(programs=["P4"], packets=400, seed=77, fault_rate=0.05)
    defaults.update(kw)
    return SoakConfig(**defaults)


def no_orphans() -> bool:
    deadline = time.monotonic() + 5
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


class TestLifecycle:
    def test_submit_starts_lazily_and_close_reaps(self):
        pool = WorkerPool(EngineConfig(workers=2))
        try:
            block = pool.submit(small_config(), "P4")
            assert block["packets"] == 400 and block["ledger_ok"]
            assert len(multiprocessing.active_children()) >= 2
        finally:
            pool.close()
        assert no_orphans()

    def test_close_unlinks_shared_memory(self):
        from multiprocessing import shared_memory

        pool = WorkerPool(EngineConfig(workers=2))
        pool.start()
        names = [ring.name for ring in pool._rings]
        pool.submit(small_config(), "P4")
        pool.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        assert no_orphans()

    def test_context_manager_tears_down(self):
        with WorkerPool(EngineConfig(workers=2)) as pool:
            block = pool.submit(small_config(), "P4")
            assert block["ledger_ok"]
        assert no_orphans()

    def test_closed_pool_refuses_submits(self):
        pool = WorkerPool(EngineConfig(workers=2))
        pool.start()
        pool.close()
        with pytest.raises(EngineError):
            pool.submit(small_config(), "P4")

    def test_close_is_idempotent(self):
        pool = WorkerPool(EngineConfig(workers=2))
        pool.start()
        pool.submit(small_config(packets=120), "P4")
        pool.close()
        pool.close()  # second close must be a no-op, not an error
        pool.close()
        assert no_orphans()

    def test_close_before_start_is_safe(self):
        pool = WorkerPool(EngineConfig(workers=2))
        pool.close()  # never started: nothing to tear down
        with pytest.raises(EngineError):
            pool.start()  # and the pool stays closed

    def test_exception_inside_context_still_reaps(self):
        with pytest.raises(RuntimeError):
            with WorkerPool(EngineConfig(workers=2)) as pool:
                pool.submit(small_config(packets=120), "P4")
                raise RuntimeError("simulated parent error")
        assert no_orphans()

    def test_no_shm_leak_on_simulated_parent_error(self):
        # Satellite: abnormal teardown (parent raises mid-session, pool
        # dropped without close()) must not leak /dev/shm segments —
        # the ring finalizers reclaim them when the objects die.
        import gc

        from multiprocessing import shared_memory

        pool = WorkerPool(EngineConfig(workers=2))
        pool.start()
        names = [ring.name for ring in pool._rings]
        try:
            raise RuntimeError("simulated parent error before close()")
        except RuntimeError:
            pass
        # The parent "forgot" close(); dropping the pool (and with it
        # the rings) must still unlink the segments via weakref.finalize.
        for proc in pool._procs.values():
            proc.kill()
            proc.join(timeout=5)
        pool._out_queue.close()
        pool._out_queue.cancel_join_thread()
        del pool
        gc.collect()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        assert no_orphans()


class TestReuse:
    def test_two_submits_reuse_the_same_workers(self):
        with WorkerPool(EngineConfig(workers=2)) as pool:
            pool.start()
            pids = sorted(p.pid for p in pool._procs.values())
            first = pool.submit(small_config(), "P4")
            second = pool.submit(small_config(), "P4")
            assert sorted(p.pid for p in pool._procs.values()) == pids
        # Same config -> bit-identical results; a worker that carried
        # state (registry, fault plan, switch ledger) into run 2 would
        # change counters or the verdict stream.
        assert first["digest"] == second["digest"]
        assert first["packets"] == second["packets"] == 400

    def test_second_run_registry_and_ledger_start_clean(self):
        with WorkerPool(EngineConfig(workers=2)) as pool:
            first = pool.submit(small_config(), "P4")
            second = pool.submit(small_config(), "P4")
        # Cumulative leakage across runs would double every counter.
        assert second["metrics"]["counters"] == first["metrics"]["counters"]
        assert second["units"] == first["units"]
        for one, two in zip(first["shards"], second["shards"]):
            assert one["packets"] == two["packets"]
            assert one["digest"] == two["digest"]

    def test_distinct_programs_on_one_pool(self):
        with WorkerPool(EngineConfig(workers=2)) as pool:
            p4 = pool.submit(small_config(), "P4")
            p7 = pool.submit(small_config(), "P7")
        assert p4["ledger_ok"] and p7["ledger_ok"]
        assert p4["digest"] != p7["digest"]


class TestBackpressure:
    def test_tiny_ring_blocks_parent_but_loses_nothing(self):
        # A ring far smaller than the stream forces the parent to block
        # on backpressure many times; exact packet accounting proves
        # nothing was dropped or duplicated while blocked.
        engine = EngineConfig(workers=2, ring_bytes=2048)
        with WorkerPool(engine) as pool:
            block = pool.submit(small_config(packets=1500), "P4")
        assert block["packets"] == 1500
        assert sum(s["packets"] for s in block["shards"]) == 1500
        assert block["ledger_ok"] and not block["uncaught"]

    def test_tiny_ring_digest_matches_default_ring(self):
        engine = EngineConfig(workers=2, ring_bytes=2048)
        with WorkerPool(engine) as pool:
            block = pool.submit(small_config(), "P4")
        assert_matches_oracle(block, oracle_run(small_config(), "P4", engine))

    def test_smallest_ring_places_every_record(self):
        # On a 1 KiB ring a record over 508 bytes may never be placed
        # after a wrap, so the packers must keep every record under
        # that.  No restarts: a stall fails the run at the watchdog.
        config = small_config(traffic="mixed", fault_rate=0.1)
        engine = EngineConfig(
            workers=2, ring_bytes=1024, watchdog_s=3,
            restart=RestartPolicy(max_restarts_per_shard=0, restart_budget=0),
        )
        with WorkerPool(engine) as pool:
            block = pool.submit(config, "P4")
        assert_matches_oracle(block, oracle_run(config, "P4", engine))


class TestDeterminism:
    """Ring + pool + supervision against a direct in-process call of
    the shard loop (``tests.targets.helpers.oracle_run``)."""

    @pytest.mark.parametrize("exec_backend", BACKENDS)
    def test_dispatch_matches_oracle_digest(self, exec_backend):
        config = small_config(exec_backend=exec_backend)
        for policy in ("flow-hash", "round-robin"):
            engine = EngineConfig(workers=2, shard_policy=policy)
            dispatch = run_sharded_program(config, "P4", engine)
            assert_matches_oracle(dispatch, oracle_run(config, "P4", engine))

    def test_flow_hash_and_round_robin_policies(self):
        digests = set()
        for policy in ("flow-hash", "round-robin"):
            engine = EngineConfig(workers=3, shard_policy=policy)
            dispatch = run_sharded_program(small_config(), "P4", engine)
            assert_matches_oracle(
                dispatch, oracle_run(small_config(), "P4", engine)
            )
            digests.add(dispatch["digest"])
        assert len(digests) == 2  # the policy is part of the digest's key


class TestFailureHandling:
    def test_worker_error_breaks_pool(self):
        engine = EngineConfig(workers=2, sabotage="error")
        pool = WorkerPool(engine)
        try:
            with pytest.raises(EngineError) as excinfo:
                pool.submit(small_config(), "P4")
            assert excinfo.value.shard == 0
            assert "sabotaged" in str(excinfo.value)
            with pytest.raises(EngineError):  # broken after a failed run
                pool.submit(small_config(), "P4")
        finally:
            pool.close()
        assert no_orphans()

    def test_worker_hard_exit_detected(self):
        engine = EngineConfig(workers=2, sabotage="exit")
        pool = WorkerPool(engine)
        try:
            with pytest.raises(EngineError) as excinfo:
                pool.submit(small_config(), "P4")
            assert "died" in str(excinfo.value)
        finally:
            pool.close()
        assert no_orphans()

    def test_run_sharded_program_routes_dispatch(self):
        # The one-shot entry point is "open a pool, submit": it returns
        # the pool's supervision fields and reaps its workers.
        block = run_sharded_program(
            small_config(), "P4", EngineConfig(workers=2)
        )
        assert block["degraded"] is False and "watermarks" in block
        assert no_orphans()


class TestSpawnStartMethod:
    def test_pool_works_without_fork_inheritance(self):
        # The pipeline travels by control message and the rings attach
        # by name, so a spawn pool must produce the oracle's digests
        # exactly as the default fork pool does.
        config, engine = small_config(packets=120), EngineConfig(workers=2)
        with WorkerPool(engine, start_method="spawn") as pool:
            spawned = pool.submit(config, "P4")
        assert_matches_oracle(spawned, oracle_run(config, "P4", engine))
        assert no_orphans()


class TestForkAfterImports:
    """The parent resolves the run's backend before the first fork, so
    workers (and supervised replacements) inherit the executor's module
    instead of each importing it — numpy, for ``vector``."""

    PROBE = """
import sys
from repro.targets.engine import EngineConfig, run_sharded_program
from repro.targets.pool import WorkerPool
from repro.targets.soak import SoakConfig

imported_at_fork = []
spawn = WorkerPool._spawn_worker

def spy(self, shard):
    imported_at_fork.append("repro.targets.vector" in sys.modules)
    spawn(self, shard)

WorkerPool._spawn_worker = spy
assert "repro.targets.vector" not in sys.modules
config = SoakConfig(programs=["P4"], packets=64, seed=7, exec_backend="vector")
block = run_sharded_program(config, "P4", EngineConfig(workers=2))
assert block["ledger_ok"] and block["packets"] == 64
print(imported_at_fork)
"""

    @pytest.mark.skipif(not NUMPY_AVAILABLE, reason="numpy not installed")
    def test_vector_is_imported_before_the_workers_fork(self):
        import subprocess
        import sys

        done = subprocess.run(
            [sys.executable, "-c", self.PROBE],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[True, True]"

    def test_submit_validates_before_it_starts_workers(self, monkeypatch):
        order = []
        monkeypatch.setattr(
            SoakConfig, "validate", lambda self: order.append("validate")
        )

        def start(self):
            order.append("start")
            raise RuntimeError("stop here")

        monkeypatch.setattr(WorkerPool, "start", start)
        with pytest.raises(RuntimeError, match="stop here"):
            with WorkerPool(EngineConfig(workers=2)) as pool:
                pool.submit(small_config(), "P4")
        assert order == ["validate", "start"]
