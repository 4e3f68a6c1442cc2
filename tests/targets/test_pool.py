"""Worker pool: one fleet per submit, backpressure, reuse, determinism."""

import multiprocessing
import os
import time

import pytest

from repro.targets import pool as pool_mod
from repro.targets.engine import EngineConfig, EngineError
from repro.targets.faults import ChaosPlan
from repro.targets.pool import WorkerPool
from repro.targets.ring import ShardRing
from repro.targets.soak import SoakConfig
from repro.targets.supervision import RestartPolicy
from repro.targets.vector import NUMPY_AVAILABLE
from tests.targets.helpers import (
    EXECUTORS,
    assert_matches_oracle,
    oracle_run,
    sabotage_shard0,
)


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


def shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def open_fds() -> int:
    return len(os.listdir(f"/proc/{os.getpid()}/fd"))


class TestLifecycle:
    def test_submit_reaps_its_fleet(self):
        pool = WorkerPool(EngineConfig(workers=2))
        try:
            block = pool.submit(small_config(), "P4")
            assert block["packets"] == 400 and block["ledger_ok"]
            assert len(block["shards"]) == 2
            assert no_orphans()  # before close(): the submit reaped them
        finally:
            pool.close()

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


class _SpyContext:
    """A start-method context that records every result pipe made."""

    def __init__(self, ctx, pipes: list) -> None:
        self._ctx, self._pipes = ctx, pipes

    def __getattr__(self, name):
        return getattr(self._ctx, name)

    def Pipe(self, duplex=True):
        ends = self._ctx.Pipe(duplex)
        self._pipes.extend(ends)
        return ends


class TestFleetPerSubmit:
    """Each submit owns its processes, rings and result pipes; none of
    them outlives it, however the run ends."""

    @pytest.mark.parametrize(
        "outcome", ["ok", "worker-error", "abandon", "interrupt"]
    )
    def test_nothing_outlives_a_submit(self, outcome, monkeypatch):
        rings, pipes = [], []

        class SpyRing(ShardRing):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                rings.append(self)

        monkeypatch.setattr(pool_mod, "ShardRing", SpyRing)
        restart = RestartPolicy(backoff_base_s=0.01)
        chaos = None
        if outcome == "worker-error":
            sabotage_shard0(monkeypatch, "error")
        elif outcome == "interrupt":
            sabotage_shard0(monkeypatch, "interrupt")
        elif outcome == "abandon":
            restart = RestartPolicy(max_restarts_per_shard=0, restart_budget=0)
            chaos = ChaosPlan.from_specs("kill:shard=0@pkt=200")
        expected = {
            "ok": None,
            "worker-error": EngineError,
            "abandon": EngineError,
            "interrupt": KeyboardInterrupt,
        }[outcome]
        before, fds = shm_segments(), open_fds()
        with WorkerPool(
            EngineConfig(workers=2, restart=restart, chaos=chaos)
        ) as pool:
            pool._ctx = _SpyContext(pool._ctx, pipes)
            if expected is None:
                assert pool.submit(small_config(), "P4")["ledger_ok"]
            else:
                with pytest.raises(expected):
                    pool.submit(small_config(), "P4")
            # Checked before close(): the submit itself tore down.
            assert no_orphans()
            assert len(rings) >= 2 and len(pipes) == 2 * len(rings)
            assert all(end.closed for end in pipes)
            # Every ring's mapping is closed in the parent.
            assert all(ring._buf.closed for ring in rings)
            assert shm_segments() <= before
            assert open_fds() <= fds  # the result pipes are closed too

    def test_a_worker_killed_mid_message_stalls_no_other_shard(
        self, monkeypatch
    ):
        """Shard 0's first incarnation writes half a message to its
        result pipe and is SIGKILLed.  Only that pipe ends mid-message:
        the other shard reports as usual, shard 0 restarts, and the run
        ends as an undisturbed one does, far inside the watchdog."""
        import signal
        import struct

        run_shard = pool_mod._run_pool_shard

        def killed_mid_message(config, program, engine, shard, attempt,
                               *rest):
            if shard == 0 and attempt == 1:
                out = rest[-2]
                # A length header promising more bytes than follow.
                os.write(out.fileno(), struct.pack("!i", 4096) + b"half")
                os.kill(os.getpid(), signal.SIGKILL)
            return run_shard(config, program, engine, shard, attempt, *rest)

        with WorkerPool(EngineConfig(workers=2)) as pool:
            undisturbed = pool.submit(small_config(), "P4")
        monkeypatch.setattr(pool_mod, "_run_pool_shard", killed_mid_message)
        monkeypatch.setattr(pool_mod, "_WATCHDOG_S", 30.0)
        engine = EngineConfig(
            workers=2, restart=RestartPolicy(backoff_base_s=0.01)
        )
        start = time.monotonic()
        with WorkerPool(engine) as pool:
            block = pool.submit(small_config(), "P4")
        assert time.monotonic() - start < 15
        assert block["restarts"] == {"0": 1}
        assert [e["reason"] for e in block["supervision"]["events"]] == [
            "died"
        ]
        assert block["digest"] == undisturbed["digest"]
        assert no_orphans()

    @pytest.mark.parametrize(
        "specs", [None, "kill:shard=0@pkt=200"], ids=["fork", "fork-restart"]
    )
    def test_composed_pipeline_pickles(self, specs, monkeypatch):
        from repro.midend.inline import ComposedPipeline

        pickled = []

        def counting(self, protocol):
            pickled.append(self)
            return object.__reduce_ex__(self, protocol)

        monkeypatch.setattr(ComposedPipeline, "__reduce_ex__", counting)
        engine = EngineConfig(
            workers=2,
            chaos=ChaosPlan.from_specs(specs) if specs else None,
            restart=RestartPolicy(backoff_base_s=0.01),
        )
        with WorkerPool(engine) as pool:
            block = pool.submit(small_config(), "P4")
        assert block["restarts"] == ({"0": 1} if specs else {})
        assert pickled == []  # workers, replacements too, inherit it
        assert no_orphans()


class TestForkIsTheContract:
    """Workers are forked, and inherit their rings as anonymous shared
    mappings: no start method but fork, no named segment, no resource
    tracker, nothing a dead parent could leave behind."""

    def test_no_fork_refuses_a_sharded_run(self, monkeypatch):
        from repro.errors import TargetError

        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(pool_mod.multiprocessing, "get_context", no_fork)
        with pytest.raises(TargetError) as exc:
            WorkerPool(EngineConfig(workers=2))
        assert exc.value.code == "fork-unavailable"

    def test_the_pool_forks_whatever_the_default_start_method(
        self, monkeypatch
    ):
        # The process-wide default may be spawn (or, on newer Pythons,
        # forkserver); a sharded run still forks, and its workers
        # inherit the program rather than receive it pickled.
        from multiprocessing import context

        from repro.midend.inline import ComposedPipeline

        pickled = []

        def counting(self, protocol):
            pickled.append(self)
            return object.__reduce_ex__(self, protocol)

        monkeypatch.setattr(
            context._default_context, "_actual_context",
            multiprocessing.get_context("spawn"),
        )
        monkeypatch.setattr(ComposedPipeline, "__reduce_ex__", counting)
        assert multiprocessing.get_start_method() == "spawn"
        config, engine = small_config(packets=120), EngineConfig(workers=2)
        with WorkerPool(engine) as pool:
            assert pool._ctx.get_start_method() == "fork"
            block = pool.submit(config, "P4")
        assert_matches_oracle(block, oracle_run(config, "P4", engine))
        assert pickled == []
        assert no_orphans()

    def test_inline_runs_need_no_fork(self, monkeypatch):
        from repro.targets.soak import run_soak

        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(pool_mod.multiprocessing, "get_context", no_fork)
        summary = run_soak(small_config(packets=120))
        assert summary["ok"]

    RUN = """
import multiprocessing.resource_tracker as tracker
import os
from repro.targets.engine import EngineConfig
from repro.targets.soak import SoakConfig, run_soak
before = set(os.listdir("/dev/shm"))
summary = run_soak(
    SoakConfig(programs=["P4"], packets=400, seed=77, exec_backend="codegen"),
    EngineConfig(workers=2),
)
assert summary["ok"]
print(tracker._resource_tracker._pid, sorted(set(os.listdir("/dev/shm")) - before))
"""

    def test_a_sharded_run_starts_no_resource_tracker(self):
        # A named segment registers with multiprocessing's resource
        # tracker, a separate interpreter the first ring starts; an
        # anonymous mapping has nothing to register.
        import subprocess
        import sys

        done = subprocess.run(
            [sys.executable, "-c", self.RUN],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "None []"

    KILLED = """
from repro.targets.engine import EngineConfig
from repro.targets.pool import WorkerPool
from repro.targets.soak import SoakConfig, run_soak

spawn, dispatch = WorkerPool._spawn_worker, WorkerPool._dispatch

def spy_spawn(self, state, shard):
    spawn(self, state, shard)
    print("worker", state.procs[shard].pid, flush=True)

def spy_dispatch(self, state):
    print("dispatching", flush=True)
    dispatch(self, state)

WorkerPool._spawn_worker, WorkerPool._dispatch = spy_spawn, spy_dispatch
run_soak(
    SoakConfig(programs=["P4"], packets=10**7, seed=77, exec_backend="codegen"),
    EngineConfig(workers=2),
)
"""

    def test_a_killed_parent_leaves_no_worker_and_no_segment(self):
        import signal
        import subprocess
        import sys

        before = shm_segments()
        parent = subprocess.Popen(
            [sys.executable, "-c", self.KILLED],
            stdout=subprocess.PIPE, text=True,
        )
        workers = []
        try:
            for line in parent.stdout:
                if line.startswith("worker"):
                    workers.append(int(line.split()[1]))
                elif line.startswith("dispatching"):
                    break
            assert len(workers) == 2
            time.sleep(0.5)  # well into the dispatch loop
            assert parent.poll() is None
        finally:
            parent.send_signal(signal.SIGKILL)
            parent.wait(10)
            parent.stdout.close()
        deadline = time.monotonic() + 10
        while any(_running(pid) for pid in workers):
            assert time.monotonic() < deadline, "a worker outlived its parent"
            time.sleep(0.05)
        assert shm_segments() <= before


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except FileNotFoundError:
        return False
    # The state letter follows the parenthesized command name.
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestReuse:
    def test_two_submits_on_one_pool_agree(self):
        with WorkerPool(EngineConfig(workers=2)) as pool:
            first = pool.submit(small_config(), "P4")
            second = pool.submit(small_config(), "P4")
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
    def test_tiny_ring_blocks_parent_but_loses_nothing(self, monkeypatch):
        # A ring far smaller than the stream forces the parent to block
        # on backpressure many times; exact packet accounting proves
        # nothing was dropped or duplicated while blocked.
        monkeypatch.setattr(pool_mod, "_RING_BYTES", 2048)
        with WorkerPool(EngineConfig(workers=2)) as pool:
            block = pool.submit(small_config(packets=1500), "P4")
        assert block["packets"] == 1500
        assert sum(s["packets"] for s in block["shards"]) == 1500
        assert block["ledger_ok"] and not block["uncaught"]

    def test_tiny_ring_digest_matches_default_ring(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "_RING_BYTES", 2048)
        engine = EngineConfig(workers=2)
        with WorkerPool(engine) as pool:
            block = pool.submit(small_config(), "P4")
        assert_matches_oracle(block, oracle_run(small_config(), "P4", engine))

    def test_smallest_ring_places_every_record(self, monkeypatch):
        # On a 1 KiB ring a record over 508 bytes may never be placed
        # after a wrap, so the packers must keep every record under
        # that.  No restarts: a stall fails the run at the watchdog.
        config = small_config(traffic="mixed", fault_rate=0.1)
        monkeypatch.setattr(pool_mod, "_RING_BYTES", 1024)
        monkeypatch.setattr(pool_mod, "_WATCHDOG_S", 3)
        engine = EngineConfig(
            workers=2,
            restart=RestartPolicy(max_restarts_per_shard=0, restart_budget=0),
        )
        with WorkerPool(engine) as pool:
            block = pool.submit(config, "P4")
        assert_matches_oracle(block, oracle_run(config, "P4", engine))


class TestDeterminism:
    """Ring + pool + supervision against a direct in-process call of
    the shard loop (``tests.targets.helpers.oracle_run``)."""

    @pytest.mark.parametrize("exec_backend", EXECUTORS)
    def test_dispatch_matches_oracle_digest(self, exec_backend):
        config = small_config(exec_backend=exec_backend)
        for policy in ("flow-hash", "round-robin"):
            engine = EngineConfig(workers=2, shard_policy=policy)
            with WorkerPool(engine) as pool:
                dispatch = pool.submit(config, "P4")
            assert_matches_oracle(dispatch, oracle_run(config, "P4", engine))

    def test_flow_hash_and_round_robin_policies(self):
        digests = set()
        for policy in ("flow-hash", "round-robin"):
            engine = EngineConfig(workers=3, shard_policy=policy)
            with WorkerPool(engine) as pool:
                dispatch = pool.submit(small_config(), "P4")
            assert_matches_oracle(
                dispatch, oracle_run(small_config(), "P4", engine)
            )
            digests.add(dispatch["digest"])
        assert len(digests) == 2  # the policy is part of the digest's key


class TestFailureHandling:
    def test_worker_error_breaks_pool(self, monkeypatch):
        sabotage_shard0(monkeypatch, "error")
        pool = WorkerPool(EngineConfig(workers=2))
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

    def test_worker_hard_exit_detected(self, monkeypatch):
        sabotage_shard0(monkeypatch, "exit")
        pool = WorkerPool(EngineConfig(workers=2))
        try:
            with pytest.raises(EngineError) as excinfo:
                pool.submit(small_config(), "P4")
            assert "died" in str(excinfo.value)
        finally:
            pool.close()
        assert no_orphans()

    def test_one_shot_pool_reports_supervision_fields(self):
        # "Open a pool, submit one program": the block carries the
        # pool's supervision fields and the pool reaps its workers.
        with WorkerPool(EngineConfig(workers=2)) as pool:
            block = pool.submit(small_config(), "P4")
        assert block["degraded"] is False and "watermarks" in block
        assert no_orphans()


class TestWorkersInheritModules:
    """The parent derives every module the run's backend generates
    before the first fork: a forked worker, a supervised replacement
    too, instantiates them and generates or compiles nothing."""

    @pytest.mark.parametrize("backend", ["codegen", "vector"])
    @pytest.mark.parametrize(
        "specs", [None, "kill:shard=0@pkt=200"], ids=["undisturbed", "restart"]
    )
    def test_workers_compile_nothing(self, backend, specs, tmp_path,
                                     monkeypatch):
        from repro.targets import codegen, vector

        calls = tmp_path / "compiles"
        calls.touch()
        compile_cached = codegen.compile_cached

        def spy(source, filename):
            # A forked worker shares no memory with the parent: each
            # call leaves the caller's pid in a file.
            with open(calls, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return compile_cached(source, filename)

        monkeypatch.setattr(codegen, "compile_cached", spy)
        monkeypatch.setattr(vector, "compile_cached", spy)
        engine = EngineConfig(
            workers=2,
            chaos=ChaosPlan.from_specs(specs) if specs else None,
            restart=RestartPolicy(backoff_base_s=0.01),
        )
        config = small_config(exec_backend=backend)
        # codegen's module, and its columnwise tier where numpy imports.
        modules = 2 if NUMPY_AVAILABLE else 1
        with WorkerPool(engine) as pool:
            for submit in (1, 2):
                block = pool.submit(config, "P4")
                assert block["restarts"] == ({"0": 1} if specs else {})
                # Each submit composes the program afresh, and the parent
                # generates each of its modules exactly once.
                pids = calls.read_text().split()
                assert pids == [str(os.getpid())] * (modules * submit)
                counters = block["metrics"]["counters"]
                assert counters["codegen.packets"] == 400
                for key in ("codegen.generations", "codegen.build_cache_misses",
                            "vector.plan_built"):
                    assert key not in counters, key
        assert no_orphans()

    def test_a_generation_error_fails_the_submit_before_any_fork(
        self, monkeypatch
    ):
        from repro.targets import codegen

        def broken(self):
            raise RuntimeError("generator broke")

        spawned = []
        monkeypatch.setattr(codegen.SourceGen, "generate", broken)
        monkeypatch.setattr(
            WorkerPool, "_spawn_worker",
            lambda self, state, shard: spawned.append(shard),
        )
        with WorkerPool(EngineConfig(workers=2)) as pool:
            with pytest.raises(RuntimeError, match="generator broke"):
                pool.submit(small_config(exec_backend="codegen"), "P4")
        assert spawned == []

    @pytest.mark.parametrize("backend", ["codegen", "vector"])
    def test_without_numpy_workers_run_the_lane_loop(
        self, backend, monkeypatch, columnwise_any_width
    ):
        """No numpy: the workers run every batch on the lane loop, to the
        same digest, and the parent derives no columnwise tier."""
        from repro.targets import vector

        config = small_config(exec_backend="interp")
        with WorkerPool(EngineConfig(workers=2)) as pool:
            want = pool.submit(config, "P4")["digest"]
            monkeypatch.setattr(vector, "_np", None)
            config.exec_backend = backend
            block = pool.submit(config, "P4")
        assert block["ledger_ok"] and block["digest"] == want
        counters = block["metrics"]["counters"]
        assert counters["vector.lane_loop.no-numpy"] >= 1
        assert "vector.plan_built" not in counters
        assert no_orphans()


class TestForkAfterImports:
    """The parent derives the run's modules before the first fork, so
    workers (and supervised replacements) inherit what they import
    instead of each importing it — codegen's columnwise tier and numpy
    included."""

    PROBE = """
import sys
from repro.targets.engine import EngineConfig
from repro.targets.pool import WorkerPool
from repro.targets.ring import ShardRing
from repro.targets.soak import SoakConfig

imported_at_fork = []
spawn = WorkerPool._spawn_worker

def spy(self, state, shard):
    imported_at_fork.append("repro.targets.vector" in sys.modules)
    spawn(self, state, shard)

WorkerPool._spawn_worker = spy
assert "repro.targets.vector" not in sys.modules
config = SoakConfig(programs=["P4"], packets=64, seed=7, exec_backend="codegen")
with WorkerPool(EngineConfig(workers=2)) as pool:
    block = pool.submit(config, "P4")
assert block["ledger_ok"] and block["packets"] == 64
print(imported_at_fork)
"""

    @pytest.mark.skipif(not NUMPY_AVAILABLE, reason="numpy not installed")
    def test_the_tier_is_imported_before_the_workers_fork(self):
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
