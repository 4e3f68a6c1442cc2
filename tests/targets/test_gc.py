"""The packet path and the cyclic collector: what a run leaves to it,
what it reports about it, and who freezes what (DESIGN.md §8, §13)."""

import gc
import weakref
from collections import Counter

import pytest

from repro.lib.catalog import PROGRAMS, link_composition
from repro.targets.backends import derive_modules, executable_form
from repro.targets.engine import EngineConfig, _merge_blocks
from repro.targets.pool import WorkerPool
from repro.targets.soak import (
    NUM_PORTS,
    SoakConfig,
    build_switch,
    compose_program,
    consume,
    iter_stream,
    run_soak,
)
from tests.targets.helpers import LANE_LOOP, columnwise_floor

#: What a faulting lane used to leave to the collector: its verdict,
#: packets, frames and tracebacks, all held by one reference cycle.
PACKET_PATH_TYPES = {"Verdict", "Packet", "frame", "FaultError", "traceback"}


def hostile_config(**kw) -> SoakConfig:
    defaults = dict(programs=["P4"], packets=2000, seed=1234, fault_rate=0.1,
                    traffic="mixed", exec_backend="codegen")
    defaults.update(kw)
    return SoakConfig(**defaults)


def cyclic_garbage(run) -> Counter:
    """Type names of the objects only the cyclic collector frees after
    ``run()``: ``DEBUG_SAVEALL`` keeps them in ``gc.garbage``."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


class TestNoLaneCycles:
    """A lane that raises must not keep its batch alive: the triple it
    emits carries no traceback, and ``process`` drops its reference to
    the exception it re-raises."""

    @pytest.mark.parametrize(
        "floor", (LANE_LOOP, 1), ids=("lane-loop", "columnwise")
    )
    @pytest.mark.parametrize("mode", ("micro", "mono"))
    @pytest.mark.parametrize("soa", (False, True), ids=("process", "soa"))
    def test_faulting_traffic_leaves_no_cycles(self, floor, mode, soa):
        config = hostile_config(mode=mode)
        switch = build_switch(config, "P4", compose_program(config, "P4"))
        items = [
            (packet, port)
            for _, packet, port in iter_stream(config, "P4", NUM_PORTS)
        ]

        def run() -> None:
            if soa:
                with columnwise_floor(floor):
                    for start in range(0, len(items), 256):
                        switch.process_batch(items[start:start + 256], soa=True)
            else:
                for packet, port in items:
                    switch.process(packet, port)

        left = cyclic_garbage(run)
        assert switch.stats["killed"] > 100  # the faulting lanes ran
        assert not PACKET_PATH_TYPES & set(left), left


class TestNoComposeCycles:
    """A composed program goes with its last reference, by reference
    counting alone: no cycle keeps it waiting for a full collection
    while every later fork inherits it."""

    @pytest.fixture
    def no_collector(self):
        enabled = gc.isenabled()
        gc.disable()
        yield
        if enabled:
            gc.enable()

    @pytest.mark.parametrize("mode", ("micro", "mono"))
    def test_compose_leaves_no_cycle_holding_the_program(
        self, mode, no_collector
    ):
        config = hostile_config(mode=mode)
        composed = weakref.ref(compose_program(config, "P7"))
        assert composed() is None

    @pytest.mark.parametrize("mode", ("micro", "mono"))
    @pytest.mark.parametrize("program", PROGRAMS)
    def test_derived_modules_leave_no_cycle(self, program, mode, no_collector):
        """What a pool's parent derives before it forks — the executable
        form, the generated module and the columnwise one — goes with
        the program: after all of it is dropped, a collection finds
        nothing."""
        config = hostile_config(mode=mode)

        def derive_and_drop() -> None:
            composed = compose_program(config, program)
            derive_modules(composed, "codegen")
            assert "generated_module" in executable_form(composed).derived

        derive_and_drop()  # first-use imports settle outside the count
        gc.collect()
        derive_and_drop()
        assert gc.collect() == 0

    def test_submit_leaves_no_cycle_holding_the_program(self, no_collector):
        config = hostile_config(programs=["P1"], packets=200)
        program = compose_program(config, "P1")
        composed = weakref.ref(program)
        with WorkerPool(EngineConfig(workers=2)) as pool:
            assert pool.submit(config, "P1", composed=program)["packets"] == 200
        del program
        assert composed() is None


class TestGcBlock:
    def test_consume_reports_and_unhooks(self):
        config = hostile_config(packets=300)
        switch = build_switch(config, "P4", compose_program(config, "P4"))
        hooks = list(gc.callbacks)

        def collecting_stream():
            for n, item in enumerate(iter_stream(config, "P4", NUM_PORTS)):
                if n % 100 == 0:
                    gc.collect()
                yield item

        block = consume(switch, collecting_stream(), batch_lanes=16)
        assert gc.callbacks == hooks
        assert set(block["gc"]) == {"collections", "collected", "pause_ms",
                                    "frozen"}
        assert block["gc"]["collections"][2] >= 3
        assert block["gc"]["pause_ms"] > 0
        assert block["gc"]["frozen"] == gc.get_freeze_count()

    def test_gc_block_is_not_in_the_digest(self):
        config = hostile_config(packets=300)

        def run(stream):
            switch = build_switch(config, "P4", compose_program(config, "P4"))
            return consume(switch, stream, batch_lanes=16)

        quiet = run(iter_stream(config, "P4", NUM_PORTS))
        busy = run(
            item
            for item in iter_stream(config, "P4", NUM_PORTS)
            if gc.collect(0) >= 0
        )
        assert busy["gc"]["collections"][0] >= 300
        assert busy["digest"] == quiet["digest"]

    def test_hook_is_removed_when_the_stream_raises(self):
        config = hostile_config(packets=10)
        switch = build_switch(config, "P4", compose_program(config, "P4"))
        hooks = list(gc.callbacks)

        def broken():
            yield from iter_stream(config, "P4", NUM_PORTS)
            raise RuntimeError("ring went away")

        with pytest.raises(RuntimeError):
            consume(switch, broken())
        assert gc.callbacks == hooks

    def test_merge_sums_the_shard_blocks(self):
        def shard(index, collections, collected, pause_ms, frozen):
            return {
                "shard": index, "packets": 1, "emits": 1, "drops": 0,
                "units": 1, "replicated": 0, "killed": 0,
                "verdicts": {"emit": 1}, "drops_by_reason": {},
                "fault_trips": {}, "uncaught": [], "unbalanced_verdicts": 0,
                "ledger_ok": True, "digest": "d", "elapsed_s": 0.1,
                "gc": {"collections": collections, "collected": collected,
                       "pause_ms": pause_ms, "frozen": frozen},
            }

        merged = _merge_blocks(
            "P4", SoakConfig(), EngineConfig(workers=2),
            [shard(0, [3, 1, 0], [0, 5, 0], 1.25, 100),
             shard(1, [4, 0, 1], [2, 0, 7], 0.5, 200)],
            wall_s=0.1,
        )
        assert merged["gc"] == {"collections": [7, 1, 1],
                                "collected": [2, 5, 7],
                                "pause_ms": 1.75, "frozen": 300}
        assert [s["gc"]["frozen"] for s in merged["shards"]] == [100, 200]


class TestFreezeDiscipline:
    """Only pool workers freeze; the calling process never does."""

    def test_runs_leave_the_callers_freeze_count_alone(self):
        before = gc.get_freeze_count()
        config = hostile_config(packets=500)
        assert run_soak(config)["ok"]
        assert gc.get_freeze_count() == before
        assert run_soak(config, EngineConfig(workers=2))["ok"]
        assert gc.get_freeze_count() == before

    def test_codegen_hostile_shards_collect_no_old_generation(self):
        summary = run_soak(hostile_config(packets=5000),
                           EngineConfig(workers=2))
        assert summary["ok"]
        for shard in summary["programs"]["P4"]["shards"]:
            assert shard["gc"]["frozen"] > 0
            assert shard["gc"]["collected"][1:] == [0, 0], shard["gc"]

    def test_repeated_submits_freeze_the_same_heap(self):
        """Each submit's workers freeze the heap they fork with plus their
        own replica: after P1-P7 in turn, a second P1 freezes what the
        first did, not seven composed programs more.  Every fork also
        inherits the parent's front-end cache (``repro.core.driver``),
        which holds each program's modules for the life of the process:
        it is filled for all seven before the first submit."""
        programs = ("P1", "P2", "P3", "P4", "P5", "P6", "P7")
        for program in programs:
            link_composition(program)
        frozen = []
        with WorkerPool(EngineConfig(workers=2)) as pool:
            for program in programs + ("P1",):
                config = hostile_config(programs=[program], packets=200)
                block = pool.submit(config, program)
                frozen.append([s["gc"]["frozen"] for s in block["shards"]])
        for first, again in zip(frozen[0], frozen[-1]):
            assert 0 < again <= 1.1 * first, frozen

    def test_back_to_back_sharded_soaks_do_not_grow_the_heap(self):
        config = hostile_config(packets=2000)
        engine = EngineConfig(workers=2)
        sizes = []
        for _ in range(20):
            assert run_soak(config, engine)["ok"]
            sizes.append(len(gc.get_objects()))
        assert max(sizes) < 2 * sizes[0], sizes
