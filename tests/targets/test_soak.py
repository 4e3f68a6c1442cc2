"""Soak harness: containment invariants hold under hostile traffic."""

import gc
import io
import json
import os

import pytest

from repro.errors import TargetError
from repro.lib.catalog import COMPOSITIONS, EXTRA_COMPOSITIONS
from repro.obs.telemetry import FlightRecorder, TraceWriter
from repro.targets.backends import EXEC_BACKENDS
from repro.targets.pipeline import PipelineInstance
from repro.targets.runtime_api import RuntimeAPI
from repro.targets.soak import (
    _BASE_ENTRIES,
    NUM_PORTS,
    SoakConfig,
    build_switch,
    compose_program,
    consume,
    iter_stream,
    render_summary,
    run_soak,
    soak_program,
    update_digest,
)
from repro.targets.vector import NUMPY_AVAILABLE

#: ``P4,P7 / 5000 / fault 0.1 / seed 1234``, no workers.
INLINE_GOLDEN = "3441bd1cc811823e291e596dcaa90192a57c4da04fc2f5ae168c3a054bca2123"


def needs_backend(backend):
    if backend == "vector" and not NUMPY_AVAILABLE:
        pytest.skip("vector backend needs numpy")


def quick_config(**kw):
    kw.setdefault("programs", ["P4"])
    kw.setdefault("packets", 1500)
    kw.setdefault("seed", 99)
    kw.setdefault("fault_rate", 0.2)
    return SoakConfig(**kw)


class TestInvariants:
    def test_no_uncaught_and_exact_ledger(self):
        summary = run_soak(quick_config())
        assert summary["ok"]
        block = summary["programs"]["P4"]
        assert block["uncaught"] == []
        assert block["unbalanced_verdicts"] == 0
        assert block["ledger_ok"]
        assert block["units"] == block["emits"] + block["drops"]
        assert block["packets"] == 1500

    def test_fault_free_run_is_clean_too(self):
        block = soak_program(quick_config(fault_rate=0.0), "P4")
        assert block["uncaught"] == []
        assert block["ledger_ok"]
        assert block["fault_trips"] == {}

    def test_mono_mode_surfaces_truncated_extract(self):
        block = soak_program(quick_config(mode="mono"), "P4")
        assert block["ledger_ok"]
        # The corpus truncates valid packets; the native parser must
        # contain those as truncated-extract drops, not exceptions.
        assert block["drops_by_reason"].get("truncated-extract", 0) > 0

    def test_faults_actually_fire(self):
        block = soak_program(quick_config(), "P4")
        assert sum(block["fault_trips"].values()) > 0
        assert block["drops"] > 0

    def test_summary_is_json_able(self):
        summary = run_soak(quick_config(packets=200))
        text = json.dumps(summary)
        assert json.loads(text)["ok"] is True

    def test_render_summary_mentions_result(self):
        summary = run_soak(quick_config(packets=200))
        text = render_summary(summary)
        assert "result: OK" in text
        assert "accounting:" in text


class TestDeterminism:
    def test_same_seed_same_digest(self):
        a = run_soak(quick_config())
        b = run_soak(quick_config())
        assert a["digest"] == b["digest"]
        assert (
            a["programs"]["P4"]["drops_by_reason"]
            == b["programs"]["P4"]["drops_by_reason"]
        )
        assert a["programs"]["P4"]["fault_trips"] == b["programs"]["P4"]["fault_trips"]

    def test_different_seed_different_digest(self):
        a = run_soak(quick_config(seed=99))
        b = run_soak(quick_config(seed=100))
        assert a["digest"] != b["digest"]

    def test_fault_spec_overrides_rate(self):
        config = quick_config(
            fault_spec={"sites": {"table:ipv4_lpm_tbl": 1.0}}, packets=300
        )
        block = soak_program(config, "P4")
        assert block["ledger_ok"]
        trips = block["fault_trips"]
        assert set(trips) == {"table:ipv4_lpm_tbl"}
        assert block["drops_by_reason"].get("extern-fault", 0) == trips[
            "table:ipv4_lpm_tbl"
        ]

    def test_digest_ignores_wall_clock(self, monkeypatch):
        """The digest covers only the verdict stream: two same-seed runs
        with wildly different timings must agree bit-for-bit."""
        import repro.targets.soak as soak_mod

        baseline = soak_program(quick_config(packets=300), "P4")

        ticks = iter(range(0, 10_000_000, 37))

        def jittery_clock():
            # Strictly increasing but absurd: every call jumps 37s.
            return float(next(ticks))

        monkeypatch.setattr(soak_mod.time, "perf_counter", jittery_clock)
        jittered = soak_program(quick_config(packets=300), "P4")
        assert jittered["elapsed_s"] != baseline["elapsed_s"]
        assert jittered["digest"] == baseline["digest"]

    def test_routable_traffic_is_deterministic_and_forwards(self):
        config = quick_config(packets=300, fault_rate=0.0, traffic="routable")
        a = soak_program(config, "P4")
        b = soak_program(config, "P4")
        assert a["digest"] == b["digest"]
        assert a["ledger_ok"]
        # Routable traffic keeps packets on the table fast path: most
        # should actually forward rather than drop.
        assert a["emits"] > a["packets"] // 2

    def test_unknown_traffic_mix_rejected(self):
        with pytest.raises(TargetError, match="unknown traffic mix"):
            soak_program(quick_config(traffic="jumbo"), "P4")

    @pytest.mark.parametrize(
        "field, value, code",
        [
            ("packets", -5, "bad-packet-count"),
            # -1 was silently "no faults"; 2 failed deep in FaultPlan.
            ("fault_rate", -1.0, "bad-fault-rate"),
            ("fault_rate", 2.0, "bad-fault-rate"),
            # An empty list digested nothing and reported success.
            ("programs", [], "no-programs"),
            ("programs", ["P4", "P4"], "duplicate-program"),
            ("mode", "x", "bad-mode"),
        ],
    )
    def test_out_of_range_counts_rejected_up_front(self, field, value, code):
        with pytest.raises(TargetError) as exc:
            run_soak(quick_config(**{field: value}))
        assert exc.value.code == code


class TestBaseEntries:
    """``switch_around`` installs a base row where its table is declared;
    every catalog program must declare them all, or that rule would
    silently un-route its soak."""

    @pytest.mark.parametrize("mode", ("micro", "mono"))
    @pytest.mark.parametrize(
        "program", sorted({*COMPOSITIONS, *EXTRA_COMPOSITIONS})
    )
    def test_every_base_table_resolves(self, program, mode):
        composed = compose_program(SoakConfig(mode=mode), program)
        api = RuntimeAPI(PipelineInstance(composed))
        for table in sorted({row[0] for row in _BASE_ENTRIES}):
            assert api.find_table(table) is not None, table


class TestInlineGolden:
    @pytest.mark.parametrize("backend", EXEC_BACKENDS)
    def test_inline_golden_digest(self, backend):
        needs_backend(backend)
        summary = run_soak(
            SoakConfig(
                programs=["P4", "P7"], packets=5000, seed=1234,
                fault_rate=0.1, exec_backend=backend,
            )
        )
        assert summary["ok"]
        assert summary["digest"] == INLINE_GOLDEN


class TestOneLoop:
    """The inline run is ``consume`` on the whole stream."""

    def test_inline_block_is_the_loops_block(self):
        config = quick_config(packets=300)
        inline = soak_program(config, "P4")
        switch = build_switch(config, "P4", compose_program(config, "P4"))
        direct = consume(switch, iter_stream(config, "P4", NUM_PORTS))
        # Timings and what the collector did differ from call to call.
        timing = ("elapsed_s", "pkts_per_sec", "gc")
        assert {k: v for k, v in inline.items() if k not in timing} == {
            "program": "P4",
            "mode": "micro",
            # What the run executed: P4's action statements as composed
            # and after make_pipeline's shrink_copies.
            "statements_before": 185,
            "statements_after": 109,
            **{k: v for k, v in direct.items() if k not in timing},
            # ... and the replica's tables as the run left them.
            "tables": switch.api.lookup_info(),
        }
        assert inline["watermark"] == 299

    @pytest.mark.parametrize("lanes", (1, 16, 256))
    def test_one_digest_update_per_batch_is_update_digest(self, lanes):
        """The loop folds a batch with one ``update``; it must be the
        digest of ``update_digest`` per verdict, which ``bench/`` uses."""
        import hashlib

        config = quick_config(packets=300, batch_lanes=lanes)
        switch = build_switch(config, "P4", compose_program(config, "P4"))
        verdicts = []
        real = switch.process_batch

        def spy(items, soa=False):
            got = real(items, soa)
            verdicts.extend(got)
            return got

        switch.process_batch = spy
        block = consume(
            switch, iter_stream(config, "P4", NUM_PORTS), batch_lanes=lanes
        )
        digest = hashlib.sha256()
        for index, verdict in enumerate(verdicts):
            update_digest(digest, index, verdict)
        assert block["digest"] == digest.hexdigest()
        assert {"emit", "drop", "killed"} <= {v.kind for v in verdicts}

    def test_uncaught_batch_is_skipped_and_the_run_goes_on(self):
        """The one uncaught policy: the raising batch is recorded (ten
        at most), never re-run, never digested, and later batches still
        run; the ledger keeps what the switch processed before raising."""
        config = quick_config(
            packets=640, strict=True, fault_rate=0.05, batch_lanes=16
        )
        block = soak_program(config, "P4")
        assert 0 < len(block["uncaught"]) <= 10
        assert all(entry.startswith("batch [") for entry in block["uncaught"])
        digested = sum(block["verdicts"].values())
        assert 0 < digested < 640 and digested % 16 == 0
        assert block["watermark"] > 16  # batches after the first escape ran
        assert block["packets"] > digested  # the ledger saw the raising ones
        assert not run_soak(config)["ok"]


class TestTraceOut:
    def test_traced_run_keeps_the_digest_and_writes_every_packet(self):
        config = quick_config(packets=300, batch_lanes=64)
        plain = soak_program(config, "P4")
        sink = io.StringIO()
        traced = soak_program(config, "P4", trace_writer=TraceWriter(sink))
        assert traced["digest"] == plain["digest"]
        lines = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert [line["packet"] for line in lines] == list(range(300))
        assert all(line["program"] == "P4" and line["events"] for line in lines)
        kinds = {"emit": 0, "drop": 0, "killed": 0}
        for line in lines:
            kinds[line["verdict"]] += 1
        assert kinds == traced["verdicts"]

    def test_flight_recorder_carries_traces_when_tracing(self):
        config = quick_config(packets=100)
        recorder = FlightRecorder(8)
        seen = []
        switch = build_switch(config, "P4", compose_program(config, "P4"))
        consume(
            switch,
            iter_stream(config, "P4", NUM_PORTS),
            recorder=recorder,
            on_trace=lambda index, trace, verdict: seen.append(index),
        )
        assert seen == list(range(100))
        entries = recorder.dump()
        assert [entry["packet"] for entry in entries] == list(range(92, 100))
        assert all(entry["trace"]["events"] for entry in entries)


def resident_bytes():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(
    not os.path.exists("/proc/self/statm"), reason="needs Linux /proc"
)
class TestMemoryFlat:
    @pytest.mark.parametrize("backend", ["codegen", "vector"])
    def test_long_inline_run_does_not_grow(self, backend):
        """Nothing the packet path touches may keep a per-packet record
        for the life of the pipeline.  It used to: one string per table
        apply, 16.6 MiB (codegen) / 1.4 MiB (vector) over these 20 000
        packets; now ~0.01 MiB.  Resident set, not ``tracemalloc``:
        tracing resolves a line number per allocation, which is linear
        in the size of codegen's one generated function (50x slower)."""
        needs_backend(backend)
        config = quick_config(
            traffic="routable", fault_rate=0.0, exec_backend=backend
        )
        switch = build_switch(config, "P4", compose_program(config, "P4"))

        def run(packets):
            config.packets = packets
            block = consume(
                switch,
                iter_stream(config, "P4", NUM_PORTS),
                recorder=FlightRecorder(config.flight_recorder),
            )
            assert block["ledger_ok"] and not block["uncaught"]
            gc.collect()
            return resident_bytes()

        warm = run(2_000)
        grown = run(20_000)
        assert grown - warm < 1024 * 1024, (warm, grown)
