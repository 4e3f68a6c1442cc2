"""Tests of packet-level interpreter traces."""

from tests.integration.helpers import (
    ENTRY_SETS,
    eth_ipv4,
    eth_ipv6,
    make_instance,
)

from repro.obs.pkttrace import PacketTrace
from repro.targets.backends import make_pipeline
from repro.targets.runtime_api import RuntimeAPI
from repro.targets.vector import NUMPY_AVAILABLE

#: Backends whose per-packet hit sequence must equal the interpreter's.
OTHER_BACKENDS = ("compiled", "codegen") + (("vector",) if NUMPY_AVAILABLE else ())


def backend_hit_sequence(inst, mode, backend, packet):
    """The MAT hit sequence ``backend`` records for ``packet`` on the
    same composed program with the same entries as ``inst``."""
    other = make_pipeline(inst.composed, backend)
    api = RuntimeAPI(other)
    for table, matches, act_micro, act_mono, args in ENTRY_SETS["P4"]:
        api.add_entry(
            table, matches, act_micro if mode == "micro" else act_mono, args
        )
    return other.process_traced(packet, 1)[1].hit_sequence()


class TestMicroMode:
    def test_trace_matches_table_trace(self):
        inst = make_instance("P4", "micro")
        outputs, trace = inst.process_traced(eth_ipv4(), 1)
        assert outputs, "expected the packet to be forwarded"
        # The trace is the only record of which MATs a packet applied;
        # every backend must record the interpreter's sequence.
        sequence = trace.hit_sequence()
        assert any("ipv4_lpm_tbl:" in s for s in sequence)
        for backend in OTHER_BACKENDS:
            assert sequence == backend_hit_sequence(
                inst, "micro", backend, eth_ipv4()
            ), backend

    def test_trace_records_extract_and_output(self):
        inst = make_instance("P4", "micro")
        trace = PacketTrace()
        (out,) = inst.process(eth_ipv4(), 1, trace)
        extracts = trace.of_kind("extract")
        assert extracts and extracts[0]["source"] == "byte_stack"
        (out_ev,) = trace.of_kind("output")
        assert out_ev["port"] == out.port
        assert out_ev["bytes"] == len(out.packet)

    def test_table_events_carry_match_details(self):
        inst = make_instance("P4", "micro")
        trace = PacketTrace()
        inst.process(eth_ipv4(), 1, trace)
        lpm = [e for e in trace.tables()
               if e["table"].endswith("ipv4_lpm_tbl")]
        assert len(lpm) == 1
        event = lpm[0]
        assert event["hit"] is True
        assert event["action"].endswith("process")
        assert event["entry"] == 0  # first installed entry matched
        assert trace.hits(), "expected at least one hit"

    def test_miss_recorded(self):
        inst = make_instance("P4", "micro")
        trace = PacketTrace()
        inst.process(eth_ipv4(dst="172.16.0.1"), 1, trace)  # no route
        misses = trace.misses()
        assert any(e["table"].endswith("ipv4_lpm_tbl") for e in misses)
        for event in misses:
            assert event["entry"] is None

    def test_render_is_readable(self):
        inst = make_instance("P4", "micro")
        trace = PacketTrace()
        inst.process(eth_ipv4(), 1, trace)
        text = trace.render()
        assert "table" in text and "-> hit" in text and "output" in text


class TestMonolithicMode:
    def test_native_parser_trace(self):
        inst = make_instance("P4", "monolithic")
        trace = PacketTrace()
        outputs = inst.process(eth_ipv4(), 1, trace)
        assert outputs
        states = [e["state"] for e in trace.of_kind("parser_state")]
        assert states[0] == "start"
        extracted = [e["source"] for e in trace.of_kind("extract")]
        assert any(s.endswith(".eth") for s in extracted)
        assert any(s.endswith(".ipv4") for s in extracted)
        emits = [e["header"] for e in trace.of_kind("emit")]
        assert emits, "expected deparser emit events"

    def test_trace_matches_table_trace(self):
        inst = make_instance("P4", "monolithic")
        _, trace = inst.process_traced(eth_ipv6(), 1)
        assert trace.hit_sequence()
        for backend in OTHER_BACKENDS:
            assert trace.hit_sequence() == backend_hit_sequence(
                inst, "mono", backend, eth_ipv6()
            ), backend


class TestDisabledByDefault:
    def test_process_without_trace_records_nothing(self):
        inst = make_instance("P4", "micro")
        inst.process(eth_ipv4(), 1)
        assert inst.interp.ptrace is None

    def test_trace_not_leaked_between_packets(self):
        inst = make_instance("P4", "micro")
        trace = PacketTrace()
        inst.process(eth_ipv4(), 1, trace)
        n = len(trace.events)
        assert inst.interp.ptrace is None  # reset after the traced packet
        inst.process(eth_ipv4(), 1)  # untraced
        assert len(trace.events) == n


class TestProcessTraced:
    def test_process_traced_returns_pair(self):
        inst = make_instance("P4", "micro")
        outputs, trace = inst.process_traced(eth_ipv4(), 1)
        assert outputs
        assert isinstance(trace, PacketTrace)
        assert trace.hit_sequence()


class TestDataplaneTrace:
    def test_inject_traced(self):
        from repro.core.api import build_dataplane, compile_module
        from repro.lib.loader import load_module_source

        mods = {
            name: compile_module(load_module_source(name), f"{name}.up4")
            for name in ("eth", "l3_v4v6", "ipv4", "ipv6")
        }
        dp = build_dataplane(mods["eth"], [mods["l3_v4v6"], mods["ipv4"],
                                           mods["ipv6"]])
        from tests.integration.helpers import ENTRY_SETS

        for table, matches, act_micro, _act_mono, args in ENTRY_SETS["P4"]:
            dp.api.add_entry(table, matches, act_micro, args)
        outputs, trace = dp.inject_traced(eth_ipv4(), 1)
        assert outputs
        assert trace.hit_sequence()
        assert trace.of_kind("output")
