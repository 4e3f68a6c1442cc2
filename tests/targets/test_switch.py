"""Unit tests for the V1Model-style switch wrapper."""

import pytest

from repro.errors import TargetError
from repro.net.build import PacketBuilder
from repro.targets.pipeline import PipelineInstance
from repro.targets.runtime_api import RuntimeAPI
from repro.targets.switch import Switch, SwitchConfig

from tests.integration.helpers import ENTRY_SETS, eth_ipv4, make_instance


@pytest.fixture()
def switch():
    instance = make_instance("P4", "micro")
    return Switch(instance, SwitchConfig(num_ports=8))


class TestPorts:
    def test_valid_port_forwarding(self, switch):
        outs = switch.inject(eth_ipv4(), in_port=1)
        assert [o.port for o in outs] == [2]

    def test_invalid_in_port_rejected(self, switch):
        with pytest.raises(TargetError):
            switch.inject(eth_ipv4(), in_port=99)

    def test_invalid_group_port_rejected(self, switch):
        with pytest.raises(TargetError):
            switch.set_multicast_group(1, [99])

    def test_non_positive_group_rejected(self, switch):
        with pytest.raises(TargetError):
            switch.set_multicast_group(0, [1])


class TestStats:
    def test_counts_in_out_dropped(self, switch):
        switch.inject(eth_ipv4(), in_port=1)  # forwarded
        switch.inject(eth_ipv4(dst="172.16.0.1"), in_port=1)  # dropped
        assert switch.stats["in"] == 2
        assert switch.stats["out"] == 1
        assert switch.stats["dropped"] == 1

    def test_inject_many(self, switch):
        results = switch.inject_many([eth_ipv4(), eth_ipv4()], in_port=1)
        assert len(results) == 2
        assert all(len(r) == 1 for r in results)


class TestProcessBatch:
    def test_batch_equals_sequential_process(self):
        """process_batch must be observationally identical to calling
        process per packet: same verdicts, same stats, same ledger."""
        items = [
            (eth_ipv4(), 1),
            (eth_ipv4(dst="172.16.0.1"), 1),  # lpm miss -> drop
            (eth_ipv4(), 3),
        ]
        batched = Switch(make_instance("P4", "micro"), SwitchConfig(num_ports=8))
        sequential = Switch(
            make_instance("P4", "micro"), SwitchConfig(num_ports=8)
        )
        batch_verdicts = batched.process_batch(
            (p.copy(), port) for p, port in items
        )
        seq_verdicts = [sequential.process(p, port) for p, port in items]
        assert batched.stats == sequential.stats
        assert batched.drops_by_reason == sequential.drops_by_reason
        for a, b in zip(batch_verdicts, seq_verdicts):
            assert a.kind == b.kind
            assert a.units == b.units
            assert a.reasons == b.reasons
            assert [o.port for o in a.outputs] == [o.port for o in b.outputs]

    def test_empty_batch(self, switch):
        assert switch.process_batch([]) == []
        assert switch.stats["in"] == 0

    def test_batch_accepts_any_iterable(self, switch):
        verdicts = switch.process_batch(
            (eth_ipv4(), port) for port in (1, 2)
        )
        assert len(verdicts) == 2
        assert switch.stats["in"] == 2

    @pytest.mark.parametrize("soa", (False, True))
    @pytest.mark.parametrize("bad_lane", (0, 3))
    def test_a_bad_port_anywhere_leaves_the_switch_untouched(self, bad_lane, soa):
        """Regression: the SoA path counted every lane ahead of a bad
        port into ``in`` and then raised, and the per-packet path ran
        them.  Ports are checked before any lane counts or runs."""
        from repro.lib.catalog import build_pipeline
        from repro.targets.backends import make_pipeline
        from repro.targets.faults import FaultPlan

        faults = FaultPlan.uniform(0.5, seed=3)
        switch = Switch(
            make_pipeline(build_pipeline("P4"), "codegen"),
            SwitchConfig(num_ports=8), faults=faults,
        )
        assert switch.pipeline.batch_supported
        items = [(eth_ipv4(), 1), (eth_ipv4(dst="172.16.0.1"), 1),
                 (eth_ipv4(), 3), (eth_ipv4(), 3)]
        items[bad_lane] = (eth_ipv4(), 99)
        before = dict(switch.stats)
        with pytest.raises(TargetError, match="port 99"):
            switch.process_batch(items, soa=soa)
        assert switch.stats == before
        assert switch.drops_by_reason == {}
        assert faults.trips == {}

    def test_soa_ledger_matches_per_packet(self):
        """The SoA path moves the ledger once per batch; it must end
        where per-packet processing ends, faults and drops included."""
        from repro.lib.catalog import build_pipeline
        from repro.targets.backends import make_pipeline
        from repro.targets.faults import FaultPlan

        items = [(eth_ipv4(), 1), (eth_ipv4(dst="172.16.0.1"), 2),
                 (eth_ipv4(ttl=0), 3), (eth_ipv4(), 4)] * 16
        seen = []
        for soa in (False, True):
            for faults in (None, FaultPlan.uniform(0.2, seed=9)):
                pipe = make_pipeline(build_pipeline("P4"), "codegen")
                api = RuntimeAPI(pipe)
                for table, matches, action, _mono, args in ENTRY_SETS["P4"]:
                    api.add_entry(table, matches, action, args)
                switch = Switch(pipe, SwitchConfig(num_ports=8), faults=faults)
                verdicts = switch.process_batch(
                    [(p.copy(), port) for p, port in items], soa=soa
                )
                seen.append((
                    soa, faults is None, dict(switch.stats),
                    dict(switch.drops_by_reason),
                    [(v.kind, v.units, v.reasons, [o.port for o in v.outputs])
                     for v in verdicts],
                ))
        for per_packet, batched in zip(seen[:2], seen[2:]):
            assert per_packet[1:] == batched[1:]
        assert seen[0][2]["out"] and seen[1][2]["killed"]


class TestRuntimeApiExtras:
    def test_entry_counts(self):
        instance = make_instance("P4", "micro")
        api = RuntimeAPI(instance)
        counts = api.entry_counts()
        fwd = next(k for k in counts if k.endswith("forward_tbl"))
        assert counts[fwd] == 3  # three forward entries installed
        parser = next(k for k in counts if k == "main_parser_tbl")
        assert counts[parser] >= 1  # const entries

    def test_set_default_changes_miss_behavior(self):
        instance = make_instance("P4", "micro")
        api = RuntimeAPI(instance)
        # Route unknown destinations out port 7 instead of dropping.
        from repro.net.ethernet import mac

        api.set_default(
            "forward_tbl", "forward",
            [mac("02:00:00:00:00:aa"), mac("02:00:00:00:00:bb"), 7],
        )
        outs = instance.process(eth_ipv4(dst="10.0.0.5"), 1)
        assert outs[0].port == 2  # hit unchanged
        # A miss on forward_tbl needs a routed nh without a forward
        # entry; install a route to an unknown nh.
        api.add_entry("ipv4_lpm_tbl", [(0xC0000000, 8)], "process", [42])
        outs = instance.process(eth_ipv4(dst="192.1.2.3"), 1)
        assert outs[0].port == 7

    def test_clear_entries(self):
        instance = make_instance("P4", "micro")
        api = RuntimeAPI(instance)
        api.clear("forward_tbl")
        assert instance.process(eth_ipv4(), 1) == []
