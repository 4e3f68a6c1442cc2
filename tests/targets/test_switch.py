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
        where per-packet processing ends, faults, drops and multicast
        included."""
        from repro.core.api import build_dataplane, compile_module
        from repro.lib.catalog import build_pipeline
        from repro.targets.backends import make_pipeline
        from repro.targets.faults import FaultPlan, ResourceGuards
        from tests.targets.test_faults import FLOOD_SRC

        p4 = build_pipeline("P4")
        flood = build_dataplane(compile_module(FLOOD_SRC, "flood.up4")).composed

        def p4_switch(faults=None):
            pipe = make_pipeline(p4, "codegen")
            api = RuntimeAPI(pipe)
            for table, matches, action, _mono, args in ENTRY_SETS["P4"]:
                api.add_entry(table, matches, action, args)
            return Switch(pipe, SwitchConfig(num_ports=8), faults=faults)

        def flood_switch(groups, **kwargs):
            return Switch(
                make_pipeline(flood, "codegen"),
                SwitchConfig(num_ports=8, multicast_groups=groups),
                **kwargs,
            )

        cases = [
            lambda: p4_switch(),
            lambda: p4_switch(FaultPlan.uniform(0.2, seed=9)),
            lambda: flood_switch({}),
            lambda: flood_switch({1: [2, 40, 3]}),
            lambda: flood_switch(
                {1: [2, 40, 3]}, guards=ResourceGuards(max_mcast_fanout=2)
            ),
            lambda: flood_switch(
                {1: [2, 40, 3]}, faults=FaultPlan(seed=5, sites={"buffer": 0.3})
            ),
        ]
        items = [(eth_ipv4(), 1), (eth_ipv4(dst="172.16.0.1"), 2),
                 (eth_ipv4(ttl=0), 3), (eth_ipv4(), 4)] * 16
        ledgers = []
        for make in cases:
            seen = []
            for soa in (False, True):
                switch = make()
                assert switch.pipeline.batch_supported
                verdicts = switch.process_batch(
                    [(p.copy(), port) for p, port in items], soa=soa
                )
                seen.append((
                    dict(switch.stats), dict(switch.drops_by_reason),
                    [(v.kind, v.units, v.reasons, [o.port for o in v.outputs])
                     for v in verdicts],
                ))
            per_packet, batched = seen
            assert per_packet == batched
            stats, drops, _ = per_packet
            assert stats["units"] == stats["out"] + stats["dropped"]
            ledgers.append((stats, drops))
        assert ledgers[0][0]["out"] and ledgers[1][0]["killed"]
        # Each multicast case reached the settle arm it was built for.
        assert list(ledgers[2][1]) == ["mcast-no-group"]
        assert ledgers[3][0]["replicated"] == 2 * len(items)
        assert ledgers[3][1] == {"mcast-misconfig": len(items)}
        assert ledgers[4][1] == {
            "mcast-misconfig": len(items), "mcast-fanout": len(items),
        }
        assert ledgers[5][1]["buffer-exhausted"] > 0


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
