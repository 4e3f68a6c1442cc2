"""Fault containment: verdicts, resource guards, deterministic injection.

The switch is the containment boundary — every per-packet failure must
surface as a reason-coded :class:`Verdict`, counters must balance, and
an injected :class:`FaultPlan` must replay bit-for-bit from its seed.
"""

import pytest

from repro.errors import TargetError
from repro.net.packet import Packet
from repro.targets.faults import (
    REASONS,
    FaultError,
    FaultPlan,
    ResourceGuards,
    Verdict,
)
from repro.targets.switch import Switch, SwitchConfig

from tests.integration.helpers import eth_ipv4, eth_ipv6, make_instance


def make_switch(mode="micro", **kw):
    kw.setdefault("config", SwitchConfig(num_ports=16))
    return Switch(make_instance("P4", mode), **kw)


# ----------------------------------------------------------------------
# Verdict basics
# ----------------------------------------------------------------------
class TestVerdict:
    def test_emit_path_balances(self):
        sw = make_switch()
        verdict = sw.process(eth_ipv4(), in_port=1)
        assert verdict.kind == Verdict.EMIT
        assert len(verdict.outputs) == 1
        assert verdict.units == 1
        assert verdict.balanced()
        assert sw.stats["units"] == sw.stats["out"] + sw.stats["dropped"]

    def test_pipeline_drop_is_reason_coded(self):
        sw = make_switch()
        # No route for this destination -> program drops it.
        verdict = sw.process(eth_ipv4(dst="172.99.0.1"), in_port=1)
        assert verdict.kind == Verdict.DROP
        assert verdict.reasons == {"pipeline-drop": 1}
        assert verdict.balanced()

    def test_parser_drop_reason(self):
        sw = make_switch()
        # Unknown etherType: the homogenized parser flags an error.
        from repro.net.build import PacketBuilder

        pkt = (
            PacketBuilder()
            .ethernet("02:00:00:00:00:01", "02:00:00:00:00:02", 0xBEEF)
            .payload(b"odd")
            .build()
        )
        verdict = sw.process(pkt, in_port=1)
        assert verdict.outputs == []
        assert set(verdict.reasons) <= {"parser-error", "pipeline-drop"}
        assert verdict.balanced()

    def test_truncated_extract_contained_mono(self):
        # The mono pipeline uses the native parser, so a packet shorter
        # than its extracts surfaces the truncated-extract reason.
        sw = make_switch(mode="mono")
        data = eth_ipv4().tobytes()
        verdict = sw.process(Packet(data[:20]), in_port=1)
        assert verdict.outputs == []
        assert verdict.reasons == {"truncated-extract": 1}
        assert verdict.balanced()
        assert sw.drops_by_reason["truncated-extract"] == 1

    def test_invalid_in_port_still_raises(self):
        sw = make_switch()
        with pytest.raises(TargetError):
            sw.process(eth_ipv4(), in_port=99)

    def test_reasons_are_stable_slugs(self):
        assert len(REASONS) == len(set(REASONS))
        for reason in REASONS:
            assert reason == reason.lower()
            assert " " not in reason


# ----------------------------------------------------------------------
# Resource guards
# ----------------------------------------------------------------------
class TestResourceGuards:
    def test_step_budget_contained(self):
        guards = ResourceGuards(interp_step_budget=3)
        sw = make_switch(guards=guards)
        verdict = sw.process(eth_ipv4(), in_port=1)
        assert verdict.kind == Verdict.KILLED
        assert verdict.reasons == {"step-budget": 1}
        assert verdict.balanced()
        assert sw.stats["killed"] == 1

    def test_step_budget_strict_raises(self):
        guards = ResourceGuards(interp_step_budget=3)
        sw = make_switch(guards=guards, strict=True)
        with pytest.raises(FaultError) as info:
            sw.process(eth_ipv4(), in_port=1)
        assert info.value.reason == "step-budget"

    def test_step_budget_resets_between_packets(self):
        # A budget generous enough for one packet must stay generous for
        # the thousandth — the counter is per-packet, not cumulative.
        sw = make_switch(guards=ResourceGuards(interp_step_budget=5000))
        for _ in range(10):
            verdict = sw.process(eth_ipv4(), in_port=1)
            assert verdict.kind == Verdict.EMIT

    def test_guards_to_dict_round_trip(self):
        guards = ResourceGuards(max_recirculations=2, interp_step_budget=7)
        d = guards.to_dict()
        assert d["max_recirculations"] == 2
        assert d["interp_step_budget"] == 7
        assert ResourceGuards(**d) == guards


# ----------------------------------------------------------------------
# Multicast misconfiguration
# ----------------------------------------------------------------------
#: A module that multicasts every packet to group 1.
FLOOD_SRC = """
header eth_h { bit<48> dstMac; bit<48> srcMac; bit<16> etherType; }
struct hdr_t { eth_h eth; }

program Flood : implements Multicast<> {
  parser P(extractor ex, pkt p, out hdr_t h) {
    state start { ex.extract(p, h.eth); transition accept; }
  }
  control C(pkt p, inout hdr_t h, im_t im) {
    mc_engine() mce;
    apply { mce.set_mc_group(1); }
  }
  control D(emitter em, pkt p, in hdr_t h) {
    apply { em.emit(p, h.eth); }
  }
}
Flood(P, C, D) main;
"""


class TestMulticastContainment:
    SRC = FLOOD_SRC

    def build(self, groups, guards=None, strict=False):
        from repro.core.api import build_dataplane, compile_module

        dp = build_dataplane(
            compile_module(self.SRC, "flood.up4"),
            switch_config=SwitchConfig(num_ports=8, multicast_groups=groups),
        )
        sw = dp.switch
        if guards is not None:
            sw.guards = guards
        sw.strict = strict
        return sw

    def pkt(self):
        return eth_ipv4()

    def test_missing_group_counted(self):
        sw = self.build(groups={})
        verdict = sw.process(self.pkt(), in_port=1)
        assert verdict.outputs == []
        assert verdict.reasons == {"mcast-no-group": 1}
        assert verdict.balanced()

    def test_missing_group_strict_raises(self):
        sw = self.build(groups={}, strict=True)
        with pytest.raises(FaultError) as info:
            sw.process(self.pkt(), in_port=1)
        assert info.value.reason == "mcast-no-group"

    def test_out_of_range_port_counted(self):
        # Port 40 is out of range for an 8-port switch; the valid copies
        # still go out and every unit is accounted for.
        sw = self.build(groups={1: [2, 40, 3]})
        verdict = sw.process(self.pkt(), in_port=1)
        assert sorted(o.port for o in verdict.outputs) == [2, 3]
        assert verdict.reasons == {"mcast-misconfig": 1}
        assert verdict.units == 3
        assert verdict.balanced()

    def test_fanout_cap_counted(self):
        sw = self.build(
            groups={1: [2, 3, 4, 5, 6]},
            guards=ResourceGuards(max_mcast_fanout=2),
        )
        verdict = sw.process(self.pkt(), in_port=1)
        assert len(verdict.outputs) == 2
        assert verdict.reasons == {"mcast-fanout": 3}
        assert verdict.units == 5
        assert verdict.balanced()


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_named_table_site_kills_every_lookup(self):
        plan = FaultPlan(seed=7, sites={"table:ipv4_lpm_tbl": 1.0})
        sw = make_switch(faults=plan)
        verdict = sw.process(eth_ipv4(), in_port=1)
        assert verdict.kind == Verdict.KILLED
        assert verdict.reasons == {"extern-fault": 1}
        assert plan.trips == {"table:ipv4_lpm_tbl": 1}
        # IPv6 traffic never touches that table -> unaffected.
        verdict = sw.process(eth_ipv6(), in_port=1)
        assert verdict.kind == Verdict.EMIT

    def test_buffer_site_drops_emits(self):
        plan = FaultPlan(seed=7, sites={"buffer": 1.0})
        sw = make_switch(faults=plan)
        verdict = sw.process(eth_ipv4(), in_port=1)
        assert verdict.outputs == []
        assert verdict.reasons == {"buffer-exhausted": 1}
        assert verdict.balanced()

    def test_corrupt_and_truncate_mutate_bytes(self):
        plan = FaultPlan(seed=1, sites={"corrupt": 1.0, "truncate": 1.0})
        data = bytes(range(64))
        mutated, applied = plan.mutate(data)
        assert applied == ["corrupt", "truncate"]
        assert mutated != data
        assert len(mutated) <= len(data)

    def test_rate_zero_never_trips(self):
        plan = FaultPlan(seed=1, sites={"table": 0.0})
        assert not any(plan.trip("table", "ipv4_lpm_tbl") for _ in range(200))
        assert plan.trips == {}

    def test_from_spec_validates(self):
        with pytest.raises(TargetError):
            FaultPlan.from_spec({"sites": {"warp-core": 0.5}})
        with pytest.raises(TargetError):
            FaultPlan.from_spec({"sites": {"table": 1.5}})
        with pytest.raises(TargetError):
            FaultPlan.from_spec({"seed": 1.5, "sites": {}})
        plan = FaultPlan.from_spec(
            {"seed": 3, "sites": {"table:ipv4_lpm_tbl": 0.25, "corrupt": 0.1}}
        )
        assert plan.sites["table:ipv4_lpm_tbl"] == 0.25

    def test_uniform_covers_all_categories(self):
        plan = FaultPlan.uniform(0.4, seed=9)
        assert set(plan.sites) == {"corrupt", "truncate", "table", "extern", "buffer"}
        assert plan.sites["corrupt"] == 0.4


class TestDeterminism:
    """Acceptance criterion: same seed + same plan => identical
    verdict/counter stream."""

    def run_stream(self, seed):
        plan = FaultPlan.uniform(0.3, seed=seed)
        sw = make_switch(faults=plan)
        stream = []
        for i in range(120):
            pkt = eth_ipv4(ttl=(i % 4) * 60) if i % 3 else eth_ipv6()
            verdict = sw.process(pkt, in_port=i % 8)
            stream.append(
                (verdict.kind, len(verdict.outputs), sorted(verdict.reasons.items()))
            )
        return stream, dict(sw.drops_by_reason), dict(plan.trips)

    def test_same_seed_same_stream(self):
        assert self.run_stream(42) == self.run_stream(42)

    def test_different_seed_differs(self):
        assert self.run_stream(42)[0] != self.run_stream(43)[0]

    def test_reset_rewinds_the_plan(self):
        plan = FaultPlan.uniform(0.5, seed=5)
        first = [plan.trip("table", "t") for _ in range(50)]
        plan.reset()
        assert [plan.trip("table", "t") for _ in range(50)] == first


# ----------------------------------------------------------------------
# Error plumbing
# ----------------------------------------------------------------------
class TestFaultError:
    def test_reason_becomes_code(self):
        exc = FaultError("step-budget", site="interp")
        assert exc.code == "step-budget"
        assert "interp" in str(exc)

    def test_to_dict_carries_reason_and_site(self):
        exc = FaultError("extern-fault", site="table:ipv4_lpm_tbl")
        d = exc.to_dict()
        assert d["reason"] == "extern-fault"
        assert d["site"] == "table:ipv4_lpm_tbl"
        assert d["code"] == "extern-fault"
        assert isinstance(d["exit_code"], int)
