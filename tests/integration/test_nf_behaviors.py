"""Deep behavioral tests of the NF modules (P1, P2, P3, P5, P6).

These go beyond the differential suite: they assert the *semantic*
effect of each network function on packet fields.
"""

import pytest

from repro.net.build import dissect, layer_fields
from repro.net.ipv4 import ip4
from repro.net.ipv6 import ip6

from tests.integration.helpers import (
    eth_ipv4,
    eth_ipv4_in_ipv4,
    eth_ipv4_tcp,
    eth_ipv6,
    eth_mpls_ipv4,
    make_instance,
)


class TestAclP1:
    @pytest.fixture(scope="class")
    def fw(self):
        return make_instance("P1", "micro")

    def test_deny_rule_drops(self, fw):
        assert fw.process(eth_ipv4_tcp(dport=22), 1) == []

    def test_permit_forwards_unmodified_l4(self, fw):
        outs = fw.process(eth_ipv4_tcp(dport=80, sport=5555), 1)
        tcp = layer_fields(dissect(outs[0].packet), "tcp")
        assert tcp["srcPort"] == 5555 and tcp["dstPort"] == 80

    def test_non_tcp_not_matched_by_port_rule(self, fw):
        # UDP packet to port 22 has protocol 17; the deny rule requires 6.
        outs = fw.process(eth_ipv4(proto=17), 1)
        assert outs  # forwarded

    def test_acl_does_not_alter_packet(self, fw):
        pkt = eth_ipv4_tcp(dport=80)
        original_v4 = layer_fields(dissect(pkt), "ipv4")
        outs = fw.process(pkt.copy(), 1)
        v4 = layer_fields(dissect(outs[0].packet), "ipv4")
        assert v4["srcAddr"] == original_v4["srcAddr"]
        assert v4["dstAddr"] == original_v4["dstAddr"]
        assert v4["ttl"] == original_v4["ttl"] - 1  # only routing touched it


class TestMplsP2:
    @pytest.fixture(scope="class")
    def lsr(self):
        return make_instance("P2", "micro")

    def test_pop_forwards_the_inner_ipv4(self, lsr):
        outs = lsr.process(eth_mpls_ipv4(label=100), 1)
        layers = dissect(outs[0].packet)
        assert [n for n, _ in layers][:3] == ["ethernet", "ipv4", "payload"]
        assert layer_fields(layers, "ethernet")["etherType"] == 0x0800

    def test_unknown_label_drops(self, lsr):
        assert lsr.process(eth_mpls_ipv4(label=999), 1) == []


class TestNatP3:
    @pytest.fixture(scope="class")
    def nat(self):
        return make_instance("P3", "micro")

    def test_snat_rewrites_source(self, nat):
        outs = nat.process(eth_ipv4_tcp(src="192.168.0.5", sport=1234), 1)
        layers = dissect(outs[0].packet)
        assert layer_fields(layers, "ipv4")["srcAddr"] == ip4("8.8.8.8")
        assert layer_fields(layers, "tcp")["srcPort"] == 40000

    def test_snat_preserves_destination(self, nat):
        outs = nat.process(
            eth_ipv4_tcp(src="192.168.0.5", sport=1234, dst="10.0.0.9"), 1
        )
        layers = dissect(outs[0].packet)
        assert layer_fields(layers, "ipv4")["dstAddr"] == ip4("10.0.0.9")
        assert layer_fields(layers, "tcp")["dstPort"] == 80

    def test_miss_passes_untranslated(self, nat):
        outs = nat.process(eth_ipv4_tcp(src="192.168.0.6", sport=999), 1)
        assert layer_fields(dissect(outs[0].packet), "ipv4")["srcAddr"] == ip4(
            "192.168.0.6"
        )

    def test_routing_uses_pre_nat_destination(self, nat):
        """NAT rewrites the source; routing still keys on dst."""
        outs = nat.process(eth_ipv4_tcp(src="192.168.0.5", sport=1234), 1)
        assert outs[0].port == 2  # 10/8 route


class TestNptv6P5:
    @pytest.fixture(scope="class")
    def npt(self):
        return make_instance("P5", "micro")

    def test_prefix_translated(self, npt):
        outs = npt.process(eth_ipv6(src="fd00::42", dst="2001:db8::5"), 1)
        v6 = layer_fields(dissect(outs[0].packet), "ipv6")
        # Upper 64 bits replaced by 2001:db8:1::/64; interface id kept.
        assert v6["srcAddr"] >> 64 == 0x20010DB8_00010000
        assert v6["srcAddr"] & ((1 << 64) - 1) == 0x42

    def test_non_matching_prefix_untouched(self, npt):
        outs = npt.process(eth_ipv6(src="2001:db8::9", dst="2001:db8::5"), 1)
        v6 = layer_fields(dissect(outs[0].packet), "ipv6")
        assert v6["srcAddr"] == ip6("2001:db8::9")


class TestSrv4P6:
    @pytest.fixture(scope="class")
    def sr(self):
        return make_instance("P6", "micro")

    def test_encap_builds_outer_header(self, sr):
        outs = sr.process(eth_ipv4(dst="10.1.2.3", ttl=50), 1)
        layers = dissect(outs[0].packet)
        names = [n for n, _ in layers]
        assert names[:3] == ["ethernet", "ipv4", "ipv4"]
        outer = layer_fields(layers, "ipv4", 0)
        inner = layer_fields(layers, "ipv4", 1)
        assert outer["dstAddr"] == ip4("10.0.0.77")  # segment endpoint
        assert outer["protocol"] == 4  # IP-in-IP
        assert outer["totalLen"] == inner["totalLen"] + 20
        assert inner["dstAddr"] == ip4("10.1.2.3")

    def test_encap_routes_on_outer(self, sr):
        outs = sr.process(eth_ipv4(dst="10.1.2.3"), 1)
        # Outer dst 10.0.0.77 matches the 10/8 route -> port 2; the
        # outer TTL (64) is decremented by routing.
        assert outs[0].port == 2
        outer = layer_fields(dissect(outs[0].packet), "ipv4", 0)
        assert outer["ttl"] == 63

    def test_decap_restores_inner(self, sr):
        outs = sr.process(eth_ipv4_in_ipv4(), 1)
        layers = dissect(outs[0].packet)
        names = [n for n, _ in layers]
        assert names.count("ipv4") == 1
        v4 = layer_fields(layers, "ipv4")
        assert v4["dstAddr"] == ip4("10.0.0.5")

    def test_decap_packet_shrinks_by_20(self, sr):
        pkt = eth_ipv4_in_ipv4()
        outs = sr.process(pkt.copy(), 1)
        assert len(outs[0].packet) == len(pkt) - 20
