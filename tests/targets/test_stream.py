"""The seeded streams are the contract (DESIGN.md §8, "Seeded stream").

Packet bytes: the table-driven generator in ``repro.targets.soak`` must
produce, per seed, exactly the stream the per-packet ``PacketBuilder``
generator it replaced produced — that generator lives on here, verbatim,
as the reference.  Fault draws: remembering a resolved fault site must
not change which site a name resolves to, nor a single per-site draw.
"""

import ast
import hashlib
import inspect
import random
from collections import Counter

import pytest

from repro.net.build import PacketBuilder, dissect, layer_fields
from repro.net.checksum import ipv4_header_checksum
from repro.net.ipv4 import ip4
from repro.net.ipv6 import ip6
from repro.net.packet import Packet
from repro.targets import soak
from repro.targets.faults import FaultPlan
from repro.targets.soak import (
    NUM_PORTS,
    TRAFFIC_MIXES,
    SoakConfig,
    iter_stream,
    iter_stream_bytes,
)

# ----------------------------------------------------------------------
# Reference: the generator as it stood in soak.py before the tables
# ----------------------------------------------------------------------
_V4_DSTS = ["10.0.0.5", "10.1.2.3", "172.16.0.1", "192.1.2.3", "10.255.0.1"]
_V6_DSTS = ["2001:db8::5", "fe80::1", "2001:db8::1", "fd00::9"]


def _gen_packet(rng: random.Random) -> Packet:
    """One randomized packet: valid, short, garbage, or odd-typed."""
    roll = rng.random()
    if roll < 0.40:  # plausible IPv4
        return (
            PacketBuilder()
            .ethernet("02:00:00:00:00:01", "02:00:00:00:00:02", 0x0800)
            .ipv4(
                "192.168.0.1",
                rng.choice(_V4_DSTS),
                rng.choice((6, 17, 1)),
                ttl=rng.choice((0, 1, 64, 255)),
            )
            .payload(bytes(rng.randrange(256) for _ in range(rng.randrange(32))))
            .build()
        )
    if roll < 0.65:  # plausible IPv6
        return (
            PacketBuilder()
            .ethernet("02:00:00:00:00:01", "02:00:00:00:00:02", 0x86DD)
            .ipv6(
                "fd00::1",
                rng.choice(_V6_DSTS),
                rng.choice((6, 17, 59)),
                payload_len=8,
                hop_limit=rng.choice((0, 1, 64)),
            )
            .payload(b"soakfuzz")
            .build()
        )
    if roll < 0.80:  # valid packet truncated at a random byte
        base = (
            PacketBuilder()
            .ethernet("02:00:00:00:00:01", "02:00:00:00:00:02", 0x0800)
            .ipv4("192.168.0.1", rng.choice(_V4_DSTS), 6)
            .payload(b"cutme")
            .build()
        )
        data = base.tobytes()
        return Packet(data[: rng.randrange(len(data))])
    if roll < 0.90:  # unknown etherType
        return (
            PacketBuilder()
            .ethernet(
                "02:00:00:00:00:01", "02:00:00:00:00:02", rng.randrange(0x10000)
            )
            .payload(b"mystery")
            .build()
        )
    # pure garbage bytes, possibly shorter than any header
    return Packet(bytes(rng.randrange(256) for _ in range(rng.randrange(64))))


def _reference_routable_templates():
    templates = []
    for dst in _V4_DSTS:
        templates.append(
            PacketBuilder()
            .ethernet("02:00:00:00:00:01", "02:00:00:00:00:02", 0x0800)
            .ipv4("192.168.0.1", dst, 6, ttl=64)
            .payload(b"engine!!")
            .build()
            .tobytes()
        )
    for dst in _V6_DSTS:
        templates.append(
            PacketBuilder()
            .ethernet("02:00:00:00:00:01", "02:00:00:00:00:02", 0x86DD)
            .ipv6("fd00::1", dst, 6, payload_len=8, hop_limit=64)
            .payload(b"engine!!")
            .build()
            .tobytes()
        )
    return templates


def reference_stream_bytes(config, program, num_ports):
    rng = random.Random(f"{config.seed}:{program}:packets")
    if config.traffic == "routable":
        templates = _reference_routable_templates()
        for index in range(config.packets):
            data = rng.choice(templates)
            yield index, data, rng.randrange(num_ports)
    else:
        for index in range(config.packets):
            data = _gen_packet(rng).tobytes()
            yield index, data, rng.randrange(num_ports)


# ----------------------------------------------------------------------
# Packet stream
# ----------------------------------------------------------------------
#: sha256 over the first 5 000 records of seed 1234 / P4 / mixed, each
#: folded as ``b"index|in_port|len|" + bytes``.  Taken from the
#: ``PacketBuilder`` generator; a change of draw order moves it.
PINNED_MIXED_SHA256 = (
    "ca20df4bf9cd11b136edf5a92c59407624bb8552085202a41dbe33c8998ccb30"
)


class TestStreamEqualsReference:
    @pytest.mark.parametrize("seed", [1234, 987, 7, 42])
    @pytest.mark.parametrize("program", ["P4", "P7"])
    @pytest.mark.parametrize("traffic", TRAFFIC_MIXES)
    def test_byte_identical(self, traffic, program, seed):
        config = SoakConfig(packets=10_000, seed=seed, traffic=traffic)
        assert list(iter_stream_bytes(config, program, NUM_PORTS)) == list(
            reference_stream_bytes(config, program, NUM_PORTS)
        )

    def test_other_port_counts_draw_the_same(self):
        config = SoakConfig(packets=2000, seed=5)
        assert list(iter_stream_bytes(config, "P4", 3)) == list(
            reference_stream_bytes(config, "P4", 3)
        )

    def test_pinned_digest(self):
        digest = hashlib.sha256()
        config = SoakConfig(packets=5000, seed=1234, traffic="mixed")
        for index, data, in_port in iter_stream_bytes(config, "P4", NUM_PORTS):
            digest.update(b"%d|%d|%d|" % (index, in_port, len(data)) + data)
        assert digest.hexdigest() == PINNED_MIXED_SHA256

    def test_packet_view_wraps_the_same_bytes(self):
        config = SoakConfig(packets=500, seed=3)
        assert [
            (index, packet.tobytes(), in_port)
            for index, packet, in_port in iter_stream(config, "P4", NUM_PORTS)
        ] == list(iter_stream_bytes(config, "P4", NUM_PORTS))

    def test_registry_is_the_validated_set(self):
        assert set(TRAFFIC_MIXES) == set(soak._STREAMS) == {"mixed", "routable"}
        for traffic in TRAFFIC_MIXES:
            SoakConfig(traffic=traffic).validate()


class TestTables:
    def test_table_sizes(self):
        tables = soak._mixed_tables()
        assert (len(tables.v4), len(tables.v6), len(tables.cut)) == (60, 36, 5)
        assert len(tables.macs) == 12
        assert tables is soak._mixed_tables()  # built once

    def test_ipv4_entries_checksum_and_dissect_to_their_key(self):
        for (dst, protocol, ttl), header in soak._mixed_tables().v4.items():
            assert len(header) == 34
            ip = header[14:]
            stored = int.from_bytes(ip[10:12], "big")
            assert stored == ipv4_header_checksum(ip)
            layers = dissect(Packet(header))
            eth = layer_fields(layers, "ethernet")
            assert eth["etherType"] == 0x0800
            fields = layer_fields(layers, "ipv4")
            assert fields["dstAddr"] == ip4(dst)
            assert fields["srcAddr"] == ip4("192.168.0.1")
            assert (fields["protocol"], fields["ttl"]) == (protocol, ttl)
            assert fields["totalLen"] == 20

    def test_ipv6_entries_dissect_to_their_key(self):
        for (dst, next_hdr, hop_limit), data in soak._mixed_tables().v6.items():
            assert len(data) == 62 and data.endswith(b"soakfuzz")
            fields = layer_fields(dissect(Packet(data)), "ipv6")
            assert fields["dstAddr"] == ip6(dst)
            assert (fields["nextHdr"], fields["hopLimit"]) == (next_hdr, hop_limit)
            assert fields["payloadLen"] == 8

    def test_truncation_bases(self):
        tables = soak._mixed_tables()
        for dst, base in tables.cut.items():
            assert base == tables.v4[dst, 6, 64] + b"cutme"
            assert base[:12] == tables.macs

    def test_routable_templates(self):
        assert list(soak._routable_templates()) == _reference_routable_templates()

    def test_packet_builder_only_builds_tables(self):
        """A ``PacketBuilder`` in a stream function is the per-packet
        cost coming back (CI greps for the same thing)."""
        tree = ast.parse(inspect.getsource(soak))
        users = {
            func.name
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
            if isinstance(node, ast.Name) and node.id == "PacketBuilder"
        }
        assert users == {"_build_v4", "_build_v6"}
        assert not hasattr(soak, "_gen_packet")


class _RecordingRng:
    """The three methods the generator draws with, ``random()`` — the
    class roll of a packet — remembered.  A wrapper, not a subclass:
    overriding ``random`` in a ``random.Random`` subclass makes CPython
    derive ``randrange`` from it and changes every draw."""

    def __init__(self, seed):
        inner = random.Random(seed)
        self.choice, self.randrange = inner.choice, inner.randrange
        self._random = inner.random
        self.rolls = []

    def random(self):
        roll = self._random()
        self.rolls.append(roll)
        return roll


class TestClassShares:
    def test_shares_and_shapes_match_the_mix(self):
        packets = 20_000
        config = SoakConfig(packets=packets, seed=2024)
        rng = _RecordingRng("2024:P4:packets")
        stream = list(soak._mixed_stream(rng, packets, NUM_PORTS))
        assert stream == list(iter_stream_bytes(config, "P4", NUM_PORTS))
        assert len(rng.rolls) == packets  # one class roll per packet
        tables = soak._mixed_tables()
        counts = Counter()
        for roll, (_, data, in_port) in zip(rng.rolls, stream):
            assert 0 <= in_port < NUM_PORTS
            if roll < 0.40:
                counts["ipv4"] += 1
                assert data[:34] in tables.v4.values() and len(data) < 34 + 32
            elif roll < 0.65:
                counts["ipv6"] += 1
                assert data in tables.v6.values()
            elif roll < 0.80:
                counts["truncated"] += 1
                assert len(data) < 39
                assert any(base.startswith(data) for base in tables.cut.values())
            elif roll < 0.90:
                counts["ethertype"] += 1
                assert len(data) == 21 and data.startswith(tables.macs)
                assert data.endswith(b"mystery")
            else:
                counts["garbage"] += 1
                assert len(data) < 64
        expected = {
            "ipv4": 0.40, "ipv6": 0.25, "truncated": 0.15,
            "ethertype": 0.10, "garbage": 0.10,
        }
        for name, share in expected.items():
            assert abs(counts[name] / packets - share) < 0.01, (name, counts)


# ----------------------------------------------------------------------
# Fault-site resolution
# ----------------------------------------------------------------------
class TestFaultSiteMemo:
    SITES = {"table": 0.3, "table:ipv4_lpm_tbl": 0.9, "extern": 0.5, "buffer": 0.0}
    CALLS = [
        ("table", "main_l3_i_ipv4_i_ipv4_lpm_tbl"),
        ("table", "ipv4_lpm_tbl"),
        ("table", "main_forward_tbl"),
        ("table", None),
        ("extern", "main_counter"),
        ("buffer", None),
        ("corrupt", None),
    ]

    def test_named_site_beats_category(self):
        plan = FaultPlan(seed=1, sites=self.SITES)
        for _ in range(2):  # unresolved, then remembered
            assert plan._site_for("table", "ipv4_lpm_tbl") == "table:ipv4_lpm_tbl"
            plan.trip("table", "ipv4_lpm_tbl")
            assert plan._resolved["table", "ipv4_lpm_tbl"] == "table:ipv4_lpm_tbl"

    def test_suffix_match_unchanged(self):
        plan = FaultPlan(seed=1, sites=self.SITES)
        name = "main_l3_i_ipv4_i_ipv4_lpm_tbl"
        assert plan._site_for("table", name) == "table:ipv4_lpm_tbl"
        plan.trip("table", name)
        assert plan._resolved["table", name] == "table:ipv4_lpm_tbl"
        # A name that merely ends in the same letters is not a match.
        plan.trip("table", "main_notipv4_lpm_tbl")
        assert plan._resolved["table", "main_notipv4_lpm_tbl"] == "table"
        plan.trip("corrupt")
        assert plan._resolved["corrupt", None] is None

    def test_trips_identical_to_resolving_every_call(self):
        """One long-lived plan against one whose memo is dropped before
        every call: same answers, same per-site draws, same ``trips``."""
        rng = random.Random(11)
        calls = [rng.choice(self.CALLS) for _ in range(4000)]
        remembered = FaultPlan(seed="s", sites=self.SITES)
        unremembered = FaultPlan(seed="s", sites=self.SITES)
        for category, name in calls:
            unremembered._resolved.clear()
            assert remembered.trip(category, name) == unremembered.trip(
                category, name
            )
        assert remembered.trips == unremembered.trips
        assert remembered.trips.keys() == {
            "table", "table:ipv4_lpm_tbl", "extern"
        }
        for site, stream in remembered._rngs.items():
            assert stream.getstate() == unremembered._rngs[site].getstate()

    def test_reset_drops_the_memo_and_rewinds(self):
        plan = FaultPlan(seed=4, sites=self.SITES)
        first = [plan.trip(*call) for call in self.CALLS * 50]
        assert plan._resolved
        plan.reset()
        assert plan._resolved == {} and plan.trips == {}
        assert [plan.trip(*call) for call in self.CALLS * 50] == first
        assert plan.trips

    def test_mutate_unchanged(self):
        a = FaultPlan.uniform(0.5, seed="m")
        b = FaultPlan.uniform(0.5, seed="m")
        data = bytes(range(64))
        for _ in range(300):
            b._resolved.clear()
            assert a.mutate(data) == b.mutate(data)
        assert a.trips == b.trips
