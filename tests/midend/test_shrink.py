"""Unit tests for ``shrink_copies`` (§8.1 byte-stack liveness).

One adversarial module per may-write rule: in each the copy-back (or
the extraction) a naive pass would drop has to *stay*, and the shrunk
program must forward the same bytes as the program as composed.
"""

import copy

import pytest

from repro.frontend import astnodes as ast
from repro.lib.catalog import build_monolithic, build_pipeline
from repro.midend.inline import compose
from repro.midend.linker import link_modules
from repro.midend.optimize import (
    action_statements,
    elide_trivial_mats,
    shrink_copies,
)
from repro.net.build import PacketBuilder
from repro.obs.metrics import METRICS, collecting
from repro.targets.pipeline import PipelineInstance

from tests.midend.conftest import check

# Ethernet main module; the leaf under test parses from byte 14.
TOP = """
struct top_t { eth_h eth; }
Leaf(pkt p, im_t im, inout bit<16> etype);

program Top : implements Unicast<> {
  parser P(extractor ex, pkt p, out top_t h) {
    state start { ex.extract(p, h.eth); transition accept; }
  }
  control C(pkt p, inout top_t h, im_t im) {
    Leaf() leaf_i;
    apply {
      leaf_i.apply(p, im, h.eth.etherType);
      im.set_out_port(8w3);
    }
  }
  control D(emitter em, pkt p, in top_t h) { apply { em.emit(p, h.eth); } }
}
Top(P, C, D) main;
"""

LEAF = """
struct leaf_t {{ mpls_h mpls; ipv4_h ipv4; }}
program Leaf : implements Unicast<> {{
  parser P(extractor ex, pkt p, out leaf_t h) {{
    state start {{ {extracts} transition accept; }}
  }}
  control C(pkt p, inout leaf_t h, im_t im, inout bit<16> etype) {{
    {locals}
    apply {{ {body} }}
  }}
  control D(emitter em, pkt p, in leaf_t h) {{
    apply {{ em.emit(p, h.mpls); em.emit(p, h.ipv4); }}
  }}
}}
"""


def leaf_program(body, locals_="", extracts="ex.extract(p, h.ipv4);", top=TOP):
    leaf = LEAF.format(extracts=extracts, locals=locals_, body=body)
    return compose(link_modules(check(top, "top"), [check(leaf, "leaf")]))


def stores(action):
    """Byte-stack slots an action body stores to, e.g. ``{'b22'}``."""
    return {
        s.lhs.member
        for s in action.body.stmts
        if isinstance(s, ast.AssignStmt)
        and isinstance(s.lhs, ast.MemberExpr)
        and isinstance(s.lhs.base, ast.PathExpr)
        and s.lhs.base.name == "upa_bs"
    }


def deparser_action(composed, prefix, *valid):
    """The copy-back action of ``prefix`` for the entry whose emitted
    headers have validity ``valid`` (parser path 1)."""
    mat = composed.deparser_mats[f"{prefix}_deparser_tbl"]
    for entry in mat.table.const_entries:
        if tuple(k.value for k in entry.keysets) == (1, *valid):
            return composed.actions[entry.action_name]
    raise AssertionError(f"no entry for validity {valid}")


def leaf_copy_action(composed):
    """The leaf's (single-path) parser copy action."""
    return next(
        a for n, a in composed.actions.items() if n.startswith("cp_main_leaf_i")
    )


def ipv4_packet(ttl=64, mpls=False):
    b = PacketBuilder().ethernet(
        "02:00:00:00:00:01", "02:00:00:00:00:02", 0x8847 if mpls else 0x0800
    )
    if mpls:
        b = b.mpls(100, ttl=9)
    return b.ipv4("192.168.0.1", "10.0.0.5", 6, ttl=ttl).payload(b"data").build()


def assert_same_behavior(composed, shrunk, *packets):
    ref, got = PipelineInstance(composed), PipelineInstance(shrunk)
    for pkt in packets:
        a = [(o.port, o.packet.tobytes()) for o in ref.process(pkt.copy(), 1)]
        b = [(o.port, o.packet.tobytes()) for o in got.process(pkt.copy(), 1)]
        assert a == b and a, pkt


IPV4_BYTES = {f"b{i}" for i in range(14, 34)}
TTL = {"b22"}


class TestIdentityCopyBacks:
    def test_untouched_header_is_not_copied_back(self):
        composed = leaf_program("etype = 16w0x0800;")
        shrunk = shrink_copies(composed)
        action = deparser_action(shrunk, "main_leaf_i", False, True)
        assert stores(action) == set()
        # The caller's etherType went through the inout parameter: its
        # two bytes are still written, the MAC bytes are not.
        assert stores(deparser_action(shrunk, "main", True)) == {"b12", "b13"}
        assert_same_behavior(composed, shrunk, ipv4_packet())

    def test_plain_field_write_keeps_only_its_byte(self):
        composed = leaf_program("h.ipv4.ttl = h.ipv4.ttl - 1;")
        shrunk = shrink_copies(composed)
        action = deparser_action(shrunk, "main_leaf_i", False, True)
        assert stores(action) == TTL
        assert_same_behavior(composed, shrunk, ipv4_packet())

    def test_sub_byte_field_keeps_the_byte_and_its_neighbour_field(self):
        composed = leaf_program("h.ipv4.flags = 3w2;")
        shrunk = shrink_copies(composed)
        action = deparser_action(shrunk, "main_leaf_i", False, True)
        assert stores(action) == {"b20"}
        # b20 = flags ++ fragOffset[12:8]: fragOffset is still read, so
        # its extraction survives while ttl's does not.
        cp = leaf_copy_action(shrunk)
        written = {s.lhs.member for s in cp.body.stmts
                   if isinstance(s, ast.AssignStmt)
                   and isinstance(s.lhs, ast.MemberExpr)}
        assert {"flags", "fragOffset"} <= written and "ttl" not in written
        assert_same_behavior(composed, shrunk, ipv4_packet())

    def test_in_place_header_ahead_of_a_removed_one(self):
        """A shift action still stores its shifted tail and the new
        length; the header that never moved is not rewritten."""
        composed = leaf_program(
            "h.ipv4.setInvalid();",
            extracts="ex.extract(p, h.mpls); ex.extract(p, h.ipv4);",
        )
        shrunk = shrink_copies(composed)
        before = deparser_action(composed, "main_leaf_i", True, False)
        after = deparser_action(shrunk, "main_leaf_i", True, False)
        assert len(before.body.stmts) - len(after.body.stmts) == 4
        assert after.body.stmts[0] is before.body.stmts[4]
        assert_same_behavior(composed, shrunk, ipv4_packet(mpls=True))


class TestMayWriteRules:
    def test_write_through_action_parameter(self):
        composed = leaf_program(
            "bump(h.ipv4.ttl);",
            locals_="action bump(inout bit<8> x) { x = x - 1; }",
        )
        shrunk = shrink_copies(composed)
        action = deparser_action(shrunk, "main_leaf_i", False, True)
        assert stores(action) == TTL
        assert_same_behavior(composed, shrunk, ipv4_packet())

    def test_field_passed_inout_to_a_callee(self):
        """The leaf writes the *caller's* etherType through its inout
        parameter; the caller's copy-back of those bytes stays."""
        composed = leaf_program("etype = 16w0x1234;")
        shrunk = shrink_copies(composed)
        assert stores(deparser_action(shrunk, "main", True)) == {"b12", "b13"}
        assert_same_behavior(composed, shrunk, ipv4_packet())

    def test_setinvalid_then_setvalid(self):
        composed = leaf_program("h.ipv4.setInvalid(); h.ipv4.setValid();")
        shrunk = shrink_copies(composed)
        action = deparser_action(shrunk, "main_leaf_i", False, True)
        assert stores(action) == IPV4_BYTES
        assert_same_behavior(composed, shrunk, ipv4_packet())

    def test_setinvalid_alone_pins_nothing(self):
        """An entry that emits a header has it valid; with no setValid
        outside extraction a header invalidated once stays invalid, so
        the emitted one was never touched."""
        composed = leaf_program(
            "if (h.ipv4.ttl == 8w0) { h.ipv4.setInvalid(); }"
        )
        shrunk = shrink_copies(composed)
        assert stores(deparser_action(shrunk, "main_leaf_i", False, True)) == set()
        assert_same_behavior(composed, shrunk, ipv4_packet(), ipv4_packet(0))

    def test_pop_emits_at_a_shifted_offset(self):
        """MPLS pop / SRv6 segment pop shape: the header behind the
        popped one lands 4 bytes earlier than it was extracted."""
        composed = leaf_program(
            "h.mpls.setInvalid(); etype = 16w0x0800;",
            extracts="ex.extract(p, h.mpls); ex.extract(p, h.ipv4);",
        )
        shrunk = shrink_copies(composed)
        popped = deparser_action(shrunk, "main_leaf_i", False, True)
        assert popped is deparser_action(composed, "main_leaf_i", False, True)
        assert stores(popped) >= IPV4_BYTES
        assert_same_behavior(composed, shrunk, ipv4_packet(mpls=True))

    def test_push_emits_at_a_shifted_offset(self):
        composed = leaf_program(
            "h.mpls.setValid(); h.mpls.label = 20w77; h.mpls.tc = 3w0;"
            " h.mpls.bos = 1w1; h.mpls.ttl = 8w64; etype = 16w0x8847;"
        )
        shrunk = shrink_copies(composed)
        pushed = deparser_action(shrunk, "main_leaf_i", True, True)
        assert pushed is deparser_action(composed, "main_leaf_i", True, True)
        assert stores(pushed) >= {f"b{i}" for i in range(14, 38)}
        assert_same_behavior(composed, shrunk, ipv4_packet())

    def test_siblings_parsing_the_same_bytes(self):
        """Two callees parse bytes 14..33 one after the other; the
        second must see what the first wrote."""
        top = TOP.replace(
            "Leaf() leaf_i;", "Leaf() leaf_i; Leaf() again_i;"
        ).replace(
            "leaf_i.apply(p, im, h.eth.etherType);",
            "leaf_i.apply(p, im, h.eth.etherType);"
            " again_i.apply(p, im, h.eth.etherType);",
        )
        composed = leaf_program(
            "if (h.ipv4.ttl == 8w64) { h.ipv4.ttl = 8w9; }"
            " else { h.ipv4.diffserv = h.ipv4.ttl; }",
            top=top,
        )
        shrunk = shrink_copies(composed)
        for prefix in ("main_leaf_i", "main_again_i"):
            action = deparser_action(shrunk, prefix, False, True)
            assert stores(action) == {"b15", "b22"}
        assert_same_behavior(composed, shrunk, ipv4_packet(), ipv4_packet(7))

    def test_header_extracted_into_by_two_parsers_counts_as_written(self):
        composed = build_pipeline("P4")
        twin = copy.deepcopy(composed)
        # Point the IPv6 module's extraction at the IPv4 module's header
        # (what extracting into an inout header parameter would do).
        v4 = twin.parser_mats["main_l3_i_ipv4_i"].paths[0].extracts[0]
        twin.parser_mats["main_l3_i_ipv6_i"].paths[0].extracts[0].lvalue = (
            v4.lvalue
        )
        shrunk = shrink_copies(twin)
        action = deparser_action(shrunk, "main_l3_i_ipv4_i", True)
        assert stores(action) == IPV4_BYTES


class TestDeadExtractions:
    def test_unread_fields_are_not_extracted(self):
        composed = leaf_program("etype = (bit<16>) h.ipv4.protocol;")
        shrunk = shrink_copies(composed)
        cp = leaf_copy_action(shrunk)
        fields = [s.lhs.member for s in cp.body.stmts
                  if isinstance(s, ast.AssignStmt)
                  and isinstance(s.lhs, ast.MemberExpr)]
        assert fields == ["protocol"]
        # setValid and the path register survive: the deparser MAT is
        # keyed on both.
        assert any(isinstance(s, ast.MethodCallStmt) for s in cp.body.stmts)
        assert_same_behavior(composed, shrunk, ipv4_packet())

    def test_whole_header_read_keeps_every_field(self):
        composed = leaf_program(
            "copy = h.ipv4; etype = (bit<16>) copy.ttl;",
            locals_="ipv4_h copy;",
        )
        shrunk = shrink_copies(composed)
        cp = leaf_copy_action(shrunk)
        assert len(cp.body.stmts) == 2 + 12
        assert_same_behavior(composed, shrunk, ipv4_packet())


class TestPassContract:
    # MPLS push/pop, the plain router, SRv4 encap/decap (two parser paths).
    @pytest.mark.parametrize("name", ["P2", "P4", "P6"])
    def test_pure_idempotent_and_table_preserving(self, name):
        composed = build_pipeline(name)
        before = copy.deepcopy(composed)
        shrunk = shrink_copies(composed)
        # ByteStack has identity equality; everything else is by value.
        assert before.byte_stack.size == composed.byte_stack.size
        before.byte_stack = composed.byte_stack
        assert composed == before
        assert shrunk is not composed
        assert list(shrunk.tables) == list(composed.tables)
        assert all(shrunk.tables[n] is t for n, t in composed.tables.items())
        assert shrunk.statements == composed.statements
        assert action_statements(shrunk) < action_statements(composed)
        assert shrink_copies(shrunk) is shrunk
        # The MAT records describe the shrunk actions, not the old ones.
        for mat in [*shrunk.parser_mats.values(), *shrunk.deparser_mats.values()]:
            for action_name, action in mat.actions.items():
                assert action is shrunk.actions[action_name]

    def test_monolithic_is_returned_as_is(self):
        composed = build_monolithic("P4")
        assert shrink_copies(composed) is composed

    def test_counters(self):
        with collecting():
            shrink_copies(build_pipeline("P4"))
            snap = METRICS.snapshot()["counters"]
        assert snap["optimize.copybacks_elided"] == 60
        assert snap["optimize.extracts_elided"] == 16

    def test_after_elision_only_surviving_records_are_used(self):
        """Gatewayed parsers lost their record; their deparsers must be
        left alone rather than compared with nothing."""
        composed = build_pipeline("P2")
        elide_trivial_mats(composed)
        shrunk = shrink_copies(composed)
        for name, mat in shrunk.deparser_mats.items():
            if mat.prefix not in shrunk.parser_mats:
                for action_name in mat.actions:
                    assert (
                        shrunk.actions[action_name]
                        is composed.actions[action_name]
                    )
