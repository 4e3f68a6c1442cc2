"""Unit tests for composition by inlining (§5.3)."""

import pytest

from repro.errors import AnalysisError
from repro.frontend import astnodes as ast
from repro.ir.printer import expr_text
from repro.ir.visitor import walk
from repro.midend.inline import compose, compose_monolithic
from repro.midend.linker import link_modules

from tests.midend.conftest import check

LEAF = """
struct leaf_t { ipv4_h ipv4; }
program Leaf : implements Unicast<> {
  parser P(extractor ex, pkt p, out leaf_t h) {
    state start { ex.extract(p, h.ipv4); transition accept; }
  }
  control C(pkt p, inout leaf_t h, im_t im, out bit<16> nh, in bit<8> seed) {
    bit<16> scratch;
    apply {
      scratch = (bit<16>) seed;
      nh = scratch + (bit<16>) h.ipv4.ttl;
    }
  }
  control D(emitter em, pkt p, in leaf_t h) { apply { em.emit(p, h.ipv4); } }
}
"""

TOP = """
struct top_t { eth_h eth; }
Leaf(pkt p, im_t im, out bit<16> nh, in bit<8> seed);

program Top : implements Unicast<> {
  parser P(extractor ex, pkt p, out top_t h) {
    state start { ex.extract(p, h.eth); transition accept; }
  }
  control C(pkt p, inout top_t h, im_t im) {
    bit<16> nh;
    Leaf() leaf_i;
    apply {
      nh = 0;
      leaf_i.apply(p, im, nh, 8w7);
      h.eth.etherType = nh;
    }
  }
  control D(emitter em, pkt p, in top_t h) { apply { em.emit(p, h.eth); } }
}
Top(P, C, D) main;
"""


@pytest.fixture(scope="module")
def composed():
    return compose(link_modules(check(TOP, "top"), [check(LEAF, "leaf")]))


class TestNamespacing:
    def test_instance_prefixed_names(self, composed):
        assert "main_hdr" in composed.variables
        assert "main_leaf_i_hdr" in composed.variables
        assert "main_leaf_i_scratch" in composed.variables
        assert "main_nh" in composed.variables

    def test_tables_per_module(self, composed):
        assert "main_parser_tbl" in composed.tables
        assert "main_leaf_i_parser_tbl" in composed.tables
        assert "main_leaf_i_deparser_tbl" in composed.tables

    def test_path_registers(self, composed):
        assert "main_path" in composed.variables
        assert "main_leaf_i_path" in composed.variables

    def test_no_module_calls_remain(self, composed):
        for stmt in composed.statements:
            for node in walk(stmt):
                if isinstance(node, ast.MethodCallExpr):
                    resolved = getattr(node, "resolved", None)
                    assert resolved is None or resolved[0] != "module"


class TestParameterBinding:
    def test_out_param_bound_to_caller_var(self, composed):
        """The leaf writes `nh`; after inlining, the write targets the
        caller's variable."""
        writes = []
        for stmt in composed.statements:
            for node in walk(stmt):
                if isinstance(node, ast.AssignStmt):
                    writes.append(expr_text(node.lhs))
        assert "main_nh" in writes

    def test_in_param_literal_substituted(self, composed):
        texts = []
        for stmt in composed.statements:
            for node in walk(stmt):
                if isinstance(node, ast.AssignStmt):
                    texts.append(expr_text(node.rhs))
        assert any("0x7" in t for t in texts)

    def test_callee_offset_after_caller_parser(self, composed):
        """Leaf parses at byte-stack offset 14 (after Ethernet)."""
        leaf_mat = composed.parser_mats["main_leaf_i"]
        assert leaf_mat.base_offset == 14
        extract_action = next(
            a for name, a in leaf_mat.actions.items() if name.startswith("cp_")
        )
        text = " ".join(
            expr_text(s.rhs)
            for s in extract_action.body.stmts
            if isinstance(s, ast.AssignStmt) and "ipv4" in expr_text(s.lhs)
        )
        assert "upa_bs.b14" in text


class TestConstraints:
    def test_variable_offset_callee_rejected(self):
        top = """
        struct vt_t { eth_h eth; mpls_h mpls; }
        Leaf(pkt p, im_t im, out bit<16> nh, in bit<8> seed);
        program VarTop : implements Unicast<> {
          parser P(extractor ex, pkt p, out vt_t h) {
            state start {
              ex.extract(p, h.eth);
              transition select(h.eth.etherType) {
                0x8847 : with_mpls;
                default : accept;
              }
            }
            state with_mpls { ex.extract(p, h.mpls); transition accept; }
          }
          control C(pkt p, inout vt_t h, im_t im) {
            bit<16> nh;
            Leaf() leaf_i;
            apply { nh = 0; leaf_i.apply(p, im, nh, 8w1); }
          }
          control D(emitter em, pkt p, in vt_t h) { apply { em.emit(p, h.eth); } }
        }
        VarTop(P, C, D) main;
        """
        linked = link_modules(check(top, "vt"), [check(LEAF, "leaf")])
        with pytest.raises(AnalysisError) as exc:
            compose(linked)
        assert "static" in str(exc.value)

    def test_monolithic_rejects_instances(self):
        linked = link_modules(check(TOP, "top"), [check(LEAF, "leaf")])
        from repro.errors import LinkError

        with pytest.raises(LinkError):
            compose_monolithic(linked)


class TestRegions:
    def test_composed_region(self, composed):
        assert composed.region.extract_length == 34  # eth + ipv4
        assert composed.byte_stack_size == 34

    def test_mode(self, composed):
        assert composed.mode == "micro"


class TestInlineSpans:
    """``compose.inline.<prefix>`` and its four step spans
    (``repro profile`` shows where a callee's inlining goes)."""

    STEPS = ("clone", "rename", "parser_to_mat", "deparser_to_mat")

    @staticmethod
    def unit_spans(program):
        """name -> span, for each inlined instance of ``program``."""
        from repro.lib.catalog import build_pipeline
        from repro.obs.trace import Tracer

        tracer = Tracer()
        build_pipeline(program, tracer=tracer)
        spans = {s.name: s for s in tracer.spans()}
        assert len(spans) == len(tracer.spans())  # names are unique
        steps = tuple(f".{step}" for step in TestInlineSpans.STEPS)
        return {n: s for n, s in spans.items() if not n.endswith(steps)}

    @pytest.mark.parametrize("program", [f"P{i}" for i in range(1, 8)])
    def test_step_names_are_stable(self, program):
        units = self.unit_spans(program)
        assert "compose.inline.main" in units and len(units) >= 4
        for name, span in units.items():
            steps = [
                c.name[len(name) + 1:] for c in span.children
                if c.name not in units
            ]
            # Every instance is cloned and renamed; the MAT steps exist
            # exactly when the module has a parser / deparser.
            assert steps[:2] == ["clone", "rename"], (name, steps)
            assert set(steps) <= set(self.STEPS), (name, steps)
            assert len(steps) == len(set(steps))
            assert all(c.name.startswith(name) for c in span.children)

    def test_steps_account_for_the_instances_on_p7(self):
        units = self.unit_spans("P7")
        total = units["compose.inline.main"].duration
        uncovered = sum(
            span.duration - sum(c.duration for c in span.children)
            for span in units.values()
        )
        assert 0.0 <= uncovered <= 0.10 * total, (uncovered, total)
        srv6 = units["compose.inline.main_l3_i_srv6_i"]
        mat = srv6.find("compose.inline.main_l3_i_srv6_i.deparser_to_mat")
        assert mat.attrs == {"entries": 48, "actions": 49}
