"""Scalability of the static analysis (paper §5.2).

The paper argues µP4C avoids symbolic-execution blowup: parse-graph
analysis "can be reduced to finding the longest path in a directed
acyclic graph, which can be done in linear time", and control-flow
analysis depends only on program *structure* (conditionals, actions per
MAT), not table contents.

These benches generate synthetic programs of growing size — parser
chains, table pipelines, composition depth, header-stack depth — and
measure frontend + analysis (for stacks: whole-driver) time, asserting
it stays far from exponential.
"""

import time

import pytest

from repro.core.driver import CompilerOptions, Up4Compiler
from repro.frontend.typecheck import check_program
from repro.ir.parse_graph import build_parse_graph
from repro.midend.analysis import analyze
from repro.midend.linker import link_modules


def chain_parser_program(num_states: int) -> str:
    """A linear parser chain: h0 -> h1 -> ... -> accept."""
    headers = "".join(
        f"header h{i}_t {{ bit<8> kind; bit<8> data; }}\n"
        for i in range(num_states)
    )
    fields = "".join(f"  h{i}_t h{i};\n" for i in range(num_states))
    states = []
    for i in range(num_states):
        nxt = f"s{i + 1}" if i + 1 < num_states else "accept"
        states.append(
            f"state s{i} {{ ex.extract(p, h.h{i}); "
            f"transition select(h.h{i}.kind) {{ 0x01 : {nxt}; "
            f"default : accept; }} }}"
        )
    states_text = "\n    ".join(states).replace("state s0", "state start", 1)
    return f"""
{headers}
struct chain_t {{
{fields}}}
program Chain : implements Unicast<> {{
  parser P(extractor ex, pkt p, out chain_t h) {{
    {states_text}
  }}
  control C(pkt p, inout chain_t h, im_t im) {{ apply {{ }} }}
  control D(emitter em, pkt p, in chain_t h) {{ apply {{ }} }}
}}
Chain(P, C, D) main;
"""


def table_pipeline_program(num_tables: int) -> str:
    """A control with N sequential tables over one header."""
    actions = "\n    ".join(
        f"action set{i}(bit<8> v) {{ h.h0.f{i % 4} = v; }}"
        for i in range(num_tables)
    )
    tables = "\n    ".join(
        f"table t{i} {{ key = {{ h.h0.f{(i + 1) % 4} : exact; }} "
        f"actions = {{ set{i}; }} }}"
        for i in range(num_tables)
    )
    applies = " ".join(f"t{i}.apply();" for i in range(num_tables))
    return f"""
header h0_t {{ bit<8> f0; bit<8> f1; bit<8> f2; bit<8> f3; }}
struct tp_t {{ h0_t h0; }}
program Tables : implements Unicast<> {{
  parser P(extractor ex, pkt p, out tp_t h) {{
    state start {{ ex.extract(p, h.h0); transition accept; }}
  }}
  control C(pkt p, inout tp_t h, im_t im) {{
    {actions}
    {tables}
    apply {{ {applies} }}
  }}
  control D(emitter em, pkt p, in tp_t h) {{ apply {{ em.emit(p, h.h0); }} }}
}}
Tables(P, C, D) main;
"""


def mpls_stack_program(depth: int) -> str:
    """Ethernet plus an MPLS label stack of ``depth`` (App. C): a
    ``next``/``last`` parser loop, push/pop actions, every element
    emitted — ``tests/midend/test_hdr_stack.py``'s program, sized."""
    emits = " ".join(f"em.emit(p, h.mpls[{i}]);" for i in range(depth))
    return f"""
header eth_h  {{ bit<48> dstMac; bit<48> srcMac; bit<16> etherType; }}
header mpls_h {{ bit<20> label; bit<3> tc; bit<1> bos; bit<8> ttl; }}
struct hdr_t {{ eth_h eth; mpls_h mpls[{depth}]; }}
program Stacked : implements Unicast<> {{
  parser P(extractor ex, pkt p, out hdr_t h) {{
    state start {{
      ex.extract(p, h.eth);
      transition select(h.eth.etherType) {{
        0x8847 : parse_mpls; default : accept;
      }}
    }}
    state parse_mpls {{
      ex.extract(p, h.mpls.next);
      transition select(h.mpls.last.bos) {{ 0 : parse_mpls; 1 : accept; }}
    }}
  }}
  control C(pkt p, inout hdr_t h, im_t im) {{
    action push_label(bit<20> lbl) {{
      h.mpls.push_front(1);
      h.mpls[0].setValid();
      h.mpls[0].label = lbl;
      h.mpls[0].ttl = 64;
    }}
    action pop_label() {{ h.mpls.pop_front(1); }}
    table lbl_tbl {{
      key = {{ h.mpls[0].label : exact; }}
      actions = {{ push_label; pop_label; }}
      default_action = pop_label();
    }}
    apply {{ lbl_tbl.apply(); }}
  }}
  control D(emitter em, pkt p, in hdr_t h) {{
    apply {{ em.emit(p, h.eth); {emits} }}
  }}
}}
Stacked(P, C, D) main;
"""


class TestParseGraphScaling:
    @pytest.mark.parametrize("size", [4, 16, 64])
    def test_linear_chain_analyzes(self, size):
        module = check_program(chain_parser_program(size), f"chain{size}")
        graph = build_parse_graph(module.programs["Chain"].parser)
        # Each state adds one early-accept path; the last state's two
        # cases both accept, so the chain has size+1 accept paths.
        assert len(graph.paths()) == size + 1
        assert graph.extract_length == 2 * size

    def test_growth_is_polynomial(self):
        """Doubling the chain must not square the runtime."""
        timings = {}
        for size in (16, 32, 64):
            start = time.perf_counter()
            module = check_program(chain_parser_program(size), f"c{size}")
            build_parse_graph(module.programs["Chain"].parser).paths()
            timings[size] = time.perf_counter() - start
        # Allow generous constant factors; fail only on blowup.
        assert timings[64] < 40 * max(timings[16], 1e-4)


class TestControlScaling:
    @pytest.mark.parametrize("size", [8, 32, 64])
    def test_table_pipeline_analyzes(self, size):
        module = check_program(table_pipeline_program(size), f"t{size}")
        linked = link_modules(module, [])
        region = analyze(linked)
        assert region.extract_length == 4


class TestHeaderStackDepthScaling:
    """The MPLS-stack program at depth 1, 2, 4, 8 through the driver
    (frontend with lowering → link → analyze → compose → TNA)."""

    DEPTHS = (1, 2, 4, 8)

    @pytest.fixture(scope="class")
    def sweep(self):
        rows = {}
        for depth in self.DEPTHS:
            start = time.perf_counter()
            result = Up4Compiler(CompilerOptions(target="tna")).compile_sources(
                mpls_stack_program(depth), main_name=f"stack{depth}.up4"
            )
            rows[depth] = (time.perf_counter() - start, result.composed)
        return rows

    def test_tables_and_byte_stack_grow_linearly(self, sweep):
        for depth, (_, composed) in sweep.items():
            # Parser MAT, lbl_tbl, deparser MAT — whatever the depth.
            assert len(composed.tables) == 3
            # 14 B Ethernet + 4 B per label + 4 B per label of push room.
            assert composed.byte_stack_size == 14 + 8 * depth

    def test_deparser_entries_are_the_exponential_term(self, sweep):
        """What a stack really costs: one deparser-MAT entry per parser
        path × validity combination of the emitted headers, (d+1) ·
        2^(d+1) of them — 4 608 entries and as many copy-back actions at
        depth 8.  (Not the clone cost PR 18 removed: no catalog module
        declares a stack.)"""
        for depth, (_, composed) in sweep.items():
            entries = composed.tables["main_deparser_tbl"].const_entries
            assert len(entries) == (depth + 1) * 2 ** (depth + 1)

    def test_time_is_polynomial_in_what_is_emitted(self, sweep):
        """Nothing *else* blows up: per deparser entry, depth 8 costs a
        small multiple of depth 2 (entries get longer: more headers to
        write back, a longer tail to shift)."""
        def per_entry(depth):
            seconds, composed = sweep[depth]
            entries = composed.tables["main_deparser_tbl"].const_entries
            return max(seconds, 1e-4) / len(entries)

        assert per_entry(8) < 10 * per_entry(2)

    @pytest.mark.xfail(
        strict=False,
        reason="deparser MAT enumerates 2^(d+1) validity combinations per "
        "path (ROADMAP: compile time); holds once they are pruned or "
        "matched per validity class",
    )
    def test_growth_is_polynomial_in_depth(self, sweep):
        """The gate the parser chains pass (4x the size within 40x the
        time).  Measured in PR 18: t[2] 0.02 s, t[8] 8.7 s — ~400x."""
        assert sweep[8][0] < 40 * max(sweep[2][0], 1e-4)


@pytest.mark.parametrize("size", [16, 64])
def test_bench_frontend_chain(benchmark, size):
    source = chain_parser_program(size)
    benchmark(lambda: check_program(source, f"chain{size}"))


@pytest.mark.parametrize("size", [64])
def test_bench_parse_graph(benchmark, size):
    module = check_program(chain_parser_program(size), f"chain{size}")
    parser = module.programs["Chain"].parser
    benchmark(lambda: build_parse_graph(parser).paths())


@pytest.mark.parametrize("size", [32])
def test_bench_analysis_tables(benchmark, size):
    module = check_program(table_pipeline_program(size), f"t{size}")
    linked = link_modules(module, [])
    benchmark(lambda: analyze(linked))
