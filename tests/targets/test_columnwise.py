"""What codegen's columnwise tier decides, and that it decides it like
the lane loop it stands in for (DESIGN.md §15): the tier-parity test.

* **Decisions.**  The static step bound of every catalog program, the
  reason a monolithic program declines, and one small module per
  decline family the catalog never reaches, each with its exact reason
  string.
* **Matrix.**  P1–P7 × mixed traffic × fault rate × lane count: the
  columnwise ``CodegenPipeline.process_soa`` (lane floor 1) against the
  lane loop (floor out of reach) on the per-lane triples, the
  table hit/miss and lookup counters, and the draws of every fault
  site; the same for one program with what the catalog never runs.
* **When.**  Building an executor generates nothing; the first batch
  generates the program's one ``_vec_run``, shared by every executor.
"""

import random
from collections import Counter

import pytest

from repro.core.api import compile_module, compose_modules
from repro.lib.catalog import PROGRAMS, build_monolithic, build_pipeline
from repro.net.packet import Packet
from repro.obs.metrics import METRICS
from repro.targets.backends import make_pipeline
from repro.targets.faults import FaultPlan
from repro.targets.runtime_api import RuntimeAPI
from repro.targets.soak import NUM_PORTS, SoakConfig, iter_stream_bytes
from repro.targets.vector import NUMPY_AVAILABLE, columnwise_module
from tests.integration.helpers import ENTRY_SETS
from tests.targets.helpers import LANE_LOOP, columnwise_floor

pytestmark = [
    pytest.mark.skipif(not NUMPY_AVAILABLE, reason="the columnwise tier needs numpy"),
    pytest.mark.usefixtures("columnwise_any_width"),
]


def plan_of(pipe):
    """The program's columnwise module, or the reason it has none."""
    return columnwise_module(pipe.composed, pipe.tables)

STEP_BOUNDS = {
    "P1": 138, "P2": 160, "P3": 137, "P4": 94,
    "P5": 116, "P6": 240, "P7": 251,
}

_PROGRAM = """
header eth_h { bit<48> dstMac; bit<48> srcMac; bit<16> etherType; }
header tag_h { bit<16> tag; }
struct hdr_t { eth_h eth; tag_h tag; }
%(decls)s
program Probe : implements Unicast<> {
  parser P(extractor ex, pkt p, out hdr_t h) {
    state start { ex.extract(p, h.eth); transition accept; }
  }
  control C(pkt p, inout hdr_t h, im_t im) {
    %(locals)s
    apply {
      %(body)s
    }
  }
  control D(emitter em, pkt p, in hdr_t h) {
    apply { em.emit(p, h.eth); }
  }
}
Probe(P, C, D) main;
"""

#: (declarations, control locals, apply body, reason the batch declines)
DECLINES = {
    "register-extern": (
        "", "register() seen;",
        "bit<16> c; seen.read(c, 32w1); im.set_out_port(2);",
        "root variable 'main_seen' of type ExternType",
    ),
    "enum-compare": (
        "enum c_t { RED, BLUE }", "",
        "if (c_t.RED == c_t.BLUE) { im.set_out_port(2); }",
        "enum member value",
    ),
    "object-form-header-op": (
        "", "action inv(inout eth_h e) { e.setInvalid(); }",
        "inv(h.eth); im.set_out_port(2);",
        "root variable 'main_hdr': member 'eth' used as a whole value "
        "or untyped",
    ),
    "im-method-not-fast": (
        "", "",
        "bit<32> ts = im.get_value(meta_t.IN_TIMESTAMP);"
        " h.eth.etherType = (bit<16>) ts; im.set_out_port(2);",
        "im_t method 'get_value'",
    ),
}


#: What the catalog never runs: an exit in an action and in the body,
#: division and modulo by a lane's zero, 64-bit arithmetic and a slice
#: store past bit 62, ``&&`` / ``||``, ``else if``, a switch with a
#: fallthrough arm, ``++`` and a header op under a mask.
KITCHEN_SINK = """
header eth_h { bit<48> dstMac; bit<48> srcMac; bit<16> etherType; }
header wide_h { bit<64> a; bit<64> b; }
struct hdr_t { eth_h eth; wide_h w; }
program Sink : implements Unicast<> {
  parser P(extractor ex, pkt p, out hdr_t h) {
    state start { ex.extract(p, h.eth); ex.extract(p, h.w); transition accept; }
  }
  control C(pkt p, inout hdr_t h, im_t im) {
    action fwd(bit<8> port) { im.set_out_port(port); }
    action stop() { im.set_out_port(5); exit; }
    action scale(bit<16> k) { h.eth.etherType = h.eth.etherType * k; }
    table t {
      key = { h.eth.etherType : ternary; }
      actions = { fwd; stop; scale; }
      default_action = fwd(2);
    }
    apply {
      bit<16> d = (bit<16>) h.eth.dstMac[1:0];
      bit<16> q = 16w7;
      if (h.eth.srcMac[3:3] == 1w1) {
        q = h.eth.etherType / d;
      }
      bit<16> r = h.eth.etherType % (d + 16w1);
      h.w.a = h.w.a + h.w.b;
      h.w.b[63:56] = (bit<8>) q;
      h.w.a = ~h.w.a;
      h.w.b = h.w.b << 3;
      if (q > 16w100 && h.eth.srcMac[0:0] == 1w1) {
        h.eth.etherType = r;
      } else if (d == 16w0 || h.eth.srcMac[2:2] == 1w1) {
        h.eth.srcMac[15:0] = h.eth.srcMac[7:0] ++ h.eth.dstMac[15:8];
      }
      switch (h.eth.dstMac[9:8]) {
        0 : { h.eth.dstMac[47:40] = 8w1; }
        1 :
        2 : { h.eth.dstMac[47:40] = 8w2; }
        default : { h.eth.dstMac[47:40] = 8w3; }
      }
      t.apply();
      if (h.eth.srcMac[1:1] == 1w1) {
        exit;
      }
      h.eth.srcMac = h.eth.srcMac + 48w1;
      if (!h.w.isValid()) { im.drop(); }
    }
  }
  control D(emitter em, pkt p, in hdr_t h) {
    apply { em.emit(p, h.eth); em.emit(p, h.w); }
  }
}
Sink(P, C, D) main;
"""


class TestDecisions:
    @pytest.mark.parametrize("program", PROGRAMS)
    def test_micro_step_bound(self, program):
        vec = make_pipeline(build_pipeline(program), "codegen")
        assert plan_of(vec).step_bound == STEP_BOUNDS[program]

    @pytest.mark.parametrize("program", PROGRAMS)
    def test_mono_declines(self, program):
        vec = make_pipeline(build_monolithic(program), "codegen")
        assert plan_of(vec) == "batch layout unsupported"

    @pytest.mark.parametrize("case", sorted(DECLINES))
    def test_decline_reason(self, case):
        decls, local_decls, body, reason = DECLINES[case]
        composed = compose_modules(compile_module(
            _PROGRAM % {"decls": decls, "locals": local_decls, "body": body},
            f"{case}.up4",
        ), None)
        vec = make_pipeline(composed, "codegen")
        assert plan_of(vec) == reason
        # A declined batch still runs, through the lane loop.
        data = bytes(range(40))
        (triple,) = vec.process_soa([data], [1], [Packet(data)])
        ref = make_pipeline(composed, "codegen")
        with columnwise_floor(LANE_LOOP):
            (want,) = ref.process_soa([data], [1], [Packet(data)])
        assert _outcome(triple) == _outcome(want)


# ----------------------------------------------------------------------
# Columnwise against the lane loop
# ----------------------------------------------------------------------


class _DrawCountingPlan(FaultPlan):
    """Counts the random draws each site makes: ``trip`` samples a
    site's stream only when it resolves to a site with a positive rate."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.draws = Counter()

    def trip(self, category, name=None):
        site = self._site_for(category, name)
        if site is not None and self.sites[site] > 0.0:
            self.draws[site] += 1
        return super().trip(category, name)


def _outcome(triple):
    outputs, reason, exc = triple
    if exc is not None:
        return ("exc", type(exc).__name__, str(exc),
                getattr(exc, "reason", None), getattr(exc, "site", None))
    return (
        None if outputs is None else [
            (o.packet.tobytes(), o.port, o.mcast_grp, o.recirculate)
            for o in outputs
        ],
        reason,
    )


#: Packets per lane count: several batches each, one partial.
_PACKETS = {1: 24, 7: 40, 256: 300}


def _compare(composed, entries, sites, lanes, stream):
    """Run ``stream`` in batches of ``lanes`` through the columnwise
    tier and through the lane loop, each on a fresh codegen executor
    with ``entries`` installed and faults at ``sites``; assert they
    agree and return the columnwise outcomes."""
    runs = []
    for columnwise in (True, False):
        pipe = make_pipeline(composed, "codegen")
        for table, matches, action, args in entries:
            RuntimeAPI(pipe).add_entry(table, matches, action, args)
        plan = _DrawCountingPlan(seed=11, sites=sites)
        pipe.configure_faults(faults=plan)
        METRICS.reset()
        outcomes = []
        with columnwise_floor(1 if columnwise else LANE_LOOP):
            for start in range(0, len(stream), lanes):
                batch = stream[start:start + lanes]
                datas = [data for data, _port in batch]
                outcomes.extend(_outcome(t) for t in pipe.process_soa(
                    datas, [port for _data, port in batch],
                    [Packet(data) for data in datas],
                ))
        counters = METRICS.snapshot()["counters"]
        # Every batch ran where it was sent: columnwise, none on the lane
        # loop; or all on the lane loop.
        loops = counters.get("vector.soa_fallback_batches", 0)
        assert loops == (0 if columnwise else -(-len(stream) // lanes))
        runs.append((outcomes, dict(plan.draws), {
            key: value for key, value in counters.items()
            if key.startswith(("codegen.table_", "interp.lookup."))
        }))
    assert runs[0] == runs[1]
    return runs[0][0]


@pytest.fixture(scope="module")
def collecting_metrics():
    METRICS.enable()
    yield
    METRICS.reset()
    METRICS.disable()


@pytest.mark.parametrize("lanes", sorted(_PACKETS))
@pytest.mark.parametrize("fault_rate", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("program", PROGRAMS)
def test_columnwise_equals_lane_loop(collecting_metrics, program, fault_rate,
                                     lanes):
    config = SoakConfig(programs=[program], packets=_PACKETS[lanes],
                        traffic="mixed", seed=7)
    stream = [
        (data, port)
        for _i, data, port in iter_stream_bytes(config, program, NUM_PORTS)
    ]
    entries = [(t, m, action, args)
               for t, m, action, _mono, args in ENTRY_SETS[program]]
    sites = FaultPlan.uniform(fault_rate).sites if fault_rate else {}
    got = _compare(build_pipeline(program), entries, sites, lanes, stream)
    if fault_rate == 1.0:
        assert any(o[0] == "exc" for o in got)


@pytest.mark.parametrize("lanes", [7, 64])
@pytest.mark.parametrize("fault_rate", [0.0, 0.3])
def test_kitchen_sink_equals_lane_loop(collecting_metrics, fault_rate, lanes):
    composed = compose_modules(compile_module(KITCHEN_SINK, "sink.up4"), None)
    assert plan_of(make_pipeline(composed, "codegen")).step_bound == 67
    rng = random.Random(5)
    stream = [
        (bytes(rng.randrange(256) for _ in range(rng.choice((14, 30, 40, 40)))),
         rng.randrange(NUM_PORTS))
        for _ in range(192)
    ]
    entries = [
        ("t", [(0x0800, 0xFF00)], "fwd", [4]),
        ("t", [(0x0001, 0x000F)], "stop", []),
        ("t", [(0x0002, 0x000F)], "scale", [3]),
    ]
    got = _compare(composed, entries, {"table": fault_rate, "extern": fault_rate},
                   lanes, stream)
    kinds = {o[0] if o[0] == "exc" else o[1] for o in got}
    assert "exc" in kinds and None in kinds  # some lanes die, some emit

class TestGeneratedOnFirstBatch:
    def test_construction_lowers_nothing(self, collecting_metrics):
        composed = build_pipeline("P4")
        METRICS.reset()
        pipe = make_pipeline(composed, "codegen")
        # (make_pipeline runs the shrunk form of the program.)
        assert "columnwise_module" not in pipe.composed.derived
        assert "vector.plan_built" not in METRICS.snapshot()["counters"]
        data = bytes(64)
        pipe.process_soa([data], [1], [Packet(data)])
        assert METRICS.snapshot()["counters"]["vector.plan_built"] == 1
        assert pipe.composed.derived["columnwise_module"] is pipe._vec[0]

    def test_one_code_object_per_program(self):
        composed = build_pipeline("P4")
        first, second = (make_pipeline(composed, "codegen") for _ in range(2))
        data = bytes(64)
        for pipe in (first, second):
            pipe.process_soa([data], [1], [Packet(data)])
        (plan, run), (plan2, run2) = first._vec, second._vec
        assert plan is plan2
        assert run.__code__ is run2.__code__
        assert run is not run2
        # Each executor probes its own tables through its own snapshots.
        sites = [
            {name: ns[name] for name in plan.sites}
            for ns in (run.__globals__, run2.__globals__)
        ]
        for name, table in sites[0].items():
            assert table is not sites[1][name]
            assert table.runtime is first.tables[table.runtime.name]
            assert sites[1][name].runtime is second.tables[table.runtime.name]
