"""Answers as declared (DESIGN.md §15): while a table with const entries
and no ``lpm`` key is exactly as declared, the generated code answers it
at the apply site — one dict probe or a first-match chain — instead of
calling ``TableRuntime.lookup_full``.  The guard is one attribute,
``TableRuntime.as_declared``; any mutation sends the site back to
``lookup_full`` for good.

The oracle is the interpreter: verdicts, drop reasons, fault-site draws
and trips, hit/miss and lookup counters, pkttrace events and
``lookup_info()`` must be what it produces, with and without control-
plane writes to the tables the compiler made.
"""

import random

import pytest

from repro.core.api import compile_module, compose_modules
from repro.lib.catalog import PROGRAMS, build_pipeline
from repro.net.packet import Packet
from repro.obs.metrics import collecting
from repro.obs.pkttrace import PacketTrace
from repro.targets.backends import backend_of, make_pipeline
from repro.targets.codegen import CodegenPipeline
from repro.targets.pipeline import PipelineInstance
from repro.targets.runtime_api import RuntimeAPI
from repro.targets.soak import (
    NUM_PORTS,
    SoakConfig,
    build_switch,
    compose_program,
    consume,
    iter_stream,
)
from repro.targets.switch import Switch, SwitchConfig
from repro.targets.tables import TableRuntime
from repro.targets.vector import NUMPY_AVAILABLE
from tests.integration.helpers import ENTRY_SETS, eth_ipv4, eth_ipv6
from tests.targets.test_codegen import _RecordingPlan

needs_numpy = pytest.mark.skipif(not NUMPY_AVAILABLE, reason="needs numpy")

#: (backend, how, lanes): every way a generated body runs a packet.
#: ``vector``/``process`` is the per-packet rung of its fallback ladder.
EXECUTORS = [
    ("codegen", "process", 1),
    ("codegen", "soa", 256),
    ("codegen", "soa", 16),
] + ([
    ("vector", "process", 1),
    ("vector", "soa", 256),
    ("vector", "soa", 16),
] if NUMPY_AVAILABLE else [])


@pytest.fixture()
def lookups(monkeypatch):
    """Every ``lookup_full`` call, by table name.  Executors bind the
    method when they are built, so build them after this fixture."""
    calls = []
    real = TableRuntime.lookup_full

    def counted(self, key_values):
        calls.append(self.name)
        return real(self, key_values)

    monkeypatch.setattr(TableRuntime, "lookup_full", counted)
    return calls


def _with_entries(pipe, program="P4"):
    api = RuntimeAPI(pipe)
    for table, matches, action, _mono, args in ENTRY_SETS[program]:
        api.add_entry(table, matches, action, args)
    return pipe


def _outcome(verdict):
    return (
        verdict.kind,
        sorted(verdict.reasons.items()),
        [(o.packet.tobytes(), o.port) for o in verdict.outputs],
    )


def _observe(pipe, phases, how, lanes, between=None, fault_rate=0.05):
    """Everything ``pipe`` lets out over ``phases`` (lists of ``(bytes,
    port)``) in a switch: per-packet outcomes, pkttrace events
    (per-packet runs), fault draws and trips, drop reasons, table and
    lookup counters, ``lookup_info()``.  ``between(phase, api)`` runs
    before every phase after the first."""
    plan = _RecordingPlan(seed=5, sites={"table": fault_rate})
    switch = Switch(pipe, SwitchConfig(num_ports=NUM_PORTS), faults=plan)
    family = backend_of(pipe)
    outcomes, events = [], []
    with collecting() as registry:
        for number, phase in enumerate(phases):
            if number and between is not None:
                between(number, switch.api)
            if how == "process":
                for data, port in phase:
                    trace = PacketTrace()
                    outcomes.append(_outcome(
                        switch.process(Packet(data), port, trace)
                    ))
                    events.append(trace.events)
                continue
            for lo in range(0, len(phase), lanes):
                outcomes += [
                    _outcome(verdict) for verdict in switch.process_batch(
                        [(Packet(d), p) for d, p in phase[lo:lo + lanes]],
                        soa=True,
                    )
                ]
        counters = {
            "hits": registry.counter(f"{family}.table_hits"),
            "misses": registry.counter(f"{family}.table_misses"),
            "indexed": registry.counter("interp.lookup.indexed"),
            "scan": registry.counter("interp.lookup.scan"),
        }
    # Batches regroup the draws of different sites, and the vector path
    # skips sites that cannot trip; each armed site's stream must be
    # the same.
    draws = {}
    for category, name, tripped in plan.order:
        if category == "table":
            draws.setdefault(name, []).append(tripped)
    return {
        "outcomes": outcomes,
        "events": events if how == "process" else None,
        "draws": draws,
        "trips": dict(plan.trips),
        "drops": dict(switch.drops_by_reason),
        "stats": dict(switch.stats),
        "counters": counters,
    }


def _assert_same(reference, got, label):
    for key, want in reference.items():
        if key == "events" and got[key] is None:
            continue
        assert got[key] == want, f"{label}: {key}"


# ----------------------------------------------------------------------
# Counting oracle: a routed packet asks lookup_full only what has state
# ----------------------------------------------------------------------
def _routed_batch(n):
    return [(eth_ipv4() if i % 2 else eth_ipv6()) for i in range(n)]


@pytest.mark.parametrize("backend,how,lanes", EXECUTORS)
def test_a_routed_packet_makes_two_lookups(lookups, backend, how, lanes):
    """Of the 8 tables a routed P4 packet applies, 6 are parser and
    deparser MATs: after the first apply built their indexes, only the
    route and next-hop tables reach ``lookup_full``."""
    pipe = _with_entries(make_pipeline(build_pipeline("P4"), backend))
    if backend == "vector":
        pipe.vector_plan = None  # the codegen rungs of its fallback ladder
    switch = Switch(pipe, SwitchConfig(num_ports=NUM_PORTS))

    def run(packets):
        if how == "process":
            return [switch.process(p, 1) for p in packets]
        return switch.process_batch([(p, 1) for p in packets], soa=True)

    run(_routed_batch(2))  # first applies: indexes built, counted
    lookups.clear()
    verdicts = run(_routed_batch(lanes if how == "soa" else 8))
    assert [o.port for v in verdicts for o in v.outputs] == [4, 2] * (
        len(verdicts) // 2
    )
    assert len(lookups) == 2 * len(verdicts)
    assert set(lookups) == {
        "main_l3_i_ipv4_i_ipv4_lpm_tbl",
        "main_l3_i_ipv6_i_ipv6_lpm_tbl",
        "main_forward_tbl",
    }


@pytest.mark.parametrize("program", PROGRAMS)
def test_soak_counters_and_lookup_info_equal_the_interpreters(program):
    """One seeded hostile soak per program: the codegen switch reports
    what the interpreter switch reports."""
    seen = {}
    for backend in ("interp", "codegen"):
        config = SoakConfig(
            programs=[program], packets=400, seed=11, fault_rate=0.05,
            exec_backend=backend, batch_lanes=64,
        )
        switch = build_switch(config, program, compose_program(config, program))
        with collecting() as registry:
            block = consume(
                switch, iter_stream(config, program, NUM_PORTS),
                batch_lanes=config.batch_lanes,
            )
            counters = (
                registry.counter("interp.lookup.indexed"),
                registry.counter("interp.lookup.scan"),
                registry.counter(f"{backend}.table_hits"),
                registry.counter(f"{backend}.table_misses"),
            )
        seen[backend] = (block["digest"], counters, switch.api.lookup_info())
    assert seen["codegen"] == seen["interp"]
    assert seen["codegen"][1][0] and seen["codegen"][1][1]


# ----------------------------------------------------------------------
# Control-plane writes to the compiler's MATs while traffic runs
# ----------------------------------------------------------------------
PARSER = "main_l3_i_ipv4_i_parser_tbl"
DEPARSER = "main_l3_i_ipv4_i_deparser_tbl"
ETH_PARSER = "main_parser_tbl"


def _traffic(seed, n=48):
    """Routable v4/v6, a route miss, IPv4 cut at every length a parser
    MAT decides on, an unknown etherType."""
    rng = random.Random(seed)
    v4 = eth_ipv4().tobytes()
    kinds = [
        v4,
        eth_ipv6().tobytes(),
        eth_ipv4(dst="172.16.0.1").tobytes(),
        v4[:30], v4[:20], v4[:16], v4[:12],
        v4[:12] + b"\x99\x99unknown",
    ]
    return [(rng.choice(kinds), rng.randrange(NUM_PORTS)) for _ in range(n)]


def _mutate(phase, api):
    """Each kind of write, and an ``add_entry`` and a ``set_default`` as
    the first write a MAT sees."""
    extract = api.find_table(PARSER).const_entries[0].action_name
    dep_0, dep_1 = (
        e.action_name for e in api.find_table(DEPARSER).const_entries
    )
    if phase == 1:
        api.add_entry(PARSER, [(20, 33)], extract)
    elif phase == 2:
        api.set_default(
            ETH_PARSER, api.find_table(ETH_PARSER).const_entries[0].action_name
        )
        api.add_entry(DEPARSER, [0, 1], dep_0)
    elif phase == 3:
        api.clear(PARSER)
        api.set_default(PARSER, extract)
        api.set_default(DEPARSER, dep_1)


def test_mutating_synthesized_mats_is_seen_by_every_executor():
    """``add_entry`` / ``set_default`` / ``clear`` on a parser and a
    deparser MAT between phases: every executor stays the interpreter."""
    phases = [_traffic(seed) for seed in range(5)]
    composed = build_pipeline("P4")

    def interp():
        return _with_entries(make_pipeline(composed, "interp"))

    want = _observe(interp(), phases, "process", 1, _mutate)
    untouched = _observe(interp(), phases, "process", 1)
    # The writes matter: a run without them comes out different.
    assert want["outcomes"] != untouched["outcomes"]
    for backend, how, lanes in EXECUTORS:
        pipe = _with_entries(make_pipeline(composed, backend))
        got = _observe(pipe, phases, how, lanes, _mutate)
        _assert_same(want, got, f"{backend}/{how}/{lanes}")
        for name in (PARSER, DEPARSER, ETH_PARSER):
            assert not pipe.tables[name].as_declared


def test_two_instances_of_one_module_keep_their_own_guard(lookups):
    """Writing one executor's MAT leaves another instance of the same
    generated module answering inline, and right."""
    composed = build_pipeline("P4")
    mutated = _with_entries(make_pipeline(composed, "codegen"))
    other = _with_entries(make_pipeline(composed, "codegen"))
    assert mutated._run.__code__ is other._run.__code__
    warm = [(p.tobytes(), 1) for p in _routed_batch(2)]
    for pipe in (mutated, other):
        _observe(pipe, [warm], "soa", 16)
    _mutate(1, RuntimeAPI(mutated))
    _mutate(2, RuntimeAPI(mutated))
    assert not mutated.tables[PARSER].as_declared
    assert other.tables[PARSER].as_declared
    assert other.tables[DEPARSER].as_declared

    phases = [_traffic(seed) for seed in (7, 8)]
    reference = _with_entries(make_pipeline(composed, "interp"))
    want = _observe(reference, phases, "process", 1)
    lookups.clear()
    got = _observe(other, phases, "soa", 16)
    _assert_same(want, got, "untouched instance")
    assert PARSER not in lookups and DEPARSER not in lookups

    reference = _with_entries(make_pipeline(composed, "interp"))
    _mutate(1, RuntimeAPI(reference))
    _mutate(2, RuntimeAPI(reference))
    want = _observe(reference, phases, "process", 1)
    lookups.clear()
    got = _observe(mutated, phases, "soa", 16)
    _assert_same(want, got, "mutated instance")
    assert PARSER in lookups and DEPARSER in lookups


# ----------------------------------------------------------------------
# The answer rule on hand-written tables
# ----------------------------------------------------------------------
EDGE = """
header eth_h { bit<48> dstMac; bit<48> srcMac; bit<16> etherType; }
struct hdr_t { eth_h eth; }
program T : implements Unicast<> {
  parser P(extractor ex, pkt p, out hdr_t h) {
    state start { ex.extract(p, h.eth); transition accept; }
  }
  control C(pkt p, inout hdr_t h, im_t im) {
    action to(bit<8> port) { im.set_out_port(port); }
    action mark(bit<16> v, bit<8> low) {
      h.eth.etherType = v;
      h.eth.dstMac[7:0] = low;
    }
    action keep() { }
    action drop_it() { im.drop(); }
    // a don't-care on an exact key: not one dict probe
    table dc_t {
      key = { h.eth.etherType : exact; h.eth.dstMac[7:0] : exact; }
      actions = { to; drop_it; }
      const entries = { (0x0800, _) : to(2); (0x86DD, 5) : to(3); }
      default_action = drop_it();
    }
    // duplicate exact keys: the first entry wins
    table dup_t {
      key = { h.eth.srcMac[7:0] : exact; }
      actions = { mark; keep; }
      const entries = {
        1 : mark(0x0800, 1);
        1 : mark(0x86DD, 2);
        2 : mark(0x86DD, 5);
      }
      default_action = keep();
    }
    // overlapping range and ternary rows: the first match wins
    table ovl_t {
      key = { h.eth.etherType : range; h.eth.srcMac[15:8] : ternary; }
      actions = { mark; keep; }
      const entries = {
        (0x0000 .. 0x0FFF, 0x01 &&& 0x01) : mark(0x0800, 10);
        (0x0800 .. 0x08FF, _) : mark(0x86DD, 5);
        (_, 0x80 &&& 0xF0) : mark(0x86DD, 12);
      }
      default_action = keep();
    }
    apply {
      dup_t.apply();
      ovl_t.apply();
      dc_t.apply();
    }
  }
  control D(emitter em, pkt p, in hdr_t h) {
    apply { em.emit(p, h.eth); }
  }
}
T(P, C, D) main;
"""

USER_TABLES = ("main_dc_t", "main_dup_t", "main_ovl_t")


def _edge_traffic(seed, n=64):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        dst = bytes(5) + bytes([rng.choice((0, 5, 7))])
        src = bytes(4) + bytes([rng.choice((0x00, 0x01, 0x80, 0x81))]) + bytes(
            [rng.choice((0, 1, 2, 3))]
        )
        ether = rng.choice((0x0800, 0x86DD, 0x0100, 0x9000, 0x0850))
        out.append((dst + src + ether.to_bytes(2, "big") + b"edge",
                    rng.randrange(NUM_PORTS)))
    return out


@pytest.fixture(scope="module")
def edge_program():
    return compose_modules(compile_module(EDGE, "edge.up4"))


def test_the_answer_forms(edge_program):
    tables = make_pipeline(edge_program, "codegen").tables
    forms = {name: tables[name].declared_form() for name in USER_TABLES}
    assert forms["main_dc_t"][0] == "chain"  # the `_` keeps it off the dict
    assert forms["main_dup_t"] == ("exact", ())
    assert forms["main_ovl_t"][0] == "chain"
    # First entry per key in the dict, as in the scan.
    dup = tables["main_dup_t"].declared_answers()
    assert dup.by_key[(1,)] is dup.rows[0]
    assert dup.rows[0][1] == [0x0800, 1]


@pytest.mark.parametrize("backend,how,lanes", EXECUTORS)
def test_user_tables_answer_like_the_interpreter(lookups, edge_program,
                                                 backend, how, lanes):
    phases = [_edge_traffic(seed) for seed in range(3)]
    want = _observe(make_pipeline(edge_program, "interp"), phases, "process", 1)
    # Every reachable row and the default of every table are taken
    # (dup_t's second row is shadowed by its first).
    taken = {
        (event["table"], event["entry"])
        for trace in want["events"] for event in trace
        if event.kind == "table" and event["table"] in USER_TABLES
    }
    assert taken == {
        ("main_dc_t", 0), ("main_dc_t", 1), ("main_dc_t", None),
        ("main_dup_t", 0), ("main_dup_t", 2), ("main_dup_t", None),
        ("main_ovl_t", 0), ("main_ovl_t", 1), ("main_ovl_t", 2),
        ("main_ovl_t", None),
    }
    pipe = make_pipeline(edge_program, backend)
    lookups.clear()
    got = _observe(pipe, phases, how, lanes)
    _assert_same(want, got, f"{backend}/{how}/{lanes}")
    for name in USER_TABLES:
        assert pipe.tables[name].as_declared
        assert lookups.count(name) <= 1  # the apply that built the index


def test_action_args_reach_the_trace(edge_program):
    phases = [_edge_traffic(1)]
    want = _observe(make_pipeline(edge_program, "interp"), phases, "process", 1)
    got = _observe(make_pipeline(edge_program, "codegen"), phases, "process", 1)
    args = [
        event.data["args"] for trace in got["events"] for event in trace
        if event.kind == "table" and event.data["table"] == "main_dup_t"
    ]
    assert [0x0800, 1] in args and [0x86DD, 5] in args
    assert got["events"] == want["events"]


def test_an_unindexed_instance_of_the_same_module_scans(lookups, edge_program):
    """``use_index=False``: the same code object, no index, so no guard —
    every apply is a reference scan, counted as one."""
    indexed = CodegenPipeline(edge_program)
    plain = CodegenPipeline(edge_program, use_table_index=False)
    assert plain._run.__code__ is indexed._run.__code__
    assert set(plain._lq_metrics) == {"interp.lookup.scan"}
    phases = [_edge_traffic(4)]
    want = _observe(
        PipelineInstance(edge_program, use_table_index=False),
        phases, "process", 1,
    )
    lookups.clear()
    got = _observe(plain, phases, "process", 1)
    _assert_same(want, got, "use_index=False")
    assert not any(t.as_declared for t in plain.tables.values())
    assert got["counters"]["indexed"] == 0
    assert len(lookups) == got["counters"]["scan"]
