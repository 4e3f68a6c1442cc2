"""Differential axis: the shrunk program vs the program as composed.

``make_pipeline`` hands every executor the composed program after
``shrink_copies``; the backends' own constructors run what they are
given.  Everything a soak run can observe must agree between the two on
every backend: digest, verdict kinds, drop reasons, fault trips (the
fault RNG streams are per site, so a moved or missing site shows up
here) and the per-packet trace event lists.
"""

import pytest

from repro.lib.catalog import PROGRAMS, build_pipeline
from repro.obs.metrics import collecting
from repro.targets.backends import (
    executable_form,
    executor_class,
    make_pipeline,
)
from repro.targets.codegen import CodegenPipeline
from repro.targets.pipeline import PipelineInstance
from repro.targets.runtime_api import RuntimeAPI
from repro.targets.soak import (
    NUM_PORTS,
    SoakConfig,
    build_switch,
    consume,
    iter_stream,
    switch_around,
)
from repro.targets.vector import NUMPY_AVAILABLE
from tests.integration.helpers import ENTRY_SETS, standard_corpus
from tests.targets.helpers import EXECUTORS, LANE_LOOP, columnwise_floor

#: Each leg's executor class, built straight from the program as composed
#: (``compiled``, the interpreter's alias, would rerun the ``interp`` leg).
AS_COMPOSED = {
    "interp": PipelineInstance,
    "codegen": CodegenPipeline,
    "vector": CodegenPipeline,  # an alias
}
BACKENDS = tuple(AS_COMPOSED)
TRAFFIC = [("routable", 0.0), ("mixed", 0.1)]
#: The columnwise lane floor each SoA leg runs at: ``codegen`` keeps
#: every batch on the lane loop, its alias ``vector`` runs every batch
#: columnwise where numpy and the program allow.
SOA_FLOOR = {"codegen": LANE_LOOP, "vector": 1}
OBSERVED = ("digest", "verdicts", "drops_by_reason", "fault_trips", "packets")


@pytest.fixture(scope="module")
def composed_programs():
    return {name: build_pipeline(name) for name in PROGRAMS}


def test_every_backend_is_covered():
    assert set(EXECUTORS) <= set(AS_COMPOSED)
    for backend, executor in AS_COMPOSED.items():
        assert executor_class(backend) is executor


def _run(switch, config, program, traced):
    events = []
    block = consume(
        switch,
        iter_stream(config, program, NUM_PORTS),
        batch_lanes=64,
        on_trace=(
            (lambda i, trace, v: events.append(trace.to_dict()["events"]))
            if traced
            else None
        ),
    )
    assert not block["uncaught"] and block["ledger_ok"]
    return {key: block[key] for key in OBSERVED}, events


@pytest.mark.parametrize("traffic,fault_rate", TRAFFIC)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("program", PROGRAMS)
def test_soak_observables_agree(
    composed_programs, program, backend, traffic, fault_rate
):
    composed = composed_programs[program]
    config = SoakConfig(
        programs=[program],
        packets=160,
        seed=2020,
        fault_rate=fault_rate,
        traffic=traffic,
        exec_backend=backend,
    )
    # One packet at a time with a trace each and, where the backend has
    # an SoA stage, batched as the soak loop normally runs it.
    for traced in (True, False) if backend in SOA_FLOOR else (True,):
        shrunk = build_switch(config, program, composed)
        assert shrunk.pipeline.composed is executable_form(composed)
        reference = switch_around(
            AS_COMPOSED[backend](composed), config, program
        )
        assert reference.pipeline.composed is composed
        with columnwise_floor(SOA_FLOOR.get(backend, LANE_LOOP)):
            got = _run(shrunk, config, program, traced)
            want = _run(reference, config, program, traced)
        assert got[0] == want[0]
        assert got[1] == want[1]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("program", PROGRAMS)
def test_program_specific_corpus_agrees(composed_programs, program, backend):
    """The soak mixes are plain v4/v6; the integration corpus adds what
    each composition is for (MPLS pop/push/swap, NAT, SRv4 encap/decap,
    SRv6 endpoints, ACL denies), against the interpreter as composed."""
    composed = composed_programs[program]
    reference = PipelineInstance(composed)
    shrunk = make_pipeline(composed, backend)
    for instance in (reference, shrunk):
        api = RuntimeAPI(instance)
        for table, matches, action, _, args in ENTRY_SETS[program]:
            api.add_entry(table, matches, action, args)
    for pkt in standard_corpus(program):
        want, want_trace = reference.process_traced(pkt.copy(), 1)
        got, got_trace = shrunk.process_traced(pkt.copy(), 1)
        assert [(o.port, o.packet.tobytes()) for o in got] == [
            (o.port, o.packet.tobytes()) for o in want
        ], pkt
        assert got_trace.to_dict()["events"] == want_trace.to_dict()["events"]


@pytest.mark.parametrize("floor", [LANE_LOOP, 1], ids=["lane-loop", "columnwise"])
@pytest.mark.parametrize("program", PROGRAMS)
def test_program_specific_corpus_agrees_in_one_batch(
    composed_programs, program, floor
):
    """The same corpus as one ``process_soa`` batch of the shrunk
    codegen executor, on its lane loop and on its columnwise tier,
    against the interpreter as composed taking it a packet at a time."""
    composed = composed_programs[program]
    reference = PipelineInstance(composed)
    shrunk = make_pipeline(composed, "codegen")
    for instance in (reference, shrunk):
        api = RuntimeAPI(instance)
        for table, matches, action, _, args in ENTRY_SETS[program]:
            api.add_entry(table, matches, action, args)
    corpus = standard_corpus(program)
    want = []
    for pkt in corpus:
        outputs = reference.process(pkt.copy(), 1)
        want.append((
            [(o.port, o.packet.tobytes()) for o in outputs],
            reference.last_drop_reason,
        ))
    with columnwise_floor(floor), collecting() as registry:
        lanes = shrunk.process_soa(
            [pkt.tobytes() for pkt in corpus],
            [1] * len(corpus),
            [pkt.copy() for pkt in corpus],
        )
        loops = registry.counter("vector.soa_fallback_batches")
    assert [exc for _, _, exc in lanes] == [None] * len(corpus)
    got = [
        ([(o.port, o.packet.tobytes()) for o in outputs], reason)
        for outputs, reason, _ in lanes
    ]
    assert got == want
    assert any(outputs for outputs, _ in want)
    assert loops == (0 if floor == 1 and NUMPY_AVAILABLE else 1)


def test_routable_p4_packet_statement_count(composed_programs):
    """The per-packet cost every backend pays is statements executed
    (``interp_step_budget`` counts them identically on all of them):
    72-91 for a routable P4 packet as composed, under 48 shrunk."""
    composed = composed_programs["P4"]
    config = SoakConfig(
        programs=["P4"], packets=200, seed=1234, fault_rate=0.0,
        traffic="routable", exec_backend="interp",
    )
    shrunk = build_switch(config, "P4", composed)
    reference = switch_around(PipelineInstance(composed), config, "P4")
    forwarded = 0
    for _, packet, port in iter_stream(config, "P4", NUM_PORTS):
        verdict = shrunk.process(packet.copy(), port)
        assert reference.process(packet.copy(), port).kind == verdict.kind
        if verdict.kind == "emit":
            forwarded += 1
            assert shrunk.pipeline.interp.steps <= 48
            assert reference.pipeline.interp.steps >= 70
    assert forwarded > 50
