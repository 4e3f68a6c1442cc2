"""Executor parity: codegen, on its lane loop and on its columnwise
tier, must be observably identical to the tree-walking interpreter.

Equivalence is asserted at every surface a user of the behavioral target
can see: per-packet outputs (bytes, ports, multicast group, recirculate
flag), drop reasons, :class:`PacketTrace` event streams, fault-injection
behavior (site trips draw from per-site RNG streams, so trip *order and
count* must match), step-budget kills, soak verdict digests, and the
switch's ``emits + drops == units`` ledger.  Hypothesis drives random
packet bytes and ports over every catalog program in both compile modes.

The suite is parametrized over executors, not backend names
(``tests.targets.helpers.EXECUTORS``): the aliases ``compiled`` and
``vector`` rerun nothing, and a new executor class inherits the whole
contract by getting a name in ``EXEC_BACKENDS``.  The pipeline surfaces
run along each of codegen's three paths (``PATHS``): a packet at a
time, and the same packets as one ``process_soa`` batch on the lane
loop and on the columnwise tier.  The switch and soak surfaces run
batches once with the columnwise floor out of reach and once at 1, so
that every batch takes the columnwise tier where numpy and the program
allow it.  Runtime writes between batches (``TestTableWrites``) are
diffed along every path too.
"""

import hashlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import TargetError
from repro.lib.catalog import (
    COMPOSITIONS,
    EXTRA_COMPOSITIONS,
    PROGRAMS,
    build_monolithic,
    build_pipeline,
)
from repro.net.packet import Packet
from repro.obs.metrics import collecting
from repro.obs.pkttrace import PacketTrace
from repro.targets.backends import backend_of, make_pipeline
from repro.targets.faults import FaultPlan, ResourceGuards
from repro.targets.pipeline import PipelineInstance
from repro.targets.runtime_api import RuntimeAPI
from repro.targets.soak import (
    NUM_PORTS,
    SoakConfig,
    iter_stream,
    iter_stream_bytes,
    run_soak,
    soak_program,
    update_digest,
)
from repro.targets.switch import Switch, SwitchConfig
from repro.targets.vector import NUMPY_AVAILABLE
from tests.integration.helpers import ENTRY_SETS, standard_corpus
from tests.targets.helpers import EXECUTORS, LANE_LOOP, columnwise_floor

ALL_PROGRAMS = sorted({*COMPOSITIONS, *EXTRA_COMPOSITIONS})
MODES = ("micro", "mono")

#: Every executor that must match the interp reference, packet for packet.
ALT_BACKENDS = tuple(b for b in EXECUTORS if b != "interp")

#: The batch runs diffed against each other: every executor with the
#: columnwise floor out of reach, then codegen's columnwise tier (floor
#: 1; without numpy it takes the lane loop, counted as ``no-numpy``).
RUNS = tuple((name, LANE_LOOP) for name in EXECUTORS) + (("codegen", 1),)

#: How an executor meets a list of packets, against the interpreter
#: taking them one at a time: ``per-packet`` through ``process_traced``,
#: or the whole list as one ``process_soa`` batch, mapped to the
#: columnwise floor it runs at — ``lane-loop`` out of reach,
#: ``columnwise`` at 1 (a monolithic program declines the tier and a
#: host without numpy has none; both run the lane loop).  A batch is
#: untraced, so it is diffed on everything but the trace.
PATHS = {"per-packet": None, "lane-loop": LANE_LOOP, "columnwise": 1}

# Build each (program, mode) composition once per test session — the
# pipelines under test share it (compilation is deterministic, and both
# backends read the same annotated AST).
_COMPOSED = {}


def composed_for(program, mode):
    key = (program, mode)
    if key not in _COMPOSED:
        builder = build_pipeline if mode == "micro" else build_monolithic
        _COMPOSED[key] = builder(program)
    return _COMPOSED[key]


def _match_for(kind, width, rng):
    value = rng.randrange(1 << min(width, 16))
    if kind == "exact":
        return value
    if kind == "lpm":
        return (value, rng.randrange(width + 1))
    if kind == "ternary":
        return (value, rng.randrange(1 << min(width, 16)))
    if kind == "range":
        hi = value + rng.randrange(16)
        return (value, hi)
    return value


def install_entries(instance, seed=7, per_table=6):
    """Deterministically program every table with a few entries."""
    api = RuntimeAPI(instance)
    for tname in sorted(instance.tables):
        runtime = instance.tables[tname]
        actions = [a for a in runtime.decl.actions if a != "NoAction"] or [
            "NoAction"
        ]
        rng = random.Random(f"{seed}:{tname}")
        for j in range(per_table):
            matches = [
                _match_for(kind, width, rng)
                for kind, width in zip(runtime.match_kinds, runtime.key_widths)
            ]
            action = actions[j % len(actions)]
            decl = instance.composed.actions.get(action)
            nargs = len(decl.params) if decl is not None else 0
            try:
                api.add_entry(
                    tname,
                    matches,
                    action,
                    [rng.randrange(8) for _ in range(nargs)],
                    priority=j,
                )
            except TargetError:
                # Some tables reject runtime adds; both backends share
                # TableRuntime so skipping is backend-symmetric.
                pass


def _normalized(outputs):
    return [
        (o.packet.tobytes(), o.port, o.mcast_grp, o.recirculate)
        for o in outputs
    ]


def run_one(instance, data, port):
    """One packet through a pipeline, normalized for comparison."""
    try:
        outputs, trace = instance.process_traced(Packet(data), port)
        return (
            _normalized(outputs), instance.last_drop_reason, None, trace.events
        )
    except Exception as exc:  # noqa: BLE001 — compared across backends
        return (
            None,
            instance.last_drop_reason,
            f"{type(exc).__name__}: {exc}",
            None,
        )


def run_path(instance, packets, path):
    """``(bytes, port)`` pairs through ``instance`` along ``path``, one
    :func:`run_one`-shaped tuple per packet (no trace for a batch)."""
    if path == "per-packet":
        return [run_one(instance, data, port) for data, port in packets]
    with columnwise_floor(PATHS[path]):
        lanes = instance.process_soa(
            [data for data, _ in packets],
            [port for _, port in packets],
            [Packet(data) for data, _ in packets],
        )
    return [
        (
            None if outputs is None else _normalized(outputs),
            reason,
            None if exc is None else f"{type(exc).__name__}: {exc}",
            None,
        )
        for outputs, reason, exc in lanes
    ]


def reference(interp, packets, path):
    """The interpreter's packets one at a time, as ``path`` must see
    them: without the traces a batch does not keep."""
    want = [run_one(interp, data, port) for data, port in packets]
    if path != "per-packet":
        want = [(outputs, reason, exc, None) for outputs, reason, exc, _ in want]
    return want


def assert_same_path(interp, comp, packets, path, where):
    got = run_path(comp, packets, path)
    for (data, port), want, lane in zip(
        packets, reference(interp, packets, path), got
    ):
        assert lane == want, f"{where}/{path} diverged on {data!r} port {port}"
    assert len(got) == len(packets)


def lane_loop_batches(registry):
    """Batches that took the lane loop, by the reason counted for each."""
    prefix = "vector.lane_loop."
    return {
        key[len(prefix):]: registry.counter(key)
        for key in registry.keys()
        if key.startswith(prefix)
    }


def expected_lane_loops(mode, batches=1):
    """What ``batches`` ``columnwise`` batches of a ``mode`` program
    count under ``vector.lane_loop.*``: nothing while they stay on the
    tier."""
    if not NUMPY_AVAILABLE:
        return {"no-numpy": batches}
    return {} if mode == "micro" else {"declined": batches}


@pytest.fixture(scope="module", params=ALL_PROGRAMS)
def program(request):
    return request.param


# Built-and-programmed (interp, alt) pipeline pairs, shared across
# Hypothesis examples.  The catalog programs drive both executors with
# identical packet sequences, so any persistent register state evolves
# in lockstep on both sides and the parity comparison stays valid —
# while the N-examples × N-programs × N-backends build cost is paid once
# per combination instead of once per example.
_PAIRS = {}


def pipeline_pair(program, mode, backend, path):
    key = (program, mode, backend, path)
    if key not in _PAIRS:
        composed = composed_for(program, mode)
        interp = PipelineInstance(composed)
        comp = make_pipeline(composed, backend)
        install_entries(interp)
        install_entries(comp)
        _PAIRS[key] = (interp, comp)
    return _PAIRS[key]


class TestPipelineEquivalence:
    """Raw pipeline parity: outputs, reasons, traces, byte-for-byte,
    along every path."""

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("backend", ALT_BACKENDS)
    @pytest.mark.parametrize("mode", MODES)
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        packets=st.lists(
            st.tuples(
                st.binary(min_size=0, max_size=96),
                st.integers(0, 7),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_streams_identical(self, program, mode, backend, path, packets):
        interp, comp = pipeline_pair(program, mode, backend, path)
        assert_same_path(
            interp, comp, packets, path, f"{program}/{mode}/{backend}"
        )

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("backend", ALT_BACKENDS)
    @pytest.mark.parametrize("mode", MODES)
    def test_fault_streams_identical(self, program, mode, backend, path):
        """Same FaultPlan seed → same trips, same verdicts, packet for
        packet (trip order/count parity); a columnwise batch resolves
        its trips on the tier."""
        composed = composed_for(program, mode)
        interp = PipelineInstance(composed)
        comp = make_pipeline(composed, backend)
        install_entries(interp)
        install_entries(comp)
        plan_i = FaultPlan(seed=3, sites={"extern": 0.08, "table": 0.08})
        plan_c = FaultPlan(seed=3, sites={"extern": 0.08, "table": 0.08})
        interp.configure_faults(faults=plan_i)
        comp.configure_faults(faults=plan_c)
        rng = random.Random(42)
        packets = [
            (
                bytes(
                    rng.randrange(256)
                    for _ in range(rng.choice((0, 14, 34, 54, 64)))
                ),
                rng.randrange(8),
            )
            for _ in range(150)
        ]
        with collecting() as registry:
            assert_same_path(
                interp, comp, packets, path, f"{program}/{mode}/{backend}"
            )
        # Trip parity: both plans drew and tripped the same sites the
        # same number of times — the RNG streams stayed in lockstep.
        assert plan_i.trips == plan_c.trips
        assert sum(plan_i.trips.values()) > 0
        if path == "columnwise":
            assert lane_loop_batches(registry) == expected_lane_loops(mode)

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("backend", ALT_BACKENDS)
    def test_step_budget_kills_same_packet(self, program, backend, path):
        """A tight step budget kills on the same packet with the same
        reason-coded FaultError under every executor and path: a batch
        the budget could cut leaves the columnwise tier (``step-bound``)
        for the lane loop."""
        composed = composed_for(program, "micro")
        guards = ResourceGuards(interp_step_budget=3)
        interp = PipelineInstance(composed, guards=guards)
        comp = make_pipeline(composed, backend, guards=guards)
        rng = random.Random(1)
        packets = [
            (bytes(rng.randrange(256) for _ in range(34)), 1)
            for _ in range(30)
        ]
        with collecting() as registry:
            assert_same_path(interp, comp, packets, path, f"{program}/{backend}")
        budget_hits = sum(
            1 for _, _, exc, _ in reference(interp, packets, path)
            if exc is not None and "exceeded 3 statements" in exc
        )
        assert budget_hits > 0, "budget of 3 should trip on every program"
        if path == "columnwise" and NUMPY_AVAILABLE:
            assert lane_loop_batches(registry) == {"step-bound": 1}

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("backend", ALT_BACKENDS)
    def test_table_trace_matches(self, program, backend, path):
        """Per packet, the same table-hit sequence; a batch keeps no
        trace, so it must count the same hits, misses and lookups."""
        composed = composed_for(program, "micro")
        interp = PipelineInstance(composed)
        comp = make_pipeline(composed, backend)
        install_entries(interp)
        install_entries(comp)
        rng = random.Random(11)
        datas = [bytes(rng.randrange(256) for _ in range(54)) for _ in range(40)]
        if path != "per-packet":
            with collecting() as registry:
                for data in datas:
                    try:
                        interp.process(Packet(data), 2)
                    except Exception:  # noqa: BLE001 — compared below
                        pass
                want = table_counters(registry, "interp")
            with collecting() as registry:
                run_path(comp, [(data, 2) for data in datas], path)
                got = table_counters(registry, backend_of(comp))
            assert got == want
            assert want[0] > 0
            return
        applies = 0
        for data in datas:
            sequences = []
            for instance in (interp, comp):
                # Own PacketTrace, so a packet that raises mid-pipeline
                # still contributes the applies it got through.
                trace = PacketTrace()
                try:
                    instance.process(Packet(data), 2, trace)
                except Exception:  # noqa: BLE001 — compared below
                    pass
                sequences.append(trace.hit_sequence())
            assert sequences[0] == sequences[1]
            applies += len(sequences[0])
        assert applies > 0


def table_counters(registry, family):
    """Table hits, misses and indexed / scanned lookups, as counted."""
    return (
        registry.counter(f"{family}.table_hits"),
        registry.counter(f"{family}.table_misses"),
        registry.counter("interp.lookup.indexed"),
        registry.counter("interp.lookup.scan"),
    )


class TestSwitchLedger:
    """Containment-boundary parity through the full switch, in batches."""

    @pytest.mark.parametrize("mode", MODES)
    def test_verdicts_and_ledger(self, program, mode):
        config = SoakConfig(
            programs=[program], packets=400, seed=5, fault_rate=0.15,
            mode=mode,
        )
        composed = composed_for(program, mode)
        digests = {}
        for backend, floor in RUNS:
            switch = Switch(
                make_pipeline(composed, exec_backend=backend),
                SwitchConfig(num_ports=16, multicast_groups={1: [2, 3]}),
                guards=ResourceGuards(),
                faults=FaultPlan.uniform(0.15, seed=f"5:{program}"),
            )
            stream = list(iter_stream(config, program, 16))
            digest = hashlib.sha256()
            with columnwise_floor(floor):
                for start in range(0, len(stream), 64):
                    batch = stream[start:start + 64]
                    verdicts = switch.process_batch(
                        [(packet, port) for _, packet, port in batch], soa=True
                    )
                    for (index, _, _), verdict in zip(batch, verdicts):
                        assert verdict.balanced(), (
                            f"{backend}@{floor} unbalanced at packet {index}"
                        )
                        update_digest(digest, index, verdict)
            stats = switch.stats
            assert stats["units"] == stats["out"] + stats["dropped"]
            digests[backend, floor] = digest.hexdigest()
        assert len(set(digests.values())) == 1, digests


class TestSoakDigests:
    """End-to-end soak parity, single-process and sharded."""

    def test_soak_digest_backend_independent(self):
        blocks = {}
        for backend, floor in RUNS:
            with columnwise_floor(floor), collecting() as registry:
                blocks[backend, floor] = soak_program(
                    SoakConfig(
                        programs=["P4"], packets=1200, seed=77,
                        fault_rate=0.1, exec_backend=backend,
                    ),
                    "P4",
                )
            if backend == "codegen" and floor == 1 and NUMPY_AVAILABLE:
                # Every batch, the narrow tail too, ran columnwise.
                assert registry.counter("vector.soa_fallback_batches") == 0
        assert len({b["digest"] for b in blocks.values()}) == 1
        for block in blocks.values():
            assert block["uncaught"] == []
            assert block["ledger_ok"]

    def test_soak_digest_mono_mode(self):
        digests = {}
        for backend, floor in RUNS:
            with columnwise_floor(floor):
                digests[backend, floor] = soak_program(
                    SoakConfig(
                        programs=["P7"], packets=800, seed=31, fault_rate=0.1,
                        mode="mono", exec_backend=backend,
                    ),
                    "P7",
                )["digest"]
        assert len(set(digests.values())) == 1, digests

    def test_run_soak_reports_backend(self):
        summary = run_soak(
            SoakConfig(
                programs=["P1"], packets=200, seed=9, fault_rate=0.0,
                exec_backend="codegen",
            )
        )
        assert summary["ok"]
        assert summary["soak"]["exec"] == "codegen"

    def test_sharded_digest_matches_interp(self):
        from repro.targets.engine import EngineConfig

        digests = {}
        for backend, floor in RUNS:
            with columnwise_floor(floor):  # the workers fork inside
                summary = run_soak(
                    SoakConfig(
                        programs=["P4"], packets=600, seed=21,
                        fault_rate=0.1, exec_backend=backend,
                    ),
                    engine=EngineConfig(workers=2),
                )
            digests[backend, floor] = summary["digest"]
        assert len(set(digests.values())) == 1, digests


def _phase_traffic(program, phase):
    """What each composition is for (``standard_corpus``) and a stretch
    of the soak's mixed stream, on a port of its own per phase."""
    config = SoakConfig(
        programs=[program], packets=48, seed=100 + phase, fault_rate=0.0,
        traffic="mixed",
    )
    corpus = [(pkt.tobytes(), phase % 8) for pkt in standard_corpus(program)]
    return corpus + [
        (data, port)
        for _, data, port in iter_stream_bytes(config, program, NUM_PORTS)
    ]


def _write(api, program, phase):
    """Phase 1 installs the routes ``program`` needs, phase 2 turns each
    route table's miss into its first route's action, phase 3 clears
    every table phase 1 wrote."""
    entries = ENTRY_SETS[program]
    if phase == 1:
        for table, matches, action, _, args in entries:
            api.add_entry(table, matches, action, args)
    elif phase == 2:
        firsts = {}
        for entry in entries:
            firsts.setdefault(entry[0], entry)
        for table, _, action, _, args in firsts.values():
            api.set_default(table, action, args)
    elif phase == 3:
        for table in dict.fromkeys(entry[0] for entry in entries):
            api.clear(table)


@pytest.mark.parametrize("program", PROGRAMS)
class TestTableWrites:
    """Control-plane writes between batches to the tables a program's
    user controls hold: after every ``add_entry`` / ``set_default`` /
    ``clear`` each path answers as the interpreter does, on the
    composition's own corpus and the soak's mixed stream."""

    @pytest.mark.parametrize("path", PATHS)
    def test_writes_between_batches(self, program, path):
        composed = composed_for(program, "micro")
        interp = PipelineInstance(composed)
        comp = make_pipeline(composed, "codegen")
        outcomes = []
        phases = 4
        with collecting() as registry:
            for phase in range(phases):
                for instance in (interp, comp):
                    _write(RuntimeAPI(instance), program, phase)
                packets = _phase_traffic(program, phase)
                assert_same_path(
                    interp, comp, packets, path, f"{program}/phase {phase}"
                )
                outcomes.append(
                    [lane[:3] for lane in reference(interp, packets, path)]
                )
            if path == "columnwise":
                assert lane_loop_batches(registry) == expected_lane_loops(
                    "micro", phases
                )
        # The writes matter: each phase's traffic, replayed through the
        # tables as phase 0 left them, would come out differently.
        fresh = PipelineInstance(composed)
        for phase in range(1, phases):
            untouched = [
                run_one(fresh, data, port)[:3]
                for data, port in _phase_traffic(program, phase)
            ]
            assert outcomes[phase] != untouched, f"phase {phase} wrote nothing"


_COUNTER_SRC = """
header eth_h { bit<48> dstMac; bit<48> srcMac; bit<16> etherType; }
struct hdr_t { eth_h eth; }

program PortCounter : implements Unicast<> {
  parser P(extractor ex, pkt p, out hdr_t h) {
    state start { ex.extract(p, h.eth); transition accept; }
  }
  control C(pkt p, inout hdr_t h, im_t im) {
    register() seen;
    apply {
      bit<16> count;
      bit<32> port;
      port = (bit<32>) im.get_in_port();
      seen.read(count, port);
      count = count + 1;
      seen.write(port, (bit<16>) count);
      h.eth.srcMac = (bit<48>) count;
      im.set_out_port(2);
    }
  }
  control D(emitter em, pkt p, in hdr_t h) {
    apply { em.emit(p, h.eth); }
  }
}
PortCounter(P, C, D) main;
"""


class TestPersistentState:
    """Registers persist across packets identically; the catalog programs
    are stateless, so this compiles a per-port counter program."""

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("backend", ALT_BACKENDS)
    def test_register_state_parity(self, backend, path):
        """A register read declines the columnwise tier, so both batch
        paths run the lane loop, lane after lane."""
        from repro.core.api import build_dataplane, compile_module

        composed = build_dataplane(
            compile_module(_COUNTER_SRC, "counter.up4")
        ).instance.composed
        interp = PipelineInstance(composed)
        comp = make_pipeline(composed, backend)
        rng = random.Random(2)
        packets = [
            (bytes(rng.randrange(256) for _ in range(54)), rng.randrange(4))
            for _ in range(60)
        ]
        assert_same_path(interp, comp, packets, path, backend)
        interp_regs = {
            name: dict(reg.cells)
            for name, reg in interp.persistent.items()
        }
        comp_regs = {
            name: dict(reg.cells)
            for name, reg in comp.persistent.items()
        }
        assert interp_regs == comp_regs
        assert interp_regs, "the counter program should touch a register"
        cells = next(iter(interp_regs.values()))
        assert any(v > 1 for v in cells.values()), (
            "per-port counts should accumulate across packets"
        )
