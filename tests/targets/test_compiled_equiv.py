"""Differential suite: the closure-compiled backend must be observably
identical to the tree-walking interpreter.

Equivalence is asserted at every surface a user of the behavioral target
can see: per-packet outputs (bytes, ports, multicast group, recirculate
flag), drop reasons, :class:`PacketTrace` event streams, fault-injection
behavior (site trips draw from per-site RNG streams, so trip *order and
count* must match), step-budget kills, soak verdict digests, and the
switch's ``emits + drops == units`` ledger.  Hypothesis drives random
packet bytes and ports over every catalog program in both compile modes.

The suite is parametrized over ``EXEC_BACKENDS`` — every non-interp
backend (closure-compiled, source-codegen, and any future one) is
diffed against the tree-walking reference, so a new backend inherits
the whole parity contract by being added to the seam tuple.
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
    build_monolithic,
    build_pipeline,
)
from repro.net.packet import Packet
from repro.obs.pkttrace import PacketTrace
from repro.targets.backends import EXEC_BACKENDS, make_pipeline
from repro.targets.faults import FaultPlan, ResourceGuards
from repro.targets.pipeline import PipelineInstance
from repro.targets.runtime_api import RuntimeAPI
from repro.targets.soak import (
    SoakConfig,
    iter_stream,
    run_soak,
    soak_program,
    update_digest,
)
from repro.targets.switch import Switch, SwitchConfig

ALL_PROGRAMS = sorted({*COMPOSITIONS, *EXTRA_COMPOSITIONS})
MODES = ("micro", "mono")

from repro.targets.vector import NUMPY_AVAILABLE

#: Backends exercised this run.  ``vector`` needs the optional numpy
#: extra; without it the backend refuses to construct (reason-coded
#: ``vector-unavailable``), so it drops out of the differential matrix
#: instead of failing it — the no-numpy CI job pins that.
RUN_BACKENDS = tuple(
    b for b in EXEC_BACKENDS if b != "vector" or NUMPY_AVAILABLE
)

#: Every backend that must match the interp reference, packet for packet.
ALT_BACKENDS = tuple(b for b in RUN_BACKENDS if b != "interp")

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


def run_one(instance, data, port):
    """One packet through a pipeline, normalized for comparison."""
    try:
        outputs, trace = instance.process_traced(Packet(data), port)
        normalized = [
            (o.packet.tobytes(), o.port, o.mcast_grp, o.recirculate)
            for o in outputs
        ]
        return (normalized, instance.last_drop_reason, None, trace.events)
    except Exception as exc:  # noqa: BLE001 — compared across backends
        return (
            None,
            instance.last_drop_reason,
            f"{type(exc).__name__}: {exc}",
            None,
        )


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


def pipeline_pair(program, mode, backend):
    key = (program, mode, backend)
    if key not in _PAIRS:
        composed = composed_for(program, mode)
        interp = PipelineInstance(composed)
        comp = make_pipeline(composed, backend)
        install_entries(interp)
        install_entries(comp)
        _PAIRS[key] = (interp, comp)
    return _PAIRS[key]


class TestPipelineEquivalence:
    """Raw pipeline parity: outputs, reasons, traces, byte-for-byte."""

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
    def test_streams_identical(self, program, mode, backend, packets):
        interp, comp = pipeline_pair(program, mode, backend)
        for data, port in packets:
            assert run_one(interp, data, port) == run_one(comp, data, port), (
                f"{program}/{mode}/{backend} diverged on {data!r} port {port}"
            )

    @pytest.mark.parametrize("backend", ALT_BACKENDS)
    @pytest.mark.parametrize("mode", MODES)
    def test_fault_streams_identical(self, program, mode, backend):
        """Same FaultPlan seed → same trips, same verdicts, packet for
        packet (trip order/count parity)."""
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
        for i in range(150):
            data = bytes(
                rng.randrange(256)
                for _ in range(rng.choice((0, 14, 34, 54, 64)))
            )
            port = rng.randrange(8)
            assert run_one(interp, data, port) == run_one(comp, data, port), (
                f"{program}/{mode}/{backend} fault divergence at packet {i}"
            )
        # Trip parity: both plans drew and tripped the same sites the
        # same number of times — the RNG streams stayed in lockstep.
        assert plan_i.trips == plan_c.trips

    @pytest.mark.parametrize("backend", ALT_BACKENDS)
    def test_step_budget_kills_same_packet(self, program, backend):
        """A tight step budget kills on the same packet with the same
        reason-coded FaultError under every backend."""
        composed = composed_for(program, "micro")
        guards = ResourceGuards(interp_step_budget=3)
        interp = PipelineInstance(composed, guards=guards)
        comp = make_pipeline(composed, backend, guards=guards)
        rng = random.Random(1)
        budget_hits = 0
        for _ in range(30):
            data = bytes(rng.randrange(256) for _ in range(34))
            r1 = run_one(interp, data, 1)
            r2 = run_one(comp, data, 1)
            assert r1 == r2
            if r1[2] is not None and "exceeded 3 statements" in r1[2]:
                budget_hits += 1
        assert budget_hits > 0, "budget of 3 should trip on every program"

    @pytest.mark.parametrize("backend", ALT_BACKENDS)
    def test_table_trace_matches(self, program, backend):
        composed = composed_for(program, "micro")
        interp = PipelineInstance(composed)
        comp = make_pipeline(composed, backend)
        install_entries(interp)
        install_entries(comp)
        rng = random.Random(11)
        applies = 0
        for _ in range(40):
            data = bytes(rng.randrange(256) for _ in range(54))
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


class TestSwitchLedger:
    """Containment-boundary parity through the full switch."""

    @pytest.mark.parametrize("mode", MODES)
    def test_verdicts_and_ledger(self, program, mode):
        config = SoakConfig(
            programs=[program], packets=400, seed=5, fault_rate=0.15,
            mode=mode,
        )
        switches = {}
        for backend in RUN_BACKENDS:
            composed = composed_for(program, mode)
            switch = Switch(
                make_pipeline(composed, exec_backend=backend),
                SwitchConfig(num_ports=16, multicast_groups={1: [2, 3]}),
                guards=ResourceGuards(),
                faults=FaultPlan.uniform(0.15, seed=f"5:{program}"),
            )
            switches[backend] = switch
        digests = {}
        for backend, switch in switches.items():
            digest = hashlib.sha256()
            for index, packet, in_port in iter_stream(config, program, 16):
                verdict = switch.process(packet, in_port)
                assert verdict.balanced(), (
                    f"{backend} unbalanced at packet {index}"
                )
                update_digest(digest, index, verdict)
            stats = switch.stats
            assert stats["units"] == stats["out"] + stats["dropped"]
            digests[backend] = digest.hexdigest()
        assert len(set(digests.values())) == 1, digests


class TestSoakDigests:
    """End-to-end soak parity, single-process and sharded."""

    def test_soak_digest_backend_independent(self):
        blocks = {
            backend: soak_program(
                SoakConfig(
                    programs=["P4"], packets=1200, seed=77, fault_rate=0.1,
                    exec_backend=backend,
                ),
                "P4",
            )
            for backend in RUN_BACKENDS
        }
        assert len({b["digest"] for b in blocks.values()}) == 1
        for backend in RUN_BACKENDS:
            assert blocks[backend]["uncaught"] == []
            assert blocks[backend]["ledger_ok"]

    def test_soak_digest_mono_mode(self):
        digests = {
            backend: soak_program(
                SoakConfig(
                    programs=["P7"], packets=800, seed=31, fault_rate=0.1,
                    mode="mono", exec_backend=backend,
                ),
                "P7",
            )["digest"]
            for backend in RUN_BACKENDS
        }
        assert len(set(digests.values())) == 1, digests

    def test_run_soak_reports_backend(self):
        summary = run_soak(
            SoakConfig(
                programs=["P1"], packets=200, seed=9, fault_rate=0.0,
                exec_backend="compiled",
            )
        )
        assert summary["ok"]
        assert summary["soak"]["exec"] == "compiled"

    def test_sharded_digest_matches_interp(self):
        from repro.targets.engine import EngineConfig

        digests = {}
        for backend in RUN_BACKENDS:
            summary = run_soak(
                SoakConfig(
                    programs=["P4"], packets=600, seed=21, fault_rate=0.1,
                    exec_backend=backend,
                ),
                engine=EngineConfig(workers=2),
            )
            digests[backend] = summary["digest"]
        assert len(set(digests.values())) == 1, digests


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

    @pytest.mark.parametrize("backend", ALT_BACKENDS)
    def test_register_state_parity(self, backend):
        from repro.core.api import build_dataplane, compile_module

        composed = build_dataplane(
            compile_module(_COUNTER_SRC, "counter.up4")
        ).instance.composed
        interp = PipelineInstance(composed)
        comp = make_pipeline(composed, backend)
        rng = random.Random(2)
        for _ in range(60):
            data = bytes(rng.randrange(256) for _ in range(54))
            port = rng.randrange(4)
            assert run_one(interp, data, port) == run_one(comp, data, port)
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
