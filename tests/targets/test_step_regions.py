"""Oracle for the generated code's step regions (DESIGN.md §15).

``codegen`` checks the step budget once per *side-effect region* — a
run of pure statements plus the statement after it — where the
interpreter checks before every statement.  That is invisible iff, for
every budget, a packet is killed under one exactly when it is killed
under the other, and everything that outlives a killed packet (trace
events, fault-site draws, register cells, hit/miss counters) is the
same.  So the oracle is a sweep: every budget from 1 to one past the
longest path, interpreter against every generated executor.
"""

import pytest

from repro.core.api import compile_module, compose_modules
from repro.lib.catalog import PROGRAMS, build_pipeline
from repro.net.packet import Packet
from repro.obs.metrics import collecting
from repro.obs.pkttrace import PacketTrace
from repro.targets import codegen as codegen_mod
from repro.targets.backends import backend_of, make_pipeline
from repro.targets.faults import ResourceGuards
from repro.targets.runtime_api import RuntimeAPI
from repro.targets.vector import NUMPY_AVAILABLE
from tests.integration.helpers import ENTRY_SETS, eth_ipv4, eth_ipv6
from tests.targets.helpers import LANE_LOOP, columnwise_floor
from tests.targets.test_codegen import _lane_outcome, _RecordingPlan

#: (backend, batched): what is held against the interpreter; a batched
#: run names the tier its batches run on.
EXECUTORS = [("codegen", False), ("codegen", "lane-loop")] + (
    [("codegen", "columnwise")] if NUMPY_AVAILABLE else []
)


def observe(pipe, packets, budget, batched=False, fault_rate=0.0):
    """Everything one executor lets out while ``packets`` run under
    ``budget``: per-packet outcome (outputs, drop reason, error text),
    pkttrace events (per-packet runs only), fault-site draws in order
    and trips per site, register cells, table hits and misses."""
    plan = (
        _RecordingPlan(seed=5, sites={"table": fault_rate, "extern": fault_rate})
        if fault_rate else None
    )
    pipe.configure_faults(
        guards=ResourceGuards(interp_step_budget=budget), faults=plan
    )
    pipe.persistent.clear()
    outcomes, events = [], None
    with collecting() as registry:
        if batched:
            pkts = [Packet(data) for data, _ in packets]
            floor = 1 if batched == "columnwise" else LANE_LOOP
            with columnwise_floor(floor):
                lanes = pipe.process_soa(
                    [data for data, _ in packets],
                    [port for _, port in packets], pkts,
                )
            outcomes = [_lane_outcome(*lane) for lane in lanes]
        else:
            events = []
            for data, port in packets:
                trace = PacketTrace()
                try:
                    outputs = pipe.process(Packet(data), port, trace)
                    outcomes.append(_lane_outcome(
                        outputs, None if outputs else pipe.last_drop_reason,
                        None,
                    ))
                except Exception as exc:  # noqa: BLE001 — compared below
                    outcomes.append(_lane_outcome(None, None, exc))
                events.append(trace.events)
        family = backend_of(pipe)
        lookups = (
            registry.counter(f"{family}.table_hits"),
            registry.counter(f"{family}.table_misses"),
        )
    return {
        "outcomes": outcomes,
        "events": events,
        "draws": plan.order if plan else None,
        "trips": dict(plan.trips) if plan else None,
        "registers": {
            name: dict(reg.cells) for name, reg in pipe.persistent.items()
        },
        "lookups": lookups,
    }


def first_difference(reference, candidate):
    """The first observation ``candidate`` (a batched one has no trace
    events) does not share with ``reference``, or None."""
    for key, want in reference.items():
        got = candidate[key]
        if got is None and key == "events":
            continue
        if got != want:
            return key
    return None


def path_length(interp, packets):
    """Statements the longest of ``packets`` executes."""
    interp.configure_faults(guards=ResourceGuards(interp_step_budget=1 << 20))
    longest = 0
    for data, port in packets:
        try:
            interp.process(Packet(data), port)
        except Exception:  # noqa: BLE001 — a raise still counted its steps
            pass
        longest = max(longest, interp.interp.steps)
    return longest


def sweep(pipes, packets, lanes=(16, 256), fault_rate=0.05):
    """Every budget from 1 to the longest path + 1, every executor in
    ``pipes`` (``{(backend, batched): pipeline}``) against the
    interpreter: with fault sites armed over ``lanes[0]`` lanes, and
    unarmed over ``lanes[1]`` (no draw depends on the lane there, so
    the interpreter runs each distinct packet once).  Returns the
    disagreements as ``(budget, backend, batched, lanes, what)``."""
    interp = pipes["interp", False]
    found = []
    few = [packets[i % len(packets)] for i in range(lanes[0])]
    repeats = lanes[1] // len(packets)
    for budget in range(1, path_length(interp, packets) + 2):
        armed = observe(interp, few, budget, fault_rate=fault_rate)
        plain = observe(interp, packets, budget)
        for key in ("outcomes", "events"):
            plain[key] = plain[key] * repeats
        plain["lookups"] = tuple(n * repeats for n in plain["lookups"])
        for (backend, batched), pipe in pipes.items():
            if backend == "interp":
                continue
            runs = [(few, armed, fault_rate)]
            if batched:
                runs.append((packets * repeats, plain, 0.0))
            for lanes_in, reference, rate in runs:
                what = first_difference(
                    reference, observe(pipe, lanes_in, budget, batched, rate)
                )
                if what is not None:
                    found.append(
                        (budget, backend, batched, len(lanes_in), what)
                    )
    return found


def build_all(composed, entries=()):
    """``{(backend, batched): pipeline}`` over one composed program —
    one build per backend, the batched runs reuse it."""
    pipes = {}
    for backend in ("interp", "codegen"):
        pipe = make_pipeline(composed, backend)
        api = RuntimeAPI(pipe)
        for table, matches, action, _mono, args in entries:
            api.add_entry(table, matches, action, args)
        pipes[backend, False] = pipe
    for backend, batched in EXECUTORS:
        pipes[backend, batched] = pipes[backend, False]
    return pipes


CATALOG_PACKETS = [
    (eth_ipv4().tobytes(), 1),                       # routable v4
    (eth_ipv6().tobytes(), 2),                       # routable v6
    (eth_ipv4().tobytes()[:20], 1),                  # truncated
    (eth_ipv4().tobytes()[:12] + b"\x08\x06" + bytes(28), 3),  # ARP
]


class TestCatalogSweep:
    @pytest.mark.parametrize("program", PROGRAMS)
    def test_every_budget_every_executor(self, program):
        pipes = build_all(build_pipeline(program), ENTRY_SETS[program])
        # The routed packets really are routed, so the sweep's upper end
        # is a full path.
        free = observe(pipes["interp", False], CATALOG_PACKETS, 1 << 20)
        assert all(outputs for outputs, _, _ in free["outcomes"][:2])
        assert sweep(pipes, CATALOG_PACKETS) == []


# ----------------------------------------------------------------------
# Hand-written programs: a pure run on each side of every kind of
# boundary a region must stop at.
# ----------------------------------------------------------------------

_BOUNDARY_PROGRAM = """
header eth_h { bit<48> dstMac; bit<48> srcMac; bit<16> etherType; }
struct hdr_t { eth_h eth; eth_h inner; }
program T : implements Unicast<> {
  parser P(extractor ex, pkt p, out hdr_t h) {
    state start {
      ex.extract(p, h.eth);
      ex.extract(p, h.inner);
      transition accept;
    }
  }
  control C(pkt p, inout hdr_t h, im_t im) {
    register() seen;
    action mark(bit<16> v) { h.eth.etherType = v; }
    table t {
      key = { h.eth.etherType : exact; }
      actions = { mark; }
    }
    apply {
      bit<16> a;
      bit<16> b;
      a = h.eth.etherType;
      b = a + 16w1;
      %(boundary)s
      a = b + 16w2;
      b = a ^ 16w0x00ff;
      h.inner.etherType = b;
      im.set_out_port(2);
    }
  }
  control D(emitter em, pkt p, in hdr_t h) {
    apply { em.emit(p, h.eth); em.emit(p, h.inner); }
  }
}
T(P, C, D) main;
"""

#: kind -> (the boundary statement, whether an observation shows that
#: it ran — None where nothing outlives the packet).
BOUNDARIES = {
    "register-write": (
        "seen.write(32w3, b);", lambda seen: any(seen["registers"].values()),
    ),
    "table-apply": (
        "t.apply();",
        lambda seen: ("table", "main_t", False) in seen["draws"],
    ),
    "extern-call": (
        "b = (bit<16>) im.get_in_port();",
        lambda seen: ("extern", "im_t", False) in seen["draws"],
    ),
    "drop": (
        "im.drop();",
        lambda seen: ("extern", "im_t", False) in seen["draws"],
    ),
    "header-copy": ("h.inner = h.eth;", None),
    "division": (
        "b = a / (b - a - 16w1);",
        lambda seen: "division by zero" in (seen["outcomes"][0][2] or ""),
    ),
}

BOUNDARY_PACKETS = [
    (bytes(range(28)), 1),
    (bytes(12) + b"\x08\x00" + bytes(14), 2),
    (bytes(9), 0),
]


def _boundary_pipes(kind):
    composed = compose_modules(compile_module(
        _BOUNDARY_PROGRAM % {"boundary": BOUNDARIES[kind][0]}, f"{kind}.up4"
    ))
    return build_all(composed)


class TestBoundaries:
    @pytest.mark.parametrize("kind", sorted(BOUNDARIES))
    def test_sweep(self, kind):
        pipes = _boundary_pipes(kind)
        assert sweep(pipes, BOUNDARY_PACKETS, fault_rate=0.2) == []

    @pytest.mark.parametrize(
        "kind", sorted(k for k, (_, shows) in BOUNDARIES.items() if shows)
    )
    def test_effect_survives_the_next_check(self, kind):
        """Under the budget that runs out one statement after the
        boundary, the boundary's effect is there: no check was hoisted
        over it."""
        shows = BOUNDARIES[kind][1]
        pipes = _boundary_pipes(kind)
        interp = pipes["interp", False]
        packet = BOUNDARY_PACKETS[:1]

        def run(pipe, budget, batched=False):
            # A rate that never trips still records every draw.
            return observe(pipe, packet, budget, batched, fault_rate=1e-9)

        budget = next(
            b for b in range(1, path_length(interp, packet) + 2)
            if shows(run(interp, b))
        )
        want = run(interp, budget)
        assert "exceeded" in want["outcomes"][0][2] or kind == "division"
        for (backend, batched), pipe in pipes.items():
            got = run(pipe, budget, batched)
            assert first_difference(want, got) is None, (backend, batched)
            assert shows(got), (backend, batched)


class TestWidenedRegionIsCaught:
    """The reverse test: remove one boundary from the rule and the
    sweep must go red — otherwise it proves nothing."""

    def test_register_write_taken_for_pure(self, monkeypatch):
        real = codegen_mod.SourceGen.stmt

        def widened(gen, s):
            real(gen, s)
            call = getattr(s, "call", None)
            resolved = getattr(call, "resolved", None)
            if resolved is not None and resolved[:2] == ("extern", "register"):
                gen._pure_done()

        monkeypatch.setattr(codegen_mod.SourceGen, "stmt", widened)
        found = sweep(_boundary_pipes("register-write"), BOUNDARY_PACKETS)
        assert "registers" in {what for *_, what in found}
