"""Codegen's columnwise tier: divergence splitting, the lane-loop
ladder, and digest parity (DESIGN.md §15).

The differential suite already diffs codegen against the interpreter
per packet; this file covers what is *specific* to columnwise batches.
Its tests run with the tier's lane floor at 1 (``columnwise_any_width``)
so narrow batches cover it, except where they test the floor itself:

* divergence splitting — fault-injected lanes, runtime errors, and
  byte-stack bounds kills split out of the columnwise path in per-site
  RNG lane order, so batched results match the lane loop triple for
  triple;
* the lane-loop ladder — narrow batches, step budgets that could fire,
  programs that decline (mono mode has no SoA layout), a host without
  numpy and a speculation error each take the slower-but-exact lane
  loop, counted by reason; per-lane table lookups past the scan limit
  stay columnwise;
* the numpy-optional policy — without numpy ``codegen`` and its alias
  ``vector`` run every batch on the lane loop, with the same results;
* ``--batch-lanes`` — validated up front, digest-invariant;
* the codegen build cache.
"""

import random
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import TargetError
from repro.lib.catalog import PROGRAMS, build_monolithic, build_pipeline
from repro.net.packet import Packet
from repro.obs.metrics import METRICS
from repro.targets import vector as vector_mod
from repro.targets.backends import make_pipeline
from repro.targets.faults import FaultPlan, ResourceGuards
from repro.targets.runtime_api import RuntimeAPI
from repro.targets.soak import SoakConfig, run_soak, soak_program
from repro.targets.switch import Switch
from repro.targets.tables import TableRuntime
from repro.targets.vector import NUMPY_AVAILABLE, columnwise_module
from tests.integration.helpers import (
    ENTRY_SETS,
    MAC_A,
    MAC_B,
    eth_ipv4,
    eth_ipv6,
    ip4,
    mac,
)
from tests.targets.helpers import LANE_LOOP, columnwise_floor

needs_numpy = pytest.mark.skipif(not NUMPY_AVAILABLE, reason="numpy not installed")
pytestmark = pytest.mark.usefixtures("columnwise_any_width")


@pytest.fixture
def metrics():
    METRICS.enable()
    METRICS.reset()
    yield METRICS
    METRICS.reset()
    METRICS.disable()


def build(backend="codegen", program="P4", fault_rate=0.0, guards=None,
          entries=True, mode="micro"):
    builder = build_pipeline if mode == "micro" else build_monolithic
    composed = builder(program)
    faults = FaultPlan.uniform(fault_rate, seed=1234) if fault_rate else None
    inst = make_pipeline(
        composed, exec_backend=backend, guards=guards, faults=faults
    )
    if entries:
        api = RuntimeAPI(inst)
        for table, matches, act_micro, act_mono, args in ENTRY_SETS[program]:
            api.add_entry(
                table, matches, act_micro if mode == "micro" else act_mono, args
            )
    return inst


def corpus(n=256):
    pkts = []
    for i in range(n):
        if i % 3 == 2:
            pkts.append(eth_ipv6(dst="2001:db8::%x" % (i + 1), hop=1 + i % 250))
        else:
            pkts.append(eth_ipv4(dst="10.0.%d.%d" % (i % 256, (i * 7) % 256),
                                 ttl=1 + i % 250,
                                 payload=b"x" * (i % 9)))
    return pkts


def run_batch(inst, pkts, lane_loop=False):
    """One ``process_soa`` call: columnwise where the program can, or
    on the lane loop."""
    datas = [p.tobytes() for p in pkts]
    with columnwise_floor(LANE_LOOP if lane_loop else 1):
        return inst.process_soa(datas, [1] * len(datas), pkts)


def plan_of(pipe):
    """The program's columnwise module, or the reason it has none."""
    return columnwise_module(pipe.composed, pipe.tables)


def normalize(triples):
    out = []
    for outputs, reason, exc in triples:
        if exc is not None:
            out.append(("exc", type(exc).__name__, str(exc),
                        getattr(exc, "reason", None)))
        elif outputs is None:
            out.append(("none",))
        elif not outputs:
            out.append(("drop", reason))
        else:
            out.append(("emit", tuple(
                (o.packet.tobytes(), o.port, o.mcast_grp, o.recirculate)
                for o in outputs
            )))
    return out


@needs_numpy
class TestDivergenceSplitting:
    def test_faultless_batch_matches_lane_loop(self):
        pkts = corpus()
        got = normalize(run_batch(build("codegen"), pkts))
        want = normalize(run_batch(build("codegen"), pkts, lane_loop=True))
        assert got == want

    def test_fault_lanes_split_in_rng_order(self):
        """Injected trips draw per-site RNG streams in lane order, so
        exactly the same lanes die with the same messages."""
        pkts = corpus()
        vec = build("codegen", fault_rate=0.15)
        ref = build("codegen", fault_rate=0.15)
        got = normalize(run_batch(vec, pkts))
        want = normalize(run_batch(ref, pkts, lane_loop=True))
        assert got == want
        assert any(t[0] == "exc" for t in got)  # faults actually fired
        # Lanes killed mid-body stop counting at the same table apply.
        assert (vec._hits_out, vec._misses_out) == (
            ref._hits_out, ref._misses_out
        )

    def test_split_lanes_counted(self, metrics):
        pkts = corpus()
        vec = build("codegen", fault_rate=0.15)
        METRICS.reset()
        triples = run_batch(vec, pkts)
        killed = sum(1 for _o, _r, exc in triples if exc is not None)
        assert killed > 0
        snap = METRICS.snapshot()["counters"]
        assert snap.get("vector.split_lanes", 0) == killed
        assert snap.get("codegen.packets") == len(pkts)

    def test_trace_and_metrics_match_per_packet(self, metrics):
        """Batch bookkeeping counts == per-packet execution (batch mode
        has no per-packet trace; the counters are its record)."""
        pkts = corpus(64)
        vec = build("codegen", fault_rate=0.1)
        pp = build("codegen", fault_rate=0.1)
        METRICS.reset()
        run_batch(vec, pkts)
        batch_snap = METRICS.snapshot()["counters"]
        METRICS.reset()
        for p in pkts:
            try:
                pp.process(p.copy(), 1)
            except Exception:
                pass
        pkt_snap = METRICS.snapshot()["counters"]
        for key in ("codegen.table_hits", "codegen.table_misses",
                    "interp.lookup.indexed", "interp.lookup.scan"):
            assert batch_snap.get(key, 0) == pkt_snap.get(key, 0), key


@needs_numpy
class TestFallbackLadder:
    def test_step_budget_falls_back_to_lane_loop(self, metrics):
        """A step budget the plan's static bound can reach must keep
        per-lane accounting — the batch runs the lane loop and lanes die
        with the interpreter's step-budget fault."""
        guards = ResourceGuards(interp_step_budget=10)
        vec = build("codegen", guards=guards)
        assert plan_of(vec).step_bound > vec.step_limit
        ref = build("codegen", guards=guards)
        pkts = corpus(32)
        METRICS.reset()
        got = normalize(run_batch(vec, pkts))
        snap = METRICS.snapshot()["counters"]
        assert snap.get("vector.soa_fallback_batches", 0) == 1
        assert snap.get("vector.lane_loop.step-bound", 0) == 1
        want = normalize(run_batch(ref, pkts, lane_loop=True))
        assert got == want
        assert all(t[0] == "exc" and t[3] == "step-budget" for t in got)

    def test_mono_mode_declines_plan(self):
        """No byte-stack arena in mono mode — the plan declines and the
        backend still works through the per-packet path."""
        vec = build("codegen", program="P1", mode="mono")
        assert isinstance(plan_of(vec), str)
        pkts = [eth_ipv4(dst="10.0.0.5")]
        outs = vec.process(pkts[0].copy(), 1)
        ref = build("codegen", program="P1", mode="mono")
        assert normalize([(outs, vec.last_drop_reason, None)]) == normalize(
            [(ref.process(pkts[0].copy(), 1), ref.last_drop_reason, None)]
        )

    def test_scan_limit_forces_per_lane_lookup(self, monkeypatch):
        """Past VECTOR_SCAN_LIMIT entries, lookups go per-lane through
        the runtime's own index — same slots, same verdicts."""
        monkeypatch.setattr(vector_mod, "VECTOR_SCAN_LIMIT", 0)
        pkts = corpus(64)
        got = normalize(run_batch(build("codegen"), pkts))
        want = normalize(run_batch(build("codegen"), pkts, lane_loop=True))
        assert got == want

    def test_table_mutation_rebuilds_index(self):
        """Adding an entry bumps TableRuntime.version; the next batch
        sees it (stale compiled lookups would keep missing)."""
        new_entries = [
            ("ipv4_lpm_tbl", [(ip4("172.16.0.0"), 16)], "process", [12]),
            ("forward_tbl", [12], "forward", [mac(MAC_A), mac(MAC_B), 5]),
        ]
        vec = build("codegen", entries=True)
        pkts = [eth_ipv4(dst="172.16.0.9")] * 4  # not in ENTRY_SETS
        before = normalize(run_batch(vec, pkts))
        api = RuntimeAPI(vec)
        for table, matches, action, args in new_entries:
            api.add_entry(table, matches, action, args)
        after = normalize(run_batch(vec, pkts))
        assert before != after
        ref = build("codegen", entries=True)
        api_ref = RuntimeAPI(ref)
        for table, matches, action, args in new_entries:
            api_ref.add_entry(table, matches, action, args)
        assert after == normalize(run_batch(ref, pkts, lane_loop=True))


class TestNumpyOptional:
    @pytest.mark.parametrize("backend", ["codegen", "vector"])
    def test_without_numpy_batches_take_the_lane_loop(self, backend, metrics,
                                                      monkeypatch):
        pkts = corpus(64)
        want = normalize(run_batch(build("codegen"), pkts, lane_loop=True))
        monkeypatch.setattr(vector_mod, "_np", None)
        inst = build(backend)
        METRICS.reset()
        assert normalize(run_batch(inst, pkts)) == want
        counters = METRICS.snapshot()["counters"]
        assert counters["vector.lane_loop.no-numpy"] == 1
        assert "vector.plan_built" not in counters

    def test_other_backends_unaffected(self, monkeypatch):
        monkeypatch.setattr(vector_mod, "_np", None)
        for backend in ("interp", "codegen", "vector"):
            inst = make_pipeline(build_pipeline("P1"), exec_backend=backend)
            assert inst.process(eth_ipv4().copy(), 1) is not None

    def test_module_imports_without_numpy(self):
        # The guard is data, not control flow: NUMPY_AVAILABLE mirrors _np.
        assert NUMPY_AVAILABLE == (vector_mod._np is not None)

    def test_per_packet_codegen_never_imports_numpy(self):
        """The CLI and one codegen packet leave numpy unimported: only a
        batch wide enough for the columnwise tier imports it."""
        script = (
            "import sys, repro.cli\n"
            "from repro.lib.catalog import build_pipeline\n"
            "from repro.targets.backends import make_pipeline\n"
            "from tests.integration.helpers import eth_ipv4\n"
            "pipe = make_pipeline(build_pipeline('P4'), 'codegen')\n"
            "pipe.process(eth_ipv4(), 1)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, cwd=Path(__file__).resolve().parents[2],
            env={"PYTHONPATH": "src:."},
        ).stdout
        assert out.strip() == "[]"


@needs_numpy
class TestLaneLoopReasons:
    """Every batch that leaves the columnwise tier says why: one
    ``vector.lane_loop.<reason>`` counter per reason, summed in
    ``vector.soa_fallback_batches``, and lane-loop results."""

    def _run(self, inst, lanes=32):
        pkts = corpus(lanes)
        want = normalize(run_batch(build("codegen", guards=inst.guards,
                                         mode=inst.composed.mode), pkts,
                                   lane_loop=True))
        METRICS.reset()
        datas = [p.tobytes() for p in pkts]
        assert normalize(inst.process_soa(datas, [1] * lanes, pkts)) == want
        counters = METRICS.snapshot()["counters"]
        reasons = {key[len("vector.lane_loop."):]: value
                   for key, value in counters.items()
                   if key.startswith("vector.lane_loop.")}
        assert counters["vector.soa_fallback_batches"] == 1
        return reasons

    def test_narrow(self, metrics):
        with columnwise_floor(33):
            assert self._run(build("codegen")) == {"narrow": 1}

    def test_step_bound(self, metrics):
        inst = build("codegen", guards=ResourceGuards(interp_step_budget=10))
        assert self._run(inst) == {"step-bound": 1}

    def test_declined(self, metrics):
        inst = build("codegen", program="P4", mode="mono")
        assert self._run(inst) == {"declined": 1}

    def test_no_numpy(self, metrics, monkeypatch):
        inst = build("codegen")
        monkeypatch.setattr(vector_mod, "_np", None)
        assert self._run(inst) == {"no-numpy": 1}

    def test_error(self, metrics, monkeypatch):
        def boom(*_args):
            raise RuntimeError("speculation blew up")

        monkeypatch.setattr(vector_mod.ColumnwiseModule, "instantiate",
                            lambda module, tables: boom)
        assert self._run(build("codegen")) == {"error": 1}


@needs_numpy
class TestLaneFloor:
    def test_first_batch_at_the_floor_generates(self, metrics):
        """A batch below the floor generates nothing; the first batch at
        it generates the program's columnwise module once."""
        inst = build("codegen")

        def batch(lanes):
            pkts = corpus(lanes)
            with columnwise_floor(64):
                inst.process_soa([p.tobytes() for p in pkts], [1] * lanes, pkts)

        METRICS.reset()
        batch(63)
        counters = METRICS.snapshot()["counters"]
        assert "vector.plan_built" not in counters
        assert "columnwise_module" not in inst.composed.derived
        assert counters["vector.lane_loop.narrow"] == 1
        batch(64)
        batch(64)
        counters = METRICS.snapshot()["counters"]
        assert counters["vector.plan_built"] == 1
        assert counters["vector.soa_fallback_batches"] == 1


@needs_numpy
class TestShardedParity:
    def test_sharded_digest_matches_interp(self):
        from repro.targets.engine import EngineConfig

        digests = {}
        for backend in ("interp", "codegen"):
            summary = run_soak(
                SoakConfig(
                    programs=["P4"], packets=600, seed=21, fault_rate=0.1,
                    exec_backend=backend,
                ),
                engine=EngineConfig(workers=2),
            )
            assert summary["ok"]
            digests[backend] = summary["digest"]
        assert digests["codegen"] == digests["interp"]


class TestBatchLanes:
    def test_validate_rejects_bad_lane_count(self):
        for bad in (0, -4, "many", 2.5, False):
            config = SoakConfig(batch_lanes=bad)
            with pytest.raises(TargetError) as exc:
                config.validate()
            assert exc.value.code == "bad-batch-lanes"

    def test_default_passes_validation(self):
        config = SoakConfig()
        config.validate()
        assert config.batch_lanes == 256

    @needs_numpy
    def test_digest_invariant_under_lane_count(self, monkeypatch):
        """``batch_lanes`` takes effect inline (no workers): the stream
        really is cut into that many lanes per ``process_batch`` call,
        and the digest does not care."""
        from repro.targets.switch import Switch

        sizes = []
        real = Switch.process_batch

        def spy(self, items, soa=False):
            items = list(items)
            sizes.append(len(items))
            return real(self, items, soa=soa)

        monkeypatch.setattr(Switch, "process_batch", spy)
        digests, calls = {}, {}
        for lanes in (16, 256):
            sizes.clear()
            digests[lanes] = soak_program(
                SoakConfig(
                    programs=["P4"], packets=400, seed=11, fault_rate=0.1,
                    exec_backend="codegen", batch_lanes=lanes,
                ),
                "P4",
            )["digest"]
            calls[lanes] = list(sizes)
        assert calls[16] == [16] * 25
        assert calls[256] == [256, 144]
        assert digests[16] == digests[256]

    def test_summary_reports_lanes(self):
        summary = run_soak(
            SoakConfig(
                programs=["P1"], packets=50, seed=3, fault_rate=0.0,
                batch_lanes=64,
            )
        )
        assert summary["soak"]["batch_lanes"] == 64


@needs_numpy
class TestColumnwisePathTaken:
    @pytest.mark.parametrize("lanes", [256, 16])
    @pytest.mark.parametrize("program", PROGRAMS)
    def test_routable_soak_never_leaves_the_plan(self, program, lanes, metrics):
        """Every catalog program builds a columnwise plan, and a
        fault-free routable soak runs every batch on it: no fallback to
        the lane loop for any reason, no split lane."""
        config = SoakConfig(
            programs=[program], packets=2048, fault_rate=0.0,
            traffic="routable", exec_backend="codegen", batch_lanes=lanes,
        )
        block = soak_program(config, program)
        assert block["ledger_ok"] and not block["uncaught"]
        counters = METRICS.snapshot()["counters"]
        assert counters.get("vector.plan_built") == 1
        leaks = [key for key in counters if key.startswith((
            "vector.soa_fallback_batches", "vector.lane_loop.",
            "vector.split_lanes"))]
        assert not leaks, {key: counters[key] for key in leaks}


class TestBuildCache:
    def test_in_process_cache_hit(self, metrics, monkeypatch):
        from repro.targets import codegen as codegen_mod

        monkeypatch.setattr(codegen_mod, "_CODE_CACHE", {})
        composed = build_pipeline("P2")
        METRICS.reset()
        first = codegen_mod.CodegenPipeline(composed)
        snap = METRICS.snapshot()["counters"]
        assert snap.get("codegen.build_cache_misses") == 1
        assert "codegen.build_cache_hits" not in snap
        METRICS.reset()
        second = codegen_mod.CodegenPipeline(composed)
        snap = METRICS.snapshot()["counters"]
        assert snap.get("codegen.build_cache_hits") == 1
        assert first.source == second.source

    def test_vector_alias_reports_codegen_metrics(self, metrics):
        """``vector`` names the codegen executor, so its packets and
        table counters are codegen's on both paths."""
        vec = build("vector")
        METRICS.reset()
        vec.process(eth_ipv4(dst="10.1.1.1").copy(), 1)
        run_batch(vec, corpus(8))
        snap = METRICS.snapshot()["counters"]
        assert snap.get("codegen.packets") == 9
        assert not any(key.startswith("vector.packets") or
                       key.startswith("vector.table_") for key in snap)


# ----------------------------------------------------------------------
# Table mutation under traffic: the _VecIndex is extended in place
# ----------------------------------------------------------------------

CHURN_SRC = """
header x_h { bit<48> a; bit<48> b; bit<32> c; bit<16> d; bit<64> e; }
struct hdr_t { x_h x; }
program Churn : implements Unicast<> {
  parser P(extractor ex, pkt p, out hdr_t h) {
    state start { ex.extract(p, h.x); transition accept; }
  }
  control C(pkt p, inout hdr_t h, im_t im) {
    action drop_pkt() { im.drop(); }
    action stamp(bit<64> v) { h.x.e = v; }
    action fwd(bit<8> port) { im.set_out_port(port); }
    action fwd_stamp(bit<8> port, bit<64> v) {
      im.set_out_port(port);
      h.x.e = v;
    }
    table wide_tbl {
      key = { h.x.a : exact; h.x.b : exact; }
      actions = { stamp; drop_pkt; }
    }
    table lpm_tbl {
      key = { h.x.c : lpm; }
      actions = { fwd; fwd_stamp; drop_pkt; }
      default_action = fwd(1);
    }
    table narrow_tbl {
      key = { h.x.d : exact; }
      actions = { fwd; drop_pkt; }
    }
    table tern_tbl {
      key = { h.x.d : ternary; h.x.c : exact; }
      actions = { stamp; drop_pkt; }
    }
    apply {
      im.set_out_port(1);
      wide_tbl.apply();
      lpm_tbl.apply();
      narrow_tbl.apply();
      tern_tbl.apply();
    }
  }
  control D(emitter em, pkt p, in hdr_t h) {
    apply { em.emit(p, h.x); }
  }
}
Churn(P, C, D) main;
"""

# Small pools, so packets hit what was installed and installs collide
# (duplicate and shadowed keys).  The wide key tuple is 96 bits and the
# stamps reach past int64.
_A = [0, 1, (1 << 47) + 5, (1 << 47) + 5]
_B = [0, 1 << 47]
_C = [0x0A000001, 0x0A000101, 0x0A010001, 0xC0A80001]
_D = [0, 1, 2, 0x8001]
_STAMP = [0, 7, 1 << 63, (1 << 64) - 1]
_PORT = st.integers(1, 7)
_PRIORITY = st.sampled_from([0, 0, 0, 0, -1, 1, 2])  # equal, lower, higher

_ARGS = {
    "stamp": st.tuples(st.sampled_from(_STAMP)),
    "fwd": st.tuples(_PORT),
    "fwd_stamp": st.tuples(_PORT, st.sampled_from(_STAMP)),
    "drop_pkt": st.tuples(),
}
_TABLES = {
    # An ``any`` spec landing in the all-exact snapshot changes its kind.
    "wide_tbl": (
        st.tuples(st.sampled_from(_A + _A + [None]), st.sampled_from(_B)),
        ["stamp", "stamp", "drop_pkt"],
    ),
    # Every prefix length but 24 is new to a table that starts with /24s.
    "lpm_tbl": (
        st.tuples(st.tuples(
            st.sampled_from(_C), st.sampled_from([0, 8, 16, 24, 24, 32])
        )),
        ["fwd", "fwd_stamp", "drop_pkt"],
    ),
    "narrow_tbl": (
        st.tuples(st.sampled_from(_D + _D + [None])),
        ["fwd", "drop_pkt"],
    ),
    "tern_tbl": (
        st.tuples(
            st.one_of(st.none(), st.tuples(
                st.sampled_from(_D), st.sampled_from([0xFFFF, 0x8000, 3])
            )),
            st.sampled_from(_C + [None]),
        ),
        ["stamp", "drop_pkt"],
    ),
}


def _churn_op():
    """One step: mostly installs, a batch every few, now and then a new
    default, a clear, or a row forced in behind the API."""
    def build(kind_table):
        kind, table = kind_table
        matches, actions = _TABLES[table]
        matches = matches.map(list)
        action = st.sampled_from(actions).flatmap(
            lambda a: st.tuples(st.just(a), _ARGS[a].map(list))
        )
        if kind == "batch":
            return st.tuples(st.just(kind), st.integers(0, 2 ** 16))
        if kind == "add":
            return st.tuples(st.just(kind), st.just(table), matches, action, _PRIORITY)
        if kind == "default":
            return st.tuples(st.just(kind), st.just(table), action)
        if kind == "inject":
            # One argument too many: no install would accept the row.
            return st.tuples(st.just(kind), st.just(table), matches, st.just(actions[0]))
        return st.tuples(st.just(kind), st.just(table))

    kinds = ["add"] * 12 + ["batch"] * 5 + ["default", "clear", "inject"]
    return st.tuples(
        st.sampled_from(kinds), st.sampled_from(sorted(_TABLES))
    ).flatmap(build)


# Snapshots worth extending, taken before the random part starts: an
# all-/24 lpm table one entry short of the (patched) scan limit, and
# all-exact tables whose keys and arguments so far fit int64.
_CHURN_PREFIX = [
    ("add", "lpm_tbl", [(0x0A000100, 24)], ("fwd", [3]), 0),
    ("add", "lpm_tbl", [(0x0A010000, 24)], ("fwd", [4]), 0),
    ("add", "narrow_tbl", [1], ("fwd", [3]), 0),
    ("add", "wide_tbl", [0, 0], ("stamp", [7]), 0),
    ("batch", 0),
]


# One op list per snapshot and index event the churn test must see, so
# each is reached whatever the random draws are (ops run after
# ``_CHURN_PREFIX``, whose batch takes every table's first snapshot).
_CHURN_EXAMPLES = {
    "vector.index.extended": [
        ("add", "narrow_tbl", [2], ("fwd", [5]), 0), ("batch", 1),
    ],
    "vector.index.rebuilt.first": [("batch", 1)],
    "vector.index.rebuilt.reordered": [
        ("add", "narrow_tbl", [2], ("fwd", [5]), 1), ("batch", 1),
    ],
    "vector.index.rebuilt.default": [
        ("default", "narrow_tbl", ("drop_pkt", [])), ("batch", 1),
    ],
    "vector.index.rebuilt.cleared": [("clear", "lpm_tbl"), ("batch", 1)],
    "vector.index.rebuilt.scan-limit": [
        ("add", "lpm_tbl", [(0x0A000001, 16)], ("fwd", [5]), 0),
        ("add", "lpm_tbl", [(0x0A010001, 8)], ("fwd", [6]), 0),
        ("batch", 1),
    ],
    "vector.index.rebuilt.kind": [
        ("add", "wide_tbl", [None, 0], ("stamp", [7]), 0), ("batch", 1),
    ],
    "tables.index.appended": [
        ("add", "tern_tbl", [None, 0x0A000001], ("stamp", [0]), 0),
        ("batch", 1),
    ],
    "tables.index.rebuilt": [
        ("clear", "narrow_tbl"),
        ("add", "narrow_tbl", [1], ("fwd", [2]), 0),
        ("batch", 1),
    ],
}


def _churn_examples(test):
    """``test`` with every :data:`_CHURN_EXAMPLES` op list as an
    explicit example."""
    for ops in _CHURN_EXAMPLES.values():
        test = example(ops)(test)
    return test


def _apply_op(switch, op):
    kind, table = op[0], op[1]
    if kind == "add":
        _, _, matches, (action, args), priority = op
        switch.api.add_entry(table, matches, action, args, priority)
    elif kind == "default":
        action, args = op[2]
        switch.api.set_default(table, action, args)
    elif kind == "clear":
        switch.api.clear(table)
    elif kind == "inject":
        _, _, matches, action = op
        runtime = switch.api._table(table)
        before = len(runtime.runtime_entries)
        nparams = len(runtime.selectable_actions[
            switch.api._resolve_action(runtime, action)].params)
        switch.api.add_entry(table, matches, action, [0] * nparams, -5)
        assert len(runtime.runtime_entries) == before + 1
        runtime.runtime_entries[-1].action_args.append(0)
        runtime._index = None
        runtime.version += 1


def _churn_batch(seed, lanes=64):
    rng = random.Random(seed)
    items = []
    for _ in range(lanes):
        fields = (
            rng.choice(_A).to_bytes(6, "big") + rng.choice(_B).to_bytes(6, "big")
            + (rng.choice(_C) + rng.choice([0, 0, 1, 256])).to_bytes(4, "big")
            + rng.choice(_D).to_bytes(2, "big") + bytes(8)
        )
        # Truncated and padded lanes ride along.
        data = fields[: rng.choice([26, 26, 26, 26, 20])] + b"pay" * rng.randrange(3)
        items.append((Packet(data), rng.randrange(4)))
    return items


def _churn_result(switch, backend, seed):
    """What one batch shows from outside: verdicts, drop reasons, kill
    texts, and the hit/miss counters it moved."""
    METRICS.reset()
    verdicts = switch.process_batch(_churn_batch(seed), soa=True)
    counters = METRICS.snapshot()["counters"]
    # A snapshot that blew up would be hidden by the replay through the
    # lane loop: the batch must have run columnwise.
    if backend == "codegen":
        assert not counters.get("vector.soa_fallback_batches")
    return (
        [
            (v.kind, dict(v.reasons), v.error,
             [(o.packet.tobytes(), o.port) for o in v.outputs])
            for v in verdicts
        ],
        counters.get(f"{backend}.table_hits", 0),
        counters.get(f"{backend}.table_misses", 0),
    )


@needs_numpy
class TestIndexMaintenance:
    @pytest.fixture(scope="class")
    def composed(self):
        from repro.core.api import build_dataplane, compile_module

        return build_dataplane(
            compile_module(CHURN_SRC, "churn.up4")
        ).instance.composed

    @staticmethod
    def _switch(composed, backend):
        return Switch(make_pipeline(composed, exec_backend=backend))

    def test_mutation_under_traffic_equals_fresh_build(self, composed, metrics):
        """A long-lived vector pipeline whose table snapshots are
        extended, re-kinded and rebuilt under a random interleaving of
        installs, defaults, clears and batches answers every batch like
        a vector pipeline built afterwards from the same mutations, and
        like the interpreter."""
        seen = set()

        @settings(max_examples=60, deadline=None,
                  suppress_health_check=list(HealthCheck))
        @given(st.lists(_churn_op(), min_size=8, max_size=48))
        @_churn_examples
        def run(ops):
            live = self._switch(composed, "codegen")
            reference = self._switch(composed, "interp")
            assert not isinstance(plan_of(live.pipeline), str)
            log = []
            for op in _CHURN_PREFIX + ops + [("batch", 1)]:
                if op[0] != "batch":
                    _apply_op(live, op)
                    _apply_op(reference, op)
                    log.append(op)
                    continue
                fresh = self._switch(composed, "codegen")
                for done in log:
                    _apply_op(fresh, done)
                got = _churn_result(live, "codegen", op[1])
                assert got == _churn_result(fresh, "codegen", op[1])
                assert got == _churn_result(reference, "interp", op[1])
            for runtime in live.pipeline.tables.values():
                seen.update(runtime.index_events)

        with patch.object(vector_mod, "VECTOR_SCAN_LIMIT", 3):
            run()
        # Every way a snapshot catches up was taken at least once.
        assert {
            "vector.index.extended",
            "vector.index.rebuilt.first",
            "vector.index.rebuilt.reordered",
            "vector.index.rebuilt.default",
            "vector.index.rebuilt.cleared",
            "vector.index.rebuilt.scan-limit",
            "vector.index.rebuilt.kind",
            "tables.index.appended",
            "tables.index.rebuilt",
        } <= seen

    def test_tail_installs_never_rebuild(self, monkeypatch):
        """512 installs, each followed by a lookup and a batch: one full
        scalar build and one full vector snapshot per table, the rest
        filed in place.  (Counts, not clocks: at the parent every install
        cost both builds.)"""
        scalar, snapshots = [], []
        build_index = TableRuntime._build_index
        vec_init = vector_mod._VecIndex.__init__

        def spy_build(runtime):
            scalar.append(runtime.name)
            return build_index(runtime)

        def spy_init(vi, runtime, arms):
            snapshots.append(runtime.name)
            vec_init(vi, runtime, arms)

        monkeypatch.setattr(TableRuntime, "_build_index", spy_build)
        monkeypatch.setattr(vector_mod._VecIndex, "__init__", spy_init)
        switch = Switch(build("codegen", entries=False))
        api = switch.api
        lpm = api._table("ipv4_lpm_tbl")
        exact = api._table("forward_tbl")

        def install(i):
            api.add_entry("ipv4_lpm_tbl", [((11 << 24) + (i << 8), 24)], "process", [100 + i])
            api.add_entry("forward_tbl", [100 + i], "forward",
                          [mac(MAC_A), mac(MAC_B), 1 + i % 7])

        # Past the scan limit first, so the lpm snapshot's strategy does
        # not change under the counted installs.
        base = vector_mod.VECTOR_SCAN_LIMIT + 1
        for i in range(base):
            install(i)
        for i in range(base, base + 512):
            dst = "11.%d.%d.9" % (i >> 8, i & 255)
            pending = switch.process_batch([(eth_ipv4(dst=dst), 1)] * 4, soa=True)
            assert [v.kind for v in pending] == ["drop"] * 4
            install(i)
            assert lpm.lookup([(11 << 24) + (i << 8) + 9])[1:] == ([100 + i], True)
            assert exact.lookup([100 + i])[2]
            landed = switch.process_batch([(eth_ipv4(dst=dst), 1)] * 4, soa=True)
            assert [[o.port for o in v.outputs] for v in landed] == [[1 + i % 7]] * 4
        for name in (lpm.name, exact.name):
            assert scalar.count(name) == 1, (name, scalar.count(name))
            assert snapshots.count(name) == 1, (name, snapshots.count(name))
            events = switch.pipeline.tables[name].index_events
            assert events["tables.index.rebuilt"] == 1
            assert events["vector.index.extended"] == 512
