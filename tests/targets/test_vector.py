"""The vectorized numpy backend: divergence splitting, fallbacks, and
digest parity (DESIGN.md §16).

The differential suite already diffs ``vector`` against the interpreter
per packet (it parametrizes over the seam tuple); this file covers what
is *specific* to columnwise execution:

* divergence splitting — fault-injected lanes, runtime errors, and
  byte-stack bounds kills split out of the vector path in per-site RNG
  lane order, so batched results match the per-lane codegen batch body
  triple for triple;
* the fallback ladder — step budgets that could fire, plans that decline
  (mono mode has no SoA layout), and per-lane table lookups past the
  scan limit all quietly take the slower-but-exact path;
* the numpy-optional policy — without numpy the backend refuses with
  ``error[vector-unavailable]`` and every other backend still works;
* ``--batch-lanes`` — validated up front, digest-invariant;
* the codegen build cache the vector backend inherits.
"""

import hashlib

import pytest

from repro.errors import TargetError
from repro.lib.catalog import build_monolithic, build_pipeline
from repro.obs.metrics import METRICS
from repro.targets import vector as vector_mod
from repro.targets.backends import make_pipeline
from repro.targets.faults import FaultPlan, ResourceGuards
from repro.targets.runtime_api import RuntimeAPI
from repro.targets.soak import SoakConfig, run_soak, soak_program
from repro.targets.vector import NUMPY_AVAILABLE, VectorPipeline
from tests.integration.helpers import (
    ENTRY_SETS,
    MAC_A,
    MAC_B,
    eth_ipv4,
    eth_ipv6,
    ip4,
    mac,
)

needs_numpy = pytest.mark.skipif(not NUMPY_AVAILABLE, reason="numpy not installed")


@pytest.fixture
def metrics():
    METRICS.enable()
    METRICS.reset()
    yield METRICS
    METRICS.reset()
    METRICS.disable()


def build(backend="vector", program="P4", fault_rate=0.0, guards=None,
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


def run_batch(inst, pkts):
    datas = [p.tobytes() for p in pkts]
    return inst.process_soa(datas, [1] * len(datas), pkts)


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
    def test_faultless_batch_matches_codegen(self):
        pkts = corpus()
        got = normalize(run_batch(build("vector"), pkts))
        want = normalize(run_batch(build("codegen"), pkts))
        assert got == want

    def test_fault_lanes_split_in_rng_order(self):
        """Injected trips draw per-site RNG streams in lane order, so
        exactly the same lanes die with the same messages."""
        pkts = corpus()
        vec = build("vector", fault_rate=0.15)
        ref = build("codegen", fault_rate=0.15)
        got = normalize(run_batch(vec, pkts))
        want = normalize(run_batch(ref, pkts))
        assert got == want
        assert any(t[0] == "exc" for t in got)  # faults actually fired
        # Lanes killed mid-body stop counting at the same table apply.
        assert (vec._hits_out, vec._misses_out) == (
            ref._hits_out, ref._misses_out
        )

    def test_split_lanes_counted(self, metrics):
        pkts = corpus()
        vec = build("vector", fault_rate=0.15)
        METRICS.reset()
        triples = run_batch(vec, pkts)
        killed = sum(1 for _o, _r, exc in triples if exc is not None)
        assert killed > 0
        snap = METRICS.snapshot()["counters"]
        assert snap.get("vector.split_lanes", 0) == killed
        assert snap.get("vector.packets") == len(pkts)

    def test_trace_and_metrics_match_per_packet(self, metrics):
        """Batch bookkeeping counts == per-packet execution (batch mode
        has no per-packet trace; the counters are its record)."""
        pkts = corpus(64)
        vec = build("vector", fault_rate=0.1)
        pp = build("vector", fault_rate=0.1)
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
        for key in ("vector.table_hits", "vector.table_misses",
                    "interp.lookup.indexed", "interp.lookup.scan"):
            assert batch_snap.get(key, 0) == pkt_snap.get(key, 0), key


@needs_numpy
class TestFallbackLadder:
    def test_step_budget_falls_back_to_codegen_batch(self, metrics):
        """A step budget the plan's static bound can reach must keep
        per-lane accounting — the batch reruns through the codegen body
        and lanes die with the interpreter's step-budget fault."""
        guards = ResourceGuards(interp_step_budget=10)
        vec = build("vector", guards=guards)
        assert vec.vector_plan is not None
        assert vec.vector_plan.step_bound > vec.step_limit
        ref = build("codegen", guards=guards)
        pkts = corpus(32)
        METRICS.reset()
        got = normalize(run_batch(vec, pkts))
        snap = METRICS.snapshot()["counters"]
        assert snap.get("vector.soa_fallback_batches", 0) == 1
        want = normalize(run_batch(ref, pkts))
        assert got == want
        assert all(t[0] == "exc" and t[3] == "step-budget" for t in got)

    def test_mono_mode_declines_plan(self):
        """No byte-stack arena in mono mode — the plan declines and the
        backend still works through the inherited per-packet path."""
        vec = build("vector", program="P1", mode="mono")
        assert vec.vector_plan is None
        assert vec.vector_decline_reason
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
        got = normalize(run_batch(build("vector"), pkts))
        want = normalize(run_batch(build("codegen"), pkts))
        assert got == want

    def test_table_mutation_rebuilds_index(self):
        """Adding an entry bumps TableRuntime.version; the next batch
        sees it (stale compiled lookups would keep missing)."""
        new_entries = [
            ("ipv4_lpm_tbl", [(ip4("172.16.0.0"), 16)], "process", [12]),
            ("forward_tbl", [12], "forward", [mac(MAC_A), mac(MAC_B), 5]),
        ]
        vec = build("vector", entries=True)
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
        assert after == normalize(run_batch(ref, pkts))


class TestNumpyOptional:
    def test_without_numpy_reason_coded(self, monkeypatch):
        monkeypatch.setattr(vector_mod, "_np", None)
        with pytest.raises(TargetError) as exc:
            VectorPipeline(build_pipeline("P1"))
        assert exc.value.code == "vector-unavailable"
        assert "numpy" in str(exc.value)

    def test_other_backends_unaffected(self, monkeypatch):
        monkeypatch.setattr(vector_mod, "_np", None)
        for backend in ("interp", "compiled", "codegen"):
            inst = make_pipeline(build_pipeline("P1"), exec_backend=backend)
            assert inst.process(eth_ipv4().copy(), 1) is not None

    def test_module_imports_without_numpy(self):
        # The guard is data, not control flow: NUMPY_AVAILABLE mirrors _np.
        assert NUMPY_AVAILABLE == (vector_mod._np is not None)


@needs_numpy
class TestShardedParity:
    def test_sharded_digest_matches_interp(self):
        from repro.targets.engine import EngineConfig

        digests = {}
        for backend in ("interp", "vector"):
            summary = run_soak(
                SoakConfig(
                    programs=["P4"], packets=600, seed=21, fault_rate=0.1,
                    exec_backend=backend,
                ),
                engine=EngineConfig(workers=2),
            )
            assert summary["ok"]
            digests[backend] = summary["digest"]
        assert digests["vector"] == digests["interp"]


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
                    exec_backend="vector", batch_lanes=lanes,
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


class TestBuildCache:
    def test_in_process_cache_hit(self, metrics):
        from repro.targets import codegen as codegen_mod

        composed = build_pipeline("P2")
        METRICS.reset()
        first = codegen_mod.CodegenPipeline(composed)
        snap = METRICS.snapshot()["counters"]
        # Either a fresh compile (miss) or a disk hit from a prior run.
        assert snap.get("codegen.build_cache_misses", 0) + snap.get(
            "codegen.build_cache_hits", 0
        ) == 1
        METRICS.reset()
        second = codegen_mod.CodegenPipeline(composed)
        snap = METRICS.snapshot()["counters"]
        assert snap.get("codegen.build_cache_hits") == 1
        assert first.source == second.source

    def test_cache_disabled_by_env(self, monkeypatch):
        from repro.targets import codegen as codegen_mod

        monkeypatch.setenv("REPRO_CODEGEN_CACHE", "0")
        assert codegen_mod._disk_cache_dir() is None

    @needs_numpy
    def test_vector_reports_vector_metrics(self, metrics):
        """The inherited metric family is backend-prefixed: the same
        generated code reports vector.* under the vector backend."""
        vec = build("vector")
        METRICS.reset()
        vec.process(eth_ipv4(dst="10.1.1.1").copy(), 1)
        snap = METRICS.snapshot()["counters"]
        assert snap.get("vector.packets") == 1
        assert "codegen.packets" not in snap
