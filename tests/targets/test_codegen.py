"""The source-codegen backend and the fixed ``--exec`` seam.

The deep observational-parity checks live in ``test_compiled_equiv.py``
(parametrized over ``EXEC_BACKENDS``, so codegen inherits them).  This
file pins what is specific to this backend and to the seam bugfix:

* the CLI ``--exec`` choices are *exactly* ``EXEC_BACKENDS`` (the drift
  that made a third backend silently unreachable cannot recur);
* every ``exec_backend`` validation site rejects unknown names with the
  live backend list, not a stale literal;
* the batched struct-of-arrays path is digest- and ledger-identical to
  per-packet execution, and declines cleanly where it cannot hold.
"""

import hashlib
import random

import pytest

from repro.cli import make_parser
from repro.errors import TargetError
from repro.lib.catalog import build_monolithic, build_pipeline
from repro.net.packet import Packet
from repro.targets.backends import (
    DEFAULT_EXEC_BACKEND,
    EXEC_BACKENDS,
    make_pipeline,
)
from repro.targets.codegen import CodegenPipeline
from repro.targets.faults import FaultPlan, ResourceGuards
from repro.targets.soak import (
    NUM_PORTS,
    SoakConfig,
    build_switch,
    compose_program,
    iter_stream,
    update_digest,
)
from repro.targets.switch import Switch, SwitchConfig


def _exec_choices(parser, command):
    sub = next(
        a for a in parser._actions
        if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    cmd = sub.choices[command]
    action = next(a for a in cmd._actions if "--exec" in a.option_strings)
    return tuple(action.choices), action.default


class TestCliSeam:
    """Regression: the CLI must source its backend list from the seam."""

    @pytest.mark.parametrize("command", ("soak", "profile"))
    def test_exec_choices_are_the_seam_tuple(self, command):
        choices, default = _exec_choices(make_parser(), command)
        assert choices == EXEC_BACKENDS
        assert default == DEFAULT_EXEC_BACKEND

    def test_codegen_reachable_from_cli(self, capsys):
        from repro.cli import main

        rc = main([
            "soak", "--programs", "P1", "--packets", "50",
            "--fault-rate", "0", "--exec", "codegen", "--json",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert '"exec": "codegen"' in out


class TestValidationSites:
    """Every exec_backend gate renders the live list on rejection."""

    def test_soak_config_validate(self):
        config = SoakConfig(exec_backend="jit")
        with pytest.raises(TargetError) as exc:
            config.validate()
        assert exc.value.code == "unknown-backend"
        for name in EXEC_BACKENDS:
            assert name in str(exc.value)

    def test_run_soak_rejects_up_front(self):
        from repro.targets.soak import run_soak

        with pytest.raises(TargetError) as exc:
            run_soak(SoakConfig(packets=10, exec_backend="jit"))
        assert exc.value.code == "unknown-backend"

    def test_pool_submit_rejects_in_parent(self):
        from repro.targets.engine import EngineConfig
        from repro.targets.pool import WorkerPool

        with WorkerPool(EngineConfig(workers=1)) as pool:
            with pytest.raises(TargetError) as exc:
                pool.submit(SoakConfig(packets=10, exec_backend="jit"), "P1")
            assert exc.value.code == "unknown-backend"

    def test_profile_shards_reject_in_parent(self):
        from repro.targets.engine import EngineConfig, run_profile_shards

        with pytest.raises(TargetError) as exc:
            run_profile_shards(
                build_pipeline("P1"), [b"\x00" * 16], 4,
                EngineConfig(workers=1), exec_backend="jit",
            )
        assert exc.value.code == "unknown-backend"
        for name in EXEC_BACKENDS:
            assert name in str(exc.value)


class TestGeneratedSource:
    def test_micro_generates_batch_fast_path(self):
        pipe = CodegenPipeline(build_pipeline("P4"))
        assert pipe.batch_supported
        assert "def _cg_run(" in pipe.source
        assert "def _cg_run_batch(" in pipe.source
        compile(pipe.source, "<check>", "exec")

    def test_mono_has_no_batch_path(self):
        """The SoA layout is a byte-stack (micro) specialization; the
        monolithic baseline runs per-packet and the switch falls back."""
        pipe = CodegenPipeline(build_monolithic("P4"))
        assert not pipe.batch_supported
        assert "def _cg_run_batch(" not in pipe.source

    def test_process_soa_unsupported_raises(self):
        pipe = CodegenPipeline(build_monolithic("P1"))
        with pytest.raises(TargetError):
            pipe.process_soa([b""], [0], [Packet(b"")])


def _soak_switch(backend, fault_rate=0.1):
    config = SoakConfig(
        programs=["P4"], packets=0, seed=99, fault_rate=fault_rate,
        exec_backend=backend,
    )
    return config, build_switch(config, "P4", compose_program(config, "P4"))


class TestBatchParity:
    """soa=True must be invisible: same verdicts, digest, and ledger."""

    @pytest.mark.parametrize("fault_rate", (0.0, 0.2))
    def test_batch_digest_and_ledger_match_per_packet(self, fault_rate):
        config = SoakConfig(
            programs=["P4"], packets=1500, seed=4, fault_rate=fault_rate,
            exec_backend="codegen",
        )
        digests = {}
        stats = {}
        for soa in (False, True):
            switch = build_switch(config, "P4", compose_program(config, "P4"))
            assert switch.pipeline.batch_supported
            stream = list(iter_stream(config, "P4", NUM_PORTS))
            digest = hashlib.sha256()
            for lo in range(0, len(stream), 256):
                chunk = stream[lo:lo + 256]
                verdicts = switch.process_batch(
                    [(pkt, port) for _, pkt, port in chunk], soa=soa
                )
                for (index, _, _), verdict in zip(chunk, verdicts):
                    assert verdict.balanced()
                    update_digest(digest, index, verdict)
            digests[soa] = digest.hexdigest()
            stats[soa] = dict(switch.stats), dict(switch.drops_by_reason)
        assert digests[False] == digests[True]
        assert stats[False] == stats[True]

    def test_soa_declines_for_strict_and_recirc_port(self):
        composed = build_pipeline("P4")
        strict = Switch(make_pipeline(composed, "codegen"), strict=True)
        spy = Switch(
            make_pipeline(composed, "codegen"),
            SwitchConfig(num_ports=16, recirculate_port=15),
        )
        rng = random.Random(0)
        items = [
            (Packet(bytes(rng.randrange(256) for _ in range(34))), 1)
            for _ in range(8)
        ]
        # Both configurations must take the per-packet path (the SoA
        # fast path neither raises under strict nor loses recirculated
        # packets) and still produce balanced verdicts.
        for switch in (strict, spy):
            for verdict in switch.process_batch(items, soa=True):
                assert verdict.balanced()

    def test_interp_and_compiled_fall_back(self):
        """Backends without batch support keep working under soa=True."""
        composed = build_pipeline("P1")
        for backend in ("interp", "compiled"):
            switch = Switch(make_pipeline(composed, backend))
            verdicts = switch.process_batch(
                [(Packet(b"\x00" * 20), 0)], soa=True
            )
            assert len(verdicts) == 1

    def test_register_state_parity_across_batches(self):
        """Persistent registers evolve identically lane-by-lane."""
        from repro.core.api import build_dataplane, compile_module

        src = """
header eth_h { bit<48> dstMac; bit<48> srcMac; bit<16> etherType; }
struct hdr_t { eth_h eth; }
program BatchCounter : implements Unicast<> {
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
      im.set_out_port(2);
    }
  }
  control D(emitter em, pkt p, in hdr_t h) {
    apply { em.emit(p, h.eth); }
  }
}
BatchCounter(P, C, D) main;
"""
        composed = build_dataplane(
            compile_module(src, "batch_counter.up4")
        ).instance.composed
        per_pkt = CodegenPipeline(composed)
        rng = random.Random(8)
        pkts = [
            Packet(bytes(rng.randrange(256) for _ in range(54)))
            for _ in range(40)
        ]
        ports = [rng.randrange(4) for _ in range(40)]
        for pkt, port in zip(pkts, ports):
            per_pkt.process(pkt, port)
        if per_pkt.batch_supported:
            batched = CodegenPipeline(composed)
            lanes = batched.process_soa(
                [p.tobytes() for p in pkts], ports, pkts
            )
            assert all(exc is None for _, _, exc in lanes)
            assert {
                name: dict(reg.cells)
                for name, reg in per_pkt.persistent.items()
            } == {
                name: dict(reg.cells)
                for name, reg in batched.persistent.items()
            }


class TestEngineDigestWithCodegen:
    def test_sharded_dispatch_digest_matches_interp(self):
        """The engine's flush path (soa=True) keeps the merged digest a
        pure function of (seed, workers, shard_policy) — backend-free."""
        from repro.targets.engine import EngineConfig
        from repro.targets.soak import run_soak

        digests = {}
        for backend in ("interp", "codegen"):
            summary = run_soak(
                SoakConfig(
                    programs=["P4"], packets=800, seed=13, fault_rate=0.1,
                    exec_backend=backend,
                ),
                engine=EngineConfig(workers=2),
            )
            assert summary["ok"]
            digests[backend] = summary["digest"]
        assert digests["interp"] == digests["codegen"]
