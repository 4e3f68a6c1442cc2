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
import re

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
from repro.targets.switch import Switch


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


def _top_level_defs(source):
    return re.findall(r"^def (\w+)\(", source, re.M)


class TestGeneratedSource:
    """One generated function per program runs a list of lanes: per
    packet it gets one, in a batch many."""

    def test_micro_generates_batch_fast_path(self):
        pipe = CodegenPipeline(build_pipeline("P4"))
        assert pipe.batch_supported
        assert _top_level_defs(pipe.source) == ["_cg_run"]
        compile(pipe.source, "<check>", "exec")

    def test_mono_generates_the_same_one_function(self):
        """The monolithic baseline takes the batch path too."""
        pipe = CodegenPipeline(build_monolithic("P4"))
        assert pipe.batch_supported
        assert _top_level_defs(pipe.source) == ["_cg_run"]

    def test_process_soa_unsupported_raises(self):
        """Only a program that can recirculate has no batch path."""
        pipe = CodegenPipeline(_lane_composed("extern-arg"))
        assert "recirculate" in pipe.source
        assert not pipe.batch_supported
        with pytest.raises(TargetError, match="not supported"):
            pipe.process_soa([b""], [0], [Packet(b"")])

    @pytest.mark.parametrize("backend", ("interp", "codegen", "vector"))
    @pytest.mark.parametrize("mode", ("micro", "mono"))
    def test_strict_process_raises_what_the_lane_raised(self, mode, backend):
        """Per packet, the lane's exception is re-raised as it was: the
        same type, text, reason and site under a strict switch."""
        from repro.targets.faults import FaultError
        from repro.targets.vector import NUMPY_AVAILABLE
        from tests.integration.helpers import eth_ipv4

        if backend == "vector" and not NUMPY_AVAILABLE:
            pytest.skip("vector backend needs numpy")
        build = build_pipeline if mode == "micro" else build_monolithic
        table = "main_parser_tbl" if mode == "micro" else "main_ipv4_lpm_tbl"
        cases = [
            (
                {"guards": ResourceGuards(interp_step_budget=5)},
                ("step-budget", None,
                 "interpreter exceeded 5 statements for one packet"),
            ),
            (
                {"faults": FaultPlan(seed=0, sites={"table": 1.0})},
                ("extern-fault", f"table:{table}",
                 f"injected lookup failure in table {table!r} "
                 f"(at table:{table})"),
            ),
        ]
        for kwargs, want in cases:
            switch = Switch(
                make_pipeline(build("P4"), backend), strict=True, **kwargs
            )
            with pytest.raises(FaultError) as caught:
                switch.process(eth_ipv4(), 1)
            assert type(caught.value) is FaultError
            assert (caught.value.reason, caught.value.site, str(caught.value)) == want


def _soak_switch(backend, fault_rate=0.1):
    config = SoakConfig(
        programs=["P4"], packets=0, seed=99, fault_rate=fault_rate,
        exec_backend=backend,
    )
    return config, build_switch(config, "P4", compose_program(config, "P4"))


class TestBatchParity:
    """soa=True must be invisible: same verdicts, digest, and ledger."""

    @pytest.mark.parametrize("fault_rate", (0.0, 0.2))
    @pytest.mark.parametrize("backend", ("codegen", "vector"))
    @pytest.mark.parametrize("mode", ("micro", "mono"))
    def test_batch_digest_and_ledger_match_per_packet(
        self, mode, backend, fault_rate
    ):
        from repro.targets.vector import NUMPY_AVAILABLE

        if backend == "vector" and not NUMPY_AVAILABLE:
            pytest.skip("vector backend needs numpy")
        config = SoakConfig(
            programs=["P4"], packets=1500, seed=4, fault_rate=fault_rate,
            exec_backend=backend, mode=mode,
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

    def test_soa_declines_for_strict(self):
        composed = build_pipeline("P4")
        strict = Switch(make_pipeline(composed, "codegen"), strict=True)
        rng = random.Random(0)
        items = [
            (Packet(bytes(rng.randrange(256) for _ in range(34))), 1)
            for _ in range(8)
        ]
        # Strict mode must take the per-packet path (the SoA fast path
        # does not re-raise contained faults) and still produce
        # balanced verdicts.
        for verdict in strict.process_batch(items, soa=True):
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


# ----------------------------------------------------------------------
# Lane representation: which struct/header variables become per-field
# locals (repro.targets.lanes), and that it never shows.
# ----------------------------------------------------------------------

_LANE_TYPES = """
header eth_h { bit<48> dstMac; bit<48> srcMac; bit<16> etherType; }
struct hdr_t { eth_h eth; eth_h inner; }
struct tmp_t { bit<16> x; bool seen; }
"""

_LANE_PROGRAM = _LANE_TYPES + """
%(decls)s
program T : implements Unicast<> {
  parser P(extractor ex, pkt p, out hdr_t h) {
    state start {
      ex.extract(p, h.eth);
      ex.extract(p, h.inner);
      transition accept;
    }
  }
  control C(pkt p, inout hdr_t h, im_t im) {
    %(locals)s
    apply {
      %(body)s
    }
  }
  control D(emitter em, pkt p, in hdr_t h) {
    apply { em.emit(p, h.eth); em.emit(p, h.inner); }
  }
}
T(P, C, D) main;
"""

_LANE_CALLEE = """
struct tag_t { bit<16> tag; bool mark; }
struct none_t { }
program Inner : implements Unicast<> {
  parser P(extractor ex, pkt p, out none_t h) {
    state start { transition accept; }
  }
  control C(pkt p, inout none_t h, im_t im, inout tag_t m) {
    apply { m.tag = m.tag + 16w1; m.mark = true; }
  }
  control D(emitter em, pkt p, in none_t h) { apply { } }
}
"""

#: name -> (decls, control locals, apply body, callee source or None,
#: names that must be flattened, names that must keep the object form).
_LANE_CASES = {
    # (i) a header copied whole
    "whole-copy": (
        "", "",
        "h.eth = h.inner; h.eth.etherType = 16w7; im.set_out_port(2);",
        None, (), ("main_hdr",),
    ),
    # (ii) a struct handed to an extern ...
    "extern-arg": (
        "", "",
        """if (h.eth.etherType == 16w0x0800) { recirculate(h); }
      im.set_out_port(2);""",
        None, (), ("main_hdr",),
    ),
    # ... and to a callee's apply, which the composer binds by name:
    # the callee's parameter *is* the caller's variable, nothing copied.
    "callee-arg": (
        "struct tag_t { bit<16> tag; bool mark; }\n"
        "Inner(pkt p, im_t im, inout tag_t m);",
        "Inner() inner_i;",
        """tag_t m;
      m.tag = h.eth.etherType;
      inner_i.apply(p, im, m);
      h.eth.etherType = m.tag;
      if (m.mark) { im.set_out_port(2); } else { im.drop(); }""",
        _LANE_CALLEE, ("main_hdr", "main_m", "main_inner_i_hdr"), (),
    ),
    # (iii) a field read after setInvalid keeps its last value
    "read-after-invalid": (
        "", "",
        """h.inner.setInvalid();
      if (h.inner.etherType == 16w0x0800) { im.set_out_port(3); }
      else { im.set_out_port(2); }
      h.eth.srcMac = h.inner.dstMac;
      if (!h.inner.isValid()) { h.eth.etherType = 16w0x9999; }""",
        None, ("main_hdr",), (),
    ),
    # (iv) one name declared in sibling blocks: two variables, one name
    "sibling-redeclaration": (
        "", "",
        """if (h.eth.etherType == 16w0x0800) {
        tmp_t t;
        t.x = h.eth.dstMac[15:0];
        t.seen = true;
        h.inner.etherType = t.x;
      } else {
        tmp_t t;
        if (t.seen) { im.drop(); }
        t.x = t.x + 16w7;
        h.eth.etherType = t.x;
      }
      im.set_out_port(2);""",
        None, ("main_hdr", "main_t"), (),
    ),
    # ... and when one of the two escapes, the *name* keeps objects
    "sibling-one-escapes": (
        "", "",
        """if (h.eth.etherType == 16w0x0800) {
        tmp_t t;
        t.x = 16w5;
        h.inner.etherType = t.x;
      } else {
        tmp_t t;
        tmp_t u;
        u.x = 16w9;
        t = u;
        h.eth.etherType = t.x;
      }
      im.set_out_port(2);""",
        None, ("main_hdr",), ("main_t", "main_u"),
    ),
    # (v) nothing escapes
    "plain": (
        "", "",
        """h.eth.srcMac = h.inner.dstMac;
      h.inner.etherType = h.eth.etherType + 16w1;
      h.eth.dstMac[7:0] = 8w0xAB;
      im.set_out_port(2);""",
        None, ("main_hdr",), (),
    ),
}


def _lane_composed(case):
    from repro.core.api import compile_module, compose_modules

    decls, local_decls, body, callee, _flat, _objects = _LANE_CASES[case]
    main = compile_module(
        _LANE_PROGRAM % {"decls": decls, "locals": local_decls, "body": body},
        f"{case}.up4",
    )
    libraries = [compile_module(callee, "inner.up4")] if callee else None
    return compose_modules(main, libraries)


def _lane_packets():
    rng = random.Random(21)
    packets = []
    for i in range(60):
        size = rng.choice((0, 13, 14, 27, 28, 28, 40, 64))
        data = bytearray(rng.randrange(256) for _ in range(size))
        if size >= 14 and i % 2:
            data[12:14] = b"\x08\x00"
        if size >= 28 and i % 3 == 0:
            data[26:28] = b"\x08\x00"
        packets.append((bytes(data), rng.randrange(NUM_PORTS)))
    return packets


class _RecordingPlan(FaultPlan):
    """A FaultPlan that also keeps the order its sites were drawn in."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.order = []

    def trip(self, category, name=None):
        tripped = super().trip(category, name)
        self.order.append((category, name, tripped))
        return tripped


def _lane_outcome(outputs, reason, exc):
    return (
        None if outputs is None else [
            (o.packet.tobytes(), o.port, o.mcast_grp, o.recirculate)
            for o in outputs
        ],
        reason,
        None if exc is None else f"{type(exc).__name__}: {exc}",
    )


def _lane_run(composed, backend, soa, fault_rate, packets):
    """Outcomes, pkttrace events (per-packet runs), the fault plan and
    register cells of one executor over ``packets``."""
    from repro.obs.pkttrace import PacketTrace

    pipe = make_pipeline(composed, backend)
    plan = _RecordingPlan(
        seed=3, sites={"extern": fault_rate, "table": fault_rate}
    )
    pipe.configure_faults(faults=plan)
    outcomes, events = [], []
    if soa:
        if not pipe.batch_supported:
            return None
        pkts = [Packet(data) for data, _ in packets]
        outcomes = [
            _lane_outcome(*lane)
            for lane in pipe.process_soa(
                [data for data, _ in packets],
                [port for _, port in packets], pkts,
            )
        ]
    else:
        for data, port in packets:
            trace = PacketTrace()
            try:
                outputs = pipe.process(Packet(data), port, trace)
                outcomes.append(
                    _lane_outcome(
                        outputs, None if outputs else pipe.last_drop_reason,
                        None,
                    )
                )
            except Exception as exc:  # noqa: BLE001 — compared across backends
                outcomes.append(_lane_outcome(None, None, exc))
            events.append(trace.events)
    registers = {
        name: dict(reg.cells) for name, reg in pipe.persistent.items()
    }
    return outcomes, events, plan, registers


class TestLaneFlattening:
    @pytest.mark.parametrize("case", sorted(_LANE_CASES))
    def test_decision_is_reported_and_shared_with_vector(self, case):
        from repro.targets.vector import NUMPY_AVAILABLE

        _d, _l, _b, _c, flat, objects = _LANE_CASES[case]
        composed = _lane_composed(case)
        pipe = make_pipeline(composed, "codegen")
        decided = pipe.lane_vars
        assert not set(decided.flat) & set(decided.object_form)
        for name in flat:
            assert name in decided.flat, decided.object_form.get(name)
        for name in objects:
            assert decided.object_form.get(name), f"{name} has no reason"
        # The byte stack is a flattened header like any other.
        assert "upa_bs" in decided.flat
        if not NUMPY_AVAILABLE:
            return
        vec = make_pipeline(composed, "vector")
        if not vec.batch_supported:
            return
        # A root struct in object form is exactly a plan the vector
        # compiler declines, with the same reason.
        root_objects = [
            name for name in decided.object_form
            if name in composed.variables
        ]
        if root_objects:
            assert vec.vector_plan is None
            assert any(
                decided.object_form[name] in vec.vector_decline_reason
                for name in root_objects
            )
        elif vec.vector_plan is None:
            assert "root variable" not in vec.vector_decline_reason

    @pytest.mark.parametrize("case", sorted(_LANE_CASES))
    def test_flattened_names_have_no_object_form_left(self, case):
        """Flattened: no factory, no ``.fields[`` anywhere when nothing
        kept the object form."""
        pipe = make_pipeline(_lane_composed(case), "codegen")
        if not pipe.lane_vars.object_form:
            assert ".fields[" not in pipe.source
            assert "_HV" not in pipe.source

    @pytest.mark.parametrize("fault_rate", (0.0, 0.1))
    @pytest.mark.parametrize("case", sorted(_LANE_CASES))
    def test_every_executor_agrees_with_the_interpreter(self, case, fault_rate):
        from repro.targets.vector import NUMPY_AVAILABLE

        composed = _lane_composed(case)
        packets = _lane_packets()
        want, want_events, want_plan, want_regs = _lane_run(
            composed, "interp", False, fault_rate, packets
        )
        assert any(out for out, _r, _e in want), "nothing was forwarded"
        runs = [("codegen", False), ("codegen", True)]
        if NUMPY_AVAILABLE:
            runs.append(("vector", True))
        for backend, soa in runs:
            got = _lane_run(composed, backend, soa, fault_rate, packets)
            if got is None:
                continue  # no batch body (the program recirculates)
            outcomes, events, plan, regs = got
            label = f"{case}/{backend}/{'soa' if soa else 'process'}"
            assert outcomes == want, label
            if not soa:
                assert events == want_events, label
            if fault_rate:
                # (a zero rate draws nothing, so there is no order)
                assert plan.order == want_plan.order, label
            assert plan.trips == want_plan.trips, label
            assert regs == want_regs, label


class TestCatalogLaneBody:
    """P1–P7 through make_pipeline: every struct is flattened, and no
    value is masked twice."""

    @pytest.mark.parametrize("program", [f"P{i}" for i in range(1, 8)])
    def test_no_objects_and_no_dead_branches(self, program):
        pipe = make_pipeline(build_pipeline(program), "codegen")
        assert not pipe.lane_vars.object_form
        assert len(pipe.lane_vars.flat) >= 4
        assert not re.search(r"_K\d+\(\)", pipe.source)
        assert ".fields[" not in pipe.source
        # No catalog program reads the pkt extern: no object per lane.
        assert "_PktObj(" not in pipe.source
        # A value that comes masked is not masked again: byte-stack
        # cells take their slices as they are.
        assert not re.search(r"& \d+\) & \d+$", pipe.source, re.M)
        assert re.search(r"^\s+_bs\d+ = \(\(\w+ >> \d+\) & 255\)$", pipe.source, re.M)

    def test_one_check_per_side_effect_region(self):
        """Step accounting is per region (DESIGN.md §15): P1–P7 carry
        under half the budget checks they have statements, and the
        whole catalog fits in 10 500 generated lines."""
        lines = checks = counted = 0
        for i in range(1, 8):
            source = make_pipeline(build_pipeline(f"P{i}"), "codegen").source
            lines += source.count("\n") + 1
            steps = [int(n) for n in re.findall(r"steps \+= (\d+)$", source, re.M)]
            checks += len(steps)
            counted += sum(steps)
            assert source.count("if steps > step_limit:") == len(steps)
        assert lines <= 10_500
        assert checks * 2 < counted


class TestGeneratedModule:
    """One generated module per composed program; executors are
    instances of it."""

    def test_codegen_and_vector_share_code_and_no_table_state(self, monkeypatch):
        from repro.targets import codegen
        from repro.targets.vector import NUMPY_AVAILABLE

        if not NUMPY_AVAILABLE:
            pytest.skip("vector backend needs numpy")
        generations = []
        real = codegen.SourceGen.generate
        monkeypatch.setattr(
            codegen.SourceGen, "generate",
            lambda gen: generations.append(gen) or real(gen),
        )
        composed = build_pipeline("P4")
        cg = make_pipeline(composed, "codegen")
        vec = make_pipeline(composed, "vector")
        again = make_pipeline(composed, "codegen")
        assert len(generations) == 1
        assert cg._run.__code__ is vec._run.__code__ is again._run.__code__
        assert cg._run is not vec._run
        assert cg.lane_vars is vec.lane_vars
        for name, runtime in cg.tables.items():
            assert vec.tables[name] is not runtime
            assert again.tables[name] is not runtime

        # Entries, a new default and a clear on one executor's tables
        # never show on another's.
        from repro.targets.runtime_api import RuntimeAPI
        from tests.integration.helpers import ENTRY_SETS, eth_ipv4

        def install(pipe):
            api = RuntimeAPI(pipe)
            for table, matches, action, _mono, args in ENTRY_SETS["P4"]:
                api.add_entry(table, matches, action, args)
            return api

        def ports(pipe):
            return [o.port for o in pipe.process(eth_ipv4(), 1)]

        api = install(cg)
        assert ports(cg) == [2] and ports(vec) == ports(again) == []
        install(vec)
        api.clear("forward_tbl")
        assert ports(cg) == [] and ports(vec) == [2]
        api.set_default("forward_tbl", "forward", [1, 2, 5])
        assert ports(cg) == [5] and ports(vec) == [2] and ports(again) == []
        lanes = vec.process_soa([eth_ipv4().tobytes()], [1], [eth_ipv4()])
        assert [o.port for o in lanes[0][0]] == [2] and lanes[0][2] is None
