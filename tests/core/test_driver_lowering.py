"""Header-stack and varbit programs through the driver, end to end.

``Up4Compiler.frontend`` used to call the Appendix-C lowering passes and
drop the modules they return, so these programs compiled when a test
called the pass directly and failed through the driver and the CLI
("header-stack loops must be unrolled first").
"""

import json

import pytest

from repro.cli import main
from repro.core.api import build_dataplane, compile_module
from repro.core.driver import CompilerOptions, Up4Compiler
from repro.midend.hdr_stack import has_header_stacks
from repro.midend.varlen import has_varlen_headers
from repro.net.build import PacketBuilder
from repro.net.packet import Packet
from repro.targets.backends import make_pipeline
from repro.targets.switch import Switch
from tests.midend.test_hdr_stack import SRC as STACK_SRC
from tests.midend.test_varlen import SRC as VARLEN_SRC

EXECUTORS = ("interp", "codegen", "vector")

# name -> (source, composed tables, byte-stack bytes)
PROGRAMS = {
    "stack": (STACK_SRC, 3, 38),
    "varbit": (VARLEN_SRC, 2, 20),
}


def _packet(ether_type: int, *labels: int) -> PacketBuilder:
    """Ethernet plus an MPLS stack of ``labels`` (the last is bottom)."""
    builder = PacketBuilder().ethernet(
        "02:00:00:00:00:02", "02:00:00:00:00:01", ether_type
    )
    for label in labels:
        builder = builder.mpls(label, bos=int(label == labels[-1]))
    return builder


@pytest.mark.parametrize("name", sorted(PROGRAMS))
class TestThroughTheDriver:
    def test_frontend_returns_the_lowered_module(self, name):
        source, _, _ = PROGRAMS[name]
        module = Up4Compiler().frontend(source, f"{name}.up4")
        assert not has_header_stacks(module.source)
        assert not has_varlen_headers(module.source)

    def test_every_pass_and_every_target(self, name):
        source, tables, byte_stack = PROGRAMS[name]
        compiler = Up4Compiler()
        module = compiler.frontend(source, f"{name}.up4")
        linked = compiler.link(module, [])
        composed = compiler.midend(linked, compiler.analyze(linked))
        assert len(composed.tables) == tables
        assert composed.byte_stack_size == byte_stack
        tna = Up4Compiler(CompilerOptions(target="tna")).backend(composed)
        assert tna.num_stages >= 1
        v1model = Up4Compiler(CompilerOptions(target="v1model")).backend(composed)
        assert "control Ingress()" in v1model.source_text
        for backend in EXECUTORS:
            assert make_pipeline(composed, backend).composed.tables

    def test_compile_sources(self, name):
        source, tables, _ = PROGRAMS[name]
        result = Up4Compiler(CompilerOptions(target="tna")).compile_sources(source)
        assert len(result.composed.tables) == tables

    def test_cli_compile_and_build(self, name, tmp_path, capsys):
        source, tables, _ = PROGRAMS[name]
        path = tmp_path / f"{name}.up4"
        path.write_text(source)
        assert main(["compile", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["version"] == 1
        for target in ("tna", "v1model"):
            assert main(["build", str(path), "--target", target]) == 0
            assert f"{tables} MATs" in capsys.readouterr().out


class TestLoweredProgramsForward:
    """One packet each, the same bytes out of every executor."""

    def _outputs(self, source, packet):
        dataplane = build_dataplane(compile_module(source, "m.up4"), [], target="tna")
        seen = set()
        for backend in EXECUTORS:
            switch = Switch(make_pipeline(dataplane.composed, backend))
            verdict = switch.process(Packet(packet), 1)
            seen.add(tuple(out.packet.tobytes() for out in verdict.outputs))
        assert len(seen) == 1, seen
        return seen.pop()

    def test_stack_pop_front_removes_the_outer_label(self):
        packet = _packet(0x8847, 7, 8).payload(b"payload!").build().tobytes()
        (out,) = self._outputs(STACK_SRC, packet)
        assert out == _packet(0x8847, 8).payload(b"payload!").build().tobytes()

    def test_varbit_header_round_trips(self):
        option = bytes([1, 4, 0xAA, 0xBB])  # kind, len, 16 bits of data
        packet = _packet(0x1234).payload(option + b"rest").build().tobytes()
        (out,) = self._outputs(VARLEN_SRC, packet)
        assert out == packet


class TestFrontendCache:
    """One front-end per source (DESIGN.md §17): a repeat is the same
    ``Module``, still one ``frontend`` span, and counted apart."""

    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        from repro.core import driver

        monkeypatch.setattr(driver, "_MODULES", {})

    def test_a_hit_keeps_its_span_and_loses_the_children(self):
        from repro.obs.trace import Tracer

        tracer = Tracer()
        compiler = Up4Compiler(tracer=tracer)
        first = compiler.frontend(STACK_SRC, "stack.up4")
        assert compiler.frontend(STACK_SRC, "stack.up4") is first
        # Another name is another module: locations carry the file name.
        assert compiler.frontend(STACK_SRC, "other.up4") is not first
        spans = [
            (span.name, span.attrs.get("cached")) for span in tracer.spans()
        ]
        miss = [
            ("frontend", None), ("frontend.check", None),
            ("frontend.lower", None),
        ]
        assert spans == miss + [("frontend", True)] + miss

    def test_the_cache_is_bounded(self, monkeypatch):
        from repro.core import driver

        monkeypatch.setattr(driver, "_MODULES_CAP", 2)
        compiler = Up4Compiler()
        first = compiler.frontend(STACK_SRC, "a.up4")
        compiler.frontend(STACK_SRC, "b.up4")
        compiler.frontend(STACK_SRC, "c.up4")
        assert len(driver._MODULES) == 2
        assert compiler.frontend(STACK_SRC, "a.up4") is not first

    def test_a_catalog_pass_does_each_piece_of_work_once(self, monkeypatch):
        """P1-P7 from source, every exec backend: 16 distinct module
        sources are checked (34 front-end calls), and one module is
        generated and compiled per program however many codegen-family
        executors are built from it."""
        from repro.lib.catalog import COMPOSITIONS, PROGRAMS
        from repro.lib.loader import load_module_source
        from repro.obs.metrics import collecting
        from repro.targets import codegen
        from repro.targets.backends import EXEC_BACKENDS

        monkeypatch.setattr(codegen, "_CODE_CACHE", {})
        backends = EXEC_BACKENDS
        with collecting() as registry:
            for name in PROGRAMS:
                compiler = Up4Compiler()
                modules = [
                    compiler.frontend(load_module_source(m), f"{m}.up4")
                    for m in COMPOSITIONS[name]
                ]
                linked = compiler.link(modules[0], modules[1:])
                composed = compiler.midend(linked, compiler.analyze(linked))
                for backend in backends:
                    make_pipeline(composed, backend)
            counters = registry.snapshot()["counters"]
        assert counters["frontend.modules_checked"] == 16
        assert counters["frontend.modules_cached"] == 34 - 16
        assert counters["codegen.generations"] == 7
        assert counters["codegen.build_cache_misses"] == 7
        assert counters["codegen.builds"] == 7 * (len(backends) - 2)
