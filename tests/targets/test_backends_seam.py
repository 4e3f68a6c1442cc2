"""The ``ExecBackend`` seam and the reason-coded ``Env`` lookup errors.

The seam (:mod:`repro.targets.backends`) is the single place that maps a
backend name to an executor class; everything downstream — the switch,
soak harness, CLI — goes through it.  These tests pin the seam's
contract: known names build the right class and unknown names fail
with a stable machine-readable code.
"""

import pytest

from repro.errors import TargetError
from repro.lib.catalog import build_pipeline
from repro.targets import vector as vector_mod
from repro.targets.backends import (
    DEFAULT_EXEC_BACKEND,
    EXEC_BACKENDS,
    backend_of,
    executable_form,
    executor_class,
    make_pipeline,
)
from repro.targets.codegen import CodegenPipeline
from repro.targets.interpreter import Env
from repro.targets.pipeline import PipelineInstance
from tests.targets.helpers import EXECUTORS


@pytest.fixture(scope="module")
def composed():
    return build_pipeline("P1")


class TestMakePipeline:
    def test_backend_names(self):
        assert EXEC_BACKENDS == ("interp", "compiled", "codegen", "vector")
        assert DEFAULT_EXEC_BACKEND == "interp"

    def test_interp_backend(self, composed):
        instance = make_pipeline(composed, "interp")
        assert isinstance(instance, PipelineInstance)
        assert backend_of(instance) == "interp"

    def test_compiled_backend(self, composed):
        """``compiled`` names the interpreter: benchmark rows keep it."""
        assert executor_class("compiled") is PipelineInstance
        instance = make_pipeline(composed, "compiled")
        assert type(instance) is PipelineInstance
        assert backend_of(instance) == "interp"

    def test_codegen_backend(self, composed):
        instance = make_pipeline(composed, "codegen")
        assert isinstance(instance, CodegenPipeline)
        assert backend_of(instance) == "codegen"
        # The generated module is kept for debugging and compiles clean.
        assert "def _cg_run(" in instance.source

    def test_vector_is_an_alias_of_codegen(self, composed):
        instance = make_pipeline(composed, "vector")
        assert type(instance) is CodegenPipeline
        assert backend_of(instance) == "codegen"

    def test_vector_builds_without_numpy(self, composed, monkeypatch):
        """No numpy → ``vector`` still builds (codegen's batches take the
        lane loop), never an ImportError or a refusal."""
        monkeypatch.setattr(vector_mod, "_np", None)
        instance = make_pipeline(composed, "vector")
        assert type(instance) is CodegenPipeline

    def test_default_is_interp(self, composed):
        assert backend_of(make_pipeline(composed)) == "interp"

    def test_unknown_backend_reason_coded(self, composed):
        with pytest.raises(TargetError) as exc:
            make_pipeline(composed, "jit")
        assert exc.value.code == "unknown-backend"
        assert "jit" in str(exc.value)
        assert "compiled" in str(exc.value)  # names the known backends

    def test_shared_surface(self, composed):
        """Every executor exposes the surface the switch/API relies on."""
        for backend in EXECUTORS:
            instance = make_pipeline(composed, backend)
            for attr in (
                "process",
                "process_traced",
                "tables",
                "composed",
                "configure_faults",
                "guards",
                "last_drop_reason",
                "persistent",
            ):
                assert hasattr(instance, attr), f"{backend} lacks {attr}"


class TestEnvUndefinedName:
    def test_read_miss_is_reason_coded(self):
        env = Env(label="action frame")
        with pytest.raises(TargetError) as exc:
            env.get("meta_x")
        assert exc.value.code == "undefined-name"
        assert "meta_x" in str(exc.value)
        assert "action frame" in str(exc.value)

    def test_write_miss_is_reason_coded(self):
        env = Env()
        with pytest.raises(TargetError) as exc:
            env.set("ghost", 1)
        assert exc.value.code == "undefined-name"
        assert "ghost" in str(exc.value)
        assert "pipeline" in str(exc.value)  # root label default

    def test_child_inherits_label(self):
        parent = Env(label="parser frame")
        child = Env(parent)
        with pytest.raises(TargetError) as exc:
            child.get("nope")
        assert "parser frame" in str(exc.value)

    def test_hit_through_chain(self):
        parent = Env(label="pipeline")
        parent.define("x", 7)
        child = Env(parent, label="action frame")
        assert child.get("x") == 7
        child.set("x", 9)
        assert parent.get("x") == 9


class TestShrunkInput:
    """``make_pipeline`` builds every backend from the composed program
    after ``shrink_copies`` — once per program, not once per backend —
    and leaves the program it was given alone."""

    def test_one_pass_for_all_backends(self, monkeypatch):
        import gc
        import weakref

        from repro.midend.optimize import action_statements
        from repro.targets import backends

        calls = []
        real = backends.shrink_copies
        monkeypatch.setattr(
            backends, "shrink_copies", lambda c: calls.append(c) or real(c)
        )
        composed = build_pipeline("P4")
        pipes = [make_pipeline(composed, b) for b in EXEC_BACKENDS]
        assert calls == [composed]
        shrunk = pipes[0].composed
        assert all(p.composed is shrunk for p in pipes)
        assert shrunk is executable_form(composed) is not composed
        # The caller's program is as composed: 11 tables, 185 statements.
        assert len(composed.tables) == len(shrunk.tables) == 11
        assert action_statements(composed) == 185
        assert action_statements(shrunk) == 109
        # Rebuilding from an executor's own program shrinks nothing more.
        assert make_pipeline(shrunk, "interp").composed is shrunk
        # The memo lives on the program, so it keeps nothing alive.
        dropped = weakref.ref(composed)
        del composed, calls[:]
        gc.collect()
        assert dropped() is None

    def test_an_in_place_edit_is_seen_by_the_next_build(self):
        """``elide_trivial_mats`` edits a composed program in place; an
        executor built afterwards runs the elided program (it used to
        get the form remembered from before the edit), and so do the
        target backends."""
        import hashlib

        from repro.core.driver import CompilerOptions, Up4Compiler
        from repro.midend.optimize import elide_trivial_mats

        def targets(program):
            tna = Up4Compiler(CompilerOptions(target="tna")).backend(program)
            v1model = Up4Compiler(
                CompilerOptions(target="v1model")
            ).backend(program)
            return (
                tna.num_stages, tna.bits_allocated,
                hashlib.sha256(v1model.source_text.encode()).hexdigest(),
            )

        composed = build_pipeline("P4")
        before = make_pipeline(composed, "codegen")
        targets(composed)
        assert len(before.tables) == 11
        assert elide_trivial_mats(composed).total == 5
        after = make_pipeline(composed, "codegen")
        assert set(after.tables) == set(composed.tables)
        assert len(after.tables) == 6
        assert after.source != before.source

        fresh = build_pipeline("P4")
        elide_trivial_mats(fresh)
        assert targets(composed) == targets(fresh)
        assert after.source == make_pipeline(fresh, "codegen").source

    def test_unknown_backend_is_rejected_before_any_work(self, monkeypatch):
        from repro.targets import backends

        monkeypatch.setattr(
            backends, "shrink_copies", lambda c: pytest.fail("pass ran")
        )
        with pytest.raises(TargetError):
            make_pipeline(build_pipeline("P4"), "jit")

    def test_no_new_parameter(self):
        import inspect

        assert list(inspect.signature(make_pipeline).parameters) == [
            "composed", "exec_backend", "use_table_index", "guards", "faults",
        ]
