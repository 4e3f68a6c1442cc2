"""µP4C — the compiler driver (paper Fig. 7).

Runs the pass pipeline:

    frontend  : parse + type-check each module          (µP4-IR)
    midend    : link, analyze, homogenize, compose      (composed IR)
    backend   : v1model (partition + codegen) or
                tna (PHV + ALU legality + stages)       (target output)

``CompilerOptions`` exposes the knobs the paper discusses: target
choice, monolithic mode (the evaluation baseline), and the TNA
backend's field-alignment and assignment-splitting passes (§6.3).

The driver is a *pass manager*: every stage in :data:`PASS_ORDER` runs
inside a :class:`~repro.obs.trace.Tracer` span recording wall-time and
input/output sizes, and the finished trace is attached to
:class:`CompileResult`.  Construct the compiler with
``Up4Compiler(options, tracer=Tracer())`` (or use ``--trace`` /
``repro profile`` on the CLI) to collect it; the default tracer is
disabled and costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.backend.tna import TnaBackend, TnaReport
from repro.backend.tna.descriptor import TofinoDescriptor
from repro.backend.v1model import V1ModelBackend, V1ModelProgram
from repro.errors import CompileError
from repro.frontend.typecheck import Module, check_program
from repro.midend.analysis import Analyzer, OperationalRegion
from repro.midend.hdr_stack import lower_header_stacks
from repro.midend.inline import ComposedPipeline, compose, compose_monolithic
from repro.midend.linker import LinkedProgram, link_modules
from repro.midend.varlen import lower_varlen_headers
from repro.obs.metrics import METRICS
from repro.obs.trace import NULL_TRACER, Tracer

TARGETS = ("v1model", "tna")

#: The stages the pass manager runs, in order; each becomes a span of
#: the same name (frontend spans repeat once per module).
PASS_ORDER = (
    "frontend",
    "midend.link",
    "midend.analyze",
    "midend.compose",
    "midend.shrink",
    "midend.optimize",
    "backend",
)


# µP4-IR per module source, process-wide: separate compilation (Fig. 4a)
# means a module is checked once and linked many times.  Sharing one
# Module across links is safe because types and locations are immutable
# values and composition clones every declaration it rewrites (DESIGN
# §17).  Oldest entry out at the cap, so a process that compiles
# unboundedly many distinct sources does not keep them all.
_MODULES: Dict[Tuple[str, str], Module] = {}
_MODULES_CAP = 256


@dataclass
class CompilerOptions:
    """Compilation knobs."""

    target: str = "v1model"
    monolithic: bool = False
    # §8.1 midend optimizations on the compile path: drop dead byte-stack
    # copies, then elide trivial synthesized MATs.  (The behavioral
    # executors always get the first half: ``make_pipeline``.)
    optimize_mats: bool = False
    # TNA backend passes (§6.3).
    align_fields: bool = True
    split_assignments: bool = True
    descriptor: Optional[TofinoDescriptor] = None

    def __post_init__(self) -> None:
        if self.target not in TARGETS:
            raise CompileError(
                f"unknown target {self.target!r}; supported: {TARGETS}"
            )


@dataclass
class CompileResult:
    """Everything the driver produces for one build."""

    composed: ComposedPipeline
    region: OperationalRegion
    target_output: Union[V1ModelProgram, TnaReport, None] = None
    # The pass trace, when the driver's tracer was enabled.
    trace: Optional[Tracer] = None


class Up4Compiler:
    """The µP4C pass manager."""

    def __init__(
        self,
        options: Optional[CompilerOptions] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.options = options or CompilerOptions()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # ------------------------------------------------------------------
    # Frontend
    # ------------------------------------------------------------------
    def frontend(self, source: str, name: str = "<module>") -> Module:
        """Parse, type-check and lower one µP4 module (Fig. 4a) — once
        per ``(source, name)`` in this process: a repeat returns the
        same :class:`Module` under a ``frontend`` span marked
        ``cached`` with no child spans."""
        key = (source, name)
        module = _MODULES.get(key)
        with self.tracer.span(
            "frontend", module=name, source_bytes=len(source)
        ) as sp:
            if module is None:
                with self.tracer.span("frontend.check", module=name):
                    module = check_program(source, name)
                with self.tracer.span("frontend.lower", module=name):
                    module = lower_varlen_headers(lower_header_stacks(module))
                if len(_MODULES) >= _MODULES_CAP:
                    del _MODULES[next(iter(_MODULES))]
                _MODULES[key] = module
            else:
                METRICS.inc("frontend.modules_cached")
                sp.set(cached=True)
            sp.set(programs=len(module.programs))
        return module

    # ------------------------------------------------------------------
    # Midend
    # ------------------------------------------------------------------
    def link(self, main: Module, libraries: Optional[List[Module]] = None) -> LinkedProgram:
        with self.tracer.span(
            "midend.link", modules=1 + len(libraries or [])
        ) as sp:
            linked = link_modules(main, libraries or [])
            sp.set(programs=len(linked.providers))
        return linked

    def analyze(self, linked: LinkedProgram) -> Analyzer:
        """Run the §5.2 operational-region analysis over ``linked``."""
        with self.tracer.span("midend.analyze") as sp:
            analyzer = Analyzer(linked)
            region = analyzer.analyze()
            sp.set(
                extract_length=region.extract_length,
                byte_stack=region.byte_stack_size,
                min_packet=region.min_packet_size,
            )
        return analyzer

    def midend(
        self, linked: LinkedProgram, analyzer: Optional[Analyzer] = None
    ) -> ComposedPipeline:
        if self.options.monolithic:
            with self.tracer.span("midend.compose", mode="monolithic") as sp:
                composed = compose_monolithic(linked, analyzer=analyzer)
                sp.set(tables=len(composed.tables))
            return composed
        with self.tracer.span("midend.compose", mode="micro") as sp:
            composed = compose(linked, analyzer=analyzer, tracer=self.tracer)
            sp.set(
                tables=len(composed.tables),
                byte_stack=composed.byte_stack_size,
            )
        if self.options.optimize_mats:
            from repro.midend.optimize import elide_trivial_mats

            # Shrink first: it reads the parser/deparser MAT records
            # that elision prunes along with the tables it removes.
            composed = self.shrink(composed)
            with self.tracer.span(
                "midend.optimize", tables=len(composed.tables)
            ) as sp:
                stats = elide_trivial_mats(composed)
                sp.set(elided=stats.total, tables=len(composed.tables))
        return composed

    def shrink(self, composed: ComposedPipeline) -> ComposedPipeline:
        """§8.1 byte-stack liveness (``shrink_copies``) under a span."""
        from repro.midend.optimize import action_statements, shrink_copies

        with self.tracer.span(
            "midend.shrink", statements=action_statements(composed)
        ) as sp:
            composed = shrink_copies(composed)
            sp.set(statements_after=action_statements(composed))
        return composed

    # ------------------------------------------------------------------
    # Backend
    # ------------------------------------------------------------------
    def backend(self, composed: ComposedPipeline):
        with self.tracer.span(
            f"backend.{self.options.target}", tables=len(composed.tables)
        ) as sp:
            if self.options.target == "v1model":
                out = V1ModelBackend().compile(composed)
                sp.set(source_lines=len(out.source_text.splitlines()))
            else:
                out = TnaBackend(
                    descriptor=self.options.descriptor,
                    align_fields=self.options.align_fields,
                    split_assignments=self.options.split_assignments,
                ).compile(composed)
                sp.set(
                    stages=out.num_stages,
                    phv_bits=out.bits_allocated,
                    splits=len(out.split.extra_depth),
                )
        return out

    # ------------------------------------------------------------------
    def compile_modules(
        self, main: Module, libraries: Optional[List[Module]] = None
    ) -> CompileResult:
        """Full pipeline: link → analyze → compose → backend."""
        linked = self.link(main, libraries)
        analyzer = self.analyze(linked)
        composed = self.midend(linked, analyzer=analyzer)
        result = CompileResult(composed=composed, region=composed.region)
        result.target_output = self.backend(composed)
        if self.tracer.enabled:
            result.trace = self.tracer
        return result

    def compile_sources(
        self,
        main_source: str,
        library_sources: Optional[Dict[str, str]] = None,
        main_name: str = "main.up4",
    ) -> CompileResult:
        """Convenience: compile from source texts."""
        main = self.frontend(main_source, main_name)
        libs = [
            self.frontend(text, name)
            for name, text in (library_sources or {}).items()
        ]
        return self.compile_modules(main, libs)
