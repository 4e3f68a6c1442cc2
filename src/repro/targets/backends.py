"""The ``ExecBackend`` seam: one place that maps a backend name to a
pipeline executor.

Four backends execute a :class:`~repro.midend.inline.ComposedPipeline`:

* ``interp`` — :class:`~repro.targets.pipeline.PipelineInstance`, the
  reference tree-walking interpreter.  Default everywhere.
* ``compiled`` — :class:`~repro.targets.compiled.CompiledPipeline`, the
  closure-compiled specialization (see ``DESIGN.md`` §10).
* ``codegen`` — :class:`~repro.targets.codegen.CodegenPipeline`, a
  one-time translation to generated Python source ``compile()``d into a
  single code object per pipeline, one function that runs one packet
  or a whole batch of lanes (see ``DESIGN.md`` §15).
* ``vector`` — :class:`~repro.targets.vector.VectorPipeline`, the
  codegen backend with its batch lane loop replaced by columnwise numpy
  execution with divergence splitting (see ``DESIGN.md`` §16).  Needs
  the optional ``[vector]`` extra (numpy); constructing it without
  numpy raises a reason-coded ``error[vector-unavailable]``.

``make_pipeline`` hands every backend the same program: the composed
pipeline after :func:`repro.midend.optimize.shrink_copies` (byte-stack
copies that cannot change a packet's fate removed; tables untouched).
The constructors themselves run exactly what they are given, which is
how the tests get an unshrunk reference.

All expose the same execution surface (``process``/``process_traced``,
``tables``, ``composed``, ``configure_faults``, ``guards``,
``last_drop_reason``, ``persistent``), so the switch, control API, soak
harness, and sharded engine are backend-agnostic.  Callers select a
backend by name — ``make_pipeline(composed, name)``,
``SoakConfig(exec_backend=...)``, or the CLI ``--exec`` flag (whose ``choices`` must be exactly
``EXEC_BACKENDS``; a regression test pins that) — and this module is the
only spot that knows the names.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TargetError
from repro.midend.inline import ComposedPipeline
from repro.midend.optimize import shrink_copies
from repro.targets.codegen import CodegenPipeline, generated_module
from repro.targets.compiled import CompiledPipeline
from repro.targets.faults import FaultPlan, ResourceGuards
from repro.targets.pipeline import PipelineInstance
from repro.targets.tables import table_runtimes

#: Recognized execution backend names, in preference-display order.
EXEC_BACKENDS = ("interp", "compiled", "codegen", "vector")

DEFAULT_EXEC_BACKEND = "interp"


def executable_form(composed: ComposedPipeline) -> ComposedPipeline:
    """The program the executors built by :func:`make_pipeline` run for
    ``composed``; ``composed`` itself is left as it was.  Derived once
    per program object (:meth:`ComposedPipeline.derive`) — one composed
    program is usually built under several backends — and derived again
    after an in-place edit such as ``elide_trivial_mats``."""
    return composed.derive("executable_form", shrink_copies)


def derive_modules(composed: ComposedPipeline, exec_backend: str) -> None:
    """Generate what an ``exec_backend`` executor of ``composed`` would
    (codegen's module; for ``vector`` the columnwise one too) onto the
    executable form, building no executor (its namespace↔function cycle
    would hold its tables).  A pool calls this before it forks."""
    if exec_backend in ("codegen", "vector"):
        form = executable_form(composed)
        tables = table_runtimes(form)
        generated_module(form, tables)
        if exec_backend == "vector":
            from repro.targets.vector import columnwise_module

            columnwise_module(form, tables)


def executor_class(exec_backend: str):
    """The executor class behind a backend name, its module imported.
    Unknown names raise a reason-coded :class:`TargetError` instead of
    silently falling back.

    A parent that forks workers resolves the name first
    (:meth:`SoakConfig.validate <repro.targets.soak.SoakConfig.validate>`
    does), so the children inherit the import instead of each paying it.
    """
    if exec_backend == "interp":
        return PipelineInstance
    if exec_backend == "compiled":
        return CompiledPipeline
    if exec_backend == "codegen":
        return CodegenPipeline
    if exec_backend == "vector":
        # Imported lazily: the module is numpy-tolerant, but the other
        # backends should not pay its import on every process start.
        from repro.targets.vector import VectorPipeline

        return VectorPipeline
    err = TargetError(
        f"unknown exec backend {exec_backend!r}; "
        f"known: {', '.join(EXEC_BACKENDS)}"
    )
    err.code = "unknown-backend"
    raise err


def make_pipeline(
    composed: ComposedPipeline,
    exec_backend: str = DEFAULT_EXEC_BACKEND,
    use_table_index: bool = True,
    guards: Optional[ResourceGuards] = None,
    faults: Optional[FaultPlan] = None,
):
    """Build a pipeline executor for ``composed`` under the named
    backend (:func:`executor_class` rejects unknown names)."""
    return executor_class(exec_backend)(
        executable_form(composed),
        use_table_index=use_table_index,
        guards=guards,
        faults=faults,
    )


def backend_of(pipeline) -> str:
    """The backend name an executor instance was built under."""
    return getattr(pipeline, "backend", DEFAULT_EXEC_BACKEND)
