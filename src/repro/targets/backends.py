"""The ``ExecBackend`` seam: one place that maps a backend name to a
pipeline executor.

Two executors run a :class:`~repro.midend.inline.ComposedPipeline`,
under four backend names (``DESIGN.md`` §10):

* ``interp`` — :class:`~repro.targets.pipeline.PipelineInstance`, the
  reference tree-walking interpreter.  Default everywhere.
* ``codegen`` — :class:`~repro.targets.codegen.CodegenPipeline`, a
  one-time translation to generated Python source ``compile()``d into a
  single code object per pipeline, one function that runs one packet
  or a whole batch of lanes.  A batch of at least
  ``codegen._COLUMNWISE_MIN_LANES`` lanes runs on its columnwise tier
  (:mod:`repro.targets.vector`, numpy) when the program has one; every
  other batch, and every host without numpy, runs the lane loop (see
  ``DESIGN.md`` §15).
* ``vector`` — an alias of ``codegen``, and ``compiled`` — an alias of
  ``interp``, kept because benchmark workloads and rows name them.

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
    """Generate what a codegen executor of ``composed`` would (its
    module and, when numpy imports, its columnwise tier) onto the
    executable form, building no executor (its namespace↔function cycle
    would hold its tables).  A pool calls this before it forks."""
    if executor_class(exec_backend) is CodegenPipeline:
        form = executable_form(composed)
        tables = table_runtimes(form)
        generated_module(form, tables)
        from repro.targets.vector import NUMPY_AVAILABLE, columnwise_module

        if NUMPY_AVAILABLE:
            columnwise_module(form, tables)


def executor_class(exec_backend: str):
    """The executor class behind a backend name.  Unknown names raise a
    reason-coded :class:`TargetError` instead of silently falling back.
    """
    if exec_backend in ("interp", "compiled"):
        return PipelineInstance
    if exec_backend in ("codegen", "vector"):
        return CodegenPipeline
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
    """The metric family of an executor (or executor class): the name
    its ``.packets`` / ``.table_hits`` counters carry."""
    return getattr(pipeline, "backend", DEFAULT_EXEC_BACKEND)
