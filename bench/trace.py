"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around the public
calls into each layer; nothing inside ``repro`` is instrumented.  A span
is ``[name, start, end, parent index]``; a layer's *self* time is its
span's duration minus the part its direct child spans cover.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List


class Tracer:
    """Collects spans in a list; :meth:`totals` aggregates them by name."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span named ``name`` recorded around every call.

        The clock is read immediately around the call, so the recording
        cost lands in the *caller's* self time, not in this span.
        """
        spans, stack, clock = self.spans, self._stack, perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """One traced call of ``fn``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total seconds, self seconds."""
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for (name, start, end, _), covered in zip(self.spans, child_s):
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered
        return out


class PipelineProxy:
    """Delegating stand-in for the pipeline object a ``Switch`` drives.

    Records a span around ``process`` and ``process_soa`` so the switch's
    self time can be separated from the execution backend's; every other
    attribute reads through to the real pipeline.
    """

    def __init__(self, pipeline, tracer: Tracer, span: str) -> None:
        self._pipeline = pipeline
        self.process = tracer.wrap(span, pipeline.process)
        if getattr(pipeline, "batch_supported", False):
            self.process_soa = tracer.wrap(span, pipeline.process_soa)

    def __getattr__(self, name: str):
        return getattr(self._pipeline, name)
