"""Control API for a running pipeline (the paper's Fig. 4 "control API").

µP4C composes modules at compile time, but table contents still come from
the control plane.  The :class:`RuntimeAPI` exposes entry installation
with the *composed* names: a table declared as ``forward_tbl`` inside the
main program is addressed as ``main_forward_tbl``, and a table inside an
instance ``l3_i`` of a callee as ``main_l3_i_<name>``.  :meth:`tables`
lists the available names — this mirrors how µP4C emits a control-API
mapping for each module it links (§4, Fig. 4a).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import TargetError
from repro.targets.pipeline import PipelineInstance


class RuntimeAPI:
    """Thin facade over a pipeline's table runtimes.

    ``instance`` is any execution backend exposing ``tables`` and
    ``composed`` — a :class:`PipelineInstance` or a
    :class:`~repro.targets.compiled.CompiledPipeline`; both share the
    same :class:`~repro.targets.tables.TableRuntime` state model, so
    control-plane programming is backend-agnostic.
    """

    def __init__(self, instance: PipelineInstance) -> None:
        self.instance = instance

    # ------------------------------------------------------------------
    def tables(self) -> List[str]:
        """Names of all tables addressable at runtime."""
        return sorted(self.instance.tables)

    def user_tables(self) -> List[str]:
        """Tables declared by the user (synthesized MATs filtered out)."""
        return [
            name
            for name in self.tables()
            if not name.endswith("_parser_tbl") and not name.endswith("_deparser_tbl")
        ]

    def find_table(self, name: str):
        """The runtime of the table ``name`` addresses (composed name,
        original name or unambiguous suffix), ``None`` when the program
        declares no such table; an ambiguous name raises."""
        table = self.instance.tables.get(name)
        if table is not None:
            return table
        composed = self.instance.composed
        candidates = [
            t
            for t in self.tables()
            if getattr(composed.tables[t], "original_name", None) == name
        ]
        if not candidates:
            candidates = [t for t in self.tables() if t.endswith(f"_{name}")]
        if len(candidates) == 1:
            return self.instance.tables[candidates[0]]
        if len(candidates) > 1:
            raise TargetError(
                f"table name {name!r} is ambiguous: {', '.join(candidates)}"
            )
        return None

    def _table(self, name: str):
        table = self.find_table(name)
        if table is None:
            raise TargetError(
                f"unknown table {name!r}; "
                f"available: {', '.join(self.tables())}"
            )
        return table

    # ------------------------------------------------------------------
    def add_entry(
        self,
        table: str,
        matches: Sequence,
        action: str,
        action_args: Optional[Sequence[int]] = None,
        priority: int = 0,
    ) -> None:
        """Install a runtime entry.

        ``table`` may be the fully composed name or an unambiguous
        suffix (e.g. ``forward_tbl``).  ``action`` likewise may be the
        composed action name or a suffix.
        """
        runtime = self._table(table)
        resolved_action = self._resolve_action(runtime, action)
        runtime.add_entry(matches, resolved_action, action_args, priority)

    def set_default(
        self, table: str, action: str, args: Optional[Sequence[int]] = None
    ) -> None:
        runtime = self._table(table)
        runtime.set_default(self._resolve_action(runtime, action), args)

    def clear(self, table: str) -> None:
        self._table(table).clear_runtime_entries()

    def _resolve_action(self, runtime, action: str) -> str:
        if action in runtime.decl.actions or action == "NoAction":
            return action
        composed_actions = self.instance.composed.actions
        candidates = [
            a
            for a in runtime.decl.actions
            if getattr(composed_actions.get(a), "original_name", None) == action
        ]
        if not candidates:
            candidates = [
                a for a in runtime.decl.actions if a.endswith(f"_{action}")
            ]
        if len(candidates) == 1:
            return candidates[0]
        if len(candidates) > 1:
            raise TargetError(
                f"action name {action!r} is ambiguous in table "
                f"{runtime.name!r}: {', '.join(candidates)}"
            )
        raise TargetError(
            f"table {runtime.name!r} has no action {action!r}; "
            f"available: {', '.join(runtime.decl.actions)}"
        )

    # ------------------------------------------------------------------
    def entry_counts(self) -> Dict[str, int]:
        """Const + runtime entry counts per table (for reporting)."""
        return {
            name: len(t.const_entries) + len(t.runtime_entries)
            for name, t in self.instance.tables.items()
        }

    def lookup_info(self) -> Dict[str, Dict[str, object]]:
        """Per-table lookup strategy (exact-hash / lpm-buckets /
        compiled-scan / reference-scan), entry counts, and
        ``index_events``: how often the table's index was built in full
        (``tables.index.rebuilt``) or took an install in place
        (``tables.index.appended``), and under ``--exec vector`` the same
        for its batch snapshot (``vector.index.extended`` /
        ``vector.index.rebuilt.<reason>``)."""
        return {
            name: t.index_info() for name, t in self.instance.tables.items()
        }
