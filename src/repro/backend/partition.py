"""Ingress/egress partitioning (paper §5.5).

µP4C's backend maintains a two-state FSM (ingress → egress) and walks
the program's logical tables.  Each state carries assertions derived
from the target's metadata constraints:

* ingress-only operations — setting the egress port / multicast group
  (``egress_spec`` in V1Model cannot be set in egress),
* egress-only operations — reading queueing metadata
  (``deq_timestamp``, ``enq_timestamp``, ``queue_depth``).

Tables are visited in order while ingress assertions hold; a table that
violates them is *marked* and deferred.  When a marked table is reached
whose placement is forced, the FSM transitions to egress; everything
from that point on (plus deferred tables) lands in the egress control.
A program that then still needs an ingress-only op in egress is
rejected.

Live scalars crossing the boundary become synthesized
*partition-metadata* (§5.5) passed between the two controls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Tuple

from repro.errors import BackendError
from repro.frontend import astnodes as ast
from repro.ir.visitor import walk_expressions
from repro.backend.base import LogicalTable

# Intrinsic metadata fields only available after the traffic manager.
EGRESS_ONLY_META = {"DEQ_TIMESTAMP", "ENQ_TIMESTAMP", "QUEUE_DEPTH"}
# im_t methods that must execute before the traffic manager.
INGRESS_ONLY_METHODS = {"set_out_port", "drop"}


def _placement_constraints(stmts: List[ast.Stmt]) -> Tuple[bool, bool]:
    """``(ingress_only, egress_only)`` for ``stmts``, from one walk:
    whether they call an ingress-only ``im_t`` method, and whether they
    read egress-only intrinsic metadata."""
    ingress_only = egress_only = False
    for stmt in stmts:
        for expr in walk_expressions(stmt):
            if not isinstance(expr, ast.MethodCallExpr):
                continue
            resolved = getattr(expr, "resolved", None)
            if (
                resolved is None
                or resolved[0] != "extern"
                or resolved[1] != "im_t"
            ):
                continue
            if resolved[2] in INGRESS_ONLY_METHODS:
                ingress_only = True
            elif resolved[2] == "get_value":
                arg = expr.args[0]
                if (
                    isinstance(arg, ast.MemberExpr)
                    and arg.member in EGRESS_ONLY_META
                ):
                    egress_only = True
    return ingress_only, egress_only


def _table_action_stmts(table: LogicalTable, actions) -> List[ast.Stmt]:
    out: List[ast.Stmt] = []
    if table.decl is not None:
        names = set(table.decl.actions)
        if table.decl.default_action:
            names.add(table.decl.default_action)
        for name in names:
            decl = actions.get(name)
            if decl is not None:
                out.append(decl.body)
    return out


def _split_mixed_runs(tables: List[LogicalTable], actions) -> List[LogicalTable]:
    """Break statement runs that mix ingress-only and egress-only ops
    into per-statement tables, so the FSM can place a boundary between
    them (the paper's traversal marks individual statements, §5.5)."""
    from repro.backend.base import stmt_effects

    out: List[LogicalTable] = []
    for table in tables:
        if table.kind != "statements" or len(table.stmts) <= 1:
            out.append(table)
            continue
        if not all(_placement_constraints(table.stmts)):
            out.append(table)
            continue
        for index, stmt in enumerate(table.stmts):
            reads, writes, assignments = stmt_effects(stmt, actions)
            out.append(
                LogicalTable(
                    name=f"{table.name}_{index}",
                    kind="statements",
                    stmts=[stmt],
                    guard_reads=set(table.guard_reads),
                    action_reads=reads,
                    writes=writes,
                    assignments=assignments,
                    branch_path=list(table.branch_path),
                )
            )
    return out


@dataclass
class PartitionResult:
    """Tables split across the pipeline boundary, plus carried state."""

    ingress: List[LogicalTable] = field(default_factory=list)
    egress: List[LogicalTable] = field(default_factory=list)
    # Scalars written in ingress and read in egress: the synthesized
    # partition-metadata struct (§5.5).
    partition_metadata: List[str] = field(default_factory=list)


def partition(tables: List[LogicalTable], actions=None) -> PartitionResult:
    """Split logical tables into ingress and egress sequences."""
    actions = actions or {}
    classified: List[tuple] = []
    for table in _split_mixed_runs(tables, actions):
        ingress_only, egress_only = _placement_constraints(
            table.stmts + _table_action_stmts(table, actions)
        )
        if egress_only and ingress_only:
            raise BackendError(
                f"table {table.name!r} both sets the egress port and reads "
                f"queueing metadata; no single-pass placement exists"
            )
        classified.append((table, ingress_only, egress_only))

    # FSM walk: stay in ingress until the first egress-only table whose
    # results a later table needs, then switch.
    first_egress_index = None
    for index, (_, _, egress_only) in enumerate(classified):
        if egress_only:
            first_egress_index = index
            break

    result = PartitionResult()
    if first_egress_index is None:
        result.ingress = [t for t, _, _ in classified]
        return result

    # Everything before the first egress-only table stays in ingress;
    # from there on tables go to egress unless they are ingress-only —
    # which is a constraint violation the FSM cannot satisfy.
    for index, (table, ingress_only, egress_only) in enumerate(classified):
        if index < first_egress_index:
            result.ingress.append(table)
        else:
            if ingress_only:
                raise BackendError(
                    f"table {table.name!r} must run in ingress (sets the "
                    f"egress port) but follows egress-only processing; the "
                    f"placement FSM cannot schedule this program"
                )
            result.egress.append(table)

    # Partition metadata: fields written before and read after the cut.
    written_ingress: Set[str] = set()
    for table in result.ingress:
        written_ingress |= table.writes
    read_egress: Set[str] = set()
    for table in result.egress:
        read_egress |= table.reads
    crossing = sorted(
        f
        for f in written_ingress & read_egress
        if not f.startswith("im.") and not f.endswith(".$valid")
    )
    result.partition_metadata = crossing
    return result
