"""MAU stage scheduling (Table 3).

Logical tables are placed greedily into pipeline stages under RMT
ordering rules:

* a *match dependency* (an earlier table writes a field this table
  matches or is predicated on) forces the next stage,
* an *action dependency* (write/read or write/write overlap between
  actions) also forces the next stage,
* independent tables may share a stage subject to per-stage capacity:
  the logical-table count and the exact/ternary match crossbar budgets.

Tables that the split pass rewrote into a series of MATs occupy extra
consecutive stages (their combine-tree depth).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ResourceError
from repro.backend.base import LogicalTable
from repro.backend.tna.descriptor import TofinoDescriptor
from repro.backend.tna.split import SplitResult
from repro.obs.metrics import METRICS


@dataclass
class StageUse:
    tables: List[str] = field(default_factory=list)
    exact_bits: int = 0
    ternary_bits: int = 0


@dataclass
class ScheduleResult:
    """Stage placement of every logical table."""

    placement: Dict[str, int] = field(default_factory=dict)
    stages: List[StageUse] = field(default_factory=list)
    dependencies: List[tuple] = field(default_factory=list)

    @property
    def num_stages(self) -> int:
        return len(self.stages)


def _crossbar_demand(table: LogicalTable) -> tuple:
    """(exact_bits, ternary_bits) the table needs on the match crossbar."""
    exact = 0
    ternary = 0
    if table.decl is None:
        return 0, 0
    for key, kind in zip(table.decl.keys, table.match_kinds):
        width = 0
        t = key.expr.type
        if hasattr(t, "width"):
            width = t.width  # type: ignore[union-attr]
        elif t is not None and type(t).__name__ == "BoolType":
            width = 1
        if kind in ("ternary", "lpm", "range"):
            ternary += width
        else:
            exact += width
    return exact, ternary


def schedule_stages(
    tables: List[LogicalTable],
    split: Optional[SplitResult],
    desc: TofinoDescriptor,
) -> ScheduleResult:
    """Greedy dependency-respecting stage assignment."""
    result = ScheduleResult()
    # effective_end[name]: last stage a table (plus its split chain) uses.
    effective_end: Dict[str, int] = {}
    placed: List[LogicalTable] = []

    for table in tables:
        earliest = 0
        for earlier in placed:
            dep = table.depends_on(earlier)
            if dep is not None:
                earliest = max(earliest, effective_end[earlier.name] + 1)
                result.dependencies.append((earlier.name, table.name, dep))
        exact, ternary = _crossbar_demand(table)
        stage = earliest
        while True:
            while len(result.stages) <= stage:
                result.stages.append(StageUse())
            use = result.stages[stage]
            if (
                len(use.tables) < desc.tables_per_stage
                and use.exact_bits + exact <= desc.exact_crossbar_bits
                and use.ternary_bits + ternary <= desc.ternary_crossbar_bits
            ):
                break
            stage += 1
        use = result.stages[stage]
        use.tables.append(table.name)
        use.exact_bits += exact
        use.ternary_bits += ternary
        result.placement[table.name] = stage
        extra = split.extra_depth.get(table.name, 0) if split else 0
        end = stage + extra
        while len(result.stages) <= end:
            result.stages.append(StageUse())
        for chain_stage in range(stage + 1, end + 1):
            result.stages[chain_stage].tables.append(f"{table.name}$split")
        effective_end[table.name] = end
        placed.append(table)

    METRICS.set_gauge("tna.schedule.stages_used", result.num_stages)
    METRICS.set_gauge("tna.schedule.dependencies", len(result.dependencies))
    for use in result.stages:
        METRICS.observe("tna.schedule.stage_occupancy", len(use.tables))
    if result.num_stages > desc.num_stages:
        raise ResourceError(
            f"program needs {result.num_stages} MAU stages; the target has "
            f"{desc.num_stages}"
        )
    return result
