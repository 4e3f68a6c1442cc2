"""Tofino resource envelope.

Numbers follow the publicly documented Tofino-1 figures (RMT paper,
"Programmable Data Plane at Terabit Speeds" slides): 224 PHV containers
(64×8b, 96×16b, 64×32b), 12 MAU stages, 16 logical tables per stage,
and action ALUs that combine at most two PHV sources into one
destination container per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class TofinoDescriptor:
    """Resource parameters of the modeled Tofino pipeline."""

    containers: Dict[int, int] = field(
        default_factory=lambda: {8: 64, 16: 96, 32: 64}
    )
    num_stages: int = 12
    tables_per_stage: int = 16
    # Match crossbar budgets per stage, in bits (128 B exact / 66 B ternary).
    exact_crossbar_bits: int = 1024
    ternary_crossbar_bits: int = 528
    # An action ALU writes one container from at most this many PHV sources.
    max_alu_sources: int = 2

    def scaled(self, factor: float) -> "TofinoDescriptor":
        """A descriptor with container pools scaled by ``factor`` —
        used by ablation benches to probe where programs stop fitting."""
        return TofinoDescriptor(
            containers={
                size: max(1, int(count * factor))
                for size, count in self.containers.items()
            },
            num_stages=self.num_stages,
            tables_per_stage=self.tables_per_stage,
            exact_crossbar_bits=self.exact_crossbar_bits,
            ternary_crossbar_bits=self.ternary_crossbar_bits,
            max_alu_sources=self.max_alu_sources,
        )
