"""A ratchet on the bytecodes the packet path executes, per layer.

Inline P4 on codegen, 2 048 packets, seed 1234, routable and mixed at a
10 % fault rate (:mod:`tests.cost.bytecodes`).  Each ``repro`` layer has
a ceiling in bytecodes per packet; the count is exact, so a layer over
its ceiling executes more than it did.  A change that lowers a count
lowers its ceiling with it; one that raises a ceiling says why in
CHANGES.md.  Layers outside ``repro`` (``other``) are reported in the
failure message, not pinned.

Bytecode differs between Python minor versions, so the ceilings hold
on 3.11 only; they were measured on 3.11.7, with 2 % headroom for what
a patch release may compile differently.  Without numpy the batches run
the lane loop, another program, so nothing is pinned there either.
"""

import sys

import pytest

from repro.targets.vector import NUMPY_AVAILABLE
from tests.cost.bytecodes import SHAPES, per_packet

pytestmark = [
    pytest.mark.skipif(
        sys.version_info[:2] != (3, 11), reason="ceilings measured on 3.11"
    ),
    pytest.mark.skipif(not NUMPY_AVAILABLE, reason="the columnwise tier needs numpy"),
]

#: shape -> repro layer -> bytecodes per packet (measured in comments).
CEILINGS = {
    "mixed": {
        "targets.faults": 424,  # 414.92
        "targets.vector": 383,  # 375.24
        "targets.switch": 192,  # 188.16
        "targets.soak": 169,  # 164.73
        "net.packet": 25,  # 24.34
        "obs.telemetry": 14,  # 12.90
        "targets.tables": 7,  # 6.63
        "generated": 7,  # 6.51
        "targets.runtime_api": 2,  # 1.64
        "targets.codegen": 1,  # 0.57
        "midend.optimize": 1,  # 0.29
        "targets.backends": 1,  # 0.02
        "midend.inline": 1,  # 0.01
    },
    "routable": {
        "targets.soak": 134,  # 130.75
        "targets.switch": 123,  # 119.98
        "targets.vector": 82,  # 80.38
        "targets.faults": 34,  # 32.95
        "net.packet": 29,  # 27.85
        "obs.telemetry": 13,  # 12.45
        "targets.tables": 7,  # 6.63
        "generated": 7,  # 6.13
        "targets.runtime_api": 2,  # 1.64
        "targets.codegen": 1,  # 0.57
        "midend.optimize": 1,  # 0.29
        "targets.backends": 1,  # 0.02
        "midend.inline": 1,  # 0.01
    },
}


def test_every_shape_is_pinned():
    assert set(CEILINGS) == set(SHAPES)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_repro_layers_stay_under_their_ceilings(shape):
    counts = per_packet(shape)
    ceilings = CEILINGS[shape]
    over = {
        layer: (round(n, 2), ceilings.get(layer, 0))
        for layer, n in counts.items()
        if layer != "other" and n > ceilings.get(layer, 0)
    }
    report = {layer: round(n, 2) for layer, n in counts.items()}
    assert not over, f"(count, ceiling) over: {over}; all layers: {report}"
