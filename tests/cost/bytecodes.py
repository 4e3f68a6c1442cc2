"""Bytecodes executed per packet, by layer.

``sys.settrace`` with ``f_trace_opcodes`` sees every bytecode the
interpreter runs in a Python frame, and ``co_filename`` says whose code
it is: a module of the ``repro`` package is its own layer
(``targets.soak``, ``targets.switch``, ...), the program's generated
code (filenames ``<codegen:…>`` / ``<vector:…>``) is the layer
``generated``, and everything else — the standard library, numpy's
Python parts, the methods ``dataclasses`` makes — is ``other``.  C code (numpy's kernels, builtins) runs no bytecode and
counts nothing.  With the collector off the counts are exact: the same
on every run and under every ``PYTHONHASHSEED``.

Run ``PYTHONPATH=src python -m tests.cost.bytecodes`` for the table.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, Dict

import repro
from repro.lib.catalog import build_pipeline
from repro.targets.soak import SoakConfig, soak_program

_PACKAGE = str(Path(repro.__file__).resolve().parent) + "/"

#: shape -> (traffic, fault rate); P4 inline on codegen, 2 048 packets.
SHAPES = {"routable": ("routable", 0.0), "mixed": ("mixed", 0.1)}
PACKETS = 2048
SEED = 1234


def layer_of(filename: str) -> str:
    if filename.startswith(("<codegen:", "<vector:")):
        return "generated"
    if filename.startswith(_PACKAGE):
        return filename[len(_PACKAGE):-len(".py")].replace("/", ".")
    return "other"


def count(run: Callable[[], object]) -> Counter:
    """Bytecodes ``run()`` executes, by layer, with the collector off
    (its callbacks would run at allocation-dependent points)."""
    counts: Counter = Counter()
    layers: Dict[str, str] = {}
    tracers: Dict[str, Callable] = {}

    def tracer_for(layer: str):
        def local(frame, event, _arg):
            if event == "opcode":
                counts[layer] += 1
            return local
        return local

    def on_call(frame, _event, _arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        filename = frame.f_code.co_filename
        layer = layers.get(filename)
        if layer is None:
            layer = layers[filename] = layer_of(filename)
        local = tracers.get(layer)
        if local is None:
            local = tracers[layer] = tracer_for(layer)
        return local

    enabled = gc.isenabled()
    gc.disable()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
        if enabled:
            gc.enable()
    return counts


def per_packet(shape: str) -> Dict[str, float]:
    """Bytecodes per packet by layer for one inline soak of ``shape``.
    A first, uncounted run of the same program generates its modules
    and settles first-use imports."""
    traffic, fault_rate = SHAPES[shape]
    config = SoakConfig(
        programs=["P4"], packets=PACKETS, seed=SEED, traffic=traffic,
        fault_rate=fault_rate, exec_backend="codegen",
    )
    composed = build_pipeline("P4")
    soak_program(config, "P4", composed=composed)
    counts = count(lambda: soak_program(config, "P4", composed=composed))
    return {layer: n / PACKETS for layer, n in sorted(counts.items())}


def main() -> None:
    for shape in SHAPES:
        counts = per_packet(shape)
        print(f"{shape}: {sum(counts.values()):.1f} bytecodes per packet")
        for layer, n in sorted(counts.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:24s} {n:10.2f}")


if __name__ == "__main__":
    main()
