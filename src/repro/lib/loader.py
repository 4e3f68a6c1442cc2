"""Loading and compiling library module sources.

Module sources ship as package data (``modules/*.up4`` and
``monolithic/*.p4``).  Compiling one is :meth:`Up4Compiler.frontend
<repro.core.driver.Up4Compiler.frontend>` on its text — the same
check-and-lower passes and the same process-wide module cache as
``repro compile`` of that file, so a catalog recipe and the driver
share one :class:`Module` per source.
"""

from __future__ import annotations

import importlib.resources
from typing import List

from repro.core.driver import Up4Compiler
from repro.errors import CompileError
from repro.frontend.typecheck import Module


def _resource_dir(kind: str):
    base = importlib.resources.files("repro.lib")
    return base / kind


def list_sources(kind: str = "modules") -> List[str]:
    """Names (without extension) of available sources of ``kind``."""
    suffix = ".up4" if kind == "modules" else ".p4"
    out = []
    for entry in _resource_dir(kind).iterdir():
        if entry.name.endswith(suffix):
            out.append(entry.name[: -len(suffix)])
    return sorted(out)


def load_module_source(name: str, kind: str = "modules") -> str:
    """Raw source text of a library module."""
    suffix = ".up4" if kind == "modules" else ".p4"
    path = _resource_dir(kind) / f"{name}{suffix}"
    try:
        return path.read_text()
    except FileNotFoundError:
        available = ", ".join(list_sources(kind))
        raise CompileError(
            f"no library source {name!r} of kind {kind!r}; "
            f"available: {available}"
        ) from None


def compile_library_module(name: str, kind: str = "modules") -> Module:
    """One library module as µP4-IR, through the driver's front-end."""
    suffix = ".up4" if kind == "modules" else ".p4"
    return Up4Compiler().frontend(load_module_source(name, kind), name + suffix)
