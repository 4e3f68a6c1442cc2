"""Linking µP4-IR modules (§5.1 midend step 1).

The linker takes the main module plus a set of library modules and
resolves every module instantiation (``L3() l3_i;``) to the program that
provides it.  A caller refers to callees through module signature
declarations; the provider is a ``program`` with the same name whose
derived apply signature matches.

The linker also rejects cyclic composition (the recursion check that the
paper's prototype leaves for future work, §6.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.errors import LinkError
from repro.frontend import astnodes as ast
from repro.frontend.typecheck import Module, ProgramInfo
from repro.obs.metrics import METRICS


@dataclass
class LinkedUnit:
    """One program together with the module that declared it."""

    module: Module
    program: ProgramInfo

    @property
    def name(self) -> str:
        return self.program.name


@dataclass
class LinkedProgram:
    """A fully linked composition rooted at the main program."""

    main: LinkedUnit
    providers: Dict[str, LinkedUnit] = field(default_factory=dict)

    def resolve(self, program_name: str) -> LinkedUnit:
        try:
            return self.providers[program_name]
        except KeyError:
            raise LinkError(f"no provider for module {program_name!r}") from None

    def callee_of(self, caller: ProgramInfo, instance_name: str) -> LinkedUnit:
        """Resolve an instance declared in ``caller`` to its provider."""
        inst = caller.instances.get(instance_name)
        if inst is None:
            raise LinkError(
                f"program {caller.name!r} has no module instance "
                f"{instance_name!r}"
            )
        return self.resolve(inst.target)

    def units(self) -> List[LinkedUnit]:
        """All reachable units, callees before callers (topological)."""
        order: List[LinkedUnit] = []
        self._postorder(self.main, set(), order)
        return order

    # A method, not a nested closure: a closure that calls itself holds
    # itself through its cell, a cycle that would keep the whole
    # composition alive until a full collection.
    def _postorder(
        self, unit: LinkedUnit, seen: Set[str], order: List[LinkedUnit]
    ) -> None:
        if unit.name in seen:
            return
        seen.add(unit.name)
        for inst in unit.program.instances.values():
            self._postorder(self.resolve(inst.target), seen, order)
        order.append(unit)


def _types_compatible(a: ast.Type, b: ast.Type) -> bool:
    if isinstance(a, ast.BitType) and isinstance(b, ast.BitType):
        return a.width == b.width
    if isinstance(a, ast.ExternType) and isinstance(b, ast.ExternType):
        return a.name == b.name
    if isinstance(a, (ast.StructType, ast.HeaderType)) and isinstance(
        b, (ast.StructType, ast.HeaderType)
    ):
        return a.name == b.name
    if isinstance(a, ast.TypeName) and isinstance(b, ast.ExternType):
        return a.name == b.name
    if isinstance(b, ast.TypeName) and isinstance(a, ast.ExternType):
        return b.name == a.name
    return type(a) is type(b)


def check_signature(sig: ast.ModuleSigDecl, provider: ProgramInfo) -> None:
    """Verify a caller-side signature against the provider's interface."""
    expected = provider.apply_signature()
    if len(sig.params) != len(expected):
        raise LinkError(
            f"module {sig.name!r}: caller declares {len(sig.params)} "
            f"parameters but program {provider.name!r} exposes {len(expected)}",
            sig.loc,
        )
    for caller_p, provider_p in zip(sig.params, expected):
        if caller_p.direction != provider_p.direction:
            raise LinkError(
                f"module {sig.name!r}: parameter {caller_p.name!r} direction "
                f"{caller_p.direction or 'none'!r} does not match provider's "
                f"{provider_p.direction or 'none'!r}",
                sig.loc,
            )
        if not _types_compatible(caller_p.param_type, provider_p.param_type):
            raise LinkError(
                f"module {sig.name!r}: parameter {caller_p.name!r} type "
                f"mismatch with provider",
                sig.loc,
            )


def link_modules(main: Module, libraries: Optional[List[Module]] = None) -> LinkedProgram:
    """Link ``main`` against ``libraries`` and return the composition.

    Every program in every module (including ``main``) becomes a
    potential provider; module signature declarations are resolved by
    name and validated structurally.
    """
    libraries = libraries or []
    providers: Dict[str, LinkedUnit] = {}
    for module in [main, *libraries]:
        for name, info in module.programs.items():
            if name in providers:
                raise LinkError(
                    f"module {name!r} provided by both "
                    f"{providers[name].module.name!r} and {module.name!r}"
                )
            providers[name] = LinkedUnit(module=module, program=info)

    main_info = main.main_program()
    linked = LinkedProgram(
        main=LinkedUnit(module=main, program=main_info), providers=providers
    )

    # Resolve and validate every instance of every reachable program, and
    # reject cycles along the way.
    _resolve(linked.main, [], providers, {})
    METRICS.set_gauge("linker.providers", len(providers))
    return linked


def _resolve(
    unit: LinkedUnit,
    trail: List[str],
    providers: Dict[str, LinkedUnit],
    visiting: Dict[str, int],
) -> None:
    """Depth-first resolution for :func:`link_modules`; ``visiting``:
    0 on the stack, 1 done."""
    mark = visiting.get(unit.name)
    if mark == 0:
        cycle = " -> ".join(trail + [unit.name])
        raise LinkError(f"recursive module composition: {cycle}")
    if mark == 1:
        return
    visiting[unit.name] = 0
    for inst in unit.program.instances.values():
        if inst.target not in providers:
            raise LinkError(
                f"program {unit.name!r} instantiates {inst.target!r} "
                f"but no library provides it",
                inst.loc,
            )
        sig = unit.module.module_sigs.get(inst.target)
        provider = providers[inst.target]
        if sig is not None:
            check_signature(sig, provider.program)
            METRICS.inc("linker.signatures_checked")
        METRICS.inc("linker.instances_resolved")
        _resolve(provider, trail + [unit.name], providers, visiting)
    visiting[unit.name] = 1
