"""The IR sharing contract (DESIGN.md §17): types and source locations
are immutable values a clone shares; statements, expressions and
declarations are nodes a clone copies.

Everything here is count- or identity-based — no wall-clock gates.
"""

import copy
import hashlib

import pytest

from repro.core.driver import CompilerOptions, Up4Compiler
from repro.frontend import astnodes as ast
from repro.frontend.json_ir import dump_module
from repro.frontend.typecheck import check_program
from repro.ir.visitor import walk
from repro.lib.catalog import COMPOSITIONS, PROGRAMS, link_composition
from repro.lib.loader import compile_library_module, load_module_source
from repro.midend.hdr_stack import lower_header_stacks
from repro.midend.inline import compose
from repro.midend.varlen import lower_varlen_headers
from repro.targets.backends import make_pipeline
from tests.midend.test_hdr_stack import SRC as STACK_SRC
from tests.midend.test_varlen import SRC as VARLEN_SRC

EXECUTORS = ("interp", "codegen", "vector")
CATALOG_MODULES = sorted({m for recipe in COMPOSITIONS.values() for m in recipe})


def fingerprint(root) -> str:
    """sha256 over everything reachable from ``root`` — instance
    attributes (dataclass fields and the checker's ad-hoc annotations),
    containers, scalars — with a back-reference for an object met twice.
    Any in-place edit of a reachable node or type changes it."""
    digest = hashlib.sha256()
    seen = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if obj is None or isinstance(obj, (bool, int, float, str)):
            digest.update(repr(obj).encode())
        elif isinstance(obj, (list, tuple)):
            digest.update(f"[{len(obj)}".encode())
            stack.extend(reversed(obj))
        elif isinstance(obj, dict):
            digest.update(f"{{{len(obj)}".encode())
            for key, value in reversed(list(obj.items())):
                stack.extend((value, key))
        elif id(obj) in seen:
            digest.update(f"#{seen[id(obj)]}".encode())
        else:
            seen[id(obj)] = len(seen)
            digest.update(type(obj).__name__.encode())
            for key, value in sorted(vars(obj).items(), reverse=True):
                stack.extend((value, key))
    return digest.hexdigest()


def reachable_types(root) -> dict:
    """``id -> Type`` for every type object reachable from ``root``."""
    types = {}
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif hasattr(obj, "__dict__") and id(obj) not in seen:
            seen.add(id(obj))
            if isinstance(obj, ast.Type):
                types[id(obj)] = obj
            stack.extend(vars(obj).values())
    return types


def compile_everything(main, libraries):
    """link → analyze → midend → both backends → the executors; the
    v1model and generated-executor sources' sha256."""
    compiler = Up4Compiler()
    linked = compiler.link(main, libraries)
    composed = compiler.midend(linked, compiler.analyze(linked))
    Up4Compiler(CompilerOptions(target="tna")).backend(composed)
    v1model = Up4Compiler(CompilerOptions(target="v1model")).backend(composed)
    sources = [v1model.source_text]
    for backend in EXECUTORS:
        pipeline = make_pipeline(composed, backend)
        if backend == "codegen":
            sources.append(pipeline.source)
    return [hashlib.sha256(s.encode()).hexdigest() for s in sources]


def compile_catalog_program(name):
    recipe = [compile_library_module(m) for m in COMPOSITIONS[name]]
    return compile_everything(recipe[0], recipe[1:])


# ----------------------------------------------------------------------
class TestCloneSharesValues:
    @pytest.fixture(scope="class")
    def control(self):
        return compile_library_module("srv6").main_program().control

    def test_expression_clone_shares_its_type(self, control):
        kinds = {}
        for node in walk(control):
            if isinstance(node, ast.Expr) and node.type is not None:
                kinds.setdefault(type(node), node)
        assert ast.MemberExpr in kinds and ast.PathExpr in kinds
        for expr in kinds.values():
            copied = expr.clone()
            assert copied is not expr
            assert copied.type is expr.type
            assert copied.loc is expr.loc

    def test_slice_and_index_expressions_share_their_types(self):
        base = ast.PathExpr(name="h")
        base.type = ast.HeaderStackType(element=ast.TypeName(name="e_h"), size=2)
        index = ast.IndexExpr(base=base, index=ast.IntLit(value=1))
        index.type = ast.HeaderType(name="e_h", fields=[("x", ast.BitType(width=16))])
        member = ast.MemberExpr(base=index, member="x")
        member.type = index.type.field_type("x")
        sliced = ast.SliceExpr(base=member, hi=7, lo=0)
        sliced.type = ast.BitType(width=8)
        copied = sliced.clone()
        for old, new in zip(walk(sliced), walk(copied)):
            assert new is not old and type(new) is type(old)
            assert new.type is old.type

    def test_a_type_clones_to_itself(self):
        hdr = ast.HeaderType(name="e_h", fields=[("x", ast.BitType(width=8))])
        assert hdr.clone() is hdr
        assert copy.deepcopy([hdr, hdr.loc]) == [hdr, hdr.loc]
        assert copy.deepcopy(hdr.loc) is hdr.loc


class TestProgramCloneCopiesNodes:
    @pytest.fixture(scope="class")
    def pair(self):
        decl = compile_library_module("l3_srv6").main_program().decl
        return decl, decl.clone()

    def test_no_node_is_shared(self, pair):
        original, copied = pair
        originals = {
            id(n) for n in walk(original) if not isinstance(n, ast.Type)
        }
        clones = [n for n in walk(copied) if not isinstance(n, ast.Type)]
        assert len(clones) == len(originals) > 50
        assert not [n for n in clones if id(n) in originals]

    def test_aliases_resolve_inside_the_clone(self, pair):
        """``call.resolved = ("module", <InstanceDecl>)`` and
        ``PathExpr.decl`` are second references to nodes of the same
        program; one ``deepcopy`` memo re-points them into the clone."""
        original, copied = pair
        inside = {id(n) for n in walk(copied)}
        outside = {id(n) for n in walk(original)}
        aliases = 0
        for node in walk(copied):
            targets = [getattr(node, "decl", None)]
            targets.extend(getattr(node, "resolved", ()))
            for target in targets:
                if isinstance(target, ast.Node) and not isinstance(target, ast.Type):
                    assert id(target) not in outside
                    aliases += id(target) in inside
        assert aliases >= 3  # one module apply per L3 callee


class TestCompilingLeavesTheLibraryAlone:
    def test_the_fingerprint_sees_an_in_place_type_edit(self):
        module = check_program(
            "header e_h { bit<8> x; } struct s_t { e_h e; }", "probe"
        )
        before = fingerprint(module)
        assert fingerprint(module) == before
        module.types["s_t"].field_type("e").fields.append(
            ("y", ast.BitType(width=8))
        )
        assert fingerprint(module) != before

    def test_catalog_modules_and_their_types_survive_two_passes(self):
        modules = {name: compile_library_module(name) for name in CATALOG_MODULES}
        types_before = {
            name: reachable_types(m) for name, m in modules.items()
        }
        before = {name: fingerprint(m) for name, m in modules.items()}
        assert all(len(t) > 10 for t in types_before.values())

        first = {name: compile_catalog_program(name) for name in PROGRAMS}
        second = {name: compile_catalog_program(name) for name in PROGRAMS}

        assert first == second  # v1model and codegen sha256 per program
        assert {name: fingerprint(m) for name, m in modules.items()} == before
        for name, module in modules.items():
            # Same type *objects*, not merely equal ones.
            assert reachable_types(module).keys() == types_before[name].keys()

    @pytest.mark.parametrize("source", [STACK_SRC, VARLEN_SRC], ids=["stack", "varbit"])
    def test_lowered_modules_survive_compilation(self, source):
        checked = check_program(source, "lowered")
        raw = fingerprint(checked)
        module = Up4Compiler().frontend(source, "lowered")
        # Lowering rewrote a clone of the source AST, not the input.
        assert fingerprint(checked) == raw
        before = fingerprint(module)
        first = compile_everything(module, [])
        assert compile_everything(module, []) == first
        assert fingerprint(module) == before


class TestModulesSharedAcrossCompositions:
    """Separate compilation (Fig. 4a): the driver keeps one ``Module``
    per source, and P1 and P4 link the *same* ``eth`` / ``ipv4`` /
    ``ipv6`` objects — in either order, with the outputs fresh
    front-ends give and the shared modules' µP4-IR untouched."""

    @staticmethod
    def outputs(name, frontend):
        modules = [
            frontend(load_module_source(m), f"{m}.up4")
            for m in COMPOSITIONS[name]
        ]
        compiler = Up4Compiler()
        linked = compiler.link(modules[0], modules[1:])
        composed = compiler.midend(linked, compiler.analyze(linked))
        tna = Up4Compiler(CompilerOptions(target="tna")).backend(composed)
        v1model = Up4Compiler(CompilerOptions(target="v1model")).backend(composed)
        return (
            tna.num_stages,
            tna.bits_allocated,
            hashlib.sha256(v1model.source_text.encode()).hexdigest(),
        )

    @pytest.mark.parametrize("order", [("P1", "P4"), ("P4", "P1")])
    def test_both_orders(self, order, monkeypatch):
        from repro.core import driver

        def uncached(source, name):
            return lower_varlen_headers(
                lower_header_stacks(check_program(source, name))
            )

        fresh = {name: self.outputs(name, uncached) for name in order}

        monkeypatch.setattr(driver, "_MODULES", {})
        frontend = Up4Compiler().frontend
        shared = {
            m: frontend(load_module_source(m), f"{m}.up4")
            for m in ("eth", "ipv4", "ipv6")
        }
        ir_before = {m: dump_module(mod) for m, mod in shared.items()}
        for name in order:
            assert self.outputs(name, frontend) == fresh[name]
            for m, module in shared.items():
                assert m in COMPOSITIONS[name]
                # The composition linked this very object ...
                assert frontend(load_module_source(m), f"{m}.up4") is module
                # ... and left its µP4-IR byte for byte as it was.
                assert dump_module(module) == ir_before[m]


class TestCopyCount:
    def test_p7_midend_copies_few_objects(self, monkeypatch):
        """Objects copied under ``Node.clone`` while composing P7, read
        off each call's ``deepcopy`` memo: 310 570 when every clone
        dragged ``hdr_t`` along through ``Expr.type`` (2 212 clones,
        1 057 134 ``deepcopy`` calls), 4 086 with shared types and
        locations and one ``hdr.f`` node per written-back field (597
        clones)."""
        linked = link_composition("P7")
        clones = copied = 0
        real = copy.deepcopy

        def counting(obj, memo=None, _nil=[]):
            nonlocal clones, copied
            memo = {} if memo is None else memo
            out = real(obj, memo, _nil)
            clones += 1
            copied += len(memo)
            return out

        monkeypatch.setattr(copy, "deepcopy", counting)
        composed = compose(linked)
        monkeypatch.undo()
        assert len(composed.tables) == 14
        assert 100 < clones <= 1_000, clones
        assert 1_000 < copied <= 10_000, copied
