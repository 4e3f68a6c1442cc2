"""Lane representation: which struct/header variables of a composed
program are *placed* — one cell per leaf field plus one validity cell
per header — instead of being built as ``StructValue``/``HeaderValue``
objects for every packet.

µP4C's backends put header fields and the byte stack into PHV
containers (§6.3); the behavioral executors' containers are Python
locals (``codegen``'s lane loop) and numpy columns (its columnwise
tier, ``vector``).  Both take the
layout and the per-variable decision from here, so the rule is written
once:

* **Layout** (:func:`flat_layout`): a struct of headers, ``bit<W>`` /
  ``bool`` fields and nested structs, or a bare header of ``bit<W>``
  fields.  Fields start 0, bools and header validity start False —
  what ``interpreter.default_value`` builds as objects.  Anything else
  (varbit, header stack, enum, extern) has no layout.
* **Escape rule** (:func:`lane_variables`): a name is flattened only
  when *every* occurrence in the program is a statically typed leaf
  read or store (``x.h.f``) or ``isValid``/``setValid``/``setInvalid``
  on a directly named header (``x.h``).  A whole-value copy, an extern
  or action argument, an untyped member path, or a second declaration
  of another type keeps the object form.  The decision is all-or-
  nothing per *name*: the executors bind names to storage lexically
  (and action bodies are inlined at their apply sites), so one walk
  that never has to model scopes can only be sound per name.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.frontend import astnodes as ast
from repro.midend.inline import ComposedPipeline

#: ``("struct", {field: node})``, ``("hdr", validity_cell, {field:
#: node})`` or the leaf ``("val", cell, width)`` (``width`` None: bool).
LaneNode = Tuple


class FlatLayout:
    """The cells of one flattened variable type.

    ``root`` is a :data:`LaneNode` tree over cell numbers ``0..n-1`` in
    declaration order (a header's validity cell just before its
    fields).  ``widths[cell]`` is W for a ``bit<W>`` cell, which starts
    0, and None for a bool or validity cell, which starts False;
    ``labels[cell]`` is the field (or header) it holds, for naming.
    """

    __slots__ = ("root", "widths", "labels")

    def __init__(self, root: LaneNode, widths: Sequence[Optional[int]],
                 labels: Sequence[str]) -> None:
        self.root = root
        self.widths = tuple(widths)
        self.labels = tuple(labels)

    def bind(self, handles: Sequence, node: Optional[LaneNode] = None) -> LaneNode:
        """``root`` (or ``node`` in it) with every cell number replaced
        by ``handles[cell]`` — a local's name, a slot index."""
        node = self.root if node is None else node
        if node[0] == "val":
            return ("val", handles[node[1]], node[2])
        if node[0] == "hdr":
            return ("hdr", handles[node[1]],
                    {f: self.bind(handles, n) for f, n in node[2].items()})
        return ("struct", {f: self.bind(handles, n) for f, n in node[1].items()})


# Every walk here is a method or a module-level function: a closure that
# calls itself holds itself through its cell, a cycle that would keep
# what it closes over (a program) until a full collection.
def flat_layout(vtype: ast.Type) -> Tuple[Optional[FlatLayout], str]:
    """``(layout, "")`` for a flattenable struct/header type, else
    ``(None, why)``."""
    cells: List[Tuple[Optional[int], str]] = []  # (width, label)
    if isinstance(vtype, ast.StructType):
        root = _struct(vtype, cells)
    elif isinstance(vtype, ast.HeaderType):
        root = _header(vtype.name, vtype, cells)
    else:
        return None, f"type {type(vtype).__name__}"
    if isinstance(root, str):
        return None, root
    return FlatLayout(root, [c[0] for c in cells], [c[1] for c in cells]), ""


def _cell(cells: list, width: Optional[int], label: str) -> int:
    cells.append((width, label))
    return len(cells) - 1


def _header(name: str, htype: ast.HeaderType, cells: list):
    valid = _cell(cells, None, name)
    fields = {}
    for fname, ftype in htype.fields:
        if not isinstance(ftype, ast.BitType):
            return f"header field {fname!r} of {type(ftype).__name__}"
        fields[fname] = ("val", _cell(cells, ftype.width, fname), ftype.width)
    return ("hdr", valid, fields)


def _struct(stype: ast.StructType, cells: list):
    fields = {}
    for fname, ftype in stype.fields:
        if isinstance(ftype, ast.HeaderType):
            node = _header(fname, ftype, cells)
        elif isinstance(ftype, ast.StructType):
            node = _struct(ftype, cells)
        elif isinstance(ftype, ast.BitType):
            node = ("val", _cell(cells, ftype.width, fname), ftype.width)
        elif isinstance(ftype, ast.BoolType):
            node = ("val", _cell(cells, None, fname), None)
        else:
            node = f"struct field {fname!r} of {type(ftype).__name__}"
        if isinstance(node, str):
            return node
        fields[fname] = node
    return ("struct", fields)


def resolve_member(
    e: ast.Expr, root_of: Callable[[str], Optional[LaneNode]]
) -> Optional[LaneNode]:
    """The node a member chain names; ``root_of(name)`` is the bound
    root of a flattened variable, None for any other name.  None too
    when the chain is rooted elsewhere or leaves the layout."""
    if isinstance(e, ast.PathExpr):
        return root_of(e.name)
    if isinstance(e, ast.MemberExpr):
        base = resolve_member(e.base, root_of)
        if base is None or base[0] == "val":
            return None
        return base[-1].get(e.member)
    return None


class LaneVars:
    """The per-name decision for one composed program: ``flat`` maps a
    flattened name to its layout, ``object_form`` maps every other
    struct/header name to the reason it keeps the object form."""

    __slots__ = ("flat", "object_form")

    def __init__(self, flat: Dict[str, FlatLayout],
                 object_form: Dict[str, str]) -> None:
        self.flat = flat
        self.object_form = object_form


def _chain_root(e: ast.Expr) -> Optional[str]:
    while isinstance(e, ast.MemberExpr):
        e = e.base
    return e.name if isinstance(e, ast.PathExpr) else None


class _Uses:
    """How a program uses each name: what :func:`lane_variables` decides from."""

    def __init__(self, composed: ComposedPipeline) -> None:
        self.root_vars = composed.variables
        #: name -> declared types (root variables, block and parser locals).
        self.declared: Dict[str, List[ast.Type]] = {
            name: [vtype] for name, vtype in composed.variables.items()
        }
        self.reasons: Dict[str, str] = {}
        #: name -> member chains rooted at it, with whether a header op
        #: (rather than a leaf access) sits on top.
        self.chains: Dict[str, List[Tuple[ast.Expr, bool]]] = {}

    def visit(self, node) -> None:
        if isinstance(node, (list, tuple)):
            for n in node:
                self.visit(n)
            return
        if not isinstance(node, ast.Node) or isinstance(node, ast.Type):
            return
        if isinstance(node, ast.PathExpr):
            self.reasons.setdefault(node.name, "used as a whole value")
            return
        if isinstance(node, ast.MemberExpr):
            name = _chain_root(node)
            if name is None:
                self.visit(node.base)
            else:
                self.chains.setdefault(name, []).append((node, False))
            return
        if isinstance(node, ast.MethodCallExpr):
            resolved = getattr(node, "resolved", None)
            target = node.target
            name = None
            if (resolved is not None and resolved[0] == "header_op"
                    and isinstance(target, ast.MemberExpr)):
                name = _chain_root(target.base)
            if name is None:
                self.visit(target)
            else:
                self.chains.setdefault(name, []).append((target.base, True))
            self.visit(node.args)
            return
        if isinstance(node, (ast.VarDeclStmt, ast.VarLocal)):
            if node.name in self.root_vars:
                self.reasons.setdefault(node.name, "redeclares a root variable")
            if node.init is not None:
                self.reasons.setdefault(node.name, "declared with an initialiser")
                self.visit(node.init)
            self.declared.setdefault(node.name, []).append(node.var_type)
            return
        for attr, value in vars(node).items():
            # Resolution back-references would re-walk whole declarations.
            if attr not in ("decl", "resolved"):
                self.visit(value)


def lane_variables(composed: ComposedPipeline) -> LaneVars:
    """Decide every struct/header variable name of ``composed`` with
    one walk over everything an executor lowers: statements, action
    bodies, table keys, the native parser and emit list."""
    walk = _Uses(composed)
    walk.visit(composed.statements)
    for adecl in composed.actions.values():
        for p in adecl.params:
            walk.reasons.setdefault(p.name, "declared as an action parameter")
        walk.visit(adecl.body)
    walk.visit(list(composed.tables.values()))
    walk.visit(composed.native_parser)
    walk.visit(composed.native_emits)

    flat: Dict[str, FlatLayout] = {}
    object_form: Dict[str, str] = {}
    for name, types in walk.declared.items():
        vtype = types[0]
        if not isinstance(vtype, (ast.StructType, ast.HeaderType)):
            continue
        why = walk.reasons.get(name)
        layout = None
        if why is None and any(t is not vtype and t != vtype for t in types):
            why = "declared with more than one type"
        if why is None:
            layout, why = flat_layout(vtype)
        if layout is not None:
            why = _chains_escape(layout, walk.chains.get(name, ()))
        if why:
            object_form[name] = why
        else:
            flat[name] = layout
    return LaneVars(flat, object_form)


def _chains_escape(layout: FlatLayout, chains) -> str:
    """Why some member chain rooted at a variable of ``layout`` is not a
    typed leaf access or a header op on a header; "" when all are."""
    root = layout.root

    def root_of(_name: str) -> LaneNode:
        return root

    for e, header_op in chains:
        node = resolve_member(e, root_of)
        if header_op:
            if node is None or node[0] != "hdr":
                return "header op on a member that is not a header"
            continue
        if node is None or node[0] != "val":
            return f"member {e.member!r} used as a whole value or untyped"
        width = node[2]
        t = e.type
        typed = (
            isinstance(t, ast.BoolType) if width is None
            else isinstance(t, ast.BitType) and t.width == width
        )
        if not typed:
            return f"field {e.member!r} accessed without its declared type"
    return ""
