"""Generic AST traversal and rewriting helpers.

These operate structurally over the dataclass-based AST, so midend passes
do not each need to know every node's field layout.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.frontend import astnodes as ast

# Checker annotations, not program structure: a traversal that entered
# ``Expr.type`` would re-walk a header's whole field list from every
# expression that mentions it.
_ANNOTATIONS = ("loc", "type", "decl")

_CHILD_FIELDS: Dict[type, Tuple[str, ...]] = {}


def children(node: ast.Node) -> Iterator[ast.Node]:
    """Yield the direct child nodes of ``node`` (annotations excluded)."""
    names = _CHILD_FIELDS.get(type(node))
    if names is None:
        names = _CHILD_FIELDS[type(node)] = tuple(
            f.name
            for f in dataclasses.fields(node)
            if f.name not in _ANNOTATIONS
        )
    for name in names:
        yield from _nodes_in(getattr(node, name))


def _nodes_in(value: Any) -> Iterator[ast.Node]:
    if isinstance(value, ast.Node):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _nodes_in(item)


def walk(node: ast.Node) -> Iterator[ast.Node]:
    """Depth-first pre-order walk of the subtree rooted at ``node``."""
    yield node
    for child in children(node):
        yield from walk(child)


def walk_expressions(node: ast.Node) -> Iterator[ast.Expr]:
    """Yield every expression in the subtree."""
    for n in walk(node):
        if isinstance(n, ast.Expr):
            yield n


def rewrite_expressions(
    node: ast.Node, fn: Callable[[ast.Expr], Optional[ast.Expr]]
) -> ast.Node:
    """Rewrite expressions bottom-up, *in place*, returning ``node``.

    ``fn`` receives each expression after its children have been rewritten
    and returns a replacement or ``None`` to keep it.  Statement and
    declaration structure is preserved.
    """
    _rewrite_children(node, fn)
    if isinstance(node, ast.Expr):
        replacement = fn(node)
        if replacement is not None:
            return replacement
    return node


# Module-level, not closures inside ``rewrite_expressions``: two nested
# functions that call each other form a reference cycle, which would
# hold ``fn`` (and what its own closure holds, often a whole program)
# until a full collection.
def _rewrite_value(value: Any, fn) -> Any:
    if isinstance(value, ast.Expr):
        _rewrite_children(value, fn)
        replacement = fn(value)
        return replacement if replacement is not None else value
    if isinstance(value, ast.Node):
        _rewrite_children(value, fn)
        return value
    if isinstance(value, list):
        return [_rewrite_value(v, fn) for v in value]
    if isinstance(value, tuple):
        return tuple(_rewrite_value(v, fn) for v in value)
    return value


def _rewrite_children(n: ast.Node, fn) -> None:
    for f in dataclasses.fields(n):
        if f.name in _ANNOTATIONS:
            continue
        setattr(n, f.name, _rewrite_value(getattr(n, f.name), fn))
