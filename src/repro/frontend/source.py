"""Source locations and diagnostic formatting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class SourceLocation:
    """A position in a source file: 1-based line and column."""

    filename: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"

    def __deepcopy__(self, memo: dict) -> "SourceLocation":
        return self  # frozen: AST clones share locations


UNKNOWN_LOC = SourceLocation("<unknown>", 0, 0)


def format_snippet(source: str, loc: SourceLocation, message: str) -> str:
    """Render a caret-style diagnostic for ``loc`` inside ``source``.

    Returns just the message if the location is out of range.
    """
    lines = source.splitlines()
    if not (1 <= loc.line <= len(lines)):
        return f"{loc}: {message}"
    text = lines[loc.line - 1]
    caret = " " * max(loc.column - 1, 0) + "^"
    return f"{loc}: {message}\n    {text}\n    {caret}"


class SourceFile:
    """A named source text, used to attach locations to tokens."""

    def __init__(self, text: str, filename: str = "<string>") -> None:
        self.text = text
        self.filename = filename

    def location(self, line: int, column: int) -> SourceLocation:
        return SourceLocation(self.filename, line, column)

    def diagnostic(self, loc: SourceLocation, message: str) -> str:
        return format_snippet(self.text, loc, message)
