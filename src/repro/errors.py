"""Shared exception hierarchy for the µP4 reproduction.

All compiler-facing errors derive from :class:`CompileError` so that tools
(and tests) can distinguish "the user's program is wrong" from internal
bugs.  Each stage refines the base class.

Every class carries two machine-readable attributes:

* ``code`` — a stable string identifying the error family (shown by the
  CLI as ``error[<code>]: ...`` and usable by scripts), and
* ``exit_code`` — the process exit status the CLI maps the class to:
  ``2`` for compile errors, ``3`` for target resource exhaustion, ``4``
  for behavioral-target runtime errors, ``1`` for other package errors.
  Unexpected (non-:class:`ReproError`) exceptions exit ``70`` (EX_SOFTWARE).

Instances may override ``code`` by assignment when a more specific
diagnostic tag is useful.
"""

from __future__ import annotations

from typing import Dict, Optional

#: CLI exit statuses (documented in ``python -m repro --help``).
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_COMPILE_ERROR = 2
EXIT_RESOURCE_ERROR = 3
EXIT_TARGET_ERROR = 4
EXIT_INTERNAL_ERROR = 70
EXIT_INTERRUPTED = 130


class ReproError(Exception):
    """Base class for every error raised by this package."""

    code: str = "error"
    exit_code: int = EXIT_ERROR

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable form for ``--json`` CLI failure output.

        Always carries ``error``/``code``/``exit_code``; adds ``loc``
        (source location), ``reason`` and ``site`` (fault containment)
        when the concrete class defines them.
        """
        out: Dict[str, object] = {
            "error": str(self),
            "code": self.code,
            "exit_code": self.exit_code,
        }
        loc = getattr(self, "loc", None)
        if loc is not None:
            out["loc"] = str(loc)
        for extra in ("reason", "site"):
            value = getattr(self, extra, None)
            if value is not None:
                out[extra] = value
        return out


class CompileError(ReproError):
    """A µP4/P4 source program failed to compile.

    Parameters
    ----------
    message:
        Human-readable description.
    loc:
        Optional :class:`~repro.frontend.source.SourceLocation`.
    """

    code = "compile-error"
    exit_code = EXIT_COMPILE_ERROR

    def __init__(self, message: str, loc: Optional[object] = None) -> None:
        self.message = message
        self.loc = loc
        super().__init__(self._format())

    def _format(self) -> str:
        if self.loc is not None:
            return f"{self.loc}: {self.message}"
        return self.message


class LexError(CompileError):
    """Invalid character sequence in source text."""

    code = "lex-error"


class ParseError(CompileError):
    """Syntactically invalid source text."""

    code = "parse-error"


class TypeCheckError(CompileError):
    """Semantically invalid program (name/type/direction errors)."""

    code = "type-error"


class LinkError(CompileError):
    """Module composition failed (missing modules, cycles, arity)."""

    code = "link-error"


class AnalysisError(CompileError):
    """Static analysis could not bound the operational region."""

    code = "analysis-error"


class BackendError(CompileError):
    """Target code generation or resource allocation failed."""

    code = "backend-error"


class ResourceError(BackendError):
    """The target's hardware resources cannot fit the program.

    This mirrors ``bf-p4c`` rejecting a program (paper §6.3, Table 2's
    "Monolithic failed to compile" row).
    """

    code = "resource-error"
    exit_code = EXIT_RESOURCE_ERROR


class TargetError(ReproError):
    """Runtime error inside the behavioral target (bad entry, bad packet)."""

    code = "target-error"
    exit_code = EXIT_TARGET_ERROR
