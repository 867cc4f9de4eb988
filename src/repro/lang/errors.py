"""Errors raised by the requirement meta-language pipeline."""

from __future__ import annotations

__all__ = ["LangError", "LexError", "ParseError", "EvalError"]

#: why ``^`` faults when Python's ``**`` would return a complex number
COMPLEX_POWER = "negative base raised to a fractional power"


class LangError(Exception):
    """Base class; carries source position when known."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.message = message
        self.line = line
        self.col = col
        where = f" at line {line}" if line else ""
        where += f", col {col}" if col else ""
        super().__init__(f"{message}{where}")


class LexError(LangError):
    """Unrecognised character sequence in the requirement text."""


class ParseError(LangError):
    """Token stream does not match the grammar."""


class EvalError(LangError):
    """Runtime failure (division by zero, type mismatch, ...).

    Mirrors hoc's ``execerror``; the wizard treats a requirement whose
    evaluation errors as *not satisfied* for that server and records the
    message for diagnostics.
    """
