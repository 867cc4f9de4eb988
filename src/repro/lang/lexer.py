"""Lexer for the server-requirement meta-language.

Implements the flex rules of thesis Fig 4.1:

* ``#.*`` comments and ``[ \\t]`` white space are discarded,
* dotted quads and dotted domain names lex as ``NETADDR``,
* integers and decimals lex as ``NUMBER``,
* ``[a-zA-Z]+[a-zA-Z_0-9]*`` lexes as an identifier (``VAR``/``UNDEF``
  resolution happens at evaluation time),
* the C logical operators ``&& || > >= == != < <=`` plus the arithmetic
  ``+ - * / ^ ( ) =`` pass through,
* ``\\n`` ends a statement.

:func:`tokenize` scans the source once: one ``finditer`` over a single
alternation of the rules above.  No rule starts with a blank, so the scan
steps over white space without producing a match; the last, catch-all
group matches any other character no rule accepts and raises
:class:`LexError` at its position.  Only ``NEWLINE`` tokens advance the
line count.  The tokens come back as one list, ending with a single
``EOF`` token.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import LexError

__all__ = ["Token", "tokenize", "TokenKind"]


class TokenKind:
    NUMBER = "NUMBER"
    NETADDR = "NETADDR"
    IDENT = "IDENT"
    OP = "OP"          # one of the operator lexemes below
    NEWLINE = "NEWLINE"
    EOF = "EOF"


_TOKEN_RE = re.compile(
    r"""
    (?P<COMMENT>\#[^\n]*)
  | (?P<NETADDR>
        [0-9]+\.[0-9]+\.[0-9]+\.[0-9]+            # dotted quad
      | [a-zA-Z][a-zA-Z_0-9-]*\.[a-zA-Z_0-9-]+(?:\.[a-zA-Z_0-9-]+)*
                                                # dotted domain name
    )
  | (?P<NUMBER>[0-9]+\.[0-9]+|[0-9]+)
  | (?P<IDENT>[a-zA-Z][a-zA-Z_0-9]*)
  | (?P<OP>&&|\|\||>=|<=|==|!=|[><+\-*/^()=,])  # longest first: >= before >
  | (?P<NEWLINE>\n)
  | (?P<ERROR>[^ \t\r])
    """,
    re.VERBOSE | re.DOTALL,
)


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int

    def __repr__(self) -> str:  # pragma: no cover
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


#: builds a Token from a ready tuple without the NamedTuple ``__new__``
#: call (the per-token cost of the scan)
_new_token = tuple.__new__


def tokenize(source: str) -> list[Token]:
    """Return the tokens of ``source``, ending with a single EOF token.

    Raises :class:`LexError` on the first unrecognised character.
    """
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "COMMENT":
            continue
        start = m.start()
        if kind == "NEWLINE":
            append(_new_token(Token, (kind, "\n", line, start - line_start + 1)))
            line += 1
            line_start = start + 1
        elif kind == "ERROR":
            raise LexError(
                f"unexpected character {source[start]!r}",
                line=line, col=start - line_start + 1,
            )
        else:
            append(_new_token(Token, (kind, m.group(), line,
                                      start - line_start + 1)))
    append(Token(TokenKind.EOF, "", line, len(source) - line_start + 1))
    return tokens
