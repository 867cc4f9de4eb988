"""Precedence-climbing parser for the requirement meta-language.

Equivalent to the yacc grammar of thesis Fig 4.2 with conventional C
precedence (the thesis inherits hoc's), loosest first:

    assignment            right-assoc, lowest
    ||                    left-assoc
    &&                    left-assoc
    == !=                 left-assoc
    > >= < <=             left-assoc
    + -                   left-assoc
    * /                   left-assoc
    ^                     right-assoc
    unary - +             (%prec UNARYMINUS), binds tighter than ^
    literals, vars, calls, ( )

Unary minus binds tighter than ``^``: ``-2 ^ 2`` is ``(-2) ^ 2`` = 4,
and ``-2 ^ 0.5`` raises a negative base to a fractional power.

The six left-associative binary levels are one precedence-climbing loop
(:meth:`Parser.parse_binary`) driven by the ``_BINARY`` operator table.
Given a left operand, it folds in every following operator that binds at
least as tightly as its caller allows; each right operand is a ``^``
operand, first extended by any tighter operator that follows it.  This
builds the same left-leaning trees, with the same spans and the same
errors, as one recursive-descent function per level, without six nested
calls per operand.  Assignment, ``^``, unary operators and primaries stay
recursive descent.

One statement per line; blank lines are allowed.  Like yacc's
``list error '\\n'`` rule, :func:`parse` can optionally *recover* by
skipping a malformed line and recording the error instead of aborting.
"""

from __future__ import annotations

from typing import Union

from .errors import ParseError
from .lexer import Token, TokenKind, tokenize
from .nodes import (
    Addr,
    Assign,
    BinOp,
    Call,
    Compare,
    Logic,
    Neg,
    Node,
    Paren,
    Program,
    Num,
    Var,
)

__all__ = ["parse", "Parser"]

#: binary operator -> (precedence, node class), all left-associative;
#: a higher number binds tighter
_BINARY: dict[str, tuple[int, type[Union[Logic, Compare, BinOp]]]] = {
    "||": (1, Logic),
    "&&": (2, Logic),
    "==": (3, Compare), "!=": (3, Compare),
    ">": (4, Compare), ">=": (4, Compare), "<": (4, Compare), "<=": (4, Compare),
    "+": (5, BinOp), "-": (5, BinOp),
    "*": (6, BinOp), "/": (6, BinOp),
}

_PREFIX = frozenset({"-", "+"})


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0
        self.errors: list[ParseError] = []

    # -- token plumbing ----------------------------------------------------
    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != TokenKind.EOF:
            self.pos += 1
        return tok

    def at_op(self, *lexemes: str) -> bool:
        # only OP tokens can spell an operator, so the text suffices
        return self.tokens[self.pos].text in lexemes

    def expect_op(self, lexeme: str) -> Token:
        if not self.at_op(lexeme):
            raise ParseError(
                f"expected {lexeme!r}, found {self.cur.text or 'end of input'!r}",
                line=self.cur.line, col=self.cur.col,
            )
        return self.advance()

    # -- grammar -------------------------------------------------------------
    def parse_program(self, recover: bool = False) -> Program:
        prog = Program()
        tokens = self.tokens
        while (kind := tokens[self.pos].kind) != TokenKind.EOF:
            if kind == TokenKind.NEWLINE:
                self.pos += 1
                continue
            try:
                stmt = self.parse_statement()
                prog.statements.append(stmt)
            except ParseError as exc:
                if not recover:
                    raise
                self.errors.append(exc)
                self._skip_line()
        return prog

    def _skip_line(self) -> None:
        while self.cur.kind not in (TokenKind.NEWLINE, TokenKind.EOF):
            self.advance()
        if self.cur.kind == TokenKind.NEWLINE:
            self.advance()

    def parse_statement(self) -> Node:
        expr = self.parse_assign()
        tok = self.tokens[self.pos]
        if tok.kind == TokenKind.NEWLINE:
            self.pos += 1
        elif tok.kind != TokenKind.EOF:
            raise ParseError(
                f"unexpected {tok.text!r} after statement",
                line=tok.line, col=tok.col,
            )
        return expr

    def parse_expr(self) -> Node:
        return self.parse_assign()

    def parse_assign(self) -> Node:
        left = self.parse_binary(self.parse_power())
        if self.at_op("="):
            tok = self.advance()
            if not isinstance(left, Var):
                raise ParseError(
                    "left side of '=' must be a variable",
                    line=tok.line, col=tok.col,
                )
            value = self.parse_assign()  # right associative: a = b = 3
            return Assign(left.name, value, line=tok.line, col=left.col or tok.col)
        return left

    def parse_binary(self, left: Node, min_prec: int = 1) -> Node:
        """Extend ``left`` with operators of precedence ``min_prec`` and
        tighter, left to right."""
        tokens = self.tokens
        # only OP tokens can spell an operator, so the text suffices
        entry = _BINARY.get(tokens[self.pos].text)
        while entry is not None and entry[0] >= min_prec:
            tok = tokens[self.pos]
            prec, node_cls = entry
            self.pos += 1
            right = self.parse_power()
            entry = _BINARY.get(tokens[self.pos].text)
            while entry is not None and entry[0] > prec:
                # a tighter operator follows: it takes ``right`` first
                right = self.parse_binary(right, prec + 1)
                entry = _BINARY.get(tokens[self.pos].text)
            left = node_cls(tok.text, left, right, line=tok.line, col=tok.col)
        return left

    def parse_power(self) -> Node:
        if self.tokens[self.pos].text in _PREFIX:
            left = self.parse_unary()
        else:
            left = self.parse_primary()
        tok = self.tokens[self.pos]
        if tok.text == "^":
            self.pos += 1
            right = self.parse_power()  # right associative
            return BinOp("^", left, right, line=tok.line, col=tok.col)
        return left

    def parse_unary(self) -> Node:
        tok = self.tokens[self.pos]
        if tok.text == "-":
            self.pos += 1
            return Neg(self.parse_unary(), line=tok.line, col=tok.col)
        if tok.text == "+":
            self.pos += 1
            return self.parse_unary()
        return self.parse_primary()

    def parse_primary(self) -> Node:
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind == TokenKind.IDENT:
            self.pos += 1
            if self.tokens[self.pos].text == "(":
                self.pos += 1
                args = [self.parse_assign()]
                while self.tokens[self.pos].text == ",":
                    self.pos += 1
                    args.append(self.parse_assign())
                self.expect_op(")")
                return Call(tok.text, args, line=tok.line, col=tok.col)
            return Var(tok.text, line=tok.line, col=tok.col)
        if kind == TokenKind.NUMBER:
            self.pos += 1
            return Num(float(tok.text), line=tok.line, col=tok.col)
        if kind == TokenKind.NETADDR:
            self.pos += 1
            return Addr(tok.text, line=tok.line, col=tok.col)
        if tok.text == "(":
            self.pos += 1
            inner = self.parse_assign()
            self.expect_op(")")
            return Paren(inner, line=tok.line, col=tok.col)
        raise ParseError(
            f"unexpected {tok.text or 'end of input'!r}",
            line=tok.line, col=tok.col,
        )


def parse(source: str, recover: bool = False) -> Program:
    """Parse requirement text into a :class:`Program`.

    With ``recover=True`` malformed lines are skipped (yacc's
    ``error '\\n'`` recovery) and collected on ``Program.errors`` — used by
    the wizard so one bad line does not void a whole requirement file.
    """
    parser = Parser(source)
    prog = parser.parse_program(recover=recover)
    prog.errors = parser.errors
    return prog
