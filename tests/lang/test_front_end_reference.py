"""The single-scan lexer and the precedence-climbing parser give the same
results as the recursive-descent front end they replaced.

``tokenize`` is one ``finditer`` over the token alternation and ``Parser``
folds the six left-associative binary levels into one table-driven loop.
The generator lexer and the parser with one function per precedence level
are kept below, as they were, as the reference.  Both front ends read the
same texts -- random token strings, malformed ones included, random
operator chains without parentheses, every golden requirement whole and
line by line, and chains that pin associativity -- with and without
yacc-style line recovery, and must agree on every token, every statement
tree with its spans, and every error's type, message, line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang import LangError, parse, tokenize
from repro.lang.errors import LexError, ParseError
from repro.lang.lexer import TokenKind
from repro.lang.nodes import (
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

GOLDEN = Path(__file__).parent / "golden"


# -- reference: the generator lexer, as it was ------------------------------
_TOKEN_RE = re.compile(
    r"""
    (?P<COMMENT>\#[^\n]*)
  | (?P<WS>[ \t\r]+)
  | (?P<NETADDR>
        [0-9]+\.[0-9]+\.[0-9]+\.[0-9]+            # dotted quad
      | [a-zA-Z][a-zA-Z_0-9-]*(\.[a-zA-Z_0-9-]+)+ # dotted domain name
    )
  | (?P<NUMBER>[0-9]+\.[0-9]+|[0-9]+)
  | (?P<IDENT>[a-zA-Z][a-zA-Z_0-9]*)
  | (?P<OP>&&|\|\||>=|<=|==|!=|[><+\-*/^()=,])
  | (?P<NEWLINE>\n)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int

    def __repr__(self) -> str:  # pragma: no cover
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


def reference_tokenize(source: str) -> Iterator[Token]:
    """Yield tokens; terminates with a single EOF token.

    Raises :class:`LexError` on the first unrecognised character.
    """
    pos = 0
    line = 1
    line_start = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise LexError(
                f"unexpected character {source[pos]!r}",
                line=line, col=pos - line_start + 1,
            )
        kind = m.lastgroup
        text = m.group()
        col = pos - line_start + 1
        pos = m.end()
        if kind in ("COMMENT", "WS"):
            continue
        if kind == "NEWLINE":
            yield Token(TokenKind.NEWLINE, text, line, col)
            line += 1
            line_start = pos
            continue
        yield Token(kind, text, line, col)
    yield Token(TokenKind.EOF, "", line, pos - line_start + 1)


# -- reference: the recursive-descent parser, as it was ----------------------
class ReferenceParser:
    def __init__(self, source: str):
        self.tokens = list(reference_tokenize(source))
        self.pos = 0
        self.errors: list[ParseError] = []

    # -- token plumbing ----------------------------------------------------
    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind != TokenKind.EOF:
            self.pos += 1
        return tok

    def at_op(self, *lexemes: str) -> bool:
        return self.cur.kind == TokenKind.OP and self.cur.text in lexemes

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
        while self.cur.kind != TokenKind.EOF:
            if self.cur.kind == TokenKind.NEWLINE:
                self.advance()
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
        expr = self.parse_expr()
        if self.cur.kind == TokenKind.NEWLINE:
            self.advance()
        elif self.cur.kind != TokenKind.EOF:
            raise ParseError(
                f"unexpected {self.cur.text!r} after statement",
                line=self.cur.line, col=self.cur.col,
            )
        return expr

    def parse_expr(self) -> Node:
        return self.parse_assign()

    def parse_assign(self) -> Node:
        left = self.parse_or()
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

    def _binary_level(self, sub, ops, node_cls):
        left = sub()
        while self.at_op(*ops):
            tok = self.advance()
            right = sub()
            left = node_cls(tok.text, left, right, line=tok.line, col=tok.col)
        return left

    def parse_or(self) -> Node:
        return self._binary_level(self.parse_and, ("||",), Logic)

    def parse_and(self) -> Node:
        return self._binary_level(self.parse_equality, ("&&",), Logic)

    def parse_equality(self) -> Node:
        return self._binary_level(self.parse_relational, ("==", "!="), Compare)

    def parse_relational(self) -> Node:
        return self._binary_level(self.parse_additive, (">", ">=", "<", "<="), Compare)

    def parse_additive(self) -> Node:
        return self._binary_level(self.parse_multiplicative, ("+", "-"), BinOp)

    def parse_multiplicative(self) -> Node:
        return self._binary_level(self.parse_power, ("*", "/"), BinOp)

    def parse_power(self) -> Node:
        left = self.parse_unary()
        if self.at_op("^"):
            tok = self.advance()
            right = self.parse_power()  # right associative
            return BinOp("^", left, right, line=tok.line, col=tok.col)
        return left

    def parse_unary(self) -> Node:
        if self.at_op("-"):
            tok = self.advance()
            return Neg(self.parse_unary(), line=tok.line, col=tok.col)
        if self.at_op("+"):
            self.advance()
            return self.parse_unary()
        return self.parse_primary()

    def parse_primary(self) -> Node:
        tok = self.cur
        if tok.kind == TokenKind.NUMBER:
            self.advance()
            return Num(float(tok.text), line=tok.line, col=tok.col)
        if tok.kind == TokenKind.NETADDR:
            self.advance()
            return Addr(tok.text, line=tok.line, col=tok.col)
        if tok.kind == TokenKind.IDENT:
            self.advance()
            if self.at_op("("):
                self.advance()
                args = [self.parse_expr()]
                while self.at_op(","):
                    self.advance()
                    args.append(self.parse_expr())
                self.expect_op(")")
                return Call(tok.text, args, line=tok.line, col=tok.col)
            return Var(tok.text, line=tok.line, col=tok.col)
        if self.at_op("("):
            open_tok = self.advance()
            inner = self.parse_expr()
            self.expect_op(")")
            return Paren(inner, line=open_tok.line, col=open_tok.col)
        raise ParseError(
            f"unexpected {tok.text or 'end of input'!r}",
            line=tok.line, col=tok.col,
        )


def reference_parse(source: str, recover: bool = False) -> Program:
    """Parse requirement text into a :class:`Program`.

    With ``recover=True`` malformed lines are skipped (yacc's
    ``error '\\n'`` recovery) and collected on ``Program.errors`` — used by
    the wizard so one bad line does not void a whole requirement file.
    """
    parser = ReferenceParser(source)
    prog = parser.parse_program(recover=recover)
    prog.errors = parser.errors
    return prog


# -- comparison ---------------------------------------------------------------
def error_of(exc: LangError) -> tuple:
    return (type(exc).__name__, exc.message, exc.line, exc.col)


def lexed(lex, text: str) -> tuple:
    try:
        return ("ok", [(t.kind, t.text, t.line, t.col) for t in lex(text)])
    except LangError as exc:
        return ("raised",) + error_of(exc)


def parsed(parse_fn, text: str, recover: bool) -> tuple:
    try:
        program = parse_fn(text, recover=recover)
    except LangError as exc:
        return ("raised",) + error_of(exc)
    return ("ok", repr(program.statements),
            [error_of(e) for e in program.errors])


def assert_same(text: str) -> None:
    assert lexed(tokenize, text) == lexed(reference_tokenize, text)
    for recover in (False, True):
        assert parsed(parse, text, recover) == \
            parsed(reference_parse, text, recover), (text, recover)


# -- inputs ---------------------------------------------------------------------
#: lexemes of every kind, plus characters no rule accepts
PIECES = ("host_cpu_free", "x", "t", "PI", "sqrt", "min", "user_denied_host1",
          "1", "2", "0.5", "42", "10.0.0.1", "titan.cs.org",
          "(", ")", ",", "=", "-", "+", "*", "/", "^",
          "&&", "||", "==", "!=", ">", ">=", "<", "<=",
          "# note", "@", "&", "|", "!", "$", "\f", "\u00e9")
SEPARATORS = ("", " ", " ", "\t", "\n", "\n\n", "\r\n")

token_strings = st.lists(
    st.tuples(st.sampled_from(PIECES), st.sampled_from(SEPARATORS)),
    max_size=30,
).map(lambda pairs: "".join(piece + sep for piece, sep in pairs))

#: a well-formed operand, some with prefix operators, calls or parentheses
OPERANDS = ("x", "3", "0.5", "-x", "+2", "-+-x", "(y)", "(a || b)",
            "sqrt(t)", "min(1, x ^ 2)", "PI", "10.0.0.1", "-(x)")
BINARY = ("||", "&&", "==", "!=", ">", ">=", "<", "<=",
          "+", "-", "*", "/", "^", "=")


@st.composite
def operator_chains(draw):
    """``operand (op operand)*`` with no parentheses to group them: the
    tree is decided by precedence and associativity alone."""
    count = draw(st.integers(1, 7))
    parts = [draw(st.sampled_from(OPERANDS))]
    for _ in range(count - 1):
        parts.append(draw(st.sampled_from(BINARY)))
        parts.append(draw(st.sampled_from(OPERANDS)))
    return " ".join(parts)


chain_programs = st.lists(operator_chains(), min_size=1, max_size=4).map(
    "\n".join)

ASSOCIATIVITY = (
    "a = b = 3",
    "1 < 2 < 3",
    "-2 ^ 2",
    "2 ^ 3 ^ 2",
    "-+-x",
    "1 - 2 - 3",
    "8 / 4 / 2",
    "a || b && c || d",
    "a == b != c",
    "1 + 2 * 3 ^ 2 ^ -1 - 4 / 5",
    "x = y = 1 + 2 < 3 && 4 >= 5 || 6 != 7",
    "3 = 4",
    "a + b = 3",
    "(1 + 2",
    "1 + 2)",
    "min(1, 2",
    "1 +",
    "x = \n1 > 0",
    "\n\n  \n",
    "",
    "host_cpu_free > 0.5 @",
    "1 > 0\n2 2\n3 > 1",
)


# -- tests --------------------------------------------------------------------
class TestRandomTexts:
    @given(token_strings)
    @settings(max_examples=400, deadline=None)
    def test_token_strings(self, text):
        assert_same(text)

    @given(chain_programs)
    @settings(max_examples=400, deadline=None)
    def test_operator_chains(self, text):
        assert_same(text)


@pytest.mark.parametrize("text", ASSOCIATIVITY)
def test_associativity_and_malformed_chains(text):
    assert_same(text)


def test_associativity_trees():
    """The shapes the precedence table promises, spelled out."""
    (power,) = parse("-2 ^ 2").statements
    assert isinstance(power, BinOp) and power.op == "^"
    assert isinstance(power.left, Neg)  # unary minus binds tighter than ^
    (chain,) = parse("2 ^ 3 ^ 2").statements
    assert isinstance(chain.right, BinOp) and chain.right.op == "^"
    (relation,) = parse("1 < 2 < 3").statements
    assert isinstance(relation.left, Compare) and relation.left.op == "<"
    (assign,) = parse("a = b = 3").statements
    assert isinstance(assign, Assign) and isinstance(assign.value, Assign)


def test_golden_requirements():
    files = sorted(GOLDEN.glob("*.req"))
    assert files
    for path in files:
        text = path.read_text()
        assert_same(text)
        for line in text.splitlines():
            assert_same(line)


def test_errors_are_the_language_errors():
    with pytest.raises(LexError):
        tokenize("a @ b")
    with pytest.raises(ParseError):
        parse("3 = 4")
    assert parse("3 = 4\nx > 1", recover=True).errors[0].message == \
        "left side of '=' must be a variable"
