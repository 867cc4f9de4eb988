"""Evaluator for requirement programs — the wizard's matching core.

Semantics follow thesis §3.6.1/Fig 4.2:

* every line is a statement; a server **qualifies iff every logical
  statement evaluates true**;
* non-logical statements (assignments, arithmetic) run for their side
  effects — defining temp variables and filling the user-side parameters
  (``user_preferred_host*`` / ``user_denied_host*``);
* an *undefined* variable inside a logical statement makes that statement
  false (not an error);
* runtime faults (division by zero, string arithmetic, unknown function)
  mirror hoc's ``execerror``: the statement is recorded as an error and,
  if it was logical, counts as unsatisfied.

Values are floats or strings (NETADDR literals and hostnames).  A bare
identifier assigned to a user-side slot is taken as a *hostname* — the
thesis' own experiments write ``user_denied_host1 = telesto``.

The wizard evaluates one cached program against every server record, so
the AST is walked once, not once per server: the first :func:`evaluate`
of a :class:`Program` translates each statement into a Python closure and
keeps them on the program (``Program._compiled``).  Every later call makes
one call per statement and dispatches on no node type.  A variable
compared with a number (``host_cpu_free > 0.5``, the common leaf), or a
``&&`` chain of them, is one closure.  Both sides of ``&&``/``||`` always
run (no short-circuit), in the order the yacc grammar evaluates them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .builtins import CONSTANTS, call_builtin
from .errors import COMPLEX_POWER, EvalError
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
    is_logical,
)
from .variables import DENIED_VARS, PREFERRED_VARS, USER_SIDE_VARS

__all__ = ["Environment", "Evaluation", "evaluate", "Undefined"]

Value = Union[float, str]


class Undefined(Exception):
    """Internal signal: a variable had no value (thesis: logical -> false)."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


@dataclass(slots=True)
class Environment:
    """Name bindings for one evaluation pass (one server)."""

    #: server-side + monitor values for the server under consideration.
    #: :func:`evaluate` stores the caller's dict here without copying it;
    #: evaluation only reads it (assignments go to ``temps``/``user``)
    server: dict[str, float] = field(default_factory=dict)
    #: temp variables defined by the requirement itself
    temps: dict[str, Value] = field(default_factory=dict)
    #: user-side slots filled by assignments during evaluation
    user: dict[str, Value] = field(default_factory=dict)

    def lookup(self, name: str) -> Value:
        if name in self.temps:
            return self.temps[name]
        if name in self.server:
            return self.server[name]
        if name in self.user:
            return self.user[name]
        if name in CONSTANTS:
            return CONSTANTS[name]
        raise Undefined(name)

    def assign(self, name: str, value: Value) -> None:
        if name in USER_SIDE_VARS:
            self.user[name] = value
        else:
            self.temps[name] = value

    # -- convenience for the wizard ------------------------------------------
    def denied_hosts(self) -> list[str]:
        return [str(self.user[n]) for n in DENIED_VARS if n in self.user]

    def preferred_hosts(self) -> list[str]:
        return [str(self.user[n]) for n in PREFERRED_VARS if n in self.user]


@dataclass(slots=True)
class Evaluation:
    """Outcome of running a program against one server's status."""

    qualified: bool
    #: (source line, truth) for each logical statement
    logical_results: list[tuple[int, bool]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    env: Optional[Environment] = None


#: an expression's value in an environment
Run = Callable[[Environment], Value]
#: an expression's truth in an environment
Test = Callable[[Environment], bool]

_ORDER = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _strip(node: Node) -> Node:
    while isinstance(node, Paren):
        node = node.inner
    return node


def _not_numeric(value: str, line: int, col: int) -> EvalError:
    return EvalError(f"arithmetic on address/hostname {value!r}",
                     line=line, col=col)


def _compare_strings(op: str, left: str, right: str, line: int,
                     col: int) -> bool:
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    raise EvalError("ordering comparison on address/hostname",
                    line=line, col=col)


# -- translation: node -> closure ----------------------------------------------
def _value(node: Node) -> Run:
    """Closure computing ``node``'s value."""
    if isinstance(node, (Num, Addr)):
        constant = node.value
        return lambda env: constant
    if isinstance(node, Var):
        return _read(node.name)
    if isinstance(node, Paren):
        return _value(node.inner)
    if isinstance(node, Neg):
        return _neg(node)
    if isinstance(node, Assign):
        return _assign(node)
    if isinstance(node, Call):
        return _call(node)
    if isinstance(node, BinOp):
        return _binop(node)
    if isinstance(node, (Compare, Logic)):
        test = _test(node)
        return lambda env: 1.0 if test(env) else 0.0
    line, col = getattr(node, "line", 0), getattr(node, "col", 0)

    def unknown(env: Environment) -> Value:
        raise EvalError(f"cannot evaluate node {node!r}", line=line, col=col)

    return unknown


def _test(node: Node) -> Test:
    """Closure computing ``node``'s truth (a logical statement's verdict)."""
    node = _strip(node)
    if isinstance(node, (Compare, Logic)):
        leaves = _leaves(node)
        if leaves is not None:
            return _all_of(leaves)
        if isinstance(node, Compare):
            return _compare(node)
        return _logic(node)
    run = _value(node)

    def truthy(env: Environment) -> bool:
        value = run(env)
        if isinstance(value, str):
            return bool(value)
        return value != 0.0

    return truthy


def _read(name: str) -> Run:
    return lambda env: env.lookup(name)


def _neg(node: Neg) -> Run:
    operand = _value(node.operand)
    line, col = node.operand.line, node.operand.col

    def neg(env: Environment) -> Value:
        value = operand(env)
        if isinstance(value, str):
            raise _not_numeric(value, line, col)
        return -value

    return neg


def _assign(node: Assign) -> Run:
    rhs_node = node.value
    rhs = _value(rhs_node)
    name = node.name
    user_side = name in USER_SIDE_VARS

    def assign(env: Environment) -> Value:
        try:
            value = rhs(env)
        except (Undefined, EvalError):
            # undefined identifiers read as hostnames, see _hostname_from
            hostname = _hostname_from(rhs_node, env)
            if hostname is None:
                raise
            value = hostname
        (env.user if user_side else env.temps)[name] = value
        return value

    return assign


def _call(node: Call) -> Run:
    args = tuple((_value(a), a.line, a.col) for a in node.args)
    func, line, col = node.func, node.line, node.col

    def call(env: Environment) -> Value:
        values: list[float] = []
        for arg, arg_line, arg_col in args:
            value = arg(env)
            if isinstance(value, str):
                raise _not_numeric(value, arg_line, arg_col)
            values.append(value)
        return call_builtin(func, values, line=line, col=col)

    return call


def _binop(node: BinOp) -> Run:
    left, right = _value(node.left), _value(node.right)
    left_line, left_col = node.left.line, node.left.col
    right_line, right_col = node.right.line, node.right.col
    op, line, col = node.op, node.line, node.col
    apply = _ARITH.get(op)
    if apply is None:
        apply = _arith_checked(op, line, col)

    def binop(env: Environment) -> Value:
        a = left(env)
        if isinstance(a, str):
            raise _not_numeric(a, left_line, left_col)
        b = right(env)
        if isinstance(b, str):
            raise _not_numeric(b, right_line, right_col)
        return apply(a, b)

    return binop


def _arith_checked(op: str, line: int,
                   col: int) -> Callable[[float, float], float]:
    """The operators that can fault: ``/`` and ``^`` (and unknown ones)."""
    if op == "/":
        def divide(a: float, b: float) -> float:
            if b == 0.0:
                raise EvalError("division by 0", line=line, col=col)
            return a / b

        return divide
    if op == "^":
        def power(a: float, b: float) -> float:
            try:
                result = a ** b
            except (OverflowError, ZeroDivisionError, ValueError) as exc:
                raise EvalError(f"power: {exc}", line=line,
                                col=col) from exc
            if isinstance(result, complex):
                raise EvalError(f"power: {COMPLEX_POWER}", line=line, col=col)
            return float(result)

        return power

    def unknown(a: float, b: float) -> float:
        raise EvalError(f"unknown operator {op!r}", line=line, col=col)

    return unknown


def _compare(node: Compare) -> Test:
    op, line, col = node.op, node.line, node.col
    left, right = _strip(node.left), _strip(node.right)
    order = _ORDER[op]
    equality = op in ("==", "!=")
    left_side, right_side = _side(left), _side(right)

    def compare(env: Environment) -> bool:
        a, a_undefined = left_side(env)
        b, b_undefined = right_side(env)
        # §6 string attributes: in an equality test against a string value,
        # a bare undefined identifier reads as a literal ("machine_type ==
        # i386").  Anywhere else, undefined stays undefined (-> false).
        if a_undefined is not None:
            if equality and isinstance(b, str):
                a = a_undefined
            else:
                raise Undefined(a_undefined)
        if b_undefined is not None:
            if equality and isinstance(a, str):
                b = b_undefined
            else:
                raise Undefined(b_undefined)
        if isinstance(a, str) or isinstance(b, str):
            return _compare_strings(op, str(a), str(b), line, col)
        return order(a, b)

    return compare


#: one fused comparison: (variable, operator, number, Compare node)
Leaf = tuple[str, Callable[[Value, float], bool], float, Compare]


def _leaves(node: Node) -> Optional[tuple[Leaf, ...]]:
    """``x <op> 1 && y <op> 2 && ...`` as leaves, or ``None``.

    The common shape of a requirement: a variable compared with a number
    (``Var <op> Num``), or a conjunction of them.  ``None`` when any part
    has another shape (``Num <op> Var`` included); the general closures
    then handle it.
    """
    node = _strip(node)
    if isinstance(node, Logic):
        if node.op != "&&":
            return None
        left, right = _leaves(node.left), _leaves(node.right)
        if left is None or right is None:
            return None
        return left + right
    if not isinstance(node, Compare):
        return None
    left, right = _strip(node.left), _strip(node.right)
    if isinstance(left, Var) and isinstance(right, Num):
        return ((left.name, _ORDER[node.op], right.value, node),)
    return None


def _all_of(leaves: tuple[Leaf, ...]) -> Test:
    """The conjunction of ``leaves`` in one closure.

    Every comparison runs, left to right, as the nested ``&&`` closures
    would.  A number is never a string, so an undefined variable cannot
    take the §6 literal reading: it raises :class:`Undefined` as it would
    anywhere.
    """
    def all_of(env: Environment) -> bool:
        # mirrors Environment.lookup: temps, then server, then the rest
        # (inlined here, the hot loop; change both together)
        temps, server = env.temps, env.server
        ok = True
        for name, order, number, node in leaves:
            if name in temps:
                value = temps[name]
            elif name in server:
                value = server[name]
            else:
                value = env.lookup(name)
            if isinstance(value, str):
                if not _compare_strings(node.op, value, str(number),
                                        node.line, node.col):
                    ok = False
            elif not order(value, number):
                ok = False
        return ok

    return all_of


def _side(node: Node) -> Callable[[Environment], tuple[Optional[Value],
                                                        Optional[str]]]:
    """One side of a comparison.

    Yields ``(value, None)`` normally, or ``(None, name)`` when the side
    is a *bare* undefined identifier — the comparison may then treat the
    name as a string literal in equality tests (the §6 string-attribute
    form).  Undefined identifiers inside larger expressions still raise.
    """
    if isinstance(node, Var):
        name = node.name

        def var_side(env: Environment):
            try:
                return env.lookup(name), None
            except Undefined:
                return None, name

        return var_side
    run = _value(node)
    return lambda env: (run(env), None)


def _logic(node: Logic) -> Test:
    left, right = _test(node.left), _test(node.right)
    # no short-circuit: the thesis' yacc evaluates both sides, and
    # assignments on the right-hand side must still take effect
    if node.op == "&&":
        def both(env: Environment) -> bool:
            a = left(env)
            b = right(env)
            return a and b

        return both

    def either(env: Environment) -> bool:
        a = left(env)
        b = right(env)
        return a or b

    return either


def _hostname_from(node: Node, env: Environment) -> Optional[str]:
    """Reconstruct ``titan-x``-style names from ``Var - Var`` chains.

    An assignment whose right-hand side fails to evaluate falls back to
    this: it supports the thesis' ``user_denied_host1 = telesto`` idiom (a
    hostname without dots lexes as an identifier) and, because hostnames
    may carry hyphens that lex as subtraction (``user_denied_host5 =
    titan-x``, Table 5.5), re-joins a subtraction chain of undefined
    identifiers into the hyphenated hostname.
    """
    if isinstance(node, Paren):
        return _hostname_from(node.inner, env)
    if isinstance(node, Var):
        try:
            value = env.lookup(node.name)
        except Undefined:
            return node.name
        return value if isinstance(value, str) else None
    if isinstance(node, Num) and node.value == int(node.value):
        return str(int(node.value))  # trailing digits, e.g. "node-07"... "7"
    if isinstance(node, BinOp) and node.op == "-":
        left = _hostname_from(node.left, env)
        right = _hostname_from(node.right, env)
        if left is not None and right is not None:
            return f"{left}-{right}"
    return None


def _translate(program: Program) -> tuple[tuple[int, bool, Callable], ...]:
    """(line, logical, closure) per statement; logical ones yield truth."""
    return tuple(
        (stmt.line, True, _test(stmt)) if is_logical(stmt)
        else (0, False, _value(stmt))
        for stmt in program.statements
    )


def evaluate(program: Program, server_params: dict[str, float],
             user_presets: Optional[dict[str, Value]] = None) -> Evaluation:
    """Run ``program`` against one server's parameters.

    ``user_presets`` seeds the user-side slots (e.g. options carried in the
    request separately from the requirement text).  ``server_params`` is
    read, never written, and the returned ``env.server`` is that same dict.
    A program nested deeper than the interpreter can translate raises
    :class:`EvalError`.
    """
    statements = program._compiled
    if statements is None:
        try:
            statements = program._compiled = _translate(program)
        except RecursionError:
            # running the closures nests fewer calls than translating
            # them, so a program that translates also runs
            raise EvalError("requirement nested too deeply to evaluate"
                            ) from None
    env = Environment(server_params)
    if user_presets:
        env.user.update(user_presets)
    logical_results: list[tuple[int, bool]] = []
    errors: list[str] = []
    qualified = True
    for line, logical, run in statements:
        if logical:
            try:
                ok = run(env)
            except Undefined:
                # thesis: uninitialised variable in a logical statement
                # makes the whole statement false
                ok = False
            except EvalError as exc:
                errors.append(str(exc))
                ok = False
            logical_results.append((line, ok))
            if not ok:
                qualified = False
        else:
            try:
                run(env)
            except Undefined as undef:
                errors.append(f"undefined variable {undef.name!r}")
            except EvalError as exc:
                errors.append(str(exc))
    return Evaluation(qualified, logical_results, errors, env)
