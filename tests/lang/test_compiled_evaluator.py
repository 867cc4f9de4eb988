"""The closure-compiled evaluator gives the same answers as the tree walker.

``evaluate`` translates each statement of a program into closures once and
keeps them on the program.  The recursive AST walker it replaced is kept
here, as it was, as the reference: both run the same programs — random
ASTs over the whole grammar and every golden requirement — against the
same server records, and must agree on the verdict, every logical result,
every error message (with its line/col span) and every variable the
program assigned.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from hypothesis import given, settings, strategies as st

from repro.lang import analyze, evaluate, parse
from repro.lang.builtins import BUILTINS, call_builtin
from repro.lang.errors import EvalError
from repro.lang.evaluator import Environment, Evaluation, Undefined, Value
from repro.lang.nodes import (
    Addr,
    Assign,
    BinOp,
    Call,
    Compare,
    Logic,
    Neg,
    Node,
    Num,
    Paren,
    Program,
    Var,
    is_logical,
)
from repro.lang.variables import DENIED_VARS, PREFERRED_VARS

GOLDEN = Path(__file__).parent / "golden"


# -- reference: the tree walker, as it was ------------------------------------
def _truthy(value: Value) -> bool:
    if isinstance(value, str):
        return bool(value)
    return value != 0.0


def _numeric(value: Value, node: Node) -> float:
    if isinstance(value, str):
        raise EvalError(
            f"arithmetic on address/hostname {value!r}",
            line=node.line, col=node.col,
        )
    return value


def _eval(node: Node, env: Environment) -> Value:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Addr):
        return node.value
    if isinstance(node, Var):
        return env.lookup(node.name)
    if isinstance(node, Paren):
        return _eval(node.inner, env)
    if isinstance(node, Neg):
        return -_numeric(_eval(node.operand, env), node.operand)
    if isinstance(node, Assign):
        value = _eval_assign_rhs(node.value, env)
        env.assign(node.name, value)
        return value
    if isinstance(node, Call):
        args = [_numeric(_eval(a, env), a) for a in node.args]
        return call_builtin(node.func, args, line=node.line, col=node.col)
    if isinstance(node, BinOp):
        left = _numeric(_eval(node.left, env), node.left)
        right = _numeric(_eval(node.right, env), node.right)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            if right == 0.0:
                raise EvalError("division by 0", line=node.line, col=node.col)
            return left / right
        if node.op == "^":
            try:
                power = left ** right
            except (OverflowError, ZeroDivisionError, ValueError) as exc:
                raise EvalError(f"power: {exc}", line=node.line,
                                col=node.col) from exc
            if isinstance(power, complex):
                # a negative base to a fractional power: the one change
                # made to the walker since it was retired, so that both
                # report it as the language's own fault
                raise EvalError("power: negative base raised to a "
                                "fractional power", line=node.line,
                                col=node.col)
            return float(power)
        raise EvalError(f"unknown operator {node.op!r}",
                        line=node.line, col=node.col)
    if isinstance(node, Compare):
        left, left_undef = _eval_compare_side(node.left, env)
        right, right_undef = _eval_compare_side(node.right, env)
        # §6 string attributes: in an equality test against a string value,
        # a bare undefined identifier reads as a literal ("machine_type ==
        # i386").  Anywhere else, undefined stays undefined (-> false).
        if left_undef is not None:
            if node.op in ("==", "!=") and isinstance(right, str):
                left = left_undef
            else:
                raise Undefined(left_undef)
        if right_undef is not None:
            if node.op in ("==", "!=") and isinstance(left, str):
                right = right_undef
            else:
                raise Undefined(right_undef)
        if isinstance(left, str) or isinstance(right, str):
            if node.op == "==":
                return 1.0 if str(left) == str(right) else 0.0
            if node.op == "!=":
                return 1.0 if str(left) != str(right) else 0.0
            raise EvalError(
                "ordering comparison on address/hostname",
                line=node.line, col=node.col,
            )
        table = {
            ">": left > right,
            ">=": left >= right,
            "<": left < right,
            "<=": left <= right,
            "==": left == right,
            "!=": left != right,
        }
        return 1.0 if table[node.op] else 0.0
    if isinstance(node, Logic):
        left = _truthy(_eval(node.left, env))
        if node.op == "&&":
            # no short-circuit: the thesis' yacc evaluates both sides, and
            # assignments on the right-hand side must still take effect
            right = _truthy(_eval(node.right, env))
            return 1.0 if (left and right) else 0.0
        right = _truthy(_eval(node.right, env))
        return 1.0 if (left or right) else 0.0
    raise EvalError(f"cannot evaluate node {node!r}",
                    line=getattr(node, "line", 0), col=getattr(node, "col", 0))


def _eval_compare_side(node: Node, env: Environment):
    while isinstance(node, Paren):
        node = node.inner
    if isinstance(node, Var):
        try:
            return env.lookup(node.name), None
        except Undefined:
            return None, node.name
    return _eval(node, env), None


def _eval_assign_rhs(node: Node, env: Environment) -> Value:
    try:
        return _eval(node, env)
    except (Undefined, EvalError):
        hostname = _hostname_from(node, env)
        if hostname is not None:
            return hostname
        raise


def _hostname_from(node: Node, env: Environment) -> Optional[str]:
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


def reference_evaluate(program: Program, server_params: dict[str, float],
                       user_presets: Optional[dict[str, Value]] = None
                       ) -> Evaluation:
    env = Environment(server=dict(server_params))
    if user_presets:
        env.user.update(user_presets)
    logical_results: list[tuple[int, bool]] = []
    errors: list[str] = []
    for stmt in program.statements:
        logical = is_logical(stmt)
        try:
            value = _eval(stmt, env)
            if logical:
                logical_results.append((stmt.line, _truthy(value)))
        except Undefined as undef:
            if logical:
                logical_results.append((stmt.line, False))
            else:
                errors.append(f"undefined variable {undef.name!r}")
        except EvalError as exc:
            errors.append(str(exc))
            if logical:
                logical_results.append((stmt.line, False))
    qualified = all(ok for _, ok in logical_results)
    return Evaluation(
        qualified=qualified,
        logical_results=logical_results,
        errors=errors,
        env=env,
    )


# -- comparison ---------------------------------------------------------------
def outcome(run, program, params, presets=None):
    """Everything a caller can observe, as a comparable value.

    ``repr`` of the assigned variables tells -0.0 from 0.0 and lets NaN
    equal NaN; a fault outside the language's own errors, which neither
    evaluator should raise, is compared by type and message.
    """
    try:
        result = run(program, params, presets)
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return ("raised", type(exc).__name__, str(exc))
    env = result.env
    return (result.qualified, result.logical_results, result.errors,
            repr(env.temps), repr(env.user))


def assert_same(program, params, presets=None):
    expected = outcome(reference_evaluate, program, params, presets)
    # twice: the first call translates the program, the second reuses it
    assert outcome(evaluate, program, params, presets) == expected
    assert outcome(evaluate, program, params, presets) == expected


# -- random programs over the whole grammar -----------------------------------
SERVER_NAMES = ("host_cpu_free", "host_memory_free", "host_cpu_bogomips",
                "host_machine_type")
TEMP_NAMES = ("t", "speed")
NAMES = (SERVER_NAMES + TEMP_NAMES + ("ghost", "i386", "titan", "x", "PI")
         + DENIED_VARS[:2] + PREFERRED_VARS[:1])
FUNCS = tuple(sorted(BUILTINS)) + ("nosuch",)

spans = st.integers(0, 9)
numbers = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 0.5, 7.0, 1e300, -3.0]),
    st.floats(-1e6, 1e6, allow_nan=False).map(lambda v: round(v, 2)),
)
strings = st.sampled_from(["10.0.0.1", "titan.cs.org", "i386", ""])


@st.composite
def leaves(draw):
    kind = draw(st.sampled_from(["num", "addr", "var", "var", "var"]))
    line, col = draw(spans), draw(spans)
    if kind == "num":
        return Num(draw(numbers), line, col)
    if kind == "addr":
        return Addr(draw(strings), line, col)
    return Var(draw(st.sampled_from(NAMES)), line, col)


def _extend(children):
    ops = st.sampled_from
    return st.one_of(
        st.builds(lambda o, ln, c: Neg(o, ln, c), children, spans, spans),
        st.builds(lambda op, a, b, ln, c: BinOp(op, a, b, ln, c),
                  ops(["+", "-", "*", "/", "^", "%"]), children, children,
                  spans, spans),
        st.builds(lambda op, a, b, ln, c: Compare(op, a, b, ln, c),
                  ops([">", ">=", "<", "<=", "==", "!="]), children, children,
                  spans, spans),
        st.builds(lambda op, a, b, ln, c: Logic(op, a, b, ln, c),
                  ops(["&&", "||"]), children, children, spans, spans),
        st.builds(lambda n, v, ln, c: Assign(n, v, ln, c),
                  ops(TEMP_NAMES + DENIED_VARS[:2] + PREFERRED_VARS[:1]
                      + ("host_cpu_free",)),
                  children, spans, spans),
        st.builds(lambda f, a, ln, c: Call(f, a, ln, c),
                  ops(FUNCS), st.lists(children, max_size=3), spans, spans),
        st.builds(lambda i, ln, c: Paren(i, ln, c), children, spans, spans),
        st.builds(Node),  # no such node kind: "cannot evaluate node"
    )


expressions = st.recursive(leaves(), _extend, max_leaves=8)
programs = st.lists(expressions, min_size=1, max_size=4).map(
    lambda stmts: Program(statements=stmts))
server_records = st.fixed_dictionaries(
    {},
    optional={
        "host_cpu_free": numbers,
        "host_memory_free": numbers,
        "host_cpu_bogomips": numbers,
        "host_machine_type": strings,
        "titan": strings,
    },
)
presets = st.one_of(st.none(), st.fixed_dictionaries(
    {}, optional={DENIED_VARS[0]: strings, "t": numbers}))


class TestRandomPrograms:
    @given(programs, server_records, presets)
    @settings(max_examples=600, deadline=None)
    def test_agrees_with_tree_walker(self, program, params, user_presets):
        assert_same(program, params, user_presets)

    @given(server_records)
    @settings(max_examples=50, deadline=None)
    def test_parsed_idioms(self, params):
        """Source forms the random ASTs reach only by chance."""
        sources = [
            "user_denied_host5 = titan-x\nuser_preferred_host1 = telesto",
            "t = host_cpu_free * 2\nt > 1\nt == ghost",
            "host_machine_type == i386\nhost_machine_type != sparc",
            "i386 == host_machine_type\nghost_a == ghost_b",
            "host_machine_type > ghost\n10.0.0.1 < 3",
            "x = 3 / (host_cpu_free - host_cpu_free)\n2 ^ 4000 > 1",
            "(0 - host_cpu_free) ^ 0.5 > 0",
            "sqrt(0 - 1) > 0\nmin(1) > 0\nfoo(host_cpu_free) > 0",
            "(host_cpu_free > 0.5) && (t = 3)\nt == 3",
            "(host_cpu_free > 9) || (speed = host_cpu_bogomips)\nspeed > 0",
            "-host_machine_type > 0\n-(10.0.0.1) + 1",
            "3 < host_cpu_free\n0.5 >= (host_memory_free)",
            "t = pow(host_cpu_free, 3)\nspeed = atan2(1, 2) - min(3, t)",
            "(host_cpu_free > 0.5) && (ghost > 1) && (host_machine_type < 3)",
            "(host_cpu_free > 9) && (host_machine_type < 3)",
            "host_cpu_free = 3\n(host_cpu_free > 2) && (1 < host_cpu_free)",
            "(host_machine_type == 3) && (2 != host_machine_type)"
            " && (1 < host_cpu_free)\n(t = 2) && (t > 1) && (1 <= t)",
        ]
        for source in sources:
            assert_same(parse(source), params)
            assert_same(analyze(source).folded, params)


# -- the golden requirements --------------------------------------------------
GOLDEN_RECORDS = (
    {},
    {"host_cpu_bogomips": 4500.0, "host_cpu_free": 0.95,
     "host_memory_free": 120.0, "host_system_load1": 0.2,
     "host_memory_used": 1e8, "monitor_network_bw": 90.0,
     "monitor_network_delay": 0.3, "host_machine_type": "i386",
     "host_status_age": 2.0, "host_cpu_user": 1.0, "host_cpu_idle": 0.5},
    {"host_cpu_bogomips": 1500.0, "host_cpu_free": 0.0,
     "host_memory_free": 0.0, "host_machine_type": "sparc",
     "monitor_network_delay": 50.0, "telesto": 1.0, "titan": "t"},
)


def test_golden_requirements_agree():
    files = sorted(GOLDEN.glob("*.req"))
    assert files
    for path in files:
        text = path.read_text()
        units = [text] + [line for line in text.splitlines() if line.strip()]
        for unit in units:
            programs = [parse(unit, recover=True)]
            result = analyze(unit, recover=True)
            programs.append(result.folded)
            for program in programs:
                for params in GOLDEN_RECORDS:
                    assert_same(program, params)


# -- the compiled form is built once per program ------------------------------
def test_second_evaluate_reuses_compiled_form():
    program = parse("host_cpu_free > 0.5\nt = host_memory_free / 2\nt > 1")
    assert program._compiled is None
    first = evaluate(program, {"host_cpu_free": 0.9, "host_memory_free": 4.0})
    compiled = program._compiled
    assert compiled is not None and len(compiled) == 3
    second = evaluate(program, {"host_cpu_free": 0.1, "host_memory_free": 4.0})
    assert program._compiled is compiled
    assert first.qualified and not second.qualified


def test_compiled_form_is_not_part_of_the_program_value():
    program, twin = parse("host_cpu_free > 0.5"), parse("host_cpu_free > 0.5")
    evaluate(program, {"host_cpu_free": 0.9})
    assert program == twin
    assert repr(program) == repr(twin)


def test_server_params_are_read_not_copied_or_written():
    params = {"host_cpu_free": 0.9}
    result = evaluate(parse("t = host_cpu_free\nuser_denied_host1 = telesto"),
                      params)
    assert result.env.server is params
    assert params == {"host_cpu_free": 0.9}
