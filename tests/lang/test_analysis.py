"""Tests for the static-analysis pipeline (repro.lang.analysis)."""

from __future__ import annotations

import difflib
import random

import pytest

from repro.lang import (
    BinOp,
    Compare,
    CompileCache,
    EvalError,
    Num,
    Program,
    analyze,
    compile_requirement,
    evaluate,
    parse,
)
from repro.lang.analysis import (
    _CLOSE_MATCH_CAP,
    _FUNC_REGISTRY,
    _VAR_REGISTRY,
    FALSE,
    TRUE,
    UNKNOWN,
    _close_match,
)


def codes(result):
    return [d.code for d in result.diagnostics]


class TestSemanticDiagnostics:
    def test_clean_requirement_has_no_diagnostics(self):
        r = analyze("host_cpu_free > 0.9\nhost_memory_free > 5")
        assert r.diagnostics == []
        assert r.ok

    def test_misspelled_variable_did_you_mean(self):
        r = analyze("host_cpu_fre > 0.9")
        assert codes(r) == ["REQ002"]
        assert "host_cpu_free" in r.diagnostics[0].message
        assert r.diagnostics[0].is_error
        assert (r.diagnostics[0].line, r.diagnostics[0].col) == (1, 1)

    def test_plain_unknown_variable_is_warning(self):
        r = analyze("a > 0")
        assert codes(r) == ["REQ001"]
        assert not r.diagnostics[0].is_error
        assert r.ok  # warnings do not fail the analysis

    def test_unknown_function_with_suggestion(self):
        r = analyze("sqr(host_cpu_free) > 0.5")
        assert "REQ003" in codes(r)
        diag = next(d for d in r.diagnostics if d.code == "REQ003")
        assert "sqrt" in diag.message

    def test_builtin_arity_error(self):
        r = analyze("sin(1, 2) > 0")
        assert "REQ004" in codes(r)

    def test_assignment_to_readonly_predefined(self):
        for name in ("host_cpu_free", "monitor_network_bw",
                     "host_status_age", "PI"):
            r = analyze(f"{name} = 3")
            assert "REQ005" in codes(r), name

    def test_user_side_slots_are_assignable(self):
        r = analyze("user_denied_host1 = telesto\nuser_preferred_host5 = 1.2.3.4")
        assert r.diagnostics == []

    def test_arithmetic_on_address_literal(self):
        r = analyze("1.2.3.4 + 1 > 2")
        assert "REQ006" in codes(r)

    def test_ordering_on_address_literal(self):
        r = analyze("monitor_network_bw > 1.2.3.4")
        assert "REQ006" in codes(r)
        assert r.unsatisfiable  # faults at runtime -> logical false

    def test_statement_without_effect(self):
        r = analyze("host_cpu_free + 1")
        assert codes(r) == ["REQ007"]

    def test_constant_fault_division_by_zero(self):
        r = analyze("1 / 0 > 0")
        assert "REQ008" in codes(r)
        assert r.unsatisfiable

    def test_constant_fault_complex_power(self):
        # unary minus binds tighter than ^: (-2) ^ 0.5 has no real value
        compiled = compile_requirement("-2 ^ 0.5 > 0")
        assert [d.code for d in compiled.diagnostics] == ["REQ008", "REQ101"]
        assert "negative base raised to a fractional power" in \
            compiled.diagnostics[0].message
        assert (compiled.diagnostics[0].line,
                compiled.diagnostics[0].col) == (1, 4)
        assert compiled.unsatisfiable

    def test_complex_power_in_assignment_is_reported_not_raised(self):
        compiled = compile_requirement("t = (0 - 8) ^ (1 / 3)\nt > 0")
        assert "REQ008" in [d.code for d in compiled.diagnostics]
        assert not compiled.parse_failed

    def test_string_attribute_equality_is_clean(self):
        # §6 extension: bare identifiers read as string literals
        r = analyze("host_machine_type == i386")
        assert r.diagnostics == []

    def test_hostname_idiom_hyphen_is_clean(self):
        r = analyze("user_denied_host5 = titan-x")
        assert r.diagnostics == []

    def test_misspelling_caught_even_in_string_equality(self):
        r = analyze("host_cpu_fre == i386")
        assert "REQ002" in codes(r)


class TestSatisfiability:
    def test_fraction_range_upper(self):
        r = analyze("host_cpu_free > 2")
        assert codes(r) == ["REQ101"]
        assert r.unsatisfiable
        assert r.statement_truths == [(1, FALSE)]

    def test_fraction_range_negative(self):
        r = analyze("host_cpu_idle < -0.5")
        assert r.unsatisfiable

    def test_nonnegative_rate(self):
        r = analyze("host_network_rbytesps < -1")
        assert r.unsatisfiable

    def test_satisfiable_is_not_flagged(self):
        r = analyze("host_cpu_free > 0.9")
        assert r.diagnostics == []
        assert not r.unsatisfiable
        assert r.statement_truths == [(1, UNKNOWN)]

    def test_always_true_warns(self):
        r = analyze("host_cpu_free >= 0")
        assert codes(r) == ["REQ201"]
        assert not r.unsatisfiable
        assert r.statement_truths == [(1, TRUE)]

    def test_dead_and_branch(self):
        r = analyze("(host_cpu_free > 2) && (host_memory_free > 5)")
        assert "REQ102" in codes(r)
        assert r.unsatisfiable

    def test_redundant_and_branch(self):
        r = analyze("(host_cpu_free >= 0) && (host_memory_free > 5)")
        assert "REQ203" in codes(r)
        assert not r.unsatisfiable

    def test_dead_or_branch_is_warning_only(self):
        r = analyze("(host_cpu_free > 0.9) || (monitor_network_delay < -1)")
        assert codes(r) == ["REQ202"]
        assert not r.unsatisfiable

    def test_or_with_one_live_branch_is_satisfiable(self):
        r = analyze("(host_cpu_bogomips > 4000) || (host_cpu_bogomips < 2000)")
        assert r.diagnostics == []

    def test_interval_through_arithmetic(self):
        # host_cpu_free in [0,1] so 10*free + 5 in [5,15]: > 20 impossible
        r = analyze("10 * host_cpu_free + 5 > 20")
        assert r.unsatisfiable

    def test_interval_through_temp_variables(self):
        r = analyze("x = host_cpu_free\nx > 3")
        assert r.unsatisfiable

    def test_constant_temp_propagates(self):
        r = analyze("threshold = 2\nhost_cpu_free > threshold")
        assert r.unsatisfiable

    def test_mb_vs_bytes_unit_warning(self):
        r = analyze("host_memory_free > 5*1024*1024")
        assert "REQ204" in codes(r)

    def test_mb_comparison_in_mb_is_clean(self):
        r = analyze("host_memory_free > 5")
        assert r.diagnostics == []

    def test_unsatisfiability_spans_multiple_statements(self):
        r = analyze("host_cpu_free > 0.5\nhost_status_age < -1")
        assert r.unsatisfiable
        assert r.statement_truths == [(1, UNKNOWN), (2, FALSE)]


class TestConstantFolding:
    def test_constant_subtree_folds_to_literal(self):
        r = analyze("host_memory_used <= 250*1024*1024")
        cmp_node = r.folded.statements[0]
        assert isinstance(cmp_node.right, Num)
        assert cmp_node.right.value == 250 * 1024 * 1024

    def test_named_constants_fold(self):
        r = analyze("host_cpu_free < PI / 4")
        assert isinstance(r.folded.statements[0].right, Num)

    def test_folded_program_evaluates_identically(self):
        source = (
            "host_cpu_free > 0.25\n"
            "host_memory_free > 2 + 3\n"
            "x = 2 ^ 3\n"
            "host_cpu_bogomips > x * 100\n"
            "user_denied_host1 = telesto\n"
            "(host_system_load1 < 0.5) || (host_cpu_idle > 0.9)\n"
        )
        original = parse(source)
        folded = analyze(source).folded
        rng = random.Random(42)
        for _ in range(50):
            params = {
                "host_cpu_free": rng.random(),
                "host_cpu_idle": rng.random(),
                "host_memory_free": rng.uniform(0, 10),
                "host_cpu_bogomips": rng.uniform(0, 5000),
                "host_system_load1": rng.uniform(0, 2),
            }
            a = evaluate(original, params)
            b = evaluate(folded, params)
            assert a.qualified == b.qualified
            assert a.logical_results == b.logical_results
            assert a.env.denied_hosts() == b.env.denied_hosts()

    def test_folding_preserves_logical_classification(self):
        # a folded always-true comparison must stay a Compare node: the
        # qualify-iff-every-logical-statement-true rule depends on it
        r = analyze("(1 < 2) && (host_cpu_free > 0.1)")
        from repro.lang import Logic, is_logical
        assert isinstance(r.folded.statements[0], Logic)
        assert is_logical(r.folded.statements[0])


class TestCompileCache:
    def test_hit_and_miss_counting(self):
        cache = CompileCache(maxsize=4)
        cache.get_or_compile("host_cpu_free > 0.9")
        cache.get_or_compile("host_cpu_free > 0.9")
        cache.get_or_compile("host_memory_free > 5")
        assert cache.hits == 1
        assert cache.misses == 2

    def test_lru_eviction(self):
        cache = CompileCache(maxsize=2)
        cache.get_or_compile("a > 1")
        cache.get_or_compile("b > 1")
        cache.get_or_compile("a > 1")   # refresh a
        cache.get_or_compile("c > 1")   # evicts b
        assert len(cache) == 2
        cache.get_or_compile("b > 1")   # miss again
        assert cache.misses == 4

    def test_compiled_entry_carries_verdict(self):
        entry = compile_requirement("host_cpu_free > 2")
        assert entry.unsatisfiable
        assert any(d.code == "REQ101" for d in entry.diagnostics)

    def test_parse_failure_is_flagged_not_raised(self):
        entry = compile_requirement("@@@ ???")
        assert entry.parse_failed
        assert not entry.unsatisfiable

    def test_recovered_lines_still_analyze(self):
        entry = compile_requirement("host_cpu_free > ) (\nhost_cpu_free > 2")
        assert not entry.parse_failed
        assert entry.unsatisfiable


class TestEvaluatorSpans:
    """Satellite: EvalErrors must carry the failing node's line AND col."""

    def test_division_by_zero_span(self):
        r = evaluate(parse("host_cpu_free / (1 - 1) > 0.5"),
                     {"host_cpu_free": 0.9})
        assert "line 1" in r.errors[0]
        assert "col" in r.errors[0]

    def test_builtin_domain_error_span(self):
        r = evaluate(parse("sqrt(0 - host_cpu_free) > 0"),
                     {"host_cpu_free": 4.0})
        assert "line 1, col 1" in r.errors[0]

    def test_second_line_error_points_at_line_two(self):
        r = evaluate(parse("host_cpu_free > 0.1\n1 / (1 - 1) > 0"),
                     {"host_cpu_free": 0.9})
        assert "line 2" in r.errors[0]

    def test_complex_power_is_an_eval_error(self):
        program = compile_requirement("(host_cpu_free - 2) ^ 0.5 > 0").folded
        r = evaluate(program, {"host_cpu_free": 0.5})
        assert not r.qualified
        assert r.logical_results == [(1, False)]
        assert r.errors == ["power: negative base raised to a fractional "
                            "power at line 1, col 21"]
        # a base the power can take stays a plain number
        assert evaluate(program, {"host_cpu_free": 3.0}).qualified

    def test_string_arithmetic_points_at_operand(self):
        r = evaluate(parse("host_cpu_free + 1.2.3.4 > 1"),
                     {"host_cpu_free": 0.9})
        # the address literal starts at column 17
        assert "col 17" in r.errors[0]


class TestDidYouMeanMemo:
    """``_close_match`` is memoized; the memo must answer exactly as an
    uncached ``difflib`` call would, and stay within its cap."""

    @staticmethod
    def one_edit_variants(name):
        for i in range(len(name)):
            yield name[:i] + name[i + 1:]            # deletion
            yield name[:i] + "q" + name[i + 1:]      # substitution
            if i + 1 < len(name):                    # transposition
                yield name[:i] + name[i + 1] + name[i] + name[i + 2:]

    def test_memo_matches_uncached_difflib(self):
        for registry in (_VAR_REGISTRY, _FUNC_REGISTRY):
            candidates = sorted(registry)
            for name in candidates:
                for variant in self.one_edit_variants(name):
                    hits = difflib.get_close_matches(
                        variant, candidates, n=1, cutoff=0.8)
                    expected = hits[0] if hits else None
                    assert _close_match(variant, registry) == expected
                    assert _close_match(variant, registry) == expected

    def test_known_misspellings(self):
        assert _close_match("sqr", _FUNC_REGISTRY) == "sqrt"
        assert _close_match("host_cpu_fre", _VAR_REGISTRY) == "host_cpu_free"
        assert _close_match("telesto", _VAR_REGISTRY) is None

    def test_flood_of_unknown_names_stays_within_cap(self):
        _close_match.cache_clear()
        for i in range(10 * _CLOSE_MATCH_CAP):
            _close_match(f"ghost{i}", _VAR_REGISTRY)
        info = _close_match.cache_info()
        assert info.maxsize == _CLOSE_MATCH_CAP
        assert info.currsize == _CLOSE_MATCH_CAP
        # still answers correctly once the memo has cycled
        assert _close_match("host_cpu_fre", _VAR_REGISTRY) == "host_cpu_free"


class TestDeepNesting:
    """Nesting past the interpreter's recursion limit is the language's own
    failure, never a RecursionError."""

    def test_deep_parentheses_fail_to_compile(self):
        text = "(" * 5000 + "host_cpu_free" + ")" * 5000 + " > 0"
        compiled = compile_requirement(text)
        assert compiled.parse_failed and compiled.folded.statements == []

    def test_long_chain_fails_to_compile(self):
        compiled = compile_requirement("x = " + " + ".join(["1"] * 5000))
        assert compiled.parse_failed

    def test_deep_program_is_an_eval_error(self):
        node = Num(1.0)
        for _ in range(5000):
            node = BinOp("+", node, Num(1.0))
        program = Program(statements=[Compare(">", node, Num(0.0))])
        with pytest.raises(EvalError, match="nested too deeply"):
            evaluate(program, {})
