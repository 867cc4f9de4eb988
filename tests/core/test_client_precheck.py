"""Client pre-submit static check + wizard NAK end-to-end."""

from __future__ import annotations

import pytest

from repro.core import RequirementRejected
from tests.conftest import run_process
from tests.core.test_client_selection import small_deployment

UNSAT = "host_cpu_free > 2"


class TestLocalPrecheck:
    def test_unsatisfiable_rejected_before_any_packet(self):
        cluster, dep, client_host, _ = small_deployment()
        client = dep.client_for(client_host)
        with pytest.raises(RequirementRejected) as exc:
            list(client.request_servers(UNSAT, 2))
        assert "REQ101" in str(exc.value)
        assert client.requests_sent == 0
        assert client.precheck_rejections == 1

    def test_misspelling_rejected_locally(self):
        cluster, dep, client_host, _ = small_deployment()
        client = dep.client_for(client_host)
        with pytest.raises(RequirementRejected) as exc:
            list(client.request_servers("host_cpu_fre > 0.9", 2))
        assert "host_cpu_free" in str(exc.value)  # did-you-mean survives
        assert client.requests_sent == 0

    def test_parse_failure_rejected_locally(self):
        cluster, dep, client_host, _ = small_deployment()
        client = dep.client_for(client_host)
        with pytest.raises(RequirementRejected, match="does not parse"):
            list(client.request_servers("@@@ ???", 2))

    def test_warning_only_requirement_still_goes_out(self):
        """Plain unknown names are warnings (thesis: undefined-in-logical
        evaluates false), so the request must reach the wizard."""
        cluster, dep, client_host, _ = small_deployment()
        client = dep.client_for(client_host)

        def p():
            yield cluster.sim.timeout(3.0)
            reply = yield from client.request_servers("a > 0", 2)
            return reply

        reply = run_process(cluster.sim, p(), until=30.0)
        assert not reply.nak
        assert reply.servers == []  # undefined var disqualifies everyone
        assert client.requests_sent == 1
        assert client.precheck_rejections == 0

    def test_precheck_uses_client_compile_cache(self):
        cluster, dep, client_host, _ = small_deployment()
        client = dep.client_for(client_host)
        for _ in range(3):
            with pytest.raises(RequirementRejected):
                list(client.request_servers(UNSAT, 2))
        assert client.compile_cache.misses == 1
        assert client.compile_cache.hits == 2
        assert client.precheck_rejections == 3


class TestWizardNakEndToEnd:
    def test_precheck_false_gets_wizard_nak(self):
        cluster, dep, client_host, _ = small_deployment()
        client = dep.client_for(client_host)

        def p():
            yield cluster.sim.timeout(3.0)
            reply = yield from client.request_servers(UNSAT, 2, precheck=False)
            return reply

        reply = run_process(cluster.sim, p(), until=30.0)
        assert reply.nak
        assert reply.servers == []
        assert any(d.code == "REQ101" for d in reply.diagnostics)
        assert dep.wizard.requests_rejected_static == 1

    def test_smart_sockets_raises_on_nak(self):
        cluster, dep, client_host, _ = small_deployment()
        client = dep.client_for(client_host)

        def p():
            yield cluster.sim.timeout(3.0)
            try:
                yield from client.smart_sockets(UNSAT, 2, precheck=False)
            except RequirementRejected as exc:
                return ("rejected", [d.code for d in exc.diagnostics])

        verdict, codes = run_process(cluster.sim, p(), until=30.0)
        assert verdict == "rejected"
        assert "REQ101" in codes

    def test_good_requirement_unaffected_by_precheck(self):
        cluster, dep, client_host, _ = small_deployment()
        client = dep.client_for(client_host)

        def p():
            yield cluster.sim.timeout(3.0)
            reply = yield from client.request_servers(
                "host_cpu_bogomips > 2500", 5)
            return sorted(cluster.network.hostname_of(a)
                          for a in reply.servers)

        assert run_process(cluster.sim, p(), until=30.0) == ["srv1", "srv2"]
        assert client.precheck_rejections == 0


class TestComplexPower:
    """A negative base to a fractional power has no real value; the
    language reports it as its own fault, never as a Python TypeError."""

    CONSTANT = "-2 ^ 0.5 > 0"            # folds: REQ008 + REQ101
    RUNTIME = "(host_cpu_free - 2) ^ 0.5 > 0"  # faults on every server

    def test_precheck_rejects_constant_form(self):
        cluster, dep, client_host, _ = small_deployment()
        client = dep.client_for(client_host)
        with pytest.raises(RequirementRejected) as exc:
            list(client.request_servers(self.CONSTANT, 2))
        assert "REQ008" in str(exc.value)
        assert client.requests_sent == 0

    def test_wizard_naks_or_answers_then_serves_the_next_request(self):
        cluster, dep, client_host, _ = small_deployment()
        client = dep.client_for(client_host)

        def p():
            yield cluster.sim.timeout(3.0)
            replies = []
            for text in (self.CONSTANT, self.RUNTIME,
                         "host_cpu_bogomips > 2500"):
                reply = yield from client.request_servers(
                    text, 5, precheck=False)
                replies.append(reply)
            return replies

        nak, empty, good = run_process(cluster.sim, p(), until=30.0)
        assert nak.nak and nak.servers == []
        assert [d.code for d in nak.diagnostics] == ["REQ008", "REQ101"]
        assert not empty.nak and empty.servers == []
        assert sorted(cluster.network.hostname_of(a)
                      for a in good.servers) == ["srv1", "srv2"]
        assert dep.wizard.requests_rejected_static == 1
        assert dep.wizard.request_errors == 0
        assert dep.wizard.requests_handled == 3
        cluster.run(until=40.0)  # the simulation keeps running


def test_wizard_survives_a_requirement_nested_past_the_recursion_limit():
    cluster, dep, client_host, _ = small_deployment()
    client = dep.client_for(client_host)
    deep = "(" * 5000 + "host_cpu_free" + ")" * 5000 + " > 0"

    def p():
        yield cluster.sim.timeout(3.0)
        first = yield from client.request_servers(deep, 5, precheck=False)
        second = yield from client.request_servers(
            "host_cpu_bogomips > 2500", 5)
        return first, second

    first, second = run_process(cluster.sim, p(), until=30.0)
    assert not first.nak and first.servers == []
    assert dep.wizard.parse_failures == 1
    assert len(second.servers) == 2
    with pytest.raises(RequirementRejected, match="does not parse"):
        list(client.request_servers(deep, 5))
