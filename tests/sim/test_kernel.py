"""Unit tests for the discrete-event kernel."""

from __future__ import annotations

import pytest

from repro.sim import Interrupt, SimulationError
from tests.conftest import run_process


class TestTimeAdvancement:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_timeout_advances_clock(self, sim):
        def p():
            yield sim.timeout(2.5)
            return sim.now

        assert run_process(sim, p()) == 2.5

    def test_run_until_extends_clock_past_last_event(self, sim):
        sim.process(iter_timeout(sim, 1.0))
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_in_past_rejected(self, sim):
        sim.process(iter_timeout(sim, 5.0))
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_zero_delay_events_fifo_order(self, sim):
        order = []

        def maker(tag):
            def p():
                order.append(tag)
                return
                yield  # pragma: no cover

            return p()

        for tag in range(5):
            sim.process(maker(tag))
        sim.run()
        assert order == [0, 1, 2, 3, 4]


class TestProcessSemantics:
    def test_process_return_value(self, sim):
        def p():
            yield sim.timeout(1)
            return "done"

        assert run_process(sim, p()) == "done"

    def test_process_waits_on_process(self, sim):
        def child():
            yield sim.timeout(3)
            return 42

        def parent():
            value = yield sim.process(child())
            return (value, sim.now)

        assert run_process(sim, parent()) == (42, 3.0)

    def test_yielding_non_event_raises(self, sim):
        def p():
            yield 42

        sim.process(p())
        with pytest.raises(SimulationError, match="non-event"):
            sim.run()

    def test_uncaught_exception_propagates_from_run(self, sim):
        def p():
            yield sim.timeout(1)
            raise ValueError("boom")

        sim.process(p())
        with pytest.raises(ValueError, match="boom"):
            sim.run()

    def test_waiter_can_catch_child_failure(self, sim):
        def child():
            yield sim.timeout(1)
            raise ValueError("boom")

        def parent():
            try:
                yield sim.process(child())
            except ValueError as exc:
                return str(exc)

        assert run_process(sim, parent()) == "boom"

    def test_interrupt_delivers_cause(self, sim):
        def sleeper():
            try:
                yield sim.timeout(100)
            except Interrupt as i:
                return (i.cause, sim.now)

        def killer(target):
            yield sim.timeout(7)
            target.interrupt("why")

        target = sim.process(sleeper())
        sim.process(killer(target))
        sim.run()
        assert target.value == ("why", 7.0)

    def test_interrupt_dead_process_is_noop(self, sim):
        def p():
            yield sim.timeout(1)

        proc = sim.process(p())
        sim.run()
        proc.interrupt("late")  # must not raise
        sim.run()

    def test_interrupted_process_does_not_wake_twice(self, sim):
        wakes = []

        def sleeper():
            try:
                yield sim.timeout(5)
                wakes.append("timeout")
            except Interrupt:
                wakes.append("interrupt")
            yield sim.timeout(100)

        target = sim.process(sleeper())

        def killer():
            yield sim.timeout(1)
            target.interrupt()

        sim.process(killer())
        sim.run(until=50)
        assert wakes == ["interrupt"]


class TestConditions:
    def test_any_of_returns_first(self, sim):
        def p():
            fast = sim.timeout(1, value="fast")
            slow = sim.timeout(5, value="slow")
            result = yield sim.any_of([fast, slow])
            return (fast in result, slow in result, sim.now)

        assert run_process(sim, p()) == (True, False, 1.0)

    def test_all_of_waits_for_all(self, sim):
        def p():
            a = sim.timeout(1, value="a")
            b = sim.timeout(5, value="b")
            result = yield sim.all_of([a, b])
            return (result[a], result[b], sim.now)

        assert run_process(sim, p()) == ("a", "b", 5.0)

    def test_any_of_empty_fires_immediately(self, sim):
        def p():
            result = yield sim.any_of([])
            return (result, sim.now)

        assert run_process(sim, p()) == ({}, 0.0)


class TestEvents:
    def test_double_succeed_rejected(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            ev.fail("not an exception")  # type: ignore[arg-type]

    def test_value_before_decision_rejected(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_callback_after_processing_runs_immediately(self, sim):
        ev = sim.event()
        ev.succeed("v")
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == ["v"]

    def test_peek_reports_next_event_time(self, sim):
        sim.timeout(3.0)
        assert sim.peek() == 3.0
        sim.run()
        assert sim.peek() == float("inf")


def iter_timeout(sim, delay):
    yield sim.timeout(delay)


class TestConditionsUnderTieShuffle:
    """AnyOf/AllOf resolution is seed-stable under the schedule shuffle.

    Equal-delay events created back-to-back by one process inherit one
    tie key (causal tie-key inheritance), so shuffling equal-timestamp
    processing order must not change which member wins an ``any_of`` or
    the member order of an ``all_of`` result — across any shuffle seed.
    """

    @staticmethod
    def _any_of_run(tie_seed):
        from repro.sim import Simulator
        from repro.sim.rand import RandomStreams

        sim = Simulator()
        if tie_seed is not None:
            sim.enable_tie_shuffle(
                RandomStreams(tie_seed).stream("schedule-tiebreak"))
        outcome = {}

        def waiter():
            # three same-deadline timeouts: the tie is as hard as it gets
            events = [sim.timeout(1.0, value=f"t{i}") for i in range(3)]
            fired = yield sim.any_of(events)
            outcome["winners"] = sorted(fired.values())
            outcome["now"] = sim.now

        sim.process(waiter(), name="waiter")
        sim.run()
        return outcome

    @staticmethod
    def _all_of_run(tie_seed):
        from repro.sim import Simulator
        from repro.sim.rand import RandomStreams

        sim = Simulator()
        if tie_seed is not None:
            sim.enable_tie_shuffle(
                RandomStreams(tie_seed).stream("schedule-tiebreak"))
        outcome = {}

        def waiter():
            events = [sim.timeout(1.0, value=f"t{i}") for i in range(4)]
            values = yield sim.all_of(events)
            outcome["values"] = list(values.values())
            outcome["now"] = sim.now

        sim.process(waiter(), name="waiter")
        sim.run()
        return outcome

    def test_any_of_winner_stable_across_shuffle_seeds(self):
        fifo = self._any_of_run(None)
        results = [self._any_of_run(seed) for seed in (1, 2, 3)]
        for res in results:
            assert res == fifo

    def test_all_of_result_order_stable_across_shuffle_seeds(self):
        fifo = self._all_of_run(None)
        results = [self._all_of_run(seed) for seed in (1, 2, 3)]
        for res in results:
            assert res == fifo
        # all_of preserves creation order of its members in the result
        assert fifo["values"] == ["t0", "t1", "t2", "t3"]


class TestRunUntilEvent:
    """``run_until`` stops exactly where a driver's ``peek()``/``step()``
    loop stopped, and fails past the horizon the same way."""

    @staticmethod
    def _world(finish_at):
        from repro.sim import Simulator

        sim = Simulator()

        def daemon(period):  # immortal: the queue never drains
            while True:
                yield sim.timeout(period)

        def job():
            yield sim.timeout(finish_at / 2)
            yield sim.timeout(finish_at / 2)

        sim.process(daemon(0.3))
        sim.process(daemon(0.5))
        proc = sim.process(job())
        # a same-time event queued behind the job's finish
        sim.timeout(finish_at)
        return sim, proc

    @staticmethod
    def _peek_step(sim, proc, horizon):
        """Reference: the experiment driver's loop before ``run_until``."""
        while not proc.processed:
            if sim.peek() > horizon:
                raise RuntimeError(
                    f"experiment still running at t={sim.now:.1f}s (horizon {horizon}s)"
                )
            sim.step()

    @pytest.mark.parametrize("finish_at", [1.5, 2.0, 3.7])
    def test_stops_on_the_same_event(self, finish_at):
        ref, ref_proc = self._world(finish_at)
        self._peek_step(ref, ref_proc, horizon=100.0)
        sim, proc = self._world(finish_at)
        sim.run_until(proc, horizon=100.0)
        assert proc.processed
        assert (sim.now, len(sim._queue)) == (ref.now, len(ref._queue))

    def test_raises_past_the_horizon_like_the_loop(self):
        ref, ref_proc = self._world(10.0)
        with pytest.raises(RuntimeError) as expected:
            self._peek_step(ref, ref_proc, horizon=4.0)
        sim, proc = self._world(10.0)
        with pytest.raises(RuntimeError) as raised:
            sim.run_until(proc, horizon=4.0)
        assert str(raised.value) == str(expected.value)
        assert (sim.now, len(sim._queue)) == (ref.now, len(ref._queue))
        assert not proc.processed

    def test_drained_queue_raises(self, sim):
        never = sim.event()
        with pytest.raises(RuntimeError):
            sim.run_until(never)
