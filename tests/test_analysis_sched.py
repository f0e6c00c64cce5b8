"""Fixtures for the SCHED schedule-sensitivity rules.

Known-bad snippets model reliance on the event queue's same-timestamp
tie-breaking (``(time, priority, seq)`` in sim/core.py); known-good
counterparts use the sanctioned escapes — explicit priorities, positive
delays, sorted iteration, a sequence tie-breaker in hand-built heaps.
"""

import textwrap

from repro.analysis.linter import lint_source


def rules_of(source):
    return [v.rule for v in lint_source(textwrap.dedent(source))]


class TestZeroDelayChains:
    def test_two_zero_delay_timeouts_flagged(self):
        assert rules_of(
            """
            def f(env):
                yield env.timeout(0)
                yield env.timeout(0)
            """
        ) == ["SCHED001"]

    def test_single_zero_delay_not_flagged(self):
        assert rules_of(
            """
            def f(env):
                yield env.timeout(0)
            """
        ) == []

    def test_zero_delay_in_loop_flagged(self):
        assert rules_of(
            """
            def f(env, events):
                for event in events:
                    env.schedule(event, 0)
            """
        ) == ["SCHED001"]

    def test_explicit_priority_exempts_schedule(self):
        assert rules_of(
            """
            def f(env, events):
                for event in events:
                    env.schedule(event, 0, priority=0)
            """
        ) == []

    def test_positive_delays_not_flagged(self):
        assert rules_of(
            """
            def f(env):
                yield env.timeout(0.1)
                yield env.timeout(0.1)
            """
        ) == []

    def test_callbacks_at_the_current_tick_flagged(self):
        assert rules_of(
            """
            def f(env, fn):
                env.call_at(env.now_ticks, lambda: env.call_at(env.now_ticks, fn))
            """
        ) == ["SCHED001"]

    def test_callbacks_at_a_later_tick_not_flagged(self):
        assert rules_of(
            """
            def f(env, fn, ticks):
                env.call_at(env.now_ticks + ticks, fn)
                env.call_at(env.now_ticks + ticks, fn)
            """
        ) == []

    def test_engine_internal_schedule_exempt(self):
        # _schedule's signature carries the priority explicitly
        assert rules_of(
            """
            def trigger(self, env, event):
                env._schedule(event, 0, 0.0)
                env._schedule(event, 1, 0.0)
            """
        ) == []


class TestSetIterationDataflow:
    def test_tracked_set_variable_flagged(self):
        # DET006 only sees literal sets in the for-header; this one is
        # built two statements earlier and found by dataflow
        assert rules_of(
            """
            def f(env, flows):
                pending = set(flows)
                for flow in pending:
                    env.process(flow.run())
            """
        ) == ["SCHED002"]

    def test_set_through_union_flagged(self):
        assert rules_of(
            """
            def f(env, a, b):
                pending = set(a) | set(b)
                for flow in pending:
                    env.timeout(flow.eta)
            """
        ) == ["SCHED002"]

    def test_trace_hash_fed_from_set_flagged(self):
        assert rules_of(
            """
            def f(hasher, flows):
                seen = set(flows)
                for flow in seen:
                    hasher.update_text(flow.name)
            """
        ) == ["SCHED002"]

    def test_sorted_view_not_flagged(self):
        assert rules_of(
            """
            def f(env, flows):
                pending = set(flows)
                for flow in sorted(pending, key=lambda f: f.uid):
                    env.process(flow.run())
            """
        ) == []

    def test_list_iteration_not_flagged(self):
        assert rules_of(
            """
            def f(env, flows):
                pending = list(flows)
                for flow in pending:
                    env.process(flow.run())
            """
        ) == []

    def test_set_iteration_without_side_effects_not_flagged(self):
        assert rules_of(
            """
            def f(flows):
                pending = set(flows)
                total = 0.0
                for flow in pending:
                    total += flow.remaining_bits
                return total
            """
        ) == []

    def test_literal_set_stays_det006(self):
        # literal sets in the header remain DET006's finding, not SCHED002
        assert rules_of(
            """
            def f(env, flows):
                for flow in set(flows):
                    env.timeout(flow.eta)
            """
        ) == ["DET006"]


class TestHeapEntries:
    def test_time_payload_tuple_flagged(self):
        assert rules_of(
            """
            import heapq

            def push(queue, when, event):
                heapq.heappush(queue, (when, event))
            """
        ) == ["SCHED003"]

    def test_seq_tiebreaker_exempts(self):
        assert rules_of(
            """
            import heapq

            def push(queue, when, seq, event):
                heapq.heappush(queue, (when, seq, event))
            """
        ) == []

    def test_counter_tiebreaker_exempts(self):
        assert rules_of(
            """
            import heapq
            import itertools

            counter = itertools.count()

            def push(queue, deadline, event):
                heapq.heappush(queue, (deadline, next(counter), event))
            """
        ) == []

    def test_non_time_first_element_not_flagged(self):
        assert rules_of(
            """
            import heapq

            def push(queue, weight, event):
                heapq.heappush(queue, (weight, event))
            """
        ) == []

    def test_pragma_suppresses_sched(self):
        assert rules_of(
            """
            import heapq

            def push(queue, when, event):
                heapq.heappush(queue, (when, event))  # repro: noqa=SCHED003
            """
        ) == []
