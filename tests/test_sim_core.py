"""Unit tests for the discrete-event engine core."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_initial_time():
    env = Environment(initial_time=10.0)
    assert env.now == 10.0


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(1.5)
        yield env.timeout(0.5)

    env.process(proc())
    env.run()
    assert env.now == pytest.approx(2.0)


def test_timeout_value():
    env = Environment()
    seen = []

    def proc():
        value = yield env.timeout(1.0, value="hello")
        seen.append(value)

    env.process(proc())
    env.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_two_processes_interleave():
    env = Environment()
    trace = []

    def proc(name, delay):
        yield env.timeout(delay)
        trace.append((name, env.now))
        yield env.timeout(delay)
        trace.append((name, env.now))

    env.process(proc("a", 1.0))
    env.process(proc("b", 1.5))
    env.run()
    assert trace == [("a", 1.0), ("b", 1.5), ("a", 2.0), ("b", 3.0)]


def test_same_time_events_fifo():
    env = Environment()
    trace = []

    def proc(name):
        yield env.timeout(1.0)
        trace.append(name)

    for name in "abcde":
        env.process(proc(name))
    env.run()
    assert trace == list("abcde")


def test_process_return_value():
    env = Environment()

    def child():
        yield env.timeout(2.0)
        return 42

    def parent(results):
        value = yield env.process(child())
        results.append(value)

    results = []
    env.process(parent(results))
    env.run()
    assert results == [42]


def test_yield_from_composition():
    env = Environment()

    def inner():
        yield env.timeout(1.0)
        return "inner-done"

    def outer(results):
        value = yield from inner()
        results.append((value, env.now))

    results = []
    env.process(outer(results))
    env.run()
    assert results == [("inner-done", 1.0)]


def test_wait_on_already_finished_process():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        return "early"

    def parent(results, child_proc):
        yield env.timeout(5.0)
        value = yield child_proc
        results.append((value, env.now))

    results = []
    child_proc = env.process(child())
    env.process(parent(results, child_proc))
    env.run()
    assert results == [("early", 5.0)]


def test_event_succeed_once():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        ev.fail("not an exception")


def test_unhandled_process_exception_propagates():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise ValueError("boom")

    env.process(bad())
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_waiter_receives_child_exception():
    env = Environment()
    caught = []

    def bad():
        yield env.timeout(1.0)
        raise ValueError("boom")

    def parent():
        try:
            yield env.process(bad())
        except ValueError as exc:
            caught.append(str(exc))

    env.process(parent())
    env.run()
    assert caught == ["boom"]


def test_late_waiter_on_failed_child_also_receives_exception():
    env = Environment()
    caught = []

    def bad():
        yield env.timeout(1.0)
        raise ValueError("boom")

    def early(child):
        try:
            yield child
        except ValueError as exc:
            caught.append(("early", str(exc), env.now))

    def late(child):
        yield env.timeout(3.0)
        assert child.processed and not child.ok
        try:
            yield child  # already processed: resumed through a failed proxy
        except ValueError as exc:
            caught.append(("late", str(exc), env.now))

    child = env.process(bad())
    env.process(early(child))
    env.process(late(child))
    env.run()  # neither failure is left unconsumed, so nothing re-raises
    assert caught == [("early", "boom", 1.0), ("late", "boom", 3.0)]


def test_run_until_time():
    env = Environment()
    trace = []

    def proc():
        for _ in range(10):
            yield env.timeout(1.0)
            trace.append(env.now)

    env.process(proc())
    env.run(until=3.5)
    assert trace == [1.0, 2.0, 3.0]
    assert env.now == 3.5


def test_run_until_event():
    env = Environment()

    def proc():
        yield env.timeout(2.0)
        return "done"

    result = env.run(until=env.process(proc()))
    assert result == "done"
    assert env.now == 2.0


def test_run_until_past_time_rejected():
    env = Environment(initial_time=5.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_run_until_event_deadlock_detected():
    env = Environment()
    never = env.event()
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=never)


def test_step_empty_queue():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_peek():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(3.0)
    assert env.peek() == 3.0


def test_yield_non_event_rejected():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError, match="must yield Events"):
        env.run()


def test_process_is_alive():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    proc = env.process(quick())
    assert proc.is_alive
    env.run()
    assert not proc.is_alive


def test_process_requires_generator():
    env = Environment()

    def not_a_generator():
        return 42

    with pytest.raises(SimulationError):
        env.process(not_a_generator())  # type: ignore[arg-type]


def test_event_value_before_trigger_rejected():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_determinism_two_runs_identical():
    def build_and_run():
        env = Environment()
        trace = []

        def worker(name, period):
            for _ in range(5):
                yield env.timeout(period)
                trace.append((name, env.now))

        env.process(worker("x", 0.3))
        env.process(worker("y", 0.7))
        env.process(worker("z", 0.3))
        env.run()
        return trace

    assert build_and_run() == build_and_run()


def test_schedule_negative_delay_raises_value_error():
    # Timeout already rejects negative delays at construction; the engine's
    # own _schedule must too, so no other event type can fire in the past.
    env = Environment()
    event = env.event()
    with pytest.raises(ValueError, match="negative delay"):
        env._schedule(event, 1, -0.5)


def test_tie_ranker_permutes_same_time_events():
    from repro.sim.core import tie_ranker

    def run(ranker):
        env = Environment()
        trace = []

        def proc(name):
            # runs when the process-start event pops: one scheduling layer,
            # so the tie-break order is directly observable
            trace.append(name)
            yield env.timeout(1.0)

        with tie_ranker(ranker):
            for name in "abcde":
                env.process(proc(name))
            env.run()
        return trace

    assert run(None) == list("abcde")
    # reversing the tie-break key reverses same-timestamp start order
    assert run(lambda seq: -seq) == list("edcba")


def test_tie_ranker_restored_after_block():
    from repro.sim import core

    with core.tie_ranker(lambda seq: -seq):
        assert core._TIE_RANKER is not None
    assert core._TIE_RANKER is None


# -- integer-tick time contract ------------------------------------------------
#
# The engine keeps virtual time as an integer count of nanosecond ticks;
# floats exist only at the public seconds-valued boundary.  The contract:
# any tick-representable duration round-trips through the boundary exactly,
# and no positive delay can stall the clock.


def test_tick_representable_delays_round_trip_exactly():
    from repro.units import delay_to_ticks, ticks_to_seconds

    for ticks in (1, 41_540, 536, 3_500_000_000, 123_456_789_012_345):
        seconds = ticks_to_seconds(ticks)
        assert delay_to_ticks(seconds) == ticks


def test_tick_round_trip_randomized():
    import random

    from repro.units import delay_to_ticks, ticks_to_seconds

    rng = random.Random(20260808)
    for _ in range(20_000):
        ticks = rng.randrange(1, 10 ** rng.randint(1, 15))
        assert delay_to_ticks(ticks_to_seconds(ticks)) == ticks


def test_now_and_peek_round_trip_representable_values():
    env = Environment()
    timer = env.timeout(41.54e-6)
    assert env.peek() == 41540 / 1e9  # exactly 41.54 µs
    env.run(until=timer)
    assert env.now == 41540 / 1e9
    assert env.now_ticks == 41540


def test_run_until_lands_exactly_on_horizon():
    env = Environment()

    def proc():
        yield env.timeout(1.25)

    env.process(proc())
    env.run(until=3.5)
    assert env.now == 3.5
    assert env.now_ticks == 3_500_000_000


def test_tiny_positive_delay_cannot_stall_clock():
    env = Environment()

    def proc():
        for _ in range(5):
            yield env.timeout(1e-15)

    env.process(proc())
    env.run()
    # Each sub-tick delay rounds up to one full tick instead of zero.
    assert env.now_ticks == 5


def test_now_ticks_is_integer():
    env = Environment(initial_time=2.5)
    assert isinstance(env.now_ticks, int)
    assert env.now_ticks == 2_500_000_000
    assert env.now == 2.5


def test_timeout_at_fires_on_its_exact_tick():
    from repro.units import delay_to_ticks

    env = Environment()
    rtt = 0.0232000004  # not tick-representable: 23,200,000.4 ticks
    tick = 8 * delay_to_ticks(rtt)
    assert tick != delay_to_ticks(8 * rtt)
    fired = []
    env.timeout_at(tick, value="round").callbacks.append(
        lambda ev: fired.append((env.now_ticks, ev.value))
    )
    env.run()
    assert fired == [(tick, "round")]
    with pytest.raises(SimulationError):
        env.timeout_at(tick - 1)


# --- call_at: callbacks without events or processes --------------------------------
def test_call_at_runs_on_its_tick_and_rejects_the_past():
    env = Environment()
    fired = []
    env.call_at(1_500, lambda: fired.append(env.now_ticks))
    env.run()
    assert fired == [1_500]
    with pytest.raises(SimulationError):
        env.call_at(1_499, lambda: None)


def test_call_at_same_tick_is_fifo_and_ordered_like_timeouts():
    env = Environment()
    order = []
    env.call_at(10, lambda: order.append("a"))
    env.timeout_at(10).callbacks.append(lambda _ev: order.append("b"))
    env.call_at(10, lambda: order.append("c"))
    env.call_at(9, lambda: order.append("early"))
    env.run()
    assert order == ["early", "a", "b", "c"]


def test_tie_ranker_permutes_same_tick_calls():
    from repro.sim.core import tie_ranker

    def run(ranker):
        with tie_ranker(ranker):
            env = Environment()
            order = []
            for name in "abcd":
                env.call_at(5, lambda name=name: order.append(name))
            env.run()
        return order

    assert run(None) == list("abcd")
    assert run(lambda seq: -seq) == list("dcba")


def test_trace_sinks_see_calls():
    from repro.sim.core import Call, install_trace_sink, remove_trace_sink

    seen = []

    def sink(tick, priority, seq, entry):
        seen.append((tick, type(entry)))

    env = Environment()
    env.call_at(7, lambda: None)
    install_trace_sink(sink)
    try:
        env.run()
    finally:
        remove_trace_sink(sink)
    assert seen == [(7, Call)]


def test_call_at_exception_propagates_out_of_step():
    env = Environment()

    def boom():
        raise RuntimeError("delivery failed")

    env.call_at(3, boom)
    with pytest.raises(RuntimeError, match="delivery failed"):
        env.step()
    assert env.now_ticks == 3


def test_every_exported_engine_name_is_used_outside_the_engine():
    """``repro.sim`` exports only what the rest of ``repro`` uses.

    A use is an identifier (name, attribute or imported alias) or a string
    constant equal to the name, such as the linter's table of event classes.
    Docstrings and comments do not count.
    """
    import ast
    from pathlib import Path

    import repro
    import repro.sim

    root = Path(repro.__file__).parent
    used = set()
    for path in sorted(root.rglob("*.py")):
        if path.relative_to(root).parts[0] == "sim":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    assert sorted(set(repro.sim.__all__) - used) == []
