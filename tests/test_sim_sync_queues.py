"""Tests for event combinators and resources."""

import pytest

from repro.errors import SimulationError
from repro.sim import AllOf, Environment, Resource, any_of


# --- AllOf / any_of ------------------------------------------------------------
def test_all_of_waits_for_every_event():
    env = Environment()
    seen = []

    def proc():
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(3.0, value="b")
        result = yield AllOf(env, [t1, t2])
        seen.append((list(result.values()), env.now))

    env.process(proc())
    env.run()
    assert seen == [(["a", "b"], 3.0)]


def test_all_of_empty_triggers_immediately():
    env = Environment()
    seen = []

    def proc():
        result = yield AllOf(env, [])
        seen.append((result, env.now))

    env.process(proc())
    env.run()
    assert seen == [({}, 0.0)]


def test_any_of_first_wins():
    env = Environment()
    seen = []

    def proc():
        slow = env.timeout(9.0, value="slow")
        fast = env.timeout(1.0, value="fast")
        result = yield any_of(env, [slow, fast])
        seen.append((result, env.now))

    env.process(proc())
    env.run()
    assert seen == [("fast", 1.0)]


def test_any_of_empty_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        any_of(env, [])


def test_any_of_with_processed_child_fires_at_once():
    env = Environment()
    seen = []

    def proc():
        early = env.timeout(1.0, value="early")
        yield env.timeout(5.0)
        result = yield any_of(env, [env.timeout(1.0, value="late"), early])
        seen.append((result, env.now))

    env.process(proc())
    env.run()
    assert seen == [("early", 5.0)]


def test_any_of_defuses_a_late_failure():
    env = Environment()
    seen = []

    def failer():
        yield env.timeout(2.0)
        raise RuntimeError("lost the race, then died")

    def proc():
        result = yield any_of(env, [env.timeout(1.0, value="won"), env.process(failer())])
        seen.append(result)

    env.process(proc())
    env.run()  # the late failure must not surface from step()
    assert seen == ["won"]


def test_all_of_child_failure_propagates():
    env = Environment()
    caught = []

    def failer():
        yield env.timeout(1.0)
        raise RuntimeError("child died")

    def proc():
        try:
            yield AllOf(env, [env.process(failer()), env.timeout(10.0)])
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(proc())
    env.run()
    assert caught == ["child died"]


def test_all_of_with_processed_events():
    env = Environment()
    seen = []

    def proc():
        early = env.timeout(1.0, value=1)
        yield env.timeout(5.0)
        result = yield AllOf(env, [early, env.timeout(1.0, value=2)])
        seen.append((sorted(result.values()), env.now))

    env.process(proc())
    env.run()
    assert seen == [([1, 2], 6.0)]


# --- Resource ------------------------------------------------------------------------
def test_resource_serialises_holders():
    env = Environment()
    trace = []

    def worker(name, res):
        req = res.request()
        yield req
        trace.append((name, "acquired", env.now))
        yield env.timeout(2.0)
        res.release(req)

    res = Resource(env)
    env.process(worker("a", res))
    env.process(worker("b", res))
    env.run()
    assert trace == [("a", "acquired", 0.0), ("b", "acquired", 2.0)]


def test_uncontended_request_is_granted_without_an_event():
    from repro.sim.core import install_trace_sink, remove_trace_sink

    env = Environment()
    res = Resource(env)
    popped = []

    def sink(tick, priority, seq, entry):
        popped.append(entry)

    install_trace_sink(sink)
    try:
        req = res.request()
        assert req.processed and req.ok and req.value is None
        assert res.count == 1
        env.run()
    finally:
        remove_trace_sink(sink)
    assert popped == []  # the grant spent no queue entry
    res.release(req)
    assert res.count == 0


def test_requests_queue_fifo_behind_waiters():
    env = Environment()
    res = Resource(env)
    first = res.request()
    waiting = [res.request(), res.request()]
    assert not any(req.triggered for req in waiting)
    res.release(first)
    assert waiting[0].triggered and not waiting[1].triggered
    # a unit is held (by the granted waiter), so a new request queues last
    late = res.request()
    assert not late.triggered
    res.release(waiting[0])
    assert waiting[1].triggered and not late.triggered
    res.release(waiting[1])
    assert late.triggered
    env.run()
    assert late.processed


def test_resource_double_release_rejected():
    env = Environment()
    res = Resource(env)

    def worker():
        req = res.request()
        yield req
        res.release(req)
        res.release(req)

    env.process(worker())
    with pytest.raises(SimulationError):
        env.run()
