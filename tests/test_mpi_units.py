"""Unit tests for MPI building blocks: envelopes, requests,
reduction ops, mailbox edge cases."""

import numpy as np
import pytest

from repro.errors import MpiError
from repro.mpi import ANY_SOURCE, ANY_TAG, Request, Status
from repro.mpi.constants import (
    BAND,
    BOR,
    COLLECTIVE_CONTEXT,
    LAND,
    LOR,
    MAX,
    MIN,
    POINT_TO_POINT_CONTEXT,
    PROD,
    SUM,
)
from repro.mpi.matching import Mailbox
from repro.mpi.message import Envelope
from repro.mpi.request import waitall, waitany
from repro.sim import Environment


# --- reduction ops ---------------------------------------------------------------
def test_ops_on_scalars():
    assert SUM(2, 3) == 5
    assert PROD(2, 3) == 6
    assert MAX(2, 3) == 3
    assert MIN(2, 3) == 2
    assert LAND(True, False) is False
    assert LOR(True, False) is True
    assert BAND(0b1100, 0b1010) == 0b1000
    assert BOR(0b1100, 0b1010) == 0b1110


def test_ops_on_arrays():
    a, b = np.array([1.0, 5.0]), np.array([3.0, 2.0])
    np.testing.assert_array_equal(SUM(a, b), [4.0, 7.0])
    np.testing.assert_array_equal(MAX(a, b), [3.0, 5.0])


def test_ops_none_passthrough():
    assert SUM(None, None) is None
    assert SUM(None, 5) == 5
    assert SUM(5, None) == 5


# --- envelopes ----------------------------------------------------------------------
def test_envelope_matching():
    env = Envelope(src=2, dst=0, tag=7, context=POINT_TO_POINT_CONTEXT, nbytes=10)
    assert env.matches(2, 7, POINT_TO_POINT_CONTEXT)
    assert env.matches(ANY_SOURCE, 7, POINT_TO_POINT_CONTEXT)
    assert env.matches(2, ANY_TAG, POINT_TO_POINT_CONTEXT)
    assert env.matches(ANY_SOURCE, ANY_TAG, POINT_TO_POINT_CONTEXT)
    assert not env.matches(1, 7, POINT_TO_POINT_CONTEXT)
    assert not env.matches(2, 8, POINT_TO_POINT_CONTEXT)
    assert not env.matches(2, 7, COLLECTIVE_CONTEXT)


# --- requests ----------------------------------------------------------------------
def test_request_lifecycle():
    env = Environment()
    req = Request(env, "send")
    assert not req.complete
    assert not req.test()
    with pytest.raises(MpiError):
        req.result()
    req._finish("done")
    env.run()
    assert req.complete
    assert req.result() == "done"
    assert "complete" in repr(req)


def test_request_kind_validation():
    env = Environment()
    with pytest.raises(MpiError):
        Request(env, "teleport")


def test_waitall_empty():
    env = Environment()

    def proc(out):
        results = yield from waitall(env, [])
        out.append(results)

    out = []
    env.process(proc(out))
    env.run()
    assert out == [[]]


def test_waitany_empty_rejected():
    env = Environment()

    def proc():
        yield from waitany(env, [])

    env.process(proc())
    with pytest.raises(MpiError):
        env.run()


# --- mailbox ------------------------------------------------------------------------
def test_mailbox_validation():
    env = Environment()
    with pytest.raises(MpiError):
        Mailbox(env, 0, copy_bandwidth=0)


def test_mailbox_idle():
    env = Environment()
    box = Mailbox(env, 0, copy_bandwidth=1e9)
    assert box.idle()
    box.post_recv(ANY_SOURCE, ANY_TAG, POINT_TO_POINT_CONTEXT)
    assert not box.idle()


def test_mailbox_unexpected_then_matched():
    env = Environment()
    box = Mailbox(env, 0, copy_bandwidth=1e9)
    envelope = Envelope(
        src=1, dst=0, tag=3, context=POINT_TO_POINT_CONTEXT, nbytes=1000,
        payload="data",
    )
    box.deliver(envelope)
    assert box.stats.unexpected == 1
    env.run(until=1e-6)  # the receive is genuinely late, not a same-tick tie
    request = box.post_recv(1, 3, POINT_TO_POINT_CONTEXT)
    env.run()  # run the copy process
    assert request.complete
    payload, status = request.result()
    assert payload == "data"
    assert status == Status(1, 3, 1000)
    assert box.stats.copies_bytes == 1000
    assert box.idle()


def test_mailbox_posted_then_delivered_no_copy():
    env = Environment()
    box = Mailbox(env, 0, copy_bandwidth=1e9)
    request = box.post_recv(ANY_SOURCE, ANY_TAG, POINT_TO_POINT_CONTEXT)
    box.deliver(
        Envelope(src=2, dst=0, tag=0, context=POINT_TO_POINT_CONTEXT, nbytes=50)
    )
    env.run()
    assert request.complete
    assert box.stats.expected == 1
    assert box.stats.copies_bytes == 0


def test_mailbox_wildcards_match_in_arrival_order():
    env = Environment()
    box = Mailbox(env, 0, copy_bandwidth=1e9)
    for i, src in enumerate((3, 1, 2)):
        env.run(until=(i + 1) * 1e-6)  # distinct arrival instants
        box.deliver(
            Envelope(src=src, dst=0, tag=0, context=POINT_TO_POINT_CONTEXT,
                     nbytes=8, payload=i)
        )
    env.run(until=1e-5)
    request = box.post_recv(ANY_SOURCE, ANY_TAG, POINT_TO_POINT_CONTEXT)
    env.run()
    payload, status = request.result()
    assert payload == 0  # first arrival, regardless of source rank
    assert status.source == 3


def test_mailbox_same_tick_arrivals_match_in_canonical_order():
    # Cross-sender order within one tick is a queue accident; the mailbox
    # canonicalises it to (src, seq) so ANY_SOURCE matching is
    # schedule-independent.
    env = Environment()
    box = Mailbox(env, 0, copy_bandwidth=1e9)
    for i, src in enumerate((3, 1, 2)):
        box.deliver(
            Envelope(src=src, dst=0, tag=0, context=POINT_TO_POINT_CONTEXT,
                     nbytes=8, payload=i)
        )
    env.run(until=1e-6)
    request = box.post_recv(ANY_SOURCE, ANY_TAG, POINT_TO_POINT_CONTEXT)
    env.run()
    payload, status = request.result()
    assert status.source == 1  # lowest same-instant source, not arrival accident
    assert payload == 1


def test_mailbox_same_tick_tie_is_expected_no_copy():
    # An envelope arriving at exactly the tick its receive is posted is
    # classified expected in both intra-tick orders: no unexpected-queue
    # copy charge, and the stats agree with the post-first schedule.
    env = Environment()
    box = Mailbox(env, 0, copy_bandwidth=1e9)
    envelope = Envelope(
        src=1, dst=0, tag=3, context=POINT_TO_POINT_CONTEXT, nbytes=1000,
        payload="data",
    )
    box.deliver(envelope)
    request = box.post_recv(1, 3, POINT_TO_POINT_CONTEXT)
    env.run()
    payload, status = request.result()
    assert payload == "data"
    assert status == Status(1, 3, 1000)
    assert box.stats.expected == 1
    assert box.stats.unexpected == 0
    assert box.stats.copies_bytes == 0
