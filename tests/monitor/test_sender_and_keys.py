"""The one-call producer path and the per-site runtime key functions
behave exactly like the general entry points they replace."""

import random

import pytest

from repro.analysis import Category
from repro.instrument.config import (
    CheckedBranchInfo,
    InstrumentConfig,
    InstrumentationMetadata,
)
from repro.monitor import MODE_FEED, MODE_FULL, Monitor, OutcomeMessage
from repro.monitor.messages import runtime_key_function
from repro.telemetry import Telemetry

INFO = CheckedBranchInfo(static_id=0, function_name="f", block_name="b",
                         check_kind="shared", category=Category.SHARED)


def make(mode, telemetry):
    metadata = InstrumentationMetadata(
        config=InstrumentConfig(queue_capacity=2))
    return Monitor(metadata, 3, mode=mode,
                   telemetry=Telemetry() if telemetry else None)


def observed(monitor):
    facts = [monitor.queue_pressure(), monitor.messages_received,
             monitor.messages_processed,
             [q.full_events for q in monitor.queues],
             [[m.key for m in q._buffer if m is not None]
              for q in monitor.queues]]
    if monitor.telemetry is not None:
        snap = monitor.telemetry.snapshot()
        facts += [snap.gauge("monitor.queue_hwm"),
                  snap.counter("monitor.producer_stalls")]
    return facts


@pytest.mark.parametrize("mode,telemetry", [
    (MODE_FULL, False), (MODE_FEED, False),
    (MODE_FULL, True), (MODE_FEED, True)])
def test_sender_behaves_like_try_send(mode, telemetry):
    """A capacity-2 queue makes producers stall; the sender must agree
    with try_send on every return value and every counter."""
    rng = random.Random(7)
    fast, general = make(mode, telemetry), make(mode, telemetry)
    senders = [fast.sender(tid) for tid in range(3)]
    stalls = 0
    for step in range(300):
        if rng.random() < 0.2:
            limit = rng.randint(1, 4)
            assert fast.drain(limit) == general.drain(limit)
            continue
        tid = rng.randrange(3)
        key = ((tid,), (step,))
        sent = senders[tid](OutcomeMessage(INFO, tid, key))
        assert sent == general.try_send(tid, OutcomeMessage(INFO, tid, key))
        stalls += not sent
        assert observed(fast) == observed(general)
    assert stalls > 0 if mode == MODE_FULL else stalls == 0


def test_full_untimed_sender_is_the_queue_push():
    monitor = make(MODE_FULL, False)
    assert monitor.sender(1) == monitor.queues[1].try_push


def reference_key(callsite, iters, loop_ids):
    return (callsite, tuple(iters.get(lid, -1) for lid in loop_ids))


@pytest.mark.parametrize("loop_ids", [(), (4,), (4, 9), (4, 9, 2, 11)])
def test_runtime_key_function_matches_definition(loop_ids):
    key_of = runtime_key_function(loop_ids)
    for iters in ({}, {4: 0}, {9: 3, 11: 7}, {4: 2, 9: 0, 2: 5, 11: 1},
                  {1: 8, 4: -1}):
        for callsite in ((), (3,), (3, 17)):
            key = key_of(callsite, iters)
            assert key == reference_key(callsite, iters, loop_ids)
            assert type(key[1]) is tuple
