"""The monitor drain visits only non-empty queues, yet processes messages
in exactly the order, and leaves exactly the cursors, of the loop that
probes every queue in turn (the reference below)."""

import random

import pytest

from repro.analysis import Category
from repro.instrument.config import (
    CheckedBranchInfo,
    InstrumentConfig,
    InstrumentationMetadata,
)
from repro.monitor import (
    HierarchicalMonitor,
    MODE_FEED,
    MODE_FULL,
    Monitor,
    OutcomeMessage,
)

INFO = CheckedBranchInfo(static_id=0, function_name="f", block_name="b",
                         check_kind="shared", category=Category.SHARED)


def reference_drain(monitor, limit):
    """Round-robin drain probing every queue, empty or not."""
    processed = 0
    empty_streak = 0
    nqueues = len(monitor.queues)
    if nqueues == 0:
        return 0
    while processed < limit and empty_streak < nqueues:
        queue = monitor.queues[monitor._round_robin]
        monitor._round_robin = (monitor._round_robin + 1) % nqueues
        message = queue.try_pop()
        if message is None:
            empty_streak += 1
            continue
        empty_streak = 0
        processed += 1
        if monitor._full:
            monitor._process(message)
    monitor.messages_processed += processed
    return processed


def reference_drain_leaf(monitor, leaf, limit):
    members = monitor.group_members[leaf]
    if not members:
        return 0
    processed = 0
    empty_streak = 0
    while processed < limit and empty_streak < len(members):
        cursor = monitor._group_cursor[leaf]
        tid = members[cursor % len(members)]
        monitor._group_cursor[leaf] = (cursor + 1) % len(members)
        message = monitor.queues[tid].try_pop()
        if message is None:
            empty_streak += 1
            continue
        empty_streak = 0
        processed += 1
        if monitor._full:
            monitor._process(message)
    monitor.leaf_processed[leaf] += processed
    return processed


def reference_drain_tree(monitor, limit):
    total = 0
    for leaf in range(monitor.groups):
        total += reference_drain_leaf(monitor, leaf, limit)
    monitor.messages_processed += total
    return total


def recorded(monitor):
    """Log the key of every message the monitor files."""
    log = []
    process = monitor._process

    def record(message):
        log.append(message.key)
        process(message)

    monitor._process = record
    return log


def make(nthreads, mode, groups):
    metadata = InstrumentationMetadata(
        config=InstrumentConfig(queue_capacity=8))
    if groups is None:
        return Monitor(metadata, nthreads, mode=mode)
    return HierarchicalMonitor(metadata, nthreads, groups=groups, mode=mode)


def state(monitor):
    fields = [monitor._round_robin, monitor.messages_processed,
              [len(q) for q in monitor.queues]]
    if isinstance(monitor, HierarchicalMonitor):
        fields += [list(monitor._group_cursor), list(monitor.leaf_processed)]
    return fields


CASES = [(MODE_FULL, None), (MODE_FEED, None), (MODE_FULL, 2),
         (MODE_FULL, 3), (MODE_FEED, 2)]


@pytest.mark.parametrize("mode,groups", CASES)
def test_drain_matches_probing_every_queue(mode, groups):
    reference = reference_drain if groups is None else reference_drain_tree
    for seed in range(40):
        rng = random.Random(seed)
        nthreads = rng.randint(1, 8)
        new = make(nthreads, mode, groups)
        ref = make(nthreads, mode, groups)
        new_log, ref_log = recorded(new), recorded(ref)
        sent = 0
        for _ in range(6):
            # A fill leaves some queues empty and may overfill others.
            for tid in range(nthreads):
                for _ in range(rng.choice((0, 0, 1, 3, 9))):
                    key = ((tid,), (sent,))
                    sent += 1
                    for monitor in (new, ref):
                        monitor.try_send(tid, OutcomeMessage(INFO, tid, key))
            limit = rng.randint(1, 20)
            assert new.drain(limit) == reference(ref, limit), seed
            assert new_log == ref_log, seed
            assert state(new) == state(ref), seed
        if mode == MODE_FULL:
            assert len(new_log) == new.messages_processed > 0


def test_limit_zero_processes_nothing():
    monitor = make(3, MODE_FULL, None)
    monitor.try_send(1, OutcomeMessage(INFO, 1, ((), ())))
    monitor._round_robin = 2
    assert monitor.drain(0) == 0
    assert monitor._round_robin == 2
    assert monitor.drain(5) == 1
    assert monitor._round_robin == 2   # one past queue 1
